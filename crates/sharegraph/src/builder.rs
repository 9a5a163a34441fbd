//! The dynamic shareability-graph builder (Algorithm 1).
//!
//! The builder keeps the shareability graph of all *live* requests (unassigned
//! and unexpired) across batches.  When a batch of new requests arrives it
//! only looks for edges incident to the new requests:
//!
//! 1. a **pickup-window prefilter** scans the live requests for those whose
//!    sources are close enough (in Euclidean distance, converted with the
//!    network's maximum speed) to possibly satisfy both pickup deadlines.
//!    The paper retrieves them from the grid index of §II-B; here the
//!    reach covers most of a city, so one scan over the live set, with a
//!    cheap disc test first, does less work than a cell walk.  The rule is
//!    a necessary condition of the exact check (see
//!    `prefilter_candidates`), so it drops no edge;
//! 2. the **angle pruning** rule of §III-B discards candidates whose travel
//!    direction diverges too much from the new request;
//! 3. the surviving pairs are tested with the exact shareability check
//!    (the six-ordering schedule enumeration of
//!    [`crate::shareable::ShareabilityCheck`]) and edges are added.
//!
//! Counters for candidate pairs, pruned pairs and exact checks feed the
//! Table V / Table VI ablation.
//!
//! # Parallel batch builds
//!
//! [`ShareabilityGraphBuilder::add_batch`] runs the expensive step — the
//! exact shareability checks — in parallel.  One screened check is built
//! per batch from the engine's certified leg bound (the euclid and landmark
//! bounds, at the current epoch's rate and weight ratio on a traffic
//! engine), so a pair whose orderings all fail on lower-bound legs costs no
//! shortest-path query, and every other leg is queried at most once per
//! pair.  A sequential prefilter pass registers
//! the batch's requests and collects the surviving candidate pairs (in the
//! live table's iteration order, which reaches no decision: edges go into
//! sets and the counters are counts), the checks are par-mapped over that
//! list, the batch's [`BuildStats`] delta is folded into the running totals,
//! and edges are inserted afterwards.  Because the
//! prefilters never consult the edge set, deferring the insertions does not
//! change any decision, so the resulting graph and counters are the same as
//! those of a one-request-at-a-time build that checks each pair unscreened
//! on the calling thread, regardless of the worker count.  That sequential build
//! lives in this module's tests, which hold the parallel one to it batch by
//! batch.

use crate::angle::AnglePruning;
use crate::graph::ShareabilityGraph;
use crate::shareable::ShareabilityCheck;
use rayon::prelude::*;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use structride_model::{Request, RequestId};
use structride_roadnet::{SpEngine, LOWER_BOUND_GRACE};

/// Configuration of the dynamic builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuilderConfig {
    /// Seat capacity assumed for the hypothetical shared vehicle (the paper
    /// uses the fleet's capacity `c`).
    pub vehicle_capacity: u32,
    /// The angle-pruning rule (enabled with δ = π/2 by default).
    pub angle: AnglePruning,
}

impl Default for BuilderConfig {
    fn default() -> Self {
        BuilderConfig {
            vehicle_capacity: 4,
            angle: AnglePruning::default(),
        }
    }
}

/// Counters describing the work done by the builder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Candidate pairs kept by the pickup-window prefilter.
    pub candidate_pairs: u64,
    /// Pairs discarded by the angle rule.
    pub angle_pruned: u64,
    /// Pairs that reached the exact shareability check.
    pub shareability_checks: u64,
    /// Edges added to the graph.
    pub edges_added: u64,
}

impl BuildStats {
    /// Field-wise sum; used to fold a batch's aggregated stats delta into the
    /// running totals.
    pub fn merged(self, other: BuildStats) -> BuildStats {
        BuildStats {
            candidate_pairs: self.candidate_pairs + other.candidate_pairs,
            angle_pruned: self.angle_pruned + other.angle_pruned,
            shareability_checks: self.shareability_checks + other.shareability_checks,
            edges_added: self.edges_added + other.edges_added,
        }
    }
}

/// Where one [`ShareabilityGraphBuilder::add_batch_timed`] call spent its
/// time.  `checks` is CPU time summed over the workers that ran them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildTimes {
    /// Phase 1: registering the batch and prefiltering candidate pairs.
    pub prefilter: Duration,
    /// Phase 2: the exact shareability checks.
    pub checks: Duration,
    /// Phase 3: inserting the edges.
    pub insert: Duration,
}

/// The earliest release and the latest pickup deadline over `requests`.
/// With them, `max(latest − r_a, pd_a − earliest)` bounds the pickup window
/// of request `a` with any of `requests` (see
/// `ShareabilityGraphBuilder::prefilter_candidates`).
fn pickup_span<'a>(requests: impl Iterator<Item = &'a Request>) -> (f64, f64) {
    requests.fold(
        (f64::INFINITY, f64::NEG_INFINITY),
        |(release, pickup), r| (release.min(r.release), pickup.max(r.pickup_deadline)),
    )
}

/// Dynamic shareability-graph builder (Algorithm 1).
#[derive(Debug)]
pub struct ShareabilityGraphBuilder {
    config: BuilderConfig,
    graph: ShareabilityGraph,
    requests: HashMap<RequestId, Request>,
    /// Maximum straight-line speed observed on any free-flow edge (m/s); 0
    /// disables the Euclidean prefilter.
    max_speed: f64,
    stats: BuildStats,
}

impl ShareabilityGraphBuilder {
    /// Creates a builder for the given road network.
    pub fn new(engine: &SpEngine, config: BuilderConfig) -> Self {
        let net = engine.network();
        let mut max_speed: f64 = 0.0;
        for u in net.nodes() {
            let pu = net.coord(u);
            for (v, w) in net.out_edges(u) {
                if w > 0.0 {
                    let d = pu.distance(&net.coord(v));
                    max_speed = max_speed.max(d / w);
                }
            }
        }
        ShareabilityGraphBuilder {
            config,
            graph: ShareabilityGraph::new(),
            requests: HashMap::new(),
            max_speed,
            stats: BuildStats::default(),
        }
    }

    /// The current shareability graph.
    pub fn graph(&self) -> &ShareabilityGraph {
        &self.graph
    }

    /// Counters since construction.
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// The live requests tracked by the builder.
    pub fn requests(&self) -> &HashMap<RequestId, Request> {
        &self.requests
    }

    /// Looks up a live request.
    pub fn request(&self, id: RequestId) -> Option<&Request> {
        self.requests.get(&id)
    }

    /// Number of live requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if no live requests are tracked.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Adds a batch of new requests and discovers their shareability edges
    /// (Algorithm 1, lines 2–8), fanning the exact shareability checks out
    /// over the rayon workers.  Bit-identical to the sequential build; see
    /// the module docs for why.
    pub fn add_batch(&mut self, engine: &SpEngine, batch: &[Request]) {
        self.add_batch_inner(engine, batch, false);
    }

    /// [`ShareabilityGraphBuilder::add_batch`], timing its three phases.
    /// Only the clock reads differ; the graph and counters are the same.
    pub fn add_batch_timed(&mut self, engine: &SpEngine, batch: &[Request]) -> BuildTimes {
        self.add_batch_inner(engine, batch, true)
    }

    fn add_batch_inner(&mut self, engine: &SpEngine, batch: &[Request], timed: bool) -> BuildTimes {
        let mut times = BuildTimes::default();
        let clock = || timed.then(Instant::now);
        let elapsed = |t0: Option<Instant>| t0.map_or(Duration::ZERO, |t0| t0.elapsed());
        // --- phase 1 (sequential): register requests and prefilter. --------
        let t0 = clock();
        let span = pickup_span(self.requests.values().chain(batch));
        let max_speed = self.epoch_max_speed(engine);
        let mut jobs: Vec<(RequestId, RequestId)> = Vec::new();
        for r in batch {
            let id = r.id;
            if self.requests.contains_key(&id) {
                continue;
            }
            self.graph.add_node(id);
            for cand_id in self.prefilter_candidates(engine, r, span, max_speed) {
                jobs.push((id, cand_id));
            }
            self.requests.insert(id, r.clone());
        }
        times.prefilter = elapsed(t0);

        // --- phase 2 (parallel): the exact checks (line 7), screened at the
        //     engine's rate read once for the batch.  Every id in `jobs` is
        //     registered by now and the table is only read. -----------------
        let check = ShareabilityCheck::new(engine, self.config.vehicle_capacity);
        let requests = &self.requests;
        let checked: Vec<(bool, Duration)> = jobs
            .par_iter()
            .map(|&(a, b)| {
                let t0 = clock();
                let verdict = check.shareable(&requests[&a], &requests[&b]);
                (verdict, elapsed(t0))
            })
            .collect();
        times.checks = checked.iter().map(|&(_, spent)| spent).sum();
        let verdicts = checked.into_iter().map(|(verdict, _)| verdict);
        self.stats = self.stats.merged(BuildStats {
            shareability_checks: jobs.len() as u64,
            edges_added: verdicts.clone().filter(|&v| v).count() as u64,
            ..BuildStats::default()
        });

        // --- phase 3 (sequential): insert the edges. ------------------------
        let t0 = clock();
        for (&(a, b), shareable) in jobs.iter().zip(verdicts) {
            if shareable {
                self.graph.add_edge(a, b);
            }
        }
        times.insert = elapsed(t0);
        times
    }

    /// The fastest straight-line speed of any path in the engine's current
    /// epoch.  Every zone-weighted path costs at least the epoch's weight
    /// ratio times its free-flow cost, so an epoch whose ratio is below 1
    /// outruns the free-flow network's fastest edge by at most `1 / ratio`.
    fn epoch_max_speed(&self, engine: &SpEngine) -> f64 {
        self.max_speed / engine.leg_bound().ratio().min(1.0)
    }

    /// Candidate generation and cheap pruning for one incoming request
    /// (Algorithm 1, lines 4–6): one scan over the live requests with the
    /// pickup-window and angle tests.  Returns the live request ids that
    /// must undergo the exact shareability check, and accounts the
    /// `candidate_pairs` / `angle_pruned` counters.
    ///
    /// The pickup-window rule drops a pair `(a, b)` only when
    /// `euclid(s_a, s_b) > max_speed × max(pd_b − r_a, pd_a − r_b, 0)`,
    /// with `r` the release and `pd` the pickup deadline.  That is a
    /// necessary condition of Definition 5's check in all six orderings,
    /// back-to-back ones included.  Each ordering starts on one pickup, say
    /// `s_a`, at `r_a`, and must serve the other pickup `s_b` by `pd_b`.  The
    /// way from `s_a` to `s_b` may pass `e_a` (the back-to-back trip `s_a
    /// e_a s_b e_b`), but by the triangle inequality no way is shorter
    /// than the shortest path, which takes at least `euclid / max_speed`:
    /// `max_speed` is the fastest straight-line speed of any edge in the
    /// current epoch (`epoch_max_speed`).  So a
    /// feasible ordering starting at `s_a` needs `euclid ≤ max_speed × (pd_b
    /// − r_a)`, one starting at `s_b` needs `euclid ≤ max_speed × (pd_a −
    /// r_b)`, and a feasible pair satisfies the larger of the two.  The rule
    /// reads no delivery deadline and assumes no release order, so
    /// batches may arrive out of order.  It holds in exact arithmetic, with
    /// the check's `TIME_EPS` tolerance as the only gap.
    ///
    /// A disc around the incoming request skips the rule's work for far
    /// sources.  `span` is [`pickup_span`] over a superset of the live
    /// requests, so its reach bounds the window of every live pair, and a
    /// source outside the disc fails the window rule too.  The grace keeps
    /// float rounding from ever reversing that, so the disc drops no pair
    /// the rule keeps.  The incoming request's own window cannot set the
    /// reach: a live request may have been released up to its own maximum
    /// wait earlier (600 s in the Cainiao profile), and a back-to-back trip
    /// serves a pair whose later release comes after the earlier delivery
    /// deadline.
    fn prefilter_candidates(
        &mut self,
        engine: &SpEngine,
        request: &Request,
        span: (f64, f64),
        max_speed: f64,
    ) -> Vec<RequestId> {
        let src = engine.coord(request.source);
        let (earliest_release, latest_pickup) = span;
        let reach = (latest_pickup - request.release)
            .max(request.pickup_deadline - earliest_release)
            + LOWER_BOUND_GRACE;
        let radius = (max_speed * reach).max(0.0);
        let mut survivors: Vec<RequestId> = Vec::new();
        for (&cand_id, other) in &self.requests {
            // --- candidate generation (line 4): the pickup windows --------
            if max_speed > 0.0 {
                let other_src = engine.coord(other.source);
                let (dx, dy) = (other_src.x - src.x, other_src.y - src.y);
                if dx * dx + dy * dy > radius * radius {
                    continue;
                }
                let d = src.distance(&other_src);
                let window = (other.pickup_deadline - request.release)
                    .max(request.pickup_deadline - other.release)
                    .max(0.0);
                if d > max_speed * window {
                    continue;
                }
            }
            self.stats.candidate_pairs += 1;

            // --- angle pruning (line 6) ---------------------------------
            if !self.config.angle.keeps(engine, request, other) {
                self.stats.angle_pruned += 1;
                continue;
            }
            survivors.push(cand_id);
        }
        survivors
    }

    /// Reinstates a checkpointed live set verbatim: the requests plus the
    /// exact recorded edge set, with no prefiltering and no shareability
    /// re-evaluation.
    ///
    /// The carried edges were evaluated when their later endpoint originally
    /// arrived — possibly under an earlier traffic epoch, whose travel times
    /// differ from today's — so re-running the exact checks now could flip
    /// marginal pairs and drift a resumed run away from the uninterrupted
    /// one.  Restoring the recorded set keeps the graph bit-identical.  The
    /// build counters deliberately stay untouched: the run that originally
    /// evaluated the pairs booked that work.
    ///
    /// The engine is not read (the builder keeps no spatial index); the
    /// parameter stays because the repo benchmark's kernels pass it.
    pub fn restore(
        &mut self,
        _engine: &SpEngine,
        requests: Vec<Request>,
        edges: &[(RequestId, RequestId)],
    ) {
        for r in requests {
            if self.requests.contains_key(&r.id) {
                continue;
            }
            self.graph.add_node(r.id);
            self.requests.insert(r.id, r);
        }
        for &(a, b) in edges {
            debug_assert!(
                self.requests.contains_key(&a) && self.requests.contains_key(&b),
                "checkpointed edge ({a},{b}) references an unknown request"
            );
            self.graph.add_edge(a, b);
        }
    }

    /// Removes a request (assigned or expired) from the graph.
    pub fn remove_request(&mut self, id: RequestId) -> bool {
        let existed = self.requests.remove(&id).is_some();
        if existed {
            self.graph.remove_node(id);
        }
        existed
    }

    /// Removes every live request whose pickup deadline has passed at `now`.
    /// Returns the expired request ids.
    pub fn remove_expired(&mut self, now: f64) -> Vec<RequestId> {
        let expired: Vec<RequestId> = self
            .requests
            .iter()
            .filter(|(_, r)| r.is_expired(now))
            .map(|(&id, _)| id)
            .collect();
        for &id in &expired {
            self.remove_request(id);
        }
        expired
    }

    /// Approximate heap footprint (graph + request table), counted from
    /// entries rather than container capacities, so equal contents give
    /// equal bytes whatever the hasher seed.
    pub fn approx_bytes(&self) -> usize {
        self.graph.approx_bytes() + self.requests.len() * (std::mem::size_of::<Request>() + 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shareable::pairwise_shareable;
    use crate::shareable::tests::random_request;
    use crate::test_engines::engines;
    use structride_datagen::{CityProfile, Workload, WorkloadParams};
    use structride_roadnet::{Point, RoadNetworkBuilder};

    /// A 5-node west-east line with coordinates matching the travel times
    /// (100 m apart, 10 s per hop → max speed 10 m/s).
    fn line_engine() -> SpEngine {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..5 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 1..5u32 {
            b.add_bidirectional(i - 1, i, 10.0).unwrap();
        }
        SpEngine::new(b.build().unwrap())
    }

    fn req(id: u32, s: u32, e: u32, release: f64, cost: f64, gamma: f64) -> Request {
        Request::with_detour(id, s, e, 1, release, cost, gamma, 300.0)
    }

    #[test]
    fn builds_edges_for_shareable_pairs() {
        let engine = line_engine();
        let mut builder = ShareabilityGraphBuilder::new(&engine, BuilderConfig::default());
        let a = req(1, 0, 4, 0.0, 40.0, 1.5);
        let b = req(2, 1, 3, 0.0, 20.0, 1.5);
        let c = req(3, 4, 0, 0.0, 40.0, 1.1); // opposite direction, tight
        builder.add_batch(&engine, &[a, b, c]);
        let g = builder.graph();
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(1, 3));
        assert!(!g.has_edge(2, 3));
        assert_eq!(builder.len(), 3);
        assert!(builder.stats().edges_added >= 1);
    }

    #[test]
    fn incremental_batches_extend_the_graph() {
        let engine = line_engine();
        let mut builder = ShareabilityGraphBuilder::new(&engine, BuilderConfig::default());
        builder.add_batch(&engine, &[req(1, 0, 4, 0.0, 40.0, 1.5)]);
        assert_eq!(builder.graph().edge_count(), 0);
        builder.add_batch(&engine, &[req(2, 1, 3, 1.0, 20.0, 1.5)]);
        assert!(builder.graph().has_edge(1, 2));
        // Duplicated ids are ignored.
        builder.add_batch(&engine, &[req(2, 1, 3, 1.0, 20.0, 1.5)]);
        assert_eq!(builder.len(), 2);
    }

    #[test]
    fn angle_pruning_skips_checks_but_disabled_mode_keeps_them() {
        let engine = line_engine();
        let mut cfg = BuilderConfig::default();
        let a = req(1, 0, 4, 0.0, 40.0, 2.0);
        let back = req(2, 3, 1, 0.0, 20.0, 2.0); // opposite direction

        // Add `back` first so that when `a` arrives, the angle is measured
        // from back's source towards the two (opposite) destinations.
        let mut with = ShareabilityGraphBuilder::new(&engine, cfg);
        with.add_batch(&engine, &[back.clone(), a.clone()]);
        assert!(with.stats().angle_pruned >= 1);

        cfg.angle = AnglePruning::disabled();
        let mut without = ShareabilityGraphBuilder::new(&engine, cfg);
        without.add_batch(&engine, &[back, a]);
        assert_eq!(without.stats().angle_pruned, 0);
        // Without pruning at least as many exact checks run.
        assert!(without.stats().shareability_checks >= with.stats().shareability_checks);
    }

    #[test]
    fn remove_and_expire_requests() {
        let engine = line_engine();
        let mut builder = ShareabilityGraphBuilder::new(&engine, BuilderConfig::default());
        let a = req(1, 0, 4, 0.0, 40.0, 1.5);
        let b = req(2, 1, 3, 0.0, 20.0, 1.5);
        builder.add_batch(&engine, &[a, b]);
        assert!(builder.remove_request(1));
        assert!(!builder.remove_request(1));
        assert_eq!(builder.graph().node_count(), 1);

        // Request 2's pickup deadline is release + min(300, slack=10) = 10.
        let expired = builder.remove_expired(1_000.0);
        assert_eq!(expired, vec![2]);
        assert!(builder.is_empty());
    }

    #[test]
    fn restore_reinstates_requests_and_edges_without_reevaluating() {
        let engine = line_engine();
        let mut original = ShareabilityGraphBuilder::new(&engine, BuilderConfig::default());
        original.add_batch(
            &engine,
            &[
                req(1, 0, 4, 0.0, 40.0, 1.5),
                req(2, 1, 3, 0.0, 20.0, 1.5),
                req(3, 4, 0, 0.0, 40.0, 1.1),
            ],
        );
        let pool: Vec<Request> = {
            let mut p: Vec<Request> = original.requests().values().cloned().collect();
            p.sort_unstable_by_key(|r| r.id);
            p
        };
        let edges = original.graph().edges_sorted();
        assert!(!edges.is_empty());

        let mut restored = ShareabilityGraphBuilder::new(&engine, BuilderConfig::default());
        restored.restore(&engine, pool, &edges);
        assert_eq!(restored.len(), original.len());
        assert_eq!(restored.graph().edges_sorted(), edges);
        // No evaluation work was re-booked.
        assert_eq!(restored.stats(), BuildStats::default());
        // The restored live set keeps growing exactly like the original.
        let newcomer = req(4, 2, 4, 1.0, 20.0, 1.5);
        original.add_batch(&engine, std::slice::from_ref(&newcomer));
        restored.add_batch(&engine, &[newcomer]);
        assert_eq!(
            restored.graph().edges_sorted(),
            original.graph().edges_sorted()
        );
    }

    #[test]
    fn stats_and_memory_accounting() {
        let engine = line_engine();
        let mut builder = ShareabilityGraphBuilder::new(&engine, BuilderConfig::default());
        builder.add_batch(
            &engine,
            &[
                req(1, 0, 4, 0.0, 40.0, 1.5),
                req(2, 1, 3, 0.0, 20.0, 1.5),
                req(3, 2, 4, 0.0, 20.0, 1.5),
            ],
        );
        let s = builder.stats();
        assert!(s.candidate_pairs >= s.shareability_checks);
        assert!(s.shareability_checks >= s.edges_added);
        assert!(builder.approx_bytes() > 0);
        assert!(builder.request(1).is_some());
        assert!(builder.request(42).is_none());
    }

    impl ShareabilityGraphBuilder {
        /// The reference the parallel build is held to: one request at a
        /// time on the calling thread, each surviving pair checked unscreened
        /// and its edge inserted as soon as it is found.
        fn add_batch_sequential(&mut self, engine: &SpEngine, batch: &[Request]) {
            let span = pickup_span(self.requests.values().chain(batch));
            let max_speed = self.epoch_max_speed(engine);
            for request in batch {
                let id = request.id;
                if self.requests.contains_key(&id) {
                    continue;
                }
                self.graph.add_node(id);
                for cand_id in self.prefilter_candidates(engine, request, span, max_speed) {
                    self.stats.shareability_checks += 1;
                    let other = &self.requests[&cand_id];
                    if pairwise_shareable(engine, request, other, self.config.vehicle_capacity) {
                        self.graph.add_edge(id, cand_id);
                        self.stats.edges_added += 1;
                    }
                }
                self.requests.insert(id, request.clone());
            }
        }
    }

    /// The full edge set as a sorted list of normalised `(min, max)` pairs.
    fn edge_set(builder: &ShareabilityGraphBuilder) -> Vec<(RequestId, RequestId)> {
        let graph = builder.graph();
        let mut edges: Vec<(RequestId, RequestId)> = Vec::new();
        for node in graph.nodes() {
            for neighbor in graph.neighbors(node) {
                if node < neighbor {
                    edges.push((node, neighbor));
                }
            }
        }
        edges.sort_unstable();
        edges
    }

    /// The prefilter is a necessary condition of the exact check on every
    /// engine shape, the fast-lane one (weight ratio 0.5) included: with
    /// angle pruning off, the built edge set is the brute-force one.
    #[test]
    fn the_prefilter_drops_no_shareable_pair_on_any_engine() {
        let config = BuilderConfig {
            vehicle_capacity: 4,
            angle: AnglePruning::disabled(),
        };
        // The range holds five fast-lane edges that the free-flow speed alone
        // would drop, the first at seed 158.
        for seed in 0..400 {
            for (shape, engine) in ["static", "rush", "fast-lane"].iter().zip(engines(seed)) {
                let mut gen = proptest::Gen::new(seed ^ 0xA5A5);
                let requests: Vec<Request> = (0..14)
                    .map(|id| random_request(&engine, &mut gen, id))
                    .collect();
                let mut builder = ShareabilityGraphBuilder::new(&engine, config);
                builder.add_batch(&engine, &requests);
                let mut expected: Vec<(RequestId, RequestId)> = Vec::new();
                for (i, a) in requests.iter().enumerate() {
                    for b in &requests[i + 1..] {
                        if pairwise_shareable(&engine, a, b, config.vehicle_capacity) {
                            expected.push((a.id, b.id));
                        }
                    }
                }
                assert_eq!(edge_set(&builder), expected, "seed {seed}, {shape} engine");
            }
        }
    }

    fn seeded_workload(seed: u64) -> Workload {
        Workload::generate(WorkloadParams {
            num_requests: 220,
            num_vehicles: 10,
            horizon: 400.0,
            scale: 0.4,
            seed,
            ..WorkloadParams::small(CityProfile::NycLike)
        })
    }

    /// On any workload, the rayon-parallel `add_batch` must produce exactly
    /// the graph and `BuildStats` of the sequential reference.
    #[test]
    fn parallel_batch_build_matches_sequential_build() {
        for (seed, angle) in [
            (41u64, AnglePruning::default()),
            (42, AnglePruning::disabled()),
        ] {
            let w = seeded_workload(seed);
            let config = BuilderConfig {
                vehicle_capacity: 4,
                angle,
            };

            let mut parallel = ShareabilityGraphBuilder::new(&w.engine, config);
            parallel.add_batch(&w.engine, &w.requests);

            let mut sequential = ShareabilityGraphBuilder::new(&w.engine, config);
            sequential.add_batch_sequential(&w.engine, &w.requests);

            assert_eq!(
                edge_set(&parallel),
                edge_set(&sequential),
                "seed {seed}: edge sets differ"
            );
            assert_eq!(
                parallel.stats(),
                sequential.stats(),
                "seed {seed}: stats differ"
            );
            assert_eq!(
                parallel.stats().edges_added as usize,
                edge_set(&parallel).len(),
                "edges_added must count exactly the edges present"
            );
            assert!(
                parallel.graph().edge_count() > 0,
                "workload must be non-trivial"
            );
            for node in parallel.graph().nodes() {
                assert_eq!(
                    parallel.graph().degree(node),
                    sequential.graph().degree(node)
                );
            }
        }
    }

    #[test]
    fn incremental_parallel_batches_match_sequential_batches() {
        let w = seeded_workload(7);
        let config = BuilderConfig::default();
        let mut parallel = ShareabilityGraphBuilder::new(&w.engine, config);
        let mut sequential = ShareabilityGraphBuilder::new(&w.engine, config);

        // Feed the stream in uneven batches, checking equality after every
        // batch: the live working set (carried-over requests) must stay in
        // lockstep too.
        for chunk in w.requests.chunks(37) {
            parallel.add_batch(&w.engine, chunk);
            sequential.add_batch_sequential(&w.engine, chunk);
            assert_eq!(edge_set(&parallel), edge_set(&sequential));
            assert_eq!(parallel.stats(), sequential.stats());
        }

        // Removals keep the two in lockstep as well.
        let victims: Vec<RequestId> = w.requests.iter().take(40).map(|r| r.id).collect();
        for id in victims {
            assert_eq!(parallel.remove_request(id), sequential.remove_request(id));
        }
        parallel.remove_expired(200.0);
        sequential.remove_expired(200.0);
        assert_eq!(edge_set(&parallel), edge_set(&sequential));
        assert_eq!(parallel.len(), sequential.len());
    }
}
