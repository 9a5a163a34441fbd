//! The per-batch dispatch context shared by every dispatcher.
//!
//! [`DispatchContext`] bundles everything that is *ambient* for one batch —
//! the shortest-path engine, the framework configuration, the simulation
//! clock and a set of per-batch scratch counters — into a single borrow that
//! the simulator hands to [`Dispatcher::dispatch_batch`](crate::Dispatcher).
//! Before this type existed every dispatcher took a bare `(&SpEngine, …, now)`
//! tuple and each new piece of ambient state meant a breaking signature change
//! across all seven dispatchers; the context also gives batch-parallel code
//! one `Sync` handle to close over.
//!
//! # Parallel invariants
//!
//! The context is immutable apart from [`BatchScratch`], whose counters are
//! atomics, and the score memo, whose one lock a scoring pass takes once.
//! A `&DispatchContext` is therefore `Sync` and may be captured by rayon
//! workers: a scoring pass's per-request scoring, SARD's per-vehicle group
//! enumeration, the shareability builder's exact checks and the simulator's
//! vehicle sweep all fan out under a shared `&DispatchContext` (or
//! `&SpEngine`) without additional locking.  The engine's shortest-path cache
//! is split over independently locked stripes, so concurrent `cost()` calls
//! do not serialise on a global lock.
//!
//! # The replay invariant
//!
//! Determinism is not just documented, it is *enforced*: the
//! [`replay`](crate::replay) harness records `(batch, fleet-state, outcome)`
//! traces through this context and a recorded trace must replay
//! **bit-identically** — same assignments, same committed schedules, same
//! scratch counters — regardless of the worker-thread count and across
//! processes.  Any dispatcher consuming a `DispatchContext` must therefore
//! reduce its parallel stages into canonically ordered results before taking
//! decisions.
//!
//! # The score memo
//!
//! A lane attaches its [`ScoreMemo`] with
//! [`DispatchContext::with_score_memo`].  Candidate scoring runs in passes,
//! [`DispatchContext::score_pool`], one per SARD batch and one per LAP
//! round.  A pass first compares every vehicle's exact insertion inputs
//! with the memo's copy, once (see [`crate::score_memo`]); then each
//! request reads the scores of its unchanged pairs without a lock and sends
//! only the misses through the pickup-cost `many_to_many` pass and
//! `insert_request`; the memo takes the new scores when the pass ends, in
//! request order.  A hit carries the bits the computation would have
//! produced, and the scratch counters count hits exactly as computed pairs.
//! What the memo does change is the shortest-path query count: a hit issues
//! none.  Without a memo every lookup misses — the same loop, not a second
//! path.

use crate::config::StructRideConfig;
use crate::fleet_index::{FleetIndex, REACH_GRACE};
use crate::score_memo::{Pass, Score, ScoreMemo};
use crate::stages::{Span, Stage, StageClock};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use structride_model::{insertion, Request, Vehicle};
use structride_roadnet::{LegBound, NodeId, SpEngine};

/// Per-batch scratch counters, updated atomically by (possibly parallel)
/// dispatch code and drained by the simulator after each batch.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Tentative insertions actually evaluated while building candidate
    /// queues (post-prescreen: vehicles pruned by the certified
    /// reachability bound are *not* counted here).
    pub insertion_evaluations: AtomicU64,
    /// Candidate groups produced by `enumerate_groups`.
    pub groups_enumerated: AtomicU64,
    /// `(request, vehicle)` pairs pruned by the certified candidate
    /// prescreen before any exact insertion was attempted.
    pub prescreen_pruned: AtomicU64,
}

/// A plain-data snapshot of [`BatchScratch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Tentative insertions actually evaluated while building candidate
    /// queues (post-prescreen).
    pub insertion_evaluations: u64,
    /// Candidate groups produced by `enumerate_groups`.
    pub groups_enumerated: u64,
    /// `(request, vehicle)` pairs pruned by the certified prescreen.
    pub prescreen_pruned: u64,
}

impl std::ops::AddAssign for ScratchStats {
    fn add_assign(&mut self, other: ScratchStats) {
        self.insertion_evaluations += other.insertion_evaluations;
        self.groups_enumerated += other.groups_enumerated;
        self.prescreen_pruned += other.prescreen_pruned;
    }
}

impl BatchScratch {
    /// Records `n` insertion evaluations.
    pub fn count_insertion_evaluations(&self, n: u64) {
        self.insertion_evaluations.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` enumerated candidate groups.
    pub fn count_groups(&self, n: u64) {
        self.groups_enumerated.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` prescreen-pruned `(request, vehicle)` pairs.
    pub fn count_prescreen_pruned(&self, n: u64) {
        self.prescreen_pruned.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot of the counters.
    pub fn snapshot(&self) -> ScratchStats {
        ScratchStats {
            insertion_evaluations: self.insertion_evaluations.load(Ordering::Relaxed),
            groups_enumerated: self.groups_enumerated.load(Ordering::Relaxed),
            prescreen_pruned: self.prescreen_pruned.load(Ordering::Relaxed),
        }
    }
}

/// Everything a dispatcher needs to process one batch: engine, configuration,
/// clock and scratch counters.  See the module docs for the parallel
/// invariants.
#[derive(Debug)]
pub struct DispatchContext<'a> {
    /// The shared shortest-path oracle (striped cache, thread-safe).
    pub engine: &'a SpEngine,
    /// The framework configuration the simulator runs with.  Note that
    /// dispatchers constructed with their own configuration (e.g.
    /// `SardDispatcher::new`) dispatch with *that* one; keep the two
    /// identical — as the simulator suites do — or the context copy is
    /// informational only.
    pub config: StructRideConfig,
    /// The current simulation time (the end of the batch window).
    pub now: f64,
    /// Zero-based index of this batch within the run (diagnostics/logging;
    /// the bundled dispatchers do not branch on it).
    pub batch_index: usize,
    /// The engine's certified leg bound for this batch's epoch, read with
    /// `epoch` (see [`SpEngine::leg_bound`]).
    pub leg_bound: LegBound<'a>,
    /// The traffic epoch the engine is serving this batch under (0 forever
    /// for static engines).  Snapshotted from the engine when the context is
    /// created — i.e. *after* the simulator's epoch roll for the batch — so
    /// dispatch code can stamp diagnostics without re-deriving the epoch.
    pub epoch: u64,
    /// Per-batch scratch counters (atomics; shared with parallel workers).
    pub scratch: BatchScratch,
    /// The persistent fleet index, when the caller maintains one.  Dispatchers
    /// use it for the certified candidate prescreen; with `None` they fall
    /// back to the full-fleet scan (the two paths are bit-identical in
    /// dispatch decisions — the index only prunes provably infeasible pairs).
    pub fleet_index: Option<&'a FleetIndex>,
    /// The cross-batch score memo, when the caller keeps one.  With `None`
    /// every candidate is scored from scratch; the results are the same.
    pub score_memo: Option<&'a ScoreMemo>,
    /// The run's stage clock, when an observer is attached: dispatch code
    /// books its nested spans ([`crate::stages`]) into it.
    pub stages: Option<&'a StageClock>,
}

impl<'a> DispatchContext<'a> {
    /// Creates a context for a stand-alone dispatch call (batch index 0).
    pub fn new(engine: &'a SpEngine, config: StructRideConfig, now: f64) -> Self {
        Self::for_batch(engine, config, now, 0)
    }

    /// Creates the context for batch `batch_index` at simulation time `now`.
    pub fn for_batch(
        engine: &'a SpEngine,
        config: StructRideConfig,
        now: f64,
        batch_index: usize,
    ) -> Self {
        DispatchContext {
            engine,
            config,
            now,
            batch_index,
            leg_bound: engine.leg_bound(),
            epoch: engine.current_epoch(),
            scratch: BatchScratch::default(),
            fleet_index: None,
            score_memo: None,
            stages: None,
        }
    }

    /// Attaches a persistent fleet index, enabling the certified candidate
    /// prescreen in dispatchers that support it.
    pub fn with_fleet_index(mut self, index: &'a FleetIndex) -> Self {
        self.fleet_index = Some(index);
        self
    }

    /// Attaches a cross-batch score memo to [`DispatchContext::score_pool`].
    pub fn with_score_memo(mut self, memo: &'a ScoreMemo) -> Self {
        self.score_memo = Some(memo);
        self
    }

    /// The candidate vehicles of `request`: every vehicle whose current
    /// schedule admits it, as `(added_cost, vehicle_index)` in ascending
    /// order, cut to the `keep` cheapest (at least one).  The one-request
    /// case of [`DispatchContext::score_pool`].
    pub fn scored_candidates(
        &self,
        vehicles: &[Vehicle],
        request: &Request,
        keep: usize,
    ) -> Vec<(f64, usize)> {
        let mut rows = self.score_pool(vehicles, &[request], keep);
        rows.pop().expect("one row per request")
    }

    /// The candidate vehicles of each of `requests`, one row per request in
    /// order: every vehicle whose current schedule admits the request, as
    /// `(added_cost, vehicle_index)` in ascending order, cut to the `keep`
    /// cheapest (at least one).  SARD's candidate queues and the
    /// exact-assignment cost matrix are both built from this.
    ///
    /// With a fleet index attached each row is certified retrieval (§II-B's
    /// grid-range retrieval, made exact), in three stages:
    ///
    /// 1. scan the index's columns for the euclid reachability certificate —
    ///    a vehicle failing it provably cannot meet the pickup deadline;
    /// 2. drop survivors whose certified pickup bound
    ///    ([`DispatchContext::leg_bound`], the euclid and landmark bounds)
    ///    already misses the deadline: `free_at + bound > pickup_deadline +
    ///    REACH_GRACE`.  Stages 1 and 2 are one call,
    ///    [`FleetIndex::screened_candidates`], which reuses stage 1's
    ///    distances;
    /// 3. drop survivors whose *exact* travel time to the pickup (one
    ///    batched [`SpEngine::many_to_many`] pass, no cache) still misses it.
    ///
    /// Each stage only removes vehicles whose insertion would have been
    /// rejected, so the list is bit-identical to the one the full-fleet scan
    /// (no index) produces, and every removed vehicle counts as
    /// prescreen-pruned.  Stage 2's bound is at most the exact cost, so it
    /// rejects a subset of what stage 3 would reject.
    ///
    /// With a score memo attached the pass first validates every vehicle's
    /// inputs against the memo, once; the requests then fan out over the
    /// worker pool, and pairs whose vehicle inputs are unchanged since they
    /// were last scored are read from the memo without a lock.  Only the
    /// misses go through the `many_to_many` pass (whose per-pair bits do not
    /// depend on the matrix shape) and the insertion, and the memo takes
    /// their scores after the fan-out, in request order.  Pairs stage 2
    /// removes never reach the memo: the bound is a few array reads, and it
    /// gives the same verdict every time the inputs recur.
    pub fn score_pool(
        &self,
        vehicles: &[Vehicle],
        requests: &[&Request],
        keep: usize,
    ) -> Vec<Vec<(f64, usize)>> {
        let span = Span::open(self.stages, Stage::MemoLookup);
        let pass = self.score_memo.map(|memo| memo.pass(vehicles, self.epoch));
        span.close();
        let scored: Vec<Scored> = requests
            .par_iter()
            .map(|request| self.score_request(vehicles, request, keep, pass.as_ref()))
            .collect();
        if let Some(pass) = pass {
            let span = Span::open(self.stages, Stage::MemoLookup);
            let lookups = scored.iter().map(|row| row.lookups).sum();
            let fresh = requests.iter().zip(&scored).flat_map(|(request, row)| {
                row.fresh.iter().map(|&(vi, score)| (request.id, vi, score))
            });
            pass.merge(fresh, lookups);
            span.close();
        }
        scored.into_iter().map(|row| row.candidates).collect()
    }

    /// One row of [`DispatchContext::score_pool`], looked up in the memo's
    /// `pass` when there is one.
    fn score_request(
        &self,
        vehicles: &[Vehicle],
        request: &Request,
        keep: usize,
        pass: Option<&Pass<'_>>,
    ) -> Scored {
        let engine = self.engine;
        let prescreen = self.fleet_index.is_some();
        let span = Span::open(self.stages, Stage::Prescreen);
        let survivors: Vec<usize> = match self.fleet_index {
            // Stages 1 and 2 in one pass over the index's columns.
            Some(index) => index.screened_candidates(
                engine.network(),
                vehicles,
                &self.leg_bound,
                request.source,
                request.pickup_deadline,
            ),
            None => (0..vehicles.len()).collect(),
        };
        span.close();
        let span = Span::open(self.stages, Stage::MemoLookup);
        let memoized: Vec<Option<Score>> = match pass {
            Some(pass) => survivors
                .iter()
                .map(|&vi| pass.get(vi, request.id, prescreen))
                .collect(),
            None => vec![None; survivors.len()],
        };
        span.close();
        let span = Span::open(self.stages, Stage::ManyToMany);
        let miss_nodes: Vec<NodeId> = survivors
            .iter()
            .zip(&memoized)
            .filter(|(_, score)| score.is_none())
            .map(|(&vi, _)| vehicles[vi].node)
            .collect();
        let mut miss_pickup_costs = if prescreen && !miss_nodes.is_empty() {
            engine.many_to_many(&miss_nodes, &[request.source])
        } else {
            Vec::new()
        }
        .into_iter();
        span.close();

        let span = Span::open(self.stages, Stage::InsertLoop);
        let mut out = Scored {
            candidates: Vec::new(),
            fresh: Vec::new(),
            lookups: survivors.len() as u64,
        };
        let mut evaluated = 0u64;
        for (&vi, memoized) in survivors.iter().zip(memoized) {
            let vehicle = &vehicles[vi];
            let score = memoized.unwrap_or_else(|| {
                let reachable = prescreen.then(|| {
                    let cost = miss_pickup_costs
                        .next()
                        .expect("one pickup cost per memo miss");
                    // When even the direct drive to the pickup misses the
                    // deadline, every insertion position does too.
                    let misses = vehicle.free_at + cost > request.pickup_deadline + REACH_GRACE;
                    !misses
                });
                let added_cost = match reachable {
                    Some(false) => None,
                    _ => insertion::insert_request(engine, vehicle, request)
                        .map(|out| out.added_cost),
                };
                let score = Score {
                    reachable,
                    added_cost,
                };
                out.fresh.push((vi, score));
                score
            });
            // Without the prescreen every vehicle counts as evaluated, even
            // one a screened entry marks unreachable (its certified added
            // cost is `None`, as the insertion would find).
            if prescreen && score.reachable == Some(false) {
                continue;
            }
            evaluated += 1;
            if let Some(added_cost) = score.added_cost {
                out.candidates.push((added_cost, vi));
            }
        }
        span.close();
        if prescreen {
            self.scratch
                .count_prescreen_pruned(vehicles.len() as u64 - evaluated);
        }
        self.scratch.count_insertion_evaluations(evaluated);
        out.candidates
            .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out.candidates.truncate(keep.max(1));
        out
    }
}

/// One request's share of a scoring pass.
struct Scored {
    /// The candidate list [`DispatchContext::score_pool`] returns.
    candidates: Vec<(f64, usize)>,
    /// Scores computed rather than read, as `(vehicle_index, score)`, for
    /// the memo to take when the pass ends.
    fresh: Vec<(usize, Score)>,
    /// Memo lookups, when there is a memo; the ones not in `fresh` hit.
    lookups: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use structride_roadnet::{Point, RoadNetworkBuilder};

    fn tiny_engine() -> SpEngine {
        let mut b = RoadNetworkBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(10.0, 0.0));
        b.add_bidirectional(0, 1, 5.0).unwrap();
        SpEngine::new(b.build().unwrap())
    }

    #[test]
    fn context_carries_clock_and_config() {
        let engine = tiny_engine();
        let config = StructRideConfig::default();
        let ctx = DispatchContext::for_batch(&engine, config, 42.0, 7);
        assert_eq!(ctx.now, 42.0);
        assert_eq!(ctx.batch_index, 7);
        assert_eq!(ctx.epoch, 0, "static engines pin epoch 0");
        assert_eq!(ctx.config.batch_period, config.batch_period);
        assert_eq!(ctx.engine.cost(0, 1), 5.0);
    }

    #[test]
    fn scratch_counters_accumulate_atomically_across_threads() {
        let engine = tiny_engine();
        let ctx = DispatchContext::new(&engine, StructRideConfig::default(), 0.0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let ctx = &ctx;
                scope.spawn(move || {
                    for _ in 0..1000 {
                        ctx.scratch.count_insertion_evaluations(1);
                    }
                    ctx.scratch.count_groups(5);
                });
            }
        });
        let stats = ctx.scratch.snapshot();
        assert_eq!(stats.insertion_evaluations, 4000);
        assert_eq!(stats.groups_enumerated, 20);
    }

    #[test]
    fn a_pickup_screen_rejection_implies_the_many_to_many_rejection() {
        use structride_datagen::{rush_hour, CityProfile, Workload, WorkloadParams};
        use structride_roadnet::SpEngineBuilder;
        let w = Workload::generate(WorkloadParams {
            num_requests: 60,
            num_vehicles: 10,
            horizon: 240.0,
            scale: 0.3,
            ..WorkloadParams::small(CityProfile::NycLike)
        });
        let rush = SpEngineBuilder::new()
            .traffic(rush_hour(30.0, 30.0))
            .build(w.engine.network().clone());
        assert!(rush.roll_epoch_to(8.0 * 30.0));
        let nodes: Vec<NodeId> = w.engine.network().nodes().collect();
        for engine in [&w.engine, &rush] {
            let ctx = DispatchContext::new(engine, StructRideConfig::default(), 0.0);
            let (mut screened, mut rejected) = (0, 0);
            for request in &w.requests {
                let costs = engine.many_to_many(&nodes, &[request.source]);
                for (&node, cost) in nodes.iter().zip(costs) {
                    // A vehicle at `node`, free when the request is released.
                    let deadline = request.pickup_deadline + REACH_GRACE;
                    let bound = ctx.leg_bound.lower_bound(node, request.source);
                    let screen_rejects = request.release + bound > deadline;
                    let exact_rejects = request.release + cost > deadline;
                    assert!(
                        !screen_rejects || exact_rejects,
                        "node {node} -> pickup {}: bound {bound} vs cost {cost}",
                        request.source
                    );
                    screened += usize::from(screen_rejects);
                    rejected += usize::from(exact_rejects);
                }
            }
            // The screen is not vacuous: it proves most exact rejections.
            assert!(2 * screened > rejected, "{screened} of {rejected}");
        }
    }

    #[test]
    fn context_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<DispatchContext<'_>>();
    }
}
