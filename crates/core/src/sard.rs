//! SARD — the Structure-Aware Ridesharing Dispatch algorithm (Algorithm 3).
//!
//! SARD processes each batch in two iterated phases:
//!
//! * **Proposal** — every still-unassigned request proposes to its current
//!   *worst* candidate vehicle (the one whose schedule would grow the most by
//!   serving it), giving vehicles the initiative in selecting groups;
//! * **Acceptance** — every vehicle runs the grouping algorithm (Algorithm 2)
//!   over the requests proposed to it (plus the ones it tentatively accepted
//!   in earlier rounds) and keeps the feasible group with the **minimum
//!   shareability loss** (Definition 6, Theorem IV.1); ties are broken by the
//!   smaller sharing ratio (Example 4), then by larger group size.  Rejected
//!   requests go back to the working pool and propose to their next vehicle.
//!
//! The rounds repeat until no request can propose anymore; accepted groups are
//! then committed to the vehicles, assigned requests leave the shareability
//! graph and expired ones are dropped (Algorithm 3, lines 14–17).
//!
//! Batch-scoped work fans out across worker threads: candidate-queue
//! construction par-maps over the request pool and each acceptance round
//! par-maps the per-vehicle group enumeration, both reducing into canonically
//! ordered results (stable `(cost, vehicle_id)` / ascending-vehicle-order
//! tie-breaks) so the dispatch decisions are bit-identical to the sequential
//! sweep regardless of the worker count.
//!
//! One deliberate deviation from the paper's prose is documented here: taken
//! literally, "minimum shareability loss" would always favour singleton groups
//! (a singleton's loss is just its degree, usually smaller than any merged
//! group's loss), which would degenerate SARD into one-request-per-round
//! greedy matching.  Following Example 4 — where the vehicle keeps the
//! two-request group even though a singleton with smaller loss exists — the
//! acceptance step first restricts the choice to multi-request groups whenever
//! any feasible one exists, and only then minimises the loss.

use crate::config::StructRideConfig;
use crate::context::DispatchContext;
use crate::dispatcher::{BatchOutcome, Dispatcher, PendingSnapshot};
use crate::grouping::{enumerate_groups, CandidateGroup};
use crate::stages::{Span, Stage};
use rayon::prelude::*;
use std::collections::BTreeMap;
use structride_model::{Request, RequestId, Vehicle};
use structride_sharegraph::{shareability_loss, ShareabilityGraph, ShareabilityGraphBuilder};

/// Adds `batch` to the shareability graph, booking the build's three phases
/// to the context's stage clock when one is attached.
fn add_to_graph(
    builder: &mut ShareabilityGraphBuilder,
    ctx: &DispatchContext<'_>,
    batch: &[Request],
) {
    let Some(clock) = ctx.stages else {
        builder.add_batch(ctx.engine, batch);
        return;
    };
    let times = builder.add_batch_timed(ctx.engine, batch);
    clock.add(Stage::GraphPrefilter, times.prefilter);
    clock.add(Stage::GraphChecks, times.checks);
    clock.add(Stage::GraphInsert, times.insert);
}

/// The SARD dispatcher (the paper's contribution).
pub struct SardDispatcher {
    config: StructRideConfig,
    /// The dynamic shareability-graph builder; it owns the working set `R_p`
    /// of unassigned, unexpired requests carried across batches.
    builder: Option<ShareabilityGraphBuilder>,
    /// Snapshot handed back through [`Dispatcher::restore_snapshot`]
    /// (checkpoint resume), waiting for the next batch to reinstate pool and
    /// edges *verbatim* via [`ShareabilityGraphBuilder::restore`].  Edges are
    /// carried rather than re-derived because pairwise shareability depends
    /// on the traffic epoch at evaluation time — re-checking under the
    /// resume-time epoch could flip marginal pairs and break bit-identity.
    snapshot: Option<PendingSnapshot>,
    /// Peak dispatcher memory observed (Fig. 14 accounting).
    peak_memory: usize,
}

impl SardDispatcher {
    /// Creates a SARD dispatcher with the given framework configuration.
    pub fn new(config: StructRideConfig) -> Self {
        SardDispatcher {
            config,
            builder: None,
            snapshot: None,
            peak_memory: 0,
        }
    }

    /// Read access to the current shareability graph (for diagnostics/tests).
    pub fn shareability_graph(&self) -> Option<&ShareabilityGraph> {
        self.builder.as_ref().map(|b| b.graph())
    }

    /// Shareability-graph build statistics (candidate pairs, pruned pairs,
    /// exact checks) — the ingredients of the Table V/VI ablation.
    pub fn build_stats(&self) -> Option<structride_sharegraph::builder::BuildStats> {
        self.builder.as_ref().map(|b| b.stats())
    }

    /// Selects the group a vehicle accepts, per the rule described in the
    /// module documentation.  Returns the index into `groups`.
    fn select_group(graph: &ShareabilityGraph, groups: &[CandidateGroup]) -> Option<usize> {
        if groups.is_empty() {
            return None;
        }
        let any_multi = groups.iter().any(|g| g.members.len() >= 2);
        let mut best: Option<(usize, f64, f64, usize)> = None;
        for (idx, g) in groups.iter().enumerate() {
            if any_multi && g.members.len() < 2 {
                continue;
            }
            let loss = shareability_loss(graph, &g.members);
            let ratio = g.sharing_ratio();
            let better = match best {
                None => true,
                Some((_, bl, br, bs)) => {
                    loss < bl - 1e-9
                        || (loss <= bl + 1e-9
                            && (ratio < br - 1e-9 || (ratio <= br + 1e-9 && g.members.len() > bs)))
                }
            };
            if better {
                best = Some((idx, loss, ratio, g.members.len()));
            }
        }
        best.map(|(idx, _, _, _)| idx)
    }
}

impl Dispatcher for SardDispatcher {
    fn name(&self) -> &'static str {
        "SARD"
    }

    fn dispatch_batch(
        &mut self,
        ctx: &DispatchContext<'_>,
        vehicles: &mut [Vehicle],
        new_requests: &[Request],
    ) -> BatchOutcome {
        let engine = ctx.engine;
        let now = ctx.now;
        let config = self.config;
        // Lazily create the builder the first time we see the engine.
        let builder_config = config.builder_config();
        let builder = self
            .builder
            .get_or_insert_with(|| ShareabilityGraphBuilder::new(engine, builder_config));

        // A checkpoint snapshot reinstates its pool *and* edges verbatim —
        // no re-evaluation, so the resumed graph is the checkpointed graph.
        if let Some(snapshot) = self.snapshot.take() {
            builder.restore(engine, snapshot.pool, &snapshot.edges);
        }

        // Requests whose pickup deadline already passed can no longer be
        // served — drop them before they pollute the candidate queues.
        builder.remove_expired(now);

        // Line 3: extend the shareability graph with the batch's requests
        // (edge discovery fans out internally; see the sharegraph builder).
        add_to_graph(builder, ctx, new_requests);
        // The pool and the graph are at their batch peak here (Fig. 14).
        self.peak_memory = self.peak_memory.max(builder.approx_bytes());

        // From here until the commit phase the builder and the fleet are only
        // read, so parallel workers may share them.
        let builder_view: &ShareabilityGraphBuilder = builder;
        let vehicles_view: &[Vehicle] = vehicles;

        // Lines 4–6: per-request candidate-vehicle queues ordered so that the
        // *worst* vehicle (largest added cost) is proposed to first.  Each
        // request's queue is independent, so the fleet scan fans out across
        // requests; within a queue candidates are reduced into a canonical
        // order by the stable (added_cost, vehicle_id) tie-break, making the
        // result identical to the sequential sweep.  `queues[p]` belongs to
        // `pool[p]`, the pool sorted by id.
        let pool: Vec<RequestId> = {
            let mut ids: Vec<RequestId> = builder_view.requests().keys().copied().collect();
            ids.sort_unstable();
            ids
        };
        // Only the `k` cheapest vehicles stay in a queue (the grid-range
        // candidate retrieval of §II-B), and the request proposes from the
        // back of that ascending list — the worst of its candidate
        // neighbourhood first, as in Algorithm 3 line 9.
        let requests: Vec<&Request> = pool
            .iter()
            .map(|&rid| builder_view.request(rid).expect("pooled request exists"))
            .collect();
        let mut queues: Vec<Vec<usize>> = ctx
            .score_pool(vehicles_view, &requests, config.max_candidate_vehicles)
            .into_iter()
            .map(|candidates| candidates.into_iter().map(|(_, vi)| vi).collect())
            .collect();

        // Proposal / acceptance rounds.  The tentatively accepted groups are
        // the only state carried from round to round: a request is
        // unassigned exactly when no accepted group holds it.
        let mut accepted: BTreeMap<usize, CandidateGroup> = BTreeMap::new();
        loop {
            // --- proposal phase (lines 8–10) ---
            // Every unassigned request with a vehicle left in its queue
            // proposes, in ascending id order.  When none can, the rounds
            // are over.  `taken[p]` marks `pool[p]` as held by an accepted
            // group.
            let mut taken = vec![false; pool.len()];
            for rid in accepted.values().flat_map(|g| &g.members) {
                taken[pool.binary_search(rid).expect("members are pooled")] = true;
            }
            let mut proposals: BTreeMap<usize, Vec<RequestId>> = BTreeMap::new();
            for ((&rid, queue), taken) in pool.iter().zip(&mut queues).zip(taken) {
                if taken {
                    continue;
                }
                if let Some(vi) = queue.pop() {
                    proposals.entry(vi).or_default().push(rid);
                }
            }
            if proposals.is_empty() {
                break;
            }

            // --- acceptance phase (lines 11–16) ---
            // Each proposed-to vehicle enumerates groups over this round's
            // proposals plus its previously accepted group (disjoint: only
            // unassigned requests propose).  The inputs (builder graph, fleet
            // state, this round's proposals, the accepted groups) are fixed
            // for the round, so the per-vehicle work is embarrassingly
            // parallel; decisions are applied in ascending vehicle order.
            let jobs: Vec<(usize, Vec<RequestId>)> = proposals
                .into_iter()
                .map(|(vi, mut pooled)| {
                    if let Some(prev) = accepted.get(&vi) {
                        pooled.extend(prev.members.iter().copied());
                    }
                    (vi, pooled)
                })
                .collect();
            let decisions: Vec<(usize, Option<CandidateGroup>)> = jobs
                .par_iter()
                .map(|(vi, pooled)| {
                    let span = Span::open(ctx.stages, Stage::Grouping);
                    let vehicle = &vehicles_view[*vi];
                    let groups = enumerate_groups(
                        ctx,
                        builder_view.graph(),
                        builder_view.requests(),
                        pooled,
                        vehicle,
                        vehicle.capacity as usize,
                    );
                    let best = Self::select_group(builder_view.graph(), &groups)
                        .map(|best_idx| groups[best_idx].clone());
                    span.close();
                    (*vi, best)
                })
                .collect();

            // The accepted group replaces the vehicle's previous one; every
            // other pooled request returns to the market.  A vehicle holding
            // a group always finds one again: each member of an enumerated
            // group is itself a feasible singleton.
            for (vi, best) in decisions {
                match best {
                    Some(best) => {
                        accepted.insert(vi, best);
                    }
                    None => debug_assert!(
                        !accepted.contains_key(&vi),
                        "a vehicle holding a group finds a group again"
                    ),
                }
            }
        }

        // Commit accepted groups (end of the batch), in vehicle order.
        let mut outcome = BatchOutcome::empty();
        for (vi, group) in accepted {
            vehicles[vi].commit_schedule(group.schedule);
            for rid in group.members {
                builder.remove_request(rid);
                outcome.assigned.push(rid);
            }
        }
        outcome.assigned.sort_unstable();

        // Line 17: expired requests leave the working pool and the graph.
        builder.remove_expired(now);
        outcome
    }

    fn pending_requests(&self) -> usize {
        self.snapshot.as_ref().map(|s| s.pool.len()).unwrap_or(0)
            + self.builder.as_ref().map(|b| b.len()).unwrap_or(0)
    }

    fn memory_bytes(&self) -> usize {
        self.peak_memory
            .max(self.builder.as_ref().map(|b| b.approx_bytes()).unwrap_or(0))
    }

    fn take_pending(&mut self) -> Vec<Request> {
        // The working set lives inside the shareability graph: drop the
        // graph with it (the shard that wins a drained request evaluates its
        // edges afresh when it arrives there).
        let mut pool = self.snapshot.take().map(|s| s.pool).unwrap_or_default();
        if let Some(builder) = self.builder.take() {
            pool.extend(builder.requests().values().cloned());
        }
        pool.sort_unstable_by_key(|r| r.id);
        pool
    }

    fn checkpoint_pending(&self) -> PendingSnapshot {
        let mut pool: Vec<Request> = Vec::new();
        let mut edges: Vec<(RequestId, RequestId)> = Vec::new();
        if let Some(snapshot) = &self.snapshot {
            pool.extend(snapshot.pool.iter().cloned());
            edges.extend(snapshot.edges.iter().copied());
        }
        if let Some(builder) = &self.builder {
            pool.extend(builder.requests().values().cloned());
            edges.extend(builder.graph().edges_sorted());
        }
        pool.sort_unstable_by_key(|r| r.id);
        edges.sort_unstable();
        PendingSnapshot { pool, edges }
    }

    fn restore_snapshot(&mut self, snapshot: PendingSnapshot) {
        debug_assert!(self.snapshot.is_none(), "a resume restores each lane once");
        self.snapshot = Some(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use structride_roadnet::{Point, RoadNetworkBuilder, SpEngine};

    /// The Figure 1(a) road network: a..g = 0..6 with the figure's weights.
    fn figure1_engine() -> SpEngine {
        let mut b = RoadNetworkBuilder::new();
        // Rough planar coordinates so the angle pruning sees sensible vectors.
        let coords = [
            (0.0, 0.0),      // a
            (200.0, 0.0),    // b
            (500.0, 0.0),    // c
            (0.0, 400.0),    // d
            (500.0, 400.0),  // e
            (700.0, 100.0),  // f
            (700.0, -100.0), // g
        ];
        for (x, y) in coords {
            b.add_node(Point::new(x, y));
        }
        let (a, bb, c, d, e, f, g) = (0, 1, 2, 3, 4, 5, 6);
        b.add_bidirectional(a, bb, 2.0).unwrap();
        b.add_bidirectional(bb, c, 3.0).unwrap();
        b.add_bidirectional(bb, e, 17.0).unwrap();
        b.add_bidirectional(c, f, 2.0).unwrap();
        b.add_bidirectional(a, d, 13.0).unwrap();
        b.add_bidirectional(d, e, 2.0).unwrap();
        b.add_bidirectional(e, f, 12.0).unwrap();
        b.add_bidirectional(f, g, 6.0).unwrap();
        b.add_bidirectional(c, g, 2.0).unwrap();
        b.add_bidirectional(c, e, 18.0).unwrap();
        SpEngine::new(b.build().unwrap())
    }

    /// The four requests of Table I (deadlines taken directly from the table).
    fn table1_requests(engine: &SpEngine) -> Vec<Request> {
        let (a, bb, c, d, e, f, g) = (0u32, 1u32, 2u32, 3u32, 4u32, 5u32, 6u32);
        let _ = bb;
        let mk = |id: u32, s: u32, t: u32, release: f64, deadline: f64| {
            let cost = engine.cost(s, t);
            Request::new(id, s, t, 1, release, deadline, deadline - cost, cost)
        };
        vec![
            mk(1, a, d, 0.0, 30.0),
            mk(2, c, f, 1.0, 19.0),
            mk(3, bb, e, 2.0, 21.0),
            mk(4, c, g, 3.0, 21.0),
        ]
    }

    #[test]
    fn serves_all_requests_of_the_motivating_example() {
        let engine = figure1_engine();
        let requests = table1_requests(&engine);
        let mut vehicles = vec![Vehicle::new(1, 0, 3), Vehicle::new(2, 2, 3)]; // at a and c
        let config = StructRideConfig {
            shareability_capacity: 3,
            // The toy example's coordinates are schematic, so judge sharing by
            // feasibility alone.
            angle: structride_sharegraph::AnglePruning::disabled(),
            ..Default::default()
        };
        let mut sard = SardDispatcher::new(config);
        let ctx = DispatchContext::new(&engine, config, 5.0);
        let outcome = sard.dispatch_batch(&ctx, &mut vehicles, &requests);
        // The whole point of the example: all four requests can be served.
        assert_eq!(outcome.assigned, vec![1, 2, 3, 4]);
        // Both vehicles received work and their schedules are feasible.
        for v in &vehicles {
            assert!(!v.schedule.is_empty());
            assert!(v.evaluate_current(&engine).feasible);
        }
        assert!(sard.memory_bytes() > 0);
        assert!(sard.build_stats().unwrap().shareability_checks > 0);
    }

    #[test]
    fn carries_unassigned_requests_to_later_batches() {
        let engine = figure1_engine();
        let requests = table1_requests(&engine);
        // A single one-seat vehicle cannot serve everyone at once.
        let mut vehicles = vec![Vehicle::new(1, 0, 1)];
        let config = StructRideConfig {
            shareability_capacity: 1,
            angle: structride_sharegraph::AnglePruning::disabled(),
            ..Default::default()
        };
        let mut sard = SardDispatcher::new(config);
        let ctx = DispatchContext::new(&engine, config, 4.0);
        let first = sard.dispatch_batch(&ctx, &mut vehicles, &requests);
        assert!(!first.assigned.is_empty());
        assert!(first.assigned.len() < requests.len());
        // The rest stay in the working pool (some may expire later).
        let graph = sard.shareability_graph().unwrap();
        assert_eq!(graph.node_count(), requests.len() - first.assigned.len());
        assert_eq!(
            sard.pending_requests(),
            requests.len() - first.assigned.len()
        );
        // A later empty batch past every deadline clears the pool.
        let late_ctx = DispatchContext::new(&engine, config, 1_000.0);
        let second = sard.dispatch_batch(&late_ctx, &mut vehicles, &[]);
        assert!(second.assigned.is_empty());
        assert_eq!(sard.shareability_graph().unwrap().node_count(), 0);
        assert_eq!(sard.pending_requests(), 0);
    }

    #[test]
    fn select_group_prefers_sharing_then_low_loss() {
        let mut graph = ShareabilityGraph::new();
        graph.add_edge(1, 2);
        graph.add_edge(1, 3);
        graph.add_edge(2, 3);
        graph.add_edge(2, 4);
        let mk = |members: Vec<RequestId>, travel: f64, direct: f64| CandidateGroup {
            members,
            schedule: structride_model::Schedule::new(),
            travel_cost: travel,
            added_cost: travel,
            members_direct_cost: direct,
        };
        // Singleton with the smallest loss vs. a pair: the pair wins because
        // sharing is preferred (see module docs / Example 4 round 1).
        let groups = vec![mk(vec![4], 10.0, 10.0), mk(vec![2, 3], 25.0, 30.0)];
        let idx = SardDispatcher::select_group(&graph, &groups).unwrap();
        assert_eq!(groups[idx].members, vec![2, 3]);

        // Among equal-loss groups the smaller sharing ratio wins (round 2).
        let groups = vec![
            mk(vec![1, 3], 21.0, 40.0),    // ratio 0.525
            mk(vec![1, 2, 3], 40.0, 60.0), // ratio 0.667
        ];
        let mut triangle = ShareabilityGraph::new();
        triangle.add_edge(1, 2);
        triangle.add_edge(1, 3);
        triangle.add_edge(2, 3);
        let idx = SardDispatcher::select_group(&triangle, &groups).unwrap();
        assert_eq!(groups[idx].members, vec![1, 3]);

        assert!(SardDispatcher::select_group(&graph, &[]).is_none());
    }
}
