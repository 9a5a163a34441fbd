//! The batch step, written once: a [`Lane`] is one dispatch pipeline's
//! fleet-side state plus the only code that moves it.
//!
//! The paper's framework is one loop (§II, Alg. 1): every batch, move the
//! fleet to the batch clock, hand the released requests to the dispatcher,
//! account for what it committed.  Every run mode of this crate executes
//! that body through the same two calls — [`Lane::advance`] (the parallel
//! `advance_to` sweep plus the fleet-index sync) and [`Lane::dispatch`]
//! (build the [`DispatchContext`], time `dispatch_batch`, snapshot the
//! scratch counters, re-sync the index, accumulate):
//!
//! * every shard of a run — one lane per shard, stepped by the crate-private
//!   `ShardedRun`, whether a [`ShardedSimulator`](crate::ShardedSimulator)
//!   built it over its one engine and boxed dispatchers or the
//!   [`Simulator`](crate::Simulator) built it as one shard over the caller's
//!   engine and dispatcher;
//! * [`replay_trace`](crate::replay::replay_trace) — a fresh lane per
//!   recorded pre-dispatch fleet, each lent the replay's one score memo.
//!
//! The lane borrows the engine and the dispatcher per call instead of owning
//! them: a shard borrows both from whoever built the run — every shard the
//! same engine — and a replay re-lends one dispatcher to every lane.
//!
//! The lane is the one home of its pipeline's run state: the fleet, the
//! served set (a run's served set is the union of its lanes'), the work
//! counters.  It assembles its [`RunMetrics`] from them and captures /
//! restores its slice of a [`Checkpoint`](crate::replay::Checkpoint), the
//! fleet as cloned [`Vehicle`]s.  [`Lane::dispatch`] books a batch's assigned
//! ids into the served set and returns the outcome to its caller, which
//! merges the lanes' outcomes.

use crate::config::StructRideConfig;
use crate::context::{DispatchContext, ScratchStats};
use crate::dispatcher::{BatchOutcome, Dispatcher};
use crate::fleet_index::FleetIndex;
use crate::ingest::IngestStats;
use crate::metrics::RunMetrics;
use crate::replay::ShardCheckpoint;
use crate::score_memo::ScoreMemo;
use crate::stages::StageClock;
use rayon::prelude::*;
use std::collections::HashSet;
use std::time::Instant;
use structride_model::{unified_cost, Request, RequestId, Vehicle};
use structride_roadnet::{NodeId, SpEngine};

/// Safety valve shared by every batch source: no run issues more batches
/// than this (Δ is positive, so runs terminate anyway; this guards against
/// pathological configurations).
pub(crate) const MAX_BATCHES: usize = 10_000_000;

/// What a batch source offered a run: the penalty ledger and the horizon —
/// and, behind the ingest front end, how its queue behaved.
#[derive(Debug, Default)]
pub(crate) struct Offered {
    /// `(id, direct cost, pickup node)` of every request the source
    /// emitted, in emission order (release order for the Δ-clock) —
    /// including requests that never reached a dispatcher (ingest drops and
    /// timeouts).
    pub(crate) ledger: Vec<(RequestId, f64, NodeId)>,
    /// The latest pickup deadline: past it nothing can be assigned.
    pub(crate) horizon_end: f64,
    /// The ingest front end's statistics (`None` for every other source).
    pub(crate) ingest: Option<IngestStats>,
}

impl Offered {
    /// Books one emitted request.
    pub(crate) fn push(&mut self, request: &Request) {
        self.ledger
            .push((request.id, request.direct_cost(), request.source));
        self.horizon_end = self.horizon_end.max(request.pickup_deadline);
    }
}

/// The fleet-side state of one dispatch pipeline: the fleet, its persistent
/// index, the candidate-score memo, the served set and the cross-batch work
/// counters.
pub(crate) struct Lane {
    /// The framework configuration every batch of this pipeline runs with.
    pub(crate) config: StructRideConfig,
    /// The fleet, in slot order (the fleet index is keyed by slot).
    pub(crate) vehicles: Vec<Vehicle>,
    /// Per-slot columns over `vehicles`: synced after the advance sweep and
    /// after dispatch, rebuilt ([`Lane::reindex`]) when slots shift.
    pub(crate) fleet_index: FleetIndex,
    /// Candidate scores carried across batches (see [`crate::score_memo`]).
    /// Not checkpointed: it is keyed on exact inputs, so a cold memo only
    /// recomputes what a warm one would have returned.
    pub(crate) score_memo: ScoreMemo,
    /// Requests this lane's dispatcher assigned.
    pub(crate) served: HashSet<RequestId>,
    dispatch_time: f64,
    scratch: ScratchStats,
    solver_fallbacks: u64,
}

impl Lane {
    /// Builds a lane dispatching `vehicles` under `config` on `engine`'s
    /// network, with a fleet index whose certified prescreen rate is pinned
    /// to the engine's current traffic epoch.
    pub(crate) fn new(engine: &SpEngine, config: StructRideConfig, vehicles: Vec<Vehicle>) -> Lane {
        // The index reads neither a bounding box nor a cell count.
        let mut fleet_index = FleetIndex::build(Default::default(), 0, engine.network(), &vehicles);
        // The build cached the base network's rate; pin the engine's current
        // (epoch-certified) one, the same bits on a static engine.
        fleet_index.set_min_time_per_meter(engine.min_time_per_meter());
        Lane {
            config,
            vehicles,
            fleet_index,
            score_memo: ScoreMemo::new(),
            served: HashSet::new(),
            dispatch_time: 0.0,
            scratch: ScratchStats::default(),
            solver_fallbacks: 0,
        }
    }

    /// Moves every vehicle along its committed schedule up to `now` and
    /// syncs the fleet index to the new positions.  Each vehicle only reads
    /// the shared engine and mutates its own state, so the sweep fans out
    /// over the fleet.
    pub(crate) fn advance(&mut self, engine: &SpEngine, now: f64) {
        self.vehicles.par_iter_mut().for_each(|v| {
            v.advance_to(engine, now);
        });
        self.fleet_index.sync(engine.network(), &self.vehicles);
    }

    /// Re-keys the fleet index after `vehicles` was replaced or reordered
    /// (migration, restore, recovery from an outage).
    pub(crate) fn reindex(&mut self, engine: &SpEngine) {
        self.fleet_index.rebuild(engine.network(), &self.vehicles);
    }

    /// Hands `batch` to `dispatcher` through a fresh [`DispatchContext`] and
    /// books the outcome: dispatch wall time, scratch counters, solver
    /// fallbacks and the served set.  Score-memo entries the batch did not
    /// touch are evicted afterwards.  With `stages` the dispatcher's nested
    /// spans book into it.
    pub(crate) fn dispatch(
        &mut self,
        engine: &SpEngine,
        dispatcher: &mut dyn Dispatcher,
        now: f64,
        batch_index: usize,
        batch: &[Request],
        stages: Option<&StageClock>,
    ) -> (BatchOutcome, ScratchStats) {
        // Scoped so the context's borrow of the fleet index ends before the
        // post-dispatch resync below.
        let (outcome, scratch) = {
            let mut ctx = DispatchContext::for_batch(engine, self.config, now, batch_index)
                .with_fleet_index(&self.fleet_index)
                .with_score_memo(&self.score_memo);
            ctx.stages = stages;
            let t0 = Instant::now();
            let outcome = dispatcher.dispatch_batch(&ctx, &mut self.vehicles, batch);
            self.dispatch_time += t0.elapsed().as_secs_f64();
            (outcome, ctx.scratch.snapshot())
        };
        self.score_memo.evict_unseen();
        // Commits change neither `node` nor `free_at`; DARM's end-of-batch
        // repositioning writes both, so the index resyncs before the *next*
        // prescreen or routing pass consumes it.  In debug builds verify it
        // never drifted from the fleet.
        self.fleet_index.sync(engine.network(), &self.vehicles);
        #[cfg(debug_assertions)]
        self.fleet_index
            .check_consistency(engine.network(), &self.vehicles);
        self.scratch += scratch;
        self.solver_fallbacks += outcome.solver.map_or(0, |st| st.fallbacks);
        self.served.extend(outcome.assigned.iter().copied());
        (outcome, scratch)
    }

    /// Lets every committed schedule play out after the last batch at `now`.
    pub(crate) fn drain(&mut self, engine: &SpEngine, now: f64, horizon_end: f64) {
        self.advance(engine, now + horizon_end + 1.0e6);
    }

    /// Assembles the lane's [`RunMetrics`] against the `offered` penalty
    /// ledger (every request this lane answers for, with its direct cost).
    pub(crate) fn metrics(
        &self,
        dispatcher: &dyn Dispatcher,
        workload_name: &str,
        offered: &[(RequestId, f64)],
        batches: usize,
        sp_queries: u64,
    ) -> RunMetrics {
        let total_travel: f64 = self.vehicles.iter().map(|v| v.executed_travel).sum();
        let unserved_direct_cost: f64 = offered
            .iter()
            .filter(|(id, _)| !self.served.contains(id))
            .map(|(_, cost)| cost)
            .sum();
        RunMetrics {
            algorithm: dispatcher.name().to_string(),
            workload: workload_name.to_string(),
            total_requests: offered.len(),
            served_requests: self.served.len(),
            total_travel,
            unserved_direct_cost,
            unified_cost: unified_cost(&self.config.cost, total_travel, unserved_direct_cost),
            running_time: self.dispatch_time,
            sp_queries,
            memory_bytes: dispatcher.memory_bytes(),
            batches,
            insertion_evaluations: self.scratch.insertion_evaluations,
            groups_enumerated: self.scratch.groups_enumerated,
            prescreen_pruned: self.scratch.prescreen_pruned,
            solver_fallbacks: self.solver_fallbacks,
            memo_lookups: self.score_memo.lookups(),
            memo_hits: self.score_memo.hits(),
        }
    }

    /// Snapshots the lane and its dispatcher's carried pool — a pure read.
    /// Wall-clock diagnostics (dispatch seconds) are deliberately not
    /// captured; resumed runs re-accumulate them from zero, exactly as
    /// replay comparisons exclude them.
    pub(crate) fn capture(
        &self,
        dispatcher: &dyn Dispatcher,
        routed: Vec<(RequestId, f64)>,
    ) -> ShardCheckpoint {
        let mut served: Vec<RequestId> = self.served.iter().copied().collect();
        served.sort_unstable();
        ShardCheckpoint {
            scratch: self.scratch,
            solver_fallbacks: self.solver_fallbacks,
            routed,
            served,
            fleet: self.vehicles.clone(),
            pending: dispatcher.checkpoint_pending(),
        }
    }

    /// Reinstates a captured lane: the fleet in slot order (slot order is
    /// load-bearing after migrations) with its index re-keyed, the counters,
    /// and the dispatcher's pool and edges verbatim.
    pub(crate) fn restore(
        &mut self,
        engine: &SpEngine,
        dispatcher: &mut dyn Dispatcher,
        checkpoint: &ShardCheckpoint,
    ) {
        self.vehicles = checkpoint.fleet.clone();
        self.reindex(engine);
        self.served = checkpoint.served.iter().copied().collect();
        self.scratch = checkpoint.scratch;
        self.solver_fallbacks = checkpoint.solver_fallbacks;
        dispatcher.restore_snapshot(checkpoint.pending.clone());
    }
}
