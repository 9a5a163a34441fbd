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
//! * the monolithic [`Simulator`](crate::Simulator) — one lane over the
//!   caller's borrowed engine and `&mut dyn Dispatcher`, clock-driven or
//!   behind the ingest front end;
//! * every shard of a [`ShardedSimulator`](crate::ShardedSimulator) — one
//!   lane per shard over the shard's own clipped engine and boxed
//!   dispatcher, with routing, faults and rebalancing layered around it;
//! * [`replay_trace`](crate::replay::replay_trace) — a fresh lane per
//!   recorded pre-dispatch fleet, each lent the replay's one score memo.
//!
//! The lane borrows the engine and the dispatcher per call instead of owning
//! them, which is what lets an owning shard and a borrowing monolithic run
//! share it.  It also assembles the run's [`RunMetrics`] and captures /
//! restores its slice of a [`Checkpoint`](crate::replay::Checkpoint).
//!
//! [`BatchRun`] is the shape a batch *source* drives: the Δ-clock
//! (`simulator::drive_clock`), the wall-clock ingest front end
//! (`ingest::drive_ingest`) and the fed-boundaries loop are each written
//! once, generic over it.

use crate::config::StructRideConfig;
use crate::context::{DispatchContext, ScratchStats};
use crate::dispatcher::{BatchOutcome, Dispatcher};
use crate::fleet_index::FleetIndex;
use crate::metrics::RunMetrics;
use crate::replay::{Checkpoint, ShardCheckpoint, TraceRecorder, VehicleState};
use crate::score_memo::ScoreMemo;
use crate::simulator::ResumeError;
use crate::stages::StageClock;
use rayon::prelude::*;
use std::collections::HashSet;
use std::time::Instant;
use structride_model::{unified_cost, Request, RequestId, Vehicle};
use structride_roadnet::SpEngine;

/// Safety valve shared by every batch source: no run issues more batches
/// than this (Δ is positive, so runs terminate anyway; this guards against
/// pathological configurations).
pub(crate) const MAX_BATCHES: usize = 10_000_000;

/// What a batch source offered a run: the penalty ledger and the horizon.
#[derive(Debug, Default)]
pub(crate) struct Offered {
    /// `(id, direct cost)` of every request the source emitted, in emission
    /// order (release order for the Δ-clock) — including requests that never
    /// reached a dispatcher (ingest drops and timeouts).
    pub(crate) ledger: Vec<(RequestId, f64)>,
    /// The latest pickup deadline: past it nothing can be assigned.
    pub(crate) horizon_end: f64,
}

impl Offered {
    /// Books one emitted request.
    pub(crate) fn push(&mut self, request: &Request) {
        self.ledger.push((request.id, request.direct_cost()));
        self.horizon_end = self.horizon_end.max(request.pickup_deadline);
    }
}

/// One run a batch source can drive: the monolithic `MonoRun` (one lane) or
/// the sharded `ShardedRun` (k lanes plus routing, faults and rebalancing).
pub(crate) trait BatchRun {
    /// Executes one batch at simulated time `now` and returns the request
    /// ids it committed.
    fn step(
        &mut self,
        now: f64,
        batch: &[Request],
        recorder: &mut Option<&mut TraceRecorder>,
        stages: Option<&StageClock>,
    ) -> Vec<RequestId>;

    /// Requests currently held by the run's dispatcher(s).
    fn pending(&self) -> usize;

    /// Number of batches stepped so far.
    fn batches(&self) -> usize;

    /// Snapshots the full mutable run state at a batch boundary — a pure
    /// read, so a checkpointing run steps bit-identically to a plain one.
    fn capture(&self, workload_name: &str, next_request: usize) -> Checkpoint;

    /// Reinstates a captured state into a freshly built run, rejecting a
    /// checkpoint of the wrong pipeline or shard count.
    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), ResumeError>;
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
        if engine.traffic_active() {
            // The build cached the free-flow base rate; pin the engine's
            // current (epoch-certified) rate instead.
            fleet_index.set_min_time_per_meter(engine.min_time_per_meter());
        }
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

    /// Rolls `engine` to the traffic epoch containing `now` (no-op for
    /// static engines and within an epoch) and, when the weights changed,
    /// re-pins the prescreen rate so the reachability certificate follows
    /// the reweighted network.  Callers roll *before* [`Lane::advance`], so
    /// the whole batch — movement included — sees one consistent epoch.
    pub(crate) fn roll(&mut self, engine: &SpEngine, now: f64) {
        if engine.roll_epoch_to(now) {
            self.fleet_index
                .set_min_time_per_meter(engine.min_time_per_meter());
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
        self.scratch.insertion_evaluations += scratch.insertion_evaluations;
        self.scratch.groups_enumerated += scratch.groups_enumerated;
        self.scratch.prescreen_pruned += scratch.prescreen_pruned;
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
            fleet: self.vehicles.iter().map(VehicleState::capture).collect(),
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
        self.vehicles = checkpoint.fleet.iter().map(VehicleState::restore).collect();
        self.reindex(engine);
        self.served = checkpoint.served.iter().copied().collect();
        self.scratch = checkpoint.scratch;
        self.solver_fallbacks = checkpoint.solver_fallbacks;
        dispatcher.restore_snapshot(checkpoint.pending.clone());
    }
}
