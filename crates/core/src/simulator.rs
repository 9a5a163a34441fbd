//! The batched dynamic ridesharing simulator (the BDRP driver of §II), and
//! the Δ-clock both simulators share.
//!
//! `drive_clock` owns the simulated clock: it sorts the request stream by
//! release time, slices it into batches of Δ seconds, steps the run once per
//! batch, keeps issuing empty batches while carried-over requests may still
//! be assignable, stops as soon as the stream is exhausted and no
//! dispatcher-held request is waiting, hands a [`Checkpoint`] to the
//! caller's sink at the fault plan's cadence, and — on a resume — first
//! validates and restores the checkpoint.  It is generic over the
//! crate-private `BatchRun`, so the monolithic [`Simulator`] and the
//! [`ShardedSimulator`](crate::ShardedSimulator) run the *same* loop.
//!
//! The monolithic run itself is a `MonoRun`: one `Lane` (the crate-private
//! `lane` module — the batch step lives there, once) over the caller's
//! prebuilt engine and borrowed dispatcher.  After the last batch every
//! remaining schedule is executed and the lane produces the [`RunMetrics`]
//! the paper reports (unified cost, service rate, running time,
//! #shortest-path queries, memory).
//!
//! `Simulator` is deliberately *not* a one-shard `ShardedRun`: it borrows
//! the caller's engine and a non-`Send` dispatcher, where a sharded run
//! clones the network, builds its own labels and boxes `Send` dispatchers.
//! Both reach the same `Lane::dispatch`.

use crate::config::StructRideConfig;
use crate::dispatcher::Dispatcher;
use crate::lane::{BatchRun, Lane, Offered, MAX_BATCHES};
use crate::metrics::RunMetrics;
use crate::replay::{Checkpoint, CheckpointCounters, TraceRecorder};
use crate::stages::{RunObserver, Span, Stage, StageClock};
use std::collections::HashSet;
use std::fmt;
use std::time::Instant;
use structride_model::{Request, RequestId, Vehicle};
use structride_roadnet::SpEngine;

/// The output of one simulated run.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// The run-level metrics (what the figures plot).
    pub metrics: RunMetrics,
    /// Final vehicle states (schedules fully executed).
    pub vehicles: Vec<Vehicle>,
    /// The requests that were assigned to a vehicle.
    pub served: HashSet<RequestId>,
}

/// The optional observers of a clock-driven run
/// ([`Simulator::run_with`] / [`ShardedSimulator::run_with`](crate::ShardedSimulator::run_with)).
/// All are pure reads of the run, so any combination finishes
/// bit-identically to a plain run.
#[derive(Default)]
pub struct RunHooks<'a> {
    /// Records every `(batch, fleet-state, outcome)` tuple for the replay
    /// harness (see [`crate::replay`]).  Recording captures full fleet
    /// snapshots around every dispatch call, so use it on replay-sized
    /// workloads, not in the benchmark hot path.
    pub recorder: Option<&'a mut TraceRecorder>,
    /// Receives a [`Checkpoint`] at every batch boundary the fault plan's
    /// cadence marks (see
    /// [`FaultConfig::checkpoint_every`](crate::faults::FaultConfig)).
    pub checkpoints: Option<&'a mut dyn FnMut(Checkpoint)>,
    /// Receives every batch's stage spans (see [`crate::stages`]).  Without
    /// one no span reads the clock.
    pub observer: Option<&'a mut dyn RunObserver>,
}

/// Why a [`Checkpoint`] cannot be resumed.  A checkpoint is a parsed file,
/// so a mismatch is an input error the caller reports, not a bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeError {
    /// A sharded checkpoint handed to [`Simulator::resume`], or a monolithic
    /// one to [`ShardedSimulator::resume`](crate::ShardedSimulator::resume).
    WrongPipeline,
    /// The checkpoint's shard sections do not match the run's shard count
    /// (exactly one for the monolithic simulator).
    ShardCount {
        /// Shards of the run being resumed.
        expected: usize,
        /// Shard sections in the checkpoint.
        found: usize,
    },
    /// The stream cursor points past the end of the supplied request stream
    /// — the checkpoint belongs to a different (longer) stream.
    CursorPastEnd {
        /// [`Checkpoint::next_request`].
        cursor: usize,
        /// Length of the supplied request stream.
        requests: usize,
    },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::WrongPipeline => write!(
                f,
                "checkpoint was written by the other pipeline (monolithic vs sharded)"
            ),
            ResumeError::ShardCount { expected, found } => write!(
                f,
                "checkpoint has {found} shard section(s) but the run has {expected} shard(s)"
            ),
            ResumeError::CursorPastEnd { cursor, requests } => write!(
                f,
                "checkpoint cursor {cursor} is past the end of the {requests}-request stream"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

/// The Δ-clock: steps `run` over `requests` (any order; processed by release
/// time) in batches of `config.batch_period` seconds — from the head of the
/// stream at time zero, or from the position `resume_from` carries once the
/// checkpoint is validated and restored into the freshly built `run`.
/// Returns what was offered, for the run's final accounting; only a resume
/// can fail.
pub(crate) fn drive_clock<R: BatchRun>(
    run: &mut R,
    config: &StructRideConfig,
    requests: &[Request],
    workload_name: &str,
    mut hooks: RunHooks<'_>,
    resume_from: Option<&Checkpoint>,
) -> Result<Offered, ResumeError> {
    let mut ordered: Vec<Request> = requests.to_vec();
    ordered.sort_by(|a, b| {
        a.release
            .partial_cmp(&b.release)
            .expect("finite release times")
    });
    let delta = config.batch_period.max(1e-3);
    let mut offered = Offered::default();
    ordered.iter().for_each(|r| offered.push(r));
    let (mut next, mut now) = (0usize, 0.0);
    let clock = StageClock::default();
    let stages = hooks.observer.is_some().then_some(&clock);
    if let Some(checkpoint) = resume_from {
        if checkpoint.next_request > ordered.len() {
            return Err(ResumeError::CursorPastEnd {
                cursor: checkpoint.next_request,
                requests: ordered.len(),
            });
        }
        run.restore(checkpoint)?;
        (next, now) = (checkpoint.next_request, checkpoint.now);
    }
    // Keep offering empty batches until no request could still be waiting
    // for pickup (its pickup deadline bounds how long it can linger).
    while (next < ordered.len() || now < offered.horizon_end) && run.batches() <= MAX_BATCHES {
        now += delta;
        // Collect the requests released during this batch window.
        let start = next;
        while next < ordered.len() && ordered[next].release <= now {
            next += 1;
        }
        let batch_index = run.batches();
        let t0 = hooks.observer.as_deref_mut().map(|observer| {
            observer.on_batch_start(batch_index, now);
            Instant::now()
        });
        run.step(now, &ordered[start..next], &mut hooks.recorder, stages);
        if let (Some(observer), Some(t0)) = (hooks.observer.as_deref_mut(), t0) {
            clock.report(observer, batch_index, t0);
        }
        // Once the request stream is exhausted and no dispatcher holds a
        // carried-over request, no later batch can assign anything — stop
        // instead of spinning until the last pickup deadline.  Side effect
        // (intended): dispatchers that do per-batch background work, such as
        // DARM's idle-vehicle repositioning, no longer run it over the empty
        // tail — where it could only add dead-head travel, never serve a
        // request.
        if next == ordered.len() && run.pending() == 0 {
            break;
        }
        // Checkpoint boundary: the step just incremented the batch count, so
        // the plan's flag asks "is a checkpoint due before dispatching the
        // *next* batch?" — capturing the state this iteration left behind.
        // Placed after the early exit so an already-finished run never
        // writes a checkpoint.  The cadence flag is shard-count independent
        // (see `FaultPlan::checkpoint`).
        if config.faults.plan_at(run.batches(), 1).checkpoint {
            if let Some(sink) = hooks.checkpoints.as_deref_mut() {
                sink(run.capture(workload_name, next));
            }
        }
    }
    if let Some(observer) = hooks.observer {
        observer.on_finish();
    }
    Ok(offered)
}

/// The in-flight state of one monolithic run: one [`Lane`] over the caller's
/// engine and dispatcher, driven by the Δ-clock or the ingest front end.
pub(crate) struct MonoRun<'a> {
    engine: &'a SpEngine,
    dispatcher: &'a mut dyn Dispatcher,
    lane: Lane,
    batches: usize,
    now: f64,
    sp_before: u64,
}

impl<'a> MonoRun<'a> {
    pub(crate) fn new(
        engine: &'a SpEngine,
        config: StructRideConfig,
        vehicles: Vec<Vehicle>,
        dispatcher: &'a mut dyn Dispatcher,
    ) -> Self {
        // A traffic-enabled run needs an engine that actually carries the
        // model (the caller builds it with `SpEngineBuilder::traffic`);
        // mismatches would silently drop congestion, so fail loudly in
        // debug builds.
        debug_assert!(
            engine.traffic_config() == Some(config.traffic)
                || (engine.traffic_config().is_none() && config.traffic.is_static()),
            "engine traffic model must match config.traffic"
        );
        MonoRun {
            engine,
            dispatcher,
            lane: Lane::new(engine, config, vehicles),
            batches: 0,
            now: 0.0,
            sp_before: engine.stats().index_queries,
        }
    }

    /// Drains every committed schedule and assembles the report.
    pub(crate) fn finish(mut self, workload_name: &str, offered: &Offered) -> SimulationReport {
        self.lane.drain(self.engine, self.now, offered.horizon_end);
        let sp_queries = self.engine.stats().index_queries;
        let metrics = self.lane.metrics(
            self.dispatcher,
            workload_name,
            &offered.ledger,
            self.batches,
            sp_queries.saturating_sub(self.sp_before),
        );
        SimulationReport {
            metrics,
            vehicles: self.lane.vehicles,
            served: self.lane.served,
        }
    }
}

impl BatchRun for MonoRun<'_> {
    fn step(
        &mut self,
        now: f64,
        batch: &[Request],
        recorder: &mut Option<&mut TraceRecorder>,
        stages: Option<&StageClock>,
    ) -> Vec<RequestId> {
        self.now = now;
        let span = Span::open(stages, Stage::Roll);
        self.lane.roll(self.engine, now);
        span.close();
        let span = Span::open(stages, Stage::Advance);
        self.lane.advance(self.engine, now);
        span.close();
        if let Some(rec) = recorder.as_deref_mut() {
            let _span = Span::open(stages, Stage::Record);
            rec.batch_started(self.batches, now, batch, &self.lane.vehicles);
        }
        let span = Span::open(stages, Stage::Dispatch);
        let (outcome, scratch) = self.lane.dispatch(
            self.engine,
            self.dispatcher,
            now,
            self.batches,
            batch,
            stages,
        );
        span.close();
        if let Some(rec) = recorder.as_deref_mut() {
            let _span = Span::open(stages, Stage::Record);
            rec.batch_finished(&outcome, &self.lane.vehicles, scratch);
        }
        self.batches += 1;
        outcome.assigned
    }

    fn pending(&self) -> usize {
        self.dispatcher.pending_requests()
    }

    fn batches(&self) -> usize {
        self.batches
    }

    fn capture(&self, workload_name: &str, next_request: usize) -> Checkpoint {
        // A monolithic run accounts globally: its one shard section carries
        // no routed ledger, and the served set moves to the run level.
        let mut shard = self.lane.capture(self.dispatcher, Vec::new());
        Checkpoint {
            algorithm: self.dispatcher.name().to_string(),
            workload: workload_name.to_string(),
            config: self.lane.config,
            sharded: false,
            now: self.now,
            batches: self.batches,
            next_request,
            served: std::mem::take(&mut shard.served),
            counters: CheckpointCounters::default(),
            shards: vec![shard],
        }
    }

    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), ResumeError> {
        if checkpoint.sharded {
            return Err(ResumeError::WrongPipeline);
        }
        let [shard] = checkpoint.shards.as_slice() else {
            return Err(ResumeError::ShardCount {
                expected: 1,
                found: checkpoint.shards.len(),
            });
        };
        self.lane.restore(self.engine, self.dispatcher, shard);
        self.lane.served = checkpoint.served.iter().copied().collect();
        self.batches = checkpoint.batches;
        self.now = checkpoint.now;
        // Prime the engine to the checkpoint's epoch: the epoch is a pure
        // function of (traffic config, batch clock), so one roll lands
        // exactly where the uninterrupted run's incremental rolls did.
        self.lane.roll(self.engine, self.now);
        Ok(())
    }
}

/// The batched simulation driver.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: StructRideConfig,
}

impl Simulator {
    /// Creates a simulator with the given framework configuration.
    pub fn new(config: StructRideConfig) -> Self {
        Simulator { config }
    }

    /// The configuration this simulator runs with.
    pub fn config(&self) -> &StructRideConfig {
        &self.config
    }

    /// Runs `dispatcher` over the request stream.
    ///
    /// `requests` may be in any order; they are processed by release time.
    /// `vehicles` is the initial fleet (consumed and returned fully executed).
    pub fn run(
        &self,
        engine: &SpEngine,
        requests: &[Request],
        vehicles: Vec<Vehicle>,
        dispatcher: &mut dyn Dispatcher,
        workload_name: &str,
    ) -> SimulationReport {
        let hooks = RunHooks::default();
        self.run_with(engine, requests, vehicles, dispatcher, workload_name, hooks)
    }

    /// Like [`Simulator::run`], but records every `(batch, fleet-state,
    /// outcome)` tuple into `recorder` (see [`RunHooks::recorder`]).
    pub fn run_recorded(
        &self,
        engine: &SpEngine,
        requests: &[Request],
        vehicles: Vec<Vehicle>,
        dispatcher: &mut dyn Dispatcher,
        workload_name: &str,
        recorder: &mut TraceRecorder,
    ) -> SimulationReport {
        let hooks = RunHooks {
            recorder: Some(recorder),
            ..RunHooks::default()
        };
        self.run_with(engine, requests, vehicles, dispatcher, workload_name, hooks)
    }

    /// Like [`Simulator::run`], observed through `hooks`: any combination of
    /// a trace recorder, a checkpoint sink and a stage observer.
    pub fn run_with(
        &self,
        engine: &SpEngine,
        requests: &[Request],
        vehicles: Vec<Vehicle>,
        dispatcher: &mut dyn Dispatcher,
        workload_name: &str,
        hooks: RunHooks<'_>,
    ) -> SimulationReport {
        let mut run = MonoRun::new(engine, self.config, vehicles, dispatcher);
        let offered = drive_clock(&mut run, &self.config, requests, workload_name, hooks, None)
            .expect("only a resume can be refused");
        run.finish(workload_name, &offered)
    }

    /// Continues a run from `checkpoint` and finishes it bit-identically to
    /// the uninterrupted run (deterministic metrics, served set, final fleet;
    /// wall-clock diagnostics excluded, as in replay comparisons).
    ///
    /// `requests` must be the same request stream the original run was
    /// started with (checkpoints carry a cursor into its release-sorted
    /// order, not the future requests), `dispatcher` a freshly constructed
    /// dispatcher of the checkpointed algorithm, and `engine` an engine over
    /// the same network — its traffic epoch is primed to the checkpoint
    /// clock before the first resumed batch.  The fleet is restored from the
    /// checkpoint; the caller supplies none.
    ///
    /// # Errors
    ///
    /// [`ResumeError`] when the checkpoint is a sharded one, does not hold
    /// exactly one shard section, or points past the end of `requests`.
    pub fn resume(
        &self,
        engine: &SpEngine,
        requests: &[Request],
        dispatcher: &mut dyn Dispatcher,
        checkpoint: &Checkpoint,
    ) -> Result<SimulationReport, ResumeError> {
        let name = checkpoint.workload.as_str();
        let mut run = MonoRun::new(engine, self.config, Vec::new(), dispatcher);
        let offered = drive_clock(
            &mut run,
            &self.config,
            requests,
            name,
            RunHooks::default(),
            Some(checkpoint),
        )?;
        Ok(run.finish(name, &offered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::testing::Greedy;
    use crate::sard::SardDispatcher;
    use structride_datagen::{CityProfile, Workload, WorkloadParams};

    /// The crate's greedy test dispatcher with the sane (min added cost)
    /// preference: it holds no pool, so it exercises the bare loop.
    fn greedy() -> Greedy {
        Greedy { invert: false }
    }

    fn tiny_workload() -> Workload {
        Workload::generate(WorkloadParams {
            num_requests: 60,
            num_vehicles: 10,
            horizon: 240.0,
            scale: 0.3,
            ..WorkloadParams::small(CityProfile::NycLike)
        })
    }

    #[test]
    fn greedy_run_produces_consistent_metrics() {
        let w = tiny_workload();
        let sim = Simulator::new(StructRideConfig::default());
        let report = sim.run(
            &w.engine,
            &w.requests,
            w.fresh_vehicles(),
            &mut greedy(),
            &w.name,
        );
        let m = &report.metrics;
        assert_eq!(m.total_requests, w.requests.len());
        assert_eq!(m.served_requests, report.served.len());
        assert!(m.served_requests > 0, "some requests must be served");
        assert!(m.service_rate() <= 1.0);
        assert!(m.total_travel > 0.0);
        assert!(m.unified_cost >= m.total_travel);
        assert!(m.batches > 0);
        // Every served request was actually dropped off by some vehicle.
        let completed: HashSet<RequestId> = report
            .vehicles
            .iter()
            .flat_map(|v| v.completed.iter().copied())
            .collect();
        for id in &report.served {
            assert!(
                completed.contains(id),
                "assigned request {id} was delivered"
            );
        }
        // Vehicles finished their schedules.
        assert!(report.vehicles.iter().all(|v| v.schedule.is_empty()));
    }

    #[test]
    fn sard_run_on_synthetic_workload_beats_or_matches_greedy() {
        let w = tiny_workload();
        let config = StructRideConfig::default();
        let sim = Simulator::new(config);
        let greedy = sim.run(
            &w.engine,
            &w.requests,
            w.fresh_vehicles(),
            &mut greedy(),
            &w.name,
        );
        let mut sard = SardDispatcher::new(config);
        let sard_report = sim.run(
            &w.engine,
            &w.requests,
            w.fresh_vehicles(),
            &mut sard,
            &w.name,
        );
        // The batch-mode, structure-aware dispatcher should never serve fewer
        // requests than the myopic per-request greedy on this easy workload.
        assert!(
            sard_report.metrics.served_requests + 2 >= greedy.metrics.served_requests,
            "SARD {} vs greedy {}",
            sard_report.metrics.served_requests,
            greedy.metrics.served_requests
        );
        assert!(sard_report.metrics.sp_queries > 0);
        assert!(sard_report.metrics.memory_bytes > 0);
        // Schedules left on vehicles satisfy all constraints during execution:
        // every assigned rider was delivered.
        let delivered: HashSet<RequestId> = sard_report
            .vehicles
            .iter()
            .flat_map(|v| v.completed.iter().copied())
            .collect();
        for id in &sard_report.served {
            assert!(delivered.contains(id));
        }
    }

    #[test]
    fn stops_issuing_batches_once_stream_drained_and_nothing_pending() {
        // Requests all release within the first 10 s but have pickup deadlines
        // hundreds of batches away.  Before the early exit the simulator kept
        // spinning empty batches until the last deadline; now it stops as soon
        // as the stream is drained and the dispatcher holds nothing.
        let w = tiny_workload();
        let released_by = w.requests.iter().map(|r| r.release).fold(0.0_f64, f64::max);
        let horizon_end = w
            .requests
            .iter()
            .map(|r| r.pickup_deadline)
            .fold(0.0_f64, f64::max);
        let config = StructRideConfig::default();
        assert!(
            horizon_end > released_by + 10.0 * config.batch_period,
            "workload must leave a tail worth skipping ({released_by} .. {horizon_end})"
        );
        let sim = Simulator::new(config);
        // The greedy dispatcher holds no pool, so the run must end right after the
        // batch that consumes the last release.
        let report = sim.run(
            &w.engine,
            &w.requests,
            w.fresh_vehicles(),
            &mut greedy(),
            &w.name,
        );
        let release_batches = (released_by / config.batch_period).ceil() as usize + 1;
        assert!(
            report.metrics.batches <= release_batches,
            "{} batches for a stream drained after ~{release_batches}",
            report.metrics.batches
        );
        // SARD carries a working pool; it may run longer, but never past the
        // last pickup deadline.
        let mut sard = SardDispatcher::new(config);
        let sard_report = sim.run(
            &w.engine,
            &w.requests,
            w.fresh_vehicles(),
            &mut sard,
            &w.name,
        );
        let deadline_batches = (horizon_end / config.batch_period).ceil() as usize + 1;
        assert!(sard_report.metrics.batches <= deadline_batches);
        // Every assigned rider is still delivered despite the early exit.
        let delivered: HashSet<RequestId> = sard_report
            .vehicles
            .iter()
            .flat_map(|v| v.completed.iter().copied())
            .collect();
        for id in &sard_report.served {
            assert!(delivered.contains(id));
        }
    }

    #[test]
    fn traffic_run_rolls_epochs_and_stays_deterministic() {
        use structride_roadnet::{SpEngineBuilder, TrafficConfig, TrafficProfile};
        let w = tiny_workload();
        // Compress the rush curve so the 240 s horizon sweeps several hours:
        // one epoch (= one profile hour) every 30 s of simulation time.
        let traffic = TrafficConfig {
            profile: TrafficProfile::Rush,
            epoch_seconds: 30.0,
            hour_scale: 30.0,
            ..TrafficConfig::default()
        };
        let config = StructRideConfig::default().with_traffic(traffic);
        let engine = SpEngineBuilder::new()
            .traffic(traffic)
            .build(w.engine.network().clone());
        let sim = Simulator::new(config);
        let run = |engine: &structride_roadnet::SpEngine| {
            let mut sard = SardDispatcher::new(config);
            sim.run(engine, &w.requests, w.fresh_vehicles(), &mut sard, &w.name)
        };
        let first = run(&engine);
        assert!(engine.epoch_rolls() > 0, "horizon must cross epochs");
        assert!(first.metrics.served_requests > 0);
        // Re-running on a fresh engine reproduces the identical outcome:
        // the epoch is a pure function of (config, batch clock).
        let engine2 = SpEngineBuilder::new()
            .traffic(traffic)
            .build(w.engine.network().clone());
        let second = run(&engine2);
        assert_eq!(
            first.metrics.served_requests,
            second.metrics.served_requests
        );
        assert_eq!(
            first.metrics.unified_cost.to_bits(),
            second.metrics.unified_cost.to_bits()
        );
        assert_eq!(first.served, second.served);
    }

    #[test]
    fn zero_requests_runs_cleanly() {
        let w = tiny_workload();
        let sim = Simulator::new(StructRideConfig::default());
        let report = sim.run(&w.engine, &[], w.fresh_vehicles(), &mut greedy(), "empty");
        assert_eq!(report.metrics.total_requests, 0);
        assert_eq!(report.metrics.served_requests, 0);
        assert_eq!(report.metrics.service_rate(), 0.0);
        assert_eq!(report.metrics.total_travel, 0.0);
    }
}
