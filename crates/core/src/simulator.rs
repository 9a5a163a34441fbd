//! The batched dynamic ridesharing simulator (the BDRP driver of §II), the
//! run API both simulators share, and the Δ-clock.
//!
//! A run is one loop: each batch, released requests go to a dispatcher.
//! [`Simulator::execute`] and its sharded twin take where the batches come
//! from as a value, [`BatchSource`], and what watches the run as another,
//! [`RunHooks`].  One crate-private `drive` dispatches on the source and
//! steps the one run type, the crate-private `ShardedRun`, through one
//! per-batch observer bracket, so both pipelines run the *same* loops.
//!
//! `drive_clock` owns the simulated clock: it sorts the request stream by
//! release time, slices it into batches of Δ seconds, steps the run once per
//! batch, keeps issuing empty batches while carried-over requests may still
//! be assignable, stops as soon as the stream is exhausted and no
//! dispatcher-held request is waiting, and hands a [`Checkpoint`] to the
//! caller's sink at the fault plan's cadence.  On a resume `drive` first
//! checks that the checkpoint fits the run and restores it.
//!
//! The monolithic run is a one-shard run: the [`Simulator`] steps a
//! `ShardedRun` over a 1×1 region grid with
//! [`ShardingConfig::isolated`](crate::shard::ShardingConfig::isolated),
//! the caller's prebuilt engine and borrowed dispatcher.  After the last
//! batch every remaining schedule is executed and the run produces the
//! [`RunMetrics`] the paper reports (unified cost, service rate, running
//! time, #shortest-path queries, memory).  Its checkpoints have every run's
//! layout, with one shard section, so they also resume on a one-shard
//! [`ShardedSimulator`](crate::ShardedSimulator) with isolated sharding.

use crate::config::StructRideConfig;
use crate::dispatcher::Dispatcher;
use crate::ingest::{drive_ingest, IngestError, IngestReport, IngestStats};
use crate::lane::{Offered, MAX_BATCHES};
use crate::metrics::RunMetrics;
use crate::replay::{Checkpoint, TraceRecorder};
use crate::shard::{ShardedRun, ShardingConfig};
use crate::stages::{RunObserver, StageClock, Timeline};
use std::collections::HashSet;
use std::fmt;
use structride_model::{Request, RequestId, Vehicle};
use structride_roadnet::SpEngine;
use structride_spatial::RegionGrid;

/// The output of one simulated run.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// The run-level metrics (what the figures plot).
    pub metrics: RunMetrics,
    /// Final vehicle states (schedules fully executed).
    pub vehicles: Vec<Vehicle>,
    /// The requests that were assigned to a vehicle.
    pub served: HashSet<RequestId>,
    /// Ingest-level statistics: `Some` exactly for a
    /// [`BatchSource::Ingest`] run.
    pub ingest: Option<IngestStats>,
}

/// Where a run's batches come from — the one argument that picks the run
/// mode of [`Simulator::execute`] and
/// [`ShardedSimulator::execute`](crate::ShardedSimulator::execute).  Every
/// source steps the same batch step, so given the same batches every source
/// decides identically.
pub enum BatchSource<'a> {
    /// The Δ-clock from time zero: the request stream (any order; processed
    /// by release time) sliced into batches of `config.batch_period`
    /// seconds, with empty batches issued while a carried-over request may
    /// still be assigned.
    Clock(&'a [Request]),
    /// The Δ-clock continued from a [`Checkpoint`], finishing bit-identically
    /// to the uninterrupted run (deterministic metrics, served set, final
    /// fleet; wall-clock diagnostics excluded, as in replay comparisons).
    ///
    /// The requests must be the stream the original run started with
    /// (checkpoints carry a cursor into its release-sorted order, not the
    /// future requests), the dispatcher(s) freshly constructed ones of the
    /// checkpointed algorithm and the network the same — the traffic epoch
    /// is primed to the checkpoint clock before the first resumed batch.
    /// The fleet is restored from the checkpoint: the caller passes an empty
    /// `vehicles`.  A checkpoint that does not fit the run is refused with a
    /// [`ResumeError`].
    Resume(&'a [Request], &'a Checkpoint),
    /// The wall-clock ingest front end (see [`crate::ingest`]): any
    /// timestamped request source in release order — a pre-materialised
    /// workload slice or a lazy `structride_datagen::ArrivalStream` —
    /// replayed on a producer thread and batched adaptively.  The report
    /// carries [`IngestStats`].
    Ingest(Box<dyn Iterator<Item = Request> + Send + 'a>),
    /// Explicit batch boundaries, each `(now, released requests)`: exactly
    /// these batches are stepped, with no early exit and no carried-over
    /// tail.  This re-runs a recorded ingested run from its realized
    /// boundaries (see [`crate::ingest`]'s replay semantics).
    Fed(&'a [(f64, Vec<Request>)]),
}

/// The optional observers of a run ([`Simulator::execute`] /
/// [`ShardedSimulator::execute`](crate::ShardedSimulator::execute)).
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
    /// Only the Δ-clock sources ([`BatchSource::Clock`] and
    /// [`BatchSource::Resume`]) call it: a checkpoint's cursor points into
    /// the release-sorted request stream, which ingested and fed runs do
    /// not have.
    pub checkpoints: Option<&'a mut dyn FnMut(Checkpoint)>,
    /// Receives every batch's stage spans (see [`crate::stages`]), whatever
    /// the source.  Without one no span reads the clock.
    pub observer: Option<&'a mut dyn RunObserver>,
}

/// Why a [`Checkpoint`] cannot be resumed.  A checkpoint is a parsed file,
/// so a mismatch is an input error the caller reports, not a bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The checkpoint was written by a run over another workload.
    Workload {
        /// Workload name of the run being resumed.
        expected: String,
        /// [`Checkpoint::workload`].
        found: String,
    },
    /// The checkpoint was written under another framework configuration.
    Config,
    /// The checkpoint holds another dispatcher's state (its pool and edges
    /// would not restore into the run's dispatcher).
    Algorithm {
        /// [`Dispatcher::name`] of the run being resumed.
        expected: String,
        /// [`Checkpoint::algorithm`].
        found: String,
    },
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
            ResumeError::Workload { expected, found } => write!(
                f,
                "checkpoint workload {found:?} does not match the run's workload {expected:?}"
            ),
            ResumeError::Config => write!(
                f,
                "checkpoint and run disagree on the framework configuration"
            ),
            ResumeError::Algorithm { expected, found } => write!(
                f,
                "checkpoint holds {found} state but the run dispatches with {expected}"
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

/// Why [`Simulator::execute`] or
/// [`ShardedSimulator::execute`](crate::ShardedSimulator::execute) returned
/// no report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A [`BatchSource::Resume`] checkpoint does not fit the run.
    Resume(ResumeError),
    /// A [`BatchSource::Ingest`] arrivals iterator panicked on the producer
    /// thread.
    Ingest(IngestError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Resume(e) => e.fmt(f),
            RunError::Ingest(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

/// Why the shorthands may `expect` their run: only a resume or an ingest
/// producer can fail.
pub(crate) const CLOCK_RUNS: &str = "a clock-driven run is never refused";

/// The per-batch observer bracket, written once for every batch source:
/// the observer's batch start, the run's step, the stage report (`drive`
/// calls the observer's finish after the last batch).
#[derive(Default)]
pub(crate) struct Stepper<'a> {
    hooks: RunHooks<'a>,
    clock: StageClock,
}

impl Stepper<'_> {
    /// Steps `run` once at simulated time `now` over `batch`, recording and
    /// observing it through the hooks; returns the committed request ids.
    pub(crate) fn step(
        &mut self,
        run: &mut ShardedRun<'_>,
        now: f64,
        batch: &[Request],
    ) -> Vec<RequestId> {
        let batch_index = run.batches();
        let observer = self.hooks.observer.as_deref_mut();
        let clock = observer.map(|observer| {
            observer.on_batch_start(batch_index, now);
            &self.clock
        });
        let mut timeline = Timeline::start(clock);
        let assigned = run.step(now, batch, &mut self.hooks.recorder, &mut timeline);
        if let Some(observer) = self.hooks.observer.as_deref_mut() {
            timeline.report(observer, batch_index);
        }
        assigned
    }
}

/// Runs `run` over `source` through `hooks`: the one dispatch on the batch
/// source behind both pipelines' `execute`.  A resume is checked against the
/// run — workload, configuration, dispatcher, stream length, then (in
/// `restore`) shard count — before any state is restored.
/// Returns what was offered, for the run's final accounting.
pub(crate) fn drive(
    run: &mut ShardedRun<'_>,
    config: &StructRideConfig,
    workload_name: &str,
    source: BatchSource<'_>,
    hooks: RunHooks<'_>,
) -> Result<Offered, RunError> {
    let mut stepper = Stepper {
        hooks,
        ..Stepper::default()
    };
    let offered = match source {
        BatchSource::Clock(requests) => {
            drive_clock(run, config, requests, workload_name, &mut stepper, None)
        }
        BatchSource::Resume(requests, checkpoint) => {
            check_fit(run.algorithm(), config, workload_name, requests, checkpoint)
                .and_then(|()| run.restore(checkpoint))
                .map_err(RunError::Resume)?;
            let from = Some(checkpoint);
            drive_clock(run, config, requests, workload_name, &mut stepper, from)
        }
        BatchSource::Ingest(arrivals) => {
            drive_ingest(run, config, arrivals, &mut stepper).map_err(RunError::Ingest)?
        }
        BatchSource::Fed(batches) => drive_fed(run, batches, &mut stepper),
    };
    if let Some(observer) = stepper.hooks.observer {
        observer.on_finish();
    }
    Ok(offered)
}

/// Refuses a checkpoint written by another workload, configuration or
/// dispatcher, or whose cursor is past the end of `requests`.
fn check_fit(
    algorithm: &str,
    config: &StructRideConfig,
    workload_name: &str,
    requests: &[Request],
    checkpoint: &Checkpoint,
) -> Result<(), ResumeError> {
    if checkpoint.workload != workload_name {
        return Err(ResumeError::Workload {
            expected: workload_name.to_string(),
            found: checkpoint.workload.clone(),
        });
    }
    if checkpoint.config != *config {
        return Err(ResumeError::Config);
    }
    if checkpoint.algorithm != algorithm {
        return Err(ResumeError::Algorithm {
            expected: algorithm.to_string(),
            found: checkpoint.algorithm.clone(),
        });
    }
    if checkpoint.next_request > requests.len() {
        return Err(ResumeError::CursorPastEnd {
            cursor: checkpoint.next_request,
            requests: requests.len(),
        });
    }
    Ok(())
}

/// The Δ-clock: steps `run` over `requests` (any order; processed by release
/// time) in batches of `config.batch_period` seconds — from the head of the
/// stream at time zero, or from the position `resume_from` carries (the
/// checkpoint is already restored into `run`).  Returns what was offered,
/// for the run's final accounting.
fn drive_clock(
    run: &mut ShardedRun<'_>,
    config: &StructRideConfig,
    requests: &[Request],
    workload_name: &str,
    stepper: &mut Stepper<'_>,
    resume_from: Option<&Checkpoint>,
) -> Offered {
    let mut ordered: Vec<Request> = requests.to_vec();
    ordered.sort_by(|a, b| a.release.total_cmp(&b.release));
    let delta = config.batch_period.max(1e-3);
    let mut offered = Offered::default();
    ordered.iter().for_each(|r| offered.push(r));
    let (mut next, mut now) = (0usize, 0.0);
    if let Some(checkpoint) = resume_from {
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
        stepper.step(run, now, &ordered[start..next]);
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
            if let Some(sink) = stepper.hooks.checkpoints.as_deref_mut() {
                sink(run.capture(workload_name, next));
            }
        }
    }
    offered
}

/// Steps `run` over explicit `(now, released requests)` boundaries, exactly
/// once each: no early exit and no carried-over tail.
fn drive_fed(
    run: &mut ShardedRun<'_>,
    batches: &[(f64, Vec<Request>)],
    stepper: &mut Stepper<'_>,
) -> Offered {
    let mut offered = Offered::default();
    for (now, batch) in batches {
        batch.iter().for_each(|r| offered.push(r));
        stepper.step(run, *now, batch);
    }
    offered
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
        let (source, hooks) = (BatchSource::Clock(requests), RunHooks::default());
        self.execute(engine, source, vehicles, dispatcher, workload_name, hooks)
            .expect(CLOCK_RUNS)
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
        let source = BatchSource::Clock(requests);
        self.execute(engine, source, vehicles, dispatcher, workload_name, hooks)
            .expect(CLOCK_RUNS)
    }

    /// Runs `dispatcher` over a *streamed* arrival process with wall-clock
    /// adaptive batching instead of fixed Δ-windows (the
    /// [`BatchSource::Ingest`] run without hooks).
    ///
    /// `arrivals` is any timestamped request source in release order — a
    /// pre-materialised workload slice or a lazy
    /// `structride_datagen::ArrivalStream`.  See the [`crate::ingest`] docs
    /// for the batching and replay semantics.
    ///
    /// # Errors
    ///
    /// [`IngestError::ProducerPanicked`] when the arrivals iterator panics
    /// on the producer thread.
    pub fn run_ingested<I>(
        &self,
        engine: &SpEngine,
        arrivals: I,
        vehicles: Vec<Vehicle>,
        dispatcher: &mut dyn Dispatcher,
        workload_name: &str,
    ) -> Result<IngestReport, IngestError>
    where
        I: IntoIterator<Item = Request>,
        I::IntoIter: Send,
    {
        let source = BatchSource::Ingest(Box::new(arrivals.into_iter()));
        let hooks = RunHooks::default();
        match self.execute(engine, source, vehicles, dispatcher, workload_name, hooks) {
            Ok(report) => Ok(IngestReport {
                ingest: report.ingest.expect("an ingested run reports its stats"),
                metrics: report.metrics,
                vehicles: report.vehicles,
                served: report.served,
            }),
            Err(RunError::Ingest(e)) => Err(e),
            Err(RunError::Resume(_)) => unreachable!("an ingested run resumes nothing"),
        }
    }

    /// Runs `dispatcher` over the batches `source` produces, observed
    /// through `hooks`: any combination of a trace recorder, a checkpoint
    /// sink and a stage observer.  `vehicles` is the initial fleet
    /// (consumed and returned fully executed; empty for
    /// [`BatchSource::Resume`], which restores the checkpoint's).
    ///
    /// # Errors
    ///
    /// [`RunError::Resume`] when a resumed checkpoint does not fit the run,
    /// [`RunError::Ingest`] when an ingest producer panics.
    pub fn execute(
        &self,
        engine: &SpEngine,
        source: BatchSource<'_>,
        vehicles: Vec<Vehicle>,
        dispatcher: &mut dyn Dispatcher,
        workload_name: &str,
        hooks: RunHooks<'_>,
    ) -> Result<SimulationReport, RunError> {
        debug_assert!(
            !matches!(source, BatchSource::Resume(..)) || vehicles.is_empty(),
            "a resumed run restores its fleet from the checkpoint"
        );
        // A traffic-enabled run needs an engine that actually carries the
        // model (the caller builds it with `SpEngineBuilder::traffic`);
        // mismatches would silently drop congestion, so fail loudly in
        // debug builds.
        debug_assert!(
            engine.traffic_config() == Some(self.config.traffic)
                || (engine.traffic_config().is_none() && self.config.traffic.is_static()),
            "engine traffic model must match config.traffic"
        );
        // The monolithic run: one isolated shard over the whole network.
        let mut run = ShardedRun::new(
            self.config,
            ShardingConfig::isolated(),
            RegionGrid::covering(engine.network().bounding_box(), 1, 1),
            engine,
            vec![dispatcher],
            vehicles,
        );
        let offered = drive(&mut run, &self.config, workload_name, source, hooks)?;
        let report = run.finish(workload_name, offered);
        Ok(SimulationReport {
            metrics: report.aggregate,
            vehicles: report.vehicles,
            served: report.served,
            ingest: report.ingest,
        })
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
        assert!(engine.current_epoch() > 0, "horizon must cross epochs");
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
        // Re-running on the first engine, which the first run left at a
        // later epoch, reproduces it too: the run starts from time zero's
        // epoch whatever an earlier run left behind.
        assert!(engine.current_epoch() > 0);
        let third = run(&engine);
        assert_eq!(
            third.metrics.unified_cost.to_bits(),
            first.metrics.unified_cost.to_bits()
        );
        assert_eq!(third.served, first.served);
        let travel = |r: &SimulationReport| -> Vec<u64> {
            r.vehicles
                .iter()
                .map(|v| v.executed_travel.to_bits())
                .collect()
        };
        assert_eq!(travel(&third), travel(&first));
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
