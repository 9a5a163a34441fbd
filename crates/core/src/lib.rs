//! StructRide core: the paper's primary contribution.
//!
//! This crate assembles the pieces built in the substrate crates into the
//! StructRide framework of §II-B / Fig. 2:
//!
//! * [`assign`] — the exact global-assignment dispatcher: batch cost matrix
//!   over the certified candidate sets, solved to optimality per round by
//!   the [`lap`] kernel;
//! * [`config`] — the experiment knobs of Table III (batch period Δ, penalty
//!   coefficient `p_r`, angle threshold δ, …);
//! * [`context`] — the per-batch [`DispatchContext`]
//!   bundling engine + configuration + clock + scratch counters that the
//!   simulator hands to every dispatcher; it is `Sync`, so batch-parallel
//!   dispatch code closes over one shared borrow (see the module docs for the
//!   parallel invariants);
//! * [`dispatcher`] — the [`Dispatcher`] trait that the
//!   SARD algorithm and every baseline implement, so the batched simulator can
//!   drive any of them interchangeably;
//! * [`faults`] — deterministic fault injection: a pure, seeded
//!   [`FaultPlan`] derived from `(FaultConfig, batch
//!   clock)` alone (the traffic-epoch purity contract) scheduling shard
//!   outages, solver deadline budgets and checkpoint boundaries, each with
//!   a graceful-degradation path;
//! * [`grouping`] — Algorithm 2, the modified additive tree that enumerates
//!   feasible request groups per vehicle while keeping a single schedule per
//!   node (ordered by shareability);
//! * [`ingest`] — the async ingest front end: a bounded arrival queue fed by
//!   a wall-clock producer thread and an adaptive batcher that closes
//!   batches on a latency deadline or a size cap, so batch cadence tracks
//!   dispatcher latency instead of the simulated Δ — the driver behind
//!   [`BatchSource::Ingest`] on both pipelines;
//! * `lane` (crate-private) — the batch step, written once: a `Lane` owns a
//!   pipeline's fleet, fleet index, served set and work counters and is the
//!   only code that advances the fleet, builds the
//!   [`DispatchContext`] and calls
//!   `dispatch_batch`; every shard (the monolithic simulator's run is one
//!   shard) and [`replay_trace`] step through it, and every [`BatchSource`]
//!   drives it through one loop per source, written once for both
//!   pipelines;
//! * [`lap`] — the in-workspace exact solvers: a deterministic Kuhn–Munkres
//!   LAP kernel over rectangular, partially-forbidden cost matrices and a
//!   branch-and-bound over its relaxation for the trip-group choice step;
//! * [`pool`] — the [`PendingPool`] of unassigned requests that Assign, GAS
//!   and RTV carry across batches;
//! * [`registry`] — the dispatcher registry: [`DispatcherKind`] keys plus a
//!   [`DispatcherBuilder`] mapping keys to constructors, the single place
//!   the replay CLI and every bench driver build dispatchers from;
//! * [`replay`] — the record/replay harness: a
//!   [`TraceRecorder`] capturing per-batch
//!   `(inputs, fleet-state, outcome)` tuples from the simulator, and
//!   [`replay_trace`] diffing any dispatcher against a
//!   recorded trace into a structured drift report — the enforcement of the
//!   "deterministic regardless of worker count" invariant;
//! * [`sard`] — Algorithm 3, the two-phase "proposal–acceptance" SARD
//!   dispatcher guided by the shareability loss;
//! * [`score_memo`] — the lane-owned cross-batch memo of `(request,
//!   vehicle)` candidate scores, keyed on the vehicle's exact insertion
//!   inputs;
//! * [`shard`] — multi-region sharded dispatch: a
//!   [`ShardedSimulator`] partitioning the fleet
//!   and request stream by region into parallel per-shard pipelines (one
//!   `SpEngine` + dispatcher per shard), with deterministic best-bid
//!   cross-shard handoff, idle-vehicle rebalancing, and shard-merged
//!   metrics; with one shard it reduces exactly to [`simulator`] (same
//!   clock, same lane);
//! * [`simulator`] — the batched dynamic simulation engine used by every
//!   experiment, the run API both pipelines share ([`BatchSource`],
//!   [`RunHooks`], [`RunError`]) and the Δ-clock (batch slicing, early exit,
//!   checkpoint cadence, validated resume);
//! * [`metrics`] — the run-level metrics the paper reports (unified cost,
//!   service rate, running time, shortest-path queries, memory footprint).

pub mod assign;
pub mod config;
pub mod context;
pub mod dispatcher;
pub mod faults;
pub mod fleet_index;
pub mod grouping;
pub mod ingest;
mod lane;
pub mod lap;
pub mod metrics;
pub mod ordering;
pub mod pool;
pub mod registry;
pub mod replay;
pub mod sard;
pub mod score_memo;
pub mod shard;
pub mod simulator;
pub mod stages;

pub use assign::AssignDispatcher;
pub use config::StructRideConfig;
pub use context::{BatchScratch, DispatchContext, ScratchStats, Screened};
pub use dispatcher::{BatchOutcome, Dispatcher, PendingSnapshot};
pub use faults::{FaultConfig, FaultPlan};
pub use fleet_index::{FleetIndex, REACH_GRACE};
pub use grouping::{enumerate_groups, CandidateGroup};
pub use ingest::{AdaptiveBatcher, IngestConfig, IngestError, IngestReport, IngestStats};
pub use lap::{GroupCandidate, GroupChoice, LapSolution, SolverStats, FORBIDDEN};
pub use metrics::RunMetrics;
pub use ordering::{InsertionOrdering, OrderingStudy};
pub use pool::PendingPool;
pub use registry::{DispatcherBuilder, DispatcherKind};
pub use replay::{
    diff_traces, replay_trace, BatchDivergence, BatchRecord, Checkpoint, CheckpointCounters,
    DriftReport, FieldDelta, ShardCheckpoint, Trace, TraceMeta, TraceParseError, TraceRecorder,
};
pub use sard::SardDispatcher;
pub use score_memo::ScoreMemo;
pub use shard::{
    region_strips_for, ShardDispatcher, ShardedReport, ShardedSimulator, ShardingConfig,
};
pub use simulator::{BatchSource, ResumeError, RunError, RunHooks, SimulationReport, Simulator};
pub use stages::{RunObserver, Stage, StageClock, StageTable};
