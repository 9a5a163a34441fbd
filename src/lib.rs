//! # StructRide
//!
//! An open-source Rust reproduction of *"StructRide: A Framework to Exploit
//! the Structure Information of Shareability Graph in Ridesharing"*
//! (ICDE 2025).  This facade crate re-exports the whole workspace so that
//! downstream users, the examples and the integration tests can depend on a
//! single crate:
//!
//! * [`roadnet`] — road network, Dijkstra, hub labeling, cached
//!   shortest-path engine;
//! * [`spatial`] — grid index and the angle geometry;
//! * [`model`] — requests, vehicles, schedules, linear insertion, kinetic
//!   tree, unified cost;
//! * [`sharegraph`] — the shareability graph, its dynamic builder with angle
//!   pruning, and the shareability loss;
//! * [`core`] — the per-batch [`DispatchContext`],
//!   request grouping (Algorithm 2), the SARD dispatcher (Algorithm 3), the
//!   batched simulator and the run metrics;
//! * [`baselines`] — pruneGDP, TicketAssign+, GAS, RTV and the DARM-style
//!   repositioning baseline;
//! * [`datagen`] — synthetic CHD/NYC/Cainiao-like workload generators.
//!
//! ## The parallel batch pipeline
//!
//! Every batch-scoped hot path fans out across worker threads while staying
//! **deterministic** — the same inputs produce the same assignments and the
//! same shareability graph regardless of the worker count:
//!
//! * [`SpEngine`] splits its shortest-path cache over 64 independently
//!   locked stripes, so concurrent `cost()` queries from dispatch workers
//!   don't serialise on a global lock;
//! * [`ShareabilityGraphBuilder`]
//!   par-maps the exact pairwise shareability checks of Algorithm 1 over the
//!   prefiltered candidate list and inserts the discovered edges in
//!   sequential order (bit-identical to the one-request-at-a-time build its
//!   tests hold it to);
//! * [`SardDispatcher`] par-maps its per-request
//!   candidate-queue construction and the per-vehicle group enumeration of
//!   each acceptance round, reducing with stable `(cost, vehicle_id)`
//!   tie-breaks;
//! * the batch step — written once, in `core`'s `lane` module, and shared by
//!   the [`Simulator`], every shard of a
//!   [`ShardedSimulator`] and replay — moves
//!   vehicles between batches in parallel and hands each batch to the
//!   dispatcher through a [`DispatchContext`] —
//!   the engine + config + clock + scratch-counter bundle whose module docs
//!   state the parallel invariants dispatchers must preserve.
//!
//! Set `RAYON_NUM_THREADS=1` to force the whole pipeline sequential.
//!
//! Determinism is *enforced* by the record/replay harness
//! ([`core::replay`]): the simulator can record
//! `(batch, fleet-state, outcome)` traces
//! ([`Simulator::run_recorded`](prelude::Simulator::run_recorded), or
//! [`execute`](prelude::Simulator::execute) with any [`BatchSource`] and a
//! [`RunHooks`] for a checkpoint sink or stage observer as well) and
//! [`replay_trace`] diffs any
//! dispatcher against a recording batch-by-batch — CI replays a quickstart
//! trace under 1 and N worker threads and fails on any drift (see the
//! `replay` binary in `structride-bench`).
//!
//! ## Quickstart
//!
//! ```
//! use structride::prelude::*;
//!
//! // A small NYC-like synthetic workload.
//! let workload = Workload::generate(WorkloadParams {
//!     num_requests: 80,
//!     num_vehicles: 10,
//!     ..WorkloadParams::small(CityProfile::NycLike)
//! });
//!
//! // Dispatch it with SARD and with the online pruneGDP baseline.
//! let config = StructRideConfig::default();
//! let simulator = Simulator::new(config);
//! let mut sard = SardDispatcher::new(config);
//! let sard_run = simulator.run(
//!     &workload.engine,
//!     &workload.requests,
//!     workload.fresh_vehicles(),
//!     &mut sard,
//!     &workload.name,
//! );
//! let mut gdp = PruneGdp::new();
//! let gdp_run = simulator.run(
//!     &workload.engine,
//!     &workload.requests,
//!     workload.fresh_vehicles(),
//!     &mut gdp,
//!     &workload.name,
//! );
//! assert!(sard_run.metrics.service_rate() >= 0.0);
//! assert!(gdp_run.metrics.service_rate() <= 1.0);
//! ```

pub use structride_baselines as baselines;
pub use structride_core as core;
pub use structride_datagen as datagen;
pub use structride_model as model;
pub use structride_roadnet as roadnet;
pub use structride_sharegraph as sharegraph;
pub use structride_spatial as spatial;

pub mod prelude {
    //! The names most programs need, in one import.
    pub use structride_baselines::{DemandRepositioning, Gas, PruneGdp, Rtv, TicketAssignPlus};
    pub use structride_core::{
        diff_traces, region_strips_for, replay_trace, BatchOutcome, BatchSource, DispatchContext,
        Dispatcher, DriftReport, IngestConfig, IngestReport, IngestStats, ResumeError, RunError,
        RunHooks, RunMetrics, RunObserver, SardDispatcher, ShardDispatcher, ShardedReport,
        ShardedSimulator, ShardingConfig, SimulationReport, Simulator, Stage, StageTable,
        StructRideConfig, Trace, TraceMeta, TraceRecorder,
    };
    pub use structride_datagen::{
        ArrivalProfile, ArrivalStream, ArrivalStreamParams, CityProfile, MultiRegionParams,
        MultiRegionWorkload, Workload, WorkloadParams,
    };
    pub use structride_model::{
        CostParams, Request, RequestId, Schedule, Vehicle, VehicleId, Waypoint, WaypointKind,
    };
    pub use structride_roadnet::{NodeId, Point, RoadNetwork, RoadNetworkBuilder, SpEngine};
    pub use structride_sharegraph::{
        AnglePruning, BuilderConfig, ShareabilityGraph, ShareabilityGraphBuilder,
    };
    pub use structride_spatial::{RegionGrid, RegionId};
}

use prelude::*;
use structride_core::DispatcherKind;

/// Builds `kinds` through [`baselines::standard_registry`], in order.
fn from_registry(kinds: &[DispatcherKind], config: StructRideConfig) -> Vec<Box<dyn Dispatcher>> {
    let registry = baselines::standard_registry();
    kinds
        .iter()
        .map(|&k| -> Box<dyn Dispatcher> { registry.build(k, &config).expect("registered kind") })
        .collect()
}

/// The set of dispatchers compared throughout the paper's evaluation, freshly
/// constructed with the given configuration.
///
/// The returned order matches the legend order of the figures: RTV, pruneGDP,
/// DARM+DPRS, GAS, TicketAssign+, SARD.
pub fn standard_dispatcher_suite(config: StructRideConfig) -> Vec<Box<dyn Dispatcher>> {
    use DispatcherKind::{Darm, Gas, PruneGdp, Rtv, Sard, Ticket};
    from_registry(&[Rtv, PruneGdp, Darm, Gas, Ticket, Sard], config)
}

/// Only the batch-based dispatchers (RTV, GAS, SARD) — the subset compared in
/// the batching-period experiment (Fig. 13).
pub fn batch_dispatcher_suite(config: StructRideConfig) -> Vec<Box<dyn Dispatcher>> {
    use DispatcherKind::{Gas, Rtv, Sard};
    from_registry(&[Rtv, Gas, Sard], config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_expected_members() {
        let config = StructRideConfig::default();
        let names: Vec<&str> = standard_dispatcher_suite(config)
            .iter()
            .map(|d| d.name())
            .collect();
        assert_eq!(
            names,
            vec![
                "RTV",
                "pruneGDP",
                "DARM+DPRS",
                "GAS",
                "TicketAssign+",
                "SARD"
            ]
        );
        let batch: Vec<&str> = batch_dispatcher_suite(config)
            .iter()
            .map(|d| d.name())
            .collect();
        assert_eq!(batch, vec!["RTV", "GAS", "SARD"]);
    }
}
