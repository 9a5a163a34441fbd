//! Integration tests for the multi-region sharded dispatch pipeline:
//! single-shard reduction to the monolithic simulator, worker-count
//! determinism of sharded runs, shard-merge accounting, the partitioner
//! boundary cases (empty shard, all vehicles in one shard) and the top-m
//! handoff shortlist.

use std::collections::HashSet;
use structride_core::replay::{diff_traces, TraceMeta, TraceRecorder};
use structride_core::shard::{
    region_grid_for, region_strips_for, ShardDispatcher, ShardedReport, ShardedSimulator,
    ShardingConfig,
};
use structride_core::{
    BatchSource, DispatchContext, Dispatcher, FaultConfig, FleetIndex, RunHooks, RunMetrics,
    SardDispatcher, Simulator, StructRideConfig,
};
use structride_datagen::{
    CityProfile, MultiRegionParams, MultiRegionWorkload, Workload, WorkloadParams,
};
use structride_model::insertion;
use structride_roadnet::{TrafficConfig, TrafficProfile};

fn sard_factory(config: StructRideConfig) -> impl Fn(usize) -> ShardDispatcher {
    move |_| Box::new(SardDispatcher::new(config))
}

const CLOCK: &str = "a clock-driven run is never refused";

/// Hooks that only record the run's trace.
fn recording(recorder: &mut TraceRecorder) -> RunHooks<'_> {
    RunHooks {
        recorder: Some(recorder),
        ..RunHooks::default()
    }
}

fn single_city_workload() -> Workload {
    Workload::generate(WorkloadParams {
        num_requests: 90,
        num_vehicles: 12,
        horizon: 240.0,
        scale: 0.3,
        ..WorkloadParams::small(CityProfile::NycLike)
    })
}

fn multi_workload(regions: usize) -> MultiRegionWorkload {
    let cities = [
        CityProfile::ChengduLike,
        CityProfile::NycLike,
        CityProfile::CainiaoLike,
    ];
    MultiRegionWorkload::generate(MultiRegionParams {
        requests_per_region: 60,
        vehicles_per_region: 8,
        horizon: 200.0,
        scale: 0.3,
        ..MultiRegionParams::small(cities.iter().cycle().take(regions).copied().collect())
    })
}

/// The fields of [`RunMetrics`] that must match bit for bit between a
/// 1-shard sharded run and the monolithic simulator.  Excluded diagnostics:
/// `running_time` is wall-clock and `sp_queries` is the one documented
/// worker-count-dependent counter (cache-miss races).  `memory_bytes` counts
/// the dispatcher's entries, so it is included.
fn deterministic_fields(
    m: &RunMetrics,
) -> (
    String,
    String,
    usize,
    usize,
    u64,
    u64,
    u64,
    usize,
    u64,
    u64,
    usize,
) {
    (
        m.algorithm.clone(),
        m.workload.clone(),
        m.total_requests,
        m.served_requests,
        m.total_travel.to_bits(),
        m.unserved_direct_cost.to_bits(),
        m.unified_cost.to_bits(),
        m.batches,
        m.insertion_evaluations,
        m.groups_enumerated,
        m.memory_bytes,
    )
}

/// The aggregate of a multi-shard run is the merge of its per-shard parts.
/// The shards share one engine, so its query count is booked once, on the
/// aggregate: every per-shard count reads 0, and the merge equals the
/// aggregate in every other field.
fn assert_aggregate_merges_the_parts(report: &ShardedReport, config: &StructRideConfig) {
    assert!(report.per_shard.iter().all(|m| m.sp_queries == 0));
    assert!(
        report.aggregate.sp_queries > 0,
        "the run's engine answered queries"
    );
    let merged = RunMetrics::merge_all(&report.per_shard, &config.cost).expect("parts");
    assert_eq!(
        RunMetrics {
            sp_queries: report.aggregate.sp_queries,
            ..merged
        },
        report.aggregate
    );
}

#[test]
fn single_shard_reduces_exactly_to_the_monolithic_simulator() {
    let w = single_city_workload();
    let config = StructRideConfig::default();

    let mut sard = SardDispatcher::new(config);
    let mono = Simulator::new(config).run(
        &w.engine,
        &w.requests,
        w.fresh_vehicles(),
        &mut sard,
        &w.name,
    );

    let regions = region_strips_for(w.engine.network(), 1);
    let sharded = ShardedSimulator::new(config).run(
        w.engine.network(),
        &regions,
        &w.requests,
        w.fresh_vehicles(),
        sard_factory(config),
        &w.name,
    );

    assert_eq!(sharded.per_shard.len(), 1);
    assert_eq!(sharded.handoffs, 0);
    assert_eq!(sharded.handoff_bids, 0);
    assert_eq!(sharded.migrations, 0);
    assert_eq!(
        deterministic_fields(&sharded.aggregate),
        deterministic_fields(&mono.metrics),
        "1-shard aggregate must equal the monolithic run"
    );
    assert_eq!(sharded.served, mono.served);
    // The executed fleets agree vehicle by vehicle.
    let mut mono_fleet = mono.vehicles.clone();
    mono_fleet.sort_by_key(|v| v.id);
    assert_eq!(mono_fleet.len(), sharded.vehicles.len());
    for (a, b) in mono_fleet.iter().zip(&sharded.vehicles) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.node, b.node);
        assert_eq!(a.executed_travel.to_bits(), b.executed_travel.to_bits());
        assert_eq!(a.completed, b.completed);
    }
}

#[test]
fn sharded_run_is_deterministic_across_worker_counts() {
    let w = multi_workload(3);
    let config = StructRideConfig::default();
    let sim = ShardedSimulator::new(config);

    let run_with = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            let mut recorder = TraceRecorder::new();
            let report = sim
                .execute(
                    w.network(),
                    &w.regions,
                    BatchSource::Clock(&w.requests),
                    w.fresh_vehicles(),
                    sard_factory(config),
                    &w.name,
                    recording(&mut recorder),
                )
                .expect(CLOCK);
            let trace = recorder.into_trace(TraceMeta::new("SARD", &w.name, config));
            (report, trace)
        })
    };

    let (report1, trace1) = run_with(1);
    let (report8, trace8) = run_with(8);

    let drift = diff_traces(&trace1, &trace8);
    assert!(drift.is_clean(), "1-vs-8 workers drifted:\n{drift}");
    assert!(trace1.batches.len() > 1, "trace must cover several batches");
    assert_eq!(
        deterministic_fields(&report1.aggregate),
        deterministic_fields(&report8.aggregate)
    );
    for (a, b) in report1.per_shard.iter().zip(&report8.per_shard) {
        assert_eq!(deterministic_fields(a), deterministic_fields(b));
    }
    assert_eq!(report1.handoffs, report8.handoffs);
    assert_eq!(report1.migrations, report8.migrations);
    assert_eq!(report1.served, report8.served);
    // The canonical text codec round-trips the sharded trace exactly.
    let reparsed = structride_core::Trace::parse(&trace1.to_text()).expect("codec");
    assert!(diff_traces(&trace1, &reparsed).is_clean());
}

#[test]
fn aggregate_is_the_merge_of_the_per_shard_parts() {
    let w = multi_workload(3);
    let config = StructRideConfig::default();
    let report = ShardedSimulator::new(config).run(
        w.network(),
        &w.regions,
        &w.requests,
        w.fresh_vehicles(),
        sard_factory(config),
        &w.name,
    );
    assert_eq!(report.per_shard.len(), 3);
    assert_aggregate_merges_the_parts(&report, &config);
    // Every request was routed to exactly one shard, and the global served
    // set is the disjoint union of the per-shard ones.
    let routed: usize = report.per_shard.iter().map(|m| m.total_requests).sum();
    assert_eq!(routed, w.requests.len());
    let served: usize = report.per_shard.iter().map(|m| m.served_requests).sum();
    assert_eq!(served, report.served.len());
    assert!(served > 0, "the multi-region run must serve something");
    // Delivered requests match the served bookkeeping.
    let delivered: HashSet<u32> = report
        .vehicles
        .iter()
        .flat_map(|v| v.completed.iter().copied())
        .collect();
    for id in &report.served {
        assert!(
            delivered.contains(id),
            "assigned request {id} was delivered"
        );
    }
}

#[test]
fn empty_shards_are_harmless() {
    // Strip layout three times wider than the network: every node, vehicle
    // and request sits in region 0; regions 1 and 2 stay empty for the whole
    // run.
    let w = single_city_workload();
    let net = w.engine.network();
    let (min_x, min_y, max_x, max_y) = net.bounding_box();
    let width = max_x - min_x;
    let regions = structride_spatial::RegionGrid::strips(
        min_x,
        min_y,
        min_x + width * 3.0 + 3.0,
        max_y.max(min_y + 1.0),
        3,
    );
    let config = StructRideConfig::default();
    let report = ShardedSimulator::new(config).run(
        net,
        &regions,
        &w.requests,
        w.fresh_vehicles(),
        sard_factory(config),
        &w.name,
    );
    assert_eq!(report.per_shard[0].total_requests, w.requests.len());
    for empty in [1, 2] {
        let m = &report.per_shard[empty];
        assert_eq!(m.total_requests, 0);
        assert_eq!(m.served_requests, 0);
        assert_eq!(m.total_travel, 0.0);
        assert_eq!(m.unified_cost, 0.0);
    }
    assert!(report.aggregate.served_requests > 0);
    assert_eq!(report.migrations, 0, "nothing pends in an empty shard");
    // The populated shard matches the monolithic run (the empty shards are
    // pure identity elements of the merge).
    let mut sard = SardDispatcher::new(config);
    let mono = Simulator::new(config).run(
        &w.engine,
        &w.requests,
        w.fresh_vehicles(),
        &mut sard,
        &w.name,
    );
    assert_eq!(
        report.aggregate.served_requests,
        mono.metrics.served_requests
    );
    assert_eq!(
        report.aggregate.total_travel.to_bits(),
        mono.metrics.total_travel.to_bits()
    );
}

#[test]
fn handoff_lets_a_vehicleless_shard_borrow_neighbours() {
    // Two regions, but the entire fleet starts in region 0.  Without
    // handoff, shard 1 can never serve anything; with the boundary band its
    // border requests are auctioned to shard 0's fleet.
    let w = multi_workload(2);
    let config = StructRideConfig::default();
    let west_fleet: Vec<_> = w
        .fresh_vehicles()
        .into_iter()
        .filter(|v| {
            let p = w.network().coord(v.node);
            w.regions.region_of(p.x, p.y) == 0
        })
        .collect();
    assert!(!west_fleet.is_empty());

    let isolated = ShardedSimulator::with_sharding(config, ShardingConfig::isolated()).run(
        w.network(),
        &w.regions,
        &w.requests,
        west_fleet.clone(),
        sard_factory(config),
        &w.name,
    );
    assert_eq!(
        isolated.per_shard[1].served_requests, 0,
        "no fleet and no handoff: the east shard serves nothing"
    );
    assert_eq!(isolated.handoffs, 0);

    let banded = ShardedSimulator::with_sharding(
        config,
        ShardingConfig {
            handoff_band: 600.0,
            rebalance: false,
            max_migrations_per_batch: 0,
            ..ShardingConfig::default()
        },
    )
    .run(
        w.network(),
        &w.regions,
        &w.requests,
        west_fleet,
        sard_factory(config),
        &w.name,
    );
    assert!(
        banded.handoffs > 0,
        "east-side boundary requests must be handed to the west shard"
    );
    assert!(banded.handoff_bids > 0);
    assert!(
        banded.aggregate.served_requests >= isolated.aggregate.served_requests,
        "handoff must not lose service ({} vs {})",
        banded.aggregate.served_requests,
        isolated.aggregate.served_requests
    );
}

/// The exactness of the handoff-shortlist prescreen: whenever an exact
/// insertion is feasible, the vehicle's certified reachability lower bound
/// (`free_at + min_time_per_meter × euclidean(vehicle, pickup)`) meets the
/// pickup deadline within the one-second grace — so prescreening on that
/// bound can never drop a feasible bidder, and `handoff_bids` is invariant
/// under the shortlist refactor.
#[test]
fn reachability_prescreen_never_drops_a_feasible_bidder() {
    let w = multi_workload(2);
    let network = w.network();
    let min_tpm = network.min_time_per_meter();
    assert!(
        min_tpm > 0.0,
        "city networks have a positive per-meter rate"
    );
    let vehicles = w.fresh_vehicles();
    let mut feasible = 0u32;
    let mut prescreen_would_keep = 0u32;
    for request in &w.requests {
        let rp = network.coord(request.source);
        for vehicle in &vehicles {
            let lb = min_tpm * network.coord(vehicle.node).distance(&rp);
            let passes = vehicle.free_at + lb <= request.pickup_deadline + 1.0;
            if insertion::insert_request(&w.engine, vehicle, request).is_some() {
                feasible += 1;
                assert!(
                    passes,
                    "request {} / vehicle {}: feasible insertion but prescreen fails \
                     (free_at={}, lb={}, deadline={})",
                    request.id, vehicle.id, vehicle.free_at, lb, request.pickup_deadline
                );
            }
            if passes {
                prescreen_would_keep += 1;
            }
        }
    }
    assert!(
        feasible > 0,
        "the workload must exercise feasible insertions"
    );
    assert!(
        prescreen_would_keep < w.requests.len() as u32 * vehicles.len() as u32,
        "the prescreen must actually prune something on a multi-region map"
    );
}

/// The batched many-to-many kernel behind the prescreened candidate scoring:
/// on a real multi-region network, `SpEngine::many_to_many` answers every
/// (source, target) pair bit-identically to the pairwise `cost_uncached`
/// queries it replaces.
#[test]
fn many_to_many_matches_pairwise_queries_bit_for_bit() {
    let w = multi_workload(3);
    let network = w.network();
    let n = network.node_count() as u32;
    let sources: Vec<u32> = (0..n).step_by(11).collect();
    let targets: Vec<u32> = (0..n).step_by(13).collect();
    assert!(sources.len() > 2 && targets.len() > 2);

    let check = |engine: &structride_roadnet::SpEngine, label: &str| {
        let matrix = engine.many_to_many(&sources, &targets);
        assert_eq!(matrix.len(), sources.len() * targets.len());
        for (i, &s) in sources.iter().enumerate() {
            for (j, &t) in targets.iter().enumerate() {
                let batched = matrix[i * targets.len() + j];
                let pairwise = engine.cost_uncached(s, t);
                assert_eq!(
                    batched.to_bits(),
                    pairwise.to_bits(),
                    "{label}: ({s},{t}) batched={batched} pairwise={pairwise}"
                );
            }
        }
    };
    check(&w.engine, "full index");
}

/// The certified prescreen end to end: driving the SARD dispatcher over the
/// same batches with and without a fleet index produces bit-identical
/// assignments, group enumeration, and final fleets — while the prescreen
/// actually skips vehicles (the whole point) on a multi-city map.
#[test]
fn sard_with_fleet_index_matches_the_full_scan_bit_for_bit() {
    let w = multi_workload(3);
    let config = StructRideConfig::default();
    let engine = &w.engine;
    let bbox = structride_spatial::RegionGrid::padded_bbox(engine.network().bounding_box());

    let mut full_scan = SardDispatcher::new(config);
    let mut prescreened = SardDispatcher::new(config);
    let mut fleet_full = w.fresh_vehicles();
    let mut fleet_pre = w.fresh_vehicles();
    let mut pruned = 0u64;
    for (bi, chunk) in w.requests.chunks(12).enumerate() {
        let ctx_full = DispatchContext::for_batch(engine, config, 0.0, bi);
        let out_full = full_scan.dispatch_batch(&ctx_full, &mut fleet_full, chunk);

        let index = FleetIndex::build(bbox, config.grid_cells, engine.network(), &fleet_pre);
        let ctx_pre = DispatchContext::for_batch(engine, config, 0.0, bi).with_fleet_index(&index);
        let out_pre = prescreened.dispatch_batch(&ctx_pre, &mut fleet_pre, chunk);

        assert_eq!(
            out_full.assigned, out_pre.assigned,
            "batch {bi} assignments"
        );
        assert_eq!(
            ctx_full.scratch.snapshot().groups_enumerated,
            ctx_pre.scratch.snapshot().groups_enumerated,
            "batch {bi} group enumeration"
        );
        pruned += ctx_pre.scratch.snapshot().prescreen_pruned;
    }
    assert!(
        pruned > 0,
        "a multi-city fleet must have provably unreachable vehicles"
    );
    assert_eq!(fleet_full.len(), fleet_pre.len());
    for (a, b) in fleet_full.iter().zip(&fleet_pre) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.node, b.node);
        assert_eq!(a.free_at.to_bits(), b.free_at.to_bits());
        assert_eq!(
            a.planned_cost(engine).to_bits(),
            b.planned_cost(engine).to_bits()
        );
    }
}

/// The top-m cap: uncapped (`top_m: 0`) bidding equals the default (the cap
/// is out of reach for these fleets), a tiny cap still yields a
/// deterministic worker-count-independent run, and capping can only reduce
/// the number of evaluated bids.
#[test]
fn top_m_shortlist_caps_bids_deterministically() {
    let w = multi_workload(2);
    let config = StructRideConfig::default();
    // The whole fleet starts west so east-border requests must be auctioned
    // across the boundary (the same setup as the handoff tests).
    let west_fleet: Vec<_> = w
        .fresh_vehicles()
        .into_iter()
        .filter(|v| {
            let p = w.network().coord(v.node);
            w.regions.region_of(p.x, p.y) == 0
        })
        .collect();
    let run = |top_m: usize, threads: usize| {
        let sharding = ShardingConfig {
            handoff_band: 600.0,
            rebalance: false,
            max_migrations_per_batch: 0,
            top_m,
        };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            let mut recorder = TraceRecorder::new();
            let report = ShardedSimulator::with_sharding(config, sharding)
                .execute(
                    w.network(),
                    &w.regions,
                    BatchSource::Clock(&w.requests),
                    west_fleet.clone(),
                    sard_factory(config),
                    &w.name,
                    recording(&mut recorder),
                )
                .expect(CLOCK);
            (
                report,
                recorder.into_trace(TraceMeta::new("SARD", &w.name, config)),
            )
        })
    };

    let (default_cap, trace_default) = run(ShardingConfig::default().top_m, 4);
    let (uncapped, trace_uncapped) = run(0, 4);
    assert!(default_cap.handoff_bids > 0);
    assert!(
        diff_traces(&trace_default, &trace_uncapped).is_clean(),
        "the default cap must be out of reach for this fleet"
    );
    assert_eq!(default_cap.handoff_bids, uncapped.handoff_bids);
    assert_eq!(default_cap.handoffs, uncapped.handoffs);

    let (tiny1, trace_tiny1) = run(1, 1);
    let (tiny8, trace_tiny8) = run(1, 8);
    assert!(
        diff_traces(&trace_tiny1, &trace_tiny8).is_clean(),
        "a binding cap must stay worker-count deterministic"
    );
    assert_eq!(tiny1.handoff_bids, tiny8.handoff_bids);
    assert!(
        tiny1.handoff_bids <= uncapped.handoff_bids,
        "capping can only reduce evaluated bids"
    );
}

/// Six regions in a 2×3 grid: the run completes, every shard is accounted
/// for, and the aggregate still merges.
#[test]
fn two_by_three_grid_sharding_runs_and_merges() {
    let w = multi_workload(3);
    let config = StructRideConfig::default();
    let regions = region_grid_for(w.network(), 2, 3);
    assert_eq!(regions.len(), 6);
    let report = ShardedSimulator::new(config).run(
        w.network(),
        &regions,
        &w.requests,
        w.fresh_vehicles(),
        sard_factory(config),
        &w.name,
    );
    assert_eq!(report.per_shard.len(), 6);
    let routed: usize = report.per_shard.iter().map(|m| m.total_requests).sum();
    assert_eq!(routed, w.requests.len());
    assert!(report.aggregate.served_requests > 0);
    assert_aggregate_merges_the_parts(&report, &config);
    assert!(report.label_bytes > 0);
    assert!(report.full_build_seconds > 0.0);
    assert!(report.setup_seconds >= report.full_build_seconds);
}

#[test]
fn rush_hour_sharded_run_rolls_epochs_and_is_worker_count_independent() {
    let w = multi_workload(3);
    // Compressed clock: epochs every 40 s with 20 s "hours", so the 200 s
    // horizon sweeps free-flow *and* congested rush-profile multipliers
    // (epoch starts 0..=200 cover hours 0..=10, peaking at 1.75 at hour 8).
    let traffic = TrafficConfig {
        profile: TrafficProfile::Rush,
        epoch_seconds: 40.0,
        hour_scale: 20.0,
        ..TrafficConfig::default()
    };
    let config = StructRideConfig::default().with_traffic(traffic);
    let sim = ShardedSimulator::new(config);

    let run_with = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            let mut recorder = TraceRecorder::new();
            let report = sim
                .execute(
                    w.network(),
                    &w.regions,
                    BatchSource::Clock(&w.requests),
                    w.fresh_vehicles(),
                    sard_factory(config),
                    &w.name,
                    recording(&mut recorder),
                )
                .expect(CLOCK);
            let trace = recorder.into_trace(TraceMeta::new("SARD", &w.name, config));
            (report, trace)
        })
    };

    let (report1, trace1) = run_with(1);
    let (report8, trace8) = run_with(8);

    assert!(
        report1.epoch_rolls > 0,
        "horizon must cross epoch boundaries"
    );
    assert!(report1.label_refresh_seconds > 0.0);
    assert!(report1.aggregate.served_requests > 0);
    let drift = diff_traces(&trace1, &trace8);
    assert!(
        drift.is_clean(),
        "rush-hour 1-vs-8 workers drifted:\n{drift}"
    );
    assert_eq!(report1.epoch_rolls, report8.epoch_rolls);
    assert_eq!(
        deterministic_fields(&report1.aggregate),
        deterministic_fields(&report8.aggregate)
    );
    assert_eq!(report1.handoffs, report8.handoffs);
    assert_eq!(report1.migrations, report8.migrations);
    assert_eq!(report1.served, report8.served);
    // The traffic model rides along in the recorded trace's config line.
    let reparsed = structride_core::Trace::parse(&trace1.to_text()).expect("codec");
    assert_eq!(reparsed.meta.config.traffic, traffic);
    assert!(diff_traces(&trace1, &reparsed).is_clean());

    // Congestion must actually change the pipeline: the same workload under
    // a static model produces a different recording.
    let static_sim = ShardedSimulator::new(StructRideConfig::default());
    let mut recorder = TraceRecorder::new();
    static_sim
        .execute(
            w.network(),
            &w.regions,
            BatchSource::Clock(&w.requests),
            w.fresh_vehicles(),
            sard_factory(StructRideConfig::default()),
            &w.name,
            recording(&mut recorder),
        )
        .expect(CLOCK);
    let static_trace = recorder.into_trace(TraceMeta::new("SARD", &w.name, config));
    assert!(
        !diff_traces(&trace1, &static_trace).is_clean(),
        "rush-hour congestion must perturb the recorded pipeline"
    );
}

/// The shard-outage degraded mode end to end: a 3-shard run with a
/// deterministic outage schedule keeps exact request accounting (every
/// request routed exactly once, served ⊆ delivered), stays bit-identical
/// across worker counts, records a replayable trace whose config line
/// carries the fault schedule, and actually perturbs the pipeline relative
/// to the healthy run.
#[test]
fn shard_outage_fails_over_requests_and_keeps_exact_accounting() {
    let w = multi_workload(3);
    let faults = FaultConfig {
        seed: 7,
        outage_every: 6,
        outage_batches: 2,
        ..FaultConfig::default()
    };
    let config = StructRideConfig::default().with_faults(faults);

    let run_with = |config: StructRideConfig, threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            let mut recorder = TraceRecorder::new();
            let report = ShardedSimulator::new(config)
                .execute(
                    w.network(),
                    &w.regions,
                    BatchSource::Clock(&w.requests),
                    w.fresh_vehicles(),
                    sard_factory(config),
                    &w.name,
                    recording(&mut recorder),
                )
                .expect(CLOCK);
            let trace = recorder.into_trace(TraceMeta::new("SARD", &w.name, config));
            (report, trace)
        })
    };

    let (report1, trace1) = run_with(config, 1);
    let (report8, trace8) = run_with(config, 8);

    // The outage schedule fired and was survived.
    assert!(report1.faults_injected > 0, "outage windows must open");
    assert!(report1.batches_degraded >= report1.faults_injected);
    assert!(report1.aggregate.served_requests > 0, "degraded ≠ dead");
    assert!(report1.degraded_served <= report1.degraded_offered);
    let rate = report1.service_rate_degraded();
    assert!((0.0..=1.0).contains(&rate), "degraded rate {rate} in [0,1]");

    // Exact accounting under failover: every request is routed to exactly
    // one live dispatcher (rerouted orphans are not double-counted), and the
    // served bookkeeping matches the delivered fleet state.
    let routed: usize = report1.per_shard.iter().map(|m| m.total_requests).sum();
    assert_eq!(routed, w.requests.len());
    let served: usize = report1.per_shard.iter().map(|m| m.served_requests).sum();
    assert_eq!(served, report1.served.len());
    let delivered: HashSet<u32> = report1
        .vehicles
        .iter()
        .flat_map(|v| v.completed.iter().copied())
        .collect();
    for id in &report1.served {
        assert!(delivered.contains(id), "served request {id} was delivered");
    }
    assert_aggregate_merges_the_parts(&report1, &config);

    // The degraded pipeline keeps the standing determinism invariant.
    let drift = diff_traces(&trace1, &trace8);
    assert!(drift.is_clean(), "faulted 1-vs-8 workers drifted:\n{drift}");
    assert_eq!(
        deterministic_fields(&report1.aggregate),
        deterministic_fields(&report8.aggregate)
    );
    assert_eq!(report1.faults_injected, report8.faults_injected);
    assert_eq!(report1.batches_degraded, report8.batches_degraded);
    assert_eq!(report1.degraded_offered, report8.degraded_offered);
    assert_eq!(report1.degraded_served, report8.degraded_served);
    assert_eq!(report1.served, report8.served);

    // The fault schedule rides along in the trace config line, so a
    // replaying process re-derives the exact same outages.
    let reparsed = structride_core::Trace::parse(&trace1.to_text()).expect("codec");
    assert_eq!(reparsed.meta.config.faults, faults);
    assert!(diff_traces(&trace1, &reparsed).is_clean());

    // Outages must actually change the pipeline, and the inert default must
    // not: the healthy run is bit-identical to the pre-fault pipeline.
    let (healthy, healthy_trace) = run_with(StructRideConfig::default(), 1);
    assert_eq!(healthy.faults_injected, 0);
    assert_eq!(healthy.batches_degraded, 0);
    assert_eq!(healthy.degraded_offered, 0);
    assert_eq!(healthy.service_rate_degraded(), 0.0);
    assert!(
        !diff_traces(&trace1, &healthy_trace).is_clean(),
        "an injected outage must perturb the recorded pipeline"
    );
}

#[test]
fn sharded_recording_flags_a_different_pipeline() {
    // The end-to-end self-test behind `replay verify --shards`: a re-run
    // with a different sharding configuration produces a trace that
    // diff_traces flags (while a faithful re-run stays clean).  The whole
    // fleet starts in region 0, so a wide handoff band provably reroutes
    // east-border requests to the west shard's dispatcher.
    let w = multi_workload(2);
    let config = StructRideConfig::default();
    let west_fleet: Vec<_> = w
        .fresh_vehicles()
        .into_iter()
        .filter(|v| {
            let p = w.network().coord(v.node);
            w.regions.region_of(p.x, p.y) == 0
        })
        .collect();
    let banded = ShardingConfig {
        handoff_band: 600.0,
        rebalance: false,
        max_migrations_per_batch: 0,
        ..ShardingConfig::default()
    };
    let record = |sharding: ShardingConfig| {
        let mut recorder = TraceRecorder::new();
        let report = ShardedSimulator::with_sharding(config, sharding)
            .execute(
                w.network(),
                &w.regions,
                BatchSource::Clock(&w.requests),
                west_fleet.clone(),
                sard_factory(config),
                &w.name,
                recording(&mut recorder),
            )
            .expect(CLOCK);
        (
            report,
            recorder.into_trace(TraceMeta::new("SARD", &w.name, config)),
        )
    };
    let (report_a, a) = record(banded);
    let (_, b) = record(banded);
    assert!(diff_traces(&a, &b).is_clean());
    assert!(report_a.handoffs > 0, "scenario must exercise handoff");

    let (_, isolated) = record(ShardingConfig::isolated());
    let drift = diff_traces(&a, &isolated);
    assert!(
        !drift.is_clean(),
        "disabling handoff must change the recorded pipeline"
    );
}
