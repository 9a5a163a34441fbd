//! End-to-end scenario invariants, asserted on the run reports themselves:
//! which kind of epoch roll each traffic model takes on a real sharded
//! run, how the certified prescreen scales with the fleet, what the chaos
//! fault preset does (and that nothing else reports fault telemetry), and
//! the lazy arrival stream through the ingest front end under both arrival
//! profiles.  Every run is 90 requests or fewer.

use structride_baselines::standard_registry;
use structride_core::shard::{region_grid_for, region_strips_for, ShardedReport, ShardedSimulator};
use structride_core::{
    BatchSource, Dispatcher, DispatcherKind, FaultConfig, IngestConfig, IngestStats, RunHooks,
    Simulator, StructRideConfig,
};
use structride_datagen::{
    incident_spike, rush_hour, ArrivalProfile, ArrivalStream, ArrivalStreamParams, CityProfile,
    MultiRegionParams, MultiRegionWorkload, Workload, WorkloadParams,
};

const HORIZON: f64 = 120.0;

/// Three cities side by side: 30 requests each over 120 s.
fn three_cities(vehicles_per_region: usize) -> MultiRegionWorkload {
    use CityProfile::{CainiaoLike, ChengduLike, NycLike};
    MultiRegionWorkload::generate(MultiRegionParams {
        cities: vec![ChengduLike, NycLike, CainiaoLike],
        requests_per_region: 30,
        vehicles_per_region,
        capacity: 4,
        horizon: HORIZON,
        scale: 0.25,
        seed: 42,
    })
}

fn build(kind: DispatcherKind, config: &StructRideConfig) -> Box<dyn Dispatcher + Send> {
    let registry = standard_registry();
    registry.build(kind, config).expect("registered")
}

/// One run on the 1×3 strip layout, every shard dispatching with `kind`.
fn run_1x3(w: &MultiRegionWorkload, cfg: StructRideConfig, kind: DispatcherKind) -> ShardedReport {
    let (net, fleet) = (w.network(), w.fresh_vehicles());
    let regions = region_grid_for(net, 1, 3);
    let dispatcher = |_| build(kind, &cfg);
    ShardedSimulator::new(cfg).run(net, &regions, &w.requests, fleet, dispatcher, &w.name)
}

fn assert_no_fault_telemetry(what: &str, report: &ShardedReport) {
    assert_eq!(report.faults_injected, 0, "{what}");
    assert_eq!(report.aggregate.solver_fallbacks, 0, "{what}");
    assert_eq!(report.batches_degraded, 0, "{what}");
    assert_eq!(report.service_rate_degraded(), 0.0, "{what}");
}

#[test]
fn epoch_rolls_follow_the_traffic_model() {
    let workload = three_cities(6);
    let config = StructRideConfig::default();
    let run = |config| run_1x3(&workload, config, DispatcherKind::Sard);

    // Free flow never rolls an epoch.
    let free_flow = run(config);
    assert_eq!(free_flow.epoch_rolls, 0);
    assert_eq!(free_flow.labels_rescaled + free_flow.labels_rebuilt, 0);
    assert_eq!(free_flow.shards_refreshed, 0);
    assert_eq!(free_flow.sp_fallback_queries, 0);
    assert_eq!(free_flow.label_refresh_seconds, 0.0);
    assert_no_fault_telemetry("free flow", &free_flow);

    // Rush hour is zone-free: every boundary is a uniform rescale.
    let rush = run(config.with_traffic(rush_hour(HORIZON / 6.0, HORIZON / 12.0)));
    assert!(rush.epoch_rolls > 0, "rush hour must cross epochs");
    assert_eq!(rush.labels_rescaled, rush.epoch_rolls);
    assert_eq!(rush.labels_rebuilt, 0);
    assert_eq!(rush.shards_refreshed, 0);
    assert_eq!(rush.sp_fallback_queries, 0);
    assert_no_fault_telemetry("rush hour", &rush);

    // An incident over the western third, active for the middle half of the
    // horizon: rolling into it takes the zone artifact's labels.
    let (min_x, min_y, max_x, max_y) = workload.network().bounding_box();
    let west_third = (min_x, min_y, min_x + (max_x - min_x) / 3.0, max_y);
    let (from, until, epoch) = (HORIZON / 4.0, HORIZON / 2.0, HORIZON / 6.0);
    let spike = run(config.with_traffic(incident_spike(west_third, 2.5, from, until, epoch)));
    assert!(
        spike.labels_rebuilt > 0,
        "incident must roll into a zoned epoch"
    );
    assert_eq!(
        spike.labels_rescaled + spike.labels_rebuilt,
        spike.epoch_rolls
    );
    assert_eq!(spike.shards_refreshed, 0);
    assert_eq!(spike.sp_fallback_queries, 0);
    assert_no_fault_telemetry("incident", &spike);
}

#[test]
fn ten_times_the_fleet_prunes_more_and_evaluates_far_less_than_the_fleet() {
    let config = StructRideConfig::default();
    let base = run_1x3(&three_cities(6), config, DispatcherKind::Sard).aggregate;
    let mega_workload = three_cities(60);
    let mega = run_1x3(&mega_workload, config, DispatcherKind::Sard);
    assert!(base.prescreen_pruned > 0);
    assert!(mega.aggregate.prescreen_pruned > base.prescreen_pruned);
    let evaluated = mega.aggregate.insertion_evaluations;
    let full_sweep = (mega_workload.requests.len() * mega_workload.fresh_vehicles().len()) as u64;
    assert!(
        evaluated > 0 && evaluated * 10 < full_sweep,
        "{evaluated} evaluations against a {full_sweep}-pair full sweep"
    );
    assert_no_fault_telemetry("megafleet", &mega);
}

#[test]
fn chaos_preset_degrades_part_of_the_run() {
    let config = StructRideConfig::default().with_faults(FaultConfig::chaos());
    let chaos = run_1x3(&three_cities(6), config, DispatcherKind::Assign);
    assert!(chaos.faults_injected > 0, "chaos run saw no outage");
    assert!(chaos.batches_degraded > 0, "chaos run never degraded");
    assert!(chaos.batches_degraded < chaos.aggregate.batches as u64);
    assert!((0.0..=1.0).contains(&chaos.service_rate_degraded()));
}

#[test]
fn lazy_arrival_streams_are_fully_accounted_for_by_the_ingest_front_end() {
    const ARRIVALS: usize = 80;
    let horizon = 90.0;
    let w = Workload::generate(WorkloadParams {
        num_requests: ARRIVALS,
        num_vehicles: 16,
        horizon,
        scale: 0.25,
        seed: 42,
        ..WorkloadParams::small(CityProfile::NycLike)
    });
    // The whole horizon in about 1.5 wall seconds; the deadline is short
    // enough that batches close on time, not on the size cap.
    let config = StructRideConfig::default().with_ingest(IngestConfig {
        max_batch_size: 48,
        batch_deadline: 0.015,
        queue_capacity: 2048,
        time_scale: horizon / 1.5,
    });
    let rate = ARRIVALS as f64 / horizon;
    let stream = |profile| ArrivalStreamParams {
        profile,
        request: w.params.city.request_params(w.params.seed),
        count: ARRIVALS,
        first_id: 0,
    };
    let poisson = stream(ArrivalProfile::Poisson { rate });
    let bursty = stream(ArrivalProfile::BurstySurge {
        base_rate: rate * 0.5,
        surge_rate: rate * 3.0,
        period: horizon / 4.0,
        surge_fraction: 0.25,
    });
    let check = |what: &str, stats: &IngestStats, served: usize| {
        assert_eq!(stats.arrivals, ARRIVALS, "{what}");
        let accounted = stats.dispatched + stats.dropped_queue_full + stats.timed_out;
        assert_eq!(accounted, ARRIVALS, "{what}: dispatched, shed or timed out");
        assert!(stats.batches > 0, "{what}");
        assert!(served > 0 && served <= stats.dispatched, "{what}");
        let (p50, p99) = (stats.e2e_latency_p50_ms, stats.e2e_latency_p99_ms);
        assert!(0.0 < p50 && p50 <= p99, "{what}: e2e p50 {p50} p99 {p99}");
    };

    for (what, params) in [("poisson", &poisson), ("bursty", &bursty)] {
        w.engine.clear_cache();
        let (arrivals, fleet) = (ArrivalStream::new(&w.engine, params), w.fresh_vehicles());
        let mut sard = build(DispatcherKind::Sard, &config);
        let report = Simulator::new(config)
            .run_ingested(&w.engine, arrivals, fleet, sard.as_mut(), &w.name)
            .expect("the producer replays a generated stream");
        check(what, &report.ingest, report.metrics.served_requests);
    }

    let (net, fleet) = (w.engine.network(), w.fresh_vehicles());
    let regions = region_strips_for(net, 2);
    let arrivals = BatchSource::Ingest(Box::new(ArrivalStream::new(&w.engine, &poisson)));
    let dispatcher = |_| build(DispatcherKind::Sard, &config);
    let hooks = RunHooks::default();
    let sharded = ShardedSimulator::new(config)
        .execute(net, &regions, arrivals, fleet, dispatcher, &w.name, hooks)
        .expect("the producer replays a generated stream");
    let served = sharded.aggregate.served_requests;
    let stats = sharded.ingest.expect("an ingested run reports its queue");
    check("poisson, 2 shards", &stats, served);
}
