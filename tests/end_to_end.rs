//! End-to-end integration tests: every dispatcher of the evaluation runs on a
//! small synthetic workload through the batched simulator, and the qualitative
//! relationships the paper reports are checked (batch methods serve at least
//! as many requests as the online ones, metrics are internally consistent,
//! committed schedules respect all constraints).

use std::collections::HashSet;
use structride::prelude::*;

fn small_workload(city: CityProfile, seed: u64) -> Workload {
    Workload::generate(WorkloadParams {
        num_requests: 120,
        num_vehicles: 12,
        horizon: 300.0,
        scale: 0.3,
        seed,
        ..WorkloadParams::small(city)
    })
}

fn run(
    workload: &Workload,
    dispatcher: &mut dyn Dispatcher,
    config: StructRideConfig,
) -> SimulationReport {
    // Each algorithm run starts from a cold shortest-path cache so that query
    // counts and runtimes are comparable across runs sharing one engine.
    workload.engine.clear_cache();
    Simulator::new(config).run(
        &workload.engine,
        &workload.requests,
        workload.fresh_vehicles(),
        dispatcher,
        &workload.name,
    )
}

#[test]
fn every_dispatcher_produces_consistent_metrics() {
    let workload = small_workload(CityProfile::NycLike, 7);
    let config = StructRideConfig::default();
    for mut dispatcher in structride::standard_dispatcher_suite(config) {
        let report = run(&workload, dispatcher.as_mut(), config);
        let m = &report.metrics;
        assert_eq!(m.total_requests, workload.requests.len(), "{}", m.algorithm);
        assert!(m.served_requests <= m.total_requests, "{}", m.algorithm);
        assert!((0.0..=1.0).contains(&m.service_rate()), "{}", m.algorithm);
        assert!(
            m.total_travel >= 0.0 && m.total_travel.is_finite(),
            "{}",
            m.algorithm
        );
        // Unified cost decomposes exactly into travel + penalties.
        let expected = m.total_travel + config.cost.penalty_coefficient * m.unserved_direct_cost;
        assert!((m.unified_cost - expected).abs() < 1e-6, "{}", m.algorithm);
        // Each served request is delivered exactly once across the fleet.
        let mut delivered: Vec<RequestId> = report
            .vehicles
            .iter()
            .flat_map(|v| v.completed.iter().copied())
            .collect();
        let unique: HashSet<RequestId> = delivered.iter().copied().collect();
        assert_eq!(
            unique.len(),
            delivered.len(),
            "{}: no double deliveries",
            m.algorithm
        );
        delivered.sort_unstable();
        let mut served: Vec<RequestId> = report.served.iter().copied().collect();
        served.sort_unstable();
        assert_eq!(delivered, served, "{}: assigned == delivered", m.algorithm);
        // Schedules are fully executed by the end of the simulation.
        assert!(
            report.vehicles.iter().all(|v| v.schedule.is_empty()),
            "{}",
            m.algorithm
        );
    }
}

#[test]
fn sard_and_assign_runs_hit_the_score_memo() {
    let workload = small_workload(CityProfile::NycLike, 23);
    let config = StructRideConfig::default();
    let runs = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool")
            .install(|| {
                let sard = run(&workload, &mut SardDispatcher::new(config), config).metrics;
                let mut assign = structride::core::AssignDispatcher::new();
                [sard, run(&workload, &mut assign, config).metrics]
            })
    };
    let sequential = runs(1);
    for m in &sequential {
        // The pool carries over between batches, so most pairs are scored
        // again with unchanged inputs.
        assert!(m.memo_hits > 0, "{}: no memo hits", m.algorithm);
        assert!(m.memo_hits <= m.memo_lookups, "{}", m.algorithm);
    }
    // The memo's telemetry is logical: what a batch looks up and finds does
    // not depend on how its requests are spread over workers.
    for (one, four) in sequential.iter().zip(&runs(4)) {
        assert_eq!(
            (one.memo_lookups, one.memo_hits),
            (four.memo_lookups, four.memo_hits),
            "{}: memo telemetry differs between 1 and 4 threads",
            one.algorithm
        );
    }
}

#[test]
fn batch_methods_serve_at_least_as_many_as_the_online_greedy() {
    let workload = small_workload(CityProfile::ChengduLike, 11);
    let config = StructRideConfig::default();

    let gdp_served = run(&workload, &mut PruneGdp::new(), config)
        .metrics
        .served_requests;
    let sard_served = run(&workload, &mut SardDispatcher::new(config), config)
        .metrics
        .served_requests;
    let gas_served = run(&workload, &mut Gas::default(), config)
        .metrics
        .served_requests;

    // The paper's headline qualitative result (Figs. 8–13): batch-based
    // methods achieve service rates at least as high as the online insertion
    // baseline.  A small slack absorbs randomness at this tiny scale.
    assert!(
        sard_served + 3 >= gdp_served,
        "SARD served {sard_served}, pruneGDP {gdp_served}"
    );
    assert!(
        gas_served + 3 >= gdp_served,
        "GAS served {gas_served}, pruneGDP {gdp_served}"
    );
    // And at least someone gets served at all.
    assert!(gdp_served > 0 && sard_served > 0);
}

#[test]
fn looser_deadlines_never_hurt_sard_service_rate() {
    let mut tight_params = WorkloadParams {
        num_requests: 100,
        num_vehicles: 10,
        horizon: 300.0,
        scale: 0.3,
        seed: 5,
        ..WorkloadParams::small(CityProfile::NycLike)
    };
    tight_params.gamma = 1.2;
    let mut loose_params = tight_params;
    loose_params.gamma = 2.0;

    let config = StructRideConfig::default();
    let tight = Workload::generate(tight_params);
    let loose = Workload::generate(loose_params);
    let tight_rate = run(&tight, &mut SardDispatcher::new(config), config)
        .metrics
        .service_rate();
    let loose_rate = run(&loose, &mut SardDispatcher::new(config), config)
        .metrics
        .service_rate();
    // Fig. 10: relaxing γ increases (or preserves) the service rate.
    assert!(
        loose_rate + 0.05 >= tight_rate,
        "gamma 2.0 rate {loose_rate:.3} vs gamma 1.2 rate {tight_rate:.3}"
    );
}

#[test]
fn angle_pruning_reduces_shortest_path_queries_without_hurting_quality() {
    let workload = small_workload(CityProfile::ChengduLike, 13);
    let with = StructRideConfig::default();
    let without = StructRideConfig::default().without_angle_pruning();

    let pruned = run(&workload, &mut SardDispatcher::new(with), with).metrics;
    let full = run(&workload, &mut SardDispatcher::new(without), without).metrics;

    // Tables V/VI: the pruned variant issues no more shortest-path queries...
    assert!(
        pruned.sp_queries <= full.sp_queries,
        "pruned {} vs full {}",
        pruned.sp_queries,
        full.sp_queries
    );
    // ...and the service rate is essentially unharmed.
    assert!(
        pruned.service_rate() + 0.1 >= full.service_rate(),
        "pruned {:.3} vs full {:.3}",
        pruned.service_rate(),
        full.service_rate()
    );
}

#[test]
fn penalty_coefficient_scales_unified_cost_monotonically() {
    let workload = small_workload(CityProfile::NycLike, 17);
    let base = StructRideConfig::default();
    let report = run(&workload, &mut SardDispatcher::new(base), base);
    // Fig. 12: greedy/batch heuristics are insensitive to p_r in their
    // decisions; the unified cost simply re-weights the unserved penalty.
    let mut last = f64::NEG_INFINITY;
    for pr in [2.0, 5.0, 10.0, 20.0, 30.0] {
        let cost = report
            .metrics
            .unified_cost_with(&CostParams::with_penalty(pr));
        assert!(cost >= last);
        last = cost;
    }
}

#[test]
fn rtv_memory_footprint_exceeds_the_online_methods() {
    let workload = small_workload(CityProfile::NycLike, 19);
    let config = StructRideConfig::default();
    let rtv_mem = run(
        &workload,
        &mut Rtv::new(config.cost.penalty_coefficient),
        config,
    )
    .metrics
    .memory_bytes;
    let gdp_mem = run(&workload, &mut PruneGdp::new(), config)
        .metrics
        .memory_bytes;
    // Fig. 14: the RTV graph dominates the memory comparison.
    assert!(
        rtv_mem > gdp_mem,
        "RTV {rtv_mem} bytes vs pruneGDP {gdp_mem} bytes"
    );
}

#[test]
fn the_same_run_reports_the_same_memory_every_time() {
    // Fig. 14's estimate counts entries (peak pool size, set lengths), so it
    // is a function of the run.  A `HashMap` / `HashSet` capacity is not: it
    // depends on each map's hasher seed, which differs between two runs in
    // one process.
    let workload = small_workload(CityProfile::NycLike, 7);
    let config = StructRideConfig::default();
    let registry = structride::baselines::standard_registry();
    for kind in registry.all() {
        let memory: Vec<usize> = (0..4)
            .map(|_| {
                let mut dispatcher = registry.build(kind, &config).expect("registered");
                run(&workload, dispatcher.as_mut(), config)
                    .metrics
                    .memory_bytes
            })
            .collect();
        assert!(
            memory.iter().all(|&m| m == memory[0]),
            "{kind:?}: {memory:?}"
        );
    }
}

#[test]
fn stage_spans_cover_the_batch_wall_and_change_no_decision() {
    let workload = small_workload(CityProfile::NycLike, 5);
    let config = StructRideConfig::default();
    type Factory = fn(StructRideConfig) -> Box<dyn Dispatcher>;
    let cases: [(Factory, &[Stage]); 2] = [
        (
            |c| Box::new(SardDispatcher::new(c)),
            &[
                Stage::Prescreen,
                Stage::InsertLoop,
                Stage::GraphChecks,
                Stage::Grouping,
            ],
        ),
        (
            |_| Box::new(structride::core::AssignDispatcher::new()),
            &[Stage::Prescreen, Stage::InsertLoop, Stage::Lap],
        ),
    ];
    for (make, booked) in cases {
        let plain = run(&workload, make(config).as_mut(), config);
        workload.engine.clear_cache();
        let mut table = StageTable::new();
        let observed = Simulator::new(config)
            .execute(
                &workload.engine,
                BatchSource::Clock(&workload.requests),
                workload.fresh_vehicles(),
                make(config).as_mut(),
                &workload.name,
                RunHooks {
                    observer: Some(&mut table),
                    ..RunHooks::default()
                },
            )
            .expect("a clock-driven run is never refused");
        // Spans only read the clock.
        assert_eq!(observed.served, plain.served);
        assert_eq!(
            observed.metrics.unified_cost.to_bits(),
            plain.metrics.unified_cost.to_bits()
        );
        assert_eq!(table.rows.len(), observed.metrics.batches);
        // The top-level stages partition each step, so over the run they sum
        // to the batch wall within 2 %; the nested ones ran inside dispatch.
        let (wall, stages) = table.totals();
        let top: u64 = Stage::ALL
            .iter()
            .zip(stages)
            .filter(|(stage, _)| stage.parent().is_none())
            .map(|(_, nanos)| nanos)
            .sum();
        assert!(
            top <= wall && top as f64 >= 0.98 * wall as f64,
            "top-level stages {top} ns vs wall {wall} ns"
        );
        let nested = |stage: Stage| stages[Stage::ALL.iter().position(|&s| s == stage).unwrap()];
        for &stage in booked {
            assert!(nested(stage) > 0, "{stage:?} never booked");
        }
    }
}
