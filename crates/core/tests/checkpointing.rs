//! Batch-boundary checkpoint/restore property tests.
//!
//! The contract under test (see `structride_core::replay::Checkpoint`):
//! a run that writes checkpoints finishes bit-identically to one that does
//! not, and a run resumed from any checkpoint — after a text-codec
//! round-trip, under any worker-thread count — finishes bit-identically to
//! the uninterrupted run: same deterministic metrics, same served set, same
//! final fleet.  Exercised monolithically with every registered dispatcher
//! and on a faulted 3-shard rush-hour run (traffic epochs, shard outages
//! and failover all crossing the checkpoint boundary); one layout serves
//! both, so a monolithic checkpoint also resumes on a one-shard sharded run.
//! A checkpoint is a parsed file, so one that does not fit the run being
//! resumed must come back as a `ResumeError`, never a panic or a silently
//! truncated run.

use structride_baselines::{standard_registry, PruneGdp};
use structride_core::shard::{region_grid_for, ShardDispatcher, ShardedSimulator, ShardingConfig};
use structride_core::{
    BatchSource, Checkpoint, Dispatcher, FaultConfig, ResumeError, RunError, RunHooks, RunMetrics,
    SardDispatcher, Simulator, StructRideConfig,
};
use structride_datagen::{
    CityProfile, MultiRegionParams, MultiRegionWorkload, Workload, WorkloadParams,
};
use structride_roadnet::{SpEngine, SpEngineBuilder, TrafficConfig, TrafficProfile};

fn sard_factory(config: StructRideConfig) -> impl Fn(usize) -> ShardDispatcher {
    move |_| Box::new(SardDispatcher::new(config))
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

/// The [`RunMetrics`] fields a resumed run must reproduce: the wall-clock
/// diagnostics `running_time` and `sp_queries` are excluded, and so is
/// `memory_bytes`, because a resumed run's peak covers only the resumed
/// batches.
fn deterministic_fields(
    m: &RunMetrics,
) -> (String, String, usize, usize, u64, u64, u64, usize, u64, u64) {
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
    )
}

const CLOCK: &str = "a clock-driven run is never refused";

/// Hooks that only collect checkpoints.
fn checkpoints_into(sink: &mut dyn FnMut(Checkpoint)) -> RunHooks<'_> {
    RunHooks {
        checkpoints: Some(sink),
        ..RunHooks::default()
    }
}

fn in_pool<T>(threads: usize, f: impl FnOnce() -> T + Send) -> T
where
    T: Send,
{
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

/// Every registered dispatcher, on a rush-hour run: a checkpointing run
/// finishes like a plain one, and a resume from a mid-run checkpoint lands
/// on the uninterrupted run.  The pool-carrying dispatchers must each
/// checkpoint a non-empty pool at some boundary.
#[test]
fn monolithic_checkpoint_resume_is_bit_identical() {
    let w = single_city_workload();
    let traffic = TrafficConfig {
        profile: TrafficProfile::Rush,
        epoch_seconds: 40.0,
        hour_scale: 20.0,
        ..TrafficConfig::default()
    };
    let faults = FaultConfig {
        seed: 3,
        checkpoint_every: 4,
        ..FaultConfig::default()
    };
    let config = StructRideConfig::default()
        .with_traffic(traffic)
        .with_faults(faults);
    let sim = Simulator::new(config);
    let fresh_engine = || -> SpEngine {
        SpEngineBuilder::new()
            .traffic(traffic)
            .build(w.engine.network().clone())
    };
    let registry = standard_registry();
    for key in registry.keys() {
        let make = || registry.build_by_key(key, &config).expect("registered key");
        let baseline = in_pool(1, || {
            let engine = fresh_engine();
            sim.run(
                &engine,
                &w.requests,
                w.fresh_vehicles(),
                make().as_mut(),
                &w.name,
            )
        });
        assert!(baseline.metrics.served_requests > 0, "{key}");

        // A checkpointing run is bit-identical to a plain run (capture is a
        // pure read) — even under a different worker count.
        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        let with_ckpts = in_pool(4, || {
            let engine = fresh_engine();
            sim.execute(
                &engine,
                BatchSource::Clock(&w.requests),
                w.fresh_vehicles(),
                make().as_mut(),
                &w.name,
                checkpoints_into(&mut |c| checkpoints.push(c)),
            )
            .expect(CLOCK)
        });
        assert_eq!(
            deterministic_fields(&with_ckpts.metrics),
            deterministic_fields(&baseline.metrics),
            "{key}: writing checkpoints must not perturb the run"
        );
        assert_eq!(with_ckpts.served, baseline.served, "{key}");
        assert!(
            checkpoints.len() >= 2,
            "{key}: the cadence must fire at least twice over {} batches",
            baseline.metrics.batches
        );
        for (i, c) in checkpoints.iter().enumerate() {
            assert_eq!(c.shards.len(), 1);
            assert_eq!(c.batches, (i + 1) * faults.checkpoint_every as usize);
            assert_eq!(c.config.faults, faults);
        }
        if ["sard", "assign", "gas", "rtv"].contains(&key) {
            assert!(
                checkpoints
                    .iter()
                    .any(|c| !c.shards[0].pending.pool.is_empty()),
                "{key} must checkpoint a non-empty pool"
            );
        }

        // Resume from a mid-run checkpoint — after a text-codec round-trip,
        // at 1 and 4 worker threads — and land exactly on the uninterrupted
        // run.
        let picked = &checkpoints[checkpoints.len() / 2];
        let reparsed = Checkpoint::parse(&picked.to_text()).expect("checkpoint codec");
        assert_eq!(&reparsed, picked);
        for threads in [1usize, 4] {
            let resumed = in_pool(threads, || {
                let engine = fresh_engine();
                sim.execute(
                    &engine,
                    BatchSource::Resume(&w.requests, &reparsed),
                    Vec::new(),
                    make().as_mut(),
                    &w.name,
                    RunHooks::default(),
                )
                .expect("resumable")
            });
            assert_eq!(
                deterministic_fields(&resumed.metrics),
                deterministic_fields(&baseline.metrics),
                "{key}: resume at {threads} threads must finish bit-identically"
            );
            assert_eq!(resumed.served, baseline.served, "{key}");
            assert_eq!(
                resumed.vehicles, baseline.vehicles,
                "{key}: final fleet state must match bit for bit"
            );
        }
    }
}

#[test]
fn faulted_sharded_rush_checkpoint_resume_is_bit_identical() {
    let w = multi_workload(3);
    // Rush-profile congestion with a compressed clock (epochs every 40 s),
    // shard outages every 6 batches for 2 batches, checkpoints every 5:
    // outages, failover reroutes and epoch rolls all cross checkpoint
    // boundaries.
    let traffic = TrafficConfig {
        profile: TrafficProfile::Rush,
        epoch_seconds: 40.0,
        hour_scale: 20.0,
        ..TrafficConfig::default()
    };
    let faults = FaultConfig {
        seed: 7,
        outage_every: 6,
        outage_batches: 2,
        checkpoint_every: 5,
        ..FaultConfig::default()
    };
    let config = StructRideConfig::default()
        .with_traffic(traffic)
        .with_faults(faults);
    let sim = ShardedSimulator::new(config);
    let regions = region_grid_for(w.network(), 1, 3);

    let baseline = in_pool(1, || {
        sim.run(
            w.network(),
            &regions,
            &w.requests,
            w.fresh_vehicles(),
            sard_factory(config),
            &w.name,
        )
    });
    assert!(baseline.faults_injected > 0, "outages must fire");
    assert!(baseline.epoch_rolls > 0, "epochs must roll");
    assert!(baseline.aggregate.served_requests > 0);

    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    let with_ckpts = in_pool(1, || {
        sim.execute(
            w.network(),
            &regions,
            BatchSource::Clock(&w.requests),
            w.fresh_vehicles(),
            sard_factory(config),
            &w.name,
            checkpoints_into(&mut |c| checkpoints.push(c)),
        )
        .expect(CLOCK)
    });
    assert_eq!(
        deterministic_fields(&with_ckpts.aggregate),
        deterministic_fields(&baseline.aggregate),
        "writing checkpoints must not perturb the sharded run"
    );
    assert_eq!(with_ckpts.served, baseline.served);
    assert!(checkpoints.len() >= 2);

    // Pick the checkpoint closest to mid-run and push it through the file
    // codec, exactly as the CI kill/resume smoke does.
    let picked = &checkpoints[checkpoints.len() / 2];
    assert_eq!(picked.shards.len(), 3);
    assert_eq!(picked.config.faults, faults);
    let path = std::env::temp_dir().join(format!("structride_ckpt_{}.txt", std::process::id()));
    picked.save(&path).expect("save checkpoint");
    let loaded = Checkpoint::load(&path).expect("load checkpoint");
    std::fs::remove_file(&path).ok();
    assert_eq!(&loaded, picked);

    for threads in [1usize, 4] {
        let resumed = in_pool(threads, || {
            sim.execute(
                w.network(),
                &regions,
                BatchSource::Resume(&w.requests, &loaded),
                Vec::new(),
                sard_factory(config),
                &w.name,
                RunHooks::default(),
            )
            .expect("resumable")
        });
        assert_eq!(
            deterministic_fields(&resumed.aggregate),
            deterministic_fields(&baseline.aggregate),
            "sharded resume at {threads} threads must finish bit-identically"
        );
        for (a, b) in resumed.per_shard.iter().zip(&baseline.per_shard) {
            assert_eq!(deterministic_fields(a), deterministic_fields(b));
        }
        assert_eq!(resumed.served, baseline.served);
        assert_eq!(resumed.vehicles, baseline.vehicles);
        assert_eq!(resumed.handoffs, baseline.handoffs);
        assert_eq!(resumed.handoff_bids, baseline.handoff_bids);
        assert_eq!(resumed.migrations, baseline.migrations);
        assert_eq!(resumed.epoch_rolls, baseline.epoch_rolls);
        assert_eq!(resumed.faults_injected, baseline.faults_injected);
        assert_eq!(resumed.batches_degraded, baseline.batches_degraded);
        assert_eq!(resumed.degraded_offered, baseline.degraded_offered);
        assert_eq!(resumed.degraded_served, baseline.degraded_served);
    }
}

/// A static config whose only fault-plan effect is a checkpoint every three
/// batches.
fn cadence_config() -> StructRideConfig {
    StructRideConfig::default().with_faults(FaultConfig {
        checkpoint_every: 3,
        ..FaultConfig::default()
    })
}

/// The first checkpoint of a monolithic run over `w`.
fn monolithic_checkpoint(w: &Workload, config: StructRideConfig) -> Checkpoint {
    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    Simulator::new(config)
        .execute(
            &w.engine,
            BatchSource::Clock(&w.requests),
            w.fresh_vehicles(),
            &mut SardDispatcher::new(config),
            &w.name,
            checkpoints_into(&mut |c| checkpoints.push(c)),
        )
        .expect(CLOCK);
    checkpoints.swap_remove(0)
}

/// The first checkpoint of a 1×3-sharded run over `w`.
fn sharded_checkpoint(w: &MultiRegionWorkload, config: StructRideConfig) -> Checkpoint {
    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    ShardedSimulator::new(config)
        .execute(
            w.network(),
            &region_grid_for(w.network(), 1, 3),
            BatchSource::Clock(&w.requests),
            w.fresh_vehicles(),
            sard_factory(config),
            &w.name,
            checkpoints_into(&mut |c| checkpoints.push(c)),
        )
        .expect(CLOCK);
    checkpoints.swap_remove(0)
}

/// One checkpoint layout serves every shard count: a monolithic run's
/// checkpoint resumes on a one-shard [`ShardedSimulator`] (the same run) and
/// finishes like the uninterrupted monolithic run.
#[test]
fn a_monolithic_checkpoint_resumes_on_a_one_shard_sharded_run() {
    let config = cadence_config();
    let w = single_city_workload();
    let mut sard = SardDispatcher::new(config);
    let uninterrupted = Simulator::new(config).run(
        &w.engine,
        &w.requests,
        w.fresh_vehicles(),
        &mut sard,
        &w.name,
    );
    w.engine.clear_cache();
    let checkpoint = monolithic_checkpoint(&w, config);
    assert!(!checkpoint.shards[0].pending.is_empty(), "a pool crosses");
    let resumed = ShardedSimulator::with_sharding(config, ShardingConfig::isolated())
        .execute(
            w.engine.network(),
            &region_grid_for(w.engine.network(), 1, 1),
            BatchSource::Resume(&w.requests, &checkpoint),
            Vec::new(),
            sard_factory(config),
            &w.name,
            RunHooks::default(),
        )
        .expect("a monolithic checkpoint fits a one-shard run");
    assert_eq!(
        deterministic_fields(&resumed.aggregate),
        deterministic_fields(&uninterrupted.metrics)
    );
    assert_eq!(resumed.served, uninterrupted.served);
    assert_eq!(resumed.vehicles, uninterrupted.vehicles);
}

#[test]
fn resume_rejects_a_shard_count_mismatch() {
    let config = cadence_config();
    let (w, multi) = (single_city_workload(), multi_workload(3));
    // A 3-shard checkpoint into a 2-region layout.
    let sharded = sharded_checkpoint(&multi, config);
    let resumed = ShardedSimulator::new(config).execute(
        multi.network(),
        &region_grid_for(multi.network(), 1, 2),
        BatchSource::Resume(&multi.requests, &sharded),
        Vec::new(),
        sard_factory(config),
        &sharded.workload,
        RunHooks::default(),
    );
    let mismatch = ResumeError::ShardCount {
        expected: 2,
        found: 3,
    };
    assert_eq!(resumed.err(), Some(RunError::Resume(mismatch)));
    // A monolithic checkpoint must hold exactly one shard section.
    let mut doubled = monolithic_checkpoint(&w, config);
    doubled.shards.push(doubled.shards[0].clone());
    let mut sard = SardDispatcher::new(config);
    let resumed = Simulator::new(config).execute(
        &w.engine,
        BatchSource::Resume(&w.requests, &doubled),
        Vec::new(),
        &mut sard,
        &doubled.workload,
        RunHooks::default(),
    );
    let mismatch = ResumeError::ShardCount {
        expected: 1,
        found: 2,
    };
    assert_eq!(resumed.err(), Some(RunError::Resume(mismatch)));
}

#[test]
fn resume_rejects_a_cursor_past_the_request_stream() {
    let config = cadence_config();
    let (w, multi) = (single_city_workload(), multi_workload(3));
    // The checkpoint's own cursor against a stream cut short of it (the
    // "wrong request file" case), and a corrupted cursor against the full
    // stream — which, once `now` is past the horizon, used to end the run
    // silently instead of panicking.
    let mut monolithic = monolithic_checkpoint(&w, config);
    assert!(monolithic.next_request > 1);
    let short = &w.requests[..monolithic.next_request - 1];
    let mut sard = SardDispatcher::new(config);
    let resumed = Simulator::new(config).execute(
        &w.engine,
        BatchSource::Resume(short, &monolithic),
        Vec::new(),
        &mut sard,
        &monolithic.workload,
        RunHooks::default(),
    );
    let past_end = ResumeError::CursorPastEnd {
        cursor: monolithic.next_request,
        requests: short.len(),
    };
    assert_eq!(resumed.err(), Some(RunError::Resume(past_end)));
    monolithic.next_request = w.requests.len() + 1;
    monolithic.now = 1.0e9;
    let resumed = Simulator::new(config).execute(
        &w.engine,
        BatchSource::Resume(&w.requests, &monolithic),
        Vec::new(),
        &mut sard,
        &monolithic.workload,
        RunHooks::default(),
    );
    let past_end = ResumeError::CursorPastEnd {
        cursor: w.requests.len() + 1,
        requests: w.requests.len(),
    };
    assert_eq!(resumed.err(), Some(RunError::Resume(past_end)));

    let mut sharded = sharded_checkpoint(&multi, config);
    sharded.next_request = multi.requests.len() + 7;
    let resumed = ShardedSimulator::new(config).execute(
        multi.network(),
        &region_grid_for(multi.network(), 1, 3),
        BatchSource::Resume(&multi.requests, &sharded),
        Vec::new(),
        sard_factory(config),
        &sharded.workload,
        RunHooks::default(),
    );
    let past_end = ResumeError::CursorPastEnd {
        cursor: multi.requests.len() + 7,
        requests: multi.requests.len(),
    };
    assert_eq!(resumed.err(), Some(RunError::Resume(past_end)));
}

#[test]
fn resume_rejects_a_checkpoint_of_another_workload_config_or_dispatcher() {
    let config = cadence_config();
    let w = single_city_workload();
    let monolithic = monolithic_checkpoint(&w, config);
    let resume = |config: StructRideConfig, name: &str, dispatcher: &mut dyn Dispatcher| {
        let source = BatchSource::Resume(&w.requests, &monolithic);
        let sim = Simulator::new(config);
        sim.execute(
            &w.engine,
            source,
            Vec::new(),
            dispatcher,
            name,
            RunHooks::default(),
        )
        .err()
    };
    let other_workload = ResumeError::Workload {
        expected: "elsewhere".to_string(),
        found: w.name.clone(),
    };
    let mut sard = SardDispatcher::new(config);
    assert_eq!(
        resume(config, "elsewhere", &mut sard),
        Some(RunError::Resume(other_workload))
    );
    let slower = StructRideConfig {
        batch_period: config.batch_period * 2.0,
        ..config
    };
    let mut sard = SardDispatcher::new(slower);
    assert_eq!(
        resume(slower, &w.name, &mut sard),
        Some(RunError::Resume(ResumeError::Config))
    );
    let other_dispatcher = ResumeError::Algorithm {
        expected: "pruneGDP".to_string(),
        found: "SARD".to_string(),
    };
    assert_eq!(
        resume(config, &w.name, &mut PruneGdp::new()),
        Some(RunError::Resume(other_dispatcher))
    );
}

/// pruneGDP holds no pool, so restoring a SARD pool into it would panic in
/// the default `restore_snapshot`; the dispatcher check must refuse the
/// checkpoint before any state is restored.
#[test]
fn a_sard_checkpoint_resumed_into_prune_gdp_is_refused_not_a_panic() {
    let config = cadence_config();
    let multi = multi_workload(3);
    let sharded = sharded_checkpoint(&multi, config);
    assert!(
        sharded.shards.iter().any(|s| !s.pending.is_empty()),
        "the checkpoint must carry a SARD pool"
    );
    let resumed = ShardedSimulator::new(config).execute(
        multi.network(),
        &region_grid_for(multi.network(), 1, 3),
        BatchSource::Resume(&multi.requests, &sharded),
        Vec::new(),
        |_| Box::new(PruneGdp::new()),
        &multi.name,
        RunHooks::default(),
    );
    let other_dispatcher = ResumeError::Algorithm {
        expected: "pruneGDP".to_string(),
        found: "SARD".to_string(),
    };
    assert_eq!(resumed.err(), Some(RunError::Resume(other_dispatcher)));
}
