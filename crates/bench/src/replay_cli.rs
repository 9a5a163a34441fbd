//! Plumbing behind the `replay` binary: dispatcher lookup by name, workload
//! regeneration from trace metadata, and the record/replay/verify flows.
//!
//! A trace does not ship its road network — it stores the
//! [`WorkloadParams`] that generated it (all generation is seeded and
//! deterministic), so `replay` regenerates an identical engine from the
//! metadata.  Floats in the metadata round-trip exactly through the text
//! format, making cross-process replays bit-identical.

use structride_baselines::standard_registry;
use structride_core::replay::{
    diff_traces, replay_trace, Checkpoint, DriftReport, Trace, TraceMeta, TraceRecorder,
    VehicleState,
};
use structride_core::shard::{region_strips_for, ShardedSimulator, ShardingConfig};
use structride_core::{
    Dispatcher, IngestConfig, RunHooks, RunMetrics, SardDispatcher, Simulator, StructRideConfig,
};
use structride_datagen::{
    CityProfile, MultiRegionParams, MultiRegionWorkload, Workload, WorkloadParams,
};
use structride_model::{Request, Vehicle};
use structride_roadnet::{SpEngine, SpEngineBuilder, TrafficConfig};

/// The dispatcher keys `--algo` accepts, straight from the registry
/// ([`standard_registry`]) — the hand-maintained key lists this module used
/// to carry are gone.
pub fn dispatcher_keys() -> Vec<&'static str> {
    standard_registry().keys()
}

/// Deterministic dispatchers — the ones the replay invariant applies to.
/// `ticket` is deliberately absent: TicketAssign+'s commit-order races are
/// the algorithm under study, so it is exempt (see the
/// `structride_core::replay` module docs).
pub fn deterministic_keys() -> Vec<&'static str> {
    standard_registry().deterministic_keys()
}

/// The traffic scenario keys `--traffic` accepts.
pub const TRAFFIC_KEYS: &[&str] = &["rush", "incident"];

/// Builds a traffic scenario from its CLI key, compressed so `horizon`
/// simulated seconds sweep several epochs.  `rush` is the double-peaked
/// hourly profile; `incident` a city-wide slowdown window over the middle of
/// the horizon (network-agnostic: the zone box is unbounded, the time window
/// does the gating).
pub fn traffic_by_name(key: &str, horizon: f64) -> Option<TrafficConfig> {
    match key.to_ascii_lowercase().as_str() {
        "rush" => Some(structride_datagen::rush_hour(
            (horizon / 6.0).max(1.0),
            (horizon / 12.0).max(0.5),
        )),
        "incident" => Some(structride_datagen::incident_spike(
            (
                f64::NEG_INFINITY,
                f64::NEG_INFINITY,
                f64::INFINITY,
                f64::INFINITY,
            ),
            2.5,
            horizon * 0.25,
            horizon * 0.6,
            (horizon / 8.0).max(1.0),
        )),
        _ => None,
    }
}

/// Constructs a fresh dispatcher from its CLI key via the registry.  The
/// box is `Send` so the sharded pipeline can hand one dispatcher to each
/// shard's worker.
pub fn dispatcher_by_name(
    key: &str,
    config: StructRideConfig,
) -> Option<Box<dyn Dispatcher + Send>> {
    standard_registry().build_by_key(&key.to_ascii_lowercase(), &config)
}

/// The quickstart-style workload the `record`/`verify` subcommands use.
pub fn quickstart_params(quick: bool) -> WorkloadParams {
    WorkloadParams {
        num_requests: if quick { 80 } else { 240 },
        num_vehicles: if quick { 12 } else { 40 },
        horizon: if quick { 120.0 } else { 300.0 },
        scale: 0.3,
        ..WorkloadParams::small(CityProfile::NycLike)
    }
}

fn city_from_name(name: &str) -> Option<CityProfile> {
    [
        CityProfile::ChengduLike,
        CityProfile::NycLike,
        CityProfile::CainiaoLike,
    ]
    .into_iter()
    .find(|c| c.name() == name)
}

/// Serializes workload-generation parameters into trace metadata pairs.
pub fn params_to_meta(params: &WorkloadParams) -> Vec<(String, String)> {
    vec![
        ("city".to_string(), params.city.name().to_string()),
        ("num_requests".to_string(), params.num_requests.to_string()),
        ("num_vehicles".to_string(), params.num_vehicles.to_string()),
        ("capacity".to_string(), params.capacity.to_string()),
        (
            "capacity_sigma".to_string(),
            params.capacity_sigma.to_string(),
        ),
        ("gamma".to_string(), params.gamma.to_string()),
        ("horizon".to_string(), params.horizon.to_string()),
        ("scale".to_string(), params.scale.to_string()),
        ("seed".to_string(), params.seed.to_string()),
    ]
}

/// Reconstructs the workload-generation parameters from trace metadata.
pub fn params_from_meta(meta: &TraceMeta) -> Option<WorkloadParams> {
    Some(WorkloadParams {
        city: city_from_name(meta.param("city")?)?,
        num_requests: meta.param("num_requests")?.parse().ok()?,
        num_vehicles: meta.param("num_vehicles")?.parse().ok()?,
        capacity: meta.param("capacity")?.parse().ok()?,
        capacity_sigma: meta.param("capacity_sigma")?.parse().ok()?,
        gamma: meta.param("gamma")?.parse().ok()?,
        horizon: meta.param("horizon")?.parse().ok()?,
        scale: meta.param("scale")?.parse().ok()?,
        seed: meta.param("seed")?.parse().ok()?,
    })
}

/// Regenerates the exact workload a trace was recorded on.
pub fn regenerate_workload(meta: &TraceMeta) -> Option<Workload> {
    params_from_meta(meta).map(Workload::generate)
}

/// The engine a monolithic run needs under `config`: `None` (use the
/// workload's own free-flow engine) when the traffic model is static,
/// otherwise a fresh engine over the same network carrying the traffic
/// model, so the simulator can roll its epoch from the batch clock.  The
/// sharded pipelines need no equivalent — they build their per-shard
/// engines from `config.traffic` themselves.
pub fn traffic_engine(workload: &Workload, config: &StructRideConfig) -> Option<SpEngine> {
    (!config.traffic.is_static()).then(|| {
        SpEngineBuilder::new()
            .traffic(config.traffic)
            .build(workload.engine.network().clone())
    })
}

/// Records a run of `algo_key` on the workload described by `params`.
///
/// Returns the workload (for immediate in-process replays), the trace —
/// with the generation parameters, the dispatcher key, the engine's
/// shortest-path counters and, for SARD, the shareability-graph build
/// counters captured into the metadata — and the [`Checkpoint`]s the run's
/// fault-plan cadence produced (empty unless
/// `config.faults.checkpoint_every > 0`; capture is a pure read, so the
/// trace is the same either way).
pub fn record_run(
    params: WorkloadParams,
    config: StructRideConfig,
    algo_key: &str,
) -> Option<(Workload, Trace, Vec<Checkpoint>)> {
    let workload = Workload::generate(params);
    let traffic = traffic_engine(&workload, &config);
    let engine = traffic.as_ref().unwrap_or(&workload.engine);
    let mut recorder = TraceRecorder::new();
    let mut checkpoints = Vec::new();
    let mut run = |dispatcher: &mut dyn Dispatcher| {
        let hooks = RunHooks {
            recorder: Some(&mut recorder),
            checkpoints: Some(&mut |c| checkpoints.push(c)),
        };
        Simulator::new(config).run_with(
            engine,
            &workload.requests,
            workload.fresh_vehicles(),
            dispatcher,
            &workload.name,
            hooks,
        );
    };
    // SARD is handled concretely so its build stats can be captured; every
    // other dispatcher goes through the trait object.
    let (algorithm, build_stats) = if algo_key.eq_ignore_ascii_case("sard") {
        let mut sard = SardDispatcher::new(config);
        run(&mut sard);
        (sard.name().to_string(), sard.build_stats())
    } else {
        let mut dispatcher = dispatcher_by_name(algo_key, config)?;
        run(dispatcher.as_mut());
        (dispatcher.name().to_string(), None)
    };
    let mut meta = TraceMeta::new(algorithm, &workload.name, config);
    meta.params = params_to_meta(&params);
    meta.params
        .push(("dispatcher".to_string(), algo_key.to_ascii_lowercase()));
    meta.sp_stats = Some(engine.stats());
    meta.build_stats = build_stats;
    Some((workload, recorder.into_trace(meta), checkpoints))
}

/// The dispatcher key a trace should be replayed with by default.
pub fn trace_dispatcher_key(trace: &Trace) -> Option<&str> {
    trace.meta.param("dispatcher")
}

/// Replays `trace` on `workload` with a fresh dispatcher built from
/// `algo_key`.  Traffic-aware traces replay on a fresh engine carrying the
/// recorded traffic model, so epoch rolls replay exactly as recorded.
pub fn replay_run(workload: &Workload, algo_key: &str, trace: &Trace) -> Option<DriftReport> {
    let mut dispatcher = dispatcher_by_name(algo_key, trace.meta.config)?;
    let traffic = traffic_engine(workload, &trace.meta.config);
    let engine = traffic.as_ref().unwrap_or(&workload.engine);
    Some(replay_trace(engine, dispatcher.as_mut(), trace))
}

// ---------------------------------------------------------------------------
// Sharded traces
// ---------------------------------------------------------------------------

/// The quickstart-style multi-region workload the sharded `record`/`verify`
/// subcommands use: a Chengdu-like and an NYC-like region side by side.
pub fn sharded_quickstart_params(quick: bool) -> MultiRegionParams {
    MultiRegionParams {
        cities: vec![CityProfile::ChengduLike, CityProfile::NycLike],
        requests_per_region: if quick { 50 } else { 110 },
        vehicles_per_region: if quick { 8 } else { 18 },
        capacity: 4,
        horizon: if quick { 120.0 } else { 280.0 },
        scale: 0.3,
        seed: 42,
    }
}

/// Serializes multi-region generation parameters, the shard count and the
/// sharding knobs into trace metadata pairs.  `mode=sharded` marks the trace
/// as a sharded one.  The [`ShardingConfig`] is recorded for the same reason
/// `StructRideConfig` is serialized into every trace: replay must rebuild
/// the *recorded* pipeline, not whatever the defaults are at replay time.
pub fn multi_params_to_meta(
    params: &MultiRegionParams,
    shards: usize,
    sharding: &ShardingConfig,
) -> Vec<(String, String)> {
    let cities: Vec<&str> = params.cities.iter().map(|c| c.name()).collect();
    vec![
        ("mode".to_string(), "sharded".to_string()),
        ("shards".to_string(), shards.to_string()),
        (
            "handoff_band".to_string(),
            sharding.handoff_band.to_string(),
        ),
        ("rebalance".to_string(), sharding.rebalance.to_string()),
        (
            "max_migrations_per_batch".to_string(),
            sharding.max_migrations_per_batch.to_string(),
        ),
        ("top_m".to_string(), sharding.top_m.to_string()),
        ("cities".to_string(), cities.join(",")),
        (
            "requests_per_region".to_string(),
            params.requests_per_region.to_string(),
        ),
        (
            "vehicles_per_region".to_string(),
            params.vehicles_per_region.to_string(),
        ),
        ("capacity".to_string(), params.capacity.to_string()),
        ("horizon".to_string(), params.horizon.to_string()),
        ("scale".to_string(), params.scale.to_string()),
        ("seed".to_string(), params.seed.to_string()),
    ]
}

/// True when `trace` was recorded by the sharded pipeline.
pub fn is_sharded_trace(trace: &Trace) -> bool {
    trace.meta.param("mode") == Some("sharded")
}

/// The shard count a sharded trace was recorded with.
pub fn trace_shards(trace: &Trace) -> Option<usize> {
    trace.meta.param("shards")?.parse().ok()
}

/// The sharding knobs a sharded trace was recorded with.  Traces predating
/// the top-m shortlist carry no `top_m` parameter and replay with the
/// default cap (which reproduces the old full-scan outcomes for every fleet
/// that fits under it).
pub fn trace_sharding(trace: &Trace) -> Option<ShardingConfig> {
    Some(ShardingConfig {
        handoff_band: trace.meta.param("handoff_band")?.parse().ok()?,
        rebalance: trace.meta.param("rebalance")?.parse().ok()?,
        max_migrations_per_batch: trace.meta.param("max_migrations_per_batch")?.parse().ok()?,
        top_m: trace
            .meta
            .param("top_m")
            .and_then(|raw| raw.parse().ok())
            .unwrap_or(ShardingConfig::default().top_m),
    })
}

/// Reconstructs the multi-region generation parameters from trace metadata.
pub fn multi_params_from_meta(meta: &TraceMeta) -> Option<MultiRegionParams> {
    let cities: Vec<CityProfile> = meta
        .param("cities")?
        .split(',')
        .map(city_from_name)
        .collect::<Option<Vec<_>>>()?;
    Some(MultiRegionParams {
        cities,
        requests_per_region: meta.param("requests_per_region")?.parse().ok()?,
        vehicles_per_region: meta.param("vehicles_per_region")?.parse().ok()?,
        capacity: meta.param("capacity")?.parse().ok()?,
        horizon: meta.param("horizon")?.parse().ok()?,
        scale: meta.param("scale")?.parse().ok()?,
        seed: meta.param("seed")?.parse().ok()?,
    })
}

/// Regenerates the exact multi-region workload a sharded trace was recorded
/// on.
pub fn regenerate_multi_workload(meta: &TraceMeta) -> Option<MultiRegionWorkload> {
    multi_params_from_meta(meta).map(MultiRegionWorkload::generate)
}

/// Records a sharded run: one `algo_key` dispatcher per shard over `shards`
/// vertical strips of the multi-region workload described by `params`.
/// Also returns the [`Checkpoint`]s the run's fault-plan cadence produced
/// (empty unless `config.faults.checkpoint_every > 0`).
pub fn record_sharded_run(
    params: MultiRegionParams,
    config: StructRideConfig,
    algo_key: &str,
    shards: usize,
) -> Option<(MultiRegionWorkload, Trace, Vec<Checkpoint>)> {
    // Validate the key once up front (each shard gets a fresh instance).
    let probe = dispatcher_by_name(algo_key, config)?;
    let algorithm = probe.name().to_string();
    let workload = MultiRegionWorkload::generate(params.clone());
    let regions = region_strips_for(workload.network(), shards.max(1) as u32);
    let sharding = ShardingConfig::default();
    let mut recorder = TraceRecorder::new();
    let mut checkpoints = Vec::new();
    ShardedSimulator::with_sharding(config, sharding).run_with(
        workload.network(),
        &regions,
        &workload.requests,
        workload.fresh_vehicles(),
        |_| dispatcher_by_name(algo_key, config).expect("validated dispatcher key"),
        &workload.name,
        RunHooks {
            recorder: Some(&mut recorder),
            checkpoints: Some(&mut |c| checkpoints.push(c)),
        },
    );
    let mut meta = TraceMeta::new(algorithm, &workload.name, config);
    meta.params = multi_params_to_meta(&params, shards.max(1), &sharding);
    meta.params
        .push(("dispatcher".to_string(), algo_key.to_ascii_lowercase()));
    Some((workload, recorder.into_trace(meta), checkpoints))
}

/// Re-runs the sharded pipeline a trace was recorded from and diffs the two
/// global traces ([`diff_traces`]) — sharded runs cannot be replayed through
/// a single dispatcher, so verification is an end-to-end re-run.
pub fn rerun_sharded(
    workload: &MultiRegionWorkload,
    algo_key: &str,
    trace: &Trace,
) -> Option<DriftReport> {
    dispatcher_by_name(algo_key, trace.meta.config)?;
    let shards = trace_shards(trace)?;
    // Rebuild the *recorded* sharding configuration, never the current
    // defaults — a default that drifts after recording must not turn into a
    // false replay failure.
    let sharding = trace_sharding(trace)?;
    let config = trace.meta.config;
    let regions = region_strips_for(workload.network(), shards.max(1) as u32);
    let mut recorder = TraceRecorder::new();
    ShardedSimulator::with_sharding(config, sharding).run_recorded(
        workload.network(),
        &regions,
        &workload.requests,
        workload.fresh_vehicles(),
        |_| dispatcher_by_name(algo_key, config).expect("validated dispatcher key"),
        &workload.name,
        &mut recorder,
    );
    let rerun = recorder.into_trace(trace.meta.clone());
    Some(diff_traces(trace, &rerun))
}

// ---------------------------------------------------------------------------
// Resuming checkpointed (faulted) runs
// ---------------------------------------------------------------------------

/// Compares the deterministic halves of two [`RunMetrics`] (wall-clock
/// diagnostics — `running_time`, `sp_queries`, `memory_bytes` — excluded,
/// exactly as in replay comparisons; floats by bit pattern).
fn metrics_mismatches(label: &str, resumed: &RunMetrics, reference: &RunMetrics) -> Vec<String> {
    let mut out = Vec::new();
    let mut check = |field: &str, same: bool| {
        if !same {
            out.push(format!("{label}: {field} diverged"));
        }
    };
    check("algorithm", resumed.algorithm == reference.algorithm);
    check("workload", resumed.workload == reference.workload);
    check(
        "total_requests",
        resumed.total_requests == reference.total_requests,
    );
    check(
        "served_requests",
        resumed.served_requests == reference.served_requests,
    );
    check(
        "total_travel",
        resumed.total_travel.to_bits() == reference.total_travel.to_bits(),
    );
    check(
        "unserved_direct_cost",
        resumed.unserved_direct_cost.to_bits() == reference.unserved_direct_cost.to_bits(),
    );
    check(
        "unified_cost",
        resumed.unified_cost.to_bits() == reference.unified_cost.to_bits(),
    );
    check("batches", resumed.batches == reference.batches);
    check(
        "insertion_evaluations",
        resumed.insertion_evaluations == reference.insertion_evaluations,
    );
    check(
        "groups_enumerated",
        resumed.groups_enumerated == reference.groups_enumerated,
    );
    out
}

/// Bit-compares two final fleets through [`VehicleState::capture`].
fn fleet_mismatch(resumed: &[Vehicle], reference: &[Vehicle]) -> Option<String> {
    let a: Vec<VehicleState> = resumed.iter().map(VehicleState::capture).collect();
    let b: Vec<VehicleState> = reference.iter().map(VehicleState::capture).collect();
    (a != b).then(|| "final fleet state diverged".to_string())
}

/// Resumes `checkpoint` and verifies the finished run lands bit-identically
/// on the uninterrupted reference, which is re-run in process from the
/// trace metadata (all generation is seeded, so the regenerated workload is
/// the recorded one).
///
/// Returns `None` when the trace names no (or an unknown) dispatcher or its
/// metadata fails to regenerate; otherwise `Some(mismatches)` — empty means
/// zero drift.  A checkpoint the simulator refuses to resume
/// ([`ResumeError`](structride_core::ResumeError)) is reported as a mismatch
/// too, not a panic.
pub fn resume_and_verify(trace: &Trace, checkpoint: &Checkpoint) -> Option<Vec<String>> {
    let algo_key = trace_dispatcher_key(trace)?.to_string();
    dispatcher_by_name(&algo_key, trace.meta.config)?;
    let config = trace.meta.config;
    let mut mismatches = Vec::new();
    if checkpoint.workload != trace.meta.workload {
        mismatches.push(format!(
            "checkpoint workload {:?} does not match trace workload {:?}",
            checkpoint.workload, trace.meta.workload
        ));
        return Some(mismatches);
    }
    if checkpoint.config != config {
        mismatches.push("checkpoint and trace disagree on the framework configuration".to_string());
        return Some(mismatches);
    }
    if checkpoint.sharded {
        let workload = regenerate_multi_workload(&trace.meta)?;
        let shards = trace_shards(trace)?;
        let sharding = trace_sharding(trace)?;
        let regions = region_strips_for(workload.network(), shards.max(1) as u32);
        let sim = ShardedSimulator::with_sharding(config, sharding);
        let make =
            |_: usize| dispatcher_by_name(&algo_key, config).expect("validated dispatcher key");
        let resumed = match sim.resume(
            workload.network(),
            &regions,
            &workload.requests,
            make,
            checkpoint,
        ) {
            Ok(report) => report,
            Err(e) => return Some(vec![format!("cannot resume: {e}")]),
        };
        let reference = sim.run(
            workload.network(),
            &regions,
            &workload.requests,
            workload.fresh_vehicles(),
            make,
            &workload.name,
        );
        mismatches.extend(metrics_mismatches(
            "aggregate",
            &resumed.aggregate,
            &reference.aggregate,
        ));
        for (i, (a, b)) in resumed
            .per_shard
            .iter()
            .zip(&reference.per_shard)
            .enumerate()
        {
            mismatches.extend(metrics_mismatches(&format!("shard {i}"), a, b));
        }
        if resumed.served != reference.served {
            mismatches.push("served request set diverged".to_string());
        }
        mismatches.extend(fleet_mismatch(&resumed.vehicles, &reference.vehicles));
        let counters = [
            ("handoffs", resumed.handoffs, reference.handoffs),
            ("handoff_bids", resumed.handoff_bids, reference.handoff_bids),
            ("migrations", resumed.migrations, reference.migrations),
            ("epoch_rolls", resumed.epoch_rolls, reference.epoch_rolls),
            (
                "faults_injected",
                resumed.faults_injected,
                reference.faults_injected,
            ),
            (
                "batches_degraded",
                resumed.batches_degraded,
                reference.batches_degraded,
            ),
            (
                "degraded_offered",
                resumed.degraded_offered,
                reference.degraded_offered,
            ),
            (
                "degraded_served",
                resumed.degraded_served,
                reference.degraded_served,
            ),
        ];
        for (name, a, b) in counters {
            if a != b {
                mismatches.push(format!("{name} diverged: resumed {a} vs reference {b}"));
            }
        }
    } else {
        let workload = regenerate_workload(&trace.meta)?;
        let sim = Simulator::new(config);
        // Traffic epoch state lives inside the engine, so the reference and
        // the resumed run each get a fresh one (static runs share the
        // workload's free-flow engine — its caches don't affect decisions).
        let resumed = {
            let traffic = traffic_engine(&workload, &config);
            let engine = traffic.as_ref().unwrap_or(&workload.engine);
            let mut dispatcher =
                dispatcher_by_name(&algo_key, config).expect("validated dispatcher key");
            sim.resume(engine, &workload.requests, dispatcher.as_mut(), checkpoint)
        };
        let resumed = match resumed {
            Ok(report) => report,
            Err(e) => return Some(vec![format!("cannot resume: {e}")]),
        };
        let reference = {
            let traffic = traffic_engine(&workload, &config);
            let engine = traffic.as_ref().unwrap_or(&workload.engine);
            let mut dispatcher =
                dispatcher_by_name(&algo_key, config).expect("validated dispatcher key");
            sim.run(
                engine,
                &workload.requests,
                workload.fresh_vehicles(),
                dispatcher.as_mut(),
                &workload.name,
            )
        };
        mismatches.extend(metrics_mismatches(
            "run",
            &resumed.metrics,
            &reference.metrics,
        ));
        if resumed.served != reference.served {
            mismatches.push("served request set diverged".to_string());
        }
        mismatches.extend(fleet_mismatch(&resumed.vehicles, &reference.vehicles));
    }
    Some(mismatches)
}

// ---------------------------------------------------------------------------
// Ingested traces
// ---------------------------------------------------------------------------

/// The ingest knobs the `record --ingest` / `verify --ingest` flows use:
/// compress the quickstart stream into well under a second of wall clock so
/// CI record steps stay fast.
pub fn ingest_quickstart_config(quick: bool) -> IngestConfig {
    IngestConfig {
        max_batch_size: 32,
        batch_deadline: 0.01,
        queue_capacity: 4096,
        time_scale: if quick { 240.0 } else { 120.0 },
    }
}

/// True when `trace` was recorded by the monolithic ingested pipeline.
/// Such traces *replay* exactly like clock-driven ones — the realized batch
/// boundaries are in the trace — so this marker is informational.
pub fn is_ingested_trace(trace: &Trace) -> bool {
    trace.meta.param("mode") == Some("ingested")
}

/// True when `trace` was recorded by the **sharded** ingested pipeline:
/// verification re-runs the sharded pipeline from the recorded boundaries
/// ([`rerun_sharded_ingested`]) instead of re-slicing by the batch clock.
pub fn is_sharded_ingested_trace(trace: &Trace) -> bool {
    trace.meta.param("mode") == Some("sharded-ingested")
}

/// Records an ingested run of `algo_key` on the workload described by
/// `params`, using the workload's own (fixed, regenerable) request stream as
/// the arrival source.  `config.ingest` controls the batching and is
/// serialized into the trace.
pub fn record_ingested_run(
    params: WorkloadParams,
    config: StructRideConfig,
    algo_key: &str,
) -> Option<(Workload, Trace)> {
    let mut dispatcher = dispatcher_by_name(algo_key, config)?;
    let workload = Workload::generate(params);
    let traffic = traffic_engine(&workload, &config);
    let engine = traffic.as_ref().unwrap_or(&workload.engine);
    let mut recorder = TraceRecorder::new();
    Simulator::new(config)
        .run_ingested_recorded(
            engine,
            workload.requests.iter().cloned(),
            workload.fresh_vehicles(),
            dispatcher.as_mut(),
            &workload.name,
            &mut recorder,
        )
        .expect("ingest producer replays a generated stream");
    let mut meta = TraceMeta::new(dispatcher.name(), &workload.name, config);
    meta.params = params_to_meta(&params);
    meta.params
        .push(("mode".to_string(), "ingested".to_string()));
    meta.params
        .push(("dispatcher".to_string(), algo_key.to_ascii_lowercase()));
    meta.sp_stats = Some(engine.stats());
    Some((workload, recorder.into_trace(meta)))
}

/// Records a **sharded** ingested run: realized batches routed through the
/// region grid into `shards` per-shard pipelines.
pub fn record_sharded_ingested_run(
    params: MultiRegionParams,
    config: StructRideConfig,
    algo_key: &str,
    shards: usize,
) -> Option<(MultiRegionWorkload, Trace)> {
    let probe = dispatcher_by_name(algo_key, config)?;
    let algorithm = probe.name().to_string();
    let workload = MultiRegionWorkload::generate(params.clone());
    let regions = region_strips_for(workload.network(), shards.max(1) as u32);
    let sharding = ShardingConfig::default();
    let mut recorder = TraceRecorder::new();
    ShardedSimulator::with_sharding(config, sharding)
        .run_ingested_recorded(
            workload.network(),
            &regions,
            workload.requests.iter().cloned(),
            workload.fresh_vehicles(),
            |_| dispatcher_by_name(algo_key, config).expect("validated dispatcher key"),
            &workload.name,
            &mut recorder,
        )
        .expect("ingest producer replays a generated stream");
    let mut meta = TraceMeta::new(algorithm, &workload.name, config);
    meta.params = multi_params_to_meta(&params, shards.max(1), &sharding);
    // multi_params_to_meta marks mode=sharded; this trace needs the
    // boundary-fed re-run path instead.
    for (key, value) in meta.params.iter_mut() {
        if key == "mode" {
            *value = "sharded-ingested".to_string();
        }
    }
    meta.params
        .push(("dispatcher".to_string(), algo_key.to_ascii_lowercase()));
    Some((workload, recorder.into_trace(meta)))
}

/// Re-runs the sharded pipeline from the *recorded* realized batch
/// boundaries of an ingested trace and diffs the two global traces.  The
/// boundaries are the nondeterministic part; given them, the pipeline must
/// be bit-identical under any worker count.
pub fn rerun_sharded_ingested(
    workload: &MultiRegionWorkload,
    algo_key: &str,
    trace: &Trace,
) -> Option<DriftReport> {
    dispatcher_by_name(algo_key, trace.meta.config)?;
    let shards = trace_shards(trace)?;
    let config = trace.meta.config;
    let regions = region_strips_for(workload.network(), shards.max(1) as u32);
    let boundaries: Vec<(f64, Vec<Request>)> = trace
        .batches
        .iter()
        .map(|b| (b.now, b.requests.clone()))
        .collect();
    let mut recorder = TraceRecorder::new();
    ShardedSimulator::with_sharding(config, trace_sharding(trace)?).run_fed_recorded(
        workload.network(),
        &regions,
        &boundaries,
        workload.fresh_vehicles(),
        |_| dispatcher_by_name(algo_key, config).expect("validated dispatcher key"),
        &workload.name,
        &mut recorder,
    );
    let rerun = recorder.into_trace(trace.meta.clone());
    Some(diff_traces(trace, &rerun))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_builds_a_dispatcher() {
        let config = StructRideConfig::default();
        let keys = dispatcher_keys();
        for key in &keys {
            assert!(dispatcher_by_name(key, config).is_some(), "{key}");
        }
        // The registry carries the exact dispatcher, and mixed case and the
        // legacy alias still resolve.
        assert!(keys.contains(&"assign"));
        assert!(dispatcher_by_name("SARD", config).is_some());
        assert!(dispatcher_by_name("gdp", config).is_some());
        assert!(dispatcher_by_name("nope", config).is_none());
        for key in TRAFFIC_KEYS {
            let traffic = traffic_by_name(key, 120.0).expect(key);
            assert!(!traffic.is_static(), "{key}");
        }
        assert!(traffic_by_name("gridlock", 120.0).is_none());
        // Deterministic keys are a strict subset excluding ticket.
        let deterministic = deterministic_keys();
        assert!(deterministic.iter().all(|k| keys.contains(k)));
        assert!(!deterministic.contains(&"ticket"));
        assert!(deterministic.contains(&"assign"));
    }

    #[test]
    fn workload_params_roundtrip_through_meta() {
        let params = quickstart_params(true);
        let mut meta = TraceMeta::new("SARD", "w", StructRideConfig::default());
        meta.params = params_to_meta(&params);
        assert_eq!(params_from_meta(&meta), Some(params));
    }

    #[test]
    fn multi_region_params_roundtrip_through_meta() {
        let params = sharded_quickstart_params(true);
        let sharding = ShardingConfig {
            handoff_band: 312.5,
            rebalance: false,
            max_migrations_per_batch: 7,
            top_m: 9,
        };
        let mut meta = TraceMeta::new("SARD", "w", StructRideConfig::default());
        meta.params = multi_params_to_meta(&params, 2, &sharding);
        assert_eq!(multi_params_from_meta(&meta), Some(params));
        let trace = Trace {
            meta,
            batches: Vec::new(),
        };
        assert!(is_sharded_trace(&trace));
        assert_eq!(trace_shards(&trace), Some(2));
        // The sharding knobs round-trip too — replay rebuilds the recorded
        // pipeline, not the current defaults.
        assert_eq!(trace_sharding(&trace), Some(sharding));
        // Legacy traces (recorded before the top-m shortlist) have no top_m
        // parameter and must fall back to the default cap, not fail.
        let mut legacy = trace;
        legacy.meta.params.retain(|(k, _)| k != "top_m");
        assert_eq!(
            trace_sharding(&legacy).map(|s| s.top_m),
            Some(ShardingConfig::default().top_m)
        );
    }

    #[test]
    fn regenerated_multi_workload_is_identical() {
        let params = sharded_quickstart_params(true);
        let original = MultiRegionWorkload::generate(params.clone());
        let mut meta = TraceMeta::new("SARD", &original.name, StructRideConfig::default());
        meta.params = multi_params_to_meta(&params, 2, &ShardingConfig::default());
        let regenerated = regenerate_multi_workload(&meta).expect("params round-trip");
        assert_eq!(regenerated.requests, original.requests);
        assert_eq!(regenerated.name, original.name);
    }

    #[test]
    fn ingested_record_replays_clean_through_the_standard_path() {
        let config = StructRideConfig::default().with_ingest(ingest_quickstart_config(true));
        let (workload, trace) =
            record_ingested_run(quickstart_params(true), config, "prunegdp").expect("record");
        assert!(is_ingested_trace(&trace));
        assert!(!is_sharded_trace(&trace));
        assert!(!trace.batches.is_empty());
        // The realized boundaries are in the trace, so the ordinary replay
        // path verifies an ingested recording unchanged.
        let report = replay_run(&workload, "prunegdp", &trace).expect("replay");
        assert!(report.is_clean(), "{report}");
        // The ingest knobs round-trip through the trace text.
        let parsed = Trace::parse(&trace.to_text()).expect("parse");
        assert_eq!(parsed.meta.config.ingest, config.ingest);
        // A regenerated workload replays the same trace clean too (the
        // cross-process flow).
        let regenerated = regenerate_workload(&trace.meta).expect("regenerate");
        let report = replay_run(&regenerated, "prunegdp", &trace).expect("replay");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn sharded_ingested_rerun_is_clean_and_flags_a_different_dispatcher() {
        let config = StructRideConfig::default().with_ingest(ingest_quickstart_config(true));
        let (workload, trace) =
            record_sharded_ingested_run(sharded_quickstart_params(true), config, "prunegdp", 2)
                .expect("record");
        assert!(is_sharded_ingested_trace(&trace));
        assert!(!is_sharded_trace(&trace));
        assert!(!trace.batches.is_empty());
        let report = rerun_sharded_ingested(&workload, "prunegdp", &trace).expect("rerun");
        assert!(report.is_clean(), "{report}");
        let drift = rerun_sharded_ingested(&workload, "gas", &trace).expect("rerun");
        assert!(!drift.is_clean(), "a different dispatcher must drift");
    }

    #[test]
    fn traffic_record_and_replay_are_clean_across_regenerated_workloads() {
        let traffic = structride_datagen::rush_hour(30.0, 15.0);
        let config = StructRideConfig::default().with_traffic(traffic);
        let (workload, trace, _) =
            record_run(quickstart_params(true), config, "sard").expect("record");
        assert_eq!(trace.meta.config.traffic, traffic);
        let report = replay_run(&workload, "sard", &trace).expect("replay");
        assert!(report.is_clean(), "{report}");
        // Cross-process flow: the v3 text round-trips the traffic model and
        // a regenerated workload replays the parsed trace clean.
        let parsed = Trace::parse(&trace.to_text()).expect("parse");
        assert_eq!(parsed.meta.config.traffic, traffic);
        let regenerated = regenerate_workload(&parsed.meta).expect("regenerate");
        let report = replay_run(&regenerated, "sard", &parsed).expect("replay");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn sharded_traffic_record_reruns_clean() {
        let traffic = structride_datagen::rush_hour(30.0, 15.0);
        let config = StructRideConfig::default().with_traffic(traffic);
        let (workload, trace, checkpoints) =
            record_sharded_run(sharded_quickstart_params(true), config, "sard", 3).expect("record");
        assert!(checkpoints.is_empty(), "no cadence, no checkpoints");
        let report = rerun_sharded(&workload, "sard", &trace).expect("rerun");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn chaos_checkpointed_sharded_record_reruns_clean_and_resumes_clean() {
        let traffic = structride_datagen::rush_hour(30.0, 15.0);
        let config = StructRideConfig::default()
            .with_traffic(traffic)
            .with_faults(structride_core::FaultConfig::chaos());
        let (workload, trace, checkpoints) =
            record_sharded_run(sharded_quickstart_params(true), config, "sard", 3).expect("record");
        assert!(!checkpoints.is_empty(), "the chaos cadence must fire");
        assert!(checkpoints.iter().all(|c| c.sharded));
        // The faulted trace replays clean (the fault schedule re-derives
        // from the config serialized into the trace).
        let report = rerun_sharded(&workload, "sard", &trace).expect("rerun");
        assert!(report.is_clean(), "{report}");
        // A run resumed from the text-round-tripped mid-run checkpoint
        // finishes bit-identically to the uninterrupted reference.
        let picked = &checkpoints[checkpoints.len() / 2];
        let reparsed = Checkpoint::parse(&picked.to_text()).expect("checkpoint codec");
        let mismatches = resume_and_verify(&trace, &reparsed).expect("resume");
        assert!(mismatches.is_empty(), "{mismatches:?}");
        // A checkpoint from some other run is rejected loudly, not resumed.
        let mut bogus = reparsed;
        bogus.workload = "other-workload".to_string();
        let mismatches = resume_and_verify(&trace, &bogus).expect("resume");
        assert!(!mismatches.is_empty());
    }

    #[test]
    fn chaos_checkpointed_monolithic_record_resumes_clean() {
        // `assign` so the chaos solver node budget actually gates the exact
        // solver on the resumed half too.
        let config = StructRideConfig::default().with_faults(structride_core::FaultConfig::chaos());
        let (workload, trace, checkpoints) =
            record_run(quickstart_params(true), config, "assign").expect("record");
        assert!(!checkpoints.is_empty(), "the chaos cadence must fire");
        assert!(checkpoints.iter().all(|c| !c.sharded));
        let report = replay_run(&workload, "assign", &trace).expect("replay");
        assert!(report.is_clean(), "{report}");
        let mismatches = resume_and_verify(&trace, &checkpoints[0]).expect("resume");
        assert!(mismatches.is_empty(), "{mismatches:?}");
    }

    #[test]
    fn regenerated_workload_is_identical() {
        let params = quickstart_params(true);
        let original = Workload::generate(params);
        let mut meta = TraceMeta::new("SARD", &original.name, StructRideConfig::default());
        meta.params = params_to_meta(&params);
        let regenerated = regenerate_workload(&meta).expect("params round-trip");
        assert_eq!(regenerated.requests, original.requests);
        assert_eq!(regenerated.vehicles.len(), original.vehicles.len());
        assert_eq!(regenerated.name, original.name);
    }
}
