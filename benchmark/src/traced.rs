//! The traced run: one run per workload through the tracing probe — root
//! span `run`, child `setup`, one `core.dispatch` span per `dispatch_batch`
//! call with the layer counters read at that boundary — followed by the layer
//! kernels on the captured batches and two extra phases (one-shard tax,
//! record/replay).  Every per-layer number comes from here; end-to-end
//! numbers never do.

use crate::checks::{audit, stranded_requests};
use crate::kernels::{run_capture_kernels, run_roadnet_kernels, KernelTimes};
use crate::metrics::{MetricTable, MetricValue, PER_LAYER};
use crate::probe::Probe;
use crate::span::SpanLog;
use crate::stats::{mean, median, percentile, sorted};
use crate::timed::{analyse, day_seed, Repeat};
use crate::workloads::{
    build_engine, generate, live_threads, run_once, wait_for_quiescence, Drive, Inputs, RunOutput,
    WorkloadSpec,
};
use std::time::Instant;
use structride_baselines::standard_registry;
use structride_core::shard::region_grid_for;
use structride_core::{replay_trace, DispatcherKind, Simulator, Trace, TraceMeta, TraceRecorder};
use structride_model::RequestId;
use structride_roadnet::SpEngine;

/// Batches whose dispatcher inputs the traced run clones for the kernels.
const CAPTURES: usize = 16;

/// Share of the workload the record/replay phase runs on.
const REPLAY_SHARE: f64 = 0.3;

/// What the traced run of one workload found.
pub struct TracedResult {
    /// The per-layer metrics, in `PER_LAYER` order.
    pub table: MetricTable,
    /// Diagnostics that exist on some workloads only, or describe the traced
    /// run itself; printed and written to the trace file, not part of
    /// `BENCHMARK.json`.
    pub extras: MetricTable,
    pub spans: SpanLog,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
}

/// One clock-driven monolithic run of `requests` on `engine`, as
/// `(busy seconds, served ids, unified cost bits)`.
fn clock_run(
    spec: &WorkloadSpec,
    inputs: &Inputs,
    engine: &SpEngine,
) -> (f64, Vec<RequestId>, u64) {
    let clock = WorkloadSpec {
        drive: Drive::Clock,
        ..spec.clone()
    };
    let out = run_once(&clock, inputs, engine, &Probe::timed());
    let repeat = analyse(&clock, inputs, &out);
    (
        repeat.busy_s,
        out.served,
        out.metrics.unified_cost.to_bits(),
    )
}

/// The one-shard tax: the same inputs through `ShardedSimulator::run` on a
/// 1×1 grid against `Simulator::run`, set-up excluded on both sides, in
/// percent.  The two must serve the same requests at the same unified cost.
fn one_shard_tax(
    spec: &WorkloadSpec,
    inputs: &Inputs,
    engine: &SpEngine,
    mono: (f64, Vec<RequestId>, u64),
    baseline: usize,
    failures: &mut Vec<String>,
) -> f64 {
    let single = WorkloadSpec {
        drive: Drive::Sharded,
        ..spec.clone()
    };
    let one_region = Inputs {
        network: inputs.network.clone(),
        requests: inputs.requests.clone(),
        vehicles: inputs.vehicles.clone(),
        config: inputs.config,
        regions: region_grid_for(&inputs.network, 1, 1),
        generate_s: 0.0,
    };
    wait_for_quiescence(baseline);
    // The sharded drive ignores the engine argument beyond a cache clear.
    let out = run_once(&single, &one_region, engine, &Probe::timed());
    let sharded = analyse(&single, &one_region, &out);
    if out.served != mono.1 || out.metrics.unified_cost.to_bits() != mono.2 {
        failures.push(format!(
            "{}: one shard served {} requests at cost {}, the monolithic run {} at {}",
            spec.name,
            out.served.len(),
            out.metrics.unified_cost,
            mono.1.len(),
            f64::from_bits(mono.2)
        ));
    }
    (sharded.busy_s / mono.0.max(1e-9) - 1.0) * 100.0
}

/// Record/replay on the first [`REPLAY_SHARE`] of the workload: recording
/// overhead, codec throughput, and a drift-free replay of the parsed trace.
struct ReplayPhase {
    record_overhead_pct: f64,
    encode_mb_s: f64,
    parse_mb_s: f64,
    trace_bytes: usize,
}

fn replay_phase(
    spec: &WorkloadSpec,
    inputs: &Inputs,
    engine: &SpEngine,
    failures: &mut Vec<String>,
) -> ReplayPhase {
    let registry = standard_registry();
    let config = inputs.config;
    let take = |n: usize| ((n as f64 * REPLAY_SHARE) as usize).max(1);
    let requests = &inputs.requests[..take(inputs.requests.len()).min(inputs.requests.len())];
    let fleet = &inputs.vehicles[..take(inputs.vehicles.len()).min(inputs.vehicles.len())];
    let build = || {
        registry
            .build(spec.algo, &config)
            .expect("sard and assign are registered")
    };
    let simulator = Simulator::new(config);

    engine.clear_cache();
    let mut plain = build();
    let t0 = Instant::now();
    let reference = simulator.run(engine, requests, fleet.to_vec(), plain.as_mut(), spec.name);
    let plain_s = t0.elapsed().as_secs_f64();

    engine.clear_cache();
    let mut recorded = build();
    let mut recorder = TraceRecorder::new();
    let t0 = Instant::now();
    let report = simulator.run_recorded(
        engine,
        requests,
        fleet.to_vec(),
        recorded.as_mut(),
        spec.name,
        &mut recorder,
    );
    let recorded_s = t0.elapsed().as_secs_f64();
    if report.served != reference.served {
        failures.push(format!("{}: recording changed the served set", spec.name));
    }

    let trace = recorder.into_trace(TraceMeta::new(recorded.name(), spec.name, config));
    let t0 = Instant::now();
    let text = trace.to_text();
    let encode_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let parsed = Trace::parse(&text);
    let parse_s = t0.elapsed().as_secs_f64();
    match parsed {
        Ok(parsed) => {
            let drift = replay_trace(engine, build().as_mut(), &parsed);
            if !drift.is_clean() {
                failures.push(format!(
                    "{}: the recorded trace replays with drift",
                    spec.name
                ));
            }
        }
        Err(e) => failures.push(format!(
            "{}: the rendered trace does not parse: {e:?}",
            spec.name
        )),
    }
    let mb = text.len() as f64 / 1e6;
    ReplayPhase {
        record_overhead_pct: (recorded_s / plain_s.max(1e-9) - 1.0) * 100.0,
        encode_mb_s: mb / encode_s.max(1e-9),
        parse_mb_s: mb / parse_s.max(1e-9),
        trace_bytes: text.len(),
    }
}

/// Records the spans of the traced run: `run` (root), `setup`, and one
/// `core.dispatch` per call carrying the counters read at its boundary.  The
/// sharded drive sets up inside the run call, so there `setup` is a child of
/// `run`; the monolithic drives build their engine beforehand, so there it is
/// a root of its own.
fn record_run_spans(
    spans: &mut SpanLog,
    setup: Option<(Instant, Instant)>,
    out: &RunOutput,
    repeat: &Repeat,
) -> usize {
    let run = spans.push(None, "run", out.entry, out.exit, Vec::new());
    match setup {
        Some((start, end)) => spans.push(None, "setup", start, end, Vec::new()),
        None => {
            let end = out.entry + std::time::Duration::from_secs_f64(repeat.lead_in_s);
            spans.push(Some(run), "setup", out.entry, end, Vec::new())
        }
    };
    for c in &out.log.calls {
        let mut attrs = vec![
            ("shard".to_string(), c.shard as f64),
            ("batch_index".to_string(), c.batch_index as f64),
            ("now".to_string(), c.now),
            ("new_requests".to_string(), c.new_requests as f64),
            ("pending".to_string(), c.pending_before as f64),
            ("assigned".to_string(), c.assigned as f64),
        ];
        if let Some(b) = &c.boundary {
            attrs.extend([
                ("epoch".to_string(), b.epoch as f64),
                ("sp_queries".to_string(), b.sp.total_queries as f64),
                ("sp_cache_hits".to_string(), b.sp.cache_hits as f64),
                ("sp_index_queries".to_string(), b.sp.index_queries as f64),
                (
                    "insertion_evals".to_string(),
                    b.scratch.insertion_evaluations as f64,
                ),
                ("groups".to_string(), b.scratch.groups_enumerated as f64),
                (
                    "prescreen_pruned".to_string(),
                    b.scratch.prescreen_pruned as f64,
                ),
            ]);
            if let Some(s) = &b.solver {
                attrs.extend([
                    ("lap_rows".to_string(), s.rows as f64),
                    ("lap_cols".to_string(), s.cols as f64),
                    ("lap_rounds".to_string(), s.rounds as f64),
                ]);
            }
        }
        spans.push(Some(run), "core.dispatch", c.entry, c.exit, attrs);
    }
    run
}

/// Sums of the boundary counters over the traced run's dispatch calls.
#[derive(Default)]
struct BoundarySums {
    sp_total: u64,
    sp_hits: u64,
    insertion_evals: u64,
    groups: u64,
    prescreen_pruned: u64,
    lap_rounds: u64,
    lap_fallbacks: u64,
    /// Requests the candidate stages visited: pool + arrivals per call, once
    /// per solver round on the assignment dispatcher.
    pooled: u64,
    pending: u64,
}

fn boundary_sums(out: &RunOutput) -> BoundarySums {
    let mut s = BoundarySums::default();
    for c in &out.log.calls {
        let Some(b) = &c.boundary else { continue };
        s.sp_total += b.sp.total_queries;
        s.sp_hits += b.sp.cache_hits;
        s.insertion_evals += b.scratch.insertion_evaluations;
        s.groups += b.scratch.groups_enumerated;
        s.prescreen_pruned += b.scratch.prescreen_pruned;
        let rounds = b.solver.map_or(0, |st| u64::from(st.rounds));
        s.lap_rounds += rounds;
        s.lap_fallbacks += b.solver.map_or(0, |st| st.fallbacks);
        s.pooled += (c.pending_before + c.new_requests) as u64 * rounds.max(1);
        s.pending += c.pending_before as u64;
    }
    s
}

/// The share of dispatch wall each kernel explains, in percent: its per-call
/// time × the count taken at the boundary, the par-mapped stages credited
/// with ideal speed-up over `threads`, against the wall the dispatch spans
/// cover.  What is left over (100 − Σ) is an upper bound on what only stage
/// timers inside the program can resolve; it is negative when the kernels
/// over-explain (they run colder than the same code inside a run).
fn attribution(
    spec: &WorkloadSpec,
    k: &KernelTimes,
    sums: &BoundarySums,
    calls: usize,
    dispatch_wall_s: f64,
    threads: usize,
) -> Vec<(&'static str, f64)> {
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    let pairs_per_pooled = per(k.m2m.n as f64, k.pooled);
    let grouping_ns_per_group = per(k.grouping.total.as_nanos() as f64, k.groups);
    let sard = spec.algo == DispatcherKind::Sard;
    let parallel = 1.0 / threads.max(1) as f64;
    let stages_ns = [
        (
            "core.prescreen",
            k.prescreen.ns() * sums.pooled as f64 * parallel,
        ),
        (
            "roadnet.many_to_many",
            k.m2m.ns() * pairs_per_pooled * sums.pooled as f64 * parallel,
        ),
        (
            "model.insert_request",
            k.insert.ns() * sums.insertion_evals as f64 * parallel,
        ),
        (
            "core.grouping",
            grouping_ns_per_group * sums.groups as f64 * parallel,
        ),
        (
            "sharegraph.add_batch",
            if sard {
                k.sharegraph.ns() * calls as f64 * parallel
            } else {
                0.0
            },
        ),
        ("core.lap", k.lap.ns() * sums.lap_rounds as f64),
    ];
    let wall_ns = dispatch_wall_s.max(1e-9) * 1e9;
    stages_ns
        .into_iter()
        .map(|(stage, ns)| (stage, ns / wall_ns * 100.0))
        .collect()
}

/// Runs the traced measurement of `spec`.
pub fn run_traced(spec: &WorkloadSpec, seed: u64, threads: usize) -> TracedResult {
    let baseline = live_threads();
    let origin = Instant::now();
    let mut spans = SpanLog::new(origin);
    let mut failures = Vec::new();
    let network = spec.network();
    let config = spec.config();
    let sharded = spec.drive == Drive::Sharded;
    let engine_config = if sharded { Default::default() } else { config };
    let setup_start = Instant::now();
    let engine = build_engine(&network, &engine_config);
    let setup = (!sharded).then(|| (setup_start, Instant::now()));
    // Day 0 of the seed, the day the timed run warms up on.
    let inputs = generate(spec, day_seed(seed, 0), &engine);

    // Untraced reference runs on both sides of the traced one (the first is
    // a warm-up) give the wall the traced run is compared with.
    let run_reference = |failures: &mut Vec<String>| {
        wait_for_quiescence(baseline);
        let out = run_once(spec, &inputs, &engine, &Probe::timed());
        failures.extend(audit(spec, &inputs, &out).failures);
        let repeat = analyse(spec, &inputs, &out);
        (repeat, out.served, out.metrics.unified_cost.to_bits())
    };
    run_reference(&mut failures);
    let (before, served, cost_bits) = run_reference(&mut failures);
    wait_for_quiescence(baseline);
    let probe = Probe::traced(before.batches, CAPTURES);
    let mut out = run_once(spec, &inputs, &engine, &probe);
    let verdict = audit(spec, &inputs, &out);
    failures.extend(verdict.failures);
    if spec.deterministic()
        && (out.served != served || out.metrics.unified_cost.to_bits() != cost_bits)
    {
        failures.push(format!(
            "{}: tracing changed the run's decisions",
            spec.name
        ));
    }
    let traced = analyse(spec, &inputs, &out);
    let after = run_reference(&mut failures).0;
    let reference_wall = median(&[before.wall_s, after.wall_s]);
    let reference_busy = median(&[before.busy_s, after.busy_s]);

    let run_span = record_run_spans(&mut spans, setup, &out, &traced);
    let sums = boundary_sums(&out);

    // Layer kernels, each its own span under `kernels`.
    let kernels_start = Instant::now();
    let kernels_span = spans.push(None, "kernels", kernels_start, kernels_start, Vec::new());
    let roadnet = run_roadnet_kernels(&network, spec.horizon, baseline, &mut spans, kernels_span);
    // Monolithic phases of the sharded workload run on the rolled traffic
    // engine (same traffic model, every epoch artifact already memoized).
    let mono_engine = if sharded { &roadnet.engine } else { &engine };
    let mut captures = std::mem::take(&mut out.log.captures);
    captures.sort_by_key(|c| (c.batch_index, c.shard));
    let k = run_capture_kernels(&config, mono_engine, &captures, &mut spans, kernels_span);

    // One-shard tax and record/replay, on monolithic clock-driven runs.
    let phase_start = Instant::now();
    let mono = match spec.drive {
        Drive::Clock => (reference_busy, served, cost_bits),
        // Against a sharded run that builds its epoch store from scratch,
        // the monolithic side gets a fresh traffic engine too — not the
        // kernel engine, whose epochs are all memoized by now.
        Drive::Sharded => clock_run(spec, &inputs, &build_engine(&network, &config)),
        Drive::Ingest(_) => clock_run(spec, &inputs, mono_engine),
    };
    let tax_pct = one_shard_tax(spec, &inputs, mono_engine, mono, baseline, &mut failures);
    spans.push(
        Some(kernels_span),
        "shard.one_shard_tax",
        phase_start,
        Instant::now(),
        Vec::new(),
    );
    let phase_start = Instant::now();
    let replay = replay_phase(spec, &inputs, mono_engine, &mut failures);
    spans.push(
        Some(kernels_span),
        "replay.record_replay",
        phase_start,
        Instant::now(),
        Vec::new(),
    );
    spans.spans[kernels_span].end_ns = spans.ns(Instant::now());

    let attributed = attribution(
        spec,
        &k,
        &sums,
        out.log.calls.len(),
        traced.dispatch_wall_s,
        threads,
    );
    let p = |samples: &[f64], q: f64| percentile(&sorted(samples.to_vec()), q);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let ingest = out.ingest.as_ref();
    let arrivals: usize = out.log.calls.iter().map(|c| c.new_requests).sum();
    let values: Vec<(&str, f64)> = vec![
        ("roadnet.label_build_s", roadnet.label_build_s),
        ("roadnet.label_bytes", roadnet.label_bytes as f64),
        ("roadnet.sp_queries", sums.sp_total as f64),
        (
            "roadnet.cache_hit_ratio",
            ratio(sums.sp_hits, sums.sp_total),
        ),
        ("roadnet.sp_cold_ns", k.sp_cold.ns()),
        ("roadnet.sp_warm_ns", k.sp_warm.ns()),
        ("roadnet.m2m_ns_per_pair", k.m2m.ns()),
        ("roadnet.epoch_rolls", out.shard.epoch_rolls as f64),
        ("roadnet.epoch_roll_ms_p50", roadnet.roll_ms_p50),
        ("roadnet.epoch_roll_ms_max", roadnet.roll_ms_max),
        ("roadnet.prebuild_s", roadnet.prebuild_s),
        (
            "roadnet.label_refresh_pct",
            out.shard.label_refresh_s / traced.busy_s.max(1e-9) * 100.0,
        ),
        ("roadnet.labels_rescaled", out.shard.labels_rescaled as f64),
        ("roadnet.labels_rebuilt", out.shard.labels_rebuilt as f64),
        (
            "roadnet.shards_refreshed",
            out.shard.shards_refreshed as f64,
        ),
        (
            "roadnet.sp_fallback_queries",
            out.shard.sp_fallback_queries as f64,
        ),
        ("spatial.range_query_ns", k.range_query.ns()),
        ("spatial.relocate_ns", k.relocate.ns()),
        ("model.insert_ns", k.insert.ns()),
        ("model.advance_ms", k.advance.ms()),
        ("sharegraph.build_ms_per_batch", k.sharegraph.ms()),
        (
            "sharegraph.candidate_pairs",
            ratio(k.candidate_pairs, k.captures),
        ),
        (
            "sharegraph.angle_pruned_ratio",
            ratio(k.angle_pruned, k.candidate_pairs),
        ),
        (
            "sharegraph.checks_per_edge",
            ratio(k.shareability_checks, k.edges_added),
        ),
        ("core.dispatch_ms_p50", p(&traced.dispatch_ms, 0.50)),
        ("core.dispatch_ms_p95", p(&traced.dispatch_ms, 0.95)),
        (
            "core.dispatch_share",
            traced.dispatch_wall_s / traced.busy_s.max(1e-9),
        ),
        ("core.sim_self_s", spans.self_ns(run_span) as f64 / 1e9),
        ("core.insertion_evals", sums.insertion_evals as f64),
        ("core.groups_enumerated", sums.groups as f64),
        (
            "core.prescreen_pruned_ratio",
            ratio(
                sums.prescreen_pruned,
                sums.prescreen_pruned + sums.insertion_evals,
            ),
        ),
        (
            "core.pending_mean",
            ratio(sums.pending, traced.batches as u64),
        ),
        ("core.fleet_sync_ms", k.fleet_sync.ms()),
        ("core.prescreen_ns", k.prescreen.ns()),
        ("core.grouping_ms_per_vehicle", k.grouping.ms()),
        ("core.lap_ms_per_solve", k.lap.ms()),
        ("core.lap_fallbacks", sums.lap_fallbacks as f64),
        (
            "core.dispatch_unattributed_pct",
            100.0 - attributed.iter().map(|(_, pct)| pct).sum::<f64>(),
        ),
        ("shard.handoffs", out.shard.handoffs as f64),
        ("shard.handoff_bids", out.shard.handoff_bids as f64),
        ("shard.migrations", out.shard.migrations as f64),
        ("shard.imbalance", traced.imbalance),
        ("shard.one_shard_tax_pct", tax_pct),
        (
            "ingest.batches",
            ingest.map_or(traced.batches, |i| i.batches) as f64,
        ),
        (
            "ingest.mean_batch",
            ingest.map_or(ratio(arrivals as u64, traced.batches as u64), |i| {
                i.mean_batch_size
            }),
        ),
        (
            "ingest.queue_mean",
            ingest.map_or(0.0, |i| i.mean_queue_depth),
        ),
        (
            "ingest.queue_max",
            ingest.map_or(0, |i| i.max_queue_depth) as f64,
        ),
        ("ingest.dispatch_ms_p50", p(&traced.dispatch_ms, 0.50)),
        ("ingest.wait_ms_p50", p(&traced.gap_ms, 0.50)),
        ("ingest.e2e_ms_p99", p(&traced.e2e_ms, 0.99)),
        ("replay.encode_mb_s", replay.encode_mb_s),
        ("replay.parse_mb_s", replay.parse_mb_s),
        ("replay.trace_bytes", replay.trace_bytes as f64),
        ("replay.record_overhead_pct", replay.record_overhead_pct),
        ("datagen.generate_s", inputs.generate_s),
        (
            "trace_overhead_pct",
            (traced.wall_s / reference_wall.max(1e-9) - 1.0) * 100.0,
        ),
    ];
    let table: MetricTable = PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("per-layer metric {name} is not measured"))
                .1;
            (name.to_string(), MetricValue::single(value, unit))
        })
        .collect();

    // How late the arrival generator ran: request i was sent no later than
    // the pull of request i + 1, compared with when it was due.
    let gen_late_ms: Vec<f64> = match spec.drive {
        Drive::Ingest(cfg) => inputs
            .requests
            .iter()
            .zip(out.pulls.iter().skip(1))
            .map(|(r, pulled)| {
                let due =
                    out.entry + std::time::Duration::from_secs_f64(r.release / cfg.time_scale);
                pulled.saturating_duration_since(due).as_secs_f64() * 1e3
            })
            .collect(),
        _ => Vec::new(),
    };
    let extra =
        |name: &str, value: f64, unit: &str| (name.to_string(), MetricValue::single(value, unit));
    let mut extras: MetricTable = attributed
        .iter()
        .map(|(stage, pct)| extra(&format!("dispatch_share.{stage}"), *pct, "%"))
        .collect();
    extras.extend([
        extra("roadnet.label_refresh_s", out.shard.label_refresh_s, "s"),
        extra("ingest.gen_late_ms_p99", p(&gen_late_ms, 0.99), "ms"),
        extra(
            "ingest.batch_latency_p50_ms",
            ingest.map_or(0.0, |i| i.batch_latency_p50_ms),
            "ms",
        ),
        extra(
            "ingest.batch_latency_p99_ms",
            ingest.map_or(0.0, |i| i.batch_latency_p99_ms),
            "ms",
        ),
        extra(
            "model.stranded_requests",
            stranded_requests(&out.vehicles) as f64,
            "count",
        ),
        extra(
            "traced.probe_self_pct",
            out.log.probe_self.as_secs_f64() / traced.wall_s.max(1e-9) * 100.0,
            "%",
        ),
        extra("traced.throughput_rps", traced.throughput_rps, "1/s"),
        extra(
            "traced.reference_throughput_rps",
            mean(&[before.throughput_rps, after.throughput_rps]),
            "1/s",
        ),
        extra("traced.batches", traced.batches as f64, "count"),
        extra("traced.captures", captures.len() as f64, "count"),
        extra(
            "traced.touched_vehicles",
            out.log.touched_vehicles as f64,
            "count",
        ),
        extra("traced.spans", spans.spans.len() as f64, "count"),
        extra("threads", threads as f64, "count"),
    ]);
    TracedResult {
        table,
        extras,
        spans,
        attempted: inputs.requests.len(),
        failed: verdict.failed_ops,
        failures,
    }
}
