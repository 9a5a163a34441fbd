//! The timed run: set-up samples, one discarded warm-up repeat, then one
//! timed repeat per day of the measuring window, all without tracing.  Every
//! end-to-end number comes from here.

use crate::checks::{audit, repeats_agree};
use crate::metrics::{MetricTable, MetricValue};
use crate::probe::Probe;
use crate::span::{batch_intervals_ms, batch_starts, union_ns};
use crate::stats::{median, percentile, sorted, supports_percentile};
use crate::workloads::{
    build_engine, generate, live_threads, peak_rss_mb, run_once, wait_for_quiescence, Drive,
    Inputs, RunOutput, WorkloadSpec,
};
use std::time::{Duration, Instant};
use structride_datagen::derive_region_seed;

/// Set-up samples per run on the monolithic drives (the sharded drive sets up
/// inside every repeat and so yields one sample per repeat).
const SETUP_SAMPLES: usize = 3;

/// The user-visible quantities of one repeat.
#[derive(Debug, Clone, Default)]
pub struct Repeat {
    /// Run entry → first `dispatch_batch` entry (the sharded drive's set-up).
    pub lead_in_s: f64,
    /// Run entry → return.
    pub wall_s: f64,
    /// First `dispatch_batch` entry → return: the run without its set-up.
    pub busy_s: f64,
    /// Requests offered ÷ `busy_s`.
    pub throughput_rps: f64,
    /// Intervals between consecutive batch starts.
    pub batch_ms: Vec<f64>,
    /// Per batch of `batch_ms`: the wall its dispatch calls covered, and the
    /// rest of the interval (advance sweep, index sync, routing, epoch roll,
    /// and on the open loop the wait for arrivals).
    pub dispatch_ms: Vec<f64>,
    pub gap_ms: Vec<f64>,
    /// Wall covered by dispatch calls over the whole run, seconds.
    pub dispatch_wall_s: f64,
    /// Mean over batches of the slowest shard's dispatch span ÷ the mean
    /// shard's (1 for a single dispatcher).
    pub imbalance: f64,
    /// Arrival → pickup commitment of every served request.
    pub e2e_ms: Vec<f64>,
    pub service_rate: f64,
    pub unified_cost: f64,
    pub batches: usize,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Derives the user-visible quantities of one repeat from its stamps.
pub fn analyse(spec: &WorkloadSpec, inputs: &Inputs, out: &RunOutput) -> Repeat {
    let ns = |t: Instant| t.saturating_duration_since(out.entry).as_nanos() as u64;
    let calls = &out.log.calls;
    // Open loop: only the ingest phase is paced by arrivals; the carried-over
    // tail after the stream ends runs back to back and would mix a second
    // regime into the cadence distribution.
    let paced = match spec.drive {
        Drive::Ingest(_) => calls
            .iter()
            .rposition(|c| c.new_requests > 0)
            .map_or(0, |i| i + 1),
        _ => calls.len(),
    };
    let stamps: Vec<(f64, u64)> = calls[..paced]
        .iter()
        .map(|c| (c.now, ns(c.entry)))
        .collect();
    let starts = batch_starts(&stamps);
    let batch_ms = batch_intervals_ms(&starts);
    let mut dispatch_ms = Vec::with_capacity(batch_ms.len());
    let mut imbalance = Vec::new();
    for &(now, _) in &starts {
        let spans: Vec<(u64, u64)> = calls[..paced]
            .iter()
            .filter(|c| c.now.to_bits() == now.to_bits())
            .map(|c| (ns(c.entry), ns(c.exit)))
            .collect();
        dispatch_ms.push(union_ns(&spans, 0, u64::MAX) as f64 / 1e6);
        let each: Vec<f64> = spans.iter().map(|(s, e)| (e - s) as f64).collect();
        let mean = crate::stats::mean(&each);
        if mean > 0.0 {
            imbalance.push(each.iter().copied().fold(0.0, f64::max) / mean);
        }
    }
    let gap_ms = batch_ms
        .iter()
        .zip(&dispatch_ms)
        .map(|(cycle, dispatch)| (cycle - dispatch).max(0.0))
        .collect();
    let all_spans: Vec<(u64, u64)> = calls.iter().map(|c| (ns(c.entry), ns(c.exit))).collect();
    let first_dispatch = calls.iter().map(|c| c.entry).min();
    let lead_in = first_dispatch.map_or(Duration::ZERO, |t| t.saturating_duration_since(out.entry));
    let wall = out.exit.saturating_duration_since(out.entry);
    let busy = (wall - lead_in).as_secs_f64();
    let e2e_ms = out
        .log
        .commits
        .iter()
        .map(|c| {
            // Open loop: timed from when the arrival was due to be sent.
            // Closed loop: the request becomes due when the first batch that
            // carries it begins.
            let due = match spec.drive {
                Drive::Ingest(cfg) => {
                    out.entry + Duration::from_secs_f64(c.release / cfg.time_scale)
                }
                _ => c.first_seen,
            };
            ms(c.committed.saturating_duration_since(due))
        })
        .collect();
    Repeat {
        lead_in_s: lead_in.as_secs_f64(),
        wall_s: wall.as_secs_f64(),
        busy_s: busy,
        throughput_rps: inputs.requests.len() as f64 / busy.max(1e-9),
        batch_ms,
        dispatch_ms,
        gap_ms,
        dispatch_wall_s: union_ns(&all_spans, 0, u64::MAX) as f64 / 1e9,
        imbalance: if imbalance.is_empty() {
            1.0
        } else {
            crate::stats::mean(&imbalance)
        },
        e2e_ms,
        service_rate: out.metrics.service_rate(),
        unified_cost: out.metrics.unified_cost,
        batches: starts.len(),
    }
}

/// What the timed run of one workload found.
pub struct TimedResult {
    /// The end-to-end metrics, in `END_TO_END` order.
    pub table: MetricTable,
    /// Requests offered over the timed repeats, and how many of them failed.
    pub attempted: usize,
    pub failed: usize,
    /// Violated correctness checks (empty = correct).
    pub failures: Vec<String>,
    pub repeats: usize,
    /// Median wall of one timed repeat, seconds.
    pub repeat_wall_s: f64,
}

/// Percentile over samples pooled across repeats, with the per-repeat
/// percentiles as its spread.
fn pooled(per_repeat: &[&[f64]], p: f64, unit: &str, name: &str, full: bool) -> MetricValue {
    let all = sorted(per_repeat.iter().flat_map(|s| s.iter().copied()).collect());
    if full && !supports_percentile(all.len(), p) {
        eprintln!(
            "warning: {name} rests on {} samples, fewer than ten beyond the percentile",
            all.len()
        );
    }
    let each: Vec<f64> = per_repeat
        .iter()
        .map(|s| percentile(&sorted(s.to_vec()), p))
        .collect();
    MetricValue::summarising(percentile(&all, p), all.len(), &each, unit)
}

/// Timed repeats a run of `seconds` makes: one per four seconds of the
/// window, at least three.  A fixed function of the flag — not of how fast
/// the machine turns out to be — so the same `(seed, seconds)` always means
/// the same inputs, and the quality metrics repeat exactly.
pub fn days_for(seconds: f64) -> usize {
    ((seconds / 4.0).round() as usize).clamp(3, 16)
}

/// The seed of day `d` of a run.
pub fn day_seed(seed: u64, d: usize) -> u64 {
    derive_region_seed(seed, 1_000 + d as u64)
}

/// Runs the timed measurement of `spec`: set-up samples, a warm-up, then one
/// timed repeat on each of [`days_for`]`(seconds)` different days drawn from
/// `seed`.  Different days rather than one day repeated: the day-to-day
/// spread of service rate (±3 % at these sizes) and of dispatch work would
/// otherwise go straight into the seed-to-seed spread of every metric; the
/// median over a few days halves it.  The warm-up replays day 0, so the
/// clock-driven workloads still prove run-to-run determinism on it.
pub fn run_timed(spec: &WorkloadSpec, seed: u64, seconds: f64, full: bool) -> TimedResult {
    let baseline = live_threads();
    let network = spec.network();
    let config = spec.config();
    let sharded = spec.drive == Drive::Sharded;
    // The `Simulator` drives set up by building their engine, sampled here;
    // the sharded drive sets up inside every repeat (run entry → first
    // dispatch), and its engine here only feeds input generation.
    let engine_config = if sharded { Default::default() } else { config };
    let mut build_times = Vec::new();
    let mut engine = None;
    for _ in 0..if sharded { 1 } else { SETUP_SAMPLES } {
        // Freed before the next build, or `peak_rss_mb` would count two.
        drop(engine.take());
        let t0 = Instant::now();
        engine = Some(build_engine(&network, &engine_config));
        build_times.push(t0.elapsed().as_secs_f64());
    }
    let engine = engine.expect("at least one engine is built");

    let mut failures = Vec::new();
    let mut repeats: Vec<Repeat> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let run_day = |inputs: &Inputs, failures: &mut Vec<String>| {
        wait_for_quiescence(baseline);
        let out = run_once(spec, inputs, &engine, &Probe::timed());
        let verdict = audit(spec, inputs, &out);
        failures.extend(verdict.failures);
        let repeat = analyse(spec, inputs, &out);
        (
            repeat,
            verdict.failed_ops,
            (out.served, out.metrics.unified_cost),
        )
    };
    let mut day0 = Vec::new();
    for d in 0..days_for(seconds) {
        let inputs = generate(spec, day_seed(seed, d), &engine);
        if d == 0 {
            // The warm-up: audited like the rest, never timed.
            day0.push(run_day(&inputs, &mut failures).2);
        }
        let (repeat, failed_ops, outcome) = run_day(&inputs, &mut failures);
        if d == 0 {
            day0.push(outcome);
        }
        attempted += inputs.requests.len();
        failed += failed_ops;
        repeats.push(repeat);
    }
    failures.extend(repeats_agree(spec, &day0));
    let setup_samples = if sharded {
        repeats.iter().map(|r| r.lead_in_s).collect()
    } else {
        build_times
    };

    let each = |f: fn(&Repeat) -> f64| repeats.iter().map(f).collect::<Vec<f64>>();
    let batch: Vec<&[f64]> = repeats.iter().map(|r| r.batch_ms.as_slice()).collect();
    let e2e: Vec<&[f64]> = repeats.iter().map(|r| r.e2e_ms.as_slice()).collect();
    let table: MetricTable = vec![
        (
            "throughput_rps".into(),
            MetricValue::median_of(&each(|r| r.throughput_rps), "1/s"),
        ),
        (
            "batch_ms_p50".into(),
            pooled(&batch, 0.50, "ms", "batch_ms_p50", full),
        ),
        (
            "batch_ms_p95".into(),
            pooled(&batch, 0.95, "ms", "batch_ms_p95", full),
        ),
        (
            "service_rate".into(),
            MetricValue::median_of(&each(|r| r.service_rate), "ratio"),
        ),
        (
            "unified_cost".into(),
            MetricValue::median_of(&each(|r| r.unified_cost), "cost"),
        ),
        (
            "e2e_ms_p50".into(),
            pooled(&e2e, 0.50, "ms", "e2e_ms_p50", full),
        ),
        (
            "e2e_ms_p90".into(),
            pooled(&e2e, 0.90, "ms", "e2e_ms_p90", full),
        ),
        (
            "peak_rss_mb".into(),
            MetricValue::single(peak_rss_mb(), "MiB"),
        ),
        (
            "setup_s".into(),
            MetricValue::median_of(&setup_samples, "s"),
        ),
    ];
    TimedResult {
        table,
        attempted,
        failed,
        failures,
        repeats: repeats.len(),
        repeat_wall_s: median(&each(|r| r.wall_s)),
    }
}
