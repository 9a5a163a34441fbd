//! Integration tests of the record/replay harness: a trace recorded through
//! the simulator must replay bit-identically (across worker counts), and a
//! deliberately perturbed dispatcher must be flagged with the first divergent
//! batch.

use structride_core::replay::{replay_trace, Trace, TraceMeta, TraceRecorder};
use structride_core::{
    BatchOutcome, DispatchContext, Dispatcher, SardDispatcher, SimulationReport, Simulator,
    StructRideConfig,
};
use structride_datagen::{CityProfile, Workload, WorkloadParams};
use structride_model::{insertion, Request, Vehicle};

fn tiny_workload() -> Workload {
    Workload::generate(WorkloadParams {
        num_requests: 60,
        num_vehicles: 10,
        horizon: 240.0,
        scale: 0.3,
        ..WorkloadParams::small(CityProfile::NycLike)
    })
}

fn record_sard(workload: &Workload, config: StructRideConfig) -> (Trace, SimulationReport) {
    let simulator = Simulator::new(config);
    let mut sard = SardDispatcher::new(config);
    let mut recorder = TraceRecorder::new();
    let report = simulator.run_recorded(
        &workload.engine,
        &workload.requests,
        workload.fresh_vehicles(),
        &mut sard,
        &workload.name,
        &mut recorder,
    );
    let mut meta = TraceMeta::new(sard.name(), &workload.name, config);
    meta.build_stats = sard.build_stats();
    (recorder.into_trace(meta), report)
}

#[test]
fn recorded_sard_trace_replays_clean() {
    let workload = tiny_workload();
    let config = StructRideConfig::default();
    let (trace, report) = record_sard(&workload, config);
    assert_eq!(trace.batches.len(), report.metrics.batches);
    assert!(!trace.batches.is_empty());
    // The recorded outcome matches the run: every request served in the run
    // appears in exactly one batch's assignment list.
    let recorded_assigned: usize = trace.batches.iter().map(|b| b.assigned.len()).sum();
    assert_eq!(recorded_assigned, report.metrics.served_requests);

    let mut fresh = SardDispatcher::new(config);
    let drift = replay_trace(&workload.engine, &mut fresh, &trace);
    assert!(
        drift.is_clean(),
        "fresh SARD must reproduce its trace:\n{drift}"
    );
    assert_eq!(drift.batches_compared, trace.batches.len());
}

#[test]
fn recorded_trace_survives_text_roundtrip_and_replays_clean() {
    let workload = tiny_workload();
    let config = StructRideConfig::default();
    let (trace, _) = record_sard(&workload, config);
    let parsed = Trace::parse(&trace.to_text()).expect("round-trip parse");
    assert_eq!(
        parsed, trace,
        "text round-trip must be lossless (bit-exact floats)"
    );
    let mut fresh = SardDispatcher::new(config);
    let drift = replay_trace(&workload.engine, &mut fresh, &parsed);
    assert!(drift.is_clean(), "parsed trace must replay clean:\n{drift}");
}

#[test]
fn replay_is_invariant_across_worker_counts() {
    let workload = tiny_workload();
    let config = StructRideConfig::default();
    // Record at the ambient worker count…
    let (trace, _) = record_sard(&workload, config);
    // …and replay under explicit 1-thread and many-thread pools.  This is the
    // replay invariant: a recorded trace replays bit-identically regardless
    // of the worker count.
    for threads in [1usize, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let drift = pool.install(|| {
            let mut fresh = SardDispatcher::new(config);
            replay_trace(&workload.engine, &mut fresh, &trace)
        });
        assert!(
            drift.is_clean(),
            "drift with {threads} worker thread(s):\n{drift}"
        );
    }
}

/// Greedy insertion with an inverted vehicle preference: instead of the
/// cheapest feasible vehicle it commits to the most expensive one — the
/// "deliberately perturbed dispatcher" the harness must flag.
struct PerturbedGreedy {
    invert: bool,
}

impl Dispatcher for PerturbedGreedy {
    fn name(&self) -> &'static str {
        "perturbed-greedy"
    }

    fn dispatch_batch(
        &mut self,
        ctx: &DispatchContext<'_>,
        vehicles: &mut [Vehicle],
        new_requests: &[Request],
    ) -> BatchOutcome {
        let mut outcome = BatchOutcome::empty();
        for r in new_requests {
            let mut best: Option<(usize, insertion::InsertionOutcome)> = None;
            for (vi, v) in vehicles.iter().enumerate() {
                if let Some(out) = insertion::insert_request(ctx.engine, v, r) {
                    let better = match &best {
                        None => true,
                        Some((_, b)) => {
                            if self.invert {
                                out.added_cost > b.added_cost + 1e-12
                            } else {
                                out.added_cost < b.added_cost - 1e-12
                            }
                        }
                    };
                    if better {
                        best = Some((vi, out));
                    }
                }
            }
            if let Some((vi, out)) = best {
                vehicles[vi].commit_schedule(out.schedule);
                outcome.assigned.push(r.id);
            }
        }
        outcome
    }
}

#[test]
fn perturbed_dispatcher_is_flagged_with_first_divergent_batch() {
    let workload = tiny_workload();
    let config = StructRideConfig::default();
    let simulator = Simulator::new(config);
    let mut recorder = TraceRecorder::new();
    let mut sane = PerturbedGreedy { invert: false };
    let report = simulator.run_recorded(
        &workload.engine,
        &workload.requests,
        workload.fresh_vehicles(),
        &mut sane,
        &workload.name,
        &mut recorder,
    );
    assert!(report.metrics.served_requests > 0);
    let trace = recorder.into_trace(TraceMeta::new("perturbed-greedy", &workload.name, config));

    // Sanity: the unperturbed dispatcher reproduces its own trace.
    let mut same = PerturbedGreedy { invert: false };
    let clean = replay_trace(&workload.engine, &mut same, &trace);
    assert!(clean.is_clean(), "{clean}");

    // The inverted preference must drift, and the report must pin the first
    // divergent batch with per-field deltas.
    let mut perturbed = PerturbedGreedy { invert: true };
    let drift = replay_trace(&workload.engine, &mut perturbed, &trace);
    assert!(!drift.is_clean(), "inverted tie-break must be flagged");
    let first = drift.first_divergence().expect("first divergent batch");
    assert!(first.batch_index < trace.batches.len());
    assert!(!first.deltas.is_empty());
    // Divergences are reported in batch order, so the first one really is
    // the earliest drifting batch.
    for pair in drift.divergences.windows(2) {
        assert!(pair[0].batch_index < pair[1].batch_index);
    }
    let rendered = drift.to_string();
    assert!(
        rendered.contains(&format!("first at batch {}", first.batch_index)),
        "{rendered}"
    );
}
