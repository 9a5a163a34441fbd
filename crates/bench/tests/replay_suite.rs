//! The replay invariant across the whole dispatcher suite: every bundled
//! dispatcher must reproduce its own recorded trace bit-identically, from
//! the in-memory trace and from the text form, under 1 and N worker threads.

use std::num::NonZeroUsize;
use structride_bench::scenario::{dispatcher_keys, Pipeline, Scenario, Size, Source};
use structride_core::replay::Trace;
use structride_core::shard::ShardingConfig;
use structride_core::{FaultConfig, StructRideConfig};

fn mono(key: &str, config: StructRideConfig) -> Scenario {
    Scenario::quickstart(Size::Quick, key, Pipeline::Mono, Source::Clock, config)
}

fn two_shards(key: &str) -> Scenario {
    let pipeline = Pipeline::Sharded {
        shards: NonZeroUsize::new(2).expect("non-zero"),
        sharding: ShardingConfig::default(),
    };
    let config = StructRideConfig::default();
    Scenario::quickstart(Size::Quick, key, pipeline, Source::Clock, config)
}

/// Runs `op` on a rayon pool of `threads` workers.
fn in_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(op)
}

#[test]
fn every_dispatcher_replays_its_own_trace_clean_under_1_and_n_threads() {
    for key in dispatcher_keys() {
        let scenario = mono(key, StructRideConfig::default());
        let (trace, _) = scenario.record();
        assert!(!trace.batches.is_empty(), "{key}: nothing recorded");
        assert_eq!(Scenario::from_meta(&trace.meta).as_ref(), Ok(&scenario));
        for threads in [1usize, 4] {
            let report = in_pool(threads, || scenario.check(&trace, key));
            assert!(
                report.is_clean(),
                "{key} drifted from its own recording with {threads} worker thread(s):\n{report}"
            );
        }
    }
}

/// The cross-process path the CI smoke job uses: serialize, parse, read the
/// scenario back from the metadata alone, check under explicit worker
/// counts — zero drift either way.
fn checks_clean_from_text(recorded: &Scenario) {
    let (trace, _) = recorded.record();
    assert!(!trace.batches.is_empty());
    let parsed = Trace::parse(&trace.to_text()).expect("round-trip");
    assert_eq!(parsed, trace);
    let scenario = Scenario::from_meta(&parsed.meta).expect("scenario recorded");
    for threads in [1usize, 4] {
        let report = in_pool(threads, || scenario.check(&parsed, "sard"));
        assert!(
            report.is_clean(),
            "drift with {threads} worker thread(s):\n{report}"
        );
    }
}

#[test]
fn trace_replays_clean_from_text_on_regenerated_workload() {
    checks_clean_from_text(&mono("sard", StructRideConfig::default()));
}

#[test]
fn sharded_trace_reruns_clean_from_text_under_1_and_n_threads() {
    checks_clean_from_text(&two_shards("sard"));
}

#[test]
fn sharded_rerun_with_a_different_dispatcher_is_flagged() {
    let scenario = two_shards("sard");
    let (trace, _) = scenario.record();
    let report = scenario.check(&trace, "prunegdp");
    assert!(
        !report.is_clean(),
        "pruneGDP shards cannot match a SARD-sharded trace"
    );
    assert!(report.first_divergence().is_some());
}

#[test]
fn replaying_a_different_dispatcher_is_flagged() {
    let scenario = mono("sard", StructRideConfig::default());
    let (trace, _) = scenario.record();
    let report = scenario.check(&trace, "prunegdp");
    assert!(!report.is_clean(), "pruneGDP cannot match a SARD trace");
    let first = report.first_divergence().expect("divergence");
    assert!(!first.deltas.is_empty());
}

#[test]
fn a_checkpoint_cadence_leaves_the_recorded_sard_trace_unchanged() {
    // Capture is a pure read, so recording with a checkpoint sink attached
    // yields the trace a plain recording does — SARD's `build_stats` meta
    // line included (the checkpointed record path used to drop it).
    let plain = StructRideConfig::default();
    let cadence = plain.with_faults(FaultConfig {
        checkpoint_every: 4,
        ..FaultConfig::default()
    });
    let (reference, none) = mono("sard", plain).record();
    let (trace, checkpoints) = mono("sard", cadence).record();
    assert!(none.is_empty(), "no cadence, no checkpoints");
    assert!(!checkpoints.is_empty(), "the cadence must fire");
    assert!(trace.meta.build_stats.is_some());
    assert_eq!(trace.meta.build_stats, reference.meta.build_stats);
    assert_eq!(trace.batches, reference.batches);
    assert!(trace.to_text().contains("\nbuild_stats "));
}
