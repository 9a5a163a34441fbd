//! The replay invariant across the whole deterministic dispatcher suite:
//! every bundled dispatcher except TicketAssign+ must reproduce its own
//! recorded trace bit-identically, from the in-memory trace and from the
//! text form, under 1 and N worker threads.

use structride_bench::replay_cli::{
    deterministic_keys, is_sharded_trace, quickstart_params, record_run, record_sharded_run,
    regenerate_multi_workload, regenerate_workload, replay_run, rerun_sharded,
    sharded_quickstart_params, trace_dispatcher_key, trace_shards,
};
use structride_core::replay::Trace;
use structride_core::{FaultConfig, StructRideConfig};

#[test]
fn every_deterministic_dispatcher_replays_its_own_trace_clean() {
    let config = StructRideConfig::default();
    for key in deterministic_keys() {
        let (workload, trace, _) =
            record_run(quickstart_params(true), config, key).expect("known dispatcher");
        assert!(!trace.batches.is_empty(), "{key}: nothing recorded");
        assert_eq!(trace_dispatcher_key(&trace), Some(key));
        let report = replay_run(&workload, key, &trace).expect("known dispatcher");
        assert!(
            report.is_clean(),
            "{key} drifted from its own recording:\n{report}"
        );
    }
}

#[test]
fn trace_replays_clean_from_text_on_regenerated_workload() {
    // The cross-process path the CI smoke job uses: serialize, parse,
    // regenerate the workload from metadata alone, replay under explicit
    // worker counts.
    let config = StructRideConfig::default();
    let (_original, trace, _) =
        record_run(quickstart_params(true), config, "sard").expect("known dispatcher");
    let parsed = Trace::parse(&trace.to_text()).expect("round-trip");
    assert_eq!(parsed, trace);
    let workload = regenerate_workload(&parsed.meta).expect("regeneration params recorded");
    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let report = pool
            .install(|| replay_run(&workload, "sard", &parsed))
            .expect("known dispatcher");
        assert!(
            report.is_clean(),
            "drift with {threads} worker thread(s):\n{report}"
        );
    }
}

#[test]
fn sharded_trace_reruns_clean_from_text_under_1_and_n_threads() {
    // The sharded arm of the CI smoke job: record a 2-shard trace, push it
    // through the text codec, regenerate the multi-region workload from
    // metadata alone and re-run the whole sharded pipeline under explicit
    // worker counts — zero drift either way.
    let config = StructRideConfig::default();
    let (_original, trace, _) =
        record_sharded_run(sharded_quickstart_params(true), config, "sard", 2)
            .expect("known dispatcher");
    assert!(is_sharded_trace(&trace));
    assert_eq!(trace_shards(&trace), Some(2));
    assert!(!trace.batches.is_empty());
    let parsed = Trace::parse(&trace.to_text()).expect("round-trip");
    assert_eq!(parsed, trace);
    let workload = regenerate_multi_workload(&parsed.meta).expect("regeneration params recorded");
    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let report = pool
            .install(|| rerun_sharded(&workload, "sard", &parsed))
            .expect("known dispatcher");
        assert!(
            report.is_clean(),
            "sharded drift with {threads} worker thread(s):\n{report}"
        );
    }
}

#[test]
fn sharded_rerun_with_a_different_dispatcher_is_flagged() {
    let config = StructRideConfig::default();
    let (workload, trace, _) =
        record_sharded_run(sharded_quickstart_params(true), config, "sard", 2)
            .expect("known dispatcher");
    let report = rerun_sharded(&workload, "prunegdp", &trace).expect("known dispatcher");
    assert!(
        !report.is_clean(),
        "pruneGDP shards cannot match a SARD-sharded trace"
    );
    assert!(report.first_divergence().is_some());
}

#[test]
fn replaying_a_different_dispatcher_is_flagged() {
    let config = StructRideConfig::default();
    let (workload, trace, _) =
        record_run(quickstart_params(true), config, "sard").expect("known dispatcher");
    let report = replay_run(&workload, "prunegdp", &trace).expect("known dispatcher");
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
    let (_, reference, none) =
        record_run(quickstart_params(true), plain, "sard").expect("known dispatcher");
    let (_, trace, checkpoints) =
        record_run(quickstart_params(true), cadence, "sard").expect("known dispatcher");
    assert!(none.is_empty(), "no cadence, no checkpoints");
    assert!(!checkpoints.is_empty(), "the cadence must fire");
    assert!(trace.meta.build_stats.is_some());
    assert_eq!(trace.meta.build_stats, reference.meta.build_stats);
    assert_eq!(trace.batches, reference.batches);
    assert!(trace.to_text().contains("\nbuild_stats "));
}
