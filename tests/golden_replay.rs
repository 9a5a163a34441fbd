//! The golden traces, replayed in the root test suite.
//!
//! The facade's other tests compare outcomes with tolerances; none would
//! notice a travel time that moved by one ulp.  The traces committed under
//! `crates/bench/tests/data/` record every dispatch decision of a SARD and
//! an exact-assignment run bit for bit, so replaying them here — under 1
//! and 4 worker threads — puts the replay invariant into
//! `cargo build --release && cargo test -q`.  (`structride-bench`'s own
//! `pre_faults_golden` suite replays the traffic and sharded traces too.)

use structride_bench::replay_cli::{regenerate_workload, replay_run, trace_dispatcher_key};
use structride_core::replay::Trace;

fn replays_with_zero_drift(file: &str) {
    let path = format!(
        "{}/crates/bench/tests/data/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).expect("golden trace file exists");
    let trace = Trace::parse(&text).expect("golden trace parses");
    assert!(!trace.batches.is_empty(), "{file}: empty golden trace");
    let key = trace_dispatcher_key(&trace).expect("golden trace records its dispatcher");
    let workload =
        regenerate_workload(&trace.meta).expect("golden trace records generation params");
    for threads in [1usize, 4] {
        let report = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool")
            .install(|| replay_run(&workload, key, &trace))
            .expect("known dispatcher");
        assert!(
            report.is_clean(),
            "{file} drifted under {threads} threads:\n{report}"
        );
        assert_eq!(report.batches_compared, trace.batches.len());
    }
}

#[test]
fn golden_sard_trace_replays_with_zero_drift() {
    replays_with_zero_drift("pre_faults_sard.trace");
}

#[test]
fn golden_assign_trace_replays_with_zero_drift() {
    replays_with_zero_drift("pre_faults_assign.trace");
}
