//! The golden traces, replayed in the root test suite.
//!
//! The facade's other tests compare outcomes with tolerances; none would
//! notice a travel time that moved by one ulp.  The traces committed under
//! `crates/bench/tests/data/` record every dispatch decision of a run bit
//! for bit, so checking them here — under 1 and 4 worker threads — puts the
//! replay invariant into `cargo build --release && cargo test -q`:
//!
//! * the SARD, exact-assignment and rush-hour RTV traces are *replayed*:
//!   every batch starts from the recorded pre-dispatch fleet, which pins the
//!   dispatchers but would not notice a change to the loop around them.  The
//!   replay carries one score memo across batches, and the SARD and
//!   exact-assignment replays must hit it, so their zero drift covers the
//!   memo's hits;
//! * the rush-hour SARD trace (`loop_sard_rush.trace`) is *re-recorded* end
//!   to end and diffed, inputs included — advance sweep, batch slicing,
//!   early exit and tail of the monolithic loop all have to land bit for
//!   bit;
//! * the 3-shard rush-hour trace is re-run end to end the same way, for the
//!   sharded loop.
//!
//! Every check runs through the `Scenario` read back from the file's `param`
//! lines, which must write those lines back byte for byte.
//!
//! All five files are format v4.  The four `pre_faults_*` files were
//! recorded just before fault injection existed and later converted: their
//! header became v4 and their config line gained the inert fault tokens.
//! The SARD, exact-assignment and rush-hour RTV files kept every `batch`,
//! `request`, `vehicle`, `outcome` and `end` line's recorded bytes, so they
//! still pin the decisions of the pre-fault builds.
//!
//! The two rush-hour files that run the whole loop, `loop_sard_rush.trace`
//! and `pre_faults_sharded_rush.trace`, were re-recorded through
//! `Scenario::record` when a uniform traffic epoch's travel time became the
//! free-flow answer times the profile factor, rounded once, instead of a
//! label build over edges each scaled by that factor.  The two differ from
//! their previous recordings only in the last ulp of some vehicles'
//! `executed_travel`, from batch 26 and batch 30 on, after the first roll
//! to a congested hour (batch 11); no request, outcome or schedule moved.
//! The rush-hour RTV file replays clean under either metric, because a
//! replay restores the recorded fleet every batch.
//!
//! The same two files were re-recorded through `Scenario::record` again
//! when the hub labels' vertex order became nested dissection instead of
//! degree-descending.  A different hub now realises each minimum, so some
//! distances moved in their last bits: the re-recordings differ only in float
//! fields of `request` lines (18 and 19 of them) and `vehicle` lines (310
//! and 183), by at most 6 × 10⁻¹⁶ relative, from batch 1 and batch 0 on.  No
//! `batch`, `outcome` or `end` line moved, and no request id, assignment or
//! stop order changed.  The other three files replay clean under the new
//! order.  Each file is checked here and nowhere else.

use structride_bench::replay_cli::Scenario;
use structride_core::replay::{diff_traces, DriftReport, Trace};

/// Loads a golden trace and the scenario its metadata describes.  Both
/// codecs are held to the file's bytes: the trace re-serialises to the same
/// text, and the scenario writes back the same `param` lines.
fn golden_trace(file: &str) -> (Trace, Scenario) {
    let path = format!(
        "{}/crates/bench/tests/data/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).expect("golden trace file exists");
    let trace = Trace::parse(&text).expect("golden trace parses");
    assert!(!trace.batches.is_empty(), "{file}: empty golden trace");
    assert!(
        trace.to_text() == text,
        "{file}: re-serialisation moved bytes"
    );
    let scenario = Scenario::from_meta(&trace.meta).expect("golden trace names its scenario");
    assert_eq!(scenario.to_params(), trace.meta.params, "{file}");
    (trace, scenario)
}

/// Runs `check` against the golden trace in `file` under 1 and 4 worker
/// threads and requires a clean report covering every recorded batch.
fn zero_drift(file: &str, check: impl Fn(&Scenario, &Trace) -> DriftReport + Sync) {
    let (trace, scenario) = golden_trace(file);
    for threads in [1usize, 4] {
        let report = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool")
            .install(|| check(&scenario, &trace));
        assert!(
            report.is_clean(),
            "{file} drifted under {threads} threads:\n{report}"
        );
        assert_eq!(report.batches_compared, trace.batches.len());
    }
}

/// Checks the golden trace in `file` against its own scenario: a replay
/// for the monolithic traces, an end-to-end re-run for the sharded one.
fn checks_with_zero_drift(file: &str) {
    zero_drift(file, |scenario, trace| {
        scenario.check(trace, &scenario.dispatcher)
    });
}

/// Like [`checks_with_zero_drift`] for a monolithic replay, which must also
/// run with a warm score memo: the zero drift then covers its hits.
fn replays_warm_with_zero_drift(file: &str) {
    zero_drift(file, |scenario, trace| {
        let report = scenario.check(trace, &scenario.dispatcher);
        assert!(
            report.memo_hits > 0,
            "{file}: the replay never hit its memo"
        );
        report
    });
}

#[test]
fn golden_sard_trace_replays_with_zero_drift() {
    replays_warm_with_zero_drift("pre_faults_sard.trace");
}

#[test]
fn golden_assign_trace_replays_with_zero_drift() {
    replays_warm_with_zero_drift("pre_faults_assign.trace");
}

#[test]
fn golden_rtv_rush_trace_replays_with_zero_drift() {
    checks_with_zero_drift("pre_faults_rtv_rush.trace");
}

#[test]
fn golden_rush_trace_rerecords_through_the_monolithic_loop_with_zero_drift() {
    zero_drift("loop_sard_rush.trace", |scenario, trace| {
        diff_traces(trace, &scenario.record().0)
    });
}

#[test]
fn golden_sharded_rush_trace_reruns_through_the_sharded_loop_with_zero_drift() {
    checks_with_zero_drift("pre_faults_sharded_rush.trace");
}
