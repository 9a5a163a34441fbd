//! Error-path coverage for the `replay` and `experiments` binaries: bad
//! arguments, missing/malformed traces and exempt dispatchers must exit
//! non-zero with a diagnostic, never panic or succeed silently.

use std::process::{Command, Output, Stdio};
use structride_core::{StructRideConfig, Trace, TraceMeta};

fn replay(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_replay"))
        .args(args)
        .output()
        .expect("spawn replay binary")
}

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments binary")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).to_string()
}

fn exit_code(output: &Output) -> i32 {
    output.status.code().expect("binary exited with a code")
}

#[test]
fn no_subcommand_prints_usage_and_exits_2() {
    let out = replay(&[]);
    assert_eq!(exit_code(&out), 2);
    assert!(stderr(&out).contains("usage:"), "{}", stderr(&out));
}

#[test]
fn unknown_subcommand_prints_usage_and_exits_2() {
    let out = replay(&["bogus"]);
    assert_eq!(exit_code(&out), 2);
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn unknown_flag_prints_usage_and_exits_2() {
    let out = replay(&["record", "--frobnicate"]);
    assert_eq!(exit_code(&out), 2);
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn unknown_dispatcher_is_rejected_before_any_work() {
    let out = replay(&["record", "--quick", "--algo", "nope"]);
    assert_eq!(exit_code(&out), 2);
    assert!(
        stderr(&out).contains("unknown dispatcher"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn non_numeric_flag_values_are_rejected() {
    for args in [
        ["verify", "--threads", "many"],
        ["verify", "--shards", "two"],
        ["verify", "--shards", "0"],
    ] {
        let out = replay(&args);
        assert_eq!(exit_code(&out), 2, "{args:?}");
        assert!(stderr(&out).contains("usage:"), "{args:?}");
    }
}

#[test]
fn replay_without_trace_flag_prints_usage() {
    let out = replay(&["replay"]);
    assert_eq!(exit_code(&out), 2);
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn replay_missing_trace_file_fails_with_diagnostic() {
    let out = replay(&["replay", "--trace", "/nonexistent/replay-trace.txt"]);
    assert_eq!(exit_code(&out), 1);
    assert!(stderr(&out).contains("failed to load"), "{}", stderr(&out));
}

#[test]
fn replay_malformed_trace_fails_with_parse_diagnostic() {
    let dir = std::env::temp_dir();
    let path = dir.join("structride-malformed-trace.txt");
    std::fs::write(&path, "this is not a trace\n").unwrap();
    let out = replay(&["replay", "--trace", path.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1);
    assert!(stderr(&out).contains("failed to load"), "{}", stderr(&out));
    std::fs::remove_file(&path).ok();
}

#[test]
fn replay_trace_without_metadata_asks_for_algo() {
    // A structurally valid trace with no params names no scenario: replay
    // and resume must say which key is missing instead of guessing, and an
    // explicit --algo does not stand in for the workload parameters.
    let dir = std::env::temp_dir();
    let path = dir.join("structride-bare-trace.txt");
    let meta = TraceMeta::new("X", "w", StructRideConfig::default());
    let bare = Trace {
        meta,
        batches: Vec::new(),
    };
    std::fs::write(&path, bare.to_text()).unwrap();
    let trace = path.to_str().unwrap();
    for args in [
        &["replay", "--trace", trace][..],
        &["replay", "--trace", trace, "--algo", "prunegdp"],
        &[
            "resume",
            "--trace",
            trace,
            "--checkpoint",
            "/nonexistent/ckpt.txt",
        ],
    ] {
        let out = replay(args);
        assert_eq!(exit_code(&out), 1, "{args:?}");
        assert!(
            stderr(&out).contains("bad scenario in trace: missing param `city`"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn verify_rejects_the_exempt_ticket_dispatcher() {
    let out = replay(&["verify", "--quick", "--algo", "ticket"]);
    assert_eq!(exit_code(&out), 2);
    assert!(stderr(&out).contains("exempt"), "{}", stderr(&out));
}

#[test]
fn experiments_rejects_unknown_names_and_flags_before_running_anything() {
    // `sharded` was an experiment once: a stale script must fail loudly
    // rather than print a header, measure nothing and exit 0.
    for args in [
        &["fig99"][..],
        &["fig14", "--quik"],
        &["--quick", "sharded"],
    ] {
        let out = experiments(args);
        assert_eq!(exit_code(&out), 2, "{args:?}");
        assert!(stderr(&out).contains("usage:"), "{args:?}");
        assert!(stderr(&out).contains("table_pruning"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed rows");
    }
}

#[test]
fn diff_into_a_closed_pipe_exits_quietly() {
    // `replay diff A B | head` closes the pipe early.  The reader here is
    // gone before the two traces have loaded, so the report's first write
    // meets a closed pipe.
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data");
    let mut child = Command::new(env!("CARGO_BIN_EXE_replay"))
        .args(["diff", "--trace", &format!("{data}/pre_faults_sard.trace")])
        .args(["--against", &format!("{data}/pre_faults_assign.trace")])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn replay binary");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for replay binary");
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
    assert_eq!(exit_code(&out), 141, "{}", stderr(&out));
}
