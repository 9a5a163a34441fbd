//! Record/replay front end for the dispatcher-determinism harness.
//!
//! ```text
//! replay record  [--quick] [--algo KEY] [--out PATH] [--shards N] [--ingest] [--traffic T]
//!                [--chaos] [--checkpoint PATH]
//! replay replay  --trace PATH [--algo KEY] [--threads N]
//! replay resume  --trace PATH --checkpoint PATH [--threads N]
//! replay diff    --trace PATH --against PATH
//! replay verify  [--quick] [--algo KEY] [--threads N] [--shards N] [--ingest] [--traffic T]
//!                [--chaos]
//! ```
//!
//! * `record` runs the quickstart-style workload under the chosen dispatcher
//!   and writes the `(batch, fleet-state, outcome)` trace to `--out`.
//! * `replay` loads a trace, regenerates the identical workload from the
//!   trace metadata and replays it with a fresh dispatcher (optionally under
//!   an explicit worker-thread count); exits non-zero on any drift.
//! * `diff` compares two trace files batch by batch (inputs, clock,
//!   pre-dispatch fleet, outcomes) and exits non-zero on any drift — how CI
//!   checks that recordings made under different worker counts, or by two
//!   builds, are the same run.
//! * `verify` is the CI smoke flow: record in-process, replay under 1 and N
//!   worker threads asserting zero drift, then replay with a *different*
//!   dispatcher and assert the harness flags the drift (self-test).
//!
//! `--shards N` switches `record`/`verify` to the **sharded** pipeline: a
//! two-city multi-region workload dispatched by `N` parallel shards with one
//! `KEY` dispatcher each.  A sharded trace records the canonical global view
//! (release-ordered batches, id-sorted union fleet, shard-ordered merged
//! outcomes); `replay` detects such traces by their metadata, re-runs the
//! whole sharded pipeline and diffs the two traces — the sharded form of the
//! replay invariant (bit-identical across worker counts).
//!
//! `--ingest` switches `record`/`verify` to the **ingested** pipeline
//! (`core::ingest`): the workload's request stream is replayed in compressed
//! wall clock through the bounded arrival queue, and batches close on the
//! adaptive deadline/size-cap rule instead of the simulated Δ.  The realized
//! batch boundaries land in the trace, so a monolithic ingested trace
//! replays through the ordinary `replay` path; a sharded ingested trace
//! (`--ingest --shards N`) is verified by re-running the sharded pipeline
//! *from the recorded boundaries* and diffing the global traces.
//!
//! `--traffic T` (T ∈ {rush, incident}) switches `record`/`verify` to a
//! time-dependent travel-time model compressed to the quickstart horizon:
//! epoch boundaries roll mid-run, hub labels refresh, and the trace records
//! the traffic config (format v3+) so `replay` reproduces the exact epoch
//! sequence from the batch clock alone.
//!
//! `--chaos` turns on the deterministic fault injector's chaos preset
//! (`FaultConfig::chaos()`: periodic shard outages with failover, a solver
//! node budget, a checkpoint cadence).  The fault config lands in the trace
//! (format v4), so a faulted recording replays bit-identically — the
//! degraded-mode schedule is pure in `(config, batch clock)`.  With
//! `--checkpoint PATH`, `record` also writes the run's mid-run checkpoint
//! (full simulation state at a fault-plan checkpoint boundary) to `PATH`;
//! `resume` then loads it, continues the run to completion, and verifies it
//! finishes bit-identically to the uninterrupted reference (re-run
//! in-process from the trace metadata) — the kill-at-checkpoint/restore
//! smoke, exercised under 1 and N worker threads in CI.
//!
//! `KEY` is any registered dispatcher key — `sard`, `assign` (the exact
//! global-assignment dispatcher), `rtv`, `prunegdp` (alias `gdp`), `gas`,
//! `darm`, `ticket` — as reported by the dispatcher registry
//! (`structride_baselines::standard_registry`); `ticket` records fine but is
//! exempt from `verify` — its commit-order races are the algorithm being
//! reproduced.

use std::process::ExitCode;
use structride_bench::replay_cli::{
    deterministic_keys, dispatcher_by_name, dispatcher_keys, ingest_quickstart_config,
    is_sharded_ingested_trace, is_sharded_trace, quickstart_params, record_ingested_run,
    record_run, record_sharded_ingested_run, record_sharded_run, regenerate_multi_workload,
    regenerate_workload, replay_run, rerun_sharded, rerun_sharded_ingested, resume_and_verify,
    sharded_quickstart_params, trace_dispatcher_key, trace_shards, traffic_by_name, TRAFFIC_KEYS,
};
use structride_core::replay::{diff_traces, Checkpoint, Trace};
use structride_core::{FaultConfig, StructRideConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: replay record [--quick] [--algo KEY] [--out PATH] [--shards N] [--ingest] [--traffic T] [--chaos] [--checkpoint PATH]\n\
         \x20      replay replay --trace PATH [--algo KEY] [--threads N]\n\
         \x20      replay resume --trace PATH --checkpoint PATH [--threads N]\n\
         \x20      replay diff   --trace PATH --against PATH\n\
         \x20      replay verify [--quick] [--algo KEY] [--threads N] [--shards N] [--ingest] [--traffic T] [--chaos]\n\
         KEY: {}\n\
         T: {}",
        dispatcher_keys().join(", "),
        TRAFFIC_KEYS.join(", ")
    );
    ExitCode::from(2)
}

struct Args {
    quick: bool,
    algo: Option<String>,
    out: Option<String>,
    trace: Option<String>,
    against: Option<String>,
    threads: Option<usize>,
    shards: Option<usize>,
    ingest: bool,
    traffic: Option<String>,
    chaos: bool,
    checkpoint: Option<String>,
}

fn parse_args(mut argv: std::env::Args) -> Option<(String, Args)> {
    let subcommand = argv.next()?;
    let mut args = Args {
        quick: false,
        algo: None,
        out: None,
        trace: None,
        against: None,
        threads: None,
        shards: None,
        ingest: false,
        traffic: None,
        chaos: false,
        checkpoint: None,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--algo" => args.algo = Some(argv.next()?),
            "--out" => args.out = Some(argv.next()?),
            "--trace" => args.trace = Some(argv.next()?),
            "--against" => args.against = Some(argv.next()?),
            "--threads" => args.threads = Some(argv.next()?.parse().ok()?),
            "--shards" => args.shards = Some(argv.next()?.parse().ok()?),
            "--ingest" => args.ingest = true,
            "--traffic" => args.traffic = Some(argv.next()?),
            "--chaos" => args.chaos = true,
            "--checkpoint" => args.checkpoint = Some(argv.next()?),
            _ => return None,
        }
    }
    Some((subcommand, args))
}

/// The framework configuration `record`/`verify` run with: defaults, plus
/// the quickstart ingest knobs when `--ingest` is on and the chosen traffic
/// scenario (compressed to the quickstart horizon) when `--traffic` is.
/// `None` means the `--traffic` key is unknown.
fn run_config(args: &Args) -> Option<StructRideConfig> {
    let mut config = if args.ingest {
        StructRideConfig::default().with_ingest(ingest_quickstart_config(args.quick))
    } else {
        StructRideConfig::default()
    };
    if let Some(key) = args.traffic.as_deref() {
        let horizon = if args.shards.is_some() {
            sharded_quickstart_params(args.quick).horizon
        } else {
            quickstart_params(args.quick).horizon
        };
        config = config.with_traffic(traffic_by_name(key, horizon)?);
    }
    if args.chaos {
        config = config.with_faults(FaultConfig::chaos());
    }
    Some(config)
}

/// Exit path for an unresolvable dispatcher key: name the registered keys
/// so a typo is a one-glance fix.
fn unknown_dispatcher(key: &str) -> ExitCode {
    eprintln!(
        "unknown dispatcher {key:?}; registered keys: {}",
        dispatcher_keys().join(", ")
    );
    ExitCode::from(2)
}

fn print_trace_summary(trace: &Trace) {
    let assigned: usize = trace.batches.iter().map(|b| b.assigned.len()).sum();
    eprintln!(
        "# trace: algorithm={} workload={} batches={} assigned={}",
        trace.meta.algorithm,
        trace.meta.workload,
        trace.batches.len(),
        assigned
    );
    if let Some(s) = trace.meta.sp_stats {
        eprintln!(
            "# sp queries: total={} hits={} index={}",
            s.total_queries, s.cache_hits, s.index_queries
        );
    }
    if let Some(s) = trace.meta.build_stats {
        eprintln!("# sharegraph: {s}");
    }
}

fn cmd_record(args: &Args) -> ExitCode {
    let algo = args.algo.as_deref().unwrap_or("sard");
    let out = args.out.as_deref().unwrap_or("replay-trace.txt");
    let Some(config) = run_config(args) else {
        eprintln!("unknown traffic scenario {:?}", args.traffic);
        return usage();
    };
    if args.checkpoint.is_some() {
        if args.ingest {
            eprintln!("--checkpoint applies to the clock-driven pipelines; drop --ingest");
            return usage();
        }
        if config.faults.checkpoint_every == 0 {
            eprintln!("--checkpoint needs a checkpoint cadence; pass --chaos");
            return usage();
        }
    }
    let recorded = match (args.ingest, args.shards) {
        (true, Some(shards)) => {
            record_sharded_ingested_run(sharded_quickstart_params(args.quick), config, algo, shards)
                .map(|(_, trace)| (trace, Vec::new()))
        }
        (true, None) => record_ingested_run(quickstart_params(args.quick), config, algo)
            .map(|(_, trace)| (trace, Vec::new())),
        (false, Some(shards)) => {
            record_sharded_run(sharded_quickstart_params(args.quick), config, algo, shards)
                .map(|(_, trace, checkpoints)| (trace, checkpoints))
        }
        (false, None) => record_run(quickstart_params(args.quick), config, algo)
            .map(|(_, trace, checkpoints)| (trace, checkpoints)),
    };
    let Some((trace, checkpoints)) = recorded else {
        return unknown_dispatcher(algo);
    };
    // Checkpointed record: the same trace, plus the run's mid-run checkpoint
    // written to `ckpt_path` for `resume`.
    if let Some(ckpt_path) = args.checkpoint.as_deref() {
        if checkpoints.is_empty() {
            eprintln!("no checkpoint boundary fell within the horizon; nothing to resume from");
            return ExitCode::FAILURE;
        }
        let picked = &checkpoints[checkpoints.len() / 2];
        if let Err(e) = picked.save(ckpt_path) {
            eprintln!("failed to write {ckpt_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "# wrote {ckpt_path} (mid-run checkpoint at batch {}, 1 of {})",
            picked.batches,
            checkpoints.len()
        );
    }
    print_trace_summary(&trace);
    if let Err(e) = trace.save(out) {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("# wrote {out}");
    ExitCode::SUCCESS
}

/// Runs `op` under an explicit worker-thread count (or the ambient one when
/// `threads` is `None`) — the one place the pool-building pattern lives.
fn in_pool<R: Send>(threads: Option<usize>, op: impl FnOnce() -> R + Send) -> R {
    match threads {
        Some(n) => {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("thread pool");
            pool.install(op)
        }
        None => op(),
    }
}

fn replay_in_pool(
    workload: &structride_datagen::Workload,
    algo: &str,
    trace: &Trace,
    threads: Option<usize>,
) -> Option<structride_core::replay::DriftReport> {
    in_pool(threads, || replay_run(workload, algo, trace))
}

fn cmd_replay(args: &Args) -> ExitCode {
    let Some(path) = args.trace.as_deref() else {
        return usage();
    };
    let trace = match load_trace(path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    print_trace_summary(&trace);
    let algo = match args
        .algo
        .as_deref()
        .or_else(|| trace_dispatcher_key(&trace))
    {
        Some(a) => a.to_string(),
        None => {
            eprintln!("trace names no dispatcher; pass --algo");
            return ExitCode::from(2);
        }
    };
    if is_sharded_trace(&trace) || is_sharded_ingested_trace(&trace) {
        let Some(workload) = regenerate_multi_workload(&trace.meta) else {
            eprintln!("sharded trace metadata lacks regeneration parameters");
            return ExitCode::FAILURE;
        };
        let ingested = is_sharded_ingested_trace(&trace);
        eprintln!(
            "# sharded trace: shards={} ingested={ingested}",
            trace_shards(&trace).unwrap_or(0)
        );
        // A clock-driven sharded trace re-runs the whole pipeline; an
        // ingested one re-runs it from the recorded realized boundaries.
        let report = in_pool(args.threads, || {
            if ingested {
                rerun_sharded_ingested(&workload, &algo, &trace)
            } else {
                rerun_sharded(&workload, &algo, &trace)
            }
        });
        let Some(report) = report else {
            eprintln!("malformed sharded metadata, or:");
            return unknown_dispatcher(&algo);
        };
        println!("{report}");
        return if report.is_clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(workload) = regenerate_workload(&trace.meta) else {
        eprintln!("trace metadata lacks regeneration parameters");
        return ExitCode::FAILURE;
    };
    let Some(report) = replay_in_pool(&workload, &algo, &trace, args.threads) else {
        return unknown_dispatcher(&algo);
    };
    println!("{report}");
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The kill-at-checkpoint/restore smoke: load the checkpoint a faulted
/// `record --checkpoint` run wrote, resume the run from it (under the
/// requested worker-thread count) and verify it finishes bit-identically to
/// the uninterrupted reference re-run in-process from the trace metadata.
fn cmd_resume(args: &Args) -> ExitCode {
    let (Some(trace_path), Some(ckpt_path)) = (args.trace.as_deref(), args.checkpoint.as_deref())
    else {
        return usage();
    };
    let trace = match load_trace(trace_path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let checkpoint = match Checkpoint::load(ckpt_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("failed to load {ckpt_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_trace_summary(&trace);
    eprintln!(
        "# checkpoint: batch {} now {} shards {} ({})",
        checkpoint.batches,
        checkpoint.now,
        checkpoint.shards.len(),
        if checkpoint.sharded {
            "sharded"
        } else {
            "monolithic"
        }
    );
    let Some(mismatches) = in_pool(args.threads, || resume_and_verify(&trace, &checkpoint)) else {
        eprintln!("trace metadata lacks regeneration parameters or names an unknown dispatcher");
        return ExitCode::FAILURE;
    };
    if mismatches.is_empty() {
        println!(
            "resume OK: run resumed from batch {} finished bit-identically to the uninterrupted reference",
            checkpoint.batches
        );
        ExitCode::SUCCESS
    } else {
        for m in &mismatches {
            eprintln!("resume drift: {m}");
        }
        ExitCode::FAILURE
    }
}

/// Loads a trace file, reporting a failure on stderr.
fn load_trace(path: &str) -> Result<Trace, ExitCode> {
    Trace::load(path).map_err(|e| {
        eprintln!("failed to load {path}: {e}");
        ExitCode::FAILURE
    })
}

/// Thin CLI over [`diff_traces`]: are two trace files the same run?
fn cmd_diff(args: &Args) -> ExitCode {
    let (Some(recorded), Some(against)) = (args.trace.as_deref(), args.against.as_deref()) else {
        return usage();
    };
    let (recorded, against) = match (load_trace(recorded), load_trace(against)) {
        (Ok(recorded), Ok(against)) => (recorded, against),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let report = diff_traces(&recorded, &against);
    println!("{report}");
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The sharded verify flow: record a sharded trace in-process (clock-driven,
/// or ingested with `--ingest`), re-run the pipeline under 1 and N worker
/// threads asserting zero drift, then re-run with a different per-shard
/// dispatcher and assert the drift is flagged.
fn cmd_verify_sharded(args: &Args, algo: &str, shards: usize) -> ExitCode {
    let Some(config) = run_config(args) else {
        eprintln!("unknown traffic scenario {:?}", args.traffic);
        return usage();
    };
    let params = sharded_quickstart_params(args.quick);
    let recorded = if args.ingest {
        record_sharded_ingested_run(params, config, algo, shards)
    } else {
        record_sharded_run(params, config, algo, shards).map(|(w, trace, _)| (w, trace))
    };
    let Some((workload, trace)) = recorded else {
        return unknown_dispatcher(algo);
    };
    print_trace_summary(&trace);
    // Exercise the codec: the parsed form must re-verify identically.
    let trace = match Trace::parse(&trace.to_text()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("self-test FAILED: sharded trace does not round-trip: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rerun = |key: &str, trace: &Trace| {
        if args.ingest {
            rerun_sharded_ingested(&workload, key, trace)
        } else {
            rerun_sharded(&workload, key, trace)
        }
    };
    let many = args
        .threads
        .unwrap_or_else(rayon::current_num_threads)
        .max(2);
    for threads in [1, many] {
        let Some(report) = in_pool(Some(threads), || rerun(algo, &trace)) else {
            return unknown_dispatcher(algo);
        };
        println!("shards={shards} threads={threads}: {report}");
        if !report.is_clean() {
            eprintln!("verify FAILED: sharded drift under {threads} worker thread(s)");
            return ExitCode::FAILURE;
        }
    }
    // Self-test: a different per-shard dispatcher must be flagged.
    let other = if algo == "prunegdp" {
        "gas"
    } else {
        "prunegdp"
    };
    let Some(report) = rerun(other, &trace) else {
        return unknown_dispatcher(other);
    };
    if report.is_clean() {
        eprintln!(
            "self-test FAILED: sharded re-run with {other} against a {algo} trace reported no drift"
        );
        return ExitCode::FAILURE;
    }
    let first = report
        .first_divergence()
        .map(|d| d.batch_index)
        .expect("non-clean report has a divergence");
    println!("self-test: sharded {other} drift detected at batch {first}, as expected");
    println!("verify OK: sharded run bit-identical across 1 and {many} worker threads");
    ExitCode::SUCCESS
}

fn cmd_verify(args: &Args) -> ExitCode {
    let algo = args.algo.as_deref().unwrap_or("sard").to_ascii_lowercase();
    if !deterministic_keys().contains(&algo.as_str()) {
        eprintln!(
            "{algo:?} is exempt from the replay invariant; verify accepts {}",
            deterministic_keys().join(", ")
        );
        return ExitCode::from(2);
    }
    if let Some(shards) = args.shards {
        return cmd_verify_sharded(args, &algo, shards);
    }
    let Some(config) = run_config(args) else {
        eprintln!("unknown traffic scenario {:?}", args.traffic);
        return usage();
    };
    // An ingested recording goes through the same 1-vs-N replay loop below:
    // the realized boundaries are in the trace, and replay re-feeds them.
    let recorded = if args.ingest {
        record_ingested_run(quickstart_params(args.quick), config, &algo)
    } else {
        record_run(quickstart_params(args.quick), config, &algo).map(|(w, trace, _)| (w, trace))
    };
    let Some((workload, trace)) = recorded else {
        return unknown_dispatcher(&algo);
    };
    print_trace_summary(&trace);

    // Exercise the on-disk path too: everything below replays the parsed
    // form, so a codec regression fails verify rather than hiding.
    let trace = match Trace::parse(&trace.to_text()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("self-test FAILED: trace does not round-trip: {e}");
            return ExitCode::FAILURE;
        }
    };

    let many = args
        .threads
        .unwrap_or_else(rayon::current_num_threads)
        .max(2);
    for threads in [1, many] {
        let Some(report) = replay_in_pool(&workload, &algo, &trace, Some(threads)) else {
            return unknown_dispatcher(&algo);
        };
        println!("threads={threads}: {report}");
        if !report.is_clean() {
            eprintln!("verify FAILED: drift under {threads} worker thread(s)");
            return ExitCode::FAILURE;
        }
    }

    // Self-test: a different dispatcher must be flagged, otherwise the
    // harness itself is broken.
    let other = if algo == "prunegdp" {
        "gas"
    } else {
        "prunegdp"
    };
    let Some(report) = replay_in_pool(&workload, other, &trace, None) else {
        return unknown_dispatcher(other);
    };
    if report.is_clean() {
        eprintln!("self-test FAILED: replaying {other} against a {algo} trace reported no drift");
        return ExitCode::FAILURE;
    }
    let first = report
        .first_divergence()
        .map(|d| d.batch_index)
        .expect("non-clean report has a divergence");
    println!("self-test: {other} drift detected at batch {first}, as expected");
    println!("verify OK: zero drift across 1 and {many} worker threads");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut argv = std::env::args();
    argv.next(); // program name
    let Some((subcommand, args)) = parse_args(argv) else {
        return usage();
    };
    // Fail fast on a bad --algo in any subcommand, naming the registered
    // keys so a typo is a one-glance fix.
    if let Some(algo) = args.algo.as_deref() {
        if dispatcher_by_name(algo, StructRideConfig::default()).is_none() {
            return unknown_dispatcher(algo);
        }
    }
    match subcommand.as_str() {
        "record" => cmd_record(&args),
        "replay" => cmd_replay(&args),
        "resume" => cmd_resume(&args),
        "diff" => cmd_diff(&args),
        "verify" => cmd_verify(&args),
        _ => usage(),
    }
}
