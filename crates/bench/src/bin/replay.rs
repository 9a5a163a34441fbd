//! Record/replay front end for the dispatcher-determinism harness.
//!
//! ```text
//! replay record  [--quick | --preset city] [--algo KEY] [--out PATH] [--shards N] [--ingest]
//!                [--traffic T] [--chaos] [--checkpoint PATH] [--stages PATH]
//! replay replay  --trace PATH [--algo KEY] [--threads N]
//! replay resume  --trace PATH --checkpoint PATH [--threads N]
//! replay diff    --trace PATH --against PATH
//! replay verify  [--quick | --preset city] [--algo KEY] [--threads N] [--shards N] [--ingest]
//!                [--traffic T] [--chaos]
//! ```
//!
//! * `record` runs the quickstart-style workload under the chosen dispatcher
//!   and writes the `(batch, fleet-state, outcome)` trace to `--out`.  Its
//!   `param` lines are the run's `Scenario`; it writes no query counts, so
//!   recordings of one scenario are byte-identical under any worker count.
//!   With `--stages PATH` it also writes the run's per-batch stage table
//!   (`structride_core::StageTable`, TSV: wall time of each top-level stage,
//!   CPU time of each dispatch stage summed over workers); the trace is the
//!   same bytes either way.
//! * `--quick` and `--preset city` pick the run's size: CI scale, the
//!   benchmark's single city (NYC-like, scale 4.0, 2 400 requests, 400
//!   vehicles, 432 s — the sizes of its `city_sard` and `city_assign`
//!   workloads; monolithic pipeline only), or, with neither, the default in
//!   between.  `record --preset city --stages FILE` tables where a batch's
//!   time goes at benchmark scale.
//! * `replay` loads a trace, reads its scenario back strictly (a missing,
//!   unknown or duplicate `param` key, or a bad value, exits 1 with `bad
//!   scenario in trace: …` naming the key), regenerates the workload and
//!   checks the trace against a fresh dispatcher (optionally under an
//!   explicit worker-thread count); exits non-zero on any drift.
//! * `diff` compares two trace files batch by batch (inputs, clock,
//!   pre-dispatch fleet, outcomes) and exits non-zero on any drift, naming
//!   the first divergent field.
//! * `verify` is the CI smoke flow: record in-process, check under 1 and N
//!   worker threads asserting zero drift, then check with a *different*
//!   dispatcher and assert the harness flags the drift (self-test).
//!
//! `--shards N` (N ≥ 1) switches `record`/`verify` to the **sharded** pipeline:
//! a two-city multi-region workload dispatched by `N` parallel shards with one
//! `KEY` dispatcher each.  A sharded trace records the canonical global view
//! (release-ordered batches, id-sorted union fleet, shard-ordered merged
//! outcomes); `replay` knows such traces by their scenario, re-runs the
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
//! the traffic config so `replay` reproduces the exact epoch sequence from
//! the batch clock alone.
//!
//! `--chaos` turns on the deterministic fault injector's chaos preset
//! (`FaultConfig::chaos()`: periodic shard outages with failover, a solver
//! node budget, a checkpoint cadence).  The fault config lands in the trace,
//! so a faulted recording replays bit-identically — the
//! degraded-mode schedule is pure in `(config, batch clock)`.  With
//! `--checkpoint PATH`, `record` also writes the run's mid-run checkpoint
//! (full simulation state at a fault-plan checkpoint boundary) to `PATH`;
//! `resume` then loads it, continues the run to completion, and verifies it
//! finishes bit-identically to the uninterrupted reference (re-run
//! in-process from the trace's scenario) — the kill-at-checkpoint/restore
//! smoke, exercised under 1 and N worker threads in CI.  A checkpoint that
//! does not fit the scenario (another workload, configuration, dispatcher
//! or shard count) is refused with `cannot resume: …`, exit 1.
//!
//! `KEY` is any registered dispatcher key — `sard`, `assign` (the exact
//! global-assignment dispatcher), `rtv`, `prunegdp` (alias `gdp`), `gas`,
//! `darm`, `ticket` — as reported by the dispatcher registry
//! (`structride_baselines::standard_registry`).

use std::num::NonZeroUsize;
use std::process::ExitCode;
use structride_bench::outln;
use structride_bench::replay_cli::{traffic_by_name, TRAFFIC_KEYS};
use structride_bench::scenario::{
    dispatcher_by_name, dispatcher_keys, Pipeline, Scenario, ScenarioWorkload, Size, Source,
};
use structride_core::replay::{diff_traces, Checkpoint, Trace};
use structride_core::shard::ShardingConfig;
use structride_core::{FaultConfig, StageTable, StructRideConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: replay record [--quick | --preset city] [--algo KEY] [--out PATH] [--shards N] [--ingest] [--traffic T] [--chaos] [--checkpoint PATH] [--stages PATH]\n\
         \x20      replay replay --trace PATH [--algo KEY] [--threads N]\n\
         \x20      replay resume --trace PATH --checkpoint PATH [--threads N]\n\
         \x20      replay diff   --trace PATH --against PATH\n\
         \x20      replay verify [--quick | --preset city] [--algo KEY] [--threads N] [--shards N] [--ingest] [--traffic T] [--chaos]\n\
         KEY: {}\n\
         T: {}",
        dispatcher_keys().join(", "),
        TRAFFIC_KEYS.join(", ")
    );
    ExitCode::from(2)
}

struct Args {
    quick: bool,
    preset: Option<String>,
    algo: Option<String>,
    out: Option<String>,
    trace: Option<String>,
    against: Option<String>,
    threads: Option<usize>,
    shards: Option<NonZeroUsize>,
    ingest: bool,
    traffic: Option<String>,
    chaos: bool,
    checkpoint: Option<String>,
    stages: Option<String>,
}

fn parse_args(mut argv: std::env::Args) -> Option<(String, Args)> {
    let subcommand = argv.next()?;
    let mut args = Args {
        quick: false,
        preset: None,
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
        stages: None,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--preset" => args.preset = Some(argv.next()?),
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
            "--stages" => args.stages = Some(argv.next()?),
            _ => return None,
        }
    }
    Some((subcommand, args))
}

/// The quickstart scenario the `record`/`verify` flags describe, run by the
/// `algo` dispatcher: default configuration, plus the chosen traffic scenario
/// (compressed to the workload's horizon) with `--traffic` and the chaos
/// preset with `--chaos`.  An unknown `--traffic` key is a usage error.
fn flag_scenario(args: &Args, algo: &str) -> Result<Scenario, ExitCode> {
    let pipeline = match args.shards {
        None => Pipeline::Mono,
        Some(shards) => Pipeline::Sharded {
            shards,
            sharding: ShardingConfig::default(),
        },
    };
    let source = if args.ingest {
        Source::Ingest
    } else {
        Source::Clock
    };
    let size = match (args.quick, args.preset.as_deref()) {
        (false, None) => Size::Default,
        (true, None) => Size::Quick,
        (false, Some("city")) if args.shards.is_none() => Size::City,
        _ => {
            eprintln!("the one preset is city, and it takes neither --quick nor --shards");
            return Err(usage());
        }
    };
    let algo = algo.to_ascii_lowercase();
    let config = StructRideConfig::default();
    let mut scenario = Scenario::quickstart(size, &algo, pipeline, source, config);
    if let Some(key) = args.traffic.as_deref() {
        let horizon = match &scenario.workload {
            ScenarioWorkload::Single(params) => params.horizon,
            ScenarioWorkload::Regions(params) => params.horizon,
        };
        let Some(traffic) = traffic_by_name(key, horizon) else {
            eprintln!("unknown traffic scenario {key:?}");
            return Err(usage());
        };
        scenario.config.traffic = traffic;
    }
    if args.chaos {
        scenario.config.faults = FaultConfig::chaos();
    }
    Ok(scenario)
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
    if let Some(s) = trace.meta.build_stats {
        eprintln!("# sharegraph: {s:?}");
    }
}

fn cmd_record(args: &Args) -> ExitCode {
    let out = args.out.as_deref().unwrap_or("replay-trace.txt");
    let scenario = match flag_scenario(args, args.algo.as_deref().unwrap_or("sard")) {
        Ok(scenario) => scenario,
        Err(code) => return code,
    };
    if args.checkpoint.is_some() {
        if args.ingest {
            eprintln!("--checkpoint applies to the clock-driven pipelines; drop --ingest");
            return usage();
        }
        if scenario.config.faults.checkpoint_every == 0 {
            eprintln!("--checkpoint needs a checkpoint cadence; pass --chaos");
            return usage();
        }
    }
    let mut table = StageTable::new();
    let (trace, checkpoints) = match args.stages {
        Some(_) => scenario.record_observed(&mut table),
        None => scenario.record(),
    };
    if let Some(path) = args.stages.as_deref() {
        if let Err(e) = std::fs::write(path, table.to_tsv()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("# wrote {path} ({} batches)", table.rows.len());
    }
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

/// Loads a trace file and the scenario its metadata describes, reporting
/// either failure on stderr.
fn load_scenario(path: &str) -> Result<(Trace, Scenario), ExitCode> {
    let trace = load_trace(path)?;
    print_trace_summary(&trace);
    match Scenario::from_meta(&trace.meta) {
        Ok(scenario) => Ok((trace, scenario)),
        Err(e) => {
            eprintln!("bad scenario in trace: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// Checks a trace file against a fresh run of its scenario (or of `--algo`)
/// under the requested worker-thread count.
fn cmd_replay(args: &Args) -> ExitCode {
    let Some(path) = args.trace.as_deref() else {
        return usage();
    };
    let (trace, scenario) = match load_scenario(path) {
        Ok(loaded) => loaded,
        Err(code) => return code,
    };
    let algo = args.algo.as_deref().unwrap_or(&scenario.dispatcher);
    let report = in_pool(args.threads, || scenario.check(&trace, algo));
    outln!("{report}");
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The kill-at-checkpoint/restore smoke: load the checkpoint a faulted
/// `record --checkpoint` run wrote, resume the run from it (under the
/// requested worker-thread count) and verify it finishes bit-identically to
/// the uninterrupted reference re-run in-process from the trace's scenario.
fn cmd_resume(args: &Args) -> ExitCode {
    let (Some(trace_path), Some(ckpt_path)) = (args.trace.as_deref(), args.checkpoint.as_deref())
    else {
        return usage();
    };
    let scenario = match load_scenario(trace_path) {
        Ok((_, scenario)) => scenario,
        Err(code) => return code,
    };
    let checkpoint = match Checkpoint::load(ckpt_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("failed to load {ckpt_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "# checkpoint: batch {} now {} shards {}",
        checkpoint.batches,
        checkpoint.now,
        checkpoint.shards.len()
    );
    let mismatches = in_pool(args.threads, || scenario.resume_and_verify(&checkpoint));
    if mismatches.is_empty() {
        outln!(
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
    outln!("{report}");
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The CI smoke flow for every pipeline and source: record in-process,
/// check the parsed trace under 1 and N worker threads asserting zero drift,
/// then check it with a *different* dispatcher and assert the drift is
/// flagged (self-test).
fn cmd_verify(args: &Args) -> ExitCode {
    let algo = args.algo.as_deref().unwrap_or("sard").to_ascii_lowercase();
    let scenario = match flag_scenario(args, &algo) {
        Ok(scenario) => scenario,
        Err(code) => return code,
    };
    let (trace, _) = scenario.record();
    print_trace_summary(&trace);

    // Exercise the on-disk path too: everything below checks the parsed
    // form, so a codec regression fails verify rather than hiding.
    let trace = match Trace::parse(&trace.to_text()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("self-test FAILED: trace does not round-trip: {e}");
            return ExitCode::FAILURE;
        }
    };
    if Scenario::from_meta(&trace.meta).as_ref() != Ok(&scenario) {
        eprintln!("self-test FAILED: the trace does not read back as the recorded scenario");
        return ExitCode::FAILURE;
    }

    let many = args
        .threads
        .unwrap_or_else(rayon::current_num_threads)
        .max(2);
    for threads in [1, many] {
        let report = in_pool(Some(threads), || scenario.check(&trace, &algo));
        outln!("threads={threads}: {report}");
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
    let report = scenario.check(&trace, other);
    if report.is_clean() {
        eprintln!("self-test FAILED: checking {other} against a {algo} trace reported no drift");
        return ExitCode::FAILURE;
    }
    let first = report
        .first_divergence()
        .map(|d| d.batch_index)
        .expect("non-clean report has a divergence");
    outln!("self-test: {other} drift detected at batch {first}, as expected");
    outln!("verify OK: zero drift across 1 and {many} worker threads");
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
