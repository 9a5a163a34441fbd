//! The repo benchmark: four workloads, nine end-to-end metrics, per-layer
//! kernels and a traced run.  See README.md for the metric tables and
//! `/BENCHMARK.json` for the contract the acceptance driver holds it to.
//!
//! ```text
//! structride-benchmark run [--seed N] [--workload NAME] [--seconds S] [--smoke] [--out DIR]
//! structride-benchmark compare A.json B.json
//! structride-benchmark --workload NAME --seed N --seconds S --trace 0|1   (one measurement)
//! ```

mod checks;
mod json;
mod kernels;
mod metrics;
mod probe;
mod report;
mod span;
mod stats;
mod timed;
mod traced;
mod workloads;

use json::Json;
use metrics::table_to_driver_json;
use report::{Results, WorkloadResult};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{spec, Size, WORKLOADS};

/// Measuring window of one run, seconds (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 16.0;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    /// Where result files go; a single measurement writes none without it.
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        size: Size::Full,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => options.workload = Some(value()?),
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => options.size = Size::Smoke,
            "--out" => options.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(options)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn write_file(path: &Path, json: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One measurement of one workload in this process: the timed run
/// (`--trace 0`, end-to-end metrics) or the traced run (`--trace 1`,
/// per-layer metrics).  Prints the single JSON line the acceptance driver
/// reads; with `--out` also writes the detailed result file.
fn measure(options: &Options) -> Result<bool, String> {
    let name = options
        .workload
        .as_deref()
        .ok_or("--workload is required")?;
    let spec = spec(name, options.size)
        .ok_or_else(|| format!("unknown workload {name}; known: {}", WORKLOADS.join(", ")))?;
    let threads = spec.threads(nproc());
    // The rayon stand-in reads this once, at its first parallel call; nothing
    // has spawned a thread yet.
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let mut result = WorkloadResult {
        workload: spec.name.to_string(),
        why: spec.why.to_string(),
        params: spec.params_line(),
        threads,
        ..WorkloadResult::default()
    };
    let mut spans = None;
    if options.trace {
        let traced = traced::run_traced(&spec, options.seed, threads);
        result.ops_attempted = traced.attempted;
        result.ops_failed = traced.failed;
        result.failures = traced.failures;
        result.per_layer = traced.table;
        result.extras = traced.extras;
        spans = Some(traced.spans.to_json());
    } else {
        let full = options.size == Size::Full;
        let timed = timed::run_timed(&spec, options.seed, options.seconds, full);
        result.ops_attempted = timed.attempted;
        result.ops_failed = timed.failed;
        result.failures = timed.failures;
        result.repeats = timed.repeats;
        result.repeat_wall_s = timed.repeat_wall_s;
        result.end_to_end = timed.table;
    }
    result.correct = result.failures.is_empty();
    for failure in &result.failures {
        eprintln!("check failed: {failure}");
    }
    if let Some(dir) = &options.out {
        let mut file = result.to_json();
        if let (Json::Obj(pairs), Some(spans)) = (&mut file, spans) {
            pairs.push(("spans".to_string(), spans));
        }
        let kind = if options.trace { "trace" } else { "timed" };
        write_file(&dir.join(format!("{kind}_{name}.json")), &file)?;
    }
    let table = if options.trace {
        &result.per_layer
    } else {
        &result.end_to_end
    };
    let line = Json::obj([
        ("correct", Json::Bool(result.correct)),
        ("attempted", Json::Num(result.ops_attempted.max(1) as f64)),
        ("failed", Json::Num(result.ops_failed as f64)),
        ("metrics", table_to_driver_json(table)),
    ]);
    println!("{}", line.render());
    Ok(result.correct)
}

/// The one command: every workload (or one), each in child processes of its
/// own — a timed one, then a traced one — so peak memory and the worker pool
/// are per workload.  Prints every metric, writes `results.json` and one
/// `trace_<workload>.json` per workload.
fn run(options: &Options) -> Result<bool, String> {
    let names: Vec<&str> = match options.workload.as_deref() {
        Some(name) if WORKLOADS.contains(&name) => vec![name],
        Some(name) => {
            return Err(format!(
                "unknown workload {name}; known: {}",
                WORKLOADS.join(", ")
            ))
        }
        None => WORKLOADS.to_vec(),
    };
    let out = options
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("benchmark/out"));
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    println!("workload metric value unit n spread");
    for name in names {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name, "--trace", trace])
                .args(["--seed", &options.seed.to_string()])
                .args(["--seconds", &options.seconds.to_string()])
                .arg("--out")
                .arg(&out)
                .stdout(std::process::Stdio::null());
            if options.size == Size::Smoke {
                child.arg("--smoke");
            }
            let status = child
                .status()
                .map_err(|e| format!("cannot start {name}: {e}"))?;
            all_correct &= status.success();
        }
        let timed_path = out.join(format!("timed_{name}.json"));
        let mut result = WorkloadResult::from_json(&read_json(&timed_path)?)?;
        let trace = read_json(&out.join(format!("trace_{name}.json")))?;
        let traced = WorkloadResult::from_json(&trace)?;
        // The traced run's tables join the timed run's; its failures count.
        result.per_layer = traced.per_layer;
        result.extras = traced.extras;
        result.failures.extend(traced.failures);
        result.correct &= traced.correct;
        // The merged result lives in results.json.
        let _ = std::fs::remove_file(&timed_path);
        for line in result.lines() {
            println!("{line}");
        }
        all_correct &= result.correct;
        workloads.push(result);
    }
    let results = Results {
        seed: options.seed,
        seconds: options.seconds,
        size: if options.size == Size::Full {
            "full"
        } else {
            "smoke"
        }
        .to_string(),
        nproc: nproc(),
        workloads,
    };
    write_file(&out.join("results.json"), &results.to_json())?;
    eprintln!("wrote {}", out.join("results.json").display());
    Ok(all_correct)
}

/// `compare A.json B.json`: B against A, per workload × end-to-end metric.
fn compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare takes two result files".to_string());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Results::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (rows, any_outside) = report::compare(&load(a)?, &load(b)?);
    for row in rows {
        println!("{row}");
    }
    Ok(!any_outside)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_options(&args[1..]).and_then(|o| run(&o)),
        Some("compare") => compare(&args[1..]),
        _ => parse_options(&args).and_then(|o| measure(&o)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{END_TO_END, PER_LAYER};

    /// The `--smoke` size: all four workloads through the timed run, the
    /// traced run and every correctness check, in a few seconds.
    #[test]
    fn smoke_size_exercises_every_workload_and_check() {
        for name in WORKLOADS {
            let spec = spec(name, Size::Smoke).expect("listed workload");
            let timed = timed::run_timed(&spec, 42, 0.2, false);
            assert!(timed.failures.is_empty(), "{name}: {:?}", timed.failures);
            assert_eq!(timed.failed, 0, "{name}");
            assert!(timed.attempted >= 3 * spec.requests - 9, "{name}");
            let names: Vec<&str> = timed.table.iter().map(|(n, _)| n.as_str()).collect();
            let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, expected, "{name}");
            for ((metric, value), declared) in timed.table.iter().zip(&END_TO_END) {
                assert!(
                    value.value.is_finite() && value.value > 0.0,
                    "{name} {metric}"
                );
                assert_eq!(value.unit, declared.unit, "{name} {metric}");
            }

            let traced = traced::run_traced(&spec, 42, spec.threads(nproc()));
            assert!(traced.failures.is_empty(), "{name}: {:?}", traced.failures);
            let names: Vec<&str> = traced.table.iter().map(|(n, _)| n.as_str()).collect();
            let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
            assert_eq!(names, expected, "{name}");
            assert!(
                traced.table.iter().all(|(_, v)| v.value.is_finite()),
                "{name}"
            );
            // Root span, set-up, one dispatch span per call, kernels beneath
            // their own root.
            let count = |n: &str| traced.spans.spans.iter().filter(|s| s.name == n).count();
            assert_eq!(
                (count("run"), count("setup"), count("kernels")),
                (1, 1, 1),
                "{name}"
            );
            assert!(count("core.dispatch") > 10, "{name}");
            let kernels = traced.spans.spans.iter().position(|s| s.name == "kernels");
            for kernel in [
                "model.insert_request",
                "sharegraph.add_batch",
                "roadnet.roll_epoch_to",
            ] {
                assert!(
                    traced
                        .spans
                        .spans
                        .iter()
                        .any(|s| s.name == kernel && s.parent == kernels),
                    "{name} {kernel}"
                );
            }
        }
    }

    #[test]
    fn options_parse_the_driver_flags_and_reject_the_rest() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_options(&args(
            "--workload city_sard --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("city_sard"));
        assert!(o.seed == 7 && o.seconds == 12.0 && o.trace && o.size == Size::Full);
        assert!(parse_options(&args("--smoke")).unwrap().size == Size::Smoke);
        for bad in [
            "--trace 2",
            "--seconds 0",
            "--seconds x",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse_options(&args(bad)).is_err(), "{bad}");
        }
    }
}
