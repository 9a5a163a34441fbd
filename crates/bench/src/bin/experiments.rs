//! The experiment runner regenerating the paper's figures and tables.
//!
//! ```text
//! experiments [EXPERIMENT ...] [--quick]
//!
//! EXPERIMENT ∈ { fig8, fig9, fig10, fig11, fig12, fig13, fig14, fig15,
//!                fig16, fig17, table_pruning, insertion_order,
//!                ablation_candidates, angle_model, all }
//! ```
//!
//! Output is TSV on stdout: one row per (sweep point, algorithm) with the
//! metrics the paper plots (service rate, unified cost, running time,
//! shortest-path queries, memory).  `--quick` shrinks the workloads for a
//! fast smoke run; no experiment name means `all`.  An unknown name or flag
//! prints the usage on stderr and exits 2 before anything runs.

use structride_bench::harness::{self, Row, SWEEPS};
use structride_bench::{outln, ExperimentScale};
use structride_core::RunMetrics;

/// The names that select an experiment, and the study it runs — `None` for
/// the harness sweeps whose experiment label is one of the names.
type Experiment = (&'static [&'static str], Option<fn(&ExperimentScale)>);

/// Every experiment in output order: the one list arguments are validated
/// against, the usage text is printed from and the run walks.
const EXPERIMENTS: &[Experiment] = &[
    (&["fig8"], None),
    (&["fig9"], None),
    (&["fig10"], None),
    (&["fig11"], None),
    (&["fig12"], None),
    (&["fig13"], None),
    (&["fig14"], None),
    (&["fig15"], None),
    (&["fig16", "fig17"], None),
    (&["table_pruning"], None),
    (&["insertion_order"], Some(harness::insertion_order_study)),
    (&["ablation_candidates"], None),
    (
        &["angle_model"],
        Some(|_| harness::angle_probability_model()),
    ),
];

/// The one TSV rendering of a sweep row: experiment, `key=value` and the
/// metrics columns; the angle-pruning table adds SARD's build counters.
fn print_row(row: &Row) {
    let (experiment, sweep, value) = (row.experiment, row.sweep, &row.value);
    let line = format!("{experiment}\t{sweep}={value}\t{}", row.metrics.tsv_row());
    match row.build_stats.filter(|_| experiment == "table_pruning") {
        Some(s) => outln!(
            "{line}\tangle_pruned={}\tchecks={}",
            s.angle_pruned,
            s.shareability_checks
        ),
        None => outln!("{line}"),
    }
}

fn selects(arg: &str, names: &[&str]) -> bool {
    arg == "all" || names.contains(&arg)
}

fn usage_and_exit(problem: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS
        .iter()
        .flat_map(|(names, _)| names.iter().copied())
        .collect();
    eprintln!(
        "{problem}\nusage: experiments [EXPERIMENT ...] [--quick]\nEXPERIMENT: {}, all",
        names.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut selected: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else if arg.starts_with("--") {
            usage_and_exit(&format!("unknown flag {arg:?}"));
        } else if EXPERIMENTS.iter().any(|(names, _)| selects(&arg, names)) {
            selected.push(arg);
        } else {
            usage_and_exit(&format!("unknown experiment {arg:?}"));
        }
    }
    if selected.is_empty() {
        selected.push("all".to_string());
    }
    let scale = if quick {
        ExperimentScale::quick()
    } else {
        ExperimentScale::standard()
    };

    eprintln!(
        "# running {:?} at scale: {} requests / {} vehicles / horizon {}s",
        selected, scale.requests, scale.vehicles, scale.horizon
    );
    outln!("experiment\tsweep\t{}", RunMetrics::tsv_header());
    for (names, study) in EXPERIMENTS {
        if !selected.iter().any(|arg| selects(arg, names)) {
            continue;
        }
        match study {
            Some(run) => run(&scale),
            None => {
                for sweep in SWEEPS.iter().filter(|s| names.contains(&s.experiment)) {
                    harness::run_sweep(sweep, &scale).iter().for_each(print_row);
                }
            }
        }
    }
}
