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

use structride_bench::harness;
use structride_bench::ExperimentScale;

/// The names that select an experiment, and the function that runs it.
type Experiment = (&'static [&'static str], fn(&ExperimentScale));

/// Every experiment in output order: the one list arguments are validated
/// against, the usage text is printed from and the run walks.
const EXPERIMENTS: &[Experiment] = &[
    (&["fig8"], harness::fig8_vary_vehicles),
    (&["fig9"], harness::fig9_vary_requests),
    (&["fig10"], harness::fig10_vary_gamma),
    (&["fig11"], harness::fig11_vary_capacity),
    (&["fig12"], harness::fig12_vary_penalty),
    (&["fig13"], harness::fig13_vary_batch),
    (&["fig14"], harness::fig14_memory),
    (&["fig15"], harness::fig15_cainiao),
    (
        &["fig16", "fig17"],
        harness::fig16_fig17_capacity_distribution,
    ),
    (&["table_pruning"], harness::table_angle_pruning),
    (&["insertion_order"], harness::insertion_order_study),
    (&["ablation_candidates"], harness::ablation_candidate_cap),
    (&["angle_model"], |_| harness::angle_probability_model()),
];

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
    harness::print_header();
    for (names, run) in EXPERIMENTS {
        if selected.iter().any(|arg| selects(arg, names)) {
            run(&scale);
        }
    }
}
