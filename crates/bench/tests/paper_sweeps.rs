//! The paper's sweeps against their decision golden.
//!
//! `tests/data/experiments_quick.tsv` is `experiments all --quick` with the
//! wall-clock `runtime_s` and the race-prone `sp_queries` columns masked as
//! `-`; CI diffs the whole run against it under 1 and 4 worker threads.  Here
//! the Fig. 14 sweep's rows, rendered the same way, must equal the golden's
//! `fig14` lines under either worker count — `memory_bytes` included, since
//! it counts entries and so is a function of the run.

use structride_bench::harness::{run_sweep, Row, SWEEPS};
use structride_bench::ExperimentScale;

/// A row as the `experiments` binary prints it, columns 10–11 masked.
fn masked(row: &Row) -> String {
    let line = format!(
        "{}\t{}={}\t{}",
        row.experiment,
        row.sweep,
        row.value,
        row.metrics.tsv_row()
    );
    let mut cols: Vec<&str> = line.split('\t').collect();
    cols[9] = "-";
    cols[10] = "-";
    cols.join("\t")
}

#[test]
fn fig14_rows_match_the_golden_under_1_and_4_threads() {
    let golden = include_str!("data/experiments_quick.tsv");
    let expected: Vec<&str> = golden
        .lines()
        .filter(|l| l.starts_with("fig14\t"))
        .collect();
    assert_eq!(expected.len(), 10, "two cities × the five-dispatcher suite");
    let fig14 = SWEEPS
        .iter()
        .find(|s| s.experiment == "fig14")
        .expect("the fig14 sweep");
    for threads in [1, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let rows = pool.install(|| run_sweep(fig14, &ExperimentScale::quick()));
        let got: Vec<String> = rows.iter().map(masked).collect();
        assert_eq!(got, expected, "{threads} worker thread(s)");
    }
}
