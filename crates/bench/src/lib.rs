//! Experiment harness for regenerating the paper's evaluation (§V).
//!
//! Every figure and table of the paper maps to one function in [`harness`]
//! that builds the corresponding workload sweep, runs the relevant dispatcher
//! suite through the batched simulator and prints one TSV row per
//! (workload-point, algorithm) pair — the same series the paper plots.  The
//! `experiments` binary exposes them on the command line; the Criterion
//! benches in `benches/` cover the running-time comparisons at a micro level.
//! [`replay_cli`] is the library half of the `replay` binary (record, replay,
//! resume, diff, verify).
//!
//! Scale note: the workloads are laptop-sized (hundreds to a few thousand
//! requests instead of 250 K), so absolute numbers differ from the paper; the
//! sweep structure, parameter values and relative orderings are what the
//! harness reproduces.

pub mod harness;
pub mod replay_cli;

pub use harness::{ExperimentScale, SuiteKind};

/// `println!` for the binaries' stdout that survives a reader going away:
/// when stdout is a closed pipe (`replay diff … | head`), the process exits
/// quietly with status 141, the status a shell reports for a process that
/// `SIGPIPE` ended, instead of panicking.  Any other write error still
/// panics, as `println!` would.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout_line(::std::format_args!($($arg)*))
    };
}

/// The function behind [`outln!`].
#[doc(hidden)]
pub fn write_stdout_line(line: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        panic!("failed printing to stdout: {e}");
    }
}
