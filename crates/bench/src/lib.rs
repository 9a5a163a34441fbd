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
