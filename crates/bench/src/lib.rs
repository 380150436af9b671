//! # airdnd-bench — the experiment harness
//!
//! One [`airdnd_harness::Workload`] per table/figure in `EXPERIMENTS.md`,
//! all registered in the unified typed registry ([`workloads::registry`]);
//! the `run_experiments` binary executes them all, prints the tables and
//! writes machine-readable JSON to `target/experiments/`, and the `sweep`
//! binary exposes each grid with `--threads`, `--shard i/n` and `--merge`.
//!
//! The paper is a vision paper with no quantitative evaluation of its own,
//! so each experiment here regenerates a *constructed* figure derived from
//! an explicit claim or research question (see DESIGN.md §4 for the
//! mapping). Experiments run in two sizes: `quick` (seconds, CI-friendly)
//! and `full` (the numbers recorded in EXPERIMENTS.md).

#![forbid(unsafe_code)]

pub mod compare;
pub mod report;
pub mod workloads;

pub use report::{ExperimentResult, Table};
