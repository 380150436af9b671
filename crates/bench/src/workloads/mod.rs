//! The unified experiment registry: every figure and table in
//! `EXPERIMENTS.md` — grid-shaped scenario sweeps, the latency CDF, the
//! selection ablation, the market-mechanism comparisons, the NFV churn
//! study and the selection micro-benchmark — declared as one
//! [`airdnd_harness::Workload`] each and registered here, in
//! EXPERIMENTS.md order.
//!
//! One registry drives everything: `run_experiments` farms the entries
//! across the harness pool, the `sweep` binary exposes per-run grids with
//! `--threads`/`--shard i/n`/`--merge`, and the aggregate JSON/CSV
//! artifacts all render through the same workload-polymorphic path. No
//! experiment hand-rolls its own loop anymore.
//!
//! Determinism: every workload except F10 is a pure function of its
//! config, so tables and artifacts are byte-identical across thread
//! counts and shard splits. F10 measures wall-clock selection cost and is
//! the one deliberate exception (documented on [`selection`]).

pub mod city;
pub mod lifecycle;
pub mod market;
pub mod nfv;
pub mod scenario;
pub mod selection;
pub mod worldgen;

use airdnd_harness::AnyWorkload;

/// Seed replicates per cell for the CI-replicated figures (F1/F2/F4/F7
/// and the T6/F12 market rows): full mode runs
/// [`scenario::FULL_REPLICATES`]; quick stays single-shot so CI finishes
/// in seconds.
pub(crate) fn full_mode_replicates(quick: bool) -> usize {
    if quick {
        1
    } else {
        scenario::FULL_REPLICATES
    }
}

/// Every experiment as a type-erased workload, in EXPERIMENTS.md order.
pub fn registry() -> Vec<Box<dyn AnyWorkload>> {
    vec![
        Box::new(scenario::f1()),
        Box::new(scenario::f2()),
        Box::new(scenario::f3()),
        Box::new(scenario::f4()),
        Box::new(scenario::t5()),
        Box::new(market::t6()),
        Box::new(scenario::f7()),
        Box::new(scenario::f8()),
        Box::new(scenario::t9()),
        Box::new(selection::f10()),
        Box::new(nfv::t11()),
        Box::new(market::f12()),
        Box::new(worldgen::g1()),
        Box::new(worldgen::g2()),
        Box::new(lifecycle::g3()),
        Box::new(lifecycle::g4()),
        Box::new(city::g5()),
    ]
}

/// Looks up one workload by registry id.
pub fn find(name: &str) -> Option<Box<dyn AnyWorkload>> {
    registry().into_iter().find(|w| w.name() == name)
}

/// The registry ids, in order.
pub fn names() -> Vec<&'static str> {
    registry().iter().map(|w| w.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_canonical_and_unique() {
        let names = names();
        assert_eq!(
            names,
            [
                "f1", "f2", "f3", "f4", "t5", "t6", "f7", "f8", "t9", "f10", "t11", "f12", "g1",
                "g2", "g3", "g4", "g5"
            ]
        );
        for name in &names {
            assert!(find(name).is_some());
        }
        assert!(find("nope").is_none());
    }

    /// Every workload's quick grid expands to a non-empty manifest — an
    /// empty grid would make `run_experiments` silently print nothing.
    #[test]
    fn every_workload_expands_runs() {
        for workload in registry() {
            assert!(
                workload.total_runs(true) > 0,
                "{} quick grid is empty",
                workload.name()
            );
            assert!(
                workload.total_runs(false) >= workload.total_runs(true),
                "{} full grid smaller than quick",
                workload.name()
            );
        }
    }
}
