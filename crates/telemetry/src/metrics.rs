//! The deterministic metrics registry.
//!
//! Counters here are part of the *deterministic output surface*: they
//! hold only integers, never read a wall clock, and iterate in
//! `BTreeMap` order, so two runs with the same seed produce
//! byte-identical registries regardless of thread count or telemetry
//! settings. The registry holds run-wide counters only; every figure
//! about a query, per-ego fairness included, is a fold over the
//! scenario runner's outcome ledger.

use std::collections::BTreeMap;

/// What a metric is keyed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// A run-wide metric.
    Global,
}

/// Integer counters keyed by a static name and a scope. Names are
/// `&'static str`, so a hot-path increment allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<(&'static str, Scope), u64>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `delta` to the counter `name` at `scope`.
    pub fn add(&mut self, name: &'static str, scope: Scope, delta: u64) {
        *self.counters.entry((name, scope)).or_insert(0) += delta;
    }

    /// Increments the counter `name` at `scope` by one.
    pub fn inc(&mut self, name: &'static str, scope: Scope) {
        self.add(name, scope, 1);
    }

    /// Reads a counter (0 if never written).
    pub fn counter(&self, name: &str, scope: Scope) -> u64 {
        // The map is covariant in its key, so a borrowed name can look
        // up a `&'static str` key without allocating.
        let counters: &BTreeMap<(&str, Scope), u64> = &self.counters;
        counters.get(&(name, scope)).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_scope() {
        let mut reg = Registry::new();
        reg.inc("frame_drops", Scope::Global);
        reg.inc("frame_drops", Scope::Global);
        reg.add("frame_drops_queue_cap", Scope::Global, 120);
        assert_eq!(reg.counter("frame_drops", Scope::Global), 2);
        assert_eq!(reg.counter("frame_drops_queue_cap", Scope::Global), 120);
        assert_eq!(reg.counter("never_written", Scope::Global), 0);
        // A name built at run time finds the static key.
        let name = String::from("frame_drops");
        assert_eq!(reg.counter(&name, Scope::Global), 2);
    }
}
