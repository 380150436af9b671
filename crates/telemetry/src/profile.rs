//! Wall-clock attribution of engine time to simulation phases.
//!
//! This is the one part of the crate that deliberately reads a real
//! clock: it answers "where does a run's wall-clock actually go?" for the
//! `perfbench` benchmark, whose traced runs report each phase's time and
//! entry count. Profiling output is wall-clock and therefore never part
//! of a byte-diffed artifact; a disabled profiler costs one branch per
//! section.

use std::fmt;
use std::time::Instant;

/// The engine phases wall-clock is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Fleet schedule processing: spawns and despawns.
    Lifecycle,
    /// Vehicle kinematics and position updates.
    Movement,
    /// Sensor coverage evaluation and view fusion.
    Sensor,
    /// Mesh membership: beacons, joins, leases.
    Mesh,
    /// Task generation, offload decisions, completion bookkeeping — and
    /// kernel execution: an `Offer` delivery runs the offloaded TaskVM
    /// program synchronously on the helper, so that wall-clock belongs
    /// here, not to the medium.
    Tasks,
    /// Radio frame scheduling and medium/protocol delivery work only
    /// (task execution triggered by a delivery books under [`Phase::Tasks`]).
    Radio,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 6] = [
        Phase::Lifecycle,
        Phase::Movement,
        Phase::Sensor,
        Phase::Mesh,
        Phase::Tasks,
        Phase::Radio,
    ];

    fn index(self) -> usize {
        match self {
            Phase::Lifecycle => 0,
            Phase::Movement => 1,
            Phase::Sensor => 2,
            Phase::Mesh => 3,
            Phase::Tasks => 4,
            Phase::Radio => 5,
        }
    }

    /// The phase's report key.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Lifecycle => "lifecycle",
            Phase::Movement => "movement",
            Phase::Sensor => "sensor",
            Phase::Mesh => "mesh",
            Phase::Tasks => "tasks",
            Phase::Radio => "radio",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Accumulates wall-clock nanoseconds and entry counts per [`Phase`].
#[derive(Clone, Debug)]
pub struct PhaseProfiler {
    enabled: bool,
    nanos: [u128; 6],
    entries: [u64; 6],
}

impl PhaseProfiler {
    /// A profiler that measures nothing.
    pub fn disabled() -> Self {
        PhaseProfiler {
            enabled: false,
            nanos: [0; 6],
            entries: [0; 6],
        }
    }

    /// A profiler that accumulates wall-clock per phase.
    pub fn enabled() -> Self {
        PhaseProfiler {
            enabled: true,
            nanos: [0; 6],
            entries: [0; 6],
        }
    }

    /// Whether this profiler measures anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Times `body` and attributes the elapsed wall-clock to `phase`.
    /// When disabled this is just the call to `body`.
    pub fn section<T>(&mut self, phase: Phase, body: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return body();
        }
        let start = Instant::now();
        let out = body();
        self.nanos[phase.index()] += start.elapsed().as_nanos();
        self.entries[phase.index()] += 1;
        out
    }

    /// Attributes externally measured wall-clock to `phase` (one entry).
    /// A no-op when disabled — callers that cannot hold the profiler
    /// across a section (borrow discipline) time with their own
    /// `Instant` and deposit the elapsed nanoseconds here.
    pub fn record_nanos(&mut self, phase: Phase, nanos: u128) {
        if !self.enabled {
            return;
        }
        self.nanos[phase.index()] += nanos;
        self.entries[phase.index()] += 1;
    }

    /// Accumulated wall-clock for `phase`, nanoseconds.
    pub fn nanos(&self, phase: Phase) -> u128 {
        self.nanos[phase.index()]
    }

    /// Times `phase` was entered.
    pub fn entries(&self, phase: Phase) -> u64 {
        self.entries[phase.index()]
    }
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        PhaseProfiler::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_accumulates_nothing() {
        let mut p = PhaseProfiler::disabled();
        let out = p.section(Phase::Movement, || 41 + 1);
        assert_eq!(out, 42);
        assert!(Phase::ALL.iter().all(|&phase| p.nanos(phase) == 0));
        assert_eq!(p.entries(Phase::Movement), 0);
    }

    #[test]
    fn enabled_profiler_counts_entries_and_time() {
        let mut p = PhaseProfiler::enabled();
        for _ in 0..3 {
            p.section(Phase::Radio, || std::hint::black_box(1 + 1));
        }
        assert_eq!(p.entries(Phase::Radio), 3);
        assert_eq!(p.entries(Phase::Mesh), 0);
        assert!(Phase::ALL
            .iter()
            .all(|&phase| phase == Phase::Radio || p.nanos(phase) == 0));
    }
}
