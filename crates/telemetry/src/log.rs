//! The bounded per-category event ring.
//!
//! One ring per [`EventCategory`] means a flood of radio frames cannot
//! evict the (much sparser) lifecycle or mesh history. Rings drop their
//! *oldest* entry when full — the tail of a run is usually the part a
//! test wants to see — and count what they dropped so a truncated log is
//! never mistaken for a complete one. A disabled log records nothing and
//! allocates nothing.

use crate::event::{Event, EventCategory, EventKind};
use crate::query::TraceQuery;
use airdnd_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;

/// An event plus its global record sequence number.
///
/// The sequence number is the recording order across *all* categories —
/// it is what makes ordering assertions (`a precedes b`) and the merged
/// view deterministic even when two events share a virtual timestamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Recorded {
    /// Global recording order (0-based, gap-free until a ring drops).
    pub seq: u64,
    /// The recorded event.
    pub event: Event,
}

impl fmt::Display for Recorded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.event.fmt(f)
    }
}

/// A bounded, per-category ring of typed events.
#[derive(Clone, Debug)]
pub struct EventLog {
    enabled: bool,
    capacity: usize,
    rings: [VecDeque<Recorded>; 5],
    dropped: [u64; 5],
    next_seq: u64,
}

impl EventLog {
    /// A log that records nothing (the zero-cost default).
    pub fn disabled() -> Self {
        EventLog {
            enabled: false,
            capacity: 0,
            rings: Default::default(),
            dropped: [0; 5],
            next_seq: 0,
        }
    }

    /// A log holding up to `per_category` events in each category ring.
    pub fn bounded(per_category: usize) -> Self {
        EventLog {
            enabled: true,
            capacity: per_category,
            rings: Default::default(),
            dropped: [0; 5],
            next_seq: 0,
        }
    }

    /// Whether this log records events at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The per-category ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one event (a no-op when the log is disabled).
    pub fn record(&mut self, time: SimTime, actor: u32, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let category = kind.category();
        let ring = &mut self.rings[category.index()];
        if self.capacity == 0 {
            self.dropped[category.index()] += 1;
            return;
        }
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped[category.index()] += 1;
        }
        ring.push_back(Recorded {
            seq: self.next_seq,
            event: Event { time, actor, kind },
        });
        self.next_seq += 1;
    }

    /// Number of events currently held across all rings.
    pub fn len(&self) -> usize {
        self.rings.iter().map(VecDeque::len).sum()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.rings.iter().all(VecDeque::is_empty)
    }

    /// How many events were recorded in total (including dropped ones).
    pub fn recorded_total(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted from `category`'s ring because it was full.
    pub fn dropped(&self, category: EventCategory) -> u64 {
        self.dropped[category.index()]
    }

    /// Total evicted events across all rings.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// The retained events of one category, oldest first.
    pub fn category(&self, category: EventCategory) -> impl Iterator<Item = &Recorded> {
        self.rings[category.index()].iter()
    }

    /// All retained events merged across categories in recording order
    /// (global sequence order — identical to virtual-time order with the
    /// engine's deterministic tiebreak).
    pub fn events(&self) -> Vec<Recorded> {
        let mut all: Vec<Recorded> = self.rings.iter().flatten().copied().collect();
        all.sort_by_key(|r| r.seq);
        all
    }

    /// Starts a [`TraceQuery`] over the retained events.
    pub fn query(&self) -> TraceQuery<'_> {
        TraceQuery::over(self.events())
    }

    /// Renders the merged log as the text `sweep --trace N` prints — one
    /// `[time] actor#N label` line per event, plus a truncation note
    /// when rings dropped entries.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for recorded in self.events() {
            let _ = writeln!(out, "{recorded}");
        }
        let dropped = self.dropped_total();
        if dropped > 0 {
            let _ = writeln!(out, "... {dropped} events discarded");
        }
        out
    }
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog::disabled();
        log.record(at(1), 0, EventKind::MeshJoin { node: 0 });
        assert!(log.is_empty());
        assert_eq!(log.recorded_total(), 0);
    }

    #[test]
    fn rings_drop_oldest_per_category() {
        let mut log = EventLog::bounded(2);
        for node in 0..4 {
            log.record(at(node as u64), node, EventKind::MeshJoin { node });
        }
        // The frame ring is untouched by mesh pressure.
        log.record(
            at(9),
            0,
            EventKind::FrameRx {
                from: 0,
                to: 1,
                bytes: 64,
            },
        );
        assert_eq!(log.dropped(EventCategory::Mesh), 2);
        assert_eq!(log.dropped(EventCategory::Frame), 0);
        let mesh: Vec<u32> = log
            .category(EventCategory::Mesh)
            .map(|r| r.event.actor)
            .collect();
        assert_eq!(mesh, vec![2, 3], "oldest mesh events evicted first");
        assert_eq!(log.len(), 3);
        assert_eq!(log.recorded_total(), 5);
    }

    #[test]
    fn merged_view_is_in_recording_order() {
        let mut log = EventLog::bounded(8);
        log.record(at(2), 1, EventKind::MeshJoin { node: 1 });
        log.record(at(2), 0, EventKind::DemandFire { ego: 0, task: 1 });
        log.record(at(3), 1, EventKind::MeshLeave { node: 1 });
        let seqs: Vec<u64> = log.events().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn render_notes_truncation() {
        let mut log = EventLog::bounded(1);
        log.record(at(1), 0, EventKind::MeshJoin { node: 0 });
        log.record(at(2), 1, EventKind::MeshJoin { node: 1 });
        let rendered = log.render();
        assert!(rendered.contains("mesh: node#1 joined"));
        assert!(rendered.contains("... 1 events discarded"));
    }
}
