//! A deterministic event timeline keyed by `(timestamp, sequence)`.
//!
//! The timeline is the heart of the event-scheduled scenario core: typed
//! events go in with an absolute due time, and come back out in
//! nondecreasing time order. Events scheduled for the same instant pop in
//! the order they were scheduled — the monotone sequence number is the
//! tiebreak — so the pop order is a *total* order determined entirely by
//! the schedule calls, never by heap internals, thread count or hashing.
//!
//! There are no actors or mailboxes: the caller owns the world and reacts
//! to each popped event directly.

use airdnd_sim::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One queued event: due time, schedule sequence, payload.
#[derive(Clone, Debug)]
struct Queued<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Queued<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Queued<E> {}

impl<E> PartialOrd for Queued<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Queued<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted so the std max-heap pops the earliest (time, seq) first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic priority queue of scenario events.
///
/// ```
/// use airdnd_engine::Timeline;
/// use airdnd_sim::{SimDuration, SimTime};
///
/// let mut tl = Timeline::new();
/// tl.schedule_at(SimTime::ZERO + SimDuration::from_millis(5), "late");
/// tl.schedule_at(SimTime::ZERO, "early");
/// tl.schedule_at(SimTime::ZERO, "early-too"); // same instant: schedule order
/// let horizon = SimTime::ZERO + SimDuration::from_secs(1);
/// assert_eq!(tl.pop_before(horizon).unwrap().1, "early");
/// assert_eq!(tl.pop_before(horizon).unwrap().1, "early-too");
/// assert_eq!(tl.pop_before(horizon).unwrap().1, "late");
/// assert!(tl.pop_before(horizon).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct Timeline<E> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Queued<E>>,
    popped: u64,
}

impl<E> Timeline<E> {
    /// An empty timeline at `SimTime::ZERO`.
    pub fn new() -> Self {
        Timeline {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            popped: 0,
        }
    }

    /// The due time of the last popped event (`SimTime::ZERO` initially).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` if no events are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Events scheduled so far (monotone; also the next sequence number).
    pub fn scheduled(&self) -> u64 {
        self.seq
    }

    /// Events popped so far.
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` at the absolute time `at`. Times before the
    /// current clock are clamped to it — the timeline never runs
    /// backwards.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let time = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Queued { time, seq, event });
    }

    /// Schedules `event` `delay` after the current clock.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the earliest event if it is due at or before `horizon`,
    /// advancing the clock to its due time. Returns `None` when the queue
    /// is empty or the next event lies beyond the horizon (the clock is
    /// left untouched so a later, larger horizon can resume).
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.queue.peek().is_some_and(|q| q.time <= horizon) {
            let q = self.queue.pop().expect("peeked");
            self.now = q.time;
            self.popped += 1;
            Some((q.time, q.event))
        } else {
            None
        }
    }
}

impl<E> Default for Timeline<E> {
    fn default() -> Self {
        Timeline::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut tl = Timeline::new();
        tl.schedule_at(ms(30), 3);
        tl.schedule_at(ms(10), 1);
        tl.schedule_at(ms(20), 2);
        let horizon = ms(100);
        let order: Vec<i32> = std::iter::from_fn(|| tl.pop_before(horizon))
            .map(|(_, e)| e)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_pops_in_schedule_order() {
        let mut tl = Timeline::new();
        for i in 0..100 {
            tl.schedule_at(ms(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| tl.pop_before(ms(5)))
            .map(|(_, e)| e)
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn horizon_is_inclusive_and_resumable() {
        let mut tl = Timeline::new();
        tl.schedule_at(ms(10), "a");
        tl.schedule_at(ms(20), "b");
        assert_eq!(tl.pop_before(ms(10)).unwrap().1, "a");
        assert!(tl.pop_before(ms(10)).is_none());
        assert_eq!(tl.now(), ms(10));
        assert_eq!(tl.pop_before(ms(20)).unwrap().1, "b");
        assert_eq!(tl.now(), ms(20));
    }

    #[test]
    fn past_schedules_clamp_to_now() {
        let mut tl = Timeline::new();
        tl.schedule_at(ms(10), "first");
        tl.pop_before(ms(10));
        tl.schedule_at(ms(3), "late-arrival");
        let (at, e) = tl.pop_before(ms(100)).unwrap();
        assert_eq!(e, "late-arrival");
        assert_eq!(
            at,
            ms(10),
            "clamped to the clock, not scheduled in the past"
        );
    }

    #[test]
    fn counters_track_traffic() {
        let mut tl = Timeline::new();
        tl.schedule_after(SimDuration::from_millis(1), ());
        tl.schedule_after(SimDuration::from_millis(2), ());
        assert_eq!(tl.scheduled(), 2);
        assert_eq!(tl.len(), 2);
        tl.pop_before(ms(100));
        assert_eq!(tl.delivered(), 1);
        assert_eq!(tl.len(), 1);
    }
}
