//! Deterministic critical-path latency decomposition.
//!
//! Every completed query's end-to-end latency is partitioned into five
//! named stages along its critical path — the chain of events that
//! actually produced the completing result:
//!
//! | stage      | interval                                              |
//! |------------|-------------------------------------------------------|
//! | `discover` | submit → the first offer leaving the requester        |
//! | `select`   | first offer → the *winning* offer leaving (failover)  |
//! | `radio`    | winning offer transmit → delivery at the helper       |
//! | `exec`     | offer delivery → result ready on the helper           |
//! | `return`   | result ready → completion at the requester            |
//!
//! The stages are computed with clamped-remainder integer arithmetic, so
//! they always sum *exactly* to the end-to-end latency in microseconds —
//! a [`StageBudget`] is a partition, never an approximation. Strategies
//! that never touch the offload protocol (cloud, raw sharing, local)
//! attribute their whole latency to `exec` via
//! [`StageBudget::all_exec`].
//!
//! Two independent producers exist, and property tests hold them equal:
//!
//! * [`QueryPath`] — the **always-on** integer book of one query, which
//!   the scenario runner's outcome ledger keeps in the query's record
//!   and feeds as the protocol plays out. It powers the
//!   `lat_*_p50/p95` report columns, so the columns are identical
//!   whether span recording is on or off.
//! * [`extract`] — recomputes a budget purely from a recorded span tree
//!   (see [`crate::span`]), which is what `sweep explain` prints.

use crate::span::{Span, SpanId, SpanKind, SpanLog, SpanStatus};
use airdnd_sim::SimTime;
use std::collections::BTreeMap;

/// One named critical-path stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Submit → first offer out.
    Discover,
    /// First offer out → winning offer out.
    Select,
    /// Winning offer transmit → delivery at the helper.
    Radio,
    /// Offer delivery → result ready.
    Exec,
    /// Result ready → completion.
    Return,
}

impl Stage {
    /// Every stage, in critical-path order.
    pub const ALL: [Stage; 5] = [
        Stage::Discover,
        Stage::Select,
        Stage::Radio,
        Stage::Exec,
        Stage::Return,
    ];

    /// Lower-case column/label name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Discover => "discover",
            Stage::Select => "select",
            Stage::Radio => "radio",
            Stage::Exec => "exec",
            Stage::Return => "return",
        }
    }
}

/// One completed query's latency partitioned into stages (microseconds
/// of virtual time; the stages sum exactly to `total_us`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageBudget {
    /// Task id of the query.
    pub task: u64,
    /// End-to-end latency, submit → completion.
    pub total_us: u64,
    /// Submit → first offer out.
    pub discover_us: u64,
    /// First offer out → winning offer out.
    pub select_us: u64,
    /// Winning offer transmit → delivery.
    pub radio_us: u64,
    /// Offer delivery → result ready.
    pub exec_us: u64,
    /// Result ready → completion.
    pub return_us: u64,
}

impl StageBudget {
    /// The budget of a query that never used the offload protocol: the
    /// whole latency is execution.
    pub fn all_exec(task: u64, total_us: u64) -> Self {
        StageBudget {
            task,
            total_us,
            discover_us: 0,
            select_us: 0,
            radio_us: 0,
            exec_us: total_us,
            return_us: 0,
        }
    }

    /// This budget's value for one stage.
    pub fn stage_us(&self, stage: Stage) -> u64 {
        match stage {
            Stage::Discover => self.discover_us,
            Stage::Select => self.select_us,
            Stage::Radio => self.radio_us,
            Stage::Exec => self.exec_us,
            Stage::Return => self.return_us,
        }
    }

    /// Sum of the five stages — equal to `total_us` by construction.
    pub fn stages_total_us(&self) -> u64 {
        Stage::ALL.iter().map(|&s| self.stage_us(s)).sum()
    }
}

/// Microseconds from `a` to `b` (zero if `b` precedes `a`).
fn us_between(a: SimTime, b: SimTime) -> u64 {
    b.saturating_since(a).as_nanos() / 1_000
}

/// Clamped-remainder partition of `[submitted, completed]` given the
/// critical chain's boundary times. Each stage is capped by what is left
/// of the total, and `return` takes the remainder — so the stages always
/// sum exactly to the total, even on degenerate chains.
fn partition(
    task: u64,
    submitted: SimTime,
    first_offer: SimTime,
    offer_sent: SimTime,
    offer_delivered: SimTime,
    result_ready: SimTime,
    completed: SimTime,
) -> StageBudget {
    let total_us = us_between(submitted, completed);
    let mut rem = total_us;
    let discover_us = us_between(submitted, first_offer).min(rem);
    rem -= discover_us;
    let select_us = us_between(first_offer, offer_sent).min(rem);
    rem -= select_us;
    let radio_us = us_between(offer_sent, offer_delivered).min(rem);
    rem -= radio_us;
    let exec_us = us_between(offer_delivered, result_ready).min(rem);
    rem -= exec_us;
    StageBudget {
        task,
        total_us,
        discover_us,
        select_us,
        radio_us,
        exec_us,
        return_us: rem,
    }
}

/// One in-flight offer attempt at a specific executor.
#[derive(Clone, Copy, Debug, Default)]
struct Attempt {
    offer_sent: SimTime,
    offer_delivered: Option<SimTime>,
    result_ready: Option<SimTime>,
    offer_span: Option<SpanId>,
    exec_span: Option<SpanId>,
}

/// A result frame that actually made it back to the requester: the
/// attempt's boundary times snapshotted when the frame left the helper,
/// plus its arrival. The *last* delivered flight at completion time is
/// the winning chain — the same rule [`extract`] applies to the span
/// tree, so book and extractor agree by construction (an executor-keyed
/// lookup would not: a re-offer to the same executor overwrites the
/// attempt the result actually came from).
#[derive(Clone, Copy, Debug)]
struct Flight {
    offer_sent: SimTime,
    offer_delivered: SimTime,
    result_ready: SimTime,
    arrival: SimTime,
}

/// One in-flight query's critical path: an always-on deterministic stage
/// book plus (when the passed [`SpanLog`] is enabled) the query's span
/// tree. All integer virtual-time bookkeeping — never wall clock, never
/// RNG — so the stage columns it feeds are part of the deterministic
/// output surface. Whoever owns the query owns its path, feeds it as the
/// protocol plays out and ends it exactly once, through
/// [`QueryPath::complete`] or [`QueryPath::fail`].
#[derive(Clone, Debug)]
pub struct QueryPath {
    task: u64,
    actor: u32,
    submitted: SimTime,
    first_offer: Option<SimTime>,
    attempts: BTreeMap<u32, Attempt>,
    flights: Vec<Flight>,
    /// The last attempt's offer span — a failover re-offer `follows_from`
    /// the attempt it replaces.
    last_offer_span: Option<SpanId>,
    root: Option<SpanId>,
}

impl QueryPath {
    /// Books task `task`'s submit by `actor` at `now`; opens the root
    /// [`SpanKind::Query`] span.
    pub fn open(log: &mut SpanLog, task: u64, actor: u32, now: SimTime) -> Self {
        let root = log.open(SpanKind::Query, actor, task, now, None, None);
        QueryPath {
            task,
            actor,
            submitted: now,
            first_offer: None,
            attempts: BTreeMap::new(),
            flights: Vec::new(),
            last_offer_span: None,
            root,
        }
    }

    /// Books one offer leaving the requester for `executor`, with the
    /// radio medium's verdict: `delivered` is the arrival time, or `None`
    /// when the frame was dropped. The first offer closes the discovery
    /// stage (recorded as a [`SpanKind::Discover`] child).
    pub fn offer_sent(
        &mut self,
        log: &mut SpanLog,
        executor: u32,
        now: SimTime,
        delivered: Option<SimTime>,
    ) {
        if self.first_offer.is_none() {
            self.first_offer = Some(now);
            log.record(
                SpanKind::Discover,
                self.actor,
                self.task,
                self.submitted,
                now,
                self.root,
                None,
            );
        }
        let offer_span = log.open(
            SpanKind::OfferFlight,
            self.actor,
            self.task,
            now,
            self.root,
            self.last_offer_span,
        );
        if let Some(id) = offer_span {
            match delivered {
                Some(at) => log.close(id, at),
                None => log.expire(id, now),
            }
            self.last_offer_span = Some(id);
        }
        self.attempts.insert(
            executor,
            Attempt {
                offer_sent: now,
                offer_delivered: delivered,
                result_ready: None,
                offer_span,
                exec_span: None,
            },
        );
    }

    /// Books the helper finishing execution: the offer was delivered at
    /// `now` (execution starts on delivery) and the result is ready at
    /// `ready`. Records the cross-node [`SpanKind::Exec`] span following
    /// from the offer flight that reached this executor.
    pub fn result_ready(&mut self, log: &mut SpanLog, executor: u32, now: SimTime, ready: SimTime) {
        let attempt = self.attempts.entry(executor).or_insert(Attempt {
            offer_sent: now,
            offer_delivered: Some(now),
            result_ready: None,
            offer_span: None,
            exec_span: None,
        });
        attempt.result_ready = Some(ready);
        attempt.exec_span = log.record(
            SpanKind::Exec,
            executor,
            self.task,
            now,
            ready,
            self.root,
            attempt.offer_span,
        );
    }

    /// Books the result frame leaving the helper, with the medium's
    /// verdict (`delivered` = arrival time at the requester, `None` =
    /// dropped). Records the [`SpanKind::ResultFlight`] span following
    /// from the execution that produced it.
    pub fn result_sent(
        &mut self,
        log: &mut SpanLog,
        executor: u32,
        now: SimTime,
        delivered: Option<SimTime>,
    ) {
        let attempt = self.attempts.get(&executor).copied();
        let exec_span = attempt.and_then(|a| a.exec_span);
        if let Some(id) = log.open(
            SpanKind::ResultFlight,
            executor,
            self.task,
            now,
            self.root,
            exec_span,
        ) {
            match delivered {
                Some(at) => log.close(id, at),
                None => log.expire(id, now),
            }
        }
        if let (Some(attempt), Some(arrival)) = (attempt, delivered) {
            if let (Some(offer_delivered), Some(result_ready)) =
                (attempt.offer_delivered, attempt.result_ready)
            {
                self.flights.push(Flight {
                    offer_sent: attempt.offer_sent,
                    offer_delivered,
                    result_ready,
                    arrival,
                });
            }
        }
    }

    /// Books completion at `now`: closes the root span, records the
    /// [`SpanKind::Select`] child (first offer → winning offer, now that
    /// the winner is known) and returns the query's stage budget.
    pub fn complete(self, log: &mut SpanLog, now: SimTime) -> StageBudget {
        if let Some(root) = self.root {
            log.close(root, now);
        }
        // The winning chain is the last result flight delivered by
        // completion time — the same rule `extract` applies to the span
        // tree, so the book and the extractor agree by construction.
        let winner = self
            .flights
            .iter()
            .filter(|f| f.arrival <= now)
            .max_by_key(|f| f.arrival)
            .copied();
        match (self.first_offer, winner) {
            (Some(first), Some(win)) => {
                if log.is_enabled() {
                    log.record(
                        SpanKind::Select,
                        self.actor,
                        self.task,
                        first,
                        win.offer_sent.max(first),
                        self.root,
                        None,
                    );
                }
                partition(
                    self.task,
                    self.submitted,
                    first,
                    win.offer_sent,
                    win.offer_delivered,
                    win.result_ready,
                    now,
                )
            }
            _ => StageBudget::all_exec(self.task, us_between(self.submitted, now)),
        }
    }

    /// Books a failed/expired query: the root span expires at `now`, and
    /// no stage budget exists (the columns decompose *completed* latency,
    /// mirroring `latencies_ms`).
    pub fn fail(self, log: &mut SpanLog, now: SimTime) {
        if let Some(root) = self.root {
            log.expire(root, now);
        }
    }
}

/// Recomputes a completed query's stage budget purely from its recorded
/// span tree: the deterministic critical-path extractor behind
/// `sweep explain`. Returns `None` when the log has no *closed*
/// [`SpanKind::Query`] root for `task` (never submitted with spans on,
/// or expired). Equal to the [`QueryPath`] book for the same run —
/// property-pinned in the scenario tests.
pub fn extract(spans: &[Span], task: u64) -> Option<StageBudget> {
    let root = spans
        .iter()
        .find(|s| s.task == task && s.kind == SpanKind::Query && s.status == SpanStatus::Closed)?;
    let completed = root.end?;
    let total_us = us_between(root.start, completed);
    // The winning chain: the last result flight delivered by completion
    // time (its delivery is what completed the query).
    let winner_flight = spans
        .iter()
        .filter(|s| {
            s.task == task
                && s.kind == SpanKind::ResultFlight
                && s.status == SpanStatus::Closed
                && s.end.is_some_and(|end| end <= completed)
        })
        .max_by_key(|s| (s.end, s.id));
    let by_id = |id: Option<u64>| id.and_then(|id| spans.iter().find(|s| s.id == id));
    let exec = winner_flight.and_then(|f| by_id(f.follows_from));
    let offer = exec.and_then(|e| by_id(e.follows_from));
    let discover = spans
        .iter()
        .find(|s| s.task == task && s.kind == SpanKind::Discover);
    let budget = match (discover, offer, exec) {
        (Some(d), Some(o), Some(e)) => {
            partition(task, root.start, d.end?, o.start, o.end?, e.end?, completed)
        }
        _ => StageBudget::all_exec(task, total_us),
    };
    Some(budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn partition_sums_exactly_and_clamps() {
        let b = partition(1, t(0), t(2), t(5), t(6), t(40), t(45));
        assert_eq!(b.total_us, 45_000);
        assert_eq!(b.discover_us, 2_000);
        assert_eq!(b.select_us, 3_000);
        assert_eq!(b.radio_us, 1_000);
        assert_eq!(b.exec_us, 34_000);
        assert_eq!(b.return_us, 5_000);
        assert_eq!(b.stages_total_us(), b.total_us);

        // Degenerate chain: boundaries past the completion still sum.
        let b = partition(2, t(0), t(80), t(90), t(95), t(99), t(50));
        assert_eq!(b.stages_total_us(), b.total_us);
        assert_eq!(b.total_us, 50_000);
        assert_eq!(b.discover_us, 50_000);
        assert_eq!(b.return_us, 0);
    }

    #[test]
    fn all_exec_is_a_partition_too() {
        let b = StageBudget::all_exec(9, 1_234);
        assert_eq!(b.stages_total_us(), 1_234);
        assert_eq!(b.exec_us, 1_234);
        assert_eq!(b.stage_us(Stage::Radio), 0);
    }

    /// Play a two-attempt query (first offer dropped, failover wins)
    /// through its path with spans on: the book's budget, the span
    /// tree's extracted budget, and the well-formedness contract must all
    /// agree.
    #[test]
    fn tracer_and_extractor_agree_on_a_failover_query() {
        let mut log = SpanLog::enabled();
        let mut path = QueryPath::open(&mut log, 7, 1, t(0));
        path.offer_sent(&mut log, 20, t(3), None); // dropped
        path.offer_sent(&mut log, 21, t(10), Some(t(11)));
        path.result_ready(&mut log, 21, t(11), t(30));
        path.result_sent(&mut log, 21, t(30), Some(t(32)));
        let book = path.complete(&mut log, t(32));
        let budgets = vec![book];
        log.expire_open(t(100));

        assert_eq!(book.total_us, 32_000);
        assert_eq!(book.discover_us, 3_000); // submit → first offer
        assert_eq!(book.select_us, 7_000); // first → winning offer
        assert_eq!(book.radio_us, 1_000);
        assert_eq!(book.exec_us, 19_000);
        assert_eq!(book.return_us, 2_000);
        assert_eq!(book.stages_total_us(), book.total_us);

        crate::span::validate_spans(log.spans()).expect("well-formed");
        let extracted = extract(log.spans(), 7).expect("closed root");
        assert_eq!(extracted, book);
        // The dropped first offer expired; the failover offer follows
        // from it.
        let flights: Vec<_> = log
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::OfferFlight)
            .collect();
        assert_eq!(flights.len(), 2);
        assert_eq!(flights[0].status, SpanStatus::Expired);
        assert_eq!(flights[1].follows_from, Some(flights[0].id));
        assert_eq!(budgets, [book]);
    }

    /// A failed query and one the horizon cuts off both leave expired
    /// roots. A failed path is consumed, so it cannot hand out a budget.
    #[test]
    fn expired_queries_leave_expired_roots_and_no_samples() {
        let mut log = SpanLog::enabled();
        let first = QueryPath::open(&mut log, 1, 1, t(0));
        let second = QueryPath::open(&mut log, 2, 1, t(1));
        first.fail(&mut log, t(9));
        // The horizon: task 2 is still in flight.
        second.fail(&mut log, t(63));
        log.expire_open(t(63));
        crate::span::validate_spans(log.spans()).expect("well-formed");
        let roots: Vec<_> = log
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Query)
            .collect();
        assert_eq!(roots.len(), 2);
        assert!(roots.iter().all(|r| r.status == SpanStatus::Expired));
        assert!(
            extract(log.spans(), 1).is_none(),
            "expired roots extract to None"
        );
    }
}
