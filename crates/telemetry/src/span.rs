//! The causal span model: per-query trees of virtual-time intervals.
//!
//! A [`Span`] is one named interval in a query's life — the whole query,
//! the discovery wait, one offer's radio flight, the remote execution,
//! the result's return flight — stamped with virtual start/end times and
//! linked two ways: `parent` builds the per-query *tree* (every stage of
//! task `K` hangs off `K`'s root [`SpanKind::Query`] span), while
//! `follows_from` records *cross-node causality* (the executor's
//! [`SpanKind::Exec`] span follows from the offer frame that reached it,
//! the result flight follows from the execution that produced it, and a
//! failover re-offer follows from the attempt it replaces).
//!
//! Recording is pure observation: the [`SpanLog`] never touches
//! simulation state, RNG streams or scheduling, and a disabled log makes
//! every call a no-op — runs with spans on report byte-identically to
//! runs with spans off (the stage columns in reports come from each
//! query's always-on [`QueryPath`](crate::critical_path::QueryPath)
//! book, never from here).

use airdnd_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of one recorded span (1-based, assigned in recording
/// order, unique within a run).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw identifier.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// What interval of a query's life a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// The whole query: submit → completion (or expiry).
    Query,
    /// Advert discovery: submit → the first offer leaving the requester.
    Discover,
    /// Helper (re)selection: first offer → the winning offer leaving.
    Select,
    /// One offer frame's radio flight: transmit → delivery at the helper.
    OfferFlight,
    /// Remote execution on the helper: offer delivery → result ready.
    Exec,
    /// The result frame's radio flight: transmit → delivery at the ego.
    ResultFlight,
}

impl SpanKind {
    /// Short lower-case label (CLI trees, trace slice names).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::Discover => "discover",
            SpanKind::Select => "select",
            SpanKind::OfferFlight => "offer-flight",
            SpanKind::Exec => "exec",
            SpanKind::ResultFlight => "result-flight",
        }
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether a span ended, and how.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanStatus {
    /// Still open — only ever observed mid-run; the runner closes or
    /// expires every span by end-of-run, and the validator rejects logs
    /// that leak one.
    Open,
    /// Closed normally at `end`.
    Closed,
    /// The interval never reached its natural end (frame dropped, task
    /// expired, run horizon hit); `end` is when it was abandoned.
    Expired,
}

/// One recorded span: a virtual-time interval with tree and causal links.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Identifier (1-based, strictly increasing in recording order).
    pub id: u64,
    /// Enclosing span in the per-query tree (the root has none).
    pub parent: Option<u64>,
    /// Cross-node (or cross-attempt) causal predecessor.
    pub follows_from: Option<u64>,
    /// What interval this span covers.
    pub kind: SpanKind,
    /// Node address (or ego index) the interval runs on.
    pub actor: u32,
    /// Task id of the query this span belongs to.
    pub task: u64,
    /// Virtual start time.
    pub start: SimTime,
    /// Virtual end time (`None` only while [`SpanStatus::Open`]).
    pub end: Option<SimTime>,
    /// How (and whether) the span ended.
    pub status: SpanStatus,
}

impl Span {
    /// The span's duration in whole microseconds of virtual time (zero
    /// while open).
    pub fn duration_us(&self) -> u64 {
        self.end
            .map(|end| end.saturating_since(self.start).as_nanos() / 1_000)
            .unwrap_or(0)
    }
}

/// The span recorder: a flat list of [`Span`]s in recording order.
///
/// Disabled by default; every method is a no-op (and returns `None`)
/// until [`SpanLog::enabled`] builds one. Ids are assigned 1-based in
/// recording order, so references (`parent`, `follows_from`) always point
/// backwards — which the validator exploits for its cycle check.
#[derive(Clone, Debug, Default)]
pub struct SpanLog {
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A disabled log: records nothing, costs nothing.
    pub fn disabled() -> Self {
        SpanLog::default()
    }

    /// An enabled log.
    pub fn enabled() -> Self {
        SpanLog {
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span at `start`. Returns `None` when the log is disabled.
    pub fn open(
        &mut self,
        kind: SpanKind,
        actor: u32,
        task: u64,
        start: SimTime,
        parent: Option<SpanId>,
        follows_from: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent: parent.map(SpanId::raw),
            follows_from: follows_from.map(SpanId::raw),
            kind,
            actor,
            task,
            start,
            end: None,
            status: SpanStatus::Open,
        });
        Some(SpanId(id))
    }

    /// Records an already-finished span (open + close in one call).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        kind: SpanKind,
        actor: u32,
        task: u64,
        start: SimTime,
        end: SimTime,
        parent: Option<SpanId>,
        follows_from: Option<SpanId>,
    ) -> Option<SpanId> {
        let id = self.open(kind, actor, task, start, parent, follows_from)?;
        self.close(id, end);
        Some(id)
    }

    /// Closes an open span at `end` (no-op on disabled logs or ids from
    /// one).
    pub fn close(&mut self, id: SpanId, end: SimTime) {
        self.finish(id, end, SpanStatus::Closed);
    }

    /// Marks an open span expired at `end` — the interval was abandoned
    /// rather than completed.
    pub fn expire(&mut self, id: SpanId, end: SimTime) {
        self.finish(id, end, SpanStatus::Expired);
    }

    fn finish(&mut self, id: SpanId, end: SimTime, status: SpanStatus) {
        if let Some(span) = self.spans.get_mut(id.0 as usize - 1) {
            if span.status == SpanStatus::Open {
                span.end = Some(end.max(span.start));
                span.status = status;
            }
        }
    }

    /// Expires every still-open span at `at` — the end-of-run sweep that
    /// keeps the well-formedness contract ("every opened span closed or
    /// explicitly expired") true even for queries in flight at the
    /// horizon.
    pub fn expire_open(&mut self, at: SimTime) {
        for span in &mut self.spans {
            if span.status == SpanStatus::Open {
                span.end = Some(at.max(span.start));
                span.status = SpanStatus::Expired;
            }
        }
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Structural well-formedness of a span set: every span closed or
/// expired, every `parent`/`follows_from` id present, no cycles, ends
/// after starts, and causal edges respecting virtual-time order (a child
/// never starts before its parent; a span never starts before what it
/// follows from). Returns the first violation as a message naming the
/// offending span.
pub fn validate_spans(spans: &[Span]) -> Result<(), String> {
    use std::collections::BTreeMap;
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    if by_id.len() != spans.len() {
        return Err("duplicate span id".to_owned());
    }
    for span in spans {
        if span.status == SpanStatus::Open {
            return Err(format!(
                "span {} ({} task#{}) left open at end of log",
                span.id, span.kind, span.task
            ));
        }
        let end = span
            .end
            .ok_or_else(|| format!("span {} has status {:?} but no end", span.id, span.status))?;
        if end < span.start {
            return Err(format!("span {} ends before it starts", span.id));
        }
        for (label, link) in [("parent", span.parent), ("follows_from", span.follows_from)] {
            let Some(target) = link else { continue };
            let Some(target_span) = by_id.get(&target) else {
                return Err(format!("span {}: {label} {target} does not exist", span.id));
            };
            if span.start < target_span.start {
                return Err(format!(
                    "span {}: starts before its {label} {target} (causal order violated)",
                    span.id
                ));
            }
        }
    }
    // Cycle check over the union of parent and follows_from edges:
    // iterative three-color DFS (0 = unvisited, 1 = on stack, 2 = done).
    let mut color: BTreeMap<u64, u8> = spans.iter().map(|s| (s.id, 0u8)).collect();
    for span in spans {
        if color[&span.id] != 0 {
            continue;
        }
        // Stack of (id, next-edge-index); edges are [parent, follows_from].
        let mut stack: Vec<(u64, usize)> = vec![(span.id, 0)];
        color.insert(span.id, 1);
        while let Some(&mut (id, ref mut edge)) = stack.last_mut() {
            let node = by_id[&id];
            let next = match *edge {
                0 => node.parent,
                1 => node.follows_from,
                _ => {
                    color.insert(id, 2);
                    stack.pop();
                    continue;
                }
            };
            *edge += 1;
            let Some(target) = next else { continue };
            match color.get(&target) {
                Some(1) => {
                    return Err(format!("span {id} is part of a reference cycle"));
                }
                Some(0) => {
                    color.insert(target, 1);
                    stack.push((target, 0));
                }
                _ => {} // done, or missing (already reported above)
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::disabled();
        assert!(log.open(SpanKind::Query, 1, 7, t(0), None, None).is_none());
        assert!(log.is_empty());
        log.expire_open(t(10));
        assert!(log.is_empty());
    }

    #[test]
    fn open_close_expire_balance() {
        let mut log = SpanLog::enabled();
        let root = log.open(SpanKind::Query, 1, 7, t(0), None, None).unwrap();
        let offer = log
            .open(SpanKind::OfferFlight, 1, 7, t(2), Some(root), None)
            .unwrap();
        log.close(offer, t(3));
        log.expire(root, t(9));
        assert_eq!(log.len(), 2);
        assert!(validate_spans(log.spans()).is_ok());
        let spans = log.spans();
        assert_eq!(spans[0].status, SpanStatus::Expired);
        assert_eq!(spans[1].status, SpanStatus::Closed);
        assert_eq!(spans[1].duration_us(), 1_000);
    }

    #[test]
    fn expire_open_sweeps_leftovers() {
        let mut log = SpanLog::enabled();
        log.open(SpanKind::Query, 1, 7, t(0), None, None).unwrap();
        assert!(validate_spans(log.spans()).is_err(), "open span rejected");
        log.expire_open(t(30));
        assert!(validate_spans(log.spans()).is_ok());
        assert_eq!(log.spans()[0].end, Some(t(30)));
    }

    #[test]
    fn close_is_idempotent_and_end_never_precedes_start() {
        let mut log = SpanLog::enabled();
        let id = log.open(SpanKind::Exec, 2, 7, t(5), None, None).unwrap();
        log.close(id, t(1)); // clamped to start
        log.expire(id, t(9)); // already closed: no-op
        let span = log.spans()[0];
        assert_eq!(span.status, SpanStatus::Closed);
        assert_eq!(span.end, Some(t(5)));
    }

    #[test]
    fn validator_names_the_first_violation() {
        // Missing parent.
        let mut log = SpanLog::enabled();
        let id = log.open(SpanKind::Exec, 2, 7, t(5), None, None).unwrap();
        log.close(id, t(6));
        let mut spans = log.spans().to_vec();
        spans[0].parent = Some(99);
        let err = validate_spans(&spans).unwrap_err();
        assert!(err.contains("parent 99"), "{err}");

        // Causal order: child starts before its parent.
        let mut log = SpanLog::enabled();
        let root = log.open(SpanKind::Query, 1, 7, t(10), None, None).unwrap();
        let child = log
            .open(SpanKind::OfferFlight, 1, 7, t(12), Some(root), None)
            .unwrap();
        log.close(child, t(13));
        log.close(root, t(20));
        let mut spans = log.spans().to_vec();
        spans[1].start = t(1);
        let err = validate_spans(&spans).unwrap_err();
        assert!(err.contains("causal order"), "{err}");

        // Self-cycle.
        let mut spans = spans.clone();
        spans[1].start = t(12);
        spans[0].follows_from = Some(spans[0].id);
        let err = validate_spans(&spans).unwrap_err();
        assert!(err.contains("cycle"), "{err}");
    }

    #[test]
    fn two_node_cycle_is_rejected() {
        let mut log = SpanLog::enabled();
        let a = log.open(SpanKind::Exec, 1, 7, t(1), None, None).unwrap();
        let b = log
            .open(SpanKind::ResultFlight, 2, 7, t(2), None, Some(a))
            .unwrap();
        log.close(a, t(3));
        log.close(b, t(4));
        let mut spans = log.spans().to_vec();
        spans[0].follows_from = Some(b.raw());
        // Patch start so the time check does not fire first.
        spans[0].start = t(2);
        let err = validate_spans(&spans).unwrap_err();
        assert!(err.contains("cycle"), "{err}");
    }
}
