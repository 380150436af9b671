//! Deterministic exporters: JSONL event logs and Chrome-trace timelines.
//!
//! Both exporters are pure functions of the recorded events — sim time
//! only, stable ordering, no wall clock — so the same seed always
//! produces the same bytes. The JSONL format round-trips byte-exactly
//! (serialize → parse → serialize is the identity), which
//! [`validate_jsonl`] checks line by line; CI uses it to validate
//! `sweep --trace-out` output against the schema.

use crate::event::EventKind;
use crate::log::Recorded;
use crate::span::{validate_spans, Span, SpanKind};
use serde_json::{json, Value};
use std::fmt::Write as _;

/// Renders recorded events as JSONL: one JSON object per line, in
/// recording order, trailing newline included.
pub fn to_jsonl(events: &[Recorded]) -> String {
    let mut out = String::new();
    for recorded in events {
        let line = serde_json::to_string(recorded).expect("events always serialize");
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Parses a JSONL event log back into recorded events.
pub fn parse_jsonl(text: &str) -> Result<Vec<Recorded>, String> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let recorded: Recorded =
            serde_json::from_str(line).map_err(|err| format!("line {}: {err}", idx + 1))?;
        events.push(recorded);
    }
    Ok(events)
}

/// Validates a JSONL event log: every line must parse as a [`Recorded`]
/// event AND re-serialize to the exact same bytes (schema conformance
/// plus canonical formatting). Returns the number of valid events.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    let mut last_seq: Option<u64> = None;
    for (idx, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let recorded: Recorded =
            serde_json::from_str(line).map_err(|err| format!("line {lineno}: {err}"))?;
        let reserialized =
            serde_json::to_string(&recorded).map_err(|err| format!("line {lineno}: {err}"))?;
        if reserialized != line {
            return Err(format!(
                "line {lineno}: not canonical — parsed event re-serializes differently"
            ));
        }
        if let Some(prev) = last_seq {
            if recorded.seq <= prev {
                return Err(format!(
                    "line {lineno}: seq {} out of order (previous {prev})",
                    recorded.seq
                ));
            }
        }
        last_seq = Some(recorded.seq);
        count += 1;
    }
    Ok(count)
}

/// Renders recorded events as a Chrome-trace / Perfetto JSON document.
///
/// Every event becomes an instant (`ph:"i"`) on its actor's track; task
/// submit→complete/expire pairs additionally become duration spans
/// (`ph:"X"`) on a per-ego task track, so offload latency is visible as
/// bar length. Timestamps are integer microseconds of *sim* time.
pub fn to_chrome_trace(events: &[Recorded], process_name: &str) -> Value {
    let mut trace_events = Vec::new();
    trace_events.push(json!({
        "name": "process_name",
        "ph": "M",
        "pid": 1u32,
        "tid": 0u32,
        "args": json!({"name": process_name}),
    }));

    // Instants: one per recorded event, tid = actor.
    for recorded in events {
        let event = &recorded.event;
        trace_events.push(json!({
            "name": event.kind.to_string(),
            "cat": event.kind.category().to_string(),
            "ph": "i",
            "s": "t",
            "ts": event.time.as_nanos() / 1_000,
            "pid": 1u32,
            "tid": event.actor,
            "args": json!({"seq": recorded.seq}),
        }));
    }

    // Spans: submit → complete/expire per task id.
    let mut open: Vec<(u64, u32, u64)> = Vec::new(); // (task, ego, start_us)
    for recorded in events {
        let ts_us = recorded.event.time.as_nanos() / 1_000;
        match recorded.event.kind {
            EventKind::TaskSubmit { task, ego } => open.push((task, ego, ts_us)),
            EventKind::TaskComplete { task, ego, .. } | EventKind::TaskExpire { task, ego } => {
                if let Some(pos) = open.iter().position(|&(t, _, _)| t == task) {
                    let (_, _, start_us) = open.remove(pos);
                    let done = matches!(recorded.event.kind, EventKind::TaskComplete { .. });
                    let outcome = if done { "complete" } else { "expire" };
                    trace_events.push(json!({
                        "name": format!("task#{task}"),
                        "cat": "task-span",
                        "ph": "X",
                        "ts": start_us,
                        "dur": ts_us.saturating_sub(start_us),
                        "pid": 1u32,
                        "tid": 100_000u64 + ego as u64,
                        "args": json!({"outcome": outcome}),
                    }));
                }
            }
            _ => {}
        }
    }

    json!({
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
    })
}

/// Renders recorded spans as JSONL: one JSON object per line, in
/// recording (= id) order, trailing newline included.
pub fn spans_to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for span in spans {
        let line = serde_json::to_string(span).expect("spans always serialize");
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Parses a span JSONL document back into spans.
pub fn parse_spans_jsonl(text: &str) -> Result<Vec<Span>, String> {
    let mut spans = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let span: Span =
            serde_json::from_str(line).map_err(|err| format!("line {}: {err}", idx + 1))?;
        spans.push(span);
    }
    Ok(spans)
}

/// Validates a span JSONL document: every line must parse as a [`Span`]
/// and re-serialize to the exact same bytes, ids must be strictly
/// increasing (recording order), and the whole collection must satisfy
/// the well-formedness contract ([`validate_spans`]: everything closed or
/// expired, every parent/follows_from id present, causal edges respect
/// virtual-time order, no cycles). Returns the number of valid spans.
pub fn validate_spans_jsonl(text: &str) -> Result<usize, String> {
    let mut spans = Vec::new();
    let mut last_id: Option<u64> = None;
    for (idx, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let span: Span =
            serde_json::from_str(line).map_err(|err| format!("line {lineno}: {err}"))?;
        let reserialized =
            serde_json::to_string(&span).map_err(|err| format!("line {lineno}: {err}"))?;
        if reserialized != line {
            return Err(format!(
                "line {lineno}: not canonical — parsed span re-serializes differently"
            ));
        }
        if let Some(prev) = last_id {
            if span.id <= prev {
                return Err(format!(
                    "line {lineno}: span id {} out of order (previous {prev})",
                    span.id
                ));
            }
        }
        last_id = Some(span.id);
        spans.push(span);
    }
    validate_spans(&spans)?;
    Ok(spans.len())
}

/// Track id for a node's span lane (instants use the bare actor id, the
/// legacy task bars use `100_000 + ego`; span lanes sit above both).
fn span_lane(actor: u32) -> u64 {
    200_000u64 + actor as u64
}

/// Renders events *and* causal spans as one Chrome-trace / Perfetto
/// document: everything [`to_chrome_trace`] emits, plus an `X` slice per
/// recorded span on its actor's span lane and flow arrows (`ph:"s"` /
/// `ph:"f"`) following each causal edge — root query → first offer, a
/// failover offer → the attempt it replaces, offer → remote execution,
/// execution → result flight — so one offloaded query reads as a
/// connected arc across node lanes.
pub fn to_chrome_trace_full(events: &[Recorded], spans: &[Span], process_name: &str) -> Value {
    let mut doc = to_chrome_trace(events, process_name);
    let Value::Object(entries) = &mut doc else {
        unreachable!("chrome trace doc is an object");
    };
    let Some((_, Value::Array(trace_events))) =
        entries.iter_mut().find(|(k, _)| k == "traceEvents")
    else {
        unreachable!("chrome trace doc has traceEvents");
    };

    let us = |t: airdnd_sim::SimTime| t.as_nanos() / 1_000;
    for span in spans {
        let start_us = us(span.start);
        let end_us = span.end.map(us).unwrap_or(start_us);
        let mut args = vec![
            ("span".to_string(), json!(span.id)),
            ("task".to_string(), json!(span.task)),
            ("status".to_string(), json!(format!("{:?}", span.status))),
        ];
        if let Some(parent) = span.parent {
            args.push(("parent".to_string(), json!(parent)));
        }
        if let Some(follows) = span.follows_from {
            args.push(("follows_from".to_string(), json!(follows)));
        }
        trace_events.push(json!({
            "name": format!("{} task#{}", span.kind.label(), span.task),
            "cat": "span",
            "ph": "X",
            "ts": start_us,
            "dur": end_us.saturating_sub(start_us),
            "pid": 1u32,
            "tid": span_lane(span.actor),
            "args": Value::Object(args),
        }));
    }

    // Flow arrows: one per causal edge, id = destination span id. The
    // `follows_from` edges carry cross-node causality (offer → exec →
    // result, failover chains); first offers flow from their root query
    // so the arc starts at the submit.
    let find = |id: u64| spans.iter().find(|s| s.id == id);
    for span in spans {
        let source = span.follows_from.or(match span.kind {
            SpanKind::OfferFlight => span.parent,
            _ => None,
        });
        let Some(source) = source.and_then(find) else {
            continue;
        };
        let source_ts = us(source.end.unwrap_or(source.start)).max(us(source.start));
        trace_events.push(json!({
            "name": "causal",
            "cat": "flow",
            "ph": "s",
            "id": span.id,
            "ts": source_ts.min(us(span.start)),
            "pid": 1u32,
            "tid": span_lane(source.actor),
        }));
        trace_events.push(json!({
            "name": "causal",
            "cat": "flow",
            "ph": "f",
            "bp": "e",
            "id": span.id,
            "ts": us(span.start),
            "pid": 1u32,
            "tid": span_lane(span.actor),
        }));
    }

    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::log::EventLog;
    use airdnd_sim::SimTime;

    fn sample() -> Vec<Recorded> {
        let mut log = EventLog::bounded(16);
        log.record(SimTime::from_millis(1), 2, EventKind::MeshJoin { node: 2 });
        log.record(
            SimTime::from_millis(2),
            0,
            EventKind::TaskSubmit { task: 1, ego: 0 },
        );
        log.record(
            SimTime::from_millis(9),
            0,
            EventKind::TaskComplete {
                task: 1,
                ego: 0,
                latency_us: 7_000,
            },
        );
        log.record(
            SimTime::from_millis(10),
            0,
            EventKind::FrameTx {
                from: 0,
                to: None,
                bytes: 48,
            },
        );
        log.events()
    }

    #[test]
    fn jsonl_round_trips_byte_exactly() {
        let events = sample();
        let jsonl = to_jsonl(&events);
        let parsed = parse_jsonl(&jsonl).unwrap();
        assert_eq!(parsed, events);
        assert_eq!(to_jsonl(&parsed), jsonl);
        assert_eq!(validate_jsonl(&jsonl).unwrap(), events.len());
    }

    #[test]
    fn validate_rejects_garbage_and_disorder() {
        assert!(validate_jsonl("not json\n").is_err());
        // Re-ordered lines violate the seq monotonicity check.
        let events = sample();
        let jsonl = to_jsonl(&events);
        let mut lines: Vec<&str> = jsonl.lines().collect();
        lines.swap(0, 1);
        assert!(validate_jsonl(&lines.join("\n")).is_err());
    }

    /// Pulls `field` out of a JSON object `Value` (the vendored `Value`
    /// has no `Index` impl).
    fn field<'v>(value: &'v Value, name: &str) -> &'v Value {
        match value {
            Value::Object(entries) => entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("field {name} missing")),
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn chrome_trace_has_instants_and_task_spans() {
        let events = sample();
        let doc = to_chrome_trace(&events, "g3 quick");
        let entries = match field(&doc, "traceEvents") {
            Value::Array(items) => items.clone(),
            other => panic!("traceEvents not an array: {other:?}"),
        };
        // 1 metadata + 4 instants + 1 task span.
        assert_eq!(entries.len(), 6);
        let span = entries
            .iter()
            .find(|e| *field(e, "ph") == json!("X"))
            .expect("task span present");
        assert_eq!(*field(span, "ts"), json!(2_000u64));
        assert_eq!(*field(span, "dur"), json!(7_000u64));
        assert_eq!(*field(field(span, "args"), "outcome"), json!("complete"));
        let instants = entries
            .iter()
            .filter(|e| *field(e, "ph") == json!("i"))
            .count();
        assert_eq!(instants, 4);
    }

    use crate::span::SpanStatus;

    fn sample_spans() -> Vec<Span> {
        use crate::critical_path::QueryPath;
        use crate::span::SpanLog;
        let t = SimTime::from_millis;
        let mut log = SpanLog::enabled();
        let mut path = QueryPath::open(&mut log, 1, 0, t(2));
        path.offer_sent(&mut log, 7, t(3), Some(t(4)));
        path.result_ready(&mut log, 7, t(4), t(8));
        path.result_sent(&mut log, 7, t(8), Some(t(9)));
        path.complete(&mut log, t(9));
        log.expire_open(t(10));
        log.spans().to_vec()
    }

    #[test]
    fn span_jsonl_round_trips_and_validates() {
        let spans = sample_spans();
        let jsonl = spans_to_jsonl(&spans);
        let parsed = parse_spans_jsonl(&jsonl).unwrap();
        assert_eq!(parsed, spans);
        assert_eq!(validate_spans_jsonl(&jsonl).unwrap(), spans.len());
        // Reordering lines breaks the strictly-increasing id check.
        let mut lines: Vec<&str> = jsonl.lines().collect();
        lines.swap(0, 1);
        assert!(validate_spans_jsonl(&lines.join("\n")).is_err());
        // Dropping a referenced span breaks well-formedness.
        let tail = jsonl.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert!(validate_spans_jsonl(&tail).is_err());
    }

    #[test]
    fn full_chrome_trace_adds_span_slices_and_flow_arrows() {
        let events = sample();
        let spans = sample_spans();
        let doc = to_chrome_trace_full(&events, &spans, "g3 quick");
        let entries = match field(&doc, "traceEvents") {
            Value::Array(items) => items.clone(),
            other => panic!("traceEvents not an array: {other:?}"),
        };
        // Base doc (6 entries for this sample) is untouched...
        let base_doc = to_chrome_trace(&events, "g3 quick");
        let base_entries = match field(&base_doc, "traceEvents") {
            Value::Array(items) => items.clone(),
            other => panic!("traceEvents not an array: {other:?}"),
        };
        assert_eq!(&entries[..base_entries.len()], &base_entries[..]);
        // Not every chrome-trace entry carries every key (metadata has no
        // `cat`), so filter with a tolerant lookup.
        let has = |e: &Value, name: &str, expect: &Value| match e {
            Value::Object(entries) => entries.iter().any(|(k, v)| k == name && v == expect),
            _ => false,
        };
        // ...and each span adds an X slice on its actor's span lane.
        let slices: Vec<_> = entries
            .iter()
            .filter(|e| has(e, "cat", &json!("span")))
            .collect();
        assert_eq!(slices.len(), spans.len());
        // Flow arrows come in s/f pairs sharing an id, and every
        // follows_from edge produced one — so the offloaded query is a
        // connected submit → offer → exec → result arc.
        let starts: Vec<_> = entries
            .iter()
            .filter(|e| has(e, "ph", &json!("s")))
            .collect();
        let finishes: Vec<_> = entries
            .iter()
            .filter(|e| has(e, "ph", &json!("f")))
            .collect();
        assert_eq!(starts.len(), finishes.len());
        let causal_edges = spans.iter().filter(|s| s.follows_from.is_some()).count();
        let first_offers = spans
            .iter()
            .filter(|s| s.kind == SpanKind::OfferFlight && s.follows_from.is_none())
            .count();
        assert_eq!(starts.len(), causal_edges + first_offers);
        assert!(
            starts.len() >= 3,
            "submit→offer→exec→result needs ≥3 arrows"
        );
        let ts_us = |v: &Value| {
            serde_json::to_string(v)
                .unwrap()
                .parse::<u64>()
                .expect("ts is integer µs")
        };
        for (s, f) in starts.iter().zip(&finishes) {
            assert_eq!(field(s, "id"), field(f, "id"));
            // Arrows always point forward in virtual time.
            assert!(ts_us(field(s, "ts")) <= ts_us(field(f, "ts")));
        }
        // The recorded spans are all closed — the args carry the status.
        assert!(slices
            .iter()
            .all(|e| *field(field(e, "args"), "status")
                == json!(format!("{:?}", SpanStatus::Closed))));
    }

    #[test]
    fn exporters_are_deterministic() {
        let events = sample();
        assert_eq!(to_jsonl(&events), to_jsonl(&events));
        assert_eq!(
            serde_json::to_string(&to_chrome_trace(&events, "x")).unwrap(),
            serde_json::to_string(&to_chrome_trace(&events, "x")).unwrap()
        );
    }
}
