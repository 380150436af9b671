//! # airdnd-telemetry — structured observability for the simulation
//!
//! The paper's claims are about *dynamics* — asynchronous joins and
//! leaves, in-range handoffs, task offload under churn — so the window
//! into a run must be richer than a free-form string trace. This crate is
//! that window, in five pieces:
//!
//! * [`Event`]/[`EventKind`] — a typed schema for everything the driver
//!   used to describe with `"area: detail"` labels: mesh join/leave,
//!   frame tx/rx/drop, task submit/offload/complete/expire, lifecycle
//!   spawn/despawn, demand fire.
//! * [`EventLog`] — a bounded per-category ring the events are recorded
//!   into. Recording is a no-op when the log is disabled, and recording
//!   never touches simulation state, RNG streams or scheduling, so a run
//!   with telemetry on reports **byte-identical** results to one with
//!   telemetry off.
//! * [`Registry`] — a deterministic metrics registry of run-wide integer
//!   counters (frame drops, and drops at the MAC queue cap). No wall
//!   clock, no floats on the recording path — the registry is part of
//!   the deterministic output surface. Per-query figures, per-ego
//!   fairness included, come from the scenario runner's outcome ledger
//!   instead.
//! * [`export`] — a JSONL event log (one object per line, byte-exact
//!   round-trip) and a Chrome-trace/Perfetto-compatible timeline, both
//!   pure functions of the event log (sim time only, stable ordering).
//! * [`TraceQuery`] — a matcher API over the recorded events (filter by
//!   kind/category/actor/time window, assert ordering), so tests stop
//!   grepping substrings out of rendered traces.
//!
//! [`PhaseProfiler`] is the one deliberate exception to determinism: it
//! attributes *wall-clock* to engine phases (movement, radio, mesh,
//! tasks), which the `perfbench` benchmark reads on its traced runs. It
//! never feeds an artifact that is diffed for byte identity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critical_path;
pub mod event;
pub mod export;
pub mod log;
pub mod metrics;
pub mod profile;
pub mod query;
pub mod span;

pub use critical_path::{extract, QueryPath, Stage, StageBudget};
pub use event::{DropReason, Event, EventCategory, EventKind};
pub use log::{EventLog, Recorded};
pub use metrics::{Registry, Scope};
pub use profile::{Phase, PhaseProfiler};
pub use query::TraceQuery;
pub use span::{validate_spans, Span, SpanId, SpanKind, SpanLog, SpanStatus};

use airdnd_sim::SimTime;

/// What a run should capture, beyond the always-on metrics registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetryOptions {
    /// Record typed events into a per-category ring of this capacity
    /// (`None` keeps the event log disabled — the zero-cost default).
    pub events: Option<usize>,
    /// Attribute wall-clock to engine phases (see [`PhaseProfiler`]).
    /// Wall-clock only; never part of a deterministic artifact.
    pub profile: bool,
    /// Record per-query causal span trees (see [`SpanLog`]). Like the
    /// event log, span recording never perturbs the run — reports are
    /// byte-identical with spans on or off.
    pub spans: bool,
}

impl TelemetryOptions {
    /// Default per-category ring capacity used by [`Self::from_env`] and
    /// the CLI exporters when no explicit capacity is given.
    pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

    /// Options with event recording enabled at `capacity` entries per
    /// category.
    pub fn events(capacity: usize) -> Self {
        TelemetryOptions {
            events: Some(capacity),
            profile: false,
            spans: false,
        }
    }

    /// The same options with span recording switched on.
    pub fn with_spans(self) -> Self {
        TelemetryOptions {
            spans: true,
            ..self
        }
    }

    /// Reads the `AIRDND_TELEMETRY` environment variable: unset means
    /// disabled, a number is a per-category ring capacity, any other
    /// non-empty value enables the default capacity. The companion
    /// `AIRDND_TELEMETRY_SPANS` variable (any non-empty value other than
    /// `0`) additionally turns on span recording. CI uses these to prove
    /// non-perturbation by diffing artifacts produced with the variables
    /// set against artifacts produced without them.
    pub fn from_env() -> Self {
        let spans = match std::env::var("AIRDND_TELEMETRY_SPANS") {
            Err(_) => false,
            Ok(value) => !(value.is_empty() || value == "0"),
        };
        let base = match std::env::var("AIRDND_TELEMETRY") {
            Err(_) => TelemetryOptions::default(),
            Ok(value) if value.is_empty() || value == "0" => TelemetryOptions::default(),
            Ok(value) => TelemetryOptions {
                events: Some(
                    value
                        .parse::<usize>()
                        .unwrap_or(Self::DEFAULT_EVENT_CAPACITY),
                ),
                profile: false,
                spans: false,
            },
        };
        TelemetryOptions { spans, ..base }
    }
}

/// Everything one observed run captures: the typed event log, the
/// deterministic metrics registry and the (wall-clock) phase profile.
///
/// The registry is always populated — it is deterministic integer state
/// that perfbench reads — while the event log and the profiler obey
/// [`TelemetryOptions`].
#[derive(Clone, Debug)]
pub struct RunTelemetry {
    /// Typed events, recorded when enabled.
    pub events: EventLog,
    /// Deterministic run-wide counters (always on).
    pub metrics: Registry,
    /// Wall-clock phase attribution, recorded when enabled.
    pub phases: PhaseProfiler,
    /// Per-query causal span trees, recorded when enabled.
    pub spans: SpanLog,
}

impl RunTelemetry {
    /// Telemetry with everything but the metrics registry off.
    pub fn disabled() -> Self {
        RunTelemetry {
            events: EventLog::disabled(),
            metrics: Registry::new(),
            phases: PhaseProfiler::disabled(),
            spans: SpanLog::disabled(),
        }
    }

    /// Telemetry configured by `opts` (the registry is always on).
    pub fn with(opts: TelemetryOptions) -> Self {
        RunTelemetry {
            events: match opts.events {
                Some(capacity) => EventLog::bounded(capacity),
                None => EventLog::disabled(),
            },
            metrics: Registry::new(),
            phases: if opts.profile {
                PhaseProfiler::enabled()
            } else {
                PhaseProfiler::disabled()
            },
            spans: if opts.spans {
                SpanLog::enabled()
            } else {
                SpanLog::disabled()
            },
        }
    }

    /// Records one typed event (no-op when the event log is disabled).
    pub fn event(&mut self, time: SimTime, actor: u32, kind: EventKind) {
        self.events.record(time, actor, kind);
    }
}

impl Default for RunTelemetry {
    fn default() -> Self {
        RunTelemetry::disabled()
    }
}
