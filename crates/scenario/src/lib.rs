//! # airdnd-scenario — "looking around the corner", end to end
//!
//! The paper evaluates AirDnD on an autonomous vehicle approaching an
//! occluded intersection, collecting *computational results* (not raw
//! data) from nearby vehicles. This crate is that evaluation: a closed
//! loop binding every other crate —
//!
//! * a four-way intersection with corner buildings ([`world`]),
//! * a heterogeneous vehicle fleet with IDM mobility and full
//!   [`OrchestratorNode`](airdnd_core::OrchestratorNode)s ([`fleet`]),
//! * synthetic perception: each vehicle rasterizes its view of the shared
//!   *hidden region* behind the corner into an occupancy grid, catalogued
//!   as Model-3 data ([`perception`]),
//! * the simulation driver: a deterministic event loop routing every
//!   protocol frame through the radio medium, executing offloaded TaskVM
//!   kernels on helper vehicles, and scoring coverage against ground truth
//!   ([`runner`]).
//!
//! Strategies ([`Strategy`]) swap the cooperation mechanism — AirDnD mesh
//! offloading, cellular cloud, raw-data V2V sharing, or no cooperation —
//! over the *same* world, fleet and task stream, which is what the F2–F4
//! experiments report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demand;
pub mod fleet;
pub mod lifecycle;
pub mod perception;
pub mod runner;
pub mod world;

pub use demand::DemandProfile;
pub use fleet::{Fleet, FleetLayout, Vehicle, VehicleKind};
pub use lifecycle::{FleetAction, FleetEvent, FleetSchedule};
pub use perception::{fuse_max, observed_fraction, occupied_cells};
pub use runner::{
    run_scenario, run_scenario_in_observed, EgoRoute, ScenarioConfig, ScenarioReport, Strategy,
    WorldInstance,
};
pub use world::{OcclusionParams, ScenarioWorld};

// Observability surface: re-exported so downstream crates (bench, sweep)
// query runs without naming the telemetry crate directly.
pub use airdnd_telemetry::{
    extract, validate_spans, DropReason, EventCategory, EventKind, Phase, RunTelemetry, Scope,
    Span, SpanKind, SpanLog, SpanStatus, Stage, StageBudget, TelemetryOptions, TraceQuery,
};
