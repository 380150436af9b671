//! # AirDnD — Asynchronous In-Range Dynamic and Distributed Network
//! # Orchestration Framework
//!
//! A from-scratch Rust implementation of the AirDnD vision (Mahawatta
//! Dona, Berger & Yu, ICDCS 2023): geographically distributed edge devices
//! and vehicles spontaneously form a **dynamic mesh network**, advertise
//! their excess compute and locally held data, and execute each other's
//! **offloaded compute tasks** so that raw data never moves — only
//! portable task descriptions and small results do.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`sim`] | `airdnd-sim` | virtual time, seeded RNG, statistics |
//! | [`geo`] | `airdnd-geo` | roads, mobility, occlusion |
//! | [`engine`] | `airdnd-engine` | event timeline, uniform spatial grid, fleet address map |
//! | [`radio`] | `airdnd-radio` | V2V channel/MAC + cellular profiles |
//! | [`data`] | `airdnd-data` | **Model 3** — data descriptions |
//! | [`task`] | `airdnd-task` | **Model 2** — TaskVM task descriptions |
//! | [`mesh`] | `airdnd-mesh` | **Model 1** — mesh network descriptions |
//! | [`nfv`] | `airdnd-nfv` | resource virtualization & VNF manager |
//! | [`trust`] | `airdnd-trust` | reputation, hashing, result voting |
//! | [`core`] | `airdnd-core` | the orchestrator itself (RQ1–RQ3) |
//! | [`baselines`] | `airdnd-baselines` | auctions, cloud, local baselines |
//! | [`scenario`] | `airdnd-scenario` | "looking around the corner" |
//! | [`worldgen`] | `airdnd-worldgen` | procedural scenario generation |
//! | [`harness`] | `airdnd-harness` | parallel deterministic sweep orchestration |
//! | [`telemetry`] | `airdnd-telemetry` | typed events, metrics, timelines, profiling |
//!
//! ## Quickstart
//!
//! ```
//! use airdnd::scenario::{run_scenario, ScenarioConfig, Strategy};
//! use airdnd::sim::SimDuration;
//!
//! let report = run_scenario(ScenarioConfig {
//!     vehicles: 8,
//!     duration: SimDuration::from_secs(10),
//!     strategy: Strategy::Airdnd,
//!     ..Default::default()
//! });
//! assert!(report.tasks_submitted > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use airdnd_baselines as baselines;
pub use airdnd_core as core;
pub use airdnd_data as data;
pub use airdnd_engine as engine;
pub use airdnd_geo as geo;
pub use airdnd_harness as harness;
pub use airdnd_mesh as mesh;
pub use airdnd_nfv as nfv;
pub use airdnd_radio as radio;
pub use airdnd_scenario as scenario;
pub use airdnd_sim as sim;
pub use airdnd_task as task;
pub use airdnd_telemetry as telemetry;
pub use airdnd_trust as trust;
pub use airdnd_worldgen as worldgen;
