//! # airdnd-worldgen — procedural scenario generation
//!
//! The paper evaluates AirDnD on one hand-built "looking around the
//! corner" intersection; its claims are about dynamic in-range
//! orchestration under *arbitrary* urban geometry, density and churn.
//! This crate generates that diversity, deterministically:
//!
//! * [`maps`] — parameterized urban fabrics (Manhattan grids with speed
//!   tiers, radial/ring arterials, highway corridors with on-ramps) built
//!   on [`airdnd_geo::RoadNetwork`], plus procedural building placement
//!   that induces hidden regions automatically;
//! * [`fleets`] — density/churn profiles layered on the scenario fleet:
//!   mobile counts, arrival scatter, parked/RSU helpers along the
//!   occluded corridor;
//! * [`demand`] — spatially and temporally varying perception-query
//!   patterns (rush-hour ramps, bursty trains, corridor hotspots);
//! * [`family`] — the [`ScenarioFamily`] registry binding it together:
//!   `FamilyKind::instantiate` turns a `ScenarioConfig` into the
//!   [`WorldInstance`](airdnd_scenario::WorldInstance) that
//!   [`run_scenario_in_observed`](airdnd_scenario::run_scenario_in_observed)
//!   consumes, with
//!   the occlusion grid *derived* from the generated geometry
//!   ([`airdnd_scenario::HiddenGrid::derive`]).
//!
//! ## Determinism contract
//!
//! Generation is a pure function of `(FamilyKind, FleetProfile,
//! ScenarioConfig)`: the stage RNG forks off the scenario seed, so the
//! same seed yields a byte-identical world on any thread, process or
//! host — which is what lets generated workloads shard and merge through
//! the sweep harness unchanged.
//!
//! ## Example
//!
//! ```
//! use airdnd_scenario::{run_scenario_in_observed, ScenarioConfig, TelemetryOptions};
//! use airdnd_sim::SimDuration;
//! use airdnd_worldgen::{families, FleetProfile};
//!
//! let cfg = ScenarioConfig {
//!     vehicles: 6,
//!     duration: SimDuration::from_secs(5),
//!     ..Default::default()
//! };
//! let grid = airdnd_worldgen::find("grid").unwrap();
//! let world = grid.kind.instantiate(&cfg, &FleetProfile::default());
//! let (report, _) = run_scenario_in_observed(world, cfg, TelemetryOptions::default());
//! assert_eq!(report.strategy, "airdnd");
//! assert_eq!(families().len(), 7);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod demand;
pub mod family;
pub mod fleets;
pub mod maps;

pub use demand::DemandKind;
pub use family::{assign_extra_egos, families, find, FamilyKind, ScenarioFamily};
pub use fleets::{parked_positions, ChurnProcess, FleetProfile};
pub use maps::{
    BridgeParams, CityParams, GeneratedMap, GridParams, HighwayParams, RadialParams,
    RoundaboutParams,
};
