//! # airdnd-geo — geometry, roads, mobility and occlusion substrate
//!
//! AirDnD orchestrates *in-range* nodes, so everything in the framework
//! ultimately depends on where nodes are, how they move, and what they can
//! see. This crate provides that physical substrate:
//!
//! * [`Vec2`] — plane geometry,
//! * [`road`] — road networks with lanes, intersections and shortest-path
//!   routes (the "looking around the corner" scenario is a four-way
//!   intersection built here),
//! * [`mobility`] — vehicle motion: parked nodes and route following with
//!   an IDM car-following speed profile,
//! * [`occlusion`] — axis-aligned obstacles and line-of-sight tests (corner
//!   buildings are what make "looking around the corner" necessary).
//!
//! The paper's scaled-vehicle testbed (Revere lab) is replaced by these
//! kinematic models; see `DESIGN.md` §3 for why this preserves the
//! observables the orchestration layer cares about (positions, velocities,
//! in-range windows, occlusion).
//!
//! ## Example
//!
//! ```
//! use airdnd_geo::{RoadNetwork, Vec2};
//!
//! let net = RoadNetwork::four_way_intersection(100.0, 13.9);
//! let route = net.route(net.approach_node(0), net.exit_node(1)).unwrap();
//! let (pos, _heading) = route.position_at(10.0);
//! assert!(pos.distance(Vec2::new(0.0, -90.0)) < 11.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mobility;
pub mod occlusion;
pub mod road;
pub mod vec2;

pub use mobility::{IdmParams, Mobility, VehicleState};
pub use occlusion::{Aabb, Obstacle, ObstacleIndex, World};
pub use road::{NodeId, RoadNetwork, Route};
pub use vec2::Vec2;
