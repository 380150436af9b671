//! Event-scheduled scenario core for AirDnD.
//!
//! The scenario runner drives the world through this crate's three
//! primitives:
//!
//! * [`Timeline`] — the one scheduler: a deterministic priority queue of
//!   typed scenario events, keyed by `(timestamp, sequence)` so
//!   same-instant collisions resolve in schedule order on every host,
//!   thread count and shard split. Systems react to the popped event;
//!   nothing sweeps the fleet.
//! * [`SpatialGrid`] — the one spatial index: a uniform grid with
//!   *incremental* position updates (insert/update/remove by key). Range
//!   queries touch only the cells overlapping the query circle, so radio
//!   delivery and mesh upkeep are O(nearby), not O(fleet).
//! * [`AddrIndex`] ([`addr_index`]) — the fleet's stable `addr → slot`
//!   map, replacing per-vehicle linear scans with one paged lookup.
//!
//! The crate sits between `airdnd-geo`/`airdnd-sim` and everything that
//! moves: it depends only on those two and carries no scenario policy.
//! Determinism is load-bearing throughout — no hash-map iteration order
//! escapes, no real clock is read, and every query returns results in a
//! key-sorted or schedule order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr_index;
pub mod spatial;
pub mod timeline;

pub use addr_index::AddrIndex;
pub use spatial::SpatialGrid;
pub use timeline::Timeline;
