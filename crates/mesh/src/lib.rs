//! # airdnd-mesh — Model 1: the Network Description
//!
//! The paper's Model 1 describes "the spontaneously forming and dissolving
//! dynamic mesh network". This crate implements that lifecycle as a
//! **sans-IO state machine** ([`MeshNode`]): it consumes timer ticks and
//! received messages, and emits [`MeshAction`]s (frames to broadcast or
//! unicast, membership notifications). The caller — an engine actor in the
//! simulations, conceivably a real network stack elsewhere — owns all IO,
//! which keeps the protocol testable in isolation.
//!
//! The protocol itself:
//!
//! * **Beaconing** ([`beacon`]) — every node periodically broadcasts its
//!   position, velocity, compute advertisement and data-catalog summary.
//! * **Neighbor tracking** ([`neighbor`]) — beacon reception feeds a
//!   per-neighbor link-quality EWMA; sequence gaps count as losses.
//! * **Membership** ([`membership`]) — a join handshake establishes
//!   lease-based membership; leases renew implicitly through beacons and
//!   expire silently, so the mesh *dissolves* without any teardown protocol
//!   when vehicles drive apart (the paper's "spontaneous dissolution").
//! * **Description** ([`descriptor`]) — a [`MeshDescriptor`] snapshot is the
//!   Model-1 artefact the orchestrator consumes: members, their adverts,
//!   link qualities, staleness and churn estimates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beacon;
pub mod descriptor;
pub mod membership;
pub mod neighbor;

pub use beacon::{Beacon, NodeAdvert};
pub use descriptor::{MemberDescriptor, MeshDescriptor};
pub use membership::{MeshAction, MeshConfig, MeshMsg, MeshNode};
pub use neighbor::{NeighborEntry, NeighborTable};
