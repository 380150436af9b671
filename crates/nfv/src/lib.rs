//! # airdnd-nfv — the infrastructure layer of Fig. 1
//!
//! The paper's architecture rests on an NFV-style infrastructure layer:
//! node resources are *virtualized* into slices, network functions run as
//! VNF instances on those slices, and an NF manager places and migrates
//! them as the mesh reshapes. This crate implements that layer:
//!
//! * [`resources`] — capacity accounting and slice allocation per node,
//! * [`vnf`] — VNF descriptors, instances and a validated lifecycle state
//!   machine (instantiating → running → migrating → …),
//! * [`chain`] — ordered service-function chains with availability
//!   accounting,
//! * [`manager`] — the NF manager: placement strategies (first/best/worst
//!   fit), chain deployment, node-failure healing and migration under
//!   mobility (experiment T11).
//!
//! The layer stands apart from the orchestrator: `airdnd-core` does not
//! depend on this crate, and offloaded TaskVM work draws on the
//! executor's own gas budget, not on these pools. Experiment T11 in
//! `airdnd-bench` is the one driver of the NF manager.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod manager;
pub mod resources;
pub mod vnf;

pub use chain::{ChainId, ServiceChain};
pub use manager::{NfManager, PlacementStrategy};
pub use resources::{AllocationId, ResourceCapacity, ResourcePool};
pub use vnf::{VnfDescriptor, VnfId, VnfInstance, VnfKind, VnfState};
