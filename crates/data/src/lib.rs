//! # airdnd-data — Model 3: the Data Description
//!
//! The paper's Model 3 "describes the type and the quality of data that
//! shall be required by the exchanged compute task". In AirDnD the *data
//! stays where it was generated*; what travels is a description rich enough
//! for the orchestrator to decide **which node's data can satisfy a task**
//! without moving a byte of it. This crate defines that description:
//!
//! * [`schema`] — what a piece of data *is* (raw frames, detection lists,
//!   occupancy grids, …) with realistic sizes, because size asymmetry
//!   between raw data and computed results is the heart of the paper's
//!   data-minimization claim,
//! * [`quality`] — freshness, confidence, resolution, spatial coverage and
//!   noise descriptors, plus graded requirement matching (RQ1's "data
//!   quality" selection criterion),
//! * [`catalog`] — the per-node inventory of data items and the compact
//!   summaries beaconed into the mesh,
//! * [`matching`] — query-against-catalog scoring used by node selection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod matching;
pub mod quality;
pub mod schema;

pub use catalog::{CatalogSummary, DataCatalog, DataItem, DataItemId};
pub use matching::{best_match, match_score};
pub use quality::{QualityDescriptor, QualityRequirement};
pub use schema::{DataQuery, DataType, SensorModality};
