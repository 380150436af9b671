//! # airdnd-trust — RQ3: integrity, trust and privacy
//!
//! The paper's third research question asks how to handle offloaded
//! computation with respect to "feasibility, privacy, integrity, and
//! trust". Feasibility is handled by the TaskVM verifier and gas meter
//! (crate `airdnd-task`); this crate supplies the remaining three:
//!
//! * [`hash`] — a from-scratch SHA-256 for content-addressing results,
//! * [`reputation`] — beta-distribution reputation scores that the node
//!   selector blends in (nodes that return wrong results stop being
//!   chosen),
//! * [`verify`] — result digests and redundant-execution majority voting;
//!   TaskVM execution is deterministic, so *any* honest re-execution
//!   exposes a forged result,
//! * [`privacy`] — ordered data-minimization levels and a generic policy
//!   table gating what may be shared with whom.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod privacy;
pub mod reputation;
pub mod verify;

pub use hash::{sha256, Digest};
pub use privacy::{PrivacyLevel, PrivacyPolicy};
pub use reputation::{BetaReputation, ReputationTable};
pub use verify::{digest_outputs, majority_vote, Verdict};
