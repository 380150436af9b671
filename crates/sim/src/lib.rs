//! # airdnd-sim — deterministic simulation primitives
//!
//! The vocabulary every other AirDnD crate shares:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time with nanosecond resolution,
//! * [`SimRng`] — a seedable, forkable PCG32 random-number generator so every
//!   experiment is reproducible from a single `u64` seed,
//! * [`stats`] — Welford/percentile helpers used by the experiment harness.
//!
//! The scheduler that orders events in virtual time is
//! `airdnd_engine::Timeline`. Nothing in a run reads the wall clock or
//! depends on thread scheduling, which makes every experiment in
//! `EXPERIMENTS.md` reproducible bit-for-bit from its seed.
//!
//! ## Example
//!
//! ```
//! use airdnd_sim::{SimDuration, SimRng, SimTime};
//!
//! // Two generators from one seed draw the same virtual-time delays.
//! let mut a = SimRng::seed_from(42);
//! let mut b = SimRng::seed_from(42);
//! let delay = |rng: &mut SimRng| SimDuration::from_secs_f64(rng.exp(0.005));
//! let t = SimTime::ZERO + delay(&mut a);
//! assert_eq!(t, SimTime::ZERO + delay(&mut b));
//! assert!(t > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod stats;
pub mod time;

pub use rng::SimRng;
pub use stats::{percentile, OnlineStats};
pub use time::{SimDuration, SimTime};
