//! Beacon frames: the heartbeat of the mesh.
//!
//! A beacon carries everything a stranger needs to decide whether this node
//! is worth joining: where it is and where it is going (for in-range
//! prediction), what compute it offers, and a digest of the data it holds
//! (Model 3). Beacons double as lease renewals for existing members.

use airdnd_data::CatalogSummary;
use airdnd_geo::Vec2;
use airdnd_radio::NodeAddr;
use serde::{Deserialize, Serialize};

/// A node's advertisement of its resources (rides inside every beacon).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeAdvert {
    /// Execution speed, gas per second.
    pub gas_rate: u64,
    /// Gas already queued (backlog — the load signal).
    pub gas_backlog: u64,
    /// Free working memory, bytes.
    pub mem_free_bytes: u64,
    /// Whether the node currently accepts offloaded work.
    pub accepting: bool,
    /// Digest of the locally held data catalog.
    pub catalog: CatalogSummary,
}

impl NodeAdvert {
    /// An advert for a node that shares nothing (still participates in the
    /// mesh for its own requests).
    pub fn closed() -> Self {
        NodeAdvert {
            gas_rate: 0,
            gas_backlog: 0,
            mem_free_bytes: 0,
            accepting: false,
            catalog: CatalogSummary::default(),
        }
    }

    /// Seconds of queued work implied by the backlog, at this node's rate.
    pub fn backlog_seconds(&self) -> f64 {
        if self.gas_rate == 0 {
            return f64::INFINITY;
        }
        self.gas_backlog as f64 / self.gas_rate as f64
    }
}

/// A periodic broadcast frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Beacon {
    /// Sender address.
    pub src: NodeAddr,
    /// Monotone per-sender sequence number (loss detection).
    pub seq: u64,
    /// Sender position, metres.
    pub pos: Vec2,
    /// Sender velocity, m/s.
    pub velocity: Vec2,
    /// Resource advertisement.
    pub advert: NodeAdvert,
    /// Addresses this node currently considers mesh members (capped at
    /// [`MAX_BEACON_MEMBERS`]). No receiver reads them; they count toward
    /// the beacon's [`wire_size_bytes`](Beacon::wire_size_bytes).
    pub members: Vec<NodeAddr>,
}

/// Maximum member addresses carried in one beacon.
pub const MAX_BEACON_MEMBERS: usize = 16;

impl Beacon {
    /// Approximate on-air size in bytes: fixed fields + catalog digest +
    /// member list.
    pub fn wire_size_bytes(&self) -> u64 {
        let fixed = 8 + 8 + 16 + 16 + 8 + 8 + 8 + 1;
        fixed + self.advert.catalog.wire_size_bytes() + self.members.len() as u64 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beacon() -> Beacon {
        Beacon {
            src: NodeAddr::new(1),
            seq: 0,
            pos: Vec2::ZERO,
            velocity: Vec2::new(10.0, 0.0),
            advert: NodeAdvert::closed(),
            members: vec![NodeAddr::new(2), NodeAddr::new(3)],
        }
    }

    #[test]
    fn wire_size_is_beacon_scale() {
        let b = beacon();
        let size = b.wire_size_bytes();
        assert!(size < 500, "beacons must be small, got {size}");
        let mut bigger = b.clone();
        bigger.members.push(NodeAddr::new(4));
        assert_eq!(bigger.wire_size_bytes(), size + 8);
    }

    #[test]
    fn closed_advert_offers_nothing() {
        let a = NodeAdvert::closed();
        assert!(!a.accepting);
        assert_eq!(a.backlog_seconds(), f64::INFINITY);
    }

    #[test]
    fn backlog_seconds_scales() {
        let a = NodeAdvert {
            gas_rate: 1_000_000,
            gas_backlog: 2_500_000,
            mem_free_bytes: 0,
            accepting: true,
            catalog: CatalogSummary::default(),
        };
        assert!((a.backlog_seconds() - 2.5).abs() < 1e-12);
    }
}
