//! Neighbor tables with link-quality estimation.
//!
//! Every received beacon updates the sender's entry; sequence-number gaps
//! reveal lost beacons. Link quality is an EWMA over the implied
//! delivery/loss history, so it tracks fading links *before* they die —
//! the orchestrator uses it to avoid offloading to a vehicle that is about
//! to leave range (RQ1's "link quality" criterion).

use crate::beacon::Beacon;
use airdnd_radio::NodeAddr;
use airdnd_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::rc::Rc;

/// State kept per neighbor.
#[derive(Clone, Debug)]
pub struct NeighborEntry {
    /// The most recent beacon received: the sender's own allocation,
    /// shared with every other receiver of that broadcast.
    pub last_beacon: Rc<Beacon>,
    /// When it was received.
    pub last_seen: SimTime,
    /// EWMA delivery ratio in `[0, 1]`.
    pub link_quality: f64,
}

impl NeighborEntry {
    /// Age of the newest information about this neighbor.
    pub fn age(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.last_seen)
    }
}

/// The per-node neighbor table.
#[derive(Clone, Debug)]
pub struct NeighborTable {
    entries: BTreeMap<NodeAddr, NeighborEntry>,
    alpha: f64,
    timeout: SimDuration,
}

impl NeighborTable {
    /// Creates a table.
    ///
    /// `alpha` is the EWMA weight of a new observation; `timeout` is how
    /// long an entry survives without beacons.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64, timeout: SimDuration) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0, 1]");
        NeighborTable {
            entries: BTreeMap::new(),
            alpha,
            timeout,
        }
    }

    /// Ingests a received beacon.
    ///
    /// Sequence gaps since the previous beacon are charged as losses before
    /// the successful reception is credited.
    pub fn on_beacon(&mut self, now: SimTime, beacon: Rc<Beacon>) {
        match self.entries.get_mut(&beacon.src) {
            Some(entry) => {
                let expected = entry.last_beacon.seq.wrapping_add(1);
                let missed = beacon.seq.saturating_sub(expected).min(16);
                for _ in 0..missed {
                    entry.link_quality *= 1.0 - self.alpha;
                }
                entry.link_quality = entry.link_quality * (1.0 - self.alpha) + self.alpha;
                entry.last_beacon = beacon;
                entry.last_seen = now;
            }
            None => {
                self.entries.insert(
                    beacon.src,
                    NeighborEntry {
                        last_beacon: beacon,
                        last_seen: now,
                        // Cautious prior: a single beacon proves little;
                        // quality must be earned over a few receptions so
                        // range-edge links do not flap into membership.
                        link_quality: self.alpha,
                    },
                );
            }
        }
    }

    /// Removes entries not heard from within the timeout; returns their
    /// addresses.
    pub fn prune(&mut self, now: SimTime) -> Vec<NodeAddr> {
        let timeout = self.timeout;
        let dead: Vec<NodeAddr> = self
            .entries
            .iter()
            .filter(|(_, e)| e.age(now) > timeout)
            .map(|(&a, _)| a)
            .collect();
        for addr in &dead {
            self.entries.remove(addr);
        }
        dead
    }

    /// The entry for `addr`, if known.
    pub fn get(&self, addr: NodeAddr) -> Option<&NeighborEntry> {
        self.entries.get(&addr)
    }

    /// Link quality toward `addr` (0.0 if unknown).
    pub fn link_quality(&self, addr: NodeAddr) -> f64 {
        self.entries.get(&addr).map_or(0.0, |e| e.link_quality)
    }

    /// Number of known neighbors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no neighbors are known.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beacon::NodeAdvert;
    use airdnd_geo::Vec2;

    fn beacon_at(src: u64, seq: u64, pos: Vec2) -> Rc<Beacon> {
        Rc::new(Beacon {
            src: NodeAddr::new(src),
            seq,
            pos,
            velocity: Vec2::ZERO,
            advert: NodeAdvert::closed(),
            members: Vec::new(),
        })
    }

    fn beacon(src: u64, seq: u64) -> Rc<Beacon> {
        beacon_at(src, seq, Vec2::ZERO)
    }

    fn table() -> NeighborTable {
        NeighborTable::new(0.3, SimDuration::from_millis(300))
    }

    #[test]
    fn first_beacon_creates_entry_with_cautious_prior() {
        let mut t = table();
        t.on_beacon(SimTime::ZERO, beacon(1, 0));
        assert_eq!(t.len(), 1);
        let q = t.link_quality(NodeAddr::new(1));
        assert!(
            q > 0.0 && q < 0.5,
            "one beacon must not look like a solid link: {q}"
        );
        assert_eq!(t.link_quality(NodeAddr::new(9)), 0.0);
    }

    #[test]
    fn consecutive_beacons_raise_quality() {
        let mut t = table();
        for seq in 0..20 {
            t.on_beacon(SimTime::from_millis(seq * 100), beacon(1, seq));
        }
        assert!(t.link_quality(NodeAddr::new(1)) > 0.95);
    }

    #[test]
    fn sequence_gaps_lower_quality() {
        let mut t = table();
        for seq in 0..10 {
            t.on_beacon(SimTime::from_millis(seq * 100), beacon(1, seq));
        }
        let before = t.link_quality(NodeAddr::new(1));
        // Next beacon skips 5 sequence numbers → 5 losses charged.
        t.on_beacon(SimTime::from_millis(1600), beacon(1, 15));
        let after = t.link_quality(NodeAddr::new(1));
        assert!(after < before, "{after} should drop below {before}");
    }

    #[test]
    fn quality_stays_in_unit_interval() {
        let mut t = table();
        t.on_beacon(SimTime::ZERO, beacon(1, 0));
        // Huge gap: loss charging is capped, quality must stay ≥ 0.
        t.on_beacon(SimTime::from_secs(1), beacon(1, 1_000_000));
        let q = t.link_quality(NodeAddr::new(1));
        assert!((0.0..=1.0).contains(&q));
    }

    #[test]
    fn prune_removes_silent_neighbors() {
        let mut t = table();
        t.on_beacon(SimTime::ZERO, beacon(1, 0));
        t.on_beacon(SimTime::from_millis(250), beacon(2, 0));
        let dead = t.prune(SimTime::from_millis(400));
        assert_eq!(dead, vec![NodeAddr::new(1)]);
        assert_eq!(t.len(), 1);
        assert!(t.get(NodeAddr::new(2)).is_some());
    }

    #[test]
    fn entry_exposes_latest_beacon() {
        let mut t = table();
        t.on_beacon(SimTime::ZERO, beacon_at(1, 0, Vec2::new(5.0, 5.0)));
        let b2 = beacon_at(1, 1, Vec2::new(7.0, 5.0));
        t.on_beacon(SimTime::from_millis(100), Rc::clone(&b2));
        let e = t.get(NodeAddr::new(1)).unwrap();
        assert_eq!(e.last_beacon.pos, Vec2::new(7.0, 5.0));
        assert!(
            Rc::ptr_eq(&e.last_beacon, &b2),
            "the table keeps the allocation it was fed"
        );
        assert_eq!(
            e.age(SimTime::from_millis(150)),
            SimDuration::from_millis(50)
        );
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        let _ = NeighborTable::new(0.0, SimDuration::from_secs(1));
    }
}
