//! Local-only execution and raw-data V2V sharing.
//!
//! Two more comparison points bracket AirDnD:
//!
//! * [`LocalOnly`] — never cooperate: compute everything on the ego
//!   vehicle with only its own data (fast, private, but blind around
//!   corners);
//! * [`raw_sharing_completion`] — cooperate the naive way: pull the raw
//!   sensor data over V2V and compute locally. Same mesh, same radio, but
//!   megabytes instead of kilobytes on the air — the contrast behind the
//!   paper's data-minimization claim (experiment F2).

use airdnd_radio::{DeliveryOutcome, NodeAddr, RadioMedium};
use airdnd_sim::{SimDuration, SimTime};

/// Never-offload execution model.
#[derive(Clone, Copy, Debug)]
pub struct LocalOnly {
    gas_rate: u64,
    busy_until: SimTime,
}

impl LocalOnly {
    /// Creates the model with the ego vehicle's execution speed.
    ///
    /// # Panics
    ///
    /// Panics if `gas_rate` is zero.
    pub fn new(gas_rate: u64) -> Self {
        assert!(gas_rate > 0, "local execution needs a positive gas rate");
        LocalOnly {
            gas_rate,
            busy_until: SimTime::ZERO,
        }
    }

    /// Runs a task of `gas` locally; returns its completion time.
    /// Sequential tasks queue on the single local executor.
    pub fn run(&mut self, now: SimTime, gas: u64) -> SimTime {
        let start = self.busy_until.max(now);
        let finish = start + SimDuration::from_secs_f64(gas as f64 / self.gas_rate as f64);
        self.busy_until = finish;
        finish
    }
}

/// Naive V2V cooperation: fetch the raw data, then compute locally.
///
/// Models a request frame to `holder`, the bulk transfer of
/// `raw_bytes` back over the shared medium (fragmented into
/// `fragment_bytes` frames), and local execution of `gas`. Returns
/// `(completion_time, wire_bytes)` or `None` if any fragment is lost
/// beyond the MAC's retries.
#[allow(clippy::too_many_arguments)] // mirrors the protocol message fields one-to-one
pub fn raw_sharing_completion(
    medium: &mut RadioMedium,
    local: &mut LocalOnly,
    now: SimTime,
    requester: NodeAddr,
    holder: NodeAddr,
    raw_bytes: u64,
    fragment_bytes: u64,
    gas: u64,
) -> Option<(SimTime, u64)> {
    let fragment = fragment_bytes.max(1);
    // Request frame.
    let (outcome, request_report) = medium.unicast(now, requester, holder, 64);
    let mut cursor = outcome.delivered_at()?;
    let mut wire_bytes = request_report.bytes_on_air;
    // Bulk transfer, fragment by fragment.
    let mut remaining = raw_bytes;
    while remaining > 0 {
        let this = remaining.min(fragment);
        let (outcome, report) = medium.unicast(cursor, holder, requester, this);
        wire_bytes += report.bytes_on_air;
        match outcome {
            DeliveryOutcome::Delivered { at, .. } => cursor = at,
            _ => return None,
        }
        remaining -= this;
    }
    // Local compute once the data is in.
    let finish = local.run(cursor, gas);
    Some((finish, wire_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use airdnd_geo::{Vec2, World};
    use airdnd_sim::SimRng;

    #[test]
    fn local_only_queues_sequentially() {
        let mut local = LocalOnly::new(1_000_000);
        let a = local.run(SimTime::ZERO, 500_000);
        let b = local.run(SimTime::ZERO, 500_000);
        assert_eq!(a, SimTime::from_millis(500));
        assert_eq!(b, SimTime::from_secs(1));
        // Idle gaps are not charged.
        let c = local.run(SimTime::from_secs(10), 1_000_000);
        assert_eq!(c, SimTime::from_secs(11));
    }

    #[test]
    fn raw_sharing_costs_dwarf_the_payload() {
        let mut medium = RadioMedium::v2v(&World::new(), SimRng::seed_from(1));
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        medium.set_position(a, Vec2::ZERO);
        medium.set_position(b, Vec2::new(30.0, 0.0));
        let mut local = LocalOnly::new(1_000_000);
        let raw = 500_000; // a modest lidar slice
        let (done, wire) = raw_sharing_completion(
            &mut medium,
            &mut local,
            SimTime::ZERO,
            a,
            b,
            raw,
            1_400,
            100_000,
        )
        .expect("30 m link should survive");
        assert!(wire > raw, "headers inflate the wire cost");
        // 500 kB at 6 Mbps is ~0.67 s of airtime alone.
        assert!(done > SimTime::from_millis(600), "got {done}");
    }

    #[test]
    fn raw_sharing_fails_on_dead_links() {
        let mut medium = RadioMedium::v2v(&World::new(), SimRng::seed_from(2));
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        medium.set_position(a, Vec2::ZERO);
        medium.set_position(b, Vec2::new(50_000.0, 0.0));
        let mut local = LocalOnly::new(1_000_000);
        let result = raw_sharing_completion(
            &mut medium,
            &mut local,
            SimTime::ZERO,
            a,
            b,
            10_000,
            1_400,
            1_000,
        );
        assert!(result.is_none());
    }

    #[test]
    #[should_panic(expected = "positive gas rate")]
    fn zero_rate_panics() {
        let _ = LocalOnly::new(0);
    }
}
