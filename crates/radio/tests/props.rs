//! Property-based tests for the radio substrate.

use airdnd_geo::{Vec2, World};
use airdnd_radio::{profiles, NodeAddr, RadioMedium};
use airdnd_sim::{SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    /// PER is monotone non-decreasing in distance (mean channel, no
    /// shadowing draw).
    #[test]
    fn per_monotone_in_distance(d1 in 1.0f64..5000.0, d2 in 1.0f64..5000.0, bits in 8u64..100_000) {
        let (channel, _) = profiles::dsrc();
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let per_near = channel.per_at(near, true, 0.0, bits);
        let per_far = channel.per_at(far, true, 0.0, bits);
        prop_assert!(per_far >= per_near - 1e-12);
        prop_assert!((0.0..=1.0).contains(&per_near));
        prop_assert!((0.0..=1.0).contains(&per_far));
    }

    /// Losing line of sight never improves PER.
    #[test]
    fn occlusion_never_helps(d in 1.0f64..5000.0, bits in 8u64..100_000) {
        let (channel, _) = profiles::dsrc();
        let los = channel.per_at(d, true, 0.0, bits);
        let nlos = channel.per_at(d, false, 0.0, bits);
        prop_assert!(nlos >= los - 1e-12);
    }

    /// Bigger frames never fail less at the same SNR.
    #[test]
    fn per_monotone_in_frame_size(snr in -20.0f64..40.0, b1 in 8u64..50_000, b2 in 8u64..50_000) {
        let (channel, _) = profiles::dsrc();
        let (small, big) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        prop_assert!(channel.per(snr, big) >= channel.per(snr, small) - 1e-12);
    }

    /// Airtime accounting: a unicast call adds at least the payload bytes
    /// to the medium's on-air counter and never moves time backwards.
    #[test]
    fn unicast_accounting_is_sane(
        seed in any::<u64>(),
        payload in 1u64..10_000,
        distance in 1.0f64..1_000.0,
    ) {
        let mut medium = RadioMedium::v2v(&World::new(), SimRng::seed_from(seed));
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        medium.set_position(a, Vec2::ZERO);
        medium.set_position(b, Vec2::new(distance, 0.0));
        let before = medium.bytes_on_air_total();
        let now = SimTime::from_millis(5);
        let (outcome, report) = medium.unicast(now, a, b, payload);
        prop_assert!(report.bytes_on_air >= payload);
        prop_assert_eq!(medium.bytes_on_air_total(), before + report.bytes_on_air);
        if let Some(at) = outcome.delivered_at() {
            prop_assert!(at > now, "delivery cannot precede transmission");
        }
    }

    /// Broadcast transmits exactly once regardless of the receiver count.
    #[test]
    fn broadcast_single_transmission(seed in any::<u64>(), receivers in 0usize..20) {
        let mut medium = RadioMedium::v2v(&World::new(), SimRng::seed_from(seed));
        let src = NodeAddr::new(1);
        medium.set_position(src, Vec2::ZERO);
        for i in 0..receivers {
            medium.set_position(NodeAddr::new(i as u64 + 2), Vec2::new(20.0 + i as f64, 0.0));
        }
        let (deliveries, report) = medium.broadcast(SimTime::ZERO, src, 200);
        prop_assert_eq!(report.bytes_on_air, 200 + medium.mac().header_bytes);
        prop_assert!(deliveries.len() <= receivers);
    }
}
