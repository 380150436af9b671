//! Property-based tests for mesh membership invariants.

use airdnd_geo::Vec2;
use airdnd_mesh::{Beacon, MeshAction, MeshConfig, MeshDescriptor, MeshMsg, MeshNode, NodeAdvert};
use airdnd_radio::NodeAddr;
use airdnd_sim::SimTime;
use proptest::prelude::*;
use std::rc::Rc;

fn beacon(src: u64, seq: u64) -> Rc<Beacon> {
    Rc::new(Beacon {
        src: NodeAddr::new(src),
        seq,
        pos: Vec2::new(src as f64, 0.0),
        velocity: Vec2::ZERO,
        advert: NodeAdvert::closed(),
        members: Vec::new(),
    })
}

proptest! {
    /// Member count never exceeds the configured maximum, no matter what
    /// join traffic arrives.
    #[test]
    fn membership_capacity_invariant(
        max_members in 1usize..8,
        joiners in proptest::collection::vec(1u64..50, 0..64),
    ) {
        let cfg = MeshConfig { max_members, ..MeshConfig::default() };
        let mut node = MeshNode::new(NodeAddr::new(100), cfg, NodeAdvert::closed());
        for (i, &peer) in joiners.iter().enumerate() {
            node.on_message(
                SimTime::from_millis(i as u64 * 10),
                NodeAddr::new(peer),
                MeshMsg::JoinRequest {
                    advert: NodeAdvert::closed(),
                    pos: Vec2::ZERO,
                    velocity: Vec2::ZERO,
                },
            );
            prop_assert!(node.member_count() <= max_members);
        }
    }

    /// Every Joined notification is eventually balanced: total joins −
    /// total leaves == current membership.
    #[test]
    fn join_leave_accounting_balances(
        events in proptest::collection::vec((1u64..12, any::<bool>()), 0..100),
    ) {
        let mut node = MeshNode::new(NodeAddr::new(100), MeshConfig::default(), NodeAdvert::closed());
        for (i, &(peer, join)) in events.iter().enumerate() {
            let now = SimTime::from_millis(i as u64 * 10);
            let msg = if join {
                MeshMsg::JoinRequest {
                    advert: NodeAdvert::closed(),
                    pos: Vec2::ZERO,
                    velocity: Vec2::ZERO,
                }
            } else {
                MeshMsg::Leave
            };
            node.on_message(now, NodeAddr::new(peer), msg);
        }
        prop_assert_eq!(
            node.total_joins() as i64 - node.total_leaves() as i64,
            node.member_count() as i64
        );
    }

    /// Link quality stays within [0, 1] under arbitrary beacon sequences
    /// (gaps, replays, reordering).
    #[test]
    fn link_quality_bounded(seqs in proptest::collection::vec(0u64..1000, 1..64)) {
        let mut node = MeshNode::new(NodeAddr::new(100), MeshConfig::default(), NodeAdvert::closed());
        for (i, &seq) in seqs.iter().enumerate() {
            node.on_message(
                SimTime::from_millis(i as u64 * 50),
                NodeAddr::new(7),
                MeshMsg::Beacon(beacon(7, seq)),
            );
            let q = node.neighbors().link_quality(NodeAddr::new(7));
            prop_assert!((0.0..=1.0).contains(&q), "quality {q} out of range");
        }
    }

    /// A captured descriptor only ever contains current members, and its
    /// stability score is bounded.
    #[test]
    fn descriptor_reflects_membership(peers in proptest::collection::vec(1u64..20, 0..16)) {
        let mut node = MeshNode::new(NodeAddr::new(100), MeshConfig::default(), NodeAdvert::closed());
        for (i, &peer) in peers.iter().enumerate() {
            let now = SimTime::from_millis(i as u64 * 10);
            node.on_message(
                now,
                NodeAddr::new(peer),
                MeshMsg::JoinRequest {
                    advert: NodeAdvert::closed(),
                    pos: Vec2::ZERO,
                    velocity: Vec2::ZERO,
                },
            );
            node.on_message(now, NodeAddr::new(peer), MeshMsg::Beacon(beacon(peer, i as u64)));
        }
        let d = MeshDescriptor::capture(&node, SimTime::from_secs(1));
        for m in &d.members {
            prop_assert!(node.is_member(m.addr));
        }
        prop_assert!((0.0..=1.0).contains(&d.stability_score()));
    }

    /// on_timer always emits exactly one beacon, whatever state the node
    /// is in, and beacon sequence numbers strictly increase.
    #[test]
    fn timer_always_beacons(ticks in 1usize..50) {
        let mut node = MeshNode::new(NodeAddr::new(100), MeshConfig::default(), NodeAdvert::closed());
        let mut last_seq = None;
        for i in 0..ticks {
            let actions = node.on_timer(SimTime::from_millis(i as u64 * 100));
            let beacons: Vec<u64> = actions
                .iter()
                .filter_map(|a| match a {
                    MeshAction::Broadcast(MeshMsg::Beacon(b)) => Some(b.seq),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(beacons.len(), 1);
            if let Some(prev) = last_seq {
                prop_assert!(beacons[0] > prev);
            }
            last_seq = Some(beacons[0]);
        }
    }
}
