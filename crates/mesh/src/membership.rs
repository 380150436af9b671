//! The mesh membership state machine: spontaneous formation & dissolution.
//!
//! [`MeshNode`] is sans-IO: feed it timer ticks ([`MeshNode::on_timer`])
//! and received messages ([`MeshNode::on_message`]); it returns
//! [`MeshAction`]s for the caller to execute. Membership is **lease-based**
//! and pairwise:
//!
//! * hearing a stranger's beacon with adequate link quality triggers a
//!   `JoinRequest`;
//! * `JoinAccept` (or an incoming request) establishes membership with a
//!   lease;
//! * every subsequent beacon from a member implicitly renews its lease;
//! * silence lets the lease expire — the mesh *dissolves* with zero
//!   teardown traffic when vehicles drive apart, exactly the spontaneity
//!   Model 1 calls for. An explicit [`MeshMsg::Leave`] exists for graceful
//!   departures but is never required for correctness.

use crate::beacon::{Beacon, NodeAdvert, MAX_BEACON_MEMBERS};
use crate::neighbor::NeighborTable;
use airdnd_geo::Vec2;
use airdnd_radio::NodeAddr;
use airdnd_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Tuning knobs of the membership protocol.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MeshConfig {
    /// Beacon period.
    pub beacon_interval: SimDuration,
    /// Drop neighbors silent for longer than this.
    pub neighbor_timeout: SimDuration,
    /// Membership lease granted/renewed on contact.
    pub member_lease: SimDuration,
    /// EWMA weight for link-quality updates.
    pub link_alpha: f64,
    /// Minimum link quality before initiating a join.
    pub join_threshold: f64,
    /// Maximum concurrent members.
    pub max_members: usize,
    /// Cooldown between join attempts to the same node.
    pub join_retry: SimDuration,
}

impl Default for MeshConfig {
    /// 100 ms beacons, 350 ms neighbor timeout, 2 s leases.
    fn default() -> Self {
        MeshConfig {
            beacon_interval: SimDuration::from_millis(100),
            neighbor_timeout: SimDuration::from_millis(350),
            member_lease: SimDuration::from_secs(2),
            link_alpha: 0.3,
            join_threshold: 0.5,
            max_members: 64,
            join_retry: SimDuration::from_millis(500),
        }
    }
}

/// Protocol messages exchanged between mesh nodes.
#[derive(Clone, Debug, PartialEq)]
pub enum MeshMsg {
    /// Periodic broadcast heartbeat. The sender allocates it once; every
    /// receiver's copy of the message, and the neighbour entry it
    /// updates, shares that allocation.
    Beacon(Rc<Beacon>),
    /// "I would like to join your mesh view."
    JoinRequest {
        /// Requester's advertisement.
        advert: NodeAdvert,
        /// Requester's position.
        pos: Vec2,
        /// Requester's velocity.
        velocity: Vec2,
    },
    /// "Accepted; here is your lease."
    JoinAccept {
        /// Granted lease duration.
        lease: SimDuration,
    },
    /// Graceful departure (optional; leases handle crashes).
    Leave,
}

impl MeshMsg {
    /// Approximate on-air payload size.
    pub fn wire_size_bytes(&self) -> u64 {
        match self {
            MeshMsg::Beacon(b) => b.wire_size_bytes(),
            MeshMsg::JoinRequest { advert, .. } => 33 + advert.catalog.wire_size_bytes() + 25,
            MeshMsg::JoinAccept { .. } => 9,
            MeshMsg::Leave => 1,
        }
    }
}

/// What the caller must do after feeding the state machine.
#[derive(Clone, Debug, PartialEq)]
pub enum MeshAction {
    /// Broadcast this message to whoever is in range.
    Broadcast(MeshMsg),
    /// Send this message to one peer.
    Unicast(NodeAddr, MeshMsg),
    /// A peer became a member (application-level notification).
    Joined(NodeAddr),
    /// A peer ceased to be a member.
    Left(NodeAddr),
}

/// Window over which churn (joins+leaves per second) is estimated.
const CHURN_WINDOW: SimDuration = SimDuration::from_secs(10);

/// The per-node mesh state machine. See the module docs for the protocol.
#[derive(Clone, Debug)]
pub struct MeshNode {
    addr: NodeAddr,
    cfg: MeshConfig,
    neighbors: NeighborTable,
    /// member → lease expiry.
    members: BTreeMap<NodeAddr, SimTime>,
    /// join target → when the last request went out.
    pending_joins: BTreeMap<NodeAddr, SimTime>,
    seq: u64,
    advert: NodeAdvert,
    pos: Vec2,
    velocity: Vec2,
    churn_events: VecDeque<SimTime>,
    total_joins: u64,
    total_leaves: u64,
}

impl MeshNode {
    /// Creates a node with the given address, configuration and initial
    /// advertisement.
    pub fn new(addr: NodeAddr, cfg: MeshConfig, advert: NodeAdvert) -> Self {
        let neighbors = NeighborTable::new(cfg.link_alpha, cfg.neighbor_timeout);
        MeshNode {
            addr,
            cfg,
            neighbors,
            members: BTreeMap::new(),
            pending_joins: BTreeMap::new(),
            seq: 0,
            advert,
            pos: Vec2::ZERO,
            velocity: Vec2::ZERO,
            churn_events: VecDeque::new(),
            total_joins: 0,
            total_leaves: 0,
        }
    }

    /// This node's address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// The configuration in force.
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    /// Updates the kinematic state carried in future beacons.
    pub fn set_kinematics(&mut self, pos: Vec2, velocity: Vec2) {
        self.pos = pos;
        self.velocity = velocity;
    }

    /// Updates the resource advertisement carried in future beacons.
    pub fn set_advert(&mut self, advert: NodeAdvert) {
        self.advert = advert;
    }

    /// The current position (as last set).
    pub fn pos(&self) -> Vec2 {
        self.pos
    }

    /// Read access to the neighbor table.
    pub fn neighbors(&self) -> &NeighborTable {
        &self.neighbors
    }

    /// Current members in address order.
    pub fn members(&self) -> impl Iterator<Item = NodeAddr> + '_ {
        self.members.keys().copied()
    }

    /// Number of current members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// `true` if `addr` holds an unexpired lease.
    pub fn is_member(&self, addr: NodeAddr) -> bool {
        self.members.contains_key(&addr)
    }

    /// Lifetime join count (for churn experiments).
    pub fn total_joins(&self) -> u64 {
        self.total_joins
    }

    /// Lifetime leave count.
    pub fn total_leaves(&self) -> u64 {
        self.total_leaves
    }

    /// Estimated membership churn: join+leave events per second over the
    /// last `CHURN_WINDOW` (10 s).
    pub fn churn_per_sec(&self, now: SimTime) -> f64 {
        let cutoff = now - CHURN_WINDOW;
        let recent = self.churn_events.iter().filter(|&&t| t >= cutoff).count();
        recent as f64 / CHURN_WINDOW.as_secs_f64()
    }

    fn record_churn(&mut self, now: SimTime) {
        self.churn_events.push_back(now);
        while self.churn_events.len() > 1024 {
            self.churn_events.pop_front();
        }
    }

    fn add_member(&mut self, now: SimTime, peer: NodeAddr, actions: &mut Vec<MeshAction>) {
        let expiry = now + self.cfg.member_lease;
        if self.members.insert(peer, expiry).is_none() {
            self.total_joins += 1;
            self.record_churn(now);
            actions.push(MeshAction::Joined(peer));
        }
        self.pending_joins.remove(&peer);
    }

    fn remove_member(&mut self, now: SimTime, peer: NodeAddr, actions: &mut Vec<MeshAction>) {
        if self.members.remove(&peer).is_some() {
            self.total_leaves += 1;
            self.record_churn(now);
            actions.push(MeshAction::Left(peer));
        }
    }

    /// Periodic tick: call once per [`MeshConfig::beacon_interval`].
    ///
    /// Prunes dead neighbors, expires leases and emits the next beacon.
    pub fn on_timer(&mut self, now: SimTime) -> Vec<MeshAction> {
        let mut actions = Vec::new();
        for dead in self.neighbors.prune(now) {
            self.remove_member(now, dead, &mut actions);
            self.pending_joins.remove(&dead);
        }
        let expired: Vec<NodeAddr> = self
            .members
            .iter()
            .filter(|(_, &expiry)| expiry <= now)
            .map(|(&a, _)| a)
            .collect();
        for peer in expired {
            self.remove_member(now, peer, &mut actions);
        }
        let beacon = Rc::new(Beacon {
            src: self.addr,
            seq: self.seq,
            pos: self.pos,
            velocity: self.velocity,
            advert: self.advert.clone(),
            members: self
                .members
                .keys()
                .copied()
                .take(MAX_BEACON_MEMBERS)
                .collect(),
        });
        self.seq += 1;
        actions.push(MeshAction::Broadcast(MeshMsg::Beacon(beacon)));
        actions
    }

    /// Handles a received protocol message from `from`.
    pub fn on_message(&mut self, now: SimTime, from: NodeAddr, msg: MeshMsg) -> Vec<MeshAction> {
        let mut actions = Vec::new();
        match msg {
            MeshMsg::Beacon(beacon) => {
                debug_assert_eq!(beacon.src, from, "beacon source must match sender");
                self.neighbors.on_beacon(now, beacon);
                if self.members.contains_key(&from) {
                    // Implicit lease renewal.
                    self.members.insert(from, now + self.cfg.member_lease);
                } else if self.members.len() < self.cfg.max_members
                    && self.neighbors.link_quality(from) >= self.cfg.join_threshold
                {
                    let retry_ok = self
                        .pending_joins
                        .get(&from)
                        .is_none_or(|&sent| now.saturating_since(sent) >= self.cfg.join_retry);
                    if retry_ok {
                        self.pending_joins.insert(from, now);
                        actions.push(MeshAction::Unicast(
                            from,
                            MeshMsg::JoinRequest {
                                advert: self.advert.clone(),
                                pos: self.pos,
                                velocity: self.velocity,
                            },
                        ));
                    }
                }
            }
            MeshMsg::JoinRequest { .. } => {
                if self.members.contains_key(&from) || self.members.len() < self.cfg.max_members {
                    self.add_member(now, from, &mut actions);
                    actions.push(MeshAction::Unicast(
                        from,
                        MeshMsg::JoinAccept {
                            lease: self.cfg.member_lease,
                        },
                    ));
                }
                // At capacity: silently ignore; the requester's lease logic
                // handles the absence of an accept.
            }
            MeshMsg::JoinAccept { .. } => {
                if self.members.len() < self.cfg.max_members || self.members.contains_key(&from) {
                    self.add_member(now, from, &mut actions);
                }
            }
            MeshMsg::Leave => {
                self.remove_member(now, from, &mut actions);
                self.pending_joins.remove(&from);
            }
        }
        actions
    }

    /// Emits the actions for a graceful departure (tell members goodbye).
    pub fn leave_all(&mut self, now: SimTime) -> Vec<MeshAction> {
        let mut actions = Vec::new();
        let peers: Vec<NodeAddr> = self.members.keys().copied().collect();
        for peer in peers {
            actions.push(MeshAction::Unicast(peer, MeshMsg::Leave));
            self.remove_member(now, peer, &mut actions);
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u64) -> MeshNode {
        MeshNode::new(
            NodeAddr::new(id),
            MeshConfig::default(),
            NodeAdvert::closed(),
        )
    }

    /// Delivers every network action from `from` to `to` (lossless wire),
    /// returning the application-level notifications from both sides.
    fn exchange(
        now: SimTime,
        from: &mut MeshNode,
        to: &mut MeshNode,
        actions: Vec<MeshAction>,
    ) -> Vec<MeshAction> {
        let mut notifications = Vec::new();
        let mut queue: VecDeque<(NodeAddr, NodeAddr, MeshMsg)> = VecDeque::new();
        for a in actions {
            match a {
                MeshAction::Broadcast(msg) => queue.push_back((from.addr(), to.addr(), msg)),
                MeshAction::Unicast(dst, msg) => queue.push_back((from.addr(), dst, msg)),
                other => notifications.push(other),
            }
        }
        while let Some((src, dst, msg)) = queue.pop_front() {
            let (sender, receiver) = if dst == to.addr() {
                (&mut *from, &mut *to)
            } else {
                (&mut *to, &mut *from)
            };
            debug_assert_eq!(sender.addr(), src);
            for a in receiver.on_message(now, src, msg) {
                match a {
                    MeshAction::Broadcast(m) => {
                        let peer = if receiver.addr() == src { dst } else { src };
                        queue.push_back((receiver.addr(), peer, m));
                    }
                    MeshAction::Unicast(d, m) => queue.push_back((receiver.addr(), d, m)),
                    other => notifications.push(other),
                }
            }
        }
        notifications
    }

    #[test]
    fn two_nodes_form_a_mesh_after_beacons() {
        let mut a = node(1);
        let mut b = node(2);
        let mut joined = 0;
        for tick in 0..10u64 {
            let now = SimTime::from_millis(tick * 100);
            let acts = a.on_timer(now);
            joined += exchange(now, &mut a, &mut b, acts)
                .iter()
                .filter(|x| matches!(x, MeshAction::Joined(_)))
                .count();
            let acts = b.on_timer(now);
            joined += exchange(now, &mut b, &mut a, acts)
                .iter()
                .filter(|x| matches!(x, MeshAction::Joined(_)))
                .count();
            if a.is_member(b.addr()) && b.is_member(a.addr()) {
                break;
            }
        }
        assert!(a.is_member(NodeAddr::new(2)));
        assert!(b.is_member(NodeAddr::new(1)));
        assert!(joined >= 2, "both sides must notify Joined");
    }

    #[test]
    fn silence_dissolves_membership() {
        let mut a = node(1);
        let mut b = node(2);
        for tick in 0..10u64 {
            let now = SimTime::from_millis(tick * 100);
            let acts = a.on_timer(now);
            exchange(now, &mut a, &mut b, acts);
            let acts = b.on_timer(now);
            exchange(now, &mut b, &mut a, acts);
        }
        assert!(a.is_member(NodeAddr::new(2)));
        // b goes silent; a keeps ticking. The neighbor timeout fires first,
        // then (belt and braces) the lease would too.
        let mut left = false;
        for tick in 10..40u64 {
            let now = SimTime::from_millis(tick * 100);
            let acts = a.on_timer(now);
            left |= acts.iter().any(|x| matches!(x, MeshAction::Left(_)));
        }
        assert!(left, "member must be dropped after silence");
        assert!(!a.is_member(NodeAddr::new(2)));
        assert_eq!(a.total_leaves(), 1);
    }

    #[test]
    fn graceful_leave_notifies_peer() {
        let mut a = node(1);
        let mut b = node(2);
        for tick in 0..6u64 {
            let now = SimTime::from_millis(tick * 100);
            let acts = a.on_timer(now);
            exchange(now, &mut a, &mut b, acts);
            let acts = b.on_timer(now);
            exchange(now, &mut b, &mut a, acts);
        }
        assert!(b.is_member(a.addr()));
        let now = SimTime::from_secs(1);
        let actions = a.leave_all(now);
        let note = exchange(now, &mut a, &mut b, actions);
        assert!(
            note.contains(&MeshAction::Left(NodeAddr::new(2))),
            "a's own notification"
        );
        assert!(!b.is_member(a.addr()), "b must have processed Leave");
    }

    #[test]
    fn join_not_attempted_below_link_threshold() {
        let mut a = node(1);
        // One beacon gives quality ≈ max(alpha, 0.5) = 0.5, at threshold.
        // Raise the threshold so a single beacon is insufficient.
        a.cfg.join_threshold = 0.8;
        let b = Beacon {
            src: NodeAddr::new(2),
            seq: 0,
            pos: Vec2::ZERO,
            velocity: Vec2::ZERO,
            advert: NodeAdvert::closed(),
            members: Vec::new(),
        };
        let acts = a.on_message(SimTime::ZERO, NodeAddr::new(2), MeshMsg::Beacon(Rc::new(b)));
        assert!(
            acts.is_empty(),
            "poor link must not trigger a join: {acts:?}"
        );
    }

    #[test]
    fn join_retry_is_rate_limited() {
        let mut a = node(1);
        let beacon_from_2 = |seq| {
            MeshMsg::Beacon(Rc::new(Beacon {
                src: NodeAddr::new(2),
                seq,
                pos: Vec2::ZERO,
                velocity: Vec2::ZERO,
                advert: NodeAdvert::closed(),
                members: Vec::new(),
            }))
        };
        // The cautious link prior means the very first beacon does not
        // clear the join threshold; the second does.
        let first = a.on_message(SimTime::ZERO, NodeAddr::new(2), beacon_from_2(0));
        assert!(first.is_empty(), "one beacon is not yet a joinable link");
        let second = a.on_message(
            SimTime::from_millis(100),
            NodeAddr::new(2),
            beacon_from_2(1),
        );
        assert_eq!(
            second
                .iter()
                .filter(|x| matches!(x, MeshAction::Unicast(_, MeshMsg::JoinRequest { .. })))
                .count(),
            1
        );
        // 100 ms later (within the retry window): no duplicate request.
        let third = a.on_message(
            SimTime::from_millis(200),
            NodeAddr::new(2),
            beacon_from_2(2),
        );
        assert!(third.is_empty());
        // After the cooldown: retried.
        let fourth = a.on_message(
            SimTime::from_millis(700),
            NodeAddr::new(2),
            beacon_from_2(3),
        );
        assert_eq!(fourth.len(), 1);
    }

    #[test]
    fn member_capacity_is_enforced() {
        let mut a = node(1);
        a.cfg.max_members = 2;
        let now = SimTime::ZERO;
        for id in 10..14u64 {
            let req = MeshMsg::JoinRequest {
                advert: NodeAdvert::closed(),
                pos: Vec2::ZERO,
                velocity: Vec2::ZERO,
            };
            a.on_message(now, NodeAddr::new(id), req);
        }
        assert_eq!(a.member_count(), 2);
    }

    #[test]
    fn beacons_renew_leases() {
        let mut a = node(1);
        let now0 = SimTime::ZERO;
        a.on_message(
            now0,
            NodeAddr::new(2),
            MeshMsg::JoinRequest {
                advert: NodeAdvert::closed(),
                pos: Vec2::ZERO,
                velocity: Vec2::ZERO,
            },
        );
        assert!(a.is_member(NodeAddr::new(2)));
        // Keep beaconing every 100 ms well past the original 2 s lease.
        for tick in 1..40u64 {
            let now = SimTime::from_millis(tick * 100);
            let b = Beacon {
                src: NodeAddr::new(2),
                seq: tick,
                pos: Vec2::ZERO,
                velocity: Vec2::ZERO,
                advert: NodeAdvert::closed(),
                members: Vec::new(),
            };
            a.on_message(now, NodeAddr::new(2), MeshMsg::Beacon(Rc::new(b)));
            a.on_timer(now);
        }
        assert!(
            a.is_member(NodeAddr::new(2)),
            "beacons must renew the lease"
        );
    }

    #[test]
    fn churn_rate_reflects_events() {
        let mut a = node(1);
        let now = SimTime::from_secs(5);
        for id in 10..20u64 {
            a.on_message(
                now,
                NodeAddr::new(id),
                MeshMsg::JoinRequest {
                    advert: NodeAdvert::closed(),
                    pos: Vec2::ZERO,
                    velocity: Vec2::ZERO,
                },
            );
        }
        // 10 joins within the window → 1 event/s.
        assert!((a.churn_per_sec(now) - 1.0).abs() < 1e-9);
        // Much later the events age out of the window.
        assert_eq!(a.churn_per_sec(SimTime::from_secs(60)), 0.0);
    }

    /// One broadcast is one allocation: the neighbour tables of every
    /// receiver keep the sender's beacon itself, not copies of it.
    #[test]
    fn receivers_share_one_beacon_allocation() {
        let mut a = node(1);
        let mut b = node(2);
        let mut c = node(3);
        let sent = match a.on_timer(SimTime::ZERO).pop() {
            Some(MeshAction::Broadcast(MeshMsg::Beacon(beacon))) => beacon,
            other => panic!("expected beacon, got {other:?}"),
        };
        for receiver in [&mut b, &mut c] {
            let msg = MeshMsg::Beacon(Rc::clone(&sent));
            receiver.on_message(SimTime::from_millis(1), a.addr(), msg);
        }
        let held_by = |n: &MeshNode| Rc::clone(&n.neighbors().get(a.addr()).unwrap().last_beacon);
        assert!(Rc::ptr_eq(&held_by(&b), &held_by(&c)));
        assert!(Rc::ptr_eq(&held_by(&b), &sent));
        assert_eq!(
            Rc::strong_count(&sent),
            3,
            "the sender's handle and two tables"
        );
    }

    #[test]
    fn beacon_seq_increments() {
        let mut a = node(1);
        let b0 = a.on_timer(SimTime::ZERO);
        let b1 = a.on_timer(SimTime::from_millis(100));
        let seq = |acts: &[MeshAction]| match acts.last() {
            Some(MeshAction::Broadcast(MeshMsg::Beacon(b))) => b.seq,
            other => panic!("expected beacon, got {other:?}"),
        };
        assert_eq!(seq(&b0), 0);
        assert_eq!(seq(&b1), 1);
    }
}
