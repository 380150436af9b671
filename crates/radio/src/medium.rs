//! The shared wireless medium: contention, loss, and delivery timing.
//!
//! [`RadioMedium`] is a passive service (no actor of its own): protocol
//! layers ask it *when* a frame would be delivered and *whether* it
//! survives, then schedule their own engine messages with the returned
//! delays. This keeps the radio independent of any particular message type
//! while still producing honest latency/loss/goodput behaviour:
//!
//! * **Contention** — transmissions carrier-sense a grid of airspace cells
//!   (`cs_range`-sized); a transmitter defers until its local airspace is
//!   free, then pays DIFS + slotted backoff. Spatially separated nodes
//!   reuse the spectrum, co-located ones serialize and collapse under load.
//! * **Loss** — per-frame PER from the [`ChannelModel`] with a fresh
//!   log-normal shadowing draw; unicast retries up to
//!   [`MacParams::max_attempts`], broadcast is send-once.
//! * **Accounting** — every call reports bytes put on the air, which the
//!   data-transfer experiments (F2) aggregate.
//!
//! Explicit hidden-terminal collisions are not modelled; contention and
//! SNR-based loss reproduce the load behaviour the experiments need (see
//! DESIGN.md §3).

use crate::channel::ChannelModel;
use crate::mac::MacParams;
use airdnd_engine::SpatialGrid;
use airdnd_geo::{ObstacleIndex, Vec2, World};
use airdnd_sim::{SimDuration, SimRng, SimTime};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Radio-level address of a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeAddr(u64);

/// The broadcast address.
pub const BROADCAST: NodeAddr = NodeAddr(u64::MAX);

impl NodeAddr {
    /// Creates an address from a raw id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is `u64::MAX` (reserved for [`BROADCAST`]).
    pub fn new(id: u64) -> Self {
        assert_ne!(id, u64::MAX, "u64::MAX is the broadcast address");
        NodeAddr(id)
    }

    /// The raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// `true` if this is the broadcast address.
    pub const fn is_broadcast(self) -> bool {
        self.0 == u64::MAX
    }
}

impl fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_broadcast() {
            write!(f, "radio:*")
        } else {
            write!(f, "radio:{}", self.0)
        }
    }
}

/// Result of a unicast transmission attempt sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The frame arrived at the destination at the given time.
    Delivered {
        /// Arrival time at the receiver.
        at: SimTime,
        /// Number of transmissions used (1 = first try).
        attempts: u32,
    },
    /// All attempts failed the channel draw.
    Lost {
        /// Number of transmissions used.
        attempts: u32,
    },
    /// Source or destination is not registered on the medium.
    Unreachable,
}

impl DeliveryOutcome {
    /// The arrival time if delivered.
    pub fn delivered_at(self) -> Option<SimTime> {
        match self {
            DeliveryOutcome::Delivered { at, .. } => Some(at),
            _ => None,
        }
    }
}

/// Airtime/byte accounting for one medium call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TxReport {
    /// Bytes put on the air (headers and retries included).
    pub bytes_on_air: u64,
    /// Total air occupancy caused by this call.
    pub airtime: SimDuration,
}

/// One broadcast delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BroadcastDelivery {
    /// The receiver.
    pub to: NodeAddr,
    /// Arrival time.
    pub at: SimTime,
}

/// The shared medium. See the module docs for the model.
#[derive(Clone, Debug)]
pub struct RadioMedium {
    channel: ChannelModel,
    mac: MacParams,
    /// Line-of-sight accelerator over the construction world's obstacles:
    /// the medium answers up to one LOS query per broadcast candidate per
    /// beacon, so on city-scale worlds this must be O(nearby obstacles),
    /// not O(all obstacles). The world's geometry is fixed for the
    /// medium's lifetime, so the index fully replaces it.
    los: ObstacleIndex,
    cs_range: f64,
    /// Broadcast cut-off distance, metres: `2 ×` the line-of-sight
    /// [`ChannelModel::nominal_range`], fixed at construction. The
    /// line-of-sight range ignores obstacle loss, which is the only
    /// channel parameter the medium lets callers change afterwards.
    horizon: f64,
    /// Node positions in a uniform-grid index (cells of `cs_range`), so
    /// broadcast candidate scans touch only nearby cells instead of the
    /// whole registry.
    positions: SpatialGrid<NodeAddr>,
    busy: BTreeMap<(i64, i64), SimTime>,
    rng: SimRng,
    total_bytes_on_air: u64,
    total_airtime: SimDuration,
    queue_drops: u64,
}

/// Speed of light, m/s (propagation delay).
const C: f64 = 299_792_458.0;

impl RadioMedium {
    /// Creates a medium.
    ///
    /// `cs_range` is the carrier-sense range in metres: transmitters within
    /// `cs_range` of each other contend for the same airspace.
    ///
    /// # Panics
    ///
    /// Panics if `cs_range` is not positive and finite.
    pub fn new(
        channel: ChannelModel,
        mac: MacParams,
        world: &World,
        cs_range: f64,
        rng: SimRng,
    ) -> Self {
        assert!(
            cs_range.is_finite() && cs_range > 0.0,
            "carrier-sense range must be positive"
        );
        RadioMedium {
            channel,
            mac,
            los: ObstacleIndex::new(world),
            cs_range,
            horizon: 2.0 * channel.nominal_range(true),
            positions: SpatialGrid::new(cs_range),
            busy: BTreeMap::new(),
            rng,
            total_bytes_on_air: 0,
            total_airtime: SimDuration::ZERO,
            queue_drops: 0,
        }
    }

    /// A medium with V2V defaults over the given world.
    pub fn v2v(world: &World, rng: SimRng) -> Self {
        let (channel, mac) = crate::profiles::dsrc();
        RadioMedium::new(channel, mac, world, 600.0, rng)
    }

    /// The channel model in use.
    pub fn channel(&self) -> &ChannelModel {
        &self.channel
    }

    /// The MAC parameters in use.
    pub fn mac(&self) -> &MacParams {
        &self.mac
    }

    /// The line-of-sight index over the medium's obstacles, for callers
    /// that test sight lines through the same world (a scenario's
    /// sensors), so one run builds one index.
    pub fn obstacle_index(&self) -> &ObstacleIndex {
        &self.los
    }

    /// Frames dropped at the MAC because the airspace was booked out past
    /// [`MacParams::max_queue_delay`] — the congestion-collapse signal.
    pub fn queue_drops(&self) -> u64 {
        self.queue_drops
    }

    /// Bounds (or unbounds, with `None`) the MAC transmit queue — see
    /// [`MacParams::max_queue_delay`]. Dense scenarios cap this near the
    /// beacon interval so overload sheds frames instead of accumulating
    /// an ever-later delivery backlog.
    pub fn set_max_queue_delay(&mut self, cap: Option<SimDuration>) {
        self.mac.max_queue_delay = cap;
    }

    /// Overrides the channel's through-obstacle penetration loss, dB.
    /// Worlds whose occluders are radio-opaque structures (tunnel shells,
    /// bridge decks) raise this far above the urban-building default so
    /// the obstacle genuinely partitions the mesh.
    pub fn set_obstacle_loss_db(&mut self, loss_db: f64) {
        self.channel.obstacle_loss_db = loss_db;
    }

    /// Registers or moves a node.
    pub fn set_position(&mut self, addr: NodeAddr, pos: Vec2) {
        assert!(
            !addr.is_broadcast(),
            "cannot position the broadcast address"
        );
        self.positions.insert(addr, pos);
    }

    /// Deregisters a node (frames to it become [`DeliveryOutcome::Unreachable`]).
    pub fn remove_node(&mut self, addr: NodeAddr) {
        self.positions.remove(addr);
    }

    /// Position of a node, if registered.
    pub fn position(&self, addr: NodeAddr) -> Option<Vec2> {
        self.positions.position(addr)
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Total bytes ever put on the air.
    pub fn bytes_on_air_total(&self) -> u64 {
        self.total_bytes_on_air
    }

    /// Total airtime ever occupied.
    pub fn airtime_total(&self) -> SimDuration {
        self.total_airtime
    }

    fn cell_of(&self, p: Vec2) -> (i64, i64) {
        (
            (p.x / self.cs_range).floor() as i64,
            (p.y / self.cs_range).floor() as i64,
        )
    }

    /// Earliest time the airspace around `pos` is free.
    fn airspace_free_at(&self, pos: Vec2) -> SimTime {
        let (cx, cy) = self.cell_of(pos);
        let mut free = SimTime::ZERO;
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(&t) = self.busy.get(&(cx + dx, cy + dy)) {
                    free = free.max(t);
                }
            }
        }
        free
    }

    fn occupy_airspace(&mut self, pos: Vec2, until: SimTime) {
        let (cx, cy) = self.cell_of(pos);
        for dx in -1..=1 {
            for dy in -1..=1 {
                let entry = self.busy.entry((cx + dx, cy + dy)).or_insert(SimTime::ZERO);
                *entry = (*entry).max(until);
            }
        }
    }

    /// One physical transmission: returns `(tx_end, frame_survives)` for a
    /// link of `distance` metres, and accounts airtime/bytes.
    fn transmit(
        &mut self,
        earliest: SimTime,
        src_pos: Vec2,
        payload_bytes: u64,
        attempt: u32,
        distance: f64,
        line_of_sight: bool,
    ) -> (SimTime, bool) {
        let cw = self.mac.contention_window(attempt);
        let slots = if cw == 0 {
            0
        } else {
            (self.rng.next_u64() % (cw as u64 + 1)) as u32
        };
        let access = self.mac.difs + self.mac.backoff(slots);
        let start = self.airspace_free_at(src_pos).max(earliest) + access;
        let airtime = self.mac.tx_time(payload_bytes);
        let end = start + airtime;
        self.occupy_airspace(src_pos, end);
        self.total_airtime += airtime;
        self.total_bytes_on_air += payload_bytes + self.mac.header_bytes;
        let shadow = self.rng.normal(0.0, self.channel.shadowing_sigma_db);
        let bits = (payload_bytes + self.mac.header_bytes) * 8;
        let per = self.channel.per_at(distance, line_of_sight, shadow, bits);
        let survives = !self.rng.chance(per);
        (end, survives)
    }

    /// Sends `payload_bytes` from `src` to `dst` with ARQ retries.
    ///
    /// Returns the outcome plus airtime/byte accounting. The returned
    /// delivery time includes queueing, contention, transmission and
    /// propagation.
    pub fn unicast(
        &mut self,
        now: SimTime,
        src: NodeAddr,
        dst: NodeAddr,
        payload_bytes: u64,
    ) -> (DeliveryOutcome, TxReport) {
        let (Some(src_pos), Some(dst_pos)) =
            (self.positions.position(src), self.positions.position(dst))
        else {
            return (DeliveryOutcome::Unreachable, TxReport::default());
        };
        // Bounded transmit queue (opt-in): saturated airspace drops the
        // frame at the MAC (before any RNG draw, so capless and
        // uncongested runs are bit-for-bit unchanged) instead of
        // deferring without limit.
        if let Some(cap) = self.mac.max_queue_delay {
            if self.airspace_free_at(src_pos).saturating_since(now) > cap {
                self.queue_drops += 1;
                return (DeliveryOutcome::Lost { attempts: 0 }, TxReport::default());
            }
        }
        let distance = src_pos.distance(dst_pos);
        let los = self.los.line_of_sight(src_pos, dst_pos);
        let airtime_before = self.total_airtime;
        let bytes_before = self.total_bytes_on_air;
        let mut cursor = now;
        let mut attempts = 0;
        let outcome = loop {
            let (end, ok) = self.transmit(cursor, src_pos, payload_bytes, attempts, distance, los);
            attempts += 1;
            if ok {
                let prop = SimDuration::from_secs_f64(distance / C);
                break DeliveryOutcome::Delivered {
                    at: end + prop,
                    attempts,
                };
            }
            if attempts >= self.mac.max_attempts {
                break DeliveryOutcome::Lost { attempts };
            }
            cursor = end;
        };
        let report = TxReport {
            bytes_on_air: self.total_bytes_on_air - bytes_before,
            airtime: self.total_airtime - airtime_before,
        };
        (outcome, report)
    }

    /// Broadcasts `payload_bytes` from `src`: one transmission, each
    /// registered neighbour independently survives or loses the frame.
    ///
    /// Each candidate draws its shadowing, then one uniform against its
    /// PER. The PER is settled from the SNR where it can be: when the
    /// line-of-sight and the blocked SNR both lie past the same cut of
    /// [`ChannelModel::per`] (where it is exactly 0.0 or 1.0), the
    /// candidate needs no line-of-sight query. Otherwise the obstacle
    /// index picks the SNR, and `per` runs only when that SNR lies between
    /// the cuts. Deliveries and RNG draws are exactly those of line of
    /// sight followed by [`ChannelModel::per_at`] for every candidate.
    ///
    /// Receivers farther than the medium's horizon, `2 ×` the
    /// line-of-sight [`ChannelModel::nominal_range`] computed once in
    /// [`RadioMedium::new`], are never considered and draw no RNG. The cut
    /// is a modelling truncation, not a limit of the channel: under
    /// [`profiles::dsrc`](crate::profiles::dsrc) (horizon 723.6 m, σ =
    /// 3 dB shadowing, 36 B headers) a line-of-sight receiver exactly at
    /// the horizon would still decode a 100 B frame about 0.50 % of the
    /// time and a 300 B frame about 0.28 %; at 1.2 × the horizon, about
    /// 0.05 % and 0.025 %.
    pub fn broadcast(
        &mut self,
        now: SimTime,
        src: NodeAddr,
        payload_bytes: u64,
    ) -> (Vec<BroadcastDelivery>, TxReport) {
        let Some(src_pos) = self.positions.position(src) else {
            return (Vec::new(), TxReport::default());
        };
        // Bounded transmit queue (opt-in): a beacon that cannot reach
        // the air within `max_queue_delay` is superseded by the next
        // one, so the MAC drops it. Under sustained overload this caps
        // both the airspace backlog and every surviving frame's latency
        // — with unbounded deferral, both grow linearly for the rest of
        // the run and every delivered advert goes irreparably stale.
        // The check precedes all RNG draws: capless and uncongested
        // runs are bit-for-bit unchanged.
        if let Some(cap) = self.mac.max_queue_delay {
            if self.airspace_free_at(src_pos).saturating_since(now) > cap {
                self.queue_drops += 1;
                return (Vec::new(), TxReport::default());
            }
        }
        let airtime_before = self.total_airtime;
        let bytes_before = self.total_bytes_on_air;
        // Single transmission, no retries: pay access + airtime once.
        let cw = self.mac.contention_window(0);
        let slots = if cw == 0 {
            0
        } else {
            (self.rng.next_u64() % (cw as u64 + 1)) as u32
        };
        let access = self.mac.difs + self.mac.backoff(slots);
        let start = self.airspace_free_at(src_pos).max(now) + access;
        let airtime = self.mac.tx_time(payload_bytes);
        let end = start + airtime;
        self.occupy_airspace(src_pos, end);
        self.total_airtime += airtime;
        self.total_bytes_on_air += payload_bytes + self.mac.header_bytes;

        let horizon = self.horizon;
        let bits = (payload_bytes + self.mac.header_bytes) * 8;
        let per_one_db = ChannelModel::snr_per_one_db(bits);
        // Grid cells overlapping the horizon circle, then the exact
        // historical predicate and address order — candidates, and
        // therefore every per-candidate RNG draw below, match the old
        // full-registry scan bit for bit.
        let mut candidates: Vec<(NodeAddr, Vec2)> = Vec::new();
        self.positions
            .candidates_into(src_pos, horizon, &mut candidates);
        candidates.retain(|&(a, p)| a != src && p.distance(src_pos) <= horizon);
        candidates.sort_unstable_by_key(|&(a, _)| a);
        let mut deliveries = Vec::new();
        for (addr, pos) in candidates {
            let distance = src_pos.distance(pos);
            // Line of sight draws no RNG, so drawing the shadowing first
            // keeps every draw where it was.
            let shadow = self.rng.normal(0.0, self.channel.shadowing_sigma_db);
            let (clear, blocked) = self.channel.snr_clear_and_blocked(distance, shadow);
            let settle = |snr| ChannelModel::settled_per(snr, per_one_db);
            let per = match (settle(clear), settle(blocked)) {
                (Some(a), Some(b)) if a == b => a,
                _ => {
                    let snr = if self.los.line_of_sight(src_pos, pos) {
                        clear
                    } else {
                        blocked
                    };
                    settle(snr).unwrap_or_else(|| self.channel.per(snr, bits))
                }
            };
            if !self.rng.chance(per) {
                let prop = SimDuration::from_secs_f64(distance / C);
                deliveries.push(BroadcastDelivery {
                    to: addr,
                    at: end + prop,
                });
            }
        }
        let report = TxReport {
            bytes_on_air: self.total_bytes_on_air - bytes_before,
            airtime: self.total_airtime - airtime_before,
        };
        (deliveries, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medium() -> RadioMedium {
        RadioMedium::v2v(&World::new(), SimRng::seed_from(7))
    }

    /// Brute-force reference for [`RadioMedium::broadcast`]: a medium
    /// plus its own registry of every node, scanned in full on every call
    /// with the horizon bisected afresh and line of sight tested against
    /// every obstacle of the world. It drives the wrapped medium's MAC
    /// state and RNG exactly as the fast path must.
    struct Reference {
        medium: RadioMedium,
        world: World,
        nodes: BTreeMap<NodeAddr, Vec2>,
    }

    impl Reference {
        fn new(medium: RadioMedium, world: World) -> Self {
            Reference {
                medium,
                world,
                nodes: BTreeMap::new(),
            }
        }

        fn set_position(&mut self, addr: NodeAddr, pos: Vec2) {
            self.medium.set_position(addr, pos);
            self.nodes.insert(addr, pos);
        }

        fn remove_node(&mut self, addr: NodeAddr) {
            self.medium.remove_node(addr);
            self.nodes.remove(&addr);
        }

        fn broadcast(
            &mut self,
            now: SimTime,
            src: NodeAddr,
            payload_bytes: u64,
        ) -> (Vec<BroadcastDelivery>, TxReport) {
            let m = &mut self.medium;
            let Some(&src_pos) = self.nodes.get(&src) else {
                return (Vec::new(), TxReport::default());
            };
            if let Some(cap) = m.mac.max_queue_delay {
                if m.airspace_free_at(src_pos).saturating_since(now) > cap {
                    m.queue_drops += 1;
                    return (Vec::new(), TxReport::default());
                }
            }
            let cw = m.mac.contention_window(0);
            let slots = if cw == 0 {
                0
            } else {
                (m.rng.next_u64() % (cw as u64 + 1)) as u32
            };
            let start = m.airspace_free_at(src_pos).max(now) + m.mac.difs + m.mac.backoff(slots);
            let airtime = m.mac.tx_time(payload_bytes);
            let end = start + airtime;
            m.occupy_airspace(src_pos, end);
            m.total_airtime += airtime;
            m.total_bytes_on_air += payload_bytes + m.mac.header_bytes;
            let horizon = 2.0 * m.channel.nominal_range(true);
            let bits = (payload_bytes + m.mac.header_bytes) * 8;
            let mut deliveries = Vec::new();
            for (&addr, &pos) in &self.nodes {
                let distance = src_pos.distance(pos);
                if addr == src || distance > horizon {
                    continue;
                }
                let los = self.world.line_of_sight(src_pos, pos);
                let shadow = m.rng.normal(0.0, m.channel.shadowing_sigma_db);
                let per = m.channel.per_at(distance, los, shadow, bits);
                if !m.rng.chance(per) {
                    let prop = SimDuration::from_secs_f64(distance / C);
                    deliveries.push(BroadcastDelivery {
                        to: addr,
                        at: end + prop,
                    });
                }
            }
            let report = TxReport {
                bytes_on_air: payload_bytes + m.mac.header_bytes,
                airtime,
            };
            (deliveries, report)
        }
    }

    /// Random buildings over a `span`-metre square centred on the origin.
    fn random_world(rng: &mut SimRng, span: f64, buildings: usize) -> World {
        let mut world = World::new();
        for _ in 0..buildings {
            let center = Vec2::new((rng.next_f64() - 0.5) * span, (rng.next_f64() - 0.5) * span);
            let (w, h) = (10.0 + rng.next_f64() * 80.0, 10.0 + rng.next_f64() * 80.0);
            world.add_obstacle(airdnd_geo::Obstacle::Rect(
                airdnd_geo::Aabb::from_center_size(center, w, h),
            ));
        }
        world
    }

    /// On seeded random fleets the fast broadcast (horizon computed once,
    /// grid candidates, PER settled from the SNR before line of sight,
    /// indexed line of sight) matches the brute-force reference call for
    /// call: the same receivers at the same times, the same report, the
    /// same queue drops and the same next RNG draw. Fleets include
    /// co-located nodes, nodes exactly on the horizon, moves, removals,
    /// broadcasts from removed nodes and, for half the seeds, a queue cap
    /// tight enough to shed frames. Which candidates skip line of sight
    /// depends on the blocked SNR, so four seeds move the obstacle loss
    /// to 0 dB (blocked = clear) and to 200 dB (a tunnel shell).
    #[test]
    fn broadcast_matches_brute_force_reference() {
        let (channel, mac) = crate::profiles::dsrc();
        let horizon = 2.0 * channel.nominal_range(true);
        let mut shed = 0;
        let mut delivered = 0;
        for seed in 0..12u64 {
            let mut rng = SimRng::seed_from(1_000 + seed);
            let span = 3_000.0;
            let world = random_world(&mut rng, span, 40);
            let fast_rng = SimRng::seed_from(seed);
            let mut fast = RadioMedium::new(channel, mac, &world, 600.0, fast_rng.clone());
            let slow = RadioMedium::new(channel, mac, &world, 600.0, fast_rng);
            let mut slow = Reference::new(slow, world);
            if seed % 2 == 1 {
                let cap = Some(SimDuration::from_micros(400));
                fast.set_max_queue_delay(cap);
                slow.medium.set_max_queue_delay(cap);
            }
            let loss_db = match seed {
                8 | 9 => Some(0.0),
                10 | 11 => Some(200.0),
                _ => None,
            };
            if let Some(loss_db) = loss_db {
                fast.set_obstacle_loss_db(loss_db);
                slow.medium.set_obstacle_loss_db(loss_db);
            }
            let nodes = 120u64;
            let place = |fast: &mut RadioMedium, slow: &mut Reference, addr, pos| {
                fast.set_position(addr, pos);
                slow.set_position(addr, pos);
            };
            for i in 0..nodes {
                let pos = Vec2::new((rng.next_f64() - 0.5) * span, (rng.next_f64() - 0.5) * span);
                place(&mut fast, &mut slow, NodeAddr::new(i), pos);
            }
            // Three nodes on one spot, and a ring of nodes exactly on (and
            // one just past) the horizon of the node at the origin.
            let spot = Vec2::new(123.25, -45.5);
            for addr in [200, 201, 202] {
                place(&mut fast, &mut slow, NodeAddr::new(addr), spot);
            }
            place(&mut fast, &mut slow, NodeAddr::new(300), Vec2::ZERO);
            let ring = [
                Vec2::new(horizon, 0.0),
                Vec2::new(-horizon, 0.0),
                Vec2::new(0.0, horizon),
                Vec2::new(0.0, -horizon),
                Vec2::new(horizon.next_up(), 0.0),
            ];
            for (k, pos) in ring.into_iter().enumerate() {
                assert_eq!(pos.distance(Vec2::ZERO) <= horizon, k < 4);
                place(&mut fast, &mut slow, NodeAddr::new(301 + k as u64), pos);
            }
            let mut addrs: Vec<u64> = (0..nodes).chain(200..203).chain(300..306).collect();
            for step in 0..300u64 {
                let now = SimTime::from_micros(step * 250);
                match rng.index(10).unwrap() {
                    0 => {
                        // Move a node, possibly across grid cells.
                        let addr = NodeAddr::new(addrs[rng.index(addrs.len()).unwrap()]);
                        let pos =
                            Vec2::new((rng.next_f64() - 0.5) * span, (rng.next_f64() - 0.5) * span);
                        place(&mut fast, &mut slow, addr, pos);
                    }
                    1 if addrs.len() > 20 => {
                        let gone = addrs.swap_remove(rng.index(addrs.len()).unwrap());
                        fast.remove_node(NodeAddr::new(gone));
                        slow.remove_node(NodeAddr::new(gone));
                    }
                    _ => {}
                }
                // Mostly registered senders, sometimes a removed or
                // never-registered one; the origin node and the
                // co-located trio often.
                let src = match rng.index(8).unwrap() {
                    0 => 300,
                    1 => 200 + rng.index(3).unwrap() as u64,
                    2 => rng.index(400).unwrap() as u64,
                    _ => addrs[rng.index(addrs.len()).unwrap()],
                };
                let bytes = 100 + rng.index(400).unwrap() as u64;
                let got = fast.broadcast(now, NodeAddr::new(src), bytes);
                let want = slow.broadcast(now, NodeAddr::new(src), bytes);
                assert_eq!(got, want, "seed {seed} step {step} src {src}");
                assert_eq!(fast.queue_drops(), slow.medium.queue_drops());
                assert_eq!(fast.rng.next_u64(), slow.medium.rng.next_u64());
                delivered += got.0.len();
            }
            shed += fast.queue_drops();
            assert_eq!(fast.bytes_on_air_total(), slow.medium.bytes_on_air_total());
            assert_eq!(fast.airtime_total(), slow.medium.airtime_total());
        }
        assert!(shed > 0, "the capped seeds must shed frames");
        assert!(
            delivered > 1_000,
            "the fleets must exchange frames: {delivered}"
        );
    }

    /// The horizon is computed once, from the line-of-sight range, which
    /// obstacle loss does not enter: raising the loss leaves it where a
    /// fresh computation over the changed channel would put it.
    #[test]
    fn obstacle_loss_does_not_move_the_horizon() {
        let mut m = medium();
        let before = m.horizon;
        assert_eq!(before, 2.0 * m.channel().nominal_range(true));
        m.set_obstacle_loss_db(200.0);
        assert_eq!(m.channel().obstacle_loss_db, 200.0);
        assert_eq!(m.horizon, before);
        assert_eq!(m.horizon, 2.0 * m.channel().nominal_range(true));
    }

    /// Saturating the airspace must cap the backlog: once the local cell
    /// is booked out past `max_queue_delay`, further frames drop instead
    /// of queueing, so delivery latency stays bounded.
    #[test]
    fn saturated_airspace_drops_instead_of_deferring() {
        let mut m = medium();
        let cap = SimDuration::from_millis(100);
        m.set_max_queue_delay(Some(cap));
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        m.set_position(a, Vec2::ZERO);
        m.set_position(b, Vec2::new(20.0, 0.0));
        let airtime = m.mac().tx_time(10_000);
        let mut delivered_latest = SimTime::ZERO;
        let mut dropped = 0;
        // Offer far more airtime than one queue-delay's worth at t=0.
        for _ in 0..200 {
            let (deliveries, report) = m.broadcast(SimTime::ZERO, a, 10_000);
            if report.bytes_on_air == 0 {
                dropped += 1;
                assert!(deliveries.is_empty());
            }
            for d in deliveries {
                delivered_latest = delivered_latest.max(d.at);
            }
        }
        assert!(dropped > 0, "200 x {airtime} of load must exceed {cap}");
        assert_eq!(m.queue_drops(), dropped);
        // Every frame that did fly left within the queue bound (plus its
        // own access + airtime and a generous backoff allowance).
        let bound = SimTime::ZERO + cap + airtime + SimDuration::from_millis(15);
        assert!(
            delivered_latest <= bound,
            "latest delivery {delivered_latest} exceeds {bound}"
        );
        // Unicast obeys the same bound: with the airspace saturated at
        // t=0, a fresh unicast is dropped before any attempt.
        let (outcome, report) = m.unicast(SimTime::ZERO, a, b, 500);
        assert_eq!(outcome, DeliveryOutcome::Lost { attempts: 0 });
        assert_eq!(report.bytes_on_air, 0);
        // Once time passes the backlog, frames flow again.
        let later = SimTime::ZERO + cap + SimDuration::from_secs(1);
        let (outcome, _) = m.unicast(later, a, b, 500);
        assert!(outcome.delivered_at().is_some(), "{outcome:?}");
    }

    #[test]
    fn unicast_close_nodes_delivers_quickly() {
        let mut m = medium();
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        m.set_position(a, Vec2::ZERO);
        m.set_position(b, Vec2::new(20.0, 0.0));
        let (outcome, report) = m.unicast(SimTime::ZERO, a, b, 500);
        let at = outcome.delivered_at().expect("20 m link must deliver");
        assert!(at.as_millis_f64() < 5.0, "delivery took {at}");
        assert!(report.bytes_on_air >= 500);
        assert!(report.airtime > SimDuration::ZERO);
    }

    #[test]
    fn unicast_far_nodes_is_lost_after_retries() {
        let mut m = medium();
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        m.set_position(a, Vec2::ZERO);
        m.set_position(b, Vec2::new(50_000.0, 0.0));
        let (outcome, report) = m.unicast(SimTime::ZERO, a, b, 500);
        match outcome {
            DeliveryOutcome::Lost { attempts } => {
                assert_eq!(attempts, m.mac().max_attempts);
                // Retries each burn airtime.
                assert_eq!(
                    report.bytes_on_air,
                    attempts as u64 * (500 + m.mac().header_bytes)
                );
            }
            other => panic!("expected loss at 50 km, got {other:?}"),
        }
    }

    #[test]
    fn unknown_nodes_are_unreachable() {
        let mut m = medium();
        let a = NodeAddr::new(1);
        m.set_position(a, Vec2::ZERO);
        let (outcome, report) = m.unicast(SimTime::ZERO, a, NodeAddr::new(99), 100);
        assert_eq!(outcome, DeliveryOutcome::Unreachable);
        assert_eq!(report.bytes_on_air, 0);
        let (deliveries, _) = m.broadcast(SimTime::ZERO, NodeAddr::new(42), 100);
        assert!(deliveries.is_empty());
    }

    #[test]
    fn removed_node_becomes_unreachable() {
        let mut m = medium();
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        m.set_position(a, Vec2::ZERO);
        m.set_position(b, Vec2::new(10.0, 0.0));
        m.remove_node(b);
        let (outcome, _) = m.unicast(SimTime::ZERO, a, b, 100);
        assert_eq!(outcome, DeliveryOutcome::Unreachable);
    }

    #[test]
    fn broadcast_reaches_near_not_far() {
        let mut m = medium();
        let src = NodeAddr::new(1);
        m.set_position(src, Vec2::ZERO);
        m.set_position(NodeAddr::new(2), Vec2::new(30.0, 0.0));
        m.set_position(NodeAddr::new(3), Vec2::new(60.0, 0.0));
        m.set_position(NodeAddr::new(4), Vec2::new(100_000.0, 0.0));
        let (deliveries, report) = m.broadcast(SimTime::ZERO, src, 200);
        let receivers: Vec<u64> = deliveries.iter().map(|d| d.to.raw()).collect();
        assert!(
            receivers.contains(&2) && receivers.contains(&3),
            "got {receivers:?}"
        );
        assert!(!receivers.contains(&4));
        // Broadcast transmits once regardless of receiver count.
        assert_eq!(report.bytes_on_air, 200 + m.mac().header_bytes);
    }

    #[test]
    fn contention_serializes_colocated_transmitters() {
        let mut m = medium();
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        let c = NodeAddr::new(3);
        m.set_position(a, Vec2::ZERO);
        m.set_position(b, Vec2::new(10.0, 0.0));
        m.set_position(c, Vec2::new(20.0, 0.0));
        // Two back-to-back large transfers from the same spot at t=0.
        let (o1, _) = m.unicast(SimTime::ZERO, a, c, 10_000);
        let (o2, _) = m.unicast(SimTime::ZERO, b, c, 10_000);
        let t1 = o1.delivered_at().unwrap();
        let t2 = o2.delivered_at().unwrap();
        // The second must queue behind the first's airtime.
        let airtime = m.mac().tx_time(10_000);
        assert!(
            t2 >= t1 + airtime.saturating_sub(SimDuration::from_micros(1)),
            "t1={t1} t2={t2}"
        );
    }

    #[test]
    fn spatial_reuse_allows_distant_parallel_transmissions() {
        let mut m = medium();
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        let far_a = NodeAddr::new(3);
        let far_b = NodeAddr::new(4);
        m.set_position(a, Vec2::ZERO);
        m.set_position(b, Vec2::new(10.0, 0.0));
        m.set_position(far_a, Vec2::new(100_000.0, 0.0));
        m.set_position(far_b, Vec2::new(100_010.0, 0.0));
        let (o1, _) = m.unicast(SimTime::ZERO, a, b, 10_000);
        let (o2, _) = m.unicast(SimTime::ZERO, far_a, far_b, 10_000);
        let t1 = o1.delivered_at().unwrap();
        let t2 = o2.delivered_at().unwrap();
        // Far pair does not queue behind the near pair: both finish within
        // one airtime + max backoff of t=0.
        let bound = m.mac().tx_time(10_000)
            + m.mac().difs
            + m.mac().backoff(m.mac().contention_window(0))
            + SimDuration::from_micros(1);
        assert!(t1 <= SimTime::ZERO + bound);
        assert!(t2 <= SimTime::ZERO + bound, "far pair queued: {t2}");
    }

    #[test]
    fn occlusion_hurts_delivery() {
        // Wall between the two nodes: with 40 dB penetration loss the link
        // dies at a distance that works fine with LOS.
        let mut channel = crate::profiles::dsrc().0;
        channel.obstacle_loss_db = 60.0;
        let mac = crate::profiles::dsrc().1;
        let mut world = World::new();
        world.add_obstacle(airdnd_geo::Obstacle::Rect(
            airdnd_geo::Aabb::from_center_size(Vec2::new(100.0, 0.0), 5.0, 200.0),
        ));
        let mut m = RadioMedium::new(channel, mac, &world, 600.0, SimRng::seed_from(3));
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        m.set_position(a, Vec2::ZERO);
        m.set_position(b, Vec2::new(200.0, 0.0));
        let mut lost = 0;
        for i in 0..20 {
            let (o, _) = m.unicast(SimTime::from_secs(i), a, b, 1000);
            if matches!(o, DeliveryOutcome::Lost { .. }) {
                lost += 1;
            }
        }
        assert!(lost > 10, "blocked link should mostly fail, lost {lost}/20");
    }

    #[test]
    fn accounting_accumulates() {
        let mut m = medium();
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        m.set_position(a, Vec2::ZERO);
        m.set_position(b, Vec2::new(10.0, 0.0));
        m.unicast(SimTime::ZERO, a, b, 1000);
        m.broadcast(SimTime::ZERO, a, 500);
        assert!(m.bytes_on_air_total() >= 1500);
        assert!(m.airtime_total() > SimDuration::ZERO);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let run = |seed| {
            let mut m = RadioMedium::v2v(&World::new(), SimRng::seed_from(seed));
            let a = NodeAddr::new(1);
            let b = NodeAddr::new(2);
            m.set_position(a, Vec2::ZERO);
            m.set_position(b, Vec2::new(150.0, 0.0));
            (0..50)
                .map(|i| m.unicast(SimTime::from_millis(i * 10), a, b, 800).0)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
