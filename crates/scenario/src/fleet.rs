//! The vehicle fleet: mobility + a full orchestrator node per vehicle.

use crate::world::ScenarioWorld;
use airdnd_core::{OrchestratorConfig, OrchestratorNode};
use airdnd_engine::AddrIndex;
use airdnd_geo::{IdmParams, Mobility, Vec2};
use airdnd_mesh::MeshConfig;
use airdnd_radio::NodeAddr;
use airdnd_sim::SimRng;
use rand::Rng;

/// One simulated vehicle.
pub struct Vehicle {
    /// The AirDnD node riding in this vehicle.
    pub node: OrchestratorNode,
    /// Kinematics.
    pub mobility: Mobility,
    rng: SimRng,
    current_exit: usize,
    /// When set, every respawn re-enters from this arm (the ego keeps
    /// approaching the occluded corner from the south).
    fixed_arm: Option<usize>,
}

/// Placement the generated worlds layer on top of the mobile fleet:
/// which portal the ego enters from, parked/RSU helper positions, and how
/// widely spawn times scatter along the approach.
#[derive(Clone, Debug)]
pub struct FleetLayout {
    /// Arm/portal index the ego enters (and re-enters) from.
    pub ego_arm: usize,
    /// Fixed helper positions (parked cars / roadside units). Appended
    /// after the mobile fleet, so an empty list leaves spawning untouched.
    pub parked: Vec<Vec2>,
    /// Spawn-scatter window, seconds of warmup drawn per vehicle.
    pub arrival_window_s: f64,
}

impl Default for FleetLayout {
    fn default() -> Self {
        FleetLayout {
            ego_arm: 0,
            parked: Vec::new(),
            arrival_window_s: 20.0,
        }
    }
}

impl Vehicle {
    fn fresh_route(world: &ScenarioWorld, rng: &mut SimRng, from_arm: usize) -> (Mobility, usize) {
        let arms = world.net.arm_count();
        let mut to_arm = rng.gen_range(0..arms);
        if to_arm == from_arm {
            to_arm = (to_arm + 1) % arms;
        }
        let route = world
            .net
            .route(
                world.net.approach_node(from_arm),
                world.net.exit_node(to_arm),
            )
            .expect("intersection arms are connected");
        let speed = rng.gen_range(5.0..12.0);
        (Mobility::route(route, speed, IdmParams::default()), to_arm)
    }

    /// Creates a vehicle entering from `arm`.
    #[allow(clippy::too_many_arguments)] // one knob per ScenarioConfig field
    pub fn spawn(
        world: &ScenarioWorld,
        addr: NodeAddr,
        arm: usize,
        gas_rate: u64,
        orch: OrchestratorConfig,
        mesh: MeshConfig,
        arrival_window_s: f64,
        mut rng: SimRng,
    ) -> Self {
        let (mut mobility, exit) = Self::fresh_route(world, &mut rng, arm);
        // Scatter along the approach so the fleet is not bunched at spawn.
        let warmup = rng.gen_range(0.0..arrival_window_s.max(1e-9));
        mobility.step(warmup);
        let node_rng = rng.fork(addr.raw());
        let node = OrchestratorNode::new(addr, orch, mesh, gas_rate, 1 << 30, node_rng);
        Vehicle {
            node,
            mobility,
            rng,
            current_exit: exit,
            fixed_arm: None,
        }
    }

    /// Creates a parked vehicle / roadside unit: a full orchestrator node
    /// that never moves. Parked helpers give generated scenarios stable
    /// mesh anchors near the occluded corridor.
    pub fn parked(
        pos: Vec2,
        addr: NodeAddr,
        gas_rate: u64,
        orch: OrchestratorConfig,
        mesh: MeshConfig,
        rng: SimRng,
    ) -> Self {
        let node_rng = rng.fork(addr.raw());
        let node = OrchestratorNode::new(addr, orch, mesh, gas_rate, 1 << 30, node_rng);
        Vehicle {
            node,
            mobility: Mobility::fixed(pos),
            rng,
            current_exit: 0,
            fixed_arm: None,
        }
    }

    /// Pins every respawn to re-enter from `arm` (used for the ego).
    pub fn pin_entry_arm(&mut self, arm: usize) {
        self.fixed_arm = Some(arm);
    }

    /// Re-draws this vehicle's route to start from `arm` *now* and pins
    /// respawns there — how extra query origins are moved onto their own
    /// approach after the plain spawn.
    pub fn reroute_from(&mut self, world: &ScenarioWorld, arm: usize) {
        let (mobility, exit) = Self::fresh_route(world, &mut self.rng, arm);
        self.mobility = mobility;
        self.current_exit = exit;
        self.pin_entry_arm(arm);
    }

    /// `true` for parked/RSU anchors (they never move and never despawn).
    pub fn is_parked(&self) -> bool {
        matches!(self.mobility, Mobility::Fixed(_))
    }

    /// Advances the vehicle by `dt` seconds, re-entering from its exit arm
    /// (or its pinned arm) when the route completes, so fleet density
    /// stays constant.
    pub fn step(&mut self, world: &ScenarioWorld, dt: f64) {
        self.mobility.step(dt);
        let finished = matches!(&self.mobility, Mobility::Route(f) if f.is_finished());
        if finished {
            let from = self.fixed_arm.unwrap_or(self.current_exit);
            let (mobility, exit) = Self::fresh_route(world, &mut self.rng, from);
            self.mobility = mobility;
            self.current_exit = exit;
        }
    }

    /// Current position.
    pub fn pos(&self) -> Vec2 {
        self.mobility.pos()
    }

    /// Current velocity vector.
    pub fn velocity(&self) -> Vec2 {
        self.mobility.state().velocity()
    }
}

/// The whole fleet; slot 0 is the ego vehicle (southern approach).
///
/// Membership is dynamic: [`Fleet::push_mobile`] admits a new vehicle
/// mid-run and [`Fleet::remove`] retires one, so the lifecycle layer can
/// change the mesh population while the simulation runs. Addresses are
/// assigned once and never reused.
///
/// Removal tombstones the slot (amortized O(1)) instead of shifting the
/// vehicle vector — at city scale a heavy-churn run was quadratic in
/// fleet size. Live vehicles keep their relative (address) order
/// forever; a deterministic count-triggered compaction reclaims
/// tombstones and re-records the address map. Raw slot indices from
/// [`Fleet::index_of`] stay valid until the next removal.
pub struct Fleet {
    /// Vehicle slots, ego first; `None` marks a tombstoned despawn.
    slots: Vec<Option<Vehicle>>,
    /// Live vehicle count.
    live: usize,
    /// Next address to hand out to a mid-run spawn.
    next_addr: u64,
    /// Stable `addr → slot` map over the live vehicles: `index_of`
    /// resolves through it in O(1) regardless of despawn history.
    index: AddrIndex,
    /// Mobile, non-protected addresses ordered for despawn victim
    /// selection: the smallest address is the oldest eligible vehicle,
    /// which is exactly what the historical head-of-fleet linear scan
    /// picked (vehicles are always address-sorted). Egos are removed via
    /// [`Fleet::protect`]; parked anchors never enter.
    eligible: std::collections::BTreeSet<u64>,
}

impl Fleet {
    /// Spawns `count` mobile vehicles with heterogeneous ECUs drawn from
    /// `gas_rate_range`, plus the layout's parked helpers; a
    /// `byzantine_fraction` of mobile helpers corrupt results. The ego
    /// (index 0) enters from `layout.ego_arm`; parked units are appended
    /// after the mobile fleet so the default layout reproduces the
    /// historical spawn byte for byte.
    #[allow(clippy::too_many_arguments)] // one knob per ScenarioConfig field
    pub fn spawn(
        world: &ScenarioWorld,
        count: usize,
        gas_rate_range: (u64, u64),
        byzantine_fraction: f64,
        orch: OrchestratorConfig,
        mesh: MeshConfig,
        layout: &FleetLayout,
        rng: &mut SimRng,
    ) -> Self {
        assert!(count >= 1, "need at least the ego vehicle");
        let draw_gas = |rng: &mut SimRng| {
            if gas_rate_range.1 > gas_rate_range.0 {
                rng.gen_range(gas_rate_range.0..=gas_rate_range.1)
            } else {
                gas_rate_range.0
            }
        };
        let mut vehicles = Vec::with_capacity(count + layout.parked.len());
        for i in 0..count {
            let arm = if i == 0 {
                layout.ego_arm
            } else {
                i % world.net.arm_count()
            };
            let gas_rate = draw_gas(rng);
            let addr = NodeAddr::new(i as u64 + 1);
            let mut vehicle = Vehicle::spawn(
                world,
                addr,
                arm,
                gas_rate,
                orch,
                mesh,
                layout.arrival_window_s,
                rng.fork(1000 + i as u64),
            );
            if i == 0 {
                vehicle.pin_entry_arm(layout.ego_arm);
            } else if rng.next_f64() < byzantine_fraction {
                vehicle.node.executor_mut().set_byzantine(true);
            }
            vehicles.push(vehicle);
        }
        for (k, &pos) in layout.parked.iter().enumerate() {
            let gas_rate = draw_gas(rng);
            let addr = NodeAddr::new((count + k) as u64 + 1);
            vehicles.push(Vehicle::parked(
                pos,
                addr,
                gas_rate,
                orch,
                mesh,
                rng.fork(2000 + k as u64),
            ));
        }
        let next_addr = (count + layout.parked.len()) as u64 + 1;
        let mut index = AddrIndex::new();
        let mut eligible = std::collections::BTreeSet::new();
        for (slot, v) in vehicles.iter().enumerate() {
            index.set(v.node.addr().raw(), slot);
            if !v.is_parked() {
                eligible.insert(v.node.addr().raw());
            }
        }
        Fleet {
            live: vehicles.len(),
            slots: vehicles.into_iter().map(Some).collect(),
            next_addr,
            index,
            eligible,
        }
    }

    /// Admits a new mobile vehicle entering from `arm` mid-run, assigning
    /// it the next unused address. Returns the new vehicle's address.
    pub fn push_mobile(
        &mut self,
        world: &ScenarioWorld,
        arm: usize,
        gas_rate: u64,
        orch: OrchestratorConfig,
        mesh: MeshConfig,
        rng: SimRng,
    ) -> NodeAddr {
        let addr = NodeAddr::new(self.next_addr);
        self.next_addr += 1;
        // Zero arrival window: a mid-run spawn enters at the portal now.
        let vehicle = Vehicle::spawn(world, addr, arm, gas_rate, orch, mesh, 0.0, rng);
        self.index.set(addr.raw(), self.slots.len());
        self.slots.push(Some(vehicle));
        self.live += 1;
        self.eligible.insert(addr.raw());
        addr
    }

    /// Retires the vehicle with address `addr`, returning it (its node
    /// state, executor totals and in-flight work leave the simulation with
    /// it). The slot is tombstoned — amortized O(1) instead of shifting
    /// the whole tail — and reclaimed by the next deterministic
    /// compaction; addresses are never reassigned.
    pub fn remove(&mut self, addr: NodeAddr) -> Option<Vehicle> {
        let idx = self.index.remove(addr.raw())?;
        let vehicle = self.slots[idx].take();
        debug_assert!(vehicle.is_some(), "index and slots in lockstep");
        self.live -= 1;
        self.eligible.remove(&addr.raw());
        self.maybe_compact();
        vehicle
    }

    /// Deterministic compaction policy: reclaim tombstones once they are
    /// at least half the slots (and enough of them to amortize the pass).
    /// Live vehicles keep their relative order; each one's address is
    /// re-recorded at its new slot.
    fn maybe_compact(&mut self) {
        let dead = self.slots.len() - self.live;
        if dead >= 32 && dead * 2 >= self.slots.len() {
            self.slots.retain(Option::is_some);
            for (slot, v) in self.slots.iter().flatten().enumerate() {
                self.index.set(v.node.addr().raw(), slot);
            }
        }
    }

    /// Oldest despawn-eligible vehicle: the smallest mobile address that
    /// is not protected (not an ego). O(log n) where the historical
    /// implementation linearly scanned the fleet against the ego list per
    /// despawn event; the pick is byte-identical because vehicles are
    /// stored in address order, so "first non-parked non-ego in fleet
    /// order" and "smallest eligible address" are the same vehicle.
    pub fn despawn_candidate(&self) -> Option<NodeAddr> {
        self.eligible.iter().next().map(|&a| NodeAddr::new(a))
    }

    /// Permanently excludes `addr` from despawn victim selection (used
    /// for the ego query origins, which must survive the whole run).
    pub fn protect(&mut self, addr: NodeAddr) {
        self.eligible.remove(&addr.raw());
    }

    /// Number of live vehicles.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if the fleet is empty (cannot happen via [`Fleet::spawn`]).
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots including tombstones — the bound for raw slot loops
    /// ([`Fleet::get`] returns `None` on dead slots).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The vehicle at `slot`, if live.
    pub fn get(&self, slot: usize) -> Option<&Vehicle> {
        self.slots.get(slot).and_then(Option::as_ref)
    }

    /// Mutable access to the vehicle at `slot`, if live.
    pub fn get_mut(&mut self, slot: usize) -> Option<&mut Vehicle> {
        self.slots.get_mut(slot).and_then(Option::as_mut)
    }

    /// The ego vehicle (slot 0, never despawned).
    pub fn ego(&self) -> &Vehicle {
        self.slots[0].as_ref().expect("ego never despawns")
    }

    /// Mutable access to the ego vehicle.
    pub fn ego_mut(&mut self) -> &mut Vehicle {
        self.slots[0].as_mut().expect("ego never despawns")
    }

    /// Live vehicles in slot (= address) order.
    pub fn iter(&self) -> impl Iterator<Item = &Vehicle> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Mutable iteration over live vehicles in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Vehicle> {
        self.slots.iter_mut().filter_map(Option::as_mut)
    }

    /// Index of the vehicle with address `addr`, if any — one load through
    /// the stable `addr → slot` map, O(1) on every path (the previous
    /// implementation fell back to a linear scan after the first despawn,
    /// which every radio delivery then paid for the rest of the run).
    pub fn index_of(&self, addr: NodeAddr) -> Option<usize> {
        self.index.get(addr.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::ScenarioWorld;

    fn stage() -> ScenarioWorld {
        ScenarioWorld::build(250.0, 13.9, 12.0, 40.0)
    }

    #[test]
    fn fleet_spawns_with_unique_addresses() {
        let world = stage();
        let mut rng = SimRng::seed_from(1);
        let fleet = Fleet::spawn(
            &world,
            10,
            (500_000, 2_000_000),
            0.0,
            OrchestratorConfig::default(),
            MeshConfig::default(),
            &FleetLayout::default(),
            &mut rng,
        );
        assert_eq!(fleet.len(), 10);
        let mut addrs: Vec<u64> = fleet.iter().map(|v| v.node.addr().raw()).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 10);
        for (i, v) in fleet.iter().enumerate() {
            assert_eq!(fleet.index_of(v.node.addr()), Some(i));
        }
    }

    #[test]
    fn vehicles_move_and_respawn() {
        let world = stage();
        let mut rng = SimRng::seed_from(2);
        let mut fleet = Fleet::spawn(
            &world,
            3,
            (1_000_000, 1_000_000),
            0.0,
            OrchestratorConfig::default(),
            MeshConfig::default(),
            &FleetLayout::default(),
            &mut rng,
        );
        let start: Vec<Vec2> = fleet.iter().map(Vehicle::pos).collect();
        // Two simulated minutes: every vehicle must complete ≥1 route and
        // respawn without panicking.
        for _ in 0..1200 {
            for v in fleet.iter_mut() {
                v.step(&world, 0.1);
            }
        }
        for (i, v) in fleet.iter().enumerate() {
            assert!(v.pos().is_finite());
            assert_ne!(v.pos(), start[i], "vehicle {i} never moved");
        }
    }

    #[test]
    fn byzantine_fraction_marks_helpers_not_ego() {
        let world = stage();
        let mut rng = SimRng::seed_from(3);
        let fleet = Fleet::spawn(
            &world,
            20,
            (1_000_000, 1_000_000),
            1.0, // every helper byzantine
            OrchestratorConfig::default(),
            MeshConfig::default(),
            &FleetLayout::default(),
            &mut rng,
        );
        assert!(
            !fleet.ego().node.executor().is_byzantine(),
            "ego stays honest"
        );
        let byz = fleet
            .iter()
            .skip(1)
            .filter(|v| v.node.executor().is_byzantine())
            .count();
        assert_eq!(byz, 19);
    }

    #[test]
    fn parked_helpers_append_after_the_mobile_fleet() {
        let world = stage();
        let mut rng = SimRng::seed_from(5);
        let layout = FleetLayout {
            parked: vec![Vec2::new(60.0, 10.0), Vec2::new(90.0, -10.0)],
            ..FleetLayout::default()
        };
        let mut fleet = Fleet::spawn(
            &world,
            4,
            (1_000_000, 1_000_000),
            0.0,
            OrchestratorConfig::default(),
            MeshConfig::default(),
            &layout,
            &mut rng,
        );
        assert_eq!(fleet.len(), 6);
        // Addresses stay dense, so index_of still works for parked units.
        for (i, v) in fleet.iter().enumerate() {
            assert_eq!(fleet.index_of(v.node.addr()), Some(i));
        }
        // Parked units never move, even across many steps.
        for _ in 0..100 {
            for v in fleet.iter_mut() {
                v.step(&world, 0.1);
            }
        }
        assert_eq!(fleet.get(4).unwrap().pos(), Vec2::new(60.0, 10.0));
        assert_eq!(fleet.get(5).unwrap().pos(), Vec2::new(90.0, -10.0));
        assert_eq!(fleet.get(5).unwrap().velocity(), Vec2::ZERO);
        // Parked anchors are never despawn victims: the candidate is the
        // oldest mobile helper (the ego until it is protected).
        assert_eq!(fleet.despawn_candidate().map(NodeAddr::raw), Some(1));
        fleet.protect(NodeAddr::new(1));
        assert_eq!(fleet.despawn_candidate().map(NodeAddr::raw), Some(2));
    }

    /// An empty layout must not perturb the historical spawn: the mobile
    /// fleet draws the same randomness whether or not the layout exists.
    #[test]
    fn default_layout_reproduces_the_plain_spawn() {
        let world = stage();
        let spawn = |layout: &FleetLayout| {
            let mut rng = SimRng::seed_from(11);
            Fleet::spawn(
                &world,
                6,
                (500_000, 2_000_000),
                0.0,
                OrchestratorConfig::default(),
                MeshConfig::default(),
                layout,
                &mut rng,
            )
            .iter()
            .map(|v| (v.pos(), v.node.executor().gas_rate()))
            .collect::<Vec<_>>()
        };
        let with_parked = FleetLayout {
            parked: vec![Vec2::new(50.0, 0.0)],
            ..FleetLayout::default()
        };
        let plain = spawn(&FleetLayout::default());
        let parked = spawn(&with_parked);
        assert_eq!(plain[..], parked[..plain.len()], "mobile prefix identical");
        assert_eq!(parked.len(), plain.len() + 1);
    }

    /// Mid-run spawns get fresh dense addresses; removal punches a hole
    /// that `index_of` handles and never reuses.
    #[test]
    fn push_and_remove_keep_addresses_unique() {
        let world = stage();
        let mut rng = SimRng::seed_from(21);
        let mut fleet = Fleet::spawn(
            &world,
            4,
            (1_000_000, 1_000_000),
            0.0,
            OrchestratorConfig::default(),
            MeshConfig::default(),
            &FleetLayout::default(),
            &mut rng,
        );
        let a = fleet.push_mobile(
            &world,
            1,
            1_000_000,
            OrchestratorConfig::default(),
            MeshConfig::default(),
            rng.fork(1),
        );
        assert_eq!(a.raw(), 5);
        assert_eq!(fleet.len(), 5);
        // Remove a mid-fleet vehicle: the slot tombstones but every
        // survivor stays findable at the slot that holds it.
        let victim = fleet.get(2).unwrap().node.addr();
        assert!(fleet.remove(victim).is_some());
        assert_eq!(fleet.index_of(victim), None);
        assert_eq!(fleet.remove(victim).map(|_| ()), None);
        for i in 0..fleet.slot_count() {
            if let Some(v) = fleet.get(i) {
                assert_eq!(fleet.index_of(v.node.addr()), Some(i));
            }
        }
        // The freed address is never handed out again.
        let b = fleet.push_mobile(
            &world,
            0,
            1_000_000,
            OrchestratorConfig::default(),
            MeshConfig::default(),
            rng.fork(2),
        );
        assert_eq!(b.raw(), 6);
        assert!(!fleet.get(fleet.slot_count() - 1).unwrap().is_parked());
    }

    /// Satellite regression for the old linear-scan fallback: the stable
    /// address map must answer every lookup correctly through heavy
    /// interleaved spawn/despawn churn, including across the compactions
    /// that reclaim tombstoned slots and renumber the survivors.
    #[test]
    fn index_of_survives_spawn_despawn_churn() {
        let world = stage();
        let mut rng = SimRng::seed_from(31);
        let mut fleet = Fleet::spawn(
            &world,
            6,
            (1_000_000, 1_000_000),
            0.0,
            OrchestratorConfig::default(),
            MeshConfig::default(),
            &FleetLayout::default(),
            &mut rng,
        );
        let mut retired = Vec::new();
        let mut compactions = 0;
        for round in 0..200u64 {
            let slots_before = fleet.slot_count();
            // Alternate bursts of arrivals and departures, always removing
            // from the middle so tombstones pile up between live slots.
            if round % 3 != 2 {
                fleet.push_mobile(
                    &world,
                    (round % 4) as usize,
                    1_000_000,
                    OrchestratorConfig::default(),
                    MeshConfig::default(),
                    rng.fork(round),
                );
            }
            if round % 2 == 1 && fleet.len() > 3 {
                let victim = fleet
                    .iter()
                    .nth(fleet.len() / 2)
                    .map(|v| v.node.addr())
                    .unwrap();
                assert!(fleet.remove(victim).is_some());
                retired.push(victim);
            }
            if fleet.slot_count() < slots_before {
                compactions += 1;
                assert_eq!(fleet.slot_count(), fleet.len(), "round {round}");
            }
            // Every survivor resolves to the slot that actually holds it,
            // and slots stay in address order…
            let mut prev = 0;
            for i in 0..fleet.slot_count() {
                let Some(v) = fleet.get(i) else { continue };
                let addr = v.node.addr();
                assert_eq!(fleet.index_of(addr), Some(i), "round {round}");
                assert!(addr.raw() > prev, "round {round}: slot order");
                prev = addr.raw();
            }
            assert_eq!(fleet.iter().count(), fleet.len());
            // …and every retired address resolves to nothing, forever.
            for &gone in &retired {
                assert_eq!(fleet.index_of(gone), None);
            }
        }
        assert!(compactions >= 2, "only {compactions} compaction(s)");
    }

    #[test]
    fn reroute_moves_a_vehicle_to_its_arm() {
        let world = stage();
        let mut rng = SimRng::seed_from(23);
        let mut fleet = Fleet::spawn(
            &world,
            3,
            (1_000_000, 1_000_000),
            0.0,
            OrchestratorConfig::default(),
            MeshConfig::default(),
            &FleetLayout::default(),
            &mut rng,
        );
        fleet.get_mut(1).unwrap().reroute_from(&world, 2);
        let entry = world.net.position(world.net.approach_node(2));
        assert!(
            fleet.get(1).unwrap().pos().distance(entry) < 1.0,
            "rerouted vehicle must restart at its portal"
        );
    }

    #[test]
    fn deterministic_spawn_for_same_seed() {
        let world = stage();
        let spawn = |seed| {
            let mut rng = SimRng::seed_from(seed);
            let fleet = Fleet::spawn(
                &world,
                5,
                (500_000, 2_000_000),
                0.0,
                OrchestratorConfig::default(),
                MeshConfig::default(),
                &FleetLayout::default(),
                &mut rng,
            );
            fleet
                .iter()
                .map(|v| (v.pos(), v.node.executor().gas_rate()))
                .collect::<Vec<_>>()
        };
        assert_eq!(spawn(7), spawn(7));
        assert_ne!(spawn(7), spawn(8));
    }
}
