//! The four benchmark workloads, built only through the public API.
//!
//! Each workload turns one scenario seed into a [`Job`]: a materialised
//! [`WorldInstance`] plus the [`ScenarioConfig`] the runner receives. The
//! benchmark's `--seed` picks the scenario seeds ([`scenario_seeds`]); the
//! program under test sees nothing but the generated world and config.

use airdnd_scenario::{FleetAction, ScenarioConfig, WorldInstance};
use airdnd_sim::SimDuration;
use airdnd_worldgen::{
    assign_extra_egos, ChurnProcess, CityParams, DemandKind, FamilyKind, FleetProfile, GridParams,
};

/// Full size is what the benchmark measures; tiny exists for smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One scenario run's inputs.
#[derive(Clone)]
pub struct Job {
    pub seed: u64,
    pub world: WorldInstance,
    pub cfg: ScenarioConfig,
}

impl Job {
    /// Configured fleet × simulated seconds: the work one run simulates.
    /// Under a fleet schedule the configured fleet is a step function of
    /// time (each spawn adds a vehicle, each despawn removes one, the ego
    /// always stays), and this is its integral.
    pub fn vehicle_seconds(&self) -> f64 {
        let end = self.cfg.duration.as_secs_f64();
        let (mut fleet, mut since, mut total) = (self.cfg.vehicles as f64, 0.0, 0.0);
        for event in &self.world.schedule.events {
            let at = event.at_s.clamp(since, end);
            total += fleet * (at - since);
            since = at;
            fleet = match event.action {
                FleetAction::Spawn { .. } => fleet + 1.0,
                FleetAction::Despawn { .. } => (fleet - 1.0).max(1.0),
            };
        }
        total + fleet * (end - since)
    }
}

/// A named workload: how many scenario seeds one benchmark run cycles
/// through, and how to build one seed's job.
pub struct Workload {
    pub name: &'static str,
    pub pool: usize,
    build: fn(u64, Size) -> Job,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "corner-offload",
        pool: 8,
        build: corner_offload,
    },
    Workload {
        name: "city-fleet",
        pool: 4,
        build: city_fleet,
    },
    Workload {
        name: "city-egos",
        pool: 3,
        build: city_egos,
    },
    Workload {
        name: "grid-churn",
        pool: 12,
        build: grid_churn,
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Materialises one seed: worldgen, demand resolution, extra egos,
    /// churn schedule and per-ego stage derivation all happen here, so a
    /// timed run starts from a finished world.
    pub fn build(&self, seed: u64, size: Size) -> Job {
        let mut job = (self.build)(seed, size);
        job.world.ensure_ego_stages();
        job
    }
}

/// The scenario seeds one benchmark run uses: `pool` values derived from
/// the benchmark seed with SplitMix64, so nearby benchmark seeds share no
/// scenario seed.
pub fn scenario_seeds(bench_seed: u64, pool: usize) -> Vec<u64> {
    let mut state = bench_seed;
    (0..pool)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// Generated maps are fixed per workload, as the paper's corner is: the
/// G5 sweep's base seed draws the city, and the G3 sweep's draws the grid
/// and its churn timetable. The scenario seed varies everything else:
/// spawn times and routes, ECU speeds, the radio channel and which
/// vehicles serve which query. A churn timetable drawn per seed would let
/// the fleet random-walk between about 10 and 40 vehicles, and host time
/// with it, which no run length averages out.
const CITY_MAP_SEED: u64 = 117;
const GRID_MAP_SEED: u64 = 115;

/// The paper's canonical corner: 16 vehicles, AirDnD offloading, default
/// 100 ms tick and 150-round kernel.
fn corner_offload(seed: u64, size: Size) -> Job {
    let (vehicles, secs) = match size {
        Size::Full => (16, 60),
        Size::Tiny => (6, 4),
    };
    let cfg = ScenarioConfig {
        seed,
        vehicles,
        duration: SimDuration::from_secs(secs),
        ..ScenarioConfig::default()
    };
    Job {
        seed,
        world: WorldInstance::canonical(&cfg),
        cfg,
    }
}

/// The G5 city configuration: 500 ms tick and mesh timers to match, and a
/// 100 ms MAC queue cap.
fn city_config(seed: u64, secs: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig {
        seed,
        duration: SimDuration::from_secs(secs),
        tick: SimDuration::from_millis(500),
        radio_queue_cap: Some(SimDuration::from_millis(100)),
        ..ScenarioConfig::default()
    };
    cfg.mesh.beacon_interval = SimDuration::from_millis(500);
    cfg.mesh.neighbor_timeout = SimDuration::from_millis(1_750);
    cfg
}

fn city(seed: u64, size: Size, egos: usize) -> Job {
    let (districts, vehicles, egos, secs) = match size {
        Size::Full => ((4, 4), 640, egos, 20),
        Size::Tiny => ((2, 1), 40, egos.min(4), 12),
    };
    let profile = FleetProfile {
        vehicles,
        parked: 2,
        arrival_window_s: 10.0,
    };
    let family = FamilyKind::City(CityParams::with_districts(districts.0, districts.1));
    let cfg = city_config(CITY_MAP_SEED, secs).with_vehicles(vehicles);
    let mut world = family.instantiate(&cfg, &profile);
    let cfg = cfg
        .with_demand(DemandKind::Steady.resolve(&world.stage))
        .seeded(seed);
    assign_extra_egos(&mut world, egos - 1, cfg.hidden_agents);
    Job { seed, world, cfg }
}

/// A 4×4-district city with 640 vehicles and 8 egos (the G5 fleet leg).
fn city_fleet(seed: u64, size: Size) -> Job {
    city(seed, size, 8)
}

/// The same city with 64 egos (the G5 ego leg).
fn city_egos(seed: u64, size: Size) -> Job {
    city(seed, size, 64)
}

/// The grid family, 24 vehicles plus 2 parked, with heavy churn: 120
/// arrivals and 120 departures per minute, half of the departures abrupt.
fn grid_churn(seed: u64, size: Size) -> Job {
    let (vehicles, secs) = match size {
        Size::Full => (24, 60),
        Size::Tiny => (8, 6),
    };
    let profile = FleetProfile {
        vehicles,
        parked: 2,
        arrival_window_s: 20.0,
    };
    let cfg = ScenarioConfig {
        seed: GRID_MAP_SEED,
        duration: SimDuration::from_secs(secs),
        ..ScenarioConfig::default()
    }
    .with_vehicles(vehicles);
    let mut world = FamilyKind::Grid(GridParams::default()).instantiate(&cfg, &profile);
    let cfg = cfg
        .with_demand(DemandKind::Steady.resolve(&world.stage))
        .seeded(seed);
    let churn = ChurnProcess {
        arrivals_per_min: 120.0,
        departures_per_min: 120.0,
        abrupt_fraction: 0.5,
    };
    world.schedule = churn.schedule(
        cfg.duration.as_secs_f64(),
        world.stage.net.arm_count(),
        GRID_MAP_SEED,
    );
    Job { seed, world, cfg }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_bench_seed_picks_its_own_scenario_seeds() {
        let a = scenario_seeds(1, 8);
        assert_eq!(a, scenario_seeds(1, 8));
        let b = scenario_seeds(2, 8);
        assert!(a.iter().all(|s| !b.contains(s)), "{a:?} vs {b:?}");
    }

    #[test]
    fn vehicle_seconds_integrate_the_fleet_schedule() {
        let corner = Workload::find("corner-offload")
            .unwrap()
            .build(7, Size::Tiny);
        assert_eq!(corner.vehicle_seconds(), 6.0 * 4.0);
        let churn = Workload::find("grid-churn").unwrap().build(7, Size::Tiny);
        assert!(!churn.world.schedule.is_empty());
        assert!(churn.vehicle_seconds() > 0.0);
        assert_ne!(churn.vehicle_seconds(), 8.0 * 6.0);
    }
}
