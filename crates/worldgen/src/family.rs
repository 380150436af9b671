//! The scenario-family registry: named, typed recipes that turn a
//! [`ScenarioConfig`] into a fully instantiated [`WorldInstance`].
//!
//! A [`FamilyKind`] is pure data (it serializes into sweep configs and
//! shard artifacts); [`FamilyKind::instantiate`] is the deterministic
//! generation pass: fork a stage RNG from the scenario seed, generate the
//! map, derive the occlusion grid from the generated geometry
//! ([`HiddenGrid::derive`]), hide the ground-truth agents inside the
//! derived corridor, and place the profile's parked helpers along it.
//! `airdnd_scenario::run_scenario_in_observed` consumes the result
//! unchanged — the canonical corner stage is just the
//! [`FamilyKind::Corner`] entry of the same registry.

use crate::fleets::{parked_positions, FleetProfile};
use crate::maps::{
    bridge, city, grid, highway, radial, roundabout, BridgeParams, CityParams, GeneratedMap,
    GridParams, HighwayParams, RadialParams, RoundaboutParams,
};
use airdnd_geo::Vec2;
use airdnd_scenario::{
    FleetSchedule, HiddenGrid, OcclusionParams, ScenarioConfig, ScenarioWorld, WorldInstance,
};
use airdnd_sim::SimRng;
use serde::{Deserialize, Serialize};

/// RNG fork tag separating stage generation from everything else the
/// scenario seed drives.
const STAGE_TAG: u64 = 0x57A6_E5EE;

/// One scenario family: a map recipe with its parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FamilyKind {
    /// The canonical hand-built corner stage (the paper's evaluation).
    Corner,
    /// Manhattan grid with speed tiers.
    Grid(GridParams),
    /// Radial arterials with ring roads.
    Radial(RadialParams),
    /// Highway corridor with on-ramps.
    Highway(HighwayParams),
    /// Roundabout whose central island hides the far side of the circle.
    Roundabout(RoundaboutParams),
    /// Mainline over a tunnel/bridge span that radio-partitions the mesh.
    Bridge(BridgeParams),
    /// Macro-grid of grid/radial/highway districts joined by arterials.
    City(CityParams),
}

impl FamilyKind {
    /// Axis/table label.
    pub fn label(&self) -> &'static str {
        match self {
            FamilyKind::Corner => "corner",
            FamilyKind::Grid(_) => "grid",
            FamilyKind::Radial(_) => "radial",
            FamilyKind::Highway(_) => "highway",
            FamilyKind::Roundabout(_) => "roundabout",
            FamilyKind::Bridge(_) => "bridge",
            FamilyKind::City(_) => "city",
        }
    }

    /// Instantiates the family for one scenario run: generates the map
    /// from `cfg.seed`, derives the occlusion grid, and places hidden
    /// agents and the profile's parked helpers.
    ///
    /// # Panics
    ///
    /// Panics if the generated geometry fails to induce an occluded
    /// corridor — a family-parameter bug, not a runtime condition (the
    /// registry families are regression-tested to derive on every seed).
    pub fn instantiate(&self, cfg: &ScenarioConfig, profile: &FleetProfile) -> WorldInstance {
        let map = match self {
            FamilyKind::Corner => {
                let mut instance = WorldInstance::canonical(cfg);
                instance.parked = parked_positions(&instance.stage, profile.parked);
                instance.arrival_window_s = profile.arrival_window_s;
                return instance;
            }
            FamilyKind::Grid(p) => grid(p, &mut stage_rng(cfg.seed)),
            FamilyKind::Radial(p) => radial(p, &mut stage_rng(cfg.seed)),
            FamilyKind::Highway(p) => highway(p, &mut stage_rng(cfg.seed)),
            FamilyKind::Roundabout(p) => roundabout(p, &mut stage_rng(cfg.seed)),
            FamilyKind::Bridge(p) => bridge(p, &mut stage_rng(cfg.seed)),
            FamilyKind::City(p) => city(p, &mut stage_rng(cfg.seed)),
        };
        // A tunnel shell is radio-opaque, not just visually occluding.
        let obstacle_loss_db = match self {
            FamilyKind::Bridge(p) => Some(p.shell_loss_db),
            _ => None,
        };
        let GeneratedMap {
            net,
            world,
            ego_arm,
            goal_arm,
        } = map;
        let ego_entry = net.approach_node(ego_arm);
        let goal = net.exit_node(goal_arm);
        let grid = HiddenGrid::derive(&net, &world, ego_entry, goal, &OcclusionParams::default())
            .unwrap_or_else(|| {
                panic!("family `{}` must induce an occluded corridor", self.label())
            });
        let stage = ScenarioWorld { net, world, grid };
        let hidden_agents = corridor_agents(&stage, cfg.hidden_agents);
        let parked = parked_positions(&stage, profile.parked);
        WorldInstance {
            stage,
            ego_arm,
            hidden_agents,
            parked,
            arrival_window_s: profile.arrival_window_s,
            schedule: FleetSchedule::default(),
            extra_egos: Vec::new(),
            extra_ego_stages: Vec::new(),
            obstacle_loss_db,
        }
    }
}

fn stage_rng(seed: u64) -> SimRng {
    SimRng::seed_from(seed).fork(STAGE_TAG)
}

/// Hides `count` ground-truth agents along the derived corridor's long
/// axis, slightly off the centreline — the generated analogue of the
/// canonical stage's parked agents. Shares the obstacle-skipping
/// placement walk with [`parked_positions`].
fn corridor_agents(stage: &ScenarioWorld, count: usize) -> Vec<Vec2> {
    crate::fleets::corridor_slots(&stage.grid, &stage.world, count, 2.0, false)
}

/// A registry entry: a family name bound to its default parameters.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioFamily {
    /// Registry name (also the sweep-axis label).
    pub name: &'static str,
    /// The family recipe with its default parameters.
    pub kind: FamilyKind,
}

/// The registered families, canonical stage first.
pub fn families() -> Vec<ScenarioFamily> {
    vec![
        ScenarioFamily {
            name: "corner",
            kind: FamilyKind::Corner,
        },
        ScenarioFamily {
            name: "grid",
            kind: FamilyKind::Grid(GridParams::default()),
        },
        ScenarioFamily {
            name: "radial",
            kind: FamilyKind::Radial(RadialParams::default()),
        },
        ScenarioFamily {
            name: "highway",
            kind: FamilyKind::Highway(HighwayParams::default()),
        },
        ScenarioFamily {
            name: "roundabout",
            kind: FamilyKind::Roundabout(RoundaboutParams::default()),
        },
        ScenarioFamily {
            name: "bridge",
            kind: FamilyKind::Bridge(BridgeParams::default()),
        },
        ScenarioFamily {
            name: "city",
            kind: FamilyKind::City(CityParams::default()),
        },
    ]
}

/// Assigns `count` extra query origins to `instance`: each rides a
/// portal arm (never the primary ego's), aiming at the farthest portal
/// so its approach path crosses the map. Arms are dealt round-robin
/// starting past the primary's — the first cycle covers every other arm
/// exactly once (so small demands, like G4's, get distinct arms), then
/// the deal wraps, stacking multiple egos per arm for city-scale demands
/// of hundreds of origins. The per-route occlusion grid is derived
/// *once* here — via the instance's own
/// [`WorldInstance::derive_ego_stage`] — and carried on the instance, so
/// the runner consumes exactly the grid this generator saw. Ground-truth
/// agents are hidden in every extra corridor that derives, so per-ego
/// detection is measurable. Arms that derive no corridor of their own
/// still field an ego (their carried grid is the primary's).
pub fn assign_extra_egos(instance: &mut WorldInstance, count: usize, hidden_per_ego: usize) {
    let arms = instance.stage.net.arm_count();
    if arms <= 1 {
        return; // only the primary's arm exists: nowhere to put extras
    }
    let mut k = 0;
    while instance.extra_egos.len() < count {
        let arm = (instance.ego_arm + 1 + k) % arms;
        k += 1;
        if arm == instance.ego_arm {
            continue;
        }
        let goal_arm = (arm + arms / 2) % arms;
        let goal_arm = if goal_arm == arm {
            (arm + 1) % arms
        } else {
            goal_arm
        };
        let route = airdnd_scenario::EgoRoute { arm, goal_arm };
        let derived = instance.derive_ego_stage(route);
        // Hide agents in this ego's own corridor when one derives.
        if let Some(grid) = &derived {
            let agents = crate::fleets::corridor_slots(
                grid,
                &instance.stage.world,
                hidden_per_ego,
                2.0,
                false,
            );
            instance.hidden_agents.extend(agents);
        }
        instance.extra_egos.push(route);
        instance
            .extra_ego_stages
            .push(derived.unwrap_or(instance.stage.grid));
    }
}

/// Looks up one family by name.
pub fn find(name: &str) -> Option<ScenarioFamily> {
    families().into_iter().find(|f| f.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(seed: u64) -> ScenarioConfig {
        ScenarioConfig::default().seeded(seed)
    }

    /// Every registered family derives an occluded corridor with a real
    /// grid, hides its agents inside it, and keeps them out of buildings.
    #[test]
    fn every_family_instantiates_with_a_derived_corridor() {
        for family in families() {
            for seed in [1u64, 42, 1234] {
                let instance = family
                    .kind
                    .instantiate(&quick_cfg(seed), &FleetProfile::default());
                assert!(
                    instance.stage.grid.cell_count() >= 4,
                    "{}: corridor grid too small",
                    family.name
                );
                for agent in &instance.hidden_agents {
                    assert!(
                        instance.stage.grid.cell_of(*agent).is_some(),
                        "{}: agent {agent:?} outside the grid",
                        family.name
                    );
                    assert!(!instance.stage.world.is_inside_obstacle(*agent));
                }
            }
        }
    }

    /// The corner family is byte-identical to the canonical instance the
    /// plain `run_scenario` builds.
    #[test]
    fn corner_family_is_the_canonical_instance() {
        let cfg = quick_cfg(7);
        let family = FamilyKind::Corner.instantiate(&cfg, &FleetProfile::default());
        let canonical = WorldInstance::canonical(&cfg);
        assert_eq!(
            serde_json::to_string(&family).expect("serializes"),
            serde_json::to_string(&canonical).expect("serializes"),
        );
    }

    /// Same seed ⇒ byte-identical generated world; different seed ⇒ the
    /// building jitter actually varies.
    #[test]
    fn generation_is_seed_deterministic() {
        for family in families() {
            let one = family
                .kind
                .instantiate(&quick_cfg(9), &FleetProfile::dense());
            let two = family
                .kind
                .instantiate(&quick_cfg(9), &FleetProfile::dense());
            assert_eq!(
                serde_json::to_string(&one).expect("serializes"),
                serde_json::to_string(&two).expect("serializes"),
                "{}: same seed must regenerate identically",
                family.name
            );
        }
        let a = FamilyKind::Grid(GridParams::default())
            .instantiate(&quick_cfg(1), &FleetProfile::default());
        let b = FamilyKind::Grid(GridParams::default())
            .instantiate(&quick_cfg(2), &FleetProfile::default());
        assert_ne!(
            serde_json::to_string(&a.stage.world).expect("serializes"),
            serde_json::to_string(&b.stage.world).expect("serializes"),
            "different seeds must jitter the buildings"
        );
    }

    #[test]
    fn registry_lookup() {
        assert_eq!(families().len(), 7);
        assert!(find("grid").is_some());
        assert!(find("nope").is_none());
        let labels: Vec<&str> = families().iter().map(|f| f.kind.label()).collect();
        assert_eq!(
            labels,
            [
                "corner",
                "grid",
                "radial",
                "highway",
                "roundabout",
                "bridge",
                "city"
            ]
        );
    }

    /// The bridge family threads its shell loss into the instance so the
    /// runner hardens the radio medium; other families leave it alone.
    #[test]
    fn bridge_world_is_radio_opaque() {
        let cfg = quick_cfg(3);
        let bridge = find("bridge").unwrap().kind;
        let instance = bridge.instantiate(&cfg, &FleetProfile::default());
        assert_eq!(instance.obstacle_loss_db, Some(60.0));
        let grid = find("grid").unwrap().kind;
        assert_eq!(
            grid.instantiate(&cfg, &FleetProfile::default())
                .obstacle_loss_db,
            None
        );
    }

    /// The grid carried on the instance IS the grid the runner uses for
    /// each extra ego — one derivation, performed here and consumed
    /// there. Pin both halves of that contract: the carried grid equals
    /// a fresh `derive_ego_stage`, and every agent this function hides
    /// lands inside its ego's carried grid.
    #[test]
    fn extra_ego_agents_land_in_the_carried_grid() {
        let cfg = quick_cfg(9);
        let kind = find("grid").unwrap().kind;
        let mut instance = kind.instantiate(&cfg, &FleetProfile::default());
        let base_agents = instance.hidden_agents.len();
        assign_extra_egos(&mut instance, 2, 2);
        assert_eq!(instance.extra_ego_stages.len(), instance.extra_egos.len());
        let extra_agents = &instance.hidden_agents[base_agents..];
        assert!(!extra_agents.is_empty(), "grid arms must derive corridors");
        let mut placed = 0;
        for (k, route) in instance.extra_egos.iter().enumerate() {
            let derived = instance
                .derive_ego_stage(*route)
                .expect("grid arms must derive corridors");
            let carried = &instance.extra_ego_stages[k];
            assert_eq!(
                *carried, derived,
                "carried grid must be the authoritative derivation"
            );
            placed += extra_agents
                .iter()
                .filter(|&&a| carried.cell_of(a).is_some())
                .count();
        }
        assert_eq!(
            placed,
            extra_agents.len(),
            "every placed agent must be visible to the ego that owns it"
        );
    }

    /// Past one full cycle of arms the deal wraps: a city fields
    /// hundreds of query origins by stacking egos per portal, still
    /// never on the primary's arm, each carrying a grid. A wrapped ego
    /// carries exactly the grid of the first-cycle ego on its arm, which
    /// is what lets the runner's sensor refresh cover both with one grid.
    #[test]
    fn extra_egos_wrap_past_the_arm_count() {
        let cfg = quick_cfg(11);
        let kind = find("city").unwrap().kind;
        let mut instance = kind.instantiate(&cfg, &FleetProfile::default());
        let arms = instance.stage.net.arm_count();
        let count = 2 * arms + 5; // forces two full wraps
        assign_extra_egos(&mut instance, count, 1);
        assert_eq!(instance.extra_egos.len(), count);
        assert_eq!(instance.extra_ego_stages.len(), count);
        assert!(instance
            .extra_egos
            .iter()
            .all(|r| r.arm != instance.ego_arm));
        // The first cycle still deals every non-primary arm exactly once
        // (the pre-wrap contract G4 pins).
        let first_cycle: Vec<usize> = instance.extra_egos[..arms - 1]
            .iter()
            .map(|r| r.arm)
            .collect();
        let mut deduped = first_cycle.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), arms - 1);
        // And the wrap repeats the same deal, grid for grid.
        for k in arms - 1..count {
            let first = k % (arms - 1);
            assert_eq!(instance.extra_egos[k].arm, first_cycle[first]);
            assert_eq!(
                instance.extra_ego_stages[k], instance.extra_ego_stages[first],
                "ego {k} must carry the grid of ego {first} on the same arm"
            );
        }
    }

    /// Extra query origins land on distinct non-primary arms and bring
    /// their own hidden agents when their path derives a corridor.
    #[test]
    fn extra_egos_ride_distinct_arms() {
        let cfg = quick_cfg(5);
        for name in ["corner", "grid", "roundabout"] {
            let kind = find(name).unwrap().kind;
            let mut instance = kind.instantiate(&cfg, &FleetProfile::default());
            let base_agents = instance.hidden_agents.len();
            assign_extra_egos(&mut instance, 2, 1);
            assert_eq!(instance.extra_egos.len(), 2, "{name}");
            let mut arms: Vec<usize> = instance.extra_egos.iter().map(|r| r.arm).collect();
            assert!(
                !arms.contains(&instance.ego_arm),
                "{name}: extras must avoid the primary arm"
            );
            arms.dedup();
            assert_eq!(arms.len(), 2, "{name}: extras must ride distinct arms");
            assert!(
                instance.hidden_agents.len() >= base_agents,
                "{name}: agents never disappear"
            );
        }
    }
}
