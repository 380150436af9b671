//! Fleet density/churn profiles for generated worlds.
//!
//! The scenario's mobile fleet already models churn (vehicles traverse the
//! map and respawn at portals); a [`FleetProfile`] layers the density
//! knobs on top: how many mobile vehicles circulate, how many parked/RSU
//! helpers anchor the mesh near the occluded corridor, and how widely
//! spawn times scatter. [`parked_positions`] places the fixed helpers
//! deterministically along the hidden corridor — parked cars on the
//! occluded street are exactly the "excess resources" the paper wants to
//! rent out.

use airdnd_geo::{Vec2, World};
use airdnd_scenario::{FleetAction, FleetEvent, FleetSchedule, HiddenGrid, ScenarioWorld};
use airdnd_sim::SimRng;
use serde::{Deserialize, Serialize};

/// Density/churn profile of a generated fleet.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FleetProfile {
    /// Mobile vehicles, including the ego.
    pub vehicles: usize,
    /// Parked/RSU helpers anchored near the hidden corridor.
    pub parked: usize,
    /// Spawn-scatter window, seconds (the arrival process: vehicles enter
    /// their approach spread over this much warmup).
    pub arrival_window_s: f64,
}

impl Default for FleetProfile {
    fn default() -> Self {
        FleetProfile {
            vehicles: 12,
            parked: 0,
            arrival_window_s: 20.0,
        }
    }
}

impl FleetProfile {
    /// A sparse fleet.
    pub fn sparse() -> Self {
        FleetProfile {
            vehicles: 6,
            ..Self::default()
        }
    }

    /// A dense fleet with parked helpers.
    pub fn dense() -> Self {
        FleetProfile {
            vehicles: 24,
            parked: 4,
            ..Self::default()
        }
    }
}

/// RNG fork tag separating the churn schedule from every other stream the
/// scenario seed drives.
const CHURN_TAG: u64 = 0xC4A1_4B2E;

/// A deterministic, seed-driven arrival/departure process: two Poisson
/// streams (exponential inter-event times) that compile into the
/// [`FleetSchedule`] the scenario driver applies at tick boundaries, so
/// mesh membership genuinely changes mid-run. Zero rates yield an empty
/// schedule — the static fleet, byte for byte.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChurnProcess {
    /// Mean vehicle arrivals per minute.
    pub arrivals_per_min: f64,
    /// Mean vehicle departures per minute.
    pub departures_per_min: f64,
    /// Fraction of departures that are abrupt (no mesh `Leave`; in-flight
    /// frames and task results are dropped).
    pub abrupt_fraction: f64,
}

impl ChurnProcess {
    /// No churn: the empty schedule / static fleet.
    pub fn none() -> Self {
        ChurnProcess {
            arrivals_per_min: 0.0,
            departures_per_min: 0.0,
            abrupt_fraction: 0.0,
        }
    }

    /// Gentle turnover: a handful of membership changes per minute, all
    /// graceful.
    pub fn mild() -> Self {
        ChurnProcess {
            arrivals_per_min: 6.0,
            departures_per_min: 6.0,
            abrupt_fraction: 0.0,
        }
    }

    /// Heavy turnover with abrupt drops: the stress setting.
    pub fn heavy() -> Self {
        ChurnProcess {
            arrivals_per_min: 18.0,
            departures_per_min: 18.0,
            abrupt_fraction: 0.5,
        }
    }

    /// Axis/table label, symmetric in the two rates (a departure-only
    /// storm is as heavy as an arrival-only one).
    pub fn label(&self) -> &'static str {
        let rate = self.arrivals_per_min.max(self.departures_per_min);
        if rate == 0.0 {
            "none"
        } else if rate >= 12.0 || self.abrupt_fraction > 0.0 {
            "heavy"
        } else {
            "mild"
        }
    }

    /// Compiles the process into a time-sorted [`FleetSchedule`] covering
    /// `duration_s` seconds: arrival times are an exponential stream
    /// entering round-robin over `arms` portals; departure times an
    /// independent stream, each abrupt with [`ChurnProcess::abrupt_fraction`]
    /// probability. Pure in `(self, duration_s, arms, seed)` — the same
    /// seed compiles the same schedule on any thread, process or host.
    pub fn schedule(&self, duration_s: f64, arms: usize, seed: u64) -> FleetSchedule {
        let mut rng = SimRng::seed_from(seed).fork(CHURN_TAG);
        let mut events = Vec::new();
        if self.arrivals_per_min > 0.0 {
            let mean = 60.0 / self.arrivals_per_min;
            let mut t = rng.exp(mean);
            let mut k = 0usize;
            while t < duration_s {
                events.push(FleetEvent {
                    at_s: t,
                    action: FleetAction::Spawn {
                        arm: k % arms.max(1),
                    },
                });
                k += 1;
                t += rng.exp(mean);
            }
        }
        if self.departures_per_min > 0.0 {
            let mean = 60.0 / self.departures_per_min;
            let mut t = rng.exp(mean);
            while t < duration_s {
                let graceful = !rng.chance(self.abrupt_fraction);
                events.push(FleetEvent {
                    at_s: t,
                    action: FleetAction::Despawn { graceful },
                });
                t += rng.exp(mean);
            }
        }
        FleetSchedule::new(events)
    }
}

/// Fraction-spaced positions along `grid`'s corridor long axis at a
/// lateral offset from the centreline — the shared placement pass for
/// parked helpers and hidden ground-truth agents. `alternate` flips the
/// offset side slot by slot (kerb-side parking); slots inside `world`'s
/// obstacles are skipped (the walk continues past them), so the result
/// may be shorter than `count` on exotic geometry.
pub fn corridor_slots(
    grid: &HiddenGrid,
    world: &World,
    count: usize,
    lateral: f64,
    alternate: bool,
) -> Vec<Vec2> {
    let region = grid.hidden_region;
    let along_x = region.width() >= region.height();
    let center = region.center();
    let mut out = Vec::with_capacity(count);
    let slots = count * 2; // headroom for skipped slots
    for i in 0..slots {
        if out.len() == count {
            break;
        }
        let frac = (i + 1) as f64 / (slots + 1) as f64;
        let side = if alternate && i % 2 == 1 { -1.0 } else { 1.0 };
        let pos = if along_x {
            Vec2::new(
                region.min().x + frac * region.width(),
                center.y + side * lateral,
            )
        } else {
            Vec2::new(
                center.x + side * lateral,
                region.min().y + frac * region.height(),
            )
        };
        if !world.is_inside_obstacle(pos) {
            out.push(pos);
        }
    }
    out
}

/// Places `count` parked helpers deterministically along the hidden
/// corridor, offset from the centreline like kerb-side parking.
pub fn parked_positions(stage: &ScenarioWorld, count: usize) -> Vec<Vec2> {
    corridor_slots(&stage.grid, &stage.world, count, 3.0, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_schedule_is_seeded_and_zero_rate_is_empty() {
        let churn = ChurnProcess::heavy();
        let a = churn.schedule(60.0, 4, 7);
        let b = churn.schedule(60.0, 4, 7);
        assert_eq!(a, b, "same seed must compile the same schedule");
        let c = churn.schedule(60.0, 4, 8);
        assert_ne!(a, c, "distinct seeds must diverge");
        assert!(a.spawn_count() > 0 && a.despawn_count() > 0);
        // Events are time-sorted and inside the run.
        for w in a.events.windows(2) {
            assert!(w[0].at_s <= w[1].at_s);
        }
        assert!(a.events.iter().all(|e| e.at_s >= 0.0 && e.at_s < 60.0));
        assert!(ChurnProcess::none().schedule(60.0, 4, 7).is_empty());
    }

    #[test]
    fn churn_labels_are_stable_and_rate_symmetric() {
        assert_eq!(ChurnProcess::none().label(), "none");
        assert_eq!(ChurnProcess::mild().label(), "mild");
        assert_eq!(ChurnProcess::heavy().label(), "heavy");
        // A departure-only storm is as heavy as an arrival-only one.
        let drain = ChurnProcess {
            arrivals_per_min: 0.0,
            departures_per_min: 18.0,
            abrupt_fraction: 0.0,
        };
        assert_eq!(drain.label(), "heavy");
    }

    #[test]
    fn parked_positions_sit_in_the_corridor() {
        let stage = ScenarioWorld::build(250.0, 13.9, 12.0, 40.0);
        let parked = parked_positions(&stage, 4);
        assert_eq!(parked.len(), 4);
        for p in &parked {
            assert!(
                stage.grid.hidden_region.contains(*p),
                "{p:?} outside corridor"
            );
            assert!(!stage.world.is_inside_obstacle(*p));
        }
        // Deterministic.
        assert_eq!(parked, parked_positions(&stage, 4));
    }
}
