//! Demand synthesis for generated scenarios.
//!
//! [`DemandProfile`] itself lives in `airdnd-scenario` (the driver
//! consumes it at tick time); this module provides the family-aware
//! presets: the hotspot profile is centred on the *derived* hidden
//! corridor of whatever world was generated, and the rush-hour/bursty
//! presets use windows sized for the standard run lengths.

use airdnd_scenario::{DemandProfile, HiddenGrid, ScenarioWorld};
use serde::{Deserialize, Serialize};

/// A demand pattern *recipe*: serializable into sweep configs before the
/// world exists, resolved against the derived stage at run time (the
/// hotspot needs the generated corridor's position).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum DemandKind {
    /// Fixed-period queries.
    Steady,
    /// [`rush_hour`].
    RushHour,
    /// [`bursty`].
    Bursty,
    /// [`corridor_hotspot`] on the derived hidden region.
    CorridorHotspot,
}

impl DemandKind {
    /// Axis/table label.
    pub fn label(&self) -> &'static str {
        match self {
            DemandKind::Steady => "steady",
            DemandKind::RushHour => "rush-hour",
            DemandKind::Bursty => "bursty",
            DemandKind::CorridorHotspot => "hotspot",
        }
    }

    /// Resolves the recipe against an instantiated stage.
    pub fn resolve(&self, stage: &ScenarioWorld) -> DemandProfile {
        match self {
            DemandKind::Steady => DemandProfile::Steady,
            DemandKind::RushHour => rush_hour(),
            DemandKind::Bursty => bursty(),
            DemandKind::CorridorHotspot => corridor_hotspot(&stage.grid),
        }
    }
}

/// Rush hour: the middle third of the run quadruples the query rate.
pub fn rush_hour() -> DemandProfile {
    DemandProfile::RushHour {
        peak_start: 1.0 / 3.0,
        peak_end: 2.0 / 3.0,
        peak_divisor: 4,
    }
}

/// Query trains: 8 back-to-back ticks, then 32 quiet ones.
pub fn bursty() -> DemandProfile {
    DemandProfile::Bursty {
        burst_ticks: 8,
        idle_ticks: 32,
    }
}

/// A spatial hotspot on the derived hidden corridor: the ego queries at
/// the base rate only while near the occlusion, four times slower
/// elsewhere.
pub fn corridor_hotspot(grid: &HiddenGrid) -> DemandProfile {
    let region = grid.hidden_region;
    let center = region.center();
    let radius = region.width().max(region.height()) + 60.0;
    DemandProfile::Hotspot {
        x: center.x,
        y: center.y,
        radius,
        cold_multiplier: 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airdnd_geo::Vec2;

    #[test]
    fn hotspot_centres_on_the_corridor() {
        let grid = ScenarioWorld::build(250.0, 13.9, 12.0, 40.0).grid;
        let DemandProfile::Hotspot { x, y, radius, .. } = corridor_hotspot(&grid) else {
            panic!("hotspot expected");
        };
        assert!(grid.hidden_region.contains(Vec2::new(x, y)));
        assert!(radius > grid.hidden_region.width());
    }

    #[test]
    fn recipes_resolve_with_matching_labels() {
        let stage = ScenarioWorld::build(250.0, 13.9, 12.0, 40.0);
        let kinds = [
            DemandKind::Steady,
            DemandKind::RushHour,
            DemandKind::Bursty,
            DemandKind::CorridorHotspot,
        ];
        let labels: Vec<&str> = kinds.iter().map(|k| k.resolve(&stage).label()).collect();
        assert_eq!(labels, ["steady", "rush-hour", "bursty", "hotspot"]);
        for kind in kinds {
            assert_eq!(kind.label(), kind.resolve(&stage).label());
        }
    }
}
