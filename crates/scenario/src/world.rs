//! The physical stage: a road network, occluders, and the *derived* hidden
//! region.
//!
//! The hidden-region grid is no longer hard-coded to the canonical corner:
//! [`HiddenGrid::derive`] walks the ego's approach path, finds the first
//! junction where a crossing road is occluded by a building, and projects
//! the occluder onto the crossing axis to obtain the hidden corridor. The
//! canonical four-way stage built by [`ScenarioWorld::build`] goes through
//! the same derivation and reproduces the historical corridor byte for
//! byte (regression-tested below), while procedurally generated worlds
//! (`airdnd-worldgen`) get their occlusion grids for free. A query origin
//! carries only its [`HiddenGrid`]; every origin of a run shares the one
//! road network and obstacle world.

use airdnd_geo::{Aabb, NodeId, ObstacleIndex, RoadNetwork, Vec2, World};
use serde::{Deserialize, Serialize};

/// Knobs of the occlusion derivation. The defaults reproduce the canonical
/// "looking around the corner" corridor exactly.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OcclusionParams {
    /// The corridor starts this many metres past the occluder's near edge
    /// (projected onto the crossing axis).
    pub margin: f64,
    /// Corridor length along the crossing axis, metres (clamped to the
    /// straight-road reach).
    pub extent: f64,
    /// Corridor half-width across the crossing axis, metres (the road
    /// half-width).
    pub half_width: f64,
    /// Line-of-sight probe distance along the crossing axis, metres.
    pub probe: f64,
    /// Grid cell size over the hidden region, metres.
    pub cell_size: f64,
}

impl Default for OcclusionParams {
    fn default() -> Self {
        OcclusionParams {
            margin: 10.0,
            extent: 100.0,
            half_width: 8.0,
            probe: 30.0,
            cell_size: 5.0,
        }
    }
}

/// The static world of the looking-around-the-corner scenario: one road
/// network and one obstacle world, shared by every query origin of a run,
/// and the primary ego's hidden-region grid.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioWorld {
    /// The road graph (four-way intersection at the origin).
    pub net: RoadNetwork,
    /// Obstacles (four corner buildings).
    pub world: World,
    /// The primary ego's hidden-region grid. On the canonical corner it
    /// covers the region an ego approaching from the south cannot see: a
    /// corridor along the east arm, behind the south-east corner building.
    pub grid: HiddenGrid,
}

impl ScenarioWorld {
    /// Builds the canonical stage.
    ///
    /// `arm_length` sizes the intersection; buildings of `building_size`
    /// sit `building_setback` metres from the road centrelines.
    /// The corridor is *derived* from the geometry ([`HiddenGrid::derive`]);
    /// for parameter combinations where the buildings no longer occlude the
    /// crossing arm (e.g. an extreme setback), the historical hard-coded
    /// corridor is used instead, so every previously valid configuration
    /// keeps running.
    pub fn build(
        arm_length: f64,
        speed_limit: f64,
        building_setback: f64,
        building_size: f64,
    ) -> Self {
        let net = RoadNetwork::four_way_intersection(arm_length, speed_limit);
        let world = World::corner_buildings(building_setback, building_size);
        let ego_entry = net.approach_node(0);
        let goal = net.exit_node(2);
        let grid = HiddenGrid::derive(&net, &world, ego_entry, goal, &OcclusionParams::default())
            .unwrap_or_else(|| {
                let hidden_region = Aabb::new(
                    Vec2::new(building_setback + 10.0, -8.0),
                    Vec2::new((building_setback + 10.0 + 100.0).min(arm_length), 8.0),
                );
                let cell_size = 5.0;
                HiddenGrid {
                    cols: (hidden_region.width() / cell_size).ceil() as usize,
                    rows: (hidden_region.height() / cell_size).ceil() as usize,
                    hidden_region,
                    cell_size,
                }
            });
        ScenarioWorld { net, world, grid }
    }
}

/// One query origin's hidden-region grid: the box over the region it
/// cannot see, cut into square cells. It holds no geometry of its own;
/// every grid of a run lies on the run's one [`ScenarioWorld`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HiddenGrid {
    /// The occluded corridor the grid covers.
    pub hidden_region: Aabb,
    /// Grid cell size over the hidden region, metres.
    pub cell_size: f64,
    /// Grid columns.
    pub cols: usize,
    /// Grid rows.
    pub rows: usize,
}

impl HiddenGrid {
    /// Derives the hidden-region grid from world geometry: walks the ego's
    /// shortest path from `ego_entry` to `goal`, and at each junction
    /// (out-degree ≥ 3) probes every crossing road for a building that
    /// blocks the ego's line of sight from the previous path node. The
    /// first occluded crossing wins; the corridor runs along that axis from
    /// `margin` metres past the occluder's near edge for `extent` metres
    /// (clamped to the straight-road reach), `half_width` to each side.
    ///
    /// Returns `None` when no path exists or no crossing is occluded —
    /// a world with free sight everywhere has nothing to look around.
    pub fn derive(
        net: &RoadNetwork,
        world: &World,
        ego_entry: NodeId,
        goal: NodeId,
        params: &OcclusionParams,
    ) -> Option<Self> {
        let path = net.node_path(ego_entry, goal)?;
        for pair in path.windows(2) {
            let (prev, junction) = (pair[0], pair[1]);
            if net.out_degree(junction) < 3 {
                continue;
            }
            let vantage = net.position(prev);
            let jpos = net.position(junction);
            let Some(ego_dir) = (jpos - vantage).normalized() else {
                continue;
            };
            let exits: Vec<(NodeId, f64)> = net
                .lanes_from(junction)
                .map(|(to, length, _)| (to, length))
                .collect();
            for (to, length) in exits {
                let cross_dir = match (net.position(to) - jpos).normalized() {
                    Some(d) => d,
                    None => continue,
                };
                // Skip the ego's own road and its continuation; only
                // genuinely crossing directions can hide a corridor.
                if cross_dir.dot(ego_dir).abs() > 0.7 {
                    continue;
                }
                let probe = jpos + cross_dir * params.probe.min(length);
                let Some(occluder) = world
                    .obstacles()
                    .iter()
                    .find(|o| o.blocks(vantage, probe))
                    .map(airdnd_geo::Obstacle::bounds)
                else {
                    continue;
                };
                let corners = [
                    occluder.min(),
                    Vec2::new(occluder.min().x, occluder.max().y),
                    Vec2::new(occluder.max().x, occluder.min().y),
                    occluder.max(),
                ];
                let near = corners
                    .iter()
                    .map(|&c| (c - jpos).dot(cross_dir))
                    .fold(f64::INFINITY, f64::min);
                let start = near + params.margin;
                let end = (start + params.extent).min(straight_reach(net, junction, cross_dir));
                if end <= start {
                    continue;
                }
                let p1 = jpos + cross_dir * start;
                let p2 = jpos + cross_dir * end;
                let across = cross_dir.perp() * params.half_width;
                let hidden_region = aabb_of(&[p1 - across, p1 + across, p2 - across, p2 + across]);
                let cell_size = params.cell_size;
                let cols = (hidden_region.width() / cell_size).ceil() as usize;
                let rows = (hidden_region.height() / cell_size).ceil() as usize;
                if cols == 0 || rows == 0 {
                    continue;
                }
                return Some(HiddenGrid {
                    hidden_region,
                    cell_size,
                    cols,
                    rows,
                });
            }
        }
        None
    }

    /// Number of grid cells over the hidden region.
    pub fn cell_count(&self) -> usize {
        self.cols * self.rows
    }

    /// Centre of grid cell `(col, row)`.
    pub fn cell_center(&self, col: usize, row: usize) -> Vec2 {
        Vec2::new(
            self.hidden_region.min().x + (col as f64 + 0.5) * self.cell_size,
            self.hidden_region.min().y + (row as f64 + 0.5) * self.cell_size,
        )
    }

    /// Grid cell containing `pos`, if inside the grid's extent (the grid
    /// may overhang the region box by up to one cell per axis).
    pub fn cell_of(&self, pos: Vec2) -> Option<usize> {
        let dx = pos.x - self.hidden_region.min().x;
        let dy = pos.y - self.hidden_region.min().y;
        if dx < 0.0 || dy < 0.0 {
            return None;
        }
        let col = (dx / self.cell_size) as usize;
        let row = (dy / self.cell_size) as usize;
        if col >= self.cols || row >= self.rows {
            return None;
        }
        Some(row * self.cols + col)
    }

    /// Rasterizes one vehicle's view of the hidden region, testing line
    /// of sight through `los`, an index over the obstacles of the world
    /// this grid lies on. Build that index once per world: a
    /// rasterization tests line of sight per cell, and the runner's
    /// sensor refresh touches every vehicle × every grid, so its tests
    /// must cost O(nearby obstacles), not O(all obstacles).
    ///
    /// Cell values: `-1` = unobserved, `0` = observed and free, `1` =
    /// observed and occupied (a ground-truth agent stands in it). A cell
    /// is observed when its centre is within `sensor_range` of `pos` and
    /// line of sight is clear.
    pub fn rasterize(
        &self,
        los: &ObstacleIndex,
        pos: Vec2,
        sensor_range: f64,
        agents: &[Vec2],
    ) -> Vec<i64> {
        let mut grid = vec![-1i64; self.cell_count()];
        // City-scale early-out: every cell centre lies inside the grid's
        // extent box, so the clamped-point distance from `pos` to that
        // box lower-bounds every centre distance. When even the box is
        // out of sensor range, no per-cell test can pass — the all
        // `-1` grid is byte-identical to running them. On a map with
        // many ego corridors this makes far vehicles O(cells) writes
        // instead of O(cells) distance + line-of-sight tests.
        let min = self.hidden_region.min();
        let max = Vec2::new(
            min.x + self.cols as f64 * self.cell_size,
            min.y + self.rows as f64 * self.cell_size,
        );
        let nearest = Vec2::new(pos.x.clamp(min.x, max.x), pos.y.clamp(min.y, max.y));
        if nearest.distance(pos) > sensor_range {
            return grid;
        }
        let agent_cells: Vec<usize> = agents.iter().filter_map(|&a| self.cell_of(a)).collect();
        for row in 0..self.rows {
            for col in 0..self.cols {
                let center = self.cell_center(col, row);
                if center.distance(pos) > sensor_range {
                    continue;
                }
                if !los.line_of_sight(pos, center) {
                    continue;
                }
                let idx = row * self.cols + col;
                grid[idx] = if agent_cells.contains(&idx) { 1 } else { 0 };
            }
        }
        grid
    }
}

/// How far the road continues straight from `junction` along `dir`:
/// follows, at every node, the outgoing lane most aligned with `dir`
/// (requiring near-collinearity) and returns the projected distance
/// reached. The corridor is clamped to this, so it never extends past the
/// pavement.
fn straight_reach(net: &RoadNetwork, junction: NodeId, dir: Vec2) -> f64 {
    let origin = net.position(junction);
    let mut current = junction;
    let mut visited = vec![junction];
    loop {
        let mut best: Option<(NodeId, f64)> = None;
        for (to, _, _) in net.lanes_from(current) {
            if visited.contains(&to) {
                continue;
            }
            let Some(d) = (net.position(to) - net.position(current)).normalized() else {
                continue;
            };
            let align = d.dot(dir);
            if align > 0.999 && best.is_none_or(|(_, b)| align > b) {
                best = Some((to, align));
            }
        }
        match best {
            Some((to, _)) => {
                visited.push(to);
                current = to;
            }
            None => return (net.position(current) - origin).dot(dir),
        }
    }
}

/// The axis-aligned bounding box of a point set.
fn aabb_of(points: &[Vec2]) -> Aabb {
    let mut min = points[0];
    let mut max = points[0];
    for &p in &points[1..] {
        min = min.min(p);
        max = max.max(p);
    }
    Aabb::new(min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage() -> ScenarioWorld {
        ScenarioWorld::build(250.0, 13.9, 12.0, 40.0)
    }

    /// The derivation must reproduce the historical hard-coded corner
    /// corridor *byte for byte* — the canonical stage is now just a special
    /// case of the generic geometry pass, and every committed golden
    /// artifact depends on that equivalence.
    #[test]
    fn derived_canonical_stage_matches_the_hardcoded_corridor() {
        let (arm_length, speed_limit, setback, size) = (250.0, 13.9, 12.0, 40.0);
        let derived = ScenarioWorld::build(arm_length, speed_limit, setback, size);
        // The pre-derivation literal, reproduced verbatim.
        let legacy = HiddenGrid {
            hidden_region: Aabb::new(
                Vec2::new(setback + 10.0, -8.0),
                Vec2::new((setback + 10.0 + 100.0).min(arm_length), 8.0),
            ),
            cell_size: 5.0,
            cols: 20,
            rows: 4,
        };
        assert_eq!(
            serde_json::to_string_pretty(&derived.grid).expect("serializes"),
            serde_json::to_string_pretty(&legacy).expect("serializes"),
            "deriving the canonical stage must be byte-identical to the \
             hard-coded corridor"
        );
    }

    /// Extreme geometry where the buildings no longer occlude the probe
    /// still builds (falling back to the historical corridor) instead of
    /// panicking — `build` accepted these configs before derivation
    /// existed.
    #[test]
    fn build_falls_back_when_derivation_finds_no_occlusion() {
        let w = ScenarioWorld::build(250.0, 13.9, 60.0, 40.0);
        assert_eq!(w.grid.hidden_region.min(), Vec2::new(70.0, -8.0));
        assert_eq!(w.grid.hidden_region.max(), Vec2::new(170.0, 8.0));
        assert!(w.grid.cell_count() > 0);
    }

    /// Worlds without occlusion derive no hidden region.
    #[test]
    fn unoccluded_world_derives_nothing() {
        let net = RoadNetwork::four_way_intersection(250.0, 13.9);
        let (a, b) = (net.approach_node(0), net.exit_node(2));
        assert!(
            HiddenGrid::derive(&net, &World::new(), a, b, &OcclusionParams::default()).is_none(),
            "free sight everywhere means nothing to look around"
        );
    }

    #[test]
    fn grid_geometry_is_consistent() {
        let g = stage().grid;
        assert_eq!(g.cell_count(), g.cols * g.rows);
        assert!(g.cell_count() > 20, "hidden region should have a real grid");
        // Every cell centre maps back to its own index.
        for row in 0..g.rows {
            for col in 0..g.cols {
                let c = g.cell_center(col, row);
                assert_eq!(g.cell_of(c), Some(row * g.cols + col));
            }
        }
        assert_eq!(g.cell_of(Vec2::new(-500.0, 0.0)), None);
    }

    #[test]
    fn southern_ego_cannot_see_the_hidden_region() {
        let w = stage();
        let ego = Vec2::new(0.0, -60.0);
        let grid = w
            .grid
            .rasterize(&ObstacleIndex::new(&w.world), ego, 150.0, &[]);
        let observed = grid.iter().filter(|&&c| c >= 0).count();
        let frac = observed as f64 / grid.len() as f64;
        assert!(
            frac < 0.5,
            "the corner must hide most of the region, saw {frac}"
        );
    }

    #[test]
    fn eastern_helper_sees_it() {
        let w = stage();
        let helper = Vec2::new(80.0, 0.0);
        let grid = w
            .grid
            .rasterize(&ObstacleIndex::new(&w.world), helper, 150.0, &[]);
        let observed = grid.iter().filter(|&&c| c >= 0).count();
        let frac = observed as f64 / grid.len() as f64;
        assert!(
            frac > 0.6,
            "an on-arm helper sees most of the corridor, saw {frac}"
        );
    }

    #[test]
    fn agents_mark_cells_occupied() {
        let w = stage();
        let agent = Vec2::new(60.0, 0.0);
        let helper = Vec2::new(80.0, 0.0);
        let grid = w
            .grid
            .rasterize(&ObstacleIndex::new(&w.world), helper, 150.0, &[agent]);
        let idx = w.grid.cell_of(agent).unwrap();
        assert_eq!(grid[idx], 1);
        assert!(grid.iter().filter(|&&c| c == 1).count() >= 1);
    }

    #[test]
    fn out_of_range_sensor_sees_nothing() {
        let w = stage();
        let far = Vec2::new(0.0, -240.0);
        let grid = w
            .grid
            .rasterize(&ObstacleIndex::new(&w.world), far, 50.0, &[]);
        assert!(grid.iter().all(|&c| c == -1));
    }
}
