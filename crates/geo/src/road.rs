//! Road networks: nodes, directed lanes, and shortest-path routes.
//!
//! The "looking around the corner" scenario plays out on a small road graph;
//! [`RoadNetwork::four_way_intersection`] builds the canonical map used by
//! the evaluation; larger urban fabrics are wired lane by lane with
//! [`RoadNetwork::add_road`] (the `airdnd-worldgen` map families do this).
//! Routing minimizes free-flow travel time (length / speed limit) with
//! Dijkstra's algorithm.

use crate::vec2::Vec2;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

/// Identifies a node (waypoint/junction) within one [`RoadNetwork`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Raw index of the node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// Errors returned when constructing road networks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildRoadError {
    /// An endpoint id does not exist in this network.
    UnknownNode(NodeId),
    /// A lane's two endpoints are the same node.
    SelfLoop(NodeId),
    /// The speed limit is zero, negative or not finite.
    InvalidSpeed(u64),
}

impl fmt::Display for BuildRoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildRoadError::UnknownNode(n) => write!(f, "unknown road node {n}"),
            BuildRoadError::SelfLoop(n) => write!(f, "lane endpoints are both {n}"),
            BuildRoadError::InvalidSpeed(bits) => {
                write!(f, "invalid speed limit {}", f64::from_bits(*bits))
            }
        }
    }
}

impl Error for BuildRoadError {}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct Lane {
    to: NodeId,
    length: f64,
    speed_limit: f64,
}

/// A directed road graph with per-lane speed limits.
///
/// See the crate-level example for typical use.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RoadNetwork {
    positions: Vec<Vec2>,
    adjacency: Vec<Vec<Lane>>,
    arms: Vec<NodeId>,
}

impl RoadNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node at `pos` and returns its id.
    pub fn add_node(&mut self, pos: Vec2) -> NodeId {
        let id = NodeId(self.positions.len() as u32);
        self.positions.push(pos);
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds a one-way lane from `from` to `to` with the given speed limit
    /// (m/s).
    ///
    /// # Errors
    ///
    /// Returns [`BuildRoadError`] if either node is unknown, the endpoints
    /// coincide, or the speed limit is not a positive finite number.
    pub fn add_lane(
        &mut self,
        from: NodeId,
        to: NodeId,
        speed_limit: f64,
    ) -> Result<(), BuildRoadError> {
        for n in [from, to] {
            if n.index() >= self.positions.len() {
                return Err(BuildRoadError::UnknownNode(n));
            }
        }
        if from == to {
            return Err(BuildRoadError::SelfLoop(from));
        }
        if !(speed_limit.is_finite() && speed_limit > 0.0) {
            return Err(BuildRoadError::InvalidSpeed(speed_limit.to_bits()));
        }
        let length = self.positions[from.index()].distance(self.positions[to.index()]);
        self.adjacency[from.index()].push(Lane {
            to,
            length,
            speed_limit,
        });
        Ok(())
    }

    /// Adds lanes in both directions between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RoadNetwork::add_lane`].
    pub fn add_road(
        &mut self,
        a: NodeId,
        b: NodeId,
        speed_limit: f64,
    ) -> Result<(), BuildRoadError> {
        self.add_lane(a, b, speed_limit)?;
        self.add_lane(b, a, speed_limit)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of directed lanes.
    pub fn lane_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum()
    }

    /// Position of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn position(&self, id: NodeId) -> Vec2 {
        self.positions[id.index()]
    }

    /// Ids of all nodes.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len() as u32).map(NodeId)
    }

    /// The canonical "looking around the corner" map: a four-way
    /// intersection with arms of `arm_length` metres meeting at the origin,
    /// all lanes two-way at `speed_limit` m/s.
    ///
    /// Arm indices are 0 = south, 1 = east, 2 = north, 3 = west; use
    /// [`RoadNetwork::approach_node`] / [`RoadNetwork::exit_node`] to fetch
    /// the arm endpoints.
    pub fn four_way_intersection(arm_length: f64, speed_limit: f64) -> Self {
        let mut net = RoadNetwork::new();
        let center = net.add_node(Vec2::ZERO);
        let ends = [
            Vec2::new(0.0, -arm_length),
            Vec2::new(arm_length, 0.0),
            Vec2::new(0.0, arm_length),
            Vec2::new(-arm_length, 0.0),
        ];
        for pos in ends {
            let end = net.add_node(pos);
            net.add_road(end, center, speed_limit)
                .expect("freshly created nodes are valid");
            net.arms.push(end);
        }
        net
    }

    /// Designates `arms` as this network's portal nodes (the spawn/goal
    /// endpoints [`RoadNetwork::approach_node`] / [`RoadNetwork::exit_node`]
    /// hand out). Generators call this after wiring their lanes; the
    /// canonical constructors set their own arms.
    ///
    /// # Panics
    ///
    /// Panics if any id does not belong to this network.
    pub fn set_arms(&mut self, arms: Vec<NodeId>) {
        for &arm in &arms {
            assert!(arm.index() < self.positions.len(), "unknown arm {arm}");
        }
        self.arms = arms;
    }

    /// Every directed lane as `(from, to, length, speed_limit)`, in
    /// adjacency order — the raw edge list generators and invariant tests
    /// iterate.
    pub fn lanes(&self) -> impl Iterator<Item = (NodeId, NodeId, f64, f64)> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(from, lanes)| {
            lanes
                .iter()
                .map(move |lane| (NodeId(from as u32), lane.to, lane.length, lane.speed_limit))
        })
    }

    /// The lanes leaving `id` as `(to, length, speed_limit)`, in insertion
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn lanes_from(&self, id: NodeId) -> impl Iterator<Item = (NodeId, f64, f64)> + '_ {
        self.adjacency[id.index()]
            .iter()
            .map(|lane| (lane.to, lane.length, lane.speed_limit))
    }

    /// Number of lanes leaving `id` (the node's out-degree); nodes with
    /// three or more are junctions.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.adjacency[id.index()].len()
    }

    /// The entry endpoint of intersection arm `i` (see
    /// [`RoadNetwork::four_way_intersection`] for arm numbering).
    ///
    /// # Panics
    ///
    /// Panics if the network has no arm `i`.
    pub fn approach_node(&self, i: usize) -> NodeId {
        self.arms[i]
    }

    /// The exit endpoint of intersection arm `i` (same nodes as
    /// [`RoadNetwork::approach_node`]; lanes are two-way).
    ///
    /// # Panics
    ///
    /// Panics if the network has no arm `i`.
    pub fn exit_node(&self, i: usize) -> NodeId {
        self.arms[i]
    }

    /// Number of designated arm/portal nodes.
    pub fn arm_count(&self) -> usize {
        self.arms.len()
    }

    /// The node sequence of the shortest route (by free-flow travel time)
    /// from `from` to `to`, or `None` if unreachable or either id is
    /// unknown. The occlusion-derivation pass walks this to find the
    /// junctions an ego traverses.
    pub fn node_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let n = self.positions.len();
        if from.index() >= n || to.index() >= n {
            return None;
        }
        if from == to {
            return Some(vec![from]);
        }
        self.dijkstra_ids(from, to)
    }

    fn dijkstra_ids(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let n = self.positions.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
        let mut heap: BinaryHeap<Reverse<(OrdF64, u32)>> = BinaryHeap::new();
        dist[from.index()] = 0.0;
        heap.push(Reverse((OrdF64(0.0), from.0)));
        while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            if u == to.0 {
                break;
            }
            for lane in &self.adjacency[u as usize] {
                let nd = d + lane.length / lane.speed_limit;
                if nd < dist[lane.to.index()] {
                    dist[lane.to.index()] = nd;
                    prev[lane.to.index()] = Some(NodeId(u));
                    heap.push(Reverse((OrdF64(nd), lane.to.0)));
                }
            }
        }
        if dist[to.index()].is_infinite() {
            return None;
        }
        let mut ids = vec![to];
        while let Some(p) = prev[ids.last().expect("non-empty").index()] {
            ids.push(p);
            if p == from {
                break;
            }
        }
        ids.reverse();
        Some(ids)
    }

    /// Shortest route (by free-flow travel time) from `from` to `to`, or
    /// `None` if unreachable or either id is unknown.
    pub fn route(&self, from: NodeId, to: NodeId) -> Option<Route> {
        let n = self.positions.len();
        if from.index() >= n || to.index() >= n {
            return None;
        }
        if from == to {
            return Some(Route::from_points(vec![self.position(from)], vec![]));
        }
        let ids = self.dijkstra_ids(from, to)?;
        let points: Vec<Vec2> = ids.iter().map(|&id| self.position(id)).collect();
        let speeds: Vec<f64> = ids
            .windows(2)
            .map(|w| {
                self.adjacency[w[0].index()]
                    .iter()
                    .find(|lane| lane.to == w[1])
                    .expect("path edges exist")
                    .speed_limit
            })
            .collect();
        Some(Route::from_points(points, speeds))
    }
}

/// A polyline route with per-segment speed limits and arc-length lookup.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Route {
    points: Vec<Vec2>,
    cumulative: Vec<f64>,
    speed_limits: Vec<f64>,
}

impl Route {
    /// Builds a route from waypoints; `speed_limits` has one entry per
    /// segment (`points.len() - 1`) and may be empty for a degenerate
    /// single-point route.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or the lengths disagree.
    pub fn from_points(points: Vec<Vec2>, speed_limits: Vec<f64>) -> Self {
        assert!(!points.is_empty(), "route needs at least one point");
        assert_eq!(
            speed_limits.len(),
            points.len().saturating_sub(1),
            "one speed per segment"
        );
        let mut cumulative = Vec::with_capacity(points.len());
        cumulative.push(0.0);
        for w in points.windows(2) {
            let prev = *cumulative.last().expect("non-empty");
            cumulative.push(prev + w[0].distance(w[1]));
        }
        Route {
            points,
            cumulative,
            speed_limits,
        }
    }

    /// Total length in metres.
    pub fn length(&self) -> f64 {
        *self.cumulative.last().expect("non-empty")
    }

    /// The waypoints of the route.
    pub fn points(&self) -> &[Vec2] {
        &self.points
    }

    /// Position and heading (radians from +x) at arc length `s`, clamped to
    /// the route's ends.
    pub fn position_at(&self, s: f64) -> (Vec2, f64) {
        let s = s.clamp(0.0, self.length());
        if self.points.len() == 1 {
            return (self.points[0], 0.0);
        }
        // Find the segment containing s (cumulative is sorted).
        let seg = match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&s).expect("finite"))
        {
            Ok(i) => i.min(self.points.len() - 2),
            Err(i) => i.saturating_sub(1).min(self.points.len() - 2),
        };
        let seg_len = self.cumulative[seg + 1] - self.cumulative[seg];
        let t = if seg_len > 0.0 {
            (s - self.cumulative[seg]) / seg_len
        } else {
            0.0
        };
        let pos = self.points[seg].lerp(self.points[seg + 1], t);
        let heading = (self.points[seg + 1] - self.points[seg]).angle();
        (pos, heading)
    }

    /// Speed limit of the segment containing arc length `s` (m/s); the last
    /// segment's limit past the end. Returns 0.0 for single-point routes.
    pub fn speed_limit_at(&self, s: f64) -> f64 {
        if self.speed_limits.is_empty() {
            return 0.0;
        }
        let s = s.clamp(0.0, self.length());
        for (i, w) in self.cumulative.windows(2).enumerate() {
            if s <= w[1] {
                return self.speed_limits[i];
            }
        }
        *self.speed_limits.last().expect("non-empty")
    }

    /// Free-flow travel time over the whole route, in seconds.
    pub fn free_flow_time(&self) -> f64 {
        self.cumulative
            .windows(2)
            .zip(&self.speed_limits)
            .map(|(w, &v)| (w[1] - w[0]) / v)
            .sum()
    }
}

/// Total-order wrapper for finite f64 priorities.
#[derive(Clone, Copy, Debug, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("priorities are finite")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_way_routes_pass_through_center() {
        let net = RoadNetwork::four_way_intersection(100.0, 10.0);
        assert_eq!(net.node_count(), 5);
        assert_eq!(net.lane_count(), 8);
        let r = net.route(net.approach_node(0), net.exit_node(2)).unwrap();
        assert_eq!(r.points().len(), 3);
        assert!((r.length() - 200.0).abs() < 1e-9);
        let (mid, heading) = r.position_at(100.0);
        assert!(mid.distance(Vec2::ZERO) < 1e-9);
        assert!((heading - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn route_same_node_is_degenerate() {
        let net = RoadNetwork::four_way_intersection(50.0, 10.0);
        let a = net.approach_node(0);
        let r = net.route(a, a).unwrap();
        assert_eq!(r.length(), 0.0);
        let (p, _) = r.position_at(5.0);
        assert_eq!(p, net.position(a));
    }

    #[test]
    fn unreachable_route_is_none() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(Vec2::ZERO);
        let b = net.add_node(Vec2::new(10.0, 0.0));
        let c = net.add_node(Vec2::new(20.0, 0.0));
        net.add_lane(a, b, 10.0).unwrap();
        // No lane into c.
        assert!(net.route(a, c).is_none());
        assert!(net.route(c, a).is_none());
    }

    #[test]
    fn dijkstra_prefers_faster_detour() {
        // Direct slow lane vs a two-hop fast detour that is longer but quicker.
        let mut net = RoadNetwork::new();
        let a = net.add_node(Vec2::ZERO);
        let b = net.add_node(Vec2::new(100.0, 0.0));
        let via = net.add_node(Vec2::new(50.0, 20.0));
        net.add_lane(a, b, 2.0).unwrap(); // 100m at 2 m/s = 50 s
        net.add_lane(a, via, 20.0).unwrap(); // ~53.85m at 20 = 2.7s
        net.add_lane(via, b, 20.0).unwrap();
        let r = net.route(a, b).unwrap();
        assert_eq!(r.points().len(), 3, "should take the detour");
        assert!(r.free_flow_time() < 10.0);
    }

    #[test]
    fn lane_validation() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(Vec2::ZERO);
        let b = net.add_node(Vec2::new(1.0, 0.0));
        assert_eq!(net.add_lane(a, a, 10.0), Err(BuildRoadError::SelfLoop(a)));
        assert_eq!(
            net.add_lane(a, NodeId(9), 10.0),
            Err(BuildRoadError::UnknownNode(NodeId(9)))
        );
        assert!(matches!(
            net.add_lane(a, b, 0.0),
            Err(BuildRoadError::InvalidSpeed(_))
        ));
        assert!(matches!(
            net.add_lane(a, b, f64::NAN),
            Err(BuildRoadError::InvalidSpeed(_))
        ));
        assert!(net.add_lane(a, b, 10.0).is_ok());
    }

    #[test]
    fn route_position_interpolates_and_clamps() {
        let r = Route::from_points(
            vec![Vec2::ZERO, Vec2::new(10.0, 0.0), Vec2::new(10.0, 10.0)],
            vec![5.0, 10.0],
        );
        assert_eq!(r.length(), 20.0);
        let (p, h) = r.position_at(5.0);
        assert_eq!(p, Vec2::new(5.0, 0.0));
        assert_eq!(h, 0.0);
        let (p, h) = r.position_at(15.0);
        assert_eq!(p, Vec2::new(10.0, 5.0));
        assert!((h - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        // Clamping.
        assert_eq!(r.position_at(-3.0).0, Vec2::ZERO);
        assert_eq!(r.position_at(99.0).0, Vec2::new(10.0, 10.0));
    }

    #[test]
    fn speed_limits_per_segment() {
        let r = Route::from_points(
            vec![Vec2::ZERO, Vec2::new(10.0, 0.0), Vec2::new(20.0, 0.0)],
            vec![5.0, 10.0],
        );
        assert_eq!(r.speed_limit_at(2.0), 5.0);
        assert_eq!(r.speed_limit_at(12.0), 10.0);
        assert_eq!(r.speed_limit_at(999.0), 10.0);
        assert!((r.free_flow_time() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn exact_waypoint_lookup_is_stable() {
        let r = Route::from_points(vec![Vec2::ZERO, Vec2::new(10.0, 0.0)], vec![10.0]);
        // Hitting the cumulative values exactly must not panic or misindex.
        let (p0, _) = r.position_at(0.0);
        let (p1, _) = r.position_at(10.0);
        assert_eq!(p0, Vec2::ZERO);
        assert_eq!(p1, Vec2::new(10.0, 0.0));
    }
}
