//! Obstacles and line-of-sight: why anyone needs to look around a corner.
//!
//! Buildings are modelled as axis-aligned boxes ([`Aabb`]). A [`World`]
//! holds the obstacle set and answers line-of-sight queries with a
//! slab-method segment/box intersection test. The canonical evaluation
//! world — four buildings hugging the corners of an intersection — is built
//! by [`World::corner_buildings`].

use crate::vec2::Vec2;
use serde::{Deserialize, Serialize};

/// An axis-aligned bounding box.
///
/// ```
/// use airdnd_geo::{Aabb, Vec2};
/// let b = Aabb::from_center_size(Vec2::ZERO, 10.0, 4.0);
/// assert!(b.contains(Vec2::new(4.9, 1.9)));
/// assert!(!b.contains(Vec2::new(5.1, 0.0)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    min: Vec2,
    max: Vec2,
}

impl Aabb {
    /// Creates a box from two opposite corners (in any order).
    pub fn new(a: Vec2, b: Vec2) -> Self {
        Aabb {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// Creates a box centred at `center` with the given width and height.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is negative.
    pub fn from_center_size(center: Vec2, width: f64, height: f64) -> Self {
        assert!(
            width >= 0.0 && height >= 0.0,
            "box dimensions must be non-negative"
        );
        let half = Vec2::new(width / 2.0, height / 2.0);
        Aabb {
            min: center - half,
            max: center + half,
        }
    }

    /// The minimum corner.
    pub fn min(&self) -> Vec2 {
        self.min
    }

    /// The maximum corner.
    pub fn max(&self) -> Vec2 {
        self.max
    }

    /// The centre point.
    pub fn center(&self) -> Vec2 {
        (self.min + self.max) * 0.5
    }

    /// Width along x.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area in square metres.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// `true` if `p` lies inside or on the boundary.
    pub fn contains(&self, p: Vec2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Grows the box by `margin` on every side.
    pub fn expanded(&self, margin: f64) -> Aabb {
        let m = Vec2::new(margin, margin);
        Aabb::new(self.min - m, self.max + m)
    }

    /// `true` if the two boxes overlap (including edge contact).
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
    }

    /// `true` if the segment `a`–`b` touches the box (slab method).
    pub fn intersects_segment(&self, a: Vec2, b: Vec2) -> bool {
        // Degenerate segment: a point.
        let d = b - a;
        if d.norm_sq() < 1e-24 {
            return self.contains(a);
        }
        let mut t_min: f64 = 0.0;
        let mut t_max: f64 = 1.0;
        for (origin, dir, lo, hi) in [
            (a.x, d.x, self.min.x, self.max.x),
            (a.y, d.y, self.min.y, self.max.y),
        ] {
            if dir.abs() < 1e-15 {
                if origin < lo || origin > hi {
                    return false;
                }
            } else {
                let inv = 1.0 / dir;
                let (mut t0, mut t1) = ((lo - origin) * inv, (hi - origin) * inv);
                if t0 > t1 {
                    std::mem::swap(&mut t0, &mut t1);
                }
                t_min = t_min.max(t0);
                t_max = t_max.min(t1);
                if t_min > t_max {
                    return false;
                }
            }
        }
        true
    }
}

/// A physical obstacle that blocks line of sight (and radio, depending on
/// the channel model).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Obstacle {
    /// A rectangular building footprint.
    Rect(Aabb),
}

impl Obstacle {
    /// `true` if the segment `a`–`b` is blocked by this obstacle.
    pub fn blocks(&self, a: Vec2, b: Vec2) -> bool {
        match self {
            Obstacle::Rect(r) => r.intersects_segment(a, b),
        }
    }

    /// The obstacle's bounding box.
    pub fn bounds(&self) -> Aabb {
        match self {
            Obstacle::Rect(r) => *r,
        }
    }
}

/// A static world: obstacles plus an optional overall boundary.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct World {
    obstacles: Vec<Obstacle>,
    bounds: Option<Aabb>,
}

impl World {
    /// An empty, unbounded world with free line of sight everywhere.
    pub fn new() -> Self {
        Self::default()
    }

    /// The four-corner-building world for "looking around the corner":
    /// square buildings of side `size`, set back `setback` metres from each
    /// road centreline of a four-way intersection at the origin.
    pub fn corner_buildings(setback: f64, size: f64) -> Self {
        let mut world = World::new();
        for (sx, sy) in [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)] {
            let near = setback;
            let center = Vec2::new(sx * (near + size / 2.0), sy * (near + size / 2.0));
            world.add_obstacle(Obstacle::Rect(Aabb::from_center_size(center, size, size)));
        }
        world
    }

    /// Adds an obstacle.
    pub fn add_obstacle(&mut self, obstacle: Obstacle) {
        self.obstacles.push(obstacle);
    }

    /// Sets the outer boundary (informational; used by mobility models).
    pub fn set_bounds(&mut self, bounds: Aabb) {
        self.bounds = Some(bounds);
    }

    /// The outer boundary, if set.
    pub fn bounds(&self) -> Option<Aabb> {
        self.bounds
    }

    /// The obstacles in insertion order.
    pub fn obstacles(&self) -> &[Obstacle] {
        &self.obstacles
    }

    /// `true` if nothing blocks the straight segment from `a` to `b`.
    pub fn line_of_sight(&self, a: Vec2, b: Vec2) -> bool {
        self.obstacles.iter().all(|o| !o.blocks(a, b))
    }

    /// Number of obstacles.
    pub fn obstacle_count(&self) -> usize {
        self.obstacles.len()
    }

    /// `true` if `p` is inside any obstacle (e.g. to reject spawn points).
    pub fn is_inside_obstacle(&self, p: Vec2) -> bool {
        self.obstacles.iter().any(|o| o.bounds().contains(p))
    }
}

/// A uniform-grid index over a [`World`]'s obstacles that answers
/// line-of-sight queries in O(nearby obstacles) instead of O(all
/// obstacles).
///
/// [`World::line_of_sight`] scans every obstacle per query. That is fine
/// for a single intersection's four buildings, but a composite city
/// carries one obstacle set per district and the radio medium issues a
/// line-of-sight test per broadcast candidate per beacon — a hot path
/// that turns O(fleet × obstacles) per tick. The index buckets obstacle
/// bounding boxes into square cells; a query visits only the cells
/// overlapped by the segment's bounding box.
///
/// Layout: a dense row-major grid over the cells the obstacles cover, in
/// compressed sparse rows — `ids[starts[c]..starts[c + 1]]` are the
/// obstacles overlapping cell `c` — with the obstacles' boxes beside
/// them. No cell lookup hashes. Queries clamp their cell range to the
/// grid, since no obstacle lies outside it. The cell size doubles from
/// the requested one until the grid has at most 2¹⁶ cells, which bounds
/// the memory of sparse worlds. Each query prepares its segment once
/// (direction, reciprocals, degenerate flags) and reuses it for every box
/// it tests, with the float operations of [`Aabb::intersects_segment`].
///
/// The answer is exactly [`World::line_of_sight`]'s, at any cell size: a
/// segment intersecting an obstacle implies overlapping bounding boxes,
/// so the obstacle is registered in at least one visited cell. The index
/// copies the obstacles it was built from and is immutable — rebuild it
/// if the world changes.
#[derive(Clone, Debug)]
pub struct ObstacleIndex {
    cell: f64,
    /// Inclusive cell-coordinate range of the grid; empty (`lo > hi`)
    /// when there are no obstacles.
    lo: (i64, i64),
    hi: (i64, i64),
    /// Grid width in cells.
    cols: usize,
    starts: Vec<usize>,
    ids: Vec<u32>,
    boxes: Vec<Aabb>,
}

impl ObstacleIndex {
    /// Default cell size, metres: a few building footprints per cell at
    /// urban scale, a handful of cells per radio-range query.
    pub const DEFAULT_CELL_M: f64 = 200.0;

    /// Largest number of grid cells; the cell size doubles until the
    /// obstacles' extent fits.
    const MAX_CELLS: u64 = 1 << 16;

    /// Builds the index from `world`'s current obstacles.
    pub fn new(world: &World) -> Self {
        Self::with_cell(world, Self::DEFAULT_CELL_M)
    }

    /// Builds the index with an explicit cell size, doubled until the
    /// grid has at most 2¹⁶ cells.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not positive and finite.
    pub fn with_cell(world: &World, cell: f64) -> Self {
        assert!(cell.is_finite() && cell > 0.0, "cell must be positive");
        let boxes: Vec<Aabb> = world.obstacles().iter().map(Obstacle::bounds).collect();
        let Some(first) = boxes.first() else {
            return ObstacleIndex {
                cell,
                lo: (0, 0),
                hi: (-1, -1),
                cols: 0,
                starts: vec![0],
                ids: Vec::new(),
                boxes,
            };
        };
        let (min, max) = boxes
            .iter()
            .fold((first.min(), first.max()), |(lo, hi), b| {
                (lo.min(b.min()), hi.max(b.max()))
            });
        let mut cell = cell;
        let (lo, hi, cols, rows) = loop {
            let (lo, hi) = (Self::cell_of(min, cell), Self::cell_of(max, cell));
            let cols = hi.0.abs_diff(lo.0).saturating_add(1);
            let rows = hi.1.abs_diff(lo.1).saturating_add(1);
            if cols.saturating_mul(rows) <= Self::MAX_CELLS {
                break (lo, hi, cols as usize, rows as usize);
            }
            cell *= 2.0;
        };
        // Each box's clamped, grid-local cell range.
        let local = |b: &Aabb| {
            let (x0, y0) = Self::cell_of(b.min(), cell);
            let (x1, y1) = Self::cell_of(b.max(), cell);
            let col = |x: i64| (x.clamp(lo.0, hi.0) - lo.0) as usize;
            let row = |y: i64| (y.clamp(lo.1, hi.1) - lo.1) as usize;
            (col(x0)..=col(x1), row(y0)..=row(y1))
        };
        let mut counts = vec![0usize; cols * rows + 1];
        for b in &boxes {
            let (xs, ys) = local(b);
            for y in ys {
                for x in xs.clone() {
                    counts[y * cols + x + 1] += 1;
                }
            }
        }
        for c in 1..counts.len() {
            counts[c] += counts[c - 1];
        }
        let starts = counts;
        let mut fill = starts.clone();
        let mut ids = vec![0u32; starts[cols * rows]];
        for (i, b) in boxes.iter().enumerate() {
            let (xs, ys) = local(b);
            for y in ys {
                for x in xs.clone() {
                    let slot = &mut fill[y * cols + x];
                    ids[*slot] = u32::try_from(i).expect("fewer than 2^32 obstacles");
                    *slot += 1;
                }
            }
        }
        ObstacleIndex {
            cell,
            lo,
            hi,
            cols,
            starts,
            ids,
            boxes,
        }
    }

    fn cell_of(p: Vec2, cell: f64) -> (i64, i64) {
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
    }

    /// `true` if nothing blocks the straight segment from `a` to `b` —
    /// bit-for-bit the answer [`World::line_of_sight`] gives on the world
    /// this index was built from.
    pub fn line_of_sight(&self, a: Vec2, b: Vec2) -> bool {
        let (x0, y0) = Self::cell_of(a.min(b), self.cell);
        let (x1, y1) = Self::cell_of(a.max(b), self.cell);
        let (x0, x1) = (x0.max(self.lo.0), x1.min(self.hi.0));
        let (y0, y1) = (y0.max(self.lo.1), y1.min(self.hi.1));
        if x0 > x1 || y0 > y1 {
            return true;
        }
        let segment = Segment::new(a, b);
        // An obstacle spanning several visited cells is tested once per
        // cell; the duplicate tests are boolean-idempotent and cheaper
        // than deduplication at the query sizes (radio/sensor range)
        // this serves.
        for y in y0..=y1 {
            let row = (y - self.lo.1) as usize * self.cols;
            let first = row + (x0 - self.lo.0) as usize;
            let last = row + (x1 - self.lo.0) as usize;
            let ids = &self.ids[self.starts[first]..self.starts[last + 1]];
            if ids.iter().any(|&i| segment.hits(&self.boxes[i as usize])) {
                return false;
            }
        }
        true
    }

    /// Number of obstacles indexed.
    pub fn obstacle_count(&self) -> usize {
        self.boxes.len()
    }
}

/// A segment prepared for repeated slab tests: the direction's
/// reciprocals and the degenerate flags of [`Aabb::intersects_segment`],
/// computed once per query instead of once per box.
#[derive(Clone, Copy, Debug)]
struct Segment {
    a: Vec2,
    /// `1 / (b − a)` per axis; unused on a flat axis.
    inv: Vec2,
    /// Per axis, `|b − a| < 1e-15`: the segment runs parallel to it.
    flat: (bool, bool),
    /// `|b − a|² < 1e-24`: the segment is the point `a`.
    point: bool,
}

impl Segment {
    fn new(a: Vec2, b: Vec2) -> Self {
        let d = b - a;
        Segment {
            a,
            inv: Vec2::new(1.0 / d.x, 1.0 / d.y),
            flat: (d.x.abs() < 1e-15, d.y.abs() < 1e-15),
            point: d.norm_sq() < 1e-24,
        }
    }

    /// Exactly `r.intersects_segment(a, b)`.
    fn hits(&self, r: &Aabb) -> bool {
        if self.point {
            return r.contains(self.a);
        }
        let mut t_min: f64 = 0.0;
        let mut t_max: f64 = 1.0;
        for (origin, flat, inv, lo, hi) in [
            (self.a.x, self.flat.0, self.inv.x, r.min.x, r.max.x),
            (self.a.y, self.flat.1, self.inv.y, r.min.y, r.max.y),
        ] {
            if flat {
                if origin < lo || origin > hi {
                    return false;
                }
            } else {
                let (mut t0, mut t1) = ((lo - origin) * inv, (hi - origin) * inv);
                if t0 > t1 {
                    std::mem::swap(&mut t0, &mut t1);
                }
                t_min = t_min.max(t0);
                t_max = t_max.min(t1);
                if t_min > t_max {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The index answers exactly what the linear scan answers: across a
    /// city-sized obstacle field and segments from sub-cell to
    /// multi-kilometre, including segments far outside the field and
    /// wholly outside the grid; on a sparse world whose 2¹⁶-cell bound
    /// grows the cell; and on the empty world.
    #[test]
    fn obstacle_index_matches_linear_scan() {
        // A deterministic scatter (LCG; geo has no RNG dependency).
        let mut state = 0x9E37_79B9_97F4_A7C5u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut city = World::new();
        for _ in 0..400 {
            let c = Vec2::new(next() * 10_000.0 - 5_000.0, next() * 10_000.0 - 5_000.0);
            let (w, h) = (10.0 + next() * 120.0, 10.0 + next() * 120.0);
            city.add_obstacle(Obstacle::Rect(Aabb::from_center_size(c, w, h)));
        }
        // Two buildings 1.4 × 10⁶ m apart: 200 m cells would need 5000²
        // of them.
        let far = Vec2::new(1e6, 1e6);
        let mut sparse = World::new();
        for c in [Vec2::ZERO, far] {
            sparse.add_obstacle(Obstacle::Rect(Aabb::from_center_size(c, 80.0, 50.0)));
        }
        let cases = [
            (&city, 50.0),
            (&city, ObstacleIndex::DEFAULT_CELL_M),
            (&city, 1_500.0),
            (&sparse, ObstacleIndex::DEFAULT_CELL_M),
            (&World::new(), ObstacleIndex::DEFAULT_CELL_M),
        ];
        for (world, cell) in cases {
            let idx = ObstacleIndex::with_cell(world, cell);
            assert_eq!(idx.obstacle_count(), world.obstacle_count());
            assert!(idx.starts.len() as u64 <= ObstacleIndex::MAX_CELLS + 1);
            let around = world
                .obstacles()
                .first()
                .map_or(Vec2::ZERO, |o| o.bounds().center());
            let mut blocked = 0;
            for k in 0..6_000 {
                let a = match k % 3 {
                    // Inside and around the field.
                    0 => Vec2::new(next() * 16_000.0 - 8_000.0, next() * 16_000.0 - 8_000.0),
                    // Near the field's (or sparse world's) first building.
                    1 => around + Vec2::new(next() * 600.0 - 300.0, next() * 600.0 - 300.0),
                    // Wholly outside the grid's extent, on every side.
                    _ => Vec2::new(next() * 4e6 - 2e6, next() * 4e6 - 2e6),
                };
                let reach = if k % 3 == 2 {
                    next() * 1e5
                } else {
                    next() * 3_000.0
                };
                let angle = next() * std::f64::consts::TAU;
                let b = a + Vec2::new(angle.cos(), angle.sin()) * reach;
                let expect = world.line_of_sight(a, b);
                assert_eq!(idx.line_of_sight(a, b), expect, "{a:?} -> {b:?} @ {cell}");
                blocked += usize::from(!expect);
            }
            if world.obstacle_count() > 0 {
                assert!(
                    blocked > 100,
                    "degenerate sample: {blocked} blocked @ {cell}"
                );
            }
        }
        let sparse_idx = ObstacleIndex::new(&sparse);
        assert!(sparse_idx.cell > ObstacleIndex::DEFAULT_CELL_M);
        assert!(!sparse_idx.line_of_sight(Vec2::new(-100.0, 0.0), far));
    }

    proptest::proptest! {
        /// The prepared segment's slab test is `Aabb::intersects_segment`
        /// on general, axis-parallel (`d.x == 0`, `0 < |d.x| < 1e-15`),
        /// edge-grazing, near-degenerate and degenerate (`a == b`)
        /// segments.
        #[test]
        fn prepared_segment_matches_intersects_segment(
            c in (-100.0f64..100.0, -100.0f64..100.0),
            size in (0.0f64..60.0, 0.0f64..60.0),
            a in (-150.0f64..150.0, -150.0f64..150.0),
            b in (-150.0f64..150.0, -150.0f64..150.0),
        ) {
            let r = Aabb::from_center_size(Vec2::new(c.0, c.1), size.0, size.1);
            let (a, b) = (Vec2::new(a.0, a.1), Vec2::new(b.0, b.1));
            // Coordinates near 0, whose neighbouring floats lie under
            // 1e-15 away.
            let (ax, ay) = (Vec2::new(a.x * 1e-3, a.y), Vec2::new(a.x, a.y * 1e-3));
            for (p, q) in [
                (a, b),
                (a, Vec2::new(a.x, b.y)),
                (a, Vec2::new(b.x, a.y)),
                (ax, Vec2::new(ax.x.next_up(), b.y)),
                (ay, Vec2::new(b.x, ay.y.next_down())),
                (r.min(), Vec2::new(r.min().x, b.y)),
                (r.min(), r.max()),
                (a, a + Vec2::new(3e-13, -2e-13)),
                (a, a),
                (r.center(), r.center()),
            ] {
                proptest::prop_assert_eq!(
                    Segment::new(p, q).hits(&r),
                    r.intersects_segment(p, q),
                    "{:?} -> {:?} vs {:?}", p, q, r
                );
            }
        }
    }

    #[test]
    fn obstacle_index_on_empty_world_is_all_clear() {
        let idx = ObstacleIndex::new(&World::new());
        assert!(idx.line_of_sight(Vec2::ZERO, Vec2::new(1e6, -1e6)));
    }

    #[test]
    fn aabb_normalizes_corners() {
        let b = Aabb::new(Vec2::new(5.0, -1.0), Vec2::new(-5.0, 1.0));
        assert_eq!(b.min(), Vec2::new(-5.0, -1.0));
        assert_eq!(b.max(), Vec2::new(5.0, 1.0));
        assert_eq!(b.center(), Vec2::ZERO);
        assert_eq!(b.width(), 10.0);
        assert_eq!(b.height(), 2.0);
        assert_eq!(b.area(), 20.0);
    }

    #[test]
    fn segment_misses_box() {
        let b = Aabb::from_center_size(Vec2::ZERO, 2.0, 2.0);
        assert!(!b.intersects_segment(Vec2::new(-5.0, 5.0), Vec2::new(5.0, 5.0)));
        assert!(!b.intersects_segment(Vec2::new(2.0, 2.0), Vec2::new(5.0, 2.0)));
    }

    #[test]
    fn segment_crosses_box() {
        let b = Aabb::from_center_size(Vec2::ZERO, 2.0, 2.0);
        assert!(b.intersects_segment(Vec2::new(-5.0, 0.0), Vec2::new(5.0, 0.0)));
        assert!(
            b.intersects_segment(Vec2::new(-2.0, -2.0), Vec2::new(2.0, 2.0)),
            "diagonal"
        );
        // Endpoint inside.
        assert!(b.intersects_segment(Vec2::ZERO, Vec2::new(9.0, 9.0)));
        // Fully inside.
        assert!(b.intersects_segment(Vec2::new(-0.5, 0.0), Vec2::new(0.5, 0.0)));
    }

    #[test]
    fn vertical_and_horizontal_segments() {
        let b = Aabb::new(Vec2::new(1.0, 1.0), Vec2::new(3.0, 3.0));
        assert!(b.intersects_segment(Vec2::new(2.0, 0.0), Vec2::new(2.0, 4.0)));
        assert!(!b.intersects_segment(Vec2::new(0.5, 0.0), Vec2::new(0.5, 4.0)));
        assert!(b.intersects_segment(Vec2::new(0.0, 2.0), Vec2::new(4.0, 2.0)));
    }

    #[test]
    fn degenerate_point_segment() {
        let b = Aabb::from_center_size(Vec2::ZERO, 2.0, 2.0);
        assert!(b.intersects_segment(Vec2::ZERO, Vec2::ZERO));
        assert!(!b.intersects_segment(Vec2::new(9.0, 9.0), Vec2::new(9.0, 9.0)));
    }

    #[test]
    fn box_box_intersection() {
        let a = Aabb::from_center_size(Vec2::ZERO, 2.0, 2.0);
        let b = Aabb::from_center_size(Vec2::new(1.5, 0.0), 2.0, 2.0);
        let c = Aabb::from_center_size(Vec2::new(5.0, 0.0), 2.0, 2.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn corner_buildings_block_the_corner() {
        let world = World::corner_buildings(10.0, 30.0);
        assert_eq!(world.obstacle_count(), 4);
        // Two vehicles on perpendicular arms, both 50 m from the centre:
        // the corner building sits between them.
        let south = Vec2::new(0.0, -50.0);
        let east = Vec2::new(50.0, 0.0);
        assert!(!world.line_of_sight(south, east), "corner must occlude");
        // Straight across the intersection stays clear (road is open).
        let north = Vec2::new(0.0, 50.0);
        assert!(world.line_of_sight(south, north));
        // Close to the centre both see each other past the setback.
        assert!(world.line_of_sight(Vec2::new(0.0, -5.0), Vec2::new(5.0, 0.0)));
    }

    #[test]
    fn inside_obstacle_check() {
        let world = World::corner_buildings(10.0, 30.0);
        assert!(world.is_inside_obstacle(Vec2::new(25.0, 25.0)));
        assert!(!world.is_inside_obstacle(Vec2::ZERO));
    }

    #[test]
    fn empty_world_has_free_sight() {
        let world = World::new();
        assert!(world.line_of_sight(Vec2::new(-100.0, -100.0), Vec2::new(100.0, 100.0)));
        assert_eq!(world.bounds(), None);
    }

    #[test]
    fn expanded_grows_every_side() {
        let b = Aabb::from_center_size(Vec2::ZERO, 2.0, 2.0).expanded(1.0);
        assert_eq!(b.min(), Vec2::new(-2.0, -2.0));
        assert_eq!(b.max(), Vec2::new(2.0, 2.0));
    }
}
