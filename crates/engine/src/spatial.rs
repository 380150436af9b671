//! A uniform-grid spatial index with incremental position updates.
//!
//! [`SpatialGrid`] is the workspace's one spatial index. Entries are
//! keyed, so a moving fleet is never rebuilt: positions update in place
//! (an update only touches two buckets when the entry actually crosses a
//! cell border), and a range query visits only the cells overlapping the
//! query circle. That keeps radio delivery and mesh upkeep O(nearby)
//! rather than O(fleet).
//!
//! Determinism is load-bearing: buckets live in a `BTreeMap`, candidates
//! come back sorted by key, and the exact-distance filter uses the same
//! `distance(center) <= radius` float predicate the brute-force scan it
//! replaces used — so every downstream RNG draw happens for the same
//! nodes in the same order.

use airdnd_geo::Vec2;
use std::collections::BTreeMap;

/// An incremental uniform-grid index over keyed positions.
///
/// ```
/// use airdnd_engine::SpatialGrid;
/// use airdnd_geo::Vec2;
///
/// let mut grid = SpatialGrid::new(100.0);
/// grid.insert(7u64, Vec2::new(10.0, 0.0));
/// grid.insert(3u64, Vec2::new(40.0, 0.0));
/// grid.insert(9u64, Vec2::new(500.0, 0.0));
/// assert_eq!(grid.query_within(Vec2::ZERO, 100.0), vec![
///     (3, Vec2::new(40.0, 0.0)),
///     (7, Vec2::new(10.0, 0.0)),
/// ]);
/// grid.insert(9u64, Vec2::new(50.0, 0.0)); // re-insert moves the entry
/// assert_eq!(grid.query_within(Vec2::ZERO, 100.0).len(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct SpatialGrid<K> {
    cell_size: f64,
    cells: BTreeMap<(i64, i64), Vec<(K, Vec2)>>,
    /// Key → current position; the source of truth for membership.
    entries: BTreeMap<K, Vec2>,
}

impl<K: Copy + Ord> SpatialGrid<K> {
    /// Creates a grid with the given cell size (metres). Pick roughly the
    /// typical query radius; correctness does not depend on the choice,
    /// only performance.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not positive and finite.
    pub fn new(cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be positive"
        );
        SpatialGrid {
            cell_size,
            cells: BTreeMap::new(),
            entries: BTreeMap::new(),
        }
    }

    /// The configured cell size, metres.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    fn cell_of(&self, p: Vec2) -> (i64, i64) {
        (
            (p.x / self.cell_size).floor() as i64,
            (p.y / self.cell_size).floor() as i64,
        )
    }

    fn bucket_remove(&mut self, cell: (i64, i64), key: K) {
        if let Some(bucket) = self.cells.get_mut(&cell) {
            if let Some(i) = bucket.iter().position(|&(k, _)| k == key) {
                bucket.swap_remove(i);
            }
            if bucket.is_empty() {
                self.cells.remove(&cell);
            }
        }
    }

    /// Inserts `key` at `pos`, or moves it there if already present. A
    /// move that stays inside one cell updates the bucket entry in place.
    pub fn insert(&mut self, key: K, pos: Vec2) {
        let new_cell = self.cell_of(pos);
        if let Some(old_pos) = self.entries.insert(key, pos) {
            let old_cell = self.cell_of(old_pos);
            if old_cell == new_cell {
                let bucket = self.cells.get_mut(&old_cell).expect("entry has a bucket");
                let slot = bucket
                    .iter_mut()
                    .find(|(k, _)| *k == key)
                    .expect("entry in its bucket");
                slot.1 = pos;
                return;
            }
            self.bucket_remove(old_cell, key);
        }
        self.cells.entry(new_cell).or_default().push((key, pos));
    }

    /// Removes `key`, returning its last position.
    pub fn remove(&mut self, key: K) -> Option<Vec2> {
        let pos = self.entries.remove(&key)?;
        self.bucket_remove(self.cell_of(pos), key);
        Some(pos)
    }

    /// The current position of `key`.
    pub fn position(&self, key: K) -> Option<Vec2> {
        self.entries.get(&key).copied()
    }

    /// `true` if `key` is present.
    pub fn contains(&self, key: K) -> bool {
        self.entries.contains_key(&key)
    }

    /// Number of keyed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the grid holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends every entry in cells overlapping the `radius`-circle around
    /// `center` to `out` — *no* exact distance filter and *no* ordering
    /// guarantee. The building block for callers that apply their own
    /// float predicate (radio keeps its historical `distance <= r` vs
    /// `distance_sq <= r²` expressions bit-for-bit).
    pub fn candidates_into(&self, center: Vec2, radius: f64, out: &mut Vec<(K, Vec2)>) {
        if radius < 0.0 || !radius.is_finite() {
            return;
        }
        let min = self.cell_of(center - Vec2::new(radius, radius));
        let max = self.cell_of(center + Vec2::new(radius, radius));
        // A query circle much larger than the indexed extent would walk
        // empty cells; cap the walk at the occupied bounding box.
        let (lo, hi) = match self.occupied_bounds() {
            Some(b) => b,
            None => return,
        };
        let (cx0, cx1) = (min.0.max(lo.0), max.0.min(hi.0));
        let (cy0, cy1) = (min.1.max(lo.1), max.1.min(hi.1));
        if cx1 < cx0 || cy1 < cy0 {
            return; // query box disjoint from every occupied cell
        }
        let walk = (cx1 as i128 - cx0 as i128 + 1) * (cy1 as i128 - cy0 as i128 + 1);
        if walk >= self.cells.len() as i128 {
            // Denser to walk the occupied cells directly.
            for bucket in self.cells.values() {
                out.extend(bucket.iter().copied());
            }
            return;
        }
        for cx in cx0..=cx1 {
            for cy in cy0..=cy1 {
                if let Some(bucket) = self.cells.get(&(cx, cy)) {
                    out.extend(bucket.iter().copied());
                }
            }
        }
    }

    fn occupied_bounds(&self) -> Option<((i64, i64), (i64, i64))> {
        let mut it = self.cells.keys();
        let &first = it.next()?;
        let mut lo = first;
        let mut hi = first;
        for &(x, y) in it {
            lo.0 = lo.0.min(x);
            lo.1 = lo.1.min(y);
            hi.0 = hi.0.max(x);
            hi.1 = hi.1.max(y);
        }
        Some((lo, hi))
    }

    /// Every entry with `pos.distance(center) <= radius`, sorted by key.
    pub fn query_within(&self, center: Vec2, radius: f64) -> Vec<(K, Vec2)> {
        let mut out = Vec::new();
        self.candidates_into(center, radius, &mut out);
        out.retain(|&(_, p)| p.distance(center) <= radius);
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_move_remove_roundtrip() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(1u64, Vec2::new(5.0, 5.0));
        assert_eq!(g.position(1), Some(Vec2::new(5.0, 5.0)));
        // In-cell move.
        g.insert(1, Vec2::new(6.0, 6.0));
        assert_eq!(g.position(1), Some(Vec2::new(6.0, 6.0)));
        assert_eq!(g.len(), 1);
        // Cross-cell move.
        g.insert(1, Vec2::new(25.0, 25.0));
        assert_eq!(g.query_within(Vec2::new(25.0, 25.0), 1.0).len(), 1);
        assert!(g.query_within(Vec2::new(5.0, 5.0), 2.0).is_empty());
        assert_eq!(g.remove(1), Some(Vec2::new(25.0, 25.0)));
        assert!(g.is_empty());
        assert_eq!(g.remove(1), None);
    }

    #[test]
    fn query_is_key_sorted_and_radius_inclusive() {
        let mut g = SpatialGrid::new(5.0);
        g.insert(9u32, Vec2::new(3.0, 4.0)); // distance exactly 5
        g.insert(2u32, Vec2::new(0.0, 1.0));
        let hits = g.query_within(Vec2::ZERO, 5.0);
        assert_eq!(
            hits,
            vec![(2, Vec2::new(0.0, 1.0)), (9, Vec2::new(3.0, 4.0))]
        );
        assert_eq!(g.query_within(Vec2::ZERO, 4.999).len(), 1);
    }

    #[test]
    fn huge_radius_does_not_walk_empty_space() {
        let mut g = SpatialGrid::new(1.0);
        g.insert(1u64, Vec2::new(0.0, 0.0));
        g.insert(2u64, Vec2::new(1.0e6, 1.0e6));
        // A naive cell walk would visit 10^12 cells; the occupied-bounds
        // cap makes this instant.
        let hits = g.query_within(Vec2::ZERO, 5.0e6);
        assert_eq!(hits.len(), 2);
        assert!(g.query_within(Vec2::ZERO, -1.0).is_empty());
        assert!(g.query_within(Vec2::ZERO, f64::NAN).is_empty());
    }

    #[test]
    fn negative_coordinates_bucket_correctly() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(1u32, Vec2::new(-0.5, -0.5));
        g.insert(2u32, Vec2::new(0.5, 0.5));
        assert_eq!(g.query_within(Vec2::ZERO, 1.0).len(), 2);
    }
}
