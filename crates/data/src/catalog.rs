//! Per-node data catalogs and the compact summaries beaconed to the mesh.
//!
//! Every node keeps a [`DataCatalog`] of the items it currently holds,
//! each with its payload words, which offloaded tasks read in place. The
//! full catalog never leaves the node; a [`CatalogSummary`] — a few dozen
//! bytes per data type — rides inside mesh beacons so remote orchestrators
//! can shortlist candidate nodes before asking anything.

use crate::quality::QualityDescriptor;
use crate::schema::{DataQuery, DataType};
use airdnd_geo::Aabb;
use airdnd_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifies a data item within one node's catalog.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DataItemId(u64);

impl DataItemId {
    /// The raw id value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for DataItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "item#{}", self.0)
    }
}

/// One piece of data held by a node.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DataItem {
    /// Catalog-unique id.
    pub id: DataItemId,
    /// What the data is.
    pub data_type: DataType,
    /// The payload words an offloaded task reads as its input.
    pub payload: Vec<i64>,
    /// Quality attributes.
    pub quality: QualityDescriptor,
}

/// Per-type digest inside a [`CatalogSummary`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TypeDigest {
    /// Number of items of this type.
    pub count: u32,
    /// Production time of the freshest item.
    pub freshest: SimTime,
    /// Best confidence among items of this type.
    pub best_confidence: f64,
    /// Best resolution among items of this type.
    pub best_resolution: f64,
    /// Union of the coverage boxes, if any item is spatial.
    pub coverage_union: Option<Aabb>,
}

/// The compact, beacon-sized digest of a catalog.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CatalogSummary {
    digests: BTreeMap<DataType, TypeDigest>,
}

impl CatalogSummary {
    /// Digest for one data type, if the node holds any.
    pub fn digest(&self, data_type: DataType) -> Option<&TypeDigest> {
        self.digests.get(&data_type)
    }

    /// Iterates over all per-type digests.
    pub fn digests(&self) -> impl Iterator<Item = (&DataType, &TypeDigest)> {
        self.digests.iter()
    }

    /// Quick plausibility check: could this node possibly satisfy `query`?
    ///
    /// False positives are fine (the full catalog is re-checked on the
    /// node); false negatives would hide data, so only hard attributes are
    /// tested.
    pub fn may_satisfy(&self, query: &DataQuery, now: SimTime) -> bool {
        let Some(d) = self.digests.get(&query.data_type) else {
            return false;
        };
        if now.saturating_since(d.freshest) > query.requirement.max_age {
            return false;
        }
        if d.best_confidence < query.requirement.min_confidence {
            return false;
        }
        if d.best_resolution < query.requirement.min_resolution {
            return false;
        }
        if let Some(region) = &query.requirement.required_region {
            match &d.coverage_union {
                Some(cov) => {
                    if !region.intersects(cov) {
                        return false;
                    }
                }
                None => return false,
            }
        }
        true
    }

    /// Approximate wire size of this summary in bytes (for beacon sizing).
    pub fn wire_size_bytes(&self) -> u64 {
        // type tag (1) + count (4) + freshest (8) + conf/res (8) + aabb (33)
        16 + self.digests.len() as u64 * 54
    }
}

/// A node's inventory of locally held data.
///
/// The catalog is bounded: inserting beyond `capacity` evicts the oldest
/// item (by production time) first, mirroring a rolling sensor buffer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DataCatalog {
    items: Vec<DataItem>,
    capacity: usize,
    next_id: u64,
    /// Monotone mutation counter (see [`DataCatalog::version`]).
    version: u64,
}

impl DataCatalog {
    /// Creates a catalog bounded to `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "catalog capacity must be positive");
        DataCatalog {
            items: Vec::new(),
            capacity,
            next_id: 0,
            version: 0,
        }
    }

    /// Monotone change counter: bumps whenever the item set changes, so
    /// callers can cache derived views (e.g. the beacon-sized
    /// [`CatalogSummary`]) keyed on it and skip recomputation while the
    /// catalog is quiet.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of items currently held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the catalog holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Adds an item with its payload, evicting the oldest item (and its
    /// payload) if full. Returns the assigned id.
    pub fn insert(
        &mut self,
        data_type: DataType,
        payload: Vec<i64>,
        quality: QualityDescriptor,
    ) -> DataItemId {
        if self.items.len() >= self.capacity {
            let oldest = self
                .items
                .iter()
                .enumerate()
                .min_by_key(|(_, item)| item.quality.produced_at)
                .map(|(i, _)| i)
                .expect("catalog is non-empty when full");
            self.items.swap_remove(oldest);
        }
        let id = DataItemId(self.next_id);
        self.next_id += 1;
        self.version += 1;
        self.items.push(DataItem {
            id,
            data_type,
            payload,
            quality,
        });
        id
    }

    /// All items satisfying `query` at `now`, best match-score first.
    pub fn find(&self, query: &DataQuery, now: SimTime) -> Vec<&DataItem> {
        let mut hits: Vec<(&DataItem, f64)> = self
            .items
            .iter()
            .filter(|item| item.data_type == query.data_type)
            .filter_map(|item| {
                let s = query.requirement.score(&item.quality, now);
                (s > 0.0).then_some((item, s))
            })
            .collect();
        hits.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("scores are finite")
                .then(a.0.id.cmp(&b.0.id))
        });
        hits.into_iter().map(|(item, _)| item).collect()
    }

    /// Iterates over all items.
    pub fn iter(&self) -> impl Iterator<Item = &DataItem> {
        self.items.iter()
    }

    /// Builds the beacon-sized summary of this catalog.
    pub fn summarize(&self) -> CatalogSummary {
        let mut digests: BTreeMap<DataType, TypeDigest> = BTreeMap::new();
        for item in &self.items {
            let d = digests.entry(item.data_type).or_insert(TypeDigest {
                count: 0,
                freshest: SimTime::ZERO,
                best_confidence: 0.0,
                best_resolution: 0.0,
                coverage_union: None,
            });
            d.count += 1;
            d.freshest = d.freshest.max(item.quality.produced_at);
            d.best_confidence = d.best_confidence.max(item.quality.confidence);
            d.best_resolution = d.best_resolution.max(item.quality.resolution);
            if let Some(cov) = item.quality.coverage {
                d.coverage_union = Some(match d.coverage_union {
                    Some(u) => Aabb::new(u.min().min(cov.min()), u.max().max(cov.max())),
                    None => cov,
                });
            }
        }
        CatalogSummary { digests }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airdnd_geo::Vec2;
    use airdnd_sim::SimDuration;

    fn quality_at(t: u64) -> QualityDescriptor {
        QualityDescriptor::basic(SimTime::from_secs(t), 0.9, 2.0)
    }

    #[test]
    fn insert_find_round_trip() {
        let mut cat = DataCatalog::new(10);
        let id = cat.insert(DataType::DetectionList, vec![4, 2], quality_at(5));
        assert_eq!(cat.len(), 1);
        let hits = cat.find(
            &DataQuery::of_type(DataType::DetectionList),
            SimTime::from_secs(6),
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, id);
        assert_eq!(hits[0].payload, vec![4, 2]);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut cat = DataCatalog::new(3);
        cat.insert(DataType::DetectionList, vec![], quality_at(10));
        cat.insert(DataType::DetectionList, vec![], quality_at(5)); // oldest
        cat.insert(DataType::DetectionList, vec![], quality_at(20));
        cat.insert(DataType::DetectionList, vec![], quality_at(30)); // evicts t=5
        assert_eq!(cat.len(), 3);
        let oldest = cat.iter().map(|i| i.quality.produced_at).min().unwrap();
        assert_eq!(oldest, SimTime::from_secs(10));
    }

    /// A full catalog evicts its oldest item, payload and all: each insert
    /// into it drops exactly the item produced first.
    #[test]
    fn eviction_drops_the_oldest_payload() {
        let held = |cat: &DataCatalog| {
            let mut items: Vec<(SimTime, Vec<i64>)> = cat
                .iter()
                .map(|i| (i.quality.produced_at, i.payload.clone()))
                .collect();
            items.sort_unstable();
            items
        };
        let mut cat = DataCatalog::new(4);
        for k in 0..12u64 {
            // Out of production order, so the oldest item is not simply
            // the first one inserted.
            let at = (k * 5) % 12;
            let mut expected = held(&cat);
            if expected.len() == 4 {
                expected.remove(0);
            }
            expected.push((SimTime::from_secs(at), vec![at as i64; 2]));
            expected.sort_unstable();
            cat.insert(DataType::OccupancyGrid, vec![at as i64; 2], quality_at(at));
            assert_eq!(held(&cat), expected, "insert {k}");
        }
    }

    #[test]
    fn ids_stay_unique_across_eviction() {
        let mut cat = DataCatalog::new(2);
        let a = cat.insert(DataType::TrackList, vec![], quality_at(1));
        let b = cat.insert(DataType::TrackList, vec![], quality_at(2));
        let c = cat.insert(DataType::TrackList, vec![], quality_at(3));
        let held: Vec<DataItemId> = cat.iter().map(|i| i.id).collect();
        assert!(!held.contains(&a), "the oldest item is evicted");
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn find_orders_by_score_and_filters_type() {
        let now = SimTime::from_secs(10);
        let mut cat = DataCatalog::new(10);
        cat.insert(DataType::DetectionList, vec![], quality_at(3)); // older
        let fresh_id = cat.insert(DataType::DetectionList, vec![], quality_at(9));
        cat.insert(DataType::OccupancyGrid, vec![], quality_at(9)); // other type
        let hits = cat.find(&DataQuery::of_type(DataType::DetectionList), now);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, fresh_id, "freshest first");
    }

    #[test]
    fn summary_digests_per_type() {
        let mut cat = DataCatalog::new(10);
        let mut q = quality_at(4);
        q.coverage = Some(Aabb::from_center_size(Vec2::ZERO, 50.0, 50.0));
        cat.insert(DataType::OccupancyGrid, vec![], q);
        let mut q2 = quality_at(7);
        q2.confidence = 0.99;
        q2.coverage = Some(Aabb::from_center_size(Vec2::new(100.0, 0.0), 50.0, 50.0));
        cat.insert(DataType::OccupancyGrid, vec![], q2);
        let s = cat.summarize();
        let d = s.digest(DataType::OccupancyGrid).unwrap();
        assert_eq!(d.count, 2);
        assert_eq!(d.freshest, SimTime::from_secs(7));
        assert_eq!(d.best_confidence, 0.99);
        let u = d.coverage_union.unwrap();
        assert!(u.contains(Vec2::new(-20.0, 0.0)) && u.contains(Vec2::new(120.0, 0.0)));
        assert!(s.digest(DataType::TrackList).is_none());
    }

    #[test]
    fn may_satisfy_respects_hard_attributes() {
        let now = SimTime::from_secs(20);
        let mut cat = DataCatalog::new(10);
        cat.insert(DataType::DetectionList, vec![], quality_at(19));
        let s = cat.summarize();
        assert!(s.may_satisfy(&DataQuery::of_type(DataType::DetectionList), now));
        assert!(!s.may_satisfy(&DataQuery::of_type(DataType::TrackList), now));
        let mut strict = DataQuery::of_type(DataType::DetectionList);
        strict.requirement.min_confidence = 0.99;
        assert!(!s.may_satisfy(&strict, now));
        let mut stale = DataQuery::of_type(DataType::DetectionList);
        stale.requirement.max_age = SimDuration::from_millis(1);
        assert!(!stale.may_satisfy_helper(&s, now));
    }

    // Small helper so the test above reads naturally in both directions.
    trait MaySatisfyHelper {
        fn may_satisfy_helper(&self, s: &CatalogSummary, now: SimTime) -> bool;
    }
    impl MaySatisfyHelper for DataQuery {
        fn may_satisfy_helper(&self, s: &CatalogSummary, now: SimTime) -> bool {
            s.may_satisfy(self, now)
        }
    }

    #[test]
    fn may_satisfy_region_check() {
        let now = SimTime::from_secs(5);
        let mut cat = DataCatalog::new(10);
        let mut q = quality_at(4);
        q.coverage = Some(Aabb::from_center_size(Vec2::ZERO, 50.0, 50.0));
        cat.insert(DataType::OccupancyGrid, vec![], q);
        let s = cat.summarize();
        let mut query = DataQuery::of_type(DataType::OccupancyGrid);
        query.requirement.required_region =
            Some(Aabb::from_center_size(Vec2::new(500.0, 0.0), 10.0, 10.0));
        assert!(!s.may_satisfy(&query, now));
        query.requirement.required_region =
            Some(Aabb::from_center_size(Vec2::new(10.0, 0.0), 10.0, 10.0));
        assert!(s.may_satisfy(&query, now));
    }

    #[test]
    fn wire_size_tracks_type_count() {
        let mut cat = DataCatalog::new(10);
        let empty = cat.summarize().wire_size_bytes();
        cat.insert(DataType::DetectionList, vec![], quality_at(0));
        cat.insert(DataType::OccupancyGrid, vec![], quality_at(0));
        let two = cat.summarize().wire_size_bytes();
        assert!(two > empty);
        assert!(two < 1_000, "summaries must stay beacon-sized");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = DataCatalog::new(0);
    }
}
