//! Query-against-catalog matching used by node selection.
//!
//! [`match_score`] answers "how well could this node's data serve this
//! task?" as a single `[0, 1]` figure; [`best_match`] picks the concrete
//! item a task execution would read. Both operate on full catalogs — the
//! beacon-level prefilter is [`crate::CatalogSummary::may_satisfy`].

use crate::catalog::{DataCatalog, DataItem};
use crate::schema::DataQuery;
use airdnd_sim::SimTime;

/// The best item in `catalog` for `query` at `now`, with its score.
///
/// Ties resolve to the lowest item id, keeping results deterministic.
pub fn best_match<'a>(
    catalog: &'a DataCatalog,
    query: &DataQuery,
    now: SimTime,
) -> Option<(&'a DataItem, f64)> {
    catalog
        .iter()
        .filter(|item| item.data_type == query.data_type)
        .filter_map(|item| {
            let s = query.requirement.score(&item.quality, now);
            (s > 0.0).then_some((item, s))
        })
        .max_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("scores are finite")
                .then(b.0.id.cmp(&a.0.id))
        })
}

/// How well `catalog` can serve *all* of `queries`: the geometric mean of
/// the best per-query scores, or 0.0 if any query has no match.
///
/// The geometric mean keeps one unsatisfiable input from being papered
/// over by excellent matches elsewhere — a task needs every input.
pub fn match_score(catalog: &DataCatalog, queries: &[DataQuery], now: SimTime) -> f64 {
    if queries.is_empty() {
        return 1.0;
    }
    let mut log_sum = 0.0;
    for query in queries {
        match best_match(catalog, query, now) {
            Some((_, s)) if s > 0.0 => log_sum += s.ln(),
            _ => return 0.0,
        }
    }
    (log_sum / queries.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::QualityDescriptor;
    use crate::schema::DataType;

    fn catalog_with_ages(ages: &[u64]) -> DataCatalog {
        let mut cat = DataCatalog::new(16);
        for &t in ages {
            cat.insert(
                DataType::DetectionList,
                vec![],
                QualityDescriptor::basic(SimTime::from_secs(t), 0.9, 2.0),
            );
        }
        cat
    }

    #[test]
    fn best_match_picks_freshest() {
        let cat = catalog_with_ages(&[2, 8, 5]);
        let now = SimTime::from_secs(9);
        let (item, score) =
            best_match(&cat, &DataQuery::of_type(DataType::DetectionList), now).unwrap();
        assert_eq!(item.quality.produced_at, SimTime::from_secs(8));
        assert!(score > 0.0);
    }

    #[test]
    fn best_match_none_for_missing_type() {
        let cat = catalog_with_ages(&[2]);
        assert!(best_match(
            &cat,
            &DataQuery::of_type(DataType::TrackList),
            SimTime::from_secs(3)
        )
        .is_none());
    }

    #[test]
    fn match_score_requires_every_query() {
        let cat = catalog_with_ages(&[8]);
        let now = SimTime::from_secs(9);
        let q_ok = DataQuery::of_type(DataType::DetectionList);
        let q_missing = DataQuery::of_type(DataType::OccupancyGrid);
        assert!(match_score(&cat, std::slice::from_ref(&q_ok), now) > 0.0);
        assert_eq!(match_score(&cat, &[q_ok, q_missing], now), 0.0);
    }

    #[test]
    fn empty_query_list_is_trivially_satisfied() {
        let cat = catalog_with_ages(&[]);
        assert_eq!(match_score(&cat, &[], SimTime::ZERO), 1.0);
    }

    #[test]
    fn match_score_is_geometric_mean() {
        let cat = catalog_with_ages(&[8]);
        let now = SimTime::from_secs(9);
        let q = DataQuery::of_type(DataType::DetectionList);
        let single = match_score(&cat, std::slice::from_ref(&q), now);
        let double = match_score(&cat, &[q.clone(), q], now);
        assert!(
            (single - double).abs() < 1e-12,
            "same query twice = same mean"
        );
    }

    #[test]
    fn deterministic_tie_break() {
        // Two identical items: the earlier id must win, repeatably.
        let mut cat = DataCatalog::new(4);
        let q = QualityDescriptor::basic(SimTime::from_secs(1), 0.9, 2.0);
        let first = cat.insert(DataType::DetectionList, vec![], q);
        cat.insert(DataType::DetectionList, vec![], q);
        let now = SimTime::from_secs(2);
        let (item, _) =
            best_match(&cat, &DataQuery::of_type(DataType::DetectionList), now).unwrap();
        assert_eq!(item.id, first);
    }
}
