//! Per-cell statistics across seed replicates.

use crate::manifest::Manifest;
use airdnd_sim::stats::percentile_of_sorted;
use serde::Serialize;

/// Two-sided 95 % Student-t critical values for small samples, indexed by
/// degrees of freedom 1..=30; larger samples use the normal 1.96.
const T_95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// Summary statistics over one metric's replicate samples.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Aggregate {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 when n < 2).
    pub stddev: f64,
    /// Median (linear interpolation between order statistics).
    pub p50: f64,
    /// 95th percentile (linear interpolation).
    pub p95: f64,
    /// Half-width of the 95 % confidence interval on the mean
    /// (Student-t for n ≤ 31, normal beyond; 0 when n < 2).
    pub ci95: f64,
}

impl Aggregate {
    /// Computes all statistics from a sample.
    pub fn from_samples(samples: &[f64]) -> Aggregate {
        let n = samples.len();
        if n == 0 {
            return Aggregate {
                n: 0,
                mean: 0.0,
                stddev: 0.0,
                p50: 0.0,
                p95: 0.0,
                ci95: 0.0,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let stddev = if n < 2 {
            0.0
        } else {
            let ss = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>();
            (ss / (n - 1) as f64).sqrt()
        };
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric samples must not be NaN"));
        let ci95 = if n < 2 {
            0.0
        } else {
            let df = n - 1;
            let t = if df <= T_95.len() { T_95[df - 1] } else { 1.96 };
            t * stddev / (n as f64).sqrt()
        };
        Aggregate {
            n,
            mean,
            stddev,
            p50: percentile_of_sorted(&sorted, 0.50),
            p95: percentile_of_sorted(&sorted, 0.95),
            ci95,
        }
    }

    /// Aggregates one extracted metric across a slice of reports — the
    /// per-cell helper every replicated table column uses.
    pub fn of<R>(results: &[R], metric: impl Fn(&R) -> f64) -> Aggregate {
        let samples: Vec<f64> = results.iter().map(metric).collect();
        Aggregate::from_samples(&samples)
    }
}

/// One metric's aggregate within a cell.
#[derive(Clone, Debug, Serialize)]
pub struct MetricSummary {
    /// Metric name, as produced by the extractor.
    pub name: String,
    /// Statistics across the cell's replicates.
    pub agg: Aggregate,
}

/// One grid cell: its axis labels plus every metric's aggregate.
#[derive(Clone, Debug, Serialize)]
pub struct CellSummary {
    /// Cell index in the manifest grid.
    pub cell: usize,
    /// One label per axis, in axis order.
    pub labels: Vec<String>,
    /// Aggregates, in extractor order.
    pub metrics: Vec<MetricSummary>,
}

/// Aggregates sweep results per grid cell.
///
/// `extract` maps one run's result to named metric values; every run of a
/// cell must yield the same metric names in the same order.
///
/// # Panics
///
/// Panics if `results` does not align with the manifest, or a cell's runs
/// disagree on metric names.
pub fn summarize_cells<C, R, F>(
    manifest: &Manifest<C>,
    results: &[R],
    extract: F,
) -> Vec<CellSummary>
where
    F: Fn(&R) -> Vec<(&'static str, f64)>,
{
    assert_eq!(
        results.len(),
        manifest.runs.len(),
        "results must align with the manifest"
    );
    let mut cells = Vec::with_capacity(manifest.cell_count);
    for cell in 0..manifest.cell_count {
        let plans = manifest.cell_runs(cell);
        let cell_results = manifest.cell_results(results, cell);
        let per_run: Vec<Vec<(&'static str, f64)>> = cell_results.iter().map(&extract).collect();
        let names: Vec<&'static str> = per_run[0].iter().map(|(name, _)| *name).collect();
        let metrics = names
            .iter()
            .enumerate()
            .map(|(k, name)| {
                let samples: Vec<f64> = per_run
                    .iter()
                    .map(|metrics| {
                        assert_eq!(
                            metrics[k].0, *name,
                            "metric order must match across replicates"
                        );
                        metrics[k].1
                    })
                    .collect();
                MetricSummary {
                    name: (*name).to_owned(),
                    agg: Aggregate::from_samples(&samples),
                }
            })
            .collect();
        cells.push(CellSummary {
            cell,
            labels: plans[0].labels.clone(),
            metrics,
        });
    }
    cells
}
