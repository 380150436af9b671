//! The generic `Workload` API: one typed experiment shape for every figure.
//!
//! A [`Workload`] is any pure `Config → Report` function with a declarative
//! grid: the config type carries the axes (numeric sweeps, strategy enums,
//! `SelectionWeights` variants, market-mechanism choices — anything
//! expressible as a [`SweepSpec`] axis), the report type carries the
//! measurements, and the workload supplies the metric extraction and table
//! rendering. Everything else — manifest expansion, splittable seeds, the
//! worker pool, per-cell aggregation, JSON/CSV artifacts, and `--shard i/n`
//! slicing — is workload-polymorphic and lives here, once.
//!
//! [`AnyWorkload`] is the object-safe erasure of the trait, so experiments
//! with different `Config`/`Report` types (scenario sweeps, market
//! simulations, NFV churn, selection micro-benchmarks) share a single
//! registry and a single execution path.
//!
//! ## Sharding
//!
//! [`AnyWorkload::execute_shard`] runs one contiguous slice of the
//! manifest and returns a [`ShardArtifact`]: the slice's reports,
//! serialized, keyed by global `run_index`. Artifacts can cross process or
//! host boundaries as JSON ([`render_shard`] / [`parse_shard`]);
//! [`AnyWorkload::merge_shards`] reassembles them in manifest order and
//! produces output **byte-identical** to an unsharded run — seeds derive
//! from `(base_seed, run_index)`, never from which process ran the run,
//! and the report writers are environment-free.

use crate::agg::summarize_cells;
use crate::exec::{run_shard_with_progress, run_sweep_with_progress, Progress};
use crate::manifest::{Manifest, RunPlan, Shard};
use crate::report::{ExperimentResult, SweepReport};
use crate::spec::SweepSpec;
use airdnd_telemetry::{RunTelemetry, TelemetryOptions};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A typed experiment: a pure `Config → Report` function plus its grid,
/// metrics and table rendering.
///
/// `run` must be a pure function of the [`RunPlan`] (the config carries its
/// own derived seed) — that purity is what lets the harness parallelize,
/// shard and replay workloads without changing a byte of output.
pub trait Workload: Send + Sync {
    /// The sweep-expanded configuration: one fully materialized run.
    type Config: Clone + Send + Sync + Serialize + 'static;
    /// The measurements one run produces. `DeserializeOwned` lets shard
    /// artifacts round-trip through JSON across processes.
    type Report: Send + Serialize + DeserializeOwned + 'static;

    /// Registry id (`"f2"`), used for filtering and artifact file stems.
    fn name(&self) -> &'static str;

    /// Human title for tables and aggregate reports.
    fn title(&self) -> &'static str;

    /// The declarative grid (`quick` selects the CI-sized version).
    fn spec(&self, quick: bool) -> SweepSpec<Self::Config>;

    /// Executes one run. Must be pure in the config.
    fn run(&self, plan: &RunPlan<Self::Config>) -> Self::Report;

    /// Named scalar metrics aggregated per grid cell in sweep reports.
    /// Every report must yield the same names in the same order.
    fn metrics(&self, report: &Self::Report) -> Vec<(&'static str, f64)>;

    /// Renders the `EXPERIMENTS.md` table (plus optional plot series) from
    /// the ordered results.
    fn tabulate(
        &self,
        manifest: &Manifest<Self::Config>,
        results: &[Self::Report],
    ) -> ExperimentResult;

    /// Observability lens: executes one run with the given telemetry
    /// options and returns the full [`RunTelemetry`] (typed events,
    /// metrics registry, phase profile), or `None` when the workload has
    /// no telemetry support (the default). Used by `sweep --trace`,
    /// `--trace-out`, `explain` and `--bench-engine`; never part of the
    /// deterministic artifact path.
    fn observe_run(
        &self,
        plan: &RunPlan<Self::Config>,
        opts: TelemetryOptions,
    ) -> Option<RunTelemetry> {
        let _ = (plan, opts);
        None
    }
}

/// A [`Workload`] assembled from plain function pointers — the common
/// case, where an experiment is a grid builder, a runner and a tabulator
/// rather than a stateful type.
pub struct FnWorkload<C, R> {
    /// Registry id (`"f2"`).
    pub name: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Builds the grid (`quick` selects the CI-sized version).
    pub spec: fn(bool) -> SweepSpec<C>,
    /// Executes one run (pure in the config).
    pub run: fn(&RunPlan<C>) -> R,
    /// Extracts the per-cell aggregate metrics.
    pub metrics: fn(&R) -> Vec<(&'static str, f64)>,
    /// Renders the table and plot series.
    pub tabulate: fn(&Manifest<C>, &[R]) -> ExperimentResult,
    /// Optional observability hook: one run with full telemetry (see
    /// [`Workload::observe_run`]).
    pub observe: Option<fn(&RunPlan<C>, TelemetryOptions) -> RunTelemetry>,
}

impl<C, R> Workload for FnWorkload<C, R>
where
    C: Clone + Send + Sync + Serialize + 'static,
    R: Send + Serialize + DeserializeOwned + 'static,
{
    type Config = C;
    type Report = R;

    fn name(&self) -> &'static str {
        self.name
    }

    fn title(&self) -> &'static str {
        self.title
    }

    fn spec(&self, quick: bool) -> SweepSpec<C> {
        (self.spec)(quick)
    }

    fn run(&self, plan: &RunPlan<C>) -> R {
        (self.run)(plan)
    }

    fn metrics(&self, report: &R) -> Vec<(&'static str, f64)> {
        (self.metrics)(report)
    }

    fn tabulate(&self, manifest: &Manifest<C>, results: &[R]) -> ExperimentResult {
        (self.tabulate)(manifest, results)
    }

    fn observe_run(&self, plan: &RunPlan<C>, opts: TelemetryOptions) -> Option<RunTelemetry> {
        self.observe.map(|observe| observe(plan, opts))
    }
}

/// Everything executing a workload produces: the rendered table/series
/// plus the per-cell aggregate report (the JSON/CSV payload).
#[derive(Clone, Debug)]
pub struct WorkloadOutput {
    /// Workload id.
    pub name: String,
    /// Workload title.
    pub title: String,
    /// Table + plot series.
    pub result: ExperimentResult,
    /// Per-cell aggregates, ready for [`crate::report::write_report`].
    pub aggregate: SweepReport,
}

/// One run's serialized report inside a [`ShardArtifact`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardResult {
    /// Global manifest index of the run.
    pub run_index: usize,
    /// The run's report, serialized (round-trips bit-for-bit).
    pub report: serde_json::Value,
}

/// The output of one shard of a sweep: a resumable, mergeable slice of
/// results keyed by global `run_index`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardArtifact {
    /// Workload id the artifact belongs to.
    pub workload: String,
    /// Zero-based shard index.
    pub shard_index: usize,
    /// Total number of shards in the split.
    pub shard_count: usize,
    /// Total runs in the *full* manifest (consistency check at merge).
    pub total_runs: usize,
    /// Fingerprint of the manifest the shard was cut from, in canonical
    /// hex ([`crate::manifest::fingerprint_hex`]). A resuming driver (and
    /// [`AnyWorkload::merge_shards`]) rejects artifacts whose fingerprint
    /// no longer matches the current grid — the stale-artifact guard.
    pub fingerprint: String,
    /// This shard's results, in manifest order.
    pub results: Vec<ShardResult>,
}

/// Why a shard merge was rejected.
#[derive(Debug, Clone)]
pub struct MergeError(String);

impl MergeError {
    fn msg(msg: impl Into<String>) -> Self {
        MergeError(msg.into())
    }
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for MergeError {}

/// Object-safe view over any [`Workload`], so heterogeneous experiments
/// share one registry and one CLI. Blanket-implemented for every workload.
pub trait AnyWorkload: Send + Sync {
    /// Registry id (`"f2"`).
    fn name(&self) -> &'static str;

    /// Human title.
    fn title(&self) -> &'static str;

    /// Runs in the full (quick|full) manifest.
    fn total_runs(&self, quick: bool) -> usize;

    /// Fingerprint of the expanded manifest (see
    /// [`crate::manifest::Manifest::fingerprint`]): the stamp shard
    /// artifacts carry so stale ones are detected on resume and merge.
    fn fingerprint(&self, quick: bool) -> u64;

    /// Expands the grid, executes every run across `threads` workers
    /// (`0` = all cores) and renders table + aggregate report.
    fn execute(
        &self,
        quick: bool,
        threads: usize,
        progress: &mut dyn FnMut(Progress),
    ) -> WorkloadOutput;

    /// Executes only `shard`'s contiguous slice of the manifest, returning
    /// a mergeable artifact instead of rendered output.
    fn execute_shard(
        &self,
        quick: bool,
        threads: usize,
        shard: Shard,
        progress: &mut dyn FnMut(Progress),
    ) -> ShardArtifact;

    /// Reassembles shard artifacts (any order) into the same
    /// [`WorkloadOutput`] an unsharded [`AnyWorkload::execute`] produces,
    /// byte for byte. Fails if shards are missing, overlapping, or from a
    /// different workload/grid.
    fn merge_shards(
        &self,
        quick: bool,
        artifacts: &[ShardArtifact],
    ) -> Result<WorkloadOutput, MergeError>;

    /// Executes the manifest's first run with full telemetry and returns
    /// the [`RunTelemetry`], or `None` when the workload has no telemetry
    /// support (see [`Workload::observe_run`]).
    fn observe_first_run(&self, quick: bool, opts: TelemetryOptions) -> Option<RunTelemetry>;
}

impl<W: Workload> AnyWorkload for W {
    fn name(&self) -> &'static str {
        Workload::name(self)
    }

    fn title(&self) -> &'static str {
        Workload::title(self)
    }

    fn total_runs(&self, quick: bool) -> usize {
        self.spec(quick).manifest().len()
    }

    fn fingerprint(&self, quick: bool) -> u64 {
        self.spec(quick).manifest().fingerprint()
    }

    fn execute(
        &self,
        quick: bool,
        threads: usize,
        progress: &mut dyn FnMut(Progress),
    ) -> WorkloadOutput {
        let manifest = self.spec(quick).manifest();
        let outcome = run_sweep_with_progress(&manifest, threads, |plan| self.run(plan), progress);
        finish(self, &manifest, &outcome.results)
    }

    fn execute_shard(
        &self,
        quick: bool,
        threads: usize,
        shard: Shard,
        progress: &mut dyn FnMut(Progress),
    ) -> ShardArtifact {
        let manifest = self.spec(quick).manifest();
        let outcome =
            run_shard_with_progress(&manifest, shard, threads, |plan| self.run(plan), progress);
        let indices = manifest.shard_range(shard);
        ShardArtifact {
            workload: Workload::name(self).to_owned(),
            shard_index: shard.index,
            shard_count: shard.count,
            total_runs: manifest.len(),
            fingerprint: crate::manifest::fingerprint_hex(manifest.fingerprint()),
            results: indices
                .zip(&outcome.results)
                .map(|(run_index, report)| ShardResult {
                    run_index,
                    report: serde_json::to_value(report),
                })
                .collect(),
        }
    }

    fn merge_shards(
        &self,
        quick: bool,
        artifacts: &[ShardArtifact],
    ) -> Result<WorkloadOutput, MergeError> {
        let manifest = self.spec(quick).manifest();
        let total = manifest.len();
        let fingerprint = crate::manifest::fingerprint_hex(manifest.fingerprint());
        let mut slots: Vec<Option<W::Report>> = Vec::with_capacity(total);
        slots.resize_with(total, || None);
        let counts: Vec<usize> = artifacts.iter().map(|a| a.shard_count).collect();
        for artifact in artifacts {
            if artifact.workload != Workload::name(self) {
                return Err(MergeError::msg(format!(
                    "artifact belongs to `{}`, not `{}`",
                    artifact.workload,
                    Workload::name(self)
                )));
            }
            if artifact.total_runs != total {
                return Err(MergeError::msg(format!(
                    "artifact was sharded from a {}-run manifest, expected {total} \
                     (quick/full mismatch?)",
                    artifact.total_runs
                )));
            }
            if artifact.fingerprint != fingerprint {
                return Err(MergeError::msg(format!(
                    "artifact is stale: fingerprint {} does not match the \
                     current grid's {fingerprint} (the sweep changed since \
                     the shard ran)",
                    artifact.fingerprint
                )));
            }
            if counts.iter().any(|&c| c != artifact.shard_count) {
                return Err(MergeError::msg("artifacts disagree on shard count"));
            }
            for entry in &artifact.results {
                if entry.run_index >= total {
                    return Err(MergeError::msg(format!(
                        "run index {} out of range ({total} runs)",
                        entry.run_index
                    )));
                }
                let slot = &mut slots[entry.run_index];
                if slot.is_some() {
                    return Err(MergeError::msg(format!(
                        "run {} reported by two shards",
                        entry.run_index
                    )));
                }
                let report = serde_json::from_value::<W::Report>(entry.report.clone())
                    .map_err(|e| MergeError::msg(format!("run {}: {e}", entry.run_index)))?;
                *slot = Some(report);
            }
        }
        let mut results = Vec::with_capacity(total);
        for (index, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(report) => results.push(report),
                None => {
                    return Err(MergeError::msg(format!(
                        "run {index} missing — not covered by any shard"
                    )))
                }
            }
        }
        Ok(finish(self, &manifest, &results))
    }

    fn observe_first_run(&self, quick: bool, opts: TelemetryOptions) -> Option<RunTelemetry> {
        let manifest = self.spec(quick).manifest();
        let plan = manifest.runs.first()?;
        self.observe_run(plan, opts)
    }
}

/// The shared tail of every execution path: tabulate + aggregate. Keeping
/// it in one place is what makes `merge_shards` byte-identical to
/// `execute`.
fn finish<W: Workload>(
    workload: &W,
    manifest: &Manifest<W::Config>,
    results: &[W::Report],
) -> WorkloadOutput {
    let result = workload.tabulate(manifest, results);
    let aggregate = SweepReport {
        name: Workload::name(workload).to_owned(),
        title: Workload::title(workload).to_owned(),
        axis_names: manifest.axis_names.clone(),
        replicates: manifest.replicates,
        base_seed: manifest.base_seed,
        cells: summarize_cells(manifest, results, |r| workload.metrics(r)),
    };
    WorkloadOutput {
        name: Workload::name(workload).to_owned(),
        title: Workload::title(workload).to_owned(),
        result,
        aggregate,
    }
}

/// The canonical shard-artifact file name: `<name>.shard<i>of<n>.json`.
pub fn shard_artifact_name(workload: &str, shard: Shard) -> String {
    format!("{workload}.shard{}of{}.json", shard.index, shard.count)
}

/// Renders a shard artifact as pretty JSON (trailing newline).
pub fn render_shard(artifact: &ShardArtifact) -> String {
    let mut out = serde_json::to_string_pretty(artifact).expect("artifact serializes");
    out.push('\n');
    out
}

/// Parses a shard artifact back from JSON text.
pub fn parse_shard(text: &str) -> Result<ShardArtifact, MergeError> {
    serde_json::from_str(text).map_err(|e| MergeError::msg(format!("bad shard artifact: {e}")))
}
