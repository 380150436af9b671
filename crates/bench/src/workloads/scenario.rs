//! Scenario-backed workloads: every figure that is a grid of
//! [`run_scenario`] calls — F1, F2, F3, F4, T5, F7, F8 and T9.
//!
//! All eight share `Config = ScenarioConfig`, `Report = ScenarioReport`
//! and the same metric extractor; they differ only in grid and table. The
//! full-mode specs of F1/F2/F4/F7 run [`FULL_REPLICATES`] seed replicates
//! per cell and their tables carry a `±95` column (the half-width of the
//! 95 % confidence interval on the highlighted mean); quick mode stays
//! single-shot so CI runs in seconds.

use airdnd_core::SelectionWeights;
use airdnd_harness::{
    fmt_ci, fmt_f, fmt_opt, Aggregate, ExperimentResult, FnWorkload, Manifest, SeedMode, SweepSpec,
    Table,
};
use airdnd_scenario::{
    run_scenario, run_scenario_in_observed, ScenarioConfig, ScenarioReport, Strategy, WorldInstance,
};
use airdnd_sim::SimDuration;
use serde_json::json;

/// A scenario experiment: a grid of `run_scenario` calls plus a table.
pub type ScenarioWorkload = FnWorkload<ScenarioConfig, ScenarioReport>;

/// Seed replicates per cell in full mode for the F1/F2/F4/F7 figures
/// (quick mode stays at 1 so CI runs in seconds).
pub const FULL_REPLICATES: usize = 3;

fn base(quick: bool) -> ScenarioConfig {
    ScenarioConfig {
        duration: if quick {
            SimDuration::from_secs(15)
        } else {
            SimDuration::from_secs(60)
        },
        ..Default::default()
    }
}

use super::full_mode_replicates as replicates;

/// The scenario metrics aggregated per grid cell in sweep reports.
pub fn scenario_metrics(r: &ScenarioReport) -> Vec<(&'static str, f64)> {
    vec![
        ("completion_rate", r.completion_rate),
        ("latency_mean_ms", r.latency_mean_ms),
        ("latency_p50_ms", r.latency_p50_ms),
        ("latency_p95_ms", r.latency_p95_ms),
        ("mesh_bytes", r.mesh_bytes as f64),
        ("cellular_bytes", r.cellular_bytes as f64),
        ("bytes_per_task", r.bytes_per_task),
        ("mean_coverage", r.mean_coverage),
        ("mean_members", r.mean_members),
        ("mean_executor_utilization", r.mean_executor_utilization),
        (
            "invalid_results_accepted",
            r.invalid_results_accepted as f64,
        ),
    ]
}

/// The ten critical-path latency-decomposition columns
/// (`telemetry::critical_path`): per-stage p50/p95 over completed
/// queries. Deterministic — the always-on tracer book feeds them, so the
/// values are identical with span recording on or off.
pub fn stage_metrics(r: &ScenarioReport) -> Vec<(&'static str, f64)> {
    vec![
        ("lat_discover_p50_ms", r.lat_discover_p50_ms),
        ("lat_discover_p95_ms", r.lat_discover_p95_ms),
        ("lat_select_p50_ms", r.lat_select_p50_ms),
        ("lat_select_p95_ms", r.lat_select_p95_ms),
        ("lat_radio_p50_ms", r.lat_radio_p50_ms),
        ("lat_radio_p95_ms", r.lat_radio_p95_ms),
        ("lat_exec_p50_ms", r.lat_exec_p50_ms),
        ("lat_exec_p95_ms", r.lat_exec_p95_ms),
        ("lat_return_p50_ms", r.lat_return_p50_ms),
        ("lat_return_p95_ms", r.lat_return_p95_ms),
    ]
}

/// [`scenario_metrics`] plus the latency-decomposition columns — the
/// extractor for the G-series workloads. The F/T figures keep the plain
/// list so their pinned goldens stay byte-identical.
pub fn scenario_metrics_with_stages(r: &ScenarioReport) -> Vec<(&'static str, f64)> {
    let mut metrics = scenario_metrics(r);
    metrics.extend(stage_metrics(r));
    metrics
}

fn run(plan: &airdnd_harness::RunPlan<ScenarioConfig>) -> ScenarioReport {
    run_scenario(plan.config)
}

/// The observation hook (`sweep --trace`, `--trace-out`, `explain`,
/// `--bench-engine`) shared by every scenario-backed workload: one run
/// returning the full telemetry.
fn observe_scenario(
    plan: &airdnd_harness::RunPlan<ScenarioConfig>,
    opts: airdnd_scenario::TelemetryOptions,
) -> airdnd_scenario::RunTelemetry {
    let cfg = plan.config;
    run_scenario_in_observed(WorldInstance::canonical(&cfg), cfg, opts).1
}

/// Mean over the present values of an optional per-run metric (`None`
/// when no replicate observed it).
fn mean_opt(results: &[ScenarioReport], f: impl Fn(&ScenarioReport) -> Option<f64>) -> Option<f64> {
    let present: Vec<f64> = results.iter().filter_map(f).collect();
    if present.is_empty() {
        None
    } else {
        Some(present.iter().sum::<f64>() / present.len() as f64)
    }
}

// --- F1: mesh formation & dissolution vs density (Model 1 dynamicity) ---

/// F1 — mesh formation & dissolution vs fleet density.
pub fn f1() -> ScenarioWorkload {
    FnWorkload {
        name: "f1",
        title: "mesh formation & dissolution vs fleet density",
        spec: f1_spec,
        run,
        metrics: scenario_metrics,
        tabulate: f1_tabulate,
        observe: Some(observe_scenario),
    }
}

fn f1_spec(quick: bool) -> SweepSpec<ScenarioConfig> {
    let sweep: &[usize] = if quick {
        &[5, 10, 20]
    } else {
        &[5, 10, 20, 40, 60]
    };
    SweepSpec::new(base(quick))
        .axis("vehicles", sweep.to_vec(), |cfg, &n| cfg.vehicles = n)
        .replicates(replicates(quick))
        .seed_mode(SeedMode::PerReplicate)
        .base_seed(101)
        .seed_with(|cfg, seed| cfg.seed = seed)
}

fn f1_tabulate(
    manifest: &Manifest<ScenarioConfig>,
    results: &[ScenarioReport],
) -> ExperimentResult {
    let mut table = Table::new(
        "F1",
        "mesh formation & dissolution vs fleet density",
        &[
            "vehicles",
            "formation s",
            "mean members",
            "±95",
            "joins/min",
            "leaves/min",
        ],
    );
    for cell in 0..manifest.cell_count {
        let plans = manifest.cell_runs(cell);
        let rs = manifest.cell_results(results, cell);
        let members = Aggregate::of(rs, |r| r.mean_members);
        let per_min = |n: u64, r: &ScenarioReport| n as f64 / (r.duration_s / 60.0);
        table.row(vec![
            plans[0].config.vehicles.to_string(),
            fmt_opt(mean_opt(rs, |r| r.mesh_formation_s)),
            fmt_f(members.mean),
            fmt_ci(&members),
            fmt_f(Aggregate::of(rs, |r| per_min(r.joins, r)).mean),
            fmt_f(Aggregate::of(rs, |r| per_min(r.leaves, r)).mean),
        ]);
    }
    ExperimentResult::table_only(table)
}

// --- F2: data transferred per perception view (the minimization claim) ---

/// F2 — bytes per completed perception view, by strategy and fleet size.
pub fn f2() -> ScenarioWorkload {
    FnWorkload {
        name: "f2",
        title: "bytes per completed perception view, by strategy and fleet size",
        spec: f2_spec,
        run,
        metrics: scenario_metrics,
        tabulate: f2_tabulate,
        observe: Some(observe_scenario),
    }
}

fn f2_spec(quick: bool) -> SweepSpec<ScenarioConfig> {
    let sweep: &[usize] = if quick { &[8] } else { &[4, 8, 12, 16] };
    SweepSpec::new(base(quick))
        .axis("vehicles", sweep.to_vec(), |cfg, &n| cfg.vehicles = n)
        .axis_labeled(
            "strategy",
            vec![
                Strategy::Airdnd,
                Strategy::Cloud { fiveg: true },
                Strategy::RawSharing,
            ],
            |s| s.label().to_owned(),
            |cfg, &s| cfg.strategy = s,
        )
        .replicates(replicates(quick))
        .seed_mode(SeedMode::PerReplicate)
        .base_seed(102)
        .seed_with(|cfg, seed| cfg.seed = seed)
}

fn f2_tabulate(
    manifest: &Manifest<ScenarioConfig>,
    results: &[ScenarioReport],
) -> ExperimentResult {
    let mut table = Table::new(
        "F2",
        "bytes per completed perception view, by strategy and fleet size",
        &[
            "vehicles", "strategy", "kB/view", "±95", "total MB", "done %",
        ],
    );
    let mut series = Vec::new();
    for cell in 0..manifest.cell_count {
        let plans = manifest.cell_runs(cell);
        let rs = manifest.cell_results(results, cell);
        let kb_per_view = Aggregate::of(rs, |r| r.bytes_per_task / 1_000.0);
        table.row(vec![
            plans[0].config.vehicles.to_string(),
            plans[0].labels[1].clone(),
            fmt_f(kb_per_view.mean),
            fmt_ci(&kb_per_view),
            fmt_f(Aggregate::of(rs, |r| (r.mesh_bytes + r.cellular_bytes) as f64 / 1e6).mean),
            fmt_f(Aggregate::of(rs, |r| r.completion_rate * 100.0).mean),
        ]);
        series.push(json!({
            "vehicles": plans[0].config.vehicles,
            "strategy": plans[0].labels[1],
            "bytes_per_task": kb_per_view.mean * 1_000.0,
            "bytes_per_task_ci95": kb_per_view.ci95 * 1_000.0,
        }));
    }
    ExperimentResult {
        table,
        series: json!(series),
    }
}

// --- F3: end-to-end latency CDF: mesh vs cellular cloud ---

/// F3 — task latency distribution: AirDnD mesh vs cellular cloud.
pub fn f3() -> ScenarioWorkload {
    FnWorkload {
        name: "f3",
        title: "task latency: AirDnD mesh vs cellular cloud",
        spec: f3_spec,
        run,
        metrics: scenario_metrics,
        tabulate: f3_tabulate,
        observe: Some(observe_scenario),
    }
}

fn f3_spec(quick: bool) -> SweepSpec<ScenarioConfig> {
    SweepSpec::new(ScenarioConfig {
        vehicles: 12,
        ..base(quick)
    })
    .axis_labeled(
        "strategy",
        vec![
            Strategy::Airdnd,
            Strategy::Cloud { fiveg: true },
            Strategy::Cloud { fiveg: false },
        ],
        |s| s.label().to_owned(),
        |cfg, &s| cfg.strategy = s,
    )
    .seed_mode(SeedMode::PerReplicate)
    .base_seed(103)
    .seed_with(|cfg, seed| cfg.seed = seed)
}

fn f3_tabulate(
    _manifest: &Manifest<ScenarioConfig>,
    results: &[ScenarioReport],
) -> ExperimentResult {
    let mut table = Table::new(
        "F3",
        "task latency: AirDnD mesh vs cellular cloud",
        &[
            "strategy", "done %", "mean ms", "p50 ms", "p95 ms", "max ms",
        ],
    );
    let mut series = Vec::new();
    for r in results {
        table.row(vec![
            r.strategy.clone(),
            fmt_f(r.completion_rate * 100.0),
            fmt_f(r.latency_mean_ms),
            fmt_f(r.latency_p50_ms),
            fmt_f(r.latency_p95_ms),
            fmt_f(r.latency_max_ms),
        ]);
        let cdf = airdnd_sim::stats::cdf_points(&r.latencies_ms, 40);
        series.push(json!({ "strategy": r.strategy, "cdf": cdf }));
    }
    ExperimentResult {
        table,
        series: json!(series),
    }
}

// --- F4: looking-around-the-corner coverage vs cooperating vehicles ---

/// F4 — hidden-region coverage & detection time vs fleet size.
pub fn f4() -> ScenarioWorkload {
    FnWorkload {
        name: "f4",
        title: "hidden-region coverage & detection time vs fleet size",
        spec: f4_spec,
        run,
        metrics: scenario_metrics,
        tabulate: f4_tabulate,
        observe: Some(observe_scenario),
    }
}

fn f4_spec(quick: bool) -> SweepSpec<ScenarioConfig> {
    let sweep: &[usize] = if quick {
        &[4, 12]
    } else {
        &[2, 4, 8, 12, 16, 24]
    };
    SweepSpec::new(base(quick))
        .axis("vehicles", sweep.to_vec(), |cfg, &n| cfg.vehicles = n)
        .axis_labeled(
            "strategy",
            vec![Strategy::Airdnd, Strategy::LocalOnly],
            |s| s.label().to_owned(),
            |cfg, &s| cfg.strategy = s,
        )
        .replicates(replicates(quick))
        .seed_mode(SeedMode::PerReplicate)
        .base_seed(104)
        .seed_with(|cfg, seed| cfg.seed = seed)
}

fn f4_tabulate(
    manifest: &Manifest<ScenarioConfig>,
    results: &[ScenarioReport],
) -> ExperimentResult {
    let mut table = Table::new(
        "F4",
        "hidden-region coverage & detection time vs fleet size",
        &[
            "vehicles",
            "strategy",
            "coverage %",
            "±95",
            "ego-only %",
            "detect s",
        ],
    );
    for cell in 0..manifest.cell_count {
        let plans = manifest.cell_runs(cell);
        let rs = manifest.cell_results(results, cell);
        let coverage = Aggregate::of(rs, |r| r.mean_coverage * 100.0);
        table.row(vec![
            plans[0].config.vehicles.to_string(),
            plans[0].labels[1].clone(),
            fmt_f(coverage.mean),
            fmt_ci(&coverage),
            fmt_f(Aggregate::of(rs, |r| r.ego_only_coverage * 100.0).mean),
            fmt_opt(mean_opt(rs, |r| r.time_to_detect_s)),
        ]);
    }
    ExperimentResult::table_only(table)
}

// --- T5: RQ1 ablation — which selection criteria matter ---

/// T5 — node-selection feature ablation over a [`SelectionWeights`] axis.
pub fn t5() -> ScenarioWorkload {
    FnWorkload {
        name: "t5",
        title: "node-selection feature ablation (RQ1)",
        spec: t5_spec,
        run,
        metrics: scenario_metrics,
        tabulate: t5_tabulate,
        observe: Some(observe_scenario),
    }
}

/// The ablated weight variants swept by T5's `weights` axis.
fn t5_variants() -> Vec<(&'static str, SelectionWeights)> {
    vec![
        ("full", SelectionWeights::default()),
        ("compute-only", SelectionWeights::compute_only()),
        (
            "no-link",
            SelectionWeights {
                link: 0.0,
                ..SelectionWeights::default()
            },
        ),
        (
            "no-trust",
            SelectionWeights {
                trust: 0.0,
                ..SelectionWeights::default()
            },
        ),
        (
            "no-in-range",
            SelectionWeights {
                in_range: 0.0,
                ..SelectionWeights::default()
            },
        ),
    ]
}

fn t5_spec(quick: bool) -> SweepSpec<ScenarioConfig> {
    let mut base = ScenarioConfig {
        vehicles: 14,
        byzantine_fraction: 0.2,
        ..base(quick)
    };
    base.orch.redundancy = 1;
    // Spot checks let reputations actually evolve, which is what the
    // trust weight consumes.
    base.orch.spot_check_probability = 0.25;
    SweepSpec::new(base)
        .axis_labeled(
            "weights",
            t5_variants(),
            |(name, _)| (*name).to_owned(),
            |cfg, (_, weights)| cfg.orch.weights = *weights,
        )
        .replicates(if quick { 2 } else { 4 })
        .seed_mode(SeedMode::PerReplicate)
        .base_seed(105)
        .seed_with(|cfg, seed| cfg.seed = seed)
}

fn t5_tabulate(
    manifest: &Manifest<ScenarioConfig>,
    results: &[ScenarioReport],
) -> ExperimentResult {
    let mut table = Table::new(
        "T5",
        "node-selection feature ablation (RQ1)",
        &[
            "weights",
            "done %",
            "±95",
            "p95 ms",
            "failed",
            "bad results",
        ],
    );
    for cell in 0..manifest.cell_count {
        let plans = manifest.cell_runs(cell);
        let rs = manifest.cell_results(results, cell);
        let done = Aggregate::of(rs, |r| r.completion_rate * 100.0);
        let p95 = rs.iter().map(|r| r.latency_p95_ms).fold(0.0, f64::max);
        let failed: u64 = rs.iter().map(|r| r.tasks_failed).sum();
        let bad: u64 = rs.iter().map(|r| r.invalid_results_accepted).sum();
        let submitted: u64 = rs.iter().map(|r| r.tasks_submitted).sum();
        table.row(vec![
            plans[0].labels[0].clone(),
            fmt_f(done.mean),
            fmt_ci(&done),
            fmt_f(p95),
            failed.to_string(),
            format!(
                "{bad} ({:.1}%)",
                bad as f64 / submitted.max(1) as f64 * 100.0
            ),
        ]);
    }
    ExperimentResult::table_only(table)
}

// --- F7: churn resilience — completion vs vehicle speed ---

/// F7 — task completion under mobility-driven churn.
pub fn f7() -> ScenarioWorkload {
    FnWorkload {
        name: "f7",
        title: "task completion under mobility-driven churn",
        spec: f7_spec,
        run,
        metrics: scenario_metrics,
        tabulate: f7_tabulate,
        observe: Some(observe_scenario),
    }
}

fn f7_spec(quick: bool) -> SweepSpec<ScenarioConfig> {
    let sweep: &[f64] = if quick {
        &[8.0, 20.0]
    } else {
        &[5.0, 10.0, 15.0, 20.0, 25.0]
    };
    SweepSpec::new(ScenarioConfig {
        vehicles: 12,
        ..base(quick)
    })
    .axis("speed_mps", sweep.to_vec(), |cfg, &speed| {
        cfg.speed_limit = speed
    })
    .replicates(replicates(quick))
    .seed_mode(SeedMode::PerReplicate)
    .base_seed(107)
    .seed_with(|cfg, seed| cfg.seed = seed)
}

fn f7_tabulate(
    manifest: &Manifest<ScenarioConfig>,
    results: &[ScenarioReport],
) -> ExperimentResult {
    let mut table = Table::new(
        "F7",
        "task completion under mobility-driven churn",
        &[
            "speed m/s",
            "churn/min",
            "done %",
            "±95",
            "p95 ms",
            "offers/task",
        ],
    );
    for cell in 0..manifest.cell_count {
        let plans = manifest.cell_runs(cell);
        let rs = manifest.cell_results(results, cell);
        let done = Aggregate::of(rs, |r| r.completion_rate * 100.0);
        table.row(vec![
            fmt_f(plans[0].config.speed_limit),
            fmt_f(Aggregate::of(rs, |r| (r.joins + r.leaves) as f64 / (r.duration_s / 60.0)).mean),
            fmt_f(done.mean),
            fmt_ci(&done),
            fmt_f(Aggregate::of(rs, |r| r.latency_p95_ms).mean),
            fmt_f(
                Aggregate::of(rs, |r| {
                    r.offers_sent as f64 / r.tasks_submitted.max(1) as f64
                })
                .mean,
            ),
        ]);
    }
    ExperimentResult::table_only(table)
}

// --- F8: excess-resource utilization vs offered load (the Airbnb claim) ---

/// F8 — helper-ECU utilization vs offered load.
pub fn f8() -> ScenarioWorkload {
    FnWorkload {
        name: "f8",
        title: "helper-ECU utilization vs offered load",
        spec: f8_spec,
        run,
        metrics: scenario_metrics,
        tabulate: f8_tabulate,
        observe: Some(observe_scenario),
    }
}

fn f8_spec(quick: bool) -> SweepSpec<ScenarioConfig> {
    let sweep: &[u32] = if quick { &[10, 3] } else { &[20, 10, 5, 3, 2] };
    SweepSpec::new(ScenarioConfig {
        vehicles: 10,
        task_compute_rounds: 600,
        ..base(quick)
    })
    .axis("task_every_ticks", sweep.to_vec(), |cfg, &every| {
        cfg.task_every_ticks = every
    })
    .seed_mode(SeedMode::PerReplicate)
    .base_seed(108)
    .seed_with(|cfg, seed| cfg.seed = seed)
}

fn f8_tabulate(
    manifest: &Manifest<ScenarioConfig>,
    results: &[ScenarioReport],
) -> ExperimentResult {
    let mut table = Table::new(
        "F8",
        "helper-ECU utilization vs offered load",
        &["task period ms", "done %", "helper util %", "p95 ms"],
    );
    for (plan, r) in manifest.runs.iter().zip(results) {
        table.row(vec![
            (plan.config.task_every_ticks as u64 * 100).to_string(),
            fmt_f(r.completion_rate * 100.0),
            fmt_f(r.mean_executor_utilization * 100.0),
            fmt_f(r.latency_p95_ms),
        ]);
    }
    ExperimentResult::table_only(table)
}

// --- T9: RQ3 — integrity under byzantine executors, with replicates ---

/// T9 — byzantine tolerance: redundancy + reputation.
pub fn t9() -> ScenarioWorkload {
    FnWorkload {
        name: "t9",
        title: "byzantine tolerance: redundancy + reputation (RQ3)",
        spec: t9_spec,
        run,
        metrics: scenario_metrics,
        tabulate: t9_tabulate,
        observe: Some(observe_scenario),
    }
}

fn t9_spec(quick: bool) -> SweepSpec<ScenarioConfig> {
    let fractions: &[f64] = if quick {
        &[0.0, 0.3]
    } else {
        &[0.0, 0.1, 0.2, 0.3, 0.4]
    };
    let replicates = if quick { 2 } else { 4 };
    SweepSpec::new(ScenarioConfig {
        vehicles: 14,
        ..base(quick)
    })
    .axis(
        "byzantine_pct",
        fractions.iter().map(|f| Pct(*f)).collect::<Vec<_>>(),
        |cfg, p| {
            cfg.byzantine_fraction = p.0;
        },
    )
    .axis("redundancy", vec![1usize, 3], |cfg, &r| {
        cfg.orch.redundancy = r;
        cfg.orch.max_candidates = r + 2;
    })
    .replicates(replicates)
    .seed_mode(SeedMode::PerReplicate)
    .base_seed(109)
    .seed_with(|cfg, seed| cfg.seed = seed)
}

/// A fraction labelled as a percentage on its sweep axis.
struct Pct(f64);

impl std::fmt::Display for Pct {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0 * 100.0)
    }
}

fn t9_tabulate(
    manifest: &Manifest<ScenarioConfig>,
    results: &[ScenarioReport],
) -> ExperimentResult {
    let mut table = Table::new(
        "T9",
        "byzantine tolerance: redundancy + reputation (RQ3)",
        &["byz %", "redundancy", "done %", "bad accepted", "p95 ms"],
    );
    for cell in 0..manifest.cell_count {
        let plans = manifest.cell_runs(cell);
        let cell_results = manifest.cell_results(results, cell);
        let n = cell_results.len() as f64;
        let done: f64 = cell_results.iter().map(|r| r.completion_rate).sum::<f64>() / n;
        let p95 = cell_results
            .iter()
            .map(|r| r.latency_p95_ms)
            .fold(0.0, f64::max);
        let bad: u64 = cell_results
            .iter()
            .map(|r| r.invalid_results_accepted)
            .sum();
        let submitted: u64 = cell_results.iter().map(|r| r.tasks_submitted).sum();
        let cfg = &plans[0].config;
        table.row(vec![
            fmt_f(cfg.byzantine_fraction * 100.0),
            cfg.orch.redundancy.to_string(),
            fmt_f(done * 100.0),
            format!(
                "{bad} ({:.1}%)",
                bad as f64 / submitted.max(1) as f64 * 100.0
            ),
            fmt_f(p95),
        ]);
    }
    ExperimentResult::table_only(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Grid shapes: quick and full expansions, including the full-mode
    /// replicates the F1/F2/F4/F7 confidence intervals rest on.
    #[test]
    fn grid_shapes() {
        assert_eq!(f1_spec(true).manifest().len(), 3);
        assert_eq!(f1_spec(false).manifest().len(), 5 * FULL_REPLICATES);
        assert_eq!(f2_spec(true).manifest().len(), 3); // 1 fleet size × 3 strategies
        assert_eq!(f2_spec(false).manifest().len(), 4 * 3 * FULL_REPLICATES);
        assert_eq!(f3_spec(true).manifest().len(), 3);
        assert_eq!(f4_spec(true).manifest().len(), 2 * 2);
        assert_eq!(f4_spec(false).manifest().len(), 6 * 2 * FULL_REPLICATES);
        assert_eq!(t5_spec(true).manifest().len(), 5 * 2);
        assert_eq!(t5_spec(false).manifest().len(), 5 * 4);
        assert_eq!(f7_spec(true).manifest().len(), 2);
        assert_eq!(f7_spec(false).manifest().len(), 5 * FULL_REPLICATES);
        assert_eq!(f8_spec(true).manifest().len(), 2);
        assert_eq!(f8_spec(false).manifest().len(), 5);
        assert_eq!(t9_spec(true).manifest().len(), 2 * 2 * 2);
        assert_eq!(t9_spec(false).manifest().len(), 5 * 2 * 4);
    }

    /// The replicated figures label their CI column; single-shot cells
    /// render `-` so quick tables never show a misleading interval.
    #[test]
    fn ci_column_renders_dash_for_single_replicate() {
        let one = Aggregate::from_samples(&[5.0]);
        assert_eq!(fmt_ci(&one), "-");
        let three = Aggregate::from_samples(&[5.0, 6.0, 7.0]);
        assert_ne!(fmt_ci(&three), "-");
    }
}
