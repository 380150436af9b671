//! Lifecycle and multi-ego workloads: the dynamic-mesh claims under test.
//!
//! * **G3** — fleet lifecycle churn: a seed-driven arrival/departure
//!   process (`worldgen::ChurnProcess`) compiles into a `FleetSchedule`
//!   the engine applies at tick boundaries, so mesh membership genuinely
//!   changes mid-run. Does task-to-data offloading keep completing views
//!   while vehicles join and leave (gracefully and abruptly) — including
//!   on the `bridge` family, whose tunnel shell radio-partitions the
//!   mesh as vehicles traverse it?
//! * **G4** — multi-ego demand: 2+ concurrent query origins, each with
//!   its own hidden-region grid derived along its own approach path. How
//!   do completion and latency respond as more egos contend for the same
//!   helper pool?
//!
//! Both configs are pure data — the churn schedule and the extra-ego
//! routes are generated *inside* the run from the config seed — so the
//! workloads shard, merge and drive through the harness unchanged.

use airdnd_harness::{
    fmt_ci, fmt_f, Aggregate, ExperimentResult, FnWorkload, Manifest, RunPlan, SeedMode, SweepSpec,
    Table,
};
use airdnd_scenario::{run_scenario_in_observed, ScenarioConfig, ScenarioReport, TelemetryOptions};
use airdnd_worldgen::{
    assign_extra_egos, ChurnProcess, DemandKind, FamilyKind, FleetProfile, GridParams,
};
use serde::{Deserialize, Serialize};

use super::full_mode_replicates as replicates;
use super::scenario::scenario_metrics_with_stages;
use super::worldgen::GenConfig;

/// One lifecycle-churn run: a generated world plus the churn process that
/// compiles into its fleet schedule at materialization time.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LifecycleConfig {
    /// The generated world and scenario knobs.
    pub gen: GenConfig,
    /// The arrival/departure process applied through the engine.
    pub churn: ChurnProcess,
}

/// One multi-ego run: a generated world fielding `egos` query origins.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MultiEgoConfig {
    /// The generated world and scenario knobs.
    pub gen: GenConfig,
    /// Concurrent query origins (primary ego included, so `1` is the
    /// classic single-ego run).
    pub egos: usize,
}

/// The single materialization path for G3 — `run` and `observe` must build
/// the identical run, or the observation lens would debug a different
/// world than the one producing the artifacts.
fn build_lifecycle(cfg: &LifecycleConfig) -> (airdnd_scenario::WorldInstance, ScenarioConfig) {
    let (mut world, scenario) = super::worldgen::materialize(&cfg.gen);
    world.schedule = cfg.churn.schedule(
        scenario.duration.as_secs_f64(),
        world.stage.net.arm_count(),
        scenario.seed,
    );
    (world, scenario)
}

/// The single materialization path for G4 and G5 (see
/// [`build_lifecycle`]).
pub(crate) fn build_multi_ego(
    cfg: &MultiEgoConfig,
) -> (airdnd_scenario::WorldInstance, ScenarioConfig) {
    let (mut world, scenario) = super::worldgen::materialize(&cfg.gen);
    assign_extra_egos(
        &mut world,
        cfg.egos.saturating_sub(1),
        scenario.hidden_agents,
    );
    (world, scenario)
}

fn run_lifecycle(plan: &RunPlan<LifecycleConfig>) -> ScenarioReport {
    let (world, scenario) = build_lifecycle(&plan.config);
    run_scenario_in_observed(world, scenario, TelemetryOptions::from_env()).0
}

fn observe_lifecycle(
    plan: &RunPlan<LifecycleConfig>,
    opts: TelemetryOptions,
) -> airdnd_scenario::RunTelemetry {
    let (world, scenario) = build_lifecycle(&plan.config);
    run_scenario_in_observed(world, scenario, opts).1
}

pub(crate) fn run_multi_ego(plan: &RunPlan<MultiEgoConfig>) -> ScenarioReport {
    let (world, scenario) = build_multi_ego(&plan.config);
    run_scenario_in_observed(world, scenario, TelemetryOptions::from_env()).0
}

pub(crate) fn observe_multi_ego(
    plan: &RunPlan<MultiEgoConfig>,
    opts: TelemetryOptions,
) -> airdnd_scenario::RunTelemetry {
    let (world, scenario) = build_multi_ego(&plan.config);
    run_scenario_in_observed(world, scenario, opts).1
}

/// Scenario metrics plus the lifecycle counters the churn study tracks.
fn lifecycle_metrics(r: &ScenarioReport) -> Vec<(&'static str, f64)> {
    let mut metrics = scenario_metrics_with_stages(r);
    metrics.push(("lifecycle_spawns", r.lifecycle_spawns as f64));
    metrics.push(("lifecycle_despawns", r.lifecycle_despawns as f64));
    metrics.push(("joins", r.joins as f64));
    metrics.push(("leaves", r.leaves as f64));
    metrics
}

/// Scenario metrics plus the query-origin count and the per-ego fairness
/// aggregates the telemetry registry computes: the worst-served ego's
/// completion rate and latency quantiles, and the completion spread.
pub(crate) fn multi_ego_metrics(r: &ScenarioReport) -> Vec<(&'static str, f64)> {
    let mut metrics = scenario_metrics_with_stages(r);
    metrics.push(("egos", r.egos as f64));
    metrics.push(("ego_completion_min", r.ego_completion_min));
    metrics.push(("ego_completion_spread", r.ego_completion_spread));
    metrics.push(("ego_p50_worst_ms", r.ego_p50_worst_ms));
    metrics.push(("ego_p95_worst_ms", r.ego_p95_worst_ms));
    metrics
}

// --- G3: fleet lifecycle churn through the engine ---

/// G3 — mid-run membership change: churn process × map family.
pub fn g3() -> FnWorkload<LifecycleConfig, ScenarioReport> {
    FnWorkload {
        name: "g3",
        title: "fleet lifecycle churn through the engine (spawn/despawn mid-run)",
        spec: g3_spec,
        run: run_lifecycle,
        metrics: lifecycle_metrics,
        tabulate: g3_tabulate,
        observe: Some(observe_lifecycle),
    }
}

fn g3_families(quick: bool) -> Vec<FamilyKind> {
    let bridge = airdnd_worldgen::find("bridge").expect("registered").kind;
    if quick {
        vec![FamilyKind::Grid(GridParams::default()), bridge]
    } else {
        let roundabout = airdnd_worldgen::find("roundabout")
            .expect("registered")
            .kind;
        vec![FamilyKind::Grid(GridParams::default()), roundabout, bridge]
    }
}

fn g3_spec(quick: bool) -> SweepSpec<LifecycleConfig> {
    // Heavy churn first so `sweep --trace N g3` (which dumps the first
    // manifest run) shows real mid-run membership change.
    let churns: Vec<ChurnProcess> = if quick {
        vec![ChurnProcess::heavy(), ChurnProcess::none()]
    } else {
        vec![
            ChurnProcess::heavy(),
            ChurnProcess::mild(),
            ChurnProcess::none(),
        ]
    };
    let base = LifecycleConfig {
        gen: GenConfig {
            family: FamilyKind::Grid(GridParams::default()),
            profile: FleetProfile {
                parked: 2,
                ..FleetProfile::default()
            },
            demand: DemandKind::Steady,
            scenario: GenConfig::quick_or(quick, 40),
        },
        churn: ChurnProcess::none(),
    };
    SweepSpec::new(base)
        .axis_labeled(
            "family",
            g3_families(quick),
            |f| f.label().to_owned(),
            |cfg, &f| cfg.gen.family = f,
        )
        .axis_labeled(
            "churn",
            churns,
            |c| c.label().to_owned(),
            |cfg, &c| cfg.churn = c,
        )
        .replicates(replicates(quick))
        .seed_mode(SeedMode::PerReplicate)
        .base_seed(115)
        .seed_with(|cfg, seed| cfg.gen.scenario.seed = seed)
}

fn g3_tabulate(
    manifest: &Manifest<LifecycleConfig>,
    results: &[ScenarioReport],
) -> ExperimentResult {
    let mut table = Table::new(
        "G3",
        "fleet lifecycle churn through the engine (spawn/despawn mid-run)",
        &[
            "family",
            "churn",
            "tasks",
            "done %",
            "±95",
            "spawns",
            "despawns",
            "mesh ev/min",
            "p95 ms",
        ],
    );
    for cell in 0..manifest.cell_count {
        let plans = manifest.cell_runs(cell);
        let rs = manifest.cell_results(results, cell);
        let done = Aggregate::of(rs, |r| r.completion_rate * 100.0);
        table.row(vec![
            plans[0].labels[0].clone(),
            plans[0].labels[1].clone(),
            fmt_f(Aggregate::of(rs, |r| r.tasks_submitted as f64).mean),
            fmt_f(done.mean),
            fmt_ci(&done),
            fmt_f(Aggregate::of(rs, |r| r.lifecycle_spawns as f64).mean),
            fmt_f(Aggregate::of(rs, |r| r.lifecycle_despawns as f64).mean),
            fmt_f(Aggregate::of(rs, |r| (r.joins + r.leaves) as f64 / (r.duration_s / 60.0)).mean),
            fmt_f(Aggregate::of(rs, |r| r.latency_p95_ms).mean),
        ]);
    }
    ExperimentResult::table_only(table)
}

// --- G4: multi-ego demand ---

/// G4 — concurrent query origins contending for the helper pool.
pub fn g4() -> FnWorkload<MultiEgoConfig, ScenarioReport> {
    FnWorkload {
        name: "g4",
        title: "multi-ego demand (concurrent query origins, per-ego grids)",
        spec: g4_spec,
        run: run_multi_ego,
        metrics: multi_ego_metrics,
        tabulate: g4_tabulate,
        observe: Some(observe_multi_ego),
    }
}

fn g4_spec(quick: bool) -> SweepSpec<MultiEgoConfig> {
    let egos: &[usize] = if quick { &[1, 2] } else { &[1, 2, 3] };
    let families: Vec<FamilyKind> = if quick {
        vec![FamilyKind::Grid(GridParams::default())]
    } else {
        vec![
            FamilyKind::Grid(GridParams::default()),
            airdnd_worldgen::find("roundabout")
                .expect("registered")
                .kind,
        ]
    };
    let base = MultiEgoConfig {
        gen: GenConfig {
            family: FamilyKind::Grid(GridParams::default()),
            profile: FleetProfile {
                vehicles: 14,
                parked: 2,
                arrival_window_s: 20.0,
            },
            demand: DemandKind::Steady,
            scenario: GenConfig::quick_or(quick, 40),
        },
        egos: 1,
    };
    SweepSpec::new(base)
        .axis_labeled(
            "family",
            families,
            |f| f.label().to_owned(),
            |cfg, &f| cfg.gen.family = f,
        )
        .axis("egos", egos.to_vec(), |cfg, &n| cfg.egos = n)
        .replicates(replicates(quick))
        .seed_mode(SeedMode::PerReplicate)
        .base_seed(116)
        .seed_with(|cfg, seed| cfg.gen.scenario.seed = seed)
}

fn g4_tabulate(
    manifest: &Manifest<MultiEgoConfig>,
    results: &[ScenarioReport],
) -> ExperimentResult {
    let mut table = Table::new(
        "G4",
        "multi-ego demand (concurrent query origins, per-ego grids)",
        &[
            "family",
            "egos",
            "tasks",
            "done %",
            "±95",
            "worst ego %",
            "spread",
            "worst p50 ms",
            "worst p95 ms",
            "coverage %",
            "kB/view",
        ],
    );
    for cell in 0..manifest.cell_count {
        let plans = manifest.cell_runs(cell);
        let rs = manifest.cell_results(results, cell);
        let done = Aggregate::of(rs, |r| r.completion_rate * 100.0);
        table.row(vec![
            plans[0].labels[0].clone(),
            plans[0].labels[1].clone(),
            fmt_f(Aggregate::of(rs, |r| r.tasks_submitted as f64).mean),
            fmt_f(done.mean),
            fmt_ci(&done),
            fmt_f(Aggregate::of(rs, |r| r.ego_completion_min * 100.0).mean),
            fmt_f(Aggregate::of(rs, |r| r.ego_completion_spread * 100.0).mean),
            fmt_f(Aggregate::of(rs, |r| r.ego_p50_worst_ms).mean),
            fmt_f(Aggregate::of(rs, |r| r.ego_p95_worst_ms).mean),
            fmt_f(Aggregate::of(rs, |r| r.mean_coverage * 100.0).mean),
            fmt_f(Aggregate::of(rs, |r| r.bytes_per_task / 1_000.0).mean),
        ]);
    }
    ExperimentResult::table_only(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shapes() {
        assert_eq!(g3_spec(true).manifest().len(), 2 * 2);
        assert_eq!(
            g3_spec(false).manifest().len(),
            3 * 3 * super::super::scenario::FULL_REPLICATES
        );
        assert_eq!(g4_spec(true).manifest().len(), 2);
        assert_eq!(
            g4_spec(false).manifest().len(),
            2 * 3 * super::super::scenario::FULL_REPLICATES
        );
    }

    /// One churned quick cell end-to-end: membership really changes
    /// mid-run and the run still completes tasks.
    #[test]
    fn g3_churn_changes_membership_mid_run() {
        let manifest = g3_spec(true).manifest();
        // Cell order: (grid, heavy), (grid, none), (bridge, heavy), ...
        let churned = run_lifecycle(&manifest.runs[0]);
        let calm = run_lifecycle(&manifest.runs[1]);
        assert_eq!(calm.lifecycle_spawns + calm.lifecycle_despawns, 0);
        assert!(
            churned.lifecycle_spawns > 0 && churned.lifecycle_despawns > 0,
            "heavy churn must spawn and despawn: {} / {}",
            churned.lifecycle_spawns,
            churned.lifecycle_despawns
        );
        assert!(churned.tasks_submitted > 5);
    }

    /// The second query origin adds real demand on a generated world.
    #[test]
    fn g4_second_ego_adds_demand() {
        let manifest = g4_spec(true).manifest();
        let single = run_multi_ego(&manifest.runs[0]);
        let dual = run_multi_ego(&manifest.runs[1]);
        assert_eq!(single.egos, 1);
        assert_eq!(dual.egos, 2);
        assert!(
            dual.tasks_submitted > single.tasks_submitted,
            "{} vs {}",
            dual.tasks_submitted,
            single.tasks_submitted
        );
    }
}
