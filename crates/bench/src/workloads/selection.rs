//! F10 — orchestrator scalability: `score_candidates` cost vs mesh size.
//!
//! The one workload whose report is *not* a pure function of its config:
//! it measures wall-clock microseconds per selection decision, so rows
//! vary run to run and the byte-identity guarantees the other workloads
//! enjoy (threads=1 ≡ threads=N, sharded ≡ unsharded) deliberately do not
//! apply to its table. It still rides the generic harness for gridding,
//! registry and reporting; `candidates_ranked` stays deterministic.

use airdnd_core::{score_candidates, OrchestratorConfig};
use airdnd_data::{DataCatalog, DataQuery, DataType, QualityDescriptor};
use airdnd_geo::Vec2;
use airdnd_harness::{fmt_f, ExperimentResult, FnWorkload, Manifest, RunPlan, SweepSpec, Table};
use airdnd_mesh::{MemberDescriptor, MeshDescriptor, NodeAdvert};
use airdnd_radio::NodeAddr;
use airdnd_sim::{SimDuration, SimRng, SimTime};
use airdnd_task::{Program, ResourceRequirements, TaskId, TaskSpec};
use airdnd_trust::ReputationTable;
use serde::{Deserialize, Serialize};

/// One micro-benchmark point: mesh size and timing-loop length.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct SelectionBenchConfig {
    /// Synthetic mesh size (candidates to rank).
    pub members: usize,
    /// Timed `score_candidates` iterations.
    pub iterations: usize,
    /// Seed of the synthetic mesh.
    pub mesh_seed: u64,
}

/// One micro-benchmark measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SelectionBenchReport {
    /// Mesh size the point ranked.
    pub members: usize,
    /// Wall-clock microseconds per selection decision (environment-
    /// dependent; excluded from determinism guarantees).
    pub micros_per_decision: f64,
    /// Mean candidates ranked per decision (deterministic).
    pub candidates_ranked: f64,
}

/// A selection micro-benchmark workload.
pub type SelectionWorkload = FnWorkload<SelectionBenchConfig, SelectionBenchReport>;

/// F10 — node-selection cost vs mesh size.
pub fn f10() -> SelectionWorkload {
    FnWorkload {
        name: "f10",
        title: "node-selection cost vs mesh size (wall clock)",
        spec: f10_spec,
        run,
        metrics: f10_metrics,
        tabulate: f10_tabulate,
        observe: None,
    }
}

fn f10_spec(quick: bool) -> SweepSpec<SelectionBenchConfig> {
    let sweep: &[usize] = if quick {
        &[10, 100]
    } else {
        &[10, 50, 100, 250, 500]
    };
    SweepSpec::new(SelectionBenchConfig {
        members: 0,
        iterations: if quick { 200 } else { 1000 },
        mesh_seed: 77,
    })
    .axis("members", sweep.to_vec(), |cfg, &n| cfg.members = n)
    .base_seed(110)
}

fn synthetic_mesh(n: usize, seed: u64, now: SimTime) -> MeshDescriptor {
    let mut rng = SimRng::seed_from(seed);
    let members = (0..n)
        .map(|i| {
            let mut catalog = DataCatalog::new(4);
            catalog.insert(
                DataType::OccupancyGrid,
                Vec::new(),
                QualityDescriptor::basic(now, 0.9, 1.0),
            );
            MemberDescriptor {
                addr: NodeAddr::new(i as u64 + 10),
                pos: Vec2::new(
                    rng.next_f64() * 400.0 - 200.0,
                    rng.next_f64() * 400.0 - 200.0,
                ),
                velocity: Vec2::new(rng.next_f64() * 20.0 - 10.0, 0.0),
                link_quality: 0.5 + rng.next_f64() * 0.5,
                advert: NodeAdvert {
                    gas_rate: 500_000 + (rng.next_f64() * 3_500_000.0) as u64,
                    gas_backlog: (rng.next_f64() * 2_000_000.0) as u64,
                    mem_free_bytes: 1 << 30,
                    accepting: true,
                    catalog: catalog.summarize(),
                },
                info_age: SimDuration::from_millis(100),
            }
        })
        .collect();
    MeshDescriptor {
        generated_at: now,
        local: NodeAddr::new(1),
        local_pos: Vec2::ZERO,
        members,
        churn_per_sec: 0.5,
    }
}

fn run(plan: &RunPlan<SelectionBenchConfig>) -> SelectionBenchReport {
    let cfg = &plan.config;
    let now = SimTime::from_secs(1);
    let task = TaskSpec::new(
        TaskId::new(1),
        "t",
        Program::new(vec![airdnd_task::Instr::Halt], 0),
    )
    .with_input(DataQuery::of_type(DataType::OccupancyGrid))
    .with_requirements(ResourceRequirements {
        gas: 1_000_000,
        ..Default::default()
    });
    let trust = ReputationTable::default();
    let orch = OrchestratorConfig::default();
    let mesh = synthetic_mesh(cfg.members, cfg.mesh_seed, now);
    let start = std::time::Instant::now();
    let mut ranked_total = 0usize;
    for _ in 0..cfg.iterations {
        let scores = score_candidates(&task, &mesh, Vec2::ZERO, &trust, &orch, now);
        ranked_total += scores.len();
    }
    let micros = start.elapsed().as_micros() as f64 / cfg.iterations as f64;
    SelectionBenchReport {
        members: cfg.members,
        micros_per_decision: micros,
        candidates_ranked: ranked_total as f64 / cfg.iterations as f64,
    }
}

fn f10_metrics(report: &SelectionBenchReport) -> Vec<(&'static str, f64)> {
    vec![
        ("micros_per_decision", report.micros_per_decision),
        ("candidates_ranked", report.candidates_ranked),
    ]
}

fn f10_tabulate(
    _manifest: &Manifest<SelectionBenchConfig>,
    results: &[SelectionBenchReport],
) -> ExperimentResult {
    let mut table = Table::new(
        "F10",
        "node-selection cost vs mesh size (wall clock)",
        &["members", "µs/decision", "candidates ranked"],
    );
    for r in results {
        table.row(vec![
            r.members.to_string(),
            fmt_f(r.micros_per_decision),
            fmt_f(r.candidates_ranked),
        ]);
    }
    ExperimentResult::table_only(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use airdnd_harness::{AnyWorkload, Progress};

    /// The ranking itself (everything but the wall clock) is
    /// deterministic and covers the whole synthetic mesh.
    #[test]
    fn ranking_is_deterministic_and_complete() {
        let manifest = f10_spec(true).manifest();
        let a = run(&manifest.runs[0]);
        let b = run(&manifest.runs[0]);
        assert_eq!(a.candidates_ranked, b.candidates_ranked);
        assert_eq!(a.members, manifest.runs[0].config.members);
        assert!(a.candidates_ranked > 0.0);
    }

    #[test]
    fn executes_through_the_erased_registry_entry() {
        let output = f10().execute(true, 1, &mut |_: Progress| {});
        assert_eq!(output.name, "f10");
        assert_eq!(output.result.table.rows.len(), 2);
    }
}
