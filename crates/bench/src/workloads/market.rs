//! Market workloads: a synthetic allocation market with swappable
//! mechanisms, driving experiments T6 (mechanism comparison) and F12
//! (async-vs-sync ablation).
//!
//! The `&mut dyn Assigner` mechanism choice is expressed as the
//! [`MechanismKind`] enum axis: configs stay plain serializable data, and
//! each run *builds* its mechanism from the enum — which is what lets the
//! market experiments ride the same generic harness (threads, shards,
//! aggregates) as the scenario sweeps.
//!
//! A pool of heterogeneous executors receives a Poisson stream of tasks;
//! the mechanism under test picks executor(s) per task; completions follow
//! the executors' (drained) backlogs plus the mechanism's decision
//! latency. Everything is deterministic per seed, so mechanism rows are
//! directly comparable.

use airdnd_baselines::{
    Assigner, CandidateInfo, CodedAssigner, DoubleAuctionAssigner, GreedyComputeAssigner,
    RandomAssigner, ScoreAssigner, SmartContractAssigner, SyncRoundAssigner,
};
use airdnd_harness::{
    fmt_ci, fmt_f, Aggregate, ExperimentResult, FnWorkload, Manifest, RunPlan, SeedMode, SweepSpec,
    Table,
};
use airdnd_radio::NodeAddr;
use airdnd_scenario::{EventKind, RunTelemetry, Scope, TelemetryOptions};
use airdnd_sim::{SimDuration, SimRng, SimTime};
use airdnd_task::{Program, ResourceRequirements, TaskId, TaskSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An allocation mechanism, as sweepable configuration data. Each run
/// builds the actual [`Assigner`] from this enum.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum MechanismKind {
    /// AirDnD's asynchronous multi-criteria scoring.
    Score,
    /// Highest advertised compute rate wins.
    GreedyCompute,
    /// Uniform random feasible candidate (seeded).
    Random {
        /// Seed of the mechanism's own RNG.
        rng_seed: u64,
    },
    /// Sealed-bid double auction.
    DoubleAuction,
    /// On-chain allocation paying a block interval per decision.
    SmartContract,
    /// Coded computation over `shards` executors, `min_results` needed.
    Coded {
        /// Executors each task is split across.
        shards: usize,
        /// Earliest finishes required to reconstruct the result.
        min_results: usize,
    },
    /// Synchronous allocation rounds every `period_ms` (the F12 baseline).
    SyncRounds {
        /// Round period, milliseconds.
        period_ms: u64,
    },
}

impl MechanismKind {
    /// Builds the mechanism this configuration describes.
    pub fn build(&self) -> Box<dyn Assigner> {
        match *self {
            MechanismKind::Score => Box::new(ScoreAssigner),
            MechanismKind::GreedyCompute => Box::new(GreedyComputeAssigner),
            MechanismKind::Random { rng_seed } => {
                Box::new(RandomAssigner::new(SimRng::seed_from(rng_seed)))
            }
            MechanismKind::DoubleAuction => Box::new(DoubleAuctionAssigner::default()),
            MechanismKind::SmartContract => Box::new(SmartContractAssigner::default()),
            MechanismKind::Coded {
                shards,
                min_results,
            } => Box::new(CodedAssigner::new(shards, min_results)),
            MechanismKind::SyncRounds { period_ms } => {
                Box::new(SyncRoundAssigner::new(SimDuration::from_millis(period_ms)))
            }
        }
    }

    /// The mechanism's table label (its [`Assigner::name`]).
    pub fn label(&self) -> String {
        self.build().name().to_owned()
    }
}

/// One market run: mechanism, seed and workload size.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MarketConfig {
    /// The mechanism under test.
    pub mechanism: MechanismKind,
    /// Seed of the market's task stream and executor pool.
    pub seed: u64,
    /// Executor-pool size.
    pub candidates: usize,
    /// Tasks offered.
    pub tasks: usize,
}

/// Aggregate results of one market simulation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MarketStats {
    /// Fraction of tasks that received an executor.
    pub allocated_fraction: f64,
    /// Mean completion latency (decision + queueing + execution), seconds.
    pub mean_completion_s: f64,
    /// 95th-percentile completion latency, seconds.
    pub p95_completion_s: f64,
    /// Control-plane messages per task.
    pub control_msgs_per_task: f64,
    /// Jain fairness of gas assigned across executors.
    pub fairness: f64,
}

/// Runs `n_tasks` through `mechanism` over a pool of `n_candidates`.
pub fn market_sim(
    mechanism: &mut dyn Assigner,
    seed: u64,
    n_candidates: usize,
    n_tasks: usize,
) -> MarketStats {
    market_sim_observed(
        mechanism,
        seed,
        n_candidates,
        n_tasks,
        &mut RunTelemetry::disabled(),
    )
}

/// [`market_sim`] recording the task stream into `telemetry`: demand
/// fires, submissions, per-executor offloads, completions and the
/// unallocated tasks as expiries (ego 0 is the market's single origin).
/// Telemetry never feeds back, so the returned stats are byte-identical
/// to [`market_sim`]'s.
pub fn market_sim_observed(
    mechanism: &mut dyn Assigner,
    seed: u64,
    n_candidates: usize,
    n_tasks: usize,
    telemetry: &mut RunTelemetry,
) -> MarketStats {
    let mut rng = SimRng::seed_from(seed);
    // Heterogeneous executor pool.
    let mut gas_rates = BTreeMap::new();
    let mut backlogs: BTreeMap<u64, f64> = BTreeMap::new();
    let mut assigned_gas: BTreeMap<u64, f64> = BTreeMap::new();
    for i in 0..n_candidates {
        let id = i as u64 + 1;
        gas_rates.insert(id, 500_000.0 + rng.next_f64() * 3_500_000.0);
        backlogs.insert(id, 0.0);
        assigned_gas.insert(id, 0.0);
    }
    let links: BTreeMap<u64, f64> = gas_rates
        .keys()
        .map(|&id| (id, 0.5 + rng.next_f64() * 0.5))
        .collect();
    let trusts: BTreeMap<u64, f64> = gas_rates
        .keys()
        .map(|&id| (id, 0.5 + rng.next_f64() * 0.45))
        .collect();

    let mut now_s = 0.0f64;
    let mut completions = Vec::new();
    let mut allocated = 0usize;
    let mut control_msgs = 0u64;
    for t in 0..n_tasks {
        let dt = rng.exp(0.2); // mean 200 ms between arrivals
        now_s += dt;
        let now = SimTime::from_secs_f64(now_s);
        telemetry.event(
            now,
            0,
            EventKind::DemandFire {
                ego: 0,
                task: t as u64,
            },
        );
        telemetry.event(
            now,
            0,
            EventKind::TaskSubmit {
                task: t as u64,
                ego: 0,
            },
        );
        telemetry.metrics.inc("tasks_submitted", Scope::Ego(0));
        // Backlogs drain while time passes.
        for (id, backlog) in backlogs.iter_mut() {
            *backlog = (*backlog - gas_rates[id] * dt).max(0.0);
        }
        let gas = 500_000.0 + rng.next_f64() * 1_500_000.0;
        let task = TaskSpec::new(
            TaskId::new(t as u64),
            "market",
            Program::new(vec![airdnd_task::Instr::Halt], 0),
        )
        .with_requirements(ResourceRequirements {
            gas: gas as u64,
            deadline: SimDuration::from_secs(3),
            ..Default::default()
        });
        let candidates: Vec<CandidateInfo> = gas_rates
            .iter()
            .map(|(&id, &rate)| CandidateInfo {
                addr: NodeAddr::new(id),
                gas_rate: rate as u64,
                gas_backlog: backlogs[&id] as u64,
                link_quality: links[&id],
                has_data: true,
                trust: trusts[&id],
            })
            .collect();
        let Some(assignment) = mechanism.assign(&task, &candidates, now) else {
            telemetry.event(
                now,
                0,
                EventKind::TaskExpire {
                    task: t as u64,
                    ego: 0,
                },
            );
            telemetry.metrics.inc("tasks_failed", Scope::Ego(0));
            continue;
        };
        allocated += 1;
        control_msgs += assignment.control_messages;
        let decision_s = assignment.decision_latency.as_secs_f64();
        // Each chosen executor queues the full task; completion is the
        // min_results-th earliest finish.
        let mut finishes: Vec<f64> = assignment
            .executors
            .iter()
            .map(|addr| {
                let id = addr.raw();
                let rate = gas_rates[&id];
                let backlog = backlogs.get_mut(&id).expect("known executor");
                *backlog += gas;
                *assigned_gas.get_mut(&id).expect("known executor") += gas;
                decision_s + *backlog / rate
            })
            .collect();
        for addr in &assignment.executors {
            telemetry.event(
                now,
                0,
                EventKind::TaskOffload {
                    task: t as u64,
                    executor: addr.raw() as u32,
                },
            );
        }
        finishes.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let k = assignment.min_results.clamp(1, finishes.len());
        let completion_s = finishes[k - 1];
        telemetry.event(
            SimTime::from_secs_f64(now_s + completion_s),
            0,
            EventKind::TaskComplete {
                task: t as u64,
                ego: 0,
                latency_us: (completion_s * 1.0e6) as u64,
            },
        );
        telemetry.metrics.inc("tasks_completed", Scope::Ego(0));
        telemetry.metrics.observe_us(
            "task_latency_us",
            Scope::Ego(0),
            (completion_s * 1.0e6) as u64,
        );
        completions.push(completion_s);
    }
    let fairness_input: Vec<f64> = assigned_gas.values().copied().collect();
    MarketStats {
        allocated_fraction: allocated as f64 / n_tasks as f64,
        mean_completion_s: if completions.is_empty() {
            0.0
        } else {
            completions.iter().sum::<f64>() / completions.len() as f64
        },
        p95_completion_s: airdnd_sim::percentile(&completions, 0.95).unwrap_or(0.0),
        control_msgs_per_task: control_msgs as f64 / n_tasks.max(1) as f64,
        fairness: airdnd_sim::stats::jain_fairness(&fairness_input),
    }
}

/// A market experiment: a grid of [`market_sim`] calls plus a table.
pub type MarketWorkload = FnWorkload<MarketConfig, MarketStats>;

fn run(plan: &RunPlan<MarketConfig>) -> MarketStats {
    let cfg = &plan.config;
    let mut mechanism = cfg.mechanism.build();
    market_sim(mechanism.as_mut(), cfg.seed, cfg.candidates, cfg.tasks)
}

fn observe_market(plan: &RunPlan<MarketConfig>, opts: TelemetryOptions) -> RunTelemetry {
    let cfg = &plan.config;
    let mut mechanism = cfg.mechanism.build();
    let mut telemetry = RunTelemetry::with(opts);
    market_sim_observed(
        mechanism.as_mut(),
        cfg.seed,
        cfg.candidates,
        cfg.tasks,
        &mut telemetry,
    );
    telemetry
}

/// The market metrics aggregated per grid cell in sweep reports.
pub fn market_metrics(stats: &MarketStats) -> Vec<(&'static str, f64)> {
    vec![
        ("allocated_fraction", stats.allocated_fraction),
        ("mean_completion_s", stats.mean_completion_s),
        ("p95_completion_s", stats.p95_completion_s),
        ("control_msgs_per_task", stats.control_msgs_per_task),
        ("fairness", stats.fairness),
    ]
}

fn market_base(quick: bool, seed: u64) -> MarketConfig {
    MarketConfig {
        mechanism: MechanismKind::Score,
        seed,
        candidates: 20,
        tasks: if quick { 300 } else { 2000 },
    }
}

use super::full_mode_replicates as replicates;

// --- T6: allocation-mechanism comparison on an identical market ---

/// T6 — allocator comparison over the mechanism axis.
pub fn t6() -> MarketWorkload {
    FnWorkload {
        name: "t6",
        title: "allocator comparison (identical workload)",
        spec: t6_spec,
        run,
        metrics: market_metrics,
        tabulate: t6_tabulate,
        observe: Some(observe_market),
    }
}

fn t6_spec(quick: bool) -> SweepSpec<MarketConfig> {
    let mechanisms = vec![
        MechanismKind::Score,
        MechanismKind::GreedyCompute,
        MechanismKind::Random { rng_seed: 61 },
        MechanismKind::DoubleAuction,
        MechanismKind::SmartContract,
        MechanismKind::Coded {
            shards: 3,
            min_results: 2,
        },
    ];
    // Common random numbers: every mechanism sees the identical task
    // stream and executor pool, which is what makes rows comparable.
    SweepSpec::new(market_base(quick, 0))
        .axis_labeled(
            "mechanism",
            mechanisms,
            MechanismKind::label,
            |cfg, &kind| cfg.mechanism = kind,
        )
        .replicates(replicates(quick))
        .seed_mode(SeedMode::PerReplicate)
        .base_seed(106)
        .seed_with(|cfg, seed| cfg.seed = seed)
}

fn t6_tabulate(manifest: &Manifest<MarketConfig>, results: &[MarketStats]) -> ExperimentResult {
    let mut table = Table::new(
        "T6",
        "allocator comparison (identical workload)",
        &[
            "mechanism",
            "alloc %",
            "mean s",
            "±95",
            "p95 s",
            "ctrl msgs/task",
            "fairness",
        ],
    );
    for cell in 0..manifest.cell_count {
        let plans = manifest.cell_runs(cell);
        let rs = manifest.cell_results(results, cell);
        let mean_s = Aggregate::of(rs, |r| r.mean_completion_s);
        table.row(vec![
            plans[0].labels[0].clone(),
            fmt_f(Aggregate::of(rs, |r| r.allocated_fraction * 100.0).mean),
            fmt_f(mean_s.mean),
            fmt_ci(&mean_s),
            fmt_f(Aggregate::of(rs, |r| r.p95_completion_s).mean),
            fmt_f(Aggregate::of(rs, |r| r.control_msgs_per_task).mean),
            fmt_f(Aggregate::of(rs, |r| r.fairness).mean),
        ]);
    }
    ExperimentResult::table_only(table)
}

// --- F12: the asynchrony ablation — async vs synchronous rounds ---

/// F12 — asynchronous orchestration vs synchronous rounds.
pub fn f12() -> MarketWorkload {
    FnWorkload {
        name: "f12",
        title: "asynchronous orchestration vs synchronous rounds",
        spec: f12_spec,
        run,
        metrics: market_metrics,
        tabulate: f12_tabulate,
        observe: Some(observe_market),
    }
}

fn f12_spec(quick: bool) -> SweepSpec<MarketConfig> {
    let periods: &[u64] = if quick {
        &[250, 1000]
    } else {
        &[100, 250, 500, 1000]
    };
    let mut modes = vec![MechanismKind::Score];
    modes.extend(
        periods
            .iter()
            .map(|&period_ms| MechanismKind::SyncRounds { period_ms }),
    );
    SweepSpec::new(market_base(quick, 0))
        .axis_labeled(
            "mode",
            modes,
            |kind| match kind {
                MechanismKind::Score => "async (airdnd)".to_owned(),
                MechanismKind::SyncRounds { period_ms } => format!("sync {period_ms} ms"),
                other => other.label(),
            },
            |cfg, &kind| cfg.mechanism = kind,
        )
        .replicates(replicates(quick))
        .seed_mode(SeedMode::PerReplicate)
        .base_seed(112)
        .seed_with(|cfg, seed| cfg.seed = seed)
}

fn f12_tabulate(manifest: &Manifest<MarketConfig>, results: &[MarketStats]) -> ExperimentResult {
    let mut table = Table::new(
        "F12",
        "asynchronous orchestration vs synchronous rounds",
        &["mode", "alloc %", "mean s", "±95", "p95 s"],
    );
    for cell in 0..manifest.cell_count {
        let plans = manifest.cell_runs(cell);
        let rs = manifest.cell_results(results, cell);
        let mean_s = Aggregate::of(rs, |r| r.mean_completion_s);
        table.row(vec![
            plans[0].labels[0].clone(),
            fmt_f(Aggregate::of(rs, |r| r.allocated_fraction * 100.0).mean),
            fmt_f(mean_s.mean),
            fmt_ci(&mean_s),
            fmt_f(Aggregate::of(rs, |r| r.p95_completion_s).mean),
        ]);
    }
    ExperimentResult::table_only(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use airdnd_baselines::{GreedyComputeAssigner, ScoreAssigner, SmartContractAssigner};

    #[test]
    fn market_is_deterministic() {
        let a = market_sim(&mut ScoreAssigner, 5, 10, 200);
        let b = market_sim(&mut ScoreAssigner, 5, 10, 200);
        assert_eq!(a.mean_completion_s, b.mean_completion_s);
        assert_eq!(a.allocated_fraction, b.allocated_fraction);
    }

    #[test]
    fn smart_contract_pays_its_block_interval() {
        let fast = market_sim(&mut GreedyComputeAssigner, 6, 10, 300);
        let chained = market_sim(&mut SmartContractAssigner::default(), 6, 10, 300);
        assert!(
            chained.mean_completion_s > fast.mean_completion_s + 1.5,
            "block interval must show up: {} vs {}",
            chained.mean_completion_s,
            fast.mean_completion_s
        );
    }

    #[test]
    fn greedy_beats_nothing_and_allocates_everything() {
        let stats = market_sim(&mut GreedyComputeAssigner, 7, 10, 300);
        assert_eq!(stats.allocated_fraction, 1.0);
        assert!(stats.mean_completion_s > 0.0);
        assert!(stats.fairness > 0.0 && stats.fairness <= 1.0);
    }

    /// The enum axis builds the same mechanisms the old hand-rolled T6
    /// loop constructed, and every grid cell shares one seed (common
    /// random numbers) so rows stay comparable.
    #[test]
    fn mechanism_axis_is_faithful() {
        let manifest = t6_spec(true).manifest();
        assert_eq!(manifest.len(), 6);
        let labels: Vec<&str> = manifest.runs.iter().map(|r| r.labels[0].as_str()).collect();
        assert!(labels.contains(&"airdnd"), "{labels:?}");
        let seeds: Vec<u64> = manifest.runs.iter().map(|r| r.config.seed).collect();
        assert!(
            seeds.windows(2).all(|w| w[0] == w[1]),
            "mechanism rows must share the market seed"
        );
    }

    /// Full-mode T6/F12 run seed replicates per mechanism cell (the
    /// ROADMAP "extend replicate CIs to the market axis" item); replicate
    /// *k* still shares one seed across cells (common random numbers).
    #[test]
    fn full_mode_market_grids_carry_replicates() {
        let t6 = t6_spec(false).manifest();
        assert_eq!(t6.len(), 6 * super::super::scenario::FULL_REPLICATES);
        assert_eq!(t6.replicates, super::super::scenario::FULL_REPLICATES);
        let f12 = f12_spec(false).manifest();
        assert_eq!(f12.len(), 5 * super::super::scenario::FULL_REPLICATES);
        // CRN across cells, per replicate.
        for cell in 1..t6.cell_count {
            for rep in 0..t6.replicates {
                assert_eq!(t6.cell_runs(cell)[rep].seed, t6.cell_runs(0)[rep].seed);
            }
        }
        assert_ne!(t6.cell_runs(0)[0].seed, t6.cell_runs(0)[1].seed);
        // Quick mode stays single-shot so CI finishes in seconds.
        assert_eq!(t6_spec(true).manifest().replicates, 1);
        assert_eq!(f12_spec(true).manifest().replicates, 1);
    }

    /// The T6/F12 tables carry a `±95` confidence column like F1/F2/F4/F7:
    /// present in the header, populated (not `-`) in full mode where every
    /// cell has ≥ 2 replicates, and deterministic across renders.
    #[test]
    fn market_tables_render_replicate_cis() {
        let run_all = |manifest: &Manifest<MarketConfig>| -> Vec<MarketStats> {
            manifest.runs.iter().map(run).collect()
        };
        let t6_manifest = t6_spec(false).manifest();
        let t6_results = run_all(&t6_manifest);
        let rendered = t6_tabulate(&t6_manifest, &t6_results).table;
        assert!(rendered.columns.contains(&"±95".to_owned()));
        assert_eq!(rendered.rows.len(), t6_manifest.cell_count);
        let ci_col = rendered.columns.iter().position(|c| c == "±95").unwrap();
        for row in &rendered.rows {
            assert_ne!(row[ci_col], "-", "full-mode cells must show an interval");
        }
        // Deterministic: re-running the whole pipeline reproduces the bytes.
        let again = t6_tabulate(&t6_manifest, &run_all(&t6_manifest)).table;
        assert_eq!(rendered.render(), again.render());

        let f12_manifest = f12_spec(false).manifest();
        let f12_table = f12_tabulate(&f12_manifest, &run_all(&f12_manifest)).table;
        assert!(f12_table.columns.contains(&"±95".to_owned()));
        assert_eq!(f12_table.rows.len(), f12_manifest.cell_count);
    }
}
