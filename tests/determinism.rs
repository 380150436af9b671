//! Determinism regression tests — the contract every experiment artifact
//! rests on:
//!
//! 1. `run_scenario` is a pure function of its config: the same
//!    `ScenarioConfig` yields an identical `ScenarioReport`, down to the
//!    serialized JSON bytes.
//! 2. The sweep harness adds parallelism *between* runs only: a sweep
//!    executed with `threads = 1` and `threads = N` produces byte-identical
//!    results and artifacts.
//! 3. Sharding is just another axis of the same contract: a sweep split
//!    with `--shard i/n`, serialized across a process boundary and merged
//!    back, is byte-identical to the unsharded run (JSON and CSV reports
//!    and the rendered table alike).

use airdnd::harness::summarize_cells;
use airdnd::harness::{
    parse_shard, render_csv, render_json, render_shard, run_sweep, AnyWorkload, ExperimentResult,
    FnWorkload, SeedMode, Shard, SweepReport, SweepSpec, Table,
};
use airdnd::scenario::{run_scenario, ScenarioConfig, ScenarioReport, Strategy};
use airdnd::sim::SimDuration;

fn quick_base() -> ScenarioConfig {
    ScenarioConfig::default()
        .with_vehicles(6)
        .with_duration(SimDuration::from_secs(10))
}

#[test]
fn same_config_same_report_json() {
    let cfg = quick_base().seeded(2024);
    let a = serde_json::to_string_pretty(&run_scenario(cfg)).expect("report serializes");
    let b = serde_json::to_string_pretty(&run_scenario(cfg)).expect("report serializes");
    assert!(!a.is_empty());
    assert_eq!(a, b, "same ScenarioConfig must serialize to identical JSON");
}

fn scenario_sweep() -> airdnd::harness::Manifest<ScenarioConfig> {
    SweepSpec::new(quick_base())
        .axis("vehicles", [4usize, 6], |cfg, &n| cfg.vehicles = n)
        .axis_labeled(
            "strategy",
            vec![Strategy::Airdnd, Strategy::LocalOnly],
            |s| s.label().to_owned(),
            |cfg, &s| cfg.strategy = s,
        )
        .replicates(2)
        .seed_mode(SeedMode::PerReplicate)
        .base_seed(7)
        .seed_with(|cfg, seed| cfg.seed = seed)
        .manifest()
}

#[test]
fn sweep_single_threaded_equals_parallel_byte_for_byte() {
    let manifest = scenario_sweep();
    let seq = run_sweep(&manifest, 1, |plan| run_scenario(plan.config));
    let par = run_sweep(&manifest, 4, |plan| run_scenario(plan.config));
    assert_eq!(seq.threads, 1);

    // Every run's full report — not just summary statistics — must match.
    let seq_json: Vec<String> = seq
        .results
        .iter()
        .map(|r| serde_json::to_string_pretty(r).expect("serializes"))
        .collect();
    let par_json: Vec<String> = par
        .results
        .iter()
        .map(|r| serde_json::to_string_pretty(r).expect("serializes"))
        .collect();
    assert_eq!(
        seq_json, par_json,
        "threads=1 and threads=4 must agree run-for-run"
    );

    // And the rendered sweep artifacts (JSON + CSV) must be byte-identical.
    let report = |results: &[ScenarioReport]| SweepReport {
        name: "determinism".into(),
        title: "determinism regression sweep".into(),
        axis_names: manifest.axis_names.clone(),
        replicates: manifest.replicates,
        base_seed: manifest.base_seed,
        cells: summarize_cells(&manifest, results, |r| {
            vec![
                ("completion_rate", r.completion_rate),
                ("latency_p95_ms", r.latency_p95_ms),
                ("mesh_bytes", r.mesh_bytes as f64),
                ("mean_coverage", r.mean_coverage),
            ]
        }),
    };
    assert_eq!(
        render_json(&report(&seq.results)),
        render_json(&report(&par.results))
    );
    assert_eq!(
        render_csv(&report(&seq.results)),
        render_csv(&report(&par.results))
    );
}

/// The determinism sweep as a full [`FnWorkload`], so the shard test
/// exercises the exact code path `sweep --shard i/n` / `--merge` uses.
fn scenario_workload() -> FnWorkload<ScenarioConfig, ScenarioReport> {
    FnWorkload {
        name: "determinism",
        title: "determinism regression sweep",
        spec: |_quick| {
            SweepSpec::new(quick_base())
                .axis("vehicles", [4usize, 6], |cfg, &n| cfg.vehicles = n)
                .axis_labeled(
                    "strategy",
                    vec![Strategy::Airdnd, Strategy::LocalOnly],
                    |s| s.label().to_owned(),
                    |cfg, &s| cfg.strategy = s,
                )
                .replicates(2)
                .seed_mode(SeedMode::PerReplicate)
                .base_seed(7)
                .seed_with(|cfg, seed| cfg.seed = seed)
        },
        run: |plan| run_scenario(plan.config),
        metrics: |r| {
            vec![
                ("completion_rate", r.completion_rate),
                ("latency_p95_ms", r.latency_p95_ms),
                ("mesh_bytes", r.mesh_bytes as f64),
                ("mean_coverage", r.mean_coverage),
            ]
        },
        tabulate: |manifest, results| {
            let mut table = Table::new("D", "determinism", &["labels", "done", "p95"]);
            for (plan, r) in manifest.runs.iter().zip(results) {
                table.row(vec![
                    plan.labels.join("/"),
                    format!("{:.12}", r.completion_rate),
                    format!("{:.12}", r.latency_p95_ms),
                ]);
            }
            ExperimentResult::table_only(table)
        },
        observe: None,
    }
}

#[test]
fn two_shards_merged_equal_the_unsharded_run_byte_for_byte() {
    let workload = scenario_workload();
    let unsharded = workload.execute(true, 2, &mut |_| {});

    let mut artifacts = Vec::new();
    for index in 0..2 {
        let artifact = workload.execute_shard(true, 2, Shard::new(index, 2), &mut |_| {});
        // Cross the process boundary the real `sweep --shard` crosses:
        // serialize the shard to JSON text and parse it back.
        artifacts.push(parse_shard(&render_shard(&artifact)).expect("artifact round-trips"));
    }
    // Merge order must not matter.
    artifacts.reverse();
    let merged = workload
        .merge_shards(true, &artifacts)
        .expect("shards merge");

    assert_eq!(
        unsharded.result.table.render(),
        merged.result.table.render(),
        "sharded + merged table must match the unsharded run"
    );
    assert_eq!(
        render_json(&unsharded.aggregate),
        render_json(&merged.aggregate),
        "sharded + merged JSON report must be byte-identical"
    );
    assert_eq!(
        render_csv(&unsharded.aggregate),
        render_csv(&merged.aggregate),
        "sharded + merged CSV report must be byte-identical"
    );
}

#[test]
fn derived_seeds_actually_vary_the_runs() {
    // Guard against a harness regression where seed_with silently stops
    // installing seeds: the two replicates of a cell must differ.
    let manifest = scenario_sweep();
    let outcome = run_sweep(&manifest, 0, |plan| run_scenario(plan.config));
    let first = &outcome.results[0];
    let second = &outcome.results[1];
    assert_ne!(
        serde_json::to_string(&first.latencies_ms).expect("serializes"),
        serde_json::to_string(&second.latencies_ms).expect("serializes"),
        "replicates with different seeds must not produce identical traces"
    );
}
