//! Harness internals: grid expansion, seed derivation, executor
//! determinism, aggregate math, and workload sharding/merging.

use airdnd_harness::{
    derive_seed, parse_shard, render_csv, render_json, render_shard, run_sweep, summarize_cells,
    Aggregate, AnyWorkload, ExperimentResult, FnWorkload, Manifest, RunPlan, Shard, SweepReport,
    SweepSpec, Table,
};
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, PartialEq)]
struct Cfg {
    a: usize,
    b: &'static str,
    seed: u64,
}

fn demo_spec() -> SweepSpec<Cfg> {
    SweepSpec::new(Cfg {
        a: 0,
        b: "-",
        seed: 0,
    })
    .axis("a", [1usize, 2, 3], |c, &v| c.a = v)
    .axis("b", ["x", "y"], |c, &v| c.b = v)
    .replicates(2)
    .base_seed(99)
    .seed_with(|c, s| c.seed = s)
}

#[test]
fn expansion_counts_and_order() {
    let m = demo_spec().manifest();
    assert_eq!(m.cell_count, 6);
    assert_eq!(m.replicates, 2);
    assert_eq!(m.len(), 12);
    assert_eq!(m.axis_names, vec!["a".to_string(), "b".to_string()]);
    // First axis slowest, replicates innermost.
    let coords: Vec<(usize, &str, usize)> = m
        .runs
        .iter()
        .map(|r| (r.config.a, r.config.b, r.replicate))
        .collect();
    assert_eq!(
        coords,
        vec![
            (1, "x", 0),
            (1, "x", 1),
            (1, "y", 0),
            (1, "y", 1),
            (2, "x", 0),
            (2, "x", 1),
            (2, "y", 0),
            (2, "y", 1),
            (3, "x", 0),
            (3, "x", 1),
            (3, "y", 0),
            (3, "y", 1),
        ]
    );
    for (i, run) in m.runs.iter().enumerate() {
        assert_eq!(run.run_index, i);
        assert_eq!(run.cell, i / 2);
        assert_eq!(
            run.labels,
            vec![run.config.a.to_string(), run.config.b.to_string()]
        );
        assert_eq!(
            run.seed, run.config.seed,
            "seed_with must install the derived seed"
        );
    }
}

#[test]
fn seed_derivation_is_stable_and_splittable() {
    // Pure function of (base, index): growing or reordering the grid never
    // changes existing runs' seeds.
    for index in [0u64, 1, 17, 1_000_000] {
        assert_eq!(derive_seed(7, index), derive_seed(7, index));
    }
    // Distinct inputs give distinct seeds (no accidental collisions among
    // small indices, the common case).
    let seeds: Vec<u64> = (0..64).map(|i| derive_seed(42, i)).collect();
    let mut dedup = seeds.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), seeds.len(), "low-index seeds must not collide");
    // Base seed matters.
    assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    // Pinned values: changing the derivation is a breaking change for every
    // recorded experiment, so it must be deliberate.
    assert_eq!(derive_seed(0, 0), 5161475226727719166);
    assert_eq!(derive_seed(42, 3), 14634866120107170114);
}

#[test]
fn per_replicate_seeds_are_common_across_cells() {
    // Common random numbers: replicate k draws the same seed in every grid
    // cell, so paired strategy comparisons see identical fleets.
    let m = demo_spec()
        .seed_mode(airdnd_harness::SeedMode::PerReplicate)
        .manifest();
    for cell in 1..m.cell_count {
        for rep in 0..m.replicates {
            assert_eq!(
                m.cell_runs(cell)[rep].seed,
                m.cell_runs(0)[rep].seed,
                "cell {cell} replicate {rep} must reuse cell 0's seed"
            );
        }
    }
    // Replicates still differ from each other.
    assert_ne!(m.cell_runs(0)[0].seed, m.cell_runs(0)[1].seed);
    // And the per-run default keeps every run independent.
    let per_run = demo_spec().manifest();
    assert_ne!(per_run.cell_runs(0)[0].seed, per_run.cell_runs(1)[0].seed);
}

#[test]
fn parallel_equals_sequential_byte_for_byte() {
    let manifest = demo_spec().manifest();
    // A runner whose output depends on everything a real scenario would
    // use: config, seed, and some float math.
    let runner = |plan: &airdnd_harness::RunPlan<Cfg>| {
        let x = (plan.seed % 1000) as f64 / 7.0 + plan.config.a as f64;
        (
            plan.run_index,
            format!("{}:{}:{:.9}", plan.config.b, plan.seed, x.sin()),
        )
    };
    let seq = run_sweep(&manifest, 1, runner);
    let par = run_sweep(&manifest, 4, runner);
    assert_eq!(seq.threads, 1);
    assert_eq!(
        seq.results, par.results,
        "manifest-order reassembly must hide parallelism"
    );

    // And the rendered artifacts are byte-identical too.
    let report = |outcome: &airdnd_harness::SweepOutcome<(usize, String)>| {
        let cells = summarize_cells(&manifest, &outcome.results, |(i, s)| {
            vec![("i", *i as f64), ("len", s.len() as f64)]
        });
        SweepReport {
            name: "demo".into(),
            title: "demo sweep".into(),
            axis_names: manifest.axis_names.clone(),
            replicates: manifest.replicates,
            base_seed: 99,
            cells,
        }
    };
    assert_eq!(render_json(&report(&seq)), render_json(&report(&par)));
    assert_eq!(render_csv(&report(&seq)), render_csv(&report(&par)));
}

#[test]
fn executor_handles_empty_and_oversubscribed_pools() {
    let empty = SweepSpec::new(Cfg {
        a: 0,
        b: "-",
        seed: 0,
    })
    .axis("a", std::iter::empty::<usize>(), |c, &v| c.a = v)
    .manifest();
    assert!(empty.is_empty());
    let outcome = run_sweep(&empty, 8, |_| 1u32);
    assert!(outcome.results.is_empty());

    // More threads than runs: clamped, still complete and ordered.
    let tiny = SweepSpec::new(Cfg {
        a: 0,
        b: "-",
        seed: 0,
    })
    .axis("a", [5usize], |c, &v| c.a = v)
    .manifest();
    let outcome = run_sweep(&tiny, 64, |p| p.config.a);
    assert_eq!(outcome.results, vec![5]);
    assert_eq!(outcome.threads, 1);
}

#[test]
fn aggregate_math_on_fixed_sample() {
    let a = Aggregate::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
    assert_eq!(a.n, 8);
    assert!((a.mean - 5.0).abs() < 1e-12);
    // Sample stddev with n−1: ss = 32, 32/7 → sqrt ≈ 2.13809.
    assert!((a.stddev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    assert!((a.p50 - 4.5).abs() < 1e-12, "p50 {}", a.p50);
    // p95 over 8 samples: rank 6.65 → 7 + 0.65·(9−7) = 8.3.
    assert!((a.p95 - 8.3).abs() < 1e-12, "p95 {}", a.p95);
    // CI95 with df = 7: t = 2.365.
    let expect_ci = 2.365 * (32.0f64 / 7.0).sqrt() / (8.0f64).sqrt();
    assert!((a.ci95 - expect_ci).abs() < 1e-12, "ci95 {}", a.ci95);

    let single = Aggregate::from_samples(&[3.25]);
    assert_eq!(single.n, 1);
    assert_eq!(single.mean, 3.25);
    assert_eq!(single.stddev, 0.0);
    assert_eq!(single.ci95, 0.0);
    assert_eq!(single.p50, 3.25);
    assert_eq!(single.p95, 3.25);

    let none = Aggregate::from_samples(&[]);
    assert_eq!(none.n, 0);
    assert_eq!(none.mean, 0.0);
}

// --- Workload API + sharding -------------------------------------------

#[derive(Clone, Copy, Debug, Serialize)]
struct ToyConfig {
    size: usize,
    seed: u64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct ToyReport {
    score: f64,
    echo: String,
}

/// A small deterministic workload exercising the full generic path:
/// typed config, typed report, metrics, tabulation.
fn toy_workload() -> FnWorkload<ToyConfig, ToyReport> {
    FnWorkload {
        name: "toy",
        title: "toy workload",
        spec: |quick| {
            let points: &[usize] = if quick { &[1, 2] } else { &[1, 2, 3, 4, 5] };
            SweepSpec::new(ToyConfig { size: 0, seed: 0 })
                .axis("size", points.to_vec(), |c, &n| c.size = n)
                .replicates(3)
                .base_seed(11)
                .seed_with(|c, s| c.seed = s)
        },
        run: |plan| ToyReport {
            // Irrational float math: any seed or ordering slip shows up.
            score: ((plan.config.seed % 997) as f64 / 7.0 + plan.config.size as f64).sin(),
            echo: format!("{}:{}", plan.config.size, plan.config.seed),
        },
        metrics: |r| vec![("score", r.score), ("echo_len", r.echo.len() as f64)],
        tabulate: |manifest: &Manifest<ToyConfig>, results: &[ToyReport]| {
            let mut table = Table::new("TOY", "toy", &["size", "score", "echo"]);
            for (plan, r) in manifest.runs.iter().zip(results) {
                table.row(vec![
                    plan.config.size.to_string(),
                    format!("{:.12}", r.score),
                    r.echo.clone(),
                ]);
            }
            ExperimentResult::table_only(table)
        },
        observe: None,
    }
}

#[test]
fn shard_ranges_partition_the_manifest() {
    let manifest = (toy_workload().spec)(false).manifest();
    let len = manifest.len();
    for count in 1..=len + 2 {
        let mut covered = Vec::new();
        for index in 0..count {
            let range = manifest.shard_range(Shard::new(index, count));
            covered.extend(range.clone());
            // Balanced: no shard more than one run larger than another.
            assert!(range.len() <= len / count + 1);
        }
        assert_eq!(covered, (0..len).collect::<Vec<_>>(), "count {count}");
    }
}

#[test]
fn shard_spec_parses_and_rejects() {
    assert_eq!("0/2".parse::<Shard>().unwrap(), Shard::new(0, 2));
    assert_eq!("3/8".parse::<Shard>().unwrap(), Shard::new(3, 8));
    for bad in ["", "1", "2/2", "5/2", "a/2", "1/0", "1/b"] {
        assert!(bad.parse::<Shard>().is_err(), "{bad:?} must not parse");
    }
}

#[test]
fn sharded_merge_is_byte_identical_to_unsharded() {
    let workload = toy_workload();
    let unsharded = workload.execute(false, 4, &mut |_| {});

    for count in [2usize, 3, 7] {
        let mut artifacts = Vec::new();
        for index in 0..count {
            let artifact = workload.execute_shard(false, 2, Shard::new(index, count), &mut |_| {});
            // Cross a "process boundary": JSON text out, JSON text in.
            artifacts.push(parse_shard(&render_shard(&artifact)).expect("round-trips"));
        }
        // Merging must not care about arrival order.
        artifacts.reverse();
        let merged = workload.merge_shards(false, &artifacts).expect("merges");
        assert_eq!(
            unsharded.result.table.render(),
            merged.result.table.render(),
            "{count} shards: table"
        );
        assert_eq!(
            render_json(&unsharded.aggregate),
            render_json(&merged.aggregate),
            "{count} shards: JSON artifact"
        );
        assert_eq!(
            render_csv(&unsharded.aggregate),
            render_csv(&merged.aggregate),
            "{count} shards: CSV artifact"
        );
    }
}

#[test]
fn merge_rejects_incomplete_or_inconsistent_shards() {
    let workload = toy_workload();
    let s0 = workload.execute_shard(true, 1, Shard::new(0, 2), &mut |_| {});
    let s1 = workload.execute_shard(true, 1, Shard::new(1, 2), &mut |_| {});

    // Missing shard.
    let err = workload
        .merge_shards(true, std::slice::from_ref(&s0))
        .unwrap_err();
    assert!(err.to_string().contains("missing"), "{err}");

    // Duplicate shard.
    let err = workload
        .merge_shards(true, &[s0.clone(), s0.clone(), s1.clone()])
        .unwrap_err();
    assert!(err.to_string().contains("two shards"), "{err}");

    // Quick/full mismatch (different manifest size).
    let err = workload.merge_shards(false, &[s0.clone(), s1]).unwrap_err();
    assert!(err.to_string().contains("manifest"), "{err}");

    // Foreign artifact.
    let mut foreign = s0;
    foreign.workload = "other".to_owned();
    let err = workload.merge_shards(true, &[foreign]).unwrap_err();
    assert!(err.to_string().contains("belongs"), "{err}");
}

/// Shard artifacts are stamped with the manifest fingerprint; a merge must
/// reject artifacts cut from a grid that has since changed, even when the
/// run count happens to match — the driver's resume path leans on this.
#[test]
fn merge_rejects_stale_fingerprints() {
    let workload = toy_workload();
    let fresh = workload.fingerprint(true);
    assert_eq!(fresh, workload.fingerprint(true), "fingerprint is stable");
    assert_ne!(
        fresh,
        workload.fingerprint(false),
        "quick and full grids must fingerprint differently"
    );

    let s0 = workload.execute_shard(true, 1, Shard::new(0, 2), &mut |_| {});
    let s1 = workload.execute_shard(true, 1, Shard::new(1, 2), &mut |_| {});
    assert_eq!(s0.fingerprint, airdnd_harness::fingerprint_hex(fresh));

    let mut stale = s0;
    stale.fingerprint = "00000000deadbeef".to_owned();
    let err = workload.merge_shards(true, &[stale, s1]).unwrap_err();
    assert!(err.to_string().contains("stale"), "{err}");
}

#[test]
fn reports_survive_the_artifact_round_trip_bitwise() {
    let workload = toy_workload();
    let artifact = workload.execute_shard(false, 1, Shard::new(0, 1), &mut |_| {});
    let text = render_shard(&artifact);
    let back = parse_shard(&text).expect("parses");
    assert_eq!(render_shard(&back), text, "render∘parse must be identity");
    // And the typed reports decode to bit-identical floats.
    let direct = workload.execute(false, 1, &mut |_| {});
    let merged = workload.merge_shards(false, &[back]).expect("merges");
    assert_eq!(
        render_json(&direct.aggregate),
        render_json(&merged.aggregate)
    );
}

/// The shard split itself must never change seeds: a run's seed is a pure
/// function of `(base_seed, run_index)`, not of the shard that ran it.
#[test]
fn shard_slices_preserve_global_run_identity() {
    let manifest = (toy_workload().spec)(false).manifest();
    let shard = Shard::new(1, 3);
    let range = manifest.shard_range(shard);
    for (offset, plan) in manifest.shard_runs(shard).iter().enumerate() {
        let global: &RunPlan<ToyConfig> = &manifest.runs[range.start + offset];
        assert_eq!(plan.run_index, global.run_index);
        assert_eq!(plan.seed, global.seed);
    }
}

#[test]
fn progress_streams_every_completion() {
    let manifest = demo_spec().manifest();
    let mut seen = Vec::new();
    let outcome = airdnd_harness::run_sweep_with_progress(
        &manifest,
        3,
        |plan| plan.run_index,
        |p| seen.push((p.done, p.total)),
    );
    assert_eq!(outcome.results, (0..12).collect::<Vec<_>>());
    assert_eq!(seen.len(), 12);
    assert_eq!(seen.last(), Some(&(12, 12)));
    assert!(
        seen.windows(2).all(|w| w[0].0 + 1 == w[1].0),
        "done must increase by one"
    );
}
