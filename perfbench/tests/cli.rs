//! Tiny-size runs of the benchmark binary: the metric set it prints, the
//! checks that make a run count as failed, and the seed contract.

use serde_json::{Number, Value};
use std::process::Command;

/// Runs the benchmark at tiny size and returns its parsed result line.
fn bench(workload: &str, seed: &str, trace: &str, extra: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_airdnd-perfbench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "0.01"])
        .args(["--trace", trace, "--size", "tiny"])
        .args(extra)
        .output()
        .expect("benchmark binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let last = stdout.lines().last().expect("a result line");
    Value::parse(last).unwrap_or_else(|| panic!("result line is not JSON: {last}"))
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    match value {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        other => panic!("{other:?} is not an object"),
    }
}

fn keys(value: &Value) -> Vec<String> {
    match value {
        Value::Object(entries) => entries.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("{other:?} is not an object"),
    }
}

fn string(value: &Value) -> &str {
    match value {
        Value::String(s) => s,
        other => panic!("{other:?} is not a string"),
    }
}

fn number(value: &Value) -> f64 {
    match value {
        Value::Number(Number::PosInt(n)) => *n as f64,
        Value::Number(Number::NegInt(n)) => *n as f64,
        Value::Number(Number::Float(x)) => *x,
        other => panic!("{other:?} is not a number"),
    }
}

fn int(value: &Value) -> u64 {
    match value {
        Value::Number(Number::PosInt(n)) => *n,
        other => panic!("{other:?} is not a whole number"),
    }
}

fn metric(result: &Value, name: &str) -> f64 {
    number(field(field(field(result, "metrics"), name), "value"))
}

/// `BENCHMARK.json` at the root of the repository.
fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Value::parse(&text).expect("BENCHMARK.json is JSON")
}

fn list(value: &Value) -> &[Value] {
    match value {
        Value::Array(items) => items,
        other => panic!("{other:?} is not an array"),
    }
}

#[test]
fn tiny_runs_print_every_named_metric_with_its_unit() {
    let manifest = manifest();
    for workload in list(field(&manifest, "workloads")) {
        let workload = string(field(workload, "name"));
        for (trace, group) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = bench(workload, "1", trace, &[]);
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{workload}");
            assert!(int(field(&result, "attempted")) >= 1);
            assert_eq!(int(field(&result, "failed")), 0);
            let metrics = field(&result, "metrics");
            let named = list(field(&manifest, group));
            let mut expected: Vec<String> = named
                .iter()
                .map(|m| string(field(m, "name")).to_owned())
                .collect();
            let mut printed = keys(metrics);
            expected.sort();
            printed.sort();
            assert_eq!(printed, expected, "{workload} --trace {trace}");
            for m in named {
                let name = string(field(m, "name"));
                let unit = string(field(m, "unit"));
                let printed = field(metrics, name);
                assert_eq!(string(field(printed, "unit")), unit, "{workload} {name}");
                let value = field(printed, "value");
                if unit == "count" || unit == "B" {
                    int(value); // exact counters print as integers
                } else {
                    assert!(number(value).is_finite(), "{workload} {name}");
                }
            }
        }
    }
}

#[test]
fn layer_times_sum_to_the_traced_wall() {
    let result = bench("corner-offload", "3", "1", &[]);
    let layers = [
        "scenario.lifecycle_ms",
        "engine.ms",
        "data.ms",
        "mesh.ms",
        "task.ms",
        "radio.ms",
        "scenario.unattributed_ms",
    ];
    let sum: f64 = layers.iter().map(|name| metric(&result, name)).sum();
    let wall = metric(&result, "scenario.wall_ms");
    assert!(wall > 0.0);
    assert!((sum - wall).abs() <= 1e-9 * wall, "{sum} vs {wall}");
    for name in &layers[..6] {
        assert!(metric(&result, name) > 0.0, "{name} not attributed");
    }
}

#[test]
fn a_perturbed_report_counts_as_a_failed_run() {
    for trace in ["0", "1"] {
        let result = bench("grid-churn", "5", trace, &["--perturb"]);
        assert_eq!(field(&result, "correct"), &Value::Bool(false));
        assert!(int(field(&result, "failed")) >= 1);
        assert!(int(field(&result, "attempted")) > int(field(&result, "failed")));
    }
}

#[test]
fn another_seed_changes_the_inputs_but_not_the_metric_set() {
    let a = bench("grid-churn", "1", "1", &[]);
    let b = bench("grid-churn", "2", "1", &[]);
    assert_eq!(keys(field(&a, "metrics")), keys(field(&b, "metrics")));
    let counters = ["radio.bytes_on_air", "scenario.spawns", "mesh.joins"];
    assert!(
        counters.iter().any(|c| metric(&a, c) != metric(&b, c)),
        "seeds 1 and 2 produced identical work counters"
    );
    // The same seed reproduces its exact counters.
    let again = bench("grid-churn", "1", "1", &[]);
    for c in counters {
        assert_eq!(metric(&a, c), metric(&again, c), "{c}");
    }
}
