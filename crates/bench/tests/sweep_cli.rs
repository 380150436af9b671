//! End-to-end tests of `sweep --trace N`, the debug lens that renders the
//! first manifest run's event log through the workloads' observation
//! hook. These spawn the real `sweep` binary.

use std::process::{Command, Output};

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("sweep binary runs")
}

/// Runs `--quick --trace <capacity> <name>` and returns its stderr.
fn trace(capacity: &str, name: &str) -> String {
    let output = sweep(&["--quick", "--trace", capacity, name]);
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    assert!(output.status.success(), "sweep failed:\n{stderr}");
    assert!(output.stdout.is_empty(), "--trace writes nothing to stdout");
    stderr
}

#[test]
fn trace_shows_lifecycle_events_of_a_churned_world() {
    let stderr = trace("64", "g3");
    assert!(stderr.contains("[g3] trace of run 0 (64 entry cap):"));
    assert!(stderr.contains("lifecycle:"), "{stderr}");
}

#[test]
fn trace_shows_market_demand_events() {
    let stderr = trace("20", "t6");
    assert!(stderr.contains("demand:"), "{stderr}");
    assert!(!stderr.contains("no trace support"), "{stderr}");
}

#[test]
fn trace_reports_workloads_without_telemetry() {
    let stderr = trace("20", "f10");
    assert!(
        stderr.contains("[f10] workload has no trace support"),
        "{stderr}"
    );
}

#[test]
fn trace_rejects_other_single_run_modes() {
    for args in [
        &["--quick", "--trace", "10", "explain", "g3"][..],
        &["--quick", "--trace", "10", "--trace-out", "ev.jsonl", "g3"],
        &["--quick", "--trace", "10", "--bench-engine"],
    ] {
        let output = sweep(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}:\n{stderr}");
        assert!(
            stderr.contains("--trace is a single-run debug mode"),
            "{args:?}:\n{stderr}"
        );
    }
}
