//! Golden-file conformance tests for sweep artifacts: the quick-mode
//! JSON + CSV reports (and rendered table) of one scenario workload (F2)
//! and one market workload (T6) are committed under `tests/golden/` and
//! diffed against regenerated output. Any accidental format drift in
//! `harness::report` — field order, float formatting, CSV quoting, table
//! alignment — fails loudly here instead of silently invalidating every
//! downstream consumer of the artifacts. The span logs of quick G1's and
//! G3's first runs are pinned the same way, so the per-query span trees
//! (ids, parents, causal links, times, statuses) cannot drift either.
//!
//! Deliberate format changes are blessed by re-recording:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test -p airdnd-bench --test golden
//! ```

use airdnd_bench::workloads;
use airdnd_harness::{render_csv, render_json};
use airdnd_telemetry::{export, TelemetryOptions};
use std::path::PathBuf;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn check(file: &str, actual: &str) {
    let path = golden_path(file);
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("can create");
        std::fs::write(&path, actual).expect("can record golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {} ({e}); record it with \
             GOLDEN_REGEN=1 cargo test -p airdnd-bench --test golden",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{file} drifted from the committed golden copy — if the change is \
         deliberate, re-record with GOLDEN_REGEN=1"
    );
}

fn check_workload(name: &str) {
    let workload = workloads::find(name).expect("workload registered");
    let output = workload.execute(true, 0, &mut |_| {});
    check(
        &format!("{name}.quick.json"),
        &render_json(&output.aggregate),
    );
    check(&format!("{name}.quick.csv"), &render_csv(&output.aggregate));
    check(
        &format!("{name}.quick.table.txt"),
        &output.result.table.render(),
    );
}

/// The span log of `name`'s first quick run, exported as `sweep
/// --trace-out` writes it.
fn check_spans(name: &str) {
    let workload = workloads::find(name).expect("workload registered");
    let opts = TelemetryOptions::events(TelemetryOptions::DEFAULT_EVENT_CAPACITY).with_spans();
    let telemetry = workload
        .observe_first_run(true, opts)
        .expect("scenario workloads support telemetry");
    check(
        &format!("{name}.quick.spans.jsonl"),
        &export::spans_to_jsonl(telemetry.spans.spans()),
    );
}

/// F2, the scenario-workload representative: bytes/view grid over
/// strategies, including JSON plot series aggregation.
#[test]
fn f2_quick_artifacts_match_golden() {
    check_workload("f2");
}

/// T6, the market-workload representative: the mechanism axis through
/// `market_sim`, including the new ±95 replicate-CI table column.
#[test]
fn t6_quick_artifacts_match_golden() {
    check_workload("t6");
}

/// F4, the coverage representative: cooperative coverage, ego-only
/// coverage and time to detection over fleet size.
#[test]
fn f4_quick_artifacts_match_golden() {
    check_workload("f4");
}

/// T9, the byzantine representative: invalid results accepted as the
/// corrupt fraction of the fleet grows.
#[test]
fn t9_quick_artifacts_match_golden() {
    check_workload("t9");
}

/// G1, the generated-world representative: strategy × family × density
/// over procedurally generated maps with derived occlusion grids.
#[test]
fn g1_quick_artifacts_match_golden() {
    check_workload("g1");
}

/// G2, the churn × demand representative: generated grid with parked
/// anchors under varying query patterns.
#[test]
fn g2_quick_artifacts_match_golden() {
    check_workload("g2");
}

/// G3, the lifecycle representative: seed-driven spawn/despawn schedules
/// applied through the engine at tick boundaries (including the
/// radio-partitioning bridge family).
#[test]
fn g3_quick_artifacts_match_golden() {
    check_workload("g3");
}

/// G4, the multi-ego representative: concurrent query origins with
/// per-ego derived hidden-region grids.
#[test]
fn g4_quick_artifacts_match_golden() {
    check_workload("g4");
}

/// G5, the city-scale representative: the composite city family with
/// fleet size and ego count scaling together.
#[test]
fn g5_quick_artifacts_match_golden() {
    check_workload("g5");
}

/// G1's span tree: offer flights, failovers and expired queries over
/// generated worlds.
#[test]
fn g1_quick_spans_match_golden() {
    check_spans("g1");
}

/// G3's span tree: queries whose helpers depart mid-flight.
#[test]
fn g3_quick_spans_match_golden() {
    check_spans("g3");
}
