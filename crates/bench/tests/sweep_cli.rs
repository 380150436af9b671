//! End-to-end tests of the `sweep` CLI: `--trace N`, the debug lens that
//! renders the first manifest run's event log through the workloads'
//! observation hook, and the `<name>.result.json` artifact that the
//! default mode and `--merge` write alike. These spawn the real `sweep`
//! binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("sweep binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("airdnd-sweep-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("can create temp dir");
    dir
}

fn path_str(path: &std::path::Path) -> &str {
    path.to_str().expect("temp paths are UTF-8")
}

/// Runs `args` and asserts it succeeded.
fn sweep_ok(args: &[&str]) -> Output {
    let output = sweep(args);
    assert!(
        output.status.success(),
        "{args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
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

/// `--merge` over bad input exits 1 and names the offending path, the way
/// a failed merge does, instead of panicking. Bad input includes nesting
/// deep enough to overflow a recursive parser's stack.
#[test]
fn merge_rejects_bad_input_without_panicking() {
    let torn = temp_dir("torn");
    let artifact = torn.join("f2.shard0of2.json");
    std::fs::write(&artifact, "{\"workload\": \"f2\", \"shard_in").expect("can write");
    let missing = temp_dir("missing").join("no-such-dir");
    let deep = temp_dir("deep");
    let nested = deep.join("f2.shard1of2.json");
    std::fs::write(&nested, "[".repeat(100_000) + "\n").expect("can write");
    let out = temp_dir("bad-merge-out");
    for (dir, named) in [(&torn, &artifact), (&missing, &missing), (&deep, &nested)] {
        let output = sweep(&[
            "--quick",
            "--merge",
            path_str(dir),
            "--out",
            path_str(&out),
            "f2",
        ]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{dir:?}:\n{stderr}");
        assert!(stderr.contains(path_str(named)), "{dir:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{dir:?}:\n{stderr}");
    }
    for dir in [&torn, missing.parent().expect("has a parent"), &deep, &out] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// An output path that cannot be created, here one under a regular file,
/// exits 1 and names the path instead of panicking: `--out` before any
/// run, `--trace-out` after its run.
#[test]
fn unwritable_output_paths_exit_without_panicking() {
    let dir = temp_dir("unwritable");
    let file = dir.join("regular-file");
    std::fs::write(&file, "not a directory").expect("can write");
    let out = file.join("sub");
    let events = file.join("t.jsonl");
    for args in [
        &["--quick", "--out", path_str(&out), "f2"][..],
        &[
            "--quick",
            "--out",
            path_str(&dir),
            "--trace-out",
            path_str(&events),
            "g3",
        ],
    ] {
        let output = sweep(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}:\n{stderr}");
        assert!(
            stderr.contains("error: cannot create"),
            "{args:?}:\n{stderr}"
        );
        assert!(stderr.contains(path_str(&file)), "{args:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The default mode and a sharded run merged back write the same
/// `f2.result.json` (table + plot series), byte for byte.
#[test]
fn result_json_is_identical_unsharded_and_merged() {
    let un = temp_dir("result-un");
    let s0 = temp_dir("result-s0");
    let s1 = temp_dir("result-s1");
    let merged = temp_dir("result-merged");
    sweep_ok(&["--quick", "--threads", "1", "--out", path_str(&un), "f2"]);
    for (shard, dir) in [("0/2", &s0), ("1/2", &s1)] {
        sweep_ok(&["--quick", "--shard", shard, "--out", path_str(dir), "f2"]);
    }
    sweep_ok(&[
        "--quick",
        "--merge",
        path_str(&s0),
        "--merge",
        path_str(&s1),
        "--out",
        path_str(&merged),
        "f2",
    ]);
    let read = |dir: &PathBuf| std::fs::read(dir.join("f2.result.json")).expect("result written");
    let unsharded = read(&un);
    assert!(unsharded.ends_with(b"}\n"), "one JSON document per file");
    assert_eq!(unsharded, read(&merged));
    for dir in [&un, &s0, &s1, &merged] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
