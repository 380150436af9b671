//! Host-time benchmark of the AirDnD simulator.
//!
//! ```text
//! airdnd-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                  [--size full|tiny] [--perturb]
//! ```
//!
//! One process, one thread, one scenario at a time (a closed loop). The
//! run builds the workload's worlds for every scenario seed (set-up,
//! repeated and reported as a median), runs the first seed once to warm
//! up, then cycles through the seeds until `--seconds` have passed and
//! every seed has run. Every run is checked (`checks.rs`); the last line
//! of stdout is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.
//!
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! all telemetry off. With `--trace 1` each round runs every seed once
//! untraced and once with phase profiling and span recording on, and the
//! metrics are the per-layer ones; the benchmark's own spans are written
//! to `out/<workload>-seed<N>-spans.jsonl` under the package directory.
//! `--size tiny` and `--perturb` (corrupt one report) exist for tests.

mod checks;
mod workloads;

use airdnd_scenario::{
    run_scenario_in_observed, Phase, RunTelemetry, ScenarioReport, Scope, TelemetryOptions,
};
use serde_json::{Number, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{scenario_seeds, Job, Size, Workload};

const USAGE: &str =
    "usage: airdnd-perfbench --workload corner-offload|city-fleet|city-egos|grid-churn \
--seed N --seconds S --trace 0|1 [--size full|tiny] [--perturb]";

/// Set-up is repeated at least `.0` and at most `.1` times, stopping once
/// [`SETUP_BUDGET`] has passed; `setup_s` is the median repeat.
const SETUP_REPEATS: (usize, usize) = (5, 500);
const SETUP_BUDGET: Duration = Duration::from_millis(250);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    perturb: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut size, mut perturb) = (Size::Full, false);
    while let Some(flag) = argv.next() {
        if flag == "--perturb" {
            perturb = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::find(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("expected 0 < seconds <= 120"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("expected full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        perturb,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut bench = Bench::new(started, args.trace);
    let metrics = bench.run(&args);
    if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "{}-seed{}-spans.jsonl",
                args.workload.name, args.seed
            ));
        if let Err(err) = bench.spans.write(&path) {
            eprintln!("error: writing {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("spans written to {}", path.display());
    }
    if let Some(why) = &bench.first_failure {
        eprintln!("first failed check: {why}");
    }
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(bench.failed == 0)),
        ("attempted".into(), int(bench.attempted)),
        ("failed".into(), int(bench.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", result.to_compact_string());
    ExitCode::SUCCESS
}

/// One scenario run as the benchmark saw it.
struct Run {
    wall: Duration,
    report: ScenarioReport,
    telemetry: RunTelemetry,
}

/// Per-layer accumulation over the traced runs of a `--trace 1` run.
#[derive(Default)]
struct Layers {
    runs: u64,
    wall_nanos: u128,
    phase_nanos: [u128; 6],
    /// Phase entries of the first traced round: one run of every seed.
    phase_entries: [u64; 6],
    /// Wall of the traced and the untraced runs, over the seeds whose two
    /// runs in a round both passed, for the tracing overhead.
    paired_traced: Duration,
    paired_untraced: Duration,
}

struct Bench {
    started: Instant,
    spans: Spans,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Bench {
    fn new(started: Instant, trace: bool) -> Self {
        Bench {
            started,
            spans: Spans::new(started, trace),
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    fn run(&mut self, args: &Args) -> Vec<(String, Value)> {
        let workload = args.workload;
        let seeds = scenario_seeds(args.seed, workload.pool);

        // Set-up: materialise every seed's world, several times over.
        let mut jobs: Vec<Job> = Vec::new();
        let mut setup_secs = Vec::new();
        let setup_started = Instant::now();
        for repeat in 0.. {
            if repeat >= SETUP_REPEATS.0
                && (repeat >= SETUP_REPEATS.1 || setup_started.elapsed() >= SETUP_BUDGET)
            {
                break;
            }
            drop(std::mem::take(&mut jobs));
            let begin = if repeat == 0 {
                self.started
            } else {
                Instant::now()
            };
            let setup = self.spans.open("setup", None, None);
            for &seed in &seeds {
                let span = self.spans.open("worldgen", Some(setup), Some(seed));
                jobs.push(workload.build(seed, args.size));
                self.spans.close(span);
            }
            self.spans.close(setup);
            setup_secs.push(begin.elapsed().as_secs_f64());
        }

        // Warm-up: the first seed runs once, untimed, so caches and the
        // allocator settle before timing starts.
        let mut references: Vec<Option<String>> = vec![None; jobs.len()];
        let mut first_runs: Vec<Option<Run>> = (0..jobs.len()).map(|_| None).collect();
        let warmup = self.spans.open("warmup", None, None);
        first_runs[0] = self.run_checked(&jobs[0], false, &mut references[0], warmup, false);
        self.spans.close(warmup);

        // Timed runs: the seeds in turn until the time is up, and at least
        // one whole round. The first run of each seed records the reference
        // report every later run of that seed must reproduce.
        let mut walls: Vec<f64> = Vec::new();
        let mut throughputs: Vec<f64> = Vec::new();
        let mut layers = Layers::default();
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        let mut round = 0usize;
        while Instant::now() < deadline || round == 0 {
            let round_span = self.spans.open("round", None, Some(round as u64));
            for (idx, job) in jobs.iter().enumerate() {
                if round > 0 && Instant::now() >= deadline {
                    break;
                }
                let perturb = args.perturb && round == 0 && idx == 0;
                // Traced runs alternate first and second within a round so
                // neither side always runs on the warmer cache.
                let order: &[bool] = match (args.trace, round % 2) {
                    (false, _) => &[false],
                    (true, 0) => &[false, true],
                    (true, _) => &[true, false],
                };
                let mut pair = [Duration::ZERO; 2];
                for &traced in order {
                    let Some(run) =
                        self.run_checked(job, traced, &mut references[idx], round_span, perturb)
                    else {
                        continue;
                    };
                    pair[traced as usize] = run.wall;
                    if traced {
                        layers.add(&run, round == 0);
                    } else {
                        walls.push(run.wall.as_secs_f64() * 1e3);
                        throughputs.push(job.vehicle_seconds() / run.wall.as_secs_f64());
                        if first_runs[idx].is_none() {
                            first_runs[idx] = Some(run);
                        }
                    }
                }
                if pair.iter().all(|d| !d.is_zero()) {
                    layers.paired_untraced += pair[0];
                    layers.paired_traced += pair[1];
                }
            }
            self.spans.close(round_span);
            round += 1;
        }

        eprintln!(
            "{} seed {}: {} scenario seeds, {} rounds, {} untraced runs (ms quartiles {:.1?}), \
             {} traced runs, {} set-ups (median {:.6} s)",
            workload.name,
            args.seed,
            jobs.len(),
            round,
            walls.len(),
            quartiles(&walls),
            layers.runs,
            setup_secs.len(),
            median(&setup_secs),
        );

        if args.trace {
            let mut out = layers.metrics();
            out.push(metric("worldgen.ms", median(&setup_secs) * 1e3, "ms"));
            out.extend(counters(&first_runs));
            out
        } else {
            vec![
                metric("vehicle_s_per_s", median(&throughputs), "vehicle-s/s"),
                metric("run_ms.p50", median(&walls), "ms"),
                metric("setup_s", median(&setup_secs), "s"),
                metric("peak_rss_mb", peak_rss_mb(), "MB"),
            ]
        }
    }

    /// Runs one job, checks it, and books the attempt. Returns `None` for
    /// a failed run.
    fn run_checked(
        &mut self,
        job: &Job,
        traced: bool,
        reference: &mut Option<String>,
        parent: SpanRef,
        perturb: bool,
    ) -> Option<Run> {
        self.attempted += 1;
        let opts = TelemetryOptions {
            profile: traced,
            spans: traced,
            ..TelemetryOptions::default()
        };
        let world = job.world.clone();
        let cfg = job.cfg;
        let span = self.spans.open(
            if traced {
                "scenario.traced"
            } else {
                "scenario"
            },
            Some(parent),
            Some(job.seed),
        );
        let begin = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_scenario_in_observed(world, cfg, opts)
        }));
        let wall = begin.elapsed();
        self.spans.close(span);

        let check = self.spans.open("check", Some(parent), Some(job.seed));
        let verdict = match outcome {
            Err(_) => Err("scenario run panicked".to_owned()),
            Ok((mut report, telemetry)) => {
                if perturb {
                    report.tasks_completed += 1;
                }
                checks::report_invariants(&report)
                    .and_then(|()| checks::same_as_first(reference, &report))
                    .and_then(|()| {
                        if traced {
                            checks::traced_invariants(&telemetry)
                        } else {
                            Ok(())
                        }
                    })
                    .map(|()| Run {
                        wall,
                        report,
                        telemetry,
                    })
            }
        };
        self.spans.close(check);
        match verdict {
            Ok(run) => Some(run),
            Err(why) => {
                self.failed += 1;
                self.first_failure
                    .get_or_insert_with(|| format!("seed {}: {why}", job.seed));
                None
            }
        }
    }
}

impl Layers {
    fn add(&mut self, run: &Run, first_round: bool) {
        self.runs += 1;
        self.wall_nanos += run.wall.as_nanos();
        for (k, phase) in Phase::ALL.into_iter().enumerate() {
            self.phase_nanos[k] += run.telemetry.phases.nanos(phase);
            if first_round {
                self.phase_entries[k] += run.telemetry.phases.entries(phase);
            }
        }
    }

    /// Host-time metrics: means per traced run, so the six phases plus
    /// `scenario.unattributed_ms` sum to `scenario.wall_ms`.
    fn metrics(&self) -> Vec<(String, Value)> {
        let per_run_ms = |nanos: u128| nanos as f64 / 1e6 / self.runs.max(1) as f64;
        let mut out = Vec::new();
        let mut attributed = 0.0;
        for (k, phase) in Phase::ALL.into_iter().enumerate() {
            let (name, entries) = layer_names(phase);
            let ms = per_run_ms(self.phase_nanos[k]);
            attributed += ms;
            out.push(metric(name, ms, "ms"));
            out.push(count(entries, self.phase_entries[k]));
        }
        let wall = per_run_ms(self.wall_nanos);
        out.push(metric("scenario.wall_ms", wall, "ms"));
        out.push(metric("scenario.unattributed_ms", wall - attributed, "ms"));
        out.push(count("scenario.traced_runs", self.runs));
        let overhead = if self.paired_untraced.is_zero() {
            0.0
        } else {
            (self.paired_traced.as_secs_f64() / self.paired_untraced.as_secs_f64() - 1.0) * 100.0
        };
        out.push(metric("telemetry.overhead_pct", overhead, "%"));
        out
    }
}

/// Layer names for each engine phase: the time metric and its entry count.
fn layer_names(phase: Phase) -> (&'static str, &'static str) {
    match phase {
        Phase::Lifecycle => ("scenario.lifecycle_ms", "scenario.lifecycle_entries"),
        Phase::Movement => ("engine.ms", "engine.entries"),
        Phase::Sensor => ("data.ms", "data.entries"),
        Phase::Mesh => ("mesh.ms", "mesh.entries"),
        Phase::Tasks => ("task.ms", "task.entries"),
        Phase::Radio => ("radio.ms", "radio.entries"),
    }
}

/// Exact work counters, summed over the first untraced run of every seed,
/// and the virtual-time stage waits as the median over seeds of each
/// run's p50.
fn counters(first_runs: &[Option<Run>]) -> Vec<(String, Value)> {
    let runs: Vec<&Run> = first_runs.iter().flatten().collect();
    let sum = |f: &dyn Fn(&Run) -> u64| runs.iter().map(|r| f(r)).sum::<u64>();
    let submitted = sum(&|r| r.report.tasks_submitted);
    let completed = sum(&|r| r.report.tasks_completed);
    let results = sum(&|r| r.report.results_returned);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let registry =
        |name: &'static str| move |r: &Run| r.telemetry.metrics.counter(name, Scope::Global);
    let stage = |f: fn(&ScenarioReport) -> f64| {
        median(&runs.iter().map(|r| f(&r.report)).collect::<Vec<_>>())
    };
    vec![
        count("core.queries_submitted", submitted),
        count("core.queries_completed", completed),
        count("core.queries_failed", sum(&|r| r.report.tasks_failed)),
        metric("core.completion", ratio(completed, submitted), "ratio"),
        count("task.offers", sum(&|r| r.report.offers_sent)),
        count("task.results", results),
        metric("task.useful_per_exec", ratio(completed, results), "ratio"),
        count("mesh.joins", sum(&|r| r.report.joins)),
        count("mesh.leaves", sum(&|r| r.report.leaves)),
        entry(
            "radio.bytes_on_air",
            int(sum(&|r| r.report.mesh_bytes)),
            "B",
        ),
        count("radio.frame_drops", sum(&registry("frame_drops"))),
        count(
            "radio.queue_cap_drops",
            sum(&registry("frame_drops_queue_cap")),
        ),
        count("scenario.spawns", sum(&|r| r.report.lifecycle_spawns)),
        count("scenario.despawns", sum(&|r| r.report.lifecycle_despawns)),
        metric(
            "core.discover_p50_ms",
            stage(|r| r.lat_discover_p50_ms),
            "ms",
        ),
        metric("core.select_p50_ms", stage(|r| r.lat_select_p50_ms), "ms"),
        metric("radio.flight_p50_ms", stage(|r| r.lat_radio_p50_ms), "ms"),
        metric("task.exec_p50_ms", stage(|r| r.lat_exec_p50_ms), "ms"),
        metric("radio.return_p50_ms", stage(|r| r.lat_return_p50_ms), "ms"),
    ]
}

fn int(v: u64) -> Value {
    Value::Number(Number::PosInt(v))
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Value) {
    let value = Value::Number(Number::Float(if value.is_finite() { value } else { 0.0 }));
    entry(name, value, unit)
}

fn count(name: &str, value: u64) -> (String, Value) {
    entry(name, int(value), "count")
}

fn entry(name: &str, value: Value, unit: &str) -> (String, Value) {
    (
        name.to_owned(),
        Value::Object(vec![
            ("value".into(), value),
            ("unit".into(), Value::String(unit.to_owned())),
        ]),
    )
}

/// Minimum, quartiles and maximum.
fn quartiles(xs: &[f64]) -> [f64; 5] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        v.get(((v.len().max(1) - 1) as f64 * q).round() as usize)
            .copied()
            .unwrap_or(0.0)
    };
    [at(0.0), at(0.25), at(0.5), at(0.75), at(1.0)]
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Index of a recorded span.
type SpanRef = usize;

/// The benchmark's own spans, around its calls into each layer: kept in
/// memory while the benchmark runs and written out at the end. Disabled
/// (every call a no-op) unless the run is traced.
struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<OwnSpan>,
}

struct OwnSpan {
    name: &'static str,
    parent: Option<SpanRef>,
    key: Option<u64>,
    start: Duration,
    end: Duration,
}

impl Spans {
    fn new(origin: Instant, enabled: bool) -> Self {
        Spans {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<SpanRef>, key: Option<u64>) -> SpanRef {
        if self.enabled {
            let start = self.origin.elapsed();
            self.spans.push(OwnSpan {
                name,
                parent,
                key,
                start,
                end: start,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    fn close(&mut self, span: SpanRef) {
        if self.enabled {
            self.spans[span].end = self.origin.elapsed();
        }
    }

    /// Writes one JSON object per span: id, parent, name, key (a seed or
    /// round number) and start/end in microseconds since process start.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or(Value::Null, int);
            let line = Value::Object(vec![
                ("id".into(), int(id as u64)),
                ("parent".into(), opt(s.parent.map(|p| p as u64))),
                ("name".into(), Value::String(s.name.to_owned())),
                ("key".into(), opt(s.key)),
                ("start_us".into(), int(s.start.as_micros() as u64)),
                ("end_us".into(), int(s.end.as_micros() as u64)),
            ]);
            text.push_str(&line.to_compact_string());
            text.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
