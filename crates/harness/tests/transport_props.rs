//! Property-based tests for the multi-host drive scheduler over the
//! simulated transport: for arbitrary shard counts, host counts, and
//! seed-derived failure schedules (host loss, death-at-spawn, healing
//! partitions), every shard's artifacts are fetched exactly once, no
//! shard ever runs concurrently on two hosts (asserted inside the sim's
//! `spawn`), and the whole drive — state file, fetch order, backoff
//! schedule — is deterministic under a fixed seed.

use airdnd_harness::{
    backoff_rounds, derive_seed, drive_with, CommandSpec, DriveOptions, DriveTuning, SimFaults,
    SimHostTransport, SimJob, Validation,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("airdnd-tprops-{tag}-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("can create temp dir");
    dir
}

/// Derives a deterministic failure schedule from `seed`, always leaving
/// at least one host (the survivor) out of every fatal fault so the
/// drive can complete.
fn faults_for(seed: u64, hosts: usize) -> SimFaults {
    let survivor = derive_seed(seed, 0) as usize % hosts;
    let mut lost_hosts = Vec::new();
    let mut dead_at_spawn = Vec::new();
    for host in 0..hosts {
        if host == survivor {
            continue;
        }
        match derive_seed(seed, 1 + host as u64) % 4 {
            0 => lost_hosts.push(host),
            1 => dead_at_spawn.push(host),
            _ => {}
        }
    }
    let mut partitions = Vec::new();
    if hosts >= 2 && derive_seed(seed, 99).is_multiple_of(2) {
        let a = derive_seed(seed, 100) as usize % hosts;
        let b = derive_seed(seed, 101) as usize % hosts;
        if a != b {
            partitions.push((a, b));
        }
    }
    SimFaults {
        lost_hosts,
        dead_at_spawn,
        partitions,
        ..SimFaults::default()
    }
}

fn artifact_name(shard_index: usize, shard_count: usize) -> String {
    format!("stub.shard{shard_index}of{shard_count}.json")
}

/// The simulated shard job: writes one artifact file into staging.
fn stub_runner(job: SimJob<'_>) -> bool {
    let name = artifact_name(job.shard.index, job.shard.count);
    std::fs::write(
        job.staging.join(name),
        format!("{{\"shard\":{}}}\n", job.shard.index),
    )
    .is_ok()
}

fn drive_opts(dir: &Path, shards: usize) -> DriveOptions {
    DriveOptions {
        shard_count: shards,
        jobs: 2,
        retries: 1,
        state_path: dir.join("drive-state.json"),
        workloads: vec!["stub".to_owned()],
        fingerprints: vec!["00000000deadbeef".to_owned()],
        quick: true,
        tuning: DriveTuning::default(),
    }
}

fn validator(out: &Path) -> impl FnMut(airdnd_harness::Shard) -> Validation + '_ {
    move |shard| {
        if out.join(artifact_name(shard.index, shard.count)).exists() {
            Validation::Valid
        } else {
            Validation::Missing("artifact absent".to_owned())
        }
    }
}

/// Runs one faulted multi-host drive to completion; returns the final
/// state file text and the fetched shard indices in fetch order.
fn run_drive(dir: &Path, shards: usize, hosts: usize, faults: &SimFaults) -> (String, Vec<usize>) {
    let out = dir.join("out");
    std::fs::create_dir_all(&out).expect("can create out dir");
    let mut sim = SimHostTransport::new(
        hosts,
        shards,
        out.clone(),
        dir.join("staging"),
        faults.clone(),
        stub_runner,
    );
    let report = drive_with(
        &mut sim,
        &drive_opts(dir, shards),
        |ctx| CommandSpec::new("sim-stub").arg(format!("--shard={}", ctx.shard)),
        validator(&out),
        |_| {},
    )
    .expect("a drive with one surviving host completes");
    assert_eq!(report.shards.len(), shards);
    for shard_index in 0..shards {
        assert!(
            out.join(artifact_name(shard_index, shards)).exists(),
            "shard {shard_index} artifact must reach the out dir"
        );
    }
    let state = std::fs::read_to_string(dir.join("drive-state.json")).expect("state exists");
    let fetched = sim.fetch_log().iter().map(|f| f.shard_index).collect();
    (state, fetched)
}

proptest! {
    /// Under any derived failure schedule, every shard's artifacts are
    /// fetched exactly once — the exactly-once merge guarantee. (The
    /// companion invariant, "no shard live on two hosts at once", is an
    /// assertion inside the sim's `spawn`; any violation fails the drive.)
    #[test]
    fn every_shard_fetched_exactly_once_under_faults(
        shards in 1usize..7,
        hosts in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let dir = temp_dir("once");
        let faults = faults_for(seed, hosts);
        let (_state, mut fetched) = run_drive(&dir, shards, hosts, &faults);
        fetched.sort_unstable();
        prop_assert_eq!(
            fetched,
            (0..shards).collect::<Vec<_>>(),
            "each shard delivered exactly once (faults: {:?})",
            faults
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two identical drives — same shards, hosts, faults, seed — leave a
    /// byte-identical state file and an identical fetch order: the whole
    /// schedule, backoff included, is a pure function of its inputs.
    #[test]
    fn faulted_drives_are_deterministic(
        shards in 1usize..6,
        hosts in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let faults = faults_for(seed, hosts);
        let dir_a = temp_dir("det-a");
        let dir_b = temp_dir("det-b");
        let (state_a, fetched_a) = run_drive(&dir_a, shards, hosts, &faults);
        let (state_b, fetched_b) = run_drive(&dir_b, shards, hosts, &faults);
        prop_assert_eq!(state_a, state_b, "drive state must be deterministic");
        prop_assert_eq!(fetched_a, fetched_b, "fetch order must be deterministic");
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    /// The backoff schedule is a pure function of (seed, shard, failure):
    /// reproducible, zero before the first retry, and capped.
    #[test]
    fn backoff_is_deterministic_zero_first_and_capped(
        seed in 0u64..1_000_000,
        shard in 0usize..64,
        failure in 0usize..40,
    ) {
        let tuning = DriveTuning::default();
        let a = backoff_rounds(seed, shard, failure, &tuning);
        let b = backoff_rounds(seed, shard, failure, &tuning);
        prop_assert_eq!(a, b, "same inputs, same backoff");
        if failure == 0 {
            prop_assert_eq!(a, 0, "first retry is immediate");
        } else {
            prop_assert!(a <= tuning.backoff_cap, "backoff {} over cap", a);
        }
    }
}
