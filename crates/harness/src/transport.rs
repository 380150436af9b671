//! Host transports for the distributed sweep driver: how shard processes
//! are launched, watched, and harvested across machines.
//!
//! The [`drive`](crate::scheduler::drive_with) scheduler never touches a
//! process or a socket itself — it speaks the [`Transport`] trait:
//!
//! * [`spawn`](Transport::spawn) launches one shard attempt on one host
//!   from a serializable [`CommandSpec`];
//! * [`poll`](Transport::poll) observes the execution (running / exited /
//!   lost with its host);
//! * [`health`](Transport::health) is the heartbeat: reachable,
//!   unreachable (partitioned), or dead;
//! * [`fetch_artifacts`](Transport::fetch_artifacts) moves a completed
//!   shard's artifacts from the host into the coordinator's output
//!   directory — the only way results ever reach the merge;
//! * [`fence`](Transport::fence) guarantees a given-up execution can
//!   never deliver artifacts, so a reassigned shard merges exactly once.
//!
//! Two implementations:
//!
//! * [`LocalTransport`] — today's `std::process::Command` path behind the
//!   trait: one host, always reachable, artifacts written in place (fetch
//!   is a no-op). Byte-for-byte the historical `drive` behavior.
//! * [`SimHostTransport`] — an in-process "remote host" pool running on
//!   virtual time (scheduler poll rounds, never wall-clock) with
//!   injectable launch latency, mid-run host death, coordinator
//!   partitions that heal, and per-host artifact staging so fetch loss is
//!   real. The fault-injection workhorse: a whole multi-host drive through
//!   it is a deterministic state machine.

use crate::manifest::Shard;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// A serializable description of one shard subprocess: program, argument
/// vector, and where its stderr should land. This is what crosses the
/// wire to a remote host — a [`Transport`] turns it into whatever its
/// execution substrate needs (a local `Command`, an `ssh` invocation, an
/// in-process simulated job).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommandSpec {
    /// Program to execute.
    pub program: String,
    /// Arguments, in order.
    pub args: Vec<String>,
    /// File to receive the child's stderr (created/truncated); stdout is
    /// always discarded — shard children keep stdout silent by contract.
    pub stderr_log: Option<String>,
}

impl CommandSpec {
    /// Starts a spec for `program`.
    pub fn new(program: impl Into<String>) -> CommandSpec {
        CommandSpec {
            program: program.into(),
            args: Vec::new(),
            stderr_log: None,
        }
    }

    /// Appends one argument.
    pub fn arg(mut self, arg: impl Into<String>) -> CommandSpec {
        self.args.push(arg.into());
        self
    }

    /// Appends several arguments.
    pub fn args<I: IntoIterator<Item = S>, S: Into<String>>(mut self, args: I) -> CommandSpec {
        self.args.extend(args.into_iter().map(Into::into));
        self
    }

    /// Routes the child's stderr to `path`.
    pub fn stderr_log(mut self, path: impl Into<String>) -> CommandSpec {
        self.stderr_log = Some(path.into());
        self
    }

    /// Materializes the spec as a local [`Command`] (stdout discarded,
    /// stderr to the log file when one is set).
    pub fn to_command(&self) -> std::io::Result<Command> {
        let mut cmd = Command::new(&self.program);
        cmd.args(&self.args).stdout(Stdio::null());
        match &self.stderr_log {
            Some(path) => {
                let file = std::fs::File::create(path)?;
                cmd.stderr(file);
            }
            None => {
                cmd.stderr(Stdio::null());
            }
        }
        Ok(cmd)
    }
}

/// Handle for one spawned shard attempt, unique within a transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExecId(pub u64);

/// What [`Transport::poll`] observed about one execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PollStatus {
    /// Still running (or unobservable — a partitioned host looks like a
    /// silent one; [`Transport::health`] is how the two are told apart).
    Running,
    /// The process exited.
    Exited {
        /// Whether it exited successfully (code 0).
        success: bool,
        /// Exit code when the platform reports one.
        exit_code: Option<i32>,
    },
    /// The execution is gone with its host: it will never exit, never
    /// deliver artifacts, and must be reassigned.
    Lost,
}

/// The heartbeat view of one host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostHealth {
    /// Responding normally.
    Reachable,
    /// Not currently responding (e.g. a network partition). May heal; the
    /// scheduler applies a deadline before giving up on its executions.
    Unreachable,
    /// Permanently gone. Nothing on it will ever complete.
    Dead,
}

/// How shard processes are launched, watched and harvested on a pool of
/// hosts. See the [module docs](self) for the contract each method
/// carries; all time is expressed in scheduler poll rounds via
/// [`tick`](Transport::tick), never wall-clock, so drives stay
/// deterministic wherever the transport itself is deterministic.
pub trait Transport {
    /// Number of hosts in the pool (≥ 1). Host indices are `0..count`.
    fn host_count(&self) -> usize;

    /// The host-private directory shard children must write artifacts
    /// into, or `None` when children write straight into the
    /// coordinator's output directory (the local case). Artifacts in a
    /// staging directory only become visible to the merge via
    /// [`fetch_artifacts`](Transport::fetch_artifacts).
    fn staging_dir(&self, host: usize) -> Option<PathBuf>;

    /// Launches one attempt of `shard` on `host`. `Err` means the host
    /// could not take the job at all (dead, unreachable, no executor) —
    /// the scheduler treats that as a host failure, not a shard failure.
    fn spawn(&mut self, host: usize, shard: Shard, spec: &CommandSpec) -> Result<ExecId, String>;

    /// Observes one execution.
    fn poll(&mut self, exec: ExecId) -> PollStatus;

    /// The heartbeat for one host.
    fn health(&mut self, host: usize) -> HostHealth;

    /// Moves the execution's artifacts from its host into the
    /// coordinator's output directory. `Err` when the host is
    /// unreachable or the artifacts are absent — the scheduler retries
    /// under its deadline, then fences and reassigns.
    fn fetch_artifacts(&mut self, exec: ExecId) -> Result<(), String>;

    /// Permanently abandons an execution: kill it if possible and
    /// guarantee its artifacts can never be fetched, so a reassigned
    /// shard cannot be merged twice. Idempotent.
    fn fence(&mut self, exec: ExecId);

    /// Advances transport time by one scheduler poll round. `idle` is
    /// true when the scheduler made no progress this round (the local
    /// transport naps briefly; simulated transports advance virtual time
    /// regardless).
    fn tick(&mut self, idle: bool);
}

// ---------------------------------------------------------------------------
// LocalTransport
// ---------------------------------------------------------------------------

/// The historical single-machine path behind the [`Transport`] trait: one
/// host (index 0), `std::process::Command` children, artifacts written
/// directly into the coordinator's output directory. Always reachable;
/// fetch is a no-op; `tick(idle)` naps 15 ms exactly like the old driver
/// loop did when nothing had been reaped.
#[derive(Default)]
pub struct LocalTransport {
    children: Vec<LocalExec>,
}

struct LocalExec {
    child: Option<Child>,
    exited: Option<(bool, Option<i32>)>,
}

impl LocalTransport {
    /// Creates the single-host local transport.
    pub fn new() -> LocalTransport {
        LocalTransport::default()
    }
}

impl Transport for LocalTransport {
    fn host_count(&self) -> usize {
        1
    }

    fn staging_dir(&self, _host: usize) -> Option<PathBuf> {
        None
    }

    fn spawn(&mut self, host: usize, _shard: Shard, spec: &CommandSpec) -> Result<ExecId, String> {
        assert_eq!(host, 0, "the local transport has exactly one host");
        let child = spec
            .to_command()
            .and_then(|mut cmd| cmd.spawn())
            .map_err(|e| format!("cannot spawn shard process: {e}"))?;
        self.children.push(LocalExec {
            child: Some(child),
            exited: None,
        });
        Ok(ExecId(self.children.len() as u64 - 1))
    }

    fn poll(&mut self, exec: ExecId) -> PollStatus {
        let slot = &mut self.children[exec.0 as usize];
        if let Some((success, code)) = slot.exited {
            return PollStatus::Exited {
                success,
                exit_code: code,
            };
        }
        let Some(child) = slot.child.as_mut() else {
            return PollStatus::Lost; // fenced
        };
        match child.try_wait() {
            Ok(Some(status)) => {
                slot.exited = Some((status.success(), status.code()));
                slot.child = None;
                PollStatus::Exited {
                    success: status.success(),
                    exit_code: status.code(),
                }
            }
            Ok(None) => PollStatus::Running,
            // A child we cannot wait on is as gone as a lost host.
            Err(_) => PollStatus::Lost,
        }
    }

    fn health(&mut self, _host: usize) -> HostHealth {
        HostHealth::Reachable
    }

    fn fetch_artifacts(&mut self, _exec: ExecId) -> Result<(), String> {
        Ok(()) // children already wrote into the coordinator's out dir
    }

    fn fence(&mut self, exec: ExecId) {
        let slot = &mut self.children[exec.0 as usize];
        if let Some(child) = slot.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        slot.child = None;
    }

    fn tick(&mut self, idle: bool) {
        if idle {
            std::thread::sleep(Duration::from_millis(15));
        }
    }
}

// ---------------------------------------------------------------------------
// SimHostTransport
// ---------------------------------------------------------------------------

/// One unit of simulated work handed to a [`SimHostTransport`] runner.
pub struct SimJob<'a> {
    /// Host executing the job.
    pub host: usize,
    /// The shard being run.
    pub shard: Shard,
    /// The host's private staging directory; artifacts written here only
    /// reach the coordinator via a successful fetch.
    pub staging: &'a Path,
    /// Zero-based attempt number for this shard *as this transport saw
    /// it* (first-attempt-only fault hooks key off this).
    pub attempt: usize,
}

/// The injectable failure schedule of a [`SimHostTransport`]. All times
/// are virtual poll rounds; everything here is deterministic.
#[derive(Clone, Debug)]
pub struct SimFaults {
    /// Rounds between `spawn` and the job actually starting (launch
    /// latency).
    pub launch_delay: usize,
    /// Rounds a job runs before completing.
    pub run_rounds: usize,
    /// Hosts that die permanently mid-run: `lost_after` rounds into their
    /// first executing job, the host goes [`HostHealth::Dead`] and every
    /// execution on it is lost.
    pub lost_hosts: Vec<usize>,
    /// See [`lost_hosts`](SimFaults::lost_hosts).
    pub lost_after: usize,
    /// Hosts that are already dead when their first spawn arrives — the
    /// "host died between validate and spawn" case. Spawn returns `Err`.
    pub dead_at_spawn: Vec<usize>,
    /// Host pairs partitioned *from the coordinator* together: the moment
    /// the first execution on either host completes (i.e. exactly when
    /// the coordinator would fetch its artifacts), both hosts turn
    /// [`HostHealth::Unreachable`] for
    /// [`partition_rounds`](SimFaults::partition_rounds) rounds, then
    /// heal and rejoin.
    pub partitions: Vec<(usize, usize)>,
    /// How long a partition lasts before healing. Must exceed the
    /// scheduler's heartbeat deadline for the partition to force a
    /// reassignment (the interesting case).
    pub partition_rounds: usize,
}

impl Default for SimFaults {
    fn default() -> SimFaults {
        SimFaults {
            launch_delay: 1,
            run_rounds: 2,
            lost_hosts: Vec::new(),
            lost_after: 1,
            dead_at_spawn: Vec::new(),
            partitions: Vec::new(),
            partition_rounds: 10,
        }
    }
}

/// One recorded fetch, for tests asserting exactly-once delivery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FetchRecord {
    /// The fetched execution.
    pub exec: ExecId,
    /// Host it ran on.
    pub host: usize,
    /// Shard index it delivered.
    pub shard_index: usize,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum SimExecState {
    Launching { remaining: usize },
    Running { remaining: usize },
    Exited { success: bool },
}

struct SimExec {
    host: usize,
    shard: Shard,
    state: SimExecState,
    fenced: bool,
    fetched: bool,
}

struct SimHost {
    dead: bool,
    unreachable_until: Option<usize>,
    ran_anything: bool,
    rounds_running: usize,
}

/// An in-process pool of simulated remote hosts running on virtual time.
///
/// Jobs execute via the caller-supplied runner closure (synchronously, at
/// the virtual round their run time elapses) and write artifacts into a
/// per-host staging directory; [`fetch_artifacts`](Transport::fetch_artifacts)
/// copies files matching the shard's `*.shard<i>of<n>.json` suffix into
/// the coordinator's output directory. Faults come from a [`SimFaults`]
/// schedule. Spawn asserts the exactly-once invariant: a shard may never
/// have two live (unfenced, unexited) executions at once.
pub struct SimHostTransport<'r> {
    hosts: Vec<SimHost>,
    execs: Vec<SimExec>,
    faults: SimFaults,
    out_dir: PathBuf,
    staging_root: PathBuf,
    runner: Box<dyn FnMut(SimJob<'_>) -> bool + 'r>,
    spawns_per_shard: Vec<usize>,
    fetch_log: Vec<FetchRecord>,
    round: usize,
    partition_started: Vec<bool>,
}

impl<'r> SimHostTransport<'r> {
    /// Creates a pool of `hosts` simulated hosts. `out_dir` is the
    /// coordinator's artifact directory (fetch target); staging
    /// directories are created under `staging_root` as `host<i>/`.
    /// `runner` executes one job and returns whether it "exited 0".
    pub fn new(
        hosts: usize,
        shard_count: usize,
        out_dir: impl Into<PathBuf>,
        staging_root: impl Into<PathBuf>,
        faults: SimFaults,
        runner: impl FnMut(SimJob<'_>) -> bool + 'r,
    ) -> SimHostTransport<'r> {
        assert!(hosts > 0, "a pool needs at least one host");
        let partition_started = vec![false; faults.partitions.len()];
        SimHostTransport {
            hosts: (0..hosts)
                .map(|_| SimHost {
                    dead: false,
                    unreachable_until: None,
                    ran_anything: false,
                    rounds_running: 0,
                })
                .collect(),
            execs: Vec::new(),
            faults,
            out_dir: out_dir.into(),
            staging_root: staging_root.into(),
            runner: Box::new(runner),
            spawns_per_shard: vec![0; shard_count],
            fetch_log: Vec::new(),
            round: 0,
            partition_started,
        }
    }

    /// The fetches that actually delivered artifacts, in order — the
    /// exactly-once evidence tests assert on.
    pub fn fetch_log(&self) -> &[FetchRecord] {
        &self.fetch_log
    }

    /// Current virtual round (number of `tick` calls).
    pub fn round(&self) -> usize {
        self.round
    }

    fn staging_path(&self, host: usize) -> PathBuf {
        self.staging_root.join(format!("host{host}"))
    }

    fn host_reachable(&self, host: usize) -> bool {
        !self.hosts[host].dead
            && self.hosts[host]
                .unreachable_until
                .is_none_or(|until| self.round >= until)
    }

    /// Artifact files in `dir` belonging to `shard` (suffix match on the
    /// canonical `<name>.shard<i>of<n>.json` spelling).
    fn shard_files(dir: &Path, shard: Shard) -> Vec<PathBuf> {
        let suffix = format!(".shard{}of{}.json", shard.index, shard.count);
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|f| f.to_str())
                    .is_some_and(|f| f.ends_with(&suffix))
            })
            .collect();
        files.sort();
        files
    }

    /// Runs due state transitions for one virtual round.
    fn advance(&mut self) {
        self.round += 1;
        // Mid-run host death: `lost_after` rounds into a lost host's
        // first executing job, the host dies for good.
        for &lost in &self.faults.lost_hosts {
            let host = &mut self.hosts[lost];
            if host.dead {
                continue;
            }
            if host.ran_anything {
                host.rounds_running += 1;
                if host.rounds_running >= self.faults.lost_after {
                    host.dead = true;
                }
            }
        }
        // Progress executions on live hosts.
        for i in 0..self.execs.len() {
            if self.execs[i].fenced || self.hosts[self.execs[i].host].dead {
                continue;
            }
            match self.execs[i].state {
                SimExecState::Launching { remaining } => {
                    self.execs[i].state = if remaining <= 1 {
                        self.hosts[self.execs[i].host].ran_anything = true;
                        SimExecState::Running {
                            remaining: self.faults.run_rounds,
                        }
                    } else {
                        SimExecState::Launching {
                            remaining: remaining - 1,
                        }
                    };
                }
                SimExecState::Running { remaining } => {
                    if remaining <= 1 {
                        let host = self.execs[i].host;
                        let shard = self.execs[i].shard;
                        let staging = self.staging_path(host);
                        std::fs::create_dir_all(&staging).expect("can create staging dir");
                        let attempt = self.spawns_per_shard[shard.index] - 1;
                        let success = (self.runner)(SimJob {
                            host,
                            shard,
                            staging: &staging,
                            attempt,
                        });
                        self.execs[i].state = SimExecState::Exited { success };
                        self.partition_on_completion(host);
                    } else {
                        self.execs[i].state = SimExecState::Running {
                            remaining: remaining - 1,
                        };
                    }
                }
                SimExecState::Exited { .. } => {}
            }
        }
    }

    /// Activates any not-yet-started partition involving `host`, now that
    /// an execution on it just completed — the coordinator is about to
    /// fetch, and the network goes away under it.
    fn partition_on_completion(&mut self, host: usize) {
        for (p, &(a, b)) in self.faults.partitions.iter().enumerate() {
            if self.partition_started[p] || (host != a && host != b) {
                continue;
            }
            self.partition_started[p] = true;
            let until = self.round + self.faults.partition_rounds;
            for h in [a, b] {
                if !self.hosts[h].dead {
                    self.hosts[h].unreachable_until = Some(until);
                }
            }
        }
    }
}

impl Transport for SimHostTransport<'_> {
    fn host_count(&self) -> usize {
        self.hosts.len()
    }

    fn staging_dir(&self, host: usize) -> Option<PathBuf> {
        Some(self.staging_path(host))
    }

    fn spawn(&mut self, host: usize, shard: Shard, _spec: &CommandSpec) -> Result<ExecId, String> {
        if self.faults.dead_at_spawn.contains(&host) {
            self.hosts[host].dead = true;
        }
        if self.hosts[host].dead {
            return Err(format!("host {host} is dead"));
        }
        if !self.host_reachable(host) {
            return Err(format!("host {host} is unreachable"));
        }
        // The exactly-once invariant the scheduler must uphold: fencing
        // precedes reassignment, so no shard ever has two live
        // executions. A violation here is a scheduler bug.
        assert!(
            !self.execs.iter().any(|e| e.shard == shard
                && !e.fenced
                && !matches!(e.state, SimExecState::Exited { .. })),
            "shard {shard} spawned concurrently on two hosts"
        );
        self.spawns_per_shard[shard.index] += 1;
        self.execs.push(SimExec {
            host,
            shard,
            state: SimExecState::Launching {
                remaining: self.faults.launch_delay.max(1),
            },
            fenced: false,
            fetched: false,
        });
        Ok(ExecId(self.execs.len() as u64 - 1))
    }

    fn poll(&mut self, exec: ExecId) -> PollStatus {
        let e = &self.execs[exec.0 as usize];
        if e.fenced || self.hosts[e.host].dead {
            return PollStatus::Lost;
        }
        if !self.host_reachable(e.host) {
            // A partitioned host is indistinguishable from a silent one.
            return PollStatus::Running;
        }
        match e.state {
            SimExecState::Exited { success } => PollStatus::Exited {
                success,
                exit_code: Some(i32::from(!success)),
            },
            _ => PollStatus::Running,
        }
    }

    fn health(&mut self, host: usize) -> HostHealth {
        if self.hosts[host].dead {
            HostHealth::Dead
        } else if self.host_reachable(host) {
            HostHealth::Reachable
        } else {
            HostHealth::Unreachable
        }
    }

    fn fetch_artifacts(&mut self, exec: ExecId) -> Result<(), String> {
        let (host, shard, fenced) = {
            let e = &self.execs[exec.0 as usize];
            (e.host, e.shard, e.fenced)
        };
        if fenced {
            return Err("execution was fenced".to_owned());
        }
        if self.hosts[host].dead {
            return Err(format!("host {host} is dead"));
        }
        if !self.host_reachable(host) {
            return Err(format!("host {host} is unreachable"));
        }
        let staging = self.staging_path(host);
        let files = Self::shard_files(&staging, shard);
        if files.is_empty() {
            // "Artifact absent" is a failure at the transport layer too —
            // a zero-exit job that wrote nothing (or whose staging
            // directory vanished) must never look fetched.
            return Err(format!(
                "no artifacts for shard {shard} in {}",
                staging.display()
            ));
        }
        std::fs::create_dir_all(&self.out_dir)
            .map_err(|e| format!("cannot create {}: {e}", self.out_dir.display()))?;
        for file in &files {
            let name = file.file_name().expect("listed file has a name");
            let text =
                std::fs::read(file).map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            crate::driver::write_atomic(&self.out_dir.join(name), &text)
                .map_err(|e| format!("cannot write fetched artifact: {e}"))?;
        }
        self.execs[exec.0 as usize].fetched = true;
        self.fetch_log.push(FetchRecord {
            exec,
            host,
            shard_index: shard.index,
        });
        Ok(())
    }

    fn fence(&mut self, exec: ExecId) {
        let (host, shard) = {
            let e = &mut self.execs[exec.0 as usize];
            if e.fenced {
                return;
            }
            e.fenced = true;
            (e.host, e.shard)
        };
        // Kill-and-scrub: whatever the execution wrote can never be
        // fetched, even after a partition heals.
        for file in Self::shard_files(&self.staging_path(host), shard) {
            let _ = std::fs::remove_file(file);
        }
    }

    fn tick(&mut self, _idle: bool) {
        self.advance();
    }
}
