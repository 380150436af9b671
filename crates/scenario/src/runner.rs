//! The closed-loop simulation driver and strategy comparison.
//!
//! [`run_scenario`] wires the fleet, the radio medium and the chosen
//! [`Strategy`] into an event-scheduled core — a deterministic
//! [`Timeline`] of typed scenario events keyed by `(timestamp, seq)` —
//! and runs the looking-around-the-corner workload: the ego vehicle
//! periodically wants
//! an up-to-date view of the occluded corridor, and each strategy procures
//! it differently —
//!
//! * **AirDnD** — offload a TaskVM kernel to the best mesh member holding
//!   fresh occupancy data; only the task and its small result travel;
//! * **Cloud** — every vehicle uploads its raw camera frame over shared
//!   cellular; the cloud fuses and the ego downloads the view;
//! * **RawSharing** — V2V like AirDnD, but the helper ships its raw frame
//!   and the ego computes locally;
//! * **LocalOnly** — no cooperation at all.
//!
//! The [`ScenarioReport`] carries everything experiments F2–F4, F7–F8 and
//! T9 tabulate: latency, bytes by medium, coverage vs ground truth,
//! detection time, mesh dynamics and executor utilization.

use crate::demand::DemandProfile;
use crate::fleet::{Fleet, FleetLayout};
use crate::lifecycle::{FleetAction, FleetSchedule};
use crate::perception::{fuse_max, is_valid_grid, observed_fraction};
use crate::world::{OcclusionParams, ScenarioWorld};
use airdnd_baselines::{CloudOffload, LocalOnly};
use airdnd_core::{
    NodeAction, NodeEvent, OffloadMsg, OrchestratorConfig, OrchestratorStats, TaskOutcome, WireMsg,
};
use airdnd_data::{DataQuery, DataType, QualityDescriptor, QualityRequirement};
use airdnd_engine::Timeline;
use airdnd_geo::Vec2;
use airdnd_mesh::MeshConfig;
use airdnd_radio::{DeliveryOutcome, NodeAddr, RadioMedium};
use airdnd_sim::{percentile, SimDuration, SimRng, SimTime};
use airdnd_task::{library, ResourceRequirements, TaskId, TaskSpec};
use airdnd_telemetry::{
    DropReason, EventKind, Phase, QueryTracer, RunTelemetry, Scope, StageBudget, TelemetryOptions,
};
use airdnd_trust::PrivacyLevel;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::rc::Rc;
use std::time::Instant;

/// How the ego procures remote perception.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// The paper's system: task-to-data offloading over the mesh.
    Airdnd,
    /// Cellular cloud offload of raw frames.
    Cloud {
        /// Use the 5G profile instead of LTE.
        fiveg: bool,
    },
    /// V2V raw-frame transfer, local compute.
    RawSharing,
    /// No cooperation.
    LocalOnly,
}

impl Strategy {
    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Airdnd => "airdnd",
            Strategy::Cloud { fiveg: true } => "cloud-5g",
            Strategy::Cloud { fiveg: false } => "cloud-lte",
            Strategy::RawSharing => "raw-sharing",
            Strategy::LocalOnly => "local-only",
        }
    }
}

/// Scenario parameters. `Default` gives the canonical F2–F4 setup.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Fleet size including the ego.
    pub vehicles: usize,
    /// Intersection arm length, metres.
    pub arm_length: f64,
    /// Lane speed limit, m/s.
    pub speed_limit: f64,
    /// Corner-building setback, metres.
    pub building_setback: f64,
    /// Corner-building size, metres.
    pub building_size: f64,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Driver tick (mobility + mesh timers).
    pub tick: SimDuration,
    /// Sensor range, metres.
    pub sensor_range: f64,
    /// Sensor refresh every this many ticks.
    pub sensor_every_ticks: u32,
    /// Ego perception-task period, in ticks.
    pub task_every_ticks: u32,
    /// FNV "inference" passes inside each perception kernel — the
    /// compute-weight knob (gas ≈ rounds × cells × 17).
    pub task_compute_rounds: u32,
    /// Heterogeneous ECU speed range, gas/s.
    pub gas_rate_range: (u64, u64),
    /// Fraction of helpers returning corrupted results.
    pub byzantine_fraction: f64,
    /// Number of ground-truth agents hidden in the corridor.
    pub hidden_agents: usize,
    /// Orchestrator tuning.
    pub orch: OrchestratorConfig,
    /// Mesh tuning.
    pub mesh: MeshConfig,
    /// MAC transmit-queue bound: a frame that cannot reach the air within
    /// this delay is dropped instead of deferred (`None` = defer forever,
    /// the historical model). Dense fleets set this near the beacon
    /// interval so radio overload sheds beacons — keeping the surviving
    /// adverts fresh and the airspace backlog bounded — rather than
    /// ratcheting every delivery later and later for the rest of the run.
    pub radio_queue_cap: Option<SimDuration>,
    /// Cooperation strategy.
    pub strategy: Strategy,
    /// When the ego issues perception tasks ([`DemandProfile::Steady`]
    /// reproduces the historical fixed period).
    pub demand: DemandProfile,
}

// The sweep harness farms `run_scenario` calls across worker threads; the
// contract that makes this sound is enforced here at compile time: configs
// move into workers, reports move back, and `run_scenario` itself is a pure
// function of its config (the world state and its event timeline are
// created per-call and never escape it).
const _: () = {
    const fn assert_send_sync<T: Send + Sync + 'static>() {}
    assert_send_sync::<ScenarioConfig>();
    assert_send_sync::<ScenarioReport>();
};

/// Chainable builder hooks, the vocabulary sweep axes are written in
/// (`SweepSpec::axis("vehicles", ns, |cfg, &n| { cfg.set_vehicles(n); })`
/// or inline struct updates both work; these keep axis closures terse).
impl ScenarioConfig {
    /// Sets the master seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fleet size (including the ego).
    pub fn with_vehicles(mut self, vehicles: usize) -> Self {
        self.vehicles = vehicles;
        self
    }

    /// Sets the cooperation strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the simulated duration.
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the lane speed limit (the churn knob), m/s.
    pub fn with_speed_limit(mut self, speed_limit: f64) -> Self {
        self.speed_limit = speed_limit;
        self
    }

    /// Sets the ego task period in ticks (the offered-load knob).
    pub fn with_task_every_ticks(mut self, ticks: u32) -> Self {
        self.task_every_ticks = ticks;
        self
    }

    /// Sets the fraction of byzantine helpers.
    pub fn with_byzantine_fraction(mut self, fraction: f64) -> Self {
        self.byzantine_fraction = fraction;
        self
    }

    /// Sets the perception-demand profile.
    pub fn with_demand(mut self, demand: DemandProfile) -> Self {
        self.demand = demand;
        self
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 42,
            vehicles: 12,
            arm_length: 250.0,
            speed_limit: 13.9,
            building_setback: 12.0,
            building_size: 40.0,
            duration: SimDuration::from_secs(60),
            tick: SimDuration::from_millis(100),
            sensor_every_ticks: 2,
            task_every_ticks: 5,
            task_compute_rounds: 150,
            sensor_range: 120.0,
            gas_rate_range: (500_000, 4_000_000),
            byzantine_fraction: 0.0,
            hidden_agents: 1,
            orch: OrchestratorConfig::default(),
            mesh: MeshConfig::default(),
            radio_queue_cap: None,
            strategy: Strategy::Airdnd,
            demand: DemandProfile::Steady,
        }
    }
}

/// A fully instantiated stage: the world geometry plus everything the
/// driver needs that is *derived from* the geometry rather than the
/// scenario knobs — which portal the ego uses, where ground-truth agents
/// hide, and where parked/RSU helpers sit. [`run_scenario`] builds the
/// canonical corner instance; `airdnd-worldgen` families build generated
/// ones and feed them through [`run_scenario_in_observed`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorldInstance {
    /// The stage with its derived occlusion grid.
    pub stage: ScenarioWorld,
    /// Portal/arm the ego enters (and re-enters) from.
    pub ego_arm: usize,
    /// Ground-truth agents hidden in the occluded corridor.
    pub hidden_agents: Vec<Vec2>,
    /// Parked/RSU helper positions.
    pub parked: Vec<Vec2>,
    /// Spawn-scatter window, seconds (the fleet's arrival process).
    pub arrival_window_s: f64,
    /// Mid-run vehicle arrivals/departures the driver applies at tick
    /// boundaries. Empty (the default) is the static fleet, byte for byte.
    pub schedule: FleetSchedule,
    /// Extra concurrent query origins beyond the primary ego. Each gets
    /// its own hidden-region grid, derived from its own approach path.
    pub extra_egos: Vec<EgoRoute>,
    /// The derived occlusion stage carried for each extra ego, parallel
    /// to `extra_egos`. [`WorldInstance::ensure_ego_stages`] fills any
    /// missing tail via [`WorldInstance::derive_ego_stage`], so this one
    /// derivation is authoritative — worldgen and the runner no longer
    /// each derive their own copy.
    pub extra_ego_stages: Vec<ScenarioWorld>,
    /// Through-obstacle radio penetration loss override, dB (`None` keeps
    /// the medium's profile default). Tunnel/bridge worlds raise it so
    /// the structure genuinely partitions the mesh.
    pub obstacle_loss_db: Option<f64>,
}

/// One extra query origin: the portal it enters from and the goal whose
/// approach path its personal occlusion grid is derived along (via
/// [`ScenarioWorld::derive`], exactly like the primary ego's).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EgoRoute {
    /// Portal arm this ego enters (and re-enters) from.
    pub arm: usize,
    /// Goal portal whose path from `arm` the occlusion derivation walks.
    pub goal_arm: usize,
}

impl WorldInstance {
    /// The canonical "looking around the corner" stage: four-way
    /// intersection, corner buildings, ego from the south, agents parked
    /// in the occluded corridor — exactly the world the paper evaluates.
    pub fn canonical(cfg: &ScenarioConfig) -> Self {
        let stage = ScenarioWorld::build(
            cfg.arm_length,
            cfg.speed_limit,
            cfg.building_setback,
            cfg.building_size,
        );
        // Hidden ground-truth agents parked in the occluded corridor.
        let hidden_agents: Vec<Vec2> = (0..cfg.hidden_agents)
            .map(|i| Vec2::new(55.0 + 15.0 * i as f64, 2.0))
            .collect();
        WorldInstance {
            stage,
            ego_arm: 0,
            hidden_agents,
            parked: Vec::new(),
            arrival_window_s: 20.0,
            schedule: FleetSchedule::default(),
            extra_egos: Vec::new(),
            extra_ego_stages: Vec::new(),
            obstacle_loss_db: None,
        }
    }

    /// The one authoritative per-ego occlusion derivation: walks `route`'s
    /// approach path through this instance's geometry with the default
    /// occlusion parameters (arms taken modulo the map's arm count).
    /// Returns `None` when the path induces no occluded corridor.
    pub fn derive_ego_stage(&self, route: EgoRoute) -> Option<ScenarioWorld> {
        let arms = self.stage.net.arm_count();
        ScenarioWorld::derive(
            self.stage.net.clone(),
            self.stage.world.clone(),
            self.stage.net.approach_node(route.arm % arms),
            self.stage.net.exit_node(route.goal_arm % arms),
            &OcclusionParams::default(),
        )
    }

    /// Fills `extra_ego_stages` so every route in `extra_egos` carries its
    /// derived stage (falling back to the shared primary stage when the
    /// route derives no corridor of its own). Idempotent; stages already
    /// carried — e.g. by `worldgen::assign_extra_egos` — are kept.
    pub fn ensure_ego_stages(&mut self) {
        for k in self.extra_ego_stages.len()..self.extra_egos.len() {
            let route = self.extra_egos[k];
            let stage = self
                .derive_ego_stage(route)
                .unwrap_or_else(|| self.stage.clone());
            self.extra_ego_stages.push(stage);
        }
    }
}

/// Everything a scenario run measures.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Strategy label.
    pub strategy: String,
    /// Simulated seconds.
    pub duration_s: f64,
    /// Fleet size.
    pub vehicles: usize,
    /// Perception tasks issued by the ego.
    pub tasks_submitted: u64,
    /// Tasks that produced a usable view.
    pub tasks_completed: u64,
    /// Tasks that failed or missed their deadline.
    pub tasks_failed: u64,
    /// `completed / submitted`.
    pub completion_rate: f64,
    /// Mean end-to-end latency, ms.
    pub latency_mean_ms: f64,
    /// Median latency, ms.
    pub latency_p50_ms: f64,
    /// 95th-percentile latency, ms.
    pub latency_p95_ms: f64,
    /// Worst latency, ms.
    pub latency_max_ms: f64,
    /// Bytes put on the V2V air (beacons, offers, results, raw frames).
    pub mesh_bytes: u64,
    /// Bytes over the cellular path.
    pub cellular_bytes: u64,
    /// `(mesh + cellular) / completed`, bytes per successful view.
    pub bytes_per_task: f64,
    /// Mean observed fraction of the hidden region with cooperation.
    pub mean_coverage: f64,
    /// Mean observed fraction with the ego's own sensors only.
    pub ego_only_coverage: f64,
    /// First time the hidden agent appeared in the ego's fused view, s.
    pub time_to_detect_s: Option<f64>,
    /// Time for the ego to see its first mesh member, s.
    pub mesh_formation_s: Option<f64>,
    /// Mean mesh size observed by the ego.
    pub mean_members: f64,
    /// Fleet-wide membership joins.
    pub joins: u64,
    /// Fleet-wide membership leaves.
    pub leaves: u64,
    /// Mean fraction of each helper ECU's capacity actually used.
    pub mean_executor_utilization: f64,
    /// Completed tasks whose outputs were corrupt (byzantine slipped by).
    pub invalid_results_accepted: u64,
    /// Fleet-wide offload offers sent.
    pub offers_sent: u64,
    /// Fleet-wide results returned by executors.
    pub results_returned: u64,
    /// Full latency sample list, ms (for CDF plots).
    pub latencies_ms: Vec<f64>,
    /// Concurrent query origins (the primary ego plus extras).
    pub egos: usize,
    /// Mid-run vehicle arrivals applied from the fleet schedule.
    pub lifecycle_spawns: u64,
    /// Mid-run vehicle departures applied from the fleet schedule.
    pub lifecycle_despawns: u64,
    /// Lowest per-ego completion rate (1.0 for an ego that submitted
    /// nothing) — the fairness floor across concurrent query origins.
    pub ego_completion_min: f64,
    /// Highest minus lowest per-ego completion rate.
    pub ego_completion_spread: f64,
    /// Worst per-ego median latency, ms (deterministic histogram bucket
    /// upper bound from the telemetry registry).
    pub ego_p50_worst_ms: f64,
    /// Worst per-ego 95th-percentile latency, ms (bucket upper bound).
    pub ego_p95_worst_ms: f64,
    /// Median submit→first-offer time across completed queries, ms — the
    /// discovery stage of the critical path. Strategies that never use
    /// the offload protocol book their whole latency under `exec`. All
    /// ten stage columns come from the always-on [`QueryTracer`] book,
    /// so they are identical whether span recording is on or off.
    pub lat_discover_p50_ms: f64,
    /// 95th-percentile discovery time, ms.
    pub lat_discover_p95_ms: f64,
    /// Median first-offer→winning-offer time (helper selection), ms.
    pub lat_select_p50_ms: f64,
    /// 95th-percentile selection time, ms.
    pub lat_select_p95_ms: f64,
    /// Median winning-offer radio flight time (MAC queue + contention +
    /// airtime + propagation), ms.
    pub lat_radio_p50_ms: f64,
    /// 95th-percentile radio flight time, ms.
    pub lat_radio_p95_ms: f64,
    /// Median remote-execution time (offer delivery → result ready), ms.
    pub lat_exec_p50_ms: f64,
    /// 95th-percentile remote-execution time, ms.
    pub lat_exec_p95_ms: f64,
    /// Median result-return time (result ready → completion), ms.
    pub lat_return_p50_ms: f64,
    /// 95th-percentile result-return time, ms.
    pub lat_return_p95_ms: f64,
}

/// One scheduled scenario event. Wire payloads ride behind an `Rc` so a
/// broadcast's N deliveries share one heap copy until each receiver takes
/// (or, for the last one, steals) its own — and so the queue's elements
/// stay small for cheap heap sifts.
#[derive(Clone, Debug)]
enum ScenMsg {
    Tick,
    Deliver {
        from: NodeAddr,
        to: NodeAddr,
        msg: Rc<WireMsg>,
    },
    TransmitAt {
        src: NodeAddr,
        to: NodeAddr,
        msg: Rc<WireMsg>,
    },
    CloudView {
        ego: usize,
        task: u64,
        submitted: SimTime,
        grid: Vec<i64>,
    },
    RawView {
        ego: usize,
        task: u64,
        submitted: SimTime,
        grid: Vec<i64>,
    },
}

/// One query origin's private view of the run: its own derived occlusion
/// grid, its own local-compute fallback, and its own bookkeeping. Index 0
/// is the primary ego; extras come from [`WorldInstance::extra_egos`].
struct EgoState {
    addr: NodeAddr,
    stage: ScenarioWorld,
    local: LocalOnly,
    task_gas_budget: u64,
    submitted: u64,
    completed: u64,
    failed: u64,
    invalid_accepted: u64,
    latencies_ms: Vec<f64>,
    coverage: Vec<f64>,
    ego_only: Vec<f64>,
    detect_time: Option<SimTime>,
}

impl EgoState {
    fn new(addr: NodeAddr, stage: ScenarioWorld, task_gas_budget: u64, local: LocalOnly) -> Self {
        EgoState {
            addr,
            stage,
            local,
            task_gas_budget,
            submitted: 0,
            completed: 0,
            failed: 0,
            invalid_accepted: 0,
            latencies_ms: Vec::new(),
            coverage: Vec::new(),
            ego_only: Vec::new(),
            detect_time: None,
        }
    }
}

struct WorldState {
    cfg: ScenarioConfig,
    stage: ScenarioWorld,
    fleet: Fleet,
    medium: RadioMedium,
    cloud: Option<CloudOffload>,
    egos: Vec<EgoState>,
    /// Distinct per-ego grids every vehicle's sensor refresh rasterizes
    /// (deduplicated, so a single ego keeps the historical single insert).
    sensor_stages: Vec<ScenarioWorld>,
    /// One prebuilt line-of-sight index per sensor stage, in stage order:
    /// the refresh loop is vehicles × stages × cells, so its LOS tests
    /// must not rescan every obstacle on city-scale worlds.
    sensor_los: Vec<airdnd_geo::ObstacleIndex>,
    hidden_agents: Vec<Vec2>,
    schedule: FleetSchedule,
    schedule_cursor: usize,
    lifecycle_rng: SimRng,
    spawns: u64,
    despawns: u64,
    tick_count: u64,
    next_task: u64,
    /// task id → (submitting ego index, submit time).
    task_submit_times: std::collections::BTreeMap<u64, (usize, SimTime)>,
    member_samples: Vec<f64>,
    mesh_formation: Option<SimTime>,
    joins: u64,
    leaves: u64,
    /// Typed events, deterministic metrics and phase attribution. The
    /// registry inside is always populated (fairness fields read from
    /// it); event/profile recording obeys the run's `TelemetryOptions`.
    /// Nothing here feeds back into simulation state, RNG streams or
    /// scheduling — telemetry on vs off is byte-identical in the report.
    telemetry: RunTelemetry,
    /// Always-on critical-path book (and, when spans are enabled, the
    /// per-query span-tree recorder). Deterministic integer bookkeeping
    /// only — the stage columns it feeds are part of the report whether
    /// span recording is on or off.
    tracer: QueryTracer,
}

impl WorldState {
    /// Position of the vehicle hosting ego `ego`.
    fn ego_pos(&self, ego: usize) -> Vec2 {
        let idx = self
            .fleet
            .index_of(self.egos[ego].addr)
            .expect("ego vehicles never despawn");
        self.fleet.get(idx).expect("ego slot live").pos()
    }

    fn ego_grid(&self, ego: usize) -> Vec<i64> {
        let pos = self.ego_pos(ego);
        self.egos[ego]
            .stage
            .rasterize(pos, self.cfg.sensor_range, &self.hidden_agents)
    }

    fn record_view(
        &mut self,
        now: SimTime,
        submitted: SimTime,
        remote: &[i64],
        ego: usize,
        task: u64,
    ) {
        let mut fused = self.ego_grid(ego);
        let valid = remote.len() == fused.len() && is_valid_grid(remote);
        if valid {
            fuse_max(&mut fused, remote);
        } else {
            self.egos[ego].invalid_accepted += 1;
            self.telemetry
                .metrics
                .inc("invalid_results_accepted", Scope::Ego(ego as u32));
        }
        let own = observed_fraction(&self.ego_grid(ego));
        let hit = self.egos[ego].detect_time.is_none() && {
            let stage = &self.egos[ego].stage;
            self.hidden_agents
                .iter()
                .filter_map(|&a| stage.cell_of(a))
                .any(|idx| fused.get(idx) == Some(&1))
        };
        let latency = now.saturating_since(submitted);
        let state = &mut self.egos[ego];
        state.completed += 1;
        state.latencies_ms.push(latency.as_millis_f64());
        state.coverage.push(observed_fraction(&fused));
        state.ego_only.push(own);
        if hit {
            state.detect_time = Some(now);
        }
        let actor = self.egos[ego].addr.raw() as u32;
        let latency_us = latency.as_nanos() / 1_000;
        // Close the query's span tree and book its critical-path stage
        // budget. Tasks the tracer never saw submitted (cloud / raw /
        // local strategies) attribute their whole latency to execution.
        let budget = self
            .tracer
            .complete(&mut self.telemetry.spans, task, now)
            .unwrap_or_else(|| StageBudget::all_exec(task, latency_us));
        self.tracer.push_sample(budget);
        self.telemetry
            .metrics
            .inc("tasks_completed", Scope::Ego(ego as u32));
        self.telemetry
            .metrics
            .observe_us("task_latency_us", Scope::Ego(ego as u32), latency_us);
        self.telemetry.event(
            now,
            actor,
            EventKind::TaskComplete {
                task,
                ego: ego as u32,
                latency_us,
            },
        );
    }

    /// Books one dropped frame: the typed event plus the always-on
    /// registry counters (`frame_drops`, and `frame_drops_queue_cap` for
    /// bounded-MAC sheds — the G5 saturation signal).
    fn record_frame_drop(
        &mut self,
        now: SimTime,
        from: NodeAddr,
        to: Option<NodeAddr>,
        bytes: u64,
        reason: DropReason,
    ) {
        self.telemetry.metrics.inc("frame_drops", Scope::Global);
        if reason == DropReason::QueueCap {
            self.telemetry
                .metrics
                .inc("frame_drops_queue_cap", Scope::Global);
        }
        self.telemetry.event(
            now,
            from.raw() as u32,
            EventKind::FrameDrop {
                from: from.raw() as u32,
                to: to.map(|t| t.raw() as u32),
                bytes,
                reason,
            },
        );
    }

    /// Books one failed/expired task for `ego` — counters, registry and
    /// (when enabled) the typed event, in one place so every failure path
    /// stays consistent.
    fn record_failure(&mut self, now: SimTime, ego: usize, task: u64) {
        self.tracer.fail(&mut self.telemetry.spans, task, now);
        self.egos[ego].failed += 1;
        self.telemetry
            .metrics
            .inc("tasks_failed", Scope::Ego(ego as u32));
        let actor = self.egos[ego].addr.raw() as u32;
        self.telemetry.event(
            now,
            actor,
            EventKind::TaskExpire {
                task,
                ego: ego as u32,
            },
        );
    }

    /// Gas budget of one perception kernel on ego `ego`'s grid (measured
    /// once at startup — execution is deterministic — plus headroom).
    fn task_gas(&self, ego: usize) -> u64 {
        self.egos[ego].task_gas_budget
    }

    fn perception_task(&mut self, now: SimTime, ego: usize) -> TaskSpec {
        let cells = self.egos[ego].stage.cell_count() as u32;
        self.next_task += 1;
        let id = TaskId::new(self.next_task);
        self.task_submit_times.insert(id.raw(), (ego, now));
        let query = DataQuery {
            data_type: DataType::OccupancyGrid,
            requirement: QualityRequirement {
                max_age: SimDuration::from_secs(1),
                required_region: Some(self.egos[ego].stage.hidden_region),
                min_coverage_fraction: 0.3,
                ..Default::default()
            },
        };
        TaskSpec::new(
            id,
            "corner-view",
            library::burn_and_echo(self.cfg.task_compute_rounds).into_inner(),
        )
        .with_input(query)
        .with_requirements(ResourceRequirements {
            gas: self.task_gas(ego),
            memory_bytes: 1 << 16,
            input_bytes: 512,
            output_bytes: cells as u64 * 8,
            deadline: SimDuration::from_secs(1),
        })
    }
}

/// The event handlers: each popped timeline event is dispatched straight
/// into these `&mut self` methods — no actor mailbox, no `Rc<RefCell<..>>`
/// round-trips, no dynamic dispatch.
impl WorldState {
    /// Deposits `start`'s elapsed wall-clock under `phase`. `start` is
    /// `None` when profiling is off, making this a no-op.
    fn profile(&mut self, start: Option<Instant>, phase: Phase) {
        if let Some(start) = start {
            self.telemetry
                .phases
                .record_nanos(phase, start.elapsed().as_nanos());
        }
    }

    fn process_actions(
        &mut self,
        tl: &mut Timeline<ScenMsg>,
        now: SimTime,
        src: NodeAddr,
        actions: Vec<NodeAction>,
    ) {
        for action in actions {
            match action {
                NodeAction::Broadcast(msg) => {
                    let size = msg.wire_size_bytes();
                    let drops_before = self.medium.queue_drops();
                    let (deliveries, _) = self.medium.broadcast(now, src, size);
                    self.telemetry.event(
                        now,
                        src.raw() as u32,
                        EventKind::FrameTx {
                            from: src.raw() as u32,
                            to: None,
                            bytes: size,
                        },
                    );
                    // A broadcast shed by the bounded MAC queue returns no
                    // deliveries and bumps the medium's drop counter — make
                    // that saturation visible as a typed event.
                    if self.medium.queue_drops() > drops_before {
                        self.record_frame_drop(now, src, None, size, DropReason::QueueCap);
                    }
                    let msg = Rc::new(msg);
                    for d in deliveries {
                        tl.schedule_at(
                            now + d.at.saturating_since(now),
                            ScenMsg::Deliver {
                                from: src,
                                to: d.to,
                                msg: Rc::clone(&msg),
                            },
                        );
                    }
                }
                NodeAction::Send { to, msg } => {
                    let size = msg.wire_size_bytes();
                    let (outcome, _) = self.medium.unicast(now, src, to, size);
                    if let WireMsg::Offload(OffloadMsg::Offer { task, .. }) = &msg {
                        self.tracer.offer_sent(
                            &mut self.telemetry.spans,
                            task.id.raw(),
                            to.raw() as u32,
                            now,
                            outcome.delivered_at(),
                        );
                        self.telemetry.event(
                            now,
                            src.raw() as u32,
                            EventKind::TaskOffload {
                                task: task.id.raw(),
                                executor: to.raw() as u32,
                            },
                        );
                    }
                    self.telemetry.event(
                        now,
                        src.raw() as u32,
                        EventKind::FrameTx {
                            from: src.raw() as u32,
                            to: Some(to.raw() as u32),
                            bytes: size,
                        },
                    );
                    if !matches!(outcome, DeliveryOutcome::Delivered { .. }) {
                        self.record_frame_drop(now, src, Some(to), size, drop_reason(&outcome));
                    }
                    if let DeliveryOutcome::Delivered { at, .. } = outcome {
                        tl.schedule_at(
                            now + at.saturating_since(now),
                            ScenMsg::Deliver {
                                from: src,
                                to,
                                msg: Rc::new(msg),
                            },
                        );
                    }
                }
                NodeAction::SendAt { to, at, msg } => {
                    // A deferred Result frame is the helper finishing the
                    // offloaded kernel: execution started when the offer
                    // arrived (now) and the result is ready at `at`.
                    if let WireMsg::Offload(OffloadMsg::Result { task, .. }) = &msg {
                        self.tracer.result_ready(
                            &mut self.telemetry.spans,
                            task.raw(),
                            src.raw() as u32,
                            now,
                            now + at.saturating_since(now),
                        );
                    }
                    tl.schedule_at(
                        now + at.saturating_since(now),
                        ScenMsg::TransmitAt {
                            src,
                            to,
                            msg: Rc::new(msg),
                        },
                    );
                }
                NodeAction::Outcome { task, outcome } => {
                    let (ego, submitted) = self
                        .task_submit_times
                        .remove(&task.raw())
                        .unwrap_or((0, now));
                    match outcome {
                        TaskOutcome::Completed { outputs, .. } => {
                            self.record_view(now, submitted, &outputs, ego, task.raw());
                        }
                        TaskOutcome::Failed { .. } => {
                            self.record_failure(now, ego, task.raw());
                        }
                    }
                }
                NodeAction::MeshJoined(_) => {
                    self.joins += 1;
                    if src == self.fleet.ego().node.addr() && self.mesh_formation.is_none() {
                        self.mesh_formation = Some(now);
                    }
                    self.telemetry
                        .metrics
                        .inc("mesh_joins", Scope::Node(src.raw() as u32));
                    self.telemetry.metrics.inc("mesh_joins", Scope::Global);
                    self.telemetry.event(
                        now,
                        src.raw() as u32,
                        EventKind::MeshJoin {
                            node: src.raw() as u32,
                        },
                    );
                }
                NodeAction::MeshLeft(_) => {
                    self.leaves += 1;
                    self.telemetry
                        .metrics
                        .inc("mesh_leaves", Scope::Node(src.raw() as u32));
                    self.telemetry.metrics.inc("mesh_leaves", Scope::Global);
                    self.telemetry.event(
                        now,
                        src.raw() as u32,
                        EventKind::MeshLeave {
                            node: src.raw() as u32,
                        },
                    );
                }
            }
        }
    }

    /// Applies every fleet event due at this tick boundary: spawns join
    /// the mesh population, despawns leave it (gracefully or abruptly).
    fn apply_lifecycle(&mut self, tl: &mut Timeline<ScenMsg>, now: SimTime) {
        loop {
            let event = match self.schedule.events.get(self.schedule_cursor) {
                Some(&event) if event.at_s <= now.as_secs_f64() => {
                    self.schedule_cursor += 1;
                    event
                }
                _ => break,
            };
            match event.action {
                FleetAction::Spawn { arm } => {
                    let arm = arm % self.stage.net.arm_count();
                    let (lo, hi) = self.cfg.gas_rate_range;
                    let gas_rate = if hi > lo {
                        self.lifecycle_rng.gen_range(lo..=hi)
                    } else {
                        lo
                    };
                    // Arrivals are helpers, so they draw the same
                    // byzantine lottery the initial fleet did —
                    // churn must not dilute the corrupt population.
                    let byzantine = self.lifecycle_rng.chance(self.cfg.byzantine_fraction);
                    // Fork tag = how many spawns have been applied,
                    // so each arrival gets its own stream.
                    let rng = self.lifecycle_rng.fork(self.spawns);
                    let (sensor_range, orch, mesh) =
                        (self.cfg.sensor_range, self.cfg.orch, self.cfg.mesh);
                    let WorldState {
                        fleet,
                        stage,
                        medium,
                        ..
                    } = self;
                    let addr =
                        fleet.push_mobile(stage, arm, gas_rate, sensor_range, orch, mesh, rng);
                    let slot = fleet.index_of(addr).expect("just pushed");
                    let vehicle = fleet.get_mut(slot).expect("just pushed");
                    if byzantine {
                        vehicle.node.executor_mut().set_byzantine(true);
                    }
                    let pos = vehicle.pos();
                    medium.set_position(addr, pos);
                    self.spawns += 1;
                    self.telemetry.event(
                        now,
                        addr.raw() as u32,
                        EventKind::LifecycleSpawn {
                            node: addr.raw() as u32,
                        },
                    );
                }
                FleetAction::Despawn { graceful } => {
                    // Oldest eligible vehicle: mobile, not a query origin.
                    // The fleet keeps the candidates in an ordered set, so
                    // this is O(log n) per despawn where it used to be an
                    // O(fleet × egos) scan — the pick itself is unchanged
                    // (smallest eligible address == first eligible vehicle
                    // in fleet order).
                    let Some(addr) = self.fleet.despawn_candidate() else {
                        continue;
                    };
                    if graceful {
                        let idx = self.fleet.index_of(addr).expect("victim present");
                        let actions = self
                            .fleet
                            .get_mut(idx)
                            .expect("victim live")
                            .node
                            .leave(now);
                        self.process_actions(tl, now, addr, actions);
                    }
                    self.fleet.remove(addr);
                    self.medium.remove_node(addr);
                    self.despawns += 1;
                    self.telemetry.event(
                        now,
                        addr.raw() as u32,
                        EventKind::LifecycleDespawn {
                            node: addr.raw() as u32,
                            graceful,
                        },
                    );
                }
            }
        }
    }

    fn tick(&mut self, tl: &mut Timeline<ScenMsg>, now: SimTime) {
        let profiling = self.telemetry.phases.is_enabled();
        let started = profiling.then(Instant::now);
        self.apply_lifecycle(tl, now);
        self.profile(started, Phase::Lifecycle);

        let started = profiling.then(Instant::now);
        self.tick_count += 1;
        let dt = self.cfg.tick.as_secs_f64();
        {
            // Split borrow: mobility reads the stage while mutating the
            // fleet, so destructure instead of cloning the world per tick.
            let WorldState {
                fleet,
                stage,
                medium,
                ..
            } = self;
            fleet.step_all(stage, dt);
            for i in 0..fleet.slot_count() {
                if !fleet.kinematics().is_live(i) {
                    continue;
                }
                let pos = fleet.kinematics().positions()[i];
                let vel = fleet.kinematics().velocities()[i];
                let vehicle = fleet.get_mut(i).expect("live slot");
                let addr = vehicle.node.addr();
                medium.set_position(addr, pos);
                vehicle.node.set_kinematics(pos, vel);
            }
        }
        self.profile(started, Phase::Movement);

        // Sensor refresh: every vehicle snapshots each ego's hidden
        // region (one catalog item per distinct grid).
        let started = profiling.then(Instant::now);
        if self
            .tick_count
            .is_multiple_of(self.cfg.sensor_every_ticks as u64)
        {
            let WorldState {
                fleet,
                sensor_stages,
                sensor_los,
                hidden_agents,
                cfg,
                ..
            } = self;
            for vehicle in fleet.iter_mut() {
                let pos = vehicle.pos();
                for (sensed, los) in sensor_stages.iter().zip(sensor_los.iter()) {
                    let grid = sensed.rasterize_with(los, pos, cfg.sensor_range, hidden_agents);
                    vehicle.node.insert_data(
                        DataType::OccupancyGrid,
                        grid,
                        QualityDescriptor {
                            produced_at: now,
                            confidence: 0.9,
                            resolution: 1.0 / sensed.cell_size,
                            coverage: Some(sensed.hidden_region),
                            noise_sigma: 0.0,
                        },
                    );
                }
            }
        }
        self.profile(started, Phase::Sensor);

        // Ego mesh-size sample.
        let members = self.fleet.ego().node.mesh().member_count();
        self.member_samples.push(members as f64);
        let tick_count = self.tick_count;
        let slot_count = self.fleet.slot_count();
        let ego_count = self.egos.len();

        // Node timers (mesh beacons, protocol timeouts). Raw slot loop:
        // `process_actions` may despawn vehicles mid-pass, so consult
        // liveness per slot rather than holding an iterator. Slots only
        // compact between passes (removal never reorders live slots), and
        // any slot appended mid-pass belongs to a spawn that never ticked
        // before this instant anyway.
        let started = profiling.then(Instant::now);
        for i in 0..slot_count {
            let Some(v) = self.fleet.get_mut(i) else {
                continue;
            };
            let addr = v.node.addr();
            let actions = v.node.handle(now, NodeEvent::Tick);
            self.process_actions(tl, now, addr, actions);
        }
        self.profile(started, Phase::Mesh);

        // Perception workload per query origin, paced by the demand profile.
        let started = profiling.then(Instant::now);
        for ego in 0..ego_count {
            let progress = now.as_secs_f64() / self.cfg.duration.as_secs_f64().max(1e-9);
            let ego_pos = self.ego_pos(ego);
            let task_due =
                self.cfg
                    .demand
                    .due(tick_count, self.cfg.task_every_ticks, progress, ego_pos);
            if task_due {
                self.submit_perception(tl, now, ego);
            }
        }
        self.profile(started, Phase::Tasks);

        // Next tick.
        if now + self.cfg.tick <= SimTime::ZERO + self.cfg.duration {
            tl.schedule_at(now + self.cfg.tick, ScenMsg::Tick);
        }
    }

    fn submit_perception(&mut self, tl: &mut Timeline<ScenMsg>, now: SimTime, ego: usize) {
        let ordinal = self.egos[ego].submitted + 1;
        self.telemetry.event(
            now,
            ego as u32,
            EventKind::DemandFire {
                ego: ego as u32,
                task: ordinal,
            },
        );
        self.telemetry
            .metrics
            .inc("tasks_submitted", Scope::Ego(ego as u32));
        match self.cfg.strategy {
            Strategy::Airdnd => {
                self.egos[ego].submitted += 1;
                let spec = self.perception_task(now, ego);
                let addr = self.egos[ego].addr;
                self.tracer.submit(
                    &mut self.telemetry.spans,
                    spec.id.raw(),
                    addr.raw() as u32,
                    now,
                );
                self.telemetry.event(
                    now,
                    addr.raw() as u32,
                    EventKind::TaskSubmit {
                        task: spec.id.raw(),
                        ego: ego as u32,
                    },
                );
                let idx = self.fleet.index_of(addr).expect("ego vehicles persist");
                let actions = self
                    .fleet
                    .get_mut(idx)
                    .expect("ego slot live")
                    .node
                    .submit_task(now, spec, PrivacyLevel::Derived);
                self.process_actions(tl, now, addr, actions);
            }
            Strategy::Cloud { .. } => {
                self.egos[ego].submitted += 1;
                self.next_task += 1;
                let task = self.next_task;
                let submit_actor = self.egos[ego].addr.raw() as u32;
                self.telemetry.event(
                    now,
                    submit_actor,
                    EventKind::TaskSubmit {
                        task,
                        ego: ego as u32,
                    },
                );
                // Every vehicle uploads its raw frame; the cloud fuses all
                // views; the ego downloads the result.
                let raw =
                    DataType::RawFrame(airdnd_data::SensorModality::Camera).typical_size_bytes();
                let gas = self.task_gas(ego);
                let mut last_done = now;
                let WorldState {
                    egos,
                    fleet,
                    cloud,
                    hidden_agents,
                    cfg,
                    ..
                } = self;
                let stage = &egos[ego].stage;
                let result_bytes = stage.cell_count() as u64 * 8;
                let mut fused = vec![-1i64; stage.cell_count()];
                for vehicle in fleet.iter() {
                    let grid = stage.rasterize(vehicle.pos(), cfg.sensor_range, hidden_agents);
                    fuse_max(&mut fused, &grid);
                    let cloud = cloud.as_mut().expect("cloud strategy has a link");
                    let (done, _) = cloud.offload(now, raw, gas, result_bytes);
                    last_done = last_done.max(done);
                }
                tl.schedule_at(
                    now + last_done.saturating_since(now),
                    ScenMsg::CloudView {
                        ego,
                        task,
                        submitted: now,
                        grid: fused,
                    },
                );
            }
            Strategy::RawSharing => {
                self.egos[ego].submitted += 1;
                self.next_task += 1;
                let task = self.next_task;
                let submit_actor = self.egos[ego].addr.raw() as u32;
                self.telemetry.event(
                    now,
                    submit_actor,
                    EventKind::TaskSubmit {
                        task,
                        ego: ego as u32,
                    },
                );
                // Pick the freshest-linked mesh member and pull its frame.
                let ego_addr = self.egos[ego].addr;
                let ego_idx = self.fleet.index_of(ego_addr).expect("ego vehicles persist");
                let descriptor = self
                    .fleet
                    .get(ego_idx)
                    .expect("ego slot live")
                    .node
                    .descriptor(now);
                let best = descriptor
                    .members
                    .iter()
                    .max_by(|a, b| {
                        a.link_quality
                            .partial_cmp(&b.link_quality)
                            .expect("finite")
                            .then(b.addr.cmp(&a.addr))
                    })
                    .map(|m| m.addr);
                let Some(helper_addr) = best else {
                    self.record_failure(now, ego, task);
                    return;
                };
                let Some(helper_idx) = self.fleet.index_of(helper_addr) else {
                    self.record_failure(now, ego, task);
                    return;
                };
                let raw =
                    DataType::RawFrame(airdnd_data::SensorModality::Camera).typical_size_bytes();
                let gas = self.task_gas(ego);
                let agents = self.hidden_agents.clone();
                let helper_pos = self.fleet.get(helper_idx).expect("helper slot live").pos();
                let grid =
                    self.egos[ego]
                        .stage
                        .rasterize(helper_pos, self.cfg.sensor_range, &agents);
                let WorldState { medium, egos, .. } = self;
                let outcome = airdnd_baselines::raw_sharing_completion(
                    medium,
                    &mut egos[ego].local,
                    now,
                    ego_addr,
                    helper_addr,
                    raw,
                    1_400,
                    gas,
                );
                match outcome {
                    Some((done, _bytes)) => {
                        tl.schedule_at(
                            now + done.saturating_since(now),
                            ScenMsg::RawView {
                                ego,
                                task,
                                submitted: now,
                                grid,
                            },
                        );
                    }
                    None => {
                        self.record_failure(now, ego, task);
                    }
                }
            }
            Strategy::LocalOnly => {
                self.egos[ego].submitted += 1;
                self.next_task += 1;
                let task = self.next_task;
                let submit_actor = self.egos[ego].addr.raw() as u32;
                self.telemetry.event(
                    now,
                    submit_actor,
                    EventKind::TaskSubmit {
                        task,
                        ego: ego as u32,
                    },
                );
                let gas = self.task_gas(ego);
                let done = self.egos[ego].local.run(now, gas);
                let grid = self.ego_grid(ego);
                tl.schedule_at(
                    now + done.saturating_since(now),
                    ScenMsg::RawView {
                        ego,
                        task,
                        submitted: now,
                        grid,
                    },
                );
            }
        }
    }
}

/// The timeline dispatcher: one popped event in, state mutations and
/// (possibly) freshly scheduled events out.
impl WorldState {
    fn handle(&mut self, tl: &mut Timeline<ScenMsg>, now: SimTime, msg: ScenMsg) {
        match msg {
            ScenMsg::Tick => self.tick(tl, now),
            ScenMsg::Deliver { from, to, msg } => {
                let started = self.telemetry.phases.is_enabled().then(Instant::now);
                // Offer deliveries run the offloaded kernel synchronously on
                // the helper's TaskVM — that wall-clock is task execution,
                // not medium/protocol work, so it books under `tasks`.
                let phase = if matches!(&*msg, WireMsg::Offload(OffloadMsg::Offer { .. })) {
                    Phase::Tasks
                } else {
                    Phase::Radio
                };
                if self.telemetry.events.is_enabled() {
                    self.telemetry.event(
                        now,
                        to.raw() as u32,
                        EventKind::FrameRx {
                            from: from.raw() as u32,
                            to: to.raw() as u32,
                            bytes: msg.wire_size_bytes(),
                        },
                    );
                }
                if let Some(idx) = self.fleet.index_of(to) {
                    // Last delivery of a broadcast steals the payload;
                    // earlier ones (and racing unicasts) clone it.
                    let msg = Rc::try_unwrap(msg).unwrap_or_else(|rc| (*rc).clone());
                    let v = self.fleet.get_mut(idx).expect("indexed slot live");
                    let addr = v.node.addr();
                    let actions = v.node.handle(now, NodeEvent::Wire { from, msg });
                    self.process_actions(tl, now, addr, actions);
                }
                self.profile(started, phase);
            }
            ScenMsg::TransmitAt { src, to, msg } => {
                let size = msg.wire_size_bytes();
                let outcome = self.medium.unicast(now, src, to, size).0;
                match &*msg {
                    WireMsg::Offload(OffloadMsg::Offer { task, .. }) => {
                        self.tracer.offer_sent(
                            &mut self.telemetry.spans,
                            task.id.raw(),
                            to.raw() as u32,
                            now,
                            outcome.delivered_at(),
                        );
                        self.telemetry.event(
                            now,
                            src.raw() as u32,
                            EventKind::TaskOffload {
                                task: task.id.raw(),
                                executor: to.raw() as u32,
                            },
                        );
                    }
                    WireMsg::Offload(OffloadMsg::Result { task, .. }) => {
                        self.tracer.result_sent(
                            &mut self.telemetry.spans,
                            task.raw(),
                            src.raw() as u32,
                            now,
                            outcome.delivered_at(),
                        );
                    }
                    _ => {}
                }
                self.telemetry.event(
                    now,
                    src.raw() as u32,
                    EventKind::FrameTx {
                        from: src.raw() as u32,
                        to: Some(to.raw() as u32),
                        bytes: size,
                    },
                );
                if !matches!(outcome, DeliveryOutcome::Delivered { .. }) {
                    self.record_frame_drop(now, src, Some(to), size, drop_reason(&outcome));
                }
                if let DeliveryOutcome::Delivered { at, .. } = outcome {
                    tl.schedule_at(
                        now + at.saturating_since(now),
                        ScenMsg::Deliver { from: src, to, msg },
                    );
                }
            }
            ScenMsg::CloudView {
                ego,
                task,
                submitted,
                grid,
            }
            | ScenMsg::RawView {
                ego,
                task,
                submitted,
                grid,
            } => {
                self.record_view(now, submitted, &grid, ego, task);
            }
        }
    }
}

/// Runs one scenario to completion on the canonical corner stage.
///
/// Telemetry obeys the `AIRDND_TELEMETRY` environment variable, which is
/// how CI diffs telemetry-on vs telemetry-off artifacts without a
/// dedicated code path.
pub fn run_scenario(cfg: ScenarioConfig) -> ScenarioReport {
    run_scenario_in_observed(
        WorldInstance::canonical(&cfg),
        cfg,
        TelemetryOptions::from_env(),
    )
    .0
}

/// Runs one scenario on an instantiated world (the canonical corner or a
/// generated map with its derived occlusion grid) and returns the report
/// plus the run's [`RunTelemetry`]: typed events, the metrics registry,
/// phase profiling and spans, as far as `opts` enables them. Telemetry
/// never changes the report.
pub fn run_scenario_in_observed(
    mut world: WorldInstance,
    cfg: ScenarioConfig,
    opts: TelemetryOptions,
) -> (ScenarioReport, RunTelemetry) {
    world.ensure_ego_stages();
    let WorldInstance {
        stage,
        ego_arm,
        hidden_agents,
        parked,
        arrival_window_s,
        schedule,
        extra_egos,
        extra_ego_stages,
        obstacle_loss_db,
    } = world;
    let mut rng = SimRng::seed_from(cfg.seed);
    let layout = FleetLayout {
        ego_arm,
        parked,
        arrival_window_s,
    };
    let mut fleet = Fleet::spawn(
        &stage,
        cfg.vehicles,
        cfg.gas_rate_range,
        cfg.sensor_range,
        cfg.byzantine_fraction,
        cfg.orch,
        cfg.mesh,
        &layout,
        &mut rng,
    );
    // Query origins: the primary ego plus one vehicle per extra route,
    // each with its own occlusion grid derived along its own path.
    let kernel = library::burn_and_echo(cfg.task_compute_rounds);
    let gas_budget_for = |cells: usize| {
        // Exact kernel cost on this grid, plus 25 % headroom.
        let measured = library::measure_gas(&kernel, &vec![0i64; cells]);
        measured + measured / 4 + 10_000
    };
    let ego_gas = fleet.ego().node.executor().gas_rate();
    let mut egos = vec![EgoState::new(
        fleet.ego().node.addr(),
        stage.clone(),
        gas_budget_for(stage.cell_count()),
        LocalOnly::new(ego_gas),
    )];
    let arms = stage.net.arm_count();
    for (k, route) in extra_egos.iter().enumerate() {
        // Extra egos ride the first mobile helpers; a profile too small to
        // host them simply fields fewer query origins.
        let idx = 1 + k;
        if idx >= cfg.vehicles.min(fleet.len()) {
            break;
        }
        let arm = route.arm % arms;
        let vehicle = fleet.get_mut(idx).expect("initial fleet is dense");
        vehicle.reroute_from(&stage, arm);
        // The instance carries the authoritative derived stage for each
        // extra route (ensure_ego_stages filled any gap above).
        let ego_stage = extra_ego_stages[k].clone();
        let gas_rate = vehicle.node.executor().gas_rate();
        egos.push(EgoState::new(
            vehicle.node.addr(),
            ego_stage.clone(),
            gas_budget_for(ego_stage.cell_count()),
            LocalOnly::new(gas_rate),
        ));
    }
    // Query origins must survive the whole run: take them out of the
    // despawn-victim set once, instead of re-checking the ego list on
    // every despawn event.
    for ego in &egos {
        fleet.protect(ego.addr);
    }
    // Distinct grids the fleet's sensors must cover each refresh.
    let mut sensor_stages: Vec<ScenarioWorld> = Vec::new();
    for ego in &egos {
        if !sensor_stages
            .iter()
            .any(|s| s.hidden_region == ego.stage.hidden_region)
        {
            sensor_stages.push(ego.stage.clone());
        }
    }
    let sensor_los: Vec<airdnd_geo::ObstacleIndex> =
        sensor_stages.iter().map(ScenarioWorld::los_index).collect();
    let mut medium = RadioMedium::v2v(stage.world.clone(), rng.fork(0xC0DE));
    if let Some(loss_db) = obstacle_loss_db {
        medium.set_obstacle_loss_db(loss_db);
    }
    medium.set_max_queue_delay(cfg.radio_queue_cap);
    for v in fleet.iter() {
        medium.set_position(v.node.addr(), v.pos());
    }
    let cloud = match cfg.strategy {
        Strategy::Cloud { fiveg: true } => Some(CloudOffload::fiveg()),
        Strategy::Cloud { fiveg: false } => Some(CloudOffload::lte()),
        _ => None,
    };
    let lifecycle_rng = rng.fork(0x11FE_C7C1);
    let mut state = WorldState {
        cfg,
        stage,
        fleet,
        medium,
        cloud,
        egos,
        sensor_stages,
        sensor_los,
        hidden_agents,
        schedule,
        schedule_cursor: 0,
        lifecycle_rng,
        spawns: 0,
        despawns: 0,
        tick_count: 0,
        next_task: 0,
        task_submit_times: std::collections::BTreeMap::new(),
        member_samples: Vec::new(),
        mesh_formation: None,
        joins: 0,
        leaves: 0,
        telemetry: RunTelemetry::with(opts),
        tracer: QueryTracer::new(),
    };

    // The event loop proper: pop-in-(time, seq)-order until the horizon —
    // the configured duration plus a drain window for in-flight frames.
    let mut timeline: Timeline<ScenMsg> = Timeline::new();
    timeline.schedule_at(SimTime::ZERO, ScenMsg::Tick);
    let horizon = SimTime::ZERO + cfg.duration + SimDuration::from_secs(3);
    while let Some((now, msg)) = timeline.pop_before(horizon) {
        state.handle(&mut timeline, now, msg);
    }
    // Queries still in flight at the horizon expire their spans there so
    // the recorded tree is well-formed (every span closed or expired).
    state.tracer.finish(&mut state.telemetry.spans, horizon);
    let telemetry = std::mem::take(&mut state.telemetry);

    let duration_s = cfg.duration.as_secs_f64();
    let mut fleet_stats = OrchestratorStats::default();
    for v in state.fleet.iter() {
        fleet_stats.merge(v.node.stats());
    }
    let mut utilizations = Vec::new();
    for v in state.fleet.iter().skip(1) {
        let (_, gas) = v.node.executor().totals();
        utilizations.push(gas as f64 / v.node.executor().gas_rate() as f64 / duration_s);
    }
    // Fold the per-ego books into the fleet-level report (sample lists
    // concatenate in ego order; a single ego reproduces the historical
    // aggregation exactly).
    let submitted: u64 = state.egos.iter().map(|e| e.submitted).sum();
    let completed: u64 = state.egos.iter().map(|e| e.completed).sum();
    let failed: u64 = state.egos.iter().map(|e| e.failed).sum();
    let invalid_accepted: u64 = state.egos.iter().map(|e| e.invalid_accepted).sum();
    let latencies: Vec<f64> = state
        .egos
        .iter()
        .flat_map(|e| e.latencies_ms.iter().copied())
        .collect();
    let coverage: Vec<f64> = state
        .egos
        .iter()
        .flat_map(|e| e.coverage.iter().copied())
        .collect();
    let ego_only: Vec<f64> = state
        .egos
        .iter()
        .flat_map(|e| e.ego_only.iter().copied())
        .collect();
    let detect_time = state.egos.iter().filter_map(|e| e.detect_time).min();
    let lat = &latencies;
    let cellular_bytes = state.cloud.as_ref().map_or(0, CloudOffload::bytes_total);
    let mesh_bytes = state.medium.bytes_on_air_total();
    // Per-ego fairness, straight from the deterministic metrics registry:
    // the worst-served ego's completion rate and latency quantiles, plus
    // the completion-rate spread across egos. Integer counters in, so the
    // values are identical whether event logging is on or off.
    let ego_rates: Vec<f64> = (0..state.egos.len())
        .map(|e| {
            let scope = Scope::Ego(e as u32);
            let sub = telemetry.metrics.counter("tasks_submitted", scope);
            let done = telemetry.metrics.counter("tasks_completed", scope);
            if sub == 0 {
                1.0
            } else {
                done as f64 / sub as f64
            }
        })
        .collect();
    let ego_completion_min = ego_rates.iter().copied().fold(1.0, f64::min);
    let ego_completion_spread = ego_rates.iter().copied().fold(0.0, f64::max) - ego_completion_min;
    let worst_quantile_ms = |q: f64| {
        (0..state.egos.len())
            .filter_map(|e| {
                telemetry
                    .metrics
                    .histogram("task_latency_us", Scope::Ego(e as u32))
                    .and_then(|h| h.quantile_us(q))
            })
            .max()
            .map_or(0.0, |us| us as f64 / 1_000.0)
    };
    // Critical-path stage decomposition from the always-on tracer book:
    // one sample per completed query, in completion order, each stage a
    // clamped partition of that query's end-to-end latency.
    let stage_quantile_ms = |stage_us: fn(&StageBudget) -> u64, q: f64| {
        let samples: Vec<f64> = state
            .tracer
            .samples()
            .iter()
            .map(|b| stage_us(b) as f64 / 1_000.0)
            .collect();
        percentile(&samples, q).unwrap_or(0.0)
    };
    let report = ScenarioReport {
        strategy: cfg.strategy.label().to_owned(),
        duration_s,
        vehicles: state.fleet.len(),
        tasks_submitted: submitted,
        tasks_completed: completed,
        tasks_failed: failed,
        completion_rate: if submitted == 0 {
            1.0
        } else {
            completed as f64 / submitted as f64
        },
        latency_mean_ms: if lat.is_empty() {
            0.0
        } else {
            lat.iter().sum::<f64>() / lat.len() as f64
        },
        latency_p50_ms: percentile(lat, 0.5).unwrap_or(0.0),
        latency_p95_ms: percentile(lat, 0.95).unwrap_or(0.0),
        latency_max_ms: lat.iter().copied().fold(0.0, f64::max),
        mesh_bytes,
        cellular_bytes,
        bytes_per_task: if completed == 0 {
            (mesh_bytes + cellular_bytes) as f64
        } else {
            (mesh_bytes + cellular_bytes) as f64 / completed as f64
        },
        mean_coverage: mean(&coverage),
        ego_only_coverage: mean(&ego_only),
        time_to_detect_s: detect_time.map(|t| t.as_secs_f64()),
        mesh_formation_s: state.mesh_formation.map(|t| t.as_secs_f64()),
        mean_members: mean(&state.member_samples),
        joins: state.joins,
        leaves: state.leaves,
        mean_executor_utilization: mean(&utilizations),
        invalid_results_accepted: invalid_accepted,
        offers_sent: fleet_stats.offers_sent,
        results_returned: fleet_stats.results_returned,
        latencies_ms: lat.clone(),
        egos: state.egos.len(),
        lifecycle_spawns: state.spawns,
        lifecycle_despawns: state.despawns,
        ego_completion_min,
        ego_completion_spread,
        ego_p50_worst_ms: worst_quantile_ms(0.5),
        ego_p95_worst_ms: worst_quantile_ms(0.95),
        lat_discover_p50_ms: stage_quantile_ms(|b| b.discover_us, 0.5),
        lat_discover_p95_ms: stage_quantile_ms(|b| b.discover_us, 0.95),
        lat_select_p50_ms: stage_quantile_ms(|b| b.select_us, 0.5),
        lat_select_p95_ms: stage_quantile_ms(|b| b.select_us, 0.95),
        lat_radio_p50_ms: stage_quantile_ms(|b| b.radio_us, 0.5),
        lat_radio_p95_ms: stage_quantile_ms(|b| b.radio_us, 0.95),
        lat_exec_p50_ms: stage_quantile_ms(|b| b.exec_us, 0.5),
        lat_exec_p95_ms: stage_quantile_ms(|b| b.exec_us, 0.95),
        lat_return_p50_ms: stage_quantile_ms(|b| b.return_us, 0.5),
        lat_return_p95_ms: stage_quantile_ms(|b| b.return_us, 0.95),
    };
    (report, telemetry)
}

/// Why a unicast never arrived. The bounded-MAC queue-cap path is the
/// only one that reports `Lost` without a single transmission attempt
/// (channel losses burn their full retry budget first).
fn drop_reason(outcome: &DeliveryOutcome) -> DropReason {
    match outcome {
        DeliveryOutcome::Unreachable => DropReason::Unreachable,
        DeliveryOutcome::Lost { attempts: 0 } => DropReason::QueueCap,
        _ => DropReason::Channel,
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(strategy: Strategy, seed: u64) -> ScenarioReport {
        run_scenario(ScenarioConfig {
            seed,
            vehicles: 8,
            duration: SimDuration::from_secs(20),
            strategy,
            ..Default::default()
        })
    }

    #[test]
    fn airdnd_run_completes_tasks() {
        let r = quick(Strategy::Airdnd, 1);
        assert!(r.tasks_submitted > 10, "submitted {}", r.tasks_submitted);
        assert!(r.completion_rate > 0.5, "completion {}", r.completion_rate);
        assert!(r.mesh_formation_s.is_some(), "mesh must form");
        assert!(
            r.mean_members >= 1.0,
            "ego should keep members, got {}",
            r.mean_members
        );
        assert!(r.latency_p50_ms > 0.0 && r.latency_p50_ms < 1_000.0);
        assert!(r.mesh_bytes > 0);
        assert_eq!(r.cellular_bytes, 0);
    }

    #[test]
    fn cooperation_beats_ego_only_coverage() {
        let r = quick(Strategy::Airdnd, 2);
        assert!(
            r.mean_coverage > r.ego_only_coverage + 0.05,
            "cooperation must widen the view: {} vs {}",
            r.mean_coverage,
            r.ego_only_coverage
        );
    }

    #[test]
    fn cloud_moves_more_bytes_than_airdnd() {
        let airdnd = quick(Strategy::Airdnd, 3);
        let cloud = quick(Strategy::Cloud { fiveg: true }, 3);
        assert!(cloud.cellular_bytes > 0);
        assert!(
            cloud.bytes_per_task > 10.0 * airdnd.bytes_per_task,
            "raw-to-cloud must dwarf task-to-data: {} vs {}",
            cloud.bytes_per_task,
            airdnd.bytes_per_task
        );
    }

    #[test]
    fn local_only_gains_nothing_from_the_fleet() {
        let local = quick(Strategy::LocalOnly, 4);
        // The local strategy's "remote" view is the ego's own grid from
        // submit time; the vehicle moves a little before completion, so
        // the two coverages agree only up to that drift.
        assert!(
            (local.mean_coverage - local.ego_only_coverage).abs() < 0.05,
            "{} vs {}",
            local.mean_coverage,
            local.ego_only_coverage
        );
        // The mesh still beacons underneath (it is just unused for
        // perception), so mesh bytes are nonzero.
        assert!(local.mesh_bytes > 0);
        // AirDnD fuses remote views on top of the ego's own, so its
        // coverage can never fall below ego-only (strict improvement is
        // asserted on another seed in `cooperation_beats_ego_only_coverage`).
        let airdnd = quick(Strategy::Airdnd, 4);
        assert!(airdnd.mean_coverage >= airdnd.ego_only_coverage - 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = quick(Strategy::Airdnd, 7);
        let b = quick(Strategy::Airdnd, 7);
        assert_eq!(a.tasks_submitted, b.tasks_submitted);
        assert_eq!(a.tasks_completed, b.tasks_completed);
        assert_eq!(a.latencies_ms, b.latencies_ms);
        assert_eq!(a.mesh_bytes, b.mesh_bytes);
    }
}
