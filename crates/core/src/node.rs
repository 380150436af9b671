//! The complete orchestrator node: mesh + selection + protocol + executor.
//!
//! [`OrchestratorNode`] glues the sans-IO pieces into one state machine per
//! node. The driver (simulation or, conceivably, a real stack) feeds it
//! [`NodeEvent`]s and executes the returned [`NodeAction`]s — transmitting
//! frames over whatever medium it owns and scheduling the `SendAt` results
//! for when the simulated execution finishes.
//!
//! Every node is simultaneously:
//! * a **mesh member** (Model 1) — beaconing, joining, dissolving;
//! * a **data owner** (Model 3) — cataloguing local sensor products;
//! * an **executor** (RQ2/RQ3) — admitting, really running, and returning
//!   offloaded TaskVM programs;
//! * a **requester** (RQ1/RQ2) — scoring candidates and driving the
//!   asynchronous offload protocol for its own tasks.

use crate::config::OrchestratorConfig;
use crate::executor::{gather_inputs, DeclineReason, ExecutorSim};
use crate::protocol::{OffloadMsg, RequesterBook, RequesterDirective, TaskOutcome};
use crate::selection::score_candidates;
use airdnd_data::{CatalogSummary, DataCatalog, DataType, QualityDescriptor};
use airdnd_geo::Vec2;
use airdnd_mesh::{MeshAction, MeshConfig, MeshDescriptor, MeshMsg, MeshNode, NodeAdvert};
use airdnd_radio::NodeAddr;
use airdnd_sim::{SimRng, SimTime};
use airdnd_task::{TaskId, TaskSpec};
use airdnd_trust::{PrivacyLevel, PrivacyPolicy, ReputationTable};

/// Everything that travels between nodes.
#[derive(Clone, Debug, PartialEq)]
pub enum WireMsg {
    /// Model-1 mesh maintenance traffic.
    Mesh(MeshMsg),
    /// RQ2 offload traffic.
    Offload(OffloadMsg),
}

impl WireMsg {
    /// Approximate on-air payload size.
    pub fn wire_size_bytes(&self) -> u64 {
        match self {
            WireMsg::Mesh(m) => m.wire_size_bytes(),
            WireMsg::Offload(m) => m.wire_size_bytes(),
        }
    }
}

/// Inputs the driver feeds into a node.
#[derive(Clone, Debug)]
pub enum NodeEvent {
    /// Periodic tick (once per mesh beacon interval).
    Tick,
    /// A frame arrived.
    Wire {
        /// The sender.
        from: NodeAddr,
        /// The payload.
        msg: WireMsg,
    },
}

/// Outputs the driver must execute.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeAction {
    /// Broadcast to whoever is in radio range.
    Broadcast(WireMsg),
    /// Unicast now.
    Send {
        /// Destination.
        to: NodeAddr,
        /// Payload.
        msg: WireMsg,
    },
    /// Unicast at a future instant (result delivery after execution).
    SendAt {
        /// Destination.
        to: NodeAddr,
        /// Transmission time.
        at: SimTime,
        /// Payload.
        msg: WireMsg,
    },
    /// A locally submitted task reached a terminal state.
    Outcome {
        /// The task.
        task: TaskId,
        /// Its outcome.
        outcome: TaskOutcome,
    },
    /// A peer joined this node's mesh view.
    MeshJoined(NodeAddr),
    /// A peer left this node's mesh view.
    MeshLeft(NodeAddr),
}

/// One AirDnD node. See the module docs.
#[derive(Debug)]
pub struct OrchestratorNode {
    cfg: OrchestratorConfig,
    mesh: MeshNode,
    executor: ExecutorSim,
    requester: RequesterBook,
    catalog: DataCatalog,
    trust: ReputationTable,
    privacy: PrivacyPolicy<DataType>,
    velocity: Vec2,
    rng: SimRng,
    /// Beacon summary cached against [`DataCatalog::version`]: adverts
    /// refresh every tick, the catalog changes far less often.
    advert_summary: Option<(u64, CatalogSummary)>,
}

impl OrchestratorNode {
    /// Creates a node.
    ///
    /// `rng` should be forked per node for determinism; `gas_rate`/`mem`
    /// size the executor; catalogs hold up to 64 items.
    pub fn new(
        addr: NodeAddr,
        cfg: OrchestratorConfig,
        mesh_cfg: MeshConfig,
        gas_rate: u64,
        mem_bytes: u64,
        rng: SimRng,
    ) -> Self {
        let executor = ExecutorSim::new(gas_rate.max(1), mem_bytes);
        OrchestratorNode {
            cfg,
            mesh: MeshNode::new(addr, mesh_cfg, NodeAdvert::closed()),
            executor,
            requester: RequesterBook::new(),
            catalog: DataCatalog::new(64),
            trust: ReputationTable::default(),
            privacy: PrivacyPolicy::new(PrivacyLevel::Derived),
            velocity: Vec2::ZERO,
            rng,
            advert_summary: None,
        }
    }

    /// This node's address.
    pub fn addr(&self) -> NodeAddr {
        self.mesh.addr()
    }

    /// Read access to the mesh state machine.
    pub fn mesh(&self) -> &MeshNode {
        &self.mesh
    }

    /// Read access to the reputation table.
    pub fn trust(&self) -> &ReputationTable {
        &self.trust
    }

    /// Mutable access to the executor (e.g. to make it byzantine or close
    /// admissions).
    pub fn executor_mut(&mut self) -> &mut ExecutorSim {
        &mut self.executor
    }

    /// Read access to the executor.
    pub fn executor(&self) -> &ExecutorSim {
        &self.executor
    }

    /// Replaces the privacy policy.
    pub fn set_privacy(&mut self, policy: PrivacyPolicy<DataType>) {
        self.privacy = policy;
    }

    /// Updates position/velocity (drives beacons and in-range prediction).
    pub fn set_kinematics(&mut self, pos: Vec2, velocity: Vec2) {
        self.velocity = velocity;
        self.mesh.set_kinematics(pos, velocity);
    }

    /// Adds locally produced data (Model 3): a catalog item carrying its
    /// payload words.
    pub fn insert_data(
        &mut self,
        data_type: DataType,
        payload: Vec<i64>,
        quality: QualityDescriptor,
    ) -> airdnd_data::DataItemId {
        self.catalog.insert(data_type, payload, quality)
    }

    /// The Model-1 snapshot this node would orchestrate over right now.
    pub fn descriptor(&self, now: SimTime) -> MeshDescriptor {
        MeshDescriptor::capture(&self.mesh, now)
    }

    fn refresh_advert(&mut self, now: SimTime) {
        let backlog_from_busy = {
            let eta = self.executor.eta(now, 0);
            let secs = eta.saturating_since(now).as_secs_f64();
            (secs * self.executor.gas_rate() as f64) as u64
        };
        let catalog = match &self.advert_summary {
            Some((version, summary)) if *version == self.catalog.version() => summary.clone(),
            _ => {
                let summary = self.catalog.summarize();
                self.advert_summary = Some((self.catalog.version(), summary.clone()));
                summary
            }
        };
        self.mesh.set_advert(NodeAdvert {
            gas_rate: self.executor.gas_rate(),
            gas_backlog: self.executor.backlog_gas() + backlog_from_busy,
            mem_free_bytes: self.executor.mem_bytes(),
            accepting: self.executor.is_accepting(),
            catalog,
        });
    }

    fn map_mesh_actions(&mut self, actions: Vec<MeshAction>, out: &mut Vec<NodeAction>) {
        for action in actions {
            match action {
                MeshAction::Broadcast(msg) => out.push(NodeAction::Broadcast(WireMsg::Mesh(msg))),
                MeshAction::Unicast(to, msg) => out.push(NodeAction::Send {
                    to,
                    msg: WireMsg::Mesh(msg),
                }),
                MeshAction::Joined(addr) => out.push(NodeAction::MeshJoined(addr)),
                MeshAction::Left(addr) => out.push(NodeAction::MeshLeft(addr)),
            }
        }
    }

    fn map_requester_directives(
        &mut self,
        directives: Vec<RequesterDirective>,
        out: &mut Vec<NodeAction>,
    ) {
        for directive in directives {
            match directive {
                RequesterDirective::SendOffer { to, task } => {
                    let Some((spec, output_level)) = self.requester.offer(task) else {
                        continue;
                    };
                    out.push(NodeAction::Send {
                        to,
                        msg: WireMsg::Offload(OffloadMsg::Offer {
                            task: Box::new(spec.clone()),
                            output_level,
                        }),
                    });
                }
                RequesterDirective::SendCancel { to, task } => {
                    out.push(NodeAction::Send {
                        to,
                        msg: WireMsg::Offload(OffloadMsg::Cancel { task }),
                    });
                }
                RequesterDirective::Finished { task, outcome } => {
                    out.push(NodeAction::Outcome { task, outcome });
                }
            }
        }
    }

    /// Submits a locally generated task: RQ1 selection over the current
    /// mesh descriptor, then RQ2 offers.
    pub fn submit_task(
        &mut self,
        now: SimTime,
        spec: TaskSpec,
        output_level: PrivacyLevel,
    ) -> Vec<NodeAction> {
        let descriptor = self.descriptor(now);
        let scores = score_candidates(
            &spec,
            &descriptor,
            self.velocity,
            &self.trust,
            &self.cfg,
            now,
        );
        let ranked: Vec<NodeAddr> = scores.iter().map(|s| s.addr).collect();
        // Spot-check escalation (RQ3): occasionally double up execution to
        // audit an executor even when redundancy is 1.
        let mut cfg = self.cfg;
        if cfg.spot_check_probability > 0.0 && self.rng.chance(cfg.spot_check_probability) {
            cfg.redundancy = cfg.redundancy.max(2);
        }
        let directives = self.requester.submit(now, spec, output_level, ranked, &cfg);
        let mut out = Vec::new();
        self.map_requester_directives(directives, &mut out);
        out
    }

    /// Gracefully departs the mesh: tells every member goodbye
    /// ([`airdnd_mesh::MeshNode::leave_all`]) and returns the resulting
    /// wire/notification actions. The driver calls this right before
    /// removing the node from the simulation; an abrupt departure skips it
    /// and peers only notice through lease expiry.
    pub fn leave(&mut self, now: SimTime) -> Vec<NodeAction> {
        let actions = self.mesh.leave_all(now);
        let mut out = Vec::new();
        self.map_mesh_actions(actions, &mut out);
        out
    }

    /// Feeds one event into the node.
    pub fn handle(&mut self, now: SimTime, event: NodeEvent) -> Vec<NodeAction> {
        let mut out = Vec::new();
        match event {
            NodeEvent::Tick => {
                self.refresh_advert(now);
                let mesh_actions = self.mesh.on_timer(now);
                self.map_mesh_actions(mesh_actions, &mut out);
                let directives = {
                    let cfg = self.cfg;
                    self.requester.on_tick(now, &cfg, &mut self.trust)
                };
                self.map_requester_directives(directives, &mut out);
            }
            NodeEvent::Wire { from, msg } => match msg {
                WireMsg::Mesh(m) => {
                    let actions = self.mesh.on_message(now, from, m);
                    self.map_mesh_actions(actions, &mut out);
                }
                WireMsg::Offload(m) => self.handle_offload(now, from, m, &mut out),
            },
        }
        out
    }

    fn handle_offload(
        &mut self,
        now: SimTime,
        from: NodeAddr,
        msg: OffloadMsg,
        out: &mut Vec<NodeAction>,
    ) {
        match msg {
            OffloadMsg::Offer { task, output_level } => {
                let admission = self.executor.admit(
                    now,
                    &task,
                    &self.catalog,
                    &self.privacy,
                    output_level,
                    self.cfg.max_backlog_factor,
                );
                match admission {
                    Ok((eta, program)) => {
                        let task_id = task.id;
                        self.executor.reserve(task_id.raw(), task.requirements.gas);
                        let inputs = gather_inputs(&self.catalog, &task.inputs, now);
                        let Some(inputs) = inputs else {
                            self.executor.cancel(task_id.raw());
                            out.push(NodeAction::Send {
                                to: from,
                                msg: WireMsg::Offload(OffloadMsg::Decline {
                                    task: task_id,
                                    reason: DeclineReason::DataUnavailable,
                                }),
                            });
                            return;
                        };
                        let gas = task.requirements.gas;
                        match self
                            .executor
                            .execute(now, task_id.raw(), &program, gas, &inputs)
                        {
                            Ok(result) => {
                                out.push(NodeAction::Send {
                                    to: from,
                                    msg: WireMsg::Offload(OffloadMsg::Accept {
                                        task: task_id,
                                        eta,
                                    }),
                                });
                                out.push(NodeAction::SendAt {
                                    to: from,
                                    at: result.finish,
                                    msg: WireMsg::Offload(OffloadMsg::Result {
                                        task: task_id,
                                        outputs: result.outputs,
                                        gas_used: result.gas_used,
                                    }),
                                });
                            }
                            Err(_trap) => {
                                out.push(NodeAction::Send {
                                    to: from,
                                    msg: WireMsg::Offload(OffloadMsg::Decline {
                                        task: task_id,
                                        reason: DeclineReason::ProgramInvalid,
                                    }),
                                });
                            }
                        }
                    }
                    Err(reason) => {
                        out.push(NodeAction::Send {
                            to: from,
                            msg: WireMsg::Offload(OffloadMsg::Decline {
                                task: task.id,
                                reason,
                            }),
                        });
                    }
                }
            }
            OffloadMsg::Accept { task, eta } => {
                let cfg = self.cfg;
                let directives = self.requester.on_accept(now, from, task, eta, &cfg);
                self.map_requester_directives(directives, out);
            }
            OffloadMsg::Decline { task, .. } => {
                let cfg = self.cfg;
                let directives = self.requester.on_decline(now, from, task, &cfg);
                self.map_requester_directives(directives, out);
            }
            OffloadMsg::Result {
                task,
                outputs,
                gas_used,
            } => {
                let directives =
                    self.requester
                        .on_result(now, from, task, outputs, gas_used, &mut self.trust);
                self.map_requester_directives(directives, out);
            }
            OffloadMsg::Cancel { task } => {
                self.executor.cancel(task.raw());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::FailReason;
    use airdnd_data::DataQuery;
    use airdnd_sim::SimDuration;
    use airdnd_task::{library, ResourceRequirements};

    fn node(id: u64, gas_rate: u64) -> OrchestratorNode {
        OrchestratorNode::new(
            NodeAddr::new(id),
            OrchestratorConfig::default(),
            MeshConfig::default(),
            gas_rate,
            1 << 30,
            SimRng::seed_from(id),
        )
    }

    fn grid_quality(now: SimTime) -> QualityDescriptor {
        QualityDescriptor::basic(now, 0.9, 2.0)
    }

    fn fuse_task(id: u64) -> TaskSpec {
        TaskSpec::new(TaskId::new(id), "fuse", library::grid_fuse(4).into_inner())
            .with_input(DataQuery::of_type(DataType::OccupancyGrid))
            .with_requirements(ResourceRequirements {
                gas: 100_000,
                memory_bytes: 1 << 20,
                deadline: SimDuration::from_secs(2),
                ..Default::default()
            })
    }

    /// Lossless instantaneous "wire" between a set of nodes: delivers all
    /// Send/Broadcast actions, collecting SendAt separately, and keeps
    /// every offload message it routes.
    struct Harness {
        nodes: Vec<OrchestratorNode>,
        delayed: Vec<(usize, NodeAddr, SimTime, WireMsg)>,
        outcomes: Vec<(TaskId, TaskOutcome)>,
        routed: Vec<OffloadMsg>,
    }

    impl Harness {
        fn new(nodes: Vec<OrchestratorNode>) -> Self {
            Harness {
                nodes,
                delayed: Vec::new(),
                outcomes: Vec::new(),
                routed: Vec::new(),
            }
        }

        fn route(&mut self, msg: &WireMsg) {
            if let WireMsg::Offload(m) = msg {
                self.routed.push(m.clone());
            }
        }

        fn routed_count(&self, kind: fn(&OffloadMsg) -> bool) -> usize {
            self.routed.iter().filter(|m| kind(m)).count()
        }

        fn index_of(&self, addr: NodeAddr) -> Option<usize> {
            self.nodes.iter().position(|n| n.addr() == addr)
        }

        fn dispatch(&mut self, now: SimTime, src: usize, actions: Vec<NodeAction>) {
            let mut queue: Vec<(usize, NodeAddr, WireMsg)> = Vec::new();
            let src_addr = self.nodes[src].addr();
            for a in actions {
                match a {
                    NodeAction::Broadcast(msg) => {
                        for i in 0..self.nodes.len() {
                            if i != src {
                                queue.push((i, src_addr, msg.clone()));
                            }
                        }
                    }
                    NodeAction::Send { to, msg } => {
                        self.route(&msg);
                        if let Some(i) = self.index_of(to) {
                            queue.push((i, src_addr, msg));
                        }
                    }
                    NodeAction::SendAt { to, at, msg } => {
                        self.route(&msg);
                        self.delayed.push((src, to, at, msg));
                    }
                    NodeAction::Outcome { task, outcome } => self.outcomes.push((task, outcome)),
                    NodeAction::MeshJoined(_) | NodeAction::MeshLeft(_) => {}
                }
            }
            while let Some((dst, from, msg)) = queue.pop() {
                let actions = self.nodes[dst].handle(now, NodeEvent::Wire { from, msg });
                let dst_addr = self.nodes[dst].addr();
                for a in actions {
                    match a {
                        NodeAction::Broadcast(msg) => {
                            for i in 0..self.nodes.len() {
                                if self.nodes[i].addr() != dst_addr {
                                    queue.push((i, dst_addr, msg.clone()));
                                }
                            }
                        }
                        NodeAction::Send { to, msg } => {
                            self.route(&msg);
                            if let Some(i) = self.index_of(to) {
                                queue.push((i, dst_addr, msg));
                            }
                        }
                        NodeAction::SendAt { to, at, msg } => {
                            self.route(&msg);
                            let src_idx = self.index_of(dst_addr).expect("self");
                            self.delayed.push((src_idx, to, at, msg));
                        }
                        NodeAction::Outcome { task, outcome } => {
                            self.outcomes.push((task, outcome))
                        }
                        NodeAction::MeshJoined(_) | NodeAction::MeshLeft(_) => {}
                    }
                }
            }
        }

        fn tick_all(&mut self, now: SimTime) {
            for i in 0..self.nodes.len() {
                let actions = self.nodes[i].handle(now, NodeEvent::Tick);
                self.dispatch(now, i, actions);
            }
            // Deliver matured delayed messages.
            let matured: Vec<(usize, NodeAddr, SimTime, WireMsg)> = {
                let (m, rest): (Vec<_>, Vec<_>) =
                    self.delayed.drain(..).partition(|(_, _, at, _)| *at <= now);
                self.delayed = rest;
                m
            };
            for (src, to, _, msg) in matured {
                if let Some(dst) = self.index_of(to) {
                    let from = self.nodes[src].addr();
                    let actions = self.nodes[dst].handle(now, NodeEvent::Wire { from, msg });
                    self.dispatch(now, dst, actions);
                }
            }
        }
    }

    /// Bring up a two-node mesh and offload one fusion task end to end.
    #[test]
    fn end_to_end_offload_over_ideal_wire() {
        let requester = node(1, 1_000_000);
        let mut helper = node(2, 2_000_000);
        let t0 = SimTime::ZERO;
        helper.insert_data(
            DataType::OccupancyGrid,
            vec![1, 0, 5, 0, 0, 2, 3, 9],
            grid_quality(t0),
        );
        let mut h = Harness::new(vec![requester, helper]);

        // Mesh formation.
        for tick in 0..8u64 {
            h.tick_all(SimTime::from_millis(tick * 100));
        }
        assert!(h.nodes[0].mesh().is_member(NodeAddr::new(2)), "mesh formed");

        // Submit; harness routes offer → accept/result.
        let now = SimTime::from_millis(800);
        let actions = h.nodes[0].submit_task(now, fuse_task(1), PrivacyLevel::Derived);
        h.dispatch(now, 0, actions);
        // Advance ticks so the delayed Result is delivered.
        for tick in 9..25u64 {
            h.tick_all(SimTime::from_millis(tick * 100));
            if !h.outcomes.is_empty() {
                break;
            }
        }
        assert_eq!(h.outcomes.len(), 1, "task must terminate");
        match &h.outcomes[0].1 {
            TaskOutcome::Completed {
                outputs,
                executors,
                verified,
                ..
            } => {
                // grid_fuse(4) over the helper's single 8-word item (two
                // concatenated grids).
                assert_eq!(outputs, &vec![1, 2, 5, 9]);
                assert_eq!(executors, &vec![NodeAddr::new(2)]);
                assert!(!verified);
            }
            other => panic!("expected completion, got {other:?}"),
        }
        // One offer out, one accept and one result back.
        assert_eq!(h.routed_count(|m| matches!(m, OffloadMsg::Offer { .. })), 1);
        assert_eq!(
            h.routed_count(|m| matches!(m, OffloadMsg::Accept { .. })),
            1
        );
        assert_eq!(
            h.routed_count(|m| matches!(m, OffloadMsg::Result { .. })),
            1
        );
    }

    #[test]
    fn no_mesh_members_fails_fast() {
        let mut lone = node(1, 1_000_000);
        let actions = lone.submit_task(SimTime::ZERO, fuse_task(1), PrivacyLevel::Derived);
        assert!(actions.iter().any(|a| matches!(
            a,
            NodeAction::Outcome {
                outcome: TaskOutcome::Failed {
                    reason: FailReason::NoCandidates,
                    ..
                },
                ..
            }
        )));
    }

    #[test]
    fn executor_without_data_declines_and_requester_fails_over() {
        let requester = node(1, 1_000_000);
        let empty_helper = node(2, 2_000_000); // no data inserted
        let mut stocked_helper = node(3, 500_000);
        stocked_helper.insert_data(
            DataType::OccupancyGrid,
            vec![1, 0, 5, 0, 0, 2, 3, 9],
            grid_quality(SimTime::ZERO),
        );
        let mut h = Harness::new(vec![requester, empty_helper, stocked_helper]);
        for tick in 0..8u64 {
            h.tick_all(SimTime::from_millis(tick * 100));
        }
        let now = SimTime::from_millis(800);
        let actions = h.nodes[0].submit_task(now, fuse_task(1), PrivacyLevel::Derived);
        h.dispatch(now, 0, actions);
        for tick in 9..30u64 {
            h.tick_all(SimTime::from_millis(tick * 100));
            if !h.outcomes.is_empty() {
                break;
            }
        }
        // Selection already gates on the advertised catalog, so node 2 is
        // never offered; node 3 completes it.
        match &h.outcomes[0].1 {
            TaskOutcome::Completed { executors, .. } => {
                assert_eq!(executors, &vec![NodeAddr::new(3)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn byzantine_helper_is_outvoted_with_redundancy() {
        let mut requester = node(1, 1_000_000);
        requester.cfg.redundancy = 3;
        requester.cfg.max_candidates = 4;
        let data = vec![1, 0, 5, 0, 0, 2, 3, 9];
        let mut helpers: Vec<OrchestratorNode> = (2..=4).map(|i| node(i, 2_000_000)).collect();
        for helper in &mut helpers {
            helper.insert_data(
                DataType::OccupancyGrid,
                data.clone(),
                grid_quality(SimTime::ZERO),
            );
        }
        helpers[2].executor_mut().set_byzantine(true);
        let mut nodes = vec![requester];
        nodes.extend(helpers);
        let mut h = Harness::new(nodes);
        for tick in 0..8u64 {
            h.tick_all(SimTime::from_millis(tick * 100));
        }
        let now = SimTime::from_millis(800);
        let actions = h.nodes[0].submit_task(now, fuse_task(1), PrivacyLevel::Derived);
        h.dispatch(now, 0, actions);
        for tick in 9..30u64 {
            h.tick_all(SimTime::from_millis(tick * 100));
            if !h.outcomes.is_empty() {
                break;
            }
        }
        match &h.outcomes[0].1 {
            TaskOutcome::Completed {
                outputs,
                verified,
                executors,
                ..
            } => {
                assert_eq!(outputs, &vec![1, 2, 5, 9], "honest majority wins");
                assert!(verified);
                assert_eq!(executors.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        // The byzantine node's reputation took the hit.
        assert!(h.nodes[0].trust().score(4) < 0.5);
    }

    #[test]
    fn data_insertion_feeds_catalog_and_advert() {
        let mut n = node(1, 1_000_000);
        n.insert_data(
            DataType::OccupancyGrid,
            vec![0; 16],
            grid_quality(SimTime::ZERO),
        );
        let actions = n.handle(SimTime::from_millis(100), NodeEvent::Tick);
        let beacon = actions.iter().find_map(|a| match a {
            NodeAction::Broadcast(WireMsg::Mesh(MeshMsg::Beacon(b))) => Some(b),
            _ => None,
        });
        let beacon = beacon.expect("tick emits a beacon");
        assert!(beacon
            .advert
            .catalog
            .digest(DataType::OccupancyGrid)
            .is_some());
        assert!(beacon.advert.accepting);
        assert_eq!(beacon.advert.gas_rate, 1_000_000);
    }
}
