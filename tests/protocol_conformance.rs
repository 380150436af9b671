//! Protocol conformance across crates: orchestrator nodes talking over a
//! real (lossy, contended) radio medium, without the scenario layer.

use airdnd::core::{
    NodeAction, NodeEvent, OrchestratorConfig, OrchestratorNode, TaskOutcome, WireMsg,
};
use airdnd::data::{DataQuery, DataType, QualityDescriptor};
use airdnd::geo::{Vec2, World};
use airdnd::mesh::MeshConfig;
use airdnd::radio::{DeliveryOutcome, NodeAddr, RadioMedium};
use airdnd::sim::{SimDuration, SimRng, SimTime};
use airdnd::task::{library, ResourceRequirements, TaskId, TaskSpec};
use airdnd::trust::PrivacyLevel;
use std::collections::BinaryHeap;

/// One queued delivery: (due, tie-break seq, destination index, sender, frame).
type QueuedFrame = (SimTime, u64, usize, NodeAddr, WireMsgBox);

/// A minimal deterministic driver: nodes + medium + a time-ordered queue.
struct Driver {
    nodes: Vec<OrchestratorNode>,
    medium: RadioMedium,
    queue: BinaryHeap<std::cmp::Reverse<QueuedFrame>>,
    seq: u64,
    outcomes: Vec<(TaskId, TaskOutcome)>,
}

/// Ordering wrapper (WireMsg has no Ord; compare by queue position only).
#[derive(Clone, Debug)]
struct WireMsgBox(WireMsg);
impl PartialEq for WireMsgBox {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl Eq for WireMsgBox {}
impl PartialOrd for WireMsgBox {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WireMsgBox {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl Driver {
    fn new(count: usize, spacing: f64, seed: u64) -> Self {
        let mut medium = RadioMedium::v2v(&World::new(), SimRng::seed_from(seed));
        let mut nodes = Vec::new();
        for i in 0..count {
            let addr = NodeAddr::new(i as u64 + 1);
            let mut node = OrchestratorNode::new(
                addr,
                OrchestratorConfig::default(),
                MeshConfig::default(),
                1_000_000 * (i as u64 + 1),
                1 << 30,
                SimRng::seed_from(seed).fork(i as u64),
            );
            let pos = Vec2::new(i as f64 * spacing, 0.0);
            node.set_kinematics(pos, Vec2::ZERO);
            medium.set_position(addr, pos);
            nodes.push(node);
        }
        Driver {
            nodes,
            medium,
            queue: BinaryHeap::new(),
            seq: 0,
            outcomes: Vec::new(),
        }
    }

    fn index_of(&self, addr: NodeAddr) -> Option<usize> {
        self.nodes.iter().position(|n| n.addr() == addr)
    }

    fn process(&mut self, now: SimTime, src: usize, actions: Vec<NodeAction>) {
        let src_addr = self.nodes[src].addr();
        for action in actions {
            match action {
                NodeAction::Broadcast(msg) => {
                    let (deliveries, _) =
                        self.medium.broadcast(now, src_addr, msg.wire_size_bytes());
                    for d in deliveries {
                        if let Some(idx) = self.index_of(d.to) {
                            self.seq += 1;
                            self.queue.push(std::cmp::Reverse((
                                d.at,
                                self.seq,
                                idx,
                                src_addr,
                                WireMsgBox(msg.clone()),
                            )));
                        }
                    }
                }
                NodeAction::Send { to, msg } => {
                    let (outcome, _) =
                        self.medium
                            .unicast(now, src_addr, to, msg.wire_size_bytes());
                    if let DeliveryOutcome::Delivered { at, .. } = outcome {
                        if let Some(idx) = self.index_of(to) {
                            self.seq += 1;
                            self.queue.push(std::cmp::Reverse((
                                at,
                                self.seq,
                                idx,
                                src_addr,
                                WireMsgBox(msg),
                            )));
                        }
                    }
                }
                NodeAction::SendAt { to, at, msg } => {
                    // Transmit over the medium at `at`.
                    let (outcome, _) = self.medium.unicast(at, src_addr, to, msg.wire_size_bytes());
                    if let DeliveryOutcome::Delivered { at: arrival, .. } = outcome {
                        if let Some(idx) = self.index_of(to) {
                            self.seq += 1;
                            self.queue.push(std::cmp::Reverse((
                                arrival,
                                self.seq,
                                idx,
                                src_addr,
                                WireMsgBox(msg),
                            )));
                        }
                    }
                }
                NodeAction::Outcome { task, outcome } => self.outcomes.push((task, outcome)),
                NodeAction::MeshJoined(_) | NodeAction::MeshLeft(_) => {}
            }
        }
    }

    /// Runs ticks every 100 ms until `until`, draining deliveries in time
    /// order between ticks.
    fn run_until(&mut self, until: SimTime) {
        let mut tick = 0u64;
        loop {
            let now = SimTime::from_millis(tick * 100);
            if now > until {
                break;
            }
            for i in 0..self.nodes.len() {
                let actions = self.nodes[i].handle(now, NodeEvent::Tick);
                self.process(now, i, actions);
            }
            // Deliver everything due before the next tick.
            let next_tick = SimTime::from_millis((tick + 1) * 100);
            while let Some(std::cmp::Reverse((at, _, _, _, _))) = self.queue.peek() {
                if *at >= next_tick {
                    break;
                }
                let std::cmp::Reverse((at, _, idx, from, boxed)) =
                    self.queue.pop().expect("peeked");
                let actions = self.nodes[idx].handle(at, NodeEvent::Wire { from, msg: boxed.0 });
                self.process(at, idx, actions);
            }
            tick += 1;
        }
    }
}

fn grid_task(id: u64, deadline_ms: u64) -> TaskSpec {
    TaskSpec::new(TaskId::new(id), "fuse", library::grid_fuse(8).into_inner())
        .with_input(DataQuery::of_type(DataType::OccupancyGrid))
        .with_requirements(ResourceRequirements {
            gas: 100_000,
            memory_bytes: 1 << 20,
            input_bytes: 256,
            output_bytes: 64,
            deadline: SimDuration::from_millis(deadline_ms),
        })
}

fn stock(node: &mut OrchestratorNode, at: SimTime) {
    node.insert_data(
        DataType::OccupancyGrid,
        vec![1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1],
        QualityDescriptor::basic(at, 0.9, 2.0),
    );
}

#[test]
fn offload_completes_over_a_real_radio() {
    let mut driver = Driver::new(3, 60.0, 21);
    driver.run_until(SimTime::from_secs(1));
    let now = SimTime::from_millis(1100);
    stock(&mut driver.nodes[1], now);
    stock(&mut driver.nodes[2], now);
    // Let fresh catalogs propagate through at least one beacon round.
    driver.run_until(SimTime::from_secs(2));
    let t = SimTime::from_millis(2100);
    let actions = driver.nodes[0].submit_task(t, grid_task(1, 1500), PrivacyLevel::Derived);
    driver.process(t, 0, actions);
    driver.run_until(SimTime::from_secs(5));
    assert_eq!(driver.outcomes.len(), 1);
    match &driver.outcomes[0].1 {
        TaskOutcome::Completed {
            outputs, latency, ..
        } => {
            assert_eq!(outputs.len(), 8, "grid_fuse(8) returns 8 cells");
            assert!(latency.as_millis_f64() < 1_000.0);
        }
        other => panic!("expected completion, got {other:?}"),
    }
}

#[test]
fn out_of_range_nodes_never_join_the_candidate_set() {
    // Node 3 sits 100 km away: the mesh never includes it, so tasks flow
    // to node 2 only.
    let mut driver = Driver::new(3, 60.0, 22);
    let far = driver.nodes[2].addr();
    driver.medium.set_position(far, Vec2::new(100_000.0, 0.0));
    driver.nodes[2].set_kinematics(Vec2::new(100_000.0, 0.0), Vec2::ZERO);
    driver.run_until(SimTime::from_secs(1));
    assert!(
        !driver.nodes[0].mesh().is_member(far),
        "far node must not be a member"
    );
    let now = SimTime::from_millis(1100);
    stock(&mut driver.nodes[1], now);
    driver.run_until(SimTime::from_secs(2));
    let t = SimTime::from_millis(2100);
    let actions = driver.nodes[0].submit_task(t, grid_task(2, 1500), PrivacyLevel::Derived);
    driver.process(t, 0, actions);
    driver.run_until(SimTime::from_secs(4));
    match &driver.outcomes[0].1 {
        TaskOutcome::Completed { executors, .. } => {
            assert_eq!(executors, &vec![NodeAddr::new(2)]);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn executor_departure_mid_task_triggers_retry_on_next_candidate() {
    let mut driver = Driver::new(3, 60.0, 23);
    driver.run_until(SimTime::from_secs(1));
    let now = SimTime::from_millis(1100);
    stock(&mut driver.nodes[1], now);
    stock(&mut driver.nodes[2], now);
    driver.run_until(SimTime::from_secs(2));
    // Node 3 (faster, likely first choice) vanishes right before the offer.
    let victim = driver.nodes[2].addr();
    driver.medium.remove_node(victim);
    let t = SimTime::from_millis(2100);
    let actions = driver.nodes[0].submit_task(t, grid_task(3, 1800), PrivacyLevel::Derived);
    driver.process(t, 0, actions);
    driver.run_until(SimTime::from_secs(6));
    assert_eq!(
        driver.outcomes.len(),
        1,
        "task must terminate one way or another"
    );
    match &driver.outcomes[0].1 {
        TaskOutcome::Completed { executors, .. } => {
            assert_eq!(
                executors,
                &vec![NodeAddr::new(2)],
                "fallback executor finished it"
            );
        }
        // Acceptable alternative: the deadline expired while failing over.
        TaskOutcome::Failed { .. } => {}
    }
}

#[test]
fn privacy_policy_blocks_offers_and_requester_fails_over() {
    use airdnd::trust::{PrivacyLevel, PrivacyPolicy};
    let mut driver = Driver::new(3, 60.0, 24);
    driver.run_until(SimTime::from_secs(1));
    let now = SimTime::from_millis(1100);
    stock(&mut driver.nodes[1], now);
    stock(&mut driver.nodes[2], now);
    // Node 3 refuses to let derived artefacts out.
    driver.nodes[2].set_privacy(PrivacyPolicy::new(PrivacyLevel::Aggregate));
    driver.run_until(SimTime::from_secs(2));
    let t = SimTime::from_millis(2100);
    let actions = driver.nodes[0].submit_task(t, grid_task(4, 1800), PrivacyLevel::Derived);
    driver.process(t, 0, actions);
    driver.run_until(SimTime::from_secs(5));
    match &driver.outcomes[0].1 {
        TaskOutcome::Completed { executors, .. } => {
            assert_eq!(
                executors,
                &vec![NodeAddr::new(2)],
                "only the permissive node may serve"
            );
        }
        other => panic!("{other:?}"),
    }
}
