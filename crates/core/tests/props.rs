//! Property-based tests for the offload protocol's liveness and
//! bookkeeping: whatever the network does (accepts, declines, results,
//! silence, duplicates, strangers), every submitted task terminates
//! exactly once, and executor accounting never goes negative.

use airdnd_core::protocol::{OffloadMsg, RequesterBook, RequesterDirective};
use airdnd_core::{ExecutorSim, OrchestratorConfig};
use airdnd_radio::NodeAddr;
use airdnd_sim::{SimDuration, SimTime};
use airdnd_task::{Program, ResourceRequirements, TaskId, TaskSpec};
use airdnd_trust::{PrivacyLevel, ReputationTable};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum NetEvent {
    Accept { peer: u64, eta_ms: u64 },
    Decline { peer: u64 },
    Result { peer: u64, words: Vec<i64> },
    Silence,
}

fn arb_event() -> impl Strategy<Value = NetEvent> {
    prop_oneof![
        (1u64..8, 0u64..500).prop_map(|(peer, eta_ms)| NetEvent::Accept { peer, eta_ms }),
        (1u64..8).prop_map(|peer| NetEvent::Decline { peer }),
        (1u64..8, proptest::collection::vec(-3i64..3, 0..4))
            .prop_map(|(peer, words)| NetEvent::Result { peer, words }),
        Just(NetEvent::Silence),
    ]
}

fn spec(deadline_ms: u64) -> TaskSpec {
    TaskSpec::new(
        TaskId::new(1),
        "p",
        Program::new(vec![airdnd_task::Instr::Halt], 0),
    )
    .with_requirements(ResourceRequirements {
        deadline: SimDuration::from_millis(deadline_ms),
        ..Default::default()
    })
}

proptest! {
    /// Liveness + uniqueness: under any event sequence, the task finishes
    /// exactly once (by the deadline tick at the latest) and the book
    /// drains.
    #[test]
    fn every_task_terminates_exactly_once(
        events in proptest::collection::vec(arb_event(), 0..40),
        redundancy in 1usize..4,
        deadline_ms in 200u64..2000,
    ) {
        let cfg = OrchestratorConfig {
            redundancy,
            max_candidates: 6,
            ..OrchestratorConfig::default()
        };
        let mut trust = ReputationTable::default();
        let mut book = RequesterBook::new();
        let candidates: Vec<NodeAddr> = (1..=7u64).map(NodeAddr::new).collect();
        let mut finished = 0usize;
        let count_finished = |directives: &[RequesterDirective]| {
            directives
                .iter()
                .filter(|d| matches!(d, RequesterDirective::Finished { .. }))
                .count()
        };
        let d = book.submit(
            SimTime::ZERO,
            spec(deadline_ms),
            PrivacyLevel::Derived,
            candidates,
            &cfg,
        );
        finished += count_finished(&d);

        let mut now_ms = 0u64;
        for event in events {
            now_ms += 37;
            let now = SimTime::from_millis(now_ms);
            let task = TaskId::new(1);
            let d = match event {
                NetEvent::Accept { peer, eta_ms } => book.on_accept(
                    now,
                    NodeAddr::new(peer),
                    task,
                    now + SimDuration::from_millis(eta_ms),
                    &cfg,
                ),
                NetEvent::Decline { peer } => book.on_decline(now, NodeAddr::new(peer), task, &cfg),
                NetEvent::Result { peer, words } => {
                    book.on_result(now, NodeAddr::new(peer), task, words, 10, &mut trust)
                }
                NetEvent::Silence => book.on_tick(now, &cfg, &mut trust),
            };
            finished += count_finished(&d);
            prop_assert!(finished <= 1, "a task may finish at most once");
        }
        // Drive time well past the deadline: the book must drain.
        for _ in 0..3 {
            now_ms += deadline_ms + 1000;
            let d = book.on_tick(SimTime::from_millis(now_ms), &cfg, &mut trust);
            finished += count_finished(&d);
        }
        prop_assert_eq!(finished, 1, "exactly one terminal outcome");
        prop_assert!(book.is_empty(), "no dangling state");
    }

    /// Executor accounting: reservations and cancellations balance; the
    /// backlog is always the sum of live reservations.
    #[test]
    fn executor_backlog_accounting(ops in proptest::collection::vec((0u64..16, any::<bool>(), 1u64..1_000_000), 0..64)) {
        let mut exec = ExecutorSim::new(1_000_000, 1 << 30);
        let mut live: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for (id, reserve, gas) in ops {
            if reserve {
                // Reserving an id twice overwrites in `running`; mirror that
                // by cancelling first (the protocol never double-reserves,
                // but accounting must stay sane anyway).
                if live.contains_key(&id) {
                    exec.cancel(id);
                    live.remove(&id);
                }
                exec.reserve(id, gas);
                live.insert(id, gas);
            } else {
                exec.cancel(id);
                live.remove(&id);
            }
            prop_assert_eq!(exec.backlog_gas(), live.values().sum::<u64>());
        }
    }

    /// ETA is monotone in requested gas and never before `now`.
    #[test]
    fn eta_monotone(gas1 in 0u64..10_000_000, gas2 in 0u64..10_000_000, now_ms in 0u64..10_000) {
        let exec = ExecutorSim::new(1_000_000, 1 << 30);
        let now = SimTime::from_millis(now_ms);
        let (lo, hi) = if gas1 <= gas2 { (gas1, gas2) } else { (gas2, gas1) };
        prop_assert!(exec.eta(now, lo) <= exec.eta(now, hi));
        prop_assert!(exec.eta(now, lo) >= now);
    }
}

/// Late accepts after termination are answered with a cancel, repeatedly
/// and harmlessly.
#[test]
fn late_accepts_always_cancelled() {
    let cfg = OrchestratorConfig::default();
    let mut book = RequesterBook::new();
    for i in 0..5u64 {
        let d = book.on_accept(
            SimTime::from_secs(i),
            NodeAddr::new(9),
            TaskId::new(42),
            SimTime::from_secs(i + 1),
            &cfg,
        );
        assert_eq!(
            d,
            vec![RequesterDirective::SendCancel {
                to: NodeAddr::new(9),
                task: TaskId::new(42)
            }]
        );
    }
    // Offer wire sizes remain stable for the cancel path.
    assert_eq!(
        OffloadMsg::Cancel {
            task: TaskId::new(42)
        }
        .wire_size_bytes(),
        16
    );
}
