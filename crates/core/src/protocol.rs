//! RQ2: the asynchronous offload protocol (requester side).
//!
//! Offloading is a fully message-driven exchange — offer → accept/decline
//! → result — with per-task timeouts instead of global rounds:
//!
//! * offers go to the top `redundancy` ranked candidates at once;
//! * a decline or offer timeout immediately tries the next candidate;
//! * an accept arms a result deadline (executor ETA + grace);
//! * enough results trigger digest voting (RQ3) and completion;
//! * the task deadline cancels everything outstanding.
//!
//! [`RequesterBook`] is the sans-IO state machine: every entry point
//! returns [`RequesterDirective`]s for the node glue to turn into frames.

use crate::config::OrchestratorConfig;
use crate::executor::DeclineReason;
use airdnd_radio::NodeAddr;
use airdnd_sim::SimTime;
use airdnd_task::{TaskId, TaskSpec};
use airdnd_trust::{digest_outputs, majority_vote, PrivacyLevel, ReputationTable, Verdict};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Offload protocol messages (the RQ2 wire vocabulary).
#[derive(Clone, Debug, PartialEq)]
pub enum OffloadMsg {
    /// "Run this task on your data" — carries the full Model-2 spec.
    Offer {
        /// The task to run.
        task: Box<TaskSpec>,
        /// Privacy level of the derived output (checked against the
        /// executor's policy).
        output_level: PrivacyLevel,
    },
    /// "Accepted; expect the result around `eta`."
    Accept {
        /// The accepted task.
        task: TaskId,
        /// Estimated completion time.
        eta: SimTime,
    },
    /// "Cannot run this."
    Decline {
        /// The declined task.
        task: TaskId,
        /// Why.
        reason: DeclineReason,
    },
    /// The computed outputs.
    Result {
        /// The finished task.
        task: TaskId,
        /// Output words of the TaskVM program.
        outputs: Vec<i64>,
        /// Gas the execution consumed.
        gas_used: u64,
    },
    /// Requester gave up; executor may drop the reservation.
    Cancel {
        /// The cancelled task.
        task: TaskId,
    },
}

impl OffloadMsg {
    /// Approximate on-air payload size in bytes.
    pub fn wire_size_bytes(&self) -> u64 {
        match self {
            OffloadMsg::Offer { task, .. } => task.wire_size_bytes() + 17,
            OffloadMsg::Accept { .. } => 24,
            OffloadMsg::Decline { .. } => 17,
            OffloadMsg::Result { outputs, .. } => 32 + outputs.len() as u64 * 8,
            OffloadMsg::Cancel { .. } => 16,
        }
    }
}

/// Final status of a submitted task.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TaskOutcome {
    /// A (verified, if redundant) result was obtained.
    Completed {
        /// The accepted output words.
        outputs: Vec<i64>,
        /// Executors whose results agreed.
        executors: Vec<NodeAddr>,
        /// Submission-to-acceptance latency.
        latency: airdnd_sim::SimDuration,
        /// `true` if a redundancy vote backed the result.
        verified: bool,
    },
    /// No acceptable result before the deadline.
    Failed {
        /// Why.
        reason: FailReason,
    },
}

/// Why a task failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailReason {
    /// Selection produced no candidates at all.
    NoCandidates,
    /// Every candidate declined or timed out.
    AllDeclined,
    /// The deadline passed before enough results arrived.
    DeadlineExpired,
    /// Redundant results disagreed irreconcilably.
    VerificationFailed,
}

/// What the node glue must do after a requester-state transition.
#[derive(Clone, Debug, PartialEq)]
pub enum RequesterDirective {
    /// Transmit an offer for `task` to `to`.
    SendOffer {
        /// Destination executor.
        to: NodeAddr,
        /// The task.
        task: TaskId,
    },
    /// Transmit a cancel for `task` to `to`.
    SendCancel {
        /// Destination executor.
        to: NodeAddr,
        /// The task.
        task: TaskId,
    },
    /// The task reached a terminal state.
    Finished {
        /// The task.
        task: TaskId,
        /// Its outcome.
        outcome: TaskOutcome,
    },
}

#[derive(Clone, Debug)]
struct PendingTask {
    spec: TaskSpec,
    /// Privacy level of the task's output, declared in every offer.
    output_level: PrivacyLevel,
    submitted_at: SimTime,
    deadline_at: SimTime,
    /// Ranked candidates not yet offered.
    queue: Vec<NodeAddr>,
    /// offer target → sent time.
    outstanding: BTreeMap<NodeAddr, SimTime>,
    /// accepted executor → result deadline (eta + grace).
    accepted: BTreeMap<NodeAddr, SimTime>,
    results: Vec<(NodeAddr, Vec<i64>, u64)>,
    needed: usize,
    offered_count: usize,
}

/// The per-node requester state machine. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct RequesterBook {
    tasks: BTreeMap<TaskId, PendingTask>,
}

impl RequesterBook {
    /// Creates an empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of in-flight tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// What an offer of an in-flight task carries: its spec and its
    /// output privacy level.
    pub fn offer(&self, task: TaskId) -> Option<(&TaskSpec, PrivacyLevel)> {
        self.tasks.get(&task).map(|t| (&t.spec, t.output_level))
    }

    /// Starts a task, whose output is of privacy level `output_level`,
    /// with an already-ranked candidate list.
    ///
    /// `redundancy` executors are offered immediately; further candidates
    /// are tried on decline/timeout up to `cfg.max_candidates`.
    pub fn submit(
        &mut self,
        now: SimTime,
        spec: TaskSpec,
        output_level: PrivacyLevel,
        ranked: Vec<NodeAddr>,
        cfg: &OrchestratorConfig,
    ) -> Vec<RequesterDirective> {
        let id = spec.id;
        if ranked.is_empty() {
            return vec![RequesterDirective::Finished {
                task: id,
                outcome: TaskOutcome::Failed {
                    reason: FailReason::NoCandidates,
                },
            }];
        }
        let deadline_at = now + spec.requirements.deadline;
        let needed = cfg.redundancy.max(1);
        let mut pending = PendingTask {
            spec,
            output_level,
            submitted_at: now,
            deadline_at,
            queue: ranked,
            outstanding: BTreeMap::new(),
            accepted: BTreeMap::new(),
            results: Vec::new(),
            needed,
            offered_count: 0,
        };
        let mut directives = Vec::new();
        for _ in 0..needed {
            if let Some(next) = Self::next_candidate(&mut pending, cfg) {
                pending.outstanding.insert(next, now);
                directives.push(RequesterDirective::SendOffer { to: next, task: id });
            }
        }
        if directives.is_empty() {
            return vec![RequesterDirective::Finished {
                task: id,
                outcome: TaskOutcome::Failed {
                    reason: FailReason::NoCandidates,
                },
            }];
        }
        self.tasks.insert(id, pending);
        directives
    }

    fn next_candidate(pending: &mut PendingTask, cfg: &OrchestratorConfig) -> Option<NodeAddr> {
        if pending.offered_count >= cfg.max_candidates {
            return None;
        }
        let next = pending.queue.iter().position(|a| {
            !pending.outstanding.contains_key(a)
                && !pending.accepted.contains_key(a)
                && !pending.results.iter().any(|(r, _, _)| r == a)
        })?;
        pending.offered_count += 1;
        Some(pending.queue.remove(next))
    }

    /// Handles an `Accept` from `from`.
    pub fn on_accept(
        &mut self,
        _now: SimTime,
        from: NodeAddr,
        task: TaskId,
        eta: SimTime,
        cfg: &OrchestratorConfig,
    ) -> Vec<RequesterDirective> {
        let Some(pending) = self.tasks.get_mut(&task) else {
            // Late accept for a finished/cancelled task.
            return vec![RequesterDirective::SendCancel { to: from, task }];
        };
        if pending.outstanding.remove(&from).is_none() {
            return Vec::new(); // duplicate or unsolicited
        }
        pending.accepted.insert(from, eta + cfg.result_grace);
        Vec::new()
    }

    /// Handles a `Decline` (or treats an offer timeout identically).
    pub fn on_decline(
        &mut self,
        now: SimTime,
        from: NodeAddr,
        task: TaskId,
        cfg: &OrchestratorConfig,
    ) -> Vec<RequesterDirective> {
        let Some(pending) = self.tasks.get_mut(&task) else {
            return Vec::new();
        };
        pending.outstanding.remove(&from);
        let mut directives = Vec::new();
        if let Some(next) = Self::next_candidate(pending, cfg) {
            pending.outstanding.insert(next, now);
            directives.push(RequesterDirective::SendOffer { to: next, task });
        } else if pending.outstanding.is_empty()
            && pending.accepted.is_empty()
            && pending.results.is_empty()
        {
            directives.extend(self.finish(
                task,
                TaskOutcome::Failed {
                    reason: FailReason::AllDeclined,
                },
            ));
        }
        directives
    }

    /// Handles a `Result`; may finish the task via digest voting.
    ///
    /// `trust` is updated with agreement/dissent when a vote happens.
    pub fn on_result(
        &mut self,
        now: SimTime,
        from: NodeAddr,
        task: TaskId,
        outputs: Vec<i64>,
        gas_used: u64,
        trust: &mut ReputationTable,
    ) -> Vec<RequesterDirective> {
        let Some(pending) = self.tasks.get_mut(&task) else {
            return Vec::new();
        };
        if pending.accepted.remove(&from).is_none() {
            return Vec::new(); // result from someone we never accepted
        }
        pending.results.push((from, outputs, gas_used));
        if pending.results.len() >= pending.needed {
            return self.conclude(now, task, trust);
        }
        Vec::new()
    }

    /// Concludes a task from the results gathered so far.
    fn conclude(
        &mut self,
        now: SimTime,
        task: TaskId,
        trust: &mut ReputationTable,
    ) -> Vec<RequesterDirective> {
        let Some(pending) = self.tasks.get(&task) else {
            return Vec::new();
        };
        let latency = now.saturating_since(pending.submitted_at);
        let results = pending.results.clone();
        debug_assert!(!results.is_empty(), "conclude requires at least one result");
        if results.len() == 1 {
            let (addr, outputs, _) = results.into_iter().next().expect("non-empty");
            trust.record(addr.raw(), true);
            return self.finish(
                task,
                TaskOutcome::Completed {
                    outputs,
                    executors: vec![addr],
                    latency,
                    verified: false,
                },
            );
        }
        let votes: Vec<(u64, airdnd_trust::Digest)> = results
            .iter()
            .map(|(addr, outputs, _)| (addr.raw(), digest_outputs(outputs)))
            .collect();
        let min_votes = results.len() / 2 + 1;
        match majority_vote(&votes, min_votes) {
            Verdict::Accepted {
                digest,
                agreeing,
                dissenting,
            } => {
                for &node in &agreeing {
                    trust.record(node, true);
                }
                for &node in &dissenting {
                    trust.record(node, false);
                }
                let outputs = results
                    .iter()
                    .find(|(_, o, _)| digest_outputs(o) == digest)
                    .map(|(_, o, _)| o.clone())
                    .expect("winning digest came from a result");
                let executors = agreeing.iter().map(|&n| NodeAddr::new(n)).collect();
                self.finish(
                    task,
                    TaskOutcome::Completed {
                        outputs,
                        executors,
                        latency,
                        verified: true,
                    },
                )
            }
            Verdict::Inconclusive { .. } => {
                for (addr, _, _) in &results {
                    trust.record(addr.raw(), false);
                }
                self.finish(
                    task,
                    TaskOutcome::Failed {
                        reason: FailReason::VerificationFailed,
                    },
                )
            }
        }
    }

    fn finish(&mut self, task: TaskId, outcome: TaskOutcome) -> Vec<RequesterDirective> {
        let mut directives = Vec::new();
        if let Some(pending) = self.tasks.remove(&task) {
            for (&addr, _) in pending.outstanding.iter().chain(pending.accepted.iter()) {
                directives.push(RequesterDirective::SendCancel { to: addr, task });
            }
        }
        directives.push(RequesterDirective::Finished { task, outcome });
        directives
    }

    /// Periodic maintenance: offer timeouts, result timeouts, deadlines.
    pub fn on_tick(
        &mut self,
        now: SimTime,
        cfg: &OrchestratorConfig,
        trust: &mut ReputationTable,
    ) -> Vec<RequesterDirective> {
        let mut directives = Vec::new();
        let ids: Vec<TaskId> = self.tasks.keys().copied().collect();
        for id in ids {
            // Deadline: conclude with whatever we have, or fail.
            let (deadline_at, has_results) = {
                let p = self.tasks.get(&id).expect("id from keys");
                (p.deadline_at, !p.results.is_empty())
            };
            if now >= deadline_at {
                if has_results {
                    directives.extend(self.conclude(now, id, trust));
                } else {
                    directives.extend(self.finish(
                        id,
                        TaskOutcome::Failed {
                            reason: FailReason::DeadlineExpired,
                        },
                    ));
                }
                continue;
            }
            // Offer timeouts → treat as declines.
            let timed_out: Vec<NodeAddr> = {
                let p = self.tasks.get(&id).expect("still present");
                p.outstanding
                    .iter()
                    .filter(|(_, &sent)| now.saturating_since(sent) >= cfg.offer_timeout)
                    .map(|(&a, _)| a)
                    .collect()
            };
            for addr in timed_out {
                directives.extend(self.on_decline(now, addr, id, cfg));
            }
            // Result timeouts → penalize and retry.
            if let Some(p) = self.tasks.get_mut(&id) {
                let overdue: Vec<NodeAddr> = p
                    .accepted
                    .iter()
                    .filter(|(_, &by)| now >= by)
                    .map(|(&a, _)| a)
                    .collect();
                for addr in overdue {
                    p.accepted.remove(&addr);
                    trust.record(addr.raw(), false);
                    let mut next_directives = Vec::new();
                    if let Some(next) = Self::next_candidate(p, cfg) {
                        p.outstanding.insert(next, now);
                        next_directives.push(RequesterDirective::SendOffer { to: next, task: id });
                    }
                    directives.extend(next_directives);
                }
                if p.outstanding.is_empty() && p.accepted.is_empty() {
                    if p.results.is_empty() {
                        directives.extend(self.finish(
                            id,
                            TaskOutcome::Failed {
                                reason: FailReason::AllDeclined,
                            },
                        ));
                    } else {
                        // Partial results and nobody left to wait for.
                        directives.extend(self.conclude(now, id, trust));
                    }
                }
            }
        }
        directives
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airdnd_sim::SimDuration;
    use airdnd_task::{Program, ResourceRequirements};

    fn spec(id: u64) -> TaskSpec {
        TaskSpec::new(
            TaskId::new(id),
            "t",
            Program::new(vec![airdnd_task::Instr::Halt], 0),
        )
        .with_requirements(ResourceRequirements {
            deadline: SimDuration::from_secs(2),
            ..Default::default()
        })
    }

    fn addrs(ids: &[u64]) -> Vec<NodeAddr> {
        ids.iter().map(|&i| NodeAddr::new(i)).collect()
    }

    fn cfg() -> OrchestratorConfig {
        OrchestratorConfig::default()
    }

    #[test]
    fn submit_offers_to_best_candidate() {
        let mut book = RequesterBook::new();
        let d = book.submit(
            SimTime::ZERO,
            spec(1),
            PrivacyLevel::Derived,
            addrs(&[5, 6, 7]),
            &cfg(),
        );
        assert_eq!(
            d,
            vec![RequesterDirective::SendOffer {
                to: NodeAddr::new(5),
                task: TaskId::new(1)
            }]
        );
        assert_eq!(book.len(), 1);
    }

    #[test]
    fn no_candidates_fails_immediately() {
        let mut book = RequesterBook::new();
        let d = book.submit(
            SimTime::ZERO,
            spec(1),
            PrivacyLevel::Derived,
            vec![],
            &cfg(),
        );
        assert!(matches!(
            d.as_slice(),
            [RequesterDirective::Finished {
                outcome: TaskOutcome::Failed {
                    reason: FailReason::NoCandidates
                },
                ..
            }]
        ));
        assert!(book.is_empty());
    }

    #[test]
    fn single_result_completes_unverified() {
        let mut book = RequesterBook::new();
        let mut trust = ReputationTable::default();
        let c = cfg();
        book.submit(
            SimTime::ZERO,
            spec(1),
            PrivacyLevel::Derived,
            addrs(&[5]),
            &c,
        );
        book.on_accept(
            SimTime::from_millis(50),
            NodeAddr::new(5),
            TaskId::new(1),
            SimTime::from_millis(300),
            &c,
        );
        let d = book.on_result(
            SimTime::from_millis(320),
            NodeAddr::new(5),
            TaskId::new(1),
            vec![42],
            100,
            &mut trust,
        );
        match d.as_slice() {
            [RequesterDirective::Finished {
                outcome:
                    TaskOutcome::Completed {
                        outputs,
                        verified,
                        latency,
                        ..
                    },
                ..
            }] => {
                assert_eq!(outputs, &vec![42]);
                assert!(!verified);
                assert_eq!(*latency, SimDuration::from_millis(320));
            }
            other => panic!("{other:?}"),
        }
        assert!(trust.score(5) > 0.5);
        assert!(book.is_empty());
    }

    #[test]
    fn decline_moves_to_next_candidate() {
        let mut book = RequesterBook::new();
        let c = cfg();
        book.submit(
            SimTime::ZERO,
            spec(1),
            PrivacyLevel::Derived,
            addrs(&[5, 6]),
            &c,
        );
        let d = book.on_decline(
            SimTime::from_millis(10),
            NodeAddr::new(5),
            TaskId::new(1),
            &c,
        );
        assert_eq!(
            d,
            vec![RequesterDirective::SendOffer {
                to: NodeAddr::new(6),
                task: TaskId::new(1)
            }]
        );
        // Exhausting the list fails the task.
        let d = book.on_decline(
            SimTime::from_millis(20),
            NodeAddr::new(6),
            TaskId::new(1),
            &c,
        );
        assert!(matches!(
            d.as_slice(),
            [RequesterDirective::Finished {
                outcome: TaskOutcome::Failed {
                    reason: FailReason::AllDeclined
                },
                ..
            }]
        ));
    }

    #[test]
    fn offer_timeout_behaves_like_decline() {
        let mut book = RequesterBook::new();
        let mut trust = ReputationTable::default();
        let c = cfg();
        book.submit(
            SimTime::ZERO,
            spec(1),
            PrivacyLevel::Derived,
            addrs(&[5, 6]),
            &c,
        );
        // Past the 200 ms offer timeout.
        let d = book.on_tick(SimTime::from_millis(250), &c, &mut trust);
        assert_eq!(
            d,
            vec![RequesterDirective::SendOffer {
                to: NodeAddr::new(6),
                task: TaskId::new(1)
            }]
        );
    }

    #[test]
    fn result_timeout_penalizes_and_retries() {
        let mut book = RequesterBook::new();
        let mut trust = ReputationTable::default();
        let c = cfg();
        book.submit(
            SimTime::ZERO,
            spec(1),
            PrivacyLevel::Derived,
            addrs(&[5, 6]),
            &c,
        );
        book.on_accept(
            SimTime::from_millis(10),
            NodeAddr::new(5),
            TaskId::new(1),
            SimTime::from_millis(100),
            &c,
        );
        // Result due at 100 + 500 grace = 600 ms; tick at 700.
        let d = book.on_tick(SimTime::from_millis(700), &c, &mut trust);
        assert_eq!(
            d,
            vec![RequesterDirective::SendOffer {
                to: NodeAddr::new(6),
                task: TaskId::new(1)
            }]
        );
        assert!(trust.score(5) < 0.5, "silent executor is penalized");
    }

    #[test]
    fn deadline_fails_resultless_task_and_cancels() {
        let mut book = RequesterBook::new();
        let mut trust = ReputationTable::default();
        let c = cfg();
        book.submit(
            SimTime::ZERO,
            spec(1),
            PrivacyLevel::Derived,
            addrs(&[5]),
            &c,
        );
        book.on_accept(
            SimTime::from_millis(10),
            NodeAddr::new(5),
            TaskId::new(1),
            SimTime::from_secs(10),
            &c,
        );
        let d = book.on_tick(SimTime::from_secs(3), &c, &mut trust);
        assert!(d.contains(&RequesterDirective::SendCancel {
            to: NodeAddr::new(5),
            task: TaskId::new(1)
        }));
        assert!(d.iter().any(|x| matches!(
            x,
            RequesterDirective::Finished {
                outcome: TaskOutcome::Failed {
                    reason: FailReason::DeadlineExpired
                },
                ..
            }
        )));
    }

    #[test]
    fn redundant_agreement_verifies() {
        let mut book = RequesterBook::new();
        let mut trust = ReputationTable::default();
        let c = OrchestratorConfig {
            redundancy: 3,
            max_candidates: 5,
            ..cfg()
        };
        let d = book.submit(
            SimTime::ZERO,
            spec(1),
            PrivacyLevel::Derived,
            addrs(&[5, 6, 7, 8]),
            &c,
        );
        assert_eq!(d.len(), 3, "three parallel offers");
        for n in [5, 6, 7] {
            book.on_accept(
                SimTime::from_millis(10),
                NodeAddr::new(n),
                TaskId::new(1),
                SimTime::from_millis(100),
                &c,
            );
        }
        book.on_result(
            SimTime::from_millis(100),
            NodeAddr::new(5),
            TaskId::new(1),
            vec![1, 2],
            10,
            &mut trust,
        );
        book.on_result(
            SimTime::from_millis(110),
            NodeAddr::new(6),
            TaskId::new(1),
            vec![1, 2],
            10,
            &mut trust,
        );
        let d = book.on_result(
            SimTime::from_millis(120),
            NodeAddr::new(7),
            TaskId::new(1),
            vec![9, 9],
            10,
            &mut trust,
        );
        match d.as_slice() {
            [RequesterDirective::Finished {
                outcome:
                    TaskOutcome::Completed {
                        outputs,
                        executors,
                        verified,
                        ..
                    },
                ..
            }] => {
                assert_eq!(outputs, &vec![1, 2]);
                assert!(verified);
                assert_eq!(executors.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(trust.score(7) < 0.5, "dissenter penalized");
        assert!(trust.score(5) > 0.5);
    }

    #[test]
    fn redundant_disagreement_fails_verification() {
        let mut book = RequesterBook::new();
        let mut trust = ReputationTable::default();
        let c = OrchestratorConfig {
            redundancy: 2,
            ..cfg()
        };
        book.submit(
            SimTime::ZERO,
            spec(1),
            PrivacyLevel::Derived,
            addrs(&[5, 6]),
            &c,
        );
        for n in [5, 6] {
            book.on_accept(
                SimTime::from_millis(10),
                NodeAddr::new(n),
                TaskId::new(1),
                SimTime::from_millis(100),
                &c,
            );
        }
        book.on_result(
            SimTime::from_millis(100),
            NodeAddr::new(5),
            TaskId::new(1),
            vec![1],
            10,
            &mut trust,
        );
        let d = book.on_result(
            SimTime::from_millis(110),
            NodeAddr::new(6),
            TaskId::new(1),
            vec![2],
            10,
            &mut trust,
        );
        assert!(matches!(
            d.as_slice(),
            [RequesterDirective::Finished {
                outcome: TaskOutcome::Failed {
                    reason: FailReason::VerificationFailed
                },
                ..
            }]
        ));
    }

    #[test]
    fn late_accept_gets_cancelled() {
        let mut book = RequesterBook::new();
        let c = cfg();
        let d = book.on_accept(
            SimTime::ZERO,
            NodeAddr::new(9),
            TaskId::new(77),
            SimTime::from_secs(1),
            &c,
        );
        assert_eq!(
            d,
            vec![RequesterDirective::SendCancel {
                to: NodeAddr::new(9),
                task: TaskId::new(77)
            }]
        );
    }

    #[test]
    fn unsolicited_result_is_ignored() {
        let mut book = RequesterBook::new();
        let mut trust = ReputationTable::default();
        let c = cfg();
        book.submit(
            SimTime::ZERO,
            spec(1),
            PrivacyLevel::Derived,
            addrs(&[5]),
            &c,
        );
        let d = book.on_result(
            SimTime::from_millis(10),
            NodeAddr::new(6),
            TaskId::new(1),
            vec![1],
            10,
            &mut trust,
        );
        assert!(d.is_empty());
        assert_eq!(book.len(), 1, "task still pending");
    }

    #[test]
    fn partial_results_conclude_at_deadline() {
        // Redundancy 2, but only one result arrives before the deadline:
        // the deadline tick must conclude with that single result.
        let mut book = RequesterBook::new();
        let mut trust = ReputationTable::default();
        let c = OrchestratorConfig {
            redundancy: 2,
            ..cfg()
        };
        book.submit(
            SimTime::ZERO,
            spec(1),
            PrivacyLevel::Derived,
            addrs(&[5, 6]),
            &c,
        );
        for n in [5, 6] {
            book.on_accept(
                SimTime::from_millis(10),
                NodeAddr::new(n),
                TaskId::new(1),
                SimTime::from_millis(100),
                &c,
            );
        }
        book.on_result(
            SimTime::from_millis(100),
            NodeAddr::new(5),
            TaskId::new(1),
            vec![3],
            10,
            &mut trust,
        );
        let d = book.on_tick(SimTime::from_secs(2), &c, &mut trust);
        assert!(
            d.iter().any(|x| matches!(
                x,
                RequesterDirective::Finished {
                    outcome: TaskOutcome::Completed {
                        verified: false,
                        ..
                    },
                    ..
                }
            )),
            "{d:?}"
        );
    }

    #[test]
    fn offer_wire_sizes_are_plausible() {
        let offer = OffloadMsg::Offer {
            task: Box::new(spec(1)),
            output_level: airdnd_trust::PrivacyLevel::Derived,
        };
        let result = OffloadMsg::Result {
            task: TaskId::new(1),
            outputs: vec![0; 100],
            gas_used: 5,
        };
        assert!(offer.wire_size_bytes() < 2_000, "task specs stay small");
        assert_eq!(result.wire_size_bytes(), 32 + 800);
    }
}
