//! RQ1: which qualities and properties select the computing nodes?
//!
//! Candidates come from the Model-1 mesh descriptor; each passes hard
//! gates (accepting work, trusted enough, data plausibly available, memory
//! fits, compute exists) and is then scored on five soft criteria —
//! compute headroom, link quality, data quality, trust and predicted
//! in-range time — blended by [`SelectionWeights`](crate::config::SelectionWeights). The output is a
//! deterministic ranking; the offload protocol walks it.

use crate::config::OrchestratorConfig;
use airdnd_geo::Vec2;
use airdnd_mesh::{MemberDescriptor, MeshDescriptor};
use airdnd_radio::NodeAddr;
use airdnd_sim::SimTime;
use airdnd_task::TaskSpec;
use airdnd_trust::ReputationTable;
use serde::{Deserialize, Serialize};

/// One candidate's scores (all components in `[0, 1]`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CandidateScore {
    /// The candidate.
    pub addr: NodeAddr,
    /// Weighted blend of the components.
    pub total: f64,
    /// Compute-headroom component.
    pub compute: f64,
    /// Link-quality component.
    pub link: f64,
    /// Data-quality component.
    pub data: f64,
    /// Trust component.
    pub trust: f64,
    /// In-range-prediction component.
    pub in_range: f64,
    /// Estimated completion time if offloaded now, seconds (queueing +
    /// execution; transfer excluded).
    pub eta_secs: f64,
}

/// Time until the candidate leaves `range` of the (moving) local node,
/// assuming both keep their current velocities. `f64::INFINITY` if the
/// relative motion never exits.
fn time_in_range(member: &MemberDescriptor, local_pos: Vec2, local_vel: Vec2, range: f64) -> f64 {
    let p = member.pos - local_pos;
    let v = member.velocity - local_vel;
    let dist = p.norm();
    if dist > range {
        return 0.0;
    }
    let speed_sq = v.norm_sq();
    if speed_sq < 1e-9 {
        return f64::INFINITY;
    }
    // Solve |p + v t|² = range²  →  t² v·v + 2 t p·v + p·p − range² = 0.
    let b = p.dot(v);
    let c = p.norm_sq() - range * range;
    let disc = b * b - speed_sq * c;
    if disc < 0.0 {
        return f64::INFINITY;
    }
    let t = (-b + disc.sqrt()) / speed_sq;
    t.max(0.0)
}

/// Approximate data-quality score from a beacon-level catalog summary.
///
/// The full graded match runs on the executor against real items; this
/// estimate blends the digest's freshness and confidence headroom for each
/// query the summary can plausibly satisfy.
fn summary_data_score(member: &MemberDescriptor, task: &TaskSpec, now: SimTime) -> Option<f64> {
    if task.inputs.is_empty() {
        return Some(1.0);
    }
    let mut log_sum = 0.0;
    for query in &task.inputs {
        if !member.advert.catalog.may_satisfy(query, now) {
            return None;
        }
        let digest = member
            .advert
            .catalog
            .digest(query.data_type)
            .expect("may_satisfy implies digest");
        let age = now.saturating_since(digest.freshest);
        let freshness = if query.requirement.max_age.is_zero() {
            1.0
        } else {
            (1.0 - age.as_secs_f64() / query.requirement.max_age.as_secs_f64()).clamp(0.0, 1.0)
        };
        let confidence = digest.best_confidence.clamp(0.0, 1.0);
        let s: f64 = (freshness * confidence).max(1e-6);
        log_sum += s.ln();
    }
    Some((log_sum / (2.0 * task.inputs.len() as f64)).exp())
}

/// Scores and ranks every mesh member for `task`.
///
/// `local_vel` is the local node's own velocity (for relative in-range
/// prediction). The result is sorted best-first with deterministic
/// address tie-breaks; members failing a hard gate are absent.
pub fn score_candidates(
    task: &TaskSpec,
    mesh: &MeshDescriptor,
    local_vel: Vec2,
    trust: &ReputationTable,
    cfg: &OrchestratorConfig,
    now: SimTime,
) -> Vec<CandidateScore> {
    let w = &cfg.weights;
    let deadline_secs = task.requirements.deadline.as_secs_f64().max(1e-3);
    let mut out: Vec<CandidateScore> = mesh
        .members
        .iter()
        .filter_map(|m| {
            // Hard gates.
            if !m.advert.accepting || m.advert.gas_rate == 0 {
                return None;
            }
            if m.advert.mem_free_bytes < task.requirements.memory_bytes {
                return None;
            }
            let trust_score = trust.score(m.addr.raw());
            if trust_score < cfg.trust_floor {
                return None;
            }
            let data = summary_data_score(m, task, now)?;

            // Soft components.
            let eta_secs = m.advert.backlog_seconds()
                + task.requirements.gas as f64 / m.advert.gas_rate as f64;
            let compute = (1.0 - eta_secs / deadline_secs).clamp(0.0, 1.0);
            let link = m.link_quality.clamp(0.0, 1.0);
            let t_exit = time_in_range(m, mesh.local_pos, local_vel, cfg.assumed_range_m);
            let in_range = (t_exit / deadline_secs).clamp(0.0, 1.0);

            let total_weight = w.total();
            let total = if total_weight <= 0.0 {
                0.0
            } else {
                (w.compute * compute
                    + w.link * link
                    + w.data * data
                    + w.trust * trust_score
                    + w.in_range * in_range)
                    / total_weight
            };
            Some(CandidateScore {
                addr: m.addr,
                total,
                compute,
                link,
                data,
                trust: trust_score,
                in_range,
                eta_secs,
            })
        })
        .filter(|c| c.total >= cfg.min_score)
        .collect();
    out.sort_by(|a, b| {
        b.total
            .partial_cmp(&a.total)
            .expect("scores are finite")
            .then(a.addr.cmp(&b.addr))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SelectionWeights;
    use airdnd_data::{CatalogSummary, DataCatalog, DataQuery, DataType, QualityDescriptor};
    use airdnd_mesh::NodeAdvert;
    use airdnd_sim::SimDuration;
    use airdnd_task::{Program, TaskId};

    fn catalog_summary(fresh_at: SimTime) -> CatalogSummary {
        let mut cat = DataCatalog::new(4);
        cat.insert(
            DataType::OccupancyGrid,
            vec![],
            QualityDescriptor::basic(fresh_at, 0.9, 2.0),
        );
        cat.summarize()
    }

    fn member(
        id: u64,
        gas_rate: u64,
        backlog: u64,
        link: f64,
        fresh_at: SimTime,
    ) -> MemberDescriptor {
        MemberDescriptor {
            addr: NodeAddr::new(id),
            pos: Vec2::new(50.0, 0.0),
            velocity: Vec2::ZERO,
            link_quality: link,
            advert: NodeAdvert {
                gas_rate,
                gas_backlog: backlog,
                mem_free_bytes: 1 << 30,
                accepting: true,
                catalog: catalog_summary(fresh_at),
            },
            info_age: SimDuration::from_millis(100),
        }
    }

    fn mesh(members: Vec<MemberDescriptor>) -> MeshDescriptor {
        MeshDescriptor {
            generated_at: SimTime::from_secs(1),
            local: NodeAddr::new(0),
            local_pos: Vec2::ZERO,
            members,
            churn_per_sec: 0.0,
        }
    }

    fn task() -> TaskSpec {
        TaskSpec::new(
            TaskId::new(1),
            "t",
            Program::new(vec![airdnd_task::Instr::Halt], 0),
        )
        .with_input(DataQuery::of_type(DataType::OccupancyGrid))
    }

    fn now() -> SimTime {
        SimTime::from_secs(1)
    }

    #[test]
    fn faster_node_scores_higher_on_compute() {
        let m = mesh(vec![
            member(1, 2_000_000, 0, 0.9, now()),
            member(2, 200_000, 0, 0.9, now()),
        ]);
        let scores = score_candidates(
            &task(),
            &m,
            Vec2::ZERO,
            &ReputationTable::default(),
            &OrchestratorConfig::default(),
            now(),
        );
        assert_eq!(scores.len(), 2);
        assert_eq!(scores[0].addr, NodeAddr::new(1));
        assert!(scores[0].compute > scores[1].compute);
        assert!(scores[0].eta_secs < scores[1].eta_secs);
    }

    #[test]
    fn backlog_penalizes_compute_score() {
        let m = mesh(vec![
            member(1, 1_000_000, 0, 0.9, now()),
            member(2, 1_000_000, 1_500_000, 0.9, now()),
        ]);
        let scores = score_candidates(
            &task(),
            &m,
            Vec2::ZERO,
            &ReputationTable::default(),
            &OrchestratorConfig::default(),
            now(),
        );
        assert_eq!(scores[0].addr, NodeAddr::new(1));
    }

    #[test]
    fn non_accepting_and_zero_rate_nodes_are_gated() {
        let mut closed = member(1, 1_000_000, 0, 0.9, now());
        closed.advert.accepting = false;
        let zero = member(2, 0, 0, 0.9, now());
        let m = mesh(vec![closed, zero, member(3, 1_000_000, 0, 0.9, now())]);
        let scores = score_candidates(
            &task(),
            &m,
            Vec2::ZERO,
            &ReputationTable::default(),
            &OrchestratorConfig::default(),
            now(),
        );
        assert_eq!(scores.len(), 1);
        assert_eq!(scores[0].addr, NodeAddr::new(3));
    }

    #[test]
    fn missing_data_is_a_hard_gate() {
        let mut no_data = member(1, 1_000_000, 0, 0.9, now());
        no_data.advert.catalog = CatalogSummary::default();
        let m = mesh(vec![no_data, member(2, 1_000_000, 0, 0.9, now())]);
        let scores = score_candidates(
            &task(),
            &m,
            Vec2::ZERO,
            &ReputationTable::default(),
            &OrchestratorConfig::default(),
            now(),
        );
        assert_eq!(scores.len(), 1);
        assert_eq!(scores[0].addr, NodeAddr::new(2));
    }

    #[test]
    fn low_memory_is_a_hard_gate() {
        let mut small = member(1, 1_000_000, 0, 0.9, now());
        small.advert.mem_free_bytes = 1024;
        let m = mesh(vec![small]);
        let scores = score_candidates(
            &task(),
            &m,
            Vec2::ZERO,
            &ReputationTable::default(),
            &OrchestratorConfig::default(),
            now(),
        );
        assert!(scores.is_empty());
    }

    #[test]
    fn distrusted_nodes_are_gated() {
        let mut table = ReputationTable::default();
        for _ in 0..20 {
            table.record(1, false);
        }
        let m = mesh(vec![
            member(1, 1_000_000, 0, 0.9, now()),
            member(2, 1_000_000, 0, 0.9, now()),
        ]);
        let scores = score_candidates(
            &task(),
            &m,
            Vec2::ZERO,
            &table,
            &OrchestratorConfig::default(),
            now(),
        );
        assert_eq!(scores.len(), 1);
        assert_eq!(scores[0].addr, NodeAddr::new(2));
    }

    #[test]
    fn departing_node_scores_lower_on_in_range() {
        let mut leaving = member(1, 1_000_000, 0, 0.9, now());
        leaving.pos = Vec2::new(280.0, 0.0);
        leaving.velocity = Vec2::new(30.0, 0.0); // exits 300 m range in <1 s
        let staying = member(2, 1_000_000, 0, 0.9, now());
        let m = mesh(vec![leaving, staying]);
        let scores = score_candidates(
            &task(),
            &m,
            Vec2::ZERO,
            &ReputationTable::default(),
            &OrchestratorConfig::default(),
            now(),
        );
        let leave_score = scores.iter().find(|s| s.addr == NodeAddr::new(1)).unwrap();
        let stay_score = scores.iter().find(|s| s.addr == NodeAddr::new(2)).unwrap();
        assert!(leave_score.in_range < stay_score.in_range);
        assert_eq!(scores[0].addr, NodeAddr::new(2));
    }

    #[test]
    fn out_of_range_now_scores_zero_in_range() {
        let mut far = member(1, 1_000_000, 0, 0.9, now());
        far.pos = Vec2::new(500.0, 0.0);
        let m = mesh(vec![far]);
        let scores = score_candidates(
            &task(),
            &m,
            Vec2::ZERO,
            &ReputationTable::default(),
            &OrchestratorConfig::default(),
            now(),
        );
        if let Some(s) = scores.first() {
            assert_eq!(s.in_range, 0.0);
        }
    }

    #[test]
    fn stale_data_gates_via_summary() {
        let stale_at = SimTime::ZERO;
        let late = SimTime::from_secs(60);
        let m = MeshDescriptor {
            generated_at: late,
            local: NodeAddr::new(0),
            local_pos: Vec2::ZERO,
            members: vec![member(1, 1_000_000, 0, 0.9, stale_at)],
            churn_per_sec: 0.0,
        };
        let mut t = task();
        t.inputs[0].requirement.max_age = SimDuration::from_secs(5);
        let scores = score_candidates(
            &t,
            &m,
            Vec2::ZERO,
            &ReputationTable::default(),
            &OrchestratorConfig::default(),
            late,
        );
        assert!(scores.is_empty(), "60 s old data vs 5 s bound");
    }

    #[test]
    fn ablation_changes_ranking() {
        // Node 1: fast but weak link. Node 2: slower but strong link.
        let fast_weak = member(1, 4_000_000, 0, 0.2, now());
        let slow_strong = member(2, 600_000, 0, 1.0, now());
        let m = mesh(vec![fast_weak, slow_strong]);
        let mut cfg = OrchestratorConfig {
            weights: SelectionWeights::compute_only(),
            ..Default::default()
        };
        let by_compute = score_candidates(
            &task(),
            &m,
            Vec2::ZERO,
            &ReputationTable::default(),
            &cfg,
            now(),
        );
        assert_eq!(by_compute[0].addr, NodeAddr::new(1));
        cfg.weights = SelectionWeights {
            compute: 0.1,
            link: 2.0,
            ..SelectionWeights::default()
        };
        let by_link = score_candidates(
            &task(),
            &m,
            Vec2::ZERO,
            &ReputationTable::default(),
            &cfg,
            now(),
        );
        assert_eq!(
            by_link[0].addr,
            NodeAddr::new(2),
            "link-heavy weights flip the ranking"
        );
    }

    #[test]
    fn deterministic_tie_break_by_address() {
        let m = mesh(vec![
            member(2, 1_000_000, 0, 0.9, now()),
            member(1, 1_000_000, 0, 0.9, now()),
        ]);
        let a = score_candidates(
            &task(),
            &m,
            Vec2::ZERO,
            &ReputationTable::default(),
            &OrchestratorConfig::default(),
            now(),
        );
        assert_eq!(
            a[0].addr,
            NodeAddr::new(1),
            "equal scores resolve to lower address"
        );
    }

    #[test]
    fn time_in_range_geometry() {
        let mut m = member(1, 1, 0, 1.0, now());
        m.pos = Vec2::new(100.0, 0.0);
        m.velocity = Vec2::new(50.0, 0.0);
        let t = time_in_range(&m, Vec2::ZERO, Vec2::ZERO, 300.0);
        assert!(
            (t - 4.0).abs() < 1e-9,
            "200 m of headroom at 50 m/s, got {t}"
        );
        // Approaching then receding.
        m.velocity = Vec2::new(-50.0, 0.0);
        let t = time_in_range(&m, Vec2::ZERO, Vec2::ZERO, 300.0);
        assert!((t - 8.0).abs() < 1e-9, "crosses to −300 m, got {t}");
        // Same velocities → relative rest → infinite.
        let t = time_in_range(&m, Vec2::ZERO, Vec2::new(-50.0, 0.0), 300.0);
        assert!(t.is_infinite());
    }
}
