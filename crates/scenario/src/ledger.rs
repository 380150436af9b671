//! The run's outcome ledger: one record per submitted query, indexed by
//! task id, each with exactly one end state. Every query figure of a
//! [`ScenarioReport`](crate::ScenarioReport) is a fold over it, so the
//! totals, the per-ego fairness columns and the stage quantiles all read
//! the same records, and a helper's later departure cannot take back a
//! result it already sent. An offloaded query's record also carries its
//! critical path while the query is in flight, so the runner books each
//! protocol step with one call here.

use airdnd_sim::SimTime;
use airdnd_telemetry::{QueryPath, SpanLog, StageBudget};

/// One submitted query.
#[derive(Debug)]
pub(crate) struct QueryRecord {
    /// Index of the submitting ego.
    pub ego: usize,
    /// Submit time.
    pub submitted: SimTime,
    /// Offers the runner routed for this query.
    pub offers: u64,
    /// Results helpers emitted for this query.
    pub results: u64,
    /// Where the query ended.
    pub end: End,
}

/// A query's one end state.
#[derive(Debug)]
pub(crate) enum End {
    /// Not yet ended (a query the run's horizon cuts off stays here),
    /// with its critical path until it ends if it is offloaded.
    InFlight(Option<QueryPath>),
    /// Failed or expired.
    Failed,
    /// Produced a view.
    Completed(Completion),
}

/// What a completed query delivered.
#[derive(Debug)]
pub(crate) struct Completion {
    /// Run-wide completion ordinal. The report folds completions ego by
    /// ego and, within an ego, in this order.
    pub ordinal: u64,
    /// Completion time.
    pub at: SimTime,
    /// Observed fraction of the hidden region in the fused view.
    pub coverage: f64,
    /// Observed fraction with the ego's own sensors only.
    pub ego_only: f64,
    /// Whether the remote grid was well-formed (a byzantine helper's
    /// corrupt grid is accepted but not fused).
    pub valid: bool,
    /// The query's critical-path stage budget.
    pub budget: StageBudget,
}

impl QueryRecord {
    /// Submit → completion latency of a completed query, ms.
    pub fn latency_ms(&self, done: &Completion) -> f64 {
        done.at.saturating_since(self.submitted).as_millis_f64()
    }
}

/// How one ego's queries ended.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Tally {
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub in_flight: u64,
}

/// The ledger itself. Task ids are dense from 1: record `k` is task
/// `k + 1`.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    records: Vec<QueryRecord>,
    completions: u64,
    first_detection: Option<SimTime>,
}

impl Ledger {
    /// Opens ego `ego`'s next query at `now` and returns its task id. An
    /// offloaded query, submitted by node `offload_actor`, also opens its
    /// critical path, whose root span opens in `spans`.
    pub fn open(
        &mut self,
        spans: &mut SpanLog,
        ego: usize,
        offload_actor: Option<u32>,
        now: SimTime,
    ) -> u64 {
        let task = self.records.len() as u64 + 1;
        let path = offload_actor.map(|actor| QueryPath::open(spans, task, actor, now));
        self.records.push(QueryRecord {
            ego,
            submitted: now,
            offers: 0,
            results: 0,
            end: End::InFlight(path),
        });
        task
    }

    /// The record of task `task`.
    pub fn get(&self, task: u64) -> &QueryRecord {
        &self.records[task as usize - 1]
    }

    fn get_mut(&mut self, task: u64) -> &mut QueryRecord {
        &mut self.records[task as usize - 1]
    }

    /// `task`'s critical path, while it is in flight and has one.
    fn path_mut(&mut self, task: u64) -> Option<&mut QueryPath> {
        match &mut self.get_mut(task).end {
            End::InFlight(path) => path.as_mut(),
            _ => None,
        }
    }

    /// Takes `task`'s critical path out of its record as the query ends.
    fn take_path(&mut self, task: u64) -> Option<QueryPath> {
        match &mut self.get_mut(task).end {
            End::InFlight(path) => path.take(),
            _ => None,
        }
    }

    /// Books one offer routed for `task` to `executor` at `now`, with the
    /// medium's verdict (`delivered` = arrival time, `None` = dropped).
    pub fn offer_sent(
        &mut self,
        spans: &mut SpanLog,
        task: u64,
        executor: u32,
        now: SimTime,
        delivered: Option<SimTime>,
    ) {
        self.get_mut(task).offers += 1;
        if let Some(path) = self.path_mut(task) {
            path.offer_sent(spans, executor, now, delivered);
        }
    }

    /// Books one result `executor` emitted for `task`: execution started
    /// at `now`, when the offer arrived, and the result is ready at
    /// `ready`. A result for a query that already ended still counts.
    pub fn result_ready(
        &mut self,
        spans: &mut SpanLog,
        task: u64,
        executor: u32,
        now: SimTime,
        ready: SimTime,
    ) {
        self.get_mut(task).results += 1;
        if let Some(path) = self.path_mut(task) {
            path.result_ready(spans, executor, now, ready);
        }
    }

    /// Books `task`'s result frame leaving `executor` at `now`, with the
    /// medium's verdict.
    pub fn result_sent(
        &mut self,
        spans: &mut SpanLog,
        task: u64,
        executor: u32,
        now: SimTime,
        delivered: Option<SimTime>,
    ) {
        if let Some(path) = self.path_mut(task) {
            path.result_sent(spans, executor, now, delivered);
        }
    }

    /// Ends `task` as failed at `now`.
    pub fn fail(&mut self, spans: &mut SpanLog, task: u64, now: SimTime) {
        if let Some(path) = self.take_path(task) {
            path.fail(spans, now);
        }
        self.settle(task, End::Failed);
    }

    /// Ends `task` as completed at `at`. Its stage budget comes from its
    /// critical path; a query without one (a strategy that never
    /// offloads) books its whole latency as execution.
    pub fn complete(
        &mut self,
        spans: &mut SpanLog,
        task: u64,
        at: SimTime,
        coverage: f64,
        ego_only: f64,
        valid: bool,
    ) {
        let budget = match self.take_path(task) {
            Some(path) => path.complete(spans, at),
            None => {
                let latency = at.saturating_since(self.get(task).submitted);
                StageBudget::all_exec(task, latency.as_nanos() / 1_000)
            }
        };
        self.completions += 1;
        let done = Completion {
            ordinal: self.completions,
            at,
            coverage,
            ego_only,
            valid,
            budget,
        };
        self.settle(task, End::Completed(done));
    }

    /// The run's horizon: every query still in flight expires its
    /// critical path there, in task-id order, and then every span still
    /// open expires too. The records stay in flight.
    pub fn close(&mut self, spans: &mut SpanLog, horizon: SimTime) {
        for record in &mut self.records {
            if let End::InFlight(path) = &mut record.end {
                if let Some(path) = path.take() {
                    path.fail(spans, horizon);
                }
            }
        }
        spans.expire_open(horizon);
    }

    fn settle(&mut self, task: u64, end: End) {
        let record = self.get_mut(task);
        debug_assert!(
            matches!(record.end, End::InFlight(_)),
            "query {task} ends twice"
        );
        record.end = end;
    }

    /// When any ego's fused view first showed a hidden agent.
    pub fn first_detection(&self) -> Option<SimTime> {
        self.first_detection
    }

    /// Books a detection at `at`; only the first one counts.
    pub fn detected(&mut self, at: SimTime) {
        self.first_detection.get_or_insert(at);
    }

    /// Every record, in task-id order.
    pub fn records(&self) -> &[QueryRecord] {
        &self.records
    }

    /// Completed records in the report's fold order: ego by ego and,
    /// within an ego, in completion order.
    pub fn completed(&self) -> Vec<(&QueryRecord, &Completion)> {
        let mut done: Vec<_> = self
            .records
            .iter()
            .filter_map(|record| match &record.end {
                End::Completed(done) => Some((record, done)),
                _ => None,
            })
            .collect();
        done.sort_unstable_by_key(|(record, done)| (record.ego, done.ordinal));
        done
    }

    /// How each of `egos` egos' queries ended, in ego order.
    pub fn tallies(&self, egos: usize) -> Vec<Tally> {
        let mut tallies = vec![Tally::default(); egos];
        for record in &self.records {
            let tally = &mut tallies[record.ego];
            tally.submitted += 1;
            match record.end {
                End::InFlight(_) => tally.in_flight += 1,
                End::Failed => tally.failed += 1,
                End::Completed(_) => tally.completed += 1,
            }
        }
        tallies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// A query opened without a critical path (a strategy that never
    /// offloads) books its whole latency as execution and records no
    /// span.
    #[test]
    fn untracked_tasks_fall_back_to_all_exec() {
        let mut spans = SpanLog::enabled();
        let mut ledger = Ledger::default();
        let done = ledger.open(&mut spans, 0, None, t(2));
        let failed = ledger.open(&mut spans, 0, None, t(3));
        ledger.complete(&mut spans, done, t(7), 0.5, 0.25, true);
        ledger.fail(&mut spans, failed, t(9));
        ledger.close(&mut spans, t(10));
        assert!(spans.is_empty());
        let completed = ledger.completed();
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[0].1.budget, StageBudget::all_exec(done, 5_000));
    }

    /// An offloaded query's path follows it only while it is in flight:
    /// a result emitted after the query ended still counts, but records
    /// no span.
    #[test]
    fn late_results_count_without_touching_the_path() {
        let mut spans = SpanLog::enabled();
        let mut ledger = Ledger::default();
        let task = ledger.open(&mut spans, 0, Some(1), t(0));
        ledger.offer_sent(&mut spans, task, 20, t(1), Some(t(2)));
        ledger.fail(&mut spans, task, t(5));
        let recorded = spans.len();
        ledger.result_ready(&mut spans, task, 20, t(2), t(8));
        ledger.result_sent(&mut spans, task, 20, t(8), Some(t(9)));
        assert_eq!(spans.len(), recorded);
        let record = ledger.get(task);
        assert_eq!((record.offers, record.results), (1, 1));
        assert!(matches!(record.end, End::Failed));
    }
}
