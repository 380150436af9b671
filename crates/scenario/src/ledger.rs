//! The run's outcome ledger: one record per submitted query, indexed by
//! task id, each with exactly one end state. Every query figure of a
//! [`ScenarioReport`](crate::ScenarioReport) is a fold over it, so the
//! totals, the per-ego fairness columns and the stage quantiles all read
//! the same records, and a helper's later departure cannot take back a
//! result it already sent.

use airdnd_sim::SimTime;
use airdnd_telemetry::StageBudget;

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
    /// Not yet ended (a query the run's horizon cuts off stays here).
    InFlight,
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
    /// Opens ego `ego`'s next query at `now` and returns its task id.
    pub fn open(&mut self, ego: usize, now: SimTime) -> u64 {
        self.records.push(QueryRecord {
            ego,
            submitted: now,
            offers: 0,
            results: 0,
            end: End::InFlight,
        });
        self.records.len() as u64
    }

    /// The record of task `task`.
    pub fn get(&self, task: u64) -> &QueryRecord {
        &self.records[task as usize - 1]
    }

    fn get_mut(&mut self, task: u64) -> &mut QueryRecord {
        &mut self.records[task as usize - 1]
    }

    /// Counts one offer routed for `task`.
    pub fn count_offer(&mut self, task: u64) {
        self.get_mut(task).offers += 1;
    }

    /// Counts one result a helper emitted for `task`.
    pub fn count_result(&mut self, task: u64) {
        self.get_mut(task).results += 1;
    }

    /// Ends `task` as failed.
    pub fn fail(&mut self, task: u64) {
        self.settle(task, End::Failed);
    }

    /// Ends `task` as completed at `at`.
    pub fn complete(
        &mut self,
        task: u64,
        at: SimTime,
        coverage: f64,
        ego_only: f64,
        valid: bool,
        budget: StageBudget,
    ) {
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

    fn settle(&mut self, task: u64, end: End) {
        let record = self.get_mut(task);
        debug_assert!(
            matches!(record.end, End::InFlight),
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
                End::InFlight => tally.in_flight += 1,
                End::Failed => tally.failed += 1,
                End::Completed(_) => tally.completed += 1,
            }
        }
        tallies
    }
}
