//! Property tests for the causal span layer: any protocol-shaped
//! interleaving played through each query's `QueryPath` yields a well-formed
//! span tree, causally ordered edges, and stage budgets that partition
//! the end-to-end latency exactly — with the span-tree extractor
//! agreeing with the always-on book.

use airdnd_sim::SimTime;
use airdnd_telemetry::span::SpanStatus;
use airdnd_telemetry::{extract, validate_spans, QueryPath, SpanLog, StageBudget};
use proptest::prelude::*;

/// One generated query: a submit, a chain of offer attempts (some
/// dropped), execution at the delivered ones, and an outcome.
#[derive(Clone, Debug)]
struct GenQuery {
    task: u64,
    actor: u32,
    submit_ms: u64,
    /// (executor, offer gap ms, delivered?, exec ms, result delivered?)
    attempts: Vec<(u32, u64, bool, u64, bool)>,
    completes: bool,
}

fn any_query(task: u64) -> impl Strategy<Value = GenQuery> {
    (
        (0u32..4, 0u64..50),
        proptest::collection::vec(
            (
                (10u32..20, 1u64..30),
                any::<bool>(),
                1u64..100,
                any::<bool>(),
            ),
            1..4,
        ),
        any::<bool>(),
    )
        .prop_map(move |((actor, submit_ms), attempts, completes)| GenQuery {
            task,
            actor,
            submit_ms,
            attempts: attempts
                .into_iter()
                .map(|((executor, gap), delivered, exec, result)| {
                    (executor, gap, delivered, exec, result)
                })
                .collect(),
            completes,
        })
}

/// Plays a batch of queries through their paths in virtual-time order,
/// returning the recorded spans and the completed queries' budgets.
fn play(queries: &[GenQuery], spans_on: bool) -> (SpanLog, Vec<StageBudget>) {
    let t = SimTime::from_millis;
    let mut log = if spans_on {
        SpanLog::enabled()
    } else {
        SpanLog::disabled()
    };
    let mut samples = Vec::new();
    let mut horizon = 0u64;
    for q in queries {
        let mut now = q.submit_ms;
        let mut path = QueryPath::open(&mut log, q.task, q.actor, t(now));
        let mut any_result = false;
        for &(executor, gap, delivered, exec_ms, result_ok) in &q.attempts {
            now += gap;
            let arrival = now + 1;
            path.offer_sent(&mut log, executor, t(now), delivered.then(|| t(arrival)));
            if delivered {
                let ready = arrival + exec_ms;
                path.result_ready(&mut log, executor, t(arrival), t(ready));
                path.result_sent(
                    &mut log,
                    executor,
                    t(ready),
                    result_ok.then(|| t(ready + 1)),
                );
                if result_ok {
                    any_result = true;
                    now = ready + 1;
                } else {
                    now = ready;
                }
            }
        }
        if q.completes && any_result {
            samples.push(path.complete(&mut log, t(now)));
        } else {
            path.fail(&mut log, t(now + 5));
        }
        horizon = horizon.max(now + 10);
    }
    log.expire_open(t(horizon));
    (log, samples)
}

proptest! {
    /// Open/close balance and causal well-formedness: every recorded
    /// span ends Closed or Expired, every parent/follows_from reference
    /// exists, causal edges respect virtual-time order, no cycles.
    #[test]
    fn span_trees_are_well_formed(
        queries in proptest::collection::vec(any_query(0), 1..6)
            .prop_map(|mut qs| {
                for (i, q) in qs.iter_mut().enumerate() {
                    q.task = i as u64 + 1;
                }
                qs
            }),
    ) {
        let (log, _) = play(&queries, true);
        prop_assert!(validate_spans(log.spans()).is_ok(),
            "{:?}", validate_spans(log.spans()));
        prop_assert!(log.spans().iter().all(|s| s.status != SpanStatus::Open));
        prop_assert!(log.spans().iter().all(|s| s.end.is_some_and(|e| e >= s.start)));
    }

    /// The stage budgets partition latency exactly: each stage ≤ total
    /// (critical path never exceeds end-to-end latency) and the five
    /// stages sum to it. The book is identical with spans on or off, and
    /// the span-tree extractor recomputes the same budget.
    #[test]
    fn budgets_partition_latency_and_extractor_agrees(
        queries in proptest::collection::vec(any_query(0), 1..6)
            .prop_map(|mut qs| {
                for (i, q) in qs.iter_mut().enumerate() {
                    q.task = i as u64 + 1;
                }
                qs
            }),
    ) {
        let (log_on, samples_on) = play(&queries, true);
        let (log_off, samples_off) = play(&queries, false);
        prop_assert!(log_off.is_empty(), "disabled log records nothing");
        prop_assert_eq!(&samples_on, &samples_off, "book is span-independent");
        for budget in &samples_on {
            prop_assert_eq!(budget.stages_total_us(), budget.total_us);
            for stage in airdnd_telemetry::Stage::ALL {
                prop_assert!(budget.stage_us(stage) <= budget.total_us);
            }
            let extracted = extract(log_on.spans(), budget.task);
            prop_assert_eq!(extracted, Some(*budget),
                "extractor agrees with the book for task {}", budget.task);
        }
    }
}
