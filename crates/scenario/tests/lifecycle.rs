//! End-to-end tests of the dynamic fleet lifecycle and multi-ego demand:
//! the driver must apply scheduled spawns/despawns at tick boundaries
//! without ever panicking (even when the departing vehicle holds in-flight
//! tasks), churn must be trace-visible, a zero-churn schedule must
//! reproduce the static-fleet run byte for byte, and extra query origins
//! must issue their own task streams over their own derived grids.

use airdnd_scenario::{
    run_scenario, run_scenario_in_observed, EgoRoute, EventKind, FleetAction, FleetEvent,
    FleetSchedule, ScenarioConfig, ScenarioReport, Strategy, TelemetryOptions, WorldInstance,
};
use airdnd_sim::SimDuration;

fn run_in(world: WorldInstance, cfg: ScenarioConfig) -> ScenarioReport {
    run_scenario_in_observed(world, cfg, TelemetryOptions::default()).0
}

fn quick_cfg(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        vehicles: 8,
        duration: SimDuration::from_secs(20),
        strategy: Strategy::Airdnd,
        ..Default::default()
    }
}

/// A schedule that keeps arriving and departing through the run, with a
/// mix of graceful and abrupt departures.
fn busy_schedule() -> FleetSchedule {
    let mut events = Vec::new();
    for k in 0..6u32 {
        events.push(FleetEvent {
            at_s: 2.0 + 3.0 * f64::from(k),
            action: FleetAction::Spawn { arm: k as usize },
        });
        events.push(FleetEvent {
            at_s: 3.5 + 3.0 * f64::from(k),
            action: FleetAction::Despawn {
                graceful: k % 2 == 0,
            },
        });
    }
    FleetSchedule::new(events)
}

/// Churn genuinely changes mesh membership mid-run — every scheduled
/// event applies, the fleet keeps serving perception tasks, and the run
/// never panics even though departing vehicles hold in-flight work.
#[test]
fn churn_applies_every_event_and_keeps_serving() {
    let cfg = quick_cfg(11);
    let mut world = WorldInstance::canonical(&cfg);
    world.schedule = busy_schedule();
    let report = run_in(world, cfg);
    assert_eq!(report.lifecycle_spawns, 6);
    assert_eq!(report.lifecycle_despawns, 6);
    // Spawns and despawns balance, so the population ends where it began.
    assert_eq!(report.vehicles, 8);
    assert!(report.tasks_submitted > 10, "{}", report.tasks_submitted);
    assert!(
        report.completion_rate > 0.3,
        "churned fleet must still serve: {}",
        report.completion_rate
    );
    // The mesh observed the turnover: more joins than a static 8-vehicle
    // run needs, and real leaves.
    assert!(report.leaves > 0, "departures must be observed as leaves");
    // Every completion took an offer out and a result back, and a helper
    // that departed afterwards still counts both.
    assert!(
        report.results_returned >= report.tasks_completed,
        "results {} < completions {}",
        report.results_returned,
        report.tasks_completed
    );
    assert!(
        report.offers_sent >= report.tasks_completed,
        "offers {} < completions {}",
        report.offers_sent,
        report.tasks_completed
    );
}

/// Despawning a task-holding vehicle is trace-visible and safe: the event
/// log records every lifecycle flavour as a typed event, matchable without
/// string grepping.
#[test]
fn churn_is_trace_visible() {
    let cfg = quick_cfg(13);
    let mut world = WorldInstance::canonical(&cfg);
    world.schedule = busy_schedule();
    let (report, telemetry) = run_scenario_in_observed(world, cfg, TelemetryOptions::events(4_000));
    assert!(report.lifecycle_despawns > 0);
    let log = &telemetry.events;
    assert!(
        log.query()
            .matching(|r| matches!(r.event.kind, EventKind::LifecycleSpawn { .. }))
            .exists(),
        "spawns must be trace-visible"
    );
    assert!(
        log.query()
            .matching(|r| matches!(
                r.event.kind,
                EventKind::LifecycleDespawn { graceful: true, .. }
            ))
            .exists()
            && log
                .query()
                .matching(|r| matches!(
                    r.event.kind,
                    EventKind::LifecycleDespawn {
                        graceful: false,
                        ..
                    }
                ))
                .exists(),
        "both departure flavours must be trace-visible"
    );
    // The typed log agrees with the report's aggregate counters.
    assert_eq!(
        log.query()
            .matching(|r| matches!(r.event.kind, EventKind::LifecycleDespawn { .. }))
            .count(),
        report.lifecycle_despawns as usize
    );
}

/// Causal ordering the mesh protocol guarantees: no task can be offered
/// to an executor before any node has joined the mesh. The matcher pins
/// it over the global record sequence instead of eyeballing a trace dump.
#[test]
fn first_join_precedes_first_offload() {
    let cfg = quick_cfg(13);
    let (report, telemetry) = run_scenario_in_observed(
        WorldInstance::canonical(&cfg),
        cfg,
        TelemetryOptions::events(65_536),
    );
    assert!(report.tasks_completed > 0);
    let log = &telemetry.events;
    let joins = log
        .query()
        .matching(|r| matches!(r.event.kind, EventKind::MeshJoin { .. }));
    let offloads = log
        .query()
        .matching(|r| matches!(r.event.kind, EventKind::TaskOffload { .. }));
    assert!(joins.exists(), "a mesh must form");
    assert!(offloads.exists(), "tasks must be offered");
    assert!(
        joins.precedes(&offloads),
        "the mesh must form before the first task is offered"
    );
}

/// An abrupt departure never announces itself: the mesh only finds out
/// when the departed node's lease expires, so a mesh leave must be
/// recorded at or after the despawn — never before the first one.
#[test]
fn abrupt_despawn_surfaces_as_lease_expiry_leave() {
    let cfg = quick_cfg(13);
    let mut world = WorldInstance::canonical(&cfg);
    world.schedule = busy_schedule();
    let (report, telemetry) =
        run_scenario_in_observed(world, cfg, TelemetryOptions::events(65_536));
    assert!(report.leaves > 0, "departures must be observed as leaves");
    let log = &telemetry.events;
    let abrupt = log.query().matching(|r| {
        matches!(
            r.event.kind,
            EventKind::LifecycleDespawn {
                graceful: false,
                ..
            }
        )
    });
    assert!(abrupt.exists(), "the schedule mixes in abrupt departures");
    let at = abrupt.first().expect("exists").event.time;
    let leaves_after = log
        .query()
        .since(at)
        .matching(|r| matches!(r.event.kind, EventKind::MeshLeave { .. }));
    assert!(
        leaves_after.exists(),
        "an abrupt departure must surface as a lease-expiry mesh leave"
    );
    assert!(
        abrupt.precedes(&leaves_after),
        "the despawn is the cause; the observed leave follows it"
    );
}

/// The regression pin: an explicitly attached zero-churn schedule (and no
/// extra egos) reproduces the plain static-fleet run byte for byte.
#[test]
fn zero_churn_single_ego_reproduces_the_static_run() {
    let cfg = quick_cfg(17);
    let plain = run_scenario(cfg);
    let mut world = WorldInstance::canonical(&cfg);
    world.schedule = FleetSchedule::new(Vec::new());
    world.extra_egos = Vec::new();
    let scheduled = run_in(world, cfg);
    assert_eq!(
        serde_json::to_string(&plain).expect("serializes"),
        serde_json::to_string(&scheduled).expect("serializes"),
        "an empty schedule must be the static fleet, byte for byte"
    );
    assert_eq!(plain.lifecycle_spawns, 0);
    assert_eq!(plain.egos, 1);
}

/// Mid-run arrivals draw the same byzantine lottery the initial fleet
/// did: despawn the only initial helper, let every later helper be an
/// arrival, and corrupt results must still show up.
#[test]
fn spawned_helpers_are_byzantine_like_the_initial_fleet() {
    let cfg = ScenarioConfig {
        seed: 31,
        vehicles: 2, // ego + one initial helper
        byzantine_fraction: 1.0,
        duration: SimDuration::from_secs(25),
        strategy: Strategy::Airdnd,
        ..Default::default()
    };
    let mut world = WorldInstance::canonical(&cfg);
    let mut events = vec![FleetEvent {
        at_s: 1.0,
        action: FleetAction::Despawn { graceful: true },
    }];
    for k in 0..4u32 {
        events.push(FleetEvent {
            at_s: 1.5 + 0.5 * f64::from(k),
            action: FleetAction::Spawn { arm: k as usize },
        });
    }
    world.schedule = FleetSchedule::new(events);
    let report = run_in(world, cfg);
    assert_eq!(report.lifecycle_despawns, 1);
    assert_eq!(report.lifecycle_spawns, 4);
    assert!(
        report.tasks_completed > 0,
        "the arrivals must form a working mesh"
    );
    assert!(
        report.invalid_results_accepted > 0,
        "every helper is an arrival and every arrival is byzantine — \
         corrupt results must surface"
    );
}

/// Churn runs stay deterministic per seed and distinct across seeds.
#[test]
fn churned_runs_are_seed_deterministic() {
    let run = |seed: u64| {
        let cfg = quick_cfg(seed);
        let mut world = WorldInstance::canonical(&cfg);
        world.schedule = busy_schedule();
        serde_json::to_string(&run_in(world, cfg)).expect("serializes")
    };
    assert_eq!(run(19), run(19));
    assert_ne!(run(19), run(20));
}

/// Two concurrent query origins: the extra ego derives its own corridor
/// from its own approach, issues its own task stream, and the combined
/// run still completes views.
#[test]
fn multi_ego_issues_concurrent_task_streams() {
    let cfg = quick_cfg(23);
    let single = run_scenario(cfg);
    let mut world = WorldInstance::canonical(&cfg);
    world.extra_egos = vec![EgoRoute {
        arm: 1,
        goal_arm: 3,
    }];
    let multi = run_in(world, cfg);
    assert_eq!(multi.egos, 2);
    assert!(
        multi.tasks_submitted > single.tasks_submitted,
        "a second origin must add demand: {} vs {}",
        multi.tasks_submitted,
        single.tasks_submitted
    );
    assert!(
        multi.tasks_completed > 0,
        "multi-ego runs must still complete views"
    );
}

/// Multi-ego and churn compose: egos are protected from despawn, so every
/// origin keeps querying to the end of the run.
#[test]
fn multi_ego_survives_churn() {
    let cfg = quick_cfg(29);
    let mut world = WorldInstance::canonical(&cfg);
    world.extra_egos = vec![
        EgoRoute {
            arm: 1,
            goal_arm: 3,
        },
        EgoRoute {
            arm: 2,
            goal_arm: 0,
        },
    ];
    world.schedule = busy_schedule();
    let report = run_in(world, cfg);
    assert_eq!(report.egos, 3);
    assert_eq!(report.lifecycle_despawns, 6);
    assert!(report.tasks_submitted > 20, "{}", report.tasks_submitted);
}
