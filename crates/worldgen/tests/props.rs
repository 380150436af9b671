//! Property-based tests for worldgen invariants: for *any* parameters in
//! the supported ranges, generated road graphs must be connected and
//! route-able between every portal pair, lanes must never self-loop, IDM
//! vehicles on generated routes must stay physical, and generation must
//! be a pure function of the seed even under thread parallelism.

use airdnd_geo::{IdmParams, Mobility};
use airdnd_scenario::ScenarioConfig;
use airdnd_worldgen::{
    BridgeParams, ChurnProcess, FamilyKind, FleetProfile, GridParams, HighwayParams, RadialParams,
    RoundaboutParams,
};
use proptest::prelude::*;

/// Family recipes over the supported parameter ranges.
fn arb_family() -> impl Strategy<Value = FamilyKind> {
    prop_oneof![
        (2usize..6, 3usize..5, 0usize..3).prop_map(|(cols, rows, arterial_every)| {
            FamilyKind::Grid(GridParams {
                cols,
                rows,
                arterial_every,
                ..GridParams::default()
            })
        }),
        (3usize..7, 1usize..4).prop_map(|(arms, rings)| {
            FamilyKind::Radial(RadialParams {
                arms,
                rings,
                ..RadialParams::default()
            })
        }),
        (2usize..8, 1usize..3).prop_map(|(segments, ramp_every)| {
            FamilyKind::Highway(HighwayParams {
                segments: segments.max(ramp_every + 1),
                ramp_every,
                ..HighwayParams::default()
            })
        }),
        (4usize..7, 24.0f64..36.0).prop_map(|(arms, radius)| {
            FamilyKind::Roundabout(RoundaboutParams {
                arms,
                radius,
                ..RoundaboutParams::default()
            })
        }),
        (80.0f64..200.0, 60.0f64..200.0).prop_map(|(approach_len, span)| {
            FamilyKind::Bridge(BridgeParams {
                approach_len,
                span,
                ..BridgeParams::default()
            })
        }),
    ]
}

fn instance_of(kind: FamilyKind, seed: u64) -> airdnd_scenario::WorldInstance {
    let cfg = ScenarioConfig::default().seeded(seed);
    kind.instantiate(&cfg, &FleetProfile::default())
}

proptest! {
    /// Every generated graph is route-able between every pair of portals
    /// (spawn/goal nodes) — the invariant `Vehicle::fresh_route` leans on
    /// with its `expect`.
    #[test]
    fn portals_are_mutually_routable(kind in arb_family(), seed in 0u64..1_000) {
        let net = instance_of(kind, seed).stage.net;
        let arms = net.arm_count();
        prop_assert!(arms >= 2, "a map needs at least two portals");
        for a in 0..arms {
            for b in 0..arms {
                prop_assert!(
                    net.route(net.approach_node(a), net.exit_node(b)).is_some(),
                    "portal {a} cannot reach portal {b}"
                );
            }
        }
    }

    /// No generated lane is a self-loop, and every lane has positive
    /// length and a positive finite speed limit.
    #[test]
    fn lanes_are_physical(kind in arb_family(), seed in 0u64..1_000) {
        let net = instance_of(kind, seed).stage.net;
        for (from, to, length, speed) in net.lanes() {
            prop_assert_ne!(from, to, "self-loop lane at {:?}", from);
            prop_assert!(length > 0.0, "zero-length lane");
            prop_assert!(speed.is_finite() && speed > 0.0, "bad speed {speed}");
        }
    }

    /// An IDM vehicle driven over any generated route keeps a
    /// non-negative, bounded speed and never leaves the route's geometry.
    #[test]
    fn idm_stays_physical_on_generated_routes(
        kind in arb_family(),
        seed in 0u64..500,
        from in 0usize..64,
        to in 0usize..64,
    ) {
        let stage = instance_of(kind, seed).stage;
        let arms = stage.net.arm_count();
        let (from, to) = (from % arms, to % arms);
        let route = stage
            .net
            .route(stage.net.approach_node(from), stage.net.exit_node(to))
            .expect("portals are mutually routable");
        let mut bounds_min = route.points()[0];
        let mut bounds_max = route.points()[0];
        for &p in route.points() {
            bounds_min = bounds_min.min(p);
            bounds_max = bounds_max.max(p);
        }
        let top_speed = 30.0; // above every family's speed tiers
        let mut m = Mobility::route(route, 8.0, IdmParams::default());
        for _ in 0..600 {
            m.step(0.1);
            let state = m.state();
            prop_assert!(state.speed >= 0.0, "negative speed {}", state.speed);
            prop_assert!(state.speed <= top_speed, "runaway speed {}", state.speed);
            prop_assert!(state.pos.is_finite());
            prop_assert!(
                state.pos.x >= bounds_min.x - 1e-6
                    && state.pos.x <= bounds_max.x + 1e-6
                    && state.pos.y >= bounds_min.y - 1e-6
                    && state.pos.y <= bounds_max.y + 1e-6,
                "left the lane geometry: {:?}",
                state.pos
            );
        }
    }

    /// Same seed ⇒ byte-identical world, even when generation runs on
    /// many threads at once (the harness farms runs across a pool; world
    /// generation must not care).
    #[test]
    fn same_seed_generates_identically_across_threads(kind in arb_family(), seed in 0u64..1_000) {
        let reference =
            serde_json::to_string(&instance_of(kind, seed)).expect("instance serializes");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    serde_json::to_string(&instance_of(kind, seed)).expect("instance serializes")
                })
            })
            .collect();
        for handle in handles {
            let parallel = handle.join().expect("generation thread");
            prop_assert_eq!(&parallel, &reference, "thread-divergent generation");
        }
        // And a different seed must actually change the world.
        let other = serde_json::to_string(&instance_of(kind, seed ^ 0xFFFF_FFFF))
            .expect("instance serializes");
        prop_assert_ne!(other, reference, "seed must drive the jitter");
    }
    /// The churn schedule is a pure function of `(process, duration, arms,
    /// seed)`: byte-identical when compiled concurrently on many threads,
    /// distinct across seeds whenever it is non-empty.
    #[test]
    fn churn_schedule_is_thread_invariant_and_seed_sensitive(
        arrivals in 0.0f64..30.0,
        departures in 0.0f64..30.0,
        abrupt in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        let churn = ChurnProcess {
            arrivals_per_min: arrivals,
            departures_per_min: departures,
            abrupt_fraction: abrupt,
        };
        let reference = serde_json::to_string(&churn.schedule(60.0, 4, seed))
            .expect("schedule serializes");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    serde_json::to_string(&churn.schedule(60.0, 4, seed))
                        .expect("schedule serializes")
                })
            })
            .collect();
        for handle in handles {
            prop_assert_eq!(handle.join().expect("schedule thread"), reference.clone());
        }
        if arrivals > 1.0 || departures > 1.0 {
            let other = serde_json::to_string(&churn.schedule(60.0, 4, seed ^ 0xABCD_EF01))
                .expect("schedule serializes");
            prop_assert_ne!(other, reference, "seed must drive the event times");
        }
    }
}

/// The hidden-region grid invariants hold on every generated world: cells
/// index consistently and hidden agents land in valid cells.
#[test]
fn generated_grids_index_consistently() {
    for family in airdnd_worldgen::families() {
        let instance = instance_of(family.kind, 77);
        let grid = &instance.stage.grid;
        for row in 0..grid.rows {
            for col in 0..grid.cols {
                let c = grid.cell_center(col, row);
                assert_eq!(
                    grid.cell_of(c),
                    Some(row * grid.cols + col),
                    "{}: cell ({col},{row}) misindexes",
                    family.name
                );
            }
        }
        for agent in &instance.hidden_agents {
            assert!(grid.cell_of(*agent).is_some());
        }
    }
}
