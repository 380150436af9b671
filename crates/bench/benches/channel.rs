//! Radio-medium microbenchmarks: PER math and frame delivery.

use airdnd_geo::{ObstacleIndex, Vec2, World};
use airdnd_radio::{NodeAddr, RadioMedium};
use airdnd_scenario::ScenarioConfig;
use airdnd_sim::{SimRng, SimTime};
use airdnd_worldgen::{CityParams, FamilyKind, FleetProfile};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// The G5 4×4 city (map seed 117) and `nodes` seeded uniform positions
/// over its obstacles' bounding box.
fn city_nodes(nodes: u64) -> (World, Vec<Vec2>) {
    let cfg = ScenarioConfig::default().seeded(117);
    let family = FamilyKind::City(CityParams::with_districts(4, 4));
    let world = family
        .instantiate(&cfg, &FleetProfile::default())
        .stage
        .world;
    let bounds = world.bounds().expect("a city has buildings");
    let mut rng = SimRng::seed_from(2);
    let positions = (0..nodes)
        .map(|_| {
            Vec2::new(
                bounds.min().x + rng.next_f64() * bounds.width(),
                bounds.min().y + rng.next_f64() * bounds.height(),
            )
        })
        .collect();
    (world, positions)
}

/// [`city_nodes`] registered on a medium: a broadcast here walks the
/// position grid and tests line of sight against city blocks, which the
/// 50-node line past four buildings does not.
fn city_medium(nodes: u64) -> RadioMedium {
    let (world, positions) = city_nodes(nodes);
    let mut medium = RadioMedium::v2v(&world, SimRng::seed_from(1));
    for (i, pos) in positions.into_iter().enumerate() {
        medium.set_position(NodeAddr::new(i as u64 + 1), pos);
    }
    medium
}

fn bench_channel(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel");

    let (channel, _) = airdnd_radio::profiles::dsrc();
    group.bench_function("per_at_200m", |b| {
        b.iter(|| black_box(channel.per_at(black_box(200.0), true, 1.5, 8 * 512)))
    });

    let mut medium = RadioMedium::v2v(&World::corner_buildings(12.0, 40.0), SimRng::seed_from(1));
    for i in 0..50u64 {
        medium.set_position(
            NodeAddr::new(i + 1),
            Vec2::new((i as f64) * 15.0 - 350.0, 0.0),
        );
    }
    let mut t = 0u64;
    group.bench_function("unicast_50_node_medium", |b| {
        b.iter(|| {
            t += 1;
            medium.unicast(
                SimTime::from_micros(t * 500),
                NodeAddr::new(1),
                NodeAddr::new(20),
                512,
            )
        })
    });

    group.bench_function("broadcast_50_node_medium", |b| {
        b.iter(|| {
            t += 1;
            medium.broadcast(SimTime::from_micros(t * 500), NodeAddr::new(25), 200)
        })
    });

    // Every node takes its turn as the sender.
    let nodes = 640;
    let mut city = city_medium(nodes);
    let mut t = 0u64;
    group.bench_function("broadcast_640_node_city", |b| {
        b.iter(|| {
            t += 1;
            let src = NodeAddr::new(t % nodes + 1);
            city.broadcast(SimTime::from_micros(t * 500), src, 200)
        })
    });

    // The city's obstacle index alone, queried between every pair of
    // those nodes within the medium's broadcast horizon, in turn.
    let (world, positions) = city_nodes(nodes);
    let index = ObstacleIndex::new(&world);
    let horizon = 2.0 * channel.nominal_range(true);
    let pairs: Vec<(Vec2, Vec2)> = positions
        .iter()
        .flat_map(|&a| positions.iter().map(move |&b| (a, b)))
        .filter(|&(a, b)| a != b && a.distance(b) <= horizon)
        .collect();
    let mut k = 0;
    group.bench_function("line_of_sight_640_node_city", |b| {
        b.iter(|| {
            k = (k + 1) % pairs.len();
            let (from, to) = pairs[k];
            index.line_of_sight(black_box(from), black_box(to))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_channel);
criterion_main!(benches);
