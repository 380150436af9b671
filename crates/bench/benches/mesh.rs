//! Mesh state-machine microbenchmarks: beacon ingestion and descriptors.

use airdnd_geo::Vec2;
use airdnd_mesh::{Beacon, MeshConfig, MeshDescriptor, MeshMsg, MeshNode, NodeAdvert};
use airdnd_radio::NodeAddr;
use airdnd_sim::SimTime;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::rc::Rc;

fn beacon(src: u64, seq: u64) -> Rc<Beacon> {
    Rc::new(Beacon {
        src: NodeAddr::new(src),
        seq,
        pos: Vec2::new(src as f64 * 10.0, 0.0),
        velocity: Vec2::new(10.0, 0.0),
        advert: NodeAdvert::closed(),
        members: Vec::new(),
    })
}

fn populated_node(peers: u64) -> MeshNode {
    let mut node = MeshNode::new(
        NodeAddr::new(1),
        MeshConfig::default(),
        NodeAdvert::closed(),
    );
    for p in 2..=peers + 1 {
        for seq in 0..3 {
            node.on_message(
                SimTime::from_millis(seq * 100),
                NodeAddr::new(p),
                MeshMsg::Beacon(beacon(p, seq)),
            );
        }
    }
    node
}

fn bench_mesh(c: &mut Criterion) {
    let mut group = c.benchmark_group("mesh");

    let mut node = populated_node(50);
    let mut seq = 10u64;
    group.bench_function("beacon_ingest_50_neighbors", |b| {
        b.iter(|| {
            seq += 1;
            node.on_message(
                SimTime::from_millis(seq * 100),
                NodeAddr::new(7),
                MeshMsg::Beacon(black_box(beacon(7, seq))),
            )
        })
    });

    let node = populated_node(50);
    group.bench_function("descriptor_capture_50_members", |b| {
        b.iter(|| MeshDescriptor::capture(black_box(&node), SimTime::from_secs(1)))
    });

    let mut timer_node = populated_node(50);
    let mut t = 0u64;
    group.bench_function("timer_tick_50_members", |b| {
        b.iter(|| {
            t += 1;
            timer_node.on_timer(SimTime::from_millis(1_000 + t * 100))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_mesh);
criterion_main!(benches);
