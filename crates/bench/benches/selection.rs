//! RQ1 node-selection scoring throughput at increasing mesh sizes.

use airdnd_core::{score_candidates, OrchestratorConfig};
use airdnd_data::{DataCatalog, DataQuery, DataType, QualityDescriptor};
use airdnd_geo::Vec2;
use airdnd_mesh::{MemberDescriptor, MeshDescriptor, NodeAdvert};
use airdnd_radio::NodeAddr;
use airdnd_sim::{SimDuration, SimRng, SimTime};
use airdnd_task::{Program, ResourceRequirements, TaskId, TaskSpec};
use airdnd_trust::ReputationTable;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn mesh_of(n: usize) -> MeshDescriptor {
    let now = SimTime::from_secs(1);
    let mut rng = SimRng::seed_from(3);
    let members = (0..n)
        .map(|i| {
            let mut catalog = DataCatalog::new(4);
            catalog.insert(
                DataType::OccupancyGrid,
                Vec::new(),
                QualityDescriptor::basic(now, 0.9, 1.0),
            );
            MemberDescriptor {
                addr: NodeAddr::new(i as u64 + 10),
                pos: Vec2::new(
                    rng.next_f64() * 400.0 - 200.0,
                    rng.next_f64() * 400.0 - 200.0,
                ),
                velocity: Vec2::new(rng.next_f64() * 20.0 - 10.0, 0.0),
                link_quality: 0.5 + rng.next_f64() * 0.5,
                advert: NodeAdvert {
                    gas_rate: 1_000_000,
                    gas_backlog: (rng.next_f64() * 1_000_000.0) as u64,
                    mem_free_bytes: 1 << 30,
                    accepting: true,
                    catalog: catalog.summarize(),
                },
                info_age: SimDuration::from_millis(100),
            }
        })
        .collect();
    MeshDescriptor {
        generated_at: now,
        local: NodeAddr::new(1),
        local_pos: Vec2::ZERO,
        members,
        churn_per_sec: 0.5,
    }
}

fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection");
    let task = TaskSpec::new(
        TaskId::new(1),
        "t",
        Program::new(vec![airdnd_task::Instr::Halt], 0),
    )
    .with_input(DataQuery::of_type(DataType::OccupancyGrid))
    .with_requirements(ResourceRequirements {
        gas: 1_000_000,
        ..Default::default()
    });
    let trust = ReputationTable::default();
    let cfg = OrchestratorConfig::default();
    for n in [10usize, 100, 1000] {
        let mesh = mesh_of(n);
        group.bench_with_input(BenchmarkId::new("score_candidates", n), &mesh, |b, mesh| {
            b.iter(|| {
                score_candidates(
                    black_box(&task),
                    black_box(mesh),
                    Vec2::ZERO,
                    &trust,
                    &cfg,
                    SimTime::from_secs(1),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
