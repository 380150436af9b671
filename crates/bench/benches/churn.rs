//! Fleet-churn benchmarks: the per-event cost of admitting and retiring
//! vehicles in the scenario fleet.
//!
//! `Fleet::remove` tombstones the slot instead of shifting the vehicle
//! vector, and a count-triggered compaction (dead ≥ 32 and dead ≥ half
//! the slots) reclaims tombstones in one pass, so the steady-state churn
//! cost must be flat across fleet sizes: the `churn/spawn_despawn`
//! numbers for 1k, 4k and 16k live vehicles should agree to within noise,
//! where a shifting removal grows linearly.

use airdnd_core::OrchestratorConfig;
use airdnd_mesh::MeshConfig;
use airdnd_scenario::{Fleet, FleetLayout, ScenarioWorld};
use airdnd_sim::SimRng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_churn(c: &mut Criterion) {
    let world = ScenarioWorld::build(250.0, 13.9, 12.0, 40.0);
    let orch = OrchestratorConfig::default();
    let mesh = MeshConfig::default();
    let mut group = c.benchmark_group("churn");
    for n in [1_000usize, 4_000, 16_000] {
        // Steady state: N live vehicles, one arrival + one departure per
        // step, the departure being the oldest eligible vehicle as in the
        // scenario lifecycle. Amortized per-step cost must not scale with N.
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("spawn_despawn", n), &n, |b, &n| {
            let mut rng = SimRng::seed_from(n as u64);
            let mut fleet = Fleet::spawn(
                &world,
                n,
                (1_000_000, 1_000_000),
                0.0,
                orch,
                mesh,
                &FleetLayout::default(),
                &mut rng,
            );
            let mut arrivals = 0u64;
            b.iter(|| {
                fleet.push_mobile(
                    &world,
                    (arrivals % 4) as usize,
                    1_000_000,
                    orch,
                    mesh,
                    rng.fork(arrivals),
                );
                arrivals += 1;
                let victim = fleet.despawn_candidate().expect("fleet is never empty");
                fleet.remove(victim)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_churn);
criterion_main!(benches);
