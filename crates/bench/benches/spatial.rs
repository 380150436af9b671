//! Spatial-index benchmarks: the per-beacon neighbour-query cost of the
//! `SpatialGrid` the radio medium and mesh upkeep query.

use airdnd_engine::SpatialGrid;
use airdnd_geo::Vec2;
use airdnd_sim::SimRng;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn points(n: usize) -> Vec<Vec2> {
    let mut rng = SimRng::seed_from(5);
    (0..n)
        .map(|_| {
            Vec2::new(
                rng.next_f64() * 2_000.0 - 1_000.0,
                rng.next_f64() * 2_000.0 - 1_000.0,
            )
        })
        .collect()
}

fn build(pts: &[Vec2]) -> SpatialGrid<u64> {
    let mut grid = SpatialGrid::new(300.0);
    for (i, &p) in pts.iter().enumerate() {
        grid.insert(i as u64, p);
    }
    grid
}

fn bench_spatial(c: &mut Criterion) {
    let mut group = c.benchmark_group("spatial");
    for n in [100usize, 1_000, 10_000] {
        let pts = points(n);
        group.bench_with_input(BenchmarkId::new("rebuild", n), &pts, |b, pts| {
            b.iter(|| build(pts))
        });
        let grid = build(&pts);
        group.bench_with_input(BenchmarkId::new("query_300m", n), &grid, |b, grid| {
            b.iter(|| grid.query_within(black_box(Vec2::ZERO), 300.0))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spatial);
criterion_main!(benches);
