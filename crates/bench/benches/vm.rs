//! TaskVM microbenchmarks: verification and execution throughput.

use airdnd_task::library;
use airdnd_task::vm::{execute, verify, ExecLimits};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_vm(c: &mut Criterion) {
    let mut group = c.benchmark_group("vm");

    let fuse = library::grid_fuse(256);
    let inputs: Vec<i64> = (0..512).map(|i| (i % 3) as i64 - 1).collect();
    group.bench_function("execute_grid_fuse_256", |b| {
        b.iter(|| execute(black_box(&fuse), black_box(&inputs), ExecLimits::default()).unwrap())
    });

    let mm = library::matmul(8);
    let mm_inputs: Vec<i64> = (0..128).map(|i| i as i64 % 7).collect();
    group.bench_function("execute_matmul_8", |b| {
        b.iter(|| execute(black_box(&mm), black_box(&mm_inputs), ExecLimits::default()).unwrap())
    });

    // The kernel scenario offers run, at 150 rounds over the corner's
    // 80-cell grid. The city workloads also run it over 48-, 56- and
    // 289-cell grids; its cost is linear in the cell count.
    let burn = library::burn_and_echo(150);
    let grid: Vec<i64> = (0..80).map(|i| (i % 3) as i64 - 1).collect();
    group.bench_function("execute_burn_and_echo_150x80", |b| {
        b.iter(|| execute(black_box(&burn), black_box(&grid), ExecLimits::default()).unwrap())
    });

    let burn_program = burn.into_inner();
    group.bench_function("verify_burn_and_echo_150", |b| {
        b.iter(|| verify(black_box(burn_program.clone())).unwrap())
    });

    let program = library::matmul(8).into_inner();
    group.bench_function("verify_matmul_8", |b| {
        b.iter(|| verify(black_box(program.clone())).unwrap())
    });

    let wire = airdnd_task::wire::encode_program(&program);
    group.bench_function("wire_decode_matmul_8", |b| {
        b.iter(|| airdnd_task::wire::decode_program(black_box(&wire)).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_vm);
criterion_main!(benches);
