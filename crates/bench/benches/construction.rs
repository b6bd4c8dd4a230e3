//! Criterion benches: construction-time scaling of every spanner
//! algorithm on the standard workload, plus the substrate primitives
//! (BFS, generator) they are built from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use spanner_baselines::{additive2, baswana_sen, bfs_skeleton, greedy};
use spanner_graph::{generators, traversal, NodeId};
use spanner_netsim::{Executor, NullSink};
use ultrasparse::fibonacci::{self, FibonacciParams};
use ultrasparse::skeleton::{self, SkeletonParams};

fn workload(n: usize) -> spanner_graph::Graph {
    generators::connected_gnm(n, 8 * n, 42)
}

fn bench_substrate(c: &mut Criterion) {
    let g = workload(10_000);
    c.bench_function("bfs_10k", |b| {
        b.iter(|| traversal::bfs_distances(&g, NodeId(0)))
    });
    c.bench_function("gnm_generate_10k", |b| {
        b.iter(|| generators::erdos_renyi_gnm(10_000, 80_000, 7))
    });
}

fn bench_skeleton(c: &mut Criterion) {
    let mut group = c.benchmark_group("skeleton_sequential");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(4));
    for n in [2_000usize, 8_000, 32_000] {
        let g = workload(n);
        let params = SkeletonParams::default();
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| skeleton::build_sequential(g, &params, 3))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("skeleton_distributed");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(4));
    for n in [1_000usize, 4_000] {
        let csr = workload(n).csr().clone();
        let params = SkeletonParams::default();
        group.bench_with_input(BenchmarkId::from_parameter(n), &csr, |b, csr| {
            b.iter(|| skeleton::distributed::build_distributed_csr(csr, &params, 3).unwrap())
        });
    }
    group.finish();
}

fn bench_fibonacci(c: &mut Criterion) {
    let mut group = c.benchmark_group("fibonacci_sequential");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(4));
    for n in [2_000usize, 8_000] {
        let g = workload(n);
        let params = FibonacciParams::new(n, 2, 0.5, 0).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| fibonacci::build_sequential(g, &params, 3))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("fibonacci_distributed");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(4));
    for n in [1_000usize, 4_000] {
        let csr = workload(n).csr().clone();
        let params = FibonacciParams::new(n, 2, 0.5, 0).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &csr, |b, csr| {
            b.iter(|| {
                fibonacci::distributed::build_distributed(
                    csr,
                    &params,
                    3,
                    &Executor::Sequential,
                    None,
                    &mut NullSink,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let g = workload(8_000);
    let mut heavy = c.benchmark_group("baselines");
    heavy.sample_size(10);
    heavy.measurement_time(std::time::Duration::from_secs(4));
    let c = &mut heavy;
    let csr = g.csr();
    let bs = baswana_sen::BaswanaSenParams::new(3).unwrap();
    c.bench_function("baswana_sen_seq_8k", |b| {
        b.iter(|| baswana_sen::build_sequential(&g, &bs, 3))
    });
    c.bench_function("baswana_sen_dist_8k", |b| {
        b.iter(|| baswana_sen::build_distributed_csr(csr, &bs, 3).unwrap())
    });
    c.bench_function("bfs_forest_8k", |b| b.iter(|| bfs_skeleton::build(&g)));
    c.bench_function("additive2_8k", |b| b.iter(|| additive2::build(&g, 3)));
    let small = workload(1_000);
    c.bench_function("greedy_k3_1k", |b| b.iter(|| greedy::build(&small, 3)));
    heavy.finish();
}

criterion_group!(
    benches,
    bench_substrate,
    bench_skeleton,
    bench_fibonacci,
    bench_baselines
);
criterion_main!(benches);
