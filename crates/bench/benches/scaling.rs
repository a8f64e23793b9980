//! End-to-end scaling ablations: the cluster model replayed over a measured
//! trace (cheap once the trace exists), plus the ablation comparisons called
//! out in DESIGN.md (dependency-masked vs full-state matching is exercised in
//! the integration tests; here we time the replay itself and the accelerated
//! in-process runtime).

use asc_bench::{config_for, small_collatz_config};
use asc_core::cluster::{simulate, PlatformProfile, ScalingMode};
use asc_core::runtime::LascRuntime;
use asc_workloads::registry::{build, Benchmark, Scale};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_cluster_replay(c: &mut Criterion) {
    let workload = build(Benchmark::Collatz, Scale::Tiny).unwrap();
    let runtime = LascRuntime::new(config_for(Scale::Tiny)).unwrap();
    let report = runtime.measure(&workload.program).unwrap();
    let profile = PlatformProfile::blue_gene_p();
    let mut group = c.benchmark_group("cluster_replay");
    for cores in [32usize, 1024, 16_384] {
        group.bench_function(format!("cores_{cores}"), |b| {
            b.iter(|| simulate(black_box(&report), &profile, ScalingMode::Lasc, cores))
        });
    }
    group.finish();
}

fn bench_accelerated_runtime(c: &mut Criterion) {
    let workload = build(Benchmark::Collatz, Scale::Tiny).unwrap();
    let runtime = LascRuntime::new(config_for(Scale::Tiny)).unwrap();
    c.bench_function("accelerate_collatz_tiny", |b| {
        b.iter(|| {
            let report = runtime.accelerate(black_box(&workload.program)).unwrap();
            assert!(workload.verify(&report.final_state));
            report.fast_forwarded_instructions
        })
    });
}

fn bench_worker_pool_wall_clock(c: &mut Criterion) {
    // Inline (workers = 0) vs a real worker pool with miss-driven dispatch
    // (the planner explicitly disabled). Results are asserted identical to
    // the pure-Rust reference either way.
    let workload = build(Benchmark::Collatz, Scale::Small).unwrap();
    for workers in [0usize, 2, 4] {
        let runtime = LascRuntime::new(small_collatz_config(workers, false)).unwrap();
        c.bench_function(format!("accelerate_collatz_small_workers_{workers}"), |b| {
            b.iter(|| {
                let report = runtime.accelerate(black_box(&workload.program)).unwrap();
                assert!(workload.verify(&report.final_state));
                report.fast_forwarded_instructions
            })
        });
    }
}

fn bench_planner_wall_clock(c: &mut Criterion) {
    // The continuous-speculation planner on the same workload and worker
    // counts as the miss-driven anchor above. The planner's higher hit rate
    // shows up as fast-forwarded instructions; wall-clock parity or better
    // is the bar on core-starved machines, a win on real multicore.
    let workload = build(Benchmark::Collatz, Scale::Small).unwrap();
    for workers in [2usize, 4] {
        let runtime = LascRuntime::new(small_collatz_config(workers, true)).unwrap();
        c.bench_function(format!("accelerate_collatz_small_planner_{workers}"), |b| {
            b.iter(|| {
                let report = runtime.accelerate(black_box(&workload.program)).unwrap();
                assert!(workload.verify(&report.final_state));
                report.fast_forwarded_instructions
            })
        });
    }
}

criterion_group!(
    name = scaling;
    config = Criterion::default().sample_size(10);
    targets = bench_cluster_replay, bench_accelerated_runtime, bench_worker_pool_wall_clock,
        bench_planner_wall_clock
);
criterion_main!(scaling);
