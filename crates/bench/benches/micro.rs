//! §5.3 micro-benchmarks: simulation rate with and without dependency
//! tracking, cache lookup latency, predictor update cost and rollout latency.

use asc_core::cache::{CacheEntry, TrajectoryCache};
use asc_core::config::AscConfig;
use asc_core::predictor_bank::PredictorBank;
use asc_tvm::delta::SparseBytes;
use asc_tvm::deps::DepVector;
use asc_tvm::exec::{transition, transition_cached, transition_with, DecodedCache, NoDeps};
use asc_tvm::machine::Machine;
use asc_workloads::registry::{build, Benchmark, Scale};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_transition(c: &mut Criterion) {
    let workload = build(Benchmark::Collatz, Scale::Tiny).unwrap();
    let initial = workload.program.initial_state().unwrap();

    // Sanity: the reference dispatch and the main thread's hot path retire
    // identical trajectories, so the timing comparison is apples-to-apples.
    {
        let mut a = initial.clone();
        let mut b = initial.clone();
        let mut icache = DecodedCache::new(&b);
        for _ in 0..10_000 {
            let ra = transition(&mut a, None).unwrap();
            let rb = transition_cached(&mut b, &mut NoDeps, &mut icache).unwrap();
            assert_eq!(ra, rb);
            if ra == asc_tvm::exec::StepOutcome::Halted {
                break;
            }
        }
        assert_eq!(a, b);
    }

    let mut group = c.benchmark_group("transition");
    // The reference entry point: one Option<&mut DepVector> dispatch and a
    // fetch+decode of 8 raw bytes per retired instruction.
    group.bench_function("baseline_1k_instructions", |b| {
        b.iter(|| {
            let mut state = initial.clone();
            for _ in 0..1000 {
                if transition(black_box(&mut state), None).unwrap()
                    == asc_tvm::exec::StepOutcome::Halted
                {
                    break;
                }
            }
            state
        })
    });
    // Monomorphized no-deps sink, still decoding every fetch.
    group.bench_function("nodeps_monomorphized_1k_instructions", |b| {
        b.iter(|| {
            let mut state = initial.clone();
            for _ in 0..1000 {
                if transition_with(black_box(&mut state), &mut NoDeps).unwrap()
                    == asc_tvm::exec::StepOutcome::Halted
                {
                    break;
                }
            }
            state
        })
    });
    // The main thread's actual hot path: no-deps sink + decoded-instruction
    // cache (must be ≥1.5× the baseline dispatch above).
    group.bench_function("nodeps_decoded_cache_1k_instructions", |b| {
        b.iter(|| {
            let mut state = initial.clone();
            let mut icache = DecodedCache::new(&state);
            for _ in 0..1000 {
                if transition_cached(black_box(&mut state), &mut NoDeps, &mut icache).unwrap()
                    == asc_tvm::exec::StepOutcome::Halted
                {
                    break;
                }
            }
            state
        })
    });
    // The reference entry point with the paper's `g` vector attached. Against
    // `baseline_1k_instructions` this is §5.3's simulation-rate comparison:
    // the paper measures 2.6 MIPS untracked vs 2.3 MIPS with dependency
    // tracking, ≈ 1.13×.
    group.bench_function("dependency_tracking_1k_instructions", |b| {
        b.iter(|| {
            let mut state = initial.clone();
            let mut deps = DepVector::new(state.len_bytes());
            for _ in 0..1000 {
                if transition(black_box(&mut state), Some(&mut deps)).unwrap()
                    == asc_tvm::exec::StepOutcome::Halted
                {
                    break;
                }
            }
            deps.touched()
        })
    });
    group.finish();
}

fn bench_cache_lookup(c: &mut Criterion) {
    let cache = TrajectoryCache::new(1 << 14);
    let workload = build(Benchmark::Collatz, Scale::Tiny).unwrap();
    let state = workload.program.initial_state().unwrap();
    for i in 0..1000u32 {
        cache.insert(CacheEntry::new(
            32,
            SparseBytes::from_pairs(vec![(100 + i, (i % 251) as u8), (4, 0)]),
            SparseBytes::from_pairs(vec![(200, 1)]),
            500,
        ));
    }
    c.bench_function("cache_lookup_1000_entries", |b| {
        b.iter(|| cache.peek(black_box(32), black_box(&state)))
    });
}

fn bench_predictor_update_and_rollout(c: &mut Criterion) {
    // Collect occurrence states from the Collatz outer loop and time the
    // predictor bank's update and rollout paths.
    let workload = build(Benchmark::Collatz, Scale::Tiny).unwrap();
    let config = AscConfig::for_tests();
    let mut machine = Machine::load(&workload.program).unwrap();
    machine.run(30_000).unwrap();
    let outcome =
        asc_core::recognizer::recognize(&workload.program.initial_state().unwrap(), &config)
            .unwrap();
    let rip = outcome.rip;
    let mut machine = Machine::from_state(outcome.resume_state.clone());
    let mut states = Vec::new();
    while states.len() < 64 && !machine.is_halted() {
        machine.run_until_ip(rip.ip, 1_000_000).unwrap();
        states.push(machine.state().clone());
    }
    let mut bank = PredictorBank::new(rip.ip, &config);
    for state in &states {
        bank.observe(state);
    }
    let last = states.last().unwrap().clone();
    c.bench_function("predictor_bank_observe", |b| {
        b.iter(|| {
            let mut fresh = PredictorBank::new(rip.ip, &config);
            for state in states.iter().take(16) {
                fresh.observe(black_box(state));
            }
            fresh.excited_bits()
        })
    });
    let mut group = c.benchmark_group("rollout_latency");
    for depth in [1usize, 4, 16, 64] {
        group.bench_function(format!("depth_{depth}"), |b| {
            b.iter(|| bank.rollout(black_box(&last), depth).len())
        });
    }
    group.finish();
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(10);
    targets = bench_transition, bench_cache_lookup, bench_predictor_update_and_rollout
);
criterion_main!(micro);
