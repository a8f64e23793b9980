//! §5.3 micro-benchmarks: simulation rate with and without dependency
//! tracking, cache lookup latency, predictor update cost and rollout latency.

use asc_bench::config_for;
use asc_core::cache::{CacheEntry, TrajectoryCache};
use asc_core::config::AscConfig;
use asc_core::predictor_bank::PredictorBank;
use asc_core::speculator::{execute_superstep_with, SpeculationScratch};
use asc_tvm::delta::SparseBytes;
use asc_tvm::deps::DepVector;
use asc_tvm::exec::{transition, transition_cached, transition_with, DecodedCache, NoDeps};
use asc_tvm::machine::Machine;
use asc_tvm::state::StateVector;
use asc_tvm::tier::{run_segment, BlockCache, SegmentExit};
use asc_tvm::TierConfig;
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
    // The reference entry point with the paper's `g` vector attached,
    // against `baseline_1k_instructions`. §5.3 measures 2.6 MIPS untracked
    // vs 2.3 MIPS with dependency tracking, ≈ 1.13×; the runtime's own
    // tracked ÷ untracked ratio is `superstep/<workload>_{tracked,untracked}`
    // below.
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

/// §5.3's price of dependency tracking on the runtime's real paths, per
/// workload: the same supersteps — from the first 64 recognized-IP
/// occurrences (all 24 of mm2's) — executed by `execute_superstep_with` on
/// a reused scratch (`_tracked`: what workers, inline speculation,
/// recognition and memoization run, entry capture included) and by
/// `run_segment` with `NoDeps` on a reused, identically reset and seeded
/// `BlockCache` (`_untracked`), with the same stop rule. Their ratio is the
/// tracking overhead; the paper's is ≈ 1.13×.
///
/// The workloads run at the benchmark's scales (Medium; mm2 Small), where a
/// superstep is 500–20 000 instructions, and at Tiny (`<w>_tiny_*`), where it
/// is 60–250: there the ratio measures the per-job fixed cost — the start
/// state's copy, what the scratch clears between jobs, the capture walks and
/// the entry's allocations and checksum — more than tracking. Both sides
/// copy each start into a reused buffer.
fn bench_superstep(c: &mut Criterion) {
    let mut group = c.benchmark_group("superstep");
    for (name, benchmark, scale) in [
        ("collatz", Benchmark::Collatz, Scale::Medium),
        ("logistic", Benchmark::LogisticMap, Scale::Medium),
        ("ising", Benchmark::Ising, Scale::Medium),
        ("mm2", Benchmark::Mm2, Scale::Small),
        ("collatz_tiny", Benchmark::Collatz, Scale::Tiny),
        ("logistic_tiny", Benchmark::LogisticMap, Scale::Tiny),
        ("ising_tiny", Benchmark::Ising, Scale::Tiny),
        ("mm2_tiny", Benchmark::Mm2, Scale::Tiny),
    ] {
        let workload = build(benchmark, scale).unwrap();
        let config = config_for(scale);
        let initial = workload.program.initial_state().unwrap();
        let (rip, budget) =
            (asc_core::recognizer::recognize(&initial, &config).unwrap().rip, config.max_superstep);
        // From the program's start, so the occurrences recognition executed
        // count too.
        let mut machine = Machine::from_state(initial);
        let mut starts = Vec::new();
        loop {
            machine.run_until_ip(rip.ip, budget).unwrap();
            if machine.is_halted() || starts.len() == 64 {
                break;
            }
            starts.push(machine.state().clone());
        }
        assert!(starts.len() >= 16, "{name}: {} occurrences", starts.len());

        let mut scratch = SpeculationScratch::new();
        let tracked = |scratch: &mut SpeculationScratch, start: &StateVector| {
            let result = execute_superstep_with(start, rip.ip, rip.stride, budget, scratch);
            result.unwrap().completed().unwrap().instructions
        };
        let mut untracked_scratch =
            (starts[0].clone(), BlockCache::new(&starts[0], TierConfig::default()));
        let untracked = |(state, icache): &mut (StateVector, BlockCache), start: &StateVector| {
            state.clone_from(start);
            icache.reset_for(state);
            icache.seed_hot(rip.ip);
            let (mut instructions, mut occurrences) = (0u64, 0usize);
            while instructions < budget {
                let (retired, exit) =
                    run_segment(state, &mut NoDeps, icache, rip.ip, budget - instructions);
                instructions += retired;
                match exit {
                    SegmentExit::StopIp if occurrences + 1 < rip.stride.max(1) => occurrences += 1,
                    SegmentExit::Fault(error) => panic!("{name}: {error}"),
                    _ => break,
                }
            }
            instructions
        };
        // Both sides retire the same instructions from every start state.
        for start in &starts {
            let untracked_instructions = untracked(&mut untracked_scratch, start);
            assert_eq!(tracked(&mut scratch, start), untracked_instructions, "{name}");
        }
        group.bench_function(format!("{name}_tracked"), |b| {
            b.iter(|| starts.iter().map(|s| tracked(&mut scratch, black_box(s))).sum::<u64>())
        });
        group.bench_function(format!("{name}_untracked"), |b| {
            b.iter(|| {
                starts.iter().map(|s| untracked(&mut untracked_scratch, black_box(s))).sum::<u64>()
            })
        });
    }
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
// The superstep ids are gated against `bench/baseline.json` on their
// minima, so they take the tier benches' 20 samples.
criterion_group!(
    name = superstep;
    config = Criterion::default().sample_size(20);
    targets = bench_superstep
);
criterion_main!(micro, superstep);
