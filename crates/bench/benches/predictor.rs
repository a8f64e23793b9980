//! Predictor-bank micro-benchmarks: µs/occurrence for training (`observe`)
//! and maximum-likelihood rollout, at the two
//! excitation widths the paper's benchmarks actually produce (~128 and ~224
//! tracked bits, §4.4) plus the 8 160-bit width a bank that was never told a
//! read set — the runtime's — reaches at the `max_excited_bits` cap on `2mm`
//! (255 tracked words — where the logistic weights' layout and laziness
//! decide both the time and the memory). These are the numbers behind the
//! ROADMAP "spend the ledger" item: the planner's sustainable
//! occurrence-ingest rate is bounded by the per-occurrence training cost
//! measured here.
//!
//! `predictor_occurrence/logistic_map_chaotic` times the runtime's per-miss
//! pair, `observe` then a depth-1 `rollout`, which share one forward pass.
//!
//! `recognize/mm2_small` is the tripwire for the banks' other user: one whole
//! `recognize` call on the registry's `2mm` at the benchmark's scale and
//! window. Its twelve throw-away banks are read-targeted (32–160 bits); if
//! they ever model write-once output cells again this id grows twentyfold.
//! `recognize/collatz_medium` is the same call on collatz at its benchmark
//! scale, where phase 1's per-instruction profile is most of the time.
//!
//! The occurrence trace is synthetic but shaped like the real thing: a fixed
//! set of 32-bit words mutates every occurrence with the four patterns the
//! predictor complement targets — loop counters (linear), bump-allocated
//! pointers (linear with stride), chaotic values (nothing learns these;
//! they exercise the mistake-mask path) and toggling flag words (logistic).
//!
//! Run with `CRITERION_JSON=BENCH_predictor.json cargo bench -p asc-bench
//! --bench predictor` to produce the report the CI bench gate compares
//! against `bench/baseline.json`.

use asc_core::config::AscConfig;
use asc_core::predictor_bank::PredictorBank;
use asc_core::recognizer::recognize;
use asc_tvm::machine::Machine;
use asc_tvm::state::StateVector;
use asc_workloads::registry::{build, Benchmark, Scale};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Occurrences per recorded trace (and per timed batch for the observe
/// benches, so ns/iteration ÷ `TRACE_LEN` = ns/occurrence).
const TRACE_LEN: usize = 64;

/// A deterministic word-mixing hash (splitmix-style) for the chaotic words.
fn mix(seed: u64) -> u32 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u32
}

/// Builds a trace of occurrence states in which exactly `words` aligned
/// 32-bit memory words change between consecutive occurrences, so the
/// excitation map freezes to `32 * words` tracked bits.
fn trace(words: usize, occurrences: usize) -> Vec<StateVector> {
    let mut states = Vec::with_capacity(occurrences);
    let base = StateVector::new(8 * 1024).expect("bench state allocates");
    for i in 0..occurrences {
        let mut state = base.clone();
        for w in 0..words {
            let value = match w % 4 {
                0 => (i as u32).wrapping_mul(w as u32 + 3),
                1 => 0x1_0000u32.wrapping_add((i * 132 * (w + 1)) as u32),
                2 => mix((i as u64) << 32 | w as u64),
                _ => {
                    if i % 2 == 0 {
                        0x0F0F_0F0F
                    } else {
                        0xF0F0_F0F0
                    }
                }
            };
            state.store_word((w * 4) as u32, value).expect("bench store in range");
        }
        states.push(state);
    }
    states
}

/// Warms a bank until its excitation map is frozen and the ensemble has
/// trained over the whole trace once.
fn warmed_bank(states: &[StateVector], config: &AscConfig) -> PredictorBank {
    let mut bank = PredictorBank::new(0, config);
    for state in states {
        bank.observe(state);
    }
    assert!(bank.is_ready(), "bench bank must be ready after the trace");
    bank
}

fn bench_observe(c: &mut Criterion) {
    let config = AscConfig::for_tests();
    for words in [4usize, 7] {
        let bits = words * 32;
        let states = trace(words, TRACE_LEN);
        let mut bank = warmed_bank(&states, &config);
        assert_eq!(bank.excited_bits(), bits, "trace must excite exactly {bits} bits");
        // One iteration = TRACE_LEN occurrences (excitation diff + drift
        // scan + ensemble training).
        c.bench_function(format!("predictor_observe/full_{bits}"), |b| {
            b.iter(|| {
                bank.break_stream();
                for state in &states {
                    bank.observe(black_box(state));
                }
                bank.observations()
            })
        });
    }
}

fn bench_observe_wide(c: &mut Criterion) {
    // The capped bank: 255 tracked words = 8 160 bits, the width
    // `max_excited_bits` truncation produces on 2mm for a bank that models
    // every changed bit (the runtime's). One iteration is a short
    // trace through the full path — at this width a single occurrence walks
    // megabytes of logistic weights, so 16 occurrences is plenty to time.
    const WIDE_WORDS: usize = 255;
    const WIDE_TRACE_LEN: usize = 16;
    let config = AscConfig { max_excited_bits: WIDE_WORDS * 32, ..AscConfig::for_tests() };
    let states = trace(WIDE_WORDS, WIDE_TRACE_LEN);
    let mut bank = warmed_bank(&states, &config);
    assert_eq!(bank.excited_bits(), WIDE_WORDS * 32);
    c.bench_function(format!("predictor_observe/full_{}", WIDE_WORDS * 32), |b| {
        b.iter(|| {
            bank.break_stream();
            for state in &states {
                bank.observe(black_box(state));
            }
            bank.observations()
        })
    });
}

/// Real occurrence states from the logistic-map kernel's outer-loop head:
/// the chaotic map value and checksum words give a *high-entropy*
/// excitation pattern where every predictor is wrong on most bits — the
/// worst case for the mistake-mask training path (maximal XOR masks, every
/// multiplicative update fires).
fn logistic_map_states() -> Vec<StateVector> {
    let workload = build(Benchmark::LogisticMap, Scale::Tiny).unwrap();
    let rip = workload.program.symbol("outer").expect("kernel has an outer loop head");
    let mut machine = Machine::load(&workload.program).unwrap();
    let mut states = Vec::with_capacity(TRACE_LEN);
    while states.len() < TRACE_LEN {
        machine.run_until_ip(rip, 1_000_000).unwrap();
        assert!(!machine.is_halted(), "trace ended before {TRACE_LEN} occurrences");
        states.push(machine.state().clone());
    }
    states
}

fn bench_observe_logistic_map(c: &mut Criterion) {
    let states = logistic_map_states();
    let config = AscConfig::for_tests();
    let mut bank = warmed_bank(&states, &config);
    c.bench_function("predictor_observe/logistic_map_chaotic", |b| {
        b.iter(|| {
            bank.break_stream();
            for state in &states {
                bank.observe(black_box(state));
            }
            bank.observations()
        })
    });
}

fn bench_occurrence_logistic_map(c: &mut Criterion) {
    // The runtime's per-miss pair: train on the occurrence, then roll out
    // one superstep from it. The two share the forward pass `observe` runs
    // ahead, which neither half's own id can show.
    let states = logistic_map_states();
    let config = AscConfig::for_tests();
    let mut bank = warmed_bank(&states, &config);
    c.bench_function("predictor_occurrence/logistic_map_chaotic", |b| {
        b.iter(|| {
            bank.break_stream();
            let mut predicted = 0;
            for state in &states {
                bank.observe(black_box(state));
                predicted += bank.rollout(state, 1).len();
            }
            predicted
        })
    });
}

fn bench_recognize(c: &mut Criterion) {
    // The benchmark's windows: mm2 at registry `Small` (80 000 / 200),
    // collatz at `Medium` (250 000 / 500), where phase 1's profile is most
    // of the call.
    for (benchmark, scale, id) in [
        (Benchmark::Mm2, Scale::Small, "recognize/mm2_small"),
        (Benchmark::Collatz, Scale::Medium, "recognize/collatz_medium"),
    ] {
        let workload = build(benchmark, scale).unwrap();
        let initial = workload.program.initial_state().unwrap();
        let config = asc_bench::config_for(scale);
        c.bench_function(id, |b| {
            b.iter(|| {
                let outcome = recognize(black_box(&initial), &config).expect("workload has a loop");
                outcome.instructions_spent
            })
        });
    }
}

fn bench_rollout(c: &mut Criterion) {
    let config = AscConfig::for_tests();
    let mut group = c.benchmark_group("predictor_rollout");
    for words in [4usize, 7] {
        let bits = words * 32;
        let states = trace(words, TRACE_LEN);
        let bank = warmed_bank(&states, &config);
        let anchor = states.last().expect("trace is non-empty").clone();
        // One iteration = an 8-deep maximum-likelihood rollout, the planner's
        // per-replan cost.
        group.bench_function(format!("depth8_{bits}"), |b| {
            b.iter(|| bank.rollout(black_box(&anchor), 8).len())
        });
    }
    group.finish();
}

criterion_group!(
    name = predictor;
    config = Criterion::default().sample_size(10);
    targets = bench_observe, bench_observe_wide, bench_observe_logistic_map,
        bench_occurrence_logistic_map, bench_rollout, bench_recognize
);
criterion_main!(predictor);
