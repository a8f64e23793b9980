//! Trajectory-cache lookup benchmarks: the grouped value-hash index against
//! the reference linear scan, across the populations that matter.
//!
//! * **hit-heavy** — every entry shares one dependency shape and the query
//!   matches; the paper's well-predicted steady state.
//! * **miss-heavy** — one shape, nothing matches; the index answers with one
//!   value-hash probe per group where the scan byte-compares every entry.
//! * **junk-saturated** — 2k entries spread over a few hundred shapes, none
//!   matching: the chaotic-workload pathology (see the logistic-map
//!   benchmark) that made the old scan degrade quadratically. The junk
//!   filter is disabled here on purpose: the bench measures lookup cost at a
//!   given population, not the filter's ability to avoid the population.
//! * **singleton-shapes** — the ising shape: 1k entries over a 66 KB state,
//!   each with its own ≈ 400-position read set, so every group holds one
//!   entry, and each mismatches the query within its first five positions.
//!   A one-entry group rejects the query on a prefix compare instead of
//!   hashing all its positions.
//!
//! Each population runs at 16 shards (the production layout) and 1 shard
//! (no lock spreading, every group behind one lock), with the retained
//! `scan_best_match` timed alongside as the pre-index baseline. The
//! acceptance bar for the index was ≥5× over the scan on the junk-saturated
//! population.
//!
//! `accelerate_logistic_tiny_inline` times the end-to-end pathology the
//! index plus junk filter exist to fix: logistic-map Tiny, inline
//! speculation, where the cache fills with never-matching entries and
//! pre-index wall-clock was dominated by scan+match.

use asc_core::cache::{CacheEntry, TrajectoryCache};
use asc_core::config::AscConfig;
use asc_core::runtime::LascRuntime;
use asc_tvm::delta::SparseBytes;
use asc_tvm::state::StateVector;
use asc_workloads::registry::{build, Benchmark, Scale};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const RIP: u32 = 32;

/// State size of the singleton-shapes population: the ising workload's.
const ISING_STATE_BYTES: usize = 66_000;

fn state_with(bytes: &[(usize, u8)]) -> StateVector {
    let mut state = StateVector::new(4096).unwrap();
    for &(index, value) in bytes {
        state.set_byte(index, value);
    }
    state
}

fn entry(deps: Vec<(u32, u8)>, instructions: u64) -> CacheEntry {
    CacheEntry::new(
        RIP,
        SparseBytes::from_pairs(deps),
        SparseBytes::from_pairs(vec![(200, 1)]),
        instructions,
    )
}

/// 2k entries that all share one dependency shape; the query state matches
/// one of them.
fn hit_heavy(shards: usize) -> (TrajectoryCache, StateVector) {
    let cache = TrajectoryCache::with_layout(1 << 14, shards, 0);
    for i in 0..2000u32 {
        let value = (i % 251) as u8;
        let tag = (i / 251) as u8;
        cache.insert(entry(vec![(100, value), (101, tag), (4, 0)], 500));
    }
    // Matches the i == 0 entry; every other value hash misses.
    let state = state_with(&[(100, 0), (101, 0)]);
    assert!(cache.peek(RIP, &state).is_some(), "hit-heavy population must hit");
    (cache, state)
}

/// 2k entries sharing one shape, none matching the query.
fn miss_heavy(shards: usize) -> (TrajectoryCache, StateVector) {
    let cache = TrajectoryCache::with_layout(1 << 14, shards, 0);
    for i in 0..2000u32 {
        let value = (i % 251) as u8;
        let tag = (i / 251) as u8;
        cache.insert(entry(vec![(100, value), (101, tag), (4, 7)], 500));
    }
    // Byte 4 is 0 in the query, 7 in every entry: all miss.
    let state = state_with(&[(100, 0), (101, 0)]);
    assert!(cache.peek(RIP, &state).is_none(), "miss-heavy population must miss");
    (cache, state)
}

/// The chaotic pathology: 2k junk entries across 100 distinct dependency
/// shapes, none ever matching. Like real mispredicted-speculation read sets
/// (the logistic-map run), every entry *agrees* with the query on the
/// architectural header — the IP matches by construction and most registers
/// happen to agree too — and mismatches only in its per-superstep memory
/// dependencies, so the linear scan cannot early-exit: it byte-compares the
/// whole shared prefix of every entry, while the index answers each shape
/// with one value-hash probe.
fn junk_saturated(shards: usize) -> (TrajectoryCache, StateVector) {
    let cache = TrajectoryCache::with_layout(1 << 14, shards, 0);
    // 40-byte header prefix (positions 0..40, all zero — agreeing with the
    // query state), then two shape-specific memory positions whose values
    // never match the (all-zero) query.
    let header: Vec<(u32, u8)> = (0..40u32).map(|p| (p, 0)).collect();
    for i in 0..2000u32 {
        let shape = i % 100;
        let mut deps = header.clone();
        deps.push((500 + 2 * shape, (i % 250) as u8 + 1));
        deps.push((501 + 2 * shape, (i / 100) as u8));
        cache.insert(entry(deps, 500));
    }
    let state = state_with(&[]);
    assert!(cache.peek(RIP, &state).is_none(), "junk population must miss");
    (cache, state)
}

/// Pointer-chasing read sets: 1k entries, each with a distinct shape of
/// ≈ 400 positions spread over a 66 KB state. Every entry agrees with the
/// (all-zero) query on a four-byte header and disagrees at its first memory
/// position, so a compare stops after five positions while a value hash
/// reads all of them.
fn singleton_shapes(shards: usize) -> (TrajectoryCache, StateVector) {
    let cache = TrajectoryCache::with_layout(1 << 14, shards, 0);
    let span = ISING_STATE_BYTES as u32 - 64;
    for i in 0..1000u32 {
        let mut deps: Vec<(u32, u8)> = (0..4u32).map(|p| (p, 0)).collect();
        deps.extend((0..396u32).map(|k| (64 + (i * 61 + k * 163) % span, (k % 250) as u8 + 1)));
        cache.insert(entry(deps, 500));
    }
    let state = StateVector::new(ISING_STATE_BYTES).unwrap();
    assert!(cache.peek(RIP, &state).is_none(), "singleton-shapes population must miss");
    assert_eq!(cache.stats().groups, 1000, "every entry has its own shape");
    (cache, state)
}

/// A benchmark population: the cache to probe and the query state.
type Population = fn(usize) -> (TrajectoryCache, StateVector);

fn bench_lookup(c: &mut Criterion) {
    let populations: [(&str, Population); 4] = [
        ("hit_heavy", hit_heavy),
        ("miss_heavy", miss_heavy),
        ("junk_2k", junk_saturated),
        ("singleton_shapes_1k", singleton_shapes),
    ];
    let mut group = c.benchmark_group("cache_lookup");
    for (name, populate) in populations {
        for shards in [16usize, 1] {
            let (cache, state) = populate(shards);
            group.bench_function(format!("{name}_indexed_shards{shards}"), |b| {
                b.iter(|| cache.peek(black_box(RIP), black_box(&state)))
            });
            group.bench_function(format!("{name}_scan_shards{shards}"), |b| {
                b.iter(|| cache.scan_best_match(black_box(RIP), black_box(&state)))
            });
        }
    }
    group.finish();
}

fn bench_logistic_inline(c: &mut Criterion) {
    // The config_for(Scale::Tiny) harness configuration: rollout depth 32,
    // so a chaotic run attempts tens of thousands of junk inserts.
    let workload = build(Benchmark::LogisticMap, Scale::Tiny).unwrap();
    let config =
        AscConfig { explore_instructions: 6_000, min_superstep: 50, ..AscConfig::default() };
    let runtime = LascRuntime::new(config).unwrap();
    c.bench_function("accelerate_logistic_tiny_inline", |b| {
        b.iter(|| {
            let report = runtime.accelerate(black_box(&workload.program)).unwrap();
            assert!(workload.verify(&report.final_state));
            report.cache_stats.queries
        })
    });
}

criterion_group!(
    name = cache;
    config = Criterion::default().sample_size(10);
    targets = bench_lookup, bench_logistic_inline
);
criterion_main!(cache);
