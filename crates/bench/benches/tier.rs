//! Tier-up dispatch micro-benchmarks: the tier-0 monomorphized
//! `transition_cached` hot path vs tier-1 block-threaded dispatch of
//! compiled, fused micro-op blocks — on the no-deps counting loop, on a
//! fused-chain-heavy kernel, and on a branchy kernel of short blocks that
//! jump to one another (collatz's inner loop).
//!
//! The acceptance bars (minimum over samples): `block_threaded_1k_loop`
//! must be at least 1.5× faster than `transition_cached_1k_loop` (held by
//! the bench gate's baseline), and `block_threaded_1k_branchy` no slower
//! than `transition_cached_1k_branchy` — short blocks only pay off when
//! one compiled block continues straight into the next. The block cache
//! is warmed outside the timed loop: a hot region is compiled once and
//! replayed for thousands of supersteps, so steady-state dispatch — not
//! the one-time compile — is what the main loop actually pays.

use asc_tvm::encode::encode_all;
use asc_tvm::exec::{transition, transition_cached, DecodedCache, NoDeps, StepOutcome};
use asc_tvm::isa::{Instruction as I, Opcode, Reg, SP};
use asc_tvm::state::StateVector;
use asc_tvm::tier::{run_segment, BlockCache, SegmentExit, TierConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn r(i: u8) -> Reg {
    Reg::new(i).unwrap()
}

fn state_with(program: &[I], mem: usize) -> StateVector {
    let mut state = StateVector::new(mem).unwrap();
    state.write_mem(0, &encode_all(program)).unwrap();
    state.set_reg(SP, mem as u32);
    state
}

/// The no-deps 1k-instruction micro kernel: a counting loop whose 4-wide
/// body (arith/arith pair + fused compare-and-branch) never halts within
/// the benchmarked budget.
fn counting_loop() -> StateVector {
    state_with(
        &[
            I::ri(Opcode::MovI, r(1), 1_000_000),
            I::ri(Opcode::MovI, r(2), 0),
            I::rrr(Opcode::Add, r(2), r(2), r(1)), // addr 16 (loop head)
            I::rri(Opcode::AddI, r(1), r(1), -1),
            I::ri(Opcode::CmpI, r(1), 0),
            I::i(Opcode::Jne, 16),
            I::bare(Opcode::Halt),
        ],
        4096,
    )
}

/// A fused-chain-heavy kernel: the loop body is a straight line of
/// load/op, op/op and op/store pairs, so nearly every micro-op in the
/// compiled block is a superinstruction.
fn fused_chain() -> StateVector {
    state_with(
        &[
            I::ri(Opcode::MovI, r(1), 1_000_000),
            I::ri(Opcode::MovI, r(2), 0), // base register for the data cell
            I::rri(Opcode::LdW, r(4), r(2), 2048), // addr 16 (loop head)
            I::rrr(Opcode::Add, r(4), r(4), r(1)), // fuses with the load
            I::rrr(Opcode::Xor, r(5), r(4), r(1)),
            I::rrr(Opcode::Add, r(5), r(5), r(4)), // op/op pair
            I::rri(Opcode::ShlI, r(6), r(5), 1),
            I::rri(Opcode::StW, r(2), r(6), 2048), // op/store pair
            I::rri(Opcode::AddI, r(1), r(1), -1),
            I::ri(Opcode::CmpI, r(1), 0), // fuses with the branch
            I::i(Opcode::Jne, 16),
            I::bare(Opcode::Halt),
        ],
        8192,
    )
}

/// Collatz's inner loop: four short blocks — cmp/jeq, and/cmp/jne, shr/jmp
/// and mul/add/add/jmp — that exit into one another every 2–4
/// instructions. A converged value moves on to the next integer, so the
/// kernel never halts within the benchmarked budget.
fn branchy() -> StateVector {
    state_with(
        &[
            I::ri(Opcode::MovI, r(1), 27),       // 0: the integer under test
            I::rr(Opcode::Mov, r(3), r(1)),      // 8
            I::ri(Opcode::CmpI, r(3), 1),        // 16: inner
            I::i(Opcode::Jeq, 104),              // 24
            I::rri(Opcode::AndI, r(4), r(3), 1), // 32
            I::ri(Opcode::CmpI, r(4), 0),        // 40
            I::i(Opcode::Jne, 72),               // 48
            I::rri(Opcode::ShrI, r(3), r(3), 1), // 56
            I::i(Opcode::Jmp, 88),               // 64
            I::rri(Opcode::MulI, r(3), r(3), 3), // 72: odd
            I::rri(Opcode::AddI, r(3), r(3), 1), // 80
            I::rri(Opcode::AddI, r(6), r(6), 1), // 88: step
            I::i(Opcode::Jmp, 16),               // 96
            I::rri(Opcode::AddI, r(1), r(1), 1), // 104: converged
            I::rr(Opcode::Mov, r(3), r(1)),      // 112
            I::i(Opcode::Jmp, 16),               // 120
            I::bare(Opcode::Halt),               // 128
        ],
        4096,
    )
}

/// A `BlockCache` with every region already compiled for `initial`, so the
/// timed loop measures steady-state block-threaded dispatch.
fn warmed_cache(initial: &StateVector, budget: u64) -> BlockCache {
    let config = TierConfig { enabled: true, hot_threshold: 1 };
    let mut cache = BlockCache::new(initial, config);
    let mut state = initial.clone();
    let (_, exit) = run_segment(&mut state, &mut NoDeps, &mut cache, u32::MAX, budget);
    assert!(matches!(exit, SegmentExit::Budget), "warm-up kernel exited early: {exit:?}");
    assert!(cache.stats().blocks_compiled > 0, "warm-up compiled nothing");
    cache
}

/// Retires exactly `budget` instructions of `initial` through the reference
/// `transition` and both timed dispatch layers and asserts bit-identical
/// final states, so the timing comparison below is apples-to-apples.
fn assert_dispatch_layers_agree(initial: &StateVector, cache: &mut BlockCache, budget: u64) {
    let mut reference = initial.clone();
    for _ in 0..budget {
        let outcome = transition(&mut reference, None).unwrap();
        assert_eq!(outcome, StepOutcome::Continue, "kernel halted inside the budget");
    }
    let mut cached = initial.clone();
    let mut icache = DecodedCache::new(&cached);
    for _ in 0..budget {
        let outcome = transition_cached(&mut cached, &mut NoDeps, &mut icache).unwrap();
        assert_eq!(outcome, StepOutcome::Continue);
    }
    let mut tiered = initial.clone();
    let (retired, exit) = run_segment(&mut tiered, &mut NoDeps, cache, u32::MAX, budget);
    assert_eq!(retired, budget, "tiered dispatch miscounted ({exit:?})");
    assert_eq!(reference, cached, "transition_cached diverged from the reference dispatch");
    assert_eq!(reference, tiered, "block-threaded dispatch diverged from the reference dispatch");
}

fn bench_kernel(c: &mut Criterion, label: &str, initial: &StateVector) {
    const BUDGET: u64 = 1000;
    let mut cache = warmed_cache(initial, BUDGET);
    assert_dispatch_layers_agree(initial, &mut cache, BUDGET);

    let mut group = c.benchmark_group("tier");
    // Tier-0: the monomorphized single-step hot path with a decoded cache.
    group.bench_function(format!("transition_cached_1k_{label}"), |b| {
        b.iter(|| {
            let mut state = initial.clone();
            let mut icache = DecodedCache::new(&state);
            for _ in 0..BUDGET {
                if transition_cached(black_box(&mut state), &mut NoDeps, &mut icache).unwrap()
                    == StepOutcome::Halted
                {
                    break;
                }
            }
            state
        })
    });
    // Tier-1: block-threaded dispatch over pre-compiled fused micro-ops
    // (must be ≥ 1.5× the tier-0 path above on the counting loop).
    group.bench_function(format!("block_threaded_1k_{label}"), |b| {
        b.iter(|| {
            let mut state = initial.clone();
            let (retired, _) =
                run_segment(black_box(&mut state), &mut NoDeps, &mut cache, u32::MAX, BUDGET);
            assert_eq!(retired, BUDGET);
            state
        })
    });
    group.finish();
}

fn bench_tier_dispatch(c: &mut Criterion) {
    bench_kernel(c, "loop", &counting_loop());
    bench_kernel(c, "fused_chain", &fused_chain());
    bench_kernel(c, "branchy", &branchy());
}

criterion_group!(
    name = tier;
    config = Criterion::default().sample_size(20);
    targets = bench_tier_dispatch
);
criterion_main!(tier);
