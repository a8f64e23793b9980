//! Speculative superstep execution (§3.2 (E), §4.1).
//!
//! A speculative worker receives a (usually predicted) start state, resets a
//! dependency vector to all-`null`, and calls the transition function in a
//! loop until it reaches the recognized IP again (one superstep), the program
//! halts, or it exhausts its instruction allowance. The accumulated
//! dependency vector is then used to build the compressed cache entry: the
//! read set keyed on the *start* state and the write set keyed on the *end*
//! state.
//!
//! [`execute_superstep_with`] is the runtime's one tracked execution: pool
//! workers (fed by the miss-driven loop or the planner) and inline
//! speculation run predicted supersteps through it, the recognizer probes
//! and scores its candidates with it, and `LascRuntime::measure` and
//! `LascRuntime::memoize` capture the program's real supersteps with it
//! (through `capture_superstep`). The TVM's `Machine` is the untracked
//! main-thread driver.
//!
//! Long-lived workers execute many supersteps; [`SpeculationScratch`] lets
//! them reuse one dependency vector and one decoded-instruction cache across
//! jobs (reset between supersteps, reallocated only when the state size
//! changes) instead of paying two state-sized allocations per job.

use crate::cache::CacheEntry;
use crate::error::AscResult;
use asc_tvm::delta::SparseBytes;
use asc_tvm::deps::DepVector;
use asc_tvm::error::VmError;
use asc_tvm::machine::Machine;
use asc_tvm::state::StateVector;
use asc_tvm::tier::{run_segment, BlockCache, SegmentExit};
use asc_tvm::{TierConfig, TierStats};

/// Outcome of one speculative superstep execution.
#[derive(Debug, Clone)]
pub struct SuperstepOutcome {
    /// The cache entry summarising the execution.
    pub entry: CacheEntry,
    /// The full end state (used by recursive speculation and by tests).
    pub end_state: StateVector,
    /// Whether the execution ended because it reached the recognized IP
    /// (`stride` times); `false` means it halted or ran out of budget.
    pub reached_rip: bool,
    /// Whether the program halted during the execution.
    pub halted: bool,
    /// Number of instructions executed.
    pub instructions: u64,
}

/// How a speculative execution ended.
#[derive(Debug, Clone)]
pub enum SpeculationResult {
    /// The superstep completed; a cache entry is available.
    Completed(Box<SuperstepOutcome>),
    /// Execution faulted (invalid opcode, wild access, division by zero).
    /// Expected when speculating from a mispredicted state; the result is
    /// simply discarded.
    Faulted {
        /// Instructions executed before the fault.
        instructions: u64,
        /// The fault itself.
        error: VmError,
    },
}

impl SpeculationResult {
    /// The completed outcome, if any.
    pub fn completed(self) -> Option<SuperstepOutcome> {
        match self {
            SpeculationResult::Completed(outcome) => Some(*outcome),
            SpeculationResult::Faulted { .. } => None,
        }
    }
}

/// Reusable per-worker execution scratch: the dependency vector and two-tier
/// execution cache a speculative superstep needs. Long-lived workers keep
/// one scratch across jobs and reset it (no reallocation when the state size
/// is unchanged) instead of constructing both afresh per superstep — at the
/// planner's dispatch rate the per-job allocations otherwise dominate small
/// supersteps. Compiled tier-1 blocks additionally *survive* the reset when
/// the new job's code bytes still match, so a worker re-speculating the same
/// hot loop keeps its superinstructions across jobs.
#[derive(Debug, Default)]
pub struct SpeculationScratch {
    deps: Option<DepVector>,
    icache: Option<BlockCache>,
    tier: TierConfig,
}

impl SpeculationScratch {
    /// Creates an empty scratch with the default (enabled) tier
    /// configuration; buffers are sized lazily on first use.
    pub fn new() -> Self {
        SpeculationScratch::default()
    }

    /// Creates an empty scratch with an explicit tier configuration — the
    /// constructor the runtime uses to propagate [`AscConfig::tier`]
    /// (via [`Supervision`](crate::supervisor::Supervision)) to workers.
    ///
    /// [`AscConfig::tier`]: crate::config::AscConfig::tier
    pub fn with_tier(tier: TierConfig) -> Self {
        SpeculationScratch { tier, ..SpeculationScratch::default() }
    }

    /// Drains the tier-1 execution counters accumulated since the last
    /// drain (across however many supersteps ran on this scratch).
    pub fn take_tier_stats(&mut self) -> TierStats {
        self.icache.as_mut().map(BlockCache::take_stats).unwrap_or_default()
    }
}

/// Executes one speculative superstep from `start`.
///
/// Execution stops after the IP equals `rip` `stride` times (checked after
/// each instruction), when the program halts, or after `max_instructions`.
///
/// # Errors
/// Never returns `Err` for faults *inside* the speculative execution — those
/// are reported as [`SpeculationResult::Faulted`] because they are an
/// expected consequence of mispredicted start states. The `Result` wrapper
/// exists for future-proofing of caller signatures.
pub fn execute_superstep(
    start: &StateVector,
    rip: u32,
    stride: usize,
    max_instructions: u64,
) -> AscResult<SpeculationResult> {
    execute_superstep_with(start, rip, stride, max_instructions, &mut SpeculationScratch::new())
}

/// Like [`execute_superstep`], but reuses the caller's [`SpeculationScratch`]
/// (reset, not reallocated) — the entry point long-lived workers use.
///
/// # Errors
/// Same contract as [`execute_superstep`].
pub fn execute_superstep_with(
    start: &StateVector,
    rip: u32,
    stride: usize,
    max_instructions: u64,
    scratch: &mut SpeculationScratch,
) -> AscResult<SpeculationResult> {
    execute_keyed(start, start.ip(), rip, stride, max_instructions, scratch)
}

/// [`execute_superstep_with`], sealing the entry under `key` rather than
/// the start state's IP.
fn execute_keyed(
    start: &StateVector,
    key: u32,
    rip: u32,
    stride: usize,
    max_instructions: u64,
    scratch: &mut SpeculationScratch,
) -> AscResult<SpeculationResult> {
    let mut state = start.clone();
    let deps = match scratch.deps.as_mut() {
        Some(deps) => {
            deps.reset_for(state.len_bytes());
            deps
        }
        None => scratch.deps.insert(DepVector::new(state.len_bytes())),
    };
    // Tracked *and* two-tier: monomorphized over the dependency sink, so a
    // worker pays decoding once per instruction slot rather than once per
    // retired instruction — and, with the tier enabled, retires the hot
    // inter-occurrence region as fused micro-ops (supersteps are loops by
    // construction, so the recognized IP is the natural block seed).
    let icache = match scratch.icache.as_mut() {
        Some(icache) => {
            icache.reset_for(&state);
            icache
        }
        None => scratch.icache.insert(BlockCache::new(&state, scratch.tier)),
    };
    icache.seed_hot(rip);
    let mut instructions = 0u64;
    let mut occurrences = 0usize;
    let mut reached_rip = false;
    let mut halted = false;
    let target = stride.max(1);

    // Each segment runs to the next recognized-IP occurrence (or halt, or
    // the remaining budget). Instruction counts stay exact at every exit —
    // deadline-killed jobs report precisely how many instructions retired,
    // blocks included.
    while instructions < max_instructions {
        let (retired, exit) =
            run_segment(&mut state, deps, icache, rip, max_instructions - instructions);
        instructions += retired;
        match exit {
            SegmentExit::StopIp => {
                occurrences += 1;
                if occurrences >= target {
                    reached_rip = true;
                    break;
                }
            }
            SegmentExit::Halted => {
                halted = true;
                break;
            }
            SegmentExit::Budget => break,
            SegmentExit::Fault(error) => {
                return Ok(SpeculationResult::Faulted { instructions, error });
            }
        }
    }

    let (read, written) = SparseBytes::capture_sets(deps, start, &state);
    let entry = CacheEntry::new(key, read, written, instructions);
    Ok(SpeculationResult::Completed(Box::new(SuperstepOutcome {
        entry,
        end_state: state,
        reached_rip,
        halted,
        instructions,
    })))
}

/// Executes `machine`'s next superstep tracked, through
/// [`execute_superstep_with`] on `scratch`, and applies its write set to the
/// machine as if the machine had executed the superstep itself. Returns the
/// superstep's entry, keyed on `rip` even when the superstep starts
/// elsewhere, and whether the program halted.
///
/// # Errors
/// A fault surfaces as the error untracked execution would return.
pub(crate) fn capture_superstep(
    machine: &mut Machine,
    rip: u32,
    stride: usize,
    max_instructions: u64,
    scratch: &mut SpeculationScratch,
) -> AscResult<(CacheEntry, bool)> {
    match execute_keyed(machine.state(), rip, rip, stride, max_instructions, scratch)? {
        SpeculationResult::Completed(outcome) => {
            let SuperstepOutcome { entry, end_state, halted, .. } = *outcome;
            machine.adopt(&entry.end, entry.instructions, halted);
            debug_assert!(machine.state() == &end_state, "the write set missed a changed byte");
            Ok((entry, halted))
        }
        SpeculationResult::Faulted { error, .. } => Err(error.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AscConfig;
    use crate::recognizer::recognize;
    use asc_asm::assemble;
    use asc_tvm::deps::DepStatus;
    use asc_tvm::exec::{transition_with, DepSink, StepOutcome};
    use asc_workloads::registry::{build, Benchmark, Scale};

    /// A loop whose head (address of `loop:`) is a natural recognized IP.
    fn looping_program() -> (asc_tvm::program::Program, u32) {
        let program = assemble(
            r#"
            main:
                movi r1, 100
                movi r2, 0
            loop:
                add  r2, r2, r1
                sub  r1, r1, 1
                cmpi r1, 0
                jne  loop
                halt
            "#,
        )
        .unwrap();
        let rip = program.symbol("loop").unwrap();
        (program, rip)
    }

    #[test]
    fn superstep_reaches_next_rip_occurrence() {
        let (program, rip) = looping_program();
        let mut machine = Machine::load(&program).unwrap();
        machine.run_until_ip(rip, 1_000).unwrap();
        let start = machine.state().clone();
        let result = execute_superstep(&start, rip, 1, 10_000).unwrap();
        let outcome = result.completed().unwrap();
        assert!(outcome.reached_rip);
        assert_eq!(outcome.instructions, 4); // one loop iteration
        assert!(!outcome.entry.start.is_empty());
        assert!(!outcome.entry.end.is_empty());
        // The entry must match the state it was captured from and fast-forward
        // a copy of it to the true end state on every written byte.
        assert!(outcome.entry.matches(&start));
        let mut forwarded = start.clone();
        outcome.entry.apply(&mut forwarded);
        assert_eq!(forwarded, outcome.end_state);
    }

    #[test]
    fn entry_reusable_from_a_different_full_state() {
        // The paper's key point: matching on the read set lets one entry be
        // reused even when unrelated parts of the state differ.
        let (program, rip) = looping_program();
        let mut machine = Machine::load(&program).unwrap();
        machine.run_until_ip(rip, 1_000).unwrap();
        let start = machine.state().clone();
        let outcome = execute_superstep(&start, rip, 1, 10_000).unwrap().completed().unwrap();

        // Perturb memory far away from anything the loop touches.
        let mut other = start.clone();
        other.store_word(4000, 0xdead_beef).unwrap();
        assert!(outcome.entry.matches(&other));
        // Apply and confirm it equals direct execution from the perturbed state.
        let direct = execute_superstep(&other, rip, 1, 10_000).unwrap().completed().unwrap();
        let mut forwarded = other.clone();
        outcome.entry.apply(&mut forwarded);
        assert_eq!(forwarded, direct.end_state);
    }

    #[test]
    fn stride_crosses_multiple_occurrences() {
        let (program, rip) = looping_program();
        let mut machine = Machine::load(&program).unwrap();
        machine.run_until_ip(rip, 1_000).unwrap();
        let start = machine.state().clone();
        let outcome = execute_superstep(&start, rip, 5, 10_000).unwrap().completed().unwrap();
        assert!(outcome.reached_rip);
        assert_eq!(outcome.instructions, 20); // five iterations
    }

    #[test]
    fn budget_exhaustion_reported() {
        let (program, rip) = looping_program();
        let start = program.initial_state().unwrap();
        let outcome = execute_superstep(&start, rip, 1_000_000, 50).unwrap().completed().unwrap();
        assert!(!outcome.reached_rip);
        assert!(!outcome.halted);
        assert_eq!(outcome.instructions, 50);
    }

    #[test]
    fn halting_superstep_reported() {
        let (program, rip) = looping_program();
        let start = program.initial_state().unwrap();
        // The whole program is ~402 instructions; a large budget halts first.
        let outcome =
            execute_superstep(&start, rip + 4096, 1, 100_000).unwrap().completed().unwrap();
        assert!(outcome.halted);
        assert!(!outcome.reached_rip);
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        // One scratch across many jobs — including a job with a different
        // state size in the middle — must produce exactly the entries a
        // fresh-allocation execution produces.
        let (program, rip) = looping_program();
        let mut machine = Machine::load(&program).unwrap();
        machine.run_until_ip(rip, 1_000).unwrap();
        let mut scratch = SpeculationScratch::new();
        for _ in 0..5 {
            let start = machine.state().clone();
            let reused = execute_superstep_with(&start, rip, 1, 10_000, &mut scratch)
                .unwrap()
                .completed()
                .unwrap();
            let fresh = execute_superstep(&start, rip, 1, 10_000).unwrap().completed().unwrap();
            assert_eq!(reused.entry, fresh.entry);
            assert_eq!(reused.end_state, fresh.end_state);
            // Interleave a differently-sized program so the scratch resizes.
            let other = asc_asm::Assembler::new()
                .mem_size(8192)
                .assemble("spin:\n movi r1, 1\n halt\n")
                .unwrap();
            let other_start = other.initial_state().unwrap();
            assert_ne!(other_start.len_bytes(), start.len_bytes());
            let small = execute_superstep_with(&other_start, 0, 1, 100, &mut scratch).unwrap();
            assert!(small.completed().is_some());
            machine.run_until_ip(rip, 1_000).unwrap();
        }
    }

    #[test]
    fn tier_on_and_off_produce_identical_entries() {
        // The tier must be invisible in every captured artifact: entry,
        // end state and instruction count — that is what lets worker
        // supersteps run tier-1 without perturbing cache semantics.
        let (program, rip) = looping_program();
        let mut machine = Machine::load(&program).unwrap();
        machine.run_until_ip(rip, 1_000).unwrap();
        let start = machine.state().clone();
        let mut on =
            SpeculationScratch::with_tier(TierConfig { hot_threshold: 1, ..TierConfig::default() });
        let mut off = SpeculationScratch::with_tier(TierConfig::disabled());
        for stride in [1usize, 3, 7] {
            let a = execute_superstep_with(&start, rip, stride, 10_000, &mut on)
                .unwrap()
                .completed()
                .unwrap();
            let b = execute_superstep_with(&start, rip, stride, 10_000, &mut off)
                .unwrap()
                .completed()
                .unwrap();
            assert_eq!(a.entry, b.entry, "stride {stride}");
            assert_eq!(a.end_state, b.end_state, "stride {stride}");
            assert_eq!(a.instructions, b.instructions, "stride {stride}");
        }
        let on_stats = on.take_tier_stats();
        assert!(on_stats.tier1_instructions > 0, "{on_stats:?}");
        // Draining resets the counters.
        assert_eq!(on.take_tier_stats(), TierStats::default());
        let off_stats = off.take_tier_stats();
        assert_eq!(off_stats.blocks_compiled, 0, "{off_stats:?}");
        assert_eq!(off_stats.tier1_instructions, 0, "{off_stats:?}");
    }

    /// The paper's `g` vector kept the plainest way: one [`DepStatus`] per
    /// byte, stepped by [`DepStatus::after_read`] / [`DepStatus::after_write`]
    /// a byte at a time. Independent of [`DepVector`]'s word-wide encoding,
    /// so the reference below checks it rather than reusing it.
    struct PerByteDeps(Vec<DepStatus>);

    impl DepSink for PerByteDeps {
        fn note_read(&mut self, index: usize, len: usize) {
            for s in &mut self.0[index..index + len] {
                *s = s.after_read();
            }
        }

        fn note_write(&mut self, index: usize, len: usize) {
            for s in &mut self.0[index..index + len] {
                *s = s.after_write();
            }
        }
    }

    impl PerByteDeps {
        fn indices(&self, keep: fn(DepStatus) -> bool) -> impl Iterator<Item = usize> + '_ {
            self.0.iter().enumerate().filter(move |(_, &s)| keep(s)).map(|(i, _)| i)
        }
    }

    /// The per-instruction reference for one superstep: a per-byte `g`
    /// vector fed by `transition_with` one instruction at a time, stopping
    /// where [`execute_superstep_with`] stops.
    fn reference_superstep(
        start: &StateVector,
        rip: u32,
        stride: usize,
        budget: u64,
    ) -> SuperstepOutcome {
        let mut state = start.clone();
        let mut deps = PerByteDeps(vec![DepStatus::Null; state.len_bytes()]);
        let (mut instructions, mut occurrences, mut halted) = (0u64, 0usize, false);
        while instructions < budget && occurrences < stride.max(1) {
            if transition_with(&mut state, &mut deps).unwrap() == StepOutcome::Halted {
                halted = true;
                break;
            }
            instructions += 1;
            occurrences += usize::from(state.ip() == rip);
        }
        let read = SparseBytes::capture(start, deps.indices(DepStatus::in_read_set));
        let written = SparseBytes::capture(&state, deps.indices(DepStatus::in_write_set));
        SuperstepOutcome {
            entry: CacheEntry::new(start.ip(), read, written, instructions),
            end_state: state,
            reached_rip: occurrences == stride.max(1),
            halted,
            instructions,
        }
    }

    #[test]
    fn capture_matches_the_per_instruction_reference_on_every_workload() {
        // The one tracked-execution path — speculation, `measure` and
        // memoization all capture through it — against a per-instruction,
        // per-byte `g` vector, over the first 64 recognized-IP occurrences of each
        // registry workload, at tier 0 and at tier 1: the tier changes the
        // cost of a captured superstep, never what is captured.
        for benchmark in Benchmark::ALL {
            let workload = build(benchmark, Scale::Tiny).unwrap();
            // The figure harnesses' Tiny configuration.
            let config = AscConfig {
                explore_instructions: 6_000,
                min_superstep: 50,
                ..AscConfig::default()
            };
            let initial = workload.program.initial_state().unwrap();
            let (rip, budget) = (recognize(&initial, &config).unwrap().rip, config.max_superstep);
            for tier in [TierConfig::disabled(), TierConfig::default()] {
                let mut scratch = SpeculationScratch::with_tier(tier);
                // From the program's start, so the walk also covers the
                // occurrences recognition executed.
                let mut state = initial.clone();
                for occurrence in 0..64 {
                    let context = format!("{benchmark:?} tier {} #{occurrence}", tier.enabled);
                    let got =
                        execute_superstep_with(&state, rip.ip, rip.stride, budget, &mut scratch)
                            .unwrap()
                            .completed()
                            .unwrap();
                    let want = reference_superstep(&state, rip.ip, rip.stride, budget);
                    assert_eq!(got.entry, want.entry, "{context}");
                    assert_eq!(got.instructions, want.instructions, "{context}");
                    assert_eq!(
                        (got.reached_rip, got.halted),
                        (want.reached_rip, want.halted),
                        "{context}"
                    );
                    assert!(got.end_state == want.end_state, "{context}: end states differ");
                    assert!(got.reached_rip, "{context}: the program ended before the walk did");
                    state = got.end_state;
                }
                let stats = scratch.take_tier_stats();
                assert_eq!(stats.tier1_instructions > 0, tier.enabled, "{benchmark:?} {stats:?}");
                assert_eq!(stats.blocks_compiled > 0, tier.enabled, "{benchmark:?} {stats:?}");
            }
        }
    }

    #[test]
    fn fault_from_garbage_state_is_contained() {
        let (program, rip) = looping_program();
        let mut garbage = program.initial_state().unwrap();
        garbage.set_ip(3); // misaligned into the middle of an instruction
        let result = execute_superstep(&garbage, rip, 1, 1_000).unwrap();
        match result {
            SpeculationResult::Faulted { .. } => {}
            SpeculationResult::Completed(outcome) => {
                // Depending on the bytes this may decode as something valid;
                // either way nothing panicked and the outcome is well-formed.
                assert!(outcome.instructions <= 1_000);
            }
        }
    }
}
