//! The trajectory-based functional simulator (TBFS) driver.
//!
//! [`Machine`] wraps a [`StateVector`] and drives repeated, untracked calls
//! to the transition function, counting retired instructions and enforcing
//! instruction budgets. It is the paper's "main thread" execution loop; the
//! ASC runtime builds on it but higher layers can also use it directly to
//! run TVM programs to completion. Dependency-tracked execution (the
//! speculative threads' loop) runs on [`run_segment`] with a
//! [`DepVector`](crate::deps::DepVector) sink instead.

use crate::delta::SparseBytes;
use crate::error::{VmError, VmResult};
use crate::exec::{transition_cached, DecodeCache, NoDeps, StepOutcome};
use crate::isa::Reg;
use crate::program::Program;
use crate::state::StateVector;
use crate::tier::{run_segment, BlockCache, SegmentExit, TierConfig, TierStats};

/// Stop address used by [`Machine::run`]'s tiered path: programs cannot
/// fetch from an unaligned address, so landing here faults on the next
/// dispatch exactly as the untiered loop would.
const UNREACHABLE_STOP_IP: u32 = u32::MAX;

/// Why a [`Machine::run`] call stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// The program executed a `halt` instruction.
    Halted,
    /// The instruction budget was exhausted before the program halted.
    BudgetExhausted,
}

/// A functional simulator instance: one state vector plus bookkeeping.
///
/// # Examples
/// ```
/// use asc_tvm::machine::Machine;
/// use asc_tvm::program::Program;
/// use asc_tvm::encode::encode_all;
/// use asc_tvm::isa::{Instruction, Opcode, Reg};
///
/// # fn main() -> Result<(), asc_tvm::error::VmError> {
/// let code = encode_all(&[
///     Instruction::ri(Opcode::MovI, Reg::new(1).unwrap(), 41),
///     Instruction::rri(Opcode::AddI, Reg::new(1).unwrap(), Reg::new(1).unwrap(), 1),
///     Instruction::bare(Opcode::Halt),
/// ]);
/// let program = Program::new(code, 0, 4096)?;
/// let mut machine = Machine::load(&program)?;
/// machine.run(1_000)?;
/// assert_eq!(machine.state().reg(Reg::new(1).unwrap()), 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    state: StateVector,
    /// Two-tier execution cache: decoded-instruction slots (tier-0) plus
    /// compiled blocks of fused micro-ops (tier-1, off by default). Kept
    /// coherent by store invalidation inside the transition function and
    /// cleared whenever state bytes are patched from outside it.
    icache: BlockCache,
    instret: u64,
    halted: bool,
}

impl Machine {
    /// Creates a machine from an explicit initial state. Tier-1 execution
    /// starts disabled; see [`Machine::enable_tier`].
    pub fn from_state(state: StateVector) -> Self {
        let icache = BlockCache::new(&state, TierConfig::disabled());
        Machine { state, icache, instret: 0, halted: false }
    }

    /// Enables (or reconfigures) tier-1 execution: hot straight-line regions
    /// are compiled into blocks of fused micro-ops and run by the
    /// block-threaded dispatch loop in [`crate::tier`]. Results are
    /// bit-identical to tier-0 execution; only the retirement rate changes.
    /// Discards any previously compiled blocks and tier statistics.
    pub fn enable_tier(&mut self, config: TierConfig) {
        self.icache = BlockCache::new(&self.state, config);
    }

    /// Marks an entry IP as already hot, so its region compiles on first
    /// arrival. The runtime seeds the recognized occurrence IP here — the
    /// recognizer surfaces hot IPs for free. No-op while the tier is off.
    pub fn seed_hot(&mut self, ip: u32) {
        self.icache.seed_hot(ip);
    }

    /// A snapshot of the tier-1 execution counters.
    pub fn tier_stats(&self) -> TierStats {
        self.icache.stats()
    }

    /// Loads a program image into a fresh machine.
    ///
    /// # Errors
    /// Propagates errors from materialising the program's initial state.
    pub fn load(program: &Program) -> VmResult<Self> {
        Ok(Machine::from_state(program.initial_state()?))
    }

    /// The current state vector.
    pub fn state(&self) -> &StateVector {
        &self.state
    }

    /// Mutable access to the state vector (used by the cache to fast-forward).
    ///
    /// Conservatively clears the decoded-instruction cache, since the caller
    /// may overwrite code bytes; prefer [`Machine::apply_sparse`] for
    /// fast-forwards, which invalidates only the touched slots.
    pub fn state_mut(&mut self) -> &mut StateVector {
        self.icache.clear();
        &mut self.state
    }

    /// Applies a sparse byte patch (a trajectory-cache fast-forward) to the
    /// state, invalidating exactly the decoded-instruction slots the patch
    /// touches.
    pub fn apply_sparse(&mut self, patch: &SparseBytes) {
        for (index, _) in patch.iter() {
            if let Some(addr) = (index as usize).checked_sub(crate::state::MEM_BASE) {
                self.icache.invalidate(addr as u32, 1);
            }
        }
        patch.apply(&mut self.state);
    }

    /// Takes over `retired` instructions executed outside the machine (a
    /// tracked superstep run on a speculation scratch) from their write set
    /// `end`, as if the machine had retired them itself.
    pub fn adopt(&mut self, end: &SparseBytes, retired: u64, halted: bool) {
        self.apply_sparse(end);
        self.instret += retired;
        self.halted = halted;
    }

    /// Consumes the machine and returns its state vector.
    pub fn into_state(self) -> StateVector {
        self.state
    }

    /// Number of instructions retired so far.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// Whether the machine has executed a `halt` instruction.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Convenience accessor for a register of the current state.
    pub fn reg(&self, r: Reg) -> u32 {
        self.state.reg(r)
    }

    /// Executes at most one instruction.
    ///
    /// Returns `StepOutcome::Halted` without executing anything when the
    /// machine is already halted.
    ///
    /// # Errors
    /// Propagates [`VmError`]s from the transition function.
    pub fn step(&mut self) -> VmResult<StepOutcome> {
        if self.halted {
            return Ok(StepOutcome::Halted);
        }
        // Monomorphized over the zero-cost sink: the main thread pays
        // neither an Option branch per access nor a re-decode per retired
        // instruction.
        let outcome = transition_cached(&mut self.state, &mut NoDeps, &mut self.icache)?;
        match outcome {
            StepOutcome::Continue => self.instret += 1,
            StepOutcome::Halted => self.halted = true,
        }
        Ok(outcome)
    }

    /// Runs until the program halts or `budget` further instructions retire.
    ///
    /// # Errors
    /// Propagates [`VmError`]s from the transition function.
    pub fn run(&mut self, budget: u64) -> VmResult<RunExit> {
        if self.icache.enabled() {
            return self.run_tiered(budget);
        }
        for _ in 0..budget {
            match self.step()? {
                StepOutcome::Continue => {}
                StepOutcome::Halted => return Ok(RunExit::Halted),
            }
        }
        if self.halted {
            Ok(RunExit::Halted)
        } else {
            Ok(RunExit::BudgetExhausted)
        }
    }

    /// [`Machine::run`] through the tier-1 driver. The segment stop address
    /// is unreachable by any fetchable IP, so the only way a `StopIp` exit
    /// occurs is a wild indirect jump onto it — in which case the loop
    /// re-enters and the next dispatch faults, matching tier-0 exactly.
    fn run_tiered(&mut self, budget: u64) -> VmResult<RunExit> {
        let mut remaining = budget;
        loop {
            if self.halted {
                return Ok(RunExit::Halted);
            }
            let (retired, exit) = run_segment(
                &mut self.state,
                &mut NoDeps,
                &mut self.icache,
                UNREACHABLE_STOP_IP,
                remaining,
            );
            self.instret += retired;
            remaining -= retired;
            match exit {
                SegmentExit::Halted => {
                    self.halted = true;
                    return Ok(RunExit::Halted);
                }
                SegmentExit::Budget => return Ok(RunExit::BudgetExhausted),
                SegmentExit::Fault(error) => return Err(error),
                SegmentExit::StopIp => {}
            }
        }
    }

    /// Runs until the program halts, erroring if it takes more than `budget`
    /// instructions. Useful in tests where non-termination is a bug.
    ///
    /// # Errors
    /// Returns [`VmError::InstructionBudgetExceeded`] when the budget runs
    /// out, otherwise propagates transition errors.
    pub fn run_to_halt(&mut self, budget: u64) -> VmResult<u64> {
        match self.run(budget)? {
            RunExit::Halted => Ok(self.instret),
            RunExit::BudgetExhausted => Err(VmError::InstructionBudgetExceeded { budget }),
        }
    }

    /// Runs until the instruction pointer equals `ip` (checked *after* each
    /// retired instruction), the program halts, or the budget is exhausted.
    ///
    /// Returns the number of instructions retired by this call and the exit
    /// reason. This is the primitive the runtime's main thread executes one
    /// superstep with.
    ///
    /// # Errors
    /// Propagates [`VmError`]s from the transition function.
    pub fn run_until_ip(&mut self, ip: u32, budget: u64) -> VmResult<(u64, RunExit)> {
        if self.icache.enabled() {
            if self.halted {
                return Ok((0, RunExit::Halted));
            }
            let (retired, exit) =
                run_segment(&mut self.state, &mut NoDeps, &mut self.icache, ip, budget);
            self.instret += retired;
            return match exit {
                SegmentExit::StopIp => Ok((retired, RunExit::Halted)),
                SegmentExit::Halted => {
                    self.halted = true;
                    Ok((retired, RunExit::Halted))
                }
                SegmentExit::Budget => Ok((retired, RunExit::BudgetExhausted)),
                SegmentExit::Fault(error) => Err(error),
            };
        }
        let start = self.instret;
        for _ in 0..budget {
            match self.step()? {
                StepOutcome::Continue => {
                    if self.state.ip() == ip {
                        return Ok((self.instret - start, RunExit::Halted));
                    }
                }
                StepOutcome::Halted => return Ok((self.instret - start, RunExit::Halted)),
            }
        }
        Ok((self.instret - start, RunExit::BudgetExhausted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_all;
    use crate::isa::{Instruction as I, Opcode, Reg};

    fn r(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    fn counting_program(iterations: i32) -> Program {
        // r1 = iterations; loop: r2 += r1; r1 -= 1; if r1 != 0 goto loop; halt
        let code = encode_all(&[
            I::ri(Opcode::MovI, r(1), iterations),
            I::ri(Opcode::MovI, r(2), 0),
            I::rrr(Opcode::Add, r(2), r(2), r(1)),
            I::rri(Opcode::AddI, r(1), r(1), -1),
            I::ri(Opcode::CmpI, r(1), 0),
            I::i(Opcode::Jne, 16),
            I::bare(Opcode::Halt),
        ]);
        Program::new(code, 0, 4096).unwrap()
    }

    #[test]
    fn run_to_halt_counts_instructions() {
        let mut machine = Machine::load(&counting_program(100)).unwrap();
        let instret = machine.run_to_halt(10_000).unwrap();
        assert_eq!(machine.reg(r(2)), 5050);
        assert_eq!(instret, 2 + 4 * 100);
        assert!(machine.is_halted());
    }

    #[test]
    fn budget_exhaustion_reports_and_is_resumable() {
        let mut machine = Machine::load(&counting_program(1000)).unwrap();
        assert_eq!(machine.run(10).unwrap(), RunExit::BudgetExhausted);
        assert_eq!(machine.instret(), 10);
        assert!(!machine.is_halted());
        // Resuming finishes the job with identical results.
        assert_eq!(machine.run(100_000).unwrap(), RunExit::Halted);
        assert_eq!(machine.reg(r(2)), 500_500);
    }

    #[test]
    fn run_to_halt_errors_on_budget() {
        let mut machine = Machine::load(&counting_program(1000)).unwrap();
        assert!(matches!(
            machine.run_to_halt(5),
            Err(VmError::InstructionBudgetExceeded { budget: 5 })
        ));
    }

    #[test]
    fn stepping_a_halted_machine_is_a_noop() {
        let mut machine = Machine::load(&counting_program(1)).unwrap();
        machine.run_to_halt(100).unwrap();
        let before = machine.instret();
        assert_eq!(machine.step().unwrap(), StepOutcome::Halted);
        assert_eq!(machine.instret(), before);
    }

    #[test]
    fn run_until_ip_stops_at_loop_head() {
        let mut machine = Machine::load(&counting_program(50)).unwrap();
        // Execute until the loop head (address 16) is first reached.
        let (steps, exit) = machine.run_until_ip(16, 1_000).unwrap();
        assert_eq!(exit, RunExit::Halted);
        assert_eq!(machine.state().ip(), 16);
        assert_eq!(steps, 2);
        // From the loop head, one full iteration returns to the loop head.
        let (steps, _) = machine.run_until_ip(16, 1_000).unwrap();
        assert_eq!(steps, 4);
    }

    #[test]
    fn tiered_machine_matches_untiered_run() {
        let program = counting_program(200);
        let mut plain = Machine::load(&program).unwrap();
        let mut tiered = Machine::load(&program).unwrap();
        tiered.enable_tier(TierConfig { hot_threshold: 2, ..TierConfig::default() });
        tiered.seed_hot(16);
        assert_eq!(plain.run(10_000).unwrap(), tiered.run(10_000).unwrap());
        assert_eq!(plain.state(), tiered.state());
        assert_eq!(plain.instret(), tiered.instret());
        assert!(plain.is_halted() && tiered.is_halted());
        let stats = tiered.tier_stats();
        assert!(stats.tier1_instructions > 0, "{stats:?}");
        assert!(stats.fused_ops > 0, "{stats:?}");
    }

    #[test]
    fn tiered_run_until_ip_matches_untiered() {
        let program = counting_program(50);
        let mut plain = Machine::load(&program).unwrap();
        let mut tiered = Machine::load(&program).unwrap();
        tiered.enable_tier(TierConfig { hot_threshold: 1, ..TierConfig::default() });
        tiered.seed_hot(16);
        for occurrence in 0..50 {
            let a = plain.run_until_ip(16, 1_000).unwrap();
            let b = tiered.run_until_ip(16, 1_000).unwrap();
            assert_eq!(a, b, "occurrence {occurrence}");
            assert_eq!(plain.state(), tiered.state(), "occurrence {occurrence}");
            assert_eq!(plain.instret(), tiered.instret(), "occurrence {occurrence}");
        }
    }

    #[test]
    fn tiered_budget_exhaustion_is_exact_and_resumable() {
        let mut plain = Machine::load(&counting_program(1000)).unwrap();
        let mut tiered = Machine::load(&counting_program(1000)).unwrap();
        tiered.enable_tier(TierConfig { hot_threshold: 1, ..TierConfig::default() });
        assert_eq!(plain.run(123).unwrap(), RunExit::BudgetExhausted);
        assert_eq!(tiered.run(123).unwrap(), RunExit::BudgetExhausted);
        assert_eq!(tiered.instret(), 123);
        assert_eq!(plain.state(), tiered.state());
        // Resuming mid-block-boundary finishes with identical results.
        assert_eq!(plain.run(100_000).unwrap(), RunExit::Halted);
        assert_eq!(tiered.run(100_000).unwrap(), RunExit::Halted);
        assert_eq!(plain.state(), tiered.state());
        assert_eq!(plain.instret(), tiered.instret());
    }
}
