//! The transition function: execute one instruction on a state vector.
//!
//! This is the paper's `transition(uint8_t *x, uint8_t *g, int n)`: it has no
//! hidden state and refers to no globals. It fetches the instruction pointed
//! to by the IP stored *inside* the state vector, simulates it, writes the
//! resulting changes back into the state vector, and (optionally) updates the
//! per-byte dependency vector `g` on every read and write it performs —
//! including the IP, flags, register file and instruction fetch itself.
//!
//! ## Monomorphized hot path
//!
//! Dependency tracking is abstracted behind the [`DepSink`] trait rather
//! than an `Option<&mut DepVector>`: the main thread executes with
//! [`NoDeps`], whose recording methods are empty and compile away entirely,
//! while speculative workers pass a [`DepVector`]. Each combination is a
//! separate monomorphization, so the untracked path carries no per-access
//! branches.
//!
//! Instruction decoding is likewise abstracted behind [`DecodeCache`]: a
//! [`DecodedCache`] memoizes the decoded form of each (8-byte-aligned)
//! instruction slot, invalidated on stores into the covered region, so a hot
//! loop stops re-decoding the same 8 raw bytes on every retired instruction.
//! [`NoDecodeCache`] is the zero-cost "always decode" impl.
//!
//! ## Tier-0 of a two-tier engine
//!
//! This module is **tier-0**: one fetch → decode(-cache) → dispatch → retire
//! cycle per instruction, the ground truth every other execution strategy
//! must match bit-for-bit. [`crate::tier`] builds **tier-1** on top of it:
//! hot straight-line regions are compiled into blocks of pre-decoded, fused
//! micro-ops and retired by a block-threaded dispatch loop, falling back to
//! [`transition_cached`] at the first unsupported opcode, block exit, budget
//! boundary or invalidation. The shared per-opcode executor
//! (`exec_operate`) and the shared invalidation path (a [`BlockCache`]
//! *contains* the [`DecodedCache`] and invalidates both through one
//! [`DecodeCache::invalidate`] call) are what keep the two tiers from ever
//! disagreeing about semantics or staleness.
//!
//! [`BlockCache`]: crate::tier::BlockCache

use crate::deps::DepVector;
use crate::encode::decode;
use crate::error::{VmError, VmResult};
use crate::isa::{Flags, Instruction, Opcode, INSTRUCTION_BYTES, SP};
use crate::state::{StateVector, FLAGS_OFFSET, IP_OFFSET, MEM_BASE, REG_OFFSET};

/// What happened when a single instruction executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The instruction completed and execution may continue.
    Continue,
    /// A `halt` instruction executed; the state vector is final.
    Halted,
}

/// Receiver for the byte-granularity access trace of a transition.
///
/// The two implementations are [`NoDeps`] (methods compile to nothing; the
/// main thread's zero-cost path) and [`DepVector`] (the paper's `g` vector,
/// used by speculative workers, recognition and memoization). Each access
/// arrives as one call with its byte range, so `DepVector` applies the §4.1
/// FSM to a 4-byte access (IP, flags, a register, a data word) or the 8-byte
/// fetch as one word operation rather than byte by byte.
pub trait DepSink {
    /// Records a read of `len` consecutive state bytes starting at `index`.
    fn note_read(&mut self, index: usize, len: usize);
    /// Records a write of `len` consecutive state bytes starting at `index`.
    fn note_write(&mut self, index: usize, len: usize);
}

/// The zero-cost [`DepSink`]: both methods are empty and inline away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoDeps;

impl DepSink for NoDeps {
    #[inline(always)]
    fn note_read(&mut self, _index: usize, _len: usize) {}
    #[inline(always)]
    fn note_write(&mut self, _index: usize, _len: usize) {}
}

impl DepSink for DepVector {
    #[inline]
    fn note_read(&mut self, index: usize, len: usize) {
        self.note_read_range(index, len);
    }
    #[inline]
    fn note_write(&mut self, index: usize, len: usize) {
        self.note_write_range(index, len);
    }
}

/// Source of decoded instructions for the fetch stage, keyed on
/// memory-segment addresses (the same addresses the IP holds).
pub trait DecodeCache {
    /// A previously decoded instruction for the slot at memory address
    /// `addr`, if still valid. A populated slot also certifies that the
    /// 8-byte fetch range at `addr` is in bounds (memory never resizes), so
    /// hits skip the bounds re-check.
    fn cached(&self, addr: u32) -> Option<Instruction>;
    /// Remembers the decoded instruction for the slot at `addr`.
    fn remember(&mut self, addr: u32, instruction: Instruction);
    /// Invalidates any cached slots overlapping the written address range.
    fn invalidate(&mut self, addr: u32, len: u32);
}

/// The zero-cost [`DecodeCache`]: never caches, so every fetch decodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoDecodeCache;

impl DecodeCache for NoDecodeCache {
    #[inline(always)]
    fn cached(&self, _addr: u32) -> Option<Instruction> {
        None
    }
    #[inline(always)]
    fn remember(&mut self, _addr: u32, _instruction: Instruction) {}
    #[inline(always)]
    fn invalidate(&mut self, _addr: u32, _len: u32) {}
}

/// A decoded-instruction cache over the state vector's memory segment.
///
/// One slot per 8-byte-aligned instruction position. The code region of a
/// TVM program is immutable in practice, but the cache does not assume so:
/// stores into covered bytes invalidate the overlapping slots, and the
/// machine clears the cache when state bytes are patched from outside the
/// transition function (fast-forwards, direct `state_mut` access). Results
/// therefore stay bit-for-bit identical to uncached execution even for
/// self-modifying programs.
///
/// The cache also lists the slots it filled since it was last cleared, so
/// that [`reset_for`](DecodedCache::reset_for) clears what a job decoded —
/// a superstep touches a few dozen instruction slots of a memory that can
/// hold thousands — rather than every slot.
#[derive(Debug, Clone)]
pub struct DecodedCache {
    slots: Vec<Option<Instruction>>,
    /// Slots filled since the last clear, each listed once per fill; when
    /// it reaches `slots.len()` entries it stops growing and a clear
    /// sweeps every slot instead (see [`DecodeCache::remember`]).
    filled: Vec<u32>,
}

impl DecodedCache {
    /// Creates an empty cache sized for `state`'s memory segment.
    pub fn new(state: &StateVector) -> Self {
        // Only addresses with a full in-bounds 8-byte fetch get a slot, so a
        // populated slot certifies bounds.
        let instruction_positions = state.mem_size() / INSTRUCTION_BYTES as usize;
        DecodedCache { slots: vec![None; instruction_positions], filled: Vec::new() }
    }

    /// Forgets every cached slot: the listed ones, or all of them when the
    /// list overflowed.
    pub fn clear(&mut self) {
        if self.filled.len() < self.slots.len() {
            for &slot in &self.filled {
                self.slots[slot as usize] = None;
            }
        } else {
            self.slots.fill(None);
        }
        self.filled.clear();
    }

    /// Clears the cache and resizes it for `state`'s memory segment, reusing
    /// the existing allocation when the segment size is unchanged. Long-lived
    /// speculation workers call this between jobs instead of constructing a
    /// fresh cache per superstep. The cache is always cleared, because a new
    /// job's state may hold different code bytes at the same addresses; the
    /// clear touches only the slots filled since the last one.
    pub fn reset_for(&mut self, state: &StateVector) {
        let instruction_positions = state.mem_size() / INSTRUCTION_BYTES as usize;
        if self.slots.len() == instruction_positions {
            self.clear();
        } else {
            self.slots.clear();
            self.slots.resize(instruction_positions, None);
            self.filled.clear();
        }
    }
}

impl DecodeCache for DecodedCache {
    #[inline]
    fn cached(&self, addr: u32) -> Option<Instruction> {
        if addr % INSTRUCTION_BYTES != 0 {
            return None;
        }
        self.slots.get((addr / INSTRUCTION_BYTES) as usize).copied().flatten()
    }

    #[inline]
    fn remember(&mut self, addr: u32, instruction: Instruction) {
        if addr % INSTRUCTION_BYTES != 0 {
            return;
        }
        let (index, capacity) = ((addr / INSTRUCTION_BYTES) as usize, self.slots.len());
        if let Some(slot) = self.slots.get_mut(index) {
            // A self-modifying loop refills one slot over and over; past
            // one entry per slot the list stops and `clear` sweeps them all.
            if slot.is_none() && self.filled.len() < capacity {
                self.filled.push(index as u32);
            }
            *slot = Some(instruction);
        }
    }

    #[inline]
    fn invalidate(&mut self, addr: u32, len: u32) {
        if len == 0 {
            return;
        }
        let first = (addr / INSTRUCTION_BYTES) as usize;
        let last = ((addr + len - 1) / INSTRUCTION_BYTES) as usize;
        for slot in first..=last.min(self.slots.len().saturating_sub(1)) {
            if let Some(entry) = self.slots.get_mut(slot) {
                *entry = None;
            }
        }
    }
}

/// Accessor that funnels every state-vector access through the dependency
/// sink, and every memory store through decode-cache invalidation. Both
/// type parameters monomorphize: with [`NoDeps`] + [`NoDecodeCache`] the
/// recording calls vanish entirely. Shared with the tier-1 block executor
/// ([`crate::tier`]), which replays the same accessors in the same order so
/// fused micro-ops record byte-identical dependency footprints.
pub(crate) struct Ctx<'a, D: DepSink, C: DecodeCache> {
    pub(crate) state: &'a mut StateVector,
    pub(crate) deps: &'a mut D,
    pub(crate) code: &'a mut C,
}

impl<'a, D: DepSink, C: DecodeCache> Ctx<'a, D, C> {
    #[inline]
    pub(crate) fn note_read(&mut self, index: usize, len: usize) {
        self.deps.note_read(index, len);
    }

    #[inline]
    pub(crate) fn note_write(&mut self, index: usize, len: usize) {
        self.deps.note_write(index, len);
    }

    /// Reads a 32-bit word at an absolute state byte index.
    #[inline]
    fn read_word_at(&mut self, index: usize) -> u32 {
        self.note_read(index, 4);
        self.state.word(index)
    }

    /// Writes a 32-bit word at an absolute state byte index.
    #[inline]
    fn write_word_at(&mut self, index: usize, value: u32) {
        self.note_write(index, 4);
        self.state.set_word(index, value);
    }

    #[inline]
    pub(crate) fn read_reg(&mut self, reg: u8) -> u32 {
        self.read_word_at(REG_OFFSET + reg as usize * 4)
    }

    #[inline]
    pub(crate) fn write_reg(&mut self, reg: u8, value: u32) {
        self.write_word_at(REG_OFFSET + reg as usize * 4, value);
    }

    #[inline]
    fn read_ip(&mut self) -> u32 {
        self.read_word_at(IP_OFFSET)
    }

    #[inline]
    pub(crate) fn write_ip(&mut self, value: u32) {
        self.write_word_at(IP_OFFSET, value);
    }

    #[inline]
    pub(crate) fn read_flags(&mut self) -> Flags {
        Flags::from_word(self.read_word_at(FLAGS_OFFSET))
    }

    #[inline]
    pub(crate) fn write_flags(&mut self, flags: Flags) {
        self.write_word_at(FLAGS_OFFSET, flags.to_word());
    }

    /// Fetches and decodes the instruction at memory address `addr`,
    /// consulting the decode cache first. The fetch read is recorded in the
    /// dependency sink whether or not the decode was cached — the executed
    /// trajectory depends on those bytes either way. A cache hit skips both
    /// the decode and the bounds check (a populated slot certifies the fetch
    /// range; memory never resizes).
    fn fetch_decoded(&mut self, addr: u32) -> VmResult<Instruction> {
        if let Some(instruction) = self.code.cached(addr) {
            self.note_read(MEM_BASE + addr as usize, INSTRUCTION_BYTES as usize);
            return Ok(instruction);
        }
        let index = self.state.mem_index(addr, INSTRUCTION_BYTES)?;
        self.note_read(index, INSTRUCTION_BYTES as usize);
        let mut bytes = [0u8; INSTRUCTION_BYTES as usize];
        bytes.copy_from_slice(&self.state.as_bytes()[index..index + INSTRUCTION_BYTES as usize]);
        let instruction = decode(&bytes, addr)?;
        self.code.remember(addr, instruction);
        Ok(instruction)
    }

    fn load_word(&mut self, addr: u32) -> VmResult<u32> {
        let index = self.state.mem_index(addr, 4)?;
        Ok(self.read_word_at(index))
    }

    fn store_word(&mut self, addr: u32, value: u32) -> VmResult<()> {
        let index = self.state.mem_index(addr, 4)?;
        self.code.invalidate(addr, 4);
        self.write_word_at(index, value);
        Ok(())
    }

    fn load_byte(&mut self, addr: u32) -> VmResult<u32> {
        let index = self.state.mem_index(addr, 1)?;
        self.note_read(index, 1);
        Ok(self.state.byte(index) as u32)
    }

    fn store_byte(&mut self, addr: u32, value: u8) -> VmResult<()> {
        let index = self.state.mem_index(addr, 1)?;
        self.code.invalidate(addr, 1);
        self.note_write(index, 1);
        self.state.set_byte(index, value);
        Ok(())
    }
}

/// Executes exactly one instruction.
///
/// When `deps` is supplied, every byte read or written — IP, flags, register
/// file, instruction fetch and data memory — is recorded in the dependency
/// finite-state machine, exactly as the paper's speculative workers do. Pass
/// `None` for untracked (main-thread or ground-truth) execution.
///
/// # Errors
/// Propagates decode errors ([`VmError::InvalidOpcode`],
/// [`VmError::InvalidRegister`]), [`VmError::MemoryOutOfBounds`] for wild
/// loads/stores/fetches and [`VmError::DivideByZero`].
///
/// # Examples
/// ```
/// # use asc_tvm::{state::StateVector, exec::{transition, StepOutcome}};
/// # use asc_tvm::encode::encode_all;
/// # use asc_tvm::isa::{Instruction, Opcode, Reg};
/// let mut state = StateVector::new(256)?;
/// let image = encode_all(&[
///     Instruction::ri(Opcode::MovI, Reg::new(1).unwrap(), 21),
///     Instruction::rri(Opcode::MulI, Reg::new(1).unwrap(), Reg::new(1).unwrap(), 2),
///     Instruction::bare(Opcode::Halt),
/// ]);
/// state.write_mem(0, &image)?;
/// while transition(&mut state, None)? == StepOutcome::Continue {}
/// assert_eq!(state.reg(Reg::new(1).unwrap()), 42);
/// # Ok::<(), asc_tvm::error::VmError>(())
/// ```
pub fn transition(state: &mut StateVector, deps: Option<&mut DepVector>) -> VmResult<StepOutcome> {
    match deps {
        Some(deps) => transition_with(state, deps),
        None => transition_with(state, &mut NoDeps),
    }
}

/// Executes exactly one instruction with a monomorphized dependency sink.
///
/// Pass [`NoDeps`] for the zero-cost untracked path or a
/// [`DepVector`] for tracked execution; see [`transition`] for semantics
/// and errors.
pub fn transition_with<D: DepSink>(state: &mut StateVector, deps: &mut D) -> VmResult<StepOutcome> {
    transition_cached(state, deps, &mut NoDecodeCache)
}

/// Executes exactly one instruction with a monomorphized dependency sink and
/// decode cache. This is the hottest entry point: the main thread runs it as
/// `transition_cached(state, &mut NoDeps, &mut DecodedCache)`, which neither
/// branches on dependency tracking nor re-decodes cached instructions.
///
/// See [`transition`] for semantics and errors.
pub fn transition_cached<D: DepSink, C: DecodeCache>(
    state: &mut StateVector,
    deps: &mut D,
    code: &mut C,
) -> VmResult<StepOutcome> {
    let mut ctx = Ctx { state, deps, code };

    let ip = ctx.read_ip();
    let instruction = ctx.fetch_decoded(ip)?;
    let next_ip = ip.wrapping_add(INSTRUCTION_BYTES);

    use Opcode::*;
    let outcome = match instruction.opcode {
        Halt => {
            // Leave the IP pointing at the halt instruction so a halted state
            // is a fixed point of the transition function.
            ctx.write_ip(ip);
            return Ok(StepOutcome::Halted);
        }
        Jmp => {
            ctx.write_ip(instruction.imm as u32);
            StepOutcome::Continue
        }
        Jeq | Jne | Jlt | Jle | Jgt | Jge | Jltu | Jgeu => {
            let flags = ctx.read_flags();
            let taken = branch_taken(instruction.opcode, flags);
            ctx.write_ip(if taken { instruction.imm as u32 } else { next_ip });
            StepOutcome::Continue
        }
        JmpR => {
            let target = ctx.read_reg(instruction.a);
            ctx.write_ip(target);
            StepOutcome::Continue
        }
        Call => {
            let sp = ctx.read_reg(SP.index() as u8).wrapping_sub(4);
            ctx.store_word(sp, next_ip)?;
            ctx.write_reg(SP.index() as u8, sp);
            ctx.write_ip(instruction.imm as u32);
            StepOutcome::Continue
        }
        Ret => {
            let sp = ctx.read_reg(SP.index() as u8);
            let target = ctx.load_word(sp)?;
            ctx.write_reg(SP.index() as u8, sp.wrapping_add(4));
            ctx.write_ip(target);
            StepOutcome::Continue
        }
        _ => {
            exec_operate(&mut ctx, &instruction, ip)?;
            ctx.write_ip(next_ip);
            StepOutcome::Continue
        }
    };
    Ok(outcome)
}

/// Executes one *straight-line* instruction — anything that is not control
/// flow (`jmp`/conditional jumps/`jmpr`/`call`/`ret`) or `halt` — performing
/// every state access except the fetch and the IP update, in exactly the
/// interpreter's order. Shared between [`transition_cached`] (which follows
/// it with `write_ip(next_ip)`) and the tier-1 block executor in
/// [`crate::tier`] (which elides the per-instruction IP writes inside a
/// block), so the two tiers cannot drift apart semantically.
///
/// `ip` is the instruction's own address, used only for fault attribution.
#[inline(always)]
pub(crate) fn exec_operate<D: DepSink, C: DecodeCache>(
    ctx: &mut Ctx<'_, D, C>,
    instruction: &Instruction,
    ip: u32,
) -> VmResult<()> {
    use Opcode::*;
    match instruction.opcode {
        Nop => {}
        MovI => {
            ctx.write_reg(instruction.a, instruction.imm as u32);
        }
        Mov => {
            let v = ctx.read_reg(instruction.b);
            ctx.write_reg(instruction.a, v);
        }
        Neg => {
            let v = ctx.read_reg(instruction.b);
            ctx.write_reg(instruction.a, (v as i32).wrapping_neg() as u32);
        }
        Not => {
            let v = ctx.read_reg(instruction.b);
            ctx.write_reg(instruction.a, !v);
        }
        Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sar => {
            let lhs = ctx.read_reg(instruction.b);
            let rhs = ctx.read_reg(instruction.c);
            let value = alu(instruction.opcode, lhs, rhs, ip)?;
            ctx.write_reg(instruction.a, value);
        }
        AddI | MulI | DivI | RemI | AndI | OrI | XorI | ShlI | ShrI | SarI => {
            let lhs = ctx.read_reg(instruction.b);
            let rhs = instruction.imm as u32;
            let op = match instruction.opcode {
                AddI => Add,
                MulI => Mul,
                DivI => Div,
                RemI => Rem,
                AndI => And,
                OrI => Or,
                XorI => Xor,
                ShlI => Shl,
                ShrI => Shr,
                SarI => Sar,
                _ => unreachable!("immediate ALU mapping"),
            };
            let value = alu(op, lhs, rhs, ip)?;
            ctx.write_reg(instruction.a, value);
        }
        LdW => {
            let base = ctx.read_reg(instruction.b);
            let addr = base.wrapping_add(instruction.imm as u32);
            let value = ctx.load_word(addr)?;
            ctx.write_reg(instruction.a, value);
        }
        LdB => {
            let base = ctx.read_reg(instruction.b);
            let addr = base.wrapping_add(instruction.imm as u32);
            let value = ctx.load_byte(addr)?;
            ctx.write_reg(instruction.a, value);
        }
        StW => {
            let base = ctx.read_reg(instruction.a);
            let value = ctx.read_reg(instruction.b);
            let addr = base.wrapping_add(instruction.imm as u32);
            ctx.store_word(addr, value)?;
        }
        StB => {
            let base = ctx.read_reg(instruction.a);
            let value = ctx.read_reg(instruction.b);
            let addr = base.wrapping_add(instruction.imm as u32);
            ctx.store_byte(addr, value as u8)?;
        }
        Cmp => {
            let lhs = ctx.read_reg(instruction.a);
            let rhs = ctx.read_reg(instruction.b);
            ctx.write_flags(Flags::compare(lhs, rhs));
        }
        CmpI => {
            let lhs = ctx.read_reg(instruction.a);
            ctx.write_flags(Flags::compare(lhs, instruction.imm as u32));
        }
        Push => {
            let value = ctx.read_reg(instruction.a);
            let sp = ctx.read_reg(SP.index() as u8).wrapping_sub(4);
            ctx.store_word(sp, value)?;
            ctx.write_reg(SP.index() as u8, sp);
        }
        Pop => {
            let sp = ctx.read_reg(SP.index() as u8);
            let value = ctx.load_word(sp)?;
            ctx.write_reg(SP.index() as u8, sp.wrapping_add(4));
            ctx.write_reg(instruction.a, value);
        }
        Halt | Jmp | Jeq | Jne | Jlt | Jle | Jgt | Jge | Jltu | Jgeu | JmpR | Call | Ret => {
            unreachable!("{} is not a straight-line opcode", instruction.opcode)
        }
    }
    Ok(())
}

/// Whether a conditional jump is taken under the given flags. Shared by the
/// interpreter and the tier-1 fused compare+branch handler.
#[inline]
pub(crate) fn branch_taken(opcode: Opcode, flags: Flags) -> bool {
    use Opcode::*;
    match opcode {
        Jeq => flags.eq,
        Jne => !flags.eq,
        Jlt => flags.lt_signed,
        Jle => flags.lt_signed || flags.eq,
        Jgt => !flags.lt_signed && !flags.eq,
        Jge => !flags.lt_signed,
        Jltu => flags.lt_unsigned,
        Jgeu => !flags.lt_unsigned,
        other => unreachable!("{other} is not a conditional jump"),
    }
}

/// Three-register ALU semantics shared by the register and immediate forms.
fn alu(op: Opcode, lhs: u32, rhs: u32, addr: u32) -> VmResult<u32> {
    use Opcode::*;
    Ok(match op {
        Add => lhs.wrapping_add(rhs),
        Sub => lhs.wrapping_sub(rhs),
        Mul => lhs.wrapping_mul(rhs),
        Div => {
            if rhs == 0 {
                return Err(VmError::DivideByZero { addr });
            }
            ((lhs as i32).wrapping_div(rhs as i32)) as u32
        }
        Rem => {
            if rhs == 0 {
                return Err(VmError::DivideByZero { addr });
            }
            ((lhs as i32).wrapping_rem(rhs as i32)) as u32
        }
        And => lhs & rhs,
        Or => lhs | rhs,
        Xor => lhs ^ rhs,
        Shl => lhs.wrapping_shl(rhs & 31),
        Shr => lhs.wrapping_shr(rhs & 31),
        Sar => ((lhs as i32).wrapping_shr(rhs & 31)) as u32,
        other => unreachable!("{other} is not an ALU opcode"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_all;
    use crate::isa::{Instruction as I, Reg};

    fn r(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    /// Builds a state vector with the given program loaded at address 0 and
    /// the stack pointer at the top of memory.
    fn machine_with(program: &[I], mem: usize) -> StateVector {
        let mut state = StateVector::new(mem).unwrap();
        state.write_mem(0, &encode_all(program)).unwrap();
        state.set_reg(SP, mem as u32);
        state
    }

    fn run(state: &mut StateVector, max: usize) -> usize {
        let mut executed = 0;
        for _ in 0..max {
            match transition(state, None).unwrap() {
                StepOutcome::Continue => executed += 1,
                StepOutcome::Halted => return executed,
            }
        }
        panic!("program did not halt within {max} instructions");
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut state = machine_with(
            &[
                I::ri(Opcode::MovI, r(1), 6),
                I::ri(Opcode::MovI, r(2), 7),
                I::rrr(Opcode::Mul, r(3), r(1), r(2)),
                I::rri(Opcode::AddI, r(3), r(3), -2),
                I::bare(Opcode::Halt),
            ],
            256,
        );
        run(&mut state, 100);
        assert_eq!(state.reg(r(3)), 40);
    }

    #[test]
    fn halted_state_is_fixed_point() {
        let mut state = machine_with(&[I::bare(Opcode::Halt)], 64);
        assert_eq!(transition(&mut state, None).unwrap(), StepOutcome::Halted);
        let snapshot = state.clone();
        assert_eq!(transition(&mut state, None).unwrap(), StepOutcome::Halted);
        assert_eq!(state, snapshot);
    }

    #[test]
    fn signed_division_and_negative_numbers() {
        let mut state = machine_with(
            &[
                I::ri(Opcode::MovI, r(1), -17),
                I::ri(Opcode::MovI, r(2), 5),
                I::rrr(Opcode::Div, r(3), r(1), r(2)),
                I::rrr(Opcode::Rem, r(4), r(1), r(2)),
                I::bare(Opcode::Halt),
            ],
            256,
        );
        run(&mut state, 100);
        assert_eq!(state.reg(r(3)) as i32, -3);
        assert_eq!(state.reg(r(4)) as i32, -2);
    }

    #[test]
    fn divide_by_zero_is_an_error() {
        let mut state =
            machine_with(&[I::ri(Opcode::MovI, r(1), 3), I::rri(Opcode::DivI, r(2), r(1), 0)], 128);
        transition(&mut state, None).unwrap();
        let err = transition(&mut state, None).unwrap_err();
        assert_eq!(err, VmError::DivideByZero { addr: 8 });
    }

    #[test]
    fn loads_and_stores_round_trip_memory() {
        let mut state = machine_with(
            &[
                I::ri(Opcode::MovI, r(1), 200), // base address
                I::ri(Opcode::MovI, r(2), 0x1234_5678u32 as i32),
                I::rri(Opcode::StW, r(1), r(2), 4), // mem[204] = r2
                I::rri(Opcode::LdW, r(3), r(1), 4), // r3 = mem[204]
                I::rri(Opcode::LdB, r(4), r(1), 4), // r4 = low byte
                I::bare(Opcode::Halt),
            ],
            512,
        );
        run(&mut state, 100);
        assert_eq!(state.reg(r(3)), 0x1234_5678);
        assert_eq!(state.reg(r(4)), 0x78);
        assert_eq!(state.load_word(204).unwrap(), 0x1234_5678);
    }

    #[test]
    fn store_byte_only_touches_one_byte() {
        let mut state = machine_with(
            &[
                I::ri(Opcode::MovI, r(1), 300),
                I::ri(Opcode::MovI, r(2), 0xAABBCCDDu32 as i32),
                I::rri(Opcode::StW, r(1), r(2), 0),
                I::ri(Opcode::MovI, r(3), 0x11),
                I::rri(Opcode::StB, r(1), r(3), 1),
                I::bare(Opcode::Halt),
            ],
            512,
        );
        run(&mut state, 100);
        assert_eq!(state.load_word(300).unwrap(), 0xAABB11DD);
    }

    #[test]
    fn conditional_branches_signed_and_unsigned() {
        // r3 counts taken signed branches, r4 counts taken unsigned branches.
        let mut state = machine_with(
            &[
                I::ri(Opcode::MovI, r(1), -1),
                I::ri(Opcode::MovI, r(2), 1),
                I::rr(Opcode::Cmp, r(1), r(2)),
                I::i(Opcode::Jlt, 5 * 8), // taken: -1 < 1 signed
                I::bare(Opcode::Halt),
                I::ri(Opcode::MovI, r(3), 1),
                I::rr(Opcode::Cmp, r(1), r(2)),
                I::i(Opcode::Jltu, 9 * 8), // not taken: 0xffffffff > 1 unsigned
                I::ri(Opcode::MovI, r(4), 1),
                I::bare(Opcode::Halt),
            ],
            512,
        );
        run(&mut state, 100);
        assert_eq!(state.reg(r(3)), 1);
        assert_eq!(state.reg(r(4)), 1);
    }

    #[test]
    fn loop_counts_down() {
        // r1 = 10; do { r2 += r1; r1 -= 1 } while (r1 != 0)
        let mut state = machine_with(
            &[
                I::ri(Opcode::MovI, r(1), 10),
                I::ri(Opcode::MovI, r(2), 0),
                I::rrr(Opcode::Add, r(2), r(2), r(1)), // addr 16
                I::rri(Opcode::AddI, r(1), r(1), -1),
                I::ri(Opcode::CmpI, r(1), 0),
                I::i(Opcode::Jne, 16),
                I::bare(Opcode::Halt),
            ],
            512,
        );
        let executed = run(&mut state, 1000);
        assert_eq!(state.reg(r(2)), 55);
        assert_eq!(executed, 2 + 4 * 10);
    }

    #[test]
    fn call_ret_push_pop() {
        // main: r1 = 5; call f; halt     f: push r1; r1 = r1 * 3; pop r2; ret
        let mut state = machine_with(
            &[
                I::ri(Opcode::MovI, r(1), 5),
                I::i(Opcode::Call, 4 * 8),
                I::bare(Opcode::Halt),
                I::bare(Opcode::Nop),
                I::r(Opcode::Push, r(1)), // addr 32
                I::rri(Opcode::MulI, r(1), r(1), 3),
                I::r(Opcode::Pop, r(2)),
                I::bare(Opcode::Ret),
            ],
            1024,
        );
        run(&mut state, 100);
        assert_eq!(state.reg(r(1)), 15);
        assert_eq!(state.reg(r(2)), 5);
        // Stack pointer restored.
        assert_eq!(state.reg(SP), 1024);
    }

    #[test]
    fn out_of_bounds_fetch_is_an_error() {
        let mut state = StateVector::new(64).unwrap();
        state.set_ip(1000);
        assert!(matches!(transition(&mut state, None), Err(VmError::MemoryOutOfBounds { .. })));
    }

    #[test]
    fn dependency_tracking_reads_and_writes() {
        let mut state = machine_with(
            &[
                I::ri(Opcode::MovI, r(1), 100),
                I::rri(Opcode::LdW, r(2), r(1), 0), // reads mem[100..104]
                I::rri(Opcode::StW, r(1), r(2), 8), // writes mem[108..112]
                I::bare(Opcode::Halt),
            ],
            512,
        );
        state.store_word(100, 7).unwrap();
        let mut deps = DepVector::new(state.len_bytes());
        for _ in 0..3 {
            transition(&mut state, Some(&mut deps)).unwrap();
        }
        let read_set = deps.read_set();
        let write_set = deps.write_set();
        // The loaded memory words are dependencies; the stored word is an output.
        for offset in 0..4 {
            assert!(read_set.contains(&(MEM_BASE + 100 + offset)));
            assert!(write_set.contains(&(MEM_BASE + 108 + offset)));
            assert!(!read_set.contains(&(MEM_BASE + 108 + offset)));
        }
        // The IP is both read and written.
        assert!(read_set.contains(&IP_OFFSET));
        assert!(write_set.contains(&IP_OFFSET));
        // Instruction bytes are dependencies.
        assert!(read_set.contains(&MEM_BASE));
        // r1 was written before ever being read, so it is *not* a dependency.
        assert!(!read_set.contains(&(REG_OFFSET + 4)));
        assert!(write_set.contains(&(REG_OFFSET + 4)));
    }

    #[test]
    fn untracked_and_tracked_execution_agree() {
        let program = [
            I::ri(Opcode::MovI, r(1), 3),
            I::ri(Opcode::MovI, r(2), 4),
            I::rrr(Opcode::Mul, r(3), r(1), r(2)),
            I::rri(Opcode::StW, r(3), r(3), 50),
            I::bare(Opcode::Halt),
        ];
        let mut plain = machine_with(&program, 256);
        let mut tracked = machine_with(&program, 256);
        let mut deps = DepVector::new(tracked.len_bytes());
        loop {
            let a = transition(&mut plain, None).unwrap();
            let b = transition(&mut tracked, Some(&mut deps)).unwrap();
            assert_eq!(a, b);
            if a == StepOutcome::Halted {
                break;
            }
        }
        assert_eq!(plain, tracked);
    }

    /// Runs a program twice — plain and with a [`DecodedCache`] — and
    /// asserts byte-identical final states and outcomes.
    fn assert_cached_execution_matches(program: &[I], mem: usize, max: usize) {
        let mut plain = machine_with(program, mem);
        let mut cached = machine_with(program, mem);
        let mut cache = DecodedCache::new(&cached);
        for _ in 0..max {
            let a = transition(&mut plain, None).unwrap();
            let b = transition_cached(&mut cached, &mut NoDeps, &mut cache).unwrap();
            assert_eq!(a, b);
            assert_eq!(plain, cached);
            if a == StepOutcome::Halted {
                return;
            }
        }
        panic!("program did not halt within {max} instructions");
    }

    #[test]
    fn decoded_cache_execution_is_identical_on_loops() {
        assert_cached_execution_matches(
            &[
                I::ri(Opcode::MovI, r(1), 10),
                I::ri(Opcode::MovI, r(2), 0),
                I::rrr(Opcode::Add, r(2), r(2), r(1)),
                I::rri(Opcode::AddI, r(1), r(1), -1),
                I::ri(Opcode::CmpI, r(1), 0),
                I::i(Opcode::Jne, 16),
                I::bare(Opcode::Halt),
            ],
            512,
            1000,
        );
    }

    #[test]
    fn decoded_cache_invalidated_by_store_into_code() {
        // Self-modifying program: overwrite the instruction at address 24
        // (initially `movi r2, 1`) with `movi r2, 99` before re-running it.
        // addr 24's first execution caches its decoded form; the store must
        // invalidate that slot or the second pass would retire stale code.
        let movi_r2_99 = crate::encode::encode(&I::ri(Opcode::MovI, r(2), 99));
        let lo = i32::from_le_bytes([movi_r2_99[0], movi_r2_99[1], movi_r2_99[2], movi_r2_99[3]]);
        let hi = i32::from_le_bytes([movi_r2_99[4], movi_r2_99[5], movi_r2_99[6], movi_r2_99[7]]);
        assert_cached_execution_matches(
            &[
                I::ri(Opcode::MovI, r(5), 24),      // 0: target address
                I::ri(Opcode::MovI, r(6), lo),      // 8
                I::ri(Opcode::MovI, r(7), hi),      // 16
                I::ri(Opcode::MovI, r(2), 1),       // 24: will be overwritten
                I::ri(Opcode::CmpI, r(2), 99),      // 32
                I::i(Opcode::Jeq, 9 * 8),           // 40: halt once patched
                I::rri(Opcode::StW, r(5), r(6), 0), // 48: patch low word
                I::rri(Opcode::StW, r(5), r(7), 4), // 56: patch high word
                I::i(Opcode::Jmp, 24),              // 64: rerun patched instr
                I::bare(Opcode::Halt),              // 72
            ],
            512,
            1000,
        );
    }

    #[test]
    fn decoded_cache_ignores_unaligned_slots() {
        let state = machine_with(&[I::bare(Opcode::Halt)], 64);
        let mut cache = DecodedCache::new(&state);
        let instruction = I::bare(Opcode::Nop);
        cache.remember(4, instruction); // unaligned: not cached
        assert_eq!(cache.cached(4), None);
        cache.remember(8, instruction);
        assert_eq!(cache.cached(8), Some(instruction));
        // Invalidation of any overlapping byte clears the slot.
        cache.invalidate(9, 1);
        assert_eq!(cache.cached(8), None);
        // Addresses whose 8-byte fetch would leave memory have no slot, so
        // they are never cached (a populated slot certifies bounds).
        cache.remember(64, instruction);
        assert_eq!(cache.cached(64), None);
    }

    #[test]
    fn decoded_cache_reset_forgets_every_filled_slot() {
        let state = machine_with(&[I::bare(Opcode::Halt)], 64);
        let slots = 64 / INSTRUCTION_BYTES;
        let instruction = I::bare(Opcode::Nop);
        let mut cache = DecodedCache::new(&state);
        // A few slots; then one slot refilled more often than the fill list
        // holds entries (a self-modifying loop's pattern), and another slot
        // filled after the list stopped growing.
        let refills = std::iter::repeat_n(0, 2 * slots as usize).chain([5]).collect();
        for fills in [vec![0, 3, 5], refills] {
            for &slot in &fills {
                cache.invalidate(slot * INSTRUCTION_BYTES, 1);
                cache.remember(slot * INSTRUCTION_BYTES, instruction);
            }
            cache.reset_for(&state);
            for slot in 0..slots {
                assert_eq!(cache.cached(slot * INSTRUCTION_BYTES), None, "slot {slot}");
            }
        }
    }

    #[test]
    fn tracked_and_cached_execution_agree_on_dependencies() {
        let program = [
            I::ri(Opcode::MovI, r(1), 100),
            I::rri(Opcode::LdW, r(2), r(1), 0),
            I::rri(Opcode::StW, r(1), r(2), 8),
            I::bare(Opcode::Halt),
        ];
        let mut plain = machine_with(&program, 512);
        let mut cached = machine_with(&program, 512);
        let mut deps_plain = DepVector::new(plain.len_bytes());
        let mut deps_cached = DepVector::new(cached.len_bytes());
        let mut cache = DecodedCache::new(&cached);
        loop {
            let a = transition(&mut plain, Some(&mut deps_plain)).unwrap();
            let b = transition_cached(&mut cached, &mut deps_cached, &mut cache).unwrap();
            assert_eq!(a, b);
            if a == StepOutcome::Halted {
                break;
            }
        }
        assert_eq!(plain, cached);
        // Cached decode must not change the recorded dependency footprint:
        // the fetch reads are noted even on cache hits.
        assert_eq!(deps_plain, deps_cached);
    }
}
