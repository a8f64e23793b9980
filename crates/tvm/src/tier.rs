//! Tier-1 execution: superinstruction fusion and block-threaded dispatch of
//! hot straight-line regions.
//!
//! Tier-0 ([`crate::exec`]) retires one decoded instruction per dispatch:
//! every retired instruction pays an IP read, a decode-cache probe, an
//! opcode dispatch and an IP write. This module is the classic interpreter
//! tier-up, built without native code generation (the build environment is
//! offline, which rules out a JIT backend): once an entry address crosses a
//! hotness threshold, the straight-line region starting there is compiled
//! into a `CompiledBlock` of pre-decoded, *fused* micro-ops —
//! arith/arith chains, load/op and op/store pairs, and compare+branch
//! collapsed into single handlers — and executed by a block-threaded
//! dispatch loop that touches the IP once at block entry and once at exit.
//!
//! ## Correctness contract
//!
//! Tier-1 must be indistinguishable from tier-0 in every observable way:
//!
//! * **State.** Each micro-op replays the interpreter's per-opcode executor
//!   (`exec_operate`, shared with [`transition_cached`]) in the same order,
//!   so final states are bit-identical.
//! * **Dependencies.** Blocks are generic over [`DepSink`], monomorphized
//!   like the tier-0 hot path. Fetch reads are recorded per *retired*
//!   constituent at execution time (never at compile time), operand
//!   accesses go through the same `Ctx` accessors, and the only elisions
//!   — intermediate IP reads/writes inside a block, and the flags read of a
//!   fused compare+branch — are exactly the accesses the dependency FSM
//!   (`null → read → written → written-after-read`) proves unobservable:
//!   a read immediately after a write never changes a byte's FSM state.
//! * **Accounting.** Instruction counts are exact at every boundary: a
//!   block stops *before* a micro-op that would overrun the caller's budget
//!   or cross an interior stop IP, and a faulting constituent retires
//!   nothing (with the IP left exactly where the interpreter would leave
//!   it), so superstep sizes, job deadlines and fault-injection ordinals
//!   all see the same retired-instruction stream as tier-0.
//! * **Staleness.** A [`BlockCache`] *contains* the tier-0
//!   [`DecodedCache`] and implements [`DecodeCache`] itself, so every store
//!   funnels through one `invalidate` call that clears both decoded slots
//!   and overlapping compiled blocks — the two tiers cannot disagree about
//!   what is stale. A store into the *currently executing* block stops it
//!   at the end of the current micro-op, which is precisely where the
//!   interpreter would next re-fetch the modified bytes.
//!
//! The driver, [`run_segment`], interleaves block execution with tier-0
//! single-stepping (hotness is only consulted at jump arrivals, so
//! sequential fall-through pays nothing) and is the engine under both the
//! main thread's `Machine::run_until_ip` and worker supersteps.

use crate::error::{VmError, VmResult};
use crate::exec::{
    branch_taken, exec_operate, transition_cached, Ctx, DecodeCache, DecodedCache, DepSink,
    StepOutcome,
};
use crate::isa::{Flags, Instruction, Opcode, INSTRUCTION_BYTES};
use crate::state::{StateVector, IP_OFFSET, MEM_BASE};

/// Tuning knobs for tier-1 execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Master switch. When `false`, a [`BlockCache`] degrades to exactly a
    /// [`DecodedCache`]: no hotness tracking, no compilation, no per-store
    /// block scan beyond one empty-list check.
    pub enabled: bool,
    /// Number of jump arrivals at an entry address before the region is
    /// compiled. Seeded entries ([`BlockCache::seed_hot`], fed from the
    /// recognizer's hot IPs) skip the count and compile on first arrival.
    pub hot_threshold: u32,
}

/// Maximum number of constituent instructions per compiled block (well
/// inside the `u16` constituent indices a `MicroOp` carries).
const MAX_BLOCK_LEN: usize = 64;

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig { enabled: true, hot_threshold: 16 }
    }
}

impl TierConfig {
    /// A configuration with the tier switched off (pure tier-0 execution).
    pub fn disabled() -> Self {
        TierConfig { enabled: false, ..TierConfig::default() }
    }
}

/// Counters describing what a [`BlockCache`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Regions compiled into blocks (recompiles after invalidation count).
    pub blocks_compiled: u64,
    /// Compiled blocks dropped because a store hit their code bytes.
    pub blocks_invalidated: u64,
    /// Multi-instruction micro-ops emitted across all compilations
    /// (arith/arith, load/op, op/store pairs and fused compare+branch).
    pub fused_ops: u64,
    /// Instructions retired by block-threaded dispatch.
    pub tier1_instructions: u64,
    /// Instructions retired by tier-0 single-stepping inside
    /// [`run_segment`] (cold regions, fallbacks, boundary slack).
    pub tier0_instructions: u64,
}

impl TierStats {
    /// Accumulates another stats snapshot into this one.
    pub fn merge(&mut self, other: &TierStats) {
        self.blocks_compiled += other.blocks_compiled;
        self.blocks_invalidated += other.blocks_invalidated;
        self.fused_ops += other.fused_ops;
        self.tier1_instructions += other.tier1_instructions;
        self.tier0_instructions += other.tier0_instructions;
    }
}

/// One fused micro-op: up to two straight-line constituents, or a block
/// terminator. `first` is the index (in constituent instructions from the
/// block entry) of the micro-op's first constituent.
#[derive(Debug, Clone, Copy)]
struct MicroOp {
    kind: OpKind,
    first: u16,
    count: u16,
    /// Whether any constituent can write memory (`stw`/`stb`/`push`). Only
    /// such micro-ops can invalidate the executing block, so only they pay
    /// the post-op invalidation check.
    writes_mem: bool,
}

#[derive(Debug, Clone, Copy)]
enum OpKind {
    /// A single straight-line instruction, pre-lowered.
    One(Lowered),
    /// Two fused straight-line instructions (arith/arith, load/op or
    /// op/store — a store is only ever the *final* constituent, so a fused
    /// pair can never execute stale code it modified itself).
    Pair(Lowered, Lowered),
    /// An unconditional `jmp` terminator.
    Jump { target: u32 },
    /// A conditional-jump terminator, optionally fused with the `cmp`/`cmpi`
    /// immediately before it (the compare's right-hand operand pre-lowered).
    Branch { cmp: Option<(u8, CmpRhs)>, opcode: Opcode, target: u32 },
}

/// A straight-line constituent after compile-time lowering. The non-faulting
/// ALU forms skip the generic opcode dispatch, the immediate-form opcode
/// remapping and the fault plumbing of `exec_operate`; everything else runs
/// through `exec_operate` unchanged. Operand accesses happen in exactly the
/// interpreter's order either way.
#[derive(Debug, Clone, Copy)]
enum Lowered {
    /// `movi d, imm`.
    MovImm { d: u8, imm: u32 },
    /// A non-faulting register-register ALU op (`d = a <op> b`).
    AluRR { op: AluKind, d: u8, a: u8, b: u8 },
    /// A non-faulting register-immediate ALU op (`d = a <op> imm`).
    AluRI { op: AluKind, d: u8, a: u8, imm: u32 },
    /// Any other straight-line instruction, executed by `exec_operate`.
    Generic(Instruction),
}

/// The non-faulting ALU operations (`div`/`rem` stay [`Lowered::Generic`]).
#[derive(Debug, Clone, Copy)]
enum AluKind {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Sar,
}

/// The right-hand operand of a fused compare: a register or an immediate,
/// resolved at compile time.
#[derive(Debug, Clone, Copy)]
enum CmpRhs {
    Reg(u8),
    Imm(u32),
}

/// A compiled straight-line region: pre-decoded, fused, with a raw snapshot
/// of the code bytes it was compiled from so long-lived caches can
/// revalidate it against a fresh state (see [`BlockCache::reset_for`]).
#[derive(Debug, Clone)]
struct CompiledBlock {
    /// Memory address of the first constituent instruction.
    entry: u32,
    /// Total constituent instructions (terminator included).
    len: u32,
    ops: Vec<MicroOp>,
    /// Multi-instruction micro-ops in `ops` (for [`TierStats::fused_ops`]).
    fused: u32,
    /// The raw code bytes the block was compiled from.
    code: Vec<u8>,
}

impl CompiledBlock {
    /// Whether `state` still holds the code bytes this block was compiled
    /// from.
    fn matches(&self, state: &StateVector) -> bool {
        let start = MEM_BASE + self.entry as usize;
        state.as_bytes().get(start..start + self.code.len()).is_some_and(|bytes| bytes == self.code)
    }

    /// One-past-the-end memory address of the block's code bytes.
    fn end(&self) -> u32 {
        self.entry + self.len * INSTRUCTION_BYTES
    }
}

/// Per-entry tier state: arrival count, a compiled block, or a region not
/// worth compiling (shorter than two instructions, e.g. an immediate
/// unsupported opcode).
#[derive(Debug, Clone)]
enum BlockSlot {
    Counting(u32),
    Compiled(Box<CompiledBlock>),
    Rejected,
}

/// The block currently executing (its `Box` is taken out of the slot so the
/// cache stays borrowable for store invalidation; its range entry stays
/// registered). A store overlapping `[start, end)` sets `invalidated`,
/// which both stops the execution at the current micro-op boundary and
/// drops the block instead of reinserting it.
#[derive(Debug, Clone)]
struct ActiveBlock {
    start: u32,
    end: u32,
    invalidated: bool,
}

/// The tier-1 execution cache: tier-0's [`DecodedCache`] plus hotness
/// counters, compiled blocks and their shared invalidation path.
///
/// `BlockCache` implements [`DecodeCache`] by containment: `cached` and
/// `remember` delegate to the inner decoded cache, while `invalidate`
/// clears *both* decoded slots and overlapping compiled blocks. Passing a
/// `BlockCache` to [`transition_cached`] therefore gives exactly tier-0
/// semantics — which is what [`run_segment`] does between blocks.
#[derive(Debug, Clone)]
pub struct BlockCache {
    decoded: DecodedCache,
    config: TierConfig,
    /// One slot per 8-byte-aligned instruction position (empty when the
    /// tier is disabled).
    blocks: Vec<BlockSlot>,
    /// `(start, end, slot index)` extents of every *resting* compiled block,
    /// scanned on store invalidation. Blocks are few (one per hot region),
    /// so the scan is cheaper than any per-byte index.
    ranges: Vec<(u32, u32, u32)>,
    active: Option<ActiveBlock>,
    stats: TierStats,
}

impl BlockCache {
    /// Creates a cache sized for `state`'s memory segment.
    pub fn new(state: &StateVector, config: TierConfig) -> Self {
        let slots = if config.enabled { state.mem_size() / INSTRUCTION_BYTES as usize } else { 0 };
        let mut blocks = Vec::new();
        blocks.resize_with(slots, || BlockSlot::Counting(0));
        BlockCache {
            decoded: DecodedCache::new(state),
            config,
            blocks,
            ranges: Vec::new(),
            active: None,
            stats: TierStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &TierConfig {
        &self.config
    }

    /// Whether tier-1 execution is enabled.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// A snapshot of the tier counters.
    pub fn stats(&self) -> TierStats {
        self.stats
    }

    /// Drains the tier counters, returning everything accumulated since the
    /// last drain. Long-lived workers call this per job to publish deltas.
    pub fn take_stats(&mut self) -> TierStats {
        std::mem::take(&mut self.stats)
    }

    /// Marks an entry address as already hot, so the region compiles on its
    /// first arrival. The runtime feeds the recognizer's hot IPs in here —
    /// the recognizer surfaces them for free.
    pub fn seed_hot(&mut self, ip: u32) {
        if !self.config.enabled || ip % INSTRUCTION_BYTES != 0 {
            return;
        }
        if let Some(BlockSlot::Counting(n)) = self.blocks.get_mut((ip / INSTRUCTION_BYTES) as usize)
        {
            *n = (*n).max(self.config.hot_threshold);
        }
    }

    /// Forgets every decoded slot, compiled block and hotness counter.
    /// The conservative reset behind `Machine::state_mut`, where arbitrary
    /// code bytes may have been rewritten.
    pub fn clear(&mut self) {
        debug_assert!(self.active.is_none(), "clear during block execution");
        self.decoded.clear();
        self.active = None;
        self.stats.blocks_invalidated += self.ranges.len() as u64;
        self.ranges.clear();
        for slot in &mut self.blocks {
            *slot = BlockSlot::Counting(0);
        }
    }

    /// Resets for a new job's state, reusing allocations: decoded slots are
    /// always cleared (same contract as [`DecodedCache::reset_for`]), but
    /// compiled blocks whose code-byte snapshot still matches the new state
    /// are kept — speculation workers run job after job of the *same*
    /// program, and recompiling every hot block per superstep would forfeit
    /// most of the tier's win. Hotness counters survive for the same
    /// reason; a stale counter can at worst trigger one compilation whose
    /// block is validated against the actual bytes anyway.
    pub fn reset_for(&mut self, state: &StateVector) {
        debug_assert!(self.active.is_none(), "reset during block execution");
        self.decoded.reset_for(state);
        self.active = None;
        let slots =
            if self.config.enabled { state.mem_size() / INSTRUCTION_BYTES as usize } else { 0 };
        if self.blocks.len() != slots {
            self.blocks.clear();
            self.blocks.resize_with(slots, || BlockSlot::Counting(0));
            self.ranges.clear();
            return;
        }
        let blocks = &mut self.blocks;
        let threshold = self.config.hot_threshold;
        self.ranges.retain(|&(_, _, slot)| {
            let keep = match &blocks[slot as usize] {
                BlockSlot::Compiled(block) => block.matches(state),
                _ => false,
            };
            if !keep {
                // Still hot — the region recompiles from the new bytes on
                // its next arrival.
                blocks[slot as usize] = BlockSlot::Counting(threshold);
            }
            keep
        });
    }

    /// Records a jump arrival at `ip`: bumps the hotness counter, compiles
    /// the region once hot, and hands out the compiled block (its `Box`
    /// taken from the slot and marked active; its range entry stays
    /// registered so store invalidation keeps seeing it) when one exists.
    fn arrive(&mut self, ip: u32, state: &StateVector) -> Option<Box<CompiledBlock>> {
        if ip % INSTRUCTION_BYTES != 0 {
            return None;
        }
        let index = (ip / INSTRUCTION_BYTES) as usize;
        let slot = self.blocks.get_mut(index)?;
        match slot {
            BlockSlot::Rejected => None,
            BlockSlot::Compiled(_) => {
                let taken = std::mem::replace(slot, BlockSlot::Counting(self.config.hot_threshold));
                let BlockSlot::Compiled(block) = taken else { unreachable!() };
                self.active =
                    Some(ActiveBlock { start: block.entry, end: block.end(), invalidated: false });
                Some(block)
            }
            BlockSlot::Counting(n) => {
                *n = n.saturating_add(1);
                if *n < self.config.hot_threshold.max(1) {
                    return None;
                }
                match compile_block(state, ip) {
                    Some(block) => {
                        self.stats.blocks_compiled += 1;
                        self.stats.fused_ops += block.fused as u64;
                        let end = block.end();
                        self.ranges.push((block.entry, end, index as u32));
                        self.active =
                            Some(ActiveBlock { start: block.entry, end, invalidated: false });
                        Some(Box::new(block))
                    }
                    None => {
                        *slot = BlockSlot::Rejected;
                        None
                    }
                }
            }
        }
    }

    /// Returns a block after execution: reinserted into its slot unless a
    /// store invalidated it mid-flight, in which case it is dropped (the
    /// invalidation already removed its range and reset the slot's hotness
    /// to zero, avoiding a compile/invalidate thrash on self-modifying
    /// loops).
    fn finish(&mut self, block: Box<CompiledBlock>, retired: u64) {
        self.stats.tier1_instructions += retired;
        let active = self.active.take().expect("finish without an active block");
        if !active.invalidated {
            let index = (block.entry / INSTRUCTION_BYTES) as usize;
            self.blocks[index] = BlockSlot::Compiled(block);
        }
    }

    /// Whether the currently executing block has been invalidated by one of
    /// its own stores.
    fn active_invalidated(&self) -> bool {
        self.active.as_ref().is_some_and(|active| active.invalidated)
    }

    /// Drops every compiled block overlapping the written byte range and
    /// flags the active block when it is hit. Shares the written-range
    /// geometry with the decoded-slot invalidation that already ran.
    fn invalidate_blocks(&mut self, addr: u32, len: u32) {
        if len == 0 || (self.ranges.is_empty() && self.active.is_none()) {
            return;
        }
        let end = addr.saturating_add(len);
        if let Some(active) = self.active.as_mut() {
            if !active.invalidated && addr < active.end && end > active.start {
                // Counted by the range sweep below — the active block's
                // range entry is still registered.
                active.invalidated = true;
            }
        }
        let blocks = &mut self.blocks;
        let stats = &mut self.stats;
        self.ranges.retain(|&(start, block_end, slot)| {
            let hit = addr < block_end && end > start;
            if hit {
                blocks[slot as usize] = BlockSlot::Counting(0);
                stats.blocks_invalidated += 1;
            }
            !hit
        });
    }
}

impl DecodeCache for BlockCache {
    #[inline]
    fn cached(&self, addr: u32) -> Option<Instruction> {
        self.decoded.cached(addr)
    }

    #[inline]
    fn remember(&mut self, addr: u32, instruction: Instruction) {
        self.decoded.remember(addr, instruction);
    }

    #[inline]
    fn invalidate(&mut self, addr: u32, len: u32) {
        // The single shared invalidation path: decoded slots and compiled
        // blocks go stale together or not at all.
        self.decoded.invalidate(addr, len);
        self.invalidate_blocks(addr, len);
    }
}

/// Why a [`run_segment`] call returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentExit {
    /// The IP equalled the stop address after a retired instruction.
    StopIp,
    /// The program executed `halt`.
    Halted,
    /// The instruction budget was exhausted.
    Budget,
    /// An instruction faulted. The retired count excludes the faulting
    /// instruction, and the state is exactly the interpreter's at-fault
    /// state (the faulting instruction performed zero writes).
    Fault(VmError),
}

/// Executes instructions until the IP equals `stop_ip` (checked after each
/// retired instruction), the program halts, an instruction faults, or
/// exactly `budget` instructions have retired. Returns the retired count
/// and the exit reason.
///
/// This is the tier-up driver: hot regions run as compiled blocks, cold
/// ones single-step through [`transition_cached`] with the `BlockCache` as
/// the decode cache. Hotness is consulted only at jump arrivals (and at
/// segment entry), so sequential fall-through execution pays nothing.
/// Results — final state, dependency footprint, retired counts — are
/// bit-identical to a pure tier-0 loop.
pub fn run_segment<D: DepSink>(
    state: &mut StateVector,
    deps: &mut D,
    cache: &mut BlockCache,
    stop_ip: u32,
    budget: u64,
) -> (u64, SegmentExit) {
    let mut retired: u64 = 0;
    // Entering the segment counts as an arrival: the runtime seeds the
    // recognized IP, which is exactly where every superstep starts.
    let mut arrival = true;
    while retired < budget {
        let ip = state.ip();
        if arrival {
            if let Some(block) = cache.arrive(ip, state) {
                let exit = execute_block(&block, state, deps, cache, stop_ip, budget - retired);
                cache.finish(block, exit.retired);
                retired += exit.retired;
                if let Some(error) = exit.fault {
                    return (retired, SegmentExit::Fault(error));
                }
                if exit.retired > 0 {
                    if state.ip() == stop_ip {
                        return (retired, SegmentExit::StopIp);
                    }
                    // A block exit is a region boundary whichever way the
                    // terminator went; stay in arrival mode.
                    continue;
                }
                // The first micro-op alone exceeded the remaining budget (a
                // fused pair straddling the boundary): fall through to one
                // tier-0 step so the segment always makes progress.
            }
        }
        match transition_cached(state, deps, cache) {
            Ok(StepOutcome::Continue) => {
                retired += 1;
                cache.stats.tier0_instructions += 1;
                let new_ip = state.ip();
                if new_ip == stop_ip {
                    return (retired, SegmentExit::StopIp);
                }
                arrival = new_ip != ip.wrapping_add(INSTRUCTION_BYTES);
            }
            Ok(StepOutcome::Halted) => return (retired, SegmentExit::Halted),
            Err(error) => return (retired, SegmentExit::Fault(error)),
        }
    }
    (retired, SegmentExit::Budget)
}

/// Result of one block execution: how many constituents retired, and the
/// fault if one stopped it. The IP has always been left exactly where the
/// interpreter would leave it.
struct BlockExit {
    retired: u64,
    fault: Option<VmError>,
}

/// Runs a compiled block's micro-ops with the threaded dispatch loop.
///
/// When the terminator jumps back to the block's own entry — the shape of
/// every hot loop — execution re-enters the block directly, without going
/// back through arrival bookkeeping, until the budget runs out, the stop IP
/// is reached, or a store invalidates the block. A micro-op that would
/// overrun the remaining budget (or an interior stop IP) is not started;
/// the caller single-steps across the boundary.
///
/// The IP is read once at entry and written once per block exit;
/// per-constituent fetch reads are recorded in strict fetch-then-execute
/// order, so the dependency footprint matches tier-0 byte for byte.
fn execute_block<D: DepSink>(
    block: &CompiledBlock,
    state: &mut StateVector,
    deps: &mut D,
    cache: &mut BlockCache,
    stop_ip: u32,
    budget: u64,
) -> BlockExit {
    let mut ctx = Ctx { state, deps, code: cache };
    // The interpreter reads the IP before every fetch; inside the block the
    // value is statically known, so one read at entry is FSM-equivalent
    // (later reads would all be reads-after-write).
    ctx.note_read(IP_OFFSET, 4);
    let entry = block.entry;
    // An interior stop IP caps every pass at the constituent whose
    // retirement lands the IP exactly on it.
    let delta = stop_ip.wrapping_sub(entry);
    let interior_stop = if delta % INSTRUCTION_BYTES == 0
        && (1..=block.len).contains(&(delta / INSTRUCTION_BYTES))
    {
        delta / INSTRUCTION_BYTES
    } else {
        u32::MAX
    };
    let mut retired: u64 = 0;
    'pass: loop {
        let limit = (budget - retired).min(block.len as u64).min(interior_stop as u64) as u32;
        // Constituents retired so far in this pass over the block.
        let mut pass: u32 = 0;
        for op in &block.ops {
            if pass + op.count as u32 > limit {
                break;
            }
            let addr = entry + op.first as u32 * INSTRUCTION_BYTES;
            match &op.kind {
                OpKind::One(lowered) => {
                    ctx.note_read(MEM_BASE + addr as usize, INSTRUCTION_BYTES as usize);
                    if let Err(error) = exec_lowered(&mut ctx, lowered, addr) {
                        return fault_exit(&mut ctx, entry, pass, retired, error);
                    }
                }
                OpKind::Pair(first, second) => {
                    ctx.note_read(MEM_BASE + addr as usize, INSTRUCTION_BYTES as usize);
                    if let Err(error) = exec_lowered(&mut ctx, first, addr) {
                        return fault_exit(&mut ctx, entry, pass, retired, error);
                    }
                    let next = addr + INSTRUCTION_BYTES;
                    ctx.note_read(MEM_BASE + next as usize, INSTRUCTION_BYTES as usize);
                    if let Err(error) = exec_lowered(&mut ctx, second, next) {
                        return fault_exit(&mut ctx, entry, pass + 1, retired, error);
                    }
                }
                OpKind::Jump { target } => {
                    ctx.note_read(MEM_BASE + addr as usize, INSTRUCTION_BYTES as usize);
                    ctx.write_ip(*target);
                    retired += (pass + 1) as u64;
                    if *target == entry
                        && *target != stop_ip
                        && retired < budget
                        && !ctx.code.active_invalidated()
                    {
                        continue 'pass;
                    }
                    return BlockExit { retired, fault: None };
                }
                OpKind::Branch { cmp, opcode, target } => {
                    let flags = match cmp {
                        Some((lhs_reg, rhs)) => {
                            ctx.note_read(MEM_BASE + addr as usize, INSTRUCTION_BYTES as usize);
                            let lhs = ctx.read_reg(*lhs_reg);
                            let rhs = match rhs {
                                CmpRhs::Reg(reg) => ctx.read_reg(*reg),
                                CmpRhs::Imm(imm) => *imm,
                            };
                            let flags = Flags::compare(lhs, rhs);
                            ctx.write_flags(flags);
                            let next = addr + INSTRUCTION_BYTES;
                            ctx.note_read(MEM_BASE + next as usize, INSTRUCTION_BYTES as usize);
                            // The compare just wrote the flags; using the
                            // value directly instead of the interpreter's
                            // read-back is FSM-equivalent
                            // (read-after-write).
                            flags
                        }
                        None => {
                            ctx.note_read(MEM_BASE + addr as usize, INSTRUCTION_BYTES as usize);
                            ctx.read_flags()
                        }
                    };
                    let next = if branch_taken(*opcode, flags) { *target } else { block.end() };
                    ctx.write_ip(next);
                    retired += (pass + op.count as u32) as u64;
                    if next == entry
                        && next != stop_ip
                        && retired < budget
                        && !ctx.code.active_invalidated()
                    {
                        continue 'pass;
                    }
                    return BlockExit { retired, fault: None };
                }
            }
            pass += op.count as u32;
            // A store may have invalidated this block: stop at the micro-op
            // boundary, exactly where the interpreter would next re-fetch
            // the modified bytes.
            if op.writes_mem && ctx.code.active_invalidated() {
                break;
            }
        }
        // Early stop or fall-off end: the next instruction is sequential.
        if pass > 0 {
            ctx.write_ip(entry + pass * INSTRUCTION_BYTES);
        }
        return BlockExit { retired: retired + pass as u64, fault: None };
    }
}

/// Exits a block on a faulting constituent. `completed` constituents fully
/// retired in the current pass before the fault (`retired` counts earlier
/// passes); the faulting one performed zero writes, and the IP points at it
/// (written by its predecessor — a prior constituent or the loop-back
/// terminator — or never touched when the very first constituent faults).
fn fault_exit<D: DepSink>(
    ctx: &mut Ctx<'_, D, BlockCache>,
    entry: u32,
    completed: u32,
    retired: u64,
    error: VmError,
) -> BlockExit {
    if completed > 0 {
        ctx.write_ip(entry + completed * INSTRUCTION_BYTES);
    }
    BlockExit { retired: retired + completed as u64, fault: Some(error) }
}

/// Straight-line instructions: everything except control flow and `halt`.
fn is_straight(opcode: Opcode) -> bool {
    use Opcode::*;
    !matches!(
        opcode,
        Halt | Jmp | Jeq | Jne | Jlt | Jle | Jgt | Jge | Jltu | Jgeu | JmpR | Call | Ret
    )
}

fn is_jcc(opcode: Opcode) -> bool {
    use Opcode::*;
    matches!(opcode, Jeq | Jne | Jlt | Jle | Jgt | Jge | Jltu | Jgeu)
}

/// Pure register-to-register work: fusible on either side of a pair.
fn is_reg_op(opcode: Opcode) -> bool {
    use Opcode::*;
    matches!(
        opcode,
        MovI | Mov
            | Neg
            | Not
            | Add
            | Sub
            | Mul
            | Div
            | Rem
            | And
            | Or
            | Xor
            | Shl
            | Shr
            | Sar
            | AddI
            | MulI
            | DivI
            | RemI
            | AndI
            | OrI
            | XorI
            | ShlI
            | ShrI
            | SarI
    )
}

/// Executes one pre-lowered constituent in the interpreter's operand-access
/// order.
#[inline(always)]
fn exec_lowered<D: DepSink>(
    ctx: &mut Ctx<'_, D, BlockCache>,
    op: &Lowered,
    addr: u32,
) -> VmResult<()> {
    match op {
        Lowered::MovImm { d, imm } => {
            ctx.write_reg(*d, *imm);
            Ok(())
        }
        Lowered::AluRR { op, d, a, b } => {
            let lhs = ctx.read_reg(*a);
            let rhs = ctx.read_reg(*b);
            ctx.write_reg(*d, alu_apply(*op, lhs, rhs));
            Ok(())
        }
        Lowered::AluRI { op, d, a, imm } => {
            let lhs = ctx.read_reg(*a);
            ctx.write_reg(*d, alu_apply(*op, lhs, *imm));
            Ok(())
        }
        Lowered::Generic(instruction) => exec_operate(ctx, instruction, addr),
    }
}

/// The ALU semantics shared with `exec_operate`'s `alu`, minus the
/// divide-by-zero path the lowered forms exclude.
#[inline(always)]
fn alu_apply(op: AluKind, lhs: u32, rhs: u32) -> u32 {
    match op {
        AluKind::Add => lhs.wrapping_add(rhs),
        AluKind::Sub => lhs.wrapping_sub(rhs),
        AluKind::Mul => lhs.wrapping_mul(rhs),
        AluKind::And => lhs & rhs,
        AluKind::Or => lhs | rhs,
        AluKind::Xor => lhs ^ rhs,
        AluKind::Shl => lhs.wrapping_shl(rhs & 31),
        AluKind::Shr => lhs.wrapping_shr(rhs & 31),
        AluKind::Sar => ((lhs as i32).wrapping_shr(rhs & 31)) as u32,
    }
}

/// Lowers a straight-line instruction at compile time: non-faulting ALU
/// forms get dedicated handlers, everything else stays generic.
fn lower(instruction: Instruction) -> Lowered {
    use Opcode::*;
    let kind = match instruction.opcode {
        MovI => {
            return Lowered::MovImm { d: instruction.a, imm: instruction.imm as u32 };
        }
        Add | AddI => AluKind::Add,
        Sub => AluKind::Sub,
        Mul | MulI => AluKind::Mul,
        And | AndI => AluKind::And,
        Or | OrI => AluKind::Or,
        Xor | XorI => AluKind::Xor,
        Shl | ShlI => AluKind::Shl,
        Shr | ShrI => AluKind::Shr,
        Sar | SarI => AluKind::Sar,
        _ => return Lowered::Generic(instruction),
    };
    match instruction.opcode {
        Add | Sub | Mul | And | Or | Xor | Shl | Shr | Sar => {
            Lowered::AluRR { op: kind, d: instruction.a, a: instruction.b, b: instruction.c }
        }
        _ => Lowered::AluRI {
            op: kind,
            d: instruction.a,
            a: instruction.b,
            imm: instruction.imm as u32,
        },
    }
}

/// Whether a straight-line instruction can write memory (and therefore
/// invalidate compiled code).
fn writes_memory(opcode: Opcode) -> bool {
    use Opcode::*;
    matches!(opcode, StW | StB | Push)
}

/// Whether two adjacent straight-line instructions fuse into one micro-op:
/// load/op, op/store, or op/op. A store never leads a pair (its write could
/// overwrite the trailing constituent's code bytes).
fn fusible(first: Opcode, second: Opcode) -> bool {
    use Opcode::*;
    let first_load = matches!(first, LdW | LdB);
    let second_store = matches!(second, StW | StB);
    (first_load && is_reg_op(second)) || (is_reg_op(first) && (second_store || is_reg_op(second)))
}

/// Compiles the straight-line region starting at `entry` into a block of
/// fused micro-ops. Returns `None` for regions shorter than two
/// instructions (nothing to win). Compilation reads the state directly —
/// *not* through a [`DepSink`] — because speculatively decoded bytes are
/// not dependencies; only retired constituents record their fetch at
/// execution time.
fn compile_block(state: &StateVector, entry: u32) -> Option<CompiledBlock> {
    let mut straight: Vec<Instruction> = Vec::new();
    let mut terminator: Option<Instruction> = None;
    let mut addr = entry;
    while straight.len() < MAX_BLOCK_LEN {
        let Ok(index) = state.mem_index(addr, INSTRUCTION_BYTES) else { break };
        let mut bytes = [0u8; INSTRUCTION_BYTES as usize];
        bytes.copy_from_slice(&state.as_bytes()[index..index + INSTRUCTION_BYTES as usize]);
        let Ok(instruction) = crate::encode::decode(&bytes, addr) else { break };
        if is_straight(instruction.opcode) {
            straight.push(instruction);
            addr += INSTRUCTION_BYTES;
            continue;
        }
        if matches!(instruction.opcode, Opcode::Jmp) || is_jcc(instruction.opcode) {
            terminator = Some(instruction);
        }
        // halt/jmpr/call/ret end the region unsupported: tier-0 handles them.
        break;
    }
    let len = straight.len() as u32 + u32::from(terminator.is_some());
    if len < 2 {
        return None;
    }

    let mut ops: Vec<MicroOp> = Vec::new();
    let mut fused = 0u32;
    // Reserve a trailing cmp/cmpi for fusion with a conditional terminator.
    let fuse_cmp = matches!(terminator, Some(t) if is_jcc(t.opcode))
        && matches!(straight.last(), Some(l) if matches!(l.opcode, Opcode::Cmp | Opcode::CmpI));
    let straight_end = straight.len() - usize::from(fuse_cmp);
    let mut i = 0usize;
    while i < straight_end {
        let first = straight[i];
        let (kind, writes_mem) = match straight.get(i + 1).filter(|_| i + 1 < straight_end) {
            Some(&second) if fusible(first.opcode, second.opcode) => {
                fused += 1;
                let writes = writes_memory(first.opcode) || writes_memory(second.opcode);
                (OpKind::Pair(lower(first), lower(second)), writes)
            }
            _ => (OpKind::One(lower(first)), writes_memory(first.opcode)),
        };
        let count = match kind {
            OpKind::Pair(..) => 2u16,
            _ => 1u16,
        };
        ops.push(MicroOp { kind, first: i as u16, count, writes_mem });
        i += count as usize;
    }
    if let Some(t) = terminator {
        if is_jcc(t.opcode) {
            let cmp = fuse_cmp.then(|| {
                let compare = straight[straight_end];
                let rhs = match compare.opcode {
                    Opcode::CmpI => CmpRhs::Imm(compare.imm as u32),
                    _ => CmpRhs::Reg(compare.b),
                };
                (compare.a, rhs)
            });
            if fuse_cmp {
                fused += 1;
            }
            ops.push(MicroOp {
                kind: OpKind::Branch { cmp, opcode: t.opcode, target: t.imm as u32 },
                first: straight_end as u16,
                count: 1 + u16::from(fuse_cmp),
                writes_mem: false,
            });
        } else {
            ops.push(MicroOp {
                kind: OpKind::Jump { target: t.imm as u32 },
                first: straight.len() as u16,
                count: 1,
                writes_mem: false,
            });
        }
    }

    let start = MEM_BASE + entry as usize;
    let code = state.as_bytes()[start..start + (len * INSTRUCTION_BYTES) as usize].to_vec();
    Some(CompiledBlock { entry, len, ops, fused, code })
}

/// Runs `state` to completion (or `budget`) under the tiered driver and a
/// throwaway stop IP no program reaches. Convenience for tests and
/// benchmarks.
///
/// # Errors
/// Propagates the fault when execution faults.
pub fn run_tiered_to_halt(
    state: &mut StateVector,
    cache: &mut BlockCache,
    budget: u64,
) -> VmResult<u64> {
    let (retired, exit) = run_segment(state, &mut crate::exec::NoDeps, cache, u32::MAX, budget);
    match exit {
        SegmentExit::Halted => Ok(retired),
        SegmentExit::Budget => Err(VmError::InstructionBudgetExceeded { budget }),
        SegmentExit::Fault(error) => Err(error),
        SegmentExit::StopIp => unreachable!("stop IP is unreachable"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::DepVector;
    use crate::encode::{encode, encode_all};
    use crate::exec::{transition, NoDeps};
    use crate::isa::{Instruction as I, Reg, SP};

    fn r(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    fn machine_with(program: &[I], mem: usize) -> StateVector {
        let mut state = StateVector::new(mem).unwrap();
        state.write_mem(0, &encode_all(program)).unwrap();
        state.set_reg(SP, mem as u32);
        state
    }

    fn eager() -> TierConfig {
        TierConfig { enabled: true, hot_threshold: 1 }
    }

    /// The down-counting loop used across the repo's tests and benches.
    fn counting_loop(iterations: i32) -> Vec<I> {
        vec![
            I::ri(Opcode::MovI, r(1), iterations),
            I::ri(Opcode::MovI, r(2), 0),
            I::rrr(Opcode::Add, r(2), r(2), r(1)), // addr 16 (loop head)
            I::rri(Opcode::AddI, r(1), r(1), -1),
            I::ri(Opcode::CmpI, r(1), 0),
            I::i(Opcode::Jne, 16),
            I::bare(Opcode::Halt),
        ]
    }

    /// Runs `program` to halt twice — pure tier-0 and tiered with an eager
    /// threshold — and asserts identical final states and retired counts.
    fn assert_tiered_execution_matches(program: &[I], mem: usize, budget: u64) {
        let mut plain = machine_with(program, mem);
        let mut tiered = machine_with(program, mem);
        let mut plain_retired = 0u64;
        for _ in 0..budget {
            match transition(&mut plain, None).unwrap() {
                StepOutcome::Continue => plain_retired += 1,
                StepOutcome::Halted => break,
            }
        }
        let mut cache = BlockCache::new(&tiered, eager());
        let tiered_retired = run_tiered_to_halt(&mut tiered, &mut cache, budget).unwrap();
        assert_eq!(plain, tiered);
        assert_eq!(plain_retired, tiered_retired);
        assert!(cache.stats().blocks_compiled > 0, "tier never engaged: {:?}", cache.stats());
    }

    #[test]
    fn tiered_loop_matches_interpreter() {
        assert_tiered_execution_matches(&counting_loop(100), 512, 10_000);
    }

    #[test]
    fn tiered_calls_loads_stores_match_interpreter() {
        // Mixes supported blocks with unsupported call/ret/push/pop fallback
        // and memory traffic.
        let program = [
            I::ri(Opcode::MovI, r(1), 8),          // 0: loop counter
            I::ri(Opcode::MovI, r(3), 256),        // 8: buffer base
            I::i(Opcode::Call, 7 * 8),             // 16: call body
            I::rri(Opcode::AddI, r(1), r(1), -1),  // 24
            I::ri(Opcode::CmpI, r(1), 0),          // 32
            I::i(Opcode::Jne, 16),                 // 40
            I::bare(Opcode::Halt),                 // 48
            I::r(Opcode::Push, r(1)),              // 56: body
            I::rri(Opcode::StW, r(3), r(1), 0),    // 64
            I::rri(Opcode::LdW, r(4), r(3), 0),    // 72
            I::rrr(Opcode::Add, r(5), r(5), r(4)), // 80
            I::r(Opcode::Pop, r(1)),               // 88
            I::bare(Opcode::Ret),                  // 96
        ];
        assert_tiered_execution_matches(&program, 1024, 10_000);
    }

    #[test]
    fn self_modifying_store_invalidates_compiled_block() {
        // The exec.rs regression program, re-run under the tier: the hot
        // region at 24 is patched by stores at 48/56, so the compiled block
        // covering it must be invalidated mid-run or the rerun at 24 would
        // retire stale micro-ops.
        let movi_r2_99 = encode(&I::ri(Opcode::MovI, r(2), 99));
        let lo = i32::from_le_bytes([movi_r2_99[0], movi_r2_99[1], movi_r2_99[2], movi_r2_99[3]]);
        let hi = i32::from_le_bytes([movi_r2_99[4], movi_r2_99[5], movi_r2_99[6], movi_r2_99[7]]);
        let program = [
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
        ];
        let mut plain = machine_with(&program, 512);
        let mut tiered = machine_with(&program, 512);
        let mut plain_retired = 0u64;
        for _ in 0..1000 {
            match transition(&mut plain, None).unwrap() {
                StepOutcome::Continue => plain_retired += 1,
                StepOutcome::Halted => break,
            }
        }
        let mut cache = BlockCache::new(&tiered, eager());
        let tiered_retired = run_tiered_to_halt(&mut tiered, &mut cache, 1000).unwrap();
        assert_eq!(plain, tiered);
        assert_eq!(plain_retired, tiered_retired);
        let stats = cache.stats();
        assert!(stats.blocks_compiled > 0, "{stats:?}");
        assert!(stats.blocks_invalidated > 0, "the patching stores must invalidate: {stats:?}");
    }

    #[test]
    fn store_into_own_block_stops_at_micro_op_boundary() {
        // A block that rewrites one of its *later* constituents before
        // reaching it: instruction at 8 patches the slot at 24 (inside the
        // same straight-line region) to `movi r4, 7`. The executing block
        // must stop at the store's boundary and tier-0 must pick up the
        // freshly written bytes.
        let movi_r4_7 = encode(&I::ri(Opcode::MovI, r(4), 7));
        let lo = i32::from_le_bytes([movi_r4_7[0], movi_r4_7[1], movi_r4_7[2], movi_r4_7[3]]);
        let hi = i32::from_le_bytes([movi_r4_7[4], movi_r4_7[5], movi_r4_7[6], movi_r4_7[7]]);
        let program = [
            I::ri(Opcode::MovI, r(5), 32),      // 0: target address
            I::ri(Opcode::MovI, r(6), lo),      // 8
            I::ri(Opcode::MovI, r(7), hi),      // 16
            I::rri(Opcode::StW, r(5), r(6), 0), // 24: patch low word of 32
            I::rri(Opcode::StW, r(5), r(7), 4), // 32: patches itself! (hi word)
            I::bare(Opcode::Halt),              // 40 (becomes movi r4, 7? no:
                                                // 32 is overwritten; see below)
        ];
        // Run a loop entering at 0 repeatedly is unnecessary: the entry at 0
        // is compiled eagerly and spans the stores.
        let mut plain = machine_with(&program, 512);
        let mut tiered = machine_with(&program, 512);
        let mut plain_retired = 0u64;
        for _ in 0..1000 {
            match transition(&mut plain, None).unwrap() {
                StepOutcome::Continue => plain_retired += 1,
                StepOutcome::Halted => break,
            }
        }
        let mut cache = BlockCache::new(&tiered, eager());
        let tiered_retired = run_tiered_to_halt(&mut tiered, &mut cache, 1000).unwrap();
        assert_eq!(plain, tiered);
        assert_eq!(plain_retired, tiered_retired);
        assert!(cache.stats().blocks_invalidated > 0, "{:?}", cache.stats());
    }

    #[test]
    fn dependency_footprint_matches_interpreter() {
        let program = [
            I::ri(Opcode::MovI, r(1), 100),
            I::ri(Opcode::MovI, r(3), 4),       // loop counter
            I::rri(Opcode::LdW, r(2), r(1), 0), // 16: loop head; load
            I::rri(Opcode::AddI, r(2), r(2), 3),
            I::rri(Opcode::StW, r(1), r(2), 64), // store away from code
            I::rri(Opcode::AddI, r(3), r(3), -1),
            I::ri(Opcode::CmpI, r(3), 0),
            I::i(Opcode::Jne, 16),
            I::bare(Opcode::Halt),
        ];
        let mut plain = machine_with(&program, 512);
        let mut tiered = machine_with(&program, 512);
        plain.store_word(100, 7).unwrap();
        tiered.store_word(100, 7).unwrap();
        let mut deps_plain = DepVector::new(plain.len_bytes());
        let mut deps_tiered = DepVector::new(tiered.len_bytes());
        loop {
            if transition(&mut plain, Some(&mut deps_plain)).unwrap() == StepOutcome::Halted {
                break;
            }
        }
        let mut cache = BlockCache::new(&tiered, eager());
        let (_, exit) = run_segment(&mut tiered, &mut deps_tiered, &mut cache, u32::MAX, 1000);
        match exit {
            SegmentExit::Halted => {}
            SegmentExit::Budget | SegmentExit::StopIp => panic!("unexpected exit"),
            SegmentExit::Fault(error) => panic!("fault: {error}"),
        }
        assert_eq!(plain, tiered);
        // The whole point: identical read/write sets mean cache entries
        // built from tier-1 supersteps match tier-0's bit for bit.
        assert_eq!(deps_plain, deps_tiered);
        assert!(cache.stats().tier1_instructions > 0, "{:?}", cache.stats());
        assert!(cache.stats().fused_ops > 0, "{:?}", cache.stats());
    }

    #[test]
    fn budget_stops_exactly_mid_block() {
        let program = counting_loop(50);
        for budget in 1..40u64 {
            let mut plain = machine_with(&program, 512);
            let mut tiered = machine_with(&program, 512);
            let mut plain_retired = 0u64;
            for _ in 0..budget {
                match transition(&mut plain, None).unwrap() {
                    StepOutcome::Continue => plain_retired += 1,
                    StepOutcome::Halted => break,
                }
            }
            let mut cache = BlockCache::new(&tiered, eager());
            let (retired, exit) =
                run_segment(&mut tiered, &mut NoDeps, &mut cache, u32::MAX, budget);
            assert_eq!(exit, SegmentExit::Budget, "budget {budget}");
            assert_eq!(retired, plain_retired, "budget {budget}");
            assert_eq!(plain, tiered, "budget {budget}");
        }
    }

    #[test]
    fn interior_stop_ip_is_exact() {
        // Stop at every address inside the hot loop; retired counts and
        // states must match a tier-0 run_until_ip-style loop.
        let program = counting_loop(50);
        for stop in [16u32, 24, 32, 40] {
            let mut plain = machine_with(&program, 512);
            let mut tiered = machine_with(&program, 512);
            let mut cache = BlockCache::new(&tiered, eager());
            // Cross several occurrences so the block is hot and the stop
            // lands both at the entry and mid-block.
            for occurrence in 0..20 {
                let mut plain_retired = 0u64;
                loop {
                    assert_eq!(transition(&mut plain, None).unwrap(), StepOutcome::Continue);
                    plain_retired += 1;
                    if plain.ip() == stop {
                        break;
                    }
                }
                let (retired, exit) =
                    run_segment(&mut tiered, &mut NoDeps, &mut cache, stop, 10_000);
                assert_eq!(exit, SegmentExit::StopIp, "stop {stop} occurrence {occurrence}");
                assert_eq!(retired, plain_retired, "stop {stop} occurrence {occurrence}");
                assert_eq!(plain, tiered, "stop {stop} occurrence {occurrence}");
            }
            assert!(cache.stats().tier1_instructions > 0, "{:?}", cache.stats());
        }
    }

    #[test]
    fn fault_mid_block_reports_exact_count_and_state() {
        // r1 counts down 5..0; dividing by it faults on the sixth pass —
        // inside a compiled, fused block.
        let program = [
            I::ri(Opcode::MovI, r(1), 5),
            I::ri(Opcode::MovI, r(2), 100),
            I::rrr(Opcode::Div, r(3), r(2), r(1)), // 16: loop head; faults when r1 == 0
            I::rri(Opcode::AddI, r(1), r(1), -1),
            I::ri(Opcode::CmpI, r(1), -1),
            I::i(Opcode::Jne, 16),
            I::bare(Opcode::Halt),
        ];
        let mut plain = machine_with(&program, 512);
        let mut tiered = machine_with(&program, 512);
        let mut plain_retired = 0u64;
        let plain_error = loop {
            match transition(&mut plain, None) {
                Ok(StepOutcome::Continue) => plain_retired += 1,
                Ok(StepOutcome::Halted) => panic!("program should fault"),
                Err(error) => break error,
            }
        };
        let mut cache = BlockCache::new(&tiered, eager());
        let (retired, exit) = run_segment(&mut tiered, &mut NoDeps, &mut cache, u32::MAX, 10_000);
        let SegmentExit::Fault(tiered_error) = exit else { panic!("expected fault, got {exit:?}") };
        assert_eq!(tiered_error, plain_error);
        assert_eq!(retired, plain_retired);
        assert_eq!(plain, tiered, "at-fault states must match (IP, registers, flags)");
        assert!(cache.stats().tier1_instructions > 0, "{:?}", cache.stats());
    }

    #[test]
    fn seed_hot_compiles_on_first_arrival() {
        let program = counting_loop(50);
        let mut state = machine_with(&program, 512);
        let mut cache = BlockCache::new(&state, TierConfig { hot_threshold: 1_000_000, ..eager() });
        cache.seed_hot(16);
        let retired = run_tiered_to_halt(&mut state, &mut cache, 10_000).unwrap();
        assert_eq!(retired, 2 + 4 * 50);
        let stats = cache.stats();
        assert_eq!(stats.blocks_compiled, 1, "{stats:?}");
        assert!(stats.tier1_instructions > stats.tier0_instructions, "{stats:?}");
    }

    #[test]
    fn disabled_tier_never_compiles() {
        let program = counting_loop(50);
        let mut state = machine_with(&program, 512);
        let mut cache = BlockCache::new(&state, TierConfig::disabled());
        cache.seed_hot(16);
        let retired = run_tiered_to_halt(&mut state, &mut cache, 10_000).unwrap();
        assert_eq!(retired, 2 + 4 * 50);
        let stats = cache.stats();
        assert_eq!(stats.blocks_compiled, 0);
        assert_eq!(stats.tier1_instructions, 0);
        let mut plain = machine_with(&program, 512);
        while transition(&mut plain, None).unwrap() == StepOutcome::Continue {}
        assert_eq!(plain, state);
    }

    #[test]
    fn reset_for_keeps_matching_blocks_and_drops_stale_ones() {
        let program = counting_loop(50);
        let mut state = machine_with(&program, 512);
        let mut cache = BlockCache::new(&state, eager());
        run_tiered_to_halt(&mut state, &mut cache, 10_000).unwrap();
        let compiled = cache.stats().blocks_compiled;
        assert!(compiled > 0);

        // Same program, fresh state: blocks survive the reset and execution
        // reuses them without recompiling.
        let mut again = machine_with(&program, 512);
        cache.reset_for(&again);
        run_tiered_to_halt(&mut again, &mut cache, 10_000).unwrap();
        assert_eq!(cache.stats().blocks_compiled, compiled, "no recompilation expected");

        // Different code bytes at the same addresses: stale blocks must go.
        let other = machine_with(&counting_loop(7), 512);
        let mut other_state = {
            let mut s = other.clone();
            s.store_word(200, 1).unwrap(); // also differ in data, harmless
            s
        };
        // Rewrite the loop body so the snapshot mismatches.
        let patched = encode(&I::rrr(Opcode::Sub, r(2), r(2), r(1)));
        other_state.write_mem(16, &patched).unwrap();
        cache.reset_for(&other_state);
        let mut plain = other_state.clone();
        while transition(&mut plain, None).unwrap() == StepOutcome::Continue {}
        run_tiered_to_halt(&mut other_state, &mut cache, 10_000).unwrap();
        assert_eq!(plain, other_state);
        assert!(cache.stats().blocks_compiled > compiled, "stale block must recompile");
    }

    #[test]
    fn fused_chain_heavy_kernel_matches_interpreter() {
        // Long runs of fusible arithmetic with an interleaved load/store —
        // the shape the pair fusion targets.
        let program = [
            I::ri(Opcode::MovI, r(1), 64),
            I::ri(Opcode::MovI, r(2), 1),
            I::ri(Opcode::MovI, r(3), 256),
            I::rri(Opcode::MulI, r(2), r(2), 3), // 24: loop head
            I::rri(Opcode::AddI, r(2), r(2), 1),
            I::rri(Opcode::XorI, r(2), r(2), 0x55),
            I::rrr(Opcode::Add, r(4), r(2), r(1)),
            I::rri(Opcode::StW, r(3), r(4), 0),
            I::rri(Opcode::LdW, r(5), r(3), 0),
            I::rrr(Opcode::Add, r(6), r(6), r(5)),
            I::rri(Opcode::AddI, r(1), r(1), -1),
            I::ri(Opcode::CmpI, r(1), 0),
            I::i(Opcode::Jne, 24),
            I::bare(Opcode::Halt),
        ];
        assert_tiered_execution_matches(&program, 1024, 100_000);
    }

    #[test]
    fn block_cache_as_decode_cache_matches_decoded_cache() {
        // transition_cached over a BlockCache (tier idle) behaves exactly
        // like over a DecodedCache, including store invalidation.
        let program = counting_loop(20);
        let mut a = machine_with(&program, 512);
        let mut b = machine_with(&program, 512);
        let mut decoded = DecodedCache::new(&a);
        let mut blockcache = BlockCache::new(&b, TierConfig::default());
        loop {
            let x = transition_cached(&mut a, &mut NoDeps, &mut decoded).unwrap();
            let y = transition_cached(&mut b, &mut NoDeps, &mut blockcache).unwrap();
            assert_eq!(x, y);
            if x == StepOutcome::Halted {
                break;
            }
        }
        assert_eq!(a, b);
    }

    #[test]
    fn single_instruction_regions_are_rejected() {
        // `jmp spin` is a one-instruction region: compiling it wins nothing.
        let program = [I::i(Opcode::Jmp, 0)];
        let mut state = machine_with(&program, 128);
        let mut cache = BlockCache::new(&state, eager());
        let (retired, exit) = run_segment(&mut state, &mut NoDeps, &mut cache, u32::MAX, 100);
        assert_eq!(exit, SegmentExit::Budget);
        assert_eq!(retired, 100);
        assert_eq!(cache.stats().blocks_compiled, 0);
        assert_eq!(cache.stats().tier0_instructions, 100);
    }
}
