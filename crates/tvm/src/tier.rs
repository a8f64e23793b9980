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
//! dispatch loop. Blocks run where they rest in the slot table: the loop
//! reads the IP once per block entry and writes it once per block exit,
//! re-enters a block that jumps to its own entry, and continues straight
//! into a successor that is already compiled, so a chain of short hot
//! blocks never goes back to [`run_segment`] between them.
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
//!   funnels through one range sweep that clears both decoded slots and
//!   overlapping compiled blocks — the two tiers cannot disagree about
//!   what is stale. While blocks execute, the slot table is borrowed, so a
//!   store only drops the hit blocks' ranges and *records* their slots;
//!   the slots are reset when execution returns to [`run_segment`], and no
//!   block is chained into while a reset is pending. A store into the
//!   *currently executing* block stops it at the end of the current
//!   micro-op, which is precisely where the interpreter would next
//!   re-fetch the modified bytes.
//!
//! The driver, [`run_segment`], interleaves block execution with tier-0
//! single-stepping and is the engine under both the main thread's
//! `Machine::run_until_ip` and worker supersteps. Hotness is consulted only
//! when `run_segment` arrives somewhere by a jump (and at segment entry), so
//! sequential fall-through pays nothing; a block execution returns to it
//! only at a stop, a fault, the budget, an invalidation, or a jump to a
//! slot with no compiled block.

use crate::error::{VmError, VmResult};
use crate::exec::{
    branch_taken, exec_operate, transition_cached, Ctx, DecodeCache, DecodedCache, DepSink,
    StepOutcome,
};
use crate::isa::{Flags, Instruction, Opcode, INSTRUCTION_BYTES};
use crate::state::{StateVector, IP_OFFSET, MEM_BASE};
use std::ops::ControlFlow;

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

/// One fused straight-line micro-op: one or two constituents.
#[derive(Debug, Clone, Copy)]
struct MicroOp {
    kind: OpKind,
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
}

/// The jump that closes a block.
#[derive(Debug, Clone, Copy)]
enum Terminator {
    /// An unconditional `jmp`.
    Jump { target: u32 },
    /// A conditional jump, optionally fused with the `cmp`/`cmpi`
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
    /// The straight-line micro-ops, in order.
    ops: Vec<MicroOp>,
    /// The closing jump; `None` when the region ends at an instruction
    /// tier-0 must execute (`halt`, `call`, `ret`, `jmpr`, an undecodable
    /// word) or at the length cap.
    exit: Option<Terminator>,
    /// Multi-instruction micro-ops and compare-fused terminators (for
    /// [`TierStats::fused_ops`]).
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

/// The extent of the block currently executing. A store overlapping
/// `[start, end)` sets `invalidated`, which stops the execution at the
/// current micro-op boundary.
#[derive(Debug, Clone, Default)]
struct ActiveBlock {
    start: u32,
    end: u32,
    invalidated: bool,
}

/// The part of the tier-1 cache a store can touch while compiled blocks
/// execute: tier-0's decoded cache, the extents of the compiled blocks, the
/// active block, the counters and the slot resets stores left pending. It
/// is the block executor's decode cache; the slot table stays in
/// [`BlockCache`], borrowed shared for the whole execution.
#[derive(Debug, Clone)]
struct CodeTracker {
    decoded: DecodedCache,
    /// `(start, end, slot index)` extents of every compiled block, scanned
    /// on store invalidation. Blocks are few (one per hot region), so the
    /// scan is cheaper than any per-byte index.
    ranges: Vec<(u32, u32, u32)>,
    /// Meaningful only while a block executes.
    active: ActiveBlock,
    stats: TierStats,
    /// Slots whose compiled block a store invalidated during the current
    /// execution, reset by [`BlockCache::finish`] once it ends.
    resets: Vec<u32>,
}

impl DecodeCache for CodeTracker {
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
        self.decoded.invalidate(addr, len);
        self.invalidate_blocks(addr, len);
    }
}

impl CodeTracker {
    /// Drops every compiled block overlapping the written byte range,
    /// records its slot for [`BlockCache::finish`] to reset, and flags the
    /// active block when it is hit. Kept out of line like
    /// `BlockCache::invalidate_blocks`.
    #[inline(never)]
    fn invalidate_blocks(&mut self, addr: u32, len: u32) {
        if len == 0 || self.ranges.is_empty() {
            // An active block whose range is gone was already invalidated.
            return;
        }
        let end = addr.saturating_add(len);
        let active = &mut self.active;
        if addr < active.end && end > active.start {
            active.invalidated = true;
        }
        let resets = &mut self.resets;
        drop_ranges(&mut self.ranges, &mut self.stats, addr, end, |slot| resets.push(slot));
    }
}

/// Removes every block extent overlapping the written bytes `[addr, end)`,
/// counts it invalidated and hands its slot index to `drop_slot`: the one
/// range sweep behind both invalidation paths.
#[inline]
fn drop_ranges(
    ranges: &mut Vec<(u32, u32, u32)>,
    stats: &mut TierStats,
    addr: u32,
    end: u32,
    mut drop_slot: impl FnMut(u32),
) {
    ranges.retain(|&(start, block_end, slot)| {
        let hit = addr < block_end && end > start;
        if hit {
            drop_slot(slot);
            stats.blocks_invalidated += 1;
        }
        !hit
    });
}

/// The tier-1 execution cache: a slot table of hotness counters and
/// compiled blocks, plus the code tracker stores invalidate through.
///
/// `BlockCache` implements [`DecodeCache`] by containment: `cached` and
/// `remember` delegate to the inner decoded cache, while `invalidate`
/// clears *both* decoded slots and overlapping compiled blocks. Passing a
/// `BlockCache` to [`transition_cached`] therefore gives exactly tier-0
/// semantics — which is what [`run_segment`] does between blocks. Blocks
/// execute in place, borrowed from the slot table; a store made meanwhile
/// is recorded by the tracker and its slot resets wait until execution
/// returns to [`run_segment`].
#[derive(Debug, Clone)]
pub struct BlockCache {
    config: TierConfig,
    /// One slot per 8-byte-aligned instruction position (empty when the
    /// tier is disabled).
    blocks: Vec<BlockSlot>,
    code: CodeTracker,
}

impl BlockCache {
    /// Creates a cache sized for `state`'s memory segment.
    pub fn new(state: &StateVector, config: TierConfig) -> Self {
        let slots = if config.enabled { state.mem_size() / INSTRUCTION_BYTES as usize } else { 0 };
        let mut blocks = Vec::new();
        blocks.resize_with(slots, || BlockSlot::Counting(0));
        BlockCache {
            config,
            blocks,
            code: CodeTracker {
                decoded: DecodedCache::new(state),
                ranges: Vec::new(),
                active: ActiveBlock::default(),
                stats: TierStats::default(),
                resets: Vec::new(),
            },
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
        self.code.stats
    }

    /// Drains the tier counters, returning everything accumulated since the
    /// last drain. Long-lived workers call this per job to publish deltas.
    pub fn take_stats(&mut self) -> TierStats {
        std::mem::take(&mut self.code.stats)
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
        self.code.decoded.clear();
        self.code.stats.blocks_invalidated += self.code.ranges.len() as u64;
        self.code.ranges.clear();
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
        self.code.decoded.reset_for(state);
        let slots =
            if self.config.enabled { state.mem_size() / INSTRUCTION_BYTES as usize } else { 0 };
        if self.blocks.len() != slots {
            self.blocks.clear();
            self.blocks.resize_with(slots, || BlockSlot::Counting(0));
            self.code.ranges.clear();
            return;
        }
        let blocks = &mut self.blocks;
        let threshold = self.config.hot_threshold;
        self.code.ranges.retain(|&(_, _, slot)| {
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

    /// Records a jump arrival at `ip`: bumps the hotness counter and
    /// compiles the region into its slot once hot. Returns the slot index
    /// when a compiled block rests there.
    fn arrive(&mut self, ip: u32, state: &StateVector) -> Option<usize> {
        if ip % INSTRUCTION_BYTES != 0 {
            return None;
        }
        let index = (ip / INSTRUCTION_BYTES) as usize;
        let slot = self.blocks.get_mut(index)?;
        match slot {
            BlockSlot::Rejected => None,
            BlockSlot::Compiled(_) => Some(index),
            BlockSlot::Counting(n) => {
                *n = n.saturating_add(1);
                if *n < self.config.hot_threshold.max(1) {
                    return None;
                }
                match compile_block(state, ip) {
                    Some(block) => {
                        self.code.stats.blocks_compiled += 1;
                        self.code.stats.fused_ops += block.fused as u64;
                        self.code.ranges.push((block.entry, block.end(), index as u32));
                        *slot = BlockSlot::Compiled(Box::new(block));
                        Some(index)
                    }
                    None => {
                        *slot = BlockSlot::Rejected;
                        None
                    }
                }
            }
        }
    }

    /// Ends a block execution: counts its retired constituents and resets
    /// every slot whose block one of its stores invalidated — the executing
    /// block's own included — to a zero hotness count, avoiding a
    /// compile/invalidate thrash on self-modifying loops. The resets wait
    /// until here because the slot table is borrowed while blocks execute.
    fn finish(&mut self, retired: u64) {
        self.code.stats.tier1_instructions += retired;
        for slot in self.code.resets.drain(..) {
            self.blocks[slot as usize] = BlockSlot::Counting(0);
        }
    }

    /// Drops every compiled block overlapping the written byte range. No
    /// block is executing, so the hit slots reset at once. Kept out of
    /// line: every store pays the call, few stores hit compiled code.
    #[inline(never)]
    fn invalidate_blocks(&mut self, addr: u32, len: u32) {
        if len == 0 || self.code.ranges.is_empty() {
            return;
        }
        let blocks = &mut self.blocks;
        drop_ranges(
            &mut self.code.ranges,
            &mut self.code.stats,
            addr,
            addr.saturating_add(len),
            |slot| blocks[slot as usize] = BlockSlot::Counting(0),
        );
    }
}

impl DecodeCache for BlockCache {
    #[inline]
    fn cached(&self, addr: u32) -> Option<Instruction> {
        self.code.decoded.cached(addr)
    }

    #[inline]
    fn remember(&mut self, addr: u32, instruction: Instruction) {
        self.code.decoded.remember(addr, instruction);
    }

    #[inline]
    fn invalidate(&mut self, addr: u32, len: u32) {
        // The single shared invalidation path: decoded slots and compiled
        // blocks go stale together or not at all.
        self.code.decoded.invalidate(addr, len);
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
/// segment entry), so sequential fall-through execution pays nothing; a
/// block execution chains through compiled successors on its own and comes
/// back here only when it cannot continue in tier-1. Results — final
/// state, dependency footprint, retired counts — are bit-identical to a
/// pure tier-0 loop.
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
            if let Some(index) = cache.arrive(ip, state) {
                let BlockSlot::Compiled(block) = &cache.blocks[index] else {
                    unreachable!("arrive returned a slot without a compiled block")
                };
                let exit = execute_block(
                    &cache.blocks,
                    block,
                    state,
                    deps,
                    &mut cache.code,
                    stop_ip,
                    budget - retired,
                );
                cache.finish(exit.retired);
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
                cache.code.stats.tier0_instructions += 1;
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

/// The compiled block resting in `ip`'s slot, when execution may continue
/// straight into it: only while no store has left a slot reset pending,
/// since the pending slot could be this one.
#[inline]
fn successor<'b>(
    blocks: &'b [BlockSlot],
    code: &CodeTracker,
    ip: u32,
) -> Option<&'b CompiledBlock> {
    if !code.resets.is_empty() || ip % INSTRUCTION_BYTES != 0 {
        return None;
    }
    match blocks.get((ip / INSTRUCTION_BYTES) as usize) {
        Some(BlockSlot::Compiled(block)) => Some(block),
        _ => None,
    }
}

/// Runs compiled blocks with the threaded dispatch loop, starting at
/// `block` and borrowing each from the slot table `blocks`: a terminator
/// that jumps to a slot holding a compiled block continues in that block
/// (see [`successor`]); any other exit returns to `run_segment`.
fn execute_block<'b, D: DepSink>(
    blocks: &'b [BlockSlot],
    mut block: &'b CompiledBlock,
    state: &mut StateVector,
    deps: &mut D,
    code: &mut CodeTracker,
    stop_ip: u32,
    budget: u64,
) -> BlockExit {
    let mut ctx = Ctx { state, deps, code };
    let mut retired: u64 = 0;
    loop {
        let next;
        (next, retired) = match run_block(&mut ctx, block, stop_ip, budget, retired) {
            ControlFlow::Continue(jumped) => jumped,
            ControlFlow::Break(exit) => return exit,
        };
        match successor(blocks, ctx.code, next) {
            Some(chained) => block = chained,
            None => return BlockExit { retired, fault: None },
        }
    }
}

/// Runs one compiled block, `retired` constituents into the execution.
///
/// At the terminator, execution stops when the budget is spent, the next
/// IP is the stop IP, or a store invalidated the block. Otherwise a jump
/// back to the block's own entry — the shape of every hot loop — re-enters
/// it directly, and a jump anywhere else continues with `(next IP,
/// retired)` for the caller to chain. A micro-op that would overrun the
/// remaining budget (or an interior stop IP) is not started;
/// `run_segment` single-steps across the boundary. `Break` carries the final exit.
///
/// The IP is read once at entry and written once per block exit;
/// per-constituent fetch reads are recorded in strict fetch-then-execute
/// order, so the dependency footprint matches tier-0 byte for byte.
#[inline(always)]
fn run_block<D: DepSink>(
    ctx: &mut Ctx<'_, D, CodeTracker>,
    block: &CompiledBlock,
    stop_ip: u32,
    budget: u64,
    mut retired: u64,
) -> ControlFlow<BlockExit, (u32, u64)> {
    let entry = block.entry;
    ctx.code.active = ActiveBlock { start: entry, end: block.end(), invalidated: false };
    // The interpreter reads the IP before every fetch; inside the block the
    // value is statically known, so one read at entry is FSM-equivalent
    // (later reads would all be reads-after-write).
    ctx.note_read(IP_OFFSET, 4);
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
    'pass: loop {
        let limit = (budget - retired).min(block.len as u64).min(interior_stop as u64) as u32;
        // Constituents retired so far in this pass over the block.
        let mut pass: u32 = 0;
        'stop: {
            for op in &block.ops {
                if pass + op.count as u32 > limit {
                    break 'stop;
                }
                let addr = entry + pass * INSTRUCTION_BYTES;
                ctx.note_read(MEM_BASE + addr as usize, INSTRUCTION_BYTES as usize);
                match &op.kind {
                    OpKind::One(lowered) => {
                        if let Err(error) = exec_lowered(ctx, lowered, addr) {
                            return ControlFlow::Break(fault_exit(
                                ctx, entry, pass, retired, error,
                            ));
                        }
                    }
                    OpKind::Pair(first, second) => {
                        if let Err(error) = exec_lowered(ctx, first, addr) {
                            return ControlFlow::Break(fault_exit(
                                ctx, entry, pass, retired, error,
                            ));
                        }
                        let next = addr + INSTRUCTION_BYTES;
                        ctx.note_read(MEM_BASE + next as usize, INSTRUCTION_BYTES as usize);
                        if let Err(error) = exec_lowered(ctx, second, next) {
                            return ControlFlow::Break(fault_exit(
                                ctx,
                                entry,
                                pass + 1,
                                retired,
                                error,
                            ));
                        }
                    }
                }
                pass += op.count as u32;
                // A store may have invalidated this block: stop at the
                // micro-op boundary, exactly where the interpreter
                // would next re-fetch the modified bytes.
                if op.writes_mem && ctx.code.active.invalidated {
                    break 'stop;
                }
            }
            let Some(exit) = &block.exit else { break 'stop };
            let addr = entry + pass * INSTRUCTION_BYTES;
            let (next, count) = match exit {
                Terminator::Jump { target } => {
                    if pass + 1 > limit {
                        break 'stop;
                    }
                    ctx.note_read(MEM_BASE + addr as usize, INSTRUCTION_BYTES as usize);
                    (*target, 1)
                }
                Terminator::Branch { cmp: Some((lhs_reg, rhs)), opcode, target } => {
                    if pass + 2 > limit {
                        break 'stop;
                    }
                    ctx.note_read(MEM_BASE + addr as usize, INSTRUCTION_BYTES as usize);
                    let lhs = ctx.read_reg(*lhs_reg);
                    let rhs = match rhs {
                        CmpRhs::Reg(reg) => ctx.read_reg(*reg),
                        CmpRhs::Imm(imm) => *imm,
                    };
                    let flags = Flags::compare(lhs, rhs);
                    ctx.write_flags(flags);
                    let jump = addr + INSTRUCTION_BYTES;
                    ctx.note_read(MEM_BASE + jump as usize, INSTRUCTION_BYTES as usize);
                    // The compare just wrote the flags; using the value
                    // directly instead of the interpreter's read-back
                    // is FSM-equivalent (read-after-write).
                    (if branch_taken(*opcode, flags) { *target } else { block.end() }, 2)
                }
                Terminator::Branch { cmp: None, opcode, target } => {
                    if pass + 1 > limit {
                        break 'stop;
                    }
                    ctx.note_read(MEM_BASE + addr as usize, INSTRUCTION_BYTES as usize);
                    let flags = ctx.read_flags();
                    (if branch_taken(*opcode, flags) { *target } else { block.end() }, 1)
                }
            };
            ctx.write_ip(next);
            retired += (pass + count) as u64;
            if next != stop_ip && retired < budget && !ctx.code.active.invalidated {
                if next == entry {
                    continue 'pass;
                }
                return ControlFlow::Continue((next, retired));
            }
            return ControlFlow::Break(BlockExit { retired, fault: None });
        }
        // Early stop or fall-off end: the next instruction is
        // sequential. (With `pass == 0` the IP already holds `entry`.)
        if pass > 0 {
            ctx.write_ip(entry + pass * INSTRUCTION_BYTES);
        }
        return ControlFlow::Break(BlockExit { retired: retired + pass as u64, fault: None });
    }
}

/// Exits a block on a faulting constituent. `completed` constituents fully
/// retired in the current pass before the fault (`retired` counts earlier
/// passes and blocks); the faulting one performed zero writes, and the IP
/// points at it (written by its predecessor — a prior constituent or the
/// terminator that entered this pass — or never touched when the very
/// first constituent faults).
fn fault_exit<D: DepSink>(
    ctx: &mut Ctx<'_, D, CodeTracker>,
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
    ctx: &mut Ctx<'_, D, CodeTracker>,
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
        ops.push(MicroOp { kind, count, writes_mem });
        i += count as usize;
    }
    let exit = terminator.map(|t| {
        if !is_jcc(t.opcode) {
            return Terminator::Jump { target: t.imm as u32 };
        }
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
        Terminator::Branch { cmp, opcode: t.opcode, target: t.imm as u32 }
    });

    let start = MEM_BASE + entry as usize;
    let code = state.as_bytes()[start..start + (len * INSTRUCTION_BYTES) as usize].to_vec();
    Some(CompiledBlock { entry, len, ops, exit, fused, code })
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

    // The counters the block executor produced for the chaining tests below
    // before it chained blocks: chaining changes where a successor is
    // entered from, never what compiles, invalidates or retires.
    const STORE_INTO_SUCCESSOR_STATS: TierStats = TierStats {
        blocks_compiled: 8,
        blocks_invalidated: 5,
        fused_ops: 14,
        tier1_instructions: 45,
        tier0_instructions: 0,
    };
    const STORE_INTO_EXECUTING_STATS: TierStats = TierStats {
        blocks_compiled: 4,
        blocks_invalidated: 1,
        fused_ops: 7,
        tier1_instructions: 57,
        tier0_instructions: 0,
    };
    const STOP_IP_CHAIN_STATS: TierStats = TierStats {
        blocks_compiled: 14,
        blocks_invalidated: 0,
        fused_ops: 10,
        tier1_instructions: 453,
        tier0_instructions: 20,
    };
    const BUDGET_CHAIN_STATS: TierStats = TierStats {
        blocks_compiled: 183,
        blocks_invalidated: 0,
        fused_ops: 120,
        tier1_instructions: 1811,
        tier0_instructions: 79,
    };
    const FAULT_CHAIN_STATS: TierStats = TierStats {
        blocks_compiled: 6,
        blocks_invalidated: 0,
        fused_ops: 4,
        tier1_instructions: 47,
        tier0_instructions: 0,
    };

    /// Tier-0 reference for one `run_segment` call: single-steps until the
    /// IP equals `stop_ip`, the program halts or faults, or `budget`
    /// instructions retired.
    fn tier0_segment(
        state: &mut StateVector,
        deps: &mut DepVector,
        stop_ip: u32,
        budget: u64,
    ) -> (u64, SegmentExit) {
        let mut retired = 0u64;
        while retired < budget {
            match transition(state, Some(deps)) {
                Ok(StepOutcome::Continue) => {
                    retired += 1;
                    if state.ip() == stop_ip {
                        return (retired, SegmentExit::StopIp);
                    }
                }
                Ok(StepOutcome::Halted) => return (retired, SegmentExit::Halted),
                Err(error) => return (retired, SegmentExit::Fault(error)),
            }
        }
        (retired, SegmentExit::Budget)
    }

    /// Runs `program` through successive segments (one per `(stop_ip,
    /// budget)` pair, one cache throughout) under tier-0 and under the
    /// tiered `run_segment` with an eager threshold. Asserts equal final states,
    /// retired counts, exits and read/write sets after every segment, and
    /// returns the tier counters.
    fn assert_segments_match_tier0(program: &[I], segments: &[(u32, u64)]) -> TierStats {
        let mut plain = machine_with(program, 512);
        let mut tiered = plain.clone();
        let mut cache = BlockCache::new(&tiered, eager());
        for (i, &(stop_ip, budget)) in segments.iter().enumerate() {
            let mut plain_deps = DepVector::new(plain.len_bytes());
            let mut tiered_deps = DepVector::new(tiered.len_bytes());
            let expected = tier0_segment(&mut plain, &mut plain_deps, stop_ip, budget);
            let actual = run_segment(&mut tiered, &mut tiered_deps, &mut cache, stop_ip, budget);
            assert_eq!(actual, expected, "segment {i} (stop {stop_ip}, budget {budget})");
            assert_eq!(tiered, plain, "segment {i} (stop {stop_ip}, budget {budget})");
            assert_eq!(tiered_deps, plain_deps, "segment {i} (stop {stop_ip}, budget {budget})");
        }
        cache.stats()
    }

    /// Two blocks chained in a loop: A at 16 (`addi`, `jmp`) jumps to B at
    /// 32, whose fused compare+branch returns to A. The `jmp` at 8 makes
    /// A's first visit an arrival.
    fn chain_loop(iterations: i32) -> Vec<I> {
        vec![
            I::ri(Opcode::MovI, r(1), iterations), // 0
            I::i(Opcode::Jmp, 16),                 // 8
            I::rri(Opcode::AddI, r(1), r(1), -1),  // 16: A
            I::i(Opcode::Jmp, 32),                 // 24
            I::rrr(Opcode::Add, r(2), r(2), r(1)), // 32: B
            I::rri(Opcode::MulI, r(3), r(2), 3),   // 40
            I::ri(Opcode::CmpI, r(1), 0),          // 48
            I::i(Opcode::Jne, 16),                 // 56
            I::bare(Opcode::Halt),                 // 64
        ]
    }

    #[test]
    fn store_into_compiled_successor_is_not_chained_into() {
        // A's store rewrites the immediate of B's first instruction with
        // the loop counter on every pass, so B is compiled and resting
        // whenever the store hits it. B must not be entered from A's
        // terminator; it recompiles from the new bytes instead.
        let program = [
            I::ri(Opcode::MovI, r(1), 6),          // 0
            I::ri(Opcode::MovI, r(5), 52),         // 8: B's immediate
            I::i(Opcode::Jmp, 24),                 // 16
            I::rri(Opcode::AddI, r(1), r(1), -1),  // 24: A
            I::rri(Opcode::StW, r(5), r(1), 0),    // 32: patch B
            I::i(Opcode::Jmp, 48),                 // 40
            I::ri(Opcode::MovI, r(3), 100),        // 48: B, imm patched
            I::rrr(Opcode::Add, r(4), r(4), r(3)), // 56
            I::ri(Opcode::CmpI, r(1), 0),          // 64
            I::i(Opcode::Jne, 24),                 // 72
            I::bare(Opcode::Halt),                 // 80
        ];
        let stats = assert_segments_match_tier0(&program, &[(u32::MAX, 1000)]);
        assert_eq!(stats, STORE_INTO_SUCCESSOR_STATS);
    }

    #[test]
    fn store_into_executing_block_after_a_chain_stops_at_micro_op_boundary() {
        // B's store lands in data on every pass but the last, where it
        // patches B's own `movi r3, 9` (at 72) to `movi r3, 0` — after A
        // chained into B. B must stop at the store's micro-op and tier-0
        // must fetch the patched bytes.
        let program = [
            I::ri(Opcode::MovI, r(1), 5),          // 0
            I::i(Opcode::Jmp, 16),                 // 8
            I::rri(Opcode::AddI, r(1), r(1), -1),  // 16: A
            I::i(Opcode::Jmp, 32),                 // 24
            I::rri(Opcode::MulI, r(7), r(1), 64),  // 32: B
            I::rri(Opcode::StW, r(7), r(1), 76),   // 40: r1 == 0 hits 76
            I::rri(Opcode::AddI, r(4), r(4), 1),   // 48
            I::rri(Opcode::AddI, r(4), r(4), 2),   // 56
            I::rri(Opcode::AddI, r(6), r(6), 1),   // 64
            I::ri(Opcode::MovI, r(3), 9),          // 72: imm at 76
            I::rrr(Opcode::Add, r(2), r(2), r(3)), // 80
            I::ri(Opcode::CmpI, r(1), 0),          // 88
            I::i(Opcode::Jne, 16),                 // 96
            I::bare(Opcode::Halt),                 // 104
        ];
        // One segment per pass, each stopping at A's entry: every block
        // execution starts in A and reaches B only through the chain.
        let mut segments = [(16, 1000); 6];
        segments[5].0 = u32::MAX;
        let stats = assert_segments_match_tier0(&program, &segments);
        assert_eq!(stats, STORE_INTO_EXECUTING_STATS);
    }

    #[test]
    fn stop_ip_at_and_inside_a_chained_successor_is_exact() {
        // 32 is B's entry; 40 and 48 lie inside it; 16 is A's entry.
        let mut stats = TierStats::default();
        for stop in [32u32, 40, 48, 16] {
            stats.merge(&assert_segments_match_tier0(&chain_loop(40), &[(stop, 10_000); 20]));
        }
        assert_eq!(stats, STOP_IP_CHAIN_STATS);
    }

    #[test]
    fn budget_runs_out_inside_a_chained_successor() {
        let mut stats = TierStats::default();
        for budget in 1..60u64 {
            stats.merge(&assert_segments_match_tier0(&chain_loop(40), &[(u32::MAX, budget)]));
        }
        // Short budgets resumed segment after segment on one cache.
        stats.merge(&assert_segments_match_tier0(&chain_loop(40), &[(u32::MAX, 3); 40]));
        assert_eq!(stats, BUDGET_CHAIN_STATS);
    }

    #[test]
    fn fault_inside_a_chained_block_is_exact() {
        // B divides by A's counter and faults once it reaches zero, in
        // B's first constituent (`div_first`) or inside a fused pair.
        let mut stats = TierStats::default();
        for div_first in [true, false] {
            let divide = I::rrr(Opcode::Div, r(3), r(2), r(1));
            let count = I::rri(Opcode::AddI, r(5), r(5), 1);
            let (b0, b1) = if div_first { (divide, count) } else { (count, divide) };
            let program = [
                I::ri(Opcode::MovI, r(1), 4),          // 0
                I::ri(Opcode::MovI, r(2), 100),        // 8
                I::i(Opcode::Jmp, 24),                 // 16
                I::rri(Opcode::AddI, r(1), r(1), -1),  // 24: A
                I::i(Opcode::Jmp, 40),                 // 32
                b0,                                    // 40: B
                b1,                                    // 48
                I::rrr(Opcode::Add, r(4), r(4), r(3)), // 56
                I::i(Opcode::Jmp, 24),                 // 64
                I::bare(Opcode::Halt),                 // 72
            ];
            let mut plain = machine_with(&program, 512);
            let mut deps = DepVector::new(plain.len_bytes());
            let (_, exit) = tier0_segment(&mut plain, &mut deps, u32::MAX, 1000);
            assert!(matches!(exit, SegmentExit::Fault(VmError::DivideByZero { .. })), "{exit:?}");
            stats.merge(&assert_segments_match_tier0(&program, &[(u32::MAX, 1000)]));
        }
        assert_eq!(stats, FAULT_CHAIN_STATS);
    }
}
