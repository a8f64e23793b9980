//! The trajectory cache (§4.2): grouped, value-hash-indexed lookup.
//!
//! Each entry is a compressed pair of start and end states: the *start* keeps
//! only the bytes the speculative execution read before writing (its true
//! dependencies) and the *end* keeps only the bytes it wrote. The main thread
//! matches its current state against entry start sets — a match on just those
//! bytes is sufficient for correctness — and fast-forwards by applying the
//! end set, "a translation symmetry in state space".
//!
//! # Index structure
//!
//! A naive cache scans every entry for the recognized IP and byte-compares
//! each start set (`O(entries)` per lookup) — fine while entries are useful,
//! quadratic misery on chaotic workloads where the cache fills with
//! never-matching junk. Lookup here is a two-level index instead:
//!
//! 1. **Read-set groups.** Within a shard, the entries of one rip are
//!    grouped by their read-set byte *positions* (an
//!    [`asc_tvm::delta::PositionSchema`]). Most programs produce only a
//!    handful of distinct dependency shapes per rip, so the group count
//!    stays small even when the entry count does not.
//! 2. **Value-hash index.** Inside each group, entries are indexed by the
//!    64-bit hash of their read-set *values*
//!    ([`SparseBytes::value_hash`]). A lookup hashes the query state's
//!    bytes at the group's positions once
//!    ([`PositionSchema::hash_values_of`]) and probes a
//!    `HashMap<u64, SmallSlotList>` — `O(groups)` probes per lookup instead
//!    of `O(entries)` byte-compares. A probe hit still runs the full
//!    [`SparseBytes::matches`] as a collision guard before the entry is
//!    returned, so a 64-bit hash collision can cost a wasted compare but
//!    never a wrong fast-forward.
//! 3. **One-entry groups compare first.** Pointer-chasing programs give
//!    nearly every superstep its own read-set shape, so there most groups
//!    hold one entry, and hashing a group's ≈ 407 positions (ising) to
//!    reject a state that differs at its fifth is most of a probe's cost.
//!    A group holding a single live entry therefore first compares the
//!    first `DIRECT_COMPARE_PREFIX` (16) `(position, value)` pairs of that
//!    entry, which stops at the first mismatch; a mismatch is a miss, read
//!    in ≈ 5 bytes on ising. A prefix that agrees falls back to the hash,
//!    and so does a group whose shape the lookup has already hashed: one
//!    shape's entries are spread over every shard, and a memoized hash
//!    makes the index probe cheaper than any compare. Only the index path
//!    can reject a hash match, so [`CacheStats::collision_rejects`] counts
//!    only there.
//!
//! Eviction is a per-shard FIFO of `(rip, group, slot)` references: the
//! oldest inserted entry in the shard goes first, in O(1), instead of the
//! old `max_by_key` walk over every rip bucket on the write-lock hot path.
//!
//! # Junk filter
//!
//! On chaotic workloads (see the logistic-map benchmark) most speculation
//! starts from mispredicted states, and every insert buys an entry that will
//! never match — on such runs each superstep can even touch *different*
//! bytes, so junk grows new groups rather than new entries in old ones. The
//! insert-time usefulness filter bounds both axes, keyed on the junk
//! threshold (`AscConfig::cache_junk_threshold`): a group whose entries have
//! served zero hits after that many probes (real lookups and peeks — the
//! allocator's coverage checks miss by design and count as no evidence)
//! stops accepting inserts, and once a rip has accumulated
//! `JUNK_GROUP_LIMIT` (32) such proven-junk groups in a shard, new groups
//! are refused too (counted in [`CacheStats::junk_rejected`]). Fully evicted groups reset their
//! counters, so FIFO turnover re-opens admission; a group that ever serves a
//! hit is never junk. The filter only ever declines to *store* speculation —
//! results remain bit-identical, it just bounds how much hopeless junk a
//! lookup must probe past.
//!
//! # Local shards, one process
//!
//! The in-process, lock-sharded cache here is the only tier on the lookup
//! path, and nothing outlives its process: checkpoints do not save the
//! cache, so a resumed run starts empty. An entry is applied only on a
//! full read-set match, so the cache holds acceleration state only and a
//! resume is bit-identical either way.
//!
//! The cache is sharded and internally synchronised so speculative worker
//! threads can insert entries while the main thread queries, mirroring the
//! paper's distributed per-core cache (the cluster cost model in
//! [`crate::cluster`] charges the reduction and point-to-point costs that a
//! distributed realisation adds). §4.2's query-size accounting is unchanged
//! by the index: a query is still the sparse `(position, value)` capture
//! whose encoded size [`CacheEntry::query_bits`] reports — the group schema
//! factors the position *comparison* out of the probe path (a lookup
//! dispatches on shape once per group instead of re-matching positions
//! entry by entry). Each entry still stores its full start set: the
//! collision guard and eviction need the `(position, value)` pairs, so the
//! schema is an index on top of the entries, not a compression of them.
//!
//! The pre-index linear scan is retained as [`TrajectoryCache::
//! scan_best_match`]: tests and benches use it as the reference the index
//! must agree with; it is on no runtime path.

use asc_tvm::delta::{fingerprint_of, PositionSchema, SparseBytes};
use asc_tvm::state::StateVector;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Read-locks a shard, recovering from a poisoned lock: the cache's data is
/// plain byte maps, so a worker panic mid-insert cannot leave logical
/// invariants broken that matter for a best-effort cache.
fn read_shard(shard: &RwLock<Shard>) -> RwLockReadGuard<'_, Shard> {
    shard.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write_shard(shard: &RwLock<Shard>) -> RwLockWriteGuard<'_, Shard> {
    shard.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One cached speculative trajectory.
///
/// Constructed through [`CacheEntry::new`], which seals the payload under an
/// integrity checksum: applying a corrupted end set would fast-forward the
/// architectural state into garbage — the one failure the cache protocol
/// cannot absorb — so the probe path re-verifies the checksum before any
/// entry is returned (see [`CacheStats::checksum_rejects`]).
#[derive(Debug, PartialEq, Eq)]
pub struct CacheEntry {
    /// Recognized IP value this entry's start state was captured at.
    pub rip: u32,
    /// Sparse read-set capture: the bytes (and values) the execution depended on.
    pub start: SparseBytes,
    /// Sparse write-set capture: the bytes (and values) the execution produced.
    pub end: SparseBytes,
    /// Number of instructions the entry fast-forwards over.
    pub instructions: u64,
    /// Order-sensitive mix of rip, instructions and both sparse sets,
    /// computed at construction. Private: the payload fields stay readable,
    /// but entries can only be built through [`CacheEntry::new`], which
    /// seals them.
    checksum: u64,
}

impl Clone for CacheEntry {
    fn clone(&self) -> Self {
        CacheEntry {
            rip: self.rip,
            start: self.start.clone(),
            end: self.end.clone(),
            instructions: self.instructions,
            checksum: self.checksum,
        }
    }

    /// Reuses the destination's sparse-set allocations; this is what lets
    /// [`LookupScratch`] hand out hits without allocating per lookup.
    fn clone_from(&mut self, source: &Self) {
        self.rip = source.rip;
        self.start.clone_from(&source.start);
        self.end.clone_from(&source.end);
        self.instructions = source.instructions;
        self.checksum = source.checksum;
    }
}

/// Multiplier for the checksum's absorb step (a large odd constant, so the
/// multiply is a bijection on `u64`).
const CHECKSUM_MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;

/// One order-sensitive absorb step: rotate–xor–multiply. Every component is
/// bijective in `h` for a fixed word, so two payloads differing in any
/// single bit of any absorbed word can never collapse to the same state at
/// that step — exactly the bit-flip detection the integrity guard needs.
#[inline]
fn checksum_absorb(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(CHECKSUM_MULTIPLIER)
}

/// The integrity checksum of an entry's payload: an order-sensitive mix of
/// the rip, the instruction count and every `(position, value)` pair of
/// both sparse sets, one multiply per pair. Deliberately *not* byte-wise
/// FNV-1a: verification re-runs on every matching entry of the lookup hot
/// path and sealing runs once per completed speculation, so the checksum
/// absorbs each 5-byte pair as a single word. Each set is prefixed with its
/// length so a pair migrating across the start/end boundary cannot cancel
/// out.
fn entry_checksum(rip: u32, start: &SparseBytes, end: &SparseBytes, instructions: u64) -> u64 {
    let mut h = checksum_absorb(0x9e37_79b9_7f4a_7c15, u64::from(rip));
    h = checksum_absorb(h, instructions);
    for set in [start, end] {
        h = checksum_absorb(h, set.len() as u64);
        for (index, value) in set.iter() {
            h = checksum_absorb(h, (u64::from(index) << 8) | u64::from(value));
        }
    }
    h
}

impl CacheEntry {
    /// Builds an entry and seals it under its integrity checksum.
    pub fn new(rip: u32, start: SparseBytes, end: SparseBytes, instructions: u64) -> Self {
        let checksum = entry_checksum(rip, &start, &end, instructions);
        CacheEntry { rip, start, end, instructions, checksum }
    }

    /// Whether the entry's dependencies are satisfied by `state`.
    pub fn matches(&self, state: &StateVector) -> bool {
        self.start.matches(state)
    }

    /// Fast-forwards `state` by applying the entry's write set.
    pub fn apply(&self, state: &mut StateVector) {
        self.end.apply(state);
    }

    /// Whether the payload still matches the checksum it was sealed with.
    /// The probe path calls this on every matching entry before returning
    /// it, so a bit-flipped payload is rejected instead of applied.
    pub fn verify(&self) -> bool {
        self.checksum == entry_checksum(self.rip, &self.start, &self.end, self.instructions)
    }

    /// Size in bits of the query needed to match this entry (Table 1's
    /// "cache query size" row).
    pub fn query_bits(&self) -> usize {
        self.start.encoded_bits()
    }

    /// Flips one payload bit chosen by `selector` *without* resealing the
    /// checksum, leaving the entry deliberately corrupt. The write set is
    /// preferred (corrupting it is what would poison the architectural
    /// state); an entry with an empty write set corrupts its read set
    /// instead. Fault-injection support only.
    #[cfg(feature = "fault-inject")]
    pub fn corrupt_payload(&mut self, selector: u64) {
        let target = if self.end.is_empty() { &mut self.start } else { &mut self.end };
        target.flip_value_bit((selector >> 3) as usize, (selector & 7) as u32);
    }
}

/// Counters describing cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups performed.
    pub queries: u64,
    /// Number of lookups that returned an entry.
    pub hits: u64,
    /// Number of entries inserted.
    pub inserted: u64,
    /// Number of entries rejected as duplicates of an existing start set
    /// that already fast-forwards at least as far.
    pub duplicates: u64,
    /// Number of existing entries replaced by a longer trajectory with the
    /// same start set.
    pub replaced: u64,
    /// Number of entries evicted due to the capacity limit.
    pub evicted: u64,
    /// Number of inserts refused by the junk filter: the target group (or
    /// the whole rip's group set in a shard) had served zero hits over at
    /// least the configured probe threshold.
    pub junk_rejected: u64,
    /// Number of read-set groups created (distinct dependency shapes seen,
    /// summed over shards).
    pub groups: u64,
    /// Number of group probes: one per populated group consulted by a
    /// lookup, peek, or coverage check (a value-index probe, or a one-entry
    /// group's prefix compare). The per-query work of the index, against
    /// `queries × entries` for a scan of every entry. Only lookups and peeks
    /// feed the junk filter's per-group probe evidence; coverage-check
    /// misses are expected and do not.
    pub probes: u64,
    /// Value-index probe hits discarded because the full read-set compare
    /// failed (a 64-bit value-hash collision). The collision guard's work
    /// counter; a one-entry group rejected by its prefix compare never
    /// reached the index and is not counted.
    pub collision_rejects: u64,
    /// Matching entries rejected because their payload no longer verified
    /// against the integrity checksum sealed at construction (a corrupted
    /// entry). Such entries are never returned — a corrupted hit costs a
    /// missed fast-forward, never a wrong one — and age out through normal
    /// FIFO eviction (out-of-band removal would dangle FIFO references).
    pub checksum_rejects: u64,
    /// Total instructions fast-forwarded by returned entries.
    pub instructions_served: u64,
}

impl CacheStats {
    /// Fraction of queries that missed (0 when nothing was queried).
    pub fn miss_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            1.0 - self.hits as f64 / self.queries as f64
        }
    }
}

/// Pass-through hasher for the value index: its keys are already 64-bit FNV
/// hashes ([`SparseBytes::value_hash`]), so re-hashing them through the
/// default SipHash would roughly double the cost of every group probe for
/// no distribution gain.
#[derive(Default)]
struct PrehashedKey(u64);

impl std::hash::Hasher for PrehashedKey {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("value-hash keys are written as u64");
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = value;
    }
}

type ValueIndex = HashMap<u64, SmallSlotList, std::hash::BuildHasherDefault<PrehashedKey>>;

/// Per-lookup memo: schema hash → value hash of the query state at that
/// schema's positions (`None`: a position was out of bounds).
type ValueHashMemo = HashMap<u64, Option<u64>, std::hash::BuildHasherDefault<PrehashedKey>>;

/// The slots holding one value hash's entries inside a group. Distinct
/// entries share a value hash only on a genuine 64-bit collision (same
/// positions *and* same values would have been deduplicated at insert), so
/// the list is a single inline slot in practice and spills to a `Vec` never
/// to rarely.
#[derive(Debug)]
struct SmallSlotList {
    first: u32,
    rest: Vec<u32>,
}

impl SmallSlotList {
    fn new(slot: u32) -> Self {
        SmallSlotList { first: slot, rest: Vec::new() }
    }

    fn push(&mut self, slot: u32) {
        self.rest.push(slot);
    }

    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::once(self.first).chain(self.rest.iter().copied())
    }

    /// Removes `slot`; returns `true` when the list became empty (the caller
    /// drops the map entry). Order is irrelevant — all slots of one list are
    /// hash-equal.
    fn remove(&mut self, slot: u32) -> bool {
        if self.first == slot {
            match self.rest.pop() {
                Some(last) => {
                    self.first = last;
                    false
                }
                None => true,
            }
        } else {
            let position = self.rest.iter().position(|&s| s == slot).expect("slot is listed");
            self.rest.swap_remove(position);
            false
        }
    }
}

/// All entries of one rip (within a shard) that share a read-set shape,
/// indexed by the hash of their read-set values.
struct ReadSetGroup {
    /// The shared byte positions of every entry's start set.
    schema: PositionSchema,
    /// value hash → slots holding entries with that hash.
    index: ValueIndex,
    /// Slot storage; `None` slots were evicted and are free for reuse.
    slots: Vec<Option<CacheEntry>>,
    /// Free slot indices (previously evicted).
    free: Vec<u32>,
    /// Number of live (`Some`) slots.
    live: u32,
    /// The slot most recently stored into. FIFO eviction removes a group's
    /// entries oldest first and a replace rewrites its slot in place, so
    /// while `live == 1` this is the one live slot.
    newest: u32,
    /// Lookup probes against this group since creation (or since it was
    /// last fully evicted). Atomic because lookups tick it under the shard
    /// *read* lock.
    probes: AtomicU64,
    /// Probe matches served by this group's entries (same locking story).
    hits: AtomicU64,
}

impl ReadSetGroup {
    fn new(schema: PositionSchema) -> Self {
        ReadSetGroup {
            schema,
            index: ValueIndex::default(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            newest: 0,
            probes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// Stores `entry` in a free (or fresh) slot and indexes it; returns the
    /// slot id.
    fn store(&mut self, value_hash: u64, entry: CacheEntry) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(entry);
                slot
            }
            None => {
                self.slots.push(Some(entry));
                (self.slots.len() - 1) as u32
            }
        };
        match self.index.entry(value_hash) {
            Entry::Occupied(mut list) => list.get_mut().push(slot),
            Entry::Vacant(vacant) => {
                vacant.insert(SmallSlotList::new(slot));
            }
        }
        self.live += 1;
        self.newest = slot;
        slot
    }

    /// Evicts the entry in `slot`, unindexing it and freeing the slot. A
    /// fully emptied group resets its probe/hit counters: the junk evidence
    /// belonged to the evicted entries, and a frozen counter would block the
    /// shape forever.
    fn evict(&mut self, slot: u32) -> CacheEntry {
        let entry = self.slots[slot as usize].take().expect("FIFO references a live slot");
        let value_hash = entry.start.value_hash();
        let emptied =
            self.index.get_mut(&value_hash).expect("evicted entry was indexed").remove(slot);
        if emptied {
            self.index.remove(&value_hash);
        }
        self.free.push(slot);
        self.live -= 1;
        if self.live == 0 {
            self.probes.store(0, Ordering::Relaxed);
            self.hits.store(0, Ordering::Relaxed);
        }
        entry
    }

    /// Whether the group's one live entry disagrees with `state` within
    /// its first [`DIRECT_COMPARE_PREFIX`] read positions (a position past
    /// the end of `state` disagrees too). Only meaningful when `live == 1`.
    fn sole_entry_rejects(&self, state: &StateVector) -> bool {
        debug_assert_eq!(self.live, 1, "only a one-entry group has a sole entry");
        let entry = self.slots[self.newest as usize]
            .as_ref()
            .expect("a one-entry group's newest slot is its live slot");
        let bytes = state.as_bytes();
        entry
            .start
            .iter()
            .take(DIRECT_COMPARE_PREFIX)
            .any(|(position, value)| bytes.get(position as usize) != Some(&value))
    }

    /// Live entries, in slot order.
    fn entries(&self) -> impl Iterator<Item = &CacheEntry> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Repurposes a fully emptied group for a new dependency shape,
    /// keeping its (heap-allocated) buffers. Safe exactly when `live == 0`:
    /// every one of its slots was evicted, and each eviction popped the
    /// FIFO reference pointing at it, so nothing references the old slots.
    /// Without recycling, eviction churn on chaotic workloads would grow
    /// the group vectors without bound — dead groups still cost every
    /// lookup one iteration each.
    fn reset_for(&mut self, schema: PositionSchema) {
        debug_assert_eq!(self.live, 0, "recycling a group with live entries");
        self.schema = schema;
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.probes.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
    }
}

/// A FIFO reference to one stored entry: which rip's group vector, which
/// group, which slot. Group indices are stable (groups are never removed
/// from a shard, only emptied — and recycled for a new shape only once
/// empty), and a slot is freed only by the eviction that pops its own FIFO
/// reference, so references never dangle.
#[derive(Debug, Clone, Copy)]
struct FifoRef {
    rip: u32,
    group: u32,
    slot: u32,
}

#[derive(Default)]
struct Shard {
    by_ip: HashMap<u32, Vec<ReadSetGroup>>,
    /// Insertion order of every live entry, oldest first: O(1) eviction.
    fifo: VecDeque<FifoRef>,
    entries: usize,
}

/// Reusable lookup buffer: the hot loop's hits are cloned *into* it (Vec
/// allocations reused via `clone_from`), and the per-schema value hashes
/// computed during one lookup are memoized in it — sharding spreads one
/// dependency shape's entries across every shard, so without the memo a
/// lookup would re-hash the query state's bytes at the same positions once
/// per shard. Steady-state lookups allocate nothing. Each caller that
/// queries the cache repeatedly keeps one.
#[derive(Debug, Default)]
pub struct LookupScratch {
    entry: Option<CacheEntry>,
    /// Value hashes computed during one lookup, keyed by the schema's
    /// (already FNV) hash: a 64-bit collision between two distinct schemas
    /// can at worst cost a missed probe — the full match guard still decides
    /// every returned entry.
    memo: ValueHashMemo,
}

impl LookupScratch {
    /// Creates an empty scratch; its buffers are sized by the first lookup.
    pub fn new() -> Self {
        LookupScratch::default()
    }
}

/// A concurrent, sharded trajectory cache.
///
/// Entries are sharded by a hash of their start-set key bytes (indices and
/// values), not by recognized IP: a typical run speculates on a *single* IP,
/// so IP-based sharding would funnel every concurrent worker insert through
/// one lock. Hash sharding spreads inserts across all shards; lookups probe
/// the shards' groups under cheap read locks (once per superstep, against
/// worker inserts happening once per speculative superstep — reads
/// dominate).
pub struct TrajectoryCache {
    shards: Vec<RwLock<Shard>>,
    capacity_per_shard: usize,
    /// Probes a hitless group must accumulate before the junk filter closes
    /// it to inserts; 0 disables the filter.
    junk_threshold: u64,
    queries: AtomicU64,
    hits: AtomicU64,
    inserted: AtomicU64,
    duplicates: AtomicU64,
    replaced: AtomicU64,
    evicted: AtomicU64,
    junk_rejected: AtomicU64,
    groups: AtomicU64,
    probes: AtomicU64,
    collision_rejects: AtomicU64,
    checksum_rejects: AtomicU64,
    instructions_served: AtomicU64,
}

impl std::fmt::Debug for TrajectoryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrajectoryCache")
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

const SHARD_COUNT: usize = 16;

/// Default [`AscConfig::cache_junk_threshold`]: probes a hitless group
/// tolerates before it stops accepting inserts.
///
/// [`AscConfig::cache_junk_threshold`]: crate::config::AscConfig::cache_junk_threshold
pub const DEFAULT_JUNK_THRESHOLD: u64 = 64;

/// Read-set pairs a one-entry group compares before a probe falls back to
/// the value hash. On ising a miss shows after ≈ 5 positions of ≈ 407. An
/// entry that agrees this far tends to agree much further (the junk
/// population of `benches/cache.rs` shares a 40-byte header); comparing on
/// would cost each of the shape's groups in every shard that much, where
/// the memoized hash is paid once per lookup.
const DIRECT_COMPARE_PREFIX: usize = 16;

/// Proven-junk groups one rip may hold per shard before *new* groups are
/// refused too. On chaotic workloads every superstep can depend on different
/// byte positions, so junk arrives as fresh shapes — without this second
/// bound the per-group filter would bound nothing.
const JUNK_GROUP_LIMIT: usize = 32;

impl TrajectoryCache {
    /// Creates a cache holding at most `capacity` entries in total, with the
    /// default shard count and junk threshold.
    pub fn new(capacity: usize) -> Self {
        Self::with_junk_threshold(capacity, DEFAULT_JUNK_THRESHOLD)
    }

    /// Creates a cache with an explicit junk-filter threshold (0 disables
    /// the filter).
    pub fn with_junk_threshold(capacity: usize, junk_threshold: u64) -> Self {
        Self::with_layout(capacity, SHARD_COUNT, junk_threshold)
    }

    /// Creates a cache with an explicit shard count (clamped to ≥ 1); the
    /// `cache_lookup` benchmark uses this to measure lock-spread against
    /// probe-cost trade-offs.
    pub fn with_layout(capacity: usize, shard_count: usize, junk_threshold: u64) -> Self {
        let shard_count = shard_count.max(1);
        let capacity_per_shard = capacity.div_ceil(shard_count).max(1);
        TrajectoryCache {
            shards: (0..shard_count).map(|_| RwLock::new(Shard::default())).collect(),
            capacity_per_shard,
            junk_threshold,
            queries: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            inserted: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            replaced: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            junk_rejected: AtomicU64::new(0),
            groups: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            collision_rejects: AtomicU64::new(0),
            checksum_rejects: AtomicU64::new(0),
            instructions_served: AtomicU64::new(0),
        }
    }

    /// The shard an entry lives in: keyed on the start set's
    /// [`fingerprint`](SparseBytes::fingerprint), given as its two halves,
    /// so that the entries of a single-rip run (the common case) spread
    /// across every shard instead of serializing concurrent worker inserts
    /// on one lock.
    fn shard_for(&self, position_hash: u64, value_hash: u64) -> &RwLock<Shard> {
        &self.shards[(fingerprint_of(position_hash, value_hash) as usize) % self.shards.len()]
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read_shard(s).entries).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `group` is proven junk: populated, hitless, and probed at
    /// least `junk_threshold` times.
    fn is_junk(&self, group: &ReadSetGroup) -> bool {
        self.junk_threshold > 0
            && group.live > 0
            && group.hits.load(Ordering::Relaxed) == 0
            && group.probes.load(Ordering::Relaxed) >= self.junk_threshold
    }

    /// Ticks `group`'s probe counter — but only while the count still has
    /// evidentiary value (the filter is on and the threshold not yet
    /// reached), so settled groups cost lookups a relaxed load instead of a
    /// read-modify-write on a shared cache line.
    fn tick_probe(&self, group: &ReadSetGroup) {
        if self.junk_threshold > 0 && group.probes.load(Ordering::Relaxed) < self.junk_threshold {
            group.probes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Inserts an entry. Returns `true` when the cache's contents changed:
    /// either a fresh entry was stored or an existing entry with the same
    /// start set was replaced by this longer trajectory (counted in the
    /// `replaced` statistic). Returns `false` when an identical start set
    /// already fast-forwards at least as far (a `duplicate`) or when the
    /// junk filter refused the insert (`junk_rejected`; see the module
    /// docs).
    pub fn insert(&self, entry: CacheEntry) -> bool {
        // The start set is hashed once: both halves place the entry in its
        // shard, the position half finds (or names) its group and the value
        // half indexes it there.
        let (position_hash, value_hash) = (entry.start.position_hash(), entry.start.value_hash());
        let mut guard = write_shard(self.shard_for(position_hash, value_hash));
        let shard = &mut *guard;
        let groups = shard.by_ip.entry(entry.rip).or_default();

        // Locate the entry's read-set group, counting proven-junk groups on
        // the way in case a new group has to pass the admission bound, and
        // remembering an emptied group to recycle instead of growing the
        // vector (empty groups match no schema check: whatever shape they
        // once held, they hold nothing now).
        let mut junk_groups = 0usize;
        let mut found = None;
        let mut recycle = None;
        for (index, group) in groups.iter().enumerate() {
            if group.live == 0 {
                recycle.get_or_insert(index);
                continue;
            }
            if group.schema.hash() == position_hash && group.schema.describes(&entry.start) {
                found = Some(index);
                break;
            }
            if self.is_junk(group) {
                junk_groups += 1;
            }
        }

        let group_index = match found {
            Some(index) => {
                let group = &mut groups[index];
                // Duplicate/replace: at most one live entry can have this
                // exact start set, and it is in the value-hash bucket.
                if let Some(list) = group.index.get(&value_hash) {
                    for slot in list.iter() {
                        let existing =
                            group.slots[slot as usize].as_mut().expect("indexed slot is live");
                        if existing.start == entry.start {
                            if existing.instructions >= entry.instructions {
                                self.duplicates.fetch_add(1, Ordering::Relaxed);
                                return false;
                            }
                            *existing = entry;
                            self.replaced.fetch_add(1, Ordering::Relaxed);
                            return true;
                        }
                    }
                }
                if self.is_junk(group) {
                    self.junk_rejected.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                index
            }
            None => {
                if self.junk_threshold > 0 && junk_groups >= JUNK_GROUP_LIMIT {
                    self.junk_rejected.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                let index = match recycle {
                    Some(index) => {
                        groups[index]
                            .reset_for(PositionSchema::with_hash(&entry.start, position_hash));
                        index
                    }
                    None => {
                        groups.push(ReadSetGroup::new(PositionSchema::with_hash(
                            &entry.start,
                            position_hash,
                        )));
                        groups.len() - 1
                    }
                };
                // Recycled or fresh, a new dependency shape was admitted.
                self.groups.fetch_add(1, Ordering::Relaxed);
                index
            }
        };

        let rip = entry.rip;
        let slot = groups[group_index].store(value_hash, entry);
        shard.fifo.push_back(FifoRef { rip, group: group_index as u32, slot });
        shard.entries += 1;
        if shard.entries > self.capacity_per_shard {
            self.evict_oldest(shard);
        }
        self.inserted.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Evicts the shard's oldest entry in O(1) via the FIFO.
    fn evict_oldest(&self, shard: &mut Shard) {
        let Some(oldest) = shard.fifo.pop_front() else { return };
        let groups = shard.by_ip.get_mut(&oldest.rip).expect("FIFO rip exists");
        groups[oldest.group as usize].evict(oldest.slot);
        shard.entries -= 1;
        self.evicted.fetch_add(1, Ordering::Relaxed);
    }

    /// Walks every live group for `rip` across all shards, probing each
    /// group's value index with the query state's bytes hashed at the
    /// group's positions (one hash per schema per walk — entries for one rip
    /// are hash-spread across all shards, so the memo saves re-hashing the
    /// same shape shard after shard) unless a one-entry group's prefix
    /// compare already rejects the state, and calls `on_match` for every
    /// entry that passes the full byte-compare collision guard and its
    /// checksum; `Break` stops the
    /// walk. Matching entries always tick their group's hit counter
    /// (usefulness evidence). `tick_junk` controls whether the walk also
    /// counts as junk-filter *probe* evidence: real lookups and peeks do,
    /// the allocator's coverage checks do not — their misses are expected
    /// (they exist to find *uncovered* predictions), and counting them would
    /// close hitless groups ~`rollout_depth` times faster than the
    /// configured threshold intends, starving slow-warmup workloads of
    /// cache admission.
    fn probe_groups(
        &self,
        rip: u32,
        state: &StateVector,
        memo: &mut ValueHashMemo,
        tick_junk: bool,
        mut on_match: impl FnMut(&CacheEntry) -> ControlFlow<()>,
    ) {
        let mut probes = 0u64;
        let mut collisions = 0u64;
        let mut corrupted = 0u64;
        memo.clear();
        'shards: for shard in &self.shards {
            let guard = read_shard(shard);
            let Some(groups) = guard.by_ip.get(&rip) else { continue };
            for group in groups {
                if group.live == 0 {
                    continue;
                }
                probes += 1;
                if tick_junk {
                    self.tick_probe(group);
                }
                // A one-entry group whose shape this walk has not hashed yet
                // first compares a prefix of its entry's read set: a miss
                // usually shows within a few bytes, where the hash would read
                // every position. A prefix that agrees falls back to the
                // hash, which the memo then shares with this shape's groups
                // in the other shards.
                let memoized = match memo.entry(group.schema.hash()) {
                    Entry::Occupied(hashed) => *hashed.get(),
                    Entry::Vacant(_) if group.live == 1 && group.sole_entry_rejects(state) => {
                        continue;
                    }
                    Entry::Vacant(unhashed) => *unhashed.insert(group.schema.hash_values_of(state)),
                };
                let Some(value_hash) = memoized else { continue };
                let Some(list) = group.index.get(&value_hash) else { continue };
                for slot in list.iter() {
                    let entry = group.slots[slot as usize].as_ref().expect("indexed slot is live");
                    // Collision guard: the hash said yes, the bytes decide.
                    if !entry.matches(state) {
                        collisions += 1;
                        continue;
                    }
                    // Integrity guard: applying a corrupted end set would
                    // fast-forward the state into garbage, so a matching
                    // entry that fails its checksum is skipped (and not
                    // counted as usefulness evidence). It is *not* evicted
                    // here: a slot may be freed only by the eviction that
                    // pops its own FIFO reference, so the corpse simply
                    // stops being served until FIFO turnover removes it.
                    if !entry.verify() {
                        corrupted += 1;
                        continue;
                    }
                    group.hits.fetch_add(1, Ordering::Relaxed);
                    if on_match(entry).is_break() {
                        break 'shards;
                    }
                }
            }
        }
        self.probes.fetch_add(probes, Ordering::Relaxed);
        if collisions > 0 {
            self.collision_rejects.fetch_add(collisions, Ordering::Relaxed);
        }
        if corrupted > 0 {
            self.checksum_rejects.fetch_add(corrupted, Ordering::Relaxed);
        }
    }

    /// The longest entry for `rip` whose dependencies match `state`, cloned
    /// into `scratch` (buffer reuse — no allocation once the buffers are
    /// warm).
    fn best_match_into<'s>(
        &self,
        rip: u32,
        state: &StateVector,
        scratch: &'s mut LookupScratch,
    ) -> Option<&'s CacheEntry> {
        let LookupScratch { entry: buffer, memo } = scratch;
        let mut best: Option<u64> = None;
        self.probe_groups(rip, state, memo, true, |entry| {
            if best.is_none_or(|b| entry.instructions > b) {
                best = Some(entry.instructions);
                match buffer {
                    Some(held) => held.clone_from(entry),
                    None => *buffer = Some(entry.clone()),
                }
            }
            ControlFlow::Continue(())
        });
        if best.is_some() {
            scratch.entry.as_ref()
        } else {
            None
        }
    }

    /// Reference linear scan: the longest entry for `rip` whose dependencies
    /// match `state`, found by byte-comparing *every* entry — the pre-index
    /// behaviour the value-hash lookup must be equivalent to. Kept for the
    /// equivalence tests and the `cache_lookup` benchmark's baseline; not
    /// used on any runtime path.
    pub fn scan_best_match(&self, rip: u32, state: &StateVector) -> Option<CacheEntry> {
        let mut best: Option<CacheEntry> = None;
        for shard in &self.shards {
            let guard = read_shard(shard);
            let Some(groups) = guard.by_ip.get(&rip) else { continue };
            for entry in groups.iter().flat_map(ReadSetGroup::entries) {
                if entry.matches(state)
                    && entry.verify()
                    && best.as_ref().is_none_or(|b| entry.instructions > b.instructions)
                {
                    best = Some(entry.clone());
                }
            }
        }
        best
    }

    /// Looks up the longest entry for `rip` whose dependencies match
    /// `state`, reusing the caller's scratch — the zero-allocation entry
    /// point the runtime's occurrence loop uses.
    pub fn lookup_with<'s>(
        &self,
        rip: u32,
        state: &StateVector,
        scratch: &'s mut LookupScratch,
    ) -> Option<&'s CacheEntry> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let best = self.best_match_into(rip, state, scratch);
        if let Some(entry) = &best {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.instructions_served.fetch_add(entry.instructions, Ordering::Relaxed);
        }
        best
    }

    /// Looks up the longest entry for `rip` whose dependencies match
    /// `state`. Allocating convenience wrapper around
    /// [`lookup_with`](TrajectoryCache::lookup_with).
    pub fn lookup(&self, rip: u32, state: &StateVector) -> Option<CacheEntry> {
        let mut scratch = LookupScratch::new();
        self.lookup_with(rip, state, &mut scratch)?;
        scratch.entry
    }

    /// Like [`lookup_with`](TrajectoryCache::lookup_with) but without
    /// recording query statistics (used by what-if evaluation paths so they
    /// do not pollute the reported hit rates). Group probe/hit counters
    /// still tick: they are the junk filter's evidence, and a peek is real
    /// evidence.
    pub fn peek_with<'s>(
        &self,
        rip: u32,
        state: &StateVector,
        scratch: &'s mut LookupScratch,
    ) -> Option<&'s CacheEntry> {
        self.best_match_into(rip, state, scratch)
    }

    /// Allocating convenience wrapper around
    /// [`peek_with`](TrajectoryCache::peek_with).
    pub fn peek(&self, rip: u32, state: &StateVector) -> Option<CacheEntry> {
        let mut scratch = LookupScratch::new();
        self.peek_with(rip, state, &mut scratch)?;
        scratch.entry
    }

    /// Whether *any* entry for `rip` matches `state` — the coverage test the
    /// allocator and planner use to skip speculation whose start state the
    /// cache already fast-forwards, reusing the caller's scratch for the
    /// per-schema hash memo (allocation-free once warm). Stops at the first
    /// match (coverage does not care which entry is longest) and records no
    /// query statistics or junk-filter probe evidence: coverage checks run
    /// `rollout_depth`-deep per occurrence and their misses are *expected*,
    /// so counting them would close hitless groups far faster than
    /// `junk_threshold` lookups intend.
    pub fn covers_with(&self, rip: u32, state: &StateVector, scratch: &mut LookupScratch) -> bool {
        let mut covered = false;
        self.probe_groups(rip, state, &mut scratch.memo, false, |_| {
            covered = true;
            ControlFlow::Break(())
        });
        covered
    }

    /// Allocating convenience wrapper around
    /// [`covers_with`](TrajectoryCache::covers_with).
    pub fn covers(&self, rip: u32, state: &StateVector) -> bool {
        self.covers_with(rip, state, &mut LookupScratch::new())
    }

    /// Average query size in bits over all stored entries (Table 1).
    pub fn mean_query_bits(&self) -> f64 {
        let mut total = 0usize;
        let mut count = 0usize;
        for shard in &self.shards {
            let guard = read_shard(shard);
            for groups in guard.by_ip.values() {
                for entry in groups.iter().flat_map(ReadSetGroup::entries) {
                    total += entry.query_bits();
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            queries: self.queries.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            inserted: self.inserted.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            replaced: self.replaced.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            junk_rejected: self.junk_rejected.load(Ordering::Relaxed),
            groups: self.groups.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            collision_rejects: self.collision_rejects.load(Ordering::Relaxed),
            checksum_rejects: self.checksum_rejects.load(Ordering::Relaxed),
            instructions_served: self.instructions_served.load(Ordering::Relaxed),
        }
    }

    /// The running total of integrity failures — checksum rejects plus
    /// value-hash collision rejects. Two relaxed loads: the runtime polls
    /// this once per occurrence to feed the circuit breaker's failure
    /// window, where a full [`stats`](TrajectoryCache::stats) snapshot
    /// would be a dozen loads of dead weight.
    pub fn integrity_failures(&self) -> u64 {
        self.checksum_rejects.load(Ordering::Relaxed)
            + self.collision_rejects.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(rip: u32, deps: &[(u32, u8)], outs: &[(u32, u8)], instructions: u64) -> CacheEntry {
        CacheEntry::new(
            rip,
            SparseBytes::from_pairs(deps.to_vec()),
            SparseBytes::from_pairs(outs.to_vec()),
            instructions,
        )
    }

    fn state_with(bytes: &[(usize, u8)]) -> StateVector {
        let mut s = StateVector::new(256).unwrap();
        for &(i, v) in bytes {
            s.set_byte(i, v);
        }
        s
    }

    #[test]
    fn lookup_matches_on_read_set_only() {
        let cache = TrajectoryCache::new(16);
        cache.insert(entry(100, &[(10, 1)], &[(20, 9)], 500));
        // Matching state: byte 10 == 1, everything else irrelevant.
        let state = state_with(&[(10, 1), (50, 99)]);
        let hit = cache.lookup(100, &state).expect("should hit");
        assert_eq!(hit.instructions, 500);
        // Mismatching dependency byte misses.
        let miss_state = state_with(&[(10, 2)]);
        assert!(cache.lookup(100, &miss_state).is_none());
        // Different IP misses even with matching bytes.
        assert!(cache.lookup(101, &state).is_none());
        let stats = cache.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.hits, 1);
        assert!((stats.miss_rate() - 2.0 / 3.0).abs() < 1e-9);
        // One dependency shape was seen; the matching/mismatching lookups
        // each probed its group, the wrong-IP one probed nothing.
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.probes, 2);
        assert_eq!(stats.collision_rejects, 0);
    }

    #[test]
    fn lookup_prefers_longest_matching_entry() {
        let cache = TrajectoryCache::new(256);
        cache.insert(entry(64, &[(5, 7)], &[(6, 1)], 100));
        cache.insert(entry(64, &[(5, 7), (8, 3)], &[(6, 2)], 900));
        // Both entries match this state: the farther end state wins (§3.2 (11)).
        let state = state_with(&[(5, 7), (8, 3)]);
        assert_eq!(cache.lookup(64, &state).unwrap().instructions, 900);
        // Only the shorter matches when byte 8 differs.
        let state = state_with(&[(5, 7), (8, 4)]);
        assert_eq!(cache.lookup(64, &state).unwrap().instructions, 100);
        // The two entries have different dependency shapes, hence two groups.
        assert_eq!(cache.stats().groups, 2);
    }

    #[test]
    fn apply_fast_forwards_write_set_only() {
        let cache = TrajectoryCache::new(4);
        cache.insert(entry(0, &[(1, 1)], &[(2, 42), (3, 43)], 10));
        let mut state = state_with(&[(1, 1), (2, 0), (3, 0), (4, 77)]);
        let hit = cache.lookup(0, &state).unwrap();
        hit.apply(&mut state);
        assert_eq!(state.byte(2), 42);
        assert_eq!(state.byte(3), 43);
        assert_eq!(state.byte(4), 77); // untouched
    }

    #[test]
    fn duplicate_start_sets_keep_the_longer_entry() {
        let cache = TrajectoryCache::new(16);
        assert!(cache.insert(entry(8, &[(1, 1)], &[(2, 2)], 100)));
        // A shorter duplicate is rejected.
        assert!(!cache.insert(entry(8, &[(1, 1)], &[(2, 3)], 50)));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().duplicates, 1);
        assert_eq!(cache.stats().replaced, 0);
        let state = state_with(&[(1, 1)]);
        assert_eq!(cache.lookup(8, &state).unwrap().instructions, 100);
        // A longer duplicate replaces the stored one — counted as a
        // replacement, not a duplicate, and reported as a cache change.
        assert!(cache.insert(entry(8, &[(1, 1)], &[(2, 4)], 700)));
        assert_eq!(cache.lookup(8, &state).unwrap().instructions, 700);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().duplicates, 1);
        assert_eq!(cache.stats().replaced, 1);
    }

    #[test]
    fn single_rip_entries_spread_across_shards() {
        // The common case is one recognized IP for the whole run; sharding
        // must still spread its entries so concurrent worker inserts do not
        // serialize on a single lock.
        let cache = TrajectoryCache::new(1024);
        for i in 0..64u32 {
            cache.insert(entry(32, &[(i, 1)], &[(200, 1)], 10));
        }
        let populated = cache.shards.iter().filter(|shard| read_shard(shard).entries > 0).count();
        assert!(populated > SHARD_COUNT / 2, "only {populated} shards used");
        // Entries stay reachable by rip regardless of which shard they chose.
        for i in 0..64u32 {
            let state = state_with(&[(i as usize, 1)]);
            assert!(cache.peek(32, &state).is_some(), "entry {i} unreachable");
        }
    }

    #[test]
    fn capacity_is_enforced_by_fifo_eviction() {
        let cache = TrajectoryCache::new(SHARD_COUNT); // one entry per shard
        for i in 0..200u32 {
            cache.insert(entry(8, &[(i, 1)], &[(2, 2)], 10));
        }
        assert!(cache.len() <= 2 * SHARD_COUNT);
        let stats = cache.stats();
        assert!(stats.evicted > 0);
        // Eviction accounting is exact: every insert beyond a shard's
        // capacity evicted exactly one entry.
        assert_eq!(cache.len() as u64, stats.inserted - stats.evicted);
    }

    #[test]
    fn eviction_is_oldest_first_within_a_shard() {
        // One shard makes FIFO order observable: the first insert is the
        // first evicted, newer entries survive.
        let cache = TrajectoryCache::with_layout(2, 1, 0);
        cache.insert(entry(8, &[(1, 1)], &[(9, 9)], 10));
        cache.insert(entry(8, &[(2, 2)], &[(9, 9)], 20));
        cache.insert(entry(8, &[(3, 3)], &[(9, 9)], 30));
        assert_eq!(cache.stats().evicted, 1);
        assert!(cache.peek(8, &state_with(&[(1, 1)])).is_none(), "oldest entry must be evicted");
        assert!(cache.peek(8, &state_with(&[(2, 2)])).is_some());
        assert!(cache.peek(8, &state_with(&[(3, 3)])).is_some());
        // Churn through many more inserts: count stays exact, len bounded.
        for i in 0..100u32 {
            cache.insert(entry(8, &[(i + 10, 7)], &[(9, 9)], 10));
        }
        let stats = cache.stats();
        assert_eq!(cache.len() as u64, stats.inserted - stats.evicted);
        assert!(cache.len() <= 3);
    }

    #[test]
    fn emptied_groups_are_recycled_for_new_shapes() {
        // One shard, two entries of capacity, every entry a fresh shape:
        // eviction keeps emptying the oldest group, and inserts must reuse
        // those husks instead of growing the group vector without bound.
        let cache = TrajectoryCache::with_layout(2, 1, 0);
        for i in 0..50u32 {
            cache.insert(entry(8, &[(i, 1), (200, 2)], &[(9, 9)], 10));
        }
        let groups_in_vec = read_shard(&cache.shards[0]).by_ip[&8].len();
        assert!(groups_in_vec <= 3, "dead groups accumulated: {groups_in_vec} in the vector");
        // The stats counter still counts every admitted shape.
        assert_eq!(cache.stats().groups, 50);
        // The survivors stay reachable.
        assert!(cache.peek(8, &state_with(&[(49, 1), (200, 2)])).is_some());
    }

    #[test]
    fn junk_filter_closes_hitless_groups_and_admits_useful_ones() {
        // Threshold 4: after 4 hitless probes a group refuses inserts.
        let cache = TrajectoryCache::with_layout(1024, 1, 4);
        cache.insert(entry(8, &[(1, 1)], &[(9, 9)], 10));
        let miss = state_with(&[(1, 2)]);
        for _ in 0..4 {
            assert!(cache.lookup(8, &miss).is_none());
        }
        // The group is now proven junk: same-shape inserts are refused...
        assert!(!cache.insert(entry(8, &[(1, 3)], &[(9, 9)], 10)));
        assert_eq!(cache.stats().junk_rejected, 1);
        // ...but a hit re-opens it.
        assert!(cache.lookup(8, &state_with(&[(1, 1)])).is_some());
        assert!(cache.insert(entry(8, &[(1, 3)], &[(9, 9)], 10)));

        // A useful group (hits early) never trips the filter.
        let useful = TrajectoryCache::with_layout(1024, 1, 4);
        useful.insert(entry(8, &[(1, 1)], &[(9, 9)], 10));
        for _ in 0..32 {
            assert!(useful.lookup(8, &state_with(&[(1, 1)])).is_some());
        }
        assert!(useful.insert(entry(8, &[(1, 2)], &[(9, 9)], 10)));
        assert_eq!(useful.stats().junk_rejected, 0);

        // Threshold 0 disables the filter entirely.
        let off = TrajectoryCache::with_layout(1024, 1, 0);
        off.insert(entry(8, &[(1, 1)], &[(9, 9)], 10));
        for _ in 0..64 {
            off.lookup(8, &miss);
        }
        assert!(off.insert(entry(8, &[(1, 3)], &[(9, 9)], 10)));
        assert_eq!(off.stats().junk_rejected, 0);
    }

    #[test]
    fn junk_filter_bounds_fresh_shapes_too() {
        // Chaotic-workload shape: every entry has a *different* read-set
        // position set, so junk arrives as new groups. Probe often enough
        // and group admission must close.
        let cache = TrajectoryCache::with_layout(1 << 12, 1, 2);
        let miss = state_with(&[]);
        let mut accepted = 0u32;
        for i in 0..2048u32 {
            if cache.insert(entry(8, &[(i % 200 + 1, 255)], &[(0, 0)], 10)) {
                accepted += 1;
            }
            // Each lookup probes every live group once (all miss: byte
            // values are 0, entries want 255).
            cache.lookup(8, &miss);
        }
        let stats = cache.stats();
        assert!(stats.junk_rejected > 0, "{stats:?}");
        assert!(
            accepted <= (JUNK_GROUP_LIMIT + 64) as u32,
            "junk group growth not bounded: {accepted} accepted ({stats:?})"
        );
    }

    #[test]
    fn peek_does_not_count_as_query() {
        let cache = TrajectoryCache::new(4);
        cache.insert(entry(0, &[(1, 1)], &[(2, 2)], 10));
        let state = state_with(&[(1, 1)]);
        assert!(cache.peek(0, &state).is_some());
        assert_eq!(cache.stats().queries, 0);
    }

    #[test]
    fn covers_agrees_with_peek_and_allocates_no_entry() {
        let cache = TrajectoryCache::new(16);
        cache.insert(entry(0, &[(1, 1)], &[(2, 2)], 10));
        let hit = state_with(&[(1, 1)]);
        let miss = state_with(&[(1, 2)]);
        assert!(cache.covers(0, &hit));
        assert!(!cache.covers(0, &miss));
        assert!(!cache.covers(1, &hit));
        assert_eq!(cache.stats().queries, 0);
    }

    #[test]
    fn lookup_scratch_is_reusable_across_hits_and_misses() {
        let cache = TrajectoryCache::new(64);
        cache.insert(entry(0, &[(1, 1)], &[(2, 2)], 10));
        cache.insert(entry(0, &[(1, 9), (3, 3)], &[(2, 7)], 99));
        let mut scratch = LookupScratch::new();
        let hit = cache.lookup_with(0, &state_with(&[(1, 1)]), &mut scratch);
        assert_eq!(hit.unwrap().instructions, 10);
        // A subsequent miss leaves the scratch holding stale data but
        // returns None.
        assert!(cache.lookup_with(0, &state_with(&[(1, 5)]), &mut scratch).is_none());
        // The scratch is reused for a different winning entry.
        let hit = cache.lookup_with(0, &state_with(&[(1, 9), (3, 3)]), &mut scratch);
        assert_eq!(hit.unwrap().instructions, 99);
        assert_eq!(cache.stats().queries, 3);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn indexed_lookup_agrees_with_reference_scan() {
        let cache = TrajectoryCache::new(1 << 10);
        // A mix of shapes: shared-shape groups, singleton shapes, an
        // empty-read-set entry (matches everything), longer/shorter pairs.
        cache.insert(entry(8, &[], &[(50, 5)], 7));
        for i in 0..40u32 {
            cache.insert(entry(
                8,
                &[(4, (i % 5) as u8), (9, (i % 3) as u8)],
                &[(60, 1)],
                u64::from(i),
            ));
            cache.insert(entry(8, &[(100 + i, 1)], &[(61, 1)], u64::from(2 * i)));
        }
        for probe in 0..60usize {
            let state = state_with(&[
                (4, (probe % 5) as u8),
                (9, (probe % 3) as u8),
                (100 + probe % 40, (probe % 2) as u8),
            ]);
            let indexed = cache.peek(8, &state).map(|e| e.instructions);
            let scanned = cache.scan_best_match(8, &state).map(|e| e.instructions);
            assert_eq!(indexed, scanned, "probe {probe} diverged");
        }
    }

    #[test]
    fn a_group_shrunk_to_one_entry_by_eviction_still_agrees_with_the_scan() {
        // One shard of capacity 3: shape S = {1, 2} fills a group of three,
        // then shape T = {3} inserts evict S's entries oldest first.
        let cache = TrajectoryCache::with_layout(3, 1, 0);
        let s_entries = [(1u8, 2u8, 10u64), (3, 4, 20), (5, 6, 30), (7, 8, 40)];
        let insert_s = |(a, b, n): (u8, u8, u64)| {
            assert!(cache.insert(entry(4, &[(1, a), (2, b)], &[(9, a)], n)));
        };
        let insert_t = |v: u8| assert!(cache.insert(entry(4, &[(3, v)], &[(9, v)], 1)));
        let group_s = |cache: &TrajectoryCache| {
            let shard = read_shard(&cache.shards[0]);
            let group = &shard.by_ip[&4][0];
            (group.live, group.newest)
        };
        let assert_agrees = |cache: &TrajectoryCache| {
            let mut probes: Vec<StateVector> =
                s_entries.iter().map(|&(a, b, _)| state_with(&[(1, a), (2, b)])).collect();
            probes.push(state_with(&[(1, 1), (2, 4)]));
            probes.push(state_with(&[(3, 7)]));
            for state in &probes {
                let scanned = cache.scan_best_match(4, state);
                assert_eq!(cache.peek(4, state), scanned);
                assert_eq!(cache.covers(4, state), scanned.is_some());
            }
        };

        for e in &s_entries[..3] {
            insert_s(*e);
        }
        assert_eq!(group_s(&cache), (3, 2));
        insert_t(7);
        insert_t(8);
        // The survivor is the newest stored slot, and the only live one.
        assert_eq!(group_s(&cache), (1, 2));
        assert_agrees(&cache);
        assert_eq!(cache.peek(4, &state_with(&[(1, 5), (2, 6)])).unwrap().instructions, 30);

        // The next S insert reuses a freed slot and evicts the old survivor,
        // so the one live slot now sits below the group's highest index.
        insert_s(s_entries[3]);
        assert_eq!(group_s(&cache), (1, 1));
        assert_agrees(&cache);
        assert_eq!(cache.peek(4, &state_with(&[(1, 7), (2, 8)])).unwrap().instructions, 40);
        assert_eq!(cache.stats().collision_rejects, 0);
    }

    #[test]
    fn a_value_hash_collision_is_rejected_and_counted() {
        // Two entries of one shape make a two-entry group, which probes its
        // value index. Re-filing the longer entry under the shorter one's
        // value hash stands in for a 64-bit collision (in-module access).
        let cache = TrajectoryCache::with_layout(16, 1, 0);
        cache.insert(entry(5, &[(1, 1), (2, 2)], &[(9, 1)], 10));
        cache.insert(entry(5, &[(1, 3), (2, 4)], &[(9, 2)], 100));
        {
            let mut shard = write_shard(&cache.shards[0]);
            let group = &mut shard.by_ip.get_mut(&5).unwrap()[0];
            assert_eq!(group.live, 2);
            let short_hash = group.slots[0].as_ref().unwrap().start.value_hash();
            let long_hash = group.slots[1].as_ref().unwrap().start.value_hash();
            assert!(group.index.get_mut(&long_hash).unwrap().remove(1));
            group.index.remove(&long_hash);
            group.index.get_mut(&short_hash).unwrap().push(1);
        }
        let state = state_with(&[(1, 1), (2, 2)]);
        let hit = cache.lookup(5, &state).expect("the genuine entry is served");
        assert_eq!(hit.instructions, 10, "the colliding entry must not be served");
        assert_eq!(cache.stats().collision_rejects, 1);
        assert_eq!(cache.stats().checksum_rejects, 0);
        assert_eq!(cache.integrity_failures(), 1);
    }

    #[test]
    fn concurrent_insert_and_lookup() {
        use std::sync::Arc;
        let cache = Arc::new(TrajectoryCache::new(1024));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u32 {
                    cache.insert(entry(t * 8, &[(i, t as u8)], &[(200, 1)], 10));
                    let state = state_with(&[(i as usize, t as u8)]);
                    cache.lookup(t * 8, &state);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert!(cache.stats().hits > 0);
        assert!(!cache.is_empty());
    }

    #[test]
    fn mean_query_bits_reflects_read_set_sizes() {
        let cache = TrajectoryCache::new(8);
        cache.insert(entry(0, &[(1, 1), (2, 2)], &[(3, 3)], 10));
        cache.insert(entry(8, &[(1, 1), (2, 2), (3, 3), (4, 4)], &[(5, 5)], 10));
        // Entries have 2 and 4 dependency bytes at 40 bits each.
        assert!((cache.mean_query_bits() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn freshly_built_entries_verify() {
        let e = entry(7, &[(1, 1), (2, 2)], &[(3, 3)], 42);
        assert!(e.verify());
        assert!(e.clone().verify());
        let mut reused = entry(0, &[], &[], 0);
        reused.clone_from(&e);
        assert!(reused.verify());
    }

    #[test]
    fn corrupted_entries_are_rejected_and_counted() {
        // Tamper with a stored entry's payload via a raw literal whose
        // checksum was sealed over different bytes (in-module test access;
        // external corruption goes through `corrupt_payload`).
        let cache = TrajectoryCache::with_layout(16, 1, 0);
        cache.insert(entry(5, &[(1, 1)], &[(9, 9)], 100));
        {
            let mut shard = write_shard(&cache.shards[0]);
            let group = &mut shard.by_ip.get_mut(&5).unwrap()[0];
            let stored = group.slots[0].as_mut().unwrap();
            stored.end = SparseBytes::from_pairs(vec![(9, 200)]);
            assert!(!stored.verify());
        }
        let state = state_with(&[(1, 1)]);
        assert!(cache.lookup(5, &state).is_none(), "corrupted entry must not be served");
        assert!(cache.scan_best_match(5, &state).is_none());
        assert_eq!(cache.stats().checksum_rejects, 1);
        assert_eq!(cache.integrity_failures(), 1);
        // An intact entry alongside the corpse is still served.
        cache.insert(entry(5, &[(1, 1), (2, 2)], &[(9, 9)], 50));
        let state = state_with(&[(1, 1), (2, 2)]);
        assert_eq!(cache.lookup(5, &state).unwrap().instructions, 50);
    }

    #[test]
    fn corrupt_payload_breaks_verification() {
        // A single-bit flip anywhere in the payload — rip, instruction count,
        // the sealed checksum, or any position or value of either sparse set
        // — leaves an entry that fails verification.
        let original = entry(11, &[(1, 2), (3, 4)], &[(5, 6), (70_000, 0)], 777);
        assert!(original.verify());
        let flipped_sets = |set: &SparseBytes| {
            let pairs: Vec<(u32, u8)> = set.iter().collect();
            let mut sets = Vec::new();
            for slot in 0..pairs.len() {
                for bit in 0..40 {
                    let mut flipped = pairs.clone();
                    if bit < 32 {
                        flipped[slot].0 ^= 1 << bit;
                    } else {
                        flipped[slot].1 ^= 1 << (bit - 32);
                    }
                    sets.push(SparseBytes::from_pairs(flipped));
                }
            }
            sets
        };
        let mut corrupted = Vec::new();
        for bit in 0..32 {
            corrupted.push(CacheEntry { rip: original.rip ^ 1 << bit, ..original.clone() });
        }
        for bit in 0..64 {
            let (instructions, checksum) =
                (original.instructions ^ 1 << bit, original.checksum ^ 1 << bit);
            corrupted.push(CacheEntry { instructions, ..original.clone() });
            corrupted.push(CacheEntry { checksum, ..original.clone() });
        }
        for start in flipped_sets(&original.start) {
            corrupted.push(CacheEntry { start, ..original.clone() });
        }
        for end in flipped_sets(&original.end) {
            corrupted.push(CacheEntry { end, ..original.clone() });
        }
        assert_eq!(corrupted.len(), 32 + 2 * 64 + 2 * 2 * 40);
        for e in &corrupted {
            assert!(!e.verify(), "a single-bit flip left the entry verifying: {e:?}");
        }

        // The fault injector's corruption is one such flip.
        #[cfg(feature = "fault-inject")]
        {
            for selector in [0u64, 1, 7, 8, 63, u64::MAX] {
                let mut e = entry(3, &[(1, 1)], &[(2, 2), (4, 4)], 10);
                e.corrupt_payload(selector);
                assert!(!e.verify(), "selector {selector} produced a verifying corruption");
            }
            // An entry with an empty write set corrupts its read set instead.
            let mut e = entry(3, &[(1, 1)], &[], 10);
            e.corrupt_payload(5);
            assert!(!e.verify());
        }
    }

    #[test]
    fn single_shard_layout_behaves() {
        let cache = TrajectoryCache::with_layout(64, 1, 0);
        for i in 0..32u32 {
            cache.insert(entry(4, &[(i, 1)], &[(200, 2)], 10));
        }
        assert_eq!(cache.len(), 32);
        for i in 0..32u32 {
            assert!(cache.lookup(4, &state_with(&[(i as usize, 1)])).is_some());
        }
        assert_eq!(cache.stats().hits, 32);
    }
}
