//! Sparse state representations.
//!
//! Cache entries in ASC are "compressed pairs of start and end states": only
//! the bytes in the read set (start) and write set (end) are stored, as a
//! sorted sparse list of `(index, value)` pairs ([`SparseBytes`]). A
//! [`PositionSchema`] is such a list's positions without the values, the
//! shape the trajectory cache groups its entries by.
//! [`SparseBytes::capture_sets`] builds both halves of an entry from a
//! superstep's dependency vector.

use crate::deps::{DepVector, READ_BITS, WRITE_BITS};
use crate::state::StateVector;

/// FNV-1a over a byte stream: a cheap, deterministic 64-bit hash used for
/// cache sharding and duplicate-work detection across the workspace.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// A sparse, sorted set of `(byte index, value)` pairs drawn from a state
/// vector.
///
/// # Examples
/// ```
/// use asc_tvm::delta::SparseBytes;
/// use asc_tvm::state::StateVector;
/// let mut s = StateVector::new(64).unwrap();
/// s.set_byte(10, 7);
/// let sparse = SparseBytes::capture(&s, [10usize, 20usize]);
/// assert!(sparse.matches(&s));
/// let mut other = s.clone();
/// other.set_byte(10, 8);
/// assert!(!sparse.matches(&other));
/// ```
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct SparseBytes {
    entries: Vec<(u32, u8)>,
}

impl Clone for SparseBytes {
    fn clone(&self) -> Self {
        SparseBytes { entries: self.entries.clone() }
    }

    /// Reuses the destination's allocation — the trajectory cache's lookup
    /// scratch clones the winning entry into a long-lived buffer on the
    /// runtime's hot loop, which must not allocate per occurrence.
    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
    }
}

impl SparseBytes {
    /// Captures the values of `indices` from `state`.
    ///
    /// Indices are deduplicated and stored sorted.
    pub fn capture(state: &StateVector, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut entries: Vec<(u32, u8)> =
            indices.into_iter().map(|i| (i as u32, state.byte(i))).collect();
        entries.sort_unstable_by_key(|(i, _)| *i);
        entries.dedup_by_key(|(i, _)| *i);
        SparseBytes { entries }
    }

    /// Captures a tracked superstep's two halves straight from its
    /// dependency vector: the read set with its values in `start`, and the
    /// write set with its values in `end` — what
    /// `capture(start, deps.read_set())` and `capture(end, deps.write_set())`
    /// return, without the index lists, the sort or the dedup.
    ///
    /// One walk over the vector's touched words fills both sets; it goes in
    /// index order, so the pairs arrive sorted and unique. The sets are
    /// allocated at their exact size, counted beforehand by popcounts of the
    /// same words: entries live in the trajectory cache for the whole run,
    /// and the slack of a grown `Vec` would be paid per entry.
    ///
    /// The filling walk leaves `deps` all-`Null`, ready for the next
    /// superstep without a reset (see [`crate::deps`]).
    ///
    /// # Panics
    /// Panics when `deps` covers more bytes than `start` or `end` holds.
    pub fn capture_sets(
        deps: &mut DepVector,
        start: &StateVector,
        end: &StateVector,
    ) -> (SparseBytes, SparseBytes) {
        let (start, end) = (start.as_bytes(), end.as_bytes());
        let (read_len, write_len) = deps.set_sizes();
        let (mut read, mut written) = (Vec::with_capacity(read_len), Vec::with_capacity(write_len));
        deps.drain_touched_words(|base, word| {
            push_marked(&mut read, word & READ_BITS, base, start);
            push_marked(&mut written, word & WRITE_BITS, base, end);
        });
        (SparseBytes { entries: read }, SparseBytes { entries: written })
    }

    /// Builds a sparse set directly from `(index, value)` pairs.
    pub fn from_pairs(mut pairs: Vec<(u32, u8)>) -> Self {
        pairs.sort_unstable_by_key(|(i, _)| *i);
        pairs.dedup_by_key(|(i, _)| *i);
        SparseBytes { entries: pairs }
    }

    /// Number of bytes captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u8)> + '_ {
        self.entries.iter().copied()
    }

    /// Whether `state` agrees with every captured byte.
    ///
    /// Indices beyond the end of `state` never match.
    pub fn matches(&self, state: &StateVector) -> bool {
        self.entries
            .iter()
            .all(|&(i, v)| (i as usize) < state.len_bytes() && state.byte(i as usize) == v)
    }

    /// Writes every captured byte into `state` (the cache "fast-forward").
    ///
    /// Indices beyond the end of `state` are ignored; in practice all
    /// captures come from states of the same machine.
    pub fn apply(&self, state: &mut StateVector) {
        for &(i, v) in &self.entries {
            if (i as usize) < state.len_bytes() {
                state.set_byte(i as usize, v);
            }
        }
    }

    /// Iterates over the byte positions (indices) in sorted order.
    pub fn positions(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries.iter().map(|&(i, _)| i)
    }

    /// A stable 64-bit hash of the byte *positions* only: every sparse set
    /// with the same dependency shape (the same read-set byte indices,
    /// whatever their values) shares this hash. One half of
    /// [`fingerprint`](SparseBytes::fingerprint).
    pub fn position_hash(&self) -> u64 {
        fnv1a(self.entries.iter().flat_map(|&(i, _)| i.to_le_bytes()))
    }

    /// A stable 64-bit hash of the byte *values* only, taken in position
    /// order. Two sparse sets with identical positions match the same states
    /// iff their value hashes agree (modulo 64-bit collisions, which callers
    /// must guard with a full [`matches`](SparseBytes::matches)); a state's
    /// bytes at those positions hash to the same value via
    /// [`StateVector::hash_values_at`]. The other half of
    /// [`fingerprint`](SparseBytes::fingerprint).
    pub fn value_hash(&self) -> u64 {
        fnv1a(self.entries.iter().map(|&(_, v)| v))
    }

    /// A stable 64-bit hash of the contents, used as a cheap cache index key.
    /// Combines the position and value halves so that sets differing in
    /// either indices or values fingerprint differently.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_of(self.position_hash(), self.value_hash())
    }

    /// Size in bits of the serialized sparse representation (5 bytes per
    /// entry: a 32-bit index plus the value). This is what Table 1 reports as
    /// the cache query size.
    pub fn encoded_bits(&self) -> usize {
        self.entries.len() * (4 + 1) * 8
    }

    /// Flips one bit of the `index`-th captured *value* (both `index` and
    /// `bit` wrap), leaving the positions — and therefore the sort order —
    /// untouched. No-op on an empty set.
    ///
    /// This models payload corruption (a flipped bit in a stored or
    /// transmitted cache entry) for the fault-injection harness and for
    /// integrity-checksum tests; it has no role in normal execution.
    pub fn flip_value_bit(&mut self, index: usize, bit: u32) {
        if self.entries.is_empty() {
            return;
        }
        let slot = index % self.entries.len();
        self.entries[slot].1 ^= 1u8 << (bit % 8);
    }
}

/// [`SparseBytes::fingerprint`] from its two halves, for a caller that has
/// already computed them.
pub fn fingerprint_of(position_hash: u64, value_hash: u64) -> u64 {
    position_hash.rotate_left(32) ^ value_hash
}

/// Pushes `(i, bytes[i])` for every status of the word at `base` that has a
/// bit in `marked` (one bit per marked byte), in index order.
#[inline]
fn push_marked(out: &mut Vec<(u32, u8)>, mut marked: u64, base: usize, bytes: &[u8]) {
    while marked != 0 {
        let i = base + marked.trailing_zeros() as usize / 8;
        out.push((i as u32, bytes[i]));
        marked &= marked - 1;
    }
}

impl FromIterator<(u32, u8)> for SparseBytes {
    fn from_iter<T: IntoIterator<Item = (u32, u8)>>(iter: T) -> Self {
        SparseBytes::from_pairs(iter.into_iter().collect())
    }
}

/// The *shape* of a sparse capture: its sorted byte positions, without the
/// values, plus their hash. Every [`SparseBytes`] whose dependencies touch
/// the same bytes shares one schema — most programs produce only a handful
/// of distinct schemas per recognized IP, which is what makes the trajectory
/// cache's grouped value-hash index effective: a query hashes the live
/// state's bytes at each schema's positions once
/// ([`hash_values_of`](PositionSchema::hash_values_of)) and compares against
/// stored [`value_hash`](SparseBytes::value_hash)es instead of matching
/// every entry byte-by-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositionSchema {
    positions: Box<[u32]>,
    hash: u64,
}

impl PositionSchema {
    /// The schema of a sparse capture (its positions, values dropped).
    pub fn of(sparse: &SparseBytes) -> Self {
        PositionSchema::with_hash(sparse, sparse.position_hash())
    }

    /// [`of`](PositionSchema::of) for a caller that already holds the
    /// capture's [`position_hash`](SparseBytes::position_hash), which must
    /// be passed as `position_hash`.
    pub fn with_hash(sparse: &SparseBytes, position_hash: u64) -> Self {
        debug_assert_eq!(position_hash, sparse.position_hash(), "a foreign position hash");
        PositionSchema { positions: sparse.positions().collect(), hash: position_hash }
    }

    /// The sorted byte positions.
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }

    /// The schema's hash, equal to [`SparseBytes::position_hash`] of any
    /// capture with these positions.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Number of positions in the schema.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the schema has no positions (an empty read set, which every
    /// state satisfies).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Whether `sparse` has exactly these positions.
    pub fn describes(&self, sparse: &SparseBytes) -> bool {
        sparse.len() == self.positions.len()
            && sparse.positions().zip(self.positions.iter()).all(|(a, &b)| a == b)
    }

    /// Hashes `state`'s bytes at the schema's positions, in order — equal to
    /// the [`value_hash`](SparseBytes::value_hash) of any capture with these
    /// positions whose values `state` agrees with. Returns `None` when a
    /// position lies beyond the end of `state` (no capture with this schema
    /// can match such a state).
    pub fn hash_values_of(&self, state: &StateVector) -> Option<u64> {
        state.hash_values_at(&self.positions)
    }
}

impl From<&SparseBytes> for PositionSchema {
    fn from(sparse: &SparseBytes) -> Self {
        PositionSchema::of(sparse)
    }
}

impl StateVector {
    /// Hashes this state's bytes at `positions`, in the order given; the
    /// counterpart of [`SparseBytes::value_hash`] for a live state. Returns
    /// `None` when any position is out of bounds.
    pub fn hash_values_at(&self, positions: &[u32]) -> Option<u64> {
        let bytes = self.as_bytes();
        if positions.iter().any(|&p| p as usize >= bytes.len()) {
            return None;
        }
        Some(fnv1a(positions.iter().map(|&p| bytes[p as usize])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_capture_sorts_and_dedups() {
        let mut s = StateVector::new(32).unwrap();
        s.set_byte(5, 50);
        s.set_byte(3, 30);
        let sparse = SparseBytes::capture(&s, [5usize, 3, 5, 3]);
        let pairs: Vec<_> = sparse.iter().collect();
        assert_eq!(pairs, vec![(3, 30), (5, 50)]);
        assert_eq!(sparse.len(), 2);
        assert_eq!(sparse.encoded_bits(), 2 * 40);
    }

    #[test]
    fn capture_sets_equals_per_byte_capture_at_exact_capacity() {
        let (mut start, mut end) = (StateVector::new(96).unwrap(), StateVector::new(96).unwrap());
        let len = start.len_bytes();
        for i in 0..len {
            start.set_byte(i, i as u8);
            end.set_byte(i, !(i as u8));
        }
        let mut deps = DepVector::new(len);
        deps.note_read_range(1, 8);
        deps.note_write_range(5, 4);
        deps.note_write_range(40, 8);
        deps.note_read_range(44, 4);
        deps.note_read(len - 1);
        let (reads, writes) = (deps.read_set(), deps.write_set());
        let (read, written) = SparseBytes::capture_sets(&mut deps, &start, &end);
        assert_eq!(read, SparseBytes::capture(&start, reads));
        assert_eq!(written, SparseBytes::capture(&end, writes));
        assert_eq!(read.entries.capacity(), read.len());
        assert_eq!(written.entries.capacity(), written.len());
        // The capture left the vector clean, the tail's statuses included,
        // and a clean vector captures two empty sets.
        assert_eq!(deps, DepVector::new(len));
        let (read, written) = SparseBytes::capture_sets(&mut deps, &start, &end);
        assert!(read.is_empty() && written.is_empty());
    }

    #[test]
    fn sparse_match_apply_roundtrip() {
        let mut a = StateVector::new(64).unwrap();
        a.set_byte(10, 1);
        a.set_byte(20, 2);
        let sparse = SparseBytes::capture(&a, [10usize, 20]);
        let mut b = StateVector::new(64).unwrap();
        assert!(!sparse.matches(&b));
        sparse.apply(&mut b);
        assert!(sparse.matches(&b));
    }

    #[test]
    fn fingerprint_distinguishes_values_and_indices() {
        let a = SparseBytes::from_pairs(vec![(1, 1), (2, 2)]);
        let b = SparseBytes::from_pairs(vec![(1, 1), (2, 3)]);
        let c = SparseBytes::from_pairs(vec![(1, 1), (3, 2)]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        // The halves split cleanly: same positions ⇒ same position hash;
        // same values ⇒ same value hash.
        assert_eq!(a.position_hash(), b.position_hash());
        assert_ne!(a.position_hash(), c.position_hash());
        assert_eq!(a.value_hash(), c.value_hash());
        assert_ne!(a.value_hash(), b.value_hash());
    }

    #[test]
    fn schema_value_hash_agrees_with_live_state_hash() {
        let mut state = StateVector::new(64).unwrap();
        state.set_byte(10, 7);
        state.set_byte(30, 99);
        let sparse = SparseBytes::capture(&state, [30usize, 10]);
        let schema = PositionSchema::of(&sparse);
        assert_eq!(schema.positions(), &[10, 30]);
        assert_eq!(schema.hash(), sparse.position_hash());
        assert!(schema.describes(&sparse));
        assert!(!schema.describes(&SparseBytes::from_pairs(vec![(10, 7)])));
        // A matching state hashes to the capture's value hash...
        assert_eq!(schema.hash_values_of(&state), Some(sparse.value_hash()));
        // ...a state differing at a captured byte does not...
        let mut other = state.clone();
        other.set_byte(10, 8);
        assert_ne!(schema.hash_values_of(&other), Some(sparse.value_hash()));
        // ...and out-of-bounds positions can never match.
        let tiny = StateVector::new(1).unwrap();
        let far = PositionSchema::of(&SparseBytes::from_pairs(vec![(4096, 1)]));
        assert_eq!(far.hash_values_of(&tiny), None);
        // Empty schemas match every state (an empty read set is always
        // satisfied) and hash to the empty capture's value hash.
        let empty = PositionSchema::of(&SparseBytes::default());
        assert!(empty.is_empty());
        assert_eq!(empty.hash_values_of(&tiny), Some(SparseBytes::default().value_hash()));
    }

    #[test]
    fn sparse_clone_from_reuses_allocation_and_matches_clone() {
        let source = SparseBytes::from_pairs(vec![(1, 1), (2, 2), (3, 3)]);
        let mut dest = SparseBytes::from_pairs(vec![(9, 9)]);
        dest.clone_from(&source);
        assert_eq!(dest, source);
    }
}
