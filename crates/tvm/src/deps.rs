//! Per-byte dependency tracking for speculative execution.
//!
//! The paper's transition function accumulates dependency information in a
//! vector `g` at byte granularity: each byte of the state vector carries one
//! of four statuses — `null`, `read`, `written` or `written after read` —
//! maintained by a small finite state machine on every access (§4.1).
//!
//! The read set (`read` ∪ `written after read`) identifies exactly the bytes
//! a speculative execution *depended on*; the write set (`written` ∪
//! `written after read`) identifies the bytes it *produced*. The trajectory
//! cache matches new queries against the read set only and fast-forwards by
//! applying the write set, which is what lets a single cache entry be reused
//! from many different full states.
//!
//! ## Recording: the FSM applied a word at a time
//!
//! Each status is one raw byte — `Null` 0, `Read` 1, `Written` 2,
//! `WrittenAfterRead` 3 — chosen so that both transitions are bitwise:
//!
//! * a write is `s | 0x02`: `Null` becomes `Written`, `Read` becomes
//!   `WrittenAfterRead`, and the other two already have the bit;
//! * a read is `s | (!(s | s >> 1) & 0x01)`: the low bit is set only on a
//!   byte whose both bits are clear, so only `Null` becomes `Read`.
//!
//! Neither operation carries a bit into a neighbouring byte once masked, so
//! the same expressions over a `u32` (`0x0101_0101`, `0x0202_0202`) or a
//! `u64` update four or eight statuses at once. The interpreter's accesses
//! are almost all 4 bytes (IP, flags, a register, a data word) or 8 (the
//! instruction fetch), so [`DepVector::note_read_range`] and
//! [`DepVector::note_write_range`] cost one bounds-checked load, op and store
//! per access; other lengths, and the 1-byte data accesses, take the byte
//! loop. Words are read with `from_ne_bytes` from the slice, so unaligned
//! data words need no special case.
//!
//! ## Reading the sets back
//!
//! The same encoding makes set membership a bit test: a status is in the
//! read set iff its low bit is set and in the write set iff its second bit
//! is. Production capture goes through
//! [`SparseBytes::capture_sets`](crate::delta::SparseBytes::capture_sets),
//! which builds an entry's read and write halves in one walk that skips
//! untouched chunks of the vector whole and picks the set bytes out of
//! each touched 8-status word with bit operations; the sets' sizes are
//! popcounts of the same words. That walk also zeroes every chunk it reads,
//! so a captured vector is all-`Null` again: the next superstep can start
//! on it without the state-sized [`DepVector::reset`]. A superstep that
//! faults is never captured, and its vector must be reset.
//! [`DepVector::iter_touched`],
//! [`DepVector::read_set`] and [`DepVector::write_set`] are the per-byte
//! reference forms, kept for tests and diagnostics.

/// Dependency status of one state-vector byte.
///
/// The transition diagram (applied on every byte access) is:
///
/// ```text
///            read               write
/// Null ────────────► Read ───────────────► WrittenAfterRead
///   │                                              ▲
///   │ write                              read/write│ (absorbing)
///   └──────────► Written ── read/write ──► Written │
/// ```
///
/// `Written` stays `Written` on subsequent reads because the value read was
/// produced by the speculation itself and is therefore not an external
/// dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum DepStatus {
    /// The byte has not been touched.
    #[default]
    Null = 0,
    /// The byte was read before ever being written: an external dependency.
    Read = 1,
    /// The byte was written before ever being read: an output only.
    Written = 2,
    /// The byte was read first and later written: both dependency and output.
    WrittenAfterRead = 3,
}

impl DepStatus {
    /// Whether this byte is part of the read (dependency) set.
    pub fn in_read_set(self) -> bool {
        matches!(self, DepStatus::Read | DepStatus::WrittenAfterRead)
    }

    /// Whether this byte is part of the write (output) set.
    pub fn in_write_set(self) -> bool {
        matches!(self, DepStatus::Written | DepStatus::WrittenAfterRead)
    }

    /// The status after observing a read of this byte.
    pub fn after_read(self) -> Self {
        match self {
            DepStatus::Null => DepStatus::Read,
            other => other,
        }
    }

    /// The status after observing a write of this byte.
    pub fn after_write(self) -> Self {
        match self {
            DepStatus::Null => DepStatus::Written,
            DepStatus::Read => DepStatus::WrittenAfterRead,
            other => other,
        }
    }
}

/// Dependency vector: one [`DepStatus`] per state-vector byte, stored as
/// its raw `u8` so the FSM applies a word at a time (see the module docs).
///
/// A superstep must start on an all-`Null` vector. Capturing an entry
/// ([`SparseBytes::capture_sets`](crate::delta::SparseBytes::capture_sets))
/// leaves the vector in that state; anything else that noted accesses
/// leaves it to be [`reset`](DepVector::reset).
///
/// # Examples
/// ```
/// use asc_tvm::deps::{DepStatus, DepVector};
/// let mut g = DepVector::new(16);
/// g.note_read(3);
/// g.note_write(3);
/// g.note_write(5);
/// assert_eq!(g.status(3), DepStatus::WrittenAfterRead);
/// assert_eq!(g.read_set(), vec![3]);
/// assert_eq!(g.write_set(), vec![3, 5]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepVector {
    status: Vec<u8>,
}

impl DepVector {
    /// Creates an all-`Null` dependency vector covering `len_bytes` state bytes.
    pub fn new(len_bytes: usize) -> Self {
        DepVector { status: vec![DepStatus::Null as u8; len_bytes] }
    }

    /// Number of tracked bytes.
    pub fn len(&self) -> usize {
        self.status.len()
    }

    /// Whether the vector tracks zero bytes.
    pub fn is_empty(&self) -> bool {
        self.status.is_empty()
    }

    /// Resets every byte to `Null`, as a speculative worker does before
    /// starting a new superstep whose vector was not captured (see the
    /// module docs: a capture leaves the vector all-`Null` already).
    pub fn reset(&mut self) {
        self.status.fill(DepStatus::Null as u8);
    }

    /// Resets the vector for a state of `len_bytes` bytes, reusing the
    /// existing allocation when the size is unchanged. Long-lived speculation
    /// workers call this instead of constructing a fresh [`DepVector`] per
    /// superstep — only after a job whose vector was not captured, or for a
    /// state of another size: a capture already leaves the vector clean.
    pub fn reset_for(&mut self, len_bytes: usize) {
        if self.status.len() == len_bytes {
            self.reset();
        } else {
            self.status.clear();
            self.status.resize(len_bytes, DepStatus::Null as u8);
        }
    }

    /// The status of byte `index`.
    ///
    /// # Panics
    /// Panics when `index` is out of bounds.
    pub fn status(&self, index: usize) -> DepStatus {
        status_of(self.status[index])
    }

    /// Records a read of byte `index`.
    #[inline]
    pub fn note_read(&mut self, index: usize) {
        let s = &mut self.status[index];
        *s |= !(*s | *s >> 1) & READ_BITS as u8;
    }

    /// Records a write of byte `index`.
    #[inline]
    pub fn note_write(&mut self, index: usize) {
        self.status[index] |= WRITE_BITS as u8;
    }

    /// Records a read of `len` consecutive bytes starting at `index`: one
    /// word operation for a 4- or 8-byte access, the byte loop otherwise.
    ///
    /// # Panics
    /// Panics when the range is out of bounds.
    #[inline]
    pub fn note_read_range(&mut self, index: usize, len: usize) {
        match len {
            4 => {
                let word: &mut [u8; 4] = self.word_mut(index);
                let s = u32::from_ne_bytes(*word);
                *word = (s | (!(s | s >> 1) & READ_BITS as u32)).to_ne_bytes();
            }
            8 => {
                let word: &mut [u8; 8] = self.word_mut(index);
                let s = u64::from_ne_bytes(*word);
                *word = (s | (!(s | s >> 1) & READ_BITS)).to_ne_bytes();
            }
            _ => {
                for i in index..index + len {
                    self.note_read(i);
                }
            }
        }
    }

    /// Records a write of `len` consecutive bytes starting at `index`: one
    /// word operation for a 4- or 8-byte access, the byte loop otherwise.
    ///
    /// # Panics
    /// Panics when the range is out of bounds.
    #[inline]
    pub fn note_write_range(&mut self, index: usize, len: usize) {
        match len {
            4 => {
                let word: &mut [u8; 4] = self.word_mut(index);
                *word = (u32::from_ne_bytes(*word) | WRITE_BITS as u32).to_ne_bytes();
            }
            8 => {
                let word: &mut [u8; 8] = self.word_mut(index);
                *word = (u64::from_ne_bytes(*word) | WRITE_BITS).to_ne_bytes();
            }
            _ => {
                for i in index..index + len {
                    self.note_write(i);
                }
            }
        }
    }

    /// The `N` statuses from `index` on, as an array (one bounds check).
    #[inline]
    fn word_mut<const N: usize>(&mut self, index: usize) -> &mut [u8; N] {
        (&mut self.status[index..index + N]).try_into().expect("the range is N bytes long")
    }

    /// Byte indices the computation depended on (status `Read` or
    /// `WrittenAfterRead`), in increasing order. The per-byte reference
    /// form; entries are captured through
    /// [`SparseBytes::capture_sets`](crate::delta::SparseBytes::capture_sets).
    pub fn read_set(&self) -> Vec<usize> {
        self.iter_touched().filter(|(_, s)| s.in_read_set()).map(|(i, _)| i).collect()
    }

    /// Byte indices the computation produced (status `Written` or
    /// `WrittenAfterRead`), in increasing order. The per-byte reference
    /// form, like [`read_set`](DepVector::read_set).
    pub fn write_set(&self) -> Vec<usize> {
        self.iter_touched().filter(|(_, s)| s.in_write_set()).map(|(i, _)| i).collect()
    }

    /// Number of bytes with a non-`Null` status.
    pub fn touched(&self) -> usize {
        let mut touched = 0;
        self.for_each_touched_word(|_, word| {
            touched += ((word | word >> 1) & READ_BITS).count_ones() as usize;
        });
        touched
    }

    /// The sizes of the read and write sets, counted a word at a time: a
    /// status is in the read set iff its low bit is set (`Read`,
    /// `WrittenAfterRead`) and in the write set iff its second bit is
    /// (`Written`, `WrittenAfterRead`).
    pub(crate) fn set_sizes(&self) -> (usize, usize) {
        let (mut read, mut written) = (0, 0);
        self.for_each_touched_word(|_, word| {
            read += (word & READ_BITS).count_ones() as usize;
            written += (word & WRITE_BITS).count_ones() as usize;
        });
        (read, written)
    }

    /// Iterates over `(index, status)` pairs for non-`Null` bytes, in
    /// increasing index order, one status at a time: the reference walk
    /// behind [`read_set`](DepVector::read_set) and
    /// [`write_set`](DepVector::write_set). It costs in proportion to the
    /// state; production reads the sets through
    /// [`SparseBytes::capture_sets`](crate::delta::SparseBytes::capture_sets).
    pub fn iter_touched(&self) -> impl Iterator<Item = (usize, DepStatus)> + '_ {
        self.status.iter().enumerate().filter(|(_, &s)| s != 0).map(|(i, &s)| (i, status_of(s)))
    }

    /// Calls `f(base, word)` for every non-zero 8-status word, in
    /// increasing order; status `base + k` is byte `k` of the little-endian
    /// `word`, and the vector's last word is zero-padded.
    ///
    /// A superstep touches a few hundred bytes of a state that can be tens
    /// of kilobytes, so the walk skips untouched statuses `WALK_CHUNK` at a
    /// time and reads only the other chunks word by word: its cost follows
    /// the touched bytes more than the state.
    #[inline]
    pub(crate) fn for_each_touched_word(&self, mut f: impl FnMut(usize, u64)) {
        let mut chunks = self.status.chunks_exact(WALK_CHUNK);
        for (c, chunk) in chunks.by_ref().enumerate() {
            visit_chunk(c * WALK_CHUNK, chunk, &mut f);
        }
        let tail = chunks.remainder();
        visit_tail(self.status.len() - tail.len(), tail, &mut f);
    }

    /// [`for_each_touched_word`](DepVector::for_each_touched_word), leaving
    /// every status `Null` behind it: each chunk the walk reads is zeroed
    /// after its words were passed to `f`. This is the walk an entry's
    /// capture makes, so that the vector is clean for the next superstep
    /// without a state-sized [`reset`](DepVector::reset).
    #[inline]
    pub(crate) fn drain_touched_words(&mut self, mut f: impl FnMut(usize, u64)) {
        let len = self.status.len();
        let mut chunks = self.status.chunks_exact_mut(WALK_CHUNK);
        for (c, chunk) in chunks.by_ref().enumerate() {
            if visit_chunk(c * WALK_CHUNK, chunk, &mut f) {
                chunk.fill(DepStatus::Null as u8);
            }
        }
        let tail = chunks.into_remainder();
        visit_tail(len - tail.len(), tail, &mut f);
        tail.fill(DepStatus::Null as u8);
    }
}

/// Passes the non-zero words of one whole walk chunk, starting at status
/// `base`, to `f`; returns whether the chunk held any.
#[inline]
fn visit_chunk(base: usize, chunk: &[u8], f: &mut impl FnMut(usize, u64)) -> bool {
    let chunk: &[u8; WALK_CHUNK] = chunk.try_into().expect("a whole chunk");
    if chunk.iter().fold(0, |any, &s| any | s) == 0 {
        return false;
    }
    for (w, bytes) in chunk.chunks_exact(8).enumerate() {
        let word = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        if word != 0 {
            f(base + w * 8, word);
        }
    }
    true
}

/// Passes the non-zero words of the vector's last, shorter-than-a-chunk
/// stretch to `f`, its last word zero-padded.
#[inline]
fn visit_tail(base: usize, tail: &[u8], f: &mut impl FnMut(usize, u64)) {
    for (w, bytes) in tail.chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..bytes.len()].copy_from_slice(bytes);
        let word = u64::from_le_bytes(word);
        if word != 0 {
            f(base + w * 8, word);
        }
    }
}

/// Each status's read-set bit (`Read`, `WrittenAfterRead`) in every byte
/// of a status word; truncated to `u32` / `u8` for narrower words. A read
/// sets it on `Null` bytes only.
pub(crate) const READ_BITS: u64 = 0x0101_0101_0101_0101;

/// Each status's write-set bit (`Written`, `WrittenAfterRead`) in every
/// byte of a status word; truncated like [`READ_BITS`]. A write sets it.
pub(crate) const WRITE_BITS: u64 = READ_BITS << 1;

/// The [`DepStatus`] a raw status byte encodes (only the low two bits are
/// ever set).
#[inline]
fn status_of(raw: u8) -> DepStatus {
    match raw {
        0 => DepStatus::Null,
        1 => DepStatus::Read,
        2 => DepStatus::Written,
        _ => DepStatus::WrittenAfterRead,
    }
}

/// Statuses per chunk of `DepVector::for_each_touched_word`'s walk; a
/// chunk nothing touched costs one vectorizable OR of its bytes.
const WALK_CHUNK: usize = 128;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsm_transitions_match_paper() {
        // read then write => written-after-read
        assert_eq!(DepStatus::Null.after_read().after_write(), DepStatus::WrittenAfterRead);
        // write then read => still written (value came from the speculation itself)
        assert_eq!(DepStatus::Null.after_write().after_read(), DepStatus::Written);
        // written-after-read is absorbing
        assert_eq!(DepStatus::WrittenAfterRead.after_read(), DepStatus::WrittenAfterRead);
        assert_eq!(DepStatus::WrittenAfterRead.after_write(), DepStatus::WrittenAfterRead);
        // repeated reads stay read
        assert_eq!(DepStatus::Read.after_read(), DepStatus::Read);
    }

    #[test]
    fn read_and_write_sets() {
        let mut g = DepVector::new(8);
        g.note_read(0); // read only
        g.note_write(1); // write only
        g.note_read(2);
        g.note_write(2); // read then write
        g.note_write(3);
        g.note_read(3); // write then read: output only
        assert_eq!(g.read_set(), vec![0, 2]);
        assert_eq!(g.write_set(), vec![1, 2, 3]);
        assert_eq!(g.touched(), 4);
    }

    #[test]
    fn reset_clears_everything() {
        let mut g = DepVector::new(4);
        g.note_read_range(0, 4);
        assert_eq!(g.touched(), 4);
        g.reset();
        assert_eq!(g.touched(), 0);
        assert!(g.read_set().is_empty());
        assert!(g.write_set().is_empty());
    }

    #[test]
    fn range_helpers_cover_every_byte() {
        let mut g = DepVector::new(10);
        g.note_write_range(2, 4);
        assert_eq!(g.write_set(), vec![2, 3, 4, 5]);
        g.note_read_range(4, 3);
        // bytes 4,5 were already written, so a later read does not make them dependencies
        assert_eq!(g.read_set(), vec![6]);
    }

    const ALL: [DepStatus; 4] =
        [DepStatus::Null, DepStatus::Read, DepStatus::Written, DepStatus::WrittenAfterRead];

    /// Every `N`-status word (`4^N` of them), each noted as one `N`-byte
    /// read and one `N`-byte write at an aligned and an unaligned offset,
    /// must equal `N` per-byte `after_read` / `after_write` steps — and
    /// leave the neighbouring statuses alone.
    fn assert_word_ops_match_the_per_byte_fsm<const N: usize>() {
        for code in 0..4usize.pow(N as u32) {
            let word: [DepStatus; N] = std::array::from_fn(|k| ALL[code >> (2 * k) & 3]);
            for offset in [0, 3] {
                for write in [false, true] {
                    let mut g = DepVector::new(offset + N + 1);
                    // Neighbours in a mixed state, so a carried bit shows.
                    g.status.fill(DepStatus::Read as u8);
                    for (k, &s) in word.iter().enumerate() {
                        g.status[offset + k] = s as u8;
                    }
                    let mut want: Vec<DepStatus> = (0..g.len()).map(|i| g.status(i)).collect();
                    for s in &mut want[offset..offset + N] {
                        *s = if write { s.after_write() } else { s.after_read() };
                    }
                    if write {
                        g.note_write_range(offset, N);
                    } else {
                        g.note_read_range(offset, N);
                    }
                    let got: Vec<DepStatus> = (0..g.len()).map(|i| g.status(i)).collect();
                    assert_eq!(got, want, "{word:?} at {offset}, write {write}");
                }
            }
        }
    }

    #[test]
    fn word_ops_equal_the_per_byte_fsm_on_every_status_word() {
        assert_word_ops_match_the_per_byte_fsm::<4>();
        assert_word_ops_match_the_per_byte_fsm::<8>();
    }

    #[test]
    fn word_ops_reach_the_last_byte_and_refuse_to_overrun() {
        let mut g = DepVector::new(12);
        g.note_read_range(4, 8);
        g.note_write_range(8, 4);
        assert_eq!(g.read_set(), (4..12).collect::<Vec<_>>());
        assert_eq!(g.write_set(), (8..12).collect::<Vec<_>>());
        for (index, len) in [(9, 4), (5, 8), (12, 1)] {
            let overrun = std::panic::catch_unwind(|| {
                let mut g = DepVector::new(12);
                g.note_read_range(index, len);
            });
            assert!(overrun.is_err(), "{len} bytes at {index} accepted");
        }
    }

    /// Per-byte reference for the chunked, word-wise walk.
    fn reference_touched(g: &DepVector) -> Vec<(usize, DepStatus)> {
        (0..g.len()).map(|i| (i, g.status(i))).filter(|(_, s)| *s != DepStatus::Null).collect()
    }

    fn assert_walk_matches_reference(g: &DepVector) {
        let reference = reference_touched(g);
        let reads: Vec<usize> =
            reference.iter().filter(|(_, s)| s.in_read_set()).map(|(i, _)| *i).collect();
        let writes: Vec<usize> =
            reference.iter().filter(|(_, s)| s.in_write_set()).map(|(i, _)| *i).collect();
        let mut walked = Vec::new();
        g.for_each_touched_word(|base, word| {
            for (k, &s) in word.to_le_bytes().iter().enumerate() {
                if s != 0 {
                    walked.push((base + k, status_of(s)));
                }
            }
        });
        assert_eq!(walked, reference, "len {}", g.len());
        // The draining walk visits the same words and leaves all-`Null`.
        let (mut drained, mut g2) = (Vec::new(), g.clone());
        g2.drain_touched_words(|base, word| drained.push((base, word)));
        let mut words = Vec::new();
        g.for_each_touched_word(|base, word| words.push((base, word)));
        assert_eq!(drained, words, "len {}", g.len());
        assert_eq!(g2, DepVector::new(g.len()), "len {}", g.len());
        assert_eq!(g.iter_touched().collect::<Vec<_>>(), reference, "len {}", g.len());
        assert_eq!(g.touched(), reference.len(), "len {}", g.len());
        assert_eq!(g.set_sizes(), (reads.len(), writes.len()), "len {}", g.len());
        assert_eq!(g.read_set(), reads, "len {}", g.len());
        assert_eq!(g.write_set(), writes, "len {}", g.len());
    }

    #[test]
    fn chunked_walk_matches_a_per_byte_reference() {
        let lengths = [0, 1, WALK_CHUNK - 1, WALK_CHUNK, WALK_CHUNK + 1, 66_000];
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            // xorshift64*: a fixed, dependency-free sequence.
            seed ^= seed >> 12;
            seed ^= seed << 25;
            seed ^= seed >> 27;
            seed.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for len in lengths {
            let mut g = DepVector::new(len);
            assert_walk_matches_reference(&g);
            if len == 0 {
                continue;
            }
            // Touches in only the first and the last byte.
            g.note_read(0);
            g.note_write(len - 1);
            assert_walk_matches_reference(&g);
            // Random read/write sequences: sparse, then dense.
            for accesses in [len.min(8), len / 2 + 1] {
                g.reset();
                for _ in 0..accesses {
                    let r = next();
                    let index = (r >> 1) as usize % len;
                    if r & 1 == 0 {
                        g.note_read(index);
                    } else {
                        g.note_write(index);
                    }
                }
                assert_walk_matches_reference(&g);
            }
        }
    }

    #[test]
    fn iter_touched_matches_sets() {
        let mut g = DepVector::new(6);
        g.note_read(1);
        g.note_write(4);
        let touched: Vec<_> = g.iter_touched().collect();
        assert_eq!(touched, vec![(1, DepStatus::Read), (4, DepStatus::Written)]);
    }
}
