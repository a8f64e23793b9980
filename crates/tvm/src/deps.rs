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
//! Recording stays one status update per access. Reading the sets back
//! ([`DepVector::read_set`], [`DepVector::write_set`]) walks the vector in
//! fixed chunks and skips every chunk nothing touched, so capturing a
//! superstep costs in proportion to the bytes it touched, not to the state.

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

/// Dependency vector: one [`DepStatus`] per state-vector byte.
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
    status: Vec<DepStatus>,
}

impl DepVector {
    /// Creates an all-`Null` dependency vector covering `len_bytes` state bytes.
    pub fn new(len_bytes: usize) -> Self {
        DepVector { status: vec![DepStatus::Null; len_bytes] }
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
    /// starting a new superstep.
    pub fn reset(&mut self) {
        self.status.fill(DepStatus::Null);
    }

    /// Resets the vector for a state of `len_bytes` bytes, reusing the
    /// existing allocation when the size is unchanged. Long-lived speculation
    /// workers call this between jobs instead of constructing a fresh
    /// [`DepVector`] per superstep.
    pub fn reset_for(&mut self, len_bytes: usize) {
        if self.status.len() == len_bytes {
            self.status.fill(DepStatus::Null);
        } else {
            self.status.clear();
            self.status.resize(len_bytes, DepStatus::Null);
        }
    }

    /// The status of byte `index`.
    ///
    /// # Panics
    /// Panics when `index` is out of bounds.
    pub fn status(&self, index: usize) -> DepStatus {
        self.status[index]
    }

    /// Records a read of byte `index`.
    #[inline]
    pub fn note_read(&mut self, index: usize) {
        let s = &mut self.status[index];
        *s = s.after_read();
    }

    /// Records a write of byte `index`.
    #[inline]
    pub fn note_write(&mut self, index: usize) {
        let s = &mut self.status[index];
        *s = s.after_write();
    }

    /// Records a read of `len` consecutive bytes starting at `index`.
    #[inline]
    pub fn note_read_range(&mut self, index: usize, len: usize) {
        for i in index..index + len {
            self.note_read(i);
        }
    }

    /// Records a write of `len` consecutive bytes starting at `index`.
    #[inline]
    pub fn note_write_range(&mut self, index: usize, len: usize) {
        for i in index..index + len {
            self.note_write(i);
        }
    }

    /// Byte indices the computation depended on (status `Read` or
    /// `WrittenAfterRead`), in increasing order.
    pub fn read_set(&self) -> Vec<usize> {
        self.iter_touched().filter(|(_, s)| s.in_read_set()).map(|(i, _)| i).collect()
    }

    /// Byte indices the computation produced (status `Written` or
    /// `WrittenAfterRead`), in increasing order.
    pub fn write_set(&self) -> Vec<usize> {
        self.iter_touched().filter(|(_, s)| s.in_write_set()).map(|(i, _)| i).collect()
    }

    /// Number of bytes with a non-`Null` status.
    pub fn touched(&self) -> usize {
        self.iter_touched().count()
    }

    /// Iterates over `(index, status)` pairs for non-`Null` bytes, in
    /// increasing index order.
    ///
    /// A superstep touches a few hundred bytes of a state that can be tens
    /// of kilobytes, so the walk goes 32 statuses (`WALK_CHUNK`) at a time:
    /// a chunk whose statuses OR to `Null` (0) holds nothing and is skipped
    /// whole, and only the others are read status by status. The cost
    /// follows the touched bytes rather than the state size.
    pub fn iter_touched(&self) -> impl Iterator<Item = (usize, DepStatus)> + '_ {
        let chunks = self.status.chunks_exact(WALK_CHUNK);
        let tail = chunks.remainder();
        chunks
            .chain(std::iter::once(tail))
            .enumerate()
            .filter(|(_, chunk)| chunk.iter().fold(0u8, |any, &s| any | s as u8) != 0)
            .flat_map(|(c, chunk)| {
                chunk
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| **s != DepStatus::Null)
                    .map(move |(i, &s)| (c * WALK_CHUNK + i, s))
            })
    }
}

/// Statuses per chunk of [`DepVector::iter_touched`]'s walk.
const WALK_CHUNK: usize = 32;

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

    /// Per-byte reference for the chunked walk.
    fn reference_touched(g: &DepVector) -> Vec<(usize, DepStatus)> {
        (0..g.len()).map(|i| (i, g.status(i))).filter(|(_, s)| *s != DepStatus::Null).collect()
    }

    fn assert_walk_matches_reference(g: &DepVector) {
        let reference = reference_touched(g);
        let reads: Vec<usize> =
            reference.iter().filter(|(_, s)| s.in_read_set()).map(|(i, _)| *i).collect();
        let writes: Vec<usize> =
            reference.iter().filter(|(_, s)| s.in_write_set()).map(|(i, _)| *i).collect();
        assert_eq!(g.iter_touched().collect::<Vec<_>>(), reference, "len {}", g.len());
        assert_eq!(g.touched(), reference.len(), "len {}", g.len());
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
