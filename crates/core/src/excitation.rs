//! Excitation tracking: which bits change between recognized-IP occurrences.
//!
//! The paper observes (§4.4) that although a program's state space has 10⁵ to
//! 10⁷ bits, fewer than a few hundred bits change from one occurrence of the
//! recognized instruction pointer to the next. LASC learns binary classifiers
//! only for those *excitations*. The [`ExcitationTracker`] accumulates
//! change counts from observed occurrence states; once enough occurrences
//! have been seen it is frozen into an [`ExcitationMap`] that converts full
//! state vectors to and from the packed [`PackedObservation`] representation
//! the learners work with.
//!
//! Because the map always expands the tracked set to whole aligned 32-bit
//! words, the packed bit view of an observation is just the tracked word
//! values laid end to end — extraction and materialisation are pure word
//! moves with no per-bit work.
//!
//! The same sparsity argument applies to the *target* set: a cached superstep
//! is reusable when its **read set** matches, so a bit that changes between
//! occurrences but that no superstep ever reads (an output cell written
//! before it is read) needs no classifier. A tracker that has been told read
//! sets ([`ExcitationTracker::note_reads`]) freezes its map over *changed ∩
//! ever-read* words only; one that never was models everything that changed.

use asc_learn::features::{packed_len, ExcitationSchema, PackedObservation};
use asc_learn::persist::{self, Reader};
use asc_tvm::state::StateVector;
use std::collections::BTreeMap;

/// The aligned 32-bit state words some superstep was seen to read: one bit per
/// word, so iteration order — and every map derived from the set — is a
/// function of the noted positions alone. Empty means "never told", which
/// every consumer treats as "all words count".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadWords {
    bits: Vec<u64>,
}

impl ReadWords {
    /// Marks the aligned word containing state byte `byte` as read.
    pub fn insert(&mut self, byte: usize) {
        let word = byte / 4;
        if word / 64 >= self.bits.len() {
            self.bits.resize(word / 64 + 1, 0);
        }
        self.bits[word / 64] |= 1 << (word % 64);
    }

    /// Whether a change in the aligned word at byte index `word_byte` matters:
    /// always while the set is empty, otherwise only when the word was read.
    pub fn admits(&self, word_byte: usize) -> bool {
        let word = word_byte / 4;
        self.bits.is_empty()
            || self.bits.get(word / 64).is_some_and(|b| b & (1 << (word % 64)) != 0)
    }
}

/// Accumulates per-bit change counts between successive occurrence states.
///
/// The tracker keeps one retained copy of the previous occurrence state and
/// diffs each new state against it a 32-bit word at a time
/// ([`StateVector::diff_words_into`]); counts live per changed *word* (32
/// counters each), so an occurrence costs one map lookup per changed word
/// rather than one per changed bit. The word-level diff of the latest
/// occurrence stays readable through [`last_diff`](ExcitationTracker::last_diff)
/// so the predictor bank's drift check can reuse the scan instead of
/// repeating it.
#[derive(Debug, Clone)]
pub struct ExcitationTracker {
    threshold: u32,
    previous: Option<StateVector>,
    /// Change counts of the 32 bits of every aligned word that ever changed,
    /// keyed by the byte index of the word's first byte.
    change_counts: BTreeMap<usize, [u32; 32]>,
    /// `(word byte index, xor)` pairs of the most recent [`observe`], in
    /// ascending order; empty after the first state.
    ///
    /// [`observe`]: ExcitationTracker::observe
    last_diff: Vec<(usize, u32)>,
    observations: usize,
    /// Words supersteps from this IP were seen to read; restricts the frozen
    /// map and the drift check once non-empty. Not checkpointed: only the
    /// recognizer's throw-away banks are told read sets.
    read_words: ReadWords,
}

impl ExcitationTracker {
    /// Creates a tracker; a bit becomes an excitation after it has changed at
    /// least `threshold` times (the paper's default is once).
    pub fn new(threshold: u32) -> Self {
        ExcitationTracker {
            threshold: threshold.max(1),
            previous: None,
            change_counts: BTreeMap::new(),
            last_diff: Vec::new(),
            observations: 0,
            read_words: ReadWords::default(),
        }
    }

    /// Records the read set of a superstep that started at this tracker's IP
    /// (state byte positions, e.g. `entry.start.positions()`). From the first
    /// noted read on, [`build_map_with_limit`] keeps only changed bits in
    /// ever-read words.
    ///
    /// [`build_map_with_limit`]: ExcitationTracker::build_map_with_limit
    pub fn note_reads(&mut self, positions: impl IntoIterator<Item = u32>) {
        for position in positions {
            self.read_words.insert(position as usize);
        }
    }

    /// The words noted through [`note_reads`](ExcitationTracker::note_reads).
    pub fn read_words(&self) -> &ReadWords {
        &self.read_words
    }

    /// Number of occurrence states observed so far.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// Number of distinct bits seen to change at least once.
    pub fn changed_bits(&self) -> usize {
        self.counted_bits().count()
    }

    /// `(absolute bit index, change count)` of every bit that has changed at
    /// least once, in ascending bit order.
    fn counted_bits(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.change_counts.iter().flat_map(|(&word, counts)| {
            counts
                .iter()
                .enumerate()
                .filter(|(_, &count)| count > 0)
                .map(move |(offset, &count)| (word * 8 + offset, count))
        })
    }

    /// Folds in the state at a new occurrence of the recognized IP.
    pub fn observe(&mut self, state: &StateVector) {
        self.last_diff.clear();
        match &mut self.previous {
            Some(previous) => {
                previous.diff_words_into(state, &mut self.last_diff);
                for &(word, xor) in &self.last_diff {
                    let counts = self.change_counts.entry(word).or_insert([0; 32]);
                    let mut remaining = xor;
                    while remaining != 0 {
                        counts[remaining.trailing_zeros() as usize] += 1;
                        remaining &= remaining - 1;
                    }
                }
                previous.clone_from(state);
            }
            None => self.previous = Some(state.clone()),
        }
        self.observations += 1;
    }

    /// The word-level diff between the two most recently observed states:
    /// `(byte index of the aligned word, xor)` pairs in ascending order.
    pub fn last_diff(&self) -> &[(usize, u32)] {
        &self.last_diff
    }

    /// Freezes the tracker into a map over the bits that crossed the change
    /// threshold. Returns `None` when nothing qualifies yet.
    pub fn build_map(&self) -> Option<ExcitationMap> {
        self.build_map_with_limit(usize::MAX)
    }

    /// Appends the accumulated change statistics to `out` for checkpointing
    /// (one `(bit, count)` entry per changed bit, ascending). The `previous`
    /// occurrence state is deliberately *not* saved: restoring breaks the
    /// observation stream (exactly like `PredictorBank::break_stream`),
    /// costing one training transition rather than a full state vector per
    /// checkpoint.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        persist::put_u32(out, self.threshold);
        persist::put_usize(out, self.observations);
        persist::put_usize(out, self.changed_bits());
        for (bit, count) in self.counted_bits() {
            persist::put_usize(out, bit);
            persist::put_u32(out, count);
        }
    }

    /// Restores statistics written by
    /// [`save_state`](ExcitationTracker::save_state) into a tracker built
    /// with the same threshold. Returns `None` (tracker unusable, re-warm
    /// instead) on mismatch or malformed bytes.
    pub fn load_state(&mut self, reader: &mut Reader<'_>) -> Option<()> {
        if reader.u32()? != self.threshold {
            return None;
        }
        let observations = reader.usize()?;
        let entries = reader.usize()?;
        // Each entry costs at least 12 bytes on the wire, so the remaining
        // byte count bounds the allocation before anything is built.
        if entries > reader.remaining() / 12 {
            return None;
        }
        let mut change_counts = BTreeMap::new();
        for _ in 0..entries {
            let bit = reader.usize()?;
            let count = reader.u32()?;
            change_counts.entry(bit / 32 * 4).or_insert([0; 32])[bit % 32] = count;
        }
        self.observations = observations;
        self.change_counts = change_counts;
        self.previous = None;
        self.last_diff.clear();
        Some(())
    }

    /// Like [`ExcitationTracker::build_map`], but keeps at most `max_bits`
    /// bits (before word expansion), preferring the most frequently changing
    /// ones.
    ///
    /// Once read sets have been noted, only bits in ever-read words qualify:
    /// the recognizer's throw-away banks are read-targeted this way, so a
    /// program (such as `2mm`) that writes a fresh output cell on every
    /// superstep keeps a map of its counters and pointers and never reaches
    /// the cap. A tracker that was never told a read set — the runtime's, the
    /// planner's and the benchmark replay's banks — keeps every changed bit,
    /// and for those the cap is still what bounds the block learners' memory
    /// and training cost on such programs. Returns `None` when the
    /// intersection is empty: the bank stays not-ready and the recognizer
    /// scores the candidate 0.
    pub fn build_map_with_limit(&self, max_bits: usize) -> Option<ExcitationMap> {
        let mut qualifying: Vec<(usize, u32)> = self
            .counted_bits()
            .filter(|&(bit, count)| count >= self.threshold && self.read_words.admits(bit / 8))
            .collect();
        if qualifying.is_empty() {
            return None;
        }
        if qualifying.len() > max_bits {
            qualifying.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            qualifying.truncate(max_bits);
        }
        Some(ExcitationMap::new(qualifying.into_iter().map(|(bit, _)| bit).collect()))
    }
}

/// A frozen set of excitation bits with conversions between full state
/// vectors and packed observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExcitationMap {
    /// Absolute bit indices of the tracked bits, sorted.
    bit_indices: Vec<usize>,
    /// Absolute byte index of the first byte of each tracked aligned 32-bit
    /// word, sorted; every tracked bit lives in one of these words.
    word_bytes: Vec<usize>,
    schema: ExcitationSchema,
}

impl ExcitationMap {
    /// Builds a map from absolute bit indices.
    ///
    /// The tracked set is expanded to *every* bit of each aligned 32-bit word
    /// that contains a changed bit. Accumulators, induction variables and
    /// bump-allocated pointers keep exciting progressively higher bits as a
    /// program runs; tracking the whole containing word up front means the
    /// predictors model those carries from the start instead of repeatedly
    /// discovering "new" excitations (the word is also the granularity the
    /// linear-regression predictor operates at, and what makes packed
    /// extraction a pure word move).
    pub fn new(bit_indices: Vec<usize>) -> Self {
        // Tracked words are the aligned 32-bit words containing tracked bits.
        let mut word_bytes: Vec<usize> = bit_indices.iter().map(|bit| (bit / 32) * 4).collect();
        word_bytes.sort_unstable();
        word_bytes.dedup();
        let bit_indices: Vec<usize> = word_bytes
            .iter()
            .flat_map(|byte| (0..32).map(move |offset| byte * 8 + offset))
            .collect();
        let bit_homes = bit_indices
            .iter()
            .map(|bit| {
                let word_byte = (bit / 32) * 4;
                let word_index =
                    word_bytes.binary_search(&word_byte).expect("word must be tracked");
                (word_index, (bit % 32) as u8)
            })
            .collect();
        let schema = ExcitationSchema::new(word_bytes.len(), bit_homes);
        ExcitationMap { bit_indices, word_bytes, schema }
    }

    /// Number of tracked bits.
    pub fn bit_count(&self) -> usize {
        self.bit_indices.len()
    }

    /// Number of tracked 32-bit words.
    pub fn word_count(&self) -> usize {
        self.word_bytes.len()
    }

    /// The tracked absolute bit indices.
    pub fn bit_indices(&self) -> &[usize] {
        &self.bit_indices
    }

    /// The learner-facing schema describing observation shape.
    pub fn schema(&self) -> &ExcitationSchema {
        &self.schema
    }

    /// The tracked word at index `w` of `state` (0 when the state is too
    /// short, which only happens for foreign states).
    fn word_of(&self, state: &StateVector, w: usize) -> u32 {
        let byte = self.word_bytes[w];
        if byte + 4 <= state.len_bytes() {
            state.word(byte)
        } else {
            0
        }
    }

    /// Extracts the tracked bits and words of a state vector directly into
    /// packed form. Tracked bits are exactly the bits of the tracked words,
    /// so the packed bit view is the word values laid end to end — one
    /// 32-bit read per tracked word and no per-bit work.
    pub fn observe(&self, state: &StateVector) -> PackedObservation {
        let mut observation = PackedObservation::default();
        self.observe_into(state, &mut observation);
        observation
    }

    /// [`observe`](ExcitationMap::observe) into an existing observation,
    /// reusing its buffers (the per-occurrence hot path allocates nothing).
    pub fn observe_into(&self, state: &StateVector, observation: &mut PackedObservation) {
        observation.fill_from_words((0..self.word_bytes.len()).map(|w| self.word_of(state, w)));
    }

    /// Rebuilds `observation` in place from a packed predicted block (the
    /// inverse of the bit view of [`observe`]): the tracked word values are
    /// the packed halves. Used when rolling predictions forward without
    /// materialising a full state per step.
    ///
    /// # Panics
    /// Panics when `bits` does not hold one packed word per 64 tracked bits.
    ///
    /// [`observe`]: ExcitationMap::observe
    pub fn observation_from_packed_into(&self, bits: &[u64], observation: &mut PackedObservation) {
        observation.fill_from_packed_words(bits, self.word_bytes.len());
    }

    /// How many of the changed bits in a word-level state diff (ascending
    /// `(word byte index, xor)` pairs, as produced by
    /// [`StateVector::diff_words_into`]) fall outside the tracked set, among
    /// the words `reads` admits (all of them while it is empty) — a change
    /// in a word no superstep reads is not a phase change. The map tracks
    /// whole aligned words, so this is one merge of the diff against the
    /// sorted tracked words, popcounting the untracked ones.
    pub fn unmapped_changed_bits(&self, diff: &[(usize, u32)], reads: &ReadWords) -> usize {
        let mut tracked = self.word_bytes.iter().peekable();
        let mut unmapped = 0;
        for &(word, xor) in diff {
            while tracked.next_if(|&&byte| byte < word).is_some() {}
            if tracked.peek() != Some(&&word) && reads.admits(word) {
                unmapped += xor.count_ones() as usize;
            }
        }
        unmapped
    }

    /// Materialises a predicted state: a copy of `base` with the tracked
    /// words replaced by the predicted packed bits. Untracked bits keep their
    /// `base` values, which is exactly the paper's sparsity argument —
    /// everything that never changed between occurrences is carried forward
    /// unchanged.
    ///
    /// # Panics
    /// Panics when `bits` does not hold one packed word per 64 tracked bits.
    pub fn materialize(&self, base: &StateVector, bits: &[u64]) -> StateVector {
        assert_eq!(bits.len(), packed_len(self.bit_count()), "predicted block has wrong arity");
        let mut state = base.clone();
        for (w, &byte) in self.word_bytes.iter().enumerate() {
            if byte + 4 <= state.len_bytes() {
                state.set_word(byte, (bits[w / 2] >> (32 * (w % 2))) as u32);
            }
        }
        state
    }

    /// Whether two states agree on every tracked word (and therefore every
    /// modelled excitation bit).
    pub fn states_agree(&self, a: &StateVector, b: &StateVector) -> bool {
        (0..self.word_bytes.len()).all(|w| self.word_of(a, w) == self.word_of(b, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with(mem: usize, patch: &[(u32, u32)]) -> StateVector {
        let mut s = StateVector::new(mem).unwrap();
        for &(addr, value) in patch {
            s.store_word(addr, value).unwrap();
        }
        s
    }

    #[test]
    fn tracker_finds_changing_bits_only() {
        let mut tracker = ExcitationTracker::new(1);
        // Word at address 0 counts 1,2,3; word at address 8 stays constant.
        for i in 1..=3u32 {
            tracker.observe(&state_with(64, &[(0, i), (8, 0xff)]));
        }
        assert_eq!(tracker.observations(), 3);
        let map = tracker.build_map().expect("some bits changed");
        // Bits 0 and 1 of the first memory word changed (1->2->3).
        assert!(map.bit_count() >= 2);
        let word_base_bit = (asc_tvm::state::MEM_BASE) * 8;
        assert!(map.bit_indices().contains(&word_base_bit));
        assert!(map.bit_indices().contains(&(word_base_bit + 1)));
        // The constant word contributed nothing.
        let constant_bit = (asc_tvm::state::MEM_BASE + 8) * 8;
        assert!(!map.bit_indices().iter().any(|&b| (constant_bit..constant_bit + 32).contains(&b)));
    }

    #[test]
    fn threshold_filters_rare_changes() {
        let mut tracker = ExcitationTracker::new(2);
        // Bit flips once only.
        tracker.observe(&state_with(32, &[(0, 0)]));
        tracker.observe(&state_with(32, &[(0, 1)]));
        tracker.observe(&state_with(32, &[(0, 1)]));
        assert_eq!(tracker.changed_bits(), 1);
        assert!(tracker.build_map().is_none());
        // A second flip crosses the threshold.
        tracker.observe(&state_with(32, &[(0, 0)]));
        assert!(tracker.build_map().is_some());
    }

    #[test]
    fn map_roundtrips_observation_and_materialisation() {
        let base = state_with(64, &[(0, 0b1010), (4, 77)]);
        let changed = state_with(64, &[(0, 0b0110), (4, 78)]);
        let mut tracker = ExcitationTracker::new(1);
        tracker.observe(&base);
        tracker.observe(&changed);
        let map = tracker.build_map().unwrap();
        let obs = map.observe(&changed);
        assert_eq!(obs.bit_count(), map.bit_count());
        // The packed bit view is the tracked words laid end to end.
        for (w, &value) in obs.words().iter().enumerate() {
            assert_eq!((obs.packed()[w / 2] >> (32 * (w % 2))) as u32, value);
        }
        // Materialising the observed bits onto the base reproduces the
        // changed state exactly (untracked bits were identical already).
        let rebuilt = map.materialize(&base, obs.packed());
        assert_eq!(rebuilt, changed);
        assert!(map.states_agree(&rebuilt, &changed));
        assert!(!map.states_agree(&base, &changed));
    }

    #[test]
    fn observation_from_packed_inverts_the_bit_view() {
        let map = ExcitationMap::new(vec![0, 40, 70]);
        let state = state_with(64, &[(0, 0xDEAD_BEEF), (4, 0x1234_5678), (8, 0xCAFE_F00D)]);
        let obs = map.observe(&state);
        let mut rebuilt = PackedObservation::default();
        map.observation_from_packed_into(obs.packed(), &mut rebuilt);
        assert_eq!(rebuilt, obs);
    }

    #[test]
    fn tracker_state_roundtrips_byte_identically() {
        let mut tracker = ExcitationTracker::new(1);
        for i in 0..6u32 {
            tracker.observe(&state_with(64, &[(0, i), (12, i * 0x0101_0101), (60, i << 29)]));
        }
        let mut bytes = Vec::new();
        tracker.save_state(&mut bytes);
        let mut restored = ExcitationTracker::new(1);
        restored.load_state(&mut Reader::new(&bytes)).expect("roundtrip restores");
        assert_eq!(restored.changed_bits(), tracker.changed_bits());
        assert_eq!(restored.build_map(), tracker.build_map());
        let mut again = Vec::new();
        restored.save_state(&mut again);
        assert_eq!(again, bytes);
    }

    #[test]
    fn unmapped_changed_bits_counts_only_untracked_words() {
        // Tracks the words at bytes 0 and 8.
        let map = ExcitationMap::new(vec![3, 64]);
        let all = ReadWords::default();
        assert_eq!(map.unmapped_changed_bits(&[], &all), 0);
        assert_eq!(map.unmapped_changed_bits(&[(0, 0xFFFF), (8, 0b1)], &all), 0);
        assert_eq!(map.unmapped_changed_bits(&[(0, 1), (4, 0b111), (8, 1), (12, 0xF0)], &all), 7);
        assert_eq!(map.unmapped_changed_bits(&[(16, u32::MAX)], &all), 32);
    }

    #[test]
    fn unmapped_changed_bits_ignores_unread_words() {
        let map = ExcitationMap::new(vec![3, 64]);
        // Bytes 13 and 1000 were read: words 12 and 1000.
        let mut reads = ReadWords::default();
        reads.insert(13);
        reads.insert(1000);
        assert!(reads.admits(12) && reads.admits(1000));
        assert!(!reads.admits(4) && !reads.admits(16) && !reads.admits(1 << 20));
        // Word 4 changed but is never read; word 12 is read and unmapped.
        assert_eq!(map.unmapped_changed_bits(&[(0, 1), (4, 0b111), (8, 1), (12, 0xF0)], &reads), 4);
        assert_eq!(map.unmapped_changed_bits(&[(16, u32::MAX), (1000, 0b11)], &reads), 2);
    }

    /// Three memory words change every occurrence: a counter at 0, a fresh
    /// "output" value at 8 and a one-bit toggle at 16.
    fn three_word_tracker() -> ExcitationTracker {
        let mut tracker = ExcitationTracker::new(1);
        for i in 0..5u32 {
            tracker
                .observe(&state_with(64, &[(0, i), (8, i.wrapping_mul(0x9E37_79B1)), (16, i & 1)]));
        }
        tracker
    }

    #[test]
    fn noted_reads_restrict_the_map_to_changed_and_read_words() {
        let mem = asc_tvm::state::MEM_BASE;
        let untold = three_word_tracker().build_map().unwrap();
        assert_eq!(untold.word_count(), 3);

        let mut tracker = three_word_tracker();
        // The superstep reads the counter, the toggle (through its second
        // byte, which never changes) and a constant word; never the output.
        tracker.note_reads([mem as u32, mem as u32 + 17, mem as u32 + 40]);
        let map = tracker.build_map().unwrap();
        // Changed ∩ read: the counter and the toggle. The constant word is
        // read but never changed; the output word changed but is never read.
        assert_eq!(map.word_count(), 2);
        // Word expansion happens after filtering: the toggle contributes one
        // changed bit and is modelled as a whole word.
        assert_eq!(map.bit_count(), 64);
        assert!(map.bit_indices().contains(&((mem + 16) * 8 + 31)));
        assert!(!map.bit_indices().iter().any(|&b| ((mem + 8) * 8..(mem + 12) * 8).contains(&b)));
        // The cap applies to what survives the filter.
        assert_eq!(tracker.build_map_with_limit(1).unwrap().word_count(), 1);
        // A later read widens the next build.
        tracker.note_reads([mem as u32 + 8]);
        assert_eq!(tracker.build_map(), Some(untold));
    }

    #[test]
    fn reads_with_an_empty_intersection_build_no_map() {
        let mut tracker = three_word_tracker();
        tracker.note_reads([asc_tvm::state::MEM_BASE as u32 + 40]);
        assert!(tracker.changed_bits() > 0);
        assert!(tracker.build_map().is_none());
    }

    #[test]
    fn noted_reads_are_not_part_of_the_wire_form() {
        let untold = three_word_tracker();
        let mut told = three_word_tracker();
        told.note_reads([asc_tvm::state::MEM_BASE as u32]);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        untold.save_state(&mut a);
        told.save_state(&mut b);
        assert_eq!(a, b);
        // threshold, observations, entry count, then (bit, count) pairs only.
        assert_eq!(a.len(), 4 + 8 + 8 + untold.changed_bits() * 12);
    }

    #[test]
    fn words_cover_every_tracked_bit() {
        let map = ExcitationMap::new(vec![5, 37, 36, 100]);
        // Bits 36 and 37 share a word, so three words — and every bit of each
        // tracked word is modelled (the word-expansion described on `new`).
        assert_eq!(map.word_count(), 3);
        assert_eq!(map.bit_count(), 96);
        let schema = map.schema();
        assert_eq!(schema.bit_count, 96);
        for j in 0..schema.bit_count {
            let (word, offset) = schema.home(j);
            assert!(word < schema.word_count);
            assert!(offset < 32);
        }
        // The originally requested bits are all tracked.
        for bit in [5usize, 36, 37, 100] {
            assert!(map.bit_indices().contains(&bit));
        }
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn materialize_checks_arity() {
        let map = ExcitationMap::new(vec![0, 1]);
        let base = StateVector::new(16).unwrap();
        map.materialize(&base, &[]);
    }
}
