//! Feature representation shared by all predictors.
//!
//! The paper's predictors never see the whole 10⁵–10⁷-bit state vector: they
//! are trained only on the program's *excitations* — the bits that actually
//! change between successive occurrences of the recognized instruction
//! pointer (§4.4). The ASC runtime extracts those bits (and the 32-bit words
//! that contain them) into a [`PackedObservation`]; the [`ExcitationSchema`]
//! records how the two views line up so bit-level and word-level predictors
//! can cooperate.
//!
//! Observations are *columnar*: the tracked bits live packed in `u64` words
//! (64 bits per machine word, LSB first, in tracked-bit order) instead of one
//! `bool` per bit. Excitation sets are a tiny, fixed subset of state bits,
//! which is exactly the shape that rewards a packed layout — predictors train
//! and predict whole blocks of bits with word-level operations (XOR mistake
//! masks, set-bit iteration, popcounts) rather than per-bit virtual calls.

/// Describes the shape of observations: how many excited bits there are and
/// which excited word each bit belongs to.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExcitationSchema {
    /// Number of tracked (excited) bits.
    pub bit_count: usize,
    /// Number of tracked 32-bit words (each containing at least one excited bit).
    pub word_count: usize,
    /// For every tracked bit: `(word_index, bit_offset_within_word)`.
    pub bit_homes: Vec<(usize, u8)>,
}

impl ExcitationSchema {
    /// Creates a schema, validating that every bit home refers to a valid word.
    ///
    /// # Panics
    /// Panics when a bit's home word index is out of range; schemas are built
    /// by the excitation tracker, so this indicates an internal bug.
    pub fn new(word_count: usize, bit_homes: Vec<(usize, u8)>) -> Self {
        for &(word, offset) in &bit_homes {
            assert!(word < word_count, "bit home word {word} out of range");
            assert!(offset < 32, "bit offset {offset} out of range");
        }
        ExcitationSchema { bit_count: bit_homes.len(), word_count, bit_homes }
    }

    /// The `(word, offset)` home of tracked bit `j`.
    ///
    /// # Panics
    /// Panics when `j` is out of range.
    pub fn home(&self, j: usize) -> (usize, u8) {
        self.bit_homes[j]
    }
}

/// Number of `u64` words needed to pack `bit_count` bits.
pub fn packed_len(bit_count: usize) -> usize {
    bit_count.div_ceil(64)
}

/// Masks the unused tail bits of the last packed word to zero, preserving
/// the invariant that packed buffers agree beyond `bit_count` (so XOR-based
/// mistake masks can never manufacture ghost mistakes).
pub fn mask_tail(packed: &mut [u64], bit_count: usize) {
    if bit_count % 64 != 0 {
        if let Some(last) = packed.last_mut() {
            *last &= (1u64 << (bit_count % 64)) - 1;
        }
    }
}

/// Rounds per-bit probabilities into a packed bit buffer (`p >= 0.5` → 1).
///
/// # Panics
/// Panics when `bits` is shorter than `packed_len(confidence.len())`.
pub fn pack_probabilities(confidence: &[f32], bits: &mut [u64]) {
    let needed = packed_len(confidence.len());
    assert!(bits.len() >= needed, "packed prediction buffer too short");
    for word in bits.iter_mut().take(needed) {
        *word = 0;
    }
    for (j, &p) in confidence.iter().enumerate() {
        if p >= 0.5 {
            bits[j / 64] |= 1u64 << (j % 64);
        }
    }
}

/// The values of the excited bits and words of one state-vector snapshot.
///
/// The bit view is packed into `u64` words; the word view keeps the raw
/// 32-bit values of the tracked words for word-granularity predictors
/// (linear regression). Unused tail bits of the last packed word are always
/// zero.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PackedObservation {
    /// Tracked bits, 64 per word, LSB first, in tracked-bit order.
    packed: Vec<u64>,
    /// Number of tracked bits.
    bit_count: usize,
    /// Value of each tracked 32-bit word.
    words: Vec<u32>,
}

impl PackedObservation {
    /// Creates an observation from a packed bit buffer and raw word values.
    ///
    /// # Panics
    /// Panics when `packed` does not hold exactly `packed_len(bit_count)`
    /// words.
    pub fn new(mut packed: Vec<u64>, bit_count: usize, words: Vec<u32>) -> Self {
        assert_eq!(packed.len(), packed_len(bit_count), "packed buffer has wrong arity");
        mask_tail(&mut packed, bit_count);
        PackedObservation { packed, bit_count, words }
    }

    /// Creates an observation from per-bit values (test and conversion
    /// convenience; hot paths build the packed buffer directly).
    pub fn from_bits(bits: &[bool], words: Vec<u32>) -> Self {
        let mut packed = vec![0u64; packed_len(bits.len())];
        for (j, &bit) in bits.iter().enumerate() {
            if bit {
                packed[j / 64] |= 1u64 << (j % 64);
            }
        }
        PackedObservation { packed, bit_count: bits.len(), words }
    }

    /// Derives the packed bit view from raw word values via the schema's bit
    /// homes (bit `j` of the observation is bit `home(j)` of the words).
    pub fn from_words(schema: &ExcitationSchema, words: Vec<u32>) -> Self {
        let mut packed = vec![0u64; packed_len(schema.bit_count)];
        for (j, &(word, offset)) in schema.bit_homes.iter().enumerate() {
            if words.get(word).is_some_and(|w| (w >> offset) & 1 == 1) {
                packed[j / 64] |= 1u64 << (j % 64);
            }
        }
        PackedObservation { packed, bit_count: schema.bit_count, words }
    }

    /// Number of tracked bits.
    pub fn bit_count(&self) -> usize {
        self.bit_count
    }

    /// The packed bit words (tail bits beyond [`bit_count`] are zero).
    ///
    /// [`bit_count`]: PackedObservation::bit_count
    pub fn packed(&self) -> &[u64] {
        &self.packed
    }

    /// The tracked bit `j`.
    ///
    /// # Panics
    /// Panics when `j` is out of range.
    pub fn bit(&self, j: usize) -> bool {
        assert!(j < self.bit_count, "bit {j} out of range");
        (self.packed[j / 64] >> (j % 64)) & 1 == 1
    }

    /// The tracked bits unpacked into one `bool` per bit (reporting and test
    /// convenience).
    pub fn bits(&self) -> Vec<bool> {
        (0..self.bit_count).map(|j| self.bit(j)).collect()
    }

    /// The tracked 32-bit word values.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// The tracked word `w`.
    ///
    /// # Panics
    /// Panics when `w` is out of range.
    pub fn word(&self, w: usize) -> u32 {
        self.words[w]
    }

    /// Calls `visit` with the index of every set tracked bit, ascending. This
    /// is the iteration order every sparse predictor uses, so packed and
    /// reference implementations accumulate in the same order.
    pub fn for_each_set_bit(&self, mut visit: impl FnMut(usize)) {
        for (w, &word) in self.packed.iter().enumerate() {
            let mut remaining = word;
            while remaining != 0 {
                visit(w * 64 + remaining.trailing_zeros() as usize);
                remaining &= remaining - 1;
            }
        }
    }

    /// Overwrites this observation in place with a *full-word* observation —
    /// every bit of every tracked word is tracked, so the packed bit view is
    /// the word values laid end to end (the shape the runtime's excitation
    /// map always produces). Reuses both buffers: the steady-state hot path
    /// allocates nothing.
    pub fn fill_from_words(&mut self, words: impl IntoIterator<Item = u32>) {
        self.words.clear();
        self.words.extend(words);
        self.bit_count = self.words.len() * 32;
        self.packed.clear();
        self.packed.extend(
            self.words
                .chunks(2)
                .map(|pair| pair[0] as u64 | (pair.get(1).copied().unwrap_or(0) as u64) << 32),
        );
    }

    /// The inverse direction of [`fill_from_words`]: overwrites this
    /// observation in place from a packed block of `word_count` full tracked
    /// words (a predicted block being rolled forward).
    ///
    /// # Panics
    /// Panics when `bits` does not hold exactly one packed word per two
    /// tracked words.
    ///
    /// [`fill_from_words`]: PackedObservation::fill_from_words
    pub fn fill_from_packed_words(&mut self, bits: &[u64], word_count: usize) {
        assert_eq!(bits.len(), packed_len(word_count * 32), "predicted block has wrong arity");
        self.bit_count = word_count * 32;
        self.packed.clear();
        self.packed.extend_from_slice(bits);
        mask_tail(&mut self.packed, self.bit_count);
        self.words.clear();
        self.words.extend((0..word_count).map(|w| (self.packed[w / 2] >> (32 * (w % 2))) as u32));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema_two_words() -> ExcitationSchema {
        // Track bits 0 and 5 of word 0, bit 31 of word 1.
        ExcitationSchema::new(2, vec![(0, 0), (0, 5), (1, 31)])
    }

    #[test]
    fn schema_homes() {
        let schema = schema_two_words();
        assert_eq!(schema.bit_count, 3);
        assert_eq!(schema.home(1), (0, 5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn schema_rejects_bad_word() {
        ExcitationSchema::new(1, vec![(1, 0)]);
    }

    #[test]
    fn packing_roundtrips_bits() {
        let bits: Vec<bool> = (0..100).map(|j| j % 3 == 0).collect();
        let obs = PackedObservation::from_bits(&bits, vec![]);
        assert_eq!(obs.bit_count(), 100);
        assert_eq!(obs.packed().len(), 2);
        assert_eq!(obs.bits(), bits);
        for (j, &bit) in bits.iter().enumerate() {
            assert_eq!(obs.bit(j), bit);
        }
        // Tail bits beyond bit 100 are zero.
        assert_eq!(obs.packed()[1] >> (100 - 64), 0);
    }

    #[test]
    fn from_words_follows_schema_homes() {
        let schema = schema_two_words();
        let obs = PackedObservation::from_words(&schema, vec![0b10_0001, 1 << 31]);
        assert_eq!(obs.bits(), vec![true, true, true]);
        let obs = PackedObservation::from_words(&schema, vec![0b10_0000, 0]);
        assert_eq!(obs.bits(), vec![false, true, false]);
    }

    #[test]
    fn set_bits_are_visited_ascending() {
        let bits: Vec<bool> = (0..70).map(|j| j == 0 || j == 63 || j == 65).collect();
        let obs = PackedObservation::from_bits(&bits, vec![]);
        let mut indices = Vec::new();
        obs.for_each_set_bit(|j| indices.push(j));
        assert_eq!(indices, vec![0, 63, 65]);
    }

    #[test]
    fn in_place_fills_match_the_allocating_constructors() {
        let schema = ExcitationSchema::new(
            3,
            (0..3).flat_map(|w| (0..32u8).map(move |bit| (w, bit))).collect(),
        );
        let words = vec![0xDEAD_BEEF, 0x1234_5678, 0xCAFE_F00D];
        let expected = PackedObservation::from_words(&schema, words.clone());
        // Refill a differently shaped observation: every buffer is reshaped.
        let mut obs = PackedObservation::from_bits(&[true; 5], vec![9]);
        obs.fill_from_words(words.iter().copied());
        assert_eq!(obs, expected);
        let mut rebuilt = PackedObservation::default();
        rebuilt.fill_from_packed_words(expected.packed(), 3);
        assert_eq!(rebuilt, expected);
    }

    #[test]
    fn pack_probabilities_rounds_at_half() {
        let mut bits = vec![u64::MAX; 1];
        pack_probabilities(&[0.49, 0.5, 0.51, 0.0], &mut bits);
        assert_eq!(bits[0], 0b110);
    }
}
