//! Golden equivalence: the packed columnar ensemble must reproduce the
//! retained per-bit reference implementation *exactly* — identical
//! maximum-likelihood predictions, identical normalised weight matrices and
//! identical `EnsembleErrors` — over a recorded excitation trace shaped like
//! the real workloads (induction variable, strided pointer, chaotic word,
//! toggling flags). The trace is longer than the mistake-history capacity so
//! the bounded ring's wrap-around is part of the comparison.

use asc_learn::ensemble::Ensemble;
use asc_learn::features::{packed_len, ExcitationSchema, PackedObservation};
use asc_learn::logistic::LogisticRegression;
use asc_learn::persist::Reader;
use asc_learn::reference::{packed_default_ensemble, ReferenceEnsemble, ReferenceLogistic};
use asc_learn::rng::{Rng, XorShiftRng};
use asc_learn::traits::BlockPredictor;
use std::collections::BTreeSet;

/// Full-word schema over `words` tracked 32-bit words, the shape the
/// runtime's excitation map always produces.
fn full_word_schema(words: usize) -> ExcitationSchema {
    let mut homes = Vec::new();
    for w in 0..words {
        for bit in 0..32u8 {
            homes.push((w, bit));
        }
    }
    ExcitationSchema::new(words, homes)
}

/// Records an excitation trace of `length` observations over four words:
/// a unit-stride counter, a 132-byte-stride pointer, a chaotic word and a
/// toggling flag word.
fn record_trace(schema: &ExcitationSchema, length: usize) -> Vec<PackedObservation> {
    let mut rng = XorShiftRng::new(0xA5C_0FFEE);
    let mut chaotic = rng.next_u64() as u32 | 1;
    let mut trace = Vec::with_capacity(length);
    for i in 0..length as u32 {
        chaotic = (rng.next_u64() as u32) ^ chaotic.rotate_left(7);
        let mut words = vec![
            i,
            0x1_0000 + i * 132,
            chaotic,
            if i % 2 == 0 { 0x0F0F_0F0F } else { 0xF0F0_F0F0 },
        ];
        words.truncate(schema.word_count);
        trace.push(PackedObservation::from_words(schema, words));
    }
    trace
}

/// Asserts that `packed` predicts from `current` exactly as `reference`
/// does: the same ML block, log-probability and weighted vote.
fn assert_same_prediction(
    packed: &Ensemble,
    reference: &ReferenceEnsemble,
    current: &PackedObservation,
    at: &str,
) {
    let (packed_bits, packed_logp) = packed.predict_ml(current);
    let (reference_bits, reference_logp) = reference.predict_ml(current);
    assert_eq!(
        packed_bits,
        PackedObservation::from_bits(&reference_bits, vec![]).packed(),
        "ML prediction diverged at {at}"
    );
    assert_eq!(packed_logp.to_bits(), reference_logp.to_bits(), "log-probability diverged at {at}");
    assert_eq!(
        packed.predict_distribution(current),
        reference.predict_distribution(current),
        "per-bit distribution diverged at {at}"
    );
}

#[test]
fn packed_matches_reference_on_recorded_trace() {
    let schema = full_word_schema(4);
    let trace = record_trace(&schema, 400);
    let capacity = 128; // < trace length: the ring wraps mid-trace
    let mut packed = packed_default_ensemble(&schema, 0.5, capacity);
    let mut reference = ReferenceEnsemble::with_default_complement(&schema, 0.5, capacity);
    let mut errors_checked = 0;

    for (step, pair) in trace.windows(2).enumerate() {
        if step == 100 {
            // A reset mid-stream: the forward pass `observe` ran ahead on
            // `pair[0]` belongs to the discarded parameters.
            packed.reset();
            reference = ReferenceEnsemble::with_default_complement(&schema, 0.5, capacity);
        }
        if step == 250 {
            // A save/load round trip mid-stream: the restored ensemble
            // recomputes what the saved one had run ahead.
            let mut bytes = Vec::new();
            packed.save_state(&mut bytes);
            packed.load_state(&mut Reader::new(&bytes)).expect("ensemble blob must restore");
        }
        packed.observe(&pair[0], &pair[1]);
        reference.observe(&pair[0], &pair[1]);

        // Predictions must agree at every step, not just at convergence:
        // from the observation just trained towards (the forward pass
        // `observe` ran ahead) and from an older one (recomputed).
        assert_same_prediction(&packed, &reference, &pair[1], &format!("step {step}"));
        assert_same_prediction(&packed, &reference, &pair[0], &format!("step {step}, older"));
        assert_eq!(packed.weight_matrix(), reference.weight_matrix(), "step {step}");
        if step % 7 == 0 {
            assert_eq!(packed.errors(), reference.errors(), "step {step}");
            errors_checked += 1;
        }
    }
    assert!(errors_checked > 50);

    // The Figure-3 weight matrices are identical.
    assert_eq!(packed.weight_matrix(), reference.weight_matrix());

    // And the Table-2 error statistics — including windowed hindsight over
    // the wrapped mistake ring — are identical.
    let packed_errors = packed.errors();
    let reference_errors = reference.errors();
    assert_eq!(packed_errors, reference_errors);
    assert_eq!(packed_errors.total_predictions, 299); // since the reset
                                                      // Sanity: the chaotic word keeps the trace genuinely hard (every
                                                      // whole-state prediction misses some chaotic bit), so the comparison
                                                      // exercised a busy mistake ring rather than an empty one.
    assert!(packed_errors.actual_error_rate > 0.0);
    assert!(packed_errors.incorrect_predictions > 0);
    // The windowed recent rate is populated and agrees with the O(1)
    // hot-path accessor the runtime's dispatch economics consult.
    assert!(packed_errors.recent_error_rate > 0.0);
    assert_eq!(packed_errors.recent_error_rate, packed.recent_error_rate());
}

#[test]
fn packed_matches_reference_with_unbounded_window() {
    // With a capacity larger than the trace nothing is evicted; this pins
    // the pre-refactor full-history semantics.
    let schema = full_word_schema(2);
    let trace = record_trace(&schema, 120);
    let mut packed = packed_default_ensemble(&schema, 0.5, 4096);
    let mut reference = ReferenceEnsemble::with_default_complement(&schema, 0.5, 4096);
    for pair in trace.windows(2) {
        packed.observe(&pair[0], &pair[1]);
        reference.observe(&pair[0], &pair[1]);
    }
    assert_eq!(packed.errors(), reference.errors());
    assert_eq!(packed.weight_matrix(), reference.weight_matrix());
}

/// The feature-major model's forward pass for `x`.
fn packed_probabilities(model: &LogisticRegression, x: &PackedObservation) -> Vec<f32> {
    let mut bits = vec![0u64; packed_len(x.bit_count())];
    let mut confidence = vec![0.0f32; x.bit_count()];
    model.predict_block(x, &mut bits, &mut confidence);
    confidence
}

/// Side-by-side driver for the feature-major logistic model and its dense
/// row-major reference. Every step first demands bit-identical forward
/// passes, then trains both — the packed model on that forward pass, the way
/// the ensemble drives it — and checks that the allocated columns are
/// exactly the features that have ever been active in a training call.
struct LogisticPair {
    packed: LogisticRegression,
    reference: ReferenceLogistic,
    ever_active: BTreeSet<usize>,
}

impl LogisticPair {
    fn new(bit_count: usize) -> Self {
        LogisticPair {
            packed: LogisticRegression::new(bit_count, 0.5),
            reference: ReferenceLogistic::new(bit_count, 0.5),
            ever_active: BTreeSet::new(),
        }
    }

    fn step(&mut self, prev: &PackedObservation, next: &PackedObservation, at: &str) {
        let predicted = packed_probabilities(&self.packed, prev);
        assert_eq!(predicted, self.reference.predict(prev), "{at}: forward pass diverged");
        self.packed.observe_transition(prev, next, &predicted);
        self.reference.train(prev, next);
        prev.for_each_set_bit(|i| {
            self.ever_active.insert(i);
        });
        assert_eq!(
            self.packed.allocated_columns(),
            self.ever_active.len(),
            "{at}: allocated columns != features ever active"
        );
    }
}

#[test]
fn logistic_lazy_columns_match_reference() {
    // Word 0 counts from the start; word 1 is all-zero until step 60 and
    // chaotic afterwards, so its 32 feature columns must appear one by one,
    // mid-run, without disturbing a single weight.
    let schema = full_word_schema(2);
    let mut rng = XorShiftRng::new(0xC01_D5EED);
    let trace: Vec<PackedObservation> = (0..200u32)
        .map(|i| {
            let late = if i < 60 { 0 } else { rng.next_u64() as u32 };
            PackedObservation::from_words(&schema, vec![i.wrapping_mul(3), late])
        })
        .collect();
    let mut pair = LogisticPair::new(schema.bit_count);
    let mut columns_at = Vec::new();
    for (step, window) in trace.windows(2).enumerate() {
        pair.step(&window[0], &window[1], &format!("step {step}"));
        columns_at.push(pair.packed.allocated_columns());
    }
    // The late word really did grow columns after step 0 …
    assert!(columns_at[59] < columns_at[61], "{columns_at:?}");
    assert!(columns_at[59] <= 32 && columns_at[199 - 1] > 32);
    // … and a feature that never trained is still unallocated but predicts.
    assert!(pair.packed.allocated_columns() < schema.bit_count);
    let probe = PackedObservation::from_words(&schema, vec![u32::MAX, u32::MAX]);
    assert_eq!(packed_probabilities(&pair.packed, &probe), pair.reference.predict(&probe));
}

#[test]
fn logistic_arity_reset_matches_reference() {
    let narrow = full_word_schema(1);
    let wide = full_word_schema(3);
    let mut pair = LogisticPair::new(narrow.bit_count);
    for i in 0..40u32 {
        let prev = PackedObservation::from_words(&narrow, vec![i]);
        let next = PackedObservation::from_words(&narrow, vec![i + 1]);
        pair.step(&prev, &next, &format!("narrow step {i}"));
    }
    // A wider observation restarts both models: everything learned so far —
    // including every allocated column — is gone.
    pair.ever_active.clear();
    for i in 0..40u32 {
        let prev = PackedObservation::from_words(&wide, vec![i, !i, i * 132]);
        let next = PackedObservation::from_words(&wide, vec![i + 1, !(i + 1), (i + 1) * 132]);
        pair.step(&prev, &next, &format!("wide step {i}"));
    }
    // Predicting at the stale arity reports pure uncertainty on both sides.
    let stale = PackedObservation::from_words(&narrow, vec![7]);
    assert_eq!(packed_probabilities(&pair.packed, &stale), vec![0.5; 32]);
    assert_eq!(pair.reference.predict(&stale), vec![0.5; 32]);
}

#[test]
fn logistic_checkpoint_wire_form_is_the_row_major_matrix() {
    let schema = full_word_schema(2);
    let trace = record_trace(&schema, 120);
    let mut pair = LogisticPair::new(schema.bit_count);
    for (step, window) in trace.windows(2).take(60).enumerate() {
        pair.step(&window[0], &window[1], &format!("step {step}"));
    }

    // The feature-major model writes byte for byte what the row-major
    // implementation wrote: same size, and parent-written blobs still load.
    let mut written = Vec::new();
    pair.packed.save_state(&mut written);
    let mut row_major = Vec::new();
    pair.reference.save_state(&mut row_major);
    assert_eq!(written, row_major);
    assert_eq!(written.len(), 16 + 4 * schema.bit_count * (schema.bit_count + 1));

    let mut restored = LogisticRegression::new(schema.bit_count, 0.5);
    let mut reader = Reader::new(&row_major);
    restored.load_state(&mut reader).expect("a row-major blob must load");
    assert!(reader.is_empty());
    assert_eq!(restored.allocated_columns(), pair.packed.allocated_columns());

    // save → load → continue: the restored model keeps matching the
    // reference (which never stopped) through the rest of the trace.
    pair.packed = restored;
    for (step, window) in trace.windows(2).enumerate().skip(60) {
        pair.step(&window[0], &window[1], &format!("resumed step {step}"));
    }

    // Wrong arity, truncation and trailing-length damage are rejected.
    let mut other = LogisticRegression::new(32, 0.5);
    assert!(other.load_state(&mut Reader::new(&row_major)).is_none());
    for cut in [0, 8, 15, 16, 17, row_major.len() - 1] {
        let mut fresh = LogisticRegression::new(schema.bit_count, 0.5);
        assert!(fresh.load_state(&mut Reader::new(&row_major[..cut])).is_none(), "cut {cut}");
    }
}

#[test]
fn ensemble_save_load_continue_matches_reference() {
    let schema = full_word_schema(4);
    let trace = record_trace(&schema, 300);
    let capacity = 64;
    let mut packed = packed_default_ensemble(&schema, 0.5, capacity);
    let mut reference = ReferenceEnsemble::with_default_complement(&schema, 0.5, capacity);
    for (step, pair) in trace.windows(2).enumerate() {
        if step == 150 {
            // Checkpoint mid-trace and carry on with the restored copy.
            let mut bytes = Vec::new();
            packed.save_state(&mut bytes);
            let mut restored = packed_default_ensemble(&schema, 0.5, capacity);
            let mut reader = Reader::new(&bytes);
            restored.load_state(&mut reader).expect("ensemble blob must restore");
            assert!(reader.is_empty());
            packed = restored;
        }
        packed.observe(&pair[0], &pair[1]);
        reference.observe(&pair[0], &pair[1]);
        assert_eq!(
            packed.predict_distribution(&pair[1]),
            reference.predict_distribution(&pair[1]),
            "per-bit distribution diverged at step {step}"
        );
    }
    assert_eq!(packed.weight_matrix(), reference.weight_matrix());
    assert_eq!(packed.errors(), reference.errors());
}
