//! Regret-minimizing combination of predictors (§4.5.1).
//!
//! The allocator combines the per-bit predictions of wildly different
//! learners with the Randomized Weighted Majority Algorithm (RWMA): every
//! `(bit, predictor)` pair carries a weight, weights of predictors that get a
//! bit wrong are multiplied by `beta < 1`, and the ensemble's prediction for
//! a bit is the weight-normalised vote. The classic regret bound guarantees
//! that, per bit, the ensemble's mistake count stays within a constant factor
//! (plus a logarithmic term) of the best single predictor chosen in
//! hindsight — which is exactly the comparison Table 2 of the paper reports.
//!
//! The implementation is columnar: the weight matrix is one flat `f32`
//! buffer, each member predictor trains and predicts whole blocks through
//! the [`BlockPredictor`] API, and scoring computes *mistake masks* — the
//! XOR of a predictor's packed rounded prediction with the realised packed
//! observation — so the multiplicative update only ever touches the weights
//! of bits that were actually wrong. Mistake history lives in a bounded ring
//! buffer of packed masks plus cumulative per-`(bit, predictor)` counts, so
//! memory stays constant no matter how long the occurrence stream runs.

use crate::features::{mask_tail, packed_len, PackedObservation};
use crate::persist::{self, Reader};
use crate::traits::BlockPredictor;

/// Aggregate error statistics in the shape of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnsembleErrors {
    /// Fraction of whole-state predictions that would have been wrong with
    /// every predictor weighted equally.
    pub equal_weight_error_rate: f64,
    /// Fraction wrong when clairvoyantly using the single best predictor for
    /// each bit (chosen in hindsight over the full mistake history; the
    /// whole-state miss count is measured over the retained mistake window).
    pub hindsight_optimal_error_rate: f64,
    /// Fraction wrong using the actual regret-minimised weights.
    pub actual_error_rate: f64,
    /// Fraction wrong using the actual weights over only the most recent
    /// [`RECENT_WINDOW`] whole-state predictions — the windowed twin of
    /// [`actual_error_rate`](EnsembleErrors::actual_error_rate). Where the
    /// full-history rate answers "how good has this model ever been", the
    /// recent rate answers "how good is it *now*", which is what the
    /// runtime's dispatch economics need: a model that was hopeless for the
    /// first thousand occurrences but has locked on since deserves
    /// speculation again, and vice versa.
    pub recent_error_rate: f64,
    /// Total number of whole-state predictions scored.
    pub total_predictions: u64,
    /// Number of whole-state predictions the ensemble got wrong.
    pub incorrect_predictions: u64,
}

/// Number of most-recent whole-state predictions
/// [`EnsembleErrors::recent_error_rate`] is measured over. A power of two
/// sized to one shift-register word: the outcome history is a 64-bit mask
/// updated in O(1) per observation, unlike the mistake ring the hindsight
/// rate walks.
pub const RECENT_WINDOW: usize = 64;

/// A bounded ring of per-observation mistake masks: each slot holds one
/// packed mask per predictor (`predictor_count × packed_len` words). When
/// full, the oldest observation's masks are overwritten — Table-2 style
/// whole-state hindsight scoring then runs over the retained window.
#[derive(Debug, Clone)]
struct MistakeRing {
    capacity: usize,
    slot_words: usize,
    buf: Vec<u64>,
    len: usize,
    next: usize,
}

impl MistakeRing {
    fn new(capacity: usize, slot_words: usize) -> Self {
        MistakeRing { capacity: capacity.max(1), slot_words, buf: Vec::new(), len: 0, next: 0 }
    }

    fn push(&mut self, masks: &[u64]) {
        debug_assert_eq!(masks.len(), self.slot_words);
        if self.buf.len() < self.capacity * self.slot_words {
            self.buf.extend_from_slice(masks);
            self.len += 1;
        } else {
            let at = self.next * self.slot_words;
            self.buf[at..at + self.slot_words].copy_from_slice(masks);
        }
        self.next = (self.next + 1) % self.capacity;
    }

    fn len(&self) -> usize {
        self.len.min(self.capacity)
    }

    fn slots(&self) -> impl Iterator<Item = &[u64]> {
        self.buf.chunks_exact(self.slot_words.max(1))
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.len = 0;
        self.next = 0;
    }

    fn save(&self, out: &mut Vec<u8>) {
        persist::put_usize(out, self.capacity);
        persist::put_usize(out, self.slot_words);
        persist::put_usize(out, self.len);
        persist::put_usize(out, self.next);
        persist::put_u64_slice(out, &self.buf);
    }

    /// Restores a ring saved with the same capacity/slot geometry, rejecting
    /// bytes whose structural invariants (buffer length matches the retained
    /// slot count, write cursor inside the ring) do not hold.
    fn load(&mut self, reader: &mut Reader<'_>) -> Option<()> {
        if reader.usize()? != self.capacity || reader.usize()? != self.slot_words {
            return None;
        }
        let len = reader.usize()?;
        let next = reader.usize()?;
        let buf = persist::u64_slice_bounded(reader, self.capacity * self.slot_words)?;
        if buf.len() != len.min(self.capacity) * self.slot_words || next >= self.capacity {
            return None;
        }
        self.len = len;
        self.next = next;
        self.buf = buf;
        Some(())
    }
}

/// Caller-owned buffers for [`Ensemble::predict_ml_with`]: the members'
/// forward pass and the resulting packed maximum-likelihood block.
#[derive(Debug, Clone, Default)]
pub struct PredictionScratch {
    pass: ForwardPass,
    bits: Vec<u64>,
}

impl PredictionScratch {
    /// The packed maximum-likelihood block of the most recent
    /// [`Ensemble::predict_ml_with`] call.
    pub fn bits(&self) -> &[u64] {
        &self.bits
    }
}

/// Every member's forward pass on one observation, with the weighted vote
/// over it: step 1 of [`Ensemble::observe`], and the prediction
/// [`Ensemble::predict_ml_with`] rounds.
#[derive(Debug, Clone, Default)]
struct ForwardPass {
    /// The observation the buffers were computed on, when they are valid
    /// for the ensemble's current parameters.
    observation: Option<PackedObservation>,
    /// Rounded prediction blocks, predictor-major: `predictor_count ×
    /// packed_len` words (turned into mistake masks by `observe`).
    bits: Vec<u64>,
    /// Confidences, predictor-major: `predictor_count × bit_count`.
    confidence: Vec<f32>,
    /// The weighted vote per bit ([`combine_weighted`]).
    distribution: Vec<f32>,
}

impl ForwardPass {
    fn new(predictor_count: usize, bit_count: usize) -> Self {
        ForwardPass {
            observation: None,
            bits: vec![0; predictor_count * packed_len(bit_count)],
            confidence: vec![0.0; predictor_count * bit_count],
            distribution: vec![0.0; bit_count],
        }
    }

    /// Runs every predictor on `current` and combines the votes by
    /// `weights`; the caller records `observation` when it keeps the pass.
    fn run(
        &mut self,
        predictors: &[Box<dyn BlockPredictor>],
        weights: &[f32],
        current: &PackedObservation,
    ) {
        let (p_count, bit_count) = (predictors.len(), self.distribution.len());
        let packed = packed_len(bit_count);
        for (p, predictor) in predictors.iter().enumerate() {
            let bits = &mut self.bits[p * packed..(p + 1) * packed];
            bits.fill(0);
            predictor.predict_block(
                current,
                bits,
                &mut self.confidence[p * bit_count..(p + 1) * bit_count],
            );
        }
        combine_weighted(weights, &self.confidence, bit_count, p_count, &mut self.distribution);
    }

    /// Whether the buffers hold the pass on `current`.
    fn holds(&self, current: &PackedObservation) -> bool {
        self.observation.as_ref() == Some(current)
    }
}

/// The per-bit weighted ensemble over block predictors.
pub struct Ensemble {
    predictors: Vec<Box<dyn BlockPredictor>>,
    /// Flat weight matrix, bit-major: `weights[j * predictor_count + p]`.
    weights: Vec<f32>,
    beta: f32,
    bit_count: usize,
    /// Bounded history of packed mistake masks.
    mistakes: MistakeRing,
    /// Cumulative mistake counts, bit-major: `[j * predictor_count + p]`.
    /// Full-history (never evicted); drives hindsight predictor selection.
    cumulative_mistakes: Vec<u32>,
    /// Whole-state mistakes of the weighted ensemble.
    ensemble_mistakes: u64,
    /// Whole-state mistakes of the equal-weight vote.
    equal_weight_mistakes: u64,
    /// Shift register of the last [`RECENT_WINDOW`] whole-state outcomes
    /// (bit set = the weighted ensemble was wrong), newest in bit 0.
    recent_outcomes: u64,
    observations: u64,
    /// Step 1 of the `observe` in progress: the pass on its `prev`.
    step: ForwardPass,
    /// The pass on the observation the last `observe` trained towards, run
    /// with the parameters it left behind. The next `observe` from that
    /// observation takes it as its step 1, and a prediction from it reads
    /// its vote, so each observation costs one forward pass. Only `observe`,
    /// [`reset`](Ensemble::reset) and [`load_state`](Ensemble::load_state)
    /// change parameters: the first refreshes it, the others clear it.
    ahead: ForwardPass,
}

impl std::fmt::Debug for Ensemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ensemble")
            .field("predictors", &self.predictor_names())
            .field("bits", &self.bit_count)
            .field("beta", &self.beta)
            .field("observations", &self.observations)
            .finish()
    }
}

impl Ensemble {
    /// Creates an ensemble over `bit_count` tracked bits whose mistake
    /// history retains at most `mistake_capacity` observations.
    ///
    /// # Panics
    /// Panics when there are no predictors, more than 16 predictors, or
    /// `beta` is not in `(0, 1)`.
    pub fn new(
        predictors: Vec<Box<dyn BlockPredictor>>,
        bit_count: usize,
        beta: f64,
        mistake_capacity: usize,
    ) -> Self {
        assert!(!predictors.is_empty(), "ensemble needs at least one predictor");
        assert!(predictors.len() <= 16, "at most 16 predictors are supported");
        assert!(beta > 0.0 && beta < 1.0, "beta must be in (0, 1)");
        let predictor_count = predictors.len();
        let packed = packed_len(bit_count);
        Ensemble {
            weights: vec![1.0; bit_count * predictor_count],
            beta: beta as f32,
            bit_count,
            mistakes: MistakeRing::new(mistake_capacity, predictor_count * packed),
            cumulative_mistakes: vec![0; bit_count * predictor_count],
            ensemble_mistakes: 0,
            equal_weight_mistakes: 0,
            recent_outcomes: 0,
            observations: 0,
            step: ForwardPass::new(predictor_count, bit_count),
            ahead: ForwardPass::new(predictor_count, bit_count),
            predictors,
        }
    }

    /// Names of the member predictors, in weight-matrix row order.
    pub fn predictor_names(&self) -> Vec<&'static str> {
        self.predictors.iter().map(|p| p.name()).collect()
    }

    /// Number of tracked bits.
    pub fn bit_count(&self) -> usize {
        self.bit_count
    }

    /// Number of observed transitions.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// How many observations of mistake history are currently retained.
    pub fn mistake_window(&self) -> usize {
        self.mistakes.len()
    }

    /// The per-bit probabilities for the whole next observation (the
    /// paper's Eq. 2 factors), combining every predictor by its current
    /// weight. Prediction blocks are computed into the caller's `pass`, so
    /// this is `&self` and safe to call during rollouts. From the
    /// observation the last `observe` trained towards, it is that call's
    /// vote.
    fn distribution<'a>(
        &'a self,
        current: &PackedObservation,
        pass: &'a mut ForwardPass,
    ) -> &'a [f32] {
        if self.ahead.holds(current) {
            return &self.ahead.distribution;
        }
        if pass.distribution.len() != self.bit_count
            || pass.confidence.len() != self.predictors.len() * self.bit_count
        {
            *pass = ForwardPass::new(self.predictors.len(), self.bit_count);
        }
        pass.run(&self.predictors, &self.weights, current);
        &pass.distribution
    }

    /// Per-bit probabilities for the whole next observation.
    pub fn predict_distribution(&self, current: &PackedObservation) -> Vec<f32> {
        self.distribution(current, &mut ForwardPass::default()).to_vec()
    }

    /// The maximum-likelihood prediction: every bit rounded to its most
    /// probable value (as a packed block), together with the joint
    /// log-probability under Eq. 2.
    pub fn predict_ml(&self, current: &PackedObservation) -> (Vec<u64>, f64) {
        let mut scratch = PredictionScratch::default();
        let log_probability = self.predict_ml_with(current, &mut scratch);
        (scratch.bits, log_probability)
    }

    /// [`predict_ml`](Ensemble::predict_ml) into reusable buffers: the packed
    /// maximum-likelihood block is left in [`PredictionScratch::bits`] and
    /// the joint log-probability returned. A rollout chain calls this once
    /// per step with one scratch and allocates nothing after the first.
    pub fn predict_ml_with(
        &self,
        current: &PackedObservation,
        scratch: &mut PredictionScratch,
    ) -> f64 {
        let distribution = self.distribution(current, &mut scratch.pass);
        scratch.bits.clear();
        scratch.bits.resize(packed_len(self.bit_count), 0);
        let mut log_probability = 0.0f64;
        for (j, &p) in distribution.iter().enumerate() {
            let bit = p >= 0.5;
            if bit {
                scratch.bits[j / 64] |= 1u64 << (j % 64);
            }
            let bit_probability = if bit { p as f64 } else { 1.0 - p as f64 };
            log_probability += bit_probability.max(1e-12).ln();
        }
        log_probability
    }

    /// Observes one transition: scores every predictor (and the ensemble
    /// itself) on the realised `next` observation via packed mistake masks,
    /// applies the RWMA multiplicative update to exactly the mistaken
    /// `(bit, predictor)` weights, and then lets every predictor train on the
    /// new example — one traversal of each learner per occurrence.
    ///
    /// Last, every member predicts from `next` with the updated parameters,
    /// once: a following `observe` from `next`, or a prediction from it,
    /// reuses that forward pass instead of running its own. Observations are
    /// compared by value, and [`reset`](Ensemble::reset) and
    /// [`load_state`](Ensemble::load_state) discard the pass.
    pub fn observe(&mut self, prev: &PackedObservation, next: &PackedObservation) {
        let p_count = self.predictors.len();
        let bit_count = self.bit_count.min(next.bit_count());
        let packed = packed_len(self.bit_count);
        let scored_words = packed_len(bit_count);

        // 1. Every predictor's block prediction (rounded bits + confidence)
        //    on `prev` and the weighted vote, before anything trains or
        //    reweights — the pass the previous call ran ahead, when it was
        //    on this observation.
        if self.ahead.holds(prev) {
            std::mem::swap(&mut self.step, &mut self.ahead);
        } else {
            self.step.run(&self.predictors, &self.weights, prev);
        }
        self.ahead.observation = None;

        // 2. Whole-state scoring of the weighted and equal-weight votes.
        let mut ensemble_wrong = false;
        let mut equal_weight_wrong = false;
        for j in 0..bit_count {
            let actual = next.bit(j);
            let mut equal = 0.0f32;
            for p in 0..p_count {
                equal += self.step.confidence[p * self.bit_count + j].clamp(0.0, 1.0);
            }
            if (self.step.distribution[j] >= 0.5) != actual {
                ensemble_wrong = true;
            }
            if (equal / p_count as f32 >= 0.5) != actual {
                equal_weight_wrong = true;
            }
        }

        // 3. Mistake masks: XOR each packed rounded prediction against the
        //    realised bits, then walk the set bits to apply the
        //    multiplicative update and bump the cumulative counts.
        for p in 0..p_count {
            let row = &mut self.step.bits[p * packed..(p + 1) * packed];
            for (w, mask) in row.iter_mut().enumerate().take(scored_words) {
                *mask ^= next.packed()[w];
            }
            mask_tail(&mut row[..scored_words], bit_count);
            for word in row[scored_words..].iter_mut() {
                *word = 0;
            }
            for (w, &mask) in row.iter().enumerate().take(scored_words) {
                let mut remaining = mask;
                while remaining != 0 {
                    let j = w * 64 + remaining.trailing_zeros() as usize;
                    self.weights[j * p_count + p] *= self.beta;
                    self.cumulative_mistakes[j * p_count + p] += 1;
                    remaining &= remaining - 1;
                }
            }
        }
        // Keep weights from underflowing to zero for every predictor. Only
        // bits that just took a multiplicative hit can newly underflow, so
        // the scan walks the union of the mistake masks.
        for w in 0..scored_words {
            let mut union = 0u64;
            for p in 0..p_count {
                union |= self.step.bits[p * packed + w];
            }
            let mut remaining = union;
            while remaining != 0 {
                let j = w * 64 + remaining.trailing_zeros() as usize;
                let row = &mut self.weights[j * p_count..(j + 1) * p_count];
                let max = row.iter().cloned().fold(0.0f32, f32::max);
                if max < 1e-9 {
                    for weight in row {
                        *weight /= max.max(1e-30);
                    }
                }
                remaining &= remaining - 1;
            }
        }

        self.mistakes.push(&self.step.bits);
        self.observations += 1;
        self.recent_outcomes = (self.recent_outcomes << 1) | u64::from(ensemble_wrong);
        if ensemble_wrong {
            self.ensemble_mistakes += 1;
        }
        if equal_weight_wrong {
            self.equal_weight_mistakes += 1;
        }

        // 4. Train the member predictors on the new example, handing each
        //    its own step-1 confidences: the forward pass is never
        //    recomputed.
        for (p, predictor) in self.predictors.iter_mut().enumerate() {
            let predicted = &self.step.confidence[p * self.bit_count..(p + 1) * self.bit_count];
            predictor.observe_transition(prev, next, predicted);
        }

        // 5. The forward pass on `next` for whatever comes next. Only an
        //    observation of the ensemble's own arity is kept: every member
        //    then writes every slot of its block.
        if next.bit_count() == self.bit_count {
            self.ahead.run(&self.predictors, &self.weights, next);
            self.ahead.observation = Some(next.clone());
        }
    }

    /// The current weight matrix: `weights[bit][predictor]`, normalised per
    /// bit so each row sums to 1 (the shading of the paper's Figure 3).
    pub fn weight_matrix(&self) -> Vec<Vec<f64>> {
        let p_count = self.predictors.len();
        self.weights
            .chunks_exact(p_count)
            .map(|row| {
                let total: f64 = row.iter().map(|&w| w as f64).sum();
                if total <= 0.0 {
                    vec![1.0 / p_count as f64; p_count]
                } else {
                    row.iter().map(|&w| w as f64 / total).collect()
                }
            })
            .collect()
    }

    /// Fraction of the last [`RECENT_WINDOW`] whole-state predictions the
    /// weighted ensemble got wrong (over however many exist while the
    /// history is still shorter than the window). O(1) — one popcount over
    /// the outcome shift register — so it is safe to consult on the
    /// runtime's per-occurrence hot path, unlike [`errors`](Ensemble::errors)
    /// which walks the whole mistake ring.
    pub fn recent_error_rate(&self) -> f64 {
        let window = (self.observations).min(RECENT_WINDOW as u64);
        if window == 0 {
            return 0.0;
        }
        let mask = if window == 64 { u64::MAX } else { (1u64 << window) - 1 };
        (self.recent_outcomes & mask).count_ones() as f64 / window as f64
    }

    /// Error statistics in the shape of Table 2. The hindsight-optimal
    /// per-bit predictor assignment uses the full-history cumulative mistake
    /// counts; its whole-state miss rate is measured over the retained
    /// mistake window (the ring holds the most recent
    /// `mistake_capacity` observations).
    pub fn errors(&self) -> EnsembleErrors {
        let total = self.observations;
        if total == 0 {
            return EnsembleErrors::default();
        }
        let p_count = self.predictors.len();
        let packed = packed_len(self.bit_count);
        // Per-predictor selection masks: bit j is set in mask p when p is the
        // hindsight-best predictor for bit j.
        let mut selection = vec![0u64; p_count * packed];
        for j in 0..self.bit_count {
            let row = &self.cumulative_mistakes[j * p_count..(j + 1) * p_count];
            let best = row
                .iter()
                .enumerate()
                .min_by_key(|(_, count)| **count)
                .map(|(p, _)| p)
                .unwrap_or(0);
            selection[best * packed + j / 64] |= 1u64 << (j % 64);
        }
        // An observation is a hindsight miss when the best-per-bit assignment
        // still got at least one bit wrong: any predictor's mistake mask
        // intersects its selection mask.
        let mut hindsight_mistakes = 0u64;
        for slot in self.mistakes.slots() {
            let wrong = (0..p_count).any(|p| {
                slot[p * packed..(p + 1) * packed]
                    .iter()
                    .zip(&selection[p * packed..(p + 1) * packed])
                    .any(|(mask, sel)| mask & sel != 0)
            });
            if wrong {
                hindsight_mistakes += 1;
            }
        }
        let window = self.mistakes.len().max(1) as f64;
        EnsembleErrors {
            equal_weight_error_rate: self.equal_weight_mistakes as f64 / total as f64,
            hindsight_optimal_error_rate: hindsight_mistakes as f64 / window,
            actual_error_rate: self.ensemble_mistakes as f64 / total as f64,
            recent_error_rate: self.recent_error_rate(),
            total_predictions: total,
            incorrect_predictions: self.ensemble_mistakes,
        }
    }

    /// Appends the full learned state — member predictor states, the RWMA
    /// weight matrix, mistake history and scoring counters — to `out` using
    /// the [`persist`] vocabulary. Restoring with
    /// [`load_state`](Ensemble::load_state) into an ensemble built from the
    /// same configuration reproduces bit-identical predictions.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        persist::put_usize(out, self.bit_count);
        persist::put_usize(out, self.predictors.len());
        for predictor in &self.predictors {
            persist::put_str(out, predictor.name());
            let mut blob = Vec::new();
            predictor.save_state(&mut blob);
            persist::put_bytes(out, &blob);
        }
        persist::put_f32_slice(out, &self.weights);
        self.mistakes.save(out);
        persist::put_u32_slice(out, &self.cumulative_mistakes);
        persist::put_u64(out, self.ensemble_mistakes);
        persist::put_u64(out, self.equal_weight_mistakes);
        persist::put_u64(out, self.recent_outcomes);
        persist::put_u64(out, self.observations);
    }

    /// Restores state written by [`save_state`](Ensemble::save_state) into an
    /// ensemble constructed with the same configuration (same predictor
    /// complement, bit count, beta and mistake capacity). Returns `None` —
    /// leaving the ensemble fit only for [`reset`](Ensemble::reset) and
    /// re-warming — when the bytes describe a different shape or fail any
    /// predictor's own validation.
    pub fn load_state(&mut self, reader: &mut Reader<'_>) -> Option<()> {
        self.ahead.observation = None;
        if reader.usize()? != self.bit_count || reader.usize()? != self.predictors.len() {
            return None;
        }
        for predictor in &mut self.predictors {
            if reader.str()? != predictor.name() {
                return None;
            }
            let blob = reader.bytes()?;
            let mut blob_reader = Reader::new(blob);
            predictor.load_state(&mut blob_reader)?;
            if !blob_reader.is_empty() {
                return None;
            }
        }
        self.weights = persist::f32_slice_exact(reader, self.weights.len())?;
        self.mistakes.load(reader)?;
        self.cumulative_mistakes =
            persist::u32_slice_exact(reader, self.cumulative_mistakes.len())?;
        self.ensemble_mistakes = reader.u64()?;
        self.equal_weight_mistakes = reader.u64()?;
        self.recent_outcomes = reader.u64()?;
        self.observations = reader.u64()?;
        Some(())
    }

    /// Resets every predictor and all weights (used when the recognizer
    /// abandons the current RIP).
    pub fn reset(&mut self) {
        for predictor in &mut self.predictors {
            predictor.reset();
        }
        self.weights.fill(1.0);
        self.mistakes.clear();
        self.cumulative_mistakes.fill(0);
        self.ensemble_mistakes = 0;
        self.equal_weight_mistakes = 0;
        self.recent_outcomes = 0;
        self.observations = 0;
        self.ahead.observation = None;
    }
}

/// The weighted vote shared by the ensemble's forward passes and the
/// retained reference implementation: `confidence[j] = Σₚ w[j,p]·probs[p,j]
/// / Σₚ w[j,p]` with per-term clamping, accumulated in ascending predictor
/// order.
pub(crate) fn combine_weighted(
    weights: &[f32],
    block_confidence: &[f32],
    bit_count: usize,
    p_count: usize,
    confidence: &mut [f32],
) {
    for (j, slot) in confidence.iter_mut().enumerate().take(bit_count) {
        let mut numerator = 0.0f32;
        let mut denominator = 0.0f32;
        for p in 0..p_count {
            let probability = block_confidence[p * bit_count + j].clamp(0.0, 1.0);
            let weight = weights[j * p_count + p];
            numerator += weight * probability;
            denominator += weight;
        }
        *slot = if denominator <= 0.0 { 0.5 } else { numerator / denominator };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::ExcitationSchema;
    use crate::traits::default_predictors;

    /// A deliberately terrible predictor: always predicts the complement of
    /// the weatherman, to give the ensemble something to down-weight.
    struct Contrarian;
    impl BlockPredictor for Contrarian {
        fn name(&self) -> &'static str {
            "contrarian"
        }
        fn observe_transition(
            &mut self,
            _prev: &PackedObservation,
            _next: &PackedObservation,
            _predicted: &[f32],
        ) {
        }
        fn predict_block(
            &self,
            current: &PackedObservation,
            bits: &mut [u64],
            confidence: &mut [f32],
        ) {
            for (j, slot) in confidence.iter_mut().enumerate().take(current.bit_count()) {
                *slot = if current.bit(j) { 0.05 } else { 0.95 };
            }
            crate::features::pack_probabilities(&confidence[..current.bit_count()], bits);
        }
        fn reset(&mut self) {}
    }

    fn constant_schema(bits: usize) -> ExcitationSchema {
        ExcitationSchema::new(1, (0..bits).map(|b| (0, b as u8)).collect())
    }

    fn obs_of(word: u32, bits: usize) -> PackedObservation {
        let unpacked: Vec<bool> = (0..bits).map(|b| (word >> b) & 1 == 1).collect();
        PackedObservation::from_bits(&unpacked, vec![word])
    }

    fn unpack(bits: &[u64], count: usize) -> Vec<bool> {
        (0..count).map(|j| (bits[j / 64] >> (j % 64)) & 1 == 1).collect()
    }

    #[test]
    fn downweights_the_bad_predictor() {
        let schema = constant_schema(4);
        let mut predictors = default_predictors(&schema);
        predictors.push(Box::new(Contrarian));
        let contrarian_index = predictors.len() - 1;
        let mut ensemble = Ensemble::new(predictors, 4, 0.5, 1024);
        // A constant sequence: weatherman and mean are perfect, contrarian is
        // always wrong.
        let value = obs_of(0b1010, 4);
        for _ in 0..20 {
            ensemble.observe(&value, &value);
        }
        let matrix = ensemble.weight_matrix();
        for row in &matrix {
            assert!(row[contrarian_index] < 0.05, "contrarian still has weight {row:?}");
        }
        // And the ensemble's own predictions are correct.
        let (bits, _) = ensemble.predict_ml(&value);
        assert_eq!(unpack(&bits, 4), value.bits());
    }

    #[test]
    fn errors_track_equal_weight_vs_actual() {
        let schema = constant_schema(4);
        let mut predictors = default_predictors(&schema);
        // Enough contrarians to outvote the good predictors under equal
        // weighting (their confident wrong probabilities dominate the mean).
        for _ in 0..6 {
            predictors.push(Box::new(Contrarian));
        }
        let mut ensemble = Ensemble::new(predictors, 4, 0.5, 1024);
        let value = obs_of(0b0110, 4);
        for _ in 0..40 {
            ensemble.observe(&value, &value);
        }
        let errors = ensemble.errors();
        assert_eq!(errors.total_predictions, 40);
        // Equal weighting keeps being wrong; the weighted ensemble recovers.
        assert!(errors.equal_weight_error_rate > 0.6, "{errors:?}");
        assert!(errors.actual_error_rate < 0.35, "{errors:?}");
        assert!(errors.hindsight_optimal_error_rate <= errors.actual_error_rate + 1e-9);
    }

    #[test]
    fn regret_is_bounded_relative_to_best_predictor() {
        // A toggling bit: weatherman is always wrong, logistic learns it,
        // mean hovers at 0.5. The ensemble must end up close to hindsight
        // optimal, which is the RWMA guarantee Table 2 relies on.
        let schema = constant_schema(1);
        let mut ensemble = Ensemble::new(default_predictors(&schema), 1, 0.5, 1024);
        let mut value = false;
        for _ in 0..300 {
            let prev = PackedObservation::from_bits(&[value], vec![value as u32]);
            value = !value;
            let next = PackedObservation::from_bits(&[value], vec![value as u32]);
            ensemble.observe(&prev, &next);
        }
        let errors = ensemble.errors();
        assert!(
            errors.actual_error_rate < errors.hindsight_optimal_error_rate + 0.15,
            "actual {:.3} vs hindsight {:.3}",
            errors.actual_error_rate,
            errors.hindsight_optimal_error_rate
        );
    }

    #[test]
    fn mistake_history_is_bounded() {
        let schema = constant_schema(2);
        let mut ensemble = Ensemble::new(default_predictors(&schema), 2, 0.5, 8);
        let value = obs_of(0b01, 2);
        for _ in 0..100 {
            ensemble.observe(&value, &value);
        }
        assert_eq!(ensemble.observations(), 100);
        assert_eq!(ensemble.mistake_window(), 8);
        // Error statistics still work over the bounded window.
        let errors = ensemble.errors();
        assert_eq!(errors.total_predictions, 100);
        assert!(errors.hindsight_optimal_error_rate <= 1.0);
    }

    #[test]
    fn reset_clears_history() {
        let schema = constant_schema(2);
        let mut ensemble = Ensemble::new(default_predictors(&schema), 2, 0.5, 1024);
        let value = obs_of(0b01, 2);
        ensemble.observe(&value, &value);
        assert_eq!(ensemble.observations(), 1);
        ensemble.reset();
        assert_eq!(ensemble.observations(), 0);
        assert_eq!(ensemble.errors(), EnsembleErrors::default());
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn rejects_bad_beta() {
        let schema = constant_schema(1);
        Ensemble::new(default_predictors(&schema), 1, 1.5, 1024);
    }

    #[test]
    fn save_load_roundtrip_is_bit_identical() {
        let schema = constant_schema(4);
        let mut trained = Ensemble::new(default_predictors(&schema), 4, 0.5, 8);
        // A toggling sequence exercises every predictor, the mistake ring
        // (past its 8-slot capacity) and all whole-state counters.
        for i in 0u32..40 {
            trained.observe(&obs_of(i % 3, 4), &obs_of((i + 1) % 3, 4));
        }
        let mut bytes = Vec::new();
        trained.save_state(&mut bytes);

        let mut restored = Ensemble::new(default_predictors(&schema), 4, 0.5, 8);
        let mut reader = crate::persist::Reader::new(&bytes);
        restored.load_state(&mut reader).expect("roundtrip must restore");
        assert!(reader.is_empty(), "restore must consume the entire blob");

        assert_eq!(restored.observations(), trained.observations());
        assert_eq!(restored.mistake_window(), trained.mistake_window());
        assert_eq!(restored.weight_matrix(), trained.weight_matrix());
        assert_eq!(restored.errors(), trained.errors());
        let probe = obs_of(2, 4);
        assert_eq!(restored.predict_ml(&probe), trained.predict_ml(&probe));
        assert_eq!(restored.predict_distribution(&probe), trained.predict_distribution(&probe));

        // And the restored ensemble keeps learning identically.
        trained.observe(&obs_of(2, 4), &obs_of(0, 4));
        restored.observe(&obs_of(2, 4), &obs_of(0, 4));
        assert_eq!(restored.predict_ml(&probe), trained.predict_ml(&probe));
        assert_eq!(restored.errors(), trained.errors());
    }

    #[test]
    fn reset_and_restore_discard_the_forward_pass_run_ahead() {
        let schema = constant_schema(4);
        let fresh = || Ensemble::new(default_predictors(&schema), 4, 0.5, 8);
        let probe = obs_of(2, 4);
        let (mut source, mut target) = (fresh(), fresh());
        for i in 0u32..30 {
            source.observe(&obs_of(i % 3, 4), &obs_of((i + 1) % 3, 4));
            // Every transition ends on `probe`: `target` runs its pass
            // ahead on it, with parameters `source` does not share.
            target.observe(&obs_of(i % 5 + 3, 4), &probe);
        }
        assert_ne!(target.predict_ml(&probe), source.predict_ml(&probe));

        let mut bytes = Vec::new();
        source.save_state(&mut bytes);
        let mut restored = fresh();
        restored.load_state(&mut Reader::new(&bytes)).unwrap();
        target.load_state(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(target.predict_ml(&probe), restored.predict_ml(&probe));
        target.observe(&probe, &obs_of(1, 4));
        restored.observe(&probe, &obs_of(1, 4));
        assert_eq!(target.weight_matrix(), restored.weight_matrix());
        assert_eq!(target.errors(), restored.errors());

        let (one, mut cold) = (obs_of(1, 4), fresh());
        assert_ne!(target.predict_ml(&one), cold.predict_ml(&one));
        target.reset();
        assert_eq!(target.predict_ml(&one), cold.predict_ml(&one));
        target.observe(&one, &probe);
        cold.observe(&one, &probe);
        assert_eq!(target.weight_matrix(), cold.weight_matrix());
        assert_eq!(target.errors(), cold.errors());
    }

    #[test]
    fn load_rejects_mismatched_shape_and_damage() {
        let schema = constant_schema(4);
        let mut trained = Ensemble::new(default_predictors(&schema), 4, 0.5, 8);
        for i in 0u32..10 {
            trained.observe(&obs_of(i, 4), &obs_of(i + 1, 4));
        }
        let mut bytes = Vec::new();
        trained.save_state(&mut bytes);

        // Wrong bit count.
        let mut narrow = Ensemble::new(default_predictors(&constant_schema(2)), 2, 0.5, 8);
        assert!(narrow.load_state(&mut crate::persist::Reader::new(&bytes)).is_none());

        // Different predictor complement (extra contrarian changes names).
        let mut predictors = default_predictors(&schema);
        predictors.push(Box::new(Contrarian));
        let mut other = Ensemble::new(predictors, 4, 0.5, 8);
        assert!(other.load_state(&mut crate::persist::Reader::new(&bytes)).is_none());

        // Truncation anywhere must be rejected, never panic.
        for cut in 0..bytes.len() {
            let mut fresh = Ensemble::new(default_predictors(&schema), 4, 0.5, 8);
            assert!(
                fresh.load_state(&mut crate::persist::Reader::new(&bytes[..cut])).is_none(),
                "truncation at {cut} must not restore"
            );
        }
    }
}
