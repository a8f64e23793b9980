//! On-line logistic regression, one binary classifier per tracked bit (§4.4.2).
//!
//! For each excited bit `j` the model keeps a weight vector `w_j` over the
//! `{bias} ∪ {excited bits}` feature representation of the conditioning
//! state, predicts `σ(w_j · x)`, and performs one stochastic-gradient-descent
//! step per new observation — exactly the fast on-line form described in the
//! paper. Logistic regression is the general-purpose member of the predictor
//! complement: it can latch onto *any* linearly separable relationship
//! between the current excitations and a future bit (the paper highlights the
//! flags-register bits where it is "absolutely crucial").
//!
//! # Layout: feature-major, lazily grown
//!
//! The features are `{0, 1}`, so `w_j · x` is the bias plus the weights at
//! the *set* bits of the conditioning observation. The weights are therefore
//! stored **feature-major**: one `bias[bit_count]` vector plus one
//! `bit_count`-long *column* per conditioning feature, holding that
//! feature's weight towards every output bit:
//!
//! ```text
//!            output bit j →
//! bias       [ b0  b1  b2  …  ]
//! column i   [ w0i w1i w2i …  ]   allocated when feature i first trains
//! column k   (empty: feature k has never been active)
//! ```
//!
//! Scoring every bit is `scores = bias; scores += column[i]` for each active
//! feature `i` in ascending order — a handful of contiguous vector additions
//! instead of `bit_count × popcount` scattered loads — and an SGD step is one
//! contiguous `column[i] += gradient` per active feature. Per output bit the
//! additions happen in the same order (bias first, then ascending feature
//! index) as the per-bit dot product in [`reference`](crate::reference), so
//! every `f32` is bit-identical to it.
//!
//! Columns are allocated on a feature's first *training* activation. A
//! feature that has never been active has an all-zero weight column, and
//! adding `+0.0` never changes a score (weights start at `+0.0` and only ever
//! take `+=` steps, so neither they nor the running score can be `-0.0`),
//! which is why skipping the missing column is exact. On the wide, mostly
//! constant excitation sets the recognizer's throw-away banks see, this keeps
//! memory proportional to `bit_count × features ever active` rather than
//! `bit_count²`.
//!
//! Training does not score: the ensemble has always called `predict_block`
//! on every member before training it, so [`observe_transition`] receives
//! that forward pass's confidences and only applies the gradient.
//!
//! The checkpoint wire form stays the dense row-major matrix (row `j` = bias
//! then one weight per feature), so checkpoints written before the layout
//! change still load and the serialized size is unchanged.
//!
//! [`observe_transition`]: BlockPredictor::observe_transition

use crate::features::{pack_probabilities, PackedObservation};
use crate::persist::{self, Reader};
use crate::traits::BlockPredictor;

/// Per-bit logistic regression trained by SGD over feature-major `f32`
/// weight columns.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// Bias weight of every tracked bit.
    bias: Vec<f32>,
    /// `columns[i][j]` is the weight of conditioning feature `i` towards
    /// tracked bit `j`. A column is empty (no allocation) until feature `i`
    /// is first active in a training call.
    columns: Vec<Vec<f32>>,
    bit_count: usize,
    learning_rate: f32,
    /// Scratch per-bit SGD step of the current training call, reused across
    /// calls.
    gradient: Vec<f32>,
}

pub(crate) fn sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// `accumulator[j] += addend[j]` over the common prefix: the one contiguous
/// kernel both scoring and the SGD step are made of.
fn add_assign(accumulator: &mut [f32], addend: &[f32]) {
    for (slot, &value) in accumulator.iter_mut().zip(addend) {
        *slot += value;
    }
}

impl LogisticRegression {
    /// Creates a model for `bit_count` tracked bits with the given SGD
    /// learning rate.
    ///
    /// # Panics
    /// Panics when the learning rate is not positive and finite.
    pub fn new(bit_count: usize, learning_rate: f32) -> Self {
        assert!(learning_rate > 0.0 && learning_rate.is_finite(), "learning rate must be positive");
        LogisticRegression {
            bias: vec![0.0; bit_count],
            columns: vec![Vec::new(); bit_count],
            bit_count,
            learning_rate,
            gradient: Vec::new(),
        }
    }

    /// How many feature columns are allocated — exactly the number of
    /// conditioning features that have been active in at least one training
    /// call since construction (or the last reset).
    pub fn allocated_columns(&self) -> usize {
        self.columns.iter().filter(|column| !column.is_empty()).count()
    }

    /// Forgets everything and re-shapes the model for `bit_count` bits.
    fn restart(&mut self, bit_count: usize) {
        self.bit_count = bit_count;
        self.bias.clear();
        self.bias.resize(bit_count, 0.0);
        self.columns.clear();
        self.columns.resize(bit_count, Vec::new());
    }
}

impl BlockPredictor for LogisticRegression {
    fn name(&self) -> &'static str {
        "logistic"
    }

    fn observe_transition(
        &mut self,
        prev: &PackedObservation,
        next: &PackedObservation,
        predicted: &[f32],
    ) {
        // The feature dimension is fixed by the excitation schema; if an
        // observation with a different arity appears the bank is being
        // rebuilt, so restart rather than corrupt the weights. (The forward
        // pass saw the same mismatch and reported 0.5 everywhere, which is
        // exactly what the restarted model would have predicted.)
        if prev.bit_count() != self.bit_count {
            self.restart(prev.bit_count());
        }
        let trained = self.bit_count.min(next.bit_count());
        let rate = self.learning_rate;
        self.gradient.clear();
        self.gradient.extend(predicted[..trained].iter().enumerate().map(|(j, &prediction)| {
            let target = ((next.packed()[j / 64] >> (j % 64)) & 1) as f32;
            rate * (target - prediction)
        }));
        add_assign(&mut self.bias, &self.gradient);
        let (columns, gradient, bit_count) = (&mut self.columns, &self.gradient, self.bit_count);
        prev.for_each_set_bit(|i| {
            let column = &mut columns[i];
            if column.is_empty() {
                column.resize(bit_count, 0.0);
            }
            add_assign(column, gradient);
        });
    }

    fn predict_block(&self, current: &PackedObservation, bits: &mut [u64], confidence: &mut [f32]) {
        if current.bit_count() != self.bit_count {
            confidence[..current.bit_count()].fill(0.5);
            pack_probabilities(&confidence[..current.bit_count()], bits);
            return;
        }
        // Accumulate the scores in the output buffer itself: bias first, then
        // each active feature's column in ascending feature order.
        let scores = &mut confidence[..self.bit_count];
        scores.copy_from_slice(&self.bias);
        current.for_each_set_bit(|i| add_assign(scores, &self.columns[i]));
        for score in scores.iter_mut() {
            *score = sigmoid(*score);
        }
        pack_probabilities(scores, bits);
    }

    fn reset(&mut self) {
        self.restart(self.bit_count);
    }

    /// Writes the dense row-major matrix (row `j`: bias, then the weight of
    /// every feature; never-active features contribute zeros).
    fn save_state(&self, out: &mut Vec<u8>) {
        persist::put_usize(out, self.bit_count);
        persist::put_usize(out, self.bit_count * (self.bit_count + 1));
        for (j, &bias) in self.bias.iter().enumerate() {
            persist::put_f32(out, bias);
            for column in &self.columns {
                persist::put_f32(out, column.get(j).copied().unwrap_or(0.0));
            }
        }
    }

    /// Reads the dense row-major matrix back into columns. A column is
    /// allocated only if it holds a weight with a non-zero bit pattern, so
    /// an all-zero column comes back unallocated — the same model.
    fn load_state(&mut self, reader: &mut Reader<'_>) -> Option<()> {
        let bit_count = reader.usize()?;
        if bit_count != self.bit_count {
            return None;
        }
        let len = reader.usize()?;
        if len != bit_count * (bit_count + 1) || len.checked_mul(4)? > reader.remaining() {
            return None;
        }
        self.restart(bit_count);
        for j in 0..bit_count {
            self.bias[j] = reader.f32()?;
            for column in &mut self.columns {
                let weight = reader.f32()?;
                if weight.to_bits() != 0 {
                    if column.is_empty() {
                        column.resize(bit_count, 0.0);
                    }
                    column[j] = weight;
                }
            }
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::packed_len;

    fn obs(bits: &[bool]) -> PackedObservation {
        PackedObservation::from_bits(bits, vec![])
    }

    fn predict_probs(model: &LogisticRegression, x: &PackedObservation) -> Vec<f32> {
        let mut bits = vec![0u64; packed_len(x.bit_count())];
        let mut confidence = vec![0.0f32; x.bit_count()];
        model.predict_block(x, &mut bits, &mut confidence);
        confidence
    }

    /// One ensemble-style step: forward pass, then train on its confidences.
    fn train(model: &mut LogisticRegression, prev: &PackedObservation, next: &PackedObservation) {
        let predicted = predict_probs(model, prev);
        model.observe_transition(prev, next, &predicted);
    }

    #[test]
    fn sigmoid_is_stable_and_monotone() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(40.0) > 0.999);
        assert!(sigmoid(-40.0) < 0.001);
        assert!(sigmoid(1.0) > sigmoid(-1.0));
        // No overflow at extremes.
        assert!(sigmoid(1e6).is_finite());
        assert!(sigmoid(-1e6).is_finite());
    }

    #[test]
    fn learns_identity_relationship() {
        // Bit 0 of the next observation equals bit 1 of the current one.
        let mut p = LogisticRegression::new(2, 0.5);
        for i in 0..200 {
            let b = i % 2 == 0;
            let current = obs(&[i % 3 == 0, b]);
            train(&mut p, &current, &obs(&[b, false]));
        }
        assert!(predict_probs(&p, &obs(&[false, true]))[0] > 0.85);
        assert!(predict_probs(&p, &obs(&[false, false]))[0] < 0.15);
    }

    #[test]
    fn learns_negation_relationship() {
        // Next bit 0 is the complement of current bit 0 (a toggling flag).
        let mut p = LogisticRegression::new(1, 0.5);
        let mut value = false;
        for _ in 0..300 {
            let current = obs(&[value]);
            value = !value;
            train(&mut p, &current, &obs(&[value]));
        }
        assert!(predict_probs(&p, &obs(&[false]))[0] > 0.8);
        assert!(predict_probs(&p, &obs(&[true]))[0] < 0.2);
    }

    #[test]
    fn learns_constant_bias() {
        let mut p = LogisticRegression::new(1, 0.5);
        for i in 0..100 {
            train(&mut p, &obs(&[i % 2 == 0]), &obs(&[true]));
        }
        assert!(predict_probs(&p, &obs(&[true]))[0] > 0.9);
        assert!(predict_probs(&p, &obs(&[false]))[0] > 0.9);
    }

    #[test]
    fn unseen_model_is_uncertain_and_reset_forgets() {
        let mut p = LogisticRegression::new(1, 0.5);
        assert!((predict_probs(&p, &obs(&[true]))[0] - 0.5).abs() < 1e-6);
        for _ in 0..50 {
            train(&mut p, &obs(&[true]), &obs(&[true]));
        }
        assert!(predict_probs(&p, &obs(&[true]))[0] > 0.8);
        p.reset();
        assert!((predict_probs(&p, &obs(&[true]))[0] - 0.5).abs() < 1e-6);
        assert_eq!(p.allocated_columns(), 0);
    }

    #[test]
    fn columns_are_allocated_on_first_training_activation_only() {
        let mut p = LogisticRegression::new(3, 0.5);
        assert_eq!(p.allocated_columns(), 0);
        // Feature 1 active: one column; predicting with feature 2 active
        // reads the missing column as zeros and allocates nothing.
        train(&mut p, &obs(&[false, true, false]), &obs(&[true, true, true]));
        assert_eq!(p.allocated_columns(), 1);
        let with_unseen = predict_probs(&p, &obs(&[false, true, true]));
        assert_eq!(with_unseen, predict_probs(&p, &obs(&[false, true, false])));
        assert_eq!(p.allocated_columns(), 1);
        train(&mut p, &obs(&[true, true, false]), &obs(&[false, false, false]));
        assert_eq!(p.allocated_columns(), 2);
    }

    #[test]
    fn arity_change_restarts_the_model() {
        let mut p = LogisticRegression::new(1, 0.5);
        for _ in 0..50 {
            train(&mut p, &obs(&[true]), &obs(&[true]));
        }
        // A wider observation resets and resizes.
        train(&mut p, &obs(&[true, false, true]), &obs(&[true, true, false]));
        assert_eq!(predict_probs(&p, &obs(&[true, false, true])).len(), 3);
        assert_eq!(p.allocated_columns(), 2);
        // Predicting with the stale arity reports pure uncertainty.
        assert_eq!(predict_probs(&p, &obs(&[true])), vec![0.5]);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_bad_learning_rate() {
        LogisticRegression::new(4, 0.0);
    }
}
