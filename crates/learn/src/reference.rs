//! The retained per-bit reference implementation of the prediction stack.
//!
//! Before the columnar refactor, every predictor exposed a per-bit
//! `update`/`predict` contract and the ensemble looped over `(bit,
//! predictor)` pairs through virtual dispatch. This module keeps that
//! formulation alive — same algorithms, same arithmetic, per-bit structure —
//! as the *golden model* for the packed block implementation: the
//! `packed_matches_reference` test drives both over a recorded excitation
//! trace and asserts identical maximum-likelihood predictions, weight
//! matrices and [`EnsembleErrors`].
//!
//! It is deliberately slow (this shape is what the refactor removed from the
//! hot path) and exists only for equivalence testing; nothing in the runtime
//! depends on it.

use crate::ensemble::EnsembleErrors;
use crate::features::{ExcitationSchema, PackedObservation};
use crate::linear::LinearRegression;
use crate::logistic::sigmoid;
use crate::traits::BlockPredictor;
use std::collections::VecDeque;

/// The per-bit predictor contract the packed [`BlockPredictor`] replaced.
///
/// [`BlockPredictor`]: crate::traits::BlockPredictor
trait PerBitPredictor {
    /// Trains on one observed transition (per-bit models loop internally).
    fn train(&mut self, prev: &PackedObservation, next: &PackedObservation);
    /// Probability that bit `j` of the observation following `current` is 1.
    fn predict(&self, current: &PackedObservation, j: usize) -> f32;
}

/// Per-bit running mean (the reference twin of [`crate::mean`]).
struct RefMean {
    ones: Vec<u32>,
    total: u32,
}

impl PerBitPredictor for RefMean {
    fn train(&mut self, _prev: &PackedObservation, next: &PackedObservation) {
        if next.bit_count() > self.ones.len() {
            self.ones.resize(next.bit_count(), 0);
        }
        self.total += 1;
        for j in 0..next.bit_count() {
            if next.bit(j) {
                self.ones[j] += 1;
            }
        }
    }

    fn predict(&self, _current: &PackedObservation, j: usize) -> f32 {
        match self.ones.get(j) {
            Some(&ones) if self.total > 0 => ones as f32 / self.total as f32,
            _ => 0.5,
        }
    }
}

/// Persistence prediction (the reference twin of [`crate::weatherman`]).
struct RefWeatherman {
    confidence: f32,
}

impl PerBitPredictor for RefWeatherman {
    fn train(&mut self, _prev: &PackedObservation, _next: &PackedObservation) {}

    fn predict(&self, current: &PackedObservation, j: usize) -> f32 {
        if j < current.bit_count() && current.bit(j) {
            self.confidence
        } else {
            1.0 - self.confidence
        }
    }
}

/// Per-bit logistic regression over dense `{0, 1}` features with a leading
/// bias term (the reference twin of [`crate::logistic`]): one dense weight
/// row per output bit, scored by a full dot product and scored *again*
/// inside every training step. The feature-major port adds the same weights
/// in the same per-bit order (bias, then ascending set features; the zero
/// terms of the dense product change nothing), which is arithmetically
/// identical. Public so the golden suite can drive the two side by side
/// through lazy-column growth, arity resets and save/load.
pub struct ReferenceLogistic {
    /// `rows[j]` is the weight vector for bit `j`, bias first.
    rows: Vec<Vec<f32>>,
    learning_rate: f32,
    bit_count: usize,
}

impl ReferenceLogistic {
    /// Creates the reference model for `bit_count` bits.
    pub fn new(bit_count: usize, learning_rate: f32) -> Self {
        ReferenceLogistic {
            rows: vec![vec![0.0; bit_count + 1]; bit_count],
            learning_rate,
            bit_count,
        }
    }

    /// Trains on one observed transition (an arity change restarts the
    /// model, exactly as the packed port does).
    pub fn train(&mut self, prev: &PackedObservation, next: &PackedObservation) {
        PerBitPredictor::train(self, prev, next);
    }

    /// Per-bit probabilities for the observation following `current` (0.5
    /// everywhere when its arity is not the model's).
    pub fn predict(&self, current: &PackedObservation) -> Vec<f32> {
        (0..current.bit_count()).map(|j| PerBitPredictor::predict(self, current, j)).collect()
    }

    /// Appends the checkpoint wire form the row-major implementation wrote:
    /// the bit count, then the flat `bit_count × (bit_count + 1)` matrix. The
    /// feature-major port must keep writing — and reading — exactly this.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        crate::persist::put_usize(out, self.bit_count);
        crate::persist::put_f32_slice(out, &self.rows.concat());
    }

    fn features(observation: &PackedObservation) -> Vec<f32> {
        let mut x = Vec::with_capacity(observation.bit_count() + 1);
        x.push(1.0);
        x.extend((0..observation.bit_count()).map(|j| if observation.bit(j) { 1.0 } else { 0.0 }));
        x
    }

    fn score(&self, x: &[f32], j: usize) -> f32 {
        let mut score = 0.0f32;
        // Bias first, then ascending feature bits — the packed port's
        // accumulation order.
        for (w, xi) in self.rows[j].iter().zip(x.iter()) {
            score += w * xi;
        }
        score
    }
}

impl PerBitPredictor for ReferenceLogistic {
    fn train(&mut self, prev: &PackedObservation, next: &PackedObservation) {
        if prev.bit_count() != self.bit_count {
            self.bit_count = prev.bit_count();
            self.rows = vec![vec![0.0; self.bit_count + 1]; self.bit_count];
        }
        let x = Self::features(prev);
        for j in 0..self.bit_count.min(next.bit_count()) {
            let prediction = sigmoid(self.score(&x, j));
            let target = if next.bit(j) { 1.0 } else { 0.0 };
            let gradient_scale = self.learning_rate * (target - prediction);
            for (w, xi) in self.rows[j].iter_mut().zip(x.iter()) {
                *w += gradient_scale * xi;
            }
        }
    }

    fn predict(&self, current: &PackedObservation, j: usize) -> f32 {
        if current.bit_count() != self.bit_count || j >= self.bit_count {
            return 0.5;
        }
        sigmoid(self.score(&Self::features(current), j))
    }
}

/// Word-level linear regression fanned out per bit (the reference twin of
/// the packed port's block fan-out; the word models themselves are shared —
/// they were never per-bit to begin with).
struct RefLinear {
    schema: ExcitationSchema,
    model: LinearRegression,
}

impl PerBitPredictor for RefLinear {
    fn train(&mut self, prev: &PackedObservation, next: &PackedObservation) {
        self.model.observe_transition(prev, next, &[]);
    }

    fn predict(&self, current: &PackedObservation, j: usize) -> f32 {
        if j >= self.schema.bit_count {
            return 0.5;
        }
        let (word, offset) = self.schema.home(j);
        match self.model.predict_word(current, word) {
            Some(value) => {
                let bit = (value as u64 >> offset) & 1 == 1;
                let residual = self.model.residual(word);
                let confidence = if residual < 0.5 {
                    0.97
                } else if residual < 4.0 {
                    0.75
                } else {
                    0.55
                };
                if bit {
                    confidence
                } else {
                    1.0 - confidence
                }
            }
            None => 0.5,
        }
    }
}

/// The per-bit RWMA ensemble over the reference predictor complement.
pub struct ReferenceEnsemble {
    predictors: Vec<Box<dyn PerBitPredictor>>,
    /// `weights[j][p]`, per-bit nested — the layout the packed ensemble
    /// flattened.
    weights: Vec<Vec<f32>>,
    beta: f32,
    /// Per retained observation, per bit: bitmask of predictors that got the
    /// bit wrong, bounded to the most recent `capacity` observations.
    mistake_log: VecDeque<Vec<u16>>,
    capacity: usize,
    /// Full-history per-`(bit, predictor)` mistake counts.
    cumulative_mistakes: Vec<Vec<u32>>,
    ensemble_mistakes: u64,
    equal_weight_mistakes: u64,
    /// Shift register of the last [`RECENT_WINDOW`] whole-state outcomes,
    /// mirroring the packed ensemble's O(1) recent-rate history.
    ///
    /// [`RECENT_WINDOW`]: crate::ensemble::RECENT_WINDOW
    recent_outcomes: u64,
    observations: u64,
}

impl ReferenceEnsemble {
    /// Builds the reference ensemble with the paper's default complement
    /// (mean, weatherman, logistic at rate 0.5, linear at adaptivity 0.1) —
    /// the per-bit twin of
    /// [`default_predictors`](crate::traits::default_predictors).
    pub fn with_default_complement(schema: &ExcitationSchema, beta: f64, capacity: usize) -> Self {
        let bit_count = schema.bit_count;
        let predictors: Vec<Box<dyn PerBitPredictor>> = vec![
            Box::new(RefMean { ones: vec![0; bit_count], total: 0 }),
            Box::new(RefWeatherman { confidence: 0.9 }),
            Box::new(ReferenceLogistic::new(bit_count, 0.5)),
            Box::new(RefLinear {
                schema: schema.clone(),
                model: LinearRegression::new(schema.clone(), 0.1),
            }),
        ];
        let predictor_count = predictors.len();
        ReferenceEnsemble {
            predictors,
            weights: vec![vec![1.0; predictor_count]; bit_count],
            beta: beta as f32,
            mistake_log: VecDeque::new(),
            capacity: capacity.max(1),
            cumulative_mistakes: vec![vec![0; predictor_count]; bit_count],
            ensemble_mistakes: 0,
            equal_weight_mistakes: 0,
            recent_outcomes: 0,
            observations: 0,
        }
    }

    fn predict_bit(&self, current: &PackedObservation, j: usize) -> f32 {
        let weights = &self.weights[j];
        let mut numerator = 0.0f32;
        let mut denominator = 0.0f32;
        for (p, predictor) in self.predictors.iter().enumerate() {
            let probability = predictor.predict(current, j).clamp(0.0, 1.0);
            numerator += weights[p] * probability;
            denominator += weights[p];
        }
        if denominator <= 0.0 {
            0.5
        } else {
            numerator / denominator
        }
    }

    /// Per-bit probabilities for the next observation.
    pub fn predict_distribution(&self, current: &PackedObservation) -> Vec<f32> {
        (0..self.weights.len()).map(|j| self.predict_bit(current, j)).collect()
    }

    /// The maximum-likelihood prediction and its joint log-probability.
    pub fn predict_ml(&self, current: &PackedObservation) -> (Vec<bool>, f64) {
        let distribution = self.predict_distribution(current);
        let mut bits = Vec::with_capacity(distribution.len());
        let mut log_probability = 0.0f64;
        for p in distribution {
            let bit = p >= 0.5;
            bits.push(bit);
            let bit_probability = if bit { p as f64 } else { 1.0 - p as f64 };
            log_probability += bit_probability.max(1e-12).ln();
        }
        (bits, log_probability)
    }

    /// Observes one transition with the original per-bit scoring loop.
    pub fn observe(&mut self, prev: &PackedObservation, next: &PackedObservation) {
        let bit_count = self.weights.len().min(next.bit_count());
        let mut mistakes_this_observation = vec![0u16; bit_count];
        let mut ensemble_wrong = false;
        let mut equal_weight_wrong = false;

        for (j, mistakes) in mistakes_this_observation.iter_mut().enumerate() {
            let actual = next.bit(j);
            // Score the weighted ensemble before updating anything.
            if (self.predict_bit(prev, j) >= 0.5) != actual {
                ensemble_wrong = true;
            }
            // Equal-weight vote: average the probabilities.
            let mut equal = 0.0f32;
            for predictor in &self.predictors {
                equal += predictor.predict(prev, j).clamp(0.0, 1.0);
            }
            if (equal / self.predictors.len() as f32 >= 0.5) != actual {
                equal_weight_wrong = true;
            }
            // Score individual predictors and apply the multiplicative update.
            for (p, predictor) in self.predictors.iter().enumerate() {
                let predicted = predictor.predict(prev, j) >= 0.5;
                if predicted != actual {
                    *mistakes |= 1 << p;
                    self.weights[j][p] *= self.beta;
                    self.cumulative_mistakes[j][p] += 1;
                }
            }
            // Keep weights from underflowing to zero for every predictor.
            let max = self.weights[j].iter().cloned().fold(0.0f32, f32::max);
            if max < 1e-9 {
                for w in &mut self.weights[j] {
                    *w /= max.max(1e-30);
                }
            }
        }

        self.mistake_log.push_back(mistakes_this_observation);
        if self.mistake_log.len() > self.capacity {
            self.mistake_log.pop_front();
        }
        self.observations += 1;
        self.recent_outcomes = (self.recent_outcomes << 1) | u64::from(ensemble_wrong);
        if ensemble_wrong {
            self.ensemble_mistakes += 1;
        }
        if equal_weight_wrong {
            self.equal_weight_mistakes += 1;
        }

        // Finally train the member predictors on the new example.
        for predictor in &mut self.predictors {
            predictor.train(prev, next);
        }
    }

    /// The normalised Figure-3 weight matrix.
    pub fn weight_matrix(&self) -> Vec<Vec<f64>> {
        self.weights
            .iter()
            .map(|row| {
                let total: f64 = row.iter().map(|&w| w as f64).sum();
                if total <= 0.0 {
                    vec![1.0 / row.len() as f64; row.len()]
                } else {
                    row.iter().map(|&w| w as f64 / total).collect()
                }
            })
            .collect()
    }

    /// Error statistics in the shape of Table 2 (hindsight selection over the
    /// full cumulative counts, whole-state hindsight misses over the retained
    /// window — mirroring the packed ensemble exactly).
    pub fn errors(&self) -> EnsembleErrors {
        let total = self.observations;
        if total == 0 {
            return EnsembleErrors::default();
        }
        let best_per_bit: Vec<usize> = self
            .cumulative_mistakes
            .iter()
            .map(|errors| {
                errors
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, count)| **count)
                    .map(|(p, _)| p)
                    .unwrap_or(0)
            })
            .collect();
        let mut hindsight_mistakes = 0u64;
        for observation in &self.mistake_log {
            let wrong =
                observation.iter().enumerate().any(|(j, mask)| mask & (1 << best_per_bit[j]) != 0);
            if wrong {
                hindsight_mistakes += 1;
            }
        }
        let window = self.mistake_log.len().max(1) as f64;
        let recent = total.min(crate::ensemble::RECENT_WINDOW as u64);
        let recent_mask = if recent == 64 { u64::MAX } else { (1u64 << recent) - 1 };
        EnsembleErrors {
            equal_weight_error_rate: self.equal_weight_mistakes as f64 / total as f64,
            hindsight_optimal_error_rate: hindsight_mistakes as f64 / window,
            actual_error_rate: self.ensemble_mistakes as f64 / total as f64,
            recent_error_rate: (self.recent_outcomes & recent_mask).count_ones() as f64
                / recent.max(1) as f64,
            total_predictions: total,
            incorrect_predictions: self.ensemble_mistakes,
        }
    }
}

/// Builds the packed ensemble with the same complement, bit count, beta and
/// mistake capacity as [`ReferenceEnsemble::with_default_complement`] — the
/// two sides of the golden comparison.
pub fn packed_default_ensemble(
    schema: &ExcitationSchema,
    beta: f64,
    capacity: usize,
) -> crate::ensemble::Ensemble {
    let predictors: Vec<Box<dyn BlockPredictor>> = crate::traits::default_predictors(schema);
    crate::ensemble::Ensemble::new(predictors, schema.bit_count, beta, capacity)
}
