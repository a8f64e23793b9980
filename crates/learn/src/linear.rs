//! On-line linear (polynomial) regression over 32-bit words (§4.4.2).
//!
//! Where logistic regression treats every bit independently, this predictor
//! works at the feature level the paper describes for integer-valued
//! quantities such as loop induction variables and bump-allocated pointers:
//! it interprets each excited 32-bit word as a signed integer `φᵢ(x)` and
//! fits `φ̂ᵢ(x') = w₀ + Σₖ wₖ·φᵢ(x)ᵏ`.
//!
//! The model is trained on-line after every observation. We use the
//! recursive-least-squares form of on-line linear regression (accumulated
//! normal equations with exponential forgetting) rather than plain SGD: for
//! exactly affine sequences — `i, i+1, i+2, …`, `ptr, ptr+56, ptr+112, …` —
//! it converges to the *bit-exact* relationship after a handful of
//! observations, which is what the trajectory cache needs. The forgetting
//! factor plays the role of the learning rate: the paper runs several
//! instances with different hyper-parameters and lets the ensemble choose.
//!
//! The block port stores the per-word moment matrices and coefficients in
//! flat word-major arrays and trains every word in one call. The moments
//! deliberately stay `f64`: the normal equations of a near-collinear affine
//! sequence are ill-conditioned, and solving them in `f32` would lose the
//! bit-exact convergence that makes this predictor useful. Only the
//! bit-level confidences the ensemble consumes are `f32`.

use crate::features::{mask_tail, ExcitationSchema, PackedObservation};
use crate::persist::{self, Reader};
use crate::traits::BlockPredictor;

/// Normalisation applied to word values before regression, keeping the
/// accumulated moments well-conditioned for typical addresses and counters.
const SCALE: f64 = 65536.0;

/// Per-word recursive least-squares polynomial regression over flat,
/// word-major coefficient arrays.
#[derive(Debug, Clone)]
pub struct LinearRegression {
    schema: ExcitationSchema,
    /// Polynomial degree `K` (1 = affine).
    degree: usize,
    /// Exponential forgetting applied to the moment matrices per observation.
    adaptivity: f64,
    /// Accumulated `Xᵀ X` per word: `word_count × dim × dim`, row major.
    xtx: Vec<f64>,
    /// Accumulated `Xᵀ y` per word: `word_count × dim`.
    xty: Vec<f64>,
    /// Solved coefficients per word: `word_count × dim` (refreshed after
    /// every observation).
    coefficients: Vec<f64>,
    /// Exponentially weighted mean absolute prediction error per word, in
    /// word units.
    residual: Vec<f64>,
    /// Observed transitions (shared by every word; all words train together).
    observations: u64,
}

fn powers_into(value: f64, degree: usize, x: &mut [f64]) {
    let mut acc = 1.0;
    for slot in x.iter_mut().take(degree + 1) {
        *slot = acc;
        acc *= value;
    }
}

/// Solves `A·w = b` for a small symmetric positive-definite system using
/// Gaussian elimination with partial pivoting. Returns `None` when the system
/// is singular (e.g. a constant word, which the ridge term normally prevents).
fn solve(a: &[f64], b: &[f64], dim: usize) -> Option<Vec<f64>> {
    let mut m = vec![0.0f64; dim * (dim + 1)];
    for row in 0..dim {
        for col in 0..dim {
            m[row * (dim + 1) + col] = a[row * dim + col];
        }
        m[row * (dim + 1) + dim] = b[row];
    }
    for col in 0..dim {
        // Pivot.
        let mut pivot = col;
        for row in col + 1..dim {
            if m[row * (dim + 1) + col].abs() > m[pivot * (dim + 1) + col].abs() {
                pivot = row;
            }
        }
        if m[pivot * (dim + 1) + col].abs() < 1e-12 {
            return None;
        }
        if pivot != col {
            for k in 0..=dim {
                m.swap(col * (dim + 1) + k, pivot * (dim + 1) + k);
            }
        }
        let diag = m[col * (dim + 1) + col];
        for row in 0..dim {
            if row == col {
                continue;
            }
            let factor = m[row * (dim + 1) + col] / diag;
            for k in col..=dim {
                m[row * (dim + 1) + k] -= factor * m[col * (dim + 1) + k];
            }
        }
    }
    Some((0..dim).map(|row| m[row * (dim + 1) + dim] / m[row * (dim + 1) + row]).collect())
}

impl LinearRegression {
    /// Creates a linear-regression predictor for the given excitation schema.
    ///
    /// `adaptivity` in `(0, 1)` controls how quickly old observations are
    /// forgotten (larger adapts faster but is noisier).
    ///
    /// # Panics
    /// Panics when `adaptivity` is outside `(0, 1)`.
    pub fn new(schema: ExcitationSchema, adaptivity: f64) -> Self {
        assert!(adaptivity > 0.0 && adaptivity < 1.0, "adaptivity must be in (0, 1)");
        let mut model = LinearRegression {
            schema,
            degree: 1,
            adaptivity,
            xtx: Vec::new(),
            xty: Vec::new(),
            coefficients: Vec::new(),
            residual: Vec::new(),
            observations: 0,
        };
        model.allocate();
        model
    }

    /// Sets the polynomial degree `K` (1 = affine, the default).
    ///
    /// # Panics
    /// Panics when `degree` is 0 or greater than 4.
    pub fn with_degree(mut self, degree: usize) -> Self {
        assert!((1..=4).contains(&degree), "degree must be between 1 and 4");
        self.degree = degree;
        self.allocate();
        self
    }

    fn allocate(&mut self) {
        let words = self.schema.word_count;
        let dim = self.degree + 1;
        self.xtx = vec![0.0; words * dim * dim];
        self.xty = vec![0.0; words * dim];
        self.coefficients = vec![0.0; words * dim];
        self.residual = vec![f64::INFINITY; words];
        self.observations = 0;
    }

    /// Predicted value of tracked word `w` given the current observation, or
    /// `None` before the model has converged to a usable fit.
    pub fn predict_word(&self, current: &PackedObservation, w: usize) -> Option<i64> {
        if self.observations < 2 || w >= self.schema.word_count {
            return None;
        }
        let dim = self.degree + 1;
        let mut x = [0.0f64; 5];
        powers_into(*current.words().get(w)? as i32 as f64 / SCALE, self.degree, &mut x);
        let coefficients = &self.coefficients[w * dim..(w + 1) * dim];
        let y: f64 = coefficients.iter().zip(x.iter()).map(|(c, xi)| c * xi).sum();
        Some((y * SCALE).round() as i64)
    }

    /// Exponentially weighted mean absolute error of word `w`, in word units.
    pub fn residual(&self, w: usize) -> f64 {
        self.residual.get(w).copied().unwrap_or(f64::INFINITY)
    }
}

impl BlockPredictor for LinearRegression {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn observe_transition(
        &mut self,
        prev: &PackedObservation,
        next: &PackedObservation,
        _predicted: &[f32],
    ) {
        if prev.words().len() != self.schema.word_count
            || next.words().len() != self.schema.word_count
        {
            return;
        }
        let dim = self.degree + 1;
        let keep = 1.0 - self.adaptivity;
        let mut x = [0.0f64; 5];
        for w in 0..self.schema.word_count {
            // Residual of the *previous* fit, before folding in this sample.
            if let Some(p) = self.predict_word(prev, w) {
                let err = (p - next.words()[w] as i32 as i64).abs() as f64;
                self.residual[w] = if self.residual[w].is_finite() {
                    0.9 * self.residual[w] + 0.1 * err
                } else {
                    err
                };
            }
            powers_into(prev.words()[w] as i32 as f64 / SCALE, self.degree, &mut x);
            let y = next.words()[w] as i32 as f64 / SCALE;
            let xtx = &mut self.xtx[w * dim * dim..(w + 1) * dim * dim];
            let xty = &mut self.xty[w * dim..(w + 1) * dim];
            for v in xtx.iter_mut() {
                *v *= keep;
            }
            for v in xty.iter_mut() {
                *v *= keep;
            }
            for row in 0..dim {
                for col in 0..dim {
                    xtx[row * dim + col] += x[row] * x[col];
                }
                xty[row] += x[row] * y;
            }
            // Ridge term keeps the system well-posed for constant words. It
            // is scaled relative to each diagonal entry so it never biases
            // the fit of well-conditioned (e.g. exactly affine) sequences.
            let mut ridge = xtx.to_vec();
            for d in 0..dim {
                let relative = ridge[d * dim + d].abs() * 1e-9;
                ridge[d * dim + d] += relative.max(1e-12);
            }
            if let Some(solved) = solve(&ridge, xty, dim) {
                self.coefficients[w * dim..(w + 1) * dim].copy_from_slice(&solved);
            }
        }
        self.observations += 1;
    }

    fn predict_block(&self, current: &PackedObservation, bits: &mut [u64], confidence: &mut [f32]) {
        // One word-level prediction per tracked word, then fan the word's bit
        // values and confidence out to the bits homed in it.
        for word in bits.iter_mut() {
            *word = 0;
        }
        let words = self.schema.word_count.min(current.words().len());
        let mut predicted: Vec<Option<(i64, f32)>> = Vec::with_capacity(words);
        for w in 0..words {
            predicted.push(self.predict_word(current, w).map(|value| {
                // Confidence tracks how well the word model has been doing.
                let residual = self.residual(w);
                let confidence = if residual < 0.5 {
                    0.97
                } else if residual < 4.0 {
                    0.75
                } else {
                    0.55
                };
                (value, confidence)
            }));
        }
        for (j, &(word, offset)) in self.schema.bit_homes.iter().enumerate() {
            let p = match predicted.get(word).copied().flatten() {
                Some((value, confidence)) => {
                    if (value as u64 >> offset) & 1 == 1 {
                        confidence
                    } else {
                        1.0 - confidence
                    }
                }
                None => 0.5,
            };
            confidence[j] = p;
            if p >= 0.5 {
                bits[j / 64] |= 1u64 << (j % 64);
            }
        }
        mask_tail(bits, self.schema.bit_count);
    }

    fn reset(&mut self) {
        self.allocate();
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        persist::put_usize(out, self.schema.word_count);
        persist::put_usize(out, self.degree);
        persist::put_u64(out, self.observations);
        persist::put_f64_slice(out, &self.xtx);
        persist::put_f64_slice(out, &self.xty);
        persist::put_f64_slice(out, &self.coefficients);
        persist::put_f64_slice(out, &self.residual);
    }

    fn load_state(&mut self, reader: &mut Reader<'_>) -> Option<()> {
        if reader.usize()? != self.schema.word_count || reader.usize()? != self.degree {
            return None;
        }
        let observations = reader.u64()?;
        let xtx = persist::f64_slice_exact(reader, self.xtx.len())?;
        let xty = persist::f64_slice_exact(reader, self.xty.len())?;
        let coefficients = persist::f64_slice_exact(reader, self.coefficients.len())?;
        let residual = persist::f64_slice_exact(reader, self.residual.len())?;
        self.observations = observations;
        self.xtx = xtx;
        self.xty = xty;
        self.coefficients = coefficients;
        self.residual = residual;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::packed_len;

    fn schema(words: usize) -> ExcitationSchema {
        let mut homes = Vec::new();
        for w in 0..words {
            for bit in 0..32 {
                homes.push((w, bit as u8));
            }
        }
        ExcitationSchema::new(words, homes)
    }

    fn obs_words(words: &[u32]) -> PackedObservation {
        let mut bits = Vec::new();
        for &w in words {
            for bit in 0..32 {
                bits.push((w >> bit) & 1 == 1);
            }
        }
        PackedObservation::from_bits(&bits, words.to_vec())
    }

    fn predict_probs(p: &LinearRegression, x: &PackedObservation) -> Vec<f32> {
        let mut bits = vec![0u64; packed_len(x.bit_count())];
        let mut confidence = vec![0.0f32; x.bit_count()];
        p.predict_block(x, &mut bits, &mut confidence);
        confidence
    }

    #[test]
    fn learns_an_induction_variable_exactly() {
        let mut p = LinearRegression::new(schema(1), 0.1);
        for i in 0u32..30 {
            p.observe_transition(&obs_words(&[i]), &obs_words(&[i + 1]), &[]);
        }
        assert_eq!(p.predict_word(&obs_words(&[30]), 0), Some(31));
        assert_eq!(p.predict_word(&obs_words(&[1000]), 0), Some(1001));
        assert!(p.residual(0) < 0.5);
    }

    #[test]
    fn learns_a_pointer_stride() {
        // Bump-allocated node addresses with a 132-byte stride, as in Ising.
        let mut p = LinearRegression::new(schema(1), 0.1);
        let base = 0x1_0000u32;
        for i in 0u32..40 {
            p.observe_transition(
                &obs_words(&[base + i * 132]),
                &obs_words(&[base + (i + 1) * 132]),
                &[],
            );
        }
        assert_eq!(
            p.predict_word(&obs_words(&[base + 40 * 132]), 0),
            Some((base + 41 * 132) as i64)
        );
    }

    #[test]
    fn learns_a_constant_word() {
        let mut p = LinearRegression::new(schema(1), 0.1);
        for _ in 0..20 {
            p.observe_transition(&obs_words(&[7777]), &obs_words(&[7777]), &[]);
        }
        assert_eq!(p.predict_word(&obs_words(&[7777]), 0), Some(7777));
    }

    #[test]
    fn bit_predictions_follow_the_word_prediction() {
        let mut p = LinearRegression::new(schema(1), 0.1);
        for i in 0u32..40 {
            p.observe_transition(&obs_words(&[i]), &obs_words(&[i + 1]), &[]);
        }
        // From 7 (0b0111) the next value is 8 (0b1000).
        let current = obs_words(&[7]);
        let probs = predict_probs(&p, &current);
        assert!(probs[3] > 0.9); // bit 3 becomes 1
        assert!(probs[0] < 0.1); // bit 0 becomes 0
        assert!(probs[1] < 0.1);
    }

    #[test]
    fn negative_values_are_handled() {
        // A counter counting down through zero.
        let mut p = LinearRegression::new(schema(1), 0.1);
        for i in 0i32..30 {
            let a = (5 - i) as u32;
            let b = (4 - i) as u32;
            p.observe_transition(&obs_words(&[a]), &obs_words(&[b]), &[]);
        }
        assert_eq!(p.predict_word(&obs_words(&[(-30i32) as u32]), 0), Some(-31));
    }

    #[test]
    fn unseen_model_is_uncertain_and_reset_forgets() {
        let mut p = LinearRegression::new(schema(1), 0.1);
        assert_eq!(predict_probs(&p, &obs_words(&[3]))[0], 0.5);
        for i in 0u32..20 {
            p.observe_transition(&obs_words(&[i]), &obs_words(&[i + 1]), &[]);
        }
        assert!(p.predict_word(&obs_words(&[5]), 0).is_some());
        p.reset();
        assert!(p.predict_word(&obs_words(&[5]), 0).is_none());
    }

    #[test]
    fn quadratic_relationship_with_degree_two() {
        // next = current²/SCALE-ish relationships are rare in programs, but the
        // degree-2 model should at least fit a parabola on normalised inputs.
        let mut p = LinearRegression::new(schema(1), 0.05).with_degree(2);
        for i in 0u32..60 {
            let x = i * 100;
            let y = i * i;
            p.observe_transition(&obs_words(&[x]), &obs_words(&[y]), &[]);
        }
        let predicted = p.predict_word(&obs_words(&[50 * 100]), 0).unwrap();
        assert!((predicted - 2500).abs() <= 25, "predicted {predicted}");
    }

    #[test]
    #[should_panic(expected = "adaptivity")]
    fn rejects_bad_adaptivity() {
        LinearRegression::new(schema(1), 1.5);
    }
}
