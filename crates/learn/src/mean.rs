//! The `mean` predictor: predicts each bit's running mean (§4.4.2).
//!
//! "The mean predictor simply learns the mean value of each bit and issues
//! predictions by rounding." It is trivially simple, yet the paper's Figure 3
//! shows it carrying real weight on the Ising benchmark — bits that are
//! almost always 0 (or 1) are predicted essentially for free.
//!
//! The block port keeps one flat `u32` counter per bit plus a single shared
//! observation count (every block update touches every bit once); training
//! increments only the counters of the *set* bits of the realised
//! observation, found by packed set-bit iteration.

use crate::features::{pack_probabilities, PackedObservation};
use crate::persist::{self, Reader};
use crate::traits::BlockPredictor;

/// Per-bit running mean with rounding.
#[derive(Debug, Clone)]
pub struct MeanPredictor {
    /// How many observed blocks had each bit set.
    ones: Vec<u32>,
    /// Observed block count, shared by every bit.
    total: u32,
}

impl MeanPredictor {
    /// Creates a mean predictor for `bit_count` tracked bits.
    pub fn new(bit_count: usize) -> Self {
        MeanPredictor { ones: vec![0; bit_count], total: 0 }
    }

    /// The empirical mean of bit `j`, or 0.5 before any observation.
    pub fn mean(&self, j: usize) -> f32 {
        match self.ones.get(j) {
            Some(&ones) if self.total > 0 => ones as f32 / self.total as f32,
            _ => 0.5,
        }
    }
}

impl BlockPredictor for MeanPredictor {
    fn name(&self) -> &'static str {
        "mean"
    }

    fn observe_transition(
        &mut self,
        _prev: &PackedObservation,
        next: &PackedObservation,
        _predicted: &[f32],
    ) {
        if next.bit_count() > self.ones.len() {
            // Excitation sets only ever grow when the recognizer resets the
            // whole bank, but be robust to a wider observation.
            self.ones.resize(next.bit_count(), 0);
        }
        self.total += 1;
        for (w, &word) in next.packed().iter().enumerate() {
            let mut remaining = word;
            while remaining != 0 {
                let j = w * 64 + remaining.trailing_zeros() as usize;
                self.ones[j] += 1;
                remaining &= remaining - 1;
            }
        }
    }

    fn predict_block(&self, current: &PackedObservation, bits: &mut [u64], confidence: &mut [f32]) {
        // `mean(j)` for every bit, as one division loop over the counters.
        let predicted_len = current.bit_count().min(confidence.len());
        let predicted = &mut confidence[..predicted_len];
        let counted = if self.total > 0 { predicted.len().min(self.ones.len()) } else { 0 };
        let total = self.total as f32;
        for (slot, &ones) in predicted[..counted].iter_mut().zip(&self.ones) {
            *slot = ones as f32 / total;
        }
        predicted[counted..].fill(0.5);
        pack_probabilities(confidence, bits);
    }

    fn reset(&mut self) {
        self.ones.fill(0);
        self.total = 0;
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        persist::put_u32(out, self.total);
        persist::put_u32_slice(out, &self.ones);
    }

    fn load_state(&mut self, reader: &mut Reader<'_>) -> Option<()> {
        let total = reader.u32()?;
        let ones = persist::u32_slice_exact(reader, self.ones.len())?;
        self.total = total;
        self.ones = ones;
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

    fn predict(p: &MeanPredictor, x: &PackedObservation) -> (Vec<u64>, Vec<f32>) {
        let mut bits = vec![0u64; packed_len(x.bit_count())];
        let mut confidence = vec![0.0f32; x.bit_count()];
        p.predict_block(x, &mut bits, &mut confidence);
        (bits, confidence)
    }

    #[test]
    fn converges_to_empirical_mean() {
        let mut p = MeanPredictor::new(1);
        let x = obs(&[false]);
        for i in 0..10 {
            p.observe_transition(&x, &obs(&[i % 4 == 0]), &[]); // 1 in 4 are 1
        }
        let (bits, confidence) = predict(&p, &x);
        assert!((confidence[0] - 0.3).abs() < 1e-6);
        assert_eq!(bits[0], 0);
    }

    #[test]
    fn unseen_bit_is_uncertain() {
        let p = MeanPredictor::new(2);
        let (bits, confidence) = predict(&p, &obs(&[false, false]));
        assert_eq!(confidence, vec![0.5, 0.5]);
        // 0.5 rounds up, matching the packed contract p >= 0.5.
        assert_eq!(bits[0], 0b11);
    }

    #[test]
    fn reset_forgets() {
        let mut p = MeanPredictor::new(1);
        let x = obs(&[true]);
        p.observe_transition(&x, &x, &[]);
        assert!(p.mean(0) > 0.9);
        p.reset();
        assert_eq!(p.mean(0), 0.5);
    }

    #[test]
    fn tolerates_wider_observations() {
        let mut p = MeanPredictor::new(1);
        let wide = obs(&[true, false, true]);
        p.observe_transition(&wide, &wide, &[]);
        assert!(p.mean(2) > 0.9);
        assert!(p.mean(1) < 0.1);
    }
}
