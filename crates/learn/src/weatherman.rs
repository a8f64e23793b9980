//! The `weatherman` predictor: tomorrow will be like today (§4.4.2).
//!
//! "The weatherman predictor predicts that the next value of each bit will be
//! its current value." It is the perfect predictor for the large class of
//! state bytes that change *rarely* between recognized-IP occurrences — the
//! minimum-energy tracker in the Ising kernel, saturated loop bounds, flags
//! that settle — which is exactly where Figure 3 shows it earning weight.
//!
//! The block port is the cheapest predictor by far: the packed rounded
//! prediction is a `memcpy` of the current packed bits.

use crate::features::PackedObservation;
use crate::traits::BlockPredictor;

/// Confidence assigned to the persistence prediction.
const CONFIDENCE: f32 = 0.9;

/// Predicts that each bit keeps its current value.
#[derive(Debug, Clone, Default)]
pub struct Weatherman;

impl BlockPredictor for Weatherman {
    fn name(&self) -> &'static str {
        "weatherman"
    }

    fn observe_transition(
        &mut self,
        _prev: &PackedObservation,
        _next: &PackedObservation,
        _predicted: &[f32],
    ) {
        // Stateless: persistence needs no training.
    }

    fn predict_block(&self, current: &PackedObservation, bits: &mut [u64], confidence: &mut [f32]) {
        // A caller sized for fewer bits than the observation (an ensemble
        // mid-arity-change; the other predictors tolerate it too) gets the
        // prefix rather than a slice panic.
        let words = bits.len().min(current.packed().len());
        bits[..words].copy_from_slice(&current.packed()[..words]);
        for (j, slot) in confidence.iter_mut().enumerate().take(current.bit_count()) {
            *slot = if (current.packed()[j / 64] >> (j % 64)) & 1 == 1 {
                CONFIDENCE
            } else {
                1.0 - CONFIDENCE
            };
        }
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::packed_len;

    fn predict(p: &Weatherman, x: &PackedObservation) -> (Vec<u64>, Vec<f32>) {
        let mut bits = vec![0u64; packed_len(x.bit_count())];
        let mut confidence = vec![0.0f32; x.bit_count()];
        p.predict_block(x, &mut bits, &mut confidence);
        (bits, confidence)
    }

    #[test]
    fn predicts_persistence() {
        let p = Weatherman;
        let x = PackedObservation::from_bits(&[true, false], vec![]);
        let (bits, confidence) = predict(&p, &x);
        assert_eq!(bits, x.packed());
        assert!(confidence[0] > 0.5);
        assert!(confidence[1] < 0.5);
    }
}
