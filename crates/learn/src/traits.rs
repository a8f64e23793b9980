//! The predictor interface (paper §4.4.1).
//!
//! Each predictor must implement `predict_block`, `observe_transition` and
//! `reset`. Predictors are free to extract whatever features they want from
//! the conditioning observation but must express their predictions at the
//! bit level — a packed rounded prediction plus one confidence per bit — so
//! the allocator can mix and match predictors per bit with the
//! regret-minimizing ensemble.
//!
//! The contract is *block-oriented* and *one pass per occurrence*: one
//! virtual call predicts every tracked bit, one trains every tracked bit,
//! and the per-bit work inside runs over flat `f32` arrays and packed `u64`
//! words. On-line learning is predict-then-train — the ensemble must score a
//! member's prediction for the transition before the member may learn from
//! it — so the forward pass has always already happened when training
//! starts. [`observe_transition`] therefore *receives* that forward pass (the
//! model's own block confidences for `prev`) instead of recomputing it:
//! there is exactly one training entry point and no second scoring pass
//! behind it.
//!
//! [`observe_transition`]: BlockPredictor::observe_transition

use crate::features::{ExcitationSchema, PackedObservation};
use crate::persist::Reader;

/// An online learner that predicts every bit of the next observation in one
/// block call.
///
/// The contract mirrors §4.4.1 of the paper, lifted to block granularity:
/// [`observe_transition`] folds one observed transition into the model
/// (training every bit), [`predict_block`] fills a packed rounded prediction
/// and a per-bit confidence buffer for the observation following `current`,
/// and [`reset`] discards the model (used when the recognizer abandons an
/// instruction pointer).
///
/// [`observe_transition`]: BlockPredictor::observe_transition
/// [`predict_block`]: BlockPredictor::predict_block
/// [`reset`]: BlockPredictor::reset
pub trait BlockPredictor: Send {
    /// Short name used in weight-matrix reports (Figure 3).
    fn name(&self) -> &'static str;

    /// Trains the model on one observed transition: every bit (and word) of
    /// `next` is a training target conditioned on `prev`.
    ///
    /// `predicted` is the forward pass the caller already made: the
    /// confidences this model's own [`predict_block`]`(prev, ..)` produced
    /// against its current, not-yet-trained state (at least
    /// `next.bit_count()` entries). Gradient learners take their error from
    /// it; models that do not need it ignore it.
    ///
    /// [`predict_block`]: BlockPredictor::predict_block
    fn observe_transition(
        &mut self,
        prev: &PackedObservation,
        next: &PackedObservation,
        predicted: &[f32],
    );

    /// Predicts the observation following `current`.
    ///
    /// `bits` receives the packed rounded prediction
    /// ([`packed_len`](crate::features::packed_len)`(bit_count)` words; tail
    /// bits must be left zero) and `confidence[j]` the probability in
    /// `[0, 1]` that tracked bit `j` will be 1. The rounded prediction must
    /// equal `confidence[j] >= 0.5` for every bit, so the ensemble can score
    /// mistakes by XOR-ing `bits` against the realised observation.
    fn predict_block(&self, current: &PackedObservation, bits: &mut [u64], confidence: &mut [f32]);

    /// Discards the learned model and starts from scratch.
    fn reset(&mut self);

    /// Appends the model's learned state to `out` (see
    /// [`persist`](crate::persist) for the wire vocabulary). Stateless
    /// predictors — and predictors cheap enough to simply re-warm after a
    /// crash — keep the default no-op; restoring then yields a freshly
    /// constructed model.
    ///
    /// The ensemble wraps whatever is written here in a length-prefixed run,
    /// so implementations need no terminator and may write nothing.
    fn save_state(&self, out: &mut Vec<u8>) {
        let _ = out;
    }

    /// Restores state written by [`save_state`](BlockPredictor::save_state)
    /// into a model constructed with the *same* configuration. Returns
    /// `None` when the bytes do not describe this model (wrong arity, wrong
    /// lengths, truncation) — the caller then discards the whole restore and
    /// re-warms instead; the model must be left in a usable (possibly
    /// partially overwritten, but never out-of-contract) state.
    fn load_state(&mut self, reader: &mut Reader<'_>) -> Option<()> {
        let _ = reader;
        Some(())
    }
}

/// Constructs the paper's default predictor complement for a given schema:
/// `mean`, `weatherman`, logistic regression and linear regression, one
/// instance each, for the ensemble to weigh per bit (§4.4.2).
pub fn default_predictors(schema: &ExcitationSchema) -> Vec<Box<dyn BlockPredictor>> {
    use crate::linear::LinearRegression;
    use crate::logistic::LogisticRegression;
    use crate::mean::MeanPredictor;
    use crate::weatherman::Weatherman;

    vec![
        Box::new(MeanPredictor::new(schema.bit_count)),
        Box::new(Weatherman::new()),
        Box::new(LogisticRegression::new(schema.bit_count, 0.5)),
        Box::new(LinearRegression::new(schema.clone(), 0.1)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_complement_has_four_predictors() {
        let schema = ExcitationSchema::new(1, vec![(0, 0), (0, 1)]);
        let predictors = default_predictors(&schema);
        let names: Vec<_> = predictors.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["mean", "weatherman", "logistic", "linear"]);
    }
}
