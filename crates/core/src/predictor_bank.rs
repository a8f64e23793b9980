//! The predictor bank: excitation tracking plus the learning ensemble, bound
//! to one recognized instruction pointer (§4.4).
//!
//! The bank is the runtime end of the packed prediction pipeline. One
//! occurrence is one scan of the state and one traversal of each learner:
//!
//! ```text
//!                  ┌─ retained previous state (clone_from, no allocation)
//! StateVector ─────┤
//!   │              └─ StateVector::diff_words_into ──▶ (word, xor) pairs
//!   │                   one word-wise scan                 │
//!   │                         ┌────────────────────────────┤
//!   │                         ▼                            ▼
//!   │        ExcitationTracker change counts     ExcitationMap::unmapped_changed_bits
//!   │        (one map lookup per changed word)   (merge vs tracked words → drift)
//!   │                         ▲                            ▲
//!   │   note_reads ──▶ ReadWords (optional) ───────────────┘
//!   │   (recognizer only: the map freezes over changed ∩ ever-read words,
//!   │    and only changes in read words count as drift)
//!   │
//!   └─ExcitationMap::observe_into──▶ PackedObservation (reused buffer)
//!       (one 32-bit read per tracked word)   │
//!                                            ├─ Ensemble::observe: forward pass
//!                                            │  on prev (kept from the last call,
//!                                            │  else predict_block per member) →
//!                                            │  XOR mistake masks →
//!                                            │  observe_transition(prev, next,
//!                                            │  that member's own confidences) →
//!                                            │  forward pass on next, kept
//!                                            └─ Ensemble::predict_ml_with ──▶
//!                                               packed ML block (reused scratch;
//!                                               the kept pass's vote when the
//!                                               observation is that `next`)
//!                                                     │
//!                     ExcitationMap::materialize ◀────┘
//!                     (patch tracked words onto the live state)
//! ```
//!
//! Each observation costs one forward pass. `Ensemble::observe` ends by
//! running every member on the observation it just trained towards and keeps
//! the result; the next `observe` (whose `prev` it is) and a `predict_next` or
//! depth-1 `rollout` from the same state reuse it, compared by value. The
//! kept pass is dropped by `Ensemble::reset` and `load_state`, and a rebuild
//! (warm-up or drift) builds a new ensemble without one; after
//! [`break_stream`](PredictorBank::break_stream) the next observation simply
//! does not match it.
//!
//! It first warms up an [`ExcitationTracker`] over the stream of occurrence
//! states to discover which bits actually change, then freezes an
//! [`ExcitationMap`] and instantiates the paper's four-learner ensemble
//! ([`default_predictors`]) over exactly those bits. Given a current state it
//! produces the maximum-likelihood predicted next state — and recursive
//! rollouts of it, chained in packed observation space through one set of
//! reused buffers so only the returned states are materialised — each a
//! *full* state vector built by patching only the tracked words: the paper's
//! sparsity argument made concrete.
//!
//! [`PredictorBank::observe`] is the one way to train a bank, for the
//! inline runtime, the planner thread and the recognizer alike. Each call
//! pays the scan above, so change counts, drift detection and ensemble
//! training always see the same consecutive pair of states. A caller that
//! *skipped* occurrences (a throttled or dropped planner event) says so with
//! [`PredictorBank::break_stream`] first, and the bank re-anchors instead of
//! training across the gap.
//!
//! A bank may additionally be told what supersteps from its IP *read*
//! ([`PredictorBank::note_reads`]). The recognizer's throw-away banks are:
//! they then model changed ∩ ever-read words, which is all a cache hit needs.
//! The runtime's, the planner's and the benchmark replay's banks are never
//! told and model every changed bit up to `max_excited_bits`.

use crate::config::AscConfig;
use crate::excitation::{ExcitationMap, ExcitationTracker};
use asc_learn::ensemble::{Ensemble, EnsembleErrors, PredictionScratch};
use asc_learn::features::PackedObservation;
use asc_learn::persist::{self, Reader};
use asc_learn::traits::default_predictors;
use asc_tvm::state::StateVector;

/// Multiplicative weight update applied to a predictor that mispredicts a
/// bit (the RWMA `beta`).
const ENSEMBLE_BETA: f64 = 0.5;
/// A bit must change at least this many times between occurrences of the
/// recognized IP to be treated as an excitation (the paper's default: once).
const EXCITATION_THRESHOLD: u32 = 1;
/// Number of occurrences used to warm up the excitation map before
/// predictors start training.
pub(crate) const EXCITATION_WARMUP: usize = 3;
/// How many observations of per-predictor mistake history the ensemble
/// retains (a ring buffer of packed mistake masks). Hindsight predictor
/// *selection* uses never-evicted cumulative counts; this bounds only the
/// window the Table-2 whole-state hindsight miss rate is measured over — and
/// bounds ensemble memory for arbitrarily long occurrence streams.
const MISTAKE_LOG_CAPACITY: usize = 4096;

/// A predicted future state together with its probability under the model.
#[derive(Debug, Clone)]
pub struct PredictedState {
    /// The materialised full state vector.
    pub state: StateVector,
    /// Natural log of the joint probability assigned by Eq. 2.
    pub log_probability: f64,
    /// How many supersteps ahead of the conditioning state this prediction is.
    pub depth: usize,
}

/// Excitation tracking + ensemble for one recognized IP.
pub struct PredictorBank {
    rip: u32,
    max_excited_bits: usize,
    /// The ensemble's mistake-log length; [`MISTAKE_LOG_CAPACITY`] outside
    /// tests.
    mistake_capacity: usize,
    tracker: ExcitationTracker,
    map: Option<ExcitationMap>,
    ensemble: Option<Ensemble>,
    /// Packed observations of the previous and the current occurrence. They
    /// swap roles after every occurrence, so neither is ever reallocated;
    /// `previous` is the training origin, meaningful only while `has_origin`.
    previous: PackedObservation,
    current: PackedObservation,
    /// Whether `previous` is the occurrence right before the next one. False
    /// when the stream just started, was severed or restored, or the
    /// ensemble was rebuilt. While true, the tracker's retained state *is*
    /// the previous state, so the diff its scan leaves behind serves the
    /// drift check too.
    has_origin: bool,
    observations: u64,
    /// Consecutive occurrences whose changes fell substantially outside the
    /// frozen map.
    drift: u32,
    /// Observation count at the last ensemble (re)build, for rate limiting.
    last_rebuild: u64,
}

impl std::fmt::Debug for PredictorBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictorBank")
            .field("rip", &self.rip)
            .field("observations", &self.observations)
            .field("excited_bits", &self.excited_bits())
            .field("ready", &self.is_ready())
            .finish()
    }
}

impl PredictorBank {
    /// Creates a bank for occurrences of `rip` with the given configuration.
    pub fn new(rip: u32, config: &AscConfig) -> Self {
        PredictorBank {
            rip,
            max_excited_bits: config.max_excited_bits.max(32),
            mistake_capacity: MISTAKE_LOG_CAPACITY,
            tracker: ExcitationTracker::new(EXCITATION_THRESHOLD),
            map: None,
            ensemble: None,
            previous: PackedObservation::default(),
            current: PackedObservation::default(),
            has_origin: false,
            observations: 0,
            drift: 0,
            last_rebuild: 0,
        }
    }

    /// The recognized IP this bank models.
    pub fn rip(&self) -> u32 {
        self.rip
    }

    /// Whether the excitation map has been frozen and the ensemble built.
    pub fn is_ready(&self) -> bool {
        self.ensemble.is_some()
    }

    /// Number of excitation bits currently modelled (0 before readiness).
    pub fn excited_bits(&self) -> usize {
        self.map.as_ref().map(|m| m.bit_count()).unwrap_or(0)
    }

    /// Number of occurrence states observed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Number of distinct bits seen to change between occurrences, modelled
    /// or not (compare [`excited_bits`](PredictorBank::excited_bits)).
    pub fn changed_bits(&self) -> usize {
        self.tracker.changed_bits()
    }

    /// Tells the bank the read set (state byte positions) of a superstep that
    /// started at its IP. From the first noted read on, the warm-up build and
    /// every drift rebuild freeze the map over changed ∩ ever-read words, and
    /// only changes in read words count towards drift. Noted reads are not
    /// part of [`save_state`](PredictorBank::save_state).
    pub fn note_reads(&mut self, positions: impl IntoIterator<Item = u32>) {
        self.tracker.note_reads(positions);
    }

    /// Error statistics of the ensemble, if it has been built.
    pub fn errors(&self) -> Option<EnsembleErrors> {
        self.ensemble.as_ref().map(|e| e.errors())
    }

    /// The ensemble's windowed whole-state error rate (the
    /// [`EnsembleErrors::recent_error_rate`] signal) without computing the
    /// full Table-2 statistics — O(1), safe on the per-occurrence hot path.
    /// `None` until the ensemble is built. The dispatch economics consume
    /// this as their model-accuracy signal.
    pub fn recent_error_rate(&self) -> Option<f64> {
        self.ensemble.as_ref().map(|e| e.recent_error_rate())
    }

    /// The Figure-3 weight matrix: predictor names and per-bit normalised
    /// weights, if the ensemble has been built.
    pub fn weight_matrix(&self) -> Option<(Vec<&'static str>, Vec<Vec<f64>>)> {
        self.ensemble.as_ref().map(|e| (e.predictor_names(), e.weight_matrix()))
    }

    /// Instantiates the predictor complement over a frozen map's schema —
    /// shared by the warm-up build, drift rebuilds and checkpoint restores
    /// (which must reproduce exactly the ensemble the save saw).
    fn make_ensemble(&self, map: &ExcitationMap) -> Ensemble {
        let predictors = default_predictors(map.schema());
        Ensemble::new(predictors, map.bit_count(), ENSEMBLE_BETA, self.mistake_capacity)
    }

    fn build_ensemble(&mut self) {
        if let Some(map) = self.tracker.build_map_with_limit(self.max_excited_bits) {
            self.ensemble = Some(self.make_ensemble(&map));
            self.map = Some(map);
            self.has_origin = false;
            self.drift = 0;
            self.last_rebuild = self.observations;
        }
    }

    /// Appends the bank's full learned state — tracker statistics, the frozen
    /// excitation map (as its tracked bit indices) and the ensemble blob — to
    /// `out`. The `previous` transition origin is *not* saved: a restore
    /// behaves like [`break_stream`](PredictorBank::break_stream), costing
    /// one training transition.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        persist::put_u32(out, self.rip);
        persist::put_u64(out, self.observations);
        persist::put_u32(out, self.drift);
        persist::put_u64(out, self.last_rebuild);
        let mut tracker_blob = Vec::new();
        self.tracker.save_state(&mut tracker_blob);
        persist::put_bytes(out, &tracker_blob);
        match &self.map {
            Some(map) => {
                persist::put_u32(out, 1);
                persist::put_usize(out, map.bit_indices().len());
                for &bit in map.bit_indices() {
                    persist::put_usize(out, bit);
                }
            }
            None => persist::put_u32(out, 0),
        }
        match &self.ensemble {
            Some(ensemble) => {
                persist::put_u32(out, 1);
                let mut blob = Vec::new();
                ensemble.save_state(&mut blob);
                persist::put_bytes(out, &blob);
            }
            None => persist::put_u32(out, 0),
        }
    }

    /// Restores state written by [`save_state`](PredictorBank::save_state)
    /// into a bank freshly constructed from the *same* configuration and
    /// RIP. Returns `None` (bank left fit only for discarding — the caller
    /// re-warms with a fresh bank) on any mismatch, truncation or malformed
    /// bytes.
    pub fn load_state(&mut self, reader: &mut Reader<'_>) -> Option<()> {
        if reader.u32()? != self.rip {
            return None;
        }
        let observations = reader.u64()?;
        let drift = reader.u32()?;
        let last_rebuild = reader.u64()?;
        let tracker_blob = reader.bytes()?;
        let mut tracker_reader = Reader::new(tracker_blob);
        self.tracker.load_state(&mut tracker_reader)?;
        if !tracker_reader.is_empty() {
            return None;
        }
        let map = match reader.u32()? {
            0 => None,
            1 => {
                let count = reader.usize()?;
                if count > reader.remaining() / 8 {
                    return None;
                }
                let mut bits = Vec::with_capacity(count);
                for _ in 0..count {
                    bits.push(reader.usize()?);
                }
                // `ExcitationMap::new` expands to aligned words; the saved
                // indices are already expanded, so this is idempotent and
                // reproduces the frozen map exactly.
                Some(ExcitationMap::new(bits))
            }
            _ => return None,
        };
        let ensemble = match reader.u32()? {
            0 => None,
            1 => {
                let map = map.as_ref()?;
                let mut ensemble = self.make_ensemble(map);
                let blob = reader.bytes()?;
                let mut blob_reader = Reader::new(blob);
                ensemble.load_state(&mut blob_reader)?;
                if !blob_reader.is_empty() {
                    return None;
                }
                Some(ensemble)
            }
            _ => return None,
        };
        self.observations = observations;
        self.drift = drift;
        self.last_rebuild = last_rebuild;
        self.map = map;
        self.ensemble = ensemble;
        self.has_origin = false;
        Some(())
    }

    /// Folds in the state at a new occurrence of the recognized IP, training
    /// the ensemble on the transition from the previous occurrence.
    pub fn observe(&mut self, state: &StateVector) {
        self.observations += 1;
        // The one full-state scan of this occurrence: it updates the change
        // counts and leaves the word-level diff behind for the drift check.
        self.tracker.observe(state);

        if self.ensemble.is_none() {
            if self.tracker.observations() > EXCITATION_WARMUP {
                self.build_ensemble();
            }
            if self.ensemble.is_none() {
                return;
            }
        }

        let map = self.map.as_ref().expect("ensemble implies map");
        map.observe_into(state, &mut self.current);
        if self.has_origin {
            // Detect drift: *substantial* changes outside the frozen map mean the
            // program moved to a new phase; rebuild from the (still accumulating)
            // tracker. A handful of unmapped bits per superstep — the freshly
            // written output cell of a kernel like 2mm, which no later superstep
            // reads — is expected and must not trigger a rebuild; a bank that
            // knows its read words does not count such cells at all.
            let unmapped_changed_bits =
                map.unmapped_changed_bits(self.tracker.last_diff(), self.tracker.read_words());
            if unmapped_changed_bits > 64 {
                self.drift += 1;
            } else {
                self.drift = 0;
            }
            let rebuild_allowed =
                self.observations >= self.last_rebuild + (EXCITATION_WARMUP as u64 + 8);
            if self.drift >= 3 && rebuild_allowed {
                // The paper's recognizer calls reset() on its predictors when
                // program behaviour changes; rebuilding widens the map to the
                // newly excited bits. This state becomes the new map's first
                // training origin.
                self.build_ensemble();
                let map = self.map.as_ref().expect("rebuild keeps a map");
                map.observe_into(state, &mut self.current);
            } else {
                let ensemble = self.ensemble.as_mut().expect("checked above");
                ensemble.observe(&self.previous, &self.current);
            }
        }
        std::mem::swap(&mut self.previous, &mut self.current);
        self.has_origin = true;
    }

    /// Severs the training stream: the next [`observe`] records its state as
    /// the new transition origin without training on, or checking drift
    /// across, the gap it follows. Called when the occurrence stream skipped
    /// states (a throttled or dropped occurrence): the transition across such
    /// a gap spans several supersteps, and training on it would teach the
    /// ensemble a variable-stride successor function.
    ///
    /// [`observe`]: PredictorBank::observe
    pub fn break_stream(&mut self) {
        self.has_origin = false;
    }

    /// Predicts the state at the next occurrence of the RIP, conditioned on
    /// `state`. Returns `None` until the ensemble is ready.
    pub fn predict_next(&self, state: &StateVector) -> Option<PredictedState> {
        let (map, ensemble) = (self.map.as_ref()?, self.ensemble.as_ref()?);
        let observation = map.observe(state);
        let (block, log_probability) = ensemble.predict_ml(&observation);
        Some(PredictedState { state: map.materialize(state, &block), log_probability, depth: 1 })
    }

    /// Whether `predicted` agrees with `actual` on every modelled excitation
    /// bit. This is the accuracy criterion the recognizer uses when scoring
    /// candidate IPs: bits outside the model (for example freshly written
    /// output cells that no later superstep reads) do not count against a
    /// prediction, mirroring how the trajectory cache only requires matches
    /// on an entry's read set.
    pub fn prediction_matches(&self, predicted: &StateVector, actual: &StateVector) -> bool {
        match &self.map {
            Some(map) => map.states_agree(predicted, actual),
            None => predicted == actual,
        }
    }

    /// Rolls predictions out `depth` supersteps into the future by feeding
    /// each predicted block back into the model (§4.5.2). The chain advances
    /// in packed observation space — only the returned states pay for
    /// materialisation, and each is the anchor state with just the tracked
    /// words patched. Entry `k-1` of the result is the prediction `k`
    /// supersteps ahead; log-probabilities are cumulative along the chain.
    pub fn rollout(&self, state: &StateVector, depth: usize) -> Vec<PredictedState> {
        let mut results = Vec::with_capacity(depth);
        let (Some(map), Some(ensemble)) = (self.map.as_ref(), self.ensemble.as_ref()) else {
            return results;
        };
        // One observation and one prediction scratch serve the whole chain.
        let mut observation = map.observe(state);
        let mut scratch = PredictionScratch::default();
        let mut cumulative_log_probability = 0.0;
        for k in 1..=depth {
            cumulative_log_probability += ensemble.predict_ml_with(&observation, &mut scratch);
            results.push(PredictedState {
                state: map.materialize(state, scratch.bits()),
                log_probability: cumulative_log_probability,
                depth: k,
            });
            map.observation_from_packed_into(scratch.bits(), &mut observation);
        }
        results
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use asc_asm::assemble;
    use asc_tvm::machine::Machine;
    use asc_tvm::program::Program;

    /// A counting loop: at the loop head, r1 decrements and r2 accumulates by
    /// a constant, so the excitations are exactly predictable.
    fn counting_program(iterations: i32) -> (Program, u32) {
        let program = assemble(&format!(
            r#"
            main:
                movi r1, {iterations}
                movi r2, 0
            loop:
                add  r2, r2, 3
                sub  r1, r1, 1
                cmpi r1, 0
                jne  loop
                halt
            "#
        ))
        .unwrap();
        let rip = program.symbol("loop").unwrap();
        (program, rip)
    }

    fn occurrence_states(program: &Program, rip: u32, count: usize) -> Vec<StateVector> {
        let mut machine = Machine::load(program).unwrap();
        let mut states = Vec::new();
        for _ in 0..count {
            let (_, _) = machine.run_until_ip(rip, 1_000_000).unwrap();
            if machine.is_halted() {
                break;
            }
            states.push(machine.state().clone());
        }
        states
    }

    #[test]
    fn bank_becomes_ready_and_predicts_exactly() {
        let (program, rip) = counting_program(200);
        let states = occurrence_states(&program, rip, 40);
        let config = AscConfig::for_tests();
        let mut bank = PredictorBank::new(rip, &config);
        for state in &states[..30] {
            bank.observe(state);
        }
        assert!(bank.is_ready());
        assert!(bank.excited_bits() > 0);
        // Prediction from occurrence 30 should equal occurrence 31 exactly.
        let predicted = bank.predict_next(&states[30]).unwrap();
        assert_eq!(predicted.state, states[31]);
        assert!(predicted.log_probability <= 0.0);
    }

    #[test]
    fn rollout_chains_predictions() {
        let (program, rip) = counting_program(200);
        let states = occurrence_states(&program, rip, 50);
        let config = AscConfig::for_tests();
        let mut bank = PredictorBank::new(rip, &config);
        for state in &states[..35] {
            bank.observe(state);
        }
        let rollout = bank.rollout(&states[35], 5);
        assert_eq!(rollout.len(), 5);
        for (k, predicted) in rollout.iter().enumerate() {
            assert_eq!(predicted.depth, k + 1);
            assert_eq!(predicted.state, states[35 + k + 1], "rollout depth {} wrong", k + 1);
        }
        // Cumulative probability must be non-increasing with depth.
        for pair in rollout.windows(2) {
            assert!(pair[1].log_probability <= pair[0].log_probability + 1e-9);
        }
    }

    #[test]
    fn not_ready_before_warmup() {
        let (program, rip) = counting_program(50);
        let states = occurrence_states(&program, rip, 3);
        let config = AscConfig::for_tests();
        let mut bank = PredictorBank::new(rip, &config);
        bank.observe(&states[0]);
        assert!(!bank.is_ready());
        assert!(bank.predict_next(&states[0]).is_none());
        assert!(bank.rollout(&states[0], 3).is_empty());
    }

    #[test]
    fn errors_reflect_learning_quality() {
        let (program, rip) = counting_program(300);
        let states = occurrence_states(&program, rip, 120);
        let config = AscConfig::for_tests();
        let mut bank = PredictorBank::new(rip, &config);
        for state in &states {
            bank.observe(state);
        }
        let errors = bank.errors().unwrap();
        assert!(errors.total_predictions > 50);
        // The loop is exactly learnable, so the ensemble should settle down to
        // a low state-level error rate (early mistakes included).
        assert!(errors.actual_error_rate < 0.5, "{errors:?}");
        assert!(errors.hindsight_optimal_error_rate <= errors.equal_weight_error_rate + 1e-9);
        let (names, matrix) = bank.weight_matrix().unwrap();
        assert_eq!(names.len(), 4);
        assert_eq!(matrix.len(), bank.excited_bits());
    }

    #[test]
    fn save_load_roundtrip_predicts_identically() {
        let (program, rip) = counting_program(300);
        let states = occurrence_states(&program, rip, 80);
        let config = AscConfig::for_tests();
        let mut trained = PredictorBank::new(rip, &config);
        for state in &states[..60] {
            trained.observe(state);
        }
        assert!(trained.is_ready());
        let mut bytes = Vec::new();
        trained.save_state(&mut bytes);

        let mut restored = PredictorBank::new(rip, &config);
        let mut reader = asc_learn::persist::Reader::new(&bytes);
        restored.load_state(&mut reader).expect("roundtrip must restore");
        assert!(reader.is_empty());
        assert!(restored.is_ready());
        assert_eq!(restored.observations(), trained.observations());
        assert_eq!(restored.excited_bits(), trained.excited_bits());
        assert_eq!(restored.errors(), trained.errors());

        let from_trained = trained.predict_next(&states[60]).unwrap();
        let from_restored = restored.predict_next(&states[60]).unwrap();
        assert_eq!(from_restored.state, from_trained.state);
        assert_eq!(from_restored.log_probability, from_trained.log_probability);

        // A restore breaks the training stream (like break_stream): the first
        // observe re-anchors, then both banks keep learning identically.
        trained.break_stream();
        for state in &states[60..] {
            trained.observe(state);
            restored.observe(state);
        }
        let last = states.last().unwrap();
        let a = trained.rollout(last, 4);
        let b = restored.rollout(last, 4);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.state, y.state);
            assert_eq!(x.log_probability, y.log_probability);
        }
    }

    #[test]
    fn predictions_after_observe_match_a_cold_restore() {
        // Chaotic occurrence states (the logistic map's outer-loop head), so
        // the predictions differ from one occurrence to the next.
        use asc_workloads::registry::{build, Benchmark, Scale};
        let workload = build(Benchmark::LogisticMap, Scale::Tiny).unwrap();
        let rip = workload.program.symbol("outer").unwrap();
        let states = occurrence_states(&workload.program, rip, 40);
        let config = AscConfig::for_tests();
        let mut bank = PredictorBank::new(rip, &config);
        let mut compared = 0;
        for state in &states {
            bank.observe(state);
            if !bank.is_ready() {
                continue;
            }
            // `bank` predicts from the forward pass its last observe ran
            // ahead; the restored bank has none and recomputes.
            let mut bytes = Vec::new();
            bank.save_state(&mut bytes);
            let mut restored = PredictorBank::new(rip, &config);
            restored.load_state(&mut asc_learn::persist::Reader::new(&bytes)).unwrap();
            let (hot, cold) =
                (bank.predict_next(state).unwrap(), restored.predict_next(state).unwrap());
            assert_eq!(hot.state, cold.state);
            assert_eq!(hot.log_probability.to_bits(), cold.log_probability.to_bits());
            let (hot, cold) = (bank.rollout(state, 3), restored.rollout(state, 3));
            assert_eq!(hot.len(), 3);
            for (x, y) in hot.iter().zip(&cold) {
                assert_eq!(x.state, y.state);
                assert_eq!(x.log_probability.to_bits(), y.log_probability.to_bits());
            }
            compared += 1;
        }
        assert!(compared > 30, "{compared}");
    }

    #[test]
    fn load_rejects_wrong_rip_and_truncation() {
        let (program, rip) = counting_program(200);
        let states = occurrence_states(&program, rip, 40);
        let config = AscConfig::for_tests();
        let mut trained = PredictorBank::new(rip, &config);
        for state in &states {
            trained.observe(state);
        }
        let mut bytes = Vec::new();
        trained.save_state(&mut bytes);

        let mut wrong_rip = PredictorBank::new(rip + 4, &config);
        assert!(wrong_rip.load_state(&mut asc_learn::persist::Reader::new(&bytes)).is_none());

        for cut in (0..bytes.len()).step_by(7) {
            let mut fresh = PredictorBank::new(rip, &config);
            assert!(
                fresh.load_state(&mut asc_learn::persist::Reader::new(&bytes[..cut])).is_none(),
                "truncation at {cut} must not restore"
            );
        }
    }

    #[test]
    fn mistake_history_stays_bounded() {
        let (program, rip) = counting_program(600);
        let states = occurrence_states(&program, rip, 200);
        let mut bank = PredictorBank::new(rip, &AscConfig::for_tests());
        bank.mistake_capacity = 16;
        for state in &states {
            bank.observe(state);
        }
        let errors = bank.errors().unwrap();
        // Full-history counters keep counting far past the 16-observation
        // mistake window; the windowed hindsight rate stays well-formed.
        assert!(errors.total_predictions > 100, "{errors:?}");
        assert!(errors.hindsight_optimal_error_rate <= 1.0);
    }

    /// `a[i] = f(i)`: every iteration stores one fresh, never-read output
    /// cell; one superstep is eight iterations (~128 freshly changed bits).
    fn fresh_output_program() -> (Program, u32) {
        let program = assemble(
            r#"
            main:
                movi r1, 0
                movi r2, out
            loop:
                mul  r3, r1, 2654435761
                stw  [r2], r3
                add  r2, r2, 4
                add  r1, r1, 1
                cmpi r1, 4000
                jlt  loop
                halt
            .data
            out:
                .space 16000
            "#,
        )
        .unwrap();
        let rip = program.symbol("loop").unwrap();
        (program, rip)
    }

    #[test]
    fn read_targeted_bank_stays_bounded_on_a_write_once_output_stream() {
        const STRIDE: usize = 8;
        let (program, rip) = fresh_output_program();
        let states: Vec<StateVector> =
            occurrence_states(&program, rip, 240 * STRIDE).into_iter().step_by(STRIDE).collect();
        assert!(states.len() >= 200, "{} occurrences", states.len());
        let config = AscConfig { max_excited_bits: 256, ..AscConfig::for_tests() };
        let mut told = PredictorBank::new(rip, &config);
        let mut untold = PredictorBank::new(rip, &config);
        let mut changed_at = Vec::new();
        for (i, state) in states.iter().enumerate() {
            if !told.is_ready() {
                // What the recognizer does while a bank warms up.
                let probe = crate::speculator::execute_superstep(state, rip, STRIDE, 10_000)
                    .unwrap()
                    .completed()
                    .unwrap();
                assert!(probe.reached_rip);
                told.note_reads(probe.entry.start.positions());
            }
            told.observe(state);
            if i < 40 {
                // Wide banks are slow; the first drift rebuild is all it takes.
                untold.observe(state);
            }
            if i == 50 || i == 100 || i == 200 {
                changed_at.push(told.changed_bits());
            }
        }
        // The tracker keeps seeing the output cells: changed bits grow by a
        // steady amount per occurrence...
        let (first, second) = (changed_at[1] - changed_at[0], changed_at[2] - changed_at[1]);
        assert!(first > 50 * 64 && second > first, "{changed_at:?}");
        // ...but the bank models only the counter and the output pointer, and
        // never mistakes a fresh cell for a phase change.
        assert!(told.is_ready());
        assert_eq!(told.excited_bits(), 64, "counter + pointer");
        assert_eq!(told.last_rebuild, EXCITATION_WARMUP as u64 + 1, "no drift rebuild fired");
        // Never told, the bank is today's: it drifts after the cells and
        // rebuilds, up to the cap, to a map that includes them.
        assert!(untold.last_rebuild > told.last_rebuild);
        assert!(untold.excited_bits() > 32 * 16, "{}", untold.excited_bits());
        // What the read-targeted bank predicts is what a superstep needs: a
        // superstep speculated from its prediction matches the real next
        // state on its read set.
        let n = states.len();
        let predicted = told.predict_next(&states[n - 2]).unwrap();
        let entry = crate::speculator::execute_superstep(&predicted.state, rip, STRIDE, 10_000)
            .unwrap()
            .completed()
            .unwrap()
            .entry;
        assert!(entry.matches(&states[n - 1]));
        assert_ne!(predicted.state, states[n - 1], "the stale output cells are not modelled");
    }

    #[test]
    fn never_told_bank_wire_form_has_no_read_set_section() {
        // The checkpoint's predictor section is this blob; its layout is the
        // parent commit's — rip, counters, tracker blob, map, ensemble blob —
        // and noting reads adds nothing to it.
        let (program, rip) = counting_program(200);
        let states = occurrence_states(&program, rip, 40);
        let config = AscConfig::for_tests();
        let mut bank = PredictorBank::new(rip, &config);
        for state in &states {
            bank.observe(state);
        }
        let mut bytes = Vec::new();
        bank.save_state(&mut bytes);

        let mut expected = Vec::new();
        persist::put_u32(&mut expected, rip);
        persist::put_u64(&mut expected, bank.observations);
        persist::put_u32(&mut expected, bank.drift);
        persist::put_u64(&mut expected, bank.last_rebuild);
        let mut blob = Vec::new();
        bank.tracker.save_state(&mut blob);
        persist::put_bytes(&mut expected, &blob);
        let map = bank.map.as_ref().unwrap();
        persist::put_u32(&mut expected, 1);
        persist::put_usize(&mut expected, map.bit_indices().len());
        for &bit in map.bit_indices() {
            persist::put_usize(&mut expected, bit);
        }
        persist::put_u32(&mut expected, 1);
        blob.clear();
        bank.ensemble.as_ref().unwrap().save_state(&mut blob);
        persist::put_bytes(&mut expected, &blob);
        assert_eq!(bytes, expected);

        bank.note_reads([0, 4, 8]);
        let mut told = Vec::new();
        bank.save_state(&mut told);
        assert_eq!(told, bytes);
    }

    /// The parent commit's `observe` scan, kept verbatim as test-only
    /// reference code: byte-at-a-time full-state diffs into fresh vectors,
    /// one `BTreeMap<bit, count>` insert per changed bit, a per-bit
    /// `binary_search` over the map's bit indices for drift, and a fresh
    /// state clone per retained "previous". The one-scan bank must be
    /// indistinguishable from it.
    struct ReferenceScanBank {
        max_excited_bits: usize,
        change_counts: std::collections::BTreeMap<usize, u32>,
        tracker_previous: Option<StateVector>,
        tracker_observations: usize,
        map: Option<ExcitationMap>,
        ensemble: Option<Ensemble>,
        previous: Option<(StateVector, PackedObservation)>,
        observations: u64,
        drift: u32,
        last_rebuild: u64,
    }

    fn diff_bytes(a: &StateVector, b: &StateVector) -> Vec<usize> {
        let pairs = a.as_bytes().iter().zip(b.as_bytes().iter()).enumerate();
        pairs.filter_map(|(i, (x, y))| if x != y { Some(i) } else { None }).collect()
    }

    impl ReferenceScanBank {
        fn new(config: &AscConfig) -> Self {
            ReferenceScanBank {
                max_excited_bits: config.max_excited_bits.max(32),
                change_counts: std::collections::BTreeMap::new(),
                tracker_previous: None,
                tracker_observations: 0,
                map: None,
                ensemble: None,
                previous: None,
                observations: 0,
                drift: 0,
                last_rebuild: 0,
            }
        }

        fn tracker_observe(&mut self, state: &StateVector) {
            if let Some(previous) = &self.tracker_previous {
                for byte_index in diff_bytes(previous, state) {
                    let changed = previous.byte(byte_index) ^ state.byte(byte_index);
                    for bit in 0..8 {
                        if changed & (1 << bit) != 0 {
                            *self.change_counts.entry(byte_index * 8 + bit).or_insert(0) += 1;
                        }
                    }
                }
            }
            self.tracker_previous = Some(state.clone());
            self.tracker_observations += 1;
        }

        fn build_ensemble(&mut self) {
            let mut qualifying: Vec<(usize, u32)> = self
                .change_counts
                .iter()
                .filter(|(_, count)| **count >= EXCITATION_THRESHOLD)
                .map(|(bit, count)| (*bit, *count))
                .collect();
            if qualifying.is_empty() {
                return;
            }
            if qualifying.len() > self.max_excited_bits {
                qualifying.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                qualifying.truncate(self.max_excited_bits);
            }
            let map = ExcitationMap::new(qualifying.into_iter().map(|(bit, _)| bit).collect());
            self.ensemble = Some(Ensemble::new(
                default_predictors(map.schema()),
                map.bit_count(),
                ENSEMBLE_BETA,
                MISTAKE_LOG_CAPACITY,
            ));
            self.map = Some(map);
            self.previous = None;
            self.drift = 0;
            self.last_rebuild = self.observations;
        }

        fn observe(&mut self, state: &StateVector) {
            self.observations += 1;
            self.tracker_observe(state);
            if self.ensemble.is_none() {
                if self.tracker_observations > EXCITATION_WARMUP {
                    self.build_ensemble();
                }
                if self.ensemble.is_none() {
                    return;
                }
            }
            let map = self.map.as_ref().unwrap();
            let observation = map.observe(state);
            if let Some((previous_state, previous_observation)) = &self.previous {
                let unmapped_changed_bits: usize = diff_bytes(previous_state, state)
                    .iter()
                    .map(|&byte| {
                        (0..8)
                            .filter(|bit| {
                                let index = byte * 8 + bit;
                                (previous_state.bit(index) != state.bit(index))
                                    && map.bit_indices().binary_search(&index).is_err()
                            })
                            .count()
                    })
                    .sum();
                if unmapped_changed_bits > 64 {
                    self.drift += 1;
                } else {
                    self.drift = 0;
                }
                let rebuild_allowed =
                    self.observations >= self.last_rebuild + (EXCITATION_WARMUP as u64 + 8);
                if self.drift >= 3 && rebuild_allowed {
                    self.build_ensemble();
                    let observation = self.map.as_ref().unwrap().observe(state);
                    self.previous = Some((state.clone(), observation));
                    return;
                }
                self.ensemble.as_mut().unwrap().observe(previous_observation, &observation);
            }
            self.previous = Some((state.clone(), observation));
        }

        fn rollout(&self, state: &StateVector, depth: usize) -> Vec<(StateVector, f64)> {
            let (Some(map), Some(ensemble)) = (self.map.as_ref(), self.ensemble.as_ref()) else {
                return Vec::new();
            };
            let mut results = Vec::new();
            let mut observation = map.observe(state);
            let mut cumulative = 0.0;
            for _ in 0..depth {
                let (block, log_probability) = ensemble.predict_ml(&observation);
                cumulative += log_probability;
                results.push((map.materialize(state, &block), cumulative));
                let words = (0..map.word_count())
                    .map(|w| (block[w / 2] >> (32 * (w % 2))) as u32)
                    .collect();
                observation = PackedObservation::new(block, map.bit_count(), words);
            }
            results
        }
    }

    /// How each occurrence of an equivalence trace is fed to the two banks.
    #[derive(Clone, Copy)]
    enum Feed {
        Full,
        /// The planner's pattern when events go missing: the stream severed
        /// every 23rd occurrence.
        Planner,
    }

    /// Drives the one-scan bank and the reference scan over `states` in
    /// lock step; returns the rebuild ordinals they agreed on.
    fn assert_equivalent(
        name: &str,
        states: &[StateVector],
        config: &AscConfig,
        feed: Feed,
    ) -> Vec<u64> {
        let mut bank = PredictorBank::new(0, config);
        let mut reference = ReferenceScanBank::new(config);
        let mut rebuilds = Vec::new();
        for (i, state) in states.iter().enumerate() {
            if matches!(feed, Feed::Planner) && i % 23 == 22 {
                bank.break_stream();
                reference.previous = None;
            }
            bank.observe(state);
            reference.observe(state);
            let at = format!("{name} occurrence {i}");
            assert_eq!(bank.map, reference.map, "{at}: excitation map");
            assert_eq!(bank.drift, reference.drift, "{at}: drift count");
            assert_eq!(bank.last_rebuild, reference.last_rebuild, "{at}: rebuild ordinal");
            if rebuilds.last() != Some(&bank.last_rebuild) && bank.is_ready() {
                rebuilds.push(bank.last_rebuild);
            }
            assert_eq!(
                bank.errors(),
                reference.ensemble.as_ref().map(|e| e.errors()),
                "{at}: ensemble errors"
            );
            // Rollouts are compared on a stride (each costs a few full-state
            // clones) and always right after a rebuild.
            if i % 7 == 0 || rebuilds.last() == Some(&bank.observations()) {
                let predicted = bank.rollout(state, 3);
                let expected = reference.rollout(state, 3);
                assert_eq!(predicted.len(), expected.len(), "{at}: rollout length");
                for (k, (got, want)) in predicted.iter().zip(&expected).enumerate() {
                    assert_eq!(got.state, want.0, "{at}: rollout state at depth {}", k + 1);
                    assert_eq!(got.log_probability, want.1, "{at}: rollout log-probability");
                }
            }
        }
        let mut bytes = Vec::new();
        bank.tracker.save_state(&mut bytes);
        let mut expected = Vec::new();
        persist::put_u32(&mut expected, EXCITATION_THRESHOLD);
        persist::put_usize(&mut expected, reference.tracker_observations);
        persist::put_usize(&mut expected, reference.change_counts.len());
        for (&bit, &count) in &reference.change_counts {
            persist::put_usize(&mut expected, bit);
            persist::put_u32(&mut expected, count);
        }
        assert_eq!(bytes, expected, "{name}: tracker statistics (wire form)");
        rebuilds
    }

    /// Occurrence states of a registry workload at the IP (and stride) its
    /// own recognizer run selects, recorded from the initial state.
    fn workload_trace(
        benchmark: asc_workloads::registry::Benchmark,
        limit: usize,
    ) -> Vec<StateVector> {
        use asc_workloads::registry::{build, Scale};
        let workload = build(benchmark, Scale::Tiny).unwrap();
        let config = AscConfig::for_tests();
        let initial = workload.program.initial_state().unwrap();
        let outcome = crate::recognizer::recognize(&initial, &config).unwrap();
        // Record from the program's start, not from where recognition
        // stopped: Tiny programs are mostly over by then, and the
        // initialisation phase is exactly what provokes drift.
        let mut machine = Machine::from_state(initial);
        let mut states = Vec::new();
        'trace: while states.len() < limit {
            for _ in 0..outcome.rip.stride {
                machine.run_until_ip(outcome.rip.ip, 10_000_000).unwrap();
                if machine.is_halted() {
                    break 'trace;
                }
            }
            states.push(machine.state().clone());
        }
        states
    }

    /// A synthetic two-phase trace: a few words count for 40 occurrences,
    /// then a disjoint region of a dozen words starts churning — more than
    /// 64 unmapped bits per occurrence, so the drift detector must rebuild.
    /// The planner's tests feed it through a whole planner thread too.
    pub(crate) fn phase_change_trace() -> Vec<StateVector> {
        let mut state = StateVector::new(4096 + 3).unwrap(); // odd length: partial tail word
        let mut states = Vec::new();
        for i in 0..90u32 {
            state.store_word(0, i).unwrap();
            state.store_word(4, 0x1_0000 + i * 132).unwrap();
            state.store_word(64, if i % 2 == 0 { 0x0F0F_0F0F } else { 0xF0F0_F0F0 }).unwrap();
            if i >= 40 {
                for w in 0..12u32 {
                    let value =
                        (i.wrapping_mul(0x9E37_79B9) ^ w.wrapping_mul(0x85EB_CA6B)).rotate_left(w);
                    state.store_word(1024 + w * 4, value).unwrap();
                }
                state.store_byte(4096 + 2, i as u8).unwrap();
            }
            states.push(state.clone());
        }
        states
    }

    #[test]
    fn one_scan_observe_is_equivalent_to_the_reference_scan_on_every_benchmark() {
        let config = AscConfig::for_tests();
        for benchmark in asc_workloads::registry::Benchmark::ALL {
            let states = workload_trace(benchmark, 160);
            assert!(states.len() > 20, "{benchmark}: trace too short ({})", states.len());
            assert_equivalent(benchmark.name(), &states, &config, Feed::Full);
            assert_equivalent(benchmark.name(), &states, &config, Feed::Planner);
        }
    }

    #[test]
    fn one_scan_observe_rebuilds_on_drift_exactly_like_the_reference_scan() {
        let config = AscConfig::for_tests();
        let states = phase_change_trace();
        let rebuilds = assert_equivalent("phase-change", &states, &config, Feed::Full);
        assert!(rebuilds.len() >= 2, "the phase change must force a drift rebuild: {rebuilds:?}");
        let planner = assert_equivalent("phase-change/planner", &states, &config, Feed::Planner);
        assert!(planner.len() >= 2, "drift must also fire on a severed stream: {planner:?}");
    }
}
