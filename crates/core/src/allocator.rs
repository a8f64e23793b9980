//! The allocator: expected-utility scheduling of speculative work (§4.5),
//! gated by the dispatch value model.
//!
//! Given the rollout of predicted future states produced by the predictor
//! bank, the allocator decides which of them are worth dispatching to
//! speculative execution. The decision has two layers:
//!
//! 1. **Ranking.** Each candidate's expected utility is the *benefit* of the
//!    entry it would produce — the length of the trajectory that would be
//!    cached (one superstep per rollout depth, using the live superstep-EMA
//!    as the instruction estimate) — multiplied by the probability, under
//!    the ensemble's joint distribution (Eq. 2), that the prediction is
//!    correct and the entry will therefore be used by the main thread.
//!    Candidates are sorted by that utility and truncated to the core
//!    budget. Predictions whose start states are already covered by the
//!    cache are skipped: their benefit has already been bought.
//!
//! 2. **Economics.** The survivors are then individually priced by
//!    [`SpeculationEconomics::evaluate`]: a candidate dispatches only when
//!    its calibrated `P(hit)` beats the *cost* of running the rollout — the
//!    same superstep of instructions a worker core must burn, times the
//!    configured speculation overhead for dependency tracking and cache
//!    insertion. The model probability alone is not trusted for this:
//!    it is capped by the rip's realized hit-rate EMA, because on chaotic
//!    workloads the ensemble is confidently wrong in ways Eq. 2 never
//!    admits (see the [`economics`](crate::economics) module docs for the
//!    full calibration story).
//!
//! A prediction identical to a higher-ranked one is bought once. A rollout
//! that cycles predicts the same start state at several depths; every copy
//! is ranked and priced like any candidate, so the economics see the same
//! decisions either way, but only the highest-ranked copy is returned. The
//! others could only offer the cache the entry the first one offered a
//! moment earlier, which it holds already (or refused as junk).
//!
//! A candidate refused by layer 2 is *suppressed*, never lost: suppression
//! only means no cache entry is produced, so the main thread executes that
//! superstep itself — exactly what it does on any cache miss. Gating is
//! therefore never a correctness event; it can only trade away a potential
//! speed-up that the evidence says was unlikely to materialize. The
//! economics keep a periodic probe leak and a hit-triggered re-admission
//! path so a suppressed rip is re-evaluated rather than blacklisted.

use crate::cache::{LookupScratch, TrajectoryCache};
use crate::economics::SpeculationEconomics;
use crate::predictor_bank::PredictedState;

/// One unit of speculative work the allocator decided to dispatch.
#[derive(Debug, Clone)]
pub struct SpeculationTask {
    /// How many supersteps ahead of the main thread the start state is.
    pub depth: usize,
    /// The predicted start state.
    pub predicted: PredictedState,
    /// Expected utility: estimated instructions saved × probability of use.
    pub expected_utility: f64,
}

/// Plans which rollout predictions to speculate from.
///
/// * `rollouts` — predictions at depths 1..=k produced by
///   [`PredictorBank::rollout`](crate::predictor_bank::PredictorBank::rollout).
/// * `superstep_estimate` — mean instructions per superstep, used as the
///   utility of one cached trajectory and as the cost unit of executing it.
/// * `max_tasks` — how many speculative executions can be dispatched (the
///   number of idle cores in a real deployment).
/// * `cache`/`rip` — used to skip predictions already covered by an entry.
/// * `lookup` — the caller's reusable scratch for those coverage checks
///   (planning runs on the miss path, which must not allocate per
///   occurrence).
/// * `economics` — the caller's per-rip value model; each ranked candidate
///   must clear its cost test to survive (a disabled model passes all).
///
/// Tasks are returned in decreasing expected-utility order, each start
/// state at most once.
pub fn plan_speculation(
    rollouts: Vec<PredictedState>,
    superstep_estimate: f64,
    max_tasks: usize,
    cache: &TrajectoryCache,
    rip: u32,
    lookup: &mut LookupScratch,
    economics: &mut SpeculationEconomics,
) -> Vec<SpeculationTask> {
    let mut tasks: Vec<SpeculationTask> = rollouts
        .into_iter()
        .filter(|predicted| !cache.covers_with(rip, &predicted.state, lookup))
        .map(|predicted| {
            let probability = predicted.log_probability.exp();
            SpeculationTask {
                depth: predicted.depth,
                expected_utility: probability * superstep_estimate.max(1.0),
                predicted,
            }
        })
        .collect();
    tasks.sort_by(|a, b| {
        b.expected_utility.partial_cmp(&a.expected_utility).unwrap_or(std::cmp::Ordering::Equal)
    });
    tasks.truncate(max_tasks);
    // Price only the candidates that made the core budget: the economics
    // counters then reflect real dispatch decisions, not ranking losers.
    tasks.retain(|task| {
        economics.evaluate(task.predicted.log_probability, task.depth, superstep_estimate)
    });
    // Drop repeats only after pricing, so that a repeat still counts as a
    // candidate the economics dispatched. Blocks are compared first: a
    // state-sized compare runs only for a likely repeat.
    let mut unique: Vec<SpeculationTask> = Vec::with_capacity(tasks.len());
    for task in tasks {
        let (block, state) = (&task.predicted.block, &task.predicted.state);
        if !unique
            .iter()
            .any(|kept| kept.predicted.block == *block && kept.predicted.state == *state)
        {
            unique.push(task);
        }
    }
    unique
}

/// The latency model for recursive ("rollout") prediction in the paper's
/// prototype: the worker speculating `rank` supersteps ahead must first
/// compute `rank` chained predictions, so its prediction latency grows
/// linearly with rank (§5.3: ~10³·k µs on Blue Gene/P). Expressed here in
/// instruction-equivalent cycles so the cluster model can charge it.
pub fn rollout_latency(rank: usize, cost_per_step: f64) -> f64 {
    rank as f64 * cost_per_step.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EconomicsConfig;
    use asc_tvm::state::StateVector;

    /// A prediction whose start state (and block) is `value` in one word.
    fn predicted_as(value: u32, depth: usize, log_probability: f64) -> PredictedState {
        let mut state = StateVector::new(64).unwrap();
        state.store_word(0, value).unwrap();
        PredictedState { state, block: vec![u64::from(value)], log_probability, depth }
    }

    /// A prediction with a start state of its own.
    fn predicted(depth: usize, log_probability: f64) -> PredictedState {
        predicted_as(depth as u32, depth, log_probability)
    }

    fn open_economics() -> SpeculationEconomics {
        SpeculationEconomics::new(&EconomicsConfig::default())
    }

    #[test]
    fn plans_highest_utility_first_and_respects_budget() {
        let cache = TrajectoryCache::new(16);
        let rollouts = vec![
            predicted(1, -0.01), // very likely
            predicted(2, -0.2),
            predicted(3, -2.0), // unlikely
        ];
        let tasks = plan_speculation(
            rollouts,
            1_000.0,
            2,
            &cache,
            0,
            &mut LookupScratch::new(),
            &mut open_economics(),
        );
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].depth, 1);
        assert_eq!(tasks[1].depth, 2);
        assert!(tasks[0].expected_utility >= tasks[1].expected_utility);
    }

    #[test]
    fn skips_predictions_already_cached() {
        let cache = TrajectoryCache::new(16);
        let prediction = predicted(1, -0.1);
        // Insert an entry that matches the predicted state (empty read set
        // matches anything).
        cache.insert(crate::cache::CacheEntry::new(
            0,
            asc_tvm::delta::SparseBytes::default(),
            asc_tvm::delta::SparseBytes::default(),
            10,
        ));
        let tasks = plan_speculation(
            vec![prediction],
            100.0,
            4,
            &cache,
            0,
            &mut LookupScratch::new(),
            &mut open_economics(),
        );
        assert!(tasks.is_empty());
    }

    #[test]
    fn utility_scales_with_probability() {
        let cache = TrajectoryCache::new(16);
        let tasks = plan_speculation(
            vec![predicted(1, 0.0), predicted(2, -1.0)],
            100.0,
            4,
            &cache,
            0,
            &mut LookupScratch::new(),
            &mut open_economics(),
        );
        assert!((tasks[0].expected_utility - 100.0).abs() < 1e-9);
        assert!((tasks[1].expected_utility - 100.0 * (-1.0f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn junk_saturated_economics_suppress_the_whole_plan() {
        let cache = TrajectoryCache::new(16);
        let mut economics = open_economics();
        for _ in 0..1_000 {
            economics.record_lookup(false);
        }
        let tasks = plan_speculation(
            vec![predicted(1, 0.0), predicted(2, -0.1)],
            1_000.0,
            4,
            &cache,
            0,
            &mut LookupScratch::new(),
            &mut economics,
        );
        assert!(tasks.is_empty(), "a junk-saturated rip must not dispatch");
        assert_eq!(economics.stats().suppressed, 2);
    }

    #[test]
    fn repeated_predictions_are_bought_once_after_pricing_them_all() {
        // A rollout that cycles between two states, plus one state seen
        // once: depths 1..=6 predict A B A B C A, most likely first.
        let values = [7, 9, 7, 9, 11, 7];
        let rollouts = || {
            values
                .iter()
                .enumerate()
                .map(|(k, &value)| predicted_as(value, k + 1, -0.1 * (k + 1) as f64))
                .collect::<Vec<_>>()
        };
        let cache = TrajectoryCache::new(16);
        let mut economics = open_economics();
        let tasks = plan_speculation(
            rollouts(),
            1_000.0,
            8,
            &cache,
            0,
            &mut LookupScratch::new(),
            &mut economics,
        );
        // Distinct start states, highest-ranked copy first.
        let depths: Vec<usize> = tasks.iter().map(|task| task.depth).collect();
        assert_eq!(depths, [1, 2, 5]);
        for (i, a) in tasks.iter().enumerate() {
            for b in &tasks[i + 1..] {
                assert_ne!(a.predicted.state, b.predicted.state);
            }
        }
        // The economics priced every candidate, repeats included.
        let mut priced = open_economics();
        for predicted in rollouts() {
            priced.evaluate(predicted.log_probability, predicted.depth, 1_000.0);
        }
        assert_eq!(economics.stats(), priced.stats());
        assert_eq!(economics.stats().dispatched, values.len() as u64);
    }

    #[test]
    fn equal_blocks_over_different_states_are_both_kept() {
        // Blocks are only a first test: predictions materialised from
        // different anchors can share a block and still differ.
        let mut other = predicted_as(3, 2, -0.2);
        other.state.store_word(8, 1).unwrap();
        let tasks = plan_speculation(
            vec![predicted_as(3, 1, -0.1), other],
            1_000.0,
            4,
            &TrajectoryCache::new(16),
            0,
            &mut LookupScratch::new(),
            &mut open_economics(),
        );
        assert_eq!(tasks.len(), 2);
    }

    #[test]
    fn rollout_latency_is_linear_in_rank() {
        assert_eq!(rollout_latency(0, 50.0), 0.0);
        assert_eq!(rollout_latency(10, 50.0), 500.0);
        assert_eq!(rollout_latency(10, -1.0), 0.0);
    }
}
