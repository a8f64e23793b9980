//! The speculation value model: per-rip dispatch economics.
//!
//! The paper frames automatically scalable computation as a *resource
//! allocation* problem — spare cores are capital, and every speculative
//! execution is an investment that pays off only when the main thread later
//! fast-forwards through the entry it produced. The cache's value-hash index
//! and junk filter make a losing investment cheap to *look up*; this module
//! makes the runtime stop *placing* losing investments at all.
//!
//! # The value model
//!
//! For every candidate speculation the runtime asks one question: does the
//! expected benefit beat the cost?
//!
//! ```text
//! dispatch  ⇔  P(hit) × E[superstep length]  ≥  threshold × overhead × E[superstep length]
//!           ⇔  P(hit)  ≥  threshold × overhead
//! ```
//!
//! * **Benefit** is the instructions the main thread would skip if the entry
//!   lands and is used: one superstep (the live EMA estimate), weighted by
//!   the probability the prediction is right *and* the main thread actually
//!   reaches it.
//! * **Cost** is the instructions a core burns executing the rollout — the
//!   same superstep length again, times an `overhead` factor for dependency
//!   tracking and insert bookkeeping.
//!
//! `P(hit)` is where the learning lives, and neither signal alone is
//! trustworthy. The model's own confidence (the rollout's cumulative Eq. 2
//! probability) is *systematically pessimistic* about hits: it is a joint
//! probability over every excited bit, but an entry fast-forwards when its
//! **read set** matches — a prediction wrong on write-only bits still
//! lands. The same goes for the windowed whole-state accuracy from
//! [`EnsembleErrors::recent_error_rate`], which supplies a per-step floor
//! under the joint probability. The *realized* hit-rate EMA — what fraction
//! of this rip's lookups actually fast-forwarded — is the direct evidence,
//! so it bounds the estimate from **both** sides: it floors a pessimistic
//! model (speculation that demonstrably lands keeps dispatching no matter
//! what the joint probability says) and caps a confident one (on chaotic
//! workloads the ensemble is confidently wrong in ways its probabilities
//! never admit):
//!
//! ```text
//! P(hit) = min( max(exp(Σ log p), accuracy_recentᵈᵉᵖᵗʰ, realized),  slack × realized )
//! ```
//!
//! # Adaptive horizon
//!
//! The same signals bound how deep rollouts are worth computing at all. A
//! depth-`k` candidate is worth predicting only while `per_stepᵏ × cap`
//! clears the dispatch threshold — with `per_step = max(accuracy_recent,
//! realized)`, for the same read-set-versus-whole-state reason as above —
//! so the horizon is the largest such `k`, clamped to the
//! `[MIN_HORIZON, MAX_HORIZON]` band (and never beyond the caller's legacy
//! depth). A chaotic rip collapses to depth-1 rollouts — the predictor-bank
//! rollout itself was a large share of the logistic-map miss cost — while a
//! rip whose speculation keeps landing keeps the full depth.
//!
//! # Suppression is never a correctness event
//!
//! Gating decides only which speculations *run*. A suppressed dispatch means
//! a cache entry is never produced, which means the main thread executes
//! that superstep itself — the exact behaviour of a cache miss, which every
//! mode already handles on every occurrence. The determinism argument is
//! unchanged: entries are applied only on a full read-set match, so the
//! worst any gating decision can do is fail to save work.
//!
//! Suppression is also deliberately *leaky*: after `PROBE_INTERVAL`
//! consecutive suppressions the next candidate is dispatched anyway, and any
//! realized hit snaps the EMA back to the optimistic prior (`OPTIMISM`). A
//! rip written off by a junk-saturated
//! history therefore re-admits itself the moment speculation starts landing
//! again — the model can only throttle, never permanently blacklist.
//!
//! [`EnsembleErrors::recent_error_rate`]: asc_learn::ensemble::EnsembleErrors::recent_error_rate

use crate::config::EconomicsConfig;
use asc_learn::persist::{self, Reader};

/// Half-life, in lookup outcomes, of the realized hit-rate EMA: after this
/// many all-miss lookups the rate halves.
const HALF_LIFE: f64 = 64.0;
/// The prior hit rate a fresh rip starts from — and the level a single
/// realized hit re-admits a suppressed rip back to. High enough that
/// warm-up speculation is never suppressed before evidence exists.
const OPTIMISM: f64 = 0.5;
/// Minimum `P(hit) / overhead` ratio a candidate must clear to dispatch.
const DISPATCH_THRESHOLD: f64 = 0.02;
/// Cost multiplier of speculative execution relative to the main thread's:
/// a speculating core pays dependency tracking and insert bookkeeping on
/// top of the superstep itself.
const SPECULATION_OVERHEAD: f64 = 1.25;
/// Slack factor on the realized-rate evidence cap (`cap = slack ×
/// realized`): the benefit of the doubt the model's confidence gets beyond
/// observed hit rates.
const CALIBRATION_SLACK: f64 = 4.0;
/// Floor on the adaptive per-rip rollout horizon (suppressed rips still roll
/// out this deep so probe dispatches have candidates).
const MIN_HORIZON: usize = 1;
/// Ceiling on the adaptive per-rip rollout horizon, on top of the caller's
/// legacy depth.
const MAX_HORIZON: usize = 32;
/// Consecutive value-test refusals after which one candidate is dispatched
/// anyway — the leak that lets a written-off rip produce the hit that
/// re-admits it.
const PROBE_INTERVAL: u64 = 64;

/// Running counters of the value model's decisions, reported per run in
/// [`RunReport::economics`](crate::runtime::RunReport::economics).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EconomicsStats {
    /// Candidate speculations evaluated against the value model.
    pub considered: u64,
    /// Candidates that cleared the value test and were dispatched.
    pub dispatched: u64,
    /// Candidates refused because expected benefit did not cover cost.
    pub suppressed: u64,
    /// Suppression-regime probe dispatches (the leak that re-admits a rip).
    pub probes: u64,
    /// Lookup outcomes folded into the realized-rate EMA.
    pub lookups: u64,
    /// How many of those outcomes were hits.
    pub hits: u64,
    /// Σ `P(hit) × superstep` over dispatched candidates, in instruction
    /// equivalents: the value the model believed it was buying.
    pub expected_value: f64,
    /// Σ `overhead × superstep` over suppressed candidates: the estimated
    /// instruction-equivalents of futile speculation *not* executed.
    pub suppressed_cost: f64,
    /// The realized hit-rate EMA at the end of the run.
    pub realized_hit_rate: f64,
    /// The adaptive rollout horizon most recently computed.
    pub last_horizon: usize,
}

/// Per-rip dispatch economics: the realized hit-rate EMA, the model-accuracy
/// signal, and the decision procedure over both. Single-threaded by design —
/// each dispatch site (the miss-driven main loop, or the planner thread)
/// owns one instance, so inline runs stay bit-reproducible, statistics
/// included.
#[derive(Debug, Clone)]
pub struct SpeculationEconomics {
    enabled: bool,
    /// Per-outcome EMA step, derived from [`HALF_LIFE`].
    alpha: f64,
    /// EMA of lookup outcomes (1 = hit), the evidence side of calibration.
    realized: f64,
    /// Windowed whole-state accuracy of the ensemble (1 − recent error
    /// rate), the model side. Starts at the optimistic prior.
    step_accuracy: f64,
    /// Totals last seen by [`observe_cache_totals`], for delta feeding.
    ///
    /// [`observe_cache_totals`]: SpeculationEconomics::observe_cache_totals
    queries_seen: u64,
    hits_seen: u64,
    /// Value-test refusals since the last dispatch (probe trigger).
    suppressed_streak: u64,
    stats: EconomicsStats,
}

impl SpeculationEconomics {
    /// Builds the model from its configuration. A disabled configuration
    /// still counts dispatches (every candidate passes), so reports stay
    /// comparable across gated and ungated runs.
    pub fn new(config: &EconomicsConfig) -> Self {
        // Half-life h ⇒ per-outcome retention (1 − α) with (1 − α)^h = ½.
        let alpha = 1.0 - 0.5f64.powf(1.0 / HALF_LIFE);
        SpeculationEconomics {
            enabled: config.enabled,
            alpha,
            realized: OPTIMISM,
            step_accuracy: OPTIMISM,
            queries_seen: 0,
            hits_seen: 0,
            suppressed_streak: 0,
            stats: EconomicsStats::default(),
        }
    }

    /// Folds one realized lookup outcome into the hit-rate EMA. A hit also
    /// *re-admits* the rip: the EMA snaps up to at least the optimistic
    /// prior and the suppression streak resets, so one landed speculation is
    /// enough to resume dispatching after a junk-saturated history.
    pub fn record_lookup(&mut self, hit: bool) {
        self.stats.lookups += 1;
        if hit {
            self.stats.hits += 1;
            self.realized = (self.realized + self.alpha * (1.0 - self.realized)).max(OPTIMISM);
            self.suppressed_streak = 0;
        } else {
            self.realized *= 1.0 - self.alpha;
        }
        self.stats.realized_hit_rate = self.realized;
    }

    /// Delta-feeds the EMA from the cache's monotone `queries`/`hits`
    /// totals — the planner's path, which observes lookups only through the
    /// shared cache statistics. Misses are folded before hits (closed form,
    /// O(1) in the delta sizes); ordering within one polling interval is
    /// unknowable anyway and only shifts the EMA by O(α²).
    pub fn observe_cache_totals(&mut self, queries: u64, hits: u64) {
        let hit_delta = hits.saturating_sub(self.hits_seen);
        let miss_delta = queries.saturating_sub(self.queries_seen).saturating_sub(hit_delta);
        self.queries_seen = queries;
        self.hits_seen = hits;
        self.stats.lookups += hit_delta + miss_delta;
        self.stats.hits += hit_delta;
        if miss_delta > 0 {
            self.realized *= (1.0 - self.alpha).powi(miss_delta.min(1 << 30) as i32);
        }
        if hit_delta > 0 {
            // First hit takes the re-admission snap, exactly as
            // `record_lookup` would; once at or above the prior the EMA only
            // grows, so the remaining hits fold in closed form.
            self.realized = (self.realized + self.alpha * (1.0 - self.realized)).max(OPTIMISM);
            let keep = (1.0 - self.alpha).powi((hit_delta - 1).min(1 << 30) as i32);
            self.realized = 1.0 - (1.0 - self.realized) * keep;
            self.suppressed_streak = 0;
        }
        self.stats.realized_hit_rate = self.realized;
    }

    /// Updates the model-accuracy signal from the ensemble's windowed
    /// whole-state error rate (`None` while the bank is warming up leaves
    /// the optimistic prior in place). O(1); safe on the per-miss hot path.
    pub fn observe_model(&mut self, recent_error_rate: Option<f64>) {
        if let Some(rate) = recent_error_rate {
            self.step_accuracy = (1.0 - rate).clamp(0.01, 1.0);
        }
    }

    /// Calibration cap on any candidate's believed probability: evidence of
    /// realized hits, with slack for optimism while evidence is thin.
    fn cap(&self) -> f64 {
        (self.realized * CALIBRATION_SLACK).clamp(1e-6, 1.0)
    }

    /// Outcomes to observe before the adaptive horizon trusts the EMA: one
    /// half-life, the point where evidence outweighs the prior.
    fn warmup_lookups(&self) -> u64 {
        (0.5f64.ln() / (1.0 - self.alpha).ln()).ceil() as u64
    }

    /// The per-rip rollout horizon: the deepest `k` for which a depth-`k`
    /// candidate could still clear the value test, clamped to the horizon
    /// band and never beyond `fallback` (the mode's legacy global depth).
    /// Disabled economics return `fallback` unchanged.
    pub fn horizon(&mut self, fallback: usize) -> usize {
        // Until one half-life of outcomes has been observed the EMA is
        // mostly prior; shortening rollouts on a prior would cost the very
        // early hits that teach the model the rip is worth speculating on,
        // so the warm-up keeps the legacy depth.
        if !self.enabled || self.stats.lookups < self.warmup_lookups() {
            self.stats.last_horizon = fallback;
            return fallback;
        }
        let ceiling = MAX_HORIZON.min(fallback).max(1);
        let floor = MIN_HORIZON.min(ceiling).max(1);
        // Largest k with per_stepᵏ × cap ≥ threshold × overhead, where
        // per-step survival is the better of the model's whole-state
        // accuracy and the realized (read-set) hit evidence.
        let needed = (DISPATCH_THRESHOLD * SPECULATION_OVERHEAD).max(1e-12);
        let per_step = self.step_accuracy.max(self.realized).clamp(0.01, 0.9999);
        let budget = (needed / self.cap()).min(1.0);
        let depth = if budget >= 1.0 {
            // Even depth 1 cannot clear the bar; the floor still applies so
            // probe dispatches have something to roll out.
            floor
        } else {
            (budget.ln() / per_step.ln()).floor() as usize
        };
        let horizon = depth.clamp(floor, ceiling);
        self.stats.last_horizon = horizon;
        horizon
    }

    /// The dispatch decision for one candidate: `true` to run it. Updates
    /// the decision counters and the probe streak.
    ///
    /// * `log_probability` — the candidate's cumulative rollout
    ///   log-probability (Eq. 2 along the chain).
    /// * `depth` — supersteps ahead of the conditioning state.
    /// * `superstep_estimate` — live EMA of instructions per superstep.
    pub fn evaluate(&mut self, log_probability: f64, depth: usize, superstep: f64) -> bool {
        self.stats.considered += 1;
        if !self.enabled {
            self.stats.dispatched += 1;
            return true;
        }
        let superstep = superstep.max(1.0);
        // Model probability with the per-step accuracy floor; realized
        // evidence then bounds it from both sides (floor: landing
        // speculation keeps dispatching however pessimistic the joint
        // probability is; cap: a junk history throttles however confident
        // the model is).
        let modeled = log_probability.exp().max(self.step_accuracy.powi(depth.max(1) as i32));
        let p_hit = modeled.max(self.realized).min(self.cap());
        if p_hit >= DISPATCH_THRESHOLD * SPECULATION_OVERHEAD {
            self.stats.dispatched += 1;
            self.stats.expected_value += p_hit * superstep;
            self.suppressed_streak = 0;
            return true;
        }
        self.suppressed_streak += 1;
        if self.suppressed_streak >= PROBE_INTERVAL {
            // The leak: dispatch anyway so a rip whose behaviour changed can
            // produce the hit that re-admits it.
            self.suppressed_streak = 0;
            self.stats.probes += 1;
            self.stats.dispatched += 1;
            self.stats.expected_value += p_hit * superstep;
            return true;
        }
        self.stats.suppressed += 1;
        self.stats.suppressed_cost += SPECULATION_OVERHEAD * superstep;
        false
    }

    /// Whether gating is active (a disabled model passes every candidate).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Appends the learned dispatch state — the EMAs, delta-feed cursors,
    /// probe streak and decision counters — to `out` for checkpointing.
    /// Floats are written as raw IEEE-754 bits so a restore is bit-exact.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        persist::put_f64(out, self.realized);
        persist::put_f64(out, self.step_accuracy);
        persist::put_u64(out, self.queries_seen);
        persist::put_u64(out, self.hits_seen);
        persist::put_u64(out, self.suppressed_streak);
        persist::put_u64(out, self.stats.considered);
        persist::put_u64(out, self.stats.dispatched);
        persist::put_u64(out, self.stats.suppressed);
        persist::put_u64(out, self.stats.probes);
        persist::put_u64(out, self.stats.lookups);
        persist::put_u64(out, self.stats.hits);
        persist::put_f64(out, self.stats.expected_value);
        persist::put_f64(out, self.stats.suppressed_cost);
        persist::put_f64(out, self.stats.realized_hit_rate);
        persist::put_usize(out, self.stats.last_horizon);
    }

    /// Restores state written by
    /// [`save_state`](SpeculationEconomics::save_state) into a model built
    /// from the same configuration. Returns `None` on truncated bytes; the
    /// caller then keeps the freshly constructed model (configuration priors
    /// are not serialized, so no shape validation is needed beyond length).
    pub fn load_state(&mut self, reader: &mut Reader<'_>) -> Option<()> {
        let realized = reader.f64()?;
        let step_accuracy = reader.f64()?;
        let queries_seen = reader.u64()?;
        let hits_seen = reader.u64()?;
        let suppressed_streak = reader.u64()?;
        let stats = EconomicsStats {
            considered: reader.u64()?,
            dispatched: reader.u64()?,
            suppressed: reader.u64()?,
            probes: reader.u64()?,
            lookups: reader.u64()?,
            hits: reader.u64()?,
            expected_value: reader.f64()?,
            suppressed_cost: reader.f64()?,
            realized_hit_rate: reader.f64()?,
            last_horizon: reader.usize()?,
        };
        self.realized = realized;
        self.step_accuracy = step_accuracy;
        self.queries_seen = queries_seen;
        self.hits_seen = hits_seen;
        self.suppressed_streak = suppressed_streak;
        self.stats = stats;
        Some(())
    }

    /// Snapshot of the decision counters.
    pub fn stats(&self) -> EconomicsStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> EconomicsConfig {
        EconomicsConfig::default()
    }

    #[test]
    fn optimistic_prior_dispatches_before_evidence() {
        let mut econ = SpeculationEconomics::new(&config());
        // A fresh rip with a confident model: everything runs.
        for depth in 1..=4 {
            assert!(econ.evaluate(-0.01 * depth as f64, depth, 500.0));
        }
        assert_eq!(econ.stats().dispatched, 4);
        assert_eq!(econ.stats().suppressed, 0);
    }

    #[test]
    fn saturated_junk_history_is_suppressed_and_readmitted_after_a_hit() {
        let mut econ = SpeculationEconomics::new(&config());
        // A long all-miss history: every speculation this rip ever produced
        // was junk. The EMA decays far below the dispatch bar.
        for _ in 0..1_000 {
            econ.record_lookup(false);
        }
        assert!(econ.stats().realized_hit_rate < 1e-3);
        // Even a maximally confident prediction is refused now.
        assert!(!econ.evaluate(0.0, 1, 500.0), "junk-saturated rip must be suppressed");
        assert_eq!(econ.stats().suppressed, 1);
        assert!(econ.stats().suppressed_cost > 0.0);

        // One realized hit re-admits the rip: the EMA snaps back to the
        // optimistic prior and the same candidate dispatches again.
        econ.record_lookup(true);
        assert!(econ.evaluate(0.0, 1, 500.0), "a hit must re-admit the rip");
        assert_eq!(econ.stats().dispatched, 1);
    }

    #[test]
    fn probe_leak_dispatches_after_enough_suppressions() {
        let mut econ = SpeculationEconomics::new(&config());
        for _ in 0..1_000 {
            econ.record_lookup(false);
        }
        // Exactly every `PROBE_INTERVAL`-th decision leaks through as a probe.
        for decision in 1..=2 * PROBE_INTERVAL {
            assert_eq!(econ.evaluate(0.0, 1, 500.0), decision % PROBE_INTERVAL == 0, "{decision}");
        }
        assert_eq!(econ.stats().probes, 2);
    }

    #[test]
    fn horizon_collapses_for_a_chaotic_rip_and_stays_deep_for_a_learnable_one() {
        let mut econ = SpeculationEconomics::new(&config());
        // Locked-on model, healthy hit history: full depth.
        econ.observe_model(Some(0.02));
        for _ in 0..64 {
            econ.record_lookup(true);
        }
        assert_eq!(econ.horizon(32), 32);

        // Chaotic model, junk history: the horizon collapses to the floor.
        econ.observe_model(Some(0.9));
        for _ in 0..1_000 {
            econ.record_lookup(false);
        }
        assert_eq!(econ.horizon(32), MIN_HORIZON);
        // The caller's legacy depth stays an upper bound.
        for _ in 0..64 {
            econ.record_lookup(true);
        }
        econ.observe_model(Some(0.02));
        assert_eq!(econ.horizon(4), 4);
    }

    #[test]
    fn disabled_economics_pass_everything_at_the_fallback_horizon() {
        let cfg = EconomicsConfig { enabled: false };
        let mut econ = SpeculationEconomics::new(&cfg);
        for _ in 0..1_000 {
            econ.record_lookup(false);
        }
        assert!(econ.evaluate(-50.0, 32, 1.0), "disabled gating must pass everything");
        assert_eq!(econ.horizon(17), 17);
        assert_eq!(econ.stats().suppressed, 0);
    }

    #[test]
    fn cache_totals_feed_the_ema_like_individual_outcomes() {
        let mut by_outcome = SpeculationEconomics::new(&config());
        let mut by_totals = SpeculationEconomics::new(&config());
        // 10 misses then 3 hits, fed both ways.
        for _ in 0..10 {
            by_outcome.record_lookup(false);
        }
        for _ in 0..3 {
            by_outcome.record_lookup(true);
        }
        by_totals.observe_cache_totals(10, 0);
        by_totals.observe_cache_totals(13, 3);
        assert_eq!(by_outcome.stats().lookups, by_totals.stats().lookups);
        assert_eq!(by_outcome.stats().hits, by_totals.stats().hits);
        // Same closed-form EMA up to floating-point association.
        assert!(
            (by_outcome.stats().realized_hit_rate - by_totals.stats().realized_hit_rate).abs()
                < 1e-9
        );
    }

    #[test]
    fn save_load_roundtrip_preserves_decisions() {
        let mut trained = SpeculationEconomics::new(&config());
        trained.observe_model(Some(0.3));
        for i in 0..40 {
            trained.record_lookup(i % 3 == 0);
            trained.evaluate(-0.5, 2, 400.0);
        }
        let mut bytes = Vec::new();
        trained.save_state(&mut bytes);

        let mut restored = SpeculationEconomics::new(&config());
        restored
            .load_state(&mut asc_learn::persist::Reader::new(&bytes))
            .expect("roundtrip must restore");
        assert_eq!(restored.stats(), trained.stats());
        // Both copies keep making identical decisions.
        for i in 0..20 {
            trained.record_lookup(i % 5 == 0);
            restored.record_lookup(i % 5 == 0);
            assert_eq!(trained.evaluate(-1.0, 3, 250.0), restored.evaluate(-1.0, 3, 250.0));
            assert_eq!(trained.horizon(16), restored.horizon(16));
        }
        assert_eq!(restored.stats(), trained.stats());

        // Truncation anywhere must fail cleanly.
        for cut in 0..bytes.len() {
            let mut fresh = SpeculationEconomics::new(&config());
            assert!(fresh
                .load_state(&mut asc_learn::persist::Reader::new(&bytes[..cut]))
                .is_none());
        }
    }

    #[test]
    fn expected_value_accounts_dispatched_benefit() {
        let mut econ = SpeculationEconomics::new(&config());
        assert!(econ.evaluate(0.0, 1, 1_000.0));
        let stats = econ.stats();
        // P(hit) is capped by slack × realized prior, never above 1.
        assert!(stats.expected_value > 0.0 && stats.expected_value <= 1_000.0);
    }
}
