//! Configuration of the LASC runtime.

use crate::error::{AscError, AscResult};
use asc_tvm::TierConfig;

/// The switch of the continuous-speculation planner thread.
///
/// With [`AscConfig::workers`] > 0 and `enabled`, [`accelerate`] spawns a
/// planner that consumes the main thread's stream of recognized-IP
/// occurrences from a bounded drop-oldest channel and keeps the speculation
/// pool's queue topped up with predicted future supersteps *continuously*,
/// instead of re-planning only at cache misses. The planner owns the
/// predictor bank and the worker pool; it re-plans when an occurrence
/// invalidates the predicted trajectory and tops the queue up again whenever
/// a cache insert lands. It only ever chooses *which* speculations run —
/// main-thread results stay bit-for-bit identical with the planner on or
/// off.
///
/// [`accelerate`]: crate::runtime::LascRuntime::accelerate
/// [`AscConfig::workers`]: AscConfig::workers
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Whether the planner thread runs (ignored when `workers == 0`; inline
    /// speculation has no pool to feed). Disabled, a worker-pool run uses
    /// miss-driven dispatch instead: the main thread plans and dispatches at
    /// each cache miss.
    pub enabled: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig { enabled: true }
    }
}

/// The switch of the per-rip speculation value model; see the
/// [`economics`](crate::economics) module docs for the full model, whose
/// constants keep warm-up and predictable workloads fully dispatched (the
/// optimistic prior puts the evidence cap at 1.0 until misses accumulate)
/// while collapsing chaotic rips to shallow, mostly-suppressed speculation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EconomicsConfig {
    /// Whether dispatch gating runs at all. Disabled, every candidate
    /// dispatches but decisions are still counted, so gated and ungated
    /// reports stay comparable.
    pub enabled: bool,
}

impl Default for EconomicsConfig {
    fn default() -> Self {
        EconomicsConfig { enabled: true }
    }
}

/// Thresholds of the degrade-to-inline circuit breaker.
///
/// # Failure model
///
/// The paper's safety argument makes speculation free to *mispredict*: a
/// trajectory whose read set no longer matches the live state is simply
/// discarded. The supervised runtime extends that argument to *execution*
/// failures — a worker panic, a speculation job overrunning its deadline, a
/// corrupted or hash-colliding cache entry — by containing each one
/// ([`catch_unwind`](std::panic::catch_unwind), deadline kills, checksum
/// verification at apply time) and counting it into
/// [`HealthStats`](crate::supervisor::HealthStats). The breaker is the
/// back-stop on top of that containment: when failures cluster, the
/// speculation machinery itself is sick (a poisoned program region, a
/// corrupted cache, a dying thread pool) and every further speculation is
/// overhead with no expected payoff. Tripping to inline execution caps the
/// damage at plain-execution speed — the runtime must never be
/// *slower-than-inline* because its accelerator is broken.
///
/// The breaker watches a sliding window of the last [`window`] *events*. A
/// **failure** event is a worker panic, a deadline kill, or a cache
/// integrity reject (checksum or value-hash collision); a **success** event
/// is any normally retired speculation job, including ordinary faulted or
/// budget-exhausted speculations — those are expected outcomes, not
/// sickness. When the window holds at least [`min_failures`] failures *and*
/// the failure fraction reaches [`failure_threshold`], the breaker opens:
/// the runtime stops dispatching (and stops speculating inline) for
/// [`cooldown_occurrences`] recognized-IP occurrences, then half-opens and
/// probes: speculation resumes, and [`probe_successes`] consecutive
/// successes re-close the breaker while a single failure re-opens it with
/// the cooldown doubled (capped at 64× — an accelerator that keeps
/// relapsing ends up effectively inline, which is exactly the guarantee).
///
/// [`window`]: BreakerConfig::window
/// [`min_failures`]: BreakerConfig::min_failures
/// [`failure_threshold`]: BreakerConfig::failure_threshold
/// [`cooldown_occurrences`]: BreakerConfig::cooldown_occurrences
/// [`probe_successes`]: BreakerConfig::probe_successes
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Whether the breaker runs at all. Disabled, failures are still
    /// contained and counted, but never trip speculation off.
    pub enabled: bool,
    /// Number of most-recent events the failure rate is measured over.
    pub window: usize,
    /// Failure fraction of the window at which the breaker opens.
    pub failure_threshold: f64,
    /// Minimum number of failures in the window before the rate is even
    /// consulted — keeps one early panic in a short history from tripping a
    /// healthy runtime.
    pub min_failures: u32,
    /// Recognized-IP occurrences the breaker stays open before half-opening
    /// to probe. Doubles on every consecutive re-trip (capped at 64×).
    pub cooldown_occurrences: u64,
    /// Consecutive successful speculation events that close a half-open
    /// breaker.
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            enabled: true,
            window: 32,
            failure_threshold: 0.5,
            min_failures: 8,
            cooldown_occurrences: 256,
            probe_successes: 8,
        }
    }
}

/// Crash-durable checkpointing of resumable run state; see
/// [`crate::checkpoint`] for the file format and the exact set of state that
/// is (and deliberately is not) saved.
///
/// Checkpoints are written at recognized-IP occurrence boundaries — the only
/// points where the machine state, the counters and the learned state are
/// all simultaneously coherent — every [`interval`](CheckpointConfig::interval)
/// occurrences, atomically (tmp + rename), keeping the last
/// [`keep`](CheckpointConfig::keep) files. A resumed run restores the newest
/// *intact* checkpoint and continues to a final state bit-identical to the
/// uninterrupted run; a torn, truncated or bit-flipped file is skipped in
/// favour of an older intact one (or a fresh start), never loaded wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Whether checkpointing runs at all. Disabled (the default), the
    /// runtime touches no files.
    pub enabled: bool,
    /// Directory checkpoint files live in (`ckpt-<seq>.asc` plus a `.cache`
    /// trajectory-cache sibling: pure acceleration state — resume is
    /// bit-identical without it — that preserves warm-start speed). Created
    /// if absent. Required when enabled.
    pub directory: Option<std::path::PathBuf>,
    /// Recognized-IP occurrences between checkpoint writes.
    pub interval: u64,
    /// How many checkpoint files to retain; older ones are pruned after each
    /// successful write. At least 2 is recommended so damage to the newest
    /// file still leaves an intact predecessor.
    pub keep: usize,
    /// Whether to restore from the newest intact checkpoint in
    /// [`directory`](CheckpointConfig::directory) before running. With no
    /// intact checkpoint present the run starts fresh.
    pub resume: bool,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig { enabled: false, directory: None, interval: 256, keep: 3, resume: false }
    }
}

/// The run-level liveness watchdog; see
/// [`crate::supervisor::Watchdog`]. The main loop ticks a heartbeat once per
/// recognized-IP occurrence; a watchdog thread that observes no tick for
/// [`deadline_ms`](WatchdogConfig::deadline_ms) declares the run stalled —
/// the failure class (livelock, a hung lock, a wedged pool) the windowed
/// circuit breaker cannot see, because nothing *fails* — dumps diagnostics
/// and escalates: force-open the breaker, then tear down the pool and finish
/// inline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Whether the watchdog thread runs during [`accelerate`].
    ///
    /// [`accelerate`]: crate::runtime::LascRuntime::accelerate
    pub enabled: bool,
    /// Milliseconds without an occurrence tick before the run counts as
    /// stalled and the next escalation stage fires.
    pub deadline_ms: u64,
    /// How often the watchdog thread polls the heartbeat, in milliseconds.
    pub poll_ms: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig { enabled: true, deadline_ms: 10_000, poll_ms: 500 }
    }
}

/// Tunable parameters of the LASC runtime.
///
/// The defaults reproduce the paper's policies scaled to TVM-sized programs:
/// supersteps must be long enough to outweigh lookup costs, the recognizer
/// converges within a bounded exploration prefix, and the allocator rolls
/// predictions a bounded number of supersteps into the future.
#[derive(Debug, Clone, PartialEq)]
pub struct AscConfig {
    /// Instructions the recognizer observes before scoring candidate IPs.
    pub explore_instructions: u64,
    /// Occurrences of each candidate IP used to evaluate its predictability.
    pub evaluation_occurrences: usize,
    /// Occurrences of each candidate IP used to train its throw-away
    /// predictor bank before scored evaluation begins.
    pub evaluation_training: usize,
    /// Number of candidate IPs evaluated for predictability.
    pub candidate_count: usize,
    /// Minimum number of instructions a superstep must span for speculation
    /// from it to be worthwhile (the paper uses 10⁴ for its benchmarks; TVM
    /// programs are smaller so the default is lower but the same idea).
    pub min_superstep: u64,
    /// Maximum number of instructions a single speculative execution may run
    /// before giving up (guards against a wrong prediction running away).
    pub max_superstep: u64,
    /// How many supersteps ahead the allocator rolls out predictions.
    pub rollout_depth: usize,
    /// Upper bound on the number of excitation bits modelled per recognized
    /// IP (most frequently changing bits win); bounds learner memory for
    /// programs that touch fresh output locations every superstep.
    pub max_excited_bits: usize,
    /// Maximum number of entries the trajectory cache retains.
    pub cache_capacity: usize,
    /// The trajectory cache's insert-time usefulness filter: a read-set
    /// group whose entries have served zero hits after this many lookup
    /// probes stops accepting inserts (and a rip drowning in such
    /// proven-junk groups stops admitting new shapes), bounding junk growth
    /// on chaotic workloads where speculation rarely pays. `0` disables the
    /// filter. See [`TrajectoryCache`](crate::cache::TrajectoryCache)'s
    /// module docs for the exact policy.
    pub cache_junk_threshold: u64,
    /// Upper bound on total instructions executed (safety net for tests).
    pub instruction_budget: u64,
    /// Number of speculation worker threads [`accelerate`] runs supersteps
    /// on concurrently with the main thread. `0` executes speculation inline
    /// on the main thread (deterministic scheduling, useful for tests and
    /// single-core machines). Results are bit-for-bit identical either way —
    /// workers only ever *add* cache entries whose application is equivalent
    /// to executing the skipped instructions.
    ///
    /// [`accelerate`]: crate::runtime::LascRuntime::accelerate
    pub workers: usize,
    /// Continuous-speculation planner knobs; see [`PlannerConfig`]. Only
    /// consulted when `workers > 0`.
    pub planner: PlannerConfig,
    /// Per-rip speculation value model; see [`EconomicsConfig`]. Applies in
    /// every speculating mode (inline, miss-driven pool, planner).
    pub economics: EconomicsConfig,
    /// Per-job instruction deadline for speculation jobs. A job that has
    /// executed this many instructions without finishing is killed and
    /// counted as a deadline kill in [`HealthStats`] (and as a breaker
    /// failure). `0` disables the deadline: jobs run to the per-job
    /// [`max_superstep`](AscConfig::max_superstep)-derived budget.
    /// The deadline rides the existing instruction-budget plumbing in
    /// `execute_superstep`, so enforcement costs nothing extra per step.
    ///
    /// [`HealthStats`]: crate::supervisor::HealthStats
    pub job_deadline_instructions: u64,
    /// How many times the supervisor respawns a panicked speculation worker
    /// before giving up on that slot and shrinking the pool. Each respawn
    /// backs off exponentially from
    /// [`worker_restart_backoff_ms`](AscConfig::worker_restart_backoff_ms).
    pub max_worker_restarts: u32,
    /// Base backoff before the first worker respawn, in milliseconds; the
    /// `n`-th respawn of a slot waits `2ⁿ⁻¹` times this (capped at 64×).
    pub worker_restart_backoff_ms: u64,
    /// Degrade-to-inline circuit-breaker thresholds; see [`BreakerConfig`]
    /// for the failure model.
    pub breaker: BreakerConfig,
    /// Tier-1 execution (superinstruction fusion + block-threaded dispatch
    /// of hot straight-line regions); see [`TierConfig`], re-exported from
    /// `asc_tvm`. Enabled by default — results are bit-identical with the
    /// tier on or off, only the retirement rate changes. Applies to the
    /// main thread and to every speculation worker in all three modes
    /// (inline, miss-driven pool, planner).
    pub tier: TierConfig,
    /// Crash-durable checkpoint/resume; see [`CheckpointConfig`]. Disabled
    /// by default.
    pub checkpoint: CheckpointConfig,
    /// Run-level liveness watchdog; see [`WatchdogConfig`].
    pub watchdog: WatchdogConfig,
    /// Deterministic fault-injection plan driving the supervised runtime's
    /// test harness; `None` injects nothing. Only exists under the
    /// `fault-inject` cargo feature — production builds have no injection
    /// code at all.
    #[cfg(feature = "fault-inject")]
    pub fault: Option<crate::fault::FaultPlan>,
}

impl Default for AscConfig {
    fn default() -> Self {
        AscConfig {
            explore_instructions: 60_000,
            evaluation_occurrences: 8,
            evaluation_training: 10,
            candidate_count: 12,
            min_superstep: 200,
            max_superstep: 2_000_000,
            rollout_depth: 32,
            max_excited_bits: 4096,
            cache_capacity: 1 << 16,
            cache_junk_threshold: crate::cache::DEFAULT_JUNK_THRESHOLD,
            instruction_budget: 2_000_000_000,
            workers: 0,
            planner: PlannerConfig::default(),
            economics: EconomicsConfig::default(),
            job_deadline_instructions: 0,
            max_worker_restarts: 8,
            worker_restart_backoff_ms: 1,
            breaker: BreakerConfig::default(),
            tier: TierConfig::default(),
            checkpoint: CheckpointConfig::default(),
            watchdog: WatchdogConfig::default(),
            #[cfg(feature = "fault-inject")]
            fault: None,
        }
    }
}

impl AscConfig {
    /// A configuration suited to the small programs used in unit tests.
    pub fn for_tests() -> Self {
        AscConfig {
            explore_instructions: 5_000,
            evaluation_occurrences: 6,
            evaluation_training: 10,
            candidate_count: 8,
            min_superstep: 50,
            rollout_depth: 8,
            ..AscConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`AscError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> AscResult<()> {
        if self.explore_instructions == 0 {
            return Err(AscError::InvalidConfig("explore_instructions must be positive".into()));
        }
        if self.min_superstep == 0 || self.max_superstep < self.min_superstep {
            return Err(AscError::InvalidConfig(
                "superstep bounds must satisfy 0 < min <= max".into(),
            ));
        }
        if self.rollout_depth == 0 {
            return Err(AscError::InvalidConfig("rollout_depth must be at least 1".into()));
        }
        if self.candidate_count == 0 || self.evaluation_occurrences == 0 {
            return Err(AscError::InvalidConfig(
                "candidate_count and evaluation_occurrences must be positive".into(),
            ));
        }
        if self.cache_capacity == 0 {
            return Err(AscError::InvalidConfig("cache_capacity must be positive".into()));
        }
        if self.workers > 4096 {
            return Err(AscError::InvalidConfig(
                "workers must be at most 4096 (0 runs speculation inline)".into(),
            ));
        }
        if self.breaker.enabled {
            if self.breaker.window == 0 {
                return Err(AscError::InvalidConfig("breaker window must be at least 1".into()));
            }
            if !(self.breaker.failure_threshold > 0.0 && self.breaker.failure_threshold <= 1.0) {
                return Err(AscError::InvalidConfig(
                    "breaker failure_threshold must be in (0, 1]".into(),
                ));
            }
            if self.breaker.probe_successes == 0 {
                return Err(AscError::InvalidConfig(
                    "breaker probe_successes must be at least 1".into(),
                ));
            }
            if self.breaker.cooldown_occurrences == 0 {
                return Err(AscError::InvalidConfig(
                    "breaker cooldown_occurrences must be at least 1".into(),
                ));
            }
        }
        if self.tier.enabled && self.tier.hot_threshold == 0 {
            return Err(AscError::InvalidConfig("tier hot_threshold must be at least 1".into()));
        }
        if self.checkpoint.enabled {
            if self.checkpoint.directory.is_none() {
                return Err(AscError::InvalidConfig("checkpoint enabled with no directory".into()));
            }
            if self.checkpoint.interval == 0 {
                return Err(AscError::InvalidConfig(
                    "checkpoint interval must be at least 1".into(),
                ));
            }
            if self.checkpoint.keep == 0 {
                return Err(AscError::InvalidConfig("checkpoint keep must be at least 1".into()));
            }
        }
        if self.watchdog.enabled && (self.watchdog.deadline_ms == 0 || self.watchdog.poll_ms == 0) {
            return Err(AscError::InvalidConfig(
                "watchdog deadline_ms and poll_ms must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        AscConfig::default().validate().unwrap();
        AscConfig::for_tests().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = AscConfig { rollout_depth: 0, ..AscConfig::default() };
        assert!(c.validate().is_err());

        let c = AscConfig { max_superstep: 1, min_superstep: 10, ..AscConfig::default() };
        assert!(c.validate().is_err());

        let c = AscConfig { cache_capacity: 0, ..AscConfig::default() };
        assert!(c.validate().is_err());

        let mut c = AscConfig::default();
        c.breaker.window = 0;
        assert!(c.validate().is_err());

        let mut c = AscConfig::default();
        c.breaker.failure_threshold = 0.0;
        assert!(c.validate().is_err());

        let mut c = AscConfig::default();
        c.breaker.failure_threshold = 1.5;
        assert!(c.validate().is_err());

        let mut c = AscConfig::default();
        c.breaker.probe_successes = 0;
        assert!(c.validate().is_err());

        // A disabled breaker's knobs are not validated: it never consults
        // them.
        let mut c = AscConfig::default();
        c.breaker.enabled = false;
        c.breaker.window = 0;
        assert!(c.validate().is_ok());

        let mut c = AscConfig::default();
        c.tier.hot_threshold = 0;
        assert!(c.validate().is_err());

        // Disabled tier knobs are not validated: blocks never compile.
        let mut c = AscConfig::default();
        c.tier.enabled = false;
        c.tier.hot_threshold = 0;
        assert!(c.validate().is_ok());

        // An enabled checkpoint needs a directory and sane bounds.
        let mut c = AscConfig::default();
        c.checkpoint.enabled = true;
        assert!(c.validate().is_err(), "checkpointing with no directory must reject");
        c.checkpoint.directory = Some("ckpts".into());
        assert!(c.validate().is_ok());
        c.checkpoint.interval = 0;
        assert!(c.validate().is_err());
        c.checkpoint.interval = 1;
        c.checkpoint.keep = 0;
        assert!(c.validate().is_err());

        // Disabled checkpoint knobs are not validated: nothing is written.
        let mut c = AscConfig::default();
        c.checkpoint.interval = 0;
        assert!(c.validate().is_ok());

        let mut c = AscConfig::default();
        c.watchdog.deadline_ms = 0;
        assert!(c.validate().is_err());
        c.watchdog.enabled = false;
        assert!(c.validate().is_ok(), "disabled watchdog knobs are not validated");

        let mut c = AscConfig::default();
        c.watchdog.poll_ms = 0;
        assert!(c.validate().is_err());
    }
}
