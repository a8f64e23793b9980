//! The LASC runtime: the full architecture of Figure 1 wired together.
//!
//! * [`LascRuntime::measure`] runs the program *unaccelerated* while the
//!   recognizer, predictors and dependency tracking observe it, producing a
//!   [`RunReport`] with a per-superstep trace (length, dependency footprint,
//!   prediction correctness). This trace is what the experiment harnesses
//!   feed to the [`cluster`](crate::cluster) cost model to obtain the paper's
//!   scaling curves, and what Tables 1 and 2 are computed from.
//! * [`LascRuntime::memoize`] is Figure 6's single-core generalized
//!   memoization: the cache is filled from the program's own past.
//! * [`LascRuntime::accelerate`] runs the program *with* the trajectory
//!   cache, predictors and speculation in the loop. Program results are
//!   bit-for-bit identical to sequential execution — speculation can only
//!   ever skip work, never change it.
//!
//! # One occurrence loop
//!
//! `accelerate` and `memoize` are Figure 1 as a single loop over one owned
//! run context (`Run::drive`). At every recognized-IP occurrence the main
//! thread
//!
//! 1. runs the **prelude**: counts the occurrence, feeds the watchdog's
//!    heartbeat, honours its escalations and the shutdown flag, checkpoints
//!    on the interval and advances the circuit breaker;
//! 2. **consults the cache** and fast-forwards on a hit;
//! 3. on a miss lets the run's `Dispatch` mode **speculate**, then executes
//!    the superstep itself.
//!
//! `Dispatch` is the only thing that differs between the three modes, and
//! it is consulted at three points — before the lookup, on a hit, on a miss:
//!
//! * **Planned** ([`AscConfig::workers`] > 0 and the planner enabled, the
//!   default): the paper's *continuously speculating* architecture. The
//!   main thread clones its state into a bounded, drop-oldest channel —
//!   every miss, but only a sparse sample of an uninterrupted hit streak —
//!   and goes straight back to executing. The [`PlannerHandle`]'s thread
//!   trains the predictor bank, confirms or invalidates its plan against
//!   each occurrence, keeps a fixed horizon of predicted supersteps
//!   planned and tops the [`SpeculationPool`] up nearest-first, also
//!   whenever worker progress frees queue slots, so workers stay busy while
//!   the main thread fast-forwards without ever missing.
//! * **Miss-driven** (planner disabled, or `workers == 0`): the main thread
//!   itself trains the bank at every occurrence and, on a miss, prices a
//!   rollout through the dispatch economics and hands the ranked
//!   [`SpeculationTask`]s to the pool — or, with no pool, executes them
//!   inline, which makes the whole run, statistics included, reproducible.
//! * **Reuse** ([`LascRuntime::memoize`]): no bank, economics, pool or
//!   planner. A miss executes the live state's superstep tracked and caches
//!   it, so the cache holds the program's own past.
//!
//! Every tracked superstep — speculated, captured by `measure` or remembered
//! by Reuse — runs through one path, [`execute_superstep_with`], with full
//! per-byte dependency tracking (the paper's `g` vector), and becomes a
//! compressed entry (read-set keyed start, write-set keyed end) in the
//! sharded [`TrajectoryCache`], where the main thread finds it at a later
//! occurrence.
//!
//! **Supervision** (see [`supervisor`](crate::supervisor)) lets every stage
//! of that machinery *fail* without touching program results: jobs run
//! under `catch_unwind` with an optional instruction deadline, panicked
//! workers are respawned with backoff, corrupted entries are rejected by
//! checksum at apply time, and a [`CircuitBreaker`] trips the run to plain
//! execution while the windowed failure rate is high (thresholds on
//! [`BreakerConfig`]). The two degradations that change *mode* are a
//! `mem::replace` of the `Dispatch` value inside the loop iteration that
//! notices them: a dead planner becomes miss-driven dispatch on a fresh
//! pool and bank, and the watchdog's stage-2 escalation tears the pool (or
//! the planner) down and finishes inline. Every contained failure is
//! counted in [`RunReport::health`]; a sick runtime degrades toward
//! sequential speed, never below it.
//!
//! Determinism of *results* is scheduling-independent in every mode: an
//! entry is applied only when its entire read set matches the live state, so
//! the worst a racing, stale or dropped speculation can do is fail to save
//! work. Which supersteps are skipped (and therefore the reported cache
//! statistics) may vary between threaded runs; `final_state` never does.
//!
//! # Interpreter cost model
//!
//! The main thread executes with the TVM's zero-cost `NoDeps` sink and a
//! decoded-instruction cache; speculation runs the same generic code
//! monomorphized over a real `DepVector` (see [`asc_tvm::exec::DepSink`]),
//! so dependency tracking is paid exactly where the architecture needs the
//! information — on the spare cores. `accelerate` also *tiers up* every
//! executor (see [`asc_tvm::tier`]): the recognized IP is seeded hot in each
//! block cache, so the inter-occurrence region runs as compiled, fused
//! micro-op blocks from its first arrival — tier-1 changes the cost of an
//! instruction, never its semantics — and [`TierStats`] in the
//! [`RunReport`] records how much execution each run promoted. `measure`
//! and `memoize` capture their supersteps on the same tiered scratch
//! executor.
//!
//! [`SpeculationTask`]: crate::allocator::SpeculationTask
//! [`SpeculationPool`]: crate::workers::SpeculationPool
//! [`TrajectoryCache`]: crate::cache::TrajectoryCache
//! [`AscConfig::workers`]: crate::config::AscConfig::workers
//! [`PlannerHandle`]: crate::planner::PlannerHandle
//! [`CircuitBreaker`]: crate::supervisor::CircuitBreaker
//! [`BreakerConfig`]: crate::config::BreakerConfig

use crate::allocator::plan_speculation;
use crate::cache::{CacheEntry, CacheStats, LookupScratch, TrajectoryCache};
use crate::checkpoint::{self, CheckpointStats, RunCheckpoint};
use crate::config::AscConfig;
use crate::economics::{EconomicsStats, SpeculationEconomics};
use crate::error::AscResult;
use crate::planner::{OccurrenceEvent, PlannerHandle, PlannerOutcome, PlannerStats};
use crate::predictor_bank::PredictorBank;
use crate::recognizer::{recognize, recognize_recurring, RecognizedIp, RecognizerOutcome};
use crate::snapshot;
use crate::speculator::{
    capture_superstep, execute_superstep_with, SpeculationResult, SpeculationScratch,
};
use crate::supervisor::{
    watchdog_stage, CircuitBreaker, HealthStats, Heartbeat, Supervision, Watchdog,
};
use crate::workers::{PoolStats, SpeculationJob, SpeculationPool};
use asc_learn::ensemble::EnsembleErrors;
use asc_learn::persist::Reader;
use asc_tvm::machine::Machine;
use asc_tvm::program::Program;
use asc_tvm::state::StateVector;
use asc_tvm::TierStats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One superstep of the measured (unaccelerated) execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuperstepRecord {
    /// Index of the superstep, starting at 0 after recognizer convergence.
    pub index: usize,
    /// Instructions the superstep spans.
    pub instructions: u64,
    /// Bytes in the superstep's dependency (read) set.
    pub read_bytes: usize,
    /// Bytes in the superstep's output (write) set.
    pub write_bytes: usize,
    /// Size in bits of the sparse cache query this superstep would issue.
    pub query_bits: usize,
    /// Whether the one-step prediction made at the previous occurrence
    /// matched this superstep's start state on its read set (`None` while the
    /// predictors are still warming up).
    pub prediction_correct: Option<bool>,
}

/// Everything a run of the LASC runtime produces.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The recognized IP the run speculated on.
    pub rip: RecognizedIp,
    /// Unique IP values observed during recognition (Table 1).
    pub unique_ips: usize,
    /// Size of the program's state vector in bits (Table 1).
    pub state_bits: usize,
    /// Number of excitation bits the predictors modelled.
    pub excited_bits: usize,
    /// Instructions spent before speculation could begin (Table 1's
    /// "converge time").
    pub converge_instructions: u64,
    /// Total instructions the program semantically retired (executed plus
    /// fast-forwarded).
    pub total_instructions: u64,
    /// Instructions the main thread actually executed.
    pub executed_instructions: u64,
    /// Instructions skipped by fast-forwarding through cache hits.
    pub fast_forwarded_instructions: u64,
    /// Per-superstep trace (populated by [`LascRuntime::measure`]).
    pub supersteps: Vec<SuperstepRecord>,
    /// Ensemble error statistics (Table 2), when the predictors trained.
    pub ensemble_errors: Option<EnsembleErrors>,
    /// Figure-3 weight matrix: predictor names and per-bit normalised weights.
    pub weight_matrix: Option<(Vec<&'static str>, Vec<Vec<f64>>)>,
    /// Trajectory-cache statistics (populated by [`LascRuntime::accelerate`]).
    pub cache_stats: CacheStats,
    /// Speculation-pool statistics when [`AscConfig::workers`] > 0
    /// (populated by [`LascRuntime::accelerate`]).
    ///
    /// [`AscConfig::workers`]: crate::config::AscConfig::workers
    pub speculation: Option<PoolStats>,
    /// Planner statistics when the continuous-speculation planner ran
    /// (workers > 0 and [`PlannerConfig::enabled`]; populated by
    /// [`LascRuntime::accelerate`]).
    ///
    /// [`PlannerConfig::enabled`]: crate::config::PlannerConfig::enabled
    pub planner: Option<PlannerStats>,
    /// Supervision health counters — contained panics, deadline kills,
    /// restarts, circuit-breaker activity, checksum rejects and injected
    /// faults (populated by [`LascRuntime::accelerate`]; all-zero for
    /// `measure` and `memoize`, which run no speculation machinery).
    pub health: HealthStats,
    /// Dispatch-economics counters — candidates considered, dispatched and
    /// suppressed by the value model, realized hit rate and the adaptive
    /// horizon (populated by [`LascRuntime::accelerate`]; `None` for
    /// `measure` and `memoize`, which price no speculation, and for a
    /// planned run whose planner died before reporting).
    pub economics: Option<EconomicsStats>,
    /// Checkpoint activity — saves, resume provenance and damage accounting
    /// (populated by [`LascRuntime::accelerate`] when
    /// [`CheckpointConfig::enabled`](crate::config::CheckpointConfig::enabled);
    /// `None` otherwise and for `measure` / `memoize`, which checkpoint
    /// nothing: the checkpoint fingerprint does not encode the mode).
    pub checkpoints: Option<CheckpointStats>,
    /// Tier-up execution counters aggregated across every executor that
    /// retired instructions after recognition: the main thread's machine,
    /// the inline-speculation or capture scratch and all pool workers
    /// (populated by every entry point; `measure` and `memoize` execute all
    /// their supersteps on the capture scratch).
    pub tier: TierStats,
    /// The final state of the program.
    pub final_state: StateVector,
    /// Whether the program ran to completion (halted).
    pub halted: bool,
}

impl RunReport {
    /// The report every entry point starts from: the recognizer's verdict,
    /// the instruction accounting and the final state, with every
    /// mode-specific section empty. Each caller overrides the sections it
    /// populates.
    fn base(
        outcome: &RecognizerOutcome,
        machine: Machine,
        fast_forwarded: u64,
        halted: bool,
    ) -> Self {
        let executed_instructions = outcome.resume_instret + machine.instret();
        RunReport {
            rip: outcome.rip,
            unique_ips: outcome.unique_ips,
            state_bits: machine.state().len_bits(),
            excited_bits: 0,
            converge_instructions: outcome.instructions_spent,
            total_instructions: executed_instructions + fast_forwarded,
            executed_instructions,
            fast_forwarded_instructions: fast_forwarded,
            supersteps: Vec::new(),
            ensemble_errors: None,
            weight_matrix: None,
            cache_stats: CacheStats::default(),
            speculation: None,
            planner: None,
            health: HealthStats::default(),
            economics: None,
            checkpoints: None,
            tier: TierStats::default(),
            final_state: machine.into_state(),
            halted,
        }
    }

    /// Mean instructions per superstep (Table 1's "average jump").
    pub fn mean_superstep(&self) -> f64 {
        if self.supersteps.is_empty() {
            self.rip.mean_superstep
        } else {
            self.supersteps.iter().map(|s| s.instructions).sum::<u64>() as f64
                / self.supersteps.len() as f64
        }
    }

    /// Mean cache-query size in bits (Table 1's "cache query size").
    pub fn mean_query_bits(&self) -> f64 {
        if self.supersteps.is_empty() {
            return 0.0;
        }
        self.supersteps.iter().map(|s| s.query_bits).sum::<usize>() as f64
            / self.supersteps.len() as f64
    }

    /// Fraction of scored supersteps whose one-step prediction was correct on
    /// the read set.
    pub fn one_step_accuracy(&self) -> f64 {
        let scored: Vec<bool> =
            self.supersteps.iter().filter_map(|s| s.prediction_correct).collect();
        if scored.is_empty() {
            0.0
        } else {
            scored.iter().filter(|c| **c).count() as f64 / scored.len() as f64
        }
    }

    /// The factor by which fast-forwarding reduced the main thread's work:
    /// total retired instructions divided by instructions actually executed.
    pub fn work_scaling(&self) -> f64 {
        if self.executed_instructions == 0 {
            1.0
        } else {
            self.total_instructions as f64 / self.executed_instructions as f64
        }
    }
}

/// The run's checkpoint bookkeeping: sequence numbering and the activity
/// counters reported through [`RunReport::checkpoints`]. Present only when
/// checkpointing is enabled; the policy itself (directory, interval,
/// retention) is read from `AscConfig::checkpoint`.
struct CheckpointDriver {
    fingerprint: u64,
    next_sequence: u64,
    stats: CheckpointStats,
}

/// During an uninterrupted hit streak the main thread only applies sparse
/// deltas, so cloning the full state for the planner on *every* occurrence
/// costs more than the planner gains (a flooded channel drops most of them
/// anyway) — mid-streak, only every `STREAK_SEND_INTERVAL`-th occurrence is
/// reported. The plan horizon is its upper bound: a sample arriving more
/// supersteps past the previous one than the horizon is deep could never
/// match a plan entry, so it would invalidate the plan on every sample.
const STREAK_SEND_INTERVAL: u64 = crate::planner::HORIZON as u64;

/// How the run fills its cache: who owns speculation cadence, or whether
/// the run memoizes its own past. `Run::drive` consults it before the
/// lookup, on a hit and on a miss; a dead planner or a watchdog teardown
/// swaps `Planned` for `MissDriven` in place.
// One value per run, never stored in a collection: the size gap between
// the variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum Dispatch<'a> {
    /// The planner thread trains, plans and dispatches; the main thread
    /// only streams occurrences to it.
    Planned {
        planner: PlannerHandle,
        /// Consecutive cache hits since the last miss.
        hit_streak: u64,
        /// Whether the previous occurrence was reported: a send after a
        /// throttled occurrence is marked non-contiguous so the planner's
        /// bank does not train across the gap.
        prev_sent: bool,
    },
    /// The main thread trains at every occurrence and plans and dispatches
    /// on every miss — to the pool, or inline when there is none.
    MissDriven {
        bank: PredictorBank,
        economics: SpeculationEconomics,
        pool: Option<SpeculationPool>,
        /// Final counters of a pool the watchdog tore down mid-run.
        torn_down: Option<PoolStats>,
        /// Inline speculation reuses one scratch across the whole run, so
        /// blocks the tier compiles for the first speculated superstep keep
        /// paying off for every later one.
        scratch: SpeculationScratch,
        superstep_estimate: f64,
    },
    /// Single-core memoization: every miss executes the live state's
    /// superstep tracked on `scratch` and caches it.
    Reuse {
        scratch: SpeculationScratch,
        /// `memoize`'s `(virtual instructions retired, scaling so far)` at
        /// every occurrence, charging `query_overhead`
        /// instruction-equivalents per cache consultation (`overhead` so
        /// far).
        series: &'a mut Vec<(u64, f64)>,
        query_overhead: f64,
        overhead: f64,
    },
}

impl Dispatch<'_> {
    /// Miss-driven dispatch from a cold bank and the economics' optimistic
    /// prior — how a run without a planner starts, and how one whose
    /// planner is gone continues (its learned state died with its thread).
    fn miss_driven(config: &AscConfig, rip: RecognizedIp, pool: Option<SpeculationPool>) -> Self {
        Dispatch::MissDriven {
            bank: PredictorBank::new(rip.ip, config),
            economics: SpeculationEconomics::new(&config.economics),
            pool,
            torn_down: None,
            scratch: SpeculationScratch::with_tier(config.tier),
            superstep_estimate: rip.mean_superstep,
        }
    }
}

fn new_pool(
    config: &AscConfig,
    cache: &Arc<TrajectoryCache>,
    supervision: &Supervision,
) -> SpeculationPool {
    SpeculationPool::with_supervision(config.workers, Arc::clone(cache), supervision.clone())
}

/// Everything one `accelerate` or `memoize` call owns between recognition
/// and its report: the main thread's machine, the cache, the supervision
/// and durability context, and the `Dispatch` mode.
struct Run<'a> {
    config: &'a AscConfig,
    outcome: &'a RecognizerOutcome,
    machine: Machine,
    cache: Arc<TrajectoryCache>,
    supervision: Supervision,
    breaker: CircuitBreaker,
    /// Totals of the monotone success and failure counters the breaker is
    /// fed from, as of the previous occurrence: it records only deltas.
    breaker_seen: (u64, u64),
    dispatch: Dispatch<'a>,
    /// The watchdog's liveness signal, ticked once per occurrence.
    heartbeat: Arc<Heartbeat>,
    checkpoints: Option<CheckpointDriver>,
    shutdown: Option<Arc<AtomicBool>>,
    /// Run-wide occurrence ordinal; survives a `Dispatch` swap and, via
    /// checkpoints, process restarts.
    occurrence: u64,
    /// Whether the watchdog's stage-1 escalation has been applied — the
    /// breaker is force-opened once, then left to its own recovery clock.
    breaker_forced: bool,
    fast_forwarded: u64,
    halted: bool,
}

impl<'a> Run<'a> {
    /// A run from the recognizer's resume point, with no checkpointing, no
    /// shutdown flag and nothing fast-forwarded yet; `accelerate` overrides
    /// what it restores from a checkpoint.
    fn new(
        config: &'a AscConfig,
        outcome: &'a RecognizerOutcome,
        cache: Arc<TrajectoryCache>,
        supervision: Supervision,
        heartbeat: Arc<Heartbeat>,
        dispatch: Dispatch<'a>,
    ) -> Self {
        Run {
            config,
            outcome,
            machine: Machine::from_state(outcome.resume_state.clone()),
            cache,
            supervision,
            breaker: CircuitBreaker::new(config.breaker.clone()),
            breaker_seen: (0, 0),
            dispatch,
            heartbeat,
            checkpoints: None,
            shutdown: None,
            occurrence: 0,
            breaker_forced: false,
            fast_forwarded: 0,
            halted: outcome.halted,
        }
    }

    /// The occurrence loop (see the module documentation): runs until the
    /// program halts, the instruction budget is exhausted or the shutdown
    /// flag is raised, then assembles the report.
    fn drive(mut self) -> AscResult<RunReport> {
        // Hits are cloned into one reusable scratch: the loop allocates
        // nothing per occurrence.
        let mut lookup = LookupScratch::new();
        let rip = self.outcome.rip;
        while !self.halted && within_budget(self.config, self.outcome, &self.machine) {
            if !self.begin_occurrence() {
                break;
            }
            let speculating = self.breaker.allows_speculation();
            let sent = self.notify_planner(speculating);
            if let Some(entry) = self.cache.lookup_with(rip.ip, self.machine.state(), &mut lookup) {
                self.apply_hit(entry, sent);
            } else {
                self.speculate_on_miss(speculating, sent, &mut lookup);
                let executed = self.execute_superstep()?;
                if executed == 0 {
                    break;
                }
                if let Dispatch::MissDriven { superstep_estimate, .. } = &mut self.dispatch {
                    *superstep_estimate = 0.9 * *superstep_estimate + 0.1 * executed as f64;
                }
            }
            self.sample_scaling();
        }
        Ok(self.finish())
    }

    /// The occurrence prelude: the main thread is at a recognized-IP
    /// occurrence (or at the very start of the post-recognition phase), so
    /// replace a dead planner, count the occurrence, feed the watchdog's
    /// heartbeat, take the escalation, shutdown and checkpoint decisions,
    /// and advance the breaker — all before any speculation bookkeeping.
    /// Returns `false` when the shutdown flag ends the run here.
    fn begin_occurrence(&mut self) -> bool {
        // A dead planner leaves occurrences landing in a channel nobody
        // drains: finish the run under miss-driven dispatch on a fresh pool.
        // Its unwind already shut its own pool down.
        if matches!(&self.dispatch, Dispatch::Planned { planner, .. } if !planner.is_alive()) {
            let pool = new_pool(self.config, &self.cache, &self.supervision);
            self.degrade_to_miss_driven(Some(pool));
        }
        self.occurrence += 1;
        self.heartbeat.tick();
        if self.supervision.abort_at(self.occurrence) {
            // Injected crash: die as SIGABRT mid-run, exactly like a kill
            // signal, leaving whatever checkpoints already landed.
            std::process::abort();
        }
        let stage = self.heartbeat.stage();
        let stage = if self.supervision.stall_at(self.occurrence, stage) {
            stall_until_escalation(&self.heartbeat, stage)
        } else {
            stage
        };
        if stage >= watchdog_stage::FORCE_BREAKER && !self.breaker_forced {
            self.breaker_forced = true;
            self.breaker.force_open();
        }
        if stage >= watchdog_stage::TEAR_DOWN_POOL {
            // Shed the stalled machinery and finish inline: no fresh pool.
            match &mut self.dispatch {
                Dispatch::Planned { .. } => self.degrade_to_miss_driven(None),
                Dispatch::MissDriven { pool, torn_down, .. } => {
                    if let Some(pool) = pool.take() {
                        *torn_down = Some(pool.shutdown());
                    }
                }
                Dispatch::Reuse { .. } => {}
            }
        }
        // A raised shutdown flag flushes a final checkpoint and stops.
        let stop = self.shutdown.as_ref().is_some_and(|flag| flag.load(Ordering::Relaxed));
        self.checkpoint(stop);
        if stop {
            return false;
        }
        self.tick_breaker();
        true
    }

    /// Advances the breaker clock (cooldown → half-open) and feeds it the
    /// success/failure deltas since the previous occurrence. Failures are
    /// worker panics and deadline kills (from the shared
    /// [`HealthMonitor`](crate::supervisor::HealthMonitor)) plus cache
    /// integrity rejects (checksum and collision); successes are normally
    /// retired speculation jobs. All are relaxed atomic loads — the breaker
    /// itself stays single-threaded on the main loop.
    fn tick_breaker(&mut self) {
        self.breaker.tick_occurrence();
        let successes = self.supervision.health.jobs_ok();
        let failures = self.supervision.health.failure_events() + self.cache.integrity_failures();
        let (successes_seen, failures_seen) = self.breaker_seen;
        self.breaker.record(
            successes.saturating_sub(successes_seen),
            failures.saturating_sub(failures_seen),
        );
        self.breaker_seen = (successes, failures);
    }

    /// Saves a checkpoint when the occurrence count lands on the interval
    /// (or unconditionally on `force` — the graceful-shutdown flush),
    /// bringing the trajectory cache along as a sibling snapshot. The
    /// learned state rides along when the main thread owns it: a planned
    /// run's bank and economics live on the planner thread and re-warm
    /// after resume, like the dead-planner degrade. Failures are counted,
    /// never propagated: losing durability must not cost the run.
    fn checkpoint(&mut self, force: bool) {
        let Some(driver) = &mut self.checkpoints else { return };
        let cfg = &self.config.checkpoint;
        let occurrence = self.occurrence;
        if !force && occurrence % cfg.interval != 0 {
            return;
        }
        if force && driver.stats.saves > 0 && driver.stats.last_occurrence == occurrence {
            return; // The interval save this very occurrence already flushed.
        }
        let dir = cfg.directory.as_deref().expect("validated: checkpointing needs a directory");
        // The cache snapshot goes first: the checkpoint file's rename is the
        // commit point, and a checkpoint whose sibling is missing merely
        // resumes with a cold cache.
        let _ = std::fs::create_dir_all(dir);
        let _ = snapshot::save(&self.cache, &checkpoint::cache_path_for(dir, driver.next_sequence));
        let mut ckpt = RunCheckpoint {
            sequence: driver.next_sequence,
            fingerprint: driver.fingerprint,
            occurrence,
            rip: self.outcome.rip,
            unique_ips: self.outcome.unique_ips,
            converge_instructions: self.outcome.instructions_spent,
            resume_instret: self.outcome.resume_instret + self.machine.instret(),
            fast_forwarded: self.fast_forwarded,
            state: self.machine.state().as_bytes().to_vec(),
            bank: None,
            economics: None,
        };
        if let Dispatch::MissDriven { bank, economics, .. } = &self.dispatch {
            bank.save_state(ckpt.bank.insert(Vec::new()));
            economics.save_state(ckpt.economics.insert(Vec::new()));
        }
        match checkpoint::save(dir, &ckpt, cfg.keep) {
            Ok(bytes) => {
                driver.stats.saves += 1;
                driver.stats.last_occurrence = occurrence;
                driver.stats.bytes_written += bytes;
                driver.next_sequence += 1;
            }
            Err(_) => driver.stats.save_failures += 1,
        }
    }

    /// Swaps a planner (joining its thread and pool) for miss-driven
    /// dispatch on `pool`. Degrades the run, never aborts it. A planner that
    /// panicked — whether the liveness check caught it or it died just
    /// before a watchdog teardown — is counted here, where it is joined.
    fn degrade_to_miss_driven(&mut self, pool: Option<SpeculationPool>) {
        let fresh = Dispatch::miss_driven(self.config, self.outcome.rip, pool);
        if let Dispatch::Planned { planner, .. } = std::mem::replace(&mut self.dispatch, fresh) {
            if planner.shutdown().is_none() {
                self.supervision.health.record_planner_panics(1);
            }
        }
    }

    /// Planned mode, before the lookup: reports the occurrence to the
    /// planner (never blocks; drop-oldest) and yields. Returns whether the
    /// occurrence was reported. An open breaker suppresses the report — a
    /// planner that hears no occurrences trains nothing, re-plans nothing
    /// and tops nothing up, so speculation quiesces while the machinery is
    /// sick (residual queued jobs drain and stragglers are dropped by the
    /// breaker).
    fn notify_planner(&self, speculating: bool) -> bool {
        let Dispatch::Planned { planner, hit_streak, prev_sent } = &self.dispatch else {
            return false;
        };
        let sent = speculating && hit_streak % STREAK_SEND_INTERVAL == 0;
        if sent {
            planner.send(OccurrenceEvent {
                state: self.machine.state().clone(),
                contiguous: *prev_sent,
            });
        }
        // An occurrence boundary is the natural preemption point: on
        // machines with fewer spare cores than threads, handing the
        // scheduler an explicit yield here is what keeps the planner and
        // workers running ahead of a fast-forwarding main thread — a
        // starved planner plans from stale states and every speculation
        // it dispatches arrives too late to matter. Unlike the state
        // clone, the yield is kept on *every* occurrence: skipping it
        // mid-streak lets the main thread outrun the workers extending
        // the cached frontier and collapses the hit rate on
        // core-constrained hosts. With the breaker open there is nobody
        // worth yielding to.
        if speculating {
            std::thread::yield_now();
        }
        sent
    }

    /// Fast-forwards through a cache hit.
    fn apply_hit(&mut self, entry: &CacheEntry, sent: bool) {
        self.machine.apply_sparse(&entry.end);
        self.fast_forwarded += entry.instructions;
        match &mut self.dispatch {
            Dispatch::Planned { hit_streak, prev_sent, .. } => {
                *hit_streak += 1;
                *prev_sent = sent;
            }
            Dispatch::MissDriven { bank, economics, .. } => {
                economics.record_lookup(true);
                bank.observe(self.machine.state());
            }
            Dispatch::Reuse { .. } => {}
        }
    }

    /// A miss: planned mode makes sure the planner has this state as its
    /// re-plan anchor; miss-driven mode trains on the occurrence and
    /// dispatches speculative work.
    fn speculate_on_miss(&mut self, speculating: bool, sent: bool, lookup: &mut LookupScratch) {
        let rip = self.outcome.rip;
        match &mut self.dispatch {
            Dispatch::Planned { planner, hit_streak, prev_sent } => {
                // If the streak throttle skipped this occurrence, report it
                // now. An open breaker leaves the gap in place; the first
                // report after it re-opens is marked non-contiguous so the
                // planner's bank never trains across it.
                if speculating && !sent {
                    planner.send(OccurrenceEvent {
                        state: self.machine.state().clone(),
                        contiguous: *prev_sent,
                    });
                }
                *prev_sent = speculating;
                *hit_streak = 0;
            }
            Dispatch::MissDriven { bank, economics, pool, scratch, superstep_estimate, .. } => {
                economics.record_lookup(false);
                let state = self.machine.state();
                bank.observe(state);
                economics.observe_model(bank.recent_error_rate());
                // Re-planning is skipped while the pool is saturated: the
                // predictor rollout is expensive, and a saturated pool means
                // the predictions from the previous occurrence are still
                // being speculated — re-deriving (largely overlapping) ones
                // would only be deduplicated at dispatch anyway. An open
                // breaker skips it entirely: a sick runtime executes
                // plainly, paying nothing for speculation until the
                // half-open probe.
                let pool_saturated = pool.as_ref().is_some_and(SpeculationPool::is_saturated);
                if !speculating || !bank.is_ready() || pool_saturated {
                    return;
                }
                // The rollout itself is priced: a rip whose predictions are
                // not landing gets a collapsed horizon, so the expensive
                // chained prediction work shrinks along with the dispatches.
                let horizon = economics.horizon(self.config.rollout_depth);
                let tasks = plan_speculation(
                    bank.rollout(state, horizon),
                    *superstep_estimate,
                    self.config.rollout_depth,
                    &self.cache,
                    rip.ip,
                    lookup,
                    economics,
                );
                for task in tasks {
                    let job = SpeculationJob {
                        start: task.predicted.state,
                        rip: rip.ip,
                        stride: rip.stride,
                        max_instructions: self.config.max_superstep,
                    };
                    match pool.as_mut() {
                        // Hand the superstep to a worker; the main thread
                        // continues immediately. A full queue drops the task.
                        Some(pool) => _ = pool.dispatch(job),
                        None => speculate_inline(&job, &self.cache, &self.supervision, scratch),
                    }
                }
            }
            Dispatch::Reuse { .. } => {}
        }
    }

    /// A miss: the main thread executes the superstep — until the
    /// recognized IP has occurred `rip.stride` more times, the program halts
    /// or the superstep budget runs out — and returns the instructions it
    /// retired. Reuse executes it tracked and caches it.
    fn execute_superstep(&mut self) -> AscResult<u64> {
        let (rip, budget) = (self.outcome.rip, self.config.max_superstep);
        if let Dispatch::Reuse { scratch, .. } = &mut self.dispatch {
            let (entry, halted) =
                capture_superstep(&mut self.machine, rip.ip, rip.stride, budget, scratch)?;
            self.halted = halted;
            let executed = entry.instructions;
            if executed > 0 {
                self.cache.insert(entry);
            }
            return Ok(executed);
        }
        let mut executed = 0u64;
        for _ in 0..rip.stride.max(1) {
            let remaining = budget.saturating_sub(executed).max(1);
            executed += self.machine.run_until_ip(rip.ip, remaining)?.0;
            if self.machine.is_halted() || executed >= budget {
                break;
            }
        }
        self.halted = self.machine.is_halted();
        Ok(executed)
    }

    /// Reuse mode, after every occurrence: samples the work scaling so far.
    fn sample_scaling(&mut self) {
        let Dispatch::Reuse { query_overhead, overhead, series, .. } = &mut self.dispatch else {
            return;
        };
        *overhead += *query_overhead;
        let executed = self.outcome.resume_instret + self.machine.instret();
        let virtual_instructions = executed + self.fast_forwarded;
        let real_cost = executed as f64 + *overhead;
        series.push((virtual_instructions, virtual_instructions as f64 / real_cost.max(1.0)));
    }

    /// Joins the speculation machinery, so every in-flight insert has
    /// landed and the reported statistics are stable, then assembles the
    /// report.
    fn finish(self) -> RunReport {
        let mut tier = self.machine.tier_stats();
        let mut report =
            RunReport::base(self.outcome, self.machine, self.fast_forwarded, self.halted);
        let bank = match self.dispatch {
            Dispatch::MissDriven { bank, economics, pool, torn_down, mut scratch, .. } => {
                // A pool the watchdog tore down mid-run already joined; its
                // counters stand.
                report.speculation = pool.map(SpeculationPool::shutdown).or(torn_down);
                report.economics = Some(economics.stats());
                tier.merge(&scratch.take_tier_stats());
                Some(bank)
            }
            Dispatch::Planned { planner, .. } => match planner.shutdown() {
                Some(PlannerOutcome { stats, pool, bank, economics }) => {
                    report.speculation = Some(pool);
                    report.planner = Some(stats);
                    report.economics = Some(economics);
                    Some(bank)
                }
                // The planner panicked between the loop's last liveness
                // check and the join: the program result is unaffected (it
                // was computed on the main thread), only the planner-side
                // statistics died with the thread.
                None => {
                    self.supervision.health.record_planner_panics(1);
                    None
                }
            },
            Dispatch::Reuse { mut scratch, .. } => {
                tier.merge(&scratch.take_tier_stats());
                None
            }
        };
        if let Some(bank) = bank {
            report.excited_bits = bank.excited_bits();
            report.ensemble_errors = bank.errors();
            report.weight_matrix = bank.weight_matrix();
        }
        if let Some(stats) = &report.speculation {
            tier.merge(&stats.tier);
        }
        report.tier = tier;
        report.cache_stats = self.cache.stats();
        // Health counters have three homes: the shared monitor, the main
        // loop's breaker and heartbeat, and the cache's checksum rejects.
        report.health = self.supervision.health.snapshot();
        self.breaker.fill_stats(&mut report.health);
        self.heartbeat.fill_stats(&mut report.health);
        report.health.checksum_rejects = report.cache_stats.checksum_rejects;
        report.checkpoints = self.checkpoints.map(|driver| driver.stats);
        report
    }
}

/// Whether a run may execute more: the budget gates *executed*
/// instructions, recognition included — fast-forwards are free.
fn within_budget(config: &AscConfig, outcome: &RecognizerOutcome, machine: &Machine) -> bool {
    outcome.resume_instret + machine.instret() < config.instruction_budget
}

/// Parks the main thread after an injected stall until the watchdog
/// notices and escalates past `from` (bounded so a watchdog-less
/// configuration cannot hang the run forever). Returns the stage now in
/// force.
fn stall_until_escalation(heartbeat: &Heartbeat, from: u8) -> u8 {
    let give_up = Instant::now() + Duration::from_secs(30);
    while heartbeat.stage() <= from && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(1));
    }
    heartbeat.stage()
}

/// Inline (`workers == 0`) execution of one speculation job under
/// the same supervision policy the worker pool applies: the job deadline
/// binds when it is tighter than the superstep budget, and every
/// retirement feeds the breaker's success or failure counters.
fn speculate_inline(
    job: &SpeculationJob,
    cache: &TrajectoryCache,
    supervision: &Supervision,
    scratch: &mut SpeculationScratch,
) {
    let (budget, deadline_bound) = supervision.job_budget(job.max_instructions);
    let result = execute_superstep_with(&job.start, job.rip, job.stride, budget, scratch);
    match result.ok().and_then(SpeculationResult::completed) {
        Some(speculation) if speculation.reached_rip || speculation.halted => {
            cache.insert(speculation.entry);
            supervision.health.record_jobs_ok(1);
        }
        Some(_) if deadline_bound => supervision.health.record_deadline_kills(1),
        // Exhausting the job's own budget, or faulting from a mispredicted
        // start state, is a normal speculation outcome.
        _ => supervision.health.record_jobs_ok(1),
    }
}

/// The LASC runtime.
#[derive(Debug, Clone)]
pub struct LascRuntime {
    config: AscConfig,
    shutdown: Option<Arc<AtomicBool>>,
}

impl LascRuntime {
    /// Creates a runtime with the given configuration.
    ///
    /// # Errors
    /// Returns [`AscError::InvalidConfig`](crate::error::AscError::InvalidConfig)
    /// when the configuration is inconsistent.
    pub fn new(config: AscConfig) -> AscResult<Self> {
        config.validate()?;
        Ok(LascRuntime { config, shutdown: None })
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &AscConfig {
        &self.config
    }

    /// Installs a cooperative shutdown flag for [`accelerate`]: once the
    /// flag reads `true`, the run writes a final checkpoint at the next
    /// occurrence boundary (when checkpointing is enabled) and returns
    /// early with `halted == false`. Wire a SIGTERM/SIGINT handler to the
    /// flag to get flush-before-exit behaviour; the flush is best-effort
    /// and bounded by one occurrence of latency.
    ///
    /// [`accelerate`]: LascRuntime::accelerate
    pub fn set_shutdown_flag(&mut self, flag: Arc<AtomicBool>) {
        self.shutdown = Some(flag);
    }

    /// Measured (unaccelerated) execution with full observation; see the
    /// module documentation.
    ///
    /// # Errors
    /// Propagates recognizer and simulator errors; in particular
    /// [`AscError::NoRecognizedIp`] / [`AscError::ProgramTooShort`] when the
    /// program has nothing to speculate on.
    ///
    /// [`AscError::NoRecognizedIp`]: crate::error::AscError::NoRecognizedIp
    /// [`AscError::ProgramTooShort`]: crate::error::AscError::ProgramTooShort
    pub fn measure(&self, program: &Program) -> AscResult<RunReport> {
        let initial = program.initial_state()?;
        let outcome = recognize(&initial, &self.config)?;
        let rip = outcome.rip;

        let mut machine = Machine::from_state(outcome.resume_state.clone());
        let mut scratch = SpeculationScratch::with_tier(self.config.tier);
        let mut bank = PredictorBank::new(rip.ip, &self.config);
        let mut supersteps = Vec::new();
        let mut pending_prediction: Option<StateVector> = None;
        let (mut halted, budget) = (outcome.halted, self.config.max_superstep);

        while !halted && within_budget(&self.config, &outcome, &machine) {
            let (entry, now_halted) =
                capture_superstep(&mut machine, rip.ip, rip.stride, budget, &mut scratch)?;
            halted = now_halted;
            if entry.instructions == 0 {
                break;
            }
            let state = machine.state();
            let prediction_correct = pending_prediction.take().map(|predicted| {
                entry
                    .start
                    .positions()
                    .all(|byte| predicted.byte(byte as usize) == state.byte(byte as usize))
            });
            supersteps.push(SuperstepRecord {
                index: supersteps.len(),
                instructions: entry.instructions,
                read_bytes: entry.start.len(),
                write_bytes: entry.end.len(),
                query_bits: entry.start.encoded_bits(),
                prediction_correct,
            });

            if !halted {
                bank.observe(state);
                if bank.is_ready() {
                    pending_prediction = bank.predict_next(state).map(|p| p.state);
                }
            }
        }

        Ok(RunReport {
            excited_bits: bank.excited_bits(),
            supersteps,
            ensemble_errors: bank.errors(),
            weight_matrix: bank.weight_matrix(),
            tier: scratch.take_tier_stats(),
            ..RunReport::base(&outcome, machine, 0, halted)
        })
    }

    /// Accelerated execution: the trajectory cache, predictors, allocator,
    /// speculative execution and the supervision layer are all in the loop
    /// (see the module documentation for the loop and its dispatch modes).
    /// Final program state is bit-for-bit identical to sequential execution
    /// in every mode, *including* runs where workers panic, jobs overrun
    /// their deadline, cache entries are corrupted in flight, the planner
    /// dies, or the circuit breaker degrades the run to plain inline
    /// execution — failures only ever cost speed.
    ///
    /// # Errors
    /// Propagates recognizer and simulator errors.
    pub fn accelerate(&self, program: &Program) -> AscResult<RunReport> {
        let initial = program.initial_state()?;
        let fingerprint = checkpoint::run_fingerprint(&self.config, &initial);
        let (outcome, restored, resume_stats) = self.resume_or_recognize(&initial, fingerprint)?;
        let rip = outcome.rip;
        let cache = Arc::new(TrajectoryCache::with_junk_threshold(
            self.config.cache_capacity,
            self.config.cache_junk_threshold,
        ));
        let mut checkpoints = self.config.checkpoint.enabled.then(|| CheckpointDriver {
            fingerprint,
            next_sequence: restored.as_ref().map_or(1, |ckpt| ckpt.sequence + 1),
            stats: resume_stats,
        });
        // Warm the cache from the checkpoint's sibling snapshot before any
        // speculation machinery starts; a missing or damaged sibling is a
        // cold cache, nothing worse.
        let cfg = &self.config.checkpoint;
        if let (Some(driver), Some(ckpt), Some(dir)) =
            (checkpoints.as_mut(), restored.as_ref(), &cfg.directory)
        {
            if let Ok(load) =
                snapshot::load(&cache, &checkpoint::cache_path_for(dir, ckpt.sequence))
            {
                driver.stats.cache_entries_loaded = load.loaded;
            }
        }
        let supervision = Supervision::from_config(&self.config);
        let heartbeat = Arc::new(Heartbeat::default());
        let watchdog = Watchdog::start(
            &self.config.watchdog,
            Arc::clone(&heartbeat),
            Arc::clone(&supervision.health),
            rip.ip,
        );
        let dispatch = self.start_dispatch(rip, &cache, &supervision, restored.as_ref());
        let mut run = Run {
            checkpoints,
            shutdown: self.shutdown.clone(),
            occurrence: restored.as_ref().map_or(0, |ckpt| ckpt.occurrence),
            fast_forwarded: restored.as_ref().map_or(0, |ckpt| ckpt.fast_forwarded),
            ..Run::new(&self.config, &outcome, cache, supervision, heartbeat, dispatch)
        };
        // Tier-up the main thread: the inter-occurrence region starting at
        // the recognized IP is hot by construction, so seed it rather than
        // waiting for the arrival counter to discover what the recognizer
        // already measured.
        run.machine.enable_tier(self.config.tier);
        run.machine.seed_hot(rip.ip);
        let result = run.drive();
        // The watchdog outlives the loop and the joins in `Run::finish`, so
        // a hang *anywhere* in the run is caught.
        if let Some(watchdog) = watchdog {
            watchdog.finish();
        }
        result
    }

    /// Restores the newest intact checkpoint into a synthesized
    /// [`RecognizerOutcome`] (the recognizer already ran — its verdict was
    /// checkpointed), or runs the recognizer when there is nothing to
    /// resume. The returned stats carry the scan's damage accounting.
    fn resume_or_recognize(
        &self,
        initial: &StateVector,
        fingerprint: u64,
    ) -> AscResult<(RecognizerOutcome, Option<RunCheckpoint>, CheckpointStats)> {
        let mut stats = CheckpointStats::default();
        let cfg = &self.config.checkpoint;
        if let Some(dir) = cfg.directory.as_ref().filter(|_| cfg.enabled && cfg.resume) {
            let scan = checkpoint::load_newest(dir, fingerprint);
            stats.rejected_files = scan.rejected_files;
            if let Some(ckpt) = scan.checkpoint {
                match StateVector::from_bytes(ckpt.state.clone()) {
                    Ok(resume_state) => {
                        stats.resumed = true;
                        stats.resume_sequence = ckpt.sequence;
                        let outcome = RecognizerOutcome {
                            rip: ckpt.rip,
                            evaluated: vec![ckpt.rip],
                            candidates: Vec::new(),
                            unique_ips: ckpt.unique_ips,
                            instructions_spent: ckpt.converge_instructions,
                            resume_state,
                            resume_instret: ckpt.resume_instret,
                            halted: false,
                        };
                        return Ok((outcome, Some(ckpt), stats));
                    }
                    // A state the TVM rejects cannot have been written by a
                    // healthy save; treat it as damage.
                    Err(_) => stats.rejected_files += 1,
                }
            }
        }
        Ok((recognize(initial, &self.config)?, None, stats))
    }

    /// Picks the run's starting `Dispatch` mode: planned when there are
    /// workers and the planner is enabled (and its thread starts),
    /// miss-driven otherwise.
    fn start_dispatch(
        &self,
        rip: RecognizedIp,
        cache: &Arc<TrajectoryCache>,
        supervision: &Supervision,
        restored: Option<&RunCheckpoint>,
    ) -> Dispatch<'static> {
        let config = &self.config;
        if config.workers > 0 && config.planner.enabled {
            let pool = new_pool(config, cache, supervision);
            match PlannerHandle::spawn(config, rip, Arc::clone(cache), pool) {
                Ok(planner) => {
                    return Dispatch::Planned { planner, hit_streak: 0, prev_sent: true }
                }
                // A planner that cannot start degrades the run to
                // miss-driven dispatch instead of aborting it. The pool
                // travelled into the failed spawn; a fresh one is built
                // below.
                Err(_) => supervision.health.record_spawn_failures(1),
            }
        }
        let pool = (config.workers > 0).then(|| new_pool(config, cache, supervision));
        let mut dispatch = Dispatch::miss_driven(config, rip, pool);
        // The learned state rides along from the checkpoint purely as a
        // warm-up: a blob that fails to restore (or was never saved —
        // planner-mode checkpoints omit it) re-warms from scratch exactly
        // like the dead-planner degrade. Bit-identity never depends on it.
        if let (Some(ckpt), Dispatch::MissDriven { bank, economics, .. }) =
            (restored, &mut dispatch)
        {
            if let Some(blob) = &ckpt.bank {
                if bank.load_state(&mut Reader::new(blob)).is_none() {
                    *bank = PredictorBank::new(rip.ip, config);
                }
            }
            if let Some(blob) = &ckpt.economics {
                if economics.load_state(&mut Reader::new(blob)).is_none() {
                    *economics = SpeculationEconomics::new(&config.economics);
                }
            }
        }
        dispatch
    }

    /// Single-core generalized memoization (Figure 6, rightmost plot): no
    /// prediction and no speculative threads — the cache is populated from the
    /// program's *own past* supersteps, and execution fast-forwards whenever
    /// the current state matches one of them on its dependency set. This is
    /// the occurrence loop's Reuse mode (see the module documentation); it
    /// writes and resumes no checkpoints. Returns the run report plus a time
    /// series of `(virtual instructions retired, scaling so far)` sampled at
    /// every recognized-IP occurrence, where the scaling denominator charges
    /// `query_overhead` extra instruction-equivalents per cache consultation.
    ///
    /// # Errors
    /// Propagates recognizer and simulator errors.
    pub fn memoize(
        &self,
        program: &Program,
        query_overhead: f64,
    ) -> AscResult<(RunReport, Vec<(u64, f64)>)> {
        let outcome = recognize_recurring(&program.initial_state()?, &self.config)?;
        let cache = Arc::new(TrajectoryCache::with_junk_threshold(
            self.config.cache_capacity,
            self.config.cache_junk_threshold,
        ));
        let scratch = SpeculationScratch::with_tier(self.config.tier);
        let mut series = Vec::new();
        let dispatch =
            Dispatch::Reuse { scratch, series: &mut series, query_overhead, overhead: 0.0 };
        // No speculation machinery to supervise, so no fault plan either.
        let (supervision, heartbeat) = (Supervision::default(), Arc::new(Heartbeat::default()));
        let report =
            Run::new(&self.config, &outcome, cache, supervision, heartbeat, dispatch).drive()?;
        Ok((report, series))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AscError;
    use asc_workloads::registry::{build, Benchmark, Scale};
    use asc_workloads::{collatz, ising};

    fn test_runtime() -> LascRuntime {
        LascRuntime::new(AscConfig::for_tests()).unwrap()
    }

    #[test]
    fn measure_collatz_produces_a_trace_and_high_accuracy() {
        let workload = build(Benchmark::Collatz, Scale::Tiny).unwrap();
        let report = test_runtime().measure(&workload.program).unwrap();
        assert!(report.halted);
        assert!(workload.verify(&report.final_state), "measure must not change results");
        assert!(
            report.supersteps.len() > 20,
            "expected many supersteps, got {}",
            report.supersteps.len()
        );
        assert!(report.mean_superstep() >= 50.0);
        assert!(report.one_step_accuracy() > 0.6, "accuracy {}", report.one_step_accuracy());
        assert!(report.converge_instructions > 0);
        assert!(report.state_bits > 0);
        assert!(report.mean_query_bits() > 0.0);
        // Prediction error statistics exist and are internally consistent.
        let errors = report.ensemble_errors.unwrap();
        assert!(errors.total_predictions > 10);
        assert!(errors.hindsight_optimal_error_rate <= errors.equal_weight_error_rate + 1e-9);
    }

    #[test]
    fn measure_ising_tracks_pointer_chasing() {
        // Size the exploration window so the recognizer profiles well into the
        // list walk (the init phase alone is ~18k instructions here).
        let params = ising::IsingParams { nodes: 64, spins: 24, reps: 4, seed: 3 };
        let program = ising::program(&params).unwrap();
        let config = AscConfig { explore_instructions: 22_000, ..AscConfig::for_tests() };
        let report = LascRuntime::new(config).unwrap().measure(&program).unwrap();
        assert!(report.halted);
        assert!(report.one_step_accuracy() > 0.5, "accuracy {}", report.one_step_accuracy());
        let got = ising::read_result(&program, &report.final_state, &params).unwrap();
        assert_eq!(got, ising::reference(&params));
    }

    #[test]
    fn accelerate_collatz_is_correct_and_skips_work() {
        let params = collatz::CollatzParams { start: 2, count: 500 };
        let program = collatz::program(&params).unwrap();
        let report = test_runtime().accelerate(&program).unwrap();
        assert!(report.halted);
        let got = collatz::read_result(&program, &report.final_state).unwrap();
        assert_eq!(got, collatz::reference(&params), "speculation must not change results");
        // The cache must have produced real fast-forwarding.
        assert!(report.fast_forwarded_instructions > 0, "{report:?}");
        assert!(report.cache_stats.hits > 0);
        assert!(report.work_scaling() > 1.2, "work scaling {}", report.work_scaling());
        // The tier is on by default and the recognized IP is seeded hot, so
        // an accelerated run must retire real tier-1 work.
        assert!(report.tier.blocks_compiled > 0, "{:?}", report.tier);
        assert!(report.tier.tier1_instructions > 0, "{:?}", report.tier);
    }

    #[test]
    fn accelerate_with_tier_disabled_matches_tier_enabled_results() {
        let params = collatz::CollatzParams { start: 2, count: 300 };
        let program = collatz::program(&params).unwrap();
        let on = test_runtime().accelerate(&program).unwrap();
        let off_config =
            AscConfig { tier: asc_tvm::TierConfig::disabled(), ..AscConfig::for_tests() };
        let off = LascRuntime::new(off_config).unwrap().accelerate(&program).unwrap();
        assert_eq!(on.final_state, off.final_state, "tier must not change results");
        assert_eq!(on.total_instructions, off.total_instructions);
        assert_eq!(off.tier.blocks_compiled, 0, "{:?}", off.tier);
        assert!(on.tier.tier1_instructions > 0, "{:?}", on.tier);
    }

    #[test]
    fn accelerate_ising_is_correct_and_hits_cache() {
        let params = ising::IsingParams { nodes: 64, spins: 24, reps: 4, seed: 9 };
        let program = ising::program(&params).unwrap();
        let config = AscConfig { explore_instructions: 22_000, ..AscConfig::for_tests() };
        let report = LascRuntime::new(config).unwrap().accelerate(&program).unwrap();
        assert!(report.halted);
        let got = ising::read_result(&program, &report.final_state, &params).unwrap();
        assert_eq!(got, ising::reference(&params));
        assert!(report.cache_stats.queries > 0);
    }

    #[test]
    fn memoize_collatz_reuses_shared_subsequences_correctly() {
        // The Collatz inner loop revisits values (every sequence ends
        // …16, 8, 4, 2, 1), so with a fine-grained recognized IP single-core
        // memoization produces real fast-forwarding — Figure 6's rightmost
        // plot — without changing the program's results.
        let params = collatz::CollatzParams { start: 2, count: 400 };
        let program = collatz::pure_program(&params).unwrap();
        let config = AscConfig { min_superstep: 8, ..AscConfig::for_tests() };
        let (report, series) = LascRuntime::new(config).unwrap().memoize(&program, 2.0).unwrap();
        assert!(report.halted);
        let verified = collatz::read_pure_result(&program, &report.final_state).unwrap();
        assert_eq!(verified, params.count, "memoization must not change results");
        assert!(report.fast_forwarded_instructions > 0, "{report:?}");
        assert!(!series.is_empty());
        // Virtual progress is monotone in the series.
        for pair in series.windows(2) {
            assert!(pair[1].0 >= pair[0].0);
        }
    }

    #[test]
    fn straight_line_program_reports_a_clean_error() {
        let program = asc_asm::assemble("main:\n movi r1, 1\n halt\n").unwrap();
        let err = test_runtime().measure(&program).unwrap_err();
        assert!(matches!(err, AscError::ProgramTooShort { .. } | AscError::NoRecognizedIp));
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let config = AscConfig { rollout_depth: 0, ..AscConfig::default() };
        assert!(LascRuntime::new(config).is_err());
    }

    #[test]
    fn interrupted_accelerate_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("asc-resume-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let params = collatz::CollatzParams { start: 2, count: 500 };
        let program = collatz::program(&params).unwrap();
        let reference = test_runtime().accelerate(&program).unwrap();
        assert!(reference.halted);

        // First leg: checkpoint every 8 occurrences, cut the run short by
        // budget well before completion.
        let mut config = AscConfig::for_tests();
        config.checkpoint.enabled = true;
        config.checkpoint.directory = Some(dir.clone());
        config.checkpoint.interval = 8;
        config.checkpoint.keep = 2;
        config.checkpoint.resume = true;
        // The budget gates *executed* instructions (fast-forwards are free),
        // so cut the post-recognizer execution in half.
        let converge = reference.converge_instructions;
        config.instruction_budget =
            converge + (reference.executed_instructions.saturating_sub(converge)) / 2;
        let first = LascRuntime::new(config.clone()).unwrap().accelerate(&program).unwrap();
        assert!(!first.halted, "the truncated leg must stop early");
        let first_ckpt = first.checkpoints.expect("checkpointing was on");
        assert!(first_ckpt.saves > 0, "{first_ckpt:?}");
        assert!(!first_ckpt.resumed);

        // Second leg: full budget, resumes from the newest checkpoint and
        // must finish in the exact state of the uninterrupted run.
        config.instruction_budget = AscConfig::for_tests().instruction_budget;
        let second = LascRuntime::new(config).unwrap().accelerate(&program).unwrap();
        assert!(second.halted);
        let second_ckpt = second.checkpoints.expect("checkpointing was on");
        assert!(second_ckpt.resumed, "{second_ckpt:?}");
        assert_eq!(second_ckpt.rejected_files, 0, "{second_ckpt:?}");
        assert_eq!(second.final_state, reference.final_state);
        assert_eq!(second.total_instructions, reference.total_instructions);
        let got = collatz::read_result(&program, &second.final_state).unwrap();
        assert_eq!(got, collatz::reference(&params));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_flag_flushes_a_final_checkpoint_and_stops_the_run() {
        let dir = std::env::temp_dir().join(format!("asc-shutdown-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let params = collatz::CollatzParams { start: 2, count: 500 };
        let program = collatz::program(&params).unwrap();
        let mut config = AscConfig::for_tests();
        config.checkpoint.enabled = true;
        config.checkpoint.directory = Some(dir.clone());
        config.checkpoint.resume = true;
        // An interval far beyond the run: the only save can be the flush.
        config.checkpoint.interval = u64::MAX;
        let mut runtime = LascRuntime::new(config.clone()).unwrap();
        let flag = Arc::new(AtomicBool::new(true));
        runtime.set_shutdown_flag(Arc::clone(&flag));
        let report = runtime.accelerate(&program).unwrap();
        assert!(!report.halted, "a pre-set flag must stop the run at the first occurrence");
        let stats = report.checkpoints.expect("checkpointing was on");
        assert_eq!(stats.saves, 1, "{stats:?}");

        // The flushed checkpoint is a valid resume point: clearing the flag
        // and rerunning completes the program from it.
        flag.store(false, Ordering::Relaxed);
        let resumed = runtime.accelerate(&program).unwrap();
        assert!(resumed.halted);
        assert!(resumed.checkpoints.unwrap().resumed);
        let got = collatz::read_result(&program, &resumed.final_state).unwrap();
        assert_eq!(got, collatz::reference(&params));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
