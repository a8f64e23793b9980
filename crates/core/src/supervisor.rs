//! Supervision layer of the speculation runtime: health accounting, the
//! degrade-to-inline circuit breaker, and the shared context that threads
//! both through the worker pool and the planner.
//!
//! The paper's safety argument — speculation can only ever be *discarded*,
//! never change results — covers mispredictions for free. This module
//! extends the same economy to execution failures:
//!
//! - every speculation job, pooled or inline, runs under `catch_unwind`
//!   with an optional per-job instruction deadline; panics and deadline
//!   kills retire the job and release its in-flight permit instead of
//!   wedging the pool, and a panicked job's scratch is replaced so the
//!   worker (or main thread) carries on with the next job,
//! - every contained failure ticks a counter on the shared
//!   [`HealthMonitor`], surfaced as [`HealthStats`] alongside the cache's
//!   [`CacheStats`](crate::cache::CacheStats),
//! - a [`CircuitBreaker`] watches the windowed failure rate and trips the
//!   runtime to plain inline execution when the speculation machinery is
//!   sick, with a half-open probe to recover — never slower-than-inline.
//!
//! The breaker itself is deliberately single-threaded state: it lives on
//! the main thread inside `accelerate`, fed once per recognized-IP
//! occurrence from the monitor's atomic counters (worker-side events) and
//! the cache's integrity-reject total. Thresholds and the breaker's own
//! failure model are documented on [`BreakerConfig`]; the repo-wide
//! failure-model table (every failure class → detection → degradation →
//! counter) lives in `ROBUSTNESS.md` at the repository root.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::config::{AscConfig, BreakerConfig, WatchdogConfig};

/// Snapshot of the supervised runtime's failure counters, reported next to
/// [`CacheStats`](crate::cache::CacheStats) in
/// [`RunReport`](crate::runtime::RunReport).
///
/// All counts cover one `accelerate` run. A healthy fault-free run reports
/// all zeros. Checksum and collision rejects are counted once, in
/// [`CacheStats`](crate::cache::CacheStats).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Speculation jobs whose execution panicked, on a worker or inline;
    /// each was contained by `catch_unwind`, its in-flight permit released,
    /// and its scratch replaced (the scratch state is suspect mid-unwind).
    pub worker_panics: u64,
    /// Worker threads the pool failed to spawn at startup; the pool runs
    /// with fewer workers instead of aborting, down to none, where every
    /// dispatch drops.
    pub spawn_failures: u64,
    /// Worker joins at shutdown that reported a panic no job contained (a
    /// panic outside the per-job `catch_unwind`).
    pub panicked_joins: u64,
    /// Speculation jobs killed for exceeding
    /// [`job_deadline_instructions`](AscConfig::job_deadline_instructions).
    pub deadline_kills: u64,
    /// Planner-thread deaths detected by the main loop (each one falls the
    /// run back to miss-driven dispatch).
    pub planner_panics: u64,
    /// Times the circuit breaker tripped speculation off to inline
    /// execution.
    pub breaker_trips: u64,
    /// Times a half-open probe succeeded and re-closed the breaker.
    pub breaker_recoveries: u64,
    /// Recognized-IP occurrences that ran with the breaker open (speculation
    /// suppressed).
    pub breaker_open_occurrences: u64,
    /// Faults the injector actually fired (always 0 without the
    /// `fault-inject` feature); lets the soak harness assert the campaign
    /// really ran.
    pub injected_faults: u64,
    /// No-progress intervals the liveness [`Watchdog`] detected: the
    /// heartbeat went a full deadline without a single occurrence tick —
    /// livelock, a hung lock or a wedged pool, failure classes the windowed
    /// breaker cannot see because nothing *fails*.
    pub watchdog_stalls: u64,
    /// Escalation stages the watchdog fired in response: stage 1 force-opens
    /// the breaker, stage 2 tears down the worker pool and finishes inline.
    pub watchdog_escalations: u64,
}

/// Thread-shared failure counters ticked by workers, the planner and the
/// main loop; snapshot into [`HealthStats`] when a run reports.
///
/// All counters are relaxed atomics: they are statistics, ordered by the
/// channel and join synchronization that already sequences the events
/// themselves.
#[derive(Debug, Default)]
pub struct HealthMonitor {
    worker_panics: AtomicU64,
    spawn_failures: AtomicU64,
    panicked_joins: AtomicU64,
    deadline_kills: AtomicU64,
    planner_panics: AtomicU64,
    injected_faults: AtomicU64,
    jobs_ok: AtomicU64,
}

macro_rules! monitor_counter {
    ($($(#[$doc:meta])* $record:ident / $read:ident => $field:ident;)*) => {
        $(
            $(#[$doc])*
            pub fn $record(&self, n: u64) {
                self.$field.fetch_add(n, Ordering::Relaxed);
            }

            /// The running total recorded so far.
            pub fn $read(&self) -> u64 {
                self.$field.load(Ordering::Relaxed)
            }
        )*
    };
}

impl HealthMonitor {
    monitor_counter! {
        /// Records contained worker panics.
        record_worker_panics / worker_panics => worker_panics;
        /// Records worker threads that failed to spawn.
        record_spawn_failures / spawn_failures => spawn_failures;
        /// Records panics first surfaced by a shutdown join.
        record_panicked_joins / panicked_joins => panicked_joins;
        /// Records speculation jobs killed at their instruction deadline.
        record_deadline_kills / deadline_kills => deadline_kills;
        /// Records detected planner-thread deaths.
        record_planner_panics / planner_panics => planner_panics;
        /// Records faults the injector fired.
        record_injected_faults / injected_faults => injected_faults;
        /// Records speculation jobs that retired normally — completed,
        /// mispredict-faulted or budget-exhausted. Not a [`HealthStats`]
        /// field (the pool's [`PoolStats`](crate::workers::PoolStats)
        /// already breaks retirements down); it exists as the breaker's
        /// success feed, observable from the main thread in every mode.
        record_jobs_ok / jobs_ok => jobs_ok;
    }

    /// Snapshot of every monitor counter. The breaker and watchdog fields
    /// are filled in by the caller (they live on the main thread).
    pub fn snapshot(&self) -> HealthStats {
        HealthStats {
            worker_panics: self.worker_panics(),
            spawn_failures: self.spawn_failures(),
            panicked_joins: self.panicked_joins(),
            deadline_kills: self.deadline_kills(),
            planner_panics: self.planner_panics(),
            injected_faults: self.injected_faults(),
            ..HealthStats::default()
        }
    }

    /// Total worker-side failure events (panics + deadline kills) — the
    /// monitor's contribution to the breaker's failure feed. The runtime
    /// polls this once per occurrence and feeds the *delta* to the breaker.
    pub fn failure_events(&self) -> u64 {
        self.worker_panics() + self.deadline_kills()
    }
}

/// The breaker's position in its trip/probe cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Speculation runs normally; failures are being watched.
    Closed,
    /// Speculation is suppressed; the runtime executes inline until the
    /// cooldown elapses.
    Open,
    /// Probe mode: speculation runs again, and the next few events decide
    /// between re-closing and re-tripping.
    HalfOpen,
}

/// Windowed failure-rate circuit breaker; thresholds and failure model on
/// [`BreakerConfig`].
///
/// Single-threaded by design: owned by the main loop, fed per-occurrence
/// deltas of the shared failure counters, and consulted before every
/// dispatch decision via [`allows_speculation`].
///
/// [`allows_speculation`]: CircuitBreaker::allows_speculation
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    /// Ring of the last `config.window` events; `true` = failure.
    window: std::collections::VecDeque<bool>,
    failures_in_window: u32,
    state: BreakerState,
    /// Occurrences left before an open breaker half-opens.
    cooldown_remaining: u64,
    /// Consecutive trips without an intervening recovery; scales the
    /// cooldown exponentially (capped at 64×).
    consecutive_trips: u32,
    /// Successes seen so far in the current half-open probe.
    probe_streak: u32,
    trips: u64,
    recoveries: u64,
    open_occurrences: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> Self {
        let window = std::collections::VecDeque::with_capacity(config.window);
        CircuitBreaker {
            config,
            window,
            failures_in_window: 0,
            state: BreakerState::Closed,
            cooldown_remaining: 0,
            consecutive_trips: 0,
            probe_streak: 0,
            trips: 0,
            recoveries: 0,
            open_occurrences: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether the runtime may speculate right now (dispatch to workers,
    /// speculate inline, or stream occurrences to the planner). Open means
    /// no: execute plainly and wait out the cooldown.
    pub fn allows_speculation(&self) -> bool {
        !matches!(self.state, BreakerState::Open)
    }

    /// Times the breaker tripped so far.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Times a half-open probe re-closed the breaker.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Advances per-occurrence time: counts open time and half-opens the
    /// breaker when the cooldown elapses. Call exactly once per
    /// recognized-IP occurrence.
    pub fn tick_occurrence(&mut self) {
        if self.state == BreakerState::Open {
            self.open_occurrences += 1;
            self.cooldown_remaining = self.cooldown_remaining.saturating_sub(1);
            if self.cooldown_remaining == 0 {
                self.state = BreakerState::HalfOpen;
                self.probe_streak = 0;
            }
        }
    }

    /// Feeds `successes` normally retired speculation events and `failures`
    /// failure events (panics, deadline kills, integrity rejects) into the
    /// window, applying state transitions.
    ///
    /// Failures are applied first: when both arrive in one occurrence the
    /// pessimistic order means a failure burst can trip the breaker before
    /// the same batch's successes dilute the window.
    pub fn record(&mut self, successes: u64, failures: u64) {
        for _ in 0..failures {
            self.record_event(true);
        }
        for _ in 0..successes {
            self.record_event(false);
        }
    }

    fn record_event(&mut self, failure: bool) {
        if !self.config.enabled {
            return;
        }
        match self.state {
            BreakerState::Open => {
                // Stragglers from jobs dispatched before the trip; the
                // window restarts from the probe, so drop them.
            }
            BreakerState::HalfOpen => {
                if failure {
                    self.trip();
                } else {
                    self.probe_streak += 1;
                    if self.probe_streak >= self.config.probe_successes {
                        self.state = BreakerState::Closed;
                        self.consecutive_trips = 0;
                        self.recoveries += 1;
                        self.window.clear();
                        self.failures_in_window = 0;
                    }
                }
            }
            BreakerState::Closed => {
                if self.window.len() == self.config.window && self.window.pop_front() == Some(true)
                {
                    self.failures_in_window -= 1;
                }
                self.window.push_back(failure);
                if failure {
                    self.failures_in_window += 1;
                }
                let rate = f64::from(self.failures_in_window) / self.window.len() as f64;
                if self.failures_in_window >= self.config.min_failures
                    && rate >= self.config.failure_threshold
                {
                    self.trip();
                }
            }
        }
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.trips += 1;
        let scale = self.consecutive_trips.min(6);
        self.cooldown_remaining = self.config.cooldown_occurrences << scale;
        self.consecutive_trips += 1;
        self.probe_streak = 0;
        self.window.clear();
        self.failures_in_window = 0;
    }

    /// Trips the breaker open unconditionally — the watchdog's stage-1
    /// escalation. A stalled run has produced no failure *events* to push
    /// through the window, so the watchdog opens the breaker directly;
    /// recovery then follows the normal cooldown → half-open → probe path.
    /// No-op while already open (stalls are detected repeatedly) and for a
    /// disabled breaker (which must never suppress speculation; stage-2
    /// pool teardown still applies).
    pub fn force_open(&mut self) {
        if self.config.enabled && self.state != BreakerState::Open {
            self.trip();
        }
    }

    /// Copies the breaker's counters into a [`HealthStats`] being
    /// assembled.
    pub fn fill_stats(&self, stats: &mut HealthStats) {
        stats.breaker_trips = self.trips;
        stats.breaker_recoveries = self.recoveries;
        stats.breaker_open_occurrences = self.open_occurrences;
    }
}

/// Escalation ladder the [`Watchdog`] climbs when the run keeps stalling.
/// Stages are sticky (never de-escalated within a run) and the main loop
/// applies each stage's remedy at its next opportunity.
pub mod watchdog_stage {
    /// Healthy: no remedy requested.
    pub const NONE: u8 = 0;
    /// First stall: force the circuit breaker open, suppressing every form
    /// of speculation dispatch — if the stall was a wedged speculation path,
    /// this un-wedges it at inline speed.
    pub const FORCE_BREAKER: u8 = 1;
    /// Still stalled: tear the worker pool (or planner) down entirely and
    /// finish the run inline — no speculation machinery left to hang on.
    pub const TEAR_DOWN_POOL: u8 = 2;
}

/// The liveness signal between the main loop and the [`Watchdog`] thread.
///
/// The main loop calls [`tick`](Heartbeat::tick) once per recognized-IP
/// occurrence; the watchdog thread watches the counter move. The requested
/// escalation stage travels back the other way, and the stall/escalation
/// counters are copied into [`HealthStats`] when the run reports.
#[derive(Debug, Default)]
pub struct Heartbeat {
    /// Occurrence ticks so far; any change is progress.
    progress: AtomicU64,
    /// Highest escalation stage requested (see [`watchdog_stage`]).
    stage: AtomicU8,
    stalls: AtomicU64,
    escalations: AtomicU64,
}

impl Heartbeat {
    /// Signals one unit of main-loop progress.
    pub fn tick(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// The progress counter (occurrence ticks observed so far).
    pub fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    /// The escalation stage currently requested of the main loop.
    pub fn stage(&self) -> u8 {
        self.stage.load(Ordering::Relaxed)
    }

    /// No-progress intervals detected so far.
    pub fn stalls(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }

    /// Escalation stages fired so far.
    pub fn escalations(&self) -> u64 {
        self.escalations.load(Ordering::Relaxed)
    }

    /// Records one detected stall and climbs one escalation stage (sticky,
    /// capped at [`watchdog_stage::TEAR_DOWN_POOL`]). Returns the stage now
    /// in force. Called by the watchdog thread; also usable directly from
    /// unit tests.
    pub fn escalate(&self) -> u8 {
        self.stalls.fetch_add(1, Ordering::Relaxed);
        let previous = self.stage.load(Ordering::Relaxed);
        if previous < watchdog_stage::TEAR_DOWN_POOL {
            self.stage.store(previous + 1, Ordering::Relaxed);
            self.escalations.fetch_add(1, Ordering::Relaxed);
        }
        self.stage.load(Ordering::Relaxed)
    }

    /// Copies the watchdog counters into a [`HealthStats`] being assembled.
    pub fn fill_stats(&self, stats: &mut HealthStats) {
        stats.watchdog_stalls = self.stalls();
        stats.watchdog_escalations = self.escalations();
    }
}

/// The run-level liveness watchdog thread.
///
/// The windowed [`CircuitBreaker`] sees failure *events* — panics, deadline
/// kills, integrity rejects. A livelock, a hung lock or a wedged pool
/// produces no events at all: the run simply stops making progress. The
/// watchdog covers exactly that blind spot: it polls the [`Heartbeat`]
/// every `poll_ms` and, when no tick lands within `deadline_ms`, dumps
/// diagnostics to stderr (last rip, progress counter, health-counter
/// snapshot, pool liveness via the jobs-retired counter) and climbs the
/// [`watchdog_stage`] ladder for the main loop to act on. Detection resets
/// after each stall, so a run that stays stalled escalates again a deadline
/// later.
#[derive(Debug)]
pub struct Watchdog {
    shutdown: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl Watchdog {
    /// Spawns the watchdog thread, or returns `None` when disabled by
    /// configuration or the thread could not be spawned (a watchdog failing
    /// to start must degrade to "unwatched", never fail the run).
    pub fn start(
        config: &WatchdogConfig,
        heartbeat: Arc<Heartbeat>,
        health: Arc<HealthMonitor>,
        rip: u32,
    ) -> Option<Watchdog> {
        if !config.enabled {
            return None;
        }
        let deadline = Duration::from_millis(config.deadline_ms.max(1));
        let poll = Duration::from_millis(config.poll_ms.max(1)).min(deadline);
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name("asc-watchdog".into())
            .spawn(move || {
                let mut last_progress = heartbeat.progress();
                let mut last_change = Instant::now();
                let mut jobs_seen = health.jobs_ok();
                while !stop.load(Ordering::Relaxed) {
                    // Parked, not asleep: `finish` unparks the thread, so a
                    // run never waits out the rest of a poll interval. A
                    // spurious wake-up only makes one poll early.
                    std::thread::park_timeout(poll);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let progress = heartbeat.progress();
                    if progress != last_progress {
                        last_progress = progress;
                        last_change = Instant::now();
                        continue;
                    }
                    if last_change.elapsed() < deadline {
                        continue;
                    }
                    let jobs_now = health.jobs_ok();
                    let snapshot = health.snapshot();
                    let stage = heartbeat.escalate();
                    eprintln!(
                        "asc-watchdog: no progress for {:?} (rip {rip:#x}, {progress} \
                         occurrences, {} speculation jobs retired since last stall, \
                         escalating to stage {stage}); health: {snapshot:?}",
                        last_change.elapsed(),
                        jobs_now.saturating_sub(jobs_seen),
                    );
                    jobs_seen = jobs_now;
                    last_change = Instant::now();
                }
            })
            .ok()?;
        Some(Watchdog { shutdown, thread })
    }

    /// Stops the watchdog thread and waits for it to exit. Returns promptly
    /// however long the poll interval is: the thread is woken, not waited
    /// out (`unpark` publishes the shutdown flag to the woken thread).
    pub fn finish(self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.thread.thread().unpark();
        let _ = self.thread.join();
    }
}

/// Per-job fault decisions handed to a worker by the injector. Without the
/// `fault-inject` feature every field is permanently default — the struct
/// exists so the worker code paths need no `cfg` of their own.
#[derive(Debug, Clone, Copy, Default)]
pub struct InjectedFaults {
    /// Panic inside the job, exercising the `catch_unwind` containment.
    pub panic: bool,
    /// Stall the job so its instruction deadline kills it.
    pub stall: bool,
    /// Flip a payload bit of the completed entry before insert, exercising
    /// the checksum reject; the value selects which bit.
    pub corrupt: Option<u64>,
}

impl InjectedFaults {
    /// How many faults this decision carries (for the injected-fault
    /// counter).
    pub fn count(&self) -> u64 {
        u64::from(self.panic) + u64::from(self.stall) + u64::from(self.corrupt.is_some())
    }
}

/// Everything the worker pool and planner need from the supervision layer,
/// bundled so their constructors take one extra argument: the shared health
/// monitor, the supervisor knobs from [`AscConfig`], and (under
/// `fault-inject`) the fault injector state.
#[derive(Debug, Clone, Default)]
pub struct Supervision {
    /// Shared failure counters.
    pub health: Arc<HealthMonitor>,
    /// Per-job instruction deadline (`0` = none); see
    /// [`AscConfig::job_deadline_instructions`].
    pub job_deadline: u64,
    /// Tier-1 execution knobs forwarded to every worker's per-job
    /// [`BlockCache`](asc_tvm::BlockCache); see [`AscConfig::tier`].
    pub tier: asc_tvm::TierConfig,
    /// Shared fault-injection state, `None` when no plan is configured.
    #[cfg(feature = "fault-inject")]
    pub faults: Option<Arc<crate::fault::FaultState>>,
}

impl Supervision {
    /// Builds the supervision context for one `accelerate` run.
    pub fn from_config(config: &AscConfig) -> Self {
        Supervision {
            health: Arc::new(HealthMonitor::default()),
            job_deadline: config.job_deadline_instructions,
            tier: config.tier,
            #[cfg(feature = "fault-inject")]
            faults: config.fault.clone().map(|plan| Arc::new(crate::fault::FaultState::new(plan))),
        }
    }

    /// The effective instruction budget for one speculation job whose
    /// natural budget (from superstep sizing) is `job_budget`; returns the
    /// budget and whether the deadline is the binding constraint (in which
    /// case exhausting it counts as a deadline kill, not a plain
    /// budget-exhausted speculation).
    pub(crate) fn job_budget(&self, job_budget: u64) -> (u64, bool) {
        if self.job_deadline > 0 && self.job_deadline < job_budget {
            (self.job_deadline, true)
        } else {
            (job_budget, false)
        }
    }

    /// Samples the injector for one speculation job. Always default (no
    /// faults) without the `fault-inject` feature.
    pub(crate) fn job_faults(&self) -> InjectedFaults {
        #[cfg(feature = "fault-inject")]
        if let Some(faults) = &self.faults {
            let injected = faults.sample_job();
            let n = injected.count();
            if n > 0 {
                self.health.record_injected_faults(n);
            }
            return injected;
        }
        InjectedFaults::default()
    }

    /// Whether the injector forces the next worker spawn to fail. Always
    /// `false` without the `fault-inject` feature.
    pub(crate) fn spawn_fault(&self) -> bool {
        #[cfg(feature = "fault-inject")]
        if let Some(faults) = &self.faults {
            if faults.sample_spawn_failure() {
                self.health.record_injected_faults(1);
                return true;
            }
        }
        false
    }

    /// Whether the injector aborts the process at this occurrence ordinal
    /// (the kill-resume soak's crash point). Always `false` without the
    /// `fault-inject` feature.
    #[cfg_attr(not(feature = "fault-inject"), allow(unused_variables))]
    pub(crate) fn abort_at(&self, occurrence: u64) -> bool {
        #[cfg(feature = "fault-inject")]
        if let Some(faults) = &self.faults {
            if faults.abort_at(occurrence) {
                return true;
            }
        }
        false
    }

    /// Whether the injector stalls the main loop at this occurrence ordinal
    /// with the watchdog at `stage` (the watchdog's livelock test). Always
    /// `false` without the `fault-inject` feature.
    #[cfg_attr(not(feature = "fault-inject"), allow(unused_variables))]
    pub(crate) fn stall_at(&self, occurrence: u64, stage: u8) -> bool {
        #[cfg(feature = "fault-inject")]
        if let Some(faults) = &self.faults {
            if faults.stall_at(occurrence, stage) {
                self.health.record_injected_faults(1);
                return true;
            }
        }
        false
    }

    /// Whether the injector kills the planner at this occurrence ordinal.
    /// Always `false` without the `fault-inject` feature.
    #[cfg_attr(not(feature = "fault-inject"), allow(unused_variables))]
    pub(crate) fn planner_death(&self, occurrence: u64) -> bool {
        #[cfg(feature = "fault-inject")]
        if let Some(faults) = &self.faults {
            if faults.planner_death_at(occurrence) {
                self.health.record_injected_faults(1);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(window: usize, threshold: f64, min_failures: u32, cooldown: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            enabled: true,
            window,
            failure_threshold: threshold,
            min_failures,
            cooldown_occurrences: cooldown,
            probe_successes: 2,
        })
    }

    #[test]
    fn monitor_counts_and_snapshots() {
        let m = HealthMonitor::default();
        m.record_worker_panics(2);
        m.record_deadline_kills(3);
        m.record_spawn_failures(1);
        assert_eq!(m.failure_events(), 5);
        let snap = m.snapshot();
        assert_eq!(snap.worker_panics, 2);
        assert_eq!(snap.deadline_kills, 3);
        assert_eq!(snap.spawn_failures, 1);
        assert_eq!(snap.breaker_trips, 0);
    }

    #[test]
    fn breaker_stays_closed_below_min_failures() {
        let mut b = breaker(8, 0.5, 4, 10);
        // 3 failures in a window of 4 events: 75% rate but under the floor.
        b.record(1, 3);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows_speculation());
    }

    #[test]
    fn breaker_trips_at_threshold_and_counts() {
        let mut b = breaker(8, 0.5, 4, 10);
        b.record(4, 0);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(0, 4);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows_speculation());
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn cooldown_elapses_into_half_open_and_probe_recovers() {
        let mut b = breaker(8, 0.5, 2, 3);
        b.record(0, 4);
        assert_eq!(b.state(), BreakerState::Open);
        // Events arriving while open are stragglers and are ignored.
        b.record(10, 10);
        assert_eq!(b.state(), BreakerState::Open);
        for _ in 0..3 {
            b.tick_occurrence();
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allows_speculation());
        // probe_successes = 2 closes it again.
        b.record(2, 0);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.recoveries(), 1);
        let mut stats = HealthStats::default();
        b.fill_stats(&mut stats);
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(stats.breaker_recoveries, 1);
        assert_eq!(stats.breaker_open_occurrences, 3);
    }

    #[test]
    fn half_open_failure_retrips_with_doubled_cooldown() {
        let mut b = breaker(8, 0.5, 2, 4);
        b.record(0, 4);
        for _ in 0..4 {
            b.tick_occurrence();
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record(0, 1);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        // The re-trip doubles the cooldown: 7 ticks are not enough…
        for _ in 0..7 {
            b.tick_occurrence();
        }
        assert_eq!(b.state(), BreakerState::Open);
        // …the 8th is.
        b.tick_occurrence();
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn recovery_resets_the_cooldown_scale() {
        let mut b = breaker(8, 0.5, 2, 1);
        b.record(0, 4);
        b.tick_occurrence();
        b.record(2, 0); // recover (probe_successes = 2)
        assert_eq!(b.state(), BreakerState::Closed);
        // Next trip uses the base cooldown again.
        b.record(0, 4);
        b.tick_occurrence();
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn window_slides_old_failures_out() {
        let mut b = breaker(4, 0.75, 3, 10);
        b.record(0, 2);
        // Two failures then a train of successes: the failures age out and
        // the breaker never trips.
        b.record(8, 0);
        b.record(0, 2);
        // Window now holds [s, s, f, f] — 50% < 75%.
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let mut b =
            CircuitBreaker::new(BreakerConfig { enabled: false, ..BreakerConfig::default() });
        b.record(0, 1_000);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows_speculation());
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn supervision_deadline_binds_only_below_the_job_budget() {
        let sup = Supervision { job_deadline: 100, ..Supervision::default() };
        assert_eq!(sup.job_budget(500), (100, true));
        assert_eq!(sup.job_budget(50), (50, false));
        let unlimited = Supervision::default();
        assert_eq!(unlimited.job_budget(500), (500, false));
    }

    #[test]
    fn force_open_trips_immediately_and_recovers_normally() {
        let mut b = breaker(8, 0.5, 4, 2);
        assert_eq!(b.state(), BreakerState::Closed);
        b.force_open();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        // Repeated stall detections while already open do not re-trip.
        b.force_open();
        assert_eq!(b.trips(), 1);
        // Normal cooldown → half-open → probe recovery path applies.
        b.tick_occurrence();
        b.tick_occurrence();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record(2, 0);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.recoveries(), 1);
    }

    #[test]
    fn force_open_respects_a_disabled_breaker() {
        let mut b =
            CircuitBreaker::new(BreakerConfig { enabled: false, ..BreakerConfig::default() });
        b.force_open();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows_speculation());
    }

    #[test]
    fn heartbeat_escalates_sticky_and_capped() {
        let hb = Heartbeat::default();
        assert_eq!(hb.stage(), watchdog_stage::NONE);
        assert_eq!(hb.escalate(), watchdog_stage::FORCE_BREAKER);
        assert_eq!(hb.escalate(), watchdog_stage::TEAR_DOWN_POOL);
        // Capped: further stalls count but do not climb past teardown.
        assert_eq!(hb.escalate(), watchdog_stage::TEAR_DOWN_POOL);
        assert_eq!(hb.stalls(), 3);
        assert_eq!(hb.escalations(), 2);
        let mut stats = HealthStats::default();
        hb.fill_stats(&mut stats);
        assert_eq!(stats.watchdog_stalls, 3);
        assert_eq!(stats.watchdog_escalations, 2);
    }

    #[test]
    fn watchdog_detects_a_stall_then_recovers_when_ticks_resume() {
        let hb = Arc::new(Heartbeat::default());
        let health = Arc::new(HealthMonitor::default());
        let config = WatchdogConfig { enabled: true, deadline_ms: 30, poll_ms: 5 };
        let dog = Watchdog::start(&config, Arc::clone(&hb), Arc::clone(&health), 0x40)
            .expect("watchdog spawns");
        // No ticks at all: the watchdog must detect the stall and escalate.
        let waited = Instant::now();
        while hb.stalls() == 0 && waited.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(hb.stalls() >= 1, "stall not detected");
        assert!(hb.stage() >= watchdog_stage::FORCE_BREAKER);
        // Resume ticking: no further stalls accumulate while progress flows.
        let stalls_at_recovery = hb.stalls();
        let recovery = Instant::now();
        while recovery.elapsed() < Duration::from_millis(120) {
            hb.tick();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(hb.stalls(), stalls_at_recovery, "ticking run must not count as stalled");
        dog.finish();
    }

    #[test]
    fn finish_does_not_wait_out_the_poll_interval() {
        let hb = Arc::new(Heartbeat::default());
        let health = Arc::new(HealthMonitor::default());
        let config = WatchdogConfig { enabled: true, deadline_ms: 10_000, poll_ms: 500 };
        let dog = Watchdog::start(&config, hb, health, 0).expect("watchdog spawns");
        // Let the thread reach its park (finishing before it does is the
        // easy case: the unpark token makes the first park return at once).
        std::thread::sleep(Duration::from_millis(20));
        let started = Instant::now();
        dog.finish();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(50), "finish took {took:?} at poll_ms = 500");
    }

    #[test]
    fn disabled_watchdog_does_not_start() {
        let config = WatchdogConfig { enabled: false, ..WatchdogConfig::default() };
        let hb = Arc::new(Heartbeat::default());
        let health = Arc::new(HealthMonitor::default());
        assert!(Watchdog::start(&config, hb, health, 0).is_none());
    }

    #[test]
    fn default_supervision_injects_nothing() {
        let sup = Supervision::default();
        let faults = sup.job_faults();
        assert!(!faults.panic && !faults.stall && faults.corrupt.is_none());
        assert_eq!(faults.count(), 0);
        assert!(!sup.spawn_fault());
        assert!(!sup.planner_death(7));
        assert_eq!(sup.health.snapshot(), HealthStats::default());
    }
}
