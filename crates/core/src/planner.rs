//! The continuous-speculation planner: speculation cadence decoupled from
//! cache misses.
//!
//! Miss-driven dispatch hands speculative work to the pool only when the
//! main thread takes a cache miss. The paper's architecture speculates
//! *continuously* ahead of the main thread: idle cores should always be
//! working on the most valuable predicted supersteps, whether or not the
//! main thread just missed. This module provides that cadence as a dedicated
//! planner thread:
//!
//! * The main thread streams recognized-IP occurrences into a bounded
//!   `OccurrenceChannel` — every cache miss, plus a sparse sample during
//!   uninterrupted hit streaks (mid-streak, cloning the full state costs
//!   the fast-forwarding main thread more than the planner gains). Sends
//!   never block; when the channel is full the *oldest* occurrence is
//!   dropped — a lagging planner should anchor its predictions on fresh
//!   states, not stale ones.
//! * The planner owns the [`PredictorBank`] and the [`SpeculationPool`]. It
//!   trains the bank with [`PredictorBank::observe`] on every occurrence it
//!   receives — the same training the inline runtime does, so excitation
//!   discovery and drift detection see every received state — and severs the
//!   training stream with [`PredictorBank::break_stream`] where events went
//!   missing. It maintains a *plan*: the rollout horizon of predicted future
//!   supersteps, ordered nearest-first.
//! * Each occurrence is matched against the plan. A match at depth `k`
//!   *confirms* the trajectory: the first `k+1` entries are consumed and the
//!   horizon is extended by fresh rollouts from the deepest surviving
//!   prediction. A mismatch *invalidates* the plan; the planner re-rolls
//!   from the live state.
//! * After every event — and on an idle timeout, so worker progress (landed
//!   cache inserts, but also faulted, exhausted or deduplicated jobs that
//!   freed queue slots) triggers re-dispatch even while the main thread
//!   fast-forwards without missing — the planner *tops up* the pool queue:
//!   undispatched plan
//!   entries not already covered by the cache are handed to workers,
//!   nearest-first (cumulative rollout probability decreases with depth, so
//!   nearest-first is highest-expected-utility-first).
//!
//! Determinism is inherited from the cache protocol: the planner only ever
//! decides *which* speculations run, and a cache entry is applied by the
//! main thread only when its full read set matches the live state, so
//! `final_state` is bit-for-bit identical with the planner on or off.

use crate::cache::{LookupScratch, TrajectoryCache};
use crate::config::AscConfig;
use crate::economics::{EconomicsStats, SpeculationEconomics};
use crate::predictor_bank::{PredictedState, PredictorBank};
use crate::recognizer::RecognizedIp;
use crate::workers::{PoolStats, SpeculationJob, SpeculationPool};
use asc_tvm::state::StateVector;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How many predicted supersteps ahead of the main thread the planner keeps
/// planned (its rollout horizon). The plan is extended back to this depth
/// whenever confirmations consume its front.
pub(crate) const HORIZON: usize = 8;
/// Capacity of the occurrence channel from the main thread. The channel
/// never blocks the sender: when full, the *oldest* queued occurrence is
/// dropped — a late planner should anchor on fresh states, not stale ones.
const CHANNEL_CAPACITY: usize = 64;
/// How long the planner waits for an occurrence before waking up anyway to
/// re-check for landed cache inserts and top the queue up.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// One recognized-IP occurrence reported by the main thread: the state
/// vector observed at the occurrence. Everything the planner needs — the
/// training signal, the plan-match target and the re-plan anchor — is the
/// state itself.
#[derive(Debug, Clone)]
pub struct OccurrenceEvent {
    /// The state vector at the occurrence.
    pub state: StateVector,
    /// Whether the immediately preceding occurrence was also reported. The
    /// main thread throttles sends during pure hit streaks, and the channel
    /// drops oldest when full; either way the event after the gap arrives
    /// with `contiguous == false`, and the planner severs the bank's
    /// training stream there — a transition spanning several supersteps
    /// would teach the ensemble a variable-stride successor function.
    pub contiguous: bool,
}

impl OccurrenceEvent {
    /// An event whose immediate predecessor was also reported.
    pub fn new(state: StateVector) -> Self {
        OccurrenceEvent { state, contiguous: true }
    }
}

/// Counters describing what a planner did over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// Occurrences received from the main thread.
    pub occurrences: u64,
    /// Occurrences dropped because the channel was full (planner lagging).
    pub dropped: u64,
    /// Full re-plans: rollouts from a live state after an empty or
    /// invalidated plan.
    pub replans: u64,
    /// Horizon extensions: rollouts chained from the deepest surviving
    /// prediction after confirmations consumed the front of the plan.
    pub extensions: u64,
    /// Occurrences that matched a planned prediction (trajectory confirmed).
    pub confirmed: u64,
    /// Occurrences that matched no planned prediction (plan discarded).
    pub invalidated: u64,
    /// Jobs the planner handed to the pool that were accepted.
    pub dispatched: u64,
    /// Idle wakeups that found landed cache inserts and re-topped the queue.
    pub insert_wakeups: u64,
}

/// What [`OccurrenceChannel::recv_timeout`] produced.
enum Received {
    /// An occurrence event.
    Event(OccurrenceEvent),
    /// The timeout elapsed with no event queued.
    Timeout,
    /// The channel was closed and fully drained.
    Closed,
}

struct ChannelState {
    queue: VecDeque<OccurrenceEvent>,
    dropped: u64,
    closed: bool,
}

/// The bounded, drop-oldest occurrence channel between the main thread and
/// the planner. Sending never blocks: the main thread must not stall on
/// speculation bookkeeping under any circumstance.
struct OccurrenceChannel {
    capacity: usize,
    state: Mutex<ChannelState>,
    available: Condvar,
}

impl OccurrenceChannel {
    fn new(capacity: usize) -> Self {
        OccurrenceChannel {
            capacity: capacity.max(1),
            state: Mutex::new(ChannelState { queue: VecDeque::new(), dropped: 0, closed: false }),
            available: Condvar::new(),
        }
    }

    /// Queues an event, dropping the oldest queued event when full. Never
    /// blocks. The event that ends up following a dropped one is marked
    /// non-contiguous so the receiver does not train across the gap.
    fn send(&self, mut event: OccurrenceEvent) {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.closed {
            return;
        }
        if state.queue.len() >= self.capacity {
            state.queue.pop_front();
            state.dropped += 1;
            match state.queue.front_mut() {
                Some(follower) => follower.contiguous = false,
                // Capacity 1: the event being pushed follows the drop.
                None => event.contiguous = false,
            }
        }
        state.queue.push_back(event);
        drop(state);
        self.available.notify_one();
    }

    /// Pops a queued event without waiting. Used by the planner to drain a
    /// backlog before paying for rollouts: training must see *every*
    /// occurrence (a gappy stream teaches the ensemble a variable-stride
    /// successor function), planning only needs the freshest state.
    fn try_recv(&self) -> Option<OccurrenceEvent> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).queue.pop_front()
    }

    /// Waits up to `timeout` for an event. Drains queued events before
    /// reporting closure so no occurrence is lost at shutdown.
    fn recv_timeout(&self, timeout: Duration) -> Received {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(event) = state.queue.pop_front() {
                return Received::Event(event);
            }
            if state.closed {
                return Received::Closed;
            }
            let (next, wait) = self
                .available
                .wait_timeout(state, timeout)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = next;
            if wait.timed_out() && state.queue.is_empty() {
                return if state.closed { Received::Closed } else { Received::Timeout };
            }
        }
    }

    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        state.closed = true;
        drop(state);
        self.available.notify_all();
    }

    fn dropped(&self) -> u64 {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).dropped
    }
}

/// Everything a planner returns when it shuts down.
pub struct PlannerOutcome {
    /// The planner's own counters.
    pub stats: PlannerStats,
    /// Final counters of the pool the planner fed (workers joined).
    pub pool: PoolStats,
    /// The predictor bank, for the run report's learning statistics.
    pub bank: PredictorBank,
    /// Final counters of the planner's dispatch value model.
    pub economics: EconomicsStats,
}

/// Clears the planner's alive flag when the planner thread exits — by
/// normal return *or* by panic (the guard drops during the unwind). The
/// main loop polls the flag to detect a dead planner and fall back to
/// miss-driven dispatch instead of streaming occurrences into a channel
/// nobody drains.
struct AliveGuard(Arc<AtomicBool>);

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// Main-thread handle to a running planner: send occurrences, then
/// [`shutdown`](PlannerHandle::shutdown) to collect the outcome.
pub struct PlannerHandle {
    channel: Arc<OccurrenceChannel>,
    thread: Option<JoinHandle<PlannerOutcome>>,
    alive: Arc<AtomicBool>,
}

impl std::fmt::Debug for PlannerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlannerHandle").field("running", &self.thread.is_some()).finish()
    }
}

impl PlannerHandle {
    /// Spawns a planner thread owning `pool` and a fresh predictor bank for
    /// `rip`, reading occurrences from a bounded drop-oldest channel.
    ///
    /// # Errors
    /// Returns the spawn error when the OS refuses the thread. The pool is
    /// consumed either way (it travels in the thread closure); on failure
    /// the caller builds a fresh pool and falls back to miss-driven
    /// dispatch — a planner that cannot start must degrade the run, not
    /// abort it.
    pub fn spawn(
        config: &AscConfig,
        rip: RecognizedIp,
        cache: Arc<TrajectoryCache>,
        pool: SpeculationPool,
    ) -> std::io::Result<Self> {
        Self::spawn_with(config, rip, cache, pool, CHANNEL_CAPACITY, IDLE_POLL)
    }

    /// [`spawn`](PlannerHandle::spawn) with an explicit channel capacity and
    /// idle poll interval.
    pub(crate) fn spawn_with(
        config: &AscConfig,
        rip: RecognizedIp,
        cache: Arc<TrajectoryCache>,
        pool: SpeculationPool,
        channel_capacity: usize,
        idle: Duration,
    ) -> std::io::Result<Self> {
        let channel = Arc::new(OccurrenceChannel::new(channel_capacity));
        let thread_channel = Arc::clone(&channel);
        let alive = Arc::new(AtomicBool::new(true));
        let guard = AliveGuard(Arc::clone(&alive));
        let bank = PredictorBank::new(rip.ip, config);
        let planner = Planner {
            idle,
            rip,
            max_superstep: config.max_superstep,
            cache,
            pool,
            bank,
            plan: VecDeque::new(),
            live: None,
            inserts_seen: 0,
            lookup: LookupScratch::new(),
            economics: SpeculationEconomics::new(&config.economics),
            stats: PlannerStats::default(),
        };
        let thread = std::thread::Builder::new().name("asc-planner".into()).spawn(move || {
            let _alive = guard;
            planner.run(&thread_channel)
        })?;
        Ok(PlannerHandle { channel, thread: Some(thread), alive })
    }

    /// Reports a recognized-IP occurrence. Never blocks; a full channel
    /// drops the oldest queued occurrence.
    pub fn send(&self, event: OccurrenceEvent) {
        self.channel.send(event);
    }

    /// Whether the planner thread is still running. `false` means it
    /// returned or panicked: occurrences sent now land in a channel nobody
    /// drains, so the main loop should fall back to miss-driven dispatch.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Closes the channel, waits for the planner to drain it and join its
    /// worker pool, and returns the combined outcome — or `None` when the
    /// planner thread panicked (its pool was shut down by the unwind; the
    /// outcome died with it).
    pub fn shutdown(mut self) -> Option<PlannerOutcome> {
        self.channel.close();
        let thread = self.thread.take().expect("planner joined twice");
        thread.join().ok()
    }
}

impl Drop for PlannerHandle {
    fn drop(&mut self) {
        self.channel.close();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One plan entry: a predicted future superstep plus whether it has already
/// been offered to the pool (faulted or exhausted speculations must not be
/// re-dispatched forever).
struct PlannedStep {
    predicted: PredictedState,
    attempted: bool,
}

/// The planner's thread-local state.
struct Planner {
    /// How long [`Planner::run`] waits for an occurrence before
    /// [`Planner::on_idle`].
    idle: Duration,
    rip: RecognizedIp,
    max_superstep: u64,
    cache: Arc<TrajectoryCache>,
    pool: SpeculationPool,
    bank: PredictorBank,
    /// Predicted future supersteps, nearest-first. Front = next occurrence.
    plan: VecDeque<PlannedStep>,
    /// The freshest occurrence state: the anchor for the next re-plan.
    live: Option<StateVector>,
    /// Cache-insert count at the last top-up, for insert-triggered wakeups.
    inserts_seen: u64,
    /// Reusable scratch for the top-up loop's cache-coverage checks.
    lookup: LookupScratch,
    /// The dispatch value model. The planner never sees individual lookup
    /// outcomes (those happen on the main thread), so its realized-rate EMA
    /// is delta-fed from the cache's monotone query/hit totals once per
    /// drained occurrence batch.
    economics: SpeculationEconomics,
    stats: PlannerStats,
}

impl Planner {
    fn run(mut self, channel: &OccurrenceChannel) -> PlannerOutcome {
        loop {
            match channel.recv_timeout(self.idle) {
                Received::Event(event) => {
                    // Train on the *whole* queued backlog before paying for
                    // rollouts: every queued event must reach the bank (gaps
                    // — from send throttling or channel drops — arrive
                    // marked `contiguous == false` and sever the training
                    // stream rather than feeding it a variable-stride
                    // transition), and — just as important — the re-plan
                    // anchor must be the freshest state available, or every
                    // dispatched prediction is stale on arrival. Overload
                    // protection is the channel's job: when the planner
                    // truly cannot keep up, the bounded channel drops oldest
                    // instead of letting the backlog (and the anchor's
                    // staleness) grow without bound.
                    self.on_occurrence(event);
                    while let Some(event) = channel.try_recv() {
                        self.on_occurrence(event);
                    }
                    self.observe_economics();
                    self.extend_plan();
                    self.top_up();
                }
                Received::Timeout => self.on_idle(),
                Received::Closed => break,
            }
        }
        self.stats.dropped = channel.dropped();
        PlannerOutcome {
            stats: self.stats,
            pool: self.pool.shutdown(),
            bank: self.bank,
            economics: self.economics.stats(),
        }
    }

    /// Feeds the value model once per drained batch: the cache's monotone
    /// lookup totals (the main thread's realized hits and misses) and the
    /// bank's windowed whole-state accuracy. Batched rather than
    /// per-occurrence because both reads cross shard/atomic boundaries.
    fn observe_economics(&mut self) {
        let stats = self.cache.stats();
        self.economics.observe_cache_totals(stats.queries, stats.hits);
        self.economics.observe_model(self.bank.recent_error_rate());
    }

    /// Trains on one occurrence and reconciles it with the plan. Does not
    /// roll out or dispatch — the caller does that once per drained batch.
    fn on_occurrence(&mut self, event: OccurrenceEvent) {
        self.stats.occurrences += 1;
        if self.pool.supervision().planner_death(self.stats.occurrences) {
            // The unwind drops `self`, which shuts the pool down cleanly;
            // the alive guard flips the flag so the main loop notices.
            panic!("injected planner death");
        }
        if !event.contiguous {
            self.bank.break_stream();
        }
        self.bank.observe(&event.state);
        if !self.bank.is_ready() {
            return;
        }

        // Match the occurrence against the plan: a hit at depth k confirms
        // the predicted trajectory up to k; a miss invalidates it.
        if !self.plan.is_empty() {
            let matched = self
                .plan
                .iter()
                .position(|step| self.bank.prediction_matches(&step.predicted.state, &event.state));
            match matched {
                Some(depth) => {
                    self.stats.confirmed += 1;
                    self.plan.drain(..=depth);
                }
                None => {
                    self.stats.invalidated += 1;
                    self.plan.clear();
                }
            }
        }
        self.live = Some(event.state);
    }

    /// Idle tick: re-tops the queue when worker progress freed slots since
    /// the last top-up. Landed cache inserts are one signal, but jobs that
    /// fault, exhaust or deduplicate also free slots without inserting — so
    /// a pool that drained below the watermark while undispatched plan
    /// entries remain triggers a top-up too.
    fn on_idle(&mut self) {
        let inserted = self.cache.stats().inserted;
        if inserted > self.inserts_seen {
            self.stats.insert_wakeups += 1;
            self.top_up();
            return;
        }
        let starved =
            self.pool.pending() < self.watermark() && self.plan.iter().any(|step| !step.attempted);
        if starved {
            self.top_up();
        }
    }

    /// Grows the plan back to the rip's *economic* horizon — [`HORIZON`]
    /// shortened by the value model when this rip's predictions are
    /// not landing, so chained rollout work shrinks with the evidence — by
    /// rolling out from the deepest surviving prediction (or from the live
    /// state after an invalidation or at the very start).
    fn extend_plan(&mut self) {
        let target = self.economics.horizon(HORIZON);
        if !self.bank.is_ready() || self.plan.len() >= target {
            return;
        }
        let missing = target - self.plan.len();
        let (anchor, extending) = match self.plan.back() {
            Some(deepest) => (deepest.predicted.state.clone(), true),
            None => match &self.live {
                Some(live) => (live.clone(), false),
                None => return,
            },
        };
        let rollouts = self.bank.rollout(&anchor, missing);
        if rollouts.is_empty() {
            return;
        }
        if extending {
            self.stats.extensions += 1;
        } else {
            self.stats.replans += 1;
        }
        self.plan.extend(
            rollouts.into_iter().map(|predicted| PlannedStep { predicted, attempted: false }),
        );
    }

    /// Target queue depth: every worker busy plus one job queued ahead.
    fn watermark(&self) -> usize {
        self.pool.workers() + 1
    }

    /// Hands undispatched, uncovered plan entries to the pool, nearest-first,
    /// until every worker has work plus a little queued ahead. The watermark
    /// is deliberately shallow: deeply queued predictions go stale before a
    /// worker frees up, and on machines where workers timeshare a core with
    /// the main thread, excess speculation actively slows the run down.
    fn top_up(&mut self) {
        self.inserts_seen = self.cache.stats().inserted;
        let watermark = self.watermark();
        for step in self.plan.iter_mut() {
            if self.pool.pending() >= watermark {
                break;
            }
            if step.attempted {
                continue;
            }
            // Marked whether accepted, deduplicated, dropped, suppressed or
            // already covered: this exact prediction is never offered twice.
            step.attempted = true;
            if self.cache.covers_with(self.rip.ip, &step.predicted.state, &mut self.lookup) {
                continue;
            }
            // The value test: a candidate whose calibrated P(hit) cannot pay
            // for the worker's superstep stays in the plan (it still anchors
            // confirmations and extensions) but never reaches the pool.
            if !self.economics.evaluate(
                step.predicted.log_probability,
                step.predicted.depth,
                self.rip.mean_superstep,
            ) {
                continue;
            }
            if self.pool.dispatch(SpeculationJob {
                start: step.predicted.state.clone(),
                rip: self.rip.ip,
                stride: self.rip.stride,
                max_instructions: self.max_superstep,
            }) {
                self.stats.dispatched += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asc_asm::assemble;
    use asc_tvm::machine::Machine;

    fn looping_program() -> (asc_tvm::program::Program, u32) {
        let program = assemble(
            r#"
            main:
                movi r1, 400
                movi r2, 0
            loop:
                add  r2, r2, r1
                sub  r1, r1, 1
                cmpi r1, 0
                jne  loop
                halt
            "#,
        )
        .unwrap();
        let rip = program.symbol("loop").unwrap();
        (program, rip)
    }

    fn recognized(rip: u32) -> RecognizedIp {
        RecognizedIp { ip: rip, stride: 1, mean_superstep: 4.0, accuracy: 1.0, score: 1.0 }
    }

    fn planner_config() -> AscConfig {
        AscConfig {
            explore_instructions: 5_000,
            min_superstep: 4,
            rollout_depth: 8,
            workers: 2,
            ..AscConfig::for_tests()
        }
    }

    #[test]
    fn channel_drops_oldest_when_full() {
        let channel = OccurrenceChannel::new(2);
        for tag in 1..=5u32 {
            let mut state = StateVector::new(64).unwrap();
            state.set_reg_index(1, tag);
            channel.send(OccurrenceEvent::new(state));
        }
        assert_eq!(channel.dropped(), 3);
        // The two *newest* events survive; the one right after the gap is
        // marked non-contiguous so the receiver won't train across it.
        let Received::Event(first) = channel.recv_timeout(Duration::from_millis(1)) else {
            panic!("expected an event");
        };
        let Received::Event(second) = channel.recv_timeout(Duration::from_millis(1)) else {
            panic!("expected an event");
        };
        assert_eq!(first.state.reg_index(1), 4);
        assert!(!first.contiguous);
        assert_eq!(second.state.reg_index(1), 5);
        assert!(second.contiguous);
        assert!(matches!(channel.recv_timeout(Duration::from_millis(1)), Received::Timeout));
    }

    #[test]
    fn channel_reports_closed_only_after_draining() {
        let channel = OccurrenceChannel::new(4);
        let state = StateVector::new(64).unwrap();
        channel.send(OccurrenceEvent::new(state));
        channel.close();
        assert!(matches!(channel.recv_timeout(Duration::from_millis(1)), Received::Event(_)));
        assert!(matches!(channel.recv_timeout(Duration::from_millis(1)), Received::Closed));
        // Sends after close are discarded, not queued.
        channel.send(OccurrenceEvent::new(StateVector::new(64).unwrap()));
        assert!(matches!(channel.recv_timeout(Duration::from_millis(1)), Received::Closed));
    }

    #[test]
    fn planner_fills_cache_from_occurrence_stream() {
        let (program, rip) = looping_program();
        let config = planner_config();
        let cache = Arc::new(TrajectoryCache::new(1 << 12));
        let pool = SpeculationPool::new(2, Arc::clone(&cache));
        let handle =
            PlannerHandle::spawn(&config, recognized(rip), Arc::clone(&cache), pool).unwrap();

        let mut machine = Machine::load(&program).unwrap();
        machine.run_until_ip(rip, 10_000).unwrap();
        for _ in 0..120 {
            handle.send(OccurrenceEvent::new(machine.state().clone()));
            machine.run_until_ip(rip, 10_000).unwrap();
            if machine.is_halted() {
                break;
            }
        }
        // Give in-flight speculation a moment, then shut down cleanly.
        let outcome = handle.shutdown().expect("planner must not panic");
        assert!(outcome.stats.occurrences > 50, "{:?}", outcome.stats);
        assert!(outcome.bank.is_ready());
        assert!(outcome.stats.replans > 0, "{:?}", outcome.stats);
        assert!(outcome.stats.dispatched > 0, "{:?}", outcome.stats);
        // The pool really executed the dispatched predictions and the cache
        // holds their trajectories (the loop is exactly predictable).
        assert_eq!(
            outcome.pool.dispatched,
            outcome.pool.completed + outcome.pool.faulted + outcome.pool.exhausted,
            "pool shutdown lost jobs: {:?}",
            outcome.pool
        );
        assert!(!cache.is_empty());
    }

    #[test]
    fn planner_bank_trains_exactly_like_a_bank_fed_every_state() {
        // The channel holds the whole trace, so every event reaches the bank
        // in order. The trace forces a drift rebuild, which lands on the same
        // occurrence only if drift is checked on every one of them.
        let states = crate::predictor_bank::tests::phase_change_trace();
        let config = AscConfig { workers: 1, max_superstep: 1_000, ..planner_config() };
        let cache = Arc::new(TrajectoryCache::new(64));
        let pool = SpeculationPool::new(1, Arc::clone(&cache));
        let handle = PlannerHandle::spawn_with(
            &config,
            recognized(0),
            Arc::clone(&cache),
            pool,
            states.len(),
            IDLE_POLL,
        )
        .unwrap();
        let mut reference = PredictorBank::new(0, &config);
        for state in &states {
            handle.send(OccurrenceEvent::new(state.clone()));
            reference.observe(state);
        }
        let outcome = handle.shutdown().expect("planner must not panic");
        assert_eq!(outcome.stats.dropped, 0, "{:?}", outcome.stats);
        assert_eq!(outcome.stats.occurrences, states.len() as u64);
        assert!(reference.excited_bits() > 3 * 32, "the trace must force a drift rebuild");

        let bank = outcome.bank;
        assert_eq!(bank.observations(), reference.observations());
        assert_eq!(bank.excited_bits(), reference.excited_bits());
        assert_eq!(bank.errors(), reference.errors());
        let last = states.last().unwrap();
        let (got, want) = (bank.rollout(last, 3), reference.rollout(last, 3));
        assert_eq!((got.len(), want.len()), (3, 3));
        for (got, want) in got.iter().zip(&want) {
            assert_eq!(got.state, want.state, "rollout state at depth {}", got.depth);
            assert_eq!(got.log_probability, want.log_probability);
        }
    }

    #[test]
    fn shutdown_with_jobs_in_flight_is_clean() {
        // An endless spin keeps both workers busy forever (within budget), so
        // shutdown happens with jobs guaranteed in flight.
        let program = assemble("spin:\n jmp spin\n").unwrap();
        let config = AscConfig { workers: 2, max_superstep: 3_000_000, ..planner_config() };
        let cache = Arc::new(TrajectoryCache::new(64));
        let mut pool = SpeculationPool::new(2, Arc::clone(&cache));
        let mut spin_state = program.initial_state().unwrap();
        for i in 0..4u32 {
            spin_state.set_reg_index(2, i); // distinct states defeat dedup
            pool.dispatch(SpeculationJob {
                start: spin_state.clone(),
                rip: 8, // never reached
                stride: 1,
                max_instructions: 3_000_000,
            });
        }
        let handle =
            PlannerHandle::spawn(&config, recognized(0), Arc::clone(&cache), pool).unwrap();
        handle.send(OccurrenceEvent::new(program.initial_state().unwrap()));
        // Shutdown must drain the spinning jobs and join without deadlock.
        let outcome = handle.shutdown().expect("planner must not panic");
        assert_eq!(
            outcome.pool.dispatched,
            outcome.pool.completed + outcome.pool.faulted + outcome.pool.exhausted,
            "{:?}",
            outcome.pool
        );
    }

    #[test]
    fn flooding_a_full_channel_never_blocks_the_sender() {
        let (program, rip) = looping_program();
        // A one-slot channel with a slow planner poll: sends vastly outpace
        // receives, so the drop-oldest path is exercised constantly.
        let config = AscConfig { workers: 1, ..planner_config() };
        let cache = Arc::new(TrajectoryCache::new(64));
        let pool = SpeculationPool::new(1, Arc::clone(&cache));
        let handle = PlannerHandle::spawn_with(
            &config,
            recognized(rip),
            Arc::clone(&cache),
            pool,
            1,
            Duration::from_millis(20),
        )
        .unwrap();
        let mut machine = Machine::load(&program).unwrap();
        machine.run_until_ip(rip, 10_000).unwrap();
        let started = std::time::Instant::now();
        for _ in 0..2_000 {
            handle.send(OccurrenceEvent::new(machine.state().clone()));
        }
        // 2000 sends through a 1-slot channel must be near-instant; blocking
        // would take 2000 × poll interval.
        assert!(started.elapsed() < Duration::from_secs(2), "sender blocked on a full channel");
        let outcome = handle.shutdown().expect("planner must not panic");
        assert!(outcome.stats.dropped > 0, "{:?}", outcome.stats);
        assert!(outcome.stats.occurrences + outcome.stats.dropped >= 2_000, "{:?}", outcome.stats);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_planner_death_is_observable_and_joins_cleanly() {
        use crate::supervisor::Supervision;

        let (program, rip) = looping_program();
        let config = AscConfig {
            fault: Some(crate::fault::FaultPlan {
                planner_death_after: Some(1),
                ..crate::fault::FaultPlan::default()
            }),
            ..planner_config()
        };
        let supervision = Supervision::from_config(&config);
        let cache = Arc::new(TrajectoryCache::new(64));
        let pool = SpeculationPool::with_supervision(2, Arc::clone(&cache), supervision.clone());
        let handle =
            PlannerHandle::spawn(&config, recognized(rip), Arc::clone(&cache), pool).unwrap();
        assert!(handle.is_alive());
        // The first processed occurrence kills the planner; the alive flag
        // flips during the unwind, which also joins the pool.
        handle.send(OccurrenceEvent::new(program.initial_state().unwrap()));
        for _ in 0..2_000 {
            if !handle.is_alive() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!handle.is_alive(), "planner should have died at occurrence 1");
        // A panicked planner has no outcome to hand back.
        assert!(handle.shutdown().is_none());
        assert_eq!(supervision.health.injected_faults(), 1);
    }
}
