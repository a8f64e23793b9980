//! The parallel speculation engine: a persistent, *supervised* pool of
//! worker threads turning spare cores into sequential speedup (§4.1,
//! Figure 1).
//!
//! The paper's whole premise is that idle cores can execute *predicted*
//! future supersteps while the main thread runs the present one. This module
//! provides that execution substrate: [`SpeculationPool`] owns N OS threads,
//! each looping over a shared job queue. A job is a predicted start state
//! plus superstep bounds; a worker runs
//! [`execute_superstep`](crate::speculator::execute_superstep) with full
//! dependency tracking and, when the superstep completed usefully (reached
//! the recognized IP again or halted), inserts the compressed trajectory
//! into the shared, thread-safe [`TrajectoryCache`].
//!
//! Correctness never depends on scheduling: a cache entry is applied by the
//! main thread only when its full read set matches the live state, so a
//! late, dropped or faulted speculation can cost at most a missed
//! fast-forward opportunity. That is what keeps accelerated results
//! bit-for-bit identical to sequential execution regardless of worker count.
//!
//! Dispatch is non-blocking: the queue is bounded (a few jobs per worker)
//! and [`SpeculationPool::dispatch`] drops work when it is full rather than
//! stalling the main thread — mirroring the paper's allocator, which only
//! schedules speculation onto cores that are actually idle.
//!
//! ## Supervision
//!
//! The same economy extends to *execution* failures (see
//! [`supervisor`](crate::supervisor)). Every job, pooled or inline, runs
//! through `run_job`: under `catch_unwind`, with an optional instruction
//! deadline. A panicking job is counted and discarded, and its scratch is
//! replaced with a fresh one (the old one is suspect after an unwind); the
//! worker then takes the next job. Workers leave their loop only when the
//! queue closes. Thread-spawn failure at startup is non-fatal: the pool
//! runs with however many workers materialized (down to zero — dispatch
//! then just drops), and the shortfall is recorded in
//! [`HealthStats`](crate::supervisor::HealthStats). Shutdown joins every
//! worker and surfaces any panic that escaped a job.

use crate::cache::TrajectoryCache;
use crate::speculator::{execute_superstep_with, SpeculationResult, SpeculationScratch};
use crate::supervisor::Supervision;
use asc_tvm::state::StateVector;
use asc_tvm::TierStats;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Hash of the full state bytes: identifies a start state cheaply so the
/// pool can refuse to speculate from the same state twice concurrently.
fn state_fingerprint(state: &StateVector) -> u64 {
    asc_tvm::delta::fnv1a(state.as_bytes().iter().copied())
}

/// A job plus its precomputed start-state fingerprint (computed once at
/// dispatch, reused by the worker for in-flight bookkeeping).
struct QueuedJob {
    job: SpeculationJob,
    fingerprint: u64,
}

/// Removes a fingerprint from the in-flight set when dropped, so the entry
/// is released even if the cache insert panics outside the job's
/// containment — a leaked fingerprint would otherwise saturate the pool
/// permanently and silently disable speculation.
struct InflightGuard<'a> {
    inflight: &'a Mutex<HashSet<u64>>,
    fingerprint: u64,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&self.fingerprint);
    }
}

/// One unit of speculative work: run a superstep from `start`.
#[derive(Debug, Clone)]
pub struct SpeculationJob {
    /// The (predicted) start state to execute from.
    pub start: StateVector,
    /// The recognized IP whose next occurrence ends the superstep.
    pub rip: u32,
    /// How many occurrences of `rip` one superstep spans.
    pub stride: usize,
    /// Instruction allowance before the speculation gives up.
    pub max_instructions: u64,
}

/// Counters describing what a pool did over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs accepted onto the queue.
    pub dispatched: u64,
    /// Jobs rejected because the queue was full (all workers busy).
    pub dropped: u64,
    /// Jobs rejected because an identical start state was already queued or
    /// executing (re-planned predictions between occurrences).
    pub deduplicated: u64,
    /// Supersteps that completed (reached the rip or halted).
    pub completed: u64,
    /// Supersteps that faulted from a mispredicted start state.
    pub faulted: u64,
    /// Supersteps that ran out of budget before reaching the rip.
    pub exhausted: u64,
    /// Completed supersteps whose entry changed the cache.
    pub inserted: u64,
    /// Jobs whose execution panicked; each panic was contained, the job
    /// discarded and the worker's scratch replaced.
    pub panicked: u64,
    /// Jobs killed at the per-job instruction deadline
    /// ([`job_deadline_instructions`](crate::config::AscConfig::job_deadline_instructions)).
    pub deadline_killed: u64,
    /// Worker joins at shutdown that surfaced a panic no job contained.
    pub panicked_joins: u64,
    /// Aggregated tier-up execution counters across every worker: block
    /// compiles, invalidations and the tier-1 / tier-0 instruction split
    /// (drained from each worker's [`SpeculationScratch`] after every job).
    pub tier: TierStats,
}

#[derive(Default)]
struct SharedCounters {
    completed: AtomicU64,
    faulted: AtomicU64,
    exhausted: AtomicU64,
    inserted: AtomicU64,
    panicked: AtomicU64,
    deadline_killed: AtomicU64,
    tier_blocks_compiled: AtomicU64,
    tier_blocks_invalidated: AtomicU64,
    tier_fused_ops: AtomicU64,
    tier1_instructions: AtomicU64,
    tier0_instructions: AtomicU64,
}

impl SharedCounters {
    /// Folds one job's verdict and tier counters into the pool-wide totals.
    fn record(&self, outcome: &JobOutcome) {
        let counter = match outcome.end {
            JobEnd::Completed { inserted } => {
                if inserted {
                    self.inserted.fetch_add(1, Ordering::Relaxed);
                }
                &self.completed
            }
            JobEnd::Exhausted => &self.exhausted,
            JobEnd::DeadlineKilled => &self.deadline_killed,
            JobEnd::Faulted => &self.faulted,
            JobEnd::Panicked => &self.panicked,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let stats = &outcome.tier;
        self.tier_blocks_compiled.fetch_add(stats.blocks_compiled, Ordering::Relaxed);
        self.tier_blocks_invalidated.fetch_add(stats.blocks_invalidated, Ordering::Relaxed);
        self.tier_fused_ops.fetch_add(stats.fused_ops, Ordering::Relaxed);
        self.tier1_instructions.fetch_add(stats.tier1_instructions, Ordering::Relaxed);
        self.tier0_instructions.fetch_add(stats.tier0_instructions, Ordering::Relaxed);
    }

    fn tier_snapshot(&self) -> TierStats {
        TierStats {
            blocks_compiled: self.tier_blocks_compiled.load(Ordering::Relaxed),
            blocks_invalidated: self.tier_blocks_invalidated.load(Ordering::Relaxed),
            fused_ops: self.tier_fused_ops.load(Ordering::Relaxed),
            tier1_instructions: self.tier1_instructions.load(Ordering::Relaxed),
            tier0_instructions: self.tier0_instructions.load(Ordering::Relaxed),
        }
    }
}

/// Everything a worker needs, behind one `Arc`; every worker takes its jobs
/// from the one receiver.
struct WorkerShared {
    receiver: Mutex<Receiver<QueuedJob>>,
    cache: Arc<TrajectoryCache>,
    counters: SharedCounters,
    /// Fingerprints of start states queued or executing right now; prevents
    /// wasting workers on duplicate speculation when the main thread
    /// re-plans overlapping rollouts at consecutive occurrences.
    inflight: Mutex<HashSet<u64>>,
    supervision: Supervision,
}

/// A persistent pool of speculation worker threads feeding a shared
/// trajectory cache.
pub struct SpeculationPool {
    sender: Option<SyncSender<QueuedJob>>,
    shared: Arc<WorkerShared>,
    handles: Vec<JoinHandle<()>>,
    dispatched: u64,
    dropped: u64,
    deduplicated: u64,
}

impl std::fmt::Debug for SpeculationPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpeculationPool")
            .field("workers", &self.workers())
            .field("stats", &self.stats())
            .finish()
    }
}

impl SpeculationPool {
    /// Spawns `workers` threads inserting into `cache`, with default
    /// (no-op) supervision: no deadline, no fault injection, panics still
    /// contained and counted.
    ///
    /// # Panics
    /// Panics when `workers` is zero — callers decide between inline and
    /// pooled speculation, a zero-thread pool is always a caller bug.
    pub fn new(workers: usize, cache: Arc<TrajectoryCache>) -> Self {
        Self::with_supervision(workers, cache, Supervision::default())
    }

    /// Spawns `workers` threads under the given supervision context.
    ///
    /// Thread-spawn failure is *not* fatal: the pool runs with however many
    /// workers could be spawned — recorded as
    /// [`spawn_failures`](crate::supervisor::HealthStats::spawn_failures) —
    /// and a pool with zero live workers degrades to dropping every
    /// dispatch, which the runtime treats exactly like a saturated queue.
    ///
    /// # Panics
    /// Panics when `workers` is zero (see [`new`](SpeculationPool::new)).
    pub fn with_supervision(
        workers: usize,
        cache: Arc<TrajectoryCache>,
        supervision: Supervision,
    ) -> Self {
        assert!(workers > 0, "a speculation pool needs at least one worker");
        // A shallow queue: speculative work goes stale quickly (the main
        // thread moves on), so buffering deeply only wastes memory on
        // predictions that will be outdated by the time a worker frees up.
        let (sender, receiver) = sync_channel::<QueuedJob>(workers * 4);
        let shared = Arc::new(WorkerShared {
            receiver: Mutex::new(receiver),
            cache,
            counters: SharedCounters::default(),
            inflight: Mutex::new(HashSet::new()),
            supervision,
        });
        let spawn = |index| {
            if shared.supervision.spawn_fault() {
                return None;
            }
            let shared = Arc::clone(&shared);
            let thread = std::thread::Builder::new().name(format!("asc-speculator-{index}"));
            thread.spawn(move || worker_loop(&shared)).ok()
        };
        let handles: Vec<_> = (0..workers).filter_map(spawn).collect();
        shared.supervision.health.record_spawn_failures((workers - handles.len()) as u64);
        SpeculationPool {
            sender: Some(sender),
            shared,
            handles,
            dispatched: 0,
            dropped: 0,
            deduplicated: 0,
        }
    }

    /// Number of worker threads the pool runs: those that spawned.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// The pool's supervision context (shared health counters).
    pub fn supervision(&self) -> &Supervision {
        &self.shared.supervision
    }

    /// Number of jobs currently queued or executing.
    pub fn pending(&self) -> usize {
        self.shared.inflight.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// Whether the pool has at least as much queued/executing work as it has
    /// workers. The runtime uses this to skip re-planning (the expensive
    /// predictor rollout) while a previous batch is still in flight.
    pub fn is_saturated(&self) -> bool {
        self.pending() >= self.workers()
    }

    /// Queues a job without blocking. Returns `false` when the job was
    /// rejected: either an identical start state is already in flight
    /// (counted in `deduplicated`) or every worker is busy and the queue is
    /// full (counted in `dropped`).
    pub fn dispatch(&mut self, job: SpeculationJob) -> bool {
        let fingerprint = state_fingerprint(&job.start);
        {
            let mut inflight =
                self.shared.inflight.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if !inflight.insert(fingerprint) {
                self.deduplicated += 1;
                return false;
            }
        }
        let sender = self.sender.as_ref().expect("pool already shut down");
        match sender.try_send(QueuedJob { job, fingerprint }) {
            Ok(()) => {
                self.dispatched += 1;
                true
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.shared
                    .inflight
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .remove(&fingerprint);
                self.dropped += 1;
                false
            }
        }
    }

    /// A snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        let counters = &self.shared.counters;
        PoolStats {
            dispatched: self.dispatched,
            dropped: self.dropped,
            deduplicated: self.deduplicated,
            completed: counters.completed.load(Ordering::Relaxed),
            faulted: counters.faulted.load(Ordering::Relaxed),
            exhausted: counters.exhausted.load(Ordering::Relaxed),
            inserted: counters.inserted.load(Ordering::Relaxed),
            panicked: counters.panicked.load(Ordering::Relaxed),
            deadline_killed: counters.deadline_killed.load(Ordering::Relaxed),
            panicked_joins: self.shared.supervision.health.panicked_joins(),
            tier: counters.tier_snapshot(),
        }
    }

    /// Closes the queue, drains outstanding jobs, joins every worker and
    /// returns the final counters — including
    /// [`panicked_joins`](PoolStats::panicked_joins), the number of worker
    /// deaths first surfaced by the join rather than contained in flight.
    pub fn shutdown(mut self) -> PoolStats {
        self.finish();
        self.stats()
    }

    fn finish(&mut self) {
        self.sender = None; // closing the channel ends every worker loop
        for handle in self.handles.drain(..) {
            if handle.join().is_err() {
                self.shared.supervision.health.record_panicked_joins(1);
            }
        }
    }
}

impl Drop for SpeculationPool {
    fn drop(&mut self) {
        self.finish();
    }
}

fn worker_loop(shared: &WorkerShared) {
    // One scratch (dependency vector + tier-up block cache) for the
    // worker's whole lifetime: reset between jobs, never reallocated while
    // the state size is stable (or until a job panics) — so blocks compiled
    // for one job keep paying off across every later job speculating over
    // the same code.
    let mut scratch = SpeculationScratch::with_tier(shared.supervision.tier);
    loop {
        // Take the lock only to receive; execution happens unlocked so
        // workers genuinely run concurrently.
        let queued = {
            let guard = shared.receiver.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.recv()
        };
        let Ok(QueuedJob { job, fingerprint }) = queued else { return };
        // Released however the job ends; afterwards, identical predictions
        // are filtered by the cache-coverage check instead.
        let _inflight = InflightGuard { inflight: &shared.inflight, fingerprint };
        shared.counters.record(&run_job(&job, &shared.cache, &shared.supervision, &mut scratch));
    }
}

/// How one speculation job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobEnd {
    /// Reached the recognized IP or halted.
    Completed {
        /// Whether the entry changed the cache.
        inserted: bool,
    },
    /// Ran out of its own budget before reaching the recognized IP.
    Exhausted,
    /// Killed at the supervision deadline, which was tighter than its own
    /// budget.
    DeadlineKilled,
    /// Faulted from a mispredicted start state.
    Faulted,
    /// Panicked; the panic was contained and the scratch replaced.
    Panicked,
}

/// What [`run_job`] reports about one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JobOutcome {
    /// How the job ended.
    pub(crate) end: JobEnd,
    /// The tier-up counters its execution accumulated, drained from the
    /// scratch it ran on.
    pub(crate) tier: TierStats,
}

/// Runs one speculation job on `scratch` — a pool worker's or, with no
/// pool, the main thread's — under the supervision policy: the deadline
/// binds when it is tighter than the job's budget, injected faults are
/// sampled, a panic is contained, a completed entry is inserted into
/// `cache`, and every ending ticks the health counters the breaker reads.
/// After a panic `scratch` is replaced with a fresh one, its tier counters
/// drained first.
pub(crate) fn run_job(
    job: &SpeculationJob,
    cache: &TrajectoryCache,
    supervision: &Supervision,
    scratch: &mut SpeculationScratch,
) -> JobOutcome {
    let faults = supervision.job_faults();
    let (budget, deadline_bound) = supervision.job_budget(job.max_instructions);
    // An injected stall models a runaway speculation: a stride no real
    // program reaches, so the job burns its whole budget and the deadline
    // (when armed) is what kills it.
    let stride = if faults.stall { usize::MAX } else { job.stride };
    let result = catch_unwind(AssertUnwindSafe(|| {
        if faults.panic {
            // `resume_unwind` unwinds like a panic but skips the panic hook:
            // an injected fault prints nothing, so a backtrace being
            // symbolized cannot delay the breaker's failure feed.
            std::panic::resume_unwind(Box::new("injected worker panic"));
        }
        execute_superstep_with(&job.start, job.rip, stride, budget, scratch)
    }));
    // Drain tier counters unconditionally: even a faulted or panicked job
    // retired real instructions, and the drain keeps per-job deltas from
    // double counting when the scratch outlives thousands of jobs.
    let tier = scratch.take_tier_stats();
    let health = &supervision.health;
    let end = match result {
        Err(_) => {
            // The scratch unwound mid-job: nothing in it can be trusted.
            *scratch = SpeculationScratch::with_tier(supervision.tier);
            health.record_worker_panics(1);
            JobEnd::Panicked
        }
        Ok(Ok(SpeculationResult::Completed(outcome))) => {
            if outcome.reached_rip || outcome.halted {
                health.record_jobs_ok(1);
                #[cfg_attr(not(feature = "fault-inject"), allow(unused_mut))]
                let mut entry = outcome.entry;
                #[cfg(feature = "fault-inject")]
                if let Some(selector) = faults.corrupt {
                    entry.corrupt_payload(selector);
                }
                JobEnd::Completed { inserted: cache.insert(entry) }
            } else if deadline_bound {
                // The deadline, not the job's own budget, was the binding
                // constraint: this speculation was killed, not merely
                // unlucky.
                health.record_deadline_kills(1);
                JobEnd::DeadlineKilled
            } else {
                health.record_jobs_ok(1);
                JobEnd::Exhausted
            }
        }
        Ok(Ok(SpeculationResult::Faulted { .. })) | Ok(Err(_)) => {
            // Faults are the expected price of mispredicted start states;
            // the result is simply discarded (§4.1).
            health.record_jobs_ok(1);
            JobEnd::Faulted
        }
    };
    JobOutcome { end, tier }
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
                movi r1, 200
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

    #[test]
    fn workers_execute_jobs_and_fill_the_cache() {
        let (program, rip) = looping_program();
        let mut machine = Machine::load(&program).unwrap();
        machine.run_until_ip(rip, 1_000).unwrap();

        let cache = Arc::new(TrajectoryCache::new(1024));
        let mut pool = SpeculationPool::new(4, Arc::clone(&cache));
        assert_eq!(pool.workers(), 4);

        // Dispatch one job per loop iteration state.
        let mut dispatched = 0;
        for _ in 0..32 {
            let job = SpeculationJob {
                start: machine.state().clone(),
                rip,
                stride: 1,
                max_instructions: 10_000,
            };
            // Retry briefly: the queue is bounded and this test dispatches
            // faster than tiny supersteps complete.
            for _ in 0..1000 {
                if pool.dispatch(job.clone()) {
                    dispatched += 1;
                    break;
                }
                std::thread::yield_now();
            }
            machine.run_until_ip(rip, 1_000).unwrap();
        }
        assert!(dispatched > 0);
        let stats = pool.shutdown();
        assert_eq!(stats.completed + stats.faulted + stats.exhausted, stats.dispatched);
        assert_eq!(stats.panicked, 0);
        assert_eq!(stats.panicked_joins, 0);
        assert!(stats.inserted > 0);
        assert!(!cache.is_empty());
        // Default supervision has the tier enabled, and `seed_hot(rip)` makes
        // the inter-occurrence region compile on a worker's first arrival —
        // so the pool must report tier-1 activity, not just tier-0 stepping.
        assert!(stats.tier.blocks_compiled > 0, "{stats:?}");
        assert!(stats.tier.tier1_instructions > 0, "{stats:?}");

        // Every inserted entry fast-forwards correctly: applying it to a
        // matching state must equal direct execution.
        let mut check = Machine::load(&program).unwrap();
        check.run_until_ip(rip, 1_000).unwrap();
        if let Some(entry) = cache.peek(rip, check.state()) {
            let mut forwarded = check.state().clone();
            entry.apply(&mut forwarded);
            let mut direct = Machine::from_state(check.state().clone());
            direct.run_until_ip(rip, 10_000).unwrap();
            assert_eq!(&forwarded, direct.state());
        }
    }

    #[test]
    fn full_queue_drops_instead_of_blocking() {
        // An endless spin keeps the single worker busy while distinct jobs
        // flood in behind it, so the bounded queue (4 slots) must fill and
        // reject the rest without blocking this thread.
        let program = assemble("spin:\n jmp spin\n").unwrap();
        let start = program.initial_state().unwrap();
        let cache = Arc::new(TrajectoryCache::new(64));
        let mut pool = SpeculationPool::new(1, Arc::clone(&cache));
        let job = |i: u32, max_instructions: u64| {
            let mut state = start.clone();
            state.set_reg_index(1, i);
            // The rip is never reached: the IP stays at the spin.
            SpeculationJob { start: state, rip: 8, stride: 1, max_instructions }
        };
        assert!(pool.dispatch(job(0, 2_000_000)));
        for i in 1..=16u32 {
            pool.dispatch(job(i, 1_000));
        }
        let stats = pool.stats();
        assert_eq!(stats.dispatched + stats.dropped + stats.deduplicated, 17);
        assert!(stats.dropped > 0, "{stats:?}");
        pool.shutdown();
    }

    #[test]
    fn duplicate_start_states_are_dispatched_once() {
        // An endless spin keeps the single worker busy for the whole test,
        // so the in-flight set deterministically contains the first job.
        let program = assemble("spin:\n jmp spin\n").unwrap();
        let start = program.initial_state().unwrap();
        let cache = Arc::new(TrajectoryCache::new(64));
        let mut pool = SpeculationPool::new(1, Arc::clone(&cache));
        let job = SpeculationJob {
            start,
            rip: 8, // never reached: the IP stays at the spin
            stride: 1,
            max_instructions: 2_000_000,
        };
        assert!(pool.dispatch(job.clone()));
        // While the first copy is queued or executing, identical start
        // states are refused without consuming queue slots.
        for _ in 0..8 {
            assert!(!pool.dispatch(job.clone()));
        }
        let stats = pool.stats();
        assert_eq!(stats.dispatched, 1);
        assert_eq!(stats.deduplicated, 8);
        assert_eq!(stats.dropped, 0);
        assert!(pool.pending() >= 1);
        let final_stats = pool.shutdown();
        // The spin exhausts its budget without reaching the rip.
        assert_eq!(final_stats.exhausted, 1);
    }

    #[test]
    fn shutdown_drains_outstanding_work() {
        let (program, rip) = looping_program();
        let start = program.initial_state().unwrap();
        let cache = Arc::new(TrajectoryCache::new(64));
        let mut pool = SpeculationPool::new(2, Arc::clone(&cache));
        let mut dispatched = 0;
        for _ in 0..8 {
            if pool.dispatch(SpeculationJob {
                start: start.clone(),
                rip,
                stride: 1,
                max_instructions: 10_000,
            }) {
                dispatched += 1;
            }
        }
        let stats = pool.shutdown();
        assert_eq!(stats.dispatched, dispatched);
        assert_eq!(stats.completed + stats.faulted + stats.exhausted, dispatched);
    }

    #[test]
    fn deadline_kills_runaway_jobs() {
        // A spin never reaches its rip; without a deadline it would burn
        // its whole 2M-instruction budget and count as `exhausted`. With
        // the supervision deadline armed, it is killed early and counted
        // as a deadline kill instead.
        let program = assemble("spin:\n jmp spin\n").unwrap();
        let start = program.initial_state().unwrap();
        let cache = Arc::new(TrajectoryCache::new(64));
        let supervision = Supervision { job_deadline: 1_000, ..Supervision::default() };
        let mut pool = SpeculationPool::with_supervision(1, Arc::clone(&cache), supervision);
        assert!(pool.dispatch(SpeculationJob {
            start,
            rip: 8,
            stride: 1,
            max_instructions: 2_000_000,
        }));
        let health = Arc::clone(&pool.supervision().health);
        let stats = pool.shutdown();
        assert_eq!(stats.deadline_killed, 1, "{stats:?}");
        assert_eq!(stats.exhausted, 0, "{stats:?}");
        assert_eq!(health.deadline_kills(), 1);
    }

    #[test]
    fn deadline_above_job_budget_never_binds() {
        let (program, rip) = looping_program();
        let mut machine = Machine::load(&program).unwrap();
        machine.run_until_ip(rip, 1_000).unwrap();
        let cache = Arc::new(TrajectoryCache::new(64));
        let supervision = Supervision { job_deadline: 1_000_000, ..Supervision::default() };
        let mut pool = SpeculationPool::with_supervision(1, Arc::clone(&cache), supervision);
        assert!(pool.dispatch(SpeculationJob {
            start: machine.state().clone(),
            rip,
            stride: 1,
            max_instructions: 10_000,
        }));
        let stats = pool.shutdown();
        assert_eq!(stats.completed, 1, "{stats:?}");
        assert_eq!(stats.deadline_killed, 0);
    }

    #[cfg(feature = "fault-inject")]
    mod injected {
        use super::*;
        use crate::fault::{FaultPlan, FaultState};

        fn supervision_with(plan: FaultPlan) -> Supervision {
            Supervision { faults: Some(Arc::new(FaultState::new(plan))), ..Supervision::default() }
        }

        /// Dispatches `job`, retrying while the queue is full, and fails the
        /// test if the pool has not taken it within ten seconds.
        fn dispatch_within_deadline(pool: &mut SpeculationPool, job: &SpeculationJob) {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while !pool.dispatch(job.clone()) {
                assert!(std::time::Instant::now() < deadline, "the pool stopped draining");
                std::thread::yield_now();
            }
        }

        #[test]
        fn a_worker_whose_every_job_panics_keeps_draining_its_queue() {
            let (program, rip) = looping_program();
            let mut machine = Machine::load(&program).unwrap();
            machine.run_until_ip(rip, 1_000).unwrap();
            let cache = Arc::new(TrajectoryCache::new(64));
            let plan = FaultPlan { seed: 2, worker_panic_rate: 1.0, ..FaultPlan::default() };
            let mut pool =
                SpeculationPool::with_supervision(1, Arc::clone(&cache), supervision_with(plan));
            let health = Arc::clone(&pool.supervision().health);
            // Sixteen distinct jobs through a four-slot queue: the later ones
            // are accepted only because the one worker keeps taking jobs
            // after each panic.
            for _ in 0..16 {
                let job = SpeculationJob {
                    start: machine.state().clone(),
                    rip,
                    stride: 1,
                    max_instructions: 10_000,
                };
                dispatch_within_deadline(&mut pool, &job);
                assert_eq!(pool.workers(), 1);
                machine.run_until_ip(rip, 1_000).unwrap();
            }
            let stats = pool.shutdown();
            assert_eq!(stats.dispatched, 16, "{stats:?}");
            assert_eq!(stats.panicked, stats.dispatched, "{stats:?}");
            assert_eq!(stats.panicked_joins, 0, "{stats:?}");
            assert_eq!(health.worker_panics(), 16);
            assert!(cache.is_empty());
        }

        #[test]
        fn the_first_clean_job_after_a_panic_burst_matches_a_fresh_pool() {
            let (program, rip) = looping_program();
            let mut machine = Machine::load(&program).unwrap();
            let mut jobs = Vec::new();
            for _ in 0..4 {
                machine.run_until_ip(rip, 1_000).unwrap();
                jobs.push(SpeculationJob {
                    start: machine.state().clone(),
                    rip,
                    stride: 1,
                    max_instructions: 10_000,
                });
            }
            let clean = jobs.pop().unwrap();
            // One worker takes the jobs in order, so the three sampled first
            // are the burst's panics and the last one runs clean.
            let plan = FaultPlan {
                seed: 5,
                worker_panic_rate: 1.0,
                burst_jobs: 3,
                ..FaultPlan::default()
            };
            let after_burst = Arc::new(TrajectoryCache::new(64));
            let mut pool = SpeculationPool::with_supervision(
                1,
                Arc::clone(&after_burst),
                supervision_with(plan),
            );
            for job in jobs.iter().chain([&clean]) {
                dispatch_within_deadline(&mut pool, job);
            }
            let stats = pool.shutdown();
            assert_eq!((stats.panicked, stats.completed), (3, 1), "{stats:?}");

            let fresh = Arc::new(TrajectoryCache::new(64));
            let mut pool = SpeculationPool::new(1, Arc::clone(&fresh));
            dispatch_within_deadline(&mut pool, &clean);
            assert_eq!(pool.shutdown().completed, 1);

            let entry = after_burst.peek(rip, &clean.start);
            assert!(entry.is_some(), "the clean job left no entry");
            assert_eq!(entry, fresh.peek(rip, &clean.start));
        }

        #[test]
        fn spawn_failures_degrade_to_a_smaller_pool() {
            let cache = Arc::new(TrajectoryCache::new(64));
            let plan = FaultPlan { seed: 11, spawn_failure_rate: 1.0, ..FaultPlan::default() };
            let pool =
                SpeculationPool::with_supervision(4, Arc::clone(&cache), supervision_with(plan));
            let health = Arc::clone(&pool.supervision().health);
            assert_eq!(pool.workers(), 0, "every spawn was injected to fail");
            assert_eq!(health.spawn_failures(), 4);
            // No abort, and shutdown of an empty pool is clean.
            let stats = pool.shutdown();
            assert_eq!(stats.dispatched, 0);
        }

        #[test]
        fn corrupted_entries_never_reach_a_lookup() {
            let (program, rip) = looping_program();
            let mut machine = Machine::load(&program).unwrap();
            machine.run_until_ip(rip, 1_000).unwrap();
            let cache = Arc::new(TrajectoryCache::new(1024));
            // Every completed entry gets a payload bit flipped pre-insert.
            let plan = FaultPlan { seed: 3, entry_corruption_rate: 1.0, ..FaultPlan::default() };
            let mut pool =
                SpeculationPool::with_supervision(1, Arc::clone(&cache), supervision_with(plan));
            let mut dispatched = 0;
            for _ in 0..8 {
                let job = SpeculationJob {
                    start: machine.state().clone(),
                    rip,
                    stride: 1,
                    max_instructions: 10_000,
                };
                for _ in 0..1000 {
                    if pool.dispatch(job.clone()) {
                        dispatched += 1;
                        break;
                    }
                    std::thread::yield_now();
                }
                machine.run_until_ip(rip, 1_000).unwrap();
            }
            assert!(dispatched > 0);
            let stats = pool.shutdown();
            assert!(stats.inserted > 0, "corrupted entries still insert ({stats:?})");
            // Replay the whole trajectory: no corrupted entry may be served.
            let mut check = Machine::load(&program).unwrap();
            check.run_until_ip(rip, 1_000).unwrap();
            for _ in 0..40 {
                assert!(cache.lookup(rip, check.state()).is_none());
                if check.run_until_ip(rip, 1_000).is_err() {
                    break;
                }
            }
            assert!(cache.stats().checksum_rejects > 0);
        }
    }
}
