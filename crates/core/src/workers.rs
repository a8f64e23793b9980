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
//! [`supervisor`](crate::supervisor)): every job runs under `catch_unwind`
//! with an optional instruction deadline. A panicking job releases its
//! in-flight permit, ticks the health counters and retires its worker (the
//! scratch state is suspect after an unwind); a monitor thread joins the
//! corpse and respawns the slot with exponential backoff, up to
//! [`max_worker_restarts`](crate::config::AscConfig::max_worker_restarts)
//! times before abandoning it and letting the pool shrink. Thread-spawn
//! failure at startup is likewise non-fatal: the pool runs with however
//! many workers materialized (down to zero — dispatch then just drops), and
//! the shortfall is recorded in
//! [`HealthStats`](crate::supervisor::HealthStats). Shutdown joins
//! everything and surfaces any panic it was not already told about.

use crate::cache::TrajectoryCache;
use crate::speculator::{execute_superstep_with, SpeculationResult, SpeculationScratch};
use crate::supervisor::Supervision;
use asc_tvm::state::StateVector;
use asc_tvm::TierStats;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
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
/// is released even if superstep execution or the cache insert panics —
/// a leaked fingerprint would otherwise saturate the pool permanently and
/// silently disable speculation.
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
    /// discarded and the worker retired (and usually respawned).
    pub panicked: u64,
    /// Jobs killed at the per-job instruction deadline
    /// ([`job_deadline_instructions`](crate::config::AscConfig::job_deadline_instructions)).
    pub deadline_killed: u64,
    /// Worker joins at shutdown that surfaced a panic the supervisor had
    /// not already contained per-job.
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
    /// Folds one job's tier counters into the pool-wide totals.
    fn record_tier(&self, stats: &TierStats) {
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

/// Everything a worker (and the monitor respawning workers) needs, behind
/// one `Arc`. Holding the queue's receiver here — not in the worker
/// closures — keeps queued jobs alive across worker deaths: a respawned
/// worker resumes draining exactly where the dead one stopped.
struct WorkerShared {
    receiver: Mutex<Receiver<QueuedJob>>,
    cache: Arc<TrajectoryCache>,
    counters: SharedCounters,
    /// Fingerprints of start states queued or executing right now; prevents
    /// wasting workers on duplicate speculation when the main thread
    /// re-plans overlapping rollouts at consecutive occurrences.
    inflight: Mutex<HashSet<u64>>,
    supervision: Supervision,
    /// Live worker threads. Incremented *before* each spawn and decremented
    /// at thread exit (or on spawn failure), so it never underflows however
    /// quickly a worker dies.
    live: AtomicUsize,
}

/// Messages to the monitor thread. The monitor is spawned before any
/// worker, and workers are handed to it by message — so a handle exists
/// somewhere even when a later spawn in the startup loop fails.
enum ExitEvent {
    /// A freshly spawned worker's handle, from the pool's startup loop.
    Adopt { index: usize, handle: JoinHandle<()> },
    /// Worker `index` contained a job panic and retired; join the corpse
    /// and decide whether to respawn the slot.
    Panicked { index: usize },
    /// The pool is shutting down: join every remaining worker and exit.
    Shutdown,
}

/// A persistent pool of speculation worker threads feeding a shared
/// trajectory cache.
pub struct SpeculationPool {
    sender: Option<SyncSender<QueuedJob>>,
    shared: Arc<WorkerShared>,
    exit_sender: Sender<ExitEvent>,
    monitor: Option<JoinHandle<()>>,
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
            live: AtomicUsize::new(0),
        });
        // The monitor is spawned first so every worker handle has somewhere
        // to live; if even the monitor cannot be spawned, fall back to a
        // supervisor-less pool (workers unsupervised but still panic-safe
        // per job; shutdown joins nothing it was not told about).
        let (exit_sender, exit_receiver) = std::sync::mpsc::channel::<ExitEvent>();
        let monitor = {
            let shared = Arc::clone(&shared);
            let exit_sender = exit_sender.clone();
            std::thread::Builder::new()
                .name("asc-supervisor".into())
                .spawn(move || monitor_loop(&exit_receiver, &shared, &exit_sender))
                .ok()
        };
        if monitor.is_none() {
            shared.supervision.health.record_spawn_failures(1);
        }
        let pool = SpeculationPool {
            sender: Some(sender),
            shared,
            exit_sender,
            monitor,
            dispatched: 0,
            dropped: 0,
            deduplicated: 0,
        };
        for index in 0..workers {
            match spawn_worker(index, &pool.shared, &pool.exit_sender) {
                Ok(handle) => {
                    // The monitor owns every join handle. With no monitor the
                    // send fails and the handle is detached — nothing joins
                    // it, but workers exit on queue close regardless.
                    let _ = pool.exit_sender.send(ExitEvent::Adopt { index, handle });
                }
                Err(_) => {
                    pool.shared.supervision.health.record_spawn_failures(1);
                }
            }
        }
        pool
    }

    /// Number of live worker threads (shrinks when supervision abandons a
    /// slot, grows back while respawns succeed).
    pub fn workers(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
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
    /// the monitor, and returns the final counters — including
    /// [`panicked_joins`](PoolStats::panicked_joins), the number of worker
    /// deaths first surfaced by the join rather than contained in flight.
    pub fn shutdown(mut self) -> PoolStats {
        self.finish();
        self.stats()
    }

    fn finish(&mut self) {
        self.sender = None; // closing the channel ends every worker loop
        if let Some(monitor) = self.monitor.take() {
            // The explicit message is required: the monitor holds a sender
            // clone of its own channel, so a disconnect can never reach it.
            let _ = self.exit_sender.send(ExitEvent::Shutdown);
            if monitor.join().is_err() {
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

/// Spawns one worker thread. `live` is incremented first and decremented on
/// the failure path (and by the worker itself at exit), so the counter is
/// correct no matter how quickly the thread dies.
fn spawn_worker(
    index: usize,
    shared: &Arc<WorkerShared>,
    exit: &Sender<ExitEvent>,
) -> std::io::Result<JoinHandle<()>> {
    shared.live.fetch_add(1, Ordering::Relaxed);
    if shared.supervision.spawn_fault() {
        shared.live.fetch_sub(1, Ordering::Relaxed);
        return Err(std::io::Error::other("injected worker spawn failure"));
    }
    let result = std::thread::Builder::new().name(format!("asc-speculator-{index}")).spawn({
        let shared = Arc::clone(shared);
        let exit = exit.clone();
        move || {
            worker_loop(&shared, &exit, index);
            shared.live.fetch_sub(1, Ordering::Relaxed);
        }
    });
    if result.is_err() {
        shared.live.fetch_sub(1, Ordering::Relaxed);
    }
    result
}

/// The monitor: adopts worker handles, joins panicked workers and respawns
/// their slot with exponential backoff until the restart budget runs out,
/// then joins everything at shutdown and surfaces uncontained panics.
fn monitor_loop(
    events: &Receiver<ExitEvent>,
    shared: &Arc<WorkerShared>,
    exit_sender: &Sender<ExitEvent>,
) {
    let supervision = &shared.supervision;
    let mut handles: HashMap<usize, JoinHandle<()>> = HashMap::new();
    let mut restarts: HashMap<usize, u32> = HashMap::new();
    loop {
        match events.recv() {
            Ok(ExitEvent::Adopt { index, handle }) => {
                handles.insert(index, handle);
            }
            Ok(ExitEvent::Panicked { index }) => {
                if let Some(handle) = handles.remove(&index) {
                    // The worker contained the panic and already counted
                    // it; it exits right after sending, so this join is
                    // immediate and (normally) clean.
                    if handle.join().is_err() {
                        supervision.health.record_panicked_joins(1);
                    }
                }
                let attempt = restarts.entry(index).or_insert(0);
                *attempt += 1;
                if *attempt > supervision.max_restarts {
                    supervision.health.record_workers_lost(1);
                    continue;
                }
                let backoff = supervision.backoff_ms << (*attempt - 1).min(6);
                if backoff > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(backoff));
                }
                match spawn_worker(index, shared, exit_sender) {
                    Ok(handle) => {
                        supervision.health.record_worker_restarts(1);
                        handles.insert(index, handle);
                    }
                    Err(_) => {
                        supervision.health.record_spawn_failures(1);
                        supervision.health.record_workers_lost(1);
                    }
                }
            }
            // `Err` is a backstop: the monitor holds a sender clone, so the
            // channel cannot disconnect while it runs.
            Ok(ExitEvent::Shutdown) | Err(_) => break,
        }
    }
    for handle in handles.into_values() {
        if handle.join().is_err() {
            supervision.health.record_panicked_joins(1);
        }
    }
}

fn worker_loop(shared: &WorkerShared, exit: &Sender<ExitEvent>, index: usize) {
    // One scratch (dependency vector + tier-up block cache) for the
    // worker's whole lifetime: reset between jobs, never reallocated while
    // the state size is stable — so blocks compiled for one job keep paying
    // off across every later job speculating over the same code.
    let mut scratch = SpeculationScratch::with_tier(shared.supervision.tier);
    loop {
        // Take the lock only to receive; execution happens unlocked so
        // workers genuinely run concurrently.
        let queued = {
            let guard = shared.receiver.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.recv()
        };
        let Ok(queued) = queued else { return };
        if run_one_job(shared, queued, &mut scratch) {
            // The job panicked. The panic was contained and counted, but
            // the scratch (and anything else touched mid-unwind) is
            // suspect: retire this worker and let the monitor respawn the
            // slot with a fresh one.
            let _ = exit.send(ExitEvent::Panicked { index });
            return;
        }
    }
}

/// Runs one job under `catch_unwind` and the supervision deadline; returns
/// `true` when the job panicked (contained) and the worker must retire.
fn run_one_job(shared: &WorkerShared, queued: QueuedJob, scratch: &mut SpeculationScratch) -> bool {
    let QueuedJob { job, fingerprint } = queued;
    // Released on every exit path, including panics mid-execution;
    // afterwards, identical predictions are filtered by the cache-coverage
    // check instead.
    let _inflight = InflightGuard { inflight: &shared.inflight, fingerprint };
    let faults = shared.supervision.job_faults();
    let (budget, deadline_bound) = shared.supervision.job_budget(job.max_instructions);
    // An injected stall models a runaway speculation: a stride no real
    // program reaches, so the job burns its whole budget and the deadline
    // (when armed) is what kills it.
    let stride = if faults.stall { usize::MAX } else { job.stride };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if faults.panic {
            panic!("injected worker panic");
        }
        execute_superstep_with(&job.start, job.rip, stride, budget, scratch)
    }));
    let counters = &shared.counters;
    // Drain tier counters unconditionally: even a faulted or panicked job
    // retired real instructions, and the drain keeps per-job deltas from
    // double counting when the scratch outlives thousands of jobs.
    counters.record_tier(&scratch.take_tier_stats());
    match outcome {
        Err(_) => {
            counters.panicked.fetch_add(1, Ordering::Relaxed);
            shared.supervision.health.record_worker_panics(1);
            true
        }
        Ok(Ok(SpeculationResult::Completed(outcome))) => {
            if outcome.reached_rip || outcome.halted {
                counters.completed.fetch_add(1, Ordering::Relaxed);
                shared.supervision.health.record_jobs_ok(1);
                #[cfg_attr(not(feature = "fault-inject"), allow(unused_mut))]
                let mut entry = outcome.entry;
                #[cfg(feature = "fault-inject")]
                if let Some(selector) = faults.corrupt {
                    entry.corrupt_payload(selector);
                }
                if shared.cache.insert(entry) {
                    counters.inserted.fetch_add(1, Ordering::Relaxed);
                }
            } else if deadline_bound {
                // The deadline, not the job's own budget, was the binding
                // constraint: this speculation was killed, not merely
                // unlucky.
                counters.deadline_killed.fetch_add(1, Ordering::Relaxed);
                shared.supervision.health.record_deadline_kills(1);
            } else {
                counters.exhausted.fetch_add(1, Ordering::Relaxed);
                shared.supervision.health.record_jobs_ok(1);
            }
            false
        }
        Ok(Ok(SpeculationResult::Faulted { .. })) | Ok(Err(_)) => {
            // Faults are the expected price of mispredicted start states;
            // the result is simply discarded (§4.1).
            counters.faulted.fetch_add(1, Ordering::Relaxed);
            shared.supervision.health.record_jobs_ok(1);
            false
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
            Supervision {
                faults: Some(Arc::new(FaultState::new(plan))),
                backoff_ms: 0,
                max_restarts: 16,
                ..Supervision::default()
            }
        }

        #[test]
        fn injected_panics_are_contained_and_workers_respawn() {
            let (program, rip) = looping_program();
            let mut machine = Machine::load(&program).unwrap();
            machine.run_until_ip(rip, 1_000).unwrap();
            let cache = Arc::new(TrajectoryCache::new(1024));
            // The first 3 jobs all panic; later jobs run clean.
            let plan = FaultPlan {
                seed: 5,
                worker_panic_rate: 1.0,
                burst_jobs: 3,
                ..FaultPlan::default()
            };
            let mut pool =
                SpeculationPool::with_supervision(2, Arc::clone(&cache), supervision_with(plan));
            let health = Arc::clone(&pool.supervision().health);
            let mut dispatched = 0;
            for _ in 0..12 {
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
            // Wait until every injected panic has been contained and its
            // slot respawned, so shutdown deterministically drains the
            // remaining queue with live workers.
            for _ in 0..2_000 {
                if pool.stats().panicked == 3 && health.worker_restarts() == 3 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let stats = pool.shutdown();
            assert_eq!(stats.panicked, 3, "{stats:?}");
            assert_eq!(health.worker_panics(), 3);
            // Every panicked worker was respawned (budget is ample), so no
            // dispatched job was stranded.
            assert_eq!(health.worker_restarts(), 3);
            assert_eq!(health.workers_lost(), 0);
            assert_eq!(
                stats.completed + stats.faulted + stats.exhausted + stats.panicked,
                dispatched,
                "{stats:?}"
            );
        }

        #[test]
        fn exhausted_restart_budget_shrinks_the_pool() {
            let program = assemble("spin:\n jmp spin\n").unwrap();
            let start = program.initial_state().unwrap();
            let cache = Arc::new(TrajectoryCache::new(64));
            // Every job panics forever; one worker with zero respawns.
            let plan = FaultPlan { seed: 2, worker_panic_rate: 1.0, ..FaultPlan::default() };
            let supervision = Supervision {
                faults: Some(Arc::new(FaultState::new(plan))),
                backoff_ms: 0,
                max_restarts: 0,
                ..Supervision::default()
            };
            let mut pool = SpeculationPool::with_supervision(1, Arc::clone(&cache), supervision);
            let health = Arc::clone(&pool.supervision().health);
            assert!(pool.dispatch(SpeculationJob {
                start,
                rip: 8,
                stride: 1,
                max_instructions: 1_000,
            }));
            // Wait for the panic to be contained and the slot abandoned.
            for _ in 0..2_000 {
                if health.workers_lost() == 1 && pool.workers() == 0 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert_eq!(health.workers_lost(), 1);
            assert_eq!(health.worker_restarts(), 0);
            assert_eq!(pool.workers(), 0, "abandoned slot must shrink the live count");
            // Dispatch still cannot wedge: the queue buffers then drops.
            for _ in 0..64 {
                let mut state = program.initial_state().unwrap();
                state.set_reg_index(1, 7);
                pool.dispatch(SpeculationJob {
                    start: state,
                    rip: 8,
                    stride: 1,
                    max_instructions: 1_000,
                });
            }
            let stats = pool.shutdown();
            assert_eq!(stats.panicked, 1);
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
