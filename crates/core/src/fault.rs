//! Deterministic fault injection for the supervised speculation runtime
//! (only compiled under the `fault-inject` cargo feature).
//!
//! The injector exists to *prove* the supervision layer's claim: faults may
//! only ever cost speed, never correctness. A [`FaultPlan`] configures
//! rates for every failure class the supervisor contains — worker panics,
//! job stalls (killed by the instruction deadline), thread-spawn failures,
//! planner death, and bit-flipped cache-entry payloads (rejected by the
//! checksum) — and the fault-mode determinism tests then assert that runs
//! under an aggressive plan stay bit-identical to fault-free runs.
//!
//! Decisions are drawn from [`asc_learn::rng`]'s xorshift generator, one
//! throw-away generator per event ordinal: event `n`'s generator is seeded
//! from `seed`, a per-class stream constant, and `n` itself. Which *thread*
//! observes ordinal `n` depends on scheduling, but the fault pattern over
//! ordinals is a pure function of the seed — two runs with the same plan
//! inject the same multiset of faults, which is what the soak harness needs
//! to reproduce a failure.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use asc_learn::rng::{Rng, XorShiftRng};
use asc_tvm::delta::fnv1a;

use crate::supervisor::{watchdog_stage, InjectedFaults};

/// Configured fault rates for one run; `Default` injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Probability that a speculation job panics mid-execution — on a pool
    /// worker or, with `workers == 0`, inline on the main thread: both run
    /// their jobs through `workers::run_job`.
    pub worker_panic_rate: f64,
    /// Probability that a speculation job stalls (runs away) so the
    /// instruction deadline must kill it. Requires a nonzero
    /// [`job_deadline_instructions`](crate::config::AscConfig::job_deadline_instructions)
    /// to be observable — an un-deadlined stall just exhausts the job's
    /// own budget.
    pub job_stall_rate: f64,
    /// Probability that a completed entry's payload gets a bit flipped
    /// before insert (caught by the cache's checksum at apply time).
    pub entry_corruption_rate: f64,
    /// Probability that a worker-thread spawn is forced to fail.
    pub spawn_failure_rate: f64,
    /// Kill the planner thread at this recognized-IP occurrence ordinal
    /// (fires once per run); `None` leaves the planner alone.
    pub planner_death_after: Option<u64>,
    /// Restrict job faults to the first this-many sampled jobs (`0` = no
    /// limit). A bounded burst lets tests assert breaker *recovery*: the
    /// fault storm ends, the half-open probe succeeds, and speculation
    /// resumes.
    pub burst_jobs: u64,
    /// Abort the whole process (`std::process::abort`, dying by `SIGABRT`
    /// with no cleanup — the kill-resume soak's crash model) at the first
    /// recognized-IP occurrence at or past this ordinal; `None` never
    /// aborts. Fires at the occurrence boundary, after any checkpoint due at
    /// it has been written.
    pub abort_at_occurrence: Option<u64>,
    /// Stall the *main loop* (not a worker job) at every occurrence at or
    /// past this ordinal, spinning without ticking the heartbeat until the
    /// watchdog escalates one stage further — the livelock the watchdog
    /// exists to detect. Stops once the watchdog has reached
    /// [`TEAR_DOWN_POOL`](crate::supervisor::watchdog_stage::TEAR_DOWN_POOL),
    /// so one plan climbs the whole ladder; `None` never stalls.
    pub stall_at_occurrence: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 1,
            worker_panic_rate: 0.0,
            job_stall_rate: 0.0,
            entry_corruption_rate: 0.0,
            spawn_failure_rate: 0.0,
            planner_death_after: None,
            burst_jobs: 0,
            abort_at_occurrence: None,
            stall_at_occurrence: None,
        }
    }
}

/// Per-class stream constants, xored into the seed so the same ordinal
/// draws independently for each fault class.
const STREAM_JOB: u64 = 0x6a6f_625f;
const STREAM_SPAWN: u64 = 0x7370_6177_6e5f;

fn event_rng(seed: u64, stream: u64, ordinal: u64) -> XorShiftRng {
    XorShiftRng::new(seed ^ stream ^ fnv1a(ordinal.to_le_bytes()))
}

/// Shared injector state: the plan plus the event ordinals, shared by every
/// thread of one run via `Arc`.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    job_ordinal: AtomicU64,
    spawn_ordinal: AtomicU64,
    planner_killed: AtomicBool,
}

impl FaultState {
    /// Fresh injector state for one run.
    pub fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            job_ordinal: AtomicU64::new(0),
            spawn_ordinal: AtomicU64::new(0),
            planner_killed: AtomicBool::new(false),
        }
    }

    /// The configured plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draws the fault decisions for the next speculation job. At most one
    /// fault fires per job — a panicking job never reaches the stall, a
    /// stalled job never completes an entry to corrupt — so the classes are
    /// sampled as an ordered cascade.
    pub fn sample_job(&self) -> InjectedFaults {
        let ordinal = self.job_ordinal.fetch_add(1, Ordering::Relaxed);
        if self.plan.burst_jobs > 0 && ordinal >= self.plan.burst_jobs {
            return InjectedFaults::default();
        }
        let mut rng = event_rng(self.plan.seed, STREAM_JOB, ordinal);
        let panic = rng.gen_bool(self.plan.worker_panic_rate);
        let stall = !panic && rng.gen_bool(self.plan.job_stall_rate);
        let corrupt = (!panic && !stall && rng.gen_bool(self.plan.entry_corruption_rate))
            .then(|| rng.next_u64());
        InjectedFaults { panic, stall, corrupt }
    }

    /// Whether the next worker-thread spawn is forced to fail.
    pub fn sample_spawn_failure(&self) -> bool {
        let ordinal = self.spawn_ordinal.fetch_add(1, Ordering::Relaxed);
        event_rng(self.plan.seed, STREAM_SPAWN, ordinal).gen_bool(self.plan.spawn_failure_rate)
    }

    /// Whether the planner dies at occurrence `ordinal` — fires exactly
    /// once, at the first occurrence at or past the configured point.
    pub fn planner_death_at(&self, ordinal: u64) -> bool {
        match self.plan.planner_death_after {
            Some(at) if ordinal >= at => !self.planner_killed.swap(true, Ordering::Relaxed),
            _ => false,
        }
    }

    /// Whether the process aborts at occurrence `ordinal` (the kill-resume
    /// soak's SIGKILL-equivalent crash point). The caller aborts, so this
    /// can only ever return `true` once per process.
    pub fn abort_at(&self, ordinal: u64) -> bool {
        matches!(self.plan.abort_at_occurrence, Some(at) if ordinal >= at)
    }

    /// Whether the main loop stalls at occurrence `ordinal` with the
    /// watchdog at `stage` — fires at every occurrence at or past the
    /// configured point until the watchdog has torn the pool down.
    pub fn stall_at(&self, ordinal: u64, stage: u8) -> bool {
        matches!(self.plan.stall_at_occurrence, Some(at) if ordinal >= at)
            && stage < watchdog_stage::TEAR_DOWN_POOL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let state = FaultState::new(FaultPlan::default());
        for _ in 0..100 {
            assert_eq!(state.sample_job().count(), 0);
            assert!(!state.sample_spawn_failure());
        }
        assert!(!state.planner_death_at(1_000));
    }

    #[test]
    fn same_seed_same_fault_pattern() {
        let plan = FaultPlan {
            seed: 42,
            worker_panic_rate: 0.2,
            job_stall_rate: 0.1,
            entry_corruption_rate: 0.1,
            ..FaultPlan::default()
        };
        let a = FaultState::new(plan.clone());
        let b = FaultState::new(plan);
        for _ in 0..200 {
            let (fa, fb) = (a.sample_job(), b.sample_job());
            assert_eq!(fa.panic, fb.panic);
            assert_eq!(fa.stall, fb.stall);
            assert_eq!(fa.corrupt, fb.corrupt);
        }
    }

    #[test]
    fn rates_are_roughly_honored() {
        let state =
            FaultState::new(FaultPlan { seed: 7, worker_panic_rate: 0.25, ..FaultPlan::default() });
        let panics = (0..10_000).filter(|_| state.sample_job().panic).count();
        assert!((1_900..3_100).contains(&panics), "got {panics}");
    }

    #[test]
    fn at_most_one_fault_per_job() {
        let state = FaultState::new(FaultPlan {
            seed: 3,
            worker_panic_rate: 0.9,
            job_stall_rate: 0.9,
            entry_corruption_rate: 0.9,
            ..FaultPlan::default()
        });
        for _ in 0..500 {
            assert!(state.sample_job().count() <= 1);
        }
    }

    #[test]
    fn burst_limit_silences_later_jobs() {
        let plan =
            FaultPlan { seed: 9, worker_panic_rate: 1.0, burst_jobs: 10, ..FaultPlan::default() };
        let state = FaultState::new(plan);
        let first: Vec<_> = (0..10).map(|_| state.sample_job().panic).collect();
        assert!(first.iter().all(|&p| p), "burst jobs must all panic at rate 1.0");
        for _ in 0..100 {
            assert_eq!(state.sample_job().count(), 0);
        }
    }

    #[test]
    fn stall_fires_until_the_pool_is_torn_down_and_abort_latches() {
        use watchdog_stage::{FORCE_BREAKER, NONE, TEAR_DOWN_POOL};
        let state = FaultState::new(FaultPlan {
            abort_at_occurrence: Some(20),
            stall_at_occurrence: Some(10),
            ..FaultPlan::default()
        });
        assert!(!state.stall_at(9, NONE));
        assert!(state.stall_at(11, NONE));
        assert!(state.stall_at(12, FORCE_BREAKER), "each stage below teardown stalls again");
        assert!(state.stall_at(12, FORCE_BREAKER), "the stall is not consumed by firing");
        assert!(!state.stall_at(13, TEAR_DOWN_POOL), "a torn-down run is never stalled");
        assert!(!state.abort_at(19));
        assert!(state.abort_at(20));
    }

    #[test]
    fn planner_death_fires_exactly_once() {
        let state =
            FaultState::new(FaultPlan { planner_death_after: Some(40), ..FaultPlan::default() });
        assert!(!state.planner_death_at(39));
        assert!(state.planner_death_at(40));
        assert!(!state.planner_death_at(41));
        assert!(!state.planner_death_at(40));
    }
}
