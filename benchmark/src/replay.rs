//! The ledger replay: `accelerate`'s inline miss-driven loop re-assembled
//! from the layers' public functions, with a span around every call.
//!
//! This is `LascRuntime::run_miss_driven` for `workers = 0` minus what only
//! the runtime can reach — heartbeat, breaker, checkpoint tick, remote tier,
//! report assembly. Those missing pieces are exactly what
//! `supervisor.loop_overhead_s` (inline wall − replay wall) measures, and
//! `runtime.replay_matches_runtime` says whether the replay still walks the
//! same trajectory as the runtime (same lookups, hits, inserts and retired
//! instructions). Keep the call order below identical to the runtime's.

use crate::spans::Tracer;
use crate::traced;
use asc_core::allocator::plan_speculation;
use asc_core::cache::{CacheStats, LookupScratch, TrajectoryCache};
use asc_core::config::AscConfig;
use asc_core::economics::SpeculationEconomics;
use asc_core::error::AscResult;
use asc_core::predictor_bank::PredictorBank;
use asc_core::recognizer::{recognize, RecognizedIp};
use asc_core::speculator::{execute_superstep_with, SpeculationScratch};
use asc_tvm::machine::Machine;
use asc_tvm::state::StateVector;
use std::time::Instant;

/// Span names. The part before the dot is the layer (a module of
/// `asc-core` / `asc-tvm`); `runtime.*` is the loop itself.
pub mod span {
    pub const RUN: &str = "runtime.run";
    pub const SETUP: &str = "runtime.setup";
    pub const OCCURRENCE: &str = "runtime.occurrence";
    pub const STATE_CLONE: &str = "runtime.state_clone";
    pub const RECOGNIZE: &str = "recognizer.recognize";
    pub const LOOKUP: &str = "cache.lookup";
    pub const APPLY: &str = "cache.apply";
    pub const INSERT: &str = "cache.insert";
    pub const OBSERVE: &str = "predictor_bank.observe";
    pub const ROLLOUT: &str = "predictor_bank.rollout";
    pub const ECONOMICS: &str = "economics.update";
    pub const PLAN: &str = "allocator.plan";
    pub const SPECULATE: &str = "speculator.execute";
    pub const EXECUTE: &str = "tvm.execute";
}

/// Everything the replay produced: the result to check, the counters to
/// compare with the runtime's, and the learned state the checkpoint timing
/// reuses.
pub struct Replay {
    /// Recognize → halt, by one clock read on each side of the whole run.
    pub wall_s: f64,
    pub final_state: StateVector,
    pub halted: bool,
    pub rip: RecognizedIp,
    pub unique_ips: usize,
    pub converge_instructions: u64,
    pub executed_instructions: u64,
    pub fast_forwarded_instructions: u64,
    pub cache: CacheStats,
    pub bank: PredictorBank,
    pub economics: SpeculationEconomics,
    /// Calls to `plan_speculation`, and tasks it returned in total.
    pub plans: u64,
    pub tasks: u64,
    /// Supersteps executed speculatively (every task runs inline).
    pub speculated: u64,
}

impl Replay {
    pub fn total_instructions(&self) -> u64 {
        self.executed_instructions + self.fast_forwarded_instructions
    }
}

/// Runs the program under the replayed loop.
///
/// # Errors
/// Propagates recognizer and simulator errors, as `accelerate` does.
pub fn replay(initial: &StateVector, config: &AscConfig, tracer: &mut Tracer) -> AscResult<Replay> {
    let started = Instant::now();
    tracer.begin(span::RUN);
    let outcome = traced!(tracer, span::RECOGNIZE, recognize(initial, config))?;
    let rip = outcome.rip;

    tracer.begin(span::SETUP);
    let cache =
        TrajectoryCache::with_junk_threshold(config.cache_capacity, config.cache_junk_threshold);
    let mut machine = Machine::from_state(outcome.resume_state.clone());
    machine.enable_tier(config.tier);
    machine.seed_hot(rip.ip);
    let mut bank = PredictorBank::new(rip.ip, config);
    let mut economics = SpeculationEconomics::new(&config.economics);
    let mut scratch = SpeculationScratch::with_tier(config.tier);
    let mut lookup = LookupScratch::new();
    tracer.end();

    let mut superstep_estimate = rip.mean_superstep;
    let mut fast_forwarded = 0u64;
    let mut halted = outcome.halted;
    let (mut occurrence, mut plans, mut tasks_planned, mut speculated) = (0u64, 0u64, 0u64, 0u64);

    while !halted {
        if outcome.resume_instret + machine.instret() >= config.instruction_budget {
            break;
        }
        occurrence += 1;
        tracer.set_occurrence(occurrence);
        tracer.begin(span::OCCURRENCE);

        let hit =
            traced!(tracer, span::LOOKUP, cache.lookup_with(rip.ip, machine.state(), &mut lookup));
        if let Some(entry) = hit {
            traced!(tracer, span::APPLY, machine.apply_sparse(&entry.end));
            fast_forwarded += entry.instructions;
            traced!(tracer, span::ECONOMICS, economics.record_lookup(true));
            // The runtime trains on a full clone of the state on every hit.
            let state = traced!(tracer, span::STATE_CLONE, machine.state().clone());
            traced!(tracer, span::OBSERVE, bank.observe(&state));
            tracer.end();
            continue;
        }

        traced!(tracer, span::ECONOMICS, economics.record_lookup(false));
        let state = traced!(tracer, span::STATE_CLONE, machine.state().clone());
        traced!(tracer, span::OBSERVE, bank.observe(&state));
        traced!(tracer, span::ECONOMICS, economics.observe_model(bank.recent_error_rate()));
        if bank.is_ready() {
            let horizon = traced!(tracer, span::ECONOMICS, economics.horizon(config.rollout_depth));
            let rollouts = traced!(tracer, span::ROLLOUT, bank.rollout(&state, horizon));
            // Includes the allocator's cache coverage probes and the
            // economics' per-candidate pricing: both happen inside the call.
            let tasks = traced!(
                tracer,
                span::PLAN,
                plan_speculation(
                    rollouts,
                    superstep_estimate,
                    config.rollout_depth,
                    &cache,
                    rip.ip,
                    &mut lookup,
                    &mut economics,
                )
            );
            plans += 1;
            tasks_planned += tasks.len() as u64;
            for task in tasks {
                let result = traced!(
                    tracer,
                    span::SPECULATE,
                    execute_superstep_with(
                        &task.predicted.state,
                        rip.ip,
                        rip.stride,
                        config.max_superstep,
                        &mut scratch,
                    )
                );
                speculated += 1;
                // A fault or an exhausted budget from a mispredicted start
                // is a normal outcome: nothing to insert.
                if let Some(done) = result.ok().and_then(|r| r.completed()) {
                    if done.reached_rip || done.halted {
                        traced!(tracer, span::INSERT, cache.insert(done.entry));
                    }
                }
            }
        }

        tracer.begin(span::EXECUTE);
        let mut executed = 0u64;
        for _ in 0..rip.stride.max(1) {
            let budget = config.max_superstep.saturating_sub(executed).max(1);
            executed += machine.run_until_ip(rip.ip, budget)?.0;
            if machine.is_halted() || executed >= config.max_superstep {
                break;
            }
        }
        tracer.end();
        tracer.end();
        halted = machine.is_halted();
        if executed == 0 {
            break;
        }
        superstep_estimate = 0.9 * superstep_estimate + 0.1 * executed as f64;
    }
    tracer.end();
    let wall_s = started.elapsed().as_secs_f64();

    Ok(Replay {
        wall_s,
        halted,
        rip,
        unique_ips: outcome.unique_ips,
        converge_instructions: outcome.instructions_spent,
        executed_instructions: outcome.resume_instret + machine.instret(),
        fast_forwarded_instructions: fast_forwarded,
        cache: cache.stats(),
        bank,
        economics,
        plans,
        tasks: tasks_planned,
        speculated,
        final_state: machine.into_state(),
    })
}
