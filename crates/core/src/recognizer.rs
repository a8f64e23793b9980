//! The recognizer: finding instruction pointers worth speculating on (§4.3).
//!
//! The recognizer induces a hyperplane through state space by picking states
//! that share an instruction-pointer value. A good recognized IP (RIP) must
//! (a) recur, (b) be *widely spaced* — the speculative execution from one
//! occurrence to the next must be long enough to outweigh lookup and
//! communication costs — and (c) have successor states the predictors can
//! actually predict. The search proceeds in two phases, as in the paper:
//! first profile every observed IP's occurrence statistics, then evaluate the
//! most promising candidates by training throw-away predictor banks on them
//! and measuring realised prediction accuracy.

use crate::config::AscConfig;
use crate::error::{AscError, AscResult};
use crate::predictor_bank::{PredictorBank, EXCITATION_WARMUP};
use asc_tvm::machine::Machine;
use asc_tvm::state::StateVector;
use std::collections::HashMap;

/// Occurrence statistics for one candidate IP value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateStats {
    /// The instruction pointer value.
    pub ip: u32,
    /// Number of times it was observed.
    pub occurrences: u64,
    /// Instruction count at its first occurrence.
    pub first_instret: u64,
    /// Instruction count at its most recent occurrence.
    pub last_instret: u64,
}

impl CandidateStats {
    /// Mean number of instructions between occurrences.
    pub fn mean_gap(&self) -> f64 {
        if self.occurrences <= 1 {
            0.0
        } else {
            (self.last_instret - self.first_instret) as f64 / (self.occurrences - 1) as f64
        }
    }
}

/// Phase-one profiler: counts occurrences and spacing of every IP value seen.
#[derive(Debug, Clone, Default)]
pub struct IpProfiler {
    stats: HashMap<u32, CandidateStats>,
}

impl IpProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        IpProfiler::default()
    }

    /// Records that execution reached `ip` with `instret` instructions retired.
    pub fn record(&mut self, ip: u32, instret: u64) {
        self.stats
            .entry(ip)
            .and_modify(|s| {
                s.occurrences += 1;
                s.last_instret = instret;
            })
            .or_insert(CandidateStats {
                ip,
                occurrences: 1,
                first_instret: instret,
                last_instret: instret,
            });
    }

    /// Number of distinct IP values observed (Table 1's "unique IP values").
    pub fn unique_ips(&self) -> usize {
        self.stats.len()
    }

    /// The most promising candidates: IPs that recur, ranked by how much of
    /// the observed execution their occurrences span. For IPs that recur too
    /// frequently, a stride is chosen so that `stride` consecutive occurrences
    /// cover at least `min_superstep` instructions — this is how the paper's
    /// recognizer "adapts and considers only every 4000 instances" for the
    /// tight Collatz outer loop.
    ///
    /// `now` is the instruction count at the end of profiling; IPs whose last
    /// occurrence is stale (they stopped recurring, e.g. initialisation
    /// loops) are skipped, since speculation on them would never fire again.
    pub fn candidates(&self, min_superstep: u64, count: usize, now: u64) -> Vec<Candidate> {
        let window_start = self.stats.values().map(|s| s.first_instret).min().unwrap_or(0);
        let staleness_horizon = now.saturating_sub(now.saturating_sub(window_start) / 4);
        let mut ranked: Vec<&CandidateStats> = self
            .stats
            .values()
            .filter(|s| s.occurrences >= 3 && s.last_instret >= staleness_horizon)
            .collect();
        ranked.sort_by(|a, b| {
            let coverage_a = a.last_instret - a.first_instret;
            let coverage_b = b.last_instret - b.first_instret;
            coverage_b.cmp(&coverage_a).then(a.ip.cmp(&b.ip))
        });
        // Programs contain many IP values inside the *same* loop nest, all
        // with nearly identical spacing; evaluating every one of them is
        // wasted work. Bucket candidates by the magnitude of their mean gap
        // (one bucket per power of two) and pick round-robin across buckets —
        // best-covered IP of every bucket first, then the runners-up — so
        // that each loop level of the program (innermost body, middle loops,
        // outermost structure) is represented before any level gets a second
        // representative.
        let mut buckets: Vec<(u32, Vec<&CandidateStats>)> = Vec::new();
        for s in ranked {
            let gap = s.mean_gap().max(1.0);
            // Bucket granularity of ~1.5x: fine enough that adjacent loop
            // levels (e.g. an initialisation loop and the main processing
            // loop) do not collapse into one bucket.
            let bucket = (gap.ln() / 1.5f64.ln()).floor() as u32;
            match buckets.iter_mut().find(|(b, _)| *b == bucket) {
                Some((_, members)) => members.push(s),
                None => buckets.push((bucket, vec![s])),
            }
        }
        let mut chosen: Vec<Candidate> = Vec::new();
        let mut round = 0usize;
        while chosen.len() < count {
            let mut added = false;
            for (_, members) in &buckets {
                if let Some(s) = members.get(round) {
                    let gap = s.mean_gap().max(1.0);
                    let stride = (min_superstep as f64 / gap).ceil().max(1.0) as usize;
                    chosen.push(Candidate {
                        ip: s.ip,
                        stride,
                        mean_gap: gap,
                        occurrences: s.occurrences,
                    });
                    added = true;
                    if chosen.len() >= count {
                        break;
                    }
                }
            }
            if !added {
                break;
            }
            round += 1;
        }
        chosen
    }
}

/// A candidate RIP with its chosen occurrence stride.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The instruction pointer value.
    pub ip: u32,
    /// Consider only every `stride`-th occurrence (superstep = `stride` gaps).
    pub stride: usize,
    /// Mean instructions between raw occurrences.
    pub mean_gap: f64,
    /// Raw occurrence count during profiling.
    pub occurrences: u64,
}

/// The recognizer's final selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecognizedIp {
    /// The selected instruction pointer value.
    pub ip: u32,
    /// Occurrence stride defining one superstep.
    pub stride: usize,
    /// Mean instructions per superstep observed during evaluation.
    pub mean_superstep: f64,
    /// Fraction of evaluation supersteps whose successor state was predicted
    /// exactly (on the excitation bits).
    pub accuracy: f64,
    /// Expected utility: accuracy × mean superstep length.
    pub score: f64,
}

/// Outcome of the full two-phase recognizer run.
#[derive(Debug, Clone)]
pub struct RecognizerOutcome {
    /// The selected RIP.
    pub rip: RecognizedIp,
    /// All evaluated candidates with their scores, best first.
    pub evaluated: Vec<RecognizedIp>,
    /// Unique IP values observed while profiling.
    pub unique_ips: usize,
    /// Instructions consumed by profiling plus evaluation (the sequential
    /// part of Table 1's "converge time").
    pub instructions_spent: u64,
    /// The machine state at the end of the recognizer run, so the caller can
    /// resume execution without repeating work.
    pub resume_state: StateVector,
    /// Instructions retired in total by the resumed machine.
    pub resume_instret: u64,
    /// Whether the program halted during recognition (short programs).
    pub halted: bool,
}

/// Runs both recognizer phases starting from `initial` state.
///
/// Phase 1 executes `config.explore_instructions` while profiling IP
/// occurrences. Phase 2 continues execution, feeding every candidate's
/// occurrences to a throw-away [`PredictorBank`] and scoring realised
/// prediction accuracy, until each candidate has had
/// `config.evaluation_occurrences` scored supersteps (or a bounded budget is
/// exhausted).
///
/// # Errors
/// Returns [`AscError::NoRecognizedIp`] when nothing recurs widely enough,
/// [`AscError::ProgramTooShort`] when the program halts before profiling
/// found any repeating IP, and propagates simulator errors.
pub fn recognize(initial: &StateVector, config: &AscConfig) -> AscResult<RecognizerOutcome> {
    config.validate()?;
    let mut machine = Machine::from_state(initial.clone());
    let mut total_unique_ips = 0usize;

    // The recognizer adapts: if the candidates found in one profiling window
    // turn out to be unpredictable or stale (typical when the window covered
    // an initialisation phase that never runs again), it re-profiles from the
    // program's current position and tries again, exactly as the paper's
    // recognizer resets when "a change in program behaviour renders the
    // current RIP useless" (§4.4.1).
    const MAX_ATTEMPTS: usize = 8;
    for attempt in 1..=MAX_ATTEMPTS {
        let mut profiler = IpProfiler::new();

        // ---- Phase 1: profile IP occurrences. ----
        let mut halted = false;
        let phase1_end = machine.instret() + config.explore_instructions;
        while machine.instret() < phase1_end {
            match machine.step()? {
                asc_tvm::exec::StepOutcome::Continue => {
                    profiler.record(machine.state().ip(), machine.instret());
                }
                asc_tvm::exec::StepOutcome::Halted => {
                    halted = true;
                    break;
                }
            }
        }
        total_unique_ips = total_unique_ips.max(profiler.unique_ips());
        let candidates =
            profiler.candidates(config.min_superstep, config.candidate_count, machine.instret());
        if candidates.is_empty() {
            if halted {
                return Err(AscError::ProgramTooShort { executed: machine.instret() });
            }
            if attempt == MAX_ATTEMPTS {
                return Err(AscError::NoRecognizedIp);
            }
            continue;
        }

        // ---- Phase 2: evaluate candidate predictability. ----
        //
        // Exactly as in §4.3: each candidate gets a private predictor bank; when
        // the bank issues a prediction we *speculatively execute* a superstep
        // from the predicted state and keep the resulting cache entry in a local
        // cache of predictions; at the candidate's next occurrence we check
        // whether the real state matches that entry on its dependency (read) set.
        struct Evaluation {
            candidate: Candidate,
            bank: PredictorBank,
            pending: Option<crate::cache::CacheEntry>,
            raw_occurrences_left: usize,
            scored: usize,
            correct: usize,
            superstep_instructions: u64,
            supersteps: usize,
            last_occurrence_instret: Option<u64>,
        }
        let mut evaluations: Vec<Evaluation> = candidates
            .iter()
            .map(|candidate| Evaluation {
                candidate: *candidate,
                bank: PredictorBank::new(candidate.ip, config),
                pending: None,
                raw_occurrences_left: candidate.stride,
                scored: 0,
                correct: 0,
                superstep_instructions: 0,
                supersteps: 0,
                last_occurrence_instret: None,
            })
            .collect();

        // Warm-up and training occurrences plus the scored ones, per candidate.
        let needed =
            config.evaluation_occurrences + config.evaluation_training + EXCITATION_WARMUP + 2;
        // Bound phase 2 so pathological candidates cannot stall recognition.
        let budget = config
            .explore_instructions
            .saturating_mul(8)
            .max(config.min_superstep * (needed as u64) * 4)
            .min(config.instruction_budget);

        let mut spent = 0u64;
        let phase2_start = machine.instret();
        while spent < budget && !halted {
            match machine.step()? {
                asc_tvm::exec::StepOutcome::Continue => {
                    spent += 1;
                    let ip = machine.state().ip();
                    let instret = machine.instret();
                    for evaluation in &mut evaluations {
                        if evaluation.candidate.ip != ip {
                            continue;
                        }
                        evaluation.raw_occurrences_left -= 1;
                        if evaluation.raw_occurrences_left > 0 {
                            continue;
                        }
                        evaluation.raw_occurrences_left = evaluation.candidate.stride;
                        // A strided occurrence of this candidate.
                        if let Some(previous) = evaluation.last_occurrence_instret {
                            evaluation.superstep_instructions += instret - previous;
                            evaluation.supersteps += 1;
                        }
                        evaluation.last_occurrence_instret = Some(instret);
                        let state = machine.state().clone();
                        // Score the speculative entry produced from the previous
                        // occurrence's prediction: a hit means the real state
                        // matches the entry's dependency set.
                        if let Some(entry) = evaluation.pending.take() {
                            evaluation.scored += 1;
                            if entry.matches(&state) {
                                evaluation.correct += 1;
                            }
                        }
                        evaluation.bank.observe(&state);
                        let trained_enough = evaluation.bank.observations()
                            >= (EXCITATION_WARMUP + config.evaluation_training) as u64;
                        if evaluation.bank.is_ready()
                            && trained_enough
                            && evaluation.scored < config.evaluation_occurrences
                        {
                            if let Some(predicted) = evaluation.bank.predict_next(&state) {
                                if let Ok(result) = crate::speculator::execute_superstep(
                                    &predicted.state,
                                    evaluation.candidate.ip,
                                    evaluation.candidate.stride,
                                    config.max_superstep,
                                ) {
                                    if let Some(outcome) = result.completed() {
                                        evaluation.pending = Some(outcome.entry);
                                    }
                                }
                            }
                        }
                    }
                    // A candidate is finished when it has enough scored
                    // supersteps; it is written off as *stalled* when it has not
                    // occurred for many times its expected superstep spacing
                    // (e.g. an initialisation loop that will never run again).
                    // Waiting for stalled candidates would let short programs run
                    // to completion inside the recognizer.
                    let done = evaluations.iter().all(|e| {
                        if e.scored >= config.evaluation_occurrences {
                            return true;
                        }
                        let expected_gap =
                            (e.candidate.mean_gap * e.candidate.stride as f64).max(1.0);
                        // Candidates that have not occurred yet in *this*
                        // attempt are measured from this attempt's phase-2
                        // start, not from the literal exploration budget —
                        // on retry attempts instret is far beyond it and the
                        // old baseline wrote every candidate off as stalled
                        // before evaluation could begin.
                        let since_last =
                            instret - e.last_occurrence_instret.unwrap_or(phase2_start);
                        since_last as f64 > 20.0 * expected_gap
                    });
                    if done {
                        break;
                    }
                }
                asc_tvm::exec::StepOutcome::Halted => {
                    halted = true;
                }
            }
        }

        let mut evaluated: Vec<RecognizedIp> = evaluations
            .iter()
            .filter(|e| e.supersteps > 0)
            .map(|e| {
                let mean_superstep = e.superstep_instructions as f64 / e.supersteps as f64;
                let accuracy = if e.scored == 0 { 0.0 } else { e.correct as f64 / e.scored as f64 };
                RecognizedIp {
                    ip: e.candidate.ip,
                    stride: e.candidate.stride,
                    mean_superstep,
                    accuracy,
                    score: accuracy * mean_superstep,
                }
            })
            .collect();
        evaluated
            .sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));

        let best = evaluated
            .iter()
            .find(|r| r.mean_superstep >= config.min_superstep as f64 && r.accuracy > 0.0)
            .or_else(|| evaluated.iter().find(|r| r.accuracy > 0.0))
            .copied();

        // Retry from the current position when nothing was predictable — unless
        // the program already halted or this was the last attempt, in which case
        // the least-bad candidate (or an error) is returned.
        let rip = match best {
            Some(rip) => rip,
            None if !halted && attempt < MAX_ATTEMPTS => continue,
            None => evaluated.first().copied().ok_or(AscError::NoRecognizedIp)?,
        };

        return Ok(RecognizerOutcome {
            rip,
            evaluated,
            unique_ips: total_unique_ips,
            instructions_spent: machine.instret(),
            resume_state: machine.state().clone(),
            resume_instret: machine.instret(),
            halted,
        });
    }
    Err(AscError::NoRecognizedIp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asc_asm::assemble;
    use asc_workloads::{collatz, ising};

    #[test]
    fn profiler_statistics() {
        let mut profiler = IpProfiler::new();
        // IP 16 occurs every 4 instructions, IP 64 every 40.
        for i in 1..=200u64 {
            if i % 4 == 0 {
                profiler.record(16, i);
            }
            if i % 40 == 0 {
                profiler.record(64, i);
            }
            profiler.record(1000 + i as u32, i); // unique IPs, never repeat
        }
        assert_eq!(profiler.unique_ips(), 202);
        let candidates = profiler.candidates(20, 4, 200);
        assert!(!candidates.is_empty());
        // The tight loop gets a stride so that a superstep spans >= 20 instructions.
        let tight = candidates.iter().find(|c| c.ip == 16).unwrap();
        assert!(tight.stride >= 5);
        let wide = candidates.iter().find(|c| c.ip == 64).unwrap();
        assert_eq!(wide.stride, 1);
    }

    #[test]
    fn recognizes_the_loop_head_of_a_simple_loop() {
        // A loop whose live-in values evolve affinely (a counter and a linear
        // accumulator), i.e. exactly the structure the paper's linear
        // regression predictor is designed for.
        let program = assemble(
            r#"
            main:
                movi r1, 5000
                movi r2, 0
            loop:
                add  r2, r2, 7
                mul  r3, r1, 3
                sub  r1, r1, 1
                cmpi r1, 0
                jne  loop
                halt
            "#,
        )
        .unwrap();
        let config = AscConfig { min_superstep: 30, ..AscConfig::for_tests() };
        let outcome = recognize(&program.initial_state().unwrap(), &config).unwrap();
        // The loop body is 5 instructions; with min_superstep 30 the stride
        // must cover several loop iterations.
        assert!(outcome.rip.stride >= 5);
        assert!(outcome.rip.accuracy > 0.6, "accuracy {:?}", outcome.rip);
        assert!(outcome.rip.mean_superstep >= 30.0);
        assert!(outcome.unique_ips >= 6);
        assert!(outcome.instructions_spent > 0);
    }

    #[test]
    fn recognizes_collatz_outer_loop_with_stride() {
        let params = collatz::CollatzParams { start: 2, count: 400 };
        let program = collatz::program(&params).unwrap();
        let config = AscConfig { min_superstep: 200, ..AscConfig::for_tests() };
        let outcome = recognize(&program.initial_state().unwrap(), &config).unwrap();
        // The chosen superstep must respect the minimum despite the tight loops.
        assert!(outcome.rip.mean_superstep >= 100.0, "{:?}", outcome.rip);
        assert!(outcome.rip.accuracy >= 0.5, "{:?}", outcome.rip);
    }

    #[test]
    fn recognizes_ising_energy_function() {
        let params = ising::IsingParams { nodes: 48, spins: 24, reps: 4, seed: 11 };
        let program = ising::program(&params).unwrap();
        let config = AscConfig {
            min_superstep: 200,
            explore_instructions: 20_000,
            ..AscConfig::for_tests()
        };
        let outcome = recognize(&program.initial_state().unwrap(), &config).unwrap();
        assert!(outcome.rip.mean_superstep >= 200.0, "{:?}", outcome.rip);
        // Pointer-chasing is predictable here because allocation was sequential.
        assert!(outcome.rip.accuracy >= 0.5, "{:?}", outcome.rip);
    }

    #[test]
    fn straight_line_program_has_no_rip() {
        let program =
            assemble("main:\n movi r1, 1\n movi r2, 2\n add r3, r1, r2\n halt\n").unwrap();
        let err =
            recognize(&program.initial_state().unwrap(), &AscConfig::for_tests()).unwrap_err();
        assert!(matches!(err, AscError::ProgramTooShort { .. } | AscError::NoRecognizedIp));
    }
}
