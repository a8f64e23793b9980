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

use crate::cache::CacheEntry;
use crate::config::AscConfig;
use crate::error::{AscError, AscResult};
use crate::predictor_bank::{PredictorBank, EXCITATION_WARMUP};
use crate::speculator::{execute_superstep_with, SpeculationScratch};
use asc_tvm::error::VmResult;
use asc_tvm::exec::StepOutcome;
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

    /// Steps `machine` until `instructions` more have retired or the program
    /// halts, recording every IP it reaches: phase 1 of both [`recognize`]
    /// and [`recognize_recurring`]. Returns whether the program halted.
    ///
    /// # Errors
    /// Propagates simulator faults.
    pub(crate) fn profile(&mut self, machine: &mut Machine, instructions: u64) -> VmResult<bool> {
        let end = machine.instret() + instructions;
        while machine.instret() < end {
            match machine.step()? {
                StepOutcome::Continue => self.record(machine.state().ip(), machine.instret()),
                StepOutcome::Halted => return Ok(true),
            }
        }
        Ok(false)
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

/// What phase 2 learned about one candidate, in candidate (phase-1 ranking)
/// order — the numbers behind its [`RecognizedIp`] score. The bank counters
/// are as of the candidate's last *scored* occurrence: a finished candidate's
/// bank is not trained further.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateRecord {
    /// The instruction pointer value.
    pub ip: u32,
    /// Occurrence stride defining one superstep.
    pub stride: usize,
    /// Supersteps whose speculative entry was checked against the real state.
    pub scored: usize,
    /// Scored supersteps whose entry matched on its read set.
    pub correct: usize,
    /// Distinct bits the bank's tracker saw change between occurrences.
    pub changed_bits: usize,
    /// Bits the bank models: changed ∩ ever-read words, word-expanded
    /// (0 when the bank never became ready).
    pub modelled_bits: usize,
    /// Occurrence states the bank was trained on.
    pub bank_observations: u64,
}

/// Outcome of the full two-phase recognizer run.
#[derive(Debug, Clone)]
pub struct RecognizerOutcome {
    /// The selected RIP.
    pub rip: RecognizedIp,
    /// All evaluated candidates with their scores, best first.
    pub evaluated: Vec<RecognizedIp>,
    /// One record per candidate phase 2 evaluated (empty when the outcome
    /// was restored from a checkpoint or built without evaluation).
    pub candidates: Vec<CandidateRecord>,
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

/// Phase-2 bookkeeping of one candidate.
struct Evaluation {
    candidate: Candidate,
    bank: PredictorBank,
    pending: Option<CacheEntry>,
    raw_occurrences_left: usize,
    scored: usize,
    correct: usize,
    superstep_instructions: u64,
    supersteps: usize,
    last_occurrence_instret: Option<u64>,
}

impl Evaluation {
    fn new(candidate: Candidate, config: &AscConfig) -> Self {
        Evaluation {
            candidate,
            bank: PredictorBank::new(candidate.ip, config),
            pending: None,
            raw_occurrences_left: candidate.stride,
            scored: 0,
            correct: 0,
            superstep_instructions: 0,
            supersteps: 0,
            last_occurrence_instret: None,
        }
    }

    /// Runs one dependency-tracked superstep of this candidate from `start`
    /// and, when it came back to the candidate's IP, tells the bank what it
    /// read. Faults (expected from mispredicted starts) yield `None`.
    fn speculate(
        &mut self,
        start: &StateVector,
        config: &AscConfig,
        scratch: &mut SpeculationScratch,
    ) -> Option<CacheEntry> {
        let (ip, stride) = (self.candidate.ip, self.candidate.stride);
        let outcome = execute_superstep_with(start, ip, stride, config.max_superstep, scratch)
            .ok()?
            .completed()?;
        if outcome.reached_rip {
            self.bank.note_reads(outcome.entry.start.positions());
        }
        Some(outcome.entry)
    }
}

/// The instruction count past which a candidate last seen at `since` counts
/// as *stalled*: `since + ⌊20 × expected superstep⌋`. For integer instruction
/// counts `instret > stall_deadline(c, since)` is exactly the float predicate
/// `(instret - since) as f64 > 20.0 * expected_gap`.
fn stall_deadline(candidate: &Candidate, since: u64) -> u64 {
    let expected_gap = (candidate.mean_gap * candidate.stride as f64).max(1.0);
    since.saturating_add((20.0 * expected_gap) as u64)
}

/// Runs both recognizer phases starting from `initial` state.
///
/// Phase 1 executes `config.explore_instructions` while profiling IP
/// occurrences. Phase 2 continues execution, feeding every candidate's
/// occurrences to a throw-away, read-targeted [`PredictorBank`] and scoring
/// realised prediction accuracy, until each candidate has had
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
        let mut halted = profiler.profile(&mut machine, config.explore_instructions)?;
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
        //
        // Since a match needs only the read set, the banks learn only what a
        // superstep reads: while a bank is warming up (its first
        // `EXCITATION_WARMUP + 1` occurrences) each occurrence also runs one
        // dependency-tracked superstep from the *real* state and notes its read
        // set, so the map freezes over changed ∩ read words; afterwards every
        // speculative entry built for scoring is noted the same way, so drift
        // rebuilds see a grown set. A candidate that has all its scored
        // supersteps is *finished*: it keeps only its superstep-spacing
        // accounting — no state copy, no training of a bank nobody consults.
        let mut evaluations: Vec<Evaluation> =
            candidates.iter().map(|candidate| Evaluation::new(*candidate, config)).collect();
        let mut scratch = SpeculationScratch::with_tier(config.tier);

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
        // Phase 2 ends at the first instruction past the horizon: the latest
        // stall deadline among unfinished candidates (`None` once every
        // candidate is finished). A candidate is written off as *stalled*
        // when it has not occurred for 20 times its expected superstep spacing
        // (e.g. an initialisation loop that will never run again) — waiting
        // for it would let short programs run to completion inside the
        // recognizer. Candidates that have not occurred yet in *this* attempt
        // are measured from this attempt's phase-2 start: on retry attempts
        // instret is far beyond the exploration budget.
        let stall_horizon = |evaluations: &[Evaluation]| {
            evaluations
                .iter()
                .filter(|e| e.scored < config.evaluation_occurrences)
                .map(|e| {
                    stall_deadline(&e.candidate, e.last_occurrence_instret.unwrap_or(phase2_start))
                })
                .max()
        };
        let mut horizon = stall_horizon(&evaluations);
        while spent < budget && !halted {
            match machine.step()? {
                StepOutcome::Continue => {
                    spent += 1;
                    let state = machine.state();
                    let ip = state.ip();
                    let instret = machine.instret();
                    let mut occurred = false;
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
                        occurred = true;
                        if let Some(previous) = evaluation.last_occurrence_instret {
                            evaluation.superstep_instructions += instret - previous;
                            evaluation.supersteps += 1;
                        }
                        evaluation.last_occurrence_instret = Some(instret);
                        if evaluation.scored >= config.evaluation_occurrences {
                            continue;
                        }
                        // Score the speculative entry produced from the previous
                        // occurrence's prediction: a hit means the real state
                        // matches the entry's dependency set.
                        if let Some(entry) = evaluation.pending.take() {
                            evaluation.scored += 1;
                            if entry.matches(state) {
                                evaluation.correct += 1;
                            }
                        }
                        if !evaluation.bank.is_ready() {
                            // Warm-up probe: only its read set is wanted.
                            evaluation.speculate(state, config, &mut scratch);
                        }
                        evaluation.bank.observe(state);
                        let trained_enough = evaluation.bank.observations()
                            >= (EXCITATION_WARMUP + config.evaluation_training) as u64;
                        if evaluation.bank.is_ready()
                            && trained_enough
                            && evaluation.scored < config.evaluation_occurrences
                        {
                            if let Some(predicted) = evaluation.bank.predict_next(state) {
                                evaluation.pending =
                                    evaluation.speculate(&predicted.state, config, &mut scratch);
                            }
                        }
                    }
                    if occurred {
                        horizon = stall_horizon(&evaluations);
                    }
                    if horizon.is_none_or(|deadline| instret > deadline) {
                        break;
                    }
                }
                StepOutcome::Halted => {
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

        let candidates = evaluations
            .iter()
            .map(|e| CandidateRecord {
                ip: e.candidate.ip,
                stride: e.candidate.stride,
                scored: e.scored,
                correct: e.correct,
                changed_bits: e.bank.changed_bits(),
                modelled_bits: e.bank.excited_bits(),
                bank_observations: e.bank.observations(),
            })
            .collect();
        return Ok(RecognizerOutcome {
            rip,
            evaluated,
            candidates,
            unique_ips: total_unique_ips,
            instructions_spent: machine.instret(),
            resume_state: machine.state().clone(),
            resume_instret: machine.instret(),
            halted,
        });
    }
    Err(AscError::NoRecognizedIp)
}

/// Memoization's recognizer: it wants *frequently recurring* states rather
/// than predictable successors, so instead of both phases of [`recognize`]
/// it runs phase 1 alone and picks the most frequently observed candidate
/// (with a stride that still satisfies the minimum-superstep rule). This is
/// the "recognizer still detects frequently occurring IP values" behaviour
/// the paper describes for its single-core laptop experiment.
///
/// # Errors
/// Returns [`AscError::NoRecognizedIp`] when nothing recurs, and propagates
/// simulator errors.
pub(crate) fn recognize_recurring(
    initial: &StateVector,
    config: &AscConfig,
) -> AscResult<RecognizerOutcome> {
    let mut machine = Machine::from_state(initial.clone());
    let mut profiler = IpProfiler::new();
    let halted = profiler.profile(&mut machine, config.explore_instructions)?;
    let candidate = profiler
        .candidates(config.min_superstep, config.candidate_count, machine.instret())
        .into_iter()
        .max_by_key(|c| c.occurrences)
        .ok_or(AscError::NoRecognizedIp)?;
    let rip = RecognizedIp {
        ip: candidate.ip,
        stride: candidate.stride,
        mean_superstep: candidate.mean_gap * candidate.stride as f64,
        accuracy: 0.0,
        score: 0.0,
    };
    Ok(RecognizerOutcome {
        rip,
        evaluated: vec![rip],
        candidates: Vec::new(),
        unique_ips: profiler.unique_ips(),
        instructions_spent: machine.instret(),
        resume_instret: machine.instret(),
        resume_state: machine.into_state(),
        halted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asc_asm::assemble;
    use asc_learn::rng::{Rng, XorShiftRng};
    use asc_workloads::registry::{build, Benchmark, Scale};
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

    /// The stall predicate as phase 2 evaluated it after every instruction
    /// before it kept an integer deadline.
    fn stalled_by_the_float_predicate(
        candidate: &Candidate,
        last_occurrence: Option<u64>,
        phase2_start: u64,
        instret: u64,
    ) -> bool {
        let expected_gap = (candidate.mean_gap * candidate.stride as f64).max(1.0);
        let since_last = instret - last_occurrence.unwrap_or(phase2_start);
        since_last as f64 > 20.0 * expected_gap
    }

    #[test]
    fn stall_deadline_is_the_float_predicate() {
        let mut rng = XorShiftRng::new(24);
        let mut checked = 0;
        for round in 0..4_000 {
            // Gaps from far below the `max(1.0)` floor up to loop-nest sized,
            // with fractional parts that put 20·gap·stride between integers.
            let mean_gap = match round % 4 {
                0 => rng.gen_f64() * 0.06,
                1 => 1.0 + rng.gen_f64() * 30.0,
                2 => (rng.next_u64() % 5_000) as f64 / 20.0,
                _ => rng.gen_f64() * 20_000.0,
            };
            let stride = 1 + (rng.next_u64() % 60) as usize;
            let candidate = Candidate { ip: 8, stride, mean_gap, occurrences: 3 };
            let phase2_start = rng.next_u64() % 3_000_000;
            let last_occurrence =
                (round % 3 != 0).then(|| phase2_start + rng.next_u64() % 1_000_000);
            let since = last_occurrence.unwrap_or(phase2_start);
            let deadline = stall_deadline(&candidate, since);
            // Around the flip, at the origin, and anywhere.
            let near = (deadline.saturating_sub(3)..=deadline + 3).filter(|&i| i >= since);
            for instret in near.chain([since, since + rng.next_u64() % 10_000_000]) {
                assert_eq!(
                    instret > deadline,
                    stalled_by_the_float_predicate(
                        &candidate,
                        last_occurrence,
                        phase2_start,
                        instret
                    ),
                    "gap {mean_gap} stride {stride} since {since} instret {instret}"
                );
                checked += 1;
            }
        }
        assert!(checked > 20_000);
        // The floor: a sub-instruction gap still waits 20 instructions.
        let tight = Candidate { ip: 8, stride: 1, mean_gap: 0.001, occurrences: 3 };
        assert_eq!(stall_deadline(&tight, 100), 120);
        assert_eq!(stall_deadline(&tight, u64::MAX - 5), u64::MAX);
    }

    /// The benchmark's recognizer window for a registry scale.
    fn benchmark_config(scale: Scale) -> AscConfig {
        let (explore_instructions, min_superstep) = match scale {
            Scale::Small => (80_000, 200),
            _ => (250_000, 500),
        };
        AscConfig { explore_instructions, min_superstep, ..AscConfig::default() }
    }

    #[test]
    fn selection_is_pinned_on_every_benchmark_at_benchmark_scale() {
        // (ip, stride, mean superstep, accuracy, instructions spent): what
        // the occurrence loop of each benchmark workload is built on. The
        // first three predate read-targeted banks and must not move.
        let pinned = [
            (Benchmark::Collatz, 32, 2, 1065.1, 0.75, 272_859),
            (Benchmark::LogisticMap, 64, 42, 507.638_297_872_340_44, 0.0, 2_195_551),
            (Benchmark::Ising, 264, 1, 10_259.0, 0.875, 455_279),
        ];
        for (benchmark, ip, stride, mean_superstep, accuracy, spent) in pinned {
            let workload = build(benchmark, Scale::Medium).unwrap();
            let initial = workload.program.initial_state().unwrap();
            let outcome = recognize(&initial, &benchmark_config(Scale::Medium)).unwrap();
            let rip = outcome.rip;
            assert_eq!(
                (rip.ip, rip.stride, rip.mean_superstep, rip.accuracy, outcome.instructions_spent),
                (ip, stride, mean_superstep, accuracy, spent),
                "{benchmark}"
            );
            let record = outcome.candidates.iter().find(|c| c.ip == rip.ip).unwrap();
            assert_eq!(record.correct as f64 / record.scored as f64, accuracy, "{benchmark}");
            assert!(record.modelled_bits <= 32 * record.changed_bits, "{record:?}");
        }

        // 2mm: the outer loop of the first nest (i-loop head and the three
        // instructions closing it), one 10 084-instruction superstep each.
        let workload = build(Benchmark::Mm2, Scale::Small).unwrap();
        let initial = workload.program.initial_state().unwrap();
        let outcome = recognize(&initial, &benchmark_config(Scale::Small)).unwrap();
        let outer_loop = [32, 272, 280, 288];
        assert!(outer_loop.contains(&outcome.rip.ip), "{:?}", outcome.rip);
        assert_eq!(outcome.rip.stride, 1);
        assert_eq!(outcome.rip.mean_superstep, 10_084.0);
        assert!(outcome.rip.accuracy >= 0.66, "{:?}", outcome.rip);
        assert_eq!(outcome.instructions_spent, 443_700);
        // Each outer-loop superstep writes 24 fresh `tmp` cells; the banks
        // see thousands of changed bits and model the loop counter.
        for record in outcome.candidates.iter().filter(|c| outer_loop.contains(&c.ip)) {
            assert!(record.changed_bits > 4_096, "{record:?}");
            assert!((32..=256).contains(&record.modelled_bits), "{record:?}");
        }
        assert_eq!(outcome.candidates.len(), outcome.evaluated.len());
    }

    #[test]
    fn recognition_is_a_function_of_its_input() {
        let workload = build(Benchmark::Mm2, Scale::Tiny).unwrap();
        let initial = workload.program.initial_state().unwrap();
        let config = AscConfig::for_tests();
        let first = recognize(&initial, &config).unwrap();
        let second = recognize(&initial, &config).unwrap();
        assert_eq!(first.evaluated, second.evaluated);
        assert_eq!(first.candidates, second.candidates);
        assert_eq!(first.instructions_spent, second.instructions_spent);
        // The tier the speculative supersteps run on is the configured one,
        // and by the tier invariant it is invisible in the outcome.
        let tier_off = AscConfig { tier: asc_tvm::TierConfig::disabled(), ..config };
        let off = recognize(&initial, &tier_off).unwrap();
        assert_eq!(off.evaluated, first.evaluated);
        assert_eq!(off.candidates, first.candidates);
        assert_eq!(off.resume_state, first.resume_state);
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
