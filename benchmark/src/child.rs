//! One measurement, in a process of its own.
//!
//! Users run one program per process, and the first `accelerate` call in a
//! process is what they pay (on 2mm the second call in the same process is
//! more than twice as fast as the first: the recognizer's ~1 GB of
//! allocations are already faulted in). So every timed `accelerate` or
//! replay repetition is a fresh child: build the program, make exactly one
//! call, check the result against the oracle, print one JSON line.

use crate::json::Json;
use crate::replay::{self, span, Replay};
use crate::spans::{self, Span, Tracer};
use crate::stats;
use crate::workloads::{self, Built, Mode, Params, Workload};
use asc_core::checkpoint::{self, RunCheckpoint};
use asc_core::config::AscConfig;
use asc_core::runtime::LascRuntime;
use asc_tvm::machine::Machine;
use asc_tvm::state::StateVector;
use asc_tvm::TierConfig;
use asc_workloads::registry::Scale;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What a child measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Set-up repetitions and plain tier-0 / tier-1 runs, all in-process.
    Plain,
    /// One `LascRuntime::accelerate` call.
    Accelerate(Mode),
    /// One ledger replay, with spans when tracing.
    Replay,
}

pub struct Args {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    pub kind: Kind,
    /// Timed repetitions of set-up and of each plain tier (`Plain` only).
    pub reps: usize,
    /// Record spans (`Replay` only).
    pub trace: bool,
    /// Where the traced replay writes its spans and keeps its scratch
    /// checkpoint directory.
    pub out_dir: PathBuf,
    /// Megabytes of memory to touch and free before anything is built or
    /// timed; see [`prewarm`].
    pub prewarm_mb: usize,
}

/// Touches `mb` MB of fresh memory, one write per page, and frees it.
///
/// The sandbox is memory-elastic: pages a process frees go back to the host
/// within a fraction of a second, and the next process to need them pays the
/// host's faults on top of the guest's own. With a 0.5 s plain child between
/// two 1 GB 2mm children that made the same call take anywhere from 2.3 s to
/// 3.9 s. The parent learns the workload's peak RSS from its untimed first
/// child and has every later child pull that much back from the host here,
/// before the clock starts. The timed call still takes all its own (guest)
/// page faults: only the host's share is pre-paid.
fn prewarm(mb: usize) {
    let mut block = vec![0u8; mb << 20];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&block);
}

/// How often an in-process measurement repeats: at least `min` times, then
/// on until it has run for [`Repetitions::FILL`] or `8 × min` times — so a
/// 3 ms program is timed as many times as a 100 ms one is in the same wall,
/// and short measurements get the extra samples they need to be steady.
struct Repetitions {
    min: usize,
    done: usize,
    started: Instant,
}

impl Repetitions {
    const FILL: std::time::Duration = std::time::Duration::from_millis(400);

    fn new(min: usize) -> Repetitions {
        Repetitions { min, done: 0, started: Instant::now() }
    }

    fn next(&mut self) -> bool {
        let more = self.done < self.min
            || (self.min > 1 && self.done < 8 * self.min && self.started.elapsed() < Self::FILL);
        self.done += usize::from(more);
        more
    }
}

/// Same ceiling `AscConfig::default().instruction_budget` gives `accelerate`.
const PLAIN_BUDGET: u64 = 2_000_000_000;

/// Runs the child and returns its one-line report. Failures of the thing
/// measured are *reported* (`failed` > 0 with a reason), never panicked:
/// the parent counts them into `failed_share`.
pub fn run(args: &Args) -> Json {
    prewarm(args.prewarm_mb);
    let params = workloads::params(args.workload, args.scale, args.seed);
    let built = match workloads::build(&params) {
        Ok(built) => built,
        Err(error) => return failure(&format!("set-up failed: {error}")),
    };
    let mut report = match args.kind {
        Kind::Plain => plain(args, &params, &built),
        Kind::Accelerate(mode) => accelerate(args, &built, mode),
        Kind::Replay => replayed(args, &built),
    };
    if let Json::Obj(fields) = &mut report {
        fields.push(("description".into(), Json::str(built.description.clone())));
    }
    report
}

pub fn failure(error: &str) -> Json {
    Json::obj([
        ("attempted", Json::from(1u64)),
        ("failed", Json::from(1u64)),
        ("error", Json::str(error)),
    ])
}

/// Runs the program plainly to halt on the given tier; returns the halted
/// machine and the wall of `run_to_halt` alone.
fn run_plain(initial: &StateVector, tier: TierConfig) -> Result<(Machine, f64), String> {
    let mut machine = Machine::from_state(initial.clone());
    machine.enable_tier(tier);
    let started = Instant::now();
    machine.run_to_halt(PLAIN_BUDGET).map_err(|e| format!("plain run failed: {e}"))?;
    Ok((machine, started.elapsed().as_secs_f64()))
}

/// The correctness oracle: plain tier-0 execution of the same program.
struct Oracle {
    final_state: StateVector,
    instret: u64,
}

impl Oracle {
    fn compute(built: &Built) -> Result<Oracle, String> {
        let (machine, _) = run_plain(&built.initial, TierConfig::disabled())?;
        let instret = machine.instret();
        let oracle = Oracle { final_state: machine.into_state(), instret };
        if !(built.verify)(&oracle.final_state) {
            return Err("plain tier-0 result differs from the pure-Rust reference".into());
        }
        Ok(oracle)
    }

    /// Every way a run can be wrong, first failure named.
    fn check(
        &self,
        built: &Built,
        state: &StateVector,
        instructions: u64,
        halted: bool,
    ) -> Result<(), String> {
        if !halted {
            return Err("run did not halt".into());
        }
        if !(built.verify)(state) {
            return Err("result differs from the pure-Rust reference".into());
        }
        if state.as_bytes() != self.final_state.as_bytes() {
            return Err("final state bytes differ from plain tier-0 execution".into());
        }
        if instructions != self.instret {
            return Err(format!(
                "retired {instructions} instructions, plain execution retires {}",
                self.instret
            ));
        }
        Ok(())
    }
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc` has
/// no such line.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn verdict(attempted: u64, errors: &[String]) -> Vec<(String, Json)> {
    let mut fields = vec![
        ("attempted".to_string(), Json::from(attempted)),
        ("failed".to_string(), Json::from(errors.len())),
    ];
    if let Some(first) = errors.first() {
        fields.push(("error".into(), Json::str(first.clone())));
    }
    fields
}

fn plain(args: &Args, params: &Params, built: &Built) -> Json {
    let oracle = match Oracle::compute(built) {
        Ok(oracle) => oracle,
        Err(error) => return failure(&error),
    };
    // The first build (in `run`) was the warm-up.
    let mut setup_s = Vec::new();
    let mut reps = Repetitions::new(args.reps);
    while reps.next() {
        let started = Instant::now();
        let again = workloads::build(params);
        setup_s.push(started.elapsed().as_secs_f64());
        std::hint::black_box(&again);
    }

    let mut errors = Vec::new();
    let (mut t0_wall_s, mut t1_wall_s) = (Vec::new(), Vec::new());
    let mut tier1_share = 0.0;
    // The oracle's own run was checked against the reference: one attempt.
    let mut attempted = 1u64;
    let mut reps = Repetitions::new(args.reps);
    // Alternate the tiers so drift in the machine's speed lands on both.
    while reps.next() {
        for (tier, walls) in
            [(TierConfig::disabled(), &mut t0_wall_s), (TierConfig::default(), &mut t1_wall_s)]
        {
            attempted += 1;
            match run_plain(&built.initial, tier) {
                Ok((machine, wall)) => {
                    walls.push(wall);
                    if tier.enabled {
                        let tiers = machine.tier_stats();
                        tier1_share =
                            stats::ratio(tiers.tier1_instructions as f64, machine.instret() as f64);
                    }
                    let instret = machine.instret();
                    if let Err(e) =
                        oracle.check(built, machine.state(), instret, machine.is_halted())
                    {
                        errors.push(e);
                    }
                }
                Err(e) => errors.push(e),
            }
        }
    }
    let mut fields = verdict(attempted, &errors);
    fields.extend([
        ("setup_s".to_string(), Json::nums(&setup_s)),
        ("t0_wall_s".to_string(), Json::nums(&t0_wall_s)),
        ("t1_wall_s".to_string(), Json::nums(&t1_wall_s)),
        ("instret".to_string(), Json::from(oracle.instret)),
        ("tier1_instr_share".to_string(), Json::Num(tier1_share)),
    ]);
    Json::Obj(fields)
}

fn accelerate(args: &Args, built: &Built, mode: Mode) -> Json {
    let runtime = match LascRuntime::new(workloads::config(args.scale, mode)) {
        Ok(runtime) => runtime,
        Err(error) => return failure(&format!("invalid config: {error}")),
    };
    let started = Instant::now();
    let result = runtime.accelerate(&built.program);
    let wall_s = started.elapsed().as_secs_f64();
    let rss_mb = peak_rss_mb();
    let report = match result {
        Ok(report) => report,
        Err(error) => return failure(&format!("accelerate failed: {error}")),
    };
    // The oracle runs after the timed call so it cannot warm it.
    let errors: Vec<String> = Oracle::compute(built)
        .and_then(|o| o.check(built, &report.final_state, report.total_instructions, report.halted))
        .err()
        .into_iter()
        .collect();

    let mut counters: Vec<(String, Json)> = vec![
        ("lookups".into(), report.cache_stats.queries.into()),
        ("hits".into(), report.cache_stats.hits.into()),
        ("inserted".into(), report.cache_stats.inserted.into()),
        ("total_instructions".into(), report.total_instructions.into()),
    ];
    if let Some(p) = &report.speculation {
        counters.extend([
            ("workers.dispatched".to_string(), p.dispatched.into()),
            ("workers.completed".to_string(), p.completed.into()),
            ("workers.dropped".to_string(), p.dropped.into()),
            ("workers.deduplicated".to_string(), p.deduplicated.into()),
        ]);
    }
    if let Some(p) = &report.planner {
        counters.extend([
            ("planner.occurrences".to_string(), p.occurrences.into()),
            ("planner.dropped".to_string(), p.dropped.into()),
            ("planner.replans".to_string(), p.replans.into()),
            ("planner.dispatched".to_string(), p.dispatched.into()),
            ("planner.confirmed".to_string(), p.confirmed.into()),
            ("planner.invalidated".to_string(), p.invalidated.into()),
        ]);
    }
    let mut fields = verdict(1, &errors);
    fields.extend([
        ("wall_s".to_string(), Json::Num(wall_s)),
        ("rss_mb".to_string(), Json::Num(rss_mb)),
        ("counters".to_string(), Json::Obj(counters)),
    ]);
    Json::Obj(fields)
}

fn replayed(args: &Args, built: &Built) -> Json {
    let config = workloads::config(args.scale, Mode::Inline);
    let mut tracer = Tracer::new(args.trace);
    let result = replay::replay(&built.initial, &config, &mut tracer);
    let run = match result {
        Ok(run) => run,
        Err(error) => return failure(&format!("replay failed: {error}")),
    };
    let mut errors: Vec<String> = Oracle::compute(built)
        .and_then(|o| o.check(built, &run.final_state, run.total_instructions(), run.halted))
        .err()
        .into_iter()
        .collect();

    let economics = run.economics.stats();
    let counters = Json::obj([
        ("lookups", Json::from(run.cache.queries)),
        ("hits", run.cache.hits.into()),
        ("inserted", run.cache.inserted.into()),
        ("total_instructions", run.total_instructions().into()),
        ("converge_instructions", run.converge_instructions.into()),
        ("excited_bits", run.bank.excited_bits().into()),
        ("economics.considered", economics.considered.into()),
        ("economics.dispatched", economics.dispatched.into()),
        ("economics.suppressed", economics.suppressed.into()),
        ("allocator.plans", run.plans.into()),
        ("allocator.tasks", run.tasks.into()),
        ("speculator.supersteps", run.speculated.into()),
    ]);
    let mut fields =
        vec![("wall_s".to_string(), Json::Num(run.wall_s)), ("counters".to_string(), counters)];

    if args.trace {
        let spans = tracer.into_spans();
        fields.push(("layers".into(), layers_json(&spans)));
        let (hit_us, miss_us) = occurrence_costs_us(&spans);
        fields.push(("hit_cost_us_p50".into(), Json::Num(stats::median(&hit_us))));
        fields.push(("miss_cost_us_p50".into(), Json::Num(stats::median(&miss_us))));
        let trace_path = args.out_dir.join(format!("trace-{}.jsonl", args.workload.name()));
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::File::create(&trace_path))
            .and_then(|file| spans::write_jsonl(&spans, file));
        match written {
            Ok(()) => {
                fields.push(("trace_file".into(), Json::str(trace_path.display().to_string())))
            }
            Err(e) => errors.push(format!("writing {}: {e}", trace_path.display())),
        }
        match time_checkpoint(&run, &config, built, &args.out_dir) {
            Ok(timing) => fields.push(("checkpoint".into(), timing)),
            Err(e) => errors.push(e),
        }
    }
    let mut all = verdict(1, &errors);
    all.extend(fields);
    Json::Obj(all)
}

fn layers_json(spans: &[Span]) -> Json {
    Json::Obj(
        spans::layer_costs(spans)
            .into_iter()
            .map(|(name, cost)| {
                let fields = Json::obj([
                    ("calls", Json::from(cost.calls)),
                    ("self_s", Json::Num(cost.self_s)),
                    ("total_s", Json::Num(cost.total_s)),
                    ("p50_us", Json::Num(cost.p50_us)),
                    ("p99_us", Json::Num(cost.p99_us)),
                ]);
                (name.to_string(), fields)
            })
            .collect(),
    )
}

/// Per-occurrence cost in µs, split by outcome. A hit costs its whole root
/// span (lookup, apply, clone, observe). A miss costs its root span *minus*
/// the main-thread execute it would have paid anyway: what is left is the
/// price of consulting and feeding the speculation machinery.
fn occurrence_costs_us(spans: &[Span]) -> (Vec<f64>, Vec<f64>) {
    let mut hit_roots = BTreeSet::new();
    let mut executes: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if s.name == span::APPLY {
            hit_roots.insert(s.parent);
        } else if s.name == span::EXECUTE {
            *executes.entry(s.parent).or_default() += s.duration_ns();
        }
    }
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for s in spans.iter().filter(|s| s.name == span::OCCURRENCE) {
        if hit_roots.contains(&s.id) {
            hits.push(s.duration_ns() as f64 / 1e3);
        } else {
            let execute = executes.get(&s.id).copied().unwrap_or(0);
            misses.push(s.duration_ns().saturating_sub(execute) as f64 / 1e3);
        }
    }
    (hits, misses)
}

/// Times `checkpoint::save` and `checkpoint::load_newest` directly on the
/// replay's end-of-run state (machine bytes, trained bank, economics) and
/// checks that what loads is what was saved.
fn time_checkpoint(
    run: &Replay,
    config: &AscConfig,
    built: &Built,
    out_dir: &Path,
) -> Result<Json, String> {
    const REPS: u64 = 5;
    let dir = out_dir.join(format!("checkpoint-scratch-{}", std::process::id()));
    let (mut bank, mut economics) = (Vec::new(), Vec::new());
    run.bank.save_state(&mut bank);
    run.economics.save_state(&mut economics);
    let mut ckpt = RunCheckpoint {
        sequence: 0,
        fingerprint: checkpoint::run_fingerprint(config, &built.initial),
        occurrence: run.cache.queries,
        rip: run.rip,
        unique_ips: run.unique_ips,
        converge_instructions: run.converge_instructions,
        resume_instret: run.executed_instructions,
        fast_forwarded: run.fast_forwarded_instructions,
        state: run.final_state.as_bytes().to_vec(),
        bank: Some(bank),
        economics: Some(economics),
    };
    let timed = (|| {
        let (mut save_s, mut load_s, mut bytes) = (Vec::new(), Vec::new(), 0);
        for sequence in 1..=REPS {
            ckpt.sequence = sequence;
            let started = Instant::now();
            bytes =
                checkpoint::save(&dir, &ckpt, 2).map_err(|e| format!("checkpoint save: {e}"))?;
            save_s.push(started.elapsed().as_secs_f64());
            let started = Instant::now();
            let scan = checkpoint::load_newest(&dir, ckpt.fingerprint);
            load_s.push(started.elapsed().as_secs_f64());
            if scan.checkpoint.as_ref() != Some(&ckpt) {
                return Err("checkpoint did not load back as saved".to_string());
            }
        }
        Ok(Json::obj([
            ("save_s", Json::Num(stats::median(&save_s))),
            ("load_s", Json::Num(stats::median(&load_s))),
            ("bytes", Json::from(bytes)),
        ]))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    timed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(kind: Kind, trace: bool) -> Args {
        Args {
            workload: Workload::Collatz,
            scale: Scale::Tiny,
            seed: 5,
            kind,
            reps: 1,
            trace,
            prewarm_mb: 1,
            out_dir: std::env::temp_dir()
                .join(format!("asc-benchmark-test-{}", std::process::id())),
        }
    }

    #[test]
    fn every_child_kind_passes_the_oracle_at_tiny_scale() {
        for kind in [Kind::Plain, Kind::Accelerate(Mode::Inline), Kind::Replay] {
            let report = run(&args(kind, false));
            assert_eq!(report.num("failed"), 0.0, "{kind:?}: {report}");
            assert!(report.num("attempted") >= 1.0);
        }
    }

    #[test]
    fn traced_replay_matches_the_runtime_and_partitions_its_wall() {
        let args = args(Kind::Replay, true);
        let replayed = run(&args);
        let runtime = run(&self::args(Kind::Accelerate(Mode::Inline), false));
        assert_eq!(replayed.num("failed"), 0.0, "{replayed}");
        for counter in ["lookups", "hits", "inserted", "total_instructions"] {
            assert_eq!(
                replayed.get("counters").unwrap().num(counter),
                runtime.get("counters").unwrap().num(counter),
                "{counter}"
            );
        }
        let layers = replayed.get("layers").unwrap();
        let root = layers.get(span::RUN).unwrap().num("total_s");
        let sum: f64 = layers.fields().iter().map(|(_, cost)| cost.num("self_s")).sum();
        assert!((sum - root).abs() <= 1e-6 * root.max(1e-9), "self times {sum} vs root {root}");
        assert!(replayed.get("checkpoint").unwrap().num("bytes") > 0.0);
        let _ = std::fs::remove_dir_all(&args.out_dir);
    }

    #[test]
    fn oracle_names_the_first_thing_wrong() {
        let built =
            workloads::build(&workloads::params(Workload::Collatz, Scale::Tiny, 0)).unwrap();
        let oracle = Oracle::compute(&built).unwrap();
        let good = oracle.final_state.clone();
        assert!(oracle.check(&built, &good, oracle.instret, true).is_ok());
        assert!(oracle.check(&built, &good, oracle.instret, false).unwrap_err().contains("halt"));
        assert!(oracle
            .check(&built, &good, oracle.instret + 1, true)
            .unwrap_err()
            .contains("retired"));
        assert!(oracle
            .check(&built, &built.initial, oracle.instret, true)
            .unwrap_err()
            .contains("reference"));
        let mut flipped = good.clone();
        // A byte the verifier does not read: only the byte-for-byte check sees it.
        let last = flipped.len_bytes() - 1;
        flipped.set_byte(last, flipped.byte(last) ^ 1);
        assert!(oracle
            .check(&built, &flipped, oracle.instret, true)
            .unwrap_err()
            .contains("bytes"));
    }
}
