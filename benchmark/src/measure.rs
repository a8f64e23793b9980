//! The parent side of one workload's measurement: spawn children one at a
//! time (closed loop, one client), collect their reports, derive metrics.

use crate::json::{self, Json};
use crate::metrics::{Metric, END_TO_END, LEDGER, PER_LAYER};
use crate::replay::span;
use crate::stats::{self, ratio, Summary};
use crate::workloads::{Mode, Workload};
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Which metric set a measurement produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Want {
    /// `--trace 0`: rounds of one plain child and one `inline` child —
    /// nothing the end-to-end metrics do not need, so the run's seconds buy
    /// as many samples of them as possible.
    EndToEnd,
    /// `--trace 1`: rounds of one plain child, one child of every
    /// `accelerate` mode and two ledger replays, untraced then traced.
    PerLayer,
}

pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// `--smoke`: `Scale::Tiny`, one repetition of everything.
    pub smoke: bool,
    /// Rounds keep starting while the next one is expected to end inside
    /// this many seconds; the first always runs.
    pub seconds: f64,
    pub want: Want,
    /// Where traced replays write `trace-<workload>.jsonl`.
    pub out_dir: PathBuf,
}

pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub description: String,
}

/// Timed plain repetitions per tier (and set-up repetitions) of one plain
/// child; there is one such child per round.
const PLAIN_REPS: usize = 5;

/// No child legitimately runs this long (2mm's recognizer-bound call is the
/// slowest at under ten seconds); a child that does is killed and counted
/// as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

fn spawn_child(plan: &Plan, kind: &str, trace: bool, prewarm_mb: usize) -> Json {
    let run = || -> Result<Json, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
        let mut child = Command::new(exe)
            .arg("child")
            .args(["--workload", plan.workload.name()])
            .args(["--seed", &plan.seed.to_string()])
            .args(["--scale", if plan.smoke { "tiny" } else { "full" }])
            .args(["--kind", kind])
            .args(["--reps", &if plan.smoke { 1 } else { PLAIN_REPS }.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .args(["--prewarm-mb", &prewarm_mb.to_string()])
            .arg("--out-dir")
            .arg(&plan.out_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {kind} child: {e}"))?;
        // A child prints one short line, far below the pipe's capacity, so
        // waiting before reading cannot deadlock.
        let deadline = Instant::now() + CHILD_TIMEOUT;
        let status = loop {
            match child.try_wait().map_err(|e| format!("waiting for {kind} child: {e}"))? {
                Some(status) => break status,
                None if Instant::now() >= deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("{kind} child exceeded {CHILD_TIMEOUT:?} and was killed"));
                }
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        let mut stdout = String::new();
        if let Some(mut pipe) = child.stdout.take() {
            pipe.read_to_string(&mut stdout).map_err(|e| format!("reading {kind} child: {e}"))?;
        }
        if !status.success() {
            return Err(format!("{kind} child exited with {status}"));
        }
        let line = stdout.lines().last().unwrap_or_default();
        json::parse(line).map_err(|e| format!("{kind} child printed no report ({e})"))
    };
    run().unwrap_or_else(|error| crate::child::failure(&error))
}

/// The reports whose run passed its oracle: only those are timed samples.
fn succeeded(reports: &[Json]) -> impl Iterator<Item = &Json> {
    reports.iter().filter(|r| r.num("failed") == 0.0)
}

/// Reports of one measurement, as they came back.
struct Reports {
    /// The first child: an `inline` run that supplies the peak RSS and is
    /// checked against the oracle, but is never timed.
    warmup: Json,
    /// One plain child per round; its repetitions pool across rounds.
    plain: Vec<Json>,
    /// Per mode, in `Mode::ALL` order: one report per round.
    modes: [Vec<Json>; 4],
    /// One untraced and one traced replay per round of a `PerLayer`
    /// measurement. The first traced one supplies the ledger; the rest only
    /// steady the overhead estimate.
    replay_untraced: Vec<Json>,
    replay_traced: Vec<Json>,
}

impl Reports {
    fn all(&self) -> impl Iterator<Item = &Json> {
        std::iter::once(&self.warmup)
            .chain(&self.plain)
            .chain(self.modes.iter().flatten())
            .chain(&self.replay_untraced)
            .chain(&self.replay_traced)
    }

    fn mode(&self, mode: Mode) -> &[Json] {
        &self.modes[Mode::ALL.iter().position(|m| *m == mode).expect("mode is in ALL")]
    }

    /// A sample list of the plain children, pooled over the rounds.
    fn plain_samples(&self, field: &str) -> Vec<f64> {
        self.plain.iter().flat_map(|r| r.num_list(field)).collect()
    }

    /// A field of every successful child of `mode`.
    fn samples(&self, mode: Mode, field: &str) -> Vec<f64> {
        succeeded(self.mode(mode)).map(|r| r.num(field)).collect()
    }

    /// A counter of every successful child of `mode`.
    fn counter(&self, mode: Mode, name: &str) -> Vec<f64> {
        succeeded(self.mode(mode)).filter_map(|r| r.get("counters")).map(|c| c.num(name)).collect()
    }
}

/// Measures one workload.
pub fn measure(plan: &Plan) -> Measured {
    let started = Instant::now();
    // Never timed: it exists to measure the workload's peak RSS, which every
    // later `accelerate` and replay child pre-touches before its clock
    // starts (see `child::prewarm` for what that removes). It is held to
    // the oracle like any other child.
    let warmup = spawn_child(plan, Mode::Inline.name(), false, 0);
    let prewarm_mb = warmup.num("rss_mb").ceil() as usize;
    let traced = plan.want == Want::PerLayer;

    let (mut plain, mut replay_untraced, mut replay_traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut modes: [Vec<Json>; 4] = Default::default();
    loop {
        let round_started = Instant::now();
        // One child of each kind per round, so the machine's slow drift
        // (this is a shared two-core sandbox) lands on every metric alike
        // and every metric's samples span the whole run.
        plain.push(spawn_child(plan, "plain", false, 0));
        for (reports, mode) in modes.iter_mut().zip(Mode::ALL) {
            if traced || mode == Mode::Inline {
                reports.push(spawn_child(plan, mode.name(), false, prewarm_mb));
            }
        }
        if traced {
            replay_untraced.push(spawn_child(plan, "replay", false, prewarm_mb));
            replay_traced.push(spawn_child(plan, "replay", true, prewarm_mb));
        }
        let round = round_started.elapsed().as_secs_f64();
        if plan.smoke || started.elapsed().as_secs_f64() + round > plan.seconds {
            break;
        }
    }
    let reports = Reports { warmup, plain, modes, replay_untraced, replay_traced };

    let attempted = reports.all().map(|r| r.num("attempted") as u64).sum();
    let failed = reports.all().map(|r| r.num("failed") as u64).sum();
    let errors = reports
        .all()
        .filter_map(|r| r.get("error").and_then(Json::as_str))
        .map(str::to_string)
        .collect();
    let metrics =
        if traced { per_layer(&reports, attempted, failed) } else { end_to_end(&reports) };
    let description =
        reports.warmup.get("description").and_then(Json::as_str).unwrap_or_default().to_string();
    Measured { attempted, failed, errors, metrics, description }
}

fn end_to_end(reports: &Reports) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|spec| {
            let samples = match spec.name {
                "setup_s" => reports.plain_samples("setup_s"),
                "plain_t0_wall_s" => reports.plain_samples("t0_wall_s"),
                "plain_t1_wall_s" => reports.plain_samples("t1_wall_s"),
                "inline_wall_s" => reports.samples(Mode::Inline, "wall_s"),
                // The one child that ran without a pre-touch: in the others
                // `VmHWM` is at least the pre-touched block.
                "inline_peak_rss_mb" => vec![reports.warmup.num("rss_mb")],
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            Metric { name: spec.name, unit: spec.unit, summary: Summary::of(&samples) }
        })
        .collect()
}

const NO_REPORT: Json = Json::Null;

fn per_layer(reports: &Reports, attempted: u64, failed: u64) -> Vec<Metric> {
    let untraced = reports.replay_untraced.first().unwrap_or(&NO_REPORT);
    let walls =
        |replays: &[Json]| -> Vec<f64> { succeeded(replays).map(|r| r.num("wall_s")).collect() };
    let replay_walls = walls(&reports.replay_untraced);
    let replay_wall = stats::median(&replay_walls);
    let traced_replay_wall = stats::median(&walls(&reports.replay_traced));
    let traced = reports.replay_traced.first().unwrap_or(&NO_REPORT);
    let counters = traced.get("counters").unwrap_or(&NO_REPORT);
    let layers = traced.get("layers").unwrap_or(&NO_REPORT);
    let cost = |name: &str, field: &str| layers.get(name).map_or(0.0, |l| l.num(field));
    let checkpoint = traced.get("checkpoint").unwrap_or(&NO_REPORT);

    let t0 = stats::median(&reports.plain_samples("t0_wall_s"));
    let t1 = stats::median(&reports.plain_samples("t1_wall_s"));
    let first_plain = reports.plain.first().unwrap_or(&NO_REPORT);
    let instret = first_plain.num("instret");
    let wall = |mode| stats::median(&reports.samples(mode, "wall_s"));
    let inline = wall(Mode::Inline);
    let planner_walls = Summary::of(&reports.samples(Mode::Planner, "wall_s"));

    // The replay walks the runtime's trajectory when both replays and the
    // first inline child agree on every deterministic counter.
    let others = [
        untraced.get("counters"),
        reports.mode(Mode::Inline).first().and_then(|r| r.get("counters")),
    ];
    let matches = traced.get("counters").is_some()
        && ["lookups", "hits", "inserted", "total_instructions"].iter().all(|name| {
            others.iter().all(|c| c.is_some_and(|c| c.get(name) == counters.get(name)))
        });

    let recognize_s = cost(span::RECOGNIZE, "self_s");
    let plain_seconds_per_instruction = ratio(t0, instret);
    let traced_wall = cost(span::RUN, "total_s");
    let unattributed_s = cost(span::RUN, "self_s") + cost(span::OCCURRENCE, "self_s");
    let ledger_s =
        unattributed_s + LEDGER.iter().map(|(_, span)| cost(span, "self_s")).sum::<f64>();
    let hit_cost = traced.num("hit_cost_us_p50");
    let execute_p50 = cost(span::EXECUTE, "p50_us");
    let hit_share = |mode| {
        let shares: Vec<f64> = reports
            .counter(mode, "hits")
            .iter()
            .zip(reports.counter(mode, "lookups"))
            .map(|(hits, lookups)| ratio(*hits, lookups))
            .collect();
        Summary::of(&shares)
    };

    PER_LAYER
        .iter()
        .map(|spec| {
            let one = Summary::single;
            let summary = match spec.name {
                "workers_wall_s" => Summary::of(&reports.samples(Mode::Workers, "wall_s")),
                "planner_wall_s" => planner_walls,
                "inline_default_wall_s" => {
                    Summary::of(&reports.samples(Mode::InlineDefault, "wall_s"))
                }
                "tvm.execute_calls" => one(cost(span::EXECUTE, "calls")),
                "tvm.superstep_execute_us_p50" => one(execute_p50),
                "tvm.mips_t0" => one(ratio(instret, t0) / 1e6),
                "tvm.mips_t1" => one(ratio(instret, t1) / 1e6),
                "tvm.tier1_instr_share" => one(first_plain.num("tier1_instr_share")),
                "recognizer.converge_instructions" => one(counters.num("converge_instructions")),
                "recognizer.slowdown_vs_plain" => one(ratio(
                    recognize_s,
                    counters.num("converge_instructions") * plain_seconds_per_instruction,
                )),
                "cache.lookups" => one(counters.num("lookups")),
                "cache.hits" => one(counters.num("hits")),
                "cache.hit_share" => one(ratio(counters.num("hits"), counters.num("lookups"))),
                "cache.lookup_us_p50" => one(cost(span::LOOKUP, "p50_us")),
                "cache.lookup_us_p99" => one(cost(span::LOOKUP, "p99_us")),
                "cache.inserts" => one(counters.num("inserted")),
                "cache.inserted_per_hit" => {
                    one(ratio(counters.num("inserted"), counters.num("hits")))
                }
                "predictor_bank.observes" => one(cost(span::OBSERVE, "calls")),
                "predictor_bank.observe_us_p50" => one(cost(span::OBSERVE, "p50_us")),
                "predictor_bank.rollouts" => one(cost(span::ROLLOUT, "calls")),
                "predictor_bank.rollout_us_p50" => one(cost(span::ROLLOUT, "p50_us")),
                "predictor_bank.excited_bits" => one(counters.num("excited_bits")),
                "allocator.plans" => one(counters.num("allocator.plans")),
                "allocator.tasks" => one(counters.num("allocator.tasks")),
                "economics.considered" | "economics.dispatched" | "economics.suppressed" => {
                    one(counters.num(spec.name))
                }
                "speculator.supersteps" => one(counters.num("speculator.supersteps")),
                "speculator.useful_share" => {
                    one(ratio(counters.num("hits"), counters.num("speculator.supersteps")))
                }
                "workers.dispatched"
                | "workers.completed"
                | "workers.dropped"
                | "workers.deduplicated" => Summary::of(&reports.counter(Mode::Workers, spec.name)),
                "workers.hit_share" => hit_share(Mode::Workers),
                "planner.occurrences"
                | "planner.dropped"
                | "planner.replans"
                | "planner.dispatched"
                | "planner.confirmed"
                | "planner.invalidated" => Summary::of(&reports.counter(Mode::Planner, spec.name)),
                "planner.hit_share" => hit_share(Mode::Planner),
                "planner.wall_spread" => one(ratio(planner_walls.max, planner_walls.min)),
                "supervisor.watchdog_floor_s" => one(wall(Mode::InlineDefault) - inline),
                "supervisor.loop_overhead_s" => one(inline - replay_wall),
                "checkpoint.save_s" => one(checkpoint.num("save_s")),
                "checkpoint.load_s" => one(checkpoint.num("load_s")),
                "checkpoint.bytes" => one(checkpoint.num("bytes")),
                "runtime.replay_wall_s" => Summary::of(&replay_walls),
                "runtime.replay_matches_runtime" => one(f64::from(u8::from(matches))),
                "runtime.unattributed_s" => one(unattributed_s),
                "runtime.unattributed_share" => one(ratio(unattributed_s, traced_wall)),
                "runtime.ledger_sum_share" => one(ratio(ledger_s, traced.num("wall_s"))),
                "runtime.trace_overhead_share" => {
                    one(ratio(traced_replay_wall - replay_wall, replay_wall))
                }
                "runtime.hit_cost_us_p50" => one(hit_cost),
                "runtime.miss_cost_us_p50" => one(traced.num("miss_cost_us_p50")),
                "runtime.hit_payoff" => one(ratio(execute_p50, hit_cost)),
                "runtime.inline_speedup" => one(ratio(t1, inline)),
                "runtime.workers_speedup" => one(ratio(t1, wall(Mode::Workers))),
                "runtime.planner_speedup" => one(ratio(t1, wall(Mode::Planner))),
                "runtime.failed_share" => one(ratio(failed as f64, attempted as f64)),
                line => match LEDGER.iter().find(|(name, _)| *name == line) {
                    Some((_, span)) => one(cost(span, "self_s")),
                    None => unreachable!("per-layer metric {line} has no source"),
                },
            };
            Metric { name: spec.name, unit: spec.unit, summary }
        })
        .collect()
}
