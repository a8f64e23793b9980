//! The speedup ledger: plain-vs-`accelerate` walls for four programs in six
//! modes, plus an outside-in per-layer ledger replay. See `README.md`.
//!
//! ```text
//! benchmark run --workload W --seed N --seconds S --trace 0|1   one workload, the driver's contract
//! benchmark suite [--seed N] [--smoke] [--seconds S]            all four, writes results/<rev>-<seed>.json
//! benchmark compare A.json B.json                               applies every bound to two result files
//! benchmark child ...                                           one measurement (spawned by the above)
//! ```

#![forbid(unsafe_code)]

mod child;
mod compare;
mod json;
mod measure;
mod metrics;
mod replay;
mod spans;
mod stats;
mod workloads;

use json::Json;
use measure::{Measured, Plan, Want};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{Mode, Workload};

/// How long each of a workload's two measurements runs when not told
/// (`run_seconds` in `BENCHMARK.json`).
const SUITE_SECONDS: f64 = 30.0;

/// Exit codes: 0 measured and correct, 1 measured but something failed or
/// regressed, 2 could not measure at all.
const FAILED: u8 = 1;
const UNUSABLE: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        match args.first().map(String::as_str) {
            Some("run") => Flags::parse(&args[1..]).and_then(|f| run(&f)),
            Some("suite") => Flags::parse(&args[1..]).and_then(|f| suite(&f)),
            Some("child") => Flags::parse(&args[1..]).and_then(|f| run_child(&f)),
            Some("compare") => compare_files(&args[1..]),
            _ => Err("usage: benchmark run|suite|compare|child ... (see benchmark/README.md)"
                .to_string()),
        };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(UNUSABLE)
        }
    }
}

/// `--key value` pairs and bare `--switch`es.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = BTreeMap::new();
        let mut args = args.iter().peekable();
        while let Some(arg) = args.next() {
            let key =
                arg.strip_prefix("--").ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = match args.peek() {
                Some(next) if !next.starts_with("--") => args.next().cloned().unwrap_or_default(),
                _ => "1".to_string(),
            };
            flags.insert(key.to_string(), value);
        }
        Ok(Flags(flags))
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            Some(text) => text.parse().map_err(|_| format!("--{key} {text:?} is not valid")),
            None => Ok(default),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name: String = self.get("workload", String::new())?;
        Workload::parse(&name).ok_or_else(|| {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("--workload must be one of {}", names.join(", "))
        })
    }

    fn out_dir(&self) -> Result<PathBuf, String> {
        Ok(PathBuf::from(self.get("out-dir", "benchmark/results".to_string())?))
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The threaded modes run two workers beside the main thread; with one
/// core their walls measure the scheduler, not the runtime.
fn require_cores() -> Result<(), String> {
    match nproc() {
        n if n < workloads::WORKERS => {
            Err(format!("{n} core available; the threaded modes need {}", workloads::WORKERS))
        }
        _ => Ok(()),
    }
}

fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |text| text.trim().to_string())
}

fn print_measured(plan: &Plan, measured: &Measured) {
    let set = if plan.want == Want::EndToEnd { "end to end" } else { "per layer" };
    println!("# {} ({set}) — {}", plan.workload.name(), measured.description);
    metrics::print_table(&measured.metrics);
    println!("attempted {}  failed {}", measured.attempted, measured.failed);
    for error in &measured.errors {
        println!("FAILED: {error}");
    }
}

/// One workload under the driver's contract: the last line of stdout is the
/// result object.
fn run(flags: &Flags) -> Result<u8, String> {
    require_cores()?;
    let workload = flags.workload()?;
    let trace = flags.get("trace", 0u8)? != 0;
    let plan = Plan {
        workload,
        seed: flags.get("seed", 0)?,
        smoke: false,
        seconds: flags.get("seconds", SUITE_SECONDS)?,
        want: if trace { Want::PerLayer } else { Want::EndToEnd },
        out_dir: flags.out_dir()?,
    };
    let measured = measure::measure(&plan);
    print_measured(&plan, &measured);
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(measured.failed == 0)),
            ("attempted", Json::from(measured.attempted)),
            ("failed", Json::from(measured.failed)),
            ("metrics", metrics::contract_json(&measured.metrics)),
        ])
    );
    Ok(if measured.failed == 0 { 0 } else { FAILED })
}

/// All four workloads, both metric sets, one result file.
fn suite(flags: &Flags) -> Result<u8, String> {
    require_cores()?;
    let seed: u64 = flags.get("seed", 0)?;
    let smoke = flags.get("smoke", 0u8)? != 0;
    let out_dir = flags.out_dir()?;
    let load_before = loadavg_1m();
    let noisy = load_before > 0.5;
    if noisy {
        eprintln!("benchmark: 1-min load average is {load_before}; this run is marked noisy");
    }
    let git_rev = tool_line("git", &["rev-parse", "--short", "HEAD"]);
    let seconds = flags.get("seconds", SUITE_SECONDS)?;

    let mut failed = 0;
    let mut results = Vec::new();
    for workload in Workload::ALL {
        // The same two measurements the driver makes, back to back.
        let [end_to_end, per_layer] = [Want::EndToEnd, Want::PerLayer].map(|want| {
            let plan = Plan { workload, seed, smoke, seconds, want, out_dir: out_dir.clone() };
            let measured = measure::measure(&plan);
            print_measured(&plan, &measured);
            println!();
            measured
        });
        let (attempted, failures) =
            (end_to_end.attempted + per_layer.attempted, end_to_end.failed + per_layer.failed);
        failed += failures;
        let errors = end_to_end.errors.iter().chain(&per_layer.errors).map(Json::str).collect();
        results.push((
            workload.name(),
            Json::obj([
                ("description", Json::str(end_to_end.description.clone())),
                ("correct", Json::from(failures == 0)),
                ("attempted", Json::from(attempted)),
                ("failed", Json::from(failures)),
                ("errors", Json::Arr(errors)),
                ("end_to_end", metrics::result_json(&end_to_end.metrics)),
                ("per_layer", metrics::result_json(&per_layer.metrics)),
            ]),
        ));
    }

    let environment = Json::obj([
        ("nproc", Json::from(nproc())),
        ("rustc", Json::str(tool_line("rustc", &["-V"]))),
        ("git_rev", Json::str(git_rev.clone())),
        ("seed", Json::from(seed)),
        ("scale", Json::str(if smoke { "tiny (smoke)" } else { "full" })),
        ("loadavg_1m_before", Json::Num(load_before)),
        ("loadavg_1m_after", Json::Num(loadavg_1m())),
        ("noisy", Json::from(noisy)),
    ]);
    let file = Json::obj([
        ("environment", environment),
        (
            "workloads",
            Json::Obj(
                results.into_iter().map(|(name, result)| (name.to_string(), result)).collect(),
            ),
        ),
    ]);
    let name = format!("{git_rev}-{seed}{}.json", if smoke { "-smoke" } else { "" });
    let path = out_dir.join(name);
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, file.pretty()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(if failed == 0 { 0 } else { FAILED })
}

fn run_child(flags: &Flags) -> Result<u8, String> {
    let workload = flags.workload()?;
    let kind = match flags.get("kind", String::new())?.as_str() {
        "plain" => child::Kind::Plain,
        "replay" => child::Kind::Replay,
        other => child::Kind::Accelerate(
            Mode::parse(other).ok_or_else(|| format!("--kind {other:?} is not a child kind"))?,
        ),
    };
    let scale = match flags.get("scale", "full".to_string())?.as_str() {
        "tiny" => asc_workloads::registry::Scale::Tiny,
        "full" => workload.full_scale(),
        other => return Err(format!("--scale {other:?} must be tiny or full")),
    };
    let report = child::run(&child::Args {
        workload,
        scale,
        seed: flags.get("seed", 0)?,
        kind,
        reps: flags.get("reps", 1)?,
        trace: flags.get("trace", 0u8)? != 0,
        out_dir: flags.out_dir()?,
        prewarm_mb: flags.get("prewarm-mb", 0)?,
    });
    println!("{report}");
    Ok(0)
}

fn compare_files(paths: &[String]) -> Result<u8, String> {
    let [a, b] = paths else {
        return Err("usage: benchmark compare A.json B.json".to_string());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let regressions = compare::compare(&load(a)?, &load(b)?)?;
    println!("{regressions} regression(s)");
    Ok(if regressions == 0 { 0 } else { FAILED })
}
