//! Kill–resume soak driver for the CI `kill-resume-soak` job: proves that
//! a run killed dead at a random occurrence ordinal — SIGKILL-style, no
//! destructors — resumes from its newest intact checkpoint to a final
//! state **bit-identical** to the uninterrupted run. A checkpoint is one
//! `ckpt-*.asc` file of machine state, counters and learned state; the
//! trajectory cache is not saved, so every resume starts with an empty
//! cache and earns its hits again.
//!
//! Requires `--features fault-inject` (the crash point is the in-process
//! abort hook, so the kill lands at a *deterministic* ordinal instead of a
//! racy external `kill -9`; `std::process::abort` raises SIGABRT, which is
//! exactly as un-catchable for user code as SIGKILL — no `Drop`, no
//! `atexit`, no flush).
//!
//! Scenarios, one JSON line each to stdout and `--out` as they finish — a
//! failing scenario is a `"bit_identical":false` line carrying its error,
//! and the campaign runs on to the end before exiting non-zero, so a red
//! soak still uploads every row (`report_summary soak` renders them):
//!
//! * `kill-resume` — per seed × benchmark (mode rotated so every benchmark
//!   × {inline, workers, planner} pair is covered): run a reference
//!   in-process, crash a checkpointed child at a seeded ordinal, resume it
//!   in a fresh process, and demand the reference's exact final state and
//!   instruction total.
//! * `damage-sweep` — corrupt the newest checkpoint after the crash: the
//!   resume must fall back to the older intact file and still match;
//!   corrupt *every* file and the resume must cold-start and still match.
//! * `graceful-shutdown` — SIGTERM a child that is stalled mid-run: its
//!   signal handler requests shutdown, the run flushes a final checkpoint
//!   and exits cleanly, and the follow-up resume completes bit-identically.
//!
//! The separate `overhead` subcommand asserts the bench-gate bound: with
//! checkpointing on (one `.asc` file per interval), the min-of-5 wall clock
//! of the `accelerate_collatz_small` configuration stays within 5% of
//! checkpointing off.
//!
//! Exit codes: 0 all scenarios bit-identical, 1 a scenario failed (or the
//! overhead bound broke), 2 unusable input (`ASC_SOAK_SEEDS`, `--tolerance`,
//! an `--out` that cannot be created).
//!
//! ```sh
//! cargo run --release -p asc-bench --features fault-inject \
//!     --bin kill_resume_soak -- --out CKPT_soak.json
//! cargo run --release -p asc-bench --features fault-inject \
//!     --bin kill_resume_soak -- overhead
//! ```

use std::process::ExitCode;

#[cfg(feature = "fault-inject")]
mod soak {
    use std::collections::HashMap;
    use std::io::Write;
    use std::os::unix::process::ExitStatusExt;
    use std::path::{Path, PathBuf};
    use std::process::{Command, ExitCode};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use asc_bench::{bool_field, number_field, small_collatz_config, string_field};
    use asc_core::config::AscConfig;
    use asc_core::report::JsonLine;
    use asc_core::runtime::{LascRuntime, RunReport};
    use asc_core::FaultPlan;
    use asc_learn::rng::{Rng, XorShiftRng};
    use asc_workloads::registry::{build, Benchmark, Scale};

    const MODES: [&str; 3] = ["inline", "workers", "planner"];
    const INTERVAL: u64 = 4;

    /// The determinism suite's run shape: small enough that a full matrix
    /// of subprocess scenarios stays in CI budget, large enough that every
    /// run crosses dozens of occurrence boundaries (checkpoint opportunities).
    fn mode_config(benchmark: Benchmark, mode: &str) -> AscConfig {
        let mut config = AscConfig {
            explore_instructions: if benchmark == Benchmark::Ising { 25_000 } else { 5_000 },
            evaluation_occurrences: 6,
            evaluation_training: 10,
            candidate_count: 8,
            min_superstep: 50,
            rollout_depth: 8,
            ..AscConfig::default()
        };
        match mode {
            "inline" => {}
            "workers" => config.workers = 4,
            "planner" => {
                config.workers = 4;
                config.planner.enabled = true;
            }
            other => panic!("unknown mode {other:?}"),
        }
        config
    }

    fn scale_of(benchmark: Benchmark) -> Scale {
        match benchmark {
            Benchmark::Ising => Scale::Small,
            _ => Scale::Tiny,
        }
    }

    fn parse_benchmark(name: &str) -> Result<Benchmark, String> {
        Benchmark::ALL
            .into_iter()
            .find(|b| format!("{b}") == name)
            .ok_or_else(|| format!("unknown benchmark {name:?}"))
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn reference_run(benchmark: Benchmark, mode: &str) -> RunReport {
        let workload = build(benchmark, scale_of(benchmark)).expect("workload builds");
        let report = LascRuntime::new(mode_config(benchmark, mode))
            .expect("config is valid")
            .accelerate(&workload.program)
            .expect("reference run succeeds");
        assert!(report.halted, "{benchmark}/{mode}: reference did not halt");
        assert!(workload.verify(&report.final_state), "{benchmark}/{mode}: wrong reference");
        report
    }

    fn scenario_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("asc-soak-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn checkpoint_files(dir: &Path) -> Vec<PathBuf> {
        let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
        let mut files: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "asc"))
            .collect();
        files.sort();
        files
    }

    // ------------------------------------------------------------------
    // Child side: one checkpointed run, optionally crashed or stalled.
    // ------------------------------------------------------------------

    /// SIGTERM/SIGINT latch — a signal handler may only do async-signal-safe
    /// work, so it sets this flag and the bridge thread forwards it to the
    /// runtime's shutdown flag.
    static SIGNALLED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    fn install_signal_handlers() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }

    pub fn run_child(args: &HashMap<String, String>) -> Result<(), String> {
        let benchmark = parse_benchmark(args.get("--benchmark").ok_or("missing --benchmark")?)?;
        let mode = args.get("--mode").ok_or("missing --mode")?;
        let dir = PathBuf::from(args.get("--dir").ok_or("missing --dir")?);
        let result_path = args.get("--result").ok_or("missing --result")?;
        let kill_at: Option<u64> = args.get("--kill-at").map(|v| v.parse().unwrap());
        let graceful = args.contains_key("--graceful");

        let mut config = mode_config(benchmark, mode);
        config.checkpoint.enabled = true;
        config.checkpoint.directory = Some(dir);
        config.checkpoint.interval = INTERVAL;
        config.checkpoint.keep = 3;
        config.checkpoint.resume = true;
        if let Some(at) = kill_at {
            config.fault =
                Some(FaultPlan { seed: 1, abort_at_occurrence: Some(at), ..FaultPlan::default() });
        }
        if graceful {
            // A deterministic mid-run window for the parent's SIGTERM: the
            // run stalls at occurrence 10 until the watchdog frees it, so
            // the signal always lands while the run is in flight. Only the
            // shutdown flush may save — the interval never fires.
            config.fault =
                Some(FaultPlan { seed: 1, stall_at_occurrence: Some(10), ..FaultPlan::default() });
            config.watchdog.deadline_ms = 1_500;
            config.watchdog.poll_ms = 50;
            config.checkpoint.interval = u64::MAX;
            install_signal_handlers();
        }

        let workload = build(benchmark, scale_of(benchmark)).expect("workload builds");
        let mut runtime = LascRuntime::new(config).map_err(|e| format!("bad config: {e}"))?;
        if graceful {
            let flag = Arc::new(AtomicBool::new(false));
            runtime.set_shutdown_flag(Arc::clone(&flag));
            std::thread::spawn(move || loop {
                if SIGNALLED.load(Ordering::SeqCst) {
                    flag.store(true, Ordering::SeqCst);
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            });
        }
        let report =
            runtime.accelerate(&workload.program).map_err(|e| format!("run failed: {e}"))?;
        if report.halted {
            assert!(workload.verify(&report.final_state), "child produced a wrong result");
        }

        // The run report itself is the result: the parent reads the state,
        // the instruction total and the checkpoint counters back out of it.
        let state = hex(report.final_state.as_bytes());
        let mut file = std::fs::File::create(result_path)
            .map_err(|e| format!("cannot create result {result_path}: {e}"))?;
        report
            .write_json(&mut file, &[("state", state.as_str().into())])
            .map_err(|e| format!("cannot write result: {e}"))
    }

    // ------------------------------------------------------------------
    // Parent side: scenarios.
    // ------------------------------------------------------------------

    struct ChildResult {
        halted: bool,
        state: String,
        total: u64,
        saves: u64,
        resumed: bool,
        rejected: u64,
    }

    fn read_result(path: &Path) -> Result<ChildResult, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("no child result {path:?}: {e}"))?;
        let missing = |key: &str| format!("child result missing {key}");
        let number = |key| number_field(&text, key).map(|v| v as u64).ok_or_else(|| missing(key));
        let flag = |key| bool_field(&text, key).ok_or_else(|| missing(key));
        Ok(ChildResult {
            halted: flag("halted")?,
            state: string_field(&text, "state").ok_or_else(|| missing("state"))?,
            total: number("total_instructions")?,
            saves: number("checkpoints.saves")?,
            resumed: flag("checkpoints.resumed")?,
            rejected: number("checkpoints.rejected_files")?,
        })
    }

    fn child_command(benchmark: Benchmark, mode: &str, dir: &Path, result: &Path) -> Command {
        let exe = std::env::current_exe().expect("own executable path");
        let mut command = Command::new(exe);
        command.args([
            "child",
            "--benchmark",
            &format!("{benchmark}"),
            "--mode",
            mode,
            "--dir",
            dir.to_str().expect("utf-8 temp path"),
            "--result",
            result.to_str().expect("utf-8 temp path"),
        ]);
        command
    }

    /// Crash a checkpointed child at `kill_at`, halving the ordinal until
    /// the crash lands before the run completes (the seeded ordinal can
    /// overshoot a short run). Returns the ordinal that crashed.
    fn crash_child(
        benchmark: Benchmark,
        mode: &str,
        dir: &Path,
        result: &Path,
        mut kill_at: u64,
    ) -> Result<u64, String> {
        for _ in 0..8 {
            let _ = std::fs::remove_dir_all(dir);
            let output = child_command(benchmark, mode, dir, result)
                .arg("--kill-at")
                .arg(kill_at.to_string())
                .output()
                .map_err(|e| format!("cannot spawn crash child: {e}"))?;
            if output.status.signal() == Some(6) {
                return Ok(kill_at);
            }
            if output.status.success() {
                // The run finished before the ordinal; aim earlier.
                kill_at = (kill_at / 2).max(INTERVAL + 1);
                continue;
            }
            return Err(format!(
                "crash child died wrong ({:?}): {}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        Err(format!("{benchmark}/{mode}: no ordinal crashed the run"))
    }

    fn resume_child(
        benchmark: Benchmark,
        mode: &str,
        dir: &Path,
        result: &Path,
    ) -> Result<ChildResult, String> {
        let output = child_command(benchmark, mode, dir, result)
            .output()
            .map_err(|e| format!("cannot spawn resume child: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "resume child failed ({:?}): {}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        read_result(result)
    }

    fn assert_matches(
        label: &str,
        reference: &RunReport,
        resumed: &ChildResult,
    ) -> Result<(), String> {
        if !resumed.halted {
            return Err(format!("{label}: resumed run did not halt"));
        }
        if resumed.state != hex(reference.final_state.as_bytes()) {
            return Err(format!("{label}: resumed final state diverged from the reference"));
        }
        if resumed.total != reference.total_instructions {
            return Err(format!(
                "{label}: instruction accounting diverged ({} vs {})",
                resumed.total, reference.total_instructions
            ));
        }
        Ok(())
    }

    /// A scenario's lines on success, each still lacking its verdict: the
    /// [`Campaign`] appends `bit_identical`.
    type Scenario = Result<Vec<JsonLine>, String>;

    fn kill_resume_scenario(
        base: &JsonLine,
        benchmark: Benchmark,
        mode: &str,
        seed: u64,
        rng: &mut XorShiftRng,
    ) -> Scenario {
        let label = format!("{benchmark}/{mode}/seed{seed}");
        let reference = reference_run(benchmark, mode);
        let dir = scenario_dir(&format!("kill-{benchmark}-{mode}-{seed}"));
        let result = dir.with_extension("result");

        // Past the first interval boundary (so a checkpoint exists to
        // resume from), randomly deep into the run.
        let kill_at = INTERVAL + 1 + rng.next_u64() % 120;
        let kill_at = crash_child(benchmark, mode, &dir, &result, kill_at)?;
        if checkpoint_files(&dir).is_empty() {
            return Err(format!("{label}: crashed run left no checkpoint"));
        }

        let resumed = resume_child(benchmark, mode, &dir, &result)?;
        if !resumed.resumed {
            return Err(format!("{label}: second leg started cold"));
        }
        assert_matches(&label, &reference, &resumed)?;
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&result);
        Ok(vec![base.clone().field("kill_at", kill_at).field("resumed", true)])
    }

    fn damage_scenario(base: &JsonLine, rng: &mut XorShiftRng) -> Scenario {
        let (benchmark, mode) = (Benchmark::Collatz, "workers");
        let reference = reference_run(benchmark, mode);
        let dir = scenario_dir("damage");
        let result = dir.with_extension("result");
        crash_child(benchmark, mode, &dir, &result, 40)?;
        let files = checkpoint_files(&dir);
        if files.len() < 2 {
            return Err(format!("damage sweep needs ≥ 2 checkpoints, got {}", files.len()));
        }

        // Corrupt the newest file: the resume must fall back to the older
        // intact checkpoint, count the damage, and still match bit-for-bit.
        let newest = files.last().unwrap();
        let mut bytes = std::fs::read(newest).map_err(|e| format!("read {newest:?}: {e}"))?;
        let index = (rng.next_u64() as usize) % bytes.len();
        bytes[index] ^= 1 + (rng.next_u64() as u8 % 255);
        std::fs::write(newest, &bytes).map_err(|e| format!("write {newest:?}: {e}"))?;
        let fell_back = resume_child(benchmark, mode, &dir, &result)?;
        if !fell_back.resumed || fell_back.rejected == 0 {
            return Err(format!(
                "damaged newest was not detected (resumed={}, rejected={})",
                fell_back.resumed, fell_back.rejected
            ));
        }
        assert_matches("damage/older-intact", &reference, &fell_back)?;

        // Corrupt every checkpoint: the resume must cold-start — never load
        // a wrong state — and still reach the identical final state.
        for file in checkpoint_files(&dir) {
            let mut bytes = std::fs::read(&file).map_err(|e| format!("read {file:?}: {e}"))?;
            let index = (rng.next_u64() as usize) % bytes.len();
            bytes[index] ^= 1 + (rng.next_u64() as u8 % 255);
            std::fs::write(&file, &bytes).map_err(|e| format!("write {file:?}: {e}"))?;
        }
        let cold = resume_child(benchmark, mode, &dir, &result)?;
        if cold.resumed {
            return Err("a fully damaged directory still claimed a resume".into());
        }
        assert_matches("damage/cold-start", &reference, &cold)?;
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&result);
        Ok(["older-intact", "cold-start"].map(|case| base.clone().field("case", case)).into())
    }

    fn graceful_scenario(base: &JsonLine) -> Scenario {
        let (benchmark, mode) = (Benchmark::Collatz, "workers");
        let reference = reference_run(benchmark, mode);
        let dir = scenario_dir("graceful");
        let result = dir.with_extension("result");

        let mut child = child_command(benchmark, mode, &dir, &result)
            .arg("--graceful")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn graceful child: {e}"))?;
        // The child is parked on its injected stall by now; the SIGTERM
        // lands mid-run by construction.
        std::thread::sleep(Duration::from_millis(400));
        let term = Command::new("kill")
            .args(["-TERM", &child.id().to_string()])
            .status()
            .map_err(|e| format!("cannot send SIGTERM: {e}"))?;
        if !term.success() {
            let _ = child.kill();
            return Err("kill -TERM failed".into());
        }
        let output =
            child.wait_with_output().map_err(|e| format!("graceful child vanished: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "graceful child did not exit cleanly ({:?}): {}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        let stopped = read_result(&result)?;
        if stopped.halted {
            return Err("SIGTERM child ran to completion — the signal landed too late".into());
        }
        if stopped.saves == 0 {
            return Err("graceful shutdown flushed no checkpoint".into());
        }

        let resumed = resume_child(benchmark, mode, &dir, &result)?;
        if !resumed.resumed {
            return Err("resume after graceful shutdown started cold".into());
        }
        assert_matches("graceful", &reference, &resumed)?;
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&result);
        Ok(vec![base.clone().field("flushed_saves", stopped.saves)])
    }

    /// Where the campaign's lines go as they are produced, and how many
    /// scenarios failed so far.
    struct Campaign<W> {
        out: W,
        failures: usize,
    }

    impl<W: Write> Campaign<W> {
        /// Runs one scenario and writes its lines: its own with
        /// `"bit_identical":true`, or — for an `Err` — `base` with `false`
        /// and the error, so a failure is a row instead of a missing file.
        fn run(
            &mut self,
            base: JsonLine,
            scenario: impl FnOnce(&JsonLine) -> Scenario,
        ) -> Result<(), String> {
            let lines = match scenario(&base) {
                Ok(lines) => lines.into_iter().map(|l| l.field("bit_identical", true)).collect(),
                Err(error) => {
                    self.failures += 1;
                    vec![base.field("bit_identical", false).field("error", error.as_str())]
                }
            };
            for line in lines {
                let line = line.finish();
                print!("{line}");
                self.out
                    .write_all(line.as_bytes())
                    .map_err(|e| format!("cannot write the --out file: {e}"))?;
            }
            Ok(())
        }
    }

    fn campaign(out: impl Write, seeds: &[u64]) -> Result<(), String> {
        let mut campaign = Campaign { out, failures: 0 };
        for (seed_index, &seed) in seeds.iter().enumerate() {
            let mut rng = XorShiftRng::new(0x50a4_0000 ^ seed.wrapping_mul(0x9e37));
            for (bench_index, benchmark) in Benchmark::ALL.into_iter().enumerate() {
                // Rotate the mode with the seed so three seeds cover every
                // benchmark × {inline, workers, planner} pair exactly once.
                let mode = MODES[(seed_index + bench_index) % MODES.len()];
                let base = JsonLine::new()
                    .field("scenario", "kill-resume")
                    .field("benchmark", format!("{benchmark}").as_str())
                    .field("mode", mode)
                    .field("seed", seed);
                campaign.run(base, |base| {
                    kill_resume_scenario(base, benchmark, mode, seed, &mut rng)
                })?;
            }
        }
        let mut rng = XorShiftRng::new(0xda3a_6e00 ^ seeds[0]);
        let base = JsonLine::new().field("scenario", "damage-sweep");
        campaign.run(base, |base| damage_scenario(base, &mut rng))?;
        campaign.run(JsonLine::new().field("scenario", "graceful-shutdown"), graceful_scenario)?;

        match campaign.failures {
            0 => Ok(()),
            failures => Err(format!("{failures} scenario(s) failed; see the rows above")),
        }
    }

    /// The bench-gate bound: checkpointing on (default interval) must stay
    /// within `tolerance` of checkpointing off on the `accelerate_collatz_
    /// small` configuration's min-of-5 wall clock. Runs interleave so slow
    /// drift (thermal, noisy neighbours) cancels out of the comparison.
    fn overhead(tolerance: f64) -> Result<(), String> {
        let workload = build(Benchmark::Collatz, Scale::Small).expect("workload builds");
        let off_config = small_collatz_config(0, false);
        let mut on_config = off_config.clone();
        on_config.checkpoint.enabled = true;
        on_config.checkpoint.directory = Some(scenario_dir("overhead"));

        let time = |config: &AscConfig| -> Duration {
            let runtime = LascRuntime::new(config.clone()).expect("config is valid");
            let started = Instant::now();
            let report = runtime.accelerate(&workload.program).expect("run succeeds");
            assert!(report.halted && workload.verify(&report.final_state));
            started.elapsed()
        };
        let (mut off_min, mut on_min) = (Duration::MAX, Duration::MAX);
        for _ in 0..5 {
            off_min = off_min.min(time(&off_config));
            on_min = on_min.min(time(&on_config));
        }
        if let Some(dir) = &on_config.checkpoint.directory {
            let _ = std::fs::remove_dir_all(dir);
        }

        let ratio = on_min.as_secs_f64() / off_min.as_secs_f64();
        let line = JsonLine::new()
            .field("scenario", "checkpoint-overhead")
            .field("off_min_ns", off_min.as_nanos() as u64)
            .field("on_min_ns", on_min.as_nanos() as u64)
            .field("ratio", ratio)
            .field("tolerance", tolerance);
        print!("{}", line.finish());
        if ratio > 1.0 + tolerance {
            return Err(format!(
                "checkpointing costs {:.1}% on accelerate_collatz_small minima (bound {:.0}%)",
                (ratio - 1.0) * 100.0,
                tolerance * 100.0
            ));
        }
        Ok(())
    }

    /// Input this driver cannot use: reported and exit code 2, never a
    /// silently smaller campaign.
    fn usage_error(message: String) -> ExitCode {
        eprintln!("kill-resume soak: {message}");
        ExitCode::from(2)
    }

    fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a String> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1))
    }

    pub fn main() -> ExitCode {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let outcome = match args.first().map(String::as_str) {
            Some("child") => {
                let mut map = HashMap::new();
                let mut rest = args[1..].iter();
                while let Some(key) = rest.next() {
                    if key == "--graceful" {
                        map.insert(key.clone(), String::new());
                    } else {
                        map.insert(key.clone(), rest.next().cloned().unwrap_or_default());
                    }
                }
                run_child(&map)
            }
            Some("overhead") => {
                let tolerance = match flag(&args, "--tolerance").map(|v| v.parse::<f64>()) {
                    None => 0.05,
                    Some(Ok(tolerance)) if tolerance >= 0.0 => tolerance,
                    Some(_) => {
                        return usage_error("--tolerance needs a non-negative number".into())
                    }
                };
                overhead(tolerance)
            }
            _ => {
                let seeds = std::env::var("ASC_SOAK_SEEDS").unwrap_or_else(|_| "1,2,3".into());
                let Ok(seeds) =
                    seeds.split(',').map(|s| s.trim().parse()).collect::<Result<Vec<u64>, _>>()
                else {
                    return usage_error(format!(
                        "ASC_SOAK_SEEDS={seeds:?} is not a comma-separated list of integers"
                    ));
                };
                match flag(&args, "--out") {
                    None => campaign(std::io::sink(), &seeds),
                    Some(path) => match std::fs::File::create(path) {
                        Ok(file) => campaign(file, &seeds),
                        Err(error) => return usage_error(format!("cannot create {path}: {error}")),
                    },
                }
            }
        };
        match outcome {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("kill-resume soak error: {message}");
                ExitCode::FAILURE
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn a_failing_scenario_is_recorded_as_a_row_and_counted() {
            let mut campaign = Campaign { out: Vec::new(), failures: 0 };
            let base = JsonLine::new().field("scenario", "kill-resume").field("seed", 2u64);
            campaign
                .run(base.clone(), |base| Ok(vec![base.clone().field("kill_at", 9u64)]))
                .unwrap();
            campaign.run(base, |_| Err("resume \"diverged\"".into())).unwrap();
            assert_eq!(campaign.failures, 1);
            let text = String::from_utf8(campaign.out).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), 2);
            assert_eq!(bool_field(lines[0], "bit_identical"), Some(true));
            assert_eq!(bool_field(lines[1], "bit_identical"), Some(false));
            assert_eq!(string_field(lines[1], "scenario").as_deref(), Some("kill-resume"));
            assert_eq!(string_field(lines[1], "error").as_deref(), Some("resume \"diverged\""));
        }
    }
}

#[cfg(feature = "fault-inject")]
fn main() -> ExitCode {
    soak::main()
}

#[cfg(not(feature = "fault-inject"))]
fn main() -> ExitCode {
    eprintln!(
        "kill_resume_soak needs the deterministic crash hook: \
         rebuild with --features fault-inject"
    );
    ExitCode::from(2)
}
