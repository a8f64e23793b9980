//! Cross-thread determinism: the paper's core invariant is that speculation
//! can only ever *skip* work, never change results. Running `accelerate`
//! with a pool of concurrent speculation workers must therefore produce a
//! `final_state` bit-for-bit identical to the inline (workers = 0) run — on
//! every benchmark, despite the nondeterministic scheduling of worker
//! inserts into the trajectory cache. The continuous-speculation planner
//! only chooses *which* speculations run, so planner on vs. off must be
//! equally bit-identical.
//!
//! With `ASC_REPORT_OUT=<file>` set, the economics, tier and fault-soak tests
//! append the reports of the runs they judge to that file, one
//! [`RunReport::write_json`] line each, labelled with the emitting test;
//! CI renders them with `report_summary <economics|tier|health> <file>` and
//! uploads the file. Under `--features fault-inject`, `ASC_FAULT_SEED=<n>`
//! picks the fault campaign's seed (default 1).

use asc::core::config::AscConfig;
use asc::core::report::JsonValue;
use asc::core::runtime::{LascRuntime, RunReport};
use asc::workloads::registry::{build, Benchmark, BuiltWorkload, Scale};

fn config_for(benchmark: Benchmark, workers: usize) -> AscConfig {
    let base = match benchmark {
        // Ising's init phase is long; the exploration window must reach the
        // list walk (same sizing as the end-to-end tests).
        Benchmark::Ising => AscConfig { explore_instructions: 25_000, ..AscConfig::for_tests() },
        _ => AscConfig::for_tests(),
    };
    AscConfig { workers, ..base }
}

fn scale_for(benchmark: Benchmark) -> Scale {
    match benchmark {
        Benchmark::Ising => Scale::Small,
        _ => Scale::Tiny,
    }
}

fn accelerate(config: AscConfig, workload: &BuiltWorkload) -> RunReport {
    LascRuntime::new(config).unwrap().accelerate(&workload.program).unwrap()
}

/// Appends `report` as one JSON line to the file `$ASC_REPORT_OUT` names, if
/// any, labelled with the emitting `test`, the benchmark and `labels`. A
/// file that cannot be opened or written fails the calling test: CI treats
/// a missing artifact as an error, so dropping lines silently would only
/// move the failure somewhere less legible.
fn emit_report(
    test: &str,
    benchmark: Benchmark,
    labels: &[(&str, JsonValue<'_>)],
    report: &RunReport,
) {
    let Some(path) = std::env::var_os("ASC_REPORT_OUT") else { return };
    let benchmark = format!("{benchmark}");
    let mut all = vec![("test", test.into()), ("benchmark", benchmark.as_str().into())];
    all.extend_from_slice(labels);
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut file| report.write_json(&mut file, &all));
    if let Err(error) = written {
        panic!("ASC_REPORT_OUT={path:?} cannot be appended to: {error}");
    }
}

/// What every mode owes the inline run, whatever its threads did: it
/// halts, its final state is bit-identical, and the pure-Rust reference
/// agrees.
fn assert_same_result(
    label: &str,
    inline: &RunReport,
    report: &RunReport,
    workload: &BuiltWorkload,
) {
    assert!(report.halted, "{label}: run did not halt");
    assert_eq!(
        inline.final_state.as_bytes(),
        report.final_state.as_bytes(),
        "{label}: diverged from inline execution"
    );
    assert!(workload.verify(&report.final_state), "{label}: produced a wrong result");
}

/// `workers = 4` must match `workers = 0` bit-for-bit on the final state,
/// under the planner and under miss-driven dispatch — the planner thread
/// decides *which* speculations run, never what the main thread computes,
/// so planner on and off are bit-identical to each other too. That the pool
/// *really ran* is asserted only on the miss-driven leg: there the main thread
/// itself dispatches its first ready plan, so it is a function of the
/// program, while a planner thread may never get a timeslice before a
/// `Tiny` run ends.
#[test]
fn parallel_speculation_is_bit_identical_to_inline_on_every_benchmark() {
    for benchmark in Benchmark::ALL {
        let workload = build(benchmark, scale_for(benchmark)).unwrap();
        let inline_report = accelerate(config_for(benchmark, 0), &workload);
        assert!(inline_report.halted, "{benchmark}: inline run did not halt");

        for planner in [true, false] {
            let mut config = config_for(benchmark, 4);
            config.planner.enabled = planner;
            let parallel_report = accelerate(config, &workload);
            let label = format!("{benchmark}/planner={planner}");
            assert_same_result(&label, &inline_report, &parallel_report, &workload);
            let stats = parallel_report.speculation.expect("workers > 0 must report pool stats");
            assert_eq!(
                stats.dispatched,
                stats.completed
                    + stats.faulted
                    + stats.exhausted
                    + stats.panicked
                    + stats.deadline_killed,
                "{label}: pool shutdown lost jobs ({stats:?})"
            );
            // The planner reports exactly when it ran, and it heard the
            // main thread: shutdown drains its channel before it reports.
            match parallel_report.planner {
                Some(seen) => assert!(planner && seen.occurrences > 0, "{label}: {seen:?}"),
                None => assert!(!planner, "{label}: planner on must report planner stats"),
            }
            // Until the first dispatch a miss-driven pool run is the inline
            // run step for step, so whenever inline speculation produced a
            // task at all, the pool was handed that same task.
            if !planner && inline_report.cache_stats.inserted > 0 {
                assert!(stats.dispatched > 0, "{label}: no speculation dispatched ({stats:?})");
            }
        }
    }
}

/// Parallel speculation must also be identical to plain sequential
/// execution, not merely to the inline-speculation mode.
#[test]
fn parallel_speculation_matches_plain_sequential_execution() {
    use asc::tvm::machine::Machine;
    let workload = build(Benchmark::Collatz, Scale::Tiny).unwrap();

    let mut sequential = Machine::load(&workload.program).unwrap();
    sequential.run_to_halt(200_000_000).unwrap();

    let report = accelerate(config_for(Benchmark::Collatz, 4), &workload);
    assert!(report.halted);
    assert_eq!(
        sequential.state().as_bytes(),
        report.final_state.as_bytes(),
        "accelerated final state diverged from sequential execution"
    );
}

/// Worker counts beyond the rollout width still behave (threads idle but
/// nothing deadlocks or diverges).
#[test]
fn oversubscribed_worker_pool_is_safe() {
    let workload = build(Benchmark::Collatz, Scale::Tiny).unwrap();
    let inline_report = accelerate(config_for(Benchmark::Collatz, 0), &workload);
    let report = accelerate(config_for(Benchmark::Collatz, 16), &workload);
    assert_same_result("16 workers", &inline_report, &report, &workload);
}

/// Dispatch economics: the value model decides only *which* speculations
/// run, so gating on vs. off must leave `final_state` bit-identical in
/// every execution mode — inline, miss-driven workers and planner — on
/// every benchmark. Suppression is never a correctness event: a suppressed
/// dispatch just means the main thread executes that superstep itself,
/// exactly as it would on any cache miss.
mod economics {
    use super::*;

    /// Gating on vs. off, across all three execution modes, on every
    /// benchmark: the final state never moves.
    #[test]
    fn gating_on_and_off_are_bit_identical_in_every_mode() {
        for benchmark in Benchmark::ALL {
            let workload = build(benchmark, scale_for(benchmark)).unwrap();
            for (mode, workers, planner) in
                [("inline", 0usize, false), ("workers", 4, false), ("planner", 4, true)]
            {
                let mut gated = config_for(benchmark, workers);
                gated.planner.enabled = planner;
                gated.economics.enabled = true;
                let mut ungated = gated.clone();
                ungated.economics.enabled = false;

                let gated_report =
                    LascRuntime::new(gated).unwrap().accelerate(&workload.program).unwrap();
                let ungated_report =
                    LascRuntime::new(ungated).unwrap().accelerate(&workload.program).unwrap();

                assert!(gated_report.halted, "{benchmark}/{mode}: gated run did not halt");
                assert!(ungated_report.halted, "{benchmark}/{mode}: ungated run did not halt");
                assert_eq!(
                    gated_report.final_state.as_bytes(),
                    ungated_report.final_state.as_bytes(),
                    "{benchmark}/{mode}: economics gating changed the result"
                );
                assert!(
                    workload.verify(&gated_report.final_state),
                    "{benchmark}/{mode}: gated run produced a wrong result"
                );
                if mode == "inline" {
                    // Inline runs are fully reproducible, counters included:
                    // a disabled model must still count every candidate as
                    // dispatched, so `considered` totals stay comparable.
                    let on = gated_report.economics.expect("inline run must report economics");
                    let off = ungated_report.economics.expect("inline run must report economics");
                    assert_eq!(off.suppressed, 0, "{benchmark}: disabled gating suppressed");
                    assert_eq!(
                        on.dispatched + on.suppressed,
                        on.considered,
                        "{benchmark}: economics counters disagree ({on:?})"
                    );
                }
                emit_report("economics", benchmark, &[("mode", mode.into())], &gated_report);
            }
        }
    }

    /// The chaotic logistic map is the value model's reason to exist: its
    /// speculation never lands, so the gate must suppress most dispatches
    /// (keeping only warm-up and probe leaks) while the predictable Collatz
    /// workload keeps dispatching essentially everything.
    #[test]
    fn junk_workloads_are_throttled_and_learnable_ones_are_not() {
        let logistic = build(Benchmark::LogisticMap, Scale::Tiny).unwrap();
        let report = LascRuntime::new(config_for(Benchmark::LogisticMap, 0))
            .unwrap()
            .accelerate(&logistic.program)
            .unwrap();
        let stats = report.economics.unwrap();
        assert!(
            stats.suppressed > stats.dispatched,
            "logistic speculation should be mostly suppressed ({stats:?})"
        );
        assert!(stats.probes > 0, "suppression must stay leaky ({stats:?})");
        assert_eq!(stats.last_horizon, 1, "a chaotic rip must collapse the rollout horizon");
        assert!(stats.suppressed_cost > 0.0);

        let collatz = build(Benchmark::Collatz, Scale::Tiny).unwrap();
        let report = LascRuntime::new(config_for(Benchmark::Collatz, 0))
            .unwrap()
            .accelerate(&collatz.program)
            .unwrap();
        let stats = report.economics.unwrap();
        assert!(
            stats.dispatched >= 9 * stats.suppressed,
            "collatz speculation should almost never be suppressed ({stats:?})"
        );
        assert!(stats.realized_hit_rate > 0.1, "collatz hits must register ({stats:?})");
    }
}

/// Tier-up execution: compiling hot inter-occurrence regions into fused,
/// block-threaded micro-op blocks changes the *cost* of an instruction,
/// never its semantics. Tier on vs. off must therefore leave `final_state`
/// bit-identical in every execution mode — inline, miss-driven workers and
/// planner — on every benchmark, and the instruction accounting (supersteps,
/// budgets, deadlines) must stay exact at block boundaries.
mod tier {
    use super::*;
    use asc::tvm::TierConfig;

    /// Tier on vs. off, across all three execution modes, on every
    /// benchmark: the final state never moves, and the tier really ran.
    #[test]
    fn tier_on_and_off_are_bit_identical_in_every_mode() {
        for benchmark in Benchmark::ALL {
            let workload = build(benchmark, scale_for(benchmark)).unwrap();
            for (mode, workers, planner) in
                [("inline", 0usize, false), ("workers", 4, false), ("planner", 4, true)]
            {
                let mut on = config_for(benchmark, workers);
                on.planner.enabled = planner;
                on.tier = TierConfig::default();
                let mut off = on.clone();
                off.tier = TierConfig::disabled();

                let on_report =
                    LascRuntime::new(on).unwrap().accelerate(&workload.program).unwrap();
                let off_report =
                    LascRuntime::new(off).unwrap().accelerate(&workload.program).unwrap();

                assert!(on_report.halted, "{benchmark}/{mode}: tiered run did not halt");
                assert!(off_report.halted, "{benchmark}/{mode}: tier-0 run did not halt");
                assert_eq!(
                    on_report.final_state.as_bytes(),
                    off_report.final_state.as_bytes(),
                    "{benchmark}/{mode}: tier-up changed the result"
                );
                assert!(
                    workload.verify(&on_report.final_state),
                    "{benchmark}/{mode}: tiered run produced a wrong result"
                );
                // Accounting is exact at block boundaries, so the
                // semantically retired total is identical, not just close.
                assert_eq!(
                    on_report.total_instructions, off_report.total_instructions,
                    "{benchmark}/{mode}: tier-up changed the instruction accounting"
                );
                // The tier really ran: the recognized IP is seeded hot, so
                // the first executed superstep already compiles its region.
                assert!(
                    on_report.tier.blocks_compiled > 0,
                    "{benchmark}/{mode}: tier on but nothing compiled ({:?})",
                    on_report.tier
                );
                assert!(
                    on_report.tier.tier1_instructions > 0,
                    "{benchmark}/{mode}: tier on but nothing retired in blocks ({:?})",
                    on_report.tier
                );
                assert_eq!(
                    off_report.tier.blocks_compiled, 0,
                    "{benchmark}/{mode}: tier off but blocks compiled ({:?})",
                    off_report.tier
                );
                emit_report("tier", benchmark, &[("mode", mode.into())], &on_report);
            }
        }
    }

    /// Memoization executes its misses on the configured tier: the tier may
    /// change how fast a remembered superstep is captured, never what is
    /// remembered or what the run reports.
    #[test]
    fn memoize_on_tier_1_matches_tier_0() {
        use asc::workloads::collatz;
        let params = collatz::CollatzParams { start: 2, count: 200 };
        let program = collatz::pure_program(&params).unwrap();
        let memoize = |tier| {
            let config = AscConfig { min_superstep: 8, tier, ..AscConfig::for_tests() };
            LascRuntime::new(config).unwrap().memoize(&program, 2.0).unwrap()
        };
        let (off, off_series) = memoize(TierConfig::disabled());
        let (on, on_series) = memoize(TierConfig::default());
        assert_eq!(on.final_state, off.final_state);
        assert_eq!(on.total_instructions, off.total_instructions);
        assert_eq!(on.fast_forwarded_instructions, off.fast_forwarded_instructions);
        assert_eq!(on.cache_stats.hits, off.cache_stats.hits);
        assert_eq!(on.cache_stats.inserted, off.cache_stats.inserted);
        assert_eq!(on_series, off_series);
        assert!(on.cache_stats.hits > 0, "{:?}", on.cache_stats);
        assert_eq!(off.tier.tier1_instructions, 0, "{:?}", off.tier);
        assert!(on.tier.tier1_instructions > 0, "{:?}", on.tier);
    }

    /// The full fault campaign (worker panics, stalls, entry corruption,
    /// planner death) with the tier enabled: deadline-killed and faulted
    /// jobs stop mid-block, and their exact instruction accounting is what
    /// keeps the final state bit-identical to fault-free tier-0 execution.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn fault_soak_with_tier_enabled_stays_bit_identical() {
        let seed = super::fault_soak::fault_seed();
        for benchmark in Benchmark::ALL {
            let workload = build(benchmark, scale_for(benchmark)).unwrap();
            let mut reference = config_for(benchmark, 0);
            reference.tier = TierConfig::disabled();
            let reference =
                LascRuntime::new(reference).unwrap().accelerate(&workload.program).unwrap();
            let mut soak = super::fault_soak::soak_config(benchmark, seed);
            soak.tier = TierConfig::default();
            let faulted = LascRuntime::new(soak).unwrap().accelerate(&workload.program).unwrap();
            assert!(faulted.halted, "{benchmark}: tiered faulted run did not halt");
            assert_eq!(
                reference.final_state.as_bytes(),
                faulted.final_state.as_bytes(),
                "{benchmark}: seed {seed} fault campaign with tier enabled changed the result"
            );
            assert!(
                faulted.health.injected_faults > 0,
                "{benchmark}: the fault campaign never fired ({:?})",
                faulted.health
            );
            assert!(
                faulted.tier.tier1_instructions > 0,
                "{benchmark}: soak ran tier-0 only ({:?})",
                faulted.tier
            );
        }
    }
}

/// Crash durability: a checkpointed run cut short mid-flight and resumed
/// from disk must finish in a final state bit-identical to the
/// uninterrupted run — in every execution mode, on every benchmark. The
/// truncation here is an instruction budget (the in-process equivalent of
/// a kill; the subprocess SIGKILL variant lives in the `kill_resume_soak`
/// bin), and workers/planner state is deliberately not checkpointed: those
/// tiers re-warm after resume exactly like they re-warm after a dead
/// planner, so bit-identity cannot depend on them.
mod checkpoint {
    use super::*;
    use std::path::PathBuf;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("asc-determinism-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Self(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn checkpointed(mut config: AscConfig, dir: &TempDir, budget: u64) -> AscConfig {
        config.checkpoint.enabled = true;
        config.checkpoint.directory = Some(dir.0.clone());
        config.checkpoint.interval = 4;
        config.checkpoint.keep = 2;
        config.checkpoint.resume = true;
        config.instruction_budget = budget;
        config
    }

    /// Every benchmark × {inline, workers, planner}: truncate a
    /// checkpointed run by budget, resume it, and demand the exact final
    /// state and instruction total of the uninterrupted run.
    #[test]
    fn interrupted_runs_resume_bit_identically_in_every_mode() {
        for benchmark in Benchmark::ALL {
            let workload = build(benchmark, scale_for(benchmark)).unwrap();
            for (mode, workers, planner) in
                [("inline", 0usize, false), ("workers", 4, false), ("planner", 4, true)]
            {
                let mut base = config_for(benchmark, workers);
                base.planner.enabled = planner;
                let reference =
                    LascRuntime::new(base.clone()).unwrap().accelerate(&workload.program).unwrap();
                assert!(reference.halted, "{benchmark}/{mode}: reference did not halt");

                // The budget gates *executed* instructions (fast-forwards
                // are free). Hit timing makes the executed count noisy in
                // threaded modes, so shrink the post-recognizer slice until
                // the leg genuinely truncates.
                let dir = TempDir::new(&format!("{benchmark}-{mode}"));
                let converge = reference.converge_instructions;
                let slice = reference.executed_instructions.saturating_sub(converge);
                let mut first = None;
                for shrink in [2u64, 4, 8, 16] {
                    // A halted attempt leaves checkpoints behind; each
                    // attempt must start cold for the leg to be a real
                    // truncated first run.
                    let _ = std::fs::remove_dir_all(&dir.0);
                    let config = checkpointed(base.clone(), &dir, converge + slice / shrink);
                    let report =
                        LascRuntime::new(config).unwrap().accelerate(&workload.program).unwrap();
                    if !report.halted {
                        first = Some(report);
                        break;
                    }
                }
                let first = first
                    .unwrap_or_else(|| panic!("{benchmark}/{mode}: no budget truncated the run"));
                let stats = first.checkpoints.expect("checkpointing was on");
                assert!(stats.saves > 0, "{benchmark}/{mode}: truncated leg never saved {stats:?}");
                assert!(!stats.resumed, "{benchmark}/{mode}: first leg resumed from stale state");

                let resumed =
                    LascRuntime::new(checkpointed(base.clone(), &dir, base.instruction_budget))
                        .unwrap()
                        .accelerate(&workload.program)
                        .unwrap();
                assert!(resumed.halted, "{benchmark}/{mode}: resumed run did not halt");
                let stats = resumed.checkpoints.expect("checkpointing was on");
                assert!(stats.resumed, "{benchmark}/{mode}: second leg started cold {stats:?}");
                assert_eq!(stats.rejected_files, 0, "{benchmark}/{mode}: {stats:?}");
                assert_eq!(
                    reference.final_state.as_bytes(),
                    resumed.final_state.as_bytes(),
                    "{benchmark}/{mode}: resume diverged from the uninterrupted run"
                );
                assert_eq!(
                    reference.total_instructions, resumed.total_instructions,
                    "{benchmark}/{mode}: resume changed the instruction accounting"
                );
                assert!(
                    workload.verify(&resumed.final_state),
                    "{benchmark}/{mode}: resumed run produced a wrong result"
                );
            }
        }
    }

    /// The `.cache` sibling is the one way a trajectory cache outlives its
    /// process. An inline resume loads exactly the entries held by the
    /// sibling of the checkpoint it restores. With every sibling deleted, or
    /// rewritten in the layout used before kind byte 7 was retired (a header
    /// frame ahead of the entries), it resumes from a cold cache, still
    /// bit-identical and with exact instruction accounting.
    #[test]
    fn resume_loads_the_cache_sibling_and_survives_its_loss() {
        use asc::core::cache::TrajectoryCache;
        use asc::core::checkpoint::{cache_path_for, load_newest, run_fingerprint};
        use asc::core::codec::{self, FrameKind};
        use asc::core::snapshot;

        let workload = build(Benchmark::Collatz, Scale::Tiny).unwrap();
        let base = config_for(Benchmark::Collatz, 0);
        let reference = accelerate(base.clone(), &workload);
        let converge = reference.converge_instructions;
        let budget = converge + reference.executed_instructions.saturating_sub(converge) / 2;
        let fingerprint = run_fingerprint(&base, &workload.program.initial_state().unwrap());
        let loaded = |path: &PathBuf| {
            let cache = TrajectoryCache::new(base.cache_capacity);
            snapshot::load(&cache, path).expect("the sibling is readable").loaded
        };

        for siblings in ["kept", "deleted", "pre-change"] {
            let dir = TempDir::new(&format!("sibling-{siblings}"));
            let first = accelerate(checkpointed(base.clone(), &dir, budget), &workload);
            assert!(!first.halted, "{siblings}: the truncated leg ran to completion");
            let newest = load_newest(&dir.0, fingerprint).checkpoint.expect("a checkpoint landed");
            let saved = loaded(&cache_path_for(&dir.0, newest.sequence));
            assert!(saved > 0, "{siblings}: the sibling held no entries");
            for file in std::fs::read_dir(&dir.0).unwrap() {
                let path = file.unwrap().path();
                if path.extension().is_none_or(|extension| extension != "cache") {
                    continue;
                }
                match siblings {
                    "deleted" => std::fs::remove_file(path).unwrap(),
                    "pre-change" => {
                        // The retired header frame: the saving cache's twelve
                        // counters (zeroed here), then the entry count.
                        let mut payload = vec![0u8; 96];
                        payload.extend_from_slice(&loaded(&path).to_le_bytes());
                        let mut bytes = codec::encode_frame(FrameKind::SnapshotEnd, &payload);
                        bytes[6] = 7;
                        bytes.extend(std::fs::read(&path).unwrap());
                        std::fs::write(&path, bytes).unwrap();
                        assert_eq!(loaded(&path), 0, "{path:?} loaded behind a retired header");
                    }
                    _ => {}
                }
            }
            let expected = if siblings == "kept" { saved } else { 0 };

            let resumed =
                accelerate(checkpointed(base.clone(), &dir, base.instruction_budget), &workload);
            assert_same_result(siblings, &reference, &resumed, &workload);
            assert_eq!(reference.total_instructions, resumed.total_instructions, "{siblings}");
            let stats = resumed.checkpoints.expect("checkpointing was on");
            assert!(stats.resumed, "{siblings}: the second leg started cold {stats:?}");
            assert_eq!(stats.resume_sequence, newest.sequence, "{siblings}: {stats:?}");
            assert_eq!(stats.cache_entries_loaded, expected, "{siblings}: {stats:?}");
        }
    }

    /// `runtime`'s module docs promise that inline (`workers = 0`) runs are
    /// fully reproducible, statistics included: training, planning,
    /// speculation and inserts all happen on the main thread in program
    /// order. So does the checkpoint tick in the occurrence prelude: it
    /// saves at exactly every `interval`-th occurrence — one cache lookup
    /// per occurrence makes the lookup count the occurrence count — and
    /// writes the same bytes every time.
    #[test]
    fn inline_runs_reproduce_statistics_and_checkpoint_cadence_exactly() {
        for benchmark in Benchmark::ALL {
            let workload = build(benchmark, scale_for(benchmark)).unwrap();
            let run = |tag: &str| {
                let dir = TempDir::new(&format!("{benchmark}-{tag}"));
                let base = config_for(benchmark, 0);
                let budget = base.instruction_budget;
                let mut config = checkpointed(base, &dir, budget);
                config.checkpoint.interval = 8;
                config.checkpoint.resume = false;
                accelerate(config, &workload)
            };
            let (first, second) = (run("repro-a"), run("repro-b"));
            assert_eq!(first.cache_stats, second.cache_stats, "{benchmark}: cache statistics");
            assert_eq!(first.economics, second.economics, "{benchmark}: economics");
            assert_eq!(first.tier, second.tier, "{benchmark}: tier statistics");
            assert_eq!(first.executed_instructions, second.executed_instructions, "{benchmark}");
            assert_eq!(
                first.fast_forwarded_instructions, second.fast_forwarded_instructions,
                "{benchmark}"
            );
            assert_eq!(first.checkpoints, second.checkpoints, "{benchmark}: checkpoint activity");
            // Inline speculation is where the statistics come from; a run
            // that speculated nothing would make the equalities vacuous.
            assert!(first.economics.is_some_and(|stats| stats.considered > 0), "{benchmark}");
            let stats = first.checkpoints.expect("checkpointing was on");
            assert_eq!(stats.save_failures, 0, "{benchmark}: {stats:?}");
            assert_eq!(stats.saves, first.cache_stats.queries / 8, "{benchmark}: {stats:?}");
            assert_eq!(stats.last_occurrence, stats.saves * 8, "{benchmark}: {stats:?}");
        }
    }
}

/// Fault-soak mode (`--features fault-inject`): the supervision layer's
/// claim is that *execution* failures — worker panics, runaway jobs,
/// corrupted cache entries, a dead planner — only ever cost speed. These
/// tests run every benchmark under an aggressive deterministic fault
/// campaign and assert the final states stay bit-identical to fault-free
/// inline execution, then drive the circuit breaker through a full
/// trip-and-recover cycle.
///
/// The CI soak job parameterizes the campaign with `ASC_FAULT_SEED`.
#[cfg(feature = "fault-inject")]
mod fault_soak {
    use super::*;
    use asc::core::config::BreakerConfig;
    use asc::core::FaultPlan;

    /// The campaign seed: `$ASC_FAULT_SEED`, or 1 when unset. A value that
    /// is not an integer fails the test rather than silently soaking seed 1.
    pub(super) fn fault_seed() -> u64 {
        match std::env::var("ASC_FAULT_SEED") {
            Err(_) => 1,
            Ok(seed) => seed
                .trim()
                .parse()
                .unwrap_or_else(|e| panic!("ASC_FAULT_SEED={seed:?} is not an integer: {e}")),
        }
    }

    /// ISSUE acceptance floor: ≥ 10% worker panics, ≥ 1% entry corruption,
    /// the planner killed once, plus stalls for the deadline to kill.
    fn aggressive_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            worker_panic_rate: 0.15,
            job_stall_rate: 0.05,
            entry_corruption_rate: 0.02,
            planner_death_after: Some(5),
            ..FaultPlan::default()
        }
    }

    pub(super) fn soak_config(benchmark: Benchmark, seed: u64) -> AscConfig {
        AscConfig {
            fault: Some(aggressive_plan(seed)),
            // Tight enough to bind under the 2M-instruction superstep
            // budget, loose enough that honest supersteps finish.
            job_deadline_instructions: 100_000,
            // Panicked workers retire; a 15% panic rate burns restarts
            // quickly, and losing slots mid-test is not what is under test.
            max_worker_restarts: 10_000,
            worker_restart_backoff_ms: 0,
            ..config_for(benchmark, 4)
        }
    }

    fn emit_health(scenario: &str, benchmark: Benchmark, seed: u64, report: &RunReport) {
        let labels = [("scenario", scenario.into()), ("seed", seed.into())];
        emit_report("fault_soak", benchmark, &labels, report);
    }

    /// Every benchmark, under the full fault campaign (panics, stalls,
    /// corruption, planner death at occurrence 5), must produce a final
    /// state bit-identical to fault-free inline execution — and the report
    /// must prove the campaign actually ran.
    #[test]
    fn faulted_runs_stay_bit_identical_on_every_benchmark() {
        let seed = fault_seed();
        for benchmark in Benchmark::ALL {
            let workload = build(benchmark, scale_for(benchmark)).unwrap();
            let reference = LascRuntime::new(config_for(benchmark, 0))
                .unwrap()
                .accelerate(&workload.program)
                .unwrap();
            let faulted = LascRuntime::new(soak_config(benchmark, seed))
                .unwrap()
                .accelerate(&workload.program)
                .unwrap();
            assert!(faulted.halted, "{benchmark}: faulted run did not halt");
            assert_eq!(
                reference.final_state.as_bytes(),
                faulted.final_state.as_bytes(),
                "{benchmark}: seed {seed} fault campaign changed the result"
            );
            assert!(
                workload.verify(&faulted.final_state),
                "{benchmark}: faulted run produced a wrong result"
            );
            let health = &faulted.health;
            assert!(
                health.injected_faults > 0,
                "{benchmark}: the fault campaign never fired ({health:?})"
            );
            assert_eq!(
                health.planner_panics, 1,
                "{benchmark}: planner death at occurrence 5 was not detected ({health:?})"
            );
            // The run survived the planner's death: whatever happened after
            // the fallback, no speculation job was lost unaccounted.
            if let Some(stats) = faulted.speculation {
                assert_eq!(
                    stats.dispatched,
                    stats.completed
                        + stats.faulted
                        + stats.exhausted
                        + stats.panicked
                        + stats.deadline_killed,
                    "{benchmark}: supervised pool lost jobs ({stats:?})"
                );
            }
            emit_health("campaign", benchmark, seed, &faulted);
        }
    }

    /// A burst of guaranteed panics must trip the breaker to inline
    /// execution; once the burst ends, the half-open probe must re-close it
    /// — and none of it may change the program's result.
    #[test]
    fn breaker_trips_on_a_fault_burst_and_recovers_after_it() {
        let seed = fault_seed();
        let workload = build(Benchmark::Collatz, Scale::Tiny).unwrap();
        let reference = LascRuntime::new(config_for(Benchmark::Collatz, 0))
            .unwrap()
            .accelerate(&workload.program)
            .unwrap();
        let mut config = AscConfig {
            // A short burst: every probe that lands inside it re-trips the
            // breaker with a doubled cooldown, so the burst must drain in a
            // few half-open cycles for recovery to land within the run.
            fault: Some(FaultPlan {
                seed,
                worker_panic_rate: 1.0,
                burst_jobs: 10,
                ..FaultPlan::default()
            }),
            max_worker_restarts: 10_000,
            worker_restart_backoff_ms: 0,
            breaker: BreakerConfig {
                enabled: true,
                window: 8,
                failure_threshold: 0.5,
                min_failures: 2,
                cooldown_occurrences: 4,
                probe_successes: 2,
            },
            ..config_for(Benchmark::Collatz, 4)
        };
        // Miss-driven dispatch keeps the success/failure stream coupled to
        // the main loop's occurrences, making trip *and* recovery land
        // within the run deterministically enough to assert on.
        config.planner.enabled = false;
        let report = LascRuntime::new(config).unwrap().accelerate(&workload.program).unwrap();
        assert!(report.halted);
        assert_eq!(
            reference.final_state.as_bytes(),
            report.final_state.as_bytes(),
            "breaker cycling changed the result"
        );
        let health = &report.health;
        assert!(health.worker_panics > 0, "burst never panicked a worker ({health:?})");
        assert!(health.breaker_trips >= 1, "breaker never tripped ({health:?})");
        assert!(
            health.breaker_open_occurrences > 0,
            "breaker tripped but no occurrence ran inline ({health:?})"
        );
        assert!(
            health.breaker_recoveries >= 1,
            "breaker never recovered after the burst ({health:?})"
        );
        emit_health("breaker", Benchmark::Collatz, seed, &report);
    }

    /// Liveness: an injected main-loop stall must be *detected* by the
    /// watchdog within its deadline and *escalated* — and because the stall
    /// hook releases the main thread once the escalation lands, the run
    /// must then complete with the exact fault-free result. This drives the
    /// full detect → escalate → recover path through a real `accelerate`
    /// run; the stage machinery itself is unit-tested in `supervisor`.
    #[test]
    fn watchdog_detects_an_injected_stall_and_the_run_still_completes() {
        let seed = fault_seed();
        let workload = build(Benchmark::Collatz, Scale::Tiny).unwrap();
        let reference = LascRuntime::new(config_for(Benchmark::Collatz, 0))
            .unwrap()
            .accelerate(&workload.program)
            .unwrap();

        let mut config = config_for(Benchmark::Collatz, 4);
        config.planner.enabled = false;
        config.fault =
            Some(FaultPlan { seed, stall_at_occurrence: Some(20), ..FaultPlan::default() });
        config.watchdog.enabled = true;
        config.watchdog.deadline_ms = 100;
        config.watchdog.poll_ms = 10;
        let report = LascRuntime::new(config).unwrap().accelerate(&workload.program).unwrap();

        assert!(report.halted, "the stalled run never recovered");
        assert_eq!(
            reference.final_state.as_bytes(),
            report.final_state.as_bytes(),
            "watchdog escalation changed the result"
        );
        assert!(workload.verify(&report.final_state));
        let health = &report.health;
        assert!(health.watchdog_stalls >= 1, "stall was never detected ({health:?})");
        assert!(health.watchdog_escalations >= 1, "stall was never escalated ({health:?})");
        emit_health("watchdog", Benchmark::Collatz, seed, &report);
    }

    /// The two degradations that change the run's dispatch mode happen
    /// inside the occurrence loop, so the caller gets one report, in the
    /// miss-driven shape, with exact instruction accounting. The injected
    /// stall drives both: it parks every occurrence from its ordinal on until
    /// the watchdog climbs one more stage, so the run reaches stage 2 two
    /// watchdog deadlines after the stall begins.
    ///
    /// * *A planner that dies mid-run* is replaced by miss-driven dispatch
    ///   on a fresh pool, its death counted once. The stall parks the main
    ///   thread right after its first reports, so the planner thread has
    ///   certainly processed one (and died of it) before the next occurrence
    ///   checks on it — without the stall, whether the death is noticed
    ///   mid-run or only at the final join is up to the scheduler. Stage 2
    ///   then tears the replacement pool down, and its counters are the
    ///   ones reported.
    /// * *The watchdog's stage-2 escalation* sheds the machinery — a
    ///   miss-driven pool is torn down and its counters kept for the report,
    ///   a planner is joined and forgotten — and the run finishes inline.
    ///   The stall starts at the first occurrence, and the breaker stage 1
    ///   force-opens keeps the second from dispatching anything before the
    ///   teardown.
    #[test]
    fn degrade_handoffs_happen_inside_the_loop_and_return_one_report() {
        let workload = build(Benchmark::Collatz, Scale::Tiny).unwrap();
        let reference = accelerate(config_for(Benchmark::Collatz, 0), &workload);

        for (label, planner, planner_dies) in [
            ("dead planner", true, true),
            ("stage 2, miss-driven pool", false, false),
            ("stage 2, planner", true, false),
        ] {
            let mut config = config_for(Benchmark::Collatz, 4);
            config.planner.enabled = planner;
            config.watchdog.enabled = true;
            config.watchdog.deadline_ms = 100;
            config.watchdog.poll_ms = 10;
            config.fault = Some(FaultPlan {
                seed: fault_seed(),
                planner_death_after: planner_dies.then_some(1),
                stall_at_occurrence: Some(if planner_dies { 3 } else { 1 }),
                ..FaultPlan::default()
            });
            if !planner_dies {
                // Stage 1 force-opens the breaker; a short cooldown lets
                // inline speculation resume within the run.
                config.breaker.cooldown_occurrences = 4;
                config.breaker.probe_successes = 1;
            }
            let report = accelerate(config, &workload);

            assert_same_result(label, &reference, &report, &workload);
            assert_eq!(reference.total_instructions, report.total_instructions, "{label}");
            let health = &report.health;
            assert_eq!(health.planner_panics, u64::from(planner_dies), "{label}: {health:?}");
            assert_eq!(health.watchdog_escalations, 2, "{label}: {health:?}");
            assert!(report.planner.is_none(), "{label}: planner statistics outlived the planner");
            assert!(report.economics.is_some(), "{label}: no miss-driven economics reported");
            if planner_dies {
                assert!(report.speculation.is_some(), "{label}: torn-down pool not reported");
                continue;
            }
            match report.speculation {
                Some(pool) => {
                    assert!(!planner, "{label}: a joined planner's pool was reported ({pool:?})");
                    assert_eq!(
                        pool.dispatched, 0,
                        "{label}: pool outlived its teardown ({pool:?})"
                    );
                }
                None => assert!(planner, "{label}: the torn-down pool's counters were dropped"),
            }
            assert!(
                report.cache_stats.inserted > 0,
                "{label}: nothing speculated inline after the teardown ({:?})",
                report.cache_stats
            );
        }
    }
}
