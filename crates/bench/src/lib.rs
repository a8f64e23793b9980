//! # asc-bench — experiment harnesses reproducing the paper's evaluation
//!
//! One binary per table/figure of the paper (§5), plus Criterion
//! micro-benchmarks for the §5.3 implementation measurements:
//!
//! | target | reproduces |
//! |---|---|
//! | `table1` | Table 1 — recognizer statistics per benchmark |
//! | `table2` | Table 2 — prediction error rates and cache miss rates |
//! | `fig3`   | Figure 3 — ensemble weight matrices |
//! | `fig4`   | Figure 4 — Ising scaling (32-core server + Blue Gene/P) |
//! | `fig5`   | Figure 5 — 2mm scaling (32-core server) |
//! | `fig6`   | Figure 6 — Collatz scaling + single-core memoization |
//! | `cargo bench` | §5.3 — simulation rate, dependency-tracking overhead, cache lookup, predictor update, rollout latency |
//!
//! Each of these binaries accepts an optional scale argument (`tiny`,
//! `small`, `medium`, `large`; default `medium`) controlling the workload
//! size.
//!
//! CI's side of the evaluation is `report_summary <table> <file>`: it
//! renders the run-report lines the test suites and soak drivers append to
//! `$ASC_REPORT_OUT` (see `asc_core::report`) as the `economics`, `tier`,
//! `health` and `soak` tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use asc_core::cluster::{self, PlatformProfile, ScalingMode};
use asc_core::config::AscConfig;
use asc_core::runtime::{LascRuntime, RunReport};
use asc_workloads::registry::{build, Benchmark, Scale};

/// Parses the scale argument from the command line (defaults to `medium`,
/// which leaves recognition a small fraction of total work as in the paper;
/// use `small`/`tiny` for quick runs).
pub fn scale_from_args() -> Scale {
    match std::env::args().nth(1).unwrap_or_default().to_lowercase().as_str() {
        "tiny" => Scale::Tiny,
        "small" => Scale::Small,
        "large" => Scale::Large,
        _ => Scale::Medium,
    }
}

/// The runtime configuration used by the experiment harnesses at each scale.
pub fn config_for(scale: Scale) -> AscConfig {
    match scale {
        Scale::Tiny => {
            AscConfig { explore_instructions: 6_000, min_superstep: 50, ..AscConfig::default() }
        }
        Scale::Small => {
            AscConfig { explore_instructions: 80_000, min_superstep: 200, ..AscConfig::default() }
        }
        Scale::Medium => {
            AscConfig { explore_instructions: 250_000, min_superstep: 500, ..AscConfig::default() }
        }
        Scale::Large => AscConfig {
            explore_instructions: 500_000,
            min_superstep: 1_000,
            ..AscConfig::default()
        },
    }
}

/// The configuration of the `accelerate_collatz_small_*` scaling benches and
/// the `planner_comparison` example: the paper's worker-pool regime, with
/// supersteps long enough (≥ `min_superstep` instructions) that executing
/// speculation dominates predicting it. Kept here so the bench and the
/// example can never drift apart.
pub fn small_collatz_config(workers: usize, planner: bool) -> AscConfig {
    let mut config = AscConfig {
        explore_instructions: 20_000,
        min_superstep: 5_000,
        rollout_depth: 8,
        workers,
        ..AscConfig::default()
    };
    config.planner.enabled = planner;
    config
}

/// Runs the measured (instrumented) execution of one benchmark.
///
/// # Panics
/// Panics when the workload cannot be built or the runtime fails — the
/// harnesses are top-level binaries where aborting with a message is the
/// desired behaviour.
pub fn measure(benchmark: Benchmark, scale: Scale) -> (RunReport, String) {
    let workload = build(benchmark, scale).expect("workload must build");
    let runtime = LascRuntime::new(config_for(scale)).expect("config must be valid");
    let report = runtime.measure(&workload.program).expect("measured run must succeed");
    assert!(
        workload.verify(&report.final_state),
        "{benchmark}: measured run produced a wrong result"
    );
    (report, workload.description.clone())
}

/// Formats a row of a fixed-width text table.
pub fn row(label: &str, cells: &[String]) -> String {
    let mut line = format!("{label:<28}");
    for cell in cells {
        line.push_str(&format!(" {cell:>14}"));
    }
    line
}

/// Formats a floating-point number in scientific notation like the paper.
pub fn sci(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else {
        format!("{value:.1e}")
    }
}

/// Prints a scaling curve as a two-column series (cores, scaling).
pub fn print_curve(
    title: &str,
    report: &RunReport,
    profile: &PlatformProfile,
    mode: ScalingMode,
    cores: &[usize],
) {
    println!("# {title}");
    println!("{:>8} {:>12} {:>10}", "cores", "scaling", "hit_rate");
    for point in cluster::scaling_curve(report, profile, mode, cores) {
        println!("{:>8} {:>12.2} {:>10.3}", point.cores, point.scaling, point.hit_rate);
    }
    println!();
}

/// Extracts the string value of `"key":"…"` from a flat JSON object line
/// (the JSON-lines records the summary and gate bins read), undoing the
/// escapes `asc_core::report::JsonLine` writes except `\u`.
pub fn string_field(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = line.find(&marker)? + marker.len();
    let mut value = String::new();
    let mut chars = line[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(value),
            '\\' => value.push(match chars.next()? {
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                escaped => escaped,
            }),
            other => value.push(other),
        }
    }
    None
}

/// Extracts the numeric value of `"key":<number>` from a flat JSON object
/// line.
pub fn number_field(line: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the boolean value of `"key":true|false` from a flat JSON object
/// line.
pub fn bool_field(line: &str, key: &str) -> Option<bool> {
    let marker = format!("\"{key}\":");
    let rest = &line[line.find(&marker)? + marker.len()..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Appends a markdown table to the file `$GITHUB_STEP_SUMMARY` names, when
/// running under GitHub Actions. Failures only warn: the summary is
/// cosmetic, the bin's exit code is the verdict.
pub fn append_step_summary(markdown: &str) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else { return };
    if path.is_empty() {
        return;
    }
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut file| std::io::Write::write_all(&mut file, markdown.as_bytes()));
    if let Err(error) = written {
        eprintln!("warning: could not append to GITHUB_STEP_SUMMARY {path}: {error}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_valid_for_every_scale() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Medium, Scale::Large] {
            config_for(scale).validate().unwrap();
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(sci(0.0), "0");
        assert!(sci(23_000_000.0).contains('e'));
        let line = row("Total time", &["1".to_string(), "2".to_string()]);
        assert!(line.contains("Total time"));
        assert!(line.contains('2'));
    }

    #[test]
    fn tiny_measure_runs_end_to_end() {
        let (report, _) = measure(Benchmark::Collatz, Scale::Tiny);
        assert!(report.halted);
        assert!(!report.supersteps.is_empty());
    }

    /// The golden key set of `RunReport::write_json`: labels, the scalar
    /// accounting, then every public counter of all seven stats structs
    /// exactly once under `<section>.<field>`, each reading back through the
    /// extractors as the struct's own value.
    #[test]
    fn run_report_lines_carry_every_stats_field_once_under_its_dotted_key() {
        use asc_core::{CheckpointStats, PlannerStats, PoolStats};

        let workload = build(Benchmark::Collatz, Scale::Tiny).unwrap();
        let runtime = LascRuntime::new(config_for(Scale::Tiny)).unwrap();
        let mut report = runtime.accelerate(&workload.program).unwrap();
        assert!(report.cache_stats.hits > 0 && report.tier.tier1_instructions > 0);
        let weird = "we\"ird\\label, \"seed\":9";
        let write = |report: &RunReport| {
            let mut out = Vec::new();
            report.write_json(&mut out, &[("test", weird.into()), ("seed", 7u64.into())]).unwrap();
            String::from_utf8(out).unwrap()
        };

        // An inline run has no pool, planner or checkpoints: those sections
        // write no keys at all.
        let inline = write(&report);
        for absent in ["\"speculation.", "\"planner.", "\"checkpoints."] {
            assert!(!inline.contains(absent), "{absent} in {inline}");
        }

        // Stand-ins for them so all seven structs are covered, and two
        // non-finite floats.
        let pool = PoolStats { dispatched: 101, panicked_joins: 110, ..Default::default() };
        let planner = PlannerStats { occurrences: 201, insert_wakeups: 208, ..Default::default() };
        let checkpoints = CheckpointStats { saves: 401, resumed: true, ..Default::default() };
        (report.speculation, report.planner) = (Some(pool), Some(planner));
        report.checkpoints = Some(checkpoints);
        (report.rip.accuracy, report.rip.score) = (f64::INFINITY, f64::NAN);
        let line = write(&report);
        assert!(line.ends_with("}\n") && line.matches('\n').count() == 1, "{line}");

        macro_rules! section {
            ($prefix:literal, $stats:expr; $($field:ident),*) => {
                vec![$((concat!($prefix, stringify!($field)), $stats.$field as u64 as f64)),*]
            };
        }
        let (cache, health, tier) = (report.cache_stats, report.health, report.tier);
        let economics = report.economics.unwrap();
        let numbers: Vec<(&str, f64)> = [
            vec![
                ("seed", 7.0),
                ("rip.mean_superstep", report.rip.mean_superstep),
                ("economics.expected_value", economics.expected_value),
                ("economics.suppressed_cost", economics.suppressed_cost),
                ("economics.realized_hit_rate", economics.realized_hit_rate),
            ],
            section!("rip.", report.rip; ip, stride),
            section!("", report; unique_ips, state_bits, excited_bits, converge_instructions,
                total_instructions, executed_instructions, fast_forwarded_instructions),
            section!("cache.", cache; queries, hits, inserted, duplicates, replaced, evicted,
                junk_rejected, groups, probes, collision_rejects, checksum_rejects,
                instructions_served),
            section!("speculation.", pool; dispatched, dropped, deduplicated, completed, faulted,
                exhausted, inserted, panicked, deadline_killed, panicked_joins),
            section!("planner.", planner; occurrences, dropped, replans, extensions, confirmed,
                invalidated, dispatched, insert_wakeups),
            section!("health.", health; worker_panics, spawn_failures, panicked_joins,
                deadline_kills, planner_panics, breaker_trips, breaker_recoveries,
                breaker_open_occurrences, injected_faults, watchdog_stalls, watchdog_escalations),
            section!("economics.", economics; considered, dispatched, suppressed, probes, lookups,
                hits, last_horizon),
            section!("checkpoints.", checkpoints; saves, save_failures, last_occurrence,
                bytes_written, resume_sequence, rejected_files),
            section!("tier.", tier; blocks_compiled, blocks_invalidated, fused_ops,
                tier1_instructions, tier0_instructions),
        ]
        .concat();
        for &(key, value) in &numbers {
            assert_eq!(number_field(&line, key), Some(value), "{key} in {line}");
        }
        let flags = [("halted", report.halted), ("checkpoints.resumed", true)];
        for (key, value) in flags {
            assert_eq!(bool_field(&line, key), Some(value), "{key} in {line}");
        }
        // The awkward label survives the round trip — and its embedded
        // `"seed":9` is not mistaken for the real key; non-finite floats
        // are `null`, which is JSON, where `NaN` and `inf` are not.
        assert_eq!(string_field(&line, "test").as_deref(), Some(weird));
        assert!(line.contains("\"rip.accuracy\":null,\"rip.score\":null,"), "{line}");

        // Exactly once, and nothing else: no string here contains `,"`, so
        // that sequence counts the fields.
        let keys = numbers.iter().map(|&(key, _)| key).chain(flags.map(|(key, _)| key));
        let keys: Vec<&str> = keys.chain(["test", "rip.accuracy", "rip.score"]).collect();
        for key in &keys {
            assert_eq!(line.matches(&format!("\"{key}\":")).count(), 1, "{key} in {line}");
        }
        assert_eq!(line.matches(",\"").count() + 1, keys.len(), "{line}");
    }

    #[test]
    fn field_extractors_handle_escapes_and_malformed_lines() {
        let line = r#"{"id":"we\"ird\\name","min_ns":2.5e8,"seed":-3,"mode":"inline"}"#;
        assert_eq!(string_field(line, "id").as_deref(), Some("we\"ird\\name"));
        assert_eq!(string_field(line, "mode").as_deref(), Some("inline"));
        assert_eq!(number_field(line, "min_ns"), Some(2.5e8));
        assert_eq!(number_field(line, "seed"), Some(-3.0));
        // Absent keys, a key of the wrong type, an unterminated string, a
        // dangling escape and an empty number are all `None`, never a panic.
        assert_eq!(string_field(line, "absent"), None);
        assert_eq!(number_field(line, "absent"), None);
        assert_eq!(string_field(line, "min_ns"), None);
        assert_eq!(number_field(line, "mode"), None);
        assert_eq!(string_field(r#"{"id":"cut off"#, "id"), None);
        assert_eq!(string_field(r#"{"id":"dangling\"#, "id"), None);
        assert_eq!(number_field(r#"{"min_ns":}"#, "min_ns"), None);
        assert_eq!(number_field(r#"{"min_ns":1.2.3}"#, "min_ns"), None);
        assert_eq!(bool_field(r#"{"ok":true,"bad":false}"#, "bad"), Some(false));
        assert_eq!(bool_field(r#"{"ok":true}"#, "ok"), Some(true));
        assert_eq!(bool_field(line, "seed"), None);
        assert_eq!(bool_field(line, "absent"), None);
    }
}
