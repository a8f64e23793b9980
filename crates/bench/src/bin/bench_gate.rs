//! CI bench-regression gate: compares a fresh Criterion JSON-lines report
//! (see the `CRITERION_JSON` support in the in-repo `criterion` shim)
//! against a committed baseline and fails when any gated benchmark's
//! fastest-iteration time regressed beyond the tolerance.
//!
//! ```sh
//! CRITERION_JSON=BENCH_planner.json cargo bench -p asc-bench --bench scaling
//! cargo run -p asc-bench --bin bench_gate -- BENCH_planner.json bench/baseline.json
//! ```
//!
//! Only benchmarks present in the *baseline* are gated; the current report
//! may contain more. A gated benchmark missing from the current report is an
//! error (a renamed or deleted bench must not silently pass the gate). No
//! dependencies: the JSON-lines records are flat objects with known keys,
//! parsed by hand.
//!
//! **Caveat — the baseline is machine-relative.** `bench/baseline.json`
//! records absolute times from whatever host committed it, so the gate is
//! only meaningful on comparable hardware: on a faster CI runner a real
//! regression can hide inside the hardware delta, and on a slower one the
//! gate fails with no code change. When the runner hardware class changes,
//! re-record the baseline there (run the `CRITERION_JSON` command above on
//! the runner and commit the result) rather than widening the tolerance.
//! The CI gate step blocks the job; the refresh procedure is documented
//! next to that step in `.github/workflows/ci.yml`.

use asc_bench::{append_step_summary, number_field, string_field};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Default allowed slowdown before the gate fails: current ≤ baseline × 1.2.
const DEFAULT_TOLERANCE: f64 = 0.20;

/// One parsed benchmark record. The gate compares `min_ns` — the fastest
/// observed iteration — because it is by far the most stable statistic on
/// shared CI runners: medians absorb scheduler noise in the slow direction
/// only, so two identical builds can differ by 20% in median while their
/// minima agree within a few percent.
#[derive(Debug, Clone, Copy)]
struct Record {
    min_ns: f64,
}

/// Parses a JSON-lines bench report into id → record. An id that appears
/// twice is an error: silently keeping either record would let a stale line
/// in the baseline (or a bench registered twice) decide what the gate
/// compares against.
fn parse_report(text: &str, path: &str) -> Result<BTreeMap<String, Record>, String> {
    let mut records = BTreeMap::new();
    for (index, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let id = string_field(line, "id")
            .ok_or_else(|| format!("{path}:{}: no \"id\" field in {line:?}", index + 1))?;
        let min_ns = number_field(line, "min_ns")
            .ok_or_else(|| format!("{path}:{}: no \"min_ns\" field in {line:?}", index + 1))?;
        if !(min_ns.is_finite() && min_ns > 0.0) {
            return Err(format!("{path}:{}: non-positive minimum for {id}", index + 1));
        }
        if records.insert(id.clone(), Record { min_ns }).is_some() {
            return Err(format!("{path}:{}: duplicate benchmark id {id:?}", index + 1));
        }
    }
    if records.is_empty() {
        return Err(format!("{path}: no benchmark records found"));
    }
    Ok(records)
}

/// Formats a duration with a unit scaled to its magnitude: the gated
/// benchmarks span ~50ns (cache probes) to ~200ms (accelerate runs), and a
/// fixed-millisecond rendering would print every sub-millisecond benchmark
/// as "0.0ms".
fn format_time(nanos: f64) -> String {
    if nanos >= 1e9 {
        format!("{:.2}s", nanos / 1e9)
    } else if nanos >= 1e6 {
        format!("{:.1}ms", nanos / 1e6)
    } else if nanos >= 1e3 {
        format!("{:.1}µs", nanos / 1e3)
    } else {
        format!("{nanos:.0}ns")
    }
}

/// One gated benchmark's comparison: baseline time against the current
/// report (`None`: the benchmark vanished from the current report, which
/// fails the gate).
struct GateRow {
    id: String,
    baseline_ns: f64,
    current_ns: Option<f64>,
}

impl GateRow {
    fn ratio(&self) -> Option<f64> {
        self.current_ns.map(|now| now / self.baseline_ns)
    }

    /// A missing benchmark or one beyond tolerance fails the gate.
    fn failed(&self, tolerance: f64) -> bool {
        self.ratio().is_none_or(|ratio| ratio > 1.0 + tolerance)
    }

    fn verdict(&self, tolerance: f64) -> &'static str {
        match self.ratio() {
            None => "MISSING from current report",
            Some(_) if self.failed(tolerance) => "REGRESSED",
            Some(_) => "ok",
        }
    }
}

/// Compares every baseline benchmark against the current report.
fn compare(
    baseline: &BTreeMap<String, Record>,
    current: &BTreeMap<String, Record>,
) -> Vec<GateRow> {
    baseline
        .iter()
        .map(|(id, base)| GateRow {
            id: id.clone(),
            baseline_ns: base.min_ns,
            current_ns: current.get(id).map(|now| now.min_ns),
        })
        .collect()
}

/// The per-benchmark delta table as GitHub-flavoured markdown, for
/// `$GITHUB_STEP_SUMMARY`: a failing gate names the offending benchmark in
/// the job summary instead of a bare pass/fail in the log.
fn summary_markdown(rows: &[GateRow], tolerance: f64) -> String {
    let failed = rows.iter().any(|row| row.failed(tolerance));
    let mut out = format!(
        "### Bench gate: {} (tolerance +{:.0}%)\n\n\
         | benchmark | baseline | current | ratio | verdict |\n\
         |---|---:|---:|---:|---|\n",
        if failed { "FAILED" } else { "passed" },
        tolerance * 100.0
    );
    for row in rows {
        let (current, ratio) = match (row.current_ns, row.ratio()) {
            (Some(now), Some(ratio)) => (format_time(now), format!("{ratio:.2}x")),
            _ => ("-".to_string(), "-".to_string()),
        };
        let verdict = row.verdict(tolerance);
        let emphasis = if row.failed(tolerance) { "**" } else { "" };
        out.push_str(&format!(
            "| {} | {} | {current} | {ratio} | {emphasis}{verdict}{emphasis} |\n",
            row.id,
            format_time(row.baseline_ns),
        ));
    }
    out
}

fn run(current_path: &str, baseline_path: &str, tolerance: f64) -> Result<bool, String> {
    let current_text = std::fs::read_to_string(current_path)
        .map_err(|e| format!("cannot read current report {current_path}: {e}"))?;
    let baseline_text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let current = parse_report(&current_text, current_path)?;
    let baseline = parse_report(&baseline_text, baseline_path)?;

    let rows = compare(&baseline, &current);
    println!(
        "{:<45} {:>10} {:>10} {:>8}  verdict (tolerance +{:.0}%)",
        "benchmark",
        "baseline",
        "current",
        "ratio",
        tolerance * 100.0
    );
    for row in &rows {
        match (row.current_ns, row.ratio()) {
            (Some(now), Some(ratio)) => println!(
                "{:<45} {:>10} {:>10} {:>7.2}x  {}",
                row.id,
                format_time(row.baseline_ns),
                format_time(now),
                ratio,
                row.verdict(tolerance)
            ),
            _ => println!(
                "{:<45} {:>10} {:>10} {:>8}  {}",
                row.id,
                "-",
                "-",
                "-",
                row.verdict(tolerance)
            ),
        }
    }
    append_step_summary(&summary_markdown(&rows, tolerance));
    Ok(rows.iter().any(|row| row.failed(tolerance)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut paths = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--tolerance" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v >= 0.0 => tolerance = v,
                _ => {
                    eprintln!("--tolerance needs a non-negative number (e.g. 0.2)");
                    return ExitCode::from(2);
                }
            },
            other => paths.push(other.to_string()),
        }
    }
    let [current, baseline] = paths.as_slice() else {
        eprintln!("usage: bench_gate [--tolerance 0.2] <current.json> <baseline.json>");
        return ExitCode::from(2);
    };
    match run(current, baseline, tolerance) {
        Ok(false) => {
            println!("bench gate passed");
            ExitCode::SUCCESS
        }
        Ok(true) => {
            eprintln!("bench gate FAILED: regression beyond {:.0}%", tolerance * 100.0);
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("bench gate error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_json_lines() {
        let text = concat!(
            "{\"id\":\"a/b\",\"median_ns\":1500000,\"min_ns\":1,\"max_ns\":2,\"samples\":10}\n",
            "{\"id\":\"c\",\"median_ns\":2.5e8,\"min_ns\":1,\"max_ns\":2,\"samples\":10}\n",
        );
        let report = parse_report(text, "test").unwrap();
        assert_eq!(report.len(), 2);
        assert!((report["a/b"].min_ns - 1.0).abs() < 1e-9);
        assert!((report["c"].min_ns - 1.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_ids_are_a_hard_error() {
        let text = concat!(
            "{\"id\":\"a\",\"min_ns\":100}\n",
            "{\"id\":\"b\",\"min_ns\":100}\n",
            "{\"id\":\"a\",\"min_ns\":200}\n",
        );
        let error = parse_report(text, "base.json").unwrap_err();
        assert!(error.contains("base.json:3"), "{error}");
        assert!(error.contains("duplicate benchmark id \"a\""), "{error}");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_report("{\"min_ns\":1}\n", "test").is_err());
        assert!(parse_report("{\"id\":\"a\",\"min_ns\":-4}\n", "test").is_err());
        assert!(parse_report("", "test").is_err());
    }

    #[test]
    fn escaped_ids_round_trip() {
        let text = "{\"id\":\"we\\\"ird\\\\name\",\"min_ns\":5}\n";
        let report = parse_report(text, "test").unwrap();
        assert!(report.contains_key("we\"ird\\name"));
    }

    #[test]
    fn gate_logic_spots_regressions() {
        let base = Record { min_ns: 100.0 };
        // 19% slower passes at 20% tolerance, 21% fails.
        assert!(119.0 / base.min_ns <= 1.2);
        assert!(121.0 / base.min_ns > 1.2);
    }

    #[test]
    fn rows_compare_baseline_against_current() {
        let baseline = parse_report(
            "{\"id\":\"a\",\"min_ns\":100}\n{\"id\":\"b\",\"min_ns\":100}\n{\"id\":\"gone\",\"min_ns\":100}\n",
            "base",
        )
        .unwrap();
        let current = parse_report(
            "{\"id\":\"a\",\"min_ns\":110}\n{\"id\":\"b\",\"min_ns\":150}\n{\"id\":\"extra\",\"min_ns\":5}\n",
            "cur",
        )
        .unwrap();
        let rows = compare(&baseline, &current);
        // Only baseline benchmarks are gated; extras in the current report
        // are ignored.
        assert_eq!(rows.len(), 3);
        let by_id = |id: &str| rows.iter().find(|r| r.id == id).unwrap();
        assert!(!by_id("a").failed(0.2));
        assert!(by_id("b").failed(0.2), "50% regression must fail");
        assert!(by_id("gone").failed(0.2), "a vanished benchmark must fail");
        assert_eq!(by_id("gone").verdict(0.2), "MISSING from current report");
    }

    #[test]
    fn step_summary_markdown_names_the_offender() {
        let baseline = parse_report(
            "{\"id\":\"fast\",\"min_ns\":100}\n{\"id\":\"slow\",\"min_ns\":100}\n",
            "b",
        )
        .unwrap();
        let current = parse_report(
            "{\"id\":\"fast\",\"min_ns\":90}\n{\"id\":\"slow\",\"min_ns\":200}\n",
            "c",
        )
        .unwrap();
        let markdown = summary_markdown(&compare(&baseline, &current), 0.2);
        assert!(markdown.contains("Bench gate: FAILED"));
        assert!(markdown.contains("| fast | 100ns | 90ns | 0.90x | ok |"));
        assert!(markdown.contains("| slow | 100ns | 200ns | 2.00x | **REGRESSED** |"));

        let healthy = summary_markdown(
            &compare(
                &baseline,
                &parse_report(
                    "{\"id\":\"fast\",\"min_ns\":90}\n{\"id\":\"slow\",\"min_ns\":100}\n",
                    "c",
                )
                .unwrap(),
            ),
            0.2,
        );
        assert!(healthy.contains("Bench gate: passed"));
        assert!(!healthy.contains("REGRESSED"));
    }
}
