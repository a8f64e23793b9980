//! CI kill–resume summary: renders the JSON-lines scenario records the
//! `kill_resume_soak` driver emits via `--out`/`$ASC_CKPT_OUT` (one line
//! per crash/resume, damage-sweep and graceful-shutdown scenario) as a
//! table — to stdout, and as GitHub-flavoured markdown appended to
//! `$GITHUB_STEP_SUMMARY` next to the economics and tier tables.
//!
//! ```sh
//! cargo run --release -p asc-bench --features fault-inject \
//!     --bin kill_resume_soak -- --out CKPT_soak.json
//! cargo run -p asc-bench --bin ckpt_summary -- CKPT_soak.json
//! ```
//!
//! The load-bearing column is *bit-identical*: every scenario must report
//! `true`, and the parser treats any `false` — or an unreadable or empty
//! artifact — as exit code 2 so a silently-missing soak fails the CI step.

use asc_bench::{append_step_summary, number_field, string_field};
use std::process::ExitCode;

/// One parsed soak-scenario emission.
#[derive(Debug, Clone)]
struct SoakRow {
    scenario: String,
    benchmark: String,
    mode: String,
    seed: Option<u64>,
    kill_at: Option<u64>,
    detail: String,
    bit_identical: bool,
}

/// Extracts the boolean value of `"key":true|false` from a flat JSON
/// object line.
fn bool_field(line: &str, key: &str) -> Option<bool> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

fn parse_rows(text: &str, path: &str) -> Result<Vec<SoakRow>, String> {
    let mut rows = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let scenario = string_field(line, "scenario")
            .ok_or_else(|| format!("{path}:{}: no \"scenario\" field in {line:?}", index + 1))?;
        let detail = match scenario.as_str() {
            "damage-sweep" => string_field(line, "case").unwrap_or_default(),
            "graceful-shutdown" => number_field(line, "flushed_saves")
                .map(|saves| format!("{saves} flushed"))
                .unwrap_or_default(),
            _ => String::new(),
        };
        rows.push(SoakRow {
            scenario,
            benchmark: string_field(line, "benchmark").unwrap_or_else(|| "-".into()),
            mode: string_field(line, "mode").unwrap_or_else(|| "-".into()),
            seed: number_field(line, "seed").map(|v| v as u64),
            kill_at: number_field(line, "kill_at").map(|v| v as u64),
            detail,
            bit_identical: bool_field(line, "bit_identical")
                .ok_or_else(|| format!("{path}:{}: no \"bit_identical\" field", index + 1))?,
        });
    }
    if rows.is_empty() {
        return Err(format!("{path}: no soak records found"));
    }
    Ok(rows)
}

fn optional(value: Option<u64>) -> String {
    value.map_or_else(|| "-".into(), |v| v.to_string())
}

/// The soak table as GitHub-flavoured markdown for `$GITHUB_STEP_SUMMARY`.
fn summary_markdown(rows: &[SoakRow]) -> String {
    let identical = rows.iter().filter(|r| r.bit_identical).count();
    let mut out = format!(
        "### Kill–resume soak ({identical}/{} scenarios bit-identical)\n\n\
         | scenario | benchmark | mode | seed | kill at | detail | bit-identical |\n\
         |---|---|---|---:|---:|---|---|\n",
        rows.len(),
    );
    for row in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} |\n",
            row.scenario,
            row.benchmark,
            row.mode,
            optional(row.seed),
            optional(row.kill_at),
            if row.detail.is_empty() { "-" } else { &row.detail },
            if row.bit_identical { "yes" } else { "**NO**" },
        ));
    }
    out
}

fn run(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read soak records {path}: {e}"))?;
    let rows = parse_rows(&text, path)?;
    println!(
        "{:<18} {:<10} {:<8} {:>5} {:>8} {:<14} {:>13}",
        "scenario", "benchmark", "mode", "seed", "kill-at", "detail", "bit-identical"
    );
    for row in &rows {
        println!(
            "{:<18} {:<10} {:<8} {:>5} {:>8} {:<14} {:>13}",
            row.scenario,
            row.benchmark,
            row.mode,
            optional(row.seed),
            optional(row.kill_at),
            if row.detail.is_empty() { "-" } else { &row.detail },
            if row.bit_identical { "yes" } else { "NO" },
        );
    }
    append_step_summary(&summary_markdown(&rows));
    let broken = rows.iter().filter(|r| !r.bit_identical).count();
    if broken > 0 {
        return Err(format!("{broken} scenario(s) were not bit-identical"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: ckpt_summary <CKPT_soak.json>");
        return ExitCode::from(2);
    };
    match run(path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("kill-resume summary error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "{\"scenario\":\"kill-resume\",\"benchmark\":\"Collatz\",\
         \"mode\":\"workers\",\"seed\":3,\"kill_at\":107,\"resumed\":true,\
         \"bit_identical\":true}";
    const DAMAGE: &str =
        "{\"scenario\":\"damage-sweep\",\"case\":\"older-intact\",\"bit_identical\":true}";
    const GRACEFUL: &str =
        "{\"scenario\":\"graceful-shutdown\",\"flushed_saves\":1,\"bit_identical\":true}";

    #[test]
    fn parses_emitted_records() {
        let text = format!("{LINE}\n{DAMAGE}\n{GRACEFUL}\n");
        let rows = parse_rows(&text, "test").unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].scenario, "kill-resume");
        assert_eq!(rows[0].benchmark, "Collatz");
        assert_eq!(rows[0].mode, "workers");
        assert_eq!(rows[0].seed, Some(3));
        assert_eq!(rows[0].kill_at, Some(107));
        assert!(rows[0].bit_identical);
        assert_eq!(rows[1].detail, "older-intact");
        assert_eq!(rows[2].detail, "1 flushed");
    }

    #[test]
    fn empty_or_malformed_input_is_an_error() {
        assert!(parse_rows("", "test").is_err());
        assert!(parse_rows("{\"benchmark\":\"Collatz\"}", "test").is_err());
        assert!(parse_rows("{\"scenario\":\"kill-resume\"}", "test").is_err());
    }

    #[test]
    fn a_divergent_scenario_is_flagged_in_markdown() {
        let bad = LINE.replace("\"bit_identical\":true", "\"bit_identical\":false");
        let rows = parse_rows(&format!("{LINE}\n{bad}\n"), "test").unwrap();
        assert!(!rows[1].bit_identical);
        let markdown = summary_markdown(&rows);
        assert!(markdown.contains("1/2 scenarios bit-identical"));
        assert!(markdown.contains("**NO**"));
    }
}
