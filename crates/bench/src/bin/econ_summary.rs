//! CI dispatch-economics summary: renders the JSON-lines `EconomicsStats`
//! records the determinism suite emits via `ASC_ECON_OUT` (one line per
//! benchmark × execution mode) as a table — to stdout, and as
//! GitHub-flavoured markdown appended to `$GITHUB_STEP_SUMMARY` next to the
//! bench-delta table.
//!
//! ```sh
//! ASC_ECON_OUT=ECON_stats.json cargo test -q --test determinism economics
//! cargo run -p asc-bench --bin econ_summary -- ECON_stats.json
//! ```
//!
//! The interesting column is *saved*: the estimated instruction-equivalents
//! of futile speculation the value model refused to execute
//! (`Σ overhead × superstep` over suppressed candidates). A healthy gated
//! run shows large savings on the chaotic workload (logistic map) and
//! near-zero suppression everywhere else. Exit code 2 on unreadable or
//! empty input so a silently-missing artifact fails the CI step; otherwise
//! the summary is informational and always exits 0.

use asc_bench::{append_step_summary, number_field, string_field};
use std::process::ExitCode;

/// One parsed `EconomicsStats` emission.
#[derive(Debug, Clone)]
struct EconRow {
    benchmark: String,
    mode: String,
    dispatched: u64,
    suppressed: u64,
    probes: u64,
    lookups: u64,
    hits: u64,
    realized_hit_rate: f64,
    suppressed_cost: f64,
    last_horizon: u64,
}

fn parse_rows(text: &str, path: &str) -> Result<Vec<EconRow>, String> {
    let mut rows = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let field = |key: &str| {
            number_field(line, key)
                .ok_or_else(|| format!("{path}:{}: no \"{key}\" field in {line:?}", index + 1))
        };
        rows.push(EconRow {
            benchmark: string_field(line, "benchmark")
                .ok_or_else(|| format!("{path}:{}: no \"benchmark\" field", index + 1))?,
            mode: string_field(line, "mode")
                .ok_or_else(|| format!("{path}:{}: no \"mode\" field", index + 1))?,
            dispatched: field("dispatched")? as u64,
            suppressed: field("suppressed")? as u64,
            probes: field("probes")? as u64,
            lookups: field("lookups")? as u64,
            hits: field("hits")? as u64,
            realized_hit_rate: field("realized_hit_rate")?,
            suppressed_cost: field("suppressed_cost")?,
            last_horizon: field("last_horizon")? as u64,
        });
    }
    if rows.is_empty() {
        return Err(format!("{path}: no economics records found"));
    }
    Ok(rows)
}

/// Instruction-equivalents with a magnitude-scaled unit.
fn format_cost(cost: f64) -> String {
    if cost >= 1e9 {
        format!("{:.2}G", cost / 1e9)
    } else if cost >= 1e6 {
        format!("{:.1}M", cost / 1e6)
    } else if cost >= 1e3 {
        format!("{:.1}k", cost / 1e3)
    } else {
        format!("{cost:.0}")
    }
}

/// The dispatch-economics table as GitHub-flavoured markdown for
/// `$GITHUB_STEP_SUMMARY`.
fn summary_markdown(rows: &[EconRow]) -> String {
    let saved: f64 = rows.iter().map(|r| r.suppressed_cost).sum();
    let mut out = format!(
        "### Dispatch economics ({} saved instruction-equivalents across {} runs)\n\n\
         | benchmark | mode | dispatched | suppressed | probes | hits/lookups | realized rate | saved | horizon |\n\
         |---|---|---:|---:|---:|---:|---:|---:|---:|\n",
        format_cost(saved),
        rows.len(),
    );
    for row in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {}/{} | {:.1}% | {} | {} |\n",
            row.benchmark,
            row.mode,
            row.dispatched,
            row.suppressed,
            row.probes,
            row.hits,
            row.lookups,
            row.realized_hit_rate * 100.0,
            format_cost(row.suppressed_cost),
            row.last_horizon,
        ));
    }
    out
}

fn run(path: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read econ stats {path}: {e}"))?;
    let rows = parse_rows(&text, path)?;
    println!(
        "{:<10} {:<8} {:>10} {:>10} {:>7} {:>14} {:>9} {:>8} {:>8}",
        "benchmark",
        "mode",
        "dispatched",
        "suppressed",
        "probes",
        "hits/lookups",
        "rate",
        "saved",
        "horizon"
    );
    for row in &rows {
        println!(
            "{:<10} {:<8} {:>10} {:>10} {:>7} {:>14} {:>8.1}% {:>8} {:>8}",
            row.benchmark,
            row.mode,
            row.dispatched,
            row.suppressed,
            row.probes,
            format!("{}/{}", row.hits, row.lookups),
            row.realized_hit_rate * 100.0,
            format_cost(row.suppressed_cost),
            row.last_horizon,
        );
    }
    append_step_summary(&summary_markdown(&rows));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: econ_summary <ECON_stats.json>");
        return ExitCode::from(2);
    };
    match run(path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("econ summary error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "{\"benchmark\":\"Logistic\",\"mode\":\"inline\",\"considered\":1599,\
         \"dispatched\":735,\"suppressed\":864,\"probes\":13,\"lookups\":1153,\"hits\":0,\
         \"realized_hit_rate\":0.000002,\"expected_value\":12474.2,\
         \"suppressed_cost\":67231.7,\"last_horizon\":1}";

    #[test]
    fn parses_emitted_records() {
        let rows = parse_rows(LINE, "test").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].benchmark, "Logistic");
        assert_eq!(rows[0].mode, "inline");
        assert_eq!(rows[0].dispatched, 735);
        assert_eq!(rows[0].suppressed, 864);
        assert_eq!(rows[0].probes, 13);
        assert!((rows[0].suppressed_cost - 67231.7).abs() < 1e-6);
        assert_eq!(rows[0].last_horizon, 1);
    }

    #[test]
    fn empty_or_malformed_input_is_an_error() {
        assert!(parse_rows("", "test").is_err());
        assert!(parse_rows("{\"mode\":\"inline\"}", "test").is_err());
    }

    #[test]
    fn markdown_totals_the_savings() {
        let rows = parse_rows(&format!("{LINE}\n{LINE}\n"), "test").unwrap();
        let markdown = summary_markdown(&rows);
        assert!(markdown.contains("Dispatch economics (134.5k saved"));
        assert!(markdown.contains("| Logistic | inline | 735 | 864 | 13 | 0/1153 |"));
    }

    #[test]
    fn costs_scale_units() {
        assert_eq!(format_cost(950.0), "950");
        assert_eq!(format_cost(67231.7), "67.2k");
        assert_eq!(format_cost(3.2e7), "32.0M");
        assert_eq!(format_cost(2.5e9), "2.50G");
    }
}
