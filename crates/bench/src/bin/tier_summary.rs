//! CI tier-up summary: renders the JSON-lines `TierStats` records the
//! determinism suite emits via `ASC_TIER_OUT` (one line per benchmark ×
//! execution mode) as a table — to stdout, and as GitHub-flavoured markdown
//! appended to `$GITHUB_STEP_SUMMARY` next to the dispatch-economics table.
//!
//! ```sh
//! ASC_TIER_OUT=TIER_stats.json cargo test -q --test determinism tier
//! cargo run -p asc-bench --bin tier_summary -- TIER_stats.json
//! ```
//!
//! The interesting column is *tier-1 share*: the fraction of all retired
//! instructions that went through block-threaded dispatch of compiled,
//! fused micro-op blocks instead of single-step tier-0 dispatch. A healthy
//! run shows a high share on every loop-shaped benchmark with few
//! invalidations. Exit code 2 on unreadable or empty input so a
//! silently-missing artifact fails the CI step; otherwise the summary is
//! informational and always exits 0.

use asc_bench::{append_step_summary, number_field, string_field};
use std::process::ExitCode;

/// One parsed `TierStats` emission.
#[derive(Debug, Clone)]
struct TierRow {
    benchmark: String,
    mode: String,
    blocks_compiled: u64,
    blocks_invalidated: u64,
    fused_ops: u64,
    tier1_instructions: u64,
    tier0_instructions: u64,
    tier1_share: f64,
}

fn parse_rows(text: &str, path: &str) -> Result<Vec<TierRow>, String> {
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
        rows.push(TierRow {
            benchmark: string_field(line, "benchmark")
                .ok_or_else(|| format!("{path}:{}: no \"benchmark\" field", index + 1))?,
            mode: string_field(line, "mode")
                .ok_or_else(|| format!("{path}:{}: no \"mode\" field", index + 1))?,
            blocks_compiled: field("blocks_compiled")? as u64,
            blocks_invalidated: field("blocks_invalidated")? as u64,
            fused_ops: field("fused_ops")? as u64,
            tier1_instructions: field("tier1_instructions")? as u64,
            tier0_instructions: field("tier0_instructions")? as u64,
            tier1_share: field("tier1_share")?,
        });
    }
    if rows.is_empty() {
        return Err(format!("{path}: no tier records found"));
    }
    Ok(rows)
}

/// Instruction counts with a magnitude-scaled unit.
fn format_count(count: u64) -> String {
    let value = count as f64;
    if value >= 1e9 {
        format!("{:.2}G", value / 1e9)
    } else if value >= 1e6 {
        format!("{:.1}M", value / 1e6)
    } else if value >= 1e3 {
        format!("{:.1}k", value / 1e3)
    } else {
        format!("{count}")
    }
}

/// The tier-up table as GitHub-flavoured markdown for
/// `$GITHUB_STEP_SUMMARY`.
fn summary_markdown(rows: &[TierRow]) -> String {
    let tier1: u64 = rows.iter().map(|r| r.tier1_instructions).sum();
    let total: u64 = rows.iter().map(|r| r.tier1_instructions + r.tier0_instructions).sum();
    let share = if total == 0 { 0.0 } else { tier1 as f64 / total as f64 };
    let mut out = format!(
        "### Tier-up execution ({:.1}% of {} instructions block-threaded across {} runs)\n\n\
         | benchmark | mode | blocks | invalidated | fused ops | tier-1 | tier-0 | tier-1 share |\n\
         |---|---|---:|---:|---:|---:|---:|---:|\n",
        share * 100.0,
        format_count(total),
        rows.len(),
    );
    for row in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {:.1}% |\n",
            row.benchmark,
            row.mode,
            row.blocks_compiled,
            row.blocks_invalidated,
            format_count(row.fused_ops),
            format_count(row.tier1_instructions),
            format_count(row.tier0_instructions),
            row.tier1_share * 100.0,
        ));
    }
    out
}

fn run(path: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read tier stats {path}: {e}"))?;
    let rows = parse_rows(&text, path)?;
    println!(
        "{:<10} {:<8} {:>7} {:>12} {:>10} {:>10} {:>10} {:>7}",
        "benchmark", "mode", "blocks", "invalidated", "fused", "tier-1", "tier-0", "share"
    );
    for row in &rows {
        println!(
            "{:<10} {:<8} {:>7} {:>12} {:>10} {:>10} {:>10} {:>6.1}%",
            row.benchmark,
            row.mode,
            row.blocks_compiled,
            row.blocks_invalidated,
            format_count(row.fused_ops),
            format_count(row.tier1_instructions),
            format_count(row.tier0_instructions),
            row.tier1_share * 100.0,
        );
    }
    append_step_summary(&summary_markdown(&rows));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: tier_summary <TIER_stats.json>");
        return ExitCode::from(2);
    };
    match run(path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("tier summary error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "{\"benchmark\":\"Collatz\",\"mode\":\"workers\",\
         \"blocks_compiled\":3,\"blocks_invalidated\":0,\"fused_ops\":7,\
         \"tier1_instructions\":1531042,\"tier0_instructions\":10421,\
         \"tier1_share\":0.993239}";

    #[test]
    fn parses_emitted_records() {
        let rows = parse_rows(LINE, "test").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].benchmark, "Collatz");
        assert_eq!(rows[0].mode, "workers");
        assert_eq!(rows[0].blocks_compiled, 3);
        assert_eq!(rows[0].blocks_invalidated, 0);
        assert_eq!(rows[0].fused_ops, 7);
        assert_eq!(rows[0].tier1_instructions, 1_531_042);
        assert_eq!(rows[0].tier0_instructions, 10_421);
        assert!((rows[0].tier1_share - 0.993239).abs() < 1e-9);
    }

    #[test]
    fn empty_or_malformed_input_is_an_error() {
        assert!(parse_rows("", "test").is_err());
        assert!(parse_rows("{\"mode\":\"inline\"}", "test").is_err());
    }

    #[test]
    fn markdown_shares_the_tiered_fraction() {
        let rows = parse_rows(&format!("{LINE}\n{LINE}\n"), "test").unwrap();
        let markdown = summary_markdown(&rows);
        assert!(markdown.contains("Tier-up execution (99.3% of 3.1M instructions"));
        assert!(markdown.contains("| Collatz | workers | 3 | 0 | 7 | 1.5M | 10.4k | 99.3% |"));
    }

    #[test]
    fn counts_scale_units() {
        assert_eq!(format_count(950), "950");
        assert_eq!(format_count(67_231), "67.2k");
        assert_eq!(format_count(32_000_000), "32.0M");
        assert_eq!(format_count(2_500_000_000), "2.50G");
    }
}
