//! CI run-report summary: renders the flat JSON lines `RunReport::write_json`
//! (the determinism suite, via `$ASC_REPORT_OUT`) and `kill_resume_soak --out`
//! produce as one markdown table, to stdout and `$GITHUB_STEP_SUMMARY`.
//!
//! ```sh
//! ASC_REPORT_OUT=RUN_reports.jsonl cargo test -q --workspace
//! cargo run -p asc-bench --bin report_summary -- economics RUN_reports.jsonl
//! ```
//!
//! Tables: `economics` (read *saved*: futile speculation the value model
//! refused to run — large on the chaotic logistic map, near zero elsewhere),
//! `tier` (read *tier-1 share*: high on every loop-shaped benchmark),
//! `health` (what a fault-soak campaign cost) and `soak` (kill–resume
//! scenarios; *bit-identical* must be `yes` on every row). Each is a `const`
//! [`Table`]; a new counter in CI is a new [`Column`]. Exit code 2 on
//! unreadable, empty or malformed input (a row lacking a required key), so a
//! silently-missing artifact fails the CI step, and on any `false` under a
//! table's must-hold key; otherwise informational, 0.

use asc_bench::{append_step_summary, bool_field, number_field, string_field};
use std::process::ExitCode;

/// How a cell is derived from a line's keys and formatted. Ratios are
/// derived here from two stored counters, never stored.
#[derive(Clone, Copy)]
enum Cell {
    Text(&'static str),
    /// A counter, printed exactly.
    Count(&'static str),
    /// A quantity with a magnitude-scaled unit (`67.2k`, `3.1M`, `2.50G`).
    Scaled(&'static str),
    /// A rate in `[0, 1]` as a percentage.
    Percent(&'static str),
    /// Two counters as `a/b`.
    Fraction(&'static str, &'static str),
    /// `a / (a + b)` as a percentage (0% of nothing).
    Share(&'static str, &'static str),
    /// A boolean: `yes`, or a loud `**NO**`.
    Flag(&'static str),
}

impl Cell {
    /// The cell over one row — or, for a heading, over the column sums of
    /// many (booleans summing as 0/1; `rows` is their count). `Err` names
    /// the first key a row lacks.
    fn render(self, rows: &[&str]) -> Result<String, &'static str> {
        let number = |key| {
            if key == "rows" {
                return Ok(rows.len() as f64);
            }
            let value = |row| {
                let flag = || bool_field(row, key).map(|flag| f64::from(u8::from(flag)));
                number_field(row, key).or_else(flag)
            };
            rows.iter().map(|row| value(row)).sum::<Option<f64>>().ok_or(key)
        };
        Ok(match self {
            Cell::Text(key) => string_field(rows[0], key).ok_or(key)?.replace('\n', " "),
            Cell::Count(key) => format!("{:.0}", number(key)?),
            Cell::Scaled(key) => scaled(number(key)?),
            Cell::Percent(key) => format!("{:.1}%", number(key)? * 100.0),
            Cell::Fraction(a, b) => format!("{:.0}/{:.0}", number(a)?, number(b)?),
            Cell::Share(a, b) => {
                let (part, rest) = (number(a)?, number(b)?);
                let share = if part + rest == 0.0 { 0.0 } else { part / (part + rest) };
                format!("{:.1}%", share * 100.0)
            }
            Cell::Flag(key) => match bool_field(rows[0], key).ok_or(key)? {
                true => "yes".into(),
                false => "**NO**".into(),
            },
        })
    }
}

fn scaled(value: f64) -> String {
    match value {
        v if v >= 1e9 => format!("{:.2}G", v / 1e9),
        v if v >= 1e6 => format!("{:.1}M", v / 1e6),
        v if v >= 1e3 => format!("{:.1}k", v / 1e3),
        v => format!("{v:.0}"),
    }
}

/// A column: its header and how its cells are made.
type Column = (&'static str, Cell);

struct Table {
    name: &'static str,
    /// The `(label, value)` a line must carry to be a row; `None`: all lines.
    select: Option<(&'static str, &'static str)>,
    /// `{total}` is `total` rendered over all rows, `{rows}` their count.
    heading: &'static str,
    total: Cell,
    columns: &'static [Column],
    /// Whether a row may lack a column's keys (`-` stands in) or is
    /// malformed without them.
    sparse: bool,
    /// A boolean key that every row must carry, and as `true`.
    must_hold: Option<&'static str>,
}

const TABLES: [Table; 4] = [
    Table {
        name: "economics",
        select: Some(("test", "economics")),
        heading: "Dispatch economics ({total} saved instruction-equivalents across {rows} runs)",
        total: Cell::Scaled("economics.suppressed_cost"),
        columns: &[
            ("benchmark", Cell::Text("benchmark")),
            ("mode", Cell::Text("mode")),
            ("dispatched", Cell::Count("economics.dispatched")),
            ("suppressed", Cell::Count("economics.suppressed")),
            ("probes", Cell::Count("economics.probes")),
            ("hits/lookups", Cell::Fraction("economics.hits", "economics.lookups")),
            ("realized rate", Cell::Percent("economics.realized_hit_rate")),
            ("saved", Cell::Scaled("economics.suppressed_cost")),
            ("horizon", Cell::Count("economics.last_horizon")),
        ],
        sparse: false,
        must_hold: None,
    },
    Table {
        name: "tier",
        select: Some(("test", "tier")),
        heading: "Tier-up execution ({total} of instructions block-threaded across {rows} runs)",
        total: Cell::Share("tier.tier1_instructions", "tier.tier0_instructions"),
        columns: &[
            ("benchmark", Cell::Text("benchmark")),
            ("mode", Cell::Text("mode")),
            ("blocks", Cell::Count("tier.blocks_compiled")),
            ("invalidated", Cell::Count("tier.blocks_invalidated")),
            ("fused ops", Cell::Scaled("tier.fused_ops")),
            ("tier-1", Cell::Scaled("tier.tier1_instructions")),
            ("tier-0", Cell::Scaled("tier.tier0_instructions")),
            ("tier-1 share", Cell::Share("tier.tier1_instructions", "tier.tier0_instructions")),
        ],
        sparse: false,
        must_hold: None,
    },
    Table {
        name: "health",
        select: Some(("test", "fault_soak")),
        heading: "Fault-soak health ({total} injected faults across {rows} runs)",
        total: Cell::Scaled("health.injected_faults"),
        columns: &[
            ("scenario", Cell::Text("scenario")),
            ("benchmark", Cell::Text("benchmark")),
            ("seed", Cell::Count("seed")),
            ("panics", Cell::Count("health.worker_panics")),
            ("deadline kills", Cell::Count("health.deadline_kills")),
            ("planner deaths", Cell::Count("health.planner_panics")),
            ("trips", Cell::Count("health.breaker_trips")),
            ("recoveries", Cell::Count("health.breaker_recoveries")),
            ("checksum rejects", Cell::Count("cache.checksum_rejects")),
            ("stalls", Cell::Count("health.watchdog_stalls")),
            ("escalations", Cell::Count("health.watchdog_escalations")),
            ("injected", Cell::Count("health.injected_faults")),
        ],
        sparse: false,
        must_hold: None,
    },
    Table {
        name: "soak",
        select: None,
        heading: "Kill–resume soak ({total} scenarios bit-identical)",
        total: Cell::Fraction("bit_identical", "rows"),
        columns: &[
            ("scenario", Cell::Text("scenario")),
            ("benchmark", Cell::Text("benchmark")),
            ("mode", Cell::Text("mode")),
            ("seed", Cell::Count("seed")),
            ("kill at", Cell::Count("kill_at")),
            ("case", Cell::Text("case")),
            ("flushed", Cell::Count("flushed_saves")),
            ("bit-identical", Cell::Flag("bit_identical")),
            ("error", Cell::Text("error")),
        ],
        sparse: true,
        must_hold: Some("bit_identical"),
    },
];

/// The table as column-aligned markdown (one rendering serves the log and
/// the step summary), and how many rows broke the must-hold key.
fn render(table: &Table, text: &str, source: &str) -> Result<(String, usize), String> {
    let selected = |line: &str| match table.select {
        Some((key, value)) => string_field(line, key).as_deref() == Some(value),
        None => true,
    };
    let rows: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(index, line)| (index + 1, line.trim()))
        .filter(|(_, line)| !line.is_empty() && selected(line))
        .collect();
    if rows.is_empty() {
        return Err(format!("{source}: no {} records found", table.name));
    }

    let mut violations = 0;
    let mut grid = vec![table.columns.iter().map(|(header, _)| header.to_string()).collect()];
    for &(number, line) in &rows {
        let missing = |key: &str| format!("{source}:{number}: no \"{key}\" field in {line:?}");
        if let Some(key) = table.must_hold {
            violations += usize::from(!bool_field(line, key).ok_or_else(|| missing(key))?);
        }
        let cells = table.columns.iter().map(|(_, cell)| match cell.render(&[line]) {
            Ok(cell) => Ok(cell.replace('|', "\\|")),
            Err(_) if table.sparse => Ok("-".into()),
            Err(key) => Err(missing(key)),
        });
        grid.push(cells.collect::<Result<Vec<String>, String>>()?);
    }

    let lines: Vec<&str> = rows.iter().map(|&(_, line)| line).collect();
    let total =
        table.total.render(&lines).map_err(|key| format!("{source}: no \"{key}\" field"))?;
    let rows = rows.len().to_string();
    let heading = table.heading.replace("{total}", &total).replace("{rows}", &rows);
    let mut markdown = format!("### {heading}\n\n");
    let left = |i: usize| matches!(table.columns[i].1, Cell::Text(_) | Cell::Flag(_));
    let widths: Vec<usize> = (0..table.columns.len())
        .map(|i| grid.iter().map(|row| row[i].chars().count()).max().unwrap_or(1))
        .collect();
    for (index, row) in grid.iter().enumerate() {
        let pad = |(i, cell): (usize, &String)| match left(i) {
            true => format!("{cell:<w$}", w = widths[i]),
            false => format!("{cell:>w$}", w = widths[i]),
        };
        let cells: Vec<String> = row.iter().enumerate().map(pad).collect();
        markdown.push_str(&format!("| {} |\n", cells.join(" | ")));
        if index == 0 {
            let rule =
                |i| if left(i) { "-".repeat(widths[i]) } else { "-".repeat(widths[i] - 1) + ":" };
            let rules: Vec<String> = (0..row.len()).map(rule).collect();
            markdown.push_str(&format!("| {} |\n", rules.join(" | ")));
        }
    }
    Ok((markdown, violations))
}

fn run(table: &Table, path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (markdown, violations) = render(table, &text, path)?;
    print!("{markdown}");
    append_step_summary(&format!("{markdown}\n"));
    if violations > 0 {
        let key = table.must_hold.unwrap_or_default();
        return Err(format!("{violations} row(s) with \"{key}\":false"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let table = args.first().and_then(|name| TABLES.iter().find(|table| table.name == name));
    let (Some(table), [_, path]) = (table, args.as_slice()) else {
        let names: Vec<&str> = TABLES.iter().map(|table| table.name).collect();
        eprintln!("usage: report_summary <{}> <reports.jsonl>", names.join("|"));
        return ExitCode::from(2);
    };
    if let Err(message) = run(table, path) {
        eprintln!("{} summary error: {message}", table.name);
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use asc_bench::config_for;
    use asc_core::report::JsonLine;
    use asc_core::runtime::LascRuntime;
    use asc_workloads::registry::{build, Benchmark, Scale};

    /// Every table spec, fed lines from the writers that feed it in CI:
    /// empty and malformed input are errors, rows render the emitted
    /// counters (units scaled), headings total them, and a divergent soak
    /// scenario is flagged and counted.
    #[test]
    fn every_table_renders_emitted_lines_and_rejects_empty_or_malformed_input() {
        let workload = build(Benchmark::Collatz, Scale::Tiny).unwrap();
        let runtime = LascRuntime::new(config_for(Scale::Tiny)).unwrap();
        let mut report = runtime.accelerate(&workload.program).unwrap();
        report.economics.as_mut().unwrap().suppressed_cost = 67_231.7;
        (report.tier.tier1_instructions, report.tier.tier0_instructions) = (1_531_042, 10_421);
        (report.tier.fused_ops, report.health.injected_faults) = (32_000_000, 2_500_000_000);
        let economics = report.economics.unwrap();
        let report_line = |test: &str| {
            let mut line = Vec::new();
            let mut labels = vec![("test", test.into()), ("benchmark", "Collatz".into())];
            labels.extend([("mode", "inline".into()), ("scenario", "campaign".into())]);
            labels.push(("seed", 3u64.into()));
            report.write_json(&mut line, &labels).unwrap();
            String::from_utf8(line).unwrap()
        };
        let soak = JsonLine::new().field("scenario", "kill-resume").field("benchmark", "Collatz");
        let soak = soak.field("seed", 3u64).field("kill_at", 107u64).field("bit_identical", true);
        let soak = soak.finish();
        let table = |name: &str| TABLES.iter().find(|table| table.name == name).unwrap();
        // A table's second row, without the padding.
        let row = |markdown: &str| {
            markdown.lines().nth(5).unwrap().split_whitespace().collect::<String>()
        };

        for spec in &TABLES {
            let line = spec.select.map_or_else(|| soak.clone(), |(_, test)| report_line(test));
            for empty in ["", "\n  \n", "{\"test\":\"other\"}\n"] {
                assert!(render(spec, empty, "test").is_err(), "{}: {empty:?}", spec.name);
            }
            // A selected row lacking a required key is malformed.
            let (key, value) = spec.select.unwrap_or(("benchmark", "Collatz"));
            let bare = JsonLine::new().field(key, value).finish();
            let error = render(spec, &bare, "test").unwrap_err();
            assert!(error.contains("test:1: no \""), "{}: {error}", spec.name);
            let (markdown, violations) = render(spec, &format!("{line}\n{line}"), "test").unwrap();
            assert_eq!((markdown.lines().count(), violations), (6, 0), "{}: {markdown}", spec.name);
        }

        let line = report_line("economics");
        let (markdown, _) = render(table("economics"), &format!("{line}{line}"), "t").unwrap();
        assert!(markdown.contains("economics (134.5k saved instruction-equivalents across 2 runs)"));
        let expected = format!(
            "|Collatz|inline|{}|{}|{}|{}/{}|{:.1}%|67.2k|{}|",
            economics.dispatched,
            economics.suppressed,
            economics.probes,
            economics.hits,
            economics.lookups,
            economics.realized_hit_rate * 100.0,
            economics.last_horizon,
        );
        assert_eq!(row(&markdown), expected, "{markdown}");
        let line = report_line("tier");
        let (markdown, _) = render(table("tier"), &format!("{line}{line}"), "t").unwrap();
        assert!(markdown.contains("Tier-up execution (99.3% of instructions"), "{markdown}");
        assert!(row(&markdown).ends_with("|32.0M|1.5M|10.4k|99.3%|"), "{markdown}");
        let (markdown, _) = render(table("health"), &report_line("fault_soak"), "t").unwrap();
        assert!(markdown.contains("Fault-soak health (2.50G injected faults across 1 runs)"));
        assert!(markdown.contains("| campaign | Collatz   |    3 |"), "{markdown}");

        let failed =
            JsonLine::new().field("scenario", "damage-sweep").field("bit_identical", false);
        let failed = failed.field("error", "child | died\nwrong").finish();
        let (markdown, violations) =
            render(table("soak"), &format!("{soak}{failed}"), "t").unwrap();
        assert_eq!(violations, 1);
        assert!(markdown.contains("Kill–resume soak (1/2 scenarios bit-identical)"), "{markdown}");
        assert!(markdown.contains("| kill-resume  | Collatz   | -    |    3 |     107 |"));
        assert_eq!(row(&markdown), "|damage-sweep|-|-|-|-|-|-|**NO**|child\\|diedwrong|");
        // A row that does not say either way is malformed, not a pass.
        let silent = JsonLine::new().field("scenario", "kill-resume").finish();
        assert!(render(table("soak"), &silent, "test").is_err());
    }
}
