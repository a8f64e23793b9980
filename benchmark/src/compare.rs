//! `benchmark compare A.json B.json`: applies each end-to-end metric's bound
//! to two result files, one row per workload × metric.

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::{ratio, Summary};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// Medians are within the bound, but the two sides' min–max ranges
    /// overlap by more than the bound: the runs are too spread out to tell
    /// a change of that size from noise.
    Unresolved,
    /// B's median is better than A's by more than the bound.
    Improved,
    Unchanged,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// Judges a lower-is-better metric. `bound` is a share of A's median.
pub fn judge(a: &Summary, b: &Summary, bound: f64) -> Verdict {
    let change = ratio(b.median - a.median, a.median);
    let overlap = ratio(a.max.min(b.max) - a.min.max(b.min), a.median);
    if change > bound {
        Verdict::Regression
    } else if overlap > bound {
        Verdict::Unresolved
    } else if change < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn summary_of(entry: &Json) -> Summary {
    let median = entry.num("value");
    // A driver-shaped entry carries only `value` and `unit`: no spread.
    let or_median = |key| entry.get(key).and_then(Json::as_f64).unwrap_or(median);
    Summary {
        median,
        min: or_median("min"),
        max: or_median("max"),
        samples: entry.num("samples") as usize,
    }
}

/// Prints the comparison and returns how many pairs regressed.
///
/// # Errors
/// Names a workload or metric present in A but missing from B.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    let mut regressions = 0;
    println!(
        "{:<9} {:<32} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for (workload, a_result) in a.get("workloads").map(Json::fields).unwrap_or_default() {
        let b_result = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or_else(|| format!("workload {workload} is missing from B"))?;
        for set in ["end_to_end", "per_layer"] {
            for (name, a_entry) in a_result.get(set).map(Json::fields).unwrap_or_default() {
                let b_entry = b_result
                    .get(set)
                    .and_then(|m| m.get(name))
                    .ok_or_else(|| format!("{workload}: metric {name} is missing from B"))?;
                let (sa, sb) = (summary_of(a_entry), summary_of(b_entry));
                let change = ratio(sb.median - sa.median, sa.median);
                // Per-layer metrics carry no bound: shown, never judged.
                let bound = END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound);
                let verdict = bound.map(|bound| judge(&sa, &sb, bound));
                regressions += usize::from(verdict == Some(Verdict::Regression));
                println!(
                    "{:<9} {:<32} {:>14.6} {:>14.6} {:>+7.1}% {:>6}  {}",
                    workload,
                    name,
                    sa.median,
                    sb.median,
                    100.0 * change,
                    bound.map_or("-".to_string(), |b| format!("{:.0}%", 100.0 * b)),
                    verdict.map_or("info", Verdict::label),
                );
            }
        }
        for (label, result) in [("A", a_result), ("B", b_result)] {
            if result.num("failed") > 0.0 {
                println!(
                    "{workload:<9} {label}: {} of {} runs FAILED",
                    result.num("failed"),
                    result.num("attempted")
                );
                regressions += 1;
            }
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, min: f64, max: f64) -> Summary {
        Summary { median, min, max, samples: 5 }
    }

    #[test]
    fn verdicts_follow_median_then_overlap() {
        let a = s(1.00, 0.98, 1.02);
        assert_eq!(judge(&a, &s(1.02, 1.00, 1.04), 0.10), Verdict::Unchanged);
        assert_eq!(judge(&a, &s(1.20, 1.18, 1.22), 0.10), Verdict::Regression);
        assert_eq!(judge(&a, &s(0.80, 0.78, 0.82), 0.10), Verdict::Improved);
        // Same medians, but both sides range over 30 %: a 10 % change would
        // be invisible, so the pair is not "unchanged".
        assert_eq!(judge(&s(1.0, 0.85, 1.15), &s(1.0, 0.85, 1.15), 0.10), Verdict::Unresolved);
        // A regression stays a regression however noisy the sides are.
        assert_eq!(judge(&s(1.0, 0.7, 1.3), &s(1.2, 0.9, 1.5), 0.10), Verdict::Regression);
        // A wide-but-disjoint improvement is resolved: every B run beats every A run.
        assert_eq!(judge(&s(1.0, 0.9, 1.3), &s(0.6, 0.5, 0.8), 0.10), Verdict::Improved);
        // Single samples have no range to overlap.
        let one = |v| Summary::single(v);
        assert_eq!(judge(&one(1.0), &one(1.05), 0.10), Verdict::Unchanged);
    }

    #[test]
    fn compare_counts_regressions_and_failures_and_rejects_missing_metrics() {
        let file = |wall: f64, failed: f64| {
            let entry = Json::obj([
                ("value", Json::Num(wall)),
                ("unit", Json::str("s")),
                ("min", Json::Num(wall * 0.99)),
                ("max", Json::Num(wall * 1.01)),
                ("samples", Json::Num(5.0)),
            ]);
            let layer = Json::obj([("value", Json::Num(wall)), ("unit", Json::str("s"))]);
            Json::obj([(
                "workloads",
                Json::obj([(
                    "collatz",
                    Json::obj([
                        ("attempted", Json::Num(10.0)),
                        ("failed", Json::Num(failed)),
                        ("end_to_end", Json::obj([("inline_wall_s", entry)])),
                        ("per_layer", Json::obj([("cache.lookup_s", layer)])),
                    ]),
                )]),
            )])
        };
        assert_eq!(compare(&file(1.0, 0.0), &file(1.05, 0.0)), Ok(0));
        assert_eq!(compare(&file(1.0, 0.0), &file(1.5, 0.0)), Ok(1));
        assert_eq!(compare(&file(1.0, 0.0), &file(1.0, 1.0)), Ok(1));
        let empty = Json::obj([("workloads", Json::obj([("collatz", Json::obj::<&str>([]))]))]);
        assert!(compare(&file(1.0, 0.0), &empty).unwrap_err().contains("missing from B"));
    }
}
