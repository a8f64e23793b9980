//! The run-report serializer: one flat JSON object per line.
//!
//! [`RunReport::write_json`] is the only place a run's statistics are listed
//! for output. A line carries the caller's labels first (which benchmark,
//! mode, seed and test emitted it), then the scalar accounting, then every
//! stats section under dotted keys — `"cache.hits"`,
//! `"economics.suppressed"`, `"tier.tier1_instructions"`, … — with an absent
//! `Option` section writing no keys at all. Nothing nests, so readers need
//! no parser beyond a `"key":` scan (`asc_bench::{string_field,
//! number_field, bool_field}`); ratios such as hit rates and tier-1 shares
//! are derived by the reader, never stored.
//!
//! [`JsonLine`] is the writer underneath: string escaping, non-finite floats
//! as `null`. The soak drivers build their scenario lines on it too.

use crate::cache::CacheStats;
use crate::checkpoint::CheckpointStats;
use crate::economics::EconomicsStats;
use crate::planner::PlannerStats;
use crate::recognizer::RecognizedIp;
use crate::runtime::RunReport;
use crate::supervisor::HealthStats;
use crate::workers::PoolStats;
use asc_tvm::TierStats;
use std::fmt::Write as _;
use std::io;

/// One value of a flat JSON line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JsonValue<'a> {
    /// A string, escaped on output.
    Str(&'a str),
    /// An unsigned counter, written exactly.
    Uint(u64),
    /// A float; NaN and the infinities are written as `null`.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
}

impl<'a> From<&'a str> for JsonValue<'a> {
    fn from(value: &'a str) -> Self {
        JsonValue::Str(value)
    }
}

macro_rules! json_value_from {
    ($($from:ty => $variant:ident as $repr:ty),*) => {$(
        impl From<$from> for JsonValue<'_> {
            fn from(value: $from) -> Self {
                JsonValue::$variant(value as $repr)
            }
        }
    )*};
}
json_value_from!(u64 => Uint as u64, u32 => Uint as u64, usize => Uint as u64);
json_value_from!(f64 => Float as f64, bool => Bool as bool);

/// Builder of one flat JSON object on one line.
#[derive(Debug, Clone)]
pub struct JsonLine {
    body: String,
}

impl JsonLine {
    /// An object with no fields yet.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        JsonLine { body: String::from("{") }
    }

    /// Appends `"key":value`. Keys are not checked for uniqueness.
    #[must_use]
    pub fn field<'a>(mut self, key: &str, value: impl Into<JsonValue<'a>>) -> Self {
        if self.body.len() > 1 {
            self.body.push(',');
        }
        push_string(&mut self.body, key);
        self.body.push(':');
        match value.into() {
            JsonValue::Str(text) => push_string(&mut self.body, text),
            JsonValue::Uint(number) => write!(self.body, "{number}").expect("String never fails"),
            // `{:?}` is the shortest digits that round-trip, with an
            // exponent instead of hundreds of zeros at the extremes.
            JsonValue::Float(number) if number.is_finite() => {
                write!(self.body, "{number:?}").expect("String never fails");
            }
            JsonValue::Float(_) => self.body.push_str("null"),
            JsonValue::Bool(flag) => self.body.push_str(if flag { "true" } else { "false" }),
        }
        self
    }

    /// Closes the object and terminates the line.
    pub fn finish(mut self) -> String {
        self.body.push_str("}\n");
        self.body
    }
}

fn push_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => {
                write!(out, "\\u{:04x}", c as u32).expect("String never fails");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends every named field of a stats struct as `"<prefix>.<field>"`. The
/// destructuring pattern is exhaustive, so a field added to the struct does
/// not compile until it is listed here (or explicitly skipped after `;`).
macro_rules! section {
    ($line:ident, $prefix:literal, $stats:expr =>
     $Type:ident { $($field:ident),* $(,)? $(; $($skipped:ident),*)? }) => {{
        let $Type { $($field,)* $($($skipped: _,)*)? } = $stats;
        $( $line = $line.field(concat!($prefix, ".", stringify!($field)), *$field); )*
    }};
}

impl RunReport {
    /// Writes the run as one flat JSON object on one line: `labels` first,
    /// in the order given, then the scalar accounting, then each stats
    /// section under dotted keys (see the [module docs](self)). The
    /// per-superstep trace, the ensemble matrices and the final state are
    /// not written. The line reaches `out` in a single `write_all`, so
    /// concurrent appenders to one `O_APPEND` file never interleave.
    ///
    /// # Errors
    /// Propagates the writer's error.
    pub fn write_json(
        &self,
        out: &mut impl io::Write,
        labels: &[(&str, JsonValue<'_>)],
    ) -> io::Result<()> {
        let mut line = JsonLine::new();
        for (key, value) in labels {
            line = line.field(key, *value);
        }
        section!(line, "rip", &self.rip => RecognizedIp {
            ip, stride, mean_superstep, accuracy, score,
        });
        line = line
            .field("unique_ips", self.unique_ips)
            .field("state_bits", self.state_bits)
            .field("excited_bits", self.excited_bits)
            .field("converge_instructions", self.converge_instructions)
            .field("total_instructions", self.total_instructions)
            .field("executed_instructions", self.executed_instructions)
            .field("fast_forwarded_instructions", self.fast_forwarded_instructions)
            .field("halted", self.halted);

        section!(line, "cache", &self.cache_stats => CacheStats {
            queries, hits, inserted, duplicates, replaced, evicted, junk_rejected, groups,
            probes, collision_rejects, checksum_rejects, instructions_served,
        });
        if let Some(pool) = &self.speculation {
            // `PoolStats::tier` is already merged into `self.tier`.
            section!(line, "speculation", pool => PoolStats {
                dispatched, dropped, deduplicated, completed, faulted, exhausted, inserted,
                panicked, deadline_killed, panicked_joins; tier
            });
        }
        if let Some(planner) = &self.planner {
            section!(line, "planner", planner => PlannerStats {
                occurrences, dropped, replans, extensions, confirmed, invalidated, dispatched,
                insert_wakeups,
            });
        }
        section!(line, "health", &self.health => HealthStats {
            worker_panics, spawn_failures, panicked_joins, deadline_kills, planner_panics,
            breaker_trips, breaker_recoveries, breaker_open_occurrences, injected_faults,
            watchdog_stalls, watchdog_escalations,
        });
        if let Some(economics) = &self.economics {
            section!(line, "economics", economics => EconomicsStats {
                considered, dispatched, suppressed, probes, lookups, hits, expected_value,
                suppressed_cost, realized_hit_rate, last_horizon,
            });
        }
        if let Some(checkpoints) = &self.checkpoints {
            section!(line, "checkpoints", checkpoints => CheckpointStats {
                saves, save_failures, last_occurrence, bytes_written, resumed, resume_sequence,
                rejected_files,
            });
        }
        section!(line, "tier", &self.tier => TierStats {
            blocks_compiled, blocks_invalidated, fused_ops, tier1_instructions,
            tier0_instructions,
        });
        out.write_all(line.finish().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_escape_strings_and_null_out_non_finite_floats() {
        let line = JsonLine::new()
            .field("label", "we\"ird\\na\tme\n\u{1}")
            .field("count", 18_446_744_073_709_551_615u64)
            .field("small", 1e-7)
            .field("big", 1e300)
            .field("whole", 2.0)
            .field("nan", f64::NAN)
            .field("inf", f64::INFINITY)
            .field("neg_inf", f64::NEG_INFINITY)
            .field("flag", true)
            .finish();
        assert_eq!(
            line,
            "{\"label\":\"we\\\"ird\\\\na\\tme\\n\\u0001\",\"count\":18446744073709551615,\
             \"small\":1e-7,\"big\":1e300,\"whole\":2.0,\"nan\":null,\"inf\":null,\
             \"neg_inf\":null,\"flag\":true}\n"
        );
        assert_eq!(JsonLine::new().finish(), "{}\n");
    }
}
