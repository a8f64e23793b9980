//! In-memory span recorder for the ledger replay.
//!
//! Every call the replay makes into a layer is wrapped in a span
//! `{id, parent, occurrence, name, start_ns, end_ns}`. Spans are kept in a
//! vector and written out only after the run, so recording costs two clock
//! reads and one push. A layer's *self time* is its span minus the part its
//! children cover, which makes the per-name self times a partition of the
//! root span: they sum to the traced wall exactly.

use crate::stats;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded interval. `id` is the span's 1-based position in the
/// recording; `parent` is 0 for the root. `occurrence` is the recognized-IP
/// occurrence the span belongs to (0 before the loop starts) — the request
/// identifier shared by every span of one trip round the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub occurrence: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; a disabled tracer reads no clock and
/// allocates nothing, so the same replay code serves the untraced run that
/// `runtime.trace_overhead_share` is measured against.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    occurrence: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            occurrence: 0,
        }
    }

    /// Tags every span opened from now on with this occurrence ordinal.
    pub fn set_occurrence(&mut self, occurrence: u64) {
        self.occurrence = u32::try_from(occurrence).unwrap_or(u32::MAX);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            occurrence: self.occurrence,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("end without begin: spans are opened and closed in pairs");
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "a span was left open");
        self.spans
    }
}

/// Runs `$body` inside a span named `$name` and yields its value.
#[macro_export]
macro_rules! traced {
    ($tracer:expr, $name:expr, $body:expr) => {{
        $tracer.begin($name);
        let value = $body;
        $tracer.end();
        value
    }};
}

/// Each span's duration minus the durations of its direct children, in
/// span order.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != 0 {
            let parent = &mut own[span.parent as usize - 1];
            *parent = parent.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// What one span name cost over a whole run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerCost {
    pub calls: u64,
    /// Sum of self times: what this layer alone accounts for.
    pub self_s: f64,
    /// Sum of whole-span durations (children included).
    pub total_s: f64,
    /// Percentiles of the whole-span duration of one call.
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Aggregates spans by name.
pub fn layer_costs(spans: &[Span]) -> BTreeMap<&'static str, LayerCost> {
    let own = self_times_ns(spans);
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut costs: BTreeMap<&'static str, LayerCost> = BTreeMap::new();
    for (span, own_ns) in spans.iter().zip(own) {
        let cost = costs.entry(span.name).or_default();
        cost.calls += 1;
        cost.self_s += own_ns as f64 / 1e9;
        cost.total_s += span.duration_ns() as f64 / 1e9;
        durations.entry(span.name).or_default().push(span.duration_ns() as f64 / 1e3);
    }
    for (name, mut samples) in durations {
        samples.sort_by(f64::total_cmp);
        let cost = costs.get_mut(name).expect("every duration list has a cost entry");
        cost.p50_us = stats::percentile(&samples, 0.50);
        cost.p99_us = stats::percentile(&samples, 0.99);
    }
    costs
}

/// Writes one JSON object per line, in recording order.
///
/// # Errors
/// Propagates write errors, including the final flush.
pub fn write_jsonl(spans: &[Span], out: impl Write) -> io::Result<()> {
    let mut out = io::BufWriter::new(out);
    for s in spans {
        // Names are static identifiers from this package: no escaping needed.
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"occurrence\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.occurrence, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, occurrence: 1, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 { a 10..60 { b 20..30 }, a 70..90 }
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 60),
            span(3, 2, "b", 20, 30),
            span(4, 1, "a", 70, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
        // Self times partition the root span.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        let costs = layer_costs(&spans);
        assert_eq!(costs["a"].calls, 2);
        assert!((costs["a"].self_s - 60e-9).abs() < 1e-15);
        assert!((costs["a"].total_s - 70e-9).abs() < 1e-15);
        assert_eq!(costs["a"].p50_us, 0.02);
        assert_eq!(costs["a"].p99_us, 0.05);
        assert_eq!(costs["root"].calls, 1);
    }

    #[test]
    fn tracer_nests_spans_and_tags_occurrences() {
        let mut tracer = Tracer::new(true);
        tracer.begin("root");
        tracer.set_occurrence(7);
        let value = traced!(tracer, "child", { traced!(tracer, "grandchild", 1 + 1) });
        tracer.end();
        assert_eq!(value, 2);
        let spans = tracer.into_spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.id, s.parent, s.occurrence, s.name)).collect();
        assert_eq!(shape, vec![(1, 0, 0, "root"), (2, 1, 7, "child"), (3, 2, 7, "grandchild")]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(traced!(tracer, "x", 5), 5);
        assert!(tracer.into_spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let mut out = Vec::new();
        write_jsonl(&[span(1, 0, "root", 0, 9), span(2, 1, "cache.lookup", 2, 5)], &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("name").and_then(crate::json::Json::as_str), Some("cache.lookup"));
        assert_eq!(second.num("parent"), 1.0);
        assert_eq!(second.num("end_ns"), 5.0);
    }
}
