//! The metric tables: every name the benchmark prints, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` repeats
//! these tables for the driver; a unit test keeps the two in step.

use crate::json::Json;
use crate::replay::span;
use crate::stats::Summary;

/// A metric a user of the system would see. All are better lower.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25 },
    EndToEnd { name: "plain_t0_wall_s", unit: "s", bound: 0.15 },
    EndToEnd { name: "plain_t1_wall_s", unit: "s", bound: 0.15 },
    EndToEnd { name: "inline_wall_s", unit: "s", bound: 0.15 },
    EndToEnd { name: "inline_peak_rss_mb", unit: "mb", bound: 0.10 },
];

/// A metric of one layer; informational, no bound. (Which direction is
/// better is recorded in `BENCHMARK.json` only: nothing here acts on it.)
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn layer(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit }
}

/// Layer = the module of `asc-core` / `asc-tvm` before the dot. Which
/// end-to-end metric each should move, and on which workload, is tabulated
/// in the README.
pub const PER_LAYER: [PerLayer; 72] = [
    // Demoted from the end-to-end list: on a two-core sandbox the threaded
    // modes are bimodal (the planner is fastest when it never hits) and the
    // watchdog's half-second poll makes `inline_default_wall_s` a step
    // function, so none of the three can hold a bound.
    layer("workers_wall_s", "s"),
    layer("planner_wall_s", "s"),
    layer("inline_default_wall_s", "s"),
    layer("tvm.execute_s", "s"),
    layer("tvm.execute_calls", "count"),
    layer("tvm.superstep_execute_us_p50", "us"),
    layer("tvm.mips_t0", "Minstr/s"),
    layer("tvm.mips_t1", "Minstr/s"),
    layer("tvm.tier1_instr_share", "share"),
    layer("recognizer.recognize_s", "s"),
    layer("recognizer.converge_instructions", "count"),
    layer("recognizer.slowdown_vs_plain", "ratio"),
    layer("cache.lookup_s", "s"),
    layer("cache.lookups", "count"),
    layer("cache.hits", "count"),
    layer("cache.hit_share", "share"),
    layer("cache.lookup_us_p50", "us"),
    layer("cache.lookup_us_p99", "us"),
    layer("cache.apply_s", "s"),
    layer("cache.insert_s", "s"),
    layer("cache.inserts", "count"),
    layer("cache.inserted_per_hit", "ratio"),
    layer("predictor_bank.observe_s", "s"),
    layer("predictor_bank.observes", "count"),
    layer("predictor_bank.observe_us_p50", "us"),
    layer("predictor_bank.rollout_s", "s"),
    layer("predictor_bank.rollouts", "count"),
    layer("predictor_bank.rollout_us_p50", "us"),
    layer("predictor_bank.excited_bits", "count"),
    layer("allocator.plan_s", "s"),
    layer("allocator.plans", "count"),
    layer("allocator.tasks", "count"),
    layer("economics.update_s", "s"),
    layer("economics.considered", "count"),
    layer("economics.dispatched", "count"),
    layer("economics.suppressed", "count"),
    layer("speculator.execute_s", "s"),
    layer("speculator.supersteps", "count"),
    layer("speculator.useful_share", "share"),
    layer("workers.dispatched", "count"),
    layer("workers.completed", "count"),
    layer("workers.dropped", "count"),
    layer("workers.deduplicated", "count"),
    layer("workers.hit_share", "share"),
    layer("planner.occurrences", "count"),
    layer("planner.dropped", "count"),
    layer("planner.replans", "count"),
    layer("planner.dispatched", "count"),
    layer("planner.confirmed", "count"),
    layer("planner.invalidated", "count"),
    layer("planner.hit_share", "share"),
    layer("planner.wall_spread", "ratio"),
    layer("supervisor.watchdog_floor_s", "s"),
    layer("supervisor.loop_overhead_s", "s"),
    layer("checkpoint.save_s", "s"),
    layer("checkpoint.load_s", "s"),
    layer("checkpoint.bytes", "bytes"),
    layer("runtime.replay_wall_s", "s"),
    layer("runtime.replay_matches_runtime", "bool"),
    layer("runtime.loop_setup_s", "s"),
    layer("runtime.state_clone_s", "s"),
    layer("runtime.unattributed_s", "s"),
    layer("runtime.unattributed_share", "share"),
    layer("runtime.ledger_sum_share", "share"),
    layer("runtime.trace_overhead_share", "share"),
    layer("runtime.hit_cost_us_p50", "us"),
    layer("runtime.miss_cost_us_p50", "us"),
    layer("runtime.hit_payoff", "ratio"),
    layer("runtime.inline_speedup", "ratio"),
    layer("runtime.workers_speedup", "ratio"),
    layer("runtime.planner_speedup", "ratio"),
    layer("runtime.failed_share", "share"),
];

/// The ledger: each per-layer `*_s` metric that is the summed self time of
/// one span name, with that span. Together with `runtime.unattributed_s`
/// these lines partition the traced replay's wall; `runtime.ledger_sum_share`
/// reports how completely.
pub const LEDGER: [(&str, &str); 12] = [
    ("recognizer.recognize_s", span::RECOGNIZE),
    ("runtime.loop_setup_s", span::SETUP),
    ("cache.lookup_s", span::LOOKUP),
    ("cache.apply_s", span::APPLY),
    ("cache.insert_s", span::INSERT),
    ("runtime.state_clone_s", span::STATE_CLONE),
    ("predictor_bank.observe_s", span::OBSERVE),
    ("predictor_bank.rollout_s", span::ROLLOUT),
    ("economics.update_s", span::ECONOMICS),
    ("allocator.plan_s", span::PLAN),
    ("speculator.execute_s", span::SPECULATE),
    ("tvm.execute_s", span::EXECUTE),
];

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

/// The driver's shape: `{"name": {"value": median, "unit": unit}}`.
pub fn contract_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value = Json::obj([
                    ("value", Json::Num(m.summary.median)),
                    ("unit", Json::str(m.unit)),
                ]);
                (m.name.to_string(), value)
            })
            .collect(),
    )
}

/// The result-file shape: the contract's two keys plus the spread.
pub fn result_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value = Json::obj([
                    ("value", Json::Num(m.summary.median)),
                    ("unit", Json::str(m.unit)),
                    ("min", Json::Num(m.summary.min)),
                    ("max", Json::Num(m.summary.max)),
                    ("samples", Json::from(m.summary.samples)),
                ]);
                (m.name.to_string(), value)
            })
            .collect(),
    )
}

/// One line per metric, by name, with its unit.
pub fn print_table(metrics: &[Metric]) {
    for m in metrics {
        let s = &m.summary;
        if s.samples > 1 {
            println!(
                "{:<36} {:>16.6} {:<9} (min {:.6}, max {:.6}, n={})",
                m.name, s.median, m.unit, s.min, s.max, s.samples
            );
        } else {
            println!("{:<36} {:>16.6} {:<9}", m.name, s.median, m.unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_ledger_lines_are_per_layer_metrics() {
        let names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        for (line, _) in LEDGER {
            assert!(PER_LAYER.iter().any(|m| m.name == line && m.unit == "s"), "{line}");
        }
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let text =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_string();

        let end_to_end = spec.get("end_to_end").unwrap().items();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, metric) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(text(entry, "name"), metric.name);
            assert_eq!(text(entry, "unit"), metric.unit);
            assert_eq!(text(entry, "better"), "lower");
            assert_eq!(entry.num("bound"), metric.bound, "{}", metric.name);
        }
        let per_layer = spec.get("per_layer").unwrap().items();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, metric) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(text(entry, "name"), metric.name);
            assert_eq!(text(entry, "unit"), metric.unit);
            assert!(
                ["higher", "lower"].contains(&text(entry, "better").as_str()),
                "{}",
                metric.name
            );
        }
        let workloads: Vec<String> =
            spec.get("workloads").unwrap().items().iter().map(|w| text(w, "name")).collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn contract_shape_has_exactly_value_and_unit() {
        let metrics =
            [Metric { name: "inline_wall_s", unit: "s", summary: Summary::of(&[0.5, 0.25, 0.75]) }];
        assert_eq!(
            contract_json(&metrics).to_string(),
            r#"{"inline_wall_s": {"value": 0.5, "unit": "s"}}"#
        );
        let full = result_json(&metrics);
        let entry = full.get("inline_wall_s").unwrap();
        assert_eq!((entry.num("min"), entry.num("max"), entry.num("samples")), (0.25, 0.75, 3.0));
    }
}
