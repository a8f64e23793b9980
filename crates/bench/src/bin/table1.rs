//! Reproduces Table 1: recognizer statistics for each benchmark.

use asc_bench::{config_for, measure, row, scale_from_args, sci};
use asc_core::recognizer::recognize;
use asc_workloads::registry::{build, Benchmark};

fn main() {
    let scale = scale_from_args();
    println!("Table 1: recognizer statistics (scale {scale:?})\n");
    let reports: Vec<_> = Benchmark::ALL.iter().map(|&b| (b, measure(b, scale))).collect();

    let names: Vec<String> = reports.iter().map(|(b, _)| b.name().to_string()).collect();
    println!("{}", row("", &names));
    let cell = |f: &dyn Fn(&asc_core::runtime::RunReport, &str) -> String| -> Vec<String> {
        reports.iter().map(|(_, (r, d))| f(r, d)).collect()
    };
    println!("{}", row("Total time (instr)", &cell(&|r, _| sci(r.total_instructions as f64))));
    println!(
        "{}",
        row("Converge time (instr)", &cell(&|r, _| sci(r.converge_instructions as f64)))
    );
    println!("{}", row("Average jump (instr)", &cell(&|r, _| sci(r.mean_superstep()))));
    println!("{}", row("State vector size (bits)", &cell(&|r, _| sci(r.state_bits as f64))));
    println!(
        "{}",
        row("Cache query size (bits)", &cell(&|r, _| format!("{:.0}", r.mean_query_bits())))
    );
    let source_lines: Vec<String> = reports
        .iter()
        .map(|(b, _)| {
            build(*b, scale)
                .map(|w| w.program.source_lines().to_string())
                .unwrap_or_else(|_| "?".to_string())
        })
        .collect();
    println!("{}", row("Lines of source", &source_lines));
    println!("{}", row("Workload", &cell(&|_, d| d.to_string())));
    println!("{}", row("Unique IP values", &cell(&|r, _| r.unique_ips.to_string())));
    println!("{}", row("Excited bits", &cell(&|r, _| r.excited_bits.to_string())));
    // What the recognizer's read-targeted bank for the selected IP saw change
    // against what it modelled (the row above is the runtime's bank, which
    // models every changed bit up to `max_excited_bits`).
    let recognizer_bits: Vec<String> = Benchmark::ALL
        .iter()
        .map(|&b| {
            let workload = build(b, scale).expect("workload must build");
            let initial = workload.program.initial_state().expect("program must load");
            let outcome = recognize(&initial, &config_for(scale)).expect("recognition succeeds");
            let selected = outcome.candidates.iter().find(|c| c.ip == outcome.rip.ip);
            selected
                .map_or("?".to_string(), |c| format!("{} / {}", c.changed_bits, c.modelled_bits))
        })
        .collect();
    println!("{}", row("Recognizer changed/modelled", &recognizer_bits));
}
