//! Platform profiles and the cluster cost model used for the scaling figures.
//!
//! The paper evaluates LASC on a 32-core x86 server, an IBM Blue Gene/P and a
//! single-core laptop, and reports *relative scaling*: single-threaded wall
//! clock divided by parallel wall clock of the same (slow) functional
//! simulator. This module reproduces those curves from a per-superstep trace
//! recorded by [`LascRuntime::measure`](crate::runtime::LascRuntime::measure):
//! it replays the trace against a model of `P` cores in which
//!
//! * the recognizer's convergence prefix is sequential,
//! * each dispatch round assigns worker rank `k` the superstep `k` ahead of
//!   the main thread; the worker first pays the recursive-prediction latency
//!   (linear in `k`, §5.3) and then executes the superstep,
//! * a worker's entry is usable only if the chained one-step predictions to
//!   its depth were correct (taken from the trace) and the worker finished
//!   before the main thread arrived,
//! * the main thread pays a cache-query cost (a log₂ P max-reduction plus a
//!   point-to-point transfer) at every superstep boundary and fast-forwards
//!   on a hit, otherwise executes the superstep itself.
//!
//! The same trace replayed with different cost parameters yields the paper's
//! line families: *cycle-count* scaling (free lookups), *oracle* scaling
//! (every prediction correct), and plain *LASC* scaling.

use crate::runtime::RunReport;

/// Costs, in instruction-equivalent cycles, of one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformProfile {
    /// Human-readable platform name.
    pub name: &'static str,
    /// Largest core count the platform supports.
    pub max_cores: usize,
    /// Fixed cost of issuing a cache query (serialisation, local lookup).
    pub query_base_cost: f64,
    /// Additional query cost per reduction hop (× log₂ P).
    pub query_hop_cost: f64,
    /// Cost of the point-to-point transfer of the winning end state.
    pub p2p_cost: f64,
    /// Recursive-prediction latency per rollout step for a worker of rank k
    /// (the paper's ~10³·k µs, expressed in cycles of this platform).
    pub rollout_cost_per_step: f64,
}

impl PlatformProfile {
    /// The paper's 32-core x86 server.
    pub fn server_32core() -> Self {
        PlatformProfile {
            name: "32-core server",
            max_cores: 32,
            query_base_cost: 10.0,
            query_hop_cost: 2.0,
            p2p_cost: 10.0,
            rollout_cost_per_step: 4.0,
        }
    }

    /// The paper's Blue Gene/P partition (ASIC-accelerated reductions, slower
    /// cores, vastly more of them).
    pub fn blue_gene_p() -> Self {
        PlatformProfile {
            name: "Blue Gene/P",
            max_cores: 16_384,
            query_base_cost: 10.0,
            query_hop_cost: 1.0,
            p2p_cost: 10.0,
            rollout_cost_per_step: 8.0,
        }
    }

    /// The single-core laptop (only memoization is possible).
    pub fn laptop() -> Self {
        PlatformProfile {
            name: "1-core laptop",
            max_cores: 1,
            query_base_cost: 20.0,
            query_hop_cost: 0.0,
            p2p_cost: 0.0,
            rollout_cost_per_step: 25.0,
        }
    }
}

/// Which idealisations to apply when replaying the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingMode {
    /// The full LASC model: real predictions, real costs.
    Lasc,
    /// "Cycle count" scaling: infinitely fast cache lookups (§5.4).
    CycleCount,
    /// Oracle scaling: every prediction correct, costs unchanged (§5.4).
    Oracle,
}

/// One point of a scaling curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Number of cores.
    pub cores: usize,
    /// Relative scaling (sequential time / parallel time).
    pub scaling: f64,
    /// Fraction of supersteps served from the cache.
    pub hit_rate: f64,
}

/// Replays a measured trace against the platform model for one core count.
pub fn simulate(
    report: &RunReport,
    profile: &PlatformProfile,
    mode: ScalingMode,
    cores: usize,
) -> ScalingPoint {
    let cores = cores.clamp(1, profile.max_cores);
    let lengths: Vec<f64> = report.supersteps.iter().map(|s| s.instructions as f64).collect();
    let correct: Vec<bool> = report
        .supersteps
        .iter()
        .map(|s| match mode {
            ScalingMode::Oracle => true,
            _ => s.prediction_correct.unwrap_or(false),
        })
        .collect();
    let sequential_time: f64 = report.converge_instructions as f64 + lengths.iter().sum::<f64>();
    if lengths.is_empty() || cores <= 1 {
        return ScalingPoint { cores, scaling: 1.0, hit_rate: 0.0 };
    }

    let (query_cost, p2p_cost) = match mode {
        ScalingMode::CycleCount => (0.0, 0.0),
        _ => (
            profile.query_base_cost + profile.query_hop_cost * (cores as f64).log2(),
            profile.p2p_cost,
        ),
    };

    // Sequential prefix: recognizer convergence.
    let mut time = report.converge_instructions as f64;
    let mut hits = 0usize;
    let mut queries = 0usize;
    let workers = cores - 1;

    // Each dispatch round: the main thread executes the superstep at `t`
    // itself while worker rank k (k = 1..P-1) speculates superstep t+k —
    // paying the linear-in-rank recursive-prediction latency first. The main
    // thread then consumes hits until the first superstep whose speculation
    // is unusable (wrong prediction chain, or not worth waiting for), which
    // it executes itself as the start of the next round — modelling the
    // continuous re-dispatch the allocator performs at every occurrence.
    let mut t = 0usize;
    while t < lengths.len() {
        let dispatch_time = time;
        let round_end = (t + workers + 1).min(lengths.len());

        // Main thread executes superstep t itself.
        time += lengths[t];
        let mut advanced = 1usize;
        for (index, &length) in lengths.iter().enumerate().take(round_end).skip(t + 1) {
            // Query the distributed cache (max-reduction + winner transfer).
            time += query_cost;
            queries += 1;
            let rank = (index - t) as f64;
            let chain_valid = (t..index).all(|i| correct[i]);
            let ready_time = dispatch_time + profile.rollout_cost_per_step * rank + length;
            if chain_valid {
                let wait = (ready_time - time).max(0.0);
                if wait + p2p_cost < lengths[index] {
                    // Hit: wait for the worker if needed, then fast-forward.
                    time += wait + p2p_cost;
                    hits += 1;
                    advanced += 1;
                    continue;
                }
            }
            // Miss: this superstep starts the next round on the main thread.
            break;
        }
        t += advanced;
    }

    let scaling = sequential_time / time.max(1.0);
    let hit_rate = if queries == 0 { 0.0 } else { hits as f64 / queries as f64 };
    ScalingPoint { cores, scaling, hit_rate }
}

/// Convenience: a whole scaling curve over a set of core counts.
pub fn scaling_curve(
    report: &RunReport,
    profile: &PlatformProfile,
    mode: ScalingMode,
    core_counts: &[usize],
) -> Vec<ScalingPoint> {
    core_counts.iter().map(|&cores| simulate(report, profile, mode, cores)).collect()
}

/// The standard core counts used for the 32-core server figures.
pub fn server_core_counts() -> Vec<usize> {
    (1..=32).collect()
}

/// The standard core counts used for the Blue Gene/P figures (powers of two).
pub fn blue_gene_core_counts(max: usize) -> Vec<usize> {
    let mut counts = Vec::new();
    let mut p = 2usize;
    while p <= max {
        counts.push(p);
        p *= 2;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recognizer::RecognizedIp;
    use crate::runtime::SuperstepRecord;
    use asc_tvm::state::StateVector;

    /// Builds a synthetic report with `n` supersteps of equal length and the
    /// given per-superstep prediction accuracy pattern.
    fn synthetic_report(n: usize, length: u64, correct: impl Fn(usize) -> bool) -> RunReport {
        RunReport {
            rip: RecognizedIp {
                ip: 0,
                stride: 1,
                mean_superstep: length as f64,
                accuracy: 1.0,
                score: length as f64,
            },
            unique_ips: 10,
            state_bits: 1024,
            excited_bits: 32,
            converge_instructions: length * 2,
            total_instructions: length * n as u64,
            executed_instructions: length * n as u64,
            fast_forwarded_instructions: 0,
            supersteps: (0..n)
                .map(|i| SuperstepRecord {
                    index: i,
                    instructions: length,
                    read_bytes: 40,
                    write_bytes: 40,
                    query_bits: 640,
                    prediction_correct: Some(correct(i)),
                })
                .collect(),
            ensemble_errors: None,
            weight_matrix: None,
            cache_stats: Default::default(),
            speculation: None,
            planner: None,
            health: Default::default(),
            economics: None,
            checkpoints: None,
            tier: Default::default(),
            final_state: StateVector::new(16).unwrap(),
            halted: true,
        }
    }

    #[test]
    fn perfect_predictions_scale_nearly_linearly_at_moderate_core_counts() {
        let report = synthetic_report(2000, 10_000, |_| true);
        let profile = PlatformProfile::server_32core();
        let p8 = simulate(&report, &profile, ScalingMode::Lasc, 8);
        let p32 = simulate(&report, &profile, ScalingMode::Lasc, 32);
        assert!(p8.scaling > 6.0, "{p8:?}");
        assert!(p32.scaling > 20.0, "{p32:?}");
        assert!(p32.scaling > p8.scaling);
        assert!(p32.hit_rate > 0.9);
    }

    #[test]
    fn one_core_never_scales() {
        let report = synthetic_report(100, 1_000, |_| true);
        let point = simulate(&report, &PlatformProfile::server_32core(), ScalingMode::Lasc, 1);
        assert_eq!(point.scaling, 1.0);
    }

    #[test]
    fn wrong_predictions_cap_scaling() {
        // Every fourth prediction wrong: chains break quickly, so scaling
        // saturates well below the core count.
        let report = synthetic_report(2000, 10_000, |i| i % 4 != 3);
        let profile = PlatformProfile::server_32core();
        let p32 = simulate(&report, &profile, ScalingMode::Lasc, 32);
        let perfect =
            simulate(&synthetic_report(2000, 10_000, |_| true), &profile, ScalingMode::Lasc, 32);
        assert!(p32.scaling < perfect.scaling * 0.5, "{p32:?} vs {perfect:?}");
        assert!(p32.scaling > 1.5);
    }

    #[test]
    fn oracle_mode_recovers_perfect_prediction_scaling() {
        let flawed = synthetic_report(1000, 10_000, |i| i % 3 != 0);
        let profile = PlatformProfile::server_32core();
        let lasc = simulate(&flawed, &profile, ScalingMode::Lasc, 32);
        let oracle = simulate(&flawed, &profile, ScalingMode::Oracle, 32);
        assert!(oracle.scaling > lasc.scaling);
        assert!(oracle.hit_rate > 0.9);
    }

    #[test]
    fn cycle_count_mode_is_an_upper_bound_on_lasc() {
        let report = synthetic_report(1000, 2_000, |_| true);
        let profile = PlatformProfile::blue_gene_p();
        for cores in [8, 64, 512] {
            let lasc = simulate(&report, &profile, ScalingMode::Lasc, cores);
            let cycle = simulate(&report, &profile, ScalingMode::CycleCount, cores);
            assert!(cycle.scaling >= lasc.scaling - 1e-9, "cores {cores}");
        }
    }

    #[test]
    fn rollout_latency_limits_blue_gene_scaling() {
        // With thousands of cores the linear-in-rank prediction latency means
        // distant workers are not ready in time, so scaling rolls off well
        // below the core count — the effect the paper reports at ~1024 cores.
        let report = synthetic_report(4000, 10_000, |_| true);
        let profile = PlatformProfile::blue_gene_p();
        let p256 = simulate(&report, &profile, ScalingMode::Lasc, 256);
        let p4096 = simulate(&report, &profile, ScalingMode::Lasc, 4096);
        assert!(p256.scaling > 100.0, "{p256:?}");
        assert!(p4096.scaling < 4096.0 * 0.5, "{p4096:?}");
        assert!(p4096.scaling >= p256.scaling * 0.5, "{p4096:?} vs {p256:?}");
    }

    #[test]
    fn available_parallelism_limits_scaling() {
        // Only 50 supersteps exist: no matter how many cores, scaling cannot
        // exceed ~50 (the paper's 2000-node Ising drop-off).
        let report = synthetic_report(50, 10_000, |_| true);
        let profile = PlatformProfile::blue_gene_p();
        let point = simulate(&report, &profile, ScalingMode::CycleCount, 4096);
        assert!(point.scaling <= 51.0);
        assert!(point.scaling > 10.0);
    }

    #[test]
    fn curves_are_sorted_by_core_count() {
        let report = synthetic_report(500, 5_000, |_| true);
        let profile = PlatformProfile::server_32core();
        let curve = scaling_curve(&report, &profile, ScalingMode::Lasc, &server_core_counts());
        assert_eq!(curve.len(), 32);
        assert_eq!(curve[0].cores, 1);
        assert_eq!(curve[31].cores, 32);
        let bg = blue_gene_core_counts(4096);
        assert_eq!(*bg.last().unwrap(), 4096);
    }
}
