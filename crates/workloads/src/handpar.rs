//! Hand-parallelized baseline.
//!
//! Figure 4 of the paper compares LASC against a *hand-parallelized* version
//! of the Ising kernel (partition the linked list once, then process the
//! partitions on separate cores). This module provides the analytic speedup
//! model behind that line (a sequential partitioning pass plus perfectly
//! parallel work), mirroring how the paper's hand-parallelized line was
//! obtained on its 32-core server.

/// Analytic speedup of a hand-parallelized program on `cores` cores.
///
/// `sequential_fraction` is the fraction of the total work that cannot be
/// parallelized (the partitioning pass for Ising, loop setup for 2mm and
/// Collatz). This is Amdahl's law, which is exactly the model behind the
/// paper's near-ideal hand-parallelized line.
pub fn amdahl_speedup(cores: usize, sequential_fraction: f64) -> f64 {
    assert!(cores >= 1, "need at least one core");
    let s = sequential_fraction.clamp(0.0, 1.0);
    1.0 / (s + (1.0 - s) / cores as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_limits() {
        assert!((amdahl_speedup(1, 0.01) - 1.0).abs() < 1e-9);
        assert!((amdahl_speedup(32, 0.0) - 32.0).abs() < 1e-9);
        // With a 5% sequential part the asymptote is 20x.
        assert!(amdahl_speedup(10_000, 0.05) < 20.0);
        assert!(amdahl_speedup(10_000, 0.05) > 19.0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn amdahl_rejects_zero_cores() {
        amdahl_speedup(0, 0.1);
    }
}
