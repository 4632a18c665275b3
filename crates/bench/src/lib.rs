//! Shared plumbing for the figure harnesses in `benches/`.
//!
//! Every figure bench has two layers:
//!
//! 1. **Simulated 64-core sweep** (`simcore`) — regenerates the paper's
//!    figure at its original thread counts. This is the substitution for
//!    the paper's testbed documented in DESIGN.md §4.
//! 2. **Real-implementation cross-check** (`figure7`, `figure8`) — runs
//!    every `rinval` engine on host threads at small scale and verifies
//!    the output (the tree's invariants, each application's verifier).
//!    It times nothing: on-host timing is the ledger's.
//!
//! Output is plain aligned text, one table per paper panel, suitable for
//! diffing into EXPERIMENTS.md.

use simcore::{CostModel, SimAlgorithm, SimConfig, SimResult, Workload};

/// The thread counts the paper sweeps in Figs. 7 and 8.
pub const PAPER_THREADS: [usize; 8] = [2, 4, 8, 16, 24, 32, 48, 64];

/// Thread counts for on-host cross-checks (kept small: the host may have
/// a single core).
pub const REAL_THREADS: [usize; 3] = [1, 2, 4];

/// The algorithm line-up of the paper's figures, as simulator kinds.
pub fn sim_lineup() -> [SimAlgorithm; 4] {
    SimAlgorithm::paper_lineup()
}

/// Prints a table header: `threads` + one column per algorithm.
pub fn header(cols: &[&str]) {
    print!("{:>8}", "threads");
    for c in cols {
        print!("{c:>12}");
    }
    println!();
}

/// Prints one table row.
pub fn row(threads: usize, values: &[f64]) {
    print!("{threads:>8}");
    for v in values {
        if *v >= 1000.0 {
            print!("{v:>12.0}");
        } else {
            print!("{v:>12.2}");
        }
    }
    println!();
}

/// Simulates one throughput point (Ktx/s) on the 64-core model.
pub fn sim_throughput(algo: SimAlgorithm, threads: usize, w: &Workload, cycles: u64) -> f64 {
    let mut cfg = SimConfig::new(algo, threads, w.clone());
    cfg.duration_cycles = cycles;
    let r = simcore::simulate(&cfg);
    r.throughput(&CostModel::default()) / 1000.0
}

/// Simulates one fixed-work point and returns (execution seconds, result).
pub fn sim_fixed_work(
    algo: SimAlgorithm,
    threads: usize,
    w: &Workload,
    commits: u64,
) -> (f64, SimResult) {
    let mut cfg = SimConfig::new(algo, threads, w.clone());
    cfg.max_commits = commits;
    cfg.duration_cycles = u64::MAX / 4;
    let r = simcore::simulate(&cfg);
    (r.wall_seconds(&CostModel::default()), r)
}

/// A standard banner so EXPERIMENTS.md extracts are self-describing.
pub fn banner(figure: &str, what: &str, expectation: &str) {
    println!("==============================================================");
    println!("{figure}: {what}");
    println!("paper expectation: {expectation}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rinval::AlgorithmKind;

    #[test]
    fn lineups_align() {
        let sim = sim_lineup();
        let real = AlgorithmKind::paper_lineup();
        assert_eq!(sim.len(), real.len());
        for (s, r) in sim.iter().zip(real.iter()) {
            assert_eq!(s.name(), r.name(), "figure legends must match");
        }
    }

    #[test]
    fn sim_throughput_is_positive() {
        let t = sim_throughput(
            SimAlgorithm::NOrec,
            4,
            &simcore::presets::rbtree(50),
            1_000_000,
        );
        assert!(t > 0.0);
    }

    #[test]
    fn sim_fixed_work_reaches_budget() {
        let (secs, r) = sim_fixed_work(
            SimAlgorithm::RInvalV2 { invalidators: 4 },
            8,
            &simcore::presets::ssca2(),
            1000,
        );
        assert!(secs > 0.0);
        assert!(r.commits >= 1000);
    }
}
