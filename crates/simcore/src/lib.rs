//! # simcore — a deterministic discrete-event multicore simulator
//!
//! The paper's evaluation ran on a 64-core AMD Opteron; this repository
//! may be built and tested on a laptop (or, as in CI, a single core), so
//! wall-clock scaling of the *real* implementation cannot reproduce
//! Figures 2/3/7/8 directly. `simcore` closes that gap: it executes the
//! same protocol state machines as the `rinval` crate — NOrec's
//! seqlock + incremental validation, InvalSTM's in-lock invalidation,
//! RInval's commit-server mailboxes and invalidation-server pipeline —
//! over an explicit cost model of a cache-coherent 64-core machine
//! (coherence-miss, CAS and spin-interference costs), inside a
//! deterministic event-driven engine.
//!
//! What it is: a *protocol-level* simulator. Queueing on the global lock,
//! the commit-server backlog, invalidation pipelining, reader stalls
//! during write-back, abort cascades — all emerge from event timing.
//!
//! What it is not: a cycle-accurate CPU model. Absolute numbers are
//! indicative; the deliverable is the paper's *shape* — who wins at which
//! thread count, and by roughly what factor (see EXPERIMENTS.md).
//!
//! ```
//! use simcore::{presets, simulate, SimAlgorithm, SimConfig};
//!
//! let cfg = SimConfig::new(
//!     SimAlgorithm::RInvalV2 { invalidators: 4 },
//!     32,
//!     presets::rbtree(50),
//! );
//! let result = simulate(&cfg);
//! assert!(result.commits > 0);
//! ```

#![warn(missing_docs)]

mod engine;
pub mod model;
pub mod presets;

pub use engine::simulate;
pub use model::{CostModel, SimAlgorithm, SimConfig, SimResult, Workload};

/// Sweeps thread counts for one algorithm/workload pair, returning
/// `(threads, result)` rows — the building block of every figure harness.
pub fn sweep_threads(
    algo: SimAlgorithm,
    threads: &[usize],
    workload: &Workload,
    adjust: impl Fn(&mut SimConfig),
) -> Vec<(usize, SimResult)> {
    threads
        .iter()
        .map(|&t| {
            let mut cfg = SimConfig::new(algo, t, workload.clone());
            adjust(&mut cfg);
            (t, simulate(&cfg))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(algo: SimAlgorithm, threads: usize, w: Workload) -> SimResult {
        let mut cfg = SimConfig::new(algo, threads, w);
        cfg.duration_cycles = 3_000_000;
        simulate(&cfg)
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick(SimAlgorithm::NOrec, 8, presets::rbtree(50));
        let b = quick(SimAlgorithm::NOrec, 8, presets::rbtree(50));
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.aborts, b.aborts);
        assert_eq!(a.validation_cycles, b.validation_cycles);
    }

    #[test]
    fn every_algorithm_makes_progress() {
        for algo in [
            SimAlgorithm::NOrec,
            SimAlgorithm::InvalStm,
            SimAlgorithm::RInvalV1,
            SimAlgorithm::RInvalV2 { invalidators: 4 },
            SimAlgorithm::RInvalV3 {
                invalidators: 4,
                steps_ahead: 3,
            },
        ] {
            let r = quick(algo, 8, presets::rbtree(50));
            assert!(r.commits > 100, "{algo:?} committed only {}", r.commits);
        }
    }

    #[test]
    fn single_thread_never_aborts() {
        for algo in [
            SimAlgorithm::NOrec,
            SimAlgorithm::InvalStm,
            SimAlgorithm::RInvalV2 { invalidators: 2 },
        ] {
            let r = quick(algo, 1, presets::rbtree(50));
            assert_eq!(r.aborts, 0, "{algo:?} aborted with one thread");
        }
    }

    #[test]
    fn more_contention_means_more_aborts() {
        let mut w = presets::rbtree(0);
        w.conflict_prob = 0.0;
        w.bloom_fp_prob = 0.0;
        let none = quick(SimAlgorithm::InvalStm, 16, w.clone());
        w.conflict_prob = 0.3;
        let lots = quick(SimAlgorithm::InvalStm, 16, w);
        assert_eq!(none.aborts, 0);
        assert!(lots.aborts > 0);
        assert!(lots.abort_rate() > none.abort_rate());
    }

    #[test]
    fn throughput_grows_with_threads_for_rinval() {
        let w = presets::rbtree(50);
        let rows = sweep_threads(
            SimAlgorithm::RInvalV2 { invalidators: 4 },
            &[1, 8],
            &w,
            |c| c.duration_cycles = 3_000_000,
        );
        let t1 = rows[0].1.throughput(&CostModel::default());
        let t8 = rows[1].1.throughput(&CostModel::default());
        assert!(t8 > t1 * 2.0, "no scaling: {t1} -> {t8}");
    }

    #[test]
    fn fixed_work_mode_stops_at_budget() {
        let mut cfg = SimConfig::new(SimAlgorithm::NOrec, 4, presets::ssca2());
        cfg.max_commits = 500;
        cfg.duration_cycles = u64::MAX / 4;
        let r = simulate(&cfg);
        assert!(r.commits >= 500);
        assert!(r.commits < 500 + cfg.threads as u64 + 1);
    }

    #[test]
    fn breakdown_accounts_all_phases() {
        let r = quick(SimAlgorithm::InvalStm, 8, presets::rbtree(50));
        let (v, c, o) = r.breakdown();
        assert!(v > 0.0 && c > 0.0 && o > 0.0);
        assert!((v + c + o - 1.0).abs() < 1e-9);
    }

    #[test]
    fn server_stall_hurts_v2_more_than_v3() {
        let w = presets::rbtree(50);
        let mk = |algo| {
            let mut cfg = SimConfig::new(algo, 24, w.clone());
            cfg.duration_cycles = 3_000_000;
            cfg.server_stall = 4_000;
            simulate(&cfg).commits
        };
        let v2 = mk(SimAlgorithm::RInvalV2 { invalidators: 4 });
        let v3 = mk(SimAlgorithm::RInvalV3 {
            invalidators: 4,
            steps_ahead: 4,
        });
        assert!(
            v3 as f64 >= v2 as f64 * 0.95,
            "V3 ({v3}) should tolerate stalls at least as well as V2 ({v2})"
        );
    }
}
