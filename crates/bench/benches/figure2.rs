//! Figure 2 — percentage of validation / commit / other time on the
//! red-black tree, NOrec vs InvalSTM, at 8/16/32/48 threads, normalized
//! to NOrec's execution time.
//!
//! The simulated sweep reproduces the paper's thread counts. Measured
//! phase shares on this host are the ledger's
//! `phase.{validation,commit}_share.E` rows, not timed a second time here.

use bench::banner;
use simcore::{SimAlgorithm, SimConfig};

fn simulated() {
    banner(
        "Figure 2 (simulated 64-core)",
        "red-black tree time breakdown, normalized to NOrec",
        "InvalSTM spends a larger share in commit than NOrec; the \
         non-transactional share shrinks as threads grow",
    );
    println!(
        "{:>8} {:>10} {:>8} {:>11} {:>8} {:>8}",
        "threads", "algorithm", "total", "validation", "commit", "other"
    );
    for t in [8usize, 16, 32, 48] {
        let mut norec_time = 1.0;
        for algo in [SimAlgorithm::NOrec, SimAlgorithm::InvalStm] {
            let mut cfg = SimConfig::new(algo, t, simcore::presets::rbtree(50));
            cfg.max_commits = 40_000;
            cfg.duration_cycles = u64::MAX / 4;
            let r = simcore::simulate(&cfg);
            let total = r.wall_cycles as f64;
            if algo == SimAlgorithm::NOrec {
                norec_time = total;
            }
            let rel = total / norec_time;
            let (v, c, o) = r.breakdown();
            println!(
                "{t:>8} {:>10} {rel:>8.2} {:>10.0}% {:>7.0}% {:>7.0}%",
                algo.name(),
                v * 100.0 * rel,
                c * 100.0 * rel,
                o * 100.0 * rel,
            );
        }
    }
}

fn main() {
    simulated();
}
