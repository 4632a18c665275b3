//! Figure 3 — percentage of validation / commit / other time on the STAMP
//! benchmarks, NOrec vs InvalSTM, normalized to NOrec.
//!
//! The paper's reading: commit share is higher under InvalSTM for
//! intruder / kmeans / ssca2; genome and vacation additionally blow up
//! InvalSTM's read/abort side; labyrinth (and bayes) are dominated by
//! non-transactional work under every algorithm.
//!
//! Simulated sweep only: measured phase shares are the ledger's rows, and
//! every application's output is verified under every engine by
//! `figure8` and `tests/stamp_matrix.rs`.

use bench::banner;
use simcore::{SimAlgorithm, SimConfig};
use stamp::App;

fn simulated() {
    banner(
        "Figure 3 (simulated 64-core, 16 threads)",
        "STAMP time breakdown, normalized to NOrec",
        "InvalSTM commit share > NOrec's on intruder/kmeans/ssca2; \
         labyrinth and bayes ~all non-transactional under both",
    );
    println!(
        "{:>10} {:>10} {:>8} {:>11} {:>8} {:>8}",
        "app", "algorithm", "total", "validation", "commit", "other"
    );
    for app in App::ALL {
        let w = simcore::presets::by_name(app.name()).expect("preset");
        let mut norec_time = 1.0;
        for algo in [SimAlgorithm::NOrec, SimAlgorithm::InvalStm] {
            let mut cfg = SimConfig::new(algo, 16, w.clone());
            cfg.max_commits = 20_000;
            cfg.duration_cycles = u64::MAX / 4;
            let r = simcore::simulate(&cfg);
            let total = r.wall_cycles as f64;
            if algo == SimAlgorithm::NOrec {
                norec_time = total;
            }
            let rel = total / norec_time;
            let (v, c, o) = r.breakdown();
            println!(
                "{:>10} {:>10} {rel:>8.2} {:>10.0}% {:>7.0}% {:>7.0}%",
                app.name(),
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
