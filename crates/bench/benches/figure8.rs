//! Figure 8 — execution time on the STAMP benchmarks (kmeans, ssca2,
//! labyrinth, intruder, genome, vacation), thread sweep, algorithms
//! {NOrec, InvalSTM, RInval-V1, RInval-V2(4)}.
//!
//! Fixed-work experiments: each simulated point executes the same number
//! of committed transactions; lower is better. The real layer runs every
//! application end-to-end under every engine at small thread counts and
//! *verifies the computed results*. On-host timing is the ledger's
//! (`stamp_vacation`), not taken a second time here.

use bench::{banner, header, row, sim_fixed_work, sim_lineup, PAPER_THREADS, REAL_THREADS};
use rinval::{AlgorithmKind, Stm};
use stamp::App;

fn expectation(app: App) -> &'static str {
    match app {
        App::Kmeans | App::Ssca2 | App::Intruder => {
            "RInval-V2 best from ~24 threads; up to ~10x over InvalSTM and \
             ~2x over NOrec"
        }
        App::Genome | App::Vacation => {
            "NOrec best (read-intensive; aborts dominate invalidation); \
             RInval between NOrec and InvalSTM"
        }
        App::Labyrinth | App::Bayes => {
            "all algorithms roughly equal (non-transactional work dominates)"
        }
    }
}

fn simulated() {
    for app in App::ALL {
        let w = simcore::presets::by_name(app.name()).expect("preset");
        banner(
            "Figure 8 (simulated 64-core)",
            &format!("{} execution time for 20k commits [ms]", app.name()),
            expectation(app),
        );
        header(&sim_lineup().map(|a| a.name()));
        for t in PAPER_THREADS {
            let vals: Vec<f64> = sim_lineup()
                .iter()
                .map(|&a| sim_fixed_work(a, t, &w, 20_000).0 * 1000.0)
                .collect();
            row(t, &vals);
        }
    }
}

fn real_cross_check() {
    banner(
        "Figure 8 (real implementation, host threads)",
        "every application's output, verified under every engine",
        "every run's output is checked (clustering, graph counts, attack \
         detection, path disjointness, conservation invariants)",
    );
    for app in App::ALL {
        for t in REAL_THREADS {
            for algo in AlgorithmKind::all(4, 4) {
                let stm = Stm::builder(algo)
                    .heap_words(app.default_heap_words())
                    .build();
                if let Err(e) = app.run_small(&stm, t).1 {
                    panic!("{} verification failed under {algo:?}: {e}", app.name());
                }
            }
        }
        println!(
            "{:>10}: verified at {REAL_THREADS:?} threads under {}",
            app.name(),
            AlgorithmKind::NAMES.join(", ")
        );
    }
}

fn main() {
    simulated();
    real_cross_check();
}
