//! Figure 7 — red-black tree throughput (K transactions/second), 64K
//! elements, 10 no-ops between transactions, panels (a) 50% reads and
//! (b) 80% reads, algorithms {NOrec, InvalSTM, RInval-V1, RInval-V2(4)}.
//!
//! Layer 1 regenerates the figure on the simulated 64-core machine; layer
//! 2 runs every real engine on host threads against a smaller tree and
//! verifies the tree's invariants after every run. On-host throughput is
//! the ledger's (`rbtree_w50`, `rbtree_ro`), not timed a second time here.

use bench::{banner, header, row, sim_lineup, sim_throughput, PAPER_THREADS, REAL_THREADS};
use rinval::{AlgorithmKind, Stm};
use std::time::Duration;

fn simulated(read_pct: u32) {
    banner(
        "Figure 7 (simulated 64-core)",
        &format!("red-black tree throughput, {read_pct}% reads [Ktx/s]"),
        "NOrec best below ~16 threads; NOrec and InvalSTM degrade beyond \
         16 while RInval-V1/V2 sustain; RInval-V2 up to ~2x NOrec and ~4x \
         InvalSTM at high thread counts",
    );
    let w = simcore::presets::rbtree(read_pct);
    header(&sim_lineup().map(|a| a.name()));
    for t in PAPER_THREADS {
        let vals: Vec<f64> = sim_lineup()
            .iter()
            .map(|&a| sim_throughput(a, t, &w, 10_000_000))
            .collect();
        row(t, &vals);
    }
}

fn real_cross_check() {
    banner(
        "Figure 7 (real implementation, host threads)",
        "red-black tree, 50% reads, 2K elements: invariants after every run",
        "every engine leaves a valid red-black tree",
    );
    let cfg = stamp::rbtree_bench::Config {
        initial_size: 2 * 1024,
        read_pct: 50,
        delay_noops: 10,
        duration: Duration::from_millis(150),
        seed: 7,
    };
    for t in REAL_THREADS {
        for algo in AlgorithmKind::all(4, 4) {
            let stm = Stm::builder(algo).heap_words(cfg.heap_words()).build();
            let tree = stamp::rbtree_bench::setup(&stm, &cfg);
            stamp::rbtree_bench::run_on(&stm, tree, t, &cfg);
            tree.check_invariants(&stm)
                .unwrap_or_else(|e| panic!("{algo:?} corrupted the tree: {e}"));
        }
        println!(
            "{t:>8} threads: tree valid under {}",
            AlgorithmKind::NAMES.join(", ")
        );
    }
}

fn main() {
    simulated(50);
    simulated(80);
    real_cross_check();
}
