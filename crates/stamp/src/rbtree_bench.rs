//! The paper's red-black-tree micro-benchmark (Figs. 2 and 7).
//!
//! "a red-black tree with 64K nodes and a delay of 10 no-ops between
//! transactions, for two different workloads (percentage of reads is 50%
//! and 80%). Both workloads execute a series of red-black tree operations,
//! one per transaction, in one second, and compute the overall throughput."
//!
//! The key range is twice the initial size so the tree hovers around 50%
//! occupancy; non-read operations split evenly between insert and remove.

use crate::{nontx_work, RunReport, SplitMix};
use rinval::{PhaseStats, Stm};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use txds::RbTree;

/// Red-black-tree workload parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Initial number of elements (the paper uses 64K; tests use less).
    pub initial_size: u64,
    /// Percentage of lookup operations (the paper plots 50 and 80).
    pub read_pct: u32,
    /// Busy no-ops between transactions (paper: 10).
    pub delay_noops: u64,
    /// How long the measured phase runs (paper: 1 s).
    pub duration: Duration,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            initial_size: 64 * 1024,
            read_pct: 50,
            delay_noops: 10,
            duration: Duration::from_secs(1),
            seed: 0xB0B,
        }
    }
}

impl Config {
    /// Heap words needed for this configuration (nodes + slack for churn).
    pub fn heap_words(&self) -> usize {
        (self.initial_size as usize * 2 + 1024) * 6 + (1 << 12)
    }
}

/// Builds the initial tree (single-threaded, before measurement).
pub fn setup(stm: &Stm, cfg: &Config) -> RbTree {
    let tree = RbTree::new(stm);
    let mut th = stm.register_thread();
    let range = cfg.initial_size * 2;
    let mut rng = SplitMix::new(cfg.seed);
    let mut inserted = 0;
    while inserted < cfg.initial_size {
        let k = rng.below(range);
        if th.run(|tx| tree.insert(tx, k, k)) {
            inserted += 1;
        }
    }
    tree
}

/// Runs the timed mixed workload against an already-built tree.
pub fn run_on(stm: &Stm, tree: RbTree, threads: usize, cfg: &Config) -> RunReport {
    let range = cfg.initial_size * 2;
    let stop = AtomicBool::new(false);
    let stop = &stop;
    let mut merged = PhaseStats::default();
    let started = Instant::now();
    let thread_stats: Vec<PhaseStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cfg = cfg.clone();
                s.spawn(move || {
                    let mut th = stm.register_thread();
                    let mut rng = SplitMix::new(cfg.seed ^ (t as u64 + 1) << 17);
                    while !stop.load(Ordering::Relaxed) {
                        let k = rng.below(range);
                        let op = rng.below(100) as u32;
                        if op < cfg.read_pct {
                            th.run(|tx| tree.contains(tx, k));
                        } else if op.is_multiple_of(2) {
                            th.run(|tx| tree.insert(tx, k, k));
                        } else {
                            th.run(|tx| tree.remove(tx, k));
                        }
                        nontx_work(cfg.delay_noops);
                    }
                    th.take_stats()
                })
            })
            .collect();
        // Timekeeper: let the workers run for the configured duration.
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = started.elapsed();
    for st in &thread_stats {
        merged.merge(st);
    }
    let checksum = tree.snapshot_keys(stm).len() as u64;
    RunReport {
        wall,
        stats: merged,
        threads,
        checksum,
        heap: stm.heap_stats(),
        server: stm.server_stats(),
    }
}

/// Convenience: setup + run with a fresh tree.
pub fn run(stm: &Stm, threads: usize, cfg: &Config) -> RunReport {
    let tree = setup(stm, cfg);
    run_on(stm, tree, threads, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rinval::AlgorithmKind;

    fn small() -> Config {
        Config {
            initial_size: 256,
            read_pct: 50,
            delay_noops: 5,
            duration: Duration::from_millis(120),
            seed: 42,
        }
    }

    #[test]
    fn setup_builds_exact_size() {
        let cfg = small();
        let stm = Stm::builder(AlgorithmKind::NOrec)
            .heap_words(cfg.heap_words())
            .build();
        let tree = setup(&stm, &cfg);
        assert_eq!(tree.snapshot_keys(&stm).len() as u64, cfg.initial_size);
        tree.check_invariants(&stm).unwrap();
    }

    #[test]
    fn workload_preserves_tree_invariants() {
        for algo in [
            AlgorithmKind::NOrec,
            AlgorithmKind::InvalStm,
            AlgorithmKind::RInvalV2 { invalidators: 2 },
        ] {
            let cfg = small();
            let stm = Stm::builder(algo).heap_words(cfg.heap_words()).build();
            let tree = setup(&stm, &cfg);
            let report = run_on(&stm, tree, 3, &cfg);
            assert!(
                report.stats.commits > 0,
                "no transactions ran under {algo:?}"
            );
            tree.check_invariants(&stm)
                .unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        }
    }

    #[test]
    fn read_pct_100_changes_nothing() {
        let mut cfg = small();
        cfg.read_pct = 100;
        let stm = Stm::builder(AlgorithmKind::NOrec)
            .heap_words(cfg.heap_words())
            .build();
        let tree = setup(&stm, &cfg);
        let before = tree.snapshot_keys(&stm);
        let report = run_on(&stm, tree, 2, &cfg);
        assert_eq!(tree.snapshot_keys(&stm), before);
        assert!(report.stats.commits > 0);
    }
}
