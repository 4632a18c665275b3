//! Cross-crate matrix: every STAMP-like application, verified, under
//! every algorithm family. Small configurations keep the matrix fast;
//! the point is end-to-end correctness of app × algorithm combinations,
//! not performance.

use rinval::{AlgorithmKind, Stm};

fn algorithms() -> [AlgorithmKind; 4] {
    [
        AlgorithmKind::NOrec,
        AlgorithmKind::InvalStm,
        AlgorithmKind::RInvalV1,
        AlgorithmKind::RInvalV2 { invalidators: 2 },
    ]
}

#[test]
fn kmeans_converges_under_every_algorithm() {
    let cfg = stamp::kmeans::Config {
        points: 384,
        dims: 2,
        clusters: 4,
        iterations: 3,
        nontx_noops: 4,
        seed: 31,
    };
    for algo in algorithms() {
        let stm = Stm::builder(algo).heap_words(1 << 14).build();
        let report = stamp::kmeans::run(&stm, 2, &cfg);
        stamp::kmeans::verify(&cfg, &report).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
    }
}

#[test]
fn ssca2_graph_is_exact_under_every_algorithm() {
    let cfg = stamp::ssca2::Config {
        vertices: 128,
        edges: 500,
        locality_block: 16,
        seed: 32,
    };
    for algo in algorithms() {
        let stm = Stm::builder(algo).heap_words(1 << 14).build();
        let report = stamp::ssca2::run(&stm, 2, &cfg);
        stamp::ssca2::verify(&stm, &cfg, &report).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
    }
}

#[test]
fn genome_dedup_is_exact_under_every_algorithm() {
    let cfg = stamp::genome::Config {
        genome_len: 200,
        segment_len: 8,
        copies: 3,
        seed: 33,
    };
    for algo in algorithms() {
        let stm = Stm::builder(algo).heap_words(1 << 16).build();
        let report = stamp::genome::run(&stm, 2, &cfg);
        stamp::genome::verify(&cfg, &report).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
    }
}

#[test]
fn intruder_detects_exactly_planted_attacks_under_every_algorithm() {
    let cfg = stamp::intruder::Config {
        flows: 48,
        frags_per_flow: 4,
        attack_every: 6,
        seed: 34,
    };
    for algo in algorithms() {
        let stm = Stm::builder(algo).heap_words(1 << 14).build();
        let report = stamp::intruder::run(&stm, 2, &cfg);
        stamp::intruder::verify(&cfg, &report).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
    }
}

#[test]
fn vacation_conserves_under_every_algorithm() {
    let cfg = stamp::vacation::Config {
        resources: 24,
        customers: 12,
        initial_avail: 10,
        transactions: 250,
        queries: 4,
        reserve_pct: 80,
        seed: 35,
    };
    for algo in algorithms() {
        let stm = Stm::builder(algo).heap_words(1 << 16).build();
        stamp::vacation::run_verified(&stm, 2, &cfg).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
    }
}

#[test]
fn labyrinth_routes_disjoint_paths_under_every_algorithm() {
    let cfg = stamp::labyrinth::Config {
        width: 20,
        height: 20,
        routes: 6,
        seed: 36,
    };
    for algo in algorithms() {
        let stm = Stm::builder(algo).heap_words(1 << 12).build();
        let report = stamp::labyrinth::run_verified(&stm, 2, &cfg)
            .unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        assert!(report.checksum > 0, "{algo:?} routed nothing");
    }
}

#[test]
fn bayes_learns_acyclic_graph_under_every_algorithm() {
    let cfg = stamp::bayes::Config {
        vars: 12,
        candidates: 80,
        score_noops: 20,
        seed: 37,
    };
    for algo in algorithms() {
        let stm = Stm::builder(algo).heap_words(1 << 10).build();
        stamp::bayes::run_verified(&stm, 2, &cfg).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
    }
}

#[test]
fn rbtree_workload_preserves_invariants_under_every_algorithm() {
    let cfg = stamp::rbtree_bench::Config {
        initial_size: 200,
        read_pct: 50,
        delay_noops: 2,
        duration: std::time::Duration::from_millis(80),
        seed: 38,
    };
    for algo in algorithms() {
        let stm = Stm::builder(algo).heap_words(cfg.heap_words()).build();
        let tree = stamp::rbtree_bench::setup(&stm, &cfg);
        stamp::rbtree_bench::run_on(&stm, tree, 3, &cfg);
        tree.check_invariants(&stm)
            .unwrap_or_else(|e| panic!("{algo:?}: {e}"));
    }
}
