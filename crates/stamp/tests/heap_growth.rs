//! Acceptance test for the segmented growable heap: long-running STAMP
//! workloads configured with an initial arena that is a small fraction of
//! their peak working set must complete — growing segment-by-segment and
//! recycling freed nodes — instead of exhausting a fixed arena.

use rinval::{AlgorithmKind, Stm};
use stamp::{intruder, rbtree_bench, vacation};
use std::time::Duration;

/// Vacation's tables (3 × 128 resources and 64 customers, 6 words a row)
/// outgrow a 1 Ki-word initial arena, whose three base segments hold
/// 1,535 words. Set-up builds them outside any transaction, so that is
/// where the heap grows; the run itself never allocates (every customer
/// key pre-exists) and must complete and conserve on the grown heap.
#[test]
fn vacation_completes_with_tiny_initial_arena() {
    for algo in [
        AlgorithmKind::NOrec,
        AlgorithmKind::RInvalV2 { invalidators: 2 },
    ] {
        let stm = Stm::builder(algo).heap_words(1 << 10).build();
        let cfg = vacation::Config {
            resources: 128,
            customers: 64,
            initial_avail: 30,
            transactions: 1200,
            queries: 6,
            reserve_pct: 80,
            seed: 0xACA7,
        };
        let fresh = stm.heap_stats();
        let db = vacation::Database::setup(&stm, &cfg);
        let built = stm.heap_stats();
        assert!(
            built.live_segments > fresh.live_segments,
            "{algo:?}: set-up never outgrew the initial arena \
             (test misconfigured): {built:?}"
        );
        let r = vacation::run_on(&stm, db, 2, &cfg);
        db.verify(&stm, &cfg)
            .unwrap_or_else(|e| panic!("{algo:?}: vacation failed: {e}"));
        assert!(r.stats.commits > 0, "{algo:?}: nothing committed");
    }
}

/// Growth steps mid-run: every successful red-black-tree insert calls
/// `Txn::alloc`. Set-up fills the 1 Ki-word initial arena to within one
/// node, so the first node the run takes from the bump frontier must
/// materialize a new segment inside a transaction.
#[test]
fn rbtree_grows_the_heap_mid_run() {
    const NODE_WORDS: usize = 6;
    for algo in [
        AlgorithmKind::NOrec,
        AlgorithmKind::RInvalV2 { invalidators: 2 },
    ] {
        let stm = Stm::builder(algo).heap_words(1 << 10).build();
        let fresh = stm.heap_stats();
        let cfg = rbtree_bench::Config {
            initial_size: 254,
            read_pct: 0,
            delay_noops: 0,
            duration: Duration::from_millis(100),
            seed: 0xB0B,
        };
        let tree = rbtree_bench::setup(&stm, &cfg);
        let built = stm.heap_stats();
        // Word 0 is the reserved null index.
        let room = built.reserved_words - 1 - built.allocated_words as usize;
        assert!(
            built.live_segments == fresh.live_segments && room < NODE_WORDS,
            "{algo:?}: set-up must leave less than a node free in the \
             initial arena (test misconfigured): {built:?}"
        );
        let r = rbtree_bench::run_on(&stm, tree, 2, &cfg);
        assert!(r.stats.commits > 0, "{algo:?}: nothing committed");
        assert!(
            r.heap.live_segments > built.live_segments,
            "{algo:?}: no segment growth during the run: {built:?} -> {:?}",
            r.heap
        );
        tree.check_invariants(&stm)
            .unwrap_or_else(|e| panic!("{algo:?}: {e}"));
    }
}

/// Intruder frees every queue and map node it processes. Back-to-back
/// batches on one STM must therefore reach a steady-state footprint: the
/// second batch recycles the first batch's freed nodes instead of growing
/// the arena all over again (the old bump heap doubled every batch).
#[test]
fn intruder_batches_recycle_instead_of_growing() {
    for algo in [
        AlgorithmKind::NOrec,
        AlgorithmKind::RInvalV2 { invalidators: 2 },
    ] {
        let stm = Stm::builder(algo).heap_words(1 << 10).build();
        let fresh = stm.heap_stats();
        let cfg = intruder::Config {
            flows: 256,
            frags_per_flow: 8,
            attack_every: 8,
            seed: 0x1D5,
        };
        let r1 = intruder::run(&stm, 2, &cfg);
        intruder::verify(&cfg, &r1).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        let peak1 = r1.heap.allocated_words;
        assert!(
            peak1 as usize > 1 << 10,
            "{algo:?}: working set never outgrew the initial arena: {:?}",
            r1.heap
        );
        assert!(
            r1.heap.live_segments > fresh.live_segments,
            "{algo:?}: no growth: {:?}",
            r1.heap
        );
        assert!(
            r1.heap.freed_words > 0,
            "{algo:?}: node churn produced no frees: {:?}",
            r1.heap
        );

        let r2 = intruder::run(&stm, 2, &cfg);
        intruder::verify(&cfg, &r2).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        let st = r2.heap;
        assert!(
            st.recycled_words > 0,
            "{algo:?}: second batch recycled nothing: {st:?}"
        );
        // Steady state: the second batch's working set came mostly from
        // recycled nodes, so the arena grew far less than another full
        // batch's worth.
        assert!(
            st.allocated_words - peak1 < peak1 / 2,
            "{algo:?}: second batch nearly re-allocated the whole working \
             set (peak {} -> {}): {st:?}",
            peak1,
            st.allocated_words
        );
    }
}
