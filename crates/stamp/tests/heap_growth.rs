//! Acceptance test for the segmented growable heap: long-running STAMP
//! workloads configured with an initial arena that is a small fraction of
//! their peak working set must complete — growing segment-by-segment and
//! recycling freed nodes — instead of exhausting a fixed arena.

use rinval::{AlgorithmKind, Stm};
use stamp::{intruder, vacation};

/// Vacation's default small-run config needs ~hundreds of KiB of heap; a
/// 1 Ki-word initial arena forces many growth steps mid-run.
#[test]
fn vacation_completes_with_tiny_initial_arena() {
    for algo in [
        AlgorithmKind::NOrec,
        AlgorithmKind::RInvalV2 { invalidators: 2 },
    ] {
        let stm = Stm::builder(algo).heap_words(1 << 10).build();
        let cfg = vacation::Config {
            resources: 64,
            customers: 32,
            initial_avail: 30,
            transactions: 1200,
            queries: 6,
            reserve_pct: 80,
            seed: 0xACA7,
        };
        let r = vacation::run_verified(&stm, 2, &cfg)
            .unwrap_or_else(|e| panic!("{algo:?}: vacation failed: {e}"));
        let st = r.heap;
        assert!(
            st.allocated_words as usize > 1 << 10,
            "{algo:?}: working set never outgrew the initial arena \
             (test misconfigured): {st:?}"
        );
        assert!(
            st.live_segments > 1,
            "{algo:?}: no segment growth observed: {st:?}"
        );
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
            r1.heap.live_segments > 1,
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
