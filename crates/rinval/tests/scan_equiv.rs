//! Equivalence suite for the scan-kernel layer.
//!
//! Every whole-filter signature op walks an occupancy summary instead of
//! the 256 words (`bloom.rs`). These properties hold each public op to its
//! dense word-at-a-time oracle in `bloom::cores`, bit for bit, on random
//! address sets — destinations that already hold another signature
//! included, since request slots, ring entries and the servers' working
//! copies are overwritten, never cleared first — and hold the summary
//! invariants after any op sequence. They also pin down that the kernel
//! walk delivers exactly what the reference bit iterator yields, and that
//! a deterministic workload commits identical state on every engine.

use proptest::prelude::*;
use rinval::bloom::{cores, AtomicBloom, Bloom};
use rinval::registry::Registry;
use rinval::scan::{scan, ScanKind};
use rinval::stats::ServerCounters;
use rinval::{AlgorithmKind, Stm};
use std::ops::ControlFlow;

/// Build a (plain, atomic) signature pair holding the same address set.
fn sig_pair(addrs: &[u32]) -> (Bloom, AtomicBloom) {
    let mut plain = Bloom::new();
    let atomic = AtomicBloom::new();
    for &a in addrs {
        plain.insert(a);
        atomic.owner_insert(a);
    }
    (plain, atomic)
}

/// Address sets from empty through sparse (a transaction's) to dense
/// (most words occupied), so summaries range over all shapes.
fn addrs(max: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(any::<u32>(), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `Bloom::intersects` agrees with the dense oracle.
    #[test]
    fn intersects_matches_dense(left in addrs(400), right in addrs(400)) {
        let (a, _) = sig_pair(&left);
        let (b, _) = sig_pair(&right);
        prop_assert_eq!(a.intersects(&b), cores::intersects_scalar(&a, &b));
    }

    /// `AtomicBloom::intersects_plain` and its two-step spelling agree
    /// with the dense oracle.
    #[test]
    fn intersects_plain_matches_dense(left in addrs(400), right in addrs(100)) {
        let (_, a) = sig_pair(&left);
        let (b, _) = sig_pair(&right);
        let want = cores::intersects_plain_scalar(&a, &b);
        prop_assert_eq!(a.intersects_plain(&b), want);
        prop_assert_eq!(a.intersects_plain_sparse(&b, &b.nonzero_words()), want);
    }

    /// `AtomicBloom::or_into` agrees with the dense oracle on a non-empty
    /// accumulator.
    #[test]
    fn or_into_matches_dense(acc in addrs(300), src in addrs(300)) {
        let (_, atomic) = sig_pair(&src);
        let (mut got, _) = sig_pair(&acc);
        let (mut want, _) = sig_pair(&acc);
        atomic.or_into(&mut got);
        cores::or_into_scalar(&atomic, &mut want);
        prop_assert_eq!(got.words(), want.words());
        prop_assert!(cores::summary_is_exact(&got));
    }

    /// `store_from` over a destination that holds another signature
    /// leaves exactly the source behind; `load_into` likewise.
    #[test]
    fn store_and_load_replace_stale_words(old in addrs(400), new in addrs(400)) {
        let (src, _) = sig_pair(&new);
        let (mut snap, slot) = sig_pair(&old);
        slot.store_from(&src);
        let dense = cores::load_scalar(&slot);
        prop_assert_eq!(dense.words(), src.words());
        prop_assert!(cores::summary_covers(&slot));
        let (_, other) = sig_pair(&new);
        other.load_into(&mut snap);
        prop_assert_eq!(snap.words(), src.words());
        prop_assert!(cores::summary_is_exact(&snap));
    }

    /// The fused snapshot+double-intersect agrees with the dense oracle
    /// and with the unfused load-then-intersect sequence, on a
    /// destination that holds another signature.
    #[test]
    fn snapshot_intersect2_matches_dense(src in addrs(400), stale in addrs(400),
                                         left in addrs(200), right in addrs(200)) {
        let (_, atomic) = sig_pair(&src);
        let (a, _) = sig_pair(&left);
        let (b, _) = sig_pair(&right);
        let (mut got, _) = sig_pair(&stale);
        let (mut want, _) = sig_pair(&stale);
        let hits = atomic.snapshot_intersect2(&mut got, &a, &b);
        prop_assert_eq!(hits, cores::snapshot_intersect2_scalar(&atomic, &mut want, &a, &b));
        prop_assert_eq!(got.words(), want.words());
        prop_assert!(cores::summary_is_exact(&got));
        // Ground truth: snapshot then two separate intersections.
        let (mut plain, _) = sig_pair(&stale);
        atomic.load_into(&mut plain);
        prop_assert_eq!(got.words(), plain.words());
        prop_assert_eq!(hits, (plain.intersects(&a), plain.intersects(&b)));
    }

    /// Summary invariants after an arbitrary op sequence over one plain
    /// and one shared filter: `Bloom` bit set ⇔ word non-zero,
    /// `AtomicBloom` bit set ⇐ word non-zero; `clear` / `owner_clear`
    /// leave every word zero and `is_empty` says what the words say.
    #[test]
    fn summary_invariants_hold_after_any_op_sequence(
        ops in prop::collection::vec((0u8..6, addrs(60)), 1..24),
    ) {
        let mut plain = Bloom::new();
        let shared = AtomicBloom::new();
        for (op, set) in &ops {
            let (other, other_shared) = sig_pair(set);
            match op {
                0 => set.iter().for_each(|&a| plain.insert(a)),
                1 => set.iter().for_each(|&a| shared.owner_insert(a)),
                2 => shared.store_from(&other),
                3 => other_shared.load_into(&mut plain),
                4 => shared.or_into(&mut plain),
                _ => {
                    plain.clear();
                    shared.owner_clear();
                    prop_assert!(cores::load_scalar(&shared).words().iter().all(|&w| w == 0));
                }
            }
            prop_assert!(cores::summary_is_exact(&plain));
            prop_assert!(cores::summary_covers(&shared));
            prop_assert_eq!(plain.is_empty(), plain.words().iter().all(|&w| w == 0));
        }
    }

    /// The kernel walk delivers exactly the reference iterator's bits —
    /// same order, same set — under arbitrary registry sizes, bit
    /// patterns and (uncounted) filters.
    #[test]
    fn kernel_matches_reference_iterator(n in 1usize..301,
                                         bits in prop::collection::vec(0usize..300, 0..80),
                                         modulus in 1usize..5) {
        let reg = Registry::new(n);
        for &b in &bits {
            reg.live().set(b % n);
        }
        let c = ServerCounters::default();
        let expect: Vec<usize> = reg
            .live()
            .iter_set_bits()
            .filter(|i| i % modulus == 0)
            .collect();
        let mut got = Vec::new();
        let flow = scan(
            &reg,
            &c,
            reg.live(),
            ScanKind::Inval,
            |i| i % modulus == 0,
            |i, _| {
                got.push(i);
                ControlFlow::Continue(())
            },
        );
        prop_assert_eq!(flow, ControlFlow::Continue(()));
        prop_assert_eq!(got, expect.clone());
        let s = c.snapshot();
        prop_assert_eq!(s.inval_scans, 1);
        prop_assert_eq!(s.inval_slots_visited, expect.len() as u64);
    }
}

/// A deterministic workload must commit the same final state on every
/// engine: the scan kernel and the summary walks sit under all of them.
#[test]
fn all_engines_commit_identical_state() {
    const WORDS: u32 = 12;
    const ROUNDS: u64 = 30;
    let mut reference: Option<Vec<u64>> = None;
    for algo in AlgorithmKind::all(2, 3) {
        let stm = Stm::builder(algo).heap_words(1 << 10).build();
        let arr = stm.alloc(WORDS as usize);
        {
            let mut th = stm.register_thread();
            for r in 0..ROUNDS {
                th.run(|tx| {
                    for i in 0..WORDS {
                        let v = tx.read(arr.field(i))?;
                        tx.write(arr.field(i), v.wrapping_mul(3).wrapping_add(r + i as u64))?;
                    }
                    Ok(())
                });
            }
        }
        let words: Vec<u64> = (0..WORDS).map(|i| stm.peek(arr.field(i))).collect();
        match &reference {
            None => reference = Some(words),
            Some(want) => assert_eq!(&words, want, "{}: committed state diverges", algo.name()),
        }
    }
}
