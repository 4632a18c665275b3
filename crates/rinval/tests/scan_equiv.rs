//! Equivalence suite for the scan-kernel layer.
//!
//! The bloom ops behind every signature intersection have two cores in
//! `bloom::cores` — the 4-lane unrolled one the public methods call and a
//! scalar reference. These properties pin down that the two cores are
//! bit-identical on arbitrary signatures, that the kernel walk delivers
//! exactly what the reference bit iterator yields, and that a
//! deterministic workload commits identical state on every engine.

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

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Both `intersects` cores agree on arbitrary plain-signature pairs,
    /// and both agree with the membership-level ground truth when the
    /// pair is known to share an address.
    #[test]
    fn intersect_cores_agree(left in prop::collection::vec(any::<u32>(), 0..400),
                             right in prop::collection::vec(any::<u32>(), 0..400)) {
        let (a, _) = sig_pair(&left);
        let (b, _) = sig_pair(&right);
        prop_assert_eq!(cores::intersects_lanes(&a, &b), cores::intersects_scalar(&a, &b));
        prop_assert_eq!(a.intersects(&b), cores::intersects_scalar(&a, &b));
    }

    /// Both `intersects_plain` cores agree on an atomic/plain pair.
    #[test]
    fn intersect_plain_cores_agree(left in prop::collection::vec(any::<u32>(), 0..400),
                                   right in prop::collection::vec(any::<u32>(), 0..400)) {
        let (_, a) = sig_pair(&left);
        let (b, _) = sig_pair(&right);
        prop_assert_eq!(
            cores::intersects_plain_lanes(&a, &b),
            cores::intersects_plain_scalar(&a, &b)
        );
        prop_assert_eq!(a.intersects_plain(&b), cores::intersects_plain_scalar(&a, &b));
    }

    /// Both sparse-intersection cores agree with each other and with the
    /// full-width intersection they replace.
    #[test]
    fn intersect_plain_sparse_cores_agree(left in prop::collection::vec(any::<u32>(), 0..400),
                                          right in prop::collection::vec(any::<u32>(), 0..100)) {
        let (_, a) = sig_pair(&left);
        let (b, _) = sig_pair(&right);
        let nz = b.nonzero_words();
        let want = cores::intersects_plain_scalar(&a, &b);
        prop_assert_eq!(cores::intersects_plain_sparse_lanes(&a, &b, nz.as_slice()), want);
        prop_assert_eq!(cores::intersects_plain_sparse_scalar(&a, &b, nz.as_slice()), want);
        prop_assert_eq!(a.intersects_plain_sparse(&b, &nz), want);
    }

    /// Both `union` cores produce bit-identical results.
    #[test]
    fn union_cores_agree(left in prop::collection::vec(any::<u32>(), 0..300),
                         right in prop::collection::vec(any::<u32>(), 0..300)) {
        let (src, _) = sig_pair(&right);
        let (mut via_lanes, _) = sig_pair(&left);
        let (mut via_scalar, _) = sig_pair(&left);
        cores::union_lanes(&mut via_lanes, &src);
        cores::union_scalar(&mut via_scalar, &src);
        prop_assert_eq!(via_lanes.words(), via_scalar.words());
    }

    /// Both `or_into` cores produce bit-identical accumulators.
    #[test]
    fn or_into_cores_agree(acc in prop::collection::vec(any::<u32>(), 0..300),
                           src in prop::collection::vec(any::<u32>(), 0..300)) {
        let (_, atomic) = sig_pair(&src);
        let (mut via_lanes, _) = sig_pair(&acc);
        let (mut via_scalar, _) = sig_pair(&acc);
        cores::or_into_lanes(&atomic, &mut via_lanes);
        cores::or_into_scalar(&atomic, &mut via_scalar);
        prop_assert_eq!(via_lanes.words(), via_scalar.words());
    }

    /// The fused snapshot+double-intersect cores agree with each other
    /// and with the unfused load-then-intersect sequence.
    #[test]
    fn snapshot_intersect2_cores_agree(src in prop::collection::vec(any::<u32>(), 0..400),
                                       left in prop::collection::vec(any::<u32>(), 0..200),
                                       right in prop::collection::vec(any::<u32>(), 0..200)) {
        let (_, atomic) = sig_pair(&src);
        let (a, _) = sig_pair(&left);
        let (b, _) = sig_pair(&right);
        let mut dst_lanes = Bloom::new();
        let mut dst_scalar = Bloom::new();
        let hits_lanes = cores::snapshot_intersect2_lanes(&atomic, &mut dst_lanes, &a, &b);
        let hits_scalar = cores::snapshot_intersect2_scalar(&atomic, &mut dst_scalar, &a, &b);
        prop_assert_eq!(hits_lanes, hits_scalar);
        prop_assert_eq!(dst_lanes.words(), dst_scalar.words());
        // Ground truth: snapshot then two separate intersections.
        let mut plain = Bloom::new();
        atomic.load_into(&mut plain);
        prop_assert_eq!(dst_lanes.words(), plain.words());
        prop_assert_eq!(hits_lanes, (plain.intersects(&a), plain.intersects(&b)));
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
/// engine: the scan kernel and the lane cores sit under all of them.
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
