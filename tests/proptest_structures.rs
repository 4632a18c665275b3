//! Property-based tests: arbitrary operation sequences applied to the
//! transactional structures must match the standard-library model, under
//! a validation-based algorithm (NOrec) and an invalidation-based one
//! with live server threads (RInval-V2).

use proptest::prelude::*;
use rinval::{AlgorithmKind, Stm};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use txds::{RbTree, THashMap, TQueue, TSortedList};

#[derive(Clone, Debug)]
enum MapOp {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
}

fn map_ops(max_key: u64) -> impl Strategy<Value = Vec<MapOp>> {
    prop::collection::vec(
        prop_oneof![
            (0..max_key, any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
            (0..max_key).prop_map(MapOp::Remove),
            (0..max_key).prop_map(MapOp::Get),
        ],
        1..120,
    )
}

fn algorithms() -> [AlgorithmKind; 2] {
    [
        AlgorithmKind::NOrec,
        AlgorithmKind::RInvalV2 { invalidators: 1 },
    ]
}

/// `RbTree::from_sorted` over `n` keys `3i + 1 → i` (so keys `3i` and
/// `3i + 2` are absent) must be a valid red-black tree holding exactly
/// those entries; a random insert/remove sequence run on top of it must
/// then match a `BTreeMap`, under NOrec and RInval-V2 with 2 invalidators.
fn bulk_build_then_churn(n: u64, ops: &[MapOp]) -> TestCaseResult {
    let entries: Vec<(u64, u64)> = (0..n).map(|i| (3 * i + 1, i)).collect();
    for algo in [
        AlgorithmKind::NOrec,
        AlgorithmKind::RInvalV2 { invalidators: 2 },
    ] {
        let stm = Stm::builder(algo).heap_words(1 << 14).build();
        let tree = RbTree::from_sorted(&stm, &entries);
        tree.check_invariants(&stm)
            .map_err(|e| TestCaseError::fail(format!("{n} keys under {algo:?}: {e}")))?;
        let keys: Vec<u64> = entries.iter().map(|&(k, _)| k).collect();
        prop_assert_eq!(tree.snapshot_keys(&stm), keys);
        let mut th = stm.register_thread();
        prop_assert_eq!(th.run_ro(|tx| tree.len(tx)), n);
        for &(k, v) in &entries {
            prop_assert_eq!(th.run_ro(|tx| tree.get(tx, k)), Some(v));
            for absent in [k - 1, k + 1] {
                prop_assert_eq!(th.run_ro(|tx| tree.get(tx, absent)), None);
            }
        }
        let mut model: BTreeMap<u64, u64> = entries.iter().copied().collect();
        let range = 3 * n + 3;
        for op in ops {
            match *op {
                MapOp::Insert(k, v) => {
                    let k = k % range;
                    let fresh = th.run(|tx| tree.insert(tx, k, v));
                    prop_assert_eq!(fresh, model.insert(k, v).is_none());
                }
                MapOp::Remove(k) => {
                    let k = k % range;
                    let got = th.run(|tx| tree.remove(tx, k));
                    prop_assert_eq!(got, model.remove(&k));
                }
                MapOp::Get(k) => {
                    let k = k % range;
                    let got = th.run(|tx| tree.get(tx, k));
                    prop_assert_eq!(got, model.get(&k).copied());
                }
            }
        }
        drop(th);
        tree.check_invariants(&stm).map_err(|e| {
            TestCaseError::fail(format!("{n} keys, after the churn under {algo:?}: {e}"))
        })?;
        let keys: Vec<u64> = model.keys().copied().collect();
        prop_assert_eq!(tree.snapshot_keys(&stm), keys);
    }
    Ok(())
}

/// Sizes where a mid-split changes shape: empty, tiny, and either side of
/// every power of two up to 128.
#[test]
fn rbtree_from_sorted_builds_every_shape() {
    let mut rng = proptest::TestRng::deterministic("rbtree_from_sorted_builds_every_shape");
    let mut sizes = vec![0, 1, 2, 3];
    for k in 2..=7 {
        sizes.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
    }
    for n in sizes {
        let ops = map_ops(1 << 10).generate(&mut rng);
        bulk_build_then_churn(n, &ops).unwrap_or_else(|e| panic!("{n} keys: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn rbtree_matches_btreemap(ops in map_ops(32)) {
        for algo in algorithms() {
            let stm = Stm::builder(algo).heap_words(1 << 14).build();
            let tree = RbTree::new(&stm);
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut th = stm.register_thread();
            for op in &ops {
                match *op {
                    MapOp::Insert(k, v) => {
                        let fresh = th.run(|tx| tree.insert(tx, k, v));
                        prop_assert_eq!(fresh, model.insert(k, v).is_none());
                    }
                    MapOp::Remove(k) => {
                        let got = th.run(|tx| tree.remove(tx, k));
                        prop_assert_eq!(got, model.remove(&k));
                    }
                    MapOp::Get(k) => {
                        let got = th.run(|tx| tree.get(tx, k));
                        prop_assert_eq!(got, model.get(&k).copied());
                    }
                }
            }
            drop(th);
            tree.check_invariants(&stm).map_err(|e| {
                TestCaseError::fail(format!("invariants under {algo:?}: {e}"))
            })?;
            let keys: Vec<u64> = model.keys().copied().collect();
            prop_assert_eq!(tree.snapshot_keys(&stm), keys);
        }
    }

    #[test]
    fn rbtree_from_sorted_matches_btreemap(n in 0..300u64, ops in map_ops(1 << 10)) {
        bulk_build_then_churn(n, &ops)?;
    }

    #[test]
    fn hashmap_matches_btreemap(ops in map_ops(24)) {
        for algo in algorithms() {
            let stm = Stm::builder(algo).heap_words(1 << 14).build();
            let map = THashMap::new(&stm, 4); // few buckets: long chains
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut th = stm.register_thread();
            for op in &ops {
                match *op {
                    MapOp::Insert(k, v) => {
                        let fresh = th.run(|tx| map.insert(tx, k, v));
                        prop_assert_eq!(fresh, model.insert(k, v).is_none());
                    }
                    MapOp::Remove(k) => {
                        let got = th.run(|tx| map.remove(tx, k));
                        prop_assert_eq!(got, model.remove(&k));
                    }
                    MapOp::Get(k) => {
                        let got = th.run(|tx| map.get(tx, k));
                        prop_assert_eq!(got, model.get(&k).copied());
                    }
                }
            }
            drop(th);
            map.check_invariants(&stm).map_err(|e| {
                TestCaseError::fail(format!("invariants under {algo:?}: {e}"))
            })?;
        }
    }

    #[test]
    fn sorted_list_matches_btreeset(ops in map_ops(24)) {
        for algo in algorithms() {
            let stm = Stm::builder(algo).heap_words(1 << 14).build();
            let list = TSortedList::new(&stm);
            let mut model: BTreeSet<u64> = BTreeSet::new();
            let mut th = stm.register_thread();
            for op in &ops {
                match *op {
                    MapOp::Insert(k, _) => {
                        let fresh = th.run(|tx| list.insert(tx, k));
                        prop_assert_eq!(fresh, model.insert(k));
                    }
                    MapOp::Remove(k) => {
                        let got = th.run(|tx| list.remove(tx, k));
                        prop_assert_eq!(got, model.remove(&k));
                    }
                    MapOp::Get(k) => {
                        let got = th.run(|tx| list.contains(tx, k));
                        prop_assert_eq!(got, model.contains(&k));
                    }
                }
            }
            drop(th);
            list.check_invariants(&stm).map_err(|e| {
                TestCaseError::fail(format!("invariants under {algo:?}: {e}"))
            })?;
        }
    }

    #[test]
    fn queue_matches_vecdeque(ops in prop::collection::vec(prop::option::of(any::<u64>()), 1..100)) {
        // Some(v) = enqueue v, None = dequeue.
        for algo in algorithms() {
            let stm = Stm::builder(algo).heap_words(1 << 12).build();
            let q = TQueue::new(&stm);
            let mut model: VecDeque<u64> = VecDeque::new();
            let mut th = stm.register_thread();
            for op in &ops {
                match *op {
                    Some(v) => {
                        th.run(|tx| q.enqueue(tx, v));
                        model.push_back(v);
                    }
                    None => {
                        let got = th.run(|tx| q.dequeue(tx));
                        prop_assert_eq!(got, model.pop_front());
                    }
                }
            }
            drop(th);
            prop_assert_eq!(q.snapshot(&stm), model.into_iter().collect::<Vec<_>>());
        }
    }

    /// Multi-operation transactions are atomic: applying a batch of ops in
    /// ONE transaction equals applying them to the model sequentially.
    #[test]
    fn composed_transactions_are_atomic(batches in prop::collection::vec(map_ops(16), 1..10)) {
        let stm = Stm::builder(AlgorithmKind::RInvalV2 { invalidators: 1 })
            .heap_words(1 << 14)
            .build();
        let tree = RbTree::new(&stm);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut th = stm.register_thread();
        for batch in &batches {
            th.run(|tx| {
                for op in batch {
                    match *op {
                        MapOp::Insert(k, v) => {
                            tree.insert(tx, k, v)?;
                        }
                        MapOp::Remove(k) => {
                            tree.remove(tx, k)?;
                        }
                        MapOp::Get(k) => {
                            tree.get(tx, k)?;
                        }
                    }
                }
                Ok(())
            });
            for op in batch {
                match *op {
                    MapOp::Insert(k, v) => {
                        model.insert(k, v);
                    }
                    MapOp::Remove(k) => {
                        model.remove(&k);
                    }
                    MapOp::Get(_) => {}
                }
            }
        }
        drop(th);
        let keys: Vec<u64> = model.keys().copied().collect();
        prop_assert_eq!(tree.snapshot_keys(&stm), keys);
        tree.check_invariants(&stm).map_err(TestCaseError::fail)?;
    }
}
