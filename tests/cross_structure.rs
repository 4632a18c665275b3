//! Cross-structure composition: one transaction spanning several
//! transactional data structures must be atomic as a whole — the
//! composability STM promises over hand-made fine-grained structures
//! (the paper's §I programmability argument).

use rinval::{AlgorithmKind, Stm};
use txds::{RbTree, THashMap, TQueue};

fn algorithms() -> [AlgorithmKind; 3] {
    [
        AlgorithmKind::NOrec,
        AlgorithmKind::InvalStm,
        AlgorithmKind::RInvalV2 { invalidators: 2 },
    ]
}

/// Move items between a tree and a map atomically; concurrent observers
/// must always find each key in exactly one container.
#[test]
fn items_live_in_exactly_one_container() {
    for algo in algorithms() {
        let stm = Stm::builder(algo).heap_words(1 << 16).build();
        let tree = RbTree::new(&stm);
        let map = THashMap::new(&stm, 16);
        const KEYS: u64 = 16;
        {
            let mut th = stm.register_thread();
            for k in 0..KEYS {
                th.run(|tx| tree.insert(tx, k, k * 10));
            }
        }
        let stm = &stm;
        std::thread::scope(|s| {
            // Movers bounce keys between the two containers.
            for t in 0..2u64 {
                s.spawn(move || {
                    let mut th = stm.register_thread();
                    let mut seed = t + 5;
                    for _ in 0..200 {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = (seed >> 33) % KEYS;
                        th.run(|tx| {
                            if let Some(v) = tree.remove(tx, k)? {
                                map.insert(tx, k, v)?;
                            } else if let Some(v) = map.remove(tx, k)? {
                                tree.insert(tx, k, v)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
            // Observers: every key is in exactly one container, with its
            // original value.
            for _ in 0..2 {
                s.spawn(move || {
                    let mut th = stm.register_thread();
                    for _ in 0..150 {
                        for k in 0..KEYS {
                            let (in_tree, in_map) =
                                th.run(|tx| Ok((tree.get(tx, k)?, map.get(tx, k)?)));
                            match (in_tree, in_map) {
                                (Some(v), None) | (None, Some(v)) => {
                                    assert_eq!(v, k * 10, "value corrupted under {algo:?}")
                                }
                                (Some(_), Some(_)) => {
                                    panic!("key {k} in both containers under {algo:?}")
                                }
                                (None, None) => {
                                    panic!("key {k} vanished under {algo:?}")
                                }
                            }
                        }
                    }
                });
            }
        });
        tree.check_invariants(stm).unwrap();
        map.check_invariants(stm).unwrap();
        let total = tree.snapshot_keys(stm).len() + map.snapshot(stm).len();
        assert_eq!(total as u64, KEYS);
    }
}

/// Work-queue + ledger pipeline: dequeue a job and record its completion
/// in the tree within one transaction; jobs are processed exactly once
/// even under races.
#[test]
fn queue_to_tree_pipeline_is_exactly_once() {
    for algo in algorithms() {
        let stm = Stm::builder(algo).heap_words(1 << 16).build();
        let jobs = TQueue::new(&stm);
        let done = RbTree::new(&stm);
        const N: u64 = 200;
        {
            let mut th = stm.register_thread();
            for j in 0..N {
                th.run(|tx| jobs.enqueue(tx, j));
            }
        }
        let stm = &stm;
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(move || {
                    let mut th = stm.register_thread();
                    loop {
                        let got = th.run(|tx| {
                            let Some(j) = jobs.dequeue(tx)? else {
                                return Ok(false);
                            };
                            // exactly-once: insert must be fresh.
                            let fresh = done.insert(tx, j, 1)?;
                            assert!(fresh, "job {j} processed twice under {algo:?}");
                            Ok(true)
                        });
                        if !got {
                            break;
                        }
                    }
                });
            }
        });
        assert_eq!(done.snapshot_keys(stm).len() as u64, N);
        done.check_invariants(stm).unwrap();
    }
}
