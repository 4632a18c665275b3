//! Opacity stress tests (paper §IV-E): no transaction — committed *or
//! doomed* — may ever observe an inconsistent snapshot. The assertions
//! run *inside* the transaction bodies, so a zombie execution reading a
//! torn state trips them before any commit-time check could mask it.

use rinval::{AlgorithmKind, Stm};
use std::sync::atomic::{AtomicBool, Ordering};

/// Writers keep `x² == y` (writing both together); in-flight readers must
/// never see the square relation broken, even on attempts that later
/// abort.
#[test]
fn zombie_transactions_never_see_torn_invariants() {
    for algo in AlgorithmKind::all(2, 3) {
        let stm = Stm::builder(algo).heap_words(256).build();
        let x = stm.alloc_init(&[2]);
        let y = stm.alloc_init(&[4]);
        let stm = &stm;
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(move || {
                    let mut th = stm.register_thread();
                    for i in 2..200u64 {
                        th.run(|tx| {
                            tx.write(x, i)?;
                            tx.write(y, i * i)
                        });
                    }
                });
            }
            for _ in 0..2 {
                s.spawn(move || {
                    let mut th = stm.register_thread();
                    for _ in 0..400 {
                        th.run(|tx| {
                            let a = tx.read(x)?;
                            let b = tx.read(y)?;
                            // The opacity assertion: holds on EVERY
                            // execution of the body, aborted ones included.
                            assert_eq!(a * a, b, "torn read inside a transaction under {algo:?}");
                            Ok(())
                        });
                    }
                });
            }
        });
    }
}

/// A chain of cells where each points at the next version of the list;
/// readers walk the chain and must always reach a consistent tail.
#[test]
fn pointer_chains_stay_consistent() {
    for algo in AlgorithmKind::all(2, 3) {
        let stm = Stm::builder(algo).heap_words(1 << 14).build();
        // head -> node(version, payload). Writers atomically swing head to
        // a fresh node whose payload equals version * 7.
        let head = stm.alloc(1);
        let first = stm.alloc_init(&[0, 0]);
        stm.poke(head, first.to_word());
        let stm = &stm;
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut th = stm.register_thread();
                for v in 1..300u64 {
                    th.run(|tx| {
                        let node = tx.alloc(2)?;
                        tx.init(node.field(0), v);
                        tx.init(node.field(1), v * 7);
                        tx.write(head, node.to_word())
                    });
                }
            });
            for _ in 0..2 {
                s.spawn(move || {
                    let mut th = stm.register_thread();
                    for _ in 0..500 {
                        th.run(|tx| {
                            let n = tx.read_handle(head)?;
                            let v = tx.read(n.field(0))?;
                            let p = tx.read(n.field(1))?;
                            assert_eq!(p, v * 7, "stale/torn node under {algo:?}");
                            Ok(())
                        });
                    }
                });
            }
        });
    }
}

/// Read-only snapshots across many words taken while two writer gangs
/// permute values: the multiset of observed values must be intact
/// (writers swap values between slots, never create or destroy them).
#[test]
fn multiword_snapshots_are_permutations() {
    const N: usize = 12;
    for algo in AlgorithmKind::all(2, 3) {
        let stm = Stm::builder(algo).heap_words(256).build();
        let arr = stm.alloc(N);
        for i in 0..N {
            stm.poke(arr.field(i as u32), i as u64);
        }
        let stm = &stm;
        std::thread::scope(|s| {
            for t in 0..2u64 {
                s.spawn(move || {
                    let mut th = stm.register_thread();
                    let mut seed = t * 31 + 7;
                    for _ in 0..300 {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let i = (seed >> 30) as usize % N;
                        let j = (seed >> 10) as usize % N;
                        th.run(|tx| {
                            let a = tx.read(arr.field(i as u32))?;
                            let b = tx.read(arr.field(j as u32))?;
                            tx.write(arr.field(i as u32), b)?;
                            tx.write(arr.field(j as u32), a)
                        });
                    }
                });
            }
            s.spawn(move || {
                let mut th = stm.register_thread();
                for _ in 0..200 {
                    let snapshot = th.run(|tx| {
                        let mut vals = [0u64; N];
                        for (i, v) in vals.iter_mut().enumerate() {
                            *v = tx.read(arr.field(i as u32))?;
                        }
                        Ok(vals)
                    });
                    let mut sorted = snapshot;
                    sorted.sort_unstable();
                    let expected: Vec<u64> = (0..N as u64).collect();
                    assert_eq!(
                        sorted.to_vec(),
                        expected,
                        "snapshot is not a permutation under {algo:?}"
                    );
                }
            });
        });
    }
}

/// Servers must not apply a write-set after answering ABORTED: an aborted
/// transaction's writes may never become visible.
#[test]
fn aborted_transactions_leave_no_trace() {
    for algo in AlgorithmKind::all(2, 3) {
        let stm = Stm::builder(algo).heap_words(256).build();
        let flag = stm.alloc_init(&[0]);
        let data = stm.alloc_init(&[0]);
        let saw_data_without_flag = AtomicBool::new(false);
        let stm = &stm;
        let witness = &saw_data_without_flag;
        std::thread::scope(|s| {
            // This thread repeatedly tries a transaction that writes data
            // then deliberately aborts; data must never stick.
            s.spawn(move || {
                let mut th = stm.register_thread();
                for _ in 0..300 {
                    let _: rinval::TxResult<()> = th.try_run(1, |tx| {
                        tx.write(data, 777)?;
                        tx.user_abort()
                    });
                }
            });
            // Legitimate writers set data and flag together.
            s.spawn(move || {
                let mut th = stm.register_thread();
                for i in 0..300u64 {
                    th.run(|tx| {
                        tx.write(data, i)?;
                        tx.write(flag, 1)
                    });
                }
            });
            s.spawn(move || {
                let mut th = stm.register_thread();
                for _ in 0..600 {
                    let (f, d) = th.run(|tx| Ok((tx.read(flag)?, tx.read(data)?)));
                    if d == 777 && f <= 1 {
                        witness.store(true, Ordering::Relaxed);
                    }
                }
            });
        });
        assert!(
            !saw_data_without_flag.load(Ordering::Relaxed),
            "aborted write leaked into shared memory under {algo:?}"
        );
        assert_ne!(
            stm.peek(data),
            777,
            "aborted write persisted under {algo:?}"
        );
    }
}
