//! Black-box correctness tests run identically against every algorithm.
//!
//! Each `mod <algo>` below instantiates the whole suite via
//! `algorithm_suite!`, so a regression in any one protocol (NOrec seqlock,
//! InvalSTM invalidation, RInval server hand-off, ...) fails under its own
//! name. Thread counts are modest because correctness — not scaling — is
//! the point here; the machine may have a single core.

use rinval::{AlgorithmKind, Stm};

/// 4 threads × N increments of one counter must lose no update.
fn counter_test(algo: AlgorithmKind) {
    let stm = Stm::builder(algo).heap_words(1 << 10).build();
    let c = stm.alloc_init(&[0]);
    const THREADS: usize = 4;
    const INCS: usize = 200;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                let mut th = stm.register_thread();
                for _ in 0..INCS {
                    th.run(|tx| {
                        let v = tx.read(c)?;
                        tx.write(c, v + 1)
                    });
                }
            });
        }
    });
    assert_eq!(stm.peek(c), (THREADS * INCS) as u64);
}

/// Transfers between accounts conserve the total, and concurrent audit
/// transactions must always observe the conserved total (snapshot
/// consistency / opacity probe).
fn bank_test(algo: AlgorithmKind) {
    const ACCOUNTS: usize = 16;
    const INITIAL: u64 = 1000;
    const TRANSFERS: usize = 300;
    let stm = Stm::builder(algo).heap_words(1 << 12).build();
    let accounts = stm.alloc(ACCOUNTS);
    for i in 0..ACCOUNTS {
        stm.poke(accounts.field(i as u32), INITIAL);
    }

    let stm = &stm;
    std::thread::scope(|s| {
        // Two transferring threads.
        for t in 0..2u64 {
            s.spawn(move || {
                let mut th = stm.register_thread();
                let mut seed = 12345 + t;
                for _ in 0..TRANSFERS {
                    seed = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let from = (seed >> 33) as usize % ACCOUNTS;
                    let to = (seed >> 13) as usize % ACCOUNTS;
                    if from == to {
                        continue;
                    }
                    let amt = seed % 10;
                    th.run(|tx| {
                        let f = tx.read(accounts.field(from as u32))?;
                        if f < amt {
                            return Ok(());
                        }
                        let g = tx.read(accounts.field(to as u32))?;
                        tx.write(accounts.field(from as u32), f - amt)?;
                        tx.write(accounts.field(to as u32), g + amt)
                    });
                }
            });
        }
        // Two auditing threads: the in-transaction sum must be invariant.
        for _ in 0..2 {
            s.spawn(move || {
                let mut th = stm.register_thread();
                for _ in 0..100 {
                    let total = th.run(|tx| {
                        let mut sum = 0u64;
                        for i in 0..ACCOUNTS {
                            sum += tx.read(accounts.field(i as u32))?;
                        }
                        Ok(sum)
                    });
                    assert_eq!(
                        total,
                        INITIAL * ACCOUNTS as u64,
                        "audit observed a torn state under {algo:?}"
                    );
                }
            });
        }
    });

    let final_total: u64 = (0..ACCOUNTS)
        .map(|i| stm.peek(accounts.field(i as u32)))
        .sum();
    assert_eq!(final_total, INITIAL * ACCOUNTS as u64);
}

/// Two words are always written together (y = x + 1); no transaction may
/// ever observe them out of sync — the classic opacity/torn-read probe.
fn paired_update_test(algo: AlgorithmKind) {
    let stm = Stm::builder(algo).heap_words(1 << 10).build();
    let x = stm.alloc_init(&[0]);
    let y = stm.alloc_init(&[1]);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut th = stm.register_thread();
                for _ in 0..300 {
                    th.run(|tx| {
                        let v = tx.read(x)?;
                        tx.write(x, v + 1)?;
                        tx.write(y, v + 2)
                    });
                }
            });
        }
        for _ in 0..2 {
            s.spawn(|| {
                let mut th = stm.register_thread();
                for _ in 0..300 {
                    let (a, b) = th.run(|tx| Ok((tx.read(x)?, tx.read(y)?)));
                    assert_eq!(b, a + 1, "torn pair under {algo:?}");
                }
            });
        }
    });
    assert_eq!(stm.peek(y), stm.peek(x) + 1);
}

/// Read-your-own-writes inside one transaction.
fn read_own_writes_test(algo: AlgorithmKind) {
    let stm = Stm::builder(algo).heap_words(64).build();
    let a = stm.alloc_init(&[5]);
    let mut th = stm.register_thread();
    let observed = th.run(|tx| {
        tx.write(a, 9)?;
        let v = tx.read(a)?;
        tx.write(a, v * 2)?;
        tx.read(a)
    });
    assert_eq!(observed, 18);
    assert_eq!(stm.peek(a), 18);
}

/// Records allocated and initialized inside a transaction become visible to
/// other threads only after (and exactly when) the publishing commit.
fn publication_test(algo: AlgorithmKind) {
    let stm = Stm::builder(algo).heap_words(1 << 12).build();
    let head = stm.alloc_init(&[0]); // encodes Option<Handle>
    const NODES: u64 = 50;
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut th = stm.register_thread();
            for i in 0..NODES {
                th.run(|tx| {
                    let prev = tx.read(head)?;
                    let node = tx.alloc(2)?;
                    tx.init(node.field(0), i + 100); // payload
                    tx.init(node.field(1), prev); // next
                    tx.write(head, node.to_word())
                });
            }
        });
        s.spawn(|| {
            let mut th = stm.register_thread();
            for _ in 0..200 {
                // Walk the list transactionally: every reachable node must be
                // fully initialized (payload >= 100).
                let len = th.run(|tx| {
                    let mut cur = tx.read(head)?;
                    let mut n = 0u64;
                    while cur != 0 {
                        let node = rinval::Handle::from_word(cur);
                        let payload = tx.read(node.field(0))?;
                        assert!(
                            payload >= 100,
                            "uninitialized node published under {algo:?}"
                        );
                        cur = tx.read(node.field(1))?;
                        n += 1;
                    }
                    Ok(n)
                });
                assert!(len <= NODES);
            }
        });
    });
}

/// `try_run` returns `Err` after exhausting attempts on a transaction that
/// always user-aborts, and the failed attempts are counted.
fn try_run_gives_up_test(algo: AlgorithmKind) {
    let stm = Stm::builder(algo).heap_words(64).build();
    let a = stm.alloc_init(&[1]);
    let mut th = stm.register_thread();
    let r: rinval::TxResult<()> = th.try_run(3, |tx| {
        let _ = tx.read(a)?;
        tx.user_abort()
    });
    assert!(r.is_err());
    assert_eq!(th.stats().aborts, 3);
    assert_eq!(th.stats().commits, 0);
    // A user abort must discard buffered writes.
    let r2: rinval::TxResult<()> = th.try_run(1, |tx| {
        tx.write(a, 77)?;
        tx.user_abort()
    });
    assert!(r2.is_err());
    assert_eq!(stm.peek(a), 1, "aborted write leaked under {algo:?}");
}

/// Commit/abort/read/write counters are maintained.
fn stats_counting_test(algo: AlgorithmKind) {
    let stm = Stm::builder(algo).heap_words(64).build();
    let a = stm.alloc_init(&[0]);
    let mut th = stm.register_thread();
    for _ in 0..10 {
        th.run(|tx| {
            let v = tx.read(a)?;
            tx.write(a, v + 1)
        });
    }
    let s = th.take_stats();
    assert_eq!(s.commits, 10);
    assert!(s.reads >= 10);
    assert!(s.writes >= 10);
    assert_eq!(th.stats().commits, 0, "take_stats must reset");
}

/// Write-only transactions (no reads) commit correctly.
fn write_only_test(algo: AlgorithmKind) {
    let stm = Stm::builder(algo).heap_words(64).build();
    let a = stm.alloc_init(&[0]);
    let b = stm.alloc_init(&[0]);
    let stm = &stm;
    std::thread::scope(|s| {
        for t in 0..2u64 {
            s.spawn(move || {
                let mut th = stm.register_thread();
                for i in 0..100u64 {
                    th.run(|tx| {
                        tx.write(if t == 0 { a } else { b }, i + 1)?;
                        Ok(())
                    });
                }
            });
        }
    });
    assert_eq!(stm.peek(a), 100);
    assert_eq!(stm.peek(b), 100);
}

/// Read-only transactions see a committed prefix and never block writers
/// permanently.
fn read_only_test(algo: AlgorithmKind) {
    let stm = Stm::builder(algo).heap_words(64).build();
    let a = stm.alloc_init(&[7]);
    let mut th = stm.register_thread();
    let v = th.run(|tx| tx.read(a));
    assert_eq!(v, 7);
    let s = th.stats();
    assert_eq!(s.commits, 1);
}

/// Registering and dropping handles recycles slots; more lifetime-total
/// threads than `max_threads` is fine as long as they don't overlap.
fn slot_recycling_test(algo: AlgorithmKind) {
    let stm = Stm::builder(algo).heap_words(64).max_threads(2).build();
    let a = stm.alloc_init(&[0]);
    for _ in 0..8 {
        let mut th = stm.register_thread();
        th.run(|tx| {
            let v = tx.read(a)?;
            tx.write(a, v + 1)
        });
    }
    assert_eq!(stm.peek(a), 8);
}

macro_rules! algorithm_suite {
    ($name:ident, $algo:expr) => {
        mod $name {
            use super::*;

            #[test]
            fn counter() {
                counter_test($algo);
            }
            #[test]
            fn bank_invariant() {
                bank_test($algo);
            }
            #[test]
            fn paired_updates_never_torn() {
                paired_update_test($algo);
            }
            #[test]
            fn read_own_writes() {
                read_own_writes_test($algo);
            }
            #[test]
            fn publication_safety() {
                publication_test($algo);
            }
            #[test]
            fn try_run_gives_up() {
                try_run_gives_up_test($algo);
            }
            #[test]
            fn stats_counting() {
                stats_counting_test($algo);
            }
            #[test]
            fn write_only() {
                write_only_test($algo);
            }
            #[test]
            fn read_only() {
                read_only_test($algo);
            }
            #[test]
            fn slot_recycling() {
                slot_recycling_test($algo);
            }
        }
    };
}

algorithm_suite!(norec, AlgorithmKind::NOrec);
algorithm_suite!(invalstm, AlgorithmKind::InvalStm);
algorithm_suite!(rinval_v1, AlgorithmKind::RInvalV1);
algorithm_suite!(rinval_v2, AlgorithmKind::RInvalV2 { invalidators: 2 });
algorithm_suite!(
    rinval_v2_single_invalidator,
    AlgorithmKind::RInvalV2 { invalidators: 1 }
);
algorithm_suite!(
    rinval_mv,
    AlgorithmKind::RInvalMV {
        invalidators: 2,
        steps_ahead: 3
    }
);
