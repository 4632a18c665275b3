//! Deterministic protocol-level tests: by running a second
//! `ThreadHandle`'s complete transaction *inside* another transaction's
//! closure, exact conflict interleavings are constructed without any
//! scheduler dependence.

use rinval::bloom::{cores, Bloom};
use rinval::{Aborted, AlgorithmKind, Handle, Stm, ThreadHandle, TxResult, Txn};

/// Runs `body` as one *registered* transaction on the RInval kinds: its
/// first attempt aborts on purpose, so the attempt that runs is a retry,
/// on the registered engine from its begin. (A first attempt stays off the
/// registry until it observes a commit — DESIGN.md §14 — so it publishes
/// no read signature and no commit can doom it.)
fn run_registered<T>(
    th: &mut ThreadHandle<'_>,
    mut body: impl FnMut(&mut Txn<'_>) -> TxResult<T>,
) -> TxResult<T> {
    let mut first = true;
    th.try_run(2, |tx| {
        if std::mem::take(&mut first) {
            return tx.user_abort();
        }
        body(tx)
    })
}

/// Runs `body` once as a first attempt (`registered == false`: on the
/// RInval kinds off the registry, so a conflict surfaces as a failed
/// revalidation) or through [`run_registered`] (`true`).
fn run_once<T>(
    th: &mut ThreadHandle<'_>,
    registered: bool,
    body: impl FnMut(&mut Txn<'_>) -> TxResult<T>,
) -> TxResult<T> {
    if registered {
        run_registered(th, body)
    } else {
        th.try_run(1, body)
    }
}

/// Whether a commit that overwrites a read must doom the reader (counted
/// in `txs_doomed`): always on InvalSTM, whose every attempt is live; on
/// the RInval kinds once registered; never on NOrec.
fn dooms(algo: AlgorithmKind, registered: bool) -> bool {
    algo == AlgorithmKind::InvalStm || (registered && algo.is_remote())
}

/// Read x; a concurrent transaction overwrites x; then try to commit a
/// write based on the stale read. Must abort under every algorithm, on
/// a first attempt and registered alike.
#[test]
fn conflicting_commit_aborts() {
    for algo in AlgorithmKind::all(2, 2) {
        for registered in [false, true] {
            let stm = Stm::builder(algo).heap_words(256).build();
            let x = stm.alloc_init(&[10]);
            let y = stm.alloc_init(&[0]);
            let mut th1 = stm.register_thread();
            let mut th2 = stm.register_thread();

            let r: TxResult<()> = run_once(&mut th1, registered, |tx| {
                let v = tx.read(x)?;
                // Interleaved committer invalidates our read.
                th2.run(|tx2| {
                    let cur = tx2.read(x)?;
                    tx2.write(x, cur + 1)
                });
                // Stale-read-based write must not commit.
                tx.write(y, v * 2)
            });
            let case = format!("{algo:?}, registered: {registered}");
            assert_eq!(r, Err(Aborted), "stale commit succeeded under {case}");
            assert_eq!(stm.peek(y), 0, "stale write published under {case}");
            assert_eq!(stm.peek(x), 11);
            let doomed = stm.server_stats().txs_doomed;
            assert_eq!(
                doomed > 0,
                dooms(algo, registered),
                "{case}: {doomed} doomed"
            );
        }
    }
}

/// Same interleaving, but the doomed transaction performs another read
/// before committing: the read path itself must report the abort
/// (invalidation flag / failed revalidation), not just commit.
#[test]
fn doomed_reader_aborts_at_next_read() {
    for algo in AlgorithmKind::all(2, 2) {
        for registered in [false, true] {
            let stm = Stm::builder(algo).heap_words(256).build();
            let x = stm.alloc_init(&[10]);
            let z = stm.alloc_init(&[5]);
            let mut th1 = stm.register_thread();
            let mut th2 = stm.register_thread();

            let r: TxResult<u64> = run_once(&mut th1, registered, |tx| {
                let _v = tx.read(x)?;
                th2.run(|tx2| {
                    let cur = tx2.read(x)?;
                    tx2.write(x, cur + 100)
                });
                // This read must observe the conflict and abort; returning
                // a value would mean we extended an inconsistent snapshot.
                tx.read(z)
            });
            let case = format!("{algo:?}, registered: {registered}");
            assert_eq!(r, Err(Aborted), "doomed read survived under {case}");
            // …and the committer won: its write landed.
            assert_eq!(stm.peek(x), 110, "committer lost under {case}");
            let doomed = stm.server_stats().txs_doomed;
            assert_eq!(
                doomed > 0,
                dooms(algo, registered),
                "{case}: {doomed} doomed"
            );
        }
    }
}

/// A concurrent commit to an UNRELATED location must not abort us
/// (snapshot extension / non-intersecting signatures).
#[test]
fn disjoint_commit_does_not_abort() {
    for algo in AlgorithmKind::all(2, 2) {
        let stm = Stm::builder(algo).heap_words(256).build();
        let x = stm.alloc_init(&[10]);
        let unrelated = stm.alloc_init(&[0]);
        let y = stm.alloc_init(&[0]);
        let mut th1 = stm.register_thread();
        let mut th2 = stm.register_thread();

        let r: TxResult<()> = th1.try_run(1, |tx| {
            let v = tx.read(x)?;
            th2.run(|tx2| {
                let cur = tx2.read(unrelated)?;
                tx2.write(unrelated, cur + 1)
            });
            tx.write(y, v)
        });
        assert_eq!(
            r,
            Ok(()),
            "disjoint commit spuriously aborted us under {algo:?}"
        );
        assert_eq!(stm.peek(y), 10);
    }
}

/// Signatures are cleared, published and snapshotted by their occupancy
/// summary, and every filter involved is reused: the slot's `read_bf` and
/// `req_write_bf`, the servers' working copies, the V2/MV commit ring. A
/// handle that alternates a large and a small read/write set 10⁵ times
/// must leave no stale bit anywhere a later conflict test could find it.
#[test]
fn no_stale_signature_bit_survives_slot_or_ring_reuse() {
    const TXS: u32 = 100_000;
    const LARGE: u32 = 64;
    let sig = |hs: &[Handle]| {
        let mut b = Bloom::new();
        hs.iter().for_each(|h| b.insert(h.to_word() as u32));
        b
    };
    let kinds = AlgorithmKind::all(2, 2).into_iter().chain([
        // A two-entry ring, wrapped 5·10⁴ times.
        AlgorithmKind::RInvalMV {
            invalidators: 1,
            steps_ahead: 1,
        },
    ]);
    for algo in kinds {
        let stm = Stm::builder(algo).heap_words(1 << 10).build();
        let arr = stm.alloc(LARGE as usize);
        let scratch = stm.alloc_init(&[0]);
        let mut th1 = stm.register_thread();
        let mut th2 = stm.register_thread();
        let bump = |tx: &mut rinval::Txn<'_>, n: u32| {
            for i in 0..n {
                let v = tx.read(arr.field(i))?;
                tx.write(arr.field(i), v + 1)?;
            }
            Ok(())
        };
        // An invalidation-server may still be scanning for a commit its
        // client already saw answered, and would doom a reader that begins
        // meanwhile — legitimately. A registered read waits for the
        // reader's own invalidation-server to catch up, so this leaves
        // nothing older in flight that could doom `th`'s next transaction.
        let settle = |th: &mut ThreadHandle<'_>| {
            run_registered(th, |tx| {
                let v = tx.read(scratch)?;
                tx.write(scratch, v + 1)
            })
            .unwrap()
        };
        // Small first, so the last transaction of the run is a large one.
        // Registered, so that every one publishes its read signature too.
        for k in 0..TXS {
            run_registered(&mut th1, |tx| bump(tx, if k % 2 == 0 { 1 } else { LARGE })).unwrap();
        }
        assert_eq!(stm.peek(arr.field(0)), TXS as u64);
        assert_eq!(stm.peek(arr.field(LARGE - 1)), TXS as u64 / 2);

        // A registered `begin` leaves the read signature empty — all 256
        // words, whatever its summary says.
        let slot1 = stm.registry().slot(th1.slot());
        run_registered(&mut th1, |tx| {
            tx.write(scratch, 1)?;
            assert!(
                cores::load_scalar(&slot1.read_bf)
                    .words()
                    .iter()
                    .all(|&w| w == 0),
                "{algo:?}: read signature not empty after begin"
            );
            Ok(())
        })
        .unwrap();

        // Words of the large set whose signature bit differs from the
        // small set's: a conflict test between the two can only hit a bit
        // some earlier transaction left behind.
        let small = sig(&[arr.field(0)]);
        let others: Vec<Handle> = (1..LARGE)
            .map(|i| arr.field(i))
            .filter(|&h| !sig(&[h]).intersects(&small))
            .take(8)
            .collect();
        assert_eq!(others.len(), 8);
        assert!(!sig(&others).intersects(&small));

        // (a) th1's small commit, published over its large one (request
        // slot, server copies, ring entry), against a live reader of
        // `others`.
        run_registered(&mut th1, |tx| bump(tx, LARGE)).unwrap();
        settle(&mut th2);
        let r = run_registered(&mut th2, |tx2| {
            for &h in &others {
                tx2.read(h)?;
            }
            tx2.write(others[0], 0)?;
            th1.run(|tx| bump(tx, 1));
            Ok(())
        });
        assert_eq!(
            r,
            Ok(()),
            "{algo:?}: reader doomed by a stale write-signature bit"
        );

        // (b) th1 live on the small set right after a large transaction,
        // against a commit that writes `others`.
        run_registered(&mut th1, |tx| bump(tx, LARGE)).unwrap();
        settle(&mut th1);
        let r = run_registered(&mut th1, |tx| {
            bump(tx, 1)?;
            th2.run(|tx2| others.iter().try_for_each(|&h| tx2.write(h, 0)));
            Ok(())
        });
        assert_eq!(
            r,
            Ok(()),
            "{algo:?}: reader doomed by a stale read-signature bit"
        );
        assert_eq!(stm.server_stats().txs_doomed, 0, "{algo:?}");
    }
}

/// The one write discipline: a transactional write reaches the heap only
/// once its commit is admitted, so an open or aborted transaction leaves
/// every published word as it found it.
#[test]
fn no_engine_writes_the_heap_before_commit() {
    for algo in AlgorithmKind::all(2, 2) {
        let stm = Stm::builder(algo).heap_words(256).build();
        let x = stm.alloc_init(&[1]);
        let mut th = stm.register_thread();
        let r: TxResult<()> = th.try_run(1, |tx| {
            tx.write(x, 9)?;
            assert_eq!(stm.peek(x), 1, "{algo:?} wrote the heap before commit");
            tx.user_abort()
        });
        assert_eq!(r, Err(Aborted));
        assert_eq!(stm.peek(x), 1, "aborted write left a trace under {algo:?}");
    }
}

/// No commit is torn: a write-set holding an address outside the heap (a
/// handle forged with `Handle::from_word`) is published through the one
/// bounds-checked write-back on every engine, so the forged word is
/// dropped, the in-heap word commits and the timestamp is released — in
/// either order of the two writes.
#[test]
fn an_out_of_heap_write_is_dropped_and_the_rest_commits() {
    let forged = Handle::from_word(u32::MAX as u64 - 1);
    for algo in AlgorithmKind::all(2, 2) {
        for forged_first in [false, true] {
            let stm = Stm::builder(algo).heap_words(256).build();
            let a = stm.alloc_init(&[1]);
            let mut th = stm.register_thread();
            let t0 = stm.timestamp();
            th.run(|tx| {
                if forged_first {
                    tx.write(forged, 1)?;
                }
                tx.write(a, 7)?;
                if !forged_first {
                    tx.write(forged, 1)?;
                }
                Ok(())
            });
            let case = format!("{algo:?}, forged word first: {forged_first}");
            assert_eq!(stm.peek(a), 7, "{case}");
            assert_eq!(stm.timestamp(), t0 + 2, "{case}");
            assert_eq!(th.run(|tx| tx.read(a)), 7, "{case}");
        }
    }
}

/// Large write-sets exercise the raw-pointer hand-off to the commit
/// server (request slot carries only a pointer + length).
#[test]
fn large_write_set_through_server() {
    for algo in [
        AlgorithmKind::RInvalV1,
        AlgorithmKind::RInvalV2 { invalidators: 2 },
    ] {
        let stm = Stm::builder(algo).heap_words(1 << 13).build();
        let arr = stm.alloc(4000);
        let mut th = stm.register_thread();
        th.run(|tx| {
            for i in 0..4000u32 {
                tx.write(arr.field(i), i as u64 + 1)?;
            }
            Ok(())
        });
        for i in 0..4000u32 {
            assert_eq!(stm.peek(arr.field(i)), i as u64 + 1, "{algo:?} word {i}");
        }
    }
}

/// Many clients hammer the commit-server simultaneously; all their
/// disjoint commits must land.
#[test]
fn server_serves_many_clients() {
    let stm = Stm::builder(AlgorithmKind::RInvalV2 { invalidators: 2 })
        .heap_words(1 << 10)
        .max_threads(16)
        .build();
    let cells = stm.alloc(8);
    let stm = &stm;
    std::thread::scope(|s| {
        for t in 0..8u32 {
            s.spawn(move || {
                let mut th = stm.register_thread();
                for _ in 0..100 {
                    th.run(|tx| {
                        let v = tx.read(cells.field(t))?;
                        tx.write(cells.field(t), v + 1)
                    });
                }
            });
        }
    });
    for t in 0..8u32 {
        assert_eq!(stm.peek(cells.field(t)), 100);
    }
}

/// The timestamp advances by exactly 2 per commit that changes a word and
/// not at all for read-only transactions. Every write below writes a value
/// the word does not hold, so the rule means the same on every kind.
#[test]
fn timestamp_discipline() {
    for algo in AlgorithmKind::all(1, 1) {
        let stm = Stm::builder(algo).heap_words(256).build();
        let x = stm.alloc_init(&[0]);
        let mut th = stm.register_thread();
        let t0 = stm.timestamp();
        assert_eq!(t0 % 2, 0, "timestamp must be even at rest");
        for _ in 0..5 {
            th.run(|tx| tx.read(x).map(|_| ()));
        }
        assert_eq!(
            stm.timestamp(),
            t0,
            "read-only commits bumped ts under {algo:?}"
        );
        for i in 1..=3 {
            th.run(|tx| tx.write(x, i));
        }
        assert_eq!(
            stm.timestamp(),
            t0 + 6,
            "write commits must bump ts by 2 under {algo:?}"
        );
    }
}

/// The converse: a commit that rewrites the value a word already holds is
/// a read-only transaction at its snapshot. NOrec and the remote kinds'
/// first attempts commit it locally — the timestamp stays put and the
/// thread counts a silent commit — while InvalSTM keeps the paper's commit
/// and bumps the timestamp by 2.
#[test]
fn rewriting_held_values_moves_the_timestamp_on_invalstm_only() {
    for algo in AlgorithmKind::all(1, 1) {
        let stm = Stm::builder(algo).heap_words(256).build();
        let x = stm.alloc_init(&[7, 8]);
        let mut th = stm.register_thread();
        let t0 = stm.timestamp();
        th.run(|tx| tx.write(x, 7));
        th.run(|tx| {
            let v = tx.read(x.field(1))?;
            tx.write(x.field(1), v)?;
            tx.write(x, 7)
        });
        let (bump, silent) = if algo == AlgorithmKind::InvalStm {
            (4, 0)
        } else {
            (0, 2)
        };
        assert_eq!(stm.timestamp(), t0 + bump, "{algo:?}");
        assert_eq!(th.stats().silent_commits, silent, "{algo:?}");
        assert_eq!(th.stats().commits, 2, "{algo:?}");
        assert_eq!((stm.peek(x), stm.peek(x.field(1))), (7, 8), "{algo:?}");
    }
}

/// Dropping and re-creating whole STM instances with servers must not
/// leak threads or hang (server shutdown protocol).
#[test]
fn repeated_stm_lifecycle() {
    for _ in 0..10 {
        let stm = Stm::builder(AlgorithmKind::RInvalV2 { invalidators: 3 })
            .heap_words(128)
            .build();
        let x = stm.alloc_init(&[0]);
        let mut th = stm.register_thread();
        th.run(|tx| tx.write(x, 1));
        assert_eq!(stm.peek(x), 1);
        drop(th);
        drop(stm); // joins 4 server threads
    }
}

/// Stats phase buckets fill when profiling is enabled and stay empty
/// (except counters) when it is not.
#[test]
fn profiling_toggle() {
    for profile in [false, true] {
        let stm = Stm::builder(AlgorithmKind::InvalStm)
            .heap_words(256)
            .profile(profile)
            .build();
        let x = stm.alloc_init(&[0]);
        let mut th = stm.register_thread();
        for i in 0..50 {
            th.run(|tx| {
                let _ = tx.read(x)?;
                tx.write(x, i)
            });
        }
        let s = th.stats();
        assert_eq!(s.commits, 50);
        if profile {
            assert!(s.total_tx.as_nanos() > 0, "profiled run recorded no time");
        } else {
            assert_eq!(s.validation.as_nanos(), 0);
            assert_eq!(s.commit.as_nanos(), 0);
        }
    }
}
