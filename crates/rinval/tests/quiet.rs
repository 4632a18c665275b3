//! Quiet partitions skip the hand-off (`server::hand_off_invalidation`):
//! right after a commit's odd-timestamp store the V2/MV commit-server
//! retires the commit on behalf of every invalidation-server whose
//! partition holds no live transaction but the requester's, instead of
//! waking it.
//!
//! * (a) a lone client's commits never reach an invalidator, and every
//!   cursor still ends equal to the timestamp;
//! * (b) a live reader in partition `k` is still doomed — the partition is
//!   not quiet, so its invalidator is woken and scans — for every `k`, and
//!   by V1's inline invalidation;
//! * (c) readers flipping their partitions between quiet and busy while
//!   writers commit: the conserved sum holds and no cursor ever moves
//!   back (CI's `oversubscribed` job runs this again under `taskset -c 0`).
//!
//! Every kind with invalidation-servers is covered, with one and two of
//! them and with Algorithm 4's run-ahead (MV).

use rinval::{Aborted, AlgorithmKind, Stm, ThreadHandle, TxResult};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

fn kinds() -> [AlgorithmKind; 4] {
    [
        "rinval-v2:1",
        "rinval-v2:2",
        "rinval-mv:2:1",
        "rinval-mv:1:2",
    ]
    .map(|s| s.parse().unwrap())
}

/// Registers handles until one lands in invalidation-server `k`'s
/// partition (`slot % invalidators == k`; V1 has one partition, its
/// commit-server's); the misses stay registered in `spare` (idle, so
/// never live) until the caller drops them.
fn handle_in<'s>(stm: &'s Stm, k: usize, spare: &mut Vec<ThreadHandle<'s>>) -> ThreadHandle<'s> {
    let nk = stm.algorithm().invalidators().max(1);
    loop {
        let th = stm.register_thread();
        if th.slot() % nk == k {
            return th;
        }
        spare.push(th);
    }
}

/// (a) One client, `N` write commits: no partition ever holds another live
/// transaction, so the commit-server retires every commit for every
/// invalidator — the cursors end at the timestamp, and the invalidators
/// scan only when one happens to be awake for an odd phase.
#[test]
fn lone_client_commits_never_reach_an_invalidator() {
    const N: u64 = 10_000;
    for kind in kinds() {
        let nk = kind.invalidators() as u64;
        let stm = Stm::builder(kind).heap_words(1 << 10).build();
        let c = stm.alloc_init(&[0]);
        let mut th = stm.register_thread();
        let before = stm.server_stats();
        for _ in 0..N {
            th.run(|tx| {
                let v = tx.read(c)?;
                tx.write(c, v + 1)
            });
        }
        let st = stm.server_stats().since(&before);
        assert_eq!(stm.peek(c), N, "{kind:?}");
        let t = stm.timestamp();
        assert_eq!(t, 2 * N, "{kind:?}");
        assert_eq!(stm.inval_timestamps(), vec![t; nk as usize], "{kind:?}");
        assert!(
            st.inval_scans <= N / 100,
            "{kind:?}: {} invalidator scans for {N} lone commits: {st:?}",
            st.inval_scans
        );
        // A retirement fails only where an awake invalidator got there
        // first — and then that one scanned.
        assert!(
            st.quiet_retirements + st.inval_scans >= nk * N,
            "{kind:?}: {st:?}"
        );
    }
}

/// (b) A reader parked mid-transaction in partition `k` after reading `x`
/// is doomed by another client's commit to `x`, for every `k`: its
/// partition is busy, so that commit is handed to `k`'s invalidator, which
/// scans and dooms it; the reader's next read observes the doom. The
/// reader is live because it saw an earlier commit land and promoted.
/// V1 runs it too: its commit-server's inline invalidation must doom a
/// promoted reader the same way.
#[test]
fn live_reader_in_every_partition_is_doomed() {
    let v1 = AlgorithmKind::RInvalV1;
    for kind in std::iter::once(v1).chain(kinds()) {
        for k in 0..kind.invalidators().max(1) {
            let stm = Stm::builder(kind).heap_words(256).build();
            let x = stm.alloc_init(&[10]);
            let z = stm.alloc_init(&[5]);
            let own = stm.alloc_init(&[0]);
            let y = stm.alloc_init(&[0]);
            let mut spare = Vec::new();
            let mut reader = handle_in(&stm, k, &mut spare);
            let mut writer = stm.register_thread();
            drop(spare);
            let doomed = stm.server_stats().txs_doomed;
            let tx_slot = reader.slot();

            let r: TxResult<u64> = reader.try_run(1, |tx| {
                // A first attempt runs off the registry until it observes a
                // commit (DESIGN.md §14): an unrelated commit first, so
                // that the read of `x` promotes the transaction — live and
                // policed — before it reads `x`.
                tx.write(own, 1)?;
                writer.run(|tx2| tx2.write(y, 1));
                tx.read(x)?;
                assert!(stm.registry().live().get(tx_slot), "{kind:?}: not promoted");
                writer.run(|tx2| {
                    let v = tx2.read(x)?;
                    tx2.write(x, v + 1)
                });
                tx.read(z)
            });
            assert_eq!(
                r,
                Err(Aborted),
                "{kind:?}: reader in partition {k} survived"
            );
            assert_eq!(stm.peek(x), 11, "{kind:?}");
            assert_eq!(stm.peek(own), 0, "{kind:?}: doomed write published");
            assert!(
                stm.server_stats().txs_doomed > doomed,
                "{kind:?}: partition {k}'s invalidator never doomed the reader"
            );
        }
    }
}

/// (c) Flip stress: in every partition a reader begins and ends
/// transactions back to back — so each partition keeps flipping between
/// quiet and busy — while two writers move value between accounts. Every
/// reader sees the conserved total, and a sampler watching the cursors
/// never sees one move back.
#[test]
fn partitions_flipping_quiet_keep_the_sum_and_monotone_cursors() {
    const ACCOUNTS: u32 = 8;
    const INITIAL: u64 = 1_000;
    const WRITERS: usize = 2;
    const TRANSFERS: u64 = 3_000;
    for kind in kinds() {
        let nk = kind.invalidators();
        let stm = Stm::builder(kind).heap_words(1 << 12).build();
        let accounts = stm.alloc_init(&[INITIAL; ACCOUNTS as usize]);
        let scratch = stm.alloc(nk);
        let total = INITIAL * ACCOUNTS as u64;
        let writers_done = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let (stm, writers_done, stop) = (&stm, &writers_done, &stop);

        let sum = |tx: &mut rinval::Txn<'_>| -> TxResult<u64> {
            (0..ACCOUNTS).try_fold(0, |s, a| Ok(s + tx.read(accounts.field(a))?))
        };
        let reads = std::thread::scope(|s| {
            for w in 0..WRITERS as u64 {
                s.spawn(move || {
                    let mut th = stm.register_thread();
                    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ w;
                    for _ in 0..TRANSFERS {
                        rng = rinval::sync::mix64(rng);
                        let (from, to) = (rng as u32 % ACCOUNTS, (rng >> 32) as u32 % ACCOUNTS);
                        th.run(|tx| {
                            let a = tx.read(accounts.field(from))?;
                            if a == 0 || from == to {
                                return Ok(());
                            }
                            let b = tx.read(accounts.field(to))?;
                            tx.write(accounts.field(from), a - 1)?;
                            tx.write(accounts.field(to), b + 1)
                        });
                    }
                    if writers_done.fetch_add(1, Ordering::SeqCst) + 1 == WRITERS {
                        stop.store(true, Ordering::SeqCst);
                    }
                });
            }
            let readers: Vec<_> = (0..nk)
                .map(|k| {
                    s.spawn(move || {
                        let mut spare = Vec::new();
                        let mut th = handle_in(stm, k, &mut spare);
                        drop(spare);
                        let mut n = 0u64;
                        while !stop.load(Ordering::SeqCst) {
                            // Every other transaction also writes the
                            // reader's own word: an MV reader is only live
                            // (in the partition) once promoted.
                            let promote = n % 2 == 1;
                            let seen = th.run(|tx| {
                                let v = sum(tx)?;
                                if promote {
                                    tx.write(scratch.field(k as u32), n)?;
                                }
                                Ok(v)
                            });
                            assert_eq!(seen, total, "{kind:?}: torn sum in partition {k}");
                            n += 1;
                        }
                        n
                    })
                })
                .collect();
            s.spawn(move || {
                let mut last = vec![0u64; nk];
                while !stop.load(Ordering::SeqCst) {
                    let now = stm.inval_timestamps();
                    for (k, (&was, &is)) in last.iter().zip(&now).enumerate() {
                        assert!(is >= was, "{kind:?}: inval_ts[{k}] moved back {was} → {is}");
                    }
                    last = now;
                    std::thread::yield_now();
                }
            });
            readers.into_iter().map(|r| r.join().unwrap()).sum::<u64>()
        });

        let mut th = stm.register_thread();
        assert_eq!(th.run(sum), total, "{kind:?}");
        assert!(reads > 0, "{kind:?}: no reader ever ran");
        assert!(!stm.is_degraded(), "{kind:?}");
        let t = stm.timestamp();
        assert!(
            stm.inval_timestamps().iter().all(|&c| c <= t),
            "{kind:?}: a cursor ran past the timestamp"
        );
    }
}
