//! Summary-bitmap coherence and V1 commit-server tests.
//!
//! The registry's `pending`/`live` bitmaps are *summaries* of per-slot
//! state; the servers trust them to find every request and every live
//! transaction. These tests stress the two invariants the protocol rests
//! on, and pin down that the V1 commit-server — the commit loop with no
//! invalidation-server — commits every request under its own timestamp
//! bump pair, serializes conflicts and invalidates inline:
//!
//! * **live**: at every point of the `SeqCst` total order,
//!   `tx_status != TX_IDLE` implies the slot's live bit is set
//!   (set-before-alive / clear-after-idle).
//! * **pending**: a set pending bit implies the slot carries a posted
//!   request — its `req` cell reads `REQ_PENDING`, `REQ_CLAIMED` or
//!   `REQ_IRREVOCABLE` (an irrevocable-token request travels the same
//!   summary map; set-after-post; only the server clears, after claiming
//!   and before answering).
//!
//! A checker thread cannot sample a remote slot atomically, so each probe
//! brackets its reads with the slot's `epoch` counter (bumped on every
//! `begin`): if the epoch is unchanged across the probe, the sampled
//! values belong to one transaction attempt and the implication must hold.

use rinval::registry::{REQ_CLAIMED, REQ_IRREVOCABLE, REQ_PENDING, TX_IDLE};
use rinval::{AlgorithmKind, Stm, TxResult};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn stress_algos() -> [AlgorithmKind; 4] {
    [
        AlgorithmKind::InvalStm,
        AlgorithmKind::RInvalV1,
        AlgorithmKind::RInvalV2 { invalidators: 2 },
        AlgorithmKind::RInvalMV {
            invalidators: 2,
            steps_ahead: 2,
        },
    ]
}

/// N clients hammer begin/commit/abort while a checker cross-validates the
/// summary maps against per-slot request state and `tx_status`.
#[test]
fn summary_maps_agree_with_slot_state_under_stress() {
    const CLIENTS: usize = 4;
    for algo in stress_algos() {
        let stm = Stm::builder(algo)
            .heap_words(1 << 12)
            .max_threads(16)
            .build();
        // A contended word (forces conflicts/aborts) plus per-client
        // private words (commits that never conflict).
        let shared = stm.alloc_init(&[0]);
        let private = stm.alloc(CLIENTS);
        let stop = AtomicBool::new(false);
        let stm_ref = &stm;
        let stop_ref = &stop;

        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                s.spawn(move || {
                    let mut th = stm_ref.register_thread();
                    let mine = private.field(c as u32);
                    while !stop_ref.load(Ordering::Relaxed) {
                        th.run(|tx| {
                            let v = tx.read(shared)?;
                            tx.write(shared, v + 1)
                        });
                        th.run(|tx| {
                            let v = tx.read(mine)?;
                            tx.write(mine, v + 1)
                        });
                        // Aborted attempts must also keep the maps honest.
                        let _: TxResult<()> = th.try_run(1, |tx| {
                            let v = tx.read(shared)?;
                            tx.write(shared, v)?;
                            tx.user_abort()
                        });
                    }
                });
            }

            s.spawn(move || {
                let reg = stm_ref.registry();
                let mut probes = 0u64;
                while !stop_ref.load(Ordering::Relaxed) {
                    for i in 0..reg.len() {
                        let slot = reg.slot(i);

                        // live: epoch-bracketed "alive implies bit set".
                        let e1 = slot.epoch.load(Ordering::SeqCst);
                        let s1 = slot.tx_status.load(Ordering::SeqCst);
                        let bit = reg.live().get(i);
                        let s2 = slot.tx_status.load(Ordering::SeqCst);
                        let e2 = slot.epoch.load(Ordering::SeqCst);
                        if e1 == e2 && s1 != TX_IDLE && s2 != TX_IDLE {
                            assert!(
                                bit,
                                "slot {i} live (status {s1}/{s2}, epoch {e1}) \
                                 but its live bit is clear under {algo:?}"
                            );
                        }

                        // pending: epoch-bracketed "bit set implies PENDING".
                        let e1 = slot.epoch.load(Ordering::SeqCst);
                        let b1 = reg.pending().get(i);
                        let st = slot.req.state();
                        let b2 = reg.pending().get(i);
                        let e2 = slot.epoch.load(Ordering::SeqCst);
                        if e1 == e2 && b1 && b2 {
                            assert!(
                                st == REQ_PENDING || st == REQ_CLAIMED || st == REQ_IRREVOCABLE,
                                "slot {i} has its pending bit set but \
                                 request state {st} under {algo:?}"
                            );
                        }
                        probes += 1;
                    }
                }
                assert!(probes > 0);
            });

            let deadline = Instant::now() + Duration::from_millis(250);
            while Instant::now() < deadline {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
        });

        // Quiescent: every handle dropped, so release() must have wiped
        // both maps clean.
        let reg = stm.registry();
        for i in 0..reg.len() {
            assert!(!reg.live().get(i), "stale live bit {i} under {algo:?}");
            assert!(
                !reg.pending().get(i),
                "stale pending bit {i} under {algo:?}"
            );
        }
        assert!(stm.peek(shared) > 0);
    }
}

/// Disjoint write-sets from many V1 clients must all land, each commit
/// under its own timestamp bump pair.
#[test]
fn v1_disjoint_commits_all_land() {
    const CLIENTS: usize = 8;
    const OPS: u64 = 200;
    let stm = Stm::builder(AlgorithmKind::RInvalV1)
        .heap_words(1 << 12)
        .max_threads(16)
        .build();
    let arr = stm.alloc(CLIENTS);
    let stm_ref = &stm;

    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            s.spawn(move || {
                let mut th = stm_ref.register_thread();
                let mine = arr.field(c as u32);
                for _ in 0..OPS {
                    th.run(|tx| {
                        let v = tx.read(mine)?;
                        tx.write(mine, v + 1)
                    });
                }
            });
        }
    });

    for c in 0..CLIENTS {
        assert_eq!(stm.peek(arr.field(c as u32)), OPS, "client {c} lost writes");
    }
    // One odd/even timestamp pair per write commit.
    assert_eq!(stm.timestamp(), 2 * (CLIENTS as u64) * OPS);
}

/// Conflicting write-sets must serialize: concurrent read-modify-write
/// transactions on one counter may never lose an increment.
#[test]
fn v1_conflicting_commits_serialize() {
    const CLIENTS: usize = 4;
    const OPS: u64 = 300;
    let stm = Stm::builder(AlgorithmKind::RInvalV1)
        .heap_words(256)
        .max_threads(8)
        .build();
    let counter = stm.alloc_init(&[0]);
    let stm_ref = &stm;

    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(move || {
                let mut th = stm_ref.register_thread();
                for _ in 0..OPS {
                    th.run(|tx| {
                        let v = tx.read(counter)?;
                        tx.write(counter, v + 1)
                    });
                }
            });
        }
    });

    assert_eq!(stm.peek(counter), (CLIENTS as u64) * OPS);
}

/// Deterministic read-write dependency: a transaction that read what a
/// commit wrote must be aborted by that commit's inline invalidation.
#[test]
fn v1_read_write_dependent_requests_do_not_merge() {
    let stm = Stm::builder(AlgorithmKind::RInvalV1)
        .heap_words(256)
        .build();
    let x = stm.alloc_init(&[1]);
    let y = stm.alloc_init(&[0]);
    let mut th1 = stm.register_thread();
    let mut th2 = stm.register_thread();
    let me = th1.slot();

    // th1 reads x, then th2 commits a write to x, then th1 tries to
    // commit a write to y derived from the stale x. A first attempt would
    // stay off the registry (DESIGN.md §14) and fail its revalidation
    // instead, so the first attempt aborts on purpose and the retry —
    // registered from its begin — is the one the commit must doom.
    let mut first = true;
    let r: TxResult<()> = th1.try_run(2, |tx| {
        if std::mem::take(&mut first) {
            return tx.user_abort();
        }
        let v = tx.read(x)?;
        assert!(stm.registry().live().get(me), "the retry is not live");
        th2.run(|tx2| {
            let cur = tx2.read(x)?;
            tx2.write(x, cur + 10)
        });
        tx.write(y, v * 100)
    });
    assert!(r.is_err(), "stale read-write dependency committed");
    assert_eq!(stm.peek(x), 11);
    assert_eq!(stm.peek(y), 0);
    assert_eq!(stm.server_stats().txs_doomed, 1, "not doomed inline");
}

/// The scan counters actually expose the bitmap win: with at most a
/// handful of live transactions in a large registry, visited slots per
/// pass must be far below the registry capacity.
#[test]
fn scan_counters_show_sparse_visits() {
    let stm = Stm::builder(AlgorithmKind::RInvalV1)
        .heap_words(256)
        .max_threads(128)
        .build();
    let x = stm.alloc_init(&[0]);
    let mut th = stm.register_thread();
    for _ in 0..100 {
        th.run(|tx| {
            let v = tx.read(x)?;
            tx.write(x, v + 1)
        });
    }
    drop(th);
    let stats = stm.server_stats();
    assert!(stats.scan_passes > 0);
    // One client: each pass visits at most one pending slot, against a
    // 128-slot full walk.
    assert!(
        stats.visited_per_pass() <= 2.0,
        "visited/pass {} is not sparse",
        stats.visited_per_pass()
    );
    assert!(stats.full_scan_equivalent(stm.registry_len()) >= 128 * stats.scan_passes);
    // Invalidation scans visited only live slots (here: nobody but the
    // committer, which is skipped), never the whole registry.
    assert!(stats.inval_slots_visited <= stats.inval_scans);
}
