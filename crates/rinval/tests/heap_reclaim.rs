//! Reclamation-safety stress tests for the transactional allocation
//! lifecycle, run under every [`AlgorithmKind`].
//!
//! Properties exercised:
//!
//! * **No double-handout** — an address returned by [`rinval::Txn::alloc`]
//!   is never handed out again while its current holder has not committed
//!   a [`rinval::Txn::free`] for it. Checked with a global held-address
//!   set, in the spirit of `tests/bitmaps.rs`'s cross-thread probes.
//! * **No premature-reuse corruption** — a held block's contents (a tag
//!   pair written at handout) are re-read transactionally before the free;
//!   any recycling of a live block would break the pair.
//! * **Abort-path reclaim** — speculative allocations of aborted attempts
//!   are surrendered, so abort churn does not grow the arena.
//! * **Steady-state churn is flat** — single-threaded alloc/free cycling
//!   reuses one block forever instead of advancing the bump frontier.

use rinval::{AlgorithmKind, Stm, TxResult};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Concurrent alloc/hold/verify/free churn. Each handed-out block carries a
/// unique tag pair; a double-handout trips the held-set insert, a premature
/// recycle (the zeroing on re-handout, or another holder's tag) trips the
/// transactional pair check.
#[test]
fn concurrent_churn_no_double_handout_no_corruption() {
    const THREADS: u64 = 3;
    const ITERS: u64 = 120;
    const HOLD: usize = 4;
    for algo in AlgorithmKind::all(2, 2) {
        let stm = Stm::builder(algo)
            .heap_words(1 << 10)
            .max_threads(16)
            .build();
        let held: Mutex<HashSet<u32>> = Mutex::new(HashSet::new());
        let stm_ref = &stm;
        let held_ref = &held;

        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    let mut th = stm_ref.register_thread();
                    let mut holding: Vec<(rinval::Handle, u64)> = Vec::new();
                    for i in 0..ITERS {
                        let tag = (t << 32) | i | (1 << 63);
                        let h = th.run(|tx| {
                            let h = tx.alloc(2)?;
                            tx.write(h.field(0), tag)?;
                            tx.write(h.field(1), tag ^ 0xABCD)?;
                            Ok(h)
                        });
                        assert!(
                            held_ref.lock().unwrap().insert(h.to_word() as u32),
                            "{algo:?}: address {h:?} handed out while still held"
                        );
                        holding.push((h, tag));
                        if holding.len() >= HOLD {
                            let (old, old_tag) = holding.remove(0);
                            // Withdraw from the held set before the free can
                            // commit (a recycle may legally follow commit
                            // immediately).
                            held_ref.lock().unwrap().remove(&(old.to_word() as u32));
                            th.run(|tx| {
                                let a = tx.read(old.field(0))?;
                                let b = tx.read(old.field(1))?;
                                assert_eq!(
                                    (a, b ^ 0xABCD),
                                    (old_tag, old_tag),
                                    "{algo:?}: held block corrupted (premature reuse)"
                                );
                                tx.free(old, 2)
                            });
                        }
                    }
                    for (old, _) in holding {
                        held_ref.lock().unwrap().remove(&(old.to_word() as u32));
                        th.run(|tx| tx.free(old, 2));
                    }
                });
            }
        });

        let st = stm.heap_stats();
        assert_eq!(st.freed_words, THREADS * ITERS * 2, "{algo:?}: lost frees");
        assert!(
            st.recycled_words > 0,
            "{algo:?}: no recycling under sustained churn"
        );
        assert!(
            st.allocated_words < THREADS * ITERS * 2,
            "{algo:?}: churn advanced the bump frontier as if nothing were \
             recycled ({} words)",
            st.allocated_words
        );
    }
}

/// Single-threaded alloc→free cycling must reach a steady state: after the
/// first block, every take recycles it (the freeing thread's own next
/// transaction always starts past the free's era stamp) — and hands it
/// out zeroed, whatever the previous owner left in it.
#[test]
fn steady_state_churn_does_not_grow_arena() {
    for algo in AlgorithmKind::all(2, 2) {
        let stm = Stm::builder(algo).heap_words(1 << 10).build();
        let mut th = stm.register_thread();
        for i in 1..=200u64 {
            let h = th.run(|tx| {
                let h = tx.alloc(3)?;
                assert_eq!(tx.read(h)?, 0, "{algo:?}: recycled block not zeroed");
                tx.write(h, i)?;
                Ok(h)
            });
            th.run(|tx| {
                let v = tx.read(h)?;
                assert_eq!(v, i, "{algo:?}: block lost its value");
                tx.free(h, 3)
            });
        }
        let st = stm.heap_stats();
        assert!(
            st.allocated_words <= 3,
            "{algo:?}: steady-state churn grew the arena to {} words",
            st.allocated_words
        );
        assert_eq!(st.freed_words, 200 * 3, "{algo:?}");
        assert_eq!(st.recycled_words, 199 * 3, "{algo:?}");
    }
}

/// Aborted attempts surrender their speculative allocations; unbounded
/// abort churn must not consume unbounded arena (the old bump heap leaked
/// every aborted allocation).
#[test]
fn abort_churn_does_not_leak() {
    for algo in AlgorithmKind::all(2, 2) {
        let stm = Stm::builder(algo).heap_words(1 << 10).build();
        let mut th = stm.register_thread();
        for _ in 0..100 {
            let r: TxResult<()> = th.try_run(1, |tx| {
                let h = tx.alloc(4)?;
                tx.write(h, 7)?;
                tx.user_abort()
            });
            assert!(r.is_err());
        }
        let st = stm.heap_stats();
        assert!(
            st.allocated_words <= 4,
            "{algo:?}: abort churn leaked arena words ({} allocated)",
            st.allocated_words
        );
        assert_eq!(st.freed_words, 0, "{algo:?}: aborted attempts freed");
    }
}

/// A free whose transaction aborts must not retire the block: the value
/// survives and the block is never handed out again while reachable.
#[test]
fn aborted_free_is_discarded() {
    for algo in AlgorithmKind::all(2, 2) {
        let stm = Stm::builder(algo).heap_words(1 << 10).build();
        let mut th = stm.register_thread();
        let h = th.run(|tx| {
            let h = tx.alloc(2)?;
            tx.write(h, 42)?;
            Ok(h)
        });
        let r: TxResult<()> = th.try_run(1, |tx| {
            tx.free(h, 2)?;
            tx.user_abort()
        });
        assert!(r.is_err());
        let fresh = th.run(|tx| tx.alloc(2));
        assert_ne!(fresh, h, "{algo:?}: aborted free recycled a live block");
        assert_eq!(stm.peek(h), 42, "{algo:?}");
        assert_eq!(stm.heap_stats().freed_words, 0, "{algo:?}");
    }
}

fn mv_stm() -> Stm {
    Stm::builder(AlgorithmKind::RInvalMV {
        invalidators: 2,
        steps_ahead: 2,
    })
    .heap_words(1 << 10)
    .build()
}

/// Runs `f` while a declared reader is parked mid-`run_ro` on a second
/// thread. MV versions a commit only while such a reader is in flight, so
/// every commit `f` makes appends to its words' rings.
fn with_parked_reader<R>(stm: &Stm, f: impl FnOnce() -> R) -> R {
    let (parked, release) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut th = stm.register_thread();
            th.run_ro(|_| {
                parked.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(50));
                }
                Ok(())
            });
        });
        while !parked.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(50));
        }
        let r = f();
        release.store(true, Ordering::SeqCst);
        r
    })
}

/// Churns three words for `rounds` write commits.
fn churn(th: &mut rinval::ThreadHandle<'_>, h: rinval::Handle, rounds: u64) {
    for i in 0..rounds {
        th.run(|tx| {
            for k in 0..3u32 {
                tx.write(h.field(k), i * 10 + k as u64 + 1)?;
            }
            Ok(())
        });
    }
}

/// MV version recycling: ring entries retired by write commits made while
/// a declared reader is in flight are shed when their block passes the
/// reclamation horizon and is handed out again — old versions never
/// survive into a recycled block, and the occupancy telemetry reflects the
/// shedding.
#[test]
fn retired_versions_recycle_past_the_horizon() {
    let stm = mv_stm();
    let mut th = stm.register_thread();
    let h = th.run(|tx| tx.alloc(3));
    // Churn with a reader in flight: every write commit retires the
    // pre-image into the word's ring, far past the ring depth.
    const ROUNDS: u64 = 40;
    with_parked_reader(&stm, || churn(&mut th, h, ROUNDS));
    let st = stm.heap_stats();
    assert!(
        st.version_ring_depth > 0,
        "MV instances must enable the ring"
    );
    assert!(
        st.version_appends >= ROUNDS * 3,
        "every write-back under a reader must append a version (appends = {})",
        st.version_appends
    );
    assert!(
        st.version_entries > 0 && st.version_entries <= 3 * st.version_ring_depth as u64,
        "occupancy must be bounded by words × depth (entries = {})",
        st.version_entries
    );

    // Free the block and cycle it through the horizon (the parked reader,
    // which pinned it, has ended): the freeing thread's own next
    // transaction starts past the free's era stamp, so the very next alloc
    // recycles it — and must shed its versions.
    th.run(|tx| tx.free(h, 3));
    let fresh = th.run(|tx| tx.alloc(3));
    let st = stm.heap_stats();
    assert!(st.recycled_words >= 3, "block was not recycled: {st:?}");
    assert_eq!(
        st.version_entries, 0,
        "recycled block kept stale versions: {st:?}"
    );
    // The recycled block reads as zero through the snapshot path (a stale
    // ring entry would resurface the old values there).
    th.run_ro(|tx| {
        for k in 0..3u32 {
            assert_eq!(tx.read(fresh.field(k))?, 0, "stale value resurfaced");
        }
        Ok(())
    });
    // And fresh write-backs re-seed the ring from scratch: one commit on
    // one word under a reader leaves exactly the pre-image seed plus the
    // new version.
    with_parked_reader(&stm, || th.run(|tx| tx.write(fresh, 99)));
    assert_eq!(stm.heap_stats().version_entries, 2);
}

/// The converse: with no declared reader in flight, MV commits store
/// plainly — no version is appended and no ring entry is ever occupied.
#[test]
fn commits_without_a_reader_append_no_versions() {
    let stm = mv_stm();
    let mut th = stm.register_thread();
    let h = th.run(|tx| tx.alloc(3));
    churn(&mut th, h, 40);
    let st = stm.heap_stats();
    assert_eq!(stm.timestamp(), 2 * 40, "every round committed");
    assert_eq!(
        (st.version_appends, st.version_entries),
        (0, 0),
        "a commit with no reader in flight was versioned: {st:?}"
    );
}

/// The growable heap keeps allocating far past its initial arena under
/// every algorithm (no free calls at all — pure growth).
#[test]
fn arena_grows_under_allocation_pressure() {
    for algo in AlgorithmKind::all(2, 2) {
        let stm = Stm::builder(algo).heap_words(256).build();
        let mut th = stm.register_thread();
        let mut handles = Vec::new();
        for i in 0..500u64 {
            let h = th.run(|tx| {
                let h = tx.alloc(4)?;
                tx.write(h, i)?;
                Ok(h)
            });
            handles.push((h, i));
        }
        for (h, i) in handles {
            assert_eq!(stm.peek(h), i, "{algo:?}: value lost across growth");
        }
        let st = stm.heap_stats();
        assert!(
            st.allocated_words >= 2000 && st.live_segments >= 2,
            "{algo:?}: expected multi-segment growth, got {st:?}"
        );
    }
}
