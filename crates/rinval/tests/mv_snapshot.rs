//! MV snapshot-path guarantees ([`AlgorithmKind::RInvalMV`], DESIGN.md
//! §14): read-only transactions resolve against the per-word version ring
//! at their begin snapshot, so they
//!
//! 1. commit in **exactly one attempt** under a hostile writer stream
//!    (they never validate and nothing can doom them),
//! 2. observe **opaque snapshots** — no torn multi-word reads across a
//!    concurrent commit (checked on the V1/V2 declared readers too,
//!    beside writers that run their first attempts off the registry),
//! 3. survive **ring misses** (a word overwritten more than the ring
//!    depth since the snapshot) through the bounded
//!    revalidate-and-advance fallback, which terminates.

use rinval::{AlgorithmKind, Stm};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

fn mv() -> AlgorithmKind {
    AlgorithmKind::RInvalMV {
        invalidators: 2,
        steps_ahead: 2,
    }
}

/// (i) One attempt per RO transaction, zero aborts, while writers hammer
/// one of the words the readers visit.
///
/// The reader's footprint is designed so this is a *certainty*, not a
/// race: its value read-set holds only never-written quiet words by the
/// time it reaches the contended word, so even a ring miss there
/// revalidates cleanly and the attempt still commits. Any validation or
/// invalidation of RO transactions — the thing this engine removes —
/// would make the abort counter nonzero under this stream.
#[test]
fn ro_commits_in_one_attempt_under_hostile_writers() {
    const QUIET: u32 = 16;
    const RO_TXS: u64 = 400;
    let stm = Stm::builder(mv())
        .heap_words(1 << 12)
        .max_threads(8)
        .build();
    let arr = stm.alloc(QUIET as usize + 1);
    let contended = arr.field(QUIET);
    let stop = AtomicBool::new(false);
    let attempts = AtomicU64::new(0);

    let (ro_aborts, writer_commits) = std::thread::scope(|s| {
        let writers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut th = stm.register_thread();
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        th.run(|tx| {
                            let v = tx.read(contended)?;
                            tx.write(contended, v + 1)
                        });
                        n += 1;
                    }
                    n
                })
            })
            .collect();

        let reader = s.spawn(|| {
            let mut th = stm.register_thread();
            // 400 snapshot reads can finish before a writer's first commit
            // has woken a parked server; the stream is hostile only once
            // it has started.
            while stm.timestamp() == 0 {
                std::thread::yield_now();
            }
            for _ in 0..RO_TXS {
                let sum = th.run_ro(|tx| {
                    attempts.fetch_add(1, Ordering::Relaxed);
                    assert!(tx.is_read_only(), "declared-RO must report read-only");
                    let mut acc = 0u64;
                    for k in 0..QUIET {
                        acc = acc.wrapping_add(tx.read(arr.field(k))?);
                    }
                    // The contended word last: the read-set holds only
                    // quiet words when a ring miss can strike here.
                    Ok(acc.wrapping_add(tx.read(contended)?))
                });
                // Quiet words are all zero, so the sum is whatever value
                // of the contended word the snapshot resolved.
                let _ = sum;
            }
            th.take_stats().aborts
        });

        let ro_aborts = reader.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        let wc = writers.into_iter().map(|w| w.join().unwrap()).sum::<u64>();
        (ro_aborts, wc)
    });

    assert!(writer_commits > 0, "writer stream never ran");
    assert_eq!(ro_aborts, 0, "a read-only transaction aborted");
    assert_eq!(
        attempts.load(Ordering::Relaxed),
        RO_TXS,
        "a read-only transaction needed more than one attempt"
    );
    let st = stm.server_stats();
    assert_eq!(
        st.ro_snapshot_commits, RO_TXS,
        "every RO transaction must commit through the snapshot path"
    );
    // Every writer commit went through the commit-server exactly once
    // (registered or off the registry), and only writers ever post.
    assert_eq!(
        stm.timestamp(),
        2 * writer_commits,
        "writer commits and server timestamp disagree: {st:?}"
    );
}

/// (ii) Snapshot opacity: concurrent transfers preserve a conserved sum
/// across four words; a torn read (some words before a commit's
/// write-back, some after) would break it. Readers may abort here — a
/// ring miss mid-stream revalidates words the writers *do* touch — but
/// every value they return must be consistent, and no partial sum may
/// exceed the total even inside an attempt that later aborts.
///
/// The same stream runs against the V1/V2 declared readers, which read
/// unregistered and promote in place once a commit lands inside their
/// attempt (DESIGN.md §14): promotions must actually happen there.
#[test]
fn snapshots_are_opaque_no_torn_reads() {
    const TOTAL: u64 = 1_000;
    const TRANSFERS: u64 = 3_000;
    let kinds: [AlgorithmKind; 2] = ["rinval-v1", "rinval-v2:2"].map(|s| s.parse().unwrap());
    for kind in std::iter::once(mv()).chain(kinds) {
        let stm = Stm::builder(kind)
            .heap_words(1 << 12)
            .max_threads(8)
            .build();
        let arr = stm.alloc(4);
        stm.poke(arr.field(0), TOTAL);
        let done = AtomicBool::new(false);
        // Writers start only once both readers run, so that on one core the
        // transfers cannot all finish before a reader's first attempt.
        let start = Barrier::new(4);
        let (stm, done, start) = (&stm, &done, &start);

        std::thread::scope(|s| {
            let writers: Vec<_> = (0..2)
                .map(|w| {
                    s.spawn(move || {
                        let mut th = stm.register_thread();
                        start.wait();
                        for i in 0..TRANSFERS {
                            let from = arr.field(((i + w) % 4) as u32);
                            let to = arr.field(((i + w + 1) % 4) as u32);
                            th.run(|tx| {
                                let a = tx.read(from)?;
                                let b = tx.read(to)?;
                                if a > 0 {
                                    tx.write(from, a - 1)?;
                                    tx.write(to, b + 1)?;
                                }
                                Ok(())
                            });
                        }
                    })
                })
                .collect();

            let readers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut th = stm.register_thread();
                        start.wait();
                        let mut seen = 0u64;
                        while !done.load(Ordering::Relaxed) || seen < 50 {
                            let mut attempts = 0;
                            let sum = th.run_ro(|tx| {
                                attempts += 1;
                                let mut acc = 0u64;
                                for k in 0..4 {
                                    // Every other transaction waits for a
                                    // commit before one of its reads — the
                                    // first, with nothing to revalidate, or
                                    // a later one — so commits land inside
                                    // attempts even on one core. First
                                    // attempts only: a retry may hold the
                                    // irrevocable token, and no commit
                                    // lands while it does.
                                    if attempts == 1 && seen % 8 == u64::from(k) {
                                        let t = stm.timestamp();
                                        while stm.timestamp() == t && !done.load(Ordering::Relaxed)
                                        {
                                            std::thread::yield_now();
                                        }
                                    }
                                    acc += tx.read(arr.field(k))?;
                                    assert!(acc <= TOTAL, "{kind:?}: partial sum {acc}");
                                }
                                Ok(acc)
                            });
                            assert_eq!(sum, TOTAL, "{kind:?}: torn multi-word snapshot");
                            seen += 1;
                        }
                        seen
                    })
                })
                .collect();

            for w in writers {
                w.join().unwrap();
            }
            done.store(true, Ordering::Relaxed);
            for r in readers {
                assert!(r.join().unwrap() >= 50);
            }
        });

        let sum: u64 = (0..4).map(|k| stm.peek(arr.field(k))).sum();
        assert_eq!(sum, TOTAL, "{kind:?}");
        let st = stm.server_stats();
        if kind == mv() {
            // MV's declared readers never leave the snapshot path.
            assert!(st.ro_snapshot_commits >= 100, "{kind:?}: {st:?}");
        } else {
            // V1/V2 readers promote on the first commit they observe.
            assert!(st.ro_promotions > 0, "{kind:?}: nothing ever promoted");
        }
        assert!(!stm.is_degraded(), "{kind:?}");
    }
}

/// (iii) A forced ring miss takes the fallback exactly once and
/// terminates with the current value: the reader opens its snapshot, a
/// writer then overwrites one word strictly more times than the ring
/// depth, and only then does the reader touch that word.
#[test]
fn ring_miss_fallback_terminates_and_advances() {
    const OVERWRITES: u64 = 64; // comfortably > any plausible ring depth
    let stm = Stm::builder(mv())
        .heap_words(1 << 10)
        .max_threads(4)
        .build();
    let arr = stm.alloc(2);
    let quiet = arr.field(0);
    let hot = arr.field(1);
    let snapshot_open = AtomicBool::new(false);
    let writer_done = AtomicBool::new(false);

    let (attempts, v) = std::thread::scope(|s| {
        s.spawn(|| {
            let mut th = stm.register_thread();
            while !snapshot_open.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
            for _ in 0..OVERWRITES {
                th.run(|tx| {
                    let v = tx.read(hot)?;
                    tx.write(hot, v + 1)
                });
            }
            writer_done.store(true, Ordering::Relaxed);
        });

        let mut th = stm.register_thread();
        let mut attempts = 0u64;
        let v = th.run_ro(|tx| {
            attempts += 1;
            // Pin the snapshot with a benign read, then let the writer
            // age the hot word's ring past our snapshot.
            let q = tx.read(quiet)?;
            assert_eq!(q, 0);
            snapshot_open.store(true, Ordering::Relaxed);
            while !writer_done.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
            tx.read(hot)
        });
        (attempts, v)
    });

    assert_eq!(v, OVERWRITES, "fallback must resolve to the current value");
    assert_eq!(
        attempts, 1,
        "the miss fallback must advance the snapshot, not restart"
    );
    let st = stm.server_stats();
    assert!(
        st.ring_misses >= 1,
        "the hot word must have fallen off the ring: {st:?}"
    );
    assert_eq!(st.ro_snapshot_commits, 1);
}

/// `run_ro` works on every engine — they differ only in what the
/// declaration buys (NOrec runs a plain transaction with an empty
/// write-set, V1/V2 an unregistered snapshot reader, MV a version-ring
/// reader) — and the declared-RO state does not leak into the handle's
/// next transaction.
#[test]
fn run_ro_is_engine_independent() {
    for kind in AlgorithmKind::all(2, 2) {
        let stm = Stm::builder(kind).heap_words(1 << 10).build();
        let c = stm.alloc_init(&[7]);
        let mut th = stm.register_thread();
        assert_eq!(th.run_ro(|tx| tx.read(c)), 7, "{kind:?}");
        // A write after run_ro still works (the declared-RO state must
        // not leak into subsequent transactions).
        th.run(|tx| tx.write(c, 8));
        assert_eq!(stm.peek(c), 8, "{kind:?}");
    }
}

/// Writing inside `run_ro` is API misuse and panics — on every engine —
/// without poisoning the instance.
#[test]
fn run_ro_write_panics_and_contains() {
    let stm = Stm::builder(mv()).heap_words(1 << 10).build();
    let c = stm.alloc_init(&[1]);
    let mut th = stm.register_thread();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        th.run_ro(|tx| tx.write(c, 2))
    }));
    assert!(r.is_err(), "write inside run_ro must panic");
    assert_eq!(stm.peek(c), 1, "the forbidden write must not publish");
    // The same handle still runs transactions afterwards.
    assert_eq!(th.run_ro(|tx| tx.read(c)), 1);
    th.run(|tx| tx.write(c, 5));
    assert_eq!(stm.peek(c), 5);
}

/// A deadline-bounded read-only transaction on MV runs the unregistered
/// snapshot path every RInval kind's first attempt takes (DESIGN.md §14),
/// not the declared readers' version ring: it commits first try, touches
/// neither the registry nor the commit-server, and is not counted as a
/// ring snapshot commit.
#[test]
fn ro_with_deadline_on_snapshot_path() {
    let stm = Stm::builder(mv()).heap_words(1 << 10).build();
    let c = stm.alloc_init(&[3]);
    let mut th = stm.register_thread();
    let me = th.slot();
    let v = th
        .try_run_for(Duration::from_secs(30), |tx| {
            let v = tx.read(c)?;
            assert!(
                !stm.registry().live().get(me),
                "a first attempt registered before any commit landed"
            );
            Ok(v)
        })
        .unwrap();
    assert_eq!(v, 3);
    assert_eq!(th.stats().aborts, 0);
    let st = stm.server_stats();
    assert_eq!(stm.timestamp(), 0, "a read-only attempt posted a request");
    assert_eq!((st.ro_snapshot_commits, st.ro_promotions), (0, 0), "{st:?}");
}

/// Parks a declared reader mid-`run_ro` on a thread of `s`: its snapshot
/// is taken and its flag is up once `parked` is raised; it reads `w` — or
/// nothing, if `w` is `None` — once `go` is raised, and returns the value.
fn park_reader<'s>(
    s: &'s std::thread::Scope<'s, '_>,
    stm: &'s Stm,
    w: Option<rinval::Handle>,
    parked: &'s AtomicBool,
    go: &'s AtomicBool,
) -> std::thread::ScopedJoinHandle<'s, u64> {
    let h = s.spawn(move || {
        let mut th = stm.register_thread();
        th.run_ro(|tx| {
            parked.store(true, Ordering::SeqCst);
            while !go.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(50));
            }
            w.map_or(Ok(0), |w| tx.read(w))
        })
    });
    while !parked.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_micros(50));
    }
    h
}

/// (iv) The version base, deterministically. A commit made while reader
/// A is in flight is versioned; once A ends, the next commit is not — it
/// stores plainly and leaves the ring entries below it stale. Reader B
/// then snapshots between that commit and a third, versioned one, so the
/// value B must read exists in no version: the third commit's write-back
/// seeds it at the base stamp, and only the seed can answer B. A stale
/// entry read as current gives B 1; no seed gives B a ring miss, and the
/// fallback's present value 3.
#[test]
fn stale_ring_entries_never_answer_a_later_snapshot() {
    let stm = Stm::builder(mv())
        .heap_words(1 << 10)
        .max_threads(4)
        .build();
    let w = stm.alloc(1);
    let mut th = stm.register_thread();
    let appends = || stm.heap_stats().version_appends;
    let flags: [AtomicBool; 4] = Default::default();
    let [a_parked, a_go, b_parked, b_go] = &flags;
    // Each count is asserted after its parked reader is released, so a
    // failing assert cannot leave the scope waiting on a parked thread.
    let b_read = std::thread::scope(|s| {
        let a = park_reader(s, &stm, None, a_parked, a_go);
        th.run(|tx| tx.write(w, 1));
        let under_a = appends();
        a_go.store(true, Ordering::SeqCst);
        a.join().unwrap();
        assert_eq!(under_a, 1, "a commit under reader A was not versioned");
        th.run(|tx| tx.write(w, 2));
        assert_eq!(
            appends(),
            1,
            "a commit with no reader in flight was versioned"
        );
        let b = park_reader(s, &stm, Some(w), b_parked, b_go);
        th.run(|tx| tx.write(w, 3));
        let under_b = appends();
        b_go.store(true, Ordering::SeqCst);
        let b_read = b.join().unwrap();
        assert_eq!(under_b, 2, "a commit under reader B was not versioned");
        b_read
    });
    assert_eq!(b_read, 2, "reader B read past its snapshot's value");
    let st = stm.server_stats();
    assert_eq!((st.ring_misses, st.ro_snapshot_commits), (0, 2), "{st:?}");
}

/// (v) Declared readers begin and end continuously while writers rotate
/// a conserved sum, so readers keep beginning while a commit that missed
/// their flag writes back unversioned — the commit their begin must wait
/// out. Every commit rewrites all `WORDS` words (a rotation of distinct
/// powers of two), so a torn snapshot — some words before a write-back,
/// some after — repeats one value and drops another, and the write-back
/// a beginning reader can land in is long. Every reader checks the sum
/// inside its attempt. Run on one core too (CI's oversubscribed job).
/// Half the attempts hold their snapshot across a commit and the readers
/// pause between attempts, so the run has commits of both kinds.
#[test]
fn readers_beginning_and_ending_under_writers_see_conserved_sums() {
    const WORDS: u32 = 16;
    const ROTATIONS: u64 = 2_000;
    let stm = Stm::builder(mv())
        .heap_words(1 << 12)
        .max_threads(8)
        .build();
    let arr = stm.alloc(WORDS as usize);
    for k in 0..WORDS {
        stm.poke(arr.field(k), 1 << k);
    }
    let total: u64 = (1 << WORDS) - 1;
    let done = AtomicBool::new(false);
    let (stm, done) = (&stm, &done);
    let reads = std::thread::scope(|s| {
        let writers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(move || {
                    let mut th = stm.register_thread();
                    for _ in 0..ROTATIONS {
                        th.run(|tx| {
                            let first = tx.read(arr.field(0))?;
                            for k in 0..WORDS - 1 {
                                let next = tx.read(arr.field(k + 1))?;
                                tx.write(arr.field(k), next)?;
                            }
                            tx.write(arr.field(WORDS - 1), first)
                        });
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|r| {
                s.spawn(move || {
                    let mut th = stm.register_thread();
                    let mut n = 0u64;
                    while !done.load(Ordering::Relaxed) || n < 20 {
                        let sum = th.run_ro(|tx| {
                            let mut acc = 0u64;
                            for k in 0..WORDS {
                                // Every other attempt holds its snapshot
                                // until a commit lands, which must then be
                                // versioned.
                                if k == WORDS / 2 && n.is_multiple_of(2) {
                                    let t = stm.timestamp();
                                    while stm.timestamp() == t && !done.load(Ordering::Relaxed) {
                                        std::thread::yield_now();
                                    }
                                }
                                acc += tx.read(arr.field(k))?;
                            }
                            assert_eq!(acc, total, "torn snapshot inside an attempt");
                            Ok(acc)
                        });
                        assert_eq!(sum, total);
                        n += 1;
                        if n % 4 == r {
                            std::thread::sleep(Duration::from_micros(100));
                        }
                    }
                    n
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        readers.into_iter().map(|r| r.join().unwrap()).sum::<u64>()
    });
    let sum: u64 = (0..WORDS).map(|k| stm.peek(arr.field(k))).sum();
    assert_eq!(sum, total);
    let (st, hs) = (stm.server_stats(), stm.heap_stats());
    assert_eq!(st.ro_snapshot_commits, reads, "{st:?}");
    // Every commit writes every word; a versioned one appends `WORDS`.
    let commits = stm.timestamp() / 2;
    assert!(
        hs.version_appends > 0 && hs.version_appends < u64::from(WORDS) * commits,
        "expected versioned and unversioned commits: {} appends over {commits} commits",
        hs.version_appends
    );
    assert!(!stm.is_degraded());
}
