//! Every RInval kind runs a transaction's first attempt as an
//! *unregistered snapshot transaction* and promotes it in place to the
//! paper's invalidation path only once it observes a commit (DESIGN.md
//! §14). Declared readers (`ThreadHandle::run_ro`) on V1/V2:
//!
//! * (a) a reader parked mid-attempt is off the registry — not live, so its
//!   partition stays quiet and no invalidation scan ever examines it;
//! * (b) a commit to an unrelated word promotes the reader in place and the
//!   attempt still commits first try; a commit to a word it already read
//!   aborts the attempt, and the retry — registered from its begin —
//!   returns the new value;
//! * (c) readers walk a list while a writer unlinks, frees and recycles its
//!   nodes: no read returns a recycled block (CI's `oversubscribed` job
//!   runs this file again under `taskset -c 0`).
//!
//! Writers (`ThreadHandle::run`) on V1, V2 and MV:
//!
//! * (d) a writer parked mid-attempt is off the registry too, and no scan
//!   visits it;
//! * (e) a lone writer never registers: no promotion, no refusal, and the
//!   commit-server still bumps the timestamp twice per commit;
//! * (f) an unrelated commit mid-attempt promotes the writer, which still
//!   commits first try; a conflicting one aborts it, and the retry runs
//!   registered;
//! * (g) conserved-sum transfers through `run`, with in-attempt sum checks
//!   — opacity of unregistered writers, commits landing mid-attempt;
//! * (h) with `failpoints`: a commit that lands between an unregistered
//!   write-set's post and its pickup gets it refused exactly once if it
//!   moved words the write-set's transaction read — the registered retry
//!   commits — and admitted if it moved other words.
//!
//! Silent write-sets — every buffered value already in the heap — commit
//! locally as read-only on NOrec and on unregistered first attempts:
//!
//! * (i) a write-set that was silent at its snapshot but is no longer
//!   current, because a commit it depends on landed after its read, still
//!   takes the ordinary commit and aborts (every kind, deterministically);
//! * (j) zero-amount transfers (silent) mixed with real ones over a
//!   conserved sum, with in-attempt sum checks by readers.
//!
//! Opacity of declared readers under transfer writers (conserved sums,
//! in-attempt partial-sum checks) is
//! `mv_snapshot.rs::snapshots_are_opaque_no_torn_reads`, which runs these
//! kinds beside MV.

use rinval::registry::TX_IDLE;
use rinval::{AlgorithmKind, Handle, Stm, ThreadHandle, TxResult, Txn};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

fn kinds() -> [AlgorithmKind; 2] {
    ["rinval-v1", "rinval-v2:2"].map(|s| s.parse().unwrap())
}

/// Every remote kind: the writer tests run MV too, whose writers take the
/// same unregistered first attempt.
fn writer_kinds() -> [AlgorithmKind; 3] {
    ["rinval-v1", "rinval-v2:2", "rinval-mv:2:2"].map(|s| s.parse().unwrap())
}

/// Partitions of `kind`: one per invalidation-server, and V1's one.
fn partitions(kind: AlgorithmKind) -> usize {
    kind.invalidators().max(1)
}

/// Registers handles until one lands in partition `k` (`slot % nk == k`);
/// the misses stay registered in `spare` (idle, so never live) until the
/// caller drops them.
fn handle_in<'s>(stm: &'s Stm, k: usize, spare: &mut Vec<ThreadHandle<'s>>) -> ThreadHandle<'s> {
    let nk = partitions(stm.algorithm());
    loop {
        let th = stm.register_thread();
        if th.slot() % nk == k {
            return th;
        }
        spare.push(th);
    }
}

/// Whether slot `i` is on the registry: in the `live` map or not idle.
fn registered(stm: &Stm, i: usize) -> bool {
    stm.registry().live().get(i)
        || stm.registry().slot(i).tx_status.load(Ordering::SeqCst) != TX_IDLE
}

/// (a) A reader parked after its first read in partition `k` holds only an
/// era pin. Another client then commits `N` times: every commit finds the
/// partition quiet — V2 retires commits on its invalidator's behalf, and
/// no invalidation scan (V1's inline one included) examines a single slot.
#[test]
fn parked_reader_stays_off_the_registry() {
    const N: u64 = 64;
    for kind in kinds() {
        for k in 0..partitions(kind) {
            let stm = Stm::builder(kind).heap_words(256).build();
            let x = stm.alloc_init(&[7]);
            let y = stm.alloc_init(&[0]);
            let mut spare = Vec::new();
            let mut reader = handle_in(&stm, k, &mut spare);
            let mut writer = stm.register_thread();
            drop(spare);
            let me = reader.slot();
            let before = stm.server_stats();
            let mut attempts = 0;

            let v = reader.run_ro(|tx| {
                attempts += 1;
                let v = tx.read(x)?;
                assert!(!registered(&stm, me), "{kind:?}: reader registered");
                assert_ne!(
                    stm.registry().slot(me).start_era.load(Ordering::SeqCst),
                    u64::MAX,
                    "{kind:?}: reader did not pin the reclamation horizon"
                );
                for i in 0..N {
                    writer.run(|tx2| tx2.write(y, i + 1));
                }
                Ok(v)
            });

            let st = stm.server_stats().since(&before);
            assert_eq!((v, attempts), (7, 1), "{kind:?}");
            assert_eq!(stm.peek(y), N, "{kind:?}");
            assert_eq!(
                st.inval_slots_visited, 0,
                "{kind:?}: an invalidation scan examined partition {k}'s reader: {st:?}"
            );
            assert_eq!(st.txs_doomed, 0, "{kind:?}: {st:?}");
            assert_eq!(st.ro_promotions, 0, "{kind:?}: no read saw the commits");
            if kind.invalidators() > 0 {
                assert!(
                    st.quiet_retirements > 0,
                    "{kind:?}: partition {k} never retired quietly: {st:?}"
                );
            }
        }
    }
}

/// (b) Promotion, both ways. A commit to an unrelated word promotes the
/// reader at its next read (registered from then on) and the attempt
/// commits first try; a commit to a word the reader already read fails
/// the promotion's revalidation, and the retry — on the registered engine
/// from its begin — returns the new value.
#[test]
fn observed_commit_promotes_in_place() {
    for kind in kinds() {
        let stm = Stm::builder(kind).heap_words(256).build();
        let x = stm.alloc_init(&[10]);
        let y = stm.alloc_init(&[0]);
        let z = stm.alloc_init(&[5]);
        let mut reader = stm.register_thread();
        let mut writer = stm.register_thread();
        let me = reader.slot();

        // Unrelated commit: promote, commit first try.
        let before = stm.server_stats();
        let mut attempts = 0;
        let seen = reader.run_ro(|tx| {
            attempts += 1;
            let a = tx.read(x)?;
            writer.run(|tx2| tx2.write(y, 1));
            let b = tx.read(z)?;
            assert!(
                registered(&stm, me),
                "{kind:?}: promoted reader not registered"
            );
            Ok((a, b))
        });
        assert_eq!((seen, attempts), ((10, 5), 1), "{kind:?}");
        assert_eq!(
            stm.server_stats().since(&before).ro_promotions,
            1,
            "{kind:?}"
        );
        assert!(
            !registered(&stm, me),
            "{kind:?}: promoted reader left registered"
        );

        // Conflicting commit: the promotion's revalidation fails.
        let before = stm.server_stats();
        let mut attempts = 0;
        let seen = reader.run_ro(|tx| {
            attempts += 1;
            assert_eq!(
                registered(&stm, me),
                attempts > 1,
                "{kind:?}: attempt {attempts} ran on the wrong engine"
            );
            let a = tx.read(x)?;
            if attempts == 1 {
                writer.run(|tx2| {
                    let v = tx2.read(x)?;
                    tx2.write(x, v + 1)
                });
            }
            Ok((a, tx.read(z)?))
        });
        assert_eq!((seen, attempts), ((11, 5), 2), "{kind:?}");
        assert_eq!(
            stm.server_stats().since(&before).ro_promotions,
            0,
            "{kind:?}: a failed promotion or a registered retry was counted"
        );
        assert!(
            !registered(&stm, me),
            "{kind:?}: aborted promotion left registered"
        );
        assert!(!stm.is_degraded(), "{kind:?}");
    }
}

/// Node layout of (c)'s sorted list: `[key, !key, next]`. A recycled block
/// is handed out zeroed and re-initialized as another node, so a read that
/// returned recycled contents would break the key/check pair, the key
/// order or the length bound.
const KEY: u32 = 0;
const CHECK: u32 = 1;
const NEXT: u32 = 2;
const NODE_WORDS: usize = 3;
const KEYS: u64 = 32;

/// Walks the list from `head`'s next field, checking every node inside the
/// attempt; returns the number of nodes. `pause` hands the core over once,
/// mid-walk, so that commits land inside the attempt even on one core.
fn walk(tx: &mut Txn<'_>, head: Handle, kind: AlgorithmKind, pause: bool) -> TxResult<u64> {
    let (mut cur, mut last, mut n) = (tx.read_handle(head)?, 0, 0);
    while !cur.is_null() {
        if pause && n == 2 {
            std::thread::yield_now();
        }
        let key = tx.read(cur.field(KEY))?;
        let check = tx.read(cur.field(CHECK))?;
        assert_eq!(check, !key, "{kind:?}: node {cur:?} read recycled contents");
        assert!(
            key > last && key <= KEYS,
            "{kind:?}: key {key} after {last}"
        );
        n += 1;
        assert!(n <= KEYS, "{kind:?}: list longer than its key space");
        last = key;
        cur = tx.read_handle(cur.field(NEXT))?;
    }
    Ok(n)
}

/// Inserts `key` into the list at `head` if absent, else unlinks and frees
/// its node.
fn toggle(tx: &mut Txn<'_>, head: Handle, key: u64) -> TxResult<()> {
    let mut link = head;
    let mut cur = tx.read_handle(link)?;
    while !cur.is_null() && tx.read(cur.field(KEY))? < key {
        link = cur.field(NEXT);
        cur = tx.read_handle(link)?;
    }
    if !cur.is_null() && tx.read(cur.field(KEY))? == key {
        let next = tx.read(cur.field(NEXT))?;
        tx.write(link, next)?;
        tx.free(cur, NODE_WORDS)
    } else {
        let node = tx.alloc_init(&[key, !key, cur.to_word()])?;
        tx.write(link, node.to_word())
    }
}

/// (c) Reclamation: a writer toggles random keys — unlinking and freeing
/// nodes, allocating recycled blocks for new ones — while two `run_ro`
/// readers walk the list. No walk ever reads a recycled block, and blocks
/// really were recycled. One writer, because a second V2 or MV writer in
/// another partition can be held mid-attempt for the whole run on one core
/// (the commit-server skips a request whose invalidator lags), and its pin
/// would then hold back every free.
#[test]
fn ro_walks_never_read_recycled_blocks() {
    for kind in kinds() {
        let stm = Stm::builder(kind)
            .heap_words(1 << 12)
            .max_threads(8)
            .build();
        let head = stm.alloc_init(&[0]);

        // Every thread stops at `end`, so a failed assertion in one cannot
        // strand the others.
        let end = Instant::now() + Duration::from_millis(300);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut th = stm.register_thread();
                let mut rng = 0x9E37_79B9_7F4A_7C15u64;
                while Instant::now() < end {
                    rng = rinval::sync::mix64(rng);
                    th.run(|tx| toggle(tx, head, 1 + rng % KEYS));
                }
            });
            for _ in 0..2 {
                s.spawn(|| {
                    let mut th = stm.register_thread();
                    let mut n = 0u64;
                    while Instant::now() < end {
                        th.run_ro(|tx| walk(tx, head, kind, n.is_multiple_of(2)));
                        // A pure reader pins the era it registered in,
                        // holding back every later free while it is inside
                        // an attempt: re-register now and then, so blocks
                        // freed before that recycle while it walks.
                        if n % 16 == 15 {
                            th = stm.register_thread();
                        }
                        n += 1;
                    }
                });
            }
        });

        let mut th = stm.register_thread();
        th.run_ro(|tx| walk(tx, head, kind, false));
        let heap = stm.heap_stats();
        assert!(
            heap.recycled_words > 0,
            "{kind:?}: nothing was recycled: {heap:?}"
        );
        assert!(!stm.is_degraded(), "{kind:?}");
    }
}

/// (d) A writer parked mid-attempt in partition `k` — after a read and a
/// buffered write — holds only an era pin while another client commits
/// `N` times: no invalidation scan examines it and its partition retires
/// quietly. It then posts a snapshot those commits made stale; the
/// commit-server re-checks its one read by value and admits it, so it
/// commits first try without ever registering.
#[test]
fn parked_writer_stays_off_the_registry() {
    const N: u64 = 64;
    for kind in writer_kinds() {
        for k in 0..partitions(kind) {
            let stm = Stm::builder(kind).heap_words(256).build();
            let x = stm.alloc_init(&[7]);
            let y = stm.alloc_init(&[0]);
            let mut spare = Vec::new();
            let mut th = handle_in(&stm, k, &mut spare);
            let mut other = stm.register_thread();
            drop(spare);
            let me = th.slot();
            let before = stm.server_stats();
            let mut attempts = 0;

            th.run(|tx| {
                attempts += 1;
                let v = tx.read(x)?;
                tx.write(x, v + 1)?;
                for i in 0..N {
                    other.run(|tx2| tx2.write(y, i + 1));
                }
                assert!(!registered(&stm, me), "{kind:?}: writer registered");
                let st = stm.server_stats().since(&before);
                assert_eq!(
                    st.inval_slots_visited, 0,
                    "{kind:?}: a scan examined partition {k}'s writer: {st:?}"
                );
                if kind.invalidators() > 0 {
                    assert!(st.quiet_retirements > 0, "{kind:?}: {st:?}");
                }
                Ok(())
            });

            let st = stm.server_stats().since(&before);
            assert_eq!(attempts, 1, "{kind:?}");
            assert_eq!((stm.peek(x), stm.peek(y)), (8, N), "{kind:?}");
            assert_eq!(st.txs_doomed, 0, "{kind:?}: {st:?}");
            assert_eq!(st.ro_promotions, 0, "{kind:?}: {st:?}");
            assert_eq!(st.stale_refusals, 0, "{kind:?}: {st:?}");
            assert_eq!(stm.timestamp(), 2 * (N + 1), "{kind:?}");
            assert!(!registered(&stm, me), "{kind:?}: left registered");
        }
    }
}

/// (e) A lone writer's 1 000 read-modify-write commits: none of them sees
/// another commit inside its attempt, so none promotes, none is refused,
/// none aborts, and the slot is never registered — while the
/// commit-server still bumps the timestamp twice per commit.
#[test]
fn lone_writer_never_registers() {
    const COMMITS: u64 = 1_000;
    for kind in writer_kinds() {
        let stm = Stm::builder(kind).heap_words(256).build();
        let c = stm.alloc_init(&[0]);
        let mut th = stm.register_thread();
        let me = th.slot();
        let before = stm.server_stats();
        for _ in 0..COMMITS {
            th.run(|tx| {
                let v = tx.read(c)?;
                tx.write(c, v + 1)?;
                assert!(!registered(&stm, me), "{kind:?}: lone writer registered");
                Ok(())
            });
        }
        let st = stm.server_stats().since(&before);
        assert_eq!(stm.peek(c), COMMITS, "{kind:?}");
        assert_eq!(stm.timestamp(), 2 * COMMITS, "{kind:?}");
        assert_eq!(
            (st.ro_promotions, st.stale_refusals),
            (0, 0),
            "{kind:?}: {st:?}"
        );
        assert_eq!(th.stats().aborts, 0, "{kind:?}");
    }
}

/// (f) Promotion of a writer, both ways. An unrelated commit promotes it at
/// its next read (registered from then on, read-your-own-writes intact)
/// and it commits first try; a commit to a word it already read fails the
/// promotion's revalidation, and the retry — registered from its begin —
/// commits on the new value.
#[test]
fn observed_commit_promotes_a_writer_in_place() {
    for kind in writer_kinds() {
        let stm = Stm::builder(kind).heap_words(256).build();
        let x = stm.alloc_init(&[10]);
        let y = stm.alloc_init(&[0]);
        let z = stm.alloc_init(&[5]);
        let mut th = stm.register_thread();
        let mut other = stm.register_thread();
        let me = th.slot();

        // Unrelated commit: promote, commit first try.
        let before = stm.server_stats();
        let mut attempts = 0;
        th.run(|tx| {
            attempts += 1;
            let a = tx.read(x)?;
            tx.write(z, a)?;
            other.run(|tx2| tx2.write(y, 1));
            // Its own write answers from the write-set, observing nothing.
            assert_eq!(tx.read(z)?, a, "{kind:?}: lost its own write");
            assert!(!registered(&stm, me), "{kind:?}: promoted too early");
            assert_eq!(tx.read(y)?, 1, "{kind:?}");
            assert!(registered(&stm, me), "{kind:?}: not promoted");
            assert_eq!(tx.read(z)?, a, "{kind:?}: lost its own write");
            tx.write(x, a + 1)
        });
        let st = stm.server_stats().since(&before);
        assert_eq!(attempts, 1, "{kind:?}");
        assert_eq!((stm.peek(x), stm.peek(z)), (11, 10), "{kind:?}");
        assert_eq!(
            (st.ro_promotions, st.stale_refusals),
            (1, 0),
            "{kind:?}: {st:?}"
        );
        assert!(!registered(&stm, me), "{kind:?}: left registered");

        // Conflicting commit: the promotion's revalidation fails.
        let before = stm.server_stats();
        let mut attempts = 0;
        th.run(|tx| {
            attempts += 1;
            assert_eq!(
                registered(&stm, me),
                attempts > 1,
                "{kind:?}: attempt {attempts} ran on the wrong engine"
            );
            let a = tx.read(x)?;
            if attempts == 1 {
                other.run(|tx2| {
                    let v = tx2.read(x)?;
                    tx2.write(x, v + 100)
                });
            }
            tx.read(y)?;
            tx.write(x, a + 1)
        });
        let st = stm.server_stats().since(&before);
        assert_eq!((attempts, stm.peek(x)), (2, 112), "{kind:?}");
        assert_eq!(
            (st.ro_promotions, st.stale_refusals),
            (0, 0),
            "{kind:?}: a failed promotion or a registered retry was counted"
        );
        assert!(
            !registered(&stm, me),
            "{kind:?}: aborted promotion left registered"
        );
        assert!(!stm.is_degraded(), "{kind:?}");
    }
}

/// (g) Opacity of unregistered writers: two plain writers move units
/// between four accounts while two auditing writers sum all four inside
/// `run` — asserting the partial sums and the total inside the attempt,
/// even one that later aborts — and then move a unit themselves. Every
/// other auditing transaction waits for a commit before one of its reads
/// (first attempts only), so commits land inside unregistered attempts
/// even on one core.
#[test]
fn unregistered_writers_see_conserved_sums() {
    const TOTAL: u64 = 1_000;
    const TRANSFERS: u64 = 2_000;
    for kind in writer_kinds() {
        let stm = Stm::builder(kind)
            .heap_words(1 << 12)
            .max_threads(8)
            .build();
        let arr = stm.alloc(4);
        stm.poke(arr.field(0), TOTAL);
        let done = AtomicBool::new(false);
        let start = Barrier::new(4);
        let (stm, done, start) = (&stm, &done, &start);

        let audits = std::thread::scope(|s| {
            let writers: Vec<_> = (0..2u64)
                .map(|w| {
                    s.spawn(move || {
                        let mut th = stm.register_thread();
                        start.wait();
                        for i in 0..TRANSFERS {
                            let from = arr.field(((i + w) % 4) as u32);
                            let to = arr.field(((i + w + 1) % 4) as u32);
                            th.run(|tx| {
                                let a = tx.read(from)?;
                                if a > 0 {
                                    let b = tx.read(to)?;
                                    tx.write(from, a - 1)?;
                                    tx.write(to, b + 1)?;
                                }
                                Ok(())
                            });
                        }
                    })
                })
                .collect();
            let auditors: Vec<_> = (0..2u32)
                .map(|w| {
                    s.spawn(move || {
                        let mut th = stm.register_thread();
                        start.wait();
                        let mut n = 0u64;
                        while !done.load(Ordering::Relaxed) || n < 50 {
                            let mut attempts = 0;
                            th.run(|tx| {
                                attempts += 1;
                                let mut vals = [0u64; 4];
                                let mut acc = 0u64;
                                for k in 0..4 {
                                    if attempts == 1 && n % 8 == u64::from(k) {
                                        let t = stm.timestamp();
                                        while stm.timestamp() == t && !done.load(Ordering::Relaxed)
                                        {
                                            std::thread::yield_now();
                                        }
                                    }
                                    vals[k as usize] = tx.read(arr.field(k))?;
                                    acc += vals[k as usize];
                                    assert!(acc <= TOTAL, "{kind:?}: partial sum {acc}");
                                }
                                assert_eq!(acc, TOTAL, "{kind:?}: torn sum inside a writer");
                                let from = (w + n as u32) % 4;
                                if vals[from as usize] > 0 {
                                    let to = (from + 1) % 4;
                                    tx.write(arr.field(from), vals[from as usize] - 1)?;
                                    tx.write(arr.field(to), vals[to as usize] + 1)?;
                                }
                                Ok(())
                            });
                            n += 1;
                        }
                        n
                    })
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            done.store(true, Ordering::Relaxed);
            auditors.into_iter().map(|a| a.join().unwrap()).sum::<u64>()
        });

        let sum: u64 = (0..4).map(|k| stm.peek(arr.field(k))).sum();
        assert_eq!(sum, TOTAL, "{kind:?}");
        assert!(audits >= 100, "{kind:?}");
        let st = stm.server_stats();
        assert!(
            st.ro_promotions + st.stale_refusals > 0,
            "{kind:?}: no commit ever landed inside an unregistered attempt: {st:?}"
        );
        assert!(!stm.is_degraded(), "{kind:?}");
    }
}

/// (h) The admission rule, deterministically: `client.publish.delay`
/// holds the first writer between posting its unregistered write-set and
/// raising its pending bit, and a second writer commits in that window.
/// The commit-server then finds the first request's snapshot stale and
/// re-checks its reads by value. If the second writer moved the same
/// accounts, it refuses the request — exactly once — and the registered
/// retry commits; if it moved other accounts, it admits the request, which
/// commits first try, unregistered. Every total is conserved.
#[cfg(feature = "failpoints")]
#[test]
fn stale_unregistered_write_set_is_rechecked_by_value() {
    use rinval::faults::{site, FaultAction};
    use rinval::registry::REQ_PENDING;
    const TOTAL: u64 = 100;
    for kind in writer_kinds() {
        for conflicting in [true, false] {
            let stm = Stm::builder(kind).heap_words(256).build();
            let a = stm.alloc_init(&[TOTAL, 0, TOTAL, 0]);
            let mut first = stm.register_thread();
            let mut second = stm.register_thread();
            let me = first.slot();
            stm.faults().arm(
                site::CLIENT_PUBLISH_DELAY,
                FaultAction::Delay(Duration::from_millis(500)),
                Some(1),
            );
            let before = stm.server_stats();
            // Moves `n` from account `k` to account `k + 1`.
            let transfer = |tx: &mut Txn<'_>, k: u32, n: u64| -> TxResult<()> {
                let (from, to) = (a.field(k), a.field(k + 1));
                let (f, t) = (tx.read(from)?, tx.read(to)?);
                tx.write(from, f - n)?;
                tx.write(to, t + n)
            };
            let theirs = if conflicting { 0 } else { 2 };

            let (first_attempts, second_attempts) = std::thread::scope(|s| {
                let h = s.spawn(|| {
                    let mut attempts = 0;
                    first.run(|tx| {
                        attempts += 1;
                        transfer(tx, 0, 1)
                    });
                    attempts
                });
                // The first writer's request is posted but not yet visible
                // to the server (the delay sits before its pending bit).
                while stm.registry().slot(me).req.state() != REQ_PENDING {
                    std::thread::yield_now();
                }
                let mut attempts = 0;
                second.run(|tx| {
                    attempts += 1;
                    transfer(tx, theirs, 10)
                });
                (h.join().unwrap(), attempts)
            });

            let case = format!("{kind:?}, conflicting: {conflicting}");
            let st = stm.server_stats().since(&before);
            assert_eq!(second_attempts, 1, "{case}: {st:?}");
            assert_eq!(st.ro_promotions, 0, "{case}: {st:?}");
            if conflicting {
                assert_eq!(st.stale_refusals, 1, "{case}: {st:?}");
                assert_eq!(first_attempts, 2, "{case}: {st:?}");
                assert_eq!(
                    (stm.peek(a.field(0)), stm.peek(a.field(1))),
                    (TOTAL - 11, 11)
                );
            } else {
                assert_eq!(st.stale_refusals, 0, "{case}: {st:?}");
                assert_eq!(first_attempts, 1, "{case}: {st:?}");
                assert_eq!((stm.peek(a.field(0)), stm.peek(a.field(1))), (TOTAL - 1, 1));
                assert_eq!(
                    (stm.peek(a.field(2)), stm.peek(a.field(3))),
                    (TOTAL - 10, 10)
                );
            }
            assert_eq!(stm.timestamp(), 4, "{case}: two commits");
            assert!(!stm.is_degraded(), "{case}");
        }
    }
}

/// (i) The timestamp re-check of a silent write-set, deterministically.
/// With `x = 5` and `y = 0`, the body reads `y` and writes
/// `x := if y == 0 { 5 } else { 7 }`. Its first attempt waits, between the
/// read and the write, for another thread to commit `y := 1`: the buffered
/// `x = 5` still equals the heap word, but the snapshot it was computed at
/// is gone, so the write-set must not commit as silent. The attempt aborts
/// and the retry writes 7 — on every kind.
#[test]
fn overtaken_silent_write_set_is_not_committed() {
    for kind in AlgorithmKind::all(2, 1) {
        let stm = Stm::builder(kind).heap_words(256).build();
        let x = stm.alloc_init(&[5]);
        let y = stm.alloc_init(&[0]);
        let mut th = stm.register_thread();
        let mut attempts = 0;
        th.run(|tx| {
            attempts += 1;
            let v = tx.read(y)?;
            if attempts == 1 {
                std::thread::scope(|s| {
                    s.spawn(|| stm.register_thread().run(|tx2| tx2.write(y, 1)));
                });
            }
            tx.write(x, if v == 0 { 5 } else { 7 })
        });
        assert_eq!((stm.peek(x), attempts), (7, 2), "{kind:?}");
        assert_eq!(th.stats().silent_commits, 0, "{kind:?}");
        assert!(!stm.is_degraded(), "{kind:?}");
    }
}

/// (j) Silent and real transfers over a conserved sum. Two writers move
/// amounts between four accounts, every other transfer a zero-amount one
/// (a silent write-set); some of their first attempts yield between the
/// reads and the commit, so real commits land inside silent attempts even
/// on one core. Two readers sum all four accounts inside each attempt.
/// Covers NOrec and every remote kind.
#[test]
fn silent_transfers_keep_sums_conserved() {
    const TOTAL: u64 = 1_000;
    const TRANSFERS: u64 = 2_000;
    let mut kinds = vec![AlgorithmKind::NOrec];
    kinds.extend(writer_kinds());
    for kind in kinds {
        let stm = Stm::builder(kind)
            .heap_words(1 << 12)
            .max_threads(8)
            .build();
        let arr = stm.alloc(4);
        stm.poke(arr.field(0), TOTAL);
        let done = AtomicBool::new(false);
        let start = Barrier::new(4);
        let (stm, done, start) = (&stm, &done, &start);

        let (silent, audits) = std::thread::scope(|s| {
            let writers: Vec<_> = (0..2u64)
                .map(|w| {
                    s.spawn(move || {
                        let mut th = stm.register_thread();
                        start.wait();
                        let mut zero_amounts = 0;
                        for i in 0..TRANSFERS {
                            let from = arr.field(((i + w) % 4) as u32);
                            let to = arr.field(((i + w + 1) % 4) as u32);
                            let mut attempts = 0;
                            let n = th.run(|tx| {
                                attempts += 1;
                                let (a, b) = (tx.read(from)?, tx.read(to)?);
                                let n = if i % 2 == 0 { 0 } else { a.min(3) };
                                tx.write(from, a - n)?;
                                tx.write(to, b + n)?;
                                if attempts == 1 && i % 8 < 2 {
                                    // Give the other writer a bounded
                                    // chance to commit inside this attempt.
                                    let t = stm.timestamp();
                                    for _ in 0..64 {
                                        if stm.timestamp() != t {
                                            break;
                                        }
                                        std::thread::yield_now();
                                    }
                                }
                                Ok(n)
                            });
                            zero_amounts += u64::from(n == 0);
                        }
                        let silent = th.stats().silent_commits;
                        assert!(
                            silent <= zero_amounts,
                            "{kind:?}: a transfer that moved units counted silent"
                        );
                        silent
                    })
                })
                .collect();
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(move || {
                        let mut th = stm.register_thread();
                        start.wait();
                        let mut n = 0u64;
                        while !done.load(Ordering::Relaxed) || n < 50 {
                            th.run_ro(|tx| {
                                let mut acc = 0;
                                for k in 0..4 {
                                    acc += tx.read(arr.field(k))?;
                                    assert!(acc <= TOTAL, "{kind:?}: partial sum {acc}");
                                }
                                assert_eq!(acc, TOTAL, "{kind:?}: torn sum");
                                Ok(())
                            });
                            n += 1;
                            // Leave the core to the writers and the servers.
                            std::thread::yield_now();
                        }
                        n
                    })
                })
                .collect();
            let silent: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
            done.store(true, Ordering::Relaxed);
            let audits: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
            (silent, audits)
        });

        let sum: u64 = (0..4).map(|k| stm.peek(arr.field(k))).sum();
        assert_eq!(sum, TOTAL, "{kind:?}");
        assert!(audits >= 100, "{kind:?}");
        assert!(silent > 0, "{kind:?}: no transfer committed silently");
        assert!(!stm.is_degraded(), "{kind:?}");
    }
}
