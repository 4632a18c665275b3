//! Declared read-only transactions on V1/V2/V3 (`ThreadHandle::run_ro`)
//! start as *unregistered snapshot readers* and promote in place to the
//! paper's invalidation path only once they observe a commit (DESIGN.md
//! §14):
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
//! Opacity under transfer writers (conserved sums, in-attempt partial-sum
//! checks) is `mv_snapshot.rs::snapshots_are_opaque_no_torn_reads`, which
//! runs these kinds beside MV.

use rinval::registry::TX_IDLE;
use rinval::{AlgorithmKind, Handle, Stm, ThreadHandle, TxResult, Txn};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

fn kinds() -> [AlgorithmKind; 3] {
    ["rinval-v1", "rinval-v2:2", "rinval-v3:2:1"].map(|s| s.parse().unwrap())
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
/// partition quiet — V2/V3 retire commits on its invalidator's behalf, and
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
/// from its begin, so the §13 census can see an aged reader — returns the
/// new value.
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
/// really were recycled. One writer, because a second V2/V3 writer in
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
