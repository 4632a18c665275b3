//! Multi-version RInval: declared read-only transactions that never
//! validate or abort, over the per-word version ring (see
//! `heap::VERSION_RING` and DESIGN.md §14).
//!
//! This engine runs [`crate::ThreadHandle::run_ro`] attempts only. A
//! transaction that may write runs on the RInval client shared with V1/V2
//! ([`super::rinval::RInvalClient`]): its first attempt unregistered until
//! it observes a commit, its retries registered and waiting on their
//! invalidation-server like V2's.
//!
//! **Versions exist only while a declared reader is in flight.** A reader
//! raises its slot's `snapshot_reader` flag before it reads the timestamp
//! and lowers it when the attempt ends; every write-back versions a
//! commit only if it finds a flag up after the commit's odd-timestamp
//! store, and otherwise stores plainly and advances the heap's version
//! base (`server.rs`, `write_back` — also a degraded instance's InvalSTM
//! commits). Writers that run with no reader about
//! therefore fill no ring at all. The flag sits on the reader's own slot
//! and shares one fence with its era pin; the registry's `snapshots` map
//! names the slots to look at, and a reader sets its bit there once, not
//! per attempt.
//!
//! A declared reader then captures an even timestamp at begin and
//! resolves every read from the version ring — the newest version stamped
//! ≤ the snapshot, ignoring entries stamped below the base it loaded
//! once, after its snapshot. It does not publish a read signature, does
//! not enter the `live` summary map (so commit- and invalidation-server
//! scans police writers only), and its commit is a no-op: the snapshot was
//! consistent by construction, so a read-only transaction **never
//! validates and never aborts**, ring misses aside.
//!
//! Begin **waits out at most one in-flight commit**. An odd timestamp at
//! its first load may belong to a commit that missed the reader's flag and
//! writes back unversioned, so the pre-images a rounded-down snapshot
//! would need may never reach a ring: begin waits only until the
//! timestamp moves. Every commit after that one saw the flag and is
//! versioned, so the value begin then reads is rounded down: every
//! version the snapshot needs is already in its ring (DESIGN.md §12).
//! Beyond that wait, a declared attempt pays for this two stores to its
//! own slot line, under the fence its era pin already needed.
//!
//! One escape hatch keeps the path total: a **ring miss** — the word was
//! overwritten more than `VERSION_RING` times since the snapshot. The
//! reader performs one bounded revalidation: under a stable even timestamp
//! window it re-reads its value read-set; if nothing changed the snapshot
//! *advances* to that window (and the missed word is read inside it),
//! otherwise the attempt restarts. Only a genuinely changed value can abort
//! a reader, and only after a miss.

use super::{norec, sealed, Algorithm};
use crate::heap::{Handle, SnapshotRead};
use crate::stats::ServerCounters;
use crate::sync::SpinYield;
use crate::txn::Txn;
use crate::{Aborted, TxResult};
use std::sync::atomic::Ordering;

/// Engine for the declared readers of [`crate::AlgorithmKind::RInvalMV`]
/// (`Txn::write` panics inside `run_ro`).
pub(crate) struct RInvalMV;

impl sealed::Sealed for RInvalMV {}

impl Algorithm for RInvalMV {
    #[inline]
    fn pin(tx: &mut Txn<'_>) {
        // Era pin plus the declared-reader flag, no `live` bit: snapshot
        // readers must hold the reclamation horizon (their ring walks
        // dereference blocks other threads may free) and be seen by the
        // write-back's versioning check, but stay out of server scans. One
        // fence covers both, before `begin`'s timestamp load.
        tx.stm
            .registry
            .begin_snapshot_reader(tx.slot_idx, tx.cache.era_cache);
    }

    #[inline]
    fn begin(tx: &mut Txn<'_>) -> TxResult<()> {
        // This engine only runs on instances built with the MV kind, and
        // those enable the ring at construction (never on degraded
        // fallbacks, which re-resolve to InvalSTM).
        debug_assert!(tx.stm.heap.versions_enabled());
        debug_assert!(tx.declared_ro);
        // `pin` raised the flag and fenced; now the timestamp: the Dekker
        // pair with `write_back`'s odd store, fence and flag load. Only the
        // commit in flight at the first load can have missed the flag, so
        // once the timestamp moves past it, rounding down is safe again:
        // every later odd stamp belongs to a versioned commit, and the
        // release before it published the base the missed commit advanced.
        let ts = &tx.stm.timestamp;
        let mut t = ts.load(Ordering::SeqCst);
        if t & 1 == 1 {
            let missed = t;
            let mut bk = SpinYield::new();
            loop {
                t = ts.load(Ordering::SeqCst);
                if t != missed {
                    break;
                }
                if bk.is_yielding() && tx.deadline_expired() {
                    return Err(Aborted);
                }
                bk.pause();
            }
        }
        tx.snapshot = t & !1;
        tx.version_base = tx.stm.heap.version_base();
        Ok(())
    }

    #[inline]
    fn read(tx: &mut Txn<'_>, h: Handle) -> TxResult<u64> {
        // Fast path — no ring walk. If the global timestamp still equals
        // the snapshot, no commit has *released* since the snapshot was
        // taken, so the main value is the word's value at the snapshot:
        //
        // * Not newer: a commit releasing `snap + 2` stores `snap + 1`
        //   before any write-back, and each write-back's release fence
        //   pairs with our acquire load — had we observed such a
        //   write-back, the timestamp load below (ordered after the
        //   acquire) would observe ≥ `snap + 1` and the check would fail.
        // * Not older: `begin`'s SeqCst timestamp load returning ≥ `snap`
        //   synchronizes with the release of `snap`, so every write-back
        //   released at or before `snap` is visible to all of this
        //   transaction's loads.
        //
        // The timestamp line is read-shared across readers (writes touch
        // it only per commit), so in read-mostly traffic this check stays
        // cache-resident and the whole read is two loads.
        let main = tx.stm.heap.load_acquire(h);
        if tx.stm.timestamp.load(Ordering::Relaxed) == tx.snapshot {
            tx.rs.push(h, main);
            return Ok(main);
        }
        match tx.stm.heap.snapshot_read(h, tx.snapshot, tx.version_base) {
            // Reading into the past is always safe for a declared reader:
            // this is the wait-free path the engine exists for.
            SnapshotRead::Current(v) | SnapshotRead::Old(v) => {
                tx.rs.push(h, v);
                Ok(v)
            }
            SnapshotRead::Miss => ring_miss_fallback(tx, h),
        }
    }

    #[inline]
    fn commit(tx: &mut Txn<'_>) -> TxResult<()> {
        // Pure snapshot transaction: nothing to validate, nothing to
        // publish, nobody to ask.
        ServerCounters::add(&tx.stm.server_stats.ro_snapshot_commits, 1);
        Ok(())
    }

    #[inline]
    fn cleanup(tx: &mut Txn<'_>) {
        tx.stm.registry.end_snapshot_reader(tx.slot_idx);
    }

    #[inline]
    fn try_acquire_irrevocable(tx: &mut Txn<'_>) -> bool {
        super::rinval::remote_grant_token(tx)
    }
}

/// The ring fell off the snapshot for `h`: advance the snapshot to a
/// present stable window instead of aborting, provided every value read so
/// far is unchanged there (NOrec-style value validation). The missed word
/// is read inside the same window, so the whole read-set is consistent at
/// the new snapshot.
#[cold]
fn ring_miss_fallback(tx: &mut Txn<'_>, h: Handle) -> TxResult<u64> {
    ServerCounters::add(&tx.stm.server_stats.ring_misses, 1);
    let (t, v) = norec::validate(tx, Some(h))?;
    tx.snapshot = t;
    tx.rs.push(h, v);
    Ok(v)
}
