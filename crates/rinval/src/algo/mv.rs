//! Multi-version RInval: wait-free declared read-only transactions over
//! the per-word version ring (see `heap::VERSION_RING` and DESIGN.md §14).
//!
//! This engine runs [`crate::ThreadHandle::run_ro`] attempts only. A
//! transaction that may write runs its first attempt as an unregistered
//! snapshot transaction ([`super::rinval::RInvalSnapshot`], shared with
//! V1/V2/V3) and its retries on the V2/V3 client
//! ([`super::rinval::RInvalV2`]); `with_algorithm!` picks which.
//!
//! A declared reader captures the last even value of the global timestamp
//! at begin and thereafter resolves every read from the version ring — the
//! newest version stamped ≤ the snapshot. It does not publish a read
//! signature, does not enter the `live` summary map (so commit- and
//! invalidation-server scans police writers only), and its commit is a
//! no-op: the snapshot was consistent by construction, so a read-only
//! transaction **never validates and never aborts**, ring misses aside.
//!
//! The snapshot is acquired wait-free — no even-parity spin. Reading the
//! timestamp mid-commit (odd, say `t+1`) rounds *down* to `t`, which is
//! safe because a commit's versions are published strictly before its
//! release store of `t+2`: every version the snapshot may need is already
//! visible, and versions newer than the snapshot are simply skipped by the
//! ring walk.
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
use crate::txn::Txn;
use crate::TxResult;
use std::sync::atomic::Ordering;

/// Engine for the declared readers of [`crate::AlgorithmKind::RInvalMV`]
/// (`Txn::write` panics inside `run_ro`).
pub(crate) struct RInvalMV;

impl sealed::Sealed for RInvalMV {}

impl Algorithm for RInvalMV {
    #[inline]
    fn pin(tx: &mut Txn<'_>) {
        // Era-only pin: snapshot readers must hold the reclamation horizon
        // (their ring walks dereference blocks other threads may free) but
        // stay out of the `live` map. The *fenced* pin: snapshot reads
        // never revalidate, so the horizon scan must never miss the pin.
        tx.stm
            .registry
            .pin_era_fenced(tx.slot_idx, tx.cache.era_cache);
    }

    #[inline]
    fn begin(tx: &mut Txn<'_>) -> TxResult<()> {
        // This engine only runs on instances built with the MV kind, and
        // those enable the ring at construction (never on degraded
        // fallbacks, which re-resolve to InvalSTM).
        debug_assert!(tx.stm.heap.versions_enabled());
        debug_assert!(tx.declared_ro);
        // Wait-free snapshot acquisition: round an odd (commit-in-flight)
        // timestamp down instead of spinning it out.
        tx.snapshot = tx.stm.timestamp.load(Ordering::SeqCst) & !1;
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
        match tx.stm.heap.snapshot_read(h, tx.snapshot) {
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
