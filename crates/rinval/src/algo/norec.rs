//! NOrec (Dalessandro, Spear, Scott — PPoPP 2010), the paper's
//! validation-based baseline.
//!
//! One global sequence lock, no ownership records. Reads are logged as
//! `(address, value)` pairs; whenever the global timestamp moves, the whole
//! read-set is revalidated *by value* — the incremental validation whose
//! quadratic cost (paper §II) motivates invalidation-based designs. Commit:
//!
//! 0. a silent write-set — every buffered value already in the heap —
//!    commits as read-only, locally ([`silent_commit`]);
//! 1. otherwise acquire the sequence lock with a CAS (revalidating on
//!    failure), write back through the commit-server's own
//!    [`crate::server::write_back`] and release.
//!
//! ## Ordering
//! Readers use the seqlock recipe: acquire-load of the timestamp, relaxed
//! data loads, acquire fence, relaxed recheck. The committer's CAS is
//! `SeqCst` (acquire: write-back stores cannot float above it) and the
//! release store publishes the write-back.

use super::{sealed, Algorithm};
use crate::faults;
use crate::heap::Handle;
use crate::server;
use crate::sync::SpinYield;
use crate::txn::Txn;
use crate::{Aborted, TxResult};
use std::sync::atomic::{fence, Ordering};

/// Engine for [`crate::AlgorithmKind::NOrec`]. Lazy write buffering, the
/// unpin-only cleanup and the seqlock panic repair are the trait defaults.
pub(crate) struct NOrec;

impl sealed::Sealed for NOrec {}

impl Algorithm for NOrec {
    #[inline]
    fn begin(tx: &mut Txn<'_>) -> TxResult<()> {
        begin(tx)
    }

    #[inline]
    fn read(tx: &mut Txn<'_>, h: Handle) -> TxResult<u64> {
        read(tx, h)
    }

    #[inline]
    fn commit(tx: &mut Txn<'_>) -> TxResult<()> {
        commit(tx)
    }
}

pub(crate) fn begin(tx: &mut Txn<'_>) -> TxResult<()> {
    let ts = &tx.stm.timestamp;
    let mut bk = SpinYield::new();
    loop {
        let t = ts.load(Ordering::SeqCst);
        if t & 1 == 0 {
            tx.snapshot = t;
            return Ok(());
        }
        if bk.is_yielding() && tx.deadline_expired() {
            return Err(Aborted);
        }
        bk.pause();
    }
}

/// Revalidates the read-set by value under a stable even-timestamp window
/// (no commit's write-back can be in flight while the timestamp holds still
/// at an even value), optionally reading `extra` inside the same window.
/// Success returns `(window_ts, extra_value)`: the read-set is consistent
/// at `window_ts`, which extends the snapshot; a changed value aborts. The
/// window spin is the only wait and retries purely on instability, so a
/// call makes exactly one validation pass over stable state.
///
/// The one revalidation loop: NOrec's incremental validation, an
/// unregistered attempt's in-place promotion (`rinval::promote`) and MV's
/// ring-miss advance to the present all call it.
pub(crate) fn validate(tx: &mut Txn<'_>, extra: Option<Handle>) -> TxResult<(u64, u64)> {
    let stm = tx.stm;
    let ts = &stm.timestamp;
    let mut bk = SpinYield::new();
    loop {
        if bk.is_yielding() && tx.deadline_expired() {
            return Err(Aborted);
        }
        let t = ts.load(Ordering::SeqCst);
        if t & 1 == 1 {
            bk.pause();
            continue;
        }
        let extra_v = extra.map_or(0, |h| stm.heap.load(h));
        let ok = tx.rs.entries().iter().all(|&(h, v)| stm.heap.load(h) == v);
        // NOrec alone needs only `Acquire` here. Promotion and MV's ring-miss
        // refresh have always run under `SeqCst`; weakening theirs is a relaxation
        // that needs its own checked argument.
        fence(Ordering::SeqCst);
        if ts.load(Ordering::SeqCst) != t {
            // A commit raced the scan; its write-back may have been
            // partially observed. Rescan at the new timestamp.
            bk.pause();
            continue;
        }
        if !ok {
            return Err(Aborted);
        }
        return Ok((t, extra_v));
    }
}

pub(crate) fn read(tx: &mut Txn<'_>, h: Handle) -> TxResult<u64> {
    if let Some(v) = tx.ws.get(h) {
        return Ok(v);
    }
    loop {
        let v = tx.stm.heap.load(h);
        fence(Ordering::Acquire);
        if tx.stm.timestamp.load(Ordering::SeqCst) == tx.snapshot {
            tx.rs.push(h, v);
            return Ok(v);
        }
        // Timestamp moved since our snapshot: extend it by revalidating the
        // prior reads, then retry this read at the new snapshot.
        tx.snapshot = validate(tx, None)?.0;
    }
}

/// Commits the attempt locally as read-only if its write-set is *silent*:
/// it allocated and freed nothing, and every buffered `(addr, val)` already
/// holds in the heap at the attempt's snapshot (DESIGN.md §14). The check
/// is the seqlock recipe of [`read`] applied to the write addresses:
/// checked loads, acquire fence, `timestamp == snapshot`. The caller's
/// reads all held at that even snapshot, and no write-back overlapped the
/// loads, so the attempt is a read-only transaction serialized there, and
/// committing it changes no word. It publishes nothing, so it needs neither
/// the irrevocable-token gate nor a commit-server's grant.
///
/// Sound only where every logged read was checked against `tx.snapshot`:
/// NOrec, and an unregistered `RInvalClient` attempt. A mismatch stops
/// at the first differing word and the caller takes its ordinary commit.
/// A `true` is counted in [`crate::PhaseStats::silent_commits`].
pub(crate) fn silent_commit(tx: &mut Txn<'_>) -> bool {
    // Frees retire only under a commit that bumped the timestamp (§9).
    if !tx.alog.is_empty() {
        return false;
    }
    let heap = &tx.stm.heap;
    if !tx
        .ws
        .entries()
        .iter()
        .all(|e| heap.load_checked(e.addr) == Some(e.val))
    {
        return false;
    }
    fence(Ordering::Acquire);
    if tx.stm.timestamp.load(Ordering::SeqCst) != tx.snapshot {
        return false;
    }
    tx.stats.silent_commits += 1;
    true
}

pub(crate) fn commit(tx: &mut Txn<'_>) -> TxResult<()> {
    if tx.ws.is_empty() {
        // Read-only: consistent as of the last (re)validation.
        return Ok(());
    }
    if silent_commit(tx) {
        return Ok(());
    }
    let ts = &tx.stm.timestamp;
    let mut bk = SpinYield::new();
    // Acquire the sequence lock at our snapshot; any interleaved commit
    // forces revalidation first, so the CAS success certifies the read-set.
    // The token gate must be explicit here (§13): `validate` happily
    // *extends* the snapshot past the grant's version bump, so without it
    // the CAS would succeed and abort the irrevocable holder's reads.
    loop {
        if tx.stm.token_held_by_other(tx.slot_idx) {
            if bk.is_yielding() && tx.deadline_expired() {
                return Err(Aborted);
            }
            bk.pause();
            continue;
        }
        match ts.compare_exchange(
            tx.snapshot,
            tx.snapshot + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => break,
            Err(_) => {
                if bk.is_yielding() && tx.deadline_expired() {
                    return Err(Aborted);
                }
                bk.pause();
                tx.snapshot = validate(tx, None)?.0;
            }
        }
    }
    // Critical section: the seqlock is odd and this thread owns it. The
    // flag lets `cleanup_panic` release it if anything below unwinds.
    tx.lock_held = true;
    tx.stm.faults.fire(faults::site::TXN_COMMIT_PANIC);
    server::write_back(tx.stm, tx.ws.entries(), tx.snapshot + 2);
    ts.store(tx.snapshot + 2, Ordering::SeqCst);
    tx.lock_held = false;
    Ok(())
}
