//! Commit-time invalidation (InvalSTM — Gottschlich et al., CGO 2010),
//! transcribed from the paper's Algorithm 1. Also provides the *client
//! read path* of every registered RInval attempt — every retry, and a
//! first attempt once it has promoted (`rinval::RInvalClient`): under
//! RInval the read protocol is identical (paper §IV-A: "The read procedure
//! is the same in both InvalSTM and RInval"), with one extra check in
//! V2/MV that the reader's invalidation-server has caught up (Algorithm 3,
//! line 28). This engine itself is the paper's baseline and keeps that
//! path for every attempt, declared read-only or not.
//!
//! Per-read work is O(1): a seqlock-consistent heap load, a read-signature
//! insertion, and a check of this transaction's own invalidation flag —
//! this is the linear-vs-quadratic validation advantage over NOrec.
//!
//! The commit is Algorithm 1's lock steps around the commit-server's own
//! routine: take the seqlock by CAS, recheck the invalidation flag, then
//! call `server`'s invalidation and write-back in the server's order.
//! RInval-V1 moved exactly this routine onto a server (paper §IV-A); here
//! the two share one copy of it.
//!
//! ## The bloom-visibility race
//! A reader inserts into its read signature and *then* rechecks the
//! timestamp; a committer bumps the timestamp to odd and *then* scans
//! signatures. Both sides separate the two steps with `SeqCst` fences, so
//! in the total order either the reader sees the bump (and retries) or the
//! committer sees the signature bit (and invalidates). Either way no
//! committed write escapes a conflicting reader.

use super::{registry_begin, registry_end, sealed, Algorithm};
use crate::faults;
use crate::heap::Handle;
use crate::registry::TX_INVALIDATED;
use crate::server;
use crate::sync::SpinYield;
use crate::txn::Txn;
use crate::{Aborted, TxResult};
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Engine for [`crate::AlgorithmKind::InvalStm`].
pub(crate) struct InvalStm;

impl sealed::Sealed for InvalStm {}

impl Algorithm for InvalStm {
    #[inline]
    fn pin(tx: &mut Txn<'_>) {
        registry_begin(tx);
    }

    #[inline]
    fn read(tx: &mut Txn<'_>, h: Handle) -> TxResult<u64> {
        read_impl(tx, h, None)
    }

    #[inline]
    fn commit(tx: &mut Txn<'_>) -> TxResult<()> {
        commit(tx)
    }

    #[inline]
    fn cleanup(tx: &mut Txn<'_>) {
        registry_end(tx);
    }
}

/// The family read path. `my_inval` is the reader's invalidation-server
/// cursor, which must have caught up with the snapshot it accepts (RInval
/// V2/MV only; Algorithm 3, line 28): [`Txn::inval_cursor`] from the RInval
/// client, and `None` from InvalSTM and V1. InvalSTM passes a literal
/// `None`, never the handle's cursor: a degraded V2/MV instance runs
/// InvalSTM after its invalidation-servers died, and a read that waited on
/// their frozen cursors would abort forever.
#[inline]
pub(crate) fn read_impl(
    tx: &mut Txn<'_>,
    h: Handle,
    my_inval: Option<&AtomicU64>,
) -> TxResult<u64> {
    if let Some(v) = tx.ws.get(h) {
        return Ok(v);
    }
    let slot = tx.stm.registry.slot(tx.slot_idx);
    let ts = &tx.stm.timestamp;
    let mut bk = SpinYield::new();
    loop {
        if bk.is_yielding() && tx.deadline_expired() {
            return Err(Aborted);
        }
        let x1 = ts.load(Ordering::SeqCst);
        if x1 & 1 == 1 {
            bk.pause();
            continue;
        }
        let v = tx.stm.heap.load(h);
        // Publish the read in our signature *before* the recheck; see the
        // module-level race note.
        slot.read_bf.owner_insert(h.addr());
        fence(Ordering::SeqCst);
        if ts.load(Ordering::SeqCst) != x1 {
            bk.pause();
            continue;
        }
        if let Some(iv) = my_inval {
            if iv.load(Ordering::SeqCst) < x1 {
                // Our invalidation-server is still processing an older
                // commit; wait for it so the status check below is
                // current. If the engine degraded (servers dead), the
                // lagging timestamp will never catch up — abort so the
                // retry loop can re-resolve to the InvalSTM engine.
                if tx.stm.degraded.load(Ordering::SeqCst) {
                    return Err(Aborted);
                }
                bk.pause();
                continue;
            }
        }
        if slot.tx_status.load(Ordering::SeqCst) == TX_INVALIDATED {
            return Err(Aborted);
        }
        return Ok(v);
    }
}

pub(crate) fn commit(tx: &mut Txn<'_>) -> TxResult<()> {
    let (stm, me) = (tx.stm, tx.slot_idx);
    let slot = stm.registry.slot(me);
    if tx.ws.is_empty() {
        // Read-only: every read checked the invalidation flag, so the value
        // set is consistent as of the last read. Nothing to publish.
        return Ok(());
    }
    let ts = &stm.timestamp;
    let mut bk = SpinYield::new();
    // Algorithm 1, line 13: spin until the timestamp is even and we win the
    // CAS that makes it odd. An irrevocable-token holder other than us
    // gates entry (§13): its attempt must see no commit until it is done.
    let t = loop {
        if bk.is_yielding() && tx.deadline_expired() {
            return Err(Aborted);
        }
        if stm.token_held_by_other(me) {
            bk.pause();
            continue;
        }
        let cur = ts.load(Ordering::SeqCst);
        if cur & 1 == 1 {
            bk.pause();
            continue;
        }
        // Cheap pre-check outside the lock (avoids bumping the shared
        // timestamp for a doomed transaction when possible).
        if slot.tx_status.load(Ordering::SeqCst) == TX_INVALIDATED {
            return Err(Aborted);
        }
        match ts.compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => break cur,
            Err(_) => bk.pause(),
        }
    };
    // Critical section: `cleanup_panic` releases at snapshot+2 if
    // anything between here and a release store unwinds.
    tx.snapshot = t;
    tx.lock_held = true;
    stm.faults.fire(faults::site::TXN_COMMIT_PANIC);
    // Algorithm 1, lines 15–16: the flag may have been set between our
    // pre-check and the CAS; recheck under the lock.
    fence(Ordering::SeqCst);
    if slot.tx_status.load(Ordering::SeqCst) == TX_INVALIDATED {
        // Release with a version bump: we published nothing, but readers
        // must conservatively retry rather than pair with a stale parity.
        ts.store(t + 2, Ordering::SeqCst);
        tx.lock_held = false;
        return Err(Aborted);
    }
    // Algorithm 1, lines 17–20, through the commit-server's own helpers and
    // in its order: invalidation of every conflicting in-flight transaction
    // (committer always wins; paper §IV-D), then write-back — which also
    // decides, as for every commit, whether a degraded MV instance versions
    // this one (DESIGN.md §14).
    server::invalidate_conflicting(stm, tx.wbf, |j| j == me, None);
    server::write_back(stm, tx.ws.entries(), t + 2);
    // Algorithm 1, line 21: release the sequence lock.
    ts.store(t + 2, Ordering::SeqCst);
    tx.lock_held = false;
    Ok(())
}
