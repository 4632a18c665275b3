//! RInval client side (paper Algorithm 2, `CLIENT COMMIT`).
//!
//! One engine for V1, V2 and MV's writers: a registered attempt's read
//! path is shared with InvalSTM (module `invalstm`), and commit never
//! touches the global timestamp. Instead the client:
//!
//! 0. unregistered, commits a silent write-set — every buffered value
//!    already in the heap at its snapshot — as read-only, locally and
//!    without a request ([`norec::silent_commit`]);
//! 1. checks its own invalidation flag (Algorithm 2, line 5);
//! 2. publishes its write signature and write-set into its cache-aligned
//!    request slot;
//! 3. posts `PENDING` on its request cell (the release edge that hands the
//!    write-set to the commit-server);
//! 4. waits **on its own slot** — not on any shared lock — until the server
//!    answers `COMMITTED` or `ABORTED` (Algorithm 2, line 8): spin, yield,
//!    then park behind the slot's sleeper flag ([`crate::sync::Waiter`]).
//!
//! No CAS is executed anywhere on this path, which is the paper's headline
//! mechanism for removing coherence traffic from the critical path; the
//! wake it owes a parked commit-server is one load of the seat's flag.
//!
//! ## First attempts start unregistered
//!
//! Registration — the `live` bit, `TX_ALIVE`, a read-signature store and
//! a `SeqCst` fence per read — exists only so that a concurrent committer
//! can find and doom the transaction. The first attempt of every
//! transaction — [`crate::ThreadHandle::run`], `try_run`, `try_run_for`
//! and `run_ro` alike — therefore reads NOrec-style against an even
//! timestamp snapshot, off the registry, buffers its writes, and
//! [`promote`]s itself in place to the paper's read path the first time it
//! sees the timestamp move (DESIGN.md §14). A write-set it still holds
//! unregistered at commit is posted with its snapshot and its reads, and
//! the commit-server admits it if the timestamp has not moved since — or,
//! if it has, if the reads still hold — unless it is silent, and commits
//! where it ran. A retry registers from its pin. Both are one engine,
//! [`RInvalClient`]: whether an attempt is a first one is a runtime fact
//! ([`Txn::first`]), and so is its invalidation-server cursor
//! ([`Txn::inval_cursor`], `None` on V1, which has no invalidation-server).

use super::{invalstm, norec, registry_begin, registry_end, sealed, Algorithm};
use crate::faults;
use crate::heap::Handle;
use crate::registry::{REQ_ABORTED, REQ_COMMITTED, REQ_IRREVOCABLE, REQ_PENDING, TX_INVALIDATED};
use crate::server::{slot_waiter, wake_seat, withdraw_request};
use crate::stats::ServerCounters;
use crate::txn::Txn;
use crate::{Aborted, TxResult};
use std::sync::atomic::{fence, Ordering};

/// Engine for every attempt of [`crate::AlgorithmKind::RInvalV1`] and
/// `RInvalV2`, and for every attempt of [`crate::AlgorithmKind::RInvalMV`]
/// that may write. V1 and V2 differ only in who invalidates: a registered
/// read waits on its slot's invalidation-server cursor where there is one
/// (Algorithm 3, line 28) and on nothing under V1, the zero-invalidator
/// case. `DECLARED_RO` is true under [`crate::ThreadHandle::run_ro`],
/// whose unregistered read then compiles without the write-set lookup
/// (with the lookup in, `rbtree_ro`'s V2 lookups ran 18 % slower,
/// DESIGN.md §10).
///
/// * **Pin** — on a first attempt the default plain `pin_era`: no `live`
///   bit, no `TX_ALIVE`, no read-signature clear. Sound by NOrec's
///   argument (DESIGN.md §9): every value is checked against the timestamp
///   before it is returned, and a block is recycled only after its freeing
///   commit bumped it. A retry runs the full [`registry_begin`] instead.
/// * **Read** — registered, the paper's path (`invalstm::read_impl`),
///   whose O(1) validation per read is what invalidation buys while
///   commits interleave. Unregistered: own buffered write first (writers
///   only), then heap load, acquire fence, `timestamp == snapshot`, exactly
///   `norec::read`'s check; a hit is logged in the value read-set.
/// * **Write** — buffered like every engine's; nothing is published
///   before commit.
/// * **Promotion** — an unregistered mismatch means a commit landed since
///   the snapshot: [`promote`] registers in place and revalidates the
///   logged reads once, and from then on every read takes the paper's
///   path. Measured against revalidating NOrec-style on every timestamp
///   move instead: no worse for readers, and more writer commits on V2
///   (DESIGN.md §14).
/// * **Commit** — [`client_commit`]. An empty write-set is read-only:
///   nothing to publish or ask (unpromoted, the reads are consistent at
///   the snapshot; registered, every read checked the invalidation flag —
///   Algorithm 2, lines 2–3). An unregistered write-set that is silent —
///   every buffered value already in the heap, with the timestamp still at
///   the snapshot — is a read-only transaction at the snapshot and commits
///   the same way, locally ([`norec::silent_commit`]). Any other write-set,
///   registered or not, goes to the commit-server. An unregistered one is
///   posted with its snapshot and its value read-set; the server admits it
///   at once while the timestamp still equals the snapshot, and otherwise
///   only if the reads still hold. A refusal therefore means a read really
///   changed.
pub(crate) struct RInvalClient<const DECLARED_RO: bool>;

impl<const DECLARED_RO: bool> sealed::Sealed for RInvalClient<DECLARED_RO> {}

impl<const DECLARED_RO: bool> Algorithm for RInvalClient<DECLARED_RO> {
    #[inline]
    fn pin(tx: &mut Txn<'_>) {
        if tx.first {
            tx.stm.registry.pin_era(tx.slot_idx, tx.cache.era_cache);
        } else {
            registry_begin(tx);
        }
    }

    #[inline]
    fn begin(tx: &mut Txn<'_>) -> TxResult<()> {
        if tx.registered {
            return Ok(());
        }
        norec::begin(tx)
    }

    #[inline]
    fn read(tx: &mut Txn<'_>, h: Handle) -> TxResult<u64> {
        if tx.registered {
            let cursor = tx.inval_cursor;
            return invalstm::read_impl(tx, h, cursor);
        }
        if !DECLARED_RO {
            if let Some(v) = tx.ws.get(h) {
                return Ok(v);
            }
        }
        let v = tx.stm.heap.load(h);
        fence(Ordering::Acquire);
        if tx.stm.timestamp.load(Ordering::SeqCst) == tx.snapshot {
            tx.rs.push(h, v);
            return Ok(v);
        }
        promote_and_read(tx, h)
    }

    #[inline]
    fn commit(tx: &mut Txn<'_>) -> TxResult<()> {
        client_commit(tx)
    }

    #[inline]
    fn cleanup(tx: &mut Txn<'_>) {
        registry_end(tx);
    }

    #[inline]
    fn cleanup_panic(tx: &mut Txn<'_>) {
        withdraw_then_end(tx);
    }

    #[inline]
    fn try_acquire_irrevocable(tx: &mut Txn<'_>) -> bool {
        remote_grant_token(tx)
    }
}

/// The first commit an unregistered [`RInvalClient`] attempt observes:
/// promote, then read `h` on the paper's path (the value loaded before the
/// mismatch is discarded).
#[cold]
fn promote_and_read(tx: &mut Txn<'_>, h: Handle) -> TxResult<u64> {
    promote(tx)?;
    let cursor = tx.inval_cursor;
    invalstm::read_impl(tx, h, cursor)
}

/// Panic repair of every engine that can post a commit request: a panic
/// with a request posted must not leave the server a dangling write-set
/// pointer (the backing buffer lives in the unwinding ThreadHandle).
/// Withdraw it — or, if a server already claimed it, wait out the verdict
/// — before deregistering (or unpinning) the slot.
fn withdraw_then_end(tx: &mut Txn<'_>) {
    let _ = withdraw_request(tx.stm, tx.slot_idx);
    registry_end(tx);
}

/// In-place upgrade of an unregistered [`RInvalClient`] attempt to the
/// registered protocol, on the first commit it observes in a read:
/// register in the `live` map, republish the reads into the slot's
/// signature (before the fence, so a committer admitted after the fence
/// either sees the signature and invalidates us or wrote before our
/// validation window — the same two-sided race argument as the read path's
/// bloom publish), then value-validate the read-set once. On success the
/// transaction continues at the validated window under the ordinary RInval
/// rules. Counted in `ServerStats::ro_promotions`. On failure the attempt
/// aborts registered, which [`Txn::registered`] already records for
/// cleanup.
fn promote(tx: &mut Txn<'_>) -> TxResult<()> {
    debug_assert!(!tx.registered);
    registry_begin(tx);
    let slot = tx.stm.registry.slot(tx.slot_idx);
    for &(h, _) in tx.rs.entries() {
        slot.read_bf.owner_insert(h.addr());
    }
    fence(Ordering::SeqCst);
    let (t, _) = norec::validate(tx, None)?;
    tx.snapshot = t;
    ServerCounters::add(&tx.stm.server_stats.ro_promotions, 1);
    Ok(())
}

fn client_commit(tx: &mut Txn<'_>) -> TxResult<()> {
    if tx.ws.is_empty() {
        // Read-only transactions never contact the server (Algorithm 2,
        // lines 2–3): each read already checked the invalidation flag, or,
        // unregistered, the snapshot.
        return Ok(());
    }
    // An unregistered attempt's reads held at its snapshot: a silent
    // write-set commits as read-only there, publishing nothing, so it
    // needs no server — live or degraded (DESIGN.md §14).
    if !tx.registered && norec::silent_commit(tx) {
        return Ok(());
    }
    let slot = tx.stm.registry.slot(tx.slot_idx);
    // Degraded instance: the servers are gone; abort so the retry loop
    // re-resolves this attempt's engine to InvalSTM.
    if tx.stm.degraded.load(Ordering::SeqCst) {
        return Err(Aborted);
    }
    // Algorithm 2, line 5: bail out before bothering the server if a prior
    // commit already invalidated us (never, unregistered: no one can). The
    // server rechecks (its view is the authoritative one).
    if slot.tx_status.load(Ordering::SeqCst) == TX_INVALIDATED {
        return Err(Aborted);
    }

    // Publish the request payload. The write-set and read-set buffers live
    // in this thread's ThreadHandle and are not touched again until the
    // server responds, so handing out raw pointers is sound. The signature
    // store writes the occupied words and the summary (zeroing what the
    // slot's previous request left set); once the server has claimed the
    // request it is frozen, and the server's snapshot walks that summary.
    slot.req_write_bf.store_from(tx.wbf);
    let entries = tx.ws.entries();
    slot.req_ws_ptr
        .store(entries.as_ptr() as *mut _, Ordering::Relaxed);
    slot.req_ws_len.store(entries.len(), Ordering::Relaxed);
    // An unregistered write-set is admissible at the snapshot its reads
    // were checked at, and later only if they still hold, so it brings
    // them along; a registered one at any timestamp, since invalidation
    // covers it (DESIGN.md §14).
    if tx.registered {
        slot.req_snapshot.store(u64::MAX, Ordering::Relaxed);
    } else {
        let reads = tx.rs.entries();
        slot.req_snapshot.store(tx.snapshot, Ordering::Relaxed);
        slot.req_rs_ptr
            .store(reads.as_ptr() as *mut _, Ordering::Relaxed);
        slot.req_rs_len.store(reads.len(), Ordering::Relaxed);
    }
    // Algorithm 2, line 7 — the release edge: everything above (and the
    // transaction's `Txn::init` stores into fresh records) happens-before
    // the server's acquire load of PENDING.
    slot.req.post(REQ_PENDING);
    tx.stm.faults.fire(faults::site::CLIENT_PUBLISH_DELAY);
    // Summary-map publish, strictly *after* the PENDING store: a server
    // that observes the set bit is guaranteed (SeqCst total order) to also
    // observe REQ_PENDING, so it may clear the bit at pickup without ever
    // losing a request. Only the server — or a withdrawal this client
    // performs itself — clears the bit.
    tx.stm.registry.pending().set(tx.slot_idx);
    wake_seat(tx.stm, 0);
    tx.stm.faults.fire(faults::site::TXN_COMMIT_PANIC);

    match await_verdict(tx) {
        Some(true) => Ok(()),
        Some(false) => Err(Aborted),
        // Retracted before any server claimed it.
        None => {
            // Unreachable through the public API (ThreadHandle borrows the
            // Stm, which shuts down only after all handles drop), but fail
            // loudly rather than hang if that invariant is ever broken.
            // The payload is already retracted, so the panic is contained
            // like any other body panic.
            assert!(
                !tx.stm.shutdown.load(Ordering::SeqCst),
                "rinval: STM shut down with a commit request outstanding"
            );
            if tx.timed_out {
                // A timeout withdrawal: no server verdict raced in.
                ServerCounters::add(&tx.stm.server_stats.timed_out_requests, 1);
                ServerCounters::add(&tx.stm.server_stats.timeout_withdrawals, 1);
            }
            Err(Aborted)
        }
    }
}

/// Algorithm 2, line 8: waits on this client's own cache line for the
/// verdict on the request it just posted — spin, yield, then park behind
/// the slot's sleeper flag, never past the attempt's deadline. The wait is
/// *bounded*: once the spin phase is over, every pass re-checks the escape
/// conditions (shutdown, degradation, the deadline). Either way the request
/// is resolved through [`withdraw_request`], which takes the verdict a
/// server produced (`Some(committed)`) or retracts the request so that no
/// server can ever see it (`None`), and leaves the slot idle.
fn await_verdict(tx: &mut Txn<'_>) -> Option<bool> {
    let (stm, me) = (tx.stm, tx.slot_idx);
    let slot = stm.registry.slot(me);
    let mut w = slot_waiter(stm, me, tx.deadline);
    loop {
        let answered = matches!(slot.req.state(), REQ_COMMITTED | REQ_ABORTED);
        if answered
            || (w.is_yielding()
                && (stm.shutdown.load(Ordering::SeqCst)
                    || stm.degraded.load(Ordering::SeqCst)
                    || tx.deadline_expired()))
        {
            drop(w);
            return withdraw_request(stm, me);
        }
        w.pause();
    }
}

/// RInval irrevocable-token acquisition (DESIGN.md §13): the request is
/// posted over the same cache-aligned slot as a commit — payload-free, in
/// the distinct [`REQ_IRREVOCABLE`] state so a server never mistakes it
/// for a commit — and the client waits on its own line for the verdict,
/// exactly like [`client_commit`]. No CAS anywhere on the client path.
///
/// The commit-server grants (`COMMITTED`) only between commits and, under
/// V2/MV, only once every invalidation-server has consumed every
/// published commit, so the token holder's next snapshot cannot be doomed
/// by anything admitted before the grant. Every give-up path — verdictless
/// withdrawal at the deadline, `ABORTED` from a drain, shutdown,
/// degradation — runs [`crate::StmInner::release_irrevocable`], which is a
/// no-op unless a stale grant actually landed on this slot; that makes a
/// server death between its token store and its answer self-healing.
pub(crate) fn remote_grant_token(tx: &mut Txn<'_>) -> bool {
    let stm = tx.stm;
    let me = tx.slot_idx;
    match stm.irrevocable_holder() {
        Some(h) if h == me => return true,
        Some(_) => return false,
        None => {}
    }
    if stm.shutdown.load(Ordering::SeqCst) || stm.degraded.load(Ordering::SeqCst) {
        return false;
    }
    let slot = stm.registry.slot(me);
    slot.req.post(REQ_IRREVOCABLE);
    stm.registry.pending().set(me);
    wake_seat(stm, 0);

    // Every give-up path releases a grant that landed regardless.
    if await_verdict(tx) == Some(true) && stm.irrevocable_holder() == Some(me) {
        true
    } else {
        stm.release_irrevocable(me);
        false
    }
}
