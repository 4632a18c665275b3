//! The in-flight transaction registry and the cache-aligned request array.
//!
//! The paper's Fig. 5 shows one cache-aligned record per client thread
//! holding the request state, `tx_status` and the write-set reference; the
//! invalidation side additionally needs each transaction's read Bloom
//! filter. We fuse both into a single [`TxSlot`] per registered thread —
//! this *is* the "cache-aligned requests array": every client spins only on
//! its own slot, and servers walk the array.
//!
//! Slot indices are claimed when a thread registers with the STM and
//! recycled when its [`crate::ThreadHandle`] drops.
//!
//! ## The request word
//!
//! The request state and the flag its owner parks behind are one type,
//! [`ReqCell`], and every transition is one of its methods — the engine's
//! [`TxSlot::req`] and `svc`'s call slots both embed it, so the protocol
//! below is written once. All accesses are `SeqCst`.
//!
//! | edge | who | from → to | publishes / acquires | owed a wake |
//! |---|---|---|---|---|
//! | post ([`ReqCell::post`]) | owner | `IDLE → PENDING` \| `IRREVOCABLE` | the store publishes the payload written before it | the server, through the summary bit the owner sets *after* the store |
//! | claim ([`ReqCell::step`]) | server, drain | `PENDING → CLAIMED` | a won CAS acquires the payload and freezes it: the owner can no longer withdraw | — |
//! | withdraw ([`ReqCell::step`]) | owner | `PENDING` \| `IRREVOCABLE → IDLE` | a won CAS proves no server ever owned the request | — |
//! | answer ([`ReqCell::answer`]) | whoever holds the claim | `CLAIMED → COMMITTED` \| `ABORTED` | the store publishes the write-back done before it | the owner, by the same call |
//! | answer-from ([`ReqCell::answer_from`]) | server | `IRREVOCABLE → COMMITTED` | as answer, for a request that was never claimed and so races the withdraw edge | the owner, if the CAS won |
//! | return ([`ReqCell::post`]) | owner | verdict `→ IDLE` | nothing; the owner read the verdict with [`ReqCell::state`] | — |
//!
//! Exactly one of {claim, withdraw} (and of {answer-from, withdraw}) wins a
//! posted request, so every request has one owner at a time — the pivot of
//! the recovery design (`server.rs`, "Fault containment").
//!
//! **No lost wake.** The owner waits on the cell with
//! [`ReqCell::waiter`]: before it parks it raises the cell's sleeper flag,
//! *then* re-loads the state (its wait loop going round once); an answer
//! stores the verdict, *then* loads the flag. Both pairs are store→load in
//! the `SeqCst` total order (Dekker), so either the flag store precedes the
//! answerer's flag load — the answerer unparks, and an unpark that beats
//! the park makes it return at once — or the verdict store precedes the
//! owner's re-load and the owner never parks. Because [`ReqCell::answer`]
//! and [`ReqCell::answer_from`] are the only ways to write a verdict, a
//! verdict without its wake cannot be written. Every park is bounded all
//! the same (`sync.rs`), so an escape condition nobody posts for —
//! shutdown, degradation, a deadline — costs one bound, never a hang.
//!
//! ## Summary bitmaps
//!
//! Servers used to discover work by walking all `max_threads` slots on
//! every pass. The registry now maintains [`AtomicBitmap`] summary maps so
//! scans touch only the slots that matter:
//!
//! * [`Registry::pending`] — bit `i` set ⇒ slot `i` has a published
//!   `REQ_PENDING` commit request. Set by the client *after* its `SeqCst`
//!   store of `REQ_PENDING` (so, in the `SeqCst` total order, an observed
//!   set bit implies an observable `REQ_PENDING`); cleared by the server
//!   when it picks the request up (before answering).
//! * [`Registry::live`] — bit `i` set ⇒ slot `i` may hold a live
//!   transaction. Set in [`Registry::begin`] *before* the slot's status
//!   becomes `TX_ALIVE` and cleared in [`Registry::end`] *after* it
//!   returns to `TX_IDLE`, so at every point of the `SeqCst` total order
//!   `tx_status != TX_IDLE` implies the bit is set — an invalidation scan
//!   over set bits can never miss a live reader. The bit may be set while
//!   the slot is idle (begin/end windows); scanners still check
//!   [`TxSlot::is_live`] per visited slot.
//! * [`Registry::snapshots`] — bit `i` set ⇒ slot `i` has run a declared
//!   reader of the multi-version engine since it was claimed. Sticky until
//!   [`Registry::release`], so a reader sets it once, not per attempt; the
//!   MV write-back walks it to read the named slots'
//!   [`TxSlot::snapshot_reader`] flags and versions its commit only if one
//!   is up (DESIGN.md §12, §14).

use crate::bloom::AtomicBloom;
use crate::heap::Handle;
use crate::logs::WriteEntry;
use crate::sync::{AtomicBitmap, CachePadded, Sleeper, Waiter};
use std::sync::atomic::{
    fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering,
};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `tx_status`: no transaction running in this slot.
pub const TX_IDLE: u32 = 0;
/// `tx_status`: transaction running and not (yet) invalidated.
pub const TX_ALIVE: u32 = 1;
/// `tx_status`: a committer's write signature intersected this
/// transaction's read signature; it must abort at its next status check.
pub const TX_INVALIDATED: u32 = 2;

/// [`ReqCell`] state: no commit request outstanding.
pub const REQ_IDLE: u32 = 0;
/// [`ReqCell`] state: client published a commit request; server will pick it up.
pub const REQ_PENDING: u32 = 1;
/// [`ReqCell`] state: server committed the request's write-set.
pub const REQ_COMMITTED: u32 = 2;
/// [`ReqCell`] state: server refused the request (client was invalidated).
pub const REQ_ABORTED: u32 = 3;
/// [`ReqCell`] state: a server CASed the request `PENDING → CLAIMED` at
/// pickup and is processing it. The state exists for fault containment:
/// a client that wants to *withdraw* a posted request (deadline expiry,
/// engine degradation, handle teardown) CASes `PENDING → IDLE`; success
/// proves no server ever saw the request, while observing `CLAIMED` means
/// a verdict is coming and the client must wait for it (the wait is
/// bounded by server liveness, which the watchdog enforces). Crash
/// recovery uses the same marker: requests a dead server left `CLAIMED`
/// are exactly the ones whose processing may have started.
pub const REQ_CLAIMED: u32 = 4;
/// [`ReqCell`] state: client posted a request for the global irrevocable
/// token over the same slot protocol as a commit (DESIGN.md §13). The
/// server (or the seqlock holder on serverless engines) answers it with
/// `REQ_COMMITTED` once the token is granted; withdrawal CASes it back to
/// `REQ_IDLE` exactly like an unclaimed `REQ_PENDING`. Token requests
/// never enter `REQ_CLAIMED`: the grant is a single store, so there is no
/// in-flight window crash recovery would need the marker for.
pub const REQ_IRREVOCABLE: u32 = 5;

/// Holder value of [`crate::Stm`]'s irrevocable-token word when nobody
/// holds the token.
pub const NO_IRREVOCABLE_HOLDER: usize = usize::MAX;

/// One request word and the flag its owner parks behind: the whole
/// post / claim / answer / withdraw protocol (module docs, "The request
/// word"). The values are the `REQ_*` constants, plus whatever private
/// ones an embedder passes to [`ReqCell::step`]; the default is
/// [`REQ_IDLE`].
#[derive(Debug, Default)]
pub struct ReqCell {
    state: AtomicU32,
    sleeper: Sleeper,
}

impl ReqCell {
    /// The current state.
    #[inline]
    pub fn state(&self) -> u32 {
        self.state.load(Ordering::SeqCst)
    }

    /// The owner's publishing store: everything written before it is
    /// visible to whoever claims `kind`. Also the owner's return to
    /// [`REQ_IDLE`] after reading a verdict. A bare store — the poster sets
    /// its summary bit and wakes the server itself.
    #[inline]
    pub fn post(&self, kind: u32) {
        self.state.store(kind, Ordering::SeqCst);
    }

    /// The one CAS: claim (`kind → CLAIMED`), withdraw (`kind → IDLE`), and
    /// an embedder's own edges (`svc`'s door and abandon). True if this
    /// caller moved the cell.
    #[inline]
    pub fn step(&self, from: u32, to: u32) -> bool {
        self.state
            .compare_exchange(from, to, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Stores `verdict`, *then* wakes the owner if it parked. Returns
    /// whether a wake was sent.
    #[inline]
    pub fn answer(&self, verdict: u32) -> bool {
        self.post(verdict);
        self.wake()
    }

    /// [`ReqCell::answer`] as a CAS, for an answer that races the owner
    /// leaving `from`. `None` if the owner left first.
    #[inline]
    pub fn answer_from(&self, from: u32, verdict: u32) -> Option<bool> {
        self.step(from, verdict).then(|| self.wake())
    }

    /// The owner's waiter on this cell, woken by [`ReqCell::answer`]: each
    /// park lasts at most `bound` and never past `deadline`.
    pub fn waiter<'a>(
        &'a self,
        bound: Duration,
        deadline: Option<Instant>,
        parks: &'a AtomicU64,
    ) -> Waiter<'a> {
        Waiter::new(&self.sleeper, bound, deadline, parks)
    }

    /// Wakes a parked owner without a verdict, for the stores every wait
    /// loop treats as an escape (shutdown, degradation, a respawn).
    #[inline]
    pub(crate) fn wake(&self) -> bool {
        self.sleeper.wake()
    }

    /// Slot recycling: back to [`REQ_IDLE`] with the flag lowered.
    pub(crate) fn reset(&self) {
        self.post(REQ_IDLE);
        self.sleeper.retract();
    }
}

/// Per-thread descriptor: transaction metadata + commit-request mailbox.
///
/// Cache-line alignment keeps a client's spin variable ([`TxSlot::req`])
/// off every other client's lines, which is the mechanism behind the
/// paper's claim that RInval "removes all CAS operations and replaces them
/// with cache-aligned requests".
#[repr(align(128))]
#[derive(Debug)]
pub struct TxSlot {
    /// [`TX_IDLE`] / [`TX_ALIVE`] / [`TX_INVALIDATED`]. Written by the owner
    /// (begin/end) and by committers or servers (invalidation).
    pub tx_status: AtomicU32,
    /// Incremented each time the owner begins a transaction; lets servers
    /// skip slots that changed owner mid-scan (diagnostics only).
    pub epoch: AtomicU64,
    /// Read signature, maintained by the owner on every transactional read,
    /// scanned by committers (InvalSTM) or invalidation-servers (RInval).
    pub read_bf: AtomicBloom,
    /// The commit-request word — the only one a committing RInval client
    /// waits on — and the flag it parks behind.
    pub req: ReqCell,
    /// The heap's reclamation era observed when the slot's current
    /// transaction began, or `u64::MAX` while no transaction runs. Every
    /// algorithm pins this at begin (before its first shared read) and
    /// resets it at end; the minimum over all slots is the reclamation
    /// horizon: a retired block stamped `R` may be recycled only once
    /// every in-flight transaction's `start_era >= R` (DESIGN.md §9).
    pub start_era: AtomicU64,
    /// Up while the slot runs a declared reader of the multi-version
    /// engine, from its pin to its cleanup
    /// ([`Registry::begin_snapshot_reader`]). Read by the MV write-back
    /// for the slots [`Registry::snapshots`] names.
    pub snapshot_reader: AtomicBool,
    /// Write signature of the published commit request.
    pub req_write_bf: AtomicBloom,
    /// Write-set of the published request. Valid from the `Release` store of
    /// `REQ_PENDING` until the server's `REQ_COMMITTED`/`REQ_ABORTED`
    /// response; the client keeps the backing buffer alive while it spins.
    pub req_ws_ptr: AtomicPtr<WriteEntry>,
    /// Length of the write-set at `req_ws_ptr`.
    pub req_ws_len: AtomicUsize,
    /// The timestamp through which the published request needs no
    /// validation. An unregistered write-set (a first attempt that never
    /// promoted) carries the snapshot its reads were checked at, and the
    /// commit-server admits it at once while the timestamp still equals
    /// it, else only if its reads at `req_rs_ptr` still hold; a registered
    /// one carries `u64::MAX`, since invalidation covers it (DESIGN.md
    /// §14). Published like `req_ws_ptr`/`req_ws_len`: a `Relaxed` store
    /// before the `PENDING` release. `u64::MAX` at rest.
    pub req_snapshot: AtomicU64,
    /// Value read-set of a published unregistered request — `(handle,
    /// value)` pairs the commit-server re-checks if the timestamp moved
    /// past `req_snapshot` — and null for a registered one. Same lifetime
    /// and publication as `req_ws_ptr`.
    pub req_rs_ptr: AtomicPtr<(Handle, u64)>,
    /// Length of the read-set at `req_rs_ptr`.
    pub req_rs_len: AtomicUsize,
    /// Rank of this slot's irrevocable-token request (DESIGN.md §13): the
    /// requester's abort streak, stored by its owner just before it asks
    /// for the token. Read only by token arbitration ([`precedes`]), and
    /// only while the slot's request is in [`REQ_IRREVOCABLE`], so a stale
    /// value at rest is never consulted and nothing resets it.
    pub token_rank: AtomicU32,
}

impl Default for TxSlot {
    fn default() -> Self {
        TxSlot {
            tx_status: AtomicU32::new(TX_IDLE),
            epoch: AtomicU64::new(0),
            read_bf: AtomicBloom::new(),
            start_era: AtomicU64::new(u64::MAX),
            snapshot_reader: AtomicBool::new(false),
            req: ReqCell::default(),
            req_write_bf: AtomicBloom::new(),
            req_ws_ptr: AtomicPtr::new(std::ptr::null_mut()),
            req_ws_len: AtomicUsize::new(0),
            req_snapshot: AtomicU64::new(u64::MAX),
            req_rs_ptr: AtomicPtr::new(std::ptr::null_mut()),
            req_rs_len: AtomicUsize::new(0),
            token_rank: AtomicU32::new(0),
        }
    }
}

impl TxSlot {
    /// Resets the request payload words to their at-rest values (null
    /// write- and read-sets, `req_snapshot == u64::MAX`), so that no
    /// server can follow a pointer into a buffer its owner has reused.
    pub fn clear_payload(&self) {
        self.req_ws_ptr
            .store(std::ptr::null_mut(), Ordering::Relaxed);
        self.req_ws_len.store(0, Ordering::Relaxed);
        self.req_snapshot.store(u64::MAX, Ordering::Relaxed);
        self.req_rs_ptr
            .store(std::ptr::null_mut(), Ordering::Relaxed);
        self.req_rs_len.store(0, Ordering::Relaxed);
    }

    /// Owner-side reset at transaction begin.
    pub fn begin(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
        self.read_bf.owner_clear();
        // The status store must not be reordered after the first read's
        // signature insertion; `SeqCst` keeps the whole begin sequence simple.
        self.tx_status.store(TX_ALIVE, Ordering::SeqCst);
    }

    /// Owner-side teardown at transaction end (commit or abort).
    pub fn end(&self) {
        self.tx_status.store(TX_IDLE, Ordering::SeqCst);
    }

    /// True if a transaction is currently running (or waiting to commit) in
    /// this slot. Invalidators only examine live slots.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.tx_status.load(Ordering::SeqCst) != TX_IDLE
    }
}

/// The token-arbitration order (DESIGN.md §13): true when the request in
/// slot `v_idx` with rank `pv` *precedes* the one in slot `c_idx` with
/// rank `pc` — higher rank first, ties broken by lower slot index. A
/// total order with a unique maximum, so simultaneous irrevocable-token
/// requests always have exactly one winner.
#[inline]
pub fn precedes(pv: u32, v_idx: usize, pc: u32, c_idx: usize) -> bool {
    pv > pc || (pv == pc && v_idx < c_idx)
}

/// Fixed array of [`TxSlot`]s plus slot-index recycling and the summary
/// bitmaps server scans run on (see the module docs).
#[derive(Debug)]
pub struct Registry {
    slots: Box<[CachePadded<TxSlot>]>,
    free: Mutex<Vec<usize>>,
    pending: AtomicBitmap,
    live: AtomicBitmap,
    snapshots: AtomicBitmap,
}

impl Registry {
    /// A registry with capacity for `max_threads` concurrently registered
    /// client threads.
    pub fn new(max_threads: usize) -> Registry {
        assert!(max_threads >= 1, "registry needs at least one slot");
        let mut v = Vec::with_capacity(max_threads);
        v.resize_with(max_threads, || CachePadded::new(TxSlot::default()));
        Registry {
            slots: v.into_boxed_slice(),
            free: Mutex::new((0..max_threads).rev().collect()),
            pending: AtomicBitmap::new(max_threads),
            live: AtomicBitmap::new(max_threads),
            snapshots: AtomicBitmap::new(max_threads),
        }
    }

    /// Number of slots (`max_threads` at construction).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the registry has no slots (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Claims a free slot index for a registering thread.
    pub fn claim(&self) -> Option<usize> {
        // Poison-tolerant (here and in `release`): the free-list is a
        // plain Vec whose push/pop cannot be interrupted halfway by a
        // panic elsewhere, and `release` runs during unwinds — a
        // poisoned mutex must not turn one thread's panic into
        // everyone's.
        self.free
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
    }

    /// Returns a slot index when its owner deregisters.
    ///
    /// Resets *all* observable per-slot state, including the read
    /// signature: a recycled slot must not inherit the previous owner's
    /// read Bloom filter, or a committer's invalidation scan could
    /// spuriously doom the new owner between `claim()` and its first
    /// `begin()`. The request payload goes too — after an answered commit
    /// `req_ws_ptr` points into the departing handle's buffer. The token
    /// rank stays: it is read only beside a posted token request.
    pub fn release(&self, idx: usize) {
        debug_assert!(idx < self.slots.len());
        self.slots[idx].tx_status.store(TX_IDLE, Ordering::SeqCst);
        self.slots[idx].req.reset();
        self.slots[idx].start_era.store(u64::MAX, Ordering::SeqCst);
        self.slots[idx]
            .snapshot_reader
            .store(false, Ordering::SeqCst);
        self.slots[idx].read_bf.owner_clear();
        self.slots[idx].req_write_bf.owner_clear();
        self.slots[idx].clear_payload();
        self.pending.clear(idx);
        self.live.clear(idx);
        self.snapshots.clear(idx);
        self.free
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(idx);
    }

    /// Owner-side transaction begin for `idx`: records the reclamation
    /// `era` the transaction starts in, then publishes the slot in the
    /// `live` map *before* its status flips to `TX_ALIVE` (set-then-alive;
    /// see the module docs for why the order matters). The era store comes
    /// first so a horizon scanner that sees the live bit also sees an era
    /// at most the transaction's true start era — scanning can only
    /// under-approximate the horizon, never overshoot it.
    #[inline]
    pub fn begin(&self, idx: usize, era: u64) {
        self.slots[idx].start_era.store(era, Ordering::SeqCst);
        self.live.set(idx);
        self.slots[idx].begin();
    }

    /// Reclamation-horizon pin for an engine outside the invalidation
    /// family. It never appears in the `live` map (nobody scans its
    /// signature), but any transaction holding handles must still pin the
    /// horizon — one plain `Release` store to the thread's own
    /// cache-padded slot, issued before the engine's first snapshot
    /// read, so its begin stays fence-free.
    ///
    /// A `Release` pin leaves a window where a horizon scan misses a
    /// just-begun transaction (the store is not yet visible). That is safe
    /// for the two engines that use this entry point. NOrec: recycling a
    /// block implies its freeing transaction committed — bumping the
    /// global timestamp — after the missed transaction's snapshot, and
    /// NOrec revalidates against the timestamp *before returning any read
    /// value*, so a read that could observe recycled contents aborts
    /// instead (DESIGN.md §9). The unregistered RInval attempts
    /// (`RInvalClient`'s first attempts) make the same argument until
    /// they promote: every value they return was checked against the
    /// snapshot timestamp, a mismatch promotes rather than returns, and an
    /// unregistered write-set is admitted only while the timestamp still
    /// equals the snapshot — promotion re-pins with `SeqCst`
    /// ([`Registry::begin`]) *before* it revalidates the logged reads by
    /// value, so every handle the attempt keeps was reachable at the
    /// validated window (DESIGN.md §9, §14). MV snapshot readers cannot
    /// make that argument (they never revalidate) and use
    /// [`Registry::begin_snapshot_reader`].
    #[inline]
    pub fn pin_era(&self, idx: usize, era: u64) {
        self.slots[idx].start_era.store(era, Ordering::Release);
    }

    /// Owner-side begin of a declared reader of the multi-version engine
    /// for `idx`: names the slot in the [`Registry::snapshots`] map (once
    /// per owner — the bit stays until release), raises its
    /// [`TxSlot::snapshot_reader`] flag and pins `era`, then one `SeqCst`
    /// fence makes flag and pin visible before the reader's first
    /// timestamp or heap load. The fence is the reader's half of two
    /// Dekker pairs: with the horizon scan, which must never miss the pin
    /// of a reader whose snapshot reads never revalidate (a ring walk into
    /// a recycled block would return inconsistent data rather than abort),
    /// and with the write-back's versioning check (DESIGN.md §12).
    #[inline]
    pub fn begin_snapshot_reader(&self, idx: usize, era: u64) {
        if !self.snapshots.get(idx) {
            self.snapshots.set(idx);
        }
        let slot = &self.slots[idx];
        slot.snapshot_reader.store(true, Ordering::Relaxed);
        slot.start_era.store(era, Ordering::Relaxed);
        fence(Ordering::SeqCst);
    }

    /// Ends a declared reader's attempt on `idx`: lowers its
    /// [`TxSlot::snapshot_reader`] flag, then clears the horizon pin.
    #[inline]
    pub fn end_snapshot_reader(&self, idx: usize) {
        self.slots[idx]
            .snapshot_reader
            .store(false, Ordering::Release);
        self.unpin_era(idx);
    }

    /// Whether a declared reader of the multi-version engine may be in
    /// flight: a slot [`Registry::snapshots`] names has its
    /// [`TxSlot::snapshot_reader`] flag up. Asked by the MV write-back
    /// after its commit's odd-timestamp store and `SeqCst` fence, so a
    /// reader it misses has read that odd timestamp (DESIGN.md §12).
    /// Touches one bitmap word and the flags of the slots that ever ran a
    /// declared reader, stopping at the first one up.
    pub fn snapshot_reader_in_flight(&self) -> bool {
        self.snapshots
            .iter_set_bits()
            .any(|i| self.slots[i].snapshot_reader.load(Ordering::SeqCst))
    }

    /// Clears the horizon pin at transaction end (commit or abort). The
    /// `Release` store keeps every read of the ending transaction ordered
    /// before the slot reads as idle.
    #[inline]
    pub fn unpin_era(&self, idx: usize) {
        self.slots[idx].start_era.store(u64::MAX, Ordering::Release);
    }

    /// Owner-side transaction end for `idx`: withdraws the slot from the
    /// `live` map *after* its status returns to `TX_IDLE`, then clears the
    /// horizon pin.
    #[inline]
    pub fn end(&self, idx: usize) {
        self.slots[idx].end();
        self.live.clear(idx);
        self.unpin_era(idx);
    }

    /// The pending-request summary map (bit per slot with a published
    /// `REQ_PENDING` request).
    #[inline]
    pub fn pending(&self) -> &AtomicBitmap {
        &self.pending
    }

    /// The live-transaction summary map (bit per slot that may hold a
    /// live transaction).
    #[inline]
    pub fn live(&self) -> &AtomicBitmap {
        &self.live
    }

    /// The declared-reader summary map of the multi-version engine: bit
    /// `i` is set by slot `i`'s first MV declared reader and cleared only
    /// by [`Registry::release`], so it names a superset of the slots that
    /// may be running one ([`Registry::snapshot_reader_in_flight`]).
    #[inline]
    pub fn snapshots(&self) -> &AtomicBitmap {
        &self.snapshots
    }

    /// The slot at `idx`.
    #[inline]
    pub fn slot(&self, idx: usize) -> &TxSlot {
        &self.slots[idx]
    }

    /// Hints the CPU to pull slot `idx`'s first cache-line pair into L1.
    ///
    /// The scan kernel (`scan.rs`) issues this for the slots named by the
    /// summary-map word *ahead* of its cursor, so by the time the scan
    /// reaches them the `tx_status` line is already resident.
    /// Purely a hint: no-op on non-x86 targets and never a data access,
    /// so it is safe to issue for any in-bounds index regardless of the
    /// slot's state.
    #[inline]
    pub fn prefetch_slot(&self, idx: usize) {
        debug_assert!(idx < self.slots.len());
        #[cfg(target_arch = "x86_64")]
        // SAFETY: prefetch is a hint; the pointer is in-bounds and the
        // intrinsic performs no memory access observable by the program.
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(&raw const self.slots[idx] as *const i8);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = idx;
    }

    /// Iterates over all slots with their indices (server scan order).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &TxSlot)> {
        self.slots.iter().enumerate().map(|(i, s)| (i, &**s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bloom::{cores, Bloom};

    #[test]
    fn slot_is_cache_aligned() {
        assert_eq!(std::mem::align_of::<TxSlot>(), 128);
        let reg = Registry::new(4);
        let a = reg.slot(0) as *const _ as usize;
        let b = reg.slot(1) as *const _ as usize;
        assert_eq!(a % 128, 0);
        assert!(b - a >= 128);
    }

    #[test]
    fn claim_release_recycles_indices() {
        let reg = Registry::new(2);
        let a = reg.claim().unwrap();
        let b = reg.claim().unwrap();
        assert_ne!(a, b);
        assert!(reg.claim().is_none(), "capacity exhausted");
        reg.release(a);
        assert_eq!(reg.claim(), Some(a));
    }

    #[test]
    fn begin_end_lifecycle() {
        let reg = Registry::new(1);
        let s = reg.slot(0);
        assert!(!s.is_live());
        s.begin();
        assert!(s.is_live());
        assert_eq!(s.tx_status.load(Ordering::SeqCst), TX_ALIVE);
        s.tx_status.store(TX_INVALIDATED, Ordering::SeqCst);
        assert!(s.is_live(), "invalidated is still live until owner ends");
        s.end();
        assert!(!s.is_live());
    }

    #[test]
    fn begin_clears_read_signature_and_bumps_epoch() {
        let reg = Registry::new(1);
        let s = reg.slot(0);
        s.read_bf.owner_insert(7);
        let e0 = s.epoch.load(Ordering::Relaxed);
        s.begin();
        assert!(!s.read_bf.may_contain(7));
        assert_eq!(s.epoch.load(Ordering::Relaxed), e0 + 1);
    }

    #[test]
    fn release_resets_the_request_cell() {
        let reg = Registry::new(1);
        let idx = reg.claim().unwrap();
        reg.slot(idx).req.post(REQ_PENDING);
        reg.release(idx);
        assert_eq!(reg.slot(idx).req.state(), REQ_IDLE);
    }

    /// Every edge of the request word, in the order a commit takes them.
    #[test]
    fn cell_edges_in_sequence() {
        let cell = ReqCell::default();
        assert_eq!(cell.state(), REQ_IDLE);
        // post → claim → answer → the owner reads and returns to idle.
        cell.post(REQ_PENDING);
        assert!(cell.step(REQ_PENDING, REQ_CLAIMED), "claim");
        assert!(
            !cell.step(REQ_PENDING, REQ_IDLE),
            "a claimed request cannot be withdrawn"
        );
        assert!(!cell.answer(REQ_COMMITTED), "nobody parked, no wake");
        assert_eq!(cell.state(), REQ_COMMITTED);
        cell.post(REQ_IDLE);
        // post → withdraw, then the claim fails.
        cell.post(REQ_PENDING);
        assert!(cell.step(REQ_PENDING, REQ_IDLE), "withdraw");
        assert!(
            !cell.step(REQ_PENDING, REQ_CLAIMED),
            "a withdrawn request cannot be claimed"
        );
        assert_eq!(cell.state(), REQ_IDLE);
        // An unclaimed request answered by CAS: the answer wins…
        cell.post(REQ_IRREVOCABLE);
        assert_eq!(
            cell.answer_from(REQ_IRREVOCABLE, REQ_COMMITTED),
            Some(false)
        );
        assert!(!cell.step(REQ_IRREVOCABLE, REQ_IDLE), "answered first");
        cell.post(REQ_IDLE);
        // …or loses to an owner that stepped away first, and writes nothing.
        cell.post(REQ_IRREVOCABLE);
        assert!(cell.step(REQ_IRREVOCABLE, REQ_IDLE));
        assert_eq!(cell.answer_from(REQ_IRREVOCABLE, REQ_COMMITTED), None);
        assert_eq!(cell.state(), REQ_IDLE);
    }

    #[test]
    fn cell_answer_reports_the_wake_and_reset_lowers_the_flag() {
        let cell = ReqCell::default();
        cell.post(REQ_PENDING);
        cell.sleeper.announce();
        assert!(cell.answer(REQ_ABORTED), "the owner announced a park");
        assert!(!cell.wake(), "one wake per announce");
        cell.sleeper.announce();
        cell.reset();
        assert_eq!(cell.state(), REQ_IDLE);
        assert!(!cell.wake(), "a recycled cell inherited a raised flag");
    }

    /// The pivot of the recovery design: a server's claim and the owner's
    /// withdrawal race for every posted request, and exactly one wins.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn claim_and_withdraw_race_has_exactly_one_winner() {
        use crate::sync::SpinYield;
        const ROUNDS: u32 = 100_000;
        let cell = ReqCell::default();
        // The round the owner has posted; `2 * round + won` of the server.
        let (posted, claimed) = (AtomicU32::new(0), AtomicU32::new(0));
        let await_round = |word: &AtomicU32, shift: u32, r: u32| {
            let mut w = SpinYield::new();
            while word.load(Ordering::SeqCst) >> shift != r {
                w.pause();
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                for r in 1..=ROUNDS {
                    await_round(&posted, 0, r);
                    let won = cell.step(REQ_PENDING, REQ_CLAIMED);
                    claimed.store(2 * r + won as u32, Ordering::SeqCst);
                }
            });
            for r in 1..=ROUNDS {
                cell.post(REQ_PENDING);
                posted.store(r, Ordering::SeqCst);
                // Vary who gets there first.
                (0..r % 256).for_each(|_| std::hint::spin_loop());
                let withdrew = cell.step(REQ_PENDING, REQ_IDLE);
                await_round(&claimed, 1, r);
                let claim_won = claimed.load(Ordering::SeqCst) & 1 == 1;
                assert_ne!(withdrew, claim_won, "round {r}: both or neither won");
                assert_eq!(cell.state(), if withdrew { REQ_IDLE } else { REQ_CLAIMED });
                cell.post(REQ_IDLE);
            }
        });
    }

    /// The owner really parks — the `parks` counter says so — and the
    /// answer brings it back long before its park bound.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn answer_wakes_a_parked_owner() {
        const BOUND: Duration = Duration::from_secs(60);
        let (cell, parks) = (ReqCell::default(), AtomicU64::new(0));
        cell.post(REQ_PENDING);
        std::thread::scope(|s| {
            let owner = s.spawn(|| {
                let mut w = cell.waiter(BOUND, None, &parks);
                while cell.state() == REQ_PENDING {
                    w.pause();
                }
                cell.state()
            });
            while parks.load(Ordering::Relaxed) == 0 {
                std::thread::sleep(Duration::from_micros(100));
            }
            let t0 = Instant::now();
            assert!(cell.answer(REQ_COMMITTED), "a parked owner is owed a wake");
            assert_eq!(owner.join().unwrap(), REQ_COMMITTED);
            assert!(t0.elapsed() < BOUND / 4, "the park was sat out");
        });
    }

    #[test]
    fn release_clears_read_signature_and_summary_bits() {
        let reg = Registry::new(2);
        let idx = reg.claim().unwrap();
        reg.begin(idx, 0);
        reg.slot(idx).read_bf.owner_insert(42);
        let mut wbf = Bloom::new();
        wbf.insert(42);
        reg.slot(idx).req_write_bf.store_from(&wbf);
        let mut ws = [WriteEntry { addr: 42, val: 1 }];
        reg.slot(idx)
            .req_ws_ptr
            .store(ws.as_mut_ptr(), Ordering::Relaxed);
        reg.slot(idx).req_ws_len.store(ws.len(), Ordering::Relaxed);
        reg.slot(idx).req_snapshot.store(8, Ordering::Relaxed);
        let mut rs = [(Handle::NULL, 1)];
        reg.slot(idx)
            .req_rs_ptr
            .store(rs.as_mut_ptr(), Ordering::Relaxed);
        reg.slot(idx).req_rs_len.store(rs.len(), Ordering::Relaxed);
        reg.pending().set(idx);
        reg.begin_snapshot_reader(idx, 0);
        reg.release(idx);
        // Dense checks: every word, whatever the summaries claim.
        for (name, bf) in [
            ("read", &reg.slot(idx).read_bf),
            ("request write", &reg.slot(idx).req_write_bf),
        ] {
            assert!(
                cores::load_scalar(bf).words().iter().all(|&w| w == 0),
                "recycled slot inherited the previous owner's {name} signature"
            );
        }
        assert!(reg.slot(idx).req_ws_ptr.load(Ordering::Relaxed).is_null());
        assert_eq!(reg.slot(idx).req_ws_len.load(Ordering::Relaxed), 0);
        assert_eq!(
            reg.slot(idx).req_snapshot.load(Ordering::Relaxed),
            u64::MAX,
            "a recycled slot's next request would be held to a stale snapshot"
        );
        assert!(reg.slot(idx).req_rs_ptr.load(Ordering::Relaxed).is_null());
        assert_eq!(reg.slot(idx).req_rs_len.load(Ordering::Relaxed), 0);
        assert!(!reg.pending().get(idx));
        assert!(!reg.live().get(idx));
        assert!(!reg.snapshots().get(idx));
        assert!(!reg.slot(idx).snapshot_reader.load(Ordering::Relaxed));
        assert!(!reg.snapshot_reader_in_flight());
    }

    /// A declared reader's summary bit is set once and outlives its
    /// attempts; only its flag tracks whether one is in flight.
    #[test]
    fn snapshot_reader_flag_tracks_attempts_and_the_bit_sticks() {
        let reg = Registry::new(130);
        assert!(!reg.snapshot_reader_in_flight());
        for idx in [3, 129] {
            reg.begin_snapshot_reader(idx, 7);
            assert!(reg.snapshots().get(idx));
            assert_eq!(reg.slot(idx).start_era.load(Ordering::Relaxed), 7);
            assert!(reg.snapshot_reader_in_flight(), "slot {idx}");
            reg.end_snapshot_reader(idx);
            assert!(reg.snapshots().get(idx), "the bit is per owner");
            assert_eq!(reg.slot(idx).start_era.load(Ordering::Relaxed), u64::MAX);
            assert!(!reg.snapshot_reader_in_flight(), "slot {idx}");
        }
        reg.begin_snapshot_reader(3, 0);
        reg.begin_snapshot_reader(129, 0);
        reg.end_snapshot_reader(3);
        assert!(reg.snapshot_reader_in_flight(), "129 is still reading");
    }

    #[test]
    fn begin_end_maintain_live_map() {
        let reg = Registry::new(3);
        assert!(!reg.live().any_set());
        reg.begin(1, 0);
        assert!(reg.live().get(1));
        assert_eq!(reg.live().iter_set_bits().collect::<Vec<_>>(), vec![1]);
        assert!(reg.slot(1).is_live());
        reg.end(1);
        assert!(!reg.live().get(1));
        assert!(!reg.slot(1).is_live());
    }

    #[test]
    fn live_bit_covers_alive_status() {
        // The safety-critical direction: whenever tx_status != IDLE the
        // live bit must already be set (set-then-alive / idle-then-clear).
        let reg = Registry::new(1);
        reg.begin(0, 0);
        assert!(reg.slot(0).is_live() && reg.live().get(0));
        reg.slot(0)
            .tx_status
            .store(TX_INVALIDATED, Ordering::SeqCst);
        assert!(
            reg.live().get(0),
            "invalidated (still live) slot lost its bit"
        );
        reg.end(0);
        assert!(!reg.slot(0).is_live());
    }

    #[test]
    fn precedence_is_a_total_order_with_unique_maximum() {
        // Higher rank precedes; equal rank falls back to index.
        assert!(precedes(2, 5, 1, 0));
        assert!(!precedes(1, 0, 2, 5));
        assert!(precedes(1, 0, 1, 1));
        assert!(!precedes(1, 1, 1, 0));
        // Irreflexive: a transaction never precedes itself.
        assert!(!precedes(3, 4, 3, 4));
        // Exactly one of any distinct pair precedes the other.
        for (pv, v, pc, c) in [(0, 0, 0, 1), (1, 3, 2, 0), (5, 2, 5, 7)] {
            assert_ne!(precedes(pv, v, pc, c), precedes(pc, c, pv, v));
        }
    }

    #[test]
    fn iter_visits_every_slot() {
        let reg = Registry::new(5);
        assert_eq!(reg.iter().count(), 5);
        let idxs: Vec<usize> = reg.iter().map(|(i, _)| i).collect();
        assert_eq!(idxs, vec![0, 1, 2, 3, 4]);
    }
}
