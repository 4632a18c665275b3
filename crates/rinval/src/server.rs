//! Server threads for the RInval family, plus the fault-containment layer
//! that supervises them.
//!
//! * [`commit_server`] — the `COMMIT-SERVER LOOP` of Algorithms 2–4, one
//!   loop for every remote kind: one thread claims each request, owns the
//!   global timestamp (bumped with plain stores, never CAS) and writes
//!   back. The kinds differ only in who invalidates, which the loop decides
//!   once per commit, after its odd-timestamp store:
//!   - **V1** (Algorithm 2) has no invalidation-server: the commit-server
//!     invalidates inline, then writes back.
//!   - **V2** (Algorithm 3, `steps_ahead = 0`): [`invalidation_server`]s
//!     scan their partitions while the commit-server writes back — handed
//!     the commit through a ring of write signatures, or skipped where the
//!     partition has nothing to doom (see "Waiting" below). The server
//!     waits for every invalidator before each request.
//!   - **MV** (Algorithm 4, `steps_ahead = n > 0`): as V2, but only
//!     the *requester's* invalidator must be caught up, and the others may
//!     lag up to `n` commits.
//! * [`invalidation_server`] — Algorithm 3's `INVALIDATION-SERVER LOOP`:
//!   chases the global timestamp in steps of 2, scanning its partition of
//!   the registry against the published signature.
//! * [`watchdog`] — supervises all of the above through per-seat
//!   [`crate::sync::Heartbeat`] beacons: dead servers are respawned (after re-deriving a
//!   consistent protocol state with [`recover_inflight`]); servers that are
//!   alive but silent with work outstanding, or that keep dying, degrade
//!   the instance to the serverless InvalSTM engine (see "Fault
//!   containment" below).
//!
//! The logic is a transcription of Algorithms 2–4 with the deviations
//! documented here. The first is how everyone waits.
//!
//! ## Waiting
//!
//! The paper pins every server to its own core and busy-loops. Here client,
//! commit-server and invalidation-server routinely share two cores, so each
//! of the three protocol waits goes through the one primitive,
//! [`Waiter`]: a sub-microsecond spin, a bounded run of yields (the
//! hand-off when the awaited thread is off-core), then a bounded park
//! behind a sleeper flag in a line the waiter owns. Whoever publishes what
//! a waiter waits for owes it a wake — one `SeqCst` load of that flag
//! after the publishing store. A client waits on its slot's request cell,
//! where the verdict store and its wake are one call ([`answer`]; the
//! `registry` module docs, "The request word", have the edges and the
//! lost-wake argument). The seats' publishing stores go through
//! [`wake_seat`] so that the wake cannot be forgotten:
//!
//! | waiter | waits on | publishing store | wake |
//! |---|---|---|---|
//! | commit-server (seat 0) | the `pending` summary | client's `pending().set` | [`wake_seat`]`(0)` |
//! | commit-server (seat 0) | lagging `inval_ts`, incl. the mid-scan ring wait and the token drain | invalidator's `inval_ts` `fetch_max` | [`wake_seat`]`(0)` |
//! | commit-server (seat 0) | requests held back for the token holder | holder's `release_irrevocable` | [`wake_seat`]`(0)` |
//! | invalidation-server (seat `1 + k`) | `timestamp` | commit-server's odd-timestamp store, for a commit with work in `k`'s partition | [`wake_seat`]`(1 + k)` |
//! | all of them, and every client | `shutdown`, `degraded`, a respawn | `Stm::drop`, [`degrade`], [`watchdog`] | [`wake_all`] |
//!
//! A seat parks for at most one watchdog interval, a client for at most
//! that and never past its attempt deadline (DESIGN.md §12 has the bound
//! table), so a wake this table does not list costs one bound of latency,
//! never a hang — and a client parked on its slot is still withdrawn on
//! time by `try_run_for`.
//!
//! An invalidation-server is woken only for commits with work in its
//! partition. When a commit's partition `k` holds no live transaction but
//! the requester's, the commit-server *retires* the commit on `k`'s behalf
//! instead ([`hand_off_invalidation`]), so a lone client's commits never
//! leave the client ↔ commit-server pair. `inval_ts[k]` thus has two
//! writers, and both only move it forward: the invalidator with
//! `fetch_max` after its scan, the commit-server with a CAS `t → t + 2`
//! that succeeds only when `k` is fully caught up. Nothing stores it
//! plainly (CI's `lint` job checks), so a scan a retirement overtook cannot
//! move it back, and every cursor value `c` still means "every commit
//! below `c` was scanned or proven to have nothing to doom".
//!
//! ## Summary-bitmap scans
//!
//! The paper's loops walk the whole `max_threads` registry on every pass —
//! twice per commit (request discovery, invalidation). Both walks now
//! iterate only the set bits of the registry's `pending` / `live` summary
//! maps ([`crate::registry::Registry::pending`] /
//! [`crate::registry::Registry::live`]), so per-pass work is proportional
//! to the number of *active* slots, not the registry capacity. The
//! publication orders (pending bit set after `REQ_PENDING`; live bit set
//! before `TX_ALIVE`, cleared after `TX_IDLE`) guarantee that a bitmap
//! scan observes every request/transaction the corresponding full walk
//! would have — the `registry` module docs give the `SeqCst` total-order
//! argument. Every walk goes through the shared scan kernel
//! ([`crate::scan::scan`]), which adds slot prefetch from the word ahead
//! of the cursor and records scan work uniformly in
//! [`crate::stats::ServerCounters`] (see `scan.rs` for the accounting
//! contract).
//!
//! ## Fault containment
//!
//! A commit request now moves `IDLE → PENDING → CLAIMED → {COMMITTED,
//! ABORTED} → IDLE`. The CAS from `PENDING` to [`REQ_CLAIMED`] at server
//! pickup is the pivot of the whole recovery design: it makes *exactly
//! one* of {a server, a withdrawing client, the post-mortem recovery walk}
//! the owner of each request, so a request can always be accounted for no
//! matter where its server died.
//!
//! Recovery leans on two protocol invariants (DESIGN.md §11):
//!
//! 1. **Odd timestamp ⇒ claimed requests are an admitted commit.** The
//!    commit-server answers doomed requests (invalidated, or unregistered
//!    with reads that no longer hold) *before* bumping the timestamp, so
//!    any slot still `CLAIMED` while the timestamp is odd passed its
//!    status checks and its commit must be
//!    *completed*: readers spin while the timestamp is odd, so no partial
//!    write-back was observed, and re-running invalidation + write-back is
//!    idempotent ([`recover_inflight`] does exactly this).
//! 2. **Even timestamp ⇒ claimed requests published nothing.** Answering
//!    `ABORTED` is sound; the client simply retries.
//!
//! Degradation (`StmInner::degraded`) is one-way: every server loop
//! re-checks the flag and exits, outstanding requests are answered
//! `ABORTED` by [`drain_requests_abort`], and clients re-resolve their
//! engine to InvalSTM (`StmInner::effective_algo`), which needs no servers
//! — throughput drops, correctness doesn't.

use crate::bloom::Bloom;
use crate::faults::{self, FaultAction};
use crate::logs::WriteEntry;
use crate::registry::{
    precedes, TxSlot, NO_IRREVOCABLE_HOLDER, REQ_ABORTED, REQ_CLAIMED, REQ_COMMITTED, REQ_IDLE,
    REQ_IRREVOCABLE, REQ_PENDING, TX_ALIVE, TX_INVALIDATED,
};
use crate::scan::{scan, ScanKind};
use crate::stats::ServerCounters;
use crate::sync::Waiter;
use crate::StmInner;
use std::ops::ControlFlow;
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Applies a write-set to the heap, releasing at `release_ts`: the one
/// write-back of every engine — the commit-server, crash recovery, and
/// the seqlock engines' own commits (InvalSTM, NOrec) all publish
/// through it.
///
/// On a multi-version heap this is where a commit is versioned or not —
/// decided once, here, after the caller's odd-timestamp store and its
/// `SeqCst` fence: only while a declared reader is in flight
/// ([`crate::registry::Registry::snapshot_reader_in_flight`]) does each
/// store also stamp
/// the word's version ring with `release_ts`. Otherwise the words are
/// stored plainly and the heap's version base advances to `release_ts`
/// first, so the base is visible before the release (DESIGN.md §12, §14).
/// Other heaps have no rings and always store plainly.
///
/// Every address is bounds-checked: one outside the heap (a handle forged
/// with [`crate::Handle::from_word`], or a corrupt request) is dropped,
/// and the rest of the write-set is still applied, so no commit is torn
/// and no committer faults with the seqlock odd.
pub(crate) fn write_back(stm: &StmInner, entries: &[WriteEntry], release_ts: u64) {
    let mut versioned = stm.heap.versions_enabled();
    if versioned && !stm.registry.snapshot_reader_in_flight() {
        stm.heap.advance_version_base(release_ts);
        versioned = false;
    }
    for e in entries {
        if versioned {
            stm.heap.store_versioned_checked(e.addr, e.val, release_ts);
        } else {
            stm.heap.store_checked(e.addr, e.val);
        }
    }
}

/// The write-set a claimed request published: `len` entries at `ptr`,
/// empty for a null pointer.
///
/// # Safety contract
/// `ptr/len` were published by a client that is waiting on its request
/// cell and will not free or mutate the buffer until we respond;
/// the `Acquire`-ordered observation of `REQ_PENDING` made the buffer's
/// contents visible. [`write_back`] bounds-checks every address, so a
/// corrupt request cannot fault the server.
unsafe fn published_write_set<'a>(ptr: *const WriteEntry, len: usize) -> &'a [WriteEntry] {
    if ptr.is_null() {
        return &[];
    }
    unsafe { std::slice::from_raw_parts(ptr, len) }
}

/// Whether every `(handle, value)` pair of the unregistered request
/// published in `slot` still holds: the commit-server's value validation
/// of a write-set whose snapshot the timestamp has moved past.
///
/// # Safety contract
/// As for [`published_write_set`]: the read-set buffer belongs to a
/// client waiting on its claimed request, and the `Acquire` observation
/// of `REQ_PENDING` made its contents visible. Every handle in it was loaded by that
/// client, so it lies in a materialized segment. Committed state is
/// stable while the caller holds an even timestamp: it is the only
/// writer.
unsafe fn reads_hold(stm: &StmInner, slot: &TxSlot) -> bool {
    let ptr = slot.req_rs_ptr.load(Ordering::Relaxed);
    let len = slot.req_rs_len.load(Ordering::Relaxed);
    if ptr.is_null() {
        return false;
    }
    let reads = unsafe { std::slice::from_raw_parts(ptr, len) };
    reads.iter().all(|&(h, v)| stm.heap.load(h) == v)
}

/// Counts a wake that was sent. A wake is what a poster owes after the
/// `SeqCst` store that publishes what a waiter waits for: one load of the
/// waiter's flag, and a syscall only if it announced that it is parking.
#[inline]
fn count_wake(stm: &StmInner, woke: bool) {
    if woke {
        ServerCounters::add(&stm.server_stats.wakes_sent, 1);
    }
}

/// Answers slot `i`'s claimed request: verdict, then wake
/// ([`ReqCell::answer`](crate::registry::ReqCell::answer)).
#[inline]
fn answer(stm: &StmInner, i: usize, verdict: u32) {
    count_wake(stm, stm.registry.slot(i).req.answer(verdict));
}

/// Wakes server seat `seat` if it parked (serverless kinds have no seats).
/// Owed after every store a seat waits on: a client's `pending().set`, an
/// invalidator's `inval_ts` advance and the irrevocable token's release
/// (seat 0); the commit-server's odd-timestamp store (seats `1..` whose
/// partition has work — [`hand_off_invalidation`]).
#[inline]
pub(crate) fn wake_seat(stm: &StmInner, seat: usize) {
    if let Some(hb) = stm.health.get(seat) {
        count_wake(stm, hb.sleeper.wake());
    }
}

/// Wakes every parked seat and client. Owed after the stores every wait
/// loop treats as an escape — `shutdown`, `degraded` — and after a respawn.
pub(crate) fn wake_all(stm: &StmInner) {
    for hb in stm.health.iter() {
        count_wake(stm, hb.sleeper.wake());
    }
    for (_, slot) in stm.registry.iter() {
        count_wake(stm, slot.req.wake());
    }
}

/// The waiter of server seat `seat`. A park lasts at most one watchdog
/// interval, so a seat that is parked with work outstanding (a wake nobody
/// owed it) still beats between two polls and is never taken for stalled.
fn seat_waiter(stm: &StmInner, seat: usize) -> Waiter<'_> {
    Waiter::new(
        &stm.health[seat].sleeper,
        stm.watchdog.interval,
        None,
        &stm.server_stats.server_parks,
    )
}

/// The waiter of the client owning slot `idx`, woken by [`answer`]. Parks
/// are bounded like a seat's and never outlast the attempt's `deadline`.
pub(crate) fn slot_waiter(stm: &StmInner, idx: usize, deadline: Option<Instant>) -> Waiter<'_> {
    let (slot, parks) = (stm.registry.slot(idx), &stm.server_stats.client_parks);
    slot.req.waiter(stm.watchdog.interval, deadline, parks)
}

/// Invalidates every live transaction (except the slots `skip` names) whose
/// read signature intersects `wbf`, walking only the `live` summary map.
/// Shared by V1's inline invalidation, the invalidation-servers and crash
/// recovery, each of which skips the committing slots: a committer's own
/// reads always intersect its writes.
///
/// `server`: `Some(k)` restricts the walk to invalidation-server `k`'s
/// partition, the slots with `i % nk == k` ([`StmInner::inval_server_of`]).
/// Returns how many live slots the walk examined.
pub(crate) fn invalidate_conflicting(
    stm: &StmInner,
    wbf: &Bloom,
    skip: impl Fn(usize) -> bool,
    server: Option<usize>,
) -> usize {
    let st = &stm.server_stats;
    let (mut examined, mut doomed) = (0, 0u64);
    let _ = scan(
        &stm.registry,
        st,
        stm.registry.live(),
        ScanKind::Inval,
        // Committer and partition skips are index-level and uncounted;
        // everything delivered below is an examined slot.
        |i| !skip(i) && server.is_none_or(|k| stm.inval_server_of(i) == k),
        |_, slot| {
            examined += 1;
            // `wbf` is private to this scan, so the words to load from each
            // live reader come from *its* summary; a live reader's own
            // summary is never consulted (`bloom.rs`).
            if slot.is_live() && slot.read_bf.intersects_plain(wbf) {
                // CAS (not store) so an already-idle slot is never marked:
                // the server must not leak an INVALIDATED flag into a slot
                // that has since been recycled to a different thread.
                if slot
                    .tx_status
                    .compare_exchange(TX_ALIVE, TX_INVALIDATED, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    doomed += 1;
                }
            }
            ControlFlow::Continue(())
        },
    );
    if doomed != 0 {
        ServerCounters::add(&st.txs_doomed, doomed);
    }
    examined
}

/// Best posted irrevocable-token request — the pending slot in
/// [`REQ_IRREVOCABLE`] state that precedes every other requester by
/// [`precedes`] over the requesters' [`TxSlot::token_rank`]s (abort
/// streaks) — if any.
fn token_request(stm: &StmInner) -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    let _ = scan(
        &stm.registry,
        &stm.server_stats,
        stm.registry.pending(),
        ScanKind::Quiet,
        |_| true,
        |i, slot| {
            if slot.req.state() == REQ_IRREVOCABLE {
                let pv = slot.token_rank.load(Ordering::SeqCst);
                best = match best {
                    Some((bp, bi)) if !precedes(pv, i, bp, bi) => Some((bp, bi)),
                    _ => Some((pv, i)),
                };
            }
            ControlFlow::Continue(())
        },
    );
    best.map(|(_, i)| i)
}

/// Grants the global irrevocable token to slot `i`'s posted request over
/// the ordinary slot protocol: store the token word, then answer the
/// request with the `IRREVOCABLE → COMMITTED` CAS. A CAS failure means
/// the client withdrew at its deadline — the tentative grant is rolled
/// back (CAS, because after a client-side release another slot may
/// legitimately have taken the token in between). If the token already
/// names `i` (a server died between its token store and its answer), the
/// grant is simply re-answered — idempotent across respawns.
///
/// The caller must ensure no commit is in flight and (V2/MV) every
/// invalidation-server has caught up, so that nothing admitted before the
/// grant can still doom the holder's next attempt.
fn try_grant_token(stm: &StmInner, i: usize) -> bool {
    match stm.irrevocable.load(Ordering::SeqCst) {
        NO_IRREVOCABLE_HOLDER => stm.irrevocable.store(i, Ordering::SeqCst),
        h if h == i => {}
        _ => return false,
    }
    stm.registry.pending().clear(i);
    let slot = stm.registry.slot(i);
    let granted = slot.req.answer_from(REQ_IRREVOCABLE, REQ_COMMITTED);
    if let Some(woke) = granted {
        count_wake(stm, woke);
        ServerCounters::add(&stm.server_stats.irrevocable_grants, 1);
    } else {
        let _ = stm.irrevocable.compare_exchange(
            i,
            NO_IRREVOCABLE_HOLDER,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }
    granted.is_some()
}

/// The irrevocable-token grant point at the top of every commit-server
/// pass (DESIGN.md §13), where no commit is in flight. Returns the pass's
/// token holder — while one exists only its own requests are served;
/// everyone else's pending bits stay set until the holder commits (client
/// waits have bounded deadline/shutdown escapes) — or `None` when the pass
/// must *drain*: admit no commit and count as empty.
///
/// A posted token request is granted only once every invalidation-server
/// has consumed every published commit (scanned it, or had it retired on
/// its behalf): a lagging ring scan could otherwise doom the holder's fresh
/// snapshot after the grant. Until then the server drains, so the
/// precondition converges. V1 has no invalidation-servers and the
/// condition is vacuous: it grants at once and never drains.
fn token_grant_point(stm: &StmInner, answered: &mut bool) -> Option<Option<usize>> {
    let holder = stm.irrevocable_holder();
    let candidate = match holder {
        // A server that died between its token store and its answer leaves
        // the holder waiting on an unanswered request; re-answering is
        // idempotent across respawns.
        Some(h) => (stm.registry.slot(h).req.state() == REQ_IRREVOCABLE).then_some(h),
        None => token_request(stm),
    };
    let Some(r) = candidate else {
        return Some(holder);
    };
    if holder.is_none() {
        let t = stm.timestamp.load(Ordering::SeqCst);
        if stm.inval_ts.iter().any(|ts| ts.load(Ordering::SeqCst) < t) {
            return None;
        }
    }
    if try_grant_token(stm, r) {
        *answered = true;
        return Some(Some(r));
    }
    Some(holder)
}

/// Closes a commit-server pass: progress restarts the seat's wait budget,
/// an empty pass is counted and waits.
fn end_pass(stm: &StmInner, idle: &mut Waiter<'_>, answered: bool) {
    if answered {
        idle.reset();
    } else {
        ServerCounters::add(&stm.server_stats.empty_passes, 1);
        idle.pause();
    }
}

/// Polls a server's failpoints at the top of a pass. Returns `false` when
/// the server should exit its loop (an injected death via
/// [`FaultAction::Exit`]); a [`FaultAction::Panic`] unwinds inside
/// [`faults::FaultPlan::fire`] (the seat's [`crate::sync::AliveGuard`]
/// turns either into a dead beacon). [`FaultAction::Stall`] blocks —
/// without beating — until the site is disarmed, the STM shuts down or
/// the instance degrades, which is exactly the "alive but silent"
/// signature the watchdog's stall detector looks for. With the
/// `failpoints` feature off both `fire` calls are constant `None` and the
/// whole function folds to `true`.
#[inline]
fn pass_failpoints(stm: &StmInner, death_site: usize, stall_site: usize) -> bool {
    if let Some(FaultAction::Exit) = stm.faults.fire(death_site) {
        return false;
    }
    if let Some(FaultAction::Stall) = stm.faults.fire(stall_site) {
        while stm.faults.armed(stall_site)
            && !stm.shutdown.load(Ordering::SeqCst)
            && !stm.degraded.load(Ordering::SeqCst)
        {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    true
}

/// Hands commit `t`, requested by slot `req`, to the invalidation-servers;
/// runs right after the commit's odd-timestamp store and its `SeqCst`
/// fence. A server whose partition holds no live transaction but the
/// requester's (which every invalidator skips) has nothing to doom, so the
/// commit is *retired* on its behalf — `inval_ts[k]: t → t + 2`, a CAS that
/// succeeds only when `k` has consumed every earlier commit, so its
/// progress stays contiguous — instead of waking it. Busy or lagging
/// servers are woken as before. `busy` is scratch, one entry per server.
///
/// Sound because the live bit is set before `TX_ALIVE`, and `TX_ALIVE`
/// before the first read: a transaction whose bit the `SeqCst` loads below
/// miss set it after the odd store, so every read it makes waits out the
/// odd phase and sees the write-back — the fence pairing the invalidators'
/// own scans rely on (DESIGN.md §12).
fn hand_off_invalidation(stm: &StmInner, t: u64, req: usize, busy: &mut [bool]) {
    busy.fill(false);
    for i in stm.registry.live().iter_set_bits() {
        if i != req {
            busy[stm.inval_server_of(i)] = true;
        }
    }
    let mut retired = 0;
    for (k, &b) in busy.iter().enumerate() {
        if !b
            && stm.inval_ts[k]
                .compare_exchange(t, t + 2, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            retired += 1;
        } else {
            wake_seat(stm, 1 + k);
        }
    }
    if retired != 0 {
        ServerCounters::add(&stm.server_stats.quiet_retirements, retired);
    }
}

/// The commit-server of every RInval kind (paper Algorithms 2–4; module
/// docs). V1 is the instance with no invalidation-servers: its lag check,
/// catch-up wait and ring have nothing to do, and it invalidates inline.
pub(crate) fn commit_server(stm: &StmInner) {
    let hb = &stm.health[0];
    let _alive = hb.alive_guard();
    let st = &stm.server_stats;
    let mut wbf = Bloom::new();
    let mut idle = seat_waiter(stm, 0);
    let ring = stm.commit_ring.len() as u64;
    let nk = stm.inval_ts.len();
    let mut busy = vec![false; nk];
    'scan: while !stm.shutdown.load(Ordering::SeqCst) && !stm.degraded.load(Ordering::SeqCst) {
        hb.beat();
        if !pass_failpoints(
            stm,
            faults::site::SERVER_COMMIT_DEATH,
            faults::site::SERVER_COMMIT_STALL,
        ) {
            return;
        }
        ServerCounters::add(&st.scan_passes, 1);
        let mut answered = false;
        let Some(holder) = token_grant_point(stm, &mut answered) else {
            end_pass(stm, &mut idle, false);
            continue 'scan;
        };
        let flow = scan(
            &stm.registry,
            st,
            stm.registry.pending(),
            ScanKind::Admission,
            // Token-holder exclusivity, uncounted like every index-level
            // skip.
            |i| holder.is_none_or(|h| h == i),
            |i, slot| {
                // Cheap pre-filter; the authoritative pickup is the CAS
                // below.
                if slot.req.state() != REQ_PENDING {
                    return ControlFlow::Continue(());
                }
                let t = stm.timestamp.load(Ordering::Relaxed);
                // Algorithm 4, line 2 (run-ahead kinds only): only take a
                // request whose own invalidation-server has processed every
                // prior commit — otherwise the tx_status check below would
                // not be authoritative — so a stalled partition defers its
                // own requests, never another's. The request stays pending
                // and is *not* counted as progress: treating a lagging
                // partition as "found" work would keep the server
                // hot-spinning with no backoff while contributing nothing.
                // Without run-ahead the wait below already implies the
                // check, and skipping would starve: the writer in a
                // partition another writer keeps busy was passed over while
                // the quiet one committed back to back (DESIGN.md §13).
                // V1 has no invalidator to lag.
                if stm.steps_ahead_ts > 0
                    && stm.inval_ts[stm.inval_server_of(i)].load(Ordering::SeqCst) < t
                {
                    return ControlFlow::Continue(());
                }
                // Algorithm 3 line 7 / Algorithm 4 line 5: wait until no
                // invalidation-server lags more than `steps_ahead` commits,
                // so the ring slot we are about to overwrite has been
                // consumed. The request is still PENDING here
                // (withdrawable); we keep beating so a lagging
                // *invalidator* — not this seat — is what the watchdog sees
                // as stalled. The wait continues the seat's own budget: the
                // pass may already be running with the sleeper announced.
                for k in 0..nk {
                    while t.saturating_sub(stm.inval_ts[k].load(Ordering::SeqCst))
                        > stm.steps_ahead_ts
                    {
                        if stm.shutdown.load(Ordering::SeqCst)
                            || stm.degraded.load(Ordering::SeqCst)
                        {
                            return ControlFlow::Break(());
                        }
                        hb.beat();
                        idle.pause();
                    }
                }
                // Pickup (see the module docs): the CAS makes us the
                // request's sole owner; a failure means the client withdrew
                // it.
                if !slot.req.step(REQ_PENDING, REQ_CLAIMED) {
                    return ControlFlow::Continue(());
                }
                stm.registry.pending().clear(i);
                answered = true;
                // Algorithm 2 line 15 / Algorithm 3 lines 9–10: the
                // authoritative invalidation check, before the timestamp
                // moves — which keeps invariant 1 of the module docs.
                if slot.tx_status.load(Ordering::SeqCst) == TX_INVALIDATED {
                    answer(stm, i, REQ_ABORTED);
                    return ControlFlow::Continue(());
                }
                // An unregistered write-set (DESIGN.md §14) was validated at
                // its snapshot only, and nothing could doom it since: admit
                // it only if its reads still hold at `t` — NOrec's commit
                // rule, with this thread as the lock holder. It is the
                // timestamp's only writer, so `t` equal to the snapshot
                // decides it in one compare; after a move, the reads are
                // re-checked by value. A registered request carries
                // `u64::MAX` and always passes.
                if t > slot.req_snapshot.load(Ordering::Relaxed)
                    && !unsafe { reads_hold(stm, slot) }
                {
                    answer(stm, i, REQ_ABORTED);
                    ServerCounters::add(&st.stale_refusals, 1);
                    return ControlFlow::Continue(());
                }
                // The copy moves the occupied words only: the claimed
                // request is frozen.
                slot.req_write_bf.load_into(&mut wbf);
                // Algorithm 3 line 12 / Algorithm 4 line 8: hand the write
                // signature (and the requester's identity, which invalidators
                // skip) to the invalidation-servers via the ring slot for
                // commit number t/2, frozen once the odd-timestamp store
                // below publishes it. V1 has no ring.
                if let Some(r) = (t / 2).checked_rem(ring) {
                    stm.commit_ring[r as usize].store_from(&wbf);
                    stm.commit_req[r as usize].store(i, Ordering::Relaxed);
                }
                let ptr = slot.req_ws_ptr.load(Ordering::Relaxed);
                let len = slot.req_ws_len.load(Ordering::Relaxed);
                // Algorithm 2 line 18 / Algorithm 3 line 13: enter the odd
                // (commit-in-flight) phase — the signal that starts the
                // invalidation-servers on this commit.
                stm.timestamp.store(t + 1, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                if nk == 0 {
                    // Algorithm 2, lines 19–21: V1 invalidates inline.
                    invalidate_conflicting(stm, &wbf, |j| j == i, None);
                } else {
                    hand_off_invalidation(stm, t, i, &mut busy);
                }
                // Algorithm 2 line 22 / Algorithm 3 line 14: write-back, in
                // parallel with the invalidation-servers' scans.
                write_back(stm, unsafe { published_write_set(ptr, len) }, t + 2);
                stm.timestamp.store(t + 2, Ordering::SeqCst);
                answer(stm, i, REQ_COMMITTED);
                ControlFlow::Continue(())
            },
        );
        if flow.is_break() {
            break 'scan;
        }
        end_pass(stm, &mut idle, answered);
    }
}

/// Invalidation-server `k` of `stm.inval_ts.len()` (paper Algorithm 3,
/// lines 18–25). Owns the registry slots `i` with
/// `stm.inval_server_of(i) == k` — the paper's `i % num_servers == k`
/// round-robin.
///
/// Its cursor `inval_ts[k]` has a second writer: the commit-server retires
/// commits whose partition is quiet ([`hand_off_invalidation`]). Both only
/// move it forward — here with `fetch_max`, never a plain store — so a scan
/// that a retirement overtook cannot move it back.
pub(crate) fn invalidation_server(stm: &StmInner, k: usize) {
    let hb = &stm.health[1 + k];
    let _alive = hb.alive_guard();
    let mut wbf = Bloom::new();
    let mut idle = seat_waiter(stm, 1 + k);
    let cursor = &stm.inval_ts[k];
    let ring = stm.commit_ring.len() as u64;
    while !stm.shutdown.load(Ordering::SeqCst) && !stm.degraded.load(Ordering::SeqCst) {
        hb.beat();
        if !pass_failpoints(
            stm,
            faults::site::SERVER_INVAL_DEATH,
            faults::site::SERVER_INVAL_LAG,
        ) {
            return;
        }
        let my = cursor.load(Ordering::SeqCst);
        // Line 20: a commit with number `my/2` is (or has been) in flight.
        if stm.timestamp.load(Ordering::SeqCst) > my {
            let ring_idx = ((my / 2) % ring) as usize;
            stm.commit_ring[ring_idx].load_into(&mut wbf);
            let requester = stm.commit_req[ring_idx].load(Ordering::Relaxed);
            fence(Ordering::SeqCst);
            // Retired on our behalf meanwhile: the ring slot may already
            // hold a later commit, so skip it. A retirement that lands after
            // this check leaves a scan that can only doom, never miss.
            if cursor.load(Ordering::SeqCst) != my {
                continue;
            }
            // Lines 21–23: scan my partition of the live map.
            let examined = invalidate_conflicting(stm, &wbf, |j| j == requester, Some(k));
            // Line 24: catch up by one commit — which is what the
            // commit-server waits for before it claims the next request.
            // Only a cursor this scan moved is progress anyone waits on,
            // and only a partition with someone live in it promises more
            // work: a scan that won the race against a quiet retirement
            // must not keep this seat yielding on a core the client and
            // the commit-server need.
            if cursor.fetch_max(my + 2, Ordering::SeqCst) == my {
                wake_seat(stm, 0);
                if examined != 0 {
                    idle.reset();
                }
            }
        } else {
            idle.pause();
        }
    }
}

/// Retracts (or resolves) the calling client's posted commit request.
///
/// Returns `Some(committed)` when a server had already produced a verdict
/// — the caller must honor it, the commit may have happened. Returns
/// `None` when the request was retracted before any server claimed it (or
/// none was posted): nothing observable happened and the caller may
/// abort, retry or surface a timeout.
///
/// The `PENDING → IDLE` CAS races the servers' `PENDING → CLAIMED` pickup
/// CAS; exactly one side wins. If the server won, the claim window is
/// bounded (no unbounded waits between claim and answer; a server that
/// dies mid-claim is resolved by [`recover_inflight`]), so the `CLAIMED`
/// arm just waits the verdict out.
pub(crate) fn withdraw_request(stm: &StmInner, idx: usize) -> Option<bool> {
    let slot = stm.registry.slot(idx);
    let mut claimed = slot_waiter(stm, idx, None);
    loop {
        match slot.req.state() {
            REQ_IDLE => return None,
            // An irrevocable-token request withdraws exactly like a commit
            // request: the `→ IDLE` CAS races the server's grant answer
            // (`IRREVOCABLE → COMMITTED`), and exactly one side wins. If
            // the server won, the verdict arm below surfaces the grant and
            // the caller is responsible for releasing the token it may now
            // hold (`StmInner::release_irrevocable` is a no-op for
            // non-holders).
            state @ (REQ_PENDING | REQ_IRREVOCABLE) => {
                if slot.req.step(state, REQ_IDLE) {
                    // Won the race: no server ever owned this request.
                    // Clearing the summary bit is normally the server's
                    // job at pickup; here the withdrawal is the pickup.
                    stm.registry.pending().clear(idx);
                    slot.clear_payload();
                    ServerCounters::add(&stm.server_stats.withdrawn_requests, 1);
                    return None;
                }
                // Lost to a concurrent claim; loop to read the new state.
            }
            REQ_CLAIMED => claimed.pause(),
            verdict => {
                debug_assert!(verdict == REQ_COMMITTED || verdict == REQ_ABORTED);
                slot.clear_payload();
                slot.req.post(REQ_IDLE);
                return Some(verdict == REQ_COMMITTED);
            }
        }
    }
}

/// Answers every still-`PENDING` request with `ABORTED`. Runs when no
/// server will ever pick the requests up: at degradation, and as the final
/// sweep of `Stm::drop` after the servers joined. Claims each request with
/// the same CAS the servers use, so a concurrent client withdrawal stays
/// race-free (exactly one side owns the request).
pub(crate) fn drain_requests_abort(stm: &StmInner) {
    let _ = scan(
        &stm.registry,
        &stm.server_stats,
        stm.registry.pending(),
        ScanKind::Quiet,
        |_| true,
        |i, slot| {
            // Token requests are drained too (direct `IRREVOCABLE →
            // ABORTED`; no server claims them, so no CLAIMED intermediate
            // is needed) — a client spinning for a grant no server will
            // ever issue must be woken just like one spinning for a commit
            // verdict.
            if slot.req.step(REQ_PENDING, REQ_CLAIMED)
                || slot.req.step(REQ_IRREVOCABLE, REQ_CLAIMED)
            {
                stm.registry.pending().clear(i);
                answer(stm, i, REQ_ABORTED);
                ServerCounters::add(&stm.server_stats.drained_requests, 1);
            }
            ControlFlow::Continue(())
        },
    );
}

/// Re-derives a consistent protocol state after a commit-server died with
/// requests claimed (module docs, "Fault containment").
///
/// * Timestamp **odd**: the claimed slots are an admitted commit whose
///   write-back may be partial. Partial write-back cannot be undone — but
///   it also was not observed (readers spin while the timestamp is odd) —
///   so the commit is *completed*: merged invalidation scan (idempotent:
///   `ALIVE → INVALIDATED` CAS only), full write-back (idempotent: same
///   values), release the timestamp, answer `COMMITTED`. Under V2/MV the
///   dead server had already published the ring slot before bumping, so
///   the inline invalidation here merely duplicates what the
///   invalidation-servers will (idempotently) do as they catch up.
/// * Timestamp **even**: nothing of any claimed request was published;
///   answer `ABORTED` and let the clients retry.
///
/// Must only run while no commit-server is running (between a detected
/// death and the respawn, or after `Stm::drop` joined the servers) — it
/// takes over the dead server's role as the timestamp's sole writer.
pub(crate) fn recover_inflight(stm: &StmInner) {
    let t = stm.timestamp.load(Ordering::SeqCst);
    let claimed: Vec<usize> = stm
        .registry
        .iter()
        .filter(|(_, s)| s.req.state() == REQ_CLAIMED)
        .map(|(i, _)| i)
        .collect();
    if t & 1 == 1 {
        let mut merged = Bloom::new();
        for &i in &claimed {
            // Claimed, hence frozen: walked by its own summary.
            stm.registry.slot(i).req_write_bf.or_into(&mut merged);
        }
        fence(Ordering::SeqCst);
        invalidate_conflicting(stm, &merged, |j| claimed.contains(&j), None);
        for &i in &claimed {
            let slot = stm.registry.slot(i);
            let ptr = slot.req_ws_ptr.load(Ordering::Relaxed);
            let len = slot.req_ws_len.load(Ordering::Relaxed);
            // Release below is `t + 1` (t is odd here); a re-run after a
            // partial write-back appends duplicate `(t + 1, value)` ring
            // entries, which the snapshot scan resolves identically.
            write_back(stm, unsafe { published_write_set(ptr, len) }, t + 1);
        }
        // Release the seqlock even if the claimed set was empty (a server
        // that died after bumping but before claiming anything — not
        // reachable through the built-in failpoints, but cheap to cover).
        stm.timestamp.store(t + 1, Ordering::SeqCst);
        for &i in &claimed {
            stm.registry.pending().clear(i);
            answer(stm, i, REQ_COMMITTED);
        }
    } else {
        for &i in &claimed {
            stm.registry.pending().clear(i);
            answer(stm, i, REQ_ABORTED);
            ServerCounters::add(&stm.server_stats.drained_requests, 1);
        }
    }
}

/// Switches the instance to serverless operation (one-way). Remote engines
/// resolve to InvalSTM from the next attempt on
/// (`StmInner::effective_algo`); surviving servers observe the flag and
/// exit; requests no server will ever answer are aborted so their waiting
/// clients resume.
pub(crate) fn degrade(stm: &StmInner) {
    if stm.degraded.swap(true, Ordering::SeqCst) {
        return;
    }
    ServerCounters::add(&stm.server_stats.degradations, 1);
    drain_requests_abort(stm);
    wake_all(stm);
}

/// Whether `seat` has work outstanding — the gate that distinguishes a
/// *stalled* server (silent with work to do) from an *idle* one (silent
/// because there is nothing to do; an idle seat parks between passes and
/// beats once per park bound).
fn seat_busy(stm: &StmInner, seat: usize) -> bool {
    if seat == 0 {
        stm.registry.pending().any_set() || stm.timestamp.load(Ordering::SeqCst) & 1 == 1
    } else {
        stm.timestamp.load(Ordering::SeqCst) > stm.inval_ts[seat - 1].load(Ordering::SeqCst)
    }
}

/// A server seat, for (re)spawning: seat 0 is the commit-server, seat
/// `1 + k` is invalidation-server `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ServerRole {
    /// The commit-server.
    Commit,
    /// Invalidation-server `k` (V2/MV only).
    Inval(usize),
}

/// Spawns the server thread for `role`, returning its join handle (or the
/// spawn error, which the watchdog treats as grounds for degradation).
pub(crate) fn spawn_server(
    stm: &Arc<StmInner>,
    role: ServerRole,
) -> std::io::Result<JoinHandle<()>> {
    let i = Arc::clone(stm);
    match role {
        ServerRole::Commit => std::thread::Builder::new()
            .name("rinval-commit".into())
            .spawn(move || commit_server(&i)),
        ServerRole::Inval(k) => std::thread::Builder::new()
            .name(format!("rinval-inval-{k}"))
            .spawn(move || invalidation_server(&i, k)),
    }
}

/// The supervisor loop (thread `rinval-watchdog`): polls every server
/// seat's [`crate::sync::Heartbeat`] each `interval`.
///
/// * **Dead** (alive flag down — the thread returned or unwound): run
///   [`recover_inflight`] if it was the commit-server, then respawn the
///   seat — up to `max_respawns` times across the instance's lifetime,
///   after which (or if a respawn fails, or the respawned thread never
///   checks in) the instance degrades.
/// * **Stalled** (alive but not beating while [`seat_busy`]): after
///   `stall_checks` consecutive silent polls, degrade. A stalled server
///   cannot be respawned — running two commit-servers would mean two
///   writers of the global timestamp — so degradation is the only safe
///   repair; the stuck thread exits on its own if it ever wakes (every
///   loop re-checks the `degraded` flag before touching protocol state).
///
/// Respawned threads are owned (joined) by the watchdog; the original
/// seats stay owned by `Stm::drop`.
pub(crate) fn watchdog(stm: Arc<StmInner>) {
    let cfg = stm.watchdog;
    let seats = stm.health.len();
    let mut last = vec![0u64; seats];
    let mut misses = vec![0u32; seats];
    let mut respawns_left = cfg.max_respawns;
    let mut children: Vec<JoinHandle<()>> = Vec::new();
    let done =
        |stm: &StmInner| stm.shutdown.load(Ordering::SeqCst) || stm.degraded.load(Ordering::SeqCst);
    // Wait for the initial threads to check in before supervising, so a
    // slow spawn is not mistaken for a death (which would fork a second
    // commit-server). A seat counts as checked in if it is alive *or* has
    // beaten at least once: every server beats before its pass-top
    // failpoints, so a seat that came up and promptly died to an injected
    // fault is handed to the supervise loop below as a death rather than
    // stranding this phase until its timeout. A seat that never comes up
    // at all degrades the instance.
    let t0 = Instant::now();
    for (s, hb) in stm.health.iter().enumerate() {
        while !hb.is_alive() && hb.beats() == 0 {
            if done(&stm) {
                return;
            }
            if t0.elapsed() > Duration::from_secs(5) {
                degrade(&stm);
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        last[s] = hb.beats();
    }
    'supervise: while !done(&stm) {
        std::thread::sleep(cfg.interval);
        // `server.watchdog.skip`: Fail skips this supervision round (a
        // blind watchdog — deaths in the window go unnoticed until the
        // next round), Delay models a descheduled watchdog, Panic kills
        // supervision outright.
        if let Some(FaultAction::Fail) = stm.faults.fire(faults::site::SERVER_WATCHDOG_SKIP) {
            continue 'supervise;
        }
        for seat in 0..seats {
            if done(&stm) {
                break 'supervise;
            }
            let hb = &stm.health[seat];
            if !hb.is_alive() {
                if respawns_left == 0 {
                    if seat == 0 {
                        recover_inflight(&stm);
                    }
                    degrade(&stm);
                    break 'supervise;
                }
                respawns_left -= 1;
                ServerCounters::add(&stm.server_stats.respawns, 1);
                if seat == 0 {
                    // No commit-server is running: resolve whatever the
                    // dead one left claimed so the replacement starts from
                    // a consistent state and never re-invalidates a
                    // committed write-back.
                    recover_inflight(&stm);
                }
                let role = if seat == 0 {
                    ServerRole::Commit
                } else {
                    ServerRole::Inval(seat - 1)
                };
                let before = hb.beats();
                let up = match spawn_server(&stm, role) {
                    Ok(h) => {
                        children.push(h);
                        // Whatever wake the dead thread still owed (it may
                        // have died between a store and its wake) is paid
                        // here, so nobody sleeps out a park bound on it.
                        wake_all(&stm);
                        let t0 = Instant::now();
                        // Same check-in rule as the startup phase: beats
                        // progress counts even if the replacement has
                        // already died again (the next poll re-detects the
                        // death and the respawn budget drains normally).
                        while !hb.is_alive()
                            && hb.beats() == before
                            && !done(&stm)
                            && t0.elapsed() < Duration::from_millis(500)
                        {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        hb.is_alive() || hb.beats() != before
                    }
                    Err(_) => false,
                };
                if !up && !done(&stm) {
                    degrade(&stm);
                    break 'supervise;
                }
                last[seat] = hb.beats();
                misses[seat] = 0;
            } else {
                let now = hb.beats();
                if now != last[seat] || !seat_busy(&stm, seat) {
                    last[seat] = now;
                    misses[seat] = 0;
                } else {
                    misses[seat] += 1;
                    ServerCounters::add(&stm.server_stats.heartbeat_misses, 1);
                    if misses[seat] >= cfg.stall_checks {
                        degrade(&stm);
                        break 'supervise;
                    }
                }
            }
        }
    }
    for c in children {
        let _ = c.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlgorithmKind, Stm};

    /// Server-less inner state of a remote kind: the protocol words and
    /// registry exist, but no threads run — the tests below drive the
    /// recovery paths by hand.
    fn inner_v1() -> Arc<StmInner> {
        Stm::builder(AlgorithmKind::RInvalV1).build_inner()
    }

    #[test]
    fn drain_aborts_pending_requests() {
        let inner = inner_v1();
        let idx = inner.registry.claim().unwrap();
        let slot = inner.registry.slot(idx);
        slot.req.post(REQ_PENDING);
        inner.registry.pending().set(idx);

        drain_requests_abort(&inner);

        assert_eq!(slot.req.state(), REQ_ABORTED);
        assert!(!inner.registry.pending().get(idx));
        assert_eq!(inner.server_stats.snapshot().drained_requests, 1);
        inner.registry.release(idx);
    }

    #[test]
    fn withdraw_retracts_pending_and_honors_verdicts() {
        let inner = inner_v1();
        let idx = inner.registry.claim().unwrap();
        let slot = inner.registry.slot(idx);

        // Nothing posted.
        assert_eq!(withdraw_request(&inner, idx), None);

        // Posted, unclaimed: retracted.
        slot.req.post(REQ_PENDING);
        inner.registry.pending().set(idx);
        assert_eq!(withdraw_request(&inner, idx), None);
        assert_eq!(slot.req.state(), REQ_IDLE);
        assert!(!inner.registry.pending().get(idx));
        assert_eq!(inner.server_stats.snapshot().withdrawn_requests, 1);

        // Verdict already produced: taken, not discarded.
        slot.req.post(REQ_COMMITTED);
        assert_eq!(withdraw_request(&inner, idx), Some(true));
        assert_eq!(slot.req.state(), REQ_IDLE);
        slot.req.post(REQ_ABORTED);
        assert_eq!(withdraw_request(&inner, idx), Some(false));
        inner.registry.release(idx);
    }

    #[test]
    fn recover_even_timestamp_aborts_claimed() {
        let inner = inner_v1();
        let idx = inner.registry.claim().unwrap();
        let slot = inner.registry.slot(idx);
        slot.req.post(REQ_CLAIMED);

        recover_inflight(&inner);

        assert_eq!(slot.req.state(), REQ_ABORTED);
        assert_eq!(inner.timestamp.load(Ordering::SeqCst), 0);
        inner.registry.release(idx);
    }

    #[test]
    fn recover_odd_timestamp_completes_commit() {
        let inner = inner_v1();
        let h = inner.heap.alloc(1).unwrap();

        // A claimed committer mid-write-back…
        let idx = inner.registry.claim().unwrap();
        let slot = inner.registry.slot(idx);
        let entries = [WriteEntry {
            addr: h.addr(),
            val: 42,
        }];
        let mut wbf = Bloom::new();
        wbf.insert(h.addr());
        slot.req_write_bf.store_from(&wbf);
        slot.req_ws_ptr
            .store(entries.as_ptr() as *mut _, Ordering::Relaxed);
        slot.req_ws_len.store(entries.len(), Ordering::Relaxed);
        slot.req.post(REQ_CLAIMED);

        // …a live reader of the written word…
        let rd = inner.registry.claim().unwrap();
        inner.registry.begin(rd, 0);
        inner.registry.slot(rd).read_bf.owner_insert(h.addr());

        // …and a server that died inside the odd phase.
        inner.timestamp.store(1, Ordering::SeqCst);
        recover_inflight(&inner);

        assert_eq!(inner.timestamp.load(Ordering::SeqCst), 2);
        assert_eq!(slot.req.state(), REQ_COMMITTED);
        assert_eq!(inner.heap.load(h), 42);
        assert_eq!(
            inner.registry.slot(rd).tx_status.load(Ordering::SeqCst),
            TX_INVALIDATED
        );

        slot.req.post(REQ_IDLE);
        slot.req_ws_ptr
            .store(std::ptr::null_mut(), Ordering::Relaxed);
        inner.registry.end(rd);
        inner.registry.release(rd);
        inner.registry.release(idx);
    }

    #[test]
    fn degrade_is_one_way_and_drains() {
        let inner = inner_v1();
        let idx = inner.registry.claim().unwrap();
        let slot = inner.registry.slot(idx);
        slot.req.post(REQ_PENDING);
        inner.registry.pending().set(idx);

        degrade(&inner);
        degrade(&inner); // second call is a no-op

        assert!(inner.degraded.load(Ordering::SeqCst));
        assert_eq!(slot.req.state(), REQ_ABORTED);
        let s = inner.server_stats.snapshot();
        assert_eq!(s.degradations, 1);
        assert_eq!(s.drained_requests, 1);
        inner.registry.release(idx);
    }

    #[test]
    fn grant_token_over_slot_protocol() {
        let inner = inner_v1();
        let idx = inner.registry.claim().unwrap();
        let slot = inner.registry.slot(idx);
        slot.req.post(REQ_IRREVOCABLE);
        inner.registry.pending().set(idx);

        assert_eq!(token_request(&inner), Some(idx));
        assert!(try_grant_token(&inner, idx));
        assert_eq!(inner.irrevocable_holder(), Some(idx));
        assert_eq!(slot.req.state(), REQ_COMMITTED);
        assert!(!inner.registry.pending().get(idx));
        assert_eq!(inner.server_stats.snapshot().irrevocable_grants, 1);

        // The grant is the verdict the client takes over the usual path.
        assert_eq!(withdraw_request(&inner, idx), Some(true));
        inner.release_irrevocable(idx);
        assert_eq!(inner.irrevocable_holder(), None);
        inner.registry.release(idx);
    }

    #[test]
    fn grant_rolls_back_when_client_withdrew() {
        let inner = inner_v1();
        let idx = inner.registry.claim().unwrap();
        let slot = inner.registry.slot(idx);
        slot.req.post(REQ_IRREVOCABLE);
        inner.registry.pending().set(idx);

        // Client hit its deadline and retracted before the server's
        // answer landed.
        assert_eq!(withdraw_request(&inner, idx), None);
        assert!(!try_grant_token(&inner, idx));
        assert_eq!(inner.irrevocable_holder(), None);
        assert_eq!(inner.server_stats.snapshot().irrevocable_grants, 0);
        inner.registry.release(idx);
    }

    #[test]
    fn token_request_prefers_priority_then_index() {
        let inner = inner_v1();
        let a = inner.registry.claim().unwrap();
        let b = inner.registry.claim().unwrap();
        for &i in &[a, b] {
            inner.registry.slot(i).req.post(REQ_IRREVOCABLE);
            inner.registry.pending().set(i);
        }
        // Equal rank: the lower index precedes.
        assert_eq!(token_request(&inner), Some(a.min(b)));
        // A strictly higher rank beats the index tiebreak.
        let hi = a.max(b);
        inner
            .registry
            .slot(hi)
            .token_rank
            .store(7, Ordering::SeqCst);
        assert_eq!(token_request(&inner), Some(hi));

        for &i in &[a, b] {
            inner.registry.slot(i).req.post(REQ_IDLE);
            inner.registry.pending().clear(i);
            inner.registry.release(i);
        }
    }

    #[test]
    fn drain_aborts_token_requests() {
        let inner = inner_v1();
        let idx = inner.registry.claim().unwrap();
        let slot = inner.registry.slot(idx);
        slot.req.post(REQ_IRREVOCABLE);
        inner.registry.pending().set(idx);

        drain_requests_abort(&inner);

        assert_eq!(slot.req.state(), REQ_ABORTED);
        assert!(!inner.registry.pending().get(idx));
        assert_eq!(inner.irrevocable_holder(), None);
        inner.registry.release(idx);
    }
}
