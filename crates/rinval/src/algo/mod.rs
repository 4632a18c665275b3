//! The engine layer: one monomorphized [`Algorithm`] implementation per
//! client protocol — four in all: NOrec, InvalSTM, the RInval client
//! (every V1 and V2 attempt and MV's writers; V1 is its zero-invalidator
//! case) and MV's declared reader.
//!
//! Each submodule implements one protocol's `begin` / `read` / `commit`
//! over the shared [`crate::txn::Txn`] state and exposes it as a type
//! implementing [`Algorithm`]. The transaction loop
//! ([`crate::txn::ThreadHandle`]) resolves [`crate::AlgorithmKind`] **once
//! per attempt** through [`with_algorithm!`] and then runs fully
//! monomorphized: lifecycle calls dispatch statically through
//! `A: Algorithm`, and the body-visible read (`Txn::read`) goes through
//! the per-attempt [`OpTable`] — there is no kind branch anywhere on the
//! per-access path. Writes are the same for every engine: `Txn::write`
//! buffers them itself. The RInval server side lives in
//! [`crate::server`].
//!
//! ## Sealing
//!
//! [`Algorithm`] requires the private [`sealed::Sealed`] supertrait, so
//! even if the trait were ever re-exported, downstream crates could not
//! implement it: the engines assume exclusive knowledge of the protocol
//! words in [`crate::StmInner`] (timestamp parity conventions, registry
//! slot states, request-slot handshakes), and a foreign implementation
//! could violate those invariants from safe code. Adding an algorithm
//! means adding a type *here*, implementing `Algorithm` (most
//! lifecycle hooks have correct defaults), and listing it in
//! [`with_algorithm!`] — one impl, not a match arm in every dispatcher.

pub(crate) mod invalstm;
pub(crate) mod mv;
pub(crate) mod norec;
pub(crate) mod rinval;

use crate::heap::Handle;
use crate::txn::Txn;
use crate::TxResult;
use std::sync::atomic::Ordering;

pub(crate) mod sealed {
    /// Private supertrait restricting [`super::Algorithm`] impls to this
    /// module tree.
    pub(crate) trait Sealed {}
}

/// One concurrency-control algorithm, monomorphized: every method takes
/// the shared [`Txn`] state and dispatches statically.
///
/// Every engine is deferred-update (redo-log): **no engine stores to a
/// published heap word before its commit is admitted; the only
/// in-transaction heap writers are [`crate::server::write_back`] — the
/// one write-back, which the commit-server, crash recovery and the
/// InvalSTM and NOrec commits all call — and `Txn::init` on unpublished
/// records.** An abort therefore has nothing to undo, and one
/// [`Algorithm::cleanup`] serves commit and abort alike. Nor can a commit
/// be torn: `write_back` bounds-checks every address and drops one
/// outside the heap.
///
/// The default methods encode the common era-pinning lifecycle (DESIGN.md
/// §9); each engine overrides only what differs. Writes are not a hook:
/// every engine buffers them the same way (`Txn::write`). Call order per
/// attempt:
///
/// 1. [`Algorithm::pin`] — pin the reclamation horizon;
/// 2. [`Algorithm::begin`] — snapshot acquisition;
/// 3. body: [`Algorithm::read`] (via [`OpTable`]) and buffered writes;
/// 4. [`Algorithm::commit`];
/// 5. [`Algorithm::cleanup`], whether the attempt committed or aborted.
pub(crate) trait Algorithm: sealed::Sealed + 'static {
    /// Pins the reclamation horizon for this attempt.
    ///
    /// Every algorithm must keep retired blocks from its start era out of
    /// circulation while it may hold handles to them. The default is the
    /// plain pin ([`crate::registry::Registry::pin_era`]) — a single
    /// uncontended `Release` store, keeping the fast algorithms' critical
    /// path free of shared-map traffic. MV overrides this with a fenced
    /// pin that also raises its declared-reader flag
    /// ([`crate::registry::Registry::begin_snapshot_reader`]); InvalSTM
    /// overrides it with the full [`registry_begin`] (which also publishes
    /// the slot in the `live` map and clears the read signature that
    /// committers/servers scan). The RInval client
    /// ([`rinval::RInvalClient`]) keeps the plain pin on a first attempt,
    /// running `registry_begin` only if it promotes, and takes the full
    /// begin on a retry.
    ///
    /// The pinned era is the thread's cached copy of the clock, not a
    /// fresh read — begins must not touch the era cache line, which every
    /// free-carrying commit bumps. Stale is safe: a lower pin only delays
    /// recycling (DESIGN.md §9).
    #[inline]
    fn pin(tx: &mut Txn<'_>) {
        tx.stm.registry.pin_era(tx.slot_idx, tx.cache.era_cache);
    }

    /// Starts a transaction attempt (snapshot acquisition). Runs after
    /// [`Algorithm::pin`]. Default: nothing — InvalSTM's begin, and a
    /// registered RInval attempt's, is entirely the registry work of `pin`.
    ///
    /// Fallible because a begin that *waits* (even-timestamp spins) must
    /// be able to give up when the attempt's deadline expires
    /// ([`crate::ThreadHandle::try_run_for`]); `Err` routes through
    /// [`Algorithm::cleanup`].
    #[inline]
    fn begin(_tx: &mut Txn<'_>) -> TxResult<()> {
        Ok(())
    }

    /// Transactionally reads the word at `h`.
    fn read(tx: &mut Txn<'_>, h: Handle) -> TxResult<u64>;

    /// Attempts to commit; `Ok` or `Err`, the caller then runs
    /// [`Algorithm::cleanup`].
    fn commit(tx: &mut Txn<'_>) -> TxResult<()>;

    /// End-of-attempt bookkeeping, after a commit and after an abort
    /// alike. Default: unpin the reclamation horizon; the invalidation
    /// family overrides with [`registry_end`], which additionally
    /// deregisters a registered attempt from the in-flight registry and
    /// withdraws the slot from the `live` summary map.
    #[inline]
    fn cleanup(tx: &mut Txn<'_>) {
        tx.stm.registry.unpin_era(tx.slot_idx);
    }

    /// Repairs shared protocol state after a panic unwound out of the
    /// body or the engine's own phases; runs exactly once on the unwind
    /// path (inside `catch_unwind`, before the panic resumes) so a
    /// panicking transaction cannot poison the STM for other threads.
    ///
    /// Default: the seqlock engines' repair (NOrec, InvalSTM), then
    /// [`Algorithm::cleanup`]. A panic between the commit CAS and the
    /// release store would strand the seqlock odd, wedging every other
    /// thread, so if `Txn::lock_held` says this thread owns it, release it
    /// with a version bump (exactly the aborted-commit release). Nothing
    /// was written back before the only panic window (the commit
    /// failpoint fires before write-back, and the write-back itself,
    /// [`crate::server::write_back`], cannot panic on a bad address), so
    /// the bump publishes no partial state. The RInval family, which can
    /// instead panic with a commit request posted to a server, overrides
    /// this to withdraw the request first.
    #[inline]
    fn cleanup_panic(tx: &mut Txn<'_>) {
        if tx.lock_held {
            tx.stm.timestamp.store(tx.snapshot + 2, Ordering::SeqCst);
            tx.lock_held = false;
        }
        Self::cleanup(tx);
    }

    /// Acquires the global irrevocable token for this thread's next
    /// attempt (DESIGN.md §13), returning whether the token is now held.
    /// Runs *before* [`Algorithm::pin`], outside the attempt proper.
    /// `false` means the attempt proceeds revocably — another transaction
    /// holds the token, or the deadline expired while draining — and
    /// acquisition is retried on later attempts while the abort streak
    /// persists. Default: [`seqlock_grant_token`], correct for every
    /// engine whose commits serialize through the global seqlock; the
    /// RInval family (server-granted) overrides it.
    #[inline]
    fn try_acquire_irrevocable(tx: &mut Txn<'_>) -> bool {
        seqlock_grant_token(tx)
    }
}

/// Seqlock-engine irrevocable-token grant — the default
/// [`Algorithm::try_acquire_irrevocable`]. Drains in-flight commits by
/// taking the odd phase of the global seqlock itself, then claims the
/// token word under it: while the timestamp is odd no other commit can be
/// mid-write-back, and every commit that starts after the release
/// observes the token and waits — so once granted, nothing already
/// admitted can doom the holder.
///
/// The odd-phase window here contains two plain stores and a CAS — no
/// user code — so it cannot deadlock readers spinning on parity.
#[inline]
pub(crate) fn seqlock_grant_token(tx: &mut Txn<'_>) -> bool {
    use crate::registry::NO_IRREVOCABLE_HOLDER;
    use crate::stats::ServerCounters;
    use crate::sync::SpinYield;

    let stm = tx.stm;
    let me = tx.slot_idx;
    match stm.irrevocable_holder() {
        Some(h) if h == me => return true,
        Some(_) => return false,
        None => {}
    }
    let mut bk = SpinYield::new();
    loop {
        if tx.deadline_expired() || stm.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        let t = stm.timestamp.load(Ordering::SeqCst);
        if t & 1 == 1 {
            bk.pause();
            continue;
        }
        if stm
            .timestamp
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            bk.pause();
            continue;
        }
        let got = stm
            .irrevocable
            .compare_exchange(
                NO_IRREVOCABLE_HOLDER,
                me,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok();
        stm.timestamp.store(t + 2, Ordering::SeqCst);
        if got {
            ServerCounters::add(&stm.server_stats.irrevocable_grants, 1);
        }
        return got;
    }
}

/// The per-attempt dispatch table for body-visible operations.
///
/// User transaction bodies are plain closures over `&mut Txn<'_>` — they
/// cannot be generic over the algorithm, so `Txn::read` cannot statically
/// name `A`. Instead each attempt installs this table of plain function
/// pointers (built per-`A` by [`OpTable::of`], a const fn, so the table
/// itself is a compile-time constant). A call through it is one indirect
/// jump to the already-monomorphized engine function — no kind
/// comparison, no branch tree.
#[derive(Clone, Copy)]
pub(crate) struct OpTable {
    /// [`Algorithm::read`] of the attempt's engine.
    pub(crate) read: fn(&mut Txn<'_>, Handle) -> TxResult<u64>,
}

impl OpTable {
    /// The op table of engine `A`.
    pub(crate) const fn of<A: Algorithm>() -> OpTable {
        OpTable { read: A::read }
    }
}

/// Full registry begin: InvalSTM's [`Algorithm::pin`] and an RInval
/// retry's, and the first step of `rinval::promote`. Marks the
/// attempt [`Txn::registered`], which selects its cleanup.
#[inline]
pub(crate) fn registry_begin(tx: &mut Txn<'_>) {
    tx.stm.registry.begin(tx.slot_idx, tx.cache.era_cache);
    tx.registered = true;
}

/// The invalidation family's [`Algorithm::cleanup`], one for every engine
/// that registers or may register: deregister from the in-flight registry
/// if the attempt registered, else just unpin (an RInval client attempt
/// that never promoted).
#[inline]
pub(crate) fn registry_end(tx: &mut Txn<'_>) {
    if tx.registered {
        tx.stm.registry.end(tx.slot_idx);
    } else {
        tx.stm.registry.unpin_era(tx.slot_idx);
    }
}

/// Resolves an [`crate::AlgorithmKind`] value to its engine type exactly
/// once, binding it as a type alias visible to the expression:
///
/// ```ignore
/// with_algorithm!(self.stm.algo, declared_ro = false, A => ...)
/// ```
///
/// This is the single place in the crate where the kind enum is matched
/// on the transaction path; everything the expression calls is
/// monomorphized for the bound engine. V1 and V2 — every attempt, first
/// or retry — run the one RInval client
/// ([`crate::algo::rinval::RInvalClient`]), and so do MV's attempts that
/// may write; whether an attempt is a first one and which
/// invalidation-server it waits on are runtime facts of its [`Txn`]. The
/// one input, `declared_ro` (the attempt runs under
/// [`crate::ThreadHandle::run_ro`]), routes MV's declared readers to the
/// version-ring [`crate::algo::mv::RInvalMV`]; on V1/V2 it only compiles
/// the client's write-set lookup out of its unregistered read, so it adds
/// no per-read branch.
macro_rules! with_algorithm {
    ($kind:expr, declared_ro = $ro:expr, $A:ident => $e:expr) => {
        match $kind {
            $crate::AlgorithmKind::NOrec => {
                type $A = $crate::algo::norec::NOrec;
                $e
            }
            $crate::AlgorithmKind::InvalStm => {
                type $A = $crate::algo::invalstm::InvalStm;
                $e
            }
            $crate::AlgorithmKind::RInvalV1 | $crate::AlgorithmKind::RInvalV2 { .. } => {
                if $ro {
                    type $A = $crate::algo::rinval::RInvalClient<true>;
                    $e
                } else {
                    type $A = $crate::algo::rinval::RInvalClient<false>;
                    $e
                }
            }
            $crate::AlgorithmKind::RInvalMV { .. } => {
                if $ro {
                    type $A = $crate::algo::mv::RInvalMV;
                    $e
                } else {
                    type $A = $crate::algo::rinval::RInvalClient<false>;
                    $e
                }
            }
        }
    };
}
pub(crate) use with_algorithm;
