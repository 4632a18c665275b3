//! Transaction execution: [`ThreadHandle`] (per-thread context with the
//! retry loop) and [`Txn`] (the in-flight transaction passed to closures).
//!
//! The per-operation logic lives in the `algo/*` engines; this module owns
//! the state that survives across retries (logs, contention manager,
//! stats) and the begin / run / commit / abort choreography shared by
//! every algorithm. The [`crate::AlgorithmKind`] is resolved exactly once
//! per attempt (`algo::with_algorithm!` in the one retry loop behind
//! [`ThreadHandle::run`], `run_ro`, `try_run` and `try_run_for`) — per
//! *attempt*, not per call, so a degraded instance re-resolves remote
//! kinds to their InvalSTM fallback between retries
//! (`StmInner::effective_algo`). From there the lifecycle dispatches
//! statically through `A: Algorithm` and the body-visible read goes
//! through the attempt's [`algo::OpTable`].
//!
//! ## Panic containment
//!
//! Every attempt — engine `begin`, the user body, engine `commit` — runs
//! under [`std::panic::catch_unwind`]. A panicking attempt is unwound like
//! an abort, but through the engine's `cleanup_panic` hook, which
//! additionally repairs any protocol state the panic interrupted
//! (releasing a held seqlock, withdrawing a posted commit request) before
//! the panic resumes. Combined with [`ThreadHandle`]'s `Drop` (which
//! withdraws requests and releases the registry slot even mid-unwind),
//! a panic in one transaction body never wedges other threads or leaks
//! registry state — the `Stm` remains fully usable (DESIGN.md §11).

use crate::algo::{self, Algorithm};
use crate::bloom::Bloom;
use crate::cm::ContentionManager;
use crate::faults;
use crate::heap::{Handle, HeapCache};
use crate::logs::{AllocLog, ValueReadSet, WriteSet};
use crate::stats::{PhaseStats, Probe, ServerCounters};
use crate::{Aborted, StmInner, TxError, TxResult};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Per-registered-thread transaction context.
///
/// Obtained from [`crate::Stm::register_thread`]; holds this thread's
/// registry slot, its reusable read/write logs and its accumulated
/// [`PhaseStats`]. Dropping the handle releases the slot for reuse.
pub struct ThreadHandle<'a> {
    pub(crate) stm: &'a StmInner,
    pub(crate) slot_idx: usize,
    /// This slot's invalidation-server cursor (RInval V2/MV), resolved
    /// once per handle; `None` without invalidation-servers.
    inval_cursor: Option<&'a AtomicU64>,
    cm: ContentionManager,
    rs: ValueReadSet,
    ws: WriteSet,
    wbf: Bloom,
    alog: AllocLog,
    cache: HeapCache,
    stats: PhaseStats,
}

impl<'a> ThreadHandle<'a> {
    pub(crate) fn new(stm: &'a StmInner, slot_idx: usize) -> ThreadHandle<'a> {
        ThreadHandle {
            stm,
            slot_idx,
            inval_cursor: stm
                .inval_ts
                .get(stm.inval_server_of(slot_idx))
                .map(|c| &**c),
            cm: ContentionManager::new(slot_idx as u64 + 1),
            rs: ValueReadSet::new(),
            ws: WriteSet::new(),
            wbf: Bloom::new(),
            alog: AllocLog::new(),
            // Seed the era cache from the live clock so the thread's first
            // transactions don't pin the horizon at 0 and block their own
            // recycling (one shared read per thread lifetime).
            cache: HeapCache::new_at(stm.heap.current_era()),
            stats: PhaseStats::default(),
        }
    }

    /// Index of this thread's registry slot (stable while the handle lives).
    pub fn slot(&self) -> usize {
        self.slot_idx
    }

    /// Accumulated phase statistics (meaningful when the STM was built with
    /// [`crate::StmBuilder::profile`]; commit/abort *counts* are always
    /// maintained).
    pub fn stats(&self) -> &PhaseStats {
        &self.stats
    }

    /// Takes and resets the accumulated statistics.
    pub fn take_stats(&mut self) -> PhaseStats {
        std::mem::take(&mut self.stats)
    }

    /// Runs `body` as a transaction, retrying on abort until it commits.
    /// Returns the committed attempt's result.
    ///
    /// The closure may run many times; side effects outside the STM must be
    /// idempotent. Within the closure, propagate [`Aborted`] with `?`.
    ///
    /// On every RInval kind the *first* attempt runs off the registry
    /// (DESIGN.md §14): reads are checked against a timestamp snapshot,
    /// with no read-signature store and no fence, and writes are buffered.
    /// The attempt registers in place (counted in
    /// [`crate::ServerStats::ro_promotions`]) only once it observes a
    /// commit, and continues on the paper's invalidation-checked path. A
    /// write-set still unregistered at commit is admitted if no commit
    /// landed since its snapshot, or if the values it read still hold;
    /// otherwise the commit-server refuses it (counted in
    /// [`crate::ServerStats::stale_refusals`]) and the attempt aborts.
    /// Every retry runs registered from its begin.
    pub fn run<T>(&mut self, mut body: impl FnMut(&mut Txn<'_>) -> TxResult<T>) -> T {
        match self.retry::<false, T>(&mut body, usize::MAX, None) {
            Ok(v) => v,
            Err(_) => unreachable!("an unbounded retry loop gave up"),
        }
    }

    /// Runs `body` as a *declared read-only* transaction.
    ///
    /// The write half of the machinery is skipped entirely: the write-set,
    /// write signature and allocation log are not re-armed per attempt,
    /// [`Txn::is_read_only`] is `true` throughout, and any call to
    /// [`Txn::write`], [`Txn::alloc`] or [`Txn::free`] inside the body
    /// panics (API misuse, not an abort). The engines differ in what the
    /// declaration buys (DESIGN.md §14):
    ///
    /// * [`crate::AlgorithmKind::RInvalMV`] routes every attempt to the
    ///   version-ring snapshot path — no registration, no validation and,
    ///   ring misses aside, no aborts; its begin waits out at most one
    ///   in-flight commit.
    /// * [`crate::AlgorithmKind::RInvalV1`] and `RInvalV2` behave like
    ///   [`ThreadHandle::run`]: the first attempt reads unregistered and
    ///   registers in place only once it observes a commit, and a retry
    ///   runs registered from its begin. The declaration only drops the
    ///   write-set lookup from those reads.
    /// * NOrec and InvalSTM — and degraded instances, which run InvalSTM —
    ///   behave like [`ThreadHandle::run`] with an empty write-set.
    pub fn run_ro<T>(&mut self, mut body: impl FnMut(&mut Txn<'_>) -> TxResult<T>) -> T {
        // One defensive scrub, not one per attempt: a preceding writing
        // transaction's logs are only cleared at its *next* attempt, so
        // they may still be populated here. After this, the declared-RO
        // write panics keep them empty across every retry.
        self.ws.clear();
        self.wbf.clear();
        self.alog.clear();
        match self.retry::<true, T>(&mut body, usize::MAX, None) {
            Ok(v) => v,
            Err(_) => unreachable!("an unbounded retry loop gave up"),
        }
    }

    /// Like [`ThreadHandle::run`] but gives up after `max_attempts` aborts.
    /// Attempts run off the registry exactly as in [`ThreadHandle::run`]
    /// while the abort streak is zero; the streak outlives a call that
    /// gave up, so the next call starts registered.
    pub fn try_run<T>(
        &mut self,
        max_attempts: usize,
        mut body: impl FnMut(&mut Txn<'_>) -> TxResult<T>,
    ) -> TxResult<T> {
        self.retry::<false, T>(&mut body, max_attempts, None)
            .map_err(|_| Aborted)
    }

    /// Like [`ThreadHandle::run`] but bounded in *time*: retries until the
    /// body commits or `timeout` elapses, then returns
    /// [`TxError::Timeout`].
    ///
    /// The deadline bounds every wait inside an attempt, not just the
    /// retry loop: spins on the global seqlock (begin/commit of the
    /// CAS-based engines), reads waiting out an in-flight commit or a
    /// lagging invalidation-server, and — under RInval — the wait for the
    /// commit-server's verdict, where an expired deadline *withdraws* the
    /// posted request (or takes the verdict if one raced in; a `COMMITTED`
    /// verdict at the deadline is returned as success, never dropped).
    /// Deadline checks ride the existing backoff escalation
    /// ([`crate::sync::SpinYield::is_yielding`]), so the contention-free
    /// fast path never reads the clock. Attempts run off the registry as
    /// in [`ThreadHandle::run`] while the abort streak is zero; a promotion
    /// revalidates under the same deadline.
    pub fn try_run_for<T>(
        &mut self,
        timeout: Duration,
        mut body: impl FnMut(&mut Txn<'_>) -> TxResult<T>,
    ) -> Result<T, TxError> {
        self.retry::<false, T>(&mut body, usize::MAX, Some(Instant::now() + timeout))
    }

    /// The one retry loop behind every entry point: up to `max_attempts`
    /// attempts (`usize::MAX` runs until a commit), each resolving the
    /// engine afresh, so a degradation takes effect on the next retry.
    /// `Err` is [`TxError::Timeout`] once `deadline` cut an attempt short
    /// or passed before one began, else [`TxError::Aborted`] after the
    /// last attempt.
    fn retry<const DECLARED_RO: bool, T>(
        &mut self,
        body: &mut impl FnMut(&mut Txn<'_>) -> TxResult<T>,
        max_attempts: usize,
        deadline: Option<Instant>,
    ) -> Result<T, TxError> {
        for _ in 0..max_attempts {
            // Fast-fail before the attempt: a deadline that has already
            // passed — a zero/expired budget handed down by a caller with
            // its own deadline — must not buy one more attempt's worth of
            // work.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                ServerCounters::add(&self.stm.server_stats.timeout_withdrawals, 1);
                return Err(TxError::Timeout);
            }
            // The one kind branch of the transaction path, once per
            // attempt: everything inside is monomorphized.
            let r = algo::with_algorithm!(self.stm.effective_algo(), declared_ro = DECLARED_RO, A => {
                self.attempt::<A, T>(body, deadline, DECLARED_RO)
            });
            match r {
                Ok(v) => return Ok(v),
                Err(true) => return Err(TxError::Timeout),
                Err(false) => {}
            }
        }
        Err(TxError::Aborted)
    }

    /// One transaction attempt of engine `A`: pin → begin → body → commit,
    /// with cleanup on every failure path — abort, deadline expiry and
    /// panic (see the module docs). The `Err` payload reports whether the
    /// attempt was cut short by the deadline.
    fn attempt<A: Algorithm, T>(
        &mut self,
        body: &mut impl FnMut(&mut Txn<'_>) -> TxResult<T>,
        deadline: Option<Instant>,
        declared_ro: bool,
    ) -> Result<T, bool> {
        let profile = self.stm.profile;
        let p_total = Probe::start(profile);
        self.rs.clear();
        if !declared_ro {
            // Declared-RO attempts skip the write-log re-arm entirely:
            // `run_ro` scrubbed the logs once on entry and the write-path
            // panics keep them empty across retries.
            self.ws.clear();
            self.wbf.clear();
            self.alog.clear();
        }

        let mut tx = Txn {
            stm: self.stm,
            slot_idx: self.slot_idx,
            snapshot: 0,
            version_base: 0,
            lock_held: false,
            registered: false,
            first: self.cm.streak() == 0,
            inval_cursor: self.inval_cursor,
            declared_ro,
            deadline,
            timed_out: false,
            ops: algo::OpTable::of::<A>(),
            rs: &mut self.rs,
            ws: &mut self.ws,
            wbf: &mut self.wbf,
            alog: &mut self.alog,
            cache: &mut self.cache,
            stats: &mut self.stats,
            profile,
        };
        // Irrevocable-mode escalation (DESIGN.md §13): once the abort
        // streak crosses the configured threshold, try to take the global
        // token before this attempt starts. Best-effort — on failure
        // (another holder, deadline) the attempt simply runs revocably and
        // retries acquisition next time. The token is held for exactly
        // this one attempt; every exit arm below releases it. The streak
        // is the request's rank in token arbitration; the request's post
        // publishes it.
        let it = self.stm.irrevocable_after;
        let want_token = it != u32::MAX && self.cm.streak() >= it;
        if want_token {
            self.stm
                .registry
                .slot(self.slot_idx)
                .token_rank
                .store(self.cm.streak(), Ordering::Relaxed);
            let _ = A::try_acquire_irrevocable(&mut tx);
        }
        A::pin(&mut tx);

        // The unwind boundary: engine begin, the user body and engine
        // commit all run inside it. `AssertUnwindSafe` is justified
        // because the `Err(payload)` arm below never *resumes* the
        // transaction — it repairs protocol state (`cleanup_panic`),
        // discards the attempt's logs and re-raises the panic.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            A::begin(&mut tx)?;
            tx.stm.faults.fire(faults::site::TXN_BODY_PANIC);
            body(&mut tx).and_then(|v| {
                // Commit-phase time includes spinning on the global lock
                // (NOrec / InvalSTM) or on the request slot (RInval) —
                // exactly the paper's "commit" bucket in Fig. 2/3.
                let p = Probe::start(profile);
                let lat = tx.stm.latency_histogram.then(Instant::now);
                let r = A::commit(&mut tx);
                if let (Some(t0), Ok(())) = (lat, &r) {
                    tx.stm
                        .server_stats
                        .record_latency_ns(t0.elapsed().as_nanos() as u64);
                }
                p.stop(&mut tx.stats.commit);
                r.map(|()| v)
            })
        }));
        match outcome {
            Ok(Ok(v)) => {
                A::cleanup(&mut tx);
                // The era stamp for this attempt's frees is taken here,
                // strictly after the commit is fully visible (under RInval
                // the server has already answered COMMITTED, so its
                // write-back is done).
                self.cache.commit(&self.stm.heap, &mut self.alog);
                self.stats.commits += 1;
                p_total.stop(&mut self.stats.total_tx);
                // The commit ends any irrevocable tenure.
                self.cm.on_commit();
                if want_token {
                    self.stm.release_irrevocable(self.slot_idx);
                }
                Ok(v)
            }
            Ok(Err(Aborted)) => {
                let p_abort = Probe::start(profile);
                A::cleanup(&mut tx);
                let timed_out = tx.timed_out;
                // A token holder can still reach this arm (user abort or
                // deadline — never a conflict); the token is tenured for
                // one attempt only, else a holder spinning in a
                // `user_abort` retry loop would block forever the very
                // committer whose write it is waiting to observe.
                if want_token {
                    self.stm.release_irrevocable(self.slot_idx);
                }
                // Surrender speculative allocations; drop pending frees.
                self.cache.abort(&mut self.alog);
                self.stats.aborts += 1;
                let expired = self.cm.on_abort_bounded(deadline);
                p_abort.stop(&mut self.stats.abort);
                p_total.stop(&mut self.stats.total_tx);
                Err(timed_out || expired)
            }
            Err(payload) => {
                // Repair what the panic interrupted (release a held
                // seqlock, withdraw a posted request, deregister the
                // slot), then account the attempt as aborted and let the
                // panic continue — `ThreadHandle::drop` handles the rest
                // of the unwind. The token must not survive the unwind
                // either: a dead holder would gate every other commit
                // forever.
                A::cleanup_panic(&mut tx);
                self.stm.release_irrevocable(self.slot_idx);
                self.cache.abort(&mut self.alog);
                self.stats.aborts += 1;
                self.cm.on_abort();
                panic::resume_unwind(payload)
            }
        }
    }
}

impl Drop for ThreadHandle<'_> {
    fn drop(&mut self) {
        // A drop mid-unwind may still have a commit request posted (a
        // panic can fire between the request's publication and its
        // verdict): retract it — or take the verdict — before this
        // handle's write-set buffer is freed, so no server ever
        // dereferences a dangling payload pointer.
        let _ = crate::server::withdraw_request(self.stm, self.slot_idx);
        // The withdrawal above may have *taken* a COMMITTED verdict on a
        // token request (a grant racing the drop); and a panic can unwind
        // a holder whose cleanup already ran. Either way the token must
        // not outlive the slot — a dead holder would gate every commit
        // forever. No-op unless this slot is the holder.
        self.stm.release_irrevocable(self.slot_idx);
        // Surrender the thread's free blocks and still-maturing retirees
        // to the heap's shared pool so other threads can recycle them.
        self.stm.heap.pool_flush(&mut self.cache);
        self.stm.registry.release(self.slot_idx);
    }
}

impl std::fmt::Debug for ThreadHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadHandle")
            .field("slot", &self.slot_idx)
            .field("algorithm", &self.stm.algo)
            .finish()
    }
}

/// An in-flight transaction. Created by [`ThreadHandle::run`] and passed to
/// the transaction body.
pub struct Txn<'t> {
    pub(crate) stm: &'t StmInner,
    pub(crate) slot_idx: usize,
    /// Sequence-lock snapshot (NOrec) or commit acquisition time.
    pub(crate) snapshot: u64,
    /// The heap's version base, loaded once by an MV declared reader's
    /// begin (stable for the whole attempt; `heap::VERSION_RING`). Unused
    /// by every other engine.
    pub(crate) version_base: u64,
    /// Whether this transaction currently owns the global seqlock (the
    /// NOrec / InvalSTM commit critical section). Gates the
    /// `cleanup_panic` seqlock repair.
    pub(crate) lock_held: bool,
    /// Whether this attempt is on the in-flight registry (`live` bit,
    /// `TX_ALIVE`): from its pin on InvalSTM and on an RInval retry, from
    /// its promotion on an unregistered first attempt
    /// ([`crate::algo::rinval::RInvalClient`]). Set only by
    /// `algo::registry_begin`; selects the RInval client's begin and read
    /// path, the admission tag of a posted write-set and the family's one
    /// cleanup (`algo::registry_end`).
    pub(crate) registered: bool,
    /// Whether this is the transaction's first attempt (abort streak 0):
    /// the RInval client then starts unregistered, and a retry registers
    /// from its pin.
    pub(crate) first: bool,
    /// The slot's invalidation-server cursor, which a registered RInval
    /// read waits on (Algorithm 3, line 28); `None` on V1 and on the
    /// serverless kinds. Copied from the handle, never recomputed per read.
    pub(crate) inval_cursor: Option<&'t AtomicU64>,
    /// Whether this attempt runs under [`ThreadHandle::run_ro`]: writes,
    /// allocs and frees panic, and [`Txn::is_read_only`] is `true` by
    /// declaration.
    pub(crate) declared_ro: bool,
    /// [`ThreadHandle::try_run_for`]'s attempt deadline; `None` runs
    /// unbounded.
    pub(crate) deadline: Option<Instant>,
    /// Set by [`Txn::deadline_expired`] when the deadline cut a wait
    /// short; read back by the retry loop to surface
    /// [`crate::TxError::Timeout`].
    pub(crate) timed_out: bool,
    /// This attempt's engine ops (installed once per attempt; see
    /// [`algo::OpTable`]).
    pub(crate) ops: algo::OpTable,
    pub(crate) rs: &'t mut ValueReadSet,
    pub(crate) ws: &'t mut WriteSet,
    /// Private write signature, published at commit.
    pub(crate) wbf: &'t mut Bloom,
    /// This attempt's speculative allocations and pending frees.
    pub(crate) alog: &'t mut AllocLog,
    /// The owning thread's heap cache (free bins + retire list).
    pub(crate) cache: &'t mut HeapCache,
    pub(crate) stats: &'t mut PhaseStats,
    pub(crate) profile: bool,
}

impl Txn<'_> {
    /// True once the attempt's deadline (if any) has passed; records the
    /// expiry so the retry loop reports [`crate::TxError::Timeout`].
    /// Callers check this only from already-yielding wait loops
    /// ([`crate::sync::SpinYield::is_yielding`]), keeping clock reads off
    /// the fast path.
    #[inline]
    pub(crate) fn deadline_expired(&mut self) -> bool {
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                self.timed_out = true;
                true
            }
            _ => false,
        }
    }

    /// Transactionally reads the word at `h`.
    #[inline]
    pub fn read(&mut self, h: Handle) -> TxResult<u64> {
        self.stats.reads += 1;
        let p = Probe::start(self.profile);
        let r = (self.ops.read)(self, h);
        p.stop(&mut self.stats.validation);
        r
    }

    /// Transactionally writes `v` to the word at `h`.
    ///
    /// The write is buffered until commit. On every engine an `h` outside
    /// the heap (a handle forged with [`Handle::from_word`]) is dropped at
    /// write-back, and the rest of the write-set commits.
    ///
    /// # Panics
    ///
    /// Inside [`ThreadHandle::run_ro`] — a declared read-only transaction
    /// must not write.
    #[inline]
    pub fn write(&mut self, h: Handle, v: u64) -> TxResult<()> {
        assert!(
            !self.declared_ro,
            "Txn::write inside ThreadHandle::run_ro (declared read-only)"
        );
        self.stats.writes += 1;
        let p = Probe::start(self.profile);
        // Every engine buffers lazily: the write-set holds the value and
        // the private signature gets one insertion per distinct address.
        // Nothing reaches the heap before the commit is admitted.
        if self.ws.insert(h, v) {
            self.wbf.insert(h.addr());
        }
        p.stop(&mut self.stats.write);
        Ok(())
    }

    /// Reads a word that is known to encode a [`Handle`] (a transactional
    /// pointer field).
    #[inline]
    pub fn read_handle(&mut self, h: Handle) -> TxResult<Handle> {
        Ok(Handle::from_word(self.read(h)?))
    }

    /// Allocates `n` zeroed words inside the transaction.
    ///
    /// The record is private until a pointer to it is published through a
    /// transactional [`Txn::write`], so it may be initialized with
    /// [`Txn::init`] without logging. The allocation is speculative: if
    /// this attempt aborts, the words are surrendered back to the thread's
    /// heap cache for reuse (no leak). Blocks come from the thread's free
    /// bins (recycled frees whose reclamation horizon has passed) before
    /// the heap's growable bump frontier is touched.
    pub fn alloc(&mut self, n: usize) -> TxResult<Handle> {
        assert!(
            !self.declared_ro,
            "Txn::alloc inside ThreadHandle::run_ro (declared read-only)"
        );
        if n == 0 {
            return Ok(Handle::NULL);
        }
        let stm = self.stm;
        if let Some(faults::FaultAction::Fail) = stm.faults.hit(faults::site::HEAP_ALLOC_FAIL) {
            // Simulated exhaustion takes the exact path real exhaustion
            // takes, so the fault matrix certifies that path's containment.
            panic!("rinval heap exhausted inside transaction");
        }
        match self.cache.alloc(&stm.heap, || stm.reclaim_horizon(), n) {
            Some(h) => {
                self.alog.allocs.push((h.addr(), n as u32));
                Ok(h)
            }
            None => panic!("rinval heap exhausted inside transaction"),
        }
    }

    /// Transactionally frees the `n`-word record at `h` (no-op for NULL).
    ///
    /// The free takes effect only if this attempt commits; on abort it is
    /// discarded. The caller must have unlinked every transactionally
    /// reachable pointer to the record *in this same transaction* (the
    /// usual `remove`-then-`free` pattern), so that after commit no new
    /// transaction can reach it. The words are recycled only once the
    /// reclamation horizon guarantees no in-flight reader can still
    /// observe them (see the `heap` module docs); retaining the handle
    /// across transactions after the free commits is a logic error, just
    /// like a dangling pointer.
    pub fn free(&mut self, h: Handle, n: usize) -> TxResult<()> {
        assert!(
            !self.declared_ro,
            "Txn::free inside ThreadHandle::run_ro (declared read-only)"
        );
        if h.is_null() || n == 0 {
            return Ok(());
        }
        self.alog.frees.push((h.addr(), n as u32));
        Ok(())
    }

    /// Initializes a field of a freshly allocated, still-private record
    /// without going through the write-set.
    ///
    /// Visibility is guaranteed because the publishing pointer write is
    /// ordered after these plain stores by the commit protocol's release
    /// edge. Must only be used on records allocated by this transaction.
    #[inline]
    pub fn init(&mut self, h: Handle, v: u64) {
        self.stm.heap.store(h, v);
    }

    /// Allocates and fully initializes a private record.
    pub fn alloc_init(&mut self, vals: &[u64]) -> TxResult<Handle> {
        let h = self.alloc(vals.len())?;
        for (i, &v) in vals.iter().enumerate() {
            self.init(h.field(i as u32), v);
        }
        Ok(h)
    }

    /// Aborts the current attempt; [`ThreadHandle::run`] will retry it.
    /// Useful for optimistic retry loops ("wait until a flag flips").
    pub fn user_abort<T>(&mut self) -> TxResult<T> {
        Err(Aborted)
    }

    /// Number of writes buffered so far.
    pub fn write_set_len(&self) -> usize {
        self.ws.len()
    }

    /// True if the transaction has not written anything yet — always true
    /// under [`ThreadHandle::run_ro`], whose declaration forbids writes.
    pub fn is_read_only(&self) -> bool {
        self.declared_ro || self.ws.is_empty()
    }
}

impl std::fmt::Debug for Txn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn")
            .field("slot", &self.slot_idx)
            .field("snapshot", &self.snapshot)
            .field("writes", &self.ws.len())
            .finish()
    }
}
