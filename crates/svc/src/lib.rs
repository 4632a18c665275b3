//! # svc — a resilient transactional service front-end over `rinval`
//!
//! The layer where the paper's claim gets operational: remote invalidation
//! shortens the critical path *clients observe*, so this crate fronts the
//! transactional workloads as a thread-per-core service with the request
//! lifecycle a real deployment needs (DESIGN.md §16):
//!
//! * **Call slots** — one cache-aligned request slot per client id, the
//!   registry's hand-off (paper §IV, Fig. 5) again: the caller posts into
//!   its slot and waits on its own line, worker `client % workers` walks a
//!   bitmap of the slots posted to it, both wait through
//!   [`rinval::sync::Waiter`]. A client id has one call outstanding, so a
//!   worker's backlog is at most ⌈clients / workers⌉ by construction and
//!   nothing is allocated or queued per call.
//! * **Deadlines** — every request carries one; at the deadline the caller
//!   withdraws a request no worker has claimed and abandons one that is
//!   in a worker's hands, a worker fast-fails expired work when it claims
//!   it, and the transaction itself is bounded through
//!   [`rinval::ThreadHandle::try_run_for`].
//! * **Idempotent retries** — every write carries a per-client idempotency
//!   key (strictly increasing, starting at 1) checked against a
//!   *transactional* dedup window in the same transaction that applies the
//!   operation. A reply lost to a crash between commit and delivery is
//!   recovered by retrying the same key: the retry reads the recorded
//!   result instead of re-applying. Effects are exactly-once under every
//!   fault the service layer can inject.
//! * **SLO admission control** — when the windowed write p99 breaches the
//!   SLO, or the STM's commit queue (pending commit requests) says the
//!   servers are saturated, write traffic is shed first
//!   (`RetryAfter`); reads keep being served through
//!   [`rinval::ThreadHandle::run_ro`], so the service degrades to
//!   read-only instead of failing outright.
//! * **Supervision** — a worker killed by a panic (injected or real) is
//!   respawned; the slots survive (a request that died in the worker's
//!   hands is marked lost and freed by its caller), and in-flight
//!   committed-but-unacked operations are recovered by client retry
//!   through the dedup window.
//!
//! The failure drills run through the same deterministic failpoint table
//! as the engine (`rinval::faults`, sites `svc.enqueue`, `svc.worker.death`,
//! `svc.mailbox.pop`, `svc.reply.pre`), and [`loadgen`] closes the loop:
//! keyed clients, zipfian hot keys, bursty phases, a chaos controller, and
//! a ledger that proves zero lost and zero duplicated operations afterwards.

#![warn(missing_docs)]

mod slot;
mod stats;

pub mod bank;
pub mod chaos;
pub mod loadgen;
pub mod oracle;
pub mod travel;

pub use stats::SvcStats;

use rinval::faults::site;
use rinval::{FaultAction, Stm, TxError, TxResult, Txn};
use slot::{Claim, Slots};
use stats::{bump, Counters, WindowHist};
use std::sync::atomic::Ordering;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// Sentinel returned to a duplicate whose recorded result has already
/// rotated out of the dedup window: the operation *was* applied (exactly
/// once), but its value is forgotten. A closed-loop client never sees this
/// unless it retries a key older than `dedup_window` acknowledged
/// operations.
pub const STALE_DUPLICATE: u64 = u64::MAX;

/// One service request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Client identity; routes to worker `client % workers` and selects
    /// the dedup row. Must be `< SvcConfig::clients`.
    pub client: u64,
    /// Idempotency key: strictly increasing per client, starting at 1.
    /// Retries of the same logical operation reuse the same key.
    pub key: u64,
    /// Endpoint index into [`Workload::endpoints`].
    pub endpoint: u8,
    /// Endpoint-specific operands.
    pub args: [u64; 4],
}

/// Why a request did not produce a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SvcError {
    /// Load was shed (SLO breach or commit-queue backpressure, decided by
    /// the worker at the write gate): back off and retry the same key.
    RetryAfter,
    /// The deadline expired. The operation may or may not have committed —
    /// retrying the same key resolves which, exactly once.
    Timeout,
    /// The service is stopping.
    Shutdown,
}

/// One typed endpoint of a workload.
#[derive(Clone, Copy, Debug)]
pub struct EndpointDesc {
    /// Stable name (reports, bench smoke greps).
    pub name: &'static str,
    /// Write endpoints go through the dedup window and the admission
    /// gate; read endpoints are always served via `run_ro`.
    pub writes: bool,
}

/// A workload exposed through the service: a fixed endpoint table plus a
/// transactional implementation per direction.
///
/// `apply` runs inside the same transaction as the dedup-window update, so
/// its effects and the idempotency record commit atomically — the heart of
/// the exactly-once argument. It must therefore be free of side effects
/// outside the STM (the vincent_stm rule: side effects only after
/// verification — here, only *inside* the transaction).
pub trait Workload: Sync {
    /// The endpoint table; `Request::endpoint` indexes it.
    fn endpoints(&self) -> &'static [EndpointDesc];
    /// Executes a write endpoint; returns the value recorded in the dedup
    /// window and replied to the client.
    ///
    /// The value `u64::MAX` is reserved: the service returns it as
    /// [`STALE_DUPLICATE`], so an `apply` that produced it would make a
    /// real result indistinguishable from a rotated-out duplicate on the
    /// client. Encode endpoint-level sentinels below it (travel's
    /// `QUOTE_SOLD_OUT` is `u64::MAX - 1` for exactly this reason).
    fn apply(&self, tx: &mut Txn<'_>, req: &Request) -> TxResult<u64>;
    /// Executes a read endpoint. Must not write (enforced by `run_ro`).
    fn query(&self, tx: &mut Txn<'_>, req: &Request) -> TxResult<u64>;
    /// Quiescent conservation check over the workload's own state (called
    /// with no transactions in flight — after the service scope exits).
    /// The [`oracle`] runs it at the end of every episode; the default has
    /// nothing to check.
    fn verify(&self, _stm: &Stm) -> Result<(), String> {
        Ok(())
    }
}

/// Service deployment parameters.
#[derive(Clone, Debug)]
pub struct SvcConfig {
    /// Worker threads; client `c` is served by worker `c % workers`.
    pub workers: usize,
    /// Client-id space: one call slot and one dedup row per id. Each id
    /// has one call outstanding at a time (a second thread calling on the
    /// same id waits its turn).
    pub clients: u64,
    /// Dedup entries retained per client. Must cover the deepest retry a
    /// client can issue; closed-loop clients need only 1, the default
    /// leaves margin.
    pub dedup_window: usize,
    /// Write p99 SLO driving the admission gate.
    pub slo_p99: Duration,
    /// Observations per latency window (cached p99 refresh rate).
    pub hist_window: u64,
    /// Pending-commit-request threshold at or above which writes are shed
    /// — the stack's one backpressure gate (the STM itself never delays a
    /// `begin`).
    pub shed_pending: usize,
    /// How long a breached p99 window sheds before the signal goes stale
    /// and probe writes are re-admitted to re-measure.
    pub breach_ttl: Duration,
    /// **Chaos-canary test hook — never enable in a real deployment.**
    /// Skips the dedup window entirely: fresh and retried keys alike are
    /// applied (the per-client applied counter still ticks), so any
    /// client retry becomes a real duplicate and the ledger catches it.
    /// The inverted CI canary uses this to prove the chaos search can
    /// still detect a service whose exactly-once layer is broken.
    pub disable_dedup: bool,
}

impl Default for SvcConfig {
    fn default() -> SvcConfig {
        SvcConfig {
            workers: 4,
            clients: 64,
            dedup_window: 8,
            slo_p99: Duration::from_millis(5),
            hist_window: 64,
            shed_pending: 32,
            breach_ttl: Duration::from_millis(100),
            disable_dedup: false,
        }
    }
}

/// Dedup row layout: `[last_key, ops_applied, cursor, (key, val) × window]`.
const OFF_LAST_KEY: u32 = 0;
const OFF_APPLIED: u32 = 1;
const OFF_CURSOR: u32 = 2;
const OFF_ENTRIES: u32 = 3;

/// The transactional idempotency table: one row per client in STM words.
struct Dedup {
    base: rinval::Handle,
    row_words: u32,
    window: u32,
}

impl Dedup {
    fn new(stm: &Stm, clients: u64, window: usize) -> Dedup {
        // Handles index heap words with a u32, so the whole table must fit
        // one; checking here keeps `row` a plain multiply.
        let checked = || {
            let window = u32::try_from(window.max(1)).ok()?;
            let row_words = window.checked_mul(2)?.checked_add(OFF_ENTRIES)?;
            let words = u32::try_from(clients.checked_mul(row_words as u64)?).ok()?;
            Some((window, row_words, words))
        };
        let Some((window, row_words, words)) = checked() else {
            panic!(
                "svc: dedup table of {clients} clients x {window}-entry windows \
                 exceeds the u32 handle index space"
            )
        };
        Dedup {
            // `Stm::alloc` zeroes, which is exactly the empty-table
            // encoding (last_key 0 < every real key).
            base: stm.alloc(words as usize),
            row_words,
            window,
        }
    }

    fn row(&self, client: u64) -> rinval::Handle {
        // In range: `new` checked clients * row_words fits a u32.
        self.base.field((client * self.row_words as u64) as u32)
    }

    /// The transactional core of exactly-once: duplicate keys are answered
    /// from the window, fresh keys apply the operation and record its
    /// result in the same transaction.
    fn apply(
        &self,
        wl: &dyn Workload,
        tx: &mut Txn<'_>,
        req: &Request,
        faults: &rinval::FaultPlan,
        disable_dedup: bool,
    ) -> TxResult<(u64, bool)> {
        let row = self.row(req.client);
        if disable_dedup {
            // Canary hook (`SvcConfig::disable_dedup`): no window lookup,
            // no recording — every arrival applies, so retries duplicate
            // and the ledger (applied vs acked) flags it.
            let val = wl.apply(tx, req)?;
            let applied = tx.read(row.field(OFF_APPLIED))?;
            tx.write(row.field(OFF_APPLIED), applied + 1)?;
            return Ok((val, true));
        }
        let last = tx.read(row.field(OFF_LAST_KEY))?;
        if req.key <= last {
            // Keys are strictly increasing, so `key <= last` can only be a
            // retry. Never re-apply — find the recorded result.
            for i in 0..self.window {
                if tx.read(row.field(OFF_ENTRIES + 2 * i))? == req.key {
                    return Ok((tx.read(row.field(OFF_ENTRIES + 2 * i + 1))?, false));
                }
            }
            return Ok((STALE_DUPLICATE, false));
        }
        let val = wl.apply(tx, req)?;
        // `svc.dedup.rotate`: the workload's effects are staged but the
        // idempotency record is not yet written — a panic here aborts the
        // whole transaction (exactly-once must hold because *both* roll
        // back together), a delay stretches the window where a concurrent
        // commit can doom this transaction. Fires once per attempt, so
        // conflict retries draw fresh hits.
        faults.fire(site::SVC_DEDUP_ROTATE);
        let cursor = tx.read(row.field(OFF_CURSOR))?;
        let slot = (cursor % self.window as u64) as u32;
        tx.write(row.field(OFF_ENTRIES + 2 * slot), req.key)?;
        tx.write(row.field(OFF_ENTRIES + 2 * slot + 1), val)?;
        tx.write(row.field(OFF_CURSOR), cursor + 1)?;
        tx.write(row.field(OFF_LAST_KEY), req.key)?;
        let applied = tx.read(row.field(OFF_APPLIED))?;
        tx.write(row.field(OFF_APPLIED), applied + 1)?;
        Ok((val, true))
    }
}

/// Everything the workers, supervisor and front-end share.
struct Shared<'a> {
    stm: &'a Stm,
    workload: &'a dyn Workload,
    cfg: SvcConfig,
    endpoints: &'static [EndpointDesc],
    slots: Slots,
    hists: Vec<WindowHist>,
    counters: Counters,
    dedup: Dedup,
}

impl Shared<'_> {
    fn now_ns(&self) -> u64 {
        self.slots.epoch.elapsed().as_nanos() as u64
    }

    /// The shed decision (writes only), the one overload gate: recent
    /// write p99 over SLO, or the STM's commit queue at least
    /// `shed_pending` deep. Reads never consult this.
    fn should_shed_write(&self) -> bool {
        if self.stm.registry().pending().count_set() >= self.cfg.shed_pending {
            return true;
        }
        let slo = self.cfg.slo_p99.as_nanos() as u64;
        let ttl = self.cfg.breach_ttl.as_nanos() as u64;
        let now = self.now_ns();
        self.endpoints
            .iter()
            .zip(&self.hists)
            .any(|(ep, h)| ep.writes && h.breached(slo, now, ttl))
    }
}

/// Handle the `serve` closure uses to submit requests and read telemetry.
pub struct Frontend<'s, 'a> {
    shared: &'s Shared<'a>,
}

impl Frontend<'_, '_> {
    /// Submits one request and waits for its reply or `timeout`.
    ///
    /// Calls on one client id are served one at a time: a call that finds
    /// the id's slot busy (this client's previous, timed-out call still in
    /// a worker's hands, or another thread calling on the same id) waits
    /// its turn inside the same `timeout`.
    ///
    /// # Panics
    /// On an out-of-range endpoint or client id, or a zero idempotency
    /// key on a write endpoint (keys start at 1).
    pub fn call(&self, req: Request, timeout: Duration) -> Result<u64, SvcError> {
        let sh = self.shared;
        let ep = sh.endpoints[req.endpoint as usize];
        assert!(req.client < sh.cfg.clients, "svc: client id out of range");
        assert!(
            !ep.writes || req.key >= 1,
            "svc: write idempotency keys start at 1"
        );
        let deadline = Instant::now() + timeout;
        let out = match sh.stm.faults().fire(site::SVC_ENQUEUE) {
            Some(FaultAction::Fail) => {
                // Injected admission failure: looks exactly like load shed.
                bump(&sh.counters.enqueue_faults);
                return Err(SvcError::RetryAfter);
            }
            Some(FaultAction::Exit) => {
                // Accept-then-drop: the request vanishes after the client
                // believes it was submitted, so it can only time out.
                bump(&sh.counters.enqueue_drops);
                std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                Err(SvcError::Timeout)
            }
            _ => sh.slots.call(&req, deadline, &sh.counters),
        };
        if out == Err(SvcError::Timeout) {
            bump(&sh.counters.client_timeouts);
        }
        out
    }

    /// Service lifecycle counters.
    pub fn stats(&self) -> SvcStats {
        self.shared.counters.snapshot()
    }

    /// Operations ever applied for `client` — the service side of the
    /// exactly-once ledger. Quiescent read.
    pub fn applied_ops(&self, client: u64) -> u64 {
        let sh = self.shared;
        sh.stm.peek(sh.dedup.row(client).field(OFF_APPLIED))
    }

    /// Lifetime latency histogram and observation count for one endpoint.
    pub fn endpoint_latency(&self, endpoint: u8) -> ([u64; 32], u64) {
        let h = &self.shared.hists[endpoint as usize];
        (h.lifetime(), h.count())
    }

    /// The endpoint table being served.
    pub fn endpoints(&self) -> &'static [EndpointDesc] {
        self.shared.endpoints
    }

    /// True while the admission gate would shed a write right now.
    pub fn shedding_writes(&self) -> bool {
        self.shared.should_shed_write()
    }
}

/// Runs the service around `f`: workers and their supervisor start before
/// `f` is called with the [`Frontend`], and the service drains and joins
/// after `f` returns. Everything runs on scoped threads, so `stm`,
/// `workload` and `cfg` only need to outlive the call.
pub fn serve<R>(
    stm: &Stm,
    workload: &dyn Workload,
    cfg: &SvcConfig,
    f: impl FnOnce(&Frontend<'_, '_>) -> R,
) -> R {
    let endpoints = workload.endpoints();
    assert!(
        !endpoints.is_empty() && endpoints.len() <= u8::MAX as usize,
        "svc: endpoint table must fit a u8 index"
    );
    let cfg = cfg.clone();
    assert!(cfg.workers >= 1, "svc: at least one worker");
    let shared = Shared {
        stm,
        workload,
        endpoints,
        // Before the slots: an oversized client space must be refused, not
        // allocated for.
        dedup: Dedup::new(stm, cfg.clients, cfg.dedup_window),
        slots: Slots::new(cfg.clients, cfg.workers),
        hists: endpoints
            .iter()
            .map(|_| WindowHist::new(cfg.hist_window))
            .collect(),
        counters: Counters::default(),
        cfg,
    };
    std::thread::scope(|s| {
        let sh = &shared;
        let supervisor = s.spawn(move || supervise(s, sh));
        let out = {
            // Shutdown must be signalled even if `f` unwinds (a failed
            // test assertion, say): the supervisor loops until it sees the
            // flag, and `thread::scope` joins it before re-raising the
            // panic — without the guard that join never returns and the
            // panic becomes a hang.
            let _stop = ShutdownGuard(sh);
            f(&Frontend { shared: sh })
        };
        supervisor.join().expect("svc: supervisor panicked");
        out
    })
}

/// Sets the shutdown flag and wakes every worker on drop — including the
/// unwind path out of the `serve` closure.
struct ShutdownGuard<'s, 'a>(&'s Shared<'a>);

impl Drop for ShutdownGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.slots.shut_down(&self.0.counters);
    }
}

/// Owns the worker handles: joins the dead (containing their panics) and
/// respawns them while the service is up. Worker death is a *counted,
/// survivable* event — exactly-once is carried by the dedup window, not by
/// worker longevity.
fn supervise<'scope>(s: &'scope Scope<'scope, '_>, sh: &'scope Shared<'_>) {
    let spawn = |w: usize| s.spawn(move || worker(sh, w));
    let mut slots: Vec<Option<ScopedJoinHandle<'scope, ()>>> =
        (0..sh.cfg.workers).map(|w| Some(spawn(w))).collect();
    loop {
        let shutting_down = sh.slots.shutdown.load(Ordering::SeqCst);
        for (w, slot) in slots.iter_mut().enumerate() {
            let finished = slot.as_ref().is_some_and(|h| h.is_finished());
            if finished {
                // A worker returning before shutdown is a death either way:
                // Err = panic (unwind contained here), Ok = injected exit.
                let _ = slot.take().unwrap().join();
                if !shutting_down {
                    bump(&sh.counters.worker_deaths);
                    bump(&sh.counters.worker_respawns);
                    *slot = Some(spawn(w));
                }
            }
        }
        if shutting_down {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    for slot in &mut slots {
        if let Some(h) = slot.take() {
            let _ = h.join();
        }
    }
    // Workers are gone; anything still posted gets an honest Shutdown.
    for claim in sh.slots.claim_posted(&sh.counters) {
        claim.answer(Err(SvcError::Shutdown));
        bump(&sh.counters.shutdown_replies);
    }
}

/// One worker: owns a registered STM thread and serves the slots posted
/// to its seat until shutdown (or injected death).
fn worker(sh: &Shared<'_>, w: usize) {
    let mut th = sh.stm.register_thread();
    loop {
        if let Some(FaultAction::Exit) = sh.stm.faults().fire(site::SVC_WORKER_DEATH) {
            return;
        }
        let Some(claim) = sh.slots.claim_next(w, &sh.counters) else {
            return;
        };
        // `svc.mailbox.pop`: the request is claimed but not yet processed
        // — Exit kills the worker *with the request in hand* (the dropped
        // claim marks the slot lost; the client's only recovery is timeout
        // + retry through dedup), unlike `svc.worker.death`, which dies
        // empty-handed.
        if let Some(FaultAction::Exit) = sh.stm.faults().fire(site::SVC_MAILBOX_POP) {
            return;
        }
        process(sh, &mut th, claim);
    }
}

/// The request state machine past admission: expire → (read | shed →
/// execute) → reply. See DESIGN.md §16 for the full lifecycle diagram.
fn process(sh: &Shared<'_>, th: &mut rinval::ThreadHandle<'_>, claim: Claim<'_>) {
    let req = claim.req;
    let ep = sh.endpoints[req.endpoint as usize];
    let now = Instant::now();
    if now >= claim.deadline {
        // The client is leaving (its wait and this check share one
        // clock); answer Timeout without burning a transaction on it.
        bump(&sh.counters.expired_on_dequeue);
        return claim.answer(Err(SvcError::Timeout));
    }
    if !ep.writes {
        // Reads bypass the admission gate entirely: `run_ro` is the
        // degraded-mode path and must keep working under write shed.
        let started = Instant::now();
        let v = th.run_ro(|tx| sh.workload.query(tx, &req));
        sh.hists[req.endpoint as usize].record(started.elapsed(), sh.now_ns());
        bump(&sh.counters.executed_reads);
        return claim.answer(Ok(v));
    }
    if sh.should_shed_write() {
        bump(&sh.counters.shed_writes);
        return claim.answer(Err(SvcError::RetryAfter));
    }
    let started = Instant::now();
    let res = th.try_run_for(claim.deadline.saturating_duration_since(started), |tx| {
        sh.dedup
            .apply(sh.workload, tx, &req, sh.stm.faults(), sh.cfg.disable_dedup)
    });
    match res {
        Ok((val, fresh)) => {
            sh.hists[req.endpoint as usize].record(started.elapsed(), sh.now_ns());
            bump(&sh.counters.executed_writes);
            if !fresh {
                bump(&sh.counters.dedup_hits);
                if val == STALE_DUPLICATE {
                    bump(&sh.counters.stale_duplicates);
                }
            } else {
                // The commit is durable; the reply is not. This is the
                // window the `svc.reply.pre` drills target — recovery is
                // the client's retry hitting the dedup window above, which
                // is why the failpoint only fires on *fresh* applies
                // (dedup-hit replies are already the recovery path).
                if let Some(FaultAction::Exit) = sh.stm.faults().fire(site::SVC_REPLY_PRE) {
                    bump(&sh.counters.dropped_replies);
                    return; // the dropped claim marks the slot lost
                }
            }
            claim.answer(Ok(val));
        }
        Err(TxError::Timeout) => {
            bump(&sh.counters.exec_timeouts);
            claim.answer(Err(SvcError::Timeout));
        }
        // `try_run_for` retries aborts internally; an Aborted verdict can
        // only mean the instance is shutting down around us. Let the
        // client retry against whatever comes next.
        Err(TxError::Aborted) => claim.answer(Err(SvcError::RetryAfter)),
    }
}
