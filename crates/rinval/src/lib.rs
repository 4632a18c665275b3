//! # rinval — Remote Invalidation STM
//!
//! A word-based software transactional memory implementing the algorithms of
//! *"Remote Invalidation: Optimizing the Critical Path of Memory
//! Transactions"* (Hassan, Palmieri, Ravindran — IPDPS 2014), together with
//! the two baselines the paper evaluates against:
//!
//! | [`AlgorithmKind`] | Paper role |
//! |---|---|
//! | [`AlgorithmKind::NOrec`] | validation-based coarse-grained baseline (Dalessandro et al.) |
//! | [`AlgorithmKind::InvalStm`] | commit-time invalidation baseline (Gottschlich et al., Algorithm 1) |
//! | [`AlgorithmKind::RInvalV1`] | commit executed remotely on a dedicated commit-server (Algorithm 2) |
//! | [`AlgorithmKind::RInvalV2`] | + invalidation parallelized over invalidation-servers (Algorithm 3) |
//! | [`AlgorithmKind::RInvalMV`] | V2 + commit-server may run ahead of lagging invalidators (Algorithm 4) + per-word version ring: read-only transactions read a begin snapshot and never validate or abort; commits are versioned only while such a reader is in flight (§V read-mostly extension) |
//!
//! All five are deferred-update: writes are buffered in a redo log and
//! reach the heap only once the commit is admitted, so an abort has
//! nothing to undo.
//!
//! ## Quick start
//!
//! ```
//! use rinval::{AlgorithmKind, Stm};
//!
//! let stm = Stm::new(AlgorithmKind::RInvalV2 { invalidators: 2 });
//! let counter = stm.alloc_init(&[0]);
//!
//! std::thread::scope(|s| {
//!     for _ in 0..4 {
//!         s.spawn(|| {
//!             let mut th = stm.register_thread();
//!             for _ in 0..100 {
//!                 th.run(|tx| {
//!                     let v = tx.read(counter)?;
//!                     tx.write(counter, v + 1)
//!                 });
//!             }
//!         });
//!     }
//! });
//! assert_eq!(stm.peek(counter), 400);
//! ```
//!
//! ## Memory model
//!
//! The paper assumes sequential consistency (its footnote 6 inserts fences
//! "when necessary"). Here all timestamp, status and request-state accesses
//! use `SeqCst` and the seqlock data path uses the standard
//! relaxed-loads-between-fences recipe; each algorithm module documents the
//! orderings it relies on.

#![warn(missing_docs)]

pub mod bloom;
pub mod cm;
pub mod faults;
pub mod heap;
pub mod logs;
pub mod registry;
pub mod scan;
pub mod stats;
pub mod sync;
pub mod tvar;

mod algo;
mod server;
mod txn;

pub use faults::{FaultAction, FaultPlan, FiredHit, ProbFault};
pub use heap::{Handle, Heap, HeapStats};
pub use stats::{PhaseStats, ServerStats};
pub use tvar::{TVar, Word};
pub use txn::{ThreadHandle, Txn};

use bloom::AtomicBloom;
use registry::Registry;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use sync::{CachePadded, Heartbeat};

/// Error type signalling that the current transaction attempt must abort.
///
/// Returned by transactional operations when the transaction was invalidated
/// or failed validation; propagate it with `?` and [`ThreadHandle::run`]
/// will retry the closure. Also constructible by user code to request a
/// retry ([`Txn::user_abort`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Aborted;

impl std::fmt::Display for Aborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transaction aborted")
    }
}

impl std::error::Error for Aborted {}

/// Result of a transactional operation.
pub type TxResult<T> = Result<T, Aborted>;

/// Why a bounded transaction run ([`ThreadHandle::try_run_for`]) gave up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxError {
    /// The final attempt aborted (conflict / user abort) with no deadline
    /// pressure — indistinguishable from [`ThreadHandle::try_run`] failing.
    Aborted,
    /// The deadline expired: waits were cut short and any posted commit
    /// request was withdrawn (or its verdict taken — a `Timeout` is always
    /// a *non*-commit; a verdict of `COMMITTED` arriving at the deadline
    /// is returned as success instead).
    Timeout,
}

impl std::fmt::Display for TxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxError::Aborted => write!(f, "transaction aborted"),
            TxError::Timeout => write!(f, "transaction deadline expired"),
        }
    }
}

impl std::error::Error for TxError {}

/// Liveness supervision for the RInval server threads (see
/// [`StmBuilder::watchdog`] and DESIGN.md §11).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Poll period of the watchdog thread.
    pub interval: Duration,
    /// Consecutive silent polls of a busy seat before the server counts as
    /// stalled and the instance degrades (`interval × stall_checks` is the
    /// effective stall timeout).
    pub stall_checks: u32,
    /// Total server respawns across the instance's lifetime before a death
    /// degrades the instance instead.
    pub max_respawns: u32,
    /// Whether to spawn the watchdog at all. Disabled, a dead server means
    /// clients fall back to their own bounded-wait escapes only
    /// ([`ThreadHandle::try_run_for`]).
    pub enabled: bool,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            interval: Duration::from_millis(2),
            stall_checks: 250,
            max_respawns: 3,
            enabled: true,
        }
    }
}

/// Which concurrency-control algorithm an [`Stm`] instance runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgorithmKind {
    /// NOrec: lazy versioning, value-based incremental validation, single
    /// global sequence lock acquired at commit.
    NOrec,
    /// InvalSTM-style commit-time invalidation (paper Algorithm 1): the
    /// committer invalidates conflicting in-flight transactions under the
    /// global lock, so per-read validation is O(1).
    InvalStm,
    /// RInval version 1 (paper Algorithm 2): commit (including
    /// invalidation) executes on a dedicated commit-server thread; clients
    /// communicate through cache-aligned request slots and never CAS.
    RInvalV1,
    /// RInval version 2 (paper Algorithm 3): invalidation runs in parallel
    /// with write-back on `invalidators` dedicated server threads, each
    /// owning a partition of the transaction registry.
    RInvalV2 {
        /// Number of invalidation-server threads (paper uses 4–8 on 64 cores).
        invalidators: usize,
    },
    /// Multi-version RInval: Algorithm 4 for writers (V2, with the
    /// commit-server running up to `steps_ahead` commits ahead of lagging
    /// invalidation-servers) plus a per-word version ring written by the
    /// commit write-back, so declared read-only transactions
    /// ([`ThreadHandle::run_ro`]) read a consistent snapshot at their
    /// begin timestamp — they never validate, never abort, and never
    /// appear in invalidation scans. A transaction that may write runs its
    /// first attempt off the registry until it observes a commit, its
    /// retries registered.
    RInvalMV {
        /// Number of invalidation-server threads.
        invalidators: usize,
        /// How many commits the commit-server may outrun the slowest
        /// invalidation-server by.
        steps_ahead: usize,
    },
}

impl AlgorithmKind {
    /// The canonical names accepted by the [`std::str::FromStr`] impl, in
    /// declaration order — the single source for CLI help strings.
    pub const NAMES: [&'static str; 5] =
        ["norec", "invalstm", "rinval-v1", "rinval-v2", "rinval-mv"];

    /// Short stable name used in benchmark output (matches the paper's
    /// legends where applicable).
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmKind::NOrec => "norec",
            AlgorithmKind::InvalStm => "invalstm",
            AlgorithmKind::RInvalV1 => "rinval-v1",
            AlgorithmKind::RInvalV2 { .. } => "rinval-v2",
            AlgorithmKind::RInvalMV { .. } => "rinval-mv",
        }
    }

    /// Number of invalidation-server threads this algorithm spawns.
    pub fn invalidators(&self) -> usize {
        match *self {
            AlgorithmKind::RInvalV2 { invalidators } => invalidators.max(1),
            AlgorithmKind::RInvalMV { invalidators, .. } => invalidators.max(1),
            _ => 0,
        }
    }

    /// Number of commits the commit-server may run ahead (MV only).
    pub fn steps_ahead(&self) -> usize {
        match *self {
            AlgorithmKind::RInvalMV { steps_ahead, .. } => steps_ahead,
            _ => 0,
        }
    }

    /// True for the RInval family (which spawns a commit-server).
    pub fn is_remote(&self) -> bool {
        matches!(
            self,
            AlgorithmKind::RInvalV1
                | AlgorithmKind::RInvalV2 { .. }
                | AlgorithmKind::RInvalMV { .. }
        )
    }

    /// True for the multi-version kind (per-word version ring attached to
    /// the heap, snapshot read path available).
    pub fn is_multi_version(&self) -> bool {
        matches!(self, AlgorithmKind::RInvalMV { .. })
    }

    /// The algorithm line-up evaluated in the paper's figures
    /// (NOrec, InvalSTM, RInval-V1, RInval-V2 with 4 invalidators).
    pub fn paper_lineup() -> [AlgorithmKind; 4] {
        [
            AlgorithmKind::NOrec,
            AlgorithmKind::InvalStm,
            AlgorithmKind::RInvalV1,
            AlgorithmKind::RInvalV2 { invalidators: 4 },
        ]
    }

    /// Every engine, in [`AlgorithmKind::NAMES`] order, with the
    /// parameterized kinds at the given server geometry — the one list
    /// every "all engines" test, bench and chaos lineup draws from (and
    /// filters, where an engine legitimately differs), so a new engine
    /// enters all of them at once.
    pub fn all(invalidators: usize, steps_ahead: usize) -> [AlgorithmKind; 5] {
        [
            AlgorithmKind::NOrec,
            AlgorithmKind::InvalStm,
            AlgorithmKind::RInvalV1,
            AlgorithmKind::RInvalV2 { invalidators },
            AlgorithmKind::RInvalMV {
                invalidators,
                steps_ahead,
            },
        ]
    }
}

/// Error from parsing an [`AlgorithmKind`]; lists the accepted names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseAlgorithmKindError {
    input: String,
}

impl std::fmt::Display for ParseAlgorithmKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown algorithm '{}' (expected one of: {}; rinval-v2:<invalidators> and \
             rinval-mv:<invalidators>:<steps_ahead> set the server parameters)",
            self.input,
            AlgorithmKind::NAMES.join(", ")
        )
    }
}

impl std::error::Error for ParseAlgorithmKindError {}

/// Inverse of [`AlgorithmKind::name`]: parses the canonical names in
/// [`AlgorithmKind::NAMES`]. The parameterized kinds default to the
/// paper's configuration (`rinval-v2` → 4 invalidators, `rinval-mv` → 4
/// invalidators running 4 steps ahead) and accept explicit parameters as
/// colon-separated suffixes: `rinval-v2:8`, `rinval-mv:8:2` (at least one
/// invalidator).
impl std::str::FromStr for AlgorithmKind {
    type Err = ParseAlgorithmKindError;

    fn from_str(s: &str) -> Result<AlgorithmKind, ParseAlgorithmKindError> {
        let err = || ParseAlgorithmKindError { input: s.into() };
        let mut parts = s.split(':');
        let base = parts.next().unwrap_or_default();
        // At most two numeric parameters; anything unparsable is an error.
        let mut params = [None::<usize>; 2];
        for slot in params.iter_mut() {
            match parts.next() {
                None => break,
                Some(p) => *slot = Some(p.parse().map_err(|_| err())?),
            }
        }
        // `params[0]` is only ever the invalidator count, and a V2 with no
        // invalidation-server is V1: reject 0 rather than silently run one.
        if parts.next().is_some() || params[0] == Some(0) {
            return Err(err());
        }
        let bare = |kind: AlgorithmKind| {
            if params[0].is_some() {
                Err(err())
            } else {
                Ok(kind)
            }
        };
        match base {
            "norec" => bare(AlgorithmKind::NOrec),
            "invalstm" => bare(AlgorithmKind::InvalStm),
            "rinval-v1" => bare(AlgorithmKind::RInvalV1),
            "rinval-v2" => {
                if params[1].is_some() {
                    return Err(err());
                }
                Ok(AlgorithmKind::RInvalV2 {
                    invalidators: params[0].unwrap_or(4),
                })
            }
            "rinval-mv" => Ok(AlgorithmKind::RInvalMV {
                invalidators: params[0].unwrap_or(4),
                steps_ahead: params[1].unwrap_or(4),
            }),
            _ => Err(err()),
        }
    }
}

/// Shared state behind an [`Stm`]: heap, registry and the global protocol
/// words. Server threads hold an `Arc` of this.
pub(crate) struct StmInner {
    pub(crate) heap: Heap,
    pub(crate) registry: Registry,
    pub(crate) algo: AlgorithmKind,
    /// The global sequence-lock timestamp. Odd = a commit is in flight.
    /// Under RInval only the commit-server ever writes it.
    pub(crate) timestamp: CachePadded<AtomicU64>,
    /// Per-invalidation-server local timestamps (RInval V2/MV); each chases
    /// `timestamp` in increments of 2.
    pub(crate) inval_ts: Box<[CachePadded<AtomicU64>]>,
    /// Ring of commit write signatures handed from the commit-server to the
    /// invalidation-servers; commit number `c` uses slot `c % ring.len()`.
    /// Empty without invalidation-servers (V1 invalidates inline).
    pub(crate) commit_ring: Box<[AtomicBloom]>,
    /// Requester registry index for each ring slot, so invalidation-servers
    /// skip the committer itself (its reads always intersect its writes).
    pub(crate) commit_req: Box<[AtomicUsize]>,
    /// Algorithm 4's `num_steps_ahead` (MV only) in timestamp units (2 × commits).
    pub(crate) steps_ahead_ts: u64,
    pub(crate) shutdown: AtomicBool,
    /// One-way fault flag: set by the watchdog (or [`server::degrade`])
    /// when the server fleet is beyond repair. Remote engines resolve to
    /// InvalSTM from then on ([`StmInner::effective_algo`]); server loops
    /// observe it and exit.
    pub(crate) degraded: AtomicBool,
    /// Per-server-seat liveness beacons (seat 0 = commit-server, seat
    /// `1 + k` = invalidation-server `k`); empty for serverless kinds.
    pub(crate) health: Box<[Heartbeat]>,
    /// Deterministic failpoint table (zero-sized without the `failpoints`
    /// cargo feature).
    pub(crate) faults: faults::FaultPlan,
    pub(crate) watchdog: WatchdogConfig,
    pub(crate) profile: bool,
    /// Consecutive aborts of one transaction before it requests the
    /// global irrevocable token (DESIGN.md §13); `u32::MAX` = never.
    pub(crate) irrevocable_after: u32,
    /// Registry index of the transaction holding the global irrevocable
    /// token, or [`registry::NO_IRREVOCABLE_HOLDER`]. Granted by the
    /// commit-server (RInval) or under the seqlock (serverless engines);
    /// released by the holder's owner thread with a plain store.
    pub(crate) irrevocable: CachePadded<AtomicUsize>,
    /// Whether commit-latency observations are recorded into
    /// [`stats::ServerCounters::commit_latency`].
    pub(crate) latency_histogram: bool,
    /// Scan and protocol counters maintained by servers and clients.
    pub(crate) server_stats: stats::ServerCounters,
}

impl StmInner {
    /// Invalidation-server index responsible for registry slot `idx`:
    /// the paper's round-robin stripe (Algorithm 3, `i % K`).
    #[inline]
    pub(crate) fn inval_server_of(&self, idx: usize) -> usize {
        idx % self.inval_ts.len().max(1)
    }

    /// The algorithm attempts should run *now*: the configured one, unless
    /// the instance degraded — then the RInval kinds fall back to InvalSTM
    /// (same client read path and registry protocol, no servers needed).
    /// Resolved once per attempt, so a degradation mid-run takes effect on
    /// the next retry.
    #[inline]
    pub(crate) fn effective_algo(&self) -> AlgorithmKind {
        if self.algo.is_remote() && self.degraded.load(Ordering::SeqCst) {
            AlgorithmKind::InvalStm
        } else {
            self.algo
        }
    }

    /// The slot currently holding the global irrevocable token, if any.
    #[inline]
    pub(crate) fn irrevocable_holder(&self) -> Option<usize> {
        match self.irrevocable.load(Ordering::SeqCst) {
            registry::NO_IRREVOCABLE_HOLDER => None,
            idx => Some(idx),
        }
    }

    /// True while a slot *other than* `idx` holds the irrevocable token —
    /// the wait condition for every commit path.
    #[inline]
    pub(crate) fn token_held_by_other(&self, idx: usize) -> bool {
        let h = self.irrevocable.load(Ordering::SeqCst);
        h != registry::NO_IRREVOCABLE_HOLDER && h != idx
    }

    /// Releases the irrevocable token if slot `idx` holds it. Only the
    /// slot's owner thread calls this (commit, failed bounded run, unwind,
    /// handle teardown), so a conditional plain store suffices — between
    /// grant and release nothing else writes the word.
    pub(crate) fn release_irrevocable(&self, idx: usize) {
        if self.irrevocable.load(Ordering::SeqCst) == idx {
            self.irrevocable
                .store(registry::NO_IRREVOCABLE_HOLDER, Ordering::SeqCst);
            // Requests the commit-server held back for the holder's sake
            // are serviceable from here on.
            server::wake_seat(self, 0);
        }
    }

    /// The reclamation horizon: the minimum `start_era` over all in-flight
    /// transactions, or `u64::MAX` when none are in flight. A retired
    /// block whose era stamp is `<=` this value can no longer be observed
    /// by any in-flight transaction and may be recycled (DESIGN.md §9).
    ///
    /// Every algorithm pins its start era into its own slot at begin and
    /// resets it to `u64::MAX` at end, so the scan walks the whole slot
    /// array unconditionally — it runs only on the allocation slow path
    /// (per-thread bin miss), where O(max_threads) loads are noise.
    pub(crate) fn reclaim_horizon(&self) -> u64 {
        let mut horizon = u64::MAX;
        for (_, slot) in self.registry.iter() {
            horizon = horizon.min(slot.start_era.load(Ordering::SeqCst));
        }
        horizon
    }
}

/// Configures and builds an [`Stm`].
pub struct StmBuilder {
    algo: AlgorithmKind,
    heap_words: usize,
    max_threads: usize,
    profile: bool,
    irrevocable_after: u32,
    latency_histogram: bool,
    watchdog: WatchdogConfig,
    fault_seed: Option<u64>,
}

impl StmBuilder {
    /// *Initial* size of the transactional heap in 64-bit words (default
    /// `1 << 20`). The heap grows segment-by-segment past this on demand;
    /// it is a pre-materialization hint, not a capacity limit.
    pub fn heap_words(mut self, words: usize) -> Self {
        self.heap_words = words;
        self
    }

    /// Maximum concurrently registered client threads (default 64, like the
    /// paper's testbed core count).
    pub fn max_threads(mut self, n: usize) -> Self {
        self.max_threads = n;
        self
    }

    /// Enables per-phase timing (validation / commit / abort buckets) at the
    /// cost of two clock reads per transactional operation. Required by the
    /// measured phase shares (the ledger's `phase.*_share` rows,
    /// `stamp_runner --phases`); off by default.
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Consecutive aborts of one transaction before it requests the
    /// global irrevocable token (default 32; `u32::MAX` = never). The one
    /// contention-management knob: the committer always wins, as in the
    /// paper, and the token alone bounds how often a transaction can lose
    /// (DESIGN.md §13).
    pub fn irrevocable_after(mut self, aborts: u32) -> Self {
        self.irrevocable_after = aborts;
        self
    }

    /// Enables the log₂ commit-latency histogram
    /// ([`ServerStats::commit_latency`]) at the cost of two clock reads
    /// per *commit* (not per operation, unlike [`StmBuilder::profile`]).
    /// Off by default.
    pub fn latency_histogram(mut self, on: bool) -> Self {
        self.latency_histogram = on;
        self
    }

    /// Server-liveness supervision parameters (defaults: 2 ms poll, 500 ms
    /// stall timeout, 3 respawns). Ignored by serverless algorithms.
    pub fn watchdog(mut self, cfg: WatchdogConfig) -> Self {
        self.watchdog = cfg;
        self
    }

    /// Seeds the fault plan's per-site draw streams (and resets its
    /// journal) before any server thread spawns, making a chaos episode a
    /// pure function of `(seed, plan, workload)` — see DESIGN.md §17. A
    /// no-op without the `failpoints` feature.
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = Some(seed);
        self
    }

    /// Builds the shared state without spawning any threads — the unit
    /// tests drive server/recovery code on it directly.
    pub(crate) fn build_inner(self) -> Arc<StmInner> {
        let invalidators = self.algo.invalidators();
        let ring_len = if invalidators == 0 {
            0
        } else {
            self.algo.steps_ahead() + 1
        };
        let faults = faults::FaultPlan::new();
        faults.arm_from_env();
        if let Some(seed) = self.fault_seed {
            faults.set_seed(seed);
        }
        let mut heap = Heap::new(self.heap_words);
        if self.algo.is_multi_version() {
            heap.enable_versions();
        }
        Arc::new(StmInner {
            heap,
            registry: Registry::new(self.max_threads),
            algo: self.algo,
            timestamp: CachePadded::new(AtomicU64::new(0)),
            inval_ts: (0..invalidators)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            commit_ring: (0..ring_len).map(|_| AtomicBloom::new()).collect(),
            commit_req: (0..ring_len)
                .map(|_| AtomicUsize::new(usize::MAX))
                .collect(),
            steps_ahead_ts: self.algo.steps_ahead() as u64 * 2,
            shutdown: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            health: (0..if self.algo.is_remote() {
                1 + invalidators
            } else {
                0
            })
                .map(|_| Heartbeat::default())
                .collect(),
            faults,
            watchdog: self.watchdog,
            profile: self.profile,
            irrevocable_after: self.irrevocable_after,
            irrevocable: CachePadded::new(AtomicUsize::new(registry::NO_IRREVOCABLE_HOLDER)),
            latency_histogram: self.latency_histogram,
            server_stats: stats::ServerCounters::default(),
        })
    }

    /// Builds the STM and spawns its server threads (if the algorithm is
    /// remote) plus the watchdog supervising them (if enabled).
    pub fn build(self) -> Stm {
        let algo = self.algo;
        let watchdog_cfg = self.watchdog;
        let inner = self.build_inner();

        let mut servers: Vec<JoinHandle<()>> = Vec::new();
        if algo.is_remote() {
            servers.push(
                server::spawn_server(&inner, server::ServerRole::Commit)
                    .expect("spawn commit-server"),
            );
            for k in 0..algo.invalidators() {
                servers.push(
                    server::spawn_server(&inner, server::ServerRole::Inval(k))
                        .expect("spawn invalidation-server"),
                );
            }
            if watchdog_cfg.enabled {
                let i = Arc::clone(&inner);
                servers.push(
                    std::thread::Builder::new()
                        .name("rinval-watchdog".into())
                        .spawn(move || server::watchdog(i))
                        .expect("spawn watchdog"),
                );
            }
        }

        Stm { inner, servers }
    }
}

/// A software transactional memory instance: heap + algorithm + (for the
/// RInval family) its server threads.
///
/// Threads participate by calling [`Stm::register_thread`]; the returned
/// [`ThreadHandle`] borrows the `Stm`, so all transactional work is
/// guaranteed to finish before the `Stm` (and its servers) shut down.
pub struct Stm {
    inner: Arc<StmInner>,
    servers: Vec<JoinHandle<()>>,
}

impl Stm {
    /// Builder with explicit configuration.
    pub fn builder(algo: AlgorithmKind) -> StmBuilder {
        StmBuilder {
            algo,
            heap_words: 1 << 20,
            max_threads: 64,
            profile: false,
            irrevocable_after: 32,
            latency_histogram: false,
            watchdog: WatchdogConfig::default(),
            fault_seed: None,
        }
    }

    /// An STM with default configuration (1 Mi-word heap, 64 thread slots).
    pub fn new(algo: AlgorithmKind) -> Stm {
        Stm::builder(algo).build()
    }

    /// The algorithm this instance runs.
    pub fn algorithm(&self) -> AlgorithmKind {
        self.inner.algo
    }

    /// Registers the calling thread, claiming a registry slot.
    ///
    /// # Panics
    /// If more than `max_threads` handles are alive at once.
    pub fn register_thread(&self) -> ThreadHandle<'_> {
        let slot = self
            .inner
            .registry
            .claim()
            .expect("Stm: max_threads exceeded; raise StmBuilder::max_threads");
        ThreadHandle::new(&self.inner, slot)
    }

    /// Non-transactional allocation of `n` zeroed words, for building the
    /// initial state before threads start.
    ///
    /// # Panics
    /// If the heap is exhausted.
    pub fn alloc(&self, n: usize) -> Handle {
        self.inner.heap.alloc(n).expect("rinval heap exhausted")
    }

    /// Allocates and initializes a record non-transactionally.
    pub fn alloc_init(&self, vals: &[u64]) -> Handle {
        let h = self.alloc(vals.len());
        for (i, &v) in vals.iter().enumerate() {
            self.inner.heap.store(h.field(i as u32), v);
        }
        h
    }

    /// Non-transactional read, for quiescent verification (no transactions
    /// running) or debugging. Not opaque.
    pub fn peek(&self, h: Handle) -> u64 {
        // Pair with any in-flight commit's release of the seqlock so that a
        // quiescent observer sees completed write-backs.
        self.inner.timestamp.load(Ordering::SeqCst);
        self.inner.heap.load(h)
    }

    /// Non-transactional write, for setup phases only.
    pub fn poke(&self, h: Handle, v: u64) {
        self.inner.heap.store(h, v);
    }

    /// Current value of the global timestamp (diagnostics; equals 2 × the
    /// number of write-transactions committed so far).
    pub fn timestamp(&self) -> u64 {
        self.inner.timestamp.load(Ordering::SeqCst)
    }

    /// Current cursor of each invalidation-server (diagnostics; empty for
    /// kinds without them): every commit below `inval_timestamps()[k]` has
    /// been scanned by server `k` or retired on its behalf.
    pub fn inval_timestamps(&self) -> Vec<u64> {
        self.inner
            .inval_ts
            .iter()
            .map(|ts| ts.load(Ordering::SeqCst))
            .collect()
    }

    /// Words allocated from the heap's bump frontier so far (the arena's
    /// peak footprint; recycled allocations do not advance it).
    pub fn heap_allocated(&self) -> usize {
        self.inner.heap.allocated()
    }

    /// Snapshot of the heap's allocation telemetry: words allocated /
    /// freed / recycled, live segments and reserved backing memory.
    pub fn heap_stats(&self) -> HeapStats {
        self.inner.heap.stats()
    }

    /// Snapshot of the server-side counters (slots visited per pass, empty
    /// passes, dooms, recovery events). Under RInval these are maintained
    /// by the server threads; under InvalSTM the committing clients
    /// maintain the invalidation-scan counters.
    pub fn server_stats(&self) -> ServerStats {
        self.inner.server_stats.snapshot()
    }

    /// Number of registry slots (`max_threads` at construction) — the
    /// denominator for comparing [`Stm::server_stats`] against a
    /// full-registry walk.
    pub fn registry_len(&self) -> usize {
        self.inner.registry.len()
    }

    /// The in-flight transaction registry (slot states and the
    /// pending/live summary maps), for diagnostics and invariant checks.
    /// Mutating slot state through this reference is outside the
    /// protocol's contract.
    pub fn registry(&self) -> &registry::Registry {
        &self.inner.registry
    }

    /// True once the instance has permanently fallen back to serverless
    /// operation (RInval kinds run as InvalSTM) after unrecoverable server
    /// faults. See [`WatchdogConfig`] and DESIGN.md §11.
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::SeqCst)
    }

    /// Registry slot currently holding the global irrevocable token, if
    /// any (diagnostics; `None` in quiescence — a leaked holder is a bug).
    pub fn irrevocable_holder(&self) -> Option<usize> {
        self.inner.irrevocable_holder()
    }

    /// This instance's failpoint table, for arming deterministic faults in
    /// tests (a no-op shell unless the crate was built with the
    /// `failpoints` feature).
    pub fn faults(&self) -> &faults::FaultPlan {
        &self.inner.faults
    }
}

impl Drop for Stm {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        server::wake_all(&self.inner);
        for s in self.servers.drain(..) {
            let _ = s.join();
        }
        if self.inner.algo.is_remote() {
            // No server answered these and none ever will: complete or
            // resolve anything a dead server left claimed, then abort the
            // rest, so a client that somehow still waits (a leaked handle
            // on another thread) is released rather than hung. With the
            // servers joined, this thread is the sole protocol writer.
            server::recover_inflight(&self.inner);
            server::drain_requests_abort(&self.inner);
        }
    }
}

impl std::fmt::Debug for Stm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stm")
            .field("algorithm", &self.inner.algo)
            .field("heap", &self.inner.heap)
            .field("servers", &self.servers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `field`'s byte span inside `owner`, as `(offset, len)`.
    pub(crate) fn span<O, F>(owner: &O, field: &F) -> (usize, usize) {
        let off = field as *const F as usize - owner as *const O as usize;
        (off, std::mem::size_of_val(field).max(1))
    }

    /// True if two spans of one 128-aligned owner touch a common
    /// cache-line pair.
    pub(crate) fn share_a_pair((a, la): (usize, usize), (b, lb): (usize, usize)) -> bool {
        a / 128 <= (b + lb - 1) / 128 && b / 128 <= (a + la - 1) / 128
    }

    /// The words every attempt or server pass reads (the kind, the
    /// degradation and shutdown flags, the registry's pointers, the
    /// per-attempt switches) share no line pair with a word written per
    /// commit — the timestamp, the counters, the token words, the heap.
    #[test]
    fn hot_read_words_share_no_line_pair_with_a_per_commit_writer() {
        let stm = Stm::builder(AlgorithmKind::RInvalV2 { invalidators: 2 }).build_inner();
        let s = &*stm;
        assert_eq!(std::mem::align_of::<StmInner>(), 128);
        let read = [
            ("algo", span(s, &s.algo)),
            ("shutdown", span(s, &s.shutdown)),
            ("degraded", span(s, &s.degraded)),
            ("registry", span(s, &s.registry)),
            ("inval_ts", span(s, &s.inval_ts)),
            ("steps_ahead_ts", span(s, &s.steps_ahead_ts)),
            ("profile", span(s, &s.profile)),
            ("irrevocable_after", span(s, &s.irrevocable_after)),
            ("latency_histogram", span(s, &s.latency_histogram)),
        ];
        let written = [
            ("timestamp", span(s, &s.timestamp)),
            ("irrevocable", span(s, &s.irrevocable)),
            ("server_stats", span(s, &s.server_stats)),
            ("heap", span(s, &s.heap)),
        ];
        for (r, rs) in read {
            for (w, ws) in written {
                assert!(
                    !share_a_pair(rs, ws),
                    "{r} {rs:?} shares a line pair with {w} {ws:?}"
                );
            }
        }
    }

    /// A degraded remote instance runs InvalSTM, whose reads must not wait
    /// on the dead invalidation-servers' cursors: they froze at
    /// degradation, so a read that checked them would abort on every
    /// attempt once a commit moved the timestamp past them.
    #[test]
    fn degraded_instances_read_past_the_frozen_cursors() {
        const PER_THREAD: u64 = 500;
        for kind in [
            AlgorithmKind::RInvalV2 { invalidators: 2 },
            AlgorithmKind::RInvalMV {
                invalidators: 2,
                steps_ahead: 2,
            },
        ] {
            let stm = Stm::new(kind);
            server::degrade(&stm.inner);
            let ctr = stm.alloc_init(&[0]);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let mut th = stm.register_thread();
                        for _ in 0..PER_THREAD {
                            let r = th.try_run_for(std::time::Duration::from_secs(10), |tx| {
                                let v = tx.read(ctr)?;
                                tx.write(ctr, v + 1)
                            });
                            assert_eq!(r, Ok(()), "{kind:?}: degraded increment");
                        }
                    });
                }
            });
            let mut th = stm.register_thread();
            assert_eq!(th.run_ro(|tx| tx.read(ctr)), 2 * PER_THREAD, "{kind:?}");
        }
    }
}
