//! The discrete-event engine.
//!
//! Clients and servers are entities on a shared virtual clock. Every
//! client walks the same loop the real `rinval` crate executes —
//! non-transactional work → begin → reads (with per-read validation or
//! invalidation checks) → commit (global lock or commit-server mailbox) —
//! and every wait (lock queue, odd-timestamp window, server backlog,
//! invalidation catch-up) is resolved through the event queue, so queueing
//! effects and pipelining emerge from the protocol rather than from
//! closed-form formulas. Conflicts are sampled per committer/in-flight
//! pair from the workload's conflict probability, with bloom false
//! positives added for the invalidation family.

use crate::model::{SimAlgorithm, SimConfig, SimResult};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Deterministic RNG (same construction as `stamp::SplitMix`). `simcore`
/// has no dependencies and stays standalone, so it keeps its own copy of
/// the mix instead of calling `rinval::sync::mix64`.
struct Rng {
    state: u64,
}

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        ((self.next_u64() >> 11) as f64) / ((1u64 << 53) as f64) < p
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// The client's current phase completes at this instant.
    Client(usize),
    /// The commit-server re-examines its queue.
    ServerWake,
    /// The global lock is handed to this client.
    LockGrant(usize),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Finishing non-transactional work; next step begins a transaction.
    NonTx,
    /// `begin` bookkeeping completing.
    Begin,
    /// A transactional read completing.
    Read,
    /// Lock-based commit section completing.
    CommitSection,
    /// Waiting in the global-lock queue (no scheduled event; LockGrant).
    WaitLock,
    /// Waiting for the commit-server's response.
    WaitServer,
    /// Post-abort backoff completing.
    Backoff,
    /// Stopped (duration or commit budget exhausted).
    Done,
}

struct Client {
    phase: Phase,
    read_only: bool,
    tx_reads: u64,
    reads_done: u64,
    in_tx: bool,
    version_seen: u64,
    /// Virtual time at which this transaction's doom (invalidation flag or
    /// overwritten read) becomes observable; `u64::MAX` = not doomed.
    doomed_at: u64,
    /// When the current commit phase was entered (wait accounting).
    commit_enter: u64,
}

impl Client {
    fn new() -> Client {
        Client {
            phase: Phase::NonTx,
            read_only: false,
            tx_reads: 0,
            reads_done: 0,
            in_tx: false,
            version_seen: 0,
            doomed_at: u64::MAX,
            commit_enter: 0,
        }
    }
}

/// Per-client phase-time accumulators.
#[derive(Clone, Copy, Default)]
struct Acc {
    validation: u64,
    commit: u64,
    other: u64,
}

pub(crate) struct Engine<'a> {
    cfg: &'a SimConfig,
    slow: f64,
    events: BinaryHeap<Reverse<(u64, u64, Event)>>,
    seq: u64,
    now: u64,
    clients: Vec<Client>,
    accs: Vec<Acc>,
    rng: Rng,
    // Global protocol state.
    version: u64,
    lock_held: bool,
    lock_queue: VecDeque<usize>,
    /// Readers stall until this instant (odd timestamp / inval catch-up).
    read_block_until: u64,
    // Commit-server state (RInval family).
    server_queue: VecDeque<usize>,
    server_free_at: u64,
    inval_free_at: Vec<u64>,
    /// Completion times of the most recent commits' invalidation passes
    /// (bounded by steps_ahead + 1).
    inval_history: VecDeque<u64>,
    /// Earliest pending ServerWake event (u64::MAX = none): wake events
    /// are coalesced so the heap never accumulates redundant wakes.
    next_wake: u64,
    commits: u64,
    aborts: u64,
    last_commit_time: u64,
    /// Commits processed by invalidation-server 0 (stall injection).
    inval0_passes: u64,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(cfg: &'a SimConfig) -> Engine<'a> {
        Engine {
            cfg,
            slow: cfg.slowdown(),
            events: BinaryHeap::new(),
            seq: 0,
            now: 0,
            clients: (0..cfg.threads).map(|_| Client::new()).collect(),
            accs: vec![Acc::default(); cfg.threads],
            rng: Rng::new(cfg.seed),
            version: 0,
            lock_held: false,
            lock_queue: VecDeque::new(),
            read_block_until: 0,
            server_queue: VecDeque::new(),
            server_free_at: 0,
            inval_free_at: vec![0; cfg.algo.invalidators()],
            inval_history: VecDeque::new(),
            next_wake: u64::MAX,
            commits: 0,
            aborts: 0,
            last_commit_time: 0,
            inval0_passes: 0,
        }
    }

    #[inline]
    fn scaled(&self, cycles: u64) -> u64 {
        (cycles as f64 * self.slow) as u64
    }

    fn schedule(&mut self, at: u64, ev: Event) {
        self.seq += 1;
        self.events.push(Reverse((at, self.seq, ev)));
    }

    /// Schedules a commit-server wake-up at `at`, unless an earlier or
    /// equal wake is already pending (coalescing keeps the event heap
    /// linear in the number of requests).
    fn request_wake(&mut self, at: u64) {
        if self.next_wake <= at {
            return;
        }
        self.next_wake = at;
        self.schedule(at, Event::ServerWake);
    }

    fn is_remote(&self) -> bool {
        matches!(
            self.cfg.algo,
            SimAlgorithm::RInvalV1 | SimAlgorithm::RInvalV2 { .. } | SimAlgorithm::RInvalV3 { .. }
        )
    }

    /// Entry point: run to completion and report.
    pub(crate) fn run(mut self) -> SimResult {
        // Stagger client start so the first events don't collide.
        for tid in 0..self.cfg.threads {
            let jitter = self.rng.next_u64() % (self.cfg.workload.nontx.max(1) + 1);
            let c = self.scaled(self.cfg.workload.nontx + jitter);
            self.accs[tid].other += c;
            self.schedule(c, Event::Client(tid));
        }
        while let Some(Reverse((t, _, ev))) = self.events.pop() {
            self.now = t;
            match ev {
                Event::Client(tid) => self.client_event(tid),
                Event::ServerWake => {
                    self.next_wake = u64::MAX;
                    self.server_event();
                }
                Event::LockGrant(tid) => self.lock_granted(tid),
            }
        }
        let wall = if self.cfg.max_commits > 0 {
            self.last_commit_time.max(1)
        } else {
            self.cfg.duration_cycles.max(self.last_commit_time).max(1)
        };
        let mut r = SimResult {
            commits: self.commits,
            aborts: self.aborts,
            wall_cycles: wall,
            ..Default::default()
        };
        for a in &self.accs {
            r.validation_cycles += a.validation;
            r.commit_cycles += a.commit;
            r.other_cycles += a.other;
        }
        r
    }

    fn budget_exhausted(&self) -> bool {
        (self.cfg.max_commits > 0 && self.commits >= self.cfg.max_commits)
            || (self.cfg.max_commits == 0 && self.now >= self.cfg.duration_cycles)
    }

    fn client_event(&mut self, tid: usize) {
        match self.clients[tid].phase {
            Phase::NonTx | Phase::Backoff => self.begin_tx(tid),
            Phase::Begin => self.issue_read_or_commit(tid),
            Phase::Read => {
                self.clients[tid].reads_done += 1;
                self.issue_read_or_commit(tid);
            }
            Phase::CommitSection => self.lock_commit_finished(tid),
            Phase::WaitServer => self.server_response(tid),
            Phase::WaitLock | Phase::Done => {}
        }
    }

    fn begin_tx(&mut self, tid: usize) {
        if self.budget_exhausted() {
            self.clients[tid].phase = Phase::Done;
            return;
        }
        let w = &self.cfg.workload;
        let read_only = self.rng.chance(w.read_only_frac);
        let c = &mut self.clients[tid];
        c.read_only = read_only;
        c.tx_reads = w.reads;
        c.reads_done = 0;
        c.in_tx = true;
        c.version_seen = self.version;
        c.doomed_at = u64::MAX;
        c.phase = Phase::Begin;
        let cost = self.scaled(self.cfg.costs.begin);
        self.accs[tid].other += cost;
        self.schedule(self.now + cost, Event::Client(tid));
    }

    fn abort_at(&mut self, tid: usize, at: u64) {
        self.aborts += 1;
        let c = &mut self.clients[tid];
        c.in_tx = false;
        c.doomed_at = u64::MAX;
        c.phase = Phase::Backoff;
        // Randomized backoff in the order of a couple of cache misses.
        let back = self.cfg.costs.miss * (1 + self.rng.next_u64() % 4);
        let cost = self.scaled(back);
        self.accs[tid].other += cost;
        self.schedule(at + cost, Event::Client(tid));
    }

    fn issue_read_or_commit(&mut self, tid: usize) {
        if self.clients[tid].reads_done < self.clients[tid].tx_reads {
            self.issue_read(tid);
        } else {
            self.enter_commit(tid);
        }
    }

    fn issue_read(&mut self, tid: usize) {
        let costs = &self.cfg.costs;
        // Readers stall while a commit's write-back is in flight (odd
        // timestamp) and, under V2/V3, until their invalidation-server
        // caught up.
        let start = self.now.max(self.read_block_until);
        let wait = start - self.now;
        // Data access: big-structure probes miss the cache hierarchy.
        let data = (self.cfg.workload.data_miss_frac * costs.dram as f64
            + (1.0 - self.cfg.workload.data_miss_frac) * costs.hit as f64)
            as u64;
        let mut cost;
        match self.cfg.algo {
            SimAlgorithm::NOrec => {
                cost = costs.read_op + data + costs.log + costs.hit; // call + data + log + ts check
                let c = &self.clients[tid];
                if c.version_seen != self.version {
                    // Timestamp moved: incremental revalidation of every
                    // prior read — the quadratic term (paper §II).
                    cost += c.reads_done * costs.hit + costs.miss;
                    if c.doomed_at <= start {
                        let spent = self.scaled(wait + cost);
                        self.accs[tid].validation += spent;
                        self.abort_at(tid, self.now + spent);
                        return;
                    }
                    self.clients[tid].version_seen = self.version;
                }
            }
            _ => {
                // InvalSTM / RInval read: O(1) — data + bloom insert +
                // own-status check + ts check.
                cost = costs.read_op + data + costs.bloom_insert + costs.hit + costs.hit;
                if self.clients[tid].doomed_at <= start {
                    let spent = self.scaled(wait + costs.hit);
                    self.accs[tid].validation += spent;
                    self.abort_at(tid, self.now + spent);
                    return;
                }
            }
        }
        let total = self.scaled(wait + cost);
        self.accs[tid].validation += total;
        self.clients[tid].phase = Phase::Read;
        self.schedule(self.now + total, Event::Client(tid));
    }

    fn enter_commit(&mut self, tid: usize) {
        let costs = &self.cfg.costs;
        self.clients[tid].commit_enter = self.now;
        if self.clients[tid].read_only {
            // Read-only commit: local cleanup only, in every algorithm.
            let cost = self.scaled(costs.hit);
            self.accs[tid].commit += cost;
            self.commits += 1;
            self.last_commit_time = self.now + cost;
            self.complete_tx(tid, self.now + cost);
            return;
        }
        if self.is_remote() {
            // Pre-check own status, publish signature + write-set pointer,
            // post the request — all on the client's own cache lines.
            if self.clients[tid].doomed_at <= self.now {
                let cost = self.scaled(costs.hit);
                self.accs[tid].commit += cost;
                self.abort_at(tid, self.now + cost);
                return;
            }
            let publish = self.scaled(costs.hit * 2 + costs.log);
            self.accs[tid].commit += publish;
            self.clients[tid].phase = Phase::WaitServer;
            self.server_queue.push_back(tid);
            let at = (self.now + publish).max(self.server_free_at);
            self.request_wake(at);
        } else {
            // Global-lock path.
            if self.lock_held {
                self.clients[tid].phase = Phase::WaitLock;
                self.lock_queue.push_back(tid);
            } else {
                self.lock_held = true;
                let acquire = self.scaled(costs.cas + costs.miss);
                self.schedule(self.now + acquire, Event::LockGrant(tid));
            }
        }
    }

    /// The committer owns the global lock from here to `CommitSection`.
    fn lock_granted(&mut self, tid: usize) {
        let costs = self.cfg.costs.clone();
        let w = self.cfg.workload.clone();
        let waiters = self.lock_queue.len() as f64;
        // Spinning waiters hammer the lock line and slow the holder.
        let penalty = 1.0 + costs.spin_penalty * waiters;

        // Commit-time validation / status check under the lock.
        let doomed = self.clients[tid].doomed_at <= self.now;
        let mut dur;
        match self.cfg.algo {
            SimAlgorithm::NOrec => {
                // Value-based validation of the full read-set.
                let validate = self.clients[tid].tx_reads * costs.hit + costs.miss;
                if doomed {
                    let cost = self.scaled((validate as f64 * penalty) as u64);
                    self.accs[tid].commit += cost + (self.now - self.clients[tid].commit_enter);
                    self.release_lock(self.now + cost);
                    self.abort_at(tid, self.now + cost);
                    return;
                }
                dur = validate + w.writes * costs.miss + 2 * costs.miss;
            }
            _ => {
                // InvalSTM: own-status check, then invalidate every live
                // slot, then write back — all while holding the lock.
                if doomed {
                    let cost = self.scaled((costs.hit as f64 * penalty) as u64 + costs.miss);
                    self.accs[tid].commit += cost + (self.now - self.clients[tid].commit_enter);
                    self.release_lock(self.now + cost);
                    self.abort_at(tid, self.now + cost);
                    return;
                }
                // Only live (in-flight) transactions are scanned; idle
                // slots fail the is_live check at hit cost.
                let live = self.clients.iter().filter(|c| c.in_tx).count() as u64;
                let scan = live.saturating_sub(1) * costs.slot_scan
                    + (self.cfg.threads as u64 - live) * costs.hit;
                dur = scan + w.writes * costs.miss + 2 * costs.miss;
            }
        }
        dur = (dur as f64 * penalty) as u64;
        let dur = self.scaled(dur);
        let end = self.now + dur;

        // Sample which in-flight transactions this commit dooms.
        let p = match self.cfg.algo {
            SimAlgorithm::NOrec => w.conflict_prob,
            _ => w.inval_conflict_prob(),
        };
        let victims = self.sample_victims(tid, p);
        // Reader-bias policy: too many victims → the committer yields.
        if let Some(budget) = self.cfg.reader_bias {
            if !matches!(self.cfg.algo, SimAlgorithm::NOrec) && victims.len() as u32 > budget {
                let census = self.scaled((self.cfg.threads as u64) * self.cfg.costs.hit);
                self.accs[tid].commit += census + (self.now - self.clients[tid].commit_enter);
                self.release_lock(self.now + census);
                self.abort_at(tid, self.now + census);
                return;
            }
        }
        for other in victims {
            let c = &mut self.clients[other];
            c.doomed_at = c.doomed_at.min(end);
        }
        self.version += 1;
        self.read_block_until = self.read_block_until.max(end);
        self.accs[tid].commit += (self.now - self.clients[tid].commit_enter) + dur;
        self.clients[tid].phase = Phase::CommitSection;
        self.schedule(end, Event::Client(tid));
    }

    /// Samples the set of in-flight transactions doomed by `tid`'s commit.
    fn sample_victims(&mut self, tid: usize, p: f64) -> Vec<usize> {
        let mut out = Vec::new();
        for other in 0..self.clients.len() {
            if other != tid && self.clients[other].in_tx && self.rng.chance(p) {
                out.push(other);
            }
        }
        out
    }

    fn release_lock(&mut self, at: u64) {
        self.lock_held = false;
        if let Some(next) = self.lock_queue.pop_front() {
            self.lock_held = true;
            let acquire = self.scaled(self.cfg.costs.cas + self.cfg.costs.miss);
            self.schedule(at + acquire, Event::LockGrant(next));
        }
    }

    fn lock_commit_finished(&mut self, tid: usize) {
        self.commits += 1;
        self.last_commit_time = self.now;
        self.release_lock(self.now);
        self.complete_tx(tid, self.now);
    }

    /// Commit-server loop (all RInval variants).
    fn server_event(&mut self) {
        if self.now < self.server_free_at {
            self.request_wake(self.server_free_at);
            return;
        }
        let Some(tid) = self.server_queue.pop_front() else {
            return;
        };
        let costs = self.cfg.costs.clone();
        let w = self.cfg.workload.clone();
        let steps = self.cfg.algo.steps_ahead();
        let nk = self.cfg.algo.invalidators();

        // V2/V3: before touching the ring slot, wait until no
        // invalidation-server lags more than `steps` commits.
        let mut start = self.now;
        if nk > 0 && self.inval_history.len() > steps {
            let idx = self.inval_history.len() - 1 - steps;
            start = start.max(self.inval_history[idx]);
        }

        // Authoritative status check (requester's own invalidations have
        // been applied by `start` thanks to the catch-up above).
        if self.clients[tid].doomed_at <= start {
            let done = start + self.scaled(costs.miss + costs.hit);
            self.server_free_at = done;
            self.accs[tid].commit += done - self.clients[tid].commit_enter;
            self.clients[tid].phase = Phase::WaitServer;
            // Response: abort.
            self.clients[tid].doomed_at = 0; // make the response path abort
            self.schedule(done + self.scaled(costs.miss), Event::Client(tid));
            if !self.server_queue.is_empty() {
                self.request_wake(done);
            }
            return;
        }

        // Sample this commit's victims once; the reader-bias census and
        // the invalidation pass see the same intersections, like the real
        // protocol's two bloom scans over unchanged signatures.
        let victims = self.sample_victims(tid, w.inval_conflict_prob());
        // Reader-bias policy (paper §V future work): census before service.
        if let Some(budget) = self.cfg.reader_bias {
            if victims.len() as u32 > budget {
                let done = start + self.scaled(costs.miss + self.cfg.threads as u64 * costs.hit);
                self.server_free_at = done;
                self.accs[tid].commit += done - self.clients[tid].commit_enter;
                self.clients[tid].doomed_at = 0; // respond ABORTED
                self.schedule(done + self.scaled(costs.miss), Event::Client(tid));
                if !self.server_queue.is_empty() {
                    self.request_wake(done);
                }
                return;
            }
        }

        // Service time.
        let pickup = costs.miss + costs.hit; // request line + status
        let writeback = w.writes * costs.miss + 2 * costs.hit; // ts stores are server-local
        let mut inval_done = start;
        let dur;
        match self.cfg.algo {
            SimAlgorithm::RInvalV1 => {
                // Inline invalidation on the single server; only live
                // transactions pay the full signature scan.
                let live = self.clients.iter().filter(|c| c.in_tx).count() as u64;
                let scan = live.saturating_sub(1) * costs.slot_scan
                    + (self.cfg.threads as u64 - live) * costs.hit;
                dur = self.scaled(pickup + scan + writeback);
                inval_done = start + dur;
            }
            _ => {
                // V2/V3: hand the signature to the invalidation-servers and
                // overlap write-back with their scans.
                let copy = costs.miss * 4; // signature copy into the ring
                dur = self.scaled(pickup + copy + writeback);
                let live = self.clients.iter().filter(|c| c.in_tx).count() as u64;
                let per_server = live.div_ceil(nk as u64) * costs.slot_scan
                    + (self.cfg.threads as u64 - live).div_ceil(nk as u64) * costs.hit;
                self.inval0_passes += 1;
                let every = self.cfg.server_stall_every.max(1);
                for k in 0..self.inval_free_at.len() {
                    let stall = if k == 0 && self.inval0_passes.is_multiple_of(every) {
                        self.cfg.server_stall
                    } else {
                        0
                    };
                    let work = self.scaled(per_server + stall);
                    let d = self.inval_free_at[k].max(start) + work;
                    self.inval_free_at[k] = d;
                    inval_done = inval_done.max(d);
                }
                self.inval_history.push_back(inval_done);
                while self.inval_history.len() > steps + 2 {
                    self.inval_history.pop_front();
                }
            }
        }
        let end = start + dur;

        // Dooms become visible when the invalidation pass finishes.
        for other in victims {
            let c = &mut self.clients[other];
            c.doomed_at = c.doomed_at.min(inval_done);
        }
        self.version += 1;
        // Readers: blocked during write-back; under V2 also until the
        // invalidation pass completes (their server must catch up); under
        // V3 only until the (c - steps)-th pass completes.
        let reader_block = match self.cfg.algo {
            SimAlgorithm::RInvalV1 => end,
            SimAlgorithm::RInvalV2 { .. } => end.max(inval_done),
            SimAlgorithm::RInvalV3 { .. } => {
                let lag = self
                    .inval_history
                    .len()
                    .checked_sub(steps + 1)
                    .map(|i| self.inval_history[i])
                    .unwrap_or(start);
                end.max(lag)
            }
            _ => unreachable!(),
        };
        self.read_block_until = self.read_block_until.max(reader_block);

        self.server_free_at = end;
        self.commits += 1;
        self.last_commit_time = end;
        self.accs[tid].commit += end + self.scaled(costs.miss) - self.clients[tid].commit_enter;
        // Client observes COMMITTED one line-transfer later.
        self.clients[tid].doomed_at = u64::MAX;
        self.schedule(end + self.scaled(costs.miss), Event::Client(tid));
        if !self.server_queue.is_empty() {
            self.request_wake(end);
        }
    }

    /// Client wakes from `WaitServer`: the response arrived.
    fn server_response(&mut self, tid: usize) {
        if self.clients[tid].doomed_at == 0 {
            // Server answered ABORTED.
            self.abort_at(tid, self.now);
        } else {
            self.complete_tx(tid, self.now);
        }
    }

    /// Transaction finished (commit already counted by the caller);
    /// schedule the next non-transactional stretch.
    fn complete_tx(&mut self, tid: usize, at: u64) {
        let c = &mut self.clients[tid];
        c.in_tx = false;
        c.doomed_at = u64::MAX;
        if self.budget_exhausted() {
            self.clients[tid].phase = Phase::Done;
            return;
        }
        let cost = self.scaled(self.cfg.workload.nontx);
        self.accs[tid].other += cost;
        self.clients[tid].phase = Phase::NonTx;
        self.schedule(at + cost, Event::Client(tid));
    }
}

/// Runs one simulation.
pub fn simulate(cfg: &SimConfig) -> SimResult {
    Engine::new(cfg).run()
}
