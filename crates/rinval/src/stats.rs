//! Critical-path phase accounting.
//!
//! Figures 2 and 3 of the paper break transaction execution time into
//! *validation* (inside reads), *commit* (lock acquisition + invalidation +
//! write-back, or waiting for the commit-server) and *other* (everything
//! else, dominated by non-transactional work). [`PhaseStats`] accumulates
//! exactly those buckets per thread; the figure harness sums them across
//! threads and normalizes, reproducing the paper's stacked bars.
//!
//! Profiling is opt-in ([`crate::StmBuilder::profile`]) because two
//! `Instant::now()` calls per read would distort throughput benchmarks.

use crate::sync::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Per-thread accumulated phase times and event counts.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// Time spent validating reads (seqlock retries, NOrec read-set
    /// revalidation, invalidation-flag checks).
    pub validation: Duration,
    /// Time spent in the write path (write-set buffering). Part of the
    /// paper's "other" bucket in Fig. 2/3; broken out here so write-side
    /// work is observable per phase like the read side.
    pub write: Duration,
    /// Time spent in the commit routine (including spinning on the global
    /// lock or on the request slot).
    pub commit: Duration,
    /// Time spent cleaning up and backing off after aborts.
    pub abort: Duration,
    /// Wall time spent inside `run` (transactional + retries).
    pub total_tx: Duration,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts (a committed transaction that retried twice counts 2).
    pub aborts: u64,
    /// Transactional reads performed (including re-executions).
    pub reads: u64,
    /// Transactional writes performed (including re-executions).
    pub writes: u64,
    /// Committed transactions whose write-set was *silent* — every buffered
    /// value already held in the heap — and that therefore committed
    /// locally as read-only (DESIGN.md §14). A subset of `commits`; always
    /// 0 on InvalSTM, which keeps the paper's commit for every write-set.
    pub silent_commits: u64,
}

impl PhaseStats {
    /// Merges another thread's stats into this one.
    pub fn merge(&mut self, other: &PhaseStats) {
        self.validation += other.validation;
        self.write += other.write;
        self.commit += other.commit;
        self.abort += other.abort;
        self.total_tx += other.total_tx;
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.reads += other.reads;
        self.writes += other.writes;
        self.silent_commits += other.silent_commits;
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = PhaseStats::default();
    }

    /// `(validation, commit, other)` fractions of a given wall-clock budget,
    /// matching the paper's Fig. 2/3 stacking. `other` absorbs write-path,
    /// abort and non-transactional time.
    pub fn breakdown(&self, wall: Duration) -> (f64, f64, f64) {
        let w = wall.as_secs_f64().max(f64::MIN_POSITIVE);
        let v = (self.validation.as_secs_f64() / w).min(1.0);
        let c = (self.commit.as_secs_f64() / w).min(1.0 - v);
        (v, c, (1.0 - v - c).max(0.0))
    }

    /// Abort-to-attempt ratio in `[0, 1)`.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.aborts;
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }
}

/// The log₂ latency-histogram bucket an observation of `ns` nanoseconds
/// falls in: bucket `i` covers `[2^i, 2^(i+1))` ns, 0 ns counts as 1 ns,
/// and everything from 2^31 ns (≈ 2 s) up lands in the last of the 32
/// buckets. The one bucket formula behind
/// [`ServerStats::commit_latency`] and the `svc` endpoint histograms.
#[inline]
pub fn log2_bucket(ns: u64) -> usize {
    (ns.max(1).ilog2() as usize).min(31)
}

/// The `q`-quantile (`0.0 ..= 1.0`) of a [`log2_bucket`] histogram in
/// nanoseconds: the upper edge of the bucket containing rank
/// `ceil(q·total)`, `None` when the histogram is empty.
pub fn log2_quantile_ns(buckets: &[u64; 32], q: f64) -> Option<u64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    let i = buckets.iter().position(|&n| {
        seen += n;
        seen >= rank
    })?;
    Some(1u64 << (i + 1))
}

/// Shared scan counters maintained by the server threads (and by
/// InvalSTM committers, which run the same invalidation scan inline).
///
/// These make the summary-bitmap optimization *observable*: a full
/// registry walk would examine `registry.len()` slots per pass, while the
/// bitmap scans examine only the set bits. Counters are plain relaxed
/// `fetch_add`s — cheap enough to stay on unconditionally because each
/// group of them sits on cache-line pairs of its own: the commit-server's
/// per-pass and per-commit counters, the invalidation scans', the
/// clients' per-transaction (and the rare fault) counters, and the
/// latency histogram clients record into. The struct is 128-aligned, so
/// no counter shares a line with a field of whatever embeds it.
#[derive(Debug, Default)]
#[repr(C)]
pub struct ServerCounters {
    /// Commit-server passes over the `pending` summary map.
    pub scan_passes: AtomicU64,
    /// Commit-server passes that found no request to process.
    pub empty_passes: AtomicU64,
    /// Slots actually examined by commit-server passes (set `pending` bits).
    pub slots_visited: AtomicU64,
    /// Commits the V2/MV commit-server retired on an invalidation-server's
    /// behalf because its partition held nothing to doom — one per server
    /// per commit, each a wake (and a scan) that never happened.
    pub quiet_retirements: AtomicU64,
    /// Unregistered write-sets the commit-server refused because a commit
    /// that landed after their snapshot changed a value they read
    /// (DESIGN.md §14) — the *validation failure* abort of the RInval
    /// kinds. The retry runs registered.
    pub stale_refusals: AtomicU64,
    /// Irrevocable-token grants (server- or seqlock-side).
    pub irrevocable_grants: AtomicU64,
    /// Times a server seat parked (an idle seat parks once per park bound).
    pub server_parks: AtomicU64,
    /// Unparks sent by posters that found a sleeper flag raised.
    pub wakes_sent: AtomicU64,
    /// Starts the invalidation scans' line pair.
    _inval_line: CachePadded<()>,
    /// Invalidation scans over the `live` summary map.
    pub inval_scans: AtomicU64,
    /// Slots actually examined by invalidation scans (set `live` bits).
    pub inval_slots_visited: AtomicU64,
    /// Live transactions doomed by admitted commits (every invalidation
    /// path); `txs_doomed / commits` is the doom rate.
    pub txs_doomed: AtomicU64,
    /// Starts the clients' line pair.
    _client_line: CachePadded<()>,
    /// Read-only transactions committed straight off their begin snapshot
    /// (multi-version engines; no validation, no server round-trip).
    pub ro_snapshot_commits: AtomicU64,
    /// Snapshot reads that found the version ring overwritten past the
    /// snapshot and fell back to revalidation.
    pub ring_misses: AtomicU64,
    /// Unregistered first attempts (`RInvalClient`: every first attempt
    /// on V1/V2, MV's first attempts that may write) promoted in place
    /// to the invalidation protocol on the first commit they observe in a
    /// read — readers and writers alike.
    pub ro_promotions: AtomicU64,
    /// Times a client parked on its request slot waiting for a verdict.
    pub client_parks: AtomicU64,
    /// Client commit requests that hit a [`crate::TxError::Timeout`]
    /// deadline while waiting for a server verdict.
    pub timed_out_requests: AtomicU64,
    /// Bounded runs cut short by their deadline: up-front fast-fails of
    /// [`crate::ThreadHandle::try_run_for`] with an already-expired
    /// deadline (no attempt runs) plus posted commit requests a client
    /// retracted when its deadline expired mid-wait.
    pub timeout_withdrawals: AtomicU64,
    /// Posted requests withdrawn by clients (deadline, degradation or
    /// handle teardown) before a server claimed them.
    pub withdrawn_requests: AtomicU64,
    /// Watchdog intervals in which a server with outstanding work made no
    /// heartbeat progress.
    pub heartbeat_misses: AtomicU64,
    /// Dead server threads respawned by the watchdog.
    pub respawns: AtomicU64,
    /// Times the instance degraded from a remote engine to InvalSTM.
    pub degradations: AtomicU64,
    /// Outstanding requests answered with an abort verdict by shutdown or
    /// crash-recovery drains rather than by normal server processing.
    pub drained_requests: AtomicU64,
    /// Starts the latency histogram's lines.
    _histogram_line: CachePadded<()>,
    /// log₂ commit-latency histogram: bucket `i` counts commits whose
    /// attempt latency fell in `[2^i, 2^(i+1))` nanoseconds. Recording is
    /// opt-in ([`crate::StmBuilder::latency_histogram`]) — it costs two
    /// `Instant::now()` calls per commit. Exactly 32 buckets (≈ 4 s cap),
    /// which is also the widest array the std `Default`/`Eq` impls cover.
    pub commit_latency: [AtomicU64; 32],
}

impl ServerCounters {
    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one commit latency observation to the log₂ histogram.
    #[inline]
    pub(crate) fn record_latency_ns(&self, ns: u64) {
        self.commit_latency[log2_bucket(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// A plain-value snapshot of the current counters.
    pub fn snapshot(&self) -> ServerStats {
        ServerStats {
            scan_passes: self.scan_passes.load(Ordering::Relaxed),
            empty_passes: self.empty_passes.load(Ordering::Relaxed),
            slots_visited: self.slots_visited.load(Ordering::Relaxed),
            inval_scans: self.inval_scans.load(Ordering::Relaxed),
            inval_slots_visited: self.inval_slots_visited.load(Ordering::Relaxed),
            heartbeat_misses: self.heartbeat_misses.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
            degradations: self.degradations.load(Ordering::Relaxed),
            timed_out_requests: self.timed_out_requests.load(Ordering::Relaxed),
            timeout_withdrawals: self.timeout_withdrawals.load(Ordering::Relaxed),
            withdrawn_requests: self.withdrawn_requests.load(Ordering::Relaxed),
            drained_requests: self.drained_requests.load(Ordering::Relaxed),
            txs_doomed: self.txs_doomed.load(Ordering::Relaxed),
            irrevocable_grants: self.irrevocable_grants.load(Ordering::Relaxed),
            ro_snapshot_commits: self.ro_snapshot_commits.load(Ordering::Relaxed),
            ring_misses: self.ring_misses.load(Ordering::Relaxed),
            ro_promotions: self.ro_promotions.load(Ordering::Relaxed),
            stale_refusals: self.stale_refusals.load(Ordering::Relaxed),
            server_parks: self.server_parks.load(Ordering::Relaxed),
            client_parks: self.client_parks.load(Ordering::Relaxed),
            wakes_sent: self.wakes_sent.load(Ordering::Relaxed),
            quiet_retirements: self.quiet_retirements.load(Ordering::Relaxed),
            commit_latency: std::array::from_fn(|i| self.commit_latency[i].load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time snapshot of [`ServerCounters`]; see
/// [`crate::Stm::server_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Commit-server passes over the `pending` summary map.
    pub scan_passes: u64,
    /// Passes that found no request to process.
    pub empty_passes: u64,
    /// Slots examined by commit-server passes.
    pub slots_visited: u64,
    /// Invalidation scans over the `live` summary map.
    pub inval_scans: u64,
    /// Slots examined by invalidation scans.
    pub inval_slots_visited: u64,
    /// Watchdog intervals with a silent-but-busy server.
    pub heartbeat_misses: u64,
    /// Dead server threads respawned by the watchdog.
    pub respawns: u64,
    /// Remote-engine → InvalSTM degradations.
    pub degradations: u64,
    /// Client requests that hit their wait deadline.
    pub timed_out_requests: u64,
    /// Bounded runs cut short at their deadline (up-front expired-deadline
    /// fast-fails plus deadline-time request retractions).
    pub timeout_withdrawals: u64,
    /// Posted requests withdrawn by clients before server pickup.
    pub withdrawn_requests: u64,
    /// Requests answered with aborts by shutdown/recovery drains.
    pub drained_requests: u64,
    /// Live transactions doomed by admitted commits.
    pub txs_doomed: u64,
    /// Irrevocable-token grants.
    pub irrevocable_grants: u64,
    /// Read-only transactions committed straight off their begin snapshot.
    pub ro_snapshot_commits: u64,
    /// Snapshot reads that fell off the version ring into revalidation.
    pub ring_misses: u64,
    /// Unregistered first attempts promoted to the invalidation protocol
    /// on the first commit they observed (readers and writers alike).
    pub ro_promotions: u64,
    /// Unregistered write-sets refused at pickup because a commit after
    /// their snapshot changed a value they read (validation failures).
    pub stale_refusals: u64,
    /// Times a server seat parked.
    pub server_parks: u64,
    /// Times a client parked on its request slot.
    pub client_parks: u64,
    /// Unparks sent by posters that found a sleeper flag raised.
    pub wakes_sent: u64,
    /// Commits retired on an invalidation-server's behalf (quiet partition).
    pub quiet_retirements: u64,
    /// log₂ commit-latency histogram (bucket `i` = `[2^i, 2^(i+1))` ns);
    /// all-zero unless the instance was built with
    /// [`crate::StmBuilder::latency_histogram`].
    pub commit_latency: [u64; 32],
}

impl ServerStats {
    /// Slots a full-registry commit-server walk would have examined for
    /// the same number of passes.
    pub fn full_scan_equivalent(&self, registry_len: usize) -> u64 {
        self.scan_passes * registry_len as u64
    }

    /// Slots a full-registry invalidation walk would have examined.
    pub fn full_inval_equivalent(&self, registry_len: usize) -> u64 {
        self.inval_scans * registry_len as u64
    }

    /// Mean slots examined per commit-server pass.
    pub fn visited_per_pass(&self) -> f64 {
        if self.scan_passes == 0 {
            0.0
        } else {
            self.slots_visited as f64 / self.scan_passes as f64
        }
    }

    /// Counter-wise difference (`self - earlier`), for before/after
    /// windows around a measured region.
    pub fn since(&self, earlier: &ServerStats) -> ServerStats {
        ServerStats {
            scan_passes: self.scan_passes - earlier.scan_passes,
            empty_passes: self.empty_passes - earlier.empty_passes,
            slots_visited: self.slots_visited - earlier.slots_visited,
            inval_scans: self.inval_scans - earlier.inval_scans,
            inval_slots_visited: self.inval_slots_visited - earlier.inval_slots_visited,
            heartbeat_misses: self.heartbeat_misses - earlier.heartbeat_misses,
            respawns: self.respawns - earlier.respawns,
            degradations: self.degradations - earlier.degradations,
            timed_out_requests: self.timed_out_requests - earlier.timed_out_requests,
            timeout_withdrawals: self.timeout_withdrawals - earlier.timeout_withdrawals,
            withdrawn_requests: self.withdrawn_requests - earlier.withdrawn_requests,
            drained_requests: self.drained_requests - earlier.drained_requests,
            txs_doomed: self.txs_doomed - earlier.txs_doomed,
            irrevocable_grants: self.irrevocable_grants - earlier.irrevocable_grants,
            ro_snapshot_commits: self.ro_snapshot_commits - earlier.ro_snapshot_commits,
            ring_misses: self.ring_misses - earlier.ring_misses,
            ro_promotions: self.ro_promotions - earlier.ro_promotions,
            stale_refusals: self.stale_refusals - earlier.stale_refusals,
            server_parks: self.server_parks - earlier.server_parks,
            client_parks: self.client_parks - earlier.client_parks,
            wakes_sent: self.wakes_sent - earlier.wakes_sent,
            quiet_retirements: self.quiet_retirements - earlier.quiet_retirements,
            commit_latency: std::array::from_fn(|i| {
                self.commit_latency[i] - earlier.commit_latency[i]
            }),
        }
    }

    /// True once the instance has degraded off its nominal algorithm — the
    /// soak job's health assertion.
    pub fn degraded(&self) -> bool {
        self.degradations != 0
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the commit-latency histogram in
    /// nanoseconds, as the upper edge of the bucket containing it; `None`
    /// when no latencies were recorded. Bucket resolution makes this exact
    /// to within a factor of 2, which is what a log₂ histogram promises.
    pub fn latency_quantile_ns(&self, q: f64) -> Option<u64> {
        log2_quantile_ns(&self.commit_latency, q)
    }

    /// True when any recovery-path counter is nonzero — a quick flag for
    /// run reports ("did this run exercise the fault machinery at all?").
    /// `heartbeat_misses` is deliberately excluded: sub-threshold silent
    /// polls of a busy seat are ordinary scheduling noise (ubiquitous on
    /// oversubscribed hosts) and repaired nothing.
    pub fn any_recovery_activity(&self) -> bool {
        self.respawns != 0
            || self.degradations != 0
            || self.timed_out_requests != 0
            || self.timeout_withdrawals != 0
            || self.withdrawn_requests != 0
            || self.drained_requests != 0
    }
}

/// A started phase timer; see [`Probe::start`].
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    at: Option<Instant>,
}

impl Probe {
    /// Starts timing if `enabled`, otherwise is free.
    #[inline]
    pub fn start(enabled: bool) -> Probe {
        Probe {
            at: if enabled { Some(Instant::now()) } else { None },
        }
    }

    /// Stops the timer, adding the elapsed time to `bucket`.
    #[inline]
    pub fn stop(self, bucket: &mut Duration) {
        if let Some(at) = self.at {
            *bucket += at.elapsed();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each writer's counters sit on line pairs of their own: the
    /// commit-server's per-commit bumps never invalidate a line a client
    /// bumps per transaction, or an invalidation-server per scan.
    #[test]
    fn counter_groups_share_no_line_pair() {
        use crate::tests::{share_a_pair, span};
        let c = ServerCounters::default();
        let server = [
            span(&c, &c.scan_passes),
            span(&c, &c.quiet_retirements),
            span(&c, &c.wakes_sent),
            span(&c, &c.server_parks),
        ];
        let inval = [span(&c, &c.inval_scans), span(&c, &c.txs_doomed)];
        let client = [
            span(&c, &c.ro_snapshot_commits),
            span(&c, &c.ro_promotions),
            span(&c, &c.client_parks),
            span(&c, &c.drained_requests),
        ];
        let histogram = [span(&c, &c.commit_latency)];
        let groups = [&server[..], &inval[..], &client[..], &histogram[..]];
        for (gi, g) in groups.iter().enumerate() {
            for h in &groups[gi + 1..] {
                for &a in g.iter() {
                    for &b in h.iter() {
                        assert!(!share_a_pair(a, b), "{a:?} and {b:?} share a line pair");
                    }
                }
            }
        }
        assert_eq!(std::mem::align_of::<ServerCounters>(), 128);
    }

    #[test]
    fn default_is_zero() {
        let s = PhaseStats::default();
        assert_eq!(s.commits, 0);
        assert_eq!(s.validation, Duration::ZERO);
        assert_eq!(s.abort_rate(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PhaseStats {
            commits: 3,
            aborts: 1,
            silent_commits: 1,
            validation: Duration::from_millis(5),
            ..Default::default()
        };
        let b = PhaseStats {
            commits: 2,
            aborts: 2,
            silent_commits: 2,
            validation: Duration::from_millis(7),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.commits, 5);
        assert_eq!(a.aborts, 3);
        assert_eq!(a.silent_commits, 3);
        assert_eq!(a.validation, Duration::from_millis(12));
    }

    #[test]
    fn merge_accumulates_write_bucket() {
        let mut a = PhaseStats {
            write: Duration::from_millis(3),
            ..Default::default()
        };
        a.merge(&PhaseStats {
            write: Duration::from_millis(4),
            ..Default::default()
        });
        assert_eq!(a.write, Duration::from_millis(7));
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let s = PhaseStats {
            validation: Duration::from_millis(250),
            commit: Duration::from_millis(250),
            ..Default::default()
        };
        let (v, c, o) = s.breakdown(Duration::from_secs(1));
        assert!((v - 0.25).abs() < 1e-9);
        assert!((c - 0.25).abs() < 1e-9);
        assert!((v + c + o - 1.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_clamps_overreported_time() {
        // Phase timers can overlap wall time slightly under oversubscription;
        // fractions must stay in range regardless.
        let s = PhaseStats {
            validation: Duration::from_secs(2),
            commit: Duration::from_secs(2),
            ..Default::default()
        };
        let (v, c, o) = s.breakdown(Duration::from_secs(1));
        assert!(v <= 1.0 && c <= 1.0 && o >= 0.0);
        assert!((v + c + o - 1.0).abs() < 1e-9);
    }

    #[test]
    fn abort_rate_computed() {
        let s = PhaseStats {
            commits: 3,
            aborts: 1,
            ..Default::default()
        };
        assert!((s.abort_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn disabled_probe_is_free_and_adds_nothing() {
        let mut bucket = Duration::ZERO;
        Probe::start(false).stop(&mut bucket);
        assert_eq!(bucket, Duration::ZERO);
    }

    #[test]
    fn enabled_probe_accumulates_time() {
        let mut bucket = Duration::ZERO;
        let p = Probe::start(true);
        std::thread::sleep(Duration::from_millis(2));
        p.stop(&mut bucket);
        assert!(bucket >= Duration::from_millis(1));
    }

    #[test]
    fn server_counters_snapshot_and_derived() {
        let c = ServerCounters::default();
        ServerCounters::add(&c.scan_passes, 10);
        ServerCounters::add(&c.slots_visited, 25);
        ServerCounters::add(&c.empty_passes, 4);
        let s = c.snapshot();
        assert_eq!(s.scan_passes, 10);
        assert_eq!(s.full_scan_equivalent(128), 1280);
        assert!((s.visited_per_pass() - 2.5).abs() < 1e-12);

        ServerCounters::add(&c.scan_passes, 5);
        let d = c.snapshot().since(&s);
        assert_eq!(d.scan_passes, 5);
        assert_eq!(d.slots_visited, 0);
    }

    #[test]
    fn server_stats_zero_divisions_are_safe() {
        let s = ServerStats::default();
        assert_eq!(s.visited_per_pass(), 0.0);
    }

    #[test]
    fn fairness_counters_snapshot_and_since() {
        let c = ServerCounters::default();
        ServerCounters::add(&c.txs_doomed, 5);
        ServerCounters::add(&c.irrevocable_grants, 1);
        let s = c.snapshot();
        assert_eq!(s.txs_doomed, 5);
        assert_eq!(s.irrevocable_grants, 1);
        assert!(!s.degraded());

        ServerCounters::add(&c.txs_doomed, 2);
        let d = c.snapshot().since(&s);
        assert_eq!(d.txs_doomed, 2);
    }

    #[test]
    fn snapshot_counters_snapshot_and_since() {
        let c = ServerCounters::default();
        ServerCounters::add(&c.ro_snapshot_commits, 6);
        ServerCounters::add(&c.ring_misses, 2);
        ServerCounters::add(&c.ro_promotions, 1);
        ServerCounters::add(&c.stale_refusals, 4);
        let s = c.snapshot();
        assert_eq!(s.ro_snapshot_commits, 6);
        assert_eq!(s.ring_misses, 2);
        assert_eq!(s.ro_promotions, 1);
        assert_eq!(s.stale_refusals, 4);

        ServerCounters::add(&c.ro_snapshot_commits, 3);
        ServerCounters::add(&c.stale_refusals, 1);
        let d = c.snapshot().since(&s);
        assert_eq!(d.ro_snapshot_commits, 3);
        assert_eq!(d.ring_misses, 0);
        assert_eq!(d.ro_promotions, 0);
        assert_eq!(d.stale_refusals, 1);
    }

    #[test]
    fn quiet_retirements_snapshot_and_since() {
        let c = ServerCounters::default();
        ServerCounters::add(&c.quiet_retirements, 4);
        let s = c.snapshot();
        assert_eq!(s.quiet_retirements, 4);
        ServerCounters::add(&c.quiet_retirements, 3);
        assert_eq!(c.snapshot().since(&s).quiet_retirements, 3);
    }

    #[test]
    fn latency_histogram_buckets_and_quantiles() {
        let c = ServerCounters::default();
        assert_eq!(c.snapshot().latency_quantile_ns(0.5), None);
        // 0/1 ns land in bucket 0; 1000 ns in bucket 9; huge values clamp
        // into the last bucket.
        c.record_latency_ns(0);
        c.record_latency_ns(1);
        c.record_latency_ns(1000);
        c.record_latency_ns(u64::MAX);
        let s = c.snapshot();
        assert_eq!(s.commit_latency[0], 2);
        assert_eq!(s.commit_latency[9], 1);
        assert_eq!(s.commit_latency[31], 1);
        assert_eq!(s.commit_latency.iter().sum::<u64>(), 4);
        // p50 of {~1, ~1, ~1024, ~big} is the second observation's bucket.
        assert_eq!(s.latency_quantile_ns(0.5), Some(2));
        assert_eq!(s.latency_quantile_ns(0.99), Some(1u64 << 32));
        assert_eq!(s.latency_quantile_ns(0.0), Some(2));
    }

    #[test]
    fn degraded_flag_tracks_degradations() {
        let c = ServerCounters::default();
        assert!(!c.snapshot().degraded());
        ServerCounters::add(&c.degradations, 1);
        assert!(c.snapshot().degraded());
    }

    #[test]
    fn watchdog_counters_snapshot_and_since() {
        let c = ServerCounters::default();
        ServerCounters::add(&c.heartbeat_misses, 3);
        ServerCounters::add(&c.respawns, 1);
        ServerCounters::add(&c.degradations, 1);
        ServerCounters::add(&c.timed_out_requests, 2);
        ServerCounters::add(&c.timeout_withdrawals, 5);
        ServerCounters::add(&c.withdrawn_requests, 2);
        ServerCounters::add(&c.drained_requests, 4);
        let s = c.snapshot();
        assert_eq!(s.heartbeat_misses, 3);
        assert_eq!(s.respawns, 1);
        assert_eq!(s.degradations, 1);
        assert_eq!(s.timed_out_requests, 2);
        assert_eq!(s.timeout_withdrawals, 5);
        assert_eq!(s.withdrawn_requests, 2);
        assert_eq!(s.drained_requests, 4);
        assert!(s.any_recovery_activity());
        assert!(!ServerStats::default().any_recovery_activity());
        // Sub-threshold heartbeat misses alone are scheduling noise, not
        // recovery activity.
        let noisy = ServerCounters::default();
        ServerCounters::add(&noisy.heartbeat_misses, 7);
        assert!(!noisy.snapshot().any_recovery_activity());

        ServerCounters::add(&c.respawns, 2);
        let d = c.snapshot().since(&s);
        assert_eq!(d.respawns, 2);
        assert_eq!(d.heartbeat_misses, 0);
        assert_eq!(d.timeout_withdrawals, 0);

        // A deadline fast-fail alone is recovery activity (a bounded-wait
        // escape fired).
        let t = ServerCounters::default();
        ServerCounters::add(&t.timeout_withdrawals, 1);
        assert!(t.snapshot().any_recovery_activity());
    }
}
