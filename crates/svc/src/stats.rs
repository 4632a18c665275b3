//! Service-layer telemetry: lifecycle counters and per-endpoint windowed
//! log₂ latency histograms.
//!
//! The histogram shares the bucket and quantile math of
//! [`rinval::ServerStats::commit_latency`] ([`rinval::stats::log2_bucket`],
//! [`rinval::stats::log2_quantile_ns`]) and adds a *rotating window*: every
//! `window` observations the current buckets are drained and their p99
//! cached, so the admission gate reads a recent signal with one relaxed
//! load instead of walking 32 buckets per request. A cached breach goes
//! *stale* after a TTL — once shedding stops the flow of fresh write
//! latencies, the stale signal must not shed forever, so probe writes are
//! re-admitted to re-measure (DESIGN.md §16).

use rinval::stats::{log2_bucket, log2_quantile_ns};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Adds to a relaxed counter (all svc counters are statistics, never
/// synchronization).
#[inline]
pub(crate) fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// Lifecycle counters for one service instance. Field order follows a
/// request's path — admission, execution, reply — then supervision and the
/// waiting discipline's own counters.
#[derive(Default)]
pub(crate) struct Counters {
    pub accepted: AtomicU64,
    pub enqueue_faults: AtomicU64,
    pub enqueue_drops: AtomicU64,
    pub shed_writes: AtomicU64,
    pub expired_on_dequeue: AtomicU64,
    pub executed_writes: AtomicU64,
    pub executed_reads: AtomicU64,
    pub dedup_hits: AtomicU64,
    pub stale_duplicates: AtomicU64,
    pub exec_timeouts: AtomicU64,
    pub client_timeouts: AtomicU64,
    pub late_replies: AtomicU64,
    pub dropped_replies: AtomicU64,
    pub worker_deaths: AtomicU64,
    pub worker_respawns: AtomicU64,
    pub shutdown_replies: AtomicU64,
    pub caller_parks: AtomicU64,
    pub worker_parks: AtomicU64,
    pub wakes_sent: AtomicU64,
}

impl Counters {
    pub(crate) fn snapshot(&self) -> SvcStats {
        SvcStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            enqueue_faults: self.enqueue_faults.load(Ordering::Relaxed),
            enqueue_drops: self.enqueue_drops.load(Ordering::Relaxed),
            shed_writes: self.shed_writes.load(Ordering::Relaxed),
            expired_on_dequeue: self.expired_on_dequeue.load(Ordering::Relaxed),
            executed_writes: self.executed_writes.load(Ordering::Relaxed),
            executed_reads: self.executed_reads.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            stale_duplicates: self.stale_duplicates.load(Ordering::Relaxed),
            exec_timeouts: self.exec_timeouts.load(Ordering::Relaxed),
            client_timeouts: self.client_timeouts.load(Ordering::Relaxed),
            late_replies: self.late_replies.load(Ordering::Relaxed),
            dropped_replies: self.dropped_replies.load(Ordering::Relaxed),
            worker_deaths: self.worker_deaths.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            shutdown_replies: self.shutdown_replies.load(Ordering::Relaxed),
            caller_parks: self.caller_parks.load(Ordering::Relaxed),
            worker_parks: self.worker_parks.load(Ordering::Relaxed),
            wakes_sent: self.wakes_sent.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time snapshot of the service lifecycle counters
/// ([`crate::Frontend::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SvcStats {
    /// Requests posted into their client's call slot.
    pub accepted: u64,
    /// Requests rejected by an armed `svc.enqueue` `fail` failpoint.
    pub enqueue_faults: u64,
    /// Requests accepted-then-lost by an armed `svc.enqueue` `exit`
    /// failpoint (the client observes a timeout).
    pub enqueue_drops: u64,
    /// Write requests shed by the admission gate (SLO breach or
    /// backpressure) — answered `RetryAfter` without entering the STM.
    pub shed_writes: u64,
    /// Requests whose deadline had already passed when a worker claimed
    /// them — answered `Timeout` without entering the STM.
    pub expired_on_dequeue: u64,
    /// Write requests that ran a transaction (fresh applies + dedup hits).
    pub executed_writes: u64,
    /// Read requests served (always via `run_ro`).
    pub executed_reads: u64,
    /// Retried idempotency keys answered from the dedup window instead of
    /// re-applying — the exactly-once mechanism firing.
    pub dedup_hits: u64,
    /// Duplicates older than the whole dedup window (answered with
    /// [`crate::STALE_DUPLICATE`]).
    pub stale_duplicates: u64,
    /// Write transactions that hit their deadline inside
    /// `try_run_for` (answered `Timeout`).
    pub exec_timeouts: u64,
    /// Client-side waits that hit the deadline before any reply.
    pub client_timeouts: u64,
    /// Worker answers that found the slot abandoned by its caller (value
    /// dropped, slot freed; the committed effect is recoverable via retry).
    pub late_replies: u64,
    /// Replies deliberately dropped by an armed `svc.reply.pre` `exit`
    /// failpoint.
    pub dropped_replies: u64,
    /// Worker threads that died (panic or injected exit).
    pub worker_deaths: u64,
    /// Workers respawned by the supervisor.
    pub worker_respawns: u64,
    /// Requests still posted at service stop, answered `Shutdown` by the
    /// supervisor after it joined the workers.
    pub shutdown_replies: u64,
    /// Parks of callers waiting on their slot (for the answer, or for a
    /// busy slot to come free). The hot path stays in spin/yield.
    pub caller_parks: u64,
    /// Parks of idle workers waiting on their posted map.
    pub worker_parks: u64,
    /// Unparks sent by a poster that found the sleeper flag raised.
    pub wakes_sent: u64,
}

/// log₂ latency histogram with a rotating window and its cached p99.
pub(crate) struct WindowHist {
    window: u64,
    cur: [AtomicU64; 32],
    cur_count: AtomicU64,
    life: [AtomicU64; 32],
    life_count: AtomicU64,
    cached_p99_ns: AtomicU64,
    /// Nanoseconds since service start at the last rotation.
    rotated_at_ns: AtomicU64,
    rotating: Mutex<()>,
}

impl WindowHist {
    pub(crate) fn new(window: u64) -> WindowHist {
        WindowHist {
            window: window.max(1),
            cur: std::array::from_fn(|_| AtomicU64::new(0)),
            cur_count: AtomicU64::new(0),
            life: std::array::from_fn(|_| AtomicU64::new(0)),
            life_count: AtomicU64::new(0),
            cached_p99_ns: AtomicU64::new(0),
            rotated_at_ns: AtomicU64::new(0),
            rotating: Mutex::new(()),
        }
    }

    /// Records one latency observation; `now_ns` is nanoseconds since
    /// service start (used to timestamp a rotation).
    pub(crate) fn record(&self, lat: Duration, now_ns: u64) {
        let bucket = log2_bucket(lat.as_nanos() as u64);
        self.cur[bucket].fetch_add(1, Ordering::Relaxed);
        self.life[bucket].fetch_add(1, Ordering::Relaxed);
        self.life_count.fetch_add(1, Ordering::Relaxed);
        if self.cur_count.fetch_add(1, Ordering::Relaxed) + 1 >= self.window {
            self.rotate(now_ns);
        }
    }

    /// Drains the current window and refreshes the cached p99. The
    /// try-lock makes rotation single-writer without ever blocking the
    /// recording fast path.
    fn rotate(&self, now_ns: u64) {
        let Ok(_g) = self.rotating.try_lock() else {
            return;
        };
        let drained: [u64; 32] = std::array::from_fn(|i| self.cur[i].swap(0, Ordering::Relaxed));
        self.cur_count.store(0, Ordering::Relaxed);
        if let Some(p99) = log2_quantile_ns(&drained, 0.99) {
            self.cached_p99_ns.store(p99, Ordering::Relaxed);
        }
        self.rotated_at_ns.store(now_ns, Ordering::Relaxed);
    }

    /// True while the *recent* window's p99 breaches `slo_ns`. A cached
    /// breach older than `ttl_ns` reads as healthy so probe traffic can
    /// refresh the signal (see module docs).
    pub(crate) fn breached(&self, slo_ns: u64, now_ns: u64, ttl_ns: u64) -> bool {
        let p99 = self.cached_p99_ns.load(Ordering::Relaxed);
        if p99 == 0 || p99 <= slo_ns {
            return false;
        }
        now_ns.saturating_sub(self.rotated_at_ns.load(Ordering::Relaxed)) <= ttl_ns
    }

    /// Lifetime bucket snapshot (for reports and recovery monitoring).
    pub(crate) fn lifetime(&self) -> [u64; 32] {
        std::array::from_fn(|i| self.life[i].load(Ordering::Relaxed))
    }

    /// Total observations ever recorded.
    pub(crate) fn count(&self) -> u64 {
        self.life_count.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_rotation_caches_quantiles() {
        let h = WindowHist::new(4);
        for _ in 0..3 {
            h.record(Duration::from_nanos(100), 10);
        }
        let p99 = || h.cached_p99_ns.load(Ordering::Relaxed);
        assert_eq!(p99(), 0, "rotated before the window filled");
        h.record(Duration::from_micros(100), 10);
        // 100µs → bucket 16 (upper edge 131072).
        assert_eq!(p99(), 131_072);
        assert_eq!(h.count(), 4);
        assert_eq!(h.lifetime().iter().sum::<u64>(), 4);
    }

    #[test]
    fn breach_signal_goes_stale_after_ttl() {
        let h = WindowHist::new(1);
        h.record(Duration::from_millis(40), 1_000);
        let slo = Duration::from_millis(5).as_nanos() as u64;
        assert!(h.breached(slo, 1_000, 500));
        // Same breach, sampled past the TTL: stale, reads healthy.
        assert!(!h.breached(slo, 2_000, 500));
        // A generous SLO is never breached.
        assert!(!h.breached(u64::MAX, 1_000, 500));
    }
}
