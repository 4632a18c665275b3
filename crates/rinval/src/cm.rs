//! Contention management.
//!
//! The paper deliberately uses the *simplest* possible policy (§IV-D):
//! conflicts are always resolved by aborting the in-flight readers, never
//! the committer ("winning commit"), because anything smarter would add
//! work to the servers' critical path. What remains for the aborted side is
//! *when to retry*: we use randomized bounded exponential backoff, seeded
//! per thread so behaviour is reproducible under a fixed thread count.
//!
//! Two bounds keep the backoff honest under load (DESIGN.md §13):
//! an attempt deadline truncates any single wait (so
//! [`crate::TxError::Timeout`] fires within one backoff quantum of the
//! deadline, not after it), and a cumulative per-streak spin budget caps
//! the *total* busy-waiting one transaction can burn between commits —
//! past it, waits degrade to plain yields, which on an oversubscribed
//! host is what actually lets the conflicting committer run.

use std::time::Instant;

/// How many spins one `on_abort` chunk burns between deadline checks.
/// Small enough that a deadline is honored within microseconds; large
/// enough that the clock is read rarely on the common path.
const SPIN_CHUNK: u64 = 256;

/// Cumulative spin budget per abort streak; reset on commit. Past this,
/// every wait is a yield.
const STREAK_SPIN_BUDGET: u64 = 1 << 14;

/// Randomized exponential backoff between transaction retries.
#[derive(Debug)]
pub struct ContentionManager {
    /// xorshift state for jitter.
    rng: u64,
    /// Consecutive aborts of the current transaction.
    streak: u32,
    /// Cap on the exponent so waits stay bounded.
    max_exp: u32,
    /// Spins burned since the last commit (the per-streak budget).
    streak_spins: u64,
}

impl ContentionManager {
    /// A manager seeded from the owning thread's slot index.
    pub fn new(seed: u64) -> ContentionManager {
        ContentionManager {
            rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            streak: 0,
            max_exp: 10,
            streak_spins: 0,
        }
    }

    #[inline]
    fn next_rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Called after a commit; clears the abort streak and its spin budget.
    pub fn on_commit(&mut self) {
        self.streak = 0;
        self.streak_spins = 0;
    }

    /// Called after an abort; waits a randomized, exponentially growing
    /// amount before the caller retries. Spins briefly, then yields — on an
    /// oversubscribed host the yield is what lets the conflicting committer
    /// actually finish. Equivalent to
    /// [`ContentionManager::on_abort_bounded`] with no deadline.
    pub fn on_abort(&mut self) {
        let _ = self.on_abort_bounded(None);
    }

    /// Deadline-aware [`ContentionManager::on_abort`]: the wait is spent
    /// in chunks of `SPIN_CHUNK` spins with the deadline rechecked
    /// between chunks, so a retry loop observes an expired deadline within
    /// one chunk rather than after a full (up to `2^max_exp`-spin)
    /// quantum. Returns whether the deadline expired during (or before)
    /// the wait.
    ///
    /// The spin portion is also clamped by the cumulative per-streak
    /// budget, and the wait *always* ends in a yield when the streak is
    /// long or the budget is spent — burning cycles is counterproductive
    /// exactly when the machine is oversubscribed.
    pub fn on_abort_bounded(&mut self, deadline: Option<Instant>) -> bool {
        self.streak = self.streak.saturating_add(1);
        let exp = self.streak.min(self.max_exp);
        let ceiling = 1u64 << exp;
        let budget_left = STREAK_SPIN_BUDGET.saturating_sub(self.streak_spins);
        let spins = (self.next_rand() % ceiling).min(budget_left);
        self.streak_spins += spins;
        let mut expired = deadline.is_some_and(|d| Instant::now() >= d);
        let mut remaining = if expired { 0 } else { spins };
        while remaining > 0 {
            let chunk = remaining.min(SPIN_CHUNK);
            for _ in 0..chunk {
                core::hint::spin_loop();
            }
            remaining -= chunk;
            if remaining > 0 && deadline.is_some_and(|d| Instant::now() >= d) {
                expired = true;
                break;
            }
        }
        if self.streak > 3 || budget_left == 0 {
            std::thread::yield_now();
        }
        expired
    }

    /// Current abort streak (used by tests and adaptive policies).
    pub fn streak(&self) -> u32 {
        self.streak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streak_grows_and_resets() {
        let mut cm = ContentionManager::new(1);
        assert_eq!(cm.streak(), 0);
        cm.on_abort();
        cm.on_abort();
        assert_eq!(cm.streak(), 2);
        cm.on_commit();
        assert_eq!(cm.streak(), 0);
    }

    #[test]
    fn rng_sequences_differ_by_seed() {
        let mut a = ContentionManager::new(1);
        let mut b = ContentionManager::new(2);
        let sa: Vec<u64> = (0..4).map(|_| a.next_rand()).collect();
        let sb: Vec<u64> = (0..4).map(|_| b.next_rand()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = ContentionManager::new(7);
        let mut b = ContentionManager::new(7);
        for _ in 0..8 {
            assert_eq!(a.next_rand(), b.next_rand());
        }
    }

    #[test]
    fn on_abort_terminates_even_for_long_streaks() {
        let mut cm = ContentionManager::new(3);
        for _ in 0..64 {
            cm.on_abort();
        }
        assert_eq!(cm.streak(), 64);
    }

    #[test]
    fn bounded_abort_reports_expired_deadline() {
        let mut cm = ContentionManager::new(5);
        let past = Instant::now() - std::time::Duration::from_millis(1);
        assert!(cm.on_abort_bounded(Some(past)));
        let future = Instant::now() + std::time::Duration::from_secs(60);
        assert!(!cm.on_abort_bounded(Some(future)));
    }

    #[test]
    fn spin_budget_is_cumulative_and_resets_on_commit() {
        let mut cm = ContentionManager::new(9);
        for _ in 0..4096 {
            cm.on_abort();
        }
        assert!(cm.streak_spins <= STREAK_SPIN_BUDGET);
        cm.on_commit();
        assert_eq!(cm.streak_spins, 0);
    }
}
