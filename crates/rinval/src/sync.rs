//! Low-level synchronization utilities shared by every algorithm.
//!
//! The paper's whole point is that *how* you wait matters: spinning on a
//! shared lock generates cache-coherence traffic, while spinning on a
//! core-private, cache-aligned word does not. This module provides the two
//! building blocks for that:
//!
//! * [`CachePadded`] — aligns a value to its own cache-line pair so that two
//!   logically unrelated hot words never share a line (false sharing).
//! * [`Backoff`] — bounded spinning that degrades to `thread::yield_now`.
//!   The paper's testbed dedicates a physical core to each server thread;
//!   this host may be heavily oversubscribed, so unbounded pure spinning
//!   would deadlock the scheduler. Yielding after a short spin keeps the
//!   protocol live at any core count without changing its logic.
//! * [`AtomicBitmap`] — a summary bitmap (one `AtomicU64` per 64 slots,
//!   each word cache-padded) that lets server threads visit only the
//!   registry slots that are actually pending/live instead of walking the
//!   whole `max_threads` array on every pass.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

/// SplitMix64 output mix (Steele et al.): the workspace's one
/// allocation- and state-free 64-bit avalanche — bloom probe bits, hash
/// buckets, the fault journal's entry hash and `stamp::SplitMix` all go
/// through it. Callers wanting the full SplitMix64 step add the
/// golden-ratio increment `0x9E37_79B9_7F4A_7C15` first.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pads and aligns a value to 128 bytes.
///
/// 128 rather than 64 because modern x86 prefetches cache lines in adjacent
/// pairs; the paper's "cache-aligned requests array" (Fig. 5) pads each
/// request slot for the same reason.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache-line pair.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Consumes the wrapper, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

/// A fixed-capacity concurrent bitmap: one `AtomicU64` word per 64 bits,
/// each word padded to its own cache-line pair.
///
/// Used as the registry's *summary maps*: bit `i` mirrors a predicate of
/// slot `i` ("has a pending request", "holds a live transaction"). Writers
/// flip only their own bit with `fetch_or`/`fetch_and` (no CAS loop);
/// readers snapshot a word at a time and walk its set bits with
/// `trailing_zeros`, so a scan over an almost-empty 128-slot registry
/// touches two words instead of 128 cache-line-pairs.
///
/// Every access that takes part in the protocol is `SeqCst`: the maps
/// join the same total-order arguments as `request_state`/`tx_status`
/// (see `registry.rs` for the publication protocol that makes a set bit
/// imply an observable slot state). The one exception is
/// [`AtomicBitmap::count_set`], a `Relaxed` occupancy estimate nothing
/// synchronizes on.
#[derive(Debug)]
pub struct AtomicBitmap {
    words: Box<[CachePadded<AtomicU64>]>,
    bits: usize,
}

impl AtomicBitmap {
    /// An all-zero bitmap with capacity for `bits` bits.
    pub fn new(bits: usize) -> AtomicBitmap {
        let nwords = bits.div_ceil(64).max(1);
        let mut v = Vec::with_capacity(nwords);
        v.resize_with(nwords, || CachePadded::new(AtomicU64::new(0)));
        AtomicBitmap {
            words: v.into_boxed_slice(),
            bits,
        }
    }

    /// Capacity in bits.
    pub fn capacity(&self) -> usize {
        self.bits
    }

    /// Sets bit `i` (one `fetch_or`, no CAS loop).
    #[inline]
    pub fn set(&self, i: usize) {
        debug_assert!(i < self.bits);
        self.words[i / 64].fetch_or(1u64 << (i % 64), Ordering::SeqCst);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&self, i: usize) {
        debug_assert!(i < self.bits);
        self.words[i / 64].fetch_and(!(1u64 << (i % 64)), Ordering::SeqCst);
    }

    /// Current value of bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.bits);
        self.words[i / 64].load(Ordering::SeqCst) & (1u64 << (i % 64)) != 0
    }

    /// True if any bit is set (word-at-a-time check).
    pub fn any_set(&self) -> bool {
        self.words.iter().any(|w| w.load(Ordering::SeqCst) != 0)
    }

    /// Number of set bits (one popcount per word; a per-word snapshot, not
    /// an atomic total). A cheap commit-queue occupancy estimate for
    /// callers that shed load (`svc`'s `shed_pending` gate) — with the
    /// default 64 slots this is a single load.
    pub fn count_set(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Iterates the indices of set bits in ascending order.
    ///
    /// Each underlying word is loaded exactly once, so the iteration is a
    /// consistent per-word snapshot: bits set concurrently after a word was
    /// loaded are picked up by the caller's next pass, never lost (the bit
    /// stays set until its owner clears it).
    pub fn iter_set_bits(&self) -> SetBits<'_> {
        SetBits {
            words: &self.words,
            word_idx: 0,
            current: self.words[0].load(Ordering::SeqCst),
        }
    }

    /// Loads word `w` (64 bits) of the bitmap, `SeqCst`.
    ///
    /// This is the scan kernel's primitive (`scan.rs`): walking words
    /// directly — rather than through [`AtomicBitmap::iter_set_bits`] —
    /// lets the kernel look one word ahead of its cursor and prefetch the
    /// registry slots it is about to visit. Same per-word snapshot
    /// semantics as the iterators.
    #[inline]
    pub fn load_word(&self, w: usize) -> u64 {
        self.words[w].load(Ordering::SeqCst)
    }

    /// Number of 64-bit words backing the bitmap.
    pub fn words_len(&self) -> usize {
        self.words.len()
    }
}

/// Iterator over the set bits of an [`AtomicBitmap`]; see
/// [`AtomicBitmap::iter_set_bits`].
#[derive(Debug)]
pub struct SetBits<'a> {
    words: &'a [CachePadded<AtomicU64>],
    word_idx: usize,
    current: u64,
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx].load(Ordering::SeqCst);
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * 64 + bit)
    }
}

/// Liveness beacon published by a server thread and read by the watchdog.
///
/// Two observables with different failure semantics:
///
/// * `beats` — a counter the server bumps once per loop pass. A counter
///   that stops advancing while protocol work is outstanding means the
///   thread is *stalled* (alive but wedged — e.g. descheduled forever or
///   stuck in a failpoint).
/// * `alive` — set while the server's loop runs, cleared by a drop guard
///   ([`Heartbeat::alive_guard`]) when the loop returns **or unwinds**. A
///   cleared flag means the thread is *dead* and its seat can be respawned.
///
/// The distinction matters for recovery: a dead thread provably executes
/// no further stores, so the supervisor may repair shared protocol state
/// and start a replacement; a stalled thread might wake at any moment, so
/// the only safe reaction is to route around it (degrade), never to run a
/// second copy.
#[derive(Debug)]
pub struct Heartbeat {
    beats: CachePadded<AtomicU64>,
    alive: CachePadded<std::sync::atomic::AtomicBool>,
}

impl Default for Heartbeat {
    fn default() -> Heartbeat {
        Heartbeat {
            beats: CachePadded::new(AtomicU64::new(0)),
            alive: CachePadded::new(std::sync::atomic::AtomicBool::new(false)),
        }
    }
}

impl Heartbeat {
    /// Bumps the pass counter (server side, once per loop pass).
    #[inline]
    pub fn beat(&self) {
        self.beats.fetch_add(1, Ordering::Relaxed);
    }

    /// Current pass count (watchdog side).
    pub fn beats(&self) -> u64 {
        self.beats.load(Ordering::Relaxed)
    }

    /// Whether the owning thread is between `alive_guard` creation and drop.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Marks the beacon alive and returns a guard that clears the flag on
    /// drop — including a panicking unwind, so the watchdog sees a crashed
    /// server as dead, not stalled.
    pub fn alive_guard(&self) -> AliveGuard<'_> {
        self.alive.store(true, Ordering::SeqCst);
        AliveGuard { hb: self }
    }
}

/// Clears the owning [`Heartbeat`]'s alive flag on drop; see
/// [`Heartbeat::alive_guard`].
#[derive(Debug)]
pub struct AliveGuard<'a> {
    hb: &'a Heartbeat,
}

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.hb.alive.store(false, Ordering::SeqCst);
    }
}

/// Number of busy spins before a [`Backoff`] starts yielding to the OS.
const SPIN_LIMIT: u32 = 64;

/// Bounded exponential spinner.
///
/// The first `SPIN_LIMIT` waits use `core::hint::spin_loop` with an
/// exponentially growing repeat count; afterwards every wait is an OS yield.
/// Call [`Backoff::snooze`] in any loop that waits on another thread.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// A fresh backoff with zero accumulated steps.
    pub const fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Resets the spinner (e.g. after the awaited condition made progress).
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Returns `true` once the spinner has degraded to OS yields, which is a
    /// good moment for callers to re-check cancellation flags.
    pub fn is_yielding(&self) -> bool {
        self.step > SPIN_LIMIT
    }

    /// Waits a little. Starts as a busy spin, degrades to `yield_now`.
    pub fn snooze(&mut self) {
        if self.step <= SPIN_LIMIT {
            for _ in 0..(1u32 << (self.step.min(6))) {
                core::hint::spin_loop();
            }
            self.step += 1;
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_matches_splitmix64_reference_stream() {
        // First outputs of SplitMix64 seeded with 0 (Vigna's reference).
        let mut state = 0u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix64(state)
        };
        assert_eq!(next(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(next(), 0x6E78_9E6A_A1B9_65F4);
    }
    use std::mem::{align_of, size_of};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn cache_padded_is_128_aligned() {
        assert_eq!(align_of::<CachePadded<u8>>(), 128);
        assert_eq!(size_of::<CachePadded<u8>>(), 128);
        assert_eq!(align_of::<CachePadded<[u64; 32]>>(), 128);
    }

    #[test]
    fn cache_padded_derefs_to_inner() {
        let mut p = CachePadded::new(41u32);
        *p += 1;
        assert_eq!(*p, 42);
        assert_eq!(p.into_inner(), 42);
    }

    #[test]
    fn cache_padded_atomic_usable_through_shared_ref() {
        let p = CachePadded::new(AtomicU64::new(0));
        p.fetch_add(7, Ordering::Relaxed);
        assert_eq!(p.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn adjacent_padded_values_live_on_distinct_lines() {
        let arr = [CachePadded::new(0u8), CachePadded::new(0u8)];
        let a = &arr[0] as *const _ as usize;
        let b = &arr[1] as *const _ as usize;
        assert!(b - a >= 128);
    }

    #[test]
    fn bitmap_set_clear_get() {
        let bm = AtomicBitmap::new(130);
        assert_eq!(bm.capacity(), 130);
        assert!(!bm.any_set());
        for i in [0usize, 1, 63, 64, 127, 129] {
            assert!(!bm.get(i));
            bm.set(i);
            assert!(bm.get(i));
        }
        assert!(bm.any_set());
        bm.clear(64);
        assert!(!bm.get(64));
        assert!(bm.get(63) && bm.get(127));
    }

    #[test]
    fn bitmap_iter_set_bits_ascending() {
        let bm = AtomicBitmap::new(256);
        let expect = [0usize, 5, 63, 64, 65, 128, 255];
        for &i in expect.iter().rev() {
            bm.set(i);
        }
        let got: Vec<usize> = bm.iter_set_bits().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn bitmap_load_word_matches_bits() {
        let bm = AtomicBitmap::new(130);
        for i in [0usize, 63, 64, 129] {
            bm.set(i);
        }
        assert_eq!(bm.load_word(0), 1 | (1u64 << 63));
        assert_eq!(bm.load_word(1), 1);
        assert_eq!(bm.load_word(2), 2);
    }

    #[test]
    fn bitmap_count_set() {
        let bm = AtomicBitmap::new(200);
        assert_eq!(bm.count_set(), 0);
        for i in [0usize, 63, 64, 199] {
            bm.set(i);
        }
        assert_eq!(bm.count_set(), 4);
        bm.clear(64);
        assert_eq!(bm.count_set(), 3);
    }

    #[test]
    fn bitmap_iter_empty() {
        let bm = AtomicBitmap::new(128);
        assert_eq!(bm.iter_set_bits().count(), 0);
        bm.set(77);
        bm.clear(77);
        assert_eq!(bm.iter_set_bits().count(), 0);
    }

    #[test]
    fn bitmap_set_is_idempotent_and_concurrent_bits_independent() {
        let bm = AtomicBitmap::new(64);
        bm.set(3);
        bm.set(3);
        bm.set(9);
        assert_eq!(bm.iter_set_bits().collect::<Vec<_>>(), vec![3, 9]);
        bm.clear(3);
        assert_eq!(bm.iter_set_bits().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn bitmap_words_are_cache_padded() {
        // One padded word per 64 bits: slots 0..64 and 64..128 must live on
        // distinct cache-line pairs so spinning servers don't false-share.
        let bm = AtomicBitmap::new(128);
        bm.set(0);
        bm.set(64);
        let w0 = &bm.words[0] as *const _ as usize;
        let w1 = &bm.words[1] as *const _ as usize;
        assert!(w1 - w0 >= 128);
    }

    #[test]
    fn heartbeat_alive_guard_clears_on_unwind() {
        let hb = Heartbeat::default();
        assert!(!hb.is_alive());
        {
            let _g = hb.alive_guard();
            assert!(hb.is_alive());
            hb.beat();
            hb.beat();
            assert_eq!(hb.beats(), 2);
        }
        assert!(!hb.is_alive());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = hb.alive_guard();
            panic!("server crash");
        }));
        assert!(r.is_err());
        assert!(!hb.is_alive(), "unwind must clear the alive flag");
    }

    #[test]
    fn backoff_eventually_yields() {
        let mut b = Backoff::new();
        assert!(!b.is_yielding());
        for _ in 0..=SPIN_LIMIT + 1 {
            b.snooze();
        }
        assert!(b.is_yielding());
        b.reset();
        assert!(!b.is_yielding());
    }
}
