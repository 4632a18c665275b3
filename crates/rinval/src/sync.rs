//! Low-level synchronization utilities shared by every algorithm.
//!
//! The paper's whole point is that *how* you wait matters: spinning on a
//! shared lock generates cache-coherence traffic, while spinning on a
//! core-private, cache-aligned word does not. The paper can also assume
//! that every server owns a core. This host cannot — client, commit-server
//! and invalidation-server routinely share two cores, and the OS decides
//! which of them share one — so the second half of waiting well is getting
//! *off* the core when the thread being waited for needs it. This module
//! holds the building blocks for both:
//!
//! * [`CachePadded`] — aligns a value to its own cache-line pair so that two
//!   logically unrelated hot words never share a line (false sharing).
//! * [`Waiter`] — the one waiting discipline, used at every wait in the
//!   crate: a sub-microsecond spin, a bounded run of `yield_now` (which on
//!   an oversubscribed host *is* the hand-off), then `park_timeout` behind
//!   a [`Sleeper`] flag. The three protocol waits — client on its
//!   request cell, commit-server on the pending summary and on lagging
//!   invalidators, invalidation-server on the timestamp — have a designated
//!   poster and park; the seqlock waits have none and use the front half
//!   alone, [`SpinYield`] (one word, so the per-read wait loops pay nothing
//!   for a park they never reach). No other file under `crates/rinval/src`
//!   calls `yield_now` or `park` (bar `cm.rs`'s abort backoff, which waits
//!   for nobody), and CI's lint job keeps it so.
//! * [`Sleeper`] — the flag a parked waiter raises in a line it already
//!   owns (a client's `TxSlot`, a server seat's [`Heartbeat`]); posters
//!   pay one load of it after their publishing store.
//! * [`AtomicBitmap`] — a summary bitmap (one `AtomicU64` per 64 slots,
//!   each word cache-padded) that lets server threads visit only the
//!   registry slots that are actually pending/live instead of walking the
//!   whole `max_threads` array on every pass.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

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
/// join the same total-order arguments as the request word and `tx_status`
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
    alive: CachePadded<AtomicBool>,
    /// Raised while the seat's server is (about to be) parked; whoever
    /// publishes work for the seat checks it ([`Sleeper::wake`]).
    pub(crate) sleeper: Sleeper,
}

impl Default for Heartbeat {
    fn default() -> Heartbeat {
        Heartbeat {
            beats: CachePadded::new(AtomicU64::new(0)),
            alive: CachePadded::new(AtomicBool::new(false)),
            sleeper: Sleeper::default(),
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

/// Exponential spin rounds of a [`Waiter`] before its first `yield_now`:
/// rounds of 1, 2, 4 and 8 `spin_loop`s — 15 pauses, under a microsecond —
/// cover a reply that is already on its way between two cores.
const SPIN_ROUNDS: u32 = 4;

/// `yield_now` rounds of a [`Waiter`] before it may park (≈ 2.7 ms alone on
/// a core, longer when the core is shared). On an oversubscribed host the
/// yield *is* the hand-off to the thread being waited for; it must outlast
/// every gap inside the protocol so that only a genuinely idle thread
/// parks — and the longest such gap is not a transaction body or a
/// write-back but the peer being *off its core*: preempted for a scheduler
/// slice, or itself parked and being woken. A budget shorter than that
/// (256 rounds ≈ 85 µs was tried) lets one preemption park the waiter, the
/// waiter's wake-up outlast the peer's budget in turn, and the two keep
/// parking on each other: measured on `rinval-v1`, up to 22 000 hot-path
/// parks in 30 s, quarter-second windows anywhere between 3 k and 690 k
/// tx/s, against under 300 parks and an 8 % quartile distance with this
/// value (DESIGN.md §12).
const YIELD_ROUNDS: u32 = 8192;

/// The park half of the waiting discipline: a *sleeper flag* in a cache
/// line the waiter already owns, plus the `Thread` to unpark.
///
/// Lost wakes are excluded by a store→load (Dekker) pair on each side, all
/// `SeqCst`. The waiter stores the flag, *then* re-loads its condition and
/// parks only if it still does not hold; a poster stores the condition,
/// *then* loads the flag ([`Sleeper::wake`]). In the total order either the
/// flag store precedes the poster's flag load — the poster unparks, and an
/// unpark that beats the park leaves a token that makes the park return at
/// once — or the poster's condition store precedes the waiter's re-load and
/// the waiter never parks. The poster's fast path is therefore its own
/// publishing store plus one load of this flag: no CAS, and no syscall
/// unless a waiter announced itself.
#[derive(Debug, Default)]
pub struct Sleeper {
    asleep: AtomicBool,
    /// Republished on every [`Sleeper::announce`], so a respawned server or
    /// a handle that moved to another OS thread is never woken through a
    /// stale `Thread`.
    thread: Mutex<Option<Thread>>,
}

impl Sleeper {
    /// Waiter side, step one: publish the calling thread and raise the
    /// flag. The caller must re-check its condition before parking.
    pub(crate) fn announce(&self) {
        let me = std::thread::current();
        let mut t = self.thread.lock().unwrap_or_else(PoisonError::into_inner);
        if t.as_ref().map(Thread::id) != Some(me.id()) {
            *t = Some(me);
        }
        drop(t);
        self.asleep.store(true, Ordering::SeqCst);
    }

    /// Lowers the flag (waiter side; also slot recycling).
    pub(crate) fn retract(&self) {
        self.asleep.store(false, Ordering::SeqCst);
    }

    /// Poster side, called *after* the store that publishes what the waiter
    /// waits for: unparks the waiter if it announced itself. Returns
    /// whether a wake was sent.
    #[inline]
    pub fn wake(&self) -> bool {
        if !self.asleep.load(Ordering::SeqCst) || !self.asleep.swap(false, Ordering::SeqCst) {
            return false;
        }
        if let Some(t) = &*self.thread.lock().unwrap_or_else(PoisonError::into_inner) {
            t.unpark();
        }
        true
    }
}

/// The front half of the waiting discipline — spin, then yield — and all
/// of it for the waits that have no designated poster (the seqlock waits:
/// whoever releases the timestamp owes nobody a wake). One word of state,
/// so a wait loop that never has to wait pays nothing for it.
#[derive(Debug, Default)]
pub struct SpinYield {
    step: u32,
}

impl SpinYield {
    /// A fresh budget.
    pub const fn new() -> Self {
        SpinYield { step: 0 }
    }

    /// Restarts the budget after the awaited condition made progress.
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// True once the spin phase is over — each further pause costs a
    /// syscall, so this is where callers re-check their escape conditions
    /// (deadline, shutdown, degradation) without taxing the fast path.
    pub fn is_yielding(&self) -> bool {
        self.step >= SPIN_ROUNDS
    }

    /// True once the yield budget is spent too: a [`Waiter`] parks from
    /// here on.
    fn exhausted(&self) -> bool {
        self.step >= SPIN_ROUNDS + YIELD_ROUNDS
    }

    /// Waits a little: the first `SPIN_ROUNDS` calls spin, every later one
    /// yields to the OS.
    #[inline]
    pub fn pause(&mut self) {
        if self.step < SPIN_ROUNDS {
            for _ in 0..(1u32 << self.step) {
                core::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        self.step = self.step.saturating_add(1);
    }
}

/// The one wait primitive of the three protocol waits: spin → yield → park.
///
/// Call [`Waiter::pause`] in any loop that waits on another thread, and
/// re-check the awaited condition on every iteration. The spin and yield
/// phases are [`SpinYield`]'s; once that budget is spent the waiter
/// alternates between *announcing* itself on its [`Sleeper`] — returning so
/// the caller's loop performs the re-check the Dekker argument needs — and
/// `park_timeout`. Every park is bounded, so a wake the argument does not
/// cover (a condition with no poster) costs latency, never a hang.
#[derive(Debug)]
pub struct Waiter<'a> {
    front: SpinYield,
    announced: bool,
    sleeper: &'a Sleeper,
    /// Longest single park.
    bound: Duration,
    /// Parks never extend past this instant (a client's attempt deadline).
    deadline: Option<Instant>,
    /// Counts parks (relaxed statistic).
    parks: &'a AtomicU64,
}

impl<'a> Waiter<'a> {
    /// A waiter whose posters call [`Sleeper::wake`] on `sleeper`. Each
    /// park lasts at most `bound` and never past `deadline`; `parks` is
    /// bumped once per park.
    pub fn new(
        sleeper: &'a Sleeper,
        bound: Duration,
        deadline: Option<Instant>,
        parks: &'a AtomicU64,
    ) -> Self {
        Waiter {
            front: SpinYield::new(),
            announced: false,
            sleeper,
            bound,
            deadline,
            parks,
        }
    }

    /// Restarts the budget after the awaited condition made progress.
    pub fn reset(&mut self) {
        self.front.reset();
        self.retract();
    }

    /// See [`SpinYield::is_yielding`].
    pub fn is_yielding(&self) -> bool {
        self.front.is_yielding()
    }

    /// Waits a little: spin, then yield, then announce / park on alternate
    /// calls.
    pub fn pause(&mut self) {
        if !self.front.exhausted() {
            self.front.pause();
        } else if !self.announced {
            self.sleeper.announce();
            self.announced = true;
        } else {
            let bound = match self.deadline {
                Some(d) => self.bound.min(d.saturating_duration_since(Instant::now())),
                None => self.bound,
            };
            self.parks.fetch_add(1, Ordering::Relaxed);
            std::thread::park_timeout(bound);
            self.retract();
        }
    }

    fn retract(&mut self) {
        if std::mem::take(&mut self.announced) {
            self.sleeper.retract();
        }
    }
}

impl Drop for Waiter<'_> {
    fn drop(&mut self) {
        self.retract();
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
    fn spin_yield_spins_then_yields_forever() {
        let mut w = SpinYield::new();
        assert!(!w.is_yielding());
        for _ in 0..SPIN_ROUNDS {
            w.pause();
        }
        assert!(w.is_yielding());
        for _ in 0..2 * YIELD_ROUNDS {
            w.pause();
        }
        w.reset();
        assert!(!w.is_yielding());
    }

    #[test]
    fn waiter_announces_before_it_parks_and_retracts_on_exit() {
        let sleeper = Sleeper::default();
        let parks = AtomicU64::new(0);
        let mut w = Waiter::new(&sleeper, Duration::from_micros(50), None, &parks);
        for _ in 0..SPIN_ROUNDS + YIELD_ROUNDS {
            w.pause();
        }
        assert!(!sleeper.asleep.load(Ordering::SeqCst));
        // Announce and return, so the caller's loop re-checks its condition.
        w.pause();
        assert!(sleeper.asleep.load(Ordering::SeqCst));
        assert_eq!(parks.load(Ordering::Relaxed), 0);
        // Still waiting: park (bounded), then start the cycle over.
        w.pause();
        assert_eq!(parks.load(Ordering::Relaxed), 1);
        assert!(!sleeper.asleep.load(Ordering::SeqCst));
        w.pause();
        assert!(sleeper.asleep.load(Ordering::SeqCst));
        // The condition held on the re-check: leaving the loop lowers the flag.
        drop(w);
        assert!(!sleeper.asleep.load(Ordering::SeqCst));
        assert!(!sleeper.wake(), "nobody announced: no wake is sent");
    }

    #[test]
    fn wake_ends_a_park_early_and_a_park_never_outlasts_the_deadline() {
        const BOUND: Duration = Duration::from_secs(30);
        let sleeper = Sleeper::default();
        let parks = AtomicU64::new(0);
        let go = AtomicBool::new(false);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w = Waiter::new(&sleeper, BOUND, None, &parks);
                while !go.load(Ordering::SeqCst) {
                    w.pause();
                }
            });
            while parks.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            go.store(true, Ordering::SeqCst);
            assert!(sleeper.wake());
        });
        let mut w = Waiter::new(&sleeper, BOUND, Some(Instant::now()), &parks);
        for _ in 0..SPIN_ROUNDS + YIELD_ROUNDS + 2 {
            w.pause();
        }
        assert_eq!(parks.load(Ordering::Relaxed), 2);
        assert!(t0.elapsed() < BOUND / 2);
    }
}
