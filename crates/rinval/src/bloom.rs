//! Read/write-set signatures as Bloom filters.
//!
//! InvalSTM (paper §II) detects conflicts by intersecting the committing
//! transaction's *write* Bloom filter with every in-flight transaction's
//! *read* Bloom filter: constant time regardless of set sizes, at the price
//! of false conflicts. RInval inherits the same signatures but moves the
//! intersection onto server cores.
//!
//! Two flavours live here:
//!
//! * [`Bloom`] — plain, owned by exactly one thread (a transaction's private
//!   write signature, or the commit-server's working copy).
//! * [`AtomicBloom`] — shared, written by its owning transaction with plain
//!   atomic stores and scanned concurrently by committers / invalidation
//!   servers. Only the owner mutates it, so no read-modify-write is needed —
//!   one of the "no CAS anywhere" properties the paper is after.
//!
//! ## The occupancy summary
//!
//! A signature is 256 words (2 KiB, 32 cache lines) and a transaction sets
//! a few dozen bits in it, so both flavours carry a 4-word *summary*: bit
//! `w` set iff word `w` may be non-zero (exact for [`Bloom`]; a superset
//! for [`AtomicBloom`], whose owner maintains it with the same plain
//! load/OR/store as the word itself). Every whole-filter operation — clear,
//! copy, union, intersection, snapshot — walks a summary instead of the
//! 256 words, so clearing, publishing and testing a signature touch the
//! lines that hold something, not all 32. There is one representation and
//! no dense fallback; results are bit-for-bit those of the dense walk,
//! which survives only as the word-at-a-time `_scalar` oracles in
//! [`cores`] that `tests/scan_equiv.rs` and the `server_scan` bench's
//! replica compare against.
//!
//! **Whose summary a scan may trust.** Words are skipped only on the
//! summary of a *private or frozen* operand: a `Bloom`, a `req_write_bf`
//! whose request was claimed, a `commit_ring` entry after the odd-timestamp
//! store. The conflict test against a live reader's concurrently written
//! `read_bf` ([`AtomicBloom::intersects_plain`]) never reads that filter's
//! summary: it loads `read_bf.words[w]` for every `w` the *writer's*
//! summary names — exactly the words a dense walk could find a shared bit
//! in — with `Relaxed` loads made sound by the `SeqCst` fences around the
//! timestamp protocol (see `algo/invalstm.rs`). For the same reason the
//! owner's summary store needs no ordering against its word store: nobody
//! else reads it while the owner is live.

use crate::sync::mix64;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of 64-bit words per filter: 16384 bits (2 KiB).
///
/// Signature *intersection* (unlike membership) false-positives scale as
/// `NUM_HASHES² · |writes| · |reads| / BLOOM_BITS`, so fewer probes and more
/// bits are strictly better here: one probe and 16 Ki bits keeps the
/// pairwise false-conflict rate below ~1% for the paper's red-black-tree
/// workload (≈32-word read sets) while large-read-set STAMP workloads
/// (genome, vacation) retain the elevated false-conflict rate the paper
/// blames for invalidation's losses there.
pub const BLOOM_WORDS: usize = 256;
/// Total bits per filter.
pub const BLOOM_BITS: usize = BLOOM_WORDS * 64;
/// Independent probe positions per inserted key.
pub const NUM_HASHES: usize = 1;
/// Words per occupancy summary: one bit per filter word.
const SUMMARY_WORDS: usize = BLOOM_WORDS / 64;

/// An occupancy summary (see the module docs), or a mask over one.
type Summary = [u64; SUMMARY_WORDS];

/// Derives `NUM_HASHES` bit positions from a word address.
///
/// SplitMix64 finalizer: cheap, high-quality avalanche, and — unlike the
/// default `std` hasher — allocation- and state-free, which matters because
/// this runs on every transactional read.
#[inline]
fn probe_bits(addr: u32) -> [u32; NUM_HASHES] {
    let z = mix64((addr as u64).wrapping_add(0x9E37_79B9_7F4A_7C15));
    [(z as u32) % BLOOM_BITS as u32]
}

/// `(index, single-bit mask)` of bit `bit` in an array of 64-bit words —
/// the one place the bit-mix arithmetic lives: probe bits address filter
/// words through it, word indices address summary words.
#[inline]
fn bit_ref(bit: u32) -> (usize, u64) {
    ((bit / 64) as usize, 1u64 << (bit % 64))
}

/// The indices of the filter words that `mask` — word `s` of a summary,
/// or part of it — names, ascending. Every whole-filter op is a loop over
/// the summary words around this, so the mask being walked and whatever
/// the op accumulates per summary word stay in registers.
#[inline]
fn named(s: usize, mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = (mask != 0).then(|| s * 64 + mask.trailing_zeros() as usize);
        mask &= mask.wrapping_sub(1);
        bit
    })
}

/// Summary bit of filter word `w` if its value `x` is non-zero, else 0.
#[inline]
fn occupied(w: usize, x: u64) -> u64 {
    if x != 0 {
        bit_ref(w as u32).1
    } else {
        0
    }
}

/// The dense oracles: word-at-a-time walks of all [`BLOOM_WORDS`] words
/// that never consult a summary.
///
/// No product path calls them. `tests/scan_equiv.rs` and the unit tests
/// below hold every summary-walking op on [`Bloom`] / [`AtomicBloom`] to
/// bit-identical results against them, and the `server_scan` bench's
/// replica of the pre-kernel scan is built on
/// [`intersects_plain_scalar`](cores::intersects_plain_scalar).
///
/// Hidden from docs: these are test probes, not API.
#[doc(hidden)]
pub mod cores {
    use super::{bit_ref, AtomicBloom, Bloom, Summary, BLOOM_WORDS, SUMMARY_WORDS};
    use std::sync::atomic::Ordering;

    /// The exact summary of a word array.
    fn summarize(words: &[u64; BLOOM_WORDS]) -> Summary {
        let mut summary = [0; SUMMARY_WORDS];
        for (w, &x) in words.iter().enumerate() {
            if x != 0 {
                let (s, b) = bit_ref(w as u32);
                summary[s] |= b;
            }
        }
        summary
    }

    /// Dense snapshot of every word of `src`, summarized from the words.
    pub fn load_scalar(src: &AtomicBloom) -> Bloom {
        let words = std::array::from_fn(|w| src.words[w].load(Ordering::Relaxed));
        Bloom {
            words,
            summary: summarize(&words),
        }
    }

    /// The [`Bloom`] invariant: summary bit set ⇔ word non-zero.
    pub fn summary_is_exact(b: &Bloom) -> bool {
        b.summary == summarize(&b.words)
    }

    /// The [`AtomicBloom`] invariant: summary bit set ⇐ word non-zero.
    pub fn summary_covers(a: &AtomicBloom) -> bool {
        let exact = load_scalar(a).summary;
        (0..SUMMARY_WORDS).all(|s| exact[s] & !a.summary[s].load(Ordering::Relaxed) == 0)
    }

    /// Oracle of [`Bloom::intersects`]: first intersecting word wins.
    pub fn intersects_scalar(a: &Bloom, b: &Bloom) -> bool {
        a.words
            .iter()
            .zip(b.words.iter())
            .any(|(&x, &y)| x & y != 0)
    }

    /// Oracle of [`AtomicBloom::intersects_plain`] (and of its `_sparse`
    /// wrapper).
    pub fn intersects_plain_scalar(a: &AtomicBloom, b: &Bloom) -> bool {
        a.words
            .iter()
            .zip(b.words.iter())
            .any(|(x, &y)| x.load(Ordering::Relaxed) & y != 0)
    }

    /// Oracle of [`AtomicBloom::snapshot_intersect2`] (and, ignoring the
    /// hits, of [`AtomicBloom::load_into`]).
    pub fn snapshot_intersect2_scalar(
        src: &AtomicBloom,
        dst: &mut Bloom,
        a: &Bloom,
        b: &Bloom,
    ) -> (bool, bool) {
        *dst = load_scalar(src);
        (intersects_scalar(dst, a), intersects_scalar(dst, b))
    }

    /// Oracle of [`AtomicBloom::or_into`].
    pub fn or_into_scalar(src: &AtomicBloom, dst: &mut Bloom) {
        for (d, &s) in dst.words.iter_mut().zip(load_scalar(src).words.iter()) {
            *d |= s;
        }
        dst.summary = summarize(&dst.words);
    }
}

/// A signature's summary as [`Bloom::nonzero_words`] captures it, for
/// callers (the benchmark ledger's probes) written against the two-step
/// conflict test [`AtomicBloom::intersects_plain_sparse`]. Every
/// intersection walks the summary; product code calls
/// [`AtomicBloom::intersects_plain`].
pub struct NonZeroWords(Summary);

/// A thread-private Bloom filter over heap word addresses.
#[derive(Clone, Debug)]
pub struct Bloom {
    words: [u64; BLOOM_WORDS],
    /// Bit `w` set ⇔ `words[w] != 0`.
    summary: Summary,
}

impl Default for Bloom {
    fn default() -> Self {
        Self::new()
    }
}

impl Bloom {
    /// An empty filter.
    pub const fn new() -> Self {
        Bloom {
            words: [0; BLOOM_WORDS],
            summary: [0; SUMMARY_WORDS],
        }
    }

    /// Inserts a word address.
    #[inline]
    pub fn insert(&mut self, addr: u32) {
        for bit in probe_bits(addr) {
            let (w, m) = bit_ref(bit);
            self.words[w] |= m;
            let (s, b) = bit_ref(w as u32);
            self.summary[s] |= b;
        }
    }

    /// Membership test. Never returns `false` for an inserted address.
    #[inline]
    pub fn may_contain(&self, addr: u32) -> bool {
        probe_bits(addr).iter().all(|&bit| {
            let (w, m) = bit_ref(bit);
            self.words[w] & m != 0
        })
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.summary == [0; SUMMARY_WORDS]
    }

    /// Removes every element (zeroes the words that hold one).
    pub fn clear(&mut self) {
        for (s, mark) in self.summary.iter_mut().enumerate() {
            named(s, *mark).for_each(|w| self.words[w] = 0);
            *mark = 0;
        }
    }

    /// True if the two filters share at least one set bit — the conflict
    /// test used by commit-time invalidation (`write_bf intersects read_bf`),
    /// plain × plain; only words both summaries name can hold a shared bit.
    #[inline]
    pub fn intersects(&self, other: &Bloom) -> bool {
        (0..SUMMARY_WORDS).any(|s| {
            named(s, self.summary[s] & other.summary[s])
                .any(|w| self.words[w] & other.words[w] != 0)
        })
    }

    /// Raw words, used when publishing into an [`AtomicBloom`].
    pub fn words(&self) -> &[u64; BLOOM_WORDS] {
        &self.words
    }

    /// The summary, as [`AtomicBloom::intersects_plain_sparse`] takes it
    /// (see [`NonZeroWords`]).
    pub fn nonzero_words(&self) -> NonZeroWords {
        NonZeroWords(self.summary)
    }

    /// Number of set bits (diagnostics only).
    pub fn popcount(&self) -> u32 {
        (0..SUMMARY_WORDS)
            .flat_map(|s| named(s, self.summary[s]))
            .map(|w| self.words[w].count_ones())
            .sum()
    }

    /// Overwrites `self` with a filter whose summary is `src` and whose
    /// word `w` is `load(w)`: zeroes the words only the old contents
    /// named, stores the ones `src` names and re-derives the exact summary
    /// from what was loaded (`src` may over-approximate).
    #[inline]
    fn assign(&mut self, src: Summary, mut load: impl FnMut(usize) -> u64) {
        for (s, mark) in self.summary.iter_mut().enumerate() {
            named(s, *mark & !src[s]).for_each(|w| self.words[w] = 0);
            *mark = 0;
            named(s, src[s]).for_each(|w| {
                self.words[w] = load(w);
                *mark |= occupied(w, self.words[w]);
            });
        }
    }
}

/// A Bloom filter written by one owner thread and scanned by others.
///
/// Ownership discipline (enforced by the STM runtime, not the type system):
/// only the transaction that owns the surrounding registry slot calls
/// [`AtomicBloom::owner_insert`] / [`AtomicBloom::owner_clear`] /
/// [`AtomicBloom::store_from`]; any thread may call the read-side methods.
/// Cross-thread visibility of individual bits is *not* synchronized here —
/// the algorithms order bloom accesses with `SeqCst` fences around the
/// global-timestamp protocol (see `algo/invalstm.rs` for the argument).
///
/// Of the read-side methods, [`AtomicBloom::intersects_plain`] and
/// [`AtomicBloom::may_contain`] are safe against a live owner; the
/// snapshot ops ([`AtomicBloom::load_into`], [`AtomicBloom::or_into`],
/// [`AtomicBloom::snapshot_intersect2`]) walk this filter's own summary
/// and are for *frozen* filters only — ones whose owner published them and
/// is waiting (module docs).
#[derive(Debug)]
pub struct AtomicBloom {
    words: [AtomicU64; BLOOM_WORDS],
    /// Bit `w` set ⇐ `words[w] != 0`, as the owner (or a reader of a
    /// frozen filter) sees it.
    summary: [AtomicU64; SUMMARY_WORDS],
}

impl Default for AtomicBloom {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicBloom {
    /// An empty filter.
    pub fn new() -> Self {
        AtomicBloom {
            words: [const { AtomicU64::new(0) }; BLOOM_WORDS],
            summary: [const { AtomicU64::new(0) }; SUMMARY_WORDS],
        }
    }

    #[inline]
    fn summary(&self) -> Summary {
        std::array::from_fn(|s| self.summary[s].load(Ordering::Relaxed))
    }

    /// Owner-only: insert an address (plain load + store, no RMW), word
    /// and summary alike.
    #[inline]
    pub fn owner_insert(&self, addr: u32) {
        for bit in probe_bits(addr) {
            let (w, m) = bit_ref(bit);
            let word = &self.words[w];
            word.store(word.load(Ordering::Relaxed) | m, Ordering::Relaxed);
            let (s, b) = bit_ref(w as u32);
            let mark = &self.summary[s];
            mark.store(mark.load(Ordering::Relaxed) | b, Ordering::Relaxed);
        }
    }

    /// Owner-only: reset to empty (zeroes the words the summary names).
    pub fn owner_clear(&self) {
        for (s, mark) in self.summary.iter().enumerate() {
            named(s, mark.load(Ordering::Relaxed))
                .for_each(|w| self.words[w].store(0, Ordering::Relaxed));
            mark.store(0, Ordering::Relaxed);
        }
    }

    /// Owner-only: overwrite with the contents of a private filter
    /// (publishing a write signature into a request or ring slot). Slots
    /// are reused, so the words only the *old* summary names are zeroed.
    pub fn store_from(&self, src: &Bloom) {
        for (s, mark) in self.summary.iter().enumerate() {
            let new = src.summary[s];
            named(s, mark.load(Ordering::Relaxed) & !new)
                .for_each(|w| self.words[w].store(0, Ordering::Relaxed));
            named(s, new).for_each(|w| self.words[w].store(src.words[w], Ordering::Relaxed));
            mark.store(new, Ordering::Relaxed);
        }
    }

    /// Frozen filters only: snapshot into a private filter, replacing
    /// whatever `dst` held (commit-server copying a request's write
    /// signature; invalidation-server copying a ring entry).
    pub fn load_into(&self, dst: &mut Bloom) {
        dst.assign(self.summary(), |w| self.words[w].load(Ordering::Relaxed));
    }

    /// Frozen filters only: ORs the current contents into a private filter
    /// (one pass; crash recovery merges the claimed requests' write
    /// signatures with it, without an intermediate snapshot).
    pub fn or_into(&self, dst: &mut Bloom) {
        for (s, mark) in dst.summary.iter_mut().enumerate() {
            named(s, self.summary[s].load(Ordering::Relaxed)).for_each(|w| {
                let x = self.words[w].load(Ordering::Relaxed);
                dst.words[w] |= x;
                *mark |= occupied(w, x);
            });
        }
    }

    /// Frozen filters only: fused snapshot-and-test. Loads the current
    /// contents into `dst` (as [`AtomicBloom::load_into`]) and, in the same
    /// pass over the occupied words, reports whether that snapshot
    /// intersects `a` and whether it intersects `b`. The returned pair is
    /// `(dst ∩ a, dst ∩ b)` for exactly the snapshot left in `dst`.
    ///
    /// No product path calls it: it is kept only for the benchmark ledger's
    /// frozen `bloom.snapshot_intersect2_ns` probe, with its oracle in
    /// [`cores`].
    #[inline]
    pub fn snapshot_intersect2(&self, dst: &mut Bloom, a: &Bloom, b: &Bloom) -> (bool, bool) {
        let (mut hit_a, mut hit_b) = (0, 0);
        dst.assign(self.summary(), |w| {
            let x = self.words[w].load(Ordering::Relaxed);
            hit_a |= x & a.words[w];
            hit_b |= x & b.words[w];
            x
        });
        (hit_a != 0, hit_b != 0)
    }

    /// True if `write_sig` shares a bit with this (read) signature — the
    /// conflict test against a possibly *live* reader. Loads this filter's
    /// word for every word `write_sig`'s summary names and never looks at
    /// this filter's own summary (module docs).
    #[inline]
    pub fn intersects_plain(&self, write_sig: &Bloom) -> bool {
        (0..SUMMARY_WORDS).any(|s| {
            named(s, write_sig.summary[s])
                .any(|w| self.words[w].load(Ordering::Relaxed) & write_sig.words[w] != 0)
        })
    }

    /// The two-step spelling of [`AtomicBloom::intersects_plain`]: `nz`
    /// must be [`Bloom::nonzero_words`] of `write_sig`.
    #[inline]
    pub fn intersects_plain_sparse(&self, write_sig: &Bloom, nz: &NonZeroWords) -> bool {
        debug_assert_eq!(nz.0, write_sig.summary);
        self.intersects_plain(write_sig)
    }

    /// Membership test against the current contents.
    pub fn may_contain(&self, addr: u32) -> bool {
        probe_bits(addr).iter().all(|&bit| {
            let (w, m) = bit_ref(bit);
            self.words[w].load(Ordering::Relaxed) & m != 0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_contains_nothing() {
        let b = Bloom::new();
        assert!(b.is_empty());
        for addr in [0u32, 1, 17, 4096, u32::MAX] {
            assert!(!b.may_contain(addr));
        }
    }

    #[test]
    fn insert_then_contains() {
        let mut b = Bloom::new();
        for addr in 0..200u32 {
            b.insert(addr * 31 + 7);
        }
        for addr in 0..200u32 {
            assert!(b.may_contain(addr * 31 + 7));
        }
    }

    #[test]
    fn clear_empties() {
        let mut b = Bloom::new();
        b.insert(42);
        assert!(!b.is_empty());
        b.clear();
        assert!(b.is_empty());
        assert!(!b.may_contain(42));
    }

    #[test]
    fn disjoint_filters_do_not_intersect_often() {
        // Two signatures over disjoint address ranges should intersect only
        // via Bloom false positives, which must be rare at these set sizes.
        let mut false_hits = 0;
        for trial in 0..100u32 {
            let mut a = Bloom::new();
            let mut b = Bloom::new();
            for i in 0..20u32 {
                a.insert(trial * 1000 + i);
                b.insert(500_000 + trial * 1000 + i);
            }
            if a.intersects(&b) {
                false_hits += 1;
            }
        }
        assert!(
            false_hits < 20,
            "too many false intersections: {false_hits}"
        );
    }

    #[test]
    fn overlapping_filters_intersect() {
        let mut a = Bloom::new();
        let mut b = Bloom::new();
        a.insert(12345);
        b.insert(12345);
        assert!(a.intersects(&b));
    }

    #[test]
    fn false_positive_rate_is_reasonable() {
        let mut b = Bloom::new();
        for i in 0..100u32 {
            b.insert(i);
        }
        let mut fp = 0;
        let probes = 10_000u32;
        for i in 1_000_000..1_000_000 + probes {
            if b.may_contain(i) {
                fp += 1;
            }
        }
        // ~ 100/16384 ≈ 0.6%; allow generous slack.
        assert!(
            fp < probes / 10,
            "false positive rate too high: {fp}/{probes}"
        );
    }

    #[test]
    fn atomic_bloom_roundtrip() {
        let ab = AtomicBloom::new();
        ab.owner_insert(7);
        ab.owner_insert(9999);
        assert!(ab.may_contain(7));
        assert!(ab.may_contain(9999));

        let mut snap = Bloom::new();
        ab.load_into(&mut snap);
        assert!(snap.may_contain(7));
        assert!(snap.may_contain(9999));

        ab.owner_clear();
        assert!(!ab.may_contain(7));
    }

    #[test]
    fn atomic_bloom_store_from_and_intersect() {
        let mut w = Bloom::new();
        w.insert(1234);
        let ab = AtomicBloom::new();
        ab.store_from(&w);
        assert!(ab.may_contain(1234));

        let reads = AtomicBloom::new();
        reads.owner_insert(1234);
        assert!(reads.intersects_plain(&w));

        let disjoint = AtomicBloom::new();
        disjoint.owner_insert(777_777);
        // Might be a false positive in principle, but not for this pair.
        assert!(!disjoint.intersects_plain(&w));
    }

    #[test]
    fn or_into_merges() {
        let mut a = Bloom::new();
        a.insert(1);
        let ab = AtomicBloom::new();
        ab.owner_insert(3);
        ab.or_into(&mut a);
        assert!(a.may_contain(1) && a.may_contain(3));
    }

    #[test]
    fn snapshot_intersect2_matches_separate_ops() {
        // The fused pass must agree with the three ops it fuses (load_into +
        // intersects against each filter), snapshot included.
        let shared = AtomicBloom::new();
        for a in [3u32, 99, 4097, 70_000] {
            shared.owner_insert(a);
        }
        let mut a = Bloom::new();
        a.insert(99); // overlaps `shared`
        let mut b = Bloom::new();
        b.insert(123_456); // disjoint from `shared`

        let mut fused = Bloom::new();
        let (hit_a, hit_b) = shared.snapshot_intersect2(&mut fused, &a, &b);

        let mut plain = Bloom::new();
        shared.load_into(&mut plain);
        assert_eq!(plain.words(), fused.words());
        assert_eq!(hit_a, plain.intersects(&a));
        assert_eq!(hit_b, plain.intersects(&b));
        assert!(hit_a && !hit_b);
    }

    #[test]
    fn summary_walks_agree_with_dense_oracles() {
        // Spot-check (the exhaustive version is the proptest suite in
        // tests/scan_equiv.rs): every op agrees with its dense oracle on
        // filters whose set bits straddle all four summary words, with
        // destinations that already hold another signature.
        let mut a = Bloom::new();
        let mut b = Bloom::new();
        let shared_a = AtomicBloom::new();
        for i in 0..300u32 {
            a.insert(i * 7919);
            shared_a.owner_insert(i * 7919);
            b.insert(i * 104_729 + 13);
        }
        assert!(cores::summary_is_exact(&a) && cores::summary_covers(&shared_a));
        assert_eq!(cores::load_scalar(&shared_a).words(), a.words());
        assert_eq!(a.intersects(&b), cores::intersects_scalar(&a, &b));
        assert_eq!(
            shared_a.intersects_plain(&b),
            cores::intersects_plain_scalar(&shared_a, &b)
        );
        let (mut s1, mut s2) = (b.clone(), b.clone());
        let h1 = shared_a.snapshot_intersect2(&mut s1, &a, &b);
        let h2 = cores::snapshot_intersect2_scalar(&shared_a, &mut s2, &a, &b);
        assert_eq!(h1, h2);
        assert_eq!(s1.words(), s2.words());
        assert!(cores::summary_is_exact(&s1));

        let (mut o1, mut o2) = (b.clone(), b.clone());
        shared_a.or_into(&mut o1);
        cores::or_into_scalar(&shared_a, &mut o2);
        assert_eq!(o1.words(), o2.words());
        assert!(cores::summary_is_exact(&o1));
    }

    #[test]
    fn reused_slots_keep_no_stale_word() {
        // Request and ring slots are overwritten, never cleared first: a
        // small signature stored over a large one must leave exactly the
        // small one behind, checked densely.
        let (mut large, mut small) = (Bloom::new(), Bloom::new());
        for i in 0..500u32 {
            large.insert(i * 31 + 7);
        }
        small.insert(1234);
        let slot = AtomicBloom::new();
        slot.store_from(&large);
        slot.store_from(&small);
        assert_eq!(cores::load_scalar(&slot).words(), small.words());
        assert!(cores::summary_covers(&slot));

        let mut snap = large.clone();
        slot.load_into(&mut snap);
        assert_eq!(snap.words(), small.words());
        assert!(cores::summary_is_exact(&snap));

        slot.store_from(&large);
        slot.owner_clear();
        assert!(cores::load_scalar(&slot).is_empty());
        large.clear();
        assert!(large.is_empty() && large.words().iter().all(|&w| w == 0));
    }

    #[test]
    fn conflict_test_never_trusts_the_readers_summary() {
        // The owner's word store and summary store are two relaxed stores;
        // a scanner may see the word without the summary bit. The conflict
        // test walks the *writer's* summary, so it still reports the hit.
        let reader = AtomicBloom::new();
        reader.owner_insert(1234);
        reader
            .summary
            .iter()
            .for_each(|mark| mark.store(0, Ordering::Relaxed));
        assert!(!cores::summary_covers(&reader));
        let mut w = Bloom::new();
        w.insert(1234);
        assert!(reader.intersects_plain(&w));
        assert!(reader.intersects_plain_sparse(&w, &w.nonzero_words()));
    }

    #[test]
    fn probe_bits_in_range_and_stable() {
        for addr in [0u32, 1, 63, 64, 12345, u32::MAX] {
            let p1 = probe_bits(addr);
            let p2 = probe_bits(addr);
            assert_eq!(p1, p2);
            for b in p1 {
                assert!((b as usize) < BLOOM_BITS);
            }
        }
    }
}
