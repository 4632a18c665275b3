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
//! ## The one intersection, two memory flavours
//!
//! Every conflict test in the system is the same predicate — "do these two
//! 16384-bit signatures share a set bit?" — asked of two storage flavours:
//!
//! * [`Bloom::intersects`] — **plain × plain**: both operands are
//!   thread-private (the V1 server's batch signatures against a request
//!   snapshot).
//! * [`AtomicBloom::intersects_plain`] — **atomic-snapshot × plain**: the
//!   left operand is a concurrently-written shared signature (a live
//!   reader's `read_bf`), read word-by-word with `Relaxed` loads; the
//!   per-word snapshot is made sound by the `SeqCst` fences the algorithms
//!   place around the timestamp protocol (see `algo/invalstm.rs`).
//!
//! Both are thin wrappers over one shared lane-based core (module
//! [`cores`]): the words are processed in blocks of [`cores::LANES`]
//! accumulator lanes OR-combined into a single conflict mask, which LLVM
//! autovectorizes to SIMD for the plain flavour and turns into a 4-way
//! unrolled load/AND/OR chain (one branch per block instead of one per
//! word) for the atomic flavour. Each lane core has a word-at-a-time
//! `_scalar` twin that the public ops never call: it is the reference the
//! equivalence suite in `tests/scan_equiv.rs` and the unit tests below
//! compare against bit for bit, and the baseline the `server_scan` bench
//! times the lanes against.

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

/// `(word index, single-bit mask)` for a probe bit — the one place the
/// bit-mix arithmetic lives; both filter flavours' insert/membership paths
/// go through it.
#[inline]
fn bit_ref(bit: u32) -> (usize, u64) {
    ((bit / 64) as usize, 1u64 << (bit % 64))
}

/// The signature-op cores: a lane-based (autovectorization-friendly)
/// implementation and a word-at-a-time scalar reference for every hot
/// whole-filter operation.
///
/// The public [`Bloom`] / [`AtomicBloom`] methods always call the lane
/// cores. The `_scalar` twins are the reference: `tests/scan_equiv.rs`
/// asserts bit-identical results pairwise, and the `server_scan` bench
/// times one core against the other directly.
///
/// Hidden from docs: these are implementation probes, not API. Call the
/// methods on the filter types instead.
#[doc(hidden)]
pub mod cores {
    use super::{AtomicBloom, Bloom, BLOOM_WORDS};
    use std::sync::atomic::Ordering;

    /// Accumulator lanes per step: 4 × u64 matches one AVX2 register (and
    /// two SSE2 registers), which is what LLVM reliably vectorizes the
    /// plain loops to on stable Rust without `std::simd`.
    pub const LANES: usize = 4;
    /// Words per early-exit block of the intersection kernels: long enough
    /// to amortize the branch (8 × `LANES` lanes), short enough that a hit
    /// in the first cache lines still exits early.
    pub const BLOCK: usize = 32;
    const _: () = assert!(BLOOM_WORDS.is_multiple_of(BLOCK) && BLOCK.is_multiple_of(LANES));

    /// Lane core of plain × plain intersection: per block, `LANES`
    /// accumulators gather `a & b` and a single OR-combine decides the
    /// early exit.
    #[inline]
    pub fn intersects_lanes(a: &Bloom, b: &Bloom) -> bool {
        let (a, b) = (&a.words, &b.words);
        let mut base = 0;
        while base < BLOOM_WORDS {
            let mut acc = [0u64; LANES];
            let mut i = base;
            while i < base + BLOCK {
                for l in 0..LANES {
                    acc[l] |= a[i + l] & b[i + l];
                }
                i += LANES;
            }
            if acc.iter().fold(0, |m, &x| m | x) != 0 {
                return true;
            }
            base += BLOCK;
        }
        false
    }

    /// Scalar reference of [`intersects_lanes`]: first intersecting word
    /// wins.
    #[inline]
    pub fn intersects_scalar(a: &Bloom, b: &Bloom) -> bool {
        a.words
            .iter()
            .zip(b.words.iter())
            .any(|(&x, &y)| x & y != 0)
    }

    /// Lane core of atomic-snapshot × plain intersection. Atomic loads
    /// never autovectorize, so the win here is the 4-way unrolled
    /// load/AND/OR chain: one conflict-mask branch per [`BLOCK`] words
    /// instead of one per word, and four independent loads in flight.
    #[inline]
    pub fn intersects_plain_lanes(a: &AtomicBloom, b: &Bloom) -> bool {
        let (a, b) = (&a.words, &b.words);
        let mut base = 0;
        while base < BLOOM_WORDS {
            let mut acc = 0u64;
            let mut i = base;
            while i < base + BLOCK {
                acc |= (a[i].load(Ordering::Relaxed) & b[i])
                    | (a[i + 1].load(Ordering::Relaxed) & b[i + 1])
                    | (a[i + 2].load(Ordering::Relaxed) & b[i + 2])
                    | (a[i + 3].load(Ordering::Relaxed) & b[i + 3]);
                i += LANES;
            }
            if acc != 0 {
                return true;
            }
            base += BLOCK;
        }
        false
    }

    /// Scalar reference of [`intersects_plain_lanes`].
    #[inline]
    pub fn intersects_plain_scalar(a: &AtomicBloom, b: &Bloom) -> bool {
        a.words
            .iter()
            .zip(b.words.iter())
            .any(|(x, &y)| x.load(Ordering::Relaxed) & y != 0)
    }

    /// Lane core of the sparse atomic × plain intersection: only the
    /// words listed in `nz` (the non-zero words of `b`, see
    /// [`Bloom::nonzero_words`]) can contribute to `a & b`, so only those
    /// are loaded — 4 independent loads in flight per step. This is the
    /// scan-amortized form: one committer write signature is indexed once
    /// and then tested against every live reader's signature, turning a
    /// 256-word sweep per slot into `nz.len()` loads.
    #[inline]
    pub fn intersects_plain_sparse_lanes(a: &AtomicBloom, b: &Bloom, nz: &[u16]) -> bool {
        let mut chunks = nz.chunks_exact(LANES);
        for c in &mut chunks {
            let mut acc = 0u64;
            for &i in c {
                let i = i as usize;
                acc |= a.words[i].load(Ordering::Relaxed) & b.words[i];
            }
            if acc != 0 {
                return true;
            }
        }
        chunks
            .remainder()
            .iter()
            .any(|&i| a.words[i as usize].load(Ordering::Relaxed) & b.words[i as usize] != 0)
    }

    /// Scalar reference of [`intersects_plain_sparse_lanes`].
    #[inline]
    pub fn intersects_plain_sparse_scalar(a: &AtomicBloom, b: &Bloom, nz: &[u16]) -> bool {
        nz.iter()
            .any(|&i| a.words[i as usize].load(Ordering::Relaxed) & b.words[i as usize] != 0)
    }

    /// Lane core of set union (`dst |= src`); a straight-line chunked loop
    /// LLVM turns into full-width vector ORs.
    #[inline]
    pub fn union_lanes(dst: &mut Bloom, src: &Bloom) {
        for (d, s) in dst
            .words
            .chunks_exact_mut(LANES)
            .zip(src.words.chunks_exact(LANES))
        {
            for l in 0..LANES {
                d[l] |= s[l];
            }
        }
    }

    /// Scalar reference of [`union_lanes`].
    #[inline]
    pub fn union_scalar(dst: &mut Bloom, src: &Bloom) {
        for (d, &s) in dst.words.iter_mut().zip(src.words.iter()) {
            *d |= s;
        }
    }

    /// Lane core of the fused snapshot-and-test pass (see
    /// [`AtomicBloom::snapshot_intersect2`]): one sweep loads the shared
    /// filter into `dst` while accumulating its intersection masks against
    /// two plain filters. No early exit — the snapshot must complete — so
    /// the whole body is a branch-free unrolled chain.
    #[inline]
    pub fn snapshot_intersect2_lanes(
        src: &AtomicBloom,
        dst: &mut Bloom,
        a: &Bloom,
        b: &Bloom,
    ) -> (bool, bool) {
        let mut hit_a = [0u64; LANES];
        let mut hit_b = [0u64; LANES];
        let mut i = 0;
        while i < BLOOM_WORDS {
            for l in 0..LANES {
                let w = src.words[i + l].load(Ordering::Relaxed);
                dst.words[i + l] = w;
                hit_a[l] |= w & a.words[i + l];
                hit_b[l] |= w & b.words[i + l];
            }
            i += LANES;
        }
        (
            hit_a.iter().fold(0, |m, &x| m | x) != 0,
            hit_b.iter().fold(0, |m, &x| m | x) != 0,
        )
    }

    /// Scalar reference of [`snapshot_intersect2_lanes`].
    #[inline]
    pub fn snapshot_intersect2_scalar(
        src: &AtomicBloom,
        dst: &mut Bloom,
        a: &Bloom,
        b: &Bloom,
    ) -> (bool, bool) {
        let mut hit_a = 0u64;
        let mut hit_b = 0u64;
        for i in 0..BLOOM_WORDS {
            let w = src.words[i].load(Ordering::Relaxed);
            dst.words[i] = w;
            hit_a |= w & a.words[i];
            hit_b |= w & b.words[i];
        }
        (hit_a != 0, hit_b != 0)
    }

    /// Lane core of `dst |= atomic src` (4-way unrolled loads).
    #[inline]
    pub fn or_into_lanes(src: &AtomicBloom, dst: &mut Bloom) {
        let mut i = 0;
        while i < BLOOM_WORDS {
            for l in 0..LANES {
                dst.words[i + l] |= src.words[i + l].load(Ordering::Relaxed);
            }
            i += LANES;
        }
    }

    /// Scalar reference of [`or_into_lanes`].
    #[inline]
    pub fn or_into_scalar(src: &AtomicBloom, dst: &mut Bloom) {
        for (d, s) in dst.words.iter_mut().zip(src.words.iter()) {
            *d |= s.load(Ordering::Relaxed);
        }
    }
}

/// The indices of a signature's non-zero words, captured by
/// [`Bloom::nonzero_words`]. An invalidation scan indexes the committer's
/// write signature once and then runs the sparse intersection
/// ([`AtomicBloom::intersects_plain_sparse`]) against every live reader —
/// for a typical transactional write-set (tens of addresses across a
/// 256-word signature) that replaces the full per-slot word sweep with a
/// handful of targeted loads.
pub struct NonZeroWords {
    idx: [u16; BLOOM_WORDS],
    len: usize,
}

impl NonZeroWords {
    /// The captured word indices, ascending.
    #[inline]
    pub fn as_slice(&self) -> &[u16] {
        &self.idx[..self.len]
    }
}

/// A thread-private Bloom filter over heap word addresses.
#[derive(Clone, Debug)]
pub struct Bloom {
    words: [u64; BLOOM_WORDS],
}

impl Default for Bloom {
    fn default() -> Self {
        Self::new()
    }
}

impl Bloom {
    /// An empty filter.
    pub const fn new() -> Self {
        Bloom { words: [0; BLOOM_WORDS] }
    }

    /// Inserts a word address.
    #[inline]
    pub fn insert(&mut self, addr: u32) {
        for bit in probe_bits(addr) {
            let (w, m) = bit_ref(bit);
            self.words[w] |= m;
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
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.words = [0; BLOOM_WORDS];
    }

    /// True if the two filters share at least one set bit — the conflict
    /// test used by commit-time invalidation (`write_bf intersects read_bf`),
    /// in its plain × plain flavour (see the module docs; the
    /// atomic-snapshot flavour is [`AtomicBloom::intersects_plain`]).
    #[inline]
    pub fn intersects(&self, other: &Bloom) -> bool {
        cores::intersects_lanes(self, other)
    }

    /// Merges every bit of `other` into `self` (set union) — used by the
    /// V1 commit-server to build a batch's combined write signature.
    #[inline]
    pub fn union_with(&mut self, other: &Bloom) {
        cores::union_lanes(self, other);
    }

    /// Raw words, used when publishing into an [`AtomicBloom`].
    pub fn words(&self) -> &[u64; BLOOM_WORDS] {
        &self.words
    }

    /// Index the non-zero words for the scan-amortized sparse
    /// intersection (see [`NonZeroWords`]). O(`BLOOM_WORDS`) once, after
    /// which every [`AtomicBloom::intersects_plain_sparse`] against this
    /// signature touches only the listed words.
    pub fn nonzero_words(&self) -> NonZeroWords {
        let mut nz = NonZeroWords {
            idx: [0; BLOOM_WORDS],
            len: 0,
        };
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                nz.idx[nz.len] = i as u16;
                nz.len += 1;
            }
        }
        nz
    }

    /// Number of set bits (diagnostics only).
    pub fn popcount(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
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
#[derive(Debug)]
pub struct AtomicBloom {
    words: [AtomicU64; BLOOM_WORDS],
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
        }
    }

    /// Owner-only: insert an address (plain load + store, no RMW).
    #[inline]
    pub fn owner_insert(&self, addr: u32) {
        for bit in probe_bits(addr) {
            let (w, m) = bit_ref(bit);
            let word = &self.words[w];
            let cur = word.load(Ordering::Relaxed);
            word.store(cur | m, Ordering::Relaxed);
        }
    }

    /// Owner-only: reset to empty.
    pub fn owner_clear(&self) {
        for w in &self.words {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Owner-only: overwrite with the contents of a private filter
    /// (publishing a write signature into a request slot).
    pub fn store_from(&self, src: &Bloom) {
        for (dst, &s) in self.words.iter().zip(src.words().iter()) {
            dst.store(s, Ordering::Relaxed);
        }
    }

    /// Snapshot into a private filter (commit-server copying a request's
    /// write signature into the shared `commit_bf`).
    pub fn load_into(&self, dst: &mut Bloom) {
        for (d, s) in dst.words.iter_mut().zip(self.words.iter()) {
            *d = s.load(Ordering::Relaxed);
        }
    }

    /// ORs the current contents into a private filter (one pass; used to
    /// accumulate a commit batch's combined *read* signature without an
    /// intermediate snapshot).
    pub fn or_into(&self, dst: &mut Bloom) {
        cores::or_into_lanes(self, dst);
    }

    /// Fused snapshot-and-test: loads the current contents into `dst` and,
    /// in the same pass over the words, reports whether that snapshot
    /// intersects `a` and whether it intersects `b`.
    ///
    /// This is the V1 commit-server's admission primitive: one sweep both
    /// *builds* the candidate's write-signature snapshot and answers the
    /// write-write (`∩ batch writes`) and write-read (`∩ batch reads`)
    /// independence tests that previously each re-walked the 256 words
    /// (`load_into` + two `intersects`). The returned pair is
    /// `(dst ∩ a, dst ∩ b)` for exactly the snapshot left in `dst`.
    #[inline]
    pub fn snapshot_intersect2(&self, dst: &mut Bloom, a: &Bloom, b: &Bloom) -> (bool, bool) {
        cores::snapshot_intersect2_lanes(self, dst, a, b)
    }

    /// True if `write_sig` shares a bit with this (read) signature — the
    /// atomic-snapshot flavour of the conflict test (see the module docs;
    /// the plain × plain flavour is [`Bloom::intersects`]).
    #[inline]
    pub fn intersects_plain(&self, write_sig: &Bloom) -> bool {
        cores::intersects_plain_lanes(self, write_sig)
    }

    /// Sparse form of [`AtomicBloom::intersects_plain`]: `nz` must be
    /// [`Bloom::nonzero_words`] of `write_sig`, and only those words are
    /// loaded. Exact, not approximate — words absent from `nz` are zero
    /// in `write_sig` and cannot contribute to the intersection. This is
    /// the per-slot test of the invalidation scans, where one committer
    /// signature is indexed once and checked against every live reader.
    #[inline]
    pub fn intersects_plain_sparse(&self, write_sig: &Bloom, nz: &NonZeroWords) -> bool {
        cores::intersects_plain_sparse_lanes(self, write_sig, nz.as_slice())
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
        assert!(false_hits < 20, "too many false intersections: {false_hits}");
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
        assert!(fp < probes / 10, "false positive rate too high: {fp}/{probes}");
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
    fn union_with_accumulates_and_or_into_merges() {
        let mut a = Bloom::new();
        let mut b = Bloom::new();
        a.insert(1);
        b.insert(2);
        a.union_with(&b);
        assert!(a.may_contain(1) && a.may_contain(2));

        let ab = AtomicBloom::new();
        ab.owner_insert(3);
        ab.or_into(&mut a);
        assert!(a.may_contain(1) && a.may_contain(2) && a.may_contain(3));
    }

    #[test]
    fn snapshot_intersect2_matches_separate_ops() {
        // The fused admission pass must agree with the three ops it fuses
        // (load_into + intersects against each filter), snapshot included.
        let shared = AtomicBloom::new();
        for a in [3u32, 99, 4097, 70_000] {
            shared.owner_insert(a);
        }
        let mut batch_w = Bloom::new();
        batch_w.insert(99); // overlaps `shared`
        let mut batch_r = Bloom::new();
        batch_r.insert(123_456); // disjoint from `shared`

        let mut fused = Bloom::new();
        let (hit_w, hit_r) = shared.snapshot_intersect2(&mut fused, &batch_w, &batch_r);

        let mut plain = Bloom::new();
        shared.load_into(&mut plain);
        assert_eq!(plain.words(), fused.words());
        assert_eq!(hit_w, plain.intersects(&batch_w));
        assert_eq!(hit_r, plain.intersects(&batch_r));
        assert!(hit_w && !hit_r);
    }

    #[test]
    fn lane_and_scalar_cores_agree() {
        // Spot-check (the exhaustive version is the proptest suite in
        // tests/scan_equiv.rs): every core pair agrees on a filter whose
        // set bits straddle several lane blocks.
        let mut a = Bloom::new();
        let mut b = Bloom::new();
        let shared_a = AtomicBloom::new();
        for i in 0..300u32 {
            a.insert(i * 7919);
            shared_a.owner_insert(i * 7919);
            b.insert(i * 104_729 + 13);
        }
        assert_eq!(cores::intersects_lanes(&a, &b), cores::intersects_scalar(&a, &b));
        assert_eq!(
            cores::intersects_plain_lanes(&shared_a, &b),
            cores::intersects_plain_scalar(&shared_a, &b)
        );
        let (mut u1, mut u2) = (a.clone(), a.clone());
        cores::union_lanes(&mut u1, &b);
        cores::union_scalar(&mut u2, &b);
        assert_eq!(u1.words(), u2.words());

        let (mut s1, mut s2) = (Bloom::new(), Bloom::new());
        let h1 = cores::snapshot_intersect2_lanes(&shared_a, &mut s1, &a, &b);
        let h2 = cores::snapshot_intersect2_scalar(&shared_a, &mut s2, &a, &b);
        assert_eq!(h1, h2);
        assert_eq!(s1.words(), s2.words());

        let (mut o1, mut o2) = (b.clone(), b.clone());
        cores::or_into_lanes(&shared_a, &mut o1);
        cores::or_into_scalar(&shared_a, &mut o2);
        assert_eq!(o1.words(), o2.words());
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
