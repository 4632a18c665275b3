//! The word-based transactional heap: a segmented, growable arena with a
//! transactional allocation lifecycle.
//!
//! Like RSTM (the C++ framework the paper implements RInval in), the STM is
//! *word-based*: shared state is an arena of 64-bit words, and transactions
//! read and write whole words identified by a [`Handle`]. Data structures
//! (crate `txds`) build typed records and pointers on top by encoding
//! handles into words.
//!
//! Words are `AtomicU64` so that the seqlock protocols may load them while a
//! committer concurrently stores them — Rust forbids data races on plain
//! memory, so the C trick of racing plain loads under a version check is
//! expressed here as relaxed atomic accesses ordered by the surrounding
//! timestamp protocol.
//!
//! ## Segmented layout
//!
//! The arena is two-level: a fixed table of segment pointers, each covering
//! `segment_words` (a power of two) contiguous word indices. A [`Handle`]
//! stays a `u32` word index; the top bits select the segment and the low
//! bits the offset, so existing handles never move and records may span a
//! segment boundary (every access decodes per word). Segments are
//! materialized on demand with a CAS publish, so allocation keeps
//! succeeding until the configured capacity ceiling instead of returning
//! `None` when an initial fixed arena fills — the growth half of the
//! ROADMAP's "long-running workloads" requirement.
//!
//! The bump pointer advances with a CAS loop rather than `fetch_add`, so a
//! *failed* oversized allocation reserves nothing: the next smaller request
//! still fits (the old monotone `fetch_add` permanently wasted the
//! over-reservation).
//!
//! ## Reclamation (the lifecycle half)
//!
//! Reuse is driven by [`crate::Txn::free`]: committed frees land in the
//! freeing thread's `HeapCache` *retire list*, stamped with the heap's
//! monotonically increasing **era**. A retired block may be handed out
//! again only once the *reclamation horizon* — the minimum `start_era`
//! over all live registry slots — has reached its stamp, which guarantees
//! no in-flight transaction (including invalidation-lagged zombies under
//! RInval, and MV snapshot readers, which never revalidate) can still
//! observe the block under its old identity. The horizon computation
//! lives in `StmInner::reclaim_horizon`; DESIGN.md §9 gives the proof
//! sketch. Aborted transactions surrender their speculative allocations
//! straight back to the cache (they were never published, so no horizon is
//! needed).
//!
//! Holding a `Handle` *across* transactions after another thread frees it
//! is a logic error, exactly like a dangling pointer; the `txds`
//! structures only free nodes they have unlinked in the same transaction.

use crate::logs::AllocLog;
use crate::sync::CachePadded;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{fence, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Index of a word in the transactional heap.
///
/// Internally `index + 1`, so that the all-zeroes word decodes to
/// [`Handle::NULL`] — freshly allocated records therefore contain null
/// pointers without initialization, exactly like `calloc`'d C nodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle(pub(crate) u32);

impl Handle {
    /// The null handle. Reading through it is a logic error (panics).
    pub const NULL: Handle = Handle(0);

    /// True if this is [`Handle::NULL`].
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// The handle `offset` words after `self`. Used to address fields of a
    /// multi-word record.
    #[inline]
    pub fn field(self, offset: u32) -> Handle {
        debug_assert!(!self.is_null(), "field() on null handle");
        Handle(self.0 + offset)
    }

    /// Encodes the handle as a heap word (for storing pointers).
    #[inline]
    pub fn to_word(self) -> u64 {
        self.0 as u64
    }

    /// Decodes a heap word produced by [`Handle::to_word`].
    #[inline]
    pub fn from_word(w: u64) -> Handle {
        debug_assert!(w <= u32::MAX as u64, "word does not encode a handle");
        Handle(w as u32)
    }

    /// The raw word address used by Bloom filters and write logs.
    #[inline]
    pub(crate) fn addr(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "Handle(NULL)")
        } else {
            write!(f, "Handle({})", self.0 - 1)
        }
    }
}

/// Smallest segment size (words). Keeps tiny test heaps cheap.
const MIN_SEG_WORDS: usize = 1 << 9;
/// Largest segment size (words); bounds per-growth-step allocation.
const MAX_SEG_WORDS: usize = 1 << 20;
/// Segment-pointer table length cap; with the largest segments this covers
/// more words than 32-bit handles can address.
const MAX_SEGMENTS: usize = 4096;
/// Largest word index a `u32` handle can encode.
const HARD_CAP_WORDS: usize = u32::MAX as usize - 1;

/// Depth of the per-word version ring kept by multi-version engines: each
/// heap word retains this many recent `(timestamp, value)` pairs. Deep
/// enough that a snapshot reader only misses when a word is overwritten
/// this many times *during* the reader's lifetime; small enough that the
/// sidecar arena stays a bounded constant factor of the heap.
///
/// A commit versions its words only while a declared reader is in flight
/// (`server.rs`, `write_back`; DESIGN.md §14). Every other commit stores
/// plainly and advances the heap's **version base** to its release stamp:
/// ring entries stamped below the base are *stale* — the appender reuses
/// them as empty slots and snapshot reads skip them — because no reader
/// can hold a snapshot below the base (DESIGN.md §12). A word's first
/// versioned write after the base seeds its pre-image at the base stamp,
/// the value the word holds for every snapshot from the base up to that
/// write.
pub const VERSION_RING: usize = 8;

/// `ts` sentinel: the entry holds no version.
const VERSION_EMPTY: u64 = 0;
/// `ts` sentinel: the entry is mid-overwrite (the write-back agent is the
/// only writer of a given word's ring, so BUSY is a seqlock for readers,
/// never a lock writers contend on).
const VERSION_BUSY: u64 = u64::MAX;

/// One slot of a word's version ring.
struct VersionEntry {
    ts: AtomicU64,
    val: AtomicU64,
}

/// The words the write-back agent stores into, on their own line pair:
/// readers load only [`VersionMeta::base`], once per attempt.
#[derive(Default)]
struct VersionMeta {
    /// The version base (see [`VERSION_RING`]): the release stamp of the
    /// latest unversioned commit, 1 before any. Real stamps are the even
    /// seqlock release values (≥ 2), so 1 is below all of them and above
    /// `VERSION_EMPTY`: every empty entry is stale.
    base: AtomicU64,
    /// Versions appended by committed write-backs (monotone).
    appends: AtomicU64,
    /// Ring entries currently holding a version, stale ones included until
    /// they are overwritten or cleared (occupancy telemetry).
    live_entries: AtomicU64,
}

/// Sidecar arena of per-word version rings, segment-parallel to the heap
/// table (segment `s` of the heap maps to segment `s` here, holding
/// `seg_words * VERSION_RING` entries). Materialized lazily: only segments
/// that ever saw a versioned write pay the ring's memory cost.
struct VersionArena {
    table: Box<[AtomicPtr<VersionEntry>]>,
    meta: CachePadded<VersionMeta>,
}

/// Result of a multi-version snapshot read (see [`Heap::snapshot_read`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SnapshotRead {
    /// The value the word held at the snapshot timestamp, and no newer
    /// committed version was observed: this is also the word's present
    /// value.
    Current(u64),
    /// The value the word held at the snapshot timestamp, but the word
    /// has been committed since — a transaction that may still need to
    /// upgrade to the write protocol is reading into its past.
    Old(u64),
    /// The ring no longer reaches back to the snapshot (overwritten);
    /// the caller must fall back to revalidation or restart.
    Miss,
}

/// Snapshot of the heap's allocation telemetry (see [`crate::Stm::heap_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Words handed out from the bump frontier so far (monotone; the
    /// arena's peak footprint, since recycled words never re-enter it).
    pub allocated_words: u64,
    /// Words retired by committed [`crate::Txn::free`] calls.
    pub freed_words: u64,
    /// Words handed back out from retire lists (reuse, not arena growth).
    pub recycled_words: u64,
    /// Segments currently materialized.
    pub live_segments: usize,
    /// Words per segment (power of two, fixed at construction).
    pub segment_words: usize,
    /// Capacity ceiling in words (allocation fails only past this).
    pub capacity_words: usize,
    /// Words of backing memory reserved (`live_segments · segment_words`).
    pub reserved_words: usize,
    /// Depth of the per-word version ring (0 = multi-versioning disabled).
    pub version_ring_depth: usize,
    /// Version-ring entries currently occupied (snapshot of occupancy).
    pub version_entries: u64,
    /// Versions appended by committed write-backs so far (monotone).
    pub version_appends: u64,
}

impl HeapStats {
    /// Words currently handed out and not yet freed.
    pub fn in_use_words(&self) -> u64 {
        (self.allocated_words + self.recycled_words).saturating_sub(self.freed_words)
    }
}

/// A retired block awaiting its reclamation horizon: `(era stamp, addr, len)`.
type Retired = (u64, u32, u32);

/// The shared arena of transactional words.
pub struct Heap {
    /// Flat storage for the first `base_segs` segments (the initial
    /// arena), allocated up front. Word accesses below `base_words` take
    /// this path directly — no segment-table indirection — so workloads
    /// whose working set fits the configured initial size pay nothing for
    /// growability on the read/write fast path.
    base: Box<[AtomicU64]>,
    /// `base.len()` (== `base_segs * seg_words`).
    base_words: usize,
    /// Leading table entries that alias `base` (never freed via the table).
    base_segs: usize,
    /// Segment-pointer table; null = not yet materialized. Entries past
    /// `base_segs` own a leaked `Box<[AtomicU64; seg_words]>` freed in
    /// `Drop`; entries below it point into `base`.
    table: Box<[AtomicPtr<AtomicU64>]>,
    /// Words per segment (power of two).
    seg_words: usize,
    seg_shift: u32,
    /// Usable word indices are `1..=max_words`.
    max_words: usize,
    /// Bump frontier: the next never-allocated word index. Starts at 1;
    /// slot 0 is reserved so index 0 can mean NULL.
    cursor: CachePadded<AtomicUsize>,
    /// Reclamation clock: bumped once per committed transaction that freed
    /// blocks, *after* its commit is fully visible.
    era: CachePadded<AtomicU64>,
    live_segments: AtomicUsize,
    /// Telemetry clients bump per committed free and per recycled handout;
    /// padded off the addressing words above, which every word access
    /// (the commit-server's write-back included) reads.
    freed_words: CachePadded<AtomicU64>,
    recycled_words: CachePadded<AtomicU64>,
    /// Blocks surrendered by deregistered threads, picked up by any thread
    /// whose local cache misses. Matured entries carry stamp 0.
    pool: CachePadded<Mutex<Vec<Retired>>>,
    /// Per-word version rings; `Some` only for multi-version engines
    /// (enabled once at construction, before the heap is shared).
    versions: Option<VersionArena>,
}

impl Heap {
    /// Creates a heap that pre-materializes roughly `initial_words` and
    /// grows on demand up to a large default ceiling.
    pub fn new(initial_words: usize) -> Heap {
        Heap::with_limits(initial_words, None)
    }

    /// Creates a heap sized for `initial_words` with an explicit capacity
    /// ceiling (`None` = as far as the segment table and 32-bit handles
    /// reach). Tests use a small ceiling to exercise true exhaustion.
    pub fn with_limits(initial_words: usize, max_words: Option<usize>) -> Heap {
        assert!(
            initial_words <= HARD_CAP_WORDS,
            "heap capacity must fit in 32-bit handles"
        );
        let seg_words = (initial_words / 8)
            .next_power_of_two()
            .clamp(MIN_SEG_WORDS, MAX_SEG_WORDS);
        let table_len = MAX_SEGMENTS
            .min((HARD_CAP_WORDS + 1).div_ceil(seg_words))
            .max(1);
        let table_cap = table_len * seg_words - 1;
        let max_words = max_words
            .unwrap_or(table_cap)
            .min(table_cap)
            .min(HARD_CAP_WORDS);
        let mut table = Vec::with_capacity(table_len);
        table.resize_with(table_len, || AtomicPtr::new(std::ptr::null_mut()));
        let table = table.into_boxed_slice();
        // The initial arena (plus segment 0, which holds the reserved null
        // index) is one flat allocation, matching the old upfront layout;
        // its segments are mirrored into the table so every addressing
        // path works uniformly.
        let base_segs = (initial_words.min(max_words) + 1)
            .div_ceil(seg_words)
            .clamp(1, table_len);
        let base_words = base_segs * seg_words;
        let mut v = Vec::with_capacity(base_words);
        v.resize_with(base_words, || AtomicU64::new(0));
        let base = v.into_boxed_slice();
        for s in 0..base_segs {
            let p = base[s * seg_words..].as_ptr() as *mut AtomicU64;
            table[s].store(p, Ordering::Release);
        }
        Heap {
            base,
            base_words,
            base_segs,
            table,
            seg_words,
            seg_shift: seg_words.trailing_zeros(),
            max_words,
            cursor: CachePadded::new(AtomicUsize::new(1)),
            era: CachePadded::new(AtomicU64::new(0)),
            live_segments: AtomicUsize::new(base_segs),
            freed_words: CachePadded::new(AtomicU64::new(0)),
            recycled_words: CachePadded::new(AtomicU64::new(0)),
            pool: CachePadded::new(Mutex::new(Vec::new())),
            versions: None,
        }
    }

    /// Attaches the per-word version-ring sidecar. Must be called before
    /// the heap is shared (the builder does, for multi-version kinds);
    /// taking `&mut self` enforces exclusivity.
    pub fn enable_versions(&mut self) {
        let mut table = Vec::with_capacity(self.table.len());
        table.resize_with(self.table.len(), || AtomicPtr::new(std::ptr::null_mut()));
        self.versions = Some(VersionArena {
            table: table.into_boxed_slice(),
            meta: CachePadded::new(VersionMeta {
                base: AtomicU64::new(1),
                ..VersionMeta::default()
            }),
        });
    }

    /// True if the version-ring sidecar is attached.
    #[inline]
    pub(crate) fn versions_enabled(&self) -> bool {
        self.versions.is_some()
    }

    /// The version base (see [`VERSION_RING`]). A declared reader loads it
    /// once, after its begin: from then on no commit can be unversioned,
    /// so the value is stable for the whole attempt (DESIGN.md §12). The
    /// begin's `SeqCst` load of an even timestamp acquired every base
    /// stored before that timestamp's release, so `Relaxed` suffices.
    #[inline]
    pub(crate) fn version_base(&self) -> u64 {
        self.versions
            .as_ref()
            .map_or(1, |va| va.meta.base.load(Ordering::Relaxed))
    }

    /// Records an unversioned commit releasing at `release_ts`: every ring
    /// entry stamped below it turns stale. Stored by the write-back agent
    /// before the commit's first plain store; the release store of
    /// `release_ts` publishes it.
    #[inline]
    pub(crate) fn advance_version_base(&self, release_ts: u64) {
        if let Some(va) = &self.versions {
            va.meta.base.store(release_ts, Ordering::Relaxed);
        }
    }

    /// Total usable words (the growth ceiling, not currently-reserved memory).
    pub fn capacity(&self) -> usize {
        self.max_words
    }

    /// Words handed out from the bump frontier so far (recycling excluded).
    pub fn allocated(&self) -> usize {
        self.cursor.load(Ordering::Relaxed) - 1
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> HeapStats {
        let live_segments = self.live_segments.load(Ordering::Relaxed);
        HeapStats {
            allocated_words: self.allocated() as u64,
            freed_words: self.freed_words.load(Ordering::Relaxed),
            recycled_words: self.recycled_words.load(Ordering::Relaxed),
            live_segments,
            segment_words: self.seg_words,
            capacity_words: self.max_words,
            reserved_words: live_segments * self.seg_words,
            version_ring_depth: if self.versions.is_some() {
                VERSION_RING
            } else {
                0
            },
            version_entries: self
                .versions
                .as_ref()
                .map_or(0, |v| v.meta.live_entries.load(Ordering::Relaxed)),
            version_appends: self
                .versions
                .as_ref()
                .map_or(0, |v| v.meta.appends.load(Ordering::Relaxed)),
        }
    }

    /// Current value of the reclamation clock.
    #[inline]
    pub(crate) fn current_era(&self) -> u64 {
        self.era.load(Ordering::SeqCst)
    }

    /// Advances the reclamation clock and returns the new stamp. Called by
    /// a committed transaction with frees, after its commit is visible.
    pub(crate) fn advance_era(&self) -> u64 {
        self.era.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Materializes every segment covering word indices `[start, start+n)`.
    fn ensure_segments(&self, start: usize, n: usize) {
        let lo = start >> self.seg_shift;
        let hi = (start + n.max(1) - 1) >> self.seg_shift;
        for s in lo..=hi {
            if !self.table[s].load(Ordering::Acquire).is_null() {
                continue;
            }
            let mut v = Vec::with_capacity(self.seg_words);
            v.resize_with(self.seg_words, || AtomicU64::new(0));
            let raw = Box::into_raw(v.into_boxed_slice()) as *mut AtomicU64;
            match self.table[s].compare_exchange(
                std::ptr::null_mut(),
                raw,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.live_segments.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => unsafe {
                    // Another thread published first; drop our copy.
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                        raw,
                        self.seg_words,
                    )));
                },
            }
        }
    }

    /// The word at index `idx`, which must lie in a materialized segment.
    #[inline]
    fn word(&self, idx: usize) -> &AtomicU64 {
        // Fast path: the initial arena is flat, so accesses below
        // `base_words` skip the table's dependent load entirely. This is
        // the common case on every transactional read/write when the
        // configured initial size covers the working set.
        if idx < self.base_words {
            // SAFETY: `idx < base_words == base.len()`.
            return unsafe { self.base.get_unchecked(idx) };
        }
        let seg = idx >> self.seg_shift;
        let off = idx & (self.seg_words - 1);
        // Acquire pairs with the CAS publish in `ensure_segments`, so the
        // zeroed segment contents are visible.
        let ptr = self.table[seg].load(Ordering::Acquire);
        assert!(!ptr.is_null(), "access to unmaterialized heap segment");
        unsafe { &*ptr.add(off) }
    }

    /// Allocates `n` contiguous zeroed words from the bump frontier, or
    /// `None` past the capacity ceiling. Lock-free; a failed attempt
    /// reserves nothing (CAS loop, not `fetch_add`), so smaller requests
    /// still succeed after an oversized one fails.
    pub fn alloc(&self, n: usize) -> Option<Handle> {
        if n == 0 {
            return Some(Handle::NULL);
        }
        let mut cur = self.cursor.load(Ordering::Relaxed);
        loop {
            let end = cur.checked_add(n)?;
            if end > self.max_words + 1 {
                return None;
            }
            match self
                .cursor
                .compare_exchange_weak(cur, end, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.ensure_segments(cur, n);
                    return Some(Handle(cur as u32));
                }
                Err(c) => cur = c,
            }
        }
    }

    /// Relaxed load of a word. Callers are responsible for ordering via the
    /// algorithm's timestamp protocol.
    #[inline]
    pub fn load(&self, h: Handle) -> u64 {
        debug_assert!(!h.is_null(), "load through null handle");
        self.word(h.0 as usize).load(Ordering::Relaxed)
    }

    /// Acquire load of a word. Pairs with the release fence every
    /// versioned write-back issues before its main store: a reader that
    /// observes the stored value also observes everything the committer
    /// published before it (its ring appends, and the server's odd
    /// timestamp store). The snapshot engine's fast path depends on this.
    #[inline]
    pub(crate) fn load_acquire(&self, h: Handle) -> u64 {
        debug_assert!(!h.is_null(), "load through null handle");
        self.word(h.0 as usize).load(Ordering::Acquire)
    }

    /// Relaxed store of a word: initialization of still-private freshly
    /// allocated records (`Txn::init`, `Stm::alloc_init` / `poke`). Commit
    /// write-back never uses it; it goes through the checked stores.
    #[inline]
    pub fn store(&self, h: Handle, v: u64) {
        debug_assert!(!h.is_null(), "store through null handle");
        self.word(h.0 as usize).store(v, Ordering::Relaxed);
    }

    /// Bounds-checking store, the plain half of every commit's write-back
    /// (`server::write_back`): an address outside the heap — null, past the
    /// capacity ceiling, or in an unmaterialized segment — is rejected
    /// instead of faulting the committer.
    #[inline]
    pub(crate) fn store_checked(&self, addr: u32, v: u64) -> bool {
        self.word_checked(addr)
            .map(|w| w.store(v, Ordering::Relaxed))
            .is_some()
    }

    /// Bounds-checking relaxed load, `None` exactly where
    /// [`Heap::store_checked`] would reject the address. The silent
    /// write-set check reads a write-set's addresses through it, so a
    /// corrupt address makes the write-set non-silent instead of faulting
    /// the client.
    #[inline]
    pub(crate) fn load_checked(&self, addr: u32) -> Option<u64> {
        self.word_checked(addr).map(|w| w.load(Ordering::Relaxed))
    }

    /// The word at `addr`, or `None` for the null address, an address past
    /// the capacity ceiling, or one in an unmaterialized segment: the one
    /// check behind both checked accessors.
    #[inline]
    fn word_checked(&self, addr: u32) -> Option<&AtomicU64> {
        if addr == 0 || addr as usize > self.max_words {
            return None;
        }
        let idx = addr as usize;
        if idx < self.base_words {
            // SAFETY: `idx < base_words == base.len()`.
            return Some(unsafe { self.base.get_unchecked(idx) });
        }
        let ptr = self.table[idx >> self.seg_shift].load(Ordering::Acquire);
        if ptr.is_null() {
            return None;
        }
        Some(unsafe { &*ptr.add(idx & (self.seg_words - 1)) })
    }

    /// Zeroes `n` words starting at `addr` (recycled-block handout; fresh
    /// segments are born zeroed, preserving the `calloc` contract). With
    /// versions enabled the words' rings are cleared too: the block starts
    /// a new identity, and the reclamation horizon guarantees no snapshot
    /// reader whose begin predates the free can still reach these words.
    fn zero_range(&self, addr: u32, n: usize) {
        if let Some(va) = &self.versions {
            for i in 0..n {
                self.version_clear(va, addr as usize + i);
            }
        }
        for i in 0..n {
            self.word(addr as usize + i).store(0, Ordering::Relaxed);
        }
    }

    /// The `VERSION_RING` entries of word `idx`, or `None` if the covering
    /// version segment was never materialized (no versioned write ever hit
    /// this segment — every entry is conceptually `VERSION_EMPTY`).
    #[inline]
    fn version_ring(&self, va: &VersionArena, idx: usize) -> Option<&[VersionEntry]> {
        let seg = idx >> self.seg_shift;
        // Acquire pairs with the CAS publish below, making the
        // zero-initialized entries visible.
        let ptr = va.table[seg].load(Ordering::Acquire);
        if ptr.is_null() {
            return None;
        }
        let off = (idx & (self.seg_words - 1)) * VERSION_RING;
        Some(unsafe { std::slice::from_raw_parts(ptr.add(off), VERSION_RING) })
    }

    /// Like [`Heap::version_ring`], but materializes the segment (CAS
    /// publish, mirroring `ensure_segments`) — write-back side only.
    fn version_ring_materialize(&self, va: &VersionArena, idx: usize) -> &[VersionEntry] {
        let seg = idx >> self.seg_shift;
        if va.table[seg].load(Ordering::Acquire).is_null() {
            let n = self.seg_words * VERSION_RING;
            let mut v = Vec::with_capacity(n);
            v.resize_with(n, || VersionEntry {
                ts: AtomicU64::new(VERSION_EMPTY),
                val: AtomicU64::new(0),
            });
            let raw = Box::into_raw(v.into_boxed_slice()) as *mut VersionEntry;
            if va.table[seg]
                .compare_exchange(
                    std::ptr::null_mut(),
                    raw,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_err()
            {
                // Another agent published first; drop our copy.
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(raw, n)));
                }
            }
        }
        self.version_ring(va, idx).expect("just materialized")
    }

    /// Appends `(ts, v)` to word `idx`'s ring, overwriting a stale entry
    /// (stamped below the version base, empty ones included) if there is
    /// one, else the oldest. When the ring holds nothing at or above the
    /// base — the word's first versioned write since the base — its
    /// current (pre-image) value is seeded first under the base stamp, so
    /// snapshots from the base up to this commit still resolve. A commit
    /// at the base stamp itself seeds nothing: it is the base (a recovery
    /// re-deciding a commit its dead server left unversioned, DESIGN.md
    /// §11), and no snapshot below it exists.
    ///
    /// Appends to one word are never concurrent: every write-back path
    /// (commit server, degraded seqlock committer, crash recovery) runs
    /// under exclusive ownership of the odd timestamp phase. Each entry is
    /// still a seqlock against concurrent *readers*: `ts` passes through
    /// `VERSION_BUSY` around the value store, and real stamps are strictly
    /// monotone per word, so a reader observing the same stamp twice has
    /// read the matching value.
    fn version_append(&self, va: &VersionArena, idx: usize, v: u64, ts: u64) {
        let base = va.meta.base.load(Ordering::Relaxed);
        let ring = self.version_ring_materialize(va, idx);
        let mut victim = 0;
        let mut victim_ts = u64::MAX;
        let mut current = false;
        for (i, e) in ring.iter().enumerate() {
            let t = e.ts.load(Ordering::Relaxed);
            current |= t >= base;
            if t < victim_ts {
                victim = i;
                victim_ts = t;
            }
        }
        let mut filled = 0;
        if !current && ts > base {
            // First versioned write since the base: preserve the pre-image
            // for snapshots that began before this commit. Every entry is
            // stale, so the seed and the version take the first two; no
            // reader reads a stale entry's value, so the seed needs no BUSY.
            let pre = self.word(idx).load(Ordering::Relaxed);
            filled += (ring[0].ts.load(Ordering::Relaxed) == VERSION_EMPTY) as u64;
            ring[0].val.store(pre, Ordering::SeqCst);
            ring[0].ts.store(base, Ordering::SeqCst);
            victim = 1;
            victim_ts = ring[1].ts.load(Ordering::Relaxed);
        }
        let e = &ring[victim];
        e.ts.store(VERSION_BUSY, Ordering::SeqCst);
        e.val.store(v, Ordering::SeqCst);
        e.ts.store(ts, Ordering::SeqCst);
        filled += (victim_ts == VERSION_EMPTY) as u64;
        if filled != 0 {
            va.meta.live_entries.fetch_add(filled, Ordering::Relaxed);
        }
        va.meta.appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Commit write-back of `v` into the word at `addr` stamped with the
    /// committing transaction's release timestamp: appends to the version
    /// ring (when enabled), then stores the word. The fence orders the ring
    /// append before the main store — a release fence followed by the
    /// store, so a snapshot reader whose *acquire* load of the word
    /// observes the new main value is guaranteed to also observe the ring
    /// entries (pairs with the acquire load in [`Heap::snapshot_read`]; the
    /// reader pays no fence).
    ///
    /// Bounds-checked like [`Heap::store_checked`], before the ring is
    /// touched: an address that check rejects returns `false` and changes
    /// nothing.
    #[inline]
    pub(crate) fn store_versioned_checked(&self, addr: u32, v: u64, release_ts: u64) -> bool {
        let Some(w) = self.word_checked(addr) else {
            return false;
        };
        if let Some(va) = &self.versions {
            self.version_append(va, addr as usize, v, release_ts);
            fence(Ordering::SeqCst);
        }
        w.store(v, Ordering::Relaxed);
        true
    }

    /// Reads the value word `h` held at snapshot timestamp `snap` (an even
    /// seqlock value), walking the version ring for the newest version
    /// with stamp ≤ `snap`. `base` is the version base the reader loaded
    /// at its begin ([`Heap::version_base`]; `snap ≥ base`): entries
    /// stamped below it are stale and skipped like empty ones.
    ///
    /// Visibility rule: a version stamped `t ≤ snap` was fully published
    /// (SeqCst) before its commit's release store of `t`, and `snap` was
    /// read from the timestamp at or after `t`, so the reader cannot miss
    /// it unless it was later overwritten. The ring holds the newest
    /// `VERSION_RING` versions (overwrite-oldest, stamps strictly monotone
    /// per word), so the largest stamp ≤ `snap` in the ring *at one
    /// instant* is the word's value at `snap`. The scan is not one
    /// instant: it visits the positions once, in index order, and several
    /// appends may land under it — replacing both the candidate it already
    /// read and the true newest-≤-`snap` entry it has not reached yet,
    /// after which every later position reads `> snap`. So the candidate's
    /// stamp is re-loaded after the scan. Unchanged ⇒ nothing newer than
    /// the candidate was overwritten under the scan (oldest goes first),
    /// every stamp ≤ `snap` was appended before `snap` was taken, hence
    /// the scan saw them all and the answer stands. Changed, or no stable
    /// candidate at all ⇒ the conservative [`SnapshotRead::Miss`].
    ///
    /// A ring with nothing at or above the base means no versioned commit
    /// wrote the word since the base: the main value has been constant
    /// since the base (or since the word became reachable), and the
    /// acquire-load/release-fence pair with
    /// [`Heap::store_versioned_checked`] rules out "main store visible, append
    /// not". The acquire load keeps the ring scan ordered after it at no
    /// per-read fence cost — this runs on the engine's hottest path.
    pub(crate) fn snapshot_read(&self, h: Handle, snap: u64, base: u64) -> SnapshotRead {
        debug_assert!(!h.is_null(), "snapshot_read through null handle");
        let va = self
            .versions
            .as_ref()
            .expect("snapshot_read on a heap without versions");
        let main = self.word(h.0 as usize).load(Ordering::Acquire);
        let Some(ring) = self.version_ring(va, h.0 as usize) else {
            return SnapshotRead::Current(main);
        };
        let mut best: Option<(&VersionEntry, u64)> = None;
        let mut best_ts = 0u64;
        let mut nonempty = false;
        let mut newer = false;
        for e in ring {
            let t1 = e.ts.load(Ordering::SeqCst);
            if t1 < base {
                continue;
            }
            nonempty = true;
            if t1 == VERSION_BUSY || t1 > snap {
                // BUSY is an append in flight, whose stamp (once stored)
                // exceeds every stable one: conservatively "newer".
                newer = true;
                continue;
            }
            let v = e.val.load(Ordering::SeqCst);
            let t2 = e.ts.load(Ordering::SeqCst);
            if t2 != t1 {
                // Torn: overwrite began mid-read. Still "nonempty" (and
                // "newer" — the incoming stamp is the word's largest), so
                // a candidate-less scan reports Miss, never a stale main.
                newer = true;
                continue;
            }
            if t1 >= best_ts {
                best_ts = t1;
                best = Some((e, v));
            }
        }
        match best {
            Some((e, _)) if e.ts.load(Ordering::SeqCst) != best_ts => SnapshotRead::Miss,
            Some((_, v)) if newer => SnapshotRead::Old(v),
            Some((_, v)) => SnapshotRead::Current(v),
            None if nonempty => SnapshotRead::Miss,
            None => SnapshotRead::Current(main),
        }
    }

    /// Empties word `idx`'s ring (recycled-block handout).
    fn version_clear(&self, va: &VersionArena, idx: usize) {
        let Some(ring) = self.version_ring(va, idx) else {
            return;
        };
        let mut cleared = 0u64;
        for e in ring {
            if e.ts.load(Ordering::Relaxed) != VERSION_EMPTY {
                e.ts.store(VERSION_EMPTY, Ordering::SeqCst);
                cleared += 1;
            }
        }
        if cleared > 0 {
            va.meta.live_entries.fetch_sub(cleared, Ordering::Relaxed);
        }
    }

    /// Moves matured pool entries (stamp ≤ `horizon`) into `cache`.
    /// Non-blocking: contention just means the caller falls back to the
    /// bump frontier.
    pub(crate) fn pool_drain_into(&self, cache: &mut HeapCache, horizon: u64) {
        if let Ok(mut pool) = self.pool.try_lock() {
            pool.retain(|&(stamp, addr, len)| {
                if stamp <= horizon {
                    cache.push_bin(addr, len);
                    false
                } else {
                    true
                }
            });
        }
    }

    /// Surrenders a deregistering thread's entire cache to the shared pool.
    /// Already-matured blocks keep stamp 0 (reclaimable immediately:
    /// maturity is monotone because the era never decreases).
    pub(crate) fn pool_flush(&self, cache: &mut HeapCache) {
        // Poison-tolerant: this runs from ThreadHandle::drop, possibly
        // while unwinding a body panic; the pool (a plain free-list) is
        // never left half-updated by a holder's panic.
        let mut pool = self
            .pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (len, bin) in cache.bins.iter_mut().enumerate() {
            for addr in bin.drain(..) {
                pool.push((0, addr, len as u32));
            }
        }
        for (addr, len) in cache.large.drain(..) {
            pool.push((0, addr, len));
        }
        for (stamp, addr, len) in cache.retired.drain(..) {
            pool.push((stamp, addr, len));
        }
    }
}

impl Drop for Heap {
    fn drop(&mut self) {
        // The first `base_segs` entries alias `base`, which frees itself.
        for slot in self.table.iter_mut().skip(self.base_segs) {
            let p = *slot.get_mut();
            if !p.is_null() {
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                        p,
                        self.seg_words,
                    )));
                }
            }
        }
        // Version segments are all owned (no base aliasing).
        if let Some(va) = &mut self.versions {
            for slot in va.table.iter_mut() {
                let p = *slot.get_mut();
                if !p.is_null() {
                    unsafe {
                        drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                            p,
                            self.seg_words * VERSION_RING,
                        )));
                    }
                }
            }
        }
    }
}

impl fmt::Debug for Heap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Heap")
            .field("capacity", &self.capacity())
            .field("allocated", &self.allocated())
            .field("segments", &self.live_segments.load(Ordering::Relaxed))
            .field("segment_words", &self.seg_words)
            .finish()
    }
}

/// Exact-size free lists up to this many words; larger blocks go to an
/// unbinned overflow list. Covers every `txds` node size with room to spare.
const MAX_BIN: usize = 32;

/// Per-thread allocation cache: size-binned free blocks ready for handout,
/// plus the retire list of committed frees waiting out their reclamation
/// horizon. Owned by a [`crate::ThreadHandle`]; surrendered to the heap's
/// shared pool when the handle drops.
pub(crate) struct HeapCache {
    /// `bins[len]` holds addresses of free blocks of exactly `len` words.
    bins: [Vec<u32>; MAX_BIN + 1],
    /// Free blocks larger than [`MAX_BIN`], as `(addr, len)`.
    large: Vec<(u32, u32)>,
    /// Committed frees, stamped with the era at their commit; front-to-back
    /// in non-decreasing stamp order (one thread's commits are ordered).
    retired: VecDeque<Retired>,
    /// Conservative local copy of the heap's era clock, pinned into the
    /// registry at every transaction begin. Deliberately stale: refreshing
    /// it only where this thread touches the era line anyway (its own
    /// free-commits, the allocation slow path) keeps the shared clock off
    /// the begin fast path. A stale (lower) pin is always safe — it only
    /// under-approximates the reclamation horizon, delaying (never
    /// unleashing) recycling.
    pub(crate) era_cache: u64,
}

impl HeapCache {
    /// A cache whose era starts at `era` (the clock value observed at
    /// thread registration — safe for the same reason any stale-low value
    /// is, and fresh enough that the thread's first pins don't stall the
    /// horizon).
    pub(crate) fn new_at(era: u64) -> HeapCache {
        HeapCache {
            bins: std::array::from_fn(|_| Vec::new()),
            large: Vec::new(),
            retired: VecDeque::new(),
            era_cache: era,
        }
    }

    fn push_bin(&mut self, addr: u32, len: u32) {
        if (len as usize) <= MAX_BIN {
            self.bins[len as usize].push(addr);
        } else {
            self.large.push((addr, len));
        }
    }

    fn pop_bin(&mut self, len: u32) -> Option<u32> {
        if (len as usize) <= MAX_BIN {
            self.bins[len as usize].pop()
        } else {
            let i = self.large.iter().position(|&(_, l)| l == len)?;
            Some(self.large.swap_remove(i).0)
        }
    }

    /// Moves retired blocks whose stamp the horizon has passed into the
    /// handout bins.
    fn mature(&mut self, horizon: u64) {
        while let Some(&(stamp, addr, len)) = self.retired.front() {
            if stamp > horizon {
                break;
            }
            self.retired.pop_front();
            self.push_bin(addr, len);
        }
    }

    /// Allocates `n` words: recycled from the local bins if possible, then
    /// from newly matured retirees (local and shared pool; `horizon` is
    /// only evaluated on this slow path), then from the bump frontier.
    /// Returns `None` only at the true capacity ceiling.
    pub(crate) fn alloc(
        &mut self,
        heap: &Heap,
        horizon: impl FnOnce() -> u64,
        n: usize,
    ) -> Option<Handle> {
        debug_assert!(n >= 1);
        let len = u32::try_from(n).ok()?;
        if let Some(addr) = self.pop_bin(len) {
            return Some(self.hand_out(heap, addr, n));
        }
        self.era_cache = heap.current_era();
        let hz = horizon();
        self.mature(hz);
        heap.pool_drain_into(self, hz);
        if let Some(addr) = self.pop_bin(len) {
            return Some(self.hand_out(heap, addr, n));
        }
        heap.alloc(n)
    }

    fn hand_out(&mut self, heap: &Heap, addr: u32, n: usize) -> Handle {
        heap.zero_range(addr, n);
        heap.recycled_words.fetch_add(n as u64, Ordering::Relaxed);
        Handle(addr)
    }

    /// Commit hook: the attempt's frees become retired blocks under a fresh
    /// era stamp (taken *after* the commit is fully visible — under RInval
    /// that means after the server answered `COMMITTED`, so its write-back
    /// has finished); its allocations are now published and forgotten.
    pub(crate) fn commit(&mut self, heap: &Heap, log: &mut AllocLog) {
        log.allocs.clear();
        if log.frees.is_empty() {
            return;
        }
        let stamp = heap.advance_era();
        self.era_cache = self.era_cache.max(stamp);
        for &(addr, len) in &log.frees {
            heap.freed_words.fetch_add(len as u64, Ordering::Relaxed);
            self.retired.push_back((stamp, addr, len));
        }
        log.frees.clear();
    }

    /// Abort hook: speculative allocations were never published, so they
    /// return straight to the bins (no horizon needed — even a recycled
    /// block re-aborted here was already unreachable); frees are dropped.
    pub(crate) fn abort(&mut self, log: &mut AllocLog) {
        for &(addr, len) in &log.allocs {
            self.push_bin(addr, len);
        }
        log.allocs.clear();
        log.frees.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A snapshot read at the heap's current version base, as a declared
    /// reader that began now would make it.
    fn read_at(heap: &Heap, h: Handle, snap: u64) -> SnapshotRead {
        heap.snapshot_read(h, snap, heap.version_base())
    }

    #[test]
    fn null_handle_properties() {
        assert!(Handle::NULL.is_null());
        assert_eq!(Handle::from_word(0), Handle::NULL);
        assert_eq!(Handle::NULL.to_word(), 0);
    }

    #[test]
    fn alloc_returns_distinct_zeroed_words() {
        let heap = Heap::new(100);
        let a = heap.alloc(3).unwrap();
        let b = heap.alloc(2).unwrap();
        assert_ne!(a, b);
        for i in 0..3 {
            assert_eq!(heap.load(a.field(i)), 0);
        }
        heap.store(a, 42);
        assert_eq!(heap.load(a), 42);
        assert_eq!(heap.load(b), 0, "allocations must not alias");
    }

    #[test]
    fn alloc_zero_words_is_null() {
        let heap = Heap::new(10);
        assert!(heap.alloc(0).unwrap().is_null());
        assert_eq!(heap.allocated(), 0);
    }

    #[test]
    fn alloc_exhaustion_returns_none_at_ceiling() {
        let heap = Heap::with_limits(8, Some(8));
        assert!(heap.alloc(8).is_some());
        assert!(heap.alloc(1).is_none());
    }

    #[test]
    fn failed_alloc_wastes_nothing() {
        // Regression: the old monotone `fetch_add` bump permanently burned
        // the over-reservation of a failed alloc, so the subsequent smaller
        // request below would also fail.
        let heap = Heap::with_limits(16, Some(16));
        assert!(heap.alloc(12).is_some());
        for _ in 0..10 {
            assert!(heap.alloc(8).is_none(), "past the ceiling");
        }
        assert_eq!(heap.allocated(), 12, "failed allocs must reserve nothing");
        assert!(heap.alloc(4).is_some(), "remaining words still allocatable");
        assert!(heap.alloc(1).is_none());
    }

    #[test]
    fn heap_grows_past_initial_words() {
        let heap = Heap::new(64);
        let initial_segments = heap.stats().live_segments;
        // Far more than the initial arena; must grow, not fail.
        let mut handles = Vec::new();
        for i in 0..1000u64 {
            let h = heap.alloc(4).expect("growable heap must not exhaust");
            heap.store(h, i);
            handles.push(h);
        }
        let st = heap.stats();
        assert!(st.live_segments > initial_segments, "no growth observed");
        assert_eq!(st.reserved_words, st.live_segments * st.segment_words);
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(heap.load(*h), i as u64);
            assert_eq!(heap.load(h.field(3)), 0, "new segments must be zeroed");
        }
    }

    #[test]
    fn records_may_span_segment_boundaries() {
        let heap = Heap::new(64); // 512-word segments

        // Walk allocations across the first boundary and verify per-word
        // addressing on both sides.
        let mut crossed = false;
        for _ in 0..200 {
            let h = heap.alloc(5).unwrap();
            for i in 0..5 {
                heap.store(h.field(i), u64::from(h.0) * 10 + u64::from(i));
            }
            for i in 0..5 {
                assert_eq!(heap.load(h.field(i)), u64::from(h.0) * 10 + u64::from(i));
            }
            let first_seg = h.0 as usize >> heap.seg_shift;
            let last_seg = (h.0 as usize + 4) >> heap.seg_shift;
            crossed |= first_seg != last_seg;
        }
        assert!(crossed, "test did not cross a segment boundary");
    }

    #[test]
    fn handle_word_roundtrip() {
        let heap = Heap::new(10);
        let h = heap.alloc(1).unwrap();
        let w = h.to_word();
        assert_eq!(Handle::from_word(w), h);
    }

    #[test]
    fn field_addressing() {
        let heap = Heap::new(10);
        let rec = heap.alloc(4).unwrap();
        for i in 0..4 {
            heap.store(rec.field(i), i as u64 * 10);
        }
        for i in 0..4 {
            assert_eq!(heap.load(rec.field(i)), i as u64 * 10);
        }
    }

    #[test]
    fn store_checked_rejects_bad_addresses() {
        let heap = Heap::with_limits(4, Some(4));
        assert!(!heap.store_checked(0, 1), "null must be rejected");
        assert!(!heap.store_checked(100, 1), "out of range must be rejected");
        let h = heap.alloc(1).unwrap();
        assert!(heap.store_checked(h.addr(), 9));
        assert_eq!(heap.load(h), 9);
    }

    #[test]
    fn load_checked_rejects_what_store_checked_rejects() {
        let heap = Heap::new(4);
        // The last word under the ceiling lies in a segment nobody has
        // materialized; the one past it lies over the ceiling.
        let last = heap.max_words as u32;
        for addr in [0, last, last + 1] {
            assert_eq!(heap.load_checked(addr), None, "{addr}");
            assert!(!heap.store_checked(addr, 1), "{addr}");
        }
        let h = heap.alloc(1).unwrap();
        assert!(heap.store_checked(h.addr(), 9));
        assert_eq!(heap.load_checked(h.addr()), Some(9));
    }

    #[test]
    fn cache_recycles_committed_frees() {
        let heap = Heap::new(64);
        let mut cache = HeapCache::new_at(0);
        let mut log = AllocLog::default();

        let a = cache.alloc(&heap, || u64::MAX, 3).unwrap();
        log.allocs.push((a.addr(), 3));
        heap.store(a, 7);
        cache.commit(&heap, &mut log); // publish

        log.frees.push((a.addr(), 3));
        cache.commit(&heap, &mut log); // free commits, block retired

        // No live transactions → horizon is MAX → the block matures.
        let b = cache.alloc(&heap, || u64::MAX, 3).unwrap();
        assert_eq!(b, a, "matured block must be recycled");
        assert_eq!(heap.load(b), 0, "recycled block must be re-zeroed");
        let st = heap.stats();
        assert_eq!(st.freed_words, 3);
        assert_eq!(st.recycled_words, 3);
        assert_eq!(st.allocated_words, 3, "no arena growth for the reuse");
        assert_eq!(st.in_use_words(), 3);
    }

    #[test]
    fn horizon_blocks_premature_reuse() {
        let heap = Heap::new(64);
        let mut cache = HeapCache::new_at(0);
        let mut log = AllocLog::default();
        let a = cache.alloc(&heap, || u64::MAX, 2).unwrap();
        log.allocs.push((a.addr(), 2));
        cache.commit(&heap, &mut log);
        log.frees.push((a.addr(), 2));
        cache.commit(&heap, &mut log);
        let stamp = heap.current_era();

        // A lagging reader pins the horizon below the stamp: no reuse.
        let b = cache.alloc(&heap, || stamp - 1, 2).unwrap();
        assert_ne!(b, a, "block reused before its horizon passed");
        // Horizon reaches the stamp: reuse.
        let c = cache.alloc(&heap, || stamp, 2).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn abort_returns_speculative_allocations() {
        let heap = Heap::new(64);
        let mut cache = HeapCache::new_at(0);
        let mut log = AllocLog::default();
        let a = cache.alloc(&heap, || u64::MAX, 4).unwrap();
        log.allocs.push((a.addr(), 4));
        heap.store(a, 99); // speculative init
        cache.abort(&mut log);
        assert_eq!(heap.allocated(), 4);
        // The very next alloc reuses the surrendered block, zeroed.
        let b = cache.alloc(&heap, || u64::MAX, 4).unwrap();
        assert_eq!(b, a, "aborted allocation must be surrendered for reuse");
        assert_eq!(heap.load(b), 0);
        assert_eq!(heap.allocated(), 4, "no arena growth after abort churn");
    }

    #[test]
    fn alloc_then_free_in_one_attempt_is_single_counted() {
        let heap = Heap::new(64);
        let mut cache = HeapCache::new_at(0);
        let mut log = AllocLog::default();

        // Commit path: the block is retired exactly once.
        let a = cache.alloc(&heap, || u64::MAX, 2).unwrap();
        log.allocs.push((a.addr(), 2));
        log.frees.push((a.addr(), 2));
        cache.commit(&heap, &mut log);
        let b = cache.alloc(&heap, || u64::MAX, 2).unwrap();
        assert_eq!(b, a);
        let c = cache.alloc(&heap, || u64::MAX, 2).unwrap();
        assert_ne!(c, a, "block must not be handed out twice");

        // Abort path: the block returns exactly once.
        let mut log = AllocLog::default();
        let d = cache.alloc(&heap, || u64::MAX, 2).unwrap();
        log.allocs.push((d.addr(), 2));
        log.frees.push((d.addr(), 2));
        cache.abort(&mut log);
        let e = cache.alloc(&heap, || u64::MAX, 2).unwrap();
        assert_eq!(e, d);
        let f = cache.alloc(&heap, || u64::MAX, 2).unwrap();
        assert_ne!(f, d);
    }

    #[test]
    fn pool_hands_blocks_between_caches() {
        let heap = Heap::new(64);
        let mut log = AllocLog::default();
        let mut cache1 = HeapCache::new_at(0);
        let a = cache1.alloc(&heap, || u64::MAX, 3).unwrap();
        log.allocs.push((a.addr(), 3));
        cache1.commit(&heap, &mut log);
        log.frees.push((a.addr(), 3));
        cache1.commit(&heap, &mut log);
        heap.pool_flush(&mut cache1); // thread deregisters

        let mut cache2 = HeapCache::new_at(0);
        let b = cache2.alloc(&heap, || u64::MAX, 3).unwrap();
        assert_eq!(b, a, "pooled block must be reusable by another thread");
    }

    #[test]
    fn version_stats_zero_when_disabled() {
        let heap = Heap::new(64);
        assert!(!heap.versions_enabled());
        let st = heap.stats();
        assert_eq!(st.version_ring_depth, 0);
        assert_eq!(st.version_entries, 0);
        assert_eq!(st.version_appends, 0);
    }

    #[test]
    fn version_seed_preserves_preimage() {
        let mut heap = Heap::new(64);
        heap.enable_versions();
        let h = heap.alloc(1).unwrap();
        heap.store(h, 5); // private init, unversioned
                          // The first versioned commit, at ts 4. Snapshots before it see the
                          // seeded pre-image, flagged Old because the ts-4 commit supersedes
                          // it…
        heap.store_versioned_checked(h.addr(), 10, 4);
        assert_eq!(read_at(&heap, h, 2), SnapshotRead::Old(5));
        // …snapshots at or after it see the new version, which is also
        // the word's present value.
        assert_eq!(read_at(&heap, h, 4), SnapshotRead::Current(10));
        assert_eq!(read_at(&heap, h, 6), SnapshotRead::Current(10));
        let st = heap.stats();
        assert_eq!(st.version_ring_depth, VERSION_RING);
        assert_eq!(st.version_entries, 2, "seed + one version");
        assert_eq!(st.version_appends, 1);
    }

    #[test]
    fn version_ring_overwrite_reports_miss_for_old_snapshots() {
        let mut heap = Heap::new(64);
        heap.enable_versions();
        let h = heap.alloc(1).unwrap();
        // VERSION_RING + 4 commits at even stamps 4, 6, 8, …
        let writes = VERSION_RING as u64 + 4;
        for i in 0..writes {
            heap.store_versioned_checked(h.addr(), 100 + i, 4 + 2 * i);
        }
        // The newest VERSION_RING versions resolve exactly…
        let last_ts = 4 + 2 * (writes - 1);
        for k in 0..VERSION_RING as u64 {
            let ts = last_ts - 2 * k;
            let v = 100 + (ts - 4) / 2;
            // The newest version is Current; everything behind it is Old.
            let want = if ts == last_ts {
                SnapshotRead::Current(v)
            } else {
                SnapshotRead::Old(v)
            };
            assert_eq!(read_at(&heap, h, ts), want, "snapshot {ts}");
            // An in-between (odd-gap) snapshot sees the older version.
            let want_odd = if ts + 1 > last_ts {
                SnapshotRead::Current(v)
            } else {
                SnapshotRead::Old(v)
            };
            assert_eq!(read_at(&heap, h, ts + 1), want_odd);
        }
        // …anything older fell off the ring.
        assert_eq!(
            read_at(&heap, h, last_ts - 2 * VERSION_RING as u64),
            SnapshotRead::Miss
        );
        assert_eq!(read_at(&heap, h, 2), SnapshotRead::Miss);
        let st = heap.stats();
        assert_eq!(st.version_entries, VERSION_RING as u64, "ring stays full");
        assert_eq!(st.version_appends, writes);
    }

    /// Several appends landing under one ring scan must not surface a
    /// version the snapshot had already seen superseded. The writer stores
    /// `ts` as the value at every even `ts` and then publishes `ts`;
    /// readers (more than the host has cores, so that one is regularly
    /// preempted mid-scan) snapshot at the last published stamp, whose
    /// version is `ts` itself — anything less is a stale read.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn snapshot_read_never_returns_a_superseded_version() {
        use std::sync::atomic::AtomicBool;
        let mut heap = Heap::new(64);
        heap.enable_versions();
        let h = heap.alloc(1).unwrap();
        let (heap, published, stop) = (&heap, &AtomicU64::new(0), &AtomicBool::new(false));
        let (reads, stale) = std::thread::scope(|s| {
            s.spawn(move || {
                let mut ts = 2;
                while !stop.load(Ordering::Relaxed) {
                    heap.store_versioned_checked(h.addr(), ts, ts);
                    published.store(ts, Ordering::SeqCst);
                    ts += 2;
                }
            });
            let reader = move || {
                let (mut reads, mut stale) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    let snap = published.load(Ordering::SeqCst);
                    match read_at(heap, h, snap) {
                        SnapshotRead::Current(v) | SnapshotRead::Old(v) => {
                            stale += (v < snap) as u64
                        }
                        SnapshotRead::Miss => {}
                    }
                    reads += 1;
                }
                (reads, stale)
            };
            let readers: Vec<_> = (0..6).map(|_| s.spawn(reader)).collect();
            std::thread::sleep(std::time::Duration::from_secs(2));
            stop.store(true, Ordering::Relaxed);
            let sum = |(r, s), (r1, s1)| (r + r1, s + s1);
            readers
                .into_iter()
                .map(|r| r.join().unwrap())
                .fold((0, 0), sum)
        });
        assert!(reads > 0);
        assert_eq!(
            stale, 0,
            "{stale} of {reads} snapshot reads returned a superseded version"
        );
    }

    #[test]
    fn snapshot_read_of_unversioned_word_returns_main_value() {
        let mut heap = Heap::new(64);
        heap.enable_versions();
        let a = heap.alloc(1).unwrap();
        let b = heap.alloc(1).unwrap();
        heap.store(a, 77);
        // No versioned write anywhere: no segment materialized.
        assert_eq!(read_at(&heap, a, 2), SnapshotRead::Current(77));
        // A neighbor's versioned write materializes the segment; `a`'s own
        // ring is still empty and must still resolve to the main value.
        heap.store_versioned_checked(b.addr(), 9, 4);
        assert_eq!(read_at(&heap, a, 2), SnapshotRead::Current(77));
    }

    #[test]
    fn recycled_block_sheds_its_versions() {
        let mut heap = Heap::new(64);
        heap.enable_versions();
        let mut cache = HeapCache::new_at(0);
        let mut log = AllocLog::default();
        let a = cache.alloc(&heap, || u64::MAX, 2).unwrap();
        log.allocs.push((a.addr(), 2));
        cache.commit(&heap, &mut log);
        heap.store_versioned_checked(a.addr(), 11, 4);
        heap.store_versioned_checked(a.field(1).addr(), 12, 6);
        assert_eq!(heap.stats().version_entries, 4, "two seeds + two versions");

        log.frees.push((a.addr(), 2));
        cache.commit(&heap, &mut log);
        let b = cache.alloc(&heap, || u64::MAX, 2).unwrap();
        assert_eq!(b, a, "matured block must be recycled");
        // The old identity's versions are gone: every snapshot resolves to
        // the zeroed main words.
        assert_eq!(heap.stats().version_entries, 0);
        for snap in [0, 2, 4, 6, 8] {
            assert_eq!(read_at(&heap, b, snap), SnapshotRead::Current(0));
            assert_eq!(read_at(&heap, b.field(1), snap), SnapshotRead::Current(0));
        }
    }

    /// The version base: an unversioned commit (plain store after the base
    /// advance) turns every older entry stale — skipped by reads, reused by
    /// the next append, which seeds the pre-image at the base stamp. A
    /// versioned write at the base stamp itself seeds nothing.
    #[test]
    fn entries_below_the_version_base_are_stale() {
        let mut heap = Heap::new(64);
        heap.enable_versions();
        assert_eq!(heap.version_base(), 1);
        let h = heap.alloc(1).unwrap();
        heap.store(h, 5);
        // Seed (5 @ 1) and (10 @ 4), then an unversioned commit at 6.
        heap.store_versioned_checked(h.addr(), 10, 4);
        heap.advance_version_base(6);
        heap.store(h, 20);
        assert_eq!(
            read_at(&heap, h, 6),
            SnapshotRead::Current(20),
            "stale 10 @ 4"
        );
        // Versioned commit at 8: the stale entries are reused, the seed
        // carries 20 from the base on.
        heap.store_versioned_checked(h.addr(), 30, 8);
        assert_eq!(read_at(&heap, h, 6), SnapshotRead::Old(20));
        assert_eq!(read_at(&heap, h, 8), SnapshotRead::Current(30));
        let st = heap.stats();
        assert_eq!((st.version_appends, st.version_entries), (2, 2), "{st:?}");
        // A versioned write-back at the base stamp (recovery re-deciding an
        // unversioned commit) must not seed the pre-image there.
        heap.advance_version_base(10);
        heap.store_versioned_checked(h.addr(), 40, 10);
        assert_eq!(read_at(&heap, h, 10), SnapshotRead::Current(40));
    }

    /// The addressing words every word access reads (the commit-server's
    /// write-back included) share no line pair with a word clients or the
    /// write-back agent store into per commit.
    #[test]
    fn addressing_words_share_no_line_pair_with_a_writer() {
        use crate::tests::{share_a_pair, span};
        let mut heap = Heap::new(64);
        heap.enable_versions();
        let h = &heap;
        let va = h.versions.as_ref().unwrap();
        let read = [
            ("base", span(h, &h.base)),
            ("base_words", span(h, &h.base_words)),
            ("table", span(h, &h.table)),
            ("seg_words", span(h, &h.seg_words)),
            ("seg_shift", span(h, &h.seg_shift)),
            ("max_words", span(h, &h.max_words)),
            ("versions.table", span(h, &va.table)),
        ];
        let written = [
            ("cursor", span(h, &h.cursor)),
            ("era", span(h, &h.era)),
            ("freed_words", span(h, &h.freed_words)),
            ("recycled_words", span(h, &h.recycled_words)),
            ("pool", span(h, &h.pool)),
            ("versions.meta", span(h, &va.meta)),
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

    #[test]
    fn store_versioned_checked_rejects_bad_addresses() {
        let mut heap = Heap::with_limits(4, Some(4));
        heap.enable_versions();
        assert!(!heap.store_versioned_checked(0, 1, 4));
        assert!(!heap.store_versioned_checked(100, 1, 4));
        let h = heap.alloc(1).unwrap();
        assert!(heap.store_versioned_checked(h.addr(), 9, 4));
        assert_eq!(heap.load(h), 9);
        assert_eq!(read_at(&heap, h, 4), SnapshotRead::Current(9));
        // An address under the ceiling in a segment nobody materialized is
        // rejected before its ring is touched.
        let mut heap = Heap::new(4);
        heap.enable_versions();
        assert!(!heap.store_versioned_checked(heap.max_words as u32, 1, 4));
    }

    #[test]
    fn concurrent_alloc_never_overlaps() {
        let heap = Arc::new(Heap::new(256)); // small: forces concurrent growth
        let mut handles = Vec::new();
        for _ in 0..4 {
            let heap = Arc::clone(&heap);
            handles.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                for _ in 0..100 {
                    let h = heap.alloc(5).unwrap();
                    mine.push(h.0);
                }
                mine
            }));
        }
        let mut all: Vec<u32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        for pair in all.windows(2) {
            assert!(pair[1] - pair[0] >= 5, "overlapping allocations");
        }
    }
}
