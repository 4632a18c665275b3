//! Per-transaction read and write logs.
//!
//! These are the "Logging" overhead of the paper's critical-path analysis
//! (§III): every transactional read and write is recorded locally. The paper
//! notes this cost cannot be avoided in a lazy STM, only minimized by an
//! efficient implementation — hence the flat vectors plus a tiny
//! open-addressing index for read-your-own-writes lookups.

use crate::heap::Handle;

/// One buffered write: address + value, laid out so a slice of entries can
/// be handed to the commit-server as a raw (pointer, len) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
pub struct WriteEntry {
    /// Raw heap address (see [`Handle`] encoding).
    pub addr: u32,
    /// The value to publish at commit.
    pub val: u64,
}

/// The redo-log write-set of a transaction — every engine's one write
/// discipline.
///
/// Writes are buffered here and published at commit (by the transaction
/// itself under NOrec/InvalSTM, by the commit-server under RInval). Lookups
/// must be fast because *every* read first checks the write-set; a linear
/// scan is fine for a handful of writes but STAMP transactions buffer
/// hundreds, so a hash index over the entry vector kicks in past a small
/// threshold.
#[derive(Debug, Default)]
pub struct WriteSet {
    entries: Vec<WriteEntry>,
    /// Open-addressing table of `entry_index + 1` (0 = empty), keyed by
    /// address. Rebuilt on growth. Empty while `entries` is small.
    index: Vec<u32>,
}

/// Linear scan below this many entries; hash index above.
const INDEX_THRESHOLD: usize = 8;

impl WriteSet {
    /// An empty write-set.
    pub fn new() -> WriteSet {
        WriteSet::default()
    }

    /// Number of distinct buffered words.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no writes are buffered (read-only transaction so far).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The buffered entries in insertion order (last write wins is
    /// maintained by in-place update, so each address appears once).
    pub fn entries(&self) -> &[WriteEntry] {
        &self.entries
    }

    /// Clears the log for reuse by the next transaction attempt, keeping
    /// allocated capacity (the "workhorse collection" pattern).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
    }

    #[inline]
    fn hash(addr: u32, mask: usize) -> usize {
        // Fibonacci hashing; the index table is a power of two.
        ((addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & mask
    }

    fn rebuild_index(&mut self) {
        let cap = (self.entries.len() * 4).next_power_of_two().max(32);
        self.index.clear();
        self.index.resize(cap, 0);
        let mask = cap - 1;
        for (i, e) in self.entries.iter().enumerate() {
            let mut slot = Self::hash(e.addr, mask);
            while self.index[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = (i + 1) as u32;
        }
    }

    /// Finds the entry index for `addr`, if present.
    #[inline]
    fn find(&self, addr: u32) -> Option<usize> {
        if self.index.is_empty() {
            return self.entries.iter().position(|e| e.addr == addr);
        }
        let mask = self.index.len() - 1;
        let mut slot = Self::hash(addr, mask);
        loop {
            match self.index[slot] {
                0 => return None,
                i => {
                    let i = (i - 1) as usize;
                    if self.entries[i].addr == addr {
                        return Some(i);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Buffers `val` for `h`, overwriting any previous buffered value.
    /// Returns `true` if this is the first write to the address (callers use
    /// this to update the write Bloom filter exactly once per address).
    pub fn insert(&mut self, h: Handle, val: u64) -> bool {
        let addr = h.addr();
        if let Some(i) = self.find(addr) {
            self.entries[i].val = val;
            return false;
        }
        self.entries.push(WriteEntry { addr, val });
        if self.entries.len() > INDEX_THRESHOLD {
            if self.index.is_empty() || self.entries.len() * 2 > self.index.len() {
                self.rebuild_index();
            } else {
                let mask = self.index.len() - 1;
                let mut slot = Self::hash(addr, mask);
                while self.index[slot] != 0 {
                    slot = (slot + 1) & mask;
                }
                self.index[slot] = self.entries.len() as u32;
            }
        }
        true
    }

    /// Read-your-own-writes lookup.
    #[inline]
    pub fn get(&self, h: Handle) -> Option<u64> {
        self.find(h.addr()).map(|i| self.entries[i].val)
    }
}

/// The allocation log of a transaction attempt: speculative allocations
/// (surrendered back to the thread's heap cache on abort — they were never
/// published) and pending frees (retired under a fresh reclamation-era
/// stamp on commit, dropped on abort). Entries are `(address, length)`
/// block descriptors.
///
/// Unlike the write-set, this log needs no lookup structure: it is only
/// appended to during the attempt and drained wholesale at its end (see
/// `HeapCache::commit` / `HeapCache::abort` in the heap module).
#[derive(Debug, Default)]
pub struct AllocLog {
    /// Blocks obtained by [`crate::Txn::alloc`] during this attempt.
    pub(crate) allocs: Vec<(u32, u32)>,
    /// Blocks passed to [`crate::Txn::free`] during this attempt.
    pub(crate) frees: Vec<(u32, u32)>,
}

impl AllocLog {
    /// An empty allocation log.
    pub fn new() -> AllocLog {
        AllocLog::default()
    }

    /// True if the attempt neither allocated nor freed.
    pub fn is_empty(&self) -> bool {
        self.allocs.is_empty() && self.frees.is_empty()
    }

    /// Clears both halves for the next attempt, keeping capacity.
    pub fn clear(&mut self) {
        self.allocs.clear();
        self.frees.clear();
    }
}

/// NOrec's value-based read-set: `(address, value-seen)` pairs, revalidated
/// by re-reading memory and comparing values (paper §II: "incremental
/// validation ... quadratic function of the read-set size").
#[derive(Debug, Default)]
pub struct ValueReadSet {
    entries: Vec<(Handle, u64)>,
}

impl ValueReadSet {
    /// An empty read-set.
    pub fn new() -> ValueReadSet {
        ValueReadSet::default()
    }

    /// Records that the transaction observed `val` at `h`.
    #[inline]
    pub fn push(&mut self, h: Handle, val: u64) {
        self.entries.push((h, val));
    }

    /// Number of recorded reads.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been read yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded `(handle, value)` pairs in read order.
    pub fn entries(&self) -> &[(Handle, u64)] {
        &self.entries
    }

    /// Clears for the next attempt, keeping capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: u32) -> Handle {
        Handle(i + 1)
    }

    #[test]
    fn empty_write_set() {
        let ws = WriteSet::new();
        assert!(ws.is_empty());
        assert_eq!(ws.len(), 0);
        assert_eq!(ws.get(h(3)), None);
    }

    #[test]
    fn insert_and_get() {
        let mut ws = WriteSet::new();
        assert!(ws.insert(h(1), 10));
        assert!(ws.insert(h(2), 20));
        assert_eq!(ws.get(h(1)), Some(10));
        assert_eq!(ws.get(h(2)), Some(20));
        assert_eq!(ws.get(h(3)), None);
    }

    #[test]
    fn overwrite_keeps_single_entry() {
        let mut ws = WriteSet::new();
        assert!(ws.insert(h(1), 10));
        assert!(
            !ws.insert(h(1), 11),
            "second write to same addr is an update"
        );
        assert_eq!(ws.len(), 1);
        assert_eq!(ws.get(h(1)), Some(11));
        assert_eq!(ws.entries()[0].val, 11);
    }

    #[test]
    fn grows_past_index_threshold_correctly() {
        let mut ws = WriteSet::new();
        for i in 0..500u32 {
            assert!(ws.insert(h(i), i as u64 * 3));
        }
        assert_eq!(ws.len(), 500);
        for i in 0..500u32 {
            assert_eq!(ws.get(h(i)), Some(i as u64 * 3), "addr {i}");
        }
        // Overwrites still update in place after the index is live.
        assert!(!ws.insert(h(123), 999));
        assert_eq!(ws.get(h(123)), Some(999));
        assert_eq!(ws.len(), 500);
    }

    #[test]
    fn clear_resets_but_reuses() {
        let mut ws = WriteSet::new();
        for i in 0..100u32 {
            ws.insert(h(i), 1);
        }
        ws.clear();
        assert!(ws.is_empty());
        assert_eq!(ws.get(h(5)), None);
        assert!(ws.insert(h(5), 7));
        assert_eq!(ws.get(h(5)), Some(7));
    }

    #[test]
    fn entries_preserve_first_insertion_order() {
        let mut ws = WriteSet::new();
        ws.insert(h(9), 1);
        ws.insert(h(3), 2);
        ws.insert(h(9), 3);
        let order: Vec<u32> = ws.entries().iter().map(|e| e.addr).collect();
        assert_eq!(order, vec![h(9).addr(), h(3).addr()]);
    }

    #[test]
    fn value_read_set_basics() {
        let mut rs = ValueReadSet::new();
        assert!(rs.is_empty());
        rs.push(h(0), 5);
        rs.push(h(1), 6);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.entries()[1], (h(1), 6));
        rs.clear();
        assert!(rs.is_empty());
    }
}
