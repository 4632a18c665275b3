//! Transactional sorted singly-linked list set.
//!
//! The paper's introduction uses linked-list traversal as the motivating
//! example of STM's monitoring overhead: unlike a hand-crafted lazy list,
//! an STM must log *every* traversed node, so the read-set grows linearly
//! with the traversal — the worst case for NOrec's quadratic incremental
//! validation and the best case for invalidation's O(1) per-read check.
//! This structure exists to reproduce exactly that behaviour.

use rinval::{Handle, Stm, TxResult, Txn};

// Node layout: [key, next].
const KEY: u32 = 0;
const NEXT: u32 = 1;
const NODE_WORDS: usize = 2;

/// A shared transactional sorted list of unique `u64` keys.
#[derive(Clone, Copy, Debug)]
pub struct TSortedList {
    /// Sentinel head node (key unused); simplifies edge cases.
    head: Handle,
    /// Cell holding the element count.
    size: Handle,
}

impl TSortedList {
    /// Creates an empty list.
    pub fn new(stm: &Stm) -> TSortedList {
        let head = stm.alloc_init(&[0, 0]);
        TSortedList {
            head,
            size: stm.alloc_init(&[0]),
        }
    }

    /// Number of elements.
    pub fn len(&self, tx: &mut Txn<'_>) -> TxResult<u64> {
        tx.read(self.size)
    }

    /// True if no element is present.
    pub fn is_empty(&self, tx: &mut Txn<'_>) -> TxResult<bool> {
        Ok(self.len(tx)? == 0)
    }

    /// Finds the last node with key < `key` (the insertion predecessor).
    fn find_prev(&self, tx: &mut Txn<'_>, key: u64) -> TxResult<Handle> {
        let mut prev = self.head;
        let mut cur = tx.read_handle(self.head.field(NEXT))?;
        while !cur.is_null() {
            let k = tx.read(cur.field(KEY))?;
            if k >= key {
                break;
            }
            prev = cur;
            cur = tx.read_handle(cur.field(NEXT))?;
        }
        Ok(prev)
    }

    /// Membership test (reads the whole prefix — by design, see module doc).
    pub fn contains(&self, tx: &mut Txn<'_>, key: u64) -> TxResult<bool> {
        let prev = self.find_prev(tx, key)?;
        let cur = tx.read_handle(prev.field(NEXT))?;
        if cur.is_null() {
            return Ok(false);
        }
        Ok(tx.read(cur.field(KEY))? == key)
    }

    /// Inserts `key`; returns `false` if it was already present.
    pub fn insert(&self, tx: &mut Txn<'_>, key: u64) -> TxResult<bool> {
        let prev = self.find_prev(tx, key)?;
        let cur = tx.read_handle(prev.field(NEXT))?;
        if !cur.is_null() && tx.read(cur.field(KEY))? == key {
            return Ok(false);
        }
        let node = tx.alloc(NODE_WORDS)?;
        tx.write(node.field(KEY), key)?;
        tx.write(node.field(NEXT), cur.to_word())?;
        tx.write(prev.field(NEXT), node.to_word())?;
        let s = tx.read(self.size)?;
        tx.write(self.size, s + 1)?;
        Ok(true)
    }

    /// Removes `key`; returns `false` if it was absent.
    pub fn remove(&self, tx: &mut Txn<'_>, key: u64) -> TxResult<bool> {
        let prev = self.find_prev(tx, key)?;
        let cur = tx.read_handle(prev.field(NEXT))?;
        if cur.is_null() || tx.read(cur.field(KEY))? != key {
            return Ok(false);
        }
        let next = tx.read(cur.field(NEXT))?;
        tx.write(prev.field(NEXT), next)?;
        let s = tx.read(self.size)?;
        tx.write(self.size, s - 1)?;
        tx.free(cur, NODE_WORDS)?;
        Ok(true)
    }

    /// Sums all keys (a long read-only transaction; used as a scan
    /// workload and for verification).
    pub fn sum(&self, tx: &mut Txn<'_>) -> TxResult<u64> {
        let mut cur = tx.read_handle(self.head.field(NEXT))?;
        let mut acc = 0u64;
        while !cur.is_null() {
            acc = acc.wrapping_add(tx.read(cur.field(KEY))?);
            cur = tx.read_handle(cur.field(NEXT))?;
        }
        Ok(acc)
    }

    /// All keys in order. Quiescent only.
    pub fn snapshot_keys(&self, stm: &Stm) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = Handle::from_word(stm.peek(self.head.field(NEXT)));
        while !cur.is_null() {
            out.push(stm.peek(cur.field(KEY)));
            cur = Handle::from_word(stm.peek(cur.field(NEXT)));
        }
        out
    }

    /// Checks sortedness, uniqueness and the size cell. Quiescent only.
    pub fn check_invariants(&self, stm: &Stm) -> Result<(), String> {
        let keys = self.snapshot_keys(stm);
        for w in keys.windows(2) {
            if w[0] >= w[1] {
                return Err(format!("list not strictly sorted: {} !< {}", w[0], w[1]));
            }
        }
        let recorded = stm.peek(self.size);
        if keys.len() as u64 != recorded {
            return Err(format!("size cell {recorded} != node count {}", keys.len()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rinval::AlgorithmKind;

    fn new_stm() -> Stm {
        Stm::builder(AlgorithmKind::NOrec)
            .heap_words(1 << 14)
            .build()
    }

    #[test]
    fn insert_contains_remove() {
        let stm = new_stm();
        let l = TSortedList::new(&stm);
        let mut th = stm.register_thread();
        assert!(th.run(|tx| l.insert(tx, 5)));
        assert!(th.run(|tx| l.insert(tx, 1)));
        assert!(th.run(|tx| l.insert(tx, 9)));
        assert!(!th.run(|tx| l.insert(tx, 5)), "duplicate must be rejected");
        assert!(th.run(|tx| l.contains(tx, 1)));
        assert!(!th.run(|tx| l.contains(tx, 4)));
        assert!(th.run(|tx| l.remove(tx, 5)));
        assert!(!th.run(|tx| l.remove(tx, 5)));
        assert_eq!(l.snapshot_keys(&stm), vec![1, 9]);
        l.check_invariants(&stm).unwrap();
    }

    #[test]
    fn stays_sorted_under_random_ops() {
        let stm = new_stm();
        let l = TSortedList::new(&stm);
        let mut th = stm.register_thread();
        let mut seed = 7u64;
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..400 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = (seed >> 33) % 64;
            if seed.is_multiple_of(2) {
                assert_eq!(th.run(|tx| l.insert(tx, k)), model.insert(k));
            } else {
                assert_eq!(th.run(|tx| l.remove(tx, k)), model.remove(&k));
            }
        }
        assert_eq!(
            l.snapshot_keys(&stm),
            model.iter().copied().collect::<Vec<_>>()
        );
        l.check_invariants(&stm).unwrap();
    }

    #[test]
    fn sum_matches_snapshot() {
        let stm = new_stm();
        let l = TSortedList::new(&stm);
        let mut th = stm.register_thread();
        for k in [3u64, 1, 4, 1, 5, 9, 2, 6] {
            th.run(|tx| l.insert(tx, k));
        }
        let s = th.run(|tx| l.sum(tx));
        assert_eq!(s, l.snapshot_keys(&stm).iter().sum::<u64>());
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let stm = Stm::builder(AlgorithmKind::InvalStm)
            .heap_words(1 << 16)
            .build();
        let l = TSortedList::new(&stm);
        let stm = &stm;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    let mut th = stm.register_thread();
                    for i in 0..50u64 {
                        th.run(|tx| l.insert(tx, t * 1000 + i));
                    }
                });
            }
        });
        assert_eq!(l.snapshot_keys(stm).len(), 200);
        l.check_invariants(stm).unwrap();
    }
}
