//! Transactional chained hash map (`u64 → u64`) with a fixed bucket array.
//!
//! STAMP's `vacation`, `intruder` and `genome` keep their shared state in
//! hash tables; the fixed bucket count mirrors the C originals (which size
//! the table up front). Short chains keep read-sets small, so hash-table
//! transactions are the "cheap" end of the workload spectrum, in contrast
//! to [`crate::TSortedList`].

use rinval::{Handle, Stm, TxResult, Txn};

// Node layout: [key, val, next].
const KEY: u32 = 0;
const VAL: u32 = 1;
const NEXT: u32 = 2;
const NODE_WORDS: usize = 3;

/// A shared transactional hash map.
#[derive(Clone, Copy, Debug)]
pub struct THashMap {
    /// First bucket cell; buckets are `nbuckets` consecutive words, each
    /// holding the head node handle of its chain.
    buckets: Handle,
    nbuckets: u32,
    /// Cell holding the element count.
    size: Handle,
}

#[inline]
fn hash(key: u64) -> u64 {
    rinval::sync::mix64(key.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

impl THashMap {
    /// Creates a map with `nbuckets` chains (rounded up to at least 1).
    pub fn new(stm: &Stm, nbuckets: u32) -> THashMap {
        let nbuckets = nbuckets.max(1);
        let buckets = stm.alloc(nbuckets as usize);
        THashMap {
            buckets,
            nbuckets,
            size: stm.alloc_init(&[0]),
        }
    }

    #[inline]
    fn bucket(&self, key: u64) -> Handle {
        self.buckets
            .field((hash(key) % self.nbuckets as u64) as u32)
    }

    /// Number of entries.
    pub fn len(&self, tx: &mut Txn<'_>) -> TxResult<u64> {
        tx.read(self.size)
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self, tx: &mut Txn<'_>) -> TxResult<bool> {
        Ok(self.len(tx)? == 0)
    }

    /// Looks up `key`.
    pub fn get(&self, tx: &mut Txn<'_>, key: u64) -> TxResult<Option<u64>> {
        let mut cur = tx.read_handle(self.bucket(key))?;
        while !cur.is_null() {
            if tx.read(cur.field(KEY))? == key {
                return Ok(Some(tx.read(cur.field(VAL))?));
            }
            cur = tx.read_handle(cur.field(NEXT))?;
        }
        Ok(None)
    }

    /// Membership test.
    pub fn contains(&self, tx: &mut Txn<'_>, key: u64) -> TxResult<bool> {
        Ok(self.get(tx, key)?.is_some())
    }

    /// Inserts `key → val`; returns `false` (after updating the value) if
    /// the key already existed.
    pub fn insert(&self, tx: &mut Txn<'_>, key: u64, val: u64) -> TxResult<bool> {
        let bucket = self.bucket(key);
        let head = tx.read_handle(bucket)?;
        let mut cur = head;
        while !cur.is_null() {
            if tx.read(cur.field(KEY))? == key {
                tx.write(cur.field(VAL), val)?;
                return Ok(false);
            }
            cur = tx.read_handle(cur.field(NEXT))?;
        }
        let node = tx.alloc(NODE_WORDS)?;
        tx.write(node.field(KEY), key)?;
        tx.write(node.field(VAL), val)?;
        tx.write(node.field(NEXT), head.to_word())?;
        tx.write(bucket, node.to_word())?;
        let s = tx.read(self.size)?;
        tx.write(self.size, s + 1)?;
        Ok(true)
    }

    /// Atomically adds `delta` to the value at `key`, inserting
    /// `key → delta` if absent. Returns the new value. (The hot operation
    /// in kmeans-style accumulation.)
    pub fn add(&self, tx: &mut Txn<'_>, key: u64, delta: u64) -> TxResult<u64> {
        let bucket = self.bucket(key);
        let head = tx.read_handle(bucket)?;
        let mut cur = head;
        while !cur.is_null() {
            if tx.read(cur.field(KEY))? == key {
                let v = tx.read(cur.field(VAL))?.wrapping_add(delta);
                tx.write(cur.field(VAL), v)?;
                return Ok(v);
            }
            cur = tx.read_handle(cur.field(NEXT))?;
        }
        let node = tx.alloc(NODE_WORDS)?;
        tx.write(node.field(KEY), key)?;
        tx.write(node.field(VAL), delta)?;
        tx.write(node.field(NEXT), head.to_word())?;
        tx.write(bucket, node.to_word())?;
        let s = tx.read(self.size)?;
        tx.write(self.size, s + 1)?;
        Ok(delta)
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&self, tx: &mut Txn<'_>, key: u64) -> TxResult<Option<u64>> {
        let bucket = self.bucket(key);
        let mut prev: Option<Handle> = None;
        let mut cur = tx.read_handle(bucket)?;
        while !cur.is_null() {
            if tx.read(cur.field(KEY))? == key {
                let val = tx.read(cur.field(VAL))?;
                let next = tx.read(cur.field(NEXT))?;
                match prev {
                    None => tx.write(bucket, next)?,
                    Some(p) => tx.write(p.field(NEXT), next)?,
                }
                let s = tx.read(self.size)?;
                tx.write(self.size, s - 1)?;
                tx.free(cur, NODE_WORDS)?;
                return Ok(Some(val));
            }
            prev = Some(cur);
            cur = tx.read_handle(cur.field(NEXT))?;
        }
        Ok(None)
    }

    /// All `(key, value)` pairs in arbitrary order. Quiescent only.
    pub fn snapshot(&self, stm: &Stm) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for b in 0..self.nbuckets {
            let mut cur = Handle::from_word(stm.peek(self.buckets.field(b)));
            while !cur.is_null() {
                out.push((stm.peek(cur.field(KEY)), stm.peek(cur.field(VAL))));
                cur = Handle::from_word(stm.peek(cur.field(NEXT)));
            }
        }
        out
    }

    /// Checks key uniqueness and the size cell. Quiescent only.
    pub fn check_invariants(&self, stm: &Stm) -> Result<(), String> {
        let snap = self.snapshot(stm);
        let mut keys: Vec<u64> = snap.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        if keys.len() != before {
            return Err("duplicate key in hash map".into());
        }
        let recorded = stm.peek(self.size);
        if before as u64 != recorded {
            return Err(format!("size cell {recorded} != entry count {before}"));
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
            .heap_words(1 << 16)
            .build()
    }

    #[test]
    fn insert_get_remove() {
        let stm = new_stm();
        let m = THashMap::new(&stm, 16);
        let mut th = stm.register_thread();
        assert!(th.run(|tx| m.insert(tx, 1, 10)));
        assert!(th.run(|tx| m.insert(tx, 17, 170))); // likely same bucket as 1
        assert!(!th.run(|tx| m.insert(tx, 1, 11)));
        assert_eq!(th.run(|tx| m.get(tx, 1)), Some(11));
        assert_eq!(th.run(|tx| m.get(tx, 17)), Some(170));
        assert_eq!(th.run(|tx| m.get(tx, 2)), None);
        assert_eq!(th.run(|tx| m.remove(tx, 1)), Some(11));
        assert_eq!(th.run(|tx| m.remove(tx, 1)), None);
        assert_eq!(th.run(|tx| m.len(tx)), 1);
        m.check_invariants(&stm).unwrap();
    }

    #[test]
    fn matches_btreemap_model() {
        let stm = new_stm();
        let m = THashMap::new(&stm, 8); // few buckets → long chains exercised
        let mut th = stm.register_thread();
        let mut model = std::collections::BTreeMap::new();
        let mut seed = 42u64;
        for _ in 0..500 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = (seed >> 33) % 40;
            match seed % 3 {
                0 => {
                    let fresh = th.run(|tx| m.insert(tx, k, seed));
                    assert_eq!(fresh, model.insert(k, seed).is_none());
                }
                1 => {
                    let got = th.run(|tx| m.remove(tx, k));
                    assert_eq!(got, model.remove(&k));
                }
                _ => {
                    let got = th.run(|tx| m.get(tx, k));
                    assert_eq!(got, model.get(&k).copied());
                }
            }
        }
        let mut snap = m.snapshot(&stm);
        snap.sort_unstable();
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(snap, want);
        m.check_invariants(&stm).unwrap();
    }

    #[test]
    fn add_accumulates_and_inserts() {
        let stm = new_stm();
        let m = THashMap::new(&stm, 4);
        let mut th = stm.register_thread();
        assert_eq!(th.run(|tx| m.add(tx, 9, 5)), 5);
        assert_eq!(th.run(|tx| m.add(tx, 9, 3)), 8);
        assert_eq!(th.run(|tx| m.get(tx, 9)), Some(8));
        assert_eq!(th.run(|tx| m.len(tx)), 1);
    }

    #[test]
    fn concurrent_adds_sum_correctly() {
        let stm = Stm::builder(AlgorithmKind::RInvalV1)
            .heap_words(1 << 16)
            .build();
        let m = THashMap::new(&stm, 4);
        let stm = &stm;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || {
                    let mut th = stm.register_thread();
                    for k in 0..10u64 {
                        for _ in 0..20 {
                            th.run(|tx| m.add(tx, k, 1));
                        }
                    }
                });
            }
        });
        let snap = m.snapshot(stm);
        assert_eq!(snap.len(), 10);
        for (k, v) in snap {
            assert_eq!(v, 80, "key {k} lost updates");
        }
    }
}
