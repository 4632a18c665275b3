//! Transactional red-black tree map (`u64 → u64`).
//!
//! The structure behind the paper's micro-benchmark (Figs. 2 and 7: a
//! 64K-element red-black tree). The implementation follows CLRS with
//! parent pointers and a shared `nil` sentinel, like the RSTM/STAMP C
//! version; every node access goes through the transaction, so a single
//! `insert`/`remove`/`get` is one atomic operation and its read-set is the
//! root-to-leaf path (≈ 2·log₂ n words) — the workload shape the paper's
//! validation-cost analysis assumes.

use rinval::{Handle, Stm, TxResult, Txn};

// Node layout (6 words).
const KEY: u32 = 0;
const VAL: u32 = 1;
const LEFT: u32 = 2;
const RIGHT: u32 = 3;
const PARENT: u32 = 4;
const COLOR: u32 = 5;
const NODE_WORDS: usize = 6;

const RED: u64 = 0;
const BLACK: u64 = 1;

/// A shared transactional red-black tree. `Copy`: copies alias the tree.
#[derive(Clone, Copy, Debug)]
pub struct RbTree {
    /// Cell holding the root node handle.
    root: Handle,
    /// The nil sentinel (black). Its child/parent fields are scratch space,
    /// exactly as in CLRS.
    nil: Handle,
    /// Cell holding the element count.
    size: Handle,
}

impl RbTree {
    /// Creates an empty tree.
    pub fn new(stm: &Stm) -> RbTree {
        let nil = stm.alloc(NODE_WORDS);
        stm.poke(nil.field(COLOR), BLACK);
        let root = stm.alloc_init(&[nil.to_word()]);
        let size = stm.alloc_init(&[0]);
        RbTree { root, nil, size }
    }

    #[inline]
    fn is_nil(&self, n: Handle) -> bool {
        n == self.nil
    }

    #[inline]
    fn ptr(&self, tx: &mut Txn<'_>, n: Handle, f: u32) -> TxResult<Handle> {
        Ok(Handle::from_word(tx.read(n.field(f))?))
    }

    #[inline]
    fn set_ptr(&self, tx: &mut Txn<'_>, n: Handle, f: u32, v: Handle) -> TxResult<()> {
        tx.write(n.field(f), v.to_word())
    }

    fn root(&self, tx: &mut Txn<'_>) -> TxResult<Handle> {
        Ok(Handle::from_word(tx.read(self.root)?))
    }

    /// Number of elements.
    pub fn len(&self, tx: &mut Txn<'_>) -> TxResult<u64> {
        tx.read(self.size)
    }

    /// True if the tree has no elements.
    pub fn is_empty(&self, tx: &mut Txn<'_>) -> TxResult<bool> {
        Ok(self.len(tx)? == 0)
    }

    fn find(&self, tx: &mut Txn<'_>, key: u64) -> TxResult<Handle> {
        let mut x = self.root(tx)?;
        while !self.is_nil(x) {
            let k = tx.read(x.field(KEY))?;
            if key == k {
                return Ok(x);
            }
            x = self.ptr(tx, x, if key < k { LEFT } else { RIGHT })?;
        }
        Ok(self.nil)
    }

    /// Looks up `key`.
    pub fn get(&self, tx: &mut Txn<'_>, key: u64) -> TxResult<Option<u64>> {
        let n = self.find(tx, key)?;
        if self.is_nil(n) {
            Ok(None)
        } else {
            Ok(Some(tx.read(n.field(VAL))?))
        }
    }

    /// Membership test.
    pub fn contains(&self, tx: &mut Txn<'_>, key: u64) -> TxResult<bool> {
        Ok(!self.is_nil(self.find(tx, key)?))
    }

    fn rotate_left(&self, tx: &mut Txn<'_>, x: Handle) -> TxResult<()> {
        let y = self.ptr(tx, x, RIGHT)?;
        let yl = self.ptr(tx, y, LEFT)?;
        self.set_ptr(tx, x, RIGHT, yl)?;
        if !self.is_nil(yl) {
            self.set_ptr(tx, yl, PARENT, x)?;
        }
        let xp = self.ptr(tx, x, PARENT)?;
        self.set_ptr(tx, y, PARENT, xp)?;
        if self.is_nil(xp) {
            tx.write(self.root, y.to_word())?;
        } else if self.ptr(tx, xp, LEFT)? == x {
            self.set_ptr(tx, xp, LEFT, y)?;
        } else {
            self.set_ptr(tx, xp, RIGHT, y)?;
        }
        self.set_ptr(tx, y, LEFT, x)?;
        self.set_ptr(tx, x, PARENT, y)
    }

    fn rotate_right(&self, tx: &mut Txn<'_>, x: Handle) -> TxResult<()> {
        let y = self.ptr(tx, x, LEFT)?;
        let yr = self.ptr(tx, y, RIGHT)?;
        self.set_ptr(tx, x, LEFT, yr)?;
        if !self.is_nil(yr) {
            self.set_ptr(tx, yr, PARENT, x)?;
        }
        let xp = self.ptr(tx, x, PARENT)?;
        self.set_ptr(tx, y, PARENT, xp)?;
        if self.is_nil(xp) {
            tx.write(self.root, y.to_word())?;
        } else if self.ptr(tx, xp, RIGHT)? == x {
            self.set_ptr(tx, xp, RIGHT, y)?;
        } else {
            self.set_ptr(tx, xp, LEFT, y)?;
        }
        self.set_ptr(tx, y, RIGHT, x)?;
        self.set_ptr(tx, x, PARENT, y)
    }

    /// Inserts `key → val`. Returns `true` if the key was new; if it
    /// already existed, the value is updated and `false` is returned.
    pub fn insert(&self, tx: &mut Txn<'_>, key: u64, val: u64) -> TxResult<bool> {
        let mut y = self.nil;
        let mut x = self.root(tx)?;
        while !self.is_nil(x) {
            y = x;
            let k = tx.read(x.field(KEY))?;
            if key == k {
                tx.write(x.field(VAL), val)?;
                return Ok(false);
            }
            x = self.ptr(tx, x, if key < k { LEFT } else { RIGHT })?;
        }
        let z = tx.alloc(NODE_WORDS)?;
        // Fresh or recycled either way: set every field. A recycled node is
        // unreachable, so plain transactional writes suffice.
        tx.write(z.field(KEY), key)?;
        tx.write(z.field(VAL), val)?;
        self.set_ptr(tx, z, LEFT, self.nil)?;
        self.set_ptr(tx, z, RIGHT, self.nil)?;
        self.set_ptr(tx, z, PARENT, y)?;
        tx.write(z.field(COLOR), RED)?;
        if self.is_nil(y) {
            tx.write(self.root, z.to_word())?;
        } else if key < tx.read(y.field(KEY))? {
            self.set_ptr(tx, y, LEFT, z)?;
        } else {
            self.set_ptr(tx, y, RIGHT, z)?;
        }
        self.insert_fixup(tx, z)?;
        let s = tx.read(self.size)?;
        tx.write(self.size, s + 1)?;
        Ok(true)
    }

    fn insert_fixup(&self, tx: &mut Txn<'_>, mut z: Handle) -> TxResult<()> {
        loop {
            let p = self.ptr(tx, z, PARENT)?;
            if self.is_nil(p) || tx.read(p.field(COLOR))? == BLACK {
                break;
            }
            let g = self.ptr(tx, p, PARENT)?;
            if p == self.ptr(tx, g, LEFT)? {
                let u = self.ptr(tx, g, RIGHT)?;
                if !self.is_nil(u) && tx.read(u.field(COLOR))? == RED {
                    tx.write(p.field(COLOR), BLACK)?;
                    tx.write(u.field(COLOR), BLACK)?;
                    tx.write(g.field(COLOR), RED)?;
                    z = g;
                } else {
                    if z == self.ptr(tx, p, RIGHT)? {
                        z = p;
                        self.rotate_left(tx, z)?;
                    }
                    let p2 = self.ptr(tx, z, PARENT)?;
                    let g2 = self.ptr(tx, p2, PARENT)?;
                    tx.write(p2.field(COLOR), BLACK)?;
                    tx.write(g2.field(COLOR), RED)?;
                    self.rotate_right(tx, g2)?;
                }
            } else {
                let u = self.ptr(tx, g, LEFT)?;
                if !self.is_nil(u) && tx.read(u.field(COLOR))? == RED {
                    tx.write(p.field(COLOR), BLACK)?;
                    tx.write(u.field(COLOR), BLACK)?;
                    tx.write(g.field(COLOR), RED)?;
                    z = g;
                } else {
                    if z == self.ptr(tx, p, LEFT)? {
                        z = p;
                        self.rotate_right(tx, z)?;
                    }
                    let p2 = self.ptr(tx, z, PARENT)?;
                    let g2 = self.ptr(tx, p2, PARENT)?;
                    tx.write(p2.field(COLOR), BLACK)?;
                    tx.write(g2.field(COLOR), RED)?;
                    self.rotate_left(tx, g2)?;
                }
            }
        }
        let r = self.root(tx)?;
        tx.write(r.field(COLOR), BLACK)
    }

    /// `v` takes `u`'s place under `u`'s parent (CLRS RB-TRANSPLANT).
    fn transplant(&self, tx: &mut Txn<'_>, u: Handle, v: Handle) -> TxResult<()> {
        let up = self.ptr(tx, u, PARENT)?;
        if self.is_nil(up) {
            tx.write(self.root, v.to_word())?;
        } else if u == self.ptr(tx, up, LEFT)? {
            self.set_ptr(tx, up, LEFT, v)?;
        } else {
            self.set_ptr(tx, up, RIGHT, v)?;
        }
        // Writing nil's parent is deliberate (CLRS): delete_fixup reads it.
        self.set_ptr(tx, v, PARENT, up)
    }

    fn minimum(&self, tx: &mut Txn<'_>, mut x: Handle) -> TxResult<Handle> {
        loop {
            let l = self.ptr(tx, x, LEFT)?;
            if self.is_nil(l) {
                return Ok(x);
            }
            x = l;
        }
    }

    /// Removes `key`, returning its value if present. The node is recycled
    /// via the free-list.
    pub fn remove(&self, tx: &mut Txn<'_>, key: u64) -> TxResult<Option<u64>> {
        let z = self.find(tx, key)?;
        if self.is_nil(z) {
            return Ok(None);
        }
        let val = tx.read(z.field(VAL))?;
        let mut y = z;
        let mut y_color = tx.read(y.field(COLOR))?;
        let x;
        let zl = self.ptr(tx, z, LEFT)?;
        let zr = self.ptr(tx, z, RIGHT)?;
        if self.is_nil(zl) {
            x = zr;
            self.transplant(tx, z, zr)?;
        } else if self.is_nil(zr) {
            x = zl;
            self.transplant(tx, z, zl)?;
        } else {
            y = self.minimum(tx, zr)?;
            y_color = tx.read(y.field(COLOR))?;
            x = self.ptr(tx, y, RIGHT)?;
            if self.ptr(tx, y, PARENT)? == z {
                self.set_ptr(tx, x, PARENT, y)?;
            } else {
                self.transplant(tx, y, x)?;
                let zr2 = self.ptr(tx, z, RIGHT)?;
                self.set_ptr(tx, y, RIGHT, zr2)?;
                self.set_ptr(tx, zr2, PARENT, y)?;
            }
            self.transplant(tx, z, y)?;
            let zl2 = self.ptr(tx, z, LEFT)?;
            self.set_ptr(tx, y, LEFT, zl2)?;
            self.set_ptr(tx, zl2, PARENT, y)?;
            let zc = tx.read(z.field(COLOR))?;
            tx.write(y.field(COLOR), zc)?;
        }
        if y_color == BLACK {
            self.delete_fixup(tx, x)?;
        }
        let s = tx.read(self.size)?;
        tx.write(self.size, s - 1)?;
        tx.free(z, NODE_WORDS)?;
        Ok(Some(val))
    }

    fn delete_fixup(&self, tx: &mut Txn<'_>, mut x: Handle) -> TxResult<()> {
        loop {
            let r = self.root(tx)?;
            if x == r || tx.read(x.field(COLOR))? == RED {
                break;
            }
            let p = self.ptr(tx, x, PARENT)?;
            if x == self.ptr(tx, p, LEFT)? {
                let mut w = self.ptr(tx, p, RIGHT)?;
                if tx.read(w.field(COLOR))? == RED {
                    tx.write(w.field(COLOR), BLACK)?;
                    tx.write(p.field(COLOR), RED)?;
                    self.rotate_left(tx, p)?;
                    w = self.ptr(tx, p, RIGHT)?;
                }
                let wl = self.ptr(tx, w, LEFT)?;
                let wr = self.ptr(tx, w, RIGHT)?;
                let wl_black = self.is_nil(wl) || tx.read(wl.field(COLOR))? == BLACK;
                let wr_black = self.is_nil(wr) || tx.read(wr.field(COLOR))? == BLACK;
                if wl_black && wr_black {
                    tx.write(w.field(COLOR), RED)?;
                    x = p;
                } else {
                    if wr_black {
                        tx.write(wl.field(COLOR), BLACK)?;
                        tx.write(w.field(COLOR), RED)?;
                        self.rotate_right(tx, w)?;
                        w = self.ptr(tx, p, RIGHT)?;
                    }
                    let pc = tx.read(p.field(COLOR))?;
                    tx.write(w.field(COLOR), pc)?;
                    tx.write(p.field(COLOR), BLACK)?;
                    let wr2 = self.ptr(tx, w, RIGHT)?;
                    tx.write(wr2.field(COLOR), BLACK)?;
                    self.rotate_left(tx, p)?;
                    x = self.root(tx)?;
                }
            } else {
                let mut w = self.ptr(tx, p, LEFT)?;
                if tx.read(w.field(COLOR))? == RED {
                    tx.write(w.field(COLOR), BLACK)?;
                    tx.write(p.field(COLOR), RED)?;
                    self.rotate_right(tx, p)?;
                    w = self.ptr(tx, p, LEFT)?;
                }
                let wl = self.ptr(tx, w, LEFT)?;
                let wr = self.ptr(tx, w, RIGHT)?;
                let wl_black = self.is_nil(wl) || tx.read(wl.field(COLOR))? == BLACK;
                let wr_black = self.is_nil(wr) || tx.read(wr.field(COLOR))? == BLACK;
                if wl_black && wr_black {
                    tx.write(w.field(COLOR), RED)?;
                    x = p;
                } else {
                    if wl_black {
                        tx.write(wr.field(COLOR), BLACK)?;
                        tx.write(w.field(COLOR), RED)?;
                        self.rotate_left(tx, w)?;
                        w = self.ptr(tx, p, LEFT)?;
                    }
                    let pc = tx.read(p.field(COLOR))?;
                    tx.write(w.field(COLOR), pc)?;
                    tx.write(p.field(COLOR), BLACK)?;
                    let wl2 = self.ptr(tx, w, LEFT)?;
                    tx.write(wl2.field(COLOR), BLACK)?;
                    self.rotate_right(tx, p)?;
                    x = self.root(tx)?;
                }
            }
        }
        tx.write(x.field(COLOR), BLACK)
    }

    // ----- quiescent (non-transactional) helpers for tests/verification -----

    fn peek_ptr(&self, stm: &Stm, n: Handle, f: u32) -> Handle {
        Handle::from_word(stm.peek(n.field(f)))
    }

    /// In-order key list. Quiescent only (no transactions running).
    pub fn snapshot_keys(&self, stm: &Stm) -> Vec<u64> {
        let mut out = Vec::new();
        let mut stack = Vec::new();
        let mut cur = Handle::from_word(stm.peek(self.root));
        while !self.is_nil(cur) || !stack.is_empty() {
            while !self.is_nil(cur) {
                stack.push(cur);
                cur = self.peek_ptr(stm, cur, LEFT);
            }
            let n = stack.pop().unwrap();
            out.push(stm.peek(n.field(KEY)));
            cur = self.peek_ptr(stm, n, RIGHT);
        }
        out
    }

    /// Verifies every red-black invariant (BST order, root black, no red
    /// node with a red child, equal black heights). Quiescent only.
    pub fn check_invariants(&self, stm: &Stm) -> Result<(), String> {
        let root = Handle::from_word(stm.peek(self.root));
        if self.is_nil(root) {
            return Ok(());
        }
        if stm.peek(root.field(COLOR)) != BLACK {
            return Err("root is not black".into());
        }
        self.check_node(stm, root, None, None).map(|_| ())?;
        let n = self.snapshot_keys(stm).len() as u64;
        let recorded = stm.peek(self.size);
        if n != recorded {
            return Err(format!("size cell says {recorded}, tree has {n} nodes"));
        }
        Ok(())
    }

    /// Returns the black-height of the subtree, validating along the way.
    fn check_node(
        &self,
        stm: &Stm,
        n: Handle,
        lo: Option<u64>,
        hi: Option<u64>,
    ) -> Result<u32, String> {
        if self.is_nil(n) {
            return Ok(1);
        }
        let k = stm.peek(n.field(KEY));
        if let Some(lo) = lo {
            if k <= lo {
                return Err(format!("BST order violated at key {k} (lo {lo})"));
            }
        }
        if let Some(hi) = hi {
            if k >= hi {
                return Err(format!("BST order violated at key {k} (hi {hi})"));
            }
        }
        let color = stm.peek(n.field(COLOR));
        let l = self.peek_ptr(stm, n, LEFT);
        let r = self.peek_ptr(stm, n, RIGHT);
        if color == RED {
            for c in [l, r] {
                if !self.is_nil(c) && stm.peek(c.field(COLOR)) == RED {
                    return Err(format!("red node {k} has a red child"));
                }
            }
        }
        for c in [l, r] {
            if !self.is_nil(c) {
                let cp = self.peek_ptr(stm, c, PARENT);
                if cp != n {
                    return Err(format!("broken parent pointer under key {k}"));
                }
            }
        }
        let hl = self.check_node(stm, l, lo, Some(k))?;
        let hr = self.check_node(stm, r, Some(k), hi)?;
        if hl != hr {
            return Err(format!("black height mismatch at key {k}: {hl} vs {hr}"));
        }
        Ok(hl + if color == BLACK { 1 } else { 0 })
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
    fn insert_get_remove_roundtrip() {
        let stm = new_stm();
        let t = RbTree::new(&stm);
        let mut th = stm.register_thread();
        assert!(th.run(|tx| t.insert(tx, 10, 100)));
        assert!(th.run(|tx| t.insert(tx, 5, 50)));
        assert!(th.run(|tx| t.insert(tx, 15, 150)));
        assert_eq!(th.run(|tx| t.get(tx, 5)), Some(50));
        assert_eq!(th.run(|tx| t.get(tx, 10)), Some(100));
        assert_eq!(th.run(|tx| t.get(tx, 15)), Some(150));
        assert_eq!(th.run(|tx| t.get(tx, 7)), None);
        assert_eq!(th.run(|tx| t.remove(tx, 10)), Some(100));
        assert_eq!(th.run(|tx| t.get(tx, 10)), None);
        assert_eq!(th.run(|tx| t.len(tx)), 2);
        t.check_invariants(&stm).unwrap();
    }

    #[test]
    fn duplicate_insert_updates_value() {
        let stm = new_stm();
        let t = RbTree::new(&stm);
        let mut th = stm.register_thread();
        assert!(th.run(|tx| t.insert(tx, 1, 10)));
        assert!(!th.run(|tx| t.insert(tx, 1, 20)));
        assert_eq!(th.run(|tx| t.get(tx, 1)), Some(20));
        assert_eq!(th.run(|tx| t.len(tx)), 1);
    }

    #[test]
    fn remove_absent_is_none() {
        let stm = new_stm();
        let t = RbTree::new(&stm);
        let mut th = stm.register_thread();
        assert_eq!(th.run(|tx| t.remove(tx, 42)), None);
        th.run(|tx| t.insert(tx, 1, 1));
        assert_eq!(th.run(|tx| t.remove(tx, 42)), None);
        assert_eq!(th.run(|tx| t.len(tx)), 1);
    }

    #[test]
    fn ascending_descending_and_mixed_insertions_stay_balanced() {
        for order in 0..3 {
            let stm = new_stm();
            let t = RbTree::new(&stm);
            let mut th = stm.register_thread();
            let keys: Vec<u64> = match order {
                0 => (0..200).collect(),
                1 => (0..200).rev().collect(),
                _ => (0..200).map(|i| (i * 73) % 200).collect(),
            };
            for &k in &keys {
                th.run(|tx| t.insert(tx, k, k * 2));
                t.check_invariants(&stm).unwrap();
            }
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(t.snapshot_keys(&stm), sorted);
        }
    }

    #[test]
    fn removals_preserve_invariants() {
        let stm = new_stm();
        let t = RbTree::new(&stm);
        let mut th = stm.register_thread();
        for k in 0..100u64 {
            th.run(|tx| t.insert(tx, (k * 37) % 100, k));
        }
        for k in 0..100u64 {
            let key = (k * 61) % 100;
            th.run(|tx| t.remove(tx, key));
            t.check_invariants(&stm)
                .unwrap_or_else(|e| panic!("after removing {key}: {e}"));
        }
        assert_eq!(th.run(|tx| t.len(tx)), 0);
        assert!(t.snapshot_keys(&stm).is_empty());
    }

    #[test]
    fn nodes_are_recycled() {
        let stm = new_stm();
        let t = RbTree::new(&stm);
        let mut th = stm.register_thread();
        th.run(|tx| t.insert(tx, 1, 1));
        let before = stm.heap_allocated();
        for _ in 0..10 {
            th.run(|tx| t.remove(tx, 1));
            th.run(|tx| t.insert(tx, 1, 1));
        }
        // One node parked at most; no growth proportional to churn.
        assert!(stm.heap_allocated() <= before + 6);
    }

    #[test]
    fn concurrent_ops_keep_tree_valid() {
        let stm = Stm::builder(AlgorithmKind::RInvalV2 { invalidators: 2 })
            .heap_words(1 << 18)
            .build();
        let t = RbTree::new(&stm);
        {
            let mut th = stm.register_thread();
            for k in 0..256u64 {
                th.run(|tx| t.insert(tx, k * 2, k));
            }
        }
        let stm_ref = &stm;
        std::thread::scope(|s| {
            for id in 0..4u64 {
                s.spawn(move || {
                    let mut th = stm_ref.register_thread();
                    let mut seed = id + 99;
                    for _ in 0..200 {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = (seed >> 20) % 512;
                        match seed % 3 {
                            0 => {
                                th.run(|tx| t.insert(tx, k, seed));
                            }
                            1 => {
                                th.run(|tx| t.remove(tx, k));
                            }
                            _ => {
                                th.run(|tx| t.contains(tx, k));
                            }
                        }
                    }
                });
            }
        });
        t.check_invariants(&stm).unwrap();
        let keys = t.snapshot_keys(&stm);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "in-order traversal must be sorted");
    }
}
