//! Transactional bitmap.
//!
//! Backs `labyrinth`'s grid-claiming step and `ssca2`'s visited sets: a
//! claim transaction tests and sets many bits atomically. Bits are packed
//! 64 per heap word, so neighbouring bits share a word — adjacent claims
//! conflict, exactly like the C original's adjacency conflicts.

use rinval::{Handle, Stm, TxResult, Txn};

/// A fixed-size shared transactional bitmap.
#[derive(Clone, Copy, Debug)]
pub struct TBitmap {
    words: Handle,
    nbits: u64,
}

impl TBitmap {
    /// Creates a bitmap of `nbits` zeroed bits.
    pub fn new(stm: &Stm, nbits: u64) -> TBitmap {
        let nwords = nbits.div_ceil(64).max(1);
        TBitmap {
            words: stm.alloc(nwords as usize),
            nbits,
        }
    }

    /// Capacity in bits.
    pub fn len(&self) -> u64 {
        self.nbits
    }

    /// True if the bitmap has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    #[inline]
    fn cell(&self, bit: u64) -> Handle {
        assert!(bit < self.nbits, "bit {bit} out of range {}", self.nbits);
        self.words.field((bit / 64) as u32)
    }

    /// Reads bit `bit`.
    pub fn test(&self, tx: &mut Txn<'_>, bit: u64) -> TxResult<bool> {
        Ok(tx.read(self.cell(bit))? & (1u64 << (bit % 64)) != 0)
    }

    /// Sets bit `bit`; returns `false` if it was already set.
    pub fn set(&self, tx: &mut Txn<'_>, bit: u64) -> TxResult<bool> {
        let cell = self.cell(bit);
        let w = tx.read(cell)?;
        let mask = 1u64 << (bit % 64);
        if w & mask != 0 {
            return Ok(false);
        }
        tx.write(cell, w | mask)?;
        Ok(true)
    }

    /// Clears bit `bit`; returns `false` if it was already clear.
    pub fn clear(&self, tx: &mut Txn<'_>, bit: u64) -> TxResult<bool> {
        let cell = self.cell(bit);
        let w = tx.read(cell)?;
        let mask = 1u64 << (bit % 64);
        if w & mask == 0 {
            return Ok(false);
        }
        tx.write(cell, w & !mask)?;
        Ok(true)
    }

    /// Atomically claims every bit in `bits`: succeeds (and sets them all)
    /// only if none was set; otherwise changes nothing and returns `false`.
    /// This is labyrinth's path-claim primitive.
    pub fn try_claim(&self, tx: &mut Txn<'_>, bits: &[u64]) -> TxResult<bool> {
        for &b in bits {
            if self.test(tx, b)? {
                return Ok(false);
            }
        }
        for &b in bits {
            self.set(tx, b)?;
        }
        Ok(true)
    }

    /// The heap word holding `bit` — lets callers take *non-transactional*
    /// snapshots of whole words (labyrinth's racy grid copy; the later
    /// claim transaction revalidates, so staleness is safe).
    pub fn word_handle(&self, bit: u64) -> Handle {
        self.cell(bit)
    }

    /// Number of set bits. Quiescent only.
    pub fn popcount(&self, stm: &Stm) -> u64 {
        let nwords = self.nbits.div_ceil(64).max(1);
        (0..nwords)
            .map(|w| stm.peek(self.words.field(w as u32)).count_ones() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rinval::AlgorithmKind;

    fn new_stm() -> Stm {
        Stm::builder(AlgorithmKind::NOrec)
            .heap_words(1 << 12)
            .build()
    }

    #[test]
    fn set_test_clear() {
        let stm = new_stm();
        let bm = TBitmap::new(&stm, 200);
        let mut th = stm.register_thread();
        assert!(!th.run(|tx| bm.test(tx, 70)));
        assert!(th.run(|tx| bm.set(tx, 70)));
        assert!(!th.run(|tx| bm.set(tx, 70)), "double set reports false");
        assert!(th.run(|tx| bm.test(tx, 70)));
        assert!(!th.run(|tx| bm.test(tx, 71)), "neighbour unaffected");
        assert!(th.run(|tx| bm.clear(tx, 70)));
        assert!(!th.run(|tx| bm.clear(tx, 70)));
        assert_eq!(bm.popcount(&stm), 0);
    }

    #[test]
    fn bits_across_word_boundaries() {
        let stm = new_stm();
        let bm = TBitmap::new(&stm, 130);
        let mut th = stm.register_thread();
        for b in [0u64, 63, 64, 127, 128, 129] {
            assert!(th.run(|tx| bm.set(tx, b)));
        }
        assert_eq!(bm.popcount(&stm), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let stm = new_stm();
        let bm = TBitmap::new(&stm, 10);
        let mut th = stm.register_thread();
        let _ = th.run(|tx| bm.test(tx, 10));
    }

    #[test]
    fn try_claim_is_all_or_nothing() {
        let stm = new_stm();
        let bm = TBitmap::new(&stm, 100);
        let mut th = stm.register_thread();
        assert!(th.run(|tx| bm.try_claim(tx, &[1, 2, 3])));
        // Overlapping claim fails and must not set the non-overlapping bits.
        assert!(!th.run(|tx| bm.try_claim(tx, &[3, 4, 5])));
        assert!(!th.run(|tx| bm.test(tx, 4)));
        assert!(!th.run(|tx| bm.test(tx, 5)));
        assert_eq!(bm.popcount(&stm), 3);
    }

    #[test]
    fn concurrent_claims_never_overlap() {
        let stm = Stm::builder(AlgorithmKind::InvalStm)
            .heap_words(1 << 12)
            .build();
        let bm = TBitmap::new(&stm, 256);
        let stm = &stm;
        let claimed: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    s.spawn(move || {
                        let mut th = stm.register_thread();
                        let mut mine = Vec::new();
                        let mut seed = t + 1;
                        for _ in 0..40 {
                            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                            let start = (seed >> 30) % 250;
                            let bits = [start, start + 1, start + 2];
                            if th.run(|tx| bm.try_claim(tx, &bits)) {
                                mine.extend_from_slice(&bits);
                            }
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<u64> = claimed.into_iter().flatten().collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "two threads claimed the same bit");
        assert_eq!(bm.popcount(stm), total as u64);
    }
}
