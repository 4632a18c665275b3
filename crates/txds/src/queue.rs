//! Transactional FIFO queue.
//!
//! STAMP's `intruder` threads pull packets from a shared work queue and
//! push reassembled flows onto another — the queue is the contention
//! hot-spot of that benchmark, which is why it lives here rather than in
//! application code.

use rinval::{Handle, Stm, TxResult, Txn};

// Node layout: [val, next].
const VAL: u32 = 0;
const NEXT: u32 = 1;
const NODE_WORDS: usize = 2;

/// A shared transactional FIFO queue of `u64` values.
#[derive(Clone, Copy, Debug)]
pub struct TQueue {
    /// Cell holding the head node handle (dequeue end).
    head: Handle,
    /// Cell holding the tail node handle (enqueue end).
    tail: Handle,
    /// Cell holding the element count.
    size: Handle,
}

impl TQueue {
    /// Creates an empty queue.
    pub fn new(stm: &Stm) -> TQueue {
        TQueue {
            head: stm.alloc_init(&[0]),
            tail: stm.alloc_init(&[0]),
            size: stm.alloc_init(&[0]),
        }
    }

    /// Number of queued values.
    pub fn len(&self, tx: &mut Txn<'_>) -> TxResult<u64> {
        tx.read(self.size)
    }

    /// True if nothing is queued.
    pub fn is_empty(&self, tx: &mut Txn<'_>) -> TxResult<bool> {
        Ok(self.len(tx)? == 0)
    }

    /// Appends `val` at the tail.
    pub fn enqueue(&self, tx: &mut Txn<'_>, val: u64) -> TxResult<()> {
        let node = tx.alloc(NODE_WORDS)?;
        tx.write(node.field(VAL), val)?;
        tx.write(node.field(NEXT), 0)?;
        let tail = tx.read_handle(self.tail)?;
        if tail.is_null() {
            tx.write(self.head, node.to_word())?;
        } else {
            tx.write(tail.field(NEXT), node.to_word())?;
        }
        tx.write(self.tail, node.to_word())?;
        let s = tx.read(self.size)?;
        tx.write(self.size, s + 1)
    }

    /// Removes and returns the head value, or `None` if empty.
    pub fn dequeue(&self, tx: &mut Txn<'_>) -> TxResult<Option<u64>> {
        let head = tx.read_handle(self.head)?;
        if head.is_null() {
            return Ok(None);
        }
        let val = tx.read(head.field(VAL))?;
        let next = tx.read(head.field(NEXT))?;
        tx.write(self.head, next)?;
        if next == 0 {
            tx.write(self.tail, 0)?;
        }
        let s = tx.read(self.size)?;
        tx.write(self.size, s - 1)?;
        tx.free(head, NODE_WORDS)?;
        Ok(Some(val))
    }

    /// All queued values, head first. Quiescent only.
    pub fn snapshot(&self, stm: &Stm) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = Handle::from_word(stm.peek(self.head));
        while !cur.is_null() {
            out.push(stm.peek(cur.field(VAL)));
            cur = Handle::from_word(stm.peek(cur.field(NEXT)));
        }
        out
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
    fn fifo_order() {
        let stm = new_stm();
        let q = TQueue::new(&stm);
        let mut th = stm.register_thread();
        for v in 1..=5u64 {
            th.run(|tx| q.enqueue(tx, v));
        }
        assert_eq!(q.snapshot(&stm), vec![1, 2, 3, 4, 5]);
        for v in 1..=5u64 {
            assert_eq!(th.run(|tx| q.dequeue(tx)), Some(v));
        }
        assert_eq!(th.run(|tx| q.dequeue(tx)), None);
        assert_eq!(th.run(|tx| q.len(tx)), 0);
    }

    #[test]
    fn interleaved_enqueue_dequeue() {
        let stm = new_stm();
        let q = TQueue::new(&stm);
        let mut th = stm.register_thread();
        th.run(|tx| q.enqueue(tx, 1));
        th.run(|tx| q.enqueue(tx, 2));
        assert_eq!(th.run(|tx| q.dequeue(tx)), Some(1));
        th.run(|tx| q.enqueue(tx, 3));
        assert_eq!(th.run(|tx| q.dequeue(tx)), Some(2));
        assert_eq!(th.run(|tx| q.dequeue(tx)), Some(3));
        assert_eq!(th.run(|tx| q.dequeue(tx)), None);
        // Emptying must reset tail so the next enqueue works.
        th.run(|tx| q.enqueue(tx, 9));
        assert_eq!(q.snapshot(&stm), vec![9]);
    }

    #[test]
    fn enqueue_dequeue_in_one_transaction() {
        let stm = new_stm();
        let q = TQueue::new(&stm);
        let mut th = stm.register_thread();
        let v = th.run(|tx| {
            q.enqueue(tx, 42)?;
            q.dequeue(tx)
        });
        assert_eq!(v, Some(42));
        assert_eq!(q.snapshot(&stm), Vec::<u64>::new());
    }

    #[test]
    fn concurrent_producers_consumers_conserve_items() {
        let stm = Stm::builder(AlgorithmKind::RInvalV2 { invalidators: 2 })
            .heap_words(1 << 16)
            .build();
        let q = TQueue::new(&stm);
        let stm = &stm;
        const PER_PRODUCER: u64 = 100;
        let consumed: Vec<u64> = std::thread::scope(|s| {
            for t in 0..2u64 {
                s.spawn(move || {
                    let mut th = stm.register_thread();
                    for i in 0..PER_PRODUCER {
                        th.run(|tx| q.enqueue(tx, t * 1000 + i));
                    }
                });
            }
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(move || {
                        let mut th = stm.register_thread();
                        let mut got = Vec::new();
                        let mut misses = 0;
                        while misses < 200 {
                            match th.run(|tx| q.dequeue(tx)) {
                                Some(v) => {
                                    got.push(v);
                                    misses = 0;
                                }
                                None => {
                                    misses += 1;
                                    std::thread::yield_now();
                                }
                            }
                        }
                        got
                    })
                })
                .collect();
            consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect()
        });
        let leftover = q.snapshot(stm);
        let mut all: Vec<u64> = consumed.into_iter().chain(leftover).collect();
        all.sort_unstable();
        let mut want: Vec<u64> = (0..PER_PRODUCER).flat_map(|i| [i, 1000 + i]).collect();
        want.sort_unstable();
        assert_eq!(all, want, "items lost or duplicated");
    }
}
