//! Quickstart: the 60-second tour of the STM API.
//!
//! Builds an STM running the paper's RInval-V2 algorithm (one commit-
//! server plus two invalidation-servers on dedicated threads), then runs
//! concurrent counter increments and a composed multi-word transaction.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use rinval_repro::prelude::*;

fn main() {
    // Pick any algorithm here — the transactional code below is identical
    // for all of them. That interchangeability is the point of STM.
    let stm = Stm::builder(AlgorithmKind::RInvalV2 { invalidators: 2 })
        .heap_words(1 << 12)
        .build();
    println!("algorithm: {}", stm.algorithm().name());

    // --- A shared counter, incremented from four threads. -----------------
    let counter = stm.alloc_init(&[0]);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let mut th = stm.register_thread();
                for _ in 0..10_000 {
                    th.run(|tx| {
                        let v = tx.read(counter)?;
                        tx.write(counter, v + 1)
                    });
                }
            });
        }
    });
    println!("counter after 4 x 10_000 increments: {}", stm.peek(counter));
    assert_eq!(stm.peek(counter), 40_000);

    // --- Composition: move value between two cells atomically. ------------
    let a = TVar::<i64>::new(&stm, 100);
    let b = TVar::<i64>::new(&stm, 0);
    let mut th = stm.register_thread();
    th.run(|tx| {
        let take = a.read(tx)?.min(30);
        a.modify(tx, |v| v - take)?;
        b.modify(tx, |v| v + take)?;
        Ok(())
    });
    println!(
        "a = {}, b = {} (sum invariant: {})",
        a.peek(&stm),
        b.peek(&stm),
        a.peek(&stm) + b.peek(&stm)
    );
    assert_eq!(a.peek(&stm) + b.peek(&stm), 100);

    // --- A transactional data structure. -----------------------------------
    let tree = RbTree::new(&stm);
    th.run(|tx| {
        for k in [5u64, 1, 9, 3, 7] {
            tree.insert(tx, k, k * 100)?;
        }
        Ok(())
    });
    let val = th.run(|tx| tree.get(tx, 7));
    println!(
        "tree.get(7) = {val:?}; in-order keys = {:?}",
        tree.snapshot_keys(&stm)
    );

    // Per-thread statistics — the paper's critical-path accounting.
    let stats = th.stats();
    println!(
        "this thread: {} commits, {} aborts, {} reads, {} writes",
        stats.commits, stats.aborts, stats.reads, stats.writes
    );
}
