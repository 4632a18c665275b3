//! Dispatch-equivalence suite for the monomorphized engine layer.
//!
//! The engines behind the six [`AlgorithmKind`]s are resolved once
//! per transaction attempt and run statically dispatched; these tests pin
//! down that the *observable* behaviour through the public [`Stm`] facade
//! is identical regardless of that dispatch path: a deterministic
//! workload must produce the same committed state, the same
//! commit/abort/read/write counts, the same heap telemetry
//! ([`Stm::heap_stats`]) and the per-family server counters
//! ([`Stm::server_stats`]) on every kind. The `FromStr` round-trip tests
//! live here too, since the parse table is the other place every kind
//! must be enumerated.

use rinval::{AlgorithmKind, PhaseStats, Stm};

const WORDS: u32 = 16;
const ROUNDS: u64 = 50;

/// Deterministic single-thread workload touching every op the facade
/// exposes: reads, writes, alloc/init, free, and a couple of user aborts.
/// Returns (final words, accumulated thread stats, heap stats).
fn run_workload(algo: AlgorithmKind) -> (Vec<u64>, PhaseStats, rinval::HeapStats) {
    let stm = Stm::builder(algo).heap_words(1 << 12).build();
    let arr = stm.alloc(WORDS as usize);
    let mut th = stm.register_thread();
    for r in 0..ROUNDS {
        // One RMW commit over all words.
        th.run(|tx| {
            for i in 0..WORDS {
                let v = tx.read(arr.field(i))?;
                tx.write(arr.field(i), v + i as u64 + 1)?;
            }
            Ok(())
        });
        // One alloc→publish→unpublish→free cycle.
        th.run(|tx| {
            let node = tx.alloc_init(&[r, r + 1])?;
            tx.write(arr.field(0), node.to_word())?;
            Ok(())
        });
        th.run(|tx| {
            let node = tx.read_handle(arr.field(0))?;
            let stashed = tx.read(node)?;
            tx.write(arr.field(1), stashed)?;
            tx.write(arr.field(0), 0)?;
            tx.free(node, 2)
        });
        // One read-only commit.
        th.run(|tx| {
            let mut acc = 0u64;
            for i in 0..WORDS {
                acc = acc.wrapping_add(tx.read(arr.field(i))?);
            }
            Ok(acc)
        });
    }
    // Exactly 3 aborted attempts, observable in the abort counter.
    let denied = th.try_run(3, |tx| {
        let _ = tx.read(arr.field(2))?;
        tx.user_abort::<()>()
    });
    assert!(denied.is_err());
    let stats = th.take_stats();
    drop(th);
    let words = (0..WORDS).map(|i| stm.peek(arr.field(i))).collect();
    (words, stats, stm.heap_stats())
}

/// [`run_workload`] interpreted sequentially over a plain `Vec<u64>`: the
/// reference the engines are held to, sharing no `Txn` / `Heap` /
/// `HeapCache` code with them. Returns the final words and the closed-form
/// `[commits, aborts, reads, writes]`.
fn model_workload() -> (Vec<u64>, [u64; 4]) {
    let mut w = vec![0u64; WORDS as usize];
    for r in 0..ROUNDS {
        for (i, x) in w.iter_mut().enumerate() {
            *x += i as u64 + 1; // RMW over all words
        }
        let node = [r, r + 1]; // alloc_init: private, so not a counted write
        w[0] = u64::MAX; // publish: some non-null handle word
        w[1] = node[0]; // stash the node's first field, then unpublish + free
        w[0] = 0;
    }
    let n = WORDS as u64;
    // Per round: RMW (n reads, n writes), publish (1 write), unpublish
    // (2 reads, 2 writes), read-only sweep (n reads); then 3 aborted
    // attempts of one read each.
    let counts = [4 * ROUNDS, 3, ROUNDS * (2 * n + 2) + 3, ROUNDS * (n + 3)];
    (w, counts)
}

/// The workload's committed state and counters must match the sequential
/// model on every engine, and the heap telemetry must not depend on which
/// engine executed it.
#[test]
fn workload_observables_identical_across_kinds() {
    let (ref_words, ref_counts) = model_workload();
    let mut first_heap = None;
    for algo in AlgorithmKind::all(2, 3) {
        let (words, stats, heap) = run_workload(algo);
        let name = algo.name();
        assert_eq!(words, ref_words, "{name}: final heap words diverge");
        assert_eq!(
            [stats.commits, stats.aborts, stats.reads, stats.writes],
            ref_counts,
            "{name}: commit/abort/read/write counts"
        );
        let telemetry = (heap.allocated_words, heap.freed_words, heap.recycled_words);
        assert_eq!(
            telemetry,
            *first_heap.get_or_insert(telemetry),
            "{name}: heap telemetry diverges"
        );
    }
}

/// The per-family server counters must reflect exactly the write commits
/// the workload performed — the commit path may not skip or double-count
/// work whichever dispatch route reached it.
#[test]
fn server_counters_match_write_commits() {
    const INCS: u64 = 40;
    for algo in AlgorithmKind::all(2, 3) {
        let stm = Stm::builder(algo).heap_words(1 << 10).build();
        let c = stm.alloc_init(&[0]);
        {
            let mut th = stm.register_thread();
            for _ in 0..INCS {
                th.run(|tx| {
                    let v = tx.read(c)?;
                    tx.write(c, v + 1)
                });
            }
        }
        assert_eq!(stm.peek(c), INCS);
        let st = stm.server_stats();
        let name = algo.name();
        match algo {
            AlgorithmKind::InvalStm => {
                // Committing clients run the invalidation scan inline.
                assert_eq!(st.inval_scans, INCS, "{name}: one inline scan per commit");
            }
            AlgorithmKind::RInvalV1
            | AlgorithmKind::RInvalV2 { .. }
            | AlgorithmKind::RInvalMV { .. } => {
                // The commit-server bumps the timestamp twice per write
                // commit (odd to lock, even to release).
                assert_eq!(stm.timestamp(), 2 * INCS, "{name}: server timestamp");
                // A lone client never sees a commit land inside its own
                // attempt: every transaction reads, writes and commits off
                // the registry, and every unregistered write-set is
                // admitted at its snapshot.
                assert_eq!(st.ro_promotions, 0, "{name}: a lone writer promoted");
                assert_eq!(st.stale_refusals, 0, "{name}: a lone writer was refused");
                assert_eq!(st.ro_snapshot_commits, 0, "{name}: no declared readers ran");
            }
            AlgorithmKind::NOrec => {
                // The non-invalidation kind never touches the server counters.
                assert_eq!(st.inval_scans, 0, "{name}: no invalidation scans");
                assert_eq!(st.scan_passes, 0, "{name}: no server passes");
            }
        }
    }
}

/// `name()` → `parse()` must round-trip for every kind (with the
/// parameterized kinds landing on the documented defaults).
#[test]
fn from_str_inverts_name() {
    for algo in AlgorithmKind::all(2, 3) {
        let parsed: AlgorithmKind = algo.name().parse().unwrap();
        assert_eq!(parsed.name(), algo.name());
        // The bare name yields the paper-default parameters.
        match parsed {
            AlgorithmKind::RInvalV2 { invalidators } => assert_eq!(invalidators, 4),
            AlgorithmKind::RInvalMV {
                invalidators,
                steps_ahead,
            } => {
                assert_eq!(invalidators, 4);
                assert_eq!(steps_ahead, 4);
            }
            _ => {}
        }
    }
    for name in AlgorithmKind::NAMES {
        let parsed: AlgorithmKind = name.parse().unwrap();
        assert_eq!(parsed.name(), name);
    }
    // `all` is `NAMES`, engine for name: neither list can drop an engine.
    assert_eq!(
        AlgorithmKind::all(2, 3).map(|k| k.name()),
        AlgorithmKind::NAMES
    );
}

#[test]
fn from_str_accepts_parameter_suffixes() {
    assert_eq!(
        "rinval-v2:8".parse::<AlgorithmKind>().unwrap(),
        AlgorithmKind::RInvalV2 { invalidators: 8 }
    );
    assert_eq!(
        "rinval-mv:8:2".parse::<AlgorithmKind>().unwrap(),
        AlgorithmKind::RInvalMV {
            invalidators: 8,
            steps_ahead: 2
        }
    );
}

#[test]
fn from_str_rejects_junk() {
    for bad in [
        "rstm",
        "",
        "norec:2",       // no parameters on a fixed kind
        "rinval-v2:x",   // non-numeric parameter
        "rinval-v2:1:2", // too many parameters for V2
        "rinval-mv:1:2:3",
        "RINVAL-V2",   // names are case-sensitive and canonical
        "rinval-v2:0", // zero invalidators would silently run one
        "rinval-mv:0:2",
        // Algorithm 4's run-ahead runs on MV's writers; there is no
        // separate V3 kind under any spelling.
        "rinval-v3",
        "rinval-v3:2:2",
    ] {
        let e = bad.parse::<AlgorithmKind>().unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("expected one of: norec, invalstm, rinval-v1, rinval-v2, rinval-mv;"),
            "error must list exactly the five accepted names: {msg}"
        );
    }
    assert_eq!(
        AlgorithmKind::all(2, 2).map(|k| k.name()),
        AlgorithmKind::NAMES
    );
}
