//! Starvation-freedom layer tests (DESIGN.md §13).
//!
//! * A long reader hammered by small writers must commit within a small,
//!   configuration-derived attempt bound on **every** engine — the
//!   irrevocable token is the hard backstop once priority aging alone
//!   does not win.
//! * Two symmetric committers under `ReaderBias { max_doomed: 0 }` used
//!   to be able to doom each other forever (mutual-refusal livelock);
//!   the priority total order plus the token must keep both live.
//! * The overload admission gate and the commit-latency histogram are
//!   observable through `ServerStats`.
//!
//! The failpoint half additionally proves the token cannot leak: a panic
//! in the token holder's body must release it and leave the instance
//! committing.

use rinval::{AlgorithmKind, CmPolicy, StarvationConfig, Stm};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const IRREVOCABLE_AFTER: u32 = 6;

/// A wide reader (touches every word, with artificial dwell between
/// reads) against writers that each keep one word hot. Without the
/// starvation layer the reader can retry unboundedly on every
/// invalidation-based engine; with it, the token is requested after
/// `IRREVOCABLE_AFTER` consecutive aborts and the next attempt runs
/// immune, so the attempt count is bounded by `IRREVOCABLE_AFTER + 1`
/// (plus one attempt of slack for a racing token tenure by a writer).
#[test]
fn aged_reader_commits_within_token_bound_on_every_engine() {
    const WORDS: u32 = 8;
    const WRITERS: u32 = 2;
    for kind in AlgorithmKind::all(2, 2) {
        let stm = Stm::builder(kind)
            .heap_words(1 << 10)
            .max_threads(16)
            .starvation(StarvationConfig {
                irrevocable_after: IRREVOCABLE_AFTER,
                ..StarvationConfig::default()
            })
            .build();
        let arr = stm.alloc(WORDS as usize);
        let stop = AtomicBool::new(false);
        let stm_ref = &stm;
        let stop_ref = &stop;

        std::thread::scope(|s| {
            for w in 0..WRITERS {
                s.spawn(move || {
                    let mut th = stm_ref.register_thread();
                    let mine = arr.field(w % WORDS);
                    while !stop_ref.load(Ordering::Relaxed) {
                        th.run(|tx| {
                            let v = tx.read(mine)?;
                            tx.write(mine, v + 1)
                        });
                    }
                });
            }

            let mut th = stm_ref.register_thread();
            let mut tries = 0u64;
            th.run(|tx| {
                tries += 1;
                let mut sum = 0u64;
                for k in 0..WORDS {
                    sum = sum.wrapping_add(tx.read(arr.field(k))?);
                    // Dwell so in-flight writers reliably overlap the
                    // read set before the commit point.
                    for _ in 0..2000 {
                        std::hint::spin_loop();
                    }
                }
                Ok(sum)
            });
            stop.store(true, Ordering::Relaxed);
            assert!(
                tries <= u64::from(IRREVOCABLE_AFTER) + 2,
                "{kind:?}: long reader needed {tries} attempts \
                 (bound is irrevocable_after + 1, plus one tenure of slack)"
            );
        });
    }
}

/// Mutual-abort regression: two identical read-modify-write transactions
/// over the same two words, under the strictest reader bias
/// (`max_doomed: 0`). Each commit dooms the other in-flight transaction,
/// so before the §13 total order both sides could refuse forever. Both
/// must now finish a fixed workload, bounded in wall time.
#[test]
fn reader_bias_symmetric_committers_stay_live() {
    const OPS: u64 = 100;
    for kind in [
        AlgorithmKind::InvalStm,
        AlgorithmKind::RInvalV1,
        AlgorithmKind::RInvalV2 { invalidators: 2 },
    ] {
        let stm = Stm::builder(kind)
            .heap_words(256)
            .cm_policy(CmPolicy::ReaderBias { max_doomed: 0 })
            .starvation(StarvationConfig {
                irrevocable_after: IRREVOCABLE_AFTER,
                ..StarvationConfig::default()
            })
            .build();
        let a = stm.alloc_init(&[0]);
        let b = stm.alloc_init(&[0]);
        let stm_ref = &stm;

        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(move || {
                    let mut th = stm_ref.register_thread();
                    for _ in 0..OPS {
                        th.try_run_for(Duration::from_secs(30), |tx| {
                            let va = tx.read(a)?;
                            let vb = tx.read(b)?;
                            tx.write(a, va + 1)?;
                            tx.write(b, vb + 1)
                        })
                        .expect("symmetric committer starved under ReaderBias(0)");
                    }
                });
            }
        });

        assert_eq!(stm.peek(a), 2 * OPS, "{kind:?}: lost increments on a");
        assert_eq!(stm.peek(b), 2 * OPS, "{kind:?}: lost increments on b");
        assert_eq!(stm.irrevocable_holder(), None, "{kind:?}: token leaked");
    }
}

/// With `backpressure_pending: 0` every admission looks saturated, so
/// every fresh (zero-streak) attempt pays exactly one bounded delay —
/// observable in the counter — and the workload still completes.
#[test]
fn backpressure_gate_counts_delays_and_stays_live() {
    const OPS: u64 = 10;
    let stm = Stm::builder(AlgorithmKind::InvalStm)
        .heap_words(256)
        .starvation(StarvationConfig {
            backpressure_pending: 0,
            ..StarvationConfig::default()
        })
        .build();
    let c = stm.alloc_init(&[0]);
    let mut th = stm.register_thread();
    for _ in 0..OPS {
        th.run(|tx| {
            let v = tx.read(c)?;
            tx.write(c, v + 1)
        });
    }
    drop(th);
    assert_eq!(stm.peek(c), OPS);
    assert!(
        stm.server_stats().backpressure_delays >= OPS,
        "admission gate never fired"
    );
}

/// The opt-in commit-latency histogram records every committed write
/// transaction and exposes monotone quantiles.
#[test]
fn latency_histogram_records_commit_quantiles() {
    let stm = Stm::builder(AlgorithmKind::RInvalV1)
        .heap_words(256)
        .latency_histogram(true)
        .build();
    let c = stm.alloc_init(&[0]);
    let mut th = stm.register_thread();
    for _ in 0..100 {
        th.run(|tx| {
            let v = tx.read(c)?;
            tx.write(c, v + 1)
        });
    }
    drop(th);
    let s = stm.server_stats();
    let p50 = s.latency_quantile_ns(0.5);
    let p99 = s.latency_quantile_ns(0.99);
    assert!(p50.is_some(), "histogram recorded nothing");
    assert!(p99 >= p50, "quantiles not monotone: p50 {p50:?} p99 {p99:?}");
}

/// Disabled config: no aging is published and no token is ever granted,
/// no matter how long the streaks run.
#[test]
fn disabled_config_grants_nothing() {
    let stm = Stm::builder(AlgorithmKind::InvalStm)
        .heap_words(256)
        .starvation(StarvationConfig::disabled())
        .build();
    let c = stm.alloc_init(&[0]);
    let stm_ref = &stm;
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(move || {
                let mut th = stm_ref.register_thread();
                for _ in 0..200 {
                    th.run(|tx| {
                        let v = tx.read(c)?;
                        tx.write(c, v + 1)
                    });
                }
            });
        }
    });
    assert_eq!(stm.peek(c), 800);
    let st = stm.server_stats();
    assert_eq!(st.irrevocable_grants, 0);
    assert_eq!(st.backpressure_delays, 0);
}

#[cfg(feature = "failpoints")]
mod injected {
    use super::*;
    use rinval::faults::{site, FaultAction};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A panic in the body of the irrevocable-token *holder* must release
    /// the token on the unwind path: a leaked token would gate every
    /// other commit forever. `irrevocable_after: 0` makes the very first
    /// attempt acquire the token, and the armed body failpoint fires
    /// inside it.
    #[test]
    fn token_holder_panic_releases_token() {
        for kind in [
            AlgorithmKind::InvalStm,
            AlgorithmKind::RInvalV1,
            AlgorithmKind::NOrec,
        ] {
            let stm = Stm::builder(kind)
                .heap_words(256)
                .starvation(StarvationConfig {
                    irrevocable_after: 0,
                    ..StarvationConfig::default()
                })
                .build();
            let c = stm.alloc_init(&[0]);
            stm.faults()
                .arm(site::TXN_BODY_PANIC, FaultAction::Panic, Some(1));

            let mut th = stm.register_thread();
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                th.run(|tx| {
                    let v = tx.read(c)?;
                    tx.write(c, v + 1)
                })
            }));
            assert!(unwound.is_err(), "{kind:?}: body panic did not fire");
            assert_eq!(
                stm.irrevocable_holder(),
                None,
                "{kind:?}: token leaked past a holder panic"
            );

            // The same handle and a fresh one still commit (each attempt
            // re-acquires and releases the token at this config).
            th.run(|tx| {
                let v = tx.read(c)?;
                tx.write(c, v + 1)
            });
            drop(th);
            let mut th2 = stm.register_thread();
            th2.run(|tx| {
                let v = tx.read(c)?;
                tx.write(c, v + 1)
            });
            drop(th2);
            assert_eq!(stm.peek(c), 2, "{kind:?}");
            assert_eq!(stm.irrevocable_holder(), None, "{kind:?}");
        }
    }
}
