//! Long-running mixed-workload soak (the CI `soak` job; `#[ignore]`d in
//! ordinary runs so `cargo test` stays fast).
//!
//! `RINVAL_SOAK_SECS` (default 2) is split evenly across all six
//! engines. Each slice runs an oversubscribed mix — short writers plus
//! wide readers under an irrevocable-heavy starvation profile
//! (`irrevocable_after(4)`) — and must end with:
//!
//! * a consistent heap (every committed increment accounted for),
//! * a quiescent registry and no leaked irrevocable token,
//! * `ServerStats::degraded() == false` — the fairness machinery may
//!   never trip the fault-containment layer.
//!
//! With the `failpoints` feature the env-seeded `RINVAL_FAILPOINTS` plan
//! applies to every `Stm`; the CI job runs the pure-delay permutation,
//! which perturbs timing without killing servers, so the no-degradation
//! bar still holds.

use rinval::{AlgorithmKind, Stm};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[test]
#[ignore = "long-running; exercised by the CI soak job (RINVAL_SOAK_SECS)"]
fn mixed_soak_stays_healthy() {
    const WORDS: usize = 16;
    let secs: f64 = std::env::var("RINVAL_SOAK_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2.0);
    // Oversubscribe: twice the hardware parallelism, so yields (the
    // spin-budget clamp) actually matter.
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get() * 2);
    let kinds = AlgorithmKind::all(2, 2);
    let slice = Duration::from_secs_f64(secs / kinds.len() as f64);

    for kind in kinds {
        let stm = Stm::builder(kind)
            .heap_words(1 << 12)
            .max_threads(threads + 2)
            .irrevocable_after(4)
            .build();
        let arr = stm.alloc(WORDS);
        let stop = AtomicBool::new(false);
        let stm_ref = &stm;
        let stop_ref = &stop;

        let total: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let mut th = stm_ref.register_thread();
                        let mut commits = 0u64;
                        let mut i = t as u32;
                        while !stop_ref.load(Ordering::Relaxed) {
                            if i.is_multiple_of(8) {
                                // Wide reader: ages under contention and
                                // exercises the token path.
                                th.try_run_for(Duration::from_secs(60), |tx| {
                                    let mut sum = 0u64;
                                    for k in 0..WORDS as u32 {
                                        sum = sum.wrapping_add(tx.read(arr.field(k))?);
                                    }
                                    Ok(sum)
                                })
                                .expect("soak reader starved");
                            } else {
                                let f = arr.field(i % WORDS as u32);
                                th.try_run_for(Duration::from_secs(60), |tx| {
                                    let v = tx.read(f)?;
                                    tx.write(f, v + 1)
                                })
                                .expect("soak writer starved");
                                commits += 1;
                            }
                            i = i.wrapping_add(1);
                        }
                        commits
                    })
                })
                .collect();
            let deadline = Instant::now() + slice;
            while Instant::now() < deadline {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });

        let sum: u64 = (0..WORDS as u32).map(|k| stm.peek(arr.field(k))).sum();
        assert_eq!(sum, total, "{kind:?}: lost or phantom increments");
        // Engine-level invariants (leaked token, registry quiescence, heap
        // accounting) through the shared oracle. Default allowances on
        // purpose: even the CI delay permutation must not degrade.
        let mut violations = Vec::new();
        svc::oracle::check_engine(&stm, &svc::oracle::Allowances::default(), &mut violations);
        assert!(violations.is_empty(), "{kind:?}: {violations:#?}");
    }
}
