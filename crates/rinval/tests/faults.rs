//! Fault-containment matrix (DESIGN.md §11).
//!
//! The always-compiled half certifies *panic containment* with no
//! injection framework at all: a panicking transaction body — on every
//! engine — must leave the `Stm` fully usable, leak no registry state and
//! release its slot even when the unwind drops the whole `ThreadHandle`.
//!
//! The `#[cfg(feature = "failpoints")]` half drives the deterministic
//! failpoint table through the liveness machinery: commit-critical-section
//! panics, commit/invalidation-server death (respawn and degradation),
//! server stalls and bounded waits ([`ThreadHandle::try_run_for`]).
//!
//! The `env_seeded_*` tests are inert unless `RINVAL_FAILPOINTS` is set in
//! the environment (they never set it themselves — the variable is read at
//! every `Stm::build`, so mutating it here would race the other tests in
//! this binary). CI's fault-matrix job runs them under each supported
//! permutation.

use rinval::{AlgorithmKind, Stm};
use std::panic::{catch_unwind, AssertUnwindSafe};
#[cfg(feature = "failpoints")]
use std::time::Duration;

/// No transaction in flight, no request posted, no slot leaked.
fn assert_registry_quiescent(stm: &Stm) {
    assert!(
        !stm.registry().live().any_set(),
        "{:?}: live bit leaked",
        stm.algorithm()
    );
    assert!(
        !stm.registry().pending().any_set(),
        "{:?}: pending bit leaked",
        stm.algorithm()
    );
}

/// A body that panics mid-flight (after reads and a buffered write) must
/// not poison the instance: the *same* handle commits afterwards, other
/// registrations still work and no registry bits leak.
#[test]
fn body_panic_leaves_stm_usable_on_every_engine() {
    for kind in AlgorithmKind::all(2, 2) {
        let stm = Stm::builder(kind).heap_words(1 << 10).build();
        let c = stm.alloc_init(&[0]);
        let mut th = stm.register_thread();

        let unwound = catch_unwind(AssertUnwindSafe(|| {
            th.run(|tx| {
                let v = tx.read(c)?;
                tx.write(c, v + 100)?;
                panic!("injected body panic");
                #[allow(unreachable_code)]
                Ok(())
            })
        }));
        assert!(unwound.is_err(), "{kind:?}: body panic did not propagate");

        // The panicked attempt must not have published its write…
        assert_eq!(stm.peek(c), 0, "{kind:?}: panicked attempt committed");
        // …and the handle must still work.
        th.run(|tx| {
            let v = tx.read(c)?;
            tx.write(c, v + 1)
        });
        assert_eq!(stm.peek(c), 1, "{kind:?}");

        drop(th);
        assert_registry_quiescent(&stm);
        // Slot recycling still works after the unwind.
        let _th2 = stm.register_thread();
    }
}

/// A deadline that has already passed must fast-fail: `try_run_for`
/// returns `Timeout` without running the body (and thus without posting
/// anything), and the withdrawal is counted in
/// `ServerStats::timeout_withdrawals` — on every engine.
#[test]
fn try_run_for_fast_fails_expired_deadline() {
    use rinval::TxError;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    for kind in AlgorithmKind::all(2, 2) {
        let stm = Stm::builder(kind).heap_words(1 << 10).build();
        let c = stm.alloc_init(&[0]);
        let mut th = stm.register_thread();
        let body_entered = AtomicUsize::new(0);

        let r = th.try_run_for(Duration::ZERO, |tx| {
            body_entered.fetch_add(1, Ordering::Relaxed);
            let v = tx.read(c)?;
            tx.write(c, v + 1)
        });
        assert_eq!(r, Err(TxError::Timeout), "{kind:?}");
        assert_eq!(
            body_entered.load(Ordering::Relaxed),
            0,
            "{kind:?}: expired deadline still bought an attempt"
        );
        assert_eq!(stm.peek(c), 0, "{kind:?}");
        assert!(
            stm.server_stats().timeout_withdrawals >= 1,
            "{kind:?}: fast-fail not counted as a timeout withdrawal"
        );
        assert_registry_quiescent(&stm);

        // The handle is still fully usable afterwards.
        let r = th.try_run_for(Duration::from_secs(5), |tx| {
            let v = tx.read(c)?;
            tx.write(c, v + 1)
        });
        assert_eq!(r, Ok(()), "{kind:?}");
        assert_eq!(stm.peek(c), 1, "{kind:?}");
    }
}

/// One thread panics over and over while three others increment: the
/// survivors' updates must all land, on every engine.
#[test]
fn panics_do_not_disturb_concurrent_threads() {
    for kind in AlgorithmKind::all(2, 2) {
        let stm = Stm::builder(kind).heap_words(1 << 10).build();
        let c = stm.alloc_init(&[0]);
        const THREADS: usize = 3;
        const INCS: usize = 50;
        const PANICS: usize = 10;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let mut th = stm.register_thread();
                    for _ in 0..INCS {
                        th.run(|tx| {
                            let v = tx.read(c)?;
                            tx.write(c, v + 1)
                        });
                    }
                });
            }
            s.spawn(|| {
                let mut th = stm.register_thread();
                for _ in 0..PANICS {
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        th.run(|tx| {
                            let v = tx.read(c)?;
                            tx.write(c, v + 1_000_000)?;
                            panic!("repeated body panic");
                            #[allow(unreachable_code)]
                            Ok(())
                        })
                    }));
                }
            });
        });
        assert_eq!(stm.peek(c), (THREADS * INCS) as u64, "{kind:?}");
        assert_registry_quiescent(&stm);
    }
}

/// A panic that unwinds through `ThreadHandle::drop` (thread dies with the
/// handle alive) must release the registry slot: with `max_threads = 2`,
/// two fresh registrations succeed afterwards.
#[test]
fn drop_during_unwind_releases_the_slot() {
    for kind in AlgorithmKind::all(2, 2) {
        let stm = Stm::builder(kind)
            .heap_words(1 << 10)
            .max_threads(2)
            .build();
        let c = stm.alloc_init(&[0]);
        std::thread::scope(|s| {
            let dead = s.spawn(|| {
                let mut th = stm.register_thread();
                th.run(|tx| {
                    tx.write(c, 7)?;
                    panic!("die with the handle alive");
                    #[allow(unreachable_code)]
                    Ok(())
                })
            });
            assert!(dead.join().is_err(), "{kind:?}");
        });
        // Both slots must be claimable again.
        let th1 = stm.register_thread();
        let th2 = stm.register_thread();
        drop((th1, th2));
        assert_registry_quiescent(&stm);
    }
}

#[cfg(feature = "failpoints")]
mod injected {
    use super::*;
    use rinval::faults::{site, FaultAction};
    use rinval::{TxError, WatchdogConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A watchdog tuned for test time scales: 1 ms polls so deaths are
    /// noticed quickly, but a *long* stall window (5 s) — the test binary
    /// runs many Stm instances (dozens of threads) in parallel, and a busy
    /// seat merely descheduled for a few tens of milliseconds must not be
    /// mistaken for a stalled one. Tests that exercise stall detection
    /// shorten the window explicitly (their injected stall is silent
    /// forever, so detection is deterministic at any window length).
    fn tight_watchdog() -> WatchdogConfig {
        WatchdogConfig {
            interval: Duration::from_millis(1),
            stall_checks: 5_000,
            max_respawns: 3,
            enabled: true,
        }
    }

    fn increment(stm: &Stm, n: usize, c: rinval::Handle) {
        let mut th = stm.register_thread();
        for _ in 0..n {
            th.run(|tx| {
                let v = tx.read(c)?;
                tx.write(c, v + 1)
            });
        }
    }

    /// A panic inside the commit critical section (seqlock held under
    /// NOrec/InvalSTM; request posted under RInval) must repair the
    /// protocol: the timestamp ends even, other threads keep committing.
    #[test]
    fn commit_panic_repairs_protocol_state() {
        for kind in [
            AlgorithmKind::NOrec,
            AlgorithmKind::InvalStm,
            AlgorithmKind::RInvalV1,
            AlgorithmKind::RInvalV2 { invalidators: 2 },
        ] {
            let stm = Stm::builder(kind).heap_words(1 << 10).build();
            let c = stm.alloc_init(&[0]);
            stm.faults()
                .arm(site::TXN_COMMIT_PANIC, FaultAction::Panic, Some(1));

            let mut th = stm.register_thread();
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                th.run(|tx| {
                    let v = tx.read(c)?;
                    tx.write(c, v + 1)
                })
            }));
            assert!(unwound.is_err(), "{kind:?}: commit panic did not fire");
            assert_eq!(stm.timestamp() & 1, 0, "{kind:?}: seqlock left odd");

            // The instance stays live for this handle and for others.
            th.run(|tx| {
                let v = tx.read(c)?;
                tx.write(c, v + 1)
            });
            drop(th);
            increment(&stm, 10, c);
            assert_registry_quiescent(&stm);
        }
    }

    /// One injected commit-server death: the watchdog respawns the seat
    /// and the workload completes without degradation.
    #[test]
    fn commit_server_death_is_respawned() {
        for kind in [
            AlgorithmKind::RInvalV1,
            AlgorithmKind::RInvalV2 { invalidators: 2 },
        ] {
            let stm = Stm::builder(kind)
                .heap_words(1 << 10)
                .watchdog(tight_watchdog())
                .build();
            let c = stm.alloc_init(&[0]);
            stm.faults()
                .arm(site::SERVER_COMMIT_DEATH, FaultAction::Exit, Some(1));

            increment(&stm, 200, c);

            assert_eq!(stm.peek(c), 200, "{kind:?}");
            assert!(!stm.is_degraded(), "{kind:?}: degraded after one death");
            assert!(
                stm.server_stats().respawns >= 1,
                "{kind:?}: death never detected"
            );
        }
    }

    /// One injected invalidation-server death (V2): respawned, no
    /// degradation, workload completes.
    ///
    /// A lone client's commits find every partition quiet and never wait
    /// for an invalidator, so readers parked mid-transaction in *both*
    /// partitions give the dead one work: every commit is handed to it, and
    /// the increments cannot finish before the watchdog respawns it.
    #[test]
    fn inval_server_death_is_respawned() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let stm = Stm::builder(AlgorithmKind::RInvalV2 { invalidators: 2 })
            .heap_words(1 << 10)
            .watchdog(tight_watchdog())
            .build();
        let c = stm.alloc_init(&[0]);
        let d = stm.alloc_init(&[0]);
        let (parked, release) = (AtomicUsize::new(0), AtomicBool::new(false));
        let slots = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            // Two readers of `d`, which nobody writes, take the two lowest
            // slots — one per partition. Each parks in a registered attempt
            // (a first attempt would stay off the registry, DESIGN.md §14,
            // so it aborts on purpose), which keeps both partitions busy:
            // every commit is handed to both invalidators.
            for _ in 0..2 {
                s.spawn(|| {
                    let mut th = stm.register_thread();
                    slots.lock().unwrap().push(th.slot());
                    let (mut first, mut counted) = (true, false);
                    th.run(|tx| {
                        if std::mem::take(&mut first) {
                            return tx.user_abort();
                        }
                        tx.read(d)?;
                        if !std::mem::replace(&mut counted, true) {
                            parked.fetch_add(1, Ordering::SeqCst);
                        }
                        while !release.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Ok(())
                    });
                });
            }
            while parked.load(Ordering::SeqCst) < 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let parities = slots
                .lock()
                .unwrap()
                .iter()
                .map(|i| i % 2)
                .collect::<Vec<_>>();
            assert!(
                parities.contains(&0) && parities.contains(&1),
                "{parities:?}"
            );
            for &i in slots.lock().unwrap().iter() {
                assert!(
                    stm.registry().live().get(i),
                    "parked reader {i} is not live"
                );
            }
            stm.faults()
                .arm(site::SERVER_INVAL_DEATH, FaultAction::Exit, Some(1));

            increment(&stm, 200, c);

            let t0 = std::time::Instant::now();
            while stm.server_stats().respawns == 0 && t0.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(1));
            }
            release.store(true, Ordering::SeqCst);
        });

        assert_eq!(stm.peek(c), 200);
        assert!(!stm.is_degraded());
        let st = stm.server_stats();
        assert!(st.respawns >= 1);
        assert_eq!(
            st.quiet_retirements, 0,
            "a commit skipped the hand-off: {st:?}"
        );
    }

    /// Algorithm 4, line 2: a lagging invalidation-server only defers its
    /// own partition's requests. Two clients whose slots fall in different
    /// `i % 2` partitions both finish under injected lag, and lag (not a
    /// stall) never degrades the instance.
    #[test]
    fn lagging_invalidator_never_strands_requests() {
        const INCS: u64 = 30;
        let stm = Stm::builder("rinval-mv:2:4".parse().unwrap())
            .heap_words(1 << 10)
            .max_threads(8)
            .build();
        let counters = stm.alloc(2);
        stm.faults().arm(
            site::SERVER_INVAL_LAG,
            FaultAction::Delay(Duration::from_millis(2)),
            Some(60),
        );
        // Both register before either runs, so neither recycles the
        // other's slot.
        let registered = std::sync::Barrier::new(2);
        let slots: Vec<usize> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2u32)
                .map(|t| {
                    let (stm, registered) = (&stm, &registered);
                    s.spawn(move || {
                        let mut th = stm.register_thread();
                        registered.wait();
                        for _ in 0..INCS {
                            th.run(|tx| {
                                let v = tx.read(counters.field(t))?;
                                tx.write(counters.field(t), v + 1)
                            });
                        }
                        th.slot()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_ne!(slots[0] % 2, slots[1] % 2, "clients share a partition");
        for t in 0..2 {
            assert_eq!(
                stm.peek(counters.field(t)),
                INCS,
                "client {t}'s commits were stranded behind a lagging invalidator"
            );
        }
        assert!(!stm.is_degraded(), "lag (not a stall) must not degrade");
    }

    /// The ISSUE's acceptance scenario: kill the commit-server *every time
    /// it comes up*. After `max_respawns` futile respawns the instance
    /// degrades to InvalSTM and the workload still completes — all inside
    /// an outer 10 s no-hang bound.
    #[test]
    fn killing_the_commit_server_repeatedly_degrades_not_hangs() {
        const SUM: u64 = 100;
        let mv = AlgorithmKind::RInvalMV {
            invalidators: 1,
            steps_ahead: 2,
        };
        for kind in [
            AlgorithmKind::RInvalV1,
            AlgorithmKind::RInvalV2 { invalidators: 2 },
            mv,
        ] {
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let worker = std::thread::spawn(move || {
                let stm = Stm::builder(kind)
                    .heap_words(1 << 10)
                    .watchdog(WatchdogConfig {
                        max_respawns: 2,
                        ..tight_watchdog()
                    })
                    .build();
                let c = stm.alloc_init(&[0]);
                // A conserved pair: every `shift` moves one unit across it.
                let pair = stm.alloc_init(&[SUM, 0]);
                let mut th = stm.register_thread();
                let mut shift = || {
                    th.run(|tx| {
                        let (x, y) = (tx.read(pair)?, tx.read(pair.field(1))?);
                        tx.write(pair, x - 1)?;
                        tx.write(pair.field(1), y + 1)
                    })
                };
                let appends = || stm.heap_stats().version_appends;
                shift();
                let (parked, go) = (AtomicBool::new(false), AtomicBool::new(false));
                // MV only: a declared reader begins before the degradation
                // and stays parked across it. A commit made under it is
                // versioned whichever engine makes it.
                let mv_leg = std::thread::scope(|s| {
                    let reader = (kind == mv).then(|| {
                        s.spawn(|| {
                            stm.register_thread().run_ro(|tx| {
                                parked.store(true, Ordering::SeqCst);
                                while !go.load(Ordering::SeqCst) {
                                    std::thread::sleep(Duration::from_micros(50));
                                }
                                Ok(tx.read(pair)? + tx.read(pair.field(1))?)
                            })
                        })
                    });
                    while reader.is_some() && !parked.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    // Unlimited budget: every respawned server dies on its
                    // first pass too.
                    stm.faults()
                        .arm(site::SERVER_COMMIT_DEATH, FaultAction::Exit, None);
                    increment(&stm, 200, c);
                    let reader = reader?;
                    let (degraded, before) = (stm.is_degraded(), appends());
                    shift();
                    let under_reader = appends() - before;
                    go.store(true, Ordering::SeqCst);
                    Some((degraded, under_reader, reader.join().unwrap()))
                });
                // No reader in flight: a degraded instance's commits are
                // decided by the same rule as a server's, and store plainly.
                let before = appends();
                for _ in 0..10 {
                    shift();
                }
                let unversioned = appends() - before;
                let conserved = stm.peek(pair) + stm.peek(pair.field(1));
                done_tx
                    .send((
                        stm.peek(c),
                        stm.is_degraded(),
                        stm.server_stats(),
                        mv_leg,
                        (unversioned, conserved),
                    ))
                    .unwrap();
                drop(th);
                drop(stm); // shutdown must not hang either
            });
            let (count, degraded, stats, mv_leg, (unversioned, conserved)) = done_rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{kind:?}: workload hung after commit-server death"));
            worker.join().unwrap();
            assert_eq!(count, 200, "{kind:?}");
            assert!(degraded, "{kind:?}: never degraded");
            assert_eq!(stats.degradations, 1, "{kind:?}");
            assert!(stats.respawns >= 1, "{kind:?}");
            assert_eq!(conserved, SUM, "{kind:?}");
            assert_eq!(
                unversioned, 0,
                "{kind:?}: a degraded commit with no reader in flight was versioned"
            );
            if let Some((degraded_under_reader, under_reader, read_sum)) = mv_leg {
                assert!(degraded_under_reader, "{kind:?}: degraded too late");
                assert_eq!(
                    under_reader, 2,
                    "{kind:?}: a degraded commit under a declared reader was not versioned"
                );
                assert_eq!(read_sum, SUM, "{kind:?}: the parked reader's sum");
            }
        }
    }

    /// A commit-server that is alive but silent while work is outstanding
    /// is a stall: the watchdog cannot safely respawn it (two servers
    /// would both write the timestamp), so the instance degrades and the
    /// workload finishes under InvalSTM.
    #[test]
    fn stalled_commit_server_degrades() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let stm = Stm::builder(AlgorithmKind::RInvalV1)
                .heap_words(1 << 10)
                .watchdog(WatchdogConfig {
                    // The injected stall never beats, so a short window is
                    // safe here (and keeps the test fast).
                    stall_checks: 150,
                    ..tight_watchdog()
                })
                .build();
            let c = stm.alloc_init(&[0]);
            stm.faults()
                .arm(site::SERVER_COMMIT_STALL, FaultAction::Stall, None);
            increment(&stm, 100, c);
            done_tx
                .send((stm.peek(c), stm.is_degraded(), stm.server_stats()))
                .unwrap();
            drop(stm);
        });
        let (count, degraded, stats) = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("workload hung on a stalled commit-server");
        worker.join().unwrap();
        assert_eq!(count, 100);
        assert!(degraded);
        assert_eq!(stats.degradations, 1);
        assert!(stats.heartbeat_misses >= 1);
    }

    /// With the watchdog off and the server stalled, the only escape is
    /// the client's own deadline: `try_run_for` must time out (withdrawing
    /// its posted request), and the instance must recover fully once the
    /// stall clears.
    #[test]
    fn try_run_for_times_out_and_withdraws() {
        let stm = Stm::builder(AlgorithmKind::RInvalV1)
            .heap_words(1 << 10)
            .watchdog(WatchdogConfig {
                enabled: false,
                ..WatchdogConfig::default()
            })
            .build();
        let c = stm.alloc_init(&[0]);
        stm.faults()
            .arm(site::SERVER_COMMIT_STALL, FaultAction::Stall, None);

        let mut th = stm.register_thread();
        let r = th.try_run_for(Duration::from_millis(50), |tx| {
            let v = tx.read(c)?;
            tx.write(c, v + 1)
        });
        assert_eq!(r, Err(TxError::Timeout));
        assert_eq!(stm.peek(c), 0, "timed-out write leaked");
        let stats = stm.server_stats();
        assert!(stats.timed_out_requests >= 1);
        assert!(stats.withdrawn_requests >= 1);
        assert!(!stm.registry().pending().any_set(), "request not withdrawn");

        // Clear the stall: the same handle commits normally again.
        stm.faults().disarm(site::SERVER_COMMIT_STALL);
        th.run(|tx| {
            let v = tx.read(c)?;
            tx.write(c, v + 1)
        });
        assert_eq!(stm.peek(c), 1);

        // An uncontended bounded run succeeds well within its deadline.
        let r = th.try_run_for(Duration::from_secs(5), |tx| {
            let v = tx.read(c)?;
            tx.write(c, v + 1)
        });
        assert_eq!(r, Ok(()));
        assert_eq!(stm.peek(c), 2);
    }

    /// Simulated allocator exhaustion takes the real panic path on every
    /// engine; the handle, heap and registry all survive it.
    #[test]
    fn alloc_failure_is_contained_on_every_engine() {
        for kind in AlgorithmKind::all(2, 2) {
            let stm = Stm::builder(kind).heap_words(1 << 10).build();
            let list = stm.alloc_init(&[0]);
            let mut th = stm.register_thread();
            stm.faults()
                .arm(site::HEAP_ALLOC_FAIL, FaultAction::Fail, Some(1));

            let unwound = catch_unwind(AssertUnwindSafe(|| {
                th.run(|tx| {
                    let node = tx.alloc(4)?;
                    tx.write(node, 7)?;
                    tx.write(list, 1)
                })
            }));
            assert!(unwound.is_err(), "{kind:?}: alloc failpoint did not fire");
            assert_eq!(stm.peek(list), 0, "{kind:?}: failed attempt published");

            // Budget exhausted: the same allocation now succeeds and the
            // speculative words of the failed attempt were surrendered.
            th.run(|tx| {
                let node = tx.alloc(4)?;
                tx.write(node, 7)?;
                tx.write(list, 1)
            });
            assert_eq!(stm.peek(list), 1, "{kind:?}");
            drop(th);
            assert_registry_quiescent(&stm);
        }
    }

    /// CI fault-matrix entry point: inert unless `RINVAL_FAILPOINTS` is
    /// set (see the module docs). Whatever faults the environment arms,
    /// a small workload on every remote kind must terminate correctly —
    /// by riding them out, being respawned around, or degrading.
    #[test]
    fn env_seeded_workloads_terminate() {
        if std::env::var("RINVAL_FAILPOINTS").is_err() {
            return;
        }
        for kind in [
            AlgorithmKind::RInvalV1,
            AlgorithmKind::RInvalV2 { invalidators: 2 },
            AlgorithmKind::RInvalMV {
                invalidators: 2,
                steps_ahead: 2,
            },
        ] {
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let worker = std::thread::spawn(move || {
                let stm = Stm::builder(kind)
                    .heap_words(1 << 10)
                    .watchdog(tight_watchdog())
                    .build();
                let c = stm.alloc_init(&[0]);
                // Panic-action permutations unwind through `run`; a panic
                // *after* the commit request was posted may still have
                // committed, so panicked attempts contribute 0 or 1 to the
                // counter.
                let mut th = stm.register_thread();
                let mut acked = 0u64;
                let mut panicked = 0u64;
                while acked < 100 {
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        th.run(|tx| {
                            let v = tx.read(c)?;
                            tx.write(c, v + 1)
                        })
                    }));
                    match r {
                        Ok(()) => acked += 1,
                        Err(_) => panicked += 1,
                    }
                }
                drop(th);
                done_tx.send((stm.peek(c), panicked)).unwrap();
                drop(stm);
            });
            let (count, panicked) = done_rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("{kind:?}: env-seeded workload hung"));
            worker.join().unwrap();
            assert!(
                (100..=100 + panicked).contains(&count),
                "{kind:?}: {count} commits for 100 acks + {panicked} panics"
            );
        }
    }
}
