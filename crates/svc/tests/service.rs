//! Service lifecycle tests: exactly-once retries, deadlines, admission
//! control — always-compiled half, plus the `failpoints`-gated fault
//! drills (lost replies, worker death between commit and reply).

use rinval::{AlgorithmKind, Stm};
use std::time::Duration;
use svc::{bank, serve, Request, SvcConfig, SvcError};

fn transfer(client: u64, key: u64, from: u64, to: u64, amount: u64) -> Request {
    Request {
        client,
        key,
        endpoint: bank::EP_TRANSFER,
        args: [from, to, amount, 0],
    }
}

fn audit(client: u64) -> Request {
    Request {
        client,
        key: 0,
        endpoint: bank::EP_AUDIT,
        args: [0; 4],
    }
}

const TIMEOUT: Duration = Duration::from_secs(5);

/// Round trip on every engine: writes apply once, reads see them, the
/// ledger and the conservation invariant agree.
#[test]
fn round_trip_on_every_engine() {
    for kind in AlgorithmKind::all(2, 2) {
        let stm = Stm::builder(kind).heap_words(1 << 14).build();
        let bank = bank::BankService::setup(&stm, 16, 1_000);
        serve(&stm, &bank, &SvcConfig::default(), |front| {
            assert_eq!(front.call(transfer(3, 1, 0, 1, 250), TIMEOUT), Ok(250));
            assert_eq!(front.call(audit(5), TIMEOUT), Ok(16_000), "{kind:?}");
            assert_eq!(
                front.call(
                    Request {
                        client: 2,
                        key: 0,
                        endpoint: bank::EP_BALANCE,
                        args: [1, 0, 0, 0],
                    },
                    TIMEOUT,
                ),
                Ok(1_250),
                "{kind:?}"
            );
            assert_eq!(front.applied_ops(3), 1);
        });
        bank.verify(&stm)
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
    }
}

/// A duplicate idempotency key is never re-applied: the recorded result
/// comes back and the ledger does not advance. On every engine.
#[test]
fn duplicate_keys_are_exactly_once_on_every_engine() {
    for kind in AlgorithmKind::all(2, 2) {
        let stm = Stm::builder(kind).heap_words(1 << 14).build();
        let bank = bank::BankService::setup(&stm, 8, 1_000);
        serve(&stm, &bank, &SvcConfig::default(), |front| {
            let req = transfer(1, 1, 2, 3, 100);
            assert_eq!(front.call(req, TIMEOUT), Ok(100), "{kind:?}");
            for _ in 0..3 {
                // Byte-identical retries: answered from the dedup window.
                assert_eq!(front.call(req, TIMEOUT), Ok(100), "{kind:?}");
            }
            assert_eq!(front.applied_ops(1), 1, "{kind:?}: duplicate applied");
            assert!(front.stats().dedup_hits >= 3, "{kind:?}");
            // Balance moved exactly once.
            assert_eq!(
                front.call(
                    Request {
                        client: 0,
                        key: 0,
                        endpoint: bank::EP_BALANCE,
                        args: [3, 0, 0, 0],
                    },
                    TIMEOUT,
                ),
                Ok(1_100),
                "{kind:?}"
            );
        });
        bank.verify(&stm)
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
    }
}

/// An expired deadline is answered `Timeout` without executing, and the
/// retry of the same key resolves it exactly once.
#[test]
fn zero_deadline_times_out_then_retry_applies_once() {
    let stm = Stm::builder(AlgorithmKind::RInvalV2 { invalidators: 2 })
        .heap_words(1 << 14)
        .build();
    let bank = bank::BankService::setup(&stm, 8, 1_000);
    serve(&stm, &bank, &SvcConfig::default(), |front| {
        let req = transfer(0, 1, 0, 1, 50);
        assert_eq!(front.call(req, Duration::ZERO), Err(SvcError::Timeout));
        // The operation may or may not have applied (here: not, the
        // deadline was past before dequeue). The retry decides it.
        assert_eq!(front.call(req, TIMEOUT), Ok(50));
        assert_eq!(front.applied_ops(0), 1);
        let stats = front.stats();
        assert!(stats.client_timeouts >= 1);
    });
    bank.verify(&stm).unwrap();
}

/// A panic inside the serve closure must come back out as a panic (a
/// failing assertion stays a test failure), not hang `serve` joining a
/// supervisor that never learns about shutdown.
#[test]
fn panicking_closure_propagates_instead_of_hanging() {
    let stm = Stm::builder(AlgorithmKind::NOrec)
        .heap_words(1 << 12)
        .build();
    let bank = bank::BankService::setup(&stm, 4, 100);
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        serve(&stm, &bank, &SvcConfig::default(), |_front| -> () {
            panic!("deliberate closure panic")
        })
    }));
    assert!(out.is_err(), "the closure panic must escape serve()");
}

/// A dedup table too large for the u32 handle index space is refused up
/// front instead of silently aliasing rows.
#[test]
#[should_panic(expected = "u32 handle index space")]
fn oversized_dedup_table_panics_up_front() {
    let stm = Stm::builder(AlgorithmKind::NOrec)
        .heap_words(1 << 12)
        .build();
    let bank = bank::BankService::setup(&stm, 4, 100);
    let cfg = SvcConfig {
        clients: 1 << 40,
        ..SvcConfig::default()
    };
    serve(&stm, &bank, &cfg, |_front| {});
}

/// So is a dedup *window* too large for it: `dedup_window >= 2^31` used to
/// truncate to a u32 and wrap `row_words` in release builds (to 3 words a
/// row, with the lookup loop then walking other clients' rows).
#[test]
#[should_panic(expected = "u32 handle index space")]
fn oversized_dedup_window_panics_up_front() {
    let stm = Stm::builder(AlgorithmKind::NOrec)
        .heap_words(1 << 12)
        .build();
    let bank = bank::BankService::setup(&stm, 4, 100);
    let cfg = SvcConfig {
        clients: 1,
        dedup_window: 1 << 31,
        ..SvcConfig::default()
    };
    serve(&stm, &bank, &cfg, |_front| {});
}

/// A read endpoint that sleeps: wedges a worker for a controlled time so
/// a busy call slot is deterministic.
struct Sleepy;

impl svc::Workload for Sleepy {
    fn endpoints(&self) -> &'static [svc::EndpointDesc] {
        &[svc::EndpointDesc {
            name: "nap",
            writes: false,
        }]
    }

    fn apply(&self, _tx: &mut rinval::Txn<'_>, _req: &Request) -> rinval::TxResult<u64> {
        unreachable!("sleepy has no write endpoints")
    }

    fn query(&self, _tx: &mut rinval::Txn<'_>, req: &Request) -> rinval::TxResult<u64> {
        std::thread::sleep(Duration::from_millis(req.args[0]));
        Ok(0)
    }
}

/// A client id's call slot that is still in a worker's hands (the previous
/// call on it timed out) is waited for at the door, not refused: the retry
/// is served once the worker lets go — what the FIFO mailbox did by queueing
/// the retry behind the abandoned copy — and a call whose own deadline
/// falls first times out without ever posting.
#[test]
fn busy_client_slot_is_waited_for_not_refused() {
    let stm = Stm::builder(AlgorithmKind::NOrec)
        .heap_words(1 << 12)
        .build();
    let cfg = SvcConfig {
        workers: 1,
        ..SvcConfig::default()
    };
    serve(&stm, &Sleepy, &cfg, |front| {
        let nap = |ms: u64| Request {
            client: 0,
            key: 0,
            endpoint: 0,
            args: [ms, 0, 0, 0],
        };
        // A: the worker claims it and naps past A's deadline; A abandons.
        let t0 = std::time::Instant::now();
        assert_eq!(
            front.call(nap(600), Duration::from_millis(100)),
            Err(SvcError::Timeout)
        );
        let after_a = front.stats();
        assert_eq!((after_a.accepted, after_a.client_timeouts), (1, 1));
        // C: the slot is still the napping worker's; a short deadline runs
        // out at the door, and nothing is posted.
        assert_eq!(
            front.call(nap(0), Duration::from_millis(50)),
            Err(SvcError::Timeout)
        );
        assert_eq!(front.stats().accepted, 1, "C must not have posted");
        // B: a long deadline outlasts the nap, gets the slot and is served.
        assert_eq!(front.call(nap(0), Duration::from_secs(30)), Ok(0));
        assert!(
            t0.elapsed() >= Duration::from_millis(600),
            "B overtook the nap"
        );
        let done = front.stats();
        assert_eq!(done.accepted, 2);
        assert_eq!(done.late_replies, 1, "A's answer found the slot abandoned");
        assert_eq!(done.client_timeouts, 2);
    });
}

/// SLO admission control: with an unmeetable SLO, the first executed
/// write flips the gate and subsequent writes are shed — while reads keep
/// being served (`run_ro` degraded mode). After `breach_ttl` the signal
/// goes stale and probe writes are admitted again.
#[test]
fn slo_breach_sheds_writes_but_serves_reads() {
    let stm = Stm::builder(AlgorithmKind::RInvalV2 { invalidators: 2 })
        .heap_words(1 << 14)
        .build();
    let bank = bank::BankService::setup(&stm, 8, 1_000);
    let cfg = SvcConfig {
        workers: 1,
        slo_p99: Duration::from_nanos(1), // unmeetable: every window breaches
        hist_window: 1,                   // cache refreshes on every write
        breach_ttl: Duration::from_millis(250),
        ..SvcConfig::default()
    };
    serve(&stm, &bank, &cfg, |front| {
        assert_eq!(front.call(transfer(0, 1, 0, 1, 10), TIMEOUT), Ok(10));
        assert!(
            front.shedding_writes(),
            "breached window did not trip the gate"
        );
        assert_eq!(
            front.call(transfer(0, 2, 0, 1, 10), TIMEOUT),
            Err(SvcError::RetryAfter),
            "write not shed under breach"
        );
        // Degraded mode: reads still flow.
        assert_eq!(front.call(audit(1), TIMEOUT), Ok(8_000));
        assert!(front.stats().shed_writes >= 1);
        // The stale breach re-admits probe writes.
        std::thread::sleep(cfg.breach_ttl + Duration::from_millis(50));
        assert!(!front.shedding_writes(), "breach signal never went stale");
        assert_eq!(front.call(transfer(0, 2, 0, 1, 10), TIMEOUT), Ok(10));
    });
    bank.verify(&stm).unwrap();
}

/// The backpressure half of the gate: a zero pending-threshold sheds every
/// write regardless of latency.
#[test]
fn backpressure_threshold_sheds_writes() {
    let stm = Stm::builder(AlgorithmKind::NOrec)
        .heap_words(1 << 14)
        .build();
    let bank = bank::BankService::setup(&stm, 8, 1_000);
    let cfg = SvcConfig {
        shed_pending: 0,
        ..SvcConfig::default()
    };
    serve(&stm, &bank, &cfg, |front| {
        assert_eq!(
            front.call(transfer(0, 1, 0, 1, 10), TIMEOUT),
            Err(SvcError::RetryAfter)
        );
        assert_eq!(
            front.call(audit(0), TIMEOUT),
            Ok(8_000),
            "reads must survive"
        );
    });
}

#[cfg(feature = "failpoints")]
mod drills {
    use super::*;
    use proptest::prelude::*;
    use rinval::faults::site;
    use rinval::FaultAction;

    const RETRY_TIMEOUT: Duration = Duration::from_millis(100);

    /// Calls until acknowledged, retrying the same key — the closed-loop
    /// client discipline. Returns the acknowledged value.
    fn call_until_acked(front: &svc::Frontend<'_, '_>, req: Request) -> u64 {
        for _ in 0..1_000 {
            match front.call(req, RETRY_TIMEOUT) {
                Ok(v) => return v,
                Err(SvcError::Shutdown) => panic!("service shut down mid-retry"),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        panic!("request never acknowledged");
    }

    /// Kill-every-reply: every fresh apply drops its reply, so every
    /// operation is acknowledged through the dedup window — exactly once,
    /// on every engine.
    #[test]
    fn lost_replies_recover_exactly_once_on_every_engine() {
        for kind in AlgorithmKind::all(2, 2) {
            let stm = Stm::builder(kind).heap_words(1 << 14).build();
            let bank = bank::BankService::setup(&stm, 8, 1_000);
            stm.faults()
                .arm(site::SVC_REPLY_PRE, FaultAction::Exit, None);
            serve(&stm, &bank, &SvcConfig::default(), |front| {
                for key in 1..=5u64 {
                    let v = call_until_acked(front, transfer(0, key, 0, 1, 10));
                    assert_eq!(v, 10, "{kind:?}");
                }
                assert_eq!(front.applied_ops(0), 5, "{kind:?}: ledger drifted");
                let stats = front.stats();
                assert!(stats.dropped_replies >= 5, "{kind:?}");
                assert!(stats.dedup_hits >= 5, "{kind:?}: recovery bypassed dedup");
            });
            stm.faults().disarm(site::SVC_REPLY_PRE);
            bank.verify(&stm)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
    }

    /// Worker killed between commit and reply: the supervisor respawns it
    /// and the retry is answered from the dedup window. The committed
    /// effect survives the crash exactly once.
    #[test]
    fn worker_death_after_commit_recovers_via_respawn_and_dedup() {
        let stm = Stm::builder(AlgorithmKind::RInvalV2 { invalidators: 2 })
            .heap_words(1 << 14)
            .build();
        let bank = bank::BankService::setup(&stm, 8, 1_000);
        stm.faults()
            .arm(site::SVC_REPLY_PRE, FaultAction::Panic, Some(1));
        serve(&stm, &bank, &SvcConfig::default(), |front| {
            let v = call_until_acked(front, transfer(0, 1, 2, 3, 77));
            assert_eq!(v, 77);
            assert_eq!(front.applied_ops(0), 1);
            let stats = front.stats();
            assert!(stats.worker_deaths >= 1, "panic did not kill the worker");
            assert!(stats.worker_respawns >= 1, "worker was not respawned");
            assert!(stats.dedup_hits >= 1, "recovery bypassed the dedup window");
        });
        bank.verify(&stm).unwrap();
    }

    /// Injected worker exits at the top of the loop: the slots survive the
    /// deaths and service continues on respawned workers.
    #[test]
    fn injected_worker_exits_are_respawned() {
        let stm = Stm::builder(AlgorithmKind::NOrec)
            .heap_words(1 << 14)
            .build();
        let bank = bank::BankService::setup(&stm, 8, 1_000);
        stm.faults()
            .arm(site::SVC_WORKER_DEATH, FaultAction::Exit, Some(2));
        serve(&stm, &bank, &SvcConfig::default(), |front| {
            for key in 1..=4u64 {
                assert_eq!(call_until_acked(front, transfer(0, key, 0, 1, 5)), 5);
            }
            assert_eq!(front.applied_ops(0), 4);
        });
        bank.verify(&stm).unwrap();
    }

    /// Enqueue faults: `fail` looks like load shed, `exit` loses the
    /// accepted request — and the retry of the same key stays exactly-once.
    #[test]
    fn enqueue_faults_reject_or_lose_but_never_duplicate() {
        let stm = Stm::builder(AlgorithmKind::RInvalV1)
            .heap_words(1 << 14)
            .build();
        let bank = bank::BankService::setup(&stm, 8, 1_000);
        let cfg = SvcConfig::default();
        serve(&stm, &bank, &cfg, |front| {
            stm.faults()
                .arm(site::SVC_ENQUEUE, FaultAction::Fail, Some(1));
            let req = transfer(0, 1, 0, 1, 9);
            assert_eq!(front.call(req, RETRY_TIMEOUT), Err(SvcError::RetryAfter));
            stm.faults()
                .arm(site::SVC_ENQUEUE, FaultAction::Exit, Some(1));
            assert_eq!(front.call(req, RETRY_TIMEOUT), Err(SvcError::Timeout));
            // Both faults consumed; the plain retry resolves the key.
            assert_eq!(call_until_acked(front, req), 9);
            assert_eq!(front.applied_ops(0), 1);
            let stats = front.stats();
            assert_eq!(stats.enqueue_faults, 1);
            assert_eq!(stats.enqueue_drops, 1);
        });
        bank.verify(&stm).unwrap();
    }

    // The property: a client retrying *every* request with the same
    // idempotency key under a kill-every-reply fault plan observes
    // exactly-once effects — on all six engines.
    proptest! {
        #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]
        #[test]
        fn retried_ops_under_kill_every_reply_are_exactly_once(
            ops in prop::collection::vec((0u64..8, 0u64..8, 1u64..40), 1..8),
        ) {
            for kind in AlgorithmKind::all(2, 2) {
                let stm = Stm::builder(kind).heap_words(1 << 14).build();
                let bank = bank::BankService::setup(&stm, 8, 1_000);
                stm.faults().arm(site::SVC_REPLY_PRE, FaultAction::Exit, None);
                serve(&stm, &bank, &SvcConfig::default(), |front| {
                    let mut key = 0u64;
                    for &(from, to, amount) in &ops {
                        key += 1;
                        let req = transfer(1, key, from, to, amount);
                        // First try loses its reply; keep retrying the key.
                        let v = call_until_acked(front, req);
                        // The value each retry returns is the recorded one.
                        prop_assert_eq!(call_until_acked(front, req), v, "{:?}", kind);
                    }
                    prop_assert_eq!(front.applied_ops(1), ops.len() as u64, "{:?}", kind);
                    Ok(())
                })?;
                stm.faults().disarm(site::SVC_REPLY_PRE);
                prop_assert!(bank.verify(&stm).is_ok(), "{:?}", kind);
            }
        }
    }
}
