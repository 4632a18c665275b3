//! The waiting discipline under the service's call slots (DESIGN.md §12,
//! §16): caller on its slot, worker on its posted map, both through
//! `rinval::sync::Waiter` — the same file as `rinval/tests/waiting.rs`, one
//! layer up.
//!
//! What is certified here:
//!
//! * no wake is ever lost, on either side of the slot (a lost wake costs a
//!   whole park — a second — and the assertions below are tighter);
//! * oversubscription is the normal case — more callers and workers than
//!   cores must all be answered (CI's `oversubscribed` job runs this whole
//!   file again under `taskset -c 0`, one core for everything);
//! * an idle service really sleeps and shuts down at once;
//! * the hot path never parks;
//! * every slot comes back free: answered, withdrawn at the deadline, and
//!   (under `failpoints`) lost with a dying worker.
//!
//! Every test takes [`serial`]: several of them read the park counters of
//! a timed run, and a sibling test's threads on the same two cores would
//! turn "idle" and "hot" into matters of scheduling luck.

use rinval::{AlgorithmKind, Stm};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use svc::{bank, serve, Request, SvcConfig, SvcError};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn transfer(client: u64, key: u64) -> Request {
    Request {
        client,
        key,
        endpoint: bank::EP_TRANSFER,
        args: [key % 16, (key + 1) % 16, 1, 0],
    }
}

fn config(workers: usize, clients: u64) -> SvcConfig {
    SvcConfig {
        workers,
        clients,
        // These tests time hand-offs, not the admission gate: one slow
        // window on a shared host must not start shedding writes.
        slo_p99: Duration::from_secs(60),
        ..SvcConfig::default()
    }
}

/// Polls `cond` (the service's own counters) until it holds.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "never happened: {what}"
        );
        std::thread::yield_now();
    }
}

/// Lost-wake hammer across the slot: one closed-loop caller, one worker,
/// 10⁵ calls with a 60 s deadline. Every 2 048th call is preceded by a
/// varying 0–6 ms pause — the waiter's yield budget is about 3 ms alone on
/// a core — which walks the post across the worker's yield → announce →
/// re-check → park transitions; every 16 384th instead waits until the
/// worker *has* parked (on one core, beside `rinval-v2`'s three yielding
/// servers, 6 ms is not enough to get there). The answer to a *parked
/// caller* is `slot.rs`'s unit test and
/// `service::busy_client_slot_is_waited_for_not_refused`. A lost wake stalls
/// one call for the 1 s park bound: no call may take half of that, and the
/// run has to fit in 60 s.
#[test]
fn ping_pong_never_loses_a_wake() {
    let _serial = serial();
    const CALLS: u64 = 100_000;
    const BOUND: Duration = Duration::from_secs(60);
    for kind in [
        AlgorithmKind::NOrec,
        AlgorithmKind::RInvalV2 { invalidators: 2 },
    ] {
        let stm = Stm::builder(kind).heap_words(1 << 14).build();
        let bank = bank::BankService::setup(&stm, 16, 1_000_000);
        let t0 = Instant::now();
        let (slowest, stats) = serve(&stm, &bank, &config(1, 1), |front| {
            let mut rng = 0x9E37_79B9_7F4A_7C15u64;
            let mut slowest = Duration::ZERO;
            for key in 1..=CALLS {
                if key % 16384 == 0 {
                    let parks = front.stats().worker_parks;
                    eventually("the idle worker parks", || {
                        front.stats().worker_parks > parks
                    });
                } else if key % 2048 == 0 {
                    rng = rinval::sync::mix64(rng.wrapping_add(key));
                    // Sleep, not spin: on one core a spinning caller would
                    // keep the worker from ever reaching its park.
                    std::thread::sleep(Duration::from_micros(rng % 6000));
                }
                let posted = Instant::now();
                assert_eq!(front.call(transfer(0, key), BOUND), Ok(1), "{kind:?}");
                slowest = slowest.max(posted.elapsed());
            }
            assert_eq!(front.applied_ops(0), CALLS, "{kind:?}");
            (slowest, front.stats())
        });
        assert!(
            slowest < Duration::from_millis(500) && t0.elapsed() < BOUND,
            "{kind:?}: a wake was lost: slowest call {slowest:?}, run {:?}: {stats:?}",
            t0.elapsed()
        );
        assert!(
            stats.worker_parks > 0 && stats.wakes_sent > 0,
            "{kind:?}: the hammer never reached the park path: {stats:?}"
        );
        assert_eq!(stats.client_timeouts, 0, "{kind:?}: {stats:?}");
        bank.verify(&stm)
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
    }
}

/// Oversubscribed as the normal case: 8 closed-loop callers on 2 workers
/// (plus `rinval-v2`'s three server threads), whatever the core count.
/// Every call is answered and the exactly-once ledger balances per client.
#[test]
fn oversubscribed_clients_are_all_answered() {
    let _serial = serial();
    const CLIENTS: u64 = 8;
    const CALLS: u64 = 2_000;
    for kind in [
        AlgorithmKind::NOrec,
        AlgorithmKind::RInvalV2 { invalidators: 2 },
    ] {
        let stm = Stm::builder(kind).heap_words(1 << 14).build();
        let bank = bank::BankService::setup(&stm, 16, 1_000_000);
        serve(&stm, &bank, &config(2, CLIENTS), |front| {
            std::thread::scope(|s| {
                for c in 0..CLIENTS {
                    s.spawn(move || {
                        for key in 1..=CALLS {
                            let got = front.call(transfer(c, key), Duration::from_secs(30));
                            assert_eq!(got, Ok(1), "{kind:?}: client {c} key {key}");
                        }
                    });
                }
            });
            for c in 0..CLIENTS {
                assert_eq!(front.applied_ops(c), CALLS, "{kind:?}: client {c}");
            }
            let stats = front.stats();
            assert_eq!(stats.accepted, CLIENTS * CALLS, "{kind:?}: {stats:?}");
            assert_eq!(
                (stats.client_timeouts, stats.late_replies, stats.dedup_hits),
                (0, 0, 0),
                "{kind:?}: {stats:?}"
            );
        });
        bank.verify(&stm)
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
    }
}

/// The hot path never parks: one caller issuing transfers back to back
/// keeps itself and its worker inside their spin/yield budgets. (A futex
/// wake of an idle vCPU costs tens of microseconds; the Mutex+Condvar
/// mailbox paid two per call.)
#[test]
fn hot_path_never_parks() {
    let _serial = serial();
    const CALLS: u64 = 20_000;
    let stm = Stm::builder(AlgorithmKind::NOrec)
        .heap_words(1 << 14)
        .build();
    let bank = bank::BankService::setup(&stm, 16, 1_000_000);
    serve(&stm, &bank, &config(1, 1), |front| {
        assert_eq!(front.call(transfer(0, 1), Duration::from_secs(30)), Ok(1));
        let before = front.stats();
        for key in 2..=CALLS {
            assert_eq!(front.call(transfer(0, key), Duration::from_secs(30)), Ok(1));
        }
        let st = front.stats();
        let parks = st.caller_parks + st.worker_parks - before.caller_parks - before.worker_parks;
        assert!(
            parks <= CALLS / 100,
            "{parks} parks in {CALLS} calls: {st:?}"
        );
    });
}

/// An idle service parks every worker (the park bound is a second, so the
/// parks below are not timeouts), and `serve` returns at once when the
/// closure does: shutdown wakes the sleepers instead of sitting a park out.
#[test]
fn idle_service_parks_and_shuts_down_at_once() {
    let _serial = serial();
    let stm = Stm::builder(AlgorithmKind::NOrec)
        .heap_words(1 << 14)
        .build();
    let bank = bank::BankService::setup(&stm, 16, 1_000);
    let cfg = config(4, 8);
    let closed = serve(&stm, &bank, &cfg, |front| {
        assert_eq!(front.call(transfer(0, 1), Duration::from_secs(30)), Ok(1));
        eventually("idle workers park", || {
            front.stats().worker_parks >= cfg.workers as u64
        });
        std::thread::sleep(Duration::from_millis(50));
        // Asleep, not polling: at most the parks that were already under way.
        let st = front.stats();
        assert!(st.worker_parks <= 2 * cfg.workers as u64, "{st:?}");
        // And a parked worker is woken by the next post.
        let t0 = Instant::now();
        assert_eq!(front.call(transfer(0, 2), Duration::from_secs(30)), Ok(1));
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "{:?}",
            t0.elapsed()
        );
        assert!(front.stats().wakes_sent > st.wakes_sent);
        eventually("the woken worker parks again", || {
            front.stats().worker_parks > st.worker_parks
        });
        Instant::now()
    });
    assert!(
        closed.elapsed() < Duration::from_millis(500),
        "a park was sat out at shutdown: {:?}",
        closed.elapsed()
    );
}

/// A read endpoint that wedges its worker for `args[0]` milliseconds.
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

/// A caller parked on a slot no worker will claim in time — the one worker
/// is wedged on another client's request — is withdrawn at its deadline,
/// not at its park bound: the slot is free again, nothing of the call is
/// left for the worker to find, and the retry is admitted and served.
#[test]
fn parked_caller_is_withdrawn_at_its_deadline() {
    let _serial = serial();
    const DEADLINE: Duration = Duration::from_millis(100);
    let nap = |client: u64, ms: u64| Request {
        client,
        key: 0,
        endpoint: 0,
        args: [ms, 0, 0, 0],
    };
    let stm = Stm::builder(AlgorithmKind::NOrec)
        .heap_words(1 << 12)
        .build();
    serve(&stm, &Sleepy, &config(1, 2), |front| {
        std::thread::scope(|s| {
            let wedge = s.spawn(move || front.call(nap(0, 400), Duration::from_secs(30)));
            // Posted first and on the lower bit, so the worker — whose walk
            // starts at bit 0 — claims the wedge before the call below.
            eventually("the wedge is posted", || front.stats().accepted == 1);
            let t0 = Instant::now();
            assert_eq!(front.call(nap(1, 0), DEADLINE), Err(SvcError::Timeout));
            let took = t0.elapsed();
            assert!(took >= DEADLINE && took < DEADLINE * 3, "{took:?}");
            let st = front.stats();
            assert!(st.caller_parks >= 1, "the caller never parked: {st:?}");
            assert_eq!(st.accepted, 2, "{st:?}");
            // Withdrawn, so the retry is admitted, and served after the nap…
            assert_eq!(front.call(nap(1, 0), Duration::from_secs(30)), Ok(0));
            assert_eq!(wedge.join().unwrap(), Ok(0));
            // …and the worker never saw the withdrawn copy: two executions.
            let st = front.stats();
            assert_eq!(
                (st.executed_reads, st.expired_on_dequeue, st.late_replies),
                (2, 0, 0),
                "{st:?}"
            );
        });
    });
}

#[cfg(feature = "failpoints")]
mod injected {
    use super::*;
    use rinval::faults::site;
    use rinval::FaultAction;

    /// A worker that exits (`svc.mailbox.pop=exit`) or panics
    /// (`svc.reply.pre=panic`) with the request in hand marks the slot lost
    /// on its way out: five deaths in a row on one client id, and every
    /// retry is still admitted — no slot leaks — and every operation
    /// resolves exactly once.
    #[test]
    fn worker_dying_with_the_request_in_hand_never_leaks_a_slot() {
        let _serial = serial();
        const DEADLINE: Duration = Duration::from_millis(100);
        const DEATHS: u64 = 5;
        for (fault, action) in [
            (site::SVC_MAILBOX_POP, FaultAction::Exit),
            (site::SVC_REPLY_PRE, FaultAction::Panic),
        ] {
            let stm = Stm::builder(AlgorithmKind::NOrec)
                .heap_words(1 << 14)
                .build();
            let bank = bank::BankService::setup(&stm, 16, 1_000);
            stm.faults().arm(fault, action, Some(DEATHS as u32));
            serve(&stm, &bank, &config(1, 1), |front| {
                // `pop` kills the first five claims, all of key 1;
                // `reply.pre` fires on fresh applies only, so it kills the
                // first try of each of five keys (the retry is a dedup hit).
                let t0 = Instant::now();
                let mut tries = 0;
                for key in 1..=DEATHS {
                    let got = loop {
                        tries += 1;
                        match front.call(transfer(0, key), DEADLINE) {
                            Err(SvcError::Timeout) => continue,
                            other => break other,
                        }
                    };
                    assert_eq!(got, Ok(1), "site {fault}, key {key}");
                }
                // A lost reply surfaces only as `Timeout`, at the deadline.
                assert!(t0.elapsed() >= DEADLINE * DEATHS as u32, "site {fault}");
                let st = front.stats();
                assert_eq!(tries, 2 * DEATHS, "site {fault}: {st:?}");
                assert_eq!(
                    st.accepted, tries,
                    "site {fault}: a retry was refused: {st:?}"
                );
                assert_eq!(
                    (st.worker_deaths, st.client_timeouts, st.late_replies),
                    (DEATHS, DEATHS, 0),
                    "site {fault}: {st:?}"
                );
                assert_eq!(front.applied_ops(0), DEATHS, "site {fault}");
                // The slot is free: the next key goes straight through.
                assert_eq!(front.call(transfer(0, DEATHS + 1), DEADLINE), Ok(1));
            });
            bank.verify(&stm)
                .unwrap_or_else(|e| panic!("site {fault}: {e}"));
        }
    }
}
