//! The waiting discipline (DESIGN.md §12): spin → yield → park behind a
//! sleeper flag, at the primitive and through the three protocol waits.
//!
//! What is certified here, on every remote kind of
//! [`AlgorithmKind::all`]:
//!
//! * no wake is ever lost (a lost wake would cost a whole park bound, and
//!   the bounds below are seconds while the assertions are far tighter);
//! * oversubscription is the normal case — more threads than cores must
//!   answer every commit (CI's `oversubscribed` job runs this whole file
//!   again under `taskset -c 0`, one core for everything);
//! * an idle instance really sleeps, wakes for its next commit and shuts
//!   down at once;
//! * the hot path never parks.
//!
//! Every test takes [`serial`]: several of them read the park counters of
//! a timed run, and a sibling test's nine threads on the same two cores
//! would turn "idle" and "hot" into matters of scheduling luck.

use rinval::sync::{Sleeper, Waiter};
use rinval::{AlgorithmKind, Stm, WatchdogConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn remote_kinds() -> impl Iterator<Item = AlgorithmKind> {
    AlgorithmKind::all(2, 2)
        .into_iter()
        .filter(AlgorithmKind::is_remote)
}

/// Servers park for up to `bound` and no watchdog thread runs — so nothing
/// but a wake ends a park early, and nothing but the servers is joined by
/// `Stm::drop`.
fn unsupervised(bound: Duration) -> WatchdogConfig {
    WatchdogConfig {
        interval: bound,
        enabled: false,
        ..WatchdogConfig::default()
    }
}

fn increment(th: &mut rinval::ThreadHandle<'_>, c: rinval::Handle) {
    th.run(|tx| {
        let v = tx.read(c)?;
        tx.write(c, v + 1)
    });
}

/// Polls `cond` (the instance's own counters) until it holds.
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

/// (a) Lost-wake hammer on the primitive alone: two threads pass a turn
/// counter back and forth a million times, each parking — with a 60 s
/// bound — whenever the other is slow. Every 2048th hand-off is delayed by
/// a varying 0–6 ms sleep — the waiter's yield budget is about 3 ms — which
/// walks the post across the waiter's yield → announce → re-check → park
/// transitions. A single lost wake would stall
/// a round for the full bound; the whole run has to fit in half of it.
#[test]
fn ping_pong_never_loses_a_wake() {
    let _serial = serial();
    const ROUNDS: u64 = 1_000_000;
    const BOUND: Duration = Duration::from_secs(60);
    let turn = AtomicU64::new(0);
    let sleepers = [Sleeper::default(), Sleeper::default()];
    let parks = AtomicU64::new(0);
    let wakes = AtomicU64::new(0);

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for me in 0..2u64 {
            let (turn, sleepers, parks, wakes) = (&turn, &sleepers, &parks, &wakes);
            s.spawn(move || {
                let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ me;
                let mut n = me;
                while n < ROUNDS {
                    let mut w = Waiter::new(&sleepers[me as usize], BOUND, None, parks);
                    while turn.load(Ordering::SeqCst) != n {
                        w.pause();
                    }
                    drop(w);
                    if n % 2048 == me {
                        rng = rinval::sync::mix64(rng.wrapping_add(n));
                        // Sleep, not spin: on one core a spinning poster
                        // would keep the waiter from ever reaching its park.
                        std::thread::sleep(Duration::from_micros(rng % 6000));
                    }
                    turn.store(n + 1, Ordering::SeqCst);
                    if sleepers[1 - me as usize].wake() {
                        wakes.fetch_add(1, Ordering::Relaxed);
                    }
                    n += 2;
                }
            });
        }
    });
    let took = t0.elapsed();
    assert_eq!(turn.load(Ordering::SeqCst), ROUNDS);
    assert!(took < BOUND / 2, "a wake was lost: {took:?}");
    assert!(
        parks.load(Ordering::Relaxed) > 0 && wakes.load(Ordering::Relaxed) > 0,
        "the hammer never reached the park path"
    );
}

/// A sleeper follows its waiter: after one OS thread waited on it and
/// left, a second one parks on the same sleeper and is the one woken — a
/// respawned server seat, or a `ThreadHandle` that moved threads.
#[test]
fn sleeper_wakes_the_thread_that_waits_now() {
    let _serial = serial();
    const BOUND: Duration = Duration::from_secs(60);
    let sleeper = Sleeper::default();
    let parks = AtomicU64::new(0);
    let go = AtomicU64::new(0);
    let t0 = Instant::now();
    for generation in 1..=2u64 {
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w = Waiter::new(&sleeper, BOUND, None, &parks);
                while go.load(Ordering::SeqCst) < generation {
                    w.pause();
                }
            });
            eventually("waiter parked", || {
                parks.load(Ordering::Relaxed) >= generation
            });
            go.store(generation, Ordering::SeqCst);
            assert!(sleeper.wake(), "generation {generation} announced itself");
        });
    }
    assert!(t0.elapsed() < BOUND / 2, "woke a stale thread");
}

/// (b) Oversubscribed as the normal case: 6 clients on top of each remote
/// kind's servers (9 threads on `rinval-v2:2`), whatever the core count.
/// Every commit is answered and the protocol's own books balance.
#[test]
fn oversubscribed_clients_are_all_answered() {
    let _serial = serial();
    const CLIENTS: u64 = 6;
    const INCS: u64 = 2_000;
    for kind in remote_kinds() {
        let stm = Stm::builder(kind).heap_words(1 << 10).build();
        let shared = stm.alloc_init(&[0]);
        let own = stm.alloc(CLIENTS as usize);
        let commits: u64 = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS as u32)
                .map(|c| {
                    let stm = &stm;
                    s.spawn(move || {
                        let mut th = stm.register_thread();
                        for i in 0..INCS {
                            // Alternate a word everyone fights over with one
                            // nobody else touches: both conflict aborts and
                            // clean commits cross the servers.
                            increment(&mut th, if i % 2 == 0 { shared } else { own.field(c) });
                        }
                        th.take_stats().commits
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).sum()
        });

        assert_eq!(commits, CLIENTS * INCS, "{kind:?}");
        assert_eq!(stm.peek(shared), CLIENTS * INCS / 2, "{kind:?}");
        for c in 0..CLIENTS as u32 {
            assert_eq!(stm.peek(own.field(c)), INCS / 2, "{kind:?}");
        }
        let st = stm.server_stats();
        // One timestamp bump pair per commit, on every kind.
        assert_eq!(stm.timestamp(), 2 * commits, "{kind:?}: {st:?}");
        assert!(!stm.registry().pending().any_set(), "{kind:?}");
        assert!(!stm.is_degraded() && st.respawns == 0, "{kind:?}: {st:?}");
    }
}

/// (d) An idle instance parks every server seat (the bound is 60 s, so the
/// parks below are not timeouts), is woken by its next commit — which must
/// not wait out a bound — and `Stm::drop` wakes and joins the sleepers at
/// once.
#[test]
fn idle_instance_sleeps_wakes_and_shuts_down_at_once() {
    let _serial = serial();
    const BOUND: Duration = Duration::from_secs(60);
    for kind in remote_kinds() {
        let seats = 1 + kind.invalidators() as u64;
        let stm = Stm::builder(kind)
            .heap_words(1 << 10)
            .watchdog(unsupervised(BOUND))
            .build();
        let c = stm.alloc_init(&[0]);
        let mut th = stm.register_thread();
        let t0 = Instant::now();

        eventually("idle seats park", || {
            stm.server_stats().server_parks >= seats
        });
        let asleep = stm.server_stats();
        increment(&mut th, c);
        assert_eq!(stm.peek(c), 1, "{kind:?}");
        let served = stm.server_stats();
        assert!(
            served.wakes_sent > asleep.wakes_sent,
            "{kind:?}: the post did not wake the parked commit-server: {served:?}"
        );

        // Asleep again (every seat that woke re-parks), then shut down.
        eventually("seats park again", || {
            stm.server_stats().server_parks > served.server_parks
        });
        drop(th);
        drop(stm);
        assert!(
            t0.elapsed() < BOUND / 2,
            "{kind:?}: a park was sat out: {:?}",
            t0.elapsed()
        );
    }
}

/// The supervised flavour of (d): with the default watchdog polling every
/// 2 ms, an instance left idle for 50 ms parks its seats once per poll
/// interval at most and is never taken for stalled.
#[test]
fn idle_supervised_instance_accrues_no_heartbeat_misses() {
    let _serial = serial();
    for kind in remote_kinds() {
        let seats = 1 + kind.invalidators() as u64;
        let stm = Stm::builder(kind).heap_words(1 << 10).build();
        let c = stm.alloc_init(&[0]);
        let mut th = stm.register_thread();
        increment(&mut th, c);
        let before = stm.server_stats();
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(50) {
            std::thread::yield_now();
        }
        let idle = t0.elapsed();
        let st = stm.server_stats().since(&before);
        assert!(
            st.server_parks >= seats,
            "{kind:?}: idle seats never parked: {st:?}"
        );
        let polls = idle.as_micros() as u64 / WatchdogConfig::default().interval.as_micros() as u64;
        assert!(
            st.server_parks <= seats * (polls + 2),
            "{kind:?}: more than one park per bound and seat: {st:?} in {idle:?}"
        );
        assert_eq!(
            st.heartbeat_misses, 0,
            "{kind:?}: a parked idle seat counted as silent"
        );
        increment(&mut th, c);
        assert_eq!(stm.peek(c), 2, "{kind:?}");
        let t1 = Instant::now();
        drop(th);
        drop(stm);
        assert!(
            t1.elapsed() < Duration::from_millis(500),
            "{kind:?}: {:?}",
            t1.elapsed()
        );
    }
}

/// (e) The hot path never parks: one client issuing one-write commits back
/// to back keeps every server inside its spin/yield budget. (A futex wake
/// of an idle vCPU costs tens of microseconds; paying it per commit would
/// cost `rinval-v1` 10× its throughput.)
#[test]
fn hot_path_never_parks() {
    let _serial = serial();
    const COMMITS: u64 = 50_000;
    for kind in [
        AlgorithmKind::RInvalV1,
        AlgorithmKind::RInvalV2 { invalidators: 1 },
    ] {
        let stm = Stm::builder(kind).heap_words(1 << 10).build();
        let c = stm.alloc_init(&[0]);
        let mut th = stm.register_thread();
        increment(&mut th, c);
        let before = stm.server_stats();
        for _ in 1..COMMITS {
            increment(&mut th, c);
        }
        let st = stm.server_stats().since(&before);
        assert_eq!(stm.peek(c), COMMITS, "{kind:?}");
        let parks = st.server_parks + st.client_parks;
        assert!(
            parks <= COMMITS / 100,
            "{kind:?}: {parks} parks in {COMMITS} commits: {st:?}"
        );
    }
}

#[cfg(feature = "failpoints")]
mod injected {
    use super::*;
    use rinval::faults::{site, FaultAction};
    use rinval::TxError;

    /// (c) A client parked on its slot — the commit-server is stalled, so no
    /// verdict comes — is withdrawn by `try_run_for` at its deadline: the
    /// park bound is 60 s, the deadline 100 ms, and the park ends with the
    /// deadline, not the bound.
    #[test]
    fn parked_client_is_withdrawn_at_its_deadline() {
        let _serial = serial();
        const BOUND: Duration = Duration::from_secs(60);
        const DEADLINE: Duration = Duration::from_millis(100);
        for kind in remote_kinds() {
            let stm = Stm::builder(kind)
                .heap_words(1 << 10)
                .watchdog(unsupervised(BOUND))
                .build();
            let c = stm.alloc_init(&[0]);
            stm.faults()
                .arm(site::SERVER_COMMIT_STALL, FaultAction::Stall, None);
            let mut th = stm.register_thread();

            let t0 = Instant::now();
            let r = th.try_run_for(DEADLINE, |tx| {
                let v = tx.read(c)?;
                tx.write(c, v + 1)
            });
            let took = t0.elapsed();
            assert_eq!(r, Err(TxError::Timeout), "{kind:?}");
            assert!(took >= DEADLINE && took < BOUND / 2, "{kind:?}: {took:?}");
            let st = stm.server_stats();
            assert!(
                st.client_parks >= 1,
                "{kind:?}: the client never parked: {st:?}"
            );
            assert!(st.withdrawn_requests >= 1, "{kind:?}: {st:?}");
            assert!(!stm.registry().pending().any_set(), "{kind:?}");
            assert_eq!(stm.peek(c), 0, "{kind:?}: timed-out write leaked");

            // The stall cleared, the same handle is answered again.
            stm.faults().disarm(site::SERVER_COMMIT_STALL);
            increment(&mut th, c);
            assert_eq!(stm.peek(c), 1, "{kind:?}");
        }
    }

    /// A respawned seat republishes its thread before it parks: after an
    /// injected commit-server death the replacement goes idle and parks for
    /// up to 300 ms (the poll interval that also detected the death); the
    /// next post must reach *it* — a wake sent to the dead thread would
    /// leave the commit waiting out the park.
    #[test]
    fn respawned_seat_parks_and_is_woken() {
        let _serial = serial();
        const BOUND: Duration = Duration::from_millis(300);
        for kind in remote_kinds() {
            let seats = 1 + kind.invalidators() as u64;
            let stm = Stm::builder(kind)
                .heap_words(1 << 10)
                .watchdog(WatchdogConfig {
                    interval: BOUND,
                    ..WatchdogConfig::default()
                })
                .build();
            let c = stm.alloc_init(&[0]);
            let mut th = stm.register_thread();
            stm.faults()
                .arm(site::SERVER_COMMIT_DEATH, FaultAction::Exit, Some(1));
            increment(&mut th, c);
            let respawned = stm.server_stats();
            assert_eq!(respawned.respawns, 1, "{kind:?}");

            // Each invalidator re-parks once after the respawn's wake (the
            // lone client's commits are retired on its behalf, never handed
            // to it) and then sleeps; the park that completes the count is
            // the new seat 0's.
            eventually("replacement parks", || {
                stm.server_stats().server_parks >= respawned.server_parks + seats
            });
            let t0 = Instant::now();
            increment(&mut th, c);
            let took = t0.elapsed();
            assert!(
                took < BOUND / 2,
                "{kind:?}: commit sat out a park: {took:?}"
            );
            assert_eq!(stm.peek(c), 2, "{kind:?}");
            assert!(!stm.is_degraded(), "{kind:?}");
        }
    }
}
