//! Per-client call slots: the service's one client↔worker hand-off.
//!
//! This is the registry's request-slot substrate (paper §IV, Fig. 5;
//! `rinval::registry`): one cache-aligned slot per client id around one
//! [`ReqCell`], the caller waits on its own line, and each worker walks a
//! summary bitmap of the slots posted to it. Nothing is allocated per call
//! and nothing is queued — a client id has one call outstanding, so a
//! worker's backlog is at most ⌈clients / workers⌉ by construction.
//!
//! Post, claim, answer, withdraw and the owner's return to `FREE` are the
//! cell's edges (tabulated in `rinval::registry`); the door (`FILLING`),
//! *abandon* and *lost* are this module's own, three private values moved
//! with the same [`ReqCell::step`] / [`ReqCell::answer_from`]:
//!
//! ```text
//!            caller                     worker
//! FREE ──CAS──→ FILLING ──store──→ POSTED ──CAS──→ CLAIMED ──CAS──→ ANSWERED
//!  ↑                                 │ withdraw       │  │ abandon       │
//!  ├────────────── CAS ──────────────┘                │  └─CAS→ ABANDONED│
//!  ├──── caller, at its deadline ←── LOST ←──CAS──────┘            │     │
//!  ├──── worker: late answer, or claim dropped ────────────────────┘     │
//!  └──── caller, after reading the reply ────────────────────────────────┘
//! ```
//!
//! * **withdraw** — at its deadline the caller CASes `POSTED → FREE`;
//!   success proves no worker ever saw the request.
//! * **abandon** — the request is already claimed: the caller marks the
//!   slot and leaves with `Timeout`. The operation may well commit; the
//!   worker's answer finds `ABANDONED`, frees the slot and counts a late
//!   reply, and the retry of the same key is answered from the dedup
//!   window (DESIGN.md §16).
//! * **lost** — a [`Claim`] dropped without an answer (the worker exited
//!   or unwound with the request in hand, or a drill dropped the reply)
//!   tells the caller nobody will answer. The caller still waits out its
//!   deadline, so a lost reply surfaces only as `Timeout`, then frees the
//!   slot itself.
//!
//! Payload and reply are plain atomics written `Relaxed` and published by
//! the cell's `SeqCst` store or CAS that follows them. Waiting
//! is `rinval::sync`'s one discipline (spin → yield → park behind a
//! [`Sleeper`]); each poster pays its publishing store plus one load of
//! the flag — the waiter/poster pairs are tabulated in DESIGN.md §12.

use crate::stats::{bump, Counters};
use crate::{Request, SvcError};
use rinval::registry::{ReqCell, REQ_CLAIMED, REQ_COMMITTED, REQ_IDLE, REQ_PENDING};
use rinval::sync::{AtomicBitmap, CachePadded, Sleeper, Waiter};
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::time::{Duration, Instant};

const FREE: u32 = REQ_IDLE;
const POSTED: u32 = REQ_PENDING;
const ANSWERED: u32 = REQ_COMMITTED;
const CLAIMED: u32 = REQ_CLAIMED;
/// A caller won the door and is writing the payload. (A registry slot has
/// one owner and needs no such state; a client id may be shared by two
/// threads, which this CAS serializes.)
const FILLING: u32 = 6;
const ABANDONED: u32 = 7;
const LOST: u32 = 8;

/// Longest single park of a caller waiting for its answer or of an idle
/// worker. Each has one sleeper to itself and a poster that owes it a wake,
/// so the bound is a backstop only. A caller's park also never outlasts
/// its deadline.
const PARK_BOUND: Duration = Duration::from_secs(1);

/// Longest single park at the door. A [`Sleeper`] names one thread, and
/// any number of threads may share a client id: with one waiting (this
/// client's retry, or a second thread) every wake reaches it; with more,
/// a wake reaches the last to announce and the others re-check after this.
const DOOR_PARK_BOUND: Duration = Duration::from_millis(1);

/// `CallSlot::words`: `[key, endpoint, args × 4, deadline_ns]`, then the
/// reply `[tag, value]` — tag 0 is `Ok(value)`, tag `1 + e as u64` is
/// `Err(e)`, which [`ERRORS`] maps back.
const REPLY: usize = 7;
const ERRORS: [SvcError; 3] = [SvcError::RetryAfter, SvcError::Timeout, SvcError::Shutdown];
type Outcome = Result<u64, SvcError>;

#[derive(Default)]
struct CallSlot {
    /// The caller parks on it until it leaves `POSTED`/`CLAIMED`.
    req: ReqCell,
    /// Raised by a caller about to park until `req` is `FREE` again.
    door: Sleeper,
    words: [AtomicU64; REPLY + 2],
}

/// One worker's view: which of its clients' slots are posted.
struct Seat {
    /// Bit `client / workers` set ⇒ that slot may be `POSTED`. Set by the
    /// caller *after* its `POSTED` store, cleared by the worker *before*
    /// its claim CAS, so a bit can be stale but never missing.
    posted: AtomicBitmap,
    /// Raised by the worker about to park on `posted`.
    sleeper: Sleeper,
    /// Where the worker's round-robin walk of `posted` resumes (its own
    /// bookkeeping, `Relaxed`; it outlives a respawn).
    cursor: AtomicUsize,
}

/// Counts a wake that was sent — what a poster owes after its publishing
/// `SeqCst` store.
fn count_wake(c: &Counters, woke: bool) {
    if woke {
        bump(&c.wakes_sent);
    }
}

/// Every call slot and worker seat of one service instance; client `c`
/// is served by worker `c % workers`.
pub(crate) struct Slots {
    calls: Box<[CachePadded<CallSlot>]>,
    seats: Box<[CachePadded<Seat>]>,
    /// The service's clock: deadlines cross a slot (and latency windows
    /// are stamped) as nanoseconds since this instant.
    pub(crate) epoch: Instant,
    /// Set by [`Slots::shut_down`]; the supervisor reads it too.
    pub(crate) shutdown: AtomicBool,
}

impl Slots {
    pub(crate) fn new(clients: u64, workers: usize) -> Slots {
        let seat = |_| Seat {
            posted: AtomicBitmap::new((clients as usize).div_ceil(workers)),
            sleeper: Sleeper::default(),
            cursor: AtomicUsize::new(0),
        };
        Slots {
            calls: (0..clients).map(|_| CachePadded::default()).collect(),
            seats: (0..workers).map(seat).map(CachePadded::new).collect(),
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Caller side, the whole call: wait for the slot, post, wait for the
    /// answer, and take the withdraw / abandon / lost edge at `deadline`.
    pub(crate) fn call(&self, req: &Request, deadline: Instant, c: &Counters) -> Outcome {
        let slot = &*self.calls[req.client as usize];
        let workers = self.seats.len();
        let seat = &*self.seats[req.client as usize % workers];
        // The door. A slot that is not free is this client's previous,
        // timed-out call still in a worker's hands (or a second thread on
        // the same id): wait for it, as a FIFO would have queued behind it.
        let mut w = Waiter::new(&slot.door, DOOR_PARK_BOUND, Some(deadline), &c.caller_parks);
        while !slot.req.step(FREE, FILLING) {
            if w.is_yielding() && Instant::now() >= deadline {
                return Err(SvcError::Timeout);
            }
            w.pause();
        }
        drop(w); // lowers the door flag if it was ours to lower
        let ns = deadline.saturating_duration_since(self.epoch).as_nanos() as u64;
        let [a0, a1, a2, a3] = req.args;
        let payload = [req.key, req.endpoint as u64, a0, a1, a2, a3, ns];
        for (word, v) in slot.words.iter().zip(payload) {
            word.store(v, Relaxed);
        }
        slot.req.post(POSTED);
        seat.posted.set(req.client as usize / workers);
        count_wake(c, seat.sleeper.wake());
        bump(&c.accepted);
        let mut w = slot.req.waiter(PARK_BOUND, Some(deadline), &c.caller_parks);
        let answered = loop {
            let s = slot.req.state();
            if s == ANSWERED {
                break true;
            }
            if !w.is_yielding() || Instant::now() < deadline {
                w.pause();
            } else if slot
                .req
                .step(s, if s == CLAIMED { ABANDONED } else { FREE })
            {
                // Abandoned, or withdrawn (`POSTED`) / freed (`LOST`). A
                // failed CAS is the worker moving the slot: look again.
                break false;
            }
        };
        let out = if answered {
            let [tag, val] = [REPLY, REPLY + 1].map(|i| slot.words[i].load(Relaxed));
            slot.req.post(FREE);
            tag.checked_sub(1)
                .map_or(Ok(val), |e| Err(ERRORS[e as usize]))
        } else {
            Err(SvcError::Timeout)
        };
        // A second thread on this id may be parked at the door.
        count_wake(c, slot.door.wake());
        out
    }

    /// Worker side: waits until one of seat `w`'s slots is posted and
    /// claims it, round-robin so that no client id is served twice while
    /// another waits. `None` once the service is shut down (what is still
    /// posted is left for [`Slots::claim_posted`]).
    pub(crate) fn claim_next<'s>(&'s self, w: usize, c: &'s Counters) -> Option<Claim<'s>> {
        let seat = &*self.seats[w];
        let mut waiter = Waiter::new(&seat.sleeper, PARK_BOUND, None, &c.worker_parks);
        while !self.shutdown.load(SeqCst) {
            // The first posted bit at or after the cursor, else the first.
            let (posted, from) = (|| seat.posted.iter_set_bits(), seat.cursor.load(Relaxed));
            let Some(bit) = posted().find(|&b| b >= from).or_else(|| posted().next()) else {
                waiter.pause();
                continue;
            };
            seat.cursor.store(bit + 1, Relaxed);
            if let Some(claim) = self.claim(w, bit, c) {
                return Some(claim);
            }
        }
        None
    }

    /// Claims everything still posted (the supervisor's shutdown sweep,
    /// after the workers are joined).
    pub(crate) fn claim_posted<'s>(&'s self, c: &'s Counters) -> impl Iterator<Item = Claim<'s>> {
        let posted = |w: usize| {
            self.seats[w]
                .posted
                .iter_set_bits()
                .map(move |bit| (w, bit))
        };
        (0..self.seats.len())
            .flat_map(posted)
            .filter_map(move |(w, bit)| self.claim(w, bit, c))
    }

    /// Stops the workers: every [`Slots::claim_next`] returns `None` from
    /// here on, and the parked ones are owed a wake for it.
    pub(crate) fn shut_down(&self, c: &Counters) {
        self.shutdown.store(true, SeqCst);
        for seat in self.seats.iter() {
            count_wake(c, seat.sleeper.wake());
        }
    }

    fn claim<'s>(&'s self, w: usize, bit: usize, c: &'s Counters) -> Option<Claim<'s>> {
        self.seats[w].posted.clear(bit);
        let client = bit * self.seats.len() + w;
        let slot = &*self.calls[client];
        slot.req.step(POSTED, CLAIMED).then(|| {
            let [key, endpoint, a0, a1, a2, a3, ns] =
                std::array::from_fn(|i| slot.words[i].load(Relaxed));
            let (client, endpoint, args) = (client as u64, endpoint as u8, [a0, a1, a2, a3]);
            Claim {
                slot,
                counters: c,
                req: Request {
                    client,
                    key,
                    endpoint,
                    args,
                },
                deadline: self.epoch + Duration::from_nanos(ns),
                next: LOST,
            }
        })
    }
}

/// A claimed request in a worker's hands. Dropping it is what moves the
/// slot on — to `ANSWERED` if [`Claim::answer`] ran, to `LOST` otherwise —
/// so no exit from the worker, return or unwind, can leak a slot.
pub(crate) struct Claim<'s> {
    slot: &'s CallSlot,
    counters: &'s Counters,
    pub(crate) req: Request,
    pub(crate) deadline: Instant,
    next: u32,
}

impl Claim<'_> {
    /// The one place an outcome reaches a caller.
    pub(crate) fn answer(mut self, outcome: Outcome) {
        let (tag, val) = outcome.map_or_else(|e| (1 + e as u64, 0), |v| (0, v));
        self.slot.words[REPLY].store(tag, Relaxed);
        self.slot.words[REPLY + 1].store(val, Relaxed);
        self.next = ANSWERED;
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if let Some(woke) = self.slot.req.answer_from(CLAIMED, self.next) {
            return count_wake(self.counters, woke);
        }
        // ABANDONED: the caller left at its deadline, the slot is ours to
        // free — and this client's retry may be waiting at the door.
        if self.next == ANSWERED {
            bump(&self.counters.late_replies);
        }
        self.slot.req.post(FREE);
        count_wake(self.counters, self.slot.door.wake());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn req(key: u64) -> Request {
        Request {
            client: 0,
            key,
            endpoint: 3,
            args: [key, 2, 3, u64::MAX],
        }
    }

    fn in_secs(s: u64) -> Instant {
        Instant::now() + Duration::from_secs(s)
    }

    /// Every outcome crosses a slot unchanged (the reply tag leans on
    /// `SvcError`'s declaration order), and so does the request.
    #[test]
    fn request_and_every_outcome_round_trip() {
        let (slots, c) = (Slots::new(1, 1), Counters::default());
        let mut outcomes = vec![Ok(0), Ok(u64::MAX)];
        outcomes.extend(ERRORS.map(Err));
        for (key, outcome) in outcomes.into_iter().enumerate() {
            let deadline = in_secs(30);
            std::thread::scope(|s| {
                let caller = s.spawn(|| slots.call(&req(key as u64), deadline, &c));
                let claim = slots.claim_next(0, &c).unwrap();
                assert_eq!(claim.req, req(key as u64));
                // The deadline crosses as whole nanoseconds since `epoch`.
                assert!(deadline.duration_since(claim.deadline) < Duration::from_nanos(1));
                claim.answer(outcome);
                assert_eq!(caller.join().unwrap(), outcome);
            });
        }
        assert_eq!(c.snapshot().accepted, 5);
        assert_eq!(c.snapshot().late_replies, 0);
    }

    /// Abandon, then a late answer: the caller leaves with `Timeout` at its
    /// deadline, the worker's answer finds the slot abandoned, counts a late
    /// reply and frees the slot — the next call on the id is served.
    #[test]
    fn late_answer_frees_an_abandoned_slot_and_counts() {
        let (slots, c) = (Slots::new(1, 1), Counters::default());
        std::thread::scope(|s| {
            let caller =
                s.spawn(|| slots.call(&req(1), Instant::now() + Duration::from_millis(50), &c));
            let claim = slots.claim_next(0, &c).unwrap();
            assert_eq!(caller.join().unwrap(), Err(SvcError::Timeout));
            assert_eq!(slots.calls[0].req.state(), ABANDONED);
            claim.answer(Ok(7));
            assert_eq!(slots.calls[0].req.state(), FREE);
            assert_eq!(c.snapshot().late_replies, 1);

            let caller = s.spawn(|| slots.call(&req(2), in_secs(30), &c));
            slots.claim_next(0, &c).unwrap().answer(Ok(8));
            assert_eq!(caller.join().unwrap(), Ok(8));
        });
        assert_eq!(c.snapshot().late_replies, 1);
    }

    /// An answer wakes a caller that is *parked* on its slot — long before
    /// the park bound or the deadline would have.
    #[test]
    fn answer_wakes_a_parked_caller() {
        let (slots, c) = (Slots::new(1, 1), Counters::default());
        std::thread::scope(|s| {
            let caller = s.spawn(|| slots.call(&req(1), in_secs(60), &c));
            let claim = slots.claim_next(0, &c).unwrap();
            while c.caller_parks.load(Ordering::Relaxed) == 0 {
                std::thread::sleep(Duration::from_micros(100));
            }
            let wakes = c.snapshot().wakes_sent;
            let t0 = Instant::now();
            claim.answer(Ok(42));
            assert_eq!(caller.join().unwrap(), Ok(42));
            assert!(t0.elapsed() < PARK_BOUND / 2, "the park was sat out");
            assert_eq!(c.snapshot().wakes_sent, wakes + 1);
        });
    }

    /// Threads sharing a client id are serialized at the door, and none of
    /// them sits out a park: the worker holds every call long enough that
    /// the caller parks on the answer and the others park at the door, and
    /// each is woken when its turn comes.
    #[test]
    fn threads_sharing_a_client_id_are_served_in_turn_without_a_stall() {
        const THREADS: u64 = 3;
        const CALLS: u64 = 12;
        let (slots, c) = (&Slots::new(1, 1), &Counters::default());
        std::thread::scope(|s| {
            s.spawn(move || {
                while let Some(claim) = slots.claim_next(0, c) {
                    let parks = c.caller_parks.load(Ordering::Relaxed);
                    let t0 = Instant::now();
                    // Until the caller has parked (bounded: it might have
                    // parked already, at the door).
                    while c.caller_parks.load(Ordering::Relaxed) == parks
                        && t0.elapsed() < Duration::from_millis(100)
                    {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    let v = claim.req.key;
                    claim.answer(Ok(v));
                }
            });
            let callers: Vec<_> = (0..THREADS)
                .map(|t| {
                    s.spawn(move || {
                        let mut worst = Duration::ZERO;
                        for k in 0..CALLS {
                            let t0 = Instant::now();
                            let key = t * CALLS + k;
                            assert_eq!(slots.call(&req(key), in_secs(60), c), Ok(key));
                            worst = worst.max(t0.elapsed());
                        }
                        worst
                    })
                })
                .collect();
            let worst = callers
                .into_iter()
                .map(|h| h.join().unwrap())
                .max()
                .unwrap();
            slots.shut_down(c);
            // A turn is at most 100 ms and at most THREADS turns pass per
            // call; a slept-out park would add PARK_BOUND on top.
            assert!(worst < PARK_BOUND / 2, "a caller stalled for {worst:?}");
        });
        assert_eq!(c.snapshot().accepted, THREADS * CALLS);
        assert!(
            c.snapshot().caller_parks > 0,
            "the park path was not reached"
        );
    }

    /// The other three exits: a posted request nobody claimed is withdrawn
    /// at the deadline; a claim dropped unanswered is *lost* — the caller
    /// still gets `Timeout` only at its deadline, then frees the slot; and
    /// what is still posted at shutdown is answered `Shutdown`.
    #[test]
    fn withdrawn_lost_and_shut_down_slots_come_back_free() {
        let (slots, c) = (&Slots::new(1, 1), &Counters::default());
        let state = || slots.calls[0].req.state();
        let soon = || Instant::now() + Duration::from_millis(50);
        assert_eq!(slots.call(&req(1), soon(), c), Err(SvcError::Timeout));
        assert_eq!(state(), FREE, "withdrawn");
        // The withdrawn post left its bit behind: stale, and harmless.
        std::thread::scope(|s| {
            let deadline = soon();
            let caller = s.spawn(move || slots.call(&req(2), deadline, c));
            let claim = slots.claim_next(0, c).unwrap();
            assert_eq!(claim.req.key, 2);
            drop(claim);
            assert_eq!(caller.join().unwrap(), Err(SvcError::Timeout));
            assert!(Instant::now() >= deadline, "a lost reply surfaced early");
            assert_eq!(state(), FREE, "lost");

            let caller = s.spawn(move || slots.call(&req(3), in_secs(30), c));
            while state() != POSTED {
                std::thread::sleep(Duration::from_micros(100));
            }
            slots.shut_down(c);
            assert!(slots.claim_next(0, c).is_none(), "workers stop at once");
            for claim in slots.claim_posted(c) {
                claim.answer(Err(SvcError::Shutdown));
            }
            assert_eq!(caller.join().unwrap(), Err(SvcError::Shutdown));
            assert_eq!(state(), FREE, "shut down");
        });
        assert_eq!(c.snapshot().late_replies, 0);
    }
}
