//! Bounded per-worker mailboxes and one-shot reply slots.
//!
//! The mailbox is the admission boundary of the service: a full queue
//! rejects at the door ([`Mailbox::try_push`] fails, the front-end answers
//! `RetryAfter`) instead of queueing without bound — queue depth is the
//! one resource a closed-loop client cannot protect on its own, and an
//! unbounded queue converts overload into unbounded latency for everyone
//! behind it.
//!
//! The reply slot is a one-shot channel with an *abandonment* protocol:
//! when the client's deadline fires it marks the slot `Abandoned` and
//! walks away; a worker that finishes the request later delivers into the
//! abandoned slot, which drops the value (counted as a late reply) instead
//! of blocking or leaking. This is what makes a lost reply safe: the
//! operation may well have committed, and the client's retry of the same
//! idempotency key is answered from the dedup window (DESIGN.md §16).

use crate::{Request, SvcError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One queued request: payload, absolute deadline, reply channel.
pub(crate) struct Envelope {
    pub(crate) req: Request,
    pub(crate) deadline: Instant,
    pub(crate) reply: Arc<ReplySlot>,
}

/// A bounded MPSC queue feeding one worker.
pub(crate) struct Mailbox {
    q: Mutex<VecDeque<Envelope>>,
    cv: Condvar,
    cap: usize,
}

impl Mailbox {
    pub(crate) fn new(cap: usize) -> Mailbox {
        Mailbox {
            q: Mutex::new(VecDeque::with_capacity(cap)),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueues unless the mailbox is full; a full mailbox returns the
    /// envelope so the caller can reject it immediately.
    pub(crate) fn try_push(&self, env: Envelope) -> Result<(), Envelope> {
        let mut q = self.q.lock().unwrap();
        if q.len() >= self.cap {
            return Err(env);
        }
        q.push_back(env);
        drop(q);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks until an envelope is available or `shutdown` is observed
    /// (returns `None` — remaining envelopes are left for [`drain`]).
    ///
    /// [`drain`]: Mailbox::drain
    pub(crate) fn pop(&self, shutdown: &AtomicBool) -> Option<Envelope> {
        let mut q = self.q.lock().unwrap();
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(env) = q.pop_front() {
                return Some(env);
            }
            q = self.cv.wait(q).unwrap();
        }
    }

    /// Wakes a blocked [`pop`](Mailbox::pop) so it can observe shutdown.
    ///
    /// Takes (and immediately releases) the queue lock first: `pop` checks
    /// the shutdown flag under that lock before entering `wait`, so an
    /// unlocked notify could land in the gap between a worker's check and
    /// its wait and be lost — the worker would then block forever, since no
    /// further pushes arrive after shutdown. Holding the lock orders this
    /// wake strictly after any in-progress check-then-wait.
    pub(crate) fn notify(&self) {
        drop(self.q.lock().unwrap());
        self.cv.notify_all();
    }

    /// Takes everything still queued (shutdown path).
    pub(crate) fn drain(&self) -> Vec<Envelope> {
        self.q.lock().unwrap().drain(..).collect()
    }
}

enum ReplyState {
    Waiting,
    Done(Result<u64, SvcError>),
    Abandoned,
}

/// One-shot reply channel with client-side abandonment.
pub(crate) struct ReplySlot {
    state: Mutex<ReplyState>,
    cv: Condvar,
}

impl ReplySlot {
    pub(crate) fn new() -> ReplySlot {
        ReplySlot {
            state: Mutex::new(ReplyState::Waiting),
            cv: Condvar::new(),
        }
    }

    /// Worker side: delivers the outcome. Returns `false` if the client
    /// already abandoned the slot (the value is dropped — a late reply).
    pub(crate) fn deliver(&self, outcome: Result<u64, SvcError>) -> bool {
        let mut st = self.state.lock().unwrap();
        match *st {
            ReplyState::Waiting => {
                *st = ReplyState::Done(outcome);
                drop(st);
                self.cv.notify_one();
                true
            }
            ReplyState::Abandoned => false,
            // One envelope, one worker, one verdict: double delivery is a
            // service-layer bug, not a client-visible condition.
            ReplyState::Done(_) => unreachable!("svc: reply delivered twice"),
        }
    }

    /// Client side: waits until delivery or `deadline`. A deadline miss
    /// marks the slot abandoned and reports `Timeout`.
    pub(crate) fn wait(&self, deadline: Instant) -> Result<u64, SvcError> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let ReplyState::Done(outcome) = &*st {
                return *outcome;
            }
            let now = Instant::now();
            if now >= deadline {
                *st = ReplyState::Abandoned;
                return Err(SvcError::Timeout);
            }
            let (g, _) = self.cv.wait_timeout(st, deadline - now).unwrap();
            st = g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn env(key: u64) -> Envelope {
        Envelope {
            req: Request {
                client: 0,
                key,
                endpoint: 0,
                args: [0; 4],
            },
            deadline: Instant::now() + Duration::from_secs(1),
            reply: Arc::new(ReplySlot::new()),
        }
    }

    #[test]
    fn full_mailbox_rejects_at_the_door() {
        let mb = Mailbox::new(2);
        assert!(mb.try_push(env(1)).is_ok());
        assert!(mb.try_push(env(2)).is_ok());
        let back = mb.try_push(env(3)).unwrap_err();
        assert_eq!(back.req.key, 3);
        let stop = AtomicBool::new(false);
        assert_eq!(mb.pop(&stop).unwrap().req.key, 1);
        assert!(mb.try_push(env(3)).is_ok());
        assert_eq!(mb.drain().len(), 2);
    }

    #[test]
    fn abandoned_slot_drops_late_reply() {
        let slot = ReplySlot::new();
        // Deadline already passed: the wait abandons immediately.
        assert_eq!(slot.wait(Instant::now()), Err(SvcError::Timeout));
        assert!(!slot.deliver(Ok(7)), "late reply not dropped");
    }

    #[test]
    fn delivery_wakes_waiter() {
        let slot = Arc::new(ReplySlot::new());
        let s2 = slot.clone();
        let t = std::thread::spawn(move || s2.wait(Instant::now() + Duration::from_secs(5)));
        assert!(slot.deliver(Ok(42)), "waiter still present, must deliver");
        assert_eq!(t.join().unwrap(), Ok(42));
    }
}
