//! `svc_bank`: the bank service behind `svc::serve`, one worker, one
//! closed-loop client that times every `Frontend::call` itself.
//!
//! One client and one worker is the steadiest shape on a 2-core host — two
//! of each, or a paced open loop, flip between a ~3 µs mode (the worker
//! never sleeps) and a ~40 µs mode (every request pays a Condvar wake) from
//! window to window — and even it settles into one mode or the other for a
//! whole run, which is why this workload is measured but not gated.

use crate::harness::{drive, timed_setup, Client, Entry, Instance, Plan};
use crate::span::{Name, Recorder};
use crate::workloads::{Mode, Outcome};
use rinval::{PhaseStats, Stm, TxResult, Txn};
use stamp::SplitMix;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use svc::bank::{BankService, EP_AUDIT, EP_BALANCE, EP_TRANSFER};
use svc::{EndpointDesc, Frontend, Request, SvcConfig, SvcError, Workload};

const ACCOUNTS: u64 = 256;
const INITIAL: u64 = 10_000;
const DEADLINE: Duration = Duration::from_millis(500);
/// A failed call is retried with the same idempotency key this many times
/// before the client gives the request up (which fails the run's ledger).
const MAX_TRIES: u32 = 8;

fn svc_config(disable_dedup: bool) -> SvcConfig {
    SvcConfig {
        workers: 1,
        clients: 1,
        // Far above any latency this shape produces, so the admission gate
        // sheds only when the host stalls the worker for a quarter second.
        slo_p99: Duration::from_millis(250),
        disable_dedup,
        ..SvcConfig::default()
    }
}

/// `BankService` with a span around every `apply`/`query`, recorded on the
/// worker's thread and keyed by the request sequence number the client
/// put in `args[3]` (which the bank endpoints do not read).
struct SpannedBank<'a> {
    inner: &'a BankService,
    rec: Mutex<Recorder>,
    recording: AtomicBool,
}

impl SpannedBank<'_> {
    fn spanned(
        &self,
        name: Name,
        req: &Request,
        f: impl FnOnce() -> TxResult<u64>,
    ) -> TxResult<u64> {
        if !self.recording.load(Ordering::Relaxed) {
            return f();
        }
        // One worker, so the lock is never contended; a worker that
        // panicked mid-span leaves only a span without an end behind.
        let open =
            self.rec
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .begin(name, req.args[3], None);
        let r = f();
        self.rec.lock().unwrap_or_else(|e| e.into_inner()).end(open);
        r
    }
}

impl Workload for SpannedBank<'_> {
    fn endpoints(&self) -> &'static [EndpointDesc] {
        self.inner.endpoints()
    }
    fn apply(&self, tx: &mut Txn<'_>, req: &Request) -> TxResult<u64> {
        self.spanned(Name::SvcApply, req, || self.inner.apply(tx, req))
    }
    fn query(&self, tx: &mut Txn<'_>, req: &Request) -> TxResult<u64> {
        self.spanned(Name::SvcQuery, req, || self.inner.query(tx, req))
    }
    fn verify(&self, stm: &Stm) -> Result<(), String> {
        self.inner.verify(stm)
    }
}

/// What the client saw, for the gate and the per-layer numbers.
#[derive(Default)]
pub struct SvcTally {
    /// `Frontend::call` invocations, retries included.
    pub calls: u64,
    pub retry_after: u64,
    pub timeouts: u64,
    pub shutdowns: u64,
    /// Transfers acknowledged with a value.
    pub acked_writes: u64,
    /// Requests abandoned after `MAX_TRIES` failures.
    pub given_up: u64,
    pub wrong_answers: u64,
    /// `balance` latencies inside measured windows, ns.
    pub balance_ns: Vec<f64>,
    /// The same `Workload::apply` run through `ThreadHandle::run` with no
    /// service in front, ns per transfer (traced runs only).
    pub direct_transfer_ns: Vec<f64>,
}

impl SvcTally {
    pub fn failed(&self) -> u64 {
        self.retry_after + self.timeouts + self.shutdowns
    }
}

struct BankClient<'f, 's, 'a> {
    fe: &'f Frontend<'s, 'a>,
    /// The worker-side wrapper's switch: it keeps spans only while the
    /// client is inside a measured window.
    worker_recording: Option<&'f AtomicBool>,
    rng: SplitMix,
    rec: Option<Recorder>,
    next_key: u64,
    seq: u64,
    tally: SvcTally,
}

fn transfer_args(rng: &mut SplitMix, seq: u64) -> [u64; 4] {
    [
        rng.below(ACCOUNTS),
        rng.below(ACCOUNTS),
        1 + rng.below(50),
        seq,
    ]
}

impl Client for BankClient<'_, '_, '_> {
    type Done = (SvcTally, Option<Recorder>);

    fn step(&mut self, _timed: bool, recording: bool) -> Option<u64> {
        let seq = self.seq;
        self.seq += 1;
        let kind = self.rng.below(100);
        let (endpoint, args, name) = if kind < 50 {
            (
                EP_TRANSFER,
                transfer_args(&mut self.rng, seq),
                Name::SvcCallTransfer,
            )
        } else if kind < 95 {
            (
                EP_BALANCE,
                [self.rng.below(ACCOUNTS), 0, 0, seq],
                Name::SvcCallBalance,
            )
        } else {
            (EP_AUDIT, [0, 0, 0, seq], Name::SvcCallAudit)
        };
        let is_write = endpoint == EP_TRANSFER;
        let req = Request {
            client: 0,
            key: if is_write { self.next_key } else { 0 },
            endpoint,
            args,
        };
        if let Some(flag) = self.worker_recording {
            flag.store(recording, Ordering::Relaxed);
        }
        let span = match self.rec.as_mut().filter(|_| recording) {
            Some(rec) => rec.begin(name, seq, None),
            None => None,
        };
        let t0 = Instant::now();
        let mut reply = None;
        for attempt in 0..MAX_TRIES {
            self.tally.calls += 1;
            match self.fe.call(req, DEADLINE) {
                Ok(v) => {
                    reply = Some(v);
                    break;
                }
                Err(SvcError::RetryAfter) => {
                    self.tally.retry_after += 1;
                    // Shed load is told to back off: 1, 2, 4 … ms, in sum
                    // longer than the 100 ms a latency breach sheds for.
                    std::thread::sleep(Duration::from_millis(1 << attempt));
                }
                Err(SvcError::Timeout) => self.tally.timeouts += 1,
                Err(SvcError::Shutdown) => self.tally.shutdowns += 1,
            }
        }
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(rec) = self.rec.as_mut() {
            rec.end(span);
        }
        let Some(v) = reply else {
            self.tally.given_up += 1;
            return None;
        };
        let plausible = match endpoint {
            EP_TRANSFER => {
                self.next_key += 1;
                self.tally.acked_writes += 1;
                v == 0 || v == args[2]
            }
            // An opaque STM shows every audit the conserved total.
            EP_AUDIT => v == ACCOUNTS * INITIAL,
            _ => v <= ACCOUNTS * INITIAL,
        };
        self.tally.wrong_answers += u64::from(!plausible);
        match endpoint {
            EP_TRANSFER => Some(ns),
            EP_BALANCE if recording => {
                self.tally.balance_ns.push(ns as f64);
                None
            }
            _ => None,
        }
    }

    fn finish(self) -> Self::Done {
        (self.tally, self.rec)
    }
}

/// Spans kept per thread in a traced run.
const SPANS: usize = 1 << 20;

/// Runs one lineup entry on `svc_bank`. `disable_dedup` exists for the
/// dedup-surcharge probe only.
pub fn run_engine(
    entry: &Entry,
    plan: &Plan,
    seed: u64,
    mode: Mode,
    disable_dedup: bool,
) -> Result<Outcome, String> {
    let traced = mode.spans;
    let (inst, bank, setup_s) = timed_setup(|| {
        let inst = Instance::build(entry.kind, |b| {
            b.heap_words(1 << 18).latency_histogram(traced)
        });
        let bank = BankService::setup(&inst, ACCOUNTS, INITIAL);
        (inst, bank)
    });
    let spanned = traced.then(|| SpannedBank {
        inner: &bank,
        rec: Mutex::new(Recorder::with_capacity(SPANS)),
        recording: AtomicBool::new(false),
    });
    let workload: &dyn Workload = match &spanned {
        Some(s) => s,
        None => &bank,
    };
    let (heap0, server0) = (inst.heap_stats(), inst.server_stats());
    let mut seeds = SplitMix::new(seed ^ 0x5CBA);
    let client_rng = seeds.split();

    let served = svc::serve(&inst, workload, &svc_config(disable_dedup), |fe| {
        let (win, mut done) = drive(1, plan, |_| BankClient {
            fe,
            worker_recording: spanned.as_ref().map(|s| &s.recording),
            rng: client_rng.clone(),
            rec: traced.then(|| Recorder::with_capacity(SPANS)),
            next_key: 1,
            seq: 0,
            tally: SvcTally::default(),
        });
        let (tally, rec) = done.pop().expect("one client ran");
        // The exactly-once ledger, read with the worker idle: what the
        // service applied for this client is what the client saw acked.
        let applied = fe.applied_ops(0);
        (win, tally, rec, applied)
    });
    let (win, mut tally, client_rec, applied) = served;
    let (heap1, server1) = (inst.heap_stats(), inst.server_stats());

    let name = entry.name();
    if inst.is_degraded() {
        return Err(format!("{name}: instance degraded to InvalSTM mid-run"));
    }
    bank.verify(&inst).map_err(|e| format!("{name}: {e}"))?;
    if applied != tally.acked_writes {
        return Err(format!(
            "{name}: exactly-once ledger broken: service applied {applied} writes, client saw {} acknowledged",
            tally.acked_writes
        ));
    }
    if tally.given_up != 0 || tally.wrong_answers != 0 {
        return Err(format!(
            "{name}: {} requests given up after {MAX_TRIES} tries, {} implausible replies",
            tally.given_up, tally.wrong_answers
        ));
    }

    if traced {
        // The direct-call baseline for the latency budget: the very same
        // `apply`, no mailbox, no dedup row, no reply slot.
        let mut th = inst.register_thread();
        let mut rng = seeds.split();
        let started = Instant::now();
        for i in 0..20_000u64 {
            if started.elapsed() > plan.window / 2 {
                break;
            }
            let req = Request {
                client: 0,
                key: 0,
                endpoint: EP_TRANSFER,
                args: transfer_args(&mut rng, i),
            };
            let t0 = Instant::now();
            std::hint::black_box(th.run(|tx| bank.apply(tx, &req)));
            tally
                .direct_transfer_ns
                .push(t0.elapsed().as_nanos() as f64);
        }
        drop(th);
        bank.verify(&inst)
            .map_err(|e| format!("{name}: after direct transfers: {e}"))?;
    }

    let mut recorders = Vec::new();
    recorders.extend(client_rec.map(|r| (format!("{name} client"), r)));
    if let Some(s) = spanned {
        let rec = s.rec.into_inner().unwrap_or_else(|e| e.into_inner());
        recorders.push((format!("{name} worker"), rec));
    }
    Ok(Outcome {
        win,
        setup_s,
        attempted: tally.calls,
        failed: tally.failed(),
        stats: PhaseStats::default(),
        recorders,
        heap: (heap0, heap1),
        server: server1.since(&server0),
        svc: Some(tally),
    })
}
