//! The measurement rules every workload and probe goes through: the fixed
//! engine lineup, the one-instance-alive guard, the window plan and the
//! closed-loop window driver for workloads that call the STM directly.

use crate::span::{Name, Recorder};
use crate::stats::{median, Summary};
use rinval::{AlgorithmKind, PhaseStats, Stm, StmBuilder, ThreadHandle, TxResult, Txn};
use stamp::SplitMix;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One lineup entry: the engine and how many client threads drive it.
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    pub kind: AlgorithmKind,
    /// Closed-loop client threads. The serverless engines get one per
    /// core; the remote engines get one, because their server threads
    /// already occupy the other core(s) of the 2-core host this lineup is
    /// sized for.
    pub clients: usize,
}

impl Entry {
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }
}

/// The fixed lineup `E5`, in reporting order.
pub const E5: [Entry; 5] = [
    Entry {
        kind: AlgorithmKind::NOrec,
        clients: 2,
    },
    Entry {
        kind: AlgorithmKind::InvalStm,
        clients: 2,
    },
    Entry {
        kind: AlgorithmKind::RInvalV1,
        clients: 1,
    },
    Entry {
        kind: AlgorithmKind::RInvalV2 { invalidators: 1 },
        clients: 1,
    },
    Entry {
        kind: AlgorithmKind::RInvalMV {
            invalidators: 1,
            steps_ahead: 2,
        },
        clients: 1,
    },
];

pub fn entry(name: &str) -> Entry {
    *E5.iter()
        .find(|e| e.name() == name)
        .expect("engine is in the lineup")
}

/// Refuses the lineup on a host that cannot give every client of an entry
/// a core of its own.
pub fn check_lineup_fits(nproc: usize) -> Result<(), String> {
    match E5.iter().find(|e| e.clients > nproc) {
        Some(e) => Err(format!(
            "lineup entry {} needs {} client threads but the host has {nproc} core(s)",
            e.name(),
            e.clients
        )),
        None => Ok(()),
    }
}

static LIVE_INSTANCES: AtomicUsize = AtomicUsize::new(0);

/// The only way the ledger builds an [`Stm`]. An idle remote-engine
/// instance keeps its servers spin-yielding, which moves every other
/// number on a small host, so at most one may be alive: building a second
/// panics, and dropping joins the servers before the count goes down.
pub struct Instance {
    stm: Option<Stm>,
}

impl Instance {
    pub fn build(
        kind: AlgorithmKind,
        configure: impl FnOnce(StmBuilder) -> StmBuilder,
    ) -> Instance {
        let before = LIVE_INSTANCES.fetch_add(1, Ordering::SeqCst);
        assert_eq!(
            before, 0,
            "ledger: a second Stm instance was built while one is alive"
        );
        Instance {
            stm: Some(configure(Stm::builder(kind)).build()),
        }
    }

    pub fn plain(kind: AlgorithmKind) -> Instance {
        Instance::build(kind, |b| b)
    }
}

impl std::ops::Deref for Instance {
    type Target = Stm;
    fn deref(&self) -> &Stm {
        self.stm.as_ref().expect("instance is alive until dropped")
    }
}

impl Drop for Instance {
    fn drop(&mut self) {
        // `Stm::drop` joins the server threads; only then is the slot free.
        drop(self.stm.take());
        LIVE_INSTANCES.fetch_sub(1, Ordering::SeqCst);
    }
}

/// How one engine's measurement is cut into rounds and windows.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub window: Duration,
    /// Measured windows per round, after the round's one discarded
    /// warm-up window.
    pub measured: usize,
    /// Passes over the lineup. Every round builds each engine a fresh
    /// instance (fresh heap pages, fresh thread placement), so an engine is
    /// sampled at several points of the run and under several placements,
    /// and its set-up is timed once per round.
    pub rounds: usize,
}

impl Plan {
    /// End-to-end: `seconds` is shared by five engines over three rounds of
    /// one warm-up and three measured windows each — nine measured windows
    /// from three independent instances per engine.
    pub fn end_to_end(seconds: f64) -> Plan {
        let (rounds, measured) = (3, 3);
        Plan {
            window: Duration::from_secs_f64(seconds / (E5.len() * rounds * (measured + 1)) as f64),
            measured,
            rounds,
        }
    }
}

/// What the timekeeper and the clients' samples give for one engine.
pub struct Windows {
    /// Committed transactions (or acknowledged requests) per second, one
    /// value per measured window.
    pub tx_per_s: Vec<f64>,
    /// Caller-observed latency of the workload's headline operation in
    /// nanoseconds, per measured window, unsorted.
    pub op_ns: Vec<Vec<f64>>,
    /// Operations completed inside the measured windows.
    pub measured_ops: u64,
    /// Operations completed in all windows, warm-up included.
    pub total_ops: u64,
    /// Process CPU seconds over the measured windows.
    pub cpu_s: Option<f64>,
}

impl Windows {
    pub fn tx_summary(&self) -> Summary {
        Summary::of(&self.tx_per_s)
    }

    /// Each measured window's exact median latency in µs (windows without
    /// a sample left out).
    pub fn op_p50_us_per_window(&self) -> Vec<f64> {
        self.op_ns
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| median(w) / 1e3)
            .collect()
    }

    /// Median over windows of [`Windows::op_p50_us_per_window`].
    pub fn op_p50_us(&self) -> Summary {
        Summary::of(&self.op_p50_us_per_window())
    }

    /// Appends another round's windows of the same engine.
    pub fn absorb(&mut self, other: Windows) {
        self.tx_per_s.extend(other.tx_per_s);
        self.op_ns.extend(other.op_ns);
        self.measured_ops += other.measured_ops;
        self.total_ops += other.total_ops;
        self.cpu_s = self.cpu_s.zip(other.cpu_s).map(|(a, b)| a + b);
    }
}

/// Runs a set-up (instance build + data population) and times it.
pub fn timed_setup<T>(setup: impl FnOnce() -> (Instance, T)) -> (Instance, T, f64) {
    let t0 = Instant::now();
    let (inst, data) = setup();
    (inst, data, t0.elapsed().as_secs_f64())
}

/// One closed-loop client: it issues its next operation only after the
/// previous one returned. Built and consumed on its own thread.
pub trait Client {
    /// What the thread hands back when the run stops.
    type Done: Send;
    /// Runs one operation to completion. `recording` is true inside
    /// measured windows (spans are kept only then). Returns the
    /// caller-observed latency in nanoseconds if this operation is of the
    /// workload's headline kind and was timed; `timed` asks for timing
    /// where the client does not time every operation anyway.
    fn step(&mut self, timed: bool, recording: bool) -> Option<u64>;
    fn finish(self) -> Self::Done;
}

/// One latency sample per this many operations for clients that sample:
/// frequent enough for tens of thousands of samples a window, rare enough
/// that the two clock reads do not show in `tx_per_s`.
const SAMPLE_EVERY: u64 = 16;

/// Once a client's last sample exceeded this, it times every operation:
/// two clock reads are nothing against a 60 µs remote commit, and the slow
/// engines complete too few operations a window to sample them thinly.
const TIME_EVERY_OP_ABOVE_NS: u64 = 20_000;

/// Latency samples kept per client (8 bytes each, allocated up front).
const SAMPLES_PER_CLIENT: usize = 1 << 21;

/// Per-client operation counter on its own cache line, so the timekeeper's
/// reads never share a line with another client's stores.
#[repr(align(128))]
#[derive(Default)]
struct Cell {
    ops: AtomicU64,
}

/// Drives `clients` closed-loop clients for one warm-up window and
/// `plan.measured` measured windows. The calling thread is the timekeeper:
/// it sleeps through each window and reads the clients' counters at the
/// boundaries, so it takes no core from them in between. `make(i)` runs on
/// client `i`'s own thread.
pub fn drive<C: Client>(
    clients: usize,
    plan: &Plan,
    make: impl Fn(usize) -> C + Sync,
) -> (Windows, Vec<C::Done>) {
    let cells: Vec<Cell> = (0..clients).map(|_| Cell::default()).collect();
    // Window index clients tag their samples with: 0 is the warm-up.
    let window = AtomicU32::new(0);
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let handles: Vec<_> = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let (make, window, stop) = (&make, &window, &stop);
                s.spawn(move || {
                    let mut client = make(i);
                    let mut samples: Vec<(u32, u32)> = Vec::with_capacity(SAMPLES_PER_CLIENT);
                    let (mut seq, mut last_ns) = (0u64, 0u64);
                    while !stop.load(Ordering::Relaxed) {
                        let w = window.load(Ordering::Relaxed);
                        let timed = seq % SAMPLE_EVERY == 0 || last_ns > TIME_EVERY_OP_ABOVE_NS;
                        let lat = client.step(timed, w > 0);
                        seq += 1;
                        cell.ops.store(seq, Ordering::Relaxed);
                        if let Some(ns) = lat {
                            last_ns = ns;
                            if samples.len() < samples.capacity() {
                                samples.push((w, ns.min(u32::MAX as u64) as u32));
                            }
                        }
                    }
                    (client.finish(), samples)
                })
            })
            .collect();

        let read_ops = || {
            cells
                .iter()
                .map(|c| c.ops.load(Ordering::Relaxed))
                .sum::<u64>()
        };
        std::thread::sleep(plan.window);
        let mut tx_per_s = Vec::with_capacity(plan.measured);
        let cpu0 = crate::host::process_cpu_seconds();
        let ops_first = read_ops();
        let (mut t_prev, mut ops_prev) = (Instant::now(), ops_first);
        for w in 1..=plan.measured {
            window.store(w as u32, Ordering::Relaxed);
            std::thread::sleep(plan.window);
            let (t, ops) = (Instant::now(), read_ops());
            tx_per_s.push((ops - ops_prev) as f64 / (t - t_prev).as_secs_f64());
            (t_prev, ops_prev) = (t, ops);
        }
        // Both CPU readings are taken while every client is still alive.
        let cpu1 = crate::host::process_cpu_seconds();
        stop.store(true, Ordering::Relaxed);

        let mut win = Windows {
            tx_per_s,
            op_ns: vec![Vec::new(); plan.measured],
            measured_ops: ops_prev - ops_first,
            total_ops: 0,
            cpu_s: cpu0.zip(cpu1).map(|(a, b)| b - a),
        };
        let mut done = Vec::with_capacity(clients);
        for h in handles {
            let (d, samples) = h.join().expect("client thread panicked");
            done.push(d);
            for (w, ns) in samples {
                // A sample taken after the last boundary still carries the
                // last window's index; the warm-up's are dropped.
                if w >= 1 {
                    win.op_ns[w as usize - 1].push(ns as f64);
                }
            }
        }
        win.total_ops = read_ops();
        (win, done)
    })
}

/// A workload whose clients call the STM directly, one committed
/// transaction per operation.
pub trait StmWorkload: Sync {
    /// Per-client tallies the correctness gate needs afterwards.
    type Tally: Default + Send;
    /// Runs one operation through [`StmClient::transact`] and returns its
    /// latency if it was timed and of the workload's headline kind.
    fn step(&self, cx: &mut StmClient<'_, Self>, timed: bool) -> Option<u64>;
}

/// The closed-loop client of an [`StmWorkload`].
pub struct StmClient<'a, W: StmWorkload + ?Sized> {
    wl: &'a W,
    pub th: ThreadHandle<'a>,
    pub rng: SplitMix,
    pub tally: W::Tally,
    /// Span buffer in traced runs.
    rec: Option<Recorder>,
    recording: bool,
    /// Operation sequence number of this client — the span request id.
    seq: u64,
}

/// Spans kept per client thread in a traced run (32 bytes each).
const SPANS_PER_CLIENT: usize = 1 << 20;

impl<'a, W: StmWorkload> StmClient<'a, W> {
    pub fn new(stm: &'a Stm, wl: &'a W, rng: SplitMix, traced: bool) -> Self {
        StmClient {
            wl,
            th: stm.register_thread(),
            rng,
            tally: W::Tally::default(),
            rec: traced.then(|| Recorder::with_capacity(SPANS_PER_CLIENT)),
            recording: false,
            seq: 0,
        }
    }
}

impl<W: StmWorkload + ?Sized> StmClient<'_, W> {
    /// Runs `body` as one transaction through `ThreadHandle::run` (or
    /// `run_ro`) and returns its result with, when `timed`, the latency of
    /// that call. In a traced run a `txn.run` span wraps the call and a
    /// `body_name` span wraps every execution of the body, so the outer
    /// span's self time is begin + commit + retry handling.
    pub fn transact<T>(
        &mut self,
        ro: bool,
        body_name: Name,
        timed: bool,
        mut body: impl FnMut(&mut Txn<'_>) -> TxResult<T>,
    ) -> (T, Option<u64>) {
        let t0 = timed.then(Instant::now);
        let recording = self.recording;
        let v = match self.rec.as_mut().filter(|_| recording) {
            None if ro => self.th.run_ro(body),
            None => self.th.run(body),
            Some(rec) => {
                let req = self.seq;
                let outer = rec.begin(Name::TxnRun, req, None);
                let spanned = |tx: &mut Txn<'_>| {
                    let inner = rec.begin(body_name, req, outer);
                    let r = body(tx);
                    rec.end(inner);
                    r
                };
                let v = if ro {
                    self.th.run_ro(spanned)
                } else {
                    self.th.run(spanned)
                };
                rec.end(outer);
                v
            }
        };
        (v, t0.map(|t| t.elapsed().as_nanos() as u64))
    }
}

/// What an [`StmClient`] hands back: its thread's phase statistics, the
/// workload's tally and (traced runs) its span buffer.
pub type StmDone<W> = (PhaseStats, <W as StmWorkload>::Tally, Option<Recorder>);

impl<W: StmWorkload> Client for StmClient<'_, W> {
    type Done = StmDone<W>;

    fn step(&mut self, timed: bool, recording: bool) -> Option<u64> {
        self.recording = recording;
        let wl = self.wl;
        let lat = wl.step(self, timed);
        self.seq += 1;
        lat
    }

    fn finish(mut self) -> Self::Done {
        (self.th.take_stats(), self.tally, self.rec)
    }
}

/// Drives an [`StmWorkload`] with `entry.clients` clients whose input
/// streams are split from `seed`.
pub fn drive_stm<W: StmWorkload>(
    stm: &Stm,
    wl: &W,
    entry: &Entry,
    plan: &Plan,
    seed: u64,
    traced: bool,
) -> (Windows, Vec<StmDone<W>>) {
    let mut seeds = SplitMix::new(seed);
    let rngs: Vec<SplitMix> = (0..entry.clients).map(|_| seeds.split()).collect();
    drive(entry.clients, plan, |i| {
        StmClient::new(stm, wl, rngs[i].clone(), traced)
    })
}
