//! The three workloads whose clients call the STM directly, and the
//! per-engine procedure every workload follows: set up (timed, repeated),
//! drive the windows, run the correctness gate.

use crate::harness::{
    drive_stm, timed_setup, Entry, Instance, Plan, StmClient, StmWorkload, Windows,
};
use crate::span::{Name, Recorder};
use rinval::{HeapStats, PhaseStats, ServerStats, Stm};
use stamp::vacation::{self, Database};
use stamp::{nontx_work, SplitMix};
use txds::RbTree;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    RbtreeW50,
    RbtreeRo,
    StampVacation,
    SvcBank,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::RbtreeW50,
        WorkloadId::RbtreeRo,
        WorkloadId::StampVacation,
        WorkloadId::SvcBank,
    ];

    /// The workloads `BENCHMARK.json` lists — the ones whose end-to-end
    /// numbers repeat from run to run. `svc_bank` runs end to end on
    /// request but is not among them: on a 2-core host its numbers are
    /// bimodal (README, "Steadiness"), so the regression gate reads them as
    /// per-layer metrics only.
    pub const GATED: [WorkloadId; 3] = [
        WorkloadId::RbtreeW50,
        WorkloadId::RbtreeRo,
        WorkloadId::StampVacation,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::RbtreeW50 => "rbtree_w50",
            WorkloadId::RbtreeRo => "rbtree_ro",
            WorkloadId::StampVacation => "stamp_vacation",
            WorkloadId::SvcBank => "svc_bank",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a run switches on beyond the plain end-to-end configuration.
#[derive(Clone, Copy, Debug)]
pub struct Mode {
    /// Record spans around every call and keep the commit-latency
    /// histogram (`StmBuilder::latency_histogram`).
    pub spans: bool,
    /// Turn on the engine's own phase timers (`StmBuilder::profile`): two
    /// clock reads per transactional operation, so only the pass that
    /// reports phase shares uses it.
    pub profile: bool,
}

impl Mode {
    pub const PLAIN: Mode = Mode {
        spans: false,
        profile: false,
    };
    pub const SPANS: Mode = Mode {
        spans: true,
        profile: false,
    };
    pub const PROFILED: Mode = Mode {
        spans: true,
        profile: true,
    };
}

/// Everything one engine's run on one workload leaves behind.
pub struct Outcome {
    pub win: Windows,
    /// Median time of instance build + data population.
    pub setup_s: f64,
    /// Operations attempted in all windows (on `svc_bank`: calls issued,
    /// retries included) and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Phase statistics merged over the client threads that own a
    /// `ThreadHandle` (empty for `svc_bank`, whose handles live in the
    /// service's workers).
    pub stats: PhaseStats,
    /// Labelled span buffers (traced runs only).
    pub recorders: Vec<(String, Recorder)>,
    /// Heap telemetry before and after the windows.
    pub heap: (HeapStats, HeapStats),
    /// Server counters accumulated over the windows.
    pub server: ServerStats,
    /// What the `svc_bank` client saw.
    pub svc: Option<crate::svc_bank::SvcTally>,
}

/// Runs one lineup entry on one STM workload: the shared procedure.
fn run_stm_engine<W: StmWorkload, D>(
    entry: &Entry,
    plan: &Plan,
    seed: u64,
    mode: Mode,
    populate: impl Fn(&Stm) -> D,
    workload: impl FnOnce(&Stm, D) -> W,
    gate: impl FnOnce(&Stm, &W, &[W::Tally]) -> Result<(), String>,
) -> Result<Outcome, String> {
    let (inst, data, setup_s) = timed_setup(|| {
        let inst = Instance::build(entry.kind, |b| {
            b.profile(mode.profile).latency_histogram(mode.spans)
        });
        let data = populate(&inst);
        (inst, data)
    });
    let wl = workload(&inst, data);
    let (heap0, server0) = (inst.heap_stats(), inst.server_stats());
    let (win, done) = drive_stm(&inst, &wl, entry, plan, seed ^ 0xC11E, mode.spans);
    let (heap1, server1) = (inst.heap_stats(), inst.server_stats());

    let mut stats = PhaseStats::default();
    let mut tallies = Vec::with_capacity(done.len());
    let mut recorders = Vec::new();
    for (i, (st, tally, rec)) in done.into_iter().enumerate() {
        stats.merge(&st);
        tallies.push(tally);
        recorders.extend(rec.map(|r| (format!("{} client {i}", entry.name()), r)));
    }
    if inst.is_degraded() {
        return Err(format!(
            "{}: instance degraded to InvalSTM mid-run",
            entry.name()
        ));
    }
    gate(&inst, &wl, &tallies).map_err(|e| format!("{}: {e}", entry.name()))?;
    Ok(Outcome {
        attempted: win.total_ops,
        win,
        setup_s,
        failed: 0,
        stats,
        recorders,
        heap: (heap0, heap1),
        server: server1.since(&server0),
        svc: None,
    })
}

// ---------------------------------------------------------------- rbtree

/// Keys initially in the tree, drawn from `0..RB_RANGE`, so the tree hovers
/// at half occupancy and inserts and removes succeed equally often.
pub const RB_KEYS: u64 = 16_384;
pub const RB_RANGE: u64 = 32_768;

/// Builds the initial tree from `RB_KEYS` distinct seeded keys, 64 inserts
/// to a transaction: population is set-up, not the thing measured, and one
/// commit per key would cost the remote engines seconds of it.
fn rb_populate(stm: &Stm, seed: u64) -> RbTree {
    let mut rng = SplitMix::new(seed);
    let mut chosen = vec![false; RB_RANGE as usize];
    let mut keys = Vec::with_capacity(RB_KEYS as usize);
    while keys.len() < RB_KEYS as usize {
        let k = rng.below(RB_RANGE);
        if !std::mem::replace(&mut chosen[k as usize], true) {
            keys.push(k);
        }
    }
    let tree = RbTree::new(stm);
    let mut th = stm.register_thread();
    for batch in keys.chunks(64) {
        th.run(|tx| {
            batch
                .iter()
                .try_for_each(|&k| tree.insert(tx, k, k).map(drop))
        });
    }
    tree
}

/// `rbtree_w50` (`read_only == false`) and `rbtree_ro`.
pub struct Rbtree {
    pub tree: RbTree,
    read_only: bool,
    /// Which keys the populated tree holds; `rbtree_ro` checks every
    /// lookup's answer against it.
    present: Vec<bool>,
}

impl Rbtree {
    pub fn new(stm: &Stm, tree: RbTree, read_only: bool) -> Rbtree {
        let mut present = vec![false; RB_RANGE as usize];
        for k in tree.snapshot_keys(stm) {
            present[k as usize] = true;
        }
        Rbtree {
            tree,
            read_only,
            present,
        }
    }
}

#[derive(Default)]
pub struct RbTally {
    inserted: u64,
    removed: u64,
    wrong_answers: u64,
}

impl StmWorkload for Rbtree {
    type Tally = RbTally;

    fn step(&self, cx: &mut StmClient<'_, Self>, timed: bool) -> Option<u64> {
        let tree = self.tree;
        let k = cx.rng.below(RB_RANGE);
        let lat = if self.read_only {
            let (found, lat) =
                cx.transact(true, Name::TxdsLookup, timed, |tx| tree.contains(tx, k));
            cx.tally.wrong_answers += u64::from(found != self.present[k as usize]);
            lat
        } else {
            let op = cx.rng.below(100);
            if op < 50 {
                // Lookups go through `run`, as in the paper's benchmark;
                // the headline operation here is the update.
                cx.transact(false, Name::TxdsLookup, false, |tx| tree.contains(tx, k));
                None
            } else if op < 75 {
                let (new, lat) =
                    cx.transact(false, Name::TxdsUpdate, timed, |tx| tree.insert(tx, k, k));
                cx.tally.inserted += u64::from(new);
                lat
            } else {
                let (old, lat) =
                    cx.transact(false, Name::TxdsUpdate, timed, |tx| tree.remove(tx, k));
                cx.tally.removed += u64::from(old.is_some());
                lat
            }
        };
        nontx_work(10);
        lat
    }
}

fn rb_gate(stm: &Stm, wl: &Rbtree, tallies: &[RbTally]) -> Result<(), String> {
    wl.tree.check_invariants(stm)?;
    let (ins, rem, wrong) = tallies.iter().fold((0, 0, 0), |(i, r, w), t| {
        (i + t.inserted, r + t.removed, w + t.wrong_answers)
    });
    if wrong != 0 {
        return Err(format!(
            "{wrong} lookups disagreed with the populated key set"
        ));
    }
    let expect = RB_KEYS + ins - rem;
    let have = wl.tree.snapshot_keys(stm).len() as u64;
    if have != expect {
        return Err(format!(
            "key count {have} != initial {RB_KEYS} + {ins} inserted - {rem} removed"
        ));
    }
    Ok(())
}

/// `txds`: transactional reads one lookup performs, counted exactly
/// (`PhaseStats::reads`) over a fixed seeded sequence on one thread, so the
/// number repeats bit for bit and moves only when the tree's shape or the
/// lookup's code does.
pub fn rbtree_reads_per_lookup(seed: u64) -> f64 {
    const LOOKUPS: u64 = 20_000;
    let inst = Instance::plain(rinval::AlgorithmKind::NOrec);
    let tree = rb_populate(&inst, seed);
    let mut th = inst.register_thread();
    let mut rng = SplitMix::new(seed ^ 0x100C);
    for _ in 0..LOOKUPS {
        let k = rng.below(RB_RANGE);
        std::hint::black_box(th.run_ro(|tx| tree.contains(tx, k)));
    }
    th.take_stats().reads as f64 / LOOKUPS as f64
}

// -------------------------------------------------------------- vacation

fn vacation_config(seed: u64) -> vacation::Config {
    vacation::Config {
        resources: 4096,
        customers: 4096,
        // Far more stock than a run can sell, so a reservation never fails
        // for lack of it and the transaction profile stays the same from
        // the first window to the last.
        initial_avail: 1 << 24,
        transactions: 0,
        queries: 8,
        reserve_pct: 80,
        seed,
    }
}

pub struct Vacation {
    db: Database,
    cfg: vacation::Config,
}

impl StmWorkload for Vacation {
    type Tally = ();

    fn step(&self, cx: &mut StmClient<'_, Self>, timed: bool) -> Option<u64> {
        let (db, cfg) = (self.db, &self.cfg);
        let kind = cx.rng.below(100);
        if kind < cfg.reserve_pct {
            let rel = cx.rng.below(3) as usize;
            let mut candidates = [0u64; 8];
            for c in &mut candidates {
                *c = cx.rng.below(cfg.resources);
            }
            let customer = cx.rng.below(cfg.customers);
            cx.transact(false, Name::StampOp, timed, |tx| {
                db.reserve(tx, rel, &candidates, customer)
            })
            .1
        } else if kind < cfg.reserve_pct + (100 - cfg.reserve_pct) / 2 {
            let customer = cx.rng.below(cfg.customers);
            cx.transact(false, Name::StampOp, false, |tx| {
                db.delete_customer(tx, customer)
            });
            None
        } else {
            let rel = cx.rng.below(3) as usize;
            let id = cx.rng.below(cfg.resources);
            let price = 50 + cx.rng.below(450);
            cx.transact(false, Name::StampOp, false, |tx| {
                db.update_price(tx, rel, id, price)
            });
            None
        }
    }
}

// -------------------------------------------------------------- dispatch

/// Runs one lineup entry on one of the three direct-STM workloads.
pub fn run_engine(
    workload: WorkloadId,
    entry: &Entry,
    plan: &Plan,
    seed: u64,
    mode: Mode,
) -> Result<Outcome, String> {
    match workload {
        WorkloadId::RbtreeW50 | WorkloadId::RbtreeRo => {
            let read_only = workload == WorkloadId::RbtreeRo;
            run_stm_engine(
                entry,
                plan,
                seed,
                mode,
                |stm| rb_populate(stm, seed),
                |stm, tree| Rbtree::new(stm, tree, read_only),
                rb_gate,
            )
        }
        WorkloadId::StampVacation => {
            let cfg = vacation_config(seed);
            run_stm_engine(
                entry,
                plan,
                seed,
                mode,
                |stm| Database::setup(stm, &cfg),
                |_, db| Vacation {
                    db,
                    cfg: cfg.clone(),
                },
                |stm, wl, _| wl.db.verify(stm, &wl.cfg),
            )
        }
        WorkloadId::SvcBank => crate::svc_bank::run_engine(entry, plan, seed, mode, false),
    }
}
