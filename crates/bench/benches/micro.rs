//! micro — the dispatch regression gate for the monomorphized engine
//! layer. (Per-operation costs in ns are the ledger's rows —
//! `txn.{read,write,commit1}_ns.E`, `txds.rbtree_lookup_ns` — and are not
//! timed a second time here; this gate is a machine-independent *ratio*.)
//!
//! The facade read hot path (one per-attempt `AlgorithmKind` resolution,
//! then op-table calls) must be no slower than the seed's per-read enum
//! dispatch, which is re-created here as a `match` over five
//! `#[inline(never)]` arms around the same reads. Hand-rolled timing
//! (best of many short rounds, the two sides alternating, over fixed
//! operation counts — no external benchmark harness, so the workspace
//! builds hermetically). The bench exits non-zero if the monomorphized
//! path regresses past the tolerance, so the CI smoke step (`cargo bench
//! --bench micro -- --test`) enforces it on every run; `--test` only
//! shrinks the operation count.

use rinval::{AlgorithmKind, Handle, Stm, TxResult, Txn};
use std::time::Instant;

/// Time for one round of `ops` repetitions of `op`, in ns/op.
fn ns_per_op(ops: u64, mut op: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..ops {
        op();
    }
    t0.elapsed().as_secs_f64() * 1e9 / ops as f64
}

// ---------------------------------------------------------------------
// Dispatch gate: monomorphized facade reads vs. re-created enum dispatch.
//
// The seed resolved `AlgorithmKind` inside `Txn::read` on every access.
// To keep that cost measurable after the refactor removed it, the five
// arms are reconstructed as distinct `#[inline(never)]` functions (so the
// optimizer cannot collapse the match back into a single call) selected
// by the same `match` the seed executed per read.

macro_rules! dispatch_arm {
    ($name:ident) => {
        #[inline(never)]
        fn $name(tx: &mut Txn<'_>, h: Handle) -> TxResult<u64> {
            tx.read(h)
        }
    };
}
dispatch_arm!(arm_norec);
dispatch_arm!(arm_invalstm);
dispatch_arm!(arm_rinval_v1);
dispatch_arm!(arm_rinval_v2);
dispatch_arm!(arm_rinval_mv);

/// The seed's per-read dispatch shape: one kind branch per access.
#[inline(always)]
fn enum_dispatch_read(kind: AlgorithmKind, tx: &mut Txn<'_>, h: Handle) -> TxResult<u64> {
    match kind {
        AlgorithmKind::NOrec => arm_norec(tx, h),
        AlgorithmKind::InvalStm => arm_invalstm(tx, h),
        AlgorithmKind::RInvalV1 => arm_rinval_v1(tx, h),
        AlgorithmKind::RInvalV2 { .. } => arm_rinval_v2(tx, h),
        AlgorithmKind::RInvalMV { .. } => arm_rinval_mv(tx, h),
    }
}

/// Rounds per side. Many short rounds rather than a few long ones, so a
/// slow spell on the host that spans several rounds still leaves each
/// side rounds outside it.
const ROUNDS: usize = 20;

/// Returns (monomorphized ns/read, enum-dispatch ns/read) for read-only
/// transactions over 32 words under `algo`: the best of [`ROUNDS`] rounds
/// of `ops` transactions per side. The rounds alternate sides inside one
/// loop, so both minima come from the same window and a change in host
/// state between two separate blocks of rounds cannot read as a ratio.
/// Minimum (not mean) so background scheduling noise on shared CI hosts
/// biases results high, never low.
fn dispatch_pair(algo: AlgorithmKind, ops: u64) -> (f64, f64) {
    let stm = Stm::builder(algo).heap_words(1 << 10).build();
    let arr = stm.alloc(32);
    let mut th = stm.register_thread();
    let kind = stm.algorithm();
    let (mut mono, mut enumed) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        mono = mono.min(ns_per_op(ops, || {
            th.run(|tx| {
                let mut acc = 0u64;
                for i in 0..32u32 {
                    acc = acc.wrapping_add(tx.read(arr.field(i))?);
                }
                Ok(acc)
            });
        }));
        enumed = enumed.min(ns_per_op(ops, || {
            th.run(|tx| {
                let mut acc = 0u64;
                for i in 0..32u32 {
                    acc = acc.wrapping_add(enum_dispatch_read(kind, tx, arr.field(i))?);
                }
                Ok(acc)
            });
        }));
    }
    (mono / 32.0, enumed / 32.0)
}

fn dispatch_gate(ops: u64) -> bool {
    // With `failpoints` compiled out — the production configuration — the
    // fault-containment layer must be invisible on the read path: the
    // facade must stay within 5% of the enum-dispatch baseline. With the
    // feature on, the armed-site checks are real work; keep the generous
    // tolerance (both paths are a handful of ns, and release timing on a
    // shared host still jitters a few percent).
    #[cfg(not(feature = "failpoints"))]
    const TOLERANCE: f64 = 1.05;
    #[cfg(feature = "failpoints")]
    const TOLERANCE: f64 = 1.25;
    println!("\ndispatch gate: facade read vs. per-read enum dispatch [ns/read]");
    println!(
        "{:>14} {:>12} {:>12} {:>8}",
        "algo", "monomorph", "enum-match", "ratio"
    );
    let mut ok = true;
    for algo in [AlgorithmKind::NOrec, AlgorithmKind::InvalStm] {
        let (mono, enumed) = dispatch_pair(algo, ops);
        let ratio = mono / enumed;
        println!(
            "{:>14} {mono:>12.2} {enumed:>12.2} {ratio:>8.2}",
            algo.name()
        );
        if ratio > TOLERANCE {
            eprintln!(
                "FAIL: {}: monomorphized read path is {ratio:.2}x the enum-dispatch \
                 path (tolerance {TOLERANCE})",
                algo.name()
            );
            ok = false;
        }
    }
    ok
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    if !dispatch_gate(if smoke { 1_500 } else { 15_000 }) {
        std::process::exit(1);
    }
}
