//! server_scan — microbench pinning the per-pass scan work of the RInval
//! commit/invalidation servers after the summary-bitmap rework.
//!
//! For each registry size in {8, 32, 128} it runs a fixed commit workload
//! with at most 4 live client threads and reports, from
//! [`rinval::Stm::server_stats`]:
//!
//! * slots actually visited per commit-server pass (bitmap scan) vs. the
//!   slots a full-registry walk would have examined — the pre-rework cost
//!   of *every* pass, reported as the `reduction` factor;
//! * the same for invalidation scans over the `live` map.
//!
//! The repository's acceptance bars (EXPERIMENTS.md §server_scan):
//!
//! * at a 128-slot registry with ≤ 4 live transactions the scan-work
//!   reduction must be ≥ 2×;
//! * the shared scan kernel ([`rinval::scan::scan`] + the summary-walking
//!   conflict test + slot prefetch) must beat a faithful replica of the
//!   previous open-coded dense scan by ≥ 1.3× wall-clock at 128 live
//!   slots.
//!
//! The bench exits non-zero if either bar is missed, so the CI smoke step
//! (`cargo bench --bench server_scan -- --test`) enforces both on every
//! run; `--test` only shrinks the operation count.

use rinval::bloom::{cores, Bloom};
use rinval::registry::{Registry, TX_ALIVE};
use rinval::scan::{scan, ScanKind};
use rinval::stats::ServerCounters;
use rinval::{AlgorithmKind, ServerStats, Stm};
use std::hint::black_box;
use std::time::Instant;

const REGISTRY_SIZES: [usize; 3] = [8, 32, 128];
const LIVE_THREADS: usize = 4;

struct Measurement {
    registry: usize,
    algo: &'static str,
    commits: u64,
    stats: ServerStats,
}

impl Measurement {
    fn commit_scan_reduction(&self) -> f64 {
        let full = self.stats.full_scan_equivalent(self.registry) as f64;
        let visited = self.stats.slots_visited.max(1) as f64;
        full / visited
    }

    fn inval_scan_reduction(&self) -> f64 {
        let full = self.stats.full_inval_equivalent(self.registry) as f64;
        let visited = self.stats.inval_slots_visited.max(1) as f64;
        full / visited
    }
}

/// Runs `threads` clients, each performing `ops` read-modify-write
/// commits on a private word plus periodic commits on one shared word
/// (so invalidation scans have live readers to inspect).
fn run_workload(algo: AlgorithmKind, registry: usize, threads: usize, ops: u64) -> Measurement {
    let stm = Stm::builder(algo)
        .heap_words(1 << 12)
        .max_threads(registry)
        .build();
    let shared = stm.alloc_init(&[0]);
    let arr = stm.alloc(threads);
    let stm_ref = &stm;

    std::thread::scope(|s| {
        for c in 0..threads {
            s.spawn(move || {
                let mut th = stm_ref.register_thread();
                let mine = arr.field(c as u32);
                for k in 0..ops {
                    th.run(|tx| {
                        let v = tx.read(mine)?;
                        tx.write(mine, v + 1)
                    });
                    if k % 16 == 0 {
                        th.run(|tx| {
                            let v = tx.read(shared)?;
                            tx.write(shared, v + 1)
                        });
                    }
                }
            });
        }
    });

    for c in 0..threads {
        assert_eq!(stm.peek(arr.field(c as u32)), ops, "lost commits");
    }
    Measurement {
        registry,
        algo: algo.name(),
        commits: threads as u64 * (ops + ops.div_ceil(16)),
        stats: stm.server_stats(),
    }
}

fn report(m: &Measurement) {
    println!(
        "{:>9}  {:>8}  {:>8}  {:>10}  {:>12}  {:>10.1}  {:>12}  {:>10.1}",
        m.algo,
        m.registry,
        m.commits,
        m.stats.scan_passes,
        m.stats.slots_visited,
        m.commit_scan_reduction(),
        m.stats.inval_slots_visited,
        m.inval_scan_reduction(),
    );
}

/// Wall-clock ratio of the pre-kernel scan to the shared kernel over the
/// same fully-live registry: `reference_time / kernel_time`.
///
/// The reference replicates the scan every site open-coded before the
/// kernel layer — `iter_set_bits` over the `live` map, an `is_live`
/// check, and the *dense* 256-word oracle
/// `cores::intersects_plain_scalar` per slot, with no prefetch. The
/// kernel side is the real [`scan`] call with the product conflict test,
/// `AtomicBloom::intersects_plain`, which loads only the reader words the
/// write signature's summary names, as `invalidate_conflicting` does.
/// Read signatures are populated and (address-wise) disjoint from the
/// committer's write signature, so the reference pays the full 256-word
/// sweep per visit — the scan-dominated case the gate targets.
fn kernel_speedup(slots: usize, iters: u32, reps: usize) -> f64 {
    let reg = Registry::new(slots);
    for i in 0..slots {
        reg.live().set(i);
        let s = reg.slot(i);
        s.tx_status
            .store(TX_ALIVE, std::sync::atomic::Ordering::SeqCst);
        for k in 0..16u32 {
            s.read_bf.owner_insert((i as u32) * 64 + k);
        }
    }
    let mut wbf = Bloom::new();
    for k in 0..16u32 {
        wbf.insert(1 << 30 | k);
    }
    let counters = ServerCounters::default();

    // Address sets are disjoint but bloom hashing may still collide, so
    // the two scans are held to *agreeing* on the hit count rather than
    // to zero hits.
    let time = |f: &mut dyn FnMut() -> u64, want_hits: u64| {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            let mut hits = 0u64;
            for _ in 0..iters {
                hits += black_box(f());
            }
            assert_eq!(hits, want_hits * iters as u64, "scan outcomes diverge");
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };

    let mut reference_scan = || {
        let mut hits = 0u64;
        for i in reg.live().iter_set_bits() {
            let s = reg.slot(i);
            if s.is_live() && cores::intersects_plain_scalar(&s.read_bf, &wbf) {
                hits += 1;
            }
        }
        hits
    };
    let mut kernel_scan = || {
        let mut hits = 0u64;
        let _ = scan(
            &reg,
            &counters,
            reg.live(),
            ScanKind::Inval,
            |_| true,
            |_, s| {
                if s.is_live() && s.read_bf.intersects_plain(&wbf) {
                    hits += 1;
                }
                std::ops::ControlFlow::Continue(())
            },
        );
        hits
    };
    let want_hits = reference_scan();
    assert_eq!(want_hits, kernel_scan(), "kernel and replica disagree");
    let reference = time(&mut reference_scan, want_hits);
    let kernel = time(&mut kernel_scan, want_hits);
    reference / kernel
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let ops: u64 = if smoke { 200 } else { 5_000 };

    println!(
        "server_scan: per-pass scan work with summary bitmaps \
         ({LIVE_THREADS} live client threads, {ops} private commits each)"
    );
    println!(
        "{:>9}  {:>8}  {:>8}  {:>10}  {:>12}  {:>10}  {:>12}  {:>10}",
        "algo", "registry", "commits", "passes", "visited", "reduction", "inval-visit", "inval-red"
    );

    let mut gate = true;
    for algo in [
        AlgorithmKind::RInvalV1,
        AlgorithmKind::RInvalV2 { invalidators: 2 },
    ] {
        for registry in REGISTRY_SIZES {
            let m = run_workload(algo, registry, LIVE_THREADS.min(registry / 2), ops);
            report(&m);
            if registry == 128 && m.commit_scan_reduction() < 2.0 {
                eprintln!(
                    "FAIL: {} at {}-slot registry: commit-scan reduction {:.1} < 2.0",
                    m.algo,
                    registry,
                    m.commit_scan_reduction()
                );
                gate = false;
            }
        }
    }

    // Kernel-vs-replica wall clock: the kernel must hold a ≥ 1.3× win
    // over the previous open-coded dense scan at 128 live slots (the
    // scan-dominated geometry the kernel layer targets).
    let (iters, reps) = if smoke { (200, 3) } else { (2_000, 7) };
    for slots in REGISTRY_SIZES {
        let speedup = kernel_speedup(slots, iters, reps);
        println!("kernel speedup vs open-coded dense scan at {slots:>3} live slots: {speedup:.2}x");
        if slots == 128 && speedup < 1.3 {
            eprintln!("FAIL: kernel speedup {speedup:.2} < 1.3 at 128 live slots");
            gate = false;
        }
    }

    if !gate {
        std::process::exit(1);
    }
    println!(
        "ok: >=2x scan-work reduction at 128-slot registry, \
         >=1.3x summary-walk kernel over the dense replica"
    );
}
