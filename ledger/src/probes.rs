//! Layer probes: small fixed experiments that time one layer's public
//! functions in isolation. They run in the traced run only and feed the
//! per-layer metrics; every probe that needs an engine builds its own
//! [`Instance`] and drops it before returning.

use crate::harness::Instance;
use crate::stats::median;
use rinval::bloom::{AtomicBloom, Bloom};
use rinval::{AlgorithmKind, Handle};
use stamp::SplitMix;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Median nanoseconds per call of `f`: batches sized to ~200 µs are timed
/// until `budget` is spent (at least five), and the median batch mean is
/// returned, so one descheduled batch does not move the number.
pub fn ns_per_op(budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut batch = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t0.elapsed() >= Duration::from_micros(200) || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    let deadline = Instant::now() + budget;
    let mut means = Vec::new();
    while means.len() < 5 || (Instant::now() < deadline && means.len() < 100_000) {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        means.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&means)
}

/// Word addresses the size of a real heap's, as the signatures would see.
fn addr(rng: &mut SplitMix) -> u32 {
    rng.below(1 << 20) as u32
}

/// `n` distinct addresses, none of them in `avoid`.
fn distinct_addrs(rng: &mut SplitMix, n: usize, avoid: &[u32]) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::with_capacity(n);
    while out.len() < n {
        let a = addr(rng);
        if !out.contains(&a) && !avoid.contains(&a) {
            out.push(a);
        }
    }
    out
}

fn bloom_of(addrs: &[u32]) -> Bloom {
    let mut b = Bloom::new();
    for &a in addrs {
        b.insert(a);
    }
    b
}

pub struct BloomNumbers {
    pub insert_ns: f64,
    pub intersect_dense_ns: f64,
    pub intersect_sparse_ns: f64,
    pub snapshot_intersect2_ns: f64,
    pub false_conflict_share: f64,
}

/// `rinval::bloom`: the signature operations the invalidating engines pay
/// per read (insert) and per live transaction per commit (intersect).
pub fn bloom(seed: u64, budget: Duration) -> BloomNumbers {
    let mut rng = SplitMix::new(seed ^ 0xB100);
    let inserts: Vec<u32> = (0..64).map(|_| addr(&mut rng)).collect();
    let mut sink = Bloom::new();
    let insert_ns = ns_per_op(budget, || {
        for &a in &inserts {
            sink.insert(black_box(a));
        }
        black_box(&mut sink);
    }) / inserts.len() as f64;

    // A 64-address read signature against a write signature that shares no
    // bit with it, so every intersection sweeps to the end.
    let (read_sig, write_sig, other_sig) = loop {
        let reads = distinct_addrs(&mut rng, 64, &[]);
        let writes = distinct_addrs(&mut rng, 8, &reads);
        let others = distinct_addrs(&mut rng, 8, &reads);
        let (r, w, o) = (bloom_of(&reads), bloom_of(&writes), bloom_of(&others));
        if !r.intersects(&w) && !r.intersects(&o) {
            let shared = AtomicBloom::new();
            shared.store_from(&r);
            break (shared, w, o);
        }
    };
    let intersect_dense_ns = ns_per_op(budget, || {
        black_box(black_box(&read_sig).intersects_plain(black_box(&write_sig)));
    });
    let nz = write_sig.nonzero_words();
    let intersect_sparse_ns = ns_per_op(budget, || {
        black_box(black_box(&read_sig).intersects_plain_sparse(black_box(&write_sig), &nz));
    });
    let mut snapshot = Bloom::new();
    let snapshot_intersect2_ns = ns_per_op(budget, || {
        black_box(black_box(&read_sig).snapshot_intersect2(&mut snapshot, &write_sig, &other_sig));
    });

    // Exact count: how often do a 64-address read set and a *disjoint*
    // 8-address write set still collide in the signatures?
    let trials = 20_000;
    let mut false_conflicts = 0u32;
    for _ in 0..trials {
        let reads = distinct_addrs(&mut rng, 64, &[]);
        let writes = distinct_addrs(&mut rng, 8, &reads);
        false_conflicts += u32::from(bloom_of(&reads).intersects(&bloom_of(&writes)));
    }
    BloomNumbers {
        insert_ns,
        intersect_dense_ns,
        intersect_sparse_ns,
        snapshot_intersect2_ns,
        false_conflict_share: false_conflicts as f64 / trials as f64,
    }
}

pub struct TxnNumbers {
    pub empty_ns: f64,
    pub read_ns: f64,
    pub write_ns: f64,
    pub commit1_ns: f64,
}

/// `rinval::txn` + the engine: what one transaction costs a lone caller.
/// An empty `run`; one more read, as (64-read − empty)/64; the step from
/// no write to one write (`commit1_ns`: for the remote engines that is
/// post → reply observed, the paper's critical path); and one more write.
/// The writes are timed *inside* the body — writes 2 to 16 of a 16-write
/// transaction — because the difference of two whole transactions is lost
/// in a remote engine's commit round trip, which is a thousand times a
/// write and flips between two modes on a 2-core host.
pub fn txn(kind: AlgorithmKind, budget: Duration) -> TxnNumbers {
    let inst = Instance::plain(kind);
    let words = inst.alloc(64);
    let mut th = inst.register_thread();
    let empty = ns_per_op(budget, || th.run(|_| Ok(())));
    let read64 = ns_per_op(budget, || {
        black_box(th.run(|tx| {
            let mut sum = 0u64;
            for i in 0..64 {
                sum = sum.wrapping_add(tx.read(words.field(i))?);
            }
            Ok(sum)
        }));
    });
    let write1 = ns_per_op(budget, || th.run(|tx| tx.write(words.field(0), 1)));
    let mut later_writes = Vec::new();
    let deadline = Instant::now() + budget;
    while later_writes.len() < 5 || (Instant::now() < deadline && later_writes.len() < 100_000) {
        later_writes.push(th.run(|tx| {
            tx.write(words.field(0), 0)?;
            let t0 = Instant::now();
            for i in 1..16 {
                tx.write(words.field(i), i as u64)?;
            }
            Ok(t0.elapsed().as_nanos() as f64 / 15.0)
        }));
    }
    TxnNumbers {
        empty_ns: empty,
        read_ns: (read64 - empty) / 64.0,
        write_ns: median(&later_writes),
        commit1_ns: write1 - empty,
    }
}

/// The engine's own view of the same one-write commit: the median of its
/// log₂ commit-latency histogram (`StmBuilder::latency_histogram`), which
/// brackets `commit` alone, without begin or the body. A separate
/// instance, because the histogram's two clock reads per commit would
/// show in [`txn`]'s nanosecond numbers.
pub fn commit_hist_p50_ns(kind: AlgorithmKind, budget: Duration) -> Option<f64> {
    let inst = Instance::build(kind, |b| b.latency_histogram(true));
    let word = inst.alloc(1);
    let mut th = inst.register_thread();
    ns_per_op(budget, || th.run(|tx| tx.write(word, 1)));
    inst.server_stats()
        .latency_quantile_ns(0.5)
        .map(|ns| ns as f64)
}

/// `rinval::server`/`scan`/`registry`, through `ThreadHandle::run` only:
/// what one more *live* transaction adds to a commit. 64 transactions are
/// parked mid-flight on sleeping threads (each has read one word nobody
/// writes), and a one-write commit is timed with and without them.
pub fn inval_ns_per_live_tx(kind: AlgorithmKind, budget: Duration) -> f64 {
    const PARKED: usize = 64;
    let inst = Instance::build(kind, |b| b.max_threads(2 * PARKED));
    let words = inst.alloc(1 + PARKED);
    let mut th = inst.register_thread();
    let mut commit1 = || ns_per_op(budget, || th.run(|tx| tx.write(words.field(0), 1)));
    let alone = commit1();

    let parked = AtomicUsize::new(0);
    let release = AtomicBool::new(false);
    let crowded = std::thread::scope(|s| {
        let sleepers: Vec<_> = (0..PARKED)
            .map(|i| {
                let (inst, parked, release) = (&inst, &parked, &release);
                s.spawn(move || {
                    let mut th = inst.register_thread();
                    let mut counted = false;
                    th.run(|tx| {
                        tx.read(words.field(1 + i as u32))?;
                        if !std::mem::replace(&mut counted, true) {
                            parked.fetch_add(1, Ordering::SeqCst);
                        }
                        while !release.load(Ordering::SeqCst) {
                            std::thread::park_timeout(Duration::from_millis(50));
                        }
                        Ok(())
                    });
                })
            })
            .collect();
        while parked.load(Ordering::SeqCst) < PARKED {
            std::thread::sleep(Duration::from_millis(1));
        }
        let crowded = commit1();
        release.store(true, Ordering::SeqCst);
        for t in &sleepers {
            t.thread().unpark();
        }
        crowded
    });
    (crowded - alone) / PARKED as f64
}

/// Process CPU seconds per wall second while an instance of `kind` sits
/// idle: what its server threads cost when nobody asks them anything.
pub fn idle_cpu_share(kind: AlgorithmKind, wall: Duration) -> Option<f64> {
    let _inst = Instance::plain(kind);
    let (c0, t0) = (crate::host::process_cpu_seconds()?, Instant::now());
    std::thread::sleep(wall);
    let c1 = crate::host::process_cpu_seconds()?;
    Some((c1 - c0) / t0.elapsed().as_secs_f64())
}

/// `rinval::algo::mv`: one snapshot read straight off the current version
/// versus one that walks the version ring because `depth` commits have
/// overwritten the word since the reader's snapshot. Both are timed inside
/// the body of a `run_ro`, over 64 words.
pub fn mv_read_ns(kind: AlgorithmKind, depth: usize, budget: Duration) -> f64 {
    const WORDS: u32 = 64;
    let inst = Instance::plain(kind);
    let words = inst.alloc(WORDS as usize);
    // Reader → writer: "snapshot `n` is taken"; writer → reader: "the
    // commits on top of snapshot `n` are done".
    let snapshots = AtomicU64::new(0);
    let overwritten = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (inst, snapshots, overwritten, stop) = (&inst, &snapshots, &overwritten, &stop);
        s.spawn(move || {
            let mut th = inst.register_thread();
            let mut done = 0u64;
            loop {
                while snapshots.load(Ordering::SeqCst) == done {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::yield_now();
                }
                done += 1;
                for round in 0..depth as u64 {
                    th.run(|tx| {
                        for i in 0..WORDS {
                            tx.write(words.field(i), done * 16 + round)?;
                        }
                        Ok(())
                    });
                }
                overwritten.store(done, Ordering::SeqCst);
            }
        });

        let mut th = inst.register_thread();
        let mut samples = Vec::new();
        let deadline = Instant::now() + budget;
        let mut n = 0u64;
        while samples.len() < 5 || (Instant::now() < deadline && samples.len() < 100_000) {
            n += 1;
            let mut announced = false;
            let ns = th.run_ro(|tx| {
                if !std::mem::replace(&mut announced, true) {
                    snapshots.store(n, Ordering::SeqCst);
                }
                while overwritten.load(Ordering::SeqCst) < n {
                    std::thread::yield_now();
                }
                let t0 = Instant::now();
                let mut sum = 0u64;
                for i in 0..WORDS {
                    sum = sum.wrapping_add(tx.read(words.field(i))?);
                }
                black_box(sum);
                Ok(t0.elapsed().as_nanos() as f64 / WORDS as f64)
            });
            samples.push(ns);
        }
        stop.store(true, Ordering::SeqCst);
        median(&samples)
    })
}

/// `rinval::heap`: one transactional `alloc(6)` + `free` pair (a tree
/// node's worth), as the difference to an empty transaction on NOrec.
pub fn heap_alloc_free_ns(budget: Duration) -> f64 {
    let inst = Instance::plain(AlgorithmKind::NOrec);
    let mut th = inst.register_thread();
    let empty = ns_per_op(budget, || th.run(|_| Ok(())));
    let pair = ns_per_op(budget, || {
        th.run(|tx| {
            let h: Handle = tx.alloc(6)?;
            tx.free(h, 6)
        })
    });
    pair - empty
}

/// `simcore`: simulated megacycles per wall second on the paper's
/// red-black-tree preset at 16 simulated threads — what the simulator
/// costs the test suite, not a property of the STM.
pub fn simcore_mcycles_per_s(seed: u64, cycles: u64) -> f64 {
    let mut cfg = simcore::SimConfig::new(
        simcore::SimAlgorithm::RInvalV2 { invalidators: 4 },
        16,
        simcore::presets::rbtree(50),
    );
    cfg.duration_cycles = cycles;
    cfg.seed = seed;
    let t0 = Instant::now();
    let result = simcore::simulate(&cfg);
    let wall = t0.elapsed().as_secs_f64();
    black_box(result.commits);
    cycles as f64 / 1e6 / wall
}
