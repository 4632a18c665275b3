//! A concurrent bank: transfer transactions race with full-ledger audits.
//!
//! The audit transaction sums every account *inside one transaction*, so
//! under an opaque STM it must always observe the conserved total — run
//! with any algorithm and watch zero violations. This is the classic
//! snapshot-consistency demo the paper's opacity guarantee (§IV-E)
//! enables.
//!
//! ```sh
//! cargo run --example bank [algorithm] [threads]
//! # e.g.
//! cargo run --example bank rinval-v2 4
//! ```
//!
//! `[algorithm]` is any name `AlgorithmKind`'s `FromStr` accepts
//! (`rinval-mv:2:2`, `norec`, …).
//!
//! With `--serve`, the same workload runs through the `svc` front-end
//! instead of hand-rolled thread loops: each transfer thread becomes a
//! thin client submitting idempotent requests (retrying on shed with the
//! same key), and the auditor becomes a read endpoint served via `run_ro`:
//!
//! ```sh
//! cargo run --example bank -- rinval-v2 4 --serve
//! ```

use rinval_repro::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const ACCOUNTS: usize = 64;
const INITIAL: u64 = 1_000;

/// The `--serve` mode: the same conserved ledger, fronted by the service
/// layer. Thin clients retry-with-backoff on shed and reuse idempotency
/// keys, so every transfer lands exactly once even under admission
/// control.
fn serve_mode(algo: AlgorithmKind, threads: usize) {
    const TRANSFERS_PER_CLIENT: u64 = 2_000;
    let stm = Stm::builder(algo).heap_words(1 << 14).build();
    let bank = svc::bank::BankService::setup(&stm, ACCOUNTS as u64, INITIAL);
    let cfg = svc::SvcConfig {
        workers: threads,
        clients: threads as u64 + 1,
        ..svc::SvcConfig::default()
    };
    println!(
        "bank --serve: {threads} thin clients + 1 auditor over {} workers, algorithm {}",
        cfg.workers,
        algo.name()
    );
    svc::serve(&stm, &bank, &cfg, |front| {
        std::thread::scope(|s| {
            for c in 0..threads as u64 {
                s.spawn(move || {
                    let mut seed = 0x1234_5678 ^ (c + 1);
                    for key in 1..=TRANSFERS_PER_CLIENT {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let req = svc::Request {
                            client: c,
                            key,
                            endpoint: svc::bank::EP_TRANSFER,
                            args: [seed >> 33, seed >> 13, seed % 50, 0],
                        };
                        // Closed loop: the same key retries until acked.
                        loop {
                            match front.call(req, Duration::from_secs(5)) {
                                Ok(_) => break,
                                Err(svc::SvcError::Shutdown) => return,
                                Err(_) => std::thread::sleep(Duration::from_micros(200)),
                            }
                        }
                    }
                });
            }
            s.spawn(move || {
                let auditor = threads as u64; // client id reserved for reads
                let expected = INITIAL * ACCOUNTS as u64;
                let mut audits = 0u64;
                loop {
                    let req = svc::Request {
                        client: auditor,
                        key: 0,
                        endpoint: svc::bank::EP_AUDIT,
                        args: [0; 4],
                    };
                    match front.call(req, Duration::from_secs(5)) {
                        Ok(total) => {
                            assert_eq!(total, expected, "AUDIT VIOLATION: torn snapshot!");
                            audits += 1;
                        }
                        Err(svc::SvcError::Shutdown) => return,
                        Err(_) => {}
                    }
                    let done: u64 = (0..threads as u64).map(|c| front.applied_ops(c)).sum();
                    if done >= threads as u64 * TRANSFERS_PER_CLIENT {
                        println!("auditor: {audits} audits, every one saw the conserved total {expected}");
                        return;
                    }
                    std::thread::yield_now();
                }
            });
        });
        // The ledger certifies exactly-once delivery end to end.
        for c in 0..threads as u64 {
            assert_eq!(front.applied_ops(c), TRANSFERS_PER_CLIENT);
        }
        let stats = front.stats();
        println!(
            "service: accepted={} shed={} dedup_hits={} timeouts={}",
            stats.accepted, stats.shed_writes, stats.dedup_hits, stats.client_timeouts
        );
    });
    bank.verify(&stm).expect("conservation");
    println!("final ledger conserved — OK");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let algo: AlgorithmKind = match args.get(1).map_or("rinval-v2:2", String::as_str).parse() {
        Ok(algo) => algo,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let threads: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    if args.iter().any(|a| a == "--serve") {
        return serve_mode(algo, threads);
    }

    let stm = Stm::builder(algo).heap_words(1 << 12).build();
    println!(
        "bank: {} transfer threads + 1 auditor, algorithm {}",
        threads,
        algo.name()
    );

    let accounts = stm.alloc(ACCOUNTS);
    for i in 0..ACCOUNTS {
        stm.poke(accounts.field(i as u32), INITIAL);
    }
    let expected = INITIAL * ACCOUNTS as u64;
    let transfers_done = AtomicU64::new(0);
    let transfers_done = &transfers_done;
    let stm_ref = &stm;

    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            s.spawn(move || {
                let mut th = stm_ref.register_thread();
                let mut seed = 0x1234_5678 ^ (t + 1);
                for _ in 0..20_000 {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let from = (seed >> 33) as usize % ACCOUNTS;
                    let to = (seed >> 13) as usize % ACCOUNTS;
                    if from == to {
                        // Still counts: the auditor exits on the loop total.
                        transfers_done.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let amount = seed % 50;
                    th.run(|tx| {
                        let f = tx.read(accounts.field(from as u32))?;
                        if f < amount {
                            return Ok(()); // insufficient funds; no-op
                        }
                        let g = tx.read(accounts.field(to as u32))?;
                        tx.write(accounts.field(from as u32), f - amount)?;
                        tx.write(accounts.field(to as u32), g + amount)
                    });
                    transfers_done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        s.spawn(move || {
            let mut th = stm_ref.register_thread();
            let mut audits = 0u64;
            loop {
                let total = th.run(|tx| {
                    let mut sum = 0u64;
                    for i in 0..ACCOUNTS {
                        sum += tx.read(accounts.field(i as u32))?;
                    }
                    Ok(sum)
                });
                assert_eq!(total, expected, "AUDIT VIOLATION: torn snapshot observed!");
                audits += 1;
                if transfers_done.load(Ordering::Relaxed) >= threads as u64 * 20_000 {
                    println!(
                        "auditor: {audits} audits, every one saw the conserved total {expected}"
                    );
                    break;
                }
                std::thread::yield_now();
            }
        });
    });

    let final_total: u64 = (0..ACCOUNTS)
        .map(|i| stm.peek(accounts.field(i as u32)))
        .sum();
    println!(
        "final ledger total: {final_total} (expected {expected}) — {}",
        if final_total == expected {
            "OK"
        } else {
            "BROKEN"
        }
    );
    assert_eq!(final_total, expected);
}
