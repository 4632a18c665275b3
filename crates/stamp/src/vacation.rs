//! STAMP `vacation`: an OLTP-style travel reservation system.
//!
//! Three relations (cars, rooms, flights) live in transactional red-black
//! trees keyed by resource id, each entry packing `available` and `price`.
//! The transaction mix mirrors STAMP's: reservations query several random
//! resources per relation (a sizeable read set) before updating one entry,
//! which makes the workload read-intensive — the profile where the paper's
//! Fig. 8f shows NOrec ahead of all invalidation-based algorithms (aborted
//! readers pay their whole read phase again).
//!
//! Simplifications vs. the C original (documented in DESIGN.md): customers
//! carry a bill instead of a reservation list, and table updates change
//! prices only, so the conservation invariants below stay exact.

use crate::{RunReport, SplitMix};
use rinval::{PhaseStats, Stm, TxResult, Txn};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use txds::{RbTree, TArray};

/// Resource relations.
const NUM_TYPES: usize = 3;

/// Vacation workload parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Resources per relation.
    pub resources: u64,
    /// Customers.
    pub customers: u64,
    /// Initial availability per resource.
    pub initial_avail: u64,
    /// Total transactions to execute.
    pub transactions: usize,
    /// Resources examined per reservation (STAMP's "queries per task").
    pub queries: usize,
    /// Percent of transactions that are reservations (rest split between
    /// customer deletion and price updates).
    pub reserve_pct: u64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            resources: 256,
            customers: 128,
            initial_avail: 100,
            transactions: 4000,
            queries: 8,
            reserve_pct: 80,
            seed: 0xACA7,
        }
    }
}

#[inline]
fn pack(avail: u64, price: u64) -> u64 {
    (avail << 32) | (price & 0xFFFF_FFFF)
}

#[inline]
fn unpack(v: u64) -> (u64, u64) {
    (v >> 32, v & 0xFFFF_FFFF)
}

/// The shared database.
#[derive(Clone, Copy)]
pub struct Database {
    relations: [RbTree; NUM_TYPES],
    customers: RbTree,
    /// Per-relation count of successful reservations.
    reserved: TArray<u64>,
    /// Cells: [revenue, refunded].
    money: TArray<u64>,
}

impl Database {
    /// Builds and populates the database (quiescent).
    pub fn setup(stm: &Stm, cfg: &Config) -> Database {
        let db = Database {
            relations: [RbTree::new(stm), RbTree::new(stm), RbTree::new(stm)],
            customers: RbTree::new(stm),
            reserved: TArray::new(stm, NUM_TYPES),
            money: TArray::new(stm, 2),
        };
        let mut th = stm.register_thread();
        let mut rng = SplitMix::new(cfg.seed ^ 0xDB);
        for (t, rel) in db.relations.iter().enumerate() {
            for r in 0..cfg.resources {
                let price = 50 + rng.below(450);
                th.run(|tx| rel.insert(tx, r, pack(cfg.initial_avail, price)));
                let _ = t;
            }
        }
        for c in 0..cfg.customers {
            th.run(|tx| db.customers.insert(tx, c, 0));
        }
        db
    }

    /// Reservation: query `queries` resources in one relation, reserve the
    /// cheapest available one for `customer`. Returns whether it reserved.
    ///
    /// Public so the `svc` front-end can expose it as a typed endpoint.
    pub fn reserve(
        &self,
        tx: &mut Txn<'_>,
        rel_idx: usize,
        candidates: &[u64],
        customer: u64,
    ) -> TxResult<bool> {
        let rel = self.relations[rel_idx];
        let mut best: Option<(u64, u64, u64)> = None; // (price, id, avail)
        for &id in candidates {
            if let Some(v) = rel.get(tx, id)? {
                let (avail, price) = unpack(v);
                if avail > 0 && best.is_none_or(|(bp, _, _)| price < bp) {
                    best = Some((price, id, avail));
                }
            }
        }
        let Some((price, id, avail)) = best else {
            return Ok(false);
        };
        rel.insert(tx, id, pack(avail - 1, price))?;
        let bill = self.customers.get(tx, customer)?.unwrap_or(0);
        self.customers.insert(tx, customer, bill + price)?;
        self.reserved.update(tx, rel_idx, |r| r + 1)?;
        self.money.update(tx, 0, |rev| rev + price)?;
        Ok(true)
    }

    /// Customer deletion: refund (zero) the bill.
    pub fn delete_customer(&self, tx: &mut Txn<'_>, customer: u64) -> TxResult<()> {
        if let Some(bill) = self.customers.get(tx, customer)? {
            if bill > 0 {
                self.customers.insert(tx, customer, 0)?;
                self.money.update(tx, 1, |ref_| ref_ + bill)?;
            }
        }
        Ok(())
    }

    /// Manager update: re-price a resource.
    pub fn update_price(
        &self,
        tx: &mut Txn<'_>,
        rel_idx: usize,
        id: u64,
        price: u64,
    ) -> TxResult<()> {
        let rel = self.relations[rel_idx];
        if let Some(v) = rel.get(tx, id)? {
            let (avail, _) = unpack(v);
            rel.insert(tx, id, pack(avail, price))?;
        }
        Ok(())
    }

    /// Quote: the cheapest in-stock price among `candidates` in one
    /// relation, or `None` if everything is sold out. Strictly read-only —
    /// safe under [`rinval::ThreadHandle::run_ro`], which is how the `svc`
    /// front-end keeps serving quotes while write traffic is shed.
    pub fn quote(
        &self,
        tx: &mut Txn<'_>,
        rel_idx: usize,
        candidates: &[u64],
    ) -> TxResult<Option<u64>> {
        let rel = self.relations[rel_idx];
        let mut best: Option<u64> = None;
        for &id in candidates {
            if let Some(v) = rel.get(tx, id)? {
                let (avail, price) = unpack(v);
                if avail > 0 && best.is_none_or(|bp| price < bp) {
                    best = Some(price);
                }
            }
        }
        Ok(best)
    }

    /// Checks every conservation invariant. Quiescent only.
    pub fn verify(&self, stm: &Stm, cfg: &Config) -> Result<(), String> {
        for (t, rel) in self.relations.iter().enumerate() {
            let keys = rel.snapshot_keys(stm);
            if keys.len() as u64 != cfg.resources {
                return Err(format!("relation {t} lost resources"));
            }
            rel.check_invariants(stm)
                .map_err(|e| format!("relation {t}: {e}"))?;
        }
        // total - available == reservations, per relation.
        for t in 0..NUM_TYPES {
            let mut consumed = 0u64;
            let rel = self.relations[t];
            for k in rel.snapshot_keys(stm) {
                // peek value via a throwaway transactional read is overkill;
                // snapshot through tree getter in a quiescent transaction.
                let stm_ref = stm;
                let mut th = stm_ref.register_thread();
                let v = th.run(|tx| rel.get(tx, k)).unwrap();
                consumed += cfg.initial_avail - unpack(v).0;
            }
            let recorded = self.reserved.peek(stm, t);
            if consumed != recorded {
                return Err(format!(
                    "relation {t}: consumed availability {consumed} != recorded reservations {recorded}"
                ));
            }
        }
        // revenue - refunds == outstanding bills.
        let revenue = self.money.peek(stm, 0);
        let refunded = self.money.peek(stm, 1);
        let mut bills = 0u64;
        {
            let mut th = stm.register_thread();
            for c in self.customers.snapshot_keys(stm) {
                bills += th.run(|tx| self.customers.get(tx, c)).unwrap_or(0);
            }
        }
        if revenue.wrapping_sub(refunded) != bills {
            return Err(format!(
                "money leak: revenue {revenue} - refunded {refunded} != bills {bills}"
            ));
        }
        Ok(())
    }
}

/// Runs the transaction mix; `checksum` is the total reservation count.
pub fn run(stm: &Stm, threads: usize, cfg: &Config) -> RunReport {
    let db = Database::setup(stm, cfg);
    run_on(stm, db, threads, cfg)
}

/// Runs the mix against an existing database.
pub fn run_on(stm: &Stm, db: Database, threads: usize, cfg: &Config) -> RunReport {
    let next = AtomicUsize::new(0);
    let next = &next;
    let mut merged = PhaseStats::default();
    let started = Instant::now();
    let stats: Vec<PhaseStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut th = stm.register_thread();
                    let mut rng = SplitMix::new(cfg.seed ^ ((t as u64 + 1) << 20));
                    let mut candidates = vec![0u64; cfg.queries];
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cfg.transactions {
                            break;
                        }
                        let kind = rng.below(100);
                        if kind < cfg.reserve_pct {
                            let rel = rng.below(NUM_TYPES as u64) as usize;
                            for c in candidates.iter_mut() {
                                *c = rng.below(cfg.resources);
                            }
                            let cust = rng.below(cfg.customers);
                            let cands = &candidates;
                            th.run(|tx| db.reserve(tx, rel, cands, cust));
                        } else if kind < cfg.reserve_pct + (100 - cfg.reserve_pct) / 2 {
                            let cust = rng.below(cfg.customers);
                            th.run(|tx| db.delete_customer(tx, cust));
                        } else {
                            let rel = rng.below(NUM_TYPES as u64) as usize;
                            let id = rng.below(cfg.resources);
                            let price = 50 + rng.below(450);
                            th.run(|tx| db.update_price(tx, rel, id, price));
                        }
                    }
                    th.take_stats()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = started.elapsed();
    for st in &stats {
        merged.merge(st);
    }
    let checksum: u64 = (0..NUM_TYPES).map(|t| db.reserved.peek(stm, t)).sum();
    RunReport {
        wall,
        stats: merged,
        threads,
        checksum,
        heap: stm.heap_stats(),
        server: stm.server_stats(),
    }
}

/// Builds, runs and verifies in one call (used by tests).
pub fn run_verified(stm: &Stm, threads: usize, cfg: &Config) -> Result<RunReport, String> {
    let db = Database::setup(stm, cfg);
    let report = run_on(stm, db, threads, cfg);
    db.verify(stm, cfg)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rinval::AlgorithmKind;

    fn small() -> Config {
        Config {
            resources: 32,
            customers: 16,
            initial_avail: 20,
            transactions: 400,
            queries: 4,
            reserve_pct: 80,
            seed: 77,
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let v = pack(123, 456);
        assert_eq!(unpack(v), (123, 456));
    }

    #[test]
    fn sequential_conserves_everything() {
        let cfg = small();
        let stm = Stm::builder(AlgorithmKind::NOrec)
            .heap_words(1 << 16)
            .build();
        let report = run_verified(&stm, 1, &cfg).unwrap();
        assert!(report.checksum > 0, "no reservations happened");
    }

    #[test]
    fn concurrent_mix_conserves_across_algorithms() {
        let cfg = small();
        for algo in [
            AlgorithmKind::NOrec,
            AlgorithmKind::InvalStm,
            AlgorithmKind::RInvalV2 { invalidators: 2 },
        ] {
            let stm = Stm::builder(algo).heap_words(1 << 16).build();
            let report = run_verified(&stm, 3, &cfg).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
            assert!(report.checksum > 0);
        }
    }

    #[test]
    fn quote_matches_reserve_choice_and_is_read_only() {
        let cfg = small();
        let stm = Stm::builder(AlgorithmKind::NOrec)
            .heap_words(1 << 16)
            .build();
        let db = Database::setup(&stm, &cfg);
        let cands: Vec<u64> = (0..cfg.resources).collect();
        let mut th = stm.register_thread();
        // run_ro panics on any write, so this also certifies quote is RO.
        let quoted = th.run_ro(|tx| db.quote(tx, 0, &cands)).expect("stocked");
        // Reserving over the same candidates must pick the quoted price.
        let billed_before = 0;
        th.run(|tx| db.reserve(tx, 0, &cands, 0));
        let bill = th.run(|tx| db.customers.get(tx, 0)).unwrap_or(0);
        assert_eq!(bill - billed_before, quoted);
        db.verify(&stm, &cfg).unwrap();
    }

    #[test]
    fn reservations_deplete_availability() {
        let mut cfg = small();
        cfg.resources = 2;
        cfg.queries = 2;
        cfg.initial_avail = 3;
        cfg.reserve_pct = 100;
        cfg.transactions = 300;
        let stm = Stm::builder(AlgorithmKind::NOrec)
            .heap_words(1 << 16)
            .build();
        let db = Database::setup(&stm, &cfg);
        let report = run_on(&stm, db, 2, &cfg);
        db.verify(&stm, &cfg).unwrap();
        // 2 relations' worth of capacity is 2 * 3 per relation × 3 relations;
        // with 100 reservation attempts everything sellable sells out.
        assert_eq!(report.checksum, 3 * 2 * 3, "did not sell out");
    }
}
