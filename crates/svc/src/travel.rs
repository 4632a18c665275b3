//! The STAMP `vacation` workload as service endpoints, over the same
//! [`stamp::vacation::Database`] (and therefore the same conservation
//! invariants) the benchmark harness verifies.
//!
//! Candidate resource lists are derived deterministically from the request
//! args with the workload's own [`SplitMix`], so a retried request
//! examines the same resources — not that correctness depends on it (the
//! dedup window already guarantees a retry never re-applies), but it keeps
//! request semantics a pure function of the request.

use crate::{EndpointDesc, Request, Workload};
use rinval::{Stm, TxResult, Txn};
use stamp::vacation::{Config, Database};
use stamp::SplitMix;

/// `reserve(relation, customer, candidate_seed)` — write; returns 1 if a
/// resource was reserved, 0 if everything examined was sold out.
pub const EP_RESERVE: u8 = 0;
/// `release(customer)` — write; refunds (zeroes) the customer's bill.
pub const EP_RELEASE: u8 = 1;
/// `reprice(relation, resource_seed, price_seed)` — write; manager
/// re-price of one resource.
pub const EP_REPRICE: u8 = 2;
/// `quote(relation, candidate_seed)` — read; cheapest in-stock price among
/// the candidates, or [`crate::STALE_DUPLICATE`]-distinct sentinel
/// `u64::MAX - 1` when sold out.
pub const EP_QUOTE: u8 = 3;

/// Returned by `quote` when every candidate was sold out.
pub const QUOTE_SOLD_OUT: u64 = u64::MAX - 1;

const ENDPOINTS: &[EndpointDesc] = &[
    EndpointDesc {
        name: "reserve",
        writes: true,
    },
    EndpointDesc {
        name: "release",
        writes: true,
    },
    EndpointDesc {
        name: "reprice",
        writes: true,
    },
    EndpointDesc {
        name: "quote",
        writes: false,
    },
];

/// The travel-agency service: a vacation database plus its workload
/// parameters (candidate count, table sizes).
pub struct TravelService {
    /// The underlying STAMP database.
    pub db: Database,
    /// Workload geometry (resources, customers, queries per reservation).
    pub cfg: Config,
}

impl TravelService {
    /// Builds and populates the database (quiescent).
    pub fn setup(stm: &Stm, cfg: Config) -> TravelService {
        TravelService {
            db: Database::setup(stm, &cfg),
            cfg,
        }
    }

    /// Conservation invariants of the underlying database. Quiescent.
    pub fn verify(&self, stm: &Stm) -> Result<(), String> {
        self.db.verify(stm, &self.cfg)
    }

    /// Deterministic candidate list for a reservation/quote request.
    fn candidates(&self, seed: u64) -> Vec<u64> {
        let mut rng = SplitMix::new(seed ^ 0x7255_4156); // "TRAV"-ish salt
        (0..self.cfg.queries)
            .map(|_| rng.below(self.cfg.resources))
            .collect()
    }
}

impl Workload for TravelService {
    fn endpoints(&self) -> &'static [EndpointDesc] {
        ENDPOINTS
    }

    fn apply(&self, tx: &mut Txn<'_>, req: &Request) -> TxResult<u64> {
        match req.endpoint {
            EP_RESERVE => {
                let rel = (req.args[0] % 3) as usize;
                let customer = req.args[1] % self.cfg.customers;
                let cands = self.candidates(req.args[2]);
                Ok(self.db.reserve(tx, rel, &cands, customer)? as u64)
            }
            EP_RELEASE => {
                let customer = req.args[0] % self.cfg.customers;
                self.db.delete_customer(tx, customer)?;
                Ok(0)
            }
            EP_REPRICE => {
                let rel = (req.args[0] % 3) as usize;
                let id = req.args[1] % self.cfg.resources;
                let price = 50 + req.args[2] % 450;
                self.db.update_price(tx, rel, id, price)?;
                Ok(price)
            }
            other => unreachable!("travel: unknown write endpoint {other}"),
        }
    }

    fn query(&self, tx: &mut Txn<'_>, req: &Request) -> TxResult<u64> {
        debug_assert_eq!(req.endpoint, EP_QUOTE);
        let rel = (req.args[0] % 3) as usize;
        let cands = self.candidates(req.args[1]);
        Ok(self.db.quote(tx, rel, &cands)?.unwrap_or(QUOTE_SOLD_OUT))
    }

    fn verify(&self, stm: &Stm) -> Result<(), String> {
        TravelService::verify(self, stm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rinval::AlgorithmKind;

    #[test]
    fn endpoints_conserve_database_invariants() {
        let cfg = Config {
            resources: 16,
            customers: 8,
            transactions: 0,
            ..Config::default()
        };
        let stm = Stm::builder(AlgorithmKind::NOrec)
            .heap_words(1 << 16)
            .build();
        let svc = TravelService::setup(&stm, cfg);
        let mut th = stm.register_thread();
        let mk = |endpoint, args| Request {
            client: 0,
            key: 1,
            endpoint,
            args,
        };
        let quoted = th.run_ro(|tx| svc.query(tx, &mk(EP_QUOTE, [0, 7, 0, 0])));
        assert_ne!(quoted, QUOTE_SOLD_OUT, "fresh database has stock");
        let reserved = th.run(|tx| svc.apply(tx, &mk(EP_RESERVE, [0, 3, 7, 0])));
        assert_eq!(reserved, 1, "same candidates as the quote");
        th.run(|tx| svc.apply(tx, &mk(EP_RELEASE, [3, 0, 0, 0])));
        th.run(|tx| svc.apply(tx, &mk(EP_REPRICE, [1, 5, 9, 0])));
        svc.verify(&stm).unwrap();
    }
}
