//! The bank workload as service endpoints: transfers, balance lookups and
//! full-ledger audits over a flat account array.
//!
//! This is `examples/bank.rs` recast behind the front-end: the transfer is
//! the write endpoint (conserving total money), and the audit sums every
//! account inside one read-only transaction — under an opaque STM it must
//! always observe the conserved total, which makes it both a useful
//! endpoint and a live invariant check.

use crate::{EndpointDesc, Request, Workload};
use rinval::{Handle, Stm, TxResult, Txn};

/// `transfer(from, to, amount)` — write; returns the amount moved (0 when
/// the source lacked funds or `from == to`).
pub const EP_TRANSFER: u8 = 0;
/// `balance(account)` — read; returns the account balance.
pub const EP_BALANCE: u8 = 1;
/// `audit()` — read; returns the whole-ledger sum.
pub const EP_AUDIT: u8 = 2;

const ENDPOINTS: &[EndpointDesc] = &[
    EndpointDesc {
        name: "transfer",
        writes: true,
    },
    EndpointDesc {
        name: "balance",
        writes: false,
    },
    EndpointDesc {
        name: "audit",
        writes: false,
    },
];

/// The shared ledger.
pub struct BankService {
    accounts: Handle,
    /// Number of accounts.
    pub accounts_len: u64,
    /// Initial balance per account (conserved total = `accounts_len ×
    /// initial`).
    pub initial: u64,
}

impl BankService {
    /// Allocates and funds the ledger (quiescent).
    pub fn setup(stm: &Stm, accounts: u64, initial: u64) -> BankService {
        let h = stm.alloc(accounts as usize);
        for i in 0..accounts {
            stm.poke(h.field(i as u32), initial);
        }
        BankService {
            accounts: h,
            accounts_len: accounts,
            initial,
        }
    }

    /// Quiescent whole-ledger sum.
    pub fn total(&self, stm: &Stm) -> u64 {
        (0..self.accounts_len)
            .map(|i| stm.peek(self.accounts.field(i as u32)))
            .sum()
    }

    /// Conservation invariant: no money created or destroyed. Quiescent.
    pub fn verify(&self, stm: &Stm) -> Result<(), String> {
        let total = self.total(stm);
        let expected = self.accounts_len * self.initial;
        if total == expected {
            Ok(())
        } else {
            Err(format!("bank: ledger total {total} != expected {expected}"))
        }
    }
}

impl Workload for BankService {
    fn endpoints(&self) -> &'static [EndpointDesc] {
        ENDPOINTS
    }

    fn apply(&self, tx: &mut Txn<'_>, req: &Request) -> TxResult<u64> {
        debug_assert_eq!(req.endpoint, EP_TRANSFER);
        let from = req.args[0] % self.accounts_len;
        let to = req.args[1] % self.accounts_len;
        let amount = req.args[2];
        if from == to {
            return Ok(0);
        }
        let f = tx.read(self.accounts.field(from as u32))?;
        if f < amount {
            return Ok(0); // insufficient funds: a successful no-op
        }
        let t = tx.read(self.accounts.field(to as u32))?;
        tx.write(self.accounts.field(from as u32), f - amount)?;
        tx.write(self.accounts.field(to as u32), t + amount)?;
        Ok(amount)
    }

    fn query(&self, tx: &mut Txn<'_>, req: &Request) -> TxResult<u64> {
        match req.endpoint {
            EP_BALANCE => tx.read(
                self.accounts
                    .field((req.args[0] % self.accounts_len) as u32),
            ),
            EP_AUDIT => {
                let mut sum = 0u64;
                for i in 0..self.accounts_len {
                    sum += tx.read(self.accounts.field(i as u32))?;
                }
                Ok(sum)
            }
            other => unreachable!("bank: unknown read endpoint {other}"),
        }
    }

    fn verify(&self, stm: &Stm) -> Result<(), String> {
        BankService::verify(self, stm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rinval::AlgorithmKind;

    #[test]
    fn transfer_conserves_and_audit_sees_total() {
        let stm = Stm::builder(AlgorithmKind::NOrec)
            .heap_words(1 << 12)
            .build();
        let bank = BankService::setup(&stm, 8, 100);
        let mut th = stm.register_thread();
        let req = Request {
            client: 0,
            key: 1,
            endpoint: EP_TRANSFER,
            args: [1, 3, 40, 0],
        };
        let moved = th.run(|tx| bank.apply(tx, &req));
        assert_eq!(moved, 40);
        let audit = Request {
            client: 0,
            key: 0,
            endpoint: EP_AUDIT,
            args: [0; 4],
        };
        assert_eq!(th.run_ro(|tx| bank.query(tx, &audit)), 800);
        bank.verify(&stm).unwrap();
        // Insufficient funds and self-transfers are conserving no-ops.
        let broke = Request {
            client: 0,
            key: 2,
            endpoint: EP_TRANSFER,
            args: [1, 3, 1_000_000, 0],
        };
        assert_eq!(th.run(|tx| bank.apply(tx, &broke)), 0);
        bank.verify(&stm).unwrap();
    }
}
