//! # rinval-repro — Remote Invalidation, reproduced in Rust
//!
//! Umbrella crate for the reproduction of *"Remote Invalidation:
//! Optimizing the Critical Path of Memory Transactions"* (Hassan,
//! Palmieri, Ravindran — IPDPS 2014). It re-exports the four member
//! crates:
//!
//! * [`rinval`] — the STM library: NOrec, InvalSTM and RInval V1/V2/MV
//!   over a word-based transactional heap.
//! * [`txds`] — transactional data structures (red-black tree, sorted
//!   list, hash map, queue, bitmap, arrays).
//! * [`stamp`] — STAMP-like benchmark applications with verifiers.
//! * [`simcore`] — the deterministic 64-core discrete-event simulator
//!   used to regenerate the paper's figures on small hosts.
//!
//! See README.md for a tour and DESIGN.md / EXPERIMENTS.md for the
//! reproduction methodology and results.

pub use rinval;
pub use simcore;
pub use stamp;
pub use txds;

/// Convenience re-export of the most common entry points.
pub mod prelude {
    pub use rinval::{AlgorithmKind, Handle, Stm, TVar, ThreadHandle, TxResult, Txn};
    pub use txds::{RbTree, TBitmap, THashMap, TQueue, TSortedList};
}
