//! # txds — transactional data structures on the `rinval` STM
//!
//! The paper evaluates its algorithms on a red-black-tree micro-benchmark
//! and on STAMP, whose applications are built from a small set of shared
//! structures (trees, lists, hash tables, queues, grids). This crate
//! provides those structures as *transactional* types: every operation
//! takes a [`rinval::Txn`] and performs all shared accesses through it, so
//! an operation (or several, composed) executes atomically under whichever
//! algorithm the [`rinval::Stm`] runs.
//!
//! All structures are handle-based and `Copy`: cloning a structure value
//! aliases the same shared object, like copying a pointer in the C
//! original. Memory comes from the STM's growable heap through its
//! transactional allocation lifecycle ([`rinval::Txn::alloc`] /
//! [`rinval::Txn::free`]): removed nodes are freed in the removing
//! transaction and recycled by the STM once its reclamation horizon
//! passes.
//!
//! ```
//! use rinval::{AlgorithmKind, Stm};
//! use txds::RbTree;
//!
//! let stm = Stm::new(AlgorithmKind::NOrec);
//! let tree = RbTree::new(&stm);
//! let mut th = stm.register_thread();
//! th.run(|tx| {
//!     tree.insert(tx, 5, 50)?;
//!     tree.insert(tx, 3, 30)
//! });
//! let v = th.run(|tx| tree.get(tx, 5));
//! assert_eq!(v, Some(50));
//! ```

#![warn(missing_docs)]

pub mod bitmap;
pub mod hashtable;
pub mod list;
pub mod queue;
pub mod rbtree;
pub mod tarray;

pub use bitmap::TBitmap;
pub use hashtable::THashMap;
pub use list::TSortedList;
pub use queue::TQueue;
pub use rbtree::RbTree;
pub use tarray::TArray;
