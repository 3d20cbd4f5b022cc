//! # oodb-sim — workloads, measurements and the paper's examples
//!
//! The quantitative side of the reproduction:
//!
//! * [`workloads`] — deterministic generators for the paper's two
//!   settings: the §2 encyclopedia and Figure 1's banking contrast;
//! * [`conflict`] — experiment B1: conventional vs oo conflict rates on
//!   a recorded execution (`oodb-bench` measures the engine's);
//! * [`acceptance`] — experiment B5: the fraction of random
//!   interleavings each serializability definition accepts;
//! * [`paper`] — hand-built reconstructions of the paper's examples;
//! * [`exec`] — the generic lock manager set up for the encyclopedia's
//!   operations.
//!
//! Nothing here executes a transaction: every transaction the
//! repository runs, the experiments' included, runs on one executor,
//! the `oodb-engine` worker pool. The encyclopedia's operations
//! ([`EncOp`], [`apply_op`], [`op_descriptor`], …) belong to
//! [`oodb_btree::ops`]; they are re-exported here at their old paths.

#![warn(missing_docs)]

pub mod acceptance;
pub mod conflict;
pub mod exec;
pub mod paper;
pub mod workloads;

pub use acceptance::{acceptance_rates, AcceptanceConfig, AcceptanceRates};
pub use conflict::{conflict_rates, ConflictRates};
pub use exec::{apply_op, enc_lock_manager, op_descriptor, page_descriptor, ENC_RESOURCE};
pub use paper::{
    added_relation_gap, example1_commuting, example1_conflicting, example2_tree, example4,
};
pub use workloads::{
    banking_workload, encyclopedia_workload, BankOp, BankWorkloadConfig, EncMix, EncOp,
    EncWorkload, EncWorkloadConfig, Skew,
};
