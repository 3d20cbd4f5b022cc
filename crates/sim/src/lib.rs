//! # oodb-sim — workloads, the logical simulator, and paper replays
//!
//! The quantitative side of the reproduction:
//!
//! * [`workloads`] — deterministic generators for the paper's three
//!   settings: the §2 encyclopedia, Figure 1's banking contrast, and the
//!   §1 cooperative-editing motivation;
//! * [`replay`] — runs encyclopedia workloads against the *real* B⁺-tree
//!   + item-list database, recording histories for the core checkers;
//! * [`conflict`] — experiment B1: conventional vs oo conflict rates on
//!   replayed executions;
//! * [`logical`] — experiments B2/B3: a discrete-event lock simulator
//!   comparing page 2PL, open-nested semantic locking, and the
//!   closed-nesting ablation;
//! * [`acceptance`] — experiment B5: the fraction of random
//!   interleavings each serializability definition accepts.

#![warn(missing_docs)]

pub mod acceptance;
pub mod conflict;
pub mod exec;
pub mod logical;
pub mod paper;
pub mod replay;
pub mod workloads;

pub use acceptance::{acceptance_rates, AcceptanceConfig, AcceptanceRates};
pub use conflict::{conflict_rates, ConflictRates};
pub use exec::{apply_op, enc_lock_manager, op_descriptor, page_descriptor, ENC_RESOURCE};
pub use logical::{
    compile_banking, compile_editing, compile_encyclopedia, run_simulation, CompiledWorkload,
    DeadlockPolicy, HoldUntil, LogicalBankConfig, LogicalDocConfig, LogicalEncConfig, LogicalOp,
    LogicalStep, Protocol, SimConfig, SimMetrics,
};
pub use paper::{
    added_relation_gap, example1_commuting, example1_conflicting, example2_tree, example4,
};
pub use replay::{replay_encyclopedia, replay_workload, ReplayOutput};
pub use workloads::{
    banking_workload, editing_workload, encyclopedia_workload, BankOp, BankWorkloadConfig,
    EditStep, EditWorkloadConfig, EncMix, EncOp, EncWorkload, EncWorkloadConfig, Skew,
};
