//! # oodb-lock — semantic locking protocols
//!
//! The online side of the paper: protocols that *produce* oo-serializable
//! schedules rather than checking them after the fact.
//!
//! * [`table`] — a step-based lock manager whose modes are commutativity
//!   descriptors (Definition 9): with read/write descriptors on pages it
//!   is classical strict 2PL; with key/escrow descriptors on objects it is
//!   the open-nested semantic protocol, where a subtransaction's commit
//!   releases its locks.
//! * [`escrow`] — O'Neil-style escrow accounts for bounded counters.
//!
//! Deadlocks are detected on the waits-for graph, projected onto
//! top-level transactions.
//!
//! The engine's strict 2PL (`oodb_engine::LockingCc`) does not run on
//! [`LockManager`]: its lock stripes keep their own grant lists and ask
//! the encyclopedia's spec directly. [`LockManager`]'s users are the repo
//! benchmark's `lock.*` rows and its replays (`benchmark/src/layers.rs`,
//! `benchmark/src/replay.rs`), the test-side oracle the engine's stripes
//! are checked against (`a_stripe_answers_as_the_lock_manager`), and this
//! crate's property tests.

#![warn(missing_docs)]

pub mod escrow;
pub mod table;

pub use escrow::{EscrowAccount, EscrowError, EscrowOwner};
pub use table::{LockManager, LockOutcome, OwnerId, ResourceId};
