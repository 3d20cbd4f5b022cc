//! # oodb-model — the recorder
//!
//! The paper's host system is VODAK, GMD-IPSI's object-oriented DBMS:
//! encapsulated objects that are only accessible by their methods. What
//! the concurrency machinery needs of such a system is the *call tree*
//! a message send leaves behind, and this crate is exactly that:
//!
//! * [`recorder`] — the bridge from live execution to [`oodb_core`]'s
//!   transaction systems and histories. An object is registered with its
//!   commutativity specification ([`Recorder::object`] — the semantic
//!   knowledge the implementor of a type contributes, §2 of the paper);
//!   sending `object.method(args)` is [`TxnCtx::enter`] … [`TxnCtx::exit`]
//!   around whatever the body sends, or [`TxnCtx::primitive`] for a
//!   method that touches only the receiver's own state (Axiom 1 order is
//!   realized by recording primitive executions in real time).
//!
//! Object state lives with whoever executes the methods: the B-link
//! tree and item list of `oodb-btree`, the engine's version store.

#![warn(missing_docs)]

pub mod recorder;

pub use recorder::{Recorder, RecorderStats, TxnCtx};
