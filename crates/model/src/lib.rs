//! # oodb-model — a VODAK-like encapsulated object model
//!
//! The paper's host system is VODAK, GMD-IPSI's object-oriented DBMS:
//! encapsulated objects, methods, inheritance of structure and
//! operations. This crate provides the slice of such a system that the
//! concurrency machinery interacts with:
//!
//! * [`types`] — object types with methods, inheritance, and the
//!   per-type commutativity specification (the semantic knowledge the
//!   implementor of a type contributes, §2 of the paper);
//! * [`database`] — instances and message dispatch: sending
//!   `object.method(args)` runs the implementation *and* records the
//!   open-nested action tree as a side effect;
//! * [`recorder`] — the bridge from live execution to
//!   [`oodb_core`]'s transaction systems and histories (Axiom 1 order is
//!   realized by recording primitive executions in real time);
//! * [`versions`] — per-property committed version chains: snapshot
//!   (MVCC) transactions read the newest version at or below their
//!   begin timestamp and buffer their writes until the commit point.

#![warn(missing_docs)]

pub mod database;
pub mod recorder;
pub mod types;
pub mod versions;

pub use database::{
    method, primitive_method, Database, Instance, Method, MethodOutcome, ModelError, SnapshotId,
};
pub use recorder::{Recorder, RecorderStats, TxnCtx};
pub use types::{ObjectType, TypeError, TypeRegistry};
pub use versions::VersionChain;
