//! # oodb — object-oriented serializability, end to end
//!
//! Facade over the workspace crates reproducing *"Serializability in
//! Object-Oriented Database Systems"* (Rakow, Gu, Neuhold; ICDE 1990):
//!
//! * [`core`] — the paper's formal machinery: open nested transactions,
//!   commutativity, per-object schedules, dependency inheritance,
//!   oo-serializability checkers (plus conventional and multi-level
//!   baselines);
//! * [`model`] — the recorder: live execution staged into the call
//!   trees and histories the checkers read;
//! * [`storage`] — simulated slotted pages behind a buffer pool;
//! * [`btree`] — the encyclopedia substrate: B-link tree + item list,
//!   and the operations every executor runs against it;
//! * [`lock`] — semantic lock manager, open nesting, escrow;
//! * [`recovery`] — the engine log's on-disk representation: CRC-framed
//!   records carrying semantic redo + compensation payloads;
//! * [`sim`] — workload generators, conflict and acceptance
//!   measurements, paper examples;
//! * [`engine`] — a worker-pool transaction engine with pluggable
//!   concurrency control (semantic 2PL or optimistic certification),
//!   admission control, retries, and metrics — the one executor.
//!
//! Start with `examples/quickstart.rs`, then `examples/encyclopedia.rs`
//! and `examples/engine.rs`.

pub use oodb_btree as btree;
pub use oodb_core as core;
pub use oodb_engine as engine;
pub use oodb_lock as lock;
pub use oodb_model as model;
pub use oodb_recovery as recovery;
pub use oodb_sim as sim;
pub use oodb_storage as storage;
