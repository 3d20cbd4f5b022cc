//! # oodb-core — Object-Oriented Serializability
//!
//! An executable implementation of *"Serializability in Object-Oriented
//! Database Systems"* (Thomas C. Rakow, Junzhong Gu, Erich J. Neuhold;
//! ICDE 1990): open nested transactions over encapsulated objects,
//! per-object schedules with semantic (commutativity-based) conflicts,
//! dependency inheritance, and the resulting notion of
//! **oo-serializability**.
//!
//! ## Model walkthrough
//!
//! 1. Build a [`system::TransactionSystem`]: register objects with the
//!    [`commutativity::CommutativitySpec`] of their type, then build
//!    top-level transactions as call trees of actions
//!    ([`system::TxnBuilder`]).
//! 2. If any transaction calls back into an object an ancestor already
//!    accesses, apply [`extension::extend_virtual_objects`]
//!    (Definition 5).
//! 3. Record a [`history::History`] — the execution order of the
//!    *primitive* actions (Axiom 1).
//! 4. Infer all per-object dependency relations with
//!    [`schedule::SystemSchedules::infer`] (Definitions 6, 10, 11, 15).
//! 5. Check serializability with [`serializability::analyze`]
//!    (Definitions 13 and 16), which also reports the conventional
//!    (page-level) and multi-level verdicts for comparison.
//!
//! ```
//! use oodb_core::prelude::*;
//! use std::sync::Arc;
//!
//! let mut ts = TransactionSystem::new();
//! let leaf = ts.add_object("Leaf11", Arc::new(RangeSpec::ordered_container("leaf")));
//! let page = ts.add_object("Page4712", Arc::new(ReadWriteSpec));
//!
//! // T1 inserts DBS, T2 inserts DBMS — different keys, same page.
//! let mut prims = Vec::new();
//! for (name, k) in [("T1", "DBS"), ("T2", "DBMS")] {
//!     let mut b = ts.txn(name);
//!     b.call(leaf, ActionDescriptor::new("insert", vec![key(k)]));
//!     prims.push(b.leaf(page, ActionDescriptor::nullary("read")));
//!     prims.push(b.leaf(page, ActionDescriptor::nullary("write")));
//!     b.end();
//!     b.finish();
//! }
//!
//! let h = History::from_order(&ts, &[prims[0], prims[1], prims[2], prims[3]]).unwrap();
//! let report = analyze(&ts, &h);
//! assert!(report.oo_decentralized.is_ok());
//! // and the top-level transactions stay unordered (the paper's gain):
//! let ss = SystemSchedules::infer(&ts, &h);
//! assert_eq!(ss.schedule(ts.system_object()).action_deps.edge_count(), 0);
//! ```

#![warn(missing_docs)]

pub mod certifier;
pub mod commutativity;
pub mod compensation;
pub mod extension;
pub mod graph;
pub mod history;
pub mod ids;
pub mod incremental;
pub mod retention;
pub mod schedule;
pub mod serializability;
pub mod system;
pub mod value;

/// Convenience re-exports of the items almost every user needs.
pub mod prelude {
    pub use crate::certifier::{Certifier, CertifierStats, CommitOutcome};
    pub use crate::commutativity::{
        ActionDescriptor, AllCommute, AllConflict, CommutativitySpec, EscrowSpec, MatrixSpec,
        Method, RangeSpec, ReadWriteSpec, SpecRef,
    };
    pub use crate::compensation::Inverse;
    pub use crate::extension::{extend_virtual_objects, ExtensionReport};
    pub use crate::graph::DiGraph;
    pub use crate::history::{History, HistoryError};
    pub use crate::ids::{ActionIdx, ActionPath, ObjectIdx, TxnIdx};
    pub use crate::incremental::IncrementalSchedules;
    pub use crate::schedule::{conventional_deps, Derivation, ObjectSchedule, SystemSchedules};
    pub use crate::serializability::{
        analyze, check_conventional, check_multilevel, check_object, check_system_decentralized,
        check_system_global, SerializabilityReport, Violation,
    };
    pub use crate::system::{ActionInfo, ObjectInfo, TransactionSystem, TxnBuilder};
    pub use crate::value::{key, Value};
}
