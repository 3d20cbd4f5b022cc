//! Post-hoc serializability audit of an engine run.
//!
//! Deferred-writes note: under the optimistic control writes are
//! deferred to the commit point; reads see committed state when issued.
//! The recorded history is that *physical* primitive order: a read is
//! recorded when it hits the committed tree, a deferred write when it
//! is installed at the commit point, under the install gate. The audit therefore
//! needs nothing strategy-specific: deferral changes *when* primitives
//! execute, never what the record means.

use crate::cc::ConcurrencyControl;
use oodb_core::history::History;
use oodb_core::ids::TxnIdx;
use oodb_core::prelude::{analyze, extend_virtual_objects, SerializabilityReport};
use oodb_core::system::TransactionSystem;
use oodb_model::Recorder;
use std::collections::BTreeSet;

/// What part of the record the audit verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditScope {
    /// The complete record: forward work, aborted attempts, and their
    /// compensations. Strict 2PL keeps even this oo-serializable.
    FullRecord,
    /// Only committed transactions — the projection an optimistic
    /// certifier guarantees (aborted attempts may have observed state
    /// that was later compensated away).
    CommittedOnly,
}

/// The verified record of a finished engine run.
pub struct AuditOutput {
    /// The recorded, Definition 5-extended transaction system.
    pub ts: TransactionSystem,
    /// The audited history (scope per [`AuditOutput::scope`]).
    pub history: History,
    /// Checker verdicts over the audited history.
    pub report: SerializabilityReport,
    /// Which sub-history was verified.
    pub scope: AuditScope,
}

impl AuditOutput {
    /// The distinct transactions whose primitives appear in the audited
    /// history. Under [`AuditScope::CommittedOnly`] this is exactly the
    /// merged committed set (the union of every shard's commit
    /// decisions) — retried attempts and compensations never appear;
    /// under [`AuditScope::FullRecord`] it spans the complete record.
    pub fn audited_txns(&self) -> BTreeSet<TxnIdx> {
        self.history
            .order()
            .iter()
            .map(|&a| self.ts.action(a).txn)
            .collect()
    }

    /// The root names of the audited transactions (e.g. `"J3"`,
    /// `"J3r1"`, `"C(J3a0)"`, `"Setup"`), for pinning audit-scope
    /// semantics in tests.
    pub fn audited_txn_names(&self) -> BTreeSet<String> {
        self.audited_txns()
            .iter()
            .map(|t| {
                let root = self.ts.top_level()[t.as_usize()];
                self.ts.action(root).descriptor.method.to_string()
            })
            .collect()
    }
}

/// Snapshot the recorder, extend virtual objects (Definition 5), restrict
/// to the protocol's guaranteed scope, and run every checker.
pub fn audit(rec: &Recorder, cc: &dyn ConcurrencyControl) -> AuditOutput {
    let (mut ts, history) = rec.snapshot();
    extend_virtual_objects(&mut ts);
    match cc.committed_projection(&ts, &history) {
        Some(committed) => AuditOutput {
            report: analyze(&ts, &committed),
            history: committed,
            scope: AuditScope::CommittedOnly,
            ts,
        },
        None => AuditOutput {
            report: analyze(&ts, &history),
            history,
            scope: AuditScope::FullRecord,
            ts,
        },
    }
}
