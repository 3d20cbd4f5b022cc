//! Conflict-rate measurement (experiment B1: the abstract's headline
//! claim — "a lower rate of conflicting accesses than with the
//! conventional definition of serializability is achieved").
//!
//! From one recorded execution we measure, over the same transaction
//! population:
//!
//! * how many cross-transaction primitive (page) access pairs conflict —
//!   the raw material of the conventional definition;
//! * how many transaction *pairs* end up ordered under the conventional
//!   definition (any page conflict orders them);
//! * how many transaction pairs end up ordered under oo-serializability
//!   (only conflicts that survive dependency inheritance through
//!   commuting callers reach the top level).
//!
//! The oo rate is never higher; the gap is the paper's concurrency gain.

use oodb_core::history::History;
use oodb_core::ids::ObjectIdx;
use oodb_core::schedule::{conventional_deps, SystemSchedules};
use oodb_core::system::TransactionSystem;
use std::collections::HashMap;

/// Conflict-rate measurements for one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ConflictRates {
    /// Measured transactions (after skipping setup).
    pub txns: usize,
    /// Unordered measured-transaction pairs.
    pub txn_pairs: usize,
    /// Cross-transaction primitive pairs on a common object.
    pub cross_txn_prim_pairs: usize,
    /// … of which conflicting (page-level read/write).
    pub conflicting_prim_pairs: usize,
    /// Transaction pairs ordered by the conventional definition.
    pub conventional_ordered_pairs: usize,
    /// Transaction pairs ordered at the top level under oo-serializability.
    pub oo_ordered_pairs: usize,
}

impl ConflictRates {
    /// Fraction of transaction pairs ordered conventionally.
    pub fn conventional_rate(&self) -> f64 {
        ratio(self.conventional_ordered_pairs, self.txn_pairs)
    }

    /// Fraction of transaction pairs ordered under oo-serializability.
    pub fn oo_rate(&self) -> f64 {
        ratio(self.oo_ordered_pairs, self.txn_pairs)
    }

    /// Fraction of cross-transaction primitive pairs in conflict.
    pub fn primitive_conflict_rate(&self) -> f64 {
        ratio(self.conflicting_prim_pairs, self.cross_txn_prim_pairs)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Measure conflict rates of a recorded execution, ignoring the first
/// `skip_txns` (setup/preload) transactions.
pub fn conflict_rates(
    ts: &TransactionSystem,
    history: &History,
    skip_txns: usize,
) -> ConflictRates {
    let tops = ts.top_level();
    let measured: Vec<_> = tops.iter().copied().skip(skip_txns).collect();
    let txns = measured.len();
    let txn_pairs = txns * txns.saturating_sub(1) / 2;

    // primitive pairs per object
    let mut by_object: HashMap<ObjectIdx, Vec<oodb_core::ids::ActionIdx>> = HashMap::new();
    for &p in history.order() {
        by_object.entry(ts.action(p).object).or_default().push(p);
    }
    let mut cross = 0usize;
    let mut conflicting = 0usize;
    let skip_roots: Vec<_> = tops.iter().copied().take(skip_txns).collect();
    for prims in by_object.values() {
        for i in 0..prims.len() {
            for j in (i + 1)..prims.len() {
                let (ra, rb) = (ts.root_of(prims[i]), ts.root_of(prims[j]));
                if ra == rb || skip_roots.contains(&ra) || skip_roots.contains(&rb) {
                    continue;
                }
                cross += 1;
                if ts.conflicts(prims[i], prims[j]) {
                    conflicting += 1;
                }
            }
        }
    }

    // ordered pairs: conventional
    let conv = conventional_deps(ts, history);
    let mut conv_pairs = 0usize;
    for (a_i, &a) in measured.iter().enumerate() {
        for &b in measured.iter().skip(a_i + 1) {
            if conv.has_edge(&a, &b) || conv.has_edge(&b, &a) {
                conv_pairs += 1;
            }
        }
    }

    // ordered pairs: oo top level (action deps at the system object)
    let ss = SystemSchedules::infer(ts, history);
    let top = &ss.schedule(ts.system_object()).action_deps;
    let mut oo_pairs = 0usize;
    for (a_i, &a) in measured.iter().enumerate() {
        for &b in measured.iter().skip(a_i + 1) {
            if top.has_edge(&a, &b) || top.has_edge(&b, &a) {
                oo_pairs += 1;
            }
        }
    }

    ConflictRates {
        txns,
        txn_pairs,
        cross_txn_prim_pairs: cross,
        conflicting_prim_pairs: conflicting,
        conventional_ordered_pairs: conv_pairs,
        oo_ordered_pairs: oo_pairs,
    }
}
