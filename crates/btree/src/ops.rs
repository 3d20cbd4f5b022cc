//! The encyclopedia's operation vocabulary, and what each operation
//! means.
//!
//! The `oodb-engine` worker pool and the repo benchmark's serial replay
//! run the same [`EncOp`]s through the same primitives:
//!
//! * [`op_descriptor`] — map an [`EncOp`] to the semantic
//!   [`ActionDescriptor`] used as its lock mode;
//! * [`page_descriptor`] — the page-level (read/write) ablation of the
//!   same mapping, for measuring what semantic commutativity buys;
//! * [`apply_op`] — execute one operation against a
//!   [`CompensatedEncyclopedia`] inside a recorded transaction;
//! * [`write_text`] — the text a mutating operation installs.
//!
//! Keeping these in one place guarantees every executor agrees on what an
//! operation *means* — both its semantics and its conflict footprint.

use crate::compensated::CompensatedEncyclopedia;
use oodb_core::commutativity::{ActionDescriptor, Method};
use oodb_model::TxnCtx;

/// One encyclopedia-level operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncOp {
    /// Insert `key` with text.
    Insert(String),
    /// Exact lookup of `key`.
    Search(String),
    /// Change the item stored under `key`.
    Change(String),
    /// Delete `key`.
    Delete(String),
    /// Sequential read of all items.
    ReadSeq,
    /// Range query over `[lo, hi]` (inclusive).
    Range(String, String),
}

impl EncOp {
    /// The key this operation targets, if any (ranges report their lower
    /// bound).
    pub fn key(&self) -> Option<&str> {
        match self {
            EncOp::Insert(k) | EncOp::Search(k) | EncOp::Change(k) | EncOp::Delete(k) => Some(k),
            EncOp::Range(lo, _) => Some(lo),
            EncOp::ReadSeq => None,
        }
    }
}

/// An encyclopedia workload: preload keys plus one operation list per
/// transaction.
#[derive(Debug, Clone)]
pub struct EncWorkload {
    /// Keys inserted before measurement starts.
    pub preload_keys: Vec<String>,
    /// Per-transaction operation lists.
    pub txn_ops: Vec<Vec<EncOp>>,
}

/// The semantic lock mode of `op`: the paper's per-operation
/// [`ActionDescriptor`], so commuting operations (e.g. inserts of
/// different keys, or any two searches) coexist. Allocation-free: the
/// kind is a constant and the keys are stored inline.
pub fn op_descriptor(op: &EncOp) -> ActionDescriptor {
    match op {
        EncOp::Insert(k) => ActionDescriptor::keyed(Method::Insert, k),
        EncOp::Search(k) => ActionDescriptor::keyed(Method::Search, k),
        EncOp::Change(k) => ActionDescriptor::keyed(Method::Update, k),
        EncOp::Delete(k) => ActionDescriptor::keyed(Method::Delete, k),
        EncOp::ReadSeq => ActionDescriptor::nullary(Method::ReadSeq),
        EncOp::Range(lo, hi) => ActionDescriptor::range(Method::RangeScan, lo, hi),
    }
}

/// The page-level ablation of [`op_descriptor`]: every operation is
/// flattened to a whole-container `read` or `write`, discarding argument
/// information. Two writes never commute; reads coexist. This is the
/// conventional-2PL baseline the paper argues against.
pub fn page_descriptor(op: &EncOp) -> ActionDescriptor {
    match op {
        EncOp::Search(_) | EncOp::ReadSeq | EncOp::Range(..) => {
            ActionDescriptor::nullary(Method::ReadSeq)
        }
        EncOp::Insert(_) | EncOp::Change(_) | EncOp::Delete(_) => {
            // `modifySeq` conflicts with everything including itself under
            // the ordered-container spec — the exclusive-write ablation.
            ActionDescriptor::nullary(Method::ModifySeq)
        }
    }
}

/// Execute one operation against the shared encyclopedia inside the
/// recorded transaction `ctx`. `tag` labels values written by mutating
/// operations (typically the 1-based logical transaction number).
///
/// Returns `true` when the operation **engaged its target items**: a
/// write that succeeded (insert of a fresh key, change/delete of an
/// existing one) or a read that found something. A failed write and a
/// search miss both execute as read-only probes of the key's index
/// entry — a trace's `hit` flag carries it, so the dependency graph
/// rebuilt from a trace gets each operation's *effective* conflict
/// footprint exactly.
pub fn apply_op(enc: &CompensatedEncyclopedia, ctx: &mut TxnCtx, op: &EncOp, tag: usize) -> bool {
    match op {
        EncOp::Insert(k) => enc.insert(ctx, k, &write_text(op, tag).unwrap()).is_some(),
        EncOp::Search(k) => enc.search(ctx, k).is_some(),
        EncOp::Change(k) => enc.change(ctx, k, &write_text(op, tag).unwrap()),
        EncOp::Delete(k) => enc.delete(ctx, k),
        EncOp::ReadSeq => !enc.read_seq(ctx).is_empty(),
        EncOp::Range(lo, hi) => !enc.inner().range(ctx, lo, hi).is_empty(),
    }
}

/// The item text a mutating operation writes under [`apply_op`] with
/// value-tag `tag`, or `None` for operations that write no text
/// (reads, deletes). Exposed so the engine's write-ahead log can record
/// redo payloads byte-identical to the installed values.
pub fn write_text(op: &EncOp, tag: usize) -> Option<String> {
    match op {
        EncOp::Insert(k) => Some(format!("text for {k}")),
        EncOp::Change(_) => Some(format!("changed by {tag}")),
        EncOp::Delete(_) | EncOp::Search(_) | EncOp::ReadSeq | EncOp::Range(..) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semantic_descriptors_discriminate_by_key() {
        let a = op_descriptor(&EncOp::Insert("alpha".into()));
        let b = op_descriptor(&EncOp::Insert("beta".into()));
        assert_eq!(a.method, Method::Insert);
        assert_ne!(a.args, b.args);
    }

    #[test]
    fn page_descriptors_flatten_to_read_write() {
        assert_eq!(
            page_descriptor(&EncOp::Search("x".into())).method,
            page_descriptor(&EncOp::ReadSeq).method
        );
        assert_eq!(
            page_descriptor(&EncOp::Insert("x".into())).method,
            page_descriptor(&EncOp::Delete("y".into())).method
        );
        assert_ne!(
            page_descriptor(&EncOp::Search("x".into())).method,
            page_descriptor(&EncOp::Change("x".into())).method
        );
    }
}
