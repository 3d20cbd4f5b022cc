//! Execution histories and Axiom 1.
//!
//! The dependency machinery bootstraps from the order of conflicting
//! *primitive* actions (Axiom 1: "conflicting primitive actions must be
//! ordered"). A [`History`] is the simplest realization: a total execution
//! order over the primitives of a [`TransactionSystem`]. From it we derive
//! the seeded dependencies and the paper's two syntactic properties of a
//! schedule — *conform* (Definition 7) and *serial* (Definition 8).

use crate::ids::ActionIdx;
use crate::system::TransactionSystem;

/// A total execution order over (a subset of) the primitive actions of a
/// system. Positions double as logical timestamps.
#[derive(Debug, Clone, Default)]
pub struct History {
    order: Vec<ActionIdx>,
    /// Position of each action, indexed by `ActionIdx` (action indices are
    /// dense arena slots); [`NOT_EXECUTED`] where the action has not run.
    /// Grows to the highest executed index only.
    position: Vec<u32>,
}

const NOT_EXECUTED: u32 = u32::MAX;

/// Errors detected when recording or validating a history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryError {
    /// The action is not primitive (only primitives execute atomically).
    NotPrimitive(ActionIdx),
    /// The action was already executed.
    Duplicate(ActionIdx),
    /// A primitive of the system does not occur in the history.
    Missing(ActionIdx),
}

impl std::fmt::Display for HistoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistoryError::NotPrimitive(a) => write!(f, "action {a} is not primitive"),
            HistoryError::Duplicate(a) => write!(f, "action {a} executed twice"),
            HistoryError::Missing(a) => write!(f, "primitive {a} missing from history"),
        }
    }
}

impl std::error::Error for HistoryError {}

impl History {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a history from an explicit order, validating that every
    /// entry is a distinct primitive of `ts`.
    pub fn from_order(ts: &TransactionSystem, order: &[ActionIdx]) -> Result<Self, HistoryError> {
        let mut h = History::new();
        for &a in order {
            h.execute(ts, a)?;
        }
        Ok(h)
    }

    /// The *serial* history executing whole top-level transactions one
    /// after the other in the given order (Definition 8's reference
    /// executions). `txn_order` lists root actions.
    pub fn serial(ts: &TransactionSystem, txn_order: &[ActionIdx]) -> Self {
        let mut h = History::new();
        for &root in txn_order {
            for p in ts.primitive_descendants(root) {
                h.execute(ts, p).expect("primitive descendants are valid");
            }
        }
        h
    }

    /// Append the execution of primitive `a`.
    pub fn execute(&mut self, ts: &TransactionSystem, a: ActionIdx) -> Result<(), HistoryError> {
        if !ts.action(a).is_primitive() {
            return Err(HistoryError::NotPrimitive(a));
        }
        if self.position(a).is_some() {
            return Err(HistoryError::Duplicate(a));
        }
        assert!(
            self.order.len() < NOT_EXECUTED as usize,
            "history positions fit below the u32 sentinel"
        );
        if self.position.len() <= a.as_usize() {
            self.position.resize(a.as_usize() + 1, NOT_EXECUTED);
        }
        self.position[a.as_usize()] = self.order.len() as u32;
        self.order.push(a);
        Ok(())
    }

    /// Make room for `executions` more primitives out of an arena that
    /// will hold `actions` actions.
    pub fn reserve(&mut self, executions: usize, actions: usize) {
        self.order.reserve(executions);
        self.position
            .reserve(actions.saturating_sub(self.position.len()));
    }

    /// The executed primitives in order.
    pub fn order(&self) -> &[ActionIdx] {
        &self.order
    }

    /// Number of executed primitives.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True iff nothing has executed.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Position (logical timestamp) of `a`, if executed.
    pub fn position(&self, a: ActionIdx) -> Option<usize> {
        match self.position.get(a.as_usize()) {
            None | Some(&NOT_EXECUTED) => None,
            Some(&p) => Some(p as usize),
        }
    }

    /// True iff `a` executed strictly before `b` (Axiom 1 order). False
    /// when either has not executed.
    pub fn before(&self, a: ActionIdx, b: ActionIdx) -> bool {
        match (self.position(a), self.position(b)) {
            (Some(pa), Some(pb)) => pa < pb,
            _ => false,
        }
    }

    /// Check that every primitive of `ts` occurs (a *complete* history).
    pub fn check_complete(&self, ts: &TransactionSystem) -> Result<(), HistoryError> {
        for p in ts.primitives() {
            if self.position(p).is_none() {
                return Err(HistoryError::Missing(p));
            }
        }
        Ok(())
    }

    /// The execution footprint of an action: the half-open position span
    /// `[first, last]` of its executed primitive descendants, or `None` if
    /// none executed. Used to order virtual duplicates (Definition 5) and
    /// to check seriality.
    pub fn footprint(&self, ts: &TransactionSystem, a: ActionIdx) -> Option<(usize, usize)> {
        let mut span: Option<(usize, usize)> = None;
        for p in ts.primitive_descendants(a) {
            if let Some(pos) = self.position(p) {
                span = Some(match span {
                    None => (pos, pos),
                    Some((lo, hi)) => (lo.min(pos), hi.max(pos)),
                });
            }
        }
        span
    }

    /// **Definition 7 (conform).** The history respects every programmed
    /// precedence: whenever `a ≺ b` is programmed between siblings, every
    /// primitive of `a`'s subtree executes before every primitive of
    /// `b`'s. Returns the first violated pair, or `Ok`.
    pub fn check_conform(&self, ts: &TransactionSystem) -> Result<(), (ActionIdx, ActionIdx)> {
        for a in ts.action_indices() {
            for b in ts.precedes(a) {
                if let (Some((_, hi_a)), Some((lo_b, _))) =
                    (self.footprint(ts, a), self.footprint(ts, b))
                {
                    if hi_a >= lo_b {
                        return Err((a, b));
                    }
                }
            }
        }
        Ok(())
    }

    /// **Definition 8 (serial).** Top-level transactions are not
    /// interleaved: the execution footprints of any two top-level
    /// transactions are disjoint intervals.
    pub fn is_serial(&self, ts: &TransactionSystem) -> bool {
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for &t in ts.top_level() {
            if let Some(span) = self.footprint(ts, t) {
                spans.push(span);
            }
        }
        spans.sort_unstable();
        spans.windows(2).all(|w| w[0].1 < w[1].0)
    }

    /// All permutations of top-level transactions as serial histories —
    /// the reference set for small-system equivalence checks. Exponential;
    /// intended for tests and paper-example replays only.
    pub fn all_serial(ts: &TransactionSystem) -> Vec<History> {
        fn permute(items: &mut Vec<ActionIdx>, k: usize, out: &mut Vec<Vec<ActionIdx>>) {
            if k == items.len() {
                out.push(items.clone());
                return;
            }
            for i in k..items.len() {
                items.swap(k, i);
                permute(items, k + 1, out);
                items.swap(k, i);
            }
        }
        let mut tops = ts.top_level().to_vec();
        let mut perms = Vec::new();
        permute(&mut tops, 0, &mut perms);
        perms
            .into_iter()
            .map(|order| History::serial(ts, &order))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commutativity::{ActionDescriptor, ReadWriteSpec};
    use crate::system::TransactionSystem;
    use std::sync::Arc;

    fn desc(m: &str) -> ActionDescriptor {
        ActionDescriptor::nullary(m)
    }

    /// Two transactions, each: one leaf-level call with two page primitives.
    fn sample() -> (TransactionSystem, Vec<ActionIdx>, Vec<ActionIdx>) {
        let mut ts = TransactionSystem::new();
        let page = ts.add_object("Page", Arc::new(ReadWriteSpec));
        let mut prims1 = Vec::new();
        let mut b = ts.txn("T1");
        prims1.push(b.leaf(page, desc("read")));
        prims1.push(b.leaf(page, desc("write")));
        b.finish();
        let mut prims2 = Vec::new();
        let mut b = ts.txn("T2");
        prims2.push(b.leaf(page, desc("read")));
        prims2.push(b.leaf(page, desc("write")));
        b.finish();
        (ts, prims1, prims2)
    }

    #[test]
    fn recording_and_order() {
        let (ts, p1, p2) = sample();
        let h = History::from_order(&ts, &[p1[0], p2[0], p1[1], p2[1]]).unwrap();
        assert_eq!(h.len(), 4);
        assert!(h.before(p1[0], p2[0]));
        assert!(!h.before(p2[0], p1[0]));
        assert_eq!(h.position(p1[1]), Some(2));
        h.check_complete(&ts).unwrap();
    }

    #[test]
    fn duplicate_rejected() {
        let (ts, p1, _) = sample();
        let err = History::from_order(&ts, &[p1[0], p1[0]]).unwrap_err();
        assert_eq!(err, HistoryError::Duplicate(p1[0]));
    }

    #[test]
    fn non_primitive_rejected() {
        let mut ts = TransactionSystem::new();
        let page = ts.add_object("Page", Arc::new(ReadWriteSpec));
        let mut b = ts.txn("T1");
        b.call(page, desc("composite"));
        b.leaf(page, desc("read"));
        b.end();
        let root = b.finish();
        let composite = ts.children(root).next().unwrap();
        let mut h = History::new();
        assert_eq!(
            h.execute(&ts, composite),
            Err(HistoryError::NotPrimitive(composite))
        );
    }

    #[test]
    fn incomplete_detected() {
        let (ts, p1, _) = sample();
        let h = History::from_order(&ts, &[p1[0]]).unwrap();
        assert!(h.check_complete(&ts).is_err());
    }

    #[test]
    fn serial_history_is_serial() {
        let (ts, _, _) = sample();
        let tops = ts.top_level().to_vec();
        let h = History::serial(&ts, &tops);
        assert!(h.is_serial(&ts));
        h.check_complete(&ts).unwrap();
    }

    #[test]
    fn interleaved_history_is_not_serial() {
        let (ts, p1, p2) = sample();
        let h = History::from_order(&ts, &[p1[0], p2[0], p1[1], p2[1]]).unwrap();
        assert!(!h.is_serial(&ts));
    }

    #[test]
    fn conform_detects_precedence_violation() {
        let (ts, p1, _) = sample();
        // builder default: p1[0] ≺ p1[1]; execute them reversed
        let h = History::from_order(&ts, &[p1[1], p1[0]]).unwrap();
        assert_eq!(h.check_conform(&ts), Err((p1[0], p1[1])));
        // correct order conforms
        let h = History::from_order(&ts, &[p1[0], p1[1]]).unwrap();
        assert!(h.check_conform(&ts).is_ok());
    }

    #[test]
    fn footprint_spans_subtree() {
        let (ts, p1, p2) = sample();
        let h = History::from_order(&ts, &[p1[0], p2[0], p1[1], p2[1]]).unwrap();
        let t1 = ts.top_level()[0];
        let t2 = ts.top_level()[1];
        assert_eq!(h.footprint(&ts, t1), Some((0, 2)));
        assert_eq!(h.footprint(&ts, t2), Some((1, 3)));
        assert_eq!(h.footprint(&ts, p1[0]), Some((0, 0)));
    }

    #[test]
    fn all_serial_enumerates_permutations() {
        let (ts, _, _) = sample();
        let all = History::all_serial(&ts);
        assert_eq!(all.len(), 2);
        for h in &all {
            assert!(h.is_serial(&ts));
        }
    }
}
