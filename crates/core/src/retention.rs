//! Retention: which finished transactions an online certifier still has
//! to remember, decided by one rule — the **cut**.
//!
//! Every dependency the paper derives (Axiom 1 at the pages, lifted by
//! Definitions 10/11, added by Definition 15) comes from one pair of
//! primitives in history order: an edge `A → B` needs a primitive of `A`
//! recorded *before* a primitive of `B`. So with `first(T)` / `last(T)`
//! the history positions of a transaction's first and last primitive, an
//! edge `X → T` needs `first(X) < last(T)`.
//!
//! [`Retention::cut`] starts from `W = min first(live)` (the scanned
//! length when nothing is live), walks the committed transactions by
//! `last` descending, **retains** `T` when `last(T) > W` and lowers `W`
//! to `min(W, first(T))`, and **drops** it otherwise. Soundness: every
//! retained or live `X` has `first(X) ≥ W > last(T)` for every dropped
//! `T`, and every primitive still to be recorded lies later still — so
//! no retained, live or future transaction can ever have an edge into a
//! dropped one, and no cycle through a later candidate can contain it.
//! Lowering `W` by each retained commit is what makes the retained set
//! *closed*: the begin-after-commit rule SIREAD locks use (drop `T` once
//! no live transaction began before `T` committed) keeps `X` but drops
//! the `T` that `X` still points at, and an exact cycle check then misses
//! `R → X → T → R` (DESIGN.md "Retention: the cut").
//!
//! The rule reads history positions, not wall-clock or counter stamps:
//! positions are what the edges are derived from, so the proof needs no
//! argument about when a stamp was taken relative to a recorded action.
//! Everything recorded below the final `W` belongs to dropped or
//! otherwise excluded transactions, which is why a re-seed may replay
//! `history.order()[W..]` instead of the whole record.

use crate::history::History;
use crate::ids::{ActionIdx, TxnIdx};
use crate::system::TransactionSystem;
use std::collections::{HashMap, HashSet};

/// Where a tracked transaction's scanned primitives lie in the history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    first: usize,
    last: usize,
    actions: usize,
}

/// The transactions a certifier still tracks — each with the history
/// positions of its first and last primitive — and those it excluded
/// for good (aborted attempts, transactions recorded outside the
/// protocol, commits dropped by [`cut`](Self::cut)).
#[derive(Debug, Default)]
pub struct Retention {
    /// History positions consumed so far.
    scanned: usize,
    spans: HashMap<TxnIdx, Span>,
    /// Scanned primitives of tracked transactions.
    actions: usize,
    excluded: HashSet<TxnIdx>,
}

impl Retention {
    /// Nothing scanned, nothing tracked.
    pub fn new() -> Self {
        Self::default()
    }

    /// History positions consumed so far.
    pub(crate) fn scanned(&self) -> usize {
        self.scanned
    }

    /// Scanned primitives belonging to tracked transactions.
    pub fn actions(&self) -> usize {
        self.actions
    }

    /// Transactions tracked now.
    pub(crate) fn tracked(&self) -> usize {
        self.spans.len()
    }

    /// Transactions excluded for good.
    pub(crate) fn excluded(&self) -> &HashSet<TxnIdx> {
        &self.excluded
    }

    /// Record that the next `count` history positions belong to `txn`;
    /// false (and nothing tracked) when `txn` is excluded.
    fn note(&mut self, txn: TxnIdx, count: usize) -> bool {
        let at = self.scanned;
        self.scanned += count;
        if self.excluded.contains(&txn) {
            return false;
        }
        let span = self.spans.entry(txn).or_insert(Span {
            first: at,
            last: at,
            actions: 0,
        });
        span.last = self.scanned - 1;
        span.actions += count;
        self.actions += count;
        true
    }

    /// Consume the history suffix not scanned yet, handing every
    /// primitive of a non-excluded transaction to `on`. Returns how many
    /// were handed over.
    pub fn scan(
        &mut self,
        ts: &TransactionSystem,
        history: &History,
        mut on: impl FnMut(ActionIdx),
    ) -> usize {
        let mut tracked = 0;
        for (txn, run) in runs(ts, history.order().get(self.scanned..).unwrap_or(&[])) {
            if self.note(txn, run.len()) {
                run.iter().copied().for_each(&mut on);
                tracked += run.len();
            }
        }
        tracked
    }

    /// Stop tracking `txn` for good; its primitives not scanned yet will
    /// be skipped. Returns how many scanned primitives it had.
    pub fn exclude(&mut self, txn: TxnIdx) -> usize {
        self.excluded.insert(txn);
        let gone = self.spans.remove(&txn).map_or(0, |s| s.actions);
        self.actions -= gone;
        gone
    }

    /// The cut (module docs): drop — [`exclude`](Self::exclude) — every
    /// committed transaction no tracked or future one can reach, and
    /// return the dropped. Tracked transactions `committed` rejects count
    /// as live. A committed transaction must have been scanned to its
    /// last primitive.
    pub fn cut(&mut self, committed: impl Fn(TxnIdx) -> bool) -> Vec<TxnIdx> {
        let mut w = self.scanned;
        let mut done = Vec::new();
        for (&t, span) in &self.spans {
            if committed(t) {
                done.push((span.last, span.first, t));
            } else {
                w = w.min(span.first);
            }
        }
        // `last` descending: once one is dropped, W stops moving and
        // everything after it is dropped too
        done.sort_unstable_by(|a, b| b.cmp(a));
        let mut retained = 0;
        for &(last, first, _) in &done {
            if last <= w {
                break;
            }
            w = w.min(first);
            retained += 1;
        }
        let dropped: Vec<TxnIdx> = done[retained..].iter().map(|&(_, _, t)| t).collect();
        for &t in &dropped {
            self.exclude(t);
        }
        dropped
    }

    /// The lowest position a tracked transaction has a primitive at
    /// (the scanned length when nothing is tracked): everything below it
    /// belongs to excluded transactions. After a [`cut`](Self::cut) this
    /// is the `W` the cut ended on, or above it.
    fn low(&self) -> usize {
        let firsts = self.spans.values().map(|s| s.first);
        firsts.min().unwrap_or(self.scanned)
    }

    /// Forget every span and scan again from [`low`](Self::low): tracked
    /// transactions lie wholly at or above it, so the next
    /// [`scan`](Self::scan) rebuilds exactly their spans.
    pub(crate) fn rewind(&mut self) {
        self.scanned = self.low();
        self.spans.clear();
        self.actions = 0;
    }
}

/// `order` split into maximal runs of one transaction's primitives, so
/// per-transaction bookkeeping is paid per run, not per primitive.
pub(crate) fn runs<'a>(
    ts: &'a TransactionSystem,
    order: &'a [ActionIdx],
) -> impl Iterator<Item = (TxnIdx, &'a [ActionIdx])> {
    order
        .chunk_by(|a, b| ts.action(*a).txn == ts.action(*b).txn)
        .map(|run| (ts.action(run[0]).txn, run))
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TxnIdx = TxnIdx(0);
    const X: TxnIdx = TxnIdx(1);
    const R: TxnIdx = TxnIdx(2);
    const FILLER: TxnIdx = TxnIdx(9);

    /// Place one primitive of each listed transaction at the listed
    /// position; positions in between belong to an excluded filler.
    fn retention_with(prims: &[(usize, TxnIdx)]) -> Retention {
        let mut r = Retention::new();
        r.exclude(FILLER);
        for &(at, t) in prims {
            let gap = at - r.scanned();
            r.note(FILLER, gap);
            r.note(t, 1);
        }
        r
    }

    /// The closure step: committed `T(1,10)` and `X(5,15)` with live
    /// `R(12,–)`. `X` stays because `15 > 12`; that lowers `W` to 5, so
    /// `T` stays because `10 > 5` — where the begin-after-commit rule
    /// drops `T` (`R` began at 12, after `T` finished at 10) although the
    /// retained `X` can still point at it.
    #[test]
    fn a_retained_commit_pulls_in_what_it_can_reach() {
        let mut r = retention_with(&[(1, T), (5, X), (10, T), (12, R), (15, X)]);
        let committed = |t: TxnIdx| t == T || t == X;
        assert!(r.cut(committed).is_empty());
        assert_eq!(r.low(), 1);
        assert_eq!(r.actions(), 5);

        // R finalises with nothing else live: all three go, and nothing
        // below the scanned length is tracked any more
        let mut dropped = r.cut(|_| true);
        dropped.sort();
        assert_eq!(dropped, [T, X, R]);
        assert_eq!(r.low(), 16);
        assert_eq!(r.actions(), 0);
        for t in [T, X, R] {
            assert!(r.excluded().contains(&t));
        }
    }

    #[test]
    fn a_commit_wholly_before_every_live_begin_is_dropped() {
        // T(0,1) finished before live R(2,–) began; X(3,4) came after
        let mut r = retention_with(&[(0, T), (1, T), (2, R), (3, X), (4, X)]);
        assert_eq!(r.cut(|t| t != R), [T]);
        assert_eq!(r.low(), 2);
        // an aborted R no longer pins X
        assert_eq!(r.exclude(R), 1);
        assert_eq!(r.cut(|t| t != R), [X]);
        assert_eq!(r.low(), 5);
    }

    #[test]
    fn rewind_rebuilds_the_tracked_spans_from_the_lowest_one() {
        let mut ts = TransactionSystem::new();
        let page = ts.add_object(
            "P",
            std::sync::Arc::new(crate::commutativity::ReadWriteSpec),
        );
        let mut prims = Vec::new();
        for name in ["A", "B", "C"] {
            let mut b = ts.txn(name);
            let w = crate::commutativity::ActionDescriptor::nullary("write");
            prims.push([b.leaf(page, w.clone()), b.leaf(page, w)]);
            b.finish();
        }
        // A A B C B C: A lies wholly before the others
        let order = [
            prims[0][0],
            prims[0][1],
            prims[1][0],
            prims[2][0],
            prims[1][1],
            prims[2][1],
        ];
        let h = History::from_order(&ts, &order).unwrap();
        let mut r = Retention::new();
        assert_eq!(r.scan(&ts, &h, |_| {}), 6);
        assert_eq!(r.cut(|t| t == TxnIdx(0)), [TxnIdx(0)]);
        assert_eq!((r.low(), r.actions()), (2, 4));
        r.rewind();
        let mut seen = Vec::new();
        assert_eq!(r.scan(&ts, &h, |p| seen.push(p)), 4);
        assert_eq!(seen, order[2..]);
        assert_eq!((r.scanned(), r.actions()), (6, 4));
    }
}
