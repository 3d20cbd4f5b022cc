//! Incremental dependency maintenance.
//!
//! [`crate::schedule::SystemSchedules::infer`] recomputes the fixpoint
//! from scratch — fine for post-hoc analysis, wasteful for an online
//! scheduler that revalidates after every operation (experiment B4
//! counts the derivations one pass makes as histories grow; the
//! benchmark's `core.infer_ms` row times it). [`IncrementalSchedules`] maintains
//! the same relations **edge by edge**: when a primitive executes, its
//! new Axiom 1 orderings are seeded and the Definition 10/11/15 lifting
//! runs as a worklist from just those edges. The result is identical to
//! batch inference (property-tested) at amortized cost proportional to
//! the *new* dependencies, not to the whole history.
//!
//! Limitation: the Definition 5 virtual-object extension rewrites the
//! transaction system and re-seeds from execution footprints; incremental
//! maintenance therefore requires call-path-cycle-free systems (assert at
//! seed time, or run [`crate::extension::extend_virtual_objects`] *before*
//! execution starts if tree shapes are known). The live substrates record
//! cycles only through B-link rearrangements, which the batch path covers.

use crate::graph::{DiGraph, IdMap};
use crate::history::History;
use crate::ids::{ActionIdx, ObjectIdx, TxnIdx};
use crate::retention::{runs, Retention};
use crate::schedule::{ObjectSchedule, SystemSchedules};
use crate::system::TransactionSystem;
use std::collections::HashSet;

/// One of the three per-object relations [`IncrementalSchedules`]
/// maintains. Ordered the way Definition 16 checks them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Relation {
    /// Caller (transaction) dependencies — Definition 10.
    Txn,
    /// Action dependencies — Axiom 1 seeds and Definition 11 inheritance.
    Action,
    /// Added cross-object dependencies — Definition 15.
    Added,
}

/// A node with at least one outgoing edge in `relation` at `object`:
/// somewhere a cycle through its transaction could pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct CycleStart {
    /// The object whose relation holds the edge.
    pub(crate) object: ObjectIdx,
    /// Which of the object's relations.
    pub(crate) relation: Relation,
    /// The edge's source.
    pub(crate) node: ActionIdx,
}

/// What [`IncrementalSchedules`] keeps for one object.
#[derive(Debug, Default)]
struct ObjectState {
    action_deps: DiGraph<ActionIdx>,
    txn_deps: DiGraph<ActionIdx>,
    added_deps: DiGraph<ActionIdx>,
    /// Executed primitives of the object, in execution order.
    executed: Vec<ActionIdx>,
}

impl ObjectState {
    fn relation(&self, relation: Relation) -> &DiGraph<ActionIdx> {
        match relation {
            Relation::Txn => &self.txn_deps,
            Relation::Action => &self.action_deps,
            Relation::Added => &self.added_deps,
        }
    }
}

/// Incrementally maintained per-object dependency relations.
#[derive(Debug, Default)]
pub struct IncrementalSchedules {
    /// Per-object state, created when the object's first primitive
    /// executes: a fresh instance costs nothing per object of the
    /// system, so a re-seed costs what it replays.
    objects: IdMap<ObjectIdx, ObjectState>,
    added_seen: HashSet<(ActionIdx, ActionIdx)>,
    /// Per transaction: every `(object, relation, node)` where one of its
    /// actions is the source of an edge, appended when the node gains its
    /// first out-edge there. The candidate-rooted Definition-16 search
    /// starts from these and nowhere else, so a transaction that derived
    /// no edge costs nothing to certify however many actions it has.
    starts: IdMap<TxnIdx, Vec<CycleStart>>,
}

impl IncrementalSchedules {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that primitive `p` has just executed (it must be the newest
    /// event — feed primitives in history order).
    pub fn on_primitive(&mut self, ts: &TransactionSystem, p: ActionIdx) {
        debug_assert!(ts.action(p).is_primitive(), "only primitives execute");
        debug_assert!(
            !has_call_path_cycle(ts, p),
            "incremental maintenance requires Definition 5 extension first"
        );
        let o = ts.action(p).object;
        // seed: every earlier conflicting primitive on this object orders
        // before p (Axiom 1). The list is taken out for the loop instead
        // of cloned or re-found per step: `add_action_dep` never touches
        // `executed`, and cloning it would cost O(retained) per primitive.
        let mut executed = self
            .objects
            .get_mut(&o)
            .map(|s| std::mem::take(&mut s.executed))
            .unwrap_or_default();
        for &q in &executed {
            if ts.conflicts(q, p) {
                self.add_action_dep(ts, o, q, p);
            }
        }
        executed.push(p);
        self.objects.entry(o).or_default().executed = executed;
    }

    /// Add an action dependency and run the lift/inherit worklist.
    fn add_action_dep(
        &mut self,
        ts: &TransactionSystem,
        o: ObjectIdx,
        from: ActionIdx,
        to: ActionIdx,
    ) {
        if !self
            .objects
            .entry(o)
            .or_default()
            .action_deps
            .add_edge(from, to)
        {
            return; // already known: nothing new can follow from it
        }
        self.note_out_edge(ts, o, Relation::Action, from);
        // Definition 10: lift to callers if the endpoints conflict
        if !ts.conflicts(from, to) {
            return;
        }
        let (Some(t), Some(u)) = (ts.action(from).parent, ts.action(to).parent) else {
            return;
        };
        if t == u {
            return;
        }
        if !self.objects.entry(o).or_default().txn_deps.add_edge(t, u) {
            return;
        }
        self.note_out_edge(ts, o, Relation::Txn, t);
        let (qt, qu) = (ts.action(t).object, ts.action(u).object);
        if qt == qu {
            // Definition 11: inherit at the callers' object
            self.add_action_dep(ts, qt, t, u);
        } else if self.added_seen.insert((t, u)) {
            // Definition 15: record at both endpoint objects
            for q in [qt, qu] {
                self.objects.entry(q).or_default().added_deps.add_edge(t, u);
                self.note_out_edge(ts, q, Relation::Added, t);
            }
        }
    }

    /// Called after a new edge left `node` in `relation` at `o`: on the
    /// node's first out-edge there, list it under its transaction.
    fn note_out_edge(
        &mut self,
        ts: &TransactionSystem,
        o: ObjectIdx,
        relation: Relation,
        node: ActionIdx,
    ) {
        if self.objects[&o].relation(relation).out_degree(&node) != 1 {
            return;
        }
        self.starts
            .entry(ts.action(node).txn)
            .or_default()
            .push(CycleStart {
                object: o,
                relation,
                node,
            });
    }

    /// Successors of `a` in `relation` at `o` (none if either is unknown).
    pub(crate) fn successors(
        &self,
        relation: Relation,
        o: ObjectIdx,
        a: ActionIdx,
    ) -> impl Iterator<Item = ActionIdx> + '_ {
        self.objects
            .get(&o)
            .into_iter()
            .flat_map(move |s| s.relation(relation).successors(&a).copied())
    }

    /// Where a cycle through `txn` could pass: its nodes that are the
    /// source of an edge, per object and relation (empty if it derived
    /// no edge).
    pub(crate) fn cycle_starts(&self, txn: TxnIdx) -> &[CycleStart] {
        self.starts.get(&txn).map_or(&[], Vec::as_slice)
    }

    /// The maintained action dependency relation of `o`.
    pub fn action_deps(&self, o: ObjectIdx) -> Option<&DiGraph<ActionIdx>> {
        self.objects.get(&o).map(|s| &s.action_deps)
    }

    /// The maintained caller (transaction) dependency relation of `o`.
    pub fn txn_deps(&self, o: ObjectIdx) -> Option<&DiGraph<ActionIdx>> {
        self.objects.get(&o).map(|s| &s.txn_deps)
    }

    /// The maintained added relation of `o`.
    pub fn added_deps(&self, o: ObjectIdx) -> Option<&DiGraph<ActionIdx>> {
        self.objects.get(&o).map(|s| &s.added_deps)
    }

    /// Compare against batch inference (test/diagnostic helper): true iff
    /// every relation matches exactly.
    pub fn matches_batch(&self, ts: &TransactionSystem, batch: &SystemSchedules) -> bool {
        for o in ts.object_indices() {
            let b: &ObjectSchedule = batch.schedule(o);
            let empty = DiGraph::new();
            let a_act = self.action_deps(o).unwrap_or(&empty);
            let a_txn = self.txn_deps(o).unwrap_or(&empty);
            let a_add = self.added_deps(o).unwrap_or(&empty);
            if !graph_eq(a_act, &b.action_deps)
                || !graph_eq(a_txn, &b.txn_deps)
                || !graph_eq(a_add, &b.added_deps)
            {
                return false;
            }
        }
        true
    }
}

fn graph_eq(a: &DiGraph<ActionIdx>, b: &DiGraph<ActionIdx>) -> bool {
    a.edge_count() == b.edge_count() && a.edges().all(|(f, t)| b.has_edge(f, t))
}

/// What one [`IncrementalFeed::feed`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedOutcome {
    /// Primitives folded into the schedules by this call (on a reseed,
    /// the replayed suffix above the cut — the honest inference cost).
    pub fed: usize,
    /// Whether this call rebuilt the schedules from the retained suffix
    /// of the history instead of appending a delta.
    pub reseeded: bool,
}

/// A delta cursor over an append-only [`History`],
/// driving [`IncrementalSchedules`] for an online certifier.
///
/// Each [`feed`](IncrementalFeed::feed) call folds in exactly the
/// primitives appended since the previous call — O(new actions), not
/// O(history). Finalized-and-irrelevant transactions (aborted victims,
/// transactions recorded outside the protocol, and the commits
/// [`cut`](IncrementalFeed::cut) drops) are
/// [`exclude`](IncrementalFeed::exclude)d: their primitives stop being
/// fed, and the edges already derived from them become garbage that a
/// later feed prunes by **reseeding** — replaying the history above the
/// cut — once garbage outweighs the live edges. Because every derivation
/// rule stays within one transaction pair, edges between two
/// non-excluded transactions never depend on an excluded transaction's
/// actions, so skipping excluded primitives is lossless and queries
/// simply filter edges to the scope at hand.
#[derive(Debug, Default)]
pub struct IncrementalFeed {
    inc: IncrementalSchedules,
    /// Which transactions are fed, where they lie, and the cut.
    retention: Retention,
    /// Fed primitives whose transaction was excluded afterwards.
    garbage: usize,
}

impl IncrementalFeed {
    /// An empty feed at history position 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The maintained schedules (query side).
    pub fn schedules(&self) -> &IncrementalSchedules {
        &self.inc
    }

    /// Transactions excluded from maintenance.
    pub fn excluded(&self) -> &HashSet<TxnIdx> {
        self.retention.excluded()
    }

    /// Transactions currently retained: fed, and neither excluded nor
    /// dropped by the cut.
    pub fn retained_txns(&self) -> usize {
        self.retention.tracked()
    }

    /// Primitives currently held in the schedules: those of the retained
    /// transactions plus the garbage the next reseed will drop.
    pub fn retained_actions(&self) -> usize {
        self.retention.actions() + self.garbage
    }

    /// Fold in everything appended since the last call, reseeding first
    /// when the garbage from excluded transactions outweighs the live
    /// edges (amortized: each replay is paid for by at least as many
    /// excluded primitives).
    pub fn feed(&mut self, ts: &TransactionSystem, history: &History) -> FeedOutcome {
        if self.garbage > 0 && self.garbage * 2 > self.retention.actions() {
            let fed = self.reseed(ts, history);
            return FeedOutcome {
                fed,
                reseeded: true,
            };
        }
        let fed = self.feed_tail(ts, history);
        FeedOutcome {
            fed,
            reseeded: false,
        }
    }

    /// [`feed`](Self::feed) for a certifier, enforcing the precondition
    /// of the candidate-rooted Definition-16 search
    /// ([`check_candidate_decentralized`](crate::serializability::check_candidate_decentralized))
    /// and of [`cut`](Self::cut): a transaction is admitted only after
    /// its last primitive was fed, so no edge between two admitted
    /// transactions can surface later and escape a search rooted at a
    /// later candidate, and the position a dropped one ends at never
    /// moves. `admitted` is the certifier's committed set.
    ///
    /// # Panics
    /// If a primitive appended since the last feed belongs to a
    /// transaction `admitted` accepts — a caller bug that would
    /// otherwise silently weaken certification.
    pub fn feed_admitted(
        &mut self,
        ts: &TransactionSystem,
        history: &History,
        admitted: impl Fn(TxnIdx) -> bool,
    ) -> FeedOutcome {
        for (t, run) in runs(ts, &history.order()[self.retention.scanned()..]) {
            assert!(
                !admitted(t),
                "action {} of transaction {t} was recorded after {t} was admitted",
                run[0]
            );
        }
        self.feed(ts, history)
    }

    /// Append the unseen history suffix without considering a reseed.
    fn feed_tail(&mut self, ts: &TransactionSystem, history: &History) -> usize {
        let inc = &mut self.inc;
        self.retention
            .scan(ts, history, |p| inc.on_primitive(ts, p))
    }

    /// Drop `txn` from maintenance: its unseen primitives will be
    /// skipped, and those already fed are counted as garbage until the
    /// next reseed replaces the schedules.
    pub fn exclude(&mut self, txn: TxnIdx) {
        self.garbage += self.retention.exclude(txn);
    }

    /// Apply the cut ([`Retention::cut`]) over the fed transactions:
    /// every committed one that no retained, live or future transaction
    /// can reach is excluded and returned. `committed` is the caller's
    /// committed set; every other fed transaction counts as live.
    pub fn cut(&mut self, committed: impl Fn(TxnIdx) -> bool) -> Vec<TxnIdx> {
        let before = self.retention.actions();
        let dropped = self.retention.cut(committed);
        self.garbage += before - self.retention.actions();
        dropped
    }

    /// Rebuild the schedules from the history above the cut — everything
    /// below it belongs to excluded transactions. Returns the number of
    /// primitives replayed.
    pub fn reseed(&mut self, ts: &TransactionSystem, history: &History) -> usize {
        self.inc = IncrementalSchedules::new();
        self.garbage = 0;
        self.retention.rewind();
        self.feed_tail(ts, history)
    }
}

/// Does any proper ancestor of `p` access `p`'s object (an unextended
/// Definition 5 situation)?
fn has_call_path_cycle(ts: &TransactionSystem, p: ActionIdx) -> bool {
    let o = ts.action(p).object;
    let mut cur = ts.action(p).parent;
    while let Some(anc) = cur {
        if ts.action(anc).object == o {
            return true;
        }
        cur = ts.action(anc).parent;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commutativity::{ActionDescriptor, RangeSpec, ReadWriteSpec};
    use crate::history::History;
    use crate::value::key;
    use std::sync::Arc;

    fn desc(m: &str) -> ActionDescriptor {
        ActionDescriptor::nullary(m)
    }

    /// The Example 1 shapes again, driven incrementally.
    fn example_system() -> (TransactionSystem, Vec<ActionIdx>) {
        let mut ts = TransactionSystem::new();
        let leaf = ts.add_object("Leaf", Arc::new(RangeSpec::ordered_container("leaf")));
        let p = ts.add_object("PageA", Arc::new(ReadWriteSpec));
        let q = ts.add_object("PageB", Arc::new(ReadWriteSpec));
        let mut prims = Vec::new();
        for (n, k) in [("T1", "K"), ("T2", "K"), ("T3", "L")] {
            let mut b = ts.txn(n);
            b.call(leaf, ActionDescriptor::new("insert", vec![key(k)]));
            prims.push(b.leaf(p, desc("write")));
            prims.push(b.leaf(q, desc("write")));
            b.end();
            b.finish();
        }
        (ts, prims)
    }

    #[test]
    fn incremental_equals_batch_on_full_replay() {
        let (ts, prims) = example_system();
        // an interleaved order
        let order = vec![prims[0], prims[2], prims[4], prims[1], prims[3], prims[5]];
        let h = History::from_order(&ts, &order).unwrap();
        let batch = SystemSchedules::infer(&ts, &h);
        let mut inc = IncrementalSchedules::new();
        for &p in &order {
            inc.on_primitive(&ts, p);
        }
        assert!(inc.matches_batch(&ts, &batch));
    }

    /// Top-level dependencies are the system object's action
    /// dependencies, maintained inline like every other object's.
    #[test]
    fn top_level_deps_maintained_inline() {
        let (ts, prims) = example_system();
        let mut inc = IncrementalSchedules::new();
        // T1 fully before T2 (same key K): top edge T1 -> T2 appears
        for &p in &[prims[0], prims[1], prims[2], prims[3]] {
            inc.on_primitive(&ts, p);
        }
        let (tops, sys) = (ts.top_level(), ts.system_object());
        assert!(inc.action_deps(sys).unwrap().has_edge(&tops[0], &tops[1]));
        assert!(!inc.action_deps(sys).unwrap().has_edge(&tops[1], &tops[0]));
        // T3 (different key) stays unordered
        inc.on_primitive(&ts, prims[4]);
        inc.on_primitive(&ts, prims[5]);
        assert_eq!(inc.action_deps(sys).unwrap().edge_count(), 1);
    }

    #[test]
    fn duplicate_edges_terminate_quickly() {
        let (ts, prims) = example_system();
        let mut inc = IncrementalSchedules::new();
        for &p in &prims {
            inc.on_primitive(&ts, p);
        }
        // feeding an artificial duplicate action dep is a no-op
        let o = ts.action(prims[0]).object;
        let before = inc.action_deps(o).unwrap().edge_count();
        inc.add_action_dep(&ts, o, prims[0], prims[2]);
        assert_eq!(inc.action_deps(o).unwrap().edge_count(), before);
    }
}
