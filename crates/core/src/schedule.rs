//! Per-object schedules and dependency inheritance (Definitions 6, 10, 11, 15).
//!
//! This module is the computational heart of the paper. Given a
//! [`TransactionSystem`] and a [`History`] (the Axiom 1 order of
//! primitives), [`SystemSchedules::infer`] computes for every object `O`:
//!
//! * the **action dependency relation** over `ACT_O` (Definition 11) —
//!   seeded by the execution order of conflicting primitives, extended by
//!   dependencies inherited from the objects on which `O`'s actions act as
//!   transactions;
//! * the **transaction dependency relation** over `TRA_O`
//!   (Definition 10) — the order of *conflicting* actions lifted to their
//!   direct callers;
//! * the **added action dependency relation** (Definition 15) — the
//!   cross-object transaction dependencies that have no common object to
//!   live on, recorded redundantly at both endpoints.
//!
//! The computation is a monotone fixpoint: dependencies are only ever
//! added, and each round either adds an edge or terminates, so it
//! terminates after at most `Σ|ACT_O|²` rounds (in practice: call depth).
//!
//! Every derived edge carries provenance in the [`Trace`], which the
//! experiment harness uses to regenerate the inheritance arcs of the
//! paper's Figures 4 and 7.

use crate::graph::DiGraph;
use crate::history::History;
use crate::ids::{ActionIdx, ObjectIdx, TxnIdx};
use crate::system::TransactionSystem;
use std::collections::{HashMap, HashSet};

/// The schedule of one object (Definition 6): the sets `ACT_O` and
/// `TRA_O` plus the three dependency relations.
#[derive(Debug, Clone)]
pub struct ObjectSchedule {
    /// The object this schedule belongs to.
    pub object: ObjectIdx,
    /// `ACT_O` — actions on the object.
    pub actions: Vec<ActionIdx>,
    /// `TRA_O` — direct callers of actions on the object.
    pub transactions: Vec<ActionIdx>,
    /// Action dependency relation `⟶ ⊆ ACT_O × ACT_O` (Definition 11).
    pub action_deps: DiGraph<ActionIdx>,
    /// Transaction dependency relation `⟹ ⊆ TRA_O × TRA_O` (Definition 10).
    pub txn_deps: DiGraph<ActionIdx>,
    /// Added action dependencies (Definition 15): cross-object transaction
    /// dependencies with one endpoint on this object. Edges may mention
    /// actions outside `ACT_O` (the set `ADD_O`).
    pub added_deps: DiGraph<ActionIdx>,
}

impl ObjectSchedule {
    fn new(object: ObjectIdx, actions: Vec<ActionIdx>, transactions: Vec<ActionIdx>) -> Self {
        let mut action_deps = DiGraph::new();
        for &a in &actions {
            action_deps.add_node(a);
        }
        let mut txn_deps = DiGraph::new();
        for &t in &transactions {
            txn_deps.add_node(t);
        }
        ObjectSchedule {
            object,
            actions,
            transactions,
            action_deps,
            txn_deps,
            added_deps: DiGraph::new(),
        }
    }

    /// The union of the action dependency relation and the added action
    /// dependency relation — the graph whose acyclicity Definition 16
    /// requires.
    pub fn combined_deps(&self) -> DiGraph<ActionIdx> {
        let mut g = self.action_deps.clone();
        for (f, t) in self.added_deps.edges() {
            g.add_edge(*f, *t);
        }
        g
    }
}

/// Provenance of one derived dependency edge. Fields name the object the
/// step happened at (`object`/`via`/`at`) and the edge (`from → to`);
/// `TxnDep` additionally records the conflicting child pair the
/// dependency was lifted from.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Derivation {
    /// Axiom 1: conflicting primitives ordered by the history.
    PrimitiveOrder {
        object: ObjectIdx,
        from: ActionIdx,
        to: ActionIdx,
    },
    /// Definition 5 seeding: a pair involving a virtual duplicate, ordered
    /// by disjoint execution footprints.
    VirtualFootprint {
        object: ObjectIdx,
        from: ActionIdx,
        to: ActionIdx,
    },
    /// Definition 10: a conflicting, ordered action pair lifted to its
    /// callers as a transaction dependency.
    TxnDep {
        object: ObjectIdx,
        from_child: ActionIdx,
        to_child: ActionIdx,
        from: ActionIdx,
        to: ActionIdx,
    },
    /// Definition 11: a transaction dependency of `via` becoming an action
    /// dependency at `at` (both callers are actions on `at`).
    Inherited {
        via: ObjectIdx,
        at: ObjectIdx,
        from: ActionIdx,
        to: ActionIdx,
    },
    /// Definition 15: a cross-object transaction dependency recorded in
    /// the added relations of both endpoint objects.
    Added {
        via: ObjectIdx,
        at_from: ObjectIdx,
        at_to: ObjectIdx,
        from: ActionIdx,
        to: ActionIdx,
    },
}

/// Chronological log of every derivation step of the fixpoint — the
/// machine-checkable version of the dashed arcs in Figures 4 and 7.
pub type Trace = Vec<Derivation>;

/// All object schedules of a system for one history (Definition 14 calls
/// this set the *system schedule*).
#[derive(Debug, Clone)]
pub struct SystemSchedules {
    schedules: Vec<ObjectSchedule>,
    trace: Trace,
}

impl SystemSchedules {
    /// Run the dependency-inference fixpoint over `ts` and `history`.
    pub fn infer(ts: &TransactionSystem, history: &History) -> Self {
        let schedules: Vec<ObjectSchedule> = ts
            .object_indices()
            .map(|o| ObjectSchedule::new(o, ts.actions_on(o), ts.transactions_on(o)))
            .collect();
        Self::run(ts, history, schedules)
    }

    /// [`SystemSchedules::infer`] restricted to the actions of `scope`
    /// transactions. Sound for use with a history restricted to the same
    /// scope: an out-of-scope action can neither seed an edge (Axiom 1
    /// needs both primitives executed in the history; Definition 5 needs
    /// both effective footprints, which are `None` for unexecuted
    /// originals) nor receive one (the fixpoint only extends existing
    /// edges), so pruning them changes no derived dependency — it only
    /// drops isolated graph nodes. The cost drops from quadratic in the
    /// whole record to quadratic in the scope, which is what lets a
    /// validator re-run inference per commit instead of amortizing one
    /// global fixpoint.
    pub fn infer_scoped(
        ts: &TransactionSystem,
        history: &History,
        scope: &HashSet<TxnIdx>,
    ) -> Self {
        let nobj = ts.object_indices().count();
        let mut acts: Vec<Vec<ActionIdx>> = vec![Vec::new(); nobj];
        let mut txns: Vec<Vec<ActionIdx>> = vec![Vec::new(); nobj];
        for a in ts.action_indices() {
            let info = ts.action(a);
            if !scope.contains(&info.txn) {
                continue;
            }
            let o = info.object.as_usize();
            acts[o].push(a);
            if let Some(p) = info.parent {
                if !txns[o].contains(&p) {
                    txns[o].push(p);
                }
            }
        }
        let schedules: Vec<ObjectSchedule> = acts
            .into_iter()
            .zip(txns)
            .enumerate()
            .map(|(o, (a, t))| ObjectSchedule::new(ObjectIdx(o as u32), a, t))
            .collect();
        Self::run(ts, history, schedules)
    }

    /// Seeding + fixpoint over pre-built (possibly scope-filtered)
    /// object schedules.
    fn run(ts: &TransactionSystem, history: &History, mut schedules: Vec<ObjectSchedule>) -> Self {
        let mut trace: Trace = Vec::new();

        // Precompute the conflicting pairs of every object once; the
        // conflict relation is history-independent.
        let conflicting: Vec<Vec<(ActionIdx, ActionIdx)>> = schedules
            .iter()
            .map(|sch| {
                let acts = &sch.actions;
                let mut pairs = Vec::new();
                for i in 0..acts.len() {
                    for j in (i + 1)..acts.len() {
                        if ts.conflicts(acts[i], acts[j]) {
                            pairs.push((acts[i], acts[j]));
                        }
                    }
                }
                pairs
            })
            .collect();

        // --- Seeding -----------------------------------------------------
        for (o, pairs) in conflicting.iter().enumerate() {
            for &(a, b) in pairs {
                let (ia, ib) = (ts.action(a), ts.action(b));
                if ia.is_primitive() && ib.is_primitive() {
                    // Axiom 1: execution order of conflicting primitives.
                    let (from, to) = if history.before(a, b) {
                        (a, b)
                    } else if history.before(b, a) {
                        (b, a)
                    } else {
                        continue; // not (both) executed: no order given
                    };
                    if schedules[o].action_deps.add_edge(from, to) {
                        trace.push(Derivation::PrimitiveOrder {
                            object: ObjectIdx(o as u32),
                            from,
                            to,
                        });
                    }
                } else if ia.is_virtual || ib.is_virtual {
                    // Definition 5 seeding: order virtual-duplicate pairs
                    // by disjoint execution footprints of their originals.
                    let fa = effective_footprint(ts, history, a);
                    let fb = effective_footprint(ts, history, b);
                    if let (Some((lo_a, hi_a)), Some((lo_b, hi_b))) = (fa, fb) {
                        let (from, to) = if hi_a < lo_b {
                            (a, b)
                        } else if hi_b < lo_a {
                            (b, a)
                        } else {
                            continue; // overlapping: no order derivable
                        };
                        if schedules[o].action_deps.add_edge(from, to) {
                            trace.push(Derivation::VirtualFootprint {
                                object: ObjectIdx(o as u32),
                                from,
                                to,
                            });
                        }
                    }
                }
            }
        }

        // --- Fixpoint ----------------------------------------------------
        // Lift ordered conflicting pairs to caller transaction
        // dependencies (Def 10), push those down as action dependencies at
        // the callers' common object (Def 11) or into the added relations
        // (Def 15), until nothing changes.
        let mut added_seen: HashSet<(ActionIdx, ActionIdx)> = HashSet::new();
        loop {
            let mut changed = false;
            for o in 0..schedules.len() {
                // collect new txn deps of object o
                let mut new_txn_deps: Vec<(ActionIdx, ActionIdx, ActionIdx, ActionIdx)> =
                    Vec::new();
                for &(a, b) in &conflicting[o] {
                    for (x, y) in [(a, b), (b, a)] {
                        if !schedules[o].action_deps.has_edge(&x, &y) {
                            continue;
                        }
                        let (Some(t), Some(u)) = (ts.action(x).parent, ts.action(y).parent) else {
                            continue; // top-level actions have no callers
                        };
                        if t == u {
                            continue;
                        }
                        if !schedules[o].txn_deps.has_edge(&t, &u) {
                            new_txn_deps.push((x, y, t, u));
                        }
                    }
                }
                for (x, y, t, u) in new_txn_deps {
                    if schedules[o].txn_deps.add_edge(t, u) {
                        changed = true;
                        trace.push(Derivation::TxnDep {
                            object: ObjectIdx(o as u32),
                            from_child: x,
                            to_child: y,
                            from: t,
                            to: u,
                        });
                        let qo = ts.action(t).object;
                        let qo2 = ts.action(u).object;
                        if qo == qo2 {
                            // Definition 11 inheritance
                            if schedules[qo.as_usize()].action_deps.add_edge(t, u) {
                                changed = true;
                                trace.push(Derivation::Inherited {
                                    via: ObjectIdx(o as u32),
                                    at: qo,
                                    from: t,
                                    to: u,
                                });
                            }
                        } else if added_seen.insert((t, u)) {
                            // Definition 15: record at both objects
                            schedules[qo.as_usize()].added_deps.add_edge(t, u);
                            schedules[qo2.as_usize()].added_deps.add_edge(t, u);
                            changed = true;
                            trace.push(Derivation::Added {
                                via: ObjectIdx(o as u32),
                                at_from: qo,
                                at_to: qo2,
                                from: t,
                                to: u,
                            });
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        SystemSchedules { schedules, trace }
    }

    /// The schedule of object `o`.
    pub fn schedule(&self, o: ObjectIdx) -> &ObjectSchedule {
        &self.schedules[o.as_usize()]
    }

    /// Iterate over all object schedules (the system schedule of
    /// Definition 14).
    pub fn iter(&self) -> impl Iterator<Item = &ObjectSchedule> {
        self.schedules.iter()
    }

    /// The derivation log.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Dependencies among top-level transactions: the action dependency
    /// relation of the system object `S` (top-level transactions are
    /// actions on `S`, Definition 4), keyed by root action.
    pub fn top_level_deps(&self, ts: &TransactionSystem) -> DiGraph<ActionIdx> {
        let mut g = DiGraph::new();
        for &t in ts.top_level() {
            g.add_node(t);
        }
        let s = ts.system_object();
        for (f, t) in self.schedules[s.as_usize()].action_deps.edges() {
            g.add_edge(*f, *t);
        }
        g
    }

    /// **Definition 12 (equivalence).** Two system schedules (over the
    /// same system) are equivalent at object `o` iff they have the same
    /// transaction dependency relation there.
    pub fn equivalent_at(&self, other: &SystemSchedules, o: ObjectIdx) -> bool {
        let a = &self.schedules[o.as_usize()].txn_deps;
        let b = &other.schedules[o.as_usize()].txn_deps;
        if a.edge_count() != b.edge_count() {
            return false;
        }
        a.edges().all(|(f, t)| b.has_edge(f, t))
    }

    /// Equivalence at every object.
    pub fn equivalent(&self, other: &SystemSchedules) -> bool {
        (0..self.schedules.len()).all(|o| self.equivalent_at(other, ObjectIdx(o as u32)))
    }

    /// Pretty-print the dependency relations of one object, in the style
    /// of the paper's Figure 8 table rows.
    pub fn describe_object(&self, ts: &TransactionSystem, o: ObjectIdx) -> String {
        let sch = self.schedule(o);
        let name = |a: &ActionIdx| {
            let info = ts.action(*a);
            format!(
                "{}.{}[{}]",
                ts.object(info.object).name,
                info.descriptor,
                ts.path(*a)
            )
        };
        let mut out = format!("object {}:\n", ts.object(o).name);
        let mut lines: Vec<String> = sch
            .action_deps
            .edges()
            .map(|(f, t)| format!("  action dep: {} -> {}", name(f), name(t)))
            .collect();
        lines.sort();
        out.push_str(&lines.join("\n"));
        if !lines.is_empty() {
            out.push('\n');
        }
        let mut lines: Vec<String> = sch
            .txn_deps
            .edges()
            .map(|(f, t)| format!("  txn dep:    {} -> {}", name(f), name(t)))
            .collect();
        lines.sort();
        out.push_str(&lines.join("\n"));
        if !lines.is_empty() {
            out.push('\n');
        }
        let mut lines: Vec<String> = sch
            .added_deps
            .edges()
            .map(|(f, t)| format!("  added dep:  {} -> {}", name(f), name(t)))
            .collect();
        lines.sort();
        out.push_str(&lines.join("\n"));
        if !lines.is_empty() {
            out.push('\n');
        }
        out
    }
}

/// Footprint of an action for Definition 5 seeding: virtual duplicates
/// borrow the footprint of their original (their parent).
fn effective_footprint(
    ts: &TransactionSystem,
    history: &History,
    a: ActionIdx,
) -> Option<(usize, usize)> {
    let info = ts.action(a);
    if info.is_virtual {
        info.parent.and_then(|p| history.footprint(ts, p))
    } else {
        history.footprint(ts, a)
    }
}

/// Compute, for each pair of top-level transactions, the *conventional*
/// (primitive-level) dependency edges: `T → T'` iff some primitive of `T`
/// conflicts with and precedes some primitive of `T'`. This is the
/// classical conflict graph the paper's approach relaxes.
pub fn conventional_deps(ts: &TransactionSystem, history: &History) -> DiGraph<ActionIdx> {
    let mut g = DiGraph::new();
    for &t in ts.top_level() {
        g.add_node(t);
    }
    // group executed primitives by object
    let mut by_object: HashMap<ObjectIdx, Vec<ActionIdx>> = HashMap::new();
    for &p in history.order() {
        by_object.entry(ts.action(p).object).or_default().push(p);
    }
    for prims in by_object.values() {
        for i in 0..prims.len() {
            for j in (i + 1)..prims.len() {
                let (a, b) = (prims[i], prims[j]); // a executed before b
                let (ra, rb) = (ts.root_of(a), ts.root_of(b));
                if ra != rb && ts.conflicts(a, b) {
                    g.add_edge(ra, rb);
                }
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commutativity::{ActionDescriptor, RangeSpec, ReadWriteSpec};
    use crate::history::History;
    use crate::system::TransactionSystem;
    use crate::value::key;
    use std::sync::Arc;

    fn desc(m: &str) -> ActionDescriptor {
        ActionDescriptor::nullary(m)
    }

    /// The essential Example 1 structure: two transactions insert
    /// *different* keys into the same leaf; both inserts touch the same
    /// page with read+write.
    fn example1_commuting() -> (TransactionSystem, Vec<ActionIdx>, Vec<ActionIdx>) {
        let mut ts = TransactionSystem::new();
        let leaf = ts.add_object("Leaf11", Arc::new(RangeSpec::ordered_container("leaf")));
        let page = ts.add_object("Page4712", Arc::new(ReadWriteSpec));
        let mut prims = Vec::new();
        let mut b = ts.txn("T1");
        b.call(leaf, ActionDescriptor::new("insert", vec![key("DBS")]));
        prims.push(b.leaf(page, desc("read")));
        prims.push(b.leaf(page, desc("write")));
        b.end();
        b.finish();
        let mut prims2 = Vec::new();
        let mut b = ts.txn("T2");
        b.call(leaf, ActionDescriptor::new("insert", vec![key("DBMS")]));
        prims2.push(b.leaf(page, desc("read")));
        prims2.push(b.leaf(page, desc("write")));
        b.end();
        b.finish();
        (ts, prims, prims2)
    }

    /// Same structure but conflicting at the leaf: T2 searches the key T1
    /// inserts.
    fn example1_conflicting() -> (TransactionSystem, Vec<ActionIdx>, Vec<ActionIdx>) {
        let mut ts = TransactionSystem::new();
        let leaf = ts.add_object("Leaf11", Arc::new(RangeSpec::ordered_container("leaf")));
        let page = ts.add_object("Page4712", Arc::new(ReadWriteSpec));
        let mut prims = Vec::new();
        let mut b = ts.txn("T3");
        b.call(leaf, ActionDescriptor::new("insert", vec![key("DBS")]));
        prims.push(b.leaf(page, desc("read")));
        prims.push(b.leaf(page, desc("write")));
        b.end();
        b.finish();
        let mut prims2 = Vec::new();
        let mut b = ts.txn("T4");
        b.call(leaf, ActionDescriptor::new("search", vec![key("DBS")]));
        prims2.push(b.leaf(page, desc("read")));
        b.end();
        b.finish();
        (ts, prims, prims2)
    }

    #[test]
    fn page_conflict_stops_at_commuting_leaf_inserts() {
        let (ts, p1, p2) = example1_commuting();
        // interleave: T1.read, T2.read would be racy about lost updates;
        // use T1 fully then T2 (still produces page-level deps)
        let h = History::from_order(&ts, &[p1[0], p1[1], p2[0], p2[1]]).unwrap();
        let ss = SystemSchedules::infer(&ts, &h);

        let page = ts.object_by_name("Page4712").unwrap();
        let leaf = ts.object_by_name("Leaf11").unwrap();
        let s = ts.system_object();

        // page-level: write/read conflicts ordered
        assert!(ss.schedule(page).action_deps.edge_count() > 0);
        // leaf-level: dependency inherited as txn dep of the page =>
        // action dep at Leaf11 between the two inserts
        let leaf_sch = ss.schedule(leaf);
        assert_eq!(leaf_sch.action_deps.edge_count(), 1);
        // ...but the inserts COMMUTE (different keys): no txn dep at the
        // leaf, so nothing is inherited to Enc / the roots
        assert_eq!(leaf_sch.txn_deps.edge_count(), 0);
        assert_eq!(ss.schedule(s).action_deps.edge_count(), 0);
        // conventional serializability *does* order the roots
        let conv = conventional_deps(&ts, &h);
        assert_eq!(conv.edge_count(), 1);
    }

    #[test]
    fn leaf_conflict_is_inherited_to_top() {
        let (ts, p1, p2) = example1_conflicting();
        let h = History::from_order(&ts, &[p1[0], p1[1], p2[0]]).unwrap();
        let ss = SystemSchedules::infer(&ts, &h);

        let leaf = ts.object_by_name("Leaf11").unwrap();
        let s = ts.system_object();
        // leaf actions conflict (same key): txn dep at leaf => action dep at S
        assert_eq!(ss.schedule(leaf).txn_deps.edge_count(), 1);
        let top = &ss.schedule(s).action_deps;
        assert_eq!(top.edge_count(), 1);
        let t3 = ts.top_level()[0];
        let t4 = ts.top_level()[1];
        assert!(top.has_edge(&t3, &t4));
    }

    #[test]
    fn direction_follows_execution_order() {
        let (ts, p1, p2) = example1_conflicting();
        // run T4's read first: dependency must point T4 -> T3
        let h = History::from_order(&ts, &[p2[0], p1[0], p1[1]]).unwrap();
        let ss = SystemSchedules::infer(&ts, &h);
        let s = ts.system_object();
        let t3 = ts.top_level()[0];
        let t4 = ts.top_level()[1];
        assert!(ss.schedule(s).action_deps.has_edge(&t4, &t3));
        assert!(!ss.schedule(s).action_deps.has_edge(&t3, &t4));
    }

    #[test]
    fn same_process_primitives_do_not_self_conflict() {
        let (ts, p1, _) = example1_commuting();
        // only T1 executes: read then write on the same page, same process
        let h = History::from_order(&ts, &[p1[0], p1[1]]).unwrap();
        let ss = SystemSchedules::infer(&ts, &h);
        let page = ts.object_by_name("Page4712").unwrap();
        assert_eq!(ss.schedule(page).action_deps.edge_count(), 0);
    }

    #[test]
    fn trace_records_derivations() {
        let (ts, p1, p2) = example1_conflicting();
        let h = History::from_order(&ts, &[p1[0], p1[1], p2[0]]).unwrap();
        let ss = SystemSchedules::infer(&ts, &h);
        assert!(ss
            .trace()
            .iter()
            .any(|d| matches!(d, Derivation::PrimitiveOrder { .. })));
        assert!(ss
            .trace()
            .iter()
            .any(|d| matches!(d, Derivation::TxnDep { .. })));
        assert!(ss
            .trace()
            .iter()
            .any(|d| matches!(d, Derivation::Inherited { .. })));
    }

    #[test]
    fn equivalence_of_identical_histories() {
        let (ts, p1, p2) = example1_conflicting();
        let h1 = History::from_order(&ts, &[p1[0], p1[1], p2[0]]).unwrap();
        let h2 = History::from_order(&ts, &[p1[0], p1[1], p2[0]]).unwrap();
        let s1 = SystemSchedules::infer(&ts, &h1);
        let s2 = SystemSchedules::infer(&ts, &h2);
        assert!(s1.equivalent(&s2));
    }

    #[test]
    fn opposite_orders_are_not_equivalent() {
        let (ts, p1, p2) = example1_conflicting();
        let h1 = History::from_order(&ts, &[p1[0], p1[1], p2[0]]).unwrap();
        let h2 = History::from_order(&ts, &[p2[0], p1[0], p1[1]]).unwrap();
        let s1 = SystemSchedules::infer(&ts, &h1);
        let s2 = SystemSchedules::infer(&ts, &h2);
        assert!(!s1.equivalent(&s2));
    }

    #[test]
    fn commuting_case_equivalent_to_serial_both_ways() {
        // the paper's punchline: with commuting leaf inserts the
        // interleaved schedule is equivalent to BOTH serial orders
        let (ts, p1, p2) = example1_commuting();
        let h = History::from_order(&ts, &[p1[0], p1[1], p2[0], p2[1]]).unwrap();
        let ss = SystemSchedules::infer(&ts, &h);
        let s = ts.system_object();
        // top-level dependencies empty: any serial order is equivalent at S
        assert_eq!(ss.schedule(s).action_deps.edge_count(), 0);
        assert_eq!(ss.schedule(s).txn_deps.edge_count(), 0);
    }

    #[test]
    fn top_level_deps_mirror_system_object() {
        let (ts, p1, p2) = example1_conflicting();
        let h = History::from_order(&ts, &[p1[0], p1[1], p2[0]]).unwrap();
        let ss = SystemSchedules::infer(&ts, &h);
        let g = ss.top_level_deps(&ts);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn describe_object_is_stable_text() {
        let (ts, p1, p2) = example1_conflicting();
        let h = History::from_order(&ts, &[p1[0], p1[1], p2[0]]).unwrap();
        let ss = SystemSchedules::infer(&ts, &h);
        let leaf = ts.object_by_name("Leaf11").unwrap();
        let text = ss.describe_object(&ts, leaf);
        assert!(text.contains("object Leaf11"));
        assert!(text.contains("txn dep"));
    }
}
