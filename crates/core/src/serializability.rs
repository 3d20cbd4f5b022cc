//! Serializability checkers (Definitions 13 and 16) and baselines.
//!
//! Three notions are implemented side by side:
//!
//! * **oo-serializability** — the paper's definition, both the
//!   decentralized per-object formulation (Definitions 13, 15, 16) and a
//!   *global* reference formulation that collects every action and
//!   transaction dependency into one graph. The two usually agree, but the
//!   decentralized added-relation records cross-object dependencies only
//!   pairwise at their two endpoint objects, so a cycle threading three or
//!   more objects with no common pair can escape it — see
//!   [`SerializabilityReport::decentralized_global_gap`] and the
//!   discussion in EXPERIMENTS.md.
//! * **conventional conflict serializability** — the flattened, primitive
//!   (page-) level conflict graph over top-level transactions. Strictly
//!   stronger: every conventionally serializable schedule is
//!   oo-serializable, and the converse fails exactly when semantics make
//!   lower-level conflicts commute higher up (the paper's headline claim).
//! * **multi-level serializability** — the layered special case the paper
//!   generalizes: depth-indexed levels, each level's dependency graph must
//!   be acyclic. Coincides with oo-serializability on layered systems.

use crate::graph::{find_cycle_from, DiGraph};
use crate::history::History;
use crate::ids::{ActionIdx, ObjectIdx, TxnIdx};
use crate::incremental::{CycleStart, IncrementalSchedules, Relation};
use crate::schedule::{conventional_deps, SystemSchedules};
use crate::system::TransactionSystem;
use std::collections::HashMap;

/// Why a schedule failed a serializability check. Each variant carries
/// the offending object (where applicable) and a witness `cycle` as the
/// node sequence `v0 → v1 → … → v0`.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The transaction dependency relation of an object is cyclic: no
    /// equivalent serial object schedule exists (Definition 13 (i)).
    TxnDepCycle {
        object: ObjectIdx,
        cycle: Vec<ActionIdx>,
    },
    /// The action dependency relation of an object is cyclic — conflicting
    /// accesses saw an inconsistent state (Definition 13 (ii)).
    ActionDepCycle {
        object: ObjectIdx,
        cycle: Vec<ActionIdx>,
    },
    /// The combined (action ∪ added) relation of an object is cyclic
    /// (Definition 16 (ii)).
    AddedDepCycle {
        object: ObjectIdx,
        cycle: Vec<ActionIdx>,
    },
    /// The global dependency graph is cyclic.
    GlobalCycle { cycle: Vec<ActionIdx> },
    /// The conventional (primitive-level) conflict graph over top-level
    /// transactions is cyclic.
    ConventionalCycle { cycle: Vec<ActionIdx> },
    /// A per-level dependency graph of the multi-level formulation is
    /// cyclic.
    LevelCycle { depth: usize, cycle: Vec<ActionIdx> },
}

/// Combined verdicts for one history, produced by [`analyze`].
#[derive(Debug, Clone)]
pub struct SerializabilityReport {
    /// Paper Definitions 13+16, decentralized per-object check.
    pub oo_decentralized: Result<(), Violation>,
    /// Global-graph reference formulation of oo-serializability.
    pub oo_global: Result<(), Violation>,
    /// Conventional primitive-level conflict serializability.
    pub conventional: Result<(), Violation>,
    /// Depth-layered multi-level serializability.
    pub multilevel: Result<(), Violation>,
}

impl SerializabilityReport {
    /// True iff the decentralized check accepted a history the global one
    /// rejects — the incompleteness window of the pairwise added relation.
    pub fn decentralized_global_gap(&self) -> bool {
        self.oo_decentralized.is_ok() && self.oo_global.is_err()
    }
}

/// **Definition 13.** Is the schedule of object `o` oo-serializable?
///
/// (i) An equivalent serial object schedule must exist. *Serial* is
/// Definition 8 applied to THIS object schedule: the **transactions on
/// `o`** (its direct callers, `TRA_O`) are not interleaved with respect
/// to their actions on `o`. Such a schedule with the same transaction
/// dependency relation (Definition 12) exists iff the relation admits a
/// total order of the callers — iff it is acyclic. (It is deliberately
/// *not* a top-level-transaction condition: in Example 1 the page's
/// callers are the commuting leaf inserts, and serializing those callers
/// is exactly what lets the top level stay unordered. Anomalies that
/// split one top-level transaction's callers around another transaction
/// surface one level up — ultimately as an action-dependency cycle at
/// the system object `S` — because the system check covers *every*
/// object.)
///
/// (ii) The action dependency relation must be acyclic — contradicting
/// action dependencies signify access to an inconsistent state.
pub fn check_object(ss: &SystemSchedules, o: ObjectIdx) -> Result<(), Violation> {
    let sch = ss.schedule(o);
    if let Some(cycle) = sch.txn_deps.find_cycle() {
        return Err(Violation::TxnDepCycle { object: o, cycle });
    }
    if let Some(cycle) = sch.action_deps.find_cycle() {
        return Err(Violation::ActionDepCycle { object: o, cycle });
    }
    Ok(())
}

/// **Definition 16.** Decentralized system-level check: every object
/// schedule is oo-serializable and every object's combined
/// (action ∪ added) dependency relation is acyclic.
pub fn check_system_decentralized(
    ts: &TransactionSystem,
    ss: &SystemSchedules,
) -> Result<(), Violation> {
    for o in ts.object_indices() {
        check_object(ss, o)?;
        if let Some(cycle) = ss.schedule(o).combined_deps().find_cycle() {
            return Err(Violation::AddedDepCycle { object: o, cycle });
        }
    }
    Ok(())
}

/// Strengthened system check: the decentralized Definition 16 check plus
/// one **whole-system graph** over all action dependencies and all added
/// (cross-object) dependencies.
///
/// The paper records cross-object transaction dependencies pairwise "at
/// both objects" (Definition 15), so a contradiction threading three or
/// more objects — `t@X → u@Y → v@Z → t@X` with no two edges sharing an
/// object pair — never appears in any single object's combined relation.
/// The whole-system graph stitches the per-object action-dependency paths
/// together with every added edge and therefore catches such cycles.
/// It never rejects a schedule the paper accepts for any *other* reason:
/// all of its edges are dependencies the paper itself derives.
pub fn check_system_global(ts: &TransactionSystem, ss: &SystemSchedules) -> Result<(), Violation> {
    check_system_decentralized(ts, ss)?;
    let mut g: DiGraph<ActionIdx> = DiGraph::new();
    for o in ts.object_indices() {
        let sch = ss.schedule(o);
        for (f, t) in sch.action_deps.edges() {
            g.add_edge(*f, *t);
        }
        for (f, t) in sch.added_deps.edges() {
            g.add_edge(*f, *t);
        }
    }
    match g.find_cycle() {
        Some(cycle) => Err(Violation::GlobalCycle { cycle }),
        None => Ok(()),
    }
}

/// Cycle search over one object's maintained relations, rooted at the
/// candidate's [`CycleStart`]s in `relations` and following only edges
/// whose target passes `keep` (the starts already do).
fn rooted_cycle(
    inc: &IncrementalSchedules,
    o: ObjectIdx,
    relations: &[Relation],
    starts: &[CycleStart],
    keep: &impl Fn(ActionIdx) -> bool,
    visited: &mut u64,
) -> Option<Vec<ActionIdx>> {
    find_cycle_from(
        starts
            .iter()
            .filter(|s| relations.contains(&s.relation))
            .map(|s| s.node),
        |a, out| {
            for &r in relations {
                out.extend(inc.successors(r, o, *a).filter(|&b| keep(b)));
            }
        },
        visited,
    )
}

/// **Definition 16, candidate-rooted, over incrementally maintained
/// relations.** Decides whether admitting `candidate` to the scope
/// `in_scope` (which must accept it) makes any object's transaction,
/// action, or action ∪ added dependency relation cyclic — the same
/// verdict as [`check_system_decentralized`] over the history restricted
/// to the scope, at a cost that follows the candidate's own edges
/// instead of the whole record. Nodes expanded are added to `visited`.
///
/// Reading the full-history relations filtered to in-scope endpoints is
/// sound by the pairwise-derivation property: every dependency edge
/// between two transactions is derived exclusively from those two
/// transactions' actions (Axiom 1 seeds relate the conflicting pair
/// itself; lifting and inheritance stay within the pair's call paths),
/// so the filter yields exactly the relations inference over the
/// restricted history builds (the exhaustive test in `certifier.rs`
/// pins this edge for edge).
///
/// Searching only from the candidate rests on an invariant and a
/// precondition. **Invariant:** the scope without the candidate was
/// acyclic in every relation when its last member was admitted (each
/// admission ran this check). **Precondition:** a transaction is offered
/// only after its last primitive is in the history and fed to `inc` —
/// then every edge between two earlier members already existed when the
/// later of them was checked, and none can surface afterwards. Together:
/// any cycle in the scope is new, a new cycle needs a new edge, every new
/// edge has an endpoint owned by the candidate, and a node on a cycle has
/// an out-edge — so the cycle passes through one of the candidate's
/// nodes that are the source of an edge (`inc` lists them per
/// transaction as edges are derived), and the search from those finds
/// it. [`IncrementalFeed::feed_admitted`](crate::incremental::IncrementalFeed::feed_admitted)
/// enforces the precondition; a certifier feeds through it. The
/// returned witness is a genuine cycle of the named relation at the
/// named object through a candidate node.
pub fn check_candidate_decentralized(
    ts: &TransactionSystem,
    inc: &IncrementalSchedules,
    candidate: TxnIdx,
    in_scope: impl Fn(TxnIdx) -> bool,
    visited: &mut u64,
) -> Result<(), Violation> {
    debug_assert!(in_scope(candidate), "the candidate is part of its scope");
    let keep = |a: ActionIdx| in_scope(ts.action(a).txn);
    // object-major, relations in Definition-16 order — the order the
    // batch check reports violations in
    let mut starts = inc.cycle_starts(candidate).to_vec();
    starts.sort_unstable();
    for at_object in starts.chunk_by(|a, b| a.object == b.object) {
        let object = at_object[0].object;
        let mut search = |relations: &[Relation]| {
            rooted_cycle(inc, object, relations, at_object, &keep, visited)
        };
        if let Some(cycle) = search(&[Relation::Txn]) {
            return Err(Violation::TxnDepCycle { object, cycle });
        }
        if let Some(cycle) = search(&[Relation::Action]) {
            return Err(Violation::ActionDepCycle { object, cycle });
        }
        if let Some(cycle) = search(&[Relation::Action, Relation::Added]) {
            return Err(Violation::AddedDepCycle { object, cycle });
        }
    }
    Ok(())
}

/// Conventional conflict serializability over the flattened primitive
/// history: acyclicity of the top-level conflict graph.
pub fn check_conventional(ts: &TransactionSystem, history: &History) -> Result<(), Violation> {
    match conventional_deps(ts, history).find_cycle() {
        Some(cycle) => Err(Violation::ConventionalCycle { cycle }),
        None => Ok(()),
    }
}

/// Multi-level serializability on the depth-layered reading of the
/// system: for each call depth `d`, build the dependency graph over the
/// depth-`d` actions (conflicting same-object pairs, ordered by the order
/// of their conflicting descendants, exactly like the oo machinery but
/// keyed by depth instead of by object) and require acyclicity at every
/// level.
///
/// On strictly layered systems (every action of depth `d` accesses a
/// depth-`d` object) this is Weikum's multi-level serializability and
/// agrees with the oo-check; the oo formulation generalizes it to
/// unequal call depths and cross-level calls.
pub fn check_multilevel(ts: &TransactionSystem, ss: &SystemSchedules) -> Result<(), Violation> {
    // Per level d, one graph over the depth-d actions spanning ALL
    // objects of that level: seeded primitive orders plus every lifted
    // caller dependency (Definition 10 edges), including the cross-object
    // ones the paper's decentralized check relegates to the added
    // relation. This is Weikum's level-by-level serializability; note it
    // is *stronger* than the decentralized Definition 16 on layered
    // systems precisely because the per-level graph is global — on such
    // systems it coincides with [`check_system_global`].
    let mut by_depth: HashMap<usize, DiGraph<ActionIdx>> = HashMap::new();
    for o in ts.object_indices() {
        let sch = ss.schedule(o);
        for (f, t) in sch.action_deps.edges() {
            let d = ts.action(*f).depth.max(ts.action(*t).depth) as usize;
            by_depth.entry(d).or_default().add_edge(*f, *t);
        }
        for (f, t) in sch.txn_deps.edges() {
            let d = ts.action(*f).depth.max(ts.action(*t).depth) as usize;
            by_depth.entry(d).or_default().add_edge(*f, *t);
        }
    }
    let mut depths: Vec<usize> = by_depth.keys().copied().collect();
    depths.sort_unstable();
    for d in depths {
        if let Some(cycle) = by_depth[&d].find_cycle() {
            return Err(Violation::LevelCycle { depth: d, cycle });
        }
    }
    Ok(())
}

/// Run every checker over one history and collect the verdicts.
pub fn analyze(ts: &TransactionSystem, history: &History) -> SerializabilityReport {
    let ss = SystemSchedules::infer(ts, history);
    SerializabilityReport {
        oo_decentralized: check_system_decentralized(ts, &ss),
        oo_global: check_system_global(ts, &ss),
        conventional: check_conventional(ts, history),
        multilevel: check_multilevel(ts, &ss),
    }
}

/// Brute-force Definition 13 (i) for small systems: enumerate every total
/// order of the object's callers (`TRA_O`) — each is a serial object
/// schedule in the Definition 8 sense — derive the transaction dependency
/// relation it would produce over the same conflicting pairs, and test
/// equality (Definition 12) with the given schedule's relation. Used in
/// tests to validate that the acyclicity criterion of [`check_object`]
/// coincides with the literal definition (Szpilrajn order extension).
pub fn exists_equivalent_serial_bruteforce(
    ts: &TransactionSystem,
    ss: &SystemSchedules,
    o: ObjectIdx,
) -> bool {
    let _ = ts;
    let sch = ss.schedule(o);
    // the relation's support: unordered caller pairs with a dependency
    let mut support: Vec<(ActionIdx, ActionIdx)> = Vec::new();
    for (f, t) in sch.txn_deps.edges() {
        let pair = if f < t { (*f, *t) } else { (*t, *f) };
        if !support.contains(&pair) {
            support.push(pair);
        }
    }
    let callers = &sch.transactions;
    if callers.len() > 8 {
        // permutation enumeration is for small systems only
        return sch.txn_deps.find_cycle().is_none();
    }
    let mut perm: Vec<ActionIdx> = callers.clone();
    permutations(&mut perm, 0, &mut |order| {
        // serial relation of this caller order, restricted to the support
        support.iter().all(|&(a, b)| {
            let pa = order.iter().position(|&x| x == a).expect("caller present");
            let pb = order.iter().position(|&x| x == b).expect("caller present");
            let (first, second) = if pa < pb { (a, b) } else { (b, a) };
            sch.txn_deps.has_edge(&first, &second) && !sch.txn_deps.has_edge(&second, &first)
        })
    })
}

/// Visit permutations of `items[k..]`, returning `true` as soon as the
/// visitor accepts one.
fn permutations(
    items: &mut Vec<ActionIdx>,
    k: usize,
    accept: &mut impl FnMut(&[ActionIdx]) -> bool,
) -> bool {
    if k == items.len() {
        return accept(items);
    }
    for i in k..items.len() {
        items.swap(k, i);
        if permutations(items, k + 1, accept) {
            items.swap(k, i);
            return true;
        }
        items.swap(k, i);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commutativity::{ActionDescriptor, RangeSpec, ReadWriteSpec};
    use crate::value::key;
    use std::sync::Arc;

    fn desc(m: &str) -> ActionDescriptor {
        ActionDescriptor::nullary(m)
    }

    /// Two transactions each doing read+write on two shared pages, in
    /// opposite page order when interleaved adversarially.
    fn two_pages() -> (TransactionSystem, Vec<ActionIdx>, Vec<ActionIdx>) {
        let mut ts = TransactionSystem::new();
        let p = ts.add_object("PageA", Arc::new(ReadWriteSpec));
        let q = ts.add_object("PageB", Arc::new(ReadWriteSpec));
        let mut a = Vec::new();
        let mut b = ts.txn("T1");
        a.push(b.leaf(p, desc("write")));
        a.push(b.leaf(q, desc("write")));
        b.finish();
        let mut c = Vec::new();
        let mut b = ts.txn("T2");
        c.push(b.leaf(p, desc("write")));
        c.push(b.leaf(q, desc("write")));
        b.finish();
        (ts, a, c)
    }

    #[test]
    fn serial_history_passes_everything() {
        let (ts, _, _) = two_pages();
        let h = History::serial(&ts, ts.top_level());
        let r = analyze(&ts, &h);
        assert!(r.oo_decentralized.is_ok());
        assert!(r.oo_global.is_ok());
        assert!(r.conventional.is_ok());
        assert!(r.multilevel.is_ok());
    }

    #[test]
    fn cyclic_page_order_rejected_by_all() {
        let (ts, a, c) = two_pages();
        // T1 writes PageA first, T2 writes PageB first, then cross
        let h = History::from_order(&ts, &[a[0], c[1], a[1], c[0]]).unwrap();
        let r = analyze(&ts, &h);
        assert!(r.oo_decentralized.is_err());
        assert!(r.oo_global.is_err());
        assert!(r.conventional.is_err());
    }

    #[test]
    fn violation_carries_cycle_witness() {
        let (ts, a, c) = two_pages();
        let h = History::from_order(&ts, &[a[0], c[1], a[1], c[0]]).unwrap();
        match check_conventional(&ts, &h) {
            Err(Violation::ConventionalCycle { cycle }) => {
                assert_eq!(cycle.len(), 2);
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    /// The headline inclusion: a schedule rejected conventionally but
    /// accepted by oo-serializability. Two transactions insert different
    /// keys into two leaves in opposite page orders; each page-level
    /// conflict is absorbed by a commuting leaf-insert pair, so the
    /// conventional page-level cycle never materializes in any object's
    /// relation.
    #[test]
    fn oo_accepts_what_conventional_rejects() {
        let mut ts = TransactionSystem::new();
        let leaf1 = ts.add_object("Leaf1", Arc::new(RangeSpec::ordered_container("leaf")));
        let leaf2 = ts.add_object("Leaf2", Arc::new(RangeSpec::ordered_container("leaf")));
        let p = ts.add_object("PageA", Arc::new(ReadWriteSpec));
        let q = ts.add_object("PageB", Arc::new(ReadWriteSpec));
        let build = |ts: &mut TransactionSystem, name: &str, k1: &str, k2: &str| {
            let mut prims = Vec::new();
            let mut b = ts.txn(name);
            b.call(leaf1, ActionDescriptor::new("insert", vec![key(k1)]));
            prims.push(b.leaf(p, desc("write")));
            b.end();
            b.call(leaf2, ActionDescriptor::new("insert", vec![key(k2)]));
            prims.push(b.leaf(q, desc("write")));
            b.end();
            b.finish();
            prims
        };
        let a = build(&mut ts, "T1", "DBS", "IRS");
        let c = build(&mut ts, "T2", "DBMS", "OODB");
        // adversarial interleaving: PageA orders T1 before T2, PageB
        // orders T2 before T1 => conventional cycle T1 -> T2 -> T1
        let h = History::from_order(&ts, &[a[0], c[0], c[1], a[1]]).unwrap();
        let r = analyze(&ts, &h);
        assert!(r.conventional.is_err(), "conventional must reject");
        // the page deps stop at the commuting leaf inserts: Leaf1 holds
        // T1.insert -> T2.insert, Leaf2 holds the opposite direction, but
        // neither propagates upward, so no single relation is cyclic
        assert!(r.oo_global.is_ok(), "oo must accept: {:?}", r.oo_global);
        assert!(r.oo_decentralized.is_ok());
    }

    #[test]
    fn intra_object_action_cycle_detected() {
        // two leaf inserts of DIFFERENT transactions conflicting on the
        // same leaf AND page orders running in opposite directions on two
        // pages => cycle at the leaf level
        let mut ts = TransactionSystem::new();
        let leaf = ts.add_object("Leaf", Arc::new(RangeSpec::ordered_container("leaf")));
        let p = ts.add_object("PageA", Arc::new(ReadWriteSpec));
        let q = ts.add_object("PageB", Arc::new(ReadWriteSpec));
        let build = |ts: &mut TransactionSystem, name: &str| -> Vec<ActionIdx> {
            let mut prims = Vec::new();
            let mut b = ts.txn(name);
            // same key => leaf-level conflict
            b.call(leaf, ActionDescriptor::new("insert", vec![key("K")]));
            prims.push(b.leaf(p, desc("write")));
            prims.push(b.leaf(q, desc("write")));
            b.end();
            b.finish();
            prims
        };
        let a = build(&mut ts, "T1");
        let c = build(&mut ts, "T2");
        let h = History::from_order(&ts, &[a[0], c[0], c[1], a[1]]).unwrap();
        let ss = SystemSchedules::infer(&ts, &h);
        // leaf action deps: T1.insert -> T2.insert (via PageA) and
        // T2.insert -> T1.insert (via PageB): cycle
        let leaf_check = check_object(&ss, leaf);
        assert!(leaf_check.is_err());
        let r = analyze(&ts, &h);
        assert!(r.oo_decentralized.is_err());
        assert!(r.oo_global.is_err());
    }

    #[test]
    fn acyclicity_matches_bruteforce_equivalent_serial() {
        let (ts, a, c) = two_pages();
        // a serializable interleaving (consistent order)
        let h = History::from_order(&ts, &[a[0], c[0], a[1], c[1]]).unwrap();
        let ss = SystemSchedules::infer(&ts, &h);
        for o in ts.object_indices() {
            let acyclic = check_object(&ss, o).is_ok();
            let brute = exists_equivalent_serial_bruteforce(&ts, &ss, o);
            assert_eq!(acyclic, brute, "object {o}");
        }
    }

    #[test]
    fn bruteforce_rejects_cyclic_txn_deps() {
        // Two transactions insert the SAME key into one leaf, touching two
        // pages in opposite orders: the leaf's transaction dependency
        // relation becomes cyclic, and indeed no serial schedule is
        // equivalent to it (Definition 12/13 (i), checked literally).
        let mut ts = TransactionSystem::new();
        let leaf = ts.add_object("Leaf", Arc::new(RangeSpec::ordered_container("leaf")));
        let p = ts.add_object("PageA", Arc::new(ReadWriteSpec));
        let q = ts.add_object("PageB", Arc::new(ReadWriteSpec));
        let build = |ts: &mut TransactionSystem, name: &str| -> Vec<ActionIdx> {
            let mut prims = Vec::new();
            let mut b = ts.txn(name);
            b.call(leaf, ActionDescriptor::new("insert", vec![key("K")]));
            prims.push(b.leaf(p, desc("write")));
            prims.push(b.leaf(q, desc("write")));
            b.end();
            b.finish();
            prims
        };
        let a = build(&mut ts, "T1");
        let c = build(&mut ts, "T2");
        let h = History::from_order(&ts, &[a[0], c[0], c[1], a[1]]).unwrap();
        let ss = SystemSchedules::infer(&ts, &h);
        // cyclic action deps at the leaf lift to cyclic txn deps at the
        // system object's callers... the leaf's txn deps relate the roots
        let s = ts.system_object();
        assert!(matches!(
            check_object(&ss, leaf),
            Err(Violation::TxnDepCycle { .. } | Violation::ActionDepCycle { .. })
        ));
        assert!(check_object(&ss, s).is_err());
        // the leaf's txn dep relation (over the roots) is cyclic: no
        // serial schedule can be equivalent at the leaf
        assert!(!exists_equivalent_serial_bruteforce(&ts, &ss, leaf));
    }

    #[test]
    fn multilevel_agrees_on_layered_system() {
        let (ts, a, c) = two_pages();
        let good = History::from_order(&ts, &[a[0], c[0], a[1], c[1]]).unwrap();
        let bad = History::from_order(&ts, &[a[0], c[1], a[1], c[0]]).unwrap();
        assert!(analyze(&ts, &good).multilevel.is_ok());
        assert!(analyze(&ts, &bad).multilevel.is_err());
    }
}
