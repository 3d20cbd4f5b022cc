//! The virtual-object extension (Definition 5, Example 3).
//!
//! If a transaction `t` calls an action `a` (directly or indirectly) and
//! both access the same object `O` — the paper's motivating case is a
//! B-link leaf split whose `rearrange` subtransaction climbs back to the
//! node the enclosing `insert` already accessed — the call path forms a
//! cycle and `t` would be simultaneously a *transaction on O* and an
//! *action on O*. Definition 5 breaks the cycle: the inner action moves to
//! a fresh **virtual object** `O'`, and every other action on `O` gains a
//! *virtual duplicate* on `O'`, connected to its original by a call edge
//! so that dependencies arising at `O'` are inherited back to `O` through
//! the ordinary Definition 10/11 machinery.
//!
//! Virtual duplicates never execute; the seeding of their dependencies
//! (our realization of the "given" order the definition presumes) uses
//! disjoint execution footprints, see
//! [`crate::schedule::SystemSchedules::infer`].

use crate::ids::{ActionIdx, ObjectIdx};
use crate::system::TransactionSystem;

/// What one application of Definition 5 did to the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtensionStep {
    /// The action that accessed an ancestor's object.
    pub moved: ActionIdx,
    /// The object both the action and its ancestor accessed.
    pub original: ObjectIdx,
    /// The virtual object the action now accesses.
    pub virtual_object: ObjectIdx,
    /// Virtual duplicates created on the virtual object, one per other
    /// action on the original object, paired as `(original, duplicate)`.
    pub duplicates: Vec<(ActionIdx, ActionIdx)>,
}

/// Report of a whole extension pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtensionReport {
    /// One step per cycle-causing action, in arena order.
    pub steps: Vec<ExtensionStep>,
}

impl ExtensionReport {
    /// True iff the system contained no call-path cycles.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Apply Definition 5 to the whole system: break every call-path cycle by
/// moving the inner action to a virtual object and duplicating the other
/// actions of the original object there.
///
/// Call this after all transactions are built and before
/// [`crate::schedule::SystemSchedules::infer`]. Idempotent: a second pass
/// finds no remaining cycles.
pub fn extend_virtual_objects(ts: &mut TransactionSystem) -> ExtensionReport {
    let mut report = ExtensionReport::default();
    // snapshot: only actions existing now can cause cycles; duplicates we
    // add are leaves on fresh objects and never re-trigger
    let existing: Vec<ActionIdx> = ts.action_indices().collect();
    for &a in &existing {
        if ts.action(a).is_virtual {
            continue;
        }
        let o = ts.action(a).object;
        // does a proper ancestor access the same object (by its *current*
        // assignment, so chains of cycles each get their own object)?
        let mut anc = ts.action(a).parent;
        let mut cyclic = false;
        while let Some(p) = anc {
            if ts.action(p).object == o {
                cyclic = true;
                break;
            }
            anc = ts.action(p).parent;
        }
        if !cyclic {
            continue;
        }
        let virtual_object = ts.add_virtual_object(o);
        // collect the other actions currently on O (non-virtual)
        let others: Vec<ActionIdx> = ts
            .actions_on(o)
            .into_iter()
            .filter(|&b| b != a && !ts.action(b).is_virtual)
            .collect();
        // move the offending action
        ts.action_mut(a).object = virtual_object;
        // duplicate the others onto the virtual object
        let mut duplicates = Vec::with_capacity(others.len());
        for b in others {
            let mut dup = ts.child_of(b, virtual_object, ts.action(b).descriptor.clone());
            dup.is_virtual = true;
            let dup = ts.push_action(dup, false);
            duplicates.push((b, dup));
        }
        report.steps.push(ExtensionStep {
            moved: a,
            original: o,
            virtual_object,
            duplicates,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commutativity::{ActionDescriptor, RangeSpec, ReadWriteSpec};
    use crate::history::History;
    use crate::schedule::SystemSchedules;
    use crate::serializability::{analyze, check_system_global};
    use crate::value::key;
    use std::sync::Arc;

    fn desc(m: &str) -> ActionDescriptor {
        ActionDescriptor::nullary(m)
    }

    /// The paper's B-link scenario: T's insert on Node6 calls a leaf
    /// insert which splits and calls Node6.rearrange — a call-path cycle
    /// on Node6.
    fn blink_system() -> (TransactionSystem, ActionIdx, ActionIdx, Vec<ActionIdx>) {
        let mut ts = TransactionSystem::new();
        let node = ts.add_object("Node6", Arc::new(RangeSpec::ordered_container("node")));
        let leaf = ts.add_object("Leaf11", Arc::new(RangeSpec::ordered_container("leaf")));
        let page_n = ts.add_object("PageN", Arc::new(ReadWriteSpec));
        let page_l = ts.add_object("PageL", Arc::new(ReadWriteSpec));

        let mut prims = Vec::new();
        let mut b = ts.txn("T");
        b.call(node, ActionDescriptor::new("insert", vec![key("K")]));
        prims.push(b.leaf(page_n, desc("read")));
        b.call(leaf, ActionDescriptor::new("insert", vec![key("K")]));
        prims.push(b.leaf(page_l, desc("write")));
        // the split: rearrange climbs back to Node6
        b.call(node, ActionDescriptor::new("rearrange", vec![key("K")]));
        prims.push(b.leaf(page_n, desc("write")));
        b.end();
        b.end();
        b.end();
        let root = b.finish();
        let insert_node = ts.children(root).next().unwrap();
        let leaf_insert = ts.children(insert_node).nth(1).unwrap();
        let rearrange = ts.children(leaf_insert).nth(1).unwrap();
        (ts, insert_node, rearrange, prims)
    }

    #[test]
    fn detects_and_breaks_cycle() {
        let (mut ts, insert_node, rearrange, _) = blink_system();
        let node = ts.action(insert_node).object;
        let before_objects = ts.object_count();
        let report = extend_virtual_objects(&mut ts);
        assert_eq!(report.steps.len(), 1);
        let step = &report.steps[0];
        assert_eq!(step.moved, rearrange);
        assert_eq!(step.original, node);
        // the moved action now accesses the virtual object
        assert_eq!(ts.action(rearrange).object, step.virtual_object);
        assert_eq!(ts.object_count(), before_objects + 1);
        assert_eq!(ts.object(step.virtual_object).virtual_of, Some(node));
        assert!(ts.object(step.virtual_object).name.starts_with("Node6'"));
        // one duplicate: the other Node6 action (insert_node)
        assert_eq!(step.duplicates.len(), 1);
        let (orig, dup) = step.duplicates[0];
        assert_eq!(orig, insert_node);
        assert!(ts.action(dup).is_virtual);
        assert_eq!(ts.action(dup).parent, Some(insert_node));
        assert_eq!(ts.action(dup).object, step.virtual_object);
        // duplicates are not primitive
        assert!(!ts.action(dup).is_primitive());
    }

    #[test]
    fn extension_is_idempotent() {
        let (mut ts, _, _, _) = blink_system();
        let r1 = extend_virtual_objects(&mut ts);
        assert!(!r1.is_empty());
        let r2 = extend_virtual_objects(&mut ts);
        assert!(r2.is_empty());
    }

    #[test]
    fn no_cycles_no_extension() {
        let mut ts = TransactionSystem::new();
        let page = ts.add_object("P", Arc::new(ReadWriteSpec));
        let mut b = ts.txn("T");
        b.leaf(page, desc("read"));
        b.finish();
        let report = extend_virtual_objects(&mut ts);
        assert!(report.is_empty());
        assert_eq!(ts.object_count(), 2); // S and P
    }

    #[test]
    fn extended_system_schedules_cleanly() {
        // a single transaction through the extended system must remain
        // trivially oo-serializable
        let (mut ts, _, _, prims) = blink_system();
        extend_virtual_objects(&mut ts);
        let h = History::from_order(&ts, &prims).unwrap();
        let ss = SystemSchedules::infer(&ts, &h);
        assert!(check_system_global(&ts, &ss).is_ok());
        let r = analyze(&ts, &h);
        assert!(r.oo_decentralized.is_ok());
    }

    #[test]
    fn concurrent_access_orders_via_virtual_duplicate() {
        // a second transaction searches Node6 entirely AFTER T completes;
        // its node action must be ordered w.r.t. the moved rearrange via
        // the virtual duplicate's footprint seeding
        let (mut ts, _, rearrange, prims) = blink_system();
        let node = ts.object_by_name("Node6").unwrap();
        let page_n = ts.object_by_name("PageN").unwrap();
        let mut b = ts.txn("U");
        b.call(node, ActionDescriptor::new("search", vec![key("K")]));
        let u_read = b.leaf(page_n, desc("read"));
        b.end();
        let u_root = b.finish();
        let report = extend_virtual_objects(&mut ts);
        assert_eq!(report.steps.len(), 1);
        // U's search gets a duplicate on Node6' too (it is an action on Node6)
        let step = &report.steps[0];
        assert_eq!(step.duplicates.len(), 2);

        let mut order = prims.clone();
        order.push(u_read);
        let h = History::from_order(&ts, &order).unwrap();
        let ss = SystemSchedules::infer(&ts, &h);
        // the virtual object's schedule orders rearrange before U's
        // duplicate (T's footprint precedes U's)
        let vsch = ss.schedule(step.virtual_object);
        let u_dup = step
            .duplicates
            .iter()
            .find(|(orig, _)| ts.root_of(*orig) == u_root)
            .map(|&(_, d)| d)
            .unwrap();
        assert!(
            vsch.action_deps.has_edge(&rearrange, &u_dup),
            "rearrange must precede U's duplicate: {:?}",
            vsch.action_deps.edges().collect::<Vec<_>>()
        );
        // and the whole thing is still serializable
        assert!(check_system_global(&ts, &ss).is_ok());
    }
}
