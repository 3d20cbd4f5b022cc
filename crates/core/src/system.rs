//! The object-oriented transaction system (Definitions 1–4).
//!
//! A [`TransactionSystem`] owns a set of objects (each with the
//! commutativity specification of its type) and an arena of actions
//! forming the call trees of the top-level transactions. Top-level
//! transactions are, as in Definition 4, actions on a distinguished
//! *system object* `S`, so the uniform per-object machinery of
//! Definitions 6–13 applies at the top level without special cases.

use crate::commutativity::{ActionDescriptor, AllConflict, DescriptorRef, SpecRef};
use crate::ids::{ActionIdx, ActionPath, ObjectIdx, TxnIdx};
use std::collections::HashMap;
use std::sync::Arc;

/// An object of the database, as the concurrency machinery sees it: a
/// name, the commutativity spec of its type, and (for Definition 5
/// extensions) a link to the original it is a virtual duplicate of.
#[derive(Clone)]
pub struct ObjectInfo {
    /// Unique display name, e.g. `Page4712`, `Leaf11`, `BpTree`.
    pub name: String,
    /// Commutativity matrix of the object's type (Definition 9).
    pub spec: SpecRef,
    /// `Some(original)` iff this is a virtual object added by the
    /// Definition 5 extension.
    pub virtual_of: Option<ObjectIdx>,
}

impl std::fmt::Debug for ObjectInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectInfo")
            .field("name", &self.name)
            .field("spec", &self.spec.name())
            .field("virtual_of", &self.virtual_of)
            .finish()
    }
}

/// An optional arena index in four bytes: the tree links of an
/// [`ActionInfo`] are three of these instead of two heap-allocated lists.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Link(u32);

impl Link {
    const NONE: Link = Link(u32::MAX);

    fn get(self) -> Option<ActionIdx> {
        (self != Link::NONE).then_some(ActionIdx(self.0))
    }
}

impl From<ActionIdx> for Link {
    fn from(a: ActionIdx) -> Self {
        debug_assert_ne!(a.0, u32::MAX, "arena index collides with the sentinel");
        Link(a.0)
    }
}

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// One node of a transaction tree (Definition 2): a numbered message on an
/// object. Its call children are a list threaded through the arena
/// (`first_child` / `last_child` here, `next_sibling` in each child) and
/// its programmed sibling precedence is one bit for the edge to the next
/// sibling — the only edge a recorded action ever has — plus, for
/// [`TxnBuilder::precede`], a side table on the system. Read both through
/// [`TransactionSystem::children`] and [`TransactionSystem::precedes`].
#[derive(Debug, Clone)]
pub struct ActionInfo {
    /// Last segment of the paper's hierarchical number (`a_121`): the
    /// 1-based top-level transaction number for a root, otherwise the
    /// 1-based position among the siblings at creation. The full number
    /// is rebuilt on demand by [`TransactionSystem::path`].
    pub ordinal: u32,
    /// Call depth: 1 for top-level transactions, 2 for their direct
    /// subactions, and so on (the length of the hierarchical number).
    pub depth: u16,
    /// The object this action accesses.
    pub object: ObjectIdx,
    /// Method + parameters, input to the commutativity test. An 8-byte
    /// shared handle: every level of one operation's call path holds the
    /// same descriptor.
    pub descriptor: DescriptorRef,
    /// Calling action; `None` for top-level transactions.
    pub parent: Option<ActionIdx>,
    first_child: Link,
    last_child: Link,
    next_sibling: Link,
    /// Top-level transaction this action belongs to.
    pub txn: TxnIdx,
    /// Process identifier (Definition 9): actions of the same process are
    /// never in conflict. Defaults to one process per transaction.
    pub process: u32,
    /// True for virtual duplicates added by the Definition 5 extension;
    /// they never execute and are ordered by their original's footprint.
    pub is_virtual: bool,
    /// Programmed precedence `self ≺ next_sibling` (Definition 2).
    precedes_next: bool,
}

// The record's cost per action is this struct and nothing else: the
// child list and the precedence are links inside it, the descriptor a
// handle to a block one operation's actions share. 48 bytes: ordinal,
// object, the three links, txn and process (4 each), the parent and the
// handle (8 each), depth (2) and the two flags.
const _: () = assert!(std::mem::size_of::<ActionInfo>() <= 48);

impl ActionInfo {
    /// True iff the action calls no other action (Definition 3). Virtual
    /// duplicates are *not* primitive: they have no execution of their own.
    pub fn is_primitive(&self) -> bool {
        self.first_child == Link::NONE && !self.is_virtual
    }

    /// The first action this one called, if any.
    fn first_child(&self) -> Option<ActionIdx> {
        self.first_child.get()
    }

    /// The action its parent called right after this one, if any.
    fn next_sibling(&self) -> Option<ActionIdx> {
        self.next_sibling.get()
    }
}

/// An object-oriented transaction system `TS = (OBJ, TOP)` (Definition 4),
/// realized as an object table plus a flat arena of actions.
#[derive(Debug, Clone)]
pub struct TransactionSystem {
    objects: Vec<ObjectInfo>,
    by_name: HashMap<String, ObjectIdx>,
    actions: Vec<ActionInfo>,
    /// Root actions of the top-level transactions, in creation order.
    tops: Vec<ActionIdx>,
    /// Programmed precedence edges other than "to the next sibling":
    /// only [`TxnBuilder::precede`] makes them, so the table is empty for
    /// every recorded system.
    explicit_precedes: HashMap<ActionIdx, Vec<ActionIdx>>,
    system_object: ObjectIdx,
    next_process: u32,
}

impl Default for TransactionSystem {
    fn default() -> Self {
        Self::new()
    }
}

impl TransactionSystem {
    /// A system containing only the system object `S`.
    pub fn new() -> Self {
        let mut ts = TransactionSystem {
            objects: Vec::new(),
            by_name: HashMap::new(),
            actions: Vec::new(),
            tops: Vec::new(),
            explicit_precedes: HashMap::new(),
            system_object: ObjectIdx(0),
            next_process: 0,
        };
        // Top-level transactions conservatively conflict pairwise; the
        // only use of S's spec is seeding — and roots are never primitive
        // in practice — so AllConflict is a safe default.
        let s = ts.add_object("S", Arc::new(AllConflict));
        ts.system_object = s;
        ts
    }

    /// Register an object with the commutativity spec of its type.
    /// Panics on duplicate names — names identify objects in output.
    pub fn add_object(&mut self, name: impl Into<String>, spec: SpecRef) -> ObjectIdx {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate object name {name:?}"
        );
        let idx = ObjectIdx(self.objects.len() as u32);
        self.by_name.insert(name.clone(), idx);
        self.objects.push(ObjectInfo {
            name,
            spec,
            virtual_of: None,
        });
        idx
    }

    /// Register a virtual object (Definition 5) duplicating `original`.
    pub(crate) fn add_virtual_object(&mut self, original: ObjectIdx) -> ObjectIdx {
        let base = self.objects[original.as_usize()].name.clone();
        let mut n = 1usize;
        let name = loop {
            let candidate = format!(
                "{base}'{}",
                if n == 1 { String::new() } else { n.to_string() }
            );
            if !self.by_name.contains_key(&candidate) {
                break candidate;
            }
            n += 1;
        };
        let idx = ObjectIdx(self.objects.len() as u32);
        self.by_name.insert(name.clone(), idx);
        self.objects.push(ObjectInfo {
            name,
            spec: self.objects[original.as_usize()].spec.clone(),
            virtual_of: Some(original),
        });
        idx
    }

    /// The distinguished system object `S`.
    pub fn system_object(&self) -> ObjectIdx {
        self.system_object
    }

    /// Look up an object by name.
    pub fn object_by_name(&self, name: &str) -> Option<ObjectIdx> {
        self.by_name.get(name).copied()
    }

    /// Object metadata.
    pub fn object(&self, o: ObjectIdx) -> &ObjectInfo {
        &self.objects[o.as_usize()]
    }

    /// Number of objects (including `S` and virtual objects).
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Iterate over all object indices.
    pub fn object_indices(&self) -> impl Iterator<Item = ObjectIdx> {
        (0..self.objects.len() as u32).map(ObjectIdx)
    }

    /// Action metadata.
    pub fn action(&self, a: ActionIdx) -> &ActionInfo {
        &self.actions[a.as_usize()]
    }

    pub(crate) fn action_mut(&mut self, a: ActionIdx) -> &mut ActionInfo {
        &mut self.actions[a.as_usize()]
    }

    /// Number of actions in the arena (including virtual duplicates).
    pub fn action_count(&self) -> usize {
        self.actions.len()
    }

    /// Iterate over all action indices.
    pub fn action_indices(&self) -> impl Iterator<Item = ActionIdx> {
        (0..self.actions.len() as u32).map(ActionIdx)
    }

    /// Root actions of the top-level transactions (the set `TOP`).
    pub fn top_level(&self) -> &[ActionIdx] {
        &self.tops
    }

    /// The actions `a` called, in creation order.
    pub fn children(&self, a: ActionIdx) -> impl Iterator<Item = ActionIdx> + '_ {
        std::iter::successors(self.action(a).first_child(), |&c| {
            self.action(c).next_sibling()
        })
    }

    /// The siblings `a` is programmed to precede (the partial order `≺` of
    /// Definition 2). Empty for every child of an action whose children
    /// may run in parallel.
    pub fn precedes(&self, a: ActionIdx) -> impl Iterator<Item = ActionIdx> + '_ {
        let info = self.action(a);
        let next = info.next_sibling().filter(|_| info.precedes_next);
        let explicit = self.explicit_precedes.get(&a).into_iter().flatten();
        next.into_iter().chain(explicit.copied())
    }

    /// Begin building a new top-level transaction named `name`. The root
    /// action accesses the system object `S` (Definition 4). The whole
    /// transaction runs as a single process unless
    /// [`TxnBuilder::fork_process`] is used.
    pub fn txn(&mut self, name: impl Into<String>) -> TxnBuilder<'_> {
        let root = self.begin_top(ActionDescriptor::nullary(name.into()));
        TxnBuilder {
            ts: self,
            stack: vec![root],
            sequential: vec![true],
        }
    }

    /// Incremental recording API: start a new top-level transaction
    /// described by `descriptor` (its name, as a nullary method) and
    /// return its root action. Unlike [`TransactionSystem::txn`] this does
    /// not borrow the system for the transaction's lifetime, so live
    /// executors (the B⁺-tree, the simulator) can interleave recording
    /// across many in-flight transactions.
    pub fn begin_top(&mut self, descriptor: impl Into<DescriptorRef>) -> ActionIdx {
        let txn = TxnIdx(self.tops.len() as u32);
        let process = self.fresh_process();
        let info = ActionInfo {
            ordinal: txn.0 + 1,
            depth: 1,
            object: self.system_object,
            descriptor: descriptor.into(),
            parent: None,
            first_child: Link::NONE,
            last_child: Link::NONE,
            next_sibling: Link::NONE,
            txn,
            process,
            is_virtual: false,
            precedes_next: false,
        };
        let root = self.push_action(info, false);
        self.tops.push(root);
        root
    }

    /// Incremental recording API: append a child action under `parent`.
    /// When `sequential` is true the previous sibling (if any) gains a
    /// programmed precedence edge to the new action.
    pub fn begin_nested(
        &mut self,
        parent: ActionIdx,
        object: ObjectIdx,
        descriptor: impl Into<DescriptorRef>,
        sequential: bool,
    ) -> ActionIdx {
        let info = self.child_of(parent, object, descriptor.into());
        self.push_action(info, sequential)
    }

    /// What the next child of `parent` starts as: the ordinal after the
    /// last child's, the parent's transaction and process, no links yet.
    pub(crate) fn child_of(
        &self,
        parent: ActionIdx,
        object: ObjectIdx,
        descriptor: DescriptorRef,
    ) -> ActionInfo {
        let parent_info = self.action(parent);
        let last = parent_info.last_child.get();
        ActionInfo {
            ordinal: last.map_or(1, |c| self.action(c).ordinal + 1),
            depth: parent_info
                .depth
                .checked_add(1)
                .expect("call depth fits in 16 bits"),
            object,
            descriptor,
            parent: Some(parent),
            first_child: Link::NONE,
            last_child: Link::NONE,
            next_sibling: Link::NONE,
            txn: parent_info.txn,
            process: parent_info.process,
            is_virtual: false,
            precedes_next: false,
        }
    }

    /// Append `info` to the arena and to the end of its parent's child
    /// list; `sequential` programs `previous sibling ≺ info`.
    pub(crate) fn push_action(&mut self, info: ActionInfo, sequential: bool) -> ActionIdx {
        let idx = ActionIdx(self.actions.len() as u32);
        if let Some(p) = info.parent {
            let parent = &mut self.actions[p.as_usize()];
            let previous = std::mem::replace(&mut parent.last_child, idx.into());
            match previous.get() {
                None => parent.first_child = idx.into(),
                Some(prev) => {
                    let prev = &mut self.actions[prev.as_usize()];
                    prev.next_sibling = idx.into();
                    prev.precedes_next = sequential;
                }
            }
        }
        self.actions.push(info);
        idx
    }

    /// Make room for `additional` more actions.
    pub fn reserve_actions(&mut self, additional: usize) {
        self.actions.reserve(additional);
    }

    pub(crate) fn fresh_process(&mut self) -> u32 {
        let p = self.next_process;
        self.next_process += 1;
        p
    }

    /// All primitive actions (Definition 3), in arena order.
    pub fn primitives(&self) -> Vec<ActionIdx> {
        self.action_indices()
            .filter(|&a| self.action(a).is_primitive())
            .collect()
    }

    /// The set `ACT_O`: actions on object `o` (Definition 5 notation).
    pub fn actions_on(&self, o: ObjectIdx) -> Vec<ActionIdx> {
        self.action_indices()
            .filter(|&a| self.action(a).object == o)
            .collect()
    }

    /// The set `TRA_O`: actions that *directly call* an action on `o`
    /// (Definition 6, "transactions on O").
    pub fn transactions_on(&self, o: ObjectIdx) -> Vec<ActionIdx> {
        let mut out: Vec<ActionIdx> = Vec::new();
        for a in self.action_indices() {
            if self.action(a).object == o {
                if let Some(p) = self.action(a).parent {
                    if !out.contains(&p) {
                        out.push(p);
                    }
                }
            }
        }
        out
    }

    /// The paper's hierarchical number of `a` (`a_121`), rebuilt from the
    /// parent chain: the record stores only each action's last segment.
    pub fn path(&self, a: ActionIdx) -> ActionPath {
        let mut segments = Vec::with_capacity(self.action(a).depth as usize);
        let mut cur = Some(a);
        while let Some(c) = cur {
            let info = self.action(c);
            segments.push(info.ordinal);
            cur = info.parent;
        }
        segments.reverse();
        ActionPath::new(segments)
    }

    /// The root (top-level) ancestor of `a`.
    pub fn root_of(&self, a: ActionIdx) -> ActionIdx {
        let mut cur = a;
        while let Some(p) = self.action(cur).parent {
            cur = p;
        }
        cur
    }

    /// True iff `anc` is a proper ancestor of `a` in the call tree.
    pub fn is_proper_ancestor(&self, anc: ActionIdx, a: ActionIdx) -> bool {
        let mut cur = self.action(a).parent;
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.action(p).parent;
        }
        false
    }

    /// Do two actions on the same object conflict (Definition 9)? Actions
    /// of the same process never conflict; otherwise the object's
    /// commutativity spec decides.
    pub fn conflicts(&self, a: ActionIdx, b: ActionIdx) -> bool {
        let ia = self.action(a);
        let ib = self.action(b);
        debug_assert_eq!(ia.object, ib.object, "conflict test across objects");
        if ia.process == ib.process {
            return false;
        }
        let spec = &self.objects[ia.object.as_usize()].spec;
        !spec.commutes(&ia.descriptor, &ib.descriptor)
    }

    /// All primitive descendants of `a` (including `a` itself when
    /// primitive), in tree order.
    pub fn primitive_descendants(&self, a: ActionIdx) -> Vec<ActionIdx> {
        let mut out = Vec::new();
        let mut cur = a;
        loop {
            let info = self.action(cur);
            if info.is_primitive() {
                out.push(cur);
            }
            if let Some(child) = info.first_child() {
                cur = child;
                continue;
            }
            // done below `cur`: on to the nearest next sibling at or
            // above it, never leaving the subtree of `a`
            loop {
                if cur == a {
                    return out;
                }
                let info = self.action(cur);
                if let Some(sibling) = info.next_sibling() {
                    cur = sibling;
                    break;
                }
                cur = info.parent.expect("a descendant of `a` has a parent");
            }
        }
    }

    /// Pretty-print the call tree of a transaction, one action per line.
    pub fn render_tree(&self, root: ActionIdx) -> String {
        let mut out = String::new();
        self.render_tree_rec(root, 0, &mut out);
        out
    }

    fn render_tree_rec(&self, a: ActionIdx, depth: usize, out: &mut String) {
        let info = self.action(a);
        let obj = &self.objects[info.object.as_usize()].name;
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{} {}.{}{}\n",
            self.path(a),
            obj,
            info.descriptor,
            if info.is_virtual { " [virtual]" } else { "" }
        ));
        for c in self.children(a) {
            self.render_tree_rec(c, depth + 1, out);
        }
    }
}

/// Stack-based builder for one transaction's call tree.
///
/// `call`/`end` bracket non-primitive actions; `leaf` appends a primitive.
/// By default siblings are sequential (each precedes the next, the
/// left-to-right order of Figure 5); [`TxnBuilder::parallel`] switches the
/// current action's children to unordered.
pub struct TxnBuilder<'a> {
    ts: &'a mut TransactionSystem,
    /// Innermost element = the action whose children we are creating.
    stack: Vec<ActionIdx>,
    /// Parallel flag per stack level: `true` = sequential children.
    sequential: Vec<bool>,
}

impl<'a> TxnBuilder<'a> {
    fn cur(&self) -> ActionIdx {
        *self.stack.last().expect("builder stack never empty")
    }

    fn add_child(
        &mut self,
        object: ObjectIdx,
        descriptor: ActionDescriptor,
        process: Option<u32>,
    ) -> ActionIdx {
        let mut info = self.ts.child_of(self.cur(), object, descriptor.into());
        if let Some(process) = process {
            info.process = process;
        }
        let sequential = *self.sequential.last().expect("builder stack never empty");
        self.ts.push_action(info, sequential)
    }

    /// Open a non-primitive action on `object`; subsequent children attach
    /// to it until the matching [`TxnBuilder::end`].
    pub fn call(&mut self, object: ObjectIdx, descriptor: ActionDescriptor) -> &mut Self {
        let idx = self.add_child(object, descriptor, None);
        self.stack.push(idx);
        self.sequential.push(true);
        self
    }

    /// Close the action opened by the matching [`TxnBuilder::call`].
    pub fn end(&mut self) -> &mut Self {
        assert!(self.stack.len() > 1, "end() without matching call()");
        self.stack.pop();
        self.sequential.pop();
        self
    }

    /// Append a primitive action (Definition 3) and return its index.
    pub fn leaf(&mut self, object: ObjectIdx, descriptor: ActionDescriptor) -> ActionIdx {
        self.add_child(object, descriptor, None)
    }

    /// Like [`TxnBuilder::call`] but the new action (and its subtree) runs
    /// as a fresh process — intra-transaction parallelism (Definition 9).
    pub fn fork_process(&mut self, object: ObjectIdx, descriptor: ActionDescriptor) -> &mut Self {
        let p = self.ts.fresh_process();
        let idx = self.add_child(object, descriptor, Some(p));
        self.stack.push(idx);
        self.sequential.push(true);
        self
    }

    /// Make the children of the *current* action unordered (no programmed
    /// precedence among them).
    pub fn parallel(&mut self) -> &mut Self {
        *self.sequential.last_mut().unwrap() = false;
        // remove precedence edges already added between existing children
        let mut child = self.ts.action(self.cur()).first_child();
        while let Some(c) = child {
            self.ts.explicit_precedes.remove(&c);
            let info = self.ts.action_mut(c);
            info.precedes_next = false;
            child = info.next_sibling();
        }
        self
    }

    /// Add an explicit precedence edge `before ≺ after` between two
    /// sibling actions of the current transaction.
    pub fn precede(&mut self, before: ActionIdx, after: ActionIdx) -> &mut Self {
        assert_eq!(
            self.ts.action(before).parent,
            self.ts.action(after).parent,
            "precedence is defined between siblings only"
        );
        if self.ts.action(before).next_sibling() == Some(after) {
            self.ts.action_mut(before).precedes_next = true;
        } else {
            let explicit = self.ts.explicit_precedes.entry(before).or_default();
            if !explicit.contains(&after) {
                explicit.push(after);
            }
        }
        self
    }

    /// Finish the transaction and return its root action.
    pub fn finish(self) -> ActionIdx {
        assert_eq!(self.stack.len(), 1, "unbalanced call()/end() in builder");
        self.stack[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commutativity::{RangeSpec, ReadWriteSpec};
    use crate::value::key;

    fn desc(m: &str) -> ActionDescriptor {
        ActionDescriptor::nullary(m)
    }

    fn two_object_system() -> (TransactionSystem, ObjectIdx, ObjectIdx) {
        let mut ts = TransactionSystem::new();
        let leaf = ts.add_object("Leaf", Arc::new(RangeSpec::ordered_container("leaf")));
        let page = ts.add_object("Page", Arc::new(ReadWriteSpec));
        (ts, leaf, page)
    }

    #[test]
    fn system_object_exists() {
        let ts = TransactionSystem::new();
        assert_eq!(ts.object(ts.system_object()).name, "S");
        assert_eq!(ts.object_count(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate object name")]
    fn duplicate_object_rejected() {
        let mut ts = TransactionSystem::new();
        ts.add_object("X", Arc::new(ReadWriteSpec));
        ts.add_object("X", Arc::new(ReadWriteSpec));
    }

    #[test]
    fn builder_constructs_paper_tree() {
        // Figure 5-like: root with two children, first child has two leaves
        let (mut ts, leaf, page) = two_object_system();
        let mut b = ts.txn("T1");
        b.call(leaf, ActionDescriptor::new("insert", vec![key("DBS")]));
        let p1 = b.leaf(page, desc("read"));
        let p2 = b.leaf(page, desc("write"));
        b.end();
        let s = b.leaf(leaf, ActionDescriptor::new("search", vec![key("X")]));
        let root = b.finish();

        assert_eq!(ts.top_level(), &[root]);
        let called: Vec<ActionIdx> = ts.children(root).collect();
        assert_eq!(called.len(), 2);
        assert_eq!(ts.path(p1).segments(), &[1, 1, 1]);
        assert_eq!(ts.path(p2).segments(), &[1, 1, 2]);
        assert_eq!(ts.path(s).segments(), &[1, 2]);
        // sequential default: p1 precedes p2
        assert_eq!(ts.precedes(p1).collect::<Vec<_>>(), [p2]);
        assert_eq!(ts.precedes(called[0]).collect::<Vec<_>>(), [s]);
        // primitives
        assert!(ts.action(p1).is_primitive());
        assert!(!ts.action(called[0]).is_primitive());
        assert_eq!(ts.primitives(), vec![p1, p2, s]);
    }

    #[test]
    fn act_and_tra_sets() {
        let (mut ts, leaf, page) = two_object_system();
        let mut b = ts.txn("T1");
        b.call(leaf, ActionDescriptor::new("insert", vec![key("A")]));
        b.leaf(page, desc("write"));
        b.end();
        b.finish();
        let mut b = ts.txn("T2");
        b.call(leaf, ActionDescriptor::new("insert", vec![key("B")]));
        b.leaf(page, desc("write"));
        b.end();
        b.finish();

        let acts_page = ts.actions_on(page);
        assert_eq!(acts_page.len(), 2);
        let tra_page = ts.transactions_on(page);
        assert_eq!(tra_page.len(), 2);
        // the transactions on Page are the leaf-insert actions
        for &t in &tra_page {
            assert_eq!(ts.action(t).object, leaf);
        }
        // transactions on S: none (roots have no parents)
        assert!(ts.transactions_on(ts.system_object()).is_empty());
        // transactions on Leaf: the two roots
        let tra_leaf = ts.transactions_on(leaf);
        assert_eq!(tra_leaf.len(), 2);
        for &t in &tra_leaf {
            assert!(ts.action(t).parent.is_none());
        }
    }

    #[test]
    fn conflicts_respect_process_and_spec() {
        let (mut ts, _leaf, page) = two_object_system();
        let mut b = ts.txn("T1");
        let w1 = b.leaf(page, desc("write"));
        let w2 = b.leaf(page, desc("write"));
        b.finish();
        let mut b = ts.txn("T2");
        let w3 = b.leaf(page, desc("write"));
        let r3 = b.leaf(page, desc("read"));
        b.finish();

        // same process (same txn): never in conflict
        assert!(!ts.conflicts(w1, w2));
        // different txns, write/write: conflict
        assert!(ts.conflicts(w1, w3));
        assert!(ts.conflicts(w1, r3));
    }

    #[test]
    fn fork_process_removes_intra_txn_conflict_exemption() {
        let (mut ts, leaf, page) = two_object_system();
        let mut b = ts.txn("T1");
        b.fork_process(leaf, desc("p1"));
        let w1 = b.leaf(page, desc("write"));
        b.end();
        b.fork_process(leaf, desc("p2"));
        let w2 = b.leaf(page, desc("write"));
        b.end();
        b.finish();
        // two processes of the same transaction can conflict (Definition 9)
        assert!(ts.conflicts(w1, w2));
    }

    #[test]
    fn parallel_children_have_no_precedence() {
        let (mut ts, _leaf, page) = two_object_system();
        let mut b = ts.txn("T1");
        b.parallel();
        let a = b.leaf(page, desc("read"));
        let c = b.leaf(page, desc("read"));
        b.finish();
        assert_eq!(ts.precedes(a).count(), 0);
        assert_eq!(ts.precedes(c).count(), 0);
    }

    #[test]
    fn root_and_ancestors() {
        let (mut ts, leaf, page) = two_object_system();
        let mut b = ts.txn("T1");
        b.call(leaf, desc("insert"));
        let p = b.leaf(page, desc("write"));
        b.end();
        let root = b.finish();
        assert_eq!(ts.root_of(p), root);
        assert!(ts.is_proper_ancestor(root, p));
        assert!(!ts.is_proper_ancestor(p, root));
        assert!(!ts.is_proper_ancestor(root, root));
    }

    #[test]
    fn primitive_descendants_in_tree_order() {
        let (mut ts, leaf, page) = two_object_system();
        let mut b = ts.txn("T1");
        b.call(leaf, desc("insert"));
        let p1 = b.leaf(page, desc("read"));
        let p2 = b.leaf(page, desc("write"));
        b.end();
        let p3 = b.leaf(page, desc("read"));
        let root = b.finish();
        assert_eq!(ts.primitive_descendants(root), vec![p1, p2, p3]);
    }

    #[test]
    fn render_tree_shows_structure() {
        let (mut ts, leaf, page) = two_object_system();
        let mut b = ts.txn("T1");
        b.call(leaf, ActionDescriptor::new("insert", vec![key("DBS")]));
        b.leaf(page, desc("write"));
        b.end();
        let root = b.finish();
        let s = ts.render_tree(root);
        assert!(s.contains("Leaf.insert(DBS)"));
        assert!(s.contains("Page.write()"));
        assert!(s.contains("a1\n") || s.starts_with("a1 "));
    }

    #[test]
    fn incremental_api_matches_builder_shape() {
        let (mut ts, leaf, page) = two_object_system();
        let root = ts.begin_top(desc("T1"));
        let ins = ts.begin_nested(
            root,
            leaf,
            ActionDescriptor::new("insert", vec![key("DBS")]),
            true,
        );
        let r = ts.begin_nested(ins, page, desc("read"), true);
        let w = ts.begin_nested(ins, page, desc("write"), true);
        assert_eq!(ts.top_level(), &[root]);
        assert_eq!(ts.path(r).segments(), &[1, 1, 1]);
        assert_eq!(ts.path(w).segments(), &[1, 1, 2]);
        assert_eq!(ts.precedes(r).collect::<Vec<_>>(), [w]);
        assert_eq!(ts.action(ins).parent, Some(root));
        assert!(ts.action(r).is_primitive());
        // non-sequential children get no precedence edge
        let root2 = ts.begin_top(desc("T2"));
        let a = ts.begin_nested(root2, page, desc("read"), false);
        let b = ts.begin_nested(root2, page, desc("read"), false);
        assert_eq!(ts.precedes(a).count(), 0);
        assert_eq!(ts.precedes(b).count(), 0);
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_builder_panics() {
        let (mut ts, leaf, _page) = two_object_system();
        let mut b = ts.txn("T1");
        b.call(leaf, desc("insert"));
        b.finish();
    }
}
