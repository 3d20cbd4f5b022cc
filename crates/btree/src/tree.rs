//! A concurrent B⁺ tree with B-link splits over latched, buffered pages,
//! recording every operation as an open-nested transaction.
//!
//! Faithful to the paper's §2 description of the index substrate:
//!
//! * the tree, every node, and every page are distinct objects with their
//!   own commutativity semantics (tree/node: key-based; page: read/write);
//! * a descent is recorded as *nested* `insert`/`search` actions — the
//!   action on a node calls the action on its child, exactly the
//!   `Node6.insert() → Leaf11.insert() → …` chain at the end of §2;
//! * a leaf split completes locally (B-link to the new right sibling,
//!   high-key handover) and then **rearranges the father as a separate
//!   subtransaction called from the insert** — so the rearrangement's
//!   object coincides with an ancestor's object, the call-path cycle of
//!   Definition 5, broken at analysis time by
//!   [`oodb_core::extension::extend_virtual_objects`];
//! * deletion is lazy (no merging), a standard simplification that keeps
//!   the concurrency-relevant access pattern intact.
//!
//! Concurrency comes from latch coupling (crabbing) with retained
//! ancestors and a fixed root page — the protocol, its safety condition,
//! and the deadlock-freedom argument are documented in [`crate::latch`].
//! All operations take `&self`; the tree is shared freely across worker
//! threads.

use crate::latch::{
    is_safe, node_record, read_latched, with_encoded, write_latched, write_node, InnerImages,
    Retained, IMAGE_BUF,
};
use crate::node::{Node, Probe, MAX_KEY_LEN};
use crate::objects::{ObjectIds, ObjectKey};
use oodb_core::commutativity::{ActionDescriptor, DescriptorRef, Method, RangeSpec};
use oodb_core::ids::ObjectIdx;
use oodb_model::{Recorder, TxnCtx};
use oodb_storage::{BufferManager, PageExclusive, PageId, PageShared};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Smallest page size that always fits a node of `fanout` entries plus
/// the transient overflow entry held just before a split.
pub fn required_page_size(fanout: usize) -> usize {
    // node encoding + slotted-page header and one slot
    let node = 13 + MAX_KEY_LEN + (fanout + 1) * (2 + MAX_KEY_LEN + 8);
    node + 6 + 4
}

/// The descriptor of a keyed operation, built once per operation and
/// shared by every level that records it: one allocation, the handle's.
pub(crate) fn keyed(method: Method, key: &str) -> DescriptorRef {
    ActionDescriptor::keyed(method, key).into()
}

/// A recorded, latch-coupled B-link tree.
pub struct BLinkTree {
    mgr: BufferManager,
    /// Recorder ids of this tree's node and page objects.
    objects: ObjectIds,
    name: String,
    tree_obj: ObjectIdx,
    /// Immutable: root splits rewrite this page in place.
    root: PageId,
    /// Bumped on every in-place root split. The rewritten root is a
    /// *logically fresh* node, so it gets a fresh recorder object — the
    /// same shape a move-the-root split would record — keeping the
    /// rearrange off the descent's call path (only *father* rearranges
    /// coincide with an ancestor's object, the Definition 5 cycle).
    /// Written only under the root's exclusive latch; read during
    /// descents, which always hold at least the root's shared latch.
    root_epoch: AtomicU32,
    /// Inner nodes as unrecorded descents read them: by version, not
    /// by latch.
    images: InnerImages,
    fanout: usize,
}

impl BLinkTree {
    /// Create an empty tree called `name` (its facade object's name) with
    /// at most `fanout` entries per node. Panics if the pool's pages are
    /// too small for `fanout` (see [`required_page_size`]).
    pub fn create(
        mgr: BufferManager,
        rec: Recorder,
        name: impl Into<String>,
        fanout: usize,
    ) -> Self {
        let name = name.into();
        assert!(fanout >= 2, "fanout must be at least 2");
        assert!(
            mgr.pool().page_size() >= required_page_size(fanout),
            "page size {} too small for fanout {} (need {})",
            mgr.pool().page_size(),
            fanout,
            required_page_size(fanout)
        );
        let tree_obj = rec.object(&name, Arc::new(RangeSpec::ordered_container("bptree")));
        let images = InnerImages::new(mgr.pool().page_size());
        let root_pin = mgr.allocate().expect("allocating the root page");
        let root = root_pin.id();
        write_node(&images, &root_pin, &Node::leaf());
        drop(root_pin);
        BLinkTree {
            mgr,
            objects: ObjectIds::new(rec, &name),
            name,
            tree_obj,
            root,
            root_epoch: AtomicU32::new(0),
            images,
            fanout,
        }
    }

    /// The tree's facade object.
    pub fn object(&self) -> ObjectIdx {
        self.tree_obj
    }

    /// The facade object's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The (fixed) root page.
    pub fn root_page(&self) -> PageId {
        self.root
    }

    fn node_object(&self, page: PageId) -> ObjectIdx {
        let epoch = if page == self.root {
            self.root_epoch.load(Ordering::Acquire)
        } else {
            0 // non-root pages are never reused: stable 1:1 binding
        };
        self.objects.get(ObjectKey::Node { page, epoch })
    }

    fn page_object(&self, page: PageId) -> ObjectIdx {
        self.objects.get(ObjectKey::Page(page))
    }

    /// Record the visit of a node whose latch the caller holds: the
    /// operation `descriptor` on the node object and the page read under
    /// it, in one `record` call (one ticket). The first visit of an operation
    /// (`tree_level`: the cursor is still where the operation found it)
    /// also opens the tree-level action around them. Leaves the node
    /// action (and the tree action) open.
    fn record_visit(
        &self,
        ctx: &mut TxnCtx,
        page: PageId,
        descriptor: &DescriptorRef,
        tree_level: bool,
    ) {
        let node = (self.node_object(page), descriptor);
        let read = DescriptorRef::read();
        let page_read = Some((self.page_object(page), &read));
        if tree_level {
            ctx.record(&[(self.tree_obj, descriptor), node], page_read);
        } else {
            ctx.record(&[node], page_read);
        }
    }

    /// One node, decoded under its own S latch and nothing else: for the
    /// single-threaded diagnostics (depth/integrity/dump).
    fn read_node_raw(&self, page: PageId) -> Node {
        read_latched(&self.mgr, page).read(|p| Node::decode(node_record(p)))
    }

    /// Insert `key → value`. Overwrites silently on duplicate key and
    /// returns `false` in that case.
    pub fn insert(&self, ctx: &mut TxnCtx, key: &str, value: u64) -> bool {
        self.insert_as(ctx, key, value, &keyed(Method::Insert, key))
    }

    /// [`insert`](Self::insert) recording the caller's `insert(key)`
    /// descriptor at the tree and node levels.
    pub(crate) fn insert_as(
        &self,
        ctx: &mut TxnCtx,
        key: &str,
        value: u64,
        descriptor: &DescriptorRef,
    ) -> bool {
        assert!(key.len() <= MAX_KEY_LEN, "key longer than MAX_KEY_LEN");
        // X-latch-coupled descent retaining ancestors of unsafe children;
        // every record call happens under the node's latch.
        let mut retained = Retained::new();
        let base = ctx.depth();
        let (mut page, mut node) = write_latched(&self.mgr, self.root);
        loop {
            self.record_visit(ctx, page.id(), descriptor, ctx.depth() == base);
            if node.must_chase(key) {
                // B-link chase (safety net — splits are atomic under the
                // retained latches, so a writer normally never sees one):
                // acquire the sibling before releasing the current node.
                ctx.exit();
                let right = node.right_link.expect("high key implies right link");
                let (rp, rn) = write_latched(&self.mgr, right);
                page = rp;
                node = rn;
                continue;
            }
            if is_safe(&node, self.fanout) {
                // no split below can reach any ancestor: release them all
                retained.release_all();
            }
            if node.is_leaf {
                break;
            }
            let child = node.child_for(key);
            let (cp, cn) = write_latched(&self.mgr, child);
            retained.push(page, node);
            page = cp;
            node = cn;
        }

        // Leaf work, inside the (still open) leaf insert action, with the
        // leaf exclusively latched and every split-reachable ancestor
        // retained.
        let fresh = node.upsert(key, value);
        if node.entries.len() > self.fanout {
            self.split(ctx, &mut retained, page, node);
        } else {
            write_node(&self.images, &page, &node);
            ctx.page_write(self.page_object(page.id()));
            drop(page);
        }
        retained.release_all();

        // close leaf + descent actions + the tree-level insert
        ctx.exit_to(base);
        fresh
    }

    /// Split the overflowed, exclusively latched `node` — in place if it
    /// is the root, otherwise B-link style with the father rearranged as
    /// a separate subtransaction of the action currently open.
    fn split(
        &self,
        ctx: &mut TxnCtx,
        retained: &mut Retained<'_>,
        page: PageExclusive<'_>,
        mut node: Node,
    ) {
        if page.id() == self.root {
            // the nested action lands on the fresh root object, off the
            // caller's call path
            self.split_root_in_place(ctx, &page, &mut node);
            return;
        }
        let (sep, right) = node.split();
        let right_pin = self.mgr.allocate().expect("allocating split page");
        let right_page = right_pin.id();
        // split() already handed the old right link and high key to the
        // new sibling; B-link: left now points at the sibling before the
        // father learns anything
        node.right_link = Some(right_page);
        write_node(&self.images, &right_pin, &right);
        ctx.page_write(self.page_object(right_page));
        write_node(&self.images, &page, &node);
        ctx.page_write(self.page_object(page.id()));
        drop(right_pin);
        drop(page);
        // rearrange the father — a separate subtransaction called from
        // the open action (the Definition 5 call-path cycle)
        self.rearrange(ctx, retained, sep, right_page);
    }

    /// Install `separator → child` in the father (splitting upward as
    /// needed). Every father a split can reach is on the retained stack
    /// and still exclusively latched, so the whole multi-level
    /// rearrangement is invisible to concurrent traversals.
    fn rearrange(
        &self,
        ctx: &mut TxnCtx,
        retained: &mut Retained<'_>,
        separator: String,
        child: PageId,
    ) {
        let (page, mut node) = retained
            .pop()
            .expect("a splitting node's father is always retained");
        self.record_visit(ctx, page.id(), &keyed(Method::Rearrange, &separator), false);
        node.upsert(&separator, child.0 as u64);
        if node.entries.len() > self.fanout {
            // the father's father is rearranged from within this
            // rearrangement
            self.split(ctx, retained, page, node);
        } else {
            write_node(&self.images, &page, &node);
            ctx.page_write(self.page_object(page.id()));
            drop(page);
        }
        ctx.exit();
    }

    /// Split an overflowed root *in place*: move both halves out to fresh
    /// pages and rewrite the root page as an inner node over them. The
    /// root `PageId` never changes, so concurrent descents (which all
    /// start at the immutable root id) race only on the root latch, which
    /// the caller holds exclusively.
    ///
    /// The `rearrange` is recorded on the *next epoch's* root object: the
    /// rewritten root is a logically fresh node (new children, new role),
    /// so — exactly as a split that moved the root to a fresh page would —
    /// its action must not land on the object every ancestor on the
    /// descent path already entered. Recording it there would manufacture
    /// a call-path cycle whose Definition 5 extension duplicates every
    /// *other* transaction's traversal onto the virtual object, turning
    /// read-only descents into phantom node-level conflicts.
    fn split_root_in_place(
        &self,
        ctx: &mut TxnCtx,
        root_page: &PageExclusive<'_>,
        node: &mut Node,
    ) {
        let (sep, right) = node.split();
        // safe to bump before the writes: we hold the root's exclusive
        // latch, so no concurrent descent can observe the half-made epoch
        self.root_epoch.fetch_add(1, Ordering::AcqRel);
        ctx.enter(
            self.node_object(root_page.id()),
            keyed(Method::Rearrange, &sep),
        );
        let left_pin = self.mgr.allocate().expect("allocating root left half");
        let right_pin = self.mgr.allocate().expect("allocating root right half");
        // left half keeps chaining to the right half; the right half
        // inherited the root's (empty) link and high key from split()
        node.right_link = Some(right_pin.id());
        write_node(&self.images, &left_pin, node);
        ctx.page_write(self.page_object(left_pin.id()));
        write_node(&self.images, &right_pin, &right);
        ctx.page_write(self.page_object(right_pin.id()));
        let mut new_root = Node::inner(left_pin.id());
        new_root.upsert(&sep, right_pin.id().0 as u64);
        write_node(&self.images, root_page, &new_root);
        ctx.page_write(self.page_object(root_page.id()));
        ctx.exit();
    }

    /// S-latch-coupled descent to the leaf responsible for `key`,
    /// recording `descriptor` at the tree level and at every node visited
    /// and probing each node in place. Returns the still-latched leaf
    /// and what it holds for `key`; the tree-level action and one action
    /// per node on the path are left open above the cursor's depth at
    /// entry.
    fn descend_shared(
        &self,
        ctx: &mut TxnCtx,
        key: &str,
        descriptor: &DescriptorRef,
    ) -> (PageShared<'_>, Option<u64>) {
        if !ctx.is_recording() {
            return self.descend_unrecorded(key);
        }
        let base = ctx.depth();
        let mut page = read_latched(&self.mgr, self.root);
        loop {
            self.record_visit(ctx, page.id(), descriptor, ctx.depth() == base);
            // coupling: the next node is latched before this one is
            // released (the assignment drops the old guard)
            match with_encoded(&page, |node| node.probe(key)) {
                Probe::Chase(right) => {
                    ctx.exit();
                    page = read_latched(&self.mgr, right);
                }
                Probe::Child(child) => page = read_latched(&self.mgr, child),
                Probe::Leaf(hit) => return (page, hit),
            }
        }
    }

    /// The descent of a cursor that records nothing: no visit needs a
    /// ticket claimed under a latch, so inner nodes are read off their
    /// images and only the leaf is S-latched. Nothing is coupled: a
    /// parent read before a split sends the descent to the page the key
    /// left, whose high key and right link send it on (Lehman–Yao; nodes
    /// never merge and non-root pages are never reused). Returns the
    /// still-latched leaf and what it holds for `key`.
    fn descend_unrecorded(&self, key: &str) -> (PageShared<'_>, Option<u64>) {
        let mut buf = [0; IMAGE_BUF];
        let mut page = self.root;
        loop {
            if let Some(next) = self.images.next(page, key, &mut buf) {
                page = next;
                continue;
            }
            // a leaf, or an inner page being rewritten (or just grown
            // from a leaf, if it is the root)
            let latched = read_latched(&self.mgr, page);
            match with_encoded(&latched, |node| node.probe(key)) {
                Probe::Chase(next) | Probe::Child(next) => page = next,
                Probe::Leaf(hit) => return (latched, hit),
            }
        }
    }

    /// Exact-match lookup. S-latch-coupled descent.
    pub fn search(&self, ctx: &mut TxnCtx, key: &str) -> Option<u64> {
        self.search_as(ctx, key, &keyed(Method::Search, key))
    }

    /// [`search`](Self::search) recording the caller's `search(key)`
    /// descriptor at the tree and node levels.
    pub(crate) fn search_as(
        &self,
        ctx: &mut TxnCtx,
        key: &str,
        descriptor: &DescriptorRef,
    ) -> Option<u64> {
        let base = ctx.depth();
        let (leaf, hit) = self.descend_shared(ctx, key, descriptor);
        drop(leaf);
        ctx.exit_to(base);
        hit
    }

    /// Remove `key`; returns its value if present. Lazy: leaves are never
    /// merged, so the X-latch-coupled descent retains nothing.
    pub fn delete(&self, ctx: &mut TxnCtx, key: &str) -> Option<u64> {
        self.delete_as(ctx, key, &keyed(Method::Delete, key))
    }

    /// [`delete`](Self::delete) recording the caller's `delete(key)`
    /// descriptor at the tree and node levels.
    pub(crate) fn delete_as(
        &self,
        ctx: &mut TxnCtx,
        key: &str,
        descriptor: &DescriptorRef,
    ) -> Option<u64> {
        let base = ctx.depth();
        let mut page = self.mgr.write_page(self.root).expect("tree pages exist");
        let removed = loop {
            self.record_visit(ctx, page.id(), descriptor, ctx.depth() == base);
            match page.read(|p| Node::probe(node_record(p), key)) {
                Probe::Chase(right) => {
                    ctx.exit();
                    page = self.mgr.write_page(right).expect("tree pages exist");
                }
                Probe::Child(child) => {
                    page = self.mgr.write_page(child).expect("tree pages exist");
                }
                Probe::Leaf(None) => break None,
                Probe::Leaf(Some(_)) => {
                    // only the leaf that loses the key is decoded
                    let mut node = page.read(|p| Node::decode(node_record(p)));
                    let removed = node.remove(key);
                    write_node(&self.images, &page, &node);
                    ctx.page_write(self.page_object(page.id()));
                    break removed;
                }
            }
        };
        drop(page);
        ctx.exit_to(base);
        removed
    }

    /// Full ordered scan over the leaf chain, recorded as the keyless
    /// `readSeq` (conflicts with every updater, commutes with readers).
    /// S-latch-coupled down the leftmost spine, then rightward along the
    /// chain (each leaf's sibling is latched before the leaf is
    /// released).
    pub fn scan(&self, ctx: &mut TxnCtx) -> Vec<(String, u64)> {
        let scan: DescriptorRef = ActionDescriptor::nullary(Method::ReadSeq).into();
        // descend the leftmost spine
        let base = ctx.depth();
        let mut page = read_latched(&self.mgr, self.root);
        loop {
            self.record_visit(ctx, page.id(), &scan, ctx.depth() == base);
            let child = with_encoded(&page, |node| {
                (!node.is_leaf).then(|| node.first_child.expect("inner node has first child"))
            });
            match child {
                Some(child) => page = read_latched(&self.mgr, child),
                None => break,
            }
        }
        let out = self.walk_chain(ctx, page, &scan, |_| true, |_| false);
        ctx.exit_to(base);
        out
    }

    /// Range scan over `[lo, hi]` (inclusive), recorded as
    /// `rangeScan(lo,hi)` — under `RangeSpec` it conflicts with exactly
    /// the updates whose key falls inside the interval: semantic phantom
    /// protection (§1 of the paper lists phantoms among the anomalies).
    pub fn range(&self, ctx: &mut TxnCtx, lo: &str, hi: &str) -> Vec<(String, u64)> {
        let scan = ActionDescriptor::range(Method::RangeScan, lo, hi).into();
        self.range_as(ctx, lo, hi, &scan)
    }

    /// [`range`](Self::range) recording the caller's `rangeScan(lo,hi)`
    /// descriptor at the tree and node levels.
    pub(crate) fn range_as(
        &self,
        ctx: &mut TxnCtx,
        lo: &str,
        hi: &str,
        descriptor: &DescriptorRef,
    ) -> Vec<(String, u64)> {
        // descend to the leaf responsible for lo; every visited node is
        // entered with the rangeScan descriptor (the scan semantically
        // reads that node's slice of the interval — this is what makes an
        // in-range insert into the same leaf a conflict, i.e. phantom
        // protection)
        let base = ctx.depth();
        let (leaf, _) = self.descend_shared(ctx, lo, descriptor);
        let out = self.walk_chain(ctx, leaf, descriptor, |k| k >= lo, |k| k > hi);
        ctx.exit_to(base);
        out
    }

    /// Walk the leaf chain rightward from the latched, already recorded
    /// `leaf`, collecting the entries `keep` accepts until `past` says a
    /// key lies beyond the scan or the chain ends. Every further leaf is
    /// latched before the previous one is released and recorded as one
    /// closed visit of `descriptor`.
    fn walk_chain(
        &self,
        ctx: &mut TxnCtx,
        leaf: PageShared<'_>,
        descriptor: &DescriptorRef,
        keep: impl Fn(&str) -> bool,
        past: impl Fn(&str) -> bool,
    ) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        let mut page = leaf;
        loop {
            let next = with_encoded(&page, |node| {
                for (k, v) in node.entries() {
                    if past(k) {
                        return None;
                    }
                    if keep(k) {
                        out.push((k.to_owned(), v));
                    }
                }
                node.right_link
            });
            let Some(next) = next else { break };
            page = read_latched(&self.mgr, next);
            self.record_visit(ctx, page.id(), descriptor, false);
            ctx.exit();
        }
        out
    }

    /// Depth of the tree (1 = root is a leaf). Unrecorded, unlatched
    /// single-threaded diagnostic.
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut cur = self.root;
        loop {
            let node = self.read_node_raw(cur);
            if node.is_leaf {
                return d;
            }
            cur = node.first_child.expect("inner has first child");
            d += 1;
        }
    }

    /// Structural integrity check: uniform leaf depth, per-node
    /// invariants, keys within `[low, high)` responsibility bounds, leaf
    /// chain globally sorted. Unlatched single-threaded diagnostic.
    pub fn check_integrity(&self) -> Result<(), String> {
        let mut leaf_depths = Vec::new();
        self.check_rec(self.root, None, None, 1, &mut leaf_depths)?;
        if leaf_depths.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!("non-uniform leaf depths: {leaf_depths:?}"));
        }
        // leaf chain sorted end to end
        let mut cur = self.root;
        loop {
            let node = self.read_node_raw(cur);
            if node.is_leaf {
                break;
            }
            cur = node.first_child.expect("inner has first child");
        }
        let mut prev: Option<String> = None;
        let mut leaf = Some(cur);
        while let Some(p) = leaf {
            let node = self.read_node_raw(p);
            for e in &node.entries {
                if let Some(pv) = &prev {
                    if pv.as_str() >= e.key.as_str() {
                        return Err(format!("leaf chain out of order at {}", e.key));
                    }
                }
                prev = Some(e.key.clone());
            }
            leaf = node.right_link;
        }
        Ok(())
    }

    fn check_rec(
        &self,
        page: PageId,
        low: Option<&str>,
        high: Option<&str>,
        depth: usize,
        leaf_depths: &mut Vec<usize>,
    ) -> Result<(), String> {
        let record = read_latched(&self.mgr, page).read(|p| node_record(p).to_vec());
        let node = Node::decode(&record);
        node.check_invariants()
            .map_err(|e| format!("{page}: {e}"))?;
        match (node.is_leaf, self.images.record(page)) {
            (true, Some(_)) => return Err(format!("{page}: a leaf has an image")),
            (false, None) => return Err(format!("{page}: an inner node has no image")),
            (false, Some(image)) if image != record => {
                return Err(format!("{page}: the image differs from the page"))
            }
            _ => {}
        }
        for e in &node.entries {
            if let Some(l) = low {
                if e.key.as_str() < l {
                    return Err(format!("{page}: key {} below low bound {l}", e.key));
                }
            }
            if let Some(h) = high {
                if e.key.as_str() >= h {
                    return Err(format!("{page}: key {} above high bound {h}", e.key));
                }
            }
        }
        if node.is_leaf {
            leaf_depths.push(depth);
            return Ok(());
        }
        // children: first_child covers [low, k0), entries[i] covers
        // [k_i, k_{i+1}) — bound by the node's own high key if present
        let node_high = node.high_key.as_deref().or(high);
        let first = node.first_child.expect("inner has first child");
        let first_high = node.entries.first().map(|e| e.key.as_str()).or(node_high);
        self.check_rec(first, low, first_high, depth + 1, leaf_depths)?;
        for (i, e) in node.entries.iter().enumerate() {
            let child_high = node
                .entries
                .get(i + 1)
                .map(|n| n.key.as_str())
                .or(node_high);
            self.check_rec(
                PageId(e.value as u32),
                Some(e.key.as_str()),
                child_high,
                depth + 1,
                leaf_depths,
            )?;
        }
        Ok(())
    }

    /// Dump the structure (Figure 2 style), one node per line.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.dump_rec(self.root, 0, &mut out);
        out
    }

    fn dump_rec(&self, page: PageId, depth: usize, out: &mut String) {
        let node = self.read_node_raw(page);
        let kind = if node.is_leaf { "Leaf" } else { "Node" };
        out.push_str(&"  ".repeat(depth));
        let keys: Vec<&str> = node.entries.iter().map(|e| e.key.as_str()).collect();
        out.push_str(&format!(
            "{kind} {}.N{} [{}]{}\n",
            self.name,
            page.0,
            keys.join(" "),
            node.right_link
                .map(|r| format!(" ->N{}", r.0))
                .unwrap_or_default()
        ));
        if !node.is_leaf {
            self.dump_rec(node.first_child.unwrap(), depth + 1, out);
            for e in &node.entries {
                self.dump_rec(PageId(e.value as u32), depth + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_core::prelude::{analyze, extend_virtual_objects};
    use oodb_storage::BufferPool;

    fn tree(fanout: usize) -> (BLinkTree, Recorder) {
        let rec = Recorder::new();
        let mgr = BufferManager::new(BufferPool::new(256, required_page_size(fanout)));
        let t = BLinkTree::create(mgr, rec.clone(), "BpTree", fanout);
        (t, rec)
    }

    #[test]
    fn insert_and_search_roundtrip() {
        let (t, rec) = tree(4);
        let mut ctx = rec.begin_txn("T1");
        for (i, k) in ["DBS", "DBMS", "OODB", "IRS"].iter().enumerate() {
            assert!(t.insert(&mut ctx, k, i as u64));
        }
        for (i, k) in ["DBS", "DBMS", "OODB", "IRS"].iter().enumerate() {
            assert_eq!(t.search(&mut ctx, k), Some(i as u64));
        }
        assert_eq!(t.search(&mut ctx, "GHOST"), None);
        drop(ctx);
        t.check_integrity().unwrap();
    }

    #[test]
    fn duplicate_insert_overwrites() {
        let (t, rec) = tree(4);
        let mut ctx = rec.begin_txn("T1");
        assert!(t.insert(&mut ctx, "K", 1));
        assert!(!t.insert(&mut ctx, "K", 2));
        assert_eq!(t.search(&mut ctx, "K"), Some(2));
        drop(ctx);
    }

    #[test]
    fn splits_keep_integrity_and_data() {
        let (t, rec) = tree(3);
        let mut ctx = rec.begin_txn("T1");
        let keys: Vec<String> = (0..60).map(|i| format!("k{:03}", i * 7 % 60)).collect();
        for (i, k) in keys.iter().enumerate() {
            t.insert(&mut ctx, k, i as u64);
            t.check_integrity().unwrap();
        }
        assert!(t.depth() >= 3, "60 keys at fanout 3 must deepen the tree");
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.search(&mut ctx, k), Some(i as u64), "key {k}");
        }
        // scan is globally sorted and complete
        let scanned = t.scan(&mut ctx);
        assert_eq!(scanned.len(), 60);
        assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0));
        drop(ctx);
    }

    #[test]
    fn delete_removes_and_tolerates_missing() {
        let (t, rec) = tree(4);
        let mut ctx = rec.begin_txn("T1");
        for i in 0..20 {
            t.insert(&mut ctx, &format!("k{i:02}"), i);
        }
        assert_eq!(t.delete(&mut ctx, "k05"), Some(5));
        assert_eq!(t.delete(&mut ctx, "k05"), None);
        assert_eq!(t.search(&mut ctx, "k05"), None);
        assert_eq!(t.scan(&mut ctx).len(), 19);
        drop(ctx);
        t.check_integrity().unwrap();
    }

    #[test]
    fn recorded_history_is_serializable_for_single_txn() {
        let (t, rec) = tree(3);
        let mut ctx = rec.begin_txn("T1");
        for i in 0..30 {
            t.insert(&mut ctx, &format!("k{i:02}"), i);
        }
        drop(ctx);
        let (mut ts, h) = rec.finish();
        // splits rearrange ancestors' nodes: Definition 5 applies
        let report = extend_virtual_objects(&mut ts);
        assert!(
            !report.is_empty(),
            "splits must create call-path cycles (rearrange on an ancestor's node)"
        );
        let r = analyze(&ts, &h);
        assert!(r.oo_decentralized.is_ok(), "{:?}", r.oo_decentralized);
    }

    #[test]
    fn commuting_inserts_leave_top_level_unordered() {
        let (t, rec) = tree(8);
        // pre-populate so both transactions hit the same leaf
        let mut setup = rec.begin_txn("Setup");
        t.insert(&mut setup, "AAA", 0);
        drop(setup);
        let mut t1 = rec.begin_txn("T1");
        let mut t2 = rec.begin_txn("T2");
        t.insert(&mut t1, "DBS", 1);
        t.insert(&mut t2, "DBMS", 2);
        drop(t1);
        drop(t2);
        let (mut ts, h) = rec.finish();
        extend_virtual_objects(&mut ts);
        let r = analyze(&ts, &h);
        assert!(r.oo_decentralized.is_ok());
        let ss = oodb_core::schedule::SystemSchedules::infer(&ts, &h);
        let top = &ss.schedule(ts.system_object()).action_deps;
        // Setup precedes both (page conflicts at the shared leaf are
        // inherited through conflicting... actually Setup/T1/T2 inserts
        // have distinct keys, so nothing reaches the top level at all
        assert_eq!(top.edge_count(), 0);
    }

    #[test]
    fn blink_chase_finds_keys_after_manual_split_simulation() {
        // construct a tree, split a leaf, then search keys that live in
        // the right sibling while descending via a stale parent route:
        // the high-key chase must still find them
        let (t, rec) = tree(2);
        let mut ctx = rec.begin_txn("T1");
        for (i, k) in ["A", "B", "C", "D", "E", "F"].iter().enumerate() {
            t.insert(&mut ctx, k, i as u64);
        }
        for (i, k) in ["A", "B", "C", "D", "E", "F"].iter().enumerate() {
            assert_eq!(t.search(&mut ctx, k), Some(i as u64));
        }
        drop(ctx);
        t.check_integrity().unwrap();
    }

    #[test]
    fn root_page_is_fixed_across_splits() {
        let (t, rec) = tree(2);
        let root_before = t.root_page();
        let mut ctx = rec.begin_txn("T1");
        for k in ["A", "B", "C", "D", "E", "F", "G", "H"] {
            t.insert(&mut ctx, k, 0);
        }
        drop(ctx);
        assert!(t.depth() >= 2, "root must have split");
        assert_eq!(t.root_page(), root_before, "root splits rewrite in place");
        t.check_integrity().unwrap();
    }

    #[test]
    fn concurrent_inserts_under_latches_keep_integrity() {
        let rec = Recorder::new();
        let mgr = BufferManager::new(BufferPool::new(512, required_page_size(3)));
        let t = std::sync::Arc::new(BLinkTree::create(mgr, rec.clone(), "BpTree", 3));
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let t = std::sync::Arc::clone(&t);
                let rec = rec.clone();
                std::thread::spawn(move || {
                    let mut ctx = rec.begin_txn(format!("T{w}"));
                    for i in 0..40 {
                        t.insert(&mut ctx, &format!("w{w}k{i:03}"), i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        t.check_integrity().unwrap();
        let mut ctx = rec.begin_txn("Check");
        assert_eq!(t.scan(&mut ctx).len(), 160);
        for w in 0..4u64 {
            for i in 0..40 {
                assert_eq!(t.search(&mut ctx, &format!("w{w}k{i:03}")), Some(i));
            }
        }
        drop(ctx);
    }

    #[test]
    fn an_unrecorded_search_latches_only_its_leaf() {
        let rec = Recorder::disabled();
        let mgr = BufferManager::new(BufferPool::new(256, required_page_size(3)));
        let t = BLinkTree::create(mgr.clone(), rec.clone(), "BpTree", 3);
        let mut ctx = rec.begin_txn("T1");
        for i in 0..60 {
            t.insert(&mut ctx, &format!("k{:03}", i * 7 % 60), i * 7 % 60);
        }
        assert!(t.depth() >= 4);
        t.check_integrity().unwrap();
        let hits = || mgr.pool().stats().hits;
        let before = hits();
        for i in 0..60 {
            assert_eq!(t.search(&mut ctx, &format!("k{i:03}")), Some(i));
        }
        assert_eq!(t.search(&mut ctx, "k999"), None);
        assert_eq!(hits() - before, 61, "inner nodes are read off their images");
        let keys: Vec<String> = t
            .range(&mut ctx, "k010", "k013")
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, ["k010", "k011", "k012", "k013"]);
        drop(ctx);
    }

    #[test]
    fn dump_shows_structure() {
        let (t, rec) = tree(2);
        let mut ctx = rec.begin_txn("T1");
        for k in ["A", "B", "C", "D", "E"] {
            t.insert(&mut ctx, k, 0);
        }
        drop(ctx);
        let d = t.dump();
        assert!(d.contains("Node"));
        assert!(d.contains("Leaf"));
        assert!(d.contains("->N"), "B-links rendered: {d}");
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_pool_rejected() {
        let rec = Recorder::new();
        let mgr = BufferManager::new(BufferPool::new(16, 64));
        let _ = BLinkTree::create(mgr, rec, "T", 16);
    }
}
