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
//! ancestors for writers, inner nodes read by version for readers, and a
//! fixed root page — the protocol, its safety condition, and the
//! deadlock-freedom argument are documented in [`crate::latch`]. All
//! operations take `&self`; the tree is shared freely across worker
//! threads.

use crate::latch::{
    decode, is_safe, node_record, read_latched, with_encoded, write_node, InnerImages, Retained,
    IMAGE_BUF,
};
use crate::node::{EncodedNode, Node, Probe, MAX_KEY_LEN};
use crate::objects::{ObjectIds, ObjectKey};
use oodb_core::commutativity::{ActionDescriptor, DescriptorRef, Method, RangeSpec};
use oodb_core::ids::ObjectIdx;
use oodb_model::{Recorder, TxnCtx};
use oodb_storage::{BufferManager, PageExclusive, PageId, PageShared};
use std::ops::ControlFlow;
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

/// A recorded B-link tree: latch-coupled writers, readers by version.
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
    /// Written under the root's exclusive latch while its image is odd;
    /// read by a visit of the root, under its latch or inside its image's
    /// version window.
    root_epoch: AtomicU32,
    /// Inner nodes as readers read them: by version, not by latch.
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
        write_node(&images, &root_pin, &Node::leaf(), || {});
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

    /// Record the visit of a node: `descriptor` on the node object and the
    /// page read under it, one ticket, kept if `still_valid` after the
    /// claim (`|| true` under the latch). The first visit of an operation
    /// (`tree_level`) also opens the tree-level action around them. Leaves
    /// the actions open if it returns `true`.
    fn record_visit(
        &self,
        ctx: &mut TxnCtx,
        page: PageId,
        descriptor: &DescriptorRef,
        tree_level: bool,
        still_valid: impl FnOnce() -> bool,
    ) -> bool {
        let read = DescriptorRef::read();
        let node = || (self.node_object(page), descriptor);
        let page_read = || (self.page_object(page), &read);
        if tree_level {
            let visit = || ([(self.tree_obj, descriptor), node()], page_read());
            ctx.record_validated(visit, still_valid)
        } else {
            ctx.record_validated(|| ([node()], page_read()), still_valid)
        }
    }

    /// Write `node` to the X-latched `page` and record it ([`write_node`]).
    fn write(&self, ctx: &mut TxnCtx, page: &PageExclusive<'_>, node: &Node) {
        write_node(&self.images, page, node, || {
            ctx.page_write(self.page_object(page.id()))
        });
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
        let base = ctx.depth();
        let mut retained = Retained::new();
        let (page, _) = self.descend_exclusive(ctx, key, descriptor, Some(&mut retained));
        // Leaf work, inside the (still open) leaf insert action, with the
        // leaf exclusively latched and every split-reachable ancestor
        // retained: only the leaf is decoded.
        let mut node = decode(&page);
        let fresh = node.upsert(key, value);
        if node.entries.len() > self.fanout {
            self.split(ctx, &mut retained, page, node);
        } else {
            self.write(ctx, &page, &node);
            drop(page);
        }
        retained.clear();

        // close leaf + descent actions + the tree-level insert
        ctx.exit_to(base);
        fresh
    }

    /// X-latch-coupled descent to the leaf responsible for `key`,
    /// recording `descriptor` at the tree level and at every node visited,
    /// each visit under the node's latch. Every node is read in place
    /// ([`EncodedNode::probe`] and its entry count): the writers decode
    /// only what they change. Returns the X-latched leaf and what it
    /// holds for `key`, the actions it recorded left open.
    ///
    /// With `retained` (an insert), the latches of the ancestors of an
    /// unsafe node stay held on it, deepest last, and are all released
    /// the moment a safe node is reached ([`crate::latch`]). Without
    /// (a delete, which never splits or merges), the parent's latch goes
    /// as soon as the child's is held.
    fn descend_exclusive<'a>(
        &'a self,
        ctx: &mut TxnCtx,
        key: &str,
        descriptor: &DescriptorRef,
        mut retained: Option<&mut Retained<'a>>,
    ) -> (PageExclusive<'a>, Option<u64>) {
        let base = ctx.depth();
        let latch = |page| self.mgr.write_page(page).expect("tree pages exist");
        let mut page = latch(self.root);
        loop {
            self.record_visit(ctx, page.id(), descriptor, ctx.depth() == base, || true);
            let (probe, entries) = page.read(|p| {
                let node = EncodedNode::parse(node_record(p));
                (node.probe(key), node.len())
            });
            if !matches!(probe, Probe::Chase(_)) && is_safe(entries, self.fanout) {
                // no split below can reach any ancestor: release them all
                retained.iter_mut().for_each(|retained| retained.clear());
            }
            match probe {
                Probe::Chase(right) => {
                    // B-link chase (a safety net: splits are atomic under
                    // the retained latches, so a writer normally never
                    // sees one): the sibling is latched before this node
                    // is released
                    ctx.exit();
                    page = latch(right);
                }
                Probe::Child(child) => {
                    let parent = std::mem::replace(&mut page, latch(child));
                    if let Some(retained) = retained.as_deref_mut() {
                        retained.push(parent);
                    }
                }
                Probe::Leaf(hit) => return (page, hit),
            }
        }
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
        self.write(ctx, &right_pin, &right);
        self.write(ctx, &page, &node);
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
        let page = retained
            .pop()
            .expect("a splitting node's father is always retained");
        let rearrange = keyed(Method::Rearrange, &separator);
        self.record_visit(ctx, page.id(), &rearrange, false, || true);
        let mut node = decode(&page);
        node.upsert(&separator, child.0 as u64);
        if node.entries.len() > self.fanout {
            // the father's father is rearranged from within this
            // rearrangement
            self.split(ctx, retained, page, node);
        } else {
            self.write(ctx, &page, &node);
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
        // the epoch moves with the root's write, while its image is odd:
        // a visit that read the old epoch off a copy fails its second look
        let epoch = self.root_epoch.load(Ordering::Relaxed) + 1;
        let page = root_page.id();
        let fresh_root = self.objects.get(ObjectKey::Node { page, epoch });
        ctx.enter(fresh_root, keyed(Method::Rearrange, &sep));
        let left_pin = self.mgr.allocate().expect("allocating root left half");
        let right_pin = self.mgr.allocate().expect("allocating root right half");
        // left half keeps chaining to the right half; the right half
        // inherited the root's (empty) link and high key from split()
        node.right_link = Some(right_pin.id());
        self.write(ctx, &left_pin, node);
        self.write(ctx, &right_pin, &right);
        let mut new_root = Node::inner(left_pin.id());
        new_root.upsert(&sep, right_pin.id().0 as u64);
        write_node(&self.images, root_page, &new_root, || {
            self.root_epoch.store(epoch, Ordering::Release);
            ctx.page_write(self.page_object(page));
        });
        ctx.exit();
    }

    /// Descent to the leaf responsible for `key`, recording `descriptor`
    /// at the tree level and at every node visited. Returns the
    /// S-latched leaf and what it holds for `key`, the actions it
    /// recorded left open.
    fn descend(
        &self,
        ctx: &mut TxnCtx,
        key: &str,
        descriptor: &DescriptorRef,
    ) -> (PageShared<'_>, Option<u64>) {
        let (base, mut buf, mut page) = (ctx.depth(), [0; IMAGE_BUF], self.root);
        loop {
            match self.visit(ctx, page, key, descriptor, ctx.depth() == base, &mut buf) {
                ControlFlow::Continue(next) => page = next,
                ControlFlow::Break(leaf) => return leaf,
            }
        }
    }

    /// One visit of a descent for `key`: the node on `page`, read off its
    /// image or, if it is a leaf or its image will not validate, under its
    /// S latch. Nothing is coupled: a key that moved right since the parent
    /// was read is found through the high key and right link (Lehman–Yao).
    /// Continues with the child or the right sibling (closing the visit
    /// chased past), or breaks with the latched leaf and its hit.
    fn visit<'a>(
        &'a self,
        ctx: &mut TxnCtx,
        page: PageId,
        key: &str,
        descriptor: &DescriptorRef,
        tree_level: bool,
        buf: &mut [u8],
    ) -> ControlFlow<(PageShared<'a>, Option<u64>), PageId> {
        let record = |still_valid: &dyn Fn() -> bool| {
            self.record_visit(ctx, page, descriptor, tree_level, still_valid)
        };
        let probe = match self.images.visit(page, key, buf, record) {
            Some(probe) => probe,
            None => {
                let latched = read_latched(&self.mgr, page);
                self.record_visit(ctx, page, descriptor, tree_level, || true);
                match with_encoded(&latched, |node| node.probe(key)) {
                    Probe::Leaf(hit) => return ControlFlow::Break((latched, hit)),
                    probe => probe,
                }
            }
        };
        ControlFlow::Continue(match probe {
            Probe::Chase(right) => {
                ctx.exit();
                right
            }
            Probe::Child(child) => child,
            Probe::Leaf(_) => unreachable!("only inner nodes have images"),
        })
    }

    /// Exact-match lookup.
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
        let (leaf, hit) = self.descend(ctx, key, descriptor);
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
        let (page, hit) = self.descend_exclusive(ctx, key, descriptor, None);
        if hit.is_some() {
            // only the leaf that loses the key is decoded
            let mut node = decode(&page);
            node.remove(key);
            self.write(ctx, &page, &node);
        }
        drop(page);
        ctx.exit_to(base);
        hit
    }

    /// Full ordered scan over the leaf chain, recorded as the keyless
    /// `readSeq` (conflicts with every updater, commutes with readers).
    /// Descends the leftmost spine (a descent for the empty key), then
    /// walks rightward along the chain (each leaf's sibling is latched
    /// before the leaf is released).
    pub fn scan(&self, ctx: &mut TxnCtx) -> Vec<(String, u64)> {
        let scan: DescriptorRef = ActionDescriptor::nullary(Method::ReadSeq).into();
        let base = ctx.depth();
        let (leaf, _) = self.descend(ctx, "", &scan);
        let out = self.walk_chain(ctx, leaf, &scan, |_| true, |_| false);
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
        let (leaf, _) = self.descend(ctx, lo, descriptor);
        let out = self.walk_chain(ctx, leaf, descriptor, |k| k >= lo, |k| k > hi);
        ctx.exit_to(base);
        out
    }

    /// Walk the leaf chain rightward from the latched, already recorded
    /// `leaf`, collecting the entries `keep` accepts until `past` says a
    /// key lies beyond the scan or the chain ends. Every further leaf is
    /// latched before the previous one is released and recorded as one
    /// closed visit of `descriptor`, beside `leaf`'s visit and not inside
    /// it: the descent left that visit open, and the walk closes it
    /// before it records the first chained leaf. Nested, a chained
    /// leaf's conflict would be inherited by `leaf`'s action, an action
    /// on another object, and stop there.
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
        let mut leaf_open = true;
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
            if std::mem::take(&mut leaf_open) {
                ctx.exit();
            }
            self.record_visit(ctx, page.id(), descriptor, false, || true);
            ctx.exit();
        }
        out
    }

    /// Depth of the tree (1 = root is a leaf). Unrecorded, unlatched
    /// single-threaded diagnostic.
    pub fn depth(&self) -> usize {
        self.leftmost_leaf().1
    }

    /// The leftmost leaf and its depth, for the diagnostics.
    fn leftmost_leaf(&self) -> (PageId, usize) {
        let (mut page, mut depth) = (self.root, 1);
        while let Some(child) = self.read_node_raw(page).first_child {
            (page, depth) = (child, depth + 1);
        }
        (page, depth)
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
        let mut prev: Option<String> = None;
        let mut leaf = Some(self.leftmost_leaf().0);
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
    use oodb_core::certifier::{Certifier, CommitOutcome};
    use oodb_core::ids::{ActionIdx, TxnIdx};
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

    /// A recorded search reads the root off its image; a recorded insert
    /// then splits the leaf the root sent it to, and the key it looks for
    /// moves right. The search resumes there, chases the right link and
    /// finds the key, and the record holds the chase: the leaf's visit
    /// closed, its sibling's visited beside it under the root's.
    #[test]
    fn a_recorded_search_chases_a_split_made_between_two_of_its_visits() {
        let (t, rec) = tree(4);
        let mut setup = rec.begin_txn("Setup");
        for (i, k) in ["a", "b", "c", "d", "e", "f"].iter().enumerate() {
            t.insert(&mut setup, k, i as u64);
        }
        drop(setup);
        assert_eq!(t.depth(), 2, "a root over [a b] and [c d e f]");

        let mut reader = rec.begin_txn("Search");
        let search = keyed(Method::Search, "f");
        let mut buf = [0; IMAGE_BUF];
        let hits = || t.mgr.pool().stats().hits;
        let before = hits();
        let ControlFlow::Continue(leaf) =
            t.visit(&mut reader, t.root, "f", &search, true, &mut buf)
        else {
            panic!("the root is an inner node")
        };
        assert_eq!(hits(), before, "the root was read off its image");

        let mut writer = rec.begin_txn("Insert");
        assert!(t.insert(&mut writer, "g", 6), "[c d e f g] splits at e");
        drop(writer);

        let ControlFlow::Continue(sibling) =
            t.visit(&mut reader, leaf, "f", &search, false, &mut buf)
        else {
            panic!("f moved right of the leaf")
        };
        let ControlFlow::Break((latched, hit)) =
            t.visit(&mut reader, sibling, "f", &search, false, &mut buf)
        else {
            panic!("the sibling is a leaf")
        };
        assert_eq!(hit, Some(5));
        drop(latched);
        reader.exit_to(1);
        drop(reader);
        t.check_integrity().unwrap();

        let (mut ts, h) = rec.finish();
        h.check_complete(&ts).unwrap();
        let only_child = |a: ActionIdx| {
            let children: Vec<_> = ts.children(a).collect();
            assert_eq!(children.len(), 1, "{}", ts.render_tree(ts.root_of(a)));
            children[0]
        };
        let search_root = ts.top_level()[1];
        let root_visit = only_child(only_child(search_root));
        let name = |a: ActionIdx| ts.object(ts.action(a).object).name.clone();
        let under_root: Vec<String> = ts.children(root_visit).map(name).collect();
        let node = |page: PageId| format!("BpTree.N{}", page.0);
        let (root_page, leaf_page) = (format!("Page{}", t.root.0), format!("Page{}", leaf.0));
        assert_eq!(under_root, [root_page, node(leaf), node(sibling)]);
        let leaf_visit = ts.children(root_visit).nth(1).unwrap();
        assert_eq!(name(only_child(leaf_visit)), leaf_page);

        extend_virtual_objects(&mut ts);
        let r = analyze(&ts, &h);
        assert!(r.oo_decentralized.is_ok(), "{:?}", r.oo_decentralized);
        let mut cert = Certifier::default();
        for txn in 0..3 {
            let outcome = cert.try_commit(&ts, &h, TxnIdx(txn));
            assert_eq!(outcome, CommitOutcome::Committed, "T{txn}");
        }
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
