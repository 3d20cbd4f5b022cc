//! Latch-coupling (crabbing) protocol for the concurrent B-link tree.
//!
//! The tree's pages are latched through `oodb-storage`'s
//! [`BufferManager`]: a page guard is the read or write guard of the
//! frame's own lock, and eviction takes a frame only with `try_write`, so
//! *latched ⇒ unevictable* — a page cannot leave the pool under a
//! traversal. Guards borrow the pool, hence the lifetimes on
//! [`PageShared`], [`PageExclusive`] and `Retained`. The frame lock
//! prefers writers, so no thread may latch a page it already holds (none
//! does: every acquisition goes down or right). This module supplies the
//! protocol layer on top: typed helpers that read a node under its latch
//! — in place for readers, decoded for writers — and the
//! retained-ancestor stack that makes multi-level splits atomic with
//! respect to every other traversal.
//!
//! ## The protocol
//!
//! * **Readers** (search / scan / range) latch-couple **shared**
//!   downward: acquire the child's S latch *before* releasing the
//!   parent's. Rightward B-link chases likewise acquire the sibling
//!   before releasing the current node.
//! * **Writers** (insert / delete) latch-couple **exclusive** downward.
//!   Insert additionally *retains* ancestor latches while the just-read
//!   child is **unsafe** — `entries.len() == fanout`, i.e. one more entry
//!   would overflow it — and releases *all* retained ancestors the moment
//!   a safe child is reached (`Retained::release_all`). Delete is lazy
//!   (leaf-only, never merges), so it always releases the parent
//!   immediately after coupling to the child.
//! * **Safety condition**: a node is *safe* for insert iff
//!   `entries.len() < fanout` (`is_safe`) — an insertion below it
//!   cannot propagate a split into it. The retained stack therefore
//!   always covers exactly the maximal unsafe suffix of the descent path:
//!   when a split does happen, every node it can touch is already
//!   exclusively latched by this thread, so concurrent traversals never
//!   observe a half-finished multi-level split.
//! * **Fixed root**: a root split rewrites the root page *in place* as an
//!   inner node over two freshly allocated halves, so the root `PageId`
//!   is immutable and there is no root-pointer handoff to race on.
//! * **Deadlock freedom**: every acquisition is either downward
//!   (parent → child, including the retained stack, which only ever
//!   grows downward) or rightward (B-link chase, leaf-chain walk) toward
//!   a *freshly allocated* or strictly-right sibling. Orient pages by
//!   (depth, left-to-right position): all waits point the same way, so no
//!   cycle can form.
//! * **Recording**: every `enter`/`page_read`/`page_write` for a node is
//!   issued while that node's latch is held — a visit's `enter` and
//!   `page_read` as one `TxnCtx::record` call, which claims the visit's
//!   ticket — its place in the history — before it returns, under the
//!   latch. This keeps each node
//!   action's page accesses *block-atomic*, which is what prevents the
//!   interleaved read-read-write-write page pattern that
//!   `oodb-model::recorder` pins down as a leaf-level action-dependency
//!   cycle (the paper's Example 1 / lost update).
//!
//! The B-link `must_chase` path is kept as a safety net, but under this
//! protocol a traversal can no longer observe a mid-split node: a reader
//! holding S(parent) excludes any writer that would split the child
//! (such a writer retains X(parent)), and once the reader has coupled to
//! the child, a writer cannot latch it.

use crate::node::{EncodedNode, Node};
use oodb_storage::{BufferManager, Page, PageError, PageExclusive, PageId, PageShared};

/// `true` iff an insertion below `node` cannot split it.
pub(crate) fn is_safe(node: &Node, fanout: usize) -> bool {
    node.entries.len() < fanout
}

/// The encoded node of a tree page: its record 0.
pub(crate) fn node_record(page: &Page) -> &[u8] {
    page.read(0).expect("node record present")
}

/// S-latch `page`.
pub(crate) fn read_latched(mgr: &BufferManager, page: PageId) -> PageShared<'_> {
    mgr.read_page(page).expect("tree pages exist")
}

/// Run `f` on the node of a shared-latched page, in place: readers never
/// decode.
pub(crate) fn with_encoded<R>(page: &PageShared<'_>, f: impl FnOnce(EncodedNode<'_>) -> R) -> R {
    page.read(|p| f(EncodedNode::parse(node_record(p))))
}

/// X-latch `page` and decode its node.
pub(crate) fn write_latched(mgr: &BufferManager, page: PageId) -> (PageExclusive<'_>, Node) {
    let guard = mgr.write_page(page).expect("tree pages exist");
    let node = guard.read(|p| Node::decode(node_record(p)));
    (guard, node)
}

/// Encode `node` into record 0 of an exclusively latched page,
/// compacting on fragmentation.
pub(crate) fn write_node(page: &PageExclusive<'_>, node: &Node) {
    let bytes = node.encode();
    page.write(|p| {
        let result = if p.slot_count() == 0 {
            p.insert(&bytes).map(|_| ())
        } else {
            p.update(0, &bytes)
        };
        match result {
            Ok(()) => {}
            Err(PageError::Full { .. }) => {
                p.compact();
                if p.slot_count() == 0 {
                    p.insert(&bytes).map(|_| ()).expect("sized for fanout");
                } else {
                    p.update(0, &bytes).expect("sized for fanout");
                }
            }
            Err(e) => panic!("writing node: {e}"),
        }
    });
}

/// The stack of exclusively latched ancestors an insert retains while
/// descending through unsafe nodes. Guards are owned, so popping one for
/// a split keeps it latched until the split's writes complete, and
/// [`release_all`](Self::release_all) drops the whole suffix the moment a
/// safe child proves no split can propagate this high.
pub(crate) struct Retained<'a> {
    stack: Vec<(PageExclusive<'a>, Node)>,
}

impl<'a> Retained<'a> {
    pub(crate) fn new() -> Self {
        Retained { stack: Vec::new() }
    }

    /// Retain `page` (still exclusively latched) while descending below
    /// it.
    pub(crate) fn push(&mut self, page: PageExclusive<'a>, node: Node) {
        self.stack.push((page, node));
    }

    /// Hand the deepest retained ancestor to a propagating split.
    pub(crate) fn pop(&mut self) -> Option<(PageExclusive<'a>, Node)> {
        self.stack.pop()
    }

    /// The current child is safe: no split can reach any retained
    /// ancestor, release every latch.
    pub(crate) fn release_all(&mut self) {
        self.stack.clear();
    }
}
