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
//! — in place for readers, decoded for writers — the
//! retained-ancestor stack that makes multi-level splits atomic with
//! respect to every other traversal, and the version-validated images of
//! inner nodes (`InnerImages`) that readers who record nothing read
//! instead of latching.
//!
//! ## The protocol
//!
//! * **Recording readers** (search / scan / range) latch-couple
//!   **shared** downward: acquire the child's S latch *before* releasing
//!   the parent's. Rightward B-link chases likewise acquire the sibling
//!   before releasing the current node.
//! * **Readers that record nothing** (a [`Recorder::disabled`] cursor's
//!   search and range) latch no inner node: they read its image — copy
//!   it, then check that its version did not move — and S-latch only the
//!   leaf (and an inner page whose image would not validate). They couple
//!   nothing, so they can follow a parent read before a split to a node
//!   whose keys have since moved right; the node's high key and right
//!   link send them on (Lehman–Yao). Nodes never merge and non-root pages
//!   are never reused, so a link, once read, stays a valid start.
//!   Recording readers cannot do this: a visit's ticket must be claimed
//!   while its page is latched (below).
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
//! The B-link chase (`must_chase`, [`Probe::Chase`]) is what keeps a
//! reader that records nothing correct: it reads parents without a latch,
//! so it meets nodes split after it chose them, and the chase finds the
//! key right of them. For latch-coupled traversals it is only a safety
//! net: a coupled reader holding S(parent) excludes any writer that would
//! split the child (such a writer retains X(parent)), and once the reader
//! has coupled to the child, a writer cannot latch it.
//!
//! [`Recorder::disabled`]: oodb_model::Recorder::disabled

use crate::node::{EncodedNode, Node, Probe};
use oodb_storage::chunked::Chunked;
use oodb_storage::{BufferManager, Page, PageError, PageExclusive, PageId, PageShared};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::OnceLock;

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
/// compacting on fragmentation, and republish the page's image if the
/// node is an inner one.
pub(crate) fn write_node(images: &InnerImages, page: &PageExclusive<'_>, node: &Node) {
    let bytes = node.encode();
    if node.is_leaf {
        debug_assert!(
            images.get(page.id()).is_none(),
            "an inner node never becomes a leaf"
        );
    } else {
        images.publish(page.id(), &bytes);
    }
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

/// Size of the stack buffer a reader copies an image into; an inner
/// node encoded larger is read under its latch. It covers every inner
/// node up to fanout 13 whatever its keys, and up to fanout 110 with
/// 8-byte keys.
pub(crate) const IMAGE_BUF: usize = 2048;

/// Attempts at a validated copy of one image before the reader latches
/// the page instead.
const IMAGE_TRIES: usize = 4;

/// One inner node's encoded record, readable without its latch: a
/// seqlock. `version` is odd while the page's X-latch holder rewrites
/// `len` and `words`, and before the first record is published (a root
/// that turns inner is reachable the moment its image exists); a reader
/// keeps a copy only if `version` was the same even value before and
/// after it copied.
struct Image {
    version: AtomicU64,
    /// Bytes of the record in `words`.
    len: AtomicU64,
    /// The record, little-endian, 8 bytes a word; as many words as a
    /// page has bytes.
    words: Box<[AtomicU64]>,
}

impl Image {
    fn new(words: usize) -> Self {
        Image {
            version: AtomicU64::new(1),
            len: AtomicU64::new(0),
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Replace the record. Only the page's X-latch holder calls this, so
    /// there is one writer at a time.
    fn publish(&self, record: &[u8]) {
        let odd = self.version.load(Ordering::Relaxed) | 1;
        self.version.store(odd, Ordering::Relaxed);
        // no word store may become visible before the odd version
        fence(Ordering::Release);
        self.len.store(record.len() as u64, Ordering::Relaxed);
        for (word, bytes) in self.words.iter().zip(record.chunks(8)) {
            let mut le = [0; 8];
            le[..bytes.len()].copy_from_slice(bytes);
            word.store(u64::from_le_bytes(le), Ordering::Relaxed);
        }
        self.version.store(odd + 1, Ordering::Release);
    }

    /// Copy the record into the front of `buf` and return its length if
    /// the copy validates; `None` if a writer was seen or the record does
    /// not fit `buf`. A torn copy is never vouched for, so nothing parses
    /// it.
    fn read(&self, buf: &mut [u8]) -> Option<usize> {
        let version = self.version.load(Ordering::Acquire);
        if version & 1 == 1 {
            return None;
        }
        let len = self.len.load(Ordering::Relaxed) as usize;
        let words = self.words.get(..len.div_ceil(8))?;
        let copy = buf.get_mut(..words.len() * 8)?;
        for (bytes, word) in copy.chunks_exact_mut(8).zip(words) {
            bytes.copy_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
        }
        // the copy's loads happen before the second version load
        fence(Ordering::Acquire);
        (self.version.load(Ordering::Relaxed) == version).then_some(len)
    }
}

/// The images of a tree's inner nodes, by page id: what an unrecorded
/// descent reads instead of latching an inner page.
///
/// [`write_node`] republishes a page's image under its X latch whenever
/// it writes an inner node there, so an image equals its page whenever
/// nobody holds that latch exclusively. A page that has an image holds an
/// inner node for good (a non-root page keeps its level, a root only
/// grows), so a page without one is a leaf. A split writes the new
/// sibling before the node that links to it, and a root split both halves
/// before the root: a reader that finds a link in a validated copy finds
/// the linked page's image too.
pub(crate) struct InnerImages {
    table: Chunked<OnceLock<Box<Image>>>,
    /// Words per image: one page.
    words: usize,
}

impl InnerImages {
    /// Images of the inner nodes of pages of `page_size` bytes.
    pub(crate) fn new(page_size: usize) -> Self {
        InnerImages {
            table: Chunked::new(),
            words: page_size.div_ceil(8),
        }
    }

    fn get(&self, page: PageId) -> Option<&Image> {
        self.table
            .get(u64::from(page.0))?
            .get()
            .map(|image| &**image)
    }

    fn publish(&self, page: PageId, record: &[u8]) {
        self.table
            .get_or_alloc(u64::from(page.0), OnceLock::new)
            .get_or_init(|| Box::new(Image::new(self.words)))
            .publish(record);
    }

    /// The page a read-only descent for `key` visits after `page`, read
    /// off `page`'s image — its child for `key`, or its right sibling if
    /// `key` is at or above its high key. `None` if `page` has no image
    /// (it holds a leaf) or no validated copy was had in a few tries: the
    /// caller then latches `page`. `buf` is the caller's copy buffer,
    /// [`IMAGE_BUF`] bytes, reused across a descent.
    pub(crate) fn next(&self, page: PageId, key: &str, buf: &mut [u8]) -> Option<PageId> {
        let image = self.get(page)?;
        let len = (0..IMAGE_TRIES).find_map(|_| image.read(buf))?;
        let node = EncodedNode::parse(&buf[..len]);
        debug_assert!(!node.is_leaf, "only inner nodes have images");
        match node.probe(key) {
            Probe::Chase(next) | Probe::Child(next) => Some(next),
            Probe::Leaf(_) => None,
        }
    }

    /// A validated copy of `page`'s image, if it has one. For the
    /// single-threaded integrity check: with no writer, the first copy
    /// validates.
    pub(crate) fn record(&self, page: PageId) -> Option<Vec<u8>> {
        let image = self.get(page)?;
        let mut buf = vec![0; self.words * 8];
        let len = image.read(&mut buf).expect("no writer is running");
        buf.truncate(len);
        Some(buf)
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_image_validates_only_between_publications() {
        let image = Image::new(4);
        let mut buf = [0; IMAGE_BUF];
        assert_eq!(image.read(&mut buf), None, "nothing published yet");
        image.publish(b"inner node");
        assert_eq!(image.read(&mut buf), Some(10));
        assert_eq!(&buf[..10], b"inner node");
        image.publish(b"split");
        assert_eq!(image.read(&mut buf), Some(5));
        assert_eq!(&buf[..5], b"split");
        assert_eq!(image.read(&mut [0; 4]), None, "larger than the buffer");
        // a writer mid-publication
        image.version.fetch_add(1, Ordering::Relaxed);
        assert_eq!(image.read(&mut buf), None);
    }
}
