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
//! — in place, and decoded only to rewrite it — the
//! retained-ancestor stack that makes multi-level splits atomic with
//! respect to every other traversal, and the version-validated images of
//! inner nodes (`InnerImages`) that readers read instead of latching.
//!
//! ## The protocol
//!
//! * **Readers** (search / scan / range, recorded or not) latch no inner
//!   node: they read its image — copy it, then check that its version
//!   did not move — and S-latch only the leaf (and an inner page whose
//!   image would not validate). They couple nothing, so they can follow
//!   a parent read before a split to a node whose keys have since moved
//!   right; the node's high key and right link send them on
//!   (Lehman–Yao). Nodes never merge and non-root pages are never
//!   reused, so a link, once read, stays a valid start.
//! * **Writers** (insert / delete) latch-couple **exclusive** downward.
//!   Both read each node in place, its encoded entry count included.
//!   Insert additionally *retains* ancestor latches while the just-read
//!   child is **unsafe** — it holds `fanout` entries, i.e. one more entry
//!   would overflow it — and releases *all* retained ancestors the moment
//!   a safe child is reached (`Retained`). Delete is lazy (leaf-only,
//!   never merges), so it always releases the parent immediately after
//!   coupling to the child.
//! * **Safety condition**: a node is *safe* for insert iff it holds
//!   fewer than `fanout` entries (`is_safe`) — an insertion below it
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
//! * **Recording**: a visit's `enter`s and `page_read` are one `TxnCtx`
//!   call, which claims the visit's ticket — its place in the history. A
//!   latched visit claims it under the latch; a visit read off an image,
//!   inside the image's version window, kept only if the version has not
//!   moved since the copy; a write (`write_node`) while the version is
//!   odd. No conflicting access falls between the page's order and the
//!   recorded one (DESIGN.md §7), and each node action's page accesses
//!   stay *block-atomic*, which prevents the read-read-write-write page
//!   pattern `oodb-model::recorder` pins as the paper's Example 1.
//!
//! The B-link chase ([`Probe::Chase`]) is what keeps a
//! reader correct: it reads parents without a latch, so it meets nodes
//! split after it chose them, and the chase finds the key right of them.
//! For the writers' coupled descents it is only a safety net: a split's
//! father stays X-latched until the split is done.

use crate::node::{EncodedNode, Node, Probe};
use oodb_storage::chunked::Chunked;
use oodb_storage::{BufferManager, Page, PageExclusive, PageId, PageShared};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::OnceLock;

/// `true` iff an insertion below a node of `entries` entries cannot split
/// it.
pub(crate) fn is_safe(entries: usize, fanout: usize) -> bool {
    entries < fanout
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

/// Decode the node of an exclusively latched page, to change it.
pub(crate) fn decode(page: &PageExclusive<'_>) -> Node {
    page.read(|p| Node::decode(node_record(p)))
}

/// Encode `node` into record 0 of an exclusively latched page (an update
/// compacts the page itself when it must), and republish the page's image if the
/// node is an inner one. `claim` records the write, under the latch and,
/// for an inner node, while the image's version is odd (DESIGN.md §7).
pub(crate) fn write_node(
    images: &InnerImages,
    page: &PageExclusive<'_>,
    node: &Node,
    claim: impl FnOnce(),
) {
    let bytes = node.encode();
    if node.is_leaf {
        debug_assert!(
            images.get(page.id()).is_none(),
            "an inner node never becomes a leaf"
        );
        claim();
    } else {
        images.publish(page.id(), &bytes, claim);
    }
    page.write(|p| {
        match p.slot_count() {
            0 => p.insert(&bytes).map(drop),
            _ => p.update(0, &bytes),
        }
        .expect("a node is sized for its page")
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

    /// Replace the record, running `claim` while the version is odd.
    /// Only the page's X-latch holder calls this, so there is one writer
    /// at a time.
    fn publish(&self, record: &[u8], claim: impl FnOnce()) {
        let odd = self.version.load(Ordering::Relaxed) | 1;
        self.version.store(odd, Ordering::Relaxed);
        // no word store, and no ticket claimed in `claim`, may become
        // visible before the odd version
        fence(Ordering::Release);
        claim();
        self.len.store(record.len() as u64, Ordering::Relaxed);
        for (word, bytes) in self.words.iter().zip(record.chunks(8)) {
            let mut le = [0; 8];
            le[..bytes.len()].copy_from_slice(bytes);
            word.store(u64::from_le_bytes(le), Ordering::Relaxed);
        }
        self.version.store(odd + 1, Ordering::Release);
    }

    /// Copy the record into the front of `buf` and return the version
    /// and the length if the copy validates; `None` if a writer was seen
    /// or the record does not fit `buf`. A torn copy is never vouched
    /// for, so nothing parses it.
    fn read(&self, buf: &mut [u8]) -> Option<(u64, usize)> {
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
        self.unchanged(version).then_some((version, len))
    }

    /// Whether the version is still `version`: every load and claim the
    /// caller made since it loaded `version` happens before this look.
    fn unchanged(&self, version: u64) -> bool {
        fence(Ordering::Acquire);
        self.version.load(Ordering::Relaxed) == version
    }
}

/// The images of a tree's inner nodes, by page id: what a descent reads
/// instead of latching an inner page.
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

    fn publish(&self, page: PageId, record: &[u8], claim: impl FnOnce()) {
        self.table
            .get_or_alloc(u64::from(page.0), OnceLock::new)
            .get_or_init(|| Box::new(Image::new(self.words)))
            .publish(record, claim);
    }

    /// Where a descent for `key` goes from `page` ([`Probe::Child`] or
    /// [`Probe::Chase`]), read off `page`'s image once `record` has
    /// recorded the visit; `record` gets the check that the copy still
    /// holds, to run after its claim, and `false` reads the image again.
    /// `None` if `page` has no image (a leaf) or no copy was validated and
    /// recorded in a few tries: the caller then latches `page`. `buf` is
    /// a copy buffer of [`IMAGE_BUF`] bytes.
    pub(crate) fn visit(
        &self,
        page: PageId,
        key: &str,
        buf: &mut [u8],
        mut record: impl FnMut(&dyn Fn() -> bool) -> bool,
    ) -> Option<Probe> {
        let image = self.get(page)?;
        (0..IMAGE_TRIES).find_map(|_| {
            let (version, len) = image.read(buf)?;
            let node = EncodedNode::parse(&buf[..len]);
            debug_assert!(!node.is_leaf, "only inner nodes have images");
            let probe = node.probe(key);
            record(&|| image.unchanged(version)).then_some(probe)
        })
    }

    /// A validated copy of `page`'s image, if it has one. For the
    /// single-threaded integrity check: with no writer, the first copy
    /// validates.
    pub(crate) fn record(&self, page: PageId) -> Option<Vec<u8>> {
        let image = self.get(page)?;
        let mut buf = vec![0; self.words * 8];
        let (_, len) = image.read(&mut buf).expect("no writer is running");
        buf.truncate(len);
        Some(buf)
    }
}

/// The exclusively latched ancestors an insert retains while descending
/// through unsafe nodes, deepest last: popping one for a split keeps it
/// latched until the split's writes complete, and `clear` releases them
/// all the moment a safe child proves no split can propagate this high.
/// They are kept encoded: a split decodes each father it pops.
pub(crate) type Retained<'a> = Vec<PageExclusive<'a>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_image_validates_only_between_publications() {
        let image = Image::new(4);
        let mut buf = [0; IMAGE_BUF];
        assert_eq!(image.read(&mut buf), None, "nothing published yet");
        let mut claimed_at = None;
        image.publish(b"inner node", || {
            claimed_at = Some(image.version.load(Ordering::Relaxed))
        });
        assert_eq!(
            claimed_at,
            Some(1),
            "the claim runs while the version is odd"
        );
        assert_eq!(image.read(&mut buf), Some((2, 10)));
        assert_eq!(&buf[..10], b"inner node");
        image.publish(b"split", || {});
        assert_eq!(image.read(&mut buf), Some((4, 5)));
        assert_eq!(&buf[..5], b"split");
        assert!(image.unchanged(4) && !image.unchanged(2));
        assert_eq!(image.read(&mut [0; 4]), None, "larger than the buffer");
        // a writer mid-publication
        image.version.fetch_add(1, Ordering::Relaxed);
        assert_eq!(image.read(&mut buf), None);
    }

    /// The version window as atomic steps under sequential consistency:
    /// one writer publishes two records, claiming a ticket in each
    /// publication as [`Image::publish`] does, while two readers each
    /// copy the image, validate the copy, probe it, claim a ticket and
    /// look at the version once more, as a recorded visit through
    /// [`InnerImages::visit`] and `TxnCtx::record_validated` does. A
    /// reader that fails a look starts over, [`IMAGE_TRIES`] times at
    /// most, then leaves for the latch. Every reachable state is explored
    /// once, so every interleaving of the steps is covered. The image
    /// starts as [`Image::new`] makes it: a root turning inner is
    /// reachable the moment its image exists. The fences are not modelled;
    /// DESIGN.md §7 argues them.
    mod model {
        use super::super::{Image, IMAGE_TRIES};
        use std::collections::HashSet;
        use std::sync::atomic::Ordering;

        /// Words of a record.
        const WORDS: usize = 2;
        const RECORDS: [[u64; WORDS]; 2] = [[11, 12], [21, 22]];

        /// A writer's steps in one publication, in `Image::publish`'s
        /// order.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        enum Write {
            Odd,
            Claim,
            Len,
            Word(usize),
            Even,
        }
        const PUBLISH: [Write; 6] = [
            Write::Odd,
            Write::Claim,
            Write::Len,
            Write::Word(0),
            Write::Word(1),
            Write::Even,
        ];

        /// Where a reader is in one try.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        enum Read {
            Version,
            Len,
            Copy(usize),
            Validate,
            Probe,
            Claim,
            Recheck,
            /// Staged, or gone to the latch.
            Done,
        }

        #[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
        struct Reader {
            pc: Option<Read>,
            tries: usize,
            version: u64,
            len: usize,
            copy: [u64; WORDS],
            ticket: u64,
            /// The copy a version check vouched for.
            validated: Option<Vec<u64>>,
            /// The staged visit: its ticket and the publications it saw.
            staged: Option<(u64, usize)>,
        }

        #[derive(Debug, Clone, PartialEq, Eq, Hash)]
        struct World {
            version: u64,
            len: usize,
            words: [u64; WORDS],
            /// The writer's publication and step within it.
            writer: (usize, usize),
            /// Each publication's ticket, once claimed.
            write_tickets: [Option<u64>; 2],
            /// Publications whose even store is done.
            published: usize,
            next_ticket: u64,
            readers: [Reader; 2],
        }

        impl World {
            fn start() -> Self {
                let image = Image::new(WORDS);
                let reader = Reader {
                    pc: Some(Read::Version),
                    ..Reader::default()
                };
                World {
                    version: image.version.load(Ordering::Relaxed),
                    len: image.len.load(Ordering::Relaxed) as usize,
                    words: [0; WORDS],
                    writer: (0, 0),
                    write_tickets: [None; 2],
                    published: 0,
                    next_ticket: 0,
                    readers: [reader.clone(), reader],
                }
            }

            fn claim(&mut self) -> u64 {
                self.next_ticket += 1;
                self.next_ticket - 1
            }

            /// The writer's next step, if it has one.
            fn write(&self) -> Option<(String, World)> {
                let (p, step) = self.writer;
                let write = *PUBLISH.get(step).filter(|_| p < RECORDS.len())?;
                let mut w = self.clone();
                match write {
                    Write::Odd => w.version |= 1,
                    Write::Claim => w.write_tickets[p] = Some(w.claim()),
                    Write::Len => w.len = WORDS,
                    Write::Word(i) => w.words[i] = RECORDS[p][i],
                    Write::Even => {
                        w.version = (w.version | 1) + 1;
                        w.published += 1;
                    }
                }
                w.writer = if step + 1 == PUBLISH.len() {
                    (p + 1, 0)
                } else {
                    (p, step + 1)
                };
                Some((format!("W{p} {write:?}"), w))
            }

            /// Reader `r`'s next step, if it has one.
            fn read(&self, r: usize) -> Option<(String, World)> {
                let step = self.readers[r].pc.filter(|&pc| pc != Read::Done)?;
                let mut w = self.clone();
                let (version, len, words) = (w.version, w.len, w.words);
                let ticket = if step == Read::Claim { w.claim() } else { 0 };
                let me = &mut w.readers[r];
                let fail = |me: &mut Reader| {
                    me.tries += 1;
                    me.pc = Some(if me.tries < IMAGE_TRIES {
                        Read::Version
                    } else {
                        Read::Done
                    });
                };
                match step {
                    Read::Version if version & 1 == 1 => fail(me),
                    Read::Version => {
                        me.version = version;
                        me.pc = Some(Read::Len);
                    }
                    Read::Len => {
                        me.len = len;
                        me.pc = Some(if len == 0 {
                            Read::Validate
                        } else {
                            Read::Copy(0)
                        });
                    }
                    Read::Copy(i) => {
                        me.copy[i] = words[i];
                        me.pc = Some(if i + 1 == me.len {
                            Read::Validate
                        } else {
                            Read::Copy(i + 1)
                        });
                    }
                    Read::Validate if version != me.version => fail(me),
                    Read::Validate => {
                        me.validated = Some(me.copy[..me.len].to_vec());
                        me.pc = Some(Read::Probe);
                    }
                    Read::Probe => me.pc = Some(Read::Claim),
                    Read::Claim => {
                        me.ticket = ticket;
                        me.pc = Some(Read::Recheck);
                    }
                    Read::Recheck if version != me.version => fail(me),
                    Read::Recheck => {
                        me.staged = Some((me.ticket, me.version as usize / 2));
                        me.pc = Some(Read::Done);
                    }
                    Read::Done => unreachable!(),
                }
                Some((format!("R{r} {step:?}"), w))
            }

            /// What holds after every step: a validated copy is a
            /// published record, and a staged visit's ticket lies above
            /// the tickets of the writes it saw and below those it missed.
            fn check(&self) -> Result<(), String> {
                for (r, me) in self.readers.iter().enumerate() {
                    if let Some(copy) = &me.validated {
                        if !RECORDS[..self.published]
                            .iter()
                            .any(|rec| rec[..] == copy[..])
                        {
                            return Err(format!("R{r} validated {copy:?}, never published"));
                        }
                    }
                    let Some((ticket, saw)) = me.staged else {
                        continue;
                    };
                    for (p, write) in self.write_tickets.iter().enumerate() {
                        let in_order = match write {
                            Some(t) if p < saw => *t < ticket,
                            Some(t) => *t > ticket,
                            None => p >= saw,
                        };
                        if !in_order {
                            return Err(format!(
                                "R{r} staged ticket {ticket} having seen {saw} write(s), \
                                 write {p} has ticket {write:?}"
                            ));
                        }
                    }
                }
                Ok(())
            }
        }

        fn explore(
            w: World,
            seen: &mut HashSet<World>,
            path: &mut Vec<String>,
        ) -> Result<(), String> {
            if !seen.insert(w.clone()) {
                return Ok(());
            }
            if let Err(why) = w.check() {
                return Err(format!("{why}\n  after: {}", path.join(" → ")));
            }
            let next = [w.write(), w.read(0), w.read(1)];
            for (step, n) in next.into_iter().flatten() {
                path.push(step);
                explore(n, seen, path)?;
                path.pop();
            }
            Ok(())
        }

        #[test]
        fn every_interleaving_stages_a_visit_between_the_writes_it_saw_and_missed() {
            let mut seen = HashSet::new();
            if let Err(e) = explore(World::start(), &mut seen, &mut Vec::new()) {
                panic!("version-window model: {e}");
            }
            // both readers staged a visit in some run, and a model that
            // stopped exploring early would pass vacuously
            let staged = |r: usize| seen.iter().any(|w| w.readers[r].staged.is_some());
            assert!(staged(0) && staged(1));
            assert!(seen.len() > 10_000, "only {} states explored", seen.len());
        }
    }
}
