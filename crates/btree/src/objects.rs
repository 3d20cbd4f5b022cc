//! Recorder object ids of the substrate's nodes, pages and items.
//!
//! Every page visit records an action on the node object and a primitive
//! on the page object; every item access one on the item object. Their
//! names (`BpTree.N7`, `Page7`, `Item3`) and commutativity specs are
//! decided here and nowhere else, and [`Recorder::object`] — a
//! `format!`, an `Arc::new(spec)`, the recorder lock and a string-hash
//! lookup — runs once per object instead of once per visit: afterwards
//! the id is one load from a table indexed by the integer the caller
//! already holds.
//!
//! The tables live with the tree and the list, not in the recorder,
//! because only they know the integer key; the recorder knows objects by
//! name, so a cache there would still have to build the name to ask.
//! They hold one word per object this structure has registered — less
//! than the recorded system keeps by name for as long as the record
//! lives — and grow only as far as the highest id visited: nothing is
//! sized by pool frames or key space up front.

use crate::list::ItemId;
use oodb_core::commutativity::{RangeSpec, ReadWriteSpec, SpecRef};
use oodb_core::ids::ObjectIdx;
use oodb_model::Recorder;
use oodb_storage::chunked::Chunked;
use oodb_storage::PageId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What an object of the substrate is, in the integers its owner holds.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ObjectKey {
    /// The B-link node stored on `page`. `epoch` is 0 except for a root
    /// that has been split in place: the rewritten root is a logically
    /// fresh node and records as a fresh object (`BpTree.N0g2`).
    Node { page: PageId, epoch: u32 },
    /// The page itself — the paper's universal zero-level object.
    Page(PageId),
    /// One item of the linked list.
    Item(ItemId),
}

/// Grow-only table from a dense integer to `(epoch, object id)`, read
/// without a lock: every worker resolves two or three ids per page
/// visit, and a reader count would be a cache line they all write.
#[derive(Default)]
struct IdTable(Chunked<AtomicU64>);

impl IdTable {
    fn get(&self, index: u64, epoch: u32) -> Option<ObjectIdx> {
        // Relaxed: the word is the whole message. The object it names is
        // only ever touched under the recorder's record lock.
        let word = self.0.get(index)?.load(Ordering::Relaxed);
        let id = (word as u32).checked_sub(1)?;
        ((word >> 32) as u32 == epoch).then_some(ObjectIdx(id))
    }

    /// Remember `id` for `(index, epoch)`, replacing an older epoch's.
    fn set(&self, index: u64, epoch: u32, id: ObjectIdx) {
        let word = u64::from(epoch) << 32 | u64::from(id.0 + 1);
        self.0
            .get_or_alloc(index, AtomicU64::default)
            .store(word, Ordering::Relaxed);
    }
}

/// Get-or-register cache from [`ObjectKey`] to the recorder's object id.
pub(crate) struct ObjectIds {
    rec: Recorder,
    /// Name of the owning structure, the prefix of its node objects.
    owner: String,
    /// Keyed by page; a root keeps only its current epoch's object (a
    /// descent reads the epoch under the root's latch, a split bumps it
    /// under the exclusive one, so no reader asks for an older epoch).
    nodes: IdTable,
    pages: IdTable,
    items: IdTable,
}

impl ObjectIds {
    pub(crate) fn new(rec: Recorder, owner: &str) -> Self {
        ObjectIds {
            rec,
            owner: owner.to_owned(),
            nodes: IdTable::default(),
            pages: IdTable::default(),
            items: IdTable::default(),
        }
    }

    /// The recorder object for `key`, registered on first use.
    pub(crate) fn get(&self, key: ObjectKey) -> ObjectIdx {
        let (table, index, epoch) = match key {
            ObjectKey::Node { page, epoch } => (&self.nodes, u64::from(page.0), epoch),
            ObjectKey::Page(page) => (&self.pages, u64::from(page.0), 0),
            ObjectKey::Item(id) => (&self.items, id, 0),
        };
        if let Some(id) = table.get(index, epoch) {
            return id;
        }
        let (name, spec): (String, SpecRef) = match key {
            ObjectKey::Node { page, epoch: 0 } => (
                format!("{}.N{}", self.owner, page.0),
                Arc::new(RangeSpec::ordered_container("btree-node")),
            ),
            ObjectKey::Node { page, epoch } => (
                format!("{}.N{}g{}", self.owner, page.0, epoch),
                Arc::new(RangeSpec::ordered_container("btree-node")),
            ),
            ObjectKey::Page(page) => (format!("Page{}", page.0), Arc::new(ReadWriteSpec)),
            ObjectKey::Item(id) => (format!("Item{id}"), Arc::new(ReadWriteSpec)),
        };
        // `Recorder::object` is itself get-or-register, so two threads
        // racing here store the same id.
        let id = self.rec.object(&name, spec);
        table.set(index, epoch, id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_keys_on_index_and_epoch() {
        let t = IdTable::default();
        assert_eq!(t.get(5000, 0), None, "unallocated chunk");
        for i in [0u64, 31, 32, 5000] {
            t.set(i, 0, ObjectIdx(i as u32));
        }
        for i in [0u64, 31, 32, 5000] {
            assert_eq!(t.get(i, 0), Some(ObjectIdx(i as u32)));
        }
        assert_eq!(t.get(33, 0), None, "allocated chunk, empty slot");
        // an epoch is part of the key; the newest one wins the slot
        assert_eq!(t.get(0, 1), None);
        t.set(0, 1, ObjectIdx(77));
        assert_eq!(t.get(0, 1), Some(ObjectIdx(77)));
        assert_eq!(t.get(0, 0), None);
    }

    #[test]
    fn names_are_the_recorded_ones_and_ids_are_stable() {
        let rec = Recorder::new();
        let ids = ObjectIds::new(rec.clone(), "BpTree");
        let node = ids.get(ObjectKey::Node {
            page: PageId(7),
            epoch: 0,
        });
        let root2 = ids.get(ObjectKey::Node {
            page: PageId(0),
            epoch: 2,
        });
        let page = ids.get(ObjectKey::Page(PageId(7)));
        let item = ids.get(ObjectKey::Item(3));
        assert_eq!(rec.find_object("BpTree.N7"), Some(node));
        assert_eq!(rec.find_object("BpTree.N0g2"), Some(root2));
        assert_eq!(rec.find_object("Page7"), Some(page));
        assert_eq!(rec.find_object("Item3"), Some(item));
        // a second cache over the same recorder (the list shares the
        // tree's pages) resolves to the same object
        let other = ObjectIds::new(rec.clone(), "LinkedList");
        assert_eq!(other.get(ObjectKey::Page(PageId(7))), page);
        // and a repeated lookup registers nothing new
        let (ts, _) = rec.snapshot();
        let before = ts.object_count();
        assert_eq!(ids.get(ObjectKey::Page(PageId(7))), page);
        assert_eq!(rec.snapshot().0.object_count(), before);
    }
}
