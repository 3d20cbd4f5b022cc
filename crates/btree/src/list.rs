//! The linked list of items (Figure 2's `LinkedList` + `Item` objects).
//!
//! The encyclopedia stores its items in a linked list of *directory
//! pages*; each directory record points at the item's content record on a
//! separate *item page*. Items are first-class objects (`Item8` in the
//! paper's Example 4) with `read`/`write` semantics; the list itself is a
//! keyed container whose `readSeq` scan conflicts with every updater —
//! exactly the `T2 ↔ readSeq` dependency of Figure 8.
//!
//! Concurrency: one list-wide reader-writer lock that *owns* the list's
//! bookkeeping (page chain, fill page, live count) — mutations hold it
//! exclusively, reads shared, so readers overlap all the way through
//! while the mutators — of different keys too, which the engine's
//! controls let run side by side — stay simple. All recording happens
//! under that lock, keeping each
//! list/item action's page accesses block-atomic.
//!
//! The item directory — where each item's directory record is — lives
//! beside the lock, in a table indexed by item id: mutators write it
//! under the exclusive lock, and a read that records nothing reads it
//! without the lock at all. Such a read S-latches the directory page,
//! then the item page before it releases the directory page; no mutator
//! ever holds two list-page latches at once, so this coupling cannot
//! deadlock, and it keeps the item's location and content one snapshot.
//!
//! The keyed operations take the descriptor of the list-level action from
//! the caller: the encyclopedia records the same `search(k)` /
//! `insert(k)` / `update(k)` / `delete(k)` on itself, the index and the
//! list, so one descriptor is shared by all three.

use crate::objects::{ObjectIds, ObjectKey};
use bytes::{Buf, BufMut};
use oodb_core::commutativity::{ActionDescriptor, DescriptorRef, Method, RangeSpec};
use oodb_core::ids::ObjectIdx;
use oodb_model::{Recorder, TxnCtx};
use oodb_storage::chunked::Chunked;
use oodb_storage::{BufferPool, Page, PageError, PageId};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of an item within one list.
pub type ItemId = u64;

/// One directory record, borrowed from its page: where an item lives and
/// whether it is alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DirEntry<'a> {
    id: ItemId,
    key: &'a str,
    item_page: PageId,
    item_slot: u16,
    alive: bool,
}

impl<'a> DirEntry<'a> {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(17 + self.key.len());
        out.put_u64_le(self.id);
        out.put_u16_le(self.key.len() as u16);
        out.put_slice(self.key.as_bytes());
        out.put_u32_le(self.item_page.0);
        out.put_u16_le(self.item_slot);
        out.put_u8(self.alive as u8);
        out
    }

    fn decode(mut buf: &'a [u8]) -> Self {
        let id = buf.get_u64_le();
        let klen = buf.get_u16_le() as usize;
        let (key, mut buf) = buf.split_at(klen);
        let key = std::str::from_utf8(key).expect("keys are utf-8");
        let item_page = PageId(buf.get_u32_le());
        let item_slot = buf.get_u16_le();
        let alive = buf.get_u8() != 0;
        DirEntry {
            id,
            key,
            item_page,
            item_slot,
            alive,
        }
    }

    /// Where the record's item lives and whether it is alive, read past
    /// the key, which is neither validated nor borrowed.
    #[inline]
    fn location(record: &[u8]) -> (PageId, u16, bool) {
        let klen = usize::from(u16::from_le_bytes([record[8], record[9]]));
        let mut buf = &record[10 + klen..];
        (
            PageId(buf.get_u32_le()),
            buf.get_u16_le(),
            buf.get_u8() != 0,
        )
    }
}

/// Where a live item's directory record and content are.
#[derive(Debug, Clone, Copy)]
struct Location {
    dir_page: PageId,
    dir_slot: u16,
    item_page: PageId,
    item_slot: u16,
}

/// The list's bookkeeping, owned by the list lock.
struct ListState {
    /// Chain of directory pages, in order (head first). The chain is also
    /// materialized on the pages themselves via next-pointers in record 0.
    chain: Vec<PageId>,
    /// Current item-content page being filled.
    item_page: PageId,
    /// Items in the directory.
    live: usize,
    next_id: ItemId,
}

/// Item id → where its directory record is, read without a lock. Item
/// ids are dense from 0; a slot holds `(directory page + 1) << 16 |
/// directory slot`, or 0 while no live item has that id.
#[derive(Default)]
struct Directory(Chunked<AtomicU64>);

impl Directory {
    /// Relaxed: an entry is stored before the tree publishes its id under
    /// a leaf latch, and cleared only after its record is marked dead, so
    /// the latches order every read that matters.
    fn get(&self, id: ItemId) -> Option<(PageId, u16)> {
        let word = self.0.get(id)?.load(Ordering::Relaxed);
        let page = (word >> 16).checked_sub(1)?;
        Some((PageId(page as u32), word as u16))
    }

    /// Under the list's exclusive lock.
    fn set(&self, id: ItemId, entry: Option<(PageId, u16)>) {
        let word = entry.map_or(0, |(page, slot)| {
            (u64::from(page.0) + 1) << 16 | u64::from(slot)
        });
        self.0
            .get_or_alloc(id, AtomicU64::default)
            .store(word, Ordering::Relaxed);
    }
}

/// Linked list of items over pages, with per-item objects. Shareable
/// across threads; mutations serialize on the list lock, reads overlap.
pub struct ItemList {
    pool: BufferPool,
    /// Recorder ids of this list's page and item objects.
    objects: ObjectIds,
    name: String,
    list_obj: ObjectIdx,
    directory: Directory,
    state: RwLock<ListState>,
}

const CHAIN_HEADER_SLOT: u16 = 0;

impl ItemList {
    /// Create an empty list named `name` (e.g. `"LinkedList"`).
    pub fn create(pool: BufferPool, rec: Recorder, name: impl Into<String>) -> Self {
        let name = name.into();
        let list_obj = rec.object(&name, Arc::new(RangeSpec::ordered_container("item-list")));
        let head_pin = pool.allocate().expect("allocating list head");
        let head = head_pin.id();
        // record 0 of each chain page: next chain page + 1 (0 = none)
        head_pin.write(|p| {
            p.insert(&0u32.to_le_bytes()).expect("fresh page has space");
        });
        drop(head_pin);
        let item_pin = pool.allocate().expect("allocating item page");
        let item_page = item_pin.id();
        drop(item_pin);
        ItemList {
            pool,
            objects: ObjectIds::new(rec, &name),
            name,
            list_obj,
            directory: Directory::default(),
            state: RwLock::new(ListState {
                chain: vec![head],
                item_page,
                live: 0,
                next_id: 0,
            }),
        }
    }

    /// The list's facade object.
    pub fn object(&self) -> ObjectIdx {
        self.list_obj
    }

    /// The list's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn page_object(&self, page: PageId) -> ObjectIdx {
        self.objects.get(ObjectKey::Page(page))
    }

    fn item_object(&self, id: ItemId) -> ObjectIdx {
        self.objects.get(ObjectKey::Item(id))
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.state.read().live
    }

    /// True iff no live items exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a new item with `key` and `text`, recording `descriptor`
    /// (the caller's `insert(key)`) as the list-level action; returns the
    /// item's id.
    pub fn insert(
        &self,
        ctx: &mut TxnCtx,
        key: &str,
        text: &str,
        descriptor: &DescriptorRef,
    ) -> ItemId {
        debug_assert_eq!(descriptor.key(), Some(key));
        let mut state = self.state.write();
        let id = state.next_id;
        state.next_id += 1;

        // 1. store the content on an item page, via the item object
        let (item_page, item_slot) = self.store_content(&mut state, text.as_bytes());
        let write = DescriptorRef::write();
        ctx.record(
            &[(self.list_obj, descriptor), (self.item_object(id), &write)],
            Some((self.page_object(item_page), &write)),
        );
        ctx.exit();

        // 2. append the directory record to the chain's tail page
        let entry = DirEntry {
            id,
            key,
            item_page,
            item_slot,
            alive: true,
        };
        let (dir_page, dir_slot) = self.append_directory(&mut state, ctx, &entry);
        self.directory.set(id, Some((dir_page, dir_slot)));
        state.live += 1;
        ctx.exit();
        id
    }

    fn store_content(&self, state: &mut ListState, bytes: &[u8]) -> (PageId, u16) {
        loop {
            let pin = self
                .pool
                .write_page(state.item_page)
                .expect("item page exists");
            let res = pin.write(|p| p.insert(bytes));
            match res {
                Ok(slot) => return (state.item_page, slot),
                Err(PageError::Full { .. }) => {
                    drop(pin);
                    let fresh = self.pool.allocate().expect("allocating item page");
                    state.item_page = fresh.id();
                }
                Err(e) => panic!("storing item content: {e}"),
            }
        }
    }

    fn append_directory(
        &self,
        state: &mut ListState,
        ctx: &mut TxnCtx,
        entry: &DirEntry<'_>,
    ) -> (PageId, u16) {
        let tail = *state.chain.last().expect("chain never empty");
        let tail_obj = self.page_object(tail);
        ctx.page_read(tail_obj);
        let pin = self.pool.write_page(tail).expect("chain page exists");
        let res = pin.write(|p| p.insert(&entry.encode()));
        match res {
            Ok(slot) => {
                ctx.page_write(tail_obj);
                (tail, slot)
            }
            Err(PageError::Full { .. }) => {
                drop(pin);
                // extend the chain: new tail, linked from the old one
                let fresh = self.pool.allocate().expect("allocating chain page");
                let new_tail = fresh.id();
                fresh.write(|p| {
                    p.insert(&0u32.to_le_bytes()).expect("fresh page has space");
                });
                let slot = fresh.write(|p| p.insert(&entry.encode()).expect("fresh page fits"));
                drop(fresh);
                let old_pin = self.pool.write_page(tail).expect("chain page exists");
                old_pin.write(|p| {
                    p.update(CHAIN_HEADER_SLOT, &(new_tail.0 + 1).to_le_bytes())
                        .expect("chain header update");
                });
                drop(old_pin);
                ctx.page_write(tail_obj);
                ctx.page_write(self.page_object(new_tail));
                state.chain.push(new_tail);
                (new_tail, slot)
            }
            Err(e) => panic!("appending directory record: {e}"),
        }
    }

    /// Where item `id` lives, if it is alive — read off the directory
    /// record in place; the key stays on the page. The caller holds the
    /// list lock.
    fn locate(&self, id: ItemId, descriptor: &DescriptorRef) -> Option<Location> {
        let (dir_page, dir_slot) = self.directory.get(id)?;
        let pin = self.pool.read_page(dir_page).expect("dir page exists");
        pin.read(|p| Self::locate_on(p, dir_page, dir_slot, descriptor))
    }

    /// [`locate`](Self::locate) on the latched directory page `p`.
    fn locate_on(
        p: &Page,
        dir_page: PageId,
        dir_slot: u16,
        descriptor: &DescriptorRef,
    ) -> Option<Location> {
        let record = p.read(dir_slot).expect("directory record present");
        debug_assert_eq!(descriptor.key(), Some(DirEntry::decode(record).key));
        let (item_page, item_slot, alive) = DirEntry::location(record);
        alive.then_some(Location {
            dir_page,
            dir_slot,
            item_page,
            item_slot,
        })
    }

    /// Rewrite the directory record at `loc` through `change`.
    fn rewrite_entry(&self, loc: Location, change: impl FnOnce(&mut DirEntry<'_>)) {
        let pin = self.pool.write_page(loc.dir_page).expect("dir page exists");
        pin.write(|p| {
            let bytes = {
                let record = p.read(loc.dir_slot).expect("directory record present");
                let mut entry = DirEntry::decode(record);
                change(&mut entry);
                entry.encode()
            };
            p.update(loc.dir_slot, &bytes).expect("dir update fits");
        });
    }

    /// Read an item's text through the list and the item object;
    /// `descriptor` is the caller's `search(key)` with the item's key.
    ///
    /// The list-level `search` action is essential for the dependency
    /// machinery: it makes the callers of conflicting item actions live
    /// on a *common object* (LinkedList), so Definition 11 inheritance
    /// can lift their order instead of stranding it in the pairwise
    /// added relation (Figure 8's `LinkedList: T2 ↔ readSeq` row).
    ///
    /// A cursor that records nothing reads without the list lock (module
    /// docs); a recording one keeps it, so that its tickets are claimed
    /// in the order the list's mutators see.
    pub fn read_item(
        &self,
        ctx: &mut TxnCtx,
        id: ItemId,
        descriptor: &DescriptorRef,
    ) -> Option<String> {
        if !ctx.is_recording() {
            return self.read_item_unlocked(id, descriptor);
        }
        let _state = self.state.read();
        let loc = self.locate(id, descriptor)?;
        let read = DescriptorRef::read();
        ctx.record(
            &[(self.list_obj, descriptor), (self.item_object(id), &read)],
            Some((self.page_object(loc.item_page), &read)),
        );
        let text = self.read_text(loc.item_page, loc.item_slot);
        ctx.exit(); // item read
        ctx.exit(); // list search
        text
    }

    /// [`read_item`](Self::read_item) without the list lock: the
    /// directory page stays S-latched until the item page is.
    fn read_item_unlocked(&self, id: ItemId, descriptor: &DescriptorRef) -> Option<String> {
        let (dir_page, dir_slot) = self.directory.get(id)?;
        let dir = self.pool.read_page(dir_page).expect("dir page exists");
        let loc = dir.read(|p| Self::locate_on(p, dir_page, dir_slot, descriptor))?;
        let item = self
            .pool
            .read_page(loc.item_page)
            .expect("item page exists");
        drop(dir);
        item.read(|p| text_of(p, loc.item_slot))
    }

    fn read_text(&self, item_page: PageId, item_slot: u16) -> Option<String> {
        let pin = self.pool.read_page(item_page).expect("item page exists");
        pin.read(|p| text_of(p, item_slot))
    }

    /// Overwrite an item's text through the list and the item object (the
    /// paper's Example 4: `T2` changes the previously inserted item), and
    /// return the text it replaced — read under the item page's X latch,
    /// in the same visit as the write — or `None` if the item is gone.
    /// The list-level `update` action — `descriptor`, the caller's
    /// `update(key)` — carries the dependency to LinkedList, see
    /// [`ItemList::read_item`].
    pub fn update_item(
        &self,
        ctx: &mut TxnCtx,
        id: ItemId,
        text: &str,
        descriptor: &DescriptorRef,
    ) -> Option<String> {
        let mut state = self.state.write();
        let loc = self.locate(id, descriptor)?;
        let write = DescriptorRef::write();
        ctx.record(
            &[(self.list_obj, descriptor), (self.item_object(id), &write)],
            Some((self.page_object(loc.item_page), &DescriptorRef::read())),
        );
        let pin = self
            .pool
            .write_page(loc.item_page)
            .expect("item page exists");
        let (old, updated) = pin.write(|p| {
            let old = text_of(p, loc.item_slot).expect("a live item has its text");
            (old, p.update(loc.item_slot, text.as_bytes()).is_ok())
        });
        drop(pin);
        if updated {
            ctx.page_write(self.page_object(loc.item_page));
        } else {
            // relocation to a fresh page when the old one cannot grow: the
            // page the item leaves is written too, so a reader of the old
            // text conflicts with the move
            ctx.page_write(self.page_object(loc.item_page));
            let (np, ns) = self.store_content(&mut state, text.as_bytes());
            ctx.page_write(self.page_object(np));
            self.rewrite_entry(loc, |entry| {
                entry.item_page = np;
                entry.item_slot = ns;
            });
            ctx.page_write(self.page_object(loc.dir_page));
        }
        ctx.exit(); // item write
        ctx.exit(); // list update
        Some(old)
    }

    /// Remove an item: mark its directory record dead and delete content.
    /// `descriptor` is the caller's `delete(key)` with the item's key.
    pub fn remove(&self, ctx: &mut TxnCtx, id: ItemId, descriptor: &DescriptorRef) -> bool {
        let mut state = self.state.write();
        let Some(loc) = self.locate(id, descriptor) else {
            return false;
        };
        let dir_obj = self.page_object(loc.dir_page);
        ctx.record(
            &[(self.list_obj, descriptor)],
            Some((dir_obj, &DescriptorRef::read())),
        );
        self.rewrite_entry(loc, |entry| entry.alive = false);
        ctx.page_write(dir_obj);
        // delete content
        let item_pin = self
            .pool
            .write_page(loc.item_page)
            .expect("item page exists");
        item_pin.write(|p| {
            let _ = p.delete(loc.item_slot);
        });
        drop(item_pin);
        let write = DescriptorRef::write();
        ctx.record(
            &[(self.item_object(id), &write)],
            Some((self.page_object(loc.item_page), &write)),
        );
        ctx.exit();
        self.directory.set(id, None);
        state.live -= 1;
        ctx.exit();
        true
    }

    /// Sequential read of all live items, in insertion order — the
    /// paper's `readSeq`. Each item is read through its item object.
    pub fn read_seq(&self, ctx: &mut TxnCtx) -> Vec<(ItemId, String, String)> {
        let state = self.state.read();
        ctx.enter(self.list_obj, ActionDescriptor::nullary(Method::ReadSeq));
        let read = DescriptorRef::read();
        let mut out = Vec::new();
        for &page in &state.chain {
            ctx.page_read(self.page_object(page));
            for (id, key, item_page, item_slot) in self.live_entries(page) {
                ctx.record(
                    &[(self.item_object(id), &read)],
                    Some((self.page_object(item_page), &read)),
                );
                let text = self.read_text(item_page, item_slot).unwrap_or_default();
                ctx.exit();
                out.push((id, key, text));
            }
        }
        ctx.exit();
        out
    }

    /// The live directory records of one chain page, in slot order.
    fn live_entries(&self, page: PageId) -> Vec<(ItemId, String, PageId, u16)> {
        let pin = self.pool.read_page(page).expect("dir page exists");
        pin.read(|p| {
            p.records()
                .filter(|(s, _)| *s != CHAIN_HEADER_SLOT)
                .map(|(_, b)| DirEntry::decode(b))
                .filter(|e| e.alive)
                .map(|e| (e.id, e.key.to_owned(), e.item_page, e.item_slot))
                .collect()
        })
    }
}

/// The text in `slot` of the latched item page `p`.
fn text_of(p: &Page, slot: u16) -> Option<String> {
    p.read(slot)
        .ok()
        .map(|b| String::from_utf8_lossy(b).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::keyed;
    use oodb_core::prelude::analyze;

    fn list() -> (ItemList, Recorder) {
        let rec = Recorder::new();
        let pool = BufferPool::new(64, 256);
        let l = ItemList::create(pool, rec.clone(), "LinkedList");
        (l, rec)
    }

    #[test]
    fn location_reads_what_decode_reads() {
        let entry = DirEntry {
            id: 7,
            key: "中DBS",
            item_page: PageId(9),
            item_slot: 3,
            alive: false,
        };
        let bytes = entry.encode();
        assert_eq!(DirEntry::decode(&bytes), entry);
        assert_eq!(
            DirEntry::location(&bytes),
            (entry.item_page, entry.item_slot, entry.alive)
        );
    }

    #[test]
    fn insert_read_roundtrip() {
        let (l, rec) = list();
        let mut ctx = rec.begin_txn("T1");
        let a = l.insert(
            &mut ctx,
            "DBS",
            "database systems",
            &keyed(Method::Insert, "DBS"),
        );
        let b = l.insert(
            &mut ctx,
            "DBMS",
            "management systems",
            &keyed(Method::Insert, "DBMS"),
        );
        assert_eq!(
            l.read_item(&mut ctx, a, &keyed(Method::Search, "DBS"))
                .as_deref(),
            Some("database systems")
        );
        assert_eq!(
            l.read_item(&mut ctx, b, &keyed(Method::Search, "DBMS"))
                .as_deref(),
            Some("management systems")
        );
        assert_eq!(l.len(), 2);
        drop(ctx);
    }

    #[test]
    fn update_returns_the_replaced_text_even_across_relocation() {
        let (l, rec) = list();
        let mut ctx = rec.begin_txn("T1");
        let id = l.insert(&mut ctx, "DBMS", "v1", &keyed(Method::Insert, "DBMS"));
        let update = keyed(Method::Update, "DBMS");
        assert_eq!(
            l.update_item(&mut ctx, id, "v2", &update).as_deref(),
            Some("v1")
        );
        let search = keyed(Method::Search, "DBMS");
        assert_eq!(l.read_item(&mut ctx, id, &search).as_deref(), Some("v2"));
        // force relocation with a much larger payload
        let long = "x".repeat(180);
        assert_eq!(
            l.update_item(&mut ctx, id, &long, &update).as_deref(),
            Some("v2")
        );
        assert_eq!(
            l.read_item(&mut ctx, id, &search).as_deref(),
            Some(long.as_str())
        );
        // the relocated text is what the next update replaces
        assert_eq!(l.update_item(&mut ctx, id, "v3", &update), Some(long));
        assert!(l.remove(&mut ctx, id, &keyed(Method::Delete, "DBMS")));
        assert_eq!(l.update_item(&mut ctx, id, "v4", &update), None);
        drop(ctx);
    }

    /// On a full item page, changing an item to a shorter text rewrites
    /// it in place: no page is allocated, and the change writes its item
    /// page once and no other page.
    #[test]
    fn a_shorter_text_on_a_full_item_page_stays_in_place() {
        let (l, rec) = list();
        let page_writes = || {
            let (ts, h) = rec.snapshot();
            h.order()
                .iter()
                .map(|&a| ts.action(a))
                .filter(|a| a.descriptor.method == Method::Write)
                .map(|a| a.object)
                .collect::<Vec<_>>()
        };
        let mut setup = rec.begin_txn("Setup");
        // five 46-byte texts and their slots fill a 256-byte page exactly
        let text = "t".repeat(46);
        let ids: Vec<ItemId> = (0..5)
            .map(|i| {
                let key = format!("k{i}");
                l.insert(&mut setup, &key, &text, &keyed(Method::Insert, &key))
            })
            .collect();
        drop(setup);
        let item_page = l.state.read().item_page;
        let free = |page| l.pool.read_page(page).unwrap().read(|p| p.free_space());
        assert_eq!(free(item_page), 0, "the item page is full");
        let (allocated, before) = (l.pool.stats().allocations, page_writes());
        let mut t = rec.begin_txn("T");
        let update = keyed(Method::Update, "k2");
        assert_eq!(
            l.update_item(&mut t, ids[2], "short", &update),
            Some(text.clone())
        );
        assert_eq!(
            l.read_item(&mut t, ids[2], &keyed(Method::Search, "k2"))
                .as_deref(),
            Some("short")
        );
        drop(t);
        assert_eq!(l.pool.stats().allocations, allocated, "no page allocated");
        assert_eq!(l.state.read().item_page, item_page);
        assert_eq!(page_writes()[before.len()..], [l.page_object(item_page)]);
    }

    #[test]
    fn remove_hides_item() {
        let (l, rec) = list();
        let mut ctx = rec.begin_txn("T1");
        let id = l.insert(&mut ctx, "DBS", "text", &keyed(Method::Insert, "DBS"));
        assert!(l.remove(&mut ctx, id, &keyed(Method::Delete, "DBS")));
        assert!(!l.remove(&mut ctx, id, &keyed(Method::Delete, "DBS")));
        assert_eq!(
            l.read_item(&mut ctx, id, &keyed(Method::Search, "DBS")),
            None
        );
        assert!(l.is_empty());
        drop(ctx);
    }

    #[test]
    fn read_seq_in_insertion_order_across_chain_pages() {
        let (l, rec) = list();
        let mut ctx = rec.begin_txn("T1");
        let n = 40; // enough to overflow 256-byte directory pages
        for i in 0..n {
            let key = format!("k{i:02}");
            l.insert(
                &mut ctx,
                &key,
                &format!("text{i}"),
                &keyed(Method::Insert, &key),
            );
        }
        let seq = l.read_seq(&mut ctx);
        assert_eq!(seq.len(), n);
        for (i, (id, key, text)) in seq.iter().enumerate() {
            assert_eq!(*id, i as u64);
            assert_eq!(key, &format!("k{i:02}"));
            assert_eq!(text, &format!("text{i}"));
        }
        assert!(
            l.state.read().chain.len() > 1,
            "directory chain must have grown"
        );
        drop(ctx);
    }

    #[test]
    fn item_update_conflicts_with_read_seq() {
        // Figure 8's LinkedList row: T2 (changes an item) and readSeq
        // depend on each other when interleaved around the same item
        let (l, rec) = list();
        let mut setup = rec.begin_txn("Setup");
        let id = l.insert(&mut setup, "DBMS", "v1", &keyed(Method::Insert, "DBMS"));
        drop(setup);
        let mut t2 = rec.begin_txn("T2");
        let mut t4 = rec.begin_txn("T4");
        // T4 scans, then T2 updates, then T4 scans again: T4 sees both
        // versions — non-serializable
        l.read_seq(&mut t4);
        l.update_item(&mut t2, id, "v2", &keyed(Method::Update, "DBMS"));
        l.read_seq(&mut t4);
        drop(t2);
        drop(t4);
        let (ts, h) = rec.finish();
        let r = analyze(&ts, &h);
        assert!(r.oo_decentralized.is_err());
    }

    #[test]
    fn single_scan_and_update_is_serializable() {
        let (l, rec) = list();
        let mut setup = rec.begin_txn("Setup");
        let id = l.insert(&mut setup, "DBMS", "v1", &keyed(Method::Insert, "DBMS"));
        drop(setup);
        let mut t2 = rec.begin_txn("T2");
        let mut t4 = rec.begin_txn("T4");
        l.update_item(&mut t2, id, "v2", &keyed(Method::Update, "DBMS"));
        l.read_seq(&mut t4);
        drop(t2);
        drop(t4);
        let (ts, h) = rec.finish();
        let r = analyze(&ts, &h);
        assert!(r.oo_decentralized.is_ok(), "{:?}", r.oo_decentralized);
    }
}
