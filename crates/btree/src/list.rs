//! The linked list of items (Figure 2's `LinkedList` + `Item` objects).
//!
//! The encyclopedia stores its items in a linked list of *directory
//! pages*; each directory record points at the item's content record on a
//! separate *item page*. Items are first-class objects (`Item8` in the
//! paper's Example 4) with `read`/`write` semantics; the list itself is a
//! keyed container whose `readSeq` scan conflicts with every updater —
//! exactly the `T2 ↔ readSeq` dependency of Figure 8.
//!
//! Concurrency: the page latches order what the list records — every
//! ticket is claimed under the latch of the page it names (Axiom 1) —
//! and reads take page latches only. A read finds an item's directory
//! record through the item directory (item id → record), S-latches the
//! directory page, then the item page before releasing the directory
//! page; a scan follows the chain's next-pointers (record 0 of each
//! directory page) and reads each live item under its directory page's
//! S latch. The mutators serialize on the list mutex, which owns the
//! bookkeeping. Nothing latches a directory page while it holds an item
//! page, or two directory pages but to link a fresh tail nobody can
//! reach yet, so the coupling cannot deadlock.
//!
//! An item that outgrows its page moves: its text goes to the fill page,
//! its directory record is rewritten, and only then is its old record
//! deleted and the page it leaves written. A reader coupled on the old
//! record holds that page's S latch before the rewrite can proceed, so
//! its read precedes the move's write of the page it read.
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
use oodb_storage::{BufferPool, Page, PageError, PageExclusive, PageId, PageShared};
use parking_lot::Mutex;
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

/// The list's bookkeeping, owned by the list mutex.
struct ListState {
    /// Last page of the directory chain, where the next record goes.
    tail: PageId,
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

    /// Under the list mutex.
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
/// across threads; mutations serialize on the list mutex, reads take
/// page latches only.
pub struct ItemList {
    pool: BufferPool,
    /// Recorder ids of this list's page and item objects.
    objects: ObjectIds,
    name: String,
    list_obj: ObjectIdx,
    /// First page of the directory chain; record 0 of each chain page
    /// holds the next one's id + 1 (0 = none).
    head: PageId,
    directory: Directory,
    state: Mutex<ListState>,
}

const CHAIN_HEADER_SLOT: u16 = 0;

impl ItemList {
    /// Create an empty list named `name` (e.g. `"LinkedList"`).
    pub fn create(pool: BufferPool, rec: Recorder, name: impl Into<String>) -> Self {
        let name = name.into();
        let list_obj = rec.object(&name, Arc::new(RangeSpec::ordered_container("item-list")));
        let head_pin = pool.allocate().expect("allocating list head");
        head_pin.write(|p| p.insert(&0u32.to_le_bytes()).expect("fresh page has space"));
        let head = head_pin.id();
        drop(head_pin);
        let item_page = pool.allocate().expect("allocating item page").id();
        ItemList {
            pool,
            objects: ObjectIds::new(rec, &name),
            name,
            list_obj,
            head,
            directory: Directory::default(),
            state: Mutex::new(ListState {
                tail: head,
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

    /// Page `id` of this list, S-latched.
    fn shared(&self, id: PageId) -> PageShared<'_> {
        self.pool.read_page(id).expect("list pages stay")
    }

    /// Page `id` of this list, X-latched.
    fn exclusive(&self, id: PageId) -> PageExclusive<'_> {
        self.pool.write_page(id).expect("list pages stay")
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.state.lock().live
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
        let mut state = self.state.lock();
        let id = state.next_id;
        state.next_id += 1;

        // 1. store the content on an item page, via the item object
        let (pin, item_slot) = self.store_content(&mut state, text.as_bytes());
        let item_page = pin.id();
        let write = DescriptorRef::write();
        let visit = || {
            let enters = [(self.list_obj, descriptor), (self.item_object(id), &write)];
            (enters, (self.page_object(item_page), &write))
        };
        ctx.record_validated(visit, || true);
        drop(pin);
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

    /// Store `bytes` on the fill page, or on a fresh one when it is full;
    /// returns that page, still X-latched, and the record's slot.
    fn store_content(&self, state: &mut ListState, bytes: &[u8]) -> (PageExclusive<'_>, u16) {
        loop {
            let pin = self.exclusive(state.item_page);
            match pin.write(|p| p.insert(bytes)) {
                Ok(slot) => return (pin, slot),
                Err(PageError::Full { .. }) => drop(pin),
                Err(e) => panic!("storing item content: {e}"),
            }
            state.item_page = self.pool.allocate().expect("allocating item page").id();
        }
    }

    /// Append `entry` to the chain's tail page, linking a fresh tail when
    /// it is full, and return where it went.
    fn append_directory(
        &self,
        state: &mut ListState,
        ctx: &mut TxnCtx,
        entry: &DirEntry<'_>,
    ) -> (PageId, u16) {
        let tail = state.tail;
        let write = DescriptorRef::write();
        let pin = self.exclusive(tail);
        self.objects.record_page(ctx, tail, &DescriptorRef::read());
        let record = entry.encode();
        match pin.write(|p| p.insert(&record)) {
            Ok(slot) => {
                self.objects.record_page(ctx, tail, &write);
                (tail, slot)
            }
            Err(PageError::Full { .. }) => {
                // the new tail is written before the old one links it
                let fresh = self.pool.allocate().expect("allocating chain page");
                let slot = fresh.write(|p| {
                    p.insert(&0u32.to_le_bytes()).expect("fresh page has space");
                    p.insert(&record).expect("fresh page fits")
                });
                pin.write(|p| {
                    p.update(CHAIN_HEADER_SLOT, &(fresh.id().0 + 1).to_le_bytes())
                        .expect("chain header update");
                });
                self.objects.record_page(ctx, tail, &write);
                drop(pin);
                self.objects.record_page(ctx, fresh.id(), &write);
                state.tail = fresh.id();
                (fresh.id(), slot)
            }
            Err(e) => panic!("appending directory record: {e}"),
        }
    }

    /// Find live item `id` off its directory record, read in place under
    /// the directory page's S latch (the key stays on the page), and run
    /// `visit` on its location while that latch is still held: `visit`
    /// latches the item page, so the coupling of the module docs holds.
    fn couple<R>(
        &self,
        id: ItemId,
        descriptor: &DescriptorRef,
        visit: impl FnOnce(Location) -> R,
    ) -> Option<R> {
        let (dir_page, dir_slot) = self.directory.get(id)?;
        let dir = self.shared(dir_page);
        let loc = dir.read(|p| Self::locate_on(p, dir_page, dir_slot, descriptor))?;
        Some(visit(loc))
    }

    /// Where the live item whose directory record is `dir_slot` of the
    /// latched directory page `p` lives.
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

    /// Read an item's text through the list and the item object;
    /// `descriptor` is the caller's `search(key)` with the item's key.
    ///
    /// The list-level `search` action is essential for the dependency
    /// machinery: it makes the callers of conflicting item actions live
    /// on a *common object* (LinkedList), so Definition 11 inheritance
    /// can lift their order instead of stranding it in the pairwise
    /// added relation (Figure 8's `LinkedList: T2 ↔ readSeq` row).
    ///
    /// It takes no list lock: the visit is claimed while the directory
    /// page and the item page are both S-latched (module docs).
    pub fn read_item(
        &self,
        ctx: &mut TxnCtx,
        id: ItemId,
        descriptor: &DescriptorRef,
    ) -> Option<String> {
        let read = DescriptorRef::read();
        let (item, item_slot) = self.couple(id, descriptor, |loc| {
            let item = self.shared(loc.item_page);
            let visit = || {
                let enters = [(self.list_obj, descriptor), (self.item_object(id), &read)];
                (enters, (self.page_object(loc.item_page), &read))
            };
            ctx.record_validated(visit, || true);
            (item, loc.item_slot)
        })?;
        let text = item.read(|p| text_of(p, item_slot));
        ctx.exit(); // item read
        ctx.exit(); // list search
        text
    }

    /// Overwrite an item's text through the list and the item object (the
    /// paper's Example 4: `T2` changes the previously inserted item), and
    /// return the text it replaced — read under the item page's X latch,
    /// in the same visit as the write — or `None` if the item is gone.
    /// The list-level `update` action — `descriptor`, the caller's
    /// `update(key)` — carries the dependency to LinkedList, see
    /// [`ItemList::read_item`]. A text the item page cannot hold moves
    /// the item (module docs).
    pub fn update_item(
        &self,
        ctx: &mut TxnCtx,
        id: ItemId,
        text: &str,
        descriptor: &DescriptorRef,
    ) -> Option<String> {
        let mut state = self.state.lock();
        let (loc, pin) = self.couple(id, descriptor, |loc| (loc, self.exclusive(loc.item_page)))?;
        let (read, write) = (DescriptorRef::read(), DescriptorRef::write());
        let visit = || {
            let page = self.page_object(loc.item_page);
            let enters = [(self.list_obj, descriptor), (self.item_object(id), &write)];
            (enters, (page, &read))
        };
        ctx.record_validated(visit, || true);
        let (old, updated) = pin.write(|p| {
            let old = text_of(p, loc.item_slot).expect("a live item has its text");
            (old, p.update(loc.item_slot, text.as_bytes()).is_ok())
        });
        if updated {
            self.objects.record_page(ctx, loc.item_page, &write);
        } else {
            drop(pin);
            let (pin, item_slot) = self.store_content(&mut state, text.as_bytes());
            let item_page = pin.id();
            self.objects.record_page(ctx, item_page, &write);
            drop(pin);
            let dir = self.exclusive(loc.dir_page);
            rewrite_entry(&dir, loc.dir_slot, |entry| {
                entry.item_page = item_page;
                entry.item_slot = item_slot;
            });
            self.objects.record_page(ctx, loc.dir_page, &write);
            drop(dir);
            // the page the item leaves loses its old record last, so a
            // reader of the old text conflicts with the move
            let left = self.exclusive(loc.item_page);
            left.write(|p| p.delete(loc.item_slot).expect("the old record is there"));
            self.objects.record_page(ctx, loc.item_page, &write);
            drop(left);
        }
        ctx.exit(); // item write
        ctx.exit(); // list update
        Some(old)
    }

    /// Remove an item: mark its directory record dead and delete content.
    /// `descriptor` is the caller's `delete(key)` with the item's key.
    pub fn remove(&self, ctx: &mut TxnCtx, id: ItemId, descriptor: &DescriptorRef) -> bool {
        let mut state = self.state.lock();
        let Some((dir_page, dir_slot)) = self.directory.get(id) else {
            return false;
        };
        let dir = self.exclusive(dir_page);
        let Some(loc) = dir.read(|p| Self::locate_on(p, dir_page, dir_slot, descriptor)) else {
            return false;
        };
        let (read, write) = (DescriptorRef::read(), DescriptorRef::write());
        let visit = || {
            let enters = [(self.list_obj, descriptor)];
            (enters, (self.page_object(dir_page), &read))
        };
        ctx.record_validated(visit, || true);
        rewrite_entry(&dir, dir_slot, |entry| entry.alive = false);
        self.objects.record_page(ctx, dir_page, &write);
        drop(dir);
        let item_pin = self.exclusive(loc.item_page);
        item_pin.write(|p| {
            let _ = p.delete(loc.item_slot);
        });
        let visit = || {
            let enters = [(self.item_object(id), &write)];
            (enters, (self.page_object(loc.item_page), &write))
        };
        ctx.record_validated(visit, || true);
        drop(item_pin);
        ctx.exit();
        self.directory.set(id, None);
        state.live -= 1;
        ctx.exit();
        true
    }

    /// Sequential read of all live items, in insertion order — the
    /// paper's `readSeq`. Each item is read through its item object,
    /// while its directory page is S-latched; the chain is walked through
    /// the pages' next-pointers, with no list lock (module docs).
    pub fn read_seq(&self, ctx: &mut TxnCtx) -> Vec<(ItemId, String, String)> {
        ctx.enter(self.list_obj, ActionDescriptor::nullary(Method::ReadSeq));
        let read = DescriptorRef::read();
        let mut out = Vec::new();
        let mut next = Some(self.head);
        while let Some(page) = next {
            let dir = self.shared(page);
            self.objects.record_page(ctx, page, &read);
            next = dir.read(|p| {
                let entries = p
                    .records()
                    .filter(|(s, _)| *s != CHAIN_HEADER_SLOT)
                    .map(|(_, b)| DirEntry::decode(b))
                    .filter(|e| e.alive);
                for e in entries {
                    let item = self.shared(e.item_page);
                    let visit = || {
                        let enters = [(self.item_object(e.id), &read)];
                        (enters, (self.page_object(e.item_page), &read))
                    };
                    ctx.record_validated(visit, || true);
                    let text = item.read(|p| text_of(p, e.item_slot)).unwrap_or_default();
                    ctx.exit();
                    out.push((e.id, e.key.to_owned(), text));
                }
                let mut header = p.read(CHAIN_HEADER_SLOT).expect("chain header present");
                header.get_u32_le().checked_sub(1).map(PageId)
            });
        }
        ctx.exit();
        out
    }
}

/// Rewrite the directory record in `slot` of the X-latched page `dir`
/// through `change`.
fn rewrite_entry(dir: &PageExclusive<'_>, slot: u16, change: impl FnOnce(&mut DirEntry<'_>)) {
    dir.write(|p| {
        let bytes = {
            let record = p.read(slot).expect("directory record present");
            let mut entry = DirEntry::decode(record);
            change(&mut entry);
            entry.encode()
        };
        p.update(slot, &bytes).expect("dir update fits");
    });
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
        let item_page = l.state.lock().item_page;
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
        assert_eq!(l.state.lock().item_page, item_page);
        assert_eq!(page_writes()[before.len()..], [l.page_object(item_page)]);
    }

    /// A moved item's old record is deleted: the page it leaves keeps
    /// only its other items, and one of them can then grow in place into
    /// the space the moved one left.
    #[test]
    fn a_moved_item_leaves_no_record_behind() {
        let (l, rec) = list();
        let mut t = rec.begin_txn("T");
        let [a, b] = ["a", "b"].map(|key| {
            let text = "t".repeat(100);
            l.insert(&mut t, key, &text, &keyed(Method::Insert, key))
        });
        let page = l.state.lock().item_page;
        let live = || l.pool.read_page(page).unwrap().read(|p| p.live_records());
        assert_eq!(live(), 2);
        let long = "u".repeat(150);
        l.update_item(&mut t, a, &long, &keyed(Method::Update, "a"));
        assert_ne!(l.state.lock().item_page, page, "the first item moved");
        assert_eq!(live(), 1, "the page it left keeps the second item only");
        let allocated = l.pool.stats().allocations;
        let grown = "v".repeat(150);
        l.update_item(&mut t, b, &grown, &keyed(Method::Update, "b"));
        assert_eq!(l.pool.stats().allocations, allocated, "b grew in place");
        assert_eq!(live(), 1);
        for (id, key, text) in [(a, "a", long), (b, "b", grown)] {
            let search = keyed(Method::Search, key);
            assert_eq!(l.read_item(&mut t, id, &search), Some(text));
        }
        drop(t);
    }

    /// An item alone on its page grows into its own old bytes: 100
    /// bytes grow to 150 on the 256-byte page without a move.
    #[test]
    fn an_item_alone_on_its_page_grows_in_place() {
        let (l, rec) = list();
        let mut t = rec.begin_txn("T");
        let a = l.insert(&mut t, "a", &"t".repeat(100), &keyed(Method::Insert, "a"));
        let page = l.state.lock().item_page;
        let allocated = l.pool.stats().allocations;
        let grown = "u".repeat(150);
        l.update_item(&mut t, a, &grown, &keyed(Method::Update, "a"));
        assert_eq!(l.pool.stats().allocations, allocated, "no page allocated");
        assert_eq!(l.state.lock().item_page, page);
        let live = l.pool.read_page(page).unwrap().read(|p| p.live_records());
        assert_eq!(live, 1);
        let search = keyed(Method::Search, "a");
        assert_eq!(l.read_item(&mut t, a, &search), Some(grown));
        drop(t);
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
        assert_ne!(
            l.state.lock().tail,
            l.head,
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
