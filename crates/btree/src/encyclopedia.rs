//! The encyclopedia (`Enc`) — the paper's running example (Figure 2).
//!
//! "The encyclopedia named Enc consists of a linked list of items named
//! LinkedList and a B⁺ tree named BpTree. The keys of the items are
//! indexed by BpTree. The data are stored on pages." Every operation is a
//! top-level-transaction-visible method on `Enc` that fans out into the
//! two substrates, producing exactly the nested call structures of
//! Examples 1 and 4.

use crate::list::{ItemId, ItemList};
use crate::tree::{keyed, required_page_size, BLinkTree};
use oodb_core::commutativity::{ActionDescriptor, DescriptorRef, Method, RangeSpec};
use oodb_core::ids::ObjectIdx;
use oodb_model::{Recorder, TxnCtx};
use oodb_storage::{BufferManager, BufferPool};
use std::sync::Arc;

/// The encyclopedia object: a B-link tree index over a linked item list.
///
/// All operations take `&self`: the tree is latched and read by version
/// ([`oodb_btree::latch`](crate::latch)) and the list uses a list-wide
/// read/write latch (which a read that records nothing skips), so the
/// encyclopedia is shared freely across worker threads without an outer
/// mutex.
pub struct Encyclopedia {
    rec: Recorder,
    enc_obj: ObjectIdx,
    mgr: BufferManager,
    tree: BLinkTree,
    list: ItemList,
}

/// Configuration for [`Encyclopedia::create`].
#[derive(Debug, Clone)]
pub struct EncyclopediaConfig {
    /// Facade object name.
    pub name: String,
    /// B⁺-tree fanout (max keys per node) — the paper's "rough up to 500"
    /// keys-per-page knob, swept by experiment B1.
    pub fanout: usize,
    /// Buffer pool frames.
    pub pool_frames: usize,
}

impl Default for EncyclopediaConfig {
    fn default() -> Self {
        EncyclopediaConfig {
            name: "Enc".to_owned(),
            fanout: 16,
            pool_frames: 1024,
        }
    }
}

impl Encyclopedia {
    /// Build an empty encyclopedia recording into `rec`.
    pub fn create(rec: Recorder, config: EncyclopediaConfig) -> Self {
        let pool = BufferPool::new(
            config.pool_frames,
            required_page_size(config.fanout).max(512),
        );
        let mgr = BufferManager::new(pool);
        let enc_obj = rec.object(
            &config.name,
            Arc::new(RangeSpec::ordered_container("encyclopedia")),
        );
        let tree = BLinkTree::create(mgr.clone(), rec.clone(), "BpTree", config.fanout);
        let list = ItemList::create(mgr.pool().clone(), rec.clone(), "LinkedList");
        Encyclopedia {
            rec,
            enc_obj,
            mgr,
            tree,
            list,
        }
    }

    /// The `Enc` facade object.
    pub fn object(&self) -> ObjectIdx {
        self.enc_obj
    }

    /// The recorder shared by all substrates.
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// The shared buffer pool (stats, durable watermark).
    pub fn pool(&self) -> &BufferPool {
        self.mgr.pool()
    }

    /// The underlying tree (for structure dumps and integrity checks).
    pub fn tree(&self) -> &BLinkTree {
        &self.tree
    }

    /// The underlying item list.
    pub fn list(&self) -> &ItemList {
        &self.list
    }

    /// Insert a new item under `key`. Returns the item id, or `None` if
    /// the key already exists (no overwrite at the encyclopedia level).
    pub fn insert(&self, ctx: &mut TxnCtx, key: &str, text: &str) -> Option<ItemId> {
        // one `insert(key)` for Enc, LinkedList, BpTree and its nodes
        let insert = keyed(Method::Insert, key);
        ctx.enter(self.enc_obj, insert.clone());
        let result = if self.tree.search(ctx, key).is_some() {
            None
        } else {
            let id = self.list.insert(ctx, key, text, &insert);
            self.tree.insert_as(ctx, key, id, &insert);
            Some(id)
        };
        ctx.exit();
        result
    }

    /// Look up the item text stored under `key`.
    pub fn search(&self, ctx: &mut TxnCtx, key: &str) -> Option<String> {
        let search = keyed(Method::Search, key);
        ctx.enter(self.enc_obj, search.clone());
        let result = self
            .tree
            .search_as(ctx, key, &search)
            .and_then(|id| self.list.read_item(ctx, id, &search));
        ctx.exit();
        result
    }

    /// Change the text of the item under `key` (Example 4's `T2`);
    /// returns the text it replaced, or `None` if there is no such item.
    pub fn change(&self, ctx: &mut TxnCtx, key: &str, text: &str) -> Option<String> {
        let update = keyed(Method::Update, key);
        ctx.enter(self.enc_obj, update.clone());
        let old = self
            .tree
            .search(ctx, key)
            .and_then(|id| self.list.update_item(ctx, id, text, &update));
        ctx.exit();
        old
    }

    /// Delete the item under `key`.
    pub fn delete(&self, ctx: &mut TxnCtx, key: &str) -> bool {
        let delete = keyed(Method::Delete, key);
        ctx.enter(self.enc_obj, delete.clone());
        let deleted = match self.tree.delete_as(ctx, key, &delete) {
            Some(id) => self.list.remove(ctx, id, &delete),
            None => false,
        };
        ctx.exit();
        deleted
    }

    /// Read all items sequentially (Example 4's `T4`).
    pub fn read_seq(&self, ctx: &mut TxnCtx) -> Vec<(ItemId, String, String)> {
        ctx.enter(self.enc_obj, ActionDescriptor::nullary(Method::ReadSeq));
        let items = self.list.read_seq(ctx);
        ctx.exit();
        items
    }

    /// Range query: all items with key in `[lo, hi]`, recorded as
    /// `rangeScan(lo,hi)` at the encyclopedia and index levels — phantom
    /// protection for exactly the scanned interval (§1's anomaly list),
    /// without conflicting with inserts outside it.
    pub fn range(&self, ctx: &mut TxnCtx, lo: &str, hi: &str) -> Vec<(String, String)> {
        let scan: DescriptorRef = ActionDescriptor::range(Method::RangeScan, lo, hi).into();
        ctx.enter(self.enc_obj, scan.clone());
        let hits = self.tree.range_as(ctx, lo, hi, &scan);
        let out = hits
            .into_iter()
            .filter_map(|(k, id)| {
                let text = self.list.read_item(ctx, id, &keyed(Method::Search, &k))?;
                Some((k, text))
            })
            .collect();
        ctx.exit();
        out
    }

    /// Figure 2 reproduction: the object graph of the encyclopedia.
    pub fn structure(&self) -> String {
        let mut out = String::new();
        out.push_str("Enc\n");
        out.push_str("  LinkedList (directory pages -> items -> item pages)\n");
        out.push_str("  BpTree:\n");
        for line in self.tree.dump().lines() {
            out.push_str("    ");
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_core::prelude::{analyze, extend_virtual_objects, SystemSchedules};

    fn enc(fanout: usize) -> (Encyclopedia, Recorder) {
        let rec = Recorder::new();
        let e = Encyclopedia::create(
            rec.clone(),
            EncyclopediaConfig {
                fanout,
                ..EncyclopediaConfig::default()
            },
        );
        (e, rec)
    }

    #[test]
    fn insert_search_change_delete_cycle() {
        let (e, rec) = enc(4);
        let mut ctx = rec.begin_txn("T1");
        assert!(e.insert(&mut ctx, "DBS", "database systems").is_some());
        // duplicate insert refused
        assert!(e.insert(&mut ctx, "DBS", "other").is_none());
        assert_eq!(
            e.search(&mut ctx, "DBS").as_deref(),
            Some("database systems")
        );
        assert_eq!(
            e.change(&mut ctx, "DBS", "updated").as_deref(),
            Some("database systems")
        );
        assert_eq!(e.search(&mut ctx, "DBS").as_deref(), Some("updated"));
        assert!(e.delete(&mut ctx, "DBS"));
        assert!(!e.delete(&mut ctx, "DBS"));
        assert_eq!(e.search(&mut ctx, "DBS"), None);
        assert_eq!(e.change(&mut ctx, "DBS", "zombie"), None);
        drop(ctx);
    }

    #[test]
    fn read_seq_returns_live_items_in_order() {
        let (e, rec) = enc(4);
        let mut ctx = rec.begin_txn("T1");
        e.insert(&mut ctx, "DBS", "a");
        e.insert(&mut ctx, "DBMS", "b");
        e.insert(&mut ctx, "IRS", "c");
        e.delete(&mut ctx, "DBMS");
        let items = e.read_seq(&mut ctx);
        let keys: Vec<&str> = items.iter().map(|(_, k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["DBS", "IRS"]);
        drop(ctx);
    }

    #[test]
    fn bulk_load_keeps_tree_and_list_consistent() {
        let (e, rec) = enc(4);
        let mut ctx = rec.begin_txn("Load");
        for i in 0..100 {
            e.insert(&mut ctx, &format!("k{i:03}"), &format!("text {i}"));
        }
        for i in 0..100 {
            assert_eq!(
                e.search(&mut ctx, &format!("k{i:03}")).as_deref(),
                Some(format!("text {i}").as_str())
            );
        }
        drop(ctx);
        e.tree().check_integrity().unwrap();
        assert_eq!(e.list().len(), 100);
        // the whole load is one transaction: trivially serializable, even
        // with all the splits (after virtual-object extension)
        let (mut ts, h) = rec.finish();
        extend_virtual_objects(&mut ts);
        assert!(analyze(&ts, &h).oo_decentralized.is_ok());
    }

    #[test]
    fn paper_example1_commuting_inserts() {
        // T1 inserts DBS, T2 inserts DBMS: same leaf, same page, different
        // keys — no top-level ordering results
        let (e, rec) = enc(8);
        let mut setup = rec.begin_txn("Setup");
        e.insert(&mut setup, "AAA", "seed");
        drop(setup);
        let mut t1 = rec.begin_txn("T1");
        let mut t2 = rec.begin_txn("T2");
        e.insert(&mut t1, "DBS", "database systems");
        e.insert(&mut t2, "DBMS", "database management systems");
        drop(t1);
        drop(t2);
        let (mut ts, h) = rec.finish();
        extend_virtual_objects(&mut ts);
        let r = analyze(&ts, &h);
        assert!(r.oo_decentralized.is_ok());
        let ss = SystemSchedules::infer(&ts, &h);
        let top = &ss.schedule(ts.system_object()).action_deps;
        let t1 = ts.top_level()[1];
        let t2 = ts.top_level()[2];
        assert!(!top.has_edge(&t1, &t2));
        assert!(!top.has_edge(&t2, &t1));
    }

    #[test]
    fn paper_example1_conflicting_insert_search() {
        // T3 inserts DBS; T4 searches DBS afterwards: the dependency is
        // inherited to the top level (T3 -> T4)
        let (e, rec) = enc(8);
        let mut t3 = rec.begin_txn("T3");
        let mut t4 = rec.begin_txn("T4");
        e.insert(&mut t3, "DBS", "database systems");
        let found = e.search(&mut t4, "DBS");
        assert!(found.is_some());
        drop(t3);
        drop(t4);
        let (mut ts, h) = rec.finish();
        extend_virtual_objects(&mut ts);
        let ss = SystemSchedules::infer(&ts, &h);
        let top = &ss.schedule(ts.system_object()).action_deps;
        let t3 = ts.top_level()[0];
        let t4 = ts.top_level()[1];
        assert!(
            top.has_edge(&t3, &t4),
            "insert->search must order the roots"
        );
        assert!(analyze(&ts, &h).oo_decentralized.is_ok());
    }

    #[test]
    fn range_query_returns_interval() {
        let (e, rec) = enc(4);
        let mut ctx = rec.begin_txn("Load");
        for k in ["A", "C", "E", "G", "I", "K"] {
            e.insert(&mut ctx, k, &format!("text {k}"));
        }
        let hits = e.range(&mut ctx, "C", "H");
        let keys: Vec<&str> = hits.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["C", "E", "G"]);
        // empty interval
        assert!(e.range(&mut ctx, "X", "Z").is_empty());
        // reversed interval yields nothing
        assert!(e.range(&mut ctx, "H", "C").is_empty());
        drop(ctx);
    }

    #[test]
    fn phantom_protection_is_semantic() {
        // T1 scans [C,H]; T2 inserts inside the range, T3 outside.
        // The scan orders against T2 but NOT against T3 — exactly
        // interval-precise phantom protection.
        let (e, rec) = enc(8);
        let mut setup = rec.begin_txn("Setup");
        for k in ["C", "E", "G"] {
            e.insert(&mut setup, k, "seed");
        }
        drop(setup);
        let mut t1 = rec.begin_txn("T1");
        let mut t2 = rec.begin_txn("T2");
        let mut t3 = rec.begin_txn("T3");
        let before = e.range(&mut t1, "C", "H");
        e.insert(&mut t2, "D", "phantom!"); // inside [C,H]
        e.insert(&mut t3, "Z", "harmless"); // outside
        drop(t1);
        drop(t2);
        drop(t3);
        assert_eq!(before.len(), 3);

        let (mut ts, h) = rec.finish();
        extend_virtual_objects(&mut ts);
        let ss = SystemSchedules::infer(&ts, &h);
        let tops = ts.top_level();
        let top = &ss.schedule(ts.system_object()).action_deps;
        assert!(
            top.has_edge(&tops[1], &tops[2]),
            "scan before in-range insert: T1 -> T2 must be recorded"
        );
        assert!(
            !top.has_edge(&tops[1], &tops[3]) && !top.has_edge(&tops[3], &tops[1]),
            "out-of-range insert commutes with the scan"
        );
        assert!(analyze(&ts, &h).oo_decentralized.is_ok());
    }

    #[test]
    fn a_change_that_moves_its_item_conflicts_with_a_reader_of_the_old_text() {
        // `k`'s item page is full, so T2's longer text moves the item to
        // a fresh page. T1 read the old text before the move and reads
        // `j`, which T2 changed in place, after it: T1 → T2 on `k`'s old
        // page, T2 → T1 on `j`'s — not serializable.
        let (e, rec) = enc(8);
        let mut setup = rec.begin_txn("Setup");
        e.insert(&mut setup, "k", "short");
        for i in 0..24 {
            e.insert(&mut setup, &format!("f{i:02}"), &"x".repeat(60));
        }
        e.insert(&mut setup, "j", "short");
        drop(setup);
        let mut t1 = rec.begin_txn("T1");
        let mut t2 = rec.begin_txn("T2");
        assert_eq!(e.search(&mut t1, "k").as_deref(), Some("short"));
        assert!(e.change(&mut t2, "k", &"y".repeat(300)).is_some());
        assert!(e.change(&mut t2, "j", "other").is_some());
        assert_eq!(e.search(&mut t1, "j").as_deref(), Some("other"));
        drop(t1);
        drop(t2);
        let (mut ts, h) = rec.finish();
        extend_virtual_objects(&mut ts);
        let r = analyze(&ts, &h);
        assert!(r.oo_decentralized.is_err(), "{:?}", r.oo_decentralized);
        assert!(r.conventional.is_err(), "{:?}", r.conventional);
    }

    #[test]
    fn double_scan_around_in_range_insert_rejected() {
        // unrepeatable range read: T1 scans, T2 inserts inside, T1 scans
        // again — a phantom T1 observed; must be non-serializable
        let (e, rec) = enc(8);
        let mut setup = rec.begin_txn("Setup");
        e.insert(&mut setup, "C", "seed");
        drop(setup);
        let mut t1 = rec.begin_txn("T1");
        let mut t2 = rec.begin_txn("T2");
        let first = e.range(&mut t1, "A", "M");
        e.insert(&mut t2, "D", "phantom!");
        let second = e.range(&mut t1, "A", "M");
        assert_ne!(first.len(), second.len(), "T1 saw the phantom appear");
        drop(t1);
        drop(t2);
        let (mut ts, h) = rec.finish();
        extend_virtual_objects(&mut ts);
        assert!(analyze(&ts, &h).oo_decentralized.is_err());
    }

    #[test]
    fn structure_dump_mentions_all_parts() {
        let (e, rec) = enc(2);
        let mut ctx = rec.begin_txn("T");
        for k in ["A", "B", "C", "D", "E"] {
            e.insert(&mut ctx, k, "x");
        }
        drop(ctx);
        let s = e.structure();
        assert!(s.contains("Enc"));
        assert!(s.contains("LinkedList"));
        assert!(s.contains("BpTree"));
        assert!(s.contains("Leaf"));
    }
}
