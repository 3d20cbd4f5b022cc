//! Concurrent access to the shared encyclopedia.
//!
//! Physical consistency of the tree needs no global lock — `oodb-btree`
//! latch-couples per page (see `oodb_btree::latch`) — so what
//! [`ConcurrentEnc`] serializes is *sequencing*: a worker that executes
//! an operation must claim its trace sequence number and append its WAL
//! record in the same order the operation took effect, or the
//! trace/audit cross-check and the log's repeating-history guarantee
//! both break.
//!
//! It does this with **stripes**: an array of [`STRIPES`] read/write
//! locks indexed by `shard_of_key`. A keyed write (insert / change /
//! delete) holds its key's stripe exclusively across
//! execute → inverse-capture → WAL append → seq claim; a keyed read
//! holds the same stripe shared; whole-container scans (`ReadSeq`,
//! `Range`) hold *every* stripe shared, so they see a point-in-time
//! sequencing cut without blocking each other. Two operations that
//! conflict at the encyclopedia level always share a stripe, so their
//! seq/WAL order equals their execution order — the invariant
//! `trace::analyze` and recovery replay both rebuild from. Disjoint-key
//! operations hold different stripes and genuinely run in parallel
//! through the latched tree.
//!
//! Stripes order *sections*, not the data: the tree's own page latches
//! keep every traversal physically sound even for same-stripe keys on
//! different pages. The optimistic commit point, where deferred writes
//! install, and the abort paths take every stripe exclusively
//! ([`ConcurrentEnc::exclusive`]) because they apply a whole batch
//! atomically. `tests/latched_differential.rs` holds a
//! 4-worker run to the serial run of the same workload.
//!
//! Lock ordering: a section acquires stripes in ascending index order,
//! and no section acquires anything else while holding them, so stripe
//! deadlock is impossible.

use oodb_btree::CompensatedEncyclopedia;
use oodb_sim::EncOp;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::ops::Deref;

/// Number of sequencing stripes keyed by `shard_of_key`.
pub const STRIPES: usize = 16;

/// The shared encyclopedia plus the stripe table that sequences access
/// to it. See the module docs for the protocol.
pub struct ConcurrentEnc {
    enc: CompensatedEncyclopedia,
    stripes: Vec<RwLock<()>>,
}

// guards are never read, only held until drop releases the stripes
#[allow(dead_code)]
enum Guards<'a> {
    Read(Vec<RwLockReadGuard<'a, ()>>),
    Write(Vec<RwLockWriteGuard<'a, ()>>),
}

/// A sequencing section: access to the encyclopedia with the stripes the
/// operation needs held for the guard's lifetime. Derefs to
/// [`CompensatedEncyclopedia`], so call sites read like the old mutex
/// guard.
pub struct EncSection<'a> {
    enc: &'a CompensatedEncyclopedia,
    _guards: Guards<'a>,
}

impl Deref for EncSection<'_> {
    type Target = CompensatedEncyclopedia;

    fn deref(&self) -> &CompensatedEncyclopedia {
        self.enc
    }
}

impl ConcurrentEnc {
    /// Wrap `enc` behind [`STRIPES`] free stripes.
    pub fn new(enc: CompensatedEncyclopedia) -> Self {
        ConcurrentEnc {
            enc,
            stripes: (0..STRIPES).map(|_| RwLock::new(())).collect(),
        }
    }

    /// The wrapped encyclopedia, with **no stripes held** — for call
    /// sites whose ordering is already guaranteed elsewhere (e.g. the
    /// strict-2PL commit point, where semantic locks are still held).
    pub fn inner(&self) -> &CompensatedEncyclopedia {
        &self.enc
    }

    fn stripe_of(&self, key: &str) -> usize {
        crate::cc::shard_of_key(key, STRIPES)
    }

    /// The section for one operation: its key's stripe (exclusive for
    /// mutations, shared for lookups), or every stripe shared for
    /// whole-container scans.
    pub fn for_op(&self, op: &EncOp) -> EncSection<'_> {
        let guards = match op {
            EncOp::Insert(k) | EncOp::Change(k) | EncOp::Delete(k) => {
                Guards::Write(vec![self.stripes[self.stripe_of(k)].write()])
            }
            EncOp::Search(k) => Guards::Read(vec![self.stripes[self.stripe_of(k)].read()]),
            // ascending index order, same as every multi-stripe acquire
            EncOp::ReadSeq | EncOp::Range(..) => {
                Guards::Read(self.stripes.iter().map(|s| s.read()).collect())
            }
        };
        EncSection {
            enc: &self.enc,
            _guards: guards,
        }
    }

    /// Every stripe exclusively: a whole-database critical section. Used
    /// by the optimistic install/certify/commit point of deferred writes,
    /// live-abort compensation tails, and the shutdown state dump.
    pub fn exclusive(&self) -> EncSection<'_> {
        EncSection {
            enc: &self.enc,
            _guards: Guards::Write(self.stripes.iter().map(|s| s.write()).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_btree::{Encyclopedia, EncyclopediaConfig};
    use oodb_model::Recorder;

    fn fresh() -> (ConcurrentEnc, Recorder) {
        let rec = Recorder::new();
        let enc = Encyclopedia::create(rec.clone(), EncyclopediaConfig::default());
        (ConcurrentEnc::new(CompensatedEncyclopedia::new(enc)), rec)
    }

    #[test]
    fn disjoint_write_sections_overlap() {
        let (db, _rec) = fresh();
        // find two keys on different stripes
        let a = "alpha".to_string();
        let mut b = None;
        for i in 0..4 * STRIPES {
            let k = format!("k{i}");
            if db.stripe_of(&k) != db.stripe_of(&a) {
                b = Some(k);
                break;
            }
        }
        let b = b.expect("more keys than stripes: some key maps elsewhere");
        let s1 = db.for_op(&EncOp::Insert(a));
        let s2 = db.for_op(&EncOp::Insert(b));
        drop(s1);
        drop(s2); // both held at once: no deadlock, no panic
    }

    #[test]
    fn scans_take_all_stripes_shared() {
        let (db, _rec) = fresh();
        let scan = db.for_op(&EncOp::ReadSeq);
        for s in &db.stripes {
            assert!(s.try_write().is_none(), "scan holds every stripe shared");
            assert!(s.try_read().is_some(), "but readers still overlap");
        }
        drop(scan);
    }

    #[test]
    fn sections_execute_operations_through_deref() {
        let (db, rec) = fresh();
        let mut ctx = rec.begin_txn("T1");
        {
            let enc = db.for_op(&EncOp::Insert("k".into()));
            assert!(enc.insert(&mut ctx, "k", "v").is_some());
        }
        {
            let enc = db.for_op(&EncOp::Search("k".into()));
            assert!(enc.search(&mut ctx, "k").is_some());
        }
        db.exclusive().commit(ctx);
    }
}
