//! The engine-side MVCC version store: per-key committed version
//! chains, per-transaction buffered write sets, and watermark GC.
//!
//! The optimistic control ([`OptimisticCc`](crate::cc::OptimisticCc))
//! keeps one [`VersionStore`] next to the shared encyclopedia. The physical B-link
//! tree holds only committed state — writers buffer — so the store does
//! not duplicate values; it tracks the *version structure*: which
//! transaction installed which key at which commit timestamp, what each
//! live snapshot can see, and which versions the watermark has made
//! unreachable. That is what answers snapshot reads (own write? newest
//! committed version ≤ begin?), stamps
//! [`TraceEventKind::VersionInstall`] events, and drives GC.

use crate::cc::{EngineShared, TxnHandle};
use crate::trace::TraceEventKind;
use oodb_core::ids::TxnIdx;
use oodb_sim::EncOp;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

/// One committed version of a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// Commit timestamp (the store's monotone clock at install).
    pub commit_ts: u64,
    /// Recorded transaction that installed it.
    pub writer: TxnIdx,
    /// True when the version is a deletion tombstone.
    pub tombstone: bool,
}

/// What a snapshot read resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotRead {
    /// The reader's own buffered (uncommitted) write.
    OwnWrite,
    /// The newest committed version at or below the snapshot's begin
    /// timestamp (its commit timestamp; the version may be a tombstone).
    Committed(u64),
    /// No version is visible at the snapshot (never written, or only
    /// after the reader began).
    Absent,
}

#[derive(Debug, Clone)]
struct PendingWrite {
    key: String,
    tombstone: bool,
}

#[derive(Debug, Default)]
struct StoreInner {
    /// Monotone commit clock; bumped once per installing transaction.
    clock: u64,
    /// Per-key version chains, ascending by `commit_ts`.
    chains: HashMap<String, Vec<Version>>,
    /// Begin timestamps of live snapshot transactions.
    live: HashMap<TxnIdx, u64>,
    /// Buffered write sets of live transactions, in operation order.
    pending: HashMap<TxnIdx, Vec<PendingWrite>>,
    installs: u64,
    collected: u64,
}

impl StoreInner {
    fn begin(&mut self, txn: TxnIdx) -> u64 {
        let clock = self.clock;
        *self.live.entry(txn).or_insert(clock)
    }

    fn watermark(&self) -> u64 {
        self.live.values().copied().min().unwrap_or(self.clock)
    }

    /// Prune every chain to the newest version at-or-below the
    /// watermark plus everything above it.
    fn gc(&mut self) -> usize {
        let watermark = self.watermark();
        let mut collected = 0;
        self.chains.retain(|_, chain| {
            let below = chain.partition_point(|v| v.commit_ts <= watermark);
            if below > 1 {
                collected += below - 1;
                chain.drain(..below - 1);
            }
            // a chain whose only surviving version is a tombstone at or
            // below the watermark is fully dead: no snapshot can see a
            // value, only the deletion
            if chain.len() == 1 && chain[0].tombstone && chain[0].commit_ts <= watermark {
                collected += 1;
                false
            } else {
                true
            }
        });
        self.collected += collected as u64;
        collected
    }
}

/// Shared MVCC version bookkeeping (see the module docs).
#[derive(Debug, Default)]
pub struct VersionStore {
    inner: Mutex<StoreInner>,
}

impl VersionStore {
    /// An empty store with the clock at zero.
    pub fn new() -> Self {
        VersionStore::default()
    }

    /// Register `txn` as live (idempotent) and return its begin
    /// timestamp: the commit clock at its first operation.
    pub fn note_begin(&self, txn: TxnIdx) -> u64 {
        self.inner.lock().begin(txn)
    }

    /// Record one operation of live transaction `txn`: writes are
    /// buffered in its private delta, reads are resolved against its
    /// snapshot (own write first, then the newest committed version at
    /// or below its begin timestamp).
    pub fn note_op(&self, txn: TxnIdx, op: &EncOp) -> Option<SnapshotRead> {
        let mut inner = self.inner.lock();
        inner.begin(txn);
        match op {
            EncOp::Insert(k) | EncOp::Change(k) => {
                inner.pending.entry(txn).or_default().push(PendingWrite {
                    key: k.clone(),
                    tombstone: false,
                });
                None
            }
            EncOp::Delete(k) => {
                inner.pending.entry(txn).or_default().push(PendingWrite {
                    key: k.clone(),
                    tombstone: true,
                });
                None
            }
            EncOp::Search(k) => Some(Self::resolve(&inner, txn, k)),
            // container-wide reads resolve per item; the store records
            // nothing per key for them
            EncOp::ReadSeq | EncOp::Range(..) => None,
        }
    }

    fn resolve(inner: &StoreInner, txn: TxnIdx, key: &str) -> SnapshotRead {
        if inner
            .pending
            .get(&txn)
            .is_some_and(|w| w.iter().any(|p| p.key == key))
        {
            return SnapshotRead::OwnWrite;
        }
        let begin = inner.live.get(&txn).copied().unwrap_or(inner.clock);
        match inner.chains.get(key).and_then(|chain| {
            let below = chain.partition_point(|v| v.commit_ts <= begin);
            below.checked_sub(1).map(|i| &chain[i])
        }) {
            Some(v) if !v.tombstone => SnapshotRead::Committed(v.commit_ts),
            _ => SnapshotRead::Absent,
        }
    }

    /// Resolve `key` in `txn`'s snapshot without recording anything.
    pub fn snapshot_read(&self, txn: TxnIdx, key: &str) -> SnapshotRead {
        Self::resolve(&self.inner.lock(), txn, key)
    }

    /// Install `txn`'s buffered writes as committed versions at one
    /// fresh commit timestamp. Returns `(commit_ts, versions)` or
    /// `None` when the transaction buffered nothing. The caller must
    /// hold the database critical section: installation here and the
    /// physical application to the tree form one atomic commit point.
    pub fn install(&self, txn: TxnIdx) -> Option<(u64, usize)> {
        let mut inner = self.inner.lock();
        let writes = inner.pending.remove(&txn)?;
        if writes.is_empty() {
            return None;
        }
        inner.clock += 1;
        let commit_ts = inner.clock;
        let count = writes.len();
        for w in writes {
            let version = Version {
                commit_ts,
                writer: txn,
                tombstone: w.tombstone,
            };
            let chain = inner.chains.entry(w.key).or_default();
            // two writes to one key inside the transaction collapse to
            // its final effect, like the single commit point implies
            match chain.last_mut() {
                Some(last) if last.commit_ts == commit_ts => *last = version,
                _ => chain.push(version),
            }
        }
        inner.installs += count as u64;
        Some((commit_ts, count))
    }

    /// Finalize `txn` (commit or abort): drop its buffered writes and
    /// live registration, then garbage-collect. Returns
    /// `(collected, watermark)` of the GC pass.
    pub fn finalize(&self, txn: TxnIdx) -> (usize, u64) {
        let mut inner = self.inner.lock();
        inner.live.remove(&txn);
        inner.pending.remove(&txn);
        let collected = inner.gc();
        (collected, inner.watermark())
    }

    /// Total versions currently retained across all chains.
    pub fn version_count(&self) -> usize {
        self.inner.lock().chains.values().map(Vec::len).sum()
    }

    /// `(versions installed, versions collected)` over the store's life.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.installs, inner.collected)
    }
}

/// Commit-point bookkeeping for a snapshot-mode protocol: install the
/// buffered writes, then finalize and GC — emitting the version trace
/// events and bumping the version metrics.
pub fn on_commit(store: &VersionStore, shared: &EngineShared, txn: &TxnHandle) {
    if let Some((commit_ts, versions)) = store.install(txn.txn) {
        shared
            .metrics
            .version_installs
            .fetch_add(versions as u64, Ordering::Relaxed);
        shared
            .trace
            .emit_txn(txn, || TraceEventKind::VersionInstall {
                versions,
                commit_ts,
            });
    }
    run_gc(store, shared, txn);
}

/// Abort-path bookkeeping: the buffered writes were never installed, so
/// only the live registration is dropped (plus a GC pass — this
/// transaction may have been the watermark holdout).
pub fn on_abort(store: &VersionStore, shared: &EngineShared, txn: &TxnHandle) {
    run_gc(store, shared, txn);
}

fn run_gc(store: &VersionStore, shared: &EngineShared, txn: &TxnHandle) {
    let (collected, watermark) = store.finalize(txn.txn);
    if collected > 0 {
        shared
            .metrics
            .versions_gcd
            .fetch_add(collected as u64, Ordering::Relaxed);
        shared.trace.emit_txn(txn, || TraceEventKind::VersionGc {
            collected,
            watermark,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ins(k: &str) -> EncOp {
        EncOp::Insert(k.into())
    }

    #[test]
    fn snapshot_resolution_at_boundary_timestamps() {
        let store = VersionStore::new();
        let writer = TxnIdx(0);
        store.note_op(writer, &ins("k"));
        // a reader beginning before the install sees nothing...
        let early = TxnIdx(1);
        store.note_begin(early);
        let (ts, n) = store.install(writer).unwrap();
        assert_eq!((ts, n), (1, 1));
        assert_eq!(store.snapshot_read(early, "k"), SnapshotRead::Absent);
        // ...a reader beginning exactly at the commit stamp sees it
        // (boundary: commit_ts <= begin is visible)
        let at = TxnIdx(2);
        assert_eq!(store.note_begin(at), 1);
        assert_eq!(store.snapshot_read(at, "k"), SnapshotRead::Committed(1));
    }

    #[test]
    fn own_writes_are_visible_before_install() {
        let store = VersionStore::new();
        let me = TxnIdx(3);
        let other = TxnIdx(4);
        store.note_op(me, &EncOp::Change("k".into()));
        assert_eq!(
            store.note_op(me, &EncOp::Search("k".into())),
            Some(SnapshotRead::OwnWrite)
        );
        // invisible to everyone else
        assert_eq!(
            store.note_op(other, &EncOp::Search("k".into())),
            Some(SnapshotRead::Absent)
        );
    }

    #[test]
    fn gc_never_collects_a_visible_version() {
        let store = VersionStore::new();
        // three committed generations of "k"
        for t in 0..3u32 {
            store.note_op(TxnIdx(t), &ins("k"));
            if t == 0 {
                // an old reader pins the first generation
                store.note_begin(TxnIdx(9));
                // (begins at clock 0, before any install)
            }
            store.install(TxnIdx(t)).unwrap();
            store.finalize(TxnIdx(t));
        }
        // the old reader sees nothing (began before every install), so
        // all three versions must survive — Absent is only provable by
        // keeping the chain's history below its begin intact
        assert_eq!(store.snapshot_read(TxnIdx(9), "k"), SnapshotRead::Absent);
        assert_eq!(store.version_count(), 3);
        // once it finishes, everything but the newest is collectable
        let (collected, _) = store.finalize(TxnIdx(9));
        assert_eq!(collected, 2);
        assert_eq!(store.version_count(), 1);
        let (installs, gcd) = store.stats();
        assert_eq!(installs, 3);
        assert_eq!(gcd, 2);
    }

    #[test]
    fn tombstones_resolve_absent_and_dead_chains_vanish() {
        let store = VersionStore::new();
        store.note_op(TxnIdx(0), &ins("k"));
        store.install(TxnIdx(0)).unwrap();
        store.finalize(TxnIdx(0));
        store.note_op(TxnIdx(1), &EncOp::Delete("k".into()));
        store.install(TxnIdx(1)).unwrap();
        let reader = TxnIdx(2);
        store.note_begin(reader);
        assert_eq!(store.snapshot_read(reader, "k"), SnapshotRead::Absent);
        store.finalize(TxnIdx(1));
        // with no one pinning the pre-delete version, the whole chain
        // is unreachable once the reader finishes
        store.finalize(reader);
        assert_eq!(store.version_count(), 0);
    }

    #[test]
    fn aborted_writer_installs_nothing() {
        let store = VersionStore::new();
        store.note_op(TxnIdx(0), &ins("k"));
        let (collected, _) = store.finalize(TxnIdx(0));
        assert_eq!(collected, 0);
        assert_eq!(store.install(TxnIdx(0)), None);
        assert_eq!(store.version_count(), 0);
    }
}
