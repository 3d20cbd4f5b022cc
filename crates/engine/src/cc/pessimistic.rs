//! Semantic strict two-phase locking with compensation-based deadlock
//! victims — the paper's open-nested protocol as a worker-pool
//! concurrency control.

use super::{ConcurrencyControl, EngineShared, FinishOutcome, OpGrant, ShardRoute, TxnHandle};
use crate::trace::TraceEventKind;
use oodb_core::commutativity::ActionDescriptor;
use oodb_lock::{LockManager, LockOutcome};
use oodb_sim::exec::{enc_lock_manager, op_descriptor, page_descriptor, ENC_RESOURCE};
use oodb_sim::EncOp;
use parking_lot::{Condvar, Mutex};
use std::time::Duration;

/// True for methods that mutate the container (the paper's update-class
/// operations); reader methods (`search`, `rangeScan`, `readSeq`) never
/// page-conflict with each other.
pub(super) fn is_writer_method(method: &str) -> bool {
    !matches!(method, "search" | "rangeScan" | "readSeq")
}

/// Emit [`TraceEventKind::Conflict`] events for `txn` against the
/// current holders of the container lock, looking each holder's held
/// descriptor up in `mgr`.
///
/// `inherited` encodes the paper's Definition 11 distinction: `true`
/// means the holder's operation does **not** commute with ours, so the
/// dependency is inherited through the (conflicting) container method to
/// the top level; `false` marks a page-level conflict between
/// semantically commuting operations — the inheritance **stops** at the
/// commuting container method.
pub(super) fn emit_conflicts(
    shared: &EngineShared,
    txn: &TxnHandle,
    mgr: &LockManager,
    ours: &ActionDescriptor,
    holders: &[oodb_lock::OwnerId],
    inherited: bool,
) {
    if !shared.trace.enabled() {
        return;
    }
    let grants = mgr.grants_on(ENC_RESOURCE);
    for h in holders {
        if *h == txn.owner {
            continue;
        }
        let theirs = grants
            .iter()
            .find(|(o, _)| o == h)
            .map(|(_, d)| d.to_string())
            .unwrap_or_default();
        shared.trace.emit_txn(txn, || TraceEventKind::Conflict {
            with: h.0,
            ours: ours.to_string(),
            theirs,
            inherited,
        });
    }
}

/// Strict 2PL over the Enc-level lock: every operation acquires its lock
/// mode before executing and holds it to commit (or through
/// compensation, on abort). Deadlocks are detected by the blocked
/// waiters themselves; the cycle member with the largest owner id aborts.
///
/// The lock *granularity* is pluggable: [`semantic`](PessimisticCc::semantic)
/// uses the paper's per-operation commutativity descriptors,
/// [`page_level`](PessimisticCc::page_level) flattens every operation to
/// a whole-container read/write — the conventional baseline.
pub struct PessimisticCc {
    locks: Mutex<LockManager>,
    released: Condvar,
    descriptor: fn(&EncOp) -> ActionDescriptor,
    page: bool,
    name: &'static str,
}

impl PessimisticCc {
    /// Semantic locking: commuting operations coexist.
    pub fn semantic() -> Self {
        PessimisticCc {
            locks: Mutex::new(enc_lock_manager()),
            released: Condvar::new(),
            descriptor: op_descriptor,
            page: false,
            name: "pessimistic",
        }
    }

    /// Page-granularity ablation: any two updates conflict.
    pub fn page_level() -> Self {
        PessimisticCc {
            locks: Mutex::new(enc_lock_manager()),
            released: Condvar::new(),
            descriptor: page_descriptor,
            page: true,
            name: "pessimistic-page",
        }
    }

    /// Block until the lock is granted; `false` means this owner was
    /// chosen as a deadlock victim and must abort.
    fn acquire_blocking(
        &self,
        shared: &EngineShared,
        txn: &TxnHandle,
        descriptor: &ActionDescriptor,
    ) -> bool {
        let mut mgr = self.locks.lock();
        let mut reported = false;
        loop {
            match mgr.acquire(txn.owner, &[], ENC_RESOURCE, descriptor) {
                LockOutcome::Granted => {
                    // coexisting holders commute *semantically* with us;
                    // where one side still writes the page the pair is a
                    // page-level conflict whose inheritance stopped at
                    // the commuting method (Definition 11's second case)
                    if shared.trace.enabled() && !self.page {
                        let coexisting: Vec<_> = mgr
                            .grants_on(ENC_RESOURCE)
                            .iter()
                            .filter(|(o, d)| {
                                *o != txn.owner
                                    && (is_writer_method(&descriptor.method)
                                        || is_writer_method(&d.method))
                            })
                            .map(|(o, _)| *o)
                            .collect();
                        emit_conflicts(shared, txn, &mgr, descriptor, &coexisting, false);
                    }
                    return true;
                }
                LockOutcome::Blocked { ref holders } => {
                    // the blocking holders are exactly the grants that do
                    // NOT commute with us: inherited dependencies
                    if !reported {
                        reported = true;
                        emit_conflicts(shared, txn, &mgr, descriptor, holders, true);
                    }
                    // victim rule: largest owner id in a detected cycle
                    // aborts (owners are txn numbers, so the youngest)
                    if let Some(cycle) = mgr.find_deadlock(|o| o) {
                        if cycle.contains(&txn.owner) && cycle.iter().max() == Some(&txn.owner) {
                            mgr.clear_waiting(txn.owner);
                            return false;
                        }
                    }
                    self.released.wait_for(&mut mgr, Duration::from_millis(1));
                }
            }
        }
    }

    fn release(&self, txn: &TxnHandle) {
        self.locks.lock().release_all(txn.owner);
        self.released.notify_all();
    }
}

impl ConcurrencyControl for PessimisticCc {
    fn name(&self) -> &'static str {
        self.name
    }

    fn before_op(&self, shared: &EngineShared, txn: &TxnHandle, op: &EncOp) -> OpGrant {
        if self.acquire_blocking(shared, txn, &(self.descriptor)(op)) {
            OpGrant::Granted
        } else {
            OpGrant::AbortVictim
        }
    }

    fn try_finish(&self, _shared: &EngineShared, _txn: &TxnHandle) -> FinishOutcome {
        // strict 2PL: reaching the commit point with all locks held IS
        // the commit ticket
        FinishOutcome::Committed
    }

    fn after_commit(&self, _shared: &EngineShared, txn: &TxnHandle) {
        self.release(txn);
    }

    fn after_abort(&self, _shared: &EngineShared, txn: &TxnHandle) {
        // locks were still held while the worker compensated — nobody
        // observed uncommitted semantic state — release them now
        self.release(txn);
    }

    fn route(&self, _op: &EncOp) -> ShardRoute {
        // one global lock manager: every key routes to the only shard
        ShardRoute::One(0)
    }
}
