//! The pluggable concurrency-control interface.
//!
//! The engine's worker loop is protocol-agnostic: it executes operations,
//! commits, compensates, and retries. Everything protocol-specific —
//! when an operation may run, when a transaction may commit, what happens
//! on abort — goes through [`ConcurrencyControl`]. Two implementations
//! ship:
//!
//! * [`LockingCc`] — semantic strict 2PL over one lock table striped by
//!   key hash, with deadlock detection and compensation-based victim
//!   abort (the paper's §4–§5 protocol);
//! * [`OptimisticCc`] — writes deferred to the commit point; reads see
//!   committed state when issued. The deferred writes are installed and
//!   certified at commit against Definition 16 via
//!   [`oodb_core::certifier::Certifier`].
//!
//! A control is only its protocol: grants, the commit decision, release,
//! deferral, retirement and the audit projection. What is not protocol
//! has one owner outside it: the metric lanes are the engine's
//! ([`EngineMetrics::shard_op`], routed by key hash at every lane count,
//! for every control), fault injection is the shared state's
//! ([`EngineShared::inject_fault_after`]), and a lock owner is its
//! transaction ([`TxnHandle::txn`]). Both controls are strict: no
//! transaction ever observes an uncommitted effect, so a compensation
//! cannot fail and an abort never cascades.

mod locking;
mod optimistic;

pub use locking::{LockingCc, STRIPES};
pub use optimistic::OptimisticCc;

use crate::config::EngineConfig;
use crate::durability::Durability;
use crate::metrics::EngineMetrics;
use crate::trace::Tracer;
use oodb_btree::{CompensatedEncyclopedia, EncOp, Encyclopedia, EncyclopediaConfig};
use oodb_core::history::History;
use oodb_core::ids::TxnIdx;
use oodb_core::system::TransactionSystem;
use oodb_model::Recorder;
use parking_lot::{Mutex, RwLock};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Execution environment shared by every worker and the concurrency
/// control: the recorder, the database, the metrics sink and the armed
/// faults.
pub struct EngineShared {
    /// Recorder underlying all transactions (call trees + history).
    pub rec: Recorder,
    /// The shared compensated encyclopedia all transactions touch. Its
    /// pages latch themselves; what orders conflicting operations is the
    /// control — strict 2PL's locks, or [`gate`](Self::gate) under
    /// deferred writes.
    pub enc: CompensatedEncyclopedia,
    /// The install gate of a control that defers writes
    /// ([`ConcurrencyControl::buffers_writes`]): a read holds it shared
    /// while it executes, the commit point exclusive while it installs,
    /// certifies and commits or compensates — so readers see a batch of
    /// deferred writes whole or not at all, and seq and log order agree
    /// with the recorded history. Strict 2PL never takes it.
    pub gate: RwLock<()>,
    /// Atomic counters and latency histograms.
    pub metrics: EngineMetrics,
    /// Structured lifecycle tracing (the disabled tracer by default).
    pub trace: Tracer,
    /// The write-ahead log, when [`DurabilityMode`](crate::DurabilityMode)
    /// is not `Off`. `None` keeps commits memory-only with zero overhead.
    pub dur: Option<crate::durability::Durability>,
    /// Armed mid-flight aborts, consulted after each granted operation.
    pub(crate) faults: FaultPlan,
}

impl EngineShared {
    /// The shared state of an engine that runs `cc` under `cfg`; the
    /// only way to build one. A record nobody reads is not kept: with no
    /// audit, a control that decides without it (strict 2PL) runs on
    /// [`Recorder::disabled`]. With durability on, the buffer pool may
    /// evict a dirty page only once the log covers its redo
    /// (`advance_durable_floor`). The metrics keep
    /// [`EngineConfig::shards`] lanes
    /// ([`EngineMetrics::with_shards`]), whatever `cc` is.
    pub fn new(cfg: &EngineConfig, cc: &dyn ConcurrencyControl) -> Self {
        let rec = if cfg.audit || cc.reads_record() {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        let enc = Encyclopedia::create(
            rec.clone(),
            EncyclopediaConfig {
                fanout: cfg.fanout,
                pool_frames: cfg.pool_frames,
                ..EncyclopediaConfig::default()
            },
        );
        if cfg.durability.is_on() {
            enc.pool().gate_evictions();
        }
        let metrics = EngineMetrics::with_shards(cfg.shards);
        let dur = cfg
            .durability
            .is_on()
            .then(|| Durability::new(cfg.durability, cfg.fsync_latency, metrics.queue.clone()));
        EngineShared {
            rec,
            enc: CompensatedEncyclopedia::new(enc),
            gate: RwLock::new(()),
            metrics,
            trace: Tracer::new(cfg.trace, cfg.workers.max(1)),
            dur,
            faults: FaultPlan::default(),
        }
    }

    /// Arm a mid-flight abort: attempt `attempt` of `job` aborts once
    /// `after_ops` of its operations have been granted, compensating and
    /// releasing everything it holds exactly as a real failure would
    /// (test hook).
    pub fn inject_fault_after(&self, job: u64, attempt: u32, after_ops: usize) {
        self.faults.arm(job, attempt, after_ops);
    }

    /// Every `(key, text)` pair in the database, in key order, read by
    /// one transaction the control retires at once. Call with nothing
    /// running beside it, after any audit: the read lands in the record.
    pub fn final_state(&self, cc: &dyn ConcurrencyControl) -> Vec<(String, String)> {
        let mut ctx = self.rec.begin_txn("Dump");
        cc.retire(self, TxnIdx(ctx.txn_number()));
        let mut items: Vec<(String, String)> = self
            .enc
            .read_seq(&mut ctx)
            .into_iter()
            .map(|(_, k, text)| (k, text))
            .collect();
        items.sort();
        items
    }

    /// The engine's counters with the recorder's and the buffer pool's
    /// own beside them, all read now.
    pub fn metrics_snapshot(&self) -> crate::MetricsSnapshot {
        self.metrics.snapshot(self.rec.stats(), self.pool_stats())
    }

    /// The buffer pool's counters (a pass over its frames).
    pub(crate) fn pool_stats(&self) -> oodb_storage::PoolStats {
        self.enc.inner().pool().stats()
    }
}

/// Identity of one transaction *attempt* (each retry gets a fresh
/// recorded transaction, hence a fresh handle).
#[derive(Debug, Clone)]
pub struct TxnHandle {
    /// The logical job this attempt executes.
    pub job: u64,
    /// 0-based attempt number (0 = first execution).
    pub attempt: u32,
    /// The recorded transaction of this attempt, which is also who owns
    /// its locks.
    pub txn: TxnIdx,
    /// The lock stripes this attempt holds under [`LockingCc`], one bit
    /// each (a release visits exactly these). It lives in the attempt's
    /// own handle, so the control keeps no shared map of it.
    footprint: Cell<u64>,
}

impl TxnHandle {
    /// The handle of attempt `attempt` of `job`, recorded as `txn`; it
    /// holds nothing yet.
    pub fn new(job: u64, attempt: u32, txn: TxnIdx) -> Self {
        TxnHandle {
            job,
            attempt,
            txn,
            footprint: Cell::new(0),
        }
    }
}

/// Armed mid-flight aborts ([`EngineShared::inject_fault_after`]):
/// `(job, attempt) → abort once this many ops have been granted`.
#[derive(Default)]
pub(crate) struct FaultPlan {
    armed: Mutex<HashMap<(u64, u32), usize>>,
    /// Entries in `armed`, so the per-operation check of an engine with
    /// nothing armed — every engine outside the fault suites — takes no
    /// lock. Stored (Release) under the `armed` lock, loaded (Acquire)
    /// before taking it: a check that reads 0 is ordered before the
    /// arming it missed.
    pending: AtomicUsize,
}

impl FaultPlan {
    pub(crate) fn arm(&self, job: u64, attempt: u32, after_ops: usize) {
        let mut armed = self.armed.lock();
        armed.insert((job, attempt), after_ops);
        self.pending.store(armed.len(), Ordering::Release);
    }

    pub(crate) fn fires(&self, txn: &TxnHandle, ops_done: usize) -> bool {
        if self.pending.load(Ordering::Acquire) == 0 {
            return false;
        }
        let mut armed = self.armed.lock();
        match armed.get(&(txn.job, txn.attempt)) {
            Some(&n) if ops_done >= n => {
                armed.remove(&(txn.job, txn.attempt));
                self.pending.store(armed.len(), Ordering::Release);
                true
            }
            _ => false,
        }
    }
}

/// Decision for one operation, returned by
/// [`ConcurrencyControl::before_op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpGrant {
    /// The operation may execute now.
    Granted,
    /// The attempt must abort (e.g. chosen as a deadlock victim while
    /// waiting for the grant). The worker compensates and retries.
    AbortVictim,
}

/// Decision at commit point, returned by
/// [`ConcurrencyControl::try_finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishOutcome {
    /// The transaction is (or may now be) committed.
    Committed,
    /// The transaction must abort (validation failure). The worker
    /// compensates and retries.
    Abort,
}

/// Protocol hooks invoked by the worker loop. Implementations are shared
/// across workers and must be internally synchronized.
pub trait ConcurrencyControl: Send + Sync {
    /// Human-readable strategy name for reports.
    fn name(&self) -> &'static str;

    /// Gate one operation. Pessimistic implementations block here until
    /// the semantic lock is granted (or the attempt is chosen as a
    /// deadlock victim); optimistic ones return immediately.
    fn before_op(&self, shared: &EngineShared, txn: &TxnHandle, op: &EncOp) -> OpGrant;

    /// Attempt to finish the transaction after all operations executed.
    /// On [`FinishOutcome::Committed`] the worker commits the database
    /// transaction and then calls [`after_commit`](Self::after_commit).
    fn try_finish(&self, shared: &EngineShared, txn: &TxnHandle) -> FinishOutcome;

    /// Called after the database commit of a finished transaction
    /// (release locks, bookkeeping).
    fn after_commit(&self, shared: &EngineShared, txn: &TxnHandle);

    /// Called after the worker compensated an aborted attempt (release
    /// locks, register the abort).
    fn after_abort(&self, shared: &EngineShared, txn: &TxnHandle);

    /// True when this protocol defers writes to the commit point; reads
    /// see committed state when issued. The worker keeps the attempt's
    /// write operations and, at the commit point, installs them and
    /// certifies **atomically under the install gate**
    /// ([`EngineShared::gate`]; compensating there too if validation
    /// fails), which its reads hold shared. Uncommitted writes
    /// are therefore never visible to any other transaction: there is
    /// nothing unrecoverable to wait for and nothing to cascade.
    fn buffers_writes(&self) -> bool {
        false
    }

    /// `txn` is recorded outside the protocol — a compensation
    /// transaction, the shutdown state dump — and will never reach
    /// [`try_finish`](Self::try_finish) or
    /// [`after_abort`](Self::after_abort). A certifying protocol forgets
    /// it here; otherwise it would look live forever and pin the
    /// certifier's retention cut (`oodb_core::retention`) at its first
    /// action. Called when `txn` begins, before it records anything.
    fn retire(&self, _shared: &EngineShared, _txn: TxnIdx) {}

    /// True when this protocol reads the recorded execution while the
    /// engine runs, as a certifier does. With the audit off, a protocol
    /// that does not leaves nobody to read the record, and the engine
    /// records nothing ([`oodb_model::Recorder::disabled`]).
    fn reads_record(&self) -> bool {
        true
    }

    /// The sub-history the shutdown audit should verify: `None` audits
    /// the complete record (sound for strict 2PL — forward work, aborted
    /// attempts, and compensations all oo-serializable), `Some` restricts
    /// to what the protocol actually guarantees (the committed projection
    /// under optimistic certification).
    fn committed_projection(&self, _ts: &TransactionSystem, _history: &History) -> Option<History> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_fires_once_at_threshold() {
        let plan = FaultPlan::default();
        plan.arm(3, 0, 2);
        let txn = TxnHandle::new(3, 0, TxnIdx(7));
        assert!(!plan.fires(&txn, 1), "below threshold");
        assert!(plan.fires(&txn, 2), "at threshold");
        assert!(!plan.fires(&txn, 3), "disarmed after firing");
        let retry = TxnHandle::new(3, 1, TxnIdx(8));
        assert!(!plan.fires(&retry, 2), "other attempts unaffected");
    }
}
