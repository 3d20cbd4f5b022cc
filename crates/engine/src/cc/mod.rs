//! The pluggable concurrency-control interface.
//!
//! The engine's worker loop is protocol-agnostic: it executes operations,
//! commits, compensates, and retries. Everything protocol-specific —
//! when an operation may run, when a transaction may commit, what happens
//! on abort — goes through [`ConcurrencyControl`]. Three implementations
//! ship:
//!
//! * [`PessimisticCc`] — semantic strict 2PL with deadlock detection and
//!   compensation-based victim abort (the paper's §4–§5 protocol);
//! * [`ShardedPessimisticCc`] — the same protocol over one lock manager
//!   per key-hash shard, with wound-wait in place of deadlock detection;
//! * [`OptimisticCc`] — execute against a snapshot with writes buffered,
//!   install and certify at commit against Definition 16 via
//!   [`oodb_core::certifier::Certifier`]. One certifier at every shard
//!   count: shards are lanes of its metrics.
//!
//! All three are strict: no transaction ever observes an uncommitted
//! effect, so a compensation cannot fail and an abort never cascades.

mod optimistic;
mod pessimistic;
mod sharded;
pub mod versions;

pub use optimistic::OptimisticCc;
pub use pessimistic::PessimisticCc;
pub use sharded::{shard_of_key, ShardedPessimisticCc};
pub use versions::VersionStore;

use crate::db::ConcurrentEnc;
use crate::metrics::EngineMetrics;
use crate::trace::Tracer;
use oodb_core::history::History;
use oodb_core::ids::TxnIdx;
use oodb_core::system::TransactionSystem;
use oodb_lock::OwnerId;
use oodb_model::Recorder;
use oodb_sim::EncOp;

/// Execution environment shared by every worker and the concurrency
/// control: the recorder, the database, and the metrics sink.
pub struct EngineShared {
    /// Recorder underlying all transactions (call trees + history).
    pub rec: Recorder,
    /// The shared compensated encyclopedia all transactions touch,
    /// behind the latched/striped access layer (see [`crate::db`]).
    pub enc: ConcurrentEnc,
    /// Atomic counters and latency histograms.
    pub metrics: EngineMetrics,
    /// Structured lifecycle tracing (the disabled tracer by default).
    pub trace: Tracer,
    /// The write-ahead log, when [`DurabilityMode`](crate::DurabilityMode)
    /// is not `Off`. `None` keeps commits memory-only with zero overhead.
    pub dur: Option<crate::durability::Durability>,
}

impl EngineShared {
    /// The engine's counters with the recorder's and the buffer pool's
    /// own beside them, all read now.
    pub fn metrics_snapshot(&self) -> crate::MetricsSnapshot {
        self.metrics.snapshot(self.rec.stats(), self.pool_stats())
    }

    /// The buffer pool's counters (a pass over its frames).
    pub(crate) fn pool_stats(&self) -> oodb_storage::PoolStats {
        self.enc.inner().inner().pool().stats()
    }
}

/// Identity of one transaction *attempt* (each retry gets a fresh
/// recorded transaction, hence a fresh handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnHandle {
    /// The logical job this attempt executes.
    pub job: u64,
    /// 0-based attempt number (0 = first execution).
    pub attempt: u32,
    /// The recorded transaction of this attempt.
    pub txn: TxnIdx,
    /// Lock-owner identity of this attempt.
    pub owner: OwnerId,
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

/// Where one operation's concurrency bookkeeping routes when the key
/// space is partitioned across shards (see
/// [`route`](ConcurrencyControl::route)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRoute {
    /// The operation's footprint is a single key; all bookkeeping lives
    /// on one shard.
    One(usize),
    /// The operation's footprint spans the whole container (sequential
    /// and range scans under hash partitioning): it must be visible on
    /// every shard.
    All,
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

    /// Number of shards this strategy partitions the key space into —
    /// independent lock managers under strict 2PL, metric lanes under
    /// certification. `1` means no partition.
    fn shards(&self) -> usize {
        1
    }

    /// Which shard(s) `op`'s bookkeeping routes to:
    /// `shard(key) = hash(key) % shards()` for keyed operations, every
    /// shard for container-wide scans. Single-shard strategies route
    /// everything to shard 0.
    fn route(&self, op: &EncOp) -> ShardRoute;

    /// Fault-injection hook, consulted by the worker after each executed
    /// operation (`ops_done` operations of the attempt have run). `true`
    /// forces the attempt to abort mid-flight — compensating and
    /// releasing on every shard it touched — exactly as a real failure
    /// would. The default never fires; [`ShardedPessimisticCc`] and
    /// [`OptimisticCc`] expose test knobs that arm it.
    fn inject_abort(&self, _txn: &TxnHandle, _ops_done: usize) -> bool {
        false
    }

    /// True when another transaction has doomed this attempt (wounded
    /// under wound-wait); the worker checks between operations and
    /// aborts promptly.
    fn is_doomed(&self, _txn: &TxnHandle) -> bool {
        false
    }

    /// True when this protocol runs MVCC snapshot execution: the worker
    /// defers the attempt's write operations and, at the commit point,
    /// installs them and certifies **atomically inside the database
    /// critical section** (compensating there too if validation fails).
    /// Uncommitted writes are therefore never visible to any other
    /// transaction: there is nothing unrecoverable to wait for and
    /// nothing to cascade.
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

    /// The sub-history the shutdown audit should verify: `None` audits
    /// the complete record (sound for strict 2PL — forward work, aborted
    /// attempts, and compensations all oo-serializable), `Some` restricts
    /// to what the protocol actually guarantees (the committed projection
    /// under optimistic certification).
    fn committed_projection(&self, _ts: &TransactionSystem, _history: &History) -> Option<History> {
        None
    }
}
