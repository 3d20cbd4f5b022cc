//! Typed transaction-lifecycle events.
//!
//! Every event carries the full identity stamp `(job, attempt, txn,
//! worker, seq)` plus a monotonic engine-relative timestamp. The `seq`
//! numbers come from one global counter and — crucially — **operation
//! events claim their number while the operation holds its lock (or the
//! install gate)**, so sorting a drained trace by `seq` reproduces the
//! order in which the recorded history interleaved every two
//! conflicting operations. That
//! is what lets an offline analysis rebuild the dependency graph from
//! the trace alone.

use std::fmt::Write as _;

use crate::metrics::ShardRoute;
use oodb_btree::EncOp;

/// Sentinel worker id for events emitted off the worker pool (the
/// submission path, preload on the caller thread).
pub const WORKER_EXTERNAL: u32 = u32::MAX;

/// Sentinel txn number for events emitted before a recorded transaction
/// exists for the attempt (a job's admission).
pub const TXN_NONE: u32 = u32::MAX;

/// Outcome of one certification (validation) attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertOutcome {
    /// Validation succeeded; the transaction committed.
    Commit,
    /// Validation failed; the transaction aborts.
    Abort,
}

/// Why an attempt aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// Chosen as a deadlock victim.
    Victim,
    /// Failed commit-time validation.
    Validation,
    /// The fault-injection hook fired.
    Injected,
}

impl AbortReason {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::Victim => "victim",
            AbortReason::Validation => "validation",
            AbortReason::Injected => "injected",
        }
    }
}

impl CertOutcome {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            CertOutcome::Commit => "commit",
            CertOutcome::Abort => "abort",
        }
    }
}

/// What happened. Payload fields are event-specific; identity lives in
/// the enclosing [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A job entered the admission queue.
    JobAdmitted {
        /// Queue depth right after admission.
        depth: usize,
    },
    /// A worker began executing an attempt of a job.
    AttemptBegin {
        /// Number of operations the job performs.
        ops: usize,
    },
    /// An operation passed its concurrency-control gate and executed.
    /// The event's `seq` is claimed inside the database critical
    /// section, so `seq` order over these events *is* the history order.
    OpGranted {
        /// The executed operation.
        op: EncOp,
        /// Where its bookkeeping routed.
        shard: ShardRoute,
        /// Time spent waiting for the grant, in nanoseconds.
        wait_ns: u64,
        /// Whether the operation engaged its target item(s): a write
        /// that succeeded, or a search that found its key. A failed
        /// write (insert of an existing key, change/delete of a missing
        /// one) and a search miss both execute as read-only probes of
        /// the key's index entry — their effective conflict footprint
        /// is what the dependency reconstruction relies on.
        hit: bool,
    },
    /// One semantic inverse executed while compensating an aborted
    /// attempt, expressed as the encyclopedia operation it ran. Like
    /// `OpGranted`, the `seq` is claimed inside the database critical
    /// section, so membership replay over the trace stays exact (a
    /// compensating re-insert creates a *new* item, which later
    /// operations touch instead of the aborted one's).
    CompensationOp {
        /// The inverse operation as executed.
        op: EncOp,
        /// Whether the inverse applied (false = failed compensation,
        /// surfaced in the abort report).
        hit: bool,
    },
    /// The concurrency control observed a conflict (or a commuting
    /// near-conflict) between this attempt and another transaction —
    /// the paper's Definition 10 machinery made visible. `inherited`
    /// distinguishes a true semantic conflict (the dependency is
    /// inherited to the top level) from a pair that conflicts at page
    /// granularity but commutes at the caller, where inheritance stops.
    Conflict {
        /// Lock-owner / transaction number of the other party.
        with: u64,
        /// This attempt's action descriptor, e.g. `insert(k1)`.
        ours: String,
        /// The other party's descriptor.
        theirs: String,
        /// True when the pair conflicts semantically (dependency
        /// inherited); false when it stopped at a commuting caller.
        inherited: bool,
    },
    /// This attempt's blocked request closed a waits-for cycle, and the
    /// detector chose the cycle member with the largest job id to abort
    /// (possibly this attempt itself).
    DeadlockVictim {
        /// Job id of the victim.
        victim_job: u64,
        /// Job ids of the cycle, starting with this attempt's, in
        /// waits-for order.
        cycle_jobs: Vec<u64>,
    },
    /// One certification round of an optimistic commit.
    CertAttempt {
        /// Size of the validation scope: the transactions the certifier
        /// still retained after feeding the record, plus the candidate.
        component: usize,
        /// How the round ended.
        outcome: CertOutcome,
    },
    /// The certifier consumed the recorder delta appended since its
    /// last attempt — the per-commit inference cost made visible. `fed`
    /// counts primitive executions fed to the schedule maintenance this
    /// round (O(new actions), not the record); `reseeded` marks the
    /// rounds that first rebuilt the live schedules because garbage from
    /// excluded (aborted/settled) transactions outgrew the live state.
    CertDelta {
        /// Primitive executions fed this round (including a reseed's
        /// full replay when `reseeded` is set).
        fed: u64,
        /// True when the feed replayed the restricted history from
        /// scratch before consuming the tail.
        reseeded: bool,
    },
    /// The attempt's write-ahead-log records were appended (emitted once
    /// per attempt when its last lifecycle record — `Commit` or
    /// `AbortDone` — went to the log; zero-write attempts log nothing
    /// and emit nothing).
    WalAppend {
        /// Records this attempt appended (lifecycle + per-op payloads).
        records: u32,
        /// Bytes appended, including framing overhead.
        bytes: u64,
    },
    /// The log flusher forced the log (one simulated fsync). Emitted by
    /// the flusher thread, stamped with the oldest commit of the group.
    GroupFlush {
        /// Commits this flush acknowledges.
        commits: usize,
        /// The durable byte watermark after the flush.
        durable_bytes: u64,
        /// What ended the gather.
        reason: crate::durability::FlushReason,
    },
    /// The worker compensated this attempt's completed operations.
    Compensated {
        /// How many forward operations had completed.
        ops: usize,
    },
    /// The attempt committed (the job is done).
    Committed,
    /// The attempt aborted.
    Aborted {
        /// Why.
        reason: AbortReason,
        /// True when this was the job's final attempt (retries
        /// exhausted) — the job is dropped.
        last: bool,
    },
}

impl TraceEventKind {
    /// Stable snake_case name of the event kind (the JSONL `"kind"`
    /// field and the Chrome-trace event name).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::JobAdmitted { .. } => "job_admitted",
            TraceEventKind::AttemptBegin { .. } => "attempt_begin",
            TraceEventKind::OpGranted { .. } => "op_granted",
            TraceEventKind::CompensationOp { .. } => "compensation_op",
            TraceEventKind::Conflict { .. } => "conflict",
            TraceEventKind::DeadlockVictim { .. } => "deadlock_victim",
            TraceEventKind::CertAttempt { .. } => "cert_attempt",
            TraceEventKind::CertDelta { .. } => "cert_delta",
            TraceEventKind::WalAppend { .. } => "wal_append",
            TraceEventKind::GroupFlush { .. } => "group_flush",
            TraceEventKind::Compensated { .. } => "compensated",
            TraceEventKind::Committed => "committed",
            TraceEventKind::Aborted { .. } => "aborted",
        }
    }
}

/// One trace record: the identity stamp plus the typed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global emission sequence number (total order over the trace;
    /// history order over `OpGranted` events).
    pub seq: u64,
    /// Nanoseconds since the engine started.
    pub t_ns: u64,
    /// Logical job id (`u64::MAX` for the preload transaction).
    pub job: u64,
    /// 0-based attempt number of the job.
    pub attempt: u32,
    /// Recorded transaction number of the attempt ([`TXN_NONE`] when no
    /// transaction exists yet).
    pub txn: u32,
    /// Worker index, or [`WORKER_EXTERNAL`] for off-pool threads.
    pub worker: u32,
    /// The typed payload.
    pub kind: TraceEventKind,
}

/// The root transaction name the engine records for attempt `attempt`
/// of job `job`: `"Setup"` for the preload job (`u64::MAX`), else
/// `"J<job+1>"` with an `r<attempt>` suffix for retries — e.g. job 2,
/// attempt 1 → `"J3r1"`. Events carry the same name.
pub fn attempt_name(job: u64, attempt: u32) -> String {
    let mut name = if job == u64::MAX {
        "Setup".to_string()
    } else {
        format!("J{}", job + 1)
    };
    if attempt > 0 {
        let _ = write!(name, "r{attempt}");
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_names_match_worker_naming() {
        assert_eq!(attempt_name(u64::MAX, 0), "Setup");
        assert_eq!(attempt_name(0, 0), "J1");
        assert_eq!(attempt_name(2, 0), "J3");
        assert_eq!(attempt_name(2, 1), "J3r1");
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(TraceEventKind::Committed.name(), "committed");
        assert_eq!(
            TraceEventKind::OpGranted {
                op: EncOp::ReadSeq,
                shard: ShardRoute::All,
                wait_ns: 0,
                hit: true,
            }
            .name(),
            "op_granted"
        );
        assert_eq!(
            TraceEventKind::CertDelta {
                fed: 3,
                reseeded: false,
            }
            .name(),
            "cert_delta"
        );
    }
}
