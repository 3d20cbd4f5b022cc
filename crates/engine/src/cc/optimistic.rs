//! Optimistic certification: execute without semantic locks, validate
//! oo-serializability at commit.
//!
//! Writes are deferred to the commit point; reads see committed state
//! when issued. The worker keeps an attempt's writes in its own buffer
//! and installs them atomically with certification under the install
//! gate, which reads hold shared, so an uncommitted effect is never
//! public — and an
//! attempt's read does not see its own deferred write either.
//! Recoverability therefore needs no apparatus of its own, and the
//! certifier has none: no commit dependency to wait on, no abort that
//! cascades. What is left is
//! the commutativity-based check of what commits: the certifier keeps
//! the dependency relations incrementally, and each round feeds it the
//! actions recorded since the last one under the recorder's record lock
//! and checks Definition 16 from the candidate's own edges.
//!
//! There is one certifier at every lane count. The paper decentralizes
//! by object (Definition 6), which the certifier's per-object schedules
//! already do, and the cut ([`oodb_core::retention`]) keeps what a commit
//! is checked against at a few transactions; a second scoping by hash
//! partition bought nothing measurable (EXPERIMENTS.md "After the
//! merge"). The metric lanes are the engine's, not the control's
//! ([`EngineMetrics::shard_op`](crate::EngineMetrics::shard_op)).

use super::{ConcurrencyControl, EngineShared, FinishOutcome, OpGrant, TxnHandle};
use crate::trace::{CertOutcome, TraceEventKind};
use oodb_btree::EncOp;
use oodb_core::certifier::{Certifier, CertifierStats, CommitOutcome};
use oodb_core::history::History;
use oodb_core::ids::TxnIdx;
use oodb_core::system::TransactionSystem;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;

/// Backward-validation concurrency control over the shared
/// [`Certifier`].
///
/// The worker buffers an attempt's writes
/// ([`buffers_writes`](ConcurrencyControl::buffers_writes)) and readers
/// only ever observe committed state; `try_finish` — called under the
/// install gate that installed the writes — is first-committer-wins
/// validation against Definition 16 over the transactions the certifier
/// still retains plus the candidate.
pub struct OptimisticCc {
    cert: Mutex<Certifier>,
}

impl OptimisticCc {
    /// Writes deferred to the commit point, reads of committed state when
    /// issued, certified incrementally against the paper's decentralized
    /// Definition 16.
    pub fn new() -> Self {
        OptimisticCc {
            cert: Mutex::new(Certifier::default()),
        }
    }

    /// Committed transactions so far.
    pub fn committed_count(&self) -> usize {
        self.cert.lock().committed().len()
    }

    /// True when `txn` was aborted (validation failure or victim).
    pub fn was_aborted(&self, txn: TxnIdx) -> bool {
        self.cert.lock().aborted().contains(&txn)
    }

    /// The certifier's counters.
    pub fn stats(&self) -> CertifierStats {
        self.cert.lock().stats
    }

    /// Mirror the certifier's retention counters — transactions the cut
    /// dropped so far, primitives held now — into the engine metrics.
    /// Called with the certifier's lock held wherever its cut may have
    /// run, inside a certification round or not (an abort before the
    /// commit point, a retired compensation), so the live engine can
    /// always say how much history the next commit is checked against.
    fn publish_retention(shared: &EngineShared, stats: &CertifierStats) {
        let m = &shared.metrics;
        m.cert_settled.store(stats.settled, Ordering::Relaxed);
        m.cert_retained_actions
            .store(stats.retained_actions, Ordering::Relaxed);
    }

    /// Publish one certification round's inference cost: the certifier
    /// stat deltas land in the engine counters, and a round that
    /// consumed anything additionally emits a `cert_delta` event.
    fn publish_cert_round(
        shared: &EngineShared,
        txn: &TxnHandle,
        before: CertifierStats,
        after: CertifierStats,
    ) {
        let fed = after.actions_inferred - before.actions_inferred;
        let reseeds = after.incremental_reseeds - before.incremental_reseeds;
        let visited = after.check_visited - before.check_visited;
        Self::publish_retention(shared, &after);
        if visited > 0 {
            shared
                .metrics
                .cert_check_visited
                .fetch_add(visited, Ordering::Relaxed);
        }
        if fed > 0 {
            shared
                .metrics
                .cert_actions_inferred
                .fetch_add(fed, Ordering::Relaxed);
        }
        if reseeds > 0 {
            shared
                .metrics
                .cert_incremental_reseeds
                .fetch_add(reseeds, Ordering::Relaxed);
        }
        if fed > 0 || reseeds > 0 {
            shared.trace.emit_txn(txn, || TraceEventKind::CertDelta {
                fed,
                reseeded: reseeds > 0,
            });
        }
    }

    /// One certification round of `txn` over the live record
    /// ([`oodb_model::Recorder::with_record`]): feed the delta, validate.
    /// True when `txn` committed. Side effects that re-enter the recorder
    /// (compensation) stay outside the round — lock order is always
    /// recorder → certifier, never the inverse.
    fn certify(
        &self,
        shared: &EngineShared,
        txn: &TxnHandle,
        ts: &TransactionSystem,
        history: &History,
    ) -> bool {
        let mut cert = self.cert.lock();
        let before = cert.stats;
        cert.feed_record(ts, history);
        // what the check can reach: the transactions still retained
        // after the feed, plus the candidate
        let component = cert.retained_txns() + 1;
        let committed = matches!(
            cert.try_commit(ts, history, txn.txn),
            CommitOutcome::Committed
        );
        shared.trace.emit_txn(txn, || TraceEventKind::CertAttempt {
            component,
            outcome: if committed {
                CertOutcome::Commit
            } else {
                CertOutcome::Abort
            },
        });
        Self::publish_cert_round(shared, txn, before, cert.stats);
        committed
    }
}

impl Default for OptimisticCc {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrencyControl for OptimisticCc {
    fn name(&self) -> &'static str {
        "optimistic"
    }

    fn before_op(&self, _shared: &EngineShared, _txn: &TxnHandle, _op: &EncOp) -> OpGrant {
        OpGrant::Granted
    }

    fn try_finish(&self, shared: &EngineShared, txn: &TxnHandle) -> FinishOutcome {
        let committed = shared
            .rec
            .with_record(|ts, history| self.certify(shared, txn, ts, history));
        if committed {
            FinishOutcome::Committed
        } else {
            FinishOutcome::Abort
        }
    }

    fn after_commit(&self, _shared: &EngineShared, _txn: &TxnHandle) {}

    fn after_abort(&self, shared: &EngineShared, txn: &TxnHandle) {
        // nothing was published, so nothing can cascade; just finalize
        // the certifier bookkeeping (the attempt may have aborted before
        // its commit point: an injected fault)
        let me = txn.txn;
        let mut cert = self.cert.lock();
        if cert.is_live(me) {
            cert.register_abort(me);
            Self::publish_retention(shared, &cert.stats);
        }
    }

    fn buffers_writes(&self) -> bool {
        true
    }

    fn retire(&self, shared: &EngineShared, txn: TxnIdx) {
        let mut cert = self.cert.lock();
        cert.retire(txn);
        Self::publish_retention(shared, &cert.stats);
    }

    fn committed_projection(&self, ts: &TransactionSystem, history: &History) -> Option<History> {
        Some(self.cert.lock().committed_history(ts, history))
    }
}
