//! Optimistic certification: execute without semantic locks, validate
//! oo-serializability at commit.
//!
//! Two execution modes share the certifier:
//!
//! * **snapshot (MVCC, the default)** — writes are buffered and
//!   installed atomically with certification inside the database
//!   critical section, so uncommitted effects are never public and the
//!   recoverability machinery (commit-dependency waits, cascading
//!   aborts) is structurally dead;
//! * **legacy in-place** — subtransaction effects are public
//!   immediately, so readers inherit commit dependencies and an abort
//!   cascades through its dependents.

use super::{ConcurrencyControl, EngineShared, FinishOutcome, OpGrant, ShardRoute, TxnHandle};
use crate::cc::versions::{self, VersionStore};
use crate::trace::{CertOutcome, TraceEventKind};
use oodb_core::certifier::{
    restrict_history, CertBackend, Certifier, CertifierMode, CertifierStats, CommitOutcome,
    WaitPolicy,
};
use oodb_core::history::History;
use oodb_core::ids::TxnIdx;
use oodb_core::schedule::SystemSchedules;
use oodb_core::system::TransactionSystem;
use oodb_sim::EncOp;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::Ordering;

/// Backward-validation concurrency control over the shared
/// [`Certifier`].
///
/// In the legacy in-place mode, operations always execute immediately
/// (the encyclopedia mutex makes each one atomic); at commit the
/// certifier checks Definition 16 over the committed transactions plus
/// the candidate. Because execution is uncontrolled, a transaction may
/// read state a concurrent transaction later compensates away — the
/// certifier's commit dependencies force readers to wait for their
/// predecessors ([`CommitOutcome::MustWait`]), and an abort dooms its
/// live dependents (cascading abort), which the workers pick up via
/// [`is_doomed`](ConcurrencyControl::is_doomed).
///
/// In snapshot mode ([`OptimisticCc::snapshot`]), writes are buffered by
/// the worker ([`buffers_writes`](ConcurrencyControl::buffers_writes))
/// and readers only ever observe committed state, so neither rule is
/// needed: `try_finish` goes straight to first-committer-wins
/// validation, never answers [`FinishOutcome::Wait`], and never dooms
/// anyone.
pub struct OptimisticCc {
    cert: Mutex<Certifier>,
    doomed: Mutex<HashSet<TxnIdx>>,
    /// Attempts currently executing under this control (registered at
    /// their first operation, cleared at finalization). Commit
    /// dependencies wait only on *these*: a predecessor outside the
    /// concurrency control — a compensation transaction — is final by
    /// definition and can never abort underneath the candidate, so
    /// waiting on it would starve every retry that touches a
    /// compensated key.
    live: Mutex<HashSet<TxnIdx>>,
    /// MVCC version bookkeeping; `Some` selects snapshot execution.
    snapshot: Option<VersionStore>,
    mode: CertifierMode,
    /// How certification-time dependencies are derived: maintained
    /// incrementally across attempts (the default) or re-inferred from
    /// scratch every attempt (the differential oracle).
    backend: CertBackend,
    name: &'static str,
}

impl OptimisticCc {
    /// Legacy in-place execution, certifying against the paper's
    /// decentralized Definition 16.
    pub fn new() -> Self {
        Self::with_mode(CertifierMode::Paper)
    }

    /// Legacy in-place execution against the chosen check.
    pub fn with_mode(mode: CertifierMode) -> Self {
        Self::build(mode, false)
    }

    /// MVCC snapshot execution against the paper's Definition 16.
    pub fn snapshot() -> Self {
        Self::snapshot_with_mode(CertifierMode::Paper)
    }

    /// MVCC snapshot execution against the chosen check.
    pub fn snapshot_with_mode(mode: CertifierMode) -> Self {
        Self::build(mode, true)
    }

    fn build(mode: CertifierMode, snapshot: bool) -> Self {
        OptimisticCc {
            // the wait check runs here (scoped to live managed attempts),
            // not in the certifier (which would wait on any unfinalized
            // transaction in the record, compensations included)
            cert: Mutex::new(Certifier::new(mode).with_wait_policy(WaitPolicy::Ignore)),
            doomed: Mutex::new(HashSet::new()),
            live: Mutex::new(HashSet::new()),
            snapshot: snapshot.then(VersionStore::new),
            mode,
            backend: CertBackend::default(),
            name: match (snapshot, mode) {
                (false, CertifierMode::Paper) => "optimistic",
                (false, CertifierMode::Global) => "optimistic-global",
                (true, CertifierMode::Paper) => "mvcc",
                (true, CertifierMode::Global) => "mvcc-global",
            },
        }
    }

    /// Select the certification backend ([`CertBackend::Incremental`]
    /// is the default; [`CertBackend::FromScratch`] re-infers every
    /// attempt and serves as the differential oracle — see
    /// `tests/cert_differential.rs`).
    pub fn with_certification(mut self, backend: CertBackend) -> Self {
        self.backend = backend;
        *self.cert.get_mut() = Certifier::new(self.mode)
            .with_wait_policy(WaitPolicy::Ignore)
            .with_backend(backend);
        self
    }

    /// The serializability check gating commits.
    pub(super) fn mode(&self) -> CertifierMode {
        self.mode
    }

    /// The certification backend in use.
    pub fn certification(&self) -> CertBackend {
        self.backend
    }

    /// Whether this control runs MVCC snapshot execution.
    pub(super) fn is_snapshot(&self) -> bool {
        self.snapshot.is_some()
    }

    /// The MVCC version store (snapshot mode only).
    pub fn version_store(&self) -> Option<&VersionStore> {
        self.snapshot.as_ref()
    }

    /// Live transactions that depend on `txn` (read its effects): the
    /// cascade set of an abort. Inference is scoped to `txn` plus the
    /// certifier-live transactions — only those can cascade, and no
    /// dependency edge ever needs a third transaction's actions to be
    /// derived — and deduplicated through a hash set (`top.edges()`
    /// yields one edge per action pair, many per transaction pair).
    fn live_dependents(
        cert: &Certifier,
        ts: &TransactionSystem,
        history: &History,
        txn: TxnIdx,
    ) -> Vec<TxnIdx> {
        let is_live = |t: TxnIdx| !cert.committed().contains(&t) && !cert.aborted().contains(&t);
        let mut scope: HashSet<TxnIdx> = (0..ts.top_level().len() as u32)
            .map(TxnIdx)
            .filter(|&t| is_live(t))
            .collect();
        scope.insert(txn);
        let restricted = restrict_history(ts, history, &scope);
        let ss = SystemSchedules::infer_scoped(ts, &restricted, &scope);
        let top = ss.top_level_deps(ts);
        let me = ts.top_level()[txn.as_usize()];
        let mut cascade = Vec::new();
        let mut seen = HashSet::new();
        for (f, t) in top.edges() {
            if *f == me {
                let dep = ts.action(*t).txn;
                if dep != txn && is_live(dep) && seen.insert(dep) {
                    cascade.push(dep);
                }
            }
        }
        cascade
    }

    /// Mirror the certifier's retention counters — transactions the cut
    /// dropped so far, primitives held now — into the engine metrics.
    /// Called with the certifier's lock held wherever its cut may have
    /// run, inside a certification round or not (an abort before the
    /// commit point, a retired compensation), so the live engine can
    /// always say how much history the next commit is checked against.
    pub(super) fn publish_retention(shared: &EngineShared, stats: &CertifierStats) {
        let m = &shared.metrics;
        m.cert_settled.store(stats.settled, Ordering::Relaxed);
        m.cert_retained_actions
            .store(stats.retained_actions, Ordering::Relaxed);
    }

    /// Publish one certification round's inference cost: the certifier
    /// stat deltas land in the engine counters, and incremental rounds
    /// that consumed anything additionally emit a `cert_delta` event
    /// (`emit_delta` is false on the from-scratch oracle, which has no
    /// delta to speak of — its cost is the full restricted history).
    pub(super) fn publish_cert_round(
        shared: &EngineShared,
        txn: &TxnHandle,
        before: CertifierStats,
        after: CertifierStats,
        emit_delta: bool,
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
        if emit_delta && (fed > 0 || reseeds > 0) {
            shared.trace.emit_txn(txn, || TraceEventKind::CertDelta {
                fed,
                reseeded: reseeds > 0,
            });
        }
    }

    /// The incremental twin of the from-scratch `try_finish` body: the
    /// whole round runs against the *live* record under the recorder
    /// lock ([`oodb_model::Recorder::with_record`]), feeding the
    /// certifier's maintained schedules only the actions appended since
    /// the last attempt instead of cloning and re-inferring a snapshot.
    /// Side effects that re-enter the recorder (version install,
    /// compensation) stay outside the closure — lock order is always
    /// recorder → certifier, never the inverse.
    fn try_finish_incremental(&self, shared: &EngineShared, txn: &TxnHandle) -> FinishOutcome {
        enum Round {
            Commit,
            Wait,
            Abort(Vec<TxnIdx>),
        }
        let round = shared.rec.with_record(|ts, history| {
            let mut cert = self.cert.lock();
            let before = cert.stats;
            cert.feed_record(ts, history);
            if self.snapshot.is_none() {
                // commit dependency: a live *managed* predecessor must
                // finalize first. Same liveness scope as the
                // from-scratch path, but the edges come from the
                // maintained schedules — stale edges of finalized
                // transactions are filtered out here, exactly like the
                // scoped inference excluding them.
                let live = self.live.lock();
                let inc = cert.incremental().expect("fed above");
                let must_wait = inc
                    .top_level_dependencies(ts, txn.txn)
                    .any(|pred| pred != txn.txn && live.contains(&pred));
                drop(live);
                if must_wait {
                    Self::publish_cert_round(shared, txn, before, cert.stats, true);
                    return Round::Wait;
                }
            }
            // certification scope: the committed set plus the candidate
            let component = cert.committed().len() + 1;
            let outcome = cert.try_commit(ts, history, txn.txn);
            let verdict = match &outcome {
                CommitOutcome::Committed => CertOutcome::Commit,
                CommitOutcome::MustWait { .. } => CertOutcome::Wait,
                CommitOutcome::MustAbort(_) => CertOutcome::Abort,
            };
            shared.trace.emit_txn(txn, || TraceEventKind::CertAttempt {
                component,
                outcome: verdict,
            });
            let round = match outcome {
                CommitOutcome::Committed => Round::Commit,
                CommitOutcome::MustWait { .. } => Round::Wait,
                CommitOutcome::MustAbort(_) if self.snapshot.is_some() => Round::Abort(Vec::new()),
                CommitOutcome::MustAbort(_) => {
                    // doom everyone who read our soon-compensated
                    // effects: live successors in the maintained edges
                    // (the candidate itself is finalized-aborted now,
                    // so the liveness filter skips it)
                    Round::Abort(cert.live_dependents(ts, txn.txn))
                }
            };
            Self::publish_cert_round(shared, txn, before, cert.stats, true);
            round
        });
        match round {
            Round::Commit => {
                if let Some(store) = &self.snapshot {
                    versions::on_commit(store, shared, txn);
                } else {
                    self.live.lock().remove(&txn.txn);
                }
                FinishOutcome::Committed
            }
            Round::Wait => FinishOutcome::Wait,
            Round::Abort(_) if self.snapshot.is_some() => FinishOutcome::Abort,
            Round::Abort(cascade) => {
                self.live.lock().remove(&txn.txn);
                shared
                    .metrics
                    .cascade_dooms
                    .fetch_add(cascade.len() as u64, Ordering::Relaxed);
                for d in &cascade {
                    shared
                        .trace
                        .emit_txn(txn, || TraceEventKind::CascadeDoom { victim: d.0 as u64 });
                }
                self.doomed.lock().extend(cascade);
                FinishOutcome::Abort
            }
        }
    }
}

impl Default for OptimisticCc {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrencyControl for OptimisticCc {
    fn name(&self) -> &'static str {
        self.name
    }

    fn before_op(&self, _shared: &EngineShared, txn: &TxnHandle, op: &EncOp) -> OpGrant {
        if let Some(store) = &self.snapshot {
            // snapshot mode: record the operation against the version
            // store (writes buffer, reads resolve in the snapshot);
            // cascades cannot doom anyone, so no doomed check
            store.note_op(txn.txn, op);
            return OpGrant::Granted;
        }
        // no locks — but abort promptly if a cascade doomed this attempt
        if self.doomed.lock().contains(&txn.txn) {
            OpGrant::AbortVictim
        } else {
            self.live.lock().insert(txn.txn);
            OpGrant::Granted
        }
    }

    fn try_finish(&self, shared: &EngineShared, txn: &TxnHandle) -> FinishOutcome {
        if self.snapshot.is_none() && self.doomed.lock().contains(&txn.txn) {
            return FinishOutcome::Abort;
        }
        if self.backend == CertBackend::Incremental {
            return self.try_finish_incremental(shared, txn);
        }
        let (ts, history) = shared.rec.snapshot();
        let mut cert = self.cert.lock();
        if self.snapshot.is_none() {
            // commit dependency: a *live managed* predecessor must
            // finalize first (it may still abort and compensate away
            // state the candidate built on). Scoped inference suffices:
            // an edge from a live predecessor never needs a third
            // transaction's actions to be derived. Snapshot mode skips
            // this entirely — nothing the candidate read can be
            // compensated away, because it only ever read committed
            // state.
            let live = self.live.lock();
            let mut scope: HashSet<TxnIdx> = live.iter().copied().collect();
            scope.insert(txn.txn);
            let restricted = restrict_history(&ts, &history, &scope);
            shared
                .metrics
                .cert_actions_inferred
                .fetch_add(restricted.len() as u64, Ordering::Relaxed);
            let ss = SystemSchedules::infer_scoped(&ts, &restricted, &scope);
            let top = ss.top_level_deps(&ts);
            let me = ts.top_level()[txn.txn.as_usize()];
            for (f, t) in top.edges() {
                if *t == me {
                    let pred = ts.action(*f).txn;
                    if pred != txn.txn && live.contains(&pred) {
                        return FinishOutcome::Wait;
                    }
                }
            }
        }
        // certification scope: the committed set plus the candidate
        let component = cert.committed().len() + 1;
        let before = cert.stats;
        let outcome = cert.try_commit(&ts, &history, txn.txn);
        Self::publish_cert_round(shared, txn, before, cert.stats, false);
        let verdict = match &outcome {
            CommitOutcome::Committed => CertOutcome::Commit,
            CommitOutcome::MustWait { .. } => CertOutcome::Wait,
            CommitOutcome::MustAbort(_) => CertOutcome::Abort,
        };
        shared.trace.emit_txn(txn, || TraceEventKind::CertAttempt {
            component,
            outcome: verdict,
        });
        match outcome {
            CommitOutcome::Committed => {
                drop(cert);
                if let Some(store) = &self.snapshot {
                    versions::on_commit(store, shared, txn);
                } else {
                    self.live.lock().remove(&txn.txn);
                }
                FinishOutcome::Committed
            }
            CommitOutcome::MustWait { .. } => FinishOutcome::Wait,
            CommitOutcome::MustAbort(_) => {
                if self.snapshot.is_some() {
                    // nobody saw the candidate's buffered writes — the
                    // worker compensates inside the same critical
                    // section and no cascade exists
                    return FinishOutcome::Abort;
                }
                // the certifier already moved us to the aborted set; doom
                // everyone who read our soon-compensated effects
                let cascade = Self::live_dependents(&cert, &ts, &history, txn.txn);
                drop(cert);
                self.live.lock().remove(&txn.txn);
                shared
                    .metrics
                    .cascade_dooms
                    .fetch_add(cascade.len() as u64, Ordering::Relaxed);
                for d in &cascade {
                    shared
                        .trace
                        .emit_txn(txn, || TraceEventKind::CascadeDoom { victim: d.0 as u64 });
                }
                self.doomed.lock().extend(cascade);
                FinishOutcome::Abort
            }
        }
    }

    fn after_commit(&self, _shared: &EngineShared, _txn: &TxnHandle) {}

    fn after_abort(&self, shared: &EngineShared, txn: &TxnHandle) {
        if let Some(store) = &self.snapshot {
            // nothing was published, so nothing can cascade; just
            // finalize the certifier bookkeeping and drop the buffered
            // writes (the attempt may have aborted before its commit
            // point: deadline, injected fault)
            let mut cert = self.cert.lock();
            if !cert.committed().contains(&txn.txn) && !cert.aborted().contains(&txn.txn) {
                cert.register_abort(txn.txn);
                Self::publish_retention(shared, &cert.stats);
            }
            drop(cert);
            versions::on_abort(store, shared, txn);
            return;
        }
        let cascade = if self.backend == CertBackend::Incremental {
            // victim abort against the live record: feed the delta,
            // read the cascade off the maintained edges (recorder →
            // certifier lock order, as everywhere incremental)
            shared.rec.with_record(|ts, history| {
                let mut cert = self.cert.lock();
                let before = cert.stats;
                let cascade =
                    if !cert.committed().contains(&txn.txn) && !cert.aborted().contains(&txn.txn) {
                        cert.abort(ts, history, txn.txn)
                    } else {
                        // validation failure: try_finish already doomed the
                        // cascade
                        Vec::new()
                    };
                Self::publish_cert_round(shared, txn, before, cert.stats, true);
                cascade
            })
        } else {
            let (ts, history) = shared.rec.snapshot();
            let mut cert = self.cert.lock();
            let before = cert.stats;
            let cascade =
                if !cert.committed().contains(&txn.txn) && !cert.aborted().contains(&txn.txn) {
                    // victim abort (doomed, deadline, wait-cycle break):
                    // register it with the certifier, which reports the
                    // direct dependents
                    cert.abort(&ts, &history, txn.txn)
                } else {
                    // validation failure: try_finish already doomed the cascade
                    Vec::new()
                };
            Self::publish_cert_round(shared, txn, before, cert.stats, false);
            cascade
        };
        self.live.lock().remove(&txn.txn);
        shared
            .metrics
            .cascade_dooms
            .fetch_add(cascade.len() as u64, Ordering::Relaxed);
        for d in &cascade {
            shared
                .trace
                .emit_txn(txn, || TraceEventKind::CascadeDoom { victim: d.0 as u64 });
        }
        let mut doomed = self.doomed.lock();
        doomed.remove(&txn.txn); // this attempt is finished for good
        doomed.extend(cascade);
    }

    fn route(&self, _op: &EncOp) -> ShardRoute {
        // one global certifier: every key routes to the only shard
        ShardRoute::One(0)
    }

    fn is_doomed(&self, txn: &TxnHandle) -> bool {
        self.snapshot.is_none() && self.doomed.lock().contains(&txn.txn)
    }

    fn buffers_writes(&self) -> bool {
        self.snapshot.is_some()
    }

    fn strict_compensation(&self) -> bool {
        // snapshot mode compensates inside the same critical section
        // that installed the writes, so an inverse can never fail
        self.snapshot.is_some()
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

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_core::commutativity::{ActionDescriptor, KeyedSpec, ReadWriteSpec};
    use oodb_core::ids::ActionIdx;
    use oodb_core::value::key;
    use std::sync::Arc;

    /// A 3-transaction dependency chain T1 → T2 → T3, where the T1 → T2
    /// pair is witnessed by **two** action pairs (so the raw edge list
    /// contains duplicates a set must collapse):
    /// T1 inserts K1 (writing page A); T2 searches K1 twice (two reads
    /// of page A) and inserts K2 (writing page B); T3 searches K2.
    fn chain3() -> (TransactionSystem, History) {
        let mut ts = TransactionSystem::new();
        let leaf = ts.add_object("Leaf", Arc::new(KeyedSpec::search_structure("leaf")));
        let pa = ts.add_object("PageA", Arc::new(ReadWriteSpec));
        let pb = ts.add_object("PageB", Arc::new(ReadWriteSpec));
        let rw = |m: &str| ActionDescriptor::nullary(m);

        let mut b = ts.txn("T1");
        b.call(leaf, ActionDescriptor::new("insert", vec![key("K1")]));
        let t1w = b.leaf(pa, rw("write"));
        b.end();
        b.finish();

        let mut b = ts.txn("T2");
        b.call(leaf, ActionDescriptor::new("search", vec![key("K1")]));
        let t2r1 = b.leaf(pa, rw("read"));
        b.end();
        b.call(leaf, ActionDescriptor::new("search", vec![key("K1")]));
        let t2r2 = b.leaf(pa, rw("read"));
        b.end();
        b.call(leaf, ActionDescriptor::new("insert", vec![key("K2")]));
        let t2w = b.leaf(pb, rw("write"));
        b.end();
        b.finish();

        let mut b = ts.txn("T3");
        b.call(leaf, ActionDescriptor::new("search", vec![key("K2")]));
        let t3r = b.leaf(pb, rw("read"));
        b.end();
        b.finish();

        let order: Vec<ActionIdx> = vec![t1w, t2r1, t2r2, t2w, t3r];
        let h = History::from_order(&ts, &order).unwrap();
        (ts, h)
    }

    #[test]
    fn cascade_set_on_three_txn_chain_is_exact_and_deduped() {
        let (ts, h) = chain3();
        let cert = Certifier::new(CertifierMode::Paper);
        // aborting T1 cascades to T2 exactly once (two witnessing edges,
        // one entry) and not to T3 (no direct dependency)
        let cascade = OptimisticCc::live_dependents(&cert, &ts, &h, TxnIdx(0));
        assert_eq!(cascade, vec![TxnIdx(1)]);
        // the doomed T2 then cascades to T3
        let cascade = OptimisticCc::live_dependents(&cert, &ts, &h, TxnIdx(1));
        assert_eq!(cascade, vec![TxnIdx(2)]);
        // T3 has no dependents
        assert!(OptimisticCc::live_dependents(&cert, &ts, &h, TxnIdx(2)).is_empty());
    }

    #[test]
    fn finalized_dependents_do_not_cascade() {
        let (ts, h) = chain3();
        let mut cert = Certifier::new(CertifierMode::Paper).with_wait_policy(WaitPolicy::Ignore);
        assert_eq!(
            cert.try_commit(&ts, &h, TxnIdx(1)),
            CommitOutcome::Committed
        );
        // T2 committed first: aborting T1 has nothing live to doom
        assert!(OptimisticCc::live_dependents(&cert, &ts, &h, TxnIdx(0)).is_empty());
    }

    #[test]
    fn snapshot_mode_flags() {
        let legacy = OptimisticCc::new();
        assert_eq!(legacy.name(), "optimistic");
        assert!(!legacy.buffers_writes());
        assert!(!legacy.strict_compensation());
        assert!(legacy.version_store().is_none());

        let mvcc = OptimisticCc::snapshot();
        assert_eq!(mvcc.name(), "mvcc");
        assert!(mvcc.buffers_writes());
        assert!(mvcc.strict_compensation());
        assert!(mvcc.version_store().is_some());
        assert_eq!(
            OptimisticCc::snapshot_with_mode(CertifierMode::Global).name(),
            "mvcc-global"
        );
    }
}
