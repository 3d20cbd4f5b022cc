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
//!
//! There is one certifier at every shard count. The paper decentralizes
//! by object (Definition 6), which the certifier's per-object schedules
//! already do, and the cut ([`oodb_core::retention`]) keeps what a commit
//! is checked against at a few transactions; a second scoping by hash
//! partition bought nothing measurable (EXPERIMENTS.md "After the
//! merge"). [`OptimisticCc::with_shards`] therefore only *accounts*:
//! each live attempt's shard footprint feeds the per-shard lanes and the
//! cross-shard counter of [`EngineMetrics`](crate::EngineMetrics).

use super::sharded::{route_keyed, FaultPlan};
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
use std::collections::{BTreeSet, HashMap, HashSet};
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
/// predecessors ([`FinishOutcome::Wait`]), and an abort dooms its
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
    /// their first operation, cleared at finalization), each with the
    /// shards its operations routed to. Commit dependencies wait only
    /// on *these*: a predecessor outside the concurrency control — a
    /// compensation transaction — is final by definition and can never
    /// abort underneath the candidate, so waiting on it would starve
    /// every retry that touches a compensated key. Snapshot execution on
    /// one shard needs neither the wait scope nor a footprint and
    /// registers nothing ([`Self::tracks_attempts`]).
    live: Mutex<HashMap<TxnIdx, BTreeSet<usize>>>,
    /// MVCC version bookkeeping; `Some` selects snapshot execution.
    snapshot: Option<VersionStore>,
    /// Lanes the key space is accounted over (1 = no lanes).
    shards: usize,
    mode: CertifierMode,
    /// How certification-time dependencies are derived: maintained
    /// incrementally across attempts (the default) or re-inferred from
    /// scratch every attempt (the differential oracle).
    backend: CertBackend,
    faults: FaultPlan,
    name: &'static str,
}

/// What one certification round decided.
enum Round {
    Commit,
    Wait,
    /// Validation failed; the live dependents to doom (none under
    /// snapshot execution).
    Abort(Vec<TxnIdx>),
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
            live: Mutex::new(HashMap::new()),
            snapshot: snapshot.then(VersionStore::new),
            shards: 1,
            mode,
            backend: CertBackend::default(),
            faults: FaultPlan::default(),
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

    /// Account operations and commits over `shards` hash partitions of
    /// the key space ([`shard_of_key`](super::shard_of_key)). Decisions
    /// do not depend on it (`tests/cert_differential.rs` compares the
    /// decision logs at 1 and 3 shards).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// The certification backend in use.
    pub fn certification(&self) -> CertBackend {
        self.backend
    }

    /// The MVCC version store (snapshot mode only).
    pub fn version_store(&self) -> Option<&VersionStore> {
        self.snapshot.as_ref()
    }

    /// Arm a mid-flight abort: attempt `attempt` of `job` aborts once
    /// `after_ops` of its operations have executed (test hook).
    pub fn inject_fault_after(&self, job: u64, attempt: u32, after_ops: usize) {
        self.faults.arm(job, attempt, after_ops);
    }

    /// Attempts begun but not finalized — zero once the engine drains,
    /// and with it no shard footprint is left behind.
    pub fn live_entries(&self) -> usize {
        self.live.lock().len()
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

    /// Whether attempts register in [`Self::live`]: in-place execution
    /// needs the wait scope, more than one shard needs the footprint.
    fn tracks_attempts(&self) -> bool {
        self.snapshot.is_none() || self.shards > 1
    }

    /// Run `f` against the record the backend certifies over: the live
    /// record under the recorder lock when only the delta is fed
    /// ([`oodb_model::Recorder::with_record`]), a snapshot when every
    /// round re-infers and would hold the recorder too long. Side
    /// effects that re-enter the recorder (version install,
    /// compensation) stay outside `f` — lock order is always recorder →
    /// certifier, never the inverse.
    fn with_record<R>(
        &self,
        shared: &EngineShared,
        f: impl FnOnce(&TransactionSystem, &History) -> R,
    ) -> R {
        match self.backend {
            CertBackend::Incremental => shared.rec.with_record(f),
            CertBackend::FromScratch => {
                let (ts, history) = shared.rec.snapshot();
                f(&ts, &history)
            }
        }
    }

    /// Top-level dependency edges over `scope`, inferred from scratch
    /// and charged to the certifier's cost counter. Scoped inference
    /// suffices for every edge between two members: no derivation rule
    /// needs a third transaction's actions.
    fn scoped_edges(
        cert: &mut Certifier,
        ts: &TransactionSystem,
        history: &History,
        scope: &HashSet<TxnIdx>,
    ) -> Vec<(TxnIdx, TxnIdx)> {
        let restricted = restrict_history(ts, history, scope);
        cert.stats.actions_inferred += restricted.len() as u64;
        let ss = SystemSchedules::infer_scoped(ts, &restricted, scope);
        let top = ss.top_level_deps(ts);
        top.edges()
            .map(|(f, t)| (ts.action(*f).txn, ts.action(*t).txn))
            .collect()
    }

    /// Commit dependency: a live *managed* attempt that precedes `me`, if
    /// any. It may still abort and compensate away state `me` built on.
    /// The incremental backend reads the maintained schedules — stale
    /// edges of finalized transactions are filtered out by liveness,
    /// exactly like the scoped inference excluding them.
    fn live_predecessor(
        &self,
        cert: &mut Certifier,
        ts: &TransactionSystem,
        history: &History,
        me: TxnIdx,
    ) -> Option<TxnIdx> {
        let live = self.live.lock();
        let blocks = |pred: &TxnIdx| *pred != me && live.contains_key(pred);
        match self.backend {
            CertBackend::Incremental => {
                let inc = cert.incremental().expect("fed by the caller");
                inc.top_level_dependencies(ts, me).find(blocks)
            }
            CertBackend::FromScratch => {
                let mut scope: HashSet<TxnIdx> = live.keys().copied().collect();
                scope.insert(me);
                Self::scoped_edges(cert, ts, history, &scope)
                    .into_iter()
                    .filter_map(|(pred, t)| (t == me).then_some(pred))
                    .find(blocks)
            }
        }
    }

    /// Live transactions that depend on `txn` (read its effects): the
    /// cascade set of an abort, inferred from scratch over `txn` plus
    /// the certifier-live transactions — only those can cascade — and
    /// deduplicated (the edge list has one entry per action pair, many
    /// per transaction pair).
    fn live_dependents(
        cert: &mut Certifier,
        ts: &TransactionSystem,
        history: &History,
        txn: TxnIdx,
    ) -> Vec<TxnIdx> {
        let mut scope: HashSet<TxnIdx> = (0..ts.top_level().len() as u32)
            .map(TxnIdx)
            .filter(|&t| cert.is_live(t))
            .collect();
        scope.insert(txn);
        let mut cascade = Vec::new();
        for (f, dep) in Self::scoped_edges(cert, ts, history, &scope) {
            if f == txn && dep != txn && cert.is_live(dep) && !cascade.contains(&dep) {
                cascade.push(dep);
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
    fn publish_retention(shared: &EngineShared, stats: &CertifierStats) {
        let m = &shared.metrics;
        m.cert_settled.store(stats.settled, Ordering::Relaxed);
        m.cert_retained_actions
            .store(stats.retained_actions, Ordering::Relaxed);
    }

    /// Publish one certification round's inference cost: the certifier
    /// stat deltas land in the engine counters, and incremental rounds
    /// that consumed anything additionally emit a `cert_delta` event
    /// (the from-scratch oracle has no delta to speak of — its cost is
    /// the full restricted history).
    fn publish_cert_round(
        &self,
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
        if self.backend == CertBackend::Incremental && (fed > 0 || reseeds > 0) {
            shared.trace.emit_txn(txn, || TraceEventKind::CertDelta {
                fed,
                reseeded: reseeds > 0,
            });
        }
    }

    /// One certification round of `txn` over the record `with_record`
    /// hands in: feed the delta (a no-op under from-scratch), check the
    /// commit dependencies (in-place only), validate.
    fn certify(
        &self,
        shared: &EngineShared,
        txn: &TxnHandle,
        ts: &TransactionSystem,
        history: &History,
    ) -> Round {
        let me = txn.txn;
        let mut cert = self.cert.lock();
        let before = cert.stats;
        cert.feed_record(ts, history);
        // what the check can reach: the transactions still retained
        // after the feed, plus the candidate
        let component = cert.retained_txns() + 1;
        let wait_on = match self.snapshot {
            None => self.live_predecessor(&mut cert, ts, history, me),
            Some(_) => None,
        };
        let outcome = match wait_on {
            Some(on) => {
                cert.stats.waits += 1;
                CommitOutcome::MustWait { on }
            }
            None => cert.try_commit(ts, history, me),
        };
        let (verdict, round) = match outcome {
            CommitOutcome::MustWait { .. } => (CertOutcome::Wait, Round::Wait),
            CommitOutcome::Committed => (CertOutcome::Commit, Round::Commit),
            // nobody saw a snapshot candidate's buffered writes; in place,
            // doom everyone who read our soon-compensated effects (the
            // certifier already moved the candidate to the aborted set,
            // so the liveness filter skips it)
            CommitOutcome::MustAbort(_) => (
                CertOutcome::Abort,
                Round::Abort(match (&self.snapshot, self.backend) {
                    (Some(_), _) => Vec::new(),
                    (None, CertBackend::Incremental) => cert.live_dependents(ts, me),
                    (None, CertBackend::FromScratch) => {
                        Self::live_dependents(&mut cert, ts, history, me)
                    }
                }),
            ),
        };
        shared.trace.emit_txn(txn, || TraceEventKind::CertAttempt {
            component,
            outcome: verdict,
        });
        self.publish_cert_round(shared, txn, before, cert.stats);
        round
    }

    /// `txn` left the live set; a commit is accounted on every lane of
    /// its footprint.
    fn finalize(&self, shared: &EngineShared, txn: TxnIdx, committed: bool) {
        if !self.tracks_attempts() {
            return;
        }
        let footprint = self.live.lock().remove(&txn).unwrap_or_default();
        if committed {
            for &s in &footprint {
                shared.metrics.shard_commit(s);
            }
            if footprint.len() > 1 {
                shared.metrics.cross_shard_inc();
            }
        }
    }

    /// Doom the live dependents of the aborting `txn`.
    fn doom(&self, shared: &EngineShared, txn: &TxnHandle, cascade: Vec<TxnIdx>) {
        if cascade.is_empty() {
            return;
        }
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

    fn before_op(&self, shared: &EngineShared, txn: &TxnHandle, op: &EncOp) -> OpGrant {
        if let Some(store) = &self.snapshot {
            // snapshot mode: record the operation against the version
            // store (writes buffer, reads resolve in the snapshot);
            // cascades cannot doom anyone, so no doomed check
            store.note_op(txn.txn, op);
        } else if self.doomed.lock().contains(&txn.txn) {
            // no locks — but abort promptly if a cascade doomed this attempt
            return OpGrant::AbortVictim;
        }
        if self.tracks_attempts() {
            let mut live = self.live.lock();
            let footprint = live.entry(txn.txn).or_default();
            if self.shards > 1 {
                let mut note = |s: usize| {
                    footprint.insert(s);
                    shared.metrics.shard_op(s);
                };
                match route_keyed(op, self.shards) {
                    ShardRoute::One(s) => note(s),
                    ShardRoute::All => (0..self.shards).for_each(note),
                }
            }
        }
        OpGrant::Granted
    }

    fn try_finish(&self, shared: &EngineShared, txn: &TxnHandle) -> FinishOutcome {
        if self.snapshot.is_none() && self.doomed.lock().contains(&txn.txn) {
            return FinishOutcome::Abort;
        }
        let round = self.with_record(shared, |ts, history| self.certify(shared, txn, ts, history));
        match round {
            Round::Commit => {
                self.finalize(shared, txn.txn, true);
                if let Some(store) = &self.snapshot {
                    versions::on_commit(store, shared, txn);
                }
                FinishOutcome::Committed
            }
            Round::Wait => FinishOutcome::Wait,
            Round::Abort(cascade) => {
                self.doom(shared, txn, cascade);
                self.finalize(shared, txn.txn, false);
                FinishOutcome::Abort
            }
        }
    }

    fn after_commit(&self, _shared: &EngineShared, _txn: &TxnHandle) {}

    fn after_abort(&self, shared: &EngineShared, txn: &TxnHandle) {
        let me = txn.txn;
        if let Some(store) = &self.snapshot {
            // nothing was published, so nothing can cascade; just
            // finalize the certifier bookkeeping and drop the buffered
            // writes (the attempt may have aborted before its commit
            // point: deadline, injected fault)
            let mut cert = self.cert.lock();
            if cert.is_live(me) {
                cert.register_abort(me);
                Self::publish_retention(shared, &cert.stats);
            }
            drop(cert);
            versions::on_abort(store, shared, txn);
            self.finalize(shared, me, false);
            return;
        }
        let cascade = self.with_record(shared, |ts, history| {
            let mut cert = self.cert.lock();
            let before = cert.stats;
            let cascade = if cert.is_live(me) {
                // victim abort (doomed, deadline, wait-cycle break,
                // injected fault): register it with the certifier, which
                // reports the direct dependents
                cert.abort(ts, history, me)
            } else {
                // validation failure: try_finish already doomed the cascade
                Vec::new()
            };
            self.publish_cert_round(shared, txn, before, cert.stats);
            cascade
        });
        // doom before leaving the live set: a dependent at its commit
        // point keeps waiting on `me` until it can see its own doom
        self.doom(shared, txn, cascade);
        self.finalize(shared, me, false);
        self.doomed.lock().remove(&me); // this attempt is finished for good
    }

    fn shards(&self) -> usize {
        self.shards
    }

    fn route(&self, op: &EncOp) -> ShardRoute {
        if self.shards == 1 {
            ShardRoute::One(0)
        } else {
            route_keyed(op, self.shards)
        }
    }

    fn inject_abort(&self, txn: &TxnHandle, ops_done: usize) -> bool {
        self.faults.fires(txn, ops_done)
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
        let mut cert = Certifier::new(CertifierMode::Paper);
        // aborting T1 cascades to T2 exactly once (two witnessing edges,
        // one entry) and not to T3 (no direct dependency)
        let cascade = OptimisticCc::live_dependents(&mut cert, &ts, &h, TxnIdx(0));
        assert_eq!(cascade, vec![TxnIdx(1)]);
        // the doomed T2 then cascades to T3
        let cascade = OptimisticCc::live_dependents(&mut cert, &ts, &h, TxnIdx(1));
        assert_eq!(cascade, vec![TxnIdx(2)]);
        // T3 has no dependents
        assert!(OptimisticCc::live_dependents(&mut cert, &ts, &h, TxnIdx(2)).is_empty());
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
        assert!(OptimisticCc::live_dependents(&mut cert, &ts, &h, TxnIdx(0)).is_empty());
    }

    #[test]
    fn shards_route_by_the_key_hash_and_one_shard_routes_to_zero() {
        let cc = OptimisticCc::snapshot().with_shards(4);
        assert_eq!(cc.shards(), 4);
        let alpha = EncOp::Insert("alpha".into());
        assert_eq!(
            cc.route(&alpha),
            ShardRoute::One(crate::shard_of_key("alpha", 4))
        );
        assert_eq!(cc.route(&EncOp::ReadSeq), ShardRoute::All);
        let one = OptimisticCc::snapshot();
        assert_eq!(one.shards(), 1);
        assert_eq!(one.route(&alpha), ShardRoute::One(0));
        assert_eq!(one.route(&EncOp::ReadSeq), ShardRoute::One(0));
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
