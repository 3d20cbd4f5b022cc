//! Sharded concurrency control: partition the key space across `N`
//! independent shards so independent keys stop contending on one global
//! lock/certifier structure — the decentralization the paper argues for
//! (each object keeps its own schedule; Definition 6) applied to the
//! engine's bookkeeping.
//!
//! Routing is `shard(key) = fnv1a(key) % N` ([`shard_of_key`]). Keyed
//! operations touch exactly one shard; container-wide scans (`readSeq`,
//! `rangeScan`) and the page-granularity ablation route to **all** shards
//! (hash partitioning scatters intervals, and whole-container modes
//! cannot be partitioned at all — the sharding win is specific to
//! semantic, key-discriminated modes).
//!
//! Soundness rests on one fact about the paper's dependency machinery:
//! a transaction-level dependency only ever arises from *conflicting*
//! operations (Definition 10 lifts dependencies through conflicting
//! callers only), and under the encyclopedia's commutativity spec two
//! operations conflict only when they share a key or one of them is a
//! container-wide scan. Either way the two transactions share at least
//! one shard, so **every dependency edge is witnessed by a common
//! shard**:
//!
//! * [`ShardedPessimisticCc`] — per-shard [`LockManager`]s; a
//!   cross-shard transaction acquires its shard guards in canonical
//!   (ascending) order and cross-shard deadlocks — which no single
//!   shard can see — are prevented by wound-wait on submission age:
//!   an older job's blocked request dooms any younger holder, so
//!   persistent waits only ever point from younger to older and can
//!   never close a cycle.
//! * [`ShardedOptimisticCc`] — per-shard committed sets; validation
//!   restricts the record to the candidate's *shard-connected component*
//!   of committed transactions (a cycle through the candidate lies
//!   entirely inside its component, because every edge shares a shard),
//!   so disjoint-key transactions validate against tiny histories
//!   instead of re-inferring the whole record.
//!
//! The merged post-run audit needs no extra machinery: the pessimistic
//! variant keeps the full record auditable (strict 2PL per shard), and
//! the optimistic variant stitches its per-shard commit decisions back
//! into one committed projection via
//! [`committed_projection`](ConcurrencyControl::committed_projection).

use super::pessimistic::{emit_conflicts, is_writer_method};
use super::{
    ConcurrencyControl, EngineShared, FinishOutcome, OpGrant, OptimisticCc, PessimisticCc,
    ShardRoute, TxnHandle,
};
use crate::cc::versions::{self, VersionStore};
use crate::trace::{CertOutcome, TraceEventKind};
use oodb_core::certifier::{restrict_history, CertBackend, CertifierMode, CertifierStats};
use oodb_core::commutativity::ActionDescriptor;
use oodb_core::history::History;
use oodb_core::ids::TxnIdx;
use oodb_core::incremental::IncrementalFeed;
use oodb_core::retention::Retention;
use oodb_core::schedule::SystemSchedules;
use oodb_core::serializability::{
    check_candidate_decentralized, check_candidate_global, check_system_decentralized,
    check_system_global,
};
use oodb_core::system::TransactionSystem;
use oodb_lock::{LockManager, LockOutcome, OwnerId};
use oodb_sim::exec::{enc_lock_manager, op_descriptor, page_descriptor, ENC_RESOURCE};
use oodb_sim::EncOp;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Stable FNV-1a hash of `key`, reduced mod `shards`. Hand-rolled so the
/// key→shard map is reproducible across runs and platforms (no
/// `RandomState`).
pub fn shard_of_key(key: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// The shard footprint of `op` under key-hash partitioning: keyed
/// operations land on one shard; sequential *and range* scans span all
/// of them (hash partitioning scatters the interval `[lo, hi]` across
/// every shard, so a range's conflicts can surface anywhere).
fn route_keyed(op: &EncOp, shards: usize) -> ShardRoute {
    match op {
        EncOp::Insert(k) | EncOp::Search(k) | EncOp::Change(k) | EncOp::Delete(k) => {
            ShardRoute::One(shard_of_key(k, shards))
        }
        EncOp::ReadSeq | EncOp::Range(..) => ShardRoute::All,
    }
}

/// The ascending shard list of a route — the canonical acquisition order
/// for cross-shard operations.
fn route_targets(route: ShardRoute, shards: usize) -> Vec<usize> {
    match route {
        ShardRoute::One(s) => vec![s],
        ShardRoute::All => (0..shards).collect(),
    }
}

/// Armed mid-flight aborts for the
/// [`inject_abort`](ConcurrencyControl::inject_abort) hook:
/// `(job, attempt) → abort once this many ops have executed`.
#[derive(Default)]
struct FaultPlan {
    armed: Mutex<HashMap<(u64, u32), usize>>,
}

impl FaultPlan {
    fn arm(&self, job: u64, attempt: u32, after_ops: usize) {
        self.armed.lock().insert((job, attempt), after_ops);
    }

    fn fires(&self, txn: &TxnHandle, ops_done: usize) -> bool {
        let mut armed = self.armed.lock();
        match armed.get(&(txn.job, txn.attempt)) {
            Some(&n) if ops_done >= n => {
                armed.remove(&(txn.job, txn.attempt));
                true
            }
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------
// Sharded pessimistic
// ---------------------------------------------------------------------

struct LockShard {
    mgr: Mutex<LockManager>,
    released: Condvar,
}

/// Semantic strict 2PL over `N` per-shard lock managers.
///
/// Each keyed operation locks only its key's shard; scans lock every
/// shard in ascending order. Because conflicting descriptors always meet
/// on at least one common shard (same key → same shard; scans → all
/// shards), per-shard conflict enforcement is exactly as strong as the
/// single-manager protocol — only *independent* keys stop serializing on
/// one mutex.
///
/// Deadlock handling is **wound-wait on submission age**: when a blocked
/// request finds a holder whose job id is larger (a younger submission),
/// it dooms that holder, which aborts at its next opportunity and
/// releases. Persistent wait edges therefore only point from younger to
/// older jobs and can never form a cycle — across any number of shards,
/// which is what a per-shard detector could not guarantee. Job ids are
/// stable across retries, so the oldest live job always progresses and
/// every job eventually becomes the oldest; wounding by attempt-local
/// owner id would instead hand a retried transaction an ever-larger id
/// and starve it into retry exhaustion. A wounded job additionally
/// *defers* its retry until the wounder has released: without that, the
/// retry's fresh acquisitions race the wounder's (condvar-parked, hence
/// slower) wakeup, re-form the identical conflict, and the pair livelocks
/// — observed as alternating victim aborts under CPU oversubscription.
pub struct ShardedPessimisticCc {
    shards: Vec<LockShard>,
    /// Job id of each live attempt's lock owner — the submission age
    /// wound-wait compares (smaller job = older = wins).
    jobs: Mutex<HashMap<OwnerId, u64>>,
    /// Attempts wounded by an older blocked request; they abort at their
    /// next gate (op boundary or blocked-wait round). An entry may race
    /// with the holder's commit — then the commit wins and simply
    /// releases, which serves the wounder just as well.
    doomed: Mutex<HashSet<OwnerId>>,
    /// `job → owner of the wounder`: consumed at the wounded job's next
    /// attempt, which defers until the wounder released (anti-barging).
    wounded_by: Mutex<HashMap<u64, OwnerId>>,
    /// Owners currently parked in [`Self::acquire_on`] (observability).
    blocked: Mutex<HashSet<OwnerId>>,
    /// Shards each live owner has acquired (or started acquiring) on —
    /// the release/compensation footprint.
    touched: Mutex<HashMap<OwnerId, BTreeSet<usize>>>,
    descriptor: fn(&EncOp) -> ActionDescriptor,
    /// Page granularity: every op is a whole-container mode → all shards.
    route_all: bool,
    faults: FaultPlan,
    name: &'static str,
}

impl ShardedPessimisticCc {
    /// Semantic locking across `shards` partitions.
    pub fn semantic(shards: usize) -> Self {
        Self::build(shards, op_descriptor, false, "sharded-pessimistic")
    }

    /// Page-granularity ablation across `shards` partitions. Every
    /// operation routes to all shards — sharding buys nothing here,
    /// which is the point of the ablation: only semantic,
    /// key-discriminated modes decentralize.
    pub fn page_level(shards: usize) -> Self {
        Self::build(shards, page_descriptor, true, "sharded-pessimistic-page")
    }

    fn build(
        shards: usize,
        descriptor: fn(&EncOp) -> ActionDescriptor,
        route_all: bool,
        name: &'static str,
    ) -> Self {
        let n = shards.max(1);
        ShardedPessimisticCc {
            shards: (0..n)
                .map(|_| LockShard {
                    mgr: Mutex::new(enc_lock_manager()),
                    released: Condvar::new(),
                })
                .collect(),
            jobs: Mutex::new(HashMap::new()),
            doomed: Mutex::new(HashSet::new()),
            wounded_by: Mutex::new(HashMap::new()),
            blocked: Mutex::new(HashSet::new()),
            touched: Mutex::new(HashMap::new()),
            descriptor,
            route_all,
            faults: FaultPlan::default(),
            name,
        }
    }

    /// Arm a mid-flight abort: attempt `attempt` of `job` aborts once
    /// `after_ops` of its operations have executed (test hook).
    pub fn inject_fault_after(&self, job: u64, attempt: u32, after_ops: usize) {
        self.faults.arm(job, attempt, after_ops);
    }

    /// Grants still held per shard — zero everywhere once all
    /// transactions finalized (no orphaned locks).
    pub fn residual_grants(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.mgr.lock().total_grants())
            .collect()
    }

    /// Owners with a recorded shard footprint (live transactions).
    pub fn tracked_owners(&self) -> usize {
        self.touched.lock().len()
    }

    /// Owners currently parked waiting for a shard grant.
    pub fn waiting_owners(&self) -> usize {
        self.blocked.lock().len()
    }

    /// Wound-wait: doom every conflicting holder whose job is *younger*
    /// (larger job id) than the blocked `job`, and leave the wounder's
    /// owner behind so the wounded job's retry can defer until this
    /// owner has released. Holders older than `job` are simply waited
    /// on — they are live (strict 2PL holders never park forever; any
    /// holder blocking *them* is younger and gets wounded in turn), so
    /// the wait resolves.
    fn wound(&self, shared: &EngineShared, txn: &TxnHandle, holders: &[OwnerId]) {
        let jobs = self.jobs.lock();
        let mut doomed = self.doomed.lock();
        let mut wounded = self.wounded_by.lock();
        for &h in holders {
            if let Some(&hjob) = jobs.get(&h) {
                if hjob > txn.job && doomed.insert(h) {
                    wounded.insert(hjob, txn.owner);
                    shared.trace.emit_txn(txn, || TraceEventKind::WoundIssued {
                        victim_job: hjob,
                        victim: h.0,
                    });
                }
            }
        }
    }

    /// Block until the lock is granted on shard `s`; `false` means this
    /// attempt was wounded by an older job and must abort. Each blocked
    /// round wounds younger holders and re-checks its own doom — a
    /// parked holder must notice being wounded without waiting for its
    /// next operation.
    fn acquire_on(
        &self,
        shared: &EngineShared,
        s: usize,
        txn: &TxnHandle,
        descriptor: &ActionDescriptor,
    ) -> bool {
        let owner = txn.owner;
        let shard = &self.shards[s];
        let mut mgr = shard.mgr.lock();
        let mut parked = false;
        loop {
            if self.doomed.lock().contains(&owner) {
                mgr.clear_waiting(owner);
                if parked {
                    self.blocked.lock().remove(&owner);
                }
                shared
                    .trace
                    .emit_txn(txn, || TraceEventKind::WoundReceived {
                        by: self
                            .wounded_by
                            .lock()
                            .get(&txn.job)
                            .map(|o| o.0)
                            .unwrap_or(0),
                    });
                return false;
            }
            match mgr.acquire(owner, &[], ENC_RESOURCE, descriptor) {
                LockOutcome::Granted => {
                    if parked {
                        self.blocked.lock().remove(&owner);
                    }
                    shared.metrics.shard_op(s);
                    // page-conflicting but semantically commuting
                    // coexisters: inheritance stopped (Definition 11)
                    if shared.trace.enabled() && !self.route_all {
                        let coexisting: Vec<OwnerId> = mgr
                            .grants_on(ENC_RESOURCE)
                            .iter()
                            .filter(|(o, d)| {
                                *o != owner
                                    && (is_writer_method(&descriptor.method)
                                        || is_writer_method(&d.method))
                            })
                            .map(|(o, _)| *o)
                            .collect();
                        emit_conflicts(shared, txn, &mgr, descriptor, &coexisting, false);
                    }
                    return true;
                }
                LockOutcome::Blocked { holders } => {
                    shared.metrics.shard_block(s);
                    if !parked {
                        parked = true;
                        self.blocked.lock().insert(owner);
                        // the blocking holders do not commute with us:
                        // inherited dependencies (Definition 11)
                        emit_conflicts(shared, txn, &mgr, descriptor, &holders, true);
                    }
                    self.wound(shared, txn, &holders);
                    shard.released.wait_for(&mut mgr, Duration::from_millis(1));
                }
            }
        }
    }

    /// How long a wounded job's next attempt polls for its wounder to
    /// release before proceeding anyway (deferral is an anti-barging
    /// heuristic, not a correctness requirement — a cap keeps liveness
    /// even if the wounder is itself long-blocked).
    const DEFER_POLL: Duration = Duration::from_micros(500);
    const DEFER_ROUNDS: u32 = 400; // ≈200ms cap

    /// First gate of a fresh attempt: if the previous attempt was
    /// wounded, wait for the wounder to release its grants before
    /// acquiring anything. The retry holds no locks here, so the wait
    /// cannot deadlock; without it the retry barges past the parked
    /// wounder (condvar wakeup loses the race to a fresh acquire) and
    /// re-forms the same conflict indefinitely.
    fn defer_if_wounded(&self, job: u64) {
        let Some(wounder) = self.wounded_by.lock().remove(&job) else {
            return;
        };
        for _ in 0..Self::DEFER_ROUNDS {
            if !self.touched.lock().contains_key(&wounder) {
                return;
            }
            std::thread::sleep(Self::DEFER_POLL);
        }
    }

    fn release(&self, owner: OwnerId) {
        let footprint = self.touched.lock().remove(&owner).unwrap_or_default();
        for s in footprint {
            let mut mgr = self.shards[s].mgr.lock();
            mgr.release_all(owner);
            drop(mgr);
            self.shards[s].released.notify_all();
        }
        self.jobs.lock().remove(&owner);
        self.doomed.lock().remove(&owner);
        self.blocked.lock().remove(&owner);
    }
}

impl ConcurrencyControl for ShardedPessimisticCc {
    fn name(&self) -> &'static str {
        self.name
    }

    fn before_op(&self, shared: &EngineShared, txn: &TxnHandle, op: &EncOp) -> OpGrant {
        if !self.touched.lock().contains_key(&txn.owner) {
            // first operation of this attempt: nothing held yet, so a
            // wounded job can safely wait out its wounder here
            self.defer_if_wounded(txn.job);
            self.jobs.lock().insert(txn.owner, txn.job);
        }
        let targets = route_targets(self.route(op), self.shards.len());
        // record the footprint BEFORE acquiring, so a victim abort
        // mid-acquisition still releases the shards already granted
        self.touched
            .lock()
            .entry(txn.owner)
            .or_default()
            .extend(targets.iter().copied());
        let descriptor = (self.descriptor)(op);
        for s in targets {
            if !self.acquire_on(shared, s, txn, &descriptor) {
                return OpGrant::AbortVictim;
            }
        }
        OpGrant::Granted
    }

    fn try_finish(&self, shared: &EngineShared, txn: &TxnHandle) -> FinishOutcome {
        // strict 2PL: reaching the commit point with all shard locks
        // held IS the commit ticket
        let footprint = self
            .touched
            .lock()
            .get(&txn.owner)
            .map(BTreeSet::len)
            .unwrap_or(0);
        if footprint > 1 {
            shared.metrics.cross_shard_inc();
        }
        FinishOutcome::Committed
    }

    fn after_commit(&self, shared: &EngineShared, txn: &TxnHandle) {
        if let Some(fp) = self.touched.lock().get(&txn.owner) {
            for &s in fp {
                shared.metrics.shard_commit(s);
            }
        }
        self.release(txn.owner);
        // a wound that raced with this commit must not defer the job —
        // it is finished, and its release already served the wounder
        self.wounded_by.lock().remove(&txn.job);
    }

    fn after_abort(&self, _shared: &EngineShared, txn: &TxnHandle) {
        // locks were still held while the worker compensated — release
        // on every shard the attempt touched, even partially acquired
        self.release(txn.owner);
    }

    fn shards(&self) -> usize {
        self.shards.len()
    }

    fn is_doomed(&self, txn: &TxnHandle) -> bool {
        self.doomed.lock().contains(&txn.owner)
    }

    fn route(&self, op: &EncOp) -> ShardRoute {
        if self.route_all {
            ShardRoute::All
        } else {
            route_keyed(op, self.shards.len())
        }
    }

    fn inject_abort(&self, txn: &TxnHandle, ops_done: usize) -> bool {
        self.faults.fires(txn, ops_done)
    }

    fn strict_compensation(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// Sharded optimistic
// ---------------------------------------------------------------------

/// How many optimistic validation rounds run without holding the
/// metadata lock before falling back to a held-lock (stop-the-world)
/// round, bounding revalidation livelock under heavy contention.
const OPTIMISTIC_ROUNDS: u32 = 3;

#[derive(Default)]
struct OptMeta {
    committed: HashSet<TxnIdx>,
    aborted: HashSet<TxnIdx>,
    doomed: HashSet<TxnIdx>,
    /// Attempts begun and not yet finalized.
    live: HashSet<TxnIdx>,
    /// Shard footprint per transaction; kept for committed transactions
    /// (component computation), dropped on abort.
    touched: HashMap<TxnIdx, BTreeSet<usize>>,
    /// Committed transactions the cut dropped ([`OptMeta::settle`]): no
    /// retained, live or future transaction can acquire an edge *into*
    /// them, so they are pruned from every future validation scope.
    /// Without this the preload transaction — which touches every shard —
    /// would connect every component, and under pipelined load the
    /// components would grow to the whole committed set.
    settled: HashSet<TxnIdx>,
    /// Per-shard commit epochs, bumped when a commit lands on the shard;
    /// lets lock-free validation detect that its scope went stale.
    epochs: Vec<u64>,
    /// Live incremental schedules over the whole record (incremental
    /// backend only; stays empty under from-scratch). One feed serves
    /// every shard — queries filter the maintained edges down to the
    /// component / wait scope at hand, which is sound because every
    /// dependency edge derives exclusively from its two endpoints'
    /// actions. Aborted and settled transactions are excluded so the
    /// next garbage-triggered reseed prunes their state.
    feed: IncrementalFeed,
    /// From-scratch backend only: where each transaction lies in the
    /// record, so the oracle settles by the same cut as the feed (which
    /// keeps its own positions and stays empty there).
    positions: Retention,
    stats: CertifierStats,
    /// Validation rounds repeated because a concurrent commit landed on
    /// a scope shard mid-validation.
    revalidations: u64,
}

impl OptMeta {
    /// Finalize a live attempt. An abort additionally leaves the
    /// incremental feed — the aborted transaction is out of every future
    /// scope, so its actions stop feeding and its already-fed edges
    /// become reseed garbage.
    fn note_finalized(
        &mut self,
        shared: &EngineShared,
        backend: CertBackend,
        me: TxnIdx,
        committed_now: bool,
    ) {
        self.live.remove(&me);
        if !committed_now {
            self.exclude(me);
        }
        self.settle(shared, backend);
    }

    /// Stop tracking `txn` (aborted, or recorded outside the protocol).
    fn exclude(&mut self, txn: TxnIdx) {
        self.feed.exclude(txn);
        self.positions.exclude(txn);
    }

    /// Apply the cut (`oodb_core::retention`) over the positions the
    /// backend in use keeps, move what it drops into the settled set and
    /// publish the new retention level — here, so that a cut outside a
    /// certification round (an abort before the commit point, a retired
    /// compensation) is counted like one inside.
    fn settle(&mut self, shared: &EngineShared, backend: CertBackend) {
        let committed = &self.committed;
        let is_committed = |t: TxnIdx| committed.contains(&t);
        let (dropped, retained) = match backend {
            CertBackend::Incremental => (self.feed.cut(is_committed), self.feed.retained_actions()),
            CertBackend::FromScratch => {
                (self.positions.cut(is_committed), self.positions.actions())
            }
        };
        self.stats.settled += dropped.len() as u64;
        self.stats.retained_actions = retained as u64;
        self.settled.extend(dropped);
        OptimisticCc::publish_retention(shared, &self.stats);
    }

    /// Fold the actions recorded since the last round into the
    /// maintained schedules, charging the cost to `stats`.
    fn feed_record(&mut self, ts: &TransactionSystem, history: &History) {
        let out = self
            .feed
            .feed_admitted(ts, history, |t| self.committed.contains(&t));
        self.stats.charge_feed(out);
        self.stats.retained_actions = self.feed.retained_actions() as u64;
    }

    /// Live transactions with a top-level dependency on `me` in the
    /// maintained schedules: the cascade set of aborting `me`.
    fn live_dependents(&self, ts: &TransactionSystem, me: TxnIdx) -> Vec<TxnIdx> {
        self.feed
            .schedules()
            .top_level_dependents(ts, me)
            .filter(|d| *d != me && self.live.contains(d))
            .collect()
    }
}

/// The frozen inputs of one validation round, extracted under the
/// metadata lock and consumed outside it.
struct ValidationPlan {
    my_shards: BTreeSet<usize>,
    /// Non-settled transactions sharing a shard with the candidate
    /// (plus the candidate): scope of the commit-dependency wait check.
    wait_scope: HashSet<TxnIdx>,
    /// Members of `wait_scope` that were live at plan time.
    live_sharers: HashSet<TxnIdx>,
    /// The candidate's shard-connected component over committed
    /// non-settled transactions ∪ {candidate}: the validation scope.
    component: HashSet<TxnIdx>,
    /// `epochs[s]` at plan time for every shard in the union of the
    /// component members' footprints — a commit landing on any of them
    /// invalidates this plan.
    epoch_snapshot: Vec<(usize, u64)>,
}

/// Optimistic certification over `N` per-shard committed sets.
///
/// Execution is uncontrolled (as in [`OptimisticCc`]); at commit the
/// candidate validates Definition 16 against the record restricted to
/// its **shard-connected component** of committed transactions: the
/// transitive closure of "shares a shard" over committed transactions
/// reachable from the candidate. Every dependency edge is witnessed by a
/// shared shard, so any cycle through the candidate lies inside its
/// component — the last committer of a cycle always sees the whole
/// cycle. Committed transactions the cut drops are *settled*
/// (`OptMeta::settle`, the rule of `oodb_core::retention` that the
/// single [`Certifier`](oodb_core::certifier::Certifier) applies too)
/// and pruned from all future scopes — no retained, live or future
/// transaction can acquire an edge into them — which keeps components at
/// O(concurrent transactions) instead of O(everything ever committed).
///
/// Validation runs outside the metadata lock; per-shard commit epochs
/// detect a stale scope, and after `OPTIMISTIC_ROUNDS` retries the
/// final round holds the lock (progress is guaranteed).
pub struct ShardedOptimisticCc {
    meta: Mutex<OptMeta>,
    n: usize,
    mode: CertifierMode,
    /// How certification-time dependencies are derived: maintained
    /// incrementally across attempts (the default) or re-inferred from
    /// scratch every attempt (the differential oracle).
    backend: CertBackend,
    faults: FaultPlan,
    /// `Some` runs MVCC snapshot execution: writes buffer in the worker
    /// and install at commit, so commit-dependency waits and cascading
    /// aborts vanish (nobody ever reads uncommitted state).
    snapshot: Option<VersionStore>,
    name: &'static str,
}

impl ShardedOptimisticCc {
    /// Certify against the paper's decentralized Definition 16 across
    /// `shards` partitions (legacy in-place execution).
    pub fn new(shards: usize) -> Self {
        Self::with_mode(shards, CertifierMode::Paper)
    }

    /// Certify against the chosen serializability check (legacy
    /// in-place execution).
    pub fn with_mode(shards: usize, mode: CertifierMode) -> Self {
        Self::build(shards, mode, false)
    }

    /// MVCC snapshot execution with the paper's decentralized check.
    pub fn snapshot(shards: usize) -> Self {
        Self::snapshot_with_mode(shards, CertifierMode::Paper)
    }

    /// MVCC snapshot execution with the chosen serializability check.
    pub fn snapshot_with_mode(shards: usize, mode: CertifierMode) -> Self {
        Self::build(shards, mode, true)
    }

    fn build(shards: usize, mode: CertifierMode, snapshot: bool) -> Self {
        let n = shards.max(1);
        ShardedOptimisticCc {
            meta: Mutex::new(OptMeta {
                epochs: vec![0; n],
                ..OptMeta::default()
            }),
            n,
            mode,
            backend: CertBackend::default(),
            faults: FaultPlan::default(),
            snapshot: snapshot.then(VersionStore::new),
            name: match (snapshot, mode) {
                (false, CertifierMode::Paper) => "sharded-optimistic",
                (false, CertifierMode::Global) => "sharded-optimistic-global",
                (true, CertifierMode::Paper) => "sharded-mvcc",
                (true, CertifierMode::Global) => "sharded-mvcc-global",
            },
        }
    }

    /// Select the certification backend ([`CertBackend::Incremental`]
    /// is the default; [`CertBackend::FromScratch`] re-infers every
    /// attempt and serves as the differential oracle — see
    /// `tests/cert_differential.rs`). The incremental backend replaces
    /// the lock-free revalidation rounds with a single round under the
    /// metadata lock: the round consumes only the recorder delta, so
    /// holding the lock costs O(new actions), not O(component).
    pub fn with_certification(mut self, backend: CertBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The certification backend in use.
    pub fn certification(&self) -> CertBackend {
        self.backend
    }

    /// True when this instance runs MVCC snapshot execution.
    pub fn is_snapshot(&self) -> bool {
        self.snapshot.is_some()
    }

    /// The version store backing snapshot execution, when enabled.
    pub fn version_store(&self) -> Option<&VersionStore> {
        self.snapshot.as_ref()
    }

    /// Arm a mid-flight abort: attempt `attempt` of `job` aborts once
    /// `after_ops` of its operations have executed (test hook).
    pub fn inject_fault_after(&self, job: u64, attempt: u32, after_ops: usize) {
        self.faults.arm(job, attempt, after_ops);
    }

    /// Attempts begun but not finalized — zero once the engine drains.
    pub fn live_entries(&self) -> usize {
        self.meta.lock().live.len()
    }

    /// Shard-footprint entries belonging to transactions that neither
    /// committed nor are live — must stay zero (aborted attempts drop
    /// their bookkeeping on every shard they touched).
    pub fn orphaned_entries(&self) -> usize {
        let meta = self.meta.lock();
        meta.touched
            .keys()
            .filter(|t| !meta.committed.contains(t) && !meta.live.contains(t))
            .count()
    }

    /// Committed transactions so far.
    pub fn committed_count(&self) -> usize {
        self.meta.lock().committed.len()
    }

    /// True when `txn` was aborted (validation failure or victim).
    pub fn was_aborted(&self, txn: TxnIdx) -> bool {
        self.meta.lock().aborted.contains(&txn)
    }

    /// Committed transactions whose footprint includes each shard.
    pub fn per_shard_committed(&self) -> Vec<usize> {
        let meta = self.meta.lock();
        (0..self.n)
            .map(|s| {
                meta.committed
                    .iter()
                    .filter(|t| meta.touched.get(t).is_some_and(|fp| fp.contains(&s)))
                    .count()
            })
            .collect()
    }

    /// Certifier-style counters plus the revalidation count.
    pub fn stats(&self) -> (CertifierStats, u64) {
        let meta = self.meta.lock();
        (meta.stats, meta.revalidations)
    }

    /// Committed transactions pruned from future validation scopes by
    /// the cut. Once the engine drains (nothing live), every committed
    /// transaction must be settled.
    pub fn settled_count(&self) -> usize {
        self.meta.lock().settled.len()
    }

    /// Extract the validation inputs for `me` under the metadata lock.
    fn plan(meta: &OptMeta, me: TxnIdx) -> ValidationPlan {
        let my_shards = meta.touched.get(&me).cloned().unwrap_or_default();
        let shares = |fp: &BTreeSet<usize>| fp.iter().any(|s| my_shards.contains(s));

        let mut wait_scope = HashSet::from([me]);
        let mut live_sharers = HashSet::new();
        for (t, fp) in &meta.touched {
            if *t != me && !meta.settled.contains(t) && shares(fp) {
                wait_scope.insert(*t);
                if meta.live.contains(t) {
                    live_sharers.insert(*t);
                }
            }
        }

        // shard-connected component of `me` over committed, non-settled
        // transactions: BFS on shards
        let mut component = HashSet::from([me]);
        let mut component_shards = my_shards.clone();
        let mut frontier = my_shards.clone();
        while !frontier.is_empty() {
            let mut next = BTreeSet::new();
            for t in &meta.committed {
                if component.contains(t) || meta.settled.contains(t) {
                    continue;
                }
                if let Some(fp) = meta.touched.get(t) {
                    if fp.iter().any(|s| frontier.contains(s)) {
                        component.insert(*t);
                        for &s in fp {
                            if !component_shards.contains(&s) {
                                next.insert(s);
                            }
                        }
                    }
                }
            }
            component_shards.extend(next.iter().copied());
            frontier = next;
        }

        let epoch_snapshot = component_shards
            .iter()
            .map(|&s| (s, meta.epochs[s]))
            .collect();
        ValidationPlan {
            my_shards,
            wait_scope,
            live_sharers,
            component,
            epoch_snapshot,
        }
    }

    fn epochs_stale(meta: &OptMeta, plan: &ValidationPlan) -> bool {
        plan.epoch_snapshot
            .iter()
            .any(|&(s, e)| meta.epochs[s] != e)
    }

    /// Top-level dependency edges incident to `me` within `scope`:
    /// `(preds, deps, inferred)` — transactions `me` depends on /
    /// depending on `me`, plus the restricted-history length the
    /// inference consumed (the from-scratch cost measure).
    fn incident_edges(
        ts: &TransactionSystem,
        history: &History,
        scope: &HashSet<TxnIdx>,
        me: TxnIdx,
    ) -> (Vec<TxnIdx>, Vec<TxnIdx>, usize) {
        let restricted = restrict_history(ts, history, scope);
        let inferred = restricted.len();
        let ss = SystemSchedules::infer_scoped(ts, &restricted, scope);
        let top = ss.top_level_deps(ts);
        let me_root = ts.top_level()[me.as_usize()];
        let mut preds = Vec::new();
        let mut deps = Vec::new();
        for (f, t) in top.edges() {
            if *t == me_root {
                let p = ts.action(*f).txn;
                if p != me && !preds.contains(&p) {
                    preds.push(p);
                }
            }
            if *f == me_root {
                let d = ts.action(*t).txn;
                if d != me && !deps.contains(&d) {
                    deps.push(d);
                }
            }
        }
        (preds, deps, inferred)
    }

    /// Validate `scope` from scratch; returns the verdict and the
    /// restricted-history length the inference consumed.
    fn validate(
        &self,
        ts: &TransactionSystem,
        history: &History,
        scope: &HashSet<TxnIdx>,
    ) -> (bool, usize) {
        let restricted = restrict_history(ts, history, scope);
        let inferred = restricted.len();
        let ss = SystemSchedules::infer_scoped(ts, &restricted, scope);
        let ok = match self.mode {
            CertifierMode::Paper => check_system_decentralized(ts, &ss).is_ok(),
            CertifierMode::Global => check_system_global(ts, &ss).is_ok(),
        };
        (ok, inferred)
    }

    /// One validation round. `hold` keeps the metadata lock across the
    /// inference (the guaranteed-progress fallback). `Err(())` means the
    /// scope went stale and the round must be repeated.
    fn finish_round(
        &self,
        shared: &EngineShared,
        txn: &TxnHandle,
        ts: &TransactionSystem,
        history: &History,
        hold: bool,
    ) -> Result<FinishOutcome, ()> {
        let me = txn.txn;
        let mut guard = self.meta.lock();
        guard.stats.attempts += 1;
        // `me` executed before the snapshot was taken: its last action is
        // in it, which is what the cut needs of a transaction it may drop
        guard.positions.scan(ts, history, |_| {});
        let plan = Self::plan(&guard, me);
        let held = if hold {
            Some(guard)
        } else {
            drop(guard);
            None
        };

        let component = plan.component.len();
        let cert_event = |outcome: CertOutcome| {
            shared
                .trace
                .emit_txn(txn, || TraceEventKind::CertAttempt { component, outcome });
        };

        // commit dependency: a live predecessor may still compensate
        // state `me` built on — wait for it to finalize. Snapshot mode
        // skips the check (and the dooming edge inference below): writes
        // buffer until commit, so no one ever reads uncommitted state.
        let deps = if self.snapshot.is_some() {
            Vec::new()
        } else {
            let (preds, deps, inferred) = Self::incident_edges(ts, history, &plan.wait_scope, me);
            shared
                .metrics
                .cert_actions_inferred
                .fetch_add(inferred as u64, Ordering::Relaxed);
            if preds.iter().any(|p| plan.live_sharers.contains(p)) {
                drop(held);
                self.meta.lock().stats.waits += 1;
                cert_event(CertOutcome::Wait);
                return Ok(FinishOutcome::Wait);
            }
            deps
        };

        let (ok, inferred) = self.validate(ts, history, &plan.component);
        shared
            .metrics
            .cert_actions_inferred
            .fetch_add(inferred as u64, Ordering::Relaxed);

        let mut guard = match held {
            Some(g) => g,
            None => self.meta.lock(),
        };
        if !hold && Self::epochs_stale(&guard, &plan) {
            guard.revalidations += 1;
            drop(guard);
            cert_event(CertOutcome::Stale);
            return Err(());
        }
        if ok {
            guard.committed.insert(me);
            guard.note_finalized(shared, self.backend, me, true);
            for &s in &plan.my_shards {
                guard.epochs[s] += 1;
                shared.metrics.shard_commit(s);
            }
            guard.stats.commits += 1;
            if plan.my_shards.len() > 1 {
                shared.metrics.cross_shard_inc();
            }
            drop(guard);
            if let Some(store) = &self.snapshot {
                versions::on_commit(store, shared, txn);
            }
            cert_event(CertOutcome::Commit);
            Ok(FinishOutcome::Committed)
        } else {
            guard.aborted.insert(me);
            guard.note_finalized(shared, self.backend, me, false);
            guard.touched.remove(&me);
            guard.stats.aborts += 1;
            // doom everyone who read our soon-compensated effects (no one,
            // in snapshot mode: `deps` is empty — the writes never left
            // the worker's buffer)
            let mut doomed_now = Vec::new();
            for d in deps {
                if guard.live.contains(&d) {
                    guard.doomed.insert(d);
                    doomed_now.push(d);
                }
            }
            drop(guard);
            cert_event(CertOutcome::Abort);
            shared
                .metrics
                .cascade_dooms
                .fetch_add(doomed_now.len() as u64, Ordering::Relaxed);
            for d in doomed_now {
                shared
                    .trace
                    .emit_txn(txn, || TraceEventKind::CascadeDoom { victim: d.0 as u64 });
            }
            Ok(FinishOutcome::Abort)
        }
    }

    /// The incremental twin of the lock-free round loop: ONE round under
    /// the metadata lock, against the *live* record under the recorder
    /// lock ([`oodb_model::Recorder::with_record`]). No staleness is
    /// possible (a held round cannot go stale), so no epochs, no
    /// revalidations — the maintained schedules consume only the actions
    /// appended since the last attempt and every query filters them down
    /// to the plan's scope. Side effects that re-enter the recorder
    /// (version install/drop) stay outside the closure; lock order is
    /// recorder → metadata, never the inverse.
    fn try_finish_incremental(&self, shared: &EngineShared, txn: &TxnHandle) -> FinishOutcome {
        enum Round {
            Commit,
            Wait,
            Abort,
        }
        let me = txn.txn;
        let round = shared.rec.with_record(|ts, history| {
            let mut meta = self.meta.lock();
            meta.stats.attempts += 1;
            let before = meta.stats;
            meta.feed_record(ts, history);
            let plan = Self::plan(&meta, me);
            let component = plan.component.len();
            let cert_event = |outcome: CertOutcome| {
                shared
                    .trace
                    .emit_txn(txn, || TraceEventKind::CertAttempt { component, outcome });
            };

            // commit dependency: a live shard-sharing predecessor may
            // still compensate state `me` built on. Same scope as the
            // from-scratch round (`plan.live_sharers`), but the edges
            // come from the maintained schedules. Snapshot mode skips
            // the check — nothing uncommitted is ever visible.
            if self.snapshot.is_none() {
                let must_wait = meta
                    .feed
                    .schedules()
                    .top_level_dependencies(ts, me)
                    .any(|pred| plan.live_sharers.contains(&pred));
                if must_wait {
                    meta.stats.waits += 1;
                    OptimisticCc::publish_cert_round(shared, txn, before, meta.stats, true);
                    drop(meta);
                    cert_event(CertOutcome::Wait);
                    return Round::Wait;
                }
            }

            // the same candidate-rooted search as the global certifier,
            // scoped to the component. Its invariant holds here too:
            // `component ∖ {me}` is a subset of the committed set, which
            // is acyclic (the last committer of a cycle always sees the
            // whole cycle in its component); its precondition holds
            // because `me` finished executing before this round and the
            // feed above consumed everything recorded.
            let ok = {
                let OptMeta { feed, stats, .. } = &mut *meta;
                let in_scope = |t: TxnIdx| plan.component.contains(&t);
                let visited = &mut stats.check_visited;
                match self.mode {
                    CertifierMode::Paper => {
                        check_candidate_decentralized(ts, feed.schedules(), me, in_scope, visited)
                    }
                    CertifierMode::Global => {
                        check_candidate_global(ts, feed.schedules(), me, in_scope, visited)
                    }
                }
                .is_ok()
            };

            if ok {
                meta.committed.insert(me);
                meta.note_finalized(shared, self.backend, me, true);
                for &s in &plan.my_shards {
                    meta.epochs[s] += 1;
                    shared.metrics.shard_commit(s);
                }
                meta.stats.commits += 1;
                if plan.my_shards.len() > 1 {
                    shared.metrics.cross_shard_inc();
                }
                OptimisticCc::publish_cert_round(shared, txn, before, meta.stats, true);
                drop(meta);
                cert_event(CertOutcome::Commit);
                Round::Commit
            } else {
                // doom everyone who read our soon-compensated effects:
                // live successors in the maintained edges (none in
                // snapshot mode — the writes never left the buffer)
                let doomed_now = if self.snapshot.is_none() {
                    meta.live_dependents(ts, me)
                } else {
                    Vec::new()
                };
                meta.aborted.insert(me);
                meta.note_finalized(shared, self.backend, me, false);
                meta.touched.remove(&me);
                meta.stats.aborts += 1;
                for &d in &doomed_now {
                    meta.doomed.insert(d);
                }
                OptimisticCc::publish_cert_round(shared, txn, before, meta.stats, true);
                drop(meta);
                cert_event(CertOutcome::Abort);
                shared
                    .metrics
                    .cascade_dooms
                    .fetch_add(doomed_now.len() as u64, Ordering::Relaxed);
                for d in doomed_now {
                    shared
                        .trace
                        .emit_txn(txn, || TraceEventKind::CascadeDoom { victim: d.0 as u64 });
                }
                Round::Abort
            }
        });
        match round {
            Round::Commit => {
                if let Some(store) = &self.snapshot {
                    versions::on_commit(store, shared, txn);
                }
                FinishOutcome::Committed
            }
            Round::Wait => FinishOutcome::Wait,
            Round::Abort => FinishOutcome::Abort,
        }
    }
}

impl ConcurrencyControl for ShardedOptimisticCc {
    fn name(&self) -> &'static str {
        self.name
    }

    fn before_op(&self, shared: &EngineShared, txn: &TxnHandle, op: &EncOp) -> OpGrant {
        let targets = route_targets(self.route(op), self.n);
        let mut meta = self.meta.lock();
        if self.snapshot.is_none() && meta.doomed.contains(&txn.txn) {
            return OpGrant::AbortVictim;
        }
        meta.live.insert(txn.txn);
        meta.touched
            .entry(txn.txn)
            .or_default()
            .extend(targets.iter().copied());
        drop(meta);
        if let Some(store) = &self.snapshot {
            store.note_op(txn.txn, op);
        }
        for s in targets {
            shared.metrics.shard_op(s);
        }
        OpGrant::Granted
    }

    fn try_finish(&self, shared: &EngineShared, txn: &TxnHandle) -> FinishOutcome {
        if self.snapshot.is_none() && self.meta.lock().doomed.contains(&txn.txn) {
            return FinishOutcome::Abort;
        }
        if self.backend == CertBackend::Incremental {
            return self.try_finish_incremental(shared, txn);
        }
        let (ts, history) = shared.rec.snapshot();
        for round in 0..=OPTIMISTIC_ROUNDS {
            let hold = round == OPTIMISTIC_ROUNDS;
            if let Ok(outcome) = self.finish_round(shared, txn, &ts, &history, hold) {
                return outcome;
            }
        }
        unreachable!("the held-lock round cannot go stale")
    }

    fn after_commit(&self, _shared: &EngineShared, _txn: &TxnHandle) {}

    fn after_abort(&self, shared: &EngineShared, txn: &TxnHandle) {
        let me = txn.txn;
        if let Some(store) = &self.snapshot {
            // nothing was published, so nothing can cascade; finalize the
            // metadata bookkeeping and drop the buffered writes (the
            // attempt may have aborted before its commit point: deadline,
            // injected fault)
            let mut meta = self.meta.lock();
            if meta.live.contains(&me) {
                meta.aborted.insert(me);
                meta.note_finalized(shared, self.backend, me, false);
                meta.stats.aborts += 1;
                meta.touched.remove(&me);
            }
            meta.doomed.remove(&me);
            drop(meta);
            versions::on_abort(store, shared, txn);
            return;
        }
        if self.backend == CertBackend::Incremental {
            // victim abort against the live record: feed the delta, read
            // the cascade off the maintained edges (recorder → metadata
            // lock order, as everywhere incremental)
            let doomed_now = shared.rec.with_record(|ts, history| {
                let mut meta = self.meta.lock();
                if !meta.live.contains(&me) {
                    // validation failure: the incremental round already
                    // recorded the abort and doomed the cascade
                    meta.doomed.remove(&me);
                    return Vec::new();
                }
                let before = meta.stats;
                meta.feed_record(ts, history);
                meta.aborted.insert(me);
                meta.note_finalized(shared, self.backend, me, false);
                meta.stats.aborts += 1;
                meta.touched.remove(&me);
                let doomed_now = meta.live_dependents(ts, me);
                for &d in &doomed_now {
                    meta.doomed.insert(d);
                }
                meta.doomed.remove(&me); // this attempt is finished for good
                OptimisticCc::publish_cert_round(shared, txn, before, meta.stats, true);
                doomed_now
            });
            shared
                .metrics
                .cascade_dooms
                .fetch_add(doomed_now.len() as u64, Ordering::Relaxed);
            for d in doomed_now {
                shared
                    .trace
                    .emit_txn(txn, || TraceEventKind::CascadeDoom { victim: d.0 as u64 });
            }
            return;
        }
        let mut meta = self.meta.lock();
        let was_live = meta.live.contains(&me);
        let wait_scope = if was_live {
            // victim abort (doomed, deadline, wait-cycle break, injected
            // fault): register it and cascade to its live dependents
            meta.aborted.insert(me);
            meta.note_finalized(shared, self.backend, me, false);
            meta.stats.aborts += 1;
            let my_shards = meta.touched.remove(&me).unwrap_or_default();
            let mut scope = HashSet::from([me]);
            for (t, fp) in &meta.touched {
                if !meta.settled.contains(t) && fp.iter().any(|s| my_shards.contains(s)) {
                    scope.insert(*t);
                }
            }
            Some(scope)
        } else {
            // validation failure: finish_round already recorded the
            // abort and doomed the cascade
            None
        };
        meta.doomed.remove(&me); // this attempt is finished for good
        drop(meta);
        if let Some(scope) = wait_scope {
            let (ts, history) = shared.rec.snapshot();
            let (_, deps, inferred) = Self::incident_edges(&ts, &history, &scope, me);
            shared
                .metrics
                .cert_actions_inferred
                .fetch_add(inferred as u64, Ordering::Relaxed);
            let mut meta = self.meta.lock();
            let mut doomed_now = Vec::new();
            for d in deps {
                if meta.live.contains(&d) {
                    meta.doomed.insert(d);
                    doomed_now.push(d);
                }
            }
            drop(meta);
            shared
                .metrics
                .cascade_dooms
                .fetch_add(doomed_now.len() as u64, Ordering::Relaxed);
            for d in doomed_now {
                shared
                    .trace
                    .emit_txn(txn, || TraceEventKind::CascadeDoom { victim: d.0 as u64 });
            }
        }
    }

    fn shards(&self) -> usize {
        self.n
    }

    fn route(&self, op: &EncOp) -> ShardRoute {
        route_keyed(op, self.n)
    }

    fn inject_abort(&self, txn: &TxnHandle, ops_done: usize) -> bool {
        self.faults.fires(txn, ops_done)
    }

    fn is_doomed(&self, txn: &TxnHandle) -> bool {
        // snapshot mode never dooms: nothing uncommitted is ever visible
        self.snapshot.is_none() && self.meta.lock().doomed.contains(&txn.txn)
    }

    fn strict_compensation(&self) -> bool {
        // MVCC compensation runs inside the same database critical
        // section as the install, so a failed inverse is an engine bug
        self.snapshot.is_some()
    }

    fn buffers_writes(&self) -> bool {
        self.snapshot.is_some()
    }

    fn retire(&self, shared: &EngineShared, txn: TxnIdx) {
        let mut meta = self.meta.lock();
        meta.exclude(txn);
        meta.settle(shared, self.backend);
    }

    fn committed_projection(&self, ts: &TransactionSystem, history: &History) -> Option<History> {
        // merged audit: stitch the per-shard commit decisions back into
        // ONE committed projection — the union of every shard's committed
        // set — never the full record (aborted attempts may have observed
        // state that was later compensated away)
        let committed = self.meta.lock().committed.clone();
        Some(restrict_history(ts, history, &committed))
    }
}

// ---------------------------------------------------------------------
// The generic facade
// ---------------------------------------------------------------------

/// Strategies that ship a sharded variant; gives the issue-facing
/// spelling [`ShardedCc<C>`] a concrete meaning per strategy.
pub trait Shardable: ConcurrencyControl {
    /// The sharded form of this strategy.
    type Sharded: ConcurrencyControl;

    /// Build the sharded variant with `shards` partitions, preserving
    /// this strategy's granularity/validation mode.
    fn sharded(&self, shards: usize) -> Self::Sharded;
}

impl Shardable for PessimisticCc {
    type Sharded = ShardedPessimisticCc;

    fn sharded(&self, shards: usize) -> ShardedPessimisticCc {
        if self.is_page_level() {
            ShardedPessimisticCc::page_level(shards)
        } else {
            ShardedPessimisticCc::semantic(shards)
        }
    }
}

impl Shardable for OptimisticCc {
    type Sharded = ShardedOptimisticCc;

    fn sharded(&self, shards: usize) -> ShardedOptimisticCc {
        let cc = if self.is_snapshot() {
            ShardedOptimisticCc::snapshot_with_mode(shards, self.mode())
        } else {
            ShardedOptimisticCc::with_mode(shards, self.mode())
        };
        cc.with_certification(self.certification())
    }
}

/// `ShardedCc<PessimisticCc>` / `ShardedCc<OptimisticCc>`: the sharded
/// counterpart of a strategy.
pub type ShardedCc<C> = <C as Shardable>::Sharded;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_hash_is_stable_and_in_range() {
        for n in [1usize, 2, 4, 8] {
            for i in 0..64 {
                let k = format!("k{i:06}");
                let s = shard_of_key(&k, n);
                assert!(s < n);
                assert_eq!(s, shard_of_key(&k, n), "deterministic");
            }
        }
        // the hash actually spreads keys
        let hits: HashSet<usize> = (0..64)
            .map(|i| shard_of_key(&format!("k{i:06}"), 8))
            .collect();
        assert!(hits.len() >= 4, "64 keys must reach ≥4 of 8 shards");
    }

    #[test]
    fn keyed_ops_route_to_one_shard_scans_to_all() {
        let cc = ShardedOptimisticCc::new(4);
        match cc.route(&EncOp::Insert("alpha".into())) {
            ShardRoute::One(s) => assert!(s < 4),
            ShardRoute::All => panic!("keyed op must route to one shard"),
        }
        assert_eq!(cc.route(&EncOp::ReadSeq), ShardRoute::All);
        assert_eq!(
            cc.route(&EncOp::Range("a".into(), "z".into())),
            ShardRoute::All
        );
        // same key, same shard — conflicts always meet
        assert_eq!(
            cc.route(&EncOp::Change("alpha".into())),
            cc.route(&EncOp::Delete("alpha".into()))
        );
    }

    #[test]
    fn page_level_routes_everything_everywhere() {
        let cc = ShardedPessimisticCc::page_level(4);
        assert_eq!(cc.route(&EncOp::Insert("alpha".into())), ShardRoute::All);
        assert_eq!(cc.route(&EncOp::Search("beta".into())), ShardRoute::All);
    }

    #[test]
    fn shardable_preserves_granularity_and_mode() {
        let p: ShardedCc<PessimisticCc> = PessimisticCc::semantic().sharded(4);
        assert_eq!(p.name(), "sharded-pessimistic");
        let pp = PessimisticCc::page_level().sharded(2);
        assert_eq!(pp.name(), "sharded-pessimistic-page");
        let o: ShardedCc<OptimisticCc> = OptimisticCc::new().sharded(8);
        assert_eq!(o.name(), "sharded-optimistic");
        assert_eq!(o.shards(), 8);
        let og = OptimisticCc::with_mode(CertifierMode::Global).sharded(2);
        assert_eq!(og.name(), "sharded-optimistic-global");
        let m = OptimisticCc::snapshot().sharded(4);
        assert_eq!(m.name(), "sharded-mvcc");
        assert!(m.buffers_writes() && m.strict_compensation());
        assert!(m.version_store().is_some());
        let mg = OptimisticCc::snapshot_with_mode(CertifierMode::Global).sharded(2);
        assert_eq!(mg.name(), "sharded-mvcc-global");
    }

    #[test]
    fn fault_plan_fires_once_at_threshold() {
        let plan = FaultPlan::default();
        plan.arm(3, 0, 2);
        let txn = TxnHandle {
            job: 3,
            attempt: 0,
            txn: TxnIdx(7),
            owner: OwnerId(7),
        };
        assert!(!plan.fires(&txn, 1), "below threshold");
        assert!(plan.fires(&txn, 2), "at threshold");
        assert!(!plan.fires(&txn, 3), "disarmed after firing");
        let retry = TxnHandle { attempt: 1, ..txn };
        assert!(!plan.fires(&retry, 2), "other attempts unaffected");
    }
}
