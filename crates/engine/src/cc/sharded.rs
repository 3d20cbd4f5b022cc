//! Shard routing, and strict 2PL over per-shard lock managers.
//!
//! Routing is `shard(key) = fnv1a(key) % N` ([`shard_of_key`]). Keyed
//! operations touch exactly one shard; container-wide scans (`readSeq`,
//! `rangeScan`) and the page-granularity ablation route to **all** shards
//! (hash partitioning scatters intervals, and whole-container modes
//! cannot be partitioned at all).
//!
//! What a shard *is* depends on the strategy:
//!
//! * [`ShardedPessimisticCc`] gives each shard its own [`LockManager`],
//!   so independent keys stop contending on one lock-table mutex. That
//!   is sound because a transaction-level dependency only ever arises
//!   from *conflicting* operations (Definition 10 lifts dependencies
//!   through conflicting callers only), and under the encyclopedia's
//!   commutativity spec two operations conflict only when they share a
//!   key or one of them is a container-wide scan — either way they meet
//!   on a common shard. A cross-shard transaction acquires its shard
//!   guards in canonical (ascending) order and cross-shard deadlocks —
//!   which no single shard can see — are prevented by wound-wait on
//!   submission age: an older job's blocked request dooms any younger
//!   holder, so persistent waits only ever point from younger to older
//!   and can never close a cycle.
//! * [`OptimisticCc`](super::OptimisticCc) keeps one certifier at every
//!   shard count; a shard there is a lane of the metrics (operations,
//!   commits, cross-shard commits), nothing the decisions depend on.

use super::pessimistic::{emit_conflicts, is_writer_method};
use super::{ConcurrencyControl, EngineShared, FinishOutcome, OpGrant, ShardRoute, TxnHandle};
use crate::trace::TraceEventKind;
use oodb_core::commutativity::ActionDescriptor;
use oodb_lock::{LockManager, LockOutcome, OwnerId};
use oodb_sim::exec::{enc_lock_manager, op_descriptor, page_descriptor, ENC_RESOURCE};
use oodb_sim::EncOp;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

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
pub(super) fn route_keyed(op: &EncOp, shards: usize) -> ShardRoute {
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
pub(super) struct FaultPlan {
    armed: Mutex<HashMap<(u64, u32), usize>>,
    /// Entries in `armed`, so the per-operation check of an engine with
    /// nothing armed — every engine outside the fault suites — takes no
    /// lock. Stored (Release) under the `armed` lock, loaded (Acquire)
    /// before taking it: a check that reads 0 is ordered before the
    /// arming it missed.
    pending: AtomicUsize,
}

impl FaultPlan {
    pub(super) fn arm(&self, job: u64, attempt: u32, after_ops: usize) {
        let mut armed = self.armed.lock();
        armed.insert((job, attempt), after_ops);
        self.pending.store(armed.len(), Ordering::Release);
    }

    pub(super) fn fires(&self, txn: &TxnHandle, ops_done: usize) -> bool {
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
    /// Signalled (with `touched`) whenever an owner has released.
    owner_released: Condvar,
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
            owner_released: Condvar::new(),
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

    /// How long a wounded job's next attempt waits for its wounder to
    /// release before proceeding anyway (deferral is an anti-barging
    /// heuristic, not a correctness requirement — a cap keeps liveness
    /// even if the wounder is itself long-blocked).
    const DEFER_CAP: Duration = Duration::from_millis(200);

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
        let deadline = Instant::now() + Self::DEFER_CAP;
        let mut touched = self.touched.lock();
        while touched.contains_key(&wounder) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            self.owner_released.wait_for(&mut touched, left);
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
        // after the grants are gone, so a deferred retry that wakes here
        // finds them released
        self.owner_released.notify_all();
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
}

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
        let cc = ShardedPessimisticCc::semantic(4);
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
        assert_eq!(cc.name(), "sharded-pessimistic-page");
        assert_eq!(cc.route(&EncOp::Insert("alpha".into())), ShardRoute::All);
        assert_eq!(cc.route(&EncOp::Search("beta".into())), ShardRoute::All);
    }

    #[test]
    fn fault_plan_fires_once_at_threshold() {
        let plan = FaultPlan::default();
        plan.arm(3, 0, 2);
        let txn = TxnHandle {
            job: 3,
            attempt: 0,
            txn: oodb_core::ids::TxnIdx(7),
            owner: OwnerId(7),
        };
        assert!(!plan.fires(&txn, 1), "below threshold");
        assert!(plan.fires(&txn, 2), "at threshold");
        assert!(!plan.fires(&txn, 3), "disarmed after firing");
        let retry = TxnHandle { attempt: 1, ..txn };
        assert!(!plan.fires(&retry, 2), "other attempts unaffected");
    }
}
