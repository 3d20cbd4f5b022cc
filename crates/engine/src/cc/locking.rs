//! Semantic strict 2PL over one lock table striped by key hash
//! (`shard_of_key(key, STRIPES)`), with deadlocks broken when they
//! close: the paper's open-nested protocol as a worker-pool concurrency
//! control. Each stripe keeps its grants as a list of `(owner, mode)`
//! under its mutex; a mode is the operation's action descriptor, and a
//! request is compatible with another owner's grant iff the
//! encyclopedia's [`RangeSpec`] says the two commute (Definition 9).
//! DESIGN.md §7 "Strict 2PL: one striped lock table" argues why the
//! stripes are as strong as one table, why nobody starves, why no
//! wake-up is lost, and the lock order. The locks are also what orders
//! the log and the trace: every pair of operations whose order the WAL,
//! recovery and the trace's dependency graph need conflicts under the
//! lock spec (`every_overlapping_pair_with_a_writer_conflicts`), so an
//! operation claims its trace seq, executes and appends its log record
//! while its lock orders it against every such operation.

use super::{
    bits, route_keyed, ConcurrencyControl, EngineShared, FaultPlan, FinishOutcome, OpGrant,
    ShardRoute, TxnHandle,
};
use crate::trace::TraceEventKind;
use oodb_btree::ops::{op_descriptor, page_descriptor, EncOp};
use oodb_core::commutativity::{ActionDescriptor, CommutativitySpec, Method, RangeSpec};
use oodb_core::graph::find_cycle_from;
use oodb_lock::OwnerId;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;

/// Number of lock-table stripes, keyed by `shard_of_key`.
pub const STRIPES: usize = 16;

// an attempt's stripes are one bit each of its footprint
const _: () = assert!(STRIPES <= u64::BITS as usize);

/// Trace a [`TraceEventKind::Conflict`] of `txn`'s request `ours` with
/// each other party on the stripe. Blocked, the parties are the
/// `holders`, whose grants do not commute with ours: the dependency is
/// inherited to the top level (Definition 11). Granted (`None`), they are
/// the coexisting grants where one side writes: a page-level conflict
/// whose inheritance stopped at the commuting method.
fn trace_conflicts(
    shared: &EngineShared,
    txn: &TxnHandle,
    grants: &[(OwnerId, ActionDescriptor)],
    ours: &ActionDescriptor,
    holders: Option<&[OwnerId]>,
) {
    if !shared.trace.enabled() {
        return;
    }
    // the update-class methods; two readers never page-conflict
    let writes = |d: &ActionDescriptor| {
        !matches!(
            d.method,
            Method::Search | Method::RangeScan | Method::ReadSeq
        )
    };
    let parties: Vec<OwnerId> = match holders {
        Some(holders) => holders.to_vec(),
        None => grants
            .iter()
            .filter(|(_, d)| writes(ours) || writes(d))
            .map(|(o, _)| *o)
            .collect(),
    };
    for with in parties.into_iter().filter(|&o| o != txn.owner) {
        let theirs = grants
            .iter()
            .find(|(o, _)| *o == with)
            .map(|(_, d)| d.to_string());
        shared.trace.emit_txn(txn, || TraceEventKind::Conflict {
            with: with.0,
            ours: ours.to_string(),
            theirs: theirs.unwrap_or_default(),
            inherited: holders.is_some(),
        });
    }
}

struct Stripe {
    table: Mutex<Table>,
    /// Notified by a release that finds a request parked, and by a
    /// verdict against one.
    released: Condvar,
}

#[derive(Default)]
struct Table {
    /// Every grant held on the stripe, as `(owner, mode)`, in grant
    /// order.
    grants: Vec<(OwnerId, ActionDescriptor)>,
    /// Requests parked on `released`; a release with none skips the
    /// notify (a syscall).
    parked: usize,
}

impl Table {
    /// Grant `ours` to `owner`, or return the owners whose grants here
    /// do not commute with it under `spec`, each once, in grant order.
    /// An owner's own grants never block it, and a mode it already holds
    /// is not added twice.
    fn acquire(
        &mut self,
        spec: &RangeSpec,
        owner: OwnerId,
        ours: &ActionDescriptor,
    ) -> Result<(), Vec<OwnerId>> {
        let mut holders = Vec::new();
        let mut held = false;
        for (o, theirs) in &self.grants {
            if *o == owner {
                held = held || theirs == ours;
            } else if !spec.commutes(theirs, ours) && !holders.contains(o) {
                holders.push(*o);
            }
        }
        if !holders.is_empty() {
            return Err(holders);
        }
        if !held {
            self.grants.push((owner, ours.clone()));
        }
        Ok(())
    }

    /// Drop every grant of `owner`.
    fn release(&mut self, owner: OwnerId) {
        self.grants.retain(|(o, _)| *o != owner);
    }
}

/// A blocked request in the waits-for map.
struct Waiter {
    job: u64,
    /// Where it parks, and so where a verdict wakes it.
    stripe: usize,
    /// The holders it waits for.
    on: Vec<OwnerId>,
    /// A deadlock victim; it aborts when it next looks.
    doomed: bool,
}

/// A waits-for cycle reachable from `me`, if there is one. Doomed
/// waiters are about to leave the map, so no cycle runs through them.
fn cycle_from(waits: &HashMap<OwnerId, Waiter>, me: OwnerId) -> Option<Vec<OwnerId>> {
    let on = |o: &OwnerId| {
        waits
            .get(o)
            .filter(|w| !w.doomed)
            .map_or(&[][..], |w| &w.on)
    };
    find_cycle_from([me], |o, out| out.extend(on(o)), &mut 0)
}

/// Strict 2PL: an operation locks its key's stripe, a scan every stripe
/// in ascending order, the page-level ablation stripe 0, before it runs;
/// locks are held to commit, or through compensation on abort. A blocked
/// request parks on its stripe until a release there or a verdict.
pub struct LockingCc {
    stripes: Vec<Stripe>,
    /// Blocked requests, by owner; only the blocking path touches it.
    waits: Mutex<HashMap<OwnerId, Waiter>>,
    /// The encyclopedia's commutativity spec, the one compatibility
    /// test of every stripe.
    spec: RangeSpec,
    /// Page granularity: every mode is container-wide, on stripe 0.
    page: bool,
    descriptor: fn(&EncOp) -> ActionDescriptor,
    /// Metric lanes (see [`with_shards`](LockingCc::with_shards)).
    lanes: usize,
    faults: FaultPlan,
}

impl LockingCc {
    /// Semantic locking: the paper's per-operation commutativity
    /// descriptors, so commuting operations coexist.
    pub fn semantic() -> Self {
        Self::build(false)
    }

    /// Page-granularity ablation: every operation is a whole-container
    /// read or write, so any two updates conflict.
    pub fn page_level() -> Self {
        Self::build(true)
    }

    fn build(page: bool) -> Self {
        let stripe = || Stripe {
            table: Mutex::default(),
            released: Condvar::new(),
        };
        LockingCc {
            stripes: (0..STRIPES).map(|_| stripe()).collect(),
            waits: Mutex::new(HashMap::new()),
            spec: RangeSpec::ordered_container("enc"),
            page,
            descriptor: if page { page_descriptor } else { op_descriptor },
            lanes: 1,
            faults: FaultPlan::default(),
        }
    }

    /// Account operations and commits over `lanes` metric lanes: lane
    /// `l` is the stripes `s ≡ l (mod lanes)`, the key hash mod `lanes`
    /// whenever `lanes` divides [`STRIPES`]. No decision depends on it.
    pub fn with_shards(mut self, lanes: usize) -> Self {
        self.lanes = lanes.max(1);
        self
    }

    /// Arm a mid-flight abort: attempt `attempt` of `job` aborts once
    /// `after_ops` of its operations have executed (test hook).
    pub fn inject_fault_after(&self, job: u64, attempt: u32, after_ops: usize) {
        self.faults.arm(job, attempt, after_ops);
    }

    /// Grants still held per stripe — zero everywhere once all
    /// transactions finalized (no orphaned locks).
    pub fn residual_grants(&self) -> Vec<usize> {
        let grants = |s: &Stripe| s.table.lock().grants.len();
        self.stripes.iter().map(grants).collect()
    }

    /// Owners holding a grant on some stripe (live transactions).
    pub fn tracked_owners(&self) -> usize {
        let mut owners = HashSet::new();
        for s in &self.stripes {
            owners.extend(s.table.lock().grants.iter().map(|(o, _)| *o));
        }
        owners.len()
    }

    /// Owners parked in the waits-for map.
    pub fn waiting_owners(&self) -> usize {
        self.waits.lock().len()
    }

    /// Stripe `s`'s table, counting an acquisition that finds its mutex
    /// held in `lock_stripe_contended`.
    fn lock_stripe(&self, shared: &EngineShared, s: usize) -> MutexGuard<'_, Table> {
        let table = &self.stripes[s].table;
        table.try_lock().unwrap_or_else(|| {
            let contended = &shared.metrics.lock_stripe_contended;
            contended.fetch_add(1, Ordering::Relaxed);
            table.lock()
        })
    }

    /// The stripe(s) `op` locks.
    fn stripes_of(&self, op: &EncOp) -> ShardRoute {
        if self.page {
            ShardRoute::One(0)
        } else {
            route_keyed(op, STRIPES)
        }
    }

    /// Block until `txn` holds `ours` on stripe `s`; `false` means it is
    /// a deadlock victim and must abort.
    fn acquire(
        &self,
        shared: &EngineShared,
        txn: &TxnHandle,
        s: usize,
        ours: &ActionDescriptor,
    ) -> bool {
        let stripe = &self.stripes[s];
        let mut table = self.lock_stripe(shared, s);
        let mut blocked = false;
        loop {
            let holders = match table.acquire(&self.spec, txn.owner, ours) {
                Ok(()) => {
                    trace_conflicts(shared, txn, &table.grants, ours, None);
                    if blocked {
                        // still under the stripe: no cycle ever runs
                        // through the edge of a granted request
                        self.waits.lock().remove(&txn.owner);
                    }
                    txn.footprint.set(txn.footprint.get() | 1 << s);
                    return true;
                }
                Err(holders) => holders,
            };
            if !blocked {
                blocked = true;
                shared.metrics.lock_blocks.fetch_add(1, Ordering::Relaxed);
                trace_conflicts(shared, txn, &table.grants, ours, Some(&holders));
            }
            let (victim, wake) = self.block(shared, txn, s, holders);
            if !wake.is_empty() {
                // one stripe mutex at a time: let ours go to wake the
                // doomed, then look again — a release may have come in
                drop(table);
                for &v in &wake {
                    let _parked = self.lock_stripe(shared, v);
                    self.stripes[v].released.notify_all();
                }
                table = self.lock_stripe(shared, s);
            } else if !victim {
                // the doom check in `block` ran under this mutex, which
                // the wait releases atomically: no verdict is missed
                table.parked += 1;
                stripe.released.wait(&mut table);
                table.parked -= 1;
            }
            if victim {
                return false;
            }
        }
    }

    /// Record that `txn`, about to park on stripe `s`, waits for
    /// `holders`, and break every cycle that now runs through it (called
    /// under stripe `s`'s mutex). Returns whether `txn` is a victim, and
    /// the stripes where the other victims park.
    fn block(
        &self,
        shared: &EngineShared,
        txn: &TxnHandle,
        s: usize,
        holders: Vec<OwnerId>,
    ) -> (bool, Vec<usize>) {
        let me = txn.owner;
        let mut waits = self.waits.lock();
        if waits.get(&me).is_some_and(|w| w.doomed) {
            waits.remove(&me);
            return (true, Vec::new());
        }
        let waiter = Waiter {
            job: txn.job,
            stripe: s,
            on: holders,
            doomed: false,
        };
        waits.insert(me, waiter);
        let mut wake = Vec::new();
        while let Some(cycle) = cycle_from(&waits, me) {
            let job = |o: &OwnerId| waits[o].job;
            let victim = *cycle
                .iter()
                .max_by_key(|o| job(o))
                .expect("a cycle has members");
            let m = &shared.metrics;
            m.deadlock_victims.fetch_add(1, Ordering::Relaxed);
            shared
                .trace
                .emit_txn(txn, || TraceEventKind::DeadlockVictim {
                    victim_job: job(&victim),
                    cycle_jobs: cycle.iter().map(job).collect(),
                });
            if victim == me {
                waits.remove(&me);
                return (true, wake);
            }
            let w = waits.get_mut(&victim).expect("cycle members wait");
            w.doomed = true;
            wake.push(w.stripe);
        }
        (false, wake)
    }

    /// Drop every grant of `txn` on the stripes it holds, waking what is
    /// parked there; returns those stripes.
    fn release(&self, shared: &EngineShared, txn: &TxnHandle) -> u64 {
        let held = txn.footprint.take();
        for s in bits(held) {
            let mut table = self.lock_stripe(shared, s);
            table.release(txn.owner);
            if table.parked > 0 {
                self.stripes[s].released.notify_all();
            }
        }
        held
    }
}

impl ConcurrencyControl for LockingCc {
    fn name(&self) -> &'static str {
        if self.page {
            "pessimistic-page"
        } else {
            "pessimistic"
        }
    }

    fn before_op(&self, shared: &EngineShared, txn: &TxnHandle, op: &EncOp) -> OpGrant {
        let ours = (self.descriptor)(op);
        let granted = match self.stripes_of(op) {
            ShardRoute::One(s) => self.acquire(shared, txn, s, &ours),
            ShardRoute::All => (0..STRIPES).all(|s| self.acquire(shared, txn, s, &ours)),
        };
        if !granted {
            return OpGrant::AbortVictim;
        }
        match self.route(op) {
            ShardRoute::One(l) => shared.metrics.shard_op(l),
            ShardRoute::All => (0..self.lanes).for_each(|l| shared.metrics.shard_op(l)),
        }
        OpGrant::Granted
    }

    fn try_finish(&self, _shared: &EngineShared, _txn: &TxnHandle) -> FinishOutcome {
        // strict 2PL: reaching the commit point with all locks held IS
        // the commit ticket
        FinishOutcome::Committed
    }

    fn after_commit(&self, shared: &EngineShared, txn: &TxnHandle) {
        let held = self.release(shared, txn);
        if self.lanes > 1 {
            let lanes = bits(held).fold(0, |m, s| m | 1 << (s % self.lanes));
            shared.metrics.commit_lanes(bits(lanes));
        }
    }

    fn after_abort(&self, shared: &EngineShared, txn: &TxnHandle) {
        // locks were still held while the worker compensated — nobody
        // observed uncommitted semantic state — release them now
        self.release(shared, txn);
    }

    fn shards(&self) -> usize {
        self.lanes
    }

    fn route(&self, op: &EncOp) -> ShardRoute {
        match self.stripes_of(op) {
            ShardRoute::One(s) => ShardRoute::One(s % self.lanes),
            ShardRoute::All if self.lanes == 1 => ShardRoute::One(0),
            ShardRoute::All => ShardRoute::All,
        }
    }

    fn inject_abort(&self, txn: &TxnHandle, ops_done: usize) -> bool {
        self.faults.fires(txn, ops_done)
    }

    fn reads_record(&self) -> bool {
        // the lock table decides everything; only the audit reads the record
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::shard_of_key;
    use oodb_lock::LockOutcome;
    use oodb_sim::exec::{enc_lock_manager, ENC_RESOURCE};
    use proptest::prelude::*;

    fn spec() -> RangeSpec {
        RangeSpec::ordered_container("enc")
    }

    #[test]
    fn keyed_ops_lock_their_stripe_scans_every_stripe_pages_stripe_zero() {
        let cc = LockingCc::semantic();
        let alpha = EncOp::Insert("alpha".into());
        let s = shard_of_key("alpha", STRIPES);
        assert_eq!(cc.stripes_of(&alpha), ShardRoute::One(s));
        assert_eq!(
            cc.stripes_of(&EncOp::Delete("alpha".into())),
            ShardRoute::One(s),
            "same key, same stripe — conflicts always meet"
        );
        assert_eq!(cc.stripes_of(&EncOp::ReadSeq), ShardRoute::All);
        let page = LockingCc::page_level();
        assert_eq!(page.name(), "pessimistic-page");
        assert_eq!(page.stripes_of(&alpha), ShardRoute::One(0));
        assert_eq!(page.stripes_of(&EncOp::ReadSeq), ShardRoute::One(0));
    }

    /// The argument that lets the lock table order the log and the
    /// trace: every pair of operations with a writer whose keys overlap
    /// — the same key, or a scan or range covering the writer's key —
    /// conflicts under the lock spec, semantic and page-level alike, so
    /// strict 2PL never lets one run while the other holds its lock.
    /// Those are the pairs whose order the WAL, recovery and the trace's
    /// dependency graph rebuild from.
    #[test]
    fn every_overlapping_pair_with_a_writer_conflicts() {
        let mut ops = vec![
            EncOp::ReadSeq,
            EncOp::Range("a".into(), "a0".into()), // covers a, not b
            EncOp::Range("0".into(), "z".into()),  // covers both
            EncOp::Range("c".into(), "d".into()),  // covers neither
        ];
        for k in ["a", "b"] {
            ops.push(EncOp::Insert(k.into()));
            ops.push(EncOp::Search(k.into()));
            ops.push(EncOp::Change(k.into()));
            ops.push(EncOp::Delete(k.into()));
        }
        let written = |op: &EncOp| match op {
            EncOp::Insert(k) | EncOp::Change(k) | EncOp::Delete(k) => Some(k.clone()),
            _ => None,
        };
        let covers = |op: &EncOp, key: &str| match op {
            EncOp::Insert(k) | EncOp::Search(k) | EncOp::Change(k) | EncOp::Delete(k) => k == key,
            EncOp::ReadSeq => true,
            EncOp::Range(lo, hi) => lo.as_str() <= key && key <= hi.as_str(),
        };
        let conflict = |descriptor: fn(&EncOp) -> ActionDescriptor, x: &EncOp, y: &EncOp| {
            let mut table = Table::default();
            let first = table.acquire(&spec(), OwnerId(1), &descriptor(x));
            assert_eq!(first, Ok(()));
            table.acquire(&spec(), OwnerId(2), &descriptor(y)).is_err()
        };
        let mut pairs = 0;
        for x in &ops {
            for y in &ops {
                let overlap = written(x).is_some_and(|k| covers(y, &k))
                    || written(y).is_some_and(|k| covers(x, &k));
                if !overlap {
                    continue;
                }
                pairs += 1;
                for (name, descriptor) in [
                    ("semantic", op_descriptor as fn(&EncOp) -> ActionDescriptor),
                    ("page", page_descriptor),
                ] {
                    assert!(
                        conflict(descriptor, x, y),
                        "{name}: {x:?} then {y:?} overlap with a writer but both were granted"
                    );
                }
            }
        }
        assert!(
            pairs > 40,
            "the enumeration reaches the overlapping pairs ({pairs})"
        );
    }

    #[test]
    fn lanes_fold_the_stripes_and_one_lane_routes_to_zero() {
        let one = LockingCc::semantic();
        assert_eq!(one.shards(), 1);
        assert_eq!(one.route(&EncOp::ReadSeq), ShardRoute::One(0));
        let four = LockingCc::semantic().with_shards(4);
        assert_eq!(four.shards(), 4);
        assert_eq!(four.route(&EncOp::ReadSeq), ShardRoute::All);
        // 4 divides STRIPES: the lane is the key hash mod 4
        for i in 0..32 {
            let k = format!("k{i}");
            assert_eq!(
                four.route(&EncOp::Search(k.clone())),
                ShardRoute::One(shard_of_key(&k, 4))
            );
        }
    }

    #[test]
    fn a_cycle_is_found_from_the_requester_and_skips_the_doomed() {
        let w = |job, on: &[u64], doomed| Waiter {
            job,
            stripe: 0,
            on: on.iter().map(|&o| OwnerId(o)).collect(),
            doomed,
        };
        let mut waits = HashMap::new();
        waits.insert(OwnerId(1), w(10, &[2], false));
        waits.insert(OwnerId(2), w(20, &[3, 1], false));
        waits.insert(OwnerId(3), w(30, &[4], false)); // 4 runs: no edge
        assert_eq!(
            cycle_from(&waits, OwnerId(1)),
            Some(vec![OwnerId(1), OwnerId(2)])
        );
        assert_eq!(cycle_from(&waits, OwnerId(3)), None, "4 waits for nobody");
        waits.get_mut(&OwnerId(2)).unwrap().doomed = true;
        assert_eq!(cycle_from(&waits, OwnerId(1)), None);
    }

    /// One step of an oracle sequence: an owner asks for the mode of an
    /// operation, or releases every grant it holds.
    #[derive(Debug, Clone)]
    enum Step {
        Acquire(u64, EncOp),
        Release(u64),
    }

    /// Steps of up to four owners over three keys, two overlapping
    /// ranges and `ReadSeq`.
    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let key = prop::sample::select(vec!["a", "b", "c"]).prop_map(String::from);
        let op = prop_oneof![
            1 => key.clone().prop_map(EncOp::Insert),
            2 => key.clone().prop_map(EncOp::Search),
            1 => key.clone().prop_map(EncOp::Change),
            1 => key.prop_map(EncOp::Delete),
            1 => prop::sample::select(vec![("a", "b"), ("b", "c")])
                .prop_map(|(lo, hi)| EncOp::Range(lo.into(), hi.into())),
            1 => Just(EncOp::ReadSeq),
        ];
        let step = prop_oneof![
            4 => (0u64..4, op).prop_map(|(o, op)| Step::Acquire(o, op)),
            1 => (0u64..4).prop_map(Step::Release),
        ];
        prop::collection::vec(step, 1..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A stripe's grant list answers every request as the generic
        /// lock manager over the encyclopedia's spec (`enc_lock_manager`,
        /// the simulator's) does — granted, or
        /// blocked by the same holders in the same order — and holds the
        /// same grants after every step, at both granularities.
        #[test]
        fn a_stripe_answers_as_the_lock_manager(owners in 2u64..5, steps in steps()) {
            for descriptor in [op_descriptor as fn(&EncOp) -> ActionDescriptor, page_descriptor] {
                let mut table = Table::default();
                let mut oracle = enc_lock_manager();
                for step in &steps {
                    match step {
                        Step::Acquire(o, op) => {
                            let (owner, mode) = (OwnerId(o % owners), descriptor(op));
                            let got = match table.acquire(&spec(), owner, &mode) {
                                Ok(()) => LockOutcome::Granted,
                                Err(holders) => LockOutcome::Blocked { holders },
                            };
                            let want = oracle.acquire(owner, &[], ENC_RESOURCE, &mode);
                            prop_assert_eq!(got, want, "{:?} asks for {}", owner, mode);
                        }
                        Step::Release(o) => {
                            table.release(OwnerId(o % owners));
                            oracle.release_all(OwnerId(o % owners));
                        }
                    }
                    prop_assert_eq!(&table.grants, &oracle.grants_on(ENC_RESOURCE));
                }
            }
        }
    }
}
