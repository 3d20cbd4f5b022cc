//! Semantic strict 2PL over one lock table striped by key hash
//! (`shard_of_key(key, STRIPES)`), with deadlocks broken when they
//! close: the paper's open-nested protocol as a worker-pool concurrency
//! control. Each stripe keeps its grants as a list of `(owner, mode)`
//! under its mutex, the owner being the attempt's recorded transaction
//! ([`TxnIdx`]); a mode is the operation's action descriptor, and a
//! request is compatible with another owner's grant iff the
//! encyclopedia's [`RangeSpec`] says the two commute (Definition 9).
//! A request is never compared with its own owner's grants, which never
//! block it: a grant is one pass over the other owners' grants and one
//! push, a repeated mode included, and a release is one `retain`.
//! DESIGN.md §7 "Strict 2PL: one striped lock table" argues why the
//! stripes are as strong as one table, why nobody starves, why no
//! wake-up is lost, and the lock order. The locks are also what orders
//! the log and the trace: every pair of operations whose order the WAL,
//! recovery and the trace's dependency graph need conflicts under the
//! lock spec (`every_overlapping_pair_with_a_writer_conflicts`), so an
//! operation claims its trace seq, executes and appends its log record
//! while its lock orders it against every such operation.

use super::{ConcurrencyControl, EngineShared, FinishOutcome, OpGrant, TxnHandle};
use crate::metrics::ShardRoute;
use crate::trace::TraceEventKind;
use oodb_btree::ops::{op_descriptor, page_descriptor, EncOp};
use oodb_core::commutativity::{ActionDescriptor, CommutativitySpec, Method, RangeSpec};
use oodb_core::graph::find_cycle_from;
use oodb_core::ids::TxnIdx;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;

/// Number of lock-table stripes, keyed by
/// [`shard_of_key`](crate::shard_of_key).
pub const STRIPES: usize = 16;

// an attempt's stripes are one bit each of its footprint
const _: () = assert!(STRIPES <= u64::BITS as usize);

/// Trace a [`TraceEventKind::Conflict`] of `txn`'s request `ours` with
/// each other party on the stripe, naming that party's first grant the
/// rule selects. Blocked, the rule is a grant that does not commute with
/// ours under `spec`: the dependency is inherited to the top level
/// (Definition 11). Granted, it is a coexisting grant where one side
/// writes: a page-level conflict whose inheritance stopped at the
/// commuting method.
fn trace_conflicts(
    shared: &EngineShared,
    txn: &TxnHandle,
    spec: &RangeSpec,
    grants: &[(TxnIdx, ActionDescriptor)],
    ours: &ActionDescriptor,
    blocked: bool,
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
    let selects = |theirs: &ActionDescriptor| {
        if blocked {
            !spec.commutes(theirs, ours)
        } else {
            writes(ours) || writes(theirs)
        }
    };
    let mut named = Vec::new();
    for (with, theirs) in grants {
        if *with == txn.txn || named.contains(with) || !selects(theirs) {
            continue;
        }
        named.push(*with);
        shared.trace.emit_txn(txn, || TraceEventKind::Conflict {
            with: u64::from(with.0),
            ours: ours.to_string(),
            theirs: theirs.to_string(),
            inherited: blocked,
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
    /// order; a mode asked for again is a second entry.
    grants: Vec<(TxnIdx, ActionDescriptor)>,
    /// Requests parked on `released`; a release with none skips the
    /// notify (a syscall).
    parked: usize,
}

impl Table {
    /// Grant `ours` to `owner`, or return the owners whose grants here
    /// do not commute with it under `spec`, each once, in grant order.
    /// An owner's own grants are never compared: they never block it.
    fn acquire(
        &mut self,
        spec: &RangeSpec,
        owner: TxnIdx,
        ours: &ActionDescriptor,
    ) -> Result<(), Vec<TxnIdx>> {
        let mut holders = Vec::new();
        for (o, theirs) in &self.grants {
            if *o != owner && !holders.contains(o) && !spec.commutes(theirs, ours) {
                holders.push(*o);
            }
        }
        if !holders.is_empty() {
            return Err(holders);
        }
        self.grants.push((owner, ours.clone()));
        Ok(())
    }

    /// Drop every grant of `owner`.
    fn release(&mut self, owner: TxnIdx) {
        self.grants.retain(|(o, _)| *o != owner);
    }
}

/// A blocked request in the waits-for map.
struct Waiter {
    job: u64,
    /// Where it parks, and so where a verdict wakes it.
    stripe: usize,
    /// The holders it waits for.
    on: Vec<TxnIdx>,
    /// A deadlock victim; it aborts when it next looks.
    doomed: bool,
}

/// A waits-for cycle reachable from `me`, if there is one. Doomed
/// waiters are about to leave the map, so no cycle runs through them.
fn cycle_from(waits: &HashMap<TxnIdx, Waiter>, me: TxnIdx) -> Option<Vec<TxnIdx>> {
    let on = |o: &TxnIdx| {
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
    waits: Mutex<HashMap<TxnIdx, Waiter>>,
    /// The encyclopedia's commutativity spec, the one compatibility
    /// test of every stripe.
    spec: RangeSpec,
    /// Page granularity: every mode is container-wide, on stripe 0.
    page: bool,
    descriptor: fn(&EncOp) -> ActionDescriptor,
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
        }
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
            ShardRoute::of(op, STRIPES)
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
            let holders = match table.acquire(&self.spec, txn.txn, ours) {
                Ok(()) => {
                    trace_conflicts(shared, txn, &self.spec, &table.grants, ours, false);
                    if blocked {
                        // still under the stripe: no cycle ever runs
                        // through the edge of a granted request
                        self.waits.lock().remove(&txn.txn);
                    }
                    txn.footprint.set(txn.footprint.get() | 1 << s);
                    return true;
                }
                Err(holders) => holders,
            };
            if !blocked {
                blocked = true;
                shared.metrics.lock_blocks.fetch_add(1, Ordering::Relaxed);
                trace_conflicts(shared, txn, &self.spec, &table.grants, ours, true);
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
        holders: Vec<TxnIdx>,
    ) -> (bool, Vec<usize>) {
        let me = txn.txn;
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
            let job = |o: &TxnIdx| waits[o].job;
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
    /// parked there.
    fn release(&self, shared: &EngineShared, txn: &TxnHandle) {
        let held = txn.footprint.take();
        for s in (0..STRIPES).filter(|s| held >> s & 1 != 0) {
            let mut table = self.lock_stripe(shared, s);
            table.release(txn.txn);
            if table.parked > 0 {
                self.stripes[s].released.notify_all();
            }
        }
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
        if granted {
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

    fn after_commit(&self, shared: &EngineShared, txn: &TxnHandle) {
        self.release(shared, txn);
    }

    fn after_abort(&self, shared: &EngineShared, txn: &TxnHandle) {
        // locks were still held while the worker compensated — nobody
        // observed uncommitted semantic state — release them now
        self.release(shared, txn);
    }

    fn reads_record(&self) -> bool {
        // the lock table decides everything; only the audit reads the record
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::shard_of_key;
    use oodb_lock::{LockOutcome, OwnerId};
    use oodb_sim::exec::{enc_lock_manager, ENC_RESOURCE};
    use proptest::prelude::*;

    fn spec() -> RangeSpec {
        RangeSpec::ordered_container("enc")
    }

    /// A transaction as long as the benchmark's preload, all on one
    /// stripe, that asks for three of its modes again: every request is
    /// granted and pushed, repeats included, another owner's conflicting
    /// request is blocked by the holder once, and a release empties the
    /// stripe.
    #[test]
    fn a_long_transaction_keeps_its_repeated_modes_until_it_releases() {
        const MODES: usize = 4096;
        let (spec, mut table) = (spec(), Table::default());
        let mode = |i: usize| op_descriptor(&EncOp::Insert(format!("k{i:07}")));
        for i in 0..MODES {
            assert_eq!(table.acquire(&spec, TxnIdx(1), &mode(i)), Ok(()));
        }
        for i in [7, 8, MODES - 1] {
            assert_eq!(table.acquire(&spec, TxnIdx(1), &mode(i)), Ok(()));
        }
        assert_eq!(
            table.grants.len(),
            MODES + 3,
            "a repeated mode is a second entry"
        );
        assert_eq!(
            table.acquire(&spec, TxnIdx(2), &mode(MODES - 1)),
            Err(vec![TxnIdx(1)]),
            "another owner's conflicting request waits for the holder, named once"
        );
        table.release(TxnIdx(1));
        assert!(table.grants.is_empty());
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
            let first = table.acquire(&spec(), TxnIdx(1), &descriptor(x));
            assert_eq!(first, Ok(()));
            table.acquire(&spec(), TxnIdx(2), &descriptor(y)).is_err()
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

    /// A lane count that divides [`STRIPES`] folds the stripes: a key's
    /// metric lane is its stripe mod the lane count, so an attempt's
    /// lanes are its held stripes folded.
    #[test]
    fn lanes_that_divide_the_stripes_fold_them() {
        for lanes in [1, 2, 4, 8, 16] {
            for i in 0..256 {
                let k = format!("k{i}");
                assert_eq!(shard_of_key(&k, STRIPES) % lanes, shard_of_key(&k, lanes));
            }
        }
    }

    #[test]
    fn a_cycle_is_found_from_the_requester_and_skips_the_doomed() {
        let w = |job, on: &[u32], doomed| Waiter {
            job,
            stripe: 0,
            on: on.iter().map(|&o| TxnIdx(o)).collect(),
            doomed,
        };
        let mut waits = HashMap::new();
        waits.insert(TxnIdx(1), w(10, &[2], false));
        waits.insert(TxnIdx(2), w(20, &[3, 1], false));
        waits.insert(TxnIdx(3), w(30, &[4], false)); // 4 runs: no edge
        assert_eq!(
            cycle_from(&waits, TxnIdx(1)),
            Some(vec![TxnIdx(1), TxnIdx(2)])
        );
        assert_eq!(cycle_from(&waits, TxnIdx(3)), None, "4 waits for nobody");
        waits.get_mut(&TxnIdx(2)).unwrap().doomed = true;
        assert_eq!(cycle_from(&waits, TxnIdx(1)), None);
    }

    /// The lock manager's owner for transaction `t`.
    fn owner(t: TxnIdx) -> OwnerId {
        OwnerId(u64::from(t.0))
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
        /// the simulator's) does — granted, or blocked by the same
        /// holders in the same order — at both granularities. After
        /// every step the list is exactly a model's: every granted
        /// `(owner, mode)` since that owner's last release, in grant
        /// order, repeats included; and the model's first occurrences
        /// are the lock manager's grants, which counts a repeat instead.
        #[test]
        fn a_stripe_answers_as_the_lock_manager(owners in 2u64..5, steps in steps()) {
            for descriptor in [op_descriptor as fn(&EncOp) -> ActionDescriptor, page_descriptor] {
                let mut table = Table::default();
                let mut oracle = enc_lock_manager();
                let mut model: Vec<(TxnIdx, ActionDescriptor)> = Vec::new();
                for step in &steps {
                    match step {
                        Step::Acquire(o, op) => {
                            let (t, mode) = (TxnIdx((o % owners) as u32), descriptor(op));
                            let got = match table.acquire(&spec(), t, &mode) {
                                Ok(()) => LockOutcome::Granted,
                                Err(holders) => LockOutcome::Blocked {
                                    holders: holders.into_iter().map(owner).collect(),
                                },
                            };
                            let want = oracle.acquire(owner(t), &[], ENC_RESOURCE, &mode);
                            prop_assert_eq!(&got, &want, "{:?} asks for {}", t, mode);
                            if got == LockOutcome::Granted {
                                model.push((t, mode));
                            }
                        }
                        Step::Release(o) => {
                            let t = TxnIdx((o % owners) as u32);
                            table.release(t);
                            oracle.release_all(owner(t));
                            model.retain(|(m, _)| *m != t);
                        }
                    }
                    prop_assert_eq!(&table.grants, &model);
                    let mut distinct: Vec<(OwnerId, ActionDescriptor)> = Vec::new();
                    for (t, d) in &model {
                        let grant = (owner(*t), d.clone());
                        if !distinct.contains(&grant) {
                            distinct.push(grant);
                        }
                    }
                    prop_assert_eq!(&distinct, &oracle.grants_on(ENC_RESOURCE));
                }
            }
        }
    }
}
