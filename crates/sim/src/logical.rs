//! Discrete-event simulation of locking protocols over a *logical* model
//! of the encyclopedia and of a shared document.
//!
//! For protocol throughput (experiments B2/B3) we need mid-operation
//! blocking, deadlock handling and restarts — behaviour that depends only
//! on the **lock footprints** of operations, not on actual page bytes. So
//! operations are compiled to [`LogicalOp`]s: sequences of steps, each
//! acquiring locks (with a hold discipline) and consuming ticks. The same
//! workload compiles differently per [`Protocol`]:
//!
//! * [`Protocol::PageTwoPhase`] — conventional strict 2PL: read/write
//!   locks on pages, all held to transaction end.
//! * [`Protocol::OpenNested`] — the paper's discipline: semantic
//!   (commutativity-mode) locks at the object level held to transaction
//!   end, short page locks released at step end, leaf locks at operation
//!   end (open nesting: a subtransaction's locks go when it commits).
//! * [`Protocol::ClosedNested`] — ablation: like open nesting but child
//!   locks are held to transaction end (closed nesting).
//!
//! Deadlock handling is pluggable ([`DeadlockPolicy`]): waits-for-graph
//! detection (the least-progressed cycle member aborts, with escalating
//! backoff), or the deadlock-free wound-wait / wait-die preemption
//! schemes. Victims release everything and restart.

use oodb_core::commutativity::{
    ActionDescriptor, KeyedSpec, Method, RangeSpec, ReadWriteSpec, SpecRef,
};
use oodb_lock::{LockManager, LockOutcome, OwnerId, ResourceId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Which protocol compiles the workload's lock footprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Conventional strict two-phase locking on pages.
    PageTwoPhase,
    /// Open-nested semantic locking (the paper's protocol).
    OpenNested,
    /// Closed-nested ablation: child locks held to transaction end.
    ClosedNested,
}

impl Protocol {
    /// All protocols, for sweeps.
    pub fn all() -> [Protocol; 3] {
        [
            Protocol::PageTwoPhase,
            Protocol::OpenNested,
            Protocol::ClosedNested,
        ]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::PageTwoPhase => "page-2pl",
            Protocol::OpenNested => "open-nested",
            Protocol::ClosedNested => "closed-nested",
        }
    }
}

/// How long a lock is held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HoldUntil {
    /// Released when the step's work completes.
    StepEnd,
    /// Released when the enclosing operation completes.
    OpEnd,
    /// Released at transaction commit.
    TxnEnd,
}

/// One lock requirement of a step.
#[derive(Debug, Clone)]
pub struct LockNeed {
    /// The resource.
    pub resource: ResourceId,
    /// Lock mode as a commutativity descriptor.
    pub descriptor: ActionDescriptor,
    /// Hold discipline.
    pub hold: HoldUntil,
}

/// One step: acquire locks, then work for `ticks`.
#[derive(Debug, Clone, Default)]
pub struct LogicalStep {
    /// Locks to acquire before the work.
    pub locks: Vec<LockNeed>,
    /// Work duration.
    pub ticks: u32,
}

/// One operation: a sequence of steps.
#[derive(Debug, Clone, Default)]
pub struct LogicalOp {
    /// The steps, executed in order.
    pub steps: Vec<LogicalStep>,
}

/// A compiled workload plus the resource registrations it needs.
pub struct CompiledWorkload {
    /// Per-transaction operation lists.
    pub txns: Vec<Vec<LogicalOp>>,
    /// Resource → commutativity spec registrations.
    pub specs: Vec<(ResourceId, SpecRef)>,
}

/// Simulation metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimMetrics {
    /// Transactions that committed.
    pub committed: usize,
    /// Total simulated ticks until the last commit.
    pub makespan: u64,
    /// Ticks transactions spent blocked on locks.
    pub wait_ticks: u64,
    /// Ticks spent doing work.
    pub work_ticks: u64,
    /// Aborts due to deadlock.
    pub deadlock_aborts: u64,
    /// Mean response time (first start to final commit) per transaction.
    pub mean_response: f64,
}

impl SimMetrics {
    /// Committed transactions per 1000 ticks.
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.committed as f64 * 1000.0 / self.makespan as f64
        }
    }
}

/// How deadlocks are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlockPolicy {
    /// Waits-for-graph detection; the least-progressed cycle member
    /// aborts (the default).
    #[default]
    Detect,
    /// Wound-wait (preemptive, deadlock-free): an *older* transaction
    /// blocked by a younger one wounds it — the younger holder aborts;
    /// younger waiters wait. Age = transaction index (all start together;
    /// retries keep their age).
    WoundWait,
    /// Wait-die (non-preemptive, deadlock-free): an older waiter waits; a
    /// *younger* waiter dies immediately instead of waiting.
    WaitDie,
}

/// Simulator limits.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Hard tick limit (guards against livelock; hitting it panics in
    /// tests and is reported in benches).
    pub max_ticks: u64,
    /// Backoff after a deadlock abort, in ticks.
    pub backoff: u32,
    /// Seed for victim backoff jitter.
    pub seed: u64,
    /// Deadlock handling strategy.
    pub policy: DeadlockPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_ticks: 1_000_000,
            backoff: 5,
            seed: 1,
            policy: DeadlockPolicy::Detect,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TxnState {
    Ready,
    Working { remaining: u32 },
    Blocked,
    BackingOff { until: u64 },
    Committed,
}

struct TxnRun {
    ops: Vec<LogicalOp>,
    op: usize,
    step: usize,
    state: TxnState,
    start_tick: u64,
    finish_tick: u64,
    aborts: u64,
}

/// Owner-token scheme: transaction `t` owns `t*1_000_000`; its operation
/// `o` owns `t*1_000_000 + (o+1)*1_000`; step locks use the op owner with
/// StepEnd bookkeeping handled by explicit release.
fn txn_owner(t: usize) -> OwnerId {
    OwnerId(t as u64 * 1_000_000)
}

fn op_owner(t: usize, o: usize) -> OwnerId {
    OwnerId(t as u64 * 1_000_000 + (o as u64 + 1) * 1_000)
}

fn step_owner(t: usize, o: usize, s: usize) -> OwnerId {
    OwnerId(t as u64 * 1_000_000 + (o as u64 + 1) * 1_000 + s as u64 + 1)
}

fn project_to_txn(o: OwnerId) -> OwnerId {
    OwnerId(o.0 / 1_000_000 * 1_000_000)
}

/// Run the compiled workload to completion and report metrics.
pub fn run_simulation(compiled: &CompiledWorkload, cfg: &SimConfig) -> SimMetrics {
    let mut mgr = LockManager::new();
    for (r, spec) in &compiled.specs {
        mgr.register(*r, spec.clone());
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut runs: Vec<TxnRun> = compiled
        .txns
        .iter()
        .map(|ops| TxnRun {
            ops: ops.clone(),
            op: 0,
            step: 0,
            state: TxnState::Ready,
            start_tick: 0,
            finish_tick: 0,
            aborts: 0,
        })
        .collect();
    let mut metrics = SimMetrics::default();
    let mut tick: u64 = 0;

    let all_done = |runs: &[TxnRun]| runs.iter().all(|r| matches!(r.state, TxnState::Committed));

    while !all_done(&runs) {
        assert!(
            tick < cfg.max_ticks,
            "simulation exceeded max_ticks (livelock?)"
        );

        // 1. progress every transaction one tick; wound-wait/wait-die
        // victims are collected here and aborted after the sweep
        let mut wounds: Vec<usize> = Vec::new();
        #[allow(clippy::needless_range_loop)] // t indexes runs and owner tokens alike
        for t in 0..runs.len() {
            match runs[t].state {
                TxnState::Committed => continue,
                TxnState::BackingOff { until } => {
                    if tick >= until {
                        runs[t].state = TxnState::Ready;
                    }
                    continue;
                }
                TxnState::Working { remaining } => {
                    metrics.work_ticks += 1;
                    if remaining > 1 {
                        runs[t].state = TxnState::Working {
                            remaining: remaining - 1,
                        };
                    } else {
                        finish_step(&mut runs[t], &mut mgr, t);
                        if matches!(runs[t].state, TxnState::Committed) {
                            runs[t].finish_tick = tick + 1;
                            metrics.committed += 1;
                        }
                    }
                    continue;
                }
                TxnState::Ready | TxnState::Blocked => {
                    // (re)try acquiring the current step's locks
                    let (op_i, step_i) = (runs[t].op, runs[t].step);
                    let step = &runs[t].ops[op_i].steps[step_i];
                    let mut blocked = false;
                    for need in &step.locks {
                        let owner = match need.hold {
                            HoldUntil::TxnEnd => txn_owner(t),
                            HoldUntil::OpEnd => op_owner(t, op_i),
                            HoldUntil::StepEnd => step_owner(t, op_i, step_i),
                        };
                        let ancestors = match need.hold {
                            HoldUntil::TxnEnd => vec![],
                            HoldUntil::OpEnd => vec![txn_owner(t)],
                            HoldUntil::StepEnd => vec![op_owner(t, op_i), txn_owner(t)],
                        };
                        match mgr.acquire(owner, &ancestors, need.resource, &need.descriptor) {
                            LockOutcome::Granted => {}
                            LockOutcome::Blocked { holders } => {
                                blocked = true;
                                match cfg.policy {
                                    DeadlockPolicy::Detect => {}
                                    DeadlockPolicy::WoundWait => {
                                        // an older waiter wounds every
                                        // younger holder
                                        for h in holders {
                                            let ht = (h.0 / 1_000_000) as usize;
                                            if ht > t
                                                && !matches!(
                                                    runs[ht].state,
                                                    TxnState::Committed
                                                        | TxnState::BackingOff { .. }
                                                )
                                            {
                                                wounds.push(ht);
                                            }
                                        }
                                    }
                                    DeadlockPolicy::WaitDie => {
                                        // a younger waiter dies instead of
                                        // waiting on any older holder
                                        if holders.iter().any(|h| ((h.0 / 1_000_000) as usize) < t)
                                        {
                                            wounds.push(t);
                                        }
                                    }
                                }
                                break;
                            }
                        }
                    }
                    if blocked {
                        runs[t].state = TxnState::Blocked;
                        metrics.wait_ticks += 1;
                    } else {
                        let ticks = step.ticks.max(1);
                        runs[t].state = TxnState::Working { remaining: ticks };
                        metrics.work_ticks += 1;
                        if ticks == 1 {
                            finish_step(&mut runs[t], &mut mgr, t);
                            if matches!(runs[t].state, TxnState::Committed) {
                                runs[t].finish_tick = tick + 1;
                                metrics.committed += 1;
                            }
                        } else {
                            runs[t].state = TxnState::Working {
                                remaining: ticks - 1,
                            };
                        }
                    }
                }
            }
        }

        // 2a. wound-wait / wait-die victims collected during the sweep
        wounds.sort_unstable();
        wounds.dedup();
        for victim in wounds {
            if matches!(
                runs[victim].state,
                TxnState::Committed | TxnState::BackingOff { .. }
            ) {
                continue;
            }
            abort_txn(&mut runs[victim], &mut mgr, victim);
            metrics.deadlock_aborts += 1;
            let escalation = cfg.backoff as u64 * runs[victim].aborts.min(20);
            let jitter: u64 = rng.gen_range(0..=cfg.backoff) as u64;
            runs[victim].state = TxnState::BackingOff {
                until: tick + cfg.backoff as u64 + escalation + jitter,
            };
        }

        // 2b. deadlock detection (Detect policy only) + victim abort;
        // resolve every cycle this tick (bounded by the transaction
        // count), choosing the victim with the least completed work
        // (cheapest restart) and escalating its backoff with each abort
        // so thrashing pairs separate.
        if cfg.policy == DeadlockPolicy::Detect {
            for _ in 0..runs.len() {
                let Some(cycle) = mgr.find_deadlock(project_to_txn) else {
                    break;
                };
                let victim = cycle
                    .iter()
                    .map(|o| (o.0 / 1_000_000) as usize)
                    .min_by_key(|&t| (runs[t].op, std::cmp::Reverse(t)))
                    .expect("cycle non-empty");
                abort_txn(&mut runs[victim], &mut mgr, victim);
                metrics.deadlock_aborts += 1;
                let escalation = cfg.backoff as u64 * runs[victim].aborts.min(20);
                let jitter: u64 = rng.gen_range(0..=cfg.backoff) as u64;
                runs[victim].state = TxnState::BackingOff {
                    until: tick + cfg.backoff as u64 + escalation + jitter,
                };
            }
        }

        tick += 1;
    }

    metrics.makespan = runs.iter().map(|r| r.finish_tick).max().unwrap_or(0);
    let total_resp: u64 = runs
        .iter()
        .map(|r| r.finish_tick.saturating_sub(r.start_tick))
        .sum();
    metrics.mean_response = if runs.is_empty() {
        0.0
    } else {
        total_resp as f64 / runs.len() as f64
    };
    metrics
}

/// Advance a transaction past its just-finished step; releases StepEnd and
/// OpEnd owners as their scopes close, and everything at commit.
fn finish_step(run: &mut TxnRun, mgr: &mut LockManager, t: usize) {
    let (op_i, step_i) = (run.op, run.step);
    mgr.release_all(step_owner(t, op_i, step_i));
    if step_i + 1 < run.ops[op_i].steps.len() {
        run.step = step_i + 1;
        run.state = TxnState::Ready;
        return;
    }
    // operation complete
    mgr.release_all(op_owner(t, op_i));
    if op_i + 1 < run.ops.len() {
        run.op = op_i + 1;
        run.step = 0;
        run.state = TxnState::Ready;
        return;
    }
    // transaction complete
    mgr.release_all(txn_owner(t));
    run.state = TxnState::Committed;
}

/// Abort: release every owner the transaction may hold and restart it.
fn abort_txn(run: &mut TxnRun, mgr: &mut LockManager, t: usize) {
    for (o, op) in run.ops.iter().enumerate() {
        for s in 0..op.steps.len() {
            mgr.release_all(step_owner(t, o, s));
        }
        mgr.release_all(op_owner(t, o));
    }
    mgr.release_all(txn_owner(t));
    mgr.clear_waiting(txn_owner(t));
    run.op = 0;
    run.step = 0;
    run.aborts += 1;
}

// ---------------------------------------------------------------------
// Resource layout of the logical encyclopedia
// ---------------------------------------------------------------------

/// Knobs of the logical encyclopedia model.
#[derive(Debug, Clone, Copy)]
pub struct LogicalEncConfig {
    /// Keys per leaf — the paper's keys-per-page knob ("rough up to 500").
    pub keys_per_leaf: usize,
    /// Key universe size.
    pub key_space: usize,
    /// Work ticks per page access.
    pub page_ticks: u32,
}

impl Default for LogicalEncConfig {
    fn default() -> Self {
        LogicalEncConfig {
            keys_per_leaf: 32,
            key_space: 256,
            page_ticks: 2,
        }
    }
}

const R_ENC: u64 = 0;
const R_TREE: u64 = 1;
const R_ROOT_PAGE: u64 = 2;
const R_LEAF_BASE: u64 = 1_000;
const R_LEAF_PAGE_BASE: u64 = 100_000;
const R_ITEM_BASE: u64 = 200_000;
const R_ITEM_PAGE_BASE: u64 = 300_000;

fn leaf_of(key: usize, cfg: &LogicalEncConfig) -> u64 {
    (key / cfg.keys_per_leaf) as u64
}

/// Compile an encyclopedia workload (`crate::workloads::EncOp` lists)
/// into lock footprints under `protocol`.
pub fn compile_encyclopedia(
    txns: &[Vec<crate::workloads::EncOp>],
    cfg: &LogicalEncConfig,
    protocol: Protocol,
) -> CompiledWorkload {
    use crate::workloads::EncOp;

    let mut specs: Vec<(ResourceId, SpecRef)> = vec![
        (
            ResourceId(R_ENC),
            Arc::new(RangeSpec::ordered_container("enc")),
        ),
        (
            ResourceId(R_TREE),
            Arc::new(RangeSpec::ordered_container("tree")),
        ),
        (ResourceId(R_ROOT_PAGE), Arc::new(ReadWriteSpec)),
    ];
    let leaves = cfg.key_space.div_ceil(cfg.keys_per_leaf) as u64;
    for l in 0..leaves {
        specs.push((
            ResourceId(R_LEAF_BASE + l),
            Arc::new(KeyedSpec::search_structure("leaf")),
        ));
        specs.push((ResourceId(R_LEAF_PAGE_BASE + l), Arc::new(ReadWriteSpec)));
    }
    for k in 0..cfg.key_space as u64 {
        specs.push((ResourceId(R_ITEM_BASE + k), Arc::new(ReadWriteSpec)));
    }
    let item_pages = cfg.key_space.div_ceil(cfg.keys_per_leaf) as u64;
    for p in 0..item_pages {
        specs.push((ResourceId(R_ITEM_PAGE_BASE + p), Arc::new(ReadWriteSpec)));
    }

    let key_index = |k: &str| -> usize {
        k.trim_start_matches(|c: char| !c.is_ascii_digit())
            .parse::<usize>()
            .unwrap_or(0)
            % cfg.key_space
    };

    let rd = || ActionDescriptor::nullary(Method::Read);
    let wr = || ActionDescriptor::nullary(Method::Write);

    let compiled_txns = txns
        .iter()
        .map(|ops| {
            ops.iter()
                .map(|op| {
                    let mut steps: Vec<LogicalStep> = Vec::new();
                    let mut add = |locks: Vec<LockNeed>, ticks: u32| {
                        steps.push(LogicalStep { locks, ticks });
                    };
                    match (op, protocol) {
                        // ---------- conventional: page locks to txn end
                        (
                            EncOp::Insert(k) | EncOp::Change(k) | EncOp::Delete(k),
                            Protocol::PageTwoPhase,
                        ) => {
                            let ki = key_index(k);
                            let l = leaf_of(ki, cfg);
                            add(
                                vec![need(R_ROOT_PAGE, rd(), HoldUntil::TxnEnd)],
                                cfg.page_ticks,
                            );
                            add(
                                vec![need(R_LEAF_PAGE_BASE + l, wr(), HoldUntil::TxnEnd)],
                                cfg.page_ticks,
                            );
                            add(
                                vec![need(R_ITEM_PAGE_BASE + l, wr(), HoldUntil::TxnEnd)],
                                cfg.page_ticks,
                            );
                        }
                        (EncOp::Search(k), Protocol::PageTwoPhase) => {
                            let ki = key_index(k);
                            let l = leaf_of(ki, cfg);
                            add(
                                vec![need(R_ROOT_PAGE, rd(), HoldUntil::TxnEnd)],
                                cfg.page_ticks,
                            );
                            add(
                                vec![
                                    need(R_LEAF_PAGE_BASE + l, rd(), HoldUntil::TxnEnd),
                                    need(R_ITEM_PAGE_BASE + l, rd(), HoldUntil::TxnEnd),
                                ],
                                cfg.page_ticks,
                            );
                        }
                        (EncOp::ReadSeq, Protocol::PageTwoPhase) => {
                            for p in 0..item_pages {
                                add(
                                    vec![need(R_ITEM_PAGE_BASE + p, rd(), HoldUntil::TxnEnd)],
                                    cfg.page_ticks,
                                );
                            }
                        }
                        (EncOp::Range(lo, hi), Protocol::PageTwoPhase) => {
                            // read-lock every leaf page the interval touches
                            let (l1, l2) =
                                (leaf_of(key_index(lo), cfg), leaf_of(key_index(hi), cfg));
                            add(
                                vec![need(R_ROOT_PAGE, rd(), HoldUntil::TxnEnd)],
                                cfg.page_ticks,
                            );
                            for l in l1.min(l2)..=l1.max(l2) {
                                add(
                                    vec![need(R_LEAF_PAGE_BASE + l, rd(), HoldUntil::TxnEnd)],
                                    cfg.page_ticks,
                                );
                            }
                        }
                        // ---------- nested protocols: semantic locks +
                        // short page locks (hold discipline varies)
                        (op2, Protocol::OpenNested | Protocol::ClosedNested) => {
                            let page_hold = if protocol == Protocol::OpenNested {
                                HoldUntil::StepEnd
                            } else {
                                HoldUntil::TxnEnd
                            };
                            let leaf_hold = if protocol == Protocol::OpenNested {
                                HoldUntil::OpEnd
                            } else {
                                HoldUntil::TxnEnd
                            };
                            match op2 {
                                EncOp::Insert(k) | EncOp::Delete(k) => {
                                    let ki = key_index(k);
                                    let l = leaf_of(ki, cfg);
                                    let m = if matches!(op2, EncOp::Insert(_)) {
                                        Method::Insert
                                    } else {
                                        Method::Delete
                                    };
                                    let kd = ActionDescriptor::keyed(m, k);
                                    add(
                                        vec![
                                            need2(R_ENC, kd.clone(), HoldUntil::TxnEnd),
                                            need2(R_TREE, kd.clone(), HoldUntil::TxnEnd),
                                            need(R_ROOT_PAGE, rd(), page_hold),
                                        ],
                                        cfg.page_ticks,
                                    );
                                    add(
                                        vec![
                                            need2(R_LEAF_BASE + l, kd, leaf_hold),
                                            need(R_LEAF_PAGE_BASE + l, wr(), page_hold),
                                        ],
                                        cfg.page_ticks,
                                    );
                                    add(
                                        vec![need(R_ITEM_PAGE_BASE + l, wr(), page_hold)],
                                        cfg.page_ticks,
                                    );
                                }
                                EncOp::Change(k) => {
                                    let ki = key_index(k);
                                    let l = leaf_of(ki, cfg);
                                    let kd = ActionDescriptor::keyed(Method::Update, k);
                                    add(
                                        vec![
                                            need2(R_ENC, kd.clone(), HoldUntil::TxnEnd),
                                            need2(
                                                R_TREE,
                                                ActionDescriptor::keyed(Method::Search, k),
                                                HoldUntil::TxnEnd,
                                            ),
                                            need(R_ROOT_PAGE, rd(), page_hold),
                                        ],
                                        cfg.page_ticks,
                                    );
                                    add(
                                        vec![
                                            need2(
                                                R_LEAF_BASE + l,
                                                ActionDescriptor::keyed(Method::Search, k),
                                                leaf_hold,
                                            ),
                                            need(R_LEAF_PAGE_BASE + l, rd(), page_hold),
                                        ],
                                        cfg.page_ticks,
                                    );
                                    add(
                                        vec![
                                            need(R_ITEM_BASE + ki as u64, wr(), HoldUntil::TxnEnd),
                                            need(R_ITEM_PAGE_BASE + l, wr(), page_hold),
                                        ],
                                        cfg.page_ticks,
                                    );
                                }
                                EncOp::Search(k) => {
                                    let ki = key_index(k);
                                    let l = leaf_of(ki, cfg);
                                    let kd = ActionDescriptor::keyed(Method::Search, k);
                                    add(
                                        vec![
                                            need2(R_ENC, kd.clone(), HoldUntil::TxnEnd),
                                            need2(R_TREE, kd.clone(), HoldUntil::TxnEnd),
                                            need(R_ROOT_PAGE, rd(), page_hold),
                                        ],
                                        cfg.page_ticks,
                                    );
                                    add(
                                        vec![
                                            need2(R_LEAF_BASE + l, kd, leaf_hold),
                                            need(R_LEAF_PAGE_BASE + l, rd(), page_hold),
                                            need(R_ITEM_BASE + ki as u64, rd(), HoldUntil::TxnEnd),
                                            need(R_ITEM_PAGE_BASE + l, rd(), page_hold),
                                        ],
                                        cfg.page_ticks,
                                    );
                                }
                                EncOp::ReadSeq => {
                                    add(
                                        vec![need2(
                                            R_ENC,
                                            ActionDescriptor::nullary(Method::ReadSeq),
                                            HoldUntil::TxnEnd,
                                        )],
                                        1,
                                    );
                                    for p in 0..item_pages {
                                        add(
                                            vec![need(R_ITEM_PAGE_BASE + p, rd(), page_hold)],
                                            cfg.page_ticks,
                                        );
                                    }
                                }
                                EncOp::Range(lo, hi) => {
                                    // one semantic interval lock to commit;
                                    // short page reads per touched leaf
                                    let kd = ActionDescriptor::range(Method::RangeScan, lo, hi);
                                    add(
                                        vec![
                                            need2(R_ENC, kd.clone(), HoldUntil::TxnEnd),
                                            need2(R_TREE, kd, HoldUntil::TxnEnd),
                                            need(R_ROOT_PAGE, rd(), page_hold),
                                        ],
                                        cfg.page_ticks,
                                    );
                                    let (l1, l2) =
                                        (leaf_of(key_index(lo), cfg), leaf_of(key_index(hi), cfg));
                                    for l in l1.min(l2)..=l1.max(l2) {
                                        add(
                                            vec![need(R_LEAF_PAGE_BASE + l, rd(), page_hold)],
                                            cfg.page_ticks,
                                        );
                                    }
                                }
                            }
                        }
                    }
                    LogicalOp { steps }
                })
                .collect()
        })
        .collect();

    CompiledWorkload {
        txns: compiled_txns,
        specs,
    }
}

fn need(resource: u64, descriptor: ActionDescriptor, hold: HoldUntil) -> LockNeed {
    LockNeed {
        resource: ResourceId(resource),
        descriptor,
        hold,
    }
}

fn need2(resource: u64, descriptor: ActionDescriptor, hold: HoldUntil) -> LockNeed {
    need(resource, descriptor, hold)
}

// ---------------------------------------------------------------------
// Cooperative editing model (experiment B3)
// ---------------------------------------------------------------------

/// Knobs of the shared-document model.
#[derive(Debug, Clone, Copy)]
pub struct LogicalDocConfig {
    /// Sections per storage page (several sections share a page, the
    /// false-sharing source under page locking).
    pub sections_per_page: usize,
    /// Total sections.
    pub sections: usize,
}

impl Default for LogicalDocConfig {
    fn default() -> Self {
        LogicalDocConfig {
            sections_per_page: 4,
            sections: 8,
        }
    }
}

const R_SECTION_BASE: u64 = 500_000;
const R_DOC_PAGE_BASE: u64 = 600_000;

/// Compile author sessions ([`crate::workloads::EditStep`]s) into lock
/// footprints under `protocol`. Each author session is one long
/// transaction; each edit step writes one section.
pub fn compile_editing(
    authors: &[Vec<crate::workloads::EditStep>],
    cfg: &LogicalDocConfig,
    protocol: Protocol,
) -> CompiledWorkload {
    let mut specs: Vec<(ResourceId, SpecRef)> = Vec::new();
    for s in 0..cfg.sections as u64 {
        specs.push((ResourceId(R_SECTION_BASE + s), Arc::new(ReadWriteSpec)));
    }
    let pages = cfg.sections.div_ceil(cfg.sections_per_page) as u64;
    for p in 0..pages {
        specs.push((ResourceId(R_DOC_PAGE_BASE + p), Arc::new(ReadWriteSpec)));
    }

    // An edit step = long thinking/typing, then a short page write. The
    // protocols differ in what covers the thinking and how long the page
    // stays locked:
    //  * page 2PL has no semantic level — the page write lock, once
    //    taken, persists to session end and false-shares the page;
    //  * open nesting isolates the SECTION for the session and touches
    //    the page only for the short write;
    //  * closed nesting keeps both to session end.
    const WRITE_TICKS: u32 = 2;
    let wr = || ActionDescriptor::nullary(Method::Write);
    let txns = authors
        .iter()
        .map(|steps| {
            steps
                .iter()
                .map(|st| {
                    let page = (st.section / cfg.sections_per_page) as u64;
                    let section = R_SECTION_BASE + st.section as u64;
                    let (think_locks, write_locks) = match protocol {
                        Protocol::PageTwoPhase => (
                            vec![],
                            vec![need(R_DOC_PAGE_BASE + page, wr(), HoldUntil::TxnEnd)],
                        ),
                        Protocol::OpenNested => (
                            vec![need(section, wr(), HoldUntil::TxnEnd)],
                            vec![need(R_DOC_PAGE_BASE + page, wr(), HoldUntil::StepEnd)],
                        ),
                        Protocol::ClosedNested => (
                            vec![need(section, wr(), HoldUntil::TxnEnd)],
                            vec![need(R_DOC_PAGE_BASE + page, wr(), HoldUntil::TxnEnd)],
                        ),
                    };
                    LogicalOp {
                        steps: vec![
                            LogicalStep {
                                locks: think_locks,
                                ticks: st.duration,
                            },
                            LogicalStep {
                                locks: write_locks,
                                ticks: WRITE_TICKS,
                            },
                        ],
                    }
                })
                .collect()
        })
        .collect();
    CompiledWorkload { txns, specs }
}

// ---------------------------------------------------------------------
// Banking model (escrow vs read/write account locking)
// ---------------------------------------------------------------------

const R_ACCOUNT_BASE: u64 = 700_000;
const R_ACCOUNT_PAGE_BASE: u64 = 800_000;

/// Knobs of the banking model.
#[derive(Debug, Clone, Copy)]
pub struct LogicalBankConfig {
    /// Number of accounts.
    pub accounts: usize,
    /// Accounts per storage page.
    pub accounts_per_page: usize,
    /// Ticks per account access.
    pub op_ticks: u32,
}

impl Default for LogicalBankConfig {
    fn default() -> Self {
        LogicalBankConfig {
            accounts: 16,
            accounts_per_page: 8,
            op_ticks: 2,
        }
    }
}

/// Compile a banking workload under `protocol`. The semantic gain here is
/// the **escrow** commutativity of deposits/withdrawals: under the
/// open-nested protocol concurrent updates to one hot account coexist,
/// while page 2PL serializes them (and false-shares accounts on a page).
pub fn compile_banking(
    txns: &[Vec<crate::workloads::BankOp>],
    cfg: &LogicalBankConfig,
    protocol: Protocol,
) -> CompiledWorkload {
    use crate::workloads::BankOp;
    use oodb_core::commutativity::EscrowSpec;
    use oodb_core::value::Value;

    let mut specs: Vec<(ResourceId, SpecRef)> = Vec::new();
    for a in 0..cfg.accounts as u64 {
        specs.push((
            ResourceId(R_ACCOUNT_BASE + a),
            Arc::new(EscrowSpec::unbounded()),
        ));
    }
    let pages = cfg.accounts.div_ceil(cfg.accounts_per_page) as u64;
    for p in 0..pages {
        specs.push((ResourceId(R_ACCOUNT_PAGE_BASE + p), Arc::new(ReadWriteSpec)));
    }

    let page_of = |acc: usize| R_ACCOUNT_PAGE_BASE + (acc / cfg.accounts_per_page) as u64;
    let rd = || ActionDescriptor::nullary(Method::Read);
    let wr = || ActionDescriptor::nullary(Method::Write);

    let account_step = |acc: usize, method: Method, amount: i64| -> LogicalStep {
        let page_mode = || match method {
            Method::Balance => rd(),
            _ => wr(),
        };
        let semantic = ActionDescriptor::new(method.clone(), vec![Value::Int(amount)]);
        let locks = match protocol {
            Protocol::PageTwoPhase => vec![need(page_of(acc), page_mode(), HoldUntil::TxnEnd)],
            Protocol::OpenNested => vec![
                need(R_ACCOUNT_BASE + acc as u64, semantic, HoldUntil::TxnEnd),
                need(page_of(acc), page_mode(), HoldUntil::StepEnd),
            ],
            Protocol::ClosedNested => vec![
                need(R_ACCOUNT_BASE + acc as u64, semantic, HoldUntil::TxnEnd),
                need(page_of(acc), page_mode(), HoldUntil::TxnEnd),
            ],
        };
        LogicalStep {
            locks,
            ticks: cfg.op_ticks,
        }
    };

    let compiled = txns
        .iter()
        .map(|ops| {
            ops.iter()
                .map(|op| {
                    let steps = match op {
                        BankOp::Deposit { acc, amount } => {
                            vec![account_step(*acc, Method::Deposit, *amount)]
                        }
                        BankOp::Withdraw { acc, amount } => {
                            vec![account_step(*acc, Method::Withdraw, *amount)]
                        }
                        BankOp::Transfer { from, to, amount } => vec![
                            account_step(*from, Method::Withdraw, *amount),
                            account_step(*to, Method::Deposit, *amount),
                        ],
                        BankOp::Balance { acc } => vec![account_step(*acc, Method::Balance, 0)],
                    };
                    LogicalOp { steps }
                })
                .collect()
        })
        .collect();
    CompiledWorkload {
        txns: compiled,
        specs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{
        banking_workload, editing_workload, encyclopedia_workload, BankWorkloadConfig, EditStep,
        EditWorkloadConfig, EncMix, EncWorkloadConfig,
    };

    fn enc_metrics(protocol: Protocol, seed: u64, mix: EncMix) -> SimMetrics {
        let wcfg = EncWorkloadConfig {
            txns: 8,
            ops_per_txn: 6,
            key_space: 256,
            mix,
            seed,
            preload: 0,
            ..Default::default()
        };
        let w = encyclopedia_workload(&wcfg);
        let lcfg = LogicalEncConfig::default();
        let compiled = compile_encyclopedia(&w.txn_ops, &lcfg, protocol);
        run_simulation(&compiled, &SimConfig::default())
    }

    #[test]
    fn all_protocols_complete_all_txns() {
        for p in Protocol::all() {
            let m = enc_metrics(p, 3, EncMix::update_heavy());
            assert_eq!(m.committed, 8, "{}", p.name());
            assert!(m.makespan > 0);
        }
    }

    #[test]
    fn open_nested_waits_no_more_than_page_2pl() {
        // averaged over seeds, semantic locking should not block more
        let mut open_wait = 0u64;
        let mut page_wait = 0u64;
        for seed in 0..5 {
            open_wait += enc_metrics(Protocol::OpenNested, seed, EncMix::insert_only()).wait_ticks;
            page_wait +=
                enc_metrics(Protocol::PageTwoPhase, seed, EncMix::insert_only()).wait_ticks;
        }
        assert!(
            open_wait <= page_wait,
            "open-nested waited {open_wait} > page-2pl {page_wait}"
        );
    }

    #[test]
    fn closed_nested_never_beats_open_nested() {
        let mut open = 0u64;
        let mut closed = 0u64;
        for seed in 0..5 {
            open += enc_metrics(Protocol::OpenNested, seed, EncMix::update_heavy()).wait_ticks;
            closed += enc_metrics(Protocol::ClosedNested, seed, EncMix::update_heavy()).wait_ticks;
        }
        assert!(open <= closed, "open {open} > closed {closed}");
    }

    #[test]
    fn deadlocks_are_broken_and_txns_finish() {
        // two authors editing each other's sections in opposite orders
        // under page 2PL: classic deadlock
        let authors = vec![
            vec![
                EditStep {
                    section: 0,
                    duration: 5,
                },
                EditStep {
                    section: 4,
                    duration: 5,
                },
            ],
            vec![
                EditStep {
                    section: 4,
                    duration: 5,
                },
                EditStep {
                    section: 0,
                    duration: 5,
                },
            ],
        ];
        let cfg = LogicalDocConfig {
            sections_per_page: 1,
            sections: 8,
        };
        let compiled = compile_editing(&authors, &cfg, Protocol::PageTwoPhase);
        let m = run_simulation(&compiled, &SimConfig::default());
        assert_eq!(m.committed, 2);
        assert!(m.deadlock_aborts >= 1, "expected a deadlock: {m:?}");
    }

    #[test]
    fn editing_false_sharing_hurts_page_2pl_only() {
        // authors on DISJOINT sections that share pages: page 2PL
        // serializes them, open nesting does not
        let cfg = EditWorkloadConfig {
            authors: 4,
            sections: 4,
            steps_per_author: 4,
            overlap: 0.0,
            step_duration: 8,
            seed: 2,
        };
        let authors = editing_workload(&cfg);
        let dcfg = LogicalDocConfig {
            sections_per_page: 4, // all four sections on ONE page
            sections: 4,
        };
        let page = run_simulation(
            &compile_editing(&authors, &dcfg, Protocol::PageTwoPhase),
            &SimConfig::default(),
        );
        let open = run_simulation(
            &compile_editing(&authors, &dcfg, Protocol::OpenNested),
            &SimConfig::default(),
        );
        assert_eq!(page.committed, 4);
        assert_eq!(open.committed, 4);
        assert!(
            open.makespan < page.makespan,
            "open {} must beat page-2pl {} on disjoint sections",
            open.makespan,
            page.makespan
        );
        assert!(open.wait_ticks < page.wait_ticks);
    }

    #[test]
    fn escrow_beats_page_locking_on_hot_accounts() {
        // everyone hammers few accounts: escrow modes coexist, page locks
        // serialize
        let w = banking_workload(&BankWorkloadConfig {
            txns: 8,
            ops_per_txn: 5,
            accounts: 4,
            read_fraction: 0.1,
            seed: 1,
        });
        let cfg = LogicalBankConfig {
            accounts: 4,
            accounts_per_page: 4,
            op_ticks: 3,
        };
        let page = run_simulation(
            &compile_banking(&w, &cfg, Protocol::PageTwoPhase),
            &SimConfig::default(),
        );
        let open = run_simulation(
            &compile_banking(&w, &cfg, Protocol::OpenNested),
            &SimConfig::default(),
        );
        assert_eq!(page.committed, 8);
        assert_eq!(open.committed, 8);
        assert!(
            open.makespan < page.makespan,
            "escrow must beat page locks: open {} vs page {}",
            open.makespan,
            page.makespan
        );
        // (wait-tick totals are noisier than makespan — restarts under
        // page 2PL reset waiting counters — so the makespan is the claim)
    }

    #[test]
    fn wound_wait_and_wait_die_are_deadlock_free_and_complete() {
        let w = encyclopedia_workload(&EncWorkloadConfig {
            txns: 16,
            ops_per_txn: 6,
            key_space: 64,
            preload: 0,
            mix: EncMix::update_heavy(),
            seed: 4,
            ..Default::default()
        });
        let lcfg = LogicalEncConfig::default();
        for policy in [DeadlockPolicy::WoundWait, DeadlockPolicy::WaitDie] {
            for p in Protocol::all() {
                let m = run_simulation(
                    &compile_encyclopedia(&w.txn_ops, &lcfg, p),
                    &SimConfig {
                        policy,
                        ..Default::default()
                    },
                );
                assert_eq!(m.committed, 16, "{policy:?} {}", p.name());
            }
        }
    }

    #[test]
    fn policies_are_deterministic_and_comparable() {
        let w = banking_workload(&BankWorkloadConfig::default());
        let cfg = LogicalBankConfig::default();
        for policy in [
            DeadlockPolicy::Detect,
            DeadlockPolicy::WoundWait,
            DeadlockPolicy::WaitDie,
        ] {
            let compiled = compile_banking(&w, &cfg, Protocol::OpenNested);
            let a = run_simulation(
                &compiled,
                &SimConfig {
                    policy,
                    ..Default::default()
                },
            );
            let b = run_simulation(
                &compiled,
                &SimConfig {
                    policy,
                    ..Default::default()
                },
            );
            assert_eq!(a, b, "{policy:?}");
            assert_eq!(a.committed, w.len());
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = enc_metrics(Protocol::OpenNested, 9, EncMix::update_heavy());
        let b = enc_metrics(Protocol::OpenNested, 9, EncMix::update_heavy());
        assert_eq!(a, b);
    }
}
