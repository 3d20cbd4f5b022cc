//! Incremental-vs-batch certification differential suite.
//!
//! The incremental certification backend maintains one live
//! [`IncrementalSchedules`] across commits and feeds it only the actions
//! appended since the last attempt; the from-scratch backend re-infers
//! the dependency graph from the restricted history on every attempt.
//! Both must be *observationally identical*: every commit/wait/abort
//! decision, every victim grant, every cascade, and the final database
//! state must agree exactly.
//!
//! Two oracles pin this:
//!
//! 1. A deterministic single-threaded virtual scheduler (the
//!    `interleavings.rs` harness, extended with a decision log) replays
//!    identical op-level schedules under both backends and asserts the
//!    *full decision trajectories* are equal — exhaustively over every
//!    interleaving of small conflicting workloads, and property-based
//!    over random workloads × random schedules.
//! 2. The real multi-threaded engine runs random private-write
//!    workloads under both backends for every strategy × shard × exec
//!    combination and asserts equal commits, audits, and final states.

use oodb_btree::{CompensatedEncyclopedia, Encyclopedia, EncyclopediaConfig};
use oodb_engine::{
    audit, shard_of_key, CcKind, CertBackend, ConcurrencyControl, ConcurrentEnc, EngineConfig,
    EngineMetrics, EngineOutput, EngineShared, ExecPath, FinishOutcome, OpGrant, OptimisticCc,
    OptimisticExec, ShardedOptimisticCc, TxnHandle,
};
use oodb_lock::OwnerId;
use oodb_model::TxnCtx;
use oodb_sim::exec::apply_op;
use oodb_sim::EncOp;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

/// Every interleaving of streams with the given step counts (see
/// `interleavings.rs`; duplicated here because integration tests cannot
/// share items).
fn interleavings(counts: &[usize]) -> Vec<Vec<usize>> {
    fn rec(counts: &mut [usize], cur: &mut Vec<usize>, total: usize, out: &mut Vec<Vec<usize>>) {
        if cur.len() == total {
            out.push(cur.clone());
            return;
        }
        for i in 0..counts.len() {
            if counts[i] > 0 {
                counts[i] -= 1;
                cur.push(i);
                rec(counts, cur, total, out);
                cur.pop();
                counts[i] += 1;
            }
        }
    }
    let total = counts.iter().sum();
    let mut out = Vec::new();
    rec(&mut counts.to_vec(), &mut Vec::new(), total, &mut out);
    out
}

/// One attempt of one logical transaction inside the virtual scheduler.
struct Attempt {
    ops: Vec<EncOp>,
    /// Writes granted but not applied yet: a snapshot control
    /// ([`ConcurrencyControl::buffers_writes`]) installs them at the
    /// commit point, as the engine's worker does.
    buffered: Vec<EncOp>,
    cursor: usize,
    attempt: u32,
    ctx: TxnCtx,
    handle: TxnHandle,
}

impl Attempt {
    /// The text tag its writes carry: the job number, 0 for the preload.
    fn tag(&self) -> usize {
        (self.handle.job as usize).wrapping_add(1)
    }
}

/// The outcome of one fully replayed schedule, including the complete
/// ordered log of concurrency-control decisions. Two backends that make
/// the same decisions produce byte-identical logs; any divergence in a
/// wait check, a validation verdict, a doom, or a cascade shows up as
/// the first differing log line.
#[derive(Debug, PartialEq, Eq)]
struct RunOutcome {
    decisions: Vec<String>,
    committed: usize,
    retries: u32,
    decentralized_ok: bool,
    global_ok: bool,
    final_state: Vec<(String, String)>,
}

/// Single-threaded virtual scheduler with a decision log: executes
/// `schedule` step by step against `cc`, recording every grant, finish
/// verdict, doom, and forced wait-cycle break in order.
struct VirtualScheduler {
    shared: EngineShared,
    cc: Arc<dyn ConcurrencyControl>,
    txns: Vec<Vec<EncOp>>,
    active: Vec<Option<Attempt>>,
    pending: VecDeque<usize>,
    retry: VecDeque<(usize, u32)>,
    committed: usize,
    retries: u32,
    decisions: Vec<String>,
}

impl VirtualScheduler {
    fn new(cc: Arc<dyn ConcurrencyControl>, txns: &[Vec<EncOp>], preload: &[String]) -> Self {
        let rec = oodb_model::Recorder::new();
        let enc = Encyclopedia::create(
            rec.clone(),
            EncyclopediaConfig {
                fanout: 8,
                pool_frames: 1024,
                ..EncyclopediaConfig::default()
            },
        );
        let shared = EngineShared {
            rec,
            enc: ConcurrentEnc::new(CompensatedEncyclopedia::new(enc), ExecPath::SingleMutex),
            metrics: EngineMetrics::with_shards(cc.shards()),
            trace: oodb_engine::Tracer::disabled(),
            dur: None,
        };
        let mut vs = VirtualScheduler {
            shared,
            cc,
            txns: txns.to_vec(),
            active: (0..txns.len()).map(|_| None).collect(),
            pending: VecDeque::new(),
            retry: VecDeque::new(),
            committed: 0,
            retries: 0,
            decisions: Vec::new(),
        };
        if !preload.is_empty() {
            let ops: Vec<EncOp> = preload.iter().map(|k| EncOp::Insert(k.clone())).collect();
            let setup = vs.begin(u64::MAX, "Setup".into(), ops);
            let done = vs.run_serially(setup);
            assert!(done, "uncontended preload must commit");
            vs.committed -= 1; // Setup is not a workload transaction
            vs.decisions.clear(); // preload decisions are invariant
        }
        vs
    }

    fn begin(&mut self, job: u64, name: String, ops: Vec<EncOp>) -> Attempt {
        let ctx = self.shared.rec.begin_txn(name);
        let handle = TxnHandle {
            job,
            attempt: 0,
            txn: oodb_core::ids::TxnIdx(ctx.txn_number()),
            owner: OwnerId(u64::from(ctx.txn_number())),
        };
        Attempt {
            ops,
            buffered: Vec::new(),
            cursor: 0,
            attempt: 0,
            ctx,
            handle,
        }
    }

    fn attempt_name(job: u64, attempt: u32) -> String {
        if attempt == 0 {
            format!("J{}", job + 1)
        } else {
            format!("J{}r{attempt}", job + 1)
        }
    }

    fn step(&mut self, t: usize) {
        if self.active[t].is_none() && !self.txns[t].is_empty() && !self.already_started(t) {
            let a = self.begin(
                t as u64,
                Self::attempt_name(t as u64, 0),
                self.txns[t].clone(),
            );
            self.active[t] = Some(a);
        }
        let Some(mut a) = self.active[t].take() else {
            return;
        };
        if a.cursor >= a.ops.len() {
            self.active[t] = Some(a);
            return;
        }
        if self.cc.is_doomed(&a.handle) {
            self.decisions.push(format!("t{t}a{}: doomed", a.attempt));
            self.abort_attempt(t, a);
            return;
        }
        let op = a.ops[a.cursor].clone();
        match self.cc.before_op(&self.shared, &a.handle, &op) {
            OpGrant::Granted => {
                self.decisions
                    .push(format!("t{t}a{} op{}: granted", a.attempt, a.cursor));
                self.execute(&mut a, op);
                a.cursor += 1;
            }
            OpGrant::AbortVictim => {
                self.decisions
                    .push(format!("t{t}a{} op{}: victim", a.attempt, a.cursor));
                self.abort_attempt(t, a);
                return;
            }
        }
        if a.cursor == a.ops.len() {
            let verdict = self.finish(&mut a);
            self.decisions
                .push(format!("t{t}a{}: {verdict:?}", a.attempt));
            match verdict {
                FinishOutcome::Committed => self.commit_attempt(a),
                FinishOutcome::Wait => {
                    self.pending.push_back(t);
                    self.active[t] = Some(a);
                }
                FinishOutcome::Abort => self.abort_attempt(t, a),
            }
        } else {
            self.active[t] = Some(a);
        }
        self.drain_pending(false);
    }

    /// Run a granted operation now, or keep a write back for the commit
    /// point when the control buffers them.
    fn execute(&self, a: &mut Attempt, op: EncOp) {
        let is_write = matches!(op, EncOp::Insert(_) | EncOp::Change(_) | EncOp::Delete(_));
        if is_write && self.cc.buffers_writes() {
            a.buffered.push(op);
        } else {
            let tag = a.tag();
            apply_op(&self.shared.enc.lock(), &mut a.ctx, &op, tag);
        }
    }

    /// The commit point: install what was buffered, then ask the control.
    fn finish(&self, a: &mut Attempt) -> FinishOutcome {
        let tag = a.tag();
        for op in std::mem::take(&mut a.buffered) {
            apply_op(&self.shared.enc.lock(), &mut a.ctx, &op, tag);
        }
        self.cc.try_finish(&self.shared, &a.handle)
    }

    fn already_started(&self, t: usize) -> bool {
        self.active[t].is_some() || self.retry.iter().any(|&(r, _)| r == t)
    }

    fn commit_attempt(&mut self, a: Attempt) {
        self.shared.enc.lock().commit(a.ctx);
        self.cc.after_commit(&self.shared, &a.handle);
        self.committed += 1;
    }

    fn abort_attempt(&mut self, t: usize, a: Attempt) {
        let next = a.attempt + 1;
        {
            let enc = self.shared.enc.lock();
            let mut comp = self.shared.rec.begin_txn(format!(
                "C(J{}a{})",
                (t as u64).wrapping_add(1),
                a.attempt
            ));
            self.cc
                .retire(&self.shared, oodb_core::ids::TxnIdx(comp.txn_number()));
            enc.abort(a.ctx, &mut comp);
        }
        self.cc.after_abort(&self.shared, &a.handle);
        self.retries += 1;
        assert!(next <= 8, "txn {t} must not abort forever");
        self.retry.push_back((t, next));
    }

    fn drain_pending(&mut self, force: bool) {
        loop {
            let mut progressed = false;
            for _ in 0..self.pending.len() {
                let Some(t) = self.pending.pop_front() else {
                    break;
                };
                let Some(mut a) = self.active[t].take() else {
                    continue;
                };
                let verdict = self.finish(&mut a);
                self.decisions
                    .push(format!("drain t{t}a{}: {verdict:?}", a.attempt));
                match verdict {
                    FinishOutcome::Committed => {
                        self.commit_attempt(a);
                        progressed = true;
                    }
                    FinishOutcome::Abort => {
                        self.abort_attempt(t, a);
                        progressed = true;
                    }
                    FinishOutcome::Wait => {
                        self.active[t] = Some(a);
                        self.pending.push_back(t);
                    }
                }
            }
            if self.pending.is_empty() {
                return;
            }
            if !progressed {
                if !force {
                    return;
                }
                let (pos, _) = self
                    .pending
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &t)| {
                        self.active[t].as_ref().map(|a| a.handle.txn.0).unwrap_or(0)
                    })
                    .expect("pending is non-empty");
                let t = self.pending.remove(pos).unwrap();
                self.decisions.push(format!("break t{t}"));
                if let Some(a) = self.active[t].take() {
                    self.abort_attempt(t, a);
                }
            }
        }
    }

    fn run_serially(&mut self, mut a: Attempt) -> bool {
        let t = a.handle.job as usize;
        while a.cursor < a.ops.len() {
            if self.cc.is_doomed(&a.handle) {
                self.decisions
                    .push(format!("serial t{t}a{}: doomed", a.attempt));
                self.abort_attempt(t, a);
                return false;
            }
            let op = a.ops[a.cursor].clone();
            match self.cc.before_op(&self.shared, &a.handle, &op) {
                OpGrant::Granted => {
                    self.execute(&mut a, op);
                    a.cursor += 1;
                }
                OpGrant::AbortVictim => {
                    self.decisions
                        .push(format!("serial t{t}a{}: victim", a.attempt));
                    self.abort_attempt(t, a);
                    return false;
                }
            }
        }
        for _ in 0..64 {
            let verdict = self.finish(&mut a);
            self.decisions
                .push(format!("serial t{t}a{}: {verdict:?}", a.attempt));
            match verdict {
                FinishOutcome::Committed => {
                    self.commit_attempt(a);
                    return true;
                }
                FinishOutcome::Abort => {
                    self.abort_attempt(t, a);
                    return false;
                }
                FinishOutcome::Wait => continue,
            }
        }
        panic!("serial attempt with no live predecessors cannot wait forever");
    }

    fn run(mut self, schedule: &[usize]) -> RunOutcome {
        for &t in schedule {
            self.step(t);
        }
        self.drain_pending(true);
        while let Some((t, attempt)) = self.retry.pop_front() {
            let mut a = self.begin(
                t as u64,
                Self::attempt_name(t as u64, attempt),
                self.txns[t].clone(),
            );
            a.attempt = attempt;
            a.handle.attempt = attempt;
            self.run_serially(a);
        }
        let audit_out = audit(&self.shared.rec, self.cc.as_ref());
        let final_state = {
            let enc = self.shared.enc.lock();
            let mut ctx = self.shared.rec.begin_txn("Dump");
            let mut items: Vec<(String, String)> = enc
                .read_seq(&mut ctx)
                .into_iter()
                .map(|(_, k, text)| (k, text))
                .collect();
            items.sort();
            items
        };
        RunOutcome {
            decisions: self.decisions,
            committed: self.committed,
            retries: self.retries,
            decentralized_ok: audit_out.report.oo_decentralized.is_ok(),
            global_ok: audit_out.report.oo_global.is_ok(),
            final_state,
        }
    }
}

/// The in-place optimistic strategies under differential test: the
/// global certifier and the sharded certifier at 1 and 3 shards.
const COMBOS: [(&str, Option<usize>); 3] = [
    ("optimistic", None),
    ("sharded/1", Some(1)),
    ("sharded/3", Some(3)),
];

/// The single certifier (`shards: None`) or the sharded one, executing
/// in place or — `snapshot` — with buffered writes (MVCC).
fn make_cc(
    shards: Option<usize>,
    backend: CertBackend,
    snapshot: bool,
) -> Arc<dyn ConcurrencyControl> {
    match (shards, snapshot) {
        (Some(n), false) => Arc::new(ShardedOptimisticCc::new(n).with_certification(backend)),
        (Some(n), true) => Arc::new(ShardedOptimisticCc::snapshot(n).with_certification(backend)),
        (None, false) => Arc::new(OptimisticCc::new().with_certification(backend)),
        (None, true) => Arc::new(OptimisticCc::snapshot().with_certification(backend)),
    }
}

fn replay(
    shards: Option<usize>,
    backend: CertBackend,
    txns: &[Vec<EncOp>],
    preload: &[String],
    schedule: &[usize],
) -> RunOutcome {
    VirtualScheduler::new(make_cc(shards, backend, false), txns, preload).run(schedule)
}

/// Run one schedule under both backends and require byte-identical
/// decision trajectories and outcomes.
fn assert_backends_agree(
    label: &str,
    shards: Option<usize>,
    txns: &[Vec<EncOp>],
    preload: &[String],
    schedule: &[usize],
) -> RunOutcome {
    let inc = replay(shards, CertBackend::Incremental, txns, preload, schedule);
    let scratch = replay(shards, CertBackend::FromScratch, txns, preload, schedule);
    assert_eq!(
        inc, scratch,
        "{label}: incremental and from-scratch certification diverged on schedule {schedule:?}"
    );
    inc
}

/// Three keys on three distinct shards of a 3-way partition.
fn three_cross_shard_keys() -> [String; 3] {
    let mut found: [Option<String>; 3] = [None, None, None];
    for i in 0.. {
        let k = format!("k{i:06}");
        let s = shard_of_key(&k, 3);
        if found[s].is_none() {
            found[s] = Some(k);
            if found.iter().all(Option::is_some) {
                break;
            }
        }
    }
    found.map(Option::unwrap)
}

fn conflicting_3txn_workload() -> (Vec<Vec<EncOp>>, Vec<String>) {
    let [ka, kb, _] = three_cross_shard_keys();
    let txns = vec![
        vec![EncOp::Insert(ka.clone()), EncOp::Change(ka.clone())],
        vec![EncOp::Change(ka.clone()), EncOp::Search(kb.clone())],
        vec![EncOp::Change(kb.clone()), EncOp::Search(ka)],
    ];
    (txns, vec![kb])
}

fn conflicting_4txn_workload() -> (Vec<Vec<EncOp>>, Vec<String>) {
    let [ka, kb, kc] = three_cross_shard_keys();
    let txns = vec![
        vec![EncOp::Change(ka.clone()), EncOp::Search(kb.clone())],
        vec![EncOp::Change(kb.clone()), EncOp::Search(ka.clone())],
        vec![EncOp::Insert(kc.clone()), EncOp::Search(kb.clone())],
        vec![EncOp::Search(kc)],
    ];
    (txns, vec![ka, kb])
}

/// Every op-level interleaving of the conflicting 3-transaction
/// workload, under every strategy: the incremental backend's decision
/// trajectory is identical to from-scratch inference, and the shared
/// sanity bar (all commit, audit clean) holds.
#[test]
fn every_3txn_interleaving_decisions_agree() {
    let (txns, preload) = conflicting_3txn_workload();
    let counts: Vec<usize> = txns.iter().map(Vec::len).collect();
    let all = interleavings(&counts);
    assert_eq!(all.len(), 90, "6!/(2!·2!·2!) interleavings");
    for (i, schedule) in all.iter().enumerate() {
        for (label, shards) in COMBOS {
            let out = assert_backends_agree(label, shards, &txns, &preload, schedule);
            assert_eq!(
                out.committed,
                txns.len(),
                "interleaving {i} ({label}): all txns commit"
            );
            assert!(
                out.decentralized_ok && out.global_ok,
                "interleaving {i} ({label}): merged audit must pass"
            );
        }
    }
}

/// Every op-level interleaving of the 4-transaction workload under the
/// 3-shard control (the path where incremental state is shared across
/// shard scopes), plus a global-certifier spot check every 9th merge.
#[test]
fn every_4txn_interleaving_decisions_agree_sharded() {
    let (txns, preload) = conflicting_4txn_workload();
    let counts: Vec<usize> = txns.iter().map(Vec::len).collect();
    let all = interleavings(&counts);
    assert_eq!(all.len(), 630, "7!/(2!·2!·2!·1!) interleavings");
    for (i, schedule) in all.iter().enumerate() {
        let out = assert_backends_agree("sharded/3", Some(3), &txns, &preload, schedule);
        assert_eq!(out.committed, txns.len(), "interleaving {i}: all commit");
        assert!(
            out.decentralized_ok && out.global_ok,
            "interleaving {i}: merged audit must pass"
        );
        if i % 9 == 0 {
            assert_backends_agree("optimistic", None, &txns, &preload, schedule);
        }
    }
}

/// The snapshot (MVCC) strategies: never wait, never doom, so nothing
/// but the certifier's own scope stands between a cycle and a commit.
const SNAPSHOT_COMBOS: [(&str, Option<usize>); 3] = [
    ("mvcc", None),
    ("sharded-mvcc/1", Some(1)),
    ("sharded-mvcc/3", Some(3)),
];

/// `X = [Search a, Change b]`, `T = [Change a]`, `R = [Search b,
/// Search a]` over a preloaded `{a, b}`.
fn read_only_anomaly_workload() -> (Vec<Vec<EncOp>>, Vec<String>) {
    let [a, b, _] = three_cross_shard_keys();
    let txns = vec![
        vec![EncOp::Search(a.clone()), EncOp::Change(b.clone())],
        vec![EncOp::Change(a.clone())],
        vec![EncOp::Search(b.clone()), EncOp::Search(a.clone())],
    ];
    (txns, vec![a, b])
}

/// ROADMAP soundness gap (b), pinned. Steps `X, T, R, X, R`: `X` reads
/// `a`; `T` writes `a` and commits; `R` begins and reads `b`; `X` writes
/// `b` and commits (`X → T`); `R` reads `a` and finishes, closing
/// `T → R → X → T`. A rule that settles `T` when `X` finalizes — `R`, the
/// only live transaction, began after `T` committed — takes out of `R`'s
/// scope a transaction the retained `X` still points at, and commits
/// the read-only anomaly. The cut keeps `T` while it keeps `X`.
#[test]
fn read_only_anomaly_through_a_settled_writer_is_rejected() {
    let (txns, preload) = read_only_anomaly_workload();
    let (x, t, r) = (0, 1, 2);
    let schedule = [x, t, r, x, r];
    for (label, shards) in SNAPSHOT_COMBOS {
        for backend in [CertBackend::Incremental, CertBackend::FromScratch] {
            let out = VirtualScheduler::new(make_cc(shards, backend, true), &txns, &preload)
                .run(&schedule);
            let verdicts: Vec<&str> = out
                .decisions
                .iter()
                .filter_map(|d| d.strip_prefix("t2a0: "))
                .collect();
            assert_eq!(
                verdicts,
                ["Abort"],
                "{label}/{backend:?}: R closes the cycle and must abort: {:?}",
                out.decisions
            );
            assert_eq!(out.committed, 3, "{label}/{backend:?}: R's retry commits");
            assert!(
                out.decentralized_ok && out.global_ok,
                "{label}/{backend:?}: audit of the committed projection"
            );
        }
    }
}

/// Every op-level interleaving of the anomaly workload and of the
/// 4-transaction workload under the snapshot strategies, both backends:
/// whatever is committed passes the audit. The in-place enumerations
/// above cannot show a scope that is too small — there the
/// commit-dependency wait orders the transactions before validation.
#[test]
fn every_snapshot_interleaving_passes_the_audit() {
    for (name, (txns, preload)) in [
        ("anomaly", read_only_anomaly_workload()),
        ("4txn", conflicting_4txn_workload()),
    ] {
        let counts: Vec<usize> = txns.iter().map(Vec::len).collect();
        for (i, schedule) in interleavings(&counts).iter().enumerate() {
            for (label, shards) in SNAPSHOT_COMBOS {
                for backend in [CertBackend::Incremental, CertBackend::FromScratch] {
                    let out =
                        VirtualScheduler::new(make_cc(shards, backend, true), &txns, &preload)
                            .run(schedule);
                    assert_eq!(
                        out.committed,
                        txns.len(),
                        "{name} interleaving {i} ({label}/{backend:?}): all commit"
                    );
                    assert!(
                        out.decentralized_ok && out.global_ok,
                        "{name} interleaving {i} ({label}/{backend:?}) {schedule:?}: \
                         committed projection must certify: {:?}",
                        out.decisions
                    );
                }
            }
        }
    }
}

/// Hot-key pool shared by every generated transaction (contention is
/// the point: waits, victim aborts, and cascades are where the two
/// backends could diverge).
fn hot_key(i: usize) -> String {
    format!("h{:02}", i % 4)
}

/// Decode one generated opcode for transaction `t`. Inserts target a
/// per-transaction key so generated workloads stay replayable; every
/// other opcode roams the hot pool.
fn decode(t: usize, code: u8, arg: usize) -> EncOp {
    match code {
        0 => EncOp::Change(hot_key(arg)),
        1 => EncOp::Delete(hot_key(arg)),
        2 => EncOp::Insert(format!("n{t:02}")),
        3 => EncOp::Search(hot_key(arg)),
        4 => {
            let (a, b) = (hot_key(arg), hot_key(arg + 2));
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            EncOp::Range(lo, hi)
        }
        _ => EncOp::ReadSeq,
    }
}

/// Build a concrete schedule from proptest-chosen merge picks: at each
/// step one of the streams with remaining ops is selected.
fn build_schedule(counts: &[usize], picks: &[usize]) -> Vec<usize> {
    let mut remaining = counts.to_vec();
    let total: usize = counts.iter().sum();
    let mut schedule = Vec::with_capacity(total);
    for step in 0..total {
        let nonempty: Vec<usize> = (0..remaining.len()).filter(|&i| remaining[i] > 0).collect();
        let pick = picks[step % picks.len()] % nonempty.len();
        let t = nonempty[pick];
        remaining[t] -= 1;
        schedule.push(t);
    }
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random contended workloads × random op-level schedules: the
    /// decision trajectories of the incremental and from-scratch
    /// backends must be identical under every strategy.
    #[test]
    fn random_schedules_decisions_agree(
        codes in prop::collection::vec(
            prop::collection::vec((0u8..6, 0usize..4), 1..4), 2..5),
        picks in prop::collection::vec(0usize..1 << 16, 12),
    ) {
        let txns: Vec<Vec<EncOp>> = codes
            .iter()
            .enumerate()
            .map(|(t, ops)| ops.iter().map(|&(c, a)| decode(t, c, a)).collect())
            .collect();
        let preload: Vec<String> = (0..4).map(hot_key).collect();
        let counts: Vec<usize> = txns.iter().map(Vec::len).collect();
        let schedule = build_schedule(&counts, &picks);
        for (label, shards) in COMBOS {
            let inc = replay(shards, CertBackend::Incremental, &txns, &preload, &schedule);
            let scratch = replay(shards, CertBackend::FromScratch, &txns, &preload, &schedule);
            prop_assert_eq!(
                &inc, &scratch,
                "{}: backends diverged on schedule {:?}", label, &schedule
            );
            prop_assert_eq!(inc.committed, txns.len(), "{}: all txns commit", label);
            prop_assert!(inc.decentralized_ok && inc.global_ok, "{}: audit", label);
        }
    }
}

// ---------------------------------------------------------------------
// Real-engine differential: multi-threaded runs cannot pin per-decision
// equality (thread timing differs), but with disjoint write partitions
// the final state is commit-order independent — so both backends must
// commit everything, audit clean, and agree bit-for-bit on final state.
// ---------------------------------------------------------------------

fn shared_key(i: usize) -> String {
    format!("s{:02}", i % 6)
}

fn private_key(t: usize, slot: usize) -> String {
    format!("p{t:02}x{slot}")
}

fn decode_private(t: usize, code: u8, roam: usize) -> EncOp {
    match code {
        0 => EncOp::Change(private_key(t, 0)),
        1 => EncOp::Insert(private_key(t, 1)),
        2 => EncOp::Delete(private_key(t, 0)),
        3 => EncOp::Search(shared_key(roam)),
        4 => EncOp::Search(private_key(roam % 8, 0)),
        _ => EncOp::ReadSeq,
    }
}

#[derive(Debug, Clone)]
struct Workload {
    txns: Vec<Vec<(u8, usize)>>,
    seed: u64,
}

fn engine_run(
    w: &Workload,
    shards: usize,
    exec: OptimisticExec,
    backend: CertBackend,
) -> EngineOutput {
    let mut preload: Vec<String> = (0..6).map(shared_key).collect();
    preload.extend((0..w.txns.len()).map(|t| private_key(t, 0)));
    let cfg = EngineConfig {
        workers: 4,
        queue_capacity: 16,
        shards,
        seed: w.seed,
        optimistic_exec: exec,
        certification: backend,
        ..EngineConfig::default()
    };
    let engine = oodb_engine::Engine::start(cfg, CcKind::Optimistic);
    engine.preload(&preload);
    for (t, codes) in w.txns.iter().enumerate() {
        let ops: Vec<EncOp> = codes
            .iter()
            .map(|&(code, roam)| decode_private(t, code, roam))
            .collect();
        engine.submit_blocking(ops).expect("accepts until shutdown");
    }
    engine.shutdown()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every strategy × shard × exec combination through the real
    /// engine: incremental and from-scratch certification commit the
    /// same transactions, pass the same audits, and agree on the final
    /// object state.
    #[test]
    fn engine_backends_agree(
        txns in prop::collection::vec(
            prop::collection::vec((0u8..6, 0usize..8), 2..5), 3..7),
        seed in 0u64..1024,
    ) {
        let w = Workload { txns, seed };
        for (shards, exec) in [
            (1, OptimisticExec::InPlace),
            (4, OptimisticExec::InPlace),
            (1, OptimisticExec::Snapshot),
            (4, OptimisticExec::Snapshot),
        ] {
            let inc = engine_run(&w, shards, exec, CertBackend::Incremental);
            let scratch = engine_run(&w, shards, exec, CertBackend::FromScratch);
            let label = format!("{exec:?}/{shards}");
            for (out, backend) in [(&inc, "incremental"), (&scratch, "from-scratch")] {
                prop_assert_eq!(
                    out.metrics.committed as usize,
                    w.txns.len(),
                    "{}/{}: every transaction commits (aborted {})",
                    &label, backend, out.metrics.aborted
                );
                let audit = out.audit.as_ref().expect("audit enabled");
                prop_assert!(
                    audit.report.oo_decentralized.is_ok() && audit.report.oo_global.is_ok(),
                    "{}/{}: merged audit must pass", &label, backend
                );
            }
            prop_assert_eq!(
                &inc.final_state, &scratch.final_state,
                "{}: final states diverged between certification backends", &label
            );
            // the legacy oracle never touches incremental machinery
            prop_assert_eq!(scratch.metrics.cert_incremental_reseeds, 0);
            // the incremental backend actually inferred through the
            // maintained schedule (fed actions are counted there too)
            prop_assert!(inc.metrics.cert_actions_inferred > 0);
        }
    }
}
