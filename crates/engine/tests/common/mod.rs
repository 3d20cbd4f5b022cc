//! What the engine's suites share: a single-threaded virtual scheduler
//! that drives a concurrency control through a fixed op-level schedule
//! exactly as the worker would (buffered writes install at the commit
//! point, compensations are retired) and logs every decision, the
//! certifier's from-scratch replay over the final record, the
//! interleaving enumerator, the small conflicting workloads the
//! deterministic suites enumerate, the trace analyzer ([`analyze`]) and
//! a JSON well-formedness check ([`json`]).

#![allow(dead_code)] // each suite uses its own subset

pub mod analyze;
pub mod json;

use oodb_btree::{CompensatedEncyclopedia, Encyclopedia, EncyclopediaConfig};
use oodb_core::certifier::restrict_history;
use oodb_core::history::History;
use oodb_core::ids::TxnIdx;
use oodb_core::schedule::SystemSchedules;
use oodb_core::serializability::check_system_decentralized;
use oodb_core::system::TransactionSystem;
use oodb_engine::trace::attempt_name;
use oodb_engine::{
    audit, shard_of_key, ConcurrencyControl, EngineMetrics, EngineShared, FinishOutcome, OpGrant,
    TxnHandle,
};
use oodb_lock::OwnerId;
use oodb_model::{Recorder, TxnCtx};
use oodb_sim::exec::apply_op;
use oodb_sim::EncOp;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// Every interleaving of streams with the given step counts: sequences
/// over stream indices where stream `i` appears exactly `counts[i]`
/// times, in lexicographic order (deterministic).
pub fn interleavings(counts: &[usize]) -> Vec<Vec<usize>> {
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

/// The optimistic control's certifier, re-run offline: re-decide each
/// `(candidate, verdict)` in order, from scratch — Definition 16 over the
/// final record restricted to the transactions committed so far plus the
/// candidate, inferred from nothing. Every primitive of a candidate is
/// recorded before its verdict and restriction keeps order, so that
/// restriction is the history the verdict was reached on. Returns the
/// index of the first verdict it does not reproduce.
pub fn replay_from_scratch(
    ts: &TransactionSystem,
    history: &History,
    verdicts: &[(TxnIdx, FinishOutcome)],
) -> Option<usize> {
    let mut committed = HashSet::new();
    verdicts.iter().position(|&(t, verdict)| {
        let mut scope = committed.clone();
        scope.insert(t);
        let admits = check_system_decentralized(ts, &infer_restricted(ts, history, &scope)).is_ok();
        if verdict == FinishOutcome::Committed {
            committed.insert(t);
        }
        admits != (verdict == FinishOutcome::Committed)
    })
}

/// The schedules of `history` restricted to `scope`, inferred from
/// nothing: what Definition 16 is checked on when only `scope` counts.
pub fn infer_restricted(
    ts: &TransactionSystem,
    history: &History,
    scope: &HashSet<TxnIdx>,
) -> SystemSchedules {
    let restricted = restrict_history(ts, history, scope);
    SystemSchedules::infer_scoped(ts, &restricted, scope)
}

/// One attempt of one logical transaction inside the virtual scheduler.
pub struct Attempt {
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
/// ordered log of concurrency-control decisions. Two runs that make the
/// same decisions produce byte-identical logs; any divergence in a grant
/// or a validation verdict shows up as the first differing log line.
#[derive(Debug, PartialEq, Eq)]
pub struct RunOutcome {
    pub decisions: Vec<String>,
    /// Every finish verdict in order, the preload's included.
    pub verdicts: Vec<(TxnIdx, FinishOutcome)>,
    pub committed: usize,
    pub retries: u32,
    pub decentralized_ok: bool,
    pub global_ok: bool,
    pub final_state: Vec<(String, String)>,
}

/// Single-threaded virtual scheduler with a decision log: executes
/// `schedule` (a merge of the transactions' op streams) step by step
/// against `cc`, recording every grant and finish verdict in order, retries aborted attempts serially after the trace, then audits
/// the record.
pub struct VirtualScheduler {
    shared: EngineShared,
    cc: Arc<dyn ConcurrencyControl>,
    txns: Vec<Vec<EncOp>>,
    active: Vec<Option<Attempt>>,
    /// Aborted logical transactions awaiting a serial retry.
    retry: VecDeque<(usize, u32)>,
    committed: usize,
    retries: u32,
    decisions: Vec<String>,
    verdicts: Vec<(TxnIdx, FinishOutcome)>,
}

impl VirtualScheduler {
    pub fn new(cc: Arc<dyn ConcurrencyControl>, txns: &[Vec<EncOp>], preload: &[String]) -> Self {
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
            enc: CompensatedEncyclopedia::new(enc),
            gate: Default::default(),
            metrics: EngineMetrics::with_shards(cc.shards()),
            trace: oodb_engine::Tracer::disabled(),
            dur: None,
        };
        let mut vs = VirtualScheduler {
            shared,
            cc,
            txns: txns.to_vec(),
            active: (0..txns.len()).map(|_| None).collect(),
            retry: VecDeque::new(),
            committed: 0,
            retries: 0,
            decisions: Vec::new(),
            verdicts: Vec::new(),
        };
        if !preload.is_empty() {
            let ops: Vec<EncOp> = preload.iter().map(|k| EncOp::Insert(k.clone())).collect();
            let setup = vs.begin(u64::MAX, "Setup".into(), ops);
            let done = vs.run_serially(setup);
            assert!(done, "uncontended preload must commit");
            vs.committed -= 1; // Setup is not a workload transaction

            // preload decisions are invariant; its verdict stays, as the
            // later ones are checked against it
            vs.decisions.clear();
        }
        vs
    }

    fn begin(&mut self, job: u64, name: String, ops: Vec<EncOp>) -> Attempt {
        let ctx = self.shared.rec.begin_txn(name);
        let handle = TxnHandle::new(
            job,
            0,
            TxnIdx(ctx.txn_number()),
            OwnerId(u64::from(ctx.txn_number())),
        );
        Attempt {
            ops,
            buffered: Vec::new(),
            cursor: 0,
            attempt: 0,
            ctx,
            handle,
        }
    }

    /// Execute one scheduled step of logical transaction `t`. Steps of
    /// an attempt that already aborted (its retry runs after the trace)
    /// are skipped — the schedule stays fixed, the trace just has holes.
    fn step(&mut self, t: usize) {
        if self.active[t].is_none() && !self.txns[t].is_empty() && !self.already_started(t) {
            let a = self.begin(t as u64, attempt_name(t as u64, 0), self.txns[t].clone());
            self.active[t] = Some(a);
        }
        let Some(mut a) = self.active[t].take() else {
            return;
        };
        if a.cursor >= a.ops.len() {
            self.active[t] = Some(a);
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
                FinishOutcome::Abort => self.abort_attempt(t, a),
            }
        } else {
            self.active[t] = Some(a);
        }
    }

    /// Run a granted operation now, or keep a write back for the commit
    /// point when the control buffers them.
    fn execute(&self, a: &mut Attempt, op: EncOp) {
        let is_write = matches!(op, EncOp::Insert(_) | EncOp::Change(_) | EncOp::Delete(_));
        if is_write && self.cc.buffers_writes() {
            a.buffered.push(op);
        } else {
            let tag = a.tag();
            apply_op(&self.shared.enc, &mut a.ctx, &op, tag);
        }
    }

    /// The commit point: install what was buffered, then ask the control.
    fn finish(&mut self, a: &mut Attempt) -> FinishOutcome {
        let tag = a.tag();
        for op in std::mem::take(&mut a.buffered) {
            apply_op(&self.shared.enc, &mut a.ctx, &op, tag);
        }
        let verdict = self.cc.try_finish(&self.shared, &a.handle);
        self.verdicts.push((a.handle.txn, verdict));
        verdict
    }

    /// A retry was queued or an attempt exists — `t` already started.
    fn already_started(&self, t: usize) -> bool {
        self.active[t].is_some() || self.retry.iter().any(|&(r, _)| r == t)
    }

    fn commit_attempt(&mut self, a: Attempt) {
        self.shared.enc.commit(a.ctx);
        self.cc.after_commit(&self.shared, &a.handle);
        self.committed += 1;
    }

    fn abort_attempt(&mut self, t: usize, a: Attempt) {
        let next = a.attempt + 1;
        {
            let mut comp = self.shared.rec.begin_txn(format!(
                "C(J{}a{})",
                (t as u64).wrapping_add(1),
                a.attempt
            ));
            self.cc.retire(&self.shared, TxnIdx(comp.txn_number()));
            self.shared.enc.abort(a.ctx, &mut comp);
        }
        self.cc.after_abort(&self.shared, &a.handle);
        self.retries += 1;
        assert!(next <= 8, "txn {t} must not abort forever");
        self.retry.push_back((t, next));
    }

    /// Run one attempt start-to-finish with nothing else live (the
    /// serial retry path). Returns false if it aborted (the caller
    /// requeues the follow-up attempt).
    fn run_serially(&mut self, mut a: Attempt) -> bool {
        let t = a.handle.job as usize;
        while a.cursor < a.ops.len() {
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
        let verdict = self.finish(&mut a);
        self.decisions
            .push(format!("serial t{t}a{}: {verdict:?}", a.attempt));
        match verdict {
            FinishOutcome::Committed => {
                self.commit_attempt(a);
                true
            }
            FinishOutcome::Abort => {
                self.abort_attempt(t, a);
                false
            }
        }
    }

    /// The record the run writes to — keep a handle before [`Self::run`]
    /// to read the final record afterwards.
    pub fn recorder(&self) -> Recorder {
        self.shared.rec.clone()
    }

    pub fn run(mut self, schedule: &[usize]) -> RunOutcome {
        for &t in schedule {
            self.step(t);
        }
        // serial retries: aborted transactions re-execute with nothing
        // else live, so each retry commits
        while let Some((t, attempt)) = self.retry.pop_front() {
            let mut a = self.begin(
                t as u64,
                attempt_name(t as u64, attempt),
                self.txns[t].clone(),
            );
            a.attempt = attempt;
            a.handle.attempt = attempt;
            self.run_serially(a);
        }
        let audit_out = audit(&self.shared.rec, self.cc.as_ref());
        let final_state = {
            let mut ctx = self.shared.rec.begin_txn("Dump");
            let mut items: Vec<(String, String)> = self
                .shared
                .enc
                .read_seq(&mut ctx)
                .into_iter()
                .map(|(_, k, text)| (k, text))
                .collect();
            items.sort();
            items
        };
        RunOutcome {
            decisions: self.decisions,
            verdicts: self.verdicts,
            committed: self.committed,
            retries: self.retries,
            decentralized_ok: audit_out.report.oo_decentralized.is_ok(),
            global_ok: audit_out.report.oo_global.is_ok(),
            final_state,
        }
    }
}

/// Three keys guaranteed to land on three distinct shards of a 3-way
/// partition (probed via the engine's own stable hash).
pub fn three_cross_shard_keys() -> [String; 3] {
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

pub fn conflicting_3txn_workload() -> (Vec<Vec<EncOp>>, Vec<String>) {
    let [ka, kb, _] = three_cross_shard_keys();
    let txns = vec![
        vec![EncOp::Insert(ka.clone()), EncOp::Change(ka.clone())],
        vec![EncOp::Change(ka.clone()), EncOp::Search(kb.clone())],
        vec![EncOp::Change(kb.clone()), EncOp::Search(ka)],
    ];
    (txns, vec![kb])
}

pub fn conflicting_4txn_workload() -> (Vec<Vec<EncOp>>, Vec<String>) {
    let [ka, kb, kc] = three_cross_shard_keys();
    let txns = vec![
        vec![EncOp::Change(ka.clone()), EncOp::Search(kb.clone())],
        vec![EncOp::Change(kb.clone()), EncOp::Search(ka.clone())],
        vec![EncOp::Insert(kc.clone()), EncOp::Search(kb.clone())],
        vec![EncOp::Search(kc)],
    ];
    (txns, vec![ka, kb])
}
