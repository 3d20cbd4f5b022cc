//! What the engine's suites share: a single-threaded virtual scheduler
//! that drives the worker's own attempt lifecycle through a fixed
//! op-level schedule and logs every decision, the certifier's
//! from-scratch replay over the final record, the interleaving
//! enumerator, the small workloads the deterministic suites enumerate,
//! the trace analyzer ([`analyze`]) and a JSON well-formedness check
//! ([`json`]).

#![allow(dead_code)] // each suite uses its own subset

pub mod analyze;
pub mod json;

use oodb_core::certifier::restrict_history;
use oodb_core::history::History;
use oodb_core::ids::TxnIdx;
use oodb_core::schedule::SystemSchedules;
use oodb_core::serializability::check_system_decentralized;
use oodb_core::system::TransactionSystem;
use oodb_engine::trace::AbortReason;
use oodb_engine::worker::Attempt;
use oodb_engine::{
    audit, shard_of_key, ConcurrencyControl, EngineConfig, EngineShared, FinishOutcome,
};
use oodb_model::Recorder;
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
    /// The run's log image, when the configuration logs.
    pub wal: Option<Vec<u8>>,
}

/// What the scheduler has decided so far.
#[derive(Default)]
struct Log {
    decisions: Vec<String>,
    verdicts: Vec<(TxnIdx, FinishOutcome)>,
    committed: usize,
    retries: u32,
    /// Aborted logical transactions awaiting a serial retry.
    retry: VecDeque<(usize, u32)>,
}

impl Log {
    /// Drive `a`, an attempt of transaction `t`, through its commit point
    /// and log the verdict under `label`. True when it committed.
    fn finish(&mut self, t: usize, label: &str, a: Attempt<'_>) -> bool {
        let (txn, attempt) = (a.handle().txn, a.handle().attempt);
        let verdict = match a.finish() {
            Ok(_) => FinishOutcome::Committed,
            Err(_) => FinishOutcome::Abort,
        };
        self.verdicts.push((txn, verdict));
        self.decisions.push(format!("{label}: {verdict:?}"));
        match verdict {
            FinishOutcome::Committed => self.committed += 1,
            FinishOutcome::Abort => self.requeue(t, attempt),
        }
        verdict == FinishOutcome::Committed
    }

    /// Compensate `a`, an attempt of transaction `t` that stopped before
    /// its commit point, and log why under `label`.
    fn abort(&mut self, t: usize, label: &str, a: Attempt<'_>, reason: AbortReason) {
        self.decisions.push(format!("{label}: {}", reason.label()));
        let attempt = a.abort(reason).handle.attempt;
        self.requeue(t, attempt);
    }

    fn requeue(&mut self, t: usize, attempt: u32) {
        self.retries += 1;
        assert!(attempt < 8, "txn {t} must not abort forever");
        self.retry.push_back((t, attempt + 1));
    }

    /// Run attempt `attempt` of transaction `t` start to finish with
    /// nothing else live: the serial retry path, and the preload. True
    /// when it committed.
    fn serially(
        &mut self,
        shared: &EngineShared,
        cc: &dyn ConcurrencyControl,
        t: usize,
        attempt: u32,
        ops: &[EncOp],
    ) -> bool {
        let mut a = Attempt::begin(shared, cc, t as u64, attempt);
        let label = format!("serial t{t}a{attempt}");
        match ops.iter().find_map(|op| a.step(op).err()) {
            Some(reason) => {
                self.abort(t, &label, a, reason);
                false
            }
            None => self.finish(t, &label, a),
        }
    }
}

/// Single-threaded virtual scheduler with a decision log: drives the
/// worker's own attempt lifecycle ([`Attempt`]) through `schedule` (a
/// merge of the transactions' op streams) one step at a time against
/// `cc`, recording every grant and finish verdict in order, retries
/// aborted attempts serially after the trace, then audits the record.
/// Optimistic controls only: strict 2PL's `before_op` would block its
/// one thread.
pub struct VirtualScheduler {
    shared: EngineShared,
    cc: Arc<dyn ConcurrencyControl>,
    txns: Vec<Vec<EncOp>>,
    log: Log,
}

impl VirtualScheduler {
    /// A scheduler over `txns` on the database `cfg` describes, after
    /// one serial `Setup` transaction has inserted `preload`.
    pub fn new(
        cfg: &EngineConfig,
        cc: Arc<dyn ConcurrencyControl>,
        txns: &[Vec<EncOp>],
        preload: &[String],
    ) -> Self {
        let shared = EngineShared::new(cfg, cc.as_ref());
        let mut log = Log::default();
        if !preload.is_empty() {
            let ops: Vec<EncOp> = preload.iter().map(|k| EncOp::Insert(k.clone())).collect();
            // the preload is job `u64::MAX`, as the engine's
            let done = log.serially(&shared, cc.as_ref(), usize::MAX, 0, &ops);
            assert!(done, "uncontended preload must commit");
            log.committed -= 1; // Setup is not a workload transaction

            // preload decisions are invariant; its verdict stays, as the
            // later ones are checked against it
            log.decisions.clear();
        }
        VirtualScheduler {
            shared,
            cc,
            txns: txns.to_vec(),
            log,
        }
    }

    /// The record the run writes to — keep a handle before [`Self::run`]
    /// to read the final record afterwards.
    pub fn recorder(&self) -> Recorder {
        self.shared.rec.clone()
    }

    /// Execute one scheduled step of a logical transaction at each entry
    /// of `schedule`. Steps of an attempt that already aborted (its retry
    /// runs after the trace) are skipped — the schedule stays fixed, the
    /// trace just has holes.
    pub fn run(self, schedule: &[usize]) -> RunOutcome {
        let VirtualScheduler {
            shared,
            cc,
            txns,
            mut log,
        } = self;
        let cc = cc.as_ref();
        let mut live: Vec<Option<Attempt<'_>>> = txns.iter().map(|_| None).collect();
        let mut started = vec![false; txns.len()];
        for &t in schedule {
            if !std::mem::replace(&mut started[t], true) {
                live[t] = Some(Attempt::begin(&shared, cc, t as u64, 0));
            }
            let Some(mut a) = live[t].take() else {
                continue;
            };
            let i = a.ops_done();
            let attempt = a.handle().attempt;
            match a.step(&txns[t][i]) {
                Err(reason) => log.abort(t, &format!("t{t}a{attempt} op{i}"), a, reason),
                Ok(()) => {
                    log.decisions.push(format!("t{t}a{attempt} op{i}: granted"));
                    if a.ops_done() == txns[t].len() {
                        log.finish(t, &format!("t{t}a{attempt}"), a);
                    } else {
                        live[t] = Some(a);
                    }
                }
            }
        }
        // serial retries: aborted transactions re-execute with nothing
        // else live, so each retry commits
        while let Some((t, attempt)) = log.retry.pop_front() {
            log.serially(&shared, cc, t, attempt, &txns[t]);
        }
        let audit_out = audit(&shared.rec, cc);
        RunOutcome {
            decisions: log.decisions,
            verdicts: log.verdicts,
            committed: log.committed,
            retries: log.retries,
            decentralized_ok: audit_out.report.oo_decentralized.is_ok(),
            global_ok: audit_out.report.oo_global.is_ok(),
            final_state: shared.final_state(cc),
            wal: shared.dur.as_ref().map(|d| d.image()),
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

/// Three transactions on a fanout-4 tree whose inserts split a leaf. The
/// five preloaded keys split the root leaf into `[k01 k02]` and
/// `[k04 k11 k12]`; `T0` and `T1` insert `k05` and `k07` into the right
/// leaf at their commit points, so the second install splits it. `T2`'s
/// range scan starts in the left leaf and walks the chain into the right
/// one; its sequential scan reads the item list.
pub fn splitting_workload() -> (EngineConfig, Vec<Vec<EncOp>>, Vec<String>) {
    let cfg = EngineConfig {
        fanout: 4,
        ..EngineConfig::default()
    };
    let k = |s: &str| s.to_string();
    let txns = vec![
        vec![EncOp::Insert(k("k05"))],
        vec![EncOp::Insert(k("k07")), EncOp::Search(k("k06"))],
        vec![EncOp::Range(k("k03"), k("k11")), EncOp::ReadSeq],
    ];
    let preload = ["k01", "k02", "k04", "k11", "k12"].map(k).to_vec();
    (cfg, txns, preload)
}

/// A phantom through a split, on [`splitting_workload`]. `T1` defers
/// its insert of `k07`, `T0` commits `k05`, `T2`'s range misses `k07`,
/// `T1` commits (its install splits the right leaf), and `T2`'s
/// sequential scan sees `k07`: `T2 → T1 → T2`, which the certifier
/// must abort.
pub const SPLIT_WITNESS: [usize; 5] = [1, 0, 2, 1, 2];

/// The same phantom without a split, on [`splitting_workload`]: `T2`'s
/// range scan, all of `T1` (`T0` never runs, so the right leaf takes
/// `k07` without splitting), then `T2`'s sequential scan.
pub const PHANTOM_NO_SPLIT: [usize; 4] = [2, 1, 1, 2];
