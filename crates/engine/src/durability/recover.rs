//! Crash recovery: replay the durable log prefix into a fresh database.
//!
//! The log is a faithful serialization of every mutation the crashed
//! engine executed (see the module docs of [`crate::durability`]), so
//! recovery is **repeat history, then finish the undo**:
//!
//! 1. *Scan* — walk the durable image, stopping at the torn tail.
//! 2. *Redo* — re-execute every `Op` redo and every `Comp` inverse in
//!    log order against a fresh encyclopedia, each inside a replayed
//!    transaction context. This reproduces the crashed run's state
//!    trajectory exactly — including the partial work of transactions
//!    that never finished.
//! 3. *Undo* — transactions with logged ops but no `Commit`/`AbortDone`
//!    terminator are **losers**; their not-yet-compensated ops (the op
//!    count minus logged `Comp` records, the CLR analog) are undone in
//!    reverse global log order from the compensation payloads carried by
//!    the op records themselves — semantic compensation, exactly what a
//!    live abort would have run.
//! 4. *Audit* — the replay is itself recorded, and its committed
//!    projection (Definition 16's guarantee scope) is run through every
//!    serializability checker. A recovered state is only reported
//!    consistent if the checkers accept it.

use super::write_of;
use oodb_btree::{Encyclopedia, EncyclopediaConfig};
use oodb_core::certifier::restrict_history;
use oodb_core::ids::TxnIdx;
use oodb_core::prelude::{analyze, extend_virtual_objects, SerializabilityReport};
use oodb_model::{Recorder, TxnCtx};
use oodb_recovery::engine_log::{EngineOp, EngineRecord};
use oodb_recovery::framing::{scan, TornTail};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Counters describing one recovery pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Whole, checksum-valid records in the durable prefix.
    pub records: usize,
    /// Where (and how) the scan stopped early, if the tail was torn.
    pub torn: Option<TornTail>,
    /// Transactions begun in the log.
    pub txns: usize,
    /// Transactions with a durable `Commit`.
    pub committed: usize,
    /// Transactions with a durable `AbortDone` (their compensation
    /// completed before the crash).
    pub aborted: usize,
    /// Losers: begun but no terminator — finished by recovery undo.
    pub losers: usize,
    /// Forward (redo) operations re-executed.
    pub ops: usize,
    /// Logged compensations (live-abort work) re-executed.
    pub comps: usize,
    /// Compensations executed by recovery itself to finish the losers.
    pub loser_comps: usize,
}

/// Everything one recovery pass produced.
pub struct RecoveryOutcome {
    /// Replay counters.
    pub stats: ReplayStats,
    /// Root names of the transactions whose commits survived
    /// (e.g. `"Setup"`, `"J3"`, `"J5r2"`).
    pub committed: BTreeSet<String>,
    /// Serializability verdicts over the committed projection of the
    /// replayed record.
    pub report: SerializabilityReport,
    /// Every `(key, text)` pair in the recovered database, key order —
    /// directly comparable to `EngineOutput::final_state`.
    pub final_state: Vec<(String, String)>,
}

impl RecoveryOutcome {
    /// True iff the decentralized oo-serializability check (the paper's
    /// Definitions 13+16 — the criterion the live engine's own audit
    /// asserts) accepted the committed projection of the recovered
    /// execution. The full [`RecoveryOutcome::report`] carries the other
    /// verdicts too; note that `conventional` (page-level conflict
    /// serializability) is *expected* to reject semantic-protocol
    /// histories — that gap is the paper's point, not a recovery bug.
    pub fn consistent(&self) -> bool {
        self.report.oo_decentralized.is_ok()
    }
}

/// One logged transaction being replayed.
struct ReplayTxn {
    name: String,
    /// Replayed transaction number in the fresh recorder (`TxnIdx` for
    /// the committed projection).
    number: u32,
    ctx: Option<TxnCtx>,
    /// Lazily begun compensation transaction (for logged `Comp` records
    /// and for recovery undo).
    comp_ctx: Option<TxnCtx>,
    /// Compensation payload of each replayed op, with its global record
    /// index (for reverse-log-order undo across losers).
    comps: Vec<(usize, EngineOp)>,
    /// Logged `Comp` records seen — that many inverses already ran
    /// (or were found inapplicable) before the crash.
    comps_seen: usize,
    committed: bool,
    finished: bool,
}

/// Recover a crashed (or cleanly shut down) engine's log image into a
/// fresh database. `fanout` should match the crashed engine's
/// [`EngineConfig::fanout`](crate::EngineConfig::fanout) so the replayed
/// page-level record has the same shape.
pub fn recover(image: &[u8], fanout: usize) -> RecoveryOutcome {
    let scanned = scan(image);
    let records: Vec<EngineRecord> = scanned
        .payloads
        .iter()
        .map(|p| EngineRecord::decode(p))
        .collect();

    let mut stats = ReplayStats {
        records: records.len(),
        torn: scanned.torn,
        ..ReplayStats::default()
    };

    let rec = Recorder::new();
    let enc = Encyclopedia::create(
        rec.clone(),
        EncyclopediaConfig {
            fanout,
            pool_frames: 4096,
            ..EncyclopediaConfig::default()
        },
    );

    let mut txns: HashMap<u64, ReplayTxn> = HashMap::new();

    // Redo phase: repeat history in log order.
    for (idx, r) in records.iter().enumerate() {
        match r {
            EngineRecord::Begin { txn, name } => {
                let ctx = rec.begin_txn(name.clone());
                txns.insert(
                    *txn,
                    ReplayTxn {
                        name: name.clone(),
                        number: ctx.txn_number(),
                        ctx: Some(ctx),
                        comp_ctx: None,
                        comps: Vec::new(),
                        comps_seen: 0,
                        committed: false,
                        finished: false,
                    },
                );
                stats.txns += 1;
            }
            EngineRecord::Op { txn, redo, comp } => {
                let t = txns.get_mut(txn).expect("Op after Begin");
                let ctx = t.ctx.as_mut().expect("Op before terminator");
                write_of(redo).apply(&enc, ctx);
                t.comps.push((idx, comp.clone()));
                stats.ops += 1;
            }
            EngineRecord::Comp { txn, op, applied } => {
                let t = txns.get_mut(txn).expect("Comp after Begin");
                if *applied {
                    let name = &t.name;
                    let ctx = t
                        .comp_ctx
                        .get_or_insert_with(|| rec.begin_txn(format!("C({name})")));
                    write_of(op).apply(&enc, ctx);
                    stats.comps += 1;
                }
                t.comps_seen += 1;
            }
            EngineRecord::Commit { txn } => {
                let t = txns.get_mut(txn).expect("Commit after Begin");
                t.committed = true;
                t.finished = true;
                t.ctx = None;
            }
            EngineRecord::AbortDone { txn } => {
                let t = txns.get_mut(txn).expect("AbortDone after Begin");
                t.finished = true;
                t.ctx = None;
                t.comp_ctx = None;
            }
        }
    }

    // Undo phase: finish the losers' compensation in reverse global log
    // order, exactly where a live abort would have resumed.
    let mut undo: Vec<(usize, u64, EngineOp)> = Vec::new();
    for (&id, t) in txns.iter() {
        if t.finished {
            continue;
        }
        stats.losers += 1;
        let remaining = t.comps.len().saturating_sub(t.comps_seen);
        for (idx, op) in &t.comps[..remaining] {
            undo.push((*idx, id, op.clone()));
        }
    }
    undo.sort_by_key(|u| std::cmp::Reverse(u.0));
    for (_, id, op) in &undo {
        let t = txns.get_mut(id).expect("loser exists");
        let name = &t.name;
        let ctx = t
            .comp_ctx
            .get_or_insert_with(|| rec.begin_txn(format!("C({name})")));
        write_of(op).apply(&enc, ctx);
        stats.loser_comps += 1;
    }
    for t in txns.values_mut() {
        t.ctx = None;
        t.comp_ctx = None;
    }

    // Audit: every checker over the committed projection of the replay.
    let committed_idx: HashSet<TxnIdx> = txns
        .values()
        .filter(|t| t.committed)
        .map(|t| TxnIdx(t.number))
        .collect();
    stats.committed = committed_idx.len();
    stats.aborted = txns.values().filter(|t| t.finished && !t.committed).count();
    let committed: BTreeSet<String> = txns
        .values()
        .filter(|t| t.committed)
        .map(|t| t.name.clone())
        .collect();

    let (mut ts, history) = rec.snapshot();
    extend_virtual_objects(&mut ts);
    let projection = restrict_history(&ts, &history, &committed_idx);
    let report = analyze(&ts, &projection);

    // Final state, read outside the audited snapshot.
    let mut dump = rec.begin_txn("RecoveryDump");
    let mut final_state: Vec<(String, String)> = enc
        .read_seq(&mut dump)
        .into_iter()
        .map(|(_, k, text)| (k, text))
        .collect();
    drop(dump);
    final_state.sort();

    RecoveryOutcome {
        stats,
        committed,
        report,
        final_state,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_recovery::framing::FramedLog;

    fn log_of(records: &[EngineRecord]) -> Vec<u8> {
        let mut log = FramedLog::default();
        for r in records {
            log.append(&r.encode());
        }
        log.force();
        log.image()
    }

    fn ins(key: &str) -> EngineOp {
        EngineOp::Insert {
            key: key.into(),
            text: format!("text for {key}"),
        }
    }

    fn del(key: &str) -> EngineOp {
        EngineOp::Delete { key: key.into() }
    }

    #[test]
    fn committed_work_survives_and_audits() {
        let image = log_of(&[
            EngineRecord::Begin {
                txn: 1,
                name: "J1".into(),
            },
            EngineRecord::Op {
                txn: 1,
                redo: ins("a"),
                comp: del("a"),
            },
            EngineRecord::Commit { txn: 1 },
        ]);
        let out = recover(&image, 8);
        assert_eq!(out.stats.committed, 1);
        assert_eq!(out.stats.losers, 0);
        assert!(out.consistent());
        assert_eq!(out.final_state, vec![("a".into(), "text for a".into())]);
        assert_eq!(out.committed.iter().collect::<Vec<_>>(), ["J1"]);
    }

    #[test]
    fn loser_without_terminator_is_compensated_away() {
        let image = log_of(&[
            EngineRecord::Begin {
                txn: 1,
                name: "J1".into(),
            },
            EngineRecord::Op {
                txn: 1,
                redo: ins("a"),
                comp: del("a"),
            },
            EngineRecord::Commit { txn: 1 },
            EngineRecord::Begin {
                txn: 2,
                name: "J2".into(),
            },
            EngineRecord::Op {
                txn: 2,
                redo: ins("b"),
                comp: del("b"),
            },
            // crash: no terminator for txn 2
        ]);
        let out = recover(&image, 8);
        assert_eq!(out.stats.losers, 1);
        assert_eq!(out.stats.loser_comps, 1);
        assert!(out.consistent());
        assert_eq!(out.final_state, vec![("a".into(), "text for a".into())]);
    }

    #[test]
    fn partially_compensated_loser_resumes_where_the_abort_stopped() {
        // txn 1 did two inserts, then a live abort compensated the second
        // (reverse order) before the crash. Recovery must undo only the
        // first.
        let image = log_of(&[
            EngineRecord::Begin {
                txn: 1,
                name: "J1".into(),
            },
            EngineRecord::Op {
                txn: 1,
                redo: ins("a"),
                comp: del("a"),
            },
            EngineRecord::Op {
                txn: 1,
                redo: ins("b"),
                comp: del("b"),
            },
            EngineRecord::Comp {
                txn: 1,
                op: del("b"),
                applied: true,
            },
        ]);
        let out = recover(&image, 8);
        assert_eq!(out.stats.losers, 1);
        assert_eq!(out.stats.comps, 1, "the logged compensation replayed");
        assert_eq!(out.stats.loser_comps, 1, "recovery finished the undo");
        assert!(out.final_state.is_empty(), "everything compensated away");
        assert!(out.consistent());
    }

    #[test]
    fn recovery_is_deterministic() {
        let image = log_of(&[
            EngineRecord::Begin {
                txn: 7,
                name: "J7".into(),
            },
            EngineRecord::Op {
                txn: 7,
                redo: ins("x"),
                comp: del("x"),
            },
            EngineRecord::Commit { txn: 7 },
        ]);
        let a = recover(&image, 8);
        let b = recover(&image, 8);
        assert_eq!(a.final_state, b.final_state);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.committed, b.committed);
    }
}
