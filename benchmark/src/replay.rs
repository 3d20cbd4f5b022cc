//! The traced run: a workload's serial-phase transactions replayed on
//! one thread through hand-stacked layers — Recorder → Encyclopedia →
//! LockManager or Certifier → EngineRecord/FramedLog when durable — with
//! a span around every call into a layer.
//!
//! What the engine adds on top of these calls (queue hand-off, worker
//! wake-up, stripes, metrics, version bookkeeping, the group-commit
//! wait) is exactly what the ledger's residual measures.

use crate::gen::{self, Spec};
use crate::spans::{span, Sink};
use oodb_btree::{CompensatedEncyclopedia, Encyclopedia, EncyclopediaConfig};
use oodb_core::certifier::{Certifier, CertifierMode, CommitOutcome, WaitPolicy};
use oodb_core::compensation::Inverse;
use oodb_core::ids::TxnIdx;
use oodb_engine::CcKind;
use oodb_lock::{LockManager, LockOutcome, OwnerId};
use oodb_model::{Recorder, TxnCtx};
use oodb_recovery::{EngineOp, EngineRecord, FramedLog};
use oodb_sim::exec::{enc_lock_manager, op_descriptor, write_text, ENC_RESOURCE};
use oodb_sim::EncOp;
use std::time::Instant;

/// What one encyclopedia call touched; recorded beside its span.
#[derive(Debug, Clone, Copy)]
pub struct OpAux {
    pub span: u32,
    /// Buffer-pool fetches (hits + misses) during the call.
    pub pages: u32,
    /// Page allocations during the call (splits, list growth).
    pub allocs: u32,
    /// Primitive actions appended to the history during the call.
    pub actions: u32,
    /// Keys a range returned.
    pub keys: u32,
}

#[derive(Debug, Default)]
pub struct ReplayReport {
    pub wall_s: f64,
    pub ops: usize,
    /// History length after the replay, preload excluded.
    pub actions: usize,
    /// Pool counters over the replay, preload excluded:
    /// hits, misses, evictions, write-backs.
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub writebacks: u64,
    /// Pages ever allocated and keys present at the end, preload included.
    pub pages_allocated: u64,
    pub keys: usize,
    pub depth: usize,
    pub aux: Vec<OpAux>,
}

/// The layers, stacked the way the engine stacks them for `spec`.
pub struct Stack {
    pub rec: Recorder,
    enc: CompensatedEncyclopedia,
    locks: Option<LockManager>,
    cert: Option<Certifier>,
    log: Option<FramedLog>,
}

fn is_write(op: &EncOp) -> bool {
    matches!(op, EncOp::Insert(_) | EncOp::Change(_) | EncOp::Delete(_))
}

fn redo_of(op: &EncOp, tag: usize) -> Option<EngineOp> {
    let text = || write_text(op, tag).unwrap_or_default();
    match op {
        EncOp::Insert(k) => Some(EngineOp::Insert {
            key: k.clone(),
            text: text(),
        }),
        EncOp::Change(k) => Some(EngineOp::Change {
            key: k.clone(),
            text: text(),
        }),
        EncOp::Delete(k) => Some(EngineOp::Delete { key: k.clone() }),
        EncOp::Search(_) | EncOp::ReadSeq | EncOp::Range(..) => None,
    }
}

fn comp_of(inv: &Inverse) -> Option<EngineOp> {
    let key = inv.descriptor.args.first()?.as_key()?.to_owned();
    let text = inv
        .descriptor
        .args
        .get(1)
        .and_then(|v| v.as_str())
        .unwrap_or("")
        .to_owned();
    match inv.descriptor.method.as_str() {
        "insert" => Some(EngineOp::Insert { key, text }),
        "update" => Some(EngineOp::Change { key, text }),
        "delete" => Some(EngineOp::Delete { key }),
        _ => None,
    }
}

impl Stack {
    /// Fresh layers with `spec`'s tree and pool shape, preloaded.
    pub fn new(spec: &Spec) -> Stack {
        let rec = Recorder::new();
        let enc = CompensatedEncyclopedia::new(Encyclopedia::create(
            rec.clone(),
            EncyclopediaConfig {
                fanout: 8,
                pool_frames: spec.pool_frames,
                ..EncyclopediaConfig::default()
            },
        ));
        let optimistic = spec.cc == CcKind::Optimistic;
        let mut stack = Stack {
            rec,
            enc,
            locks: (!optimistic).then(enc_lock_manager),
            cert: optimistic
                .then(|| Certifier::new(CertifierMode::Paper).with_wait_policy(WaitPolicy::Ignore)),
            log: spec.durable.then(FramedLog::new),
        };
        let setup: Vec<EncOp> = spec.preload_keys().into_iter().map(EncOp::Insert).collect();
        if !setup.is_empty() {
            stack.txn(
                &mut crate::spans::NoSpans,
                "Setup".into(),
                0,
                &setup,
                &mut Vec::new(),
            );
        }
        stack
    }

    /// One encyclopedia call inside its span; `(engaged, keys returned)`.
    fn apply<S: Sink>(
        &self,
        sink: &mut S,
        ctx: &mut TxnCtx,
        op: &EncOp,
        tag: usize,
        aux: &mut Vec<OpAux>,
    ) -> bool {
        let enc = &self.enc;
        let before = S::ENABLED.then(|| {
            (
                enc.inner().pool().stats().snapshot(),
                self.rec.history_len(),
            )
        });
        let txn = tag as u32;
        let (id, hit, keys) = match op {
            EncOp::Insert(k) => {
                let text = write_text(op, tag).expect("insert writes");
                let id = sink.open("btree.insert", txn);
                let hit = enc.insert(ctx, k, &text).is_some();
                sink.close();
                (id, hit, 0)
            }
            EncOp::Search(k) => {
                let id = sink.open("btree.search", txn);
                let hit = enc.search(ctx, k).is_some();
                sink.close();
                (id, hit, 0)
            }
            EncOp::Change(k) => {
                let text = write_text(op, tag).expect("change writes");
                let id = sink.open("btree.change", txn);
                let hit = enc.change(ctx, k, &text);
                sink.close();
                (id, hit, 0)
            }
            EncOp::Delete(k) => {
                let id = sink.open("btree.delete", txn);
                let hit = enc.delete(ctx, k);
                sink.close();
                (id, hit, 0)
            }
            EncOp::Range(lo, hi) => {
                let id = sink.open("btree.range", txn);
                let n = enc.inner().range(ctx, lo, hi).len();
                sink.close();
                (id, n > 0, n)
            }
            EncOp::ReadSeq => {
                let id = sink.open("btree.read_seq", txn);
                let n = enc.read_seq(ctx).len();
                sink.close();
                (id, n > 0, n)
            }
        };
        if let Some(((h0, m0, _, _, a0), len0)) = before {
            let (h1, m1, _, _, a1) = enc.inner().pool().stats().snapshot();
            aux.push(OpAux {
                span: id,
                pages: ((h1 + m1) - (h0 + m0)) as u32,
                allocs: (a1 - a0) as u32,
                actions: (self.rec.history_len() - len0) as u32,
                keys: keys as u32,
            });
        }
        hit
    }

    fn log_record<S: Sink>(&mut self, sink: &mut S, txn: u32, rec: &EngineRecord) {
        let log = self.log.as_mut().expect("log_record only when durable");
        let payload = span(sink, "recovery.encode", txn, || rec.encode());
        span(sink, "recovery.append", txn, || log.append(&payload));
    }

    /// One transaction, begin to commit, as the engine's worker runs it:
    /// strict 2PL executes in place under its locks; the optimistic path
    /// buffers writes, installs them at the commit point and certifies.
    pub(crate) fn txn<S: Sink>(
        &mut self,
        sink: &mut S,
        name: String,
        tag: usize,
        ops: &[EncOp],
        aux: &mut Vec<OpAux>,
    ) {
        let t = tag as u32;
        sink.open("txn", t);
        let rec = self.rec.clone();
        let mut ctx = span(sink, "model.begin_txn", t, || rec.begin_txn(name.clone()));
        let number = ctx.txn_number();
        let owner = OwnerId(u64::from(number));
        let mut buffered: Vec<&EncOp> = Vec::new();
        let mut begun = false;
        for op in ops {
            if let Some(locks) = self.locks.as_mut() {
                let got = span(sink, "lock.acquire", t, || {
                    locks.acquire(owner, &[], ENC_RESOURCE, &op_descriptor(op))
                });
                assert_eq!(
                    got,
                    LockOutcome::Granted,
                    "one transaction at a time never blocks"
                );
            }
            if self.cert.is_some() && is_write(op) {
                buffered.push(op);
                continue;
            }
            let hit = self.apply(sink, &mut ctx, op, tag, aux);
            self.log_executed(sink, &ctx, op, tag, hit, &name, &mut begun);
        }
        for op in buffered {
            let hit = self.apply(sink, &mut ctx, op, tag, aux);
            self.log_executed(sink, &ctx, op, tag, hit, &name, &mut begun);
        }
        if let Some(cert) = self.cert.as_mut() {
            let outcome = span(sink, "core.try_commit", t, || {
                rec.with_record(|ts, history| cert.try_commit(ts, history, TxnIdx(number)))
            });
            assert_eq!(
                outcome,
                CommitOutcome::Committed,
                "a serial history always certifies"
            );
        }
        if begun {
            self.log_record(
                sink,
                t,
                &EngineRecord::Commit {
                    txn: u64::from(number),
                },
            );
            let log = self.log.as_mut().expect("begun implies durable");
            span(sink, "recovery.force", t, || log.force());
        }
        span(sink, "btree.commit", t, || self.enc.commit(ctx));
        if let Some(locks) = self.locks.as_mut() {
            span(sink, "lock.release_all", t, || locks.release_all(owner));
        }
        sink.close();
    }

    /// The worker's `Wal::log_executed`: lazily `Begin`, then one `Op`
    /// pairing the redo with the inverse the compensation log captured.
    #[allow(clippy::too_many_arguments)]
    fn log_executed<S: Sink>(
        &mut self,
        sink: &mut S,
        ctx: &TxnCtx,
        op: &EncOp,
        tag: usize,
        hit: bool,
        name: &str,
        begun: &mut bool,
    ) {
        if self.log.is_none() || !hit {
            return;
        }
        let Some(redo) = redo_of(op, tag) else { return };
        let txn = u64::from(ctx.txn_number());
        let comp = self
            .enc
            .last_inverse(ctx)
            .and_then(|inv| comp_of(&inv))
            .expect("every effectful mutation captures an inverse");
        if !*begun {
            *begun = true;
            let begin = EngineRecord::Begin {
                txn,
                name: name.to_owned(),
            };
            self.log_record(sink, tag as u32, &begin);
        }
        self.log_record(sink, tag as u32, &EngineRecord::Op { txn, redo, comp });
    }

    /// Every `(key, text)` in the database, key order.
    fn state(&self) -> Vec<(String, String)> {
        let mut ctx = self.rec.begin_txn("Dump");
        let mut items: Vec<(String, String)> = self
            .enc
            .read_seq(&mut ctx)
            .into_iter()
            .map(|(_, k, text)| (k, text))
            .collect();
        items.sort();
        items
    }
}

/// Replay `txns` through a fresh stack, spans into `sink`. The final
/// state must equal the oracle — a replay that drifted from the engine's
/// semantics would make the ledger meaningless.
pub fn replay<S: Sink>(
    spec: &Spec,
    txns: &[Vec<EncOp>],
    sink: &mut S,
) -> Result<ReplayReport, String> {
    let mut stack = Stack::new(spec);
    let pool = stack.enc.inner().pool().clone();
    let (h0, m0, e0, w0, _) = pool.stats().snapshot();
    let len0 = stack.rec.history_len();
    let mut aux = Vec::new();
    let t0 = Instant::now();
    for (i, ops) in txns.iter().enumerate() {
        stack.txn(sink, format!("J{}", i + 1), i + 1, ops, &mut aux);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let (h1, m1, e1, w1, allocated) = pool.stats().snapshot();
    let actions = stack.rec.history_len() - len0;
    let state = stack.state();
    if state != gen::oracle(&spec.preload_keys(), txns) {
        return Err(format!(
            "{}: replayed state differs from the oracle",
            spec.name
        ));
    }
    Ok(ReplayReport {
        wall_s,
        ops: txns.iter().map(Vec::len).sum(),
        actions,
        hits: h1 - h0,
        misses: m1 - m0,
        evictions: e1 - e0,
        writebacks: w1 - w0,
        pages_allocated: allocated,
        keys: state.len(),
        depth: stack.enc.inner().tree().depth(),
        aux,
    })
}
