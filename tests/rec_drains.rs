//! The count that the staged record is about: the process-wide record
//! lock is taken once per transaction, by the worker after the commit is
//! acknowledged, and not at all while the transaction runs. A six-search
//! transaction makes 42 page visits on a depth-3 tree; the lock-per-visit
//! recorder took its lock 43 times for it, the first staged one once, in
//! `begin_txn`, with every other `begin_txn` queueing behind it. Every
//! acquisition of the record lock outside object registration is a
//! drain, so the drain count is the acquisition count: a `begin_txn`
//! that took it would make two per transaction. A count, so it repeats
//! exactly.
//!
//! And the count a run nobody audits is about: under strict 2PL with the
//! audit off nobody reads the record, so nothing is staged and nothing is
//! drained — while what the run does (its log, its final state) is the
//! audited run's, byte for byte.

use oodb::engine::{CcKind, DurabilityMode, Engine, EngineConfig, EngineOutput, LockingCc};
use oodb::model::recorder::STAGE_BOUND;
use oodb::sim::EncOp;
use std::sync::Arc;
use std::time::Duration;

const TXNS: u64 = 200;

fn keys(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("k{i:03}")).collect()
}

#[test]
fn one_worker_drains_once_per_transaction() {
    let engine = Engine::start(
        EngineConfig {
            workers: 1,
            fanout: 8,
            // audited, so recorded; the audit's own drain comes after the
            // metrics are read
            audit: true,
            ..EngineConfig::default()
        },
        CcKind::Pessimistic,
    );
    let keys = keys(256);
    engine.preload(&keys);
    let loaded = engine.metrics();
    for t in 0..TXNS as usize {
        let ops = (0..6)
            .map(|i| EncOp::Search(keys[(t * 6 + i) * 37 % keys.len()].clone()))
            .collect();
        engine.submit_blocking(ops).expect("engine accepts work");
    }
    let out = engine.shutdown();
    assert_eq!(out.metrics.committed, TXNS);
    assert!(out.metrics.recording);
    let drains = out.metrics.rec_drains - loaded.rec_drains;
    println!(
        "{drains} drains for {TXNS} transactions, record lock held {} ns a drain, staged peak {}",
        (out.metrics.rec_drain_hold_ns - loaded.rec_drain_hold_ns) / drains.max(1),
        out.metrics.rec_staged_peak
    );
    assert_eq!(drains, TXNS, "one drain per transaction, none to begin it");
    // one worker never finds its own drain in the way
    assert_eq!(out.metrics.rec_drains_skipped, 0);
    // a whole transaction was staged at once, and never more than the bound
    let peak = out.metrics.rec_staged_peak as usize;
    assert!((6 * 3..=STAGE_BOUND + 2).contains(&peak), "peak {peak}");
    assert!(out.audit.expect("audited").report.oo_decentralized.is_ok());
}

/// Contended updates over 8 keys: waits, deadlock victims, compensation.
fn updates(txns: usize) -> Vec<Vec<EncOp>> {
    let keys = keys(8);
    (0..txns)
        .map(|t| {
            (0..4)
                .map(|i| {
                    let k = keys[(t * 5 + i * 3) % keys.len()].clone();
                    match (t + i) % 4 {
                        0 => EncOp::Search(k),
                        1 => EncOp::Change(k),
                        2 => EncOp::Delete(k),
                        _ => EncOp::Insert(k),
                    }
                })
                .collect()
        })
        .collect()
}

fn run(cfg: EngineConfig, kind: CcKind, txns: &[Vec<EncOp>]) -> EngineOutput {
    let engine = Engine::start(cfg, kind);
    engine.preload(&keys(4));
    for ops in txns {
        engine
            .submit_blocking(ops.clone())
            .expect("engine accepts work");
    }
    engine.shutdown()
}

#[test]
fn an_unaudited_strict_2pl_run_records_nothing() {
    let cfg = EngineConfig {
        workers: 2,
        audit: false,
        max_retries: 64,
        ..EngineConfig::default()
    };
    let txns = updates(TXNS as usize);
    for kind in [CcKind::Pessimistic, CcKind::PessimisticPage] {
        let out = run(cfg.clone(), kind, &txns);
        let m = &out.metrics;
        assert_eq!(m.committed, TXNS, "{kind:?}: {m}");
        assert!(!m.recording, "{kind:?}: {m}");
        assert_eq!(
            (m.rec_drains, m.rec_drains_skipped, m.rec_staged_peak),
            (0, 0, 0),
            "{kind:?}: nothing staged, nothing drained"
        );
        assert!(m.to_string().contains(" record off"), "{m}");
        assert!(m.to_json().contains("\"recording\":false"));
        assert!(out.audit.is_none());
    }
    // the optimistic control's certifier reads the record: it keeps one
    let out = run(cfg, CcKind::Optimistic, &txns);
    assert_eq!(out.metrics.committed, TXNS);
    assert!(out.metrics.recording);
    assert!(out.metrics.rec_drains >= TXNS, "{}", out.metrics);
}

/// One worker, a log, and an attempt that aborts mid-flight and
/// compensates: the log image and the final state are the same whether
/// the run recorded or not.
#[test]
fn the_log_and_the_state_do_not_depend_on_the_record() {
    let txns = updates(40);
    let run = |audit: bool| {
        let cfg = EngineConfig {
            workers: 1,
            audit,
            durability: DurabilityMode::Group {
                max_batch: 1,
                max_wait: Duration::ZERO,
            },
            ..EngineConfig::default()
        };
        let engine = Engine::start_with(cfg, Arc::new(LockingCc::semantic()));
        engine.inject_fault_after(5, 0, 2);
        engine.preload(&keys(4));
        for ops in &txns {
            engine
                .submit_blocking(ops.clone())
                .expect("engine accepts work");
        }
        engine.shutdown()
    };
    let (audited, unaudited) = (run(true), run(false));
    assert!(audited.metrics.recording && !unaudited.metrics.recording);
    assert_eq!(audited.metrics.committed, 40);
    assert_eq!(
        audited.metrics.retries, 1,
        "the injected abort retried once"
    );
    assert_eq!(
        (unaudited.metrics.committed, unaudited.metrics.retries),
        (40, 1)
    );
    assert_eq!(audited.final_state, unaudited.final_state);
    let wal = audited.wal.expect("durable");
    assert_eq!(wal, unaudited.wal.expect("durable"), "log images differ");
    assert!(audited
        .audit
        .expect("audited")
        .report
        .oo_decentralized
        .is_ok());
}
