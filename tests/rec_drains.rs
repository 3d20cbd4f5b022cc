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

use oodb::engine::{CcKind, Engine, EngineConfig};
use oodb::model::recorder::STAGE_BOUND;
use oodb::sim::EncOp;

const TXNS: u64 = 200;

#[test]
fn one_worker_drains_once_per_transaction() {
    let engine = Engine::start(
        EngineConfig {
            workers: 1,
            fanout: 8,
            audit: false,
            ..EngineConfig::default()
        },
        CcKind::Pessimistic,
    );
    let keys: Vec<String> = (0..256).map(|i| format!("k{i:03}")).collect();
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
}
