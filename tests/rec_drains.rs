//! The count that the staged record is about: the process-wide record
//! lock is taken once per transaction, not once per page visit. A
//! six-search transaction makes 42 page visits on a depth-3 tree; the
//! lock-per-visit recorder took its lock 43 times for it, this one
//! drains once, in `begin_txn`. A count, so it repeats exactly.

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
    let loaded = engine.metrics().rec_drains;
    for t in 0..TXNS as usize {
        let ops = (0..6)
            .map(|i| EncOp::Search(keys[(t * 6 + i) * 37 % keys.len()].clone()))
            .collect();
        engine.submit_blocking(ops).expect("engine accepts work");
    }
    let out = engine.shutdown();
    assert_eq!(out.metrics.committed, TXNS);
    let drains = out.metrics.rec_drains - loaded;
    println!(
        "{drains} drains for {TXNS} transactions, staged peak {}",
        out.metrics.rec_staged_peak
    );
    assert!(
        (TXNS..=TXNS + 2).contains(&drains),
        "{drains} drains for {TXNS} transactions"
    );
    // a whole transaction was staged at once, and never more than the bound
    let peak = out.metrics.rec_staged_peak as usize;
    assert!((6 * 3..=STAGE_BOUND + 2).contains(&peak), "peak {peak}");
}
