//! "Reliably — as if there were no failures", for open nested
//! transactions: the engine's write-ahead log with group commit and
//! compensation-based recovery, demonstrated with a real workload that
//! gets killed mid-run.
//!
//! Run with: `cargo run --example crash_recovery`

use oodb::engine::{durability, CcKind, DurabilityMode, Engine, EngineConfig};
use oodb::sim::EncOp;
use std::time::Duration;

fn main() {
    // ----- the engine path: run a workload, kill it, recover, audit ----
    //
    // Open nested transactions release page effects at subtransaction
    // commit, so an enclosing abort cannot restore before-images — undo
    // must be *semantic compensation*. The engine's WAL logs exactly
    // that: every executed mutation carries its redo and its inverse,
    // and a commit is acknowledged only once its record is durable.
    println!("--- engine: workload → kill → recover → audit ---");
    let engine = Engine::start(
        EngineConfig {
            workers: 4,
            durability: DurabilityMode::Group {
                max_batch: 4,
                max_wait: Duration::from_millis(2),
            },
            audit: false, // the recovery side runs the audit below
            ..EngineConfig::default()
        },
        CcKind::Pessimistic,
    );
    engine.preload(&["hot".to_string()]);
    for j in 0..48u64 {
        engine
            .submit_blocking(vec![
                EncOp::Insert(format!("user{j:03}")),
                EncOp::Change("hot".to_string()),
            ])
            .unwrap();
    }
    // pull the plug while workers are mid-flight: acked commits and the
    // durable log prefix survive, the volatile tail is lost
    std::thread::sleep(Duration::from_millis(10));
    let (acked, wal_image) = engine.crash_probe().expect("durability is on");
    println!(
        "kill: {} commits acknowledged, {} durable WAL bytes (tail lost)",
        acked.len(),
        wal_image.len()
    );
    engine.shutdown(); // join the doomed process's threads

    let recovered = durability::recover(&wal_image, 8);
    println!(
        "recovery: {} records ({} txns: {} committed, {} aborted, {} losers), \
         {} redo ops, {} + {} compensations",
        recovered.stats.records,
        recovered.stats.txns,
        recovered.stats.committed,
        recovered.stats.aborted,
        recovered.stats.losers,
        recovered.stats.ops,
        recovered.stats.comps,
        recovered.stats.loser_comps,
    );
    assert!(
        recovered.consistent(),
        "recovered committed projection must pass every serializability checker"
    );
    for job in acked.iter().filter(|&&j| j != u64::MAX) {
        let key = format!("user{job:03}");
        assert!(
            recovered.final_state.iter().any(|(k, _)| *k == key),
            "acknowledged commit {job} lost its insert"
        );
    }
    println!(
        "audit: committed projection serializable; all {} acked commits present",
        acked.iter().filter(|&&j| j != u64::MAX).count()
    );
}
