//! Every arrival order of a small workload under strict 2PL audits clean.
//!
//! The optimistic control never blocks in `before_op`, so the virtual
//! scheduler drives it through every *op-level* interleaving
//! (`cert_differential.rs`). Strict 2PL blocks inside the concurrency
//! control (a single thread would deadlock against itself), so it is
//! exercised at *transaction-arrival* granularity instead: every
//! permutation of the submission order through the real engine.

mod common;

use common::conflicting_4txn_workload;
use oodb_engine::{CcKind, Engine, EngineConfig};

/// The blocking (pessimistic) strategies, exercised at arrival
/// granularity: every permutation of the 4-transaction submission order
/// through the real engine, sharded and unsharded — all commit, merged
/// audit passes.
#[test]
fn every_submission_permutation_audits_clean_under_locking() {
    let (txns, preload) = conflicting_4txn_workload();
    let mut orders = Vec::new();
    let mut idx: Vec<usize> = (0..txns.len()).collect();
    permute(&mut idx, 0, &mut orders);
    assert_eq!(orders.len(), 24);
    for order in &orders {
        for shards in [1usize, 3] {
            let cfg = EngineConfig {
                workers: 3,
                queue_capacity: 8,
                shards,
                seed: 7,
                ..EngineConfig::default()
            };
            let engine = Engine::start(cfg, CcKind::Pessimistic);
            engine.preload(&preload);
            for &t in order {
                engine.submit_blocking(txns[t].clone()).unwrap();
            }
            let out = engine.shutdown();
            assert_eq!(
                out.metrics.committed as usize,
                txns.len(),
                "order {order:?}"
            );
            let audit_out = out.audit.expect("audit enabled");
            assert!(
                audit_out.report.oo_decentralized.is_ok() && audit_out.report.oo_global.is_ok(),
                "order {order:?} shards={shards}: full-record audit must pass"
            );
        }
    }
}

fn permute(idx: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k == idx.len() {
        out.push(idx.clone());
        return;
    }
    for i in k..idx.len() {
        idx.swap(k, i);
        permute(idx, k + 1, out);
        idx.swap(k, i);
    }
}
