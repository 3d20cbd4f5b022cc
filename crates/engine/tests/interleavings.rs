//! Deterministic interleaving harness: replay a fixed operation trace
//! under a virtual (single-threaded) scheduler, one recorded step at a
//! time, and assert the merged audit passes for **every** interleaving
//! of a small workload.
//!
//! The optimistic strategies never block in `before_op`, so the virtual
//! scheduler can drive them through *op-granularity* interleavings —
//! every merge of the transactions' operation sequences. The pessimistic
//! strategies block inside the concurrency control (a single thread
//! would deadlock against itself), so they are exercised at
//! *transaction-arrival* granularity instead: every permutation of the
//! submission order through the real engine.

mod common;

use common::{
    conflicting_3txn_workload, conflicting_4txn_workload, interleavings, RunOutcome,
    VirtualScheduler,
};
use oodb_engine::{CcKind, Engine, EngineConfig, OptimisticCc};
use oodb_sim::EncOp;
use std::sync::Arc;

fn replay(
    shards: usize,
    txns: &[Vec<EncOp>],
    preload: &[String],
    schedule: &[usize],
) -> RunOutcome {
    let cc = Arc::new(OptimisticCc::new().with_shards(shards));
    VirtualScheduler::new(cc, txns, preload).run(schedule)
}

/// Every op-level interleaving of a conflicting 3-transaction workload:
/// the merged audit passes and all transactions eventually commit, at 3
/// shards and at 1.
#[test]
fn every_3txn_interleaving_audits_clean() {
    let (txns, preload) = conflicting_3txn_workload();
    let counts: Vec<usize> = txns.iter().map(Vec::len).collect();
    let all = interleavings(&counts);
    assert_eq!(all.len(), 90, "6!/(2!·2!·2!) interleavings");
    for (i, schedule) in all.iter().enumerate() {
        for shards in [3, 1] {
            let out = replay(shards, &txns, &preload, schedule);
            assert_eq!(
                out.committed,
                txns.len(),
                "interleaving {i} ({shards} shards): all txns commit"
            );
            assert!(
                out.decentralized_ok && out.global_ok,
                "interleaving {i} ({shards} shards): merged audit must pass"
            );
        }
    }
}

/// Every op-level interleaving of a ≤4-transaction workload under the
/// optimistic control at 3 shards (630 merges), plus determinism spot
/// checks: replaying the same interleaving twice gives bit-identical
/// outcomes (decisions, commits, retries, verdicts, final state).
#[test]
fn every_4txn_interleaving_audits_clean_and_replays_deterministically() {
    let (txns, preload) = conflicting_4txn_workload();
    let counts: Vec<usize> = txns.iter().map(Vec::len).collect();
    let all = interleavings(&counts);
    assert_eq!(all.len(), 630, "7!/(2!·2!·2!·1!) interleavings");
    for (i, schedule) in all.iter().enumerate() {
        let out = replay(3, &txns, &preload, schedule);
        assert_eq!(
            out.committed,
            txns.len(),
            "interleaving {i}: all txns commit"
        );
        assert!(
            out.decentralized_ok && out.global_ok,
            "interleaving {i}: merged audit must pass"
        );
        if i % 37 == 0 {
            let again = replay(3, &txns, &preload, schedule);
            assert_eq!(out, again, "interleaving {i}: replay must be deterministic");
        }
    }
}

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
