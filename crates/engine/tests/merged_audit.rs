//! Regression pin for merged-audit semantics (the certifier must hand
//! the checker its *committed projection*, at any shard count — not the
//! full record), and for what a shard is under certification: a lane of
//! the metrics.
//!
//! An optimistic run with a retry necessarily records actions of the
//! aborted attempt and its compensation; those were never certified, so
//! auditing them would either fail spuriously or (worse) mask a real
//! violation inside the committed projection. The pessimistic protocols
//! promise more — strict 2PL keeps even aborted attempts and their
//! under-lock compensations oo-serializable — so their audit keeps the
//! full record. A deterministic injected fault produces the retry in
//! both runs, and the audited transaction names pin the scopes exactly.

use oodb_engine::{
    shard_of_key, AuditScope, CcKind, Engine, EngineConfig, LockingCc, OptimisticCc,
};
use oodb_sim::EncOp;
use std::sync::Arc;

fn cfg(shards: usize) -> EngineConfig {
    EngineConfig {
        workers: 2,
        queue_capacity: 8,
        shards,
        seed: 17,
        ..EngineConfig::default()
    }
}

fn workload() -> (Vec<String>, Vec<Vec<EncOp>>) {
    let preload = vec!["hot1".to_string(), "hot2".to_string()];
    let txns = vec![
        vec![EncOp::Change("hot1".into()), EncOp::Change("hot2".into())],
        vec![EncOp::Search("hot1".into()), EncOp::Insert("mine2".into())],
        vec![EncOp::Search("hot2".into()), EncOp::Insert("mine3".into())],
    ];
    (preload, txns)
}

/// Optimistic on 2 shards: the audit covers exactly the committed
/// set — one committed attempt per job plus the preload — and never the
/// aborted attempt or its compensation, even though both are in the
/// record.
#[test]
fn sharded_optimistic_audits_only_the_merged_committed_projection() {
    let (preload, txns) = workload();
    let cc = Arc::new(OptimisticCc::new());
    let engine = Engine::start_with(cfg(2), cc.clone());
    engine.inject_fault_after(0, 0, 1); // J1's first attempt dies, J1r1 commits
    engine.preload(&preload);
    for ops in txns {
        engine.submit_blocking(ops).unwrap();
    }
    let out = engine.shutdown();
    assert_eq!(out.metrics.committed, 3);
    assert!(out.metrics.retries >= 1, "the injected fault fired");

    let audit = out.audit.expect("audit enabled");
    assert_eq!(audit.scope, AuditScope::CommittedOnly);
    assert!(audit.report.oo_decentralized.is_ok());
    assert!(audit.report.oo_global.is_ok());

    let names = audit.audited_txn_names();
    assert!(
        names.contains("Setup"),
        "the preload committed through the CC"
    );
    assert!(names.contains("J1r1"), "the retry is the committed attempt");
    assert!(
        !names.contains("J1"),
        "the aborted first attempt is not audited"
    );
    assert!(
        !names.iter().any(|n| n.starts_with("C(")),
        "compensations are never part of the committed projection: {names:?}"
    );
    // exactly the commit decisions, nothing else
    assert_eq!(audit.audited_txns().len(), cc.committed_count());
    assert_eq!(cc.committed_count(), 4, "3 jobs + Setup");

    // ...while the full record does contain the uncertified transactions
    let all_names: std::collections::BTreeSet<String> = (0..audit.ts.top_level().len())
        .map(|t| {
            audit
                .ts
                .action(audit.ts.top_level()[t])
                .descriptor
                .method
                .to_string()
        })
        .collect();
    assert!(all_names.contains("J1"), "aborted attempt is in the record");
    assert!(
        all_names.iter().any(|n| n.starts_with("C(J1a0)")),
        "its compensation is in the record: {all_names:?}"
    );
}

/// Strict 2PL on 2 lanes: the audit keeps the full record — aborted
/// attempt and compensation included — and it still passes, because
/// compensation ran under the held locks.
#[test]
fn sharded_pessimistic_audits_the_full_record() {
    let (preload, txns) = workload();
    let cc = Arc::new(LockingCc::semantic());
    let engine = Engine::start_with(cfg(2), cc.clone());
    engine.inject_fault_after(0, 0, 1);
    engine.preload(&preload);
    for ops in txns {
        engine.submit_blocking(ops).unwrap();
    }
    let out = engine.shutdown();
    assert_eq!(out.metrics.committed, 3);
    assert!(out.metrics.retries >= 1, "the injected fault fired");

    let audit = out.audit.expect("audit enabled");
    assert_eq!(audit.scope, AuditScope::FullRecord);
    assert!(audit.report.oo_decentralized.is_ok());
    assert!(audit.report.oo_global.is_ok());

    let names = audit.audited_txn_names();
    assert!(names.contains("J1"), "aborted attempt IS audited");
    assert!(names.contains("J1r1"), "so is the committed retry");
    assert!(
        names.iter().any(|n| n.starts_with("C(J1a0)")),
        "and the compensation: {names:?}"
    );
    // full record: every top-level transaction that recorded a primitive
    // is in the audited history. (A deadlock victim can abort at its
    // first operation — that transaction is empty, and no primitive-keyed
    // history can contain it, so the comparison skips it. Virtual
    // primitives added by the Definition 5 extension don't count: they
    // are ts-side duplicates, never history entries; nor does the root
    // itself, which is a childless leaf for an empty transaction.)
    let non_empty = audit
        .ts
        .top_level()
        .iter()
        .filter(|&&root| {
            audit
                .ts
                .primitive_descendants(root)
                .iter()
                .any(|&p| p != root && !audit.ts.action(p).is_virtual)
        })
        .count();
    assert_eq!(audit.audited_txns().len(), non_empty);
}

/// Under certification the shard count is accounting: on one worker (no
/// retries, so every operation is counted once) the per-lane `ops` and
/// `commits` and the cross-shard counter are exactly what
/// [`shard_of_key`] predicts from the submitted operations — the
/// preload included, which runs through the control like any job.
#[test]
fn optimistic_lanes_count_what_the_key_hash_predicts() {
    const SHARDS: usize = 4;
    let preload: Vec<String> = (0..8).map(|i| format!("k{i:02}")).collect();
    let key = |i: usize| preload[i % preload.len()].clone();
    let mut txns: Vec<Vec<EncOp>> = (0..12)
        .map(|j| {
            vec![
                EncOp::Search(key(j)),
                EncOp::Change(key(j + 3)),
                EncOp::Insert(format!("n{j:02}")),
            ]
        })
        .collect();
    txns.push(vec![EncOp::ReadSeq]);
    txns.push(vec![EncOp::Range(key(0), key(5)), EncOp::Delete(key(1))]);
    txns.push(vec![EncOp::Search(key(2)), EncOp::Search(key(2))]);

    let (mut ops, mut commits, mut cross) = ([0u64; SHARDS], [0u64; SHARDS], 0u64);
    let setup: Vec<EncOp> = preload.iter().cloned().map(EncOp::Insert).collect();
    for txn in std::iter::once(&setup).chain(&txns) {
        let mut footprint = [false; SHARDS];
        for op in txn {
            let lanes = match op {
                EncOp::Insert(k) | EncOp::Search(k) | EncOp::Change(k) | EncOp::Delete(k) => {
                    let s = shard_of_key(k, SHARDS);
                    s..s + 1
                }
                EncOp::ReadSeq | EncOp::Range(..) => 0..SHARDS,
            };
            for s in lanes {
                ops[s] += 1;
                footprint[s] = true;
            }
        }
        for s in 0..SHARDS {
            commits[s] += u64::from(footprint[s]);
        }
        cross += u64::from(footprint.iter().filter(|&&f| f).count() > 1);
    }

    let config = EngineConfig {
        workers: 1,
        ..cfg(SHARDS)
    };
    let engine = Engine::start(config, CcKind::Optimistic);
    engine.preload(&preload);
    for t in &txns {
        engine.submit_blocking(t.clone()).unwrap();
    }
    let out = engine.shutdown();
    assert_eq!(out.metrics.committed as usize, txns.len());
    assert_eq!(out.metrics.retries, 0, "serial, nothing retries");
    let lanes = &out.metrics.shards;
    assert_eq!(lanes.len(), SHARDS);
    for s in 0..SHARDS {
        assert_eq!(lanes[s].ops, ops[s], "ops on lane {s}");
        assert_eq!(lanes[s].commits, commits[s], "commits on lane {s}");
    }
    assert_eq!(out.metrics.cross_shard, cross);
    let audit = out.audit.expect("audit enabled");
    assert!(audit.report.oo_decentralized.is_ok() && audit.report.oo_global.is_ok());
}
