//! Differential proptest oracle: random workloads run on several shards
//! under `OptimisticCc` and `ShardedPessimisticCc` must pass the merged
//! audit **and** agree on the final object state with their single-shard
//! baselines.
//!
//! Workload discipline: every transaction *writes* only keys from its
//! own private partition (reads and scans roam everywhere). Disjoint
//! write sets make the final database state independent of the commit
//! order the scheduler happens to pick, so four configurations — two
//! protocols × {1 shard, 4 shards} — must produce bit-identical final
//! states no matter how their retries, victim choices, and shard
//! routings differ. Any divergence is a lost update, an orphaned
//! compensation, or a routing hole.
//!
//! A third oracle pits MVCC snapshot execution against both strict 2PL
//! and legacy in-place optimistic certification, additionally pinning
//! the MVCC guarantee that commit-dependency waits and cascading aborts
//! cannot occur (uncommitted writes are never visible).

use oodb_engine::{AuditScope, CcKind, EngineConfig, EngineOutput, OptimisticExec};
use oodb_sim::EncOp;
use proptest::prelude::*;

/// Shared read-only pool (preloaded, never written by workload txns).
fn shared_key(i: usize) -> String {
    format!("s{:02}", i % 6)
}

/// Private write partition of transaction `t`: slot 0 is preloaded (so
/// updates and deletes have something to hit), slot 1 starts absent.
fn private_key(t: usize, slot: usize) -> String {
    format!("p{t:02}x{slot}")
}

/// One operation of transaction `t`, decoded from a generated opcode.
/// Write opcodes only ever touch `t`'s private partition.
fn decode(t: usize, code: u8, roam: usize) -> EncOp {
    match code {
        0 => EncOp::Change(private_key(t, 0)),
        1 => EncOp::Insert(private_key(t, 1)),
        2 => EncOp::Delete(private_key(t, 0)),
        3 => EncOp::Search(shared_key(roam)),
        4 => EncOp::Search(private_key(roam % 8, 0)),
        5 => {
            let (a, b) = (shared_key(roam), shared_key(roam + 3));
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            EncOp::Range(lo, hi)
        }
        _ => EncOp::ReadSeq,
    }
}

#[derive(Debug, Clone)]
struct Workload {
    /// Per transaction: (opcode, roam) pairs.
    txns: Vec<Vec<(u8, usize)>>,
    seed: u64,
}

fn workload() -> impl Strategy<Value = Workload> {
    (
        prop::collection::vec(prop::collection::vec((0u8..7, 0usize..8), 2..5), 3..8),
        0u64..1024,
    )
        .prop_map(|(txns, seed)| Workload { txns, seed })
}

fn materialize(w: &Workload) -> (Vec<String>, Vec<Vec<EncOp>>) {
    let mut preload: Vec<String> = (0..6).map(shared_key).collect();
    preload.extend((0..w.txns.len()).map(|t| private_key(t, 0)));
    let ops = w
        .txns
        .iter()
        .enumerate()
        .map(|(t, codes)| {
            codes
                .iter()
                .map(|&(code, roam)| decode(t, code, roam))
                .collect()
        })
        .collect();
    (preload, ops)
}

fn run(w: &Workload, kind: CcKind, shards: usize, exec: OptimisticExec) -> EngineOutput {
    let (preload, txns) = materialize(w);
    let cfg = EngineConfig {
        workers: 4,
        queue_capacity: 16,
        shards,
        seed: w.seed,
        optimistic_exec: exec,
        ..EngineConfig::default()
    };
    let engine = oodb_engine::Engine::start(cfg, kind);
    engine.preload(&preload);
    for ops in txns {
        engine.submit_blocking(ops).expect("accepts until shutdown");
    }
    engine.shutdown()
}

fn check_one(out: &EngineOutput, w: &Workload, label: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        out.metrics.committed as usize,
        w.txns.len(),
        "{}: every transaction must eventually commit (aborted {})",
        label,
        out.metrics.aborted
    );
    let audit = out.audit.as_ref().expect("audit enabled");
    prop_assert!(
        audit.report.oo_decentralized.is_ok(),
        "{}: merged audit must pass: {:?}",
        label,
        audit.report.oo_decentralized
    );
    prop_assert!(audit.report.oo_global.is_ok(), "{}: global check", label);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Four configurations — {optimistic, pessimistic} × {1, 4 shards} —
    /// all commit everything, all pass the merged audit, and all agree
    /// on the final object state.
    #[test]
    fn sharded_and_single_shard_agree(w in workload()) {
        let opt1 = run(&w, CcKind::Optimistic, 1, OptimisticExec::InPlace);
        let opt4 = run(&w, CcKind::Optimistic, 4, OptimisticExec::InPlace);
        let pes1 = run(&w, CcKind::Pessimistic, 1, OptimisticExec::InPlace);
        let pes4 = run(&w, CcKind::Pessimistic, 4, OptimisticExec::InPlace);
        check_one(&opt1, &w, "optimistic/1")?;
        check_one(&opt4, &w, "optimistic/4")?;
        check_one(&pes1, &w, "pessimistic/1")?;
        check_one(&pes4, &w, "sharded-pessimistic/4")?;
        prop_assert_eq!(opt4.cc_name, "optimistic");
        prop_assert_eq!(pes4.cc_name, "sharded-pessimistic");
        // disjoint write sets ⇒ the final state is commit-order
        // independent ⇒ all four runs must agree exactly
        prop_assert_eq!(&opt4.final_state, &opt1.final_state,
            "4-shard optimistic diverged from its single-shard baseline");
        prop_assert_eq!(&pes4.final_state, &pes1.final_state,
            "sharded pessimistic diverged from its single-shard baseline");
        prop_assert_eq!(&opt1.final_state, &pes1.final_state,
            "optimistic and pessimistic baselines diverged");
        // audit scope matches the protocol's guarantee in all variants
        prop_assert_eq!(opt1.audit.as_ref().unwrap().scope, AuditScope::CommittedOnly);
        prop_assert_eq!(opt4.audit.as_ref().unwrap().scope, AuditScope::CommittedOnly);
        prop_assert_eq!(pes1.audit.as_ref().unwrap().scope, AuditScope::FullRecord);
        prop_assert_eq!(pes4.audit.as_ref().unwrap().scope, AuditScope::FullRecord);
    }

    /// High-contention variant: every transaction also *reads* the other
    /// partitions' hot slot 0 keys, maximizing cross-txn dependencies
    /// (waits, victim aborts, cascades) while writes stay disjoint — the
    /// agreement obligation is unchanged.
    #[test]
    fn agreement_survives_read_contention(
        codes in prop::collection::vec(0u8..3, 6),
        seed in 0u64..512,
    ) {
        let txns: Vec<Vec<(u8, usize)>> = codes
            .iter()
            .enumerate()
            .map(|(t, &c)| vec![(c, 0), (4, (t + 1) % 6), (4, (t + 2) % 6)])
            .collect();
        let w = Workload { txns, seed };
        let opt1 = run(&w, CcKind::Optimistic, 1, OptimisticExec::InPlace);
        let opt3 = run(&w, CcKind::Optimistic, 3, OptimisticExec::InPlace);
        let pes3 = run(&w, CcKind::Pessimistic, 3, OptimisticExec::InPlace);
        check_one(&opt1, &w, "optimistic/1")?;
        check_one(&opt3, &w, "optimistic/3")?;
        check_one(&pes3, &w, "sharded-pessimistic/3")?;
        prop_assert_eq!(&opt3.final_state, &opt1.final_state);
        prop_assert_eq!(&pes3.final_state, &opt1.final_state);
    }

    /// MVCC snapshot execution against two independent oracles: strict
    /// 2PL and legacy in-place optimistic certification. All runs must
    /// pass the (committed-projection) audit and agree bit-for-bit on
    /// the final object state — and the MVCC runs must exhibit **zero**
    /// commit-dependency waits and **zero** cascading dooms, since no
    /// transaction can ever observe uncommitted state.
    #[test]
    fn mvcc_agrees_with_2pl_and_legacy_optimistic(w in workload()) {
        let mvcc1 = run(&w, CcKind::Optimistic, 1, OptimisticExec::Snapshot);
        let mvcc4 = run(&w, CcKind::Optimistic, 4, OptimisticExec::Snapshot);
        let legacy = run(&w, CcKind::Optimistic, 1, OptimisticExec::InPlace);
        let pess = run(&w, CcKind::Pessimistic, 1, OptimisticExec::Snapshot);
        check_one(&mvcc1, &w, "mvcc/1")?;
        check_one(&mvcc4, &w, "mvcc/4")?;
        check_one(&legacy, &w, "optimistic/1")?;
        check_one(&pess, &w, "pessimistic/1")?;
        prop_assert_eq!(mvcc1.cc_name, "mvcc");
        prop_assert_eq!(mvcc4.cc_name, "mvcc");
        prop_assert_eq!(legacy.cc_name, "optimistic");
        prop_assert_eq!(&mvcc1.final_state, &pess.final_state,
            "MVCC diverged from the 2PL oracle");
        prop_assert_eq!(&mvcc4.final_state, &pess.final_state,
            "4-shard MVCC diverged from the 2PL oracle");
        prop_assert_eq!(&mvcc1.final_state, &legacy.final_state,
            "MVCC diverged from the legacy in-place optimistic oracle");
        for (out, label) in [(&mvcc1, "mvcc/1"), (&mvcc4, "mvcc/4")] {
            prop_assert_eq!(out.metrics.commit_dep_waits, 0,
                "{}: snapshot execution must never wait on a commit dependency", label);
            prop_assert_eq!(out.metrics.cascade_dooms, 0,
                "{}: snapshot execution must never cascade an abort", label);
            prop_assert_eq!(out.audit.as_ref().unwrap().scope, AuditScope::CommittedOnly);
        }
    }
}
