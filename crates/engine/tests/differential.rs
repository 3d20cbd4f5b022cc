//! Differential proptest oracle: random workloads run on several metric
//! lanes under `OptimisticCc` and `LockingCc` must pass the merged audit
//! **and** agree on the final object state with their single-lane
//! baselines.
//!
//! Workload discipline: every transaction *writes* only keys from its
//! own private partition (reads and scans roam everywhere). Disjoint
//! write sets make the final database state independent of the commit
//! order the scheduler happens to pick, so four configurations — two
//! protocols × {1 shard, 4 shards} — must produce bit-identical final
//! states no matter how their retries, victim choices, and shard
//! routings differ. Any divergence is a lost update, an orphaned
//! compensation, or a routing hole. Strict 2PL is the reference the
//! optimistic runs are held to. (That deferring writes to the commit
//! point never waits on a commit dependency and never cascades an abort
//! used to be asserted here on counters; it is now a fact of the types —
//! the trait has no such outcome.)

use oodb_engine::{AuditScope, CcKind, EngineConfig, EngineOutput};
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

fn run(w: &Workload, kind: CcKind, shards: usize) -> EngineOutput {
    let (preload, txns) = materialize(w);
    let cfg = EngineConfig {
        workers: 4,
        queue_capacity: 16,
        shards,
        seed: w.seed,
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
    fn optimistic_and_2pl_agree_at_one_and_four_shards(w in workload()) {
        let opt1 = run(&w, CcKind::Optimistic, 1);
        let opt4 = run(&w, CcKind::Optimistic, 4);
        let pes1 = run(&w, CcKind::Pessimistic, 1);
        let pes4 = run(&w, CcKind::Pessimistic, 4);
        check_one(&opt1, &w, "optimistic/1")?;
        check_one(&opt4, &w, "optimistic/4")?;
        check_one(&pes1, &w, "pessimistic/1")?;
        check_one(&pes4, &w, "pessimistic/4")?;
        prop_assert_eq!(opt1.cc_name, "optimistic");
        prop_assert_eq!(opt4.cc_name, "optimistic");
        prop_assert_eq!(pes1.cc_name, "pessimistic");
        prop_assert_eq!(pes4.cc_name, "pessimistic", "one strict-2PL control at every shard count");
        // disjoint write sets ⇒ the final state is commit-order
        // independent ⇒ all four runs must agree exactly
        prop_assert_eq!(&opt4.final_state, &opt1.final_state,
            "4-shard MVCC diverged from its single-shard baseline");
        prop_assert_eq!(&pes4.final_state, &pes1.final_state,
            "4-lane pessimistic diverged from its single-lane baseline");
        prop_assert_eq!(&opt1.final_state, &pes1.final_state,
            "MVCC diverged from the 2PL reference");
        // audit scope matches the protocol's guarantee in all variants
        prop_assert_eq!(opt1.audit.as_ref().unwrap().scope, AuditScope::CommittedOnly);
        prop_assert_eq!(opt4.audit.as_ref().unwrap().scope, AuditScope::CommittedOnly);
        prop_assert_eq!(pes1.audit.as_ref().unwrap().scope, AuditScope::FullRecord);
        prop_assert_eq!(pes4.audit.as_ref().unwrap().scope, AuditScope::FullRecord);
    }

    /// High-contention variant: every transaction also *reads* the other
    /// partitions' hot slot 0 keys, maximizing cross-txn dependencies
    /// (lock waits, victim aborts, validation failures) while writes stay
    /// disjoint — the agreement obligation is unchanged.
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
        let opt1 = run(&w, CcKind::Optimistic, 1);
        let opt3 = run(&w, CcKind::Optimistic, 3);
        let pes3 = run(&w, CcKind::Pessimistic, 3);
        check_one(&opt1, &w, "optimistic/1")?;
        check_one(&opt3, &w, "optimistic/3")?;
        check_one(&pes3, &w, "pessimistic/3")?;
        prop_assert_eq!(&opt3.final_state, &opt1.final_state);
        prop_assert_eq!(&pes3.final_state, &opt1.final_state);
    }
}
