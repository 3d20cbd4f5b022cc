//! Full-stack integration: workloads run by the engine with recording,
//! Definition 5 extension, dependency inference, checking and
//! measurement in one pass — the complete pipeline a user of this library
//! runs.

use oodb::core::prelude::*;
use oodb::engine::{run_workload, AuditOutput, CcKind, EngineConfig};
use oodb::sim::{encyclopedia_workload, EncMix, EncWorkloadConfig, Skew};

/// The audited record of a one-worker strict-2PL engine run of the
/// workload `cfg` generates, on a tree of the given fanout. One worker
/// runs the transactions one after another and never retries.
fn engine_record(cfg: &EncWorkloadConfig, fanout: usize) -> AuditOutput {
    let engine = EngineConfig {
        workers: 1,
        fanout,
        ..EngineConfig::default()
    };
    let out = run_workload(&engine, CcKind::Pessimistic, &encyclopedia_workload(cfg));
    assert_eq!(out.metrics.committed as usize, cfg.txns);
    assert_eq!(out.metrics.retries, 0);
    out.audit.expect("audit is on by default")
}

#[test]
fn large_mixed_workload_pipeline() {
    let cfg = EncWorkloadConfig {
        txns: 10,
        ops_per_txn: 10,
        key_space: 300,
        preload: 150,
        mix: EncMix::read_mostly(),
        skew: Skew::Zipf(0.7),
        seed: 77,
    };
    let out = engine_record(&cfg, 8);
    // the preload and every transaction were recorded
    assert_eq!(out.ts.top_level().len(), 1 + 10);
    out.history.check_complete(&out.ts).unwrap();
    // histories recorded live always conform to programmed precedence
    assert!(out.history.check_conform(&out.ts).is_ok());
    // a substantial system was built
    assert!(out.ts.action_count() > 1_000, "{}", out.ts.action_count());
    assert!(out.ts.object_count() > 50, "{}", out.ts.object_count());
}

#[test]
fn serial_replays_always_pass_every_checker() {
    let cfg = EncWorkloadConfig {
        txns: 1,
        ops_per_txn: 40,
        key_space: 120,
        preload: 60,
        mix: EncMix::update_heavy(),
        skew: Skew::Uniform,
        seed: 9,
    };
    // single transaction: trivially serial
    let out = engine_record(&cfg, 4);
    assert!(out.report.oo_decentralized.is_ok());
    assert!(out.report.oo_global.is_ok());
    assert!(out.report.conventional.is_ok());
    assert!(out.report.multilevel.is_ok());
}

#[test]
fn deep_trees_exercise_virtual_objects_and_stay_sound() {
    let cfg = EncWorkloadConfig {
        txns: 4,
        ops_per_txn: 12,
        key_space: 500,
        preload: 200, // forces a deep tree at fanout 4
        mix: EncMix::insert_only(),
        skew: Skew::Uniform,
        seed: 123,
    };
    let out = engine_record(&cfg, 4);
    // splits happened during preload and during the measured txns:
    // virtual objects must exist
    let virtuals = out
        .ts
        .object_indices()
        .filter(|&o| out.ts.object(o).virtual_of.is_some())
        .count();
    assert!(
        virtuals > 0,
        "deep insert-only load must trigger Definition 5"
    );
    assert!(out.report.oo_decentralized.is_ok());
    assert!(out.report.oo_global.is_ok());
}

#[test]
fn trace_is_replayable_documentation() {
    // the derivation trace explains every edge: each Inherited edge's
    // endpoints must be actions on the `at` object, and every TxnDep's
    // children must conflict on the `object`
    let cfg = EncWorkloadConfig {
        txns: 4,
        ops_per_txn: 6,
        key_space: 64,
        preload: 32,
        mix: EncMix::update_heavy(),
        skew: Skew::Uniform,
        seed: 55,
    };
    let out = engine_record(&cfg, 8);
    let ss = SystemSchedules::infer(&out.ts, &out.history);
    for d in ss.trace() {
        match d {
            Derivation::Inherited { at, from, to, .. } => {
                assert_eq!(out.ts.action(*from).object, *at);
                assert_eq!(out.ts.action(*to).object, *at);
            }
            Derivation::TxnDep {
                object,
                from_child,
                to_child,
                from,
                to,
            } => {
                assert_eq!(out.ts.action(*from_child).object, *object);
                assert_eq!(out.ts.action(*to_child).object, *object);
                assert!(out.ts.conflicts(*from_child, *to_child));
                assert_eq!(out.ts.action(*from_child).parent, Some(*from));
                assert_eq!(out.ts.action(*to_child).parent, Some(*to));
            }
            Derivation::PrimitiveOrder { object, from, to } => {
                assert_eq!(out.ts.action(*from).object, *object);
                assert_eq!(out.ts.action(*to).object, *object);
                assert!(out.history.before(*from, *to));
                assert!(out.ts.conflicts(*from, *to));
            }
            Derivation::Added {
                from,
                to,
                at_from,
                at_to,
                ..
            } => {
                assert_eq!(out.ts.action(*from).object, *at_from);
                assert_eq!(out.ts.action(*to).object, *at_to);
                assert_ne!(at_from, at_to);
            }
            Derivation::VirtualFootprint { .. } => {}
        }
    }
}

/// The engine's optimistic strategy — writes deferred to the commit
/// point, reads of committed state when issued, incremental
/// certification — at 1 and at 4 shards: every
/// transaction commits, both checkers pass the committed projection, and
/// the two runs end in the same state. Each transaction writes its own
/// key and reads two neighbours' (real read-write dependencies, a final
/// state that does not depend on the commit order).
#[test]
fn optimistic_engine_audits_clean_at_one_and_four_shards() {
    use oodb::engine::{CcKind, Engine, EngineConfig};
    use oodb::sim::EncOp;

    const TXNS: usize = 48;
    let own = |t: usize| format!("p{:02}", t % TXNS);
    let preload: Vec<String> = (0..TXNS).map(own).collect();
    let run = |shards: usize| {
        let cfg = EngineConfig {
            workers: 4,
            queue_capacity: 16,
            shards,
            seed: 18,
            ..EngineConfig::default()
        };
        let engine = Engine::start(cfg, CcKind::Optimistic);
        engine.preload(&preload);
        for t in 0..TXNS {
            let ops = vec![
                EncOp::Search(own(t + 1)),
                EncOp::Change(own(t)),
                EncOp::Search(own(t + 2)),
            ];
            engine.submit_blocking(ops).expect("accepts until shutdown");
        }
        let out = engine.shutdown();
        assert_eq!(
            out.cc_name, "optimistic",
            "{shards} shards: one strategy, one name"
        );
        assert_eq!(out.metrics.committed as usize, TXNS, "{shards} shards");
        assert_eq!(out.metrics.aborted, 0, "{shards} shards");
        let audit = out.audit.expect("audit enabled by default");
        assert!(audit.report.oo_decentralized.is_ok(), "{shards} shards");
        assert!(audit.report.oo_global.is_ok(), "{shards} shards");
        out.final_state
    };
    let (one, four) = (run(1), run(4));
    assert_eq!(one.len(), TXNS);
    assert_eq!(one, four, "the shard count is accounting, not behaviour");
}
