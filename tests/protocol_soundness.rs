//! Integration: checker and protocol soundness across workloads.
//!
//! * on the audited record of every engine execution, oo never orders
//!   more transaction pairs than the conventional view (the inclusions
//!   `conventional-SR ⟹ oo-SR` and `oo-global ⟹ oo-decentralized` over
//!   arbitrary interleavings are tested by `oodb-core`'s
//!   `properties.rs::{conventional_sr_implies_oo_sr,
//!   global_check_strengthens_decentralized}` and `oodb-sim`'s
//!   `acceptance::tests::inclusion_holds_and_oo_accepts_at_least_conventional`);
//! * every execution of the engine under semantic strict 2PL is
//!   oo-serializable, aborted attempts and compensations included.

use oodb::sim::{conflict_rates, encyclopedia_workload, EncMix, EncWorkloadConfig, Skew};

#[test]
fn checker_inclusions_on_replayed_executions() {
    use oodb::engine::{run_workload, CcKind, EngineConfig};
    // one worker: no attempt retries, so every recorded transaction
    // after the preload is a measured one
    let engine = EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    };
    for seed in 0..8 {
        let cfg = EncWorkloadConfig {
            txns: 6,
            ops_per_txn: 6,
            key_space: 96,
            preload: 48,
            mix: EncMix::update_heavy(),
            skew: Skew::Zipf(0.9),
            seed: 100 + seed,
        };
        let out = run_workload(&engine, CcKind::Pessimistic, &encyclopedia_workload(&cfg));
        assert_eq!(out.metrics.retries, 0, "seed {seed}");
        let audit = out.audit.expect("audit is on by default");
        assert!(audit.report.oo_decentralized.is_ok(), "seed {seed}");
        assert!(audit.report.oo_global.is_ok(), "seed {seed}");
        // conflict rates: oo never orders more pairs than conventional
        let rates = conflict_rates(&audit.ts, &audit.history, 1);
        assert_eq!(rates.txns, cfg.txns, "seed {seed}");
        assert!(rates.oo_ordered_pairs <= rates.conventional_ordered_pairs);
    }
}

/// The protocol-soundness theorem, end to end on real interleavings:
/// four engine workers under semantic strict 2PL, deadlock victims
/// compensated while they still hold their locks and retried. The
/// complete record — forward work, aborted attempts, compensations,
/// retries — is oo-serializable on every workload shape.
#[test]
fn engine_semantic_2pl_is_sound_on_every_workload_shape() {
    use oodb::engine::{run_workload, AuditScope, CcKind, EngineConfig};
    let base = EncWorkloadConfig {
        txns: 6,
        ops_per_txn: 6,
        key_space: 64,
        preload: 24,
        mix: EncMix::update_heavy(),
        skew: Skew::Zipf(0.8),
        seed: 0,
    };
    let shapes = [
        ("update-heavy zipf 0.8", base.clone(), 0..4u64),
        (
            "read-mostly",
            EncWorkloadConfig {
                txns: 8,
                mix: EncMix::read_mostly(),
                ..base.clone()
            },
            3..4,
        ),
        (
            // tiny key space: heavy same-key conflicts, deadlocks likely
            "same-key contention",
            EncWorkloadConfig {
                ops_per_txn: 5,
                key_space: 4,
                preload: 4,
                skew: Skew::Uniform,
                ..base.clone()
            },
            9..10,
        ),
        (
            "scan + range + update",
            EncWorkloadConfig {
                txns: 5,
                ops_per_txn: 4,
                key_space: 32,
                preload: 16,
                mix: EncMix {
                    insert: 0.3,
                    search: 0.2,
                    change: 0.3,
                    delete: 0.0,
                    read_seq: 0.1,
                    range: 0.1,
                },
                skew: Skew::Uniform,
                ..base.clone()
            },
            17..18,
        ),
        (
            "range-heavy",
            EncWorkloadConfig {
                txns: 5,
                ops_per_txn: 5,
                preload: 32,
                mix: EncMix::range_heavy(),
                skew: Skew::Uniform,
                ..base
            },
            0..3,
        ),
    ];
    // a victim retries until it commits
    let engine = EngineConfig {
        workers: 4,
        fanout: 8,
        max_retries: 64,
        ..EngineConfig::default()
    };
    for (shape, wcfg, seeds) in shapes {
        for seed in seeds {
            let w = encyclopedia_workload(&EncWorkloadConfig {
                seed,
                ..wcfg.clone()
            });
            let out = run_workload(&engine, CcKind::Pessimistic, &w);
            assert_eq!(
                out.metrics.committed as usize, wcfg.txns,
                "{shape} seed {seed}: all committed"
            );
            let audit = out.audit.expect("audit is on by default");
            assert_eq!(audit.scope, AuditScope::FullRecord, "{shape} seed {seed}");
            assert!(
                audit.report.oo_decentralized.is_ok(),
                "{shape} seed {seed}: {:?}",
                audit.report.oo_decentralized
            );
            assert!(audit.report.oo_global.is_ok(), "{shape} seed {seed}");
        }
    }
}
