//! The engine end to end, in the tier-1 suite: every concurrency control
//! at 1 and at 4 shards runs two fixed-seed workloads through the
//! group-commit log, and what it acknowledged must be serializable by
//! both checkers and recoverable from the log alone.

use oodb::engine::{recover, CcKind, DurabilityMode, EngineConfig};
use oodb::sim::{encyclopedia_workload, EncMix, EncOp, EncWorkloadConfig, Skew};
use std::time::Duration;

const TXNS: usize = 32;

#[test]
fn every_control_commits_audits_and_recovers() {
    // a contended update mix, and a read-mostly mix with range scans:
    // page-level 2PL meets an audited scan nowhere else. Every key of the
    // second is preloaded, so an insert can only re-create a deleted key
    // and no leaf splits mid-run: the optimistic control does not yet
    // certify the virtual objects a split creates (Definition 5), which
    // the audit does. The same mix over 64 keys, half preloaded, passed
    // 40 of 40 debug runs of every control at 1 and 4 shards, once a
    // range scan recorded each leaf of the chain as a visit of its own.
    let contended = EncWorkloadConfig {
        txns: TXNS,
        ops_per_txn: 4,
        key_space: 16,
        preload: 8,
        mix: EncMix::update_heavy(),
        skew: Skew::Zipf(0.8),
        seed: 19,
    };
    let ranges = EncWorkloadConfig {
        preload: 16,
        mix: EncMix {
            range: 0.05,
            ..EncMix::read_mostly()
        },
        skew: Skew::Uniform,
        ..contended
    };
    let scans = encyclopedia_workload(&ranges);
    assert!(scans
        .txn_ops
        .iter()
        .flatten()
        .any(|op| matches!(op, EncOp::Range(..))));
    for (name, workload) in [
        ("update-heavy", encyclopedia_workload(&contended)),
        ("read-mostly+ranges", scans),
    ] {
        let ops: usize = workload.txn_ops.iter().map(Vec::len).sum();
        for kind in [
            CcKind::Pessimistic,
            CcKind::PessimisticPage,
            CcKind::Optimistic,
        ] {
            for shards in [1, 4] {
                let cfg = EngineConfig {
                    workers: 4,
                    queue_capacity: 16,
                    shards,
                    seed: 19,
                    // contention decides who retries, never whether a job ends
                    max_retries: 64,
                    durability: DurabilityMode::Group {
                        max_batch: 4,
                        max_wait: Duration::from_micros(200),
                    },
                    ..EngineConfig::default()
                };
                let out = oodb::engine::run_workload(&cfg, kind, &workload);
                let label = format!("{name}: {} x{shards}", out.cc_name);
                assert_eq!(out.metrics.committed as usize, TXNS, "{label}");
                assert_eq!(out.metrics.aborted, 0, "{label}");
                if kind == CcKind::Optimistic {
                    assert!(
                        out.metrics.cert_actions_inferred > 0,
                        "{label}: every commit is certified over a fed delta"
                    );
                }
                // the buffer pool's counters reach the engine's report: every
                // operation visits pages, and 16 keys never leave 1024 frames
                let m = &out.metrics;
                assert!(m.pool_hits >= ops as u64, "{label}: {m}");
                assert_eq!(
                    (m.pool_misses, m.pool_evictions, m.pool_writebacks),
                    (0, 0, 0),
                    "{label}"
                );
                assert!(m
                    .to_json()
                    .contains(&format!("\"pool_hits\":{}", m.pool_hits)));
                // no parked worker ever found a job nobody signalled it for
                assert_eq!(m.queue_timed_wakeups_with_work, 0, "{label}: {m}");
                let audit = out.audit.expect("audit enabled by default");
                assert!(audit.report.oo_decentralized.is_ok(), "{label}");
                assert!(audit.report.oo_global.is_ok(), "{label}");

                let wal = out.wal.expect("durability on: the run keeps its log");
                let recovered = recover(&wal, cfg.fanout);
                assert!(recovered.consistent(), "{label}: recovery audit");
                // every logged commit (the unmetered preload aside) was parked
                // and then acknowledged by the flusher, once; every force has
                // its reason
                assert_eq!(
                    m.wal_commits_acked + 1,
                    recovered.stats.committed as u64,
                    "{label}: {m}"
                );
                assert!(m.wal_parked_peak >= 1, "{label}: {m}");
                assert_eq!(
                    m.fsyncs,
                    m.wal_flush_full + m.wal_flush_deadline + m.wal_flush_idle,
                    "{label}: {m}"
                );
                assert!(m
                    .to_json()
                    .contains(&format!("\"wal_parked_peak\":{}", m.wal_parked_peak)));
                assert_eq!(
                    recovered.final_state, out.final_state,
                    "{label}: replaying the log reproduces the final state"
                );
            }
        }
    }
}
