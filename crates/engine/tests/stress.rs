//! Engine stress tests: many workers, hundreds of transactions, mixed
//! conflict rates, both concurrency-control strategies — every audited
//! run must be oo-serializable.

use oodb_engine::{retry_delay, AuditScope, CcKind, Engine, EngineConfig, EngineOutput};
use oodb_sim::{encyclopedia_workload, EncMix, EncOp, EncWorkloadConfig, Skew};
use std::time::Duration;

fn workload(txns: usize, key_space: usize, seed: u64) -> oodb_sim::EncWorkload {
    encyclopedia_workload(&EncWorkloadConfig {
        txns,
        ops_per_txn: 4,
        key_space,
        preload: (key_space / 2).max(2),
        mix: EncMix::update_heavy(),
        skew: Skew::Zipf(0.8),
        seed,
    })
}

fn engine_cfg(seed: u64) -> EngineConfig {
    EngineConfig {
        workers: 8,
        queue_capacity: 32,
        seed,
        ..EngineConfig::default()
    }
}

fn sharded_cfg(seed: u64, shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        ..engine_cfg(seed)
    }
}

fn assert_sound(out: &EngineOutput, label: &str) {
    let audit = out.audit.as_ref().expect("audit enabled");
    assert!(
        audit.report.oo_decentralized.is_ok(),
        "{label}: oo-serializability violated: {:?}",
        audit.report.oo_decentralized
    );
    assert!(
        audit.report.oo_global.is_ok(),
        "{label}: global check failed"
    );
    // a lost wake-up in the admission hand-off shows only here: the
    // parked worker's timed re-check finds the job 5 ms late
    assert_eq!(
        out.metrics.queue_timed_wakeups_with_work, 0,
        "{label}: {}",
        out.metrics
    );
}

/// ≥8 workers, ≥200 transactions in total, low- and high-contention key
/// spaces, both strategies; every run commits everything and audits
/// oo-serializable.
#[test]
fn stress_both_strategies_mixed_contention() {
    let cases = [
        (CcKind::Pessimistic, 96, 96, 11u64), // low contention
        (CcKind::Pessimistic, 56, 8, 12),     // hot keys: deadlocks likely
        (CcKind::Optimistic, 36, 96, 13),     // low contention
        (CcKind::Optimistic, 24, 12, 14),     // hot keys: validation aborts
    ];
    let mut total = 0usize;
    for (kind, txns, key_space, seed) in cases {
        let w = workload(txns, key_space, seed);
        let out = oodb_engine::run_workload(&engine_cfg(seed), kind, &w);
        let label = format!("{} txns={txns} keys={key_space}", out.cc_name);
        assert_eq!(
            out.metrics.committed as usize, txns,
            "{label}: every transaction must eventually commit \
             (aborted {} retries {})",
            out.metrics.aborted, out.metrics.retries
        );
        assert_eq!(out.metrics.submitted as usize, txns, "{label}");
        assert_eq!(
            out.metrics.aborted, 0,
            "{label}: no job may exhaust retries"
        );
        assert_sound(&out, &label);
        let expected_scope = match kind {
            CcKind::Optimistic => AuditScope::CommittedOnly,
            _ => AuditScope::FullRecord,
        };
        assert_eq!(out.audit.as_ref().unwrap().scope, expected_scope, "{label}");
        total += txns;
    }
    assert!(total >= 200, "stress must cover at least 200 transactions");
}

/// The same mixed-contention stress on several metric lanes: every
/// transaction commits, the merged audit passes, and the audit scope
/// matches the protocol (optimistic audits only the committed
/// projection; strict 2PL keeps the full record auditable).
#[test]
fn stress_sharded_strategies_mixed_contention() {
    let cases = [
        (CcKind::Pessimistic, 4, 96, 96, 21u64), // low contention
        (CcKind::Pessimistic, 4, 48, 8, 22),     // hot keys: cross-stripe deadlocks
        (CcKind::Optimistic, 4, 36, 96, 23),     // low contention
        (CcKind::Optimistic, 4, 24, 12, 24),     // hot keys: validation aborts
        (CcKind::Optimistic, 8, 48, 64, 25),     // wide sharding
    ];
    for (kind, shards, txns, key_space, seed) in cases {
        let w = workload(txns, key_space, seed);
        let out = oodb_engine::run_workload(&sharded_cfg(seed, shards), kind, &w);
        let label = format!(
            "{} shards={shards} txns={txns} keys={key_space}",
            out.cc_name
        );
        let expected_name = match kind {
            CcKind::Optimistic => "optimistic",
            _ => "pessimistic",
        };
        assert_eq!(out.cc_name, expected_name, "{label}");
        assert_eq!(
            out.metrics.committed as usize, txns,
            "{label}: every transaction must eventually commit \
             (aborted {} retries {})",
            out.metrics.aborted, out.metrics.retries
        );
        assert_eq!(out.metrics.aborted, 0, "{label}");
        assert_sound(&out, &label);
        let expected_scope = match kind {
            CcKind::Optimistic => AuditScope::CommittedOnly,
            _ => AuditScope::FullRecord,
        };
        assert_eq!(out.audit.as_ref().unwrap().scope, expected_scope, "{label}");
        // per-shard lanes saw the routed traffic
        let m = &out.metrics;
        assert_eq!(m.shards.len(), shards, "{label}");
        assert!(
            m.shards.iter().map(|l| l.ops).sum::<u64>() > 0,
            "{label}: shard lanes must record routed operations"
        );
        assert!(
            m.shards.iter().filter(|l| l.ops > 0).count() > 1,
            "{label}: keys must actually spread across shards"
        );
    }
}

/// The metrics snapshot carries the operational signals the acceptance
/// criteria name: throughput, latency percentiles, queue depth.
#[test]
fn metrics_snapshot_is_populated() {
    let w = workload(24, 32, 5);
    let out = oodb_engine::run_workload(&engine_cfg(5), CcKind::Pessimistic, &w);
    let m = &out.metrics;
    assert!(m.throughput_per_sec > 0.0);
    assert!(m.e2e_p50 > Duration::ZERO);
    assert!(m.e2e_p99 >= m.e2e_p50);
    assert!(m.lock_wait_p99 >= m.lock_wait_p50);
    assert_eq!(m.queue_depth, 0, "drained on shutdown");
    assert_eq!(m.shed, 0, "blocking submission never sheds");
}

/// A full queue blocks the submitter until the workers drain it
/// (backpressure): every one of 64 jobs through a queue of 4 is
/// admitted and commits, and the audit holds.
#[test]
fn full_queue_blocks_and_stays_sound() {
    let cfg = EngineConfig {
        workers: 2,
        queue_capacity: 4,
        seed: 3,
        ..EngineConfig::default()
    };
    let engine = Engine::start(cfg, CcKind::Pessimistic);
    engine.preload(&["base".to_string()]);
    // slow-ish jobs + fast submission: the queue fills and blocks
    for i in 0..64 {
        let ops = vec![
            EncOp::Insert(format!("k{i}")),
            EncOp::Search("base".into()),
            EncOp::Change(format!("k{i}")),
        ];
        engine.submit_blocking(ops).expect("accepts until shutdown");
    }
    let out = engine.shutdown();
    assert_eq!(out.metrics.submitted, 64);
    assert_eq!(out.metrics.committed, out.metrics.submitted);
    assert_sound(&out, "backpressure run");
}

/// Same seed ⇒ identical backoff/jitter schedule, different seeds ⇒
/// different jitter: contended runs are reproducible by construction.
#[test]
fn backoff_schedule_is_deterministic_per_seed() {
    let a = engine_cfg(99);
    let b = engine_cfg(99);
    let c = engine_cfg(100);
    let schedule = |cfg: &EngineConfig| -> Vec<Duration> {
        (0..12u64)
            .flat_map(|job| (0..5u32).map(move |attempt| (job, attempt)))
            .map(|(job, attempt)| retry_delay(cfg, job, attempt))
            .collect()
    };
    assert_eq!(schedule(&a), schedule(&b), "same seed, same schedule");
    assert_ne!(schedule(&a), schedule(&c), "seed changes the jitter");
}
