//! The metric lanes have one source, the engine's configuration: every
//! control accounts over `EngineConfig::shards` lanes, and a keyed
//! operation lands on the lane its key hashes to, whatever the control.

use oodb_engine::{run_workload, CcKind, Engine, EngineConfig, LockingCc, MetricsSnapshot};
use oodb_sim::{encyclopedia_workload, EncMix, EncWorkload, EncWorkloadConfig, Skew};
use std::sync::Arc;

fn cfg(shards: usize) -> EngineConfig {
    EngineConfig {
        workers: 1,
        shards,
        seed: 5,
        ..EngineConfig::default()
    }
}

fn workload(mix: EncMix) -> EncWorkload {
    encyclopedia_workload(&EncWorkloadConfig {
        txns: 40,
        ops_per_txn: 4,
        key_space: 64,
        preload: 32,
        mix,
        skew: Skew::Uniform,
        seed: 7,
    })
}

/// Per-lane operations, per-lane commits and the cross-lane commits.
fn lanes(m: &MetricsSnapshot) -> (Vec<u64>, Vec<u64>, u64) {
    (
        m.shards.iter().map(|l| l.ops).collect(),
        m.shards.iter().map(|l| l.commits).collect(),
        m.cross_shard,
    )
}

/// A control built by hand gets the configured lanes, as a built-in one
/// does.
#[test]
fn a_custom_control_accounts_over_the_configured_lanes() {
    let engine = Engine::start_with(cfg(4), Arc::new(LockingCc::semantic()));
    assert_eq!(engine.metrics().shards.len(), 4);
    engine.shutdown();
}

/// Lanes are the key hash mod the lane count, not the lock stripe mod
/// it: with more lanes than stripes, keyed operations reach the lanes
/// past the stripe count too.
#[test]
fn strict_2pl_reaches_lanes_past_the_stripe_count() {
    let keyed = EncMix {
        read_seq: 0.0,
        ..EncMix::update_heavy()
    };
    let out = run_workload(&cfg(32), CcKind::Pessimistic, &workload(keyed));
    assert_eq!(out.metrics.committed, 40);
    let (ops, _, _) = lanes(&out.metrics);
    assert_eq!(ops.len(), 32);
    assert!(
        ops[16..].iter().any(|&n| n > 0),
        "no operation on lanes 16..32: {ops:?}"
    );
}

/// A one-worker strict-2PL run at 4 lanes, pinned: 4 divides the stripe
/// count, so a key's lane is its lock stripe mod 4 and these are also
/// the counts of folding each attempt's held stripes into lanes. The
/// preload's operations and commit are counted.
#[test]
fn one_worker_strict_2pl_lanes_are_pinned() {
    let out = run_workload(
        &cfg(4),
        CcKind::Pessimistic,
        &workload(EncMix::update_heavy()),
    );
    assert_eq!(out.metrics.committed, 40);
    assert_eq!(
        lanes(&out.metrics),
        (vec![53, 50, 49, 52], vec![31, 29, 30, 31], 39)
    );
}
