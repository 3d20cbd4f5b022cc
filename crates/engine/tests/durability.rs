//! Durability integration tests: clean-run replay equivalence and a
//! kill-at-random-point crash harness across every concurrency-control
//! family × shard count, group-commit determinism, and prefix
//! consistency under a crash at *any* byte of the log.

use oodb_engine::{
    durability, CcKind, DurabilityMode, Engine, EngineConfig, RecoveryOutcome, ShardedPessimisticCc,
};
use oodb_sim::EncOp;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Every CC strategy × shard count the acceptance criteria require the
/// crash harness to cover.
fn combos() -> Vec<(CcKind, usize)> {
    let kinds = [
        CcKind::Pessimistic,
        CcKind::PessimisticPage,
        CcKind::Optimistic,
    ];
    [1usize, 2]
        .iter()
        .flat_map(|&shards| kinds.map(|kind| (kind, shards)))
        .collect()
}

fn cfg(shards: usize, durability: DurabilityMode) -> EngineConfig {
    EngineConfig {
        workers: 4,
        shards,
        seed: 7,
        durability,
        ..EngineConfig::default()
    }
}

/// Contended workload: every job inserts one unique key (the harness
/// oracle), mutates a hot key, and probes another unique key.
fn jobs(n: u64) -> Vec<Vec<EncOp>> {
    (0..n)
        .map(|j| {
            vec![
                EncOp::Insert(format!("uq{j:04}")),
                EncOp::Change(format!("hot{}", j % 3)),
                EncOp::Search(format!("uq{:04}", j / 2)),
            ]
        })
        .collect()
}

fn preload_keys() -> Vec<String> {
    (0..3).map(|i| format!("hot{i}")).collect()
}

fn drive(engine: Engine, n: u64) -> oodb_engine::EngineOutput {
    engine.preload(&preload_keys());
    for ops in jobs(n) {
        engine.submit_blocking(ops).unwrap();
    }
    engine.shutdown()
}

fn run_engine(
    kind: CcKind,
    shards: usize,
    durability: DurabilityMode,
    n: u64,
) -> oodb_engine::EngineOutput {
    drive(Engine::start(cfg(shards, durability), kind), n)
}

fn assert_acked_survive(acked: &[u64], recovered: &RecoveryOutcome, label: &str) {
    for &job in acked.iter().filter(|&&j| j != u64::MAX) {
        let key = format!("uq{job:04}");
        assert!(
            recovered.final_state.iter().any(|(k, _)| *k == key),
            "{label}: acknowledged commit of job {job} lost its insert {key}"
        );
    }
}

/// Tentpole guarantee, clean-shutdown half: for every combination, the
/// full log replays into a byte-identical final state, with no losers,
/// and the recovered committed projection passes the audit.
#[test]
fn clean_run_replay_reproduces_final_state_for_every_combo() {
    for (kind, shards) in combos() {
        let label = format!("{}/shards={shards}", kind.label());
        let out = run_engine(kind, shards, DurabilityMode::PerCommit, 24);
        assert!(
            out.audit.as_ref().unwrap().report.oo_decentralized.is_ok(),
            "{label}: live audit failed"
        );
        let wal = out.wal.as_ref().expect("durability on => wal image");
        let recovered = durability::recover(wal, EngineConfig::default().fanout);
        assert!(recovered.consistent(), "{label}: recovery audit failed");
        assert_eq!(
            recovered.stats.losers, 0,
            "{label}: clean shutdown leaves no losers"
        );
        assert_eq!(
            recovered.final_state, out.final_state,
            "{label}: replay must reproduce the exact final state"
        );
        assert_eq!(
            recovered.stats.committed as u64,
            out.metrics.committed + 1, // + the preload Setup transaction
            "{label}: committed count mismatch"
        );
        assert!(
            recovered.committed.contains("Setup"),
            "{label}: preload commit must replay"
        );
    }
}

/// Tentpole guarantee, crash half: kill the engine at an arbitrary
/// point mid-run (different point per combo), recover the durable
/// prefix, and require (a) the recovered committed projection passes
/// the audit and (b) no acknowledged commit is ever lost.
#[test]
fn crash_harness_never_loses_acked_commits() {
    for (i, (kind, shards)) in combos().into_iter().enumerate() {
        let label = format!("{}/shards={shards}", kind.label());
        let durability_mode = if i % 2 == 0 {
            DurabilityMode::Group {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
            }
        } else {
            DurabilityMode::PerCommit
        };
        let engine = Engine::start(cfg(shards, durability_mode), kind);
        engine.preload(&preload_keys());
        for ops in jobs(64) {
            engine.submit_blocking(ops).unwrap();
        }
        // kill at a combo-dependent random-ish point: some probes land
        // mid-flight, later ones after the drain — both must hold
        std::thread::sleep(Duration::from_millis(1 + 3 * i as u64));
        let (acked, image) = engine.crash_probe().expect("durability on");
        engine.shutdown();

        let recovered = durability::recover(&image, EngineConfig::default().fanout);
        assert!(recovered.consistent(), "{label}: recovery audit failed");
        assert_acked_survive(&acked, &recovered, &label);
        // recovery is deterministic: same image, same outcome
        let again = durability::recover(&image, EngineConfig::default().fanout);
        assert_eq!(recovered.final_state, again.final_state, "{label}");
        assert_eq!(recovered.stats, again.stats, "{label}");
    }
}

/// Seeded determinism: a single-worker engine is a deterministic
/// process, so two identical runs append byte-identical logs — in
/// per-commit mode and in group-commit mode (batch timing must never
/// leak into log *contents*).
#[test]
fn seeded_single_worker_runs_append_identical_logs() {
    for mode in [
        DurabilityMode::PerCommit,
        DurabilityMode::Group {
            max_batch: 2,
            max_wait: Duration::from_millis(1),
        },
    ] {
        let run = || {
            let engine = Engine::start(
                EngineConfig {
                    workers: 1,
                    seed: 11,
                    durability: mode,
                    ..EngineConfig::default()
                },
                CcKind::Pessimistic,
            );
            engine.preload(&preload_keys());
            for ops in jobs(16) {
                engine.submit_blocking(ops).unwrap();
            }
            engine.shutdown().wal.unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "mode {}: logs must be byte-identical", mode.label());
    }
}

/// Durability off is exactly the pre-durability engine: no log, no
/// probe, zero WAL metrics.
#[test]
fn off_mode_logs_nothing() {
    let engine = Engine::start(
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        CcKind::Pessimistic,
    );
    engine.preload(&preload_keys());
    for ops in jobs(8) {
        engine.submit_blocking(ops).unwrap();
    }
    assert!(engine.crash_probe().is_none());
    let out = engine.shutdown();
    assert!(out.wal.is_none());
    assert_eq!(out.metrics.wal_appends, 0);
    assert_eq!(out.metrics.wal_bytes, 0);
    assert_eq!(out.metrics.fsyncs, 0);
}

/// WAL metrics flow through to the snapshot and its JSON export.
#[test]
fn wal_metrics_are_reported() {
    let out = run_engine(CcKind::Pessimistic, 1, DurabilityMode::PerCommit, 8);
    assert!(out.metrics.wal_appends > 0);
    assert!(out.metrics.wal_bytes > out.metrics.wal_appends);
    assert!(out.metrics.fsyncs > 0);
    assert!(out.metrics.group_commits > 0);
    assert!(out.metrics.wal_group_mean >= 1.0);
    let json = out.metrics.to_json();
    for key in [
        "\"wal_appends\":",
        "\"wal_bytes\":",
        "\"fsyncs\":",
        "\"group_commits\":",
        "\"wal_group_mean\":",
        "\"wal_group_buckets\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

/// A torn (corrupted) tail is detected and recovery proceeds from the
/// longest valid prefix.
#[test]
fn corrupt_tail_recovers_the_valid_prefix() {
    let out = run_engine(CcKind::Pessimistic, 1, DurabilityMode::PerCommit, 12);
    let mut image = out.wal.unwrap();
    let flip = image.len() * 3 / 4;
    image[flip] ^= 0xFF;
    let recovered = durability::recover(&image, EngineConfig::default().fanout);
    assert!(
        recovered.stats.torn.is_some(),
        "corruption must be detected"
    );
    assert!(recovered.consistent());
    assert!(recovered.stats.records > 0);
}

/// One seeded contended run's full log image, shared by the proptests.
/// Strict 2PL on 2 shards with every fourth job's first attempt killed
/// after its two writes: those attempts logged their operations, so
/// their aborts put compensation records in the log and a cut anywhere
/// inside one makes recovery finish the undo.
fn contended_image() -> &'static (Vec<u8>, RecoveryOutcome) {
    static IMAGE: OnceLock<(Vec<u8>, RecoveryOutcome)> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let cc = Arc::new(ShardedPessimisticCc::semantic(2));
        for job in (0..32).step_by(4) {
            cc.inject_fault_after(job, 0, 2);
        }
        let out = drive(
            Engine::start_with(cfg(2, DurabilityMode::PerCommit), cc),
            32,
        );
        assert_eq!(out.metrics.committed, 32, "every killed job retries");
        let image = out.wal.unwrap();
        let full = durability::recover(&image, EngineConfig::default().fanout);
        assert!(
            full.stats.comps >= 1,
            "the image must hold logged compensations: {:?}",
            full.stats
        );
        (image, full)
    })
}

/// One seeded single-worker unique-key run (the exact oracle).
fn sequential_image() -> &'static Vec<u8> {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let engine = Engine::start(
            EngineConfig {
                workers: 1,
                seed: 3,
                durability: DurabilityMode::PerCommit,
                ..EngineConfig::default()
            },
            CcKind::Pessimistic,
        );
        for j in 0..20u64 {
            engine
                .submit_blocking(vec![EncOp::Insert(format!("uq{j:04}"))])
                .unwrap();
        }
        engine.shutdown().wal.unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crashing at ANY byte of the log yields a prefix-consistent,
    /// audit-passing state: the recovered committed set is a subset of
    /// the full run's, and the audit accepts the projection.
    #[test]
    fn recovery_at_any_crash_point_is_prefix_consistent(frac in 0u32..=10_000) {
        let (image, full) = contended_image();
        let cut = image.len() * frac as usize / 10_000;
        let recovered = durability::recover(&image[..cut], EngineConfig::default().fanout);
        prop_assert!(recovered.consistent());
        prop_assert!(
            recovered.committed.is_subset(&full.committed),
            "prefix commits {:?} must be a subset of the full run's",
            recovered.committed
        );
        prop_assert!(recovered.stats.committed <= full.stats.committed);
    }

    /// Exact oracle: in a sequential single-worker run of unique-key
    /// inserts, a crash at any byte recovers exactly the jobs whose
    /// commit record made it into the prefix — key `uq{j}` present iff
    /// `J{j+1}` committed.
    #[test]
    fn sequential_crash_recovers_exactly_the_committed_prefix(frac in 0u32..=10_000) {
        let image = sequential_image();
        let cut = image.len() * frac as usize / 10_000;
        let recovered = durability::recover(&image[..cut], EngineConfig::default().fanout);
        prop_assert!(recovered.consistent());
        let k = recovered.stats.committed;
        let want_names: std::collections::BTreeSet<String> =
            (1..=k).map(|i| format!("J{i}")).collect();
        prop_assert_eq!(&recovered.committed, &want_names);
        let want_state: Vec<(String, String)> = (0..k as u64)
            .map(|j| (format!("uq{j:04}"), format!("text for uq{j:04}")))
            .collect();
        prop_assert_eq!(&recovered.final_state, &want_state);
    }
}
