//! Durability integration tests: clean-run replay equivalence and a
//! kill-at-random-point crash harness across every concurrency-control
//! family × shard count, group-commit determinism, the log flusher's
//! contract (acknowledgement strictly after the force, the idle rule,
//! shutdown, the bound on what is parked, progress on a gated pool), and
//! prefix consistency under a crash at *any* byte of the log.

use oodb_engine::{
    durability, CcKind, DurabilityMode, Engine, EngineConfig, LockingCc, RecoveryOutcome,
};
use oodb_sim::EncOp;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

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

/// One force per logged commit: the unbatched baseline.
const GROUP_OF_ONE: DurabilityMode = DurabilityMode::Group {
    max_batch: 1,
    max_wait: Duration::ZERO,
};

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
        let label = format!("{kind:?}/shards={shards}");
        let out = run_engine(kind, shards, GROUP_OF_ONE, 24);
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
        let label = format!("{kind:?}/shards={shards}");
        let durability_mode = if i % 2 == 0 {
            DurabilityMode::Group {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
            }
        } else {
            GROUP_OF_ONE
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

/// Flusher contract (a): a parked commit is acknowledged strictly after
/// the force that covers its commit record. While the flusher sleeps its
/// 200 ms fsync the job is in neither `metrics().committed` nor the
/// acked set; whenever it is in either, its key is in the durable image.
#[test]
fn acknowledgement_comes_strictly_after_the_force() {
    let engine = Engine::start(
        EngineConfig {
            fsync_latency: Duration::from_millis(200),
            ..cfg(1, GROUP_OF_ONE)
        },
        CcKind::Pessimistic,
    );
    let job = engine
        .submit_blocking(vec![EncOp::Insert("uq0000".into())])
        .unwrap();
    let durable = |image: &[u8]| {
        let recovered = durability::recover(image, EngineConfig::default().fanout);
        recovered.final_state.iter().any(|(k, _)| k == "uq0000")
    };
    let mut seen_parked_unacked = false;
    loop {
        let m = engine.metrics();
        let (acked, image) = engine.crash_probe().unwrap();
        if m.committed == 1 || acked.contains(&job) {
            assert!(
                durable(&image),
                "acknowledged before its commit record was forced"
            );
        }
        if m.committed == 1 && acked.contains(&job) {
            break;
        }
        if m.wal_parked_peak == 1 && m.committed == 0 && !acked.contains(&job) {
            seen_parked_unacked = true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        seen_parked_unacked,
        "a 200 ms fsync leaves time to see the commit parked and unacknowledged"
    );
    let out = engine.shutdown();
    assert_eq!((out.metrics.committed, out.metrics.fsyncs), (1, 1));
}

/// Flusher contract (b): a lone commit does not wait `max_wait` for
/// followers that cannot exist — with nothing queued and nothing
/// executing the gather ends at once.
#[test]
fn a_lone_commit_does_not_wait_for_followers() {
    let mode = DurabilityMode::Group {
        max_batch: 8,
        max_wait: Duration::from_secs(5),
    };
    let engine = Engine::start(cfg(1, mode), CcKind::Pessimistic);
    let t0 = Instant::now();
    engine
        .submit_blocking(vec![EncOp::Insert("uq0000".into())])
        .unwrap();
    while engine.metrics().committed < 1 {
        std::thread::sleep(Duration::from_micros(100));
    }
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "acknowledged after {:?}: the gather waited for max_wait",
        t0.elapsed()
    );
    let m = engine.shutdown().metrics;
    assert_eq!((m.wal_flush_idle, m.wal_flush_deadline), (1, 0));
}

/// Flusher contract (c): `shutdown()` with commits parked behind a slow
/// device and a 5 s `max_wait` flushes and acknowledges all of them
/// promptly, and the log it returns recovers to the final state.
#[test]
fn shutdown_flushes_and_acknowledges_what_is_parked() {
    let mode = DurabilityMode::Group {
        max_batch: 64,
        max_wait: Duration::from_secs(5),
    };
    let engine = Engine::start(
        EngineConfig {
            fsync_latency: Duration::from_millis(20),
            ..cfg(2, mode)
        },
        CcKind::Pessimistic,
    );
    engine.preload(&preload_keys());
    for ops in jobs(24) {
        engine.submit_blocking(ops).unwrap();
    }
    let t0 = Instant::now();
    let out = engine.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "shutdown took {:?}",
        t0.elapsed()
    );
    let m = &out.metrics;
    assert_eq!(m.submitted, 24);
    assert_eq!(m.submitted, m.committed + m.aborted);
    assert_eq!(m.committed, 24);
    assert!(m.wal_parked_peak >= 1 && m.fsyncs >= 1);
    let recovered = durability::recover(out.wal.as_ref().unwrap(), EngineConfig::default().fanout);
    assert!(recovered.consistent());
    assert_eq!(recovered.final_state, out.final_state);
}

/// Flusher contract (d): what is parked is bounded. Eight workers
/// commit far faster than a 2 ms device takes them one at a time; they
/// wait for the flusher rather than park without limit, and every job
/// still commits with one fsync each.
#[test]
fn the_parked_list_is_bounded() {
    let engine = Engine::start(
        EngineConfig {
            workers: 8,
            fsync_latency: Duration::from_millis(2),
            ..cfg(1, GROUP_OF_ONE)
        },
        CcKind::Pessimistic,
    );
    for j in 0..48u64 {
        engine
            .submit_blocking(vec![EncOp::Insert(format!("uq{j:04}"))])
            .unwrap();
    }
    let m = engine.shutdown().metrics;
    assert_eq!(m.committed, 48);
    assert_eq!(m.fsyncs, 48, "a group of one: one force per logged commit");
    assert!(
        (2..=durability::PARK_BOUND as u64).contains(&m.wal_parked_peak),
        "parked peak {} (bound {})",
        m.wal_parked_peak,
        durability::PARK_BOUND
    );
}

/// Flusher contract (e): a durable run whose pool is smaller than what
/// it dirties makes progress. Dirty frames are gated until the log
/// covers them, and no worker waits for the log any more: a miss that
/// finds every frame gated is released by the flusher's
/// `advance_durable_floor`.
#[test]
fn a_gated_pool_smaller_than_the_dirty_set_makes_progress() {
    let mode = DurabilityMode::Group {
        max_batch: 4,
        max_wait: Duration::from_millis(1),
    };
    let engine = Engine::start(
        EngineConfig {
            workers: 2,
            pool_frames: 32,
            ..cfg(1, mode)
        },
        CcKind::Pessimistic,
    );
    for j in 0..400u64 {
        // scattered keys: the inserts dirty leaves all over the tree
        let key = format!("uq{:04}", (j * 7919) % 10_000);
        engine.submit_blocking(vec![EncOp::Insert(key)]).unwrap();
    }
    let out = engine.shutdown();
    assert_eq!(out.metrics.committed, 400);
    assert!(
        out.metrics.pool_evictions > 0 && out.metrics.pool_writebacks > 0,
        "the run must outgrow its pool: {}",
        out.metrics
    );
    let recovered = durability::recover(out.wal.as_ref().unwrap(), EngineConfig::default().fanout);
    assert!(recovered.consistent());
    assert_eq!(recovered.final_state, out.final_state);
}

/// Seeded determinism: a single-worker engine is a deterministic
/// process, so two identical runs append byte-identical logs — with
/// groups of one and of two (batch timing must never leak into log
/// *contents*).
#[test]
fn seeded_single_worker_runs_append_identical_logs() {
    for mode in [
        GROUP_OF_ONE,
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
    let out = run_engine(CcKind::Pessimistic, 1, GROUP_OF_ONE, 8);
    assert!(out.metrics.wal_appends > 0);
    assert!(out.metrics.wal_bytes > out.metrics.wal_appends);
    assert!(out.metrics.fsyncs > 0);
    assert!(out.metrics.group_commits > 0);
    // exact, not a log₂-bucket estimate (which read 1.5 here)
    assert_eq!(out.metrics.wal_group_mean, 1.0, "a group of one");
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
    let out = run_engine(CcKind::Pessimistic, 1, GROUP_OF_ONE, 12);
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
        let engine = Engine::start_with(cfg(2, GROUP_OF_ONE), Arc::new(LockingCc::semantic()));
        for job in (0..32).step_by(4) {
            engine.inject_fault_after(job, 0, 2);
        }
        let out = drive(engine, 32);
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
                durability: GROUP_OF_ONE,
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
