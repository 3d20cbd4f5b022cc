//! Certification differential suite: the incremental certifier against
//! its from-scratch replay.
//!
//! The optimistic control's certifier maintains one set of dependency
//! relations across commits, feeds it only the actions appended since
//! the last attempt, and drops what nothing can reach any more. Its
//! oracle re-decides every verdict offline, from scratch, over the final
//! record (`common::replay_from_scratch`): restrict to the transactions
//! committed so far plus the candidate, infer, check Definition 16.
//!
//! Two oracles pin this:
//!
//! 1. The deterministic single-threaded virtual scheduler of
//!    `common/mod.rs`, which drives the worker's own attempt lifecycle,
//!    replays identical op-level schedules at 1 and 3 lanes — accounting
//!    only, so the *full decision trajectories* must be equal — and
//!    every verdict must be what the from-scratch replay decides:
//!    exhaustively over every interleaving of small conflicting
//!    workloads (one of them splitting a leaf at fanout 4, two of them
//!    once more with group commit on, where every run's log must
//!    recover), and property-based over random workloads × random
//!    schedules.
//! 2. The real multi-threaded engine runs random private-write
//!    workloads on 4 workers and on 1 at 1 and 4 lanes and asserts equal
//!    commits, audits, and final states.

mod common;

use common::{
    conflicting_3txn_workload, conflicting_4txn_workload, interleavings, replay_from_scratch,
    splitting_workload, three_cross_shard_keys, RunOutcome, VirtualScheduler, PHANTOM_NO_SPLIT,
    SPLIT_WITNESS,
};
use oodb_core::certifier::restrict_history;
use oodb_core::commutativity::Method;
use oodb_core::extension::extend_virtual_objects;
use oodb_core::ids::TxnIdx;
use oodb_core::serializability::analyze;
use oodb_engine::{
    recover, ConcurrencyControl, DurabilityMode, EngineConfig, EngineOutput, FinishOutcome,
    OptimisticCc,
};
use oodb_sim::EncOp;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// The optimistic control.
fn make_cc() -> Arc<dyn ConcurrencyControl> {
    Arc::new(OptimisticCc::new())
}

/// Run one schedule on the database `cfg` describes at 1 and 3 lanes
/// and require byte-identical decision trajectories and outcomes — the
/// lane count is accounting only — and every verdict to be the one the
/// from-scratch replay reaches over the final record: the pruned
/// incremental certifier decides like an oracle that keeps everything.
/// A run that logs must recover from its log image to its own final
/// state, with a clean audit.
fn assert_all_agree(
    label: &str,
    cfg: &EngineConfig,
    txns: &[Vec<EncOp>],
    preload: &[String],
    schedule: &[usize],
) -> RunOutcome {
    let replay = |shards| {
        let cfg = &EngineConfig {
            shards,
            ..cfg.clone()
        };
        let vs = VirtualScheduler::new(cfg, make_cc(), txns, preload);
        let rec = vs.recorder();
        let out = vs.run(schedule);
        let (ts, history) = rec.snapshot();
        if let Some(i) = replay_from_scratch(&ts, &history, &out.verdicts) {
            panic!(
                "{label}: verdict {i} at {shards} lanes differs from the from-scratch \
                 replay on schedule {schedule:?}: {:?}",
                out.verdicts
            );
        }
        if let Some(wal) = &out.wal {
            let recovered = recover(wal, cfg.fanout);
            assert!(
                recovered.consistent(),
                "{label}: recovery audit failed on schedule {schedule:?}"
            );
            assert_eq!(
                recovered.final_state, out.final_state,
                "{label}: the log of schedule {schedule:?} recovers another state"
            );
        }
        out
    };
    let reference = replay(1);
    assert_eq!(
        replay(3),
        reference,
        "{label}: 3 lanes diverged from 1 lane on schedule {schedule:?}"
    );
    reference
}

/// Every op-level interleaving of one workload: one decision trajectory
/// whatever the lane count, each verdict the from-scratch one, and every
/// transaction committed in the end. The schedules with their outcomes.
fn every_interleaving(
    name: &str,
    cfg: &EngineConfig,
    (txns, preload): (Vec<Vec<EncOp>>, Vec<String>),
    merges: usize,
) -> Vec<(Vec<usize>, RunOutcome)> {
    let counts: Vec<usize> = txns.iter().map(Vec::len).collect();
    let all = interleavings(&counts);
    assert_eq!(all.len(), merges, "{name}: n!/(∏ kᵢ!) interleavings");
    all.into_iter()
        .enumerate()
        .map(|(i, schedule)| {
            let label = format!("{name} interleaving {i}");
            let out = assert_all_agree(&label, cfg, &txns, &preload, &schedule);
            assert_eq!(out.committed, txns.len(), "{label}: all txns commit");
            (schedule, out)
        })
        .collect()
}

/// [`every_interleaving`], and the committed projection of each passes
/// the audit.
fn check_every_interleaving(
    name: &str,
    cfg: &EngineConfig,
    workload: (Vec<Vec<EncOp>>, Vec<String>),
    merges: usize,
) -> Vec<(Vec<usize>, RunOutcome)> {
    let outs = every_interleaving(name, cfg, workload, merges);
    for (schedule, out) in &outs {
        assert!(
            out.decentralized_ok && out.global_ok,
            "{name} {schedule:?}: committed projection must certify: {:?}",
            out.decisions
        );
    }
    outs
}

/// The conflicting 3-transaction workload.
#[test]
fn every_3txn_interleaving_decisions_agree() {
    check_every_interleaving(
        "3txn",
        &EngineConfig::default(),
        conflicting_3txn_workload(),
        90,
    );
}

/// The 3-transaction and the anomaly enumerations once more with group
/// commit on: the scheduler's attempts log exactly as the engine's
/// workers do, and every run's log image — validation aborts and their
/// compensations included — recovers to the run's final state with a
/// clean audit (`assert_all_agree`).
#[test]
fn every_logged_interleaving_recovers() {
    let logged = EngineConfig {
        durability: DurabilityMode::Group {
            max_batch: 4,
            max_wait: Duration::from_micros(200),
        },
        ..EngineConfig::default()
    };
    let mut outs =
        check_every_interleaving("3txn logged", &logged, conflicting_3txn_workload(), 90);
    outs.extend(check_every_interleaving(
        "anomaly logged",
        &logged,
        read_only_anomaly_workload(),
        30,
    ));
    assert!(
        outs.iter().all(|(_, out)| out.wal.is_some()),
        "every run logs"
    );
    assert!(
        outs.iter().any(|(_, out)| out.retries > 0),
        "some schedule compensates a validation abort"
    );
}

/// `X = [Search a, Change b]`, `T = [Change a]`, `R = [Search b,
/// Search a]` over a preloaded `{a, b}`.
fn read_only_anomaly_workload() -> (Vec<Vec<EncOp>>, Vec<String>) {
    let [a, b, _] = three_cross_shard_keys();
    let txns = vec![
        vec![EncOp::Search(a.clone()), EncOp::Change(b.clone())],
        vec![EncOp::Change(a.clone())],
        vec![EncOp::Search(b.clone()), EncOp::Search(a.clone())],
    ];
    (txns, vec![a, b])
}

/// ROADMAP soundness gap (b), pinned. Steps `X, T, R, X, R`: `X` reads
/// `a`; `T` writes `a` and commits; `R` begins and reads `b`; `X` writes
/// `b` and commits (`X → T`); `R` reads `a` and finishes, closing
/// `T → R → X → T`. A rule that settles `T` when `X` finalizes — `R`, the
/// only live transaction, began after `T` committed — takes out of `R`'s
/// scope a transaction the retained `X` still points at, and commits
/// the read-only anomaly. The cut keeps `T` while it keeps `X`.
#[test]
fn read_only_anomaly_through_a_settled_writer_is_rejected() {
    let (txns, preload) = read_only_anomaly_workload();
    let (x, t, r) = (0, 1, 2);
    let schedule = [x, t, r, x, r];
    let out = assert_all_agree(
        "anomaly",
        &EngineConfig::default(),
        &txns,
        &preload,
        &schedule,
    );
    let verdicts: Vec<&str> = out
        .decisions
        .iter()
        .filter_map(|d| d.strip_prefix("t2a0: "))
        .collect();
    assert_eq!(
        verdicts,
        ["Abort"],
        "R closes the cycle and must abort: {:?}",
        out.decisions
    );
    assert_eq!(out.committed, 3, "R's retry commits");
    assert!(
        out.decentralized_ok && out.global_ok,
        "audit of the committed projection"
    );
}

/// The anomaly workload and the 4-transaction workload. With writes
/// deferred to the commit point nothing waits and nothing is doomed:
/// nothing but the certifier's own scope stands between a cycle and a
/// commit, so a scope that is too small shows here.
#[test]
fn every_snapshot_interleaving_passes_the_audit() {
    let cfg = EngineConfig::default();
    check_every_interleaving("anomaly", &cfg, read_only_anomaly_workload(), 30);
    check_every_interleaving("4txn", &cfg, conflicting_4txn_workload(), 630);
}

/// Run `schedule` of [`splitting_workload`] and check it is a range
/// phantom caught: the certifier aborts `T2`'s first attempt, which the
/// audit would have rejected too (the Definition-5-extended record
/// restricted to the transactions committed before that verdict and the
/// attempt), as the conventional checker does; `T2`'s retry commits.
/// Returns whether a workload insert split a leaf.
fn phantom_is_rejected(schedule: &[usize]) -> bool {
    let (cfg, txns, preload) = splitting_workload();
    let vs = VirtualScheduler::new(&cfg, make_cc(), &txns, &preload);
    let rec = vs.recorder();
    let out = vs.run(schedule);
    assert!(
        out.decisions.iter().any(|d| d == "t2a0: Abort"),
        "the certifier aborts T2: {:?}",
        out.decisions
    );
    assert!(
        out.decisions.iter().any(|d| d == "serial t2a1: Committed"),
        "T2's retry commits: {:?}",
        out.decisions
    );
    assert!(out.decentralized_ok && out.global_ok, "{:?}", out.decisions);

    let (mut ts, history) = rec.snapshot();
    extend_virtual_objects(&mut ts);
    let aborted = out
        .verdicts
        .iter()
        .position(|&(_, v)| v == FinishOutcome::Abort)
        .expect("T2 aborted");
    let scope: HashSet<TxnIdx> = out.verdicts[..aborted]
        .iter()
        .filter(|&&(_, v)| v == FinishOutcome::Committed)
        .map(|&(t, _)| t)
        .chain([out.verdicts[aborted].0])
        .collect();
    let admitted = analyze(&ts, &restrict_history(&ts, &history, &scope));
    assert!(
        admitted.oo_decentralized.is_err() && admitted.oo_global.is_err(),
        "the audit rejects T2's first attempt"
    );
    assert!(admitted.conventional.is_err());

    let setup = out.verdicts[0].0;
    ts.action_indices().any(|a| {
        let action = ts.action(a);
        action.descriptor.method == Method::Rearrange && action.txn != setup
    })
}

/// A workload whose inserts split a leaf at fanout 4
/// (`common::splitting_workload`): every verdict is still the
/// from-scratch replay's, the lane count still leaks into no decision,
/// and the committed projection of every schedule passes the audit.
/// `SPLIT_WITNESS`, a range phantom through a split, is caught.
#[test]
fn every_splitting_interleaving_decisions_agree() {
    assert!(
        phantom_is_rejected(&SPLIT_WITNESS),
        "a workload insert splits a leaf"
    );
    let (cfg, txns, preload) = splitting_workload();
    check_every_interleaving("split", &cfg, (txns, preload), 30);
}

/// The range phantom without a split: `T2`'s range scan misses `k07`,
/// `T1` inserts it into the right leaf (which stays at four keys) and
/// commits, and `T2`'s sequential scan sees it: `T2 → T1 → T2`. The
/// range descends to the left leaf and meets `k07`'s leaf on the chain,
/// so only a chained leaf's visit records the conflict.
#[test]
fn a_range_phantom_without_a_split_is_rejected() {
    assert!(
        !phantom_is_rejected(&PHANTOM_NO_SPLIT),
        "no workload insert splits a leaf"
    );
}

/// Hot-key pool shared by every generated transaction (contention is
/// the point: validation failures are where the pruned certifier and
/// its replay could diverge).
fn hot_key(i: usize) -> String {
    format!("h{:02}", i % 4)
}

/// Decode one generated opcode for transaction `t`. Inserts target a
/// per-transaction key so generated workloads stay replayable; every
/// other opcode roams the hot pool.
fn decode(t: usize, code: u8, arg: usize) -> EncOp {
    match code {
        0 => EncOp::Change(hot_key(arg)),
        1 => EncOp::Delete(hot_key(arg)),
        2 => EncOp::Insert(format!("n{t:02}")),
        3 => EncOp::Search(hot_key(arg)),
        4 => {
            let (a, b) = (hot_key(arg), hot_key(arg + 2));
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            EncOp::Range(lo, hi)
        }
        _ => EncOp::ReadSeq,
    }
}

/// Build a concrete schedule from proptest-chosen merge picks: at each
/// step one of the streams with remaining ops is selected.
fn build_schedule(counts: &[usize], picks: &[usize]) -> Vec<usize> {
    let mut remaining = counts.to_vec();
    let total: usize = counts.iter().sum();
    let mut schedule = Vec::with_capacity(total);
    for step in 0..total {
        let nonempty: Vec<usize> = (0..remaining.len()).filter(|&i| remaining[i] > 0).collect();
        let pick = picks[step % picks.len()] % nonempty.len();
        let t = nonempty[pick];
        remaining[t] -= 1;
        schedule.push(t);
    }
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random contended workloads × random op-level schedules: the
    /// decision trajectories are identical at every lane count, and each
    /// verdict is the from-scratch replay's.
    #[test]
    fn random_schedules_decisions_agree(
        codes in prop::collection::vec(
            prop::collection::vec((0u8..6, 0usize..4), 1..4), 2..5),
        picks in prop::collection::vec(0usize..1 << 16, 12),
    ) {
        let txns: Vec<Vec<EncOp>> = codes
            .iter()
            .enumerate()
            .map(|(t, ops)| ops.iter().map(|&(c, a)| decode(t, c, a)).collect())
            .collect();
        let preload: Vec<String> = (0..4).map(hot_key).collect();
        let counts: Vec<usize> = txns.iter().map(Vec::len).collect();
        let schedule = build_schedule(&counts, &picks);
        let out = assert_all_agree("random", &EngineConfig::default(), &txns, &preload, &schedule);
        prop_assert_eq!(out.committed, txns.len(), "all txns commit");
        prop_assert!(out.decentralized_ok && out.global_ok, "audit");
    }
}

// ---------------------------------------------------------------------
// Real-engine differential: multi-threaded runs cannot pin per-decision
// equality (thread timing differs), but with disjoint write partitions
// the final state is commit-order independent — so 4 workers and 1 must
// both commit everything, audit clean, and agree bit-for-bit on final
// state.
// ---------------------------------------------------------------------

fn shared_key(i: usize) -> String {
    format!("s{:02}", i % 6)
}

fn private_key(t: usize, slot: usize) -> String {
    format!("p{t:02}x{slot}")
}

fn decode_private(t: usize, code: u8, roam: usize) -> EncOp {
    match code {
        0 => EncOp::Change(private_key(t, 0)),
        1 => EncOp::Insert(private_key(t, 1)),
        2 => EncOp::Delete(private_key(t, 0)),
        3 => EncOp::Search(shared_key(roam)),
        4 => EncOp::Search(private_key(roam % 8, 0)),
        _ => EncOp::ReadSeq,
    }
}

#[derive(Debug, Clone)]
struct Workload {
    txns: Vec<Vec<(u8, usize)>>,
    seed: u64,
}

fn engine_run(w: &Workload, shards: usize, workers: usize) -> EngineOutput {
    let mut preload: Vec<String> = (0..6).map(shared_key).collect();
    preload.extend((0..w.txns.len()).map(|t| private_key(t, 0)));
    let cfg = EngineConfig {
        workers,
        queue_capacity: 16,
        shards,
        seed: w.seed,
        ..EngineConfig::default()
    };
    let engine = oodb_engine::Engine::start_with(cfg, make_cc());
    engine.preload(&preload);
    for (t, codes) in w.txns.iter().enumerate() {
        let ops: Vec<EncOp> = codes
            .iter()
            .map(|&(code, roam)| decode_private(t, code, roam))
            .collect();
        engine.submit_blocking(ops).expect("accepts until shutdown");
    }
    engine.shutdown()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Through the real engine at 1 and 4 lanes: 4 workers and 1 commit
    /// every transaction, pass both audits, and agree on the final
    /// object state.
    #[test]
    fn engine_four_workers_agree_with_one(
        txns in prop::collection::vec(
            prop::collection::vec((0u8..6, 0usize..8), 2..5), 3..7),
        seed in 0u64..1024,
    ) {
        let w = Workload { txns, seed };
        for shards in [1, 4] {
            let four = engine_run(&w, shards, 4);
            let one = engine_run(&w, shards, 1);
            let label = format!("{shards} lanes");
            for (out, workers) in [(&four, "4 workers"), (&one, "1 worker")] {
                prop_assert_eq!(
                    out.metrics.committed as usize,
                    w.txns.len(),
                    "{}/{}: every transaction commits (aborted {})",
                    &label, workers, out.metrics.aborted
                );
                let audit = out.audit.as_ref().expect("audit enabled");
                prop_assert!(
                    audit.report.oo_decentralized.is_ok() && audit.report.oo_global.is_ok(),
                    "{}/{}: merged audit must pass", &label, workers
                );
                // certification went through the maintained schedules
                prop_assert!(out.metrics.cert_actions_inferred > 0);
            }
            prop_assert_eq!(
                &four.final_state, &one.final_state,
                "{}: final states diverged between 4 workers and 1", &label
            );
        }
    }
}
