//! Cross-stripe abort compensation: a transaction injected to fail
//! mid-flight — after its footprint already spans several lock stripes
//! or metric lanes — must compensate and release **everything** it
//! touched: no orphaned lock grants, no attempt left in the certifier's
//! live set, and a clean retry that commits. Exercised through faults
//! armed on the engine (`Engine::inject_fault_after`: real engine, real
//! retry machinery) and
//! through deterministic direct drives of the worker's own attempt
//! lifecycle (`worker::Attempt`), stopped between steps to look at the
//! control.

mod common;

use common::analyze::cross_check;
use oodb_engine::trace::AbortReason;
use oodb_engine::worker::Attempt;
use oodb_engine::{
    audit, shard_of_key, ConcurrencyControl, Engine, EngineConfig, EngineShared, LockingCc,
    OptimisticCc, STRIPES,
};
use oodb_sim::EncOp;
use std::sync::Arc;

/// `n` keys, one per shard of an `n`-way partition (probed via the
/// engine's stable hash).
fn keys_on_distinct_shards(n: usize) -> Vec<String> {
    let mut found: Vec<Option<String>> = vec![None; n];
    for i in 0.. {
        let k = format!("k{i:06}");
        let s = shard_of_key(&k, n);
        if found[s].is_none() {
            found[s] = Some(k);
            if found.iter().all(Option::is_some) {
                break;
            }
        }
    }
    found.into_iter().map(Option::unwrap).collect()
}

/// The direct drives' database, accounted over `shards` lanes.
fn lanes(shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        ..EngineConfig::default()
    }
}

fn cfg(shards: usize) -> EngineConfig {
    EngineConfig {
        workers: 2,
        queue_capacity: 16,
        shards,
        seed: 31,
        ..EngineConfig::default()
    }
}

/// Fault-injected cross-stripe abort under strict 2PL: the victim's
/// locks are released on every stripe it had acquired, the retry
/// commits, and nothing is left behind in the lock table or the
/// waits-for map.
#[test]
fn pessimistic_cross_stripe_abort_releases_every_stripe() {
    let shards = 4;
    // distinct mod 4 ⇒ distinct mod STRIPES: one key per stripe
    let keys = keys_on_distinct_shards(shards);
    let cc = Arc::new(LockingCc::semantic());
    let engine = Engine::start_with(cfg(shards), cc.clone());
    // job 0, first attempt: dies after 2 of its 4 cross-shard ops
    engine.inject_fault_after(0, 0, 2);
    engine.preload(&keys);
    let victim: Vec<EncOp> = keys.iter().map(|k| EncOp::Change(k.clone())).collect();
    engine.submit_blocking(victim).unwrap();
    for i in 0..4 {
        engine
            .submit_blocking(vec![EncOp::Insert(format!("other{i}"))])
            .unwrap();
    }
    let out = engine.shutdown();
    assert_eq!(
        out.metrics.committed, 5,
        "victim's retry and the rest commit"
    );
    assert_eq!(out.metrics.retries, 1, "exactly the injected abort");
    assert_eq!(out.metrics.aborted, 0);
    // no orphaned state on any stripe
    assert_eq!(cc.residual_grants(), vec![0; STRIPES], "no orphaned locks");
    assert_eq!(cc.tracked_owners(), 0, "no orphaned grants");
    assert_eq!(cc.waiting_owners(), 0, "no orphaned waits-for entries");
    let audit_out = out.audit.expect("audit enabled");
    assert!(
        audit_out.report.oo_decentralized.is_ok() && audit_out.report.oo_global.is_ok(),
        "full record (forward work + compensation) stays oo-serializable"
    );
    // the retry's forward work survived compensation of the first attempt
    for k in &keys {
        let text = out
            .final_state
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, t)| t.as_str());
        assert_eq!(text, Some("changed by 1"), "retry's update to {k} stands");
    }
}

/// The same injected cross-shard abort under certification at 4 shards:
/// the aborted attempt's shard footprint goes with it (nothing stays in
/// the live set) and the retry commits through validation.
#[test]
fn optimistic_cross_shard_abort_drops_every_certifier_entry() {
    let shards = 4;
    let keys = keys_on_distinct_shards(shards);
    let cc = Arc::new(OptimisticCc::new());
    let engine = Engine::start_with(cfg(shards), cc.clone());
    engine.inject_fault_after(0, 0, 2);
    engine.preload(&keys);
    let victim: Vec<EncOp> = keys.iter().map(|k| EncOp::Change(k.clone())).collect();
    engine.submit_blocking(victim).unwrap();
    for i in 0..4 {
        engine
            .submit_blocking(vec![EncOp::Insert(format!("other{i}"))])
            .unwrap();
    }
    let out = engine.shutdown();
    assert_eq!(out.metrics.committed, 5);
    assert!(out.metrics.retries >= 1, "the injected abort fired");
    assert_eq!(out.metrics.aborted, 0);
    assert_eq!(
        cc.committed_count(),
        6,
        "5 workload transactions + the Setup preload"
    );
    let stats = cc.stats();
    assert!(stats.aborts >= 1, "the certifier recorded the victim abort");
    let audit_out = out.audit.expect("audit enabled");
    assert!(
        audit_out.report.oo_decentralized.is_ok() && audit_out.report.oo_global.is_ok(),
        "merged committed projection stays oo-serializable"
    );
    for k in &keys {
        let text = out
            .final_state
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, t)| t.as_str());
        assert_eq!(text, Some("changed by 1"), "retry's update to {k} stands");
    }
}

/// Run attempt `attempt` of `job` through `ops` and its commit point,
/// as the worker does.
fn commit(
    shared: &EngineShared,
    cc: &dyn ConcurrencyControl,
    job: u64,
    attempt: u32,
    ops: &[EncOp],
) {
    let mut a = Attempt::begin(shared, cc, job, attempt);
    for op in ops {
        assert_eq!(a.step(op), Ok(()), "{op:?} is granted");
    }
    assert!(a.finish().is_ok(), "job {job} attempt {attempt} commits");
}

fn inserts(keys: &[String]) -> Vec<EncOp> {
    keys.iter().map(|k| EncOp::Insert(k.clone())).collect()
}

fn changes(keys: &[String]) -> Vec<EncOp> {
    keys.iter().map(|k| EncOp::Change(k.clone())).collect()
}

/// Deterministic direct drive under strict 2PL: acquire on three
/// stripes, abort mid-flight while the locks are still held, and verify
/// stripe-by-stripe cleanup before a fresh attempt commits.
#[test]
fn direct_drive_pessimistic_partial_acquisition_cleanup() {
    let stripes = 3;
    let keys: Vec<String> = keys_on_distinct_shards(STRIPES)
        .into_iter()
        .take(stripes)
        .collect();
    let cc = LockingCc::semantic();
    let shared = EngineShared::new(&lanes(3), &cc);
    // preload through the protocol so the audit sees a clean record
    commit(&shared, &cc, u64::MAX, 0, &inserts(&keys));

    // attempt 0: touches all three stripes, then dies mid-flight
    let mut a = Attempt::begin(&shared, &cc, 0, 0);
    for op in changes(&keys) {
        assert_eq!(a.step(&op), Ok(()));
    }
    assert_eq!(
        cc.residual_grants().iter().filter(|&&g| g > 0).count(),
        stripes,
        "locks held on every stripe mid-flight"
    );
    assert_eq!(cc.tracked_owners(), 1);
    // compensate under held locks (strict), then release everywhere
    a.abort(AbortReason::Injected);
    assert_eq!(
        cc.residual_grants(),
        vec![0; STRIPES],
        "all stripes released"
    );
    assert_eq!(cc.tracked_owners(), 0);
    assert_eq!(cc.waiting_owners(), 0);

    // the retry re-acquires everything and commits
    commit(&shared, &cc, 0, 1, &changes(&keys));
    assert_eq!(cc.residual_grants(), vec![0; STRIPES]);

    let out = audit(&shared.rec, &cc);
    assert!(out.report.oo_decentralized.is_ok() && out.report.oo_global.is_ok());
}

/// Deterministic direct drive under certification: a victim abort
/// after a footprint on two shards is accounted on no lane, and the
/// retry validates cleanly against the merged committed set and is
/// accounted on every lane it touched.
#[test]
fn direct_drive_optimistic_victim_abort_cleanup() {
    let shards = 3;
    let keys = keys_on_distinct_shards(shards);
    let cc = OptimisticCc::new();
    let shared = EngineShared::new(&lanes(shards), &cc);
    commit(&shared, &cc, u64::MAX, 0, &inserts(&keys));
    let commits = || {
        let m = shared.metrics_snapshot();
        (
            m.shards.iter().map(|l| l.commits).collect::<Vec<_>>(),
            m.cross_shard,
        )
    };
    assert_eq!(commits(), (vec![1; shards], 1), "Setup touched every lane");

    // attempt 0: footprint on two shards, then a victim abort; its
    // writes were deferred, so its compensation has nothing to undo
    let mut a = Attempt::begin(&shared, &cc, 0, 0);
    for op in changes(&keys[..2]) {
        assert_eq!(a.step(&op), Ok(()));
    }
    let victim = a.abort(AbortReason::Victim);
    assert_eq!(commits(), (vec![1; shards], 1), "the victim counts nowhere");
    assert!(
        cc.was_aborted(victim.handle.txn),
        "registered with the certifier"
    );

    // the retry commits through validation
    commit(&shared, &cc, 0, 1, &changes(&keys));
    assert_eq!(commits(), (vec![2; shards], 2), "the retry on every lane");
    assert_eq!(cc.committed_count(), 2, "Setup + the retry");

    let out = audit(&shared.rec, &cc);
    assert!(out.report.oo_decentralized.is_ok() && out.report.oo_global.is_ok());
}

/// Run a traced, fault-injected workload: the first job deletes one key
/// per shard and its first attempt is killed after 2 operations, so
/// compensating it —
/// where the deletes executed, i.e. under locking — **re-inserts** the
/// deleted items as new incarnations; the remaining jobs update and scan
/// around the churn.
fn traced_abort_run(cc: Arc<dyn ConcurrencyControl>, shards: usize) -> oodb_engine::EngineOutput {
    let keys = keys_on_distinct_shards(shards);
    let config = EngineConfig {
        trace: true,
        ..cfg(shards)
    };
    let engine = Engine::start_with(config, cc);
    engine.inject_fault_after(0, 0, 2);
    engine.preload(&keys);
    let victim: Vec<EncOp> = keys.iter().map(|k| EncOp::Delete(k.clone())).collect();
    engine.submit_blocking(victim).unwrap();
    for k in &keys {
        engine
            .submit_blocking(vec![EncOp::Change(k.clone()), EncOp::ReadSeq])
            .unwrap();
    }
    engine.shutdown()
}

/// The tentpole invariant survives fault injection: with an injected
/// mid-flight abort whose compensation re-inserts deleted items, the
/// graph reconstructed from the trace — which must replay those
/// compensations to keep item incarnations straight — still matches the
/// audit edge-for-edge. A snapshot attempt had only buffered its
/// deletes, so there the abort has nothing to compensate and the trace
/// must match the audit all the same.
#[test]
fn injected_abort_trace_still_matches_audit() {
    use oodb_engine::trace::TraceEventKind;

    let shards = 4;
    for pessimistic in [true, false] {
        let cc: Arc<dyn ConcurrencyControl> = if pessimistic {
            Arc::new(LockingCc::semantic())
        } else {
            Arc::new(OptimisticCc::new())
        };
        let out = traced_abort_run(cc, shards);
        assert!(out.metrics.retries >= 1, "the injected abort fired");
        let log = out.trace.expect("ring sink captured a trace");
        assert_eq!(log.dropped, 0);
        if pessimistic {
            let comp_ops = log
                .events
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::CompensationOp { .. }))
                .count();
            assert!(
                comp_ops >= 2,
                "both completed deletes were compensated by traced re-inserts"
            );
        }
        let audit_out = out.audit.expect("audit enabled");
        let check = cross_check(&log.events, &audit_out);
        assert!(
            check.ok(),
            "pessimistic={pessimistic}: trace/audit graphs diverge: {check}\n  trace: {}\n  audit: {}",
            check.trace,
            check.audit
        );
        assert!(check.matched > 0, "the churn produces dependency edges");
    }
}

/// The injected mid-flight abort under certification: the incremental
/// feed's re-seed/exclusion path must leave no stale dependencies
/// behind — the trace-derived graph still matches the audit
/// edge-for-edge, and the engine metrics mirror the certifier's
/// accounting.
#[test]
fn injected_abort_under_certification_stays_clean() {
    let shards = 4;
    let cc = Arc::new(OptimisticCc::new());
    let out = traced_abort_run(cc.clone(), shards);
    assert!(out.metrics.retries >= 1, "the injected abort fired");
    assert_eq!(
        out.metrics.committed, 5,
        "victim's retry and the rest commit"
    );
    let stats = cc.stats();
    assert!(stats.aborts >= 1, "the victim abort was recorded");
    assert!(
        stats.actions_inferred > 0,
        "inference went through the maintained schedule"
    );
    assert_eq!(
        out.metrics.cert_actions_inferred, stats.actions_inferred,
        "engine metrics mirror the certifier's accounting"
    );
    let log = out.trace.expect("ring sink captured a trace");
    assert_eq!(log.dropped, 0);
    let audit_out = out.audit.expect("audit enabled");
    let check = cross_check(&log.events, &audit_out);
    assert!(
        check.ok(),
        "trace/audit graphs diverge after injected abort: {check}"
    );
    assert!(
        audit_out.report.oo_decentralized.is_ok() && audit_out.report.oo_global.is_ok(),
        "merged committed projection stays oo-serializable"
    );
}

/// Direct drive of the incremental feed's garbage path: repeated
/// mid-flight victim aborts (interleaved with commits that settle and
/// get excluded in turn) must trip the feed's garbage threshold and
/// re-seed the maintained schedule — after which a fresh transaction
/// still validates against a graph with no stale dependencies from any
/// aborted attempt, and the audit agrees.
#[test]
fn direct_drive_incremental_reseed_after_repeated_aborts() {
    let shards = 3;
    let keys = keys_on_distinct_shards(shards);
    let cc = OptimisticCc::new();
    let shared = EngineShared::new(&lanes(shards), &cc);
    commit(&shared, &cc, u64::MAX, 0, &inserts(&keys));

    for j in 0..16u64 {
        if j % 2 == 0 {
            // mid-flight victim abort: compensate, then notify the cc
            let mut a = Attempt::begin(&shared, &cc, j, 0);
            for op in changes(&keys[..2]) {
                assert_eq!(a.step(&op), Ok(()));
            }
            let victim = a.abort(AbortReason::Victim);
            assert!(
                cc.was_aborted(victim.handle.txn),
                "victim registered as aborted"
            );
        } else {
            commit(&shared, &cc, j, 0, &changes(&keys[..2]));
        }
    }
    let stats = cc.stats();
    assert!(
        stats.incremental_reseeds >= 1,
        "excluded garbage from repeated aborts must trigger a re-seed \
         (got {} reseeds over {} inferred actions)",
        stats.incremental_reseeds,
        stats.actions_inferred
    );
    assert!(stats.actions_inferred > 0);
    assert_eq!(stats.aborts, 8, "every even-numbered attempt aborted");
    assert_eq!(stats.commits, 9, "Setup + every odd-numbered attempt");

    // post-reseed: a fresh cross-shard transaction commits cleanly
    commit(&shared, &cc, 99, 0, &changes(&keys));

    let out = audit(&shared.rec, &cc);
    assert!(
        out.report.oo_decentralized.is_ok() && out.report.oo_global.is_ok(),
        "record with 8 compensated aborts stays oo-serializable"
    );
}

/// Nothing outside the concurrency control may pin the certifier's cut.
/// An injected mid-flight abort records a compensation transaction that
/// no certifier round ever finalizes; the worker retires it, so a run
/// with the fault ends holding exactly what a run without it holds, and
/// once the engine has drained every committed transaction is settled.
/// One worker: the runs are serial, so the gauge repeats exactly. (The
/// incremental backend only: the from-scratch reference keeps the whole
/// record and has no cut to pin.)
#[test]
fn an_injected_abort_does_not_pin_the_cut() {
    let shards = 3;
    let keys = keys_on_distinct_shards(shards);
    let run = |inject: bool| {
        // the victim's update is still buffered when the fault fires:
        // its compensation transaction begins and records nothing
        let cc = Arc::new(OptimisticCc::new());
        let config = EngineConfig {
            workers: 1,
            ..cfg(shards)
        };
        let engine = Engine::start_with(config, cc.clone());
        if inject {
            engine.inject_fault_after(1, 0, 2);
        }
        engine.preload(&keys);
        for j in 0..12 {
            let k = |i: usize| keys[(j + i) % shards].clone();
            engine
                .submit_blocking(vec![
                    EncOp::Search(k(0)),
                    EncOp::Change(k(1)),
                    EncOp::Search(k(2)),
                ])
                .unwrap();
        }
        let out = engine.shutdown();
        assert_eq!(out.metrics.committed, 12);
        assert_eq!(out.metrics.retries, u64::from(inject));
        assert_eq!(
            cc.stats().settled as usize,
            cc.committed_count(),
            "everything is settled once the engine drains"
        );
        assert_eq!(out.metrics.cert_settled, 13, "12 jobs + Setup");
        out.metrics.cert_retained_actions
    };
    let (clean, faulted) = (run(false), run(true));
    assert_eq!(
        faulted, clean,
        "actions retained after a run with an injected abort vs without"
    );
    assert!(clean > 0, "the last commit's actions await the next reseed");
}

/// The abort that unpins the cut is counted where it happens. A victim
/// reads and stays live while two writers commit behind it — the cut
/// retains both, their last action lies after the victim's first — and
/// then aborts before its commit point, outside any certification
/// round: both writers go in that step, and `cert_settled` and the
/// `cert_retained_actions` gauge say so at once, not a round later.
#[test]
fn an_abort_that_unpins_the_cut_is_published() {
    let shards = 3;
    let keys = keys_on_distinct_shards(shards);
    for lane_count in [1, shards] {
        let label = format!("optimistic/{lane_count}");
        let cc = &OptimisticCc::new();
        let shared = EngineShared::new(&lanes(lane_count), cc);
        for (i, k) in keys.chunks(1).enumerate() {
            commit(&shared, cc, 100 + i as u64, 0, &inserts(k));
        }
        let settled = || shared.metrics_snapshot().cert_settled;
        assert_eq!(settled(), 3, "{label}: nothing live, every insert settled");

        let mut victim = Attempt::begin(&shared, cc, 1, 0);
        assert_eq!(victim.step(&EncOp::Search(keys[0].clone())), Ok(()));
        commit(&shared, cc, 2, 0, &changes(&keys[1..2]));
        commit(&shared, cc, 3, 0, &changes(&keys[2..3]));
        assert_eq!(settled(), 3, "{label}: the live victim pins A and B");
        let pinned = shared.metrics_snapshot().cert_retained_actions;

        victim.abort(AbortReason::Victim);
        assert_eq!(settled(), 5, "{label}: the abort let A and B go");
        // dropped primitives stay in the schedules, and in the gauge,
        // until the next reseed replaces them
        let after = shared.metrics_snapshot().cert_retained_actions;
        assert!(after <= pinned, "{label}: gauge {pinned} -> {after}");
    }
}
