//! The deadlock contract of strict 2PL, driven through
//! [`ConcurrencyControl`] as `fault_injection.rs` does: a cycle is
//! broken when it closes, whichever request closes it; the victim is
//! the member with the largest job id, whatever its owner id; and every
//! wait ends at a release or a verdict — a lost wake-up shows as a
//! failed hang guard here, never as a hung suite.

use oodb_core::ids::TxnIdx;
use oodb_engine::trace::TraceEventKind;
use oodb_engine::{
    shard_of_key, CcKind, ConcurrencyControl, Engine, EngineConfig, EngineShared, LockingCc,
    OpGrant, TxnHandle, STRIPES,
};
use oodb_sim::{encyclopedia_workload, EncMix, EncOp, EncWorkloadConfig, Skew};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Run `f` on its own thread and fail — instead of hanging — if it has
/// not finished within `secs` seconds.
fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("no progress in {secs} s: a wait was never woken"))
}

/// `n` keys on `n` distinct lock stripes.
fn keys_on_distinct_stripes(n: usize) -> Vec<String> {
    let mut found: Vec<Option<String>> = vec![None; STRIPES];
    for i in 0.. {
        let k = format!("k{i:06}");
        let s = shard_of_key(&k, STRIPES);
        if found[s].is_none() {
            found[s] = Some(k);
            if found.iter().filter(|k| k.is_some()).count() == n {
                break;
            }
        }
    }
    found.into_iter().flatten().collect()
}

/// A small traced one-worker engine: the contract tests read the
/// `DeadlockVictim` events from its one ring lane.
fn traced() -> EngineConfig {
    EngineConfig {
        workers: 1,
        pool_frames: 64,
        trace: true,
        ..EngineConfig::default()
    }
}

fn handle(job: u64, attempt: u32, owner: u32) -> TxnHandle {
    TxnHandle::new(job, attempt, TxnIdx(owner))
}

/// One party of a lock cycle: it holds `held`, then asks for `wants`
/// once `turn` other requests are parked — so the parties close the
/// cycle in a fixed order — and finishes as the verdict says.
struct Party {
    txn: TxnHandle,
    held: String,
    wants: String,
    turn: usize,
}

/// Run the parties of one cycle to completion; the verdict of each, in
/// party order.
fn run_cycle(cc: &Arc<LockingCc>, shared: &Arc<EngineShared>, parties: Vec<Party>) -> Vec<OpGrant> {
    for p in &parties {
        let op = EncOp::Change(p.held.clone());
        assert_eq!(cc.before_op(shared, &p.txn, &op), OpGrant::Granted);
    }
    let threads: Vec<_> = parties
        .into_iter()
        .map(|p| {
            let (cc, shared) = (cc.clone(), shared.clone());
            thread::spawn(move || {
                while cc.waiting_owners() < p.turn {
                    thread::yield_now();
                }
                let grant = cc.before_op(&shared, &p.txn, &EncOp::Change(p.wants));
                match grant {
                    OpGrant::Granted => cc.after_commit(&shared, &p.txn),
                    OpGrant::AbortVictim => cc.after_abort(&shared, &p.txn),
                }
                grant
            })
        })
        .collect();
    threads.into_iter().map(|t| t.join().unwrap()).collect()
}

fn assert_drained(cc: &LockingCc) {
    assert_eq!(cc.residual_grants(), vec![0; STRIPES], "no orphaned grant");
    assert_eq!(cc.tracked_owners(), 0);
    assert_eq!(cc.waiting_owners(), 0, "the waits-for map is empty");
}

/// The victims the detector reported, as `(victim_job, cycle_jobs)`.
fn victims(shared: &EngineShared) -> Vec<(u64, Vec<u64>)> {
    let log = shared.trace.drain().expect("tracing on");
    log.events
        .into_iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::DeadlockVictim {
                victim_job,
                cycle_jobs,
            } => Some((victim_job, cycle_jobs)),
            _ => None,
        })
        .collect()
}

/// A two-cycle on keys of different stripes, closed by either party:
/// the larger job aborts and the other is granted — 200 times over, so
/// a wake-up lost to a race fails the hang guard.
#[test]
fn a_two_cycle_aborts_the_larger_job_whichever_request_closes_it() {
    within(10, || {
        let keys = keys_on_distinct_stripes(2);
        for round in 0..200u64 {
            for larger_closes in [true, false] {
                let cc = Arc::new(LockingCc::semantic());
                let shared = Arc::new(EngineShared::new(&traced(), cc.as_ref()));
                let (small, large) = (2 * round, 2 * round + 1);
                let turn = |closes: bool| usize::from(closes);
                let verdicts = run_cycle(
                    &cc,
                    &shared,
                    vec![
                        Party {
                            txn: handle(small, 0, 1),
                            held: keys[0].clone(),
                            wants: keys[1].clone(),
                            turn: turn(!larger_closes),
                        },
                        Party {
                            txn: handle(large, 0, 2),
                            held: keys[1].clone(),
                            wants: keys[0].clone(),
                            turn: turn(larger_closes),
                        },
                    ],
                );
                assert_eq!(
                    verdicts,
                    vec![OpGrant::Granted, OpGrant::AbortVictim],
                    "round {round}, larger job closes: {larger_closes}"
                );
                assert_drained(&cc);
                let m = shared.metrics_snapshot();
                assert_eq!(m.deadlock_victims, 1);
                assert_eq!(m.lock_blocks, 2, "both cycle requests blocked");
                let closer = if larger_closes { large } else { small };
                let other = if larger_closes { small } else { large };
                assert_eq!(victims(&shared), vec![(large, vec![closer, other])]);
            }
        }
    });
}

/// A three-cycle across three stripes, closed by each member in turn:
/// the largest job is the one victim, and the other two commit.
#[test]
fn a_three_cycle_across_three_stripes_aborts_only_the_largest_job() {
    within(10, || {
        let keys = keys_on_distinct_stripes(3);
        for closer in 0..3 {
            let cc = Arc::new(LockingCc::semantic());
            let shared = Arc::new(EngineShared::new(&traced(), cc.as_ref()));
            let parties = (0..3)
                .map(|i| Party {
                    txn: handle(10 * (i as u64 + 1), 0, i as u32 + 1),
                    held: keys[i].clone(),
                    wants: keys[(i + 1) % 3].clone(),
                    // the closer goes last; the other two in index order
                    turn: if i == closer {
                        2
                    } else {
                        (0..i).filter(|&j| j != closer).count()
                    },
                })
                .collect();
            let verdicts = run_cycle(&cc, &shared, parties);
            assert_eq!(
                verdicts,
                vec![OpGrant::Granted, OpGrant::Granted, OpGrant::AbortVictim],
                "closed by party {closer}"
            );
            assert_drained(&cc);
            let reported = victims(&shared);
            assert_eq!(reported.len(), 1, "one cycle, one victim: {reported:?}");
            assert_eq!(reported[0].0, 30);
            let mut cycle = reported[0].1.clone();
            cycle.sort_unstable();
            assert_eq!(cycle, vec![10, 20, 30]);
        }
    });
}

/// Job 5 on its second attempt carries a fresh, larger owner id than
/// job 9 on its first. The victim is decided by job id, so job 9 goes —
/// a retried job cannot be picked forever because its owner id grew.
#[test]
fn the_victim_is_the_larger_job_not_the_larger_owner() {
    within(10, || {
        let keys = keys_on_distinct_stripes(2);
        for retried_closes in [true, false] {
            let cc = Arc::new(LockingCc::semantic());
            let shared = Arc::new(EngineShared::new(&traced(), cc.as_ref()));
            let verdicts = run_cycle(
                &cc,
                &shared,
                vec![
                    Party {
                        txn: handle(5, 1, 40),
                        held: keys[0].clone(),
                        wants: keys[1].clone(),
                        turn: usize::from(retried_closes),
                    },
                    Party {
                        txn: handle(9, 0, 30),
                        held: keys[1].clone(),
                        wants: keys[0].clone(),
                        turn: usize::from(!retried_closes),
                    },
                ],
            );
            assert_eq!(verdicts, vec![OpGrant::Granted, OpGrant::AbortVictim]);
            assert_drained(&cc);
            assert_eq!(victims(&shared)[0].0, 9);
        }
    });
}

/// `txns` jobs of four operations from eight workers on four Zipf-hot
/// keys, each job retried until it commits.
fn hot_run(txns: usize, audit: bool) -> (Arc<LockingCc>, oodb_engine::EngineOutput) {
    let cc = Arc::new(LockingCc::semantic());
    let w = encyclopedia_workload(&EncWorkloadConfig {
        txns,
        ops_per_txn: 4,
        key_space: 4,
        preload: 2,
        mix: EncMix::update_heavy(),
        skew: Skew::Zipf(0.99),
        seed: 26,
    });
    let cfg = EngineConfig {
        workers: 8,
        queue_capacity: 32,
        seed: 26,
        audit,
        ..EngineConfig::default()
    };
    let engine = Engine::start_with(cfg, cc.clone());
    let out = within(60, move || {
        engine.preload(&w.preload_keys);
        for ops in w.txn_ops {
            engine.submit_blocking(ops).unwrap();
        }
        engine.shutdown()
    });
    assert_eq!(out.metrics.committed as usize, txns, "{}", out.metrics);
    assert_eq!(out.metrics.aborted, 0, "no job exhausts its retries");
    assert_drained(&cc);
    (cc, out)
}

/// Eight workers on four Zipf-hot keys: deadlocks close all the time,
/// every one is broken when it closes, and 2 000 jobs all commit with
/// the lock table and the waits-for map empty at the end. The audit is
/// super-linear in the record, so it checks the same shape on 200 jobs.
#[test]
fn eight_workers_on_four_hot_keys_commit_every_job() {
    let (_, out) = hot_run(2000, false);
    let m = &out.metrics;
    assert!(m.lock_blocks > 0 && m.deadlock_victims > 0, "{m}");
    // a doomed request that is granted before it looks is no retry
    assert!(m.retries <= m.deadlock_victims, "only victims retry: {m}");
    let (_, out) = hot_run(200, true);
    let audit = out.audit.expect("audit enabled");
    assert!(audit.report.oo_decentralized.is_ok() && audit.report.oo_global.is_ok());
}

/// A holder that panics while it holds grants poisons nothing: once its
/// `after_abort` runs, the request parked behind it is granted, and the
/// stripe serves the next request as if nothing happened.
#[test]
fn a_panicking_holder_leaves_no_waiter_parked() {
    within(10, || {
        let cc = Arc::new(LockingCc::semantic());
        let shared = Arc::new(EngineShared::new(&traced(), cc.as_ref()));
        let key = EncOp::Change("hot".into());
        let (granted, holding) = mpsc::channel();
        let holder = {
            let (cc, shared, key) = (cc.clone(), shared.clone(), key.clone());
            thread::spawn(move || {
                let txn = handle(1, 0, 1);
                let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    assert_eq!(cc.before_op(&shared, &txn, &key), OpGrant::Granted);
                    granted.send(()).unwrap();
                    let t0 = Instant::now();
                    while cc.waiting_owners() == 0 {
                        assert!(t0.elapsed() < Duration::from_secs(5), "waiter never parked");
                        thread::yield_now();
                    }
                    panic!("the holder dies holding its grant");
                }));
                assert!(died.is_err());
                cc.after_abort(&shared, &txn);
            })
        };
        holding.recv().expect("the holder was granted");
        let waiter = handle(2, 0, 2);
        assert_eq!(cc.before_op(&shared, &waiter, &key), OpGrant::Granted);
        holder.join().expect("the panic was caught in the holder");
        cc.after_commit(&shared, &waiter);
        let next = handle(3, 0, 3);
        assert_eq!(cc.before_op(&shared, &next, &key), OpGrant::Granted);
        cc.after_commit(&shared, &next);
        assert_drained(&cc);
    });
}

/// The engine runs this control for both pessimistic kinds, at every
/// shard count: the name does not change with the lanes.
#[test]
fn one_control_at_every_shard_count() {
    for shards in [1, 4] {
        let cfg = EngineConfig {
            workers: 1,
            shards,
            ..EngineConfig::default()
        };
        let engine = Engine::start(cfg.clone(), CcKind::Pessimistic);
        assert_eq!(engine.cc_name(), "pessimistic");
        engine.shutdown();
        let engine = Engine::start(cfg, CcKind::PessimisticPage);
        assert_eq!(engine.cc_name(), "pessimistic-page");
        engine.shutdown();
    }
}
