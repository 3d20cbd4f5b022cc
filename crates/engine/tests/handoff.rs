//! The admission hand-off through a running engine: a closed loop with
//! one transaction in flight commits every job and strands none, and a
//! one-worker engine still runs its jobs in submission order.

use oodb_engine::{CcKind, Engine, EngineConfig, TraceEventKind};
use oodb_sim::EncOp;
use std::time::{Duration, Instant};

/// The closed loop's pause between a commit and the next submission: a
/// fifth of `oodb_engine::queue::POLL_BUDGET`.
const THINK: Duration = Duration::from_micros(10);

fn search(i: usize) -> Vec<EncOp> {
    vec![EncOp::Search(format!("k{:03}", i % 64))]
}

/// A closed loop of 1 000 one-search jobs, one in flight, on a fresh
/// two-worker engine: submit, wait for the commit, think [`THINK`],
/// submit the next. Every job commits, and no job is left for `pop`'s
/// timed re-check to find. Whether the poller takes a push without a
/// signal is the queue's own test,
/// `queue::tests::a_poller_takes_a_push_without_a_signal`.
#[test]
fn a_closed_loop_strands_no_job() {
    const JOBS: usize = 1_000;
    let engine = Engine::start(
        EngineConfig {
            workers: 2,
            queue_capacity: 8,
            audit: false,
            ..EngineConfig::default()
        },
        CcKind::Pessimistic,
    );
    let keys: Vec<String> = (0..64).map(|i| format!("k{i:03}")).collect();
    engine.preload(&keys);
    for i in 0..JOBS {
        engine.submit_blocking(search(i)).expect("engine is open");
        while engine.finished() < i as u64 + 1 {
            std::hint::spin_loop();
        }
        // think a little, inside the poll budget: a commit is counted
        // before its worker has finished with it, and without a pause a
        // debug build's submission often arrives before the worker polls
        let thought = Instant::now();
        while thought.elapsed() < THINK {
            std::hint::spin_loop();
        }
    }
    let m = engine.shutdown().metrics;
    assert_eq!(m.committed as usize, JOBS);
    assert_eq!(m.queue_timed_wakeups_with_work, 0, "{m}");
}

/// One worker takes the jobs in the order they were submitted, whether
/// it finds them queued or polls for them.
#[test]
fn one_worker_runs_jobs_in_submission_order() {
    let engine = Engine::start(
        EngineConfig {
            workers: 1,
            queue_capacity: 4,
            audit: false,
            trace: true,
            ..EngineConfig::default()
        },
        CcKind::Pessimistic,
    );
    // bursts fill the queue; the single steps leave it empty between jobs
    for i in 0..200 {
        engine.submit_blocking(search(i)).expect("engine is open");
        if i % 20 == 0 {
            while engine.finished() < i as u64 + 1 {
                std::hint::spin_loop();
            }
        }
    }
    let out = engine.shutdown();
    let trace = out.trace.expect("traced run");
    assert_eq!(trace.dropped, 0);
    let begun: Vec<u64> = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::AttemptBegin { .. }))
        .map(|e| e.job)
        .collect();
    assert_eq!(begun, (0..200).collect::<Vec<u64>>());
}
