//! The admission hand-off through a running engine: with one transaction
//! in flight the worker that ran the last one polls the queue and takes
//! the next without being signalled, and a one-worker engine still runs
//! its jobs in submission order.

use oodb_engine::{CcKind, Engine, EngineConfig, TraceEventKind, TraceMode};
use oodb_sim::EncOp;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The closed loop's pause between a commit and the next submission: a
/// fifth of `oodb_engine::queue::POLL_BUDGET`.
const THINK: Duration = Duration::from_micros(10);

/// The tests of this file run one at a time: a closed loop measures
/// whether its poller is on a CPU when a job arrives, and on a machine
/// with two CPUs a second engine running beside it takes one away (a
/// push then finds the poller descheduled and signals instead).
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn search(i: usize) -> Vec<EncOp> {
    vec![EncOp::Search(format!("k{:03}", i % 64))]
}

/// A closed loop of 1 000 one-search jobs, one in flight, on a fresh
/// two-worker engine: submit, wait for the commit, think [`THINK`],
/// submit the next. Returns how many submissions signalled a parked
/// worker.
fn closed_loop() -> u64 {
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
    m.queue_consumer_wakes
}

/// A queue that parks its idle worker signals it once per job of the
/// closed loop; the polled hand-off signals (almost) never — the poller
/// takes each job. The bound leaves room for polls that ran out of
/// budget, or pushes that found the poller off its CPU.
///
/// The poller and the submitting thread each need a CPU. When they share
/// one, every poll runs out while the submitter waits for the CPU, and
/// the worker backs off to parking — the hand-off working as designed,
/// and then nearly every job is signalled. On a 2-vCPU guest whose host
/// takes the second vCPU away that happened for whole loops, so the loop
/// runs up to ten times and one run within the bound passes; the parked
/// hand-off signals every job of every run. The test also requires two
/// CPUs.
#[test]
fn a_closed_loop_runs_without_waking_a_parked_worker() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        cpus >= 2,
        "the closed-loop wake budget needs 2 CPUs (a poller beside the submitter); this host has {cpus}"
    );
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut wakes = Vec::new();
    while wakes.len() < 10 && wakes.last().is_none_or(|&w| w > 100) {
        wakes.push(closed_loop());
    }
    assert!(
        wakes.last().is_some_and(|&w| w <= 100),
        "every run of 1 000 one-in-flight submissions signalled a parked worker more than 100 times: {wakes:?}"
    );
}

/// One worker takes the jobs in the order they were submitted, whether
/// it finds them queued or polls for them.
#[test]
fn one_worker_runs_jobs_in_submission_order() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let engine = Engine::start(
        EngineConfig {
            workers: 1,
            queue_capacity: 4,
            audit: false,
            trace: TraceMode::Ring {
                capacity_per_lane: 1 << 12,
            },
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
