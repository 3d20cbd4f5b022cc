//! The log device keeps its time: the `oodb-flusher` thread sleeps the
//! configured `fsync_latency` and `max_wait`, not the kernel's default
//! 50 µs timer slack longer, and no commit is acknowledged sooner than
//! the device allows. A test binary of its own, so that the one engine
//! running is the one whose threads the tests look at.

use oodb_engine::{CcKind, DurabilityMode, Engine, EngineConfig};
use oodb_sim::EncOp;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The simulated device, as on the benchmark's `durable_write`.
const FSYNC: Duration = Duration::from_micros(50);

/// One engine at a time: the first test finds the flusher by name.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn durable_engine() -> Engine {
    Engine::start(
        EngineConfig {
            workers: 1,
            queue_capacity: 4,
            audit: false,
            durability: DurabilityMode::Group {
                max_batch: 8,
                max_wait: Duration::from_micros(200),
            },
            fsync_latency: FSYNC,
            ..EngineConfig::default()
        },
        CcKind::Pessimistic,
    )
}

/// Submit job `i`, one insert, and wait until it is acknowledged: with
/// nothing else admitted, its gather ends on the idle rule and its
/// flush covers it alone.
fn lone_commit(engine: &Engine, i: u64) {
    engine
        .submit_blocking(vec![EncOp::Insert(format!("k{i:05}"))])
        .expect("engine is open");
    while engine.finished() < i + 1 {
        std::thread::yield_now();
    }
}

#[cfg(target_os = "linux")]
mod slack {
    use std::ffi::c_ulong;

    // std already links libc; this is its prototype on Linux
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;

    /// Set the calling thread's timer slack; false if the kernel refuses.
    pub fn set_own(ns: c_ulong) -> bool {
        // SAFETY: PR_SET_TIMERSLACK reads one unsigned long by value and
        // touches no memory of this process
        unsafe { prctl(PR_SET_TIMERSLACK, ns) == 0 }
    }

    /// The calling thread's id, from `/proc/thread-self` (`<pid>/task/<tid>`).
    pub fn own_tid() -> u32 {
        let link = std::fs::read_link("/proc/thread-self").expect("procfs is mounted");
        link.file_name()
            .and_then(|t| t.to_str())
            .and_then(|t| t.parse().ok())
            .expect("/proc/thread-self ends in the thread id")
    }

    /// Thread `tid`'s timer slack in ns. Reading another thread's needs
    /// `CAP_SYS_NICE`; the calling thread's own is always readable.
    pub fn of(tid: u32) -> std::io::Result<u64> {
        let text = std::fs::read_to_string(format!("/proc/{tid}/timerslack_ns"))?;
        Ok(text.trim().parse().expect("timerslack_ns holds a number"))
    }

    /// The id of this process's thread named `name`, if there is one.
    pub fn thread_named(name: &str) -> Option<u32> {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs is mounted")
            .flatten()
            .find(|task| {
                std::fs::read_to_string(task.path().join("comm"))
                    .is_ok_and(|comm| comm.trim() == name)
            })
            .and_then(|task| task.file_name().to_str()?.parse().ok())
    }
}

/// After one durable commit the flusher's timer slack reads back at
/// most 1 µs, while the worker keeps the slack it inherited from the
/// thread that started the engine. Skipped only where the read-back
/// cannot work: the kernel refuses `PR_SET_TIMERSLACK` on a thread of
/// this test (so the flusher's call fails the same way), or refuses to
/// show that thread's slack to a sibling (no `CAP_SYS_NICE`).
#[cfg(target_os = "linux")]
#[test]
fn the_flusher_sleeps_with_a_fine_timer_slack() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // a helper thread takes the probe: a thread inherits its creator's
    // slack, so setting it here would hand it to the engine's threads
    let (report, reported) = std::sync::mpsc::channel();
    let (release, released) = std::sync::mpsc::channel::<()>();
    let helper = std::thread::spawn(move || {
        let set = slack::set_own(1);
        report.send((set, slack::own_tid())).expect("test waits");
        // alive until the test has read its slack
        let _ = released.recv();
    });
    let (set, helper_tid) = reported.recv().expect("helper reports");
    let seen = slack::of(helper_tid);
    drop(release);
    helper.join().expect("helper exits");
    if !set {
        eprintln!("skipped: the kernel refuses PR_SET_TIMERSLACK");
        return;
    }
    match seen {
        Ok(ns) => assert_eq!(ns, 1, "the helper's own slack reads back"),
        Err(e) => {
            eprintln!("skipped: another thread's timerslack_ns is unreadable here ({e})");
            return;
        }
    }

    let engine = durable_engine();
    lone_commit(&engine, 0);
    let flusher = slack::thread_named("oodb-flusher").expect("durability on runs a flusher");
    let worker = slack::thread_named("oodb-worker-0").expect("one worker");
    let flusher_slack = slack::of(flusher).expect("readable like the helper's");
    let worker_slack = slack::of(worker).expect("readable like the helper's");
    let own_slack = slack::of(slack::own_tid()).expect("a thread reads its own");
    let m = engine.shutdown().metrics;
    assert_eq!(m.committed, 1);
    assert!(
        flusher_slack <= 1_000,
        "the flusher sleeps with {flusher_slack} ns of timer slack: a {FSYNC:?} fsync runs that much late"
    );
    assert_eq!(
        worker_slack, own_slack,
        "only the flusher changes its slack; the worker inherits the starter's"
    );
}

/// The device is never faster than configured: `N` lone commits, each
/// its own flush, take at least `N × fsync_latency` of wall time. A
/// lower bound on a sleep, so it cannot flake.
#[test]
fn lone_commits_take_at_least_the_configured_fsync_each() {
    const N: u64 = 200;
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let engine = durable_engine();
    let began = Instant::now();
    for i in 0..N {
        lone_commit(&engine, i);
    }
    let took = began.elapsed();
    let m = engine.shutdown().metrics;
    assert_eq!(m.committed, N);
    assert_eq!(
        (m.fsyncs, m.wal_flush_idle),
        (N, N),
        "every lone commit is one flush, ended by the idle rule"
    );
    assert!(
        took >= FSYNC * N as u32,
        "{N} lone commits took {took:?}, less than {N} × {FSYNC:?}"
    );
    eprintln!("{N} lone commits: {:?} each", took / N as u32);
}
