//! Keeps every vCPU out of the hypervisor's halt path while a repetition
//! is timed.
//!
//! This box is a 2-vCPU KVM guest. A guest CPU with nothing to run
//! executes `HLT`, the host takes the core away, and the next wake-up of
//! a thread on that CPU costs ≈ 20 µs instead of ≈ 3 µs (condvar
//! ping-pong between two threads: 42 µs a round trip on an idle guest,
//! 6 µs when anything else keeps the CPUs busy). Whether a given wake-up
//! pays that depends on the host's adaptive halt-polling, which flips in
//! stretches of 40 ms to minutes: with one transaction in flight the
//! worker's CPU idles between transactions, and `read_fit`'s serial p50
//! read 122 µs or 190 µs from one repetition to the next (first to third
//! quartile over 24 repetitions: 39 % of the median).
//!
//! One thread per allowed CPU, pinned to it and scheduled `SCHED_IDLE`,
//! spins for as long as the guard lives. The kernel runs such a thread
//! only when the CPU would otherwise idle and preempts it the moment
//! anything else wakes there, so it takes no time from the engine; it
//! only turns "halted" into "polling", which is what `idle=poll` on the
//! kernel command line would do. The same 24 repetitions, alternating
//! with the ones above: p50 127 µs, quartiles 6 % apart.
//!
//! If the kernel refuses either call the thread exits at once (a spinner
//! at normal priority would compete with the engine) and
//! [`KeepAwake::cpus`] says how many CPUs are actually covered.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[cfg(target_os = "linux")]
mod sys {
    // std already links libc; these are its prototypes on Linux
    extern "C" {
        pub fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    pub const SCHED_IDLE: i32 = 5;
    /// Words of a `cpu_set_t` (1024 CPUs).
    pub const MASK_WORDS: usize = 16;

    /// The CPUs this thread may run on.
    pub fn allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: the kernel writes at most `size` bytes into `mask`
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..MASK_WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    /// Pin thread `tid` (0: the calling thread) to `cpu`; false if refused.
    pub fn pin(tid: i32, cpu: usize) -> bool {
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: the kernel reads `size` bytes from the live local `mask`
        unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }

    /// Pin the calling thread to `cpu` at idle priority; false if refused.
    pub fn idle_on(cpu: usize) -> bool {
        // struct sched_param { int sched_priority; }
        let priority = 0i32;
        if !pin(0, cpu) {
            return false;
        }
        // SAFETY: the pointer is to a live local of the struct's size;
        // pid 0 is the calling thread
        unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }
    pub fn pin(_tid: i32, _cpu: usize) -> bool {
        false
    }
    pub fn idle_on(_cpu: usize) -> bool {
        false
    }
}

/// Pin the engine's `workers` worker threads (`oodb-worker-<i>`, found
/// by name among this process's threads) round-robin to the allowed
/// CPUs, and say how many were pinned. A thread names itself after it
/// starts, so this looks again for up to 100 ms until all are found.
///
/// With a spinner on every CPU the kernel never sees an idle CPU, so it
/// never pulls a thread over to one: left alone, both workers end up
/// sharing a CPU for whole repetitions (`hot_update` then ran 5 800 to
/// 12 700 commits/s on one seed, with 0.13 to 0 retries per commit,
/// against 4 300 to 4 800 without spinners). One worker per CPU is also
/// what the two-worker shape means to measure.
pub fn pin_engine_workers(workers: usize) -> usize {
    let cpus = sys::allowed_cpus();
    if cpus.is_empty() {
        return 0;
    }
    let mut pinned = vec![false; workers];
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(100);
    while pinned.contains(&false) && std::time::Instant::now() < deadline {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            break;
        };
        for task in tasks.flatten() {
            let name = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            let worker = name.trim().strip_prefix("oodb-worker-");
            let (Some(index), Some(tid)) = (
                worker.and_then(|i| i.parse::<usize>().ok()),
                task.file_name()
                    .to_str()
                    .and_then(|t| t.parse::<i32>().ok()),
            ) else {
                continue;
            };
            if index < workers && !pinned[index] {
                pinned[index] = sys::pin(tid, cpus[index % cpus.len()]);
            }
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    pinned.iter().filter(|p| **p).count()
}

/// Idle-priority spinners, one per CPU, until dropped.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    covered: Arc<AtomicUsize>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let covered = Arc::new(AtomicUsize::new(0));
        let threads: Vec<JoinHandle<()>> = sys::allowed_cpus()
            .into_iter()
            .map(|cpu| {
                let (stop, covered) = (stop.clone(), covered.clone());
                std::thread::spawn(move || {
                    if !sys::idle_on(cpu) {
                        return;
                    }
                    covered.fetch_add(1, Ordering::Release);
                    // plain loads, no PAUSE: a pause loop makes KVM exit
                    // to the host, which is the trip this thread avoids
                    while !stop.load(Ordering::Relaxed) {}
                })
            })
            .collect();
        // give every spinner the time to reach its loop (or to give up)
        std::thread::sleep(std::time::Duration::from_millis(5));
        KeepAwake {
            stop,
            covered,
            threads,
        }
    }

    /// CPUs a spinner is running on.
    pub fn cpus(&self) -> usize {
        self.covered.load(Ordering::Acquire)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_are_found_by_name_and_pinned() {
        let (release, wait) = std::sync::mpsc::channel::<()>();
        let wait = Arc::new(std::sync::Mutex::new(wait));
        let workers: Vec<JoinHandle<()>> = (0..2)
            .map(|i| {
                let wait = wait.clone();
                std::thread::Builder::new()
                    .name(format!("oodb-worker-{i}"))
                    .spawn(move || {
                        // parked until the test has looked at the threads
                        let _ = wait.lock().expect("no holder panics").recv();
                    })
                    .expect("spawn")
            })
            .collect();
        let pinned = pin_engine_workers(2);
        drop(release);
        for w in workers {
            w.join().expect("worker exits");
        }
        // all of them, or none where the platform has no affinity call
        assert!(pinned == 2 || sys::allowed_cpus().is_empty(), "{pinned}");
    }

    #[test]
    fn spinners_stop_when_the_guard_drops() {
        let awake = KeepAwake::start();
        // refused (0) or granted (one per allowed CPU), never in between
        let cpus = awake.cpus();
        assert!(cpus == 0 || cpus == sys::allowed_cpus().len(), "{cpus}");
        drop(awake); // joins; the test hangs if a spinner ignores `stop`
    }
}
