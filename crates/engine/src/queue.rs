//! Bounded admission queue with load shedding, backpressure, and
//! drain-on-shutdown semantics.

use oodb_btree::EncOp;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One unit of admitted work: a logical transaction to execute.
#[derive(Debug, Clone)]
pub struct Job {
    /// Stable id assigned at submission (0-based submission order).
    pub id: u64,
    /// The operations the transaction performs, in order.
    pub ops: Vec<EncOp>,
    /// When the job entered the queue (start of the end-to-end latency
    /// measurement).
    pub submitted_at: Instant,
    /// Absolute deadline, if the engine enforces one.
    pub deadline: Option<Instant>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
    /// Producers waiting on `not_full`: only then is it signalled.
    blocked_producers: usize,
    /// Consumers waiting on `not_empty`: only then is it signalled, so a
    /// push to a queue whose consumers are all busy makes no syscall.
    idle_consumers: usize,
}

/// A bounded multi-producer multi-consumer queue.
///
/// * [`try_push`](JobQueue::try_push) sheds when full (admission
///   control);
/// * [`push_blocking`](JobQueue::push_blocking) waits for space
///   (backpressure) and is woken when the queue has drained to half its
///   capacity, not at every pop: a producer that shares its CPUs with
///   the consumers then refills half a queue per wake-up instead of
///   preempting a consumer once per job;
/// * [`pop`](JobQueue::pop) blocks until work arrives or the queue is
///   closed **and drained** — closing stops admission but lets workers
///   finish everything already accepted. A push signals a consumer only
///   if one is parked: `Condvar::notify_one` is a syscall even when
///   nobody waits.
pub struct JobQueue {
    state: Mutex<QueueState>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
    next_id: AtomicU64,
    /// Live depth gauge, refreshed on every push, pop, and shed (a
    /// gauge only written on pop goes stale the moment the queue fills).
    /// Shareable with [`EngineMetrics`](crate::EngineMetrics) via
    /// [`with_depth_gauge`](JobQueue::with_depth_gauge).
    depth_gauge: Arc<AtomicUsize>,
}

impl JobQueue {
    /// An empty queue holding at most `capacity` pending jobs.
    pub fn new(capacity: usize) -> Self {
        Self::with_depth_gauge(capacity, Arc::new(AtomicUsize::new(0)))
    }

    /// An empty queue publishing its depth through `gauge` — pass the
    /// engine's `metrics.queue_depth` so the metrics gauge tracks every
    /// depth change, not just worker pops.
    pub fn with_depth_gauge(capacity: usize, gauge: Arc<AtomicUsize>) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
                blocked_producers: 0,
                idle_consumers: 0,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            next_id: AtomicU64::new(0),
            depth_gauge: gauge,
        }
    }

    /// Last published queue depth (lock-free; see the `depth_gauge`
    /// field for freshness guarantees).
    pub fn gauge(&self) -> usize {
        self.depth_gauge.load(Ordering::Relaxed)
    }

    fn make_job(&self, ops: Vec<EncOp>, deadline: Option<std::time::Duration>) -> Job {
        let now = Instant::now();
        Job {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            ops,
            submitted_at: now,
            deadline: deadline.map(|d| now + d),
        }
    }

    /// Admit `ops` if there is room. Returns `Err(ops)` (shedding the
    /// work back to the caller) when the queue is full or closed.
    pub fn try_push(
        &self,
        ops: Vec<EncOp>,
        deadline: Option<std::time::Duration>,
    ) -> Result<u64, Vec<EncOp>> {
        let mut st = self.state.lock();
        if st.closed || st.jobs.len() >= self.capacity {
            // publish the depth the shed observed (a full queue must
            // read as full, not as whatever the last pop saw)
            self.depth_gauge.store(st.jobs.len(), Ordering::Relaxed);
            return Err(ops);
        }
        let job = self.make_job(ops, deadline);
        let id = job.id;
        st.jobs.push_back(job);
        self.depth_gauge.store(st.jobs.len(), Ordering::Relaxed);
        let wake = st.idle_consumers > 0;
        drop(st);
        if wake {
            self.not_empty.notify_one();
        }
        Ok(id)
    }

    /// Admit `ops`, blocking until the queue has room (backpressure).
    /// Returns `Err(ops)` only if the queue closes while waiting.
    pub fn push_blocking(
        &self,
        ops: Vec<EncOp>,
        deadline: Option<std::time::Duration>,
    ) -> Result<u64, Vec<EncOp>> {
        let mut st = self.state.lock();
        while !st.closed && st.jobs.len() >= self.capacity {
            st.blocked_producers += 1;
            self.not_full.wait(&mut st);
            st.blocked_producers -= 1;
        }
        if st.closed {
            return Err(ops);
        }
        let job = self.make_job(ops, deadline);
        let id = job.id;
        st.jobs.push_back(job);
        self.depth_gauge.store(st.jobs.len(), Ordering::Relaxed);
        // one signal per half queue: whoever leaves room passes it on, so
        // blocked producers cannot strand one another
        let pass_on = st.blocked_producers > 0 && st.jobs.len() < self.capacity;
        let wake = st.idle_consumers > 0;
        drop(st);
        if wake {
            self.not_empty.notify_one();
        }
        if pass_on {
            self.not_full.notify_one();
        }
        Ok(id)
    }

    /// Take the next job, blocking while the queue is open and empty.
    /// Returns `None` once the queue is closed **and** drained.
    pub fn pop(&self) -> Option<Job> {
        let mut st = self.state.lock();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                let depth = st.jobs.len();
                self.depth_gauge.store(depth, Ordering::Relaxed);
                // low-water wake-up (capacity 1 or 2: every pop)
                let wake = st.blocked_producers > 0 && depth <= self.capacity / 2;
                drop(st);
                if wake {
                    self.not_full.notify_one();
                }
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st.idle_consumers += 1;
            self.not_empty
                .wait_for(&mut st, std::time::Duration::from_millis(5));
            st.idle_consumers -= 1;
        }
    }

    /// Stop admitting new work. Already-queued jobs remain poppable;
    /// blocked producers and idle consumers wake up.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Number of jobs currently waiting.
    pub fn depth(&self) -> usize {
        self.state.lock().jobs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops() -> Vec<EncOp> {
        vec![EncOp::Search("k".into())]
    }

    #[test]
    fn sheds_when_full() {
        let q = JobQueue::new(2);
        assert!(q.try_push(ops(), None).is_ok());
        assert!(q.try_push(ops(), None).is_ok());
        assert!(q.try_push(ops(), None).is_err());
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn drains_after_close() {
        let q = JobQueue::new(4);
        q.try_push(ops(), None).unwrap();
        q.try_push(ops(), None).unwrap();
        q.close();
        assert!(q.try_push(ops(), None).is_err(), "closed queue sheds");
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none(), "closed + drained returns None");
    }

    #[test]
    fn ids_are_submission_ordered() {
        let q = JobQueue::new(8);
        let a = q.try_push(ops(), None).unwrap();
        let b = q.try_push(ops(), None).unwrap();
        assert!(b > a);
    }

    #[test]
    fn depth_gauge_tracks_push_pop_and_shed() {
        let gauge = Arc::new(AtomicUsize::new(0));
        let q = JobQueue::with_depth_gauge(2, gauge.clone());
        assert_eq!(q.gauge(), 0);
        q.try_push(ops(), None).unwrap();
        assert_eq!(gauge.load(Ordering::Relaxed), 1, "push publishes depth");
        q.try_push(ops(), None).unwrap();
        assert_eq!(gauge.load(Ordering::Relaxed), 2);
        q.pop();
        assert_eq!(gauge.load(Ordering::Relaxed), 1, "pop publishes depth");
        // regression: fill the queue again, then shed — the gauge must
        // read the full depth, not whatever the last pop saw
        q.try_push(ops(), None).unwrap();
        gauge.store(0, Ordering::Relaxed); // simulate a stale reading
        assert!(q.try_push(ops(), None).is_err(), "queue is full");
        assert_eq!(
            gauge.load(Ordering::Relaxed),
            2,
            "a shed refreshes the gauge to the observed full depth"
        );
    }

    /// Capacity 4, three producers blocked on the full queue: the
    /// consumer signals once per half queue and the producers pass the
    /// signal on, so popping what was queued admits all three — a lost
    /// wake-up hangs a producer (nothing else would ever wake it).
    #[test]
    fn low_water_wakeup_strands_no_producer() {
        let q = Arc::new(JobQueue::new(4));
        for _ in 0..4 {
            q.try_push(ops(), None).unwrap();
        }
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for _ in 0..3 {
            let (q, done_tx) = (q.clone(), done_tx.clone());
            std::thread::spawn(move || done_tx.send(q.push_blocking(ops(), None).is_ok()));
        }
        while q.state.lock().blocked_producers < 3 {
            std::thread::yield_now();
        }
        // 4 -> 3 is above the low-water mark: nobody is woken for it
        assert!(q.pop().is_some());
        assert_eq!(q.depth(), 3);
        for _ in 0..3 {
            assert!(q.pop().is_some());
        }
        for _ in 0..3 {
            let admitted = done_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("a blocked producer was never woken");
            assert!(admitted);
        }
        assert_eq!(q.depth(), 3);
        assert!(q.try_push(ops(), None).is_ok(), "room for a fourth");
        assert!(q.try_push(ops(), None).is_err(), "and shedding beyond it");
    }

    /// A push wakes a consumer parked on the empty queue at once. `pop`
    /// also wakes every 5 ms to look, which would hide a lost wake-up
    /// behind a 5 ms stall, so the fastest of several hand-offs must be
    /// well under that.
    #[test]
    fn a_push_wakes_a_parked_consumer() {
        let q = Arc::new(JobQueue::new(4));
        let fastest = (0..10)
            .map(|_| {
                let consumer = {
                    let q = q.clone();
                    std::thread::spawn(move || {
                        q.pop().expect("a job arrives");
                        Instant::now()
                    })
                };
                // parked: counted under the lock that its wait releases
                while q.state.lock().idle_consumers == 0 {
                    std::thread::yield_now();
                }
                let pushed = Instant::now();
                q.try_push(ops(), None).unwrap();
                consumer.join().unwrap() - pushed
            })
            .min()
            .unwrap();
        assert!(
            fastest < std::time::Duration::from_millis(2),
            "a parked consumer took {fastest:?} to see a push"
        );
    }

    #[test]
    fn backpressure_unblocks_on_pop() {
        let q = std::sync::Arc::new(JobQueue::new(1));
        q.try_push(ops(), None).unwrap();
        let q2 = q.clone();
        let producer = std::thread::spawn(move || q2.push_blocking(ops(), None).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(q.pop().is_some());
        assert!(producer.join().unwrap(), "blocked producer admitted");
    }
}
