//! Bounded admission queue with backpressure and drain-on-shutdown
//! semantics.
//!
//! The hand-off to an idle worker is **polled, then parked**. A worker
//! that has just finished a job and finds the queue empty spins on the
//! depth gauge for up to [`POLL_BUDGET`] before it parks, so in a closed
//! loop with one transaction in flight the next one is taken by a
//! running thread and `pop` makes no syscall. At most one consumer polls
//! at a time (`QueueState::polling`), and a push signals a parked
//! consumer only when the queued jobs outnumber the pollers. A poller
//! leaves its poll only by re-checking the queue under the lock, so a
//! push that counted it as the taker cannot strand a job; and a producer
//! that left its job to a poller while another consumer is parked
//! watches for `HANDOFF_WAIT` (5 µs) that it is taken, and signals the parked
//! consumer if not, so a poller that lost its CPU holds a job up by
//! microseconds, not until it runs again.
//!
//! Polling pays only while the poller has a CPU of its own. Each
//! consumer keeps a [`PollBackoff`]: a poll of its that finds no job
//! makes its next 1, 2, 4, … up to `MAX_POLL_BACKOFF` (256) jobs end in a
//! park without a poll, and one that takes a job halves that count. A
//! worker that shares its CPU with the submitter therefore stops polling
//! and gets the plain park-and-signal hand-off, whose woken thread takes
//! the CPU at once, while a worker on a CPU of its own keeps polling.
//! Nobody polls while a producer waits for room either. The rules are
//! `QueueState`'s and `PollBackoff`'s methods, and the test-only model
//! in this module runs them through every interleaving of two producers
//! and two consumers (DESIGN.md §7, "The admission hand-off").

use oodb_btree::EncOp;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a consumer that has just finished a job polls the empty
/// queue before it parks: about one park-and-wake round trip (6–42 µs on
/// a 2-vCPU KVM guest), the classic bound of competitive spinning —
/// a poll that finds nothing wastes at most what the wake-up it might
/// have saved would have cost. 25, 50 and 100 µs were measured on
/// `read_fit` (EXPERIMENTS.md, "After the polled hand-off").
pub const POLL_BUDGET: Duration = Duration::from_micros(50);

/// The most jobs after which a consumer parks without polling, once its
/// polls keep finding no job: a worker that shares its CPU with the
/// submitter (one CPU, or the other one taken) then wastes one
/// [`POLL_BUDGET`] per 256 jobs, and one whose CPU comes back polls
/// again within 256 jobs. Competitive spinning with an adaptive
/// spin limit (Karlin, Li, Manasse and Owicki, *Empirical studies of
/// competitive spinning for a shared-memory multiprocessor*, SOSP 1991).
const MAX_POLL_BACKOFF: u32 = 256;

/// How long a producer that left its job to a poller, while another
/// consumer is parked, watches for the job to be taken before it
/// signals the parked consumer. A poller on a CPU takes a job in well
/// under a microsecond; one that is not on a CPU (preempted, or sharing
/// its CPU with the producer) would otherwise hold the job until it runs
/// again — milliseconds, a scheduler slice.
const HANDOFF_WAIT: Duration = Duration::from_micros(5);

/// Spins between two looks at the clock during a poll or a hand-off
/// watch (≈ 0.5 µs at the 15–20 ns a spin takes on a 2-vCPU KVM guest).
const SPINS_PER_CLOCK: u32 = 32;

/// How long a parked consumer sleeps before it looks at the queue
/// without a signal. A correct hand-off never needs it;
/// [`QueueGauges::timed_wakeups_with_work`] counts the times it did.
const RECHECK: Duration = Duration::from_millis(5);

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
}

/// What the queue publishes for readers that do not take its lock: the
/// engine's metrics and the log flusher's idle rule.
#[derive(Debug, Default)]
pub struct QueueGauges {
    /// Jobs waiting, refreshed on every push and pop. A poller spins on
    /// it.
    pub depth: AtomicUsize,
    /// Pushes that signalled a parked consumer: ≈ 0 per job in a closed
    /// loop, where a poller takes each job.
    pub consumer_wakes: AtomicU64,
    /// Times a parked consumer's timed re-check found a job queued with
    /// no signal on its way and no producer watching a poller take it —
    /// a job stranded (a lost wake-up, or a poller that lost its CPU
    /// with nobody to stand in), which the re-check hides behind a stall
    /// of up to 5 ms. Always 0.
    pub timed_wakeups_with_work: AtomicU64,
}

/// What a consumer holding the lock does next ([`QueueState::next`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Next {
    /// Take the front job.
    Pop,
    /// Closed and drained: the consumer is done.
    Exit,
    /// Set the polling flag, drop the lock and poll.
    Poll,
    /// Wait on `not_empty`, counted in `idle_consumers`.
    Park,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct QueueState<J = Job> {
    jobs: VecDeque<J>,
    closed: bool,
    /// Producers waiting on `not_full`: only then is it signalled.
    blocked_producers: usize,
    /// Consumers waiting on `not_empty`: only then is it signalled, so a
    /// push to a queue whose consumers are all busy makes no syscall.
    idle_consumers: usize,
    /// A consumer is polling: it will re-check the queue under the lock
    /// before it parks, so it takes one queued job without a signal.
    polling: bool,
    /// Producers watching a poller take the job they left to it
    /// ([`JobQueue::watch_handoff`]).
    watching: usize,
    /// Signals sent to `not_empty` that no returning waiter has
    /// accounted for, at most `idle_consumers`: what tells a timed
    /// re-check that raced a signal from one that found a lost wake-up.
    signals: usize,
}

impl<J> QueueState<J> {
    fn new() -> Self {
        QueueState {
            jobs: VecDeque::new(),
            closed: false,
            blocked_producers: 0,
            idle_consumers: 0,
            polling: false,
            watching: 0,
            signals: 0,
        }
    }

    /// The push rule, asked right after a push: signal a parked consumer
    /// only when the queued jobs outnumber the pollers. A poller takes
    /// one job without a signal; a second job of a burst still wakes a
    /// parked consumer.
    fn wakes_a_consumer(&self) -> bool {
        self.idle_consumers > 0 && self.jobs.len() > self.polling as usize
    }

    /// A job is left to the poller while a consumer is parked that could
    /// take it instead. Asked after a push that signalled nobody (the
    /// producer then watches the hand-off).
    fn leaves_a_job_to_the_poller(&self) -> bool {
        self.polling && self.idle_consumers > 0 && !self.jobs.is_empty()
    }

    /// A producer's watch is over: a job still left to the poller means
    /// the poller is off its CPU, and the producer signals the parked
    /// consumer.
    fn poller_missed(&mut self) -> bool {
        self.watching -= 1;
        self.leaves_a_job_to_the_poller()
    }

    /// What a consumer that holds the lock does next. `may_poll` is true
    /// for a consumer that has just finished a job and whose
    /// [`PollBackoff`] lets it poll: one that has run no job parks at
    /// once, and so does every other while one polls. So does one that
    /// finds a producer waiting for room: the queue has just drained under
    /// load, the producer is on its way to refill it, and a poll would
    /// only take a CPU from it.
    fn next(&self, may_poll: bool) -> Next {
        if !self.jobs.is_empty() {
            Next::Pop
        } else if self.closed {
            Next::Exit
        } else if may_poll && !self.polling && self.blocked_producers == 0 {
            Next::Poll
        } else {
            Next::Park
        }
    }

    /// A poller is back under the lock: it stops polling and decides
    /// again, without polling. This look is the only way a poll ends —
    /// a push that counted the poller as the taker of its job is seen
    /// here.
    fn end_poll(&mut self) -> Next {
        self.polling = false;
        self.next(false)
    }
}

/// One consumer's record of how its polls went, kept by the consumer
/// across its jobs ([`JobQueue::pop_after_job`]). A poll that finds no
/// job means the job's producer could not push within [`POLL_BUDGET`] —
/// most often because it waited for the poller's own CPU — so the
/// consumer's next 1, 2, 4, … up to `MAX_POLL_BACKOFF` (256) jobs end in a
/// park without a poll; a poll that takes a job halves that count.
#[derive(Debug, Default, Clone, PartialEq, Eq, Hash)]
pub struct PollBackoff {
    /// Jobs left that end without a poll.
    skip: u32,
    /// What `skip` is set to after the next poll that finds no job,
    /// halved.
    backoff: u32,
}

impl PollBackoff {
    /// Whether the job just finished may end in a poll; if not, one job
    /// of the back-off is spent.
    fn may_poll(&mut self) -> bool {
        let skipping = self.skip > 0;
        self.skip = self.skip.saturating_sub(1);
        !skipping
    }

    /// A poll ended: it took a job, or found none (`end_poll` said park).
    fn polled(&mut self, took_a_job: bool) {
        if took_a_job {
            self.backoff /= 2;
        } else {
            self.backoff = (self.backoff * 2).clamp(1, MAX_POLL_BACKOFF);
            self.skip = self.backoff;
        }
    }
}

/// A bounded multi-producer multi-consumer queue.
///
/// * [`push_blocking`](JobQueue::push_blocking) waits for space
///   (backpressure) and is woken when the queue has drained to half its
///   capacity, not at every pop: a producer that shares its CPUs with
///   the consumers then refills half a queue per wake-up instead of
///   preempting a consumer once per job;
/// * [`pop`](JobQueue::pop) blocks until work arrives or the queue is
///   closed **and drained** — closing stops admission but lets workers
///   finish everything already accepted;
///   [`pop_after_job`](JobQueue::pop_after_job) polls first (the module
///   doc). A push signals a consumer only if one is parked and no poller
///   will take the job: `Condvar::notify_one` is a syscall even when
///   nobody waits.
pub struct JobQueue {
    state: Mutex<QueueState>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
    next_id: AtomicU64,
    /// Shareable with [`EngineMetrics`](crate::EngineMetrics) via
    /// [`with_gauges`](JobQueue::with_gauges).
    gauges: Arc<QueueGauges>,
}

impl JobQueue {
    /// An empty queue holding at most `capacity` pending jobs.
    pub fn new(capacity: usize) -> Self {
        Self::with_gauges(capacity, Arc::default())
    }

    /// An empty queue publishing its depth and hand-off counts through
    /// `gauges` — pass the engine's `metrics.queue` so the metrics track
    /// every depth change, not just worker pops.
    pub fn with_gauges(capacity: usize, gauges: Arc<QueueGauges>) -> Self {
        JobQueue {
            state: Mutex::new(QueueState::new()),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            next_id: AtomicU64::new(0),
            gauges,
        }
    }

    /// Last published queue depth (lock-free; see
    /// [`QueueGauges::depth`] for freshness guarantees).
    pub fn gauge(&self) -> usize {
        self.gauges.depth.load(Ordering::Relaxed)
    }

    /// Queue `ops` (the caller checked for room) and apply the push
    /// rule. Returns the job id and what to do once the lock is dropped.
    fn enqueue(&self, st: &mut QueueState, ops: Vec<EncOp>) -> (u64, Handoff) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        st.jobs.push_back(Job {
            id,
            ops,
            submitted_at: Instant::now(),
        });
        self.gauges.depth.store(st.jobs.len(), Ordering::Relaxed);
        let handoff = if st.wakes_a_consumer() {
            self.count_signal(st);
            Handoff::Signal
        } else if st.leaves_a_job_to_the_poller() {
            st.watching += 1;
            Handoff::Watch
        } else {
            Handoff::Done
        };
        (id, handoff)
    }

    /// A signal to `not_empty` decided under the lock.
    fn count_signal(&self, st: &mut QueueState) {
        st.signals = (st.signals + 1).min(st.idle_consumers);
        self.gauges.consumer_wakes.fetch_add(1, Ordering::Relaxed);
    }

    /// What a push decided, carried out after the lock is dropped.
    fn hand_off(&self, handoff: Handoff) {
        match handoff {
            Handoff::Signal => self.not_empty.notify_one(),
            Handoff::Watch => self.watch_handoff(),
            Handoff::Done => {}
        }
    }

    /// The job just pushed is left to the poller while a consumer is
    /// parked: watch the depth gauge for [`HANDOFF_WAIT`] to see it
    /// taken, then look under the lock — a job still queued with the
    /// poller still flagged means the poller is not on a CPU, and the
    /// parked consumer is signalled to take it instead. A gauge that
    /// other pushes keep above 0 only makes the watch last its limit.
    fn watch_handoff(&self) {
        spin_until(Instant::now() + HANDOFF_WAIT, || {
            self.gauges.depth.load(Ordering::Relaxed) == 0
        });
        let mut st = self.state.lock();
        let wake = st.poller_missed();
        if wake {
            self.count_signal(&mut st);
        }
        drop(st);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Admit `ops`, blocking until the queue has room (backpressure).
    /// Returns `Err(ops)` only if the queue closes while waiting.
    pub fn push_blocking(&self, ops: Vec<EncOp>) -> Result<u64, Vec<EncOp>> {
        let mut st = self.state.lock();
        while !st.closed && st.jobs.len() >= self.capacity {
            st.blocked_producers += 1;
            self.not_full.wait(&mut st);
            st.blocked_producers -= 1;
        }
        if st.closed {
            return Err(ops);
        }
        let (id, handoff) = self.enqueue(&mut st, ops);
        // one signal per half queue: whoever leaves room passes it on, so
        // blocked producers cannot strand one another
        let pass_on = st.blocked_producers > 0 && st.jobs.len() < self.capacity;
        drop(st);
        if pass_on {
            self.not_full.notify_one();
        }
        self.hand_off(handoff);
        Ok(id)
    }

    /// Take the next job, parking while the queue is open and empty.
    /// Returns `None` once the queue is closed **and** drained. For a
    /// consumer's first pop: one that has run no job never polls.
    pub fn pop(&self) -> Option<Job> {
        self.take(None)
    }

    /// [`pop`](JobQueue::pop) for a consumer that has just finished a
    /// job: if the queue is empty, nobody polls, no producer waits for
    /// room and the consumer's own `backoff` allows it, poll the queue
    /// for up to [`POLL_BUDGET`] before parking.
    pub fn pop_after_job(&self, backoff: &mut PollBackoff) -> Option<Job> {
        self.take(Some(backoff))
    }

    fn take(&self, mut backoff: Option<&mut PollBackoff>) -> Option<Job> {
        let may_poll = backoff.as_deref_mut().is_some_and(PollBackoff::may_poll);
        let mut st = self.state.lock();
        let mut next = st.next(may_poll);
        loop {
            match next {
                Next::Pop => {
                    let job = st.jobs.pop_front().expect("next() saw a job");
                    let depth = st.jobs.len();
                    self.gauges.depth.store(depth, Ordering::Relaxed);
                    // low-water wake-up (capacity 1 or 2: every pop)
                    let wake = st.blocked_producers > 0 && depth <= self.capacity / 2;
                    drop(st);
                    if wake {
                        self.not_full.notify_one();
                    }
                    return Some(job);
                }
                Next::Exit => return None,
                Next::Poll => {
                    st.polling = true;
                    drop(st);
                    spin_until(Instant::now() + POLL_BUDGET, || {
                        self.gauges.depth.load(Ordering::Relaxed) > 0
                    });
                    st = self.state.lock();
                    next = st.end_poll();
                    if let (Some(b), Next::Pop | Next::Park) = (backoff.as_deref_mut(), next) {
                        b.polled(next == Next::Pop);
                    }
                }
                Next::Park => {
                    st.idle_consumers += 1;
                    let timed_out = self.not_empty.wait_for(&mut st, RECHECK).timed_out();
                    st.idle_consumers -= 1;
                    let signalled = st.signals > 0;
                    st.signals = st.signals.saturating_sub(1).min(st.idle_consumers);
                    // a job queued, no signal on its way and no producer
                    // watching the poller take it: stranded
                    if timed_out && !signalled && !st.jobs.is_empty() && st.watching == 0 {
                        self.gauges
                            .timed_wakeups_with_work
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    next = st.next(false);
                }
            }
        }
    }

    /// Stop admitting new work. Already-queued jobs remain poppable;
    /// blocked producers and idle consumers wake up.
    pub fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Number of jobs currently waiting.
    pub fn depth(&self) -> usize {
        self.state.lock().jobs.len()
    }
}

/// What a push leaves to do once its lock is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Handoff {
    /// Signal a parked consumer.
    Signal,
    /// The job is left to the poller: [`JobQueue::watch_handoff`].
    Watch,
    /// Nothing: a consumer will look at the queue without a signal.
    Done,
}

/// Spin until `done` holds or `until` has passed, looking at the clock
/// once per [`SPINS_PER_CLOCK`] turns. Takes no lock.
fn spin_until(until: Instant, done: impl Fn() -> bool) {
    loop {
        for _ in 0..SPINS_PER_CLOCK {
            if done() {
                return;
            }
            std::hint::spin_loop();
        }
        if Instant::now() >= until {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops() -> Vec<EncOp> {
        vec![EncOp::Search("k".into())]
    }

    #[test]
    fn drains_after_close() {
        let q = JobQueue::new(4);
        q.push_blocking(ops()).unwrap();
        q.push_blocking(ops()).unwrap();
        q.close();
        assert!(
            q.push_blocking(ops()).is_err(),
            "a closed queue refuses a push"
        );
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none(), "closed + drained returns None");
    }

    #[test]
    fn ids_are_submission_ordered() {
        let q = JobQueue::new(8);
        let a = q.push_blocking(ops()).unwrap();
        let b = q.push_blocking(ops()).unwrap();
        assert!(b > a);
    }

    #[test]
    fn depth_gauge_tracks_push_and_pop() {
        let gauges = Arc::new(QueueGauges::default());
        let q = JobQueue::with_gauges(2, gauges.clone());
        let depth = || gauges.depth.load(Ordering::Relaxed);
        assert_eq!(q.gauge(), 0);
        q.push_blocking(ops()).unwrap();
        assert_eq!(depth(), 1, "push publishes depth");
        q.push_blocking(ops()).unwrap();
        assert_eq!(depth(), 2);
        q.pop();
        assert_eq!(depth(), 1, "pop publishes depth");
    }

    /// Capacity 4, three producers blocked on the full queue: the
    /// consumer signals once per half queue and the producers pass the
    /// signal on, so popping what was queued admits all three — a lost
    /// wake-up hangs a producer (nothing else would ever wake it).
    #[test]
    fn low_water_wakeup_strands_no_producer() {
        let q = Arc::new(JobQueue::new(4));
        for _ in 0..4 {
            q.push_blocking(ops()).unwrap();
        }
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for _ in 0..3 {
            let (q, done_tx) = (q.clone(), done_tx.clone());
            std::thread::spawn(move || done_tx.send(q.push_blocking(ops()).is_ok()));
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
        assert!(q.push_blocking(ops()).is_ok(), "room for a fourth");
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
                q.push_blocking(ops()).unwrap();
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
        q.push_blocking(ops()).unwrap();
        let q2 = q.clone();
        let producer = std::thread::spawn(move || q2.push_blocking(ops()).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(q.pop().is_some());
        assert!(producer.join().unwrap(), "blocked producer admitted");
    }

    /// A consumer's first pop parks at once: no thread polls before the
    /// engine has run a job (`Engine::start`, `preload`).
    #[test]
    fn a_first_pop_parks_without_polling() {
        let q = Arc::new(JobQueue::new(4));
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || q.pop().is_some())
        };
        loop {
            let st = q.state.lock();
            assert!(!st.polling, "a consumer that ran no job polled");
            if st.idle_consumers == 1 {
                break;
            }
            drop(st);
            std::thread::yield_now();
        }
        q.push_blocking(ops()).unwrap();
        assert!(consumer.join().unwrap());
        assert_eq!(q.gauges.consumer_wakes.load(Ordering::Relaxed), 1);
    }

    /// A consumer that has just run a job polls, and a push made while
    /// it polls signals nobody: the poller takes the job. A round whose
    /// poll ran out of budget before the push was seen parks and is
    /// signalled instead — always, while this thread and the consumer
    /// share one CPU — so rounds repeat, for up to two seconds, until one
    /// pushes into a poll.
    #[test]
    fn a_poller_takes_a_push_without_a_signal() {
        let q = Arc::new(JobQueue::new(4));
        let give_up = Instant::now() + std::time::Duration::from_secs(2);
        let pushed_into_a_poll = std::iter::from_fn(|| (Instant::now() < give_up).then_some(()))
            .any(|()| {
                let consumer = {
                    let q = q.clone();
                    std::thread::spawn(move || {
                        q.pop_after_job(&mut PollBackoff::default()).is_some()
                    })
                };
                let polled = loop {
                    let mut st = q.state.lock();
                    if st.polling {
                        // pushed in the same critical section that saw the flag;
                        // nobody is parked, so nobody watches the hand-off
                        let (_, handoff) = q.enqueue(&mut st, ops());
                        assert_eq!(handoff, Handoff::Done, "a push with a poller signalled");
                        break true;
                    }
                    if st.idle_consumers > 0 {
                        break false;
                    }
                    drop(st);
                    std::hint::spin_loop();
                };
                if !polled {
                    q.push_blocking(ops()).unwrap();
                }
                assert!(consumer.join().unwrap());
                polled
            });
        assert!(pushed_into_a_poll, "no push ever met a polling consumer");
        assert_eq!(q.gauges.timed_wakeups_with_work.load(Ordering::Relaxed), 0);
    }

    /// A poll ends when the queue closes: the poller sees it at its look
    /// under the lock, one [`POLL_BUDGET`] at most.
    #[test]
    fn close_ends_a_poll() {
        let q = Arc::new(JobQueue::new(4));
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || q.pop_after_job(&mut PollBackoff::default()).is_none())
        };
        q.close();
        assert!(consumer.join().unwrap(), "closed and drained");
    }

    /// A consumer that has just run a job polls an empty queue, unless
    /// a producer waits for room: the queue has just drained under load,
    /// the producer is on its way to refill it, and a poll would only
    /// take its CPU.
    #[test]
    fn no_poll_while_a_producer_waits_for_room() {
        let mut st = QueueState::<()>::new();
        assert_eq!(st.next(true), Next::Poll);
        st.blocked_producers = 1;
        assert_eq!(st.next(true), Next::Park);
    }

    /// A job left to a poller that is not on a CPU — here a polling flag
    /// that no thread holds — is taken by the parked consumer, which the
    /// producer signals once its [`HANDOFF_WAIT`] watch sees the job still
    /// queued: well before the parked consumer's 5 ms re-check.
    #[test]
    fn a_poller_off_its_cpu_does_not_hold_a_job() {
        let q = Arc::new(JobQueue::new(4));
        q.state.lock().polling = true;
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                q.pop().expect("a job arrives");
                Instant::now()
            })
        };
        while q.state.lock().idle_consumers == 0 {
            std::thread::yield_now();
        }
        let pushed = Instant::now();
        q.push_blocking(ops()).unwrap();
        let took = consumer.join().unwrap() - pushed;
        assert_eq!(q.gauges.consumer_wakes.load(Ordering::Relaxed), 1);
        assert_eq!(q.gauges.timed_wakeups_with_work.load(Ordering::Relaxed), 0);
        assert!(
            took < RECHECK,
            "the parked consumer took {took:?}: it was never signalled"
        );
        assert_eq!(q.state.lock().watching, 0);
    }

    /// A consumer whose polls find no job backs off: its next 1, 2, 4, …
    /// jobs end without a poll, up to `MAX_POLL_BACKOFF`; a poll that
    /// takes a job halves the back-off.
    #[test]
    fn a_consumer_backs_off_after_empty_polls() {
        let mut b = PollBackoff::default();
        assert!(b.may_poll());
        b.polled(false);
        assert!(!b.may_poll(), "one job without a poll");
        assert!(b.may_poll());
        b.polled(false);
        assert!(!b.may_poll() && !b.may_poll(), "then two");
        assert!(b.may_poll());
        b.polled(true);
        assert_eq!(b.backoff, 1, "a poll that took a job halves it");
        assert!(b.may_poll());
        for _ in 0..20 {
            b.polled(false);
        }
        assert_eq!(b.skip, MAX_POLL_BACKOFF);
    }

    /// A worker parked through a push is signalled even though it has a
    /// back-off to spend: the back-off only chooses between polling and
    /// parking, never between parking and being woken.
    #[test]
    fn a_backed_off_consumer_parks_and_is_woken() {
        let q = Arc::new(JobQueue::new(4));
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut b = PollBackoff::default();
                b.polled(false);
                q.pop_after_job(&mut b).is_some()
            })
        };
        while q.state.lock().idle_consumers == 0 {
            std::thread::yield_now();
        }
        assert!(!q.state.lock().polling, "a backed-off consumer polled");
        q.push_blocking(ops()).unwrap();
        assert!(consumer.join().unwrap());
        assert_eq!(q.gauges.consumer_wakes.load(Ordering::Relaxed), 1);
    }

    /// The hand-off protocol as atomic steps over the queue's own rules
    /// ([`QueueState::wakes_a_consumer`],
    /// [`QueueState::leaves_a_job_to_the_poller`], [`QueueState::next`],
    /// [`QueueState::end_poll`]): two producers push a job each, the
    /// queue closes after both, and two consumers run the worker loop. Every reachable state
    /// is explored, each once, so every interleaving of the steps is
    /// covered. Parked consumers wake only by a signal — the model has
    /// no timer, so a lost wake-up is a stranded job, not a 5 ms stall —
    /// and a poller may take no step for as long as any other thread
    /// can, which is how the model loses a poller's CPU.
    mod model {
        use super::super::{Next, PollBackoff, QueueState};
        use std::collections::HashSet;

        /// Where one consumer is in the worker loop.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        enum Pc {
            /// About to lock and decide, before its first job.
            Fresh,
            /// Polling without the lock. The poll may end at any step (a
            /// job, the close, the budget): it relocks and
            /// [`QueueState::end_poll`]s.
            Polling,
            /// Waiting on `not_empty`, counted in `idle_consumers`.
            Parked,
            /// Signalled out of the wait, not yet back under the lock
            /// (still counted in `idle_consumers`).
            Woken,
            /// Running a job; its next step locks and decides as a
            /// consumer that has just run a job.
            Running,
            Exited,
        }

        /// What a producer does after dropping the lock.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        enum After {
            NotifyOne,
            /// Watch the poller take the job, then look under the lock.
            Watch,
        }

        #[derive(Debug, Clone, PartialEq, Eq, Hash)]
        struct World {
            st: QueueState<()>,
            consumers: [Pc; 2],
            backoffs: [PollBackoff; 2],
            /// Per producer: pushed its job yet, and what it does after
            /// dropping the lock.
            producers: [(bool, Option<After>); 2],
            /// The close's `notify_all`, not yet made.
            closing: bool,
            /// Jobs run, and the jobs to run before every consumer exits
            /// (a warm consumer starts inside a job of an earlier burst).
            ran: u8,
            to_run: u8,
        }

        const JOBS: u8 = 2;

        impl World {
            /// A consumer under the lock acts on what the rules decided.
            fn apply(&mut self, c: usize, next: Next) {
                self.consumers[c] = match next {
                    Next::Pop => {
                        self.st.jobs.pop_front();
                        Pc::Running
                    }
                    Next::Exit => Pc::Exited,
                    Next::Poll => {
                        self.st.polling = true;
                        Pc::Polling
                    }
                    Next::Park => {
                        self.st.idle_consumers += 1;
                        Pc::Parked
                    }
                };
            }

            /// Every state one step away, with the step's name.
            fn successors(&self) -> Vec<(String, World)> {
                let mut out = Vec::new();
                let parked: Vec<usize> = (0..2)
                    .filter(|&c| self.consumers[c] == Pc::Parked)
                    .collect();
                for p in 0..2 {
                    let mut w = self.clone();
                    w.producers[p].1 = None;
                    match self.producers[p] {
                        (false, _) => {
                            w.producers[p].0 = true;
                            w.st.jobs.push_back(());
                            if w.st.wakes_a_consumer() {
                                w.producers[p].1 = Some(After::NotifyOne);
                            } else if w.st.leaves_a_job_to_the_poller() {
                                w.st.watching += 1;
                                w.producers[p].1 = Some(After::Watch);
                            }
                            out.push((format!("P{p} pushes"), w));
                        }
                        (true, Some(After::Watch)) => {
                            if w.st.poller_missed() {
                                w.producers[p].1 = Some(After::NotifyOne);
                            }
                            out.push((format!("P{p}'s watch ends"), w));
                        }
                        (true, Some(_)) if parked.is_empty() => {
                            out.push((format!("P{p}'s notify_one: nobody"), w))
                        }
                        (true, Some(_)) => {
                            for &c in &parked {
                                let mut w = w.clone();
                                w.consumers[c] = Pc::Woken;
                                out.push((format!("P{p}'s notify_one wakes C{c}"), w));
                            }
                        }
                        (true, None) => {}
                    }
                }
                if self.closing {
                    let mut w = self.clone();
                    w.closing = false;
                    for &c in &parked {
                        w.consumers[c] = Pc::Woken;
                    }
                    out.push(("notify_all".into(), w));
                } else if !self.st.closed && self.producers.iter().all(|p| *p == (true, None)) {
                    let mut w = self.clone();
                    w.st.closed = true;
                    w.closing = true;
                    out.push(("close".into(), w));
                }
                for c in 0..2 {
                    let mut w = self.clone();
                    let step = match self.consumers[c] {
                        Pc::Fresh => {
                            let next = w.st.next(false);
                            w.apply(c, next);
                            format!("C{c} decides {next:?}")
                        }
                        Pc::Polling => {
                            let next = w.st.end_poll();
                            if matches!(next, Next::Pop | Next::Park) {
                                w.backoffs[c].polled(next == Next::Pop);
                            }
                            w.apply(c, next);
                            format!("C{c} ends its poll: {next:?}")
                        }
                        Pc::Woken => {
                            w.st.idle_consumers -= 1;
                            let next = w.st.next(false);
                            w.apply(c, next);
                            format!("C{c} relocks: {next:?}")
                        }
                        Pc::Running => {
                            w.ran += 1;
                            let may_poll = w.backoffs[c].may_poll();
                            let next = w.st.next(may_poll);
                            w.apply(c, next);
                            format!("C{c} finishes its job: {next:?}")
                        }
                        Pc::Parked | Pc::Exited => continue,
                    };
                    out.push((step, w));
                }
                out
            }

            /// The safety properties every reachable state keeps.
            fn check(&self) -> Result<(), String> {
                let count = |f: fn(&Pc) -> bool| self.consumers.iter().filter(|p| f(p)).count();
                let pollers = count(|p| matches!(p, Pc::Polling));
                if pollers > 1 {
                    return Err(format!("{pollers} consumers poll at once"));
                }
                if self.st.polling != (pollers == 1) {
                    return Err("the polling flag disagrees with the pollers".into());
                }
                // no job held up by a poller that has lost its CPU: while
                // a consumer sleeps, every queued job has a consumer bound
                // to look at the queue before running another one — one
                // about to lock, one signalled awake, or a signal on its
                // way — and a poller counts only while the producer
                // watches it take the job
                let parked = count(|p| *p == Pc::Parked);
                let awake = count(|p| matches!(p, Pc::Fresh | Pc::Woken))
                    + if self.st.watching > 0 { pollers } else { 0 };
                let in_flight = if self.closing {
                    parked
                } else {
                    self.producers
                        .iter()
                        .filter(|p| p.1 == Some(After::NotifyOne))
                        .count()
                };
                if parked > 0 && self.st.jobs.len() > awake + in_flight {
                    return Err(format!(
                        "{} job(s) queued, {parked} consumer(s) parked, only {} bound to look",
                        self.st.jobs.len(),
                        awake + in_flight
                    ));
                }
                Ok(())
            }

            /// A state with no step left: everything ran and every
            /// consumer left.
            fn check_final(&self) -> Result<(), String> {
                if self.ran == self.to_run && self.consumers.iter().all(|p| *p == Pc::Exited) {
                    Ok(())
                } else {
                    Err(format!(
                        "stuck with {} of {} jobs run",
                        self.ran, self.to_run
                    ))
                }
            }
        }

        fn explore(
            w: World,
            seen: &mut HashSet<World>,
            path: &mut Vec<String>,
            edges: &mut usize,
        ) -> Result<(), String> {
            if !seen.insert(w.clone()) {
                return Ok(());
            }
            let fail = |why: String, path: &[String]| {
                Err(format!("{why}\n  after: {}\n  in: {w:?}", path.join(" → ")))
            };
            if let Err(why) = w.check() {
                return fail(why, path);
            }
            let next = w.successors();
            if next.is_empty() {
                if let Err(why) = w.check_final() {
                    return fail(why, path);
                }
            }
            for (step, n) in next {
                *edges += 1;
                path.push(step);
                explore(n, seen, path, edges)?;
                path.pop();
            }
            Ok(())
        }

        /// The model over every interleaving: at most one poller, no job
        /// stranded beside a parked consumer or left to a poller that
        /// nobody watches, and every run drains and exits. Each consumer
        /// starts fresh (its first pop) or warm (inside a job of an
        /// earlier burst), so a consumer can poll while both jobs are
        /// still to come; warm consumers start with no back-off or just
        /// after a poll that found nothing.
        #[test]
        fn every_interleaving_hands_off_without_a_lost_wakeup() {
            let (mut seen, mut edges) = (HashSet::new(), 0);
            let mut backed_off = PollBackoff::default();
            backed_off.polled(false);
            let starts = [[false, false], [false, true], [true, false], [true, true]]
                .into_iter()
                .flat_map(|warm| [(warm, PollBackoff::default()), (warm, backed_off.clone())]);
            for (warm, backoff) in starts {
                let start = World {
                    backoffs: [backoff.clone(), backoff],
                    st: QueueState::new(),
                    consumers: warm.map(|w| if w { Pc::Running } else { Pc::Fresh }),
                    producers: [(false, None); 2],
                    closing: false,
                    ran: 0,
                    to_run: JOBS + warm.iter().filter(|&&w| w).count() as u8,
                };
                if let Err(e) = explore(start, &mut seen, &mut Vec::new(), &mut edges) {
                    panic!("hand-off model: {e}");
                }
            }
            // a model that stopped exploring early would pass vacuously
            assert!(
                seen.len() > 100,
                "only {} states explored ({edges} steps)",
                seen.len()
            );
        }
    }
}
