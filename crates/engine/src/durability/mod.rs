//! Commit durability: a write-ahead log with group commit, and
//! compensation-based crash recovery.
//!
//! # What gets logged, and when
//!
//! Every executed encyclopedia **mutation** appends one
//! [`EngineRecord::Op`] carrying both the forward operation (redo) and
//! the inverse the compensation machinery captured for it — *while what
//! orders the operation is still held*: its strict-2PL lock, or the
//! install gate of deferred writes. Every two operations that conflict
//! are ordered by one of those, so over them the log order equals the
//! recorded history order (the same contract the trace analyzer's seq
//! claims rely on); operations that commute may land in either order.
//! Live aborts append one [`EngineRecord::Comp`] per executed inverse
//! (still under the attempt's locks or the gate) and close with
//! `AbortDone`; commits append `Commit` before the protocol releases the
//! locks. The log is therefore a faithful serialization of the
//! database's mutation sequence up to the order of commuting operations:
//! **replaying it verbatim reproduces the state of every key**, for
//! every concurrency-control family — pessimistic compensation commits
//! and the optimistic install-certify-commit of deferred writes alike.
//!
//! # Group commit
//!
//! A commit is **acknowledged** (`acknowledge`: counted, traced, added
//! to the acked set, its pages released to eviction) only after its
//! commit record is durable — and nobody waits for that. The worker
//! appends `Commit`, lets the protocol release the locks, **parks** the
//! acknowledgement (`Executing::park`) and goes on to its next job;
//! the one flusher thread (`run_flusher`) gathers parked commits until
//! `max_batch` are parked, or `max_wait` has passed since the oldest
//! one's commit record was appended, or nothing admitted could still
//! join (no job queued and none executing — a lone commit does not wait
//! for followers that cannot exist). Then it sleeps the simulated fsync
//! with no lock held, forces the log, and acknowledges every commit it
//! gathered. A group of one (`max_batch: 1`) takes one parked commit per
//! force. Read-only transactions log nothing and are acknowledged
//! inline by their worker, through the same function.
//!
//! The flusher sleeps `fsync_latency` and waits out `max_wait` as
//! configured, to within the scheduler's wake-up: on Linux it sets its
//! own timer slack to 1 ns when it starts, where the default 50 µs slack
//! made a 50 µs fsync sleep ≈ 105 µs. No other thread's slack changes.
//!
//! The parked list is bounded ([`PARK_BOUND`] batches): a worker that
//! finds it full waits for the flusher to take a batch. The three locks
//! here — parked list, log device, acked set — are never held together.
//!
//! # Recovery
//!
//! [`recover`] scans the durable prefix (stopping at a torn tail),
//! repeats history — forward ops *and* already-logged compensations, in
//! log order, against a fresh database — then finishes the undo of
//! **losers** (transactions with ops but no terminator) from the op
//! records' compensation payloads, in reverse log order: semantic CLRs.
//! The replayed execution is re-recorded and audited, so "recovered
//! state is consistent" is not an assumption but a checked property.

mod recover;

pub use recover::{recover, RecoveryOutcome, ReplayStats};

use crate::cc::{EngineShared, TxnHandle};
use crate::config::DurabilityMode;
use crate::metrics::EngineMetrics;
use crate::queue::QueueGauges;
use crate::trace::TraceEventKind;
use oodb_btree::ops::{write_text, EncOp};
use oodb_btree::EncWrite;
use oodb_core::compensation::Inverse;
use oodb_recovery::engine_log::{EngineOp, EngineRecord};
use oodb_recovery::framing::{FramedLog, FRAME_HEADER};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches of acknowledgements that may be parked before a committing
/// worker waits for the flusher to take one: backpressure, so what is
/// parked stays bounded however slow the device.
pub const PARK_BOUND: usize = 4;

/// Why the flusher stopped gathering and forced the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// `max_batch` commits were parked.
    Full,
    /// `max_wait` had passed since the oldest parked commit's record
    /// was appended.
    Deadline,
    /// Nothing admitted could still join: no job queued, none executing.
    Idle,
}

impl FlushReason {
    /// Short label used in traces and metrics.
    pub fn label(self) -> &'static str {
        match self {
            FlushReason::Full => "full",
            FlushReason::Deadline => "deadline",
            FlushReason::Idle => "idle",
        }
    }
}

/// A logged commit's claim on the device.
pub(crate) struct Logged {
    /// Log offset just past the commit record: the acknowledgement
    /// comes strictly after a force covering it.
    pub end: usize,
    /// The pool clock read after the commit: every data-page write the
    /// commit performed is stamped with an LSN ≤ this and its log
    /// record sits before `end` — once the log is durable through
    /// `end`, those pages are redo-covered and safe to evict.
    pub mark: u64,
    /// When the commit record was appended (`phase_fsync` starts here).
    pub appended_at: Instant,
}

/// What the acknowledgement of one committed attempt needs, handed over
/// by the worker when the attempt is over.
pub(crate) struct Ack {
    pub handle: TxnHandle,
    pub submitted_at: Instant,
    /// False for internal transactions (preload) that stay out of the
    /// workload counters.
    pub record_metrics: bool,
    /// Total grant/certification wait of the committing attempt.
    pub wait: Duration,
    /// Attempt begin to commit decision, minus `wait`.
    pub exec: Duration,
    pub wal_records: u32,
    pub wal_bytes: u64,
    /// `None` when the attempt logged nothing (read-only, or durability
    /// off): nothing to force.
    pub logged: Option<Logged>,
}

impl Ack {
    fn logged(&self) -> &Logged {
        self.logged.as_ref().expect("only logged commits park")
    }
}

/// The one commit acknowledgement: release the commit's pages to
/// eviction, add the job to the acked set, then count and trace it.
/// Called by the worker for a commit with nothing to force, and by the
/// flusher once the log is forced past the commit record — an
/// acknowledged commit can never be lost to a crash.
pub(crate) fn acknowledge(shared: &EngineShared, ack: &Ack) {
    let m = &shared.metrics;
    if let Some(dur) = shared.dur.as_ref() {
        if let Some(logged) = &ack.logged {
            let pool = shared.enc.inner().pool();
            pool.advance_durable_floor(logged.mark);
            if ack.record_metrics {
                m.phase_fsync.record(logged.appended_at.elapsed());
            }
        }
        dur.acked.lock().push(ack.handle.job);
    }
    if ack.wal_records > 0 {
        let (records, bytes) = (ack.wal_records, ack.wal_bytes);
        shared
            .trace
            .emit_txn(&ack.handle, || TraceEventKind::WalAppend { records, bytes });
    }
    if ack.record_metrics {
        m.committed.fetch_add(1, Ordering::Relaxed);
        m.e2e.record(ack.submitted_at.elapsed());
        m.phase_wait.record(ack.wait);
        m.phase_exec.record(ack.exec);
    }
    shared
        .trace
        .emit_txn(&ack.handle, || TraceEventKind::Committed);
}

/// Acknowledgements waiting for the flusher, oldest first.
#[derive(Default)]
struct Parked {
    acks: Vec<Ack>,
    /// The engine is shutting down (workers joined) or the flusher is
    /// gone: nobody waits on the bound any more.
    closed: bool,
}

/// The engine's durability subsystem: one shared write-ahead log and
/// the acknowledgements parked until a flush covers them. Constructed
/// by the engine when [`DurabilityMode`] is not `Off`, together with
/// the flusher thread (`run_flusher`).
pub struct Durability {
    /// Parked commits that end a gather (1: one force per commit).
    batch: usize,
    max_wait: Duration,
    fsync_latency: Duration,
    device: Mutex<FramedLog>,
    parked: Mutex<Parked>,
    /// The flusher waits here for an arrival that changes what it is
    /// waiting for.
    arrived: Condvar,
    /// Workers that found the parked list full wait here.
    room: Condvar,
    /// The admission queue's gauges (its depth, for the idle rule).
    queue: Arc<QueueGauges>,
    /// Jobs being executed: entered and neither parked nor finished.
    /// With the queue's depth, everything admitted that could still park.
    executing: AtomicUsize,
    /// Jobs acknowledged as committed *after* their commit record became
    /// durable — the set a crash is never allowed to lose.
    acked: Mutex<Vec<u64>>,
}

/// One job being executed, as the flusher's idle rule counts it (see
/// [`Durability::enter`]). Dropping it leaves.
pub(crate) struct Executing<'a>(Option<&'a Durability>);

impl Drop for Executing<'_> {
    fn drop(&mut self) {
        if let Some(dur) = self.0.take() {
            dur.leave();
        }
    }
}

impl Executing<'_> {
    /// Park the job's acknowledgement for the flusher and leave: the
    /// caller goes on to its next job. Waits only when [`PARK_BOUND`]
    /// batches are already parked.
    pub(crate) fn park(mut self, ack: Ack, m: &EngineMetrics) {
        let dur = self.0.take().expect("an entered job parks at most once");
        let mut p = dur.parked.lock();
        while p.acks.len() >= PARK_BOUND * dur.batch && !p.closed {
            dur.room.wait(&mut p);
        }
        p.acks.push(ack);
        let parked = p.acks.len();
        m.wal_parked_peak
            .fetch_max(parked as u64, Ordering::Relaxed);
        // left under the list's lock, so the flusher sees the arrival
        // and the departure as one step
        let executing = dur.executing.fetch_sub(1, Ordering::SeqCst) - 1;
        // wake the flusher only for an arrival that changes what it
        // waits for: the first (its deadline starts), the one that
        // fills the batch, the one after which nothing can join
        if parked == 1 || parked >= dur.batch || dur.idle(executing) {
            dur.arrived.notify_one();
        }
    }
}

impl Durability {
    /// A fresh log in the given mode, which must not be `Off` (the
    /// engine simply holds no `Durability` then). `queue` holds the
    /// admission queue's depth, for the idle rule.
    pub(crate) fn new(
        mode: DurabilityMode,
        fsync_latency: Duration,
        queue: Arc<QueueGauges>,
    ) -> Self {
        let DurabilityMode::Group {
            max_batch,
            max_wait,
        } = mode
        else {
            unreachable!("durability off keeps no log");
        };
        Durability {
            batch: max_batch.max(1),
            max_wait,
            fsync_latency,
            device: Mutex::new(FramedLog::default()),
            parked: Mutex::new(Parked::default()),
            arrived: Condvar::new(),
            room: Condvar::new(),
            queue,
            executing: AtomicUsize::new(0),
            acked: Mutex::new(Vec::new()),
        }
    }

    /// Append one record to the volatile tail. **Call only while what
    /// ordered the recorded change is still held** — the strict-2PL lock
    /// or the install gate; that is what makes log order equal history
    /// order over conflicting operations. Returns
    /// `(end_offset, framed_bytes)`; the record is durable once a flush
    /// reaches `end_offset`.
    pub fn append(&self, rec: &EngineRecord, m: &EngineMetrics) -> (usize, usize) {
        let payload = rec.encode();
        let framed = payload.len() + FRAME_HEADER;
        let end = self.device.lock().append(&payload);
        m.wal_appends.fetch_add(1, Ordering::Relaxed);
        m.wal_bytes.fetch_add(framed as u64, Ordering::Relaxed);
        (end, framed)
    }

    /// Count one job as executing until the returned guard parks or
    /// drops: while any is, a gather may still grow.
    pub(crate) fn enter(&self) -> Executing<'_> {
        self.executing.fetch_add(1, Ordering::SeqCst);
        Executing(Some(self))
    }

    /// A job finished without parking (read-only, or aborted). If
    /// it was the last one a gather could wait for, tell the flusher.
    fn leave(&self) {
        let executing = self.executing.fetch_sub(1, Ordering::SeqCst) - 1;
        if self.idle(executing) {
            // having held the list's lock, this is ordered against the
            // flusher's look at `executing`: it waits by now, or has yet
            // to look
            if !self.parked.lock().acks.is_empty() {
                self.arrived.notify_one();
            }
        }
    }

    /// Nothing admitted could still park: none executing, none queued.
    fn idle(&self, executing: usize) -> bool {
        executing == 0 && self.queue.depth.load(Ordering::SeqCst) == 0
    }

    /// Wait until a gather ends, move what it gathered into `batch` and
    /// say why it ended; `None` once the list is closed and empty.
    fn gather(&self, batch: &mut Vec<Ack>) -> Option<FlushReason> {
        let mut p = self.parked.lock();
        let reason = loop {
            let Some(oldest) = p.acks.first().map(|a| a.logged().appended_at) else {
                if p.closed {
                    return None;
                }
                self.arrived.wait(&mut p);
                continue;
            };
            if p.acks.len() >= self.batch {
                break FlushReason::Full;
            }
            if self.idle(self.executing.load(Ordering::SeqCst)) {
                break FlushReason::Idle;
            }
            let left = (oldest + self.max_wait).saturating_duration_since(Instant::now());
            if left.is_zero() {
                break FlushReason::Deadline;
            }
            self.arrived.wait_for(&mut p, left);
        };
        // a group of one forces once per logged commit; a larger group
        // takes everything parked, whatever ended the gather
        let take = if self.batch == 1 { 1 } else { p.acks.len() };
        batch.extend(p.acks.drain(..take));
        self.room.notify_all();
        Some(reason)
    }

    /// One simulated fsync for the gathered `batch`: capture the tail,
    /// sleep the device latency with **no** lock held, then advance the
    /// durable watermark and account the group.
    fn flush(&self, shared: &EngineShared, batch: &[Ack], reason: FlushReason) {
        let upto = self.device.lock().len();
        if self.fsync_latency > Duration::ZERO {
            std::thread::sleep(self.fsync_latency);
        }
        self.device.lock().force_to(upto);
        assert!(
            batch.iter().all(|a| a.logged().end <= upto),
            "a parked commit record lies beyond the force that acknowledges it"
        );
        let m = &shared.metrics;
        m.fsyncs.fetch_add(1, Ordering::Relaxed);
        m.record_group(batch.len());
        m.wal_flush_reasons[reason as usize].fetch_add(1, Ordering::Relaxed);
        shared
            .trace
            .emit_txn(&batch[0].handle, || TraceEventKind::GroupFlush {
                commits: batch.len(),
                durable_bytes: upto as u64,
                reason,
            });
    }

    /// No more commits will park (the workers are joined) or the
    /// flusher is gone: the flusher exits once the list is empty, and
    /// nobody waits on the bound.
    pub(crate) fn close(&self) {
        self.parked.lock().closed = true;
        self.arrived.notify_one();
        self.room.notify_all();
    }

    /// Simulate pulling the plug mid-run: the acknowledged-job set as of
    /// *before* the log snapshot, plus the durable log prefix. Acks only
    /// grow and only after durability, so every returned job's commit
    /// record is inside the returned image — the "never lose an acked
    /// commit" invariant is checkable against any concurrent activity.
    pub fn crash_probe(&self) -> (Vec<u64>, Vec<u8>) {
        let acked = self.acked.lock().clone();
        let image = self.device.lock().crash();
        (acked, image)
    }

    /// The complete log image including the volatile tail — what a
    /// clean shutdown leaves behind.
    pub fn image(&self) -> Vec<u8> {
        self.device.lock().image()
    }

    /// Durable bytes right now.
    pub fn durable_len(&self) -> usize {
        self.device.lock().durable_len()
    }
}

/// The flusher thread's body: gather, force, acknowledge, until the
/// list is closed and everything parked has been acknowledged. However
/// it ends — a panic included — it closes the list on its way out, so
/// no worker is left waiting on the bound.
pub(crate) fn run_flusher(shared: &EngineShared) {
    struct CloseOnExit<'a>(&'a Durability);
    impl Drop for CloseOnExit<'_> {
        fn drop(&mut self) {
            self.0.close();
        }
    }
    let dur = shared
        .dur
        .as_ref()
        .expect("the flusher runs with durability on");
    let _close = CloseOnExit(dur);
    fine_timer_slack();
    let mut batch = Vec::new();
    while let Some(reason) = dur.gather(&mut batch) {
        dur.flush(shared, &batch, reason);
        for ack in batch.drain(..) {
            acknowledge(shared, &ack);
        }
    }
}

/// Ask the kernel to wake the calling thread's timed sleeps within 1 ns
/// of their deadline instead of within the default 50 µs timer slack,
/// so the flusher sleeps `fsync_latency` and `max_wait`, not a slack
/// longer. Only the flusher calls it: the workers' sleeps (retry
/// back-off, the queue's re-check) are not device time. A refusal
/// leaves the default slack, which is slower, never wrong.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
fn fine_timer_slack() {
    // std already links libc; this is its prototype on Linux
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // 0 would restore the default: 1 ns is the finest slack there is
    let slack_ns: std::ffi::c_ulong = 1;
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long by value and
    // touches no memory of this process; it acts on the calling thread
    unsafe {
        prctl(PR_SET_TIMERSLACK, slack_ns);
    }
}

#[cfg(not(target_os = "linux"))]
fn fine_timer_slack() {}

/// The loggable redo form of an executed operation: `None` for reads
/// (never logged). `tag` is the same value-tag `apply_op` wrote with,
/// so the logged text is byte-identical to the installed one.
pub(crate) fn redo_of(op: &EncOp, tag: usize) -> Option<EngineOp> {
    match op {
        EncOp::Insert(k) => Some(EngineOp::Insert {
            key: k.clone(),
            text: write_text(op, tag).expect("insert writes"),
        }),
        EncOp::Change(k) => Some(EngineOp::Change {
            key: k.clone(),
            text: write_text(op, tag).expect("change writes"),
        }),
        EncOp::Delete(k) => Some(EngineOp::Delete { key: k.clone() }),
        EncOp::Search(_) | EncOp::ReadSeq | EncOp::Range(..) => None,
    }
}

/// The loggable form of a captured compensation inverse.
pub(crate) fn comp_of(inv: &Inverse) -> EngineOp {
    match EncWrite::of(inv) {
        EncWrite::Insert { key, text } => EngineOp::Insert {
            key: key.to_owned(),
            text: text.to_owned(),
        },
        EncWrite::Change { key, text } => EngineOp::Change {
            key: key.to_owned(),
            text: text.to_owned(),
        },
        EncWrite::Delete { key } => EngineOp::Delete {
            key: key.to_owned(),
        },
    }
}

/// The write a logged operation replays.
pub(crate) fn write_of(op: &EngineOp) -> EncWrite<'_> {
    match op {
        EngineOp::Insert { key, text } => EncWrite::Insert { key, text },
        EngineOp::Change { key, text } => EncWrite::Change { key, text },
        EngineOp::Delete { key } => EncWrite::Delete { key },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CcKind, Engine, EngineConfig};
    use oodb_core::ids::TxnIdx;
    use oodb_recovery::framing::scan;
    use std::sync::Barrier;

    /// One force per logged commit.
    const GROUP_OF_ONE: DurabilityMode = DurabilityMode::Group {
        max_batch: 1,
        max_wait: Duration::ZERO,
    };

    fn engine(durability: DurabilityMode) -> Engine {
        let cfg = EngineConfig {
            workers: 1,
            durability,
            ..EngineConfig::default()
        };
        Engine::start(cfg, CcKind::Pessimistic)
    }

    /// Append job `job`'s commit record and build the acknowledgement a
    /// worker would park for it.
    fn logged_commit(shared: &EngineShared, job: u64) -> Ack {
        let dur = shared.dur.as_ref().unwrap();
        let (end, bytes) = dur.append(&EngineRecord::Commit { txn: job }, &shared.metrics);
        assert!(bytes > FRAME_HEADER);
        Ack {
            handle: TxnHandle::new(job, 0, TxnIdx(job as u32)),
            submitted_at: Instant::now(),
            record_metrics: true,
            wait: Duration::ZERO,
            exec: Duration::ZERO,
            wal_records: 1,
            wal_bytes: bytes as u64,
            logged: Some(Logged {
                end,
                mark: 0,
                appended_at: Instant::now(),
            }),
        }
    }

    fn wait_committed(shared: &EngineShared, n: u64) {
        while shared.metrics.committed.load(Ordering::Relaxed) < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_parked_commit_is_forced_then_acknowledged() {
        let engine = engine(GROUP_OF_ONE);
        let (shared, dur) = (&engine.shared, engine.shared.dur.as_ref().unwrap());
        let executing = dur.enter();
        let ack = logged_commit(shared, 9);
        let end = ack.logged().end;
        assert_eq!(dur.durable_len(), 0, "volatile until forced");
        assert!(dur.crash_probe().0.is_empty(), "and not acknowledged");
        executing.park(ack, &shared.metrics);
        wait_committed(shared, 1);
        assert_eq!(dur.durable_len(), end);
        // the acked set is read before the log: what it names is durable
        let (acked, image) = dur.crash_probe();
        assert_eq!(acked, vec![9]);
        assert_eq!(scan(&image).payloads.len(), 1);
        let m = engine.shutdown().metrics;
        assert_eq!((m.fsyncs, m.wal_appends, m.wal_parked_peak), (1, 1, 1));
        assert_eq!(m.wal_flush_full, 1, "a group of one: every gather is full");
    }

    #[test]
    fn group_commit_batches_one_fsync_for_concurrent_committers() {
        const N: usize = 4;
        let engine = engine(DurabilityMode::Group {
            max_batch: N,
            max_wait: Duration::from_secs(5),
        });
        let shared = &engine.shared;
        let dur = shared.dur.as_ref().unwrap();
        // all N are executing before the first parks, so the gather can
        // end on neither the idle rule nor (within 5 s) the deadline
        let entered = Barrier::new(N);
        std::thread::scope(|s| {
            for i in 0..N as u64 {
                let entered = &entered;
                s.spawn(move || {
                    let executing = dur.enter();
                    let ack = logged_commit(shared, i);
                    entered.wait();
                    executing.park(ack, &shared.metrics);
                });
            }
        });
        wait_committed(shared, N as u64);
        let (acked, image) = dur.crash_probe();
        assert_eq!(acked.len(), N);
        assert_eq!(scan(&image).payloads.len(), N);
        let m = engine.shutdown().metrics;
        assert_eq!(m.fsyncs, 1, "one flush covers the whole batch");
        assert_eq!(m.group_commits, 1);
        assert_eq!(m.wal_group_buckets[2], 1, "a single group of {N} commits");
        assert_eq!(
            (m.wal_flush_full, m.wal_flush_deadline, m.wal_flush_idle),
            (1, 0, 0)
        );
        assert_eq!(m.wal_parked_peak, N as u64);
    }

    /// A flusher that dies is a reported failure, never a hang: it
    /// closes the list on its way out, so workers stop waiting on the
    /// bound, and `shutdown()` reports the panic.
    #[test]
    #[should_panic(expected = "log flusher must not panic")]
    fn a_dead_flusher_strands_no_worker_and_fails_the_shutdown() {
        let engine = engine(GROUP_OF_ONE);
        let shared = &engine.shared;
        let dur = shared.dur.as_ref().unwrap();
        // a commit record that is not in the log: the flusher's own
        // check of what it acknowledges fails
        let mut ack = logged_commit(shared, 0);
        ack.logged.as_mut().unwrap().end += 1 << 20;
        dur.enter().park(ack, &shared.metrics);
        while !dur.parked.lock().closed {
            std::thread::yield_now();
        }
        for job in 1..=2 * PARK_BOUND as u64 {
            dur.enter()
                .park(logged_commit(shared, job), &shared.metrics);
        }
        engine.shutdown();
    }

    #[test]
    fn redo_and_comp_conversions() {
        let r = redo_of(&EncOp::Insert("K".into()), 3).unwrap();
        assert_eq!(
            r,
            EngineOp::Insert {
                key: "K".into(),
                text: "text for K".into()
            }
        );
        let r = redo_of(&EncOp::Change("K".into()), 3).unwrap();
        assert_eq!(
            r,
            EngineOp::Change {
                key: "K".into(),
                text: "changed by 3".into()
            }
        );
        assert_eq!(
            redo_of(&EncOp::Delete("K".into()), 3),
            Some(EngineOp::Delete { key: "K".into() })
        );
        assert_eq!(redo_of(&EncOp::Search("K".into()), 3), None);
        assert_eq!(redo_of(&EncOp::ReadSeq, 3), None);
    }
}
