//! Commit durability: a write-ahead log with group commit, and
//! compensation-based crash recovery.
//!
//! # What gets logged, and when
//!
//! Every executed encyclopedia **mutation** appends one
//! [`EngineRecord::Op`] carrying both the forward operation (redo) and
//! the inverse the compensation machinery captured for it — *inside the
//! database critical section that executed it*, so the log order equals
//! the recorded history order (the same in-lock seq-claiming contract
//! the trace analyzer relies on). Live aborts append one
//! [`EngineRecord::Comp`] per executed inverse (again inside the
//! critical section) and close with `AbortDone`; commits append
//! `Commit` before the database commit releases the critical section.
//! Because every record is appended under that lock, the log is a
//! faithful serialization of the database's entire mutation sequence:
//! **replaying it verbatim reproduces the exact state trajectory**, for
//! every concurrency-control family — pessimistic compensation commits
//! and MVCC install-certify-commit alike.
//!
//! # Group commit
//!
//! A commit is **acknowledged** (counted, traced, and — in tests — added
//! to the acked set) only after its commit record is durable.
//! [`Durability::wait_durable`] runs a leader/follower batcher: the
//! first committer to arrive becomes the leader, parks until up to
//! `max_batch - 1` followers join (or `max_wait` expires), then issues
//! one simulated fsync for the whole batch. The fsync latency is slept
//! *outside* every lock, so appenders inside the database critical
//! section never block on the device. Read-only transactions log
//! nothing and skip the wait entirely.
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

pub use recover::{recover, recover_traced, RecoveryOutcome, ReplayStats};

use crate::config::DurabilityMode;
use crate::metrics::EngineMetrics;
use crate::trace::{TraceEventKind, Tracer};
use oodb_core::compensation::Inverse;
use oodb_recovery::engine_log::{EngineOp, EngineRecord};
use oodb_recovery::framing::{FramedLog, FRAME_HEADER};
use oodb_sim::exec::write_text;
use oodb_sim::EncOp;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// The log device plus the commit records not yet covered by a flush
/// (their count per flush is the group size).
#[derive(Default)]
struct LogDevice {
    log: FramedLog,
    /// End offsets of appended-but-not-yet-durable commit records.
    pending_commits: Vec<usize>,
}

/// Group-commit coordination state, guarded separately from the device
/// so a sleeping fsync never blocks appenders.
#[derive(Default)]
struct FlushState {
    /// Mirror of the device's durable watermark for cheap wait checks.
    durable: usize,
    /// A leader is currently gathering or flushing.
    flushing: bool,
    /// Committers parked waiting for a flush to cover them.
    waiters: usize,
}

/// The engine's durability subsystem: one shared write-ahead log with a
/// leader/follower group-commit batcher. Constructed by the engine when
/// [`DurabilityMode`] is not `Off`.
pub struct Durability {
    mode: DurabilityMode,
    fsync_latency: Duration,
    device: Mutex<LogDevice>,
    state: Mutex<FlushState>,
    flushed: Condvar,
    /// Jobs acknowledged as committed *after* their commit record became
    /// durable — the set a crash is never allowed to lose.
    acked: Mutex<Vec<u64>>,
}

impl Durability {
    /// A fresh log in the given mode. `mode` must not be `Off` (the
    /// engine simply holds no `Durability` then).
    pub fn new(mode: DurabilityMode, fsync_latency: Duration) -> Self {
        debug_assert!(mode.is_on());
        Durability {
            mode,
            fsync_latency,
            device: Mutex::new(LogDevice::default()),
            state: Mutex::new(FlushState::default()),
            flushed: Condvar::new(),
            acked: Mutex::new(Vec::new()),
        }
    }

    /// The configured flush policy.
    pub fn mode(&self) -> DurabilityMode {
        self.mode
    }

    /// Append one record to the volatile tail. **Call only inside the
    /// database critical section that performed the recorded change** —
    /// that lock is what makes log order equal history order. Returns
    /// `(end_offset, framed_bytes)`; the record is durable once a flush
    /// reaches `end_offset`.
    pub fn append(&self, rec: &EngineRecord, m: &EngineMetrics) -> (usize, usize) {
        let payload = rec.encode();
        let framed = payload.len() + FRAME_HEADER;
        let mut dev = self.device.lock();
        let end = dev.log.append(&payload);
        if matches!(rec, EngineRecord::Commit { .. }) {
            dev.pending_commits.push(end);
        }
        drop(dev);
        m.wal_appends.fetch_add(1, Ordering::Relaxed);
        m.wal_bytes.fetch_add(framed as u64, Ordering::Relaxed);
        (end, framed)
    }

    /// Block until the log is durable through `upto` bytes, batching
    /// with concurrent committers per the flush policy. Call *outside*
    /// the database critical section. `(job, attempt, txn)` stamp the
    /// `group_flush` trace event when this thread ends up leading.
    pub fn wait_durable(
        &self,
        upto: usize,
        m: &EngineMetrics,
        trace: &Tracer,
        job: u64,
        attempt: u32,
        txn: u32,
    ) {
        let (batch, max_wait) = match self.mode {
            DurabilityMode::Off => return,
            DurabilityMode::PerCommit => (1, Duration::ZERO),
            DurabilityMode::Group {
                max_batch,
                max_wait,
            } => (max_batch.max(1), max_wait),
        };
        let mut st = self.state.lock();
        loop {
            // The strict per-commit baseline never takes the covered-by-
            // someone-else's-flush exit: every logged commit forces the
            // device itself, serialized — fsyncs == logged commits, the
            // unbatched baseline experiment B14 measures group commit
            // against.
            if batch > 1 && st.durable >= upto {
                return;
            }
            if st.flushing {
                // Follow: park until the in-flight flush (or a later
                // one) covers us. The notify lets a gathering leader
                // count this arrival toward its batch.
                st.waiters += 1;
                self.flushed.notify_all();
                self.flushed.wait(&mut st);
                st.waiters -= 1;
                continue;
            }
            // Lead: gather followers up to the batch size or deadline,
            // then flush once for everyone.
            st.flushing = true;
            if batch > 1 {
                let deadline = Instant::now() + max_wait;
                while st.waiters + 1 < batch {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    if self.flushed.wait_for(&mut st, deadline - now).timed_out() {
                        break;
                    }
                }
            }
            drop(st);
            let flushed_to = self.flush(m, trace, job, attempt, txn);
            st = self.state.lock();
            st.durable = st.durable.max(flushed_to);
            st.flushing = false;
            self.flushed.notify_all();
            if batch == 1 {
                // our own fsync captured the tail after our append, so
                // upto is covered by construction
                return;
            }
        }
    }

    /// One simulated fsync: capture the tail, sleep the device latency
    /// with **no** lock held, then advance the durable watermark and
    /// account the batch. Returns the new watermark.
    fn flush(&self, m: &EngineMetrics, trace: &Tracer, job: u64, attempt: u32, txn: u32) -> usize {
        let upto = self.device.lock().log.len();
        if self.fsync_latency > Duration::ZERO {
            std::thread::sleep(self.fsync_latency);
        }
        let commits = {
            let mut dev = self.device.lock();
            dev.log.force_to(upto);
            let n = dev.pending_commits.iter().filter(|&&e| e <= upto).count();
            dev.pending_commits.retain(|&e| e > upto);
            n
        };
        m.fsyncs.fetch_add(1, Ordering::Relaxed);
        if commits > 0 {
            m.group_commits.fetch_add(1, Ordering::Relaxed);
            m.wal_group_size.record_value(commits as u64);
        }
        trace.emit(job, attempt, txn, || TraceEventKind::GroupFlush {
            commits,
            durable_bytes: upto as u64,
        });
        upto
    }

    /// Record that `job`'s commit was acknowledged (its commit record is
    /// durable). The crash harness asserts these are never lost.
    pub fn note_acked(&self, job: u64) {
        self.acked.lock().push(job);
    }

    /// Simulate pulling the plug mid-run: the acknowledged-job set as of
    /// *before* the log snapshot, plus the durable log prefix. Acks only
    /// grow and only after durability, so every returned job's commit
    /// record is inside the returned image — the "never lose an acked
    /// commit" invariant is checkable against any concurrent activity.
    pub fn crash_probe(&self) -> (Vec<u64>, Vec<u8>) {
        let acked = self.acked.lock().clone();
        let image = self.device.lock().log.crash();
        (acked, image)
    }

    /// The complete log image including the volatile tail — what a
    /// clean shutdown leaves behind.
    pub fn image(&self) -> Vec<u8> {
        self.device.lock().log.image()
    }

    /// Durable bytes right now.
    pub fn durable_len(&self) -> usize {
        self.device.lock().log.durable_len()
    }
}

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
pub(crate) fn comp_of(inv: &Inverse) -> Option<EngineOp> {
    let key = inv.descriptor.args.first()?.as_key()?.to_owned();
    let text = || {
        inv.descriptor
            .args
            .get(1)
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_owned()
    };
    match inv.descriptor.method.as_str() {
        "insert" => Some(EngineOp::Insert { key, text: text() }),
        "update" => Some(EngineOp::Change { key, text: text() }),
        "delete" => Some(EngineOp::Delete { key }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_recovery::framing::scan;
    use std::sync::{Arc, Barrier};

    fn rec(txn: u64) -> EngineRecord {
        EngineRecord::Commit { txn }
    }

    #[test]
    fn append_then_flush_moves_the_watermark() {
        let d = Durability::new(DurabilityMode::PerCommit, Duration::ZERO);
        let m = EngineMetrics::new();
        let (end, bytes) = d.append(&rec(1), &m);
        assert!(bytes > FRAME_HEADER);
        assert_eq!(d.durable_len(), 0, "volatile until forced");
        d.wait_durable(end, &m, &Tracer::disabled(), 0, 0, 1);
        assert_eq!(d.durable_len(), end);
        assert_eq!(m.fsyncs.load(Ordering::Relaxed), 1);
        assert_eq!(m.wal_appends.load(Ordering::Relaxed), 1);
        let (_, image) = d.crash_probe();
        assert_eq!(scan(&image).payloads.len(), 1);
    }

    #[test]
    fn group_commit_batches_one_fsync_for_concurrent_committers() {
        const N: usize = 4;
        let d = Arc::new(Durability::new(
            DurabilityMode::Group {
                max_batch: N,
                max_wait: Duration::from_secs(5),
            },
            Duration::ZERO,
        ));
        let m = Arc::new(EngineMetrics::new());
        let barrier = Arc::new(Barrier::new(N));
        let handles: Vec<_> = (0..N as u64)
            .map(|i| {
                let (d, m, barrier) = (d.clone(), m.clone(), barrier.clone());
                std::thread::spawn(move || {
                    let (end, _) = d.append(&rec(i), &m);
                    barrier.wait();
                    d.wait_durable(end, &m, &Tracer::disabled(), i, 0, i as u32);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            m.fsyncs.load(Ordering::Relaxed),
            1,
            "one flush covers the whole batch"
        );
        assert_eq!(m.group_commits.load(Ordering::Relaxed), 1);
        assert_eq!(
            m.wal_group_size.bucket_counts()[2],
            1,
            "a single group of {N} commits"
        );
        let (_, image) = d.crash_probe();
        assert_eq!(scan(&image).payloads.len(), N);
    }

    #[test]
    fn acked_jobs_are_snapshotted_before_the_log() {
        let d = Durability::new(DurabilityMode::PerCommit, Duration::ZERO);
        let m = EngineMetrics::new();
        let (end, _) = d.append(&rec(9), &m);
        d.wait_durable(end, &m, &Tracer::disabled(), 9, 0, 9);
        d.note_acked(9);
        let (acked, image) = d.crash_probe();
        assert_eq!(acked, vec![9]);
        assert_eq!(scan(&image).payloads.len(), 1);
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
