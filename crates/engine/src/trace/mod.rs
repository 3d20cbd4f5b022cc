//! Structured transaction tracing.
//!
//! The engine stamps every lifecycle transition — admission, attempt
//! start, operation grants, conflicts, deadlock victims, certification
//! rounds, compensation, commit/abort — with
//! `(job, attempt, txn, worker, seq)` and hands it to the sink
//! ([`RingSink`]): events land in per-worker lanes, each behind its own
//! mutex, and are drained at shutdown into a [`TraceLog`]. With tracing
//! off there is no sink, and the whole subsystem costs one branch per
//! would-be event.
//!
//! Two exporters ([`export::to_jsonl`], [`export::to_chrome_trace`])
//! turn a log into files. Operation events are ordered so that the
//! transaction dependency graph can be rebuilt from the trace alone; the
//! engine's tests do that and compare it with the shutdown audit.

pub mod event;
pub mod export;
pub mod sink;

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub use event::{
    attempt_name, AbortReason, CertOutcome, TraceEvent, TraceEventKind, TXN_NONE, WORKER_EXTERNAL,
};
pub use sink::{RingSink, TraceLog, LANE_CAPACITY};

use crate::cc::TxnHandle;

thread_local! {
    /// The lane this thread's events route to. Workers set their index
    /// at startup; every other thread keeps the external sentinel.
    static WORKER_ID: Cell<u32> = const { Cell::new(WORKER_EXTERNAL) };
}

/// Mark the current thread as pool worker `idx` for lane routing and
/// event stamping. Called once per worker thread at startup.
pub fn set_worker_id(idx: u32) {
    WORKER_ID.with(|w| w.set(idx));
}

/// The current thread's worker id ([`WORKER_EXTERNAL`] off the pool).
pub fn current_worker_id() -> u32 {
    WORKER_ID.with(|w| w.get())
}

/// The engine's tracing front end: owns the sink (none when tracing is
/// off), the global sequence counter, and the epoch all timestamps are
/// relative to.
pub struct Tracer {
    sink: Option<RingSink>,
    seq: AtomicU64,
    epoch: Instant,
}

impl Tracer {
    /// A tracer for a pool of `workers`: with `on`, one lane of
    /// [`LANE_CAPACITY`] events per worker plus the external lane;
    /// without, no sink at all.
    pub fn new(on: bool, workers: usize) -> Self {
        Tracer {
            sink: on.then(|| RingSink::new(workers, LANE_CAPACITY)),
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Whether events are being captured. When false, `emit*` returns
    /// without evaluating the payload closure.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Claim the next global sequence number. Use together with
    /// [`Tracer::emit_at`] to pin an event's position in the trace order
    /// to a point where the operation is ordered against every operation
    /// it conflicts with — under its lock or the install gate (the
    /// operation events do this so `seq` order equals history order over
    /// conflicting operations). Only meaningful when
    /// enabled.
    #[inline]
    pub fn claim_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Emit an event with a freshly claimed sequence number. The payload
    /// closure only runs when tracing is enabled.
    #[inline]
    pub fn emit<F>(&self, job: u64, attempt: u32, txn: u32, kind: F)
    where
        F: FnOnce() -> TraceEventKind,
    {
        if !self.enabled() {
            return;
        }
        let seq = self.claim_seq();
        self.emit_at(seq, job, attempt, txn, kind());
    }

    /// Emit an event stamped for a transaction handle.
    #[inline]
    pub fn emit_txn<F>(&self, handle: &TxnHandle, kind: F)
    where
        F: FnOnce() -> TraceEventKind,
    {
        self.emit(handle.job, handle.attempt, handle.txn.0, kind);
    }

    /// Emit an event at a pre-claimed sequence number (see
    /// [`Tracer::claim_seq`]). No-op when disabled.
    pub fn emit_at(&self, seq: u64, job: u64, attempt: u32, txn: u32, kind: TraceEventKind) {
        let Some(sink) = &self.sink else {
            return;
        };
        let worker = current_worker_id();
        let ev = TraceEvent {
            seq,
            t_ns: self.epoch.elapsed().as_nanos() as u64,
            job,
            attempt,
            txn,
            worker,
            kind,
        };
        sink.record(worker as usize, ev);
    }

    /// Drain the sink. Returns `None` for the disabled tracer so callers
    /// can skip export entirely.
    pub fn drain(&self) -> Option<TraceLog> {
        self.sink.as_ref().map(|sink| sink.drain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A disabled tracer runs no payload closure and claims no seq,
    /// whichever emit is called: with tracing off an event costs the
    /// branch and nothing else.
    #[test]
    fn a_disabled_tracer_runs_no_payload_and_claims_no_seq() {
        let t = Tracer::new(false, 0);
        let handle = TxnHandle::new(1, 0, oodb_core::ids::TxnIdx(3));
        let ran = Cell::new(0);
        let payload = || {
            ran.set(ran.get() + 1);
            TraceEventKind::Committed
        };
        t.emit(0, 0, TXN_NONE, payload);
        t.emit_txn(&handle, payload);
        assert_eq!(ran.get(), 0, "a payload closure ran");
        assert_eq!(t.seq.load(Ordering::Relaxed), 0, "a seq was claimed");
        assert!(t.drain().is_none());
    }

    #[test]
    fn ring_tracer_captures_in_seq_order() {
        let t = Tracer::new(true, 1);
        t.emit(0, 0, 0, || TraceEventKind::AttemptBegin { ops: 2 });
        let pinned = t.claim_seq();
        t.emit(0, 0, 0, || TraceEventKind::Committed);
        t.emit_at(pinned, 0, 0, 0, TraceEventKind::Compensated { ops: 1 });
        let log = t.drain().unwrap();
        let kinds: Vec<&str> = log.events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, vec!["attempt_begin", "compensated", "committed"]);
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn external_thread_stamps_sentinel_worker() {
        let t = Tracer::new(true, 2);
        t.emit(7, 0, TXN_NONE, || TraceEventKind::JobAdmitted { depth: 1 });
        let log = t.drain().unwrap();
        assert_eq!(log.events[0].worker, WORKER_EXTERNAL);
        assert_eq!(log.events[0].job, 7);
    }
}
