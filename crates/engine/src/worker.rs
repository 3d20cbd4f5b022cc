//! The one attempt lifecycle ([`Attempt`]: the paper's transaction tree,
//! which commits or is undone by compensation) and the worker loop that
//! drives it: pop a job, run attempts of it to a commit, or compensate
//! and retry with bounded, jittered exponential backoff.

use crate::cc::{ConcurrencyControl, EngineShared, FinishOutcome, OpGrant, TxnHandle};
use crate::config::EngineConfig;
use crate::durability::{acknowledge, comp_of, redo_of, Ack, Durability, Logged};
use crate::metrics::{EngineMetrics, ShardRoute};
use crate::queue::{Job, JobQueue, PollBackoff};
use crate::trace::{attempt_name, AbortReason, TraceEventKind};
use oodb_btree::ops::{apply_op, EncOp};
use oodb_btree::EncWrite;
use oodb_core::ids::TxnIdx;
use oodb_model::TxnCtx;
use oodb_recovery::engine_log::{EngineOp as WalOp, EngineRecord};
use rand::{Rng, SeedableRng};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// The retry back-off before a job's second attempt; it doubles with
/// each attempt after that.
pub const BASE_BACKOFF: Duration = Duration::from_micros(100);

/// The longest retry back-off, whatever the attempt.
pub const MAX_BACKOFF: Duration = Duration::from_millis(20);

/// The retry delay before re-executing `job` after its `attempt`-th
/// failed attempt: [`BASE_BACKOFF`] doubled per attempt, capped at
/// [`MAX_BACKOFF`], with a **deterministic** jitter drawn from a RNG
/// seeded by `(cfg.seed, job, attempt)` — the same configuration always
/// produces the same backoff schedule, so contended runs are
/// reproducible.
pub fn retry_delay(cfg: &EngineConfig, job: u64, attempt: u32) -> Duration {
    let exp = BASE_BACKOFF
        .saturating_mul(1u32 << attempt.min(16))
        .min(MAX_BACKOFF);
    let half = exp.as_nanos() as u64 / 2;
    if half == 0 {
        return exp;
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(
        cfg.seed ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(attempt) << 48),
    );
    let jitter = rng.gen_range(0..half);
    Duration::from_nanos(half + jitter)
}

/// True for operations that mutate the encyclopedia — the ones the
/// optimistic control defers to the commit point (its reads see
/// committed state when issued).
fn is_write(op: &EncOp) -> bool {
    matches!(op, EncOp::Insert(_) | EncOp::Change(_) | EncOp::Delete(_))
}

/// Per-attempt write-ahead logging. Lazily appends `Begin` at the first
/// effectful operation (read-only attempts leave no trace in the log),
/// then one `Op` record per executed mutation, `Comp` records for
/// live-abort compensation, and a `Commit`/`AbortDone` terminator.
/// **Every append must happen while what ordered the change is still
/// held** — the attempt's strict-2PL locks, or the install gate — the
/// callers uphold this; it is what makes log order equal history order
/// over every pair of conflicting operations.
struct Wal<'a> {
    dur: Option<&'a Durability>,
    txn: u64,
    /// The attempt's recorded name until the `Begin` record takes it;
    /// `None` from the start when durability is off.
    name: Option<String>,
    begun: bool,
    records: u32,
    bytes: u64,
    /// Log offset just past this attempt's latest record.
    end: usize,
}

impl<'a> Wal<'a> {
    fn new(shared: &'a EngineShared, txn: u32, name: Option<String>) -> Self {
        Wal {
            dur: shared.dur.as_ref(),
            txn: u64::from(txn),
            name,
            begun: false,
            records: 0,
            bytes: 0,
            end: 0,
        }
    }

    /// False when durability is off: every log_* call is then a no-op.
    fn active(&self) -> bool {
        self.dur.is_some()
    }

    fn push(&mut self, m: &EngineMetrics, rec: EngineRecord) {
        let d = self.dur.expect("push only called when active");
        if !self.begun {
            self.begun = true;
            let (_, bytes) = d.append(
                &EngineRecord::Begin {
                    txn: self.txn,
                    name: self.name.take().expect("an active log was given the name"),
                },
                m,
            );
            self.records += 1;
            self.bytes += bytes as u64;
        }
        let (end, bytes) = d.append(&rec, m);
        self.end = end;
        self.records += 1;
        self.bytes += bytes as u64;
    }

    /// Log one executed mutation: its redo plus the inverse that undoes it.
    fn log_op(&mut self, m: &EngineMetrics, redo: WalOp, comp: WalOp) {
        let txn = self.txn;
        self.push(m, EngineRecord::Op { txn, redo, comp });
    }

    /// Log one live-abort compensation step (the CLR analog).
    fn log_comp(&mut self, m: &EngineMetrics, op: WalOp) {
        if !self.begun {
            return; // nothing was logged, so there is nothing to undo
        }
        let txn = self.txn;
        let applied = true; // every control is strict: an inverse cannot fail
        self.push(m, EngineRecord::Comp { txn, op, applied });
    }

    /// Log the commit marker; returns the offset the log must be durable
    /// through before the acknowledgement, or `None` when the attempt
    /// logged nothing (read-only: nothing to make durable).
    fn log_commit(&mut self, m: &EngineMetrics) -> Option<usize> {
        if !self.active() || !self.begun {
            return None;
        }
        let txn = self.txn;
        self.push(m, EngineRecord::Commit { txn });
        Some(self.end)
    }

    /// Log that this attempt's compensation completed.
    fn log_abort_done(&mut self, m: &EngineMetrics) {
        if !self.begun {
            return;
        }
        let txn = self.txn;
        self.push(m, EngineRecord::AbortDone { txn });
    }

    /// After the executed `op` (with `hit` = engaged its target), pair
    /// the redo with the inverse `op` just pushed onto `ctx`'s undo stack and
    /// append the `Op` record. Call while what ordered `op`'s execution
    /// is still held.
    fn log_executed(
        &mut self,
        m: &EngineMetrics,
        enc: &oodb_btree::CompensatedEncyclopedia,
        ctx: &TxnCtx,
        op: &EncOp,
        tag: usize,
        hit: bool,
    ) {
        if !self.active() || !hit {
            return; // misses execute as read-only probes: nothing to redo
        }
        let Some(redo) = redo_of(op, tag) else {
            return; // reads are never logged
        };
        let comp = enc
            .last_inverse(ctx)
            .map(comp_of)
            .expect("every effectful mutation captures an inverse");
        self.log_op(m, redo, comp);
    }
}

/// Execute `op` for the attempt: claim its trace seq, run it, and log
/// it. The caller holds what orders `op` against every operation it
/// conflicts with — its strict-2PL lock, or the install gate — so seq
/// order and log order over conflicting operations equal the recorded
/// history order, the invariant recovery and the trace's dependency
/// graph rebuild from. Returns the seq (when tracing) and whether `op`
/// engaged its target.
fn execute(
    shared: &EngineShared,
    ctx: &mut TxnCtx,
    op: &EncOp,
    job: u64,
    wal: &mut Wal<'_>,
) -> (Option<u64>, bool) {
    let tag = job.wrapping_add(1) as usize;
    let seq = shared.trace.enabled().then(|| shared.trace.claim_seq());
    let hit = apply_op(&shared.enc, ctx, op, tag);
    wal.log_executed(&shared.metrics, &shared.enc, ctx, op, tag, hit);
    (seq, hit)
}

/// Emit the `OpGranted` event of an operation executed at `seq`.
fn trace_granted(
    shared: &EngineShared,
    handle: &TxnHandle,
    seq: u64,
    op: EncOp,
    wait_ns: u64,
    hit: bool,
) {
    shared.trace.emit_at(
        seq,
        handle.job,
        handle.attempt,
        handle.txn.0,
        TraceEventKind::OpGranted {
            shard: ShardRoute::of(&op, shared.metrics.lanes()),
            op,
            wait_ns,
            hit,
        },
    );
}

/// Compensate the completed operations of `ctx` in reverse order, as
/// compensation transaction `C(<base>a<attempt>)`, while what ordered
/// them is still held: the attempt's strict-2PL locks, or the install
/// gate its deferred writes went in under. Every inverse is logged (the
/// CLR analog, so recovery resumes the undo exactly here) and, when
/// tracing, traced with a seq claimed under the same order — the
/// compensation's membership changes interleave with `OpGranted` events
/// exactly where the history put them. All controls are strict, so an
/// inverse that fails is an engine bug.
fn compensate(
    shared: &EngineShared,
    cc: &dyn ConcurrencyControl,
    ctx: TxnCtx,
    handle: &TxnHandle,
    wal: &mut Wal<'_>,
) {
    let name = if shared.rec.is_enabled() {
        format!("C({}a{})", attempt_name(handle.job, 0), handle.attempt)
    } else {
        String::new()
    };
    let mut comp = shared.rec.begin_txn(name);
    cc.retire(shared, TxnIdx(comp.txn_number()));
    let report = shared.enc.abort(ctx, &mut comp);
    assert!(
        report.failed.is_empty(),
        "compensation under a strict control cannot fail: {:?}",
        report.failed
    );
    if wal.active() {
        for inv in &report.compensated {
            wal.log_comp(&shared.metrics, comp_of(inv));
        }
        wal.log_abort_done(&shared.metrics);
    }
    if shared.trace.enabled() {
        for inv in &report.compensated {
            let op = EncWrite::of(inv).op();
            shared
                .trace
                .emit_txn(handle, || TraceEventKind::CompensationOp { op, hit: true });
        }
    }
}

/// One attempt of a job, run one step at a time: the only way the engine
/// runs a transaction.
///
/// * [`begin`](Self::begin) records the root and builds the handle and
///   the log cursor;
/// * [`step`](Self::step) runs one operation: grant, count it on its
///   metric lanes, execute or defer, then the fault check;
/// * [`finish`](Self::finish) is the commit point: install, certify, log,
///   then commit, [`after_commit`](ConcurrencyControl::after_commit) and
///   count the commit on its lanes, or compensate;
/// * [`abort`](Self::abort) compensates an attempt that stopped before
///   its commit point and calls
///   [`after_abort`](ConcurrencyControl::after_abort).
///
/// The worker drives it to the end; a test may stop between any two
/// steps and look at the control, the record or the log.
pub struct Attempt<'a> {
    shared: &'a EngineShared,
    cc: &'a dyn ConcurrencyControl,
    handle: TxnHandle,
    ctx: TxnCtx,
    wal: Wal<'a>,
    /// The control defers writes to the commit point; reads see
    /// committed state when issued (not `deferred`).
    buffering: bool,
    deferred: Vec<EncOp>,
    ops_done: usize,
    /// The metric lanes its granted operations routed to, one bit each.
    lanes: u64,
    /// The grant waits so far, split out of execution time when (and
    /// only when) the attempt commits.
    wait: Duration,
    /// Taken before the root is staged, which is execution time.
    start: Instant,
    submitted_at: Instant,
    /// False for internal transactions (preload) that stay out of the
    /// workload counters.
    record_metrics: bool,
}

/// A committed attempt whose acknowledgement is still to be made: the
/// worker parks it with the log flusher or makes it at once.
pub struct Committed(Ack);

/// A compensated attempt: everything it held is released.
pub struct Aborted {
    /// The attempt's handle.
    pub handle: TxnHandle,
    /// Why it aborted.
    pub(crate) reason: AbortReason,
}

impl<'a> Attempt<'a> {
    /// Begin attempt `attempt` of job `job` under `cc`: record its root
    /// (named only when the record or the log reads the name) and build
    /// its handle and log cursor.
    pub fn begin(
        shared: &'a EngineShared,
        cc: &'a dyn ConcurrencyControl,
        job: u64,
        attempt: u32,
    ) -> Self {
        let start = Instant::now();
        // the record takes the name, the log gets a copy
        let name = if shared.rec.is_enabled() || shared.dur.is_some() {
            attempt_name(job, attempt)
        } else {
            String::new()
        };
        let wal_name = shared.dur.is_some().then(|| name.clone());
        let ctx = shared.rec.begin_txn(name);
        let txn = ctx.txn_number();
        Attempt {
            shared,
            cc,
            handle: TxnHandle::new(job, attempt, TxnIdx(txn)),
            ctx,
            wal: Wal::new(shared, txn, wal_name),
            buffering: cc.buffers_writes(),
            deferred: Vec::new(),
            ops_done: 0,
            lanes: 0,
            wait: Duration::ZERO,
            start,
            submitted_at: start,
            record_metrics: true,
        }
    }

    /// The attempt's identity under the control.
    pub fn handle(&self) -> &TxnHandle {
        &self.handle
    }

    /// Operations granted so far.
    pub fn ops_done(&self) -> usize {
        self.ops_done
    }

    /// Run `op`: ask the control for the grant, count it on its metric
    /// lanes (the preload's too), then execute it — or, for a write the
    /// control defers, keep it for the commit point — and consult the
    /// armed faults ([`EngineShared::inject_fault_after`]). `Err` names
    /// why the attempt must [`abort`](Self::abort) now.
    pub fn step(&mut self, op: &EncOp) -> Result<(), AbortReason> {
        let (shared, cc) = (self.shared, self.cc);
        let t0 = Instant::now();
        let grant = cc.before_op(shared, &self.handle, op);
        let waited = t0.elapsed();
        self.wait += waited;
        if self.record_metrics {
            shared.metrics.lock_wait.record(waited);
        }
        if grant == OpGrant::AbortVictim {
            return Err(AbortReason::Victim);
        }
        self.lanes |= shared.metrics.shard_op(op);
        if self.buffering && is_write(op) {
            // deferred: installs at the commit point, under the same gate
            // as certification
            self.deferred.push(op.clone());
        } else {
            // under strict 2PL the granted lock orders the op; under
            // deferred writes it is a read, ordered against every commit
            // point by the gate held shared
            let gate = self.buffering.then(|| shared.gate.read());
            let (seq, hit) = execute(shared, &mut self.ctx, op, self.handle.job, &mut self.wal);
            drop(gate);
            if let Some(seq) = seq {
                let wait_ns = waited.as_nanos() as u64;
                trace_granted(shared, &self.handle, seq, op.clone(), wait_ns, hit);
            }
        }
        self.ops_done += 1;
        // fault injection: abort mid-flight exactly as a real failure
        // would, compensating everything done so far
        if shared.faults.fires(&self.handle, self.ops_done) {
            return Err(AbortReason::Injected);
        }
        Ok(())
    }

    /// The commit point of both controls: install the attempt's deferred
    /// writes, ask the control, then log the commit, commit and release —
    /// or compensate and release. A control that defers writes does all
    /// of it but the release under the install gate held exclusive, so
    /// its readers, which hold the gate shared, see the batch whole or not
    /// at all; its reads already ran on committed state, so nothing
    /// uncommitted was ever visible — no commit dependency to wait for,
    /// nothing to cascade. Under strict 2PL nothing is deferred and the
    /// attempt's locks, still held, order all of it; they are released
    /// only after the commit record is appended, so whoever observes this
    /// transaction logs after it (the durable prefix never keeps an
    /// observer while losing it).
    pub fn finish(self) -> Result<Committed, Aborted> {
        let Attempt {
            shared,
            cc,
            handle,
            mut ctx,
            mut wal,
            buffering,
            deferred,
            ops_done,
            lanes,
            wait,
            start,
            submitted_at,
            record_metrics,
        } = self;
        let gate = buffering.then(|| shared.gate.write());
        let mut installs = Vec::new();
        for op in deferred {
            let (seq, hit) = execute(shared, &mut ctx, &op, handle.job, &mut wal);
            if let Some(seq) = seq {
                installs.push((seq, op, hit));
            }
        }
        let committed = cc.try_finish(shared, &handle) == FinishOutcome::Committed;
        let end = if committed {
            let end = wal.log_commit(&shared.metrics);
            shared.enc.commit(ctx);
            end
        } else {
            compensate(shared, cc, ctx, &handle, &mut wal);
            None
        };
        drop(gate);
        for (seq, op, hit) in installs {
            trace_granted(shared, &handle, seq, op, 0, hit);
        }
        if !committed {
            let reason = AbortReason::Validation;
            return Err(released(shared, cc, handle, &wal, ops_done, reason));
        }
        let appended_at = Instant::now();
        cc.after_commit(shared, &handle);
        shared.metrics.commit_lanes(lanes);
        Ok(Committed(Ack {
            handle,
            submitted_at,
            record_metrics,
            wait,
            exec: start.elapsed().saturating_sub(wait),
            wal_records: wal.records,
            wal_bytes: wal.bytes,
            logged: end.map(|end| Logged {
                end,
                mark: shared.enc.inner().pool().current_lsn(),
                appended_at,
            }),
        }))
    }

    /// Compensate an attempt that stopped before its commit point, under
    /// the locks it still holds (its deferred writes, if any, were never
    /// installed), and release it.
    pub fn abort(self, reason: AbortReason) -> Aborted {
        let Attempt {
            shared,
            cc,
            handle,
            ctx,
            mut wal,
            ops_done,
            ..
        } = self;
        compensate(shared, cc, ctx, &handle, &mut wal);
        released(shared, cc, handle, &wal, ops_done, reason)
    }
}

/// The tail of every abort, once the compensation is done: trace it and
/// the log records, then let the control release the attempt.
fn released(
    shared: &EngineShared,
    cc: &dyn ConcurrencyControl,
    handle: TxnHandle,
    wal: &Wal<'_>,
    ops_done: usize,
    reason: AbortReason,
) -> Aborted {
    shared
        .trace
        .emit_txn(&handle, || TraceEventKind::Compensated { ops: ops_done });
    if wal.records > 0 {
        let (records, bytes) = (wal.records, wal.bytes);
        shared
            .trace
            .emit_txn(&handle, || TraceEventKind::WalAppend { records, bytes });
    }
    cc.after_abort(shared, &handle);
    Aborted { handle, reason }
}

/// Build the record of what this attempt (and anybody else) staged, if
/// no other thread is doing so. Called once the attempt is over — the
/// commit's acknowledgement made or parked, or the abort's locks
/// released — so the work is on the worker's time and nobody waits
/// behind it. `as_phase` times it into `phase_drain` (a per-commit
/// timer like its siblings), which with `phase_exec` is what the worker
/// spent on the commit. Nothing to do when nothing is recorded.
fn drain_record(shared: &EngineShared, as_phase: bool) {
    if !shared.rec.is_enabled() {
        return;
    }
    let t0 = Instant::now();
    shared.rec.drain_if_free();
    if as_phase {
        shared.metrics.phase_drain.record(t0.elapsed());
    }
}

/// Worker body: drain the queue until it is closed and empty.
pub(crate) fn run_worker(
    index: u32,
    shared: &EngineShared,
    queue: &JobQueue,
    cc: &dyn ConcurrencyControl,
    cfg: &EngineConfig,
) {
    // route this thread's trace events to its own ring lane
    crate::trace::set_worker_id(index);
    // queue depth is published by the queue itself on every change; a
    // worker that has run no job parks at once, one that just finished
    // one polls before it parks, unless its polls keep finding nothing
    let mut backoff = PollBackoff::default();
    let mut next = queue.pop();
    while let Some(job) = next {
        // queue-wait phase: submission to this pop (recorded once per
        // job; retries never re-enter the queue)
        shared
            .metrics
            .phase_queue
            .record(job.submitted_at.elapsed());
        process_job(shared, cc, cfg, &job, true);
        next = queue.pop_after_job(&mut backoff);
    }
}

/// Execute one job to completion: commit, or retry exhaustion.
/// `record_metrics` is false for internal transactions (preload) that
/// should not distort the workload counters.
pub(crate) fn process_job(
    shared: &EngineShared,
    cc: &dyn ConcurrencyControl,
    cfg: &EngineConfig,
    job: &Job,
    record_metrics: bool,
) {
    // until this job parks its acknowledgement or is over, a gathering
    // flusher may still be joined by it
    let executing = shared.dur.as_ref().map(Durability::enter);
    for attempt in 0..=cfg.max_retries {
        let mut a = Attempt::begin(shared, cc, job.id, attempt);
        (a.submitted_at, a.record_metrics) = (job.submitted_at, record_metrics);
        shared
            .trace
            .emit_txn(&a.handle, || TraceEventKind::AttemptBegin {
                ops: job.ops.len(),
            });
        let ended = match job.ops.iter().find_map(|op| a.step(op).err()) {
            Some(reason) => Err(a.abort(reason)),
            None => a.finish(),
        };
        let aborted = match ended {
            Ok(Committed(ack)) => {
                // the locks are gone and the commit record is in the log
                // before anything that observed this transaction (the
                // prefix property), so nothing in the database waits for
                // the fsync — and neither does this worker
                match executing {
                    Some(executing) if ack.logged.is_some() => executing.park(ack, &shared.metrics),
                    // nothing to force: read-only, or durability off
                    _ => acknowledge(shared, &ack),
                }
                drain_record(shared, record_metrics);
                return;
            }
            Err(aborted) => aborted,
        };
        drain_record(shared, false);
        if record_metrics {
            shared.metrics.retries.fetch_add(1, Ordering::Relaxed);
        }
        let last = attempt == cfg.max_retries;
        shared
            .trace
            .emit_txn(&aborted.handle, || TraceEventKind::Aborted {
                reason: aborted.reason,
                last,
            });

        if last {
            if record_metrics {
                shared.metrics.aborted.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        std::thread::sleep(retry_delay(cfg, job.id, attempt));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic() {
        let cfg = EngineConfig {
            seed: 42,
            ..EngineConfig::default()
        };
        for job in 0..20u64 {
            for attempt in 0..6u32 {
                assert_eq!(
                    retry_delay(&cfg, job, attempt),
                    retry_delay(&cfg, job, attempt),
                    "same (seed, job, attempt) must give the same delay"
                );
            }
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        let cfg = EngineConfig {
            seed: 7,
            ..EngineConfig::default()
        };
        // the delay lies in [exp/2, exp) for the capped exponential,
        // which reaches the cap at attempt 8
        for attempt in 0..10u32 {
            let d = retry_delay(&cfg, 3, attempt);
            let exp = BASE_BACKOFF
                .saturating_mul(1u32 << attempt.min(16))
                .min(MAX_BACKOFF);
            assert!(
                d >= exp / 2 && d < exp,
                "attempt {attempt}: {d:?} vs {exp:?}"
            );
        }
    }

    #[test]
    fn different_jobs_get_different_jitter() {
        let cfg = EngineConfig {
            seed: 9,
            ..EngineConfig::default()
        };
        let delays: Vec<Duration> = (0..16).map(|j| retry_delay(&cfg, j, 3)).collect();
        let distinct: std::collections::HashSet<_> = delays.iter().collect();
        assert!(distinct.len() > 1, "jitter must split symmetric retries");
    }
}
