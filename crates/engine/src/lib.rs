//! # oodb-engine — worker-pool transaction processing
//!
//! A multi-worker transaction engine over the encyclopedia database,
//! with **pluggable concurrency control**: the same worker loop runs the
//! paper's semantic strict 2PL ([`LockingCc`]) or optimistic
//! certification against Definition 16 ([`OptimisticCc`]) — plus the
//! page-granularity ablation — behind one [`ConcurrencyControl`] trait.
//!
//! Around that loop sits the operational shell:
//!
//! * a **bounded admission queue** — [`Engine::submit`] sheds when full,
//!   [`Engine::submit_blocking`] applies backpressure;
//! * **bounded retries** with capped exponential backoff and
//!   deterministic seeded jitter ([`worker::retry_delay`]);
//! * per-transaction **deadlines**;
//! * **graceful shutdown** draining admitted work;
//! * [`EngineMetrics`] — throughput, commit/abort/retry/shed counts,
//!   queue depth, and lock-wait / end-to-end latency percentiles from
//!   fixed-bucket histograms;
//! * an optional shutdown **audit** running every serializability
//!   checker over the recorded execution. Without it, strict 2PL records
//!   nothing: no checker would read the record
//!   ([`ConcurrencyControl::reads_record`]).
//!
//! ```
//! use oodb_engine::{CcKind, Engine, EngineConfig};
//! use oodb_sim::{encyclopedia_workload, EncMix, EncWorkloadConfig, Skew};
//!
//! let w = encyclopedia_workload(&EncWorkloadConfig {
//!     txns: 4, ops_per_txn: 3, key_space: 16, preload: 8,
//!     mix: EncMix::update_heavy(), skew: Skew::Uniform, seed: 1,
//! });
//! let out = oodb_engine::run_workload(&EngineConfig::default(), CcKind::Pessimistic, &w);
//! assert_eq!(out.metrics.committed, 4);
//! assert!(out.audit.unwrap().report.oo_decentralized.is_ok());
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod cc;
pub mod config;
pub mod durability;
pub mod metrics;
pub mod queue;
pub mod trace;
pub mod worker;

pub use audit::{audit, AuditOutput, AuditScope};
pub use cc::{
    ConcurrencyControl, EngineShared, FinishOutcome, LockingCc, OpGrant, OptimisticCc, TxnHandle,
    STRIPES,
};
pub use config::{CcKind, DurabilityMode, EngineConfig, TraceMode};
pub use durability::{recover, Durability, RecoveryOutcome, ReplayStats};
pub use metrics::{
    shard_of_key, EngineMetrics, Histogram, MetricsSnapshot, Quantiles, ShardLane,
    ShardLaneSnapshot, ShardRoute, ValueQuantiles,
};
pub use queue::{Job, JobQueue, PollBackoff, QueueGauges};
pub use trace::{RingSink, TraceEvent, TraceEventKind, TraceLog, Tracer};
pub use worker::retry_delay;

use metrics::Distributions;
use oodb_btree::{EncOp, EncWorkload};
use oodb_storage::PoolStats;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How old the sampled fields of [`Engine::metrics`] may be: the
/// `pool_*` counters and every field read off a [`Histogram`] (the
/// latency and phase quantiles, `wal_group_*` and `wal_commits_acked`).
/// Reading them touches cache lines the workers write on every
/// transaction: the pool keeps its hit counts in the frames the workers
/// latch, and a histogram's buckets take each sample. A caller that polls
/// `metrics()` while it waits for a commit (the benchmark's serial phase
/// does) would slow the very transaction it waits for: `read_fit`
/// `txn_p50_us` went from 22–26 µs to 30–31 µs when every poll summed the
/// frames, and from 7.8 µs to 9.8 µs (median of ten runs on 2 vCPUs) when
/// every poll froze the eight histograms, 0.7–1 µs a call. The counters
/// stay live. [`Engine::shutdown`] reads everything exactly.
const SAMPLE_PERIOD: Duration = Duration::from_millis(10);

/// A running engine: a worker pool consuming the admission queue.
pub struct Engine {
    shared: Arc<EngineShared>,
    queue: Arc<JobQueue>,
    cc: Arc<dyn ConcurrencyControl>,
    cfg: EngineConfig,
    workers: Vec<JoinHandle<()>>,
    /// The log flusher (see [`durability`]); `None` with durability off.
    flusher: Option<JoinHandle<()>>,
    /// The buffer pool's counters and the histogram-backed fields as last
    /// read by [`Engine::metrics`], and when.
    sample: Mutex<(Instant, PoolStats, Distributions)>,
}

/// Everything a finished run produced.
pub struct EngineOutput {
    /// Final counter/latency snapshot.
    pub metrics: MetricsSnapshot,
    /// Serializability verdicts (when [`EngineConfig::audit`] is set).
    pub audit: Option<AuditOutput>,
    /// Every `(key, text)` pair present in the database after the drain,
    /// in key order — the observable final object state (read after the
    /// audit snapshot, so the read itself is never audited).
    pub final_state: Vec<(String, String)>,
    /// The captured trace, when [`EngineConfig::trace`] enabled one
    /// (drained after the workers joined; export with
    /// [`trace::export::to_jsonl`] / [`trace::export::to_chrome_trace`]).
    pub trace: Option<TraceLog>,
    /// The complete write-ahead log image, when
    /// [`EngineConfig::durability`] enabled one — replayable with
    /// [`durability::recover`] into an equivalent database.
    pub wal: Option<Vec<u8>>,
    /// The concurrency-control strategy that ran.
    pub cc_name: &'static str,
}

impl Engine {
    /// Start an engine with one of the built-in strategies.
    pub fn start(cfg: EngineConfig, kind: CcKind) -> Engine {
        let cc: Arc<dyn ConcurrencyControl> = match kind {
            CcKind::Pessimistic => Arc::new(LockingCc::semantic()),
            CcKind::PessimisticPage => Arc::new(LockingCc::page_level()),
            CcKind::Optimistic => Arc::new(OptimisticCc::new()),
        };
        Self::start_with(cfg, cc)
    }

    /// Start an engine with a custom [`ConcurrencyControl`], one a test
    /// keeps a handle to, to read its counters. As with [`Engine::start`],
    /// [`EngineConfig::shards`] selects the metric lanes, which no
    /// control decides by.
    pub fn start_with(cfg: EngineConfig, cc: Arc<dyn ConcurrencyControl>) -> Engine {
        let shared = Arc::new(EngineShared::new(&cfg, cc.as_ref()));
        let queue = Arc::new(JobQueue::with_gauges(
            cfg.queue_capacity,
            shared.metrics.queue.clone(),
        ));
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                let queue = queue.clone();
                let cc = cc.clone();
                let cfg = cfg.clone();
                std::thread::Builder::new()
                    .name(format!("oodb-worker-{i}"))
                    .spawn(move || worker::run_worker(i as u32, &shared, &queue, cc.as_ref(), &cfg))
                    .expect("spawn engine worker")
            })
            .collect();
        let flusher = shared.dur.is_some().then(|| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("oodb-flusher".into())
                .spawn(move || durability::run_flusher(&shared))
                .expect("spawn log flusher")
        });
        let sample = Mutex::new(sample(&shared));
        Engine {
            shared,
            queue,
            cc,
            cfg,
            workers,
            flusher,
            sample,
        }
    }

    /// Populate the database before the workload, running the inserts as
    /// one regular (certified/locked, but uncontended) transaction on
    /// the calling thread. Not counted in the metrics. Under durability
    /// its acknowledgement is parked like any commit's: the caller does
    /// not wait for the fsync.
    pub fn preload(&self, keys: &[String]) {
        if keys.is_empty() {
            return;
        }
        let job = Job {
            id: u64::MAX, // reserved id; never collides with submissions
            ops: keys.iter().map(|k| EncOp::Insert(k.clone())).collect(),
            submitted_at: std::time::Instant::now(),
            deadline: None,
        };
        worker::process_job(&self.shared, self.cc.as_ref(), &self.cfg, &job, false);
    }

    /// Arm a mid-flight abort: attempt `attempt` of job `job` (jobs are
    /// numbered from 0 in submission order) aborts once `after_ops` of
    /// its operations have been granted, then compensates and retries as
    /// after a real failure (test hook).
    pub fn inject_fault_after(&self, job: u64, attempt: u32, after_ops: usize) {
        self.shared.inject_fault_after(job, attempt, after_ops);
    }

    /// Admit a transaction, shedding (`Err`, returning the operations)
    /// when the queue is full.
    pub fn submit(&self, ops: Vec<EncOp>) -> Result<u64, Vec<EncOp>> {
        match self.queue.try_push(ops, self.cfg.txn_deadline) {
            Ok(id) => {
                self.note_admitted(id);
                Ok(id)
            }
            Err(ops) => {
                self.shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
                let depth = self.queue.gauge();
                self.shared
                    .trace
                    .emit(u64::MAX, 0, trace::TXN_NONE, || TraceEventKind::JobShed {
                        depth,
                    });
                Err(ops)
            }
        }
    }

    /// Admit a transaction, blocking for queue space (backpressure).
    /// `Err` only if the engine is shutting down.
    pub fn submit_blocking(&self, ops: Vec<EncOp>) -> Result<u64, Vec<EncOp>> {
        let r = self.queue.push_blocking(ops, self.cfg.txn_deadline);
        if let Ok(id) = r {
            self.note_admitted(id);
        }
        r
    }

    fn note_admitted(&self, id: u64) {
        self.shared
            .metrics
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        // queue depth is published by the queue itself on every change
        let depth = self.queue.gauge();
        self.shared
            .trace
            .emit(id, 0, trace::TXN_NONE, || TraceEventKind::JobAdmitted {
                depth,
            });
    }

    /// Jobs that have left the engine — committed, aborted or past
    /// their deadline — from three counters, without building a
    /// [`MetricsSnapshot`]: what a client that keeps one transaction in
    /// flight waits on.
    pub fn finished(&self) -> u64 {
        let m = &self.shared.metrics;
        m.committed.load(Ordering::Relaxed)
            + m.aborted.load(Ordering::Relaxed)
            + m.deadline_expired.load(Ordering::Relaxed)
    }

    /// Current counters; the `pool_*` fields and everything read off a
    /// histogram (latency and phase percentiles, `wal_group_*`,
    /// `wal_commits_acked`) from one sample at most 10 ms old.
    /// [`Engine::shutdown`]'s snapshot is exact.
    pub fn metrics(&self) -> MetricsSnapshot {
        let rec = self.shared.rec.stats();
        let mut last = self.sample.lock();
        if last.0.elapsed() >= SAMPLE_PERIOD {
            *last = sample(&self.shared);
        }
        self.shared.metrics.snapshot_with(rec, last.1, &last.2)
    }

    /// Simulate a crash while the engine is still running: the jobs
    /// acknowledged as committed so far plus the **durable** log prefix
    /// (the volatile tail is lost, exactly as a power cut would). `None`
    /// when durability is off. The snapshot orders acks before the log
    /// read, so every returned job's commit record is inside the
    /// returned image — feed it to [`durability::recover`] and the
    /// acknowledged work must all be there.
    pub fn crash_probe(&self) -> Option<(Vec<u64>, Vec<u8>)> {
        self.shared.dur.as_ref().map(|d| d.crash_probe())
    }

    /// The strategy name (`"pessimistic"`, `"pessimistic-page"` or
    /// `"optimistic"`).
    pub fn cc_name(&self) -> &'static str {
        self.cc.name()
    }

    /// Stop admitting work, drain everything already admitted, join the
    /// workers, then the log flusher — once it has flushed and
    /// acknowledged everything parked — and (optionally) audit the
    /// recorded execution.
    pub fn shutdown(self) -> EngineOutput {
        self.queue.close();
        for h in self.workers {
            h.join().expect("engine worker must not panic");
        }
        if let (Some(dur), Some(h)) = (self.shared.dur.as_ref(), self.flusher) {
            dur.close();
            h.join().expect("log flusher must not panic");
        }
        // drain the trace after the threads joined: no recorder is writing
        let trace = self.shared.trace.drain();
        let metrics = self.shared.metrics_snapshot();
        let audit = self
            .cfg
            .audit
            .then(|| audit::audit(&self.shared.rec, self.cc.as_ref()));
        // read the final state AFTER the audit snapshot so the read-only
        // dump transaction never pollutes the audited record; the
        // workers are joined, so nothing runs beside it
        let final_state = self.shared.final_state(self.cc.as_ref());
        let wal = self.shared.dur.as_ref().map(|d| d.image());
        EngineOutput {
            metrics,
            audit,
            final_state,
            trace,
            wal,
            cc_name: self.cc.name(),
        }
    }
}

/// What [`Engine::metrics`] samples, read now.
fn sample(shared: &EngineShared) -> (Instant, PoolStats, Distributions) {
    (
        Instant::now(),
        shared.pool_stats(),
        shared.metrics.distributions(),
    )
}

/// Convenience: start an engine, preload and submit an entire
/// [`EncWorkload`] (with backpressure), and shut down.
pub fn run_workload(cfg: &EngineConfig, kind: CcKind, workload: &EncWorkload) -> EngineOutput {
    let engine = Engine::start(cfg.clone(), kind);
    engine.preload(&workload.preload_keys);
    for ops in &workload.txn_ops {
        engine
            .submit_blocking(ops.clone())
            .expect("engine accepts work until shutdown");
    }
    engine.shutdown()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A polled snapshot reads the counters now and the histogram-backed
    /// fields from a sample at most [`SAMPLE_PERIOD`] old; `shutdown`
    /// reads everything exactly. Group commit makes `wal_commits_acked`
    /// a count of the commits each sample saw.
    #[test]
    fn a_polled_snapshot_reads_counters_now_and_distributions_sampled() {
        let engine = Engine::start(
            EngineConfig {
                workers: 1,
                audit: false,
                durability: DurabilityMode::Group {
                    max_batch: 1,
                    max_wait: Duration::ZERO,
                },
                ..EngineConfig::default()
            },
            CcKind::Pessimistic,
        );
        let keys: Vec<String> = (0..8).map(|i| format!("k{i}")).collect();
        engine.preload(&keys);
        let mut done = 0;
        let mut commit = |n: u64| {
            for i in 0..n {
                let k = keys[(done + i) as usize % keys.len()].clone();
                engine
                    .submit_blocking(vec![EncOp::Search(k.clone()), EncOp::Change(k)])
                    .expect("engine accepts work");
            }
            done += n;
            while engine.finished() < done {
                std::thread::yield_now();
            }
            done
        };
        commit(5);
        // a second call inside the period sees new counters and the old
        // sample; a slow machine that lets the period pass retries
        let (first, second) = (0..10)
            .find_map(|_| {
                std::thread::sleep(SAMPLE_PERIOD);
                let asked = Instant::now();
                let first = engine.metrics();
                let total = commit(3);
                let second = engine.metrics();
                assert_eq!((first.committed, second.committed), (total - 3, total));
                (asked.elapsed() < SAMPLE_PERIOD).then_some((first, second))
            })
            .expect("one of ten tries calls twice inside the sample period");
        assert_eq!(first.wal_commits_acked, first.committed, "a fresh sample");
        assert_eq!(second.distributions(), first.distributions());
        std::thread::sleep(SAMPLE_PERIOD);
        let third = engine.metrics();
        assert_eq!(third.committed, second.committed);
        assert_eq!(third.wal_commits_acked, third.committed, "a new sample");
        assert_ne!(third.distributions(), second.distributions());
        let exact = engine.shutdown().metrics;
        assert_eq!(exact.committed, third.committed);
        assert_eq!(exact.wal_commits_acked, exact.committed);
        assert_eq!(exact.distributions(), third.distributions());
    }
}
