//! Lock-free engine metrics: atomic counters plus fixed-bucket latency
//! histograms, snapshotted on demand.

use crate::durability::FlushReason;
use crate::queue::QueueGauges;
use oodb_model::RecorderStats;
use oodb_storage::PoolStats;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BUCKETS: usize = 64;

/// A log₂-bucketed latency histogram. Bucket `i` counts durations in
/// `[2^i, 2^(i+1))` nanoseconds, so the full range spans 1 ns to ~584
/// years with bounded, allocation-free recording.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one duration.
    pub fn record(&self, d: Duration) {
        self.record_value(d.as_nanos() as u64);
    }

    /// Record one dimensionless value into its log₂ bucket (zero counts
    /// into bucket 0). The same structure also serves non-latency
    /// distributions — e.g. commits per group-commit flush — where
    /// [`bucket_counts`](Histogram::bucket_counts) is the useful view.
    pub fn record_value(&self, v: u64) {
        let v = v.max(1);
        let idx = (63 - v.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Log-linear position of the `pos`-th (1-based) of `c` samples
    /// inside bucket `i`, i.e. inside `[2^i, 2^(i+1))`: samples are
    /// assumed geometrically spread through the bucket, so the returned
    /// value is `2^(i + (pos - ½)/c)`. With one sample this is the
    /// bucket's geometric midpoint `2^(i+½)`.
    fn bucket_interp(i: usize, pos: u64, c: u64) -> Duration {
        let lo = (1u64 << i) as f64;
        let frac = ((pos as f64 - 0.5) / c.max(1) as f64).clamp(0.0, 1.0);
        Duration::from_nanos((lo * 2f64.powf(frac)).round() as u64)
    }

    /// The approximate `q`-quantile (`0.0 ..= 1.0`) as a duration, with
    /// **log-linear interpolation** inside the rank's bucket: the rank's
    /// position among the bucket's samples picks a point on the bucket's
    /// geometric span instead of a fixed midpoint, which keeps high
    /// quantiles (p99, p999) distinguishable even when they land in the
    /// same power-of-two bucket. Returns zero when empty. If a
    /// concurrent `record` leaves the rank transiently unreachable
    /// (count incremented after its bucket was scanned), the last
    /// non-empty bucket's geometric midpoint is returned — a real
    /// latency from the distribution, never a sentinel.
    pub fn quantile(&self, q: f64) -> Duration {
        let total = self.len();
        if total == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let mut last_nonempty = None;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                last_nonempty = Some((i, c));
            }
            if c > 0 && seen + c >= rank {
                return Self::bucket_interp(i, rank - seen, c);
            }
            seen += c;
        }
        last_nonempty
            .map(|(i, c)| Self::bucket_interp(i, c.div_ceil(2).max(1), c))
            .unwrap_or(Duration::ZERO)
    }

    /// The p50/p99/p999 triple of this histogram in one scan-per-quantile
    /// call — the shape every latency field of [`MetricsSnapshot`] uses.
    pub fn quantiles(&self) -> Quantiles {
        Quantiles {
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }

    /// A frozen copy of every bucket count (`counts[i]` = samples in
    /// `[2^i, 2^(i+1))` ns).
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// The p50 / p99 / p999 of one latency histogram, frozen as durations.
/// `p999` reports the tail under load; the log-linear interpolation in
/// [`Histogram::quantile`] keeps it distinct from p99 even inside one
/// power-of-two bucket. Always ordered `p50 <= p99 <= p999`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Quantiles {
    /// Median.
    pub p50: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// 99.9th percentile.
    pub p999: Duration,
}

impl Quantiles {
    /// Append this triple to a JSON object under construction as
    /// `"<name>":{"p50_ns":..,"p99_ns":..,"p999_ns":..}` (no trailing
    /// comma).
    fn write_json(&self, s: &mut String, name: &str) {
        let _ = write!(
            s,
            "\"{name}\":{{\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{}}}",
            self.p50.as_nanos(),
            self.p99.as_nanos(),
            self.p999.as_nanos()
        );
    }
}

/// Per-lane counters of a concurrency control accounting over more than
/// one lane (empty on one).
#[derive(Debug, Default)]
pub struct ShardLane {
    /// Operations routed to (and granted on) this lane.
    pub ops: AtomicU64,
    /// Committed transactions whose footprint included this lane.
    pub commits: AtomicU64,
}

/// Frozen view of one [`ShardLane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLaneSnapshot {
    /// Operations routed to this lane.
    pub ops: u64,
    /// Commits whose footprint included this lane.
    pub commits: u64,
}

/// Shared engine counters. All updates are relaxed atomics; a
/// [`snapshot`](EngineMetrics::snapshot) gives a consistent-enough view
/// for reporting.
#[derive(Debug)]
pub struct EngineMetrics {
    started_at: Instant,
    /// Per-shard contention lanes (one per concurrency-control shard).
    shard_lanes: Vec<ShardLane>,
    /// Committed transactions whose footprint spanned more than one
    /// shard.
    pub cross_shard: AtomicU64,
    /// Jobs admitted to the queue.
    pub submitted: AtomicU64,
    /// Jobs whose transaction committed.
    pub committed: AtomicU64,
    /// Jobs dropped after exhausting retries.
    pub aborted: AtomicU64,
    /// Abort-and-retry events (deadlock victims, validation failures,
    /// injected faults).
    pub retries: AtomicU64,
    /// Lock acquisitions that blocked at least once under strict 2PL.
    pub lock_blocks: AtomicU64,
    /// Lock-stripe mutex acquisitions under strict 2PL that found the
    /// mutex held and waited for it.
    pub lock_stripe_contended: AtomicU64,
    /// Deadlock cycles broken, one victim each, under strict 2PL.
    pub deadlock_victims: AtomicU64,
    /// Submissions rejected by admission control (queue full).
    pub shed: AtomicU64,
    /// Jobs dropped because their deadline passed before commit.
    pub deadline_expired: AtomicU64,
    /// Actions fed to certification-time dependency inference, summed
    /// over every decision: per-attempt deltas plus reseed replays.
    pub cert_actions_inferred: AtomicU64,
    /// Times the certifier rebuilt its live schedules from the
    /// restricted history (garbage from excluded transactions outgrew
    /// the live edges).
    pub cert_incremental_reseeds: AtomicU64,
    /// Nodes expanded by the certifier's candidate-rooted
    /// Definition-16 search, summed over every validation — the check's
    /// share of certification, beside `cert_actions_inferred` for the
    /// feed's. Exactly repeatable for a given schedule.
    pub cert_check_visited: AtomicU64,
    /// Committed transactions the certifier's cut dropped from its
    /// maintained relations (`oodb_core::retention`).
    pub cert_settled: AtomicU64,
    /// Gauge: primitives the certifier currently holds in its maintained
    /// relations — how much history the next commit is checked against.
    pub cert_retained_actions: AtomicU64,
    /// Write-ahead-log records appended (redo/compensation payloads and
    /// lifecycle markers; zero with durability off).
    pub wal_appends: AtomicU64,
    /// Write-ahead-log bytes appended, including framing overhead.
    pub wal_bytes: AtomicU64,
    /// Log forces (simulated fsyncs) issued by the log flusher.
    pub fsyncs: AtomicU64,
    /// Flushes that made at least one commit record durable (each one
    /// also records its commit count in `wal_group_size`).
    pub group_commits: AtomicU64,
    /// Commits those flushes acknowledged, summed: divided by
    /// `group_commits`, the exact mean group size.
    pub group_committed: AtomicU64,
    /// Flushes by what ended their gather, indexed by [`FlushReason`].
    pub wal_flush_reasons: [AtomicU64; 3],
    /// Most acknowledgements ever parked at once (bounded by
    /// [`PARK_BOUND`](crate::durability::PARK_BOUND) batches).
    pub wal_parked_peak: AtomicU64,
    /// Distribution of commits acknowledged per log flush — the
    /// group-commit amortization made visible (recorded via
    /// [`Histogram::record_value`]; buckets are counts, not ns).
    pub wal_group_size: Histogram,
    /// The admission queue's depth gauge and hand-off counters. Shared
    /// with the [`JobQueue`](crate::JobQueue), which keeps the depth
    /// current on every push, pop, and shed — not just when a worker
    /// happens to pop.
    pub queue: Arc<QueueGauges>,
    /// Time spent acquiring operation grants (lock waits under
    /// pessimistic control; certification waits show up in `e2e`).
    pub lock_wait: Histogram,
    /// End-to-end latency from submission to commit.
    pub e2e: Histogram,
    /// Phase timer: submission-to-worker-pop queue wait, recorded once
    /// per popped job (preloads bypass the queue and are not recorded).
    pub phase_queue: Histogram,
    /// Phase timer: total grant wait of the committing attempt (the
    /// per-op waits summed).
    pub phase_wait: Histogram,
    /// Phase timer: execution time of the committing attempt — attempt
    /// begin to commit decision, minus the waits counted in
    /// [`phase_wait`](EngineMetrics::phase_wait).
    pub phase_exec: Histogram,
    /// Phase timer: a logged commit's append of its commit record to its
    /// acknowledgement by the log flusher (gather, fsync, and the turn
    /// in the batch). Nobody is blocked for it. Empty with durability
    /// off.
    pub phase_fsync: Histogram,
    /// Phase timer: the worker's opportunistic drain of the recorder
    /// after the commit was acknowledged — off the transaction's own
    /// latency, on the worker's time: what one worker spends per commit
    /// is [`phase_exec`](EngineMetrics::phase_exec) plus this.
    pub phase_drain: Histogram,
}

impl EngineMetrics {
    /// Fresh metrics; the throughput clock starts now.
    pub fn new() -> Self {
        Self::with_shards(0)
    }

    /// Fresh metrics with `shards` per-shard contention lanes (pass the
    /// concurrency control's shard count; 0 or 1 means no lanes).
    pub fn with_shards(shards: usize) -> Self {
        EngineMetrics {
            started_at: Instant::now(),
            shard_lanes: (0..if shards > 1 { shards } else { 0 })
                .map(|_| ShardLane::default())
                .collect(),
            cross_shard: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            lock_blocks: AtomicU64::new(0),
            lock_stripe_contended: AtomicU64::new(0),
            deadlock_victims: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            cert_actions_inferred: AtomicU64::new(0),
            cert_incremental_reseeds: AtomicU64::new(0),
            cert_check_visited: AtomicU64::new(0),
            cert_settled: AtomicU64::new(0),
            cert_retained_actions: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            group_commits: AtomicU64::new(0),
            group_committed: AtomicU64::new(0),
            wal_flush_reasons: Default::default(),
            wal_parked_peak: AtomicU64::new(0),
            wal_group_size: Histogram::default(),
            queue: Arc::default(),
            lock_wait: Histogram::default(),
            e2e: Histogram::default(),
            phase_queue: Histogram::default(),
            phase_wait: Histogram::default(),
            phase_exec: Histogram::default(),
            phase_fsync: Histogram::default(),
            phase_drain: Histogram::default(),
        }
    }

    /// Account one log flush that acknowledged `commits` commits.
    pub fn record_group(&self, commits: usize) {
        self.group_commits.fetch_add(1, Ordering::Relaxed);
        self.group_committed
            .fetch_add(commits as u64, Ordering::Relaxed);
        self.wal_group_size.record_value(commits as u64);
    }

    /// Count one operation routed to shard `s` (no-op without lanes).
    pub fn shard_op(&self, s: usize) {
        if let Some(lane) = self.shard_lanes.get(s) {
            lane.ops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one commit on every lane of its footprint `lanes` (no-op
    /// without lanes), and as cross-shard when there is more than one.
    pub fn commit_lanes(&self, lanes: impl IntoIterator<Item = usize>) {
        let mut n = 0;
        for l in lanes {
            n += 1;
            if let Some(lane) = self.shard_lanes.get(l) {
                lane.commits.fetch_add(1, Ordering::Relaxed);
            }
        }
        if n > 1 {
            self.cross_shard.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of every counter plus derived rates, with
    /// the recorder's own counts (`Recorder::stats`) and the buffer
    /// pool's (`BufferPool::stats`) beside them.
    pub fn snapshot(&self, rec: RecorderStats, pool: PoolStats) -> MetricsSnapshot {
        let elapsed = self.started_at.elapsed();
        let committed = self.committed.load(Ordering::Relaxed);
        let flushes =
            |why: FlushReason| self.wal_flush_reasons[why as usize].load(Ordering::Relaxed);
        let group_commits = self.group_commits.load(Ordering::Relaxed);
        MetricsSnapshot {
            elapsed,
            shards: self
                .shard_lanes
                .iter()
                .map(|l| ShardLaneSnapshot {
                    ops: l.ops.load(Ordering::Relaxed),
                    commits: l.commits.load(Ordering::Relaxed),
                })
                .collect(),
            cross_shard: self.cross_shard.load(Ordering::Relaxed),
            submitted: self.submitted.load(Ordering::Relaxed),
            committed,
            aborted: self.aborted.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            lock_blocks: self.lock_blocks.load(Ordering::Relaxed),
            lock_stripe_contended: self.lock_stripe_contended.load(Ordering::Relaxed),
            deadlock_victims: self.deadlock_victims.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            cert_actions_inferred: self.cert_actions_inferred.load(Ordering::Relaxed),
            cert_incremental_reseeds: self.cert_incremental_reseeds.load(Ordering::Relaxed),
            cert_check_visited: self.cert_check_visited.load(Ordering::Relaxed),
            cert_settled: self.cert_settled.load(Ordering::Relaxed),
            cert_retained_actions: self.cert_retained_actions.load(Ordering::Relaxed),
            recording: rec.enabled,
            rec_drains: rec.drains,
            rec_drains_skipped: rec.drains_skipped,
            rec_drain_hold_ns: rec.drain_hold_ns,
            rec_staged_peak: rec.staged_peak as u64,
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            pool_evictions: pool.evictions,
            pool_writebacks: pool.writebacks,
            pool_latch_waits: pool.latch_waits,
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            group_commits,
            wal_flush_full: flushes(FlushReason::Full),
            wal_flush_deadline: flushes(FlushReason::Deadline),
            wal_flush_idle: flushes(FlushReason::Idle),
            wal_parked_peak: self.wal_parked_peak.load(Ordering::Relaxed),
            wal_commits_acked: self.phase_fsync.len(),
            wal_group_mean: if group_commits == 0 {
                0.0
            } else {
                self.group_committed.load(Ordering::Relaxed) as f64 / group_commits as f64
            },
            wal_group_buckets: self.wal_group_size.bucket_counts(),
            wal_group: value_quantiles(&self.wal_group_size),
            queue_depth: self.queue.depth.load(Ordering::Relaxed),
            queue_consumer_wakes: self.queue.consumer_wakes.load(Ordering::Relaxed),
            queue_timed_wakeups_with_work: self
                .queue
                .timed_wakeups_with_work
                .load(Ordering::Relaxed),
            throughput_per_sec: committed as f64 / elapsed.as_secs_f64().max(1e-9),
            lock_wait_p50: self.lock_wait.quantile(0.50),
            lock_wait_p99: self.lock_wait.quantile(0.99),
            lock_wait_p999: self.lock_wait.quantile(0.999),
            e2e_p50: self.e2e.quantile(0.50),
            e2e_p99: self.e2e.quantile(0.99),
            e2e_p999: self.e2e.quantile(0.999),
            phase_queue: self.phase_queue.quantiles(),
            phase_wait: self.phase_wait.quantiles(),
            phase_exec: self.phase_exec.quantiles(),
            phase_fsync: self.phase_fsync.quantiles(),
            phase_drain: self.phase_drain.quantiles(),
        }
    }
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Quantiles of a *value* histogram (counts, not durations): the
/// nanosecond field of the interpolated quantile is the value itself,
/// because [`Histogram::record_value`] buckets raw numbers the same way
/// `record` buckets nanoseconds.
fn value_quantiles(h: &Histogram) -> ValueQuantiles {
    ValueQuantiles {
        p50: h.quantile(0.50).as_nanos() as u64,
        p99: h.quantile(0.99).as_nanos() as u64,
        p999: h.quantile(0.999).as_nanos() as u64,
    }
}

/// The p50 / p99 / p999 of a dimensionless value histogram (e.g.
/// commits per group-commit flush).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValueQuantiles {
    /// Median value.
    pub p50: u64,
    /// 99th-percentile value.
    pub p99: u64,
    /// 99.9th-percentile value.
    pub p999: u64,
}

/// Frozen view of [`EngineMetrics`] for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Wall-clock time since the engine started.
    pub elapsed: Duration,
    /// Per-shard contention lanes (empty for single-shard strategies).
    pub shards: Vec<ShardLaneSnapshot>,
    /// Committed transactions spanning more than one shard.
    pub cross_shard: u64,
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs committed.
    pub committed: u64,
    /// Jobs dropped after exhausting retries.
    pub aborted: u64,
    /// Abort-and-retry events.
    pub retries: u64,
    /// Lock acquisitions that blocked at least once (strict 2PL).
    pub lock_blocks: u64,
    /// Lock-stripe mutex acquisitions that found the mutex held (strict
    /// 2PL): two workers met on a stripe, whether or not their grants
    /// conflict.
    pub lock_stripe_contended: u64,
    /// Deadlock cycles broken by a victim (strict 2PL).
    pub deadlock_victims: u64,
    /// Submissions shed by admission control.
    pub shed: u64,
    /// Jobs dropped on deadline expiry.
    pub deadline_expired: u64,
    /// Actions fed to certification-time dependency inference.
    pub cert_actions_inferred: u64,
    /// Incremental-certifier reseeds (schedule rebuilds).
    pub cert_incremental_reseeds: u64,
    /// Nodes expanded by the candidate-rooted Definition-16 search.
    pub cert_check_visited: u64,
    /// Committed transactions dropped from the certifier's relations.
    pub cert_settled: u64,
    /// Primitives the certifier held when the snapshot was taken.
    pub cert_retained_actions: u64,
    /// False when the engine records nothing (the audit off under strict
    /// 2PL); the `rec_*` counts are then 0.
    pub recording: bool,
    /// Times the recorder materialized its staged visits: one per
    /// transaction finished (the worker's opportunistic drain, when it
    /// found the record lock free), per certification round and per
    /// audit.
    pub rec_drains: u64,
    /// Opportunistic drains that found the record lock held and left
    /// their entries to the holder or the next drain.
    pub rec_drains_skipped: u64,
    /// Time the recorder's drains held the record lock, summed;
    /// divided by `rec_drains`, what materializing one transaction costs.
    pub rec_drain_hold_ns: u64,
    /// Most actions any one transaction had staged when a drain took
    /// them (bounded by `oodb_model::recorder::STAGE_BOUND`).
    pub rec_staged_peak: u64,
    /// Page requests the buffer pool served from a resident frame. Every
    /// request latches its frame, so this counts latched visits: a run
    /// that records nothing reads inner B-link nodes without one, and
    /// reports fewer hits (and a lower hit rate) than pages it visited.
    pub pool_hits: u64,
    /// Page requests that loaded the page from the disk sim.
    pub pool_misses: u64,
    /// Frames the pool evicted to make room.
    pub pool_evictions: u64,
    /// Dirty pages eviction wrote back to the disk sim.
    pub pool_writebacks: u64,
    /// Page-latch acquisitions that found the latch held in a
    /// conflicting mode and blocked: two traversals met on a page.
    pub pool_latch_waits: u64,
    /// Write-ahead-log records appended (zero with durability off).
    pub wal_appends: u64,
    /// Write-ahead-log bytes appended, including framing.
    pub wal_bytes: u64,
    /// Log forces (simulated fsyncs) issued.
    pub fsyncs: u64,
    /// Flushes that made at least one commit record durable.
    pub group_commits: u64,
    /// Flushes whose gather ended because `max_batch` commits were
    /// parked.
    pub wal_flush_full: u64,
    /// Flushes whose gather ended on `max_wait`.
    pub wal_flush_deadline: u64,
    /// Flushes whose gather ended because nothing admitted could still
    /// join (no job queued, none executing).
    pub wal_flush_idle: u64,
    /// Most commit acknowledgements ever parked at once.
    pub wal_parked_peak: u64,
    /// Logged commits the flusher acknowledged (the samples of
    /// `phase_fsync`; the preload is not metered).
    pub wal_commits_acked: u64,
    /// Mean commits acknowledged per such flush, exact (0.0 when none).
    pub wal_group_mean: f64,
    /// Log₂-bucket counts of commits per flush (`buckets[i]` = flushes
    /// that covered `[2^i, 2^(i+1))` commits).
    pub wal_group_buckets: [u64; 64],
    /// Interpolated quantiles of commits per flush (group sizes).
    pub wal_group: ValueQuantiles,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Pushes that signalled a parked consumer (≈ 0 per job in a closed
    /// loop, where the polling worker takes each job).
    pub queue_consumer_wakes: u64,
    /// Timed re-checks of a parked consumer that found a job stranded:
    /// no signal on its way and no producer watching a poller take it
    /// (a lost wake-up, or a descheduled poller nobody stood in for).
    /// 0 on a correct queue.
    pub queue_timed_wakeups_with_work: u64,
    /// Committed transactions per second since engine start.
    pub throughput_per_sec: f64,
    /// Median grant-acquisition wait.
    pub lock_wait_p50: Duration,
    /// 99th-percentile grant-acquisition wait.
    pub lock_wait_p99: Duration,
    /// 99.9th-percentile grant-acquisition wait.
    pub lock_wait_p999: Duration,
    /// Median submission-to-commit latency.
    pub e2e_p50: Duration,
    /// 99th-percentile submission-to-commit latency.
    pub e2e_p99: Duration,
    /// 99.9th-percentile submission-to-commit latency.
    pub e2e_p999: Duration,
    /// Per-commit phase breakdown: submission-to-pop queue wait.
    pub phase_queue: Quantiles,
    /// Per-commit phase breakdown: grant/certification wait of the
    /// committing attempt.
    pub phase_wait: Quantiles,
    /// Per-commit phase breakdown: execution time of the committing
    /// attempt (waits excluded).
    pub phase_exec: Quantiles,
    /// Per-commit phase breakdown: commit-record append to
    /// acknowledgement (all zero with durability off).
    pub phase_fsync: Quantiles,
    /// Per-commit phase breakdown: the worker's drain of the recorder
    /// after the acknowledgement.
    pub phase_drain: Quantiles,
}

impl MetricsSnapshot {
    /// A machine-readable JSON object (hand-rolled; no serde in the
    /// offline build). Durations are nanoseconds; key order is stable.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(s, "\"elapsed_ns\":{},", self.elapsed.as_nanos());
        let _ = write!(s, "\"submitted\":{},", self.submitted);
        let _ = write!(s, "\"committed\":{},", self.committed);
        let _ = write!(s, "\"aborted\":{},", self.aborted);
        let _ = write!(s, "\"retries\":{},", self.retries);
        let _ = write!(s, "\"lock_blocks\":{},", self.lock_blocks);
        let _ = write!(
            s,
            "\"lock_stripe_contended\":{},",
            self.lock_stripe_contended
        );
        let _ = write!(s, "\"deadlock_victims\":{},", self.deadlock_victims);
        let _ = write!(s, "\"shed\":{},", self.shed);
        let _ = write!(s, "\"deadline_expired\":{},", self.deadline_expired);
        let _ = write!(
            s,
            "\"cert_actions_inferred\":{},",
            self.cert_actions_inferred
        );
        let _ = write!(
            s,
            "\"cert_incremental_reseeds\":{},",
            self.cert_incremental_reseeds
        );
        let _ = write!(s, "\"cert_check_visited\":{},", self.cert_check_visited);
        let _ = write!(s, "\"cert_settled\":{},", self.cert_settled);
        let _ = write!(
            s,
            "\"cert_retained_actions\":{},",
            self.cert_retained_actions
        );
        let _ = write!(s, "\"recording\":{},", self.recording);
        let _ = write!(s, "\"rec_drains\":{},", self.rec_drains);
        let _ = write!(s, "\"rec_drains_skipped\":{},", self.rec_drains_skipped);
        let _ = write!(s, "\"rec_drain_hold_ns\":{},", self.rec_drain_hold_ns);
        let _ = write!(s, "\"rec_staged_peak\":{},", self.rec_staged_peak);
        let _ = write!(s, "\"pool_hits\":{},", self.pool_hits);
        let _ = write!(s, "\"pool_misses\":{},", self.pool_misses);
        let _ = write!(s, "\"pool_evictions\":{},", self.pool_evictions);
        let _ = write!(s, "\"pool_writebacks\":{},", self.pool_writebacks);
        let _ = write!(s, "\"pool_latch_waits\":{},", self.pool_latch_waits);
        let _ = write!(s, "\"wal_appends\":{},", self.wal_appends);
        let _ = write!(s, "\"wal_bytes\":{},", self.wal_bytes);
        let _ = write!(s, "\"fsyncs\":{},", self.fsyncs);
        let _ = write!(s, "\"group_commits\":{},", self.group_commits);
        let _ = write!(
            s,
            "\"wal_flush_full\":{},\"wal_flush_deadline\":{},\"wal_flush_idle\":{},",
            self.wal_flush_full, self.wal_flush_deadline, self.wal_flush_idle
        );
        let _ = write!(s, "\"wal_parked_peak\":{},", self.wal_parked_peak);
        let _ = write!(s, "\"wal_commits_acked\":{},", self.wal_commits_acked);
        let _ = write!(s, "\"wal_group_mean\":{:.3},", self.wal_group_mean);
        // Trailing zero buckets carry no information; emit the prefix up
        // to the last non-empty one so the array stays readable.
        s.push_str("\"wal_group_buckets\":[");
        let last = self
            .wal_group_buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        for (i, c) in self.wal_group_buckets[..last].iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{c}");
        }
        s.push_str("],");
        let _ = write!(
            s,
            "\"wal_group_p50\":{},\"wal_group_p99\":{},\"wal_group_p999\":{},",
            self.wal_group.p50, self.wal_group.p99, self.wal_group.p999
        );
        let _ = write!(s, "\"queue_depth\":{},", self.queue_depth);
        let _ = write!(
            s,
            "\"queue_consumer_wakes\":{},\"queue_timed_wakeups_with_work\":{},",
            self.queue_consumer_wakes, self.queue_timed_wakeups_with_work
        );
        let _ = write!(s, "\"throughput_per_sec\":{:.3},", self.throughput_per_sec);
        let _ = write!(s, "\"lock_wait_p50_ns\":{},", self.lock_wait_p50.as_nanos());
        let _ = write!(s, "\"lock_wait_p99_ns\":{},", self.lock_wait_p99.as_nanos());
        let _ = write!(
            s,
            "\"lock_wait_p999_ns\":{},",
            self.lock_wait_p999.as_nanos()
        );
        let _ = write!(s, "\"e2e_p50_ns\":{},", self.e2e_p50.as_nanos());
        let _ = write!(s, "\"e2e_p99_ns\":{},", self.e2e_p99.as_nanos());
        let _ = write!(s, "\"e2e_p999_ns\":{},", self.e2e_p999.as_nanos());
        s.push_str("\"phases\":{");
        for (i, (name, q)) in [
            ("queue", &self.phase_queue),
            ("wait", &self.phase_wait),
            ("exec", &self.phase_exec),
            ("fsync", &self.phase_fsync),
            ("drain", &self.phase_drain),
        ]
        .into_iter()
        .enumerate()
        {
            if i > 0 {
                s.push(',');
            }
            q.write_json(&mut s, name);
        }
        s.push_str("},");
        let _ = write!(s, "\"cross_shard\":{},", self.cross_shard);
        s.push_str("\"shards\":[");
        for (i, lane) in self.shards.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"ops\":{},\"commits\":{}}}", lane.ops, lane.commits);
        }
        s.push_str("]}");
        s
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "committed {} ({:.0}/s) aborted {} retries {} shed {} expired {} depth {} \
             consumer-wakes {} (timed with work {}) lock-blocks {} deadlock-victims {} stripe-contended {} lock-wait p50/p99 {:?}/{:?} \
             e2e p50/p99 {:?}/{:?}",
            self.committed,
            self.throughput_per_sec,
            self.aborted,
            self.retries,
            self.shed,
            self.deadline_expired,
            self.queue_depth,
            self.queue_consumer_wakes,
            self.queue_timed_wakeups_with_work,
            self.lock_blocks,
            self.deadlock_victims,
            self.lock_stripe_contended,
            self.lock_wait_p50,
            self.lock_wait_p99,
            self.e2e_p50,
            self.e2e_p99,
        )?;
        if self.recording {
            write!(
                f,
                " rec-drains {} (skipped {}, hold {:?}, staged peak {})",
                self.rec_drains,
                self.rec_drains_skipped,
                Duration::from_nanos(self.rec_drain_hold_ns / self.rec_drains.max(1)),
                self.rec_staged_peak
            )?;
        } else {
            f.write_str(" record off")?;
        }
        write!(
            f,
            " pool hits {} misses {} (evicted {}, written back {}) latch-waits {}",
            self.pool_hits,
            self.pool_misses,
            self.pool_evictions,
            self.pool_writebacks,
            self.pool_latch_waits
        )?;
        if self.cert_actions_inferred > 0 {
            write!(
                f,
                " cert-inferred {} (reseeds {}, check visited {}, settled {}, retained {})",
                self.cert_actions_inferred,
                self.cert_incremental_reseeds,
                self.cert_check_visited,
                self.cert_settled,
                self.cert_retained_actions
            )?;
        }
        if self.wal_appends > 0 {
            write!(
                f,
                " wal {} recs/{} B fsyncs {} (full {}, deadline {}, idle {}) \
                 group-mean {:.1} parked-peak {}",
                self.wal_appends,
                self.wal_bytes,
                self.fsyncs,
                self.wal_flush_full,
                self.wal_flush_deadline,
                self.wal_flush_idle,
                self.wal_group_mean,
                self.wal_parked_peak
            )?;
        }
        if !self.shards.is_empty() {
            let ops: Vec<u64> = self.shards.iter().map(|s| s.ops).collect();
            write!(f, " cross-shard {} shard-ops {:?}", self.cross_shard, ops)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_order() {
        let h = Histogram::default();
        for us in [1u64, 10, 100, 1000, 10_000] {
            for _ in 0..20 {
                h.record(Duration::from_micros(us));
            }
        }
        assert_eq!(h.len(), 100);
        let q = h.quantiles();
        assert!(q.p50 <= q.p99 && q.p99 <= q.p999, "{q:?} must be ordered");
        assert!(
            q.p99 >= Duration::from_micros(8),
            "p99 {:?} spans top bucket",
            q.p99
        );
    }

    /// p50 ≤ p99 ≤ p999 on every distribution shape we throw at it,
    /// and the log-linear interpolation separates p99 from p999 when
    /// enough samples share the top bucket.
    #[test]
    fn p999_is_monotone_and_interpolated() {
        // 2000 samples in ONE bucket: interpolation must still order
        // (and separate) the quantiles inside it
        let h = Histogram::default();
        for _ in 0..2000 {
            h.record(Duration::from_nanos(70_000)); // bucket [2^16, 2^17)
        }
        let q = h.quantiles();
        assert!(q.p50 <= q.p99 && q.p99 <= q.p999, "{q:?}");
        assert!(
            q.p999 > q.p99 && q.p99 > q.p50,
            "interpolation separates ranks inside one bucket: {q:?}"
        );
        assert!(q.p50 >= Duration::from_nanos(1 << 16));
        assert!(q.p999 < Duration::from_nanos(1 << 17));
        // a heavy-tailed shape: 989 fast + 9 slow + 1 very slow (999
        // samples, so the p999 rank is the single tail sample)
        let h = Histogram::default();
        for _ in 0..989 {
            h.record(Duration::from_micros(10));
        }
        for _ in 0..9 {
            h.record(Duration::from_millis(1));
        }
        h.record(Duration::from_millis(100));
        let q = h.quantiles();
        assert!(q.p50 <= q.p99 && q.p99 <= q.p999, "{q:?}");
        assert!(q.p50 < Duration::from_micros(20), "p50 is fast: {q:?}");
        assert!(
            q.p99 >= Duration::from_micros(500) && q.p99 < Duration::from_millis(3),
            "p99 lands in the slow band: {q:?}"
        );
        assert!(
            q.p999 >= Duration::from_millis(64),
            "p999 finds the tail sample: {q:?}"
        );
    }

    #[test]
    fn empty_quantiles_are_zero_sentinels() {
        let h = Histogram::default();
        let q = h.quantiles();
        assert_eq!(q, Quantiles::default());
        assert_eq!(q.p999, Duration::ZERO);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), Duration::ZERO);
    }

    #[test]
    fn quantile_never_returns_the_overflow_sentinel() {
        // Force the fall-through: count says more samples than the
        // buckets hold (the transient state a racing `record` leaves).
        let h = Histogram::default();
        h.record(Duration::from_micros(100));
        h.count.fetch_add(5, Ordering::Relaxed);
        let q = h.quantile(1.0);
        assert!(
            q < Duration::from_secs(1),
            "fall-through must return a real in-bucket value, got {q:?}"
        );
        assert_eq!(q, h.quantile(0.01), "only one bucket is populated");
    }

    #[test]
    fn value_histogram_buckets_counts() {
        let h = Histogram::default();
        for n in [1u64, 1, 4, 4, 4, 8] {
            h.record_value(n);
        }
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 2, "two flushes of 1 commit");
        assert_eq!(counts[2], 3, "three flushes of 4 commits");
        assert_eq!(counts[3], 1);
    }

    /// The group-size mean is the commits summed over the flushes, not
    /// a bucket estimate: a log₂ bucket's midpoint read a flush of one
    /// commit as 1.5.
    #[test]
    fn wal_group_mean_is_exact() {
        let snap = |m: &EngineMetrics| {
            m.snapshot(oodb_model::Recorder::new().stats(), PoolStats::default())
        };
        let m = EngineMetrics::new();
        assert_eq!(snap(&m).wal_group_mean, 0.0, "no flush yet");
        for n in [1, 1, 4, 4, 4, 8] {
            m.record_group(n);
        }
        assert_eq!(snap(&m).wal_group_mean, 22.0 / 6.0);
        assert_eq!(snap(&m).group_commits, 6);
        let ones = EngineMetrics::new();
        for _ in 0..5 {
            ones.record_group(1);
        }
        assert_eq!(snap(&ones).wal_group_mean, 1.0);
    }

    #[test]
    fn snapshot_json_shape() {
        let m = EngineMetrics::with_shards(2);
        m.committed.fetch_add(3, Ordering::Relaxed);
        m.lock_blocks.fetch_add(4, Ordering::Relaxed);
        m.lock_stripe_contended.fetch_add(6, Ordering::Relaxed);
        m.deadlock_victims.fetch_add(1, Ordering::Relaxed);
        m.shard_op(0);
        m.e2e.record(Duration::from_millis(1));
        m.wal_appends.fetch_add(9, Ordering::Relaxed);
        m.wal_bytes.fetch_add(412, Ordering::Relaxed);
        m.fsyncs.fetch_add(2, Ordering::Relaxed);
        m.group_commits.fetch_add(1, Ordering::Relaxed);
        m.wal_flush_reasons[FlushReason::Deadline as usize].fetch_add(1, Ordering::Relaxed);
        m.wal_flush_reasons[FlushReason::Idle as usize].fetch_add(1, Ordering::Relaxed);
        m.wal_parked_peak.fetch_max(5, Ordering::Relaxed);
        m.phase_fsync.record(Duration::from_micros(300));
        m.record_group(2);
        m.queue.consumer_wakes.fetch_add(11, Ordering::Relaxed);
        let rec = RecorderStats {
            enabled: true,
            drains: 7,
            drains_skipped: 3,
            drain_hold_ns: 9000,
            staged_peak: 42,
        };
        let pool = PoolStats {
            hits: 70,
            misses: 6,
            evictions: 5,
            writebacks: 4,
            allocations: 3,
            latch_waits: 2,
        };
        let json = m.snapshot(rec, pool).to_json();
        for key in [
            "\"elapsed_ns\":",
            "\"submitted\":",
            "\"committed\":3",
            "\"aborted\":",
            "\"retries\":",
            "\"lock_blocks\":4",
            "\"lock_stripe_contended\":6",
            "\"deadlock_victims\":1",
            "\"shed\":",
            "\"deadline_expired\":",
            "\"cert_actions_inferred\":",
            "\"cert_incremental_reseeds\":",
            "\"cert_check_visited\":",
            "\"cert_settled\":",
            "\"cert_retained_actions\":",
            "\"recording\":true",
            "\"rec_drains\":7",
            "\"rec_drains_skipped\":3",
            "\"rec_drain_hold_ns\":9000",
            "\"rec_staged_peak\":42",
            "\"pool_hits\":70",
            "\"pool_misses\":6",
            "\"pool_evictions\":5",
            "\"pool_writebacks\":4",
            "\"pool_latch_waits\":2",
            "\"wal_appends\":9",
            "\"wal_bytes\":412",
            "\"fsyncs\":2",
            "\"group_commits\":2",
            "\"wal_flush_full\":0",
            "\"wal_flush_deadline\":1",
            "\"wal_flush_idle\":1",
            "\"wal_parked_peak\":5",
            "\"wal_commits_acked\":1",
            "\"wal_group_mean\":",
            "\"wal_group_buckets\":[0,1]",
            "\"wal_group_p50\":",
            "\"wal_group_p99\":",
            "\"wal_group_p999\":",
            "\"queue_depth\":",
            "\"queue_consumer_wakes\":11",
            "\"queue_timed_wakeups_with_work\":0",
            "\"throughput_per_sec\":",
            "\"lock_wait_p50_ns\":",
            "\"lock_wait_p99_ns\":",
            "\"lock_wait_p999_ns\":",
            "\"e2e_p50_ns\":",
            "\"e2e_p99_ns\":",
            "\"e2e_p999_ns\":",
            "\"phases\":{\"queue\":{\"p50_ns\":",
            "\"wait\":{\"p50_ns\":",
            "\"exec\":{\"p50_ns\":",
            "\"fsync\":{\"p50_ns\":",
            "\"drain\":{\"p50_ns\":",
            "\"p999_ns\":",
            "\"cross_shard\":",
            "\"shards\":[",
            "\"ops\":1",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn snapshot_reflects_counters() {
        let m = EngineMetrics::new();
        m.submitted.fetch_add(5, Ordering::Relaxed);
        m.committed.fetch_add(4, Ordering::Relaxed);
        m.retries.fetch_add(2, Ordering::Relaxed);
        m.shed.fetch_add(1, Ordering::Relaxed);
        m.e2e.record(Duration::from_millis(3));
        let s = m.snapshot(oodb_model::Recorder::new().stats(), PoolStats::default());
        assert_eq!(s.submitted, 5);
        assert_eq!(s.committed, 4);
        assert_eq!(s.retries, 2);
        assert_eq!(s.shed, 1);
        assert!(s.throughput_per_sec > 0.0);
        assert!(s.e2e_p50 > Duration::ZERO);
        assert!(!s.to_string().is_empty());
    }
}
