//! Lock-free engine metrics, snapshotted on demand. Every metric is one row
//! of the `metrics!` table at the end of this file, which generates
//! [`EngineMetrics`], [`MetricsSnapshot`] and its JSON.
//!
//! The metric lanes partition the key space by key hash
//! ([`shard_of_key`]), as many as
//! [`EngineConfig::shards`](crate::EngineConfig::shards) says, for every
//! control: the worker counts each granted operation on the lanes it
//! routes to ([`ShardRoute::of`]) and each commit on the lanes its
//! operations reached. No decision reads them.

use crate::durability::FlushReason;
use crate::queue::QueueGauges;
use oodb_btree::EncOp;
use oodb_model::RecorderStats;
use oodb_storage::PoolStats;
use std::fmt::{Result as Res, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BUCKETS: usize = 64;

/// A log₂-bucketed latency histogram: bucket `i` counts durations in
/// `[2^i, 2^(i+1))` ns, from 1 ns to ~584 years, recorded without allocating.
///
/// The buckets are all it keeps: recording a sample is one relaxed add to
/// one bucket, and the sample count is their sum. A reader copies the
/// buckets once and takes every figure from that copy, so a concurrent
/// record never leaves it a rank it cannot reach. Reading loads every
/// bucket the writers add to, which is why a live
/// [`Engine::metrics`](crate::Engine::metrics) samples the histograms
/// rather than reading them on each call.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Record one duration.
    pub fn record(&self, d: Duration) {
        self.record_value(d.as_nanos() as u64);
    }

    /// Record one dimensionless value (e.g. commits per group-commit
    /// flush) into its log₂ bucket; zero counts into bucket 0.
    pub fn record_value(&self, v: u64) {
        let v = v.max(1);
        let idx = (63 - v.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples: the sum of the buckets.
    pub fn len(&self) -> u64 {
        self.bucket_counts().iter().sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Log-linear position of the `pos`-th (1-based) of `c` samples in
    /// bucket `i`, assumed geometrically spread: `2^(i + (pos - ½)/c)`,
    /// the geometric midpoint `2^(i+½)` for one sample.
    fn bucket_interp(i: usize, pos: u64, c: u64) -> Duration {
        let lo = (1u64 << i) as f64;
        let frac = ((pos as f64 - 0.5) / c.max(1) as f64).clamp(0.0, 1.0);
        Duration::from_nanos((lo * 2f64.powf(frac)).round() as u64)
    }

    /// The p50, p99 and p999 of `counts`, each **log-linearly
    /// interpolated** inside its rank's bucket so p99 and p999 stay
    /// distinct inside one power-of-two bucket; zero when empty. One pass:
    /// the ranks ascend, and the total is the sum of the same counts, so
    /// every rank lands in a bucket.
    fn quantiles_of(counts: &[u64; BUCKETS]) -> Quantiles {
        let total: u64 = counts.iter().sum();
        let ranks = [0.50, 0.99, 0.999].map(|q| ((q * total as f64).ceil() as u64).max(1));
        let mut found = [Duration::ZERO; 3];
        let (mut k, mut seen) = (0, 0u64);
        for (i, &c) in counts.iter().enumerate() {
            while k < ranks.len() && c > 0 && seen + c >= ranks[k] {
                found[k] = Self::bucket_interp(i, ranks[k] - seen, c);
                k += 1;
            }
            seen += c;
        }
        let [p50, p99, p999] = found;
        Quantiles { p50, p99, p999 }
    }

    /// The p50/p99/p999 triple of this histogram, from one copy of its
    /// buckets.
    pub fn quantiles(&self) -> Quantiles {
        Self::quantiles_of(&self.bucket_counts())
    }

    /// A frozen copy of every bucket count.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// The p50 / p99 / p999 of one latency histogram, frozen as durations;
/// always ordered `p50 <= p99 <= p999`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Quantiles {
    /// Median.
    pub p50: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// 99.9th percentile.
    pub p999: Duration,
}

/// The p50 / p99 / p999 of a value histogram (e.g. commits per flush).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValueQuantiles {
    /// Median value.
    pub p50: u64,
    /// 99th-percentile value.
    pub p99: u64,
    /// 99.9th-percentile value.
    pub p999: u64,
}

/// Stable FNV-1a hash of `key`, reduced mod `lanes`. Hand-rolled so the
/// key→lane map is reproducible across runs and platforms (no
/// `RandomState`). With `lanes` = [`STRIPES`](crate::STRIPES) it is the
/// lock table's stripe map, so whenever `lanes` divides the stripe count
/// a key's lane is its stripe mod `lanes`.
pub fn shard_of_key(key: &str, lanes: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % lanes.max(1) as u64) as usize
}

/// Where one operation's footprint falls when the key space is
/// partitioned by key hash — into metric lanes or into lock stripes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRoute {
    /// The operation's footprint is a single key: one partition.
    One(usize),
    /// The operation's footprint spans the whole container (sequential
    /// and range scans under hash partitioning): every partition.
    All,
}

impl ShardRoute {
    /// The footprint of `op` among `n` hash partitions: a keyed
    /// operation lands on its key's; sequential *and range* scans span
    /// all of them (hash partitioning scatters the interval `[lo, hi]`
    /// across every partition, so a range's conflicts can surface
    /// anywhere). With one partition everything routes to `One(0)`.
    pub fn of(op: &EncOp, n: usize) -> Self {
        match op {
            EncOp::Insert(k) | EncOp::Search(k) | EncOp::Change(k) | EncOp::Delete(k) => {
                ShardRoute::One(shard_of_key(k, n))
            }
            EncOp::ReadSeq | EncOp::Range(..) if n <= 1 => ShardRoute::One(0),
            EncOp::ReadSeq | EncOp::Range(..) => ShardRoute::All,
        }
    }
}

/// Per-lane counters, kept when the engine accounts over more than one
/// lane.
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

impl EngineMetrics {
    /// Fresh metrics; the throughput clock starts now.
    pub fn new() -> Self {
        Self::with_shards(0)
    }

    /// Account one log flush that acknowledged `commits` commits.
    pub fn record_group(&self, commits: usize) {
        self.group_commits.fetch_add(1, Ordering::Relaxed);
        self.group_committed
            .fetch_add(commits as u64, Ordering::Relaxed);
        self.wal_group_size.record_value(commits as u64);
    }

    /// The number of lanes the key space is accounted over (1: no
    /// lanes kept).
    pub fn lanes(&self) -> usize {
        self.shard_lanes.len().max(1)
    }

    /// Count one granted `op` on every lane it routes to; returns those
    /// lanes, one bit each (0 without lanes).
    pub fn shard_op(&self, op: &EncOp) -> u64 {
        let n = self.shard_lanes.len();
        if n == 0 {
            return 0;
        }
        let lanes = match ShardRoute::of(op, n) {
            ShardRoute::One(l) => 1 << l,
            ShardRoute::All => u64::MAX >> (u64::BITS as usize - n),
        };
        self.count_lanes(lanes, |lane| &lane.ops);
        lanes
    }

    /// Count one commit on every lane of its footprint `lanes` (one bit
    /// each), and as cross-shard when there is more than one.
    pub fn commit_lanes(&self, lanes: u64) {
        self.count_lanes(lanes, |lane| &lane.commits);
        if lanes.count_ones() > 1 {
            self.cross_shard.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn count_lanes(&self, lanes: u64, counter: fn(&ShardLane) -> &AtomicU64) {
        for (l, lane) in self.shard_lanes.iter().enumerate() {
            if lanes >> l & 1 != 0 {
                counter(lane).fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// How a snapshot field is written into [`MetricsSnapshot::to_json`]:
/// `"key":value,`, with the unit on the key where the value has one.
trait Json {
    fn json(&self, s: &mut String, key: &str);
}

macro_rules! json {
    ($($($t:ty)|+ => |$v:ident, $s:ident, $k:ident| $body:expr;)*) => {$($(
        impl Json for $t {
            fn json(&self, $s: &mut String, $k: &str) {
                let $v = self;
                let _ = $body;
            }
        }
    )+)*};
}

json! {
    u64 | usize | bool => |v, s, k| write!(s, "\"{k}\":{v},");
    f64 => |v, s, k| write!(s, "\"{k}\":{v:.3},");
    Duration => |v, s, k| write!(s, "\"{k}_ns\":{},", v.as_nanos());
    Quantiles => |v, s, k| write!(s, "\"{k}\":{{\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{}}},",
        v.p50.as_nanos(), v.p99.as_nanos(), v.p999.as_nanos());
    ValueQuantiles => |v, s, k| write!(s, "\"{k}_p50\":{},\"{k}_p99\":{},\"{k}_p999\":{},",
        v.p50, v.p99, v.p999);
    // up to the last non-empty bucket: trailing zero buckets carry nothing
    [u64; BUCKETS] => |v, s, k| {
        let last = v.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        list(s, k, &v[..last], |s, c| write!(s, "{c},"))
    };
    Vec<ShardLaneSnapshot> => |v, s, k| list(s, k, v,
        |s, l| write!(s, "{{\"ops\":{},\"commits\":{}}},", l.ops, l.commits));
}

/// Write `"key":[..],`, `item` writing each of `items` and its comma.
fn list<T>(s: &mut String, key: &str, items: &[T], item: impl Fn(&mut String, &T) -> Res) {
    let _ = write!(s, "\"{key}\":[");
    for i in items {
        let _ = item(s, i);
    }
    close(s, "],");
}

/// Replace the trailing comma just written into `s`, if any, with `end`.
fn close(s: &mut String, end: &str) {
    if s.ends_with(',') {
        s.pop();
    }
    s.push_str(end);
}

/// Generates the metrics from the table below: one row per metric in JSON key
/// order, one doc for its live and frozen fields. A row is `name: counter`
/// (an `AtomicU64`), `name: latency(p50, p99, p999)` (a [`Histogram`] frozen
/// as three `Duration`s), `key { sub: name, .. }` (histograms frozen as
/// [`Quantiles`], one JSON object), `name: values(buckets, quantiles)`,
/// `name: store Type` (live only), `name: Type = expr` (frozen only, from
/// `m`, `rec`, `pool` and the fields above) or `name: sampled Type = expr`
/// (frozen only, from `m`, and sampled like the histograms). A row becomes a
/// record of live fields, frozen fields, the frozen fields a live snapshot
/// samples (the `Distributions`), the statements freezing the rest, the
/// statements freezing the sampled ones, and JSON entries.
macro_rules! metrics {
    ($m:ident, $rec:ident, $pool:ident; $($rows:tt)*) => {
        metrics!(@row [$m $rec $pool] [$($rows)*]);
    };
    (@row [$m:ident $($h:ident)*] [$(#[doc = $d:literal])* $name:ident: counter, $($rest:tt)*]
        $($acc:tt)*) => {
        metrics!(@row [$m $($h)*] [$($rest)*] $($acc)* {[$(#[doc = $d])* $name: AtomicU64,]
            [$(#[doc = $d])* $name: u64,] [] [let $name = $m.$name.load(Ordering::Relaxed);] []
            [($name)]});
    };
    (@row [$m:ident $($h:ident)*] [$(#[doc = $d:literal])* $name:ident:
        latency($p50:ident, $p99:ident, $p999:ident), $($rest:tt)*] $($acc:tt)*) => {
        metrics!(@row [$m $($h)*] [$($rest)*] $($acc)* {[$(#[doc = $d])* $name: Histogram,]
            [$(#[doc = $d])* #[doc = ""] #[doc = "Median."] $p50: Duration,
             $(#[doc = $d])* #[doc = ""] #[doc = "99th percentile."] $p99: Duration,
             $(#[doc = $d])* #[doc = ""] #[doc = "99.9th percentile."] $p999: Duration,]
            [$p50: Duration, $p99: Duration, $p999: Duration,] []
            [let Quantiles { p50: $p50, p99: $p99, p999: $p999 } = $m.$name.quantiles();]
            [($p50) ($p99) ($p999)]});
    };
    (@row [$m:ident $($h:ident)*]
        [$key:ident { $($(#[doc = $d:literal])* $sub:ident: $name:ident),* $(,)? }, $($rest:tt)*]
        $($acc:tt)*) => {
        metrics!(@row [$m $($h)*] [$($rest)*] $($acc)* {[$($(#[doc = $d])* $name: Histogram,)*]
            [$($(#[doc = $d])* $name: Quantiles,)*] [$($name: Quantiles,)*] []
            [$(let $name = $m.$name.quantiles();)*] [($key [$($sub: $name),*])]});
    };
    (@row [$m:ident $($h:ident)*] [$(#[doc = $d:literal])* $name:ident:
        values($buckets:ident, $q:ident), $($rest:tt)*] $($acc:tt)*) => {
        metrics!(@row [$m $($h)*] [$($rest)*] $($acc)* {[$(#[doc = $d])* $name: Histogram,]
            [$(#[doc = $d])* #[doc = ""] #[doc = "Bucket counts."] $buckets: [u64; BUCKETS],
             $(#[doc = $d])* #[doc = ""] #[doc = "Quantiles."] $q: ValueQuantiles,]
            [$buckets: [u64; BUCKETS], $q: ValueQuantiles,] []
            [let $buckets = $m.$name.bucket_counts();
             let [p50, p99, p999] = {
                 let q = Histogram::quantiles_of(&$buckets);
                 [q.p50, q.p99, q.p999].map(|d| d.as_nanos() as u64)
             };
             let $q = ValueQuantiles { p50, p99, p999 };] [($buckets) ($q)]});
    };
    (@row $h:tt [$(#[doc = $d:literal])* $name:ident: store $ty:ty, $($rest:tt)*] $($acc:tt)*) => {
        metrics!(@row $h [$($rest)*] $($acc)* {[$(#[doc = $d])* $name: $ty,] [] [] [] [] []});
    };
    (@row $h:tt [$(#[doc = $d:literal])* $name:ident: sampled $ty:ty = $read:expr, $($rest:tt)*]
        $($acc:tt)*) => {
        metrics!(@row $h [$($rest)*] $($acc)*
            {[] [$(#[doc = $d])* $name: $ty,] [$name: $ty,] [] [let $name: $ty = $read;] [($name)]});
    };
    (@row $h:tt [$(#[doc = $d:literal])* $name:ident: $ty:ty = $read:expr, $($rest:tt)*]
        $($acc:tt)*) => {
        metrics!(@row $h [$($rest)*] $($acc)*
            {[] [$(#[doc = $d])* $name: $ty,] [] [let $name: $ty = $read;] [] [($name)]});
    };
    (@row [$m:ident $rec:ident $pool:ident] [] $({
        [$($(#[doc = $ed:literal])* $e:ident: $ety:ty,)*]
        [$($(#[doc = $fd:literal])* $f:ident: $fty:ty,)*]
        [$($sf:ident: $sty:ty,)*] [$($l:tt)*] [$($sl:tt)*] [$($j:tt)*]
    })*) => {
        /// Shared engine counters, updated with relaxed atomics; a
        /// [`snapshot`](EngineMetrics::snapshot) is consistent enough to report.
        #[derive(Debug)]
        pub struct EngineMetrics {
            started_at: Instant,
            /// The metric lanes; none when there is one.
            shard_lanes: Vec<ShardLane>,
            $($($(#[doc = $ed])* pub $e: $ety,)*)*
        }

        /// The fields of a [`MetricsSnapshot`] read off histograms, frozen
        /// together: what a live snapshot samples rather than reads.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub(crate) struct Distributions {
            $($($sf: $sty,)*)*
        }

        impl EngineMetrics {
            /// Fresh metrics with `shards` lanes, clamped to 1..=64 (a
            /// footprint keeps one bit a lane); one lane keeps no counters.
            pub fn with_shards(shards: usize) -> Self {
                let lanes = shards.min(u64::BITS as usize);
                EngineMetrics {
                    started_at: Instant::now(),
                    shard_lanes: (0..if lanes > 1 { lanes } else { 0 })
                        .map(|_| ShardLane::default()).collect(),
                    $($($e: Default::default(),)*)*
                }
            }

            /// A point-in-time copy of every metric, `rec` and `pool` read in.
            pub fn snapshot(&self, $rec: RecorderStats, $pool: PoolStats) -> MetricsSnapshot {
                self.snapshot_with($rec, $pool, &self.distributions())
            }

            /// Every histogram-backed field, read now.
            pub(crate) fn distributions(&self) -> Distributions {
                let $m = self;
                $($($sl)*)*
                Distributions { $($($sf,)*)* }
            }

            /// Every other field read now, beside `rec`, `pool` and the
            /// histogram-backed fields `d`, however old those are.
            pub(crate) fn snapshot_with(
                &self,
                $rec: RecorderStats,
                $pool: PoolStats,
                d: &Distributions,
            ) -> MetricsSnapshot {
                let $m = self;
                let Distributions { $($($sf,)*)* } = *d;
                $($($l)*)*
                MetricsSnapshot { $($($f,)*)* }
            }
        }

        /// Frozen view of [`EngineMetrics`] for reporting.
        #[derive(Debug, Clone, PartialEq)]
        pub struct MetricsSnapshot {
            $($($(#[doc = $fd])* pub $f: $fty,)*)*
        }

        impl MetricsSnapshot {
            /// A JSON object (hand-rolled, no serde), durations in ns, keys in order.
            pub fn to_json(&self) -> String {
                let mut s = String::from("{");
                $($(metrics!(@json self s $j);)*)*
                close(&mut s, "}");
                s
            }

            /// The histogram-backed fields of this snapshot.
            #[cfg(test)]
            pub(crate) fn distributions(&self) -> Distributions {
                Distributions { $($($sf: self.$sf,)*)* }
            }
        }
    };
    (@json $self:ident $s:ident ($name:ident)) => {
        Json::json(&$self.$name, &mut $s, stringify!($name))
    };
    (@json $self:ident $s:ident ($key:ident [$($sub:ident: $name:ident),*])) => {{
        $s.push_str(concat!("\"", stringify!($key), "\":{"));
        $(Json::json(&$self.$name, &mut $s, stringify!($sub));)*
        close(&mut $s, "},");
    }};
}

metrics! {
    m, rec, pool;
    /// Wall-clock time since the engine started.
    elapsed: Duration = m.started_at.elapsed(),
    /// Jobs admitted to the queue.
    submitted: counter,
    /// Jobs whose transaction committed.
    committed: counter,
    /// Jobs dropped after exhausting retries.
    aborted: counter,
    /// Abort-and-retry events (deadlock victims, validation failures, injected faults).
    retries: counter,
    /// Lock acquisitions that blocked at least once under strict 2PL.
    lock_blocks: counter,
    /// Lock-stripe mutex acquisitions under strict 2PL that found the mutex
    /// held: two workers met on a stripe, whether or not their grants conflict.
    lock_stripe_contended: counter,
    /// Deadlock cycles broken, one victim each, under strict 2PL.
    deadlock_victims: counter,
    /// Submissions rejected by admission control (queue full).
    shed: counter,
    /// Jobs dropped because their deadline passed before commit.
    deadline_expired: counter,
    /// Actions fed to certification-time dependency inference, reseed replays included.
    cert_actions_inferred: counter,
    /// Times the certifier rebuilt its live schedules from the restricted history (garbage grew).
    cert_incremental_reseeds: counter,
    /// Nodes expanded by the certifier's candidate-rooted Definition-16 search; repeatable.
    cert_check_visited: counter,
    /// Committed transactions the certifier's cut dropped from its relations.
    cert_settled: counter,
    /// Gauge: primitives the certifier holds — the history a commit is checked against.
    cert_retained_actions: counter,
    /// False when the engine records nothing (strict 2PL, audit off); `rec_*` are then 0.
    recording: bool = rec.enabled,
    /// Recorder drains: one per transaction finished, certification round and audit.
    rec_drains: u64 = rec.drains,
    /// Opportunistic drains that found the record lock held and left their entries.
    rec_drains_skipped: u64 = rec.drains_skipped,
    /// Time the drains held the record lock, summed; ÷ `rec_drains` = one drain's cost.
    rec_drain_hold_ns: u64 = rec.drain_hold_ns,
    /// Most actions one transaction had staged when a drain took them (≤ `STAGE_BOUND`).
    rec_staged_peak: u64 = rec.staged_peak as u64,
    /// Page requests served from a resident frame: latched visits (a run
    /// that records nothing reads inner B-link nodes without a latch).
    pool_hits: u64 = pool.hits,
    /// Page requests that loaded the page from the disk sim.
    pool_misses: u64 = pool.misses,
    /// Frames the pool evicted to make room.
    pool_evictions: u64 = pool.evictions,
    /// Dirty pages eviction wrote back to the disk sim.
    pool_writebacks: u64 = pool.writebacks,
    /// Page-latch acquisitions that found the latch held in a conflicting mode and blocked.
    pool_latch_waits: u64 = pool.latch_waits,
    /// Write-ahead-log records appended (zero with durability off).
    wal_appends: counter,
    /// Write-ahead-log bytes appended, including framing.
    wal_bytes: counter,
    /// Log forces (simulated fsyncs) issued by the log flusher.
    fsyncs: counter,
    /// Flushes that made at least one commit record durable.
    group_commits: counter,
    /// Commits those flushes acknowledged, summed.
    group_committed: store AtomicU64,
    /// Flushes by what ended their gather, indexed by [`FlushReason`].
    wal_flush_reasons: store [AtomicU64; 3],
    /// Flushes whose gather ended with `max_batch` commits parked.
    wal_flush_full: u64 = m.wal_flush_reasons[FlushReason::Full as usize].load(Ordering::Relaxed),
    /// Flushes whose gather ended on `max_wait`.
    wal_flush_deadline: u64 =
        m.wal_flush_reasons[FlushReason::Deadline as usize].load(Ordering::Relaxed),
    /// Flushes whose gather ended because nothing admitted could still join.
    wal_flush_idle: u64 = m.wal_flush_reasons[FlushReason::Idle as usize].load(Ordering::Relaxed),
    /// Most acknowledgements ever parked at once ([`PARK_BOUND`](crate::durability::PARK_BOUND)).
    wal_parked_peak: counter,
    /// Logged commits the flusher acknowledged (`phase_fsync`'s samples).
    wal_commits_acked: sampled u64 = m.phase_fsync.len(),
    /// Mean commits acknowledged per flush, exact (0.0 when none).
    wal_group_mean: f64 =
        m.group_committed.load(Ordering::Relaxed) as f64 / group_commits.max(1) as f64,
    /// Commits acknowledged per log flush ([`EngineMetrics::record_group`]).
    wal_group_size: values(wal_group_buckets, wal_group),
    /// The admission queue's gauges, kept current by the [`JobQueue`](crate::JobQueue).
    queue: store Arc<QueueGauges>,
    /// Queue depth at snapshot time.
    queue_depth: usize = m.queue.depth.load(Ordering::Relaxed),
    /// Pushes that signalled a parked consumer (≈ 0 per job in a closed loop).
    queue_consumer_wakes: u64 = m.queue.consumer_wakes.load(Ordering::Relaxed),
    /// Timed re-checks of a parked consumer that found a job stranded: 0 on a correct queue.
    queue_timed_wakeups_with_work: u64 = m.queue.timed_wakeups_with_work.load(Ordering::Relaxed),
    /// Committed transactions per second since engine start.
    throughput_per_sec: f64 = committed as f64 / elapsed.as_secs_f64().max(1e-9),
    /// Time spent acquiring operation grants (certification waits show up in `e2e`).
    lock_wait: latency(lock_wait_p50, lock_wait_p99, lock_wait_p999),
    /// End-to-end latency from submission to commit.
    e2e: latency(e2e_p50, e2e_p99, e2e_p999),
    phases {
        /// Phase: submission-to-worker-pop queue wait (preloads bypass it).
        queue: phase_queue,
        /// Phase: grant or certification wait of the committing attempt.
        wait: phase_wait,
        /// Phase: execution of the committing attempt, waits excluded.
        exec: phase_exec,
        /// Phase: commit-record append to the log flusher's ack; empty with durability off.
        fsync: phase_fsync,
        /// Phase: the worker's drain of the recorder after the ack, on its time, not the txn's.
        drain: phase_drain,
    },
    /// Committed transactions whose footprint spanned more than one shard.
    cross_shard: counter,
    /// The metric lanes (empty with one lane).
    shards: Vec<ShardLaneSnapshot> = m.shard_lanes.iter().map(|l| ShardLaneSnapshot {
        ops: l.ops.load(Ordering::Relaxed), commits: l.commits.load(Ordering::Relaxed) }).collect(),
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
        assert_eq!(h.quantiles().p99, Duration::ZERO);
    }

    /// Quantiles read while another thread records land in a bucket that
    /// holds samples: the ranks and the total come from one copy of the
    /// buckets, so no rank is out of reach and nothing falls back.
    #[test]
    fn quantiles_read_beside_a_recorder_stay_inside_the_recorded_buckets() {
        let h = Histogram::default();
        let (lo, hi) = (Duration::from_micros(10), Duration::from_millis(3));
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..20_000 {
                    h.record(if i % 100 == 0 { hi } else { lo });
                }
            });
            for _ in 0..2_000 {
                let q = h.quantiles();
                for p in [q.p50, q.p99, q.p999] {
                    assert!(
                        p == Duration::ZERO
                            || (Duration::from_nanos(1 << 13)..Duration::from_nanos(1 << 22))
                                .contains(&p),
                        "{q:?} left the recorded buckets"
                    );
                }
                assert!(q.p50 <= q.p99 && q.p99 <= q.p999, "{q:?}");
            }
        });
        assert_eq!(h.len(), 20_000);
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

    /// `s` with the number after each of `keys` replaced by `_`: the
    /// clock-derived values, the only ones a fixed script does not fix.
    fn mask(s: &str, keys: &[&str]) -> String {
        let mut s = s.to_owned();
        for key in keys {
            let at = s.find(key).unwrap_or_else(|| panic!("no {key} in {s}")) + key.len();
            let len = s[at..]
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(s.len() - at);
            s.replace_range(at..at + len, "_");
        }
        s
    }

    #[test]
    fn key_hash_is_stable_and_in_range() {
        for n in [1usize, 2, 4, 8] {
            for i in 0..64 {
                let k = format!("k{i:06}");
                let s = shard_of_key(&k, n);
                assert!(s < n);
                assert_eq!(s, shard_of_key(&k, n), "deterministic");
            }
        }
        // the hash actually spreads keys
        let hits: std::collections::HashSet<usize> = (0..64)
            .map(|i| shard_of_key(&format!("k{i:06}"), 8))
            .collect();
        assert!(hits.len() >= 4, "64 keys must reach ≥4 of 8 lanes");
    }

    #[test]
    fn keyed_ops_route_to_one_lane_scans_to_all_and_one_lane_to_zero() {
        let alpha = EncOp::Insert("alpha".into());
        let range = EncOp::Range("a".into(), "z".into());
        assert_eq!(
            ShardRoute::of(&alpha, 4),
            ShardRoute::One(shard_of_key("alpha", 4))
        );
        assert_eq!(ShardRoute::of(&EncOp::ReadSeq, 4), ShardRoute::All);
        assert_eq!(ShardRoute::of(&range, 4), ShardRoute::All);
        // same key, same lane — conflicts always meet
        assert_eq!(
            ShardRoute::of(&EncOp::Change("alpha".into()), 4),
            ShardRoute::of(&EncOp::Delete("alpha".into()), 4)
        );
        for op in [alpha, EncOp::ReadSeq, range] {
            assert_eq!(ShardRoute::of(&op, 1), ShardRoute::One(0), "{op:?}");
        }
    }

    /// An operation counts on the lanes it routes to, and a commit whose
    /// operations reached more than one lane is cross-shard. One lane
    /// keeps no counters.
    #[test]
    fn operations_and_commits_count_on_their_lanes() {
        assert_eq!(
            EngineMetrics::with_shards(1000).lanes(),
            64,
            "one bit a lane"
        );
        let m = EngineMetrics::with_shards(4);
        assert_eq!(m.lanes(), 4);
        let alpha = m.shard_op(&EncOp::Search("alpha".into()));
        assert_eq!(alpha, 1 << shard_of_key("alpha", 4));
        assert_eq!(m.shard_op(&EncOp::ReadSeq), 0b1111);
        m.commit_lanes(alpha);
        m.commit_lanes(0b1111);
        let count = |l: usize| {
            let lane = &m.shard_lanes[l];
            let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
            (load(&lane.ops), load(&lane.commits))
        };
        for l in 0..4 {
            let mine = u64::from(alpha >> l & 1 != 0);
            assert_eq!(count(l), (1 + mine, 1 + mine), "lane {l}");
        }
        assert_eq!(m.cross_shard.load(Ordering::Relaxed), 1);
        let one = EngineMetrics::new();
        assert_eq!(one.lanes(), 1);
        assert_eq!(one.shard_op(&EncOp::ReadSeq), 0);
    }

    /// A key on lane `l` of 2.
    fn lane_key(l: usize) -> String {
        (0..)
            .map(|i| format!("k{i}"))
            .find(|k| shard_of_key(k, 2) == l)
            .expect("both lanes are reached")
    }

    /// The fixed counters [`snapshot_json_shape`] and
    /// [`metrics_line_is_pinned`] read: nearly every value differs from
    /// its neighbours', so two fields swapped in the output show.
    fn fixed_snapshot() -> MetricsSnapshot {
        let m = EngineMetrics::with_shards(2);
        m.submitted.fetch_add(17, Ordering::Relaxed);
        m.committed.fetch_add(3, Ordering::Relaxed);
        m.aborted.fetch_add(12, Ordering::Relaxed);
        m.retries.fetch_add(8, Ordering::Relaxed);
        m.lock_blocks.fetch_add(4, Ordering::Relaxed);
        m.lock_stripe_contended.fetch_add(6, Ordering::Relaxed);
        m.deadlock_victims.fetch_add(1, Ordering::Relaxed);
        m.shed.fetch_add(13, Ordering::Relaxed);
        m.deadline_expired.fetch_add(14, Ordering::Relaxed);
        m.cert_actions_inferred.fetch_add(21, Ordering::Relaxed);
        m.cert_incremental_reseeds.fetch_add(22, Ordering::Relaxed);
        m.cert_check_visited.fetch_add(23, Ordering::Relaxed);
        m.cert_settled.fetch_add(24, Ordering::Relaxed);
        m.cert_retained_actions.fetch_add(25, Ordering::Relaxed);
        m.shard_op(&EncOp::Search(lane_key(0)));
        m.commit_lanes(0b10);
        m.commit_lanes(0b11);
        // a thousand samples in one bucket: p50, p99 and p999 differ
        for _ in 0..1000 {
            m.lock_wait.record(Duration::from_micros(20));
            m.e2e.record(Duration::from_millis(1));
            m.phase_exec.record(Duration::from_micros(9));
        }
        m.phase_queue.record(Duration::from_micros(2));
        m.phase_wait.record(Duration::from_micros(40));
        m.phase_drain.record(Duration::from_nanos(700));
        m.wal_appends.fetch_add(9, Ordering::Relaxed);
        m.wal_bytes.fetch_add(412, Ordering::Relaxed);
        m.fsyncs.fetch_add(2, Ordering::Relaxed);
        m.group_commits.fetch_add(1, Ordering::Relaxed);
        m.wal_flush_reasons[FlushReason::Deadline as usize].fetch_add(1, Ordering::Relaxed);
        m.wal_flush_reasons[FlushReason::Idle as usize].fetch_add(1, Ordering::Relaxed);
        m.wal_parked_peak.fetch_max(5, Ordering::Relaxed);
        m.phase_fsync.record(Duration::from_micros(300));
        m.record_group(2);
        m.queue.depth.store(15, Ordering::Relaxed);
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
            misses_in_flight_peak: 1,
        };
        m.snapshot(rec, pool)
    }

    /// The metrics line, byte for byte but for the rate.
    #[test]
    fn metrics_line_is_pinned() {
        let line = mask(&fixed_snapshot().to_string(), &["committed 3 ("]);
        assert_eq!(
            line,
            "committed 3 (_/s) aborted 12 retries 8 shed 13 expired 14 depth 15 \
             consumer-wakes 11 (timed with work 0) lock-blocks 4 deadlock-victims 1 \
             stripe-contended 6 lock-wait p50/p99 23.162µs/32.53µs \
             e2e p50/p99 741.198µs/1.040972ms \
             rec-drains 7 (skipped 3, hold 1.285µs, staged peak 42) \
             pool hits 70 misses 6 (evicted 5, written back 4) latch-waits 2 \
             cert-inferred 21 (reseeds 22, check visited 23, settled 24, retained 25) \
             wal 9 recs/412 B fsyncs 2 (full 0, deadline 1, idle 1) group-mean 1.0 \
             parked-peak 5 cross-shard 1 shard-ops [1, 0]"
        );
    }

    #[test]
    fn snapshot_json_shape() {
        let json = fixed_snapshot().to_json();
        assert_eq!(
            mask(&json, &["\"elapsed_ns\":", "\"throughput_per_sec\":"]),
            concat!(
                r#"{"elapsed_ns":_,"submitted":17,"committed":3,"aborted":12,"retries":8,"#,
                r#""lock_blocks":4,"lock_stripe_contended":6,"deadlock_victims":1,"shed":13,"#,
                r#""deadline_expired":14,"cert_actions_inferred":21,"#,
                r#""cert_incremental_reseeds":22,"cert_check_visited":23,"cert_settled":24,"#,
                r#""cert_retained_actions":25,"recording":true,"rec_drains":7,"#,
                r#""rec_drains_skipped":3,"rec_drain_hold_ns":9000,"rec_staged_peak":42,"#,
                r#""pool_hits":70,"pool_misses":6,"pool_evictions":5,"pool_writebacks":4,"#,
                r#""pool_latch_waits":2,"wal_appends":9,"wal_bytes":412,"fsyncs":2,"#,
                r#""group_commits":2,"wal_flush_full":0,"wal_flush_deadline":1,"#,
                r#""wal_flush_idle":1,"wal_parked_peak":5,"wal_commits_acked":1,"#,
                r#""wal_group_mean":1.000,"wal_group_buckets":[0,1],"wal_group_p50":3,"#,
                r#""wal_group_p99":3,"wal_group_p999":3,"queue_depth":15,"#,
                r#""queue_consumer_wakes":11,"queue_timed_wakeups_with_work":0,"#,
                r#""throughput_per_sec":_,"lock_wait_p50_ns":23162,"#,
                r#""lock_wait_p99_ns":32530,"lock_wait_p999_ns":32734,"e2e_p50_ns":741198,"#,
                r#""e2e_p99_ns":1040972,"e2e_p999_ns":1047486,"#,
                r#""phases":{"queue":{"p50_ns":1448,"p99_ns":1448,"p999_ns":1448},"#,
                r#""wait":{"p50_ns":46341,"p99_ns":46341,"p999_ns":46341},"#,
                r#""exec":{"p50_ns":11581,"p99_ns":16265,"p999_ns":16367},"#,
                r#""fsync":{"p50_ns":370728,"p99_ns":370728,"p999_ns":370728},"#,
                r#""drain":{"p50_ns":724,"p99_ns":724,"p999_ns":724}},"cross_shard":1,"#,
                r#""shards":[{"ops":1,"commits":1},{"ops":0,"commits":2}]}"#,
            )
        );
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
