//! Engine configuration: worker pool sizing, admission control, retry
//! policy, and deadlines.

use std::time::Duration;

/// Which concurrency-control strategy the engine runs, and at what
/// granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CcKind {
    /// Semantic strict two-phase locking with deadlock detection and
    /// compensation-based victim abort (the paper's open-nested
    /// discipline, §4–§5).
    #[default]
    Pessimistic,
    /// Pessimistic locking at page granularity: every operation is
    /// flattened to a whole-container read or write. The conventional
    /// baseline the paper argues against.
    PessimisticPage,
    /// Optimistic certification: transactions execute without semantic
    /// locks, with writes deferred to the commit point; reads see
    /// committed state when issued. At commit the deferred writes are
    /// installed and validated against Definition 16 in one critical
    /// section.
    Optimistic,
}

/// Whether commits go through the write-ahead log, and when the log
/// flusher forces it (see [`crate::durability`]). No worker ever waits
/// for the device: a commit's *acknowledgement* does, parked with the
/// flusher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// No logging at all: commits are memory-only, exactly the
    /// pre-durability engine. The default, so benchmarks that do not
    /// measure durability keep their numbers.
    #[default]
    Off,
    /// Group commit: the flusher gathers parked commits and issues one
    /// fsync for all of them once `max_batch` are parked, or `max_wait`
    /// has passed, or nothing admitted could still join (no job queued,
    /// none executing), whichever first. A group of one (`max_batch: 1`)
    /// forces once per logged commit — the unbatched baseline experiment
    /// B14 counts group commit against.
    Group {
        /// Flush once this many commits are parked.
        max_batch: usize,
        /// Flush once the oldest parked commit has waited this long,
        /// even if the batch is short.
        max_wait: Duration,
    },
}

impl DurabilityMode {
    /// Short label used in metrics and experiment tables.
    pub fn label(self) -> String {
        match self {
            DurabilityMode::Off => "off".to_string(),
            DurabilityMode::Group { max_batch, .. } => format!("group({max_batch})"),
        }
    }

    /// True when commits go through the write-ahead log.
    pub fn is_on(self) -> bool {
        self != DurabilityMode::Off
    }
}

/// Where trace events go (see [`crate::trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No tracing: the hot path pays one branch per would-be event.
    #[default]
    Off,
    /// Per-worker lock-free bounded ring buffers, drained at shutdown
    /// into [`EngineOutput::trace`](crate::EngineOutput::trace). When a
    /// lane fills, further events from that lane are dropped (and
    /// counted) rather than blocking the worker.
    Ring {
        /// Capacity of each worker's lane, in events.
        capacity_per_lane: usize,
    },
}

impl TraceMode {
    /// Ring-buffer tracing with a default per-lane capacity generous
    /// enough for the test workloads (64k events per worker).
    pub fn ring() -> Self {
        TraceMode::Ring {
            capacity_per_lane: 65_536,
        }
    }
}

/// Tunables for an [`Engine`](crate::Engine) instance.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of worker threads processing transactions.
    pub workers: usize,
    /// Admission-queue capacity. [`Engine::submit`](crate::Engine::submit)
    /// sheds (rejects) work when the queue is full;
    /// [`Engine::submit_blocking`](crate::Engine::submit_blocking)
    /// applies backpressure instead.
    pub queue_capacity: usize,
    /// Maximum retry attempts per transaction after aborts (deadlock
    /// victim, validation failure). The first execution is attempt 0;
    /// a job gives up after `max_retries` re-executions.
    pub max_retries: u32,
    /// Base delay of the exponential retry backoff (doubles per attempt).
    pub base_backoff: Duration,
    /// Cap on the backoff delay regardless of attempt count.
    pub max_backoff: Duration,
    /// Per-transaction deadline measured from submission; a job whose
    /// deadline passes before it commits is dropped (counted as
    /// `deadline_expired`). `None` disables deadlines.
    pub txn_deadline: Option<Duration>,
    /// Seed for the deterministic backoff jitter. Two engines with the
    /// same seed produce identical retry schedules for the same job ids
    /// and attempt numbers.
    pub seed: u64,
    /// B-link tree fanout of the underlying encyclopedia.
    pub fanout: usize,
    /// Number of metric lanes the key space is accounted over by key hash
    /// (per-lane operations and commits, and the cross-shard counter),
    /// clamped once to 1..=64, for every control alike. No decision
    /// depends on it: strict 2PL has one lock table striped by key hash
    /// ([`STRIPES`](crate::STRIPES) stripes) and the optimistic strategy
    /// one certifier, at every value. `1` (the default) keeps no lanes.
    pub shards: usize,
    /// Record and verify the execution on shutdown: pessimistic runs
    /// audit the complete record (including aborted attempts and their
    /// compensations), optimistic runs audit the committed projection.
    /// Off, strict 2PL records nothing at all — nobody would read it —
    /// while the optimistic control still records, for its certifier.
    pub audit: bool,
    /// Structured lifecycle tracing (see [`crate::trace`]). Off by
    /// default; [`TraceMode::ring`] captures events into per-worker
    /// ring buffers drained at shutdown.
    pub trace: TraceMode,
    /// Commit durability: [`DurabilityMode::Off`] (the default) keeps
    /// commits memory-only; [`DurabilityMode::Group`] appends redo +
    /// compensation records to a write-ahead log while the operation's
    /// lock (or the install gate) still orders it, and acknowledges a
    /// commit — counts it, traces it — only once its commit record is
    /// durable; the worker parks the acknowledgement with the log flusher
    /// and moves on (see [`crate::durability`]).
    pub durability: DurabilityMode,
    /// Simulated latency of one log force (fsync). Zero by default so
    /// tests run fast; experiment B14 and the benchmark's `durable_write`
    /// workload raise it, so that commits park and flushes gather.
    pub fsync_latency: Duration,
    /// Buffer-pool capacity, in frames, of the underlying encyclopedia.
    pub pool_frames: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            queue_capacity: 64,
            max_retries: 8,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(20),
            txn_deadline: None,
            seed: 0,
            fanout: 8,
            shards: 1,
            audit: true,
            trace: TraceMode::Off,
            durability: DurabilityMode::Off,
            fsync_latency: Duration::ZERO,
            pool_frames: 4096,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = EngineConfig::default();
        assert!(c.workers >= 1);
        assert!(c.queue_capacity >= c.workers);
        assert!(c.base_backoff <= c.max_backoff);
        assert_eq!(c.shards, 1, "metric lanes are opt-in");
        assert_eq!(c.trace, TraceMode::Off, "tracing is opt-in");
        assert!(
            matches!(TraceMode::ring(), TraceMode::Ring { capacity_per_lane } if capacity_per_lane > 0)
        );
        assert_eq!(CcKind::default(), CcKind::Pessimistic);
        assert_eq!(
            c.durability,
            DurabilityMode::Off,
            "durability is opt-in so existing benches keep their numbers"
        );
        assert_eq!(c.fsync_latency, Duration::ZERO);
        assert!(!DurabilityMode::Off.is_on());
        let one = DurabilityMode::Group {
            max_batch: 1,
            max_wait: Duration::ZERO,
        };
        assert!(one.is_on());
        assert_eq!(one.label(), "group(1)");
        assert_eq!(
            DurabilityMode::Group {
                max_batch: 8,
                max_wait: Duration::from_millis(1),
            }
            .label(),
            "group(8)"
        );
        assert!(c.pool_frames >= 64);
    }
}
