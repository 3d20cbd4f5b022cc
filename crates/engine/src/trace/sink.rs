//! The trace sink: a per-worker-lane, lock-free, bounded ring. Writers
//! claim a slot with one `fetch_add` on their lane's cursor and publish
//! it with one `Release` store, so tracing never blocks a worker. A
//! lane's slots are allocated a chunk at a time by the first writer to
//! reach the chunk, so a sink costs what the run records, not what it
//! could hold. When a lane fills, new events are dropped (drop-newest)
//! and counted. With tracing off there is no sink at all (see
//! [`super::Tracer`]).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use super::event::TraceEvent;

/// Everything drained out of a sink at shutdown.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// All captured events, sorted by `seq`.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow (drop-newest).
    pub dropped: u64,
}

/// One ring slot. `ready` is the publication flag: the writer fills the
/// cell, then stores `ready = true` with `Release`; the drainer reads
/// `ready` with `Acquire` before touching the cell.
struct Slot {
    ready: AtomicBool,
    ev: UnsafeCell<Option<TraceEvent>>,
}

// SAFETY: cross-thread access to `ev` is mediated by the slot-claim
// protocol — `Lane::cursor.fetch_add` hands each writer a distinct slot
// index, so no two writers ever touch the same cell, and the drainer
// only reads cells whose `ready` flag it has Acquire-loaded as true
// (pairing with the writer's Release store).
unsafe impl Sync for Slot {}

/// Slots per lazily allocated chunk of a lane.
const CHUNK: usize = 1024;

/// One worker's private segment of the ring.
struct Lane {
    cursor: AtomicUsize,
    dropped: AtomicU64,
    capacity: usize,
    /// `capacity` slots in chunks of [`CHUNK`]; a chunk is allocated by
    /// the first writer that claims a slot in it.
    chunks: Box<[OnceLock<Box<[Slot]>>]>,
}

impl Lane {
    fn new(capacity: usize) -> Self {
        Lane {
            cursor: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            capacity,
            chunks: (0..capacity.div_ceil(CHUNK))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    fn new_chunk() -> Box<[Slot]> {
        (0..CHUNK)
            .map(|_| Slot {
                ready: AtomicBool::new(false),
                ev: UnsafeCell::new(None),
            })
            .collect()
    }

    fn record(&self, ev: TraceEvent) {
        // Claim a slot. fetch_add makes this multi-writer safe even
        // though a lane normally has one writer (the external lane is
        // shared by every off-pool thread).
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        if idx >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let slot = &self.chunks[idx / CHUNK].get_or_init(Self::new_chunk)[idx % CHUNK];
        // SAFETY: `idx` was handed out exactly once, so this thread is
        // the only writer of this cell, and `ready` is still false so
        // the drainer is not reading it.
        unsafe {
            *slot.ev.get() = Some(ev);
        }
        slot.ready.store(true, Ordering::Release);
    }

    fn drain_into(&self, out: &mut Vec<TraceEvent>) -> u64 {
        // every written slot lies in an allocated chunk and is `ready`
        for slot in self.chunks.iter().filter_map(OnceLock::get).flatten() {
            if slot.ready.load(Ordering::Acquire) {
                // SAFETY: ready == true (Acquire) pairs with the
                // writer's Release store, and drain runs after the
                // worker pool has joined.
                if let Some(ev) = unsafe { (*slot.ev.get()).take() } {
                    out.push(ev);
                }
            }
        }
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Lock-free bounded ring sink with one lane per worker plus one shared
/// lane for off-pool threads (submission, preload).
pub struct RingSink {
    lanes: Box<[Lane]>,
}

impl RingSink {
    /// `workers` pool threads, each lane holding up to
    /// `capacity_per_lane` events. A final extra lane catches events
    /// from outside the pool.
    pub fn new(workers: usize, capacity_per_lane: usize) -> Self {
        let lanes = (0..workers + 1)
            .map(|_| Lane::new(capacity_per_lane))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        RingSink { lanes }
    }

    /// Accept one event into lane `lane`: the emitting worker's index,
    /// or any larger value for off-pool threads, which share the last
    /// lane. Safe to call from every thread concurrently.
    pub fn record(&self, lane: usize, ev: TraceEvent) {
        let lane = lane.min(self.lanes.len() - 1);
        self.lanes[lane].record(ev);
    }

    /// Take every captured event, sorted by `seq`. Called once, after
    /// the worker pool has joined, so no `record` runs beside it.
    pub fn drain(&self) -> TraceLog {
        let mut events = Vec::new();
        let mut dropped = 0;
        for lane in self.lanes.iter() {
            dropped += lane.drain_into(&mut events);
        }
        events.sort_by_key(|ev| ev.seq);
        TraceLog { events, dropped }
    }
}

#[cfg(test)]
mod tests {
    use super::super::event::{TraceEventKind, TXN_NONE};
    use super::*;
    use std::sync::Arc;

    fn ev(seq: u64) -> TraceEvent {
        TraceEvent {
            seq,
            t_ns: seq * 10,
            job: seq,
            attempt: 0,
            txn: TXN_NONE,
            worker: 0,
            kind: TraceEventKind::Committed,
        }
    }

    #[test]
    fn ring_drain_merges_lanes_sorted_by_seq() {
        let s = RingSink::new(2, 8);
        s.record(1, ev(2));
        s.record(0, ev(1));
        s.record(2, ev(3)); // external lane
        s.record(99, ev(4)); // out-of-range routes to external lane
        let log = s.drain();
        let seqs: Vec<u64> = log.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn ring_overflow_drops_newest_and_counts() {
        let s = RingSink::new(1, 4);
        for i in 0..10 {
            s.record(0, ev(i));
        }
        let log = s.drain();
        assert_eq!(log.events.len(), 4);
        assert_eq!(log.dropped, 6);
        // Drop-newest: the first four survive.
        let seqs: Vec<u64> = log.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn lane_chunks_are_allocated_on_first_use() {
        let capacity = 2 * CHUNK + 5;
        let s = RingSink::new(1, capacity);
        let allocated = |lane: &Lane| lane.chunks.iter().filter(|c| c.get().is_some()).count();
        assert_eq!(s.lanes[0].chunks.len(), 3);
        assert_eq!(allocated(&s.lanes[0]), 0, "a fresh sink holds no slots");
        s.record(0, ev(0));
        assert_eq!(allocated(&s.lanes[0]), 1);
        assert_eq!(allocated(&s.lanes[1]), 0, "the unused lane stays empty");
        // across both chunk boundaries and past the capacity
        for i in 1..capacity as u64 + 3 {
            s.record(0, ev(i));
        }
        let log = s.drain();
        assert_eq!(log.events.len(), capacity);
        assert_eq!(log.dropped, 3);
        assert_eq!(log.events.last().unwrap().seq, capacity as u64 - 1);
    }

    #[test]
    fn ring_concurrent_writers_lose_nothing_within_capacity() {
        let s = Arc::new(RingSink::new(4, 1024));
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    s.record(w as usize, ev(w * 1000 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let log = s.drain();
        assert_eq!(log.events.len(), 4000);
        assert_eq!(log.dropped, 0);
        // Sorted by seq and all distinct.
        for pair in log.events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }
}
