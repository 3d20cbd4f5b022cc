//! The trace sink: one bounded buffer per worker lane, each behind its
//! own mutex. A worker locks only its own lane, so tracing adds no
//! synchronisation between two workers that an untraced run lacks; the
//! last lane, the external one, is shared by every thread off the pool
//! (the submitter, the preload, the log flusher). A lane grows with what
//! the run records, up to [`LANE_CAPACITY`] events; past it new events
//! are dropped (drop-newest) and counted. With tracing off there is no
//! sink at all (see [`super::Tracer`]).

use parking_lot::Mutex;

use super::event::TraceEvent;

/// Events each lane holds before it drops the newest: generous enough
/// for every test workload.
pub const LANE_CAPACITY: usize = 65_536;

/// Everything drained out of a sink at shutdown.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// All captured events, sorted by `seq`.
    pub events: Vec<TraceEvent>,
    /// Events lost to a full lane (drop-newest).
    pub dropped: u64,
}

/// One lane's events and the count it dropped.
#[derive(Default)]
struct Lane {
    events: Vec<TraceEvent>,
    dropped: u64,
}

/// A bounded sink with one lane per worker plus one shared lane for
/// threads off the pool.
pub struct RingSink {
    lanes: Box<[Mutex<Lane>]>,
    capacity: usize,
}

impl RingSink {
    /// `workers` pool threads, each lane holding up to
    /// `capacity_per_lane` events. A final extra lane catches events
    /// from outside the pool.
    pub fn new(workers: usize, capacity_per_lane: usize) -> Self {
        RingSink {
            lanes: (0..workers + 1)
                .map(|_| Mutex::new(Lane::default()))
                .collect(),
            capacity: capacity_per_lane,
        }
    }

    /// Accept one event into lane `lane`: the emitting worker's index,
    /// or any larger value for off-pool threads, which share the last
    /// lane. Safe to call from every thread concurrently.
    pub fn record(&self, lane: usize, ev: TraceEvent) {
        let mut lane = self.lanes[lane.min(self.lanes.len() - 1)].lock();
        if lane.events.len() < self.capacity {
            lane.events.push(ev);
        } else {
            lane.dropped += 1;
        }
    }

    /// Take every captured event, sorted by `seq`. Called once, after
    /// the worker pool has joined.
    pub fn drain(&self) -> TraceLog {
        let mut log = TraceLog::default();
        for lane in self.lanes.iter() {
            let mut lane = lane.lock();
            log.events.append(&mut lane.events);
            log.dropped += lane.dropped;
        }
        log.events.sort_by_key(|ev| ev.seq);
        log
    }
}

#[cfg(test)]
mod tests {
    use super::super::event::{TraceEventKind, TXN_NONE};
    use super::*;

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
    fn ring_concurrent_writers_lose_nothing_within_capacity() {
        let s = RingSink::new(4, 1024);
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        s.record(w as usize, ev(w * 1000 + i));
                    }
                });
            }
        });
        let log = s.drain();
        assert_eq!(log.events.len(), 4000);
        assert_eq!(log.dropped, 0);
        // Sorted by seq and all distinct.
        for pair in log.events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }
}
