//! Concurrent page misses overlap their device reads.
//!
//! A miss claims its frame under the pool's clock mutex, then releases
//! the mutex and reads the page holding only that frame, so readers that
//! miss on different pages wait for the device side by side. Eight
//! threads search disjoint key ranges of an encyclopedia whose pool holds
//! a fraction of its pages, with a simulated device read of 1.2 ms per
//! miss. The check is a count, `PoolStats::misses_in_flight_peak`: a pool
//! that read under the clock mutex would keep it at 1 whatever the host.

use oodb_btree::{Encyclopedia, EncyclopediaConfig};
use oodb_model::Recorder;
use std::sync::Barrier;
use std::thread;
use std::time::Duration;

const KEYS: usize = 1024;
const THREADS: usize = 8;
/// Searches per thread; each steps 5 keys on, about a leaf at fanout 8.
const SEARCHES: usize = 24;

fn key(n: usize) -> String {
    format!("k{n:04}")
}

fn text(n: usize) -> String {
    format!("text {n}")
}

#[test]
fn concurrent_searches_overlap_their_page_misses() {
    let rec = Recorder::disabled();
    let enc = Encyclopedia::create(
        rec.clone(),
        EncyclopediaConfig {
            fanout: 8,
            pool_frames: 64,
            ..EncyclopediaConfig::default()
        },
    );
    let mut load = rec.begin_txn("Load");
    for n in 0..KEYS {
        assert!(enc.insert(&mut load, &key(n), &text(n)).is_some());
    }
    drop(load);
    enc.pool().set_io_latency(Duration::from_micros(1200));
    let before = enc.pool().stats().misses;
    let start = Barrier::new(THREADS);
    thread::scope(|s| {
        for t in 0..THREADS {
            let (enc, rec, start) = (&enc, &rec, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..SEARCHES {
                    let n = t * (KEYS / THREADS) + i * 5;
                    let mut ctx = rec.begin_txn(String::new());
                    assert_eq!(enc.search(&mut ctx, &key(n)), Some(text(n)));
                }
            });
        }
    });
    let stats = enc.pool().stats();
    assert!(
        stats.misses - before >= (THREADS * SEARCHES / 2) as u64,
        "the pool holds a fraction of the tree: most searches miss, got {} misses",
        stats.misses - before
    );
    assert!(
        stats.misses_in_flight_peak >= 4,
        "{THREADS} threads missing on disjoint pages overlapped at most {} device reads",
        stats.misses_in_flight_peak
    );
}
