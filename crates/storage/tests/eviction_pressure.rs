//! The pool under eviction pressure: 3 frames, 16 pages, threads doing
//! X-latched read-increment-write on random pages while a reader checks
//! that no page is ever seen torn.
//!
//! What this pins is that a guard is the pin from the moment the page is
//! findable. A pool that publishes a loaded frame first and pins it
//! second lets the loader be preempted in between, its frame evicted,
//! and its increment written — under a perfectly valid latch — into a
//! frame no later fetch can find: the sum of the counters comes up short.
//! The window is a few instructions wide, hence the rounds, and hence CI
//! runs this in debug *and* release.

use oodb_storage::{BufferManager, BufferPool, PageId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};

const FRAMES: usize = 3;
const PAGES: usize = 16;
const WRITERS: usize = 2;
const INCREMENTS: u64 = 20_000;
const ROUNDS: u64 = 20;

/// A page's record: the counter twice. A reader that sees the halves
/// differ saw a write half done.
fn record(n: u64) -> [u8; 16] {
    let mut r = [0; 16];
    r[..8].copy_from_slice(&n.to_le_bytes());
    r[8..].copy_from_slice(&n.to_le_bytes());
    r
}

fn counter(record: &[u8]) -> u64 {
    let (a, b) = record.split_at(8);
    assert_eq!(a, b, "torn page");
    u64::from_le_bytes(a.try_into().expect("8 bytes"))
}

fn round(seed: u64) {
    let mgr = BufferManager::new(BufferPool::new(FRAMES, 128));
    let ids: Vec<PageId> = (0..PAGES)
        .map(|_| {
            let page = mgr.allocate().expect("unlatched frames evict");
            page.write(|p| p.insert(&record(0)).map(drop).expect("fresh page has room"));
            page.id()
        })
        .collect();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (mgr, ids) = (&mgr, &ids);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed * 31 + w as u64);
                    for _ in 0..INCREMENTS {
                        let id = ids[rng.gen_range(0..PAGES)];
                        let page = mgr.write_page(id).expect("allocated");
                        let n = page.read(|p| counter(p.read(0).expect("record 0")));
                        page.write(|p| p.update(0, &record(n + 1)).expect("same size"));
                    }
                })
            })
            .collect();
        let reader = {
            let (mgr, ids, done) = (&mgr, &ids, &done);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed * 31 + 7);
                let mut last = [0u64; PAGES];
                while !done.load(Ordering::Acquire) {
                    let i = rng.gen_range(0..PAGES);
                    let page = mgr.read_page(ids[i]).expect("allocated");
                    let n = page.read(|p| counter(p.read(0).expect("record 0")));
                    assert!(n >= last[i], "page {i} went back from {} to {n}", last[i]);
                    last[i] = n;
                    assert!(mgr.pool().resident() <= FRAMES);
                }
            })
        };
        for w in writers {
            w.join().expect("writer");
        }
        done.store(true, Ordering::Release);
        reader.join().expect("reader");
    });
    assert!(mgr.pool().resident() <= FRAMES);
    let sum: u64 = ids
        .iter()
        .map(|&id| {
            mgr.read_page(id)
                .expect("allocated")
                .read(|p| counter(p.read(0).expect("record 0")))
        })
        .sum();
    assert_eq!(
        sum,
        WRITERS as u64 * INCREMENTS,
        "round {seed}: increments were lost under eviction"
    );
}

#[test]
fn no_increment_is_lost_and_no_page_is_torn_under_eviction() {
    for seed in 0..ROUNDS {
        round(seed);
    }
}
