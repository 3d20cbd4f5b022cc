//! What a B-tree descent costs in the pool alone, on one thread and on
//! each of two: `cargo run --release -p oodb-storage --example descent`.
//!
//! 3185 resident pages stand for the `read_fit` tree (4096 keys at fanout
//! 8: seven levels of 1, 2, 6, 20, 84, 512 and 2560 nodes). A descent
//! S-latches one page per level, top down, coupling — the child is latched
//! before the parent's guard is dropped — and reads a byte of each. The
//! root and the levels under it are shared by every descent, which is
//! where a pool that writes pool-wide cache lines per visit scales
//! negatively; the leaves are picked at random.

use oodb_storage::{BufferManager, BufferPool, PageId};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

const LEVELS: [u32; 7] = [1, 2, 6, 20, 84, 512, 2560];
const DESCENTS: u32 = 200_000;
const ROUNDS: usize = 5;

/// One descent: level `l`'s page is `first[l] + r mod LEVELS[l]`.
fn descend(mgr: &BufferManager, first: &[u32; 7], r: u32) -> u64 {
    let mut seen = 0;
    let mut parent = None;
    for (level, &width) in LEVELS.iter().enumerate() {
        let page = mgr
            .read_page(PageId(first[level] + r % width))
            .expect("resident");
        seen += page.read(|p| u64::from(p.as_bytes()[0]));
        // coupling: the parent's guard goes only now
        parent = Some(page);
    }
    drop(parent);
    seen
}

/// Mean nanoseconds per descent on each of `threads` threads running at once.
fn run(mgr: &BufferManager, first: &[u32; 7], threads: usize) -> Vec<f64> {
    let start = Barrier::new(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let start = &start;
                s.spawn(move || {
                    let mut r = 0x9E37_79B9u32.wrapping_mul(t as u32 + 1);
                    start.wait();
                    let t0 = Instant::now();
                    for _ in 0..DESCENTS {
                        // xorshift: the leaf (and the levels above it) to visit
                        r ^= r << 13;
                        r ^= r >> 17;
                        r ^= r << 5;
                        black_box(descend(mgr, first, r));
                    }
                    t0.elapsed().as_nanos() as f64 / f64::from(DESCENTS)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("descender"))
            .collect()
    })
}

fn main() {
    let mgr = BufferManager::new(BufferPool::new(4096, 512));
    let mut first = [0u32; 7];
    for (level, &width) in LEVELS.iter().enumerate() {
        for i in 0..width {
            let page = mgr.allocate().expect("pool has room");
            page.write(|p| {
                p.insert(&[level as u8])
                    .map(drop)
                    .expect("fresh page has room")
            });
            if i == 0 {
                first[level] = page.id().0;
            }
        }
    }
    let pages: u32 = LEVELS.iter().sum();
    println!(
        "{pages} resident pages, {}-page S-latch-coupled descents, {DESCENTS} per thread, \
         {} CPUs",
        LEVELS.len(),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for round in 0..ROUNDS {
        let one = run(&mgr, &first, 1)[0];
        let two = run(&mgr, &first, 2);
        println!(
            "round {round}: 1 thread {one:.0} ns/descent; 2 threads {:.0} and {:.0} ns/descent",
            two[0], two[1]
        );
    }
    let stats = mgr.pool().stats();
    println!(
        "hits {} misses {} latch-waits {}",
        stats.hits, stats.misses, stats.latch_waits
    );
}
