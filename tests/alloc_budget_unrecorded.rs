//! Allocation budget of a transaction nobody records, by count: on a
//! [`Recorder::disabled`] recorder (the engine's, under strict 2PL with
//! the audit off), beginning a transaction, one warm
//! `Encyclopedia::search` hit on a depth-3 tree, ending it and the
//! worker's after-commit drain may allocate at most [`BUDGET`] times
//! together. A begin allocates nothing — no stage, no root descriptor, no
//! name — and neither does the drain, which has nothing to do. The same
//! transaction on a recording recorder is printed beside it.
//!
//! The same search is pinned by the frame latches it takes, read off the
//! pool's `hits` (which counts latched visits of resident pages): an
//! unrecorded search reads the root and the inner node off their images
//! and latches [`UNRECORDED_LATCHES`] frames — leaf, directory page, item
//! page — and a recorded one still latches all [`RECORDED_LATCHES`].
//!
//! This binary holds one test only: the counting allocator is global, and
//! although it counts on the measuring thread alone, a second test would
//! share the switch.

use oodb::btree::{Encyclopedia, EncyclopediaConfig};
use oodb::model::Recorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only added
// work is a relaxed counter increment and a read of a const-initialised,
// destructor-free thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) `f` performs on this thread.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, r)
}

/// What a whole one-search transaction may allocate when nothing is
/// recorded: exactly what it measures, 2, both in the search — the
/// `search(k)` descriptor the encyclopedia builds for its call path, and
/// the text the hit returns.
const BUDGET: usize = 2;

/// Frames a warm unrecorded search hit latches on a depth-3 tree: the
/// leaf, the item's directory page and its item page.
const UNRECORDED_LATCHES: u64 = 3;

/// Frames the recorded search latches: root, inner node, leaf, directory
/// page, item page.
const RECORDED_LATCHES: u64 = 5;

/// A one-search transaction on `rec`, as a worker runs it, after a warm-up
/// of the same transaction; its allocations, and the frame latches one
/// more such transaction takes.
fn one_search(rec: &Recorder) -> (usize, u64) {
    let enc = Encyclopedia::create(
        rec.clone(),
        EncyclopediaConfig {
            fanout: 4,
            ..EncyclopediaConfig::default()
        },
    );
    let mut load = rec.begin_txn("Load");
    for i in 0..64 {
        let i = i * 37 % 64;
        enc.insert(&mut load, &format!("k{i:03}"), &format!("text {i}"));
    }
    drop(load);
    assert_eq!(enc.tree().depth(), 3, "the budget is stated for depth 3");
    let txn = |name: String| {
        let mut ctx = rec.begin_txn(name);
        let hit = enc.search(&mut ctx, "k021");
        drop(ctx);
        rec.drain_if_free();
        hit
    };
    // warm: every object on the path is registered, and a recording
    // recorder's merge buffer has its capacity
    for _ in 0..8 {
        assert!(txn(String::new()).is_some());
    }
    // the engine names a recorded attempt and leaves an unrecorded one
    // unnamed
    let name = || {
        if rec.is_enabled() {
            "J17".to_string()
        } else {
            String::new()
        }
    };
    let (count, hit) = allocations_in(|| txn(name()));
    assert_eq!(hit.as_deref(), Some("text 21"));
    let hits = || enc.pool().stats().hits;
    let before = hits();
    assert!(txn(name()).is_some());
    (count, hits() - before)
}

#[test]
fn an_unrecorded_transaction_allocates_only_in_its_search() {
    let (unrecorded, unrecorded_latches) = one_search(&Recorder::disabled());
    let (recorded, recorded_latches) = one_search(&Recorder::new());
    println!(
        "begin + warm search hit (depth 3) + end + drain: {unrecorded} allocations \
         unrecorded, {recorded} recorded (budget {BUDGET}); frame latches \
         {unrecorded_latches} unrecorded, {recorded_latches} recorded"
    );
    assert!(
        unrecorded <= BUDGET,
        "an unrecorded one-search transaction allocated {unrecorded} times, budget {BUDGET}"
    );
    assert_eq!(
        unrecorded_latches, UNRECORDED_LATCHES,
        "an unrecorded search latches leaf, directory page and item page only"
    );
    assert_eq!(
        recorded_latches, RECORDED_LATCHES,
        "a recorded search latches every page it visits"
    );
}
