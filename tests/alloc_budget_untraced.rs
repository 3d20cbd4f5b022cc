//! Allocation budget of an engine attempt with tracing off, by count: a
//! warm one-search strict-2PL `Attempt` — `begin`, `step`, `finish` —
//! over the shared state of an unaudited, untraced engine may allocate
//! at most [`BUDGET`] times, all of them in its search. With tracing off
//! there is no sink, so the attempt claims no seq and builds no event:
//! it allocates what the same transaction allocates outside the engine
//! (`alloc_budget_unrecorded`). The same attempt with tracing on is
//! printed beside it.
//!
//! This binary holds one test only: the counting allocator is global, and
//! although it counts on the measuring thread alone, a second test would
//! share the switch.

use oodb::engine::worker::Attempt;
use oodb::engine::{EngineConfig, EngineShared, LockingCc};
use oodb::sim::EncOp;
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

/// What a warm one-search attempt may allocate with tracing off: exactly
/// what it measures, 2, both in the search — the `search(k)` descriptor
/// and the text the hit returns.
const BUDGET: usize = 2;

/// The allocations of one warm one-search attempt on an unaudited
/// strict-2PL engine's shared state, traced or not.
fn one_search_attempt(trace: bool) -> usize {
    let cfg = EngineConfig {
        workers: 1,
        audit: false,
        trace,
        ..EngineConfig::default()
    };
    let cc = LockingCc::semantic();
    let shared = EngineShared::new(&cfg, &cc);
    let mut job = 0;
    let mut run = |ops: &[EncOp]| {
        let mut a = Attempt::begin(&shared, &cc, job, 0);
        job += 1;
        for op in ops {
            assert_eq!(a.step(op), Ok(()), "{op:?} is granted");
        }
        assert!(a.finish().is_ok(), "one thread's attempt commits");
    };
    let load: Vec<EncOp> = (0..64)
        .map(|i| EncOp::Insert(format!("k{:03}", i * 37 % 64)))
        .collect();
    run(&load);
    let search = [EncOp::Search("k021".into())];
    // warm: every object on the path is registered, every lock stripe
    // and trace lane has the capacity it keeps
    for _ in 0..8 {
        run(&search);
    }
    allocations_in(|| run(&search)).0
}

#[test]
fn an_untraced_attempt_allocates_only_in_its_search() {
    let untraced = one_search_attempt(false);
    let traced = one_search_attempt(true);
    println!(
        "begin + warm search hit + finish (strict 2PL, audit off): {untraced} allocations \
         untraced, {traced} traced (budget {BUDGET})"
    );
    assert_eq!(
        untraced, BUDGET,
        "an untraced one-search attempt allocated {untraced} times, budget {BUDGET}"
    );
}
