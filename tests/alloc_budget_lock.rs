//! Allocation budget of a semantic lock grant, by count: building a keyed
//! operation's lock mode with `op_descriptor`, acquiring it on the
//! encyclopedia's lock table and releasing the owner's grants allocates
//! nothing once the table is warm. The mode's method is a kind, its key
//! is stored inline, and the grant clones it into a slot the table's
//! vector already has.
//!
//! This binary holds one test only: the counting allocator is global, and
//! although it counts on the measuring thread alone, a second test would
//! share the switch.

use oodb::lock::{LockOutcome, OwnerId};
use oodb::sim::exec::{enc_lock_manager, op_descriptor, ENC_RESOURCE};
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

#[test]
fn a_keyed_grant_allocates_nothing() {
    let mut locks = enc_lock_manager();
    // a second owner's commuting grant stays in the table throughout
    let other = op_descriptor(&EncOp::Search("k0000001".into()));
    assert_eq!(
        locks.acquire(OwnerId(1), &[], ENC_RESOURCE, &other),
        LockOutcome::Granted
    );
    // the engine's keys are 7-8 bytes; the op is built before the count
    let op = EncOp::Insert("k0000042".into());
    let mut grant = |owner| {
        let mode = op_descriptor(&op);
        let got = locks.acquire(owner, &[], ENC_RESOURCE, &mode);
        locks.release_all(owner);
        got
    };
    // warm: the resource's grant vector has room for a second grant
    assert_eq!(grant(OwnerId(2)), LockOutcome::Granted);
    let (count, got) = allocations_in(|| grant(OwnerId(3)));
    assert_eq!(got, LockOutcome::Granted);
    println!("op_descriptor + acquire + release_all, keyed: {count} allocations");
    assert_eq!(count, 0, "a keyed grant allocated {count} times");
}
