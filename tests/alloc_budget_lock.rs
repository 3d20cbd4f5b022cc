//! Allocation budgets of a semantic lock grant, by count, once the table
//! is warm: the generic `LockManager` over the encyclopedia's spec, and
//! the engine's own strict-2PL stripes. Building a keyed operation's lock
//! mode with `op_descriptor`, acquiring it and releasing the owner's
//! grants allocates nothing: the mode's method is a kind, its key is
//! stored inline, and the grant clones it into a slot the grant vector
//! already has.
//!
//! The counting allocator is global, but it counts each thread's
//! allocations in that thread's own counter, so the tests of this binary
//! may run side by side.

use oodb::core::ids::TxnIdx;
use oodb::engine::{ConcurrencyControl, EngineConfig, EngineShared, LockingCc, OpGrant, TxnHandle};
use oodb::lock::{LockOutcome, OwnerId};
use oodb::sim::exec::{enc_lock_manager, op_descriptor, ENC_RESOURCE};
use oodb::sim::EncOp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Count one allocation if this thread is counting.
fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the only added
// work is reading and writing const-initialised, destructor-free
// thread-locals, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) `f` performs on this thread.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.with(Cell::get) - before, r)
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

#[test]
fn a_warm_stripe_grant_of_six_keyed_ops_allocates_nothing() {
    let cc = LockingCc::semantic();
    let cfg = EngineConfig {
        pool_frames: 64,
        ..EngineConfig::default()
    };
    let shared = EngineShared::new(&cfg, &cc);
    let key = |i: usize| format!("k{:07}", 40 + i);
    // a second owner's commuting searches stay granted throughout
    let other = TxnHandle::new(0, 0, TxnIdx(1));
    for i in 0..3 {
        let search = EncOp::Search(key(i));
        assert_eq!(cc.before_op(&shared, &other, &search), OpGrant::Granted);
    }
    // six keyed operations, built before the count: the searched keys
    // read, the others written
    let ops: Vec<EncOp> = (0..6)
        .map(|i| match i {
            0..=2 => EncOp::Search(key(i)),
            3 => EncOp::Insert(key(i)),
            4 => EncOp::Change(key(i)),
            _ => EncOp::Delete(key(i)),
        })
        .collect();
    let txn = |job: u64| {
        let txn = TxnHandle::new(job, 0, TxnIdx(job as u32 + 1));
        let granted = ops
            .iter()
            .all(|op| cc.before_op(&shared, &txn, op) == OpGrant::Granted);
        cc.after_commit(&shared, &txn);
        granted
    };
    // warm: every stripe the six reach has room for their grants
    assert!(txn(1));
    let (count, granted) = allocations_in(|| txn(2));
    assert!(granted);
    println!("six keyed before_op + after_commit, strict 2PL: {count} allocations");
    assert_eq!(count, 0, "a warm stripe grant allocated {count} times");
    cc.after_commit(&shared, &other);
    assert_eq!(cc.tracked_owners(), 0);
}
