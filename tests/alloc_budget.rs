//! Allocation budget of the recorded read path, by count rather than by
//! clock: a warm `Encyclopedia::search` hit on a depth-3 tree, and the
//! drain that materializes what it staged, may allocate at most
//! [`BUDGET`] times between them. The count is exact and repeats, so the
//! test is immune to the host's timing noise. A warm page visit — latch
//! the page in the pool, drop the guard — may not allocate at all, and
//! neither may a metrics snapshot, which the benchmark's serial loop takes
//! once per spin.
//!
//! The counting allocator is global, but its switch and its count are the
//! measuring thread's own, so the tests of this binary may run side by
//! side.

use oodb::btree::{Encyclopedia, EncyclopediaConfig};
use oodb::engine::{CcKind, Engine, EngineConfig};
use oodb::model::Recorder;
use oodb::sim::EncOp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Count one allocation if this thread is measuring.
fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the only added
// work is a read and an increment of const-initialised, destructor-free
// thread-locals, neither of which allocates.
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

/// The same search, measured with this very test at the commit before the
/// recording path was reworked.
const PARENT: usize = 176;

/// What a warm search hit may allocate, staging and materializing
/// counted together: exactly what it measures, 2, both while the search
/// runs — one for the `search(k)` descriptor every level of the call
/// path shares (its method is a kind and its key is stored inline, so the
/// handle's block is all there is), one for the text it returns. Staging
/// allocates nothing once the stage has its capacity (growth is amortized
/// over the transaction), and neither do the page primitives, whose
/// descriptors are process-wide statics. Materializing allocates nothing:
/// an action's children and its precedence are links in the arena slot
/// it occupies anyway, a stage is swapped against a recycled buffer, and
/// the drain holds one stage lock at a time (no list of guards). The
/// script is fixed, so the count repeats exactly: no arena, history or
/// position table doubles inside the measured calls. If it moves, a
/// `format!`/`to_owned` crept back into the recorded read path, a `Vec`
/// back into `ActionInfo`, or a heap block back into the descriptor.
const BUDGET: usize = 2;

// under an eightieth of what the parent spent
const _: () = assert!(BUDGET * 80 <= PARENT);

#[test]
fn warm_search_hit_stays_inside_its_allocation_budget() {
    let rec = Recorder::new();
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

    let mut ctx = rec.begin_txn("Reader");
    // warm: every object on the path is registered, the cursor's stage,
    // the recorder's merge buffer and the root's child list have their
    // capacity; the warm-up is materialized so the measured drain holds
    // the one search only
    for _ in 0..8 {
        assert!(enc.search(&mut ctx, "k021").is_some());
        rec.history_len();
    }
    let (staging, hit) = allocations_in(|| enc.search(&mut ctx, "k021"));
    let (materializing, _) = allocations_in(|| rec.history_len());
    drop(ctx);
    // the pool's share of a visit: the guard is the frame's lock guard,
    // not an `Arc` clone per table it used to go through
    let root = enc.tree().root_page();
    let (visit, _) = allocations_in(|| drop(enc.pool().read_page(root).expect("resident")));
    assert_eq!(visit, 0, "a warm read_page + drop allocated {visit} times");
    assert_eq!(hit.as_deref(), Some("text 21"));
    let count = staging + materializing;
    println!(
        "warm search hit, depth 3: {count} allocations, {staging} staging + {materializing} \
         materializing (parent {PARENT}, budget {BUDGET})"
    );
    assert!(
        count <= BUDGET,
        "a warm search hit allocated {count} times, budget {BUDGET}"
    );
}

/// A metrics snapshot of a one-worker, one-lane engine allocates nothing:
/// every field is a number or an array, and the per-shard list is empty
/// without lanes. The benchmark's serial phase times each transaction
/// through a loop that spins on `Engine::metrics()`, so an allocation
/// here would land in `txn_p50_us`.
#[test]
fn metrics_snapshot_allocates_nothing() {
    let engine = Engine::start(
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        CcKind::Pessimistic,
    );
    let keys: Vec<String> = (0..16).map(|i| format!("k{i:02}")).collect();
    engine.preload(&keys);
    for k in &keys {
        engine
            .submit_blocking(vec![EncOp::Search(k.clone()), EncOp::Change(k.clone())])
            .expect("engine accepts work");
    }
    while engine.finished() < keys.len() as u64 {
        std::hint::spin_loop();
    }
    // warm: the pool sample is taken and every lazily made structure made
    let _ = engine.metrics();
    let (count, m) = allocations_in(|| engine.metrics());
    assert!(m.shards.is_empty(), "one lane: {:?}", m.shards);
    assert_eq!(m.committed, keys.len() as u64);
    println!("Engine::metrics() on one worker: {count} allocations");
    assert_eq!(count, 0, "a metrics snapshot allocated {count} times");
    engine.shutdown();
}
