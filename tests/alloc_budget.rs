//! Allocation budget of the recorded read path, by count rather than by
//! clock: a warm `Encyclopedia::search` hit on a depth-3 tree, and the
//! drain that materializes what it staged, may allocate at most
//! [`BUDGET`] times between them. The count is exact and repeats, so the
//! test is immune to the host's timing noise. A warm page visit — latch
//! the page in the pool, drop the guard — may not allocate at all, and
//! neither may a metrics snapshot, which the benchmark's serial loop takes
//! once per spin. A warm unrecorded insert into a depth-5 tree allocates
//! exactly [`INSERT_BUDGET`] times, whole and in the tree, and a warm
//! unrecorded one-change transaction allocates and latches exactly
//! [`CHANGE_BUDGET`].
//!
//! The counting allocator is global, but its switch and its count are the
//! measuring thread's own, so the tests of this binary may run side by
//! side.

use oodb::btree::{CompensatedEncyclopedia, Encyclopedia, EncyclopediaConfig};
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

/// The same insert, measured with this very test at the commit before the
/// writer's descent stopped decoding every node on its path: the whole
/// `Encyclopedia::insert`, and the part of it spent in `BLinkTree::insert`.
const INSERT_PARENT: (usize, usize) = (43, 36);

/// What a warm `Encyclopedia::insert` of a fresh key into a depth-5 tree
/// on a disabled recorder allocates, whole and in the tree: exactly what
/// it measures. The descent reads the four inner nodes in place and
/// decodes only the leaf, which has room. The tree's 10 are that leaf of
/// four entries (its vector, its keys and its high key: 6), the new key
/// and the vector's growth to hold it, the record it is encoded to, and
/// the buffer of the stack of retained latches, which every descent
/// pushes its root onto. If the tree's count moves up by a node's worth
/// (its entries, its vector and its high key), a descent decodes a node
/// again.
const INSERT_BUDGET: (usize, usize) = (17, 10);

// the tree's share under a third of what the parent spent: four of the
// five nodes on the path are no longer decoded
const _: () = assert!(INSERT_BUDGET.1 * 3 <= INSERT_PARENT.1);

/// An encyclopedia of fanout 8 on a disabled recorder, preloaded with
/// 4 096 even keys in order (depth 5), and a warm writer on it: fresh
/// keys went into other leaves, so every buffer on the path has its
/// capacity and the measured insert splits nothing.
fn preloaded_writer() -> (Encyclopedia, oodb::model::TxnCtx) {
    let rec = Recorder::disabled();
    let enc = Encyclopedia::create(
        rec.clone(),
        EncyclopediaConfig {
            fanout: 8,
            ..EncyclopediaConfig::default()
        },
    );
    let mut load = rec.begin_txn("Load");
    for i in 0..4096 {
        enc.insert(&mut load, &insert_key(2 * i), &format!("text {i}"));
    }
    drop(load);
    assert_eq!(enc.tree().depth(), 5, "the budget is stated for depth 5");
    let mut ctx = rec.begin_txn("Writer");
    for i in [101, 2101, 4101, 6101] {
        assert!(enc.insert(&mut ctx, &insert_key(i), "warm").is_some());
    }
    (enc, ctx)
}

fn insert_key(i: usize) -> String {
    format!("k{i:05}")
}

#[test]
fn warm_insert_decodes_only_the_leaf() {
    let fresh = insert_key(3001);
    let (enc, mut ctx) = preloaded_writer();
    let (whole, item) = allocations_in(|| enc.insert(&mut ctx, &fresh, "fresh"));
    assert!(item.is_some(), "{fresh} is new");
    drop(ctx);
    // the tree's share, on an identical encyclopedia: `BLinkTree::insert`
    // builds the `insert(key)` descriptor that `Encyclopedia::insert`
    // builds once for itself, the list and the tree
    let (twin, mut ctx) = preloaded_writer();
    let (tree, new) = allocations_in(|| twin.tree().insert(&mut ctx, &fresh, 0));
    assert!(new, "{fresh} is new");
    drop(ctx);
    for enc in [&enc, &twin] {
        assert_eq!(enc.tree().depth(), 5, "the measured insert split nothing");
        enc.tree().check_integrity().expect("tree intact");
    }
    let tree = tree - 1;
    println!(
        "warm insert, depth 5, unrecorded: {whole} allocations, {tree} in the tree \
         (parent {INSERT_PARENT:?}, budget {INSERT_BUDGET:?})"
    );
    assert_eq!(
        (whole, tree),
        INSERT_BUDGET,
        "a warm insert's allocations (whole, in the tree) moved"
    );
}

/// The same transaction, measured with this very test at the commit
/// before a change returned the text it replaced: it searched for the old
/// text first (the `search(k)` descriptor and the text; leaf, directory
/// page and item page), then updated, and its inverse copied the old text.
const CHANGE_PARENT: (usize, u64) = (6, 6);

/// What a warm one-change transaction on a disabled recorder costs —
/// `begin_txn`, one `CompensatedEncyclopedia::change` hit on a depth-3
/// tree, `commit` — in allocations and in frames latched: exactly what it
/// measures. The 4 allocations are the `update(k)` descriptor, the old
/// text the item page hands back, the inverse's two arguments (the key
/// and that text, moved) and the transaction's undo stack; the 3 latches
/// are the leaf, the directory page and the item page. A latch more means
/// the change reads its item twice again.
const CHANGE_BUDGET: (usize, u64) = (4, 3);

// one visit of the path where the parent made two
const _: () = assert!(CHANGE_BUDGET.1 * 2 == CHANGE_PARENT.1);

/// A warm `CompensatedEncyclopedia::change`, by count: a transaction that
/// changes one key of a depth-3 encyclopedia on a disabled recorder
/// allocates and latches exactly [`CHANGE_BUDGET`].
#[test]
fn warm_unrecorded_change_is_pinned_by_count() {
    let rec = Recorder::disabled();
    let enc = CompensatedEncyclopedia::new(Encyclopedia::create(
        rec.clone(),
        EncyclopediaConfig {
            fanout: 4,
            ..EncyclopediaConfig::default()
        },
    ));
    let mut load = rec.begin_txn("Load");
    for i in 0..64 {
        let i = i * 37 % 64;
        enc.insert(&mut load, &format!("k{i:03}"), &format!("text {i}"));
    }
    enc.commit(load);
    assert_eq!(
        enc.inner().tree().depth(),
        3,
        "the budget is stated for depth 3"
    );
    // the new text is as long as the old, so the item stays in its slot
    let txn = || {
        let mut ctx = rec.begin_txn(String::new());
        let hit = enc.change(&mut ctx, "k021", "text 99");
        enc.commit(ctx);
        hit
    };
    for _ in 0..8 {
        assert!(txn());
    }
    let (count, hit) = allocations_in(txn);
    assert!(hit);
    let hits = || enc.inner().pool().stats().hits;
    let before = hits();
    assert!(txn());
    let latches = hits() - before;
    println!(
        "begin + warm change hit (depth 3) + commit, unrecorded: {count} allocations, \
         {latches} frame latches (parent {CHANGE_PARENT:?}, budget {CHANGE_BUDGET:?})"
    );
    assert_eq!(
        (count, latches),
        CHANGE_BUDGET,
        "a warm change's (allocations, frame latches) moved"
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
