//! Definition 5 in action: breaking call-path cycles with virtual
//! objects.
//!
//! A B-link leaf split rearranges the *father* node from within the
//! insert subtransaction, so the rearrangement accesses an object one of
//! its ancestors already accesses — a call-path cycle. The extension
//! moves the inner action to a fresh virtual object and duplicates the
//! other actions there, so dependency inheritance keeps working.
//!
//! Run with: `cargo run --example virtual_objects`

use oodb::btree::{required_page_size, BLinkTree};
use oodb::core::prelude::*;
use oodb::model::Recorder;
use oodb::storage::{BufferManager, BufferPool};

fn main() {
    let rec = Recorder::new();
    let mgr = BufferManager::new(BufferPool::new(256, required_page_size(2)));
    let tree = BLinkTree::create(mgr, rec.clone(), "BpTree", 2);

    // enough inserts to split leaves and the root repeatedly
    let mut ctx = rec.begin_txn("Load");
    for k in ["E", "B", "H", "A", "C", "F", "I", "D", "G"] {
        tree.insert(&mut ctx, k, 0);
    }
    drop(ctx);
    tree.check_integrity().expect("tree invariants hold");

    println!("tree after the splits:\n{}", tree.dump());

    let (mut ts, h) = rec.finish();
    println!(
        "recorded {} actions over {} objects before extension",
        ts.action_count(),
        ts.object_count()
    );

    let report = extend_virtual_objects(&mut ts);
    println!(
        "Definition 5 found {} call-path cycles:",
        report.steps.len()
    );
    for step in &report.steps {
        let moved = ts.action(step.moved);
        println!(
            "  moved {}.{} [{}] from {} to virtual {}, {} duplicates",
            ts.object(moved.object).name,
            moved.descriptor,
            ts.path(step.moved),
            ts.object(step.original).name,
            ts.object(step.virtual_object).name,
            step.duplicates.len()
        );
    }
    assert!(
        !report.is_empty(),
        "fanout-2 splits must rearrange ancestors' nodes"
    );

    // the single-transaction load is (trivially) oo-serializable —
    // including all the virtual-object bookkeeping
    let verdict = analyze(&ts, &h);
    println!(
        "\noo-serializable after extension: {}",
        verdict.oo_decentralized.is_ok()
    );
    assert!(verdict.oo_decentralized.is_ok());
}
