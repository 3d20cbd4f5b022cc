//! Quickstart: the paper's core idea in thirty lines.
//!
//! Two transactions insert *different* keys into the same B⁺-tree leaf.
//! At the page level their accesses conflict (read/write on the same
//! page), so conventional serializability orders them. At the leaf level
//! the inserts commute, so object-oriented serializability leaves the
//! transactions unordered — the extra concurrency the paper is about.
//!
//! Run with: `cargo run --example quickstart`

use oodb::core::prelude::*;
use std::sync::Arc;

fn main() {
    // 1. Objects with the commutativity spec of their type (Def. 9):
    //    the leaf is key-based, the page is read/write.
    let mut ts = TransactionSystem::new();
    let leaf = ts.add_object("Leaf11", Arc::new(RangeSpec::ordered_container("leaf")));
    let page = ts.add_object("Page4712", Arc::new(ReadWriteSpec));

    // 2. Two open nested transactions (Defs. 1–4).
    let mut prims = Vec::new();
    for (name, k) in [("T1", "DBMS"), ("T2", "DBS")] {
        let mut b = ts.txn(name);
        b.call(leaf, ActionDescriptor::new("insert", vec![key(k)]));
        prims.push(b.leaf(page, ActionDescriptor::nullary("read")));
        prims.push(b.leaf(page, ActionDescriptor::nullary("write")));
        b.end();
        b.finish();
    }

    // 3. An execution history: the Axiom 1 order of the primitives.
    let h =
        History::from_order(&ts, &[prims[0], prims[1], prims[2], prims[3]]).expect("valid history");

    // 4. Infer the per-object dependency relations (Defs. 6, 10, 11, 15).
    let ss = SystemSchedules::infer(&ts, &h);
    println!("{}", ss.describe_object(&ts, page));
    println!("{}", ss.describe_object(&ts, leaf));

    // 5. The verdicts.
    let report = analyze(&ts, &h);
    println!("conventional serializability orders the transactions:");
    println!(
        "  conventional edges: {}",
        conventional_deps(&ts, &h).edge_count()
    );
    println!(
        "oo-serializability leaves the top level unordered: {} edges",
        ss.schedule(ts.system_object()).action_deps.edge_count()
    );
    println!("oo-serializable: {}", report.oo_decentralized.is_ok());
    assert!(report.oo_decentralized.is_ok());
    assert_eq!(ss.schedule(ts.system_object()).action_deps.edge_count(), 0);
    assert_eq!(conventional_deps(&ts, &h).edge_count(), 1);
}
