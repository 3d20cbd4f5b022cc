//! Integration: the paper's worked examples, cross-validated between the
//! hand-crafted reconstructions (`oodb::sim::paper`, exact figure names)
//! and the live substrates (`oodb::btree`, machine-generated names).

use oodb::btree::{Encyclopedia, EncyclopediaConfig};
use oodb::core::prelude::*;
use oodb::model::Recorder;
use oodb::sim::paper;

/// Example 1, commuting half: the hand-crafted system and the live
/// encyclopedia agree on the essential shape — a page-level conflict that
/// stops at the commuting leaf inserts.
#[test]
fn example1_commuting_handcrafted_vs_live() {
    // hand-crafted
    let (ts, h) = paper::example1_commuting();
    let ss = SystemSchedules::infer(&ts, &h);
    let hand_top = ss.schedule(ts.system_object()).action_deps.edge_count();
    let hand_conv = conventional_deps(&ts, &h).edge_count();

    // live
    let rec = Recorder::new();
    let enc = Encyclopedia::create(
        rec.clone(),
        EncyclopediaConfig {
            fanout: 8,
            ..Default::default()
        },
    );
    let mut setup = rec.begin_txn("Setup");
    enc.insert(&mut setup, "AAA", "seed");
    drop(setup);
    let mut t1 = rec.begin_txn("T1");
    let mut t2 = rec.begin_txn("T2");
    enc.insert(&mut t1, "DBMS", "x");
    enc.insert(&mut t2, "DBS", "y");
    drop(t1);
    drop(t2);
    let (mut lts, lh) = rec.finish();
    extend_virtual_objects(&mut lts);
    let lss = SystemSchedules::infer(&lts, &lh);
    let tops = lts.top_level();
    let live_top = &lss.schedule(lts.system_object()).action_deps;

    // both: no ordering between the two inserting transactions
    assert_eq!(hand_top, 0);
    assert!(!live_top.has_edge(&tops[1], &tops[2]));
    assert!(!live_top.has_edge(&tops[2], &tops[1]));
    // both: conventional does order them (page sharing)
    assert_eq!(hand_conv, 1);
    let live_conv = conventional_deps(&lts, &lh);
    assert!(live_conv.has_edge(&tops[1], &tops[2]) || live_conv.has_edge(&tops[2], &tops[1]));
    // both oo-serializable
    assert!(analyze(&ts, &h).oo_decentralized.is_ok());
    assert!(analyze(&lts, &lh).oo_decentralized.is_ok());
}

/// Example 1, conflicting half: insert/search of the same key is ordered
/// all the way to the top in both realizations.
#[test]
fn example1_conflicting_handcrafted_vs_live() {
    let (ts, h) = paper::example1_conflicting();
    let ss = SystemSchedules::infer(&ts, &h);
    let tops = ts.top_level();
    assert!(ss
        .schedule(ts.system_object())
        .action_deps
        .has_edge(&tops[0], &tops[1]));

    let rec = Recorder::new();
    let enc = Encyclopedia::create(rec.clone(), EncyclopediaConfig::default());
    let mut t3 = rec.begin_txn("T3");
    let mut t4 = rec.begin_txn("T4");
    enc.insert(&mut t3, "DBS", "x");
    assert!(enc.search(&mut t4, "DBS").is_some());
    drop(t3);
    drop(t4);
    let (mut lts, lh) = rec.finish();
    extend_virtual_objects(&mut lts);
    let lss = SystemSchedules::infer(&lts, &lh);
    let ltops = lts.top_level();
    assert!(lss
        .schedule(lts.system_object())
        .action_deps
        .has_edge(&ltops[0], &ltops[1]));
}

/// Example 4 over the live encyclopedia: insert, change, search, readSeq
/// with the serializable interleaving; dependencies reach the expected
/// objects and the verdict is positive.
#[test]
fn example4_live_encyclopedia() {
    let rec = Recorder::new();
    let enc = Encyclopedia::create(rec.clone(), EncyclopediaConfig::default());

    let mut t1 = rec.begin_txn("T1");
    let mut t2 = rec.begin_txn("T2");
    let mut t3 = rec.begin_txn("T3");
    let mut t4 = rec.begin_txn("T4");

    enc.insert(&mut t1, "DBS", "database systems");
    enc.insert(&mut t2, "DBMS", "v1");
    assert_eq!(enc.change(&mut t2, "DBMS", "v2").as_deref(), Some("v1"));
    // note: unlike the hand-crafted Example 4 (where T3 only consults the
    // index), the live search also reads the *item*, so it must run after
    // T2's change — in between it would be a genuine read anomaly, which
    // `example4_unrepeatable_read_rejected` below demonstrates
    assert_eq!(enc.search(&mut t3, "DBMS").as_deref(), Some("v2"));
    let items = enc.read_seq(&mut t4);
    assert_eq!(items.len(), 2);
    // T4 runs after the change: it must see v2
    assert!(items.iter().any(|(_, k, v)| k == "DBMS" && v == "v2"));

    drop(t1);
    drop(t2);
    drop(t3);
    drop(t4);

    let (mut ts, h) = rec.finish();
    extend_virtual_objects(&mut ts);
    let r = analyze(&ts, &h);
    assert!(r.oo_decentralized.is_ok(), "{:?}", r.oo_decentralized);

    let ss = SystemSchedules::infer(&ts, &h);
    let tops = ts.top_level();
    let top = &ss.schedule(ts.system_object()).action_deps;
    // T2's insert precedes T3's search of DBMS
    assert!(top.has_edge(&tops[1], &tops[2]), "T2 -> T3");
    // T2's change precedes T4's readSeq
    assert!(top.has_edge(&tops[1], &tops[3]), "T2 -> T4");
    // LinkedList carries the update/readSeq dependency (Figure 8 row)
    let ll = ts.object_by_name("LinkedList").unwrap();
    assert!(ss.schedule(ll).txn_deps.edge_count() >= 1);
}

/// The non-serializable variant: T4 scans twice around T2's change — the
/// unrepeatable read must be rejected.
#[test]
fn example4_unrepeatable_read_rejected() {
    let rec = Recorder::new();
    let enc = Encyclopedia::create(rec.clone(), EncyclopediaConfig::default());
    let mut setup = rec.begin_txn("Setup");
    enc.insert(&mut setup, "DBMS", "v1");
    drop(setup);

    let mut t2 = rec.begin_txn("T2");
    let mut t4 = rec.begin_txn("T4");
    let first = enc.read_seq(&mut t4);
    assert_eq!(enc.change(&mut t2, "DBMS", "v2").as_deref(), Some("v1"));
    let second = enc.read_seq(&mut t4);
    assert_ne!(first, second, "T4 observed two different states");
    drop(t2);
    drop(t4);

    let (mut ts, h) = rec.finish();
    extend_virtual_objects(&mut ts);
    let r = analyze(&ts, &h);
    assert!(r.oo_decentralized.is_err(), "unrepeatable read must fail");
}

/// Examples 2 and 3: the Figure 5 tree and its Definition 5 extension.
#[test]
fn example2_and_3_tree_and_extension() {
    let (mut ts, root) = paper::example2_tree();
    let before = ts.object_count();
    let report = extend_virtual_objects(&mut ts);
    assert_eq!(report.steps.len(), 1);
    assert_eq!(ts.object_count(), before + 1);
    // the tree rendering still works after extension and shows the move
    let rendered = ts.render_tree(root);
    assert!(rendered.contains("O1'"));
    assert!(rendered.contains("[virtual]"));
}

/// The added-relation gap: paper accepts, strengthened global check and
/// the conventional baseline both reject.
#[test]
fn added_relation_gap_disagreement() {
    let (ts, h) = paper::added_relation_gap();
    let r = analyze(&ts, &h);
    assert!(r.conventional.is_err());
    assert!(r.oo_decentralized.is_ok());
    assert!(r.oo_global.is_err());
    assert!(r.decentralized_global_gap());
}
