//! Which objects a run registers with its recorder. A run nobody records
//! registers none of the substrate's objects: a disabled cursor never
//! asks for the id of a node, a page or an item, so an unrecorded run
//! keeps no name, spec or by-name entry per item it ever wrote — which,
//! with item ids never reused, grew without bound under a delete+insert
//! churn. A recorded run registers what it always did, in the same order
//! and so under the same ids: the names, in id order, are compared with
//! `tests/golden/registered_objects.txt`, written by this script before
//! unrecorded runs stopped registering. A change *meant* to alter them
//! regenerates the file with `REGISTERED_WRITE=$PWD/tests/golden/registered_objects.txt
//! cargo test --test registration`, and says so.

use oodb::btree::{Encyclopedia, EncyclopediaConfig};
use oodb::engine::worker::Attempt;
use oodb::engine::{EngineConfig, EngineShared, LockingCc};
use oodb::model::Recorder;
use oodb::sim::EncOp;

fn encyclopedia(rec: &Recorder) -> Encyclopedia {
    Encyclopedia::create(
        rec.clone(),
        EncyclopediaConfig {
            fanout: 4,
            ..EncyclopediaConfig::default()
        },
    )
}

/// Insert `n` keys in a scattered order (`n` coprime with 37), change
/// every third to a text its page cannot hold beside the others, read
/// every item in sequence and a range, then delete every key and insert
/// it again: every place where the tree and the item list name an
/// object, root splits included.
fn script(rec: &Recorder, enc: &Encyclopedia, n: usize) {
    let key = |i: usize| format!("k{:04}", i * 37 % n);
    let mut load = rec.begin_txn("Load");
    for i in 0..n {
        assert!(enc.insert(&mut load, &key(i), "text").is_some());
    }
    drop(load);
    let mut change = rec.begin_txn("Change");
    let long = "x".repeat(120);
    for i in (0..n).step_by(3) {
        assert!(enc.change(&mut change, &key(i), &long).is_some());
    }
    assert_eq!(enc.read_seq(&mut change).len(), n);
    assert!(!enc.range(&mut change, "k0000", "k0009").is_empty());
    drop(change);
    let mut churn = rec.begin_txn("Churn");
    for i in 0..n {
        assert!(enc.delete(&mut churn, &key(i)));
    }
    for i in 0..n {
        assert!(enc.insert(&mut churn, &key(i), "again").is_some());
    }
    drop(churn);
    enc.tree().check_integrity().expect("tree intact");
}

/// The registered objects' names, in id order.
fn names(rec: &Recorder) -> Vec<String> {
    rec.with_record(|ts, _| {
        ts.object_indices()
            .map(|o| ts.object(o).name.clone())
            .collect()
    })
}

/// Asserts that nothing of the substrate is registered beyond `created`,
/// the names a freshly built encyclopedia registered.
fn assert_registers_nothing(rec: &Recorder, created: &[String]) {
    assert!(!rec.is_enabled());
    for name in ["Item0", "Page1", "BpTree.N1", "BpTree.N0g1"] {
        assert_eq!(rec.find_object(name), None, "{name} was registered");
    }
    assert_eq!(names(rec), created, "objects registered past creation");
}

#[test]
fn an_unrecorded_encyclopedia_registers_nothing() {
    let rec = Recorder::disabled();
    let enc = encyclopedia(&rec);
    let created = names(&rec);
    script(&rec, &enc, 1024);
    assert!(enc.tree().depth() >= 5, "the root split several times");
    assert_registers_nothing(&rec, &created);
}

/// An unaudited strict-2PL engine runs on a disabled recorder: a
/// delete+insert churn over 16 keys registers none of the items it
/// writes, nor any page or node.
#[test]
fn an_unaudited_strict_2pl_engine_registers_nothing() {
    let cfg = EngineConfig {
        workers: 1,
        audit: false,
        fanout: 4,
        ..EngineConfig::default()
    };
    let cc = LockingCc::semantic();
    let shared = EngineShared::new(&cfg, &cc);
    let created = names(&shared.rec);
    let mut job = 0;
    let mut run = |ops: Vec<EncOp>| {
        let mut a = Attempt::begin(&shared, &cc, job, 0);
        job += 1;
        for op in &ops {
            assert_eq!(a.step(op), Ok(()), "{op:?} is granted");
        }
        assert!(a.finish().is_ok(), "one thread's attempt commits");
    };
    let keys: Vec<String> = (0..16).map(|i| format!("k{i:02}")).collect();
    run(keys.iter().cloned().map(EncOp::Insert).collect());
    for t in 0..2000 {
        let k = &keys[t * 5 % keys.len()];
        run(vec![EncOp::Delete(k.clone()), EncOp::Insert(k.clone())]);
    }
    assert!(shared.enc.inner().tree().depth() >= 2, "the preload split");
    assert_registers_nothing(&shared.rec, &created);
}

/// The recorded twin of the unrecorded script, smaller: the same objects
/// under the same ids as before registration moved into the recording
/// closures.
#[test]
fn a_recorded_run_registers_the_same_objects_under_the_same_ids() {
    let rec = Recorder::new();
    let enc = encyclopedia(&rec);
    script(&rec, &enc, 64);
    assert!(enc.tree().depth() >= 3, "the root split twice");
    let got = names(&rec).join("\n") + "\n";
    if let Ok(path) = std::env::var("REGISTERED_WRITE") {
        std::fs::write(&path, &got).expect("writing the golden file");
        panic!("wrote {path}; rerun without REGISTERED_WRITE");
    }
    let want = include_str!("golden/registered_objects.txt");
    assert_eq!(got, want, "registered objects or their ids moved");
}
