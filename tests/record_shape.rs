//! The record is part of the contract: the checkers see objects by name,
//! actions by tree position and primitives by history position. This
//! test runs a fixed single-threaded script over a fanout-4 encyclopedia
//! — leaf, inner and root splits, search hit and miss, range, change,
//! delete, and one aborted transaction with its compensation — and
//! compares everything the checkers read against a golden file generated
//! at the commit *before* the recording path was made allocation-free.

use oodb::btree::{CompensatedEncyclopedia, Encyclopedia, EncyclopediaConfig};
use oodb::core::prelude::*;
use oodb::model::Recorder;
use std::fmt::Write as _;

fn key(i: usize) -> String {
    format!("k{i:03}")
}

fn path_of(ts: &TransactionSystem, a: ActionIdx) -> String {
    ts.path(a).to_string()
}

/// Run the script; returns the recorded system, its history and the
/// final tree depth.
fn run_script() -> (TransactionSystem, History, usize) {
    let rec = Recorder::new();
    let enc = CompensatedEncyclopedia::new(Encyclopedia::create(
        rec.clone(),
        EncyclopediaConfig {
            fanout: 4,
            ..EncyclopediaConfig::default()
        },
    ));

    // Load: 32 keys in a fixed scattered order, four per transaction —
    // the root leaf splits, leaves split, the root splits again as an
    // inner node and a non-root inner node splits (depth ≥ 3).
    for t in 0..8 {
        let mut ctx = rec.begin_txn(format!("Load{t}"));
        for j in 0..4 {
            let i = (t * 4 + j) * 13 % 32;
            assert!(enc
                .insert(&mut ctx, &key(i), &format!("text {i}"))
                .is_some());
        }
        enc.commit(ctx);
    }

    // Two interleaved transactions: reads (hit, miss, range) against
    // writes (change, delete, insert) on overlapping keys.
    let mut reader = rec.begin_txn("Reader");
    let mut writer = rec.begin_txn("Writer");
    assert_eq!(enc.search(&mut reader, &key(7)).as_deref(), Some("text 7"));
    assert!(enc.change(&mut writer, &key(7), "changed 7"));
    assert_eq!(enc.search(&mut reader, "k999"), None);
    assert!(enc.delete(&mut writer, &key(20)));
    let hits = enc.inner().range(&mut reader, &key(18), &key(23));
    assert_eq!(hits.len(), 5, "k020 was deleted inside [k018, k023]");
    assert!(enc.insert(&mut writer, "k0205", "late").is_some());
    assert_eq!(
        enc.search(&mut reader, &key(30)).as_deref(),
        Some("text 30")
    );
    enc.commit(writer);
    enc.commit(reader);

    // One transaction that inserts (splitting a leaf), changes and
    // deletes, then aborts: the compensation transaction undoes all
    // three through the ordinary recorded paths.
    let mut doomed = rec.begin_txn("Doomed");
    for k in ["k0101", "k0102", "k0103", "k0104"] {
        assert!(enc.insert(&mut doomed, k, "doomed").is_some());
    }
    assert!(enc.change(&mut doomed, &key(11), "doomed change"));
    assert!(enc.delete(&mut doomed, &key(12)));
    let mut comp = rec.begin_txn("C(Doomed)");
    let report = enc.abort(doomed, &mut comp);
    assert_eq!(report.compensated.len(), 6);
    assert!(report.failed.is_empty());
    enc.commit(comp);

    // A final scan sees the compensated state.
    let mut scan = rec.begin_txn("Scan");
    let items = enc.read_seq(&mut scan);
    assert_eq!(items.len(), 32);
    enc.commit(scan);

    let depth = enc.inner().tree().depth();
    enc.inner().tree().check_integrity().unwrap();
    drop(enc);
    let (ts, h) = rec.finish();
    (ts, h, depth)
}

fn render() -> String {
    let (mut ts, h, depth) = run_script();
    assert!(depth >= 3, "the script must split a non-root inner node");
    let mut out = String::new();

    writeln!(out, "== history: position object.descriptor [path]").unwrap();
    for (pos, &a) in h.order().iter().enumerate() {
        let info = ts.action(a);
        writeln!(
            out,
            "{pos} {}.{} [{}]",
            ts.object(info.object).name,
            info.descriptor,
            path_of(&ts, a)
        )
        .unwrap();
    }

    writeln!(out, "== verdicts on the record as written").unwrap();
    let r = analyze(&ts, &h);
    writeln!(
        out,
        "oo_decentralized {} oo_global {} conventional {} multilevel {}",
        r.oo_decentralized.is_ok(),
        r.oo_global.is_ok(),
        r.conventional.is_ok(),
        r.multilevel.is_ok()
    )
    .unwrap();

    let report = extend_virtual_objects(&mut ts);
    writeln!(
        out,
        "== Definition 5 extension: {} call-path cycles",
        report.steps.len()
    )
    .unwrap();
    for step in &report.steps {
        writeln!(
            out,
            "moved [{}] from {} to {}, {} duplicates",
            path_of(&ts, step.moved),
            ts.object(step.original).name,
            ts.object(step.virtual_object).name,
            step.duplicates.len()
        )
        .unwrap();
    }

    writeln!(out, "== transaction trees (extended)").unwrap();
    for &root in ts.top_level() {
        out.push_str(&ts.render_tree(root));
    }

    writeln!(out, "== verdicts on the extended record").unwrap();
    let r = analyze(&ts, &h);
    writeln!(
        out,
        "oo_decentralized {} oo_global {} conventional {} multilevel {}",
        r.oo_decentralized.is_ok(),
        r.oo_global.is_ok(),
        r.conventional.is_ok(),
        r.multilevel.is_ok()
    )
    .unwrap();

    writeln!(out, "== schedules").unwrap();
    let ss = SystemSchedules::infer(&ts, &h);
    for name in ["Enc", "BpTree", "LinkedList"] {
        let o = ts.object_by_name(name).expect("facade object recorded");
        out.push_str(&ss.describe_object(&ts, o));
    }
    out
}

#[test]
fn record_equals_the_golden_file() {
    let out = render();
    if let Ok(path) = std::env::var("RECORD_SHAPE_WRITE") {
        std::fs::write(&path, &out).unwrap();
    }
    let golden = include_str!("golden/record_shape.txt");
    if out != golden {
        let line = out
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| out.lines().count().min(golden.lines().count()));
        panic!(
            "record differs from tests/golden/record_shape.txt at line {}:\n  got:    {:?}\n  golden: {:?}",
            line + 1,
            out.lines().nth(line),
            golden.lines().nth(line)
        );
    }
}
