//! Optimistic concurrency control over the encyclopedia, run the way the
//! engine's optimistic control runs it: reads see committed state when
//! issued, writes are deferred to the commit point, and there they are
//! installed and certified in one step. A transaction that fails
//! validation is **compensated** (open nested transactions cannot restore
//! before-images — their installed effects are already public).
//!
//! No transaction ever sees another's uncommitted write, so no commit
//! waits on another and no abort cascades.
//!
//! The scenario builds a genuine cross cycle: T1 reads DBS and changes
//! DBMS, T2 reads DBMS and changes DBS, and both read before either
//! installs. The first to commit wins; the second closes the cycle, fails
//! validation and is compensated; the independent T3 commits.
//!
//! Run with: `cargo run --example occ_scheduler`

use oodb::btree::{CompensatedEncyclopedia, Encyclopedia, EncyclopediaConfig};
use oodb::core::certifier::{Certifier, CommitOutcome};
use oodb::core::ids::TxnIdx;
use oodb::core::prelude::*;
use oodb::core::schedule::SystemSchedules;
use oodb::model::{Recorder, TxnCtx};

fn main() {
    let rec = Recorder::new();
    let enc = Encyclopedia::create(
        rec.clone(),
        EncyclopediaConfig {
            fanout: 8,
            ..Default::default()
        },
    );
    let enc = CompensatedEncyclopedia::new(enc);
    let mut cert = Certifier::default();
    // the commit point: validate everything recorded so far
    let certify = |cert: &mut Certifier, ctx: &TxnCtx| {
        let (ts, h) = rec.snapshot();
        cert.try_commit(&ts, &h, TxnIdx(ctx.txn_number()))
    };

    // seed data
    let mut setup = rec.begin_txn("Setup");
    enc.insert(&mut setup, "DBS", "database systems");
    enc.insert(&mut setup, "DBMS", "v1");
    assert_eq!(certify(&mut cert, &setup), CommitOutcome::Committed);
    enc.commit(setup);

    // the reads, issued against committed state
    let mut t1 = rec.begin_txn("T1");
    let mut t2 = rec.begin_txn("T2");
    let mut t3 = rec.begin_txn("T3");
    println!("T1 read DBS  = {:?}", enc.search(&mut t1, "DBS"));
    println!("T2 read DBMS = {:?}", enc.search(&mut t2, "DBMS"));

    // T1's commit point: install its deferred change, then certify
    println!("\ncommit points:");
    enc.change(&mut t1, "DBMS", "v2");
    let outcome = certify(&mut cert, &t1);
    println!("  T1: {outcome:?}");
    assert_eq!(outcome, CommitOutcome::Committed);
    enc.commit(t1);

    // T2's commit point: its read of DBMS preceded T1's change (T2 -> T1)
    // and T1's read of DBS precedes this change (T1 -> T2)
    enc.change(&mut t2, "DBS", "updated by T2");
    let outcome = certify(&mut cert, &t2);
    println!("  T2: {outcome:?}");
    assert!(matches!(outcome, CommitOutcome::MustAbort(_)));
    let mut comp = rec.begin_txn("C(T2)");
    // the compensation is final as it stands: never a candidate
    cert.retire(TxnIdx(comp.txn_number()));
    let report = enc.abort(t2, &mut comp);
    drop(comp);
    println!("      compensated {} inverse(s)", report.compensated.len());

    enc.insert(&mut t3, "OODB", "object-oriented dbs");
    let outcome = certify(&mut cert, &t3);
    println!("  T3: {outcome:?}");
    assert_eq!(outcome, CommitOutcome::Committed);
    enc.commit(t3);

    println!("\ncertifier stats: {:?}", cert.stats);

    // the DURABLE (committed) sub-history is oo-serializable, and the
    // database holds Setup + T1 + T3
    let (final_ts, final_h) = rec.snapshot();
    let committed = cert.committed_history(&final_ts, &final_h);
    let ss = SystemSchedules::infer(&final_ts, &committed);
    let ok = check_system_decentralized(&final_ts, &ss).is_ok();
    println!("committed sub-history oo-serializable: {ok}");
    assert!(ok);
    assert_eq!(cert.stats.commits, 3, "Setup, T1 and T3 commit");
    assert_eq!(cert.stats.aborts, 1, "T2 fails validation");

    let mut check = rec.begin_txn("Check");
    assert_eq!(enc.search(&mut check, "DBMS").as_deref(), Some("v2"));
    assert_eq!(
        enc.search(&mut check, "DBS").as_deref(),
        Some("database systems")
    );
    assert!(enc.search(&mut check, "OODB").is_some());
    drop(check);
    println!("state: DBMS=v2 (T1), DBS original (T2 compensated), OODB present");
}
