//! Escrow commutativity on account objects (the paper cites O'Neil's
//! escrow method as the technique that folds parameter values and object
//! state into the commutativity definition).
//!
//! Concurrent deposits and withdrawals commute as long as the escrow test
//! proves no bound can be violated — so interleaved transfers leave the
//! top level unordered — while balance reads conflict with updates and do
//! order transactions.
//!
//! Run with: `cargo run --example banking_escrow`

use oodb::core::prelude::*;
use oodb::lock::{EscrowAccount, EscrowError};
use oodb::model::{Recorder, TxnCtx};
use std::sync::Arc;

const ALICE: usize = 0;
const BOB: usize = 1;

fn main() {
    // ---- part 1: interleaved transfers commute -------------------------
    let rec = Recorder::new();
    let bank = rec.object("bank", Arc::new(ReadWriteSpec));
    let names = ["alice", "bob"];
    let accounts = names.map(|name| rec.object(name, Arc::new(EscrowSpec::unbounded())));
    let mut balance = [0i64; 2];

    // an Account method touches only the receiver's own balance: sending
    // it is one primitive action (`delta` is signed, a withdraw negative)
    let mut send = |ctx: &mut TxnCtx, acc: usize, method: &str, delta: i64| {
        ctx.primitive(
            accounts[acc],
            ActionDescriptor::new(method, vec![Value::Int(delta.abs())]),
        );
        balance[acc] += delta;
    };

    let mut seed = rec.begin_txn("Seed");
    send(&mut seed, ALICE, "deposit", 100);
    send(&mut seed, BOB, "deposit", 100);
    drop(seed);

    // `Bank.transfer` sends a withdraw and a deposit: a non-primitive
    // action whose children are what its body sends
    let mut transfer = |ctx: &mut TxnCtx, from: usize, to: usize, amount: i64| {
        ctx.enter(
            bank,
            ActionDescriptor::new(
                "transfer",
                vec![names[from].into(), names[to].into(), Value::Int(amount)],
            ),
        );
        send(ctx, from, "withdraw", -amount);
        send(ctx, to, "deposit", amount);
        ctx.exit();
    };

    let mut t1 = rec.begin_txn("T1");
    let mut t2 = rec.begin_txn("T2");
    // interleave two opposing transfers
    transfer(&mut t1, ALICE, BOB, 30);
    transfer(&mut t2, BOB, ALICE, 10);
    transfer(&mut t1, ALICE, BOB, 5);
    drop(t1);
    drop(t2);

    println!("alice = {}, bob = {}", balance[ALICE], balance[BOB]);

    let (ts, h) = rec.finish();
    let report = analyze(&ts, &h);
    let ss = SystemSchedules::infer(&ts, &h);
    let top_edges: Vec<_> = ss
        .schedule(ts.system_object())
        .action_deps
        .edges()
        .map(|(f, t)| {
            format!(
                "{} -> {}",
                ts.action(*f).descriptor,
                ts.action(*t).descriptor
            )
        })
        .collect();
    println!("oo-serializable: {}", report.oo_decentralized.is_ok());
    println!("top-level orderings among T1/T2: {top_edges:?}");
    assert!(report.oo_decentralized.is_ok());

    // ---- part 2: escrow bounds under concurrency -----------------------
    println!("\nescrow account, lower bound 0, committed 100:");
    let mut acc = EscrowAccount::new(100, 0);
    acc.request(1, -60).unwrap();
    println!(
        "  txn1 withdraw 60: granted (worst case {})",
        acc.worst_case()
    );
    match acc.request(2, -60) {
        Err(EscrowError::WouldViolateBound { worst_case, .. }) => {
            println!("  txn2 withdraw 60: REFUSED (worst case would be {worst_case})")
        }
        other => panic!("expected refusal, got {other:?}"),
    }
    acc.request(2, -40).unwrap();
    println!(
        "  txn2 withdraw 40: granted (worst case {})",
        acc.worst_case()
    );
    acc.abort(1).unwrap();
    acc.commit(2).unwrap();
    println!(
        "  after txn1 aborts and txn2 commits: balance {}",
        acc.committed()
    );
    assert_eq!(acc.committed(), 60);
}
