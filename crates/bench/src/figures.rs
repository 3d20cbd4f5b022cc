//! Regeneration of the paper's figures (FIG1–FIG8 of DESIGN.md).
//!
//! Each function returns the printable reproduction; the `experiments`
//! binary prints it, and the integration tests assert on the structural
//! content. Figures 4–8 derive from the hand-crafted Example systems in
//! [`oodb_sim::paper`]; Figure 2 comes from the live encyclopedia.

use crate::table::{f1, Table};
use oodb_btree::{Encyclopedia, EncyclopediaConfig};
use oodb_core::prelude::*;
use oodb_core::schedule::Derivation;
use oodb_model::Recorder;
use oodb_sim::paper;
use oodb_sim::workloads::{banking_workload, BankOp, BankWorkloadConfig};
use std::sync::Arc;

/// Human-readable action label: `Object.method(args)[path]`.
fn label(ts: &TransactionSystem, a: ActionIdx) -> String {
    let info = ts.action(a);
    format!(
        "{}.{}[{}]",
        ts.object(info.object).name,
        info.descriptor,
        ts.path(a)
    )
}

/// Render the derivation trace of a schedule inference — the dashed arcs
/// of Figures 4 and 7 as text.
fn render_trace(ts: &TransactionSystem, ss: &SystemSchedules) -> String {
    let mut out = String::new();
    for d in ss.trace() {
        let line = match d {
            Derivation::PrimitiveOrder { object, from, to } => format!(
                "axiom-1   @{}: {} -> {}",
                ts.object(*object).name,
                label(ts, *from),
                label(ts, *to)
            ),
            Derivation::VirtualFootprint { object, from, to } => format!(
                "virtual   @{}: {} -> {}",
                ts.object(*object).name,
                label(ts, *from),
                label(ts, *to)
            ),
            Derivation::TxnDep {
                object, from, to, ..
            } => format!(
                "lift(D10) @{}: callers {} -> {}",
                ts.object(*object).name,
                label(ts, *from),
                label(ts, *to)
            ),
            Derivation::Inherited { via, at, from, to } => format!(
                "inherit(D11) {} => @{}: {} -> {}",
                ts.object(*via).name,
                ts.object(*at).name,
                label(ts, *from),
                label(ts, *to)
            ),
            Derivation::Added { via, from, to, .. } => format!(
                "added(D15) via {}: {} -> {}",
                ts.object(*via).name,
                label(ts, *from),
                label(ts, *to)
            ),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// **Figure 1** — the conventional-vs-object-oriented contrast, measured
/// on this implementation: a banking workload recorded as its call
/// trees, and the record of an encyclopedia workload run by the engine.
pub fn fig1() -> String {
    // --- banking side: small objects, short flat transactions ---------
    // Account methods touch only the receiver's balance (primitives);
    // Bank.transfer sends a withdraw and a deposit.
    let rec = Recorder::new();
    let bank = rec.object("bank", Arc::new(ReadWriteSpec));
    let accounts: Vec<_> = (0..16)
        .map(|i| rec.object(&format!("acc{i}"), Arc::new(EscrowSpec::unbounded())))
        .collect();
    let w = banking_workload(&BankWorkloadConfig {
        txns: 8,
        ops_per_txn: 4,
        accounts: accounts.len(),
        read_fraction: 0.25,
        seed: 3,
    });
    let call = |method: &str, amount: i64| ActionDescriptor::new(method, vec![Value::Int(amount)]);
    for (t, ops) in w.iter().enumerate() {
        let mut ctx = rec.begin_txn(format!("B{t}"));
        for op in ops {
            match *op {
                BankOp::Deposit { acc, amount } => {
                    ctx.primitive(accounts[acc], call("deposit", amount))
                }
                BankOp::Withdraw { acc, amount } => {
                    ctx.primitive(accounts[acc], call("withdraw", amount))
                }
                BankOp::Transfer { from, to, amount } => {
                    ctx.enter(
                        bank,
                        ActionDescriptor::new(
                            "transfer",
                            vec![
                                Value::Str(format!("acc{from}")),
                                Value::Str(format!("acc{to}")),
                                Value::Int(amount),
                            ],
                        ),
                    );
                    ctx.primitive(accounts[from], call("withdraw", amount));
                    ctx.primitive(accounts[to], call("deposit", amount));
                    ctx.exit();
                }
                BankOp::Balance { acc } => {
                    ctx.primitive(accounts[acc], ActionDescriptor::nullary("balance"))
                }
            }
        }
        drop(ctx);
    }
    let (bank_ts, bank_h) = rec.finish();
    let bank_stats = txn_shape_stats(&bank_ts, &bank_h, 0);

    // --- publication side: the encyclopedia with long transactions ----
    let w = oodb_sim::encyclopedia_workload(&oodb_sim::EncWorkloadConfig {
        txns: 8,
        ops_per_txn: 8,
        key_space: 128,
        preload: 64,
        mix: oodb_sim::EncMix::update_heavy(),
        ..Default::default()
    });
    let cfg = oodb_engine::EngineConfig {
        fanout: 16,
        ..oodb_engine::EngineConfig::default()
    };
    let (rec, setup) = crate::quant::engine_record(&cfg, &w);
    let enc_stats = txn_shape_stats(&rec.ts, &rec.history, setup);

    let mut t = Table::new(&[
        "metric",
        "conventional (banking)",
        "object-oriented (encyclopedia)",
    ]);
    t.row(vec![
        "objects touched / txn".into(),
        f1(bank_stats.objects_per_txn),
        f1(enc_stats.objects_per_txn),
    ]);
    t.row(vec![
        "actions / txn".into(),
        f1(bank_stats.actions_per_txn),
        f1(enc_stats.actions_per_txn),
    ]);
    t.row(vec![
        "primitive accesses / txn".into(),
        f1(bank_stats.prims_per_txn),
        f1(enc_stats.prims_per_txn),
    ]);
    t.row(vec![
        "max call depth".into(),
        format!("{}", bank_stats.max_depth),
        format!("{}", enc_stats.max_depth),
    ]);
    format!(
        "FIG 1 — conventional transactions vs object-oriented operations\n\
         (measured on this implementation; the paper's table is conceptual)\n\n{}",
        t.render()
    )
}

struct ShapeStats {
    objects_per_txn: f64,
    actions_per_txn: f64,
    prims_per_txn: f64,
    max_depth: usize,
}

fn txn_shape_stats(ts: &TransactionSystem, history: &History, skip: usize) -> ShapeStats {
    let tops: Vec<_> = ts.top_level().iter().copied().skip(skip).collect();
    let mut objects = 0usize;
    let mut actions = 0usize;
    let mut prims = 0usize;
    let mut max_depth = 0usize;
    for &t in &tops {
        let mut objs = std::collections::HashSet::new();
        let mut stack = vec![t];
        while let Some(a) = stack.pop() {
            let info = ts.action(a);
            objs.insert(info.object);
            actions += 1;
            max_depth = max_depth.max(info.depth as usize);
            if info.is_primitive() && history.position(a).is_some() {
                prims += 1;
            }
            stack.extend(ts.children(a));
        }
        objects += objs.len();
    }
    let n = tops.len().max(1) as f64;
    ShapeStats {
        objects_per_txn: objects as f64 / n,
        actions_per_txn: actions as f64 / n,
        prims_per_txn: prims as f64 / n,
        max_depth,
    }
}

/// **Figure 2** — the encyclopedia's object structure, dumped from a live
/// instance large enough to have split its leaves.
pub fn fig2() -> String {
    let rec = Recorder::new();
    let enc = Encyclopedia::create(
        rec.clone(),
        EncyclopediaConfig {
            fanout: 4,
            ..Default::default()
        },
    );
    let mut ctx = rec.begin_txn("Load");
    for (i, k) in [
        "DBS", "DBMS", "IRS", "OODB", "SQL", "TXN", "CAD", "KBMS", "NF2", "GIS",
    ]
    .iter()
    .enumerate()
    {
        enc.insert(&mut ctx, k, &format!("item text {i}"));
    }
    drop(ctx);
    enc.tree().check_integrity().expect("tree integrity");
    format!(
        "FIG 2 — structure of the encyclopedia (live instance, fanout 4)\n\n{}",
        enc.structure()
    )
}

/// **Figure 4 / Example 1** — the two halves of Example 1 with full
/// dependency traces: commuting inserts stop the inheritance at Leaf11;
/// the insert/search conflict propagates to the top.
pub fn fig4() -> String {
    let mut out = String::from("FIG 4 — Example 1\n\n");
    out.push_str("--- T1 insert(DBMS) / T2 insert(DBS): commuting at Leaf11 ---\n");
    let (ts, h) = paper::example1_commuting();
    let ss = SystemSchedules::infer(&ts, &h);
    out.push_str(&render_trace(&ts, &ss));
    for name in ["Page4712", "Leaf11", "BpTree", "Enc"] {
        let o = ts.object_by_name(name).unwrap();
        out.push_str(&ss.describe_object(&ts, o));
    }
    out.push_str(&format!(
        "top-level dependencies: {} (conventional would order T1 -> T2)\n\n",
        ss.schedule(ts.system_object()).action_deps.edge_count()
    ));

    out.push_str("--- T3 insert(DBS) / T4 search(DBS): conflicting at Leaf11 ---\n");
    let (ts, h) = paper::example1_conflicting();
    let ss = SystemSchedules::infer(&ts, &h);
    out.push_str(&render_trace(&ts, &ss));
    for name in ["Page4712", "Leaf11", "BpTree", "Enc"] {
        let o = ts.object_by_name(name).unwrap();
        out.push_str(&ss.describe_object(&ts, o));
    }
    let top = ss.schedule(ts.system_object());
    out.push_str(&format!(
        "top-level dependencies: {} (T3 -> T4 inherited through every level)\n",
        top.action_deps.edge_count()
    ));
    out
}

/// **Figure 5 / Example 2** — the call tree of one oo-transaction.
pub fn fig5() -> String {
    let (ts, root) = paper::example2_tree();
    format!(
        "FIG 5 — the tree of oo-transaction t1 (precedence = top-to-bottom order)\n\n{}",
        ts.render_tree(root)
    )
}

/// **Figure 6 / Example 3** — the virtual-object extension applied to the
/// Figure 5 transaction (a1 →* a12, both on O1).
pub fn fig6() -> String {
    let (mut ts, root) = paper::example2_tree();
    let report = extend_virtual_objects(&mut ts);
    let mut out = String::from("FIG 6 — extension of the system by virtual objects (Def. 5)\n\n");
    for step in &report.steps {
        out.push_str(&format!(
            "moved {} from {} to virtual object {}\n",
            label(&ts, step.moved),
            ts.object(step.original).name,
            ts.object(step.virtual_object).name,
        ));
        for (orig, dup) in &step.duplicates {
            out.push_str(&format!(
                "  virtual duplicate: {} called by {}\n",
                label(&ts, *dup),
                label(&ts, *orig),
            ));
        }
    }
    out.push('\n');
    out.push_str(&ts.render_tree(root));
    out
}

/// **Figure 7 / Example 4** — the four transactions with their
/// dependencies, as a derivation trace plus Graphviz DOT.
pub fn fig7() -> String {
    let (ts, h) = paper::example4();
    let ss = SystemSchedules::infer(&ts, &h);
    let mut out = String::from("FIG 7 — Example 4: T1..T4 with dependencies\n\n");
    for &t in ts.top_level() {
        out.push_str(&ts.render_tree(t));
    }
    out.push('\n');
    out.push_str(&render_trace(&ts, &ss));
    out.push('\n');
    let dot = ss
        .top_level_deps(&ts)
        .to_dot("example4-top-level", |a| label(&ts, *a));
    out.push_str(&dot);
    out
}

/// **Figure 8** — the per-object schedule-dependency table of Example 4.
pub fn fig8() -> String {
    let (ts, h) = paper::example4();
    let ss = SystemSchedules::infer(&ts, &h);
    let mut out = String::from("FIG 8 — objects x schedule dependencies (Example 4)\n\n");
    for name in [
        "Page4712",
        "Page4801",
        "Leaf11",
        "BpTree",
        "Item8",
        "LinkedList",
        "Enc",
        "S",
    ] {
        let o = ts.object_by_name(name).unwrap();
        out.push_str(&ss.describe_object(&ts, o));
        out.push('\n');
    }
    let r = analyze(&ts, &h);
    out.push_str(&format!(
        "verdicts: oo-decentralized={:?} oo-global={:?} conventional={:?}\n",
        r.oo_decentralized.is_ok(),
        r.oo_global.is_ok(),
        r.conventional.is_ok()
    ));
    out
}

/// **GAP** — the added-relation incompleteness witness (EXPERIMENTS.md).
pub fn gap() -> String {
    let (ts, h) = paper::added_relation_gap();
    let ss = SystemSchedules::infer(&ts, &h);
    let r = analyze(&ts, &h);
    let mut out = String::from(
        "GAP — three cross-object dependencies with no common pair:\n\
         A@X -> B@Y (via P1), B@Y -> C@Z (via P2), C@Z -> A@X (via P3)\n\n",
    );
    out.push_str(&render_trace(&ts, &ss));
    out.push_str(&format!(
        "\nconventional: {:?}\npaper (Def 16, pairwise added relation): {:?}\n\
         strengthened whole-system graph: {:?}\n",
        r.conventional.is_ok(),
        r.oo_decentralized.is_ok(),
        r.oo_global.is_ok()
    ));
    out.push_str(
        "\nThe paper's decentralized check accepts this genuinely\n\
         non-serializable schedule; recording added dependencies at *both*\n\
         objects is pairwise-complete but not cycle-complete for three or\n\
         more objects. The whole-system graph closes the gap.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_contains_both_columns() {
        let s = fig1();
        assert!(s.contains("banking"));
        assert!(s.contains("encyclopedia"));
        assert!(s.contains("max call depth"));
        // the banking column is deterministic (seed 3): objects, actions
        // and primitive accesses per transaction, then the call depth
        let banking: Vec<&str> = s
            .lines()
            .skip_while(|l| !l.starts_with("---"))
            .skip(1)
            .filter_map(|l| l.split("  ").filter(|c| !c.is_empty()).nth(1))
            .map(str::trim)
            .collect();
        assert_eq!(banking, ["5.6", "5.8", "4.4", "3"], "{s}");
    }

    #[test]
    fn fig2_shows_split_tree() {
        let s = fig2();
        assert!(s.contains("Enc"));
        assert!(s.contains("BpTree"));
        assert!(s.contains("Leaf"));
        assert!(s.contains("Node"), "fanout 4 with 10 keys must split: {s}");
    }

    #[test]
    fn fig4_shows_inheritance_stopping_and_propagating() {
        let s = fig4();
        assert!(s.contains("axiom-1"));
        assert!(s.contains("lift(D10)"));
        assert!(s.contains("top-level dependencies: 0"));
        assert!(s.contains("top-level dependencies: 1"));
    }

    #[test]
    fn fig5_and_fig6_render() {
        assert!(fig5().contains("O1.m(x)"));
        let s6 = fig6();
        assert!(s6.contains("virtual object O1'"));
        assert!(s6.contains("virtual duplicate"));
    }

    #[test]
    fn fig7_has_dot_output() {
        let s = fig7();
        assert!(s.contains("digraph"));
        assert!(s.contains("Enc.insert"));
    }

    #[test]
    fn fig8_lists_every_object_row() {
        let s = fig8();
        for name in ["Page4712", "Leaf11", "BpTree", "Item8", "LinkedList", "Enc"] {
            assert!(s.contains(&format!("object {name}")), "missing {name}");
        }
        assert!(s.contains("oo-decentralized=true"));
    }

    #[test]
    fn gap_reports_the_disagreement() {
        let s = gap();
        assert!(s.contains("paper (Def 16, pairwise added relation): true"));
        assert!(s.contains("strengthened whole-system graph: false"));
    }
}
