//! Property-based tests for the core oo-serializability machinery.
//!
//! The central properties (the specs' symmetry is `spec_oracle.rs`'s):
//! * serial histories pass every checker (soundness floor);
//! * conventional conflict serializability implies oo-serializability
//!   (the paper's inclusion claim, Definition 16 vs the flat baseline);
//! * the graph algorithms agree with brute force on small graphs;
//! * dependency inference is deterministic.

use oodb_core::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Random system + history generation
// ---------------------------------------------------------------------

/// Blueprint for one leaf-level call of a transaction.
#[derive(Debug, Clone)]
struct CallPlan {
    leaf: usize,
    method: usize, // 0 = insert, 1 = search, 2 = delete
    key: usize,
    pages: Vec<(usize, bool)>, // (page index, is_write)
}

#[derive(Debug, Clone)]
struct SystemPlan {
    n_leaves: usize,
    n_pages: usize,
    txns: Vec<Vec<CallPlan>>,
    /// permutation seed for the interleaving
    shuffle: Vec<u32>,
}

fn call_plan(n_leaves: usize, n_pages: usize) -> impl Strategy<Value = CallPlan> {
    (
        0..n_leaves,
        0..3usize,
        0..4usize,
        prop::collection::vec((0..n_pages, any::<bool>()), 1..3),
    )
        .prop_map(|(leaf, method, key, pages)| CallPlan {
            leaf,
            method,
            key,
            pages,
        })
}

fn system_plan() -> impl Strategy<Value = SystemPlan> {
    (2..4usize, 2..4usize)
        .prop_flat_map(|(n_leaves, n_pages)| {
            (
                Just(n_leaves),
                Just(n_pages),
                prop::collection::vec(
                    prop::collection::vec(call_plan(n_leaves, n_pages), 1..3),
                    2..4,
                ),
                prop::collection::vec(any::<u32>(), 32),
            )
        })
        .prop_map(|(n_leaves, n_pages, txns, shuffle)| SystemPlan {
            n_leaves,
            n_pages,
            txns,
            shuffle,
        })
}

const METHODS: [&str; 3] = ["insert", "search", "delete"];
const KEYS: [&str; 4] = ["DBS", "DBMS", "OODB", "IRS"];

fn build(plan: &SystemPlan) -> (TransactionSystem, Vec<Vec<ActionIdx>>) {
    let mut ts = TransactionSystem::new();
    let leaves: Vec<ObjectIdx> = (0..plan.n_leaves)
        .map(|i| {
            ts.add_object(
                format!("Leaf{i}"),
                Arc::new(RangeSpec::ordered_container("leaf")),
            )
        })
        .collect();
    let pages: Vec<ObjectIdx> = (0..plan.n_pages)
        .map(|i| ts.add_object(format!("Page{i}"), Arc::new(ReadWriteSpec)))
        .collect();
    let mut prims_per_txn = Vec::new();
    for (ti, calls) in plan.txns.iter().enumerate() {
        let mut prims = Vec::new();
        let mut b = ts.txn(format!("T{}", ti + 1));
        for c in calls {
            b.call(
                leaves[c.leaf],
                ActionDescriptor::new(METHODS[c.method], vec![key(KEYS[c.key])]),
            );
            for &(p, w) in &c.pages {
                prims.push(b.leaf(
                    pages[p],
                    ActionDescriptor::nullary(if w { "write" } else { "read" }),
                ));
            }
            b.end();
        }
        b.finish();
        prims_per_txn.push(prims);
    }
    (ts, prims_per_txn)
}

/// Deterministically interleave the per-transaction primitive streams
/// using the shuffle words as choices, preserving each transaction's
/// internal (programmed) order so histories conform.
fn interleave(prims: &[Vec<ActionIdx>], shuffle: &[u32]) -> Vec<ActionIdx> {
    let mut cursors = vec![0usize; prims.len()];
    let mut out = Vec::new();
    let mut si = 0usize;
    loop {
        let live: Vec<usize> = (0..prims.len())
            .filter(|&i| cursors[i] < prims[i].len())
            .collect();
        if live.is_empty() {
            break;
        }
        let pick = live[shuffle[si % shuffle.len()] as usize % live.len()];
        si += 1;
        out.push(prims[pick][cursors[pick]]);
        cursors[pick] += 1;
    }
    out
}

proptest! {
    #[test]
    fn serial_histories_pass_all_checkers(plan in system_plan()) {
        let (ts, _) = build(&plan);
        for h in History::all_serial(&ts) {
            let r = analyze(&ts, &h);
            prop_assert!(r.oo_decentralized.is_ok(), "{:?}", r.oo_decentralized);
            prop_assert!(r.oo_global.is_ok(), "{:?}", r.oo_global);
            prop_assert!(r.conventional.is_ok(), "{:?}", r.conventional);
            prop_assert!(r.multilevel.is_ok(), "{:?}", r.multilevel);
            prop_assert!(h.is_serial(&ts));
            prop_assert!(h.check_conform(&ts).is_ok());
        }
    }

    /// The paper's inclusion: conventionally serializable ⟹ oo-serializable.
    #[test]
    fn conventional_sr_implies_oo_sr(plan in system_plan()) {
        let (ts, prims) = build(&plan);
        let order = interleave(&prims, &plan.shuffle);
        let h = History::from_order(&ts, &order).unwrap();
        let r = analyze(&ts, &h);
        if r.conventional.is_ok() {
            prop_assert!(
                r.oo_global.is_ok(),
                "conventional accepted but oo-global rejected: {:?}",
                r.oo_global
            );
            prop_assert!(
                r.oo_decentralized.is_ok(),
                "conventional accepted but oo-decentralized rejected: {:?}",
                r.oo_decentralized
            );
        }
        // interleavings produced by `interleave` preserve programmed order
        prop_assert!(h.check_conform(&ts).is_ok());
    }

    /// The strengthened global check only ever *adds* rejections on top
    /// of the paper's decentralized Definition 16: global-accept implies
    /// decentralized-accept by construction, and a decentralized
    /// rejection is always a global rejection.
    #[test]
    fn global_check_strengthens_decentralized(plan in system_plan()) {
        let (ts, prims) = build(&plan);
        let order = interleave(&prims, &plan.shuffle);
        let h = History::from_order(&ts, &order).unwrap();
        let r = analyze(&ts, &h);
        if r.oo_global.is_ok() {
            prop_assert!(r.oo_decentralized.is_ok());
        }
        if r.oo_decentralized.is_err() {
            prop_assert!(r.oo_global.is_err());
        }
    }

    #[test]
    fn inference_is_deterministic(plan in system_plan()) {
        let (ts, prims) = build(&plan);
        let order = interleave(&prims, &plan.shuffle);
        let h = History::from_order(&ts, &order).unwrap();
        let s1 = SystemSchedules::infer(&ts, &h);
        let s2 = SystemSchedules::infer(&ts, &h);
        prop_assert!(s1.equivalent(&s2));
        for o in ts.object_indices() {
            let a1 = &s1.schedule(o).action_deps;
            let a2 = &s2.schedule(o).action_deps;
            prop_assert_eq!(a1.edge_count(), a2.edge_count());
            for (f, t) in a1.edges() {
                prop_assert!(a2.has_edge(f, t));
            }
        }
    }

    /// Scope-filtered inference (what the sharded validator runs per
    /// commit) is indistinguishable, edge for edge, from running the
    /// full fixpoint over the same scope-restricted history — for every
    /// scope, not just the full one.
    #[test]
    fn scoped_inference_matches_full_on_restricted_history(
        plan in system_plan(),
        mask in any::<u32>(),
    ) {
        use oodb_core::certifier::restrict_history;
        use oodb_core::ids::TxnIdx;
        let (ts, prims) = build(&plan);
        let order = interleave(&prims, &plan.shuffle);
        let h = History::from_order(&ts, &order).unwrap();
        let n = ts.top_level().len();
        let scope: std::collections::HashSet<TxnIdx> = (0..n)
            .filter(|t| mask >> (t % 32) & 1 == 1)
            .map(|t| TxnIdx(t as u32))
            .collect();
        let restricted = restrict_history(&ts, &h, &scope);
        let full = SystemSchedules::infer(&ts, &restricted);
        let scoped = SystemSchedules::infer_scoped(&ts, &restricted, &scope);
        for o in ts.object_indices() {
            let pairs = [
                (&full.schedule(o).action_deps, &scoped.schedule(o).action_deps),
                (&full.schedule(o).txn_deps, &scoped.schedule(o).txn_deps),
                (&full.schedule(o).added_deps, &scoped.schedule(o).added_deps),
            ];
            for (g_full, g_scoped) in pairs {
                prop_assert_eq!(
                    g_full.edge_count(),
                    g_scoped.edge_count(),
                    "object {}",
                    ts.object(o).name.clone()
                );
                for (f, t) in g_full.edges() {
                    prop_assert!(g_scoped.has_edge(f, t));
                }
            }
        }
    }

    /// Acyclicity of the per-object caller dependency relation coincides
    /// with the literal "equivalent serial object schedule exists"
    /// (Definition 13 (i) with Definition 8's caller-level serial
    /// notion), checked by brute-force enumeration of caller orders.
    #[test]
    fn caller_acyclicity_iff_equivalent_serial(plan in system_plan()) {
        let (ts, prims) = build(&plan);
        let order = interleave(&prims, &plan.shuffle);
        let h = History::from_order(&ts, &order).unwrap();
        let ss = SystemSchedules::infer(&ts, &h);
        for o in ts.object_indices() {
            let acyclic = ss.schedule(o).txn_deps.find_cycle().is_none();
            let brute =
                oodb_core::serializability::exists_equivalent_serial_bruteforce(&ss, o);
            prop_assert_eq!(acyclic, brute, "object {}", ts.object(o).name.clone());
        }
    }
}

// ---------------------------------------------------------------------
// Graph algorithms vs brute force
// ---------------------------------------------------------------------

fn small_graph() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0..6u8, 0..6u8), 0..15)
}

/// Brute-force cycle detection: DFS from every node looking for a path
/// back to itself.
fn brute_has_cycle(edges: &[(u8, u8)]) -> bool {
    let nodes: Vec<u8> = {
        let mut v: Vec<u8> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    for &start in &nodes {
        // can we return to start?
        let mut stack = vec![start];
        let mut seen = Vec::new();
        while let Some(v) = stack.pop() {
            for &(a, b) in edges {
                if a == v {
                    if b == start {
                        return true;
                    }
                    if !seen.contains(&b) {
                        seen.push(b);
                        stack.push(b);
                    }
                }
            }
        }
    }
    false
}

proptest! {
    #[test]
    fn cycle_detection_matches_bruteforce(edges in small_graph()) {
        let mut g = DiGraph::new();
        for &(a, b) in &edges {
            g.add_edge(a, b);
        }
        prop_assert_eq!(g.has_cycle(), brute_has_cycle(&edges));
        // topo sort exists iff acyclic
        prop_assert_eq!(g.topo_sort().is_some(), !g.has_cycle());
    }

    #[test]
    fn topo_sort_respects_all_edges(edges in small_graph()) {
        let mut g = DiGraph::new();
        for &(a, b) in &edges {
            g.add_edge(a, b);
        }
        if let Some(order) = g.topo_sort() {
            let pos = |x: u8| order.iter().position(|&y| y == x).unwrap();
            for &(a, b) in &edges {
                prop_assert!(pos(a) < pos(b), "edge {}->{} violated", a, b);
            }
        }
    }

    #[test]
    fn cycle_witness_is_genuine(edges in small_graph()) {
        let mut g = DiGraph::new();
        for &(a, b) in &edges {
            g.add_edge(a, b);
        }
        if let Some(cycle) = g.find_cycle() {
            for w in cycle.windows(2) {
                prop_assert!(g.has_edge(&w[0], &w[1]));
            }
            prop_assert!(g.has_edge(cycle.last().unwrap(), &cycle[0]));
        }
    }

    /// The rooted search over an implicit graph: from one start it finds
    /// a cycle iff one is reachable from that start, the witness is a
    /// genuine cycle, and it expands each reachable node at most once.
    #[test]
    fn rooted_search_finds_exactly_the_reachable_cycles(
        edges in small_graph(),
        start in 0..6u8,
    ) {
        use oodb_core::graph::find_cycle_from;
        let mut g = DiGraph::new();
        g.add_node(start);
        for &(a, b) in &edges {
            g.add_edge(a, b);
        }
        // the nodes `start` reaches, itself included, by a fixpoint over
        // the edge list
        let mut from = vec![start];
        while let Some(&(_, b)) = edges
            .iter()
            .find(|&&(a, b)| from.contains(&a) && !from.contains(&b))
        {
            from.push(b);
        }
        let reachable: Vec<(u8, u8)> = edges
            .iter()
            .copied()
            .filter(|(a, _)| from.contains(a))
            .collect();
        let mut visited = 0u64;
        let found = find_cycle_from(
            [start],
            |v, out| out.extend(g.successors(v).copied()),
            &mut visited,
        );
        prop_assert_eq!(found.is_some(), brute_has_cycle(&reachable));
        prop_assert!(visited as usize <= g.node_count());
        if let Some(cycle) = found {
            for (i, v) in cycle.iter().enumerate() {
                prop_assert!(g.has_edge(v, &cycle[(i + 1) % cycle.len()]));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Layered systems: the paper's claim that oo-serializability includes
// multi-layer serializability — on strictly layered call structures the
// two verdicts coincide.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn multilevel_equals_global_on_layered_systems(plan in system_plan()) {
        // the generated systems are strictly layered: depth 1 = roots on
        // S, depth 2 = leaf-object calls, depth 3 = page primitives. On
        // layered systems every dependency edge connects same-depth
        // actions, so the whole-system graph decomposes into the
        // per-level graphs: the strengthened global check and Weikum's
        // multilevel check coincide, and both imply the paper's
        // decentralized check (the converse fails only in the
        // added-relation gap).
        let (ts, prims) = build(&plan);
        let order = interleave(&prims, &plan.shuffle);
        let h = History::from_order(&ts, &order).unwrap();
        let r = analyze(&ts, &h);
        prop_assert_eq!(
            r.oo_global.is_ok(),
            r.multilevel.is_ok(),
            "layered: global {:?} vs multilevel {:?}",
            r.oo_global,
            r.multilevel
        );
        if r.multilevel.is_ok() {
            prop_assert!(r.oo_decentralized.is_ok());
        }
    }

    /// Histories recorded with per-transaction sequential programs always
    /// conform (Definition 7) — and deliberately reordering two
    /// program-ordered primitives breaks conformance.
    #[test]
    fn conformance_matches_program_order(plan in system_plan()) {
        let (ts, prims) = build(&plan);
        let order = interleave(&prims, &plan.shuffle);
        let h = History::from_order(&ts, &order).unwrap();
        prop_assert!(h.check_conform(&ts).is_ok());
        // swap the first transaction's first two primitives if it has two
        if let Some(row) = prims.iter().find(|r| r.len() >= 2) {
            let mut bad = order.clone();
            let i = bad.iter().position(|a| *a == row[0]).unwrap();
            let j = bad.iter().position(|a| *a == row[1]).unwrap();
            bad.swap(i, j);
            let hb = History::from_order(&ts, &bad).unwrap();
            prop_assert!(hb.check_conform(&ts).is_err());
        }
    }

    /// On oo-serializable schedules the certifier commits every
    /// transaction, in one pass in transaction order: no validation fails.
    #[test]
    fn certifier_commits_everything_on_serializable_schedules(plan in system_plan()) {
        use oodb_core::certifier::{Certifier, CommitOutcome};
        let (ts, prims) = build(&plan);
        let order = interleave(&prims, &plan.shuffle);
        let h = History::from_order(&ts, &order).unwrap();
        if analyze(&ts, &h).oo_decentralized.is_ok() {
            let mut cert = Certifier::default();
            for t in 0..ts.top_level().len() as u32 {
                let outcome = cert.try_commit(&ts, &h, TxnIdx(t));
                prop_assert!(
                    outcome == CommitOutcome::Committed,
                    "txn {} aborted on serializable schedule: {:?}", t, outcome
                );
            }
            prop_assert_eq!(cert.stats.aborts, 0);
        }
    }
}

// ---------------------------------------------------------------------
// Incremental maintenance equals batch inference on cycle-free systems.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn incremental_equals_batch(plan in system_plan()) {
        use oodb_core::incremental::IncrementalSchedules;
        let (ts, prims) = build(&plan);
        let order = interleave(&prims, &plan.shuffle);
        let h = History::from_order(&ts, &order).unwrap();
        let batch = SystemSchedules::infer(&ts, &h);
        let mut inc = IncrementalSchedules::new();
        for &p in &order {
            inc.on_primitive(&ts, p);
        }
        prop_assert!(inc.matches_batch(&ts, &batch));
    }
}

// ---------------------------------------------------------------------
// The candidate-rooted Definition-16 check decides what the whole-scope
// checks decide.
// ---------------------------------------------------------------------

/// Definition 16 over the maintained relations, each filtered to `scope`,
/// rebuilt as a fresh graph and searched whole for every object — what
/// the incremental certifier ran before the candidate-rooted search.
/// Kept as that search's reference.
fn whole_scope_check(
    ts: &TransactionSystem,
    inc: &IncrementalSchedules,
    scope: &std::collections::HashSet<TxnIdx>,
) -> bool {
    let keep = |a: &ActionIdx| scope.contains(&ts.action(*a).txn);
    let filtered = |graphs: &[Option<&DiGraph<ActionIdx>>]| {
        let mut out: DiGraph<ActionIdx> = DiGraph::new();
        for (f, t) in graphs.iter().flatten().flat_map(|g| g.edges()) {
            if keep(f) && keep(t) {
                out.add_edge(*f, *t);
            }
        }
        out
    };
    ts.object_indices().all(|o| {
        let (txn, action, added) = (inc.txn_deps(o), inc.action_deps(o), inc.added_deps(o));
        !(filtered(&[txn]).has_cycle()
            || filtered(&[action]).has_cycle()
            || filtered(&[action, added]).has_cycle())
    })
}

proptest! {
    /// Random small systems × random histories × random finalization
    /// orders × forced reseeds: the rooted verdict and
    /// the old whole-scope filter agree at every step — both through the
    /// public check functions over a hand-driven feed (reseeded after
    /// every step when forced, so the start lists are rebuilt too) and
    /// through the production `Certifier` — and the from-scratch replay
    /// reproduces every decision.
    #[test]
    fn rooted_check_matches_from_scratch_and_whole_scope(
        plan in system_plan(),
        priority in prop::collection::vec(any::<u32>(), 4),
        force_reseed in any::<bool>(),
    ) {
        use oodb_core::certifier::{Certifier, CommitOutcome};
        use oodb_core::incremental::IncrementalFeed;
        use oodb_core::serializability::check_candidate_decentralized;
        use std::collections::HashSet;

        let (ts, prims) = build(&plan);
        let h = History::from_order(&ts, &interleave(&prims, &plan.shuffle)).unwrap();
        let mut order: Vec<u32> = (0..ts.top_level().len() as u32).collect();
        order.sort_by_key(|&t| (priority[t as usize % priority.len()], t));

        let mut cert = Certifier::default();
        let mut decisions = Vec::new();
        let mut feed = IncrementalFeed::new();
        let mut committed: HashSet<TxnIdx> = HashSet::new();
        let mut visited = 0u64;
        for t in order.into_iter().map(TxnIdx) {
            feed.feed_admitted(&ts, &h, |x| committed.contains(&x));
            if force_reseed {
                feed.reseed(&ts, &h);
            }
            let mut scope = committed.clone();
            scope.insert(t);
            let in_scope = |x: TxnIdx| scope.contains(&x);
            let rooted =
                check_candidate_decentralized(&ts, feed.schedules(), t, in_scope, &mut visited)
                    .is_ok();
            let whole = whole_scope_check(&ts, feed.schedules(), &scope);
            let production = cert.try_commit(&ts, &h, t) == CommitOutcome::Committed;
            decisions.push((t, rooted));
            prop_assert_eq!(rooted, whole, "rooted vs whole-scope at {}", t);
            prop_assert_eq!(rooted, production, "rooted vs Certifier at {}", t);
            if rooted {
                committed.insert(t);
            } else {
                feed.exclude(t);
            }
        }
        let diverged = replay_from_scratch(&ts, &h, &decisions);
        prop_assert_eq!(diverged, None, "from scratch differs: {:?}", &decisions);
        if !force_reseed {
            // same feed, same searches, same count
            prop_assert_eq!(cert.stats.check_visited, visited);
        }
    }
}

// ---------------------------------------------------------------------
// The cut: what the certifier drops, nothing it keeps can reach, and
// dropping it changes no decision.
// ---------------------------------------------------------------------

/// A run in which the history grows while transactions finalize: at most
/// `window` transactions execute side by side (the next one starts when
/// one has recorded its last primitive), and transaction `t` asks to
/// commit `delay[t]` primitives after its own last one.
#[derive(Debug, Clone)]
struct OnlinePlan {
    system: SystemPlan,
    window: usize,
    delay: Vec<usize>,
}

fn online_plan() -> impl Strategy<Value = OnlinePlan> {
    (2..4usize, 2..4usize)
        .prop_flat_map(|(n_leaves, n_pages)| {
            (
                Just(n_leaves),
                Just(n_pages),
                prop::collection::vec(
                    prop::collection::vec(call_plan(n_leaves, n_pages), 1..3),
                    4..11,
                ),
                prop::collection::vec(any::<u32>(), 32),
                1..4usize,
                prop::collection::vec(0..4usize, 10),
            )
        })
        .prop_map(
            |(n_leaves, n_pages, txns, shuffle, window, delay)| OnlinePlan {
                system: SystemPlan {
                    n_leaves,
                    n_pages,
                    txns,
                    shuffle,
                },
                window,
                delay,
            },
        )
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Record(ActionIdx),
    Finish(TxnIdx),
}

/// The plan's run as a sequence of recorded primitives and commit
/// requests; every transaction finishes exactly once, after its last
/// primitive.
fn online_steps(plan: &OnlinePlan, prims: &[Vec<ActionIdx>]) -> Vec<Step> {
    let n = prims.len();
    let mut steps = Vec::new();
    let mut cursors = vec![0usize; n];
    let mut open: Vec<usize> = (0..plan.window.min(n)).collect();
    let mut next = open.len();
    // (primitives still to pass, transaction), in the order they ended
    let mut ending: Vec<(usize, usize)> = Vec::new();
    let mut pick = 0usize;
    while !open.is_empty() {
        let shuffle = &plan.system.shuffle;
        let slot = shuffle[pick % shuffle.len()] as usize % open.len();
        pick += 1;
        let t = open[slot];
        steps.push(Step::Record(prims[t][cursors[t]]));
        cursors[t] += 1;
        for e in &mut ending {
            e.0 = e.0.saturating_sub(1);
        }
        if cursors[t] == prims[t].len() {
            open.remove(slot);
            ending.push((plan.delay[t % plan.delay.len()], t));
            if next < n {
                open.push(next);
                next += 1;
            }
        }
        ending.retain(|&(left, t)| {
            if left == 0 {
                steps.push(Step::Finish(TxnIdx(t as u32)));
            }
            left > 0
        });
    }
    steps.extend(ending.iter().map(|&(_, t)| Step::Finish(TxnIdx(t as u32))));
    steps
}

/// The certifier's oracle, offline: re-decide each `(candidate,
/// admitted)` of a run in order, from scratch, over the final record —
/// Definition 16 over the record restricted to the transactions admitted
/// so far plus the candidate. Every primitive of a candidate is recorded
/// before its decision and restriction keeps order, so the restriction of
/// the final record is the history the decision saw. Returns the index
/// of the first decision it does not reproduce.
fn replay_from_scratch(
    ts: &TransactionSystem,
    h: &History,
    decisions: &[(TxnIdx, bool)],
) -> Option<usize> {
    use oodb_core::certifier::restrict_history;
    let mut committed = std::collections::HashSet::new();
    decisions.iter().position(|&(t, admitted)| {
        let mut scope = committed.clone();
        scope.insert(t);
        let restricted = restrict_history(ts, h, &scope);
        let ss = SystemSchedules::infer_scoped(ts, &restricted, &scope);
        if admitted {
            committed.insert(t);
        }
        check_system_decentralized(ts, &ss).is_ok() != admitted
    })
}

fn witness(v: &Violation) -> &[ActionIdx] {
    match v {
        Violation::TxnDepCycle { cycle, .. }
        | Violation::ActionDepCycle { cycle, .. }
        | Violation::AddedDepCycle { cycle, .. }
        | Violation::GlobalCycle { cycle }
        | Violation::ConventionalCycle { cycle }
        | Violation::LevelCycle { cycle, .. } => cycle,
    }
}

/// Play the plan: grow the record primitive by primitive and hand every
/// commit request to `finish` with the history so far and the index of
/// the step. Returns the complete order and the number of steps.
fn play_online(
    plan: &OnlinePlan,
    ts: &TransactionSystem,
    prims: &[Vec<ActionIdx>],
    mut finish: impl FnMut(&History, TxnIdx, usize) -> Result<(), TestCaseError>,
) -> Result<(Vec<ActionIdx>, usize), TestCaseError> {
    let steps = online_steps(plan, prims);
    let mut order = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        match *step {
            Step::Record(p) => order.push(p),
            Step::Finish(t) => finish(&History::from_order(ts, &order).unwrap(), t, i)?,
        }
    }
    Ok((order, steps.len()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// After every `try_commit`, no edge of whole-record batch inference
    /// runs into a dropped transaction from one that was retained, live
    /// or not yet recorded when it was dropped. Each case is a batch of
    /// runs so the share that dropped anything can be asserted: a rule
    /// that never drops would pass the closure check vacuously.
    #[test]
    fn cut_is_closed(plans in prop::collection::vec(online_plan(), 32)) {
        use oodb_core::certifier::{Certifier, CommitOutcome};
        use std::collections::HashMap;

        let mut runs_that_dropped = 0;
        for plan in &plans {
            let (ts, prims) = build(&plan.system);
            let mut cert = Certifier::default();
            // the finalization step at which a transaction left for good
            let mut dropped_at: HashMap<TxnIdx, usize> = HashMap::new();
            let mut aborted_at: HashMap<TxnIdx, usize> = HashMap::new();
            let (order, steps) = play_online(plan, &ts, &prims, |h, t, step| {
                if let CommitOutcome::MustAbort(_) = cert.try_commit(&ts, h, t) {
                    aborted_at.insert(t, step);
                }
                for &d in cert.excluded() {
                    if cert.committed().contains(&d) {
                        dropped_at.entry(d).or_insert(step);
                    }
                }
                Ok(())
            })?;
            let h = History::from_order(&ts, &order).unwrap();
            let whole = SystemSchedules::infer(&ts, &h);
            for o in ts.object_indices() {
                let sch = whole.schedule(o);
                let edges = sch.action_deps.edges()
                    .chain(sch.txn_deps.edges())
                    .chain(sch.added_deps.edges());
                for (f, t) in edges {
                    let (from, to) = (ts.action(*f).txn, ts.action(*t).txn);
                    let Some(&gone) = dropped_at.get(&to) else { continue };
                    let left_before = |at: &HashMap<TxnIdx, usize>| {
                        at.get(&from).is_some_and(|&s| s <= gone)
                    };
                    prop_assert!(
                        from == to || left_before(&dropped_at) || left_before(&aborted_at),
                        "{} → {} at object {}: {} was dropped at step {} while {} was still kept",
                        f, t, o, to, gone, from
                    );
                }
            }
            // the run ends with nothing live, so every commit is dropped
            prop_assert_eq!(dropped_at.len(), cert.committed().len());
            prop_assert_eq!(cert.stats.settled as usize, dropped_at.len());
            // ... but what counts is dropping while the run is under way
            if dropped_at.values().any(|&s| s + 1 < steps) {
                runs_that_dropped += 1;
            }
        }
        prop_assert!(
            runs_that_dropped * 4 >= plans.len() * 3,
            "only {} of {} runs dropped a transaction before their last step",
            runs_that_dropped, plans.len()
        );
    }

    /// The pruned incremental certifier decides what the unpruned
    /// from-scratch replay decides over the final record, at every
    /// finalization of the growing record — and whatever
    /// it rejects, it rejects with a cycle through the candidate.
    #[test]
    fn pruned_decisions_match_the_whole_record(
        plans in prop::collection::vec(online_plan(), 16),
    ) {
        use oodb_core::certifier::{Certifier, CommitOutcome};

        for plan in &plans {
            let (ts, prims) = build(&plan.system);
            let mut pruned = Certifier::default();
            let mut decisions = Vec::new();
            let (order, _) = play_online(plan, &ts, &prims, |h, t, _| {
                let got = pruned.try_commit(&ts, h, t);
                if let CommitOutcome::MustAbort(v) = &got {
                    prop_assert!(
                        witness(v).iter().any(|&a| ts.action(a).txn == t),
                        "{:?} misses candidate {}", v, t
                    );
                }
                decisions.push((t, got == CommitOutcome::Committed));
                Ok(())
            })?;
            let record = History::from_order(&ts, &order).unwrap();
            let diverged = replay_from_scratch(&ts, &record, &decisions);
            prop_assert_eq!(
                diverged, None,
                "pruned vs whole record: {:?} (history {})", &decisions, record.len()
            );
        }
    }
}

// ---------------------------------------------------------------------
// The call tree's arena links against a list-per-action reference
// ---------------------------------------------------------------------

/// One `TxnBuilder` call: `kind` picks among `call` / `leaf` /
/// `fork_process` / `end` / `parallel` / `precede`; `a` and `b` pick the
/// object, or the two siblings an explicit precedence joins.
type BuilderStep = (u8, u8, u8);

fn builder_scripts() -> impl Strategy<Value = (Vec<Vec<BuilderStep>>, Vec<u32>)> {
    (
        prop::collection::vec(
            prop::collection::vec((0..8u8, any::<u8>(), any::<u8>()), 0..24),
            1..4,
        ),
        prop::collection::vec(any::<u32>(), 32),
    )
}

/// The tree as `ActionInfo` used to hold it: every action owns the list
/// of its children and the list of siblings it precedes.
#[derive(Debug, Default)]
struct ReferenceTree {
    parent: Vec<Option<usize>>,
    ordinal: Vec<u32>,
    process: Vec<u32>,
    children: Vec<Vec<usize>>,
    precedes: Vec<Vec<usize>>,
}

impl ReferenceTree {
    fn push(&mut self, parent: Option<usize>, ordinal: u32, process: u32) -> usize {
        let idx = self.parent.len();
        self.parent.push(parent);
        self.ordinal.push(ordinal);
        self.process.push(process);
        self.children.push(Vec::new());
        self.precedes.push(Vec::new());
        if let Some(p) = parent {
            self.children[p].push(idx);
        }
        idx
    }

    fn add_child(&mut self, parent: usize, process: u32, sequential: bool) -> usize {
        let previous = self.children[parent].last().copied();
        let ordinal = self.children[parent].len() as u32 + 1;
        let idx = self.push(Some(parent), ordinal, process);
        if let (true, Some(prev)) = (sequential, previous) {
            self.precedes[prev].push(idx);
        }
        idx
    }

    fn path(&self, a: usize) -> Vec<u32> {
        let mut segments = vec![self.ordinal[a]];
        let mut cur = a;
        while let Some(p) = self.parent[cur] {
            segments.push(self.ordinal[p]);
            cur = p;
        }
        segments.reverse();
        segments
    }

    /// Childless descendants of `a`, `a` included, left to right.
    fn leaves(&self, a: usize, out: &mut Vec<usize>) {
        if self.children[a].is_empty() {
            out.push(a);
        }
        for &c in &self.children[a] {
            self.leaves(c, out);
        }
    }

    /// Definition 7 over `position` (indexed by action).
    fn conforms(&self, position: &[usize]) -> bool {
        let span = |a: usize| {
            let mut leaves = Vec::new();
            self.leaves(a, &mut leaves);
            let at = leaves.iter().map(|&l| position[l]);
            (at.clone().min().unwrap(), at.max().unwrap())
        };
        (0..self.parent.len()).all(|a| self.precedes[a].iter().all(|&b| span(a).1 < span(b).0))
    }
}

/// Run the scripts through `TxnBuilder` and, call for call, through the
/// reference. Arena indices and reference indices coincide.
fn build_both(scripts: &[Vec<BuilderStep>]) -> (TransactionSystem, ReferenceTree) {
    let mut ts = TransactionSystem::new();
    let objects: Vec<ObjectIdx> = (0..3)
        .map(|i| ts.add_object(format!("O{i}"), Arc::new(ReadWriteSpec)))
        .collect();
    let mut reference = ReferenceTree::default();
    let mut next_process = 0;
    for (t, script) in scripts.iter().enumerate() {
        let mut b = ts.txn(format!("T{}", t + 1));
        let root = reference.push(None, t as u32 + 1, next_process);
        next_process += 1;
        // the reference's builder state: open actions, and whether the
        // children of each are sequential
        let mut open = vec![(root, true)];
        for &(kind, x, y) in script {
            let (cur, sequential) = *open.last().unwrap();
            let object = objects[x as usize % objects.len()];
            let descriptor = ActionDescriptor::nullary(if y % 2 == 0 { "read" } else { "write" });
            match kind {
                0 | 1 => {
                    b.call(object, descriptor);
                    let process = reference.process[cur];
                    open.push((reference.add_child(cur, process, sequential), true));
                }
                2 | 3 => {
                    let leaf = b.leaf(object, descriptor);
                    let process = reference.process[cur];
                    assert_eq!(
                        leaf.as_usize(),
                        reference.add_child(cur, process, sequential)
                    );
                }
                4 => {
                    b.fork_process(object, descriptor);
                    open.push((reference.add_child(cur, next_process, sequential), true));
                    next_process += 1;
                }
                5 if open.len() > 1 => {
                    b.end();
                    open.pop();
                }
                6 => {
                    b.parallel();
                    open.last_mut().unwrap().1 = false;
                    for c in reference.children[cur].clone() {
                        reference.precedes[c].clear();
                    }
                }
                7 if reference.children[cur].len() > 1 => {
                    let siblings = &reference.children[cur];
                    let before = siblings[x as usize % siblings.len()];
                    let after = siblings[y as usize % siblings.len()];
                    if before != after {
                        b.precede(ActionIdx(before as u32), ActionIdx(after as u32));
                        if !reference.precedes[before].contains(&after) {
                            reference.precedes[before].push(after);
                        }
                    }
                }
                _ => {}
            }
        }
        for _ in 1..open.len() {
            b.end();
        }
        b.finish();
    }
    (ts, reference)
}

proptest! {
    /// Whatever a builder script does, the arena-linked tree reads back
    /// as the list-per-action tree: same children in the same order, same
    /// programmed precedence, same hierarchical numbers, same processes,
    /// same primitives in the same tree order, and the same Definition-7
    /// verdict on a random execution order.
    #[test]
    fn arena_links_match_the_list_built_reference(scripts in builder_scripts()) {
        let (scripts, shuffle) = scripts;
        let (ts, reference) = build_both(&scripts);
        prop_assert_eq!(ts.action_count(), reference.parent.len());
        let as_idx = |v: &[usize]| v.iter().map(|&i| ActionIdx(i as u32)).collect::<Vec<_>>();
        for a in ts.action_indices() {
            let r = a.as_usize();
            prop_assert_eq!(ts.action(a).parent, reference.parent[r].map(|p| ActionIdx(p as u32)));
            prop_assert_eq!(ts.children(a).collect::<Vec<_>>(), as_idx(&reference.children[r]));
            let mut precedes: Vec<ActionIdx> = ts.precedes(a).collect();
            precedes.sort();
            let mut expected = as_idx(&reference.precedes[r]);
            expected.sort();
            prop_assert_eq!(precedes, expected, "precedes of {}", a);
            prop_assert_eq!(ts.path(a).segments(), &reference.path(r)[..]);
            prop_assert_eq!(ts.action(a).process, reference.process[r]);
            prop_assert_eq!(ts.action(a).is_primitive(), reference.children[r].is_empty());
            let mut leaves = Vec::new();
            reference.leaves(r, &mut leaves);
            prop_assert_eq!(ts.primitive_descendants(a), as_idx(&leaves));
        }

        // execute every primitive, in an order the shuffle words pick
        let mut order = ts.primitives();
        for i in (1..order.len()).rev() {
            order.swap(i, shuffle[i % shuffle.len()] as usize % (i + 1));
        }
        let h = History::from_order(&ts, &order).unwrap();
        let mut position = vec![usize::MAX; ts.action_count()];
        for (pos, a) in order.iter().enumerate() {
            position[a.as_usize()] = pos;
        }
        match h.check_conform(&ts) {
            Ok(()) => prop_assert!(reference.conforms(&position)),
            Err((a, b)) => {
                prop_assert!(!reference.conforms(&position));
                prop_assert!(reference.precedes[a.as_usize()].contains(&b.as_usize()));
            }
        }
    }
}
