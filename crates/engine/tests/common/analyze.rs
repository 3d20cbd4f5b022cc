//! Post-hoc trace analysis: rebuild the transaction dependency graph
//! from trace events alone and cross-check it against the shutdown
//! serializability audit.
//!
//! The reconstruction rests on two facts the tracer guarantees:
//!
//! 1. `OpGranted` and `CompensationOp` events claim their `seq` while
//!    the operation is **ordered against every operation it conflicts
//!    with** — under strict 2PL by the lock it holds (every pair the
//!    rules below relate conflicts under the lock spec), under deferred
//!    writes by the install gate — so sorting them by `seq` reproduces
//!    the primitive interleaving the recorder saw over every pair that
//!    can make an edge; and
//! 2. the audit's top-level dependencies are exactly the Definition
//!    10/11 inheritance chains: a page-level conflict lifts to the
//!    roots only while every pair of callers on the way up conflicts
//!    under its object's commutativity spec — commuting callers stop
//!    the inheritance.
//!
//! Chasing those chains through the encyclopedia's actual structure (a
//! B-link-tree index over a linked item list) leaves four ways two
//! committed operations can depend on each other:
//!
//! * **index** — every keyed operation reads its key's index entry
//!   (even a failed write or a search miss: the probe is the read);
//!   successful inserts and deletes write it. Same key + at least one
//!   writer → dependency. Different keys commute at the tree level no
//!   matter how pages are shared.
//! * **index range** — a `rangeScan` reads the index interval `[lo,
//!   hi]`; it depends on index writers of in-range keys.
//! * **membership** — `readSeq` reads the list's directory chain;
//!   successful inserts and deletes write it (keys don't matter: any
//!   membership change conflicts with a full scan, Figure 8's
//!   `LinkedList` row).
//! * **items** — operations that reach an item's text conflict at that
//!   *item*, not at its key: a delete + re-insert of the same key makes
//!   a fresh item, and readers of one generation do not depend on
//!   writers of another. The analyzer replays container membership over
//!   the seq-ordered trace (including compensation events, which is why
//!   they are traced) to assign each access its `(key, generation)`.
//!
//! Everything coarser — the conservative lock-mode conflicts the
//! protocols gate on — over-approximates the recorded history; e.g. an
//! update writes only the item text, so it never depends on a probe
//! that stopped at the index. The audit-side graph comes from the real
//! machinery — scoped schedule inference over the committed projection
//! — and [`cross_check`] demands the two match edge-for-edge, turning
//! every traced run into a second, independent serializability oracle.
//!
//! # Structural regime
//!
//! The **index** and **membership** rules track *logical* state, so
//! they assume the traced run's physical layout stays put:
//!
//! * no B-tree node split relocates a key's leaf entry mid-run — a
//!   split rewrites the entry under a structural `rearrange` action
//!   that commutes with other keys' operations, severing the audit's
//!   page-conflict chain to the entry's original writer while the trace
//!   still sees a same-key pair (keep distinct keys ≤ fanout);
//! * the item directory stays one page, so every membership change
//!   page-conflicts with every full scan (the chain holds a few dozen
//!   entries at the default page size).
//!
//! Item-generation dependencies don't depend on layout at all. The
//! contended inputs of the trace and fault-injection tests size
//! `fanout` and their key spaces to stay inside this regime; the inputs
//! that split (B11's disjoint keys, `latched_differential`'s private
//! partitions) leave it only where no two transactions share a key. A
//! workload that outgrows it makes [`cross_check`] report the
//! (spurious) extra trace edges rather than silently diverging.
//!
//! Optimistic runs need no special handling. Their writes are deferred
//! to the commit point and their reads see committed state when issued:
//! a read's `OpGranted` seq is claimed where it executes, holding the
//! install gate shared, and a deferred write's at the commit point,
//! holding it exclusive (exactly like compensations), so the seq order
//! *is* the physical execution order between reads and installs.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use oodb_core::ids::TxnIdx;
use oodb_engine::trace::{attempt_name, TraceEvent, TraceEventKind};
use oodb_engine::AuditOutput;
use oodb_sim::EncOp;

/// The effective footprint of one traced operation: which pieces of the
/// container's recorded structure it read or wrote.
#[derive(Debug, Clone, Default)]
struct Footprint {
    /// Global sequence number (history position) of the operation.
    seq: u64,
    /// `(key, is_write)` at the B-tree index.
    index: Option<(String, bool)>,
    /// Index interval read by a range scan.
    index_range: Option<(String, String)>,
    /// Membership (directory-chain) access; `Some(true)` is a write.
    membership: Option<bool>,
    /// `((key, generation), is_write)` item-text accesses.
    items: Vec<((String, u64), bool)>,
}

/// Container-membership replay state: `gens` counts how many items have
/// ever been created under a key; `live` maps a key to its currently
/// live generation.
#[derive(Debug, Default)]
struct Membership {
    gens: BTreeMap<String, u64>,
    live: BTreeMap<String, u64>,
}

impl Membership {
    fn create(&mut self, k: &str) -> u64 {
        let g = self.gens.entry(k.to_owned()).or_insert(0);
        *g += 1;
        self.live.insert(k.to_owned(), *g);
        *g
    }

    /// The generation an item access on `k` touches. Generation 0 is
    /// never allocated by the replay, so accesses the replay cannot
    /// place (possible only on lossy traces) pair up with nothing real.
    fn current(&self, k: &str) -> u64 {
        self.live.get(k).copied().unwrap_or(0)
    }
}

/// Advance the membership replay over one executed operation and return
/// its effective footprint.
fn step(m: &mut Membership, seq: u64, op: &EncOp, hit: bool) -> Footprint {
    let mut fp = Footprint {
        seq,
        ..Footprint::default()
    };
    match op {
        EncOp::Insert(k) => {
            if hit {
                let g = m.create(k);
                fp.index = Some((k.clone(), true));
                fp.membership = Some(true);
                fp.items.push(((k.clone(), g), true));
            } else {
                fp.index = Some((k.clone(), false));
            }
        }
        EncOp::Search(k) => {
            fp.index = Some((k.clone(), false));
            if hit {
                fp.items.push(((k.clone(), m.current(k)), false));
            }
        }
        EncOp::Change(k) => {
            fp.index = Some((k.clone(), false));
            if hit {
                fp.items.push(((k.clone(), m.current(k)), true));
            }
        }
        EncOp::Delete(k) => {
            if hit {
                let g = m.current(k);
                m.live.remove(k);
                fp.index = Some((k.clone(), true));
                fp.membership = Some(true);
                fp.items.push(((k.clone(), g), true));
            } else {
                fp.index = Some((k.clone(), false));
            }
        }
        EncOp::ReadSeq => {
            fp.membership = Some(false);
            fp.items
                .extend(m.live.iter().map(|(k, &g)| ((k.clone(), g), false)));
        }
        EncOp::Range(lo, hi) => {
            fp.index_range = Some((lo.clone(), hi.clone()));
            if lo <= hi {
                fp.items.extend(
                    m.live
                        .range(lo.clone()..=hi.clone())
                        .map(|(k, &g)| ((k.clone(), g), false)),
                );
            }
        }
    }
    fp
}

/// Whether two effective footprints depend on each other — i.e. whether
/// the recorded history contains a conflicting sub-action pair whose
/// Definition 10 inheritance reaches the top level.
fn conflicts(a: &Footprint, b: &Footprint) -> bool {
    // Index: same key, at least one writer.
    if let (Some((ka, wa)), Some((kb, wb))) = (&a.index, &b.index) {
        if ka == kb && (*wa || *wb) {
            return true;
        }
    }
    // Range scan vs an in-range index writer (phantom protection).
    for (scan, other) in [(a, b), (b, a)] {
        if let (Some((lo, hi)), Some((k, true))) = (&scan.index_range, &other.index) {
            if lo <= k && k <= hi {
                return true;
            }
        }
    }
    // Membership: a full scan vs any insert/delete. Two membership
    // writers of different keys commute at the list (same-key pairs
    // already conflict at the index).
    if let (Some(wa), Some(wb)) = (a.membership, b.membership) {
        if wa != wb {
            return true;
        }
    }
    // Items: same (key, generation), at least one writer.
    for (ia, wa) in &a.items {
        for (ib, wb) in &b.items {
            if ia == ib && (*wa || *wb) {
                return true;
            }
        }
    }
    false
}

/// A dependency graph over root-transaction names (`"J3"`, `"J5r1"`,
/// `"Setup"`). Deterministically ordered so two graphs compare and
/// print stably.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DepGraph {
    /// Transaction names in the graph.
    pub nodes: BTreeSet<String>,
    /// Directed edges `(from, to)`: `from`'s conflicting operation ran
    /// first.
    pub edges: BTreeSet<(String, String)>,
}

impl std::fmt::Display for DepGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} nodes:", self.nodes.len())?;
        for (from, to) in &self.edges {
            write!(f, " {from}->{to}")?;
        }
        Ok(())
    }
}

/// Rebuild the committed-transaction dependency graph from trace events
/// alone (no recorder access). Membership is replayed over **all**
/// executed operations — aborted attempts and their compensations move
/// items around too — but only committed attempts contribute nodes and
/// edges.
pub fn reconstruct_graph(events: &[TraceEvent]) -> DepGraph {
    let committed: BTreeSet<(u64, u32)> = events
        .iter()
        .filter(|ev| matches!(ev.kind, TraceEventKind::Committed))
        .map(|ev| (ev.job, ev.attempt))
        .collect();
    // Events arrive seq-sorted from the sink; replay them in order.
    let mut m = Membership::default();
    let mut ops: BTreeMap<(u64, u32), Vec<Footprint>> = BTreeMap::new();
    for ev in events {
        match &ev.kind {
            TraceEventKind::OpGranted { op, hit, .. } => {
                let fp = step(&mut m, ev.seq, op, *hit);
                if committed.contains(&(ev.job, ev.attempt)) {
                    ops.entry((ev.job, ev.attempt)).or_default().push(fp);
                }
            }
            TraceEventKind::CompensationOp { op, hit } => {
                // compensations belong to `C(...)` transactions, which
                // are never in the committed projection: replay the
                // membership change, contribute no footprint
                let _ = step(&mut m, ev.seq, op, *hit);
            }
            _ => {}
        }
    }
    let mut g = DepGraph::default();
    for &(job, attempt) in &committed {
        g.nodes.insert(attempt_name(job, attempt));
    }
    let groups: Vec<(&(u64, u32), &Vec<Footprint>)> = ops.iter().collect();
    for (i, (ka, fps_a)) in groups.iter().enumerate() {
        for (kb, fps_b) in groups.iter().skip(i + 1) {
            for fa in fps_a.iter() {
                for fb in fps_b.iter() {
                    if !conflicts(fa, fb) {
                        continue;
                    }
                    let (first, second) = if fa.seq < fb.seq { (ka, kb) } else { (kb, ka) };
                    g.edges.insert((
                        attempt_name(first.0, first.1),
                        attempt_name(second.0, second.1),
                    ));
                }
            }
        }
    }
    g
}

/// The audit-side graph: schedules inferred over the audited history
/// restricted to the named transactions (the step
/// [`super::replay_from_scratch`] takes per verdict), with the
/// system-object action dependencies projected onto root names.
pub fn audit_graph(audit: &AuditOutput, names: &BTreeSet<String>) -> DepGraph {
    let ts = &audit.ts;
    let mut scope: HashSet<TxnIdx> = HashSet::new();
    let mut name_of: BTreeMap<TxnIdx, String> = BTreeMap::new();
    for (t, &root) in ts.top_level().iter().enumerate() {
        let t = TxnIdx(t as u32);
        let name = ts.action(root).descriptor.method.to_string();
        if names.contains(&name) {
            scope.insert(t);
            name_of.insert(t, name);
        }
    }
    let deps = super::infer_restricted(ts, &audit.history, &scope).top_level_deps(ts);
    let mut g = DepGraph::default();
    g.nodes.extend(name_of.values().cloned());
    for (&f, &t) in deps.edges() {
        let (ft, tt) = (ts.action(f).txn, ts.action(t).txn);
        if let (Some(fname), Some(tname)) = (name_of.get(&ft), name_of.get(&tt)) {
            if fname != tname {
                g.edges.insert((fname.clone(), tname.clone()));
            }
        }
    }
    g
}

/// Result of comparing the trace-reconstructed graph against the audit.
#[derive(Debug, Clone)]
pub struct CrossCheck {
    /// The graph rebuilt from trace events alone.
    pub trace: DepGraph,
    /// The graph the audit's schedule inference produced.
    pub audit: DepGraph,
    /// Edges present in both.
    pub matched: usize,
    /// Edges the audit found that the trace missed.
    pub missing_in_trace: Vec<(String, String)>,
    /// Edges the trace claims that the audit does not have.
    pub extra_in_trace: Vec<(String, String)>,
    /// Committed transactions that appear on only one side. Always empty
    /// for a committed-projection audit; under a full-record audit the
    /// comparison is scoped to the trace's committed set, so this stays
    /// empty there too unless the trace itself is incomplete (dropped
    /// events).
    pub node_mismatch: Vec<String>,
}

impl CrossCheck {
    /// True when the two graphs agree edge-for-edge on the same node set.
    pub fn ok(&self) -> bool {
        self.missing_in_trace.is_empty()
            && self.extra_in_trace.is_empty()
            && self.node_mismatch.is_empty()
    }
}

impl std::fmt::Display for CrossCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cross-check: {} nodes, {} edges matched",
            self.trace.nodes.len(),
            self.matched
        )?;
        if !self.missing_in_trace.is_empty() {
            write!(f, ", missing in trace: {:?}", self.missing_in_trace)?;
        }
        if !self.extra_in_trace.is_empty() {
            write!(f, ", extra in trace: {:?}", self.extra_in_trace)?;
        }
        if !self.node_mismatch.is_empty() {
            write!(f, ", node mismatch: {:?}", self.node_mismatch)?;
        }
        Ok(())
    }
}

/// Rebuild the dependency graph from `events` and compare it
/// edge-for-edge against the audit's committed projection.
pub fn cross_check(events: &[TraceEvent], audit: &AuditOutput) -> CrossCheck {
    let trace = reconstruct_graph(events);
    let audit_g = audit_graph(audit, &trace.nodes);
    let matched = trace.edges.intersection(&audit_g.edges).count();
    let missing_in_trace = audit_g.edges.difference(&trace.edges).cloned().collect();
    let extra_in_trace = trace.edges.difference(&audit_g.edges).cloned().collect();
    let node_mismatch = trace
        .nodes
        .symmetric_difference(&audit_g.nodes)
        .cloned()
        .collect();
    CrossCheck {
        trace,
        audit: audit_g,
        matched,
        missing_in_trace,
        extra_in_trace,
        node_mismatch,
    }
}
