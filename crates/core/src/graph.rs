//! Dependency digraphs.
//!
//! Every relation in the paper — action dependency, transaction
//! dependency, added action dependency — is a binary relation over actions
//! that must ultimately be checked for acyclicity (Definitions 13 and 16)
//! or embedded into a total order (existence of an equivalent serial
//! schedule). [`DiGraph`] is the shared toolkit: interned nodes, edge
//! insertion, cycle detection with witness extraction, topological sort,
//! and Graphviz export for regenerating the paper's figures. There is
//! one cycle search, [`find_cycle_from`]: [`DiGraph::find_cycle`] runs it
//! from every node, the certifier from a candidate's actions.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiply-rotate hasher with a fixed seed for the maps in this module
/// and the per-object / per-transaction tables of [`crate::incremental`].
/// Their keys are dense indices and interned ids the program itself
/// hands out — never outside input — so SipHash's collision resistance
/// buys nothing on what is the certifier's hottest path (one lookup per
/// derived edge). No map here is iterated, so no order depends on it.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A directed graph over interned nodes of type `N`.
///
/// Nodes are deduplicated on insertion; parallel edges are stored once.
#[derive(Debug, Clone)]
pub struct DiGraph<N: Eq + Hash + Clone> {
    nodes: Vec<N>,
    index: IdMap<N, usize>,
    /// Forward adjacency; `succs[i]` is sorted and deduplicated lazily via
    /// `edge_set` membership checks on insert.
    succs: Vec<Vec<usize>>,
    edge_set: IdMap<(usize, usize), ()>,
}

impl<N: Eq + Hash + Clone> Default for DiGraph<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N: Eq + Hash + Clone> DiGraph<N> {
    /// An empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            index: IdMap::default(),
            succs: Vec::new(),
            edge_set: IdMap::default(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edge_set.len()
    }

    /// Intern `n`, returning its dense index.
    pub fn add_node(&mut self, n: N) -> usize {
        if let Some(&i) = self.index.get(&n) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(n.clone());
        self.index.insert(n, i);
        self.succs.push(Vec::new());
        i
    }

    /// Add the edge `from → to` (interning both nodes). Self-loops are
    /// stored and count as cycles. Returns `true` if the edge is new.
    pub fn add_edge(&mut self, from: N, to: N) -> bool {
        let f = self.add_node(from);
        let t = self.add_node(to);
        if self.edge_set.contains_key(&(f, t)) {
            return false;
        }
        self.edge_set.insert((f, t), ());
        self.succs[f].push(t);
        true
    }

    /// True iff the edge `from → to` is present.
    pub fn has_edge(&self, from: &N, to: &N) -> bool {
        match (self.index.get(from), self.index.get(to)) {
            (Some(&f), Some(&t)) => self.edge_set.contains_key(&(f, t)),
            _ => false,
        }
    }

    /// The node stored at dense index `i`.
    pub fn node(&self, i: usize) -> &N {
        &self.nodes[i]
    }

    /// Iterate over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.nodes.iter()
    }

    /// Iterate over all edges as node pairs.
    pub fn edges(&self) -> impl Iterator<Item = (&N, &N)> + '_ {
        self.succs
            .iter()
            .enumerate()
            .flat_map(move |(f, ts)| ts.iter().map(move |&t| (&self.nodes[f], &self.nodes[t])))
    }

    /// Successor nodes of `n` (empty if `n` is unknown).
    pub fn successors<'a>(&'a self, n: &N) -> impl Iterator<Item = &'a N> + 'a {
        let idx = self.index.get(n).copied();
        idx.into_iter()
            .flat_map(move |i| self.succs[i].iter().map(move |&t| &self.nodes[t]))
    }

    /// Number of distinct edges leaving `n` (0 if `n` is unknown).
    pub fn out_degree(&self, n: &N) -> usize {
        self.index.get(n).map_or(0, |&i| self.succs[i].len())
    }

    /// True iff the graph contains a directed cycle (including self-loops).
    pub fn has_cycle(&self) -> bool {
        self.find_cycle().is_some()
    }

    /// Find a witness cycle, returned as the node sequence
    /// `v0 → v1 → … → vk → v0`, or `None` if the graph is acyclic:
    /// [`find_cycle_from`] started at every node in insertion order,
    /// following successors in the order their edges were added.
    pub fn find_cycle(&self) -> Option<Vec<N>> {
        let expand = |&v: &usize, out: &mut Vec<usize>| out.extend(&self.succs[v]);
        let cycle = find_cycle_from(0..self.nodes.len(), expand, &mut 0)?;
        Some(cycle.into_iter().map(|i| self.nodes[i].clone()).collect())
    }

    /// Kahn's algorithm. Returns a topological ordering of the nodes, or
    /// `None` if the graph is cyclic.
    pub fn topo_sort(&self) -> Option<Vec<N>> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for ts in &self.succs {
            for &t in ts {
                indeg[t] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut out = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            out.push(self.nodes[v].clone());
            for &w in &self.succs[v] {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push(w);
                }
            }
        }
        if out.len() == n {
            Some(out)
        } else {
            None
        }
    }

    /// Render the graph in Graphviz DOT syntax. `label` maps each node to
    /// its display label; `title` becomes the graph name.
    pub fn to_dot(&self, title: &str, mut label: impl FnMut(&N) -> String) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", title.replace('"', "'"));
        let _ = writeln!(out, "  rankdir=LR;");
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = writeln!(out, "  n{} [label=\"{}\"];", i, label(n).replace('"', "'"));
        }
        for (f, ts) in self.succs.iter().enumerate() {
            for t in ts {
                let _ = writeln!(out, "  n{f} -> n{t};");
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Search the part of an implicit graph reachable from `starts` for a
/// cycle, without materializing it.
///
/// `expand(v, out)` appends the successors of `v` to `out`; the graph may
/// be a filtered view or the union of several [`DiGraph`]s, and only the
/// nodes the search reaches are ever asked for. Returns the first cycle
/// found as the node sequence `v0 → v1 → … → vk → v0` (every hop was
/// handed out by `expand`), or `None` if none is reachable. `visited`
/// is incremented once per node expanded — the cost of the search.
///
/// Iterative three-colour DFS; a start an earlier start's walk already
/// finished costs one map lookup.
pub fn find_cycle_from<N: Eq + Hash + Clone>(
    starts: impl IntoIterator<Item = N>,
    mut expand: impl FnMut(&N, &mut Vec<N>),
    visited: &mut u64,
) -> Option<Vec<N>> {
    // present = grey while `true`, black once `false`
    let mut on_path: IdMap<N, bool> = IdMap::default();
    // successors of every node on the DFS path, one run per frame; the
    // top frame's unexplored successors are `arena[next..]`
    let mut arena: Vec<N> = Vec::new();
    // (node, start of its run in `arena`, next successor to explore)
    let mut stack: Vec<(N, usize, usize)> = Vec::new();
    for start in starts {
        if on_path.contains_key(&start) {
            continue;
        }
        on_path.insert(start.clone(), true);
        *visited += 1;
        expand(&start, &mut arena);
        stack.push((start, 0, 0));
        while let Some(&mut (ref v, lo, ref mut next)) = stack.last_mut() {
            if *next == arena.len() {
                on_path.insert(v.clone(), false);
                arena.truncate(lo);
                stack.pop();
                continue;
            }
            let w = arena[*next].clone();
            *next += 1;
            match on_path.get(&w) {
                Some(true) => {
                    // back edge v → w: the path from w's frame to the top
                    // of the stack closes the cycle
                    let from = stack
                        .iter()
                        .position(|(n, _, _)| *n == w)
                        .expect("grey nodes are on the stack");
                    return Some(stack[from..].iter().map(|(n, _, _)| n.clone()).collect());
                }
                Some(false) => {}
                None => {
                    on_path.insert(w.clone(), true);
                    *visited += 1;
                    let lo = arena.len();
                    expand(&w, &mut arena);
                    stack.push((w, lo, lo));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(edges: &[(u32, u32)]) -> DiGraph<u32> {
        let mut g = DiGraph::new();
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    #[test]
    fn empty_graph_is_acyclic() {
        let g: DiGraph<u32> = DiGraph::new();
        assert!(!g.has_cycle());
        assert_eq!(g.topo_sort().unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn dedup_nodes_and_edges() {
        let mut g = DiGraph::new();
        g.add_edge(1, 2);
        assert!(!g.add_edge(1, 2));
        g.add_node(1);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn detects_simple_cycle() {
        let g = graph(&[(1, 2), (2, 3), (3, 1)]);
        assert!(g.has_cycle());
        let cycle = g.find_cycle().unwrap();
        assert_eq!(cycle.len(), 3);
        // the witness really is a cycle
        for w in cycle.windows(2) {
            assert!(g.has_edge(&w[0], &w[1]));
        }
        assert!(g.has_edge(cycle.last().unwrap(), &cycle[0]));
        assert!(g.topo_sort().is_none());
    }

    #[test]
    fn detects_self_loop() {
        let g = graph(&[(1, 1)]);
        assert!(g.has_cycle());
        assert_eq!(g.find_cycle().unwrap(), vec![1]);
    }

    #[test]
    fn dag_topo_sort_is_consistent() {
        let g = graph(&[(1, 2), (1, 3), (2, 4), (3, 4)]);
        assert!(!g.has_cycle());
        let order = g.topo_sort().unwrap();
        let pos = |x: u32| order.iter().position(|&y| y == x).unwrap();
        assert!(pos(1) < pos(2));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(4));
        assert!(pos(3) < pos(4));
    }

    #[test]
    fn rooted_search_sees_only_what_its_starts_reach() {
        // 1 → 2 → 3 hangs off a cycle 4 ⇄ 5 it cannot reach
        let g = graph(&[(1, 2), (2, 3), (4, 5), (5, 4), (5, 1)]);
        let expand = |v: &u32, out: &mut Vec<u32>| out.extend(g.successors(v).copied());
        let mut visited = 0;
        assert_eq!(find_cycle_from([1, 2], expand, &mut visited), None);
        assert_eq!(visited, 3, "2 was finished by the walk from 1");
        let mut visited = 0;
        assert_eq!(find_cycle_from([5], expand, &mut visited), Some(vec![5, 4]));
        let mut visited = 0;
        assert_eq!(find_cycle_from([], expand, &mut visited), None);
        assert_eq!(visited, 0);
    }

    #[test]
    fn out_degree_counts_distinct_edges() {
        let g = graph(&[(1, 2), (1, 3), (1, 2)]);
        assert_eq!(g.out_degree(&1), 2);
        assert_eq!(g.out_degree(&2), 0);
        assert_eq!(g.out_degree(&9), 0);
    }

    #[test]
    fn dot_output_contains_nodes_and_edges() {
        let g = graph(&[(1, 2)]);
        let dot = g.to_dot("t", |n| format!("N{n}"));
        assert!(dot.contains("digraph"));
        assert!(dot.contains("N1"));
        assert!(dot.contains("N2"));
        assert!(dot.contains("->"));
    }
}
