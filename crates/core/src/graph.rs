//! Dependency digraphs.
//!
//! Every relation in the paper — action dependency, transaction
//! dependency, added action dependency — is a binary relation over actions
//! that must ultimately be checked for acyclicity (Definitions 13 and 16)
//! or embedded into a total order (existence of an equivalent serial
//! schedule). [`DiGraph`] is the shared toolkit: interned nodes, edge
//! insertion, cycle detection with witness extraction, topological sort,
//! strongly connected components, transitive closure, and Graphviz export
//! for regenerating the paper's figures.

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
    /// `v0 → v1 → … → vk → v0`, or `None` if the graph is acyclic.
    ///
    /// Iterative three-colour DFS; no recursion so deep graphs are safe.
    pub fn find_cycle(&self) -> Option<Vec<N>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let n = self.nodes.len();
        let mut colour = vec![Colour::White; n];
        let mut parent: Vec<usize> = vec![usize::MAX; n];

        for start in 0..n {
            if colour[start] != Colour::White {
                continue;
            }
            // stack of (node, next successor position)
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            colour[start] = Colour::Grey;
            while let Some(&mut (v, ref mut pos)) = stack.last_mut() {
                if *pos < self.succs[v].len() {
                    let w = self.succs[v][*pos];
                    *pos += 1;
                    match colour[w] {
                        Colour::White => {
                            colour[w] = Colour::Grey;
                            parent[w] = v;
                            stack.push((w, 0));
                        }
                        Colour::Grey => {
                            // found a back edge v → w: reconstruct w → … → v → w
                            let mut cycle = vec![self.nodes[v].clone()];
                            let mut cur = v;
                            while cur != w {
                                cur = parent[cur];
                                cycle.push(self.nodes[cur].clone());
                            }
                            cycle.reverse();
                            return Some(cycle);
                        }
                        Colour::Black => {}
                    }
                } else {
                    colour[v] = Colour::Black;
                    stack.pop();
                }
            }
        }
        None
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

    /// Tarjan's strongly connected components, iterative. Components are
    /// returned in reverse topological order of the condensation.
    pub fn tarjan_scc(&self) -> Vec<Vec<N>> {
        let n = self.nodes.len();
        let mut index_of = vec![usize::MAX; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut sccs: Vec<Vec<N>> = Vec::new();

        for root in 0..n {
            if index_of[root] != usize::MAX {
                continue;
            }
            // call stack of (v, successor position)
            let mut call: Vec<(usize, usize)> = vec![(root, 0)];
            index_of[root] = next_index;
            lowlink[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;

            while let Some(&mut (v, ref mut pos)) = call.last_mut() {
                if *pos < self.succs[v].len() {
                    let w = self.succs[v][*pos];
                    *pos += 1;
                    if index_of[w] == usize::MAX {
                        index_of[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index_of[w]);
                    }
                } else {
                    call.pop();
                    if let Some(&(p, _)) = call.last() {
                        lowlink[p] = lowlink[p].min(lowlink[v]);
                    }
                    if lowlink[v] == index_of[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            comp.push(self.nodes[w].clone());
                            if w == v {
                                break;
                            }
                        }
                        sccs.push(comp);
                    }
                }
            }
        }
        sccs
    }

    /// Reachability closure as a dense boolean matrix:
    /// `closure[i][j]` ⇔ node `j` is reachable from node `i` by a
    /// non-empty path. Bitset rows keep this O(V·E/64).
    pub fn transitive_closure(&self) -> TransitiveClosure {
        let n = self.nodes.len();
        let words = n.div_ceil(64);
        let mut rows = vec![vec![0u64; words]; n];
        // process in reverse topological order when possible; otherwise
        // iterate to fixpoint (cyclic graphs)
        let mut changed = true;
        // seed with direct edges
        for (f, ts) in self.succs.iter().enumerate() {
            for &t in ts {
                rows[f][t / 64] |= 1 << (t % 64);
            }
        }
        while changed {
            changed = false;
            for v in 0..n {
                for &w in &self.succs[v] {
                    // rows[v] |= rows[w], split borrows via indices
                    #[allow(clippy::needless_range_loop)]
                    for k in 0..words {
                        let add = rows[w][k] & !rows[v][k];
                        if add != 0 {
                            rows[v][k] |= add;
                            changed = true;
                        }
                    }
                }
            }
        }
        TransitiveClosure { rows, words }
    }

    /// True iff `to` is reachable from `from` via a non-empty path.
    pub fn is_reachable(&self, from: &N, to: &N) -> bool {
        let (Some(&f), Some(&t)) = (self.index.get(from), self.index.get(to)) else {
            return false;
        };
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![f];
        while let Some(v) = stack.pop() {
            for &w in &self.succs[v] {
                if w == t {
                    return true;
                }
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        false
    }

    /// Dense index of node `n`, if interned.
    pub fn index_of(&self, n: &N) -> Option<usize> {
        self.index.get(n).copied()
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

/// Result of [`DiGraph::transitive_closure`].
pub struct TransitiveClosure {
    rows: Vec<Vec<u64>>,
    words: usize,
}

impl TransitiveClosure {
    /// True iff dense node `j` is reachable from dense node `i`.
    pub fn reaches(&self, i: usize, j: usize) -> bool {
        debug_assert!(j / 64 < self.words);
        self.rows[i][j / 64] & (1 << (j % 64)) != 0
    }
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
    fn scc_partitions_nodes() {
        let g = graph(&[(1, 2), (2, 1), (2, 3), (3, 4), (4, 3), (5, 5)]);
        let mut sccs: Vec<Vec<u32>> = g
            .tarjan_scc()
            .into_iter()
            .map(|mut c| {
                c.sort_unstable();
                c
            })
            .collect();
        sccs.sort();
        assert_eq!(sccs, vec![vec![1, 2], vec![3, 4], vec![5]]);
    }

    #[test]
    fn reachability_and_closure_agree() {
        let g = graph(&[(1, 2), (2, 3), (4, 1)]);
        assert!(g.is_reachable(&4, &3));
        assert!(!g.is_reachable(&3, &4));
        assert!(!g.is_reachable(&1, &1));
        let tc = g.transitive_closure();
        let i = |n: u32| g.index_of(&n).unwrap();
        assert!(tc.reaches(i(4), i(3)));
        assert!(!tc.reaches(i(3), i(4)));
        assert!(!tc.reaches(i(1), i(1)));
    }

    #[test]
    fn closure_on_cycle_reaches_self() {
        let g = graph(&[(1, 2), (2, 1)]);
        let tc = g.transitive_closure();
        let i = |n: u32| g.index_of(&n).unwrap();
        assert!(tc.reaches(i(1), i(1)));
        assert!(tc.reaches(i(2), i(2)));
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
