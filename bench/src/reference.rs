//! An engine-independent reference for everything the benchmark checks.
//!
//! Nothing here calls into `crates/`: transitive closure is breadth-first
//! reachability over adjacency lists, and the up/down program is the
//! product `desc_up(a) × reach_down(b)` per seed `p(a, b)`. The benchmark
//! compares every `ask`, `select`, commit `+N tuples`, `count` and
//! `N tuples` line the program prints against these.

use std::collections::HashMap;

/// A growable digraph over `i64` labels with breadth-first reachability.
#[derive(Default)]
struct Graph {
    index: HashMap<i64, usize>,
    labels: Vec<i64>,
    succ: Vec<Vec<usize>>,
    pred: Vec<Vec<usize>>,
}

impl Graph {
    fn from_edges(edges: &[(i64, i64)]) -> Graph {
        let mut g = Graph::default();
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    fn node(&mut self, label: i64) -> usize {
        *self.index.entry(label).or_insert_with(|| {
            self.labels.push(label);
            self.succ.push(Vec::new());
            self.pred.push(Vec::new());
            self.labels.len() - 1
        })
    }

    fn add_edge(&mut self, a: i64, b: i64) {
        let (a, b) = (self.node(a), self.node(b));
        self.succ[a].push(b);
        self.pred[b].push(a);
    }

    /// Nodes reachable from `from` by one or more edges of `adj`
    /// (`from` itself only if it lies on a cycle).
    fn bfs(adj: &[Vec<usize>], from: usize) -> Vec<usize> {
        let mut seen = vec![false; adj.len()];
        let mut order = Vec::new();
        let mut next = 0;
        let mut frontier = vec![from];
        while let Some(&n) = frontier.get(next) {
            next += 1;
            for &m in &adj[n] {
                if !seen[m] {
                    seen[m] = true;
                    order.push(m);
                    frontier.push(m);
                }
            }
        }
        order
    }

    /// [`Graph::bfs`] plus `from` itself: zero or more edges.
    fn bfs_inclusive(adj: &[Vec<usize>], from: usize) -> Vec<usize> {
        let mut nodes = Graph::bfs(adj, from);
        if !nodes.contains(&from) {
            nodes.push(from);
        }
        nodes
    }
}

/// Reference for `p(x,y) :- p(x,z), edge(z,y).` with `p` seeded by the
/// edges themselves: `p(x, y)` iff a path of at least one edge leads from
/// `x` to `y`.
pub struct TcRef {
    graph: Graph,
    count: u64,
}

impl TcRef {
    /// The closure of `edges`, counted node by node.
    pub fn from_edges(edges: &[(i64, i64)]) -> TcRef {
        let graph = Graph::from_edges(edges);
        let count = (0..graph.labels.len())
            .map(|n| Graph::bfs(&graph.succ, n).len() as u64)
            .sum();
        TcRef { graph, count }
    }

    /// Nodes reachable from `a` by one or more edges (the rows of
    /// `select p 0=<a>`), sorted.
    pub fn reach(&self, a: i64) -> Vec<i64> {
        let Some(&a) = self.graph.index.get(&a) else {
            return Vec::new();
        };
        let mut out: Vec<i64> = Graph::bfs(&self.graph.succ, a)
            .into_iter()
            .map(|n| self.graph.labels[n])
            .collect();
        out.sort_unstable();
        out
    }

    /// Is `p(a, b)` in the closure?
    pub fn contains(&self, a: i64, b: i64) -> bool {
        self.reach(a).binary_search(&b).is_ok()
    }

    /// Tuples in the closure.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Add edge `a → b`; returns how many tuples the closure grows by.
    /// The new pairs are `(x, y)` with `x` at or above `a`, `y` at or
    /// below `b`, and no path from `x` to `y` before.
    pub fn insert_edge(&mut self, a: i64, b: i64) -> u64 {
        let (ia, ib) = (self.graph.node(a), self.graph.node(b));
        if self.graph.succ[ia].contains(&ib) {
            return 0;
        }
        let above = Graph::bfs_inclusive(&self.graph.pred, ia);
        let below = Graph::bfs_inclusive(&self.graph.succ, ib);
        let mut grown = 0;
        for x in above {
            let known = Graph::bfs(&self.graph.succ, x);
            grown += below.iter().filter(|y| !known.contains(y)).count() as u64;
        }
        self.graph.add_edge(a, b);
        self.count += grown;
        grown
    }
}

/// Reference for the paper's commuting pair
/// `p(x,y) :- p(x,z), down(z,y).` / `p(x,y) :- p(w,y), up(x,w).`:
/// a seed `p(a, b)` yields `(x, y)` for every `x` that climbs to `a`
/// through `up` (including `a`) and every `y` reachable from `b` through
/// `down` (including `b`).
pub struct UpDownRef {
    up: Graph,
    down: Graph,
    /// Per `x`, the set of `y` as a bitset over `down`'s node indexes.
    rows: HashMap<i64, Vec<u64>>,
    count: u64,
}

impl UpDownRef {
    /// A reference over fixed `up` and `down` relations and no seed yet.
    pub fn new(up: &[(i64, i64)], down: &[(i64, i64)]) -> UpDownRef {
        UpDownRef {
            up: Graph::from_edges(up),
            down: Graph::from_edges(down),
            rows: HashMap::new(),
            count: 0,
        }
    }

    /// Add seed `p(a, b)`; returns how many tuples the answer grows by.
    pub fn insert_seed(&mut self, a: i64, b: i64) -> u64 {
        // `up(x, w)` is stored x → w, so the nodes climbing to `a` are its
        // predecessors, transitively.
        let ia = self.up.node(a);
        let xs = Graph::bfs_inclusive(&self.up.pred, ia);
        let ib = self.down.node(b);
        let ys = Graph::bfs_inclusive(&self.down.succ, ib);
        let words = self.down.labels.len().div_ceil(64);
        let mut grown = 0;
        for x in xs {
            let row = self.rows.entry(self.up.labels[x]).or_default();
            row.resize(words.max(row.len()), 0);
            for &y in &ys {
                let (word, bit) = (y / 64, 1u64 << (y % 64));
                grown += u64::from(row[word] & bit == 0);
                row[word] |= bit;
            }
        }
        self.count += grown;
        grown
    }

    fn has(row: &[u64], y: usize) -> bool {
        row.get(y / 64).is_some_and(|w| w & (1 << (y % 64)) != 0)
    }

    /// Is `p(x, y)` in the answer?
    pub fn contains(&self, x: i64, y: i64) -> bool {
        match (self.rows.get(&x), self.down.index.get(&y)) {
            (Some(row), Some(&y)) => UpDownRef::has(row, y),
            _ => false,
        }
    }

    /// Rows of `select p 0=<x>`.
    pub fn rows_from(&self, x: i64) -> usize {
        self.rows
            .get(&x)
            .map_or(0, |row| row.iter().map(|w| w.count_ones() as usize).sum())
    }

    /// Rows of the selection `1=<y>`.
    pub fn rows_to(&self, y: i64) -> usize {
        let Some(&y) = self.down.index.get(&y) else {
            return 0;
        };
        self.rows
            .values()
            .filter(|row| UpDownRef::has(row, y))
            .count()
    }

    /// Tuples in the answer.
    pub fn count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-checked graph 1: the chain 1→2→3→4 has 3+2+1 pairs; closing
    /// it with 4→1 makes every node reach all four, itself included.
    #[test]
    fn chain_then_cycle() {
        let mut r = TcRef::from_edges(&[(1, 2), (2, 3), (3, 4)]);
        assert_eq!(r.count(), 6);
        assert!(r.contains(1, 4) && !r.contains(4, 1) && !r.contains(2, 2));
        assert_eq!(r.reach(2), vec![3, 4]);
        assert_eq!(r.reach(99), Vec::<i64>::new());
        assert_eq!(r.insert_edge(4, 1), 10);
        assert_eq!(r.count(), 16);
        assert!(r.contains(4, 1) && r.contains(2, 2));
        assert_eq!(r.insert_edge(4, 1), 0, "a known edge grows nothing");
    }

    /// Hand-checked graph 2: two chains 1→2 and 3→4, then the link 2→3:
    /// the new pairs are {1,2} × {3,4}. A disjoint fresh edge grows by one.
    #[test]
    fn linking_two_chains() {
        let mut r = TcRef::from_edges(&[(1, 2), (3, 4)]);
        assert_eq!(r.count(), 2);
        assert_eq!(r.insert_edge(2, 3), 4);
        assert_eq!(r.count(), 6);
        assert_eq!(r.insert_edge(7, 8), 1);
        assert!(r.contains(1, 4) && r.contains(7, 8) && !r.contains(1, 8));
    }

    /// Hand-checked graph 3: a diamond 1→2, 1→3, 2→4, 3→4 counts (1,4)
    /// once although two paths derive it; a shortcut 1→4 adds nothing.
    #[test]
    fn diamond_counts_pairs_not_paths() {
        let mut r = TcRef::from_edges(&[(1, 2), (1, 3), (2, 4), (3, 4)]);
        assert_eq!(r.count(), 5);
        assert_eq!(r.insert_edge(1, 4), 0);
        assert_eq!(r.count(), 5);
    }

    /// The paper's pair on up 1→2→3 (child → parent) and down 10→11→12,
    /// seeded at the root: x ∈ {3,2,1}, y ∈ {10,11,12}.
    #[test]
    fn updown_is_a_product_per_seed() {
        let mut r = UpDownRef::new(&[(1, 2), (2, 3)], &[(10, 11), (11, 12)]);
        assert_eq!(r.insert_seed(3, 10), 9);
        assert!(r.contains(1, 12) && !r.contains(1, 13) && !r.contains(4, 10));
        assert_eq!(r.rows_from(2), 3);
        assert_eq!(r.rows_to(12), 3);
        // A seed lower in both trees overlaps entirely…
        assert_eq!(r.insert_seed(2, 11), 0);
        // …and one on a fresh down node adds only that column at and below 2.
        assert_eq!(r.insert_seed(2, 20), 2);
        assert_eq!(r.count(), 11);
        assert_eq!(r.rows_from(3), 3);
        assert_eq!(r.rows_from(1), 4);
    }
}
