//! Bridges of the α-graph with respect to a separator subgraph `G′`
//! (paper, Section 5, after Bondy–Murty \[7\]).
//!
//! Two edges of `G − E′` are equivalent iff they are joined by a walk with
//! no internal node in `V′` (the node set of `G′`); the subgraph induced by
//! an equivalence class is a *bridge*. A bridge plus the components of `G′`
//! attached to it is an *augmented bridge*.
//!
//! Implementation: union-find over the non-separator edges, merging every
//! pair of edges that share a node outside `V′` — exactly the transitive
//! closure of the walk relation, in O((n+e)·α) time (Lemma 5.3).

use crate::classify::Classification;
use crate::graph::{AlphaGraph, EdgeRef};
use crate::unionfind::UnionFind;
use linrec_datalog::hash::{FastMap, FastSet};
use linrec_datalog::Var;

/// One bridge: an equivalence class of non-separator edges.
#[derive(Debug, Clone)]
pub struct Bridge {
    /// The edges of the bridge.
    pub edges: Vec<EdgeRef>,
    /// All endpoints of the bridge's edges (including separator nodes).
    pub nodes: FastSet<Var>,
}

/// One augmented bridge: a bridge together with the separator components
/// attached to it.
#[derive(Debug, Clone)]
pub struct AugmentedBridge {
    /// Index of the underlying bridge in the decomposition.
    pub bridge: usize,
    /// Bridge edges plus attached separator edges.
    pub edges: Vec<EdgeRef>,
    /// All endpoints.
    pub nodes: FastSet<Var>,
}

/// The bridge decomposition of an α-graph with respect to a separator.
#[derive(Debug, Clone)]
pub struct BridgeDecomposition {
    separator_edges: Vec<EdgeRef>,
    separator_nodes: FastSet<Var>,
    bridges: Vec<Bridge>,
}

/// The Section-5 separator: dynamic self-arcs of link 1-persistent
/// variables ("the subgraph induced by the dynamic arcs connecting each link
/// 1-persistent variable in the graph to itself").
pub fn link1_separator(graph: &AlphaGraph, classes: &Classification) -> Vec<EdgeRef> {
    graph
        .dynamic_arcs()
        .iter()
        .enumerate()
        .filter(|(_, a)| {
            a.from == a.to
                && classes
                    .class(a.to)
                    .is_some_and(|c| c.is_link_one_persistent())
        })
        .map(|(i, _)| EdgeRef::Dynamic(i))
        .collect()
}

/// The Section-6 separator `G_I`: dynamic arcs with both endpoints in
/// `I` = link-persistent ∪ ray variables.
pub fn i_separator(graph: &AlphaGraph, classes: &Classification) -> Vec<EdgeRef> {
    let i_set = classes.i_set();
    graph
        .dynamic_arcs()
        .iter()
        .enumerate()
        .filter(|(_, a)| i_set.contains(&a.from) && i_set.contains(&a.to))
        .map(|(i, _)| EdgeRef::Dynamic(i))
        .collect()
}

impl BridgeDecomposition {
    /// Compute the bridges of `graph` with respect to the given separator
    /// edges. The separator node set `V′` is the set of endpoints of the
    /// separator edges.
    pub fn compute(graph: &AlphaGraph, separator_edges: Vec<EdgeRef>) -> BridgeDecomposition {
        let sep_set: FastSet<EdgeRef> = separator_edges.iter().copied().collect();
        let mut separator_nodes: FastSet<Var> = FastSet::default();
        for &e in &separator_edges {
            let (a, b) = graph.endpoints(e);
            separator_nodes.insert(a);
            separator_nodes.insert(b);
        }

        // Enumerate non-separator edges.
        let rest: Vec<EdgeRef> = graph.edges().filter(|e| !sep_set.contains(e)).collect();
        let index: FastMap<EdgeRef, usize> =
            rest.iter().enumerate().map(|(i, &e)| (e, i)).collect();

        // Union edges sharing a non-separator node.
        let mut uf = UnionFind::new(rest.len());
        let mut per_node: FastMap<Var, usize> = FastMap::default();
        for (i, &e) in rest.iter().enumerate() {
            let (a, b) = graph.endpoints(e);
            for v in [a, b] {
                if separator_nodes.contains(&v) {
                    continue;
                }
                match per_node.get(&v) {
                    Some(&first) => {
                        uf.union(first, i);
                    }
                    None => {
                        per_node.insert(v, i);
                    }
                }
            }
        }
        // The paper assigns whole nonrecursive atoms to bridges (their
        // narrow/wide rules are built from atoms), so keep all arcs of one
        // atom in the same class even when they meet only at separator
        // nodes.
        for ai in 0..graph.rule().nonrec_atoms().len() {
            let arcs = graph.arcs_of_atom(ai);
            for w in arcs.windows(2) {
                let (a, b) = (EdgeRef::Static(w[0]), EdgeRef::Static(w[1]));
                if let (Some(&ia), Some(&ib)) = (index.get(&a), index.get(&b)) {
                    uf.union(ia, ib);
                }
            }
        }

        let bridges = uf
            .groups()
            .into_iter()
            .map(|group| {
                let edges: Vec<EdgeRef> = group.into_iter().map(|i| rest[i]).collect();
                let mut nodes = FastSet::default();
                for &e in &edges {
                    let (a, b) = graph.endpoints(e);
                    nodes.insert(a);
                    nodes.insert(b);
                }
                Bridge { edges, nodes }
            })
            .collect();

        BridgeDecomposition {
            separator_edges,
            separator_nodes,
            bridges,
        }
    }

    /// Convenience: decomposition w.r.t. the link 1-persistent self-arcs.
    pub fn wrt_link1(graph: &AlphaGraph, classes: &Classification) -> BridgeDecomposition {
        BridgeDecomposition::compute(graph, link1_separator(graph, classes))
    }

    /// Convenience: decomposition w.r.t. `G_I` (Section 6).
    pub fn wrt_i(graph: &AlphaGraph, classes: &Classification) -> BridgeDecomposition {
        BridgeDecomposition::compute(graph, i_separator(graph, classes))
    }

    /// The separator edges `E′`.
    pub fn separator_edges(&self) -> &[EdgeRef] {
        &self.separator_edges
    }

    /// The separator nodes `V′`.
    pub fn separator_nodes(&self) -> &FastSet<Var> {
        &self.separator_nodes
    }

    /// The bridges.
    pub fn bridges(&self) -> &[Bridge] {
        &self.bridges
    }

    /// The unique bridge containing non-separator variable `v`, if any.
    /// Separator variables belong to every bridge they touch, so `None` is
    /// returned for them (and for isolated variables).
    pub fn bridge_containing(&self, v: Var) -> Option<usize> {
        if self.separator_nodes.contains(&v) {
            return None;
        }
        self.bridges.iter().position(|b| b.nodes.contains(&v))
    }

    /// The augmented bridge for bridge `idx`: the bridge plus every
    /// connected component of the separator subgraph that shares a node
    /// with it.
    pub fn augmented(&self, graph: &AlphaGraph, idx: usize) -> AugmentedBridge {
        let bridge = &self.bridges[idx];
        // Components of G′ via union-find on separator nodes.
        let sep_nodes: Vec<Var> = {
            let mut v: Vec<Var> = self.separator_nodes.iter().copied().collect();
            v.sort();
            v
        };
        let node_idx: FastMap<Var, usize> =
            sep_nodes.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut uf = UnionFind::new(sep_nodes.len());
        for &e in &self.separator_edges {
            let (a, b) = graph.endpoints(e);
            uf.union(node_idx[&a], node_idx[&b]);
        }
        // Which components touch the bridge?
        let mut touched: FastSet<usize> = FastSet::default();
        for v in &bridge.nodes {
            if let Some(&i) = node_idx.get(v) {
                touched.insert(uf.find(i));
            }
        }
        let mut edges = bridge.edges.clone();
        let mut nodes = bridge.nodes.clone();
        for &e in &self.separator_edges {
            let (a, b) = graph.endpoints(e);
            if touched.contains(&uf.find(node_idx[&a])) {
                edges.push(e);
                nodes.insert(a);
                nodes.insert(b);
            }
        }
        AugmentedBridge {
            bridge: idx,
            edges,
            nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrec_datalog::parse_linear_rule;

    fn setup(src: &str) -> (AlphaGraph, Classification) {
        let r = parse_linear_rule(src).unwrap();
        let g = AlphaGraph::new(&r).unwrap();
        let c = Classification::classify(&r).unwrap();
        (g, c)
    }

    fn v(s: &str) -> Var {
        Var::new(s)
    }

    #[test]
    fn figure_2_bridges() {
        // P(u,w,x,y,z) :- P(u,u,u,y,y), Q(u,u,y), R(w), S(x), T(z).
        let (g, c) = setup("p(u,w,x,y,z) :- p(u,u,u,y,y), q(u,u,y), r(w), s(x), t(z).");
        let d = BridgeDecomposition::wrt_link1(&g, &c);
        assert_eq!(d.separator_edges().len(), 2); // u→u and y→y dynamic
        assert!(d.separator_nodes().contains(&v("u")));
        assert!(d.separator_nodes().contains(&v("y")));
        // Strict walk-equivalence plus atom grouping: R+dyn(u→w),
        // S+dyn(u→x), T+dyn(y→z), and the chord bridge {Q} whose two arcs
        // touch only separator nodes. (The paper's Figure 2 displays the
        // chord merged into S's bridge — an equivalent grouping, see
        // EXPERIMENTS.md.)
        assert_eq!(d.bridges().len(), 4);
        let bw = d.bridge_containing(v("w")).unwrap();
        let bx = d.bridge_containing(v("x")).unwrap();
        let bz = d.bridge_containing(v("z")).unwrap();
        assert!(bw != bx && bx != bz && bw != bz);
        assert_eq!(d.bridge_containing(v("u")), None);
        // w's bridge has 2 edges: static R and dynamic u→w.
        assert_eq!(d.bridges()[bw].edges.len(), 2);
        // The chord bridge holds both Q arcs.
        let q_idx = (0..d.bridges().len())
            .find(|i| ![bw, bx, bz].contains(i))
            .unwrap();
        assert_eq!(d.bridges()[q_idx].edges.len(), 2);
    }

    #[test]
    fn figure_2_augmented_bridges_attach_self_loops() {
        let (g, c) = setup("p(u,w,x,y,z) :- p(u,u,u,y,y), q(u,u,y), r(w), s(x), t(z).");
        let d = BridgeDecomposition::wrt_link1(&g, &c);
        let bw = d.bridge_containing(v("w")).unwrap();
        let aug = d.augmented(&g, bw);
        // bridge {R(w→w), dyn(u→w)} + attached separator self-loop dyn(u→u).
        assert_eq!(aug.edges.len(), 3);
        assert!(aug.nodes.contains(&v("u")));
        assert!(aug.nodes.contains(&v("w")));
        assert!(!aug.nodes.contains(&v("y")));
    }

    #[test]
    fn example_6_2_bridges_wrt_i() {
        // A: P(w,x,y,z) :- P(x,w,x,u), Q(x,u), R(x,y), S(u,z).
        let (g, c) = setup("p(w,x,y,z) :- p(x,w,x,u), q(x,u), r(x,y), s(u,z).");
        let d = BridgeDecomposition::wrt_i(&g, &c);
        // G_I: dynamic x→w, w→x, x→y (I = {w,x,y}).
        assert_eq!(d.separator_edges().len(), 3);
        // Bridges: {Q,S,dyn(u→z)} through u/z, and the chord {R(x→y)}.
        assert_eq!(d.bridges().len(), 2);
        let r_bridge = d.bridges().iter().position(|b| b.edges.len() == 1).unwrap();
        let big = 1 - r_bridge;
        assert_eq!(d.bridges()[big].edges.len(), 3);
        // Augmenting the R-chord picks up the whole of G_I.
        let aug = d.augmented(&g, r_bridge);
        assert_eq!(aug.edges.len(), 1 + 3);
        for s in ["w", "x", "y"] {
            assert!(aug.nodes.contains(&v(s)), "{s} should be attached");
        }
        assert!(!aug.nodes.contains(&v("z")));
    }

    #[test]
    fn free_persistent_cycle_forms_its_own_bridge() {
        let (g, c) = setup("p(x,y,u,v) :- p(x,y,v,u), q(x,y).");
        let d = BridgeDecomposition::wrt_link1(&g, &c);
        // x, y are link 1-persistent (they appear in q): their self-arcs
        // form the separator. The free 2-persistent cycle {u,v} is a bridge
        // of dynamic arcs; the q chord is its own bridge.
        assert_eq!(d.separator_edges().len(), 2);
        let bu = d.bridge_containing(v("u")).unwrap();
        assert_eq!(d.bridge_containing(v("x")), None);
        assert_eq!(d.bridges()[bu].edges.len(), 2);
        assert!(d.bridges()[bu]
            .edges
            .iter()
            .all(|e| matches!(e, EdgeRef::Dynamic(_))));
        assert_eq!(d.bridges().len(), 2);
    }

    #[test]
    fn example_6_1_cheap_is_a_chord_bridge() {
        let (g, c) = setup("buys(x,y) :- knows(x,z), buys(z,y), cheap(y).");
        let d = BridgeDecomposition::wrt_link1(&g, &c);
        // Separator: dyn(y→y). cheap(y→y) is a chord: its own bridge.
        assert_eq!(d.separator_edges().len(), 1);
        let cheap_bridge = d
            .bridges()
            .iter()
            .find(|b| b.edges.iter().any(|e| matches!(e, EdgeRef::Static(i) if g.static_arcs()[*i].pred == linrec_datalog::Symbol::new("cheap"))))
            .unwrap();
        assert_eq!(cheap_bridge.edges.len(), 1);
        // Its augmentation attaches y's self-loop.
        let idx = d.bridges().iter().position(|b| b.edges.len() == 1).unwrap();
        let aug = d.augmented(&g, idx);
        assert_eq!(aug.edges.len(), 2);
    }

    #[test]
    fn bridge_containing_isolated_var_is_none() {
        // z is free 1-persistent: its dynamic self-arc is NOT in the
        // separator (free, not link), so it forms a bridge of its own.
        let (g, c) = setup("p(x,z) :- p(y,z), e(x,y).");
        let d = BridgeDecomposition::wrt_link1(&g, &c);
        let bz = d.bridge_containing(v("z"));
        assert!(bz.is_some());
        let b = &d.bridges()[bz.unwrap()];
        assert_eq!(b.edges.len(), 1);
        assert!(matches!(b.edges[0], EdgeRef::Dynamic(_)));
    }
}
