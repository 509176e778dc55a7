//! The α-graph of a linear recursive rule (paper, Section 5).
//!
//! * one node per variable;
//! * a **static arc** `x → y` (labelled `Q`) for every pair of consecutive
//!   argument positions of a nonrecursive atom `Q`, and a static self-arc
//!   for unary atoms;
//! * a **dynamic arc** `x → y` whenever `x` and `y` occupy the same argument
//!   position of the recursive predicate in the antecedent and the
//!   consequent respectively (i.e. `x = h(y)`).

use linrec_datalog::hash::FastMap;
use linrec_datalog::{LinearRule, RuleError, Symbol, Var};

/// A static arc: consecutive argument positions of a nonrecursive atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticArc {
    /// Source variable.
    pub from: Var,
    /// Target variable.
    pub to: Var,
    /// Predicate label.
    pub pred: Symbol,
    /// Index of the atom in `rule.nonrec_atoms()`.
    pub atom: usize,
    /// Index of the first of the two consecutive positions (0 for unary).
    pub pos: usize,
}

/// A dynamic arc: antecedent-to-consequent flow at one recursive position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicArc {
    /// Source: the variable in the recursive *antecedent* atom.
    pub from: Var,
    /// Target: the variable in the consequent.
    pub to: Var,
    /// The shared argument position.
    pub position: usize,
}

/// Identifies an edge of the α-graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EdgeRef {
    /// Index into [`AlphaGraph::static_arcs`].
    Static(usize),
    /// Index into [`AlphaGraph::dynamic_arcs`].
    Dynamic(usize),
}

/// The α-graph of a linear rule.
#[derive(Debug, Clone)]
pub struct AlphaGraph {
    rule: LinearRule,
    vars: Vec<Var>,
    static_arcs: Vec<StaticArc>,
    dynamic_arcs: Vec<DynamicArc>,
    atom_arcs: Vec<Vec<usize>>, // nonrec atom index -> its static arc indices
}

impl AlphaGraph {
    /// Build the α-graph of `rule`.
    ///
    /// Requires a constant-free rule with no repeated consequent variables
    /// (so that `h` is a function) and no zero-arity nonrecursive atoms.
    pub fn new(rule: &LinearRule) -> Result<AlphaGraph, RuleError> {
        if !rule.is_constant_free() {
            return Err(RuleError::HasConstants);
        }
        if rule.has_repeated_head_vars() {
            let mut seen = linrec_datalog::hash::FastSet::default();
            let var = rule
                .head_vars()
                .into_iter()
                .find(|&v| !seen.insert(v))
                .expect("repeated head var exists");
            return Err(RuleError::RepeatedHeadVars { var: var.name() });
        }

        let mut vars: Vec<Var> = Vec::new();
        let mut seen: FastMap<Var, ()> = FastMap::default();
        let mut note = |v: Var, vars: &mut Vec<Var>| {
            if seen.insert(v, ()).is_none() {
                vars.push(v);
            }
        };
        for v in rule.head().vars() {
            note(v, &mut vars);
        }
        for v in rule.rec_atom().vars() {
            note(v, &mut vars);
        }

        let mut static_arcs = Vec::new();
        let mut atom_arcs = Vec::with_capacity(rule.nonrec_atoms().len());
        for (ai, atom) in rule.nonrec_atoms().iter().enumerate() {
            if atom.arity() == 0 {
                return Err(RuleError::Parse(format!(
                    "zero-arity atom {atom} is not representable in an alpha-graph"
                )));
            }
            for v in atom.vars() {
                note(v, &mut vars);
            }
            let terms: Vec<Var> = atom.vars().collect();
            let mut arcs_of_atom = Vec::new();
            if terms.len() == 1 {
                arcs_of_atom.push(static_arcs.len());
                static_arcs.push(StaticArc {
                    from: terms[0],
                    to: terms[0],
                    pred: atom.pred,
                    atom: ai,
                    pos: 0,
                });
            } else {
                for w in 0..terms.len() - 1 {
                    arcs_of_atom.push(static_arcs.len());
                    static_arcs.push(StaticArc {
                        from: terms[w],
                        to: terms[w + 1],
                        pred: atom.pred,
                        atom: ai,
                        pos: w,
                    });
                }
            }
            atom_arcs.push(arcs_of_atom);
        }

        let mut dynamic_arcs = Vec::new();
        for (i, head_term) in rule.head().terms.iter().enumerate() {
            let to = head_term.as_var().expect("head checked constant-free");
            let from = rule.rec_atom().terms[i]
                .as_var()
                .expect("rule checked constant-free");
            dynamic_arcs.push(DynamicArc {
                from,
                to,
                position: i,
            });
        }

        Ok(AlphaGraph {
            rule: rule.clone(),
            vars,
            static_arcs,
            dynamic_arcs,
            atom_arcs,
        })
    }

    /// The underlying rule.
    pub fn rule(&self) -> &LinearRule {
        &self.rule
    }

    /// All variables (nodes), in first-occurrence order.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Static arcs.
    pub fn static_arcs(&self) -> &[StaticArc] {
        &self.static_arcs
    }

    /// Dynamic arcs (one per argument position of the recursive predicate).
    pub fn dynamic_arcs(&self) -> &[DynamicArc] {
        &self.dynamic_arcs
    }

    /// The static arc indices contributed by nonrecursive atom `i`.
    pub fn arcs_of_atom(&self, i: usize) -> &[usize] {
        &self.atom_arcs[i]
    }

    /// The two endpoints of an edge.
    pub fn endpoints(&self, e: EdgeRef) -> (Var, Var) {
        match e {
            EdgeRef::Static(i) => (self.static_arcs[i].from, self.static_arcs[i].to),
            EdgeRef::Dynamic(i) => (self.dynamic_arcs[i].from, self.dynamic_arcs[i].to),
        }
    }

    /// Iterate over all edges.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        (0..self.static_arcs.len())
            .map(EdgeRef::Static)
            .chain((0..self.dynamic_arcs.len()).map(EdgeRef::Dynamic))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrec_datalog::parse_linear_rule;

    fn graph(src: &str) -> AlphaGraph {
        AlphaGraph::new(&parse_linear_rule(src).unwrap()).unwrap()
    }

    #[test]
    fn figure_1_graph_shape() {
        // Example 5.1 / Figure 1:
        // P(x,y,z,u,v,w)... the paper's Figure-1 rule (reconstructed):
        // P(w,x,y,z,u,v) with z free 1-persistent, w,y link 1-persistent,
        // u,v free 2-persistent, x general. We use the rule:
        // p(w,x,y,z,u,v) :- p(w,s0,y,z,v,u), q(w,x), q2(x,y), r(y).
        let g = graph("p(w,x,y,z,u,v) :- p(w,s0,y,z,v,u), q(w,x), q2(x,y), r(y).");
        assert_eq!(g.dynamic_arcs().len(), 6);
        // q contributes 1 arc, q2 1 arc, r a self-loop.
        assert_eq!(g.static_arcs().len(), 3);
        let r_arc = g
            .static_arcs()
            .iter()
            .find(|a| a.pred == Symbol::new("r"))
            .unwrap();
        assert_eq!(r_arc.from, r_arc.to);
    }

    #[test]
    fn dynamic_arcs_follow_h() {
        let g = graph("p(x,y) :- p(y,z), e(z,y).");
        // position 0: body y -> head x; position 1: body z -> head y.
        assert_eq!(
            g.dynamic_arcs()[0],
            DynamicArc {
                from: Var::new("y"),
                to: Var::new("x"),
                position: 0
            }
        );
        assert_eq!(
            g.dynamic_arcs()[1],
            DynamicArc {
                from: Var::new("z"),
                to: Var::new("y"),
                position: 1
            }
        );
    }

    #[test]
    fn ternary_atom_contributes_two_arcs() {
        let g = graph("p(u,y) :- p(u,u), q(u,v,y).");
        assert_eq!(g.static_arcs().len(), 2);
        assert_eq!(g.arcs_of_atom(0), &[0, 1]);
    }

    #[test]
    fn rejects_constants_and_repeated_heads() {
        let with_const = parse_linear_rule("p(x,y) :- p(x,z), e(z,1).").unwrap();
        assert!(matches!(
            AlphaGraph::new(&with_const),
            Err(RuleError::HasConstants)
        ));
        let repeated = parse_linear_rule("p(x,x) :- p(x,y), e(y,x).").unwrap();
        assert!(matches!(
            AlphaGraph::new(&repeated),
            Err(RuleError::RepeatedHeadVars { .. })
        ));
    }

    #[test]
    fn rejects_zero_arity_atoms() {
        let r = parse_linear_rule("p(x) :- p(x), flag().").unwrap();
        assert!(AlphaGraph::new(&r).is_err());
    }

    #[test]
    fn nodes_cover_all_variables() {
        let g = graph("p(x,y) :- p(x,z), e(z,w), f(w,y).");
        let names: Vec<&str> = g.vars().iter().map(|v| v.name()).collect();
        assert_eq!(names, vec!["x", "y", "z", "w"]);
    }

    #[test]
    fn endpoints_and_edge_iteration() {
        let g = graph("p(x,y) :- p(x,z), e(z,y).");
        let edges: Vec<EdgeRef> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        let (a, b) = g.endpoints(EdgeRef::Static(0));
        assert_eq!((a.name(), b.name()), ("z", "y"));
    }
}
