//! Classification of distinguished variables (paper, Section 5):
//!
//! * **n-persistent**: `x` lies on an `h`-cycle of length `n` consisting of
//!   distinguished variables (its positions in the antecedent's recursive
//!   atom are a permutation of its positions in the consequent);
//!   * **free** if no member of the cycle occurs anywhere else in the rule,
//!   * **link** otherwise;
//! * **general**: every other distinguished variable;
//! * **n-ray** (Section 6): a general variable whose `h`-chain reaches a
//!   link-persistent variable in `n` steps — equivalently, connected to a
//!   link-persistent variable through dynamic arcs alone.

use linrec_datalog::hash::{FastMap, FastSet};
use linrec_datalog::{LinearRule, RuleError, Var};

/// The persistence class of a distinguished variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistenceClass {
    /// On an `h`-cycle of length `n`, no cycle member occurs elsewhere.
    FreePersistent(usize),
    /// On an `h`-cycle of length `n`, some cycle member occurs elsewhere.
    LinkPersistent(usize),
    /// Not persistent; `ray` is `Some(n)` if the variable is `n`-ray.
    General {
        /// Shortest `h`-chain distance to a link-persistent variable.
        ray: Option<usize>,
    },
}

impl PersistenceClass {
    /// True iff `FreePersistent(1)`.
    pub fn is_free_one_persistent(self) -> bool {
        self == PersistenceClass::FreePersistent(1)
    }

    /// True iff `LinkPersistent(1)`.
    pub fn is_link_one_persistent(self) -> bool {
        self == PersistenceClass::LinkPersistent(1)
    }

    /// The cycle length for persistent classes.
    pub fn persistence(self) -> Option<usize> {
        match self {
            PersistenceClass::FreePersistent(n) | PersistenceClass::LinkPersistent(n) => Some(n),
            PersistenceClass::General { .. } => None,
        }
    }
}

/// The classification of every distinguished variable of a rule.
#[derive(Debug, Clone)]
pub struct Classification {
    classes: FastMap<Var, PersistenceClass>,
    order: Vec<Var>,
}

impl Classification {
    /// Classify the distinguished variables of `rule`.
    ///
    /// Requires a constant-free rule with no repeated consequent variables
    /// (otherwise `h` is not a function).
    pub fn classify(rule: &LinearRule) -> Result<Classification, RuleError> {
        if !rule.is_constant_free() {
            return Err(RuleError::HasConstants);
        }
        if rule.has_repeated_head_vars() {
            let mut seen = FastSet::default();
            let var = rule
                .head_vars()
                .into_iter()
                .find(|&v| !seen.insert(v))
                .expect("repeated head var exists");
            return Err(RuleError::RepeatedHeadVars { var: var.name() });
        }

        let distinguished: FastSet<Var> = rule.distinguished();
        let occurrences = rule.occurrence_counts();
        let head_vars = rule.head_vars();

        // Persistence: follow h through distinguished variables, looking for
        // a cycle through the start variable.
        let mut classes: FastMap<Var, PersistenceClass> = FastMap::default();
        for &x in &head_vars {
            let mut y = x;
            let mut cycle = None;
            for n in 1..=head_vars.len() {
                match rule.h_var(y) {
                    Some(next) if distinguished.contains(&next) => {
                        if next == x {
                            cycle = Some(n);
                            break;
                        }
                        y = next;
                    }
                    _ => break, // nondistinguished or (impossible) undefined
                }
            }
            let class = match cycle {
                Some(n) => {
                    // Collect the cycle and check freeness: every member
                    // occurs exactly twice (once in the consequent, once in
                    // the recursive antecedent atom).
                    let mut members = Vec::with_capacity(n);
                    let mut m = x;
                    for _ in 0..n {
                        members.push(m);
                        m = rule.h_var(m).expect("cycle member");
                    }
                    let free = members.iter().all(|v| occurrences[v] == 2);
                    if free {
                        PersistenceClass::FreePersistent(n)
                    } else {
                        PersistenceClass::LinkPersistent(n)
                    }
                }
                None => PersistenceClass::General { ray: None },
            };
            classes.insert(x, class);
        }

        // Rays: follow h from each general variable through distinguished
        // variables until a link-persistent variable is met.
        let ray_targets: FastSet<Var> = classes
            .iter()
            .filter(|(_, c)| matches!(c, PersistenceClass::LinkPersistent(_)))
            .map(|(&v, _)| v)
            .collect();
        for &x in &head_vars {
            if !matches!(classes[&x], PersistenceClass::General { .. }) {
                continue;
            }
            let mut y = x;
            let mut ray = None;
            for n in 1..=head_vars.len() {
                match rule.h_var(y) {
                    Some(next) => {
                        if ray_targets.contains(&next) {
                            ray = Some(n);
                            break;
                        }
                        if !distinguished.contains(&next) {
                            break;
                        }
                        y = next;
                    }
                    None => break,
                }
            }
            classes.insert(x, PersistenceClass::General { ray });
        }

        Ok(Classification {
            classes,
            order: head_vars,
        })
    }

    /// The class of a distinguished variable.
    pub fn class(&self, v: Var) -> Option<PersistenceClass> {
        self.classes.get(&v).copied()
    }

    /// Iterate `(variable, class)` in consequent order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, PersistenceClass)> + '_ {
        self.order.iter().map(move |&v| (v, self.classes[&v]))
    }

    /// All link 1-persistent variables.
    pub fn link_one_persistent_vars(&self) -> Vec<Var> {
        self.order
            .iter()
            .copied()
            .filter(|&v| self.classes[&v].is_link_one_persistent())
            .collect()
    }

    /// All ray variables, with their ray length.
    pub fn ray_vars(&self) -> Vec<(Var, usize)> {
        self.order
            .iter()
            .filter_map(|&v| match self.classes[&v] {
                PersistenceClass::General { ray: Some(n) } => Some((v, n)),
                _ => None,
            })
            .collect()
    }

    /// The set `I` of Section 6: link-persistent ∪ ray variables.
    pub fn i_set(&self) -> FastSet<Var> {
        self.order
            .iter()
            .copied()
            .filter(|&v| match self.classes[&v] {
                PersistenceClass::LinkPersistent(_) => true,
                PersistenceClass::General { ray } => ray.is_some(),
                PersistenceClass::FreePersistent(_) => false,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrec_datalog::parse_linear_rule;

    fn classify(src: &str) -> Classification {
        Classification::classify(&parse_linear_rule(src).unwrap()).unwrap()
    }

    fn v(s: &str) -> Var {
        Var::new(s)
    }

    #[test]
    fn figure_1_classification() {
        // Reconstruction of Example 5.1 / Figure 1: z free 1-persistent,
        // w and y link 1-persistent, u and v free 2-persistent, x general
        // (h(x) is the nondistinguished s0, so x is not even a ray).
        let c = classify("p(w,x,y,z,u,v) :- p(w,s0,y,z,v,u), q(w,x), q2(x,y), r(y).");
        assert_eq!(c.class(v("z")), Some(PersistenceClass::FreePersistent(1)));
        assert_eq!(c.class(v("w")), Some(PersistenceClass::LinkPersistent(1)));
        assert_eq!(c.class(v("y")), Some(PersistenceClass::LinkPersistent(1)));
        assert_eq!(c.class(v("u")), Some(PersistenceClass::FreePersistent(2)));
        assert_eq!(c.class(v("v")), Some(PersistenceClass::FreePersistent(2)));
        assert_eq!(
            c.class(v("x")),
            Some(PersistenceClass::General { ray: None })
        );
    }

    #[test]
    fn figure_2_classification() {
        // P(u,w,x,y,z) :- P(u,u,u,y,y), Q(u,u,y), R(w), S(x), T(z):
        // u, y link 1-persistent; w, x, z general.
        let c = classify("p(u,w,x,y,z) :- p(u,u,u,y,y), q(u,u,y), r(w), s(x), t(z).");
        assert!(c.class(v("u")).unwrap().is_link_one_persistent());
        assert!(c.class(v("y")).unwrap().is_link_one_persistent());
        for g in ["w", "x", "z"] {
            assert!(matches!(
                c.class(v(g)),
                Some(PersistenceClass::General { .. })
            ));
        }
        assert_eq!(c.link_one_persistent_vars(), vec![v("u"), v("y")]);
    }

    #[test]
    fn transitive_closure_has_one_free_persistent_side() {
        // r1: p(x,y) :- p(x,z), q(z,y): x is free 1-persistent, y general.
        let c = classify("p(x,y) :- p(x,z), q(z,y).");
        assert!(c.class(v("x")).unwrap().is_free_one_persistent());
        assert_eq!(
            c.class(v("y")),
            Some(PersistenceClass::General { ray: None })
        );
    }

    #[test]
    fn example_6_1_link_and_general() {
        // buys(x,y) :- knows(x,z), buys(z,y), cheap(y): y link 1-persistent.
        let c = classify("buys(x,y) :- knows(x,z), buys(z,y), cheap(y).");
        assert!(c.class(v("y")).unwrap().is_link_one_persistent());
        assert_eq!(
            c.class(v("x")),
            Some(PersistenceClass::General { ray: None })
        );
    }

    #[test]
    fn example_6_2_rays() {
        // A: P(w,x,y,z) :- P(x,w,x,u), Q(x,u), R(x,y), S(u,z):
        // w,x link 2-persistent; y 1-ray; z general non-ray.
        let c = classify("p(w,x,y,z) :- p(x,w,x,u), q(x,u), r(x,y), s(u,z).");
        assert_eq!(c.class(v("w")), Some(PersistenceClass::LinkPersistent(2)));
        assert_eq!(c.class(v("x")), Some(PersistenceClass::LinkPersistent(2)));
        assert_eq!(
            c.class(v("y")),
            Some(PersistenceClass::General { ray: Some(1) })
        );
        assert_eq!(
            c.class(v("z")),
            Some(PersistenceClass::General { ray: None })
        );
        assert_eq!(c.ray_vars(), vec![(v("y"), 1)]);
        let i = c.i_set();
        assert_eq!(i.len(), 3);
        assert!(i.contains(&v("w")) && i.contains(&v("x")) && i.contains(&v("y")));
    }

    #[test]
    fn longer_rays() {
        // x link 1-persistent; y1 = 1-ray; y2 = 2-ray.
        let c = classify("p(x,y1,y2) :- p(x,x,y1), q(x), r(y2).");
        assert!(c.class(v("x")).unwrap().is_link_one_persistent());
        assert_eq!(
            c.class(v("y1")),
            Some(PersistenceClass::General { ray: Some(1) })
        );
        assert_eq!(
            c.class(v("y2")),
            Some(PersistenceClass::General { ray: Some(2) })
        );
    }

    #[test]
    fn free_persistent_cycles_are_not_ray_targets() {
        // x,y free 2-persistent; z's chain hits the free cycle: not a ray.
        let c = classify("p(x,y,z) :- p(y,x,x), q(z).");
        assert_eq!(c.class(v("x")), Some(PersistenceClass::LinkPersistent(2)));
        // x appears twice in the body-P atom (positions 2 and 3): link, and z
        // is a ray to it.
        assert_eq!(
            c.class(v("z")),
            Some(PersistenceClass::General { ray: Some(1) })
        );
    }

    #[test]
    fn truly_free_cycle_and_non_ray() {
        let c = classify("p(x,y,z) :- p(y,x,z), q(z).");
        assert_eq!(c.class(v("x")), Some(PersistenceClass::FreePersistent(2)));
        assert_eq!(c.class(v("y")), Some(PersistenceClass::FreePersistent(2)));
        // z: 1-persistent and appears in q: link 1-persistent.
        assert!(c.class(v("z")).unwrap().is_link_one_persistent());
    }

    #[test]
    fn three_cycle_persistence() {
        let c = classify("p(a,b,c) :- p(b,c,a).");
        for s in ["a", "b", "c"] {
            assert_eq!(c.class(v(s)), Some(PersistenceClass::FreePersistent(3)));
        }
    }

    #[test]
    fn rejects_unclassifiable_rules() {
        let with_const = parse_linear_rule("p(x) :- p(x), e(x,1).").unwrap();
        assert!(Classification::classify(&with_const).is_err());
    }
}
