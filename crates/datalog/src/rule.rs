//! Rules and validated *linear recursive* rules.
//!
//! A linear recursive rule (paper, eq. 2.1) has the form
//!
//! ```text
//! P(x̄⁽ᵏ⁺¹⁾) :- P(x̄⁽⁰⁾) ∧ Q₁(x̄⁽¹⁾) ∧ … ∧ Q_n(x̄⁽ⁿ⁾)
//! ```
//!
//! with exactly one occurrence of the recursive predicate `P` in the
//! antecedent. [`LinearRule`] validates and stores this shape and offers the
//! syntactic predicates (range-restriction, repeated consequent variables,
//! repeated nonrecursive predicates) that delimit the restricted class of
//! Theorem 5.2, plus the normalizations the paper assumes (repeated head
//! variables → equality atoms; equality elimination).

use crate::atom::Atom;
use crate::error::RuleError;
use crate::hash::{FastMap, FastSet};
use crate::symbol::Symbol;
use crate::term::{Term, Var};
use std::fmt;

/// An unvalidated Horn rule `head :- body`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rule {
    /// Consequent.
    pub head: Atom,
    /// Antecedent, a conjunction of positive atoms.
    pub body: Vec<Atom>,
}

impl Rule {
    /// Build a rule.
    pub fn new(head: Atom, body: Vec<Atom>) -> Rule {
        Rule { head, body }
    }

    /// All variables of the rule, in first-occurrence order (head first).
    pub fn vars(&self) -> Vec<Var> {
        let mut seen = FastSet::default();
        let mut out = Vec::new();
        for v in self
            .head
            .vars()
            .chain(self.body.iter().flat_map(|a| a.vars()))
        {
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }

    /// The set of distinguished (head) variables.
    pub fn distinguished(&self) -> FastSet<Var> {
        self.head.vars().collect()
    }

    /// True iff no term anywhere is a constant.
    pub fn is_constant_free(&self) -> bool {
        self.head.is_constant_free() && self.body.iter().all(|a| a.is_constant_free())
    }

    /// True iff every head variable also occurs in the body.
    pub fn is_range_restricted(&self) -> bool {
        let body_vars: FastSet<Var> = self.body.iter().flat_map(|a| a.vars()).collect();
        self.head.vars().all(|v| body_vars.contains(&v))
    }

    /// Apply a variable substitution to the whole rule.
    pub fn map_vars(&self, mut f: impl FnMut(Var) -> Term) -> Rule {
        Rule {
            head: self.head.map_vars(&mut f),
            body: self.body.iter().map(|a| a.map_vars(&mut f)).collect(),
        }
    }
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :- ", self.head)?;
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ".")
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Marker suffix used to derive the *input* instance `P_in` of the recursive
/// predicate in the underlying nonrecursive rule (paper, Section 5).
const IN_MARKER: &str = "\u{b7}in"; // "·in"

/// The predicate symbol standing for the body instance `P_in` of `p`.
pub fn input_pred(p: Symbol) -> Symbol {
    Symbol::new(&format!("{p}{IN_MARKER}"))
}

/// A validated linear recursive rule.
///
/// Invariants established at construction:
/// * the head predicate occurs exactly once in the body,
/// * that occurrence has the same arity as the head,
/// * head arguments are variables (no constants in the consequent).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LinearRule {
    head: Atom,
    rec: Atom,
    nonrec: Vec<Atom>,
}

impl LinearRule {
    /// Validate `rule` as a linear recursive rule.
    pub fn from_rule(rule: &Rule) -> Result<LinearRule, RuleError> {
        let p = rule.head.pred;
        if rule.head.terms.iter().any(|t| !t.is_var()) {
            return Err(RuleError::ConstantInHead);
        }
        let rec_positions: Vec<usize> = rule
            .body
            .iter()
            .enumerate()
            .filter(|(_, a)| a.pred == p)
            .map(|(i, _)| i)
            .collect();
        if rec_positions.len() != 1 {
            return Err(RuleError::NotLinear {
                pred: p,
                found: rec_positions.len(),
            });
        }
        let rec = rule.body[rec_positions[0]].clone();
        if rec.arity() != rule.head.arity() {
            return Err(RuleError::ArityMismatch {
                pred: p,
                head: rule.head.arity(),
                body: rec.arity(),
            });
        }
        let nonrec = rule
            .body
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != rec_positions[0])
            .map(|(_, a)| a.clone())
            .collect();
        Ok(LinearRule {
            head: rule.head.clone(),
            rec,
            nonrec,
        })
    }

    /// Build directly from the three components (validated).
    pub fn from_parts(head: Atom, rec: Atom, nonrec: Vec<Atom>) -> Result<LinearRule, RuleError> {
        let mut body = nonrec;
        body.push(rec);
        LinearRule::from_rule(&Rule::new(head, body))
    }

    /// The recursive predicate `P`.
    pub fn rec_pred(&self) -> Symbol {
        self.head.pred
    }

    /// Arity of the recursive predicate.
    pub fn arity(&self) -> usize {
        self.head.arity()
    }

    /// The consequent atom.
    pub fn head(&self) -> &Atom {
        &self.head
    }

    /// The body occurrence of the recursive predicate.
    pub fn rec_atom(&self) -> &Atom {
        &self.rec
    }

    /// The nonrecursive body atoms, in source order.
    pub fn nonrec_atoms(&self) -> &[Atom] {
        &self.nonrec
    }

    /// Reassemble a plain [`Rule`] (recursive atom first, matching the
    /// paper's display convention).
    pub fn to_rule(&self) -> Rule {
        let mut body = Vec::with_capacity(1 + self.nonrec.len());
        body.push(self.rec.clone());
        body.extend(self.nonrec.iter().cloned());
        Rule::new(self.head.clone(), body)
    }

    /// Head variables in consequent order (may repeat if not normalized).
    pub fn head_vars(&self) -> Vec<Var> {
        self.head.vars().collect()
    }

    /// The set of distinguished variables.
    pub fn distinguished(&self) -> FastSet<Var> {
        self.head.vars().collect()
    }

    /// The set of nondistinguished variables.
    pub fn nondistinguished(&self) -> FastSet<Var> {
        let d = self.distinguished();
        let mut out = FastSet::default();
        for a in std::iter::once(&self.rec).chain(self.nonrec.iter()) {
            for v in a.vars() {
                if !d.contains(&v) {
                    out.insert(v);
                }
            }
        }
        out
    }

    /// The paper's `h` function: for distinguished variable `x` occurring at
    /// consequent position `i`, `h(x)` is the term at position `i` of the
    /// recursive atom in the antecedent.
    ///
    /// Defined only when the consequent has no repeated variables (otherwise
    /// `h` would not be a function); returns `None` for nondistinguished
    /// variables.
    pub fn h(&self, x: Var) -> Option<Term> {
        let pos = self.head.terms.iter().position(|t| t.as_var() == Some(x))?;
        Some(self.rec.terms[pos])
    }

    /// `h` restricted to variables: `Some(v)` iff `h(x)` is the variable `v`.
    pub fn h_var(&self, x: Var) -> Option<Var> {
        self.h(x).and_then(|t| t.as_var())
    }

    /// True iff a variable occurs more than once in the consequent.
    pub fn has_repeated_head_vars(&self) -> bool {
        let mut seen = FastSet::default();
        self.head.vars().any(|v| !seen.insert(v))
    }

    /// True iff some nonrecursive predicate symbol occurs more than once in
    /// the antecedent (equality atoms are ignored, as the paper removes them
    /// before applying the restriction).
    pub fn has_repeated_nonrec_preds(&self) -> bool {
        let mut seen = FastSet::default();
        self.nonrec
            .iter()
            .filter(|a| !a.is_eq())
            .any(|a| !seen.insert(a.pred))
    }

    /// True iff every consequent variable appears in the antecedent.
    pub fn is_range_restricted(&self) -> bool {
        self.to_rule().is_range_restricted()
    }

    /// True iff the rule mentions no constants.
    pub fn is_constant_free(&self) -> bool {
        self.head.is_constant_free()
            && self.rec.is_constant_free()
            && self.nonrec.iter().all(|a| a.is_constant_free())
    }

    /// True iff the rule is in the restricted class of Theorem 5.2:
    /// range-restricted, no repeated consequent variables, no repeated
    /// nonrecursive predicates (and, per the paper's setting, constant-free).
    pub fn is_restricted_class(&self) -> bool {
        self.is_constant_free()
            && self.is_range_restricted()
            && !self.has_repeated_head_vars()
            && !self.has_repeated_nonrec_preds()
            && self.nonrec.iter().all(|a| !a.is_eq())
    }

    /// Eliminate all `=` atoms by unifying their arguments throughout the
    /// rule. Distinguished variables are kept as representatives where
    /// possible. Fails if two distinct constants are equated.
    pub fn eliminate_equalities(&self) -> Result<LinearRule, RuleError> {
        let mut subst: FastMap<Var, Term> = FastMap::default();
        let distinguished = self.distinguished();

        fn resolve(subst: &FastMap<Var, Term>, mut t: Term) -> Term {
            while let Term::Var(v) = t {
                match subst.get(&v) {
                    Some(&next) => t = next,
                    None => break,
                }
            }
            t
        }

        for a in self.nonrec.iter().filter(|a| a.is_eq()) {
            if a.arity() != 2 {
                return Err(RuleError::Parse(format!(
                    "equality atom with arity {}",
                    a.arity()
                )));
            }
            let l = resolve(&subst, a.terms[0]);
            let r = resolve(&subst, a.terms[1]);
            match (l, r) {
                (Term::Var(lv), Term::Var(rv)) if lv == rv => {}
                (Term::Var(lv), Term::Var(rv)) => {
                    // Prefer keeping a distinguished variable as representative.
                    if distinguished.contains(&lv) && !distinguished.contains(&rv) {
                        subst.insert(rv, Term::Var(lv));
                    } else {
                        subst.insert(lv, Term::Var(rv));
                    }
                }
                (Term::Var(v), c @ Term::Const(_)) | (c @ Term::Const(_), Term::Var(v)) => {
                    subst.insert(v, c);
                }
                (Term::Const(a), Term::Const(b)) if a == b => {}
                (Term::Const(_), Term::Const(_)) => return Err(RuleError::EqualityConflict),
            }
        }

        let apply = |v: Var| resolve(&subst, Term::Var(v));
        let head = self.head.map_vars(apply);
        if head.terms.iter().any(|t| !t.is_var()) {
            return Err(RuleError::ConstantInHead);
        }
        let rec = self.rec.map_vars(apply);
        let nonrec = self
            .nonrec
            .iter()
            .filter(|a| !a.is_eq())
            .map(|a| a.map_vars(apply))
            .collect();
        Ok(LinearRule { head, rec, nonrec })
    }

    /// Rename every nondistinguished variable to a fresh one. Used to meet
    /// the paper's standing assumption that two rules share no
    /// nondistinguished variables.
    pub fn freshen_nondistinguished(&self) -> LinearRule {
        let nd = self.nondistinguished();
        let mut map: FastMap<Var, Var> = FastMap::default();
        let rename = |map: &mut FastMap<Var, Var>, v: Var| -> Term {
            if nd.contains(&v) {
                Term::Var(*map.entry(v).or_insert_with(|| Var::fresh_named(v.name())))
            } else {
                Term::Var(v)
            }
        };
        LinearRule {
            head: self.head.clone(),
            rec: self.rec.map_vars(|v| rename(&mut map, v)),
            nonrec: self
                .nonrec
                .iter()
                .map(|a| a.map_vars(|v| rename(&mut map, v)))
                .collect(),
        }
    }

    /// Rename this rule so that its consequent becomes exactly
    /// `template` (same predicate, same variables in the same positions),
    /// freshening nondistinguished variables. Fails if the consequents are
    /// incompatible (different predicate/arity, or repeated head variables).
    pub fn align_consequent(&self, template: &Atom) -> Result<LinearRule, RuleError> {
        if template.pred != self.head.pred || template.arity() != self.head.arity() {
            return Err(RuleError::ConsequentMismatch);
        }
        let mut map: FastMap<Var, Var> = FastMap::default();
        for (mine, theirs) in self.head.terms.iter().zip(template.terms.iter()) {
            let (m, t) = match (mine.as_var(), theirs.as_var()) {
                (Some(m), Some(t)) => (m, t),
                _ => return Err(RuleError::ConsequentMismatch),
            };
            if let Some(prev) = map.insert(m, t) {
                if prev != t {
                    return Err(RuleError::RepeatedHeadVars { var: m.name() });
                }
            }
        }
        let renamed = LinearRule {
            head: self.head.map_vars(|v| Term::Var(map[&v])),
            rec: self.rec.map_vars(|v| match map.get(&v) {
                Some(&t) => Term::Var(t),
                None => Term::Var(v),
            }),
            nonrec: self
                .nonrec
                .iter()
                .map(|a| {
                    a.map_vars(|v| match map.get(&v) {
                        Some(&t) => Term::Var(t),
                        None => Term::Var(v),
                    })
                })
                .collect(),
        };
        Ok(renamed.freshen_nondistinguished())
    }

    /// The *underlying nonrecursive rule* (paper, Section 5): the body
    /// occurrence of `P` is renamed to the marker predicate `P·in`, making
    /// the rule an ordinary conjunctive query over EDB predicates.
    pub fn underlying(&self) -> Rule {
        let mut body = Vec::with_capacity(1 + self.nonrec.len());
        body.push(Atom::new(
            input_pred(self.rec_pred()),
            self.rec.terms.clone(),
        ));
        body.extend(self.nonrec.iter().cloned());
        Rule::new(self.head.clone(), body)
    }

    /// Occurrence count of each variable across the whole rule (head,
    /// recursive atom and nonrecursive atoms).
    pub fn occurrence_counts(&self) -> FastMap<Var, usize> {
        let mut counts: FastMap<Var, usize> = FastMap::default();
        for v in self
            .head
            .vars()
            .chain(self.rec.vars())
            .chain(self.nonrec.iter().flat_map(|a| a.vars()))
        {
            *counts.entry(v).or_insert(0) += 1;
        }
        counts
    }
}

impl fmt::Debug for LinearRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_rule())
    }
}

impl fmt::Display for LinearRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_linear_rule;

    #[test]
    fn validates_linearity() {
        let r = parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap();
        assert_eq!(r.rec_pred(), Symbol::new("p"));
        assert_eq!(r.nonrec_atoms().len(), 1);

        let bad = crate::parser::parse_rule("p(x,y) :- p(x,z), p(z,y).").unwrap();
        assert!(matches!(
            LinearRule::from_rule(&bad),
            Err(RuleError::NotLinear { found: 2, .. })
        ));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let bad = crate::parser::parse_rule("p(x,y) :- p(x), e(x,y).").unwrap();
        assert!(matches!(
            LinearRule::from_rule(&bad),
            Err(RuleError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn h_function_matches_paper() {
        // Figure 1 rule: P(x,y,z,u,v,w) :- P(x,x,z,v,u,w), Q(x,y), R(y,y).
        let r = parse_linear_rule("p(x,y,z,u,v,w) :- p(x,x,z,v,u,w), q(x,y), r(y,y).").unwrap();
        assert_eq!(r.h_var(Var::new("x")), Some(Var::new("x")));
        assert_eq!(r.h_var(Var::new("y")), Some(Var::new("x")));
        assert_eq!(r.h_var(Var::new("z")), Some(Var::new("z")));
        assert_eq!(r.h_var(Var::new("u")), Some(Var::new("v")));
        assert_eq!(r.h_var(Var::new("v")), Some(Var::new("u")));
    }

    #[test]
    fn restricted_class_detection() {
        let good = parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap();
        assert!(good.is_restricted_class());

        let repeated_pred = parse_linear_rule("p(x,y) :- p(u,v), q(x), q(y).").unwrap();
        assert!(repeated_pred.has_repeated_nonrec_preds());
        assert!(!repeated_pred.is_restricted_class());

        let not_rr = parse_linear_rule("p(x,y) :- p(x,x), e(x,x).").unwrap();
        assert!(!not_rr.is_range_restricted());
    }

    #[test]
    fn eliminate_equalities_unifies() {
        let r = parse_linear_rule("p(x,y) :- p(x,z), e(z,w), =(w,y).").unwrap();
        let e = r.eliminate_equalities().unwrap();
        assert!(e.nonrec_atoms().iter().all(|a| !a.is_eq()));
        // w was unified with distinguished y.
        let edge = &e.nonrec_atoms()[0];
        assert_eq!(edge.terms[1].as_var(), Some(Var::new("y")));
    }

    #[test]
    fn freshen_keeps_distinguished() {
        let r = parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap();
        let f = r.freshen_nondistinguished();
        assert_eq!(f.head(), r.head());
        assert_ne!(f.rec_atom().terms[1], r.rec_atom().terms[1]);
    }

    #[test]
    fn align_consequent_renames() {
        let template = Atom::from_vars("p", &[Var::new("a"), Var::new("b")]);
        let r = parse_linear_rule("p(x,y) :- p(y,x), e(x,y).").unwrap();
        let a = r.align_consequent(&template).unwrap();
        assert_eq!(a.head(), &template);
        assert_eq!(a.rec_atom().terms[0].as_var(), Some(Var::new("b")));
        assert_eq!(a.rec_atom().terms[1].as_var(), Some(Var::new("a")));
    }

    #[test]
    fn underlying_marks_input_instance() {
        let r = parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap();
        let u = r.underlying();
        assert_eq!(u.body[0].pred, input_pred(Symbol::new("p")));
        assert_eq!(u.head.pred, Symbol::new("p"));
    }

    #[test]
    fn occurrence_counts_count_everything() {
        let r = parse_linear_rule("p(x,y) :- p(x,x), q(y).").unwrap();
        let c = r.occurrence_counts();
        assert_eq!(c[&Var::new("x")], 3);
        assert_eq!(c[&Var::new("y")], 2);
    }
}
