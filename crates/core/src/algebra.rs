//! The operator algebra of Section 2 and the decomposition identities of
//! Sections 3–4.
//!
//! Linear relational operators form a closed semi-ring with `+` (union),
//! `*` (composition) and the Kleene star `A* = Σ Aᵏ` (Theorem 2.1). In this
//! crate an operator is a **sum of linear rules** over the same consequent
//! ([`OperatorSum`]); products and containment checks reduce to the
//! conjunctive-query layer:
//!
//! * `Σᵢ aᵢ ≤ Σⱼ bⱼ` iff every `aᵢ` is contained in some `bⱼ`
//!   (Sagiv–Yannakakis: a CQ is contained in a union iff in one disjunct);
//! * `A·B = Σᵢⱼ aᵢ·bⱼ`.
//!
//! On top of that the module provides the paper's checkable identities:
//! the generalized decomposition condition `CB ≤ BᵏCˡ` with `k ∈ {0,1}` or
//! `l ∈ {0,1}` ([`semi_commute`], from \[13\], §3) and the Lassez–Maher
//! conditions (§3.2).

use linrec_cq::{compose, linear_contains};
use linrec_datalog::{Atom, LinearRule, RuleError};

/// A sum (union) of linear rules over the same recursive predicate; the
/// operator `A = A₁ + … + A_n` of the paper.
#[derive(Debug, Clone)]
pub struct OperatorSum {
    head: Atom,
    terms: Vec<LinearRule>,
}

impl OperatorSum {
    /// Build a sum, aligning every rule to the first rule's consequent.
    pub fn new(rules: &[LinearRule]) -> Result<OperatorSum, RuleError> {
        let first = rules.first().ok_or(RuleError::ConsequentMismatch)?;
        let head = first.head().clone();
        let mut terms = Vec::with_capacity(rules.len());
        for r in rules {
            terms.push(r.align_consequent(&head)?);
        }
        Ok(OperatorSum { head, terms })
    }

    /// The shared consequent.
    pub fn head(&self) -> &Atom {
        &self.head
    }

    /// The summand rules.
    pub fn terms(&self) -> &[LinearRule] {
        &self.terms
    }

    /// Number of summands.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True iff the sum has no terms (the zero operator).
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Operator product: `(A·B)P = A(BP)` — every pairwise composite.
    pub fn multiply(&self, other: &OperatorSum) -> Result<OperatorSum, RuleError> {
        let mut terms = Vec::with_capacity(self.terms.len() * other.terms.len());
        for a in &self.terms {
            for b in &other.terms {
                let b = b.align_consequent(self.head())?;
                terms.push(compose(a, &b)?);
            }
        }
        Ok(OperatorSum {
            head: self.head.clone(),
            terms,
        })
    }

    /// Operator sum: `(A+B)P = AP ∪ BP`.
    pub fn add(&self, other: &OperatorSum) -> Result<OperatorSum, RuleError> {
        let mut terms = self.terms.clone();
        for t in &other.terms {
            terms.push(t.align_consequent(&self.head)?);
        }
        Ok(OperatorSum {
            head: self.head.clone(),
            terms,
        })
    }

    /// Containment `self ≤ other`: every summand of `self` is contained in
    /// some summand of `other` (CQ-in-union-of-CQs).
    pub fn contained_in(&self, other: &OperatorSum) -> bool {
        self.terms.iter().all(|a| {
            other.terms.iter().any(|b| {
                b.align_consequent(&self.head)
                    .map(|b| linear_contains(&b, a))
                    .unwrap_or(false)
            })
        })
    }

    /// Operator equality `self = other` (both containments).
    pub fn equals(&self, other: &OperatorSum) -> bool {
        self.contained_in(other) && other.contained_in(self)
    }
}

/// The identity operator `1` for the given consequent: `P(x̄) :- P(x̄)`.
pub fn identity_operator(head: &Atom) -> LinearRule {
    LinearRule::from_parts(head.clone(), head.clone(), Vec::new()).expect("identity rule is linear")
}

/// Search for the generalized decomposition condition of Section 3 (\[13\]):
/// `CB ≤ BᵏCˡ` for some `k, l` with `k ∈ {0,1}` or `l ∈ {0,1}`, which
/// implies `(B+C)* = B*C*`. Returns the smallest witnessing `(k, l)` (by
/// `k+l`), searching exponents up to `max_exp`.
///
/// Commutativity is the special case `(k, l) = (1, 1)`.
pub fn semi_commute(
    b: &LinearRule,
    c: &LinearRule,
    max_exp: usize,
) -> Result<Option<(usize, usize)>, RuleError> {
    let c = c.align_consequent(b.head())?;
    let cb = compose(&c, b)?;
    let ident = identity_operator(b.head());

    // Powers b⁰..b^max, c⁰..c^max (b⁰ = c⁰ = 1).
    let mut b_pows: Vec<LinearRule> = vec![ident.clone()];
    let mut c_pows: Vec<LinearRule> = vec![ident];
    for i in 1..=max_exp {
        b_pows.push(compose(&b_pows[i - 1], b)?);
        c_pows.push(compose(&c_pows[i - 1], &c)?);
    }

    // Candidate (k, l) pairs with k ∈ {0,1} or l ∈ {0,1}, ordered by k+l so
    // the least witness is reported.
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    for k in 0..=max_exp {
        for l in 0..=max_exp {
            if k <= 1 || l <= 1 {
                candidates.push((k, l));
            }
        }
    }
    candidates.sort_by_key(|&(k, l)| (k + l, k));

    for (k, l) in candidates {
        // BᵏCˡ: apply Cˡ first.
        let bkcl = compose(&b_pows[k], &c_pows[l])?;
        if linear_contains(&bkcl, &cb) {
            return Ok(Some((k, l)));
        }
    }
    Ok(None)
}

/// Lassez–Maher (§3.2): `BC = CB = B + C` implies `(B+C)* = B* + C*`.
/// Checks the premise as operator equalities.
pub fn lassez_maher_sum_condition(b: &LinearRule, c: &LinearRule) -> Result<bool, RuleError> {
    let c_al = c.align_consequent(b.head())?;
    let bc = OperatorSum::new(&[compose(b, &c_al)?])?;
    let cb = OperatorSum::new(&[compose(&c_al, b)?])?;
    let sum = OperatorSum::new(&[b.clone(), c_al])?;
    Ok(bc.equals(&cb) && bc.equals(&sum))
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrec_datalog::parse_linear_rule;

    fn lr(src: &str) -> LinearRule {
        parse_linear_rule(src).unwrap()
    }

    #[test]
    fn operator_sum_builds_and_aligns() {
        let a = lr("p(x,y) :- p(x,z), q(z,y).");
        let b = lr("p(u,v) :- p(w,v), q(u,w).");
        let s = OperatorSum::new(&[a.clone(), b]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.head(), a.head());
    }

    #[test]
    fn sum_containment_and_equality() {
        let a = lr("p(x,y) :- p(x,z), q(z,y).");
        let b = lr("p(x,y) :- p(w,y), q(x,w).");
        let ab = OperatorSum::new(&[a.clone(), b.clone()]).unwrap();
        let ba = OperatorSum::new(&[b, a.clone()]).unwrap();
        assert!(ab.equals(&ba));
        let just_a = OperatorSum::new(&[a]).unwrap();
        assert!(just_a.contained_in(&ab));
        assert!(!ab.contained_in(&just_a));
    }

    #[test]
    fn multiply_distributes_over_terms() {
        let a = lr("p(x,y) :- p(x,z), q(z,y).");
        let b = lr("p(x,y) :- p(w,y), q(x,w).");
        let s = OperatorSum::new(&[a, b]).unwrap();
        let prod = s.multiply(&s).unwrap();
        assert_eq!(prod.len(), 4);
    }

    #[test]
    fn identity_is_neutral() {
        let a = lr("p(x,y) :- p(x,z), q(z,y).");
        let one = identity_operator(a.head());
        let left = compose(&one, &a).unwrap();
        let right = compose(&a, &one).unwrap();
        assert!(linrec_cq::linear_equivalent(&left, &a));
        assert!(linrec_cq::linear_equivalent(&right, &a));
    }

    #[test]
    fn semi_commute_finds_commutativity_as_one_one() {
        let b = lr("p(x,y) :- p(x,z), q(z,y).");
        let c = lr("p(x,y) :- p(w,y), q(x,w).");
        assert_eq!(semi_commute(&b, &c, 2).unwrap(), Some((1, 1)));
    }

    #[test]
    fn semi_commute_absorption() {
        // C filters the persistent x column, so CB merely adds an atom to B:
        // CB ≤ B, witnessed by (k,l) = (1,0) — stronger than plain
        // commutativity (which also holds here).
        let b = lr("p(x,y) :- p(x,z), q(z,y).");
        let c = lr("p(x,y) :- p(x,y), s(x).");
        assert_eq!(semi_commute(&b, &c, 2).unwrap(), Some((1, 0)));
    }

    #[test]
    fn semi_commute_degenerate_absorb_into_c() {
        // B ≤ C (same rule with an extra filter): then CB ≤ C² with k=0.
        let c = lr("p(x,y) :- p(x,z), q(z,y).");
        let b = lr("p(x,y) :- p(x,z), q(z,y), s(x).");
        let witness = semi_commute(&b, &c, 2).unwrap();
        assert!(witness.is_some());
        // A filter on the *moving* column: B and C do not commute (the
        // filter lands at different walk depths), but CB ≤ C² still holds.
        let b = lr("p(x,y) :- p(x,z), q(z,y), t(y).");
        assert!(!crate::commute_by_definition(&b, &c).unwrap());
        assert_eq!(semi_commute(&b, &c, 2).unwrap(), Some((0, 2)));
    }

    #[test]
    fn semi_commute_fails_for_incompatible_rules() {
        let b = lr("p(x,y) :- p(x,z), a(z,y).");
        let c = lr("p(x,y) :- p(x,z), b(z,y).");
        assert_eq!(semi_commute(&b, &c, 2).unwrap(), None);
    }

    #[test]
    fn lassez_maher_condition_on_idempotent_filters() {
        // B, C both filters on disjoint persistent columns: BC = CB but
        // BC ≠ B + C, so the Lassez–Maher premise fails...
        let b = lr("p(x,y) :- p(x,y), s(x).");
        let c = lr("p(x,y) :- p(x,y), t(y).");
        assert!(!lassez_maher_sum_condition(&b, &c).unwrap());
        // ...whereas B = C trivially satisfies BC = CB = B + C when B is
        // idempotent.
        let idem = lr("p(x,y) :- p(x,y), s(x).");
        assert!(lassez_maher_sum_condition(&idem, &idem.clone()).unwrap());
    }

    #[test]
    fn zero_operator_cases() {
        assert!(OperatorSum::new(&[]).is_err());
    }
}
