//! Torsion and uniform boundedness of operators (paper §4.2 and §6.2).
//!
//! An operator `B` is **uniformly bounded** if `Bᴺ ≤ Bᴷ` for some `K < N`,
//! and **torsion** if `Bᴺ = Bᴷ`. Every torsion operator is uniformly
//! bounded; Lemma 6.2 shows the converse for rules with no repeated
//! consequent variables and no repeated nonrecursive predicates.
//!
//! Both properties are searched by enumerating minimized powers
//! `B¹, B², …` and comparing against all earlier powers. For rules without
//! nondistinguished variables the search is complete (the powers range over
//! a finite set of bodies, so repetition is guaranteed); in general it is a
//! semi-decision bounded by `max_power`.

use linrec_cq::{
    canonicalize_linear, compose, linear_contains, linear_equivalent, minimize_linear,
};
use linrec_datalog::{LinearRule, RuleError};

/// A witness `(k, n)` with `k < n` for a power relation between `Bⁿ`
/// and `Bᵏ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerWitness {
    /// The smaller exponent `K ≥ 1`.
    pub k: usize,
    /// The larger exponent `N`.
    pub n: usize,
}

impl PowerWitness {
    /// The period `N − K`.
    pub fn period(&self) -> usize {
        self.n - self.k
    }
}

fn minimized_powers(rule: &LinearRule, max_power: usize) -> Result<Vec<LinearRule>, RuleError> {
    let mut powers: Vec<LinearRule> = Vec::with_capacity(max_power);
    let base = minimize_linear(rule);
    powers.push(base.clone());
    for _ in 1..max_power {
        let next = minimize_linear(&compose(powers.last().unwrap(), &base)?);
        powers.push(next);
    }
    Ok(powers)
}

/// Search for the least torsion witness `Bⁿ = Bᵏ` with `1 ≤ k < n ≤
/// max_power`. Returns `None` if no witness exists within the bound.
pub fn torsion_index(
    rule: &LinearRule,
    max_power: usize,
) -> Result<Option<PowerWitness>, RuleError> {
    let mut powers: Vec<(LinearRule, LinearRule)> = Vec::new(); // (power, canonical)
    let base = minimize_linear(rule);
    let mut current = base.clone();
    for n in 1..=max_power {
        let canon = canonicalize_linear(&current);
        for (k, (prev, prev_canon)) in powers.iter().enumerate() {
            // Cheap syntactic pre-check, then full equivalence.
            if *prev_canon == canon || linear_equivalent(prev, &current) {
                return Ok(Some(PowerWitness { k: k + 1, n }));
            }
        }
        powers.push((current.clone(), canon));
        if n < max_power {
            current = minimize_linear(&compose(&current, &base)?);
        }
    }
    Ok(None)
}

/// The `max_power` every shipped caller searches to: the planner's
/// analysis (boundedness and redundancy certificates), the lint
/// cross-verifier's missed-boundedness check and `linrec analyze`.
pub const POWER_SEARCH_BOUND: usize = 8;

/// Search for the least uniform-boundedness witness `Bⁿ ≤ Bᵏ` with
/// `1 ≤ k < n ≤ max_power`.
pub fn uniformly_bounded(
    rule: &LinearRule,
    max_power: usize,
) -> Result<Option<PowerWitness>, RuleError> {
    let powers = minimized_powers(rule, max_power)?;
    for n in 2..=powers.len() {
        for k in 1..n {
            if linear_contains(&powers[k - 1], &powers[n - 1]) {
                return Ok(Some(PowerWitness { k, n }));
            }
        }
    }
    Ok(None)
}

/// Is the search for this rule guaranteed to terminate with the right
/// answer? True when the rule has no nondistinguished variables, so its
/// powers live in a finite space (cf. the paper's remark in Example 6.2
/// that such operators are uniformly bounded... detectable here).
pub fn search_is_complete(rule: &LinearRule) -> bool {
    rule.nondistinguished().is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrec_datalog::parse_linear_rule;

    fn lr(src: &str) -> LinearRule {
        parse_linear_rule(src).unwrap()
    }

    #[test]
    fn idempotent_filter_is_torsion_1_2() {
        // Example 6.1's C: buys(x,y) :- buys(x,y), cheap(y): C² = C.
        let c = lr("buys(x,y) :- buys(x,y), cheap(y).");
        let w = torsion_index(&c, 8).unwrap().unwrap();
        assert_eq!((w.k, w.n), (1, 2));
        assert_eq!(w.period(), 1);
        assert!(search_is_complete(&c));
    }

    #[test]
    fn example_6_2_c_is_torsion_3_5() {
        // C: P(w,x,y,z) :- P(x,w,x,z), R(x,y): C⁵ = C³ (period 2), and
        // uniformly bounded earlier: C³ ≤ C.
        let c = lr("p(w,x,y,z) :- p(x,w,x,z), r(x,y).");
        assert!(search_is_complete(&c));
        let t = torsion_index(&c, 8).unwrap().unwrap();
        assert_eq!((t.k, t.n), (3, 5));
        let u = uniformly_bounded(&c, 8).unwrap().unwrap();
        assert_eq!((u.k, u.n), (1, 3));
    }

    #[test]
    fn transitive_closure_is_not_bounded() {
        let r = lr("p(x,y) :- p(x,z), q(z,y).");
        assert_eq!(torsion_index(&r, 6).unwrap(), None);
        assert_eq!(uniformly_bounded(&r, 6).unwrap(), None);
        assert!(!search_is_complete(&r));
    }

    #[test]
    fn pure_permutation_is_torsion() {
        // A 3-rotation: r³ = identity-ish: r⁴ = r.
        let r = lr("p(a,b,c) :- p(b,c,a).");
        let w = torsion_index(&r, 8).unwrap().unwrap();
        assert_eq!((w.k, w.n), (1, 4));
    }

    #[test]
    fn torsion_implies_uniformly_bounded() {
        let rules = [
            "buys(x,y) :- buys(x,y), cheap(y).",
            "p(w,x,y,z) :- p(x,w,x,z), r(x,y).",
            "p(a,b,c) :- p(b,c,a).",
        ];
        for s in rules {
            let r = lr(s);
            let t = torsion_index(&r, 10).unwrap();
            let u = uniformly_bounded(&r, 10).unwrap();
            if let Some(t) = t {
                let u = u.expect("torsion implies uniformly bounded");
                assert!(u.n <= t.n, "uniform bound found no later than torsion");
            }
        }
    }
}
