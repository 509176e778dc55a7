//! Star-decomposition planning.
//!
//! Given `A = A₁ + … + A_n`, the paper's results yield decompositions of
//! `A*` into products of smaller stars:
//!
//! * if all pairs commute, `A* = A₁* A₂* … A_n*` (§3, §4.1 remark);
//! * more generally (§7 "partial commutativity", implemented here as an
//!   extension): cluster the operators so that **every cross-cluster pair
//!   commutes**; then `A* = (ΣC₁)* (ΣC₂)* …` with one star per cluster.
//!   Clusters are the connected components of the *non*-commutativity
//!   graph, so the plan is canonical and always exists (worst case: one
//!   cluster = no decomposition).
//!
//! The one-sided semi-commutation condition `CB ≤ BᵏCˡ` (§3, \[13\]),
//! which would fix the order `B* C*`, lives in
//! [`algebra::semi_commute`](crate::algebra::semi_commute) as a
//! stand-alone test; no plan uses it.

use crate::commutativity::commute_by_definition;
use crate::exact::{commutes_exact, is_restricted_pair, ExactOutcome};
use linrec_datalog::{LinearRule, RuleError};

/// How a pair of operators relates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairRelation {
    /// They commute (`BC = CB`).
    Commute,
    /// No decomposition certificate found.
    None,
}

/// A star-decomposition plan for `(ΣAᵢ)*`.
#[derive(Debug, Clone)]
pub struct DecompositionPlan {
    /// Pairwise relations, `relations[i][j]` for `i < j`.
    pub relations: Vec<Vec<PairRelation>>,
    /// Clusters of operator indices; `(ΣAᵢ)* = Π_c (Σ_{i∈c} Aᵢ)*`, applied
    /// right-to-left (the rightmost cluster is applied to the input first —
    /// any order is valid since clusters commute pairwise).
    pub clusters: Vec<Vec<usize>>,
}

impl DecompositionPlan {
    /// True iff the plan actually splits the star (more than one cluster).
    pub fn is_decomposed(&self) -> bool {
        self.clusters.len() > 1
    }

    /// True iff every operator is its own cluster.
    pub fn is_fully_decomposed(&self) -> bool {
        self.clusters.iter().all(|c| c.len() == 1)
    }
}

/// Decide whether a pair commutes, preferring the O(a log a) exact test on
/// the restricted class and falling back to the definition.
pub fn pair_commutes(a: &LinearRule, b: &LinearRule) -> Result<bool, RuleError> {
    if is_restricted_pair(a, b) {
        match commutes_exact(a, b) {
            Ok(ExactOutcome::Commute) => return Ok(true),
            Ok(ExactOutcome::DoNotCommute(_)) => return Ok(false),
            Err(_) => {}
        }
    }
    commute_by_definition(a, b)
}

/// Compute a decomposition plan for `rules` (all sharing a consequent after
/// alignment).
#[allow(clippy::needless_range_loop)] // pairwise matrix indexing
pub fn plan_decomposition(rules: &[LinearRule]) -> Result<DecompositionPlan, RuleError> {
    let n = rules.len();
    let head = rules
        .first()
        .ok_or(RuleError::ConsequentMismatch)?
        .head()
        .clone();
    let aligned: Vec<LinearRule> = rules
        .iter()
        .map(|r| r.align_consequent(&head))
        .collect::<Result<_, _>>()?;

    // Clusters: connected components of the non-commuting graph.
    let mut relations: Vec<Vec<PairRelation>> = vec![vec![PairRelation::None; n]; n];
    let mut uf = linrec_alpha::UnionFind::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if pair_commutes(&aligned[i], &aligned[j])? {
                relations[i][j] = PairRelation::Commute;
                relations[j][i] = PairRelation::Commute;
            } else {
                uf.union(i, j);
            }
        }
    }
    let clusters = uf.groups();

    Ok(DecompositionPlan {
        relations,
        clusters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrec_datalog::parse_linear_rule;

    fn lr(src: &str) -> LinearRule {
        parse_linear_rule(src).unwrap()
    }

    #[test]
    fn fully_commuting_pair_fully_decomposes() {
        let rules = [
            lr("p(x,y) :- p(x,z), q(z,y)."),
            lr("p(x,y) :- p(w,y), q(x,w)."),
        ];
        let plan = plan_decomposition(&rules).unwrap();
        assert!(plan.is_fully_decomposed());
        assert_eq!(plan.relations[0][1], PairRelation::Commute);
    }

    #[test]
    fn non_commuting_pair_stays_together() {
        let rules = [
            lr("p(x,y) :- p(x,z), a(z,y)."),
            lr("p(x,y) :- p(x,z), b(z,y)."),
        ];
        let plan = plan_decomposition(&rules).unwrap();
        assert!(!plan.is_decomposed());
        assert_eq!(plan.clusters, vec![vec![0, 1]]);
    }

    #[test]
    fn three_operators_cluster_correctly() {
        // a and b expand the same (right) side with different predicates:
        // they do not commute with each other but both commute with the
        // left-expanding c.
        let rules = [
            lr("p(x,y) :- p(x,z), a(z,y)."),
            lr("p(x,y) :- p(x,z), b(z,y)."),
            lr("p(x,y) :- p(w,y), c(x,w)."),
        ];
        let plan = plan_decomposition(&rules).unwrap();
        assert_eq!(plan.clusters.len(), 2);
        let mut sizes: Vec<usize> = plan.clusters.iter().map(|c| c.len()).collect();
        sizes.sort();
        assert_eq!(sizes, vec![1, 2]);
        assert_eq!(plan.relations[0][2], PairRelation::Commute);
        assert_eq!(plan.relations[1][2], PairRelation::Commute);
        assert_eq!(plan.relations[0][1], PairRelation::None);
    }

    #[test]
    fn mutual_commutativity_of_many_filters() {
        let rules = [
            lr("p(x,y,z) :- p(x,y,z), f1(x)."),
            lr("p(x,y,z) :- p(x,y,z), f2(y)."),
            lr("p(x,y,z) :- p(x,y,z), f3(z)."),
        ];
        let plan = plan_decomposition(&rules).unwrap();
        assert!(plan.is_fully_decomposed());
        assert_eq!(plan.clusters.len(), 3);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(plan_decomposition(&[]).is_err());
    }
}
