//! Pass 2 — certificate cross-verification.
//!
//! The planner's typed certificates license every optimized strategy the
//! engine ships. Their constructors verify their own premises, but a bug
//! in the *shared* machinery (the exact tests, the cluster builder, the
//! power search) would corrupt constructor and consumer alike. This pass
//! re-derives each claim with an **independent second procedure** built
//! directly on the `linrec-cq` primitives:
//!
//! * **commutativity** — the analysis prefers the O(a log a) syntactic
//!   test of Theorems 5.2/5.3; the cross-verifier always goes *by
//!   definition*: compose the pair both ways and test CQ-equivalence
//!   (`C101`/`C102`/`C106`);
//! * **boundedness** — the claimed witness `Aᴺ ≤ Aᴷ` is re-checked as one
//!   direct containment between independently recomputed minimized powers
//!   (`C103`/`C107`);
//! * **redundancy** — the Theorem 6.4 equations are re-verified from
//!   scratch by [`RedundancyCert::verify`] (`C104`);
//! * **separability** — the operator premise of Theorem 4.1 (the pair
//!   commutes) is re-checked by definition (`C105`).
//!
//! Claims travel as an untyped [`CertClaims`] — extracted from an
//! [`Analysis`] in production, fabricable in tests (the typed certificates
//! themselves are unforgeable, so a *doctored* claim is the only way to
//! exercise the mismatch paths).

use crate::diagnostic::{Code, Diagnostic, Span};
use linrec_alpha::UnionFind;
use linrec_core::{Decomposition, PowerWitness, RedundancyCert, POWER_SEARCH_BOUND};
use linrec_cq::{compose, linear_contains, linear_equivalent, power_minimized};
use linrec_datalog::{LinearRule, Symbol};
use linrec_engine::Analysis;

/// The planner's claims, stripped of their certificate wrappers.
///
/// Production code extracts them with [`CertClaims::of`]; tests fabricate
/// doctored values to prove the cross-verifier actually rejects bad
/// claims.
#[derive(Debug, Clone, Default)]
pub struct CertClaims {
    /// Claimed commuting clusters (rule indices), when a decomposition was
    /// certified.
    pub clusters: Option<Vec<Vec<usize>>>,
    /// Claimed uniform-boundedness witness `Aᴺ ≤ Aᴷ` (single-rule only).
    pub boundedness: Option<PowerWitness>,
    /// Claimed recursively redundant predicate plus its Theorem 6.4
    /// witnesses (single-rule only).
    pub redundancy: Option<(Symbol, Decomposition)>,
    /// Claimed separable pairs `(outer, inner)` by rule index.
    pub separability: Vec<(usize, usize)>,
}

impl CertClaims {
    /// Extract the claims an [`Analysis`] is making.
    pub fn of(analysis: &Analysis) -> CertClaims {
        CertClaims {
            clusters: analysis.commutativity().map(|c| c.clusters().to_vec()),
            boundedness: analysis.boundedness().map(|c| c.witness()),
            redundancy: analysis
                .redundancy()
                .map(|c| (c.pred(), c.decomposition().clone())),
            separability: analysis
                .separability()
                .iter()
                .map(|(i, j, _)| (*i, *j))
                .collect(),
        }
    }
}

/// Compose the pair both ways and compare — commutativity *by definition*
/// (§5), with none of the analysis' syntactic shortcuts. `None` when the
/// pair cannot be composed (which valid aligned rules never hit).
fn commutes_by_definition(a: &LinearRule, b: &LinearRule) -> Option<bool> {
    let ab = compose(a, b).ok()?;
    let ba = compose(b, a).ok()?;
    Some(linear_equivalent(&ab, &ba))
}

/// Connected components of the non-commutativity graph, the canonical
/// cluster partition (§7).
fn independent_clusters(commute: &[Vec<bool>]) -> Vec<Vec<usize>> {
    let n = commute.len();
    let mut uf = UnionFind::new(n);
    for (i, row) in commute.iter().enumerate() {
        for (j, commutes) in row.iter().enumerate().skip(i + 1) {
            if !commutes {
                uf.union(i, j);
            }
        }
    }
    uf.groups()
}

/// Compare two partitions as sets of sets.
fn same_partition(a: &[Vec<usize>], b: &[Vec<usize>]) -> bool {
    let norm = |p: &[Vec<usize>]| -> Vec<Vec<usize>> {
        let mut p: Vec<Vec<usize>> = p
            .iter()
            .map(|c| {
                let mut c = c.clone();
                c.sort_unstable();
                c
            })
            .collect();
        p.sort();
        p
    };
    norm(a) == norm(b)
}

/// Cross-verify `claims` against `rules`. Any disagreement between a
/// claim and the independent procedure is an **error** diagnostic — a
/// certificate regression must not ship silently.
pub fn cross_verify(rules: &[LinearRule], claims: &CertClaims) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some(first) = rules.first() else {
        return out;
    };
    let n = rules.len();
    let aligned: Vec<LinearRule> = match rules
        .iter()
        .map(|r| r.align_consequent(first.head()))
        .collect::<Result<_, _>>()
    {
        Ok(v) => v,
        // Rules that cannot share a consequent carry no certificates to
        // cross-check (the analysis fails on them long before planning).
        Err(_) => return out,
    };

    // Independent pairwise commutation, by definition.
    let mut commute = vec![vec![true; n]; n];
    let mut undecidable = false;
    for i in 0..n {
        for j in (i + 1)..n {
            match commutes_by_definition(&aligned[i], &aligned[j]) {
                Some(c) => {
                    commute[i][j] = c;
                    commute[j][i] = c;
                }
                None => undecidable = true,
            }
        }
    }

    // Clusters (C101 / C102 / C106).
    match &claims.clusters {
        Some(clusters) => {
            let mut seen = vec![0usize; n];
            let mut well_formed = true;
            for c in clusters {
                for &i in c {
                    if i >= n {
                        well_formed = false;
                    } else {
                        seen[i] += 1;
                    }
                }
            }
            if !well_formed || seen.iter().any(|&c| c != 1) {
                out.push(Diagnostic::new(
                    Code::MalformedClusters,
                    Span::none(),
                    format!("claimed clusters {clusters:?} are not a partition of 0..{n}"),
                ));
            } else if !undecidable {
                let independent = independent_clusters(&commute);
                if !same_partition(clusters, &independent) {
                    let witness = cross_cluster_conflict(clusters, &commute);
                    let detail = match witness {
                        Some((i, j)) => format!(
                            " — rules {i} and {j} are claimed to commute (different \
                             clusters) but their compositions are not CQ-equivalent"
                        ),
                        None => String::new(),
                    };
                    out.push(Diagnostic::new(
                        Code::CommutativityMismatch,
                        Span::none(),
                        format!(
                            "claimed clusters {clusters:?} disagree with the by-definition \
                             recomputation {independent:?}{detail}"
                        ),
                    ));
                }
            }
        }
        None => {
            if n > 1 && !undecidable {
                let independent = independent_clusters(&commute);
                if independent.len() > 1 {
                    out.push(Diagnostic::new(
                        Code::MissedDecomposition,
                        Span::none(),
                        format!(
                            "the by-definition test licenses the cluster decomposition \
                             {independent:?}, but no commutativity certificate was produced"
                        ),
                    ));
                }
            }
        }
    }

    // Boundedness (C103 / C107). Scoped to single-rule sets, mirroring the
    // analysis.
    match claims.boundedness {
        Some(w) => {
            let valid = n == 1
                && w.k >= 1
                && w.k < w.n
                && bounded_witness_holds(&rules[0], w).unwrap_or(false);
            if !valid {
                out.push(Diagnostic::new(
                    Code::BoundednessMismatch,
                    Span::rule(0),
                    format!(
                        "claimed uniform-boundedness witness A^{} ≤ A^{} fails the \
                         independent containment check",
                        w.n, w.k,
                    ),
                ));
            }
        }
        None => {
            if n == 1 {
                if let Ok(Some(w)) = search_bounded(&rules[0], POWER_SEARCH_BOUND) {
                    out.push(Diagnostic::new(
                        Code::MissedBoundedness,
                        Span::rule(0),
                        format!(
                            "the independent power search finds A^{} ≤ A^{}, but no \
                             boundedness certificate was produced",
                            w.n, w.k,
                        ),
                    ));
                }
            }
        }
    }

    // Redundancy (C104): re-verify the Theorem 6.4 equations from scratch.
    if let Some((pred, dec)) = &claims.redundancy {
        let verified =
            n == 1 && matches!(RedundancyCert::verify(&rules[0], *pred, dec), Ok(Some(_)));
        if !verified {
            out.push(Diagnostic::new(
                Code::RedundancyMismatch,
                Span::rule_pred(0, *pred),
                format!("claimed Theorem 6.4 redundancy witnesses for {pred} fail re-verification"),
            ));
        }
    }

    // Separability (C105): Theorem 4.1's operator premise is commutation.
    for &(i, j) in &claims.separability {
        let holds = i < n
            && j < n
            && i != j
            && commutes_by_definition(&aligned[i], &aligned[j]) == Some(true);
        if !holds {
            out.push(Diagnostic::new(
                Code::SeparabilityMismatch,
                Span::none(),
                format!(
                    "claimed separable pair ({i}, {j}) fails the by-definition \
                     commutation check (Theorem 4.1's premise)"
                ),
            ));
        }
    }

    out
}

/// Find a pair claimed to commute (placed in different clusters) that the
/// independent test says does not — the sharpest possible witness for a
/// `C101` message.
fn cross_cluster_conflict(
    clusters: &[Vec<usize>],
    commute: &[Vec<bool>],
) -> Option<(usize, usize)> {
    let mut cluster_of = vec![0usize; commute.len()];
    for (c, members) in clusters.iter().enumerate() {
        for &i in members {
            cluster_of[i] = c;
        }
    }
    for i in 0..commute.len() {
        for j in (i + 1)..commute.len() {
            if cluster_of[i] != cluster_of[j] && !commute[i][j] {
                return Some((i, j));
            }
        }
    }
    None
}

/// Does `Aⁿ ≤ Aᵏ` hold? One direct containment between independently
/// recomputed minimized powers (`sub ≤ sup` ⇔ `linear_contains(sup, sub)`).
fn bounded_witness_holds(
    rule: &LinearRule,
    w: PowerWitness,
) -> Result<bool, linrec_datalog::RuleError> {
    let pk = power_minimized(rule, w.k)?;
    let pn = power_minimized(rule, w.n)?;
    Ok(linear_contains(&pk, &pn))
}

/// The least witness `Aⁿ ≤ Aᵏ` with `1 ≤ k < n ≤ max_power`, via the same
/// direct containment primitive as [`bounded_witness_holds`].
fn search_bounded(
    rule: &LinearRule,
    max_power: usize,
) -> Result<Option<PowerWitness>, linrec_datalog::RuleError> {
    let mut powers: Vec<LinearRule> = Vec::with_capacity(max_power);
    for e in 1..=max_power {
        powers.push(power_minimized(rule, e)?);
    }
    for n in 2..=max_power {
        for k in 1..n {
            if linear_contains(&powers[k - 1], &powers[n - 1]) {
                return Ok(Some(PowerWitness { k, n }));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrec_datalog::parse_linear_rule;

    fn lr(src: &str) -> LinearRule {
        parse_linear_rule(src).unwrap()
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn honest_analysis_passes() {
        for rules in [
            vec![lr("p(x,y) :- p(x,z), q(z,y).")],
            vec![lr("buys(x,y) :- buys(x,y), cheap(y).")],
            vec![
                lr("p(x,y) :- p(x,z), q(z,y)."),
                lr("p(x,y) :- p(w,y), q(x,w)."),
            ],
            vec![lr("buys(x,y) :- knows(x,z), buys(z,y), cheap(y).")],
        ] {
            let analysis = Analysis::of(&rules, None);
            let d = cross_verify(&rules, &CertClaims::of(&analysis));
            assert!(d.is_empty(), "{rules:?}: {d:?}");
        }
    }

    #[test]
    fn doctored_clusters_are_c101() {
        // a and b do NOT commute: claiming they sit in different clusters
        // is a false commutativity claim.
        let rules = [
            lr("p(x,y) :- p(x,z), a(z,y)."),
            lr("p(x,y) :- p(x,z), b(z,y)."),
        ];
        let claims = CertClaims {
            clusters: Some(vec![vec![0], vec![1]]),
            ..CertClaims::default()
        };
        let d = cross_verify(&rules, &claims);
        assert!(codes(&d).contains(&"C101"), "{d:?}");
    }

    #[test]
    fn non_partition_clusters_are_c102() {
        let rules = [
            lr("p(x,y) :- p(x,z), a(z,y)."),
            lr("p(x,y) :- p(x,z), b(z,y)."),
        ];
        let claims = CertClaims {
            clusters: Some(vec![vec![0], vec![0, 1]]),
            ..CertClaims::default()
        };
        let d = cross_verify(&rules, &claims);
        assert!(codes(&d).contains(&"C102"), "{d:?}");
    }

    #[test]
    fn doctored_boundedness_is_c103() {
        // Transitive closure is unbounded; any witness is a lie.
        let rules = [lr("p(x,y) :- p(x,z), q(z,y).")];
        let claims = CertClaims {
            boundedness: Some(PowerWitness { k: 1, n: 2 }),
            ..CertClaims::default()
        };
        let d = cross_verify(&rules, &claims);
        assert!(codes(&d).contains(&"C103"), "{d:?}");
    }

    #[test]
    fn doctored_separability_is_c105() {
        let rules = [
            lr("p(x,y) :- p(x,z), a(z,y)."),
            lr("p(x,y) :- p(x,z), b(z,y)."),
        ];
        let claims = CertClaims {
            separability: vec![(0, 1)],
            ..CertClaims::default()
        };
        let d = cross_verify(&rules, &claims);
        assert!(codes(&d).contains(&"C105"), "{d:?}");
    }

    #[test]
    fn dropped_certificates_are_missed() {
        // The up/down pair commutes: claiming no clusters is a miss.
        let rules = [
            lr("p(x,y) :- p(x,z), q(z,y)."),
            lr("p(x,y) :- p(w,y), q(x,w)."),
        ];
        let d = cross_verify(&rules, &CertClaims::default());
        assert!(codes(&d).contains(&"C106"), "{d:?}");

        // An idempotent filter is bounded: claiming nothing is a miss.
        let rules = [lr("buys(x,y) :- buys(x,y), cheap(y).")];
        let d = cross_verify(&rules, &CertClaims::default());
        assert!(codes(&d).contains(&"C107"), "{d:?}");
    }

    #[test]
    fn doctored_redundancy_is_c104() {
        // Take honest witnesses from the shopping rule, then claim them
        // for a different rule.
        let shopping = lr("buys(x,y) :- knows(x,z), buys(z,y), cheap(y).");
        let analysis = Analysis::of(std::slice::from_ref(&shopping), None);
        let honest = CertClaims::of(&analysis);
        let (pred, dec) = honest.redundancy.clone().expect("cheap is redundant");
        let other = [lr("p(x,y) :- p(x,z), q(z,y).")];
        let claims = CertClaims {
            redundancy: Some((pred, dec)),
            ..CertClaims::default()
        };
        let d = cross_verify(&other, &claims);
        assert!(codes(&d).contains(&"C104"), "{d:?}");
    }
}
