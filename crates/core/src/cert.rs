//! Typed certificates: analysis results as unforgeable values.
//!
//! The paper's whole argument is that *analysis results license strategies*:
//! commutativity (Theorems 5.1–5.3) licenses the `(B+C)* = B*C*`
//! decomposition, separability/commutativity (Theorems 4.1/6.1) licenses
//! selection push-down, and uniform boundedness / recursive redundancy
//! (Theorems 4.2/6.3/6.4) license bounded evaluation. This module turns each
//! of those analyses into a **certificate type** whose only constructors run
//! the corresponding test (or re-verify supplied witnesses), so downstream
//! machinery — the `linrec-engine` planner — can demand the premise *by
//! type* instead of by comment.
//!
//! Every certificate:
//!
//! * has private fields (it cannot be forged outside this module);
//! * stores the rules it speaks about (a plan built from a certificate
//!   cannot be replayed against different rules);
//! * carries a human-readable [`rationale`](CommutativityCert::rationale)
//!   naming the theorem and witnesses that justify it.

use crate::bounded::{uniformly_bounded, PowerWitness};
use crate::decompose::{pair_commutes, plan_decomposition};
use crate::redundancy::{analyze_redundancy, redundancy_decomposition, Decomposition};
use crate::separability::separability_report;
use linrec_cq::{compose, linear_equivalent};
use linrec_datalog::{LinearRule, RuleError, Symbol};

// --- commutativity --------------------------------------------------------

/// A verified cluster decomposition of a rule set: every cross-cluster pair
/// of operators commutes, so `(Σᵢ Aᵢ)* = Π_c (Σ_{i∈c} Aᵢ)*` (§3, §7,
/// Theorem 3.1).
///
/// Only [`CommutativityCert::establish`] can create one, and it only
/// succeeds when the clustering actually splits the star.
#[derive(Debug, Clone)]
pub struct CommutativityCert {
    rules: Vec<LinearRule>,
    clusters: Vec<Vec<usize>>,
    rationale: String,
}

impl CommutativityCert {
    /// Run the commutativity tests (exact where applicable, by definition
    /// otherwise) and certify the cluster decomposition. Returns `None` when
    /// everything lands in one cluster — i.e. no decomposition is licensed.
    pub fn establish(rules: &[LinearRule]) -> Result<Option<CommutativityCert>, RuleError> {
        let plan = plan_decomposition(rules)?;
        if !plan.is_decomposed() {
            return Ok(None);
        }
        let rationale = format!(
            "{} commuting clusters {:?}: every cross-cluster pair commutes \
             (Theorems 5.1–5.3), so (ΣA)* = Π (Σ cluster)* with no more \
             duplicates (§3, Theorem 3.1)",
            plan.clusters.len(),
            plan.clusters,
        );
        Ok(Some(CommutativityCert {
            rules: rules.to_vec(),
            clusters: plan.clusters,
            rationale,
        }))
    }

    /// The rules the certificate speaks about, in the caller's order.
    pub fn rules(&self) -> &[LinearRule] {
        &self.rules
    }

    /// Clusters of rule indices; the star decomposes into one star per
    /// cluster, applied right-to-left.
    pub fn clusters(&self) -> &[Vec<usize>] {
        &self.clusters
    }

    /// Why the decomposition is licensed.
    pub fn rationale(&self) -> &str {
        &self.rationale
    }
}

// --- separability ---------------------------------------------------------

/// How a [`SeparabilityCert`] was justified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeparabilityEvidence {
    /// Naughton's four separability conditions hold (disjoint variant);
    /// separable ⇒ commutative by Theorem 6.2.
    Separable,
    /// The pair commutes outright (Theorem 4.1 needs no more).
    Commuting,
}

/// A verified premise for the separable algorithm (Algorithm 4.1 /
/// Theorem 4.1) on the operator pair `outer`, `inner`: the two operators
/// commute, so `σ(outer + inner)* = outer* (σ inner*)` for any selection
/// `σ` that commutes with `outer`.
///
/// The *selection* premise is checked at plan-construction time by the
/// engine (a selection is an engine value); this certificate carries the
/// operator-pair premise, which is the expensive, theorem-backed half.
#[derive(Debug, Clone)]
pub struct SeparabilityCert {
    outer: LinearRule,
    inner: LinearRule,
    evidence: SeparabilityEvidence,
    rationale: String,
}

impl SeparabilityCert {
    /// Check Theorem 4.1's operator premise for `outer*(σ inner*)`:
    /// prefer Naughton separability (Theorem 6.2 gives commutativity), fall
    /// back to the direct commutativity tests. Returns `None` when the pair
    /// does not commute.
    pub fn establish(
        outer: &LinearRule,
        inner: &LinearRule,
    ) -> Result<Option<SeparabilityCert>, RuleError> {
        let naughton = matches!(
            separability_report(outer, inner),
            Ok(rep) if rep.is_separable_disjoint()
        );
        let (evidence, rationale) = if naughton {
            (
                SeparabilityEvidence::Separable,
                "the pair is separable (Naughton's four conditions, disjoint \
                 variant), hence commutative (Theorem 6.2); Algorithm 4.1 \
                 applies (Theorem 4.1/6.1)"
                    .to_owned(),
            )
        } else if pair_commutes(outer, inner)? {
            (
                SeparabilityEvidence::Commuting,
                "the pair commutes (Theorems 5.1–5.3), which is all \
                 Theorem 4.1 requires for σ(A₁+A₂)* = A₁*(σA₂*)"
                    .to_owned(),
            )
        } else {
            return Ok(None);
        };
        Ok(Some(SeparabilityCert {
            outer: outer.clone(),
            inner: inner.clone(),
            evidence,
            rationale,
        }))
    }

    /// The operator that will run *outside* the selection.
    pub fn outer(&self) -> &LinearRule {
        &self.outer
    }

    /// The operator absorbing the selection.
    pub fn inner(&self) -> &LinearRule {
        &self.inner
    }

    /// Which premise was established.
    pub fn evidence(&self) -> &SeparabilityEvidence {
        &self.evidence
    }

    /// Why the strategy is licensed.
    pub fn rationale(&self) -> &str {
        &self.rationale
    }
}

// --- uniform boundedness --------------------------------------------------

/// A verified uniform-boundedness witness `Aᴺ ≤ Aᴷ` for a single operator:
/// the recursion needs at most `N − 1` applications on any database
/// (§4.2, Lemma 6.2), so `A* = Σ_{m<N} Aᵐ`.
#[derive(Debug, Clone)]
pub struct BoundednessCert {
    rule: LinearRule,
    witness: PowerWitness,
    rationale: String,
}

impl BoundednessCert {
    /// Search minimized powers of `rule` up to `max_power` for a
    /// containment `Aⁿ ≤ Aᵏ` (k < n). Returns `None` when no witness is
    /// found within the bound.
    pub fn establish(
        rule: &LinearRule,
        max_power: usize,
    ) -> Result<Option<BoundednessCert>, RuleError> {
        let witness = match uniformly_bounded(rule, max_power)? {
            Some(w) => w,
            None => return Ok(None),
        };
        let rationale = format!(
            "uniformly bounded: A^{} ≤ A^{} (Lemma 6.2 search), so \
             A* = Σ_{{m<{}}} Aᵐ — at most {} applications on any database",
            witness.n,
            witness.k,
            witness.n,
            witness.n - 1,
        );
        Ok(Some(BoundednessCert {
            rule: rule.clone(),
            witness,
            rationale,
        }))
    }

    /// The certified operator.
    pub fn rule(&self) -> &LinearRule {
        &self.rule
    }

    /// The power witness `(k, n)` with `Aⁿ ≤ Aᵏ`.
    pub fn witness(&self) -> PowerWitness {
        self.witness
    }

    /// Number of operator applications that exhaust the star (`N − 1`).
    pub fn applications(&self) -> usize {
        self.witness.n - 1
    }

    /// Why the strategy is licensed.
    pub fn rationale(&self) -> &str {
        &self.rationale
    }
}

// --- recursive redundancy -------------------------------------------------

/// A verified Theorem 6.4 decomposition `Aᴸ = BCᴸ` with `C` torsion
/// (`Cᴺ = Cᴷ`) and `Cᴸ(BCᴸ) = Cᴸ(CᴸB)`: the redundant predicate's factor
/// `C` need only be processed a bounded number of times (Theorem 4.2).
#[derive(Debug, Clone)]
pub struct RedundancyCert {
    rule: LinearRule,
    pred: Symbol,
    decomposition: Decomposition,
    rationale: String,
}

impl RedundancyCert {
    /// Analyze `rule`'s augmented bridges (Theorem 6.3), pick the one
    /// holding `pred`, and construct-and-verify the Theorem 6.4 witnesses.
    /// Returns `None` when `pred` is not recursively redundant (or the
    /// verification equations fail within `max_power`).
    pub fn establish(
        rule: &LinearRule,
        pred: Symbol,
        max_power: usize,
    ) -> Result<Option<RedundancyCert>, RuleError> {
        let analysis = analyze_redundancy(rule, max_power)?;
        for bridge in analysis.redundant_bridges() {
            if !bridge.preds.contains(&pred) {
                continue;
            }
            if let Some(dec) = redundancy_decomposition(rule, bridge.bridge, max_power)? {
                return Ok(Some(RedundancyCert::from_verified(rule, pred, dec)));
            }
        }
        Ok(None)
    }

    /// Certify the first recursively redundant predicate of `rule`, if any.
    pub fn establish_any(
        rule: &LinearRule,
        max_power: usize,
    ) -> Result<Option<RedundancyCert>, RuleError> {
        let analysis = analyze_redundancy(rule, max_power)?;
        for bridge in analysis.redundant_bridges() {
            let pred = match bridge.preds.first() {
                Some(&p) => p,
                None => continue,
            };
            if let Some(dec) = redundancy_decomposition(rule, bridge.bridge, max_power)? {
                return Ok(Some(RedundancyCert::from_verified(rule, pred, dec)));
            }
        }
        Ok(None)
    }

    /// Re-verify externally supplied Theorem 6.4 witnesses against `rule`
    /// and certify them. This is how pre-computed decompositions (e.g. from
    /// a plan cache) re-enter the typed world without trust: the torsion
    /// indices and both equations are checked from scratch.
    pub fn verify(
        rule: &LinearRule,
        pred: Symbol,
        dec: &Decomposition,
    ) -> Result<Option<RedundancyCert>, RuleError> {
        // Degenerate indices (the power/composition machinery requires
        // exponents ≥ 1) can never be genuine witnesses: reject, don't panic.
        if dec.l == 0 || dec.torsion.k == 0 || dec.torsion.n <= dec.torsion.k {
            return Ok(None);
        }
        // The claimed predicate must be a parameter of the bounded factor C
        // and not of B — that placement is what Theorem 6.4's bounded
        // C-processing makes redundant.
        if !dec.c.nonrec_atoms().iter().any(|a| a.pred == pred)
            || dec.b.nonrec_atoms().iter().any(|a| a.pred == pred)
        {
            return Ok(None);
        }
        // Aᴸ must really be rule^L.
        let a_pow_l = linrec_cq::power(rule, dec.l)?;
        if !linear_equivalent(&a_pow_l, &dec.a_pow_l) {
            return Ok(None);
        }
        // Cᴸ must really be c^L, and the torsion witness must hold.
        let c_pow_l = linrec_cq::power(&dec.c, dec.l)?;
        if !linear_equivalent(&c_pow_l, &dec.c_pow_l) {
            return Ok(None);
        }
        let ck = linrec_cq::power_minimized(&dec.c, dec.torsion.k)?;
        let cn = linrec_cq::power_minimized(&dec.c, dec.torsion.n)?;
        if !linear_equivalent(&ck, &cn) {
            return Ok(None);
        }
        // Aᴸ = B·Cᴸ.
        let bcl = compose(&dec.b, &dec.c_pow_l)?;
        if !linear_equivalent(&bcl, &dec.a_pow_l) {
            return Ok(None);
        }
        // Cᴸ(BCᴸ) = Cᴸ(CᴸB).
        let lhs = compose(&dec.c_pow_l, &bcl)?;
        let rhs = compose(&dec.c_pow_l, &compose(&dec.c_pow_l, &dec.b)?)?;
        if !linear_equivalent(&lhs, &rhs) {
            return Ok(None);
        }
        Ok(Some(RedundancyCert::from_verified(rule, pred, dec.clone())))
    }

    fn from_verified(rule: &LinearRule, pred: Symbol, dec: Decomposition) -> RedundancyCert {
        let rationale = format!(
            "{pred} is recursively redundant (Theorem 6.3): A^{l} = B·C^{l} \
             with C^{n} = C^{k} and C^{l}(BC^{l}) = C^{l}(C^{l}B) verified \
             (Theorem 6.4), so C is processed at most (N−1)·L = {} times \
             (Theorem 4.2)",
            (dec.torsion.n - 1) * dec.l,
            l = dec.l,
            n = dec.torsion.n,
            k = dec.torsion.k,
        );
        RedundancyCert {
            rule: rule.clone(),
            pred,
            decomposition: dec,
            rationale,
        }
    }

    /// The certified operator.
    pub fn rule(&self) -> &LinearRule {
        &self.rule
    }

    /// The recursively redundant predicate.
    pub fn pred(&self) -> Symbol {
        self.pred
    }

    /// The verified Theorem 6.4 witnesses.
    pub fn decomposition(&self) -> &Decomposition {
        &self.decomposition
    }

    /// The rendered Theorem 6.4 argument.
    pub fn rationale(&self) -> &str {
        &self.rationale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrec_datalog::parse_linear_rule;

    fn lr(src: &str) -> LinearRule {
        parse_linear_rule(src).unwrap()
    }

    #[test]
    fn commutativity_cert_for_up_down() {
        let rules = [
            lr("p(x,y) :- p(x,z), q(z,y)."),
            lr("p(x,y) :- p(w,y), q(x,w)."),
        ];
        let cert = CommutativityCert::establish(&rules).unwrap().unwrap();
        assert_eq!(cert.clusters(), [[0], [1]]);
        assert!(cert.rationale().contains("Theorem 3.1"));
        assert_eq!(cert.rules(), &rules);
    }

    #[test]
    fn commutativity_cert_refuses_non_commuting_sets() {
        let rules = [
            lr("p(x,y) :- p(x,z), a(z,y)."),
            lr("p(x,y) :- p(x,z), b(z,y)."),
        ];
        assert!(CommutativityCert::establish(&rules).unwrap().is_none());
    }

    #[test]
    fn separability_cert_grades_evidence() {
        let up = lr("p(x,y) :- p(w,y), up(x,w).");
        let down = lr("p(x,y) :- p(x,z), down(z,y).");
        let cert = SeparabilityCert::establish(&up, &down).unwrap().unwrap();
        assert_eq!(*cert.evidence(), SeparabilityEvidence::Separable);

        // Example 5.3: commutes but is not separable.
        let r1 = lr("p(x,y,z) :- p(u,y,z), q(x,y).");
        let r2 = lr("p(x,y,z) :- p(x,y,v), r(z,y).");
        let cert = SeparabilityCert::establish(&r1, &r2).unwrap().unwrap();
        assert_eq!(*cert.evidence(), SeparabilityEvidence::Commuting);

        // Two right-expanders over different predicates do not commute.
        let a = lr("p(x,y) :- p(x,z), a(z,y).");
        let b = lr("p(x,y) :- p(x,z), b(z,y).");
        assert!(SeparabilityCert::establish(&a, &b).unwrap().is_none());
    }

    #[test]
    fn boundedness_cert_on_idempotent_filter() {
        let f = lr("p(x,y) :- p(x,y), mark(x).");
        let cert = BoundednessCert::establish(&f, 6).unwrap().unwrap();
        assert_eq!(cert.applications(), 1);
        assert!(cert.rationale().contains("Lemma 6.2"));

        let tc = lr("p(x,y) :- p(x,z), q(z,y).");
        assert!(BoundednessCert::establish(&tc, 6).unwrap().is_none());
    }

    #[test]
    fn redundancy_cert_on_example_6_1() {
        let a = lr("buys(x,y) :- knows(x,z), buys(z,y), cheap(y).");
        let cert = RedundancyCert::establish(&a, Symbol::new("cheap"), 8)
            .unwrap()
            .unwrap();
        assert_eq!(cert.pred(), Symbol::new("cheap"));
        assert_eq!(cert.decomposition().l, 1);
        assert!(cert.rationale().contains("Theorem 6.4"));
        // knows is not redundant.
        assert!(RedundancyCert::establish(&a, Symbol::new("knows"), 8)
            .unwrap()
            .is_none());
        // establish_any finds the same bridge.
        let any = RedundancyCert::establish_any(&a, 8).unwrap().unwrap();
        assert_eq!(any.pred(), Symbol::new("cheap"));
    }

    #[test]
    fn redundancy_verify_accepts_genuine_and_rejects_mismatched_witnesses() {
        let a = lr("buys(x,y) :- knows(x,z), buys(z,y), cheap(y).");
        let dec = crate::redundancy::decomposition_for_pred(&a, Symbol::new("cheap"), 8)
            .unwrap()
            .unwrap();
        assert!(RedundancyCert::verify(&a, Symbol::new("cheap"), &dec)
            .unwrap()
            .is_some());
        // The same witnesses against a different rule must be rejected.
        let other = lr("buys(x,y) :- likes(x,z), buys(z,y), cheap(y).");
        assert!(RedundancyCert::verify(&other, Symbol::new("cheap"), &dec)
            .unwrap()
            .is_none());
    }

    #[test]
    fn redundancy_verify_rejects_mislabeled_predicates() {
        // The witnesses are genuine, but the claimed predicate must live in
        // C (and not B) — `knows` is B's parameter, so a cert claiming it
        // is redundant must not be minted.
        let a = lr("buys(x,y) :- knows(x,z), buys(z,y), cheap(y).");
        let dec = crate::redundancy::decomposition_for_pred(&a, Symbol::new("cheap"), 8)
            .unwrap()
            .unwrap();
        assert!(RedundancyCert::verify(&a, Symbol::new("knows"), &dec)
            .unwrap()
            .is_none());
        assert!(RedundancyCert::verify(&a, Symbol::new("buys"), &dec)
            .unwrap()
            .is_none());
    }

    #[test]
    fn redundancy_verify_rejects_degenerate_indices_without_panicking() {
        let a = lr("buys(x,y) :- knows(x,z), buys(z,y), cheap(y).");
        let genuine = crate::redundancy::decomposition_for_pred(&a, Symbol::new("cheap"), 8)
            .unwrap()
            .unwrap();
        let mut zero_l = genuine.clone();
        zero_l.l = 0;
        assert!(RedundancyCert::verify(&a, Symbol::new("cheap"), &zero_l)
            .unwrap()
            .is_none());
        let mut zero_k = genuine.clone();
        zero_k.torsion.k = 0;
        assert!(RedundancyCert::verify(&a, Symbol::new("cheap"), &zero_k)
            .unwrap()
            .is_none());
        let mut inverted = genuine;
        inverted.torsion.n = inverted.torsion.k;
        assert!(RedundancyCert::verify(&a, Symbol::new("cheap"), &inverted)
            .unwrap()
            .is_none());
    }
}
