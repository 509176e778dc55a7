//! **linrec-core** — the primary contribution of Ioannidis,
//! *"Commutativity and its Role in the Processing of Linear Recursion"*
//! (VLDB 1989 / J. Logic Programming 1992), implemented in full:
//!
//! | Paper | Here |
//! |---|---|
//! | commutativity by definition (§5) | [`commute_by_definition`] |
//! | Theorem 5.1 sufficient condition | [`commutes_sufficient`] |
//! | Theorems 5.2/5.3 exact O(a log a) test | [`commutes_exact`] |
//! | operator algebra, `CB ≤ BᵏCˡ` (§2–3, \[13\]) | [`algebra`] |
//! | star-decomposition planning (§3, §7) | [`plan_decomposition`] |
//! | separability, Theorems 4.1/6.1/6.2 (§4.1, §6.1) | [`separability`] |
//! | uniform boundedness / torsion (§4.2, Lemma 6.2) | [`bounded`] |
//! | recursive redundancy, Theorems 6.3/6.4 (§4.2, §6.2) | [`redundancy`] |
//!
//! This crate decides and certifies; it evaluates nothing. The rewrite
//! `(ΣAᵢ)* = Π (Σ cluster)*` a [`CommutativityCert`] licenses has one
//! implementation, the star list of `linrec-engine`'s planner.
//!
//! # Quick start
//!
//! ```
//! use linrec_datalog::parse_linear_rule;
//! use linrec_core::{commutes_exact, ExactOutcome};
//!
//! // The two linear forms of transitive closure (Example 5.2).
//! let up = parse_linear_rule("p(x,y) :- p(x,z), q(z,y).").unwrap();
//! let dn = parse_linear_rule("p(x,y) :- p(w,y), q(x,w).").unwrap();
//! assert_eq!(commutes_exact(&up, &dn).unwrap(), ExactOutcome::Commute);
//! // Consequence: (up + dn)* = up* dn*, evaluable by the decomposed
//! // strategy of `linrec-engine` with provably no more duplicates
//! // (Theorem 3.1).
//! ```

#![warn(missing_docs)]

pub mod algebra;
pub mod bounded;
pub mod cert;
pub mod commutativity;
pub mod decompose;
pub mod exact;
pub mod higher_power;
pub mod redundancy;
pub mod report;
pub mod separability;
pub mod sufficient;

pub use algebra::{identity_operator, lassez_maher_sum_condition, semi_commute, OperatorSum};
pub use bounded::{
    search_is_complete, torsion_index, uniformly_bounded, PowerWitness, POWER_SEARCH_BOUND,
};
pub use cert::{
    BoundednessCert, CommutativityCert, RedundancyCert, SeparabilityCert, SeparabilityEvidence,
};
pub use commutativity::{commute_by_definition, composites};
pub use decompose::{pair_commutes, plan_decomposition, DecompositionPlan, PairRelation};
pub use exact::{
    commutes_exact, is_restricted_pair, restricted_class_violations, ExactOutcome, Restriction,
};
pub use higher_power::{powers_commute, PowerCommutation};
pub use redundancy::{
    analyze_redundancy, decomposition_for_pred, lemma_6_3_exponent, redundancy_decomposition,
    BridgeRedundancy, Decomposition, RedundancyAnalysis,
};
pub use report::{pair_report, redundancy_report};
pub use separability::{is_separable, separability_report, SeparabilityReport};
pub use sufficient::{
    commutes_sufficient, sufficiency_report, Sufficiency, SufficiencyReport, VarCondition,
};
