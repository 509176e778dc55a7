//! # linrec — Commutativity and the Processing of Linear Recursion
//!
//! A complete Rust implementation of Yannis E. Ioannidis,
//! *"Commutativity and its Role in the Processing of Linear Recursion"*
//! (15th VLDB, 1989; extended in J. Logic Programming 14:223–252, 1992).
//!
//! The workspace is layered; this umbrella crate re-exports every layer:
//!
//! * [`datalog`] — linear rules, parser, relations, databases;
//! * [`cq`] — conjunctive-query theory (homomorphisms, containment,
//!   minimization, composition — the operator product);
//! * [`alpha`] — α-graphs: persistence classes, bridges, narrow/wide rules;
//! * [`core`] — the paper's results: the Theorem 5.1 sufficient and
//!   Theorem 5.2/5.3 exact commutativity tests, separability (§4.1/§6.1),
//!   uniform boundedness/torsion, recursive redundancy (§4.2/§6.2) — and
//!   the **typed certificates** ([`core::cert`]) those analyses produce;
//! * [`engine`] — the `Analysis → Plan → Execution` pipeline: certificates
//!   license plan nodes (decomposed `(B+C)* = B*C*`, the separable
//!   algorithm with selection push-down, bounded and redundancy-bounded
//!   evaluation), and [`engine::Plan::execute`] runs them instrumented with
//!   the paper's duplicate/derivation counters.
//!
//! ## Quick start
//!
//! ```
//! use linrec::prelude::*;
//!
//! // The two linear forms of transitive closure commute (Example 5.2)...
//! let up = parse_linear_rule("p(x,y) :- p(x,z), q(z,y).").unwrap();
//! let dn = parse_linear_rule("p(x,y) :- p(w,y), q(x,w).").unwrap();
//! assert_eq!(commutes_exact(&up, &dn).unwrap(), ExactOutcome::Commute);
//!
//! // ...so analysis certifies the decomposition (B+C)* = B*C*, the planner
//! // picks it, and execution provably produces no more duplicates
//! // (Theorem 3.1):
//! let rules = vec![up, dn];
//! let init: Relation = (0..64).map(|i| (i, i + 1)).collect(); // a 64-edge chain
//! let mut db = Database::new();
//! db.set_relation("q", init.clone());
//! let plan = Analysis::of(&rules, None).plan_for(&db, &init);
//! assert!(matches!(plan.shape(), PlanShape::Decomposed { .. }));
//!
//! let decomposed = plan.execute(&db, &init).unwrap();
//! let direct = Plan::direct(rules).execute(&db, &init).unwrap();
//! assert_eq!(decomposed.relation.sorted(), direct.relation.sorted());
//! assert!(decomposed.stats.duplicates <= direct.stats.duplicates);
//! ```

pub use linrec_alpha as alpha;
pub use linrec_core as core;
pub use linrec_cq as cq;
pub use linrec_datalog as datalog;
pub use linrec_engine as engine;
pub use linrec_lint as lint;
pub use linrec_obs as obs;
pub use linrec_service as service;
pub use linrec_storage as storage;

/// The most common imports in one place.
pub mod prelude {
    pub use linrec_alpha::{AlphaGraph, BridgeDecomposition, Classification, PersistenceClass};
    pub use linrec_core::{
        analyze_redundancy, commute_by_definition, commutes_exact, commutes_sufficient,
        decomposition_for_pred, is_separable, plan_decomposition, BoundednessCert,
        CommutativityCert, ExactOutcome, RedundancyCert, SeparabilityCert, Sufficiency,
    };
    pub use linrec_cq::{compose, linear_equivalent, minimize_linear, power};
    pub use linrec_datalog::{
        parse_linear_rule, parse_program, parse_rule, Atom, Database, LinearRule, Relation, Rule,
        Symbol, Term, Tuple, Value, Var,
    };
    pub use linrec_engine::{
        Analysis, CostModel, EvalStats, ExecOutcome, Parallelism, Plan, PlanShape, Program,
        Selection, StrategyError,
    };
    pub use linrec_lint::{check_program, check_rules, Code, Diagnostic, LintReport, Severity};
    pub use linrec_service::{ViewDef, ViewService};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_is_usable() {
        let r = parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap();
        assert!(commute_by_definition(&r, &r).unwrap());
        // A point seed over a long chain: too sparse for the dense closure.
        let mut db = Database::new();
        db.set_relation("e", (0..3000).map(|i| (i, i + 1)).collect::<Relation>());
        let init = Relation::from_pairs([(0, 1)]);
        let plan = Analysis::of(std::slice::from_ref(&r), None).plan_for(&db, &init);
        assert_eq!(plan.shape(), PlanShape::Direct);
    }
}
