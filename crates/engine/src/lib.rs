//! Evaluation engine for linear recursion: `Analysis → Plan → Execution`.
//!
//! Every processing strategy the paper discusses sits behind one
//! certificate-carrying pipeline ([`planner`]):
//!
//! 1. [`Analysis`] runs the paper's tests over a rule set (and optional
//!    [`Selection`]) and collects typed certificates from `linrec-core` —
//!    commutativity clusters (Theorems 5.1–5.3), separability premises
//!    (Theorems 4.1/6.1), uniform boundedness (Lemma 6.2) and recursive
//!    redundancy (Theorems 6.3/6.4).
//! 2. [`Analysis::plan_for`] picks a licensed [`Plan`] for the data:
//!    `Direct`, `BoundedPrefix`, `Decomposed`, `Separable`,
//!    `RedundancyBounded`, `DenseClosure` or a `SelectAfter` wrapper. It is
//!    the one chooser; a caller that wants one certified shape builds it
//!    from the certificate (`Plan::decomposed`, …). The specialized nodes are
//!    *unconstructible* without their certificate, and every plan owns the
//!    one [`PlanDecision`] record of why it was chosen
//!    ([`Plan::decision`]; its `Display` form is the rendered rationale).
//!    Every node lowers to the list of stars it evaluates; a new shape is
//!    a new lowering.
//! 3. [`Plan::execute`] evaluates the tree, instrumented with the
//!    duplicate/derivation counters of Section 3.1 ([`EvalStats`]), and
//!    returns an [`ExecOutcome`] with a per-phase [`TraceStep`] record.
//!    Each star runs through `planner/exec.rs`'s `Exec::star` (each exact
//!    power through `Exec::power`), the one place the sparse, sharded or
//!    dense backend is chosen — and where a new backend is added.
//!
//! # Example: decomposing a commuting recursion
//!
//! ```
//! use linrec_datalog::{Database, Relation};
//! use linrec_engine::{planner::Analysis, rules, CertKind, Plan};
//!
//! let facts = "up(2,1). up(3,2). up(4,3). up(5,4). \
//!              down(10,11). down(11,12). down(12,13). down(13,14).";
//! let db = Database::from_facts(facts).unwrap();
//! let init = Relation::from_pairs([(1, 10), (2, 11), (1, 12)]);
//! let rules = vec![rules::up_rule(), rules::down_rule()];
//!
//! // Analysis finds the Theorem 5.2 commutativity certificate…
//! let plan = Analysis::of(&rules, None).plan_for(&db, &init);
//! assert_eq!(plan.decision().certificates[0].0, CertKind::Commutativity);
//!
//! // …and the decomposed plan `up* down*` produces the same relation as
//! // the direct baseline with no more duplicates (Theorem 3.1):
//! let decomposed = plan.execute(&db, &init).unwrap();
//! let direct = Plan::direct(rules).execute(&db, &init).unwrap();
//! assert_eq!(decomposed.relation.sorted(), direct.relation.sorted());
//! assert!(decomposed.stats.duplicates <= direct.stats.duplicates);
//! ```

#![warn(missing_docs)]

pub mod decision;
pub mod dense;
pub mod join;
pub mod magic;
pub mod parallel;
pub mod planner;
pub mod pool;
pub mod profile;
pub mod program;
pub mod provenance;
pub mod rules;
pub mod selection;
pub mod seminaive;
pub mod stats;

pub use decision::{
    CandidateEstimate, CertKind, DenseVerdict, MaintenanceMode, ParallelVerdict, PickedBy,
    PlanDecision,
};
pub use dense::{closure_by_squaring, composition_shape, CompositionShape, CompositionSide};
pub use join::{apply_flat, apply_linear, Indexes};
pub use magic::{eval_selected_star, magic_applicable};
pub use parallel::Parallelism;
pub use planner::{Analysis, CostModel, ExecOutcome, Plan, PlanShape, StrategyError, TraceStep};
pub use pool::WorkerPool;
pub use program::Program;
pub use provenance::{eval_with_provenance, Provenance, Step};
pub use selection::Selection;
pub use seminaive::seminaive_star;
pub use stats::EvalStats;
