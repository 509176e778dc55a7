//! The certificate-carrying planner: `Analysis → Plan → Execution`.
//!
//! This module is the single entry point for evaluating a linear recursion,
//! a three-stage pipeline:
//!
//! 1. **[`Analysis`]** runs the paper's tests over a rule set (and optional
//!    [`Selection`](crate::Selection)) and collects *typed certificates*
//!    from `linrec-core`: `BoundednessCert`, `CommutativityCert`,
//!    `SeparabilityCert`, `RedundancyCert`.
//! 2. **[`Plan`]** is a composable strategy tree. The specialized nodes —
//!    `Decomposed`, `Separable`, `RedundancyBounded`, `BoundedPrefix`,
//!    `DenseClosure` — can **only** be built from the corresponding
//!    certificate, so an unlicensed plan is unrepresentable; `Direct` and
//!    `SelectAfter` need no premise and are always available.
//! 3. **[`Plan::execute`]** runs the tree over a database and seed
//!    relation, returning an [`ExecOutcome`] with the result relation, the
//!    paper's duplicate/derivation statistics, and a per-phase trace. One
//!    scan/index cache is shared by every phase of the tree.
//!
//! # Every plan is a product of stars
//!
//! The paper's strategies are expressions over one primitive:
//! `(B+C)* = B*C*`, `B*(σC*)`, `Σ_{m<N} Aᵐ` are products of stars. A plan
//! node *lowers* to the list of stars it evaluates (`plan`), and everything
//! that must agree about a plan reads that one list: `exec` runs it and
//! owns the sparse / sharded / dense backend choice, `cost` prices it,
//! [`Plan::parallelize`] asks it whether any round can shard,
//! [`Plan::resume`] has an incremental form exactly when the node *is* the
//! product of its stars, and
//! [`MaintenanceMode::of`](crate::MaintenanceMode::of) labels that form.
//! `analysis` turns certificates into the licensed plan; only `exec`
//! evaluates and only `cost` estimates.
//!
//! # Choosing among licensed plans
//!
//! One chooser picks the plan that runs: [`Analysis::plan_for`] (and
//! [`Analysis::plan_with`] under an explicit [`CostModel`]) takes the
//! concrete database and seed relation. Boundedness and separability win
//! without a competition (provably minimal applications, and selection
//! push-down, respectively); `Decomposed`, `RedundancyBounded` and `Direct`
//! compete on estimated cost, and the dense gate may pre-empt them with
//! `DenseClosure` — so a certificate is exploited only where the data says
//! it pays (a redundancy certificate that *loses* wall-clock on a small
//! dense database is not picked). To run one certified shape regardless of
//! cost, build it from its certificate (`Plan::decomposed(cert)`, …).
//!
//! # Why this plan
//!
//! Every [`Plan`] owns one [`PlanDecision`](crate::PlanDecision)
//! ([`Plan::decision`]): the winner and how it was picked, every
//! candidate's estimate, the certificates leaned on, the dense and
//! parallel verdicts and, after [`Plan::execute_feedback`], the actual
//! statistics. Its `Display` form is the one rendered rationale
//! (`describe()`'s `rationale:` line).
//!
//! ```
//! use linrec_datalog::{Database, Relation};
//! use linrec_engine::{planner::Analysis, rules, CertKind};
//!
//! let facts = "up(2,1). up(3,2). up(4,3). up(5,4). \
//!              down(10,11). down(11,12). down(12,13). down(13,14).";
//! let db = Database::from_facts(facts).unwrap();
//! let init = Relation::from_pairs([(1, 10), (2, 11), (1, 12)]);
//! let analysis = Analysis::of(&[rules::up_rule(), rules::down_rule()], None);
//! let plan = analysis.plan_for(&db, &init); // picks Decomposed, certificate-backed
//! let outcome = plan.execute(&db, &init).unwrap();
//! assert_eq!(plan.decision().certificates[0].0, CertKind::Commutativity);
//! assert_eq!(outcome.relation.len(), outcome.stats.tuples);
//! ```

mod analysis;
mod cost;
mod exec;
mod plan;

pub use analysis::Analysis;
pub use cost::CostModel;
pub use exec::{ExecOutcome, TraceStep};
pub use plan::{Plan, PlanShape};

use linrec_datalog::RuleError;

/// Errors from plan construction and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategyError {
    /// The selection does not commute with the operator that must absorb it
    /// (Theorem 4.1's selection premise).
    SelectionDoesNotCommute,
    /// A strategy was requested without the certificate that licenses it.
    MissingCertificate(String),
    /// Underlying rule manipulation failed.
    Rule(RuleError),
}

impl std::fmt::Display for StrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyError::SelectionDoesNotCommute => {
                write!(f, "selection does not commute with the outer operator")
            }
            StrategyError::MissingCertificate(what) => {
                write!(f, "no certificate licenses the strategy: {what}")
            }
            StrategyError::Rule(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StrategyError {}

impl From<RuleError> for StrategyError {
    fn from(e: RuleError) -> StrategyError {
        StrategyError::Rule(e)
    }
}
