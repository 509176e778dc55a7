//! Whole-program API: parse a Datalog program, analyze it with the paper's
//! machinery, and run it through the certificate-carrying planner.
//!
//! This is the "downstream user" entry point. A [`Program`] is one
//! recursive predicate with its rules, EDB facts and seed; [`Program::analyze`]
//! produces the typed certificates, [`Program::plan_for`] picks the licensed
//! [`Plan`] that fits the program's data, and [`Program::run`] executes it:
//!
//! ```
//! use linrec_engine::{PlanShape, Program};
//!
//! let prog = Program::parse(
//!     "p(x,y) :- p(x,z), down(z,y).
//!      p(x,y) :- p(w,y), up(x,w).
//!      up(1,2). down(10,11). p(1,10).",
//! ).unwrap();
//! // The planner decomposes the commuting pair…
//! assert!(matches!(prog.plan_for(None).shape(), PlanShape::Decomposed { .. }));
//! // …and execution computes the closure.
//! let (outcome, _plan) = prog.run(None).unwrap();
//! assert_eq!(outcome.relation.len(), 2);
//! ```

use crate::planner::{Analysis, ExecOutcome, Plan, StrategyError};
use crate::selection::Selection;
use linrec_datalog::{parse_program, Clause, Database, LinearRule, Relation, RuleError, Symbol};

/// A parsed recursive query program: one recursive (IDB) predicate defined
/// by linear rules, plus ground facts for the EDB relations and the seed of
/// the recursive relation.
#[derive(Clone)]
pub struct Program {
    rec_pred: Symbol,
    rules: Vec<LinearRule>,
    db: Database,
    init: Relation,
}

impl Program {
    /// Parse program text. Clauses with bodies must all be linear recursive
    /// rules over the same head predicate; ground facts for that predicate
    /// seed the recursion, all other facts populate the EDB.
    pub fn parse(src: &str) -> Result<Program, RuleError> {
        let clauses = parse_program(src)?;
        let mut rules: Vec<LinearRule> = Vec::new();
        let mut facts: Vec<linrec_datalog::Atom> = Vec::new();
        for clause in clauses {
            match clause {
                Clause::Rule(r) => rules.push(LinearRule::from_rule(&r)?),
                Clause::Fact(a) => facts.push(a),
            }
        }
        let first = rules
            .first()
            .ok_or_else(|| RuleError::Parse("program has no rules".into()))?;
        let rec_pred = first.rec_pred();
        let arity = first.arity();
        let head = first.head().clone();
        let rules: Vec<LinearRule> = rules
            .iter()
            .map(|r| {
                if r.rec_pred() != rec_pred {
                    Err(RuleError::Parse(format!(
                        "all rules must define {rec_pred}; found {}",
                        r.rec_pred()
                    )))
                } else {
                    r.align_consequent(&head)
                }
            })
            .collect::<Result<_, _>>()?;

        let mut db = Database::new();
        let mut init = Relation::new(arity);
        for atom in facts {
            if atom.pred == rec_pred {
                if atom.arity() != arity {
                    return Err(RuleError::ArityMismatch {
                        pred: rec_pred,
                        head: arity,
                        body: atom.arity(),
                    });
                }
                let mut db_tmp = Database::new();
                db_tmp.insert_fact(&atom)?;
                init.union_in_place(db_tmp.relation(rec_pred).unwrap());
            } else {
                db.insert_fact(&atom)?;
            }
        }
        Ok(Program {
            rec_pred,
            rules,
            db,
            init,
        })
    }

    /// The recursive predicate.
    pub fn rec_pred(&self) -> Symbol {
        self.rec_pred
    }

    /// The (aligned) rules.
    pub fn rules(&self) -> &[LinearRule] {
        &self.rules
    }

    /// The EDB.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The seed relation.
    pub fn init(&self) -> &Relation {
        &self.init
    }

    /// Run the paper's analyses for this program (and optional selection),
    /// collecting the certificates that license specialized strategies.
    pub fn analyze(&self, sel: Option<&Selection>) -> Analysis {
        Analysis::of(&self.rules, sel)
    }

    /// Choose the cheapest licensed strategy for this program's *data*
    /// (cost-model ranked; see [`Analysis::plan_for`]).
    pub fn plan_for(&self, sel: Option<&Selection>) -> Plan {
        self.analyze(sel).plan_for(&self.db, &self.init)
    }

    /// Plan (cost-model ranked against this program's data) and execute.
    /// Returns the execution outcome (with the selection applied, if any)
    /// and the plan that was used — its [`Plan::decision`] carries the
    /// run's actual statistics next to the cost-model estimate.
    pub fn run(&self, sel: Option<&Selection>) -> Result<(ExecOutcome, Plan), StrategyError> {
        self.run_with_parallelism(sel, &crate::parallel::Parallelism::sequential())
    }

    /// [`Program::run`] under a [`crate::parallel::Parallelism`] knob: the
    /// chosen plan is offered parallel fixpoint rounds, cost-model gated
    /// ([`Plan::parallelize`] records the verdict in [`Plan::decision`]).
    pub fn run_with_parallelism(
        &self,
        sel: Option<&Selection>,
        par: &crate::parallel::Parallelism,
    ) -> Result<(ExecOutcome, Plan), StrategyError> {
        let mut plan = self.plan_for(sel).parallelize(
            par,
            &crate::planner::CostModel::default(),
            &self.db,
            &self.init,
        );
        let outcome = plan.execute_feedback(&self.db, &self.init)?;
        Ok((outcome, plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::{CertKind, PickedBy};
    use crate::planner::PlanShape;
    use linrec_datalog::Value;

    const UPDOWN: &str = "
        p(x,y) :- p(x,z), down(z,y).
        p(x,y) :- p(w,y), up(x,w).
        up(1,2). up(2,3).
        down(10,11). down(11,12).
        p(1,10).
    ";

    #[test]
    fn parse_splits_rules_facts_and_seed() {
        let prog = Program::parse(UPDOWN).unwrap();
        assert_eq!(prog.rules().len(), 2);
        assert_eq!(prog.init().len(), 1);
        assert_eq!(prog.database().relation_named("up").unwrap().len(), 2);
        assert_eq!(prog.rec_pred(), Symbol::new("p"));
    }

    #[test]
    fn planner_decomposes_commuting_program() {
        let prog = Program::parse(UPDOWN).unwrap();
        let plan = prog.plan_for(None);
        assert!(matches!(plan.shape(), PlanShape::Decomposed { .. }));
        assert_eq!(plan.decision().certificates[0].0, CertKind::Commutativity);
        let (outcome, _) = prog.run(None).unwrap();
        // p(1,10) closed under up/down: {1,2,3} × {10,11,12}... only
        // reachable combinations: up extends x backwards? up(x,w): x
        // new, w old: from (1,10): up(?,1): none... up(1,2) means
        // x=1,w=2: so p(2,...) derives p(1,...): seeds flow down from
        // (1,10): down: (1,11),(1,12); up needs p(w,y) with up(x,w): w ∈
        // {1}: no up(_,1)... up(1,2): p(2,y) would derive p(1,y): p(2,_)
        // unknown. So result = {(1,10),(1,11),(1,12)}.
        assert_eq!(outcome.relation.len(), 3);
    }

    #[test]
    fn planner_uses_separable_for_selected_queries() {
        let prog = Program::parse(UPDOWN).unwrap();
        let sel = Selection::eq(1, 12);
        let plan = prog.plan_for(Some(&sel));
        assert_eq!(plan.shape(), PlanShape::Separable, "{plan:?}");
        let (outcome, _) = prog.run(Some(&sel)).unwrap();
        assert_eq!(
            outcome.relation.sorted(),
            vec![vec![Value::Int(1), Value::Int(12)]]
        );
    }

    #[test]
    fn planner_detects_bounded_recursion() {
        let prog = Program::parse("p(x,y) :- p(x,y), mark(x). mark(1). p(1,5). p(2,6).").unwrap();
        let plan = prog.plan_for(None);
        assert_eq!(plan.shape(), PlanShape::BoundedPrefix { applications: 1 });
        let (outcome, _) = prog.run(None).unwrap();
        assert_eq!(outcome.relation.len(), 2); // seeds only (rule derives nothing new)
        assert!(outcome.stats.iterations <= 1);
    }

    #[test]
    fn planner_falls_back_to_direct() {
        let prog = Program::parse(
            "p(x,y) :- p(x,z), a(z,y).
             p(x,y) :- p(x,z), b(z,y).
             a(1,2). b(2,3). p(0,1).",
        )
        .unwrap();
        let plan = prog.plan_for(None);
        assert_eq!(plan.shape(), PlanShape::Direct);
        let (outcome, _) = prog.run(None).unwrap();
        assert_eq!(outcome.relation.len(), 3); // (0,1),(0,2),(0,3)
    }

    #[test]
    fn plans_agree_with_direct_evaluation() {
        let prog = Program::parse(UPDOWN).unwrap();
        let (planned, _) = prog.run(None).unwrap();
        let direct = Plan::direct(prog.rules().to_vec())
            .execute(prog.database(), prog.init())
            .unwrap();
        assert_eq!(planned.relation.sorted(), direct.relation.sorted());
    }

    #[test]
    fn cost_choice_agrees_with_the_certified_decomposition() {
        let prog = Program::parse(UPDOWN).unwrap();
        let costed = prog.plan_for(None);
        assert_eq!(costed.decision().picked_by, PickedBy::CostModel);
        let a = costed.execute(prog.database(), prog.init()).unwrap();
        let cert = prog.analyze(None).commutativity().unwrap().clone();
        let b = Plan::decomposed(cert)
            .execute(prog.database(), prog.init())
            .unwrap();
        assert_eq!(a.relation.sorted(), b.relation.sorted());
    }

    #[test]
    fn analysis_is_exposed_for_reporting() {
        let prog = Program::parse(UPDOWN).unwrap();
        let analysis = prog.analyze(None);
        assert!(analysis.commutativity().is_some());
        let listed = analysis.summary();
        assert!(listed.starts_with("• commutativity: "), "{listed}");
    }

    #[test]
    fn parse_rejects_mixed_idb() {
        let bad = "p(x) :- p(x), a(x). q(x) :- q(x), b(x). a(1).";
        assert!(Program::parse(bad).is_err());
    }

    #[test]
    fn parse_rejects_empty_program() {
        assert!(Program::parse("a(1).").is_err());
    }

    #[test]
    fn seed_arity_is_checked() {
        let bad = "p(x,y) :- p(x,z), e(z,y). p(1).";
        assert!(matches!(
            Program::parse(bad),
            Err(RuleError::ArityMismatch { .. })
        ));
    }
}
