//! Pass 3 — plan lints.
//!
//! Given an [`Analysis`] and the [`Plan`] actually chosen, flag licensed
//! opportunities the plan left on the table:
//!
//! * `P201` — the plan filters *after* the fixpoint (`SelectAfter`)
//!   although a separability certificate plus a commuting selection
//!   license pushing the selection into the inner star
//!   (`σ(A₁+A₂)* = A₁*(σA₂*)`, Theorem 4.1);
//! * `P202` — the cost model kept `Direct` although a commutativity
//!   certificate — or the dense composition shape — licenses a stronger
//!   strategy; advisory only (the model may well be right on this
//!   data: a dense decline means the budget/density rule said so, and the
//!   note quotes the plan's rendered decision record).

use crate::diagnostic::{Code, Diagnostic, Span};
use linrec_engine::{composition_shape, Analysis, Plan, PlanShape};

/// Run the plan lints for `plan` as chosen for `analysis`.
pub fn plan_lints(analysis: &Analysis, plan: &Plan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let shape = plan.shape();

    if let PlanShape::SelectAfter(inner) = &shape {
        let pushable = match (analysis.selection(), analysis.separability().first()) {
            (Some(sel), Some((_, _, cert))) => sel.commutes_with(cert.outer()),
            _ => false,
        };
        // A bounded prefix does provably minimal work, so filtering its
        // result is not a miss; every other inner shape explores the full
        // fixpoint the pushed plan would have restricted.
        let inner_minimal = matches!(**inner, PlanShape::BoundedPrefix { .. });
        if pushable && !inner_minimal {
            out.push(
                Diagnostic::new(
                    Code::MissedPushdown,
                    Span::none(),
                    "the selection is applied after the full fixpoint, but a separability \
                     certificate licenses pushing it into the inner star (Theorem 4.1)",
                )
                .with_help(
                    "construct the plan via Analysis::plan_for, which picks the separable form \
                     whenever the selection commutes",
                ),
            );
        }
    }

    let core = match &shape {
        PlanShape::SelectAfter(inner) => (**inner).clone(),
        s => s.clone(),
    };
    if core == PlanShape::Direct {
        let mut licensed: Vec<&str> = Vec::new();
        if analysis.commutativity().is_some() {
            licensed.push("Decomposed");
        }
        if let [rule] = analysis.rules() {
            if composition_shape(rule).is_some() {
                licensed.push("DenseClosure");
            }
        }
        if !licensed.is_empty() {
            out.push(
                Diagnostic::new(
                    Code::CostSkippedCertificate,
                    Span::none(),
                    format!(
                        "certificates license {} but the plan runs Direct",
                        licensed.join(" and "),
                    ),
                )
                .with_help(format!("the plan's decision: {}", plan.decision())),
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrec_datalog::{parse_linear_rule, Database, Relation};
    use linrec_engine::Selection;

    #[test]
    fn pushed_selection_is_clean_and_late_selection_flagged() {
        let rules = vec![
            parse_linear_rule("p(x,y) :- p(x,z), q(z,y).").unwrap(),
            parse_linear_rule("p(x,y) :- p(w,y), q(x,w).").unwrap(),
        ];
        let sel = Selection::eq(0, 1i64);
        let analysis = Analysis::of(&rules, Some(&sel));
        assert!(
            !analysis.separability().is_empty(),
            "up/down with a commuting selection is separable"
        );

        // The planner's pick pushes the selection: clean.
        let good = analysis.plan_for(&Database::new(), &Relation::new(2));
        assert_eq!(good.shape(), PlanShape::Separable);
        assert!(plan_lints(&analysis, &good).is_empty());

        // A hand-built select-after plan leaves the pushdown on the table.
        let late = Plan::select_after(Plan::direct(rules), sel);
        let d = plan_lints(&analysis, &late);
        assert!(d.iter().any(|d| d.code == Code::MissedPushdown), "{d:?}");
    }

    #[test]
    fn a_redundancy_certificate_alone_draws_no_p202() {
        // The certificate is reported (C104, `linrec analyze`) but
        // licenses no plan, so Direct leaves nothing on the table.
        let rules = vec![linrec_engine::rules::shopping_rule()];
        let analysis = Analysis::of(&rules, None);
        assert!(analysis.redundancy().is_some());
        let (db, init) = linrec_testkit::shopping(100, 30, 4, 99);
        let plan = analysis.plan_for(&db, &init);
        assert_eq!(plan.shape(), PlanShape::Direct);
        let d = plan_lints(&analysis, &plan);
        assert!(
            d.iter().all(|d| d.code != Code::CostSkippedCertificate),
            "{d:?}"
        );
    }

    #[test]
    fn direct_over_a_composition_shape_quotes_the_dense_decline() {
        use linrec_engine::DenseVerdict;
        use linrec_testkit as workload;
        // Point seed over a wide chain: the planner declines dense on
        // density grounds and stays Direct — P202 flags the licensed
        // DenseClosure, and its help quotes the rendered decision.
        let rules = vec![parse_linear_rule("p(x,y) :- p(x,z), q(z,y).").unwrap()];
        let analysis = Analysis::of(&rules, None);
        let edges = workload::chain(3000);
        let db = workload::graph_db("q", edges);
        let init = Relation::from_pairs([(0, 1)]);
        let plan = analysis.plan_for(&db, &init);
        assert_eq!(plan.shape(), PlanShape::Direct);
        assert!(matches!(
            plan.decision().dense,
            Some(DenseVerdict::TooSparse { .. })
        ));
        let d = plan_lints(&analysis, &plan);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, Code::CostSkippedCertificate);
        assert!(d[0].message.contains("DenseClosure"), "{}", d[0].message);
        let help = d[0].help.as_deref().unwrap_or_default();
        assert!(help.ends_with(&plan.decision().to_string()), "{help}");
    }

    #[test]
    fn a_chosen_dense_plan_is_clean() {
        use linrec_testkit as workload;
        let rules = vec![parse_linear_rule("p(x,y) :- p(x,z), q(z,y).").unwrap()];
        let analysis = Analysis::of(&rules, None);
        let edges = workload::chain(100);
        let db = workload::graph_db("q", edges.clone());
        let plan = analysis.plan_for(&db, &edges);
        assert_eq!(plan.shape(), PlanShape::DenseClosure);
        assert!(plan_lints(&analysis, &plan).is_empty());
    }

    #[test]
    fn direct_over_licensed_decomposition_is_advisory() {
        let rules = vec![
            parse_linear_rule("p(x,y) :- p(x,z), q(z,y).").unwrap(),
            parse_linear_rule("p(x,y) :- p(w,y), q(x,w).").unwrap(),
        ];
        let analysis = Analysis::of(&rules, None);
        assert!(analysis.commutativity().is_some());
        let direct = Plan::direct(rules);
        let d = plan_lints(&analysis, &direct);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, Code::CostSkippedCertificate);
        assert_eq!(d[0].severity, crate::diagnostic::Severity::Info);
    }
}
