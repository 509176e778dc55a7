//! Helpers shared by the property suites that need the engine. The input
//! generators live in `linrec-testkit`, so one case number names the same
//! program everywhere.

use linrec::prelude::*;

/// Every plan `analysis` licenses: `Plan::direct`, one plan per
/// certificate it carries, `select_after` around each shape that does not
/// absorb the selection, and — marked `true` — the planner's pick for
/// `db` and `init`.
pub fn licensed_plans(analysis: &Analysis, db: &Database, init: &Relation) -> Vec<(Plan, bool)> {
    let mut plans = vec![Plan::direct(analysis.rules())];
    plans.extend(analysis.boundedness().cloned().map(Plan::bounded_prefix));
    plans.extend(analysis.commutativity().cloned().map(Plan::decomposed));
    plans.extend(analysis.redundancy().cloned().map(Plan::redundancy_bounded));
    if let Some(sel) = analysis.selection() {
        plans = plans
            .into_iter()
            .map(|plan| Plan::select_after(plan, sel.clone()))
            .collect();
        for (_, _, cert) in analysis.separability() {
            plans.push(Plan::separable(cert.clone(), sel.clone()).expect("σ commutes with outer"));
        }
    }
    let mut plans: Vec<(Plan, bool)> = plans.into_iter().map(|plan| (plan, false)).collect();
    plans.push((analysis.plan_for(db, init), true));
    plans
}
