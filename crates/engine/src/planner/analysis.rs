//! [`Analysis`]: the paper's tests over a rule set, and the choice among
//! the plans their certificates license.
//!
//! This file owns **which plans are licensed and which one wins**: the
//! boundedness / separability short-circuits, and the cost competition
//! that asks `cost.rs` for each candidate's estimate. It builds plans only
//! through [`Plan`]'s certificate-gated constructors and never evaluates
//! one.

use super::cost::Estimator;
use super::{CostModel, Plan, PlanShape};
use crate::decision::{CandidateEstimate, DenseVerdict, PickedBy};
use crate::dense;
use crate::selection::Selection;
use linrec_core::{
    BoundednessCert, CommutativityCert, RedundancyCert, SeparabilityCert, POWER_SEARCH_BOUND,
};
use linrec_datalog::{Database, LinearRule, Relation};

/// The certificates the paper's analyses produced for one rule set (and
/// optional selection). Feed it to [`Analysis::plan_for`] to pick a
/// strategy, or inspect the individual certificates (e.g. `linrec analyze`).
#[derive(Debug, Clone)]
pub struct Analysis {
    rules: Vec<LinearRule>,
    selection: Option<Selection>,
    boundedness: Option<BoundednessCert>,
    commutativity: Option<CommutativityCert>,
    redundancy: Option<RedundancyCert>,
    /// `(outer, inner, cert)` candidates for the separable algorithm, in
    /// preference order; only populated when a selection is present.
    separability: Vec<(usize, usize, SeparabilityCert)>,
    notes: Vec<String>,
}

impl Analysis {
    /// Analyze `rules` under an optional selection. Power searches
    /// (uniform boundedness, redundancy) explore `Bⁿ` for
    /// `n ≤` [`POWER_SEARCH_BOUND`].
    pub fn of(rules: &[LinearRule], selection: Option<&Selection>) -> Analysis {
        let mut analysis = Analysis {
            rules: rules.to_vec(),
            selection: selection.cloned(),
            boundedness: None,
            commutativity: None,
            redundancy: None,
            separability: Vec::new(),
            notes: Vec::new(),
        };

        if rules.len() == 1 {
            match BoundednessCert::establish(&rules[0], POWER_SEARCH_BOUND) {
                Ok(cert) => analysis.boundedness = cert,
                Err(e) => analysis
                    .notes
                    .push(format!("boundedness search failed: {e}")),
            }
            if analysis.boundedness.is_none() {
                match RedundancyCert::establish_any(&rules[0], POWER_SEARCH_BOUND) {
                    Ok(cert) => analysis.redundancy = cert,
                    Err(e) => analysis
                        .notes
                        .push(format!("redundancy search failed: {e}")),
                }
            }
        }

        if rules.len() > 1 {
            match CommutativityCert::establish(rules) {
                Ok(cert) => analysis.commutativity = cert,
                Err(e) => analysis
                    .notes
                    .push(format!("commutativity analysis failed: {e}")),
            }
        }

        if let (Some(sel), 2) = (selection, rules.len()) {
            for (outer, inner) in [(0usize, 1usize), (1, 0)] {
                if !sel.commutes_with(&rules[outer]) {
                    continue;
                }
                match SeparabilityCert::establish(&rules[outer], &rules[inner]) {
                    Ok(Some(cert)) => analysis.separability.push((outer, inner, cert)),
                    Ok(None) => {}
                    Err(e) => analysis.notes.push(format!(
                        "separability analysis ({outer},{inner}) failed: {e}"
                    )),
                }
            }
        }

        analysis
    }

    /// The analyzed rules.
    pub fn rules(&self) -> &[LinearRule] {
        &self.rules
    }

    /// The selection the analysis was made for, if any.
    pub fn selection(&self) -> Option<&Selection> {
        self.selection.as_ref()
    }

    /// Uniform-boundedness certificate (single-rule sets only).
    pub fn boundedness(&self) -> Option<&BoundednessCert> {
        self.boundedness.as_ref()
    }

    /// Cluster-decomposition certificate (multi-rule sets only).
    pub fn commutativity(&self) -> Option<&CommutativityCert> {
        self.commutativity.as_ref()
    }

    /// Recursive-redundancy certificate (single-rule sets only).
    pub fn redundancy(&self) -> Option<&RedundancyCert> {
        self.redundancy.as_ref()
    }

    /// Separable-algorithm candidates `(outer, inner, cert)`.
    pub fn separability(&self) -> &[(usize, usize, SeparabilityCert)] {
        &self.separability
    }

    /// Diagnostics from analyses that errored (rather than merely failing
    /// to find a certificate).
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// True iff no specialized strategy is licensed.
    pub fn has_no_certificates(&self) -> bool {
        self.boundedness.is_none()
            && self.commutativity.is_none()
            && self.redundancy.is_none()
            && self.separability.is_empty()
    }

    /// The certificates that win without a competition, in the paper's
    /// order: a bounded recursion is exhausted in a provably minimal number
    /// of applications, and a separable pair absorbs the selection by
    /// construction.
    fn fixed_priority(&self) -> Option<Plan> {
        if let Some(cert) = &self.boundedness {
            return Some(self.wrap_selection(Plan::bounded_prefix(cert.clone())));
        }
        // Candidates were collected only for outers the selection commutes
        // with, so the constructor's premise check holds.
        let sel = self.selection.as_ref()?;
        let (_, _, cert) = self.separability.first()?;
        Plan::separable(cert.clone(), sel.clone()).ok()
    }

    /// Pick the cheapest licensed plan for a *concrete* database and seed,
    /// using the default [`CostModel`]: each licensed candidate is
    /// estimated from relation cardinalities and the minimum wins — so a
    /// certificate is used only when it is predicted to pay off on the
    /// data at hand.
    pub fn plan_for(&self, db: &Database, init: &Relation) -> Plan {
        self.plan_with(db, init, &CostModel::default())
    }

    /// [`Analysis::plan_for`] with an explicit cost model.
    ///
    /// The decision rule: a boundedness certificate always wins (provably
    /// minimal number of applications), and a licensed separable plan
    /// always wins for selection queries (selection push-down bounds the
    /// explored region by construction). Among the remaining licensed
    /// candidates — `Decomposed`, `RedundancyBounded`, and the always-legal
    /// `Direct` — the cheapest estimate is chosen, with `Direct` breaking
    /// ties (fewest phases, no certificate machinery).
    pub fn plan_with(&self, db: &Database, init: &Relation, model: &CostModel) -> Plan {
        let plan = match self.fixed_priority() {
            Some(plan) => plan.picked_by(PickedBy::FixedPriority),
            None => self.wrap_selection(self.cheapest(db, init, model)),
        };
        plan.with_dense_budget(model.dense_budget_bytes)
    }

    /// The cost-model competition behind [`Analysis::plan_with`].
    fn cheapest(&self, db: &Database, init: &Relation, model: &CostModel) -> Plan {
        // One shared estimator: the statistics map (row counts, per-column
        // distinct values) is computed once and reused by every candidate.
        let mut est = Estimator::new(model, db, init);
        let seed = init.len() as f64;
        let seed_doms = est.init_doms.clone();
        // `Direct` first: the strict `<` below lets the earliest candidate
        // keep a tie.
        let mut plans = vec![Plan::direct(self.rules.clone())];
        plans.extend(self.commutativity.iter().cloned().map(Plan::decomposed));
        plans.extend(
            self.redundancy
                .iter()
                .cloned()
                .map(Plan::redundancy_bounded),
        );
        let mut candidates: Vec<CandidateEstimate> = plans
            .iter()
            .map(|plan| CandidateEstimate {
                shape: plan.shape(),
                cost: est.node(&plan.node, seed, &seed_doms),
            })
            .collect();
        let mut winner = 0;
        for (i, c) in candidates.iter().enumerate() {
            if c.cost < candidates[winner].cost {
                winner = i;
            }
        }
        // Dense gate: a single composition-shaped rule whose closure fits
        // the bitset budget at useful density evaluates in ⌈log₂ diameter⌉
        // squarings instead of one delta round per path length — that
        // beats every sparse candidate above, so the gate pre-empts the
        // competition (whose estimates stay in the record). A decline is
        // recorded the same way, so `linrec check` can say why the plan
        // stayed sparse.
        let mut dense = None;
        if let [rule] = self.rules.as_slice() {
            if let Some(shape) = dense::composition_shape(rule) {
                let verdict = est.dense_verdict(rule, &shape, seed, &seed_doms);
                if let DenseVerdict::Chosen { cost, .. } = verdict {
                    winner = plans.len();
                    plans.push(Plan::dense_closure_of(rule.clone(), shape));
                    candidates.push(CandidateEstimate {
                        shape: PlanShape::DenseClosure,
                        cost,
                    });
                }
                dense = Some(verdict);
            }
        }
        let mut plan = plans.swap_remove(winner);
        let dec = plan.decision_mut();
        dec.picked_by = PickedBy::CostModel;
        dec.estimate = Some(candidates[winner].cost);
        dec.candidates = candidates;
        dec.dense = dense;
        plan
    }

    fn wrap_selection(&self, plan: Plan) -> Plan {
        match &self.selection {
            Some(sel) => Plan::select_after(plan, sel.clone()),
            None => plan,
        }
    }

    /// A human-readable certificate listing (used by `linrec analyze`).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let mut any = false;
        if let Some(c) = &self.boundedness {
            out.push_str(&format!("• boundedness: {}\n", c.rationale()));
            any = true;
        }
        if let Some(c) = &self.commutativity {
            out.push_str(&format!("• commutativity: {}\n", c.rationale()));
            any = true;
        }
        if let Some(c) = &self.redundancy {
            out.push_str(&format!("• redundancy: {}\n", c.rationale()));
            any = true;
        }
        for (outer, inner, c) in &self.separability {
            out.push_str(&format!(
                "• separability (outer rule {outer}, inner rule {inner}): {}\n",
                c.rationale()
            ));
            any = true;
        }
        if !any {
            out.push_str("• no certificates: only the baseline strategies are licensed\n");
        }
        for note in &self.notes {
            out.push_str(&format!("• note: {note}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::CertKind;
    use crate::rules;
    use linrec_datalog::{parse_linear_rule, Symbol, Value};
    use linrec_testkit as workload;

    fn updown() -> Vec<LinearRule> {
        vec![rules::down_rule(), rules::up_rule()]
    }

    #[test]
    fn analysis_licenses_decomposition_for_up_down() {
        let rules = updown();
        let analysis = Analysis::of(&rules, None);
        let (db, init) = workload::up_down(5, 3);
        let plan = analysis.plan_for(&db, &init);
        assert!(matches!(plan.shape(), PlanShape::Decomposed { .. }));
        let dec = plan.decision();
        assert_eq!(dec.winner, plan.shape());
        assert_eq!(dec.picked_by, PickedBy::CostModel);
        let cert = analysis.commutativity().unwrap();
        assert_eq!(
            dec.certificates,
            [(CertKind::Commutativity, cert.rationale().to_owned())]
        );

        let planned = plan.execute(&db, &init).unwrap();
        let direct = Plan::direct(rules).execute(&db, &init).unwrap();
        assert_eq!(planned.relation.sorted(), direct.relation.sorted());
        assert!(planned.stats.duplicates <= direct.stats.duplicates);
        assert_eq!(planned.trace.len(), 2); // one star per cluster
    }

    #[test]
    fn analysis_uses_separable_for_selected_queries() {
        let rules = updown();
        let sel = Selection::eq(1, (1i64 << 6) + 1);
        let analysis = Analysis::of(&rules, Some(&sel));
        let (db, init) = workload::up_down(5, 3);
        let plan = analysis.plan_for(&db, &init);
        assert_eq!(plan.shape(), PlanShape::Separable);
        assert_eq!(plan.decision().picked_by, PickedBy::FixedPriority);

        let fast = plan.execute(&db, &init).unwrap();
        let slow = Plan::select_after(Plan::direct(rules), sel)
            .execute(&db, &init)
            .unwrap();
        assert_eq!(fast.relation.sorted(), slow.relation.sorted());
    }

    #[test]
    fn analysis_detects_bounded_recursion() {
        let rule = parse_linear_rule("p(x,y) :- p(x,y), mark(x).").unwrap();
        let analysis = Analysis::of(std::slice::from_ref(&rule), None);
        let mut db = Database::new();
        db.set_relation("mark", Relation::from_tuples(1, [vec![Value::Int(1)]]));
        let init = Relation::from_pairs([(1, 5), (2, 6)]);
        let plan = analysis.plan_for(&db, &init);
        assert_eq!(plan.shape(), PlanShape::BoundedPrefix { applications: 1 });
        assert_eq!(plan.decision().picked_by, PickedBy::FixedPriority);

        let outcome = plan.execute(&db, &init).unwrap();
        assert_eq!(outcome.relation.len(), 2);
        assert!(outcome.stats.iterations <= 1);
    }

    #[test]
    fn analysis_licenses_redundancy_bounded_for_shopping() {
        let rule = rules::shopping_rule();
        let analysis = Analysis::of(std::slice::from_ref(&rule), None);
        let plan = Plan::redundancy_bounded(analysis.redundancy().unwrap().clone());
        assert_eq!(plan.shape(), PlanShape::RedundancyBounded);

        let (db, init) = workload::shopping(40, 10, 3, 5);
        let bounded = plan.execute(&db, &init).unwrap();
        let direct = Plan::direct(vec![rule]).execute(&db, &init).unwrap();
        assert_eq!(bounded.relation.sorted(), direct.relation.sorted());
    }

    #[test]
    fn certificate_less_rule_sets_fall_back_to_direct() {
        let rules = vec![
            parse_linear_rule("p(x,y) :- p(x,z), a(z,y).").unwrap(),
            parse_linear_rule("p(x,y) :- p(x,z), b(z,y).").unwrap(),
        ];
        let mut db = Database::new();
        db.set_relation("a", Relation::from_pairs([(1, 2)]));
        db.set_relation("b", Relation::from_pairs([(2, 3)]));
        let init = Relation::from_pairs([(0, 1)]);
        let analysis = Analysis::of(&rules, None);
        assert!(analysis.has_no_certificates());
        assert_eq!(analysis.plan_for(&db, &init).shape(), PlanShape::Direct);

        let sel = Selection::eq(0, 1);
        let analysis = Analysis::of(&rules, Some(&sel));
        assert_eq!(
            analysis.plan_for(&db, &init).shape(),
            PlanShape::SelectAfter(Box::new(PlanShape::Direct))
        );
    }

    #[test]
    fn empty_selection_analysis_on_single_rule() {
        // A single unbounded, irredundant rule: plain direct.
        let rule = rules::tc_right();
        let analysis = Analysis::of(std::slice::from_ref(&rule), None);
        assert!(analysis.has_no_certificates());
        let db = workload::graph_db("q", workload::chain(10));
        let init = Relation::from_pairs([(0, 1)]);
        let plan = analysis.plan_for(&db, &init);
        assert_eq!(plan.shape(), PlanShape::Direct, "{}", plan.decision());
        let outcome = plan.execute(&db, &init).unwrap();
        assert_eq!(outcome.relation.len(), 10);
    }

    #[test]
    fn cost_model_picks_direct_on_shopping() {
        // The PR 1 regression: RedundancyBounded does fewer derivations on
        // the shopping workload but loses wall-clock to Direct (many small
        // phases over small, dense relations). The cost model must side
        // with Direct here.
        let rules = vec![rules::shopping_rule()];
        let analysis = Analysis::of(&rules, None);
        let (db, init) = workload::shopping(100, 30, 4, 99);
        let plan = analysis.plan_for(&db, &init);
        assert_eq!(plan.shape(), PlanShape::Direct);
        let dec = plan.decision();
        assert_eq!(dec.picked_by, PickedBy::CostModel);
        let weighed: Vec<&str> = dec.candidates.iter().map(|c| c.shape.label()).collect();
        assert_eq!(weighed, ["Direct", "RedundancyBounded"]);
        assert_eq!(dec.estimate, Some(dec.candidates[0].cost));
        assert!(dec.certificates.is_empty(), "Direct leans on none");
        // Both evaluate to the same relation regardless of the choice.
        let a = plan.execute(&db, &init).unwrap();
        let bounded = Plan::redundancy_bounded(analysis.redundancy().unwrap().clone());
        let b = bounded.execute(&db, &init).unwrap();
        assert_eq!(a.relation.sorted(), b.relation.sorted());
    }

    #[test]
    fn cost_model_picks_dense_on_a_small_dense_chain() {
        // Full-chain seed over a 200-node domain: the closure fills half
        // of domain², far above the density cutover, and the working set
        // is a few KiB — the dense gate fires.
        let edges = workload::chain(200);
        let db = workload::graph_db("q", edges.clone());
        let analysis = Analysis::of(&[rules::tc_right()], None);
        let plan = analysis.plan_for(&db, &edges);
        let dec = plan.decision();
        assert_eq!(plan.shape(), PlanShape::DenseClosure, "{dec}");
        assert_eq!(dec.winner, PlanShape::DenseClosure);
        assert_eq!(dec.picked_by, PickedBy::CostModel);
        let Some(DenseVerdict::Chosen { edge, cost, .. }) = dec.dense else {
            panic!("dense gate must record Chosen: {dec}");
        };
        assert_eq!(edge, Symbol::new("q"));
        assert_eq!(dec.estimate, Some(cost));
        assert_eq!(
            dec.candidates.last().unwrap().shape,
            PlanShape::DenseClosure
        );
        assert_eq!(dec.certificates[0].0, CertKind::CompositionShape);

        // Same relation and honest (non-zero) derivation counters.
        let outcome = plan.execute(&db, &edges).unwrap();
        let direct = Plan::direct(vec![rules::tc_right()])
            .execute(&db, &edges)
            .unwrap();
        assert_eq!(outcome.relation.sorted(), direct.relation.sorted());
        assert_eq!(outcome.stats.tuples, 200 * 201 / 2);
        assert!(outcome.stats.derivations > 0);
        assert_eq!(outcome.trace.len(), 1);
        assert!(outcome.trace[0].label.contains("dense closure"));
    }

    #[test]
    fn cost_model_declines_dense_on_a_sparse_point_seed() {
        // A single-pair seed over a wide chain: the closure is one thin
        // row of domain² — density ~1/domain, below the cutover.
        let edges = workload::chain(3000);
        let db = workload::graph_db("q", edges);
        let init = Relation::from_pairs([(0, 1)]);
        let analysis = Analysis::of(&[rules::tc_right()], None);
        let plan = analysis.plan_for(&db, &init);
        let dec = plan.decision();
        assert_eq!(plan.shape(), PlanShape::Direct, "{dec}");
        let Some(DenseVerdict::TooSparse {
            density, cutover, ..
        }) = dec.dense
        else {
            panic!("dense gate must record TooSparse: {dec}");
        };
        assert!(density < cutover);
        assert_eq!(cutover, CostModel::default().dense_density_cutover);
    }

    #[test]
    fn cost_model_declines_dense_over_the_byte_budget() {
        let edges = workload::chain(500);
        let db = workload::graph_db("q", edges.clone());
        let model = CostModel {
            dense_budget_bytes: 1 << 10,
            ..CostModel::default()
        };
        let analysis = Analysis::of(&[rules::tc_right()], None);
        let plan = analysis.plan_with(&db, &edges, &model);
        let dec = plan.decision();
        assert_eq!(plan.shape(), PlanShape::Direct, "{dec}");
        let Some(DenseVerdict::OverBudget {
            working_set_bytes,
            budget_bytes,
        }) = dec.dense
        else {
            panic!("dense gate must record OverBudget: {dec}");
        };
        assert_eq!(budget_bytes, 1 << 10);
        assert!(working_set_bytes > budget_bytes as f64);
    }

    #[test]
    fn plan_with_threads_the_model_budget_into_the_plan() {
        // The declined plan stays sparse for its closure, but its
        // exact-power fast paths must still run under the *model's*
        // budget, not the module default.
        let edges = workload::chain(500);
        let db = workload::graph_db("q", edges.clone());
        let model = CostModel {
            dense_budget_bytes: 1 << 10,
            ..CostModel::default()
        };
        let analysis = Analysis::of(&[rules::tc_right()], None);
        let plan = analysis.plan_with(&db, &edges, &model);
        assert_eq!(plan.dense_budget_bytes, 1 << 10);
    }

    #[test]
    fn dense_plan_execution_matches_direct_on_a_grid() {
        let edges = workload::grid(20, 20);
        let db = workload::graph_db("q", edges.clone());
        let analysis = Analysis::of(&[rules::tc_right()], None);
        let plan = analysis.plan_for(&db, &edges);
        assert_eq!(plan.shape(), PlanShape::DenseClosure, "{}", plan.decision());
        let dense = plan.execute(&db, &edges).unwrap();
        let direct = Plan::direct(vec![rules::tc_right()])
            .execute(&db, &edges)
            .unwrap();
        assert_eq!(dense.relation.sorted(), direct.relation.sorted());
    }
}
