//! Running a plan: [`Plan::execute`] from scratch, [`Plan::resume`] from a
//! frontier.
//!
//! This file owns **how a star is evaluated**. `Exec::star` is the one
//! place a backend is chosen — dense squaring, sharded rounds or the
//! sequential driver, decided from the [`StarSpec`] and the frontier — and
//! the only caller of [`seminaive_resume`] and
//! [`dense::eval_composition`]. A new backend (a cached operator closure,
//! a dense resume, an unfolded rule) is a branch in that function. Nothing
//! here estimates: by the time a plan runs, the choice among plans is made.

use super::plan::{PlanNode, StarSpec};
use super::{Plan, StrategyError};
use crate::dense;
use crate::join::Indexes;
use crate::magic::MagicRewrite;
use crate::parallel::Parallelism;
use crate::selection::Selection;
use crate::seminaive::seminaive_resume;
use crate::stats::EvalStats;
use linrec_core::SeparabilityCert;
use linrec_datalog::{Database, Relation};
use linrec_obs::Span;

/// The result of [`Plan::execute`]: the relation, the paper's cost
/// counters, and one [`TraceStep`] per executed phase.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The computed relation (with any selection already applied).
    pub relation: Relation,
    /// Aggregated statistics across all phases.
    pub stats: EvalStats,
    /// Per-phase execution record, in execution order.
    pub trace: Vec<TraceStep>,
}

/// One executed phase of a plan.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// What ran (human-readable).
    pub label: String,
    /// That phase's statistics.
    pub stats: EvalStats,
    /// Wall time of the phase in ns (0 when instrumentation is off).
    pub nanos: u64,
}

impl Plan {
    /// Run the plan over `db` starting from `init`.
    ///
    /// One scan/index cache ([`Indexes`]) is shared across every phase of
    /// the plan tree — the database is immutable for the whole execution,
    /// so decomposed clusters and separable stars reuse the EDB scans and
    /// indexes the first phase built.
    pub fn execute(&self, db: &Database, init: &Relation) -> Result<ExecOutcome, StrategyError> {
        let mut trace = Vec::new();
        let mut exec = Exec {
            db,
            indexes: &mut Indexes::new(),
            par: &self.par,
            dense_budget_bytes: self.dense_budget_bytes,
            trace: Some(&mut trace),
        };
        let (relation, mut stats) = exec.run(&self.node, init)?;
        stats.tuples = relation.len();
        Ok(ExecOutcome {
            relation,
            stats,
            trace,
        })
    }

    /// [`Plan::execute`], additionally recording the run's actual
    /// [`EvalStats`] in the decision record next to the estimate, and
    /// journaling the pair. A repeated run replaces the previous actuals.
    pub fn execute_feedback(
        &mut self,
        db: &Database,
        init: &Relation,
    ) -> Result<ExecOutcome, StrategyError> {
        let outcome = self.execute(db, init)?;
        self.decision_mut().actual = Some(outcome.stats);
        // Estimate over actual derivations, ×1000 (1000 = the estimate
        // matched the derivation count). Observed on every feedback run,
        // so the histogram shows how far estimates sit from derivations
        // across all plans, not one; nothing feeds it back into the model.
        if linrec_obs::enabled() {
            let dec = self.decision();
            if let Some(ratio) = dec.ratio() {
                let permille = (ratio * 1000.0).clamp(0.0, u64::MAX as f64) as u64;
                linrec_obs::histogram!("linrec_engine_estimate_actual_permille").observe(permille);
            }
            let total_nanos: u64 = outcome.trace.iter().map(|t| t.nanos).sum();
            linrec_obs::journal::journal().record(
                "plan",
                &dec.view,
                dec.winner.label(),
                dec.estimate.unwrap_or(0.0),
                outcome.stats.derivations,
                total_nanos,
                dec.to_json(),
            );
        }
        Ok(outcome)
    }

    /// The incremental form of the plan: extend `total` in place to the
    /// plan's fixpoint, applying its stars only to the frontier `delta`
    /// and to what that derives, under the caller's `indexes` cache and
    /// `par` knob. Preconditions are [`seminaive_resume`]'s: `delta ⊆
    /// total`, and `total` closed under the rules except through `delta`.
    /// [`Plan::execute`] runs the same star list from `total = delta =
    /// init`.
    ///
    /// A plan resumes exactly when it is a product of stars: `Direct` and
    /// `DenseClosure` over the rule sum (always sound; a dense-planned view
    /// is maintained sparsely), `BoundedPrefix` under the certified round
    /// cap, `Decomposed` cluster by cluster.
    /// `Separable` and `SelectAfter` are not, and have no incremental
    /// form: `None`, with `total` untouched — the
    /// caller re-executes the plan.
    pub fn resume(
        &self,
        db: &Database,
        total: &mut Relation,
        delta: Relation,
        indexes: &mut Indexes,
        par: &Parallelism,
    ) -> Option<EvalStats> {
        let stars = self.node.lower().product()?;
        let mut exec = Exec {
            db,
            indexes,
            par,
            // Maintenance allocates no dense working set.
            dense_budget_bytes: 0,
            trace: None,
        };
        Some(exec.product(&stars, total, delta))
    }
}

/// One execution's context: what every star of a plan shares.
struct Exec<'a> {
    db: &'a Database,
    indexes: &'a mut Indexes,
    par: &'a Parallelism,
    /// Byte cap on a dense working set; `0` pins every backend sparse.
    dense_budget_bytes: usize,
    /// From scratch, the phase record being built; `None` in maintenance,
    /// where a phase is only its work and the batch's trace stays
    /// `view.maintain → engine.fixpoint`.
    trace: Option<&'a mut Vec<TraceStep>>,
}

impl Exec<'_> {
    /// Open a phase (a `plan.node` span) when this execution records them.
    fn begin(&self, node: &'static str) -> Option<Span> {
        self.trace.as_ref()?;
        let mut sp = linrec_obs::span("plan.node");
        sp.attr("node", node);
        sp.observe_into(linrec_obs::histogram!("linrec_engine_plan_node_ns"));
        Some(sp)
    }

    /// Close a phase: its span's duration is the [`TraceStep`]'s wall time
    /// and the `linrec_engine_plan_node_ns` sample (0 with instrumentation
    /// off).
    fn end(&mut self, phase: Option<Span>, label: String, stats: EvalStats) {
        let (Some(mut sp), Some(trace)) = (phase, self.trace.as_mut()) else {
            return;
        };
        sp.attr("label", &label);
        sp.attr("derivations", stats.derivations);
        sp.attr("tuples", stats.tuples);
        trace.push(TraceStep {
            label,
            stats,
            nanos: sp.end().unwrap_or(0),
        });
    }

    /// Extend `total` to the fixpoint of `spec`'s star from the frontier
    /// `delta` (⊆ `total`), on the backend the spec and the frontier
    /// allow. `collect` additionally receives every tuple the star adds to
    /// `total`.
    fn star(
        &mut self,
        spec: &StarSpec,
        total: &mut Relation,
        delta: Relation,
        collect: Option<&mut Relation>,
    ) -> EvalStats {
        let phase = spec.phase.as_ref().and_then(|(node, _)| self.begin(node));
        // Squaring computes the closure *of the frontier*, so it stands in
        // for the star only when the frontier is all of `total`.
        let budget = self.dense_budget_bytes;
        let dense = match spec.dense {
            Some(shape) if budget > 0 && delta.len() == total.len() => {
                dense::eval_composition(&shape, self.db, total, budget).map(|run| (shape, run))
            }
            _ => None,
        };
        let (stats, squared) = match dense {
            Some((shape, (closure, stats))) => {
                *total = closure;
                if let Some(collect) = collect {
                    collect.union_in_place(total);
                }
                (stats, Some(shape.edge))
            }
            None => {
                let seq = Parallelism::sequential();
                let par = if spec.shardable { self.par } else { &seq };
                let (closed, rules, cap) = (total.len(), &spec.rules, spec.round_cap);
                let stats = seminaive_resume(rules, self.db, total, delta, cap, self.indexes, par);
                // The driver only appends: the rows past the old length are
                // what it derived, in derivation order.
                if let Some(collect) = collect {
                    for row in closed..total.len() {
                        collect.insert(total.row(row));
                    }
                }
                (stats, None)
            }
        };
        if let Some((_, sparse_label)) = &spec.phase {
            let label = match squared {
                Some(edge) => format!("dense closure by squaring over '{edge}'"),
                None => sparse_label.clone(),
            };
            self.end(phase, label, stats);
        }
        stats
    }

    /// Apply `stars` in turn to the running `total`, starting from the
    /// frontier `delta`: from scratch (`total = delta = init`) the plan's
    /// value, from a true frontier its incremental form.
    fn product(&mut self, stars: &[StarSpec], total: &mut Relation, delta: Relation) -> EvalStats {
        let mut stats = EvalStats::default();
        if let Some((last, earlier)) = stars.split_last() {
            // Each star starts from everything derived since `total` was
            // last closed, so a later star sees the earlier stars'
            // consequences. From a true frontier the stars collect it;
            // from scratch the frontier is all of `total`, and `total`
            // itself is the record. The last star has no successor to
            // collect for and takes the frontier by value.
            let scratch = delta.len() == total.len();
            let mut frontier = delta;
            for spec in earlier {
                let start = if scratch { &*total } else { &frontier }.clone();
                stats += self.star(spec, total, start, (!scratch).then_some(&mut frontier));
            }
            if scratch && !earlier.is_empty() {
                frontier = total.clone();
            }
            stats += self.star(last, total, frontier, None);
        }
        stats.tuples = total.len();
        stats
    }

    /// The from-scratch value of `node` over `init`.
    fn run(
        &mut self,
        node: &PlanNode,
        init: &Relation,
    ) -> Result<(Relation, EvalStats), StrategyError> {
        match node {
            PlanNode::Separable { cert, sel } => {
                self.separable(cert, sel, &node.lower().stars, init)
            }
            PlanNode::SelectAfter { inner, sel } => {
                let (rel, mut stats) = self.run(inner, init)?;
                let phase = self.begin("select-after");
                let out = sel.apply(&rel);
                stats.tuples = out.len();
                let selected = EvalStats {
                    tuples: out.len(),
                    ..EvalStats::default()
                };
                self.end(phase, format!("selection σ {:?}", sel.bindings()), selected);
                Ok((out, stats))
            }
            // Every other shape is the product of its stars.
            _ => {
                let mut total = init.clone();
                let stats = self.product(&node.lower().stars, &mut total, init.clone());
                Ok((total, stats))
            }
        }
    }

    /// The separable algorithm (Algorithm 4.1): `outer* (σ inner*)`,
    /// pushing the selection into `inner`'s parameter relations when the
    /// binding closure allows it.
    fn separable(
        &mut self,
        cert: &SeparabilityCert,
        sel: &Selection,
        stars: &[StarSpec],
        init: &Relation,
    ) -> Result<(Relation, EvalStats), StrategyError> {
        let (inner, outer) = (&stars[0], &stars[1]);
        // Re-checked so a cloned-and-mutated selection cannot sneak past the
        // constructor check (construction already guarantees it for planner
        // paths).
        if !sel.commutes_with(cert.outer()) {
            return Err(StrategyError::SelectionDoesNotCommute);
        }
        let (mut result, mut stats) = if let Some(magic) = MagicRewrite::of(cert.inner(), sel) {
            // The magic star runs over `db`, the guarded inner star over
            // `db` plus `·mag`: both on this execution's backend, cache and
            // knob.
            let phase = self.begin("separable-inner-magic");
            let (rel, s) = magic.eval(self.db, init, sel, |rule, db, seed| {
                let mut exec = Exec {
                    db,
                    indexes: &mut *self.indexes,
                    par: self.par,
                    dense_budget_bytes: self.dense_budget_bytes,
                    trace: None,
                };
                let mut total = seed.clone();
                let stats = exec.star(&StarSpec::over(vec![rule.clone()]), &mut total, seed, None);
                (total, stats)
            });
            let label = "σ-pushed inner star (magic frontier)";
            self.end(phase, label.to_owned(), s);
            (rel, s)
        } else {
            let phase = self.begin("separable-inner");
            let mut full = init.clone();
            let mut s = self.star(inner, &mut full, init.clone(), None);
            let rel = sel.apply(&full);
            s.tuples = rel.len();
            let label = "inner star, then σ (push-down not applicable)";
            self.end(phase, label.to_owned(), s);
            (rel, s)
        };
        let selected = result.clone();
        stats += self.star(outer, &mut result, selected, None);
        // σ commutes with `outer`, so the result is already σ-selected; apply
        // once more for belt and braces (cheap, and keeps the contract obvious).
        let out = sel.apply(&result);
        stats.tuples = out.len();
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Analysis, PlanShape};
    use super::*;
    use crate::rules;
    use linrec_datalog::{parse_linear_rule, LinearRule, Value};
    use linrec_testkit as workload;

    #[test]
    fn outcome_trace_and_describe_are_informative() {
        let rule = parse_linear_rule("p(x,y) :- p(x,y), mark(x).").unwrap();
        let cert = Analysis::of(&[rule], None).boundedness().unwrap().clone();
        let plan = Plan::select_after(Plan::bounded_prefix(cert), Selection::eq(0, 1));
        let text = plan.describe();
        assert!(text.contains("SelectAfter"));
        assert!(text.contains("BoundedPrefix"));
        assert!(text.contains("rationale"));

        let mut db = Database::new();
        db.set_relation("mark", Relation::from_tuples(1, [vec![Value::Int(1)]]));
        let init = Relation::from_pairs([(1, 5), (1, 6), (2, 7)]);
        let outcome = plan.execute(&db, &init).unwrap();
        let labels: Vec<&str> = outcome.trace.iter().map(|t| t.label.as_str()).collect();
        assert_eq!(labels.len(), 2, "{labels:?}");
        assert!(labels[0].starts_with("bounded prefix"), "{labels:?}");
        assert!(labels[1].starts_with("selection"), "{labels:?}");
        assert_eq!(outcome.relation.len(), 2);
        assert_eq!(outcome.stats.tuples, outcome.relation.len());
    }

    #[test]
    fn execute_feedback_attaches_actuals_to_the_estimate() {
        let rules = vec![rules::shopping_rule()];
        let analysis = Analysis::of(&rules, None);
        let (db, init) = workload::shopping(100, 30, 4, 99);
        let mut plan = analysis.plan_for(&db, &init);
        let est = plan
            .decision()
            .estimate
            .expect("plan_for records an estimate");
        assert!(est.is_finite() && est > 0.0);
        assert_eq!(plan.decision().actual, None);
        assert_eq!(plan.decision().ratio(), None);

        let outcome = plan.execute_feedback(&db, &init).unwrap();
        let dec = plan.decision();
        assert_eq!(dec.actual, Some(outcome.stats));
        assert_eq!(dec.estimate, Some(est), "feedback keeps the estimate");
        assert_eq!(
            dec.ratio(),
            Some(est / outcome.stats.derivations.max(1) as f64)
        );
        assert!(plan.describe().contains(&dec.to_string()));
        // The per-run record is replaced, not accumulated.
        let again = plan.execute_feedback(&db, &init).unwrap();
        assert_eq!(plan.decision().actual, Some(again.stats));
    }

    #[test]
    fn dense_closure_falls_back_to_sparse_when_the_runtime_domain_overflows() {
        // Constructed with a budget no real domain fits: execution must
        // take the semi-naive fallback and still be correct.
        let edges = workload::chain(50);
        let db = workload::graph_db("q", edges.clone());
        let plan = Plan::dense_closure(rules::tc_right(), 8).unwrap();
        let outcome = plan.execute(&db, &edges).unwrap();
        assert_eq!(outcome.relation.len(), 50 * 51 / 2);
        assert!(
            outcome.trace[0]
                .label
                .contains("sparse semi-naive fallback"),
            "{}",
            outcome.trace[0].label
        );
    }

    #[test]
    fn dense_feedback_keeps_the_estimate_actual_ratio_sane() {
        // The dense path reports popcount-derived derivation counts, so
        // the estimate/actual ratio stays within a small factor instead of
        // dividing by zero-ish actuals.
        let edges = workload::chain(300);
        let db = workload::graph_db("q", edges.clone());
        let analysis = Analysis::of(&[rules::tc_right()], None);
        let mut plan = analysis.plan_for(&db, &edges);
        assert_eq!(plan.shape(), PlanShape::DenseClosure);
        let outcome = plan.execute_feedback(&db, &edges).unwrap();
        let ratio = plan.decision().ratio().expect("estimate and actual");
        assert!(
            (0.05..20.0).contains(&ratio),
            "actual {} (ratio {ratio:.3}): {}",
            outcome.stats.derivations,
            plan.decision()
        );
    }

    fn tc_rule() -> LinearRule {
        parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()
    }

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        db.set_relation("e", (0..n).map(|i| (i, i + 1)).collect::<Relation>());
        db
    }

    #[test]
    fn collect_receives_exactly_what_the_star_derived() {
        // Sequentially and sharded: the collector ends holding what the
        // star added to `total`, and nothing else.
        let star = StarSpec::over(vec![tc_rule()]);
        let db = chain_db(6);
        for par in [
            Parallelism::sequential(),
            Parallelism::new(3).with_min_delta(1),
        ] {
            let mut exec = Exec {
                db: &db,
                indexes: &mut Indexes::new(),
                par: &par,
                dense_budget_bytes: 0,
                trace: None,
            };
            let mut total = Relation::from_pairs([(0, 1)]);
            let before = total.clone();
            let mut collected = Relation::new(2);
            let stats = exec.star(&star, &mut total, before.clone(), Some(&mut collected));
            assert_eq!(total.len(), 6, "(0,1)…(0,6)");
            assert_eq!(stats.tuples, 6);
            assert_eq!(collected.sorted(), total.difference(&before).sorted());
        }
    }
}
