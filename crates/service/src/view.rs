//! Materialized recursive views and their delta maintenance.
//!
//! # The delta-maintenance rule
//!
//! A view is `V = A*(seed)` for a linear rule set `A = Σᵢ Aᵢ` over the
//! current EDB. An **insert-only** batch turns the EDB `E` into
//! `E ∪ ΔE` (operator `A'`) and the seed into `seed ∪ Δseed`. Because
//! linear operators distribute over union, the new view satisfies
//!
//! ```text
//! V' = A'*(seed')  =  A'*(V ∪ Δ₀)
//! ```
//!
//! for any `Δ₀` with `Δseed ⊆ Δ₀` and `A'(V) ⊆ V ∪ Δ₀` — a monotone
//! sandwich: `seed' ⊆ V ∪ Δ₀ ⊆ V'`. The maintenance step therefore:
//!
//! 1. **seeds the delta**: `Δ₀` is the new seed tuples plus, for every
//!    rule and every body atom over a changed predicate, the rule applied
//!    to `V` with that one atom restricted to the predicate's delta (the
//!    discrete derivative of the join; `A(V) ⊆ V` covers the all-old
//!    term, so only the at-least-one-delta terms are enumerated);
//! 2. **resumes the fixpoint** from `total = V ∪ Δ₀` with frontier `Δ₀`
//!    ([`Plan::resume`]), re-deriving nothing that is reachable only from
//!    the unchanged region.
//!
//! Materialization is this rule from the empty view: with `V = ∅` the
//! frontier `Δ₀` is the whole seed, and `A*(∅ ∪ seed)` is what
//! [`Plan::execute`] computes — by the same star list `Plan::resume`
//! runs, entered with `total = delta = seed`. Both end in the engine's one
//! semi-naive driver ([`linrec_engine::seminaive::seminaive_resume`]).
//!
//! # What the certificates license
//!
//! The shape of the resumed fixpoint is the view's certificate-backed
//! [`Plan`] resuming itself — the rule sum, a certified round cap, or one
//! resume per commuting cluster; [`Plan::resume`] lists the forms, and
//! [`MaintenanceMode`] is the label of the one in use, in reports and in
//! the decision record. A plan with no incremental form (`Separable`,
//! `SelectAfter`) **falls back to a full recompute** through the plan,
//! which is always safe.
//!
//! The plan is picked once, at registration, by [`CostModel::default`].
//! Nothing re-plans a view or rescales the model afterwards: the
//! service's drift sentinel only reports when estimates and actual
//! derivations part ways.

use linrec_datalog::hash::FastMap;
use linrec_datalog::{Atom, Database, LinearRule, Relation, Rule, Symbol};
pub use linrec_engine::MaintenanceMode;
use linrec_engine::{
    apply_flat, Analysis, CostModel, EvalStats, Indexes, Parallelism, Plan, StrategyError,
};
use std::sync::Arc;

/// Marker prefix of the scratch predicates that carry per-batch EDB deltas
/// (and the view's own previous state) through the join machinery. User
/// predicates must not start with it.
pub const DELTA_MARKER: &str = "Δ·";

fn delta_sym(pred: Symbol) -> Symbol {
    Symbol::new(&format!("{DELTA_MARKER}{pred}"))
}

fn view_sym(name: &str) -> Symbol {
    Symbol::new(&format!("{DELTA_MARKER}view·{name}"))
}

/// Definition of a materialized view: a name, the linear rules, and the
/// EDB predicate whose relation seeds the recursion.
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// Name the view is served under.
    pub name: String,
    /// The linear rules (one recursive predicate, consequents aligned —
    /// e.g. the rules of a parsed [`linrec_engine::Program`]).
    pub rules: Vec<LinearRule>,
    /// EDB predicate whose relation is the recursion's seed. Inserts into
    /// it flow into the view like any other delta.
    pub seed: Symbol,
}

/// One precomputed delta rewrite: the original rule's body with exactly
/// one atom renamed to the delta predicate of `pred` — and reordered so
/// that the (tiny) delta atom is the join's **outer** side while the
/// recursive atom probes the materialized view through an index, rather
/// than scanning all of `V` per rule. Stored as a flat [`Rule`] because
/// the view atom is resolved like any other scratch relation.
struct DeltaRule {
    pred: Symbol,
    rule: Rule,
}

/// Result of maintaining one view under one batch.
pub struct MaintenanceOutcome {
    /// The maintained relation (`None` when the batch did not change the
    /// view — the caller keeps serving the previous relation unchanged).
    pub relation: Option<Relation>,
    /// Evaluation statistics of the maintenance work itself.
    pub stats: EvalStats,
    /// Which maintenance form ran (`MaintenanceMode::label`, or
    /// `"recompute"` for the fallback).
    pub mode: &'static str,
}

/// A registered view: its definition, certificate-backed plan,
/// precomputed delta rewrites, and the scan/index cache that persists
/// across maintenance batches.
pub struct MaintainedView {
    def: ViewDef,
    plan: Plan,
    delta_rules: Vec<DeltaRule>,
    /// Scan/index cache shared across batches: relations untouched by a
    /// batch keep their scans and indexes; mutated ones are revalidated by
    /// content version and rebuilt (see `linrec_engine::join`).
    indexes: Indexes,
    /// The caller's ungated knob, for the resumed fixpoint's rounds (the
    /// plan carries its own cost-model-gated copy for materialization and
    /// recompute). Batch deltas are usually tiny, so most maintenance
    /// rounds stay under the knob's cutover and run sequentially; a large
    /// backfill batch engages the shared pool.
    par: Parallelism,
}

impl MaintainedView {
    /// Analyze `def`'s rules against the given database and pick the
    /// cost-model-ranked plan. Fails when
    /// the seed relation exists at a different arity than the rules.
    /// Maintenance and recompute run sequentially; see
    /// [`MaintainedView::register_with_parallelism`].
    pub fn register(def: ViewDef, db: &Database) -> Result<MaintainedView, StrategyError> {
        MaintainedView::register_with_parallelism(def, db, Parallelism::sequential())
    }

    /// [`MaintainedView::register`] with a [`Parallelism`] knob: the
    /// materialization/recompute plan is offered parallel rounds (cost
    /// model gated, verdict recorded in the plan's decision), and every
    /// incremental resume runs through the same knob. The plan is picked
    /// by [`CostModel::default`], and its decision record is stamped with
    /// the view's name and derived maintenance mode.
    pub fn register_with_parallelism(
        def: ViewDef,
        db: &Database,
        par: Parallelism,
    ) -> Result<MaintainedView, StrategyError> {
        let arity = def
            .rules
            .first()
            .map(|r| r.arity())
            .ok_or_else(|| StrategyError::MissingCertificate("view has no rules".into()))?;
        if let Some(rel) = db.relation(def.seed) {
            if rel.arity() != arity {
                return Err(StrategyError::MissingCertificate(format!(
                    "seed {} has arity {}, rules have arity {arity}",
                    def.seed,
                    rel.arity()
                )));
            }
        }
        let seed = db.relation_or_empty(def.seed, arity);
        let mut plan = Analysis::of(&def.rules, None)
            .plan_for(db, &seed)
            .parallelize(&par, &CostModel::default(), db, &seed);
        let mode = MaintenanceMode::of(&plan);
        let dec = plan.decision_mut();
        dec.view = def.name.clone();
        dec.maintenance_mode = Some(mode);
        let vsym = view_sym(&def.name);
        let mut delta_rules = Vec::new();
        for rule in &def.rules {
            for (j, atom) in rule.nonrec_atoms().iter().enumerate() {
                let mut body = vec![Atom::new(delta_sym(atom.pred), atom.terms.clone())];
                body.push(Atom::new(vsym, rule.rec_atom().terms.clone()));
                for (k, other) in rule.nonrec_atoms().iter().enumerate() {
                    if k != j {
                        body.push(other.clone());
                    }
                }
                delta_rules.push(DeltaRule {
                    pred: atom.pred,
                    rule: Rule::new(rule.head().clone(), body),
                });
            }
        }
        Ok(MaintainedView {
            def,
            plan,
            delta_rules,
            indexes: Indexes::new(),
            par,
        })
    }

    /// The view's definition.
    pub fn def(&self) -> &ViewDef {
        &self.def
    }

    /// The certificate-backed plan maintenance is derived from.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Swap in a hand-built plan, e.g. one with no incremental form.
    #[cfg(test)]
    pub(crate) fn replace_plan(&mut self, plan: Plan) {
        self.plan = plan;
    }

    /// The label of the plan's incremental form (`Recompute` when
    /// [`Plan::resume`] has none).
    pub fn mode(&self) -> MaintenanceMode {
        MaintenanceMode::of(&self.plan)
    }

    /// Materialize the view from scratch on `db` (registration, or the
    /// recompute fallback). Records actual-vs-estimate feedback on the
    /// plan.
    pub fn materialize(&mut self, db: &Database) -> Result<(Relation, EvalStats), StrategyError> {
        let arity = self.def.rules[0].arity();
        let seed = db.relation_or_empty(self.def.seed, arity);
        let outcome = self.plan.execute_feedback(db, &seed)?;
        Ok((outcome.relation, outcome.stats))
    }

    /// Maintain the view under one insert-only batch: `old` is the
    /// materialized relation for the EDB *before* the batch, `db` the
    /// database *after* it, and `deltas` the actually-new tuples per
    /// mutated predicate.
    pub fn maintain(
        &mut self,
        old: &Arc<Relation>,
        db: &Database,
        deltas: &FastMap<Symbol, Arc<Relation>>,
    ) -> Result<MaintenanceOutcome, StrategyError> {
        let mode = self.mode();
        // Asked before seeding: Δ₀ is taken against `V`, and a view whose
        // plan selects after the star is not closed under the rules, so an
        // empty Δ₀ would prove nothing about it.
        let resumed = if mode == MaintenanceMode::Recompute {
            None
        } else {
            self.resume(old, db, deltas)
        };
        let (relation, stats, mode) = match resumed {
            Some((relation, stats)) => (relation, stats, mode),
            None => {
                let (relation, stats) = self.materialize(db)?;
                (Some(relation), stats, MaintenanceMode::Recompute)
            }
        };
        Ok(MaintenanceOutcome {
            relation,
            stats,
            mode: mode.label(),
        })
    }

    /// The maintenance rule of the module docs: seed `Δ₀`, then let the
    /// plan resume itself from `V ∪ Δ₀`. The relation is `None` when `Δ₀`
    /// is empty (the view is unchanged); the whole result is `None` when
    /// the plan has no incremental form.
    fn resume(
        &mut self,
        old: &Arc<Relation>,
        db: &Database,
        deltas: &FastMap<Symbol, Arc<Relation>>,
    ) -> Option<(Option<Relation>, EvalStats)> {
        // New seed tuples, plus every rule application through at least
        // one changed EDB tuple. The view itself joins as a scratch
        // relation (shared, zero-copy) so the tiny delta drives the join
        // and `V` is only probed.
        let mut stats = EvalStats::default();
        let mut fresh = Relation::new(old.arity());
        if let Some(dseed) = deltas.get(&self.def.seed) {
            fresh.insert_unseen(dseed.iter(), old);
        }
        let mut scratch = db.snapshot();
        scratch.set_relation_arc(view_sym(&self.def.name), Arc::clone(old));
        for (&pred, delta) in deltas.iter() {
            scratch.set_relation_arc(delta_sym(pred), Arc::clone(delta));
        }
        for dr in &self.delta_rules {
            if !deltas.contains_key(&dr.pred) {
                continue;
            }
            let (derived, count) = apply_flat(&dr.rule, &scratch, &mut self.indexes);
            stats.record(count, fresh.insert_unseen(derived.iter(), old));
        }
        if fresh.is_empty() {
            stats.tuples = old.len();
            return Some((None, stats));
        }

        let mut total = Relation::clone(old);
        total.union_in_place(&fresh);
        stats += self
            .plan
            .resume(&scratch, &mut total, fresh, &mut self.indexes, &self.par)?;
        stats.tuples = total.len();
        Some((Some(total), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrec_datalog::{parse_linear_rule, Value};
    use linrec_engine::{seminaive_star, PlanShape, Selection};

    fn scratch_view(rules: &[LinearRule], db: &Database, seed: Symbol) -> Relation {
        let arity = rules[0].arity();
        let init = db.relation_or_empty(seed, arity);
        seminaive_star(rules, db, &init).0
    }

    fn apply(db: &mut Database, inserts: &[(&str, (i64, i64))]) -> FastMap<Symbol, Arc<Relation>> {
        let mut deltas: FastMap<Symbol, Relation> = FastMap::default();
        for &(pred, (a, b)) in inserts {
            let tuple = vec![Value::Int(a), Value::Int(b)];
            if db.insert_tuple(Symbol::new(pred), &tuple) {
                deltas
                    .entry(Symbol::new(pred))
                    .or_insert_with(|| Relation::new(2))
                    .insert(&tuple);
            }
        }
        deltas.into_iter().map(|(p, r)| (p, Arc::new(r))).collect()
    }

    #[test]
    fn incremental_tc_matches_from_scratch_across_batches() {
        let rules = vec![parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()];
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(0, 1), (1, 2), (2, 3)]));
        let def = ViewDef {
            name: "tc".into(),
            rules: rules.clone(),
            seed: Symbol::new("e"),
        };
        let mut view = MaintainedView::register(def, &db).unwrap();
        assert_eq!(view.mode(), MaintenanceMode::Incremental);
        let (materialized, _) = view.materialize(&db).unwrap();
        let mut current = Arc::new(materialized);
        for batch in [
            vec![("e", (3, 4)), ("e", (1, 5))],
            vec![("e", (5, 0))], // closes a cycle
            vec![("e", (3, 4))], // pure duplicate
        ] {
            let deltas = apply(&mut db, &batch);
            let outcome = view.maintain(&current, &db, &deltas).unwrap();
            if let Some(next) = outcome.relation {
                current = Arc::new(next);
            } else {
                assert!(deltas.is_empty() || batch == [("e", (3, 4))]);
            }
            assert_eq!(
                current.sorted(),
                scratch_view(&rules, &db, Symbol::new("e")).sorted(),
                "maintenance diverged after batch {batch:?}"
            );
        }
    }

    #[test]
    fn dense_planned_view_materializes_and_maintains_like_scratch() {
        // A chain seed dense enough for the cost model's dense gate: the
        // registered plan goes through the bitset closure with zero flags,
        // and delta maintenance resumes sparsely over the same fixpoint.
        let rules = vec![parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()];
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs((0..100).map(|i| (i, i + 1))));
        let def = ViewDef {
            name: "tc-dense".into(),
            rules: rules.clone(),
            seed: Symbol::new("e"),
        };
        let mut view = MaintainedView::register(def, &db).unwrap();
        let dec = view.plan().decision();
        assert_eq!(dec.winner, PlanShape::DenseClosure, "{dec}");
        assert_eq!(dec.view, "tc-dense");
        assert_eq!(dec.maintenance_mode, Some(MaintenanceMode::Incremental));
        assert_eq!(view.mode(), MaintenanceMode::Incremental);
        let (materialized, stats) = view.materialize(&db).unwrap();
        assert_eq!(
            materialized.sorted(),
            scratch_view(&rules, &db, Symbol::new("e")).sorted()
        );
        assert!(stats.derivations > 0, "dense stats must not read zero");
        let mut current = Arc::new(materialized);
        for batch in [vec![("e", (100, 101))], vec![("e", (101, 0))]] {
            let deltas = apply(&mut db, &batch);
            let outcome = view.maintain(&current, &db, &deltas).unwrap();
            if let Some(next) = outcome.relation {
                current = Arc::new(next);
            }
            assert_eq!(
                current.sorted(),
                scratch_view(&rules, &db, Symbol::new("e")).sorted(),
                "dense-planned maintenance diverged after batch {batch:?}"
            );
        }
    }

    #[test]
    fn decomposed_maintenance_uses_clusters_and_matches_scratch() {
        let rules = vec![
            parse_linear_rule("p(x,y) :- p(x,z), down(z,y).").unwrap(),
            parse_linear_rule("p(x,y) :- p(w,y), up(x,w).").unwrap(),
        ];
        let mut db = Database::new();
        db.set_relation("down", Relation::from_pairs([(10, 11), (11, 12)]));
        db.set_relation("up", Relation::from_pairs([(1, 2), (2, 3)]));
        db.set_relation("p0", Relation::from_pairs([(2, 10), (3, 11)]));
        let def = ViewDef {
            name: "updown".into(),
            rules: rules.clone(),
            seed: Symbol::new("p0"),
        };
        let mut view = MaintainedView::register(def, &db).unwrap();
        assert_eq!(view.mode(), MaintenanceMode::IncrementalDecomposed);
        let (materialized, _) = view.materialize(&db).unwrap();
        let mut current = Arc::new(materialized);
        for batch in [
            vec![("up", (0, 1)), ("down", (12, 13))],
            vec![("p0", (1, 13))],
            vec![("up", (5, 0)), ("up", (6, 5)), ("down", (13, 14))],
        ] {
            let deltas = apply(&mut db, &batch);
            let outcome = view.maintain(&current, &db, &deltas).unwrap();
            assert_eq!(outcome.mode, "incremental-decomposed");
            if let Some(next) = outcome.relation {
                current = Arc::new(next);
            }
            assert_eq!(
                current.sorted(),
                scratch_view(&rules, &db, Symbol::new("p0")).sorted(),
                "decomposed maintenance diverged after batch {batch:?}"
            );
        }
    }

    #[test]
    fn bounded_maintenance_caps_rounds_and_matches_scratch() {
        let rules = vec![parse_linear_rule("p(x,y) :- p(x,y), mark(x).").unwrap()];
        let mut db = Database::new();
        db.set_relation("mark", Relation::from_tuples(1, [vec![Value::Int(1)]]));
        db.set_relation("s", Relation::from_pairs([(1, 5), (2, 6)]));
        let def = ViewDef {
            name: "marked".into(),
            rules: rules.clone(),
            seed: Symbol::new("s"),
        };
        let mut view = MaintainedView::register(def, &db).unwrap();
        assert_eq!(view.mode(), MaintenanceMode::IncrementalBounded);
        let (materialized, _) = view.materialize(&db).unwrap();
        let current = Arc::new(materialized);

        let mut deltas: FastMap<Symbol, Arc<Relation>> = FastMap::default();
        db.insert_tuple(Symbol::new("mark"), vec![Value::Int(2)]);
        deltas.insert(
            Symbol::new("mark"),
            Arc::new(Relation::from_tuples(1, [vec![Value::Int(2)]])),
        );
        db.insert_tuple(Symbol::new("s"), vec![Value::Int(3), Value::Int(7)]);
        deltas.insert(Symbol::new("s"), Arc::new(Relation::from_pairs([(3, 7)])));
        let outcome = view.maintain(&current, &db, &deltas).unwrap();
        assert_eq!(outcome.mode, "incremental-bounded");
        let maintained = outcome.relation.unwrap();
        assert_eq!(
            maintained.sorted(),
            scratch_view(&rules, &db, Symbol::new("s")).sorted()
        );
        // The certificate licenses cutting off after N applications.
        assert!(outcome.stats.iterations <= 1 + 1);
    }

    #[test]
    fn recompute_fallback_matches_scratch() {
        let rules = vec![linrec_engine::rules::shopping_rule()];
        let (mut db, buys) = linrec_testkit::shopping(12, 6, 2, 5);
        db.set_relation("b0", buys);
        let def = ViewDef {
            name: "buys".into(),
            rules: rules.clone(),
            seed: Symbol::new("b0"),
        };
        let mut view = MaintainedView::register(def, &db).unwrap();
        // Force the fallback path with a hand-built plan that has no
        // incremental form: a selection after the rule-sum star.
        let sel = Selection::eq(0, 3);
        view.plan = Plan::select_after(Plan::direct(rules.clone()), sel.clone());
        assert_eq!(
            view.plan().shape(),
            PlanShape::SelectAfter(Box::new(PlanShape::Direct))
        );
        assert_eq!(view.mode(), MaintenanceMode::Recompute);
        let (materialized, _) = view.materialize(&db).unwrap();
        let current = Arc::new(materialized);
        // 1001 is a cheap item: person 3 now buys it through person 99.
        let deltas = apply(&mut db, &[("b0", (99, 1001)), ("knows", (3, 99))]);
        let outcome = view.maintain(&current, &db, &deltas).unwrap();
        assert_eq!(outcome.mode, "recompute");
        let maintained = outcome.relation.unwrap();
        assert!(maintained.contains(&[Value::Int(3), Value::Int(1001)]));
        assert!(maintained.iter().all(|t| t[0] == Value::Int(3)));
        assert_eq!(
            maintained.sorted(),
            sel.apply(&scratch_view(&rules, &db, Symbol::new("b0")))
                .sorted()
        );
    }

    #[test]
    fn parallel_maintenance_matches_sequential_maintenance() {
        // Same batches, one view maintained sequentially and one through
        // an always-engaging parallel knob: identical relations and stats.
        let rules = vec![
            parse_linear_rule("p(x,y) :- p(x,z), down(z,y).").unwrap(),
            parse_linear_rule("p(x,y) :- p(w,y), up(x,w).").unwrap(),
        ];
        let mut db = Database::new();
        db.set_relation("down", Relation::from_pairs((0..15).map(|i| (i, i + 1))));
        db.set_relation("up", Relation::from_pairs((0..15).map(|i| (i + 1, i))));
        db.set_relation("p0", Relation::from_pairs([(0, 0), (5, 5)]));
        let def = ViewDef {
            name: "v".into(),
            rules: rules.clone(),
            seed: Symbol::new("p0"),
        };
        let par = Parallelism::new(3).with_min_delta(1);
        let mut seq = MaintainedView::register(def.clone(), &db).unwrap();
        let mut con = MaintainedView::register_with_parallelism(def, &db, par).unwrap();
        assert_eq!(seq.mode(), con.mode());
        let (a, _) = seq.materialize(&db).unwrap();
        let (b, _) = con.materialize(&db).unwrap();
        assert_eq!(a.sorted(), b.sorted());
        let mut current_seq = Arc::new(a);
        let mut current_con = Arc::new(b);
        for batch in [
            vec![("down", (15, 16)), ("p0", (1, 9))],
            vec![("up", (16, 15)), ("up", (20, 0))],
        ] {
            let deltas = apply(&mut db, &batch);
            let sq = seq.maintain(&current_seq, &db, &deltas).unwrap();
            let cn = con.maintain(&current_con, &db, &deltas).unwrap();
            assert_eq!(sq.mode, cn.mode);
            assert_eq!(sq.stats, cn.stats, "stats diverged on {batch:?}");
            if let Some(rel) = sq.relation {
                current_seq = Arc::new(rel);
            }
            if let Some(rel) = cn.relation {
                current_con = Arc::new(rel);
            }
            assert_eq!(current_seq.sorted(), current_con.sorted());
            assert_eq!(
                current_seq.sorted(),
                scratch_view(&rules, &db, Symbol::new("p0")).sorted()
            );
        }
    }

    #[test]
    fn register_rejects_seed_arity_mismatch_and_empty_rules() {
        let mut db = Database::new();
        db.set_relation("s", Relation::from_tuples(1, [vec![Value::Int(1)]]));
        let def = ViewDef {
            name: "v".into(),
            rules: vec![parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()],
            seed: Symbol::new("s"),
        };
        assert!(MaintainedView::register(def, &db).is_err());
        let empty = ViewDef {
            name: "v".into(),
            rules: Vec::new(),
            seed: Symbol::new("s"),
        };
        assert!(MaintainedView::register(empty, &db).is_err());
    }

    #[test]
    fn plan_feedback_is_visible_after_materialize() {
        let rules = vec![parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()];
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(0, 1), (1, 2)]));
        let def = ViewDef {
            name: "tc".into(),
            rules,
            seed: Symbol::new("e"),
        };
        let mut view = MaintainedView::register(def, &db).unwrap();
        assert!(view.plan().decision().estimate.is_some());
        assert_eq!(view.plan().decision().ratio(), None);
        let (_, stats) = view.materialize(&db).unwrap();
        assert_eq!(view.plan().decision().actual, Some(stats));
        assert!(view.plan().decision().ratio().is_some());
    }
}
