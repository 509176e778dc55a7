//! The cardinality-based [`CostModel`] and its estimator.
//!
//! This file owns **what a plan is predicted to cost**: fanouts from
//! relation statistics, the delta recurrence unrolled under a domain cap,
//! the dense gate and the parallel cutover. A plan that is a product of
//! stars is priced star by star off the same list the executor runs
//! (`PlanNode::lower`); only the shapes with algebra of their own
//! (`BoundedPrefix`, `Separable`) carry an estimate arm. Nothing here evaluates a rule: estimates read row counts
//! and per-column distinct counts, never a join.

use super::plan::{PlanNode, StarSpec};
use super::Plan;
use crate::decision::DenseVerdict;
use crate::dense;
use linrec_datalog::hash::{FastMap, FastSet};
use linrec_datalog::{Database, LinearRule, Relation, Symbol, Term, Var};

/// A cardinality-based cost model over licensed plans.
///
/// Estimates follow the System-R recipe adapted to fixpoints. Each rule
/// gets a per-delta-tuple **fanout**: the product over its nonrecursive
/// atoms of the expected index-bucket size (`rows / distinct keys`) for
/// the first column bound when the atom is probed, or the full row count
/// for atoms sharing no variable with anything matched before them. A star
/// is then costed by unrolling the semi-naive delta recurrence
/// `δ_{i+1} = δ_i · Σᵣ fanout(r)` for [`CostModel::horizon`] rounds,
/// capping the accumulated relation at a domain estimate
/// (`max column cardinality ^ arity`). This is exactly the paper's §3.1
/// cost measure — tuple derivations — made predictable: the mixed
/// `…CB…` terms that decomposition eliminates show up as the cross terms
/// of `(f_B + f_C)ⁿ`.
///
/// On top of the derivation charge, every fixpoint phase pays a setup
/// charge proportional to the seed and the EDB rows it touches (relation
/// cloning, scan materialization, allocator traffic) — the term the
/// derivation count alone misses, and the reason a strategy with fewer
/// derivations but many phases (several small stars over a small, dense
/// workload) can lose wall-clock to one semi-naive star.
///
/// The constants are fixed ratios, set once on the shopping / up-down /
/// chain / grid workloads of the test kit: only the *ordering* of
/// candidate estimates matters to the planner. Nothing rescales them at
/// run time: outside tests, every model is [`CostModel::default`].
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Charge per estimated tuple derivation (join + dedup work).
    pub per_derivation: f64,
    /// Charge per (seed + EDB) tuple touched by each fixpoint phase.
    pub per_phase_tuple: f64,
    /// Fixpoint rounds unrolled by the delta recurrence. Estimates are
    /// used only to *rank* candidates, so a modest horizon suffices: all
    /// candidates are truncated alike, and the exponential separations the
    /// model exists to detect appear within a few rounds.
    pub horizon: usize,
    /// Charge per shard for setting up one parallel round (partitioning,
    /// job dispatch, buffer merge), in the same unit as `per_derivation`.
    /// Together with the thread count it fixes the parallel cutover
    /// ([`CostModel::parallel_cutover`]): the delta size below which a
    /// round cannot recoup the sharding overhead and stays sequential.
    pub per_shard_setup: f64,
    /// Byte budget for the dense bitset working set (three
    /// `domain × ⌈domain/64⌉`-word adjacency matrices: operand,
    /// accumulator, scratch). A composition-shaped recursion whose
    /// estimated domain would not fit is planned sparse; the runtime
    /// re-checks against the *actual* domain and falls back to semi-naive
    /// if the estimate was optimistic.
    pub dense_budget_bytes: usize,
    /// Minimum estimated closure density (result tuples over `domain²`)
    /// for the dense plan: below the cutover, word-at-a-time kernels scan
    /// mostly-zero words and round-by-round hash joins win. Since the
    /// closure estimate grows with the seed, this effectively gates on the
    /// seed-to-domain ratio — a point-selection seed over a wide graph
    /// stays sparse.
    pub dense_density_cutover: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            per_derivation: 1.0,
            per_phase_tuple: 0.5,
            horizon: 12,
            per_shard_setup: 96.0,
            dense_budget_bytes: dense::DEFAULT_DENSE_BUDGET_BYTES,
            dense_density_cutover: 0.05,
        }
    }
}

impl CostModel {
    /// The smallest per-round delta for which `threads`-way sharding is
    /// predicted to pay: the fixed round price (`per_shard_setup` per
    /// shard) must be recouped by the work the extra threads take over
    /// (a `1 − 1/threads` share of the per-delta-tuple derivation
    /// charge). Rounds below the cutover stay sequential — this is how
    /// the model "charges" shard setup: not as a term in a plan's
    /// estimate (all candidates would pay it alike) but as the gate that
    /// decides whether a round may go parallel at all.
    pub fn parallel_cutover(&self, threads: usize) -> usize {
        if threads < 2 {
            return usize::MAX;
        }
        let saved_share = 1.0 - 1.0 / threads as f64;
        let per_tuple = self.per_derivation.max(f64::MIN_POSITIVE);
        ((self.per_shard_setup * threads as f64) / (per_tuple * saved_share)).ceil() as usize
    }

    /// Estimated **peak** per-round delta of `(Σ rules)*` from `init` —
    /// the figure [`Plan::parallelize`] compares against the cutover to
    /// decide (and record) whether parallelism can ever engage.
    pub fn estimated_peak_delta(
        &self,
        rules: &[LinearRule],
        db: &Database,
        init: &Relation,
    ) -> f64 {
        if rules.is_empty() {
            return 0.0;
        }
        let mut est = Estimator::new(self, db, init);
        // Raw fanout: the delta trajectory counts tuples, not charge; the
        // per-derivation charge reaches this decision through
        // `parallel_cutover`.
        let f: f64 = rules.iter().map(|r| est.fanout(r)).sum();
        let seed_doms = est.init_doms.clone();
        let doms = est.col_doms(rules, &seed_doms);
        let (_, _, peak) = recurrence(f, init.len() as f64, Estimator::cap(&doms), self.horizon);
        peak
    }
}

/// The semi-naive delta recurrence `δ' = min(δ·f, cap − total)` from a seed
/// of `seed` tuples, unrolled until the delta dies out or `rounds` have
/// run: the derivations produced along the way, the accumulated relation
/// size, and the peak per-round delta.
fn recurrence(f: f64, seed: f64, cap: f64, rounds: usize) -> (f64, f64, f64) {
    let mut delta = seed.min(cap);
    let mut total = delta;
    let mut peak = delta;
    let mut derivs = 0.0;
    for _ in 0..rounds {
        if delta < 0.5 {
            break;
        }
        let produced = delta * f;
        derivs += produced;
        let new = produced.min((cap - total).max(0.0));
        total += new;
        delta = new;
        peak = peak.max(delta);
    }
    (derivs, total, peak)
}

/// Cardinalities used by the estimator: row count and per-column distinct
/// counts, computed once per predicate per estimate.
struct PredStats {
    rows: f64,
    ndv: Vec<f64>,
}

pub(super) struct Estimator<'a> {
    model: &'a CostModel,
    db: &'a Database,
    /// Keyed by `(predicate, arity)`: an atom whose arity disagrees with
    /// the stored relation gets zero-row statistics of its *own* arity
    /// (mirroring the join, where such an atom matches nothing), so two
    /// uses of one predicate at different arities never share an entry.
    stats: FastMap<(Symbol, usize), PredStats>,
    /// Domain estimate: the largest per-column distinct count seen.
    dom: f64,
    /// Per-column distinct counts of the seed relation.
    pub(super) init_doms: Vec<f64>,
}

impl<'a> Estimator<'a> {
    pub(super) fn new(model: &'a CostModel, db: &'a Database, init: &Relation) -> Estimator<'a> {
        let init_doms: Vec<f64> = (0..init.arity())
            .map(|c| (init.distinct_in_col(c) as f64).max(1.0))
            .collect();
        let mut dom = 2.0f64;
        for &d in &init_doms {
            dom = dom.max(d);
        }
        Estimator {
            model,
            db,
            stats: FastMap::default(),
            dom,
            init_doms,
        }
    }

    fn pred(&mut self, pred: Symbol, arity: usize) -> &PredStats {
        let key = (pred, arity);
        if !self.stats.contains_key(&key) {
            let entry = match self.db.relation(pred) {
                Some(rel) if rel.arity() == arity => {
                    let ndv: Vec<f64> = (0..rel.arity())
                        .map(|c| rel.distinct_in_col(c) as f64)
                        .collect();
                    for &n in &ndv {
                        self.dom = self.dom.max(n);
                    }
                    PredStats {
                        rows: rel.len() as f64,
                        ndv,
                    }
                }
                _ => PredStats {
                    rows: 0.0,
                    ndv: vec![0.0; arity],
                },
            };
            self.stats.insert(key, entry);
        }
        &self.stats[&key]
    }

    /// Expected matches produced per delta tuple by one application of
    /// `rule` (the product of its trailing atoms' candidate-set sizes).
    fn fanout(&mut self, rule: &LinearRule) -> f64 {
        let mut bound: FastSet<Var> = rule.rec_atom().vars().collect();
        let mut f = 1.0f64;
        for atom in rule.nonrec_atoms() {
            let probe = crate::join::first_probe_col(&atom.terms, |v| bound.contains(&v));
            let stats = self.pred(atom.pred, atom.arity());
            let fan = match probe {
                Some(c) => stats.rows / stats.ndv[c].max(1.0),
                None => stats.rows,
            };
            f *= fan;
            bound.extend(atom.vars());
        }
        f
    }

    /// Per-column domain estimates for the closure of `rules` from a seed
    /// with column domains `seed_doms`: a persistent column keeps the
    /// seed's values; a column bound from a nonrecursive atom adds that
    /// atom column's distinct count; a column copied from another
    /// recursive-atom position adds that position's seed domain.
    fn col_doms(&mut self, rules: &[LinearRule], seed_doms: &[f64]) -> Vec<f64> {
        let arity = rules.first().map(|r| r.arity()).unwrap_or(0);
        let mut doms: Vec<f64> = (0..arity)
            .map(|j| seed_doms.get(j).copied().unwrap_or(1.0))
            .collect();
        for rule in rules {
            for (j, dom) in doms.iter_mut().enumerate() {
                let v = match rule.head().terms[j] {
                    Term::Const(_) => {
                        *dom += 1.0;
                        continue;
                    }
                    Term::Var(v) => v,
                };
                // Persistent column: the closure introduces no new values.
                if rule.rec_atom().terms.get(j) == Some(&Term::Var(v)) {
                    continue;
                }
                if let Some((pred, c, ar)) = rule.nonrec_atoms().iter().find_map(|a| {
                    a.terms
                        .iter()
                        .position(|t| *t == Term::Var(v))
                        .map(|c| (a.pred, c, a.arity()))
                }) {
                    *dom += self.pred(pred, ar).ndv[c];
                } else if let Some(c) = rule
                    .rec_atom()
                    .terms
                    .iter()
                    .position(|t| *t == Term::Var(v))
                {
                    *dom += seed_doms.get(c).copied().unwrap_or(self.dom);
                } else {
                    *dom += self.dom;
                }
            }
        }
        doms
    }

    /// Maximum plausible relation size under the given column domains.
    fn cap(doms: &[f64]) -> f64 {
        doms.iter()
            .fold(1.0f64, |acc, &d| (acc * d.max(1.0)).min(1e15))
    }

    /// Distinct EDB rows the given rules touch (scan/index setup volume).
    fn edb_rows(&mut self, rules: &[LinearRule]) -> f64 {
        let mut seen: FastSet<Symbol> = FastSet::default();
        let mut rows = 0.0;
        for rule in rules {
            for atom in rule.nonrec_atoms() {
                if seen.insert(atom.pred) {
                    rows += self.pred(atom.pred, atom.arity()).rows;
                }
            }
        }
        rows
    }

    fn phase_charge(&mut self, rules: &[LinearRule], seed: f64) -> f64 {
        self.model.per_phase_tuple * (seed + self.edb_rows(rules))
    }

    /// Unroll the semi-naive delta recurrence under `cap`, then add the
    /// derivation-graph arc bound `result × Σ fanout` (paper §3.1: total
    /// derivations ≈ arcs ≈ result size × inbound arcs per tuple — this
    /// is where duplicate production, the dominant recursive cost, lives).
    /// Returns (derivations, result estimate).
    fn unroll(&self, f: f64, seed: f64, cap: f64) -> (f64, f64) {
        let (derivs, total, _) = recurrence(f, seed, cap, self.model.horizon);
        (derivs + total * f, total)
    }

    /// Derivation charge, result size, and result column domains of
    /// `(Σ rules)*` from a seed of `seed` tuples with domains `seed_doms`.
    fn star(&mut self, rules: &[LinearRule], seed: f64, seed_doms: &[f64]) -> (f64, f64, Vec<f64>) {
        if rules.is_empty() {
            return (0.0, seed, seed_doms.to_vec());
        }
        let f: f64 = rules.iter().map(|r| self.fanout(r)).sum();
        let doms = self.col_doms(rules, seed_doms);
        let (derivs, total) = self.unroll(f, seed, Self::cap(&doms));
        (self.model.per_derivation * derivs, total, doms)
    }

    /// `count` exact applications of `rule`: derivation charge and final
    /// image size (not accumulated).
    fn power_chain(
        &mut self,
        rule: &LinearRule,
        seed: f64,
        seed_doms: &[f64],
        count: usize,
    ) -> (f64, f64) {
        let f = self.fanout(rule);
        let doms = self.col_doms(std::slice::from_ref(rule), seed_doms);
        let cap = Self::cap(&doms);
        let mut cur = seed.min(cap);
        let mut derivs = 0.0;
        for _ in 0..count.min(4 * self.model.horizon) {
            derivs += cur * f;
            cur = (cur * f).min(cap);
        }
        (self.model.per_derivation * derivs, cur)
    }

    /// The dense gate for a composition-shaped `rule`: `Chosen` with the
    /// cost estimate when the bitset kernels are predicted to pay, one of
    /// the two declines otherwise. Two checks, in order:
    ///
    /// 1. **Budget** — three `domain × ⌈domain/64⌉`-word matrices must fit
    ///    [`CostModel::dense_budget_bytes`], with the domain estimated as
    ///    the **sum of both columns' distinct-value counts of both
    ///    relations**. The runtime domain is the union of all four value
    ///    sets, so the sum is a safe overestimate — erring toward
    ///    declining a plan, never toward admitting one whose actual
    ///    working set exceeds the budget (the runtime re-check before
    ///    allocation remains the hard guard either way).
    /// 2. **Density** — the closure estimate (a *long-horizon* unroll of
    ///    the delta recurrence, `min(domain, 4096)` rounds: the sparse
    ///    horizon-12 truncation would misjudge a fixpoint the dense path
    ///    runs to completion) must fill at least
    ///    [`CostModel::dense_density_cutover`] of `domain²` — below that,
    ///    the word kernels mostly scan zeros and hash joins win.
    pub(super) fn dense_verdict(
        &mut self,
        rule: &LinearRule,
        shape: &dense::CompositionShape,
        seed: f64,
        seed_doms: &[f64],
    ) -> DenseVerdict {
        let q = self.pred(shape.edge, 2);
        let q_dom: f64 = q.ndv.iter().sum();
        let seed_dom: f64 = seed_doms.iter().sum();
        let d = (seed_dom + q_dom).max(2.0);
        let words = (d / 64.0).ceil();
        let bytes = 3.0 * d * words * 8.0;
        if bytes > self.model.dense_budget_bytes as f64 {
            return DenseVerdict::OverBudget {
                working_set_bytes: bytes,
                budget_bytes: self.model.dense_budget_bytes,
            };
        }
        let f = self.fanout(rule);
        let cap = (d * d).min(1e15);
        let (derivs, total, _) = recurrence(f, seed, cap, (d as usize).min(4096));
        let density = total / cap;
        if density < self.model.dense_density_cutover {
            return DenseVerdict::TooSparse {
                density,
                cutover: self.model.dense_density_cutover,
                domain: d,
            };
        }
        DenseVerdict::Chosen {
            edge: shape.edge,
            domain: d,
            density,
            cost: self.model.per_derivation * derivs
                + self.phase_charge(std::slice::from_ref(rule), seed),
        }
    }

    /// A product of stars over the running total: each star is seeded
    /// with its predecessor's result and pays its own phase charge.
    fn product(&mut self, stars: &[StarSpec], seed: f64, seed_doms: &[f64]) -> f64 {
        let mut cost = 0.0;
        let mut current = seed;
        let mut doms = seed_doms.to_vec();
        for star in stars {
            let (derivs, result, next_doms) = self.star(&star.rules, current, &doms);
            cost += derivs + self.phase_charge(&star.rules, current);
            current = result;
            doms = next_doms;
        }
        cost
    }

    pub(super) fn node(&mut self, node: &PlanNode, seed: f64, seed_doms: &[f64]) -> f64 {
        if let PlanNode::DenseClosure { rule, shape } = node {
            // Declined, its star would run sparse: priced below as one.
            if let DenseVerdict::Chosen { cost, .. } =
                self.dense_verdict(rule, shape, seed, seed_doms)
            {
                return cost;
            }
        }
        match node {
            PlanNode::BoundedPrefix { cert } => {
                let rules = std::slice::from_ref(cert.rule());
                let (derivs, _) =
                    self.power_chain(cert.rule(), seed, seed_doms, cert.applications());
                derivs + self.phase_charge(rules, seed)
            }
            PlanNode::Separable { cert, sel } => {
                // Selection push-down shrinks the inner seed by the
                // selected columns' selectivity (1/ndv per binding, crude
                // but conservative), then the outer star runs over the
                // selected result.
                let mut selectivity = 1.0f64;
                let mut inner_doms = seed_doms.to_vec();
                for &(p, _) in sel.bindings() {
                    selectivity /= self.dom.max(2.0);
                    if let Some(d) = inner_doms.get_mut(p) {
                        *d = 1.0;
                    }
                }
                let inner_rules = std::slice::from_ref(cert.inner());
                let outer_rules = std::slice::from_ref(cert.outer());
                let inner_seed = (seed * selectivity).max(1.0);
                let (c1, mid, mid_doms) = self.star(inner_rules, inner_seed, &inner_doms);
                let (c2, _, _) = self.star(outer_rules, mid, &mid_doms);
                c1 + c2
                    + self.phase_charge(inner_rules, inner_seed)
                    + self.phase_charge(outer_rules, mid)
            }
            PlanNode::SelectAfter { inner, .. } => self.node(inner, seed, seed_doms),
            // Every other shape is the product of its stars, and costs
            // what they cost.
            _ => self.product(&node.lower().stars, seed, seed_doms),
        }
    }
}

impl CostModel {
    /// Estimate the execution cost of `plan` over `db` seeded with `init`:
    /// the derivation charge plus the per-phase setup charge, so not a
    /// derivation count. Meaningful only relative to other estimates from
    /// the same model and database.
    pub fn estimate(&self, plan: &Plan, db: &Database, init: &Relation) -> f64 {
        let mut est = Estimator::new(self, db, init);
        let doms = est.init_doms.clone();
        est.node(&plan.node, init.len() as f64, &doms)
    }
}

#[cfg(test)]
mod tests {
    use super::super::Analysis;
    use super::*;
    use crate::rules;
    use linrec_datalog::parse_linear_rule;
    use linrec_testkit as workload;

    #[test]
    fn cost_model_survives_predicates_used_at_two_arities() {
        // `e` is stored at arity 2 but one rule also mentions it at arity
        // 3; the join treats the arity-3 atom as matching nothing, and the
        // estimator must do the same (zero rows) rather than indexing the
        // arity-2 statistics out of bounds.
        let rules = vec![
            parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap(),
            parse_linear_rule("p(x,y) :- p(x,z), e(w,u,z), q(w,y).").unwrap(),
        ];
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2), (2, 3)]));
        db.set_relation("q", Relation::from_pairs([(1, 9)]));
        let init = Relation::from_pairs([(0, 1)]);
        let analysis = Analysis::of(&rules, None);
        let plan = analysis.plan_for(&db, &init); // must not panic
        let planned = plan.execute(&db, &init).unwrap();
        let direct = Plan::direct(rules).execute(&db, &init).unwrap();
        assert_eq!(planned.relation.sorted(), direct.relation.sorted());
    }

    #[test]
    fn cost_model_estimates_follow_database_size() {
        let rules = vec![rules::shopping_rule()];
        let model = CostModel::default();
        let (small_db, small_init) = workload::shopping(50, 20, 3, 1);
        let (big_db, big_init) = workload::shopping(800, 20, 3, 1);
        let plan = Plan::direct(rules);
        let small = model.estimate(&plan, &small_db, &small_init);
        let big = model.estimate(&plan, &big_db, &big_init);
        assert!(big > small, "estimates must grow with the data");
    }

    #[test]
    fn parallel_cutover_scales_with_threads_and_the_derivation_charge() {
        let model = CostModel::default();
        assert_eq!(model.parallel_cutover(1), usize::MAX);
        let c4 = model.parallel_cutover(4);
        let c2 = model.parallel_cutover(2);
        assert!(c4 > 0 && c2 > 0);
        assert!(
            c2 < c4,
            "more threads, more setup to amortize: {c2} vs {c4}"
        );
        // Cheaper derivations need bigger deltas to recoup the setup.
        let cheap = CostModel {
            per_derivation: 0.1,
            ..CostModel::default()
        };
        assert!(cheap.parallel_cutover(4) > c4);
    }
}
