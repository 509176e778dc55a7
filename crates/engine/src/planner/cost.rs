//! The cardinality-based [`CostModel`] and its estimator.
//!
//! This file owns **what a plan is predicted to cost**: fanouts from
//! relation statistics, the delta recurrence unrolled under a domain cap,
//! the dense gate and the parallel cutover. A plan that is a product of
//! stars is priced star by star off the same list the executor runs
//! (`PlanNode::lower`); only the shapes with algebra of their own
//! (`BoundedPrefix`, `Separable`, `RedundancyBounded`) carry an
//! estimate arm. Nothing here evaluates a rule: estimates read row counts
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
/// of `(f_B + f_C)ⁿ`, and a redundant factor with fanout > 1 shows up as
/// an exponential the bounded strategy truncates.
///
/// On top of the derivation charge, every fixpoint phase pays a setup
/// charge proportional to the seed and the EDB rows it touches (relation
/// cloning, scan materialization, allocator traffic) — the term the
/// derivation count alone misses, and the reason a strategy with fewer
/// derivations but many phases (e.g. `RedundancyBounded` on a small, dense
/// workload) can lose wall-clock to one semi-naive star.
///
/// The constants are unit-free ratios calibrated on the shopping / up-down
/// / chain / grid workloads of the test kit: only the *ordering* of
/// candidate estimates matters to the planner.
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
    /// Multiplicative correction to the fanout-driven derivation charge,
    /// learned from estimate/actual feedback ([`CostModel::calibrate`]).
    /// `1.0` is the uncalibrated default; a model that systematically
    /// overestimates derivations ends up with a scale below 1.
    pub fanout_scale: f64,
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
            fanout_scale: 1.0,
            per_shard_setup: 96.0,
            dense_budget_bytes: dense::DEFAULT_DENSE_BUDGET_BYTES,
            dense_density_cutover: 0.05,
        }
    }
}

impl CostModel {
    /// Fold estimate/actual feedback into the model: each pair is a plan's
    /// cost estimate ([`crate::PlanDecision::estimate`]) next to the
    /// derivation count the run actually performed (`EvalStats::derivations`, the unit the
    /// estimate is denominated in). The geometric mean of the
    /// `actual/estimate` ratios rescales [`CostModel::fanout_scale`], so a
    /// model that was systematically off by a constant factor is corrected
    /// after a single round of feedback (the derivation charge is linear
    /// in the scale). Pairs with a non-positive side are ignored; the
    /// scale is clamped to `[1e-3, 1e3]` so one wild outlier cannot wreck
    /// the model.
    pub fn calibrate(&mut self, feedback: &[(f64, u64)]) {
        let (mut sum_log, mut n) = (0.0f64, 0usize);
        for &(estimate, actual) in feedback {
            if estimate > 0.0 && actual > 0 {
                sum_log += (actual as f64 / estimate).ln();
                n += 1;
            }
        }
        if n > 0 {
            let ratio = (sum_log / n as f64).exp();
            self.fanout_scale = (self.fanout_scale * ratio).clamp(1e-3, 1e3);
        }
    }

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
        let per_tuple = (self.per_derivation * self.fanout_scale).max(f64::MIN_POSITIVE);
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
        // Raw fanout, deliberately NOT multiplied by `fanout_scale`: the
        // learned scale is a *linear* correction to the derivation charge
        // (see `Estimator::per_deriv`), and compounding it per round here
        // would let calibration distort the delta trajectory geometrically.
        // It still reaches this decision through `parallel_cutover`'s
        // per-tuple charge.
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

    /// The calibrated derivation charge: `per_derivation` corrected by the
    /// feedback-learned fanout scale ([`CostModel::calibrate`]).
    fn per_deriv(&self) -> f64 {
        self.model.per_derivation * self.model.fanout_scale
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
        (self.per_deriv() * derivs, total, doms)
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
        (self.per_deriv() * derivs, cur)
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
            cost: self.per_deriv() * derivs + self.phase_charge(std::slice::from_ref(rule), seed),
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
            PlanNode::RedundancyBounded { cert } => {
                let dec = cert.decomposition();
                let (k, n, l) = (dec.torsion.k, dec.torsion.n, dec.l);
                let period = n - k;
                let rule = cert.rule();
                let a_rules = std::slice::from_ref(rule);
                let b_rules = std::slice::from_ref(&dec.b);
                // Prefix Σ_{m<KL} Aᵐ q.
                let (mut cost, _) = self.power_chain(rule, seed, seed_doms, k * l - 1);
                cost += self.phase_charge(a_rules, seed);
                // B^{K-1} q, then one branch per residue.
                let (c_img, mut img) = self.power_chain(&dec.b, seed, seed_doms, k - 1);
                cost += c_img;
                let fan_b = self.fanout(&dec.b);
                let fan_c = self.fanout(&dec.c);
                let b_doms = self.col_doms(b_rules, seed_doms);
                let cap = Self::cap(&b_doms);
                let mut acc = 0.0f64;
                for r in 0..period {
                    if r > 0 {
                        cost += self.per_deriv() * img * fan_b;
                        img = (img * fan_b).min(cap);
                    }
                    // (Bᴾ)* — a star whose per-application fanout is Bᴾ's.
                    let f = fan_b.powi(period.min(16) as i32).max(f64::MIN_POSITIVE);
                    let (derivs, total) = self.unroll(f, img, cap);
                    cost += self.per_deriv() * derivs + self.phase_charge(b_rules, img);
                    // C^{(K+r)L}, then one B.
                    let mut cur = total;
                    for _ in 0..((k + r) * l).min(4 * self.model.horizon) {
                        cost += self.per_deriv() * cur * fan_c;
                        cur = (cur * fan_c).min(cap);
                    }
                    cost += self.per_deriv() * cur * fan_b
                        + self.phase_charge(std::slice::from_ref(&dec.c), total);
                    acc += (cur * fan_b).min(cap);
                }
                // Σ_{n<L} Aⁿ acc.
                let (c_tail, _) = self.power_chain(rule, acc.min(cap), seed_doms, l - 1);
                cost + c_tail
            }
            PlanNode::SelectAfter { inner, .. } => self.node(inner, seed, seed_doms),
            // Every other shape is the product of its stars, and costs
            // what they cost.
            _ => self.product(&node.lower().stars, seed, seed_doms),
        }
    }
}

impl CostModel {
    /// Estimate the execution cost of `plan` over `db` seeded with `init`
    /// (unit-free; meaningful only relative to other estimates from the
    /// same model and database).
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
    fn calibrate_rescales_the_fanout_constant() {
        let mut model = CostModel::default();
        assert_eq!(model.fanout_scale, 1.0);
        // The model overestimated 10x on two runs: scale shrinks to 0.1.
        model.calibrate(&[(1000.0, 100), (5000.0, 500)]);
        assert!(
            (model.fanout_scale - 0.1).abs() < 1e-9,
            "{}",
            model.fanout_scale
        );
        // Feedback folds in multiplicatively…
        model.calibrate(&[(10.0, 100)]);
        assert!((model.fanout_scale - 1.0).abs() < 1e-9);
        // …degenerate pairs are ignored, and the scale stays clamped.
        model.calibrate(&[(0.0, 5), (3.0, 0)]);
        assert!((model.fanout_scale - 1.0).abs() < 1e-9);
        model.calibrate(&[(1.0, u64::MAX)]);
        assert!(model.fanout_scale <= 1e3);
    }

    #[test]
    fn miscalibrated_model_corrects_after_one_round_of_feedback() {
        // A model whose fanout constant is off by 12x: one round of
        // estimate/actual feedback must bring its estimate to within a
        // small factor of the measured derivation count (the derivation
        // charge is linear in the scale; only the small per-phase setup
        // term resists the correction).
        let rules = vec![rules::tc_right()];
        let edges = workload::chain(60);
        let db = workload::graph_db("q", edges.clone());
        let plan = Plan::direct(rules);
        let actual = plan.execute(&db, &edges).unwrap().stats.derivations;

        let mut model = CostModel {
            fanout_scale: 12.0,
            ..CostModel::default()
        };
        let before = model.estimate(&plan, &db, &edges);
        let off_before = (before / actual as f64).ln().abs();
        model.calibrate(&[(before, actual)]);
        let after = model.estimate(&plan, &db, &edges);
        let off_after = (after / actual as f64).ln().abs();
        assert!(
            off_after < off_before,
            "calibration must reduce the error: {before:.3e} -> {after:.3e} vs {actual}"
        );
        assert!(
            (0.25..4.0).contains(&(after / actual as f64)),
            "one feedback round should land within a small factor: \
             {after:.3e} vs actual {actual}"
        );
    }

    #[test]
    fn parallel_cutover_scales_with_threads_and_calibration() {
        let model = CostModel::default();
        assert_eq!(model.parallel_cutover(1), usize::MAX);
        let c4 = model.parallel_cutover(4);
        let c2 = model.parallel_cutover(2);
        assert!(c4 > 0 && c2 > 0);
        assert!(
            c2 < c4,
            "more threads, more setup to amortize: {c2} vs {c4}"
        );
        // A calibrated-down model (cheaper derivations) needs bigger deltas.
        let mut cheap = CostModel::default();
        cheap.calibrate(&[(10.0, 1)]);
        assert!(cheap.parallel_cutover(4) > c4);
    }

    #[test]
    fn calibration_does_not_compound_into_the_peak_delta_estimate() {
        // fanout_scale is a linear charge correction; the delta trajectory
        // itself must be scale-invariant, or calibration would distort the
        // parallel decision geometrically.
        let rules = vec![rules::tc_right()];
        let edges = workload::chain(100);
        let db = workload::graph_db("q", edges.clone());
        let base = CostModel::default().estimated_peak_delta(&rules, &db, &edges);
        let scaled = CostModel {
            fanout_scale: 12.0,
            ..CostModel::default()
        }
        .estimated_peak_delta(&rules, &db, &edges);
        assert_eq!(base, scaled);
    }
}
