//! The certificate-carrying planner: `Analysis → Plan → Execution`.
//!
//! This module is the single entry point for evaluating a linear recursion,
//! a three-stage pipeline:
//!
//! 1. **[`Analysis`]** runs the paper's tests over a rule set (and optional
//!    [`Selection`]) and collects *typed certificates* from `linrec-core`:
//!    [`BoundednessCert`], [`CommutativityCert`], [`SeparabilityCert`],
//!    [`RedundancyCert`].
//! 2. **[`Plan`]** is a composable strategy tree. The specialized nodes —
//!    `Decomposed`, `Separable`, `RedundancyBounded`, `BoundedPrefix` —
//!    can **only** be built from the corresponding certificate, so an
//!    unlicensed plan is unrepresentable; `Direct`, `Naive` and
//!    `SelectAfter` need no premise and are always available.
//! 3. **[`Plan::execute`]** runs the tree over a database and seed
//!    relation, returning an [`ExecOutcome`] with the result relation, the
//!    paper's duplicate/derivation statistics, and a per-phase trace. One
//!    scan/index cache is shared by every phase of the tree.
//!
//! # Choosing among licensed plans
//!
//! Two selectors are provided. [`Analysis::plan`] uses the paper's fixed
//! preference order (bounded, then separable, then decomposed, then
//! redundancy-bounded, then direct) and needs no data — useful for
//! inspection and for showcasing a certificate.
//! [`Analysis::plan_for`] additionally takes the concrete
//! database and seed relation and ranks the licensed candidates with a
//! [`CostModel`]: boundedness and separability keep their fixed priority
//! (provably minimal applications, and selection push-down, respectively),
//! while `Decomposed`, `RedundancyBounded`, and `Direct` compete on
//! estimated cost — so a certificate is exploited only where the data says
//! it pays (a redundancy certificate that *loses* wall-clock on a small
//! dense database no longer gets picked).
//!
//! # Why this plan
//!
//! Every [`Plan`] owns one [`PlanDecision`] ([`Plan::decision`]): the
//! winner and how it was picked, every candidate's estimate, the
//! certificates leaned on, the dense and parallel verdicts and, after
//! [`Plan::execute_feedback`], the actual statistics. Its `Display` form
//! is the one rendered rationale (`describe()`'s `rationale:` line).
//!
//! ```
//! use linrec_engine::{planner::Analysis, workload, rules, CertKind};
//!
//! let (db, init) = workload::up_down(5, 42);
//! let analysis = Analysis::of(&[rules::up_rule(), rules::down_rule()], None);
//! let plan = analysis.plan();          // picks Decomposed, certificate-backed
//! let outcome = plan.execute(&db, &init).unwrap();
//! assert_eq!(plan.decision().certificates[0].0, CertKind::Commutativity);
//! assert_eq!(outcome.relation.len(), outcome.stats.tuples);
//! ```

use crate::decision::{
    CandidateEstimate, CertKind, DenseVerdict, ParallelVerdict, PickedBy, PlanDecision,
};
use crate::dense;
use crate::join::Indexes;
use crate::magic::{eval_selected_star, magic_applicable};
use crate::parallel::Parallelism;
use crate::selection::Selection;
use crate::seminaive::{exact_power_in, naive_star, seminaive_resume, star_from};
use crate::stats::EvalStats;
use linrec_core::{BoundednessCert, CommutativityCert, RedundancyCert, SeparabilityCert};
use linrec_datalog::hash::{FastMap, FastSet};
use linrec_datalog::{Database, LinearRule, Relation, RuleError, Symbol, Term, Var};
use std::sync::Arc;

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

// --- analysis -------------------------------------------------------------

/// Search-depth knobs for [`Analysis`].
#[derive(Debug, Clone, Copy)]
pub struct AnalysisEffort {
    /// Bound for power searches (uniform boundedness, torsion,
    /// redundancy): `Bⁿ` is explored for `n ≤ max_power`.
    pub max_power: usize,
    /// Exponent bound for two-operator semi-commutation certificates
    /// (`CB ≤ BᵏCˡ`); `0` disables the search.
    pub semi_exp: usize,
}

impl Default for AnalysisEffort {
    fn default() -> AnalysisEffort {
        AnalysisEffort {
            max_power: 8,
            semi_exp: 0,
        }
    }
}

/// The certificates the paper's analyses produced for one rule set (and
/// optional selection). Feed it to [`Analysis::plan`] to pick a strategy,
/// or inspect the individual certificates (e.g. `linrec analyze`).
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
    /// Analyze `rules` under an optional selection with default effort.
    pub fn of(rules: &[LinearRule], selection: Option<&Selection>) -> Analysis {
        Analysis::with_effort(rules, selection, AnalysisEffort::default())
    }

    /// Analyze with explicit search bounds.
    pub fn with_effort(
        rules: &[LinearRule],
        selection: Option<&Selection>,
        effort: AnalysisEffort,
    ) -> Analysis {
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
            match BoundednessCert::establish(&rules[0], effort.max_power) {
                Ok(cert) => analysis.boundedness = cert,
                Err(e) => analysis
                    .notes
                    .push(format!("boundedness search failed: {e}")),
            }
            if analysis.boundedness.is_none() {
                match RedundancyCert::establish_any(&rules[0], effort.max_power) {
                    Ok(cert) => analysis.redundancy = cert,
                    Err(e) => analysis
                        .notes
                        .push(format!("redundancy search failed: {e}")),
                }
            }
        }

        if rules.len() > 1 {
            match CommutativityCert::establish(rules, effort.semi_exp) {
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

    /// Pick the best licensed strategy, mirroring the paper's preference
    /// order: exhaust a bounded recursion, run the separable algorithm for
    /// selections, decompose commuting clusters, bound a redundant factor,
    /// and fall back to semi-naive over the rule sum.
    pub fn plan(&self) -> Plan {
        let plan = self.fixed_priority().unwrap_or_else(|| {
            self.wrap_selection(if let Some(cert) = &self.commutativity {
                Plan::decomposed(cert.clone())
            } else if let Some(cert) = &self.redundancy {
                Plan::redundancy_bounded(cert.clone())
            } else {
                Plan::direct(self.rules.clone())
            })
        });
        plan.picked_by(PickedBy::FixedPriority)
    }

    /// Pick the cheapest licensed plan for a *concrete* database and seed,
    /// using the default [`CostModel`]. Unlike [`Analysis::plan`], which
    /// ranks strategies by the paper's fixed preference order, this method
    /// estimates each licensed candidate from relation cardinalities and
    /// picks the minimum — so a certificate is used only when it is
    /// predicted to pay off on the data at hand.
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
                    plans.push(Plan::dense_closure_of(
                        rule.clone(),
                        shape,
                        model.dense_budget_bytes,
                    ));
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

// --- cost model -----------------------------------------------------------

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
/// / chain / grid workloads of [`crate::workload`]: only the *ordering* of
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
            dense_budget_bytes: 64 << 20,
            dense_density_cutover: 0.05,
        }
    }
}

impl CostModel {
    /// Fold estimate/actual feedback into the model: each pair is a plan's
    /// cost estimate ([`PlanDecision::estimate`]) next to the derivation count the
    /// run actually performed (`EvalStats::derivations`, the unit the
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
        let cap = Estimator::cap(&doms);
        let mut delta = (init.len() as f64).min(cap);
        let mut total = delta;
        let mut peak = delta;
        for _ in 0..self.horizon {
            if delta < 0.5 {
                break;
            }
            let produced = delta * f;
            let new = produced.min((cap - total).max(0.0));
            total += new;
            delta = new;
            peak = peak.max(delta);
        }
        peak
    }
}

/// Cardinalities used by the estimator: row count and per-column distinct
/// counts, computed once per predicate per estimate.
struct PredStats {
    rows: f64,
    ndv: Vec<f64>,
}

struct Estimator<'a> {
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
    init_doms: Vec<f64>,
}

impl<'a> Estimator<'a> {
    fn new(model: &'a CostModel, db: &'a Database, init: &Relation) -> Estimator<'a> {
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
        let mut delta = seed.min(cap);
        let mut total = delta;
        let mut derivs = 0.0;
        for _ in 0..self.model.horizon {
            if delta < 0.5 {
                break;
            }
            let produced = delta * f;
            derivs += produced;
            let new = produced.min((cap - total).max(0.0));
            total += new;
            delta = new;
        }
        derivs += total * f;
        (derivs, total)
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
    fn dense_verdict(
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
        let mut delta = seed.min(cap);
        let mut total = delta;
        let mut derivs = 0.0;
        for _ in 0..(d as usize).min(4096) {
            if delta < 0.5 {
                break;
            }
            let produced = delta * f;
            derivs += produced;
            let new = produced.min((cap - total).max(0.0));
            total += new;
            delta = new;
        }
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

    fn node(&mut self, node: &PlanNode, seed: f64, seed_doms: &[f64]) -> f64 {
        match node {
            PlanNode::Direct { rules } => {
                let (derivs, _, _) = self.star(rules, seed, seed_doms);
                derivs + self.phase_charge(rules, seed)
            }
            PlanNode::Naive { rules } => {
                // Re-joins the whole accumulated relation every round:
                // charge the star as if each round's delta were the total.
                let (derivs, total, _) = self.star(rules, seed, seed_doms);
                let f: f64 = rules.iter().map(|r| self.fanout(r)).sum();
                derivs
                    + self.per_deriv() * total * f * self.model.horizon as f64
                    + self.phase_charge(rules, seed)
            }
            PlanNode::BoundedPrefix { cert } => {
                let rules = std::slice::from_ref(cert.rule());
                let (derivs, _) =
                    self.power_chain(cert.rule(), seed, seed_doms, cert.applications());
                derivs + self.phase_charge(rules, seed)
            }
            PlanNode::Decomposed { cert } => {
                let mut cost = 0.0;
                let mut current = seed;
                let mut doms = seed_doms.to_vec();
                for cluster in cert.clusters().iter().rev() {
                    let group: Vec<LinearRule> =
                        cluster.iter().map(|&i| cert.rules()[i].clone()).collect();
                    let (derivs, result, next_doms) = self.star(&group, current, &doms);
                    cost += derivs + self.phase_charge(&group, current);
                    current = result;
                    doms = next_doms;
                }
                cost
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
            PlanNode::DenseClosure { rule, shape, .. } => {
                match self.dense_verdict(rule, shape, seed, seed_doms) {
                    DenseVerdict::Chosen { cost, .. } => cost,
                    _ => {
                        // Would fall back to a sparse star at runtime.
                        let rules = std::slice::from_ref(rule);
                        let (derivs, _, _) = self.star(rules, seed, seed_doms);
                        derivs + self.phase_charge(rules, seed)
                    }
                }
            }
            PlanNode::SelectAfter { inner, .. } => self.node(inner, seed, seed_doms),
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

// --- plans ----------------------------------------------------------------

/// The strategy tree. Construction of the specialized nodes requires the
/// corresponding certificate; see the module docs.
#[derive(Debug, Clone)]
pub struct Plan {
    node: PlanNode,
    /// Parallelism knob for the plan's semi-naive phases (sequential by
    /// default; see [`Plan::parallelize`]).
    par: Parallelism,
    /// Byte budget for any dense bitset working set this plan's execution
    /// may allocate — the `DenseClosure` node's own budget lives in the
    /// node, but exact-power chains (`RedundancyBounded`) also take a
    /// dense fast path, and it must honor the same knob. Defaults to
    /// [`dense::DEFAULT_DENSE_BUDGET_BYTES`]; [`Analysis::plan_with`]
    /// overwrites it with [`CostModel::dense_budget_bytes`].
    dense_budget_bytes: usize,
    /// How this plan was chosen and what it cost ([`Plan::decision`]).
    /// Shared so a published snapshot can hold the record without a copy;
    /// the rare writers go through [`Arc::make_mut`].
    decision: Arc<PlanDecision>,
}

impl Plan {
    /// A hand-constructed plan over `node`, leaning on `certificates`.
    fn make(node: PlanNode, certificates: Vec<(CertKind, String)>) -> Plan {
        let decision = PlanDecision::constructed(node.shape(), certificates);
        Plan {
            node,
            par: Parallelism::sequential(),
            dense_budget_bytes: dense::DEFAULT_DENSE_BUDGET_BYTES,
            decision: Arc::new(decision),
        }
    }

    fn picked_by(mut self, by: PickedBy) -> Plan {
        self.decision_mut().picked_by = by;
        self
    }
}

#[derive(Debug, Clone)]
enum PlanNode {
    Direct {
        rules: Vec<LinearRule>,
    },
    Naive {
        rules: Vec<LinearRule>,
    },
    BoundedPrefix {
        cert: BoundednessCert,
    },
    Decomposed {
        cert: CommutativityCert,
    },
    Separable {
        cert: SeparabilityCert,
        sel: Selection,
    },
    RedundancyBounded {
        cert: Box<RedundancyCert>,
    },
    DenseClosure {
        rule: LinearRule,
        shape: dense::CompositionShape,
        budget_bytes: usize,
    },
    SelectAfter {
        inner: Box<PlanNode>,
        sel: Selection,
    },
}

/// A certificate-free view of a plan's structure, for matching and
/// reporting (certificates stay inside the [`Plan`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanShape {
    /// Semi-naive over the rule sum.
    Direct,
    /// Naive fixpoint (baseline).
    Naive,
    /// `A* = Σ_{m<N} Aᵐ` with the certified application count.
    BoundedPrefix {
        /// Number of operator applications (`N − 1`).
        applications: usize,
    },
    /// One star per commuting cluster (rule indices).
    Decomposed {
        /// The certified clusters.
        clusters: Vec<Vec<usize>>,
    },
    /// `outer* (σ inner*)`.
    Separable,
    /// Theorem 4.2 bounded evaluation of a redundant factor.
    RedundancyBounded,
    /// Logarithmic transitive closure by boolean-matrix power doubling
    /// over a dense bitset remap (sparse semi-naive fallback if the
    /// runtime domain exceeds the byte budget).
    DenseClosure,
    /// Apply a selection to an inner plan's result.
    SelectAfter(Box<PlanShape>),
}

impl PlanShape {
    /// Short stable label for the *core* shape (a `SelectAfter` wrapper
    /// reports its inner shape) — the key the decision journal and the
    /// drift sentinel group by.
    pub fn label(&self) -> &'static str {
        match self {
            PlanShape::Direct => "Direct",
            PlanShape::Naive => "Naive",
            PlanShape::BoundedPrefix { .. } => "BoundedPrefix",
            PlanShape::Decomposed { .. } => "Decomposed",
            PlanShape::Separable => "Separable",
            PlanShape::RedundancyBounded => "RedundancyBounded",
            PlanShape::DenseClosure => "DenseClosure",
            PlanShape::SelectAfter(inner) => inner.label(),
        }
    }
}

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

/// Instruments one plan phase: opens a `plan.node` span before the phase
/// runs and, on [`Phase::finish`], stamps the wall time into the
/// [`TraceStep`] and the `linrec_engine_plan_node_ns` histogram.
struct Phase {
    sp: linrec_obs::Span,
    start: Option<std::time::Instant>,
}

impl Phase {
    fn begin(node: &'static str) -> Phase {
        let mut sp = linrec_obs::span("plan.node");
        sp.attr("node", node);
        Phase {
            sp,
            start: linrec_obs::enabled().then(std::time::Instant::now),
        }
    }

    fn finish(mut self, label: String, stats: EvalStats) -> TraceStep {
        let nanos = self
            .start
            .map(|t| t.elapsed().as_nanos() as u64)
            .unwrap_or(0);
        if self.start.is_some() {
            crate::profile::plan().node_ns.observe(nanos);
            self.sp.attr("label", &label);
            self.sp.attr("derivations", stats.derivations);
            self.sp.attr("tuples", stats.tuples);
        }
        TraceStep {
            label,
            stats,
            nanos,
        }
    }
}

impl Plan {
    /// Semi-naive evaluation of `(Σ rules)*` — always licensed.
    pub fn direct(rules: impl Into<Vec<LinearRule>>) -> Plan {
        Plan::make(
            PlanNode::Direct {
                rules: rules.into(),
            },
            Vec::new(),
        )
    }

    /// Naive fixpoint — always licensed (substrate baseline).
    pub fn naive(rules: impl Into<Vec<LinearRule>>) -> Plan {
        Plan::make(
            PlanNode::Naive {
                rules: rules.into(),
            },
            Vec::new(),
        )
    }

    /// Exhaust a uniformly bounded recursion in `N − 1` applications.
    /// Licensed by a [`BoundednessCert`].
    pub fn bounded_prefix(cert: BoundednessCert) -> Plan {
        let certificates = vec![(CertKind::Boundedness, cert.rationale().to_owned())];
        Plan::make(PlanNode::BoundedPrefix { cert }, certificates)
    }

    /// One star per commuting cluster, right-to-left. Licensed by a
    /// [`CommutativityCert`].
    pub fn decomposed(cert: CommutativityCert) -> Plan {
        let certificates = vec![(CertKind::Commutativity, cert.rationale().to_owned())];
        Plan::make(PlanNode::Decomposed { cert }, certificates)
    }

    /// The separable algorithm `outer* (σ inner*)` (Algorithm 4.1).
    /// Licensed by a [`SeparabilityCert`] for the operator pair; the
    /// selection premise (σ commutes with `outer`) is checked here and is
    /// the only way construction can fail.
    pub fn separable(cert: SeparabilityCert, sel: Selection) -> Result<Plan, StrategyError> {
        if !sel.commutes_with(cert.outer()) {
            return Err(StrategyError::SelectionDoesNotCommute);
        }
        let certificates = vec![(CertKind::Separability, cert.rationale().to_owned())];
        Ok(Plan::make(PlanNode::Separable { cert, sel }, certificates))
    }

    /// Theorem 4.2 bounded evaluation. Licensed by a [`RedundancyCert`].
    pub fn redundancy_bounded(cert: RedundancyCert) -> Plan {
        let certificates = vec![(CertKind::Redundancy, cert.rationale().to_owned())];
        Plan::make(
            PlanNode::RedundancyBounded {
                cert: Box::new(cert),
            },
            certificates,
        )
    }

    /// Dense transitive closure by power doubling: `init ∪ init∘q⁺`
    /// (right-linear) or `init ∪ q⁺∘init` (left-linear) over u64-word
    /// adjacency matrices. Licensed by the **composition shape** of the
    /// rule ([`crate::dense::composition_shape`]) — the syntactic witness
    /// that operator powers are boolean matrix powers — and construction
    /// fails without it. `budget_bytes` caps the runtime working set
    /// (three `domain × words` matrices); execution falls back to the
    /// sparse star when the actual domain exceeds it.
    pub fn dense_closure(rule: LinearRule, budget_bytes: usize) -> Result<Plan, StrategyError> {
        let shape = dense::composition_shape(&rule).ok_or_else(|| {
            StrategyError::MissingCertificate(
                "dense closure needs a composition-shaped rule \
                 (binary head, one binary EDB atom threading the middle variable)"
                    .to_owned(),
            )
        })?;
        Ok(Plan::dense_closure_of(rule, shape, budget_bytes))
    }

    /// [`Plan::dense_closure`] for a caller that already holds `rule`'s
    /// composition shape.
    fn dense_closure_of(
        rule: LinearRule,
        shape: dense::CompositionShape,
        budget_bytes: usize,
    ) -> Plan {
        Plan::make(
            PlanNode::DenseClosure {
                rule,
                shape,
                budget_bytes,
            },
            vec![(CertKind::CompositionShape, shape.rationale())],
        )
    }

    /// Apply `sel` to `inner`'s result — always licensed (`σ` after star).
    /// The wrapper keeps `inner`'s knobs and decision record.
    pub fn select_after(mut inner: Plan, sel: Selection) -> Plan {
        inner.node = PlanNode::SelectAfter {
            inner: Box::new(inner.node),
            sel,
        };
        inner.decision_mut().winner = inner.node.shape();
        inner
    }

    /// The parallelism knob the plan's semi-naive phases execute with.
    pub fn parallelism(&self) -> &Parallelism {
        &self.par
    }

    /// Cap the dense bitset working set of the plan's exact-power fast
    /// paths at `bytes` (see [`CostModel::dense_budget_bytes`]; `0`
    /// keeps those paths fully sparse). [`Analysis::plan_with`] applies
    /// the active model's budget automatically; call this only when
    /// executing a hand-built plan under a non-default budget.
    pub fn with_dense_budget(mut self, bytes: usize) -> Plan {
        self.dense_budget_bytes = bytes;
        self
    }

    /// Attach a parallelism knob unconditionally (no cost-model gate; the
    /// per-round `min_delta` stays whatever `par` carries). Prefer
    /// [`Plan::parallelize`], which lets the cost model set the cutover
    /// and records the decision.
    pub fn with_parallelism(mut self, par: Parallelism) -> Plan {
        self.par = par;
        self
    }

    /// Offer the plan up to `par.threads()`-way sharded fixpoint rounds,
    /// letting `model` decide whether the data can ever pay for them: the
    /// model estimates the recursion's **peak per-round delta** and
    /// compares it against the [`CostModel::parallel_cutover`] for this
    /// thread count (the delta size at which sharding overhead is
    /// recouped). If the peak clears the cutover, the knob is attached
    /// with `min_delta = cutover`, so each individual round still gates
    /// itself at runtime (early/late rounds with tiny deltas stay
    /// sequential); otherwise the plan stays fully sequential. Either
    /// way, the decision record gets the [`ParallelVerdict`] with both
    /// figures.
    ///
    /// Only semi-naive star/resume phases parallelize (`Direct`,
    /// `Decomposed` clusters, `Separable`'s stars); the exact-power chains
    /// of `BoundedPrefix`/`RedundancyBounded` run over images that the
    /// certificates already bound to few applications.
    pub fn parallelize(
        mut self,
        par: &Parallelism,
        model: &CostModel,
        db: &Database,
        init: &Relation,
    ) -> Plan {
        if !par.is_parallel() {
            return self;
        }
        let mut verdict = ParallelVerdict {
            engaged: false,
            threads: par.threads(),
            est_peak_delta: 0.0,
            cutover: None,
        };
        if self.node.has_parallel_phase() {
            let cutover = model.parallel_cutover(par.threads());
            verdict.est_peak_delta = model.estimated_peak_delta(&self.node.star_rules(), db, init);
            verdict.cutover = Some(cutover);
            verdict.engaged = verdict.est_peak_delta >= cutover as f64;
            if verdict.engaged {
                self.par = par.clone().with_min_delta(cutover);
            }
        }
        self.decision_mut().parallel = Some(verdict);
        self
    }

    /// Why this plan: the one record of how it was chosen, which
    /// certificates it leans on and — after [`Plan::execute_feedback`] —
    /// what it actually cost. Its `Display` form is the rendered
    /// rationale.
    pub fn decision(&self) -> &PlanDecision {
        &self.decision
    }

    /// Mutable access to the decision record, for callers that amend it —
    /// the service stamps the owning view's name and maintenance mode.
    pub fn decision_mut(&mut self) -> &mut PlanDecision {
        Arc::make_mut(&mut self.decision)
    }

    /// The decision record as a shared handle (what a published view
    /// snapshot keeps).
    pub fn shared_decision(&self) -> Arc<PlanDecision> {
        Arc::clone(&self.decision)
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
        // Calibration drift: estimated over actual derivations, ×1000
        // (1000 = perfect). Observed whenever feedback execution closes
        // the loop, so the histogram tracks drift across the fleet of
        // plans, not one.
        if linrec_obs::enabled() {
            let dec = self.decision();
            if let Some(ratio) = dec.ratio() {
                let permille = (ratio * 1000.0).clamp(0.0, u64::MAX as f64) as u64;
                crate::profile::plan().estimate_actual.observe(permille);
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

    /// The certificate-free structure of the plan.
    pub fn shape(&self) -> PlanShape {
        self.node.shape()
    }

    /// A multi-line, indented rendering of the plan tree, closed by the
    /// rendered decision record on a `rationale:` line.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        self.node.describe_into(&mut out, 0);
        out.push_str(&format!("  rationale: {}\n", self.decision));
        out
    }

    /// Run the plan over `db` starting from `init`.
    ///
    /// One scan/index cache ([`Indexes`]) is shared across every phase of
    /// the plan tree — the database is immutable for the whole execution,
    /// so decomposed clusters and redundancy-bounded branches reuse the
    /// EDB scans and indexes the first phase built.
    pub fn execute(&self, db: &Database, init: &Relation) -> Result<ExecOutcome, StrategyError> {
        let mut trace = Vec::new();
        let mut indexes = Indexes::new();
        let (relation, mut stats) = self.run(&self.node, db, init, &mut trace, &mut indexes)?;
        stats.tuples = relation.len();
        Ok(ExecOutcome {
            relation,
            stats,
            trace,
        })
    }

    /// The incremental form of the plan: extend `total` in place to the
    /// plan's fixpoint, applying its rules only to the frontier `delta`
    /// and to what that derives, under the caller's `indexes` cache and
    /// `par` knob. Preconditions are [`seminaive_resume`]'s: `delta ⊆
    /// total`, and `total` closed under the rules except through `delta`.
    /// [`Plan::execute`] is the `total = delta = init` case of the same
    /// per-shape code.
    ///
    /// * `Direct`, `Naive`, `DenseClosure` resume over the rule sum
    ///   (always sound; a dense-planned view is maintained sparsely);
    /// * `BoundedPrefix` resumes under the certified round cap;
    /// * `Decomposed` resumes cluster by cluster, right-to-left — the
    ///   certificate is a property of the rules, not of the data, so it
    ///   licenses `B'* C'* (V ∪ Δ₀)` for every later delta and produces no
    ///   more duplicates than the rule-sum resume (Theorem 3.1);
    /// * `Separable`, `RedundancyBounded` and `SelectAfter` have no
    ///   incremental form: `None`, with `total` untouched — the caller
    ///   re-executes the plan.
    pub fn resume(
        &self,
        db: &Database,
        total: &mut Relation,
        delta: Relation,
        indexes: &mut Indexes,
        par: &Parallelism,
    ) -> Option<EvalStats> {
        resume_node(&self.node, db, total, delta, indexes, par, &mut None)
    }

    fn run(
        &self,
        node: &PlanNode,
        db: &Database,
        init: &Relation,
        trace: &mut Vec<TraceStep>,
        indexes: &mut Indexes,
    ) -> Result<(Relation, EvalStats), StrategyError> {
        match node {
            PlanNode::Naive { rules } => {
                let phase = Phase::begin("naive");
                let (rel, stats) = naive_star(rules, db, init);
                trace.push(phase.finish(
                    format!("naive fixpoint over {} rule(s)", rules.len()),
                    stats,
                ));
                Ok((rel, stats))
            }
            PlanNode::Separable { cert, sel } => exec_separable(
                cert.outer(),
                cert.inner(),
                sel,
                db,
                init,
                trace,
                indexes,
                &self.par,
            ),
            PlanNode::RedundancyBounded { cert } => {
                exec_redundancy_bounded(cert, db, init, trace, indexes, self.dense_budget_bytes)
            }
            PlanNode::DenseClosure {
                rule,
                shape,
                budget_bytes,
            } => {
                let phase = Phase::begin("dense-closure");
                let (rel, stats, label) =
                    match dense::eval_composition(shape, db, init, *budget_bytes) {
                        Some((rel, stats)) => (
                            rel,
                            stats,
                            format!("dense closure by squaring over '{}'", shape.edge),
                        ),
                        // The actual domain outgrew the planner's estimate (or
                        // the seed is not binary): evaluate sparse, identical
                        // semantics.
                        None => {
                            let rules = std::slice::from_ref(rule);
                            let (rel, stats) = star_from(rules, db, init, None, indexes, &self.par);
                            let label =
                                "dense budget exceeded at runtime; sparse semi-naive fallback";
                            (rel, stats, label.to_owned())
                        }
                    };
                trace.push(phase.finish(label, stats));
                Ok((rel, stats))
            }
            PlanNode::SelectAfter { inner, sel } => {
                let (rel, mut stats) = self.run(inner, db, init, trace, indexes)?;
                let phase = Phase::begin("select-after");
                let out = sel.apply(&rel);
                stats.tuples = out.len();
                trace.push(phase.finish(
                    format!("selection σ {:?}", sel.bindings()),
                    EvalStats {
                        tuples: out.len(),
                        ..EvalStats::default()
                    },
                ));
                Ok((out, stats))
            }
            // The remaining shapes run their incremental form from
            // `total = delta = init`. A bounded prefix is few rounds over
            // small images: it stays sequential whatever the knob.
            PlanNode::Direct { .. }
            | PlanNode::BoundedPrefix { .. }
            | PlanNode::Decomposed { .. } => {
                let par = match node {
                    PlanNode::BoundedPrefix { .. } => &Parallelism::sequential(),
                    _ => &self.par,
                };
                let mut total = init.clone();
                let delta = init.clone();
                let Some(stats) =
                    resume_node(node, db, &mut total, delta, indexes, par, &mut Some(trace))
                else {
                    unreachable!("Direct, BoundedPrefix and Decomposed have an incremental form")
                };
                Ok((total, stats))
            }
        }
    }
}

/// Run one phase of an incremental form. From scratch (`trace` present) it
/// is a `plan.node` span and a [`TraceStep`]; in maintenance it is only the
/// work — the batch's trace stays `view.maintain → engine.fixpoint`.
fn phase(
    trace: &mut Option<&mut Vec<TraceStep>>,
    node: &'static str,
    label: impl FnOnce() -> String,
    work: impl FnOnce() -> EvalStats,
) -> EvalStats {
    let Some(trace) = trace else {
        return work();
    };
    let phase = Phase::begin(node);
    let stats = work();
    trace.push(phase.finish(label(), stats));
    stats
}

/// [`Plan::resume`] for one node; also the from-scratch execution of the
/// resumable shapes, which [`Plan::run`] enters with `total = delta = init`
/// and a `trace` to record the phases in.
fn resume_node(
    node: &PlanNode,
    db: &Database,
    total: &mut Relation,
    delta: Relation,
    indexes: &mut Indexes,
    par: &Parallelism,
    trace: &mut Option<&mut Vec<TraceStep>>,
) -> Option<EvalStats> {
    let (name, rules, round_cap) = match node {
        PlanNode::Direct { rules } | PlanNode::Naive { rules } => ("direct", &rules[..], None),
        PlanNode::DenseClosure { rule, .. } => ("direct", std::slice::from_ref(rule), None),
        PlanNode::BoundedPrefix { cert } => (
            "bounded-prefix",
            std::slice::from_ref(cert.rule()),
            Some(cert.applications()),
        ),
        PlanNode::Decomposed { cert } => {
            // Each cluster starts from everything derived since `total`
            // was last closed, so a later cluster sees the earlier
            // clusters' consequences. When that frontier is all of `total`
            // (from scratch: total = delta = init) `total` itself is the
            // record of it; otherwise the driver collects it.
            let mut frontier = (delta.len() < total.len()).then_some(delta);
            let mut stats = EvalStats::default();
            for cluster in cert.clusters().iter().rev() {
                let group: Vec<LinearRule> =
                    cluster.iter().map(|&i| cert.rules()[i].clone()).collect();
                let start = frontier.as_ref().unwrap_or(total).clone();
                stats += phase(
                    trace,
                    "decomposed-cluster",
                    || format!("star of cluster {cluster:?}"),
                    || {
                        seminaive_resume(
                            &group,
                            db,
                            total,
                            start,
                            None,
                            indexes,
                            par,
                            frontier.as_mut(),
                        )
                    },
                );
            }
            stats.tuples = total.len();
            return Some(stats);
        }
        PlanNode::Separable { .. }
        | PlanNode::RedundancyBounded { .. }
        | PlanNode::SelectAfter { .. } => return None,
    };
    Some(phase(
        trace,
        name,
        || match round_cap {
            Some(cap) => format!("bounded prefix (≤ {cap} applications)"),
            None => format!("semi-naive star over {} rule(s)", rules.len()),
        },
        || seminaive_resume(rules, db, total, delta, round_cap, indexes, par, None),
    ))
}

impl PlanNode {
    fn shape(&self) -> PlanShape {
        match self {
            PlanNode::Direct { .. } => PlanShape::Direct,
            PlanNode::Naive { .. } => PlanShape::Naive,
            PlanNode::BoundedPrefix { cert } => PlanShape::BoundedPrefix {
                applications: cert.applications(),
            },
            PlanNode::Decomposed { cert } => PlanShape::Decomposed {
                clusters: cert.clusters().to_vec(),
            },
            PlanNode::Separable { .. } => PlanShape::Separable,
            PlanNode::RedundancyBounded { .. } => PlanShape::RedundancyBounded,
            PlanNode::DenseClosure { .. } => PlanShape::DenseClosure,
            PlanNode::SelectAfter { inner, .. } => PlanShape::SelectAfter(Box::new(inner.shape())),
        }
    }

    /// Does executing this node ever consult the parallelism knob? Only
    /// the semi-naive star/resume phases shard; the exact-power chains of
    /// `BoundedPrefix`/`RedundancyBounded` and the naive baseline do not,
    /// so claiming parallel rounds for them would misreport the run.
    fn has_parallel_phase(&self) -> bool {
        match self {
            PlanNode::Direct { .. } | PlanNode::Decomposed { .. } | PlanNode::Separable { .. } => {
                true
            }
            PlanNode::Naive { .. }
            | PlanNode::BoundedPrefix { .. }
            | PlanNode::RedundancyBounded { .. }
            | PlanNode::DenseClosure { .. } => false,
            PlanNode::SelectAfter { inner, .. } => inner.has_parallel_phase(),
        }
    }

    /// The rules whose star(s) the node evaluates (delta-recurrence input
    /// for the parallel decision).
    fn star_rules(&self) -> Vec<LinearRule> {
        match self {
            PlanNode::Direct { rules } | PlanNode::Naive { rules } => rules.clone(),
            PlanNode::BoundedPrefix { cert } => vec![cert.rule().clone()],
            PlanNode::Decomposed { cert } => cert.rules().to_vec(),
            PlanNode::Separable { cert, .. } => {
                vec![cert.outer().clone(), cert.inner().clone()]
            }
            PlanNode::RedundancyBounded { cert } => vec![cert.rule().clone()],
            PlanNode::DenseClosure { rule, .. } => vec![rule.clone()],
            PlanNode::SelectAfter { inner, .. } => inner.star_rules(),
        }
    }

    fn describe_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            PlanNode::Direct { rules } => {
                out.push_str(&format!("{pad}Direct ({} rules)\n", rules.len()));
            }
            PlanNode::Naive { rules } => {
                out.push_str(&format!("{pad}Naive ({} rules)\n", rules.len()));
            }
            PlanNode::BoundedPrefix { cert } => {
                out.push_str(&format!(
                    "{pad}BoundedPrefix (≤ {} applications)\n",
                    cert.applications()
                ));
            }
            PlanNode::Decomposed { cert } => {
                out.push_str(&format!(
                    "{pad}Decomposed ({} clusters, applied right-to-left)\n",
                    cert.clusters().len()
                ));
                for cluster in cert.clusters().iter().rev() {
                    let rules: Vec<String> = cluster
                        .iter()
                        .map(|&i| cert.rules()[i].to_string())
                        .collect();
                    out.push_str(&format!("{pad}  star of {{ {} }}\n", rules.join("  +  ")));
                }
            }
            PlanNode::Separable { cert, sel } => {
                out.push_str(&format!("{pad}Separable outer*(σ inner*)\n"));
                out.push_str(&format!("{pad}  outer: {}\n", cert.outer()));
                out.push_str(&format!(
                    "{pad}  inner: {} (absorbs σ {:?})\n",
                    cert.inner(),
                    sel.bindings()
                ));
            }
            PlanNode::RedundancyBounded { cert } => {
                let dec = cert.decomposition();
                out.push_str(&format!(
                    "{pad}RedundancyBounded ({} elided after {} C-applications)\n",
                    cert.pred(),
                    (dec.torsion.n - 1) * dec.l
                ));
                out.push_str(&format!("{pad}  B: {}\n", dec.b));
                out.push_str(&format!("{pad}  C: {}\n", dec.c));
            }
            PlanNode::DenseClosure {
                rule,
                shape,
                budget_bytes,
            } => {
                out.push_str(&format!(
                    "{pad}DenseClosure over '{}' (≤ {} MiB working set)\n",
                    shape.edge,
                    budget_bytes >> 20
                ));
                out.push_str(&format!("{pad}  rule: {rule}\n"));
            }
            PlanNode::SelectAfter { inner, sel } => {
                out.push_str(&format!("{pad}SelectAfter σ {:?}\n", sel.bindings()));
                inner.describe_into(out, depth + 1);
            }
        }
    }
}

/// The separable algorithm (Algorithm 4.1): `outer* (σ inner*)`, pushing
/// the selection into `inner`'s parameter relations when the binding
/// closure allows it.
#[allow(clippy::too_many_arguments)]
fn exec_separable(
    outer: &LinearRule,
    inner: &LinearRule,
    sel: &Selection,
    db: &Database,
    init: &Relation,
    trace: &mut Vec<TraceStep>,
    indexes: &mut Indexes,
    par: &Parallelism,
) -> Result<(Relation, EvalStats), StrategyError> {
    // Re-checked so a cloned-and-mutated selection cannot sneak past the
    // constructor check (construction already guarantees it for planner
    // paths).
    if !sel.commutes_with(outer) {
        return Err(StrategyError::SelectionDoesNotCommute);
    }
    let (selected, mut stats) = if magic_applicable(inner, sel) {
        // The magic phase runs over an augmented scratch database, so it
        // keeps its own internal cache rather than sharing `indexes`.
        let phase = Phase::begin("separable-inner-magic");
        let (rel, s) = eval_selected_star(inner, db, init, sel);
        trace.push(phase.finish("σ-pushed inner star (magic frontier)".to_owned(), s));
        (rel, s)
    } else {
        let phase = Phase::begin("separable-inner");
        let (full, mut s) = star_from(std::slice::from_ref(inner), db, init, None, indexes, par);
        let rel = sel.apply(&full);
        s.tuples = rel.len();
        trace.push(phase.finish(
            "inner star, then σ (push-down not applicable)".to_owned(),
            s,
        ));
        (rel, s)
    };
    let phase = Phase::begin("separable-outer");
    let (result, s2) = star_from(
        std::slice::from_ref(outer),
        db,
        &selected,
        None,
        indexes,
        par,
    );
    trace.push(phase.finish("outer star over the selected relation".to_owned(), s2));
    stats += s2;
    // σ commutes with `outer`, so the result is already σ-selected; apply
    // once more for belt and braces (cheap, and keeps the contract obvious).
    let out = sel.apply(&result);
    stats.tuples = out.len();
    Ok((out, stats))
}

/// Redundancy-bounded evaluation (Theorem 4.2 via the Theorem 6.4
/// witnesses): with `Aᴸ = BCᴸ`, `Cᴺ = Cᴷ`, and period `P = N−K`,
///
/// ```text
/// A*q = Σ_{m<KL} Aᵐq  ∪  Σ_{n<L} Aⁿ ( Σ_{r<P} B( C^{(K+r)L} ( (Bᴾ)* ( B^{K−1+r} q ))))
/// ```
///
/// an identity obtained from `A^{mL} = B·C^{mL}·B^{m−1}` (first equality of
/// Theorem 6.4 plus the `Cᴸ`-commutation) and the torsion collapse
/// `C^{mL} = C^{g(m)L}`. `C` is applied at most `(N−1)·L` times per branch —
/// the paper's "C is processed only a fixed finite number of times, beyond
/// which only B is processed".
fn exec_redundancy_bounded(
    cert: &RedundancyCert,
    db: &Database,
    init: &Relation,
    trace: &mut Vec<TraceStep>,
    indexes: &mut Indexes,
    dense_budget_bytes: usize,
) -> Result<(Relation, EvalStats), StrategyError> {
    let rule = cert.rule();
    let dec = cert.decomposition();
    let (k, n, l) = (dec.torsion.k, dec.torsion.n, dec.l);
    let period = n - k;
    let mut stats = EvalStats::default();

    // Part 1: Σ_{m=0}^{KL-1} Aᵐ q.
    let phase = Phase::begin("redundancy-prefix");
    let seq = Parallelism::sequential();
    let rules = std::slice::from_ref(rule);
    let (mut result, s1) = star_from(rules, db, init, Some(k * l - 1), indexes, &seq);
    trace.push(phase.finish(format!("prefix Σ_{{m<{}}} Aᵐ q", k * l), s1));
    stats += s1;

    // (Bᴾ)* is evaluated with the composed rule Bᴾ.
    let b_period = linrec_cq::power(&dec.b, period)?;

    // Part 2 inner sums.
    let phase = Phase::begin("redundancy-branches");
    let branch_stats_before = stats;
    let mut acc = Relation::new(rule.arity());
    let budget = dense_budget_bytes;
    let mut img = exact_power_in(&dec.b, db, init, k - 1, &mut stats, indexes, budget); // B^{K-1} q
    for r in 0..period {
        if r > 0 {
            img = exact_power_in(&dec.b, db, &img, 1, &mut stats, indexes, budget);
            // B^{K-1+r} q
        }
        let (bstar, s) = star_from(
            std::slice::from_ref(&b_period),
            db,
            &img,
            None,
            indexes,
            &seq,
        );
        stats += s;
        let after_c = exact_power_in(&dec.c, db, &bstar, (k + r) * l, &mut stats, indexes, budget);
        let with_b = exact_power_in(&dec.b, db, &after_c, 1, &mut stats, indexes, budget);
        acc.union_in_place(&with_b);
    }

    // Σ_{n<L} Aⁿ (acc).
    let mut cur = acc.clone();
    result.union_in_place(&acc);
    for _ in 1..l {
        cur = exact_power_in(rule, db, &cur, 1, &mut stats, indexes, budget);
        result.union_in_place(&cur);
    }
    {
        let mut branch = stats;
        branch.iterations -= branch_stats_before.iterations;
        branch.applications -= branch_stats_before.applications;
        branch.derivations -= branch_stats_before.derivations;
        branch.duplicates -= branch_stats_before.duplicates;
        trace.push(phase.finish(
            format!(
                "{period} periodic branch(es) with C bounded at {} applications",
                (n - 1) * l
            ),
            branch,
        ));
    }

    stats.tuples = result.len();
    Ok((result, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{rules, workload, MaintenanceMode};
    use linrec_datalog::{parse_linear_rule, Symbol, Value};

    fn updown() -> Vec<LinearRule> {
        vec![rules::down_rule(), rules::up_rule()]
    }

    #[test]
    fn analysis_licenses_decomposition_for_up_down() {
        let rules = updown();
        let analysis = Analysis::of(&rules, None);
        let plan = analysis.plan();
        assert!(matches!(plan.shape(), PlanShape::Decomposed { .. }));
        let dec = plan.decision();
        assert_eq!(dec.winner, plan.shape());
        assert_eq!(dec.picked_by, PickedBy::FixedPriority);
        let cert = analysis.commutativity().unwrap();
        assert_eq!(
            dec.certificates,
            [(CertKind::Commutativity, cert.rationale().to_owned())]
        );

        let (db, init) = workload::up_down(5, 3);
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
        let plan = analysis.plan();
        assert_eq!(plan.shape(), PlanShape::Separable);

        let (db, init) = workload::up_down(5, 3);
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
        let plan = analysis.plan();
        assert_eq!(plan.shape(), PlanShape::BoundedPrefix { applications: 1 });

        let mut db = Database::new();
        db.set_relation("mark", Relation::from_tuples(1, [vec![Value::Int(1)]]));
        let init = Relation::from_pairs([(1, 5), (2, 6)]);
        let outcome = plan.execute(&db, &init).unwrap();
        assert_eq!(outcome.relation.len(), 2);
        assert!(outcome.stats.iterations <= 1);
    }

    #[test]
    fn analysis_licenses_redundancy_bounded_for_shopping() {
        let rule = rules::shopping_rule();
        let analysis = Analysis::of(std::slice::from_ref(&rule), None);
        assert!(analysis.redundancy().is_some());
        let plan = analysis.plan();
        assert_eq!(plan.shape(), PlanShape::RedundancyBounded);

        let (db, init) = workload::shopping(40, 10, 3, 5);
        let bounded = plan.execute(&db, &init).unwrap();
        let direct = Plan::direct(vec![rule]).execute(&db, &init).unwrap();
        assert_eq!(bounded.relation.sorted(), direct.relation.sorted());
    }

    #[test]
    fn resume_has_a_form_exactly_where_the_maintenance_label_says_so() {
        // `MaintenanceMode::of` labels what `Plan::resume` does; the two
        // must agree on which shapes have no incremental form.
        let sel = Selection::eq(1, (1i64 << 6) + 1);
        let bounded = parse_linear_rule("p(x,y) :- p(x,y), mark(x).").unwrap();
        let plans = vec![
            Plan::direct(updown()),
            Plan::naive(updown()),
            Analysis::of(&updown(), None).plan(),
            Analysis::of(&[bounded], None).plan(),
            Plan::dense_closure(rules::tc_right(), dense::DEFAULT_DENSE_BUDGET_BYTES).unwrap(),
            Analysis::of(&[rules::shopping_rule()], None).plan(),
            Analysis::of(&updown(), Some(&sel)).plan(),
            Plan::select_after(Analysis::of(&updown(), None).plan(), sel.clone()),
            Plan::select_after(Plan::direct(updown()), sel),
        ];
        for plan in plans {
            let mut total = Relation::new(2);
            let resumed = plan.resume(
                &Database::new(),
                &mut total,
                Relation::new(2),
                &mut Indexes::new(),
                &Parallelism::sequential(),
            );
            assert_eq!(
                resumed.is_none(),
                MaintenanceMode::of(&plan.shape()) == MaintenanceMode::Recompute,
                "{:?}",
                plan.shape()
            );
        }
    }

    #[test]
    fn certificate_less_rule_sets_fall_back_to_direct() {
        let rules = vec![
            parse_linear_rule("p(x,y) :- p(x,z), a(z,y).").unwrap(),
            parse_linear_rule("p(x,y) :- p(x,z), b(z,y).").unwrap(),
        ];
        let analysis = Analysis::of(&rules, None);
        assert!(analysis.has_no_certificates());
        assert_eq!(analysis.plan().shape(), PlanShape::Direct);

        let sel = Selection::eq(0, 1);
        let analysis = Analysis::of(&rules, Some(&sel));
        assert_eq!(
            analysis.plan().shape(),
            PlanShape::SelectAfter(Box::new(PlanShape::Direct))
        );
    }

    #[test]
    fn separable_construction_rejects_noncommuting_selection() {
        // σ on position 1 does not commute with the down-rule.
        let cert = SeparabilityCert::establish(&rules::down_rule(), &rules::up_rule())
            .unwrap()
            .unwrap();
        assert_eq!(
            Plan::separable(cert, Selection::eq(1, 4)).unwrap_err(),
            StrategyError::SelectionDoesNotCommute
        );
    }

    #[test]
    fn naive_plan_agrees_with_direct() {
        let rules = updown();
        let (db, init) = workload::up_down(4, 9);
        let a = Plan::direct(rules.clone()).execute(&db, &init).unwrap();
        let b = Plan::naive(rules).execute(&db, &init).unwrap();
        assert_eq!(a.relation.sorted(), b.relation.sorted());
        assert!(b.stats.duplicates >= a.stats.duplicates);
    }

    #[test]
    fn outcome_trace_and_describe_are_informative() {
        let rule = rules::shopping_rule();
        let cert = RedundancyCert::establish(&rule, Symbol::new("cheap"), 8)
            .unwrap()
            .unwrap();
        let plan = Plan::select_after(Plan::redundancy_bounded(cert), Selection::eq(0, 1));
        let text = plan.describe();
        assert!(text.contains("SelectAfter"));
        assert!(text.contains("RedundancyBounded"));
        assert!(text.contains("rationale"));

        let (db, init) = workload::shopping(20, 8, 2, 1);
        let outcome = plan.execute(&db, &init).unwrap();
        assert!(outcome.trace.len() >= 3);
        assert_eq!(outcome.stats.tuples, outcome.relation.len());
    }

    #[test]
    fn cost_model_picks_direct_on_shopping() {
        // The PR 1 regression: RedundancyBounded does fewer derivations on
        // the shopping workload but loses wall-clock to Direct (many small
        // phases over small, dense relations). The cost model must side
        // with Direct here, while the fixed preference order still
        // showcases the certificate.
        let rules = vec![rules::shopping_rule()];
        let analysis = Analysis::of(&rules, None);
        assert_eq!(analysis.plan().shape(), PlanShape::RedundancyBounded);
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
        let b = analysis.plan().execute(&db, &init).unwrap();
        assert_eq!(a.relation.sorted(), b.relation.sorted());
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
    fn cost_model_keeps_decomposition_on_up_down() {
        let rules = updown();
        let analysis = Analysis::of(&rules, None);
        let (db, init) = workload::up_down(6, 7);
        let plan = analysis.plan_for(&db, &init);
        assert!(matches!(plan.shape(), PlanShape::Decomposed { .. }));
        let planned = plan.execute(&db, &init).unwrap();
        let direct = Plan::direct(rules).execute(&db, &init).unwrap();
        assert_eq!(planned.relation.sorted(), direct.relation.sorted());
    }

    #[test]
    fn cost_model_orders_naive_above_direct() {
        let rules = updown();
        let (db, init) = workload::up_down(5, 3);
        let model = CostModel::default();
        let direct = model.estimate(&Plan::direct(rules.clone()), &db, &init);
        let naive = model.estimate(&Plan::naive(rules), &db, &init);
        assert!(direct.is_finite() && naive.is_finite());
        assert!(
            naive > direct,
            "naive ({naive:.3e}) must cost more than direct ({direct:.3e})"
        );
    }

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
    fn plan_for_respects_selection_and_boundedness_preferences() {
        // Boundedness: provably minimal applications — cost model bypassed.
        let rule = parse_linear_rule("p(x,y) :- p(x,y), mark(x).").unwrap();
        let analysis = Analysis::of(std::slice::from_ref(&rule), None);
        let db = Database::new();
        let init = Relation::new(2);
        assert_eq!(
            analysis.plan_for(&db, &init).shape(),
            PlanShape::BoundedPrefix { applications: 1 }
        );

        // Separable stays preferred for selection queries.
        let rules = updown();
        let sel = Selection::eq(1, (1i64 << 6) + 1);
        let analysis = Analysis::of(&rules, Some(&sel));
        let (db, init) = workload::up_down(5, 3);
        assert_eq!(analysis.plan_for(&db, &init).shape(), PlanShape::Separable);
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
    fn parallelize_records_the_decision_and_gates_by_peak_delta() {
        let rules = vec![rules::tc_right()];
        let edges = workload::chain(400);
        let db = workload::graph_db("q", edges.clone());
        // Cheap shard setup so the 400-tuple peak delta clears the
        // 4-thread cutover (the stock constant needs deltas in the
        // hundreds — bench-sized workloads, too slow for a unit test).
        let model = CostModel {
            per_shard_setup: 8.0,
            ..CostModel::default()
        };
        let par = Parallelism::new(4);

        // 400-edge chain: est. peak delta (≈ seed) clears the 4-thread
        // cutover, so the plan goes parallel with the cutover as its
        // per-round gate.
        let plan = Plan::direct(rules.clone()).parallelize(&par, &model, &db, &edges);
        let verdict = plan.decision().parallel.expect("parallelize records");
        assert!(verdict.engaged, "{verdict}");
        assert_eq!(verdict.threads, 4);
        assert_eq!(verdict.cutover, Some(model.parallel_cutover(4)));
        assert!(verdict.est_peak_delta >= model.parallel_cutover(4) as f64);
        assert_eq!(plan.decision().picked_by, PickedBy::Constructed);
        assert!(plan.parallelism().is_parallel());
        assert_eq!(plan.parallelism().min_delta(), model.parallel_cutover(4));
        let a = plan.execute(&db, &edges).unwrap();
        let b = Plan::direct(rules.clone()).execute(&db, &edges).unwrap();
        assert_eq!(a.relation.sorted(), b.relation.sorted());
        assert_eq!(a.stats, b.stats);

        // A tiny workload declines.
        let tiny = workload::chain(6);
        let tiny_db = workload::graph_db("q", tiny.clone());
        let plan = Plan::direct(rules).parallelize(&par, &model, &tiny_db, &tiny);
        let verdict = plan.decision().parallel.expect("parallelize records");
        assert!(!verdict.engaged, "{verdict}");
        assert!(verdict.est_peak_delta < verdict.cutover.unwrap() as f64);
        assert!(!plan.parallelism().is_parallel());

        // A sequential knob is a no-op.
        let plan = Plan::direct(vec![rules::tc_right()]).parallelize(
            &Parallelism::sequential(),
            &model,
            &tiny_db,
            &tiny,
        );
        assert_eq!(plan.decision().parallel, None);
    }

    #[test]
    fn parallelize_declines_shapes_without_shardable_rounds() {
        // BoundedPrefix and RedundancyBounded execute through exact-power
        // chains that never consult the knob — the record must not claim
        // parallel rounds for them.
        let rule = rules::shopping_rule();
        let analysis = Analysis::of(std::slice::from_ref(&rule), None);
        let (db, init) = workload::shopping(200, 30, 4, 99);
        let model = CostModel {
            per_shard_setup: 0.01,
            ..CostModel::default()
        };
        let plan = Plan::redundancy_bounded(analysis.redundancy().expect("licensed").clone())
            .parallelize(&Parallelism::new(4), &model, &db, &init);
        assert_eq!(
            plan.decision().parallel,
            Some(ParallelVerdict {
                engaged: false,
                threads: 4,
                est_peak_delta: 0.0,
                cutover: None,
            })
        );
        assert!(!plan.parallelism().is_parallel());
        // But a SelectAfter over a Direct core still qualifies.
        let plan = Plan::select_after(Plan::direct(vec![rules::tc_right()]), Selection::eq(0, 1));
        assert!(plan.node.has_parallel_phase());
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

    #[test]
    fn parallelize_reaches_through_select_after() {
        let rules = updown();
        let (db, init) = workload::up_down(6, 7);
        let sel = Selection::eq(0, 1);
        let analysis = Analysis::of(&rules, None);
        let plan = Plan::select_after(analysis.plan(), sel)
            .with_parallelism(Parallelism::new(2).with_min_delta(1));
        // The wrapper and the wrapped plan both carry the knob.
        assert!(plan.parallelism().is_parallel());
        let out = plan.execute(&db, &init).unwrap();
        let seq = Plan::select_after(analysis.plan(), Selection::eq(0, 1))
            .execute(&db, &init)
            .unwrap();
        assert_eq!(out.relation.sorted(), seq.relation.sorted());
        assert_eq!(out.stats, seq.stats);
    }

    #[test]
    fn empty_selection_analysis_on_single_rule() {
        // A single unbounded, irredundant rule: plain direct.
        let rule = rules::tc_right();
        let analysis = Analysis::of(std::slice::from_ref(&rule), None);
        assert!(analysis.has_no_certificates());
        let plan = analysis.plan();
        assert_eq!(plan.shape(), PlanShape::Direct);
        let edges = workload::chain(10);
        let db = workload::graph_db("q", edges.clone());
        let outcome = plan.execute(&db, &edges).unwrap();
        assert_eq!(outcome.relation.len(), 55);
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
    fn dense_closure_requires_the_composition_shape() {
        // Two nonrecursive atoms: not relational composition.
        let rule = rules::shopping_rule();
        assert!(matches!(
            Plan::dense_closure(rule, 64 << 20),
            Err(StrategyError::MissingCertificate(_))
        ));
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
