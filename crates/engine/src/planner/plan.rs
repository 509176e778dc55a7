//! The strategy tree: [`Plan`], its certificate-gated constructors, and its
//! *lowering* to the list of stars it evaluates ([`StarSpec`]).
//!
//! This file owns what a plan **is**. It does not know what a plan costs
//! (`cost.rs` reads the star list) or how a star is evaluated (`exec.rs`
//! runs it); a new shape is a new `PlanNode` variant plus its arm in
//! `PlanNode::lower`, and the executor, the estimator, `parallelize` and
//! [`MaintenanceMode::of`] follow from the list.

use super::{CostModel, StrategyError};
use crate::decision::{CertKind, MaintenanceMode, ParallelVerdict, PickedBy, PlanDecision};
use crate::dense;
use crate::parallel::Parallelism;
use crate::selection::Selection;
use linrec_core::{BoundednessCert, CommutativityCert, RedundancyCert, SeparabilityCert};
use linrec_datalog::{Database, LinearRule, Relation};
use std::sync::Arc;

/// The strategy tree. Construction of the specialized nodes requires the
/// corresponding certificate; see the module docs.
#[derive(Debug, Clone)]
pub struct Plan {
    pub(super) node: PlanNode,
    /// Parallelism knob for the plan's semi-naive phases (sequential by
    /// default; see [`Plan::parallelize`]).
    pub(super) par: Parallelism,
    /// Byte budget for any dense bitset working set this plan's execution
    /// may allocate: the `DenseClosure` squaring and the exact-power fast
    /// path of `RedundancyBounded` honor the same knob. Defaults to
    /// [`dense::DEFAULT_DENSE_BUDGET_BYTES`];
    /// [`Analysis::plan_with`](super::Analysis::plan_with) overwrites it
    /// with [`CostModel::dense_budget_bytes`], [`Plan::dense_closure`] with
    /// its argument.
    pub(super) dense_budget_bytes: usize,
    /// How this plan was chosen and what it cost ([`Plan::decision`]).
    /// Shared so a published snapshot can hold the record without a copy;
    /// the rare writers go through [`Arc::make_mut`].
    pub(super) decision: Arc<PlanDecision>,
}

#[derive(Debug, Clone)]
pub(super) enum PlanNode {
    Direct {
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
    },
    SelectAfter {
        inner: Box<PlanNode>,
        sel: Selection,
    },
}

/// One star `(Σ rules)*` over the running total — the unit every plan is
/// built from, and the only thing the executor's backends evaluate.
#[derive(Debug, Clone)]
pub(super) struct StarSpec {
    /// The rules whose sum is starred.
    pub(super) rules: Vec<LinearRule>,
    /// Certified bound on the number of delta rounds, when a boundedness
    /// certificate supplies one.
    pub(super) round_cap: Option<usize>,
    /// May the star's sparse rounds shard over the engine pool? Capped
    /// stars run a few rounds over small images and stay sequential.
    pub(super) shardable: bool,
    /// The composition shape, when the star may run as dense squaring.
    pub(super) dense: Option<dense::CompositionShape>,
    /// The `plan.node` span name and the [`TraceStep`](super::TraceStep)
    /// label of the star as a phase of its own; `None` for a star that
    /// runs inside a larger phase.
    pub(super) phase: Option<(&'static str, String)>,
}

impl StarSpec {
    /// An uncapped, shardable, sparse star inside a larger phase.
    pub(super) fn over(rules: Vec<LinearRule>) -> StarSpec {
        StarSpec {
            rules,
            round_cap: None,
            shardable: true,
            dense: None,
            phase: None,
        }
    }

    pub(super) fn sequential(mut self) -> StarSpec {
        self.shardable = false;
        self
    }

    fn capped(mut self, cap: usize) -> StarSpec {
        self.round_cap = Some(cap);
        self.sequential()
    }

    fn traced_as(mut self, node: &'static str, label: impl Into<String>) -> StarSpec {
        self.phase = Some((node, label.into()));
        self
    }
}

/// What a node lowers to.
pub(super) struct Lowered {
    /// Every star the node evaluates over its own rules, in execution
    /// order.
    pub(super) stars: Vec<StarSpec>,
    /// Is the node's value exactly those stars applied in turn to the
    /// running total? Then the same list, started from a frontier, is its
    /// incremental form.
    product: bool,
}

impl Lowered {
    /// The stars, when the node is their product.
    pub(super) fn product(self) -> Option<Vec<StarSpec>> {
        self.product.then_some(self.stars)
    }
}

/// A certificate-free view of a plan's structure, for matching and
/// reporting (certificates stay inside the [`Plan`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanShape {
    /// Semi-naive over the rule sum.
    Direct,
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
            PlanShape::BoundedPrefix { .. } => "BoundedPrefix",
            PlanShape::Decomposed { .. } => "Decomposed",
            PlanShape::Separable => "Separable",
            PlanShape::RedundancyBounded => "RedundancyBounded",
            PlanShape::DenseClosure => "DenseClosure",
            PlanShape::SelectAfter(inner) => inner.label(),
        }
    }
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

    pub(super) fn picked_by(mut self, by: PickedBy) -> Plan {
        self.decision_mut().picked_by = by;
        self
    }

    /// Semi-naive evaluation of `(Σ rules)*` — always licensed.
    pub fn direct(rules: impl Into<Vec<LinearRule>>) -> Plan {
        Plan::make(
            PlanNode::Direct {
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
        Ok(Plan::dense_closure_of(rule, shape).with_dense_budget(budget_bytes))
    }

    /// [`Plan::dense_closure`] for a caller that already holds `rule`'s
    /// composition shape, under the default budget.
    pub(super) fn dense_closure_of(rule: LinearRule, shape: dense::CompositionShape) -> Plan {
        Plan::make(
            PlanNode::DenseClosure { rule, shape },
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

    /// Cap every dense bitset working set of the plan's execution at
    /// `bytes` (see [`CostModel::dense_budget_bytes`]; `0` keeps it fully
    /// sparse).
    pub(super) fn with_dense_budget(mut self, bytes: usize) -> Plan {
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
    /// Whether any round can shard, and over which rules the peak is
    /// estimated, is read off the plan's star list — the one the executor
    /// runs: `Direct`, `Decomposed` clusters and `Separable`'s stars
    /// shard; the capped stars of `BoundedPrefix`/`RedundancyBounded` run
    /// over images the certificates already bound to few applications, and
    /// `DenseClosure` runs the squaring kernel.
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
        let stars = self.node.lower().stars;
        // A dense star runs the squaring kernel when planned; the knob only
        // reaches its sparse fallback and its resume.
        if stars.iter().any(|s| s.shardable && s.dense.is_none()) {
            let rules: Vec<LinearRule> = stars.into_iter().flat_map(|s| s.rules).collect();
            let cutover = model.parallel_cutover(par.threads());
            verdict.est_peak_delta = model.estimated_peak_delta(&rules, db, init);
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

    /// The certificate-free structure of the plan.
    pub fn shape(&self) -> PlanShape {
        self.node.shape()
    }

    /// A multi-line, indented rendering of the plan tree, closed by the
    /// rendered decision record on a `rationale:` line.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        self.node
            .describe_into(&mut out, 0, self.dense_budget_bytes);
        out.push_str(&format!("  rationale: {}\n", self.decision));
        out
    }
}

impl MaintenanceMode {
    /// The label of `plan`'s incremental form, read off the star list
    /// [`Plan::resume`] executes: one star per commuting cluster, one
    /// capped star, one star over the rule sum — or `Recompute` when the
    /// plan is not a product of stars and `resume` has no form.
    pub fn of(plan: &Plan) -> MaintenanceMode {
        match plan.node.lower().product().as_deref() {
            None => MaintenanceMode::Recompute,
            Some([star]) if star.round_cap.is_some() => MaintenanceMode::IncrementalBounded,
            Some([_]) => MaintenanceMode::Incremental,
            Some(_) => MaintenanceMode::IncrementalDecomposed,
        }
    }
}

impl PlanNode {
    /// The lowering: the stars this node evaluates, and whether it is
    /// their product. The executor runs this list, the estimator prices
    /// it, `parallelize` and [`MaintenanceMode::of`] read it.
    pub(super) fn lower(&self) -> Lowered {
        let rule_sum = |rules: &[LinearRule]| {
            StarSpec::over(rules.to_vec()).traced_as(
                "direct",
                format!("semi-naive star over {} rule(s)", rules.len()),
            )
        };
        let one = |rule: &LinearRule| StarSpec::over(vec![rule.clone()]);
        let (stars, product) = match self {
            PlanNode::Direct { rules } => (vec![rule_sum(rules)], true),
            PlanNode::BoundedPrefix { cert } => {
                let cap = cert.applications();
                let label = format!("bounded prefix (≤ {cap} applications)");
                let star = one(cert.rule()).capped(cap);
                (vec![star.traced_as("bounded-prefix", label)], true)
            }
            // Right-to-left: the certificate is a property of the rules,
            // not of the data, so it licenses `B'* C'* (V ∪ Δ₀)` for every
            // later delta with no more duplicates than the rule-sum resume
            // (Theorem 3.1).
            PlanNode::Decomposed { cert } => {
                let star = |cluster: &Vec<usize>| {
                    let rules = cluster.iter().map(|&i| cert.rules()[i].clone()).collect();
                    StarSpec::over(rules)
                        .traced_as("decomposed-cluster", format!("star of cluster {cluster:?}"))
                };
                (cert.clusters().iter().rev().map(star).collect(), true)
            }
            // The label is the sparse side's: what the phase reports when
            // the actual domain outgrew the planner's estimate (or the
            // seed is not binary) and the star ran sparse, with identical
            // semantics.
            PlanNode::DenseClosure { rule, shape } => {
                let mut star = one(rule).traced_as(
                    "dense-closure",
                    "dense budget exceeded at runtime; sparse semi-naive fallback",
                );
                star.dense = Some(*shape);
                (vec![star], true)
            }
            // `outer* (σ inner*)`: σ sits between the stars, and the inner
            // star shares its phase with it.
            PlanNode::Separable { cert, .. } => {
                let outer = one(cert.outer())
                    .traced_as("separable-outer", "outer star over the selected relation");
                (vec![one(cert.inner()), outer], false)
            }
            // Only the prefix `Σ_{m<KL} Aᵐ q` is a star over the plan's own
            // rule; the branches star the composed `Bᴾ`.
            PlanNode::RedundancyBounded { cert } => {
                let dec = cert.decomposition();
                let kl = dec.torsion.k * dec.l;
                let prefix = one(cert.rule())
                    .capped(kl - 1)
                    .traced_as("redundancy-prefix", format!("prefix Σ_{{m<{kl}}} Aᵐ q"));
                (vec![prefix], false)
            }
            PlanNode::SelectAfter { inner, .. } => (inner.lower().stars, false),
        };
        Lowered { stars, product }
    }

    pub(super) fn shape(&self) -> PlanShape {
        match self {
            PlanNode::Direct { .. } => PlanShape::Direct,
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

    fn describe_into(&self, out: &mut String, depth: usize, dense_budget_bytes: usize) {
        let pad = "  ".repeat(depth);
        match self {
            PlanNode::Direct { rules } => {
                out.push_str(&format!("{pad}Direct ({} rules)\n", rules.len()));
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
            PlanNode::DenseClosure { rule, shape } => {
                out.push_str(&format!(
                    "{pad}DenseClosure over '{}' (≤ {} MiB working set)\n",
                    shape.edge,
                    dense_budget_bytes >> 20
                ));
                out.push_str(&format!("{pad}  rule: {rule}\n"));
            }
            PlanNode::SelectAfter { inner, sel } => {
                out.push_str(&format!("{pad}SelectAfter σ {:?}\n", sel.bindings()));
                inner.describe_into(out, depth + 1, dense_budget_bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::Analysis;
    use super::*;
    use crate::join::Indexes;
    use crate::rules;
    use linrec_datalog::parse_linear_rule;
    use linrec_testkit as workload;

    fn updown() -> Vec<LinearRule> {
        vec![rules::down_rule(), rules::up_rule()]
    }

    // The certified shapes, each built from its certificate.
    fn decomposed() -> Plan {
        let analysis = Analysis::of(&updown(), None);
        Plan::decomposed(analysis.commutativity().unwrap().clone())
    }

    fn bounded() -> Plan {
        let rule = parse_linear_rule("p(x,y) :- p(x,y), mark(x).").unwrap();
        Plan::bounded_prefix(Analysis::of(&[rule], None).boundedness().unwrap().clone())
    }

    fn redundancy_bounded() -> Plan {
        let analysis = Analysis::of(&[rules::shopping_rule()], None);
        Plan::redundancy_bounded(analysis.redundancy().unwrap().clone())
    }

    fn separable(sel: &Selection) -> Plan {
        let analysis = Analysis::of(&updown(), Some(sel));
        Plan::separable(analysis.separability()[0].2.clone(), sel.clone()).unwrap()
    }

    #[test]
    fn resume_has_a_form_exactly_where_the_maintenance_label_says_so() {
        // `MaintenanceMode::of` labels what `Plan::resume` does, and both
        // read the one star list, so they agree on which shapes have no
        // incremental form by construction; this pins that it stays so.
        let sel = Selection::eq(1, (1i64 << 6) + 1);
        let plans = vec![
            Plan::direct(updown()),
            decomposed(),
            bounded(),
            Plan::dense_closure(rules::tc_right(), dense::DEFAULT_DENSE_BUDGET_BYTES).unwrap(),
            redundancy_bounded(),
            separable(&sel),
            Plan::select_after(decomposed(), sel.clone()),
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
                MaintenanceMode::of(&plan) == MaintenanceMode::Recompute,
                "{:?}",
                plan.shape()
            );
        }
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
    fn dense_closure_requires_the_composition_shape() {
        // Two nonrecursive atoms: not relational composition.
        let rule = rules::shopping_rule();
        assert!(matches!(
            Plan::dense_closure(rule, 64 << 20),
            Err(StrategyError::MissingCertificate(_))
        ));
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
        let (db, init) = workload::shopping(200, 30, 4, 99);
        let model = CostModel {
            per_shard_setup: 0.01,
            ..CostModel::default()
        };
        let plan = redundancy_bounded().parallelize(&Parallelism::new(4), &model, &db, &init);
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
        let plan = Plan::select_after(Plan::direct(vec![rules::tc_right()]), Selection::eq(0, 1))
            .parallelize(&Parallelism::new(4), &model, &db, &init);
        assert!(plan
            .decision()
            .parallel
            .expect("recorded")
            .cutover
            .is_some());
    }

    #[test]
    fn parallelize_reaches_through_select_after() {
        let (db, init) = workload::up_down(6, 7);
        let sel = Selection::eq(0, 1);
        let plan = Plan::select_after(decomposed(), sel)
            .with_parallelism(Parallelism::new(2).with_min_delta(1));
        // The wrapper and the wrapped plan both carry the knob.
        assert!(plan.parallelism().is_parallel());
        let out = plan.execute(&db, &init).unwrap();
        let seq = Plan::select_after(decomposed(), Selection::eq(0, 1))
            .execute(&db, &init)
            .unwrap();
        assert_eq!(out.relation.sorted(), seq.relation.sorted());
        assert_eq!(out.stats, seq.stats);
    }

    #[test]
    fn maintenance_mode_follows_the_star_list() {
        let mode = |plan: Plan| MaintenanceMode::of(&plan);
        let sel = Selection::eq(1, (1i64 << 6) + 1);
        assert_eq!(mode(Plan::direct(updown())), MaintenanceMode::Incremental);
        assert_eq!(
            mode(Plan::dense_closure(rules::tc_right(), 64 << 20).unwrap()),
            MaintenanceMode::Incremental
        );
        assert_eq!(mode(bounded()), MaintenanceMode::IncrementalBounded);
        assert_eq!(mode(decomposed()), MaintenanceMode::IncrementalDecomposed);
        for plan in [
            separable(&sel),
            redundancy_bounded(),
            Plan::select_after(Plan::direct(updown()), sel),
        ] {
            assert_eq!(mode(plan), MaintenanceMode::Recompute);
        }
    }
}
