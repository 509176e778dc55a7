//! The one record of a planning decision.
//!
//! Every [`Plan`](crate::Plan) owns exactly one [`PlanDecision`]: which
//! shape won and how it was picked, the candidates the cost model weighed,
//! the certificates the winner leans on, the dense-gate and parallel
//! verdicts, the view and maintenance mode the service derived, the
//! estimate, and — after
//! [`Plan::execute_feedback`](crate::Plan::execute_feedback) — the actual
//! [`EvalStats`]. The planner, the dense gate, `parallelize` and the
//! service each set their fields once; nothing else describes a decision.
//!
//! Two renderings exist, both in this module and both over the typed
//! fields: the [`Display`](fmt::Display) impl is the only producer of
//! decision prose (what `describe()`'s `rationale:` line, `linrec
//! run/explain`, the protocol's `stats`/`explain` and the lint notes
//! print), and [`PlanDecision::to_json`] is the machine form that flows
//! into `linrec_obs::journal` and the on-disk `decisions.log`.

use crate::planner::PlanShape;
use crate::stats::EvalStats;
use linrec_datalog::Symbol;
use linrec_obs::json;
use std::fmt;

/// How the winning shape was picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PickedBy {
    /// Candidates were compared by cost estimate
    /// ([`Analysis::plan_with`](crate::Analysis::plan_with)).
    CostModel,
    /// The paper's fixed preference order decided, skipping the cost
    /// competition: the boundedness / separability short-circuits of
    /// [`Analysis::plan_with`](crate::Analysis::plan_with).
    FixedPriority,
    /// The plan was built by hand through a `Plan::*` constructor.
    Constructed,
}

impl PickedBy {
    /// Stable label (the `picked_by` JSON value).
    pub fn label(self) -> &'static str {
        match self {
            PickedBy::CostModel => "cost-model",
            PickedBy::FixedPriority => "fixed-priority",
            PickedBy::Constructed => "constructed",
        }
    }
}

/// Which of the paper's analyses produced a certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertKind {
    /// Uniform boundedness (Lemma 6.2).
    Boundedness,
    /// Commuting clusters (Theorems 5.1–5.3, licensing Theorem 3.1).
    Commutativity,
    /// Separability of an operator pair (Theorems 4.1/6.1).
    Separability,
    /// The rule is relational composition with one binary EDB predicate
    /// ([`crate::dense::composition_shape`]).
    CompositionShape,
}

impl CertKind {
    /// Stable label, used as the prefix of a rendered certificate.
    pub fn label(self) -> &'static str {
        match self {
            CertKind::Boundedness => "boundedness",
            CertKind::Commutativity => "commutativity",
            CertKind::Separability => "separability",
            CertKind::CompositionShape => "composition shape",
        }
    }
}

/// One plan candidate the cost model weighed, with its estimated cost.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateEstimate {
    /// The candidate's shape.
    pub shape: PlanShape,
    /// Estimated cost in the model's abstract derivation units.
    pub cost: f64,
}

/// The dense gate's verdict for a single-rule composition shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DenseVerdict {
    /// The closure-by-squaring plan won.
    Chosen {
        /// The composed EDB predicate.
        edge: Symbol,
        /// Estimated dense domain size.
        domain: f64,
        /// Estimated closure density (result tuples over `domain²`).
        density: f64,
        /// Estimated cost of the dense plan.
        cost: f64,
    },
    /// Declined: three `domain × ⌈domain/64⌉`-word matrices would not fit
    /// [`CostModel::dense_budget_bytes`](crate::CostModel::dense_budget_bytes).
    OverBudget {
        /// Estimated working set in bytes.
        working_set_bytes: f64,
        /// The budget it was held against.
        budget_bytes: usize,
    },
    /// Declined: the estimated closure density is below
    /// [`CostModel::dense_density_cutover`](crate::CostModel::dense_density_cutover).
    TooSparse {
        /// Estimated closure density.
        density: f64,
        /// The cutover it fell below.
        cutover: f64,
        /// Estimated dense domain size.
        domain: f64,
    },
}

impl DenseVerdict {
    /// Did the dense closure-by-squaring plan win?
    pub fn chosen(&self) -> bool {
        matches!(self, DenseVerdict::Chosen { .. })
    }
}

impl fmt::Display for DenseVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DenseVerdict::Chosen {
                edge,
                domain,
                density,
                cost,
            } => write!(
                f,
                "closure by squaring over '{edge}' \
                 (domain ≈ {domain:.0}, est. density {density:.2}) ≈ {cost:.3e}"
            ),
            DenseVerdict::OverBudget {
                working_set_bytes,
                budget_bytes,
            } => write!(
                f,
                "working set ≈ {:.1} MiB over the {} MiB budget",
                working_set_bytes / (1024.0 * 1024.0),
                budget_bytes >> 20
            ),
            DenseVerdict::TooSparse {
                density,
                cutover,
                domain,
            } => write!(
                f,
                "est. density {density:.1e} below the {cutover:.1e} cutover (domain ≈ {domain:.0})"
            ),
        }
    }
}

/// The outcome of [`Plan::parallelize`](crate::Plan::parallelize).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelVerdict {
    /// Did the plan engage sharded semi-naive rounds?
    pub engaged: bool,
    /// Worker threads the parallelism policy offered.
    pub threads: usize,
    /// Estimated peak |Δ| the decision compared against the cutover.
    pub est_peak_delta: f64,
    /// The |Δ| at which `threads`-way sharding recoups its setup
    /// ([`CostModel::parallel_cutover`](crate::CostModel::parallel_cutover));
    /// `None` when the plan shape has no shardable semi-naive rounds, so
    /// nothing was estimated.
    pub cutover: Option<usize>,
}

impl fmt::Display for ParallelVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (threads, peak) = (self.threads, self.est_peak_delta);
        match self.cutover {
            None => write!(f, "plan shape has no shardable semi-naive rounds"),
            Some(cutover) if self.engaged => write!(
                f,
                "up to {threads}-way sharded rounds when |Δ| ≥ {cutover} \
                 (est. peak |Δ| ≈ {peak:.0})"
            ),
            Some(cutover) => write!(
                f,
                "est. peak |Δ| ≈ {peak:.0} below the {threads}-thread cutover {cutover}"
            ),
        }
    }
}

/// How a materialized view is maintained under a delta batch — the label,
/// in reports and on the wire, of what [`crate::planner::Plan::resume`]
/// does for the plan (the certificates are properties of the rules, not of
/// the data, so they license the same decomposition of every later delta).
/// [`MaintenanceMode::of`] reads it off the star list `resume` executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceMode {
    /// Semi-naive resume over the rule sum.
    Incremental,
    /// Resume cut off after the certified application count
    /// (boundedness certificate).
    IncrementalBounded,
    /// One resume per commuting cluster, right-to-left
    /// (commutativity certificate).
    IncrementalDecomposed,
    /// No incremental form: re-execute the plan from scratch.
    Recompute,
}

impl MaintenanceMode {
    /// Short label for reports and the protocol's `stats` command.
    pub fn label(&self) -> &'static str {
        match self {
            MaintenanceMode::Incremental => "incremental",
            MaintenanceMode::IncrementalBounded => "incremental-bounded",
            MaintenanceMode::IncrementalDecomposed => "incremental-decomposed",
            MaintenanceMode::Recompute => "recompute",
        }
    }
}

/// The structured record of one planning decision; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDecision {
    /// View the plan belongs to; empty for ad-hoc queries.
    pub view: String,
    /// The plan's shape ([`PlanShape::label`] names the core shape under a
    /// `SelectAfter` wrapper).
    pub winner: PlanShape,
    /// How the winner was picked.
    pub picked_by: PickedBy,
    /// Every candidate the cost model weighed, with its estimate.
    pub candidates: Vec<CandidateEstimate>,
    /// The certificates the winner leans on: which analysis produced each,
    /// and the certificate's own rationale.
    pub certificates: Vec<(CertKind, String)>,
    /// Dense-gate verdict, when a composition shape made dense eligible.
    pub dense: Option<DenseVerdict>,
    /// Parallelization verdict, when `parallelize` was offered threads.
    pub parallel: Option<ParallelVerdict>,
    /// Maintenance mode the service derived from the shape; `None` for
    /// ad-hoc plans.
    pub maintenance_mode: Option<MaintenanceMode>,
    /// The winner's estimated cost, when the cost model produced one.
    /// Unit-free, but dominated by the per-derivation charge, so directly
    /// comparable to the actual derivation count of a run.
    pub estimate: Option<f64>,
    /// Statistics of the latest `execute_feedback` run.
    pub actual: Option<EvalStats>,
}

impl PlanDecision {
    /// The record of a hand-constructed plan of shape `winner` leaning on
    /// `certificates`.
    pub(crate) fn constructed(
        winner: PlanShape,
        certificates: Vec<(CertKind, String)>,
    ) -> PlanDecision {
        PlanDecision {
            view: String::new(),
            winner,
            picked_by: PickedBy::Constructed,
            candidates: Vec::new(),
            certificates,
            dense: None,
            parallel: None,
            maintenance_mode: None,
            estimate: None,
            actual: None,
        }
    }

    /// Estimate divided by actual derivations, when both are known.
    /// Actual derivations are clamped to ≥ 1 so the ratio stays finite.
    pub fn ratio(&self) -> Option<f64> {
        match (self.estimate, &self.actual) {
            (Some(est), Some(stats)) => Some(est / stats.derivations.max(1) as f64),
            _ => None,
        }
    }

    /// Serialize the record as a JSON object.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("view", &self.view);
            o.str("winner", self.winner.label());
            o.str("picked_by", self.picked_by.label());
            o.array("candidates", |a| {
                for c in &self.candidates {
                    a.object(|o| {
                        o.str("name", c.shape.label());
                        o.f64("cost", c.cost);
                    });
                }
            });
            o.array("certificates", |a| {
                for (kind, text) in &self.certificates {
                    a.str(&format!("{}: {text}", kind.label()));
                }
            });
            match &self.dense {
                Some(d) => o.object("dense", |o| {
                    o.bool("chosen", d.chosen());
                    o.str("detail", &d.to_string());
                }),
                None => o.raw("dense", "null"),
            }
            match &self.parallel {
                Some(p) => o.object("parallel", |o| {
                    o.bool("engaged", p.engaged);
                    o.u64("threads", p.threads as u64);
                    o.f64("est_peak_delta", p.est_peak_delta);
                    o.str("detail", &p.to_string());
                }),
                None => o.raw("parallel", "null"),
            }
            match self.maintenance_mode {
                Some(mode) => o.str("maintenance_mode", mode.label()),
                None => o.raw("maintenance_mode", "null"),
            }
            o.f64("estimate", self.estimate);
            match &self.actual {
                Some(stats) => o.object("actual", |o| stats.write_json(o)),
                None => o.raw("actual", "null"),
            }
            o.f64("estimate_actual_ratio", self.ratio());
        })
    }
}

/// The rendered rationale: one line, `picked <shape> (<how>)` first, then
/// one `; `-separated clause per recorded fact in field order.
impl fmt::Display for PlanDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "picked {} ({})",
            self.winner.label(),
            self.picked_by.label()
        )?;
        if matches!(self.winner, PlanShape::SelectAfter(_)) {
            f.write_str(", σ applied to its result")?;
        }
        for (i, c) in self.candidates.iter().enumerate() {
            f.write_str(if i == 0 { " over {" } else { ", " })?;
            write!(f, "{} ≈ {:.3e}", c.shape.label(), c.cost)?;
        }
        if !self.candidates.is_empty() {
            f.write_str("}")?;
        }
        if self.certificates.is_empty() {
            f.write_str("; needs no certificate")?;
        }
        for (kind, text) in &self.certificates {
            write!(f, "; {}: {text}", kind.label())?;
        }
        if let Some(dense) = &self.dense {
            let verb = if dense.chosen() { "chosen" } else { "declined" };
            write!(f, "; dense {verb}: {dense}")?;
        }
        if let Some(par) = &self.parallel {
            let verb = if par.engaged { "engaged" } else { "declined" };
            write!(f, "; parallel {verb}: {par}")?;
        }
        if let Some(mode) = &self.maintenance_mode {
            write!(f, "; view '{}' maintained {}", self.view, mode.label())?;
        }
        match (self.estimate, &self.actual) {
            (Some(est), None) => write!(f, "; estimate ≈ {est:.3e}"),
            (None, Some(stats)) => write!(f, "; actual: {stats}"),
            (Some(est), Some(stats)) => write!(
                f,
                "; actual: {stats}; estimate/actual derivations = {:.3} ({est:.3e} vs {})",
                est / stats.derivations.max(1) as f64,
                stats.derivations
            ),
            (None, None) => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> EvalStats {
        EvalStats {
            iterations: 4,
            applications: 8,
            derivations: 1000,
            duplicates: 12,
            tuples: 988,
        }
    }

    fn constructed(winner: PlanShape, certs: &[(CertKind, &str)]) -> PlanDecision {
        let certs = certs.iter().map(|&(k, t)| (k, t.to_owned())).collect();
        PlanDecision::constructed(winner, certs)
    }

    /// The one place decision wording is pinned: every shape, the
    /// `SelectAfter` wrapper, both dense and both parallel outcomes, with
    /// and without estimate and actuals.
    #[test]
    fn golden_rendering_of_every_shape_and_verdict() {
        let direct = PlanShape::Direct;
        let decomposed = PlanShape::Decomposed {
            clusters: vec![vec![0], vec![1]],
        };
        let candidates = vec![
            CandidateEstimate {
                shape: direct.clone(),
                cost: 120.0,
            },
            CandidateEstimate {
                shape: decomposed.clone(),
                cost: 45.0,
            },
        ];
        let edge = Symbol::new("e");
        let table: Vec<(PlanDecision, &str)> = vec![
            (
                constructed(direct.clone(), &[]),
                "picked Direct (constructed); needs no certificate",
            ),
            (
                PlanDecision {
                    picked_by: PickedBy::FixedPriority,
                    ..constructed(
                        PlanShape::BoundedPrefix { applications: 1 },
                        &[(CertKind::Boundedness, "B")],
                    )
                },
                "picked BoundedPrefix (fixed-priority); boundedness: B",
            ),
            (
                constructed(
                    PlanShape::BoundedPrefix { applications: 2 },
                    &[(CertKind::Boundedness, "B")],
                ),
                "picked BoundedPrefix (constructed); boundedness: B",
            ),
            (
                PlanDecision {
                    picked_by: PickedBy::CostModel,
                    candidates: candidates.clone(),
                    estimate: Some(45.0),
                    ..constructed(decomposed, &[(CertKind::Commutativity, "C")])
                },
                "picked Decomposed (cost-model) over {Direct ≈ 1.200e2, Decomposed ≈ 4.500e1}; \
                 commutativity: C; estimate ≈ 4.500e1",
            ),
            (
                constructed(PlanShape::Separable, &[(CertKind::Separability, "S")]),
                "picked Separable (constructed); separability: S",
            ),
            (
                PlanDecision {
                    view: "tc".into(),
                    picked_by: PickedBy::CostModel,
                    dense: Some(DenseVerdict::Chosen {
                        edge,
                        domain: 200.0,
                        density: 0.5,
                        cost: 1234.5,
                    }),
                    maintenance_mode: Some(MaintenanceMode::Incremental),
                    estimate: Some(1234.5),
                    actual: Some(stats()),
                    ..constructed(
                        PlanShape::DenseClosure,
                        &[(CertKind::CompositionShape, "Q")],
                    )
                },
                "picked DenseClosure (cost-model); composition shape: Q; dense chosen: closure by \
                 squaring over 'e' (domain ≈ 200, est. density 0.50) ≈ 1.234e3; view 'tc' \
                 maintained incremental; actual: tuples=988 derivations=1000 duplicates=12 \
                 iterations=4 applications=8; estimate/actual derivations = 1.234 (1.234e3 vs 1000)",
            ),
            (
                PlanDecision {
                    dense: Some(DenseVerdict::TooSparse {
                        density: 1e-5,
                        cutover: 0.05,
                        domain: 3000.0,
                    }),
                    parallel: Some(ParallelVerdict {
                        engaged: false,
                        threads: 4,
                        est_peak_delta: 6.0,
                        cutover: Some(512),
                    }),
                    ..constructed(PlanShape::SelectAfter(Box::new(direct.clone())), &[])
                },
                "picked Direct (constructed), σ applied to its result; needs no certificate; dense \
                 declined: est. density 1.0e-5 below the 5.0e-2 cutover (domain ≈ 3000); parallel \
                 declined: est. peak |Δ| ≈ 6 below the 4-thread cutover 512",
            ),
            (
                PlanDecision {
                    dense: Some(DenseVerdict::OverBudget {
                        working_set_bytes: 3.0 * 1024.0 * 1024.0,
                        budget_bytes: 1 << 20,
                    }),
                    parallel: Some(ParallelVerdict {
                        engaged: true,
                        threads: 4,
                        est_peak_delta: 400.0,
                        cutover: Some(43),
                    }),
                    ..constructed(direct.clone(), &[])
                },
                "picked Direct (constructed); needs no certificate; dense declined: working set ≈ \
                 3.0 MiB over the 1 MiB budget; parallel engaged: up to 4-way sharded rounds when \
                 |Δ| ≥ 43 (est. peak |Δ| ≈ 400)",
            ),
            (
                PlanDecision {
                    parallel: Some(ParallelVerdict {
                        engaged: false,
                        threads: 2,
                        est_peak_delta: 0.0,
                        cutover: None,
                    }),
                    ..constructed(
                        PlanShape::BoundedPrefix { applications: 1 },
                        &[(CertKind::Boundedness, "B")],
                    )
                },
                "picked BoundedPrefix (constructed); boundedness: B; parallel declined: plan \
                 shape has no shardable semi-naive rounds",
            ),
        ];
        for (decision, expected) in table {
            assert_eq!(decision.to_string(), expected);
        }
    }

    #[test]
    fn json_keeps_its_keys_and_labels() {
        let mut d = constructed(
            PlanShape::SelectAfter(Box::new(PlanShape::DenseClosure)),
            &[(CertKind::CompositionShape, "composition with \"e\"")],
        );
        d.view = "tc".to_string();
        d.picked_by = PickedBy::CostModel;
        d.candidates.push(CandidateEstimate {
            shape: PlanShape::Direct,
            cost: f64::INFINITY,
        });
        d.estimate = Some(1234.5);
        d.actual = Some(stats());
        d.maintenance_mode = Some(MaintenanceMode::Recompute);
        assert_eq!(
            d.to_json(),
            "{\"view\":\"tc\",\"winner\":\"DenseClosure\",\"picked_by\":\"cost-model\",\
             \"candidates\":[{\"name\":\"Direct\",\"cost\":null}],\
             \"certificates\":[\"composition shape: composition with \\\"e\\\"\"],\
             \"dense\":null,\"parallel\":null,\"maintenance_mode\":\"recompute\",\
             \"estimate\":1234.5,\
             \"actual\":{\"tuples\":988,\"derivations\":1000,\"duplicates\":12,\
             \"iterations\":4,\"applications\":8},\
             \"estimate_actual_ratio\":1.2345}"
        );

        d.dense = Some(DenseVerdict::OverBudget {
            working_set_bytes: 2048.0,
            budget_bytes: 1024,
        });
        d.parallel = Some(ParallelVerdict {
            engaged: false,
            threads: 4,
            est_peak_delta: 6.0,
            cutover: Some(512),
        });
        let json = d.to_json();
        assert!(
            json.contains("\"dense\":{\"chosen\":false,\"detail\":\""),
            "{json}"
        );
        assert!(
            json.contains("\"parallel\":{\"engaged\":false,\"threads\":4,\"est_peak_delta\":6,"),
            "{json}"
        );
    }

    /// A record with every `Option` empty and one with every `Option` set
    /// (plus an infinite candidate cost) are each one valid object whose
    /// top-level members read back as written.
    #[test]
    fn every_json_shape_reads_back() {
        let bare = constructed(PlanShape::Direct, &[]);
        let full = PlanDecision {
            view: "tc".into(),
            picked_by: PickedBy::CostModel,
            candidates: vec![
                CandidateEstimate {
                    shape: PlanShape::Direct,
                    cost: f64::INFINITY,
                },
                CandidateEstimate {
                    shape: PlanShape::DenseClosure,
                    cost: 510.0,
                },
            ],
            dense: Some(DenseVerdict::Chosen {
                edge: Symbol::new("e"),
                domain: 200.0,
                density: 0.5,
                cost: 510.0,
            }),
            parallel: Some(ParallelVerdict {
                engaged: true,
                threads: 4,
                est_peak_delta: 400.0,
                cutover: Some(43),
            }),
            maintenance_mode: Some(MaintenanceMode::Incremental),
            estimate: Some(510.0),
            actual: Some(stats()),
            ..constructed(
                PlanShape::DenseClosure,
                &[(CertKind::CompositionShape, "over \"e\"")],
            )
        };
        let cases: Vec<(PlanDecision, Vec<(&str, &str)>)> = vec![
            (
                bare,
                vec![
                    ("view", "\"\""),
                    ("winner", "\"Direct\""),
                    ("picked_by", "\"constructed\""),
                    ("candidates", "[]"),
                    ("certificates", "[]"),
                    ("dense", "null"),
                    ("parallel", "null"),
                    ("maintenance_mode", "null"),
                    ("estimate", "null"),
                    ("actual", "null"),
                    ("estimate_actual_ratio", "null"),
                ],
            ),
            (
                full,
                vec![
                    ("view", "\"tc\""),
                    ("winner", "\"DenseClosure\""),
                    ("picked_by", "\"cost-model\""),
                    (
                        "candidates",
                        "[{\"name\":\"Direct\",\"cost\":null},\
                         {\"name\":\"DenseClosure\",\"cost\":510}]",
                    ),
                    ("certificates", "[\"composition shape: over \\\"e\\\"\"]"),
                    (
                        "dense",
                        "{\"chosen\":true,\"detail\":\"closure by squaring over 'e' \
                         (domain ≈ 200, est. density 0.50) ≈ 5.100e2\"}",
                    ),
                    (
                        "parallel",
                        "{\"engaged\":true,\"threads\":4,\"est_peak_delta\":400,\
                         \"detail\":\"up to 4-way sharded rounds when |Δ| ≥ 43 \
                         (est. peak |Δ| ≈ 400)\"}",
                    ),
                    ("maintenance_mode", "\"incremental\""),
                    ("estimate", "510"),
                    (
                        "actual",
                        "{\"tuples\":988,\"derivations\":1000,\"duplicates\":12,\
                         \"iterations\":4,\"applications\":8}",
                    ),
                    ("estimate_actual_ratio", "0.51"),
                ],
            ),
        ];
        for (decision, expected) in cases {
            let text = decision.to_json();
            let members = json::members(&text).unwrap_or_else(|| panic!("invalid: {text}"));
            let got: Vec<(&str, &str)> = members.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            assert_eq!(got, expected, "{text}");
        }
    }
}
