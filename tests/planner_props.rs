//! Planner soundness properties (seeded, deterministic).
//!
//! 1. **Agreement**: for random workloads from `engine::workload` and a
//!    spectrum of rule sets — the paper's examples plus randomly generated
//!    rules — whatever [`Plan`] the planner picks computes *exactly* the
//!    relation of the `Plan::direct` baseline (with the selection
//!    applied afterwards, when one is present).
//! 2. **No unlicensed strategies**: when the analysis finds no
//!    certificates, the chosen plan never contains a `Decomposed` or
//!    `Separable` node.
//!
//! All randomness flows from explicit SplitMix64 seeds, so every run
//! explores the same cases.

use linrec::engine::{rules, workload, Analysis, PlanShape, Selection};
use linrec::prelude::*;

/// Deterministic generator driving rule and workload synthesis.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Does the shape tree contain a node that needs a certificate to build?
fn uses_certified_strategy(shape: &PlanShape) -> bool {
    match shape {
        PlanShape::Decomposed { .. }
        | PlanShape::Separable
        | PlanShape::RedundancyBounded
        | PlanShape::BoundedPrefix { .. } => true,
        PlanShape::SelectAfter(inner) => uses_certified_strategy(inner),
        // DenseClosure is licensed by a syntactic shape check, not a
        // paper certificate.
        PlanShape::Direct | PlanShape::Naive | PlanShape::DenseClosure => false,
    }
}

fn contains_decomposed_or_separable(shape: &PlanShape) -> bool {
    match shape {
        PlanShape::Decomposed { .. } | PlanShape::Separable => true,
        PlanShape::SelectAfter(inner) => contains_decomposed_or_separable(inner),
        _ => false,
    }
}

/// A random arity-2 linear rule over head `p(x0,x1)`, in the style of the
/// paper's small examples: each recursive-atom position copies a head
/// variable, shifts it, or introduces a fresh variable; up to two
/// nonrecursive atoms bind pairs from the variable pool.
fn random_rule(g: &mut Gen) -> Option<LinearRule> {
    let hv = [Var::new("x0"), Var::new("x1")];
    let fresh = [Var::new("n0"), Var::new("n1")];
    let head = Atom::from_vars("p", &hv);
    let rec_terms: Vec<Term> = (0..2)
        .map(|i| match g.below(4) {
            0 => Term::Var(hv[i]),
            1 => Term::Var(hv[(i + 1) % 2]),
            n => Term::Var(fresh[(n as usize) % 2]),
        })
        .collect();
    let pool: Vec<Var> = hv.iter().chain(fresh.iter()).copied().collect();
    let mut nonrec = Vec::new();
    for pred in ["q", "r"] {
        if g.below(3) == 0 {
            continue;
        }
        let a = pool[g.below(pool.len() as u64) as usize];
        let b = pool[g.below(pool.len() as u64) as usize];
        nonrec.push(Atom::from_vars(pred, &[a, b]));
    }
    LinearRule::from_parts(head, Atom::new("p", rec_terms), nonrec)
        .ok()
        .filter(|r| r.is_range_restricted())
}

/// A database covering every EDB predicate the rules mention, plus a seed
/// relation — all deterministic in `seed`.
fn cover_db(rules: &[LinearRule], seed: u64) -> (Database, Relation) {
    let mut db = Database::new();
    for rule in rules {
        for atom in rule.nonrec_atoms() {
            if db.relation(atom.pred).is_some() {
                continue;
            }
            let rel = if atom.arity() == 1 {
                Relation::from_tuples(
                    1,
                    (0..8)
                        .filter(|k| (k + seed as i64) % 3 != 0)
                        .map(|k| vec![Value::Int(k)]),
                )
            } else {
                workload::random_graph(8, 16, seed.wrapping_add(atom.pred.id() as u64))
            };
            db.set_relation(atom.pred, rel);
        }
    }
    let arity = rules[0].arity();
    let init = if arity == 2 {
        workload::random_graph(8, 8, seed.wrapping_add(7))
    } else {
        let mut g = Gen(seed.wrapping_add(7));
        let mut rel = Relation::new(arity);
        for _ in 0..8 {
            rel.insert(
                (0..arity)
                    .map(|_| Value::Int(g.below(5) as i64))
                    .collect::<Tuple>(),
            );
        }
        rel
    };
    (db, init)
}

fn direct_oracle(rules: &[LinearRule], db: &Database, init: &Relation) -> Relation {
    Plan::direct(rules).execute(db, init).unwrap().relation
}

/// Check both properties for one (rule set, selection, workload) case.
fn check_case(
    case: &str,
    all: &[LinearRule],
    sel: Option<&Selection>,
    db: &Database,
    init: &Relation,
) {
    let analysis = Analysis::of(all, sel);
    let plan = analysis.plan();

    // Property 2: certificate-less analyses never pick a certified node —
    // and contrapositively, a certified node implies the certificate.
    if analysis.has_no_certificates() {
        assert!(
            !uses_certified_strategy(&plan.shape()),
            "{case}: certificate-less analysis chose {:?}",
            plan.shape()
        );
    }
    assert!(
        !contains_decomposed_or_separable(&plan.shape())
            || analysis.commutativity().is_some()
            || !analysis.separability().is_empty(),
        "{case}: {:?} without a licensing certificate",
        plan.shape()
    );

    // Property 1: the planned execution equals the direct baseline.
    let planned = plan
        .execute(db, init)
        .unwrap_or_else(|e| panic!("{case}: plan {:?} failed: {e}", plan.shape()));
    let mut expected = direct_oracle(all, db, init);
    if let Some(sel) = sel {
        expected = sel.apply(&expected);
    }
    assert_eq!(
        planned.relation.sorted(),
        expected.sorted(),
        "{case}: plan {:?} diverges from the direct baseline",
        plan.shape()
    );
    assert_eq!(planned.stats.tuples, planned.relation.len(), "{case}");

    // Property 3: the cost-based choice is licensed the same way (never a
    // certified node without a certificate) and computes the same relation.
    let costed = analysis.plan_for(db, init);
    if analysis.has_no_certificates() {
        assert!(
            !uses_certified_strategy(&costed.shape()),
            "{case}: certificate-less analysis cost-chose {:?}",
            costed.shape()
        );
    }
    let costed_out = costed
        .execute(db, init)
        .unwrap_or_else(|e| panic!("{case}: cost-chosen plan {:?} failed: {e}", costed.shape()));
    assert_eq!(
        costed_out.relation.sorted(),
        expected.sorted(),
        "{case}: cost-chosen plan {:?} diverges from the direct baseline",
        costed.shape()
    );
}

#[test]
fn planner_agrees_with_direct_on_paper_rule_sets() {
    let fixed: Vec<(&str, Vec<LinearRule>)> = vec![
        ("up+down", vec![rules::up_rule(), rules::down_rule()]),
        ("tc-right", vec![rules::tc_right()]),
        ("tc-pair", vec![rules::tc_right(), rules::tc_left()]),
        ("shopping", vec![rules::shopping_rule()]),
        ("example-6.2", vec![rules::example_6_2()]),
        (
            "bounded-filter",
            vec![parse_linear_rule("p(x,y) :- p(x,y), q(x,x).").unwrap()],
        ),
        (
            "non-commuting",
            vec![
                parse_linear_rule("p(x,y) :- p(x,z), q(z,y).").unwrap(),
                parse_linear_rule("p(x,y) :- p(x,z), r(z,y).").unwrap(),
            ],
        ),
        (
            "three-commuting",
            vec![
                parse_linear_rule("p(x,y) :- p(x,z), q(z,y).").unwrap(),
                parse_linear_rule("p(x,y) :- p(w,y), q(x,w).").unwrap(),
            ],
        ),
    ];
    for (name, all) in &fixed {
        for seed in 0..4u64 {
            let (db, init) = cover_db(all, seed * 31 + 5);
            check_case(name, all, None, &db, &init);
        }
    }
}

#[test]
fn planner_agrees_with_direct_on_selected_paper_workloads() {
    // The up/down workload exercises Separable; the non-commuting pair
    // exercises the SelectAfter(Direct) fallback.
    let updown = vec![rules::down_rule(), rules::up_rule()];
    for depth in 4..=6u32 {
        let (db, init) = workload::up_down(depth, depth as u64);
        let offset = 1i64 << (depth + 1);
        for target in [offset + 1, offset + 3, 999_999] {
            let sel = Selection::eq(1, target);
            check_case("up+down σ", &updown, Some(&sel), &db, &init);
        }
    }

    let clashing = vec![
        parse_linear_rule("p(x,y) :- p(x,z), q(z,y).").unwrap(),
        parse_linear_rule("p(x,y) :- p(x,z), r(z,y).").unwrap(),
    ];
    for seed in 0..4u64 {
        let (db, init) = cover_db(&clashing, seed + 11);
        let sel = Selection::eq(0, seed as i64 % 8);
        let analysis = Analysis::of(&clashing, Some(&sel));
        assert!(analysis.has_no_certificates());
        check_case("non-commuting σ", &clashing, Some(&sel), &db, &init);
    }
}

#[test]
fn planner_agrees_with_direct_on_random_rule_sets() {
    let mut g = Gen(0xC0FFEE);
    let mut cases = 0;
    while cases < 60 {
        let n_rules = 1 + g.below(2) as usize;
        let mut all = Vec::new();
        for _ in 0..n_rules {
            if let Some(r) = random_rule(&mut g) {
                all.push(r);
            }
        }
        if all.len() != n_rules {
            continue;
        }
        let seed = g.below(1000);
        let (db, init) = cover_db(&all, seed);
        let sel = match g.below(3) {
            0 => Some(Selection::eq(g.below(2) as usize, g.below(8) as i64)),
            _ => None,
        };
        let names: Vec<String> = all.iter().map(|r| r.to_string()).collect();
        check_case(
            &format!("random[{cases}] {{ {} }}", names.join(" ; ")),
            &all,
            sel.as_ref(),
            &db,
            &init,
        );
        cases += 1;
    }
}
