//! Planner soundness properties (seeded, deterministic).
//!
//! 1. **Agreement**: for random workloads from `linrec-testkit` and a
//!    spectrum of rule sets — the paper's examples plus randomly generated
//!    rules — every [`Plan`] the analysis licenses, and the one the planner
//!    picks, computes *exactly* the relation of the `Plan::direct` baseline
//!    (with the selection applied afterwards, when one is present).
//! 2. **No unlicensed strategies**: when the analysis finds no
//!    certificates, the chosen plan never contains a `Decomposed` or
//!    `Separable` node.
//!
//! 3. **A plan resumes itself**: for every shape with an incremental form,
//!    `Plan::resume` from `total = delta = init` is `Plan::execute`, and
//!    `execute` on a database followed by `resume` under a grown one is
//!    `execute` on the grown one — and the naive reference.
//! 4. **Bounded regret**: the planner's pick does at most
//!    `REGRET_FACTOR · d + REGRET_SLACK` derivations, where `d` is the
//!    fewest any other licensed plan does on the same case — the paper's
//!    §3.1 unit, so the contract is exact, not timed. A case whose pick is
//!    `DenseClosure` is skipped: its `derivations` count squaring
//!    popcounts, a different unit from the sparse plans' joins.
//!
//! All randomness flows from explicit SplitMix64 seeds, so every run
//! explores the same cases.

mod common;

use common::licensed_plans;
use linrec::engine::seminaive::naive_star;
use linrec::engine::{
    apply_linear, dense, rules, Analysis, EvalStats, Indexes, PlanShape, Selection,
};
use linrec::prelude::*;
use linrec_testkit::{random_graph, random_rule, rule_set, up_down, Gen};
use std::collections::BTreeSet;

/// Does the shape tree contain a node that needs a certificate to build?
fn uses_certified_strategy(shape: &PlanShape) -> bool {
    match shape {
        PlanShape::Decomposed { .. } | PlanShape::Separable | PlanShape::BoundedPrefix { .. } => {
            true
        }
        PlanShape::SelectAfter(inner) => uses_certified_strategy(inner),
        // DenseClosure is licensed by a syntactic shape check, not a
        // paper certificate.
        PlanShape::Direct | PlanShape::DenseClosure => false,
    }
}

fn contains_decomposed_or_separable(shape: &PlanShape) -> bool {
    match shape {
        PlanShape::Decomposed { .. } | PlanShape::Separable => true,
        PlanShape::SelectAfter(inner) => contains_decomposed_or_separable(inner),
        _ => false,
    }
}

/// A database covering every EDB predicate the rules mention, plus a seed
/// relation — all deterministic in `seed`.
fn cover_db(rules: &[LinearRule], seed: u64) -> (Database, Relation) {
    let mut db = Database::new();
    // Predicates are numbered by first appearance, never by symbol id
    // (see `linrec_testkit::cover_db`).
    let mut index = 0;
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
                random_graph(8, 16, seed.wrapping_add(index))
            };
            index += 1;
            db.set_relation(atom.pred, rel);
        }
    }
    let arity = rules[0].arity();
    let init = if arity == 2 {
        random_graph(8, 8, seed.wrapping_add(7))
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

/// Property 4's constants. Fixed: a planner change that needs them raised
/// picks worse plans.
const REGRET_FACTOR: f64 = 1.10;
const REGRET_SLACK: f64 = 16.0;

/// Check properties 1, 2 and 4 for one (rule set, selection, workload)
/// case.
fn check_case(
    case: &str,
    all: &[LinearRule],
    sel: Option<&Selection>,
    db: &Database,
    init: &Relation,
) {
    let analysis = Analysis::of(all, sel);
    let mut expected = direct_oracle(all, db, init);
    if let Some(sel) = sel {
        expected = sel.apply(&expected);
    }
    // (derivations, shape) of the pick, and of the cheapest other plan.
    let mut pick = None;
    let mut best: Option<(u64, PlanShape)> = None;
    for (plan, picked) in licensed_plans(&analysis, db, init) {
        let shape = plan.shape();
        let what = format!(
            "{case}: {} {shape:?}",
            if picked { "picked" } else { "licensed" }
        );

        // Property 2: certificate-less analyses never pick a certified
        // node — and contrapositively, a certified node implies the
        // certificate.
        if analysis.has_no_certificates() {
            assert!(
                !uses_certified_strategy(&shape),
                "{what} without a certificate"
            );
        }
        assert!(
            !contains_decomposed_or_separable(&shape)
                || analysis.commutativity().is_some()
                || !analysis.separability().is_empty(),
            "{what} without a licensing certificate"
        );

        // Property 1: the planned execution equals the direct baseline.
        let planned = plan
            .execute(db, init)
            .unwrap_or_else(|e| panic!("{what} failed: {e}"));
        assert_eq!(
            planned.relation.sorted(),
            expected.sorted(),
            "{what} diverges from the direct baseline"
        );
        assert_eq!(planned.stats.tuples, planned.relation.len(), "{what}");

        let derivations = planned.stats.derivations;
        if picked {
            pick = Some((derivations, shape));
        } else if best.as_ref().is_none_or(|(d, _)| derivations < *d) {
            best = Some((derivations, shape));
        }
    }

    // Property 4: the pick is within the regret bound of the cheapest
    // licensed alternative.
    let (Some((got, shape)), Some((least, cheapest))) = (pick, best) else {
        unreachable!("licensed_plans lists Direct and the pick");
    };
    if shape.label() != "DenseClosure" {
        assert!(
            got as f64 <= REGRET_FACTOR * least as f64 + REGRET_SLACK,
            "{case}: picked {shape:?} does {got} derivations, {cheapest:?} needs {least}"
        );
    }
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
        let (db, init) = up_down(depth, depth as u64);
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
            if let Some(r) = random_rule(&mut g).filter(|r| r.is_range_restricted()) {
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

#[test]
fn planner_pick_has_bounded_regret_on_the_rule_set_spectrum() {
    for case in 0..300u64 {
        let Some(rules) = rule_set(case) else {
            continue;
        };
        let (db, init) = cover_db(&rules, case * 13 + 3);
        check_case(&format!("rule_set({case})"), &rules, None, &db, &init);
    }
}

/// The plans worth resuming for a rule set: every licensed plan, the
/// planner's pick, and the dense closure where the rule has the shape for
/// it. The bool marks the planner's pick.
fn candidate_plans(all: &[LinearRule], db: &Database, init: &Relation) -> Vec<(Plan, bool)> {
    let mut plans = licensed_plans(&Analysis::of(all, None), db, init);
    if let [rule] = all {
        if let Ok(plan) = Plan::dense_closure(rule.clone(), dense::DEFAULT_DENSE_BUDGET_BYTES) {
            plans.push((plan, false));
        }
    }
    plans
}

/// `plan.resume` on copies of `total` and `delta`; `None` when the plan
/// has no incremental form.
fn resumed(
    plan: &Plan,
    db: &Database,
    total: &Relation,
    delta: &Relation,
    par: &Parallelism,
) -> Option<(Relation, EvalStats)> {
    let mut total = total.clone();
    let stats = plan.resume(db, &mut total, delta.clone(), &mut Indexes::new(), par)?;
    Some((total, stats))
}

/// One input of the resume properties: rules, a covering database, a
/// seed, and the node range new tuples are drawn from.
struct ResumeCase {
    name: String,
    rules: Vec<LinearRule>,
    db: Database,
    init: Relation,
    nodes: u64,
}

/// The spectrum of `common::rule_set`, each rule set over a dense
/// 8-node database (where the planner goes dense, and most of a closure
/// is there before the batch) and over a sparse 16-node one (long
/// chains, so a batch's consequences reach several rounds and clusters
/// deep).
fn resume_cases() -> Vec<ResumeCase> {
    let mut cases = Vec::new();
    for case in 0..48u64 {
        let Some(rules) = rule_set(case) else {
            continue;
        };
        let (db, init) = cover_db(&rules, case * 13 + 3);
        cases.push(ResumeCase {
            name: format!("case {case} dense"),
            rules: rules.clone(),
            db,
            init,
            nodes: 8,
        });
        let mut db = Database::new();
        let mut index = 0;
        for atom in rules.iter().flat_map(|r| r.nonrec_atoms()) {
            if db.relation(atom.pred).is_none() {
                db.set_relation(atom.pred, random_graph(16, 14, case.wrapping_add(index)));
                index += 1;
            }
        }
        cases.push(ResumeCase {
            name: format!("case {case} sparse"),
            rules,
            db,
            init: random_graph(16, 3, case + 5),
            nodes: 16,
        });
    }
    cases
}

fn knobs() -> [Parallelism; 2] {
    [
        Parallelism::sequential(),
        Parallelism::new(3).with_min_delta(1),
    ]
}

/// The shapes the resume properties must have crossed, by label; the
/// planner itself has to have chosen the certified and the dense ones.
fn assert_shapes_covered(seen: &BTreeSet<(&'static str, bool)>) {
    for wanted in [
        ("Direct", false),
        ("BoundedPrefix", true),
        ("Decomposed", true),
        ("DenseClosure", true),
    ] {
        assert!(seen.contains(&wanted), "{wanted:?} never resumed: {seen:?}");
    }
}

#[test]
fn resume_from_the_seed_is_execute() {
    let mut seen = BTreeSet::new();
    for ResumeCase {
        name,
        rules: all,
        db,
        init,
        ..
    } in resume_cases()
    {
        for (plan, planned) in candidate_plans(&all, &db, &init) {
            let executed = plan.execute(&db, &init).unwrap();
            // `DenseClosure` executes by another algorithm; its
            // incremental form is the rule-sum resume, `Direct`'s.
            let expected_stats = match plan.shape() {
                PlanShape::DenseClosure => {
                    Plan::direct(all.as_slice())
                        .execute(&db, &init)
                        .unwrap()
                        .stats
                }
                _ => executed.stats,
            };
            for par in knobs() {
                let Some((relation, stats)) = resumed(&plan, &db, &init, &init, &par) else {
                    continue;
                };
                seen.insert((plan.shape().label(), planned));
                let what = format!("{name} {:?} {par:?}", plan.shape());
                assert_eq!(relation.sorted(), executed.relation.sorted(), "{what}");
                assert_eq!(stats, expected_stats, "{what}");
            }
        }
    }
    assert_shapes_covered(&seen);
}

#[test]
fn execute_then_resume_is_execute_on_the_grown_database() {
    let mut seen = BTreeSet::new();
    for (i, case) in resume_cases().into_iter().enumerate() {
        let ResumeCase {
            name,
            rules: all,
            db,
            init,
            nodes,
        } = case;
        // Grow every EDB relation and the seed by a few tuples.
        let mut g = Gen(i as u64 ^ 0xD1FF);
        let mut pair = || [nodes, nodes].map(|n| Value::Int(g.below(n) as i64));
        let mut grown_db = db.clone();
        let mut grown_init = init.clone();
        for rule in &all {
            for atom in rule.nonrec_atoms() {
                grown_db.insert_tuple(atom.pred, pair());
                grown_db.insert_tuple(atom.pred, pair());
            }
        }
        grown_init.insert(pair());
        grown_init.insert(pair());
        let (reference, _) = naive_star(&all, &grown_db, &grown_init);

        for (plan, planned) in candidate_plans(&all, &db, &init) {
            let view = plan.execute(&db, &init).unwrap().relation;
            // Δ₀: the new seed tuples, and every one-step consequence of
            // the view over the grown database that the view lacks.
            let mut delta0 = Relation::new(view.arity());
            delta0.insert_unseen(grown_init.iter(), &view);
            for rule in &all {
                let (derived, _) = apply_linear(rule, &grown_db, &view, &mut Indexes::new());
                delta0.insert_unseen(derived.iter(), &view);
            }
            let mut start = view.clone();
            start.union_in_place(&delta0);

            let what = format!("{name} {:?}", plan.shape());
            let mut stats_by_knob = Vec::new();
            for par in knobs() {
                let Some((relation, stats)) = resumed(&plan, &grown_db, &start, &delta0, &par)
                else {
                    continue;
                };
                seen.insert((plan.shape().label(), planned));
                assert_eq!(relation.sorted(), reference.sorted(), "{what} {par:?}");
                stats_by_knob.push(stats);
            }
            if let [sequential, sharded] = stats_by_knob[..] {
                assert_eq!(
                    sequential, sharded,
                    "{what}: statistics under the two knobs"
                );
                let scratch = plan.execute(&grown_db, &grown_init).unwrap();
                assert_eq!(scratch.relation.sorted(), reference.sorted(), "{what}");
            }
        }
    }
    assert_shapes_covered(&seen);
}
