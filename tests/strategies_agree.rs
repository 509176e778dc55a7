//! Cross-strategy agreement on concrete data, through the
//! `Analysis → Plan → Execution` pipeline: every certificate-backed plan
//! computes the same relation as the direct baseline, and the paper's
//! inequalities hold.

use linrec::core::semi_commute;
use linrec::engine::seminaive::naive_star;
use linrec::engine::{apply_linear, rules, Analysis, Indexes, Plan, PlanShape, Selection};
use linrec::prelude::*;
use linrec_testkit as workload;

/// `Π_g (Σ g)*` by explicit right-to-left chaining of certificate-free
/// direct plans — the ground-truth decomposed evaluation used when the
/// grouping under test is a *claim* (semi-commutation, forced orders)
/// rather than a planner certificate.
fn chain_stars(
    groups: &[Vec<LinearRule>],
    db: &Database,
    init: &Relation,
) -> (Relation, EvalStats) {
    let mut stats = EvalStats::default();
    let mut current = init.clone();
    for group in groups.iter().rev() {
        let out = Plan::direct(group.clone()).execute(db, &current).unwrap();
        stats += out.stats;
        current = out.relation;
    }
    stats.tuples = current.len();
    (current, stats)
}

/// Theorem 4.2's bounded evaluation of `A*q` from a redundancy
/// certificate's Theorem 6.4 witnesses (`Aᴸ = BCᴸ`, `Cᴺ = Cᴷ`, period
/// `P = N − K`):
///
/// ```text
/// A*q = Σ_{m<KL} Aᵐq  ∪  Σ_{n<L} Aⁿ ( Σ_{r<P} B( C^{(K+r)L} ( (Bᴾ)* ( B^{K−1+r} q ))))
/// ```
///
/// from `A^{mL} = B·C^{mL}·B^{m−1}` and the torsion collapse
/// `C^{mL} = C^{g(m)L}`: each branch applies `C` at most `(N−1)·L` times,
/// "beyond which only B is processed". No plan runs this; under a
/// hash-join executor it does more derivations than `Direct`.
fn redundancy_bounded(cert: &RedundancyCert, db: &Database, init: &Relation) -> Relation {
    let (rule, dec) = (cert.rule(), cert.decomposition());
    let (k, n, l) = (dec.torsion.k, dec.torsion.n, dec.l);
    let period = n - k;
    let indexes = &mut Indexes::new();
    // The exact image `Rᶜᵒᵘⁿᵗ q`.
    let mut apply = |r: &LinearRule, q: &Relation, count: usize| {
        (0..count).fold(q.clone(), |cur, _| apply_linear(r, db, &cur, indexes).0)
    };
    let mut result = init.clone();
    let mut cur = init.clone();
    for _ in 1..k * l {
        cur = apply(rule, &cur, 1);
        result.union_in_place(&cur);
    }
    let b_period_star = Plan::direct(vec![power(&dec.b, period).unwrap()]);
    let mut acc = Relation::new(rule.arity());
    let mut img = apply(&dec.b, init, k - 1);
    for r in 0..period {
        if r > 0 {
            img = apply(&dec.b, &img, 1);
        }
        let starred = b_period_star.execute(db, &img).unwrap().relation;
        let after_c = apply(&dec.c, &starred, (k + r) * l);
        acc.union_in_place(&apply(&dec.b, &after_c, 1));
    }
    result.union_in_place(&acc);
    let mut cur = acc;
    for _ in 1..l {
        cur = apply(rule, &cur, 1);
        result.union_in_place(&cur);
    }
    result
}

#[test]
fn all_graph_shapes_direct_vs_naive() {
    let tc = rules::tc_right();
    for (name, edges) in [
        ("chain", workload::chain(30)),
        ("cycle", workload::cycle(12)),
        ("tree", workload::binary_tree(5)),
        ("random", workload::random_graph(40, 80, 3)),
        ("grid", workload::grid(5, 5)),
        ("layered", workload::layered(4, 5, 2, 9)),
    ] {
        let db = workload::graph_db("q", edges.clone());
        let a = Plan::direct(vec![tc.clone()]).execute(&db, &edges).unwrap();
        let (b, _) = naive_star(std::slice::from_ref(&tc), &db, &edges);
        assert_eq!(a.relation.sorted(), b.sorted(), "{name}");
    }
}

#[test]
fn planned_decomposition_equals_direct_and_never_more_duplicates() {
    // Theorem 3.1 across workloads and seeds, with the planner (not the
    // caller) certifying the decomposition.
    let all = vec![rules::up_rule(), rules::down_rule()];
    let analysis = Analysis::of(&all, None);
    for seed in 0..6u64 {
        let (db, init) = workload::up_down(6, seed);
        let plan = analysis.plan_for(&db, &init);
        assert!(matches!(plan.shape(), PlanShape::Decomposed { .. }));
        let direct = Plan::direct(all.clone()).execute(&db, &init).unwrap();
        let dec = plan.execute(&db, &init).unwrap();
        assert_eq!(
            direct.relation.sorted(),
            dec.relation.sorted(),
            "seed {seed}"
        );
        assert!(
            dec.stats.duplicates <= direct.stats.duplicates,
            "Theorem 3.1 violated at seed {seed}: {} > {}",
            dec.stats.duplicates,
            direct.stats.duplicates
        );
    }
}

#[test]
fn decomposition_order_is_irrelevant_for_commuting_pairs() {
    let (up, down) = (rules::up_rule(), rules::down_rule());
    let (db, init) = workload::up_down(5, 17);
    let (a, _) = chain_stars(&[vec![up.clone()], vec![down.clone()]], &db, &init);
    let (b, _) = chain_stars(&[vec![down], vec![up]], &db, &init);
    assert_eq!(a.sorted(), b.sorted());
}

#[test]
fn decomposed_plans_require_the_certificate() {
    // The certificate (hence the Decomposed node) is only available when
    // the rules actually commute — and carries the clusters it proved.
    let commuting = vec![rules::up_rule(), rules::down_rule()];
    let cert = CommutativityCert::establish(&commuting).unwrap().unwrap();
    assert_eq!(cert.clusters().len(), 2);
    let plan = Plan::decomposed(cert);
    assert!(matches!(plan.shape(), PlanShape::Decomposed { .. }));

    let clashing = vec![
        parse_linear_rule("p(x,y) :- p(x,z), a(z,y).").unwrap(),
        parse_linear_rule("p(x,y) :- p(x,z), b(z,y).").unwrap(),
    ];
    assert!(CommutativityCert::establish(&clashing).unwrap().is_none());
}

#[test]
fn semi_commutation_certificate_validates_on_data() {
    // CB ≤ C² (witness (0,2)) ⇒ (B+C)* = B*C* — check on data. The
    // clustering certificate does not cover order-directed semi-commutation,
    // so the decomposed side is the explicit B*C* chain.
    let b = parse_linear_rule("p(x,y) :- p(x,z), q(z,y), t(y).").unwrap();
    let c = parse_linear_rule("p(x,y) :- p(x,z), q(z,y).").unwrap();
    assert_eq!(semi_commute(&b, &c, 2).unwrap(), Some((0, 2)));
    let mut db = Database::new();
    db.set_relation("q", workload::random_graph(25, 60, 5));
    let marks: Relation = Relation::from_tuples(
        1,
        (0..25).filter(|i| i % 2 == 0).map(|i| vec![Value::Int(i)]),
    );
    db.set_relation("t", marks);
    let init = workload::random_graph(25, 10, 6);
    let direct = Plan::direct(vec![b.clone(), c.clone()])
        .execute(&db, &init)
        .unwrap();
    // B*C*: C applied first.
    let (dec, _) = chain_stars(&[vec![b], vec![c]], &db, &init);
    assert_eq!(direct.relation.sorted(), dec.sorted());
}

#[test]
fn lassez_maher_sum_star_identity_on_data() {
    // §3.2, Lassez–Maher: BC = CB = B + C ⇒ (B+C)* = B* + C*.
    // Witness pair: B idempotent filter, C = B with an extra folding atom
    // (so BC = CB = B + C as operators).
    let b = parse_linear_rule("p(x,y) :- p(x,y), s(x).").unwrap();
    let c = parse_linear_rule("p(x,y) :- p(x,y), s(x), s(w).").unwrap();
    assert!(linrec::core::lassez_maher_sum_condition(&b, &c).unwrap());
    let mut db = Database::new();
    db.set_relation(
        "s",
        Relation::from_tuples(
            1,
            (0..10).filter(|i| i % 2 == 0).map(|i| vec![Value::Int(i)]),
        ),
    );
    let init = workload::random_graph(10, 20, 77);
    let sum_star = Plan::direct(vec![b.clone(), c.clone()])
        .execute(&db, &init)
        .unwrap();
    // B* + C* applied to init: union of the two separate stars.
    let b_star = Plan::direct(vec![b]).execute(&db, &init).unwrap();
    let c_star = Plan::direct(vec![c]).execute(&db, &init).unwrap();
    let mut star_sum = b_star.relation;
    star_sum.union_in_place(&c_star.relation);
    assert_eq!(sum_star.relation.sorted(), star_sum.sorted());
}

#[test]
fn lassez_maher_star_sum_identity_on_data() {
    // B*C* = C*B* ⇒ (B+C)* = B*C* (Dong §3.2); and commuting pairs satisfy
    // it. Validate the star-level identity on data for the up/down pair.
    let (up, down) = (rules::up_rule(), rules::down_rule());
    let (db, init) = workload::up_down(5, 23);
    let (bstar_cstar, _) = chain_stars(&[vec![up.clone()], vec![down.clone()]], &db, &init);
    let (cstar_bstar, _) = chain_stars(&[vec![down], vec![up]], &db, &init);
    assert_eq!(bstar_cstar.sorted(), cstar_bstar.sorted());
}

#[test]
fn separable_plan_agrees_across_selections() {
    let (up, down) = (rules::up_rule(), rules::down_rule());
    let (db, init) = workload::up_down(6, 31);
    let offset = 1i64 << 7;
    let all = vec![down.clone(), up.clone()];
    let cert = SeparabilityCert::establish(&up, &down).unwrap().unwrap();
    for target in [offset + 1, offset + 2, offset + 5, 999_999] {
        let sel = Selection::eq(1, target);
        let slow = Plan::select_after(Plan::direct(all.clone()), sel.clone())
            .execute(&db, &init)
            .unwrap();
        let fast = Plan::separable(cert.clone(), sel)
            .unwrap()
            .execute(&db, &init)
            .unwrap();
        assert_eq!(
            slow.relation.sorted(),
            fast.relation.sorted(),
            "target {target}"
        );
    }
}

#[test]
fn planner_picks_separable_when_selection_commutes() {
    let all = vec![rules::down_rule(), rules::up_rule()];
    let (db, init) = workload::up_down(5, 31);
    let sel = Selection::eq(1, (1i64 << 6) + 2);
    let plan = Analysis::of(&all, Some(&sel)).plan_for(&db, &init);
    assert_eq!(plan.shape(), PlanShape::Separable);
    let fast = plan.execute(&db, &init).unwrap();
    let slow = Plan::select_after(Plan::direct(all), sel)
        .execute(&db, &init)
        .unwrap();
    assert_eq!(fast.relation.sorted(), slow.relation.sorted());
}

#[test]
fn redundancy_bounded_agrees_on_random_shopping_workloads() {
    let rule = rules::shopping_rule();
    let cert = RedundancyCert::establish(&rule, Symbol::new("cheap"), 8)
        .unwrap()
        .unwrap();
    for seed in 0..5u64 {
        let (db, init) = workload::shopping(60, 12, 3, seed);
        let direct = Plan::direct(vec![rule.clone()])
            .execute(&db, &init)
            .unwrap();
        let bounded = redundancy_bounded(&cert, &db, &init);
        assert_eq!(direct.relation.sorted(), bounded.sorted(), "seed {seed}");
    }
}

#[test]
fn redundancy_bounded_agrees_on_example_6_3() {
    // The non-commuting case: only the C²-prefixed equality holds, and the
    // bounded evaluation must still be exact.
    let rule = rules::example_6_3();
    let cert = RedundancyCert::establish(&rule, Symbol::new("r"), 8)
        .unwrap()
        .unwrap();
    for seed in 0..4u64 {
        let mut db = Database::new();
        db.set_relation("q", workload::random_graph(6, 14, seed));
        db.set_relation("r", workload::random_graph(6, 14, seed + 100));
        db.set_relation("s", workload::random_graph(6, 14, seed + 200));
        let mut init = Relation::new(4);
        let pairs = workload::random_graph(6, 10, seed + 300);
        for t in pairs.iter() {
            let (a, b) = (t[0], t[1]);
            init.insert(vec![a, b, a, b]);
            init.insert(vec![b, a, b, a]);
        }
        let direct = Plan::direct(vec![rule.clone()])
            .execute(&db, &init)
            .unwrap();
        let bounded = redundancy_bounded(&cert, &db, &init);
        assert_eq!(direct.relation.sorted(), bounded.sorted(), "seed {seed}");
    }
}

#[test]
fn three_way_decomposition_with_planner() {
    // Three mutually commuting operators: the analysis fully decomposes;
    // the certified plan equals the direct star.
    let r1 = parse_linear_rule("p(x,y,z) :- p(x,y,w), a(w,z).").unwrap();
    let r2 = parse_linear_rule("p(x,y,z) :- p(w,y,z), b(x,w).").unwrap();
    let r3 = parse_linear_rule("p(x,y,z) :- p(x,y,z), c(y).").unwrap();
    let all = vec![r1, r2, r3];
    let analysis = Analysis::of(&all, None);
    let cert = analysis.commutativity().expect("mutually commuting");
    assert_eq!(cert.clusters().len(), 3);

    let mut db = Database::new();
    db.set_relation("a", workload::random_graph(10, 25, 1));
    db.set_relation("b", workload::random_graph(10, 25, 2));
    db.set_relation(
        "c",
        Relation::from_tuples(1, (0..10).map(|i| vec![Value::Int(i)])),
    );
    let mut init = Relation::new(3);
    for t in workload::random_graph(10, 12, 3).iter() {
        init.insert(vec![t[0], t[1], t[0]]);
    }
    let direct = Plan::direct(all).execute(&db, &init).unwrap();
    let dec = Plan::decomposed(cert.clone()).execute(&db, &init).unwrap();
    assert_eq!(direct.relation.sorted(), dec.relation.sorted());
}

#[test]
fn selection_after_decomposition_for_multiple_selections() {
    // §4.1 generalization: σ₁σ₂(A₁+A₂)* = (σ₁A₁*)(σ₂A₂*) when σᵢ commutes
    // with the other operator. Validate on data.
    let (up, down) = (rules::up_rule(), rules::down_rule());
    let (db, init) = workload::up_down(5, 41);
    let offset = 1i64 << 6;
    // σ1 on position 0 (up-moving) commutes with down; σ2 on position 1
    // commutes with up.
    let s0 = Selection::eq(0, 3);
    let s1 = Selection::eq(1, offset + 3);
    let full = Plan::direct(vec![down.clone(), up.clone()])
        .execute(&db, &init)
        .unwrap();
    let expected = s0.apply(&s1.apply(&full.relation));

    // (σ0 up*)(σ1 down*) q: evaluate down side with σ1 pushed, then up side
    // with σ0 pushed.
    let (inner, _) = linrec::engine::eval_selected_star(&down, &db, &init, &s1);
    let (outer, _) = linrec::engine::eval_selected_star(&up, &db, &inner, &s0);
    assert_eq!(outer.sorted(), expected.sorted());
}

#[test]
fn baseline_plans_agree_with_each_other() {
    let all = vec![rules::down_rule(), rules::up_rule()];
    let (db, init) = workload::up_down(5, 13);
    let direct = Plan::direct(all.clone()).execute(&db, &init).unwrap();
    assert_eq!(direct.stats.tuples, direct.relation.len());

    let (naive, _) = naive_star(&all, &db, &init);
    assert_eq!(naive.sorted(), direct.relation.sorted());

    let sel = Selection::eq(1, (1i64 << 6) + 1);
    let selected = Plan::select_after(Plan::direct(all), sel.clone())
        .execute(&db, &init)
        .unwrap();
    assert_eq!(
        selected.relation.sorted(),
        sel.apply(&direct.relation).sorted()
    );
}
