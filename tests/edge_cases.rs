//! Edge-case coverage across the workspace: degenerate rules, unusual
//! α-graph shapes, selection corner cases, and analysis-boundary behavior.

use linrec::alpha::{
    i_separator, link1_separator, narrow_rule, wide_rule, AlphaGraph, BridgeDecomposition,
    Classification, PersistenceClass,
};
use linrec::core::{
    commute_by_definition, commutes_exact, commutes_sufficient, identity_operator, torsion_index,
    uniformly_bounded, ExactOutcome, Sufficiency,
};
use linrec::cq::{compose, linear_equivalent, minimize_linear, power};
use linrec::engine::{apply_linear, magic_applicable, rules, workload, Indexes, Plan, Selection};
use linrec::prelude::*;

fn direct(rules: &[LinearRule], db: &Database, init: &Relation) -> (Relation, EvalStats) {
    let out = Plan::direct(rules.to_vec()).execute(db, init).unwrap();
    (out.relation, out.stats)
}

fn lr(src: &str) -> LinearRule {
    parse_linear_rule(src).unwrap()
}

// --- identity and degenerate operators ---------------------------------

#[test]
fn identity_rule_commutes_with_everything() {
    let one = identity_operator(&Atom::from_vars("p", &[Var::new("x"), Var::new("y")]));
    for other in [
        lr("p(x,y) :- p(x,z), q(z,y)."),
        lr("p(x,y) :- p(y,x)."),
        lr("p(x,y) :- p(u,v), q(x,u), q2(v,y)."),
    ] {
        assert!(commute_by_definition(&one, &other).unwrap());
    }
}

#[test]
fn identity_is_torsion_trivially() {
    let one = identity_operator(&Atom::from_vars("p", &[Var::new("x")]));
    let w = torsion_index(&one, 3).unwrap().unwrap();
    assert_eq!((w.k, w.n), (1, 2));
}

#[test]
fn pure_permutation_rules_commute_iff_permutations_commute() {
    // Disjoint swaps commute; overlapping non-commuting permutations don't.
    let swap12 = lr("p(a,b,c,d) :- p(b,a,c,d).");
    let swap34 = lr("p(a,b,c,d) :- p(a,b,d,c).");
    let rot = lr("p(a,b,c,d) :- p(b,c,d,a).");
    assert!(commute_by_definition(&swap12, &swap34).unwrap());
    assert!(!commute_by_definition(&swap12, &rot).unwrap());
    // The exact test agrees (pure permutations are in the restricted class).
    assert_eq!(
        commutes_exact(&swap12, &swap34).unwrap(),
        ExactOutcome::Commute
    );
    assert!(matches!(
        commutes_exact(&swap12, &rot).unwrap(),
        ExactOutcome::DoNotCommute(_)
    ));
}

// --- α-graph corner shapes ----------------------------------------------

#[test]
fn all_nondistinguished_body() {
    // Every rec-body variable fresh: all head vars general, one bridge per
    // connected component of statics.
    let r = lr("p(x,y) :- p(u,v), q(x), s(y).");
    let c = Classification::classify(&r).unwrap();
    for v in ["x", "y"] {
        assert_eq!(
            c.class(Var::new(v)),
            Some(PersistenceClass::General { ray: None })
        );
    }
    let g = AlphaGraph::new(&r).unwrap();
    let d = BridgeDecomposition::wrt_link1(&g, &c);
    assert!(d.separator_edges().is_empty());
    // q-bridge+dyn(u->x), s-bridge+dyn(v->y): 2 bridges.
    assert_eq!(d.bridges().len(), 2);
}

#[test]
fn rule_with_no_nonrecursive_atoms() {
    let r = lr("p(x,y) :- p(y,x).");
    let g = AlphaGraph::new(&r).unwrap();
    assert!(g.static_arcs().is_empty());
    assert_eq!(g.dynamic_arcs().len(), 2);
    let c = Classification::classify(&r).unwrap();
    assert_eq!(
        c.class(Var::new("x")),
        Some(PersistenceClass::FreePersistent(2))
    );
    // Its bridges: the single dynamic 2-cycle.
    let d = BridgeDecomposition::wrt_link1(&g, &c);
    assert_eq!(d.bridges().len(), 1);
    assert_eq!(d.bridges()[0].edges.len(), 2);
}

#[test]
fn separators_differ_between_sections_5_and_6() {
    // Example 6.2: §5's separator is empty (no link 1-persistent vars);
    // §6's G_I has 3 arcs (the 2-cycle + the ray arc).
    let r = rules::example_6_2();
    let g = AlphaGraph::new(&r).unwrap();
    let c = Classification::classify(&r).unwrap();
    assert!(link1_separator(&g, &c).is_empty());
    assert_eq!(i_separator(&g, &c).len(), 3);
}

#[test]
fn narrow_and_wide_rules_of_dynamic_only_bridges() {
    // The free 2-persistent cycle {u,v} forms a dynamic-only bridge whose
    // narrow rule has no nonrecursive atoms.
    let r = lr("p(x,u,v) :- p(x,v,u), q(x).");
    let g = AlphaGraph::new(&r).unwrap();
    let c = Classification::classify(&r).unwrap();
    let d = BridgeDecomposition::wrt_link1(&g, &c);
    let bu = d.bridge_containing(Var::new("u")).unwrap();
    let aug = d.augmented(&g, bu);
    let n = narrow_rule(&g, &aug).unwrap();
    assert_eq!(n, lr("p(u,v) :- p(v,u)."));
    let w = wide_rule(&g, &aug).unwrap();
    assert_eq!(w, lr("p(x,u,v) :- p(x,v,u)."));
}

#[test]
fn long_persistence_cycles_classify() {
    let r = lr("p(a,b,c,d,e) :- p(b,c,d,e,a).");
    let c = Classification::classify(&r).unwrap();
    for v in ["a", "b", "c", "d", "e"] {
        assert_eq!(
            c.class(Var::new(v)),
            Some(PersistenceClass::FreePersistent(5))
        );
    }
    // A 5-cycle rotation is torsion with period 5: r^6 = r.
    let w = torsion_index(&r, 8).unwrap().unwrap();
    assert_eq!((w.k, w.n), (1, 6));
}

// --- composition / minimization corners ---------------------------------

#[test]
fn composing_filters_accumulates_atoms() {
    let f1 = lr("p(x,y) :- p(x,y), a(x).");
    let f2 = lr("p(x,y) :- p(x,y), b(y).");
    let c = compose(&f1, &f2).unwrap();
    assert_eq!(c.nonrec_atoms().len(), 2);
    // Idempotent: composing again changes nothing.
    let c2 = compose(&c, &f2).unwrap();
    assert!(linear_equivalent(&c, &c2));
}

#[test]
fn minimization_folds_redundant_walks() {
    // The second walk folds onto the first.
    let r = lr("p(x,y) :- p(x,z), q(z,y), q(z,w1), q(z,w2).");
    let m = minimize_linear(&r);
    assert_eq!(m.nonrec_atoms().len(), 1);
}

#[test]
fn high_powers_of_persistent_rules_stay_small() {
    let r = lr("p(x,y) :- p(y,x), q(x,y).");
    let p8 = power(&r, 8).unwrap();
    let m = minimize_linear(&p8);
    // Powers alternate between two shapes; the minimized 8th power has at
    // most 2 q-atoms.
    assert!(m.nonrec_atoms().len() <= 2, "got {}", m);
}

#[test]
fn oscillating_walks_are_not_bounded() {
    // q(z,y), q(y,z) oscillates but the chain endpoints are pinned by
    // distinguished variables: powers never fold back. (Repeated
    // predicates alone do not imply boundedness.)
    let r = lr("p(x,y) :- p(x,z), q(z,y), q(y,z).");
    assert_eq!(uniformly_bounded(&r, 6).unwrap(), None);
    // Whereas an idempotent filter on persistent columns is bounded at
    // the first power.
    let f = lr("p(x,y) :- p(x,y), q(x,y), q(y,x).");
    let w = uniformly_bounded(&f, 4).unwrap().unwrap();
    assert_eq!((w.k, w.n), (1, 2));
}

// --- sufficient-test boundaries -----------------------------------------

#[test]
fn sufficient_test_requires_distinct_head_vars() {
    let r1 = lr("p(x,x) :- p(x,y), q(y,x).");
    let r2 = lr("p(x,y) :- p(x,z), q(z,y).");
    // Alignment fails on the repeated head; the test reports an error
    // rather than a wrong verdict.
    assert!(commutes_sufficient(&r1, &r2).is_err());
}

#[test]
fn sufficient_test_handles_minimizable_rules() {
    // Redundant atom disappears under minimization; the verdict must match
    // the minimal form's.
    let verbose = lr("p(x,y) :- p(x,z), q(z,y), q(z,w).");
    let plain = lr("p(x,y) :- p(w,y), q(x,w).");
    assert_eq!(
        commutes_sufficient(&verbose, &plain).unwrap(),
        Sufficiency::Commute
    );
    assert!(commute_by_definition(&verbose, &plain).unwrap());
}

// --- selections and magic corners ----------------------------------------

#[test]
fn multi_position_selection_pushdown() {
    let r = lr("p(x,y) :- p(w,y), up(x,w).");
    let sel = Selection::eq(0, 0).and(1, 30);
    assert!(magic_applicable(&r, &sel));
    let mut db = Database::new();
    db.set_relation("up", workload::chain(20));
    let init = Relation::from_pairs([(20, 30), (20, 31), (5, 30)]);
    let (fast, _) = linrec::engine::eval_selected_star(&r, &db, &init, &sel);
    let (full, _) = direct(std::slice::from_ref(&r), &db, &init);
    assert_eq!(fast.sorted(), sel.apply(&full).sorted());
    assert_eq!(fast.len(), 1); // (0,30) via the chain from 20, plus... 5→..→0 also reaches (0,30)? chain edges are i→i+1, up(x,w) walks backwards: from (20,30) to (0,30). (5,30) walks to (0,30) too — same tuple.
}

#[test]
fn selection_on_constant_rec_position() {
    // The recursive atom holds a constant at the selected position: the
    // magic rule would be `·mag(7) :- ·mag(y), e(7,y)`, which is no linear
    // rule, so σ is applied after the star — by the plan and by
    // `eval_selected_star` alike.
    let r = lr("p(x,y) :- p(x,7), e(7,y).");
    let sel = Selection::eq(1, 9);
    assert!(!magic_applicable(&r, &sel));
    let mut db = Database::new();
    db.set_relation("e", Relation::from_pairs([(7, 9), (7, 8), (1, 7)]));
    let init = Relation::from_pairs([(1, 7), (2, 3)]);
    let (full, _) = direct(std::slice::from_ref(&r), &db, &init);
    let expected = sel.apply(&full);
    assert_eq!(expected.sorted(), Relation::from_pairs([(1, 9)]).sorted());
    let (fast, _) = linrec::engine::eval_selected_star(&r, &db, &init, &sel);
    assert_eq!(fast.sorted(), expected.sorted());
    let up = lr("p(x,y) :- p(w,y), up(x,w).");
    let cert = SeparabilityCert::establish(&up, &r).unwrap().unwrap();
    let separable = Plan::separable(cert, Selection::eq(1, 9)).unwrap();
    let out = separable.execute(&db, &init).unwrap();
    assert_eq!(out.relation.sorted(), expected.sorted());
    assert!(out.trace[0].label.contains("push-down not applicable"));
    // Out-of-range positions are not applicable either.
    assert!(!magic_applicable(&r, &Selection::eq(5, 1)));
}

#[test]
fn select_after_on_empty_result() {
    let r = lr("p(x,y) :- p(x,z), e(z,y).");
    let db = Database::new();
    let init = Relation::new(2);
    let sel = Selection::eq(0, 1);
    let out = Plan::select_after(Plan::direct(vec![r]), sel)
        .execute(&db, &init)
        .unwrap();
    assert!(out.relation.is_empty());
    assert_eq!(out.stats.tuples, 0);
}

// --- engine robustness ----------------------------------------------------

#[test]
fn self_loop_heavy_graphs_terminate() {
    let tc = rules::tc_right();
    let mut edges = workload::cycle(5);
    edges.insert(vec![Value::Int(0), Value::Int(0)]);
    let db = workload::graph_db("q", edges.clone());
    let (result, stats) = direct(std::slice::from_ref(&tc), &db, &edges);
    assert_eq!(result.len(), 25);
    assert!(stats.iterations < 20);
}

#[test]
fn disconnected_components_stay_disconnected() {
    let tc = rules::tc_right();
    let mut edges = Relation::new(2);
    for (a, b) in [(1, 2), (2, 3), (10, 11), (11, 12)] {
        edges.insert(vec![Value::Int(a), Value::Int(b)]);
    }
    let db = workload::graph_db("q", edges.clone());
    let (result, _) = direct(std::slice::from_ref(&tc), &db, &edges);
    assert_eq!(result.len(), 6); // 3 pairs per component
    assert!(!result.contains(&[Value::Int(1), Value::Int(12)]));
}

#[test]
fn program_api_applies_selection_on_direct_plans() {
    let prog = linrec::engine::Program::parse(
        "p(x,y) :- p(x,z), a(z,y).
         p(x,y) :- p(x,z), b(z,y).
         a(1,2). b(2,3). p(0,1).",
    )
    .unwrap();
    let sel = Selection::eq(1, 3);
    let (outcome, plan) = prog.run(Some(&sel)).unwrap();
    assert_eq!(
        plan.shape(),
        PlanShape::SelectAfter(Box::new(PlanShape::Direct))
    );
    assert_eq!(
        outcome.relation.sorted(),
        vec![vec![Value::Int(0), Value::Int(3)]]
    );
}

// --- provenance -----------------------------------------------------------

#[test]
fn explained_derivations_replay_to_their_tuples() {
    // Every derived tuple of the shipped programs: the first parent is a
    // seed, each step's rule applied to its parent yields the next step's
    // parent, and the last step yields the tuple itself.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/programs");
    let (mut programs, mut derived) = (0, 0);
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|ext| ext != "lr") {
            continue;
        }
        let prog = Program::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let (rules, db, init) = (prog.rules(), prog.database(), prog.init());
        let (total, prov) = linrec::engine::eval_with_provenance(rules, db, init);
        for t in total.iter().filter(|t| !init.contains(t)) {
            let what = format!("{} {t:?}", path.display());
            let steps = prov.derivation(t).unwrap_or_else(|| panic!("{what}"));
            assert!(init.contains(&steps.first().expect(&what).parent), "{what}");
            for (i, step) in steps.iter().enumerate() {
                let next = steps.get(i + 1).map_or(t, |s| s.parent.as_slice());
                let parent = Relation::from_tuples(step.parent.len(), [&step.parent]);
                let (image, _) = apply_linear(&rules[step.rule], db, &parent, &mut Indexes::new());
                assert!(image.contains(next), "{what}: step {i} does not replay");
            }
            derived += 1;
        }
        programs += 1;
    }
    assert_eq!(programs, 4);
    assert!(derived > 0);
}
