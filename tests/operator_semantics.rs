//! Cross-layer soundness: the algebra of rules (linrec-cq / linrec-core)
//! versus their semantics on data (linrec-engine).
//!
//! * composition by resolution = functional composition: `(r₁r₂)(P) =
//!   r₁(r₂(P))` — the operator product of Section 2;
//! * syntactic containment (homomorphism) ⇒ data-level containment
//!   (Chandra–Merlin soundness);
//! * the closed semi-ring laws of Section 2 hold pointwise on relations.

use linrec::cq::{compose, linear_contains, power};
use linrec::engine::{apply_linear, Indexes};
use linrec::prelude::*;
use linrec_testkit as workload;
use proptest::prelude::*;

const NONDIST: [&str; 3] = ["n0", "n1", "n2"];
const PREDS: [&str; 2] = ["q", "r"];
const UPREDS: [&str; 2] = ["uq", "ur"];

fn head_vars(arity: usize) -> Vec<Var> {
    (0..arity).map(|i| Var::new(&format!("x{i}"))).collect()
}

prop_compose! {
    fn arb_rule(arity: usize)(
        rec_choice in proptest::collection::vec(0u8..4, arity),
        atoms in proptest::collection::vec(
            proptest::option::of((any::<bool>(), 0u8..8, 0u8..8)),
            PREDS.len(),
        ),
    ) -> Option<LinearRule> {
        let hv = head_vars(arity);
        let head = Atom::from_vars("p", &hv);
        let rec_terms: Vec<Term> = rec_choice
            .iter()
            .enumerate()
            .map(|(i, &c)| match c {
                0 => Term::Var(hv[i]),
                1 => Term::Var(hv[(i + 1) % arity]),
                other => Term::Var(Var::new(NONDIST[(other as usize) % NONDIST.len()])),
            })
            .collect();
        let pool: Vec<Var> = hv
            .iter()
            .copied()
            .chain(NONDIST.iter().map(|s| Var::new(s)))
            .collect();
        let mut nonrec = Vec::new();
        for (pi, slot) in atoms.iter().enumerate() {
            if let Some((unary, a, b)) = slot {
                let t1 = pool[(*a as usize) % pool.len()];
                if *unary {
                    nonrec.push(Atom::from_vars(UPREDS[pi], &[t1]));
                } else {
                    let t2 = pool[(*b as usize) % pool.len()];
                    nonrec.push(Atom::from_vars(PREDS[pi], &[t1, t2]));
                }
            }
        }
        LinearRule::from_parts(head, Atom::new("p", rec_terms), nonrec).ok()
    }
}

fn rule2() -> impl Strategy<Value = LinearRule> {
    // Evaluation needs range-restricted rules (otherwise the answer is
    // infinite and the engine rejects the rule).
    arb_rule(2).prop_filter_map("valid range-restricted rule", |r| {
        r.filter(|r| r.is_range_restricted())
    })
}

fn test_db(seed: u64) -> Database {
    let mut db = Database::new();
    db.set_relation("q", workload::random_graph(6, 12, seed));
    db.set_relation("r", workload::random_graph(6, 12, seed + 1));
    db.set_relation(
        "uq",
        Relation::from_tuples(
            1,
            (0..6).filter(|i| i % 2 == 0).map(|i| vec![Value::Int(i)]),
        ),
    );
    db.set_relation(
        "ur",
        Relation::from_tuples(
            1,
            (0..6).filter(|i| i % 3 != 0).map(|i| vec![Value::Int(i)]),
        ),
    );
    db
}

fn apply(rule: &LinearRule, db: &Database, p: &Relation) -> Relation {
    apply_linear(rule, db, p, &mut Indexes::new()).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn composition_equals_functional_composition(
        r1 in rule2(),
        r2 in rule2(),
        seed in 0u64..500,
    ) {
        let db = test_db(seed);
        let p = workload::random_graph(6, 10, seed + 2);
        let composed = compose(&r1, &r2).unwrap();
        let via_algebra = apply(&composed, &db, &p);
        let via_function = apply(&r1, &db, &apply(&r2, &db, &p));
        prop_assert_eq!(via_algebra.sorted(), via_function.sorted(),
            "(r1 r2)(P) != r1(r2(P)) for r1 = {}, r2 = {}", r1, r2);
    }

    #[test]
    fn powers_equal_iterated_application(
        r in rule2(),
        n in 1usize..4,
        seed in 0u64..500,
    ) {
        let db = test_db(seed);
        let p = workload::random_graph(6, 10, seed + 2);
        let pow = power(&r, n).unwrap();
        let via_algebra = apply(&pow, &db, &p);
        let mut via_function = p.clone();
        for _ in 0..n {
            via_function = apply(&r, &db, &via_function);
        }
        prop_assert_eq!(via_algebra.sorted(), via_function.sorted());
    }

    #[test]
    fn containment_is_sound_on_data(
        r1 in rule2(),
        r2 in rule2(),
        seed in 0u64..500,
    ) {
        if linear_contains(&r1, &r2) {
            // r2 ≤ r1: on every database, r2's output ⊆ r1's output.
            let db = test_db(seed);
            let p = workload::random_graph(6, 10, seed + 2);
            let out1 = apply(&r1, &db, &p);
            let out2 = apply(&r2, &db, &p);
            prop_assert!(out2.is_subset_of(&out1),
                "containment unsound: {} vs {}", r1, r2);
        }
    }

    #[test]
    fn equivalence_is_sound_on_data(
        r1 in rule2(),
        r2 in rule2(),
        seed in 0u64..500,
    ) {
        if linrec::cq::linear_equivalent(&r1, &r2) {
            let db = test_db(seed);
            let p = workload::random_graph(6, 10, seed + 2);
            prop_assert_eq!(
                apply(&r1, &db, &p).sorted(),
                apply(&r2, &db, &p).sorted()
            );
        }
    }

    #[test]
    fn star_is_a_fixpoint(r in rule2(), seed in 0u64..200) {
        // A*q satisfies q ⊆ S and A(S) ⊆ S (eq. 2.3), and unrolls:
        // S = q ∪ A(S).
        let db = test_db(seed);
        let q = workload::random_graph(6, 8, seed + 2);
        let s = linrec::engine::Plan::direct(vec![r.clone()])
            .execute(&db, &q)
            .unwrap()
            .relation;
        prop_assert!(q.is_subset_of(&s));
        let a_s = apply(&r, &db, &s);
        prop_assert!(a_s.is_subset_of(&s));
        let mut unrolled = q.clone();
        unrolled.union_in_place(&a_s);
        prop_assert_eq!(unrolled.sorted(), s.sorted());
    }

    #[test]
    fn sum_distributes_over_application(
        r1 in rule2(),
        r2 in rule2(),
        seed in 0u64..200,
    ) {
        // (A+B)P = AP ∪ BP by definition; check the engine implements it.
        let db = test_db(seed);
        let p = workload::random_graph(6, 10, seed + 2);
        let mut union = apply(&r1, &db, &p);
        union.union_in_place(&apply(&r2, &db, &p));
        // One delta round of the two-rule system from p (not the fixpoint):
        let a1 = apply(&r1, &db, &p);
        let mut one_round = a1;
        one_round.union_in_place(&apply(&r2, &db, &p));
        prop_assert_eq!(union.sorted(), one_round.sorted());
    }

    #[test]
    fn identity_operator_is_neutral_on_data(seed in 0u64..200) {
        let head = Atom::from_vars("p", &head_vars(2));
        let one = linrec::core::identity_operator(&head);
        let db = test_db(seed);
        let p = workload::random_graph(6, 10, seed + 2);
        prop_assert_eq!(apply(&one, &db, &p).sorted(), p.sorted());
    }
}
