//! Property-based tests of the paper's theorems on randomly generated
//! rules and data.
//!
//! The central properties:
//! * **Theorem 5.2**: on the restricted class, the exact test agrees with
//!   the definition-based test (both directions).
//! * **Theorem 5.1**: whenever the sufficient condition says `Commute`, the
//!   composites really are equivalent (soundness; on any rules).
//! * **Theorem 6.2**: separable ⇒ commutative.
//! * **Theorem 3.1 / §3**: if the rules commute, decomposed evaluation
//!   equals direct evaluation on random data and produces no more
//!   duplicates.

use linrec::core::{
    commute_by_definition, commutes_exact, commutes_sufficient, is_restricted_pair, is_separable,
    ExactOutcome, Sufficiency,
};
use linrec::engine::seminaive::naive_star;
use linrec::engine::Plan;
use linrec::prelude::*;
use linrec_testkit as workload;
use proptest::prelude::*;

const NONDIST: [&str; 3] = ["n0", "n1", "n2"];
// Disjoint pools: arity is part of a predicate's identity (typeless system),
// so unary and binary atoms draw from different names.
const PREDS: [&str; 3] = ["q", "r", "s"];
const UPREDS: [&str; 3] = ["uq", "ur", "us"];

#[derive(Debug, Clone)]
struct RuleSpec {
    arity: usize,
    rec_choice: Vec<u8>, // 0 = same head var, 1 = shifted head var, 2+ = nondist
    atoms: Vec<Option<(bool, u8, u8)>>, // per pred: (unary?, term picks)
}

fn head_vars(arity: usize) -> Vec<Var> {
    (0..arity).map(|i| Var::new(&format!("x{i}"))).collect()
}

fn build_rule(spec: &RuleSpec) -> Option<LinearRule> {
    let hv = head_vars(spec.arity);
    let head = Atom::from_vars("p", &hv);
    let rec_terms: Vec<Term> = spec
        .rec_choice
        .iter()
        .enumerate()
        .map(|(i, &c)| match c {
            0 => Term::Var(hv[i]),
            1 => Term::Var(hv[(i + 1) % spec.arity]),
            other => Term::Var(Var::new(NONDIST[(other as usize) % NONDIST.len()])),
        })
        .collect();
    let rec = Atom::new("p", rec_terms);
    // Variable pool for nonrecursive atoms: head vars + nondistinguished.
    let pool: Vec<Var> = hv
        .iter()
        .copied()
        .chain(NONDIST.iter().map(|s| Var::new(s)))
        .collect();
    let mut nonrec = Vec::new();
    for (pi, slot) in spec.atoms.iter().enumerate() {
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
    LinearRule::from_parts(head, rec, nonrec).ok()
}

fn arb_rule(arity: usize) -> impl Strategy<Value = LinearRule> {
    let spec = (
        proptest::collection::vec(0u8..4, arity),
        proptest::collection::vec(
            proptest::option::of((any::<bool>(), 0u8..8, 0u8..8)),
            PREDS.len(),
        ),
    )
        .prop_map(move |(rec_choice, atoms)| RuleSpec {
            arity,
            rec_choice,
            atoms,
        });
    spec.prop_filter_map("valid rule", |s| build_rule(&s))
}

fn arb_restricted_rule(arity: usize) -> impl Strategy<Value = LinearRule> {
    arb_rule(arity).prop_filter("restricted class", |r| r.is_restricted_class())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn exact_test_agrees_with_definition(
        r1 in arb_restricted_rule(3),
        r2 in arb_restricted_rule(3),
    ) {
        prop_assume!(is_restricted_pair(&r1, &r2));
        let exact = commutes_exact(&r1, &r2).unwrap();
        let truth = commute_by_definition(&r1, &r2).unwrap();
        prop_assert_eq!(
            exact == ExactOutcome::Commute,
            truth,
            "Theorem 5.2 disagreement on {} / {}", r1, r2
        );
    }

    #[test]
    fn sufficient_condition_is_sound(
        r1 in arb_rule(3),
        r2 in arb_rule(3),
    ) {
        if let Ok(Sufficiency::Commute) = commutes_sufficient(&r1, &r2) {
            prop_assert!(
                commute_by_definition(&r1, &r2).unwrap(),
                "Theorem 5.1 soundness violated on {} / {}", r1, r2
            );
        }
    }

    #[test]
    fn separable_implies_commutative(
        r1 in arb_rule(2),
        r2 in arb_rule(2),
    ) {
        if let Ok(true) = is_separable(&r1, &r2) {
            prop_assert!(
                commute_by_definition(&r1, &r2).unwrap(),
                "Theorem 6.2 violated on {} / {}", r1, r2
            );
        }
    }

    #[test]
    fn commutativity_is_symmetric(
        r1 in arb_rule(2),
        r2 in arb_rule(2),
    ) {
        let a = commute_by_definition(&r1, &r2).unwrap();
        let b = commute_by_definition(&r2, &r1).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn composition_is_associative(
        r1 in arb_rule(2),
        r2 in arb_rule(2),
        r3 in arb_rule(2),
    ) {
        use linrec::cq::{compose, linear_equivalent};
        let left = compose(&compose(&r1, &r2).unwrap(), &r3).unwrap();
        let right = compose(&r1, &compose(&r2, &r3).unwrap()).unwrap();
        prop_assert!(linear_equivalent(&left, &right));
    }

    #[test]
    fn powers_compose(r in arb_rule(2), i in 1usize..3, j in 1usize..3) {
        use linrec::cq::{linear_equivalent, power, power_minimized};
        let a = power(&power(&r, i).unwrap(), j).unwrap();
        let b = power(&r, i * j).unwrap();
        prop_assert!(linear_equivalent(&a, &b));
        let c = power_minimized(&r, i * j).unwrap();
        prop_assert!(linear_equivalent(&b, &c));
    }

    #[test]
    fn minimization_preserves_equivalence(r in arb_rule(3)) {
        use linrec::cq::{linear_equivalent, minimize_linear};
        let m = minimize_linear(&r);
        prop_assert!(linear_equivalent(&r, &m));
        prop_assert!(m.nonrec_atoms().len() <= r.nonrec_atoms().len());
    }

    #[test]
    fn decomposed_evaluation_matches_direct_when_commuting(
        r1 in arb_restricted_rule(2),
        r2 in arb_restricted_rule(2),
        seed in 0u64..1000,
    ) {
        prop_assume!(is_restricted_pair(&r1, &r2));
        prop_assume!(commutes_exact(&r1, &r2).unwrap() == ExactOutcome::Commute);

        // Build a random database covering every EDB predicate used.
        let mut db = Database::new();
        for (i, rule) in [&r1, &r2].into_iter().enumerate() {
            for atom in rule.nonrec_atoms() {
                if db.relation(atom.pred).is_some() {
                    continue;
                }
                let rel = if atom.arity() == 1 {
                    Relation::from_tuples(
                        1,
                        (0..8).filter(|k| (k + seed as i64 + i as i64) % 3 != 0)
                            .map(|k| vec![Value::Int(k)]),
                    )
                } else {
                    workload::random_graph(8, 16, seed + atom.pred.id() as u64)
                };
                db.set_relation(atom.pred, rel);
            }
        }
        let init = workload::random_graph(8, 8, seed + 7);

        let rules_all = vec![r1.clone(), r2.clone()];
        let direct = Plan::direct(rules_all.clone()).execute(&db, &init).unwrap();
        // The pair commutes (verified above), so the certificate exists and
        // licenses the decomposed plan.
        let cert = CommutativityCert::establish(&rules_all).unwrap();
        prop_assert!(cert.is_some(), "commuting pair must certify");
        let dec = Plan::decomposed(cert.unwrap()).execute(&db, &init).unwrap();
        prop_assert_eq!(direct.relation.sorted(), dec.relation.sorted());
        prop_assert!(
            dec.stats.duplicates <= direct.stats.duplicates,
            "Theorem 3.1"
        );
    }

    #[test]
    fn naive_equals_seminaive_on_random_graphs(
        n in 4i64..20,
        m in 4usize..40,
        seed in 0u64..500,
    ) {
        let tc = linrec::engine::rules::tc_right();
        let edges = workload::random_graph(n, m, seed);
        let db = workload::graph_db("q", edges.clone());
        let a = Plan::direct(vec![tc.clone()]).execute(&db, &edges).unwrap();
        let (b, _) = naive_star(&[tc], &db, &edges);
        prop_assert_eq!(a.relation.sorted(), b.sorted());
    }

    #[test]
    fn torsion_witnesses_verify(r in arb_rule(3)) {
        // If the search reports C^n = C^k, composing really does yield
        // equivalent rules.
        use linrec::cq::{linear_equivalent, power_minimized};
        if let Ok(Some(w)) = linrec::core::torsion_index(&r, 5) {
            let pk = power_minimized(&r, w.k).unwrap();
            let pn = power_minimized(&r, w.n).unwrap();
            prop_assert!(linear_equivalent(&pk, &pn));
        }
    }
}
