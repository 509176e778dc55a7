//! Dense bitset kernels ≡ flat-arena reference (vendored proptest, seeded
//! and deterministic).
//!
//! The dense backend re-implements relational composition and the
//! transitive-closure fixpoint with u64-word kernels over a dense domain
//! remap; this suite holds it against the sparse substrate:
//!
//! 1. **Round-trip**: `Relation → BitsetRelation → Relation` is lossless
//!    for every binary relation over the relation's own domain.
//! 2. **Compose**: [`BitsetRelation::compose`] equals a nested-loop
//!    relational composition of the same pair sets.
//! 3. **Closure**: `closure_by_squaring(E)` equals the semi-naive fixpoint
//!    of `p(x,y) :- p(x,z), q(z,y)` seeded with `E` over `q = E` — the
//!    sparse evaluator's `E⁺` — including on the degenerate shapes (empty
//!    relation, self-loops, full cliques) where off-by-one word handling
//!    would show.
//! 4. **Planner**: whatever plan `plan_for` picks (dense or sparse) agrees
//!    with `Plan::direct` on random graphs.
//!
//! All randomness flows from explicit SplitMix64 seeds, so every run
//! explores the same cases.

use linrec::datalog::{BitsetRelation, DenseDomain, Relation};
use linrec::engine::{closure_by_squaring, dense, rules, seminaive_star, Analysis, Plan};
use linrec::prelude::{Database, Value};
use linrec_testkit::{graph_db, random_graph, Gen};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A random binary relation over `0..n` with about `m` pairs, plus the
/// degenerate shapes for low `case` values: empty, a single self-loop,
/// all self-loops, and the full clique (every pair including loops).
fn random_pairs(case: u64, n: u64, m: u64) -> BTreeSet<(i64, i64)> {
    match case % 8 {
        0 => BTreeSet::new(),
        1 => BTreeSet::from([(0, 0)]),
        2 => (0..n as i64).map(|i| (i, i)).collect(),
        3 => (0..n as i64)
            .flat_map(|i| (0..n as i64).map(move |j| (i, j)))
            .collect(),
        _ => {
            let mut g = Gen(case);
            (0..m)
                .map(|_| (g.below(n) as i64, g.below(n) as i64))
                .collect()
        }
    }
}

fn relation_of(pairs: &BTreeSet<(i64, i64)>) -> Relation {
    Relation::from_pairs(pairs.iter().copied())
}

/// Nested-loop relational composition `{(x,y) : (x,z) ∈ a, (z,y) ∈ b}`.
fn reference_compose(a: &BTreeSet<(i64, i64)>, b: &BTreeSet<(i64, i64)>) -> BTreeSet<(i64, i64)> {
    let mut out = BTreeSet::new();
    for &(x, z) in a {
        for &(z2, y) in b {
            if z == z2 {
                out.insert((x, y));
            }
        }
    }
    out
}

fn pairs_of(bits: &BitsetRelation) -> BTreeSet<(i64, i64)> {
    bits.iter_pairs()
        .map(|(a, b)| match (a, b) {
            (Value::Int(a), Value::Int(b)) => (a, b),
            other => panic!("integer-only test domain, got {other:?}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Relation → BitsetRelation → Relation is the identity (up to order).
    #[test]
    fn round_trip_is_lossless(case in 0u64..10_000) {
        let pairs = random_pairs(case, 1 + case % 17, 24);
        let rel = relation_of(&pairs);
        let domain = Arc::new(DenseDomain::from_relations([&rel]));
        let bits = BitsetRelation::from_relation(&rel, domain).unwrap();
        prop_assert_eq!(bits.len(), pairs.len() as u64);
        prop_assert_eq!(bits.to_relation().sorted(), rel.sorted());
    }

    /// Word-kernel compose equals the nested-loop reference.
    #[test]
    fn compose_matches_the_nested_loop_reference(case in 0u64..10_000) {
        let n = 1 + case % 13;
        let a = random_pairs(case, n, 20);
        let b = random_pairs(case.wrapping_add(7919), n, 20);
        let (ra, rb) = (relation_of(&a), relation_of(&b));
        let domain = Arc::new(DenseDomain::from_relations([&ra, &rb]));
        let (ba, bb) = (
            BitsetRelation::from_relation(&ra, Arc::clone(&domain)).unwrap(),
            BitsetRelation::from_relation(&rb, Arc::clone(&domain)).unwrap(),
        );
        prop_assert_eq!(pairs_of(&dense::compose(&ba, &bb)), reference_compose(&a, &b));
    }

    /// Closure by squaring equals the sparse semi-naive fixpoint `E⁺`.
    #[test]
    fn closure_by_squaring_matches_seminaive(case in 0u64..10_000) {
        let pairs = random_pairs(case, 1 + case % 11, 16);
        let edges = relation_of(&pairs);
        let domain = Arc::new(DenseDomain::from_relations([&edges]));
        let bits = BitsetRelation::from_relation(&edges, domain).unwrap();
        let (closure, stats) = closure_by_squaring(&bits);

        let mut db = Database::new();
        db.set_relation("q", edges.clone());
        let (sparse, _) = seminaive_star(&[rules::tc_right()], &db, &edges);
        prop_assert_eq!(closure.to_relation().sorted(), sparse.sorted());
        // Popcount-honest counters: tuples equal the closure size, and
        // every squaring past the last productive one finds nothing new.
        prop_assert_eq!(stats.tuples as u64, closure.len());
        prop_assert!(stats.applications >= 1);
    }

    /// The planner-chosen plan (dense or sparse — both arise across the
    /// spectrum) agrees with the direct baseline on random graphs.
    #[test]
    fn planned_execution_agrees_with_direct(case in 0u64..10_000) {
        let n = 4 + (case % 20) as i64;
        let m = 2 + (case % 60) as usize;
        let edges = random_graph(n, m, case);
        let db = graph_db("q", edges.clone());
        let rule = rules::tc_right();
        let plan = Analysis::of(std::slice::from_ref(&rule), None).plan_for(&db, &edges);
        let planned = plan.execute(&db, &edges).unwrap();
        let direct = Plan::direct(vec![rule]).execute(&db, &edges).unwrap();
        prop_assert_eq!(planned.relation.sorted(), direct.relation.sorted());
        prop_assert_eq!(planned.stats.tuples, direct.stats.tuples);
    }
}
