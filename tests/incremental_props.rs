//! Incremental maintenance ≡ from-scratch fixpoint (vendored proptest,
//! seeded and deterministic).
//!
//! For random programs and random insert-batch sequences, the
//! `linrec-service` maintained view must equal, after **every** batch, the
//! semi-naive fixpoint computed from scratch over the batch's final EDB —
//! whatever maintenance form the view's certificate-backed plan licensed
//! (rule-sum resume, bounded cut-off, per-cluster resume, or the
//! recompute fallback). Epoch-snapshot invariants ride along: epochs never
//! decrease, and a snapshot taken before a batch is immutable after it.
//!
//! The rule spectrum mirrors `tests/planner_props.rs`: the paper's
//! examples (transitive closure, the commuting up/down pair, a bounded
//! filter) plus randomly generated arity-2 linear rules; batches insert
//! into the seed relation and every EDB predicate the rules mention.

use linrec::engine::seminaive_star;
use linrec::prelude::*;
use linrec::service::{ViewDef, ViewService};
use linrec_testkit::{cover_db, random_graph, rule_set};
use proptest::collection::vec;
use proptest::prelude::*;

/// A database covering the EDB predicates plus the seed relation `s0`,
/// deterministic in `case`.
fn base_db(rules: &[LinearRule], case: u64) -> Database {
    let mut db = cover_db(rules, 8, 10, case);
    db.set_relation("s0", random_graph(8, 6, case.wrapping_add(71)));
    db
}

/// From-scratch oracle: the semi-naive fixpoint of the rules over `db`,
/// seeded from `s0`.
fn scratch(rules: &[LinearRule], db: &Database) -> Relation {
    let init = db.relation_or_empty(Symbol::new("s0"), 2);
    seminaive_star(rules, db, &init).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_equals_scratch_on_final_edb(
        case in 0u64..10_000,
        batches in vec(vec((0u8..4, 0i64..9, 0i64..9), 1..6), 1..5),
    ) {
        let rules = rule_set(case);
        prop_assume!(rules.is_some());
        let rules = rules.unwrap();
        // Insert targets: the seed relation plus the rules' EDB predicates.
        let mut preds: Vec<Symbol> = vec![Symbol::new("s0")];
        for rule in &rules {
            for atom in rule.nonrec_atoms() {
                if !preds.contains(&atom.pred) {
                    preds.push(atom.pred);
                }
            }
        }

        let mut mirror = base_db(&rules, case);
        let service = ViewService::new(mirror.snapshot());
        service
            .register_view(ViewDef {
                name: "v".into(),
                rules: rules.clone(),
                seed: Symbol::new("s0"),
            })
            .expect("registration must succeed");
        let mode = service.snapshot().view("v").unwrap().mode;
        prop_assert_eq!(mode, "materialize");
        prop_assert_eq!(
            service.snapshot().view("v").unwrap().relation.sorted(),
            scratch(&rules, &mirror).sorted()
        );

        let mut last_epoch = service.snapshot().epoch;
        for batch in &batches {
            let before = service.snapshot();
            let before_count = before.count("v").unwrap();
            let inserts: Vec<(Symbol, Vec<Value>)> = batch
                .iter()
                .map(|&(p, a, b)| {
                    (
                        preds[p as usize % preds.len()],
                        vec![Value::Int(a), Value::Int(b)],
                    )
                })
                .collect();
            for (pred, tuple) in &inserts {
                mirror.insert_tuple(*pred, tuple);
            }
            let report = service.apply_batch(inserts).expect("insert-only batch");

            // Equality with the from-scratch fixpoint on the batch's EDB.
            prop_assert_eq!(
                service.snapshot().view("v").unwrap().relation.sorted(),
                scratch(&rules, &mirror).sorted(),
                "maintenance diverged (case {}, mode {:?})",
                case,
                report.views.first().map(|v| v.mode)
            );

            // Epoch and snapshot invariants.
            prop_assert!(report.epoch >= last_epoch);
            prop_assert!(service.snapshot().epoch == report.epoch);
            last_epoch = report.epoch;
            prop_assert_eq!(
                before.count("v").unwrap(),
                before_count,
                "pre-batch snapshot mutated"
            );
        }
    }
}
