//! Static-analyzer properties (vendored proptest, seeded rule synthesis).
//!
//! 1. **Safe programs run**: a program `linrec check` passes (no
//!    error-severity finding) evaluates to a fixpoint without panicking,
//!    under every plan the analysis licenses and the planner's pick.
//! 2. **Cross-verifier agreement**: the independent certificate
//!    cross-verifier never contradicts an honestly computed [`Analysis`] —
//!    every `C1xx` diagnostic would be a bug in one of the two derivations.
//! 3. **Flagged rules are deletable**: any rule the analyzer flags dead
//!    (`L004`), subsumed (`L005`) or duplicate (`L006`) can be deleted
//!    without changing the program's fixpoint.
//!
//! Rule synthesis mirrors `tests/planner_props.rs`: all randomness flows
//! from explicit SplitMix64 seeds, so every run explores the same cases.

mod common;

use common::licensed_plans;
use linrec::engine::Analysis;
use linrec::lint::{check_rules, cross_verify, program_lints, CertClaims, Code};
use linrec::prelude::*;
use linrec_testkit::{random_graph, random_rule, Gen};
use proptest::prelude::*;

/// Between one and three random rules over the same head.
fn random_rules(g: &mut Gen) -> Vec<LinearRule> {
    let n = 1 + g.below(3) as usize;
    (0..n).filter_map(|_| random_rule(g)).collect()
}

/// A database covering every EDB predicate the rules mention (`sparse`
/// leaves predicate `r` empty so dead-rule findings actually occur), plus
/// a seed relation — all deterministic in `seed`.
fn cover_db(rules: &[LinearRule], seed: u64, sparse: bool) -> (Database, Relation) {
    let mut db = Database::new();
    for rule in rules {
        for atom in rule.nonrec_atoms() {
            if db.relation(atom.pred).is_some() {
                continue;
            }
            let rel = if sparse && atom.pred == Symbol::new("r") {
                Relation::new(atom.arity())
            } else {
                random_graph(8, 16, seed.wrapping_add(atom.pred.id() as u64))
            };
            db.set_relation(atom.pred, rel);
        }
    }
    let init = random_graph(8, 8, seed.wrapping_add(7));
    (db, init)
}

fn fixpoint(rules: &[LinearRule], db: &Database, init: &Relation) -> Vec<Tuple> {
    Plan::direct(rules)
        .execute(db, init)
        .unwrap()
        .relation
        .sorted()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: analyzer-safe programs evaluate without panics.
    #[test]
    fn analyzer_safe_programs_evaluate(seed in 0u64..(1 << 48)) {
        let mut g = Gen(seed);
        let rules = random_rules(&mut g);
        prop_assume!(!rules.is_empty());
        let (db, init) = cover_db(&rules, seed, false);
        let report = check_rules(&rules, Some(&db), Some(&init));
        prop_assume!(!report.has_errors());
        // An analyzer-clean program must evaluate under every licensed
        // plan and the planner's pick.
        let analysis = Analysis::of(&rules, None);
        for (plan, _) in licensed_plans(&analysis, &db, &init) {
            let outcome = plan.execute(&db, &init);
            prop_assert!(outcome.is_ok(), "{:?} failed: {:?}", plan.shape(), outcome.err());
        }
    }

    /// Property 2: the independent cross-verifier never contradicts an
    /// honestly computed analysis.
    #[test]
    fn cross_verifier_agrees_with_planner(seed in 0u64..(1 << 48)) {
        let mut g = Gen(seed);
        let rules = random_rules(&mut g);
        prop_assume!(rules.iter().all(|r| r.is_range_restricted()) && !rules.is_empty());
        let analysis = Analysis::of(&rules, None);
        let diags = cross_verify(&rules, &CertClaims::of(&analysis));
        prop_assert!(
            diags.is_empty(),
            "cross-verifier disagreed with the planner: {:?}",
            diags.iter().map(|d| d.protocol_line()).collect::<Vec<_>>()
        );
    }

    /// Property 3: deleting every flagged dead/subsumed/duplicate rule
    /// leaves the fixpoint unchanged.
    #[test]
    fn flagged_rules_are_deletable(seed in 0u64..(1 << 48)) {
        let mut g = Gen(seed);
        let rules = random_rules(&mut g);
        prop_assume!(rules.iter().all(|r| r.is_range_restricted()) && !rules.is_empty());
        let (db, init) = cover_db(&rules, seed, true);
        let flagged: Vec<usize> = program_lints(&rules, Some(&db), Some(&init))
            .iter()
            .filter(|d| {
                matches!(d.code, Code::DeadRule | Code::SubsumedRule | Code::DuplicateRule)
            })
            .filter_map(|d| d.span.rule)
            .collect();
        prop_assume!(!flagged.is_empty());
        let kept: Vec<LinearRule> = rules
            .iter()
            .enumerate()
            .filter(|(i, _)| !flagged.contains(i))
            .map(|(_, r)| r.clone())
            .collect();
        prop_assume!(!kept.is_empty());
        prop_assert_eq!(
            fixpoint(&rules, &db, &init),
            fixpoint(&kept, &db, &init),
            "deleting flagged rules {:?} changed the fixpoint",
            flagged
        );
    }
}
