//! Parallel fixpoint ≡ sequential fixpoint (vendored proptest, seeded and
//! deterministic).
//!
//! For random rule sets, random databases, and shard counts
//! `K ∈ {1, 2, 3, 8}`, the shard-parallel semi-naive executor must produce
//! **bit-identical results and statistics** to the sequential one — for the
//! from-scratch star, for the resumed fixpoint behind incremental view
//! maintenance (`Plan::resume` driven through the service under insert
//! batches), for whole planner-chosen plans under
//! `Plan::with_parallelism`, and for separable plans whose selection is
//! pushed through the magic rewrite. All of them are the one driver,
//! `seminaive_resume`, under different knobs.
//!
//! The knobs force `min_delta = 1` so even the tiny random deltas exercise
//! the concurrent prepare → probe → merge path; CI additionally pins the
//! engine thread count via `LINREC_THREADS=4` (with `--test-threads=1`) so
//! the suite demonstrably runs on a multi-worker pool — see
//! `env_threads_are_respected` below.
//!
//! The rule spectrum mirrors `tests/incremental_props.rs`: the paper's
//! examples (transitive closure, the commuting up/down pair, a bounded
//! filter) plus randomly generated arity-2 linear rules.

mod common;

use common::rule_set;
use linrec::engine::seminaive::{naive_star, seminaive_resume};
use linrec::engine::{magic_applicable, seminaive_star, workload, EvalStats, Indexes};
use linrec::prelude::*;
use linrec::service::{ViewDef, ViewService};
use proptest::collection::vec;
use proptest::prelude::*;

/// A database covering the EDB predicates plus a seed, deterministic in
/// `case`.
fn base_db(rules: &[LinearRule], case: u64) -> (Database, Relation) {
    let mut db = Database::new();
    for rule in rules {
        for atom in rule.nonrec_atoms() {
            if db.relation(atom.pred).is_none() {
                db.set_relation(
                    atom.pred,
                    workload::random_graph(8, 12, case.wrapping_add(atom.pred.id() as u64)),
                );
            }
        }
    }
    let init = workload::random_graph(8, 7, case.wrapping_add(71));
    (db, init)
}

/// An always-engaging parallel knob: K shards, no delta-size gate, so the
/// concurrent path runs even on the small random deltas.
fn eager(k: usize) -> Parallelism {
    Parallelism::new(k).with_min_delta(1)
}

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// The from-scratch star under a knob: the driver from `total = delta =
/// init`.
fn star_under(
    rules: &[LinearRule],
    db: &Database,
    init: &Relation,
    par: &Parallelism,
) -> (Relation, EvalStats) {
    let mut total = init.clone();
    let delta = init.clone();
    let stats = seminaive_resume(rules, db, &mut total, delta, None, &mut Indexes::new(), par);
    (total, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Star: parallel ≡ sequential over random programs and databases,
    /// for every shard count — relations AND statistics.
    #[test]
    fn parallel_star_equals_sequential(case in 0u64..10_000) {
        let rules = rule_set(case);
        prop_assume!(rules.is_some());
        let rules = rules.unwrap();
        let (db, init) = base_db(&rules, case);
        let (seq, seq_stats) = seminaive_star(&rules, &db, &init);
        for k in SHARD_COUNTS {
            let (par, par_stats) = star_under(&rules, &db, &init, &eager(k));
            prop_assert_eq!(par.sorted(), seq.sorted(), "case {} k {}", case, k);
            prop_assert_eq!(par_stats, seq_stats, "case {} k {}: stats", case, k);
        }
    }

    /// Resume: maintaining a materialized fixpoint under a frontier delta
    /// gives identical results and stats, parallel vs sequential, with and
    /// without a round cap.
    #[test]
    fn parallel_resume_equals_sequential(
        case in 0u64..10_000,
        extra in vec((0i64..9, 0i64..9), 1..8),
        cap in proptest::option::of(1usize..4),
    ) {
        let rules = rule_set(case);
        prop_assume!(rules.is_some());
        let rules = rules.unwrap();
        let (db, init) = base_db(&rules, case);
        let (fix, _) = seminaive_star(&rules, &db, &init);
        // A frontier of arbitrary extra tuples (the resume contract only
        // needs delta ⊆ total, which union_in_place establishes).
        let mut delta = Relation::new(2);
        for &(a, b) in &extra {
            delta.insert([Value::Int(a), Value::Int(b)]);
        }
        let run = |par: &Parallelism| {
            let mut total = fix.clone();
            total.union_in_place(&delta);
            let stats = seminaive_resume(
                &rules, &db, &mut total, delta.clone(), cap, &mut Indexes::new(), par,
            );
            (total, stats)
        };
        let (seq_total, seq_stats) = run(&Parallelism::sequential());
        for k in SHARD_COUNTS {
            let (par_total, par_stats) = run(&eager(k));
            prop_assert_eq!(par_total.sorted(), seq_total.sorted(), "case {} k {}", case, k);
            prop_assert_eq!(par_stats, seq_stats, "case {} k {}: stats", case, k);
        }
    }

    /// The maintenance path end to end: a service with a parallel knob and
    /// a sequential service must publish identical views after every
    /// insert batch (this drives `Plan::resume` through whatever
    /// incremental form the view's certificates license — rule-sum,
    /// bounded, decomposed — or the recompute fallback).
    #[test]
    fn parallel_maintenance_equals_sequential_under_batches(
        case in 0u64..10_000,
        batches in vec(vec((0u8..4, 0i64..9, 0i64..9), 1..6), 1..4),
    ) {
        let rules = rule_set(case);
        prop_assume!(rules.is_some());
        let rules = rules.unwrap();
        let (db, init) = base_db(&rules, case);
        let mut edb = db;
        edb.set_relation("s0", init);
        let mut preds: Vec<Symbol> = vec![Symbol::new("s0")];
        for rule in &rules {
            for atom in rule.nonrec_atoms() {
                if !preds.contains(&atom.pred) {
                    preds.push(atom.pred);
                }
            }
        }
        let def = ViewDef {
            name: "v".into(),
            rules: rules.clone(),
            seed: Symbol::new("s0"),
        };
        let sequential = ViewService::new(edb.snapshot());
        sequential.register_view(def.clone()).expect("register");
        // Shard count varies with the case; min_delta 1 forces the
        // concurrent path on every non-trivial round.
        let k = SHARD_COUNTS[(case % 4) as usize];
        let parallel = ViewService::with_parallelism(edb.snapshot(), eager(k));
        parallel.register_view(def).expect("register");
        for batch in &batches {
            let inserts = |()| -> Vec<(Symbol, Vec<Value>)> {
                batch
                    .iter()
                    .map(|&(p, a, b)| {
                        (preds[p as usize % preds.len()], vec![Value::Int(a), Value::Int(b)])
                    })
                    .collect()
            };
            let a = sequential.apply_batch(inserts(())).expect("batch");
            let b = parallel.apply_batch(inserts(())).expect("batch");
            prop_assert_eq!(a.inserted, b.inserted);
            for (va, vb) in a.views.iter().zip(&b.views) {
                prop_assert_eq!(va.mode, vb.mode, "case {}", case);
                prop_assert_eq!(va.stats, vb.stats, "case {} mode {}", case, va.mode);
            }
            prop_assert_eq!(
                sequential.snapshot().view("v").unwrap().relation.sorted(),
                parallel.snapshot().view("v").unwrap().relation.sorted(),
                "case {} k {}: maintained views diverged",
                case,
                k
            );
        }
    }

    /// Whole plans: the planner's cost-model choice executed with a forced
    /// parallel knob equals its sequential execution.
    #[test]
    fn parallel_plan_execution_equals_sequential(case in 0u64..10_000) {
        let rules = rule_set(case);
        prop_assume!(rules.is_some());
        let rules = rules.unwrap();
        let (db, init) = base_db(&rules, case);
        let analysis = Analysis::of(&rules, None);
        let plan = analysis.plan_for(&db, &init);
        let seq = plan.execute(&db, &init);
        prop_assume!(seq.is_ok());
        let seq = seq.unwrap();
        for k in [2usize, 8] {
            let par_plan = analysis.plan_for(&db, &init).with_parallelism(eager(k));
            let par = par_plan.execute(&db, &init).expect("parallel execution");
            prop_assert_eq!(par.relation.sorted(), seq.relation.sorted(), "case {} k {}", case, k);
            prop_assert_eq!(par.stats, seq.stats, "case {} k {}", case, k);
        }
    }

    /// Separable plans with σ pushed into the inner rule: the magic star
    /// and the guarded inner star shard like every other star, and the
    /// answer is σ of the naive reference, with the sequential plan's
    /// statistics.
    #[test]
    fn parallel_separable_equals_selected_naive(case in 0u64..10_000, value in 0i64..8) {
        let rules = rule_set(case);
        prop_assume!(rules.as_ref().is_some_and(|rules| rules.len() == 2));
        let rules = rules.unwrap();
        let (db, init) = base_db(&rules, case);
        let (reference, _) = naive_star(&rules, &db, &init);
        let mut pushed = 0;
        for (outer, inner) in [(0, 1), (1, 0)] {
            let Ok(Some(cert)) = SeparabilityCert::establish(&rules[outer], &rules[inner]) else {
                continue;
            };
            for pos in 0..2 {
                let sel = Selection::eq(pos, value);
                if !magic_applicable(&rules[inner], &sel) {
                    continue;
                }
                let Ok(plan) = Plan::separable(cert.clone(), sel.clone()) else {
                    continue;
                };
                let seq = plan.execute(&db, &init).expect("sequential execution");
                let par = plan.with_parallelism(eager(3)).execute(&db, &init).expect("sharded");
                let expected = sel.apply(&reference).sorted();
                prop_assert_eq!(par.relation.sorted(), expected, "case {} σ {:?}", case, sel);
                prop_assert_eq!(par.stats, seq.stats, "case {} σ {:?}", case, sel);
                pushed += 1;
            }
        }
        prop_assume!(pushed > 0);
    }
}

/// CI forces `LINREC_THREADS=4`: when the variable is set, the env-derived
/// knob must actually be parallel with that thread count, and a fixpoint
/// through it must still be exact — this is what makes the CI run of this
/// suite exercise the concurrent path on a real multi-worker pool.
#[test]
fn env_threads_are_respected() {
    let par = Parallelism::from_env();
    if let Ok(n) = std::env::var(linrec::engine::parallel::THREADS_ENV) {
        let n: usize = n.parse().expect("LINREC_THREADS must be a number in CI");
        assert_eq!(par.threads(), n.max(1));
        assert_eq!(par.is_parallel(), n > 1);
    }
    let rules = vec![parse_linear_rule("p(x,y) :- p(x,z), q(z,y).").unwrap()];
    let edges = workload::chain(64);
    let db = workload::graph_db("q", edges.clone());
    let (seq, seq_stats) = seminaive_star(&rules, &db, &edges);
    let (par_rel, par_stats) = star_under(&rules, &db, &edges, &par.with_min_delta(1));
    assert_eq!(par_rel.sorted(), seq.sorted());
    assert_eq!(par_stats, seq_stats);
}
