//! The planner's behaviour, pinned: for every constructible plan shape on
//! the stock workloads, the exact cost estimate (`f64` bits), the peak-delta
//! estimate, the parallel verdict, what `execute` traces phase by phase,
//! and what `resume` answers. `planner_golden.txt` is the record; a refactor
//! of the planner passes this test unmodified or it changed behaviour.

use linrec_core::{BoundednessCert, RedundancyCert, SeparabilityCert};
use linrec_datalog::{parse_linear_rule, Database, LinearRule, Relation};
use linrec_engine::{dense, rules, Analysis, CostModel, Indexes, Parallelism, Plan, Selection};
use linrec_testkit as workload;
use std::fmt::Write;

/// One workload: a name, its rules, database and seed.
type Workload = (&'static str, Vec<LinearRule>, Database, Relation);

fn workloads() -> Vec<Workload> {
    let (ud_db, ud_init) = workload::up_down(5, 3);
    let (shop_db, shop_init) = workload::shopping(40, 10, 3, 5);
    let chain = workload::chain(60);
    let grid = workload::grid(8, 8);
    vec![
        (
            "up_down",
            vec![rules::down_rule(), rules::up_rule()],
            ud_db,
            ud_init,
        ),
        ("shopping", vec![rules::shopping_rule()], shop_db, shop_init),
        (
            "chain",
            vec![rules::tc_right()],
            workload::graph_db("q", chain.clone()),
            chain,
        ),
        (
            "grid",
            vec![rules::tc_right()],
            workload::graph_db("q", grid.clone()),
            grid,
        ),
    ]
}

/// Every shape the rule set licenses, by constructor name.
fn shapes(rules: &[LinearRule]) -> Vec<(&'static str, Plan)> {
    let mut plans = vec![("direct", Plan::direct(rules.to_vec()))];
    let analysis = Analysis::of(rules, None);
    if let Some(cert) = analysis.commutativity() {
        // Node 20 of the down tree: its ancestors 1, 2, 5, 10 are seeded.
        let sel = Selection::eq(1, (1i64 << 6) + 20);
        plans.push(("decomposed", Plan::decomposed(cert.clone())));
        plans.push((
            "select_after(decomposed)",
            Plan::select_after(Plan::decomposed(cert.clone()), sel.clone()),
        ));
        let cert = SeparabilityCert::establish(&rules[1], &rules[0])
            .unwrap()
            .expect("up/down is separable");
        plans.push(("separable", Plan::separable(cert, sel).unwrap()));
    }
    if let [rule] = rules {
        if let Some(cert) = RedundancyCert::establish_any(rule, 8).unwrap() {
            plans.push(("redundancy_bounded", Plan::redundancy_bounded(cert)));
        }
        if let Ok(plan) = Plan::dense_closure(rule.clone(), dense::DEFAULT_DENSE_BUDGET_BYTES) {
            plans.push(("dense_closure", plan));
            // The graph workloads also carry the bounded filter
            // `A² = A` over the same edge relation.
            let bounded = parse_linear_rule("p(x,y) :- p(x,y), q(x,z).").unwrap();
            let cert = BoundednessCert::establish(&bounded, 8)
                .unwrap()
                .expect("a filter is bounded");
            plans.push(("bounded_prefix", Plan::bounded_prefix(cert)));
        }
    }
    plans
}

fn record() -> String {
    let model = CostModel::default();
    let mut out = String::new();
    for (name, rules, db, init) in workloads() {
        let peak = model.estimated_peak_delta(&rules, &db, &init);
        writeln!(out, "{name}: peak_delta={:016x}", peak.to_bits()).unwrap();
        for (ctor, plan) in shapes(&rules) {
            let estimate = model.estimate(&plan, &db, &init);
            let verdict = plan
                .clone()
                .parallelize(&Parallelism::new(4), &model, &db, &init)
                .decision()
                .parallel
                .expect("parallelize records a verdict");
            let outcome = plan.execute(&db, &init).unwrap();
            let mut total = init.clone();
            let resumed = plan.resume(
                &db,
                &mut total,
                init.clone(),
                &mut Indexes::new(),
                &Parallelism::sequential(),
            );
            writeln!(
                out,
                "  {ctor} [{}] estimate={:016x} parallel={}/{:016x}/{:?}",
                plan.shape().label(),
                estimate.to_bits(),
                verdict.engaged,
                verdict.est_peak_delta.to_bits(),
                verdict.cutover
            )
            .unwrap();
            writeln!(out, "    execute: {}", outcome.stats).unwrap();
            for step in &outcome.trace {
                writeln!(out, "      {} -> {}", step.label, step.stats).unwrap();
            }
            let Some(stats) = resumed else {
                writeln!(out, "    resume: none").unwrap();
                continue;
            };
            writeln!(out, "    resume: {stats}").unwrap();
            // A true frontier: the fixpoint of all but the first and last
            // seed rows, resumed under those two, is the whole fixpoint.
            let ends = [init.row(0), init.row(init.len() - 1)];
            let mut rest = Relation::new(init.arity());
            for t in init.iter().filter(|t| !ends.contains(t)) {
                rest.insert(t);
            }
            let mut total = plan.execute(&db, &rest).unwrap().relation;
            let mut delta = Relation::new(init.arity());
            delta.insert_unseen(ends, &total);
            total.union_in_place(&delta);
            let stats = plan
                .resume(
                    &db,
                    &mut total,
                    delta,
                    &mut Indexes::new(),
                    &Parallelism::sequential(),
                )
                .expect("a resumable shape resumes from any frontier");
            assert_eq!(total.sorted(), outcome.relation.sorted(), "{name}/{ctor}");
            writeln!(out, "    resume(first and last seed rows): {stats}").unwrap();
        }
    }
    out
}

#[test]
fn every_shape_on_every_workload_matches_the_record() {
    let actual = record();
    let golden = include_str!("planner_golden.txt");
    assert!(
        actual == golden,
        "planner behaviour drifted from planner_golden.txt; actual record:\n{actual}"
    );
}
