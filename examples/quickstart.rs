//! Quickstart: test two rules for commutativity, let the planner certify
//! and pick the decomposition, and compare against the forced baseline.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use linrec::prelude::*;

fn main() {
    // The two linear forms of transitive closure (paper, Example 5.2).
    let up = parse_linear_rule("p(x,y) :- p(x,z), q(z,y).").unwrap();
    let dn = parse_linear_rule("p(x,y) :- p(w,y), q(x,w).").unwrap();

    println!("r1: {up}");
    println!("r2: {dn}");

    // Three tiers of commutativity testing, fastest applicable wins:
    // 1. The exact O(a log a) test of Theorems 5.2/5.3 (restricted class).
    match commutes_exact(&up, &dn).unwrap() {
        ExactOutcome::Commute => println!("Theorem 5.2: the rules commute"),
        ExactOutcome::DoNotCommute(vars) => {
            println!("Theorem 5.2: do not commute (witness {vars:?})")
        }
    }
    // 2. The sufficient condition of Theorem 5.1 (any rules).
    println!("Theorem 5.1: {:?}", commutes_sufficient(&up, &dn).unwrap());
    // 3. Ground truth by composing both ways (exponential).
    println!(
        "definition:  commute = {}",
        commute_by_definition(&up, &dn).unwrap()
    );

    // Consequence: (up + dn)* = up* dn*. The analysis turns that into a
    // certificate, the certificate licenses the decomposed plan, and
    // Theorem 3.1 guarantees no more duplicates than the direct baseline:
    // direct evaluation derives each answer once per interleaving of up-
    // and dn-steps, decomposed evaluation only through the canonical
    // dn-then-up order.
    let rules = vec![up, dn];
    let edges = linrec::engine::workload::random_graph(300, 600, 42);
    let db = linrec::engine::workload::graph_db("q", edges);
    let init = linrec::engine::workload::random_graph(300, 40, 43);

    let analysis = Analysis::of(&rules, None);
    let plan = analysis.plan_for(&db, &init);
    assert!(matches!(plan.shape(), PlanShape::Decomposed { .. }));
    println!("\nplan:\n{}", plan.describe());

    let direct = Plan::direct(rules).execute(&db, &init).unwrap();
    let decomposed = plan.execute(&db, &init).unwrap();
    assert_eq!(direct.relation.sorted(), decomposed.relation.sorted());

    println!("evaluation over G(300, 600):");
    println!("  direct     (up+dn)*: {}", direct.stats);
    println!("  decomposed up* dn* : {}", decomposed.stats);
    println!(
        "  duplicate reduction: {:.1}%",
        100.0 * (1.0 - decomposed.stats.duplicates as f64 / direct.stats.duplicates.max(1) as f64)
    );
}
