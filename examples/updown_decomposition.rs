//! A part-hierarchy scenario: components connect *up* into assemblies and
//! *down* into sub-components; the query closes a compatibility relation in
//! both directions. The two rules commute, so the analysis certifies the
//! cluster decomposition, the certificate licenses the decomposed plan, and
//! Theorem 3.1 predicts fewer duplicates. The last part asks why one answer
//! tuple is there.
//!
//! ```sh
//! cargo run --release --example updown_decomposition
//! ```

use linrec::engine::{eval_with_provenance, rules, Analysis, Plan};
use linrec_testkit as workload;

fn main() {
    let up = rules::up_rule();
    let down = rules::down_rule();
    println!("rules:\n  {up}\n  {down}\n");

    // Let the analysis find (and certify) the decomposition.
    let all = vec![up, down];
    let analysis = Analysis::of(&all, None);
    let cert = analysis
        .commutativity()
        .expect("up/down commute (Theorem 5.2)");
    println!("analysis: clusters = {:?}", cert.clusters());
    // The pair commutes, so each rule is a cluster (a star) of its own.
    assert_eq!(cert.clusters(), [[0], [1]]);

    let plan = Plan::decomposed(cert.clone());

    println!(
        "\n{:<8} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "depth", "tuples", "dup(direct)", "dup(decomp)", "der(direct)", "der(decomp)"
    );
    for depth in 4..=9u32 {
        let (db, init) = workload::up_down(depth, 7);
        let direct = Plan::direct(all.clone()).execute(&db, &init).unwrap();
        let decomposed = plan.execute(&db, &init).unwrap();
        assert_eq!(direct.relation.sorted(), decomposed.relation.sorted());
        assert!(
            decomposed.stats.duplicates <= direct.stats.duplicates,
            "Theorem 3.1 violated"
        );
        println!(
            "{:<8} {:>10} {:>12} {:>12} {:>12} {:>12}",
            depth,
            direct.stats.tuples,
            direct.stats.duplicates,
            decomposed.stats.duplicates,
            direct.stats.derivations,
            decomposed.stats.derivations
        );
    }
    println!(
        "\n(equal results at every depth; decomposed evaluation never produces more duplicates)"
    );

    // Provenance: the rule sequence behind the most deeply derived tuple.
    let (db, init) = workload::up_down(4, 7);
    let (total, prov) = eval_with_provenance(&all, &db, &init);
    let deepest = total
        .sorted()
        .into_iter()
        .max_by_key(|t| prov.rule_sequence(t).map_or(0, |s| s.len()))
        .expect("the seed is in the answer");
    println!("\nwhy is {deepest:?} in the answer?");
    print!("{}", prov.explain(&deepest).unwrap());
}
