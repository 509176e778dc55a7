//! Example 6.1 end-to-end: detecting and exploiting a recursively
//! redundant predicate.
//!
//! "A person buys whatever the people they know buy, provided it is cheap":
//!
//! ```text
//! buys(x,y) :- knows(x,z), buys(z,y), cheap(y).
//! ```
//!
//! The `cheap` test is re-checked at every recursive step although its
//! truth never changes along a derivation — it is *recursively redundant*
//! (Theorem 6.3). The analysis certifies the Theorem 6.4 witnesses
//! `A = B·C` with `C = buys ∧ cheap` torsion, and the `RedundancyBounded`
//! plan that certificate licenses evaluates with `C` applied a bounded
//! number of times.
//!
//! ```sh
//! cargo run --release --example redundant_shopping
//! ```

use linrec::core::redundancy_report;
use linrec::engine::{rules, workload, Analysis, Plan};
use std::time::Instant;

fn main() {
    let rule = rules::shopping_rule();
    println!("{}", redundancy_report(&rule, 8).unwrap());

    // Analysis certifies the redundancy, which licenses the bounded plan.
    let analysis = Analysis::of(std::slice::from_ref(&rule), None);
    let cert = analysis
        .redundancy()
        .expect("cheap is recursively redundant");
    let dec = cert.decomposition();
    println!(
        "Theorem 6.4 witnesses (L = {}, C^{} = C^{}):",
        dec.l, dec.torsion.n, dec.torsion.k
    );
    println!("  B = {}", dec.b);
    println!("  C = {}\n", dec.c);

    let bounded_plan = Plan::redundancy_bounded(cert.clone());

    // The paper's efficiency claim (Theorem 4.2): C is processed a *fixed*
    // number of times (≤ NL−1), beyond which only B is processed — versus
    // direct evaluation, which re-joins C's predicates at every fixpoint
    // iteration.
    let c_joins_bounded: usize = (0..dec.torsion.period())
        .map(|r| (dec.torsion.k + r) * dec.l)
        .sum();
    println!(
        "{:<10} {:>8} {:>14} {:>14} {:>12} {:>12} {:>10} {:>10}",
        "people",
        "tuples",
        "der(direct)",
        "der(bounded)",
        "Cjoin(dir)",
        "Cjoin(bnd)",
        "ms(dir)",
        "ms(bnd)"
    );
    for people in [50i64, 100, 200, 400, 800] {
        let (db, init) = workload::shopping(people, 30, 4, 99);
        let t0 = Instant::now();
        let direct = Plan::direct(vec![rule.clone()])
            .execute(&db, &init)
            .unwrap();
        let t_direct = t0.elapsed();
        let t1 = Instant::now();
        let bounded = bounded_plan.execute(&db, &init).unwrap();
        let t_bounded = t1.elapsed();
        assert_eq!(
            direct.relation.sorted(),
            bounded.relation.sorted(),
            "strategies must agree"
        );
        println!(
            "{:<10} {:>8} {:>14} {:>14} {:>12} {:>12} {:>10.2} {:>10.2}",
            people,
            direct.stats.tuples,
            direct.stats.derivations,
            bounded.stats.derivations,
            direct.stats.iterations, // every direct iteration joins cheap
            c_joins_bounded,
            t_direct.as_secs_f64() * 1e3,
            t_bounded.as_secs_f64() * 1e3,
        );
    }
    println!("\n(bounded evaluation checks `cheap` a constant number of times — NL−1 —");
    println!(" instead of once per fixpoint iteration; it trades this for computing B*");
    println!(" on unfiltered tuples, which pays off when C is selective late or expensive)");
}
