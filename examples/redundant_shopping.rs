//! Example 6.1 end-to-end: detecting a recursively redundant predicate.
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
//! `A = B·C` with `C = buys ∧ cheap` torsion, so Theorem 4.2's bounded
//! evaluation joins `C` a fixed number of times, where direct evaluation
//! joins it once per fixpoint iteration.
//!
//! The bounded evaluation is not a plan: under a hash-join executor it
//! does more derivations than `Direct` here (`cheap(y)` is a selective
//! probe that `Direct` applies early). Its identity with `Direct` is the
//! tier-1 test `redundancy_bounded_agrees_on_random_shopping_workloads` in
//! `tests/strategies_agree.rs`.
//!
//! ```sh
//! cargo run --release --example redundant_shopping
//! ```

use linrec::core::{redundancy_report, RedundancyCert};
use linrec::engine::{rules, Analysis, Plan};
use linrec_testkit as workload;
use std::time::Instant;

fn main() {
    let rule = rules::shopping_rule();
    println!("{}", redundancy_report(&rule, 8).unwrap());

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
    // The witnesses re-verify from scratch: both equations and the torsion.
    assert!(
        RedundancyCert::verify(&rule, cert.pred(), dec)
            .unwrap()
            .is_some(),
        "Theorem 6.4 witnesses must re-verify"
    );

    // Theorem 4.2: each branch processes C a *fixed* number of times, at
    // most (N−1)·L, beyond which only B is processed.
    let per_branch: Vec<usize> = (0..dec.torsion.period())
        .map(|r| (dec.torsion.k + r) * dec.l)
        .collect();
    assert!(per_branch.iter().all(|&c| c <= (dec.torsion.n - 1) * dec.l));
    let c_joins_bounded: usize = per_branch.iter().sum();
    println!(
        "{:<10} {:>8} {:>14} {:>12} {:>12} {:>10}",
        "people", "tuples", "der(direct)", "Cjoin(dir)", "Cjoin(bnd)", "ms(dir)"
    );
    for people in [50i64, 100, 200, 400, 800] {
        let (db, init) = workload::shopping(people, 30, 4, 99);
        let t0 = Instant::now();
        let direct = Plan::direct(vec![rule.clone()])
            .execute(&db, &init)
            .unwrap();
        println!(
            "{:<10} {:>8} {:>14} {:>12} {:>12} {:>10.2}",
            people,
            direct.stats.tuples,
            direct.stats.derivations,
            direct.stats.iterations, // every direct iteration joins cheap
            c_joins_bounded,
            t0.elapsed().as_secs_f64() * 1e3,
        );
    }
    println!(
        "\n(bounded evaluation checks `cheap` a constant number of times — (N−1)·L per branch —"
    );
    println!(" instead of once per fixpoint iteration; it trades this for computing B*");
    println!(" on unfiltered tuples, which on this data costs more derivations than it saves)");
}
