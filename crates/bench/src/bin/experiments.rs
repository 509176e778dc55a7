//! Regenerate the paper-claim experiment tables E1–E6.
//!
//! ```sh
//! cargo run --release -p linrec-bench --bin experiments          # all
//! cargo run --release -p linrec-bench --bin experiments e1 e4   # subset
//! ```
//!
//! The paper (a theory paper) reports no absolute numbers; the reproduction
//! target is the *shape* of each efficiency claim. Every table prints the
//! measured series alongside the claim it validates.

use linrec_bench::{commuting_pair, repeated_pred_pair};
use linrec_core::{
    commute_by_definition, commutes_exact, commutes_sufficient, CommutativityCert, RedundancyCert,
    SeparabilityCert,
};
use linrec_datalog::Symbol;
use linrec_engine::{rules, workload, Plan, Selection};
use std::time::Instant;

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

fn e1() {
    println!("## E1 — Theorem 3.1: duplicates of (B+C)* vs B*C* (up/down pair)\n");
    println!("| workload | tuples | dup direct | dup decomposed | der direct | der decomposed | ms direct | ms decomposed |");
    println!("|---|---|---|---|---|---|---|---|");
    let up = rules::up_rule();
    let down = rules::down_rule();
    let mut cases: Vec<(String, linrec_datalog::Database, linrec_datalog::Relation)> = Vec::new();
    for depth in [6u32, 8, 10] {
        let (db, init) = workload::up_down(depth, 7);
        cases.push((format!("tree depth {depth}"), db, init));
    }
    for (n, m) in [(200i64, 400usize), (400, 800)] {
        let edges = workload::random_graph(n, m, 13);
        let mut db = linrec_datalog::Database::new();
        db.set_relation("up", workload::random_graph(n, m, 14));
        db.set_relation("down", edges);
        let init = workload::random_graph(n, 40, 15);
        cases.push((format!("random G({n},{m})"), db, init));
    }
    let all = vec![up, down];
    let direct_plan = Plan::direct(all.clone());
    let decomposed_plan = Plan::decomposed(
        CommutativityCert::establish(&all)
            .unwrap()
            .expect("up/down commute"),
    );
    for (name, db, init) in cases {
        let (direct, td) = time(|| direct_plan.execute(&db, &init).unwrap());
        let (dec, tc) = time(|| decomposed_plan.execute(&db, &init).unwrap());
        assert_eq!(direct.relation.sorted(), dec.relation.sorted());
        let (sd, sc) = (direct.stats, dec.stats);
        println!(
            "| {name} | {} | {} | {} | {} | {} | {td:.1} | {tc:.1} |",
            sd.tuples, sd.duplicates, sc.duplicates, sd.derivations, sc.derivations
        );
    }
    println!("\nClaim: decomposed never produces more duplicates (often far fewer).\n");
}

fn e2() {
    println!("## E2 — Theorem 4.1 / Algorithm 4.1: σ(A1+A2)* strategies\n");
    println!(
        "| depth | answers | der select-after | der separable | ms select-after | ms separable |"
    );
    println!("|---|---|---|---|---|---|");
    let up = rules::up_rule();
    let down = rules::down_rule();
    let cert = SeparabilityCert::establish(&up, &down)
        .unwrap()
        .expect("up/down commute");
    let all = vec![down, up];
    for depth in [7u32, 9, 11, 12] {
        let (db, init) = workload::up_down(depth, 11);
        let sel = Selection::eq(1, (1i64 << (depth + 1)) + 1);
        let slow_plan = Plan::select_after(Plan::direct(all.clone()), sel.clone());
        let fast_plan = Plan::separable(cert.clone(), sel).unwrap();
        let (slow, ts) = time(|| slow_plan.execute(&db, &init).unwrap());
        let (fast, tf) = time(|| fast_plan.execute(&db, &init).unwrap());
        assert_eq!(slow.relation.sorted(), fast.relation.sorted());
        println!(
            "| {depth} | {} | {} | {} | {ts:.1} | {tf:.1} |",
            fast.relation.len(),
            slow.stats.derivations,
            fast.stats.derivations
        );
    }
    println!("\nClaim: the separable algorithm touches only selection-relevant tuples.\n");
}

fn e3() {
    println!("## E3 — Theorems 4.2/6.4: redundancy-bounded evaluation (Example 6.1)\n");
    println!("| people | tuples | der direct | der bounded | C-joins direct | C-joins bounded | ms direct | ms bounded |");
    println!("|---|---|---|---|---|---|---|---|");
    let rule = rules::shopping_rule();
    let cert = RedundancyCert::establish(&rule, Symbol::new("cheap"), 8)
        .unwrap()
        .expect("cheap is redundant");
    let dec = cert.decomposition();
    let c_joins_bounded: usize = (0..dec.torsion.period())
        .map(|r| (dec.torsion.k + r) * dec.l)
        .sum();
    let direct_plan = Plan::direct(vec![rule.clone()]);
    let bounded_plan = Plan::redundancy_bounded(cert.clone());
    for people in [100i64, 400, 1600] {
        let (db, init) = workload::shopping(people, 30, 4, 99);
        let (direct, td) = time(|| direct_plan.execute(&db, &init).unwrap());
        let (bounded, tb) = time(|| bounded_plan.execute(&db, &init).unwrap());
        assert_eq!(direct.relation.sorted(), bounded.relation.sorted());
        let (sd, sb) = (direct.stats, bounded.stats);
        println!(
            "| {people} | {} | {} | {} | {} | {c_joins_bounded} | {td:.1} | {tb:.1} |",
            sd.tuples, sd.derivations, sb.derivations, sd.iterations
        );
    }
    println!("\nClaim: C (the `cheap` filter join) is processed a bounded number of");
    println!("times (NL−1), independent of the recursion depth.\n");
}

fn e4() {
    println!("## E4 — Theorem 5.3: commutativity-test scaling\n");
    println!(
        "| argument positions a | exact Thm 5.2 (µs) | sufficient Thm 5.1 (µs) | definition (µs) |"
    );
    println!("|---|---|---|---|");
    for k in [2usize, 8, 32, 128, 512] {
        let (r1, r2) = commuting_pair(k);
        let a = r1.argument_positions() + r2.argument_positions();
        let reps = 3;
        let (_, te) = time(|| {
            for _ in 0..reps {
                commutes_exact(&r1, &r2).unwrap();
            }
        });
        let (_, tsuf) = time(|| {
            for _ in 0..reps {
                commutes_sufficient(&r1, &r2).unwrap();
            }
        });
        let (_, td) = time(|| {
            for _ in 0..reps {
                commute_by_definition(&r1, &r2).unwrap();
            }
        });
        println!(
            "| {a} | {:.1} | {:.1} | {:.1} |",
            te * 1e3 / reps as f64,
            tsuf * 1e3 / reps as f64,
            td * 1e3 / reps as f64
        );
    }
    println!("\n| q-chain length (repeated preds) | definition (µs) |");
    println!("|---|---|");
    for k in [2usize, 4, 6, 8] {
        let (r1, r2) = repeated_pred_pair(k);
        let (_, td) = time(|| commute_by_definition(&r1, &r2).unwrap());
        println!("| {k} | {:.1} |", td * 1e3);
    }
    println!("\nClaim: the exact test scales ~a·log a; the definition test grows much");
    println!("faster and is the only option outside the restricted class.\n");
}

fn e5() {
    println!("## E5 — §3.2 identities and partial commutativity (3 operators)\n");
    let ops = [
        linrec_datalog::parse_linear_rule("p(x,y,z) :- p(x,y,w), a(w,z).").unwrap(),
        linrec_datalog::parse_linear_rule("p(x,y,z) :- p(w,y,z), b(x,w).").unwrap(),
        linrec_datalog::parse_linear_rule("p(x,y,z) :- p(x,w,z), c(w,y).").unwrap(),
    ];
    let cert = CommutativityCert::establish(&ops)
        .unwrap()
        .expect("mutually commuting");
    println!(
        "certified clusters: {:?} (fully decomposed: {})\n",
        cert.clusters(),
        cert.clusters().len() == ops.len()
    );
    let direct_plan = Plan::direct(ops.to_vec());
    let decomposed_plan = Plan::decomposed(cert);
    println!("| n | tuples | dup direct | dup decomposed | ms direct | ms decomposed |");
    println!("|---|---|---|---|---|---|");
    for n in [16i64, 32, 64] {
        let mut db = linrec_datalog::Database::new();
        db.set_relation("a", workload::random_graph(n, 2 * n as usize, 5));
        db.set_relation("b", workload::random_graph(n, 2 * n as usize, 6));
        db.set_relation("c", workload::random_graph(n, 2 * n as usize, 7));
        let mut init = linrec_datalog::Relation::new(3);
        for t in workload::random_graph(n, n as usize, 8).iter() {
            init.insert(vec![t[0], t[1], t[0]]);
        }
        let (direct, td) = time(|| direct_plan.execute(&db, &init).unwrap());
        let (dec, tc) = time(|| decomposed_plan.execute(&db, &init).unwrap());
        assert_eq!(direct.relation.sorted(), dec.relation.sorted());
        let (sd, sc) = (direct.stats, dec.stats);
        println!(
            "| {n} | {} | {} | {} | {td:.1} | {tc:.1} |",
            sd.tuples, sd.duplicates, sc.duplicates
        );
    }
    println!("\nClaim: mutual commutativity decomposes an n-operator star into n");
    println!("single-operator stars ((A1+…+An)* = A1*…An*).\n");
}

fn e6() {
    println!("## E6 — substrate: semi-naive vs naive (Bancilhon [5])\n");
    println!("| chain n | tuples | der semi-naive | der naive | ms semi-naive | ms naive |");
    println!("|---|---|---|---|---|---|");
    let seminaive_plan = Plan::direct(vec![rules::tc_right()]);
    let naive_plan = Plan::naive(vec![rules::tc_right()]);
    for n in [64i64, 128, 256] {
        let edges = workload::chain(n);
        let db = workload::graph_db("q", edges.clone());
        let (a, ta) = time(|| seminaive_plan.execute(&db, &edges).unwrap());
        let (b, tb) = time(|| naive_plan.execute(&db, &edges).unwrap());
        assert_eq!(a.relation.sorted(), b.relation.sorted());
        println!(
            "| {n} | {} | {} | {} | {ta:.1} | {tb:.1} |",
            a.stats.tuples, a.stats.derivations, b.stats.derivations
        );
    }
    println!("\nClaim: semi-naive avoids the naive re-derivation blow-up — the model of");
    println!("computation assumed by Theorem 3.1.\n");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");
    println!("# linrec experiment tables\n");
    if run("e1") {
        e1();
    }
    if run("e2") {
        e2();
    }
    if run("e3") {
        e3();
    }
    if run("e4") {
        e4();
    }
    if run("e5") {
        e5();
    }
    if run("e6") {
        e6();
    }
}
