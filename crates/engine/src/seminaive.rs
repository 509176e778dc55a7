//! Naive and semi-naive fixpoint evaluation (Bancilhon \[5\]): one
//! resumable semi-naive driver with an optional shard-parallel round
//! executor, and the naive reference.
//!
//! The paper has one evaluation primitive — `(Σᵢ Aᵢ)* init`, the minimal
//! solution of `P = Σᵢ Aᵢ(P) ∪ init` (eq. 2.3) — and the certificates only
//! decide which operator sets it runs over and in what order. The code has
//! one loop for it, [`seminaive_resume`]: it applies each operator only to
//! the tuples new in the previous round, which realizes the
//! derivation-graph model of Theorem 3.1 ("the same tuple is not derived
//! through the same arc more than once"). Started from `total = delta =
//! init` it is the from-scratch star ([`seminaive_star`]); started from a
//! materialized `V` and a frontier `Δ₀` it is the maintenance rule
//! `V' = A'*(V ∪ Δ₀)`; with a round cap it is the bounded prefix
//! `Σ_{m≤N} Aᵐ init` a boundedness certificate licenses. Every plan shape
//! reaches it through [`crate::planner::Plan`] (`execute` from scratch,
//! `resume` incrementally). [`naive_star`] re-joins the whole accumulated
//! relation each round and serves as the substrate baseline (experiment
//! E6) and as the tests' reference.
//!
//! # Parallel rounds and the shard-by-join-key invariant
//!
//! Under a parallel [`crate::parallel::Parallelism`] knob the driver runs
//! each round's rule applications over `K` hash-partitioned shards of the
//! delta on the shared engine pool. This is sound for exactly the
//! reason the paper cares about commutativity: within one semi-naive
//! round, every delta tuple is an **independent** premise. A linear
//! operator distributes over union — `A(Δ₁ ∪ … ∪ Δ_K) = A(Δ₁) ∪ … ∪
//! A(Δ_K)` — so any partition of `Δ` evaluates to the same derived set,
//! and the per-tuple derivations commute (this is the commutative case of
//! the commutativity-verification framing: operations on independently
//! derivable tuples can be reordered freely). Partitioning therefore
//! *commutes with the licensed plan*: a certificate that licenses a
//! cluster order `B* C*` speaks about the order of **operator stars**,
//! and sharding only reorders work *inside one application* of one
//! operator, never across applications. We hash on the recursive atom's
//! join-feeding column (`crate::join::partition_col`) purely for load
//! balance and probe locality — correctness holds for any partition.
//!
//! The round protocol keeps the output bit-identical to the sequential
//! executor:
//!
//! 1. **prepare** (one thread): scans revalidated, column indexes and join
//!    plans built (`join::prepare_rules`);
//! 2. **probe** (K workers): each shard evaluates *every* rule body
//!    read-only (`join::apply_linear_rows`), pre-filtering
//!    against the round-frozen total, into a private output buffer;
//! 3. **merge** (one thread): per rule, shard buffers fold into the next
//!    delta with a single deduplicating pass against the total's row-id
//!    table — the same `contains`/`insert` sequence the sequential loop
//!    runs, so results *and* statistics (derivations, duplicates, new
//!    tuples, per-rule attribution) are identical.
//!
//! Rounds whose delta is smaller than the cost model's cutover
//! ([`crate::planner::CostModel::parallel_cutover`]) stay sequential —
//! the fixed sharding/dispatch/merge price is only paid where the delta
//! can amortize it.

use crate::join::{apply_linear, apply_linear_rows, partition_col, prepare_rules, Indexes};
use crate::parallel::Parallelism;
use crate::stats::EvalStats;
use linrec_datalog::{Database, LinearRule, Relation, ShardView};
use std::sync::Arc;
use std::time::Instant;

/// Semi-naive least fixpoint of `init ∪ Σᵢ Aᵢ(P)`, from scratch and
/// sequentially.
pub fn seminaive_star(
    rules: &[LinearRule],
    db: &Database,
    init: &Relation,
) -> (Relation, EvalStats) {
    let mut total = init.clone();
    let seq = Parallelism::sequential();
    let indexes = &mut Indexes::new();
    let stats = seminaive_resume(rules, db, &mut total, init.clone(), None, indexes, &seq);
    (total, stats)
}

/// The semi-naive driver: extend `total` in place to the least fixpoint
/// of `total ∪ Σᵢ Aᵢ(P)`, applying the rules only to `delta` and to what
/// each round newly derives. Starting from `total = delta = init` this is
/// the from-scratch star; starting from a materialized relation it is
/// the primitive behind incremental view maintenance.
///
/// Preconditions (the caller's obligations, not checked):
/// * every tuple of `delta` is already in `total`;
/// * `total` is closed under the rules *except* through `delta`, i.e.
///   `Aᵢ(total) ⊆ total ∪ Aᵢ(delta)` for every rule — for linear rules
///   (union-distributive in the recursive predicate) this holds whenever
///   `total = old ∪ delta` with `old` a fixpoint of the rules over the
///   *previous* EDB and `delta` covering every rule application that
///   involves a changed EDB tuple.
///
/// Under those premises nothing reachable only from the unchanged region
/// is re-derived. The remaining arguments:
/// * `round_cap` bounds the number of delta rounds: sound when a
///   boundedness certificate guarantees the fixpoint is reached within
///   that many applications (`None` runs to fixpoint);
/// * `indexes` is the caller's scan/index cache, so multi-phase plans
///   over one database and successive maintenance batches build each EDB
///   index once;
/// * `par` shards the rounds whose delta reaches its cutover over the
///   shared engine pool (module docs) — results and statistics are
///   identical to a sequential knob's.
///
/// `total` only ever grows by appending: the rows past its old length are
/// exactly what the resume derived, in derivation order.
///
/// Every call is one `engine.fixpoint` span and one observation of the
/// `linrec_engine_{fixpoints,rounds,derivations,duplicates}_total`
/// counters and the per-round histograms.
pub fn seminaive_resume(
    rules: &[LinearRule],
    db: &Database,
    total: &mut Relation,
    mut delta: Relation,
    round_cap: Option<usize>,
    indexes: &mut Indexes,
    par: &Parallelism,
) -> EvalStats {
    let mut sp = linrec_obs::span("engine.fixpoint");
    if par.is_parallel() {
        sp.attr("par", par.threads());
    }
    let obs_on = linrec_obs::enabled();
    let mut round_start = obs_on.then(Instant::now);
    let mut stats = EvalStats::default();
    while !delta.is_empty() && round_cap.is_none_or(|cap| stats.iterations < cap) {
        stats.iterations += 1;
        let delta_in = delta.len() as u64;
        delta = delta_round(rules, db, total, delta, indexes, par, &mut stats);
        if let Some(t0) = round_start {
            let now = Instant::now();
            linrec_obs::histogram!("linrec_engine_round_ns").observe((now - t0).as_nanos() as u64);
            linrec_obs::histogram!("linrec_engine_round_delta_tuples").observe(delta_in);
            round_start = Some(now);
        }
        total.union_in_place(&delta);
    }
    stats.tuples = total.len();
    if obs_on {
        linrec_obs::counter!("linrec_engine_fixpoints_total").inc();
        linrec_obs::counter!("linrec_engine_rounds_total").inc_by(stats.iterations as u64);
        linrec_obs::counter!("linrec_engine_derivations_total").inc_by(stats.derivations);
        linrec_obs::counter!("linrec_engine_duplicates_total").inc_by(stats.duplicates);
        sp.attr("rounds", stats.iterations);
        sp.attr("derivations", stats.derivations);
        sp.attr("duplicates", stats.duplicates);
        sp.attr("tuples", stats.tuples);
    }
    stats
}

/// One sequential semi-naive round: apply every rule to `delta`, returning
/// the next delta (tuples not yet in `total`). The caller unions it into
/// `total`.
fn sequential_round(
    rules: &[LinearRule],
    db: &Database,
    total: &Relation,
    delta: &Relation,
    indexes: &mut Indexes,
    stats: &mut EvalStats,
) -> Relation {
    let mut next_delta = Relation::new(total.arity());
    for rule in rules {
        let (derived, count) = apply_linear(rule, db, delta, indexes);
        // `new` counts tuples unseen in `total`; duplicates within
        // `derived` itself were already collapsed by the relation, so
        // recover them from the derivation count.
        let new = next_delta.insert_unseen(derived.iter(), total);
        stats.record(count, new);
    }
    next_delta
}

/// One semi-naive round under a [`Parallelism`] knob: apply every rule to
/// `delta`, returning the next delta (derived tuples not in `total`).
/// `total` is **not** updated — the driver unions the result in. Rounds
/// below the knob's `min_delta` (or with no pool) run the plain sequential
/// body; results and statistics are identical either way.
fn delta_round(
    rules: &[LinearRule],
    db: &Database,
    total: &mut Relation,
    delta: Relation,
    indexes: &mut Indexes,
    par: &Parallelism,
    stats: &mut EvalStats,
) -> Relation {
    let Some(pool) = par.pool().filter(|_| delta.len() >= par.min_delta()) else {
        return sequential_round(rules, db, total, &delta, indexes, stats);
    };
    // Prepare: all cache mutation happens here, on this thread.
    let prepared = {
        let mut sp = linrec_obs::span("round.prepare");
        sp.observe_into(linrec_obs::histogram!("linrec_engine_par_prepare_ns"));
        prepare_rules(rules, delta.arity(), db, indexes)
    };

    // Share the round-frozen state with the workers. Nothing is copied:
    // the relations and the cache are *moved* behind `Arc`s and moved
    // back out once every worker is done.
    let rules_arc: Arc<Vec<LinearRule>> = Arc::new(rules.to_vec());
    let delta_arc = Arc::new(delta);
    let total_arc = Arc::new(std::mem::take(total));
    let idx_arc = Arc::new(std::mem::take(indexes));

    // Probe: one job per non-empty shard; each evaluates every rule body
    // read-only, pre-filtered against the frozen total.
    let ctx = linrec_obs::trace::context();
    let receivers: Vec<_> = ShardView::partition(&delta_arc, partition_col(rules), pool.threads())
        .into_iter()
        .filter(|shard| !shard.is_empty())
        .enumerate()
        .map(|(shard_no, shard)| {
            let rules = Arc::clone(&rules_arc);
            let idx = Arc::clone(&idx_arc);
            let frozen = Arc::clone(&total_arc);
            let flags = prepared.clone();
            pool.submit(move || {
                let _g = ctx.enter();
                let mut sp = linrec_obs::span("round.probe");
                sp.attr("shard", shard_no);
                sp.observe_into(linrec_obs::histogram!("linrec_engine_par_probe_ns"));
                rules
                    .iter()
                    .zip(&flags)
                    .map(|(rule, &ok)| {
                        if ok {
                            apply_linear_rows(rule, shard.iter(), &idx, Some(&frozen))
                        } else {
                            (Relation::new(rule.head().arity()), 0)
                        }
                    })
                    .collect::<Vec<(Relation, u64)>>()
            })
        })
        .collect();
    let shard_outs: Vec<Vec<(Relation, u64)>> = receivers
        .into_iter()
        .map(|rx| rx.recv().expect("parallel fixpoint worker panicked"))
        .collect();

    // Every worker has finished and dropped its clones; reclaim the
    // shared state.
    let Ok(idx) = Arc::try_unwrap(idx_arc) else {
        unreachable!("index cache still shared after round")
    };
    *indexes = idx;
    let Ok(tot) = Arc::try_unwrap(total_arc) else {
        unreachable!("total still shared after round")
    };
    *total = tot;
    drop(delta_arc);

    // Merge, rule-major so per-rule attribution matches the sequential
    // loop: a tuple derived by several rules counts as new for the first
    // and as a duplicate for the rest.
    let mut sp = linrec_obs::span("round.merge");
    sp.observe_into(linrec_obs::histogram!("linrec_engine_par_merge_ns"));
    let mut next_delta = Relation::new(total.arity());
    for r in 0..rules.len() {
        let mut derivs = 0u64;
        let mut new = 0u64;
        for out in &shard_outs {
            let (rel, d) = &out[r];
            derivs += d;
            new += next_delta.union_in_place(rel) as u64;
        }
        stats.record(derivs, new);
    }
    next_delta
}

/// Naive least fixpoint: re-applies every operator to the whole accumulated
/// relation until nothing changes.
pub fn naive_star(rules: &[LinearRule], db: &Database, init: &Relation) -> (Relation, EvalStats) {
    let mut stats = EvalStats::default();
    let mut indexes = Indexes::new();
    let mut total = init.clone();
    loop {
        stats.iterations += 1;
        let mut round = Relation::new(total.arity());
        for rule in rules {
            let (derived, count) = apply_linear(rule, db, &total, &mut indexes);
            let new = round.insert_unseen(derived.iter(), &total);
            stats.record(count, new);
        }
        if round.is_empty() {
            break;
        }
        total.union_in_place(&round);
    }
    stats.tuples = total.len();
    (total, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrec_datalog::parse_linear_rule;

    fn tc_rule() -> LinearRule {
        parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()
    }

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        db.set_relation("e", (0..n).map(|i| (i, i + 1)).collect::<Relation>());
        db
    }

    #[test]
    fn transitive_closure_of_a_chain() {
        let db = chain_db(4); // 0→1→2→3→4
        let init = db.relation_named("e").unwrap().clone();
        let (result, stats) = seminaive_star(&[tc_rule()], &db, &init);
        // All pairs i<j: C(5,2) = 10.
        assert_eq!(result.len(), 10);
        assert_eq!(stats.tuples, 10);
        // A chain admits exactly one derivation per pair: no duplicates.
        assert_eq!(stats.duplicates, 0);
    }

    #[test]
    fn naive_equals_seminaive() {
        let chain = chain_db(6);
        let chain_init = chain.relation_named("e").unwrap().clone();
        let (updown, updown_init) = linrec_testkit::up_down(4, 9);
        let updown_rules = vec![crate::rules::down_rule(), crate::rules::up_rule()];
        for (rules, db, init) in [
            (vec![tc_rule()], chain, chain_init),
            (updown_rules, updown, updown_init),
        ] {
            let (a, sa) = seminaive_star(&rules, &db, &init);
            let (b, sb) = naive_star(&rules, &db, &init);
            assert_eq!(a.sorted(), b.sorted());
            // Naive re-derives everything each round: strictly more duplicates.
            assert!(sb.duplicates > sa.duplicates);
        }
    }

    #[test]
    fn cycle_terminates() {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(0, 1), (1, 2), (2, 0)]));
        let init = db.relation_named("e").unwrap().clone();
        let (result, _) = seminaive_star(&[tc_rule()], &db, &init);
        assert_eq!(result.len(), 9); // complete digraph on 3 nodes
    }

    #[test]
    fn two_rule_sum() {
        let up = parse_linear_rule("p(x,y) :- p(x,z), up(z,y).").unwrap();
        let down = parse_linear_rule("p(x,y) :- p(w,y), down(x,w).").unwrap();
        let mut db = Database::new();
        db.set_relation("up", Relation::from_pairs([(1, 2)]));
        db.set_relation("down", Relation::from_pairs([(0, 1)]));
        let init = Relation::from_pairs([(1, 1)]);
        let (result, _) = seminaive_star(&[up, down], &db, &init);
        // {(1,1), (1,2), (0,1), (0,2)}.
        assert_eq!(result.len(), 4);
        assert!(result.contains(&[linrec_datalog::Value::Int(0), linrec_datalog::Value::Int(2)]));
    }

    #[test]
    fn round_cap_cuts_the_star_off_under_every_knob() {
        let db = chain_db(10);
        let init = Relation::from_pairs([(0, 1)]);
        for par in [Parallelism::sequential(), eager(4)] {
            let (r2, stats) = star_under(&[tc_rule()], &db, &init, Some(2), &par);
            // init ∪ A init ∪ A² init = {(0,1),(0,2),(0,3)}.
            assert_eq!((r2.len(), stats.iterations), (3, 2));
            // A cap beyond the fixpoint is no cap.
            let (rbig, _) = star_under(&[tc_rule()], &db, &init, Some(100), &par);
            assert_eq!(rbig.len(), 10);
        }
    }

    #[test]
    fn resume_extends_a_materialized_fixpoint() {
        // Materialize TC of the chain 0→…→4, then append the edge (4,5)
        // and resume from a delta seeded with the new-edge consequences:
        // the result must equal the from-scratch fixpoint on the new EDB.
        let rule = tc_rule();
        let db = chain_db(4);
        let init = db.relation_named("e").unwrap().clone();
        let (mut total, _) = seminaive_star(std::slice::from_ref(&rule), &db, &init);

        let mut db2 = db.clone();
        db2.insert_tuple(
            linrec_datalog::Symbol::new("e"),
            Relation::from_pairs([(4, 5)]).row(0),
        );
        // Seed delta: the new edge plus every rule application through it.
        let mut delta_db = db2.clone();
        delta_db.set_relation("e", Relation::from_pairs([(4, 5)]));
        let mut idx = Indexes::new();
        let (through_new, _) = apply_linear(&rule, &delta_db, &total, &mut idx);
        let mut delta = Relation::from_pairs([(4, 5)]);
        delta.insert_unseen(through_new.iter(), &total);
        total.union_in_place(&delta);

        let stats = seminaive_resume(
            std::slice::from_ref(&rule),
            &db2,
            &mut total,
            delta,
            None,
            &mut Indexes::new(),
            &Parallelism::sequential(),
        );
        let init2 = db2.relation_named("e").unwrap().clone();
        let (scratch, _) = seminaive_star(&[rule], &db2, &init2);
        assert_eq!(total.sorted(), scratch.sorted());
        assert_eq!(stats.tuples, total.len());
        // C(6,2) = 15 pairs.
        assert_eq!(total.len(), 15);
    }

    #[test]
    fn empty_init_is_empty_star() {
        let db = chain_db(3);
        let init = Relation::new(2);
        let (result, stats) = seminaive_star(&[tc_rule()], &db, &init);
        assert!(result.is_empty());
        assert_eq!(stats.iterations, 0);
    }

    /// The from-scratch star under a round cap and a knob.
    fn star_under(
        rules: &[LinearRule],
        db: &Database,
        init: &Relation,
        round_cap: Option<usize>,
        par: &Parallelism,
    ) -> (Relation, EvalStats) {
        let mut total = init.clone();
        let indexes = &mut Indexes::new();
        let stats = seminaive_resume(rules, db, &mut total, init.clone(), round_cap, indexes, par);
        (total, stats)
    }

    /// A parallel knob that always engages (any delta size, k shards).
    fn eager(k: usize) -> Parallelism {
        Parallelism::new(k).with_min_delta(1)
    }

    #[test]
    fn parallel_star_is_bit_identical_to_sequential() {
        let db = chain_db(40);
        let init = db.relation_named("e").unwrap().clone();
        let (seq, seq_stats) = seminaive_star(&[tc_rule()], &db, &init);
        for k in [1usize, 2, 3, 8] {
            let (par, par_stats) = star_under(&[tc_rule()], &db, &init, None, &eager(k));
            assert_eq!(par.sorted(), seq.sorted(), "k={k}");
            assert_eq!(par_stats, seq_stats, "k={k}: statistics must match too");
        }
    }

    #[test]
    fn parallel_multi_rule_star_matches_and_attributes_stats_identically() {
        // Two rules that derive overlapping tuples: per-rule new/duplicate
        // attribution in the merge must mirror the sequential rule order.
        let up = parse_linear_rule("p(x,y) :- p(x,z), up(z,y).").unwrap();
        let down = parse_linear_rule("p(x,y) :- p(w,y), down(x,w).").unwrap();
        let mut db = Database::new();
        db.set_relation("up", Relation::from_pairs((0..12).map(|i| (i, i + 1))));
        db.set_relation("down", Relation::from_pairs((0..12).map(|i| (i + 1, i))));
        let init = Relation::from_pairs((0..12).map(|i| (i, i)));
        let rules = vec![up, down];
        let (seq, seq_stats) = seminaive_star(&rules, &db, &init);
        let (par, par_stats) = star_under(&rules, &db, &init, None, &eager(3));
        assert_eq!(par.sorted(), seq.sorted());
        assert_eq!(par_stats, seq_stats);
    }

    #[test]
    fn parallel_resume_matches_sequential_resume() {
        let rule = tc_rule();
        let db = chain_db(30);
        let init = db.relation_named("e").unwrap().clone();
        let (fix, _) = seminaive_star(std::slice::from_ref(&rule), &db, &init);
        // Extend the chain and seed the resume delta as maintenance would.
        let mut db2 = db.clone();
        for i in 30..34 {
            db2.insert_tuple(
                linrec_datalog::Symbol::new("e"),
                Relation::from_pairs([(i, i + 1)]).row(0),
            );
        }
        let mut delta_db = db2.clone();
        delta_db.set_relation("e", Relation::from_pairs((30..34).map(|i| (i, i + 1))));
        let mut seed = Relation::from_pairs((30..34).map(|i| (i, i + 1)));
        let (through_new, _) = apply_linear(&rule, &delta_db, &fix, &mut Indexes::new());
        seed.insert_unseen(through_new.iter(), &fix);

        let run = |par: Parallelism| {
            let mut total = fix.clone();
            total.union_in_place(&seed);
            let stats = seminaive_resume(
                std::slice::from_ref(&rule),
                &db2,
                &mut total,
                seed.clone(),
                None,
                &mut Indexes::new(),
                &par,
            );
            (total, stats)
        };
        let (seq_total, seq_stats) = run(Parallelism::sequential());
        for k in [2usize, 8] {
            let (par_total, par_stats) = run(eager(k));
            assert_eq!(par_total.sorted(), seq_total.sorted(), "k={k}");
            assert_eq!(par_stats, seq_stats, "k={k}");
        }
        // Sanity: the resume really reaches the from-scratch fixpoint.
        let init2 = db2.relation_named("e").unwrap().clone();
        let (scratch, _) = seminaive_star(&[rule], &db2, &init2);
        assert_eq!(seq_total.sorted(), scratch.sorted());
    }

    #[test]
    fn high_min_delta_keeps_every_round_sequential_but_exact() {
        let db = chain_db(25);
        let init = db.relation_named("e").unwrap().clone();
        let gated = Parallelism::new(4).with_min_delta(usize::MAX);
        let (a, sa) = star_under(&[tc_rule()], &db, &init, None, &gated);
        let (b, sb) = seminaive_star(&[tc_rule()], &db, &init);
        assert_eq!(a.sorted(), b.sorted());
        assert_eq!(sa, sb);
    }

    #[test]
    fn parallel_round_with_arity_mismatched_rule_matches_sequential() {
        // `e` stored at arity 2, second rule uses it at arity 3: the
        // prepared flag disables it in parallel rounds exactly as the
        // sequential join treats it as empty.
        let rules = vec![
            tc_rule(),
            parse_linear_rule("p(x,y) :- p(x,z), e(w,u,z).").unwrap(),
        ];
        let db = chain_db(20);
        let init = db.relation_named("e").unwrap().clone();
        let (seq, seq_stats) = seminaive_star(&rules, &db, &init);
        let (par, par_stats) = star_under(&rules, &db, &init, None, &eager(3));
        assert_eq!(par.sorted(), seq.sorted());
        assert_eq!(par_stats, seq_stats);
    }
}
