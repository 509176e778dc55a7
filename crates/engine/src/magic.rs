//! Frontier ("magic") evaluation of `σA* q` (the first loop of the
//! separable algorithm, Algorithm 4.1).
//!
//! The separable algorithm's first loop "involves manipulating relations
//! that are parameters of the various operators": instead of computing
//! `A* q` and selecting afterwards, the selection constants are propagated
//! *down* the recursion through the parameter relations. This module
//! implements that propagation for a single linear rule:
//!
//! 1. **Binding closure**: starting from the selected head positions, every
//!    nonrecursive atom sharing a bound variable binds all its variables.
//!    The rule is *magic-applicable* if the closure binds the recursive
//!    atom's variables at the same positions.
//! 2. **Magic fixpoint**: `mag ⊇ σ-seed`,
//!    `mag(rec_S) :- mag(head_S) ∧ (bound nonrecursive atoms)` — the set of
//!    relevant binding values, computed with a frontier.
//! 3. **Filtered ascent**: semi-naive evaluation of `A` seeded with
//!    `{t ∈ q | t_S ∈ mag}`, keeping only tuples whose selected columns
//!    stay in `mag`; finally apply `σ`.
//!
//! When the rule is not magic-applicable the caller falls back to
//! select-after-star.

use crate::join::{apply_flat, apply_linear, Indexes};
use crate::selection::Selection;
use crate::stats::EvalStats;
use linrec_datalog::hash::FastSet;
use linrec_datalog::{Atom, Database, LinearRule, Relation, Rule, Tuple, Var};

/// The sorted selected positions of a selection.
fn sorted_positions(sel: &Selection) -> Vec<usize> {
    let mut p = sel.positions();
    p.sort_unstable();
    p.dedup();
    p
}

/// The nonrecursive atoms reachable from the given seed variables by
/// shared-variable chaining, in discovery order, together with the final
/// bound-variable set.
fn binding_closure(rule: &LinearRule, seed: &FastSet<Var>) -> (Vec<Atom>, FastSet<Var>) {
    let mut bound = seed.clone();
    let mut used = vec![false; rule.nonrec_atoms().len()];
    let mut chain = Vec::new();
    loop {
        let mut progressed = false;
        for (i, atom) in rule.nonrec_atoms().iter().enumerate() {
            if used[i] {
                continue;
            }
            if atom.vars().any(|v| bound.contains(&v)) {
                used[i] = true;
                chain.push(atom.clone());
                for v in atom.vars() {
                    bound.insert(v);
                }
                progressed = true;
            }
        }
        if !progressed {
            return (chain, bound);
        }
    }
}

/// Can the selection's bindings be pushed through `rule`'s recursion?
/// True iff the binding closure from the selected head positions binds the
/// recursive atom's variables at those same positions.
pub fn magic_applicable(rule: &LinearRule, sel: &Selection) -> bool {
    if rule.has_repeated_head_vars() {
        return false;
    }
    let positions = sorted_positions(sel);
    if positions.iter().any(|&p| p >= rule.arity()) {
        return false;
    }
    let seed: FastSet<Var> = positions
        .iter()
        .filter_map(|&p| rule.head().terms[p].as_var())
        .collect();
    let (_, bound) = binding_closure(rule, &seed);
    positions
        .iter()
        .all(|&p| match rule.rec_atom().terms[p].as_var() {
            Some(v) => bound.contains(&v),
            None => true, // a constant is trivially bound
        })
}

const MAGIC_PRED: &str = "\u{b7}mag";
const MAGIC_DELTA_PRED: &str = "\u{b7}mag\u{394}";

/// Compute `σ A* q` with selection push-down. Returns the result relation
/// and statistics; the derivation counts include the magic phase.
///
/// # Panics
/// If `!magic_applicable(rule, sel)` — callers must check (the planner's
/// separable node falls back to select-after-star automatically).
pub fn eval_selected_star(
    rule: &LinearRule,
    db: &Database,
    init: &Relation,
    sel: &Selection,
) -> (Relation, EvalStats) {
    assert!(
        magic_applicable(rule, sel),
        "selection cannot be pushed through {rule}; use select-after-star"
    );
    let mut stats = EvalStats::default();
    let positions = sorted_positions(sel);

    // --- Phase 1: magic fixpoint over the parameter relations. ---
    let head_s_vars: Vec<Var> = positions
        .iter()
        .map(|&p| rule.head().terms[p].as_var().expect("checked"))
        .collect();
    let seed_set: FastSet<Var> = head_s_vars.iter().copied().collect();
    let (chain, _) = binding_closure(rule, &seed_set);
    let magic_rule = Rule::new(
        Atom::new(
            MAGIC_PRED,
            positions
                .iter()
                .map(|&p| rule.rec_atom().terms[p])
                .collect(),
        ),
        {
            let mut body = Vec::with_capacity(1 + chain.len());
            body.push(Atom::from_vars(MAGIC_DELTA_PRED, &head_s_vars));
            body.extend(chain);
            body
        },
    );

    let seed: Tuple = {
        // Values in sorted-position order.
        let mut pairs: Vec<(usize, linrec_datalog::Value)> = sel.bindings().to_vec();
        pairs.sort_by_key(|&(p, _)| p);
        pairs.dedup_by_key(|&mut (p, _)| p);
        pairs.into_iter().map(|(_, v)| v).collect()
    };
    let mut mag = Relation::new(positions.len());
    mag.insert(seed.clone());
    let mut mag_delta = mag.clone();
    let mut magic_db = db.clone();
    let mut magic_indexes = Indexes::new();
    while !mag_delta.is_empty() {
        stats.iterations += 1;
        magic_db.set_relation(MAGIC_DELTA_PRED, mag_delta.clone());
        // The delta is the *leading* body atom, which is always scanned, so
        // the cached EDB indexes stay valid across rounds.
        let (derived, count) = apply_flat(&magic_rule, &magic_db, &mut magic_indexes);
        let mut next = Relation::new(positions.len());
        let new = next.insert_unseen(derived.iter(), &mag);
        stats.record(count, new);
        mag.union_in_place(&next);
        mag_delta = next;
    }

    // --- Phase 2: filtered semi-naive ascent. ---
    // Not `seminaive_resume`: each round keeps only the tuples whose
    // selected columns stay in `mag`, and that filter has no place in the
    // shared driver's loop.
    let project =
        |t: &[linrec_datalog::Value]| -> Tuple { positions.iter().map(|&p| t[p]).collect() };
    let mut total = Relation::new(rule.arity());
    for t in init.iter() {
        if mag.contains(&project(t)) {
            total.insert(t);
        }
    }
    let mut delta = total.clone();
    let mut indexes = Indexes::new();
    while !delta.is_empty() {
        stats.iterations += 1;
        let (derived, count) = apply_linear(rule, db, &delta, &mut indexes);
        let mut next = Relation::new(rule.arity());
        let relevant = derived.iter().filter(|t| mag.contains(&project(t)));
        let new = next.insert_unseen(relevant, &total);
        stats.record(count, new);
        total.union_in_place(&next);
        delta = next;
    }

    let result = sel.apply(&total);
    stats.tuples = result.len();
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seminaive::seminaive_star;
    use linrec_datalog::parse_linear_rule;

    fn left_rule() -> LinearRule {
        // Expands the source column: p(x,y) :- p(w,y), up(x,w).
        parse_linear_rule("p(x,y) :- p(w,y), up(x,w).").unwrap()
    }

    #[test]
    fn applicability() {
        let r = left_rule();
        // Selecting x: x's binding flows through up(x,w) to w = rec pos 0.
        assert!(magic_applicable(&r, &Selection::eq(0, 1)));
        // Selecting y: y is persistent at position 1: bound trivially.
        assert!(magic_applicable(&r, &Selection::eq(1, 1)));
        // Right-expanding rule, selecting the moving column:
        let right = parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap();
        assert!(magic_applicable(&right, &Selection::eq(1, 1)));
        // Unbindable: h(y) = z appears in no nonrecursive atom.
        let blind = parse_linear_rule("p(x,y) :- p(x,z), e(x,y).").unwrap();
        assert!(!magic_applicable(&blind, &Selection::eq(1, 1)));
    }

    #[test]
    fn selected_star_equals_select_after_star() {
        let r = left_rule();
        let mut db = Database::new();
        db.set_relation(
            "up",
            Relation::from_pairs([(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)]),
        );
        let init = Relation::from_pairs([(3, 30), (7, 70), (1, 10)]);
        let sel = Selection::eq(0, 0);
        let (fast, _) = eval_selected_star(&r, &db, &init, &sel);
        let (full, _) = seminaive_star(std::slice::from_ref(&r), &db, &init);
        let slow = sel.apply(&full);
        assert_eq!(fast.sorted(), slow.sorted());
        assert!(!fast.is_empty());
    }

    #[test]
    fn magic_touches_fewer_tuples() {
        // Long chain; selection on one source: the magic evaluation must
        // derive far fewer tuples than the full star.
        let r = left_rule();
        let mut db = Database::new();
        db.set_relation("up", (0..200).map(|i| (i, i + 1)).collect::<Relation>());
        let init = Relation::from_pairs([(200, 0)]);
        let sel = Selection::eq(0, 199);
        let (fast, fast_stats) = eval_selected_star(&r, &db, &init, &sel);
        let (full, full_stats) = seminaive_star(std::slice::from_ref(&r), &db, &init);
        assert_eq!(fast.sorted(), sel.apply(&full).sorted());
        assert!(
            fast_stats.derivations < full_stats.derivations / 10,
            "magic {} vs full {}",
            fast_stats.derivations,
            full_stats.derivations
        );
    }

    #[test]
    fn empty_selection_result() {
        let r = left_rule();
        let mut db = Database::new();
        db.set_relation("up", Relation::from_pairs([(0, 1)]));
        let init = Relation::from_pairs([(1, 5)]);
        let sel = Selection::eq(0, 42); // 42 reaches nothing
        let (res, _) = eval_selected_star(&r, &db, &init, &sel);
        assert!(res.is_empty());
    }

    #[test]
    #[should_panic(expected = "select-after-star")]
    fn inapplicable_selection_panics() {
        let blind = parse_linear_rule("p(x,y) :- p(x,z), e(x,y).").unwrap();
        let db = Database::new();
        let init = Relation::new(2);
        eval_selected_star(&blind, &db, &init, &Selection::eq(1, 1));
    }
}
