//! Evaluation of operator expressions over data.
//!
//! [`eval_expr`] gives every [`OpExpr`] its semantics:
//! `0·P = ∅`, `1·P = P`, `Base(i)·P = Aᵢ(P)`, sums are unions, products
//! apply right-to-left, and `E*·P` is the least fixpoint `S = P ∪ E(S)`
//! computed semi-naively (applying `E` to the delta only — valid because
//! every expression denotes a *linear* operator: tuples of `E(S)` depend on
//! one tuple of `S`).
//!
//! Together with `linrec_core::decompose_stars` this closes the loop of the
//! paper's Section 2 abstraction: rewrite the expression algebraically,
//! then evaluate any equivalent form — the integration tests check
//! `eval(E) = eval(rewrite(E))` on random data.

use crate::join::{apply_linear, Indexes};
use crate::stats::EvalStats;
use linrec_core::{ExprContext, OpExpr};
use linrec_datalog::{Database, Relation};

/// Evaluate `expr · init` over `db`.
pub fn eval_expr(
    expr: &OpExpr,
    ctx: &ExprContext,
    db: &Database,
    init: &Relation,
) -> (Relation, EvalStats) {
    let mut stats = EvalStats::default();
    let mut indexes = Indexes::new();
    let out = go(expr, ctx, db, init, &mut stats, &mut indexes);
    stats.tuples = out.len();
    (out, stats)
}

fn go(
    expr: &OpExpr,
    ctx: &ExprContext,
    db: &Database,
    input: &Relation,
    stats: &mut EvalStats,
    indexes: &mut Indexes,
) -> Relation {
    match expr {
        OpExpr::Zero => Relation::new(input.arity()),
        OpExpr::One => input.clone(),
        OpExpr::Base(i) => {
            let (out, derivs) = apply_linear(ctx.rule(*i), db, input, indexes);
            stats.record(derivs, out.len() as u64);
            out
        }
        OpExpr::Sum(terms) => {
            let mut acc = Relation::new(input.arity());
            for t in terms {
                let part = go(t, ctx, db, input, stats, indexes);
                let added = acc.union_in_place(&part);
                // Tuples produced by several summands are duplicates.
                stats.duplicates += (part.len() - added) as u64;
            }
            acc
        }
        OpExpr::Product(factors) => {
            let mut current = input.clone();
            for f in factors.iter().rev() {
                current = go(f, ctx, db, &current, stats, indexes);
            }
            current
        }
        OpExpr::Star(inner) => {
            let mut total = input.clone();
            let mut delta = input.clone();
            while !delta.is_empty() {
                stats.iterations += 1;
                let derived = go(inner, ctx, db, &delta, stats, indexes);
                let mut next = Relation::new(total.arity());
                for t in derived.iter() {
                    if !total.contains(t) {
                        next.insert(t);
                    }
                }
                // Tuples re-derived across rounds are duplicates (the
                // within-application ones were already recorded at the
                // Base level).
                stats.duplicates += (derived.len() - next.len()) as u64;
                total.union_in_place(&next);
                delta = next;
            }
            total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{rules, seminaive_star, workload};
    use linrec_core::{decompose_stars, ExprContext, OpExpr};

    fn ctx_updown() -> ExprContext {
        ExprContext::new(vec![
            ("B".into(), rules::down_rule()),
            ("C".into(), rules::up_rule()),
        ])
        .unwrap()
    }

    #[test]
    fn star_of_sum_matches_the_direct_star() {
        let ctx = ctx_updown();
        let (db, init) = workload::up_down(5, 9);
        let e = OpExpr::star_of_sum([0, 1]);
        let (via_expr, _) = eval_expr(&e, &ctx, &db, &init);
        let (direct, _) = seminaive_star(&ctx.rules(), &db, &init);
        assert_eq!(via_expr.sorted(), direct.sorted());
    }

    #[test]
    fn rewritten_expression_evaluates_identically() {
        let ctx = ctx_updown();
        let (db, init) = workload::up_down(6, 21);
        let e = OpExpr::star_of_sum([0, 1]);
        let (rewritten, log) = decompose_stars(&e, &ctx).unwrap();
        assert!(!log.is_empty());
        let (a, sa) = eval_expr(&e, &ctx, &db, &init);
        let (b, sb) = eval_expr(&rewritten, &ctx, &db, &init);
        assert_eq!(a.sorted(), b.sorted());
        // The decomposed form also produces no more duplicates (Thm 3.1).
        assert!(sb.duplicates <= sa.duplicates);
    }

    #[test]
    fn products_apply_right_to_left() {
        let ctx = ctx_updown();
        let (db, init) = workload::up_down(4, 2);
        // B·C : apply C (up) first, then B (down).
        let e = OpExpr::Product(vec![OpExpr::Base(0), OpExpr::Base(1)]);
        let (out, _) = eval_expr(&e, &ctx, &db, &init);
        let (up_first, _) = eval_expr(&OpExpr::Base(1), &ctx, &db, &init);
        let (expected, _) = eval_expr(&OpExpr::Base(0), &ctx, &db, &up_first);
        assert_eq!(out.sorted(), expected.sorted());
    }

    #[test]
    fn units_behave() {
        let ctx = ctx_updown();
        let (db, init) = workload::up_down(3, 1);
        let (zero, _) = eval_expr(&OpExpr::Zero, &ctx, &db, &init);
        assert!(zero.is_empty());
        let (one, _) = eval_expr(&OpExpr::One, &ctx, &db, &init);
        assert_eq!(one.sorted(), init.sorted());
        let (star_one, _) = eval_expr(&OpExpr::Star(Box::new(OpExpr::One)), &ctx, &db, &init);
        assert_eq!(star_one.sorted(), init.sorted());
    }

    #[test]
    fn nested_star_products_evaluate() {
        // ((B* C*))* is wasteful but legal; must equal (B+C)* on data
        // because B*C* ⊇ B + C and ⊆ (B+C)*.
        let ctx = ctx_updown();
        let (db, init) = workload::up_down(4, 5);
        let inner = OpExpr::Product(vec![
            OpExpr::Star(Box::new(OpExpr::Base(0))),
            OpExpr::Star(Box::new(OpExpr::Base(1))),
        ]);
        let nested = OpExpr::Star(Box::new(inner));
        let (a, _) = eval_expr(&nested, &ctx, &db, &init);
        let (b, _) = eval_expr(&OpExpr::star_of_sum([0, 1]), &ctx, &db, &init);
        assert_eq!(a.sorted(), b.sorted());
    }
}
