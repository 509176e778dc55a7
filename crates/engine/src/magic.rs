//! Selection push-down for `σA* q` as a rule rewrite (the first loop of
//! the separable algorithm, Algorithm 4.1).
//!
//! The separable algorithm's first loop "involves manipulating relations
//! that are parameters of the various operators": instead of computing
//! `A* q` and selecting afterwards, the selection constants are propagated
//! *down* the recursion through the parameter relations. This module does
//! not evaluate anything. It rewrites one linear rule and a selection into
//! two linear rules whose stars the caller runs on the semi-naive driver:
//!
//! 1. **Binding closure**: starting from the selected head positions, every
//!    nonrecursive atom sharing a bound variable binds all its variables.
//!    The rule is *magic-applicable* if the closure binds the recursive
//!    atom's variables at the same positions.
//! 2. **Magic rule**: `·mag(rec_S) :- ·mag(head_S), chain`, where `chain` is
//!    the closure's atoms. Its star from the one-tuple seed of σ's
//!    constants is the set of relevant binding values.
//! 3. **Guarded rule**: `head :- rec, nonrec…, ·mag(head_S)`, the textbook
//!    magic-sets guard. Its star over the database plus `·mag`, seeded with
//!    the tuples of `q` the guard admits, is followed by `σ`.
//!
//! When the rule is not magic-applicable the caller falls back to
//! select-after-star. A constant in the recursive atom at a selected
//! position counts as not applicable: the magic rule's head would hold a
//! constant, which no linear rule may.

use crate::selection::Selection;
use crate::seminaive::seminaive_star;
use crate::stats::EvalStats;
use linrec_datalog::hash::FastSet;
use linrec_datalog::{Atom, Database, LinearRule, Relation, Rule, Tuple, Value, Var};

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

const MAGIC_PRED: &str = "\u{b7}mag";

/// A rule rewritten for a selection it absorbs (see the module docs).
pub(crate) struct MagicRewrite {
    /// `·mag(rec_S) :- ·mag(head_S), chain`.
    magic: LinearRule,
    /// The magic star's seed: σ's constants in position order.
    seed: Relation,
    /// `head :- rec, nonrec…, ·mag(head_S)`.
    guarded: LinearRule,
    /// The selected positions, sorted.
    positions: Vec<usize>,
}

impl MagicRewrite {
    /// The rewrite of `rule` for `sel`, or `None` when the selection cannot
    /// be pushed through the recursion.
    pub(crate) fn of(rule: &LinearRule, sel: &Selection) -> Option<MagicRewrite> {
        if rule.has_repeated_head_vars() {
            return None;
        }
        // The first binding of a position wins; σ rejects a contradicting
        // one at the end.
        let mut bindings = sel.bindings().to_vec();
        bindings.sort_by_key(|&(p, _)| p);
        bindings.dedup_by_key(|&mut (p, _)| p);
        let (positions, constants): (Vec<usize>, Vec<Value>) = bindings.into_iter().unzip();
        let vars_at = |atom: &Atom| -> Option<Vec<Var>> {
            positions
                .iter()
                .map(|&p| atom.terms.get(p)?.as_var())
                .collect()
        };
        let (head_s, rec_s) = (vars_at(rule.head())?, vars_at(rule.rec_atom())?);
        let (chain, bound) = binding_closure(rule, &head_s.iter().copied().collect());
        if !rec_s.iter().all(|v| bound.contains(v)) {
            return None;
        }
        let guard = Atom::from_vars(MAGIC_PRED, &head_s);
        let body = std::iter::once(guard.clone()).chain(chain).collect();
        let magic = LinearRule::from_rule(&Rule::new(Atom::from_vars(MAGIC_PRED, &rec_s), body));
        let mut nonrec = rule.nonrec_atoms().to_vec();
        nonrec.push(guard);
        let guarded = LinearRule::from_parts(rule.head().clone(), rule.rec_atom().clone(), nonrec);
        Some(MagicRewrite {
            magic: magic.ok()?,
            seed: Relation::from_tuples(positions.len(), [constants]),
            guarded: guarded.ok()?,
            positions,
        })
    }

    /// `σ A* init`, each of the two stars run by `star(rule, db, seed)`:
    /// the magic star over `db`, then the guarded star over `db` plus
    /// `·mag`, from the tuples of `init` the guard admits.
    pub(crate) fn eval(
        &self,
        db: &Database,
        init: &Relation,
        sel: &Selection,
        mut star: impl FnMut(&LinearRule, &Database, Relation) -> (Relation, EvalStats),
    ) -> (Relation, EvalStats) {
        let (mag, mut stats) = star(&self.magic, db, self.seed.clone());
        let admitted = init.iter().filter(|t| {
            let key: Option<Tuple> = self.positions.iter().map(|&p| t.get(p).copied()).collect();
            key.is_some_and(|key| mag.contains(&key))
        });
        let admitted = Relation::from_tuples(init.arity(), admitted);
        let mut guarded_db = db.snapshot();
        guarded_db.set_relation(MAGIC_PRED, mag);
        let (total, guarded) = star(&self.guarded, &guarded_db, admitted);
        stats += guarded;
        let result = sel.apply(&total);
        stats.tuples = result.len();
        (result, stats)
    }
}

/// Can the selection's bindings be pushed through `rule`'s recursion?
/// True iff the recursive atom holds variables at the selected positions
/// and the binding closure from the selected head positions binds them.
pub fn magic_applicable(rule: &LinearRule, sel: &Selection) -> bool {
    MagicRewrite::of(rule, sel).is_some()
}

/// `σ A* init`, with the selection pushed through `rule` when
/// [`magic_applicable`] and applied after the star otherwise. This is the
/// sequential convenience form over the rewrite: two [`seminaive_star`]s
/// (one when not applicable), the way `seminaive_star` relates to
/// [`crate::seminaive::seminaive_resume`]. The planner's separable node
/// runs the same rewrite on its own backend. The derivation counts include
/// the magic star.
pub fn eval_selected_star(
    rule: &LinearRule,
    db: &Database,
    init: &Relation,
    sel: &Selection,
) -> (Relation, EvalStats) {
    let star = |rule: &LinearRule, db: &Database, seed: Relation| {
        seminaive_star(std::slice::from_ref(rule), db, &seed)
    };
    match MagicRewrite::of(rule, sel) {
        Some(magic) => magic.eval(db, init, sel, star),
        None => {
            let (full, mut stats) = star(rule, db, init.clone());
            let result = sel.apply(&full);
            stats.tuples = result.len();
            (result, stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // A constant at the selected recursive position: `·mag(7)` is no
        // linear rule, so σ is applied after the star.
        let constant = parse_linear_rule("p(x,y) :- p(x,7), e(7,y).").unwrap();
        assert!(!magic_applicable(&constant, &Selection::eq(1, 9)));
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
    fn inapplicable_selection_is_applied_after_the_star() {
        let blind = parse_linear_rule("p(x,y) :- p(x,z), e(x,y).").unwrap();
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 1), (1, 2), (3, 1)]));
        let init = Relation::from_pairs([(1, 5), (3, 3)]);
        let sel = Selection::eq(1, 1);
        let (res, stats) = eval_selected_star(&blind, &db, &init, &sel);
        let (full, _) = seminaive_star(std::slice::from_ref(&blind), &db, &init);
        assert_eq!(res.sorted(), sel.apply(&full).sorted());
        assert!(!res.is_empty());
        assert_eq!(stats.tuples, res.len());
    }
}
