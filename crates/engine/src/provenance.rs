//! Provenance: why is a tuple in the answer?
//!
//! The paper's §3.2 observes that commutativity is a *proof-tree
//! transformation* (after Ramakrishnan–Sagiv–Ullman–Vardi \[19\]): a
//! derivation of a tuple in `(B+C)*q` is a sequence of operator
//! applications rooted at a seed tuple, and commuting adjacent applications
//! reorders the sequence without changing the result. This module recovers,
//! for every derived tuple, a *first* derivation (parent tuple + rule
//! index), from which the whole application sequence can be read back —
//! and shows that for commuting rules an equivalent canonical-order
//! derivation exists.
//!
//! Nothing is recorded while the fixpoint runs: [`eval_with_provenance`]
//! is [`seminaive_star`], whose `total` only grows by appending, so a
//! tuple's row is its derivation order and the rows fall into rounds. A
//! tuple new in round `k` has a parent new in round `k − 1`, and no parent
//! older than that (it would have derived the tuple a round earlier). One
//! step back is one bound-head backward join per rule,
//! `·why(rec) :- ·t(head), nonrec…, ·total(rec)` with `·t = {t}`, keeping
//! the parent at the smallest row (ties to the lowest rule index). That
//! parent is from the previous round, so the walk ends at a seed.

use crate::join::{join_emit, Indexes};
use crate::seminaive::seminaive_star;
use linrec_datalog::{Atom, Database, LinearRule, Relation, Rule, Tuple, Value};
use std::cell::RefCell;
use std::sync::Arc;

const TUPLE_PRED: &str = "\u{b7}t";
const TOTAL_PRED: &str = "\u{b7}total";
const WHY_PRED: &str = "\u{b7}why";

/// One step of a derivation: the rule applied and the parent tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Index of the applied rule.
    pub rule: usize,
    /// The recursive-atom tuple the rule was applied to.
    pub parent: Tuple,
}

/// First-derivation provenance for a fixpoint computation, recovered on
/// demand by backward joins (see the module docs).
pub struct Provenance {
    rules: Vec<LinearRule>,
    /// Per rule, `·why(rec) :- ·t(head), nonrec…, ·total(rec)`.
    backward: Vec<Rule>,
    /// The fixpoint, seeds first, then each round's new tuples.
    total: Arc<Relation>,
    /// How many leading rows of `total` are seeds.
    seeds: usize,
    /// The evaluation database plus `·total`.
    db: Database,
    /// The backward joins' scan/index cache (`·total` is indexed once).
    indexes: RefCell<Indexes>,
}

impl Provenance {
    /// The first derivation step of `t`: the rule applied and its parent.
    /// `None` for seeds and for tuples not in the fixpoint.
    pub fn step(&self, t: &[Value]) -> Option<Step> {
        let row = self.total.row_of(t)?;
        if row < self.seeds {
            return None;
        }
        let this = Relation::from_tuples(t.len(), [t]);
        let indexes = &mut *self.indexes.borrow_mut();
        let mut parents = Vec::new();
        for (rule, back) in self.backward.iter().enumerate() {
            let (found, _) = join_emit(&back.head, &back.body, &this, &self.db, indexes);
            let at = |p: &[Value]| Some((self.total.row_of(p)?, rule, Tuple::from_slice(p)));
            parents.extend(found.iter().filter_map(at));
        }
        // Smallest row, then lowest rule index.
        let (at, rule, parent) = parents.into_iter().min()?;
        (at < row).then_some(Step { rule, parent })
    }

    /// The full derivation of `t`: the sequence of `(rule, parent)` steps
    /// from a seed tuple to `t`, seed first. Empty for seeds; `None` for
    /// tuples that were never derived.
    pub fn derivation(&self, t: &[Value]) -> Option<Vec<Step>> {
        let mut steps = Vec::new();
        let mut cur = Tuple::from_slice(t);
        while self.total.row_of(&cur)? >= self.seeds {
            let step = self.step(&cur)?;
            cur = step.parent.clone();
            steps.push(step);
        }
        steps.reverse();
        Some(steps)
    }

    /// The multiset of rule indices along `t`'s derivation.
    pub fn rule_sequence(&self, t: &[Value]) -> Option<Vec<usize>> {
        self.derivation(t)
            .map(|steps| steps.iter().map(|s| s.rule).collect())
    }

    /// Render a derivation for humans.
    pub fn explain(&self, t: &[Value]) -> Option<String> {
        let steps = self.derivation(t)?;
        let mut out = String::new();
        use std::fmt::Write as _;
        if steps.is_empty() {
            let _ = writeln!(out, "{t:?} is a seed tuple");
            return Some(out);
        }
        let _ = writeln!(out, "seed {:?}", steps[0].parent);
        for s in &steps {
            let _ = writeln!(out, "  --[rule {}: {}]-->", s.rule, self.rules[s.rule]);
        }
        let _ = writeln!(out, "  {t:?}");
        Some(out)
    }
}

/// Semi-naive evaluation with first-derivation provenance.
pub fn eval_with_provenance(
    rules: &[LinearRule],
    db: &Database,
    init: &Relation,
) -> (Relation, Provenance) {
    let (total, _) = seminaive_star(rules, db, init);
    let total = Arc::new(total);
    let mut db = db.snapshot();
    db.set_relation_arc(TOTAL_PRED, Arc::clone(&total));
    let backward = |rule: &LinearRule| {
        let rec = &rule.rec_atom().terms;
        let mut body = vec![Atom::new(TUPLE_PRED, rule.head().terms.clone())];
        body.extend(rule.nonrec_atoms().iter().cloned());
        body.push(Atom::new(TOTAL_PRED, rec.clone()));
        Rule::new(Atom::new(WHY_PRED, rec.clone()), body)
    };
    let prov = Provenance {
        rules: rules.to_vec(),
        backward: rules.iter().map(backward).collect(),
        total: Arc::clone(&total),
        seeds: init.len(),
        db,
        indexes: RefCell::default(),
    };
    (Relation::clone(&total), prov)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{rules, workload};

    fn int_pair(a: i64, b: i64) -> Tuple {
        Tuple::from_slice(&[Value::Int(a), Value::Int(b)])
    }

    #[test]
    fn derivations_lead_back_to_seeds() {
        let (db, init) = workload::up_down(4, 3);
        let rs = [rules::down_rule(), rules::up_rule()];
        let (total, prov) = eval_with_provenance(&rs, &db, &init);
        for t in total.iter() {
            let steps = prov
                .derivation(t)
                .unwrap_or_else(|| panic!("no derivation for {t:?}"));
            // Each step's parent differs from the derived tuple by one rule
            // application; the chain starts at a seed.
            match steps.first() {
                Some(first) => assert!(init.contains(&first.parent)),
                None => assert!(init.contains(t)),
            }
        }
    }

    #[test]
    fn explain_is_readable() {
        let mut db = linrec_datalog::Database::new();
        db.set_relation("q", Relation::from_pairs([(1, 2), (2, 3)]));
        let tc = linrec_datalog::parse_linear_rule("p(x,y) :- p(x,z), q(z,y).").unwrap();
        let init = Relation::from_pairs([(0, 1)]);
        let (total, prov) = eval_with_provenance(std::slice::from_ref(&tc), &db, &init);
        assert!(total.contains(&int_pair(0, 3)));
        let text = prov.explain(&int_pair(0, 3)).unwrap();
        assert!(text.contains("seed"));
        assert!(text.contains("rule 0"));
        let seq = prov.rule_sequence(&int_pair(0, 3)).unwrap();
        assert_eq!(seq, vec![0, 0]);
    }

    #[test]
    fn commuting_rules_admit_canonical_order_derivations() {
        // §3.2: commutativity as a proof-tree transformation. For commuting
        // up/down rules, re-deriving with the decomposed strategy (canonical
        // all-up-then-all-down order) reaches every tuple; its provenance
        // sequences are sorted (no down before up... i.e. nondecreasing
        // rule index given groups [down], [up] applied up-first).
        let (db, init) = workload::up_down(5, 8);
        let rs = [rules::down_rule(), rules::up_rule()];
        let (mixed, _) = eval_with_provenance(&rs, &db, &init);

        // Canonical order: up* first, then down*.
        let (after_up, prov_up) = eval_with_provenance(std::slice::from_ref(&rs[1]), &db, &init);
        let (full, prov_down) = eval_with_provenance(std::slice::from_ref(&rs[0]), &db, &after_up);
        assert_eq!(mixed.sorted(), full.sorted());

        // Every tuple has a derivation that is all-up then all-down.
        for t in full.iter() {
            let tail = prov_down.derivation(t).unwrap();
            let mid: Tuple = match tail.first() {
                Some(s) => s.parent.clone(),
                None => Tuple::from_slice(t),
            };
            let head = prov_up.derivation(&mid).unwrap();
            // head uses only rule "up", tail only rule "down".
            assert!(head.iter().all(|s| s.rule == 0)); // index within its call
            assert!(tail.iter().all(|s| s.rule == 0));
        }
    }

    #[test]
    fn seed_tuples_have_empty_derivations() {
        let (db, init) = workload::up_down(3, 2);
        let rs = [rules::down_rule(), rules::up_rule()];
        let (_, prov) = eval_with_provenance(&rs, &db, &init);
        for t in init.iter() {
            // A seed may have been re-derived; derivation is then nonempty
            // but must still ground out. Only check the pure-seed case.
            if prov.step(t).is_none() {
                assert_eq!(prov.derivation(t).unwrap(), Vec::<Step>::new());
            }
        }
    }

    #[test]
    fn unknown_tuples_have_no_derivation() {
        let (db, init) = workload::up_down(3, 2);
        let rs = [rules::down_rule(), rules::up_rule()];
        let (_, prov) = eval_with_provenance(&rs, &db, &init);
        assert!(prov.derivation(&int_pair(-5, -6)).is_none());
    }
}
