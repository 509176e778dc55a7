//! A database: a mapping from predicate symbols to relations.
//!
//! # Copy-on-write snapshots
//!
//! Relations are stored behind [`Arc`], so cloning a [`Database`] — or
//! calling the intention-revealing alias [`Database::snapshot`] — is
//! `O(#relations)` regardless of how many tuples it holds: the clone
//! shares every relation's arena with the original. Mutation goes through
//! [`Arc::make_mut`], which deep-copies **only** the relation actually
//! being written, and only when some other snapshot still shares it. This
//! is the substrate for epoch-versioned serving (`linrec-service`): a
//! writer snapshots the database, applies an insert batch (copying just
//! the touched relations), and publishes the result while readers keep
//! serving from the previous snapshot untouched.

use crate::atom::Atom;
use crate::error::RuleError;
use crate::hash::FastMap;
use crate::parser::{parse_program, Clause};
use crate::relation::{Relation, Tuple};
use crate::symbol::Symbol;
use crate::term::{Term, Value};
use std::fmt;
use std::sync::Arc;

/// A collection of named relations (the EDB plus any materialized IDB).
///
/// Cloning is cheap (copy-on-write; see the module docs).
#[derive(Clone, Default)]
pub struct Database {
    relations: FastMap<Symbol, Arc<Relation>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Load ground facts from program text; rules in the text are rejected.
    pub fn from_facts(src: &str) -> Result<Database, RuleError> {
        let mut db = Database::new();
        for clause in parse_program(src)? {
            match clause {
                Clause::Fact(atom) => db.insert_fact(&atom)?,
                Clause::Rule(r) => {
                    return Err(RuleError::Parse(format!(
                        "expected facts only, found rule {r}"
                    )))
                }
            }
        }
        Ok(db)
    }

    /// Insert a ground atom as a fact. Facts come from program text, so a
    /// predicate used at two arities is a typed error here rather than
    /// [`Database::insert_tuple`]'s panic.
    pub fn insert_fact(&mut self, atom: &Atom) -> Result<(), RuleError> {
        if let Some(rel) = self.relation(atom.pred) {
            if rel.arity() != atom.arity() {
                return Err(RuleError::Parse(format!(
                    "fact {atom} has arity {}, but {} already holds {}-tuples",
                    atom.arity(),
                    atom.pred,
                    rel.arity()
                )));
            }
        }
        let mut tuple = Tuple::with_capacity(atom.arity());
        for t in &atom.terms {
            match t {
                Term::Const(v) => tuple.push(*v),
                Term::Var(v) => {
                    return Err(RuleError::Parse(format!(
                        "fact {atom} contains variable {v}"
                    )))
                }
            }
        }
        self.insert_tuple(atom.pred, tuple);
        Ok(())
    }

    /// Insert a raw tuple for `pred`, creating the relation on first use.
    /// Returns `true` iff the tuple was not already present.
    ///
    /// When the relation is shared with a snapshot, the write copies it
    /// first (copy-on-write) so the snapshot is unaffected.
    ///
    /// # Panics
    /// If `pred` already exists with a different arity.
    pub fn insert_tuple(&mut self, pred: Symbol, tuple: impl AsRef<[Value]>) -> bool {
        let tuple = tuple.as_ref();
        let arity = tuple.len();
        let rel = self
            .relations
            .entry(pred)
            .or_insert_with(|| Arc::new(Relation::new(arity)));
        // Duplicate check before `make_mut`: a no-op insert must not
        // deep-copy a relation that is shared with a snapshot. (The arity
        // assertion still fires inside `insert` for genuinely new tuples;
        // `contains` is simply false on an arity mismatch.)
        if tuple.len() == rel.arity() && rel.contains(tuple) {
            return false;
        }
        Arc::make_mut(rel).insert(tuple)
    }

    /// Install (or replace) a whole relation.
    pub fn set_relation(&mut self, pred: impl Into<Symbol>, rel: Relation) {
        self.relations.insert(pred.into(), Arc::new(rel));
    }

    /// Install (or replace) a relation that is already shared — the
    /// zero-copy path for publishing a materialized view into a snapshot.
    pub fn set_relation_arc(&mut self, pred: impl Into<Symbol>, rel: Arc<Relation>) {
        self.relations.insert(pred.into(), rel);
    }

    /// Look up a relation.
    pub fn relation(&self, pred: Symbol) -> Option<&Relation> {
        self.relations.get(&pred).map(|r| r.as_ref())
    }

    /// Look up a relation as a shared handle (zero-copy; the handle stays
    /// valid however the database is mutated afterwards).
    pub fn relation_arc(&self, pred: Symbol) -> Option<Arc<Relation>> {
        self.relations.get(&pred).cloned()
    }

    /// A cheap copy-on-write snapshot: `O(#relations)`, sharing every
    /// relation's storage with `self` (see the module docs). Identical to
    /// `clone()`; spelled as a method so call sites state their intent.
    pub fn snapshot(&self) -> Database {
        self.clone()
    }

    /// Look up a relation by name.
    pub fn relation_named(&self, pred: &str) -> Option<&Relation> {
        self.relation(Symbol::new(pred))
    }

    /// The relation for `pred`, or an empty relation of the given arity.
    pub fn relation_or_empty(&self, pred: Symbol, arity: usize) -> Relation {
        self.relations
            .get(&pred)
            .map(|r| Relation::clone(r))
            .unwrap_or_else(|| Relation::new(arity))
    }

    /// Iterate over `(predicate, relation)` pairs (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Relation)> + '_ {
        self.relations.iter().map(|(&s, r)| (s, r.as_ref()))
    }

    /// Number of distinct predicates.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Total number of tuples across all relations.
    pub fn num_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<Symbol> = self.relations.keys().copied().collect();
        names.sort_by_key(|s| s.as_str());
        for n in names {
            writeln!(f, "{n}: {:?}", self.relations[&n])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Value;

    #[test]
    fn loads_facts() {
        let db = Database::from_facts("e(1,2). e(2,3). v(7).").unwrap();
        assert_eq!(db.relation_named("e").unwrap().len(), 2);
        assert_eq!(db.relation_named("v").unwrap().len(), 1);
        assert_eq!(db.num_relations(), 2);
        assert_eq!(db.num_tuples(), 3);
    }

    #[test]
    fn rejects_rules_in_fact_text() {
        assert!(Database::from_facts("p(x,y) :- e(x,y).").is_err());
    }

    #[test]
    fn rejects_nonground_facts() {
        assert!(Database::from_facts("e(x,2).").is_err());
    }

    #[test]
    fn one_predicate_at_two_arities_is_a_typed_error() {
        let err = Database::from_facts("e(1,2). e(1,2,3).").unwrap_err();
        assert!(
            matches!(&err, RuleError::Parse(msg) if msg.contains("e(1,2,3) has arity 3")),
            "{err}"
        );
    }

    #[test]
    fn relation_or_empty_defaults() {
        let db = Database::new();
        let r = db.relation_or_empty(Symbol::new("missing"), 3);
        assert_eq!(r.arity(), 3);
        assert!(r.is_empty());
    }

    #[test]
    fn set_relation_replaces() {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2)]));
        db.set_relation("e", Relation::from_pairs([(3, 4), (4, 5)]));
        assert_eq!(db.relation_named("e").unwrap().len(), 2);
    }

    #[test]
    fn snapshot_is_copy_on_write() {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2)]));
        let snap = db.snapshot();
        // The snapshot shares storage until the original is written.
        assert!(Arc::ptr_eq(
            &db.relation_arc(Symbol::new("e")).unwrap(),
            &snap.relation_arc(Symbol::new("e")).unwrap()
        ));
        assert!(db.insert_tuple(Symbol::new("e"), vec![Value::Int(3), Value::Int(4)]));
        assert!(!db.insert_tuple(Symbol::new("e"), vec![Value::Int(3), Value::Int(4)]));
        // Writer sees the insert; the snapshot does not.
        assert_eq!(db.relation_named("e").unwrap().len(), 2);
        assert_eq!(snap.relation_named("e").unwrap().len(), 1);
        // A relation no snapshot shares is mutated in place (no copy).
        drop(snap);
        let before = Arc::as_ptr(&db.relation_arc(Symbol::new("e")).unwrap());
        db.insert_tuple(Symbol::new("e"), vec![Value::Int(5), Value::Int(6)]);
        assert_eq!(
            before,
            Arc::as_ptr(&db.relation_arc(Symbol::new("e")).unwrap())
        );
    }

    #[test]
    fn duplicate_insert_into_a_shared_relation_does_not_copy() {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2)]));
        let snap = db.snapshot(); // shares the relation
        assert!(!db.insert_tuple(Symbol::new("e"), vec![Value::Int(1), Value::Int(2)]));
        // The no-op insert must leave the sharing intact (no deep copy).
        assert!(Arc::ptr_eq(
            &db.relation_arc(Symbol::new("e")).unwrap(),
            &snap.relation_arc(Symbol::new("e")).unwrap()
        ));
    }

    #[test]
    fn debug_lists_relations_sorted() {
        let mut db = Database::new();
        db.insert_tuple(Symbol::new("b"), vec![Value::Int(1)]);
        db.insert_tuple(Symbol::new("a"), vec![Value::Int(2)]);
        let s = format!("{db:?}");
        let a_pos = s.find("a:").unwrap();
        let b_pos = s.find("b:").unwrap();
        assert!(a_pos < b_pos);
    }
}
