//! Conjunctive joins: applying one rule body to concrete relations.
//!
//! A linear operator application `A(P)` evaluates the rule body as a
//! backtracking join. The recursive atom is matched first (its relation is
//! the small delta in semi-naive evaluation); the trailing atoms are
//! reordered once per application by estimated selectivity and matched
//! through per-column hash indexes over arena row ids.
//!
//! # Index lifecycle
//!
//! [`Indexes`] is the scan/index cache. The EDB never changes during a
//! fixpoint computation, so each trailing-atom relation is materialized
//! into the cache **once** per fixpoint (a single flat copy of the
//! relation's arena — see `linrec_datalog::relation` for the layout), and
//! per-column hash indexes are built over **row ids** into that arena
//! rather than cloned tuples. Rounds of the fixpoint reuse both; nothing
//! about the EDB is re-scanned, re-cloned, or re-hashed after the first
//! round. A fresh fixpoint (new `Indexes`) starts empty.
//!
//! Since the incremental-view service reuses one `Indexes` **across**
//! fixpoints while the EDB grows between batches, every cached scan
//! remembers the [`Relation::version`] it was built from and is
//! revalidated on each operator application: a version mismatch rebuilds
//! that relation's scan and indexes (and the affected join plans) before
//! any row is served. Relations untouched by a batch keep their cache —
//! that is the point of sharing the cache across batches. Versions are
//! globally unique per mutation, so revalidation is a single integer
//! compare and can never serve stale rows.
//!
//! Column indexes are only built for columns that can ever hold a bound
//! value when the atom is matched: a column whose term is a variable that
//! occurs in no *other* body atom can never be bound at probe time (the
//! join binds variables strictly left-to-right across atoms), so indexing
//! it would be wasted work. The runtime falls back to a linear arena scan
//! for un-indexed columns — the per-tuple `match_tuple` check re-verifies
//! every column, so indexes are purely a candidate filter and never affect
//! the result.
//!
//! # Atom ordering
//!
//! Before descending, the trailing atoms are ordered greedily by estimated
//! selectivity: starting from the variables bound by the recursive atom,
//! repeatedly pick the atom whose first bound column has the smallest
//! expected index bucket (`rows / distinct keys`), atoms with no bound
//! column scoring their full row count. This keeps the candidate sets small
//! early, which shrinks the whole search tree; it changes only enumeration
//! order, never the set of matches or the derivation count.
//!
//! # Parallel rounds: prepare, then probe
//!
//! All cache mutation (scan revalidation, column-index building, join-plan
//! computation) happens in `prepare_rules`, on one thread, before a
//! parallel fixpoint round starts. After that, the round's workers share
//! the cache **read-only** through `apply_linear_rows`: `Indexes` is
//! plain data (`Sync`), the database is frozen for the round, and a probe
//! never writes — so one `Indexes` built once serves every shard of every
//! rule concurrently. The sequential path ([`apply_linear`]) keeps doing
//! both steps per application, which is cheaper when there is nothing to
//! fan out.

use linrec_datalog::hash::{FastMap, FastSet};
use linrec_datalog::{Atom, Database, LinearRule, Relation, Symbol, Term, Value, Var};

/// Per-predicate scan/index cache. Valid across fixpoints: every cached
/// scan is revalidated against its relation's content version on each
/// operator application and rebuilt when the relation changed. See the
/// module docs for lifecycle.
#[derive(Default)]
pub struct Indexes {
    cache: FastMap<Symbol, RelCache>,
    /// Per-body join plans (trailing-atom order), keyed by the body atoms:
    /// the order depends only on the rule text and the cached statistics,
    /// so it is computed once and recomputed only when a scan of one of
    /// the body's predicates has been rebuilt since — tracked by stamping
    /// each scan with the rebuild generation it was built at and each plan
    /// with the highest generation it observed (so a rebuild retires the
    /// plans of *every* body over that predicate, not just the body whose
    /// application happened to trigger the rebuild).
    plans: FastMap<Vec<Atom>, JoinPlan>,
    /// Monotone counter of scan (re)builds, the source of the stamps.
    generation: u64,
}

/// The scan-invariant part of one body's evaluation.
#[derive(Clone)]
struct JoinPlan {
    /// Trailing-atom match order (indices into the body, all ≥ 1).
    order: Vec<usize>,
    /// Highest scan rebuild generation among the body's predicates when
    /// the plan was computed; a scan with a newer stamp retires the plan.
    generation: u64,
}

/// One cached relation: a flat snapshot of its arena plus lazily built
/// per-column indexes of row ids.
struct RelCache {
    arity: usize,
    /// Row-major copy of the relation's arena (one `memcpy` at build time).
    arena: Vec<Value>,
    rows: usize,
    /// [`Relation::version`] the snapshot was taken at (0 for a predicate
    /// that was missing from the database).
    version: u64,
    /// [`Indexes::generation`] at which this scan was (re)built.
    built_at: u64,
    /// `cols[c]` maps a value to the row ids holding it in column `c`;
    /// `None` while unbuilt (never-bindable or not yet requested).
    cols: Vec<Option<FastMap<Value, Vec<u32>>>>,
}

impl RelCache {
    fn of(rel: &Relation, built_at: u64) -> RelCache {
        debug_assert_eq!(
            rel.flat().len(),
            rel.len() * rel.arity(),
            "relation arena must be exactly len()*arity values at snapshot time"
        );
        RelCache {
            arity: rel.arity(),
            arena: rel.flat().to_vec(),
            rows: rel.len(),
            version: rel.version(),
            built_at,
            cols: (0..rel.arity()).map(|_| None).collect(),
        }
    }

    fn missing(arity: usize, built_at: u64) -> RelCache {
        RelCache {
            arity,
            arena: Vec::new(),
            rows: 0,
            version: 0,
            built_at,
            cols: (0..arity).map(|_| None).collect(),
        }
    }

    fn row(&self, r: u32) -> &[Value] {
        let start = r as usize * self.arity;
        &self.arena[start..start + self.arity]
    }

    fn build_col(&mut self, col: usize) {
        if self.cols[col].is_some() {
            return;
        }
        if linrec_obs::enabled() {
            crate::profile::join().col_index_builds.inc();
        }
        let mut idx: FastMap<Value, Vec<u32>> = FastMap::default();
        for r in 0..self.rows {
            idx.entry(self.arena[r * self.arity + col])
                .or_default()
                .push(r as u32);
        }
        debug_assert_eq!(
            idx.values().map(Vec::len).sum::<usize>(),
            self.rows,
            "a column index must reference every cached row exactly once"
        );
        self.cols[col] = Some(idx);
    }

    /// Row ids whose column `col` holds `val`, when that column is indexed.
    fn lookup(&self, col: usize, val: Value) -> Option<&[u32]> {
        self.cols[col]
            .as_ref()
            .map(|idx| idx.get(&val).map(|v| v.as_slice()).unwrap_or(&[]))
    }

    /// Expected candidate-set size when probing `col` bound (average index
    /// bucket), or the full row count when the column is not indexed.
    fn est_bound(&self, col: usize) -> f64 {
        match &self.cols[col] {
            Some(idx) if !idx.is_empty() => self.rows as f64 / idx.len() as f64,
            _ => self.rows as f64,
        }
    }
}

impl Indexes {
    /// Fresh empty cache (start of a fixpoint).
    pub fn new() -> Indexes {
        Indexes::default()
    }

    /// Materialize `atom`'s relation from `db`, revalidating an existing
    /// entry against the relation's content version (a mutated relation is
    /// re-scanned; an untouched one is served from cache). Returns the
    /// generation the scan was built at, or `None` when the stored
    /// relation's arity disagrees with the atom's (the atom then matches
    /// nothing). Column indexes are built separately ([`Indexes::build_cols`])
    /// and only when a join plan is (re)computed.
    fn revalidate(&mut self, atom: &Atom, db: &Database) -> Option<u64> {
        let rel = db.relation(atom.pred);
        let current_version = rel.map_or(0, |r| r.version());
        let next_gen = self.generation + 1;
        let mut built = false;
        let cache = self
            .cache
            .entry(atom.pred)
            .and_modify(|c| {
                if c.version != current_version {
                    *c = match rel {
                        Some(rel) => RelCache::of(rel, next_gen),
                        None => RelCache::missing(atom.arity(), next_gen),
                    };
                    built = true;
                }
            })
            .or_insert_with(|| {
                built = true;
                match rel {
                    Some(rel) => RelCache::of(rel, next_gen),
                    // Missing predicate: cache an empty relation of the
                    // atom's arity so later lookups stay cheap.
                    None => RelCache::missing(atom.arity(), next_gen),
                }
            });
        debug_assert_eq!(
            cache.version, current_version,
            "a revalidated scan must match the relation's content version"
        );
        let built_at = cache.built_at;
        let arity_ok = cache.arity == atom.arity();
        if built {
            self.generation = next_gen;
            if linrec_obs::enabled() {
                crate::profile::join().scan_builds.inc();
            }
        }
        arity_ok.then_some(built_at)
    }

    /// Build the column indexes flagged bindable on `pred`'s cached scan
    /// (idempotent per column).
    fn build_cols(&mut self, pred: Symbol, bindable: &[bool]) {
        let cache = self.cache.get_mut(&pred).expect("scan revalidated first");
        for (col, &b) in bindable.iter().enumerate() {
            if b {
                cache.build_col(col);
            }
        }
    }

    fn get(&self, pred: Symbol) -> &RelCache {
        &self.cache[&pred]
    }
}

/// Bindings from variables to values during a join.
type Bindings = FastMap<Var, Value>;

fn match_tuple(atom: &Atom, tuple: &[Value], bind: &mut Bindings, trail: &mut Vec<Var>) -> bool {
    let depth = trail.len();
    for (term, &val) in atom.terms.iter().zip(tuple.iter()) {
        let ok = match term {
            Term::Const(c) => *c == val,
            Term::Var(v) => match bind.get(v) {
                Some(&b) => b == val,
                None => {
                    bind.insert(*v, val);
                    trail.push(*v);
                    true
                }
            },
        };
        if !ok {
            for v in trail.drain(depth..) {
                bind.remove(&v);
            }
            return false;
        }
    }
    true
}

/// The first column of `terms` that carries a concrete value when the atom
/// is probed (a constant, or a variable `is_bound`). Shared by the join's
/// selectivity ordering and the planner's fanout estimation so the cost
/// model always ranks candidates against the probe column the engine will
/// actually use.
pub(crate) fn first_probe_col(terms: &[Term], is_bound: impl Fn(Var) -> bool) -> Option<usize> {
    terms.iter().enumerate().find_map(|(c, t)| match t {
        Term::Const(_) => Some(c),
        Term::Var(v) if is_bound(*v) => Some(c),
        Term::Var(_) => None,
    })
}

/// For each column of trailing atom `i`, can the column's value be bound
/// when the atom is probed? A constant always is; a variable only if it
/// also occurs in some *other* body atom (the recursive atom or another
/// trailing atom) — a variable private to this atom is bound, if at all,
/// only while matching the atom itself, after the candidate set was chosen.
fn bindable_columns(atoms: &[Atom], i: usize) -> Vec<bool> {
    let elsewhere: FastSet<Var> = atoms
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != i)
        .flat_map(|(_, a)| a.vars())
        .collect();
    atoms[i]
        .terms
        .iter()
        .map(|t| match t {
            Term::Const(_) => true,
            Term::Var(v) => elsewhere.contains(v),
        })
        .collect()
}

/// Greedy selectivity order for the trailing atoms: repeatedly pick the
/// atom with the cheapest estimated candidate set given the variables bound
/// so far. Returns indices into `atoms` (all ≥ 1; index 0 stays first).
fn selectivity_order(atoms: &[Atom], indexes: &Indexes) -> Vec<usize> {
    let mut bound: FastSet<Var> = atoms[0].vars().collect();
    let mut remaining: Vec<usize> = (1..atoms.len()).collect();
    let mut order = Vec::with_capacity(atoms.len() - 1);
    while !remaining.is_empty() {
        let mut best = 0usize;
        let mut best_cost = f64::INFINITY;
        for (k, &i) in remaining.iter().enumerate() {
            let atom = &atoms[i];
            let cache = indexes.get(atom.pred);
            let probe_col = first_probe_col(&atom.terms, |v| bound.contains(&v));
            let cost = match probe_col {
                Some(c) => cache.est_bound(c),
                None => cache.rows as f64, // unbound: full cross product
            };
            if cost < best_cost {
                best_cost = cost;
                best = k;
            }
        }
        let i = remaining.swap_remove(best);
        bound.extend(atoms[i].vars());
        order.push(i);
    }
    order
}

struct JoinRun<'a> {
    head: &'a Atom,
    /// Body atoms in match order: the recursive/leading atom first, then
    /// the trailing atoms in selectivity order.
    atoms: Vec<&'a Atom>,
    indexes: &'a Indexes,
    /// When set, head tuples already present here are counted as
    /// derivations but not emitted into `out` — the parallel fixpoint's
    /// workers pre-filter against the (round-frozen) total so the merge
    /// pass only sees genuinely new candidates.
    skip_known: Option<&'a Relation>,
    out: Relation,
    derivations: u64,
    scratch: Vec<Value>,
}

impl<'a> JoinRun<'a> {
    fn emit(&mut self, bind: &Bindings) {
        self.scratch.clear();
        for t in &self.head.terms {
            self.scratch.push(match t {
                Term::Const(c) => *c,
                Term::Var(v) => *bind.get(v).unwrap_or_else(|| {
                    panic!("head variable {v} unbound: rule not range-restricted over its body")
                }),
            });
        }
        self.derivations += 1;
        if let Some(known) = self.skip_known {
            if known.contains(&self.scratch) {
                return;
            }
        }
        let scratch = std::mem::take(&mut self.scratch);
        self.out.insert(&scratch);
        self.scratch = scratch;
    }

    /// Drive the join: match the leading atom against each of `rows`, then
    /// descend through the trailing atoms.
    fn run_rows<'r>(&mut self, rows: impl Iterator<Item = &'r [Value]>) {
        let mut bind: Bindings = FastMap::default();
        let mut trail: Vec<Var> = Vec::new();
        let atom = self.atoms[0];
        for t in rows {
            if match_tuple(atom, t, &mut bind, &mut trail) {
                self.descend(1, &mut bind, &mut trail);
                for v in trail.drain(..) {
                    bind.remove(&v);
                }
            }
        }
    }

    fn descend(&mut self, depth: usize, bind: &mut Bindings, trail: &mut Vec<Var>) {
        if depth == self.atoms.len() {
            self.emit(bind);
            return;
        }
        let atom: &'a Atom = self.atoms[depth];
        let marker = trail.len();
        let cache = self.indexes.get(atom.pred);
        // Candidate rows: an index bucket when a bound, indexed column
        // exists; a linear arena scan otherwise. match_tuple re-checks
        // every column, so the fallback is always sound.
        let indexed: Option<&'a [u32]> = atom
            .terms
            .iter()
            .enumerate()
            .filter_map(|(c, t)| match t {
                Term::Const(v) => Some((c, *v)),
                Term::Var(v) => bind.get(v).map(|&val| (c, val)),
            })
            .find_map(|(col, val)| cache.lookup(col, val));
        match indexed {
            Some(rows) => {
                for &r in rows {
                    if match_tuple(atom, cache.row(r), bind, trail) {
                        self.descend(depth + 1, bind, trail);
                        for v in trail.drain(marker..) {
                            bind.remove(&v);
                        }
                    }
                }
            }
            None => {
                for r in 0..cache.rows as u32 {
                    if match_tuple(atom, cache.row(r), bind, trail) {
                        self.descend(depth + 1, bind, trail);
                        for v in trail.drain(marker..) {
                            bind.remove(&v);
                        }
                    }
                }
            }
        }
    }
}

/// Apply the body `atoms` (with `atoms[0]`'s relation given explicitly as
/// `first_rel` and the rest resolved in `db`), emitting one head tuple per
/// complete match. Returns the produced relation and the number of
/// derivations (successful matches, including duplicates).
pub(crate) fn join_emit(
    head: &Atom,
    atoms: &[Atom],
    first_rel: &Relation,
    db: &Database,
    indexes: &mut Indexes,
) -> (Relation, u64) {
    // An atom whose arity disagrees with the stored relation's schema can
    // match nothing (the typeless system identifies a predicate with one
    // arity); treat it as empty rather than indexing out of bounds.
    if first_rel.arity() != atoms[0].arity() {
        return (Relation::new(head.arity()), 0);
    }
    let Some(order) = ensure_plan(atoms, db, indexes) else {
        return (Relation::new(head.arity()), 0);
    };
    let mut run = JoinRun {
        head,
        atoms: ordered_atoms(atoms, &order),
        indexes,
        skip_known: None,
        out: Relation::new(head.arity()),
        derivations: 0,
        scratch: Vec::with_capacity(head.arity()),
    };
    run.run_rows(first_rel.iter());
    (run.out, run.derivations)
}

/// Revalidate every trailing atom's scan and ensure a current join plan
/// for the body, returning the trailing-atom order (`None` when an arity
/// mismatch means the body matches nothing).
///
/// Scans are revalidated on each application (a version compare per atom
/// when nothing changed): the cache outlives a single fixpoint, so
/// relations may have been mutated since the last call. The cached atom
/// order is reused only when no scan it depends on has been rebuilt since
/// the order was computed — including rebuilds triggered by *other* bodies
/// over the same predicates.
fn ensure_plan(atoms: &[Atom], db: &Database, indexes: &mut Indexes) -> Option<Vec<usize>> {
    let mut scan_gen = 0u64;
    for a in atoms.iter().skip(1) {
        scan_gen = scan_gen.max(indexes.revalidate(a, db)?);
    }
    let order = match indexes.plans.get(atoms) {
        Some(plan) if plan.generation >= scan_gen => plan.order.clone(),
        _ => {
            // Bindable masks depend only on the rule text, so they are
            // (re)computed only here, at plan-build time, and the column
            // indexes they request are built on the freshly revalidated
            // scans before the order is estimated.
            for (i, a) in atoms.iter().enumerate().skip(1) {
                let bindable = bindable_columns(atoms, i);
                indexes.build_cols(a.pred, &bindable);
            }
            let order = selectivity_order(atoms, indexes);
            indexes.plans.insert(
                atoms.to_vec(),
                JoinPlan {
                    order: order.clone(),
                    generation: scan_gen,
                },
            );
            order
        }
    };
    Some(order)
}

fn ordered_atoms<'a>(atoms: &'a [Atom], order: &[usize]) -> Vec<&'a Atom> {
    let mut ordered: Vec<&Atom> = Vec::with_capacity(atoms.len());
    ordered.push(&atoms[0]);
    ordered.extend(order.iter().map(|&i| &atoms[i]));
    ordered
}

/// The body of a linear rule as the join machinery sees it: the recursive
/// atom first, then the trailing atoms in rule order.
fn body_atoms(rule: &LinearRule) -> Vec<Atom> {
    let mut atoms = Vec::with_capacity(1 + rule.nonrec_atoms().len());
    atoms.push(rule.rec_atom().clone());
    atoms.extend(rule.nonrec_atoms().iter().cloned());
    atoms
}

/// Prepare every rule for a round of concurrent read-only probing
/// ([`apply_linear_rows`]): revalidate all scans first, then build column
/// indexes and join plans. The two passes matter — revalidating *all*
/// predicates before planning *any* body means a rebuild triggered by a
/// later rule can never retire a plan cached moments earlier in the same
/// round, so the subsequent `&Indexes` probes always find a current plan.
///
/// Returns one flag per rule; `false` marks a rule that can derive nothing
/// this round (its recursive atom's arity disagrees with `delta_arity`, or
/// a trailing atom's arity disagrees with the stored relation).
pub(crate) fn prepare_rules(
    rules: &[LinearRule],
    delta_arity: usize,
    db: &Database,
    indexes: &mut Indexes,
) -> Vec<bool> {
    for rule in rules {
        for atom in rule.nonrec_atoms() {
            let _ = indexes.revalidate(atom, db);
        }
    }
    rules
        .iter()
        .map(|rule| {
            if rule.rec_atom().arity() != delta_arity {
                return false;
            }
            let atoms = body_atoms(rule);
            ensure_plan(&atoms, db, indexes).is_some()
        })
        .collect()
}

/// Apply one rule's body to the given outer rows through a **shared,
/// read-only** scan/index cache — the concurrent half of a parallel
/// fixpoint round. The caller must have run [`prepare_rules`] (same rules,
/// same database, same `Indexes`) since the database last changed; this
/// function then only reads the cache, so any number of workers can probe
/// it simultaneously (`Indexes` is `Sync` — it is plain data).
///
/// `skip_known` tuples are counted as derivations but not emitted, letting
/// workers pre-filter against the round-frozen total.
///
/// # Panics
/// If the body's join plan is missing from the cache (no `prepare_rules`).
pub(crate) fn apply_linear_rows<'r>(
    rule: &LinearRule,
    rows: impl Iterator<Item = &'r [Value]>,
    indexes: &Indexes,
    skip_known: Option<&Relation>,
) -> (Relation, u64) {
    let head = rule.head();
    let atoms = body_atoms(rule);
    let order = &indexes
        .plans
        .get(&atoms)
        .expect("apply_linear_rows needs prepare_rules first")
        .order;
    let mut run = JoinRun {
        head,
        atoms: ordered_atoms(&atoms, order),
        indexes,
        skip_known,
        out: Relation::new(head.arity()),
        derivations: 0,
        scratch: Vec::with_capacity(head.arity()),
    };
    run.run_rows(rows);
    (run.out, run.derivations)
}

/// The recursive-atom column to hash-partition a delta by: the first
/// position holding a variable that some trailing atom also mentions —
/// i.e. the column whose values feed the round's first index probe, so
/// rows sharing a join key land in one shard and probe the same index
/// buckets (cache locality). Falls back to column 0 when no position
/// qualifies; the choice affects only shard balance, never results (see
/// `crate::seminaive` module docs for why).
pub(crate) fn partition_col(rules: &[LinearRule]) -> usize {
    for rule in rules {
        let elsewhere: FastSet<Var> = rule.nonrec_atoms().iter().flat_map(|a| a.vars()).collect();
        for (c, t) in rule.rec_atom().terms.iter().enumerate() {
            if let Term::Var(v) = t {
                if elsewhere.contains(v) {
                    return c;
                }
            }
        }
    }
    0
}

/// Apply a linear operator once: `A(p_rel)` with nonrecursive parameters
/// taken from `db`. Returns the derived relation and the derivation count.
pub fn apply_linear(
    rule: &LinearRule,
    db: &Database,
    p_rel: &Relation,
    indexes: &mut Indexes,
) -> (Relation, u64) {
    let atoms = body_atoms(rule);
    join_emit(rule.head(), &atoms, p_rel, db, indexes)
}

/// Evaluate a plain nonrecursive rule over `db` (used by view maintenance's
/// delta rules). The first body atom's relation is resolved in `db` as well.
pub fn apply_flat(
    rule: &linrec_datalog::Rule,
    db: &Database,
    indexes: &mut Indexes,
) -> (Relation, u64) {
    assert!(!rule.body.is_empty(), "flat rule needs a body");
    let fallback;
    let first_rel = match db.relation(rule.body[0].pred) {
        Some(rel) => rel,
        None => {
            fallback = Relation::new(rule.body[0].arity());
            &fallback
        }
    };
    join_emit(&rule.head, &rule.body, first_rel, db, indexes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrec_datalog::parse_linear_rule;

    #[test]
    fn single_step_application() {
        let r = parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap();
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2), (2, 3)]));
        let p = Relation::from_pairs([(0, 1)]);
        let mut idx = Indexes::new();
        let (out, derivs) = apply_linear(&r, &db, &p, &mut idx);
        assert_eq!(out.sorted(), Relation::from_pairs([(0, 2)]).sorted());
        assert_eq!(derivs, 1);
    }

    #[test]
    fn derivations_count_duplicates() {
        // Two z-paths produce the same head tuple: 2 derivations, 1 tuple.
        let r = parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap();
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 9), (2, 9)]));
        let p = Relation::from_pairs([(0, 1), (0, 2)]);
        let (out, derivs) = apply_linear(&r, &db, &p, &mut Indexes::new());
        assert_eq!(out.len(), 1);
        assert_eq!(derivs, 2);
    }

    #[test]
    fn filters_with_unary_atoms() {
        let r = parse_linear_rule("p(x,y) :- p(x,y), good(y).").unwrap();
        let mut db = Database::new();
        db.set_relation("good", Relation::from_tuples(1, [vec![Value::Int(2)]]));
        let p = Relation::from_pairs([(1, 2), (1, 3)]);
        let (out, _) = apply_linear(&r, &db, &p, &mut Indexes::new());
        assert_eq!(out.sorted(), Relation::from_pairs([(1, 2)]).sorted());
    }

    #[test]
    fn constants_in_body_restrict() {
        let r = parse_linear_rule("p(x,y) :- p(x,z), e(z,y), anchor(x, 7).").unwrap();
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2)]));
        db.set_relation("anchor", Relation::from_pairs([(0, 7), (5, 8)]));
        let p = Relation::from_pairs([(0, 1), (5, 1)]);
        let (out, _) = apply_linear(&r, &db, &p, &mut Indexes::new());
        assert_eq!(out.sorted(), Relation::from_pairs([(0, 2)]).sorted());
    }

    #[test]
    fn missing_edb_relation_is_empty() {
        let r = parse_linear_rule("p(x,y) :- p(x,z), nothere(z,y).").unwrap();
        let db = Database::new();
        let p = Relation::from_pairs([(0, 1)]);
        let (out, derivs) = apply_linear(&r, &db, &p, &mut Indexes::new());
        assert!(out.is_empty());
        assert_eq!(derivs, 0);
    }

    #[test]
    fn repeated_variables_in_atoms() {
        let r = parse_linear_rule("p(x,y) :- p(x,y), loop(y,y).").unwrap();
        let mut db = Database::new();
        db.set_relation("loop", Relation::from_pairs([(2, 2), (3, 4)]));
        let p = Relation::from_pairs([(1, 2), (1, 3)]);
        let (out, _) = apply_linear(&r, &db, &p, &mut Indexes::new());
        assert_eq!(out.sorted(), Relation::from_pairs([(1, 2)]).sorted());
    }

    #[test]
    fn flat_rule_evaluation() {
        let rule = linrec_datalog::parse_rule("m(z) :- m0(x), e(x,z).").unwrap();
        let mut db = Database::new();
        db.set_relation("m0", Relation::from_tuples(1, [vec![Value::Int(1)]]));
        db.set_relation("e", Relation::from_pairs([(1, 2), (1, 3), (9, 9)]));
        let (out, derivs) = apply_flat(&rule, &db, &mut Indexes::new());
        assert_eq!(out.len(), 2);
        assert_eq!(derivs, 2);
    }

    #[test]
    fn cartesian_product_when_unconnected() {
        let r = parse_linear_rule("p(x,y) :- p(x,w), a(y).").unwrap();
        let mut db = Database::new();
        db.set_relation(
            "a",
            Relation::from_tuples(1, [vec![Value::Int(7)], vec![Value::Int(8)]]),
        );
        let p = Relation::from_pairs([(1, 1), (2, 2)]);
        let (out, derivs) = apply_linear(&r, &db, &p, &mut Indexes::new());
        assert_eq!(out.len(), 4);
        assert_eq!(derivs, 4);
    }

    #[test]
    fn reuse_across_rounds_matches_fresh_indexes() {
        // The cache must serve the same answers on round 2 as a fresh build.
        let r = parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap();
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2), (2, 3), (3, 4)]));
        let mut idx = Indexes::new();
        let p1 = Relation::from_pairs([(0, 1)]);
        let (out1, _) = apply_linear(&r, &db, &p1, &mut idx);
        let (out2_cached, d2c) = apply_linear(&r, &db, &out1, &mut idx);
        let (out2_fresh, d2f) = apply_linear(&r, &db, &out1, &mut Indexes::new());
        assert_eq!(out2_cached.sorted(), out2_fresh.sorted());
        assert_eq!(d2c, d2f);
    }

    #[test]
    fn private_variable_columns_are_not_indexed() {
        // In p(x,y) :- p(x,w), a(y): `y` occurs only in `a` (and the head),
        // so a's single column must never get an index; the full scan
        // fallback still enumerates the cross product.
        let r = parse_linear_rule("p(x,y) :- p(x,w), a(y).").unwrap();
        let mut db = Database::new();
        db.set_relation("a", Relation::from_tuples(1, [vec![Value::Int(7)]]));
        let p = Relation::from_pairs([(1, 1)]);
        let mut idx = Indexes::new();
        let (out, _) = apply_linear(&r, &db, &p, &mut idx);
        assert_eq!(out.len(), 1);
        let cache = idx.get(linrec_datalog::Symbol::new("a"));
        assert!(cache.cols.iter().all(|c| c.is_none()));
    }

    #[test]
    fn stale_cache_is_rebuilt_when_relation_changes_between_fixpoints() {
        // Regression for cross-fixpoint cache reuse (the service keeps one
        // `Indexes` across maintenance batches): after the EDB relation
        // grows, the next application must serve from a rebuilt scan, not
        // the stale one.
        let r = parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap();
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2)]));
        let p = Relation::from_pairs([(0, 1)]);
        let mut idx = Indexes::new();
        let (out1, _) = apply_linear(&r, &db, &p, &mut idx);
        assert_eq!(out1.sorted(), Relation::from_pairs([(0, 2)]).sorted());
        let stale_version = idx.get(Symbol::new("e")).version;

        // Mutate the relation between fixpoints (insert + full replace).
        db.insert_tuple(Symbol::new("e"), vec![Value::Int(1), Value::Int(5)]);
        let (out2, derivs2) = apply_linear(&r, &db, &p, &mut idx);
        assert_eq!(
            out2.sorted(),
            Relation::from_pairs([(0, 2), (0, 5)]).sorted(),
            "stale index served rows from before the insert"
        );
        assert_eq!(derivs2, 2);
        let cache = idx.get(Symbol::new("e"));
        assert_ne!(cache.version, stale_version, "scan was not rebuilt");
        assert_eq!(cache.rows, 2);

        db.set_relation("e", Relation::from_pairs([(1, 7)]));
        let (out3, _) = apply_linear(&r, &db, &p, &mut idx);
        assert_eq!(out3.sorted(), Relation::from_pairs([(0, 7)]).sorted());
        assert_eq!(idx.get(Symbol::new("e")).rows, 1);
    }

    #[test]
    fn sibling_bodies_retire_their_plans_after_a_shared_rebuild() {
        // Two rules join against the same predicate. When a batch mutates
        // it, *both* bodies' cached atom orders must be recomputed — not
        // only the one whose application happened to trigger the scan
        // rebuild (the other would otherwise keep an order based on stale
        // statistics forever).
        let r1 = parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap();
        let r2 = parse_linear_rule("p(x,y) :- p(z,x), e(z,y).").unwrap();
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2)]));
        let p = Relation::from_pairs([(0, 1)]);
        let mut idx = Indexes::new();
        apply_linear(&r1, &db, &p, &mut idx);
        apply_linear(&r2, &db, &p, &mut idx);
        let plan_gen = |idx: &Indexes, r: &LinearRule| {
            let mut atoms = vec![r.rec_atom().clone()];
            atoms.extend(r.nonrec_atoms().iter().cloned());
            idx.plans[&atoms].generation
        };
        let g1 = plan_gen(&idx, &r1);
        let g2 = plan_gen(&idx, &r2);

        db.insert_tuple(Symbol::new("e"), vec![Value::Int(2), Value::Int(3)]);
        // r1's application observes the rebuild; r2's must still see it.
        apply_linear(&r1, &db, &p, &mut idx);
        apply_linear(&r2, &db, &p, &mut idx);
        assert!(plan_gen(&idx, &r1) > g1, "r1's plan not recomputed");
        assert!(
            plan_gen(&idx, &r2) > g2,
            "r2's plan kept stale statistics after the shared scan rebuilt"
        );
    }

    #[test]
    fn predicate_appearing_after_first_fixpoint_is_picked_up() {
        // The service creates relations on first insert: a predicate that
        // was missing (cached as empty) must be re-scanned once it exists.
        let r = parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap();
        let mut db = Database::new();
        let p = Relation::from_pairs([(0, 1)]);
        let mut idx = Indexes::new();
        let (out, _) = apply_linear(&r, &db, &p, &mut idx);
        assert!(out.is_empty());
        db.set_relation("e", Relation::from_pairs([(1, 3)]));
        let (out, _) = apply_linear(&r, &db, &p, &mut idx);
        assert_eq!(out.sorted(), Relation::from_pairs([(0, 3)]).sorted());
    }

    #[test]
    fn prepared_row_application_matches_apply_linear() {
        let r = parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap();
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2), (2, 3), (3, 4)]));
        let p = Relation::from_pairs([(0, 1), (0, 2), (9, 3)]);
        let mut idx = Indexes::new();
        let flags = prepare_rules(std::slice::from_ref(&r), p.arity(), &db, &mut idx);
        assert_eq!(flags, vec![true]);
        let (rows_out, rows_d) = apply_linear_rows(&r, p.iter(), &idx, None);
        let (seq_out, seq_d) = apply_linear(&r, &db, &p, &mut Indexes::new());
        assert_eq!(rows_out.sorted(), seq_out.sorted());
        assert_eq!(rows_d, seq_d);
    }

    #[test]
    fn row_application_over_a_partition_is_additive() {
        // The union of per-shard outputs equals the whole-delta output, and
        // derivation counts add up — the invariant the parallel round's
        // merge relies on.
        use linrec_datalog::ShardView;
        use std::sync::Arc;
        let r = parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap();
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs((0..20).map(|i| (i, i + 1))));
        let p = Arc::new(Relation::from_pairs((0..20).map(|i| (0, i))));
        let mut idx = Indexes::new();
        prepare_rules(std::slice::from_ref(&r), p.arity(), &db, &mut idx);
        let (whole, whole_d) = apply_linear_rows(&r, p.iter(), &idx, None);
        let mut merged = Relation::new(2);
        let mut merged_d = 0;
        for shard in ShardView::partition(&p, partition_col(std::slice::from_ref(&r)), 3) {
            let (out, d) = apply_linear_rows(&r, shard.iter(), &idx, None);
            merged.union_in_place(&out);
            merged_d += d;
        }
        assert_eq!(merged.sorted(), whole.sorted());
        assert_eq!(merged_d, whole_d);
    }

    #[test]
    fn skip_known_counts_derivations_but_drops_tuples() {
        let r = parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap();
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2), (1, 3)]));
        let p = Relation::from_pairs([(0, 1)]);
        let mut idx = Indexes::new();
        prepare_rules(std::slice::from_ref(&r), p.arity(), &db, &mut idx);
        let known = Relation::from_pairs([(0, 2)]);
        let (out, derivs) = apply_linear_rows(&r, p.iter(), &idx, Some(&known));
        assert_eq!(out.sorted(), Relation::from_pairs([(0, 3)]).sorted());
        assert_eq!(derivs, 2, "filtered tuples still count as derivations");
    }

    #[test]
    fn prepare_flags_arity_mismatches() {
        let rules = vec![
            parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap(),
            parse_linear_rule("p(x,y) :- p(x,z), e(w,u,z).").unwrap(), // e at arity 3
        ];
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2)]));
        let mut idx = Indexes::new();
        assert_eq!(prepare_rules(&rules, 2, &db, &mut idx), vec![true, false]);
        // A delta of the wrong arity disables every rule.
        assert_eq!(prepare_rules(&rules, 3, &db, &mut idx), vec![false, false]);
    }

    #[test]
    fn partition_col_tracks_the_probe_position() {
        let right = parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap();
        assert_eq!(partition_col(std::slice::from_ref(&right)), 1); // z feeds the probe
        let left = parse_linear_rule("p(x,y) :- p(w,y), e(x,w).").unwrap();
        assert_eq!(partition_col(std::slice::from_ref(&left)), 0); // w does
        let none = parse_linear_rule("p(x,y) :- p(x,y), a(u).").unwrap();
        assert_eq!(partition_col(std::slice::from_ref(&none)), 0); // fallback
    }

    #[test]
    fn selectivity_order_prefers_small_buckets() {
        // big(z,u) fans out 100-wide per z; tiny(z,y) is 1:1. The greedy
        // order must probe tiny first regardless of textual order.
        let r = parse_linear_rule("p(x,y) :- p(x,z), big(z,u), tiny(z,y).").unwrap();
        let mut db = Database::new();
        let mut big = Relation::new(2);
        for u in 0..100 {
            big.insert([Value::Int(1), Value::Int(u)]);
        }
        db.set_relation("big", big);
        db.set_relation("tiny", Relation::from_pairs([(1, 5)]));
        let p = Relation::from_pairs([(0, 1)]);
        let mut idx = Indexes::new();
        let mut atoms = vec![r.rec_atom().clone()];
        atoms.extend(r.nonrec_atoms().iter().cloned());
        for (i, a) in atoms.iter().enumerate().skip(1) {
            let bindable = bindable_columns(&atoms, i);
            idx.revalidate(a, &db).expect("arity matches");
            idx.build_cols(a.pred, &bindable);
        }
        let order = selectivity_order(&atoms, &idx);
        assert_eq!(order[0], 2, "tiny (atom 2) must be probed first");
        let (out, derivs) = apply_linear(&r, &db, &p, &mut idx);
        assert_eq!(out.sorted(), Relation::from_pairs([(0, 5)]).sorted());
        // 100 matches regardless of order (join cardinality is invariant).
        assert_eq!(derivs, 100);
    }
}
