//! Dense bitset execution: boolean matrix kernels and logarithmic
//! transitive closure by power doubling.
//!
//! For a **composition-shaped** rule — a binary linear recursion whose
//! body is exactly relational composition with one binary EDB atom,
//!
//! ```text
//! p(x,y) :- p(x,z), q(z,y).    (right-linear: A(P) = P ∘ q)
//! p(x,y) :- p(w,y), q(x,w).    (left-linear:  A(P) = q ∘ P)
//! ```
//!
//! the fixpoint `A*(init)` is `init ∪ init∘q⁺` (respectively
//! `init ∪ q⁺∘init`), where `q⁺` is the transitive closure of `q` — the
//! paper's `Aⁿ` power analysis made concrete: every operator power is a
//! power of the boolean adjacency matrix of `q`. Over a
//! [`DenseDomain`] remap this evaluates with word-wide kernels
//! ([`BitsetRelation`]), and the closure needs only `⌈log₂ diameter⌉`
//! squarings (`A ∪ A² ∪ A⁴ ∪ …` until no new bits) instead of one
//! semi-naive round per path length — Frühwirth's repeated recursion
//! unfolding, specialised to graphs.
//!
//! Everything here is semantics-preserving with respect to the sparse
//! driver ([`crate::seminaive::seminaive_resume`]) on the same rule (the
//! `dense_props` suite holds the two against each other); the planner
//! decides *when* it pays through the cost model's dense-budget rule.
//! Dense evaluation is from-scratch only: a `DenseClosure` plan resumes
//! ([`crate::planner::Plan::resume`]) through the sparse driver.

use crate::stats::EvalStats;
use linrec_datalog::{BitsetRelation, Database, DenseDomain, LinearRule, Relation, Symbol, Term};
use std::sync::Arc;

/// Default byte budget for the dense working set (three `domain × words`
/// matrices: operand, accumulator, scratch) when no cost model supplies
/// one — what a hand-built [`crate::planner::Plan`] carries.
/// Planner-driven execution threads
/// [`crate::planner::CostModel::dense_budget_bytes`] instead.
pub const DEFAULT_DENSE_BUDGET_BYTES: usize = 64 << 20;

/// Which side of the recursive atom the EDB relation composes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompositionSide {
    /// `p(x,y) :- p(x,z), q(z,y)` — the fixpoint is `init ∘ q*`.
    Right,
    /// `p(x,y) :- p(w,y), q(x,w)` — the fixpoint is `q* ∘ init`.
    Left,
}

/// The license for dense evaluation: the rule *is* relational composition
/// with one binary EDB predicate, so operator powers are matrix powers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompositionShape {
    /// The composed EDB predicate.
    pub edge: Symbol,
    /// Which side it composes on.
    pub side: CompositionSide,
}

impl CompositionShape {
    /// Why the shape licenses the dense plan (the certificate text a
    /// decision record quotes).
    pub fn rationale(&self) -> String {
        format!(
            "the rule is relational composition with '{}', so operator powers are \
             boolean matrix powers and the closure runs by repeated squaring",
            self.edge
        )
    }
}

/// Recognize a composition-shaped rule: binary head `p(x,y)` with two
/// distinct variables, a recursive atom sharing exactly the persistent
/// head variable, and exactly one binary nonrecursive atom threading the
/// fresh middle variable to the other head variable. Constants anywhere
/// disqualify the rule. This syntactic check is the dense license — for
/// such a rule, `Aⁿ(init)` is literally `init ∘ qⁿ` (or `qⁿ ∘ init`),
/// which is what lets the closure run as repeated matrix squaring.
pub fn composition_shape(rule: &LinearRule) -> Option<CompositionShape> {
    if rule.arity() != 2 {
        return None;
    }
    let head = rule.head();
    let rec = rule.rec_atom();
    let [q] = rule.nonrec_atoms() else {
        return None;
    };
    if q.arity() != 2 {
        return None;
    }
    let (Term::Var(hx), Term::Var(hy)) = (&head.terms[0], &head.terms[1]) else {
        return None;
    };
    if hx == hy {
        return None;
    }
    let (r0, r1) = (&rec.terms[0], &rec.terms[1]);
    let (q0, q1) = (&q.terms[0], &q.terms[1]);
    // Right-linear: rec = p(hx, z), q = q(z, hy), z fresh.
    if let (Term::Var(rx), Term::Var(z)) = (r0, r1) {
        if rx == hx && z != hx && z != hy && *q0 == Term::Var(*z) && *q1 == Term::Var(*hy) {
            return Some(CompositionShape {
                edge: q.pred,
                side: CompositionSide::Right,
            });
        }
    }
    // Left-linear: rec = p(w, hy), q = q(hx, w), w fresh.
    if let (Term::Var(w), Term::Var(ry)) = (r0, r1) {
        if ry == hy && w != hx && w != hy && *q0 == Term::Var(*hx) && *q1 == Term::Var(*w) {
            return Some(CompositionShape {
                edge: q.pred,
                side: CompositionSide::Left,
            });
        }
    }
    None
}

/// Instrumented boolean matrix product `a ∘ b` (see
/// [`BitsetRelation::compose`]): one `linrec_engine_dense_compose_ns` /
/// `linrec_engine_dense_words` sample per call.
pub fn compose(a: &BitsetRelation, b: &BitsetRelation) -> BitsetRelation {
    let start = linrec_obs::enabled().then(std::time::Instant::now);
    let out = a.compose(b);
    if let Some(t) = start {
        linrec_obs::histogram!("linrec_engine_dense_compose_ns")
            .observe(t.elapsed().as_nanos() as u64);
        linrec_obs::histogram!("linrec_engine_dense_words").observe(a.total_words() as u64);
    }
    out
}

/// The boolean matrix square `a ∘ a`.
pub fn square(a: &BitsetRelation) -> BitsetRelation {
    compose(a, a)
}

/// Transitive closure by power doubling: iterate `T ← T ∪ T²` until no
/// new bits. After `k` rounds `T` holds every path of length `≤ 2ᵏ`, so
/// the loop runs `⌈log₂ diameter⌉ + 1` times. [`EvalStats`] counters come
/// from popcount deltas: each squaring is one application whose *derived*
/// count is the square's popcount and whose *new* count is the union's
/// popcount delta — same accounting the sparse semi-naive path reports,
/// so downstream estimate/actual feedback stays meaningful.
pub fn closure_by_squaring(a: &BitsetRelation) -> (BitsetRelation, EvalStats) {
    let mut sp = linrec_obs::span("dense.closure");
    let mut total = a.clone();
    let mut stats = EvalStats::default();
    loop {
        stats.iterations += 1;
        let sq = square(&total);
        let derived = sq.len();
        let new = total.or_assign(&sq);
        stats.record(derived, new);
        if new == 0 {
            break;
        }
    }
    stats.tuples = total.len() as usize;
    if linrec_obs::enabled() {
        linrec_obs::counter!("linrec_engine_dense_closures_total").inc();
        sp.attr("domain", total.domain().len());
        sp.attr("words", total.total_words());
        sp.attr("bits", stats.tuples);
        sp.attr("squarings", stats.applications);
    }
    (total, stats)
}

/// The operands of a dense evaluation: the seed and EDB relation
/// densified over one shared domain. `None` when the shapes cannot
/// densify (non-binary seed, or EDB stored at a different arity — the
/// join treats the latter as matching nothing, so the dense side uses an
/// empty matrix the same way), or when three `domain × words` matrices
/// would exceed `budget_bytes`.
///
/// Order matters here: the [`DenseDomain`] (input-proportional — a
/// sorted value list plus its inverse map) is built first, the byte
/// budget is checked against it, and only then are the `domain²`-bit
/// adjacency matrices allocated. Checking after allocation would defeat
/// the budget's purpose — a large runtime domain would OOM the process
/// on the very matrices the budget exists to refuse, instead of taking
/// the graceful sparse fallback.
fn densify(
    shape: &CompositionShape,
    db: &Database,
    init: &Relation,
    budget_bytes: usize,
) -> Option<(BitsetRelation, BitsetRelation)> {
    if init.arity() != 2 {
        return None;
    }
    let empty = Relation::new(2);
    let edge = match db.relation(shape.edge) {
        Some(rel) if rel.arity() == 2 => rel,
        _ => &empty,
    };
    let domain = Arc::new(DenseDomain::from_relations([init, edge]));
    if domain.matrix_bytes().saturating_mul(3) > budget_bytes {
        return None;
    }
    let a = BitsetRelation::from_relation(init, Arc::clone(&domain)).ok()?;
    let e = BitsetRelation::from_relation(edge, Arc::clone(&domain)).ok()?;
    Some((a, e))
}

/// Evaluate the fixpoint of a composition-shaped rule densely:
/// `init ∪ init∘q⁺` (right-linear) or `init ∪ q⁺∘init` (left-linear),
/// converted back to a flat-arena [`Relation`] at the boundary. Returns
/// `None` when densification is not possible or the working set exceeds
/// `budget_bytes` (three `domain × words` matrices; checked before any
/// matrix allocation) — callers fall back to the sparse semi-naive path.
pub fn eval_composition(
    shape: &CompositionShape,
    db: &Database,
    init: &Relation,
    budget_bytes: usize,
) -> Option<(Relation, EvalStats)> {
    let (mut a, e) = densify(shape, db, init, budget_bytes)?;
    let (closure, mut stats) = closure_by_squaring(&e);
    let image = match shape.side {
        CompositionSide::Right => compose(&a, &closure),
        CompositionSide::Left => compose(&closure, &a),
    };
    let derived = image.len();
    let new = a.or_assign(&image);
    stats.record(derived, new);
    let relation = a.to_relation();
    stats.tuples = relation.len();
    Some((relation, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules;
    use crate::seminaive::seminaive_star;
    use linrec_datalog::parse_linear_rule;
    use linrec_testkit as workload;

    #[test]
    fn shape_recognizes_both_linear_forms_and_rejects_the_rest() {
        let right = rules::tc_right();
        let left = rules::tc_left();
        assert_eq!(
            composition_shape(&right).map(|s| s.side),
            Some(CompositionSide::Right)
        );
        assert_eq!(
            composition_shape(&left).map(|s| s.side),
            Some(CompositionSide::Left)
        );
        for bad in [
            "p(x,y) :- p(x,z), q(y,z).",         // transposed edge
            "p(x,y) :- p(x,y), q(z,z).",         // disconnected edge
            "p(x,y) :- p(x,z), q(z,w), r(w,y).", // two-hop body
            "p(x,y) :- p(x,z), q(z,y), r(z).",   // extra guard atom
            "p(x,x) :- p(x,z), q(z,x).",         // repeated head variable
            "p(x,y,u) :- p(x,z,u), q(z,y).",     // arity 3
        ] {
            let rule = parse_linear_rule(bad).unwrap();
            assert!(composition_shape(&rule).is_none(), "{bad}");
        }
    }

    #[test]
    fn closure_matches_seminaive_on_a_chain_and_a_cycle() {
        for edges in [workload::chain(40), workload::cycle(17)] {
            let db = workload::graph_db("q", edges.clone());
            let rule = rules::tc_right();
            let shape = composition_shape(&rule).unwrap();
            let (dense_rel, dense_stats) =
                eval_composition(&shape, &db, &edges, DEFAULT_DENSE_BUDGET_BYTES).unwrap();
            let (sparse_rel, _) = seminaive_star(&[rule], &db, &edges);
            assert_eq!(dense_rel.sorted(), sparse_rel.sorted());
            assert_eq!(dense_stats.tuples, sparse_rel.len());
            assert!(dense_stats.derivations >= dense_stats.tuples as u64 / 2);
        }
    }

    #[test]
    fn left_linear_composes_on_the_other_side() {
        let edges = workload::chain(12);
        let db = workload::graph_db("q", edges.clone());
        let init = Relation::from_pairs([(11, 12)]);
        let rule = rules::tc_left();
        let shape = composition_shape(&rule).unwrap();
        let (dense_rel, _) =
            eval_composition(&shape, &db, &init, DEFAULT_DENSE_BUDGET_BYTES).unwrap();
        let (sparse_rel, _) = seminaive_star(&[rule], &db, &init);
        assert_eq!(dense_rel.sorted(), sparse_rel.sorted());
    }

    #[test]
    fn budget_overflow_falls_back() {
        let edges = workload::chain(100);
        let db = workload::graph_db("q", edges.clone());
        let shape = composition_shape(&rules::tc_right()).unwrap();
        assert!(eval_composition(&shape, &db, &edges, 64).is_none());
    }

    #[test]
    fn budget_check_precedes_matrix_allocation_on_wide_domains() {
        // 100k+1 distinct values: one adjacency matrix alone would be
        // ~1.2 GiB, far past the 64 MiB default budget. The decline must
        // come from the domain size alone — if the gate ever moves back
        // behind the matrix allocations, this test balloons to gigabytes
        // of transient memory instead of returning in microseconds.
        let edges = workload::chain(100_000);
        let db = workload::graph_db("q", edges.clone());
        let shape = composition_shape(&rules::tc_right()).unwrap();
        assert!(eval_composition(&shape, &db, &edges, DEFAULT_DENSE_BUDGET_BYTES).is_none());
    }

    #[test]
    fn missing_or_misshapen_edge_relation_is_the_empty_matrix() {
        let rule = rules::tc_right();
        let shape = composition_shape(&rule).unwrap();
        let init = Relation::from_pairs([(1, 2), (2, 3)]);
        // No `q` at all.
        let db = Database::new();
        let (dense_rel, _) =
            eval_composition(&shape, &db, &init, DEFAULT_DENSE_BUDGET_BYTES).unwrap();
        let (sparse_rel, _) = seminaive_star(std::slice::from_ref(&rule), &db, &init);
        assert_eq!(dense_rel.sorted(), sparse_rel.sorted());
        // `q` stored at arity 3: the join matches nothing; so must we.
        let mut db = Database::new();
        db.set_relation(
            "q",
            Relation::from_tuples(
                3,
                [vec![
                    linrec_datalog::Value::Int(1),
                    linrec_datalog::Value::Int(2),
                    linrec_datalog::Value::Int(3),
                ]],
            ),
        );
        let (dense_rel, _) =
            eval_composition(&shape, &db, &init, DEFAULT_DENSE_BUDGET_BYTES).unwrap();
        let (sparse_rel, _) = seminaive_star(std::slice::from_ref(&rule), &db, &init);
        assert_eq!(dense_rel.sorted(), sparse_rel.sorted());
    }
}
