//! Dense bitset storage for binary relations.
//!
//! A low-domain binary relation is a boolean adjacency matrix, and the
//! engine's linear-recursion hot loops (compose, union, fixpoint) become
//! word-wide bit kernels over it: one `u64` holds 64 adjacency cells, a
//! row is a handful of contiguous words, and AND/OR/popcount replace the
//! hash probes of the flat-arena [`Relation`]. The remap is explicit: a
//! [`DenseDomain`] interns every [`Value`] appearing in the participating
//! relations to a dense id `0..n`, all [`BitsetRelation`]s built over one
//! domain share the same id space, and conversion back through
//! [`Relation::from_dense_rows`] is lossless (a bitset is a set dump —
//! duplicate-free by construction).
//!
//! The intended scale is `n²` *bits* fitting a memory budget the caller
//! checks before converting (see the engine's cost model); within that
//! budget a compose touches `set-bits × words-per-row` words instead of
//! performing one hash probe per candidate pair.

use crate::hash::FastMap;
use crate::relation::Relation;
use crate::term::Value;
use std::sync::Arc;

/// The dense value universe a family of [`BitsetRelation`]s shares:
/// a sorted, duplicate-free list of [`Value`]s and the inverse map from
/// value to dense id. Sorting makes the remap canonical — two domains
/// built from the same value set are identical, and conversions back to
/// [`Relation`] enumerate rows in a deterministic order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseDomain {
    values: Vec<Value>,
    ids: FastMap<Value, u32>,
}

impl DenseDomain {
    /// Build the domain covering every value of every column of the given
    /// binary relations (relations of other arities contribute nothing —
    /// callers pass exactly the operands they are about to densify).
    pub fn from_relations<'a>(rels: impl IntoIterator<Item = &'a Relation>) -> DenseDomain {
        let mut values: Vec<Value> = Vec::new();
        for rel in rels {
            if rel.arity() == 2 {
                values.extend_from_slice(rel.flat());
            }
        }
        values.sort_unstable();
        values.dedup();
        let ids = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        DenseDomain { values, ids }
    }

    /// Number of distinct values in the domain.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True iff the domain holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The dense id of `v`, if `v` belongs to the domain.
    pub fn id(&self, v: Value) -> Option<u32> {
        self.ids.get(&v).copied()
    }

    /// The value interned at dense id `id`.
    pub fn value(&self, id: u32) -> Value {
        self.values[id as usize]
    }

    /// Words per adjacency row for this domain size.
    pub fn words(&self) -> usize {
        self.values.len().div_ceil(64)
    }

    /// Bytes one full adjacency matrix over this domain occupies
    /// (saturating: a domain too large to even size stays `usize::MAX`
    /// rather than wrapping past a caller's byte budget).
    pub fn matrix_bytes(&self) -> usize {
        self.len().saturating_mul(self.words()).saturating_mul(8)
    }
}

/// A binary relation as a dense adjacency matrix: row `i` is
/// [`DenseDomain::words`] contiguous `u64`s whose bit `j` means the pair
/// `(value(i), value(j))` is present. All operands of a kernel must share
/// one [`DenseDomain`]: every binary kernel ([`BitsetRelation::compose`],
/// [`BitsetRelation::or_assign`], [`BitsetRelation::and`]) **panics** —
/// in release builds too — when its operands' domains differ. Dense ids
/// decode through the domain's value table, so mixing domains would not
/// merely be out of contract, it would silently produce wrong pairs; the
/// check is one `Arc` pointer compare in the common case.
#[derive(Debug, Clone)]
pub struct BitsetRelation {
    domain: Arc<DenseDomain>,
    words: usize,
    bits: Vec<u64>,
}

impl BitsetRelation {
    /// The empty relation over `domain`.
    pub fn empty(domain: Arc<DenseDomain>) -> BitsetRelation {
        let n = domain.len();
        let words = domain.words();
        BitsetRelation {
            domain,
            words,
            bits: vec![0u64; n * words],
        }
    }

    /// Densify a binary [`Relation`] over `domain`. Errors when the
    /// relation is not binary or mentions a value outside the domain
    /// (build the domain with [`DenseDomain::from_relations`] over every
    /// operand first).
    pub fn from_relation(
        rel: &Relation,
        domain: Arc<DenseDomain>,
    ) -> Result<BitsetRelation, String> {
        if rel.arity() != 2 {
            return Err(format!(
                "bitset relations are binary; got arity {}",
                rel.arity()
            ));
        }
        let mut out = BitsetRelation::empty(domain);
        let flat = rel.flat();
        for pair in flat.chunks_exact(2) {
            let (a, b) = (pair[0], pair[1]);
            let (i, j) = match (out.domain.id(a), out.domain.id(b)) {
                (Some(i), Some(j)) => (i, j),
                _ => return Err(format!("value outside the dense domain in ({a}, {b})")),
            };
            out.set(i, j);
        }
        Ok(out)
    }

    /// The shared domain.
    pub fn domain(&self) -> &Arc<DenseDomain> {
        &self.domain
    }

    /// Total words in the matrix.
    pub fn total_words(&self) -> usize {
        self.bits.len()
    }

    /// Set the bit for the dense pair `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: u32, j: u32) {
        let (i, j) = (i as usize, j as usize);
        debug_assert!(
            i < self.domain.len() && j < self.domain.len(),
            "pair ({i}, {j}) out of bounds for domain of {}",
            self.domain.len()
        );
        self.bits[i * self.words + j / 64] |= 1u64 << (j % 64);
    }

    /// True iff the dense pair `(i, j)` is present.
    #[inline]
    pub fn get(&self, i: u32, j: u32) -> bool {
        let (i, j) = (i as usize, j as usize);
        debug_assert!(i < self.domain.len() && j < self.domain.len());
        self.bits[i * self.words + j / 64] & (1u64 << (j % 64)) != 0
    }

    /// True iff the value pair `(a, b)` is present.
    pub fn contains(&self, a: Value, b: Value) -> bool {
        match (self.domain.id(a), self.domain.id(b)) {
            (Some(i), Some(j)) => self.get(i, j),
            _ => false,
        }
    }

    /// Number of set bits — the relation's cardinality (popcount kernel).
    pub fn len(&self) -> u64 {
        self.bits.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// True iff no bit is set.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Unconditional (release builds included): a domain mismatch would
    /// decode ids through the wrong value table and silently yield wrong
    /// pairs, so it must never pass structurally. The fast path is one
    /// `Arc` pointer compare; the full value-list comparison runs only
    /// for distinct allocations of an equal domain.
    #[track_caller]
    fn assert_same_domain(&self, other: &BitsetRelation) {
        assert!(
            Arc::ptr_eq(&self.domain, &other.domain) || self.domain == other.domain,
            "bitset operands must share one dense domain"
        );
        assert_eq!(self.words, other.words, "word widths disagree");
        assert_eq!(self.bits.len(), other.bits.len(), "block counts disagree");
    }

    /// Word-at-a-time union: OR `other` into `self`, returning the number
    /// of newly set bits (the popcount delta — the dense analogue of the
    /// semi-naive "new tuples this round" count).
    ///
    /// # Panics
    /// When the operands were built over different [`DenseDomain`]s.
    pub fn or_assign(&mut self, other: &BitsetRelation) -> u64 {
        self.assert_same_domain(other);
        let mut new = 0u64;
        for (w, &o) in self.bits.iter_mut().zip(other.bits.iter()) {
            new += (o & !*w).count_ones() as u64;
            *w |= o;
        }
        new
    }

    /// Word-at-a-time intersection: the pairs present in both operands.
    ///
    /// # Panics
    /// When the operands were built over different [`DenseDomain`]s.
    pub fn and(&self, other: &BitsetRelation) -> BitsetRelation {
        self.assert_same_domain(other);
        BitsetRelation {
            domain: Arc::clone(&self.domain),
            words: self.words,
            bits: self
                .bits
                .iter()
                .zip(other.bits.iter())
                .map(|(&a, &b)| a & b)
                .collect(),
        }
    }

    /// Boolean matrix product `self ∘ other`: the result holds `(i, k)`
    /// iff `(i, j) ∈ self` and `(j, k) ∈ other` for some `j` — relational
    /// composition over the shared middle column. For every set bit `j`
    /// of a row of `self`, `other`'s row `j` is OR-ed in whole words, so
    /// the cost is `|self| × words-per-row` word operations.
    ///
    /// # Panics
    /// When the operands were built over different [`DenseDomain`]s.
    pub fn compose(&self, other: &BitsetRelation) -> BitsetRelation {
        self.assert_same_domain(other);
        let mut out = BitsetRelation::empty(Arc::clone(&self.domain));
        let words = self.words;
        for i in 0..self.domain.len() {
            let row = &self.bits[i * words..(i + 1) * words];
            let dst = &mut out.bits[i * words..(i + 1) * words];
            for (wi, &w) in row.iter().enumerate() {
                let mut w = w;
                while w != 0 {
                    let j = wi * 64 + w.trailing_zeros() as usize;
                    w &= w - 1;
                    let src = &other.bits[j * words..(j + 1) * words];
                    for (d, &s) in dst.iter_mut().zip(src.iter()) {
                        *d |= s;
                    }
                }
            }
        }
        out
    }

    /// Iterate the present value pairs in dense row-major order.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (Value, Value)> + '_ {
        (0..self.domain.len()).flat_map(move |i| {
            let row = &self.bits[i * self.words..(i + 1) * self.words];
            row.iter().enumerate().flat_map(move |(wi, &w)| {
                let mut w = w;
                std::iter::from_fn(move || {
                    if w == 0 {
                        return None;
                    }
                    let j = wi * 64 + w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some((self.domain.value(i as u32), self.domain.value(j as u32)))
                })
            })
        })
    }

    /// Convert back to a flat-arena [`Relation`] (lossless): rows are
    /// emitted in dense row-major order and rebuilt through
    /// [`Relation::from_dense_rows`]. A bitset cannot hold duplicates, so
    /// the rebuild cannot fail; debug builds additionally check that the
    /// emitted row count agrees with the popcount.
    pub fn to_relation(&self) -> Relation {
        let mut arena: Vec<Value> = Vec::with_capacity(self.len() as usize * 2);
        for (a, b) in self.iter_pairs() {
            arena.push(a);
            arena.push(b);
        }
        let rows = arena.len() / 2;
        debug_assert_eq!(
            rows as u64,
            self.len(),
            "emitted rows disagree with the popcount"
        );
        Relation::from_dense_rows(2, rows, arena)
            .expect("a bitset is duplicate-free by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(pairs: &[(i64, i64)]) -> Relation {
        Relation::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn round_trip_preserves_the_relation() {
        let r = rel(&[(1, 2), (2, 3), (64, 65), (65, 1), (1, 1)]);
        let dom = Arc::new(DenseDomain::from_relations([&r]));
        let dense = BitsetRelation::from_relation(&r, dom).unwrap();
        assert_eq!(dense.len(), r.len() as u64);
        assert_eq!(dense.to_relation().sorted(), r.sorted());
    }

    #[test]
    fn compose_is_relational_composition() {
        let a = rel(&[(1, 2), (2, 3)]);
        let b = rel(&[(2, 10), (3, 11), (3, 12)]);
        let dom = Arc::new(DenseDomain::from_relations([&a, &b]));
        let da = BitsetRelation::from_relation(&a, Arc::clone(&dom)).unwrap();
        let db = BitsetRelation::from_relation(&b, dom).unwrap();
        let got = da.compose(&db).to_relation();
        let want = rel(&[(1, 10), (2, 11), (2, 12)]);
        assert_eq!(got.sorted(), want.sorted());
    }

    #[test]
    fn or_assign_counts_only_new_bits() {
        let a = rel(&[(1, 2)]);
        let b = rel(&[(1, 2), (2, 3)]);
        let dom = Arc::new(DenseDomain::from_relations([&a, &b]));
        let mut da = BitsetRelation::from_relation(&a, Arc::clone(&dom)).unwrap();
        let db = BitsetRelation::from_relation(&b, Arc::clone(&dom)).unwrap();
        assert_eq!(da.or_assign(&db), 1);
        assert_eq!(da.or_assign(&db), 0);
        assert_eq!(da.len(), 2);
        let both = da.and(&db);
        assert_eq!(both.to_relation().sorted(), b.sorted());
    }

    #[test]
    #[should_panic(expected = "share one dense domain")]
    fn kernels_refuse_operands_over_different_domains() {
        // Equal-sized but disjoint domains: every structural size check
        // passes, so only the unconditional domain assert can stop the
        // ids from decoding through the wrong value table.
        let a = rel(&[(1, 2)]);
        let b = rel(&[(3, 4)]);
        let da =
            BitsetRelation::from_relation(&a, Arc::new(DenseDomain::from_relations([&a]))).unwrap();
        let db =
            BitsetRelation::from_relation(&b, Arc::new(DenseDomain::from_relations([&b]))).unwrap();
        let _ = da.compose(&db);
    }

    #[test]
    fn equal_domains_from_distinct_allocations_are_accepted() {
        let a = rel(&[(1, 2), (2, 3)]);
        let d1 = Arc::new(DenseDomain::from_relations([&a]));
        let d2 = Arc::new(DenseDomain::from_relations([&a]));
        let da = BitsetRelation::from_relation(&a, d1).unwrap();
        let mut db = BitsetRelation::from_relation(&a, d2).unwrap();
        assert_eq!(db.or_assign(&da), 0);
        assert_eq!(
            da.compose(&db).to_relation().sorted(),
            rel(&[(1, 3)]).sorted()
        );
    }

    #[test]
    fn values_outside_the_domain_are_an_error() {
        let a = rel(&[(1, 2)]);
        let dom = Arc::new(DenseDomain::from_relations([&a]));
        let wide = rel(&[(1, 99)]);
        assert!(BitsetRelation::from_relation(&wide, dom).is_err());
    }

    #[test]
    fn empty_and_symbolic_values_work() {
        let r = Relation::from_tuples(
            2,
            [
                vec![Value::Sym(crate::Symbol::new("a")), Value::Int(1)],
                vec![Value::Int(1), Value::Sym(crate::Symbol::new("b"))],
            ],
        );
        let dom = Arc::new(DenseDomain::from_relations([&r]));
        assert_eq!(dom.len(), 3);
        let dense = BitsetRelation::from_relation(&r, Arc::clone(&dom)).unwrap();
        assert_eq!(dense.to_relation().sorted(), r.sorted());
        let empty = BitsetRelation::empty(dom);
        assert!(empty.is_empty());
        assert_eq!(empty.to_relation().len(), 0);
    }
}
