//! In-memory relations: sets of fixed-arity tuples in flat arena storage.
//!
//! # Storage layout
//!
//! A [`Relation`] stores its tuples row-major in a single flat `Vec<Value>`
//! arena: row `r` of an arity-`a` relation occupies `arena[r*a .. r*a + a]`.
//! Iteration therefore walks one contiguous allocation (cache-linear, no
//! pointer chasing), and a whole relation can be copied with a single
//! `memcpy` of the arena.
//!
//! Set semantics are maintained by a private open-addressing hash table over
//! *row ids* (`slots`), with one cached 64-bit hash per row (`hashes`).
//! Membership tests and inserts probe the table and compare against arena
//! rows directly, so neither ever allocates: `contains` takes a plain
//! `&[Value]`, and `insert` accepts anything viewable as a value slice and
//! copies it into the arena only when it is actually new. Rows are never
//! deleted individually (only [`Relation::clear`] removes tuples), which
//! keeps the table tombstone-free.
//!
//! [`Tuple`] is the owned-tuple type for callers that need tuples as values
//! (map keys, seeds, sorted output). Up to [`INLINE_ARITY`] values are
//! stored inline — no heap allocation for the small arities that dominate
//! the paper's workloads — and wider tuples spill to a `Vec`. It derefs to
//! `[Value]`, hashes and compares like a value slice, and can be borrowed
//! as `[Value]`, so `FastMap<Tuple, _>` lookups work with unowned slices.

use crate::hash::{FastSet, FxHasher};
use crate::term::Value;
use std::borrow::Borrow;
use std::collections::BinaryHeap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Maximum arity stored inline (without heap allocation) by [`Tuple`].
pub const INLINE_ARITY: usize = 4;

const PAD: Value = Value::Int(0);

/// A database tuple: a short owned sequence of [`Value`]s.
///
/// Arities up to [`INLINE_ARITY`] live inline; wider tuples spill to the
/// heap. Equality, ordering, and hashing all delegate to the underlying
/// value slice, and `Borrow<[Value]>` makes `Tuple`-keyed hash maps
/// queryable with `&[Value]`.
#[derive(Clone)]
pub struct Tuple(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        vals: [Value; INLINE_ARITY],
    },
    Spill(Vec<Value>),
}

impl Tuple {
    /// An empty tuple.
    pub fn new() -> Tuple {
        Tuple(Repr::Inline {
            len: 0,
            vals: [PAD; INLINE_ARITY],
        })
    }

    /// An empty tuple with room for `n` values (spills immediately when
    /// `n > INLINE_ARITY` so later pushes never re-copy).
    pub fn with_capacity(n: usize) -> Tuple {
        if n <= INLINE_ARITY {
            Tuple::new()
        } else {
            Tuple(Repr::Spill(Vec::with_capacity(n)))
        }
    }

    /// Copy a value slice into an owned tuple.
    pub fn from_slice(vals: &[Value]) -> Tuple {
        if vals.len() <= INLINE_ARITY {
            let mut inline = [PAD; INLINE_ARITY];
            inline[..vals.len()].copy_from_slice(vals);
            Tuple(Repr::Inline {
                len: vals.len() as u8,
                vals: inline,
            })
        } else {
            Tuple(Repr::Spill(vals.to_vec()))
        }
    }

    /// Append a value.
    pub fn push(&mut self, v: Value) {
        match &mut self.0 {
            Repr::Inline { len, vals } => {
                if (*len as usize) < INLINE_ARITY {
                    vals[*len as usize] = v;
                    *len += 1;
                } else {
                    let mut spill = vals.to_vec();
                    spill.push(v);
                    self.0 = Repr::Spill(spill);
                }
            }
            Repr::Spill(vec) => vec.push(v),
        }
    }

    /// The values as a slice.
    pub fn as_slice(&self) -> &[Value] {
        match &self.0 {
            Repr::Inline { len, vals } => &vals[..*len as usize],
            Repr::Spill(vec) => vec,
        }
    }
}

impl Default for Tuple {
    fn default() -> Tuple {
        Tuple::new()
    }
}

impl std::ops::Deref for Tuple {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        self.as_slice()
    }
}

impl AsRef<[Value]> for Tuple {
    fn as_ref(&self) -> &[Value] {
        self.as_slice()
    }
}

impl Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        self.as_slice()
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Tuple {}

impl PartialEq<Vec<Value>> for Tuple {
    fn eq(&self, other: &Vec<Value>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Tuple> for Vec<Value> {
    fn eq(&self, other: &Tuple) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Tuple) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Tuple) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Slice hashing, so `Borrow<[Value]>` lookups stay consistent.
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(vals: Vec<Value>) -> Tuple {
        if vals.len() <= INLINE_ARITY {
            Tuple::from_slice(&vals)
        } else {
            Tuple(Repr::Spill(vals))
        }
    }
}

impl From<&[Value]> for Tuple {
    fn from(vals: &[Value]) -> Tuple {
        Tuple::from_slice(vals)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Tuple {
        let mut t = Tuple::new();
        for v in iter {
            t.push(v);
        }
        t
    }
}

impl IntoIterator for Tuple {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;
    fn into_iter(self) -> Self::IntoIter {
        // Both arms must yield the same iterator type; the inline copy is
        // at most INLINE_ARITY values.
        let vec = match self.0 {
            Repr::Inline { len, vals } => vals[..len as usize].to_vec(),
            Repr::Spill(vec) => vec,
        };
        vec.into_iter()
    }
}

impl<'a> IntoIterator for &'a Tuple {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

// --- relation --------------------------------------------------------------

const EMPTY_SLOT: u32 = u32::MAX;

/// [`Relation::from_dense_rows`] counting-sorts rows into buckets of
/// `2^BUCKET_BITS` home slots (16 KiB of slot table), so the linking pass
/// over one bucket stays in cache.
const BUCKET_BITS: u32 = 12;

/// A relation: a set of tuples of a fixed arity, stored in a flat arena
/// (see the module docs for the layout).
///
/// The schema of a relation is its arity alone (the paper's typeless
/// system). Insertions of tuples of the wrong arity panic — arity mismatch
/// is a programming error, not a data error.
#[derive(Clone, Default)]
pub struct Relation {
    arity: usize,
    /// Row-major tuple storage: row `r` is `arena[r*arity .. (r+1)*arity]`.
    arena: Vec<Value>,
    /// Cached hash per row (same order as the arena).
    hashes: Vec<u64>,
    /// Open-addressing table of row ids; `EMPTY_SLOT` marks a free slot.
    /// Length is always a power of two (or zero before the first insert).
    slots: Vec<u32>,
    /// Content version: refreshed from a process-wide counter on every
    /// mutation, so two relations with equal versions are guaranteed to
    /// have identical contents (a clone shares its source's version; any
    /// later mutation moves the mutated copy to a fresh, never-reused
    /// number). Downstream caches (the engine's scan/index cache, the
    /// service's epoch snapshots) revalidate against this instead of
    /// re-hashing contents.
    version: u64,
}

/// Source of [`Relation::version`] numbers. Starts at 1 so the default
/// version 0 is reserved for never-mutated (empty) relations.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

fn hash_row(vals: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    vals.hash(&mut h);
    h.finish()
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            arena: Vec::new(),
            hashes: Vec::new(),
            slots: Vec::new(),
            version: 0,
        }
    }

    /// The relation's content version (see the field docs): equal versions
    /// imply equal contents, and every mutation produces a fresh version.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn touch(&mut self) {
        self.version = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
    }

    /// Build from an iterator of tuples (arity taken from the argument).
    pub fn from_tuples<T: AsRef<[Value]>>(
        arity: usize,
        tuples: impl IntoIterator<Item = T>,
    ) -> Relation {
        let mut r = Relation::new(arity);
        for t in tuples {
            r.insert(t);
        }
        r
    }

    /// Build a binary relation from integer pairs (the common case for graph
    /// workloads).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (i64, i64)>) -> Relation {
        Relation::from_tuples(
            2,
            pairs
                .into_iter()
                .map(|(a, b)| [Value::Int(a), Value::Int(b)]),
        )
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True iff the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The flat row-major arena: `len() * arity()` values. Row `r` is
    /// `flat()[r*arity .. (r+1)*arity]`. This is the zero-copy bulk-read
    /// interface used by the engine's scan/index caches.
    pub fn flat(&self) -> &[Value] {
        &self.arena
    }

    /// Row `r` as a value slice.
    ///
    /// # Panics
    /// If `r >= len()`.
    pub fn row(&self, r: usize) -> &[Value] {
        &self.arena[r * self.arity..(r + 1) * self.arity]
    }

    /// Probe for `t`. `Ok(row)` when present, `Err(slot)` with the slot to
    /// fill otherwise. Requires `!self.slots.is_empty()`.
    fn probe(&self, h: u64, t: &[Value]) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = (h as usize) & mask;
        loop {
            let row = self.slots[i];
            if row == EMPTY_SLOT {
                return Err(i);
            }
            let r = row as usize;
            if self.hashes[r] == h && self.row(r) == t {
                return Ok(row);
            }
            i = (i + 1) & mask;
        }
    }

    /// Grow (or initialize) the slot table and re-link every row.
    fn grow_slots(&mut self) {
        let new_len = (self.slots.len() * 2).max(8);
        debug_assert!(
            new_len.is_power_of_two(),
            "slot table length must stay a power of two for mask probing"
        );
        self.slots.clear();
        self.slots.resize(new_len, EMPTY_SLOT);
        let mask = new_len - 1;
        for (r, &h) in self.hashes.iter().enumerate() {
            let mut i = (h as usize) & mask;
            while self.slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            self.slots[i] = r as u32;
        }
    }

    /// Insert a tuple; returns `true` iff it was not already present.
    /// Accepts anything viewable as a value slice (`Tuple`, `Vec<Value>`,
    /// arrays, slices); the values are copied into the arena only when new.
    ///
    /// # Panics
    /// If the tuple's arity differs from the relation's.
    pub fn insert(&mut self, t: impl AsRef<[Value]>) -> bool {
        let t = t.as_ref();
        assert_eq!(
            t.len(),
            self.arity,
            "tuple arity {} does not match relation arity {}",
            t.len(),
            self.arity
        );
        // Keep load factor below 7/8.
        if (self.hashes.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow_slots();
        }
        let h = hash_row(t);
        match self.probe(h, t) {
            Ok(_) => false,
            Err(slot) => {
                let row = self.hashes.len() as u32;
                self.arena.extend_from_slice(t);
                self.hashes.push(h);
                self.slots[slot] = row;
                self.touch();
                debug_assert_eq!(
                    self.arena.len(),
                    self.hashes.len() * self.arity,
                    "arena must stay exactly len()*arity values after insert"
                );
                true
            }
        }
    }

    /// Membership test (never allocates).
    pub fn contains(&self, t: &[Value]) -> bool {
        self.row_of(t).is_some()
    }

    /// The row `t` is stored at — its insertion rank — when present.
    pub fn row_of(&self, t: &[Value]) -> Option<usize> {
        if t.len() != self.arity || self.slots.is_empty() {
            return None;
        }
        self.probe(hash_row(t), t).ok().map(|row| row as usize)
    }

    /// Iterate over tuples as value slices, in insertion order.
    pub fn iter(&self) -> RowIter<'_> {
        RowIter {
            arena: &self.arena,
            arity: self.arity,
            row: 0,
            rows: self.hashes.len(),
        }
    }

    /// Add every tuple of `other`; returns the number of new tuples.
    pub fn union_in_place(&mut self, other: &Relation) -> usize {
        assert_eq!(self.arity, other.arity, "arity mismatch in union");
        let mut added = 0;
        for t in other.iter() {
            if self.insert(t) {
                added += 1;
            }
        }
        added
    }

    /// Insert every tuple of `derived` that `seen` does not hold; returns
    /// how many were new to both — one fixpoint round's fold of a rule's
    /// output into the next delta, against the accumulated total.
    pub fn insert_unseen<'a>(
        &mut self,
        derived: impl IntoIterator<Item = &'a [Value]>,
        seen: &Relation,
    ) -> u64 {
        let mut new = 0;
        for t in derived {
            if !seen.contains(t) && self.insert(t) {
                new += 1;
            }
        }
        new
    }

    /// Set-difference: tuples of `self` not in `other`.
    pub fn difference(&self, other: &Relation) -> Relation {
        assert_eq!(self.arity, other.arity, "arity mismatch in difference");
        let mut out = Relation::new(self.arity);
        out.insert_unseen(self.iter(), other);
        out
    }

    /// True iff every tuple of `self` is in `other`.
    pub fn is_subset_of(&self, other: &Relation) -> bool {
        self.arity == other.arity && self.iter().all(|t| other.contains(t))
    }

    /// Number of distinct values in column `col` (an `O(len)` scan; used by
    /// the planner's cost model for selectivity estimates). Zero for empty
    /// relations or out-of-range columns.
    pub fn distinct_in_col(&self, col: usize) -> usize {
        if col >= self.arity {
            return 0;
        }
        let mut seen: FastSet<Value> = FastSet::default();
        for t in self.iter() {
            seen.insert(t[col]);
        }
        seen.len()
    }

    /// Tuples sorted lexicographically — deterministic display/compare order.
    pub fn sorted(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.iter().map(Tuple::from_slice).collect();
        v.sort();
        v
    }

    /// Remove all tuples.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.hashes.clear();
        self.slots.clear();
        self.touch();
    }

    // --- bulk export / import (the storage layer's interface) -------------

    /// The relation's storage, exposed wholesale for bulk serialization:
    /// `(arena, hashes, slots)` — the flat row-major arena, the cached
    /// per-row hashes, and the open-addressing row-id table. The parts can
    /// be written out verbatim and handed back to
    /// [`Relation::from_raw_parts`] to reconstruct the relation without
    /// re-hashing a single row.
    pub fn raw_parts(&self) -> (&[Value], &[u64], &[u32]) {
        (&self.arena, &self.hashes, &self.slots)
    }

    /// Reassemble a relation from parts previously exported with
    /// [`Relation::raw_parts`] — the zero-rehash load path. The table is
    /// validated structurally (lengths, power-of-two slot count, row-id
    /// range, exactly one slot per row) and the first row's hash is
    /// recomputed as a drift check; any mismatch is an error, so a caller
    /// can fall back to [`Relation::from_dense_rows`] (which rebuilds the
    /// table from the arena alone). Persisted hashes are only portable
    /// when every value hashes identically in this process — notably
    /// [`Value::Sym`] hashes its process-local interned id, so relations
    /// containing symbols must take the rebuild path.
    pub fn from_raw_parts(
        arity: usize,
        arena: Vec<Value>,
        hashes: Vec<u64>,
        slots: Vec<u32>,
    ) -> Result<Relation, String> {
        let rows = hashes.len();
        if arena.len() != rows * arity {
            return Err(format!(
                "arena holds {} values, expected {} ({} rows of arity {arity})",
                arena.len(),
                rows * arity,
                rows
            ));
        }
        // Strictly more slots than rows: open addressing needs at least
        // one EMPTY_SLOT or probe loops can never terminate.
        if rows > 0 && (!slots.len().is_power_of_two() || slots.len() <= rows) {
            return Err(format!(
                "slot table of {} cannot index {rows} rows",
                slots.len()
            ));
        }
        if rows == 0 && !slots.is_empty() {
            return Err("non-empty slot table for an empty relation".into());
        }
        // Every row must be referenced by exactly one slot: a duplicate
        // reference would leave some other row unreachable (set semantics
        // silently broken), so it is rejected, not repaired.
        let mut seen = vec![false; rows];
        for &s in &slots {
            if s == EMPTY_SLOT {
                continue;
            }
            let r = s as usize;
            if r >= rows {
                return Err(format!("slot references row {s}, have {rows}"));
            }
            if seen[r] {
                return Err(format!("row {s} is referenced by two slots"));
            }
            seen[r] = true;
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("row {missing} is not referenced by any slot"));
        }
        let rel = Relation {
            arity,
            arena,
            hashes,
            slots,
            version: NEXT_VERSION.fetch_add(1, Ordering::Relaxed),
        };
        if !rel.is_empty() {
            // Hash-algorithm drift check: hashing is a pure function of the
            // value bytes, so one recomputed row vouches for the table.
            let h = hash_row(rel.row(0));
            if h != rel.hashes[0] {
                return Err("persisted hashes do not match this build's hash function".into());
            }
            if rel.probe(h, rel.row(0)).is_err() {
                return Err("row 0 is not reachable through the slot table".into());
            }
        }
        Ok(rel)
    }

    /// Build a relation from a dense row-major arena (`rows * arity`
    /// values), rebuilding the hash and row-id tables from the arena alone
    /// — the one constructor behind [`crate::BitsetRelation::to_relation`]
    /// and the load path for persisted relations whose cached tables are
    /// not portable (symbolic values re-intern to different ids per
    /// process). Duplicate rows are an error: a dense arena is a set dump,
    /// so a repeat means the input is corrupt.
    ///
    /// The build is bulk, not a loop of inserts, so no step probes the
    /// table at random:
    /// 1. every row is hashed in one sequential pass over the arena;
    /// 2. the row ids are counting-sorted by the top bits of their home
    ///    slot, each packed with 32 more hash bits — a temporary of 8 bytes
    ///    per row — and each bucket is sorted by home slot;
    /// 3. equal rows share a hash, so they meet inside one bucket with
    ///    equal packed keys, and only there are rows compared;
    /// 4. the slot table is linked front to back: each row takes the first
    ///    free slot at or after its home, which in home order is a single
    ///    forward cursor (a run that passes the last slot wraps to the
    ///    front, as linear probing does).
    ///
    /// The table is a valid linear-probing table, but its slot order is
    /// not the one a sequence of [`Relation::insert`]s would leave.
    pub fn from_dense_rows(
        arity: usize,
        rows: usize,
        arena: Vec<Value>,
    ) -> Result<Relation, String> {
        if arena.len() != rows * arity {
            return Err(format!(
                "arena holds {} values, expected {} ({rows} rows of arity {arity})",
                arena.len(),
                rows * arity
            ));
        }
        // Zero-arity rows are all equal, and nothing bounds their count
        // by the arena: reject a repeat before allocating per row.
        if arity == 0 && rows > 1 {
            return Err("row 1 duplicates row 0".into());
        }
        let mut rel = Relation {
            arity,
            arena,
            hashes: Vec::new(),
            slots: Vec::new(),
            version: 0,
        };
        if rows == 0 {
            return Ok(rel);
        }
        rel.hashes = (0..rows).map(|r| hash_row(rel.row(r))).collect();
        let cap = (rows * 8 / 7 + 1).next_power_of_two().max(8);
        let home_bits = cap.trailing_zeros();
        let low_bits = home_bits.min(BUCKET_BITS);
        let low_mask = (1u64 << low_bits) - 1;
        let bucket_of = |h: u64| ((h & (cap as u64 - 1)) >> low_bits) as usize;
        // Within a bucket, the key orders rows by home slot first; the
        // hash's top bits fill the rest, so equal keys are rare.
        let entry = |h: u64, r: usize| {
            let key = ((h & low_mask) << (32 - low_bits)) | (h >> (32 + low_bits));
            (key << 32) | r as u64
        };
        let mut starts = vec![0usize; (cap >> low_bits) + 1];
        for &h in &rel.hashes {
            starts[bucket_of(h) + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        let mut fill = starts.clone();
        let mut entries = vec![0u64; rows];
        for (r, &h) in rel.hashes.iter().enumerate() {
            let b = bucket_of(h);
            entries[fill[b]] = entry(h, r);
            fill[b] += 1;
        }

        rel.slots = vec![EMPTY_SLOT; cap];
        let mut cursor = 0usize;
        let mut wrapped: Vec<u32> = Vec::new();
        for (b, bounds) in starts.windows(2).enumerate() {
            let bucket = &mut entries[bounds[0]..bounds[1]];
            bucket.sort_unstable();
            for i in 0..bucket.len() {
                let (key, row) = (bucket[i] >> 32, bucket[i] as u32);
                let r = row as usize;
                for &e in bucket[..i].iter().rev().take_while(|&&e| e >> 32 == key) {
                    let p = e as u32 as usize;
                    if rel.hashes[p] == rel.hashes[r] && rel.row(p) == rel.row(r) {
                        return Err(format!("row {r} duplicates row {p}"));
                    }
                }
                let home = (b << low_bits) | (key >> (32 - low_bits)) as usize;
                let at = home.max(cursor);
                if at < cap {
                    rel.slots[at] = row;
                    cursor = at + 1;
                } else {
                    wrapped.push(row);
                }
            }
        }
        // Rows that ran off the end take the first free slots from the
        // front: every slot from their home to the end is already taken.
        let mut at = 0;
        for r in wrapped {
            while rel.slots[at] != EMPTY_SLOT {
                at += 1;
            }
            rel.slots[at] = r;
        }
        rel.touch();
        Ok(rel)
    }

    /// The `k` lexicographically smallest tuples, in ascending order — the
    /// first `k` of [`Relation::sorted`] without sorting the rest. One pass
    /// over the arena keeps a max-heap of at most `k` row slices, so no
    /// tuple is copied and the extra memory is `O(k)`.
    pub fn smallest(&self, k: usize) -> Vec<&[Value]> {
        let mut heap: BinaryHeap<&[Value]> = BinaryHeap::with_capacity(k.min(self.len()));
        for row in self.iter() {
            if heap.len() < k {
                heap.push(row);
            } else if let Some(mut top) = heap.peek_mut() {
                if row < *top {
                    *top = row;
                }
            }
        }
        heap.into_sorted_vec()
    }
}

// --- sharding --------------------------------------------------------------

/// A `Send + Sync` zero-copy view of a subset of a shared relation's rows.
///
/// A shard holds an `Arc` to its relation and a list of row ids into the
/// flat arena ([`Relation::flat`]); iterating a shard reads arena slices
/// directly — no tuple is ever copied. Shards are the unit of work for the
/// engine's parallel fixpoint rounds: [`ShardView::partition`] splits a
/// delta relation into `k` disjoint shards by the hash of one column, so
/// rows sharing a join-key value land in the same shard (load balance;
/// correctness never depends on the column choice, because every row is
/// processed independently and the merge deduplicates globally).
#[derive(Clone)]
pub struct ShardView {
    rel: Arc<Relation>,
    rows: Vec<u32>,
}

impl ShardView {
    /// Partition `rel` into exactly `shards` disjoint views covering every
    /// row, bucketed by the hash of column `col` (rows with equal values in
    /// `col` share a shard). When `col` is out of range — including the
    /// arity-0 relation — rows are dealt round-robin instead, which keeps
    /// the shards balanced without inspecting values.
    pub fn partition(rel: &Arc<Relation>, col: usize, shards: usize) -> Vec<ShardView> {
        let k = shards.max(1);
        let mut buckets: Vec<Vec<u32>> = (0..k).map(|_| Vec::new()).collect();
        let by_hash = col < rel.arity();
        for r in 0..rel.len() {
            let b = if by_hash {
                let mut h = FxHasher::default();
                rel.row(r)[col].hash(&mut h);
                (h.finish() % k as u64) as usize
            } else {
                r % k
            };
            buckets[b].push(r as u32);
        }
        buckets
            .into_iter()
            .map(|rows| ShardView {
                rel: Arc::clone(rel),
                rows,
            })
            .collect()
    }

    /// Number of rows in this shard.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the shard holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The relation the shard views.
    pub fn relation(&self) -> &Relation {
        &self.rel
    }

    /// Iterate the shard's rows as value slices (zero-copy arena reads).
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> + '_ {
        self.rows.iter().map(|&r| self.rel.row(r as usize))
    }
}

/// Iterator over a relation's rows as value slices.
pub struct RowIter<'a> {
    arena: &'a [Value],
    arity: usize,
    row: usize,
    rows: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        if self.row == self.rows {
            return None;
        }
        let start = self.row * self.arity;
        self.row += 1;
        Some(&self.arena[start..start + self.arity])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.rows - self.row;
        (n, Some(n))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a [Value];
    type IntoIter = RowIter<'a>;
    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.arity == other.arity
            && self.len() == other.len()
            && self.iter().all(|t| other.contains(t))
    }
}

impl Eq for Relation {}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.sorted().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "(")?;
            for (j, v) in t.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, ")")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(i64, i64)> for Relation {
    fn from_iter<I: IntoIterator<Item = (i64, i64)>>(iter: I) -> Relation {
        Relation::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;

    #[test]
    fn insert_and_contains() {
        let mut r = Relation::new(2);
        assert!(r.insert(vec![Value::Int(1), Value::Int(2)]));
        assert!(!r.insert(vec![Value::Int(1), Value::Int(2)]));
        assert!(r.contains(&[Value::Int(1), Value::Int(2)]));
        assert!(!r.contains(&[Value::Int(2), Value::Int(1)]));
        assert_eq!(r.len(), 1);
        assert!(r.insert(vec![Value::Int(2), Value::Int(1)]));
        assert_eq!(r.row_of(&[Value::Int(2), Value::Int(1)]), Some(1));
        assert_eq!(r.row_of(&[Value::Int(1), Value::Int(2)]), Some(0));
        assert_eq!(r.row_of(&[Value::Int(1)]), None);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_is_enforced() {
        let mut r = Relation::new(2);
        r.insert(vec![Value::Int(1)]);
    }

    #[test]
    fn union_counts_new_tuples() {
        let mut a = Relation::from_pairs([(1, 2), (2, 3)]);
        let b = Relation::from_pairs([(2, 3), (3, 4)]);
        assert_eq!(a.union_in_place(&b), 1);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn difference_and_subset() {
        let a = Relation::from_pairs([(1, 2), (2, 3)]);
        let b = Relation::from_pairs([(2, 3)]);
        assert!(b.is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
        let d = a.difference(&b);
        assert_eq!(d.sorted(), vec![vec![Value::Int(1), Value::Int(2)]]);
    }

    #[test]
    fn sorted_is_deterministic() {
        let r = Relation::from_pairs([(3, 1), (1, 2), (2, 0)]);
        let s = r.sorted();
        assert_eq!(
            s,
            vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(2), Value::Int(0)],
                vec![Value::Int(3), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn debug_output_is_stable() {
        let r = Relation::from_pairs([(2, 3), (1, 2)]);
        assert_eq!(format!("{r:?}"), "{(1,2), (2,3)}");
    }

    #[test]
    fn arena_layout_is_row_major_insertion_order() {
        let mut r = Relation::new(2);
        r.insert([Value::Int(5), Value::Int(6)]);
        r.insert([Value::Int(1), Value::Int(2)]);
        r.insert([Value::Int(5), Value::Int(6)]); // duplicate: no growth
        assert_eq!(
            r.flat(),
            &[Value::Int(5), Value::Int(6), Value::Int(1), Value::Int(2)]
        );
        assert_eq!(r.row(1), &[Value::Int(1), Value::Int(2)]);
        let rows: Vec<&[Value]> = r.iter().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], r.row(0));
    }

    #[test]
    fn set_equality_ignores_insertion_order() {
        let a = Relation::from_pairs([(1, 2), (3, 4)]);
        let b = Relation::from_pairs([(3, 4), (1, 2)]);
        assert_eq!(a, b);
        let c = Relation::from_pairs([(1, 2)]);
        assert_ne!(a, c);
    }

    #[test]
    fn many_inserts_grow_the_table() {
        let mut r = Relation::new(2);
        for i in 0..10_000 {
            assert!(r.insert([Value::Int(i), Value::Int(i + 1)]));
        }
        for i in 0..10_000 {
            assert!(r.contains(&[Value::Int(i), Value::Int(i + 1)]));
            assert!(!r.insert([Value::Int(i), Value::Int(i + 1)]));
        }
        assert_eq!(r.len(), 10_000);
    }

    #[test]
    fn zero_arity_relation_holds_at_most_one_tuple() {
        let mut r = Relation::new(0);
        assert!(r.insert(Vec::<Value>::new()));
        assert!(!r.insert(Vec::<Value>::new()));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[]));
        assert_eq!(r.iter().count(), 1);
    }

    #[test]
    fn distinct_in_col_counts_values() {
        let r = Relation::from_pairs([(1, 9), (2, 9), (3, 8)]);
        assert_eq!(r.distinct_in_col(0), 3);
        assert_eq!(r.distinct_in_col(1), 2);
        assert_eq!(r.distinct_in_col(7), 0);
    }

    #[test]
    fn versions_track_mutation() {
        let mut r = Relation::new(2);
        assert_eq!(r.version(), 0); // never mutated
        r.insert([Value::Int(1), Value::Int(2)]);
        let v1 = r.version();
        assert_ne!(v1, 0);
        // A duplicate insert changes nothing and keeps the version.
        r.insert([Value::Int(1), Value::Int(2)]);
        assert_eq!(r.version(), v1);
        // A clone shares the version (identical content)…
        let c = r.clone();
        assert_eq!(c.version(), v1);
        // …and diverges on the next mutation of either copy.
        r.insert([Value::Int(3), Value::Int(4)]);
        assert_ne!(r.version(), c.version());
        let before = r.version();
        r.clear();
        assert_ne!(r.version(), before);
    }

    #[test]
    fn tuple_inline_and_spill() {
        let small = Tuple::from_slice(&[Value::Int(1), Value::Int(2)]);
        assert_eq!(small.len(), 2);
        assert_eq!(small[1], Value::Int(2));
        let wide: Tuple = (0..7).map(Value::Int).collect();
        assert_eq!(wide.len(), 7);
        assert_eq!(wide[6], Value::Int(6));
        // Pushing across the inline boundary spills without losing values.
        let mut t = Tuple::new();
        for i in 0..6 {
            t.push(Value::Int(i));
        }
        assert_eq!(t.as_slice(), (0..6).map(Value::Int).collect::<Vec<_>>());
    }

    #[test]
    fn tuple_hashes_like_a_slice() {
        use crate::hash::FastMap;
        let mut m: FastMap<Tuple, u32> = FastMap::default();
        m.insert(Tuple::from_slice(&[Value::Int(1), Value::Int(2)]), 7);
        // Borrow<[Value]> lookup with an unowned slice.
        assert_eq!(m.get(&[Value::Int(1), Value::Int(2)][..]), Some(&7));
        let wide: Tuple = (0..9).map(Value::Int).collect();
        m.insert(wide.clone(), 9);
        assert_eq!(m.get(wide.as_slice()), Some(&9));
    }

    #[test]
    fn shards_partition_every_row_exactly_once() {
        let rel = Arc::new(Relation::from_pairs((0..100).map(|i| (i % 7, i))));
        for k in [1usize, 2, 3, 8] {
            let shards = ShardView::partition(&rel, 0, k);
            assert_eq!(shards.len(), k);
            let mut seen = Relation::new(2);
            let mut rows = 0;
            for s in &shards {
                rows += s.len();
                for t in s.iter() {
                    assert!(seen.insert(t), "row appeared in two shards");
                }
            }
            assert_eq!(rows, rel.len());
            assert_eq!(seen.len(), rel.len());
        }
    }

    #[test]
    fn shards_group_equal_join_keys_together() {
        // Rows with the same value in the hash column must share a shard.
        let rel = Arc::new(Relation::from_pairs((0..60).map(|i| (i % 5, i))));
        let shards = ShardView::partition(&rel, 0, 4);
        for key in 0..5 {
            let holders: Vec<usize> = shards
                .iter()
                .enumerate()
                .filter(|(_, s)| s.iter().any(|t| t[0] == Value::Int(key)))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(holders.len(), 1, "key {key} split across shards");
        }
    }

    #[test]
    fn out_of_range_column_falls_back_to_round_robin() {
        let rel = Arc::new(Relation::from_pairs((0..8).map(|i| (i, i))));
        let shards = ShardView::partition(&rel, 9, 4);
        assert!(shards.iter().all(|s| s.len() == 2));
        let mut zero = Relation::new(0);
        zero.insert(Vec::<Value>::new());
        let z = Arc::new(zero);
        let shards = ShardView::partition(&z, 0, 3);
        assert_eq!(shards.iter().map(ShardView::len).sum::<usize>(), 1);
    }

    #[test]
    fn shard_views_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardView>();
        assert_send_sync::<Relation>();
    }

    #[test]
    fn raw_parts_round_trip_reconstructs_without_rehashing() {
        let mut r = Relation::new(2);
        for i in 0..1000 {
            r.insert([Value::Int(i), Value::Int(i * 7 % 31)]);
        }
        let (arena, hashes, slots) = r.raw_parts();
        let back =
            Relation::from_raw_parts(2, arena.to_vec(), hashes.to_vec(), slots.to_vec()).unwrap();
        assert_eq!(back, r);
        assert!(back.contains(&[Value::Int(5), Value::Int(4)]));
        assert_ne!(
            back.version(),
            r.version(),
            "loaded copy gets a fresh version"
        );
    }

    #[test]
    fn from_raw_parts_rejects_malformed_tables() {
        let r = Relation::from_pairs([(1, 2), (2, 3)]);
        let (arena, hashes, slots) = r.raw_parts();
        // Truncated arena.
        assert!(
            Relation::from_raw_parts(2, arena[..2].to_vec(), hashes.to_vec(), slots.to_vec())
                .is_err()
        );
        // Non-power-of-two slot table.
        assert!(Relation::from_raw_parts(
            2,
            arena.to_vec(),
            hashes.to_vec(),
            vec![0, 1, EMPTY_SLOT]
        )
        .is_err());
        // Out-of-range row id.
        let mut bad = slots.to_vec();
        for s in bad.iter_mut() {
            if *s != EMPTY_SLOT {
                *s = 9;
                break;
            }
        }
        assert!(Relation::from_raw_parts(2, arena.to_vec(), hashes.to_vec(), bad).is_err());
        // Drifted hash for row 0.
        let mut wrong = hashes.to_vec();
        wrong[0] ^= 1;
        assert!(Relation::from_raw_parts(2, arena.to_vec(), wrong, slots.to_vec()).is_err());
        // Two slots referencing the same row (row 1 unreachable).
        let dup = vec![0, 0, EMPTY_SLOT, EMPTY_SLOT];
        assert!(Relation::from_raw_parts(2, arena.to_vec(), hashes.to_vec(), dup).is_err());
        // A full table (no EMPTY_SLOT) must be rejected up front — probing
        // it could never terminate.
        let full = vec![1, 1];
        assert!(Relation::from_raw_parts(2, arena.to_vec(), hashes.to_vec(), full).is_err());
    }

    #[test]
    fn from_dense_rows_rebuilds_and_rejects_duplicates() {
        let src = Relation::from_pairs([(1, 2), (2, 3), (3, 4)]);
        let rebuilt = Relation::from_dense_rows(2, src.len(), src.flat().to_vec()).unwrap();
        assert_eq!(rebuilt, src);
        assert!(rebuilt.contains(&[Value::Int(2), Value::Int(3)]));
        let dup = vec![Value::Int(1), Value::Int(2), Value::Int(1), Value::Int(2)];
        assert!(Relation::from_dense_rows(2, 2, dup).is_err());
        assert!(Relation::from_dense_rows(2, 2, vec![Value::Int(1)]).is_err());
        // Zero-arity: one row is fine, two rows are a duplicate.
        let zero = Relation::from_dense_rows(0, 1, Vec::new()).unwrap();
        assert!(zero.contains(&[]));
        assert!(Relation::from_dense_rows(0, 2, Vec::new()).is_err());
        // Empty relations keep their arity.
        let empty = Relation::from_dense_rows(3, 0, Vec::new()).unwrap();
        assert_eq!(empty.arity(), 3);
        assert!(empty.is_empty());
    }

    /// A deterministic relation of `rows` draws (duplicates fold away)
    /// mixing negative integers and symbols, for any arity.
    fn mixed(arity: usize, rows: usize, seed: u64) -> Relation {
        let syms = [
            Symbol::new("alice"),
            Symbol::new("bob"),
            Symbol::new("carol"),
        ];
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut r = Relation::new(arity);
        for _ in 0..rows {
            let t: Tuple = (0..arity)
                .map(|_| match next() % 5 {
                    0 => Value::Sym(syms[(next() % 3) as usize]),
                    _ => Value::Int((next() % 41) as i64 - 20),
                })
                .collect();
            r.insert(t);
        }
        r
    }

    #[test]
    fn smallest_is_the_sorted_prefix() {
        for arity in 0..=3 {
            for rows in [0, 1, 7, 300] {
                let r = mixed(arity, rows, (arity * 1000 + rows) as u64);
                let sorted = r.sorted();
                for k in [0, 1, 20, r.len(), r.len() + 3] {
                    let top = r.smallest(k);
                    assert_eq!(top.len(), k.min(r.len()), "arity {arity} rows {rows} k {k}");
                    for (got, want) in top.iter().zip(&sorted) {
                        assert_eq!(*got, want.as_slice(), "arity {arity} rows {rows} k {k}");
                    }
                }
            }
        }
    }

    /// `count` distinct integers whose rows share one home slot in a table
    /// of `cap` slots.
    fn same_home(cap: usize, home: usize, count: usize) -> Vec<Value> {
        (0..)
            .map(Value::Int)
            .filter(|v| hash_row(&[*v]) as usize & (cap - 1) == home)
            .take(count)
            .collect()
    }

    fn assert_same_set(bulk: &Relation, built: &Relation) {
        assert_eq!(bulk.len(), built.len());
        for row in built.iter() {
            assert!(bulk.contains(row), "{row:?} lost");
        }
        assert_eq!(bulk, built);
    }

    /// 20,000 distinct pairs: a table of 32,768 slots, eight buckets.
    fn spread() -> Relation {
        let mut r = Relation::new(2);
        for i in 0..20_000i64 {
            r.insert([Value::Int(i % 173 - 50), Value::Int(i * 7919 % 20_011)]);
        }
        assert_eq!(r.len(), 20_000);
        r
    }

    #[test]
    fn bulk_build_matches_an_insert_built_relation() {
        let built = spread();
        let bulk = Relation::from_dense_rows(2, built.len(), built.flat().to_vec()).unwrap();
        assert_same_set(&bulk, &built);
        for i in 0..2_000i64 {
            assert!(!bulk.contains(&[Value::Int(500 + i), Value::Int(i)]));
        }
        assert!(!bulk.contains(&[Value::Int(1)]), "wrong arity misses");
        assert!(Relation::from_raw_parts(
            2,
            bulk.flat().to_vec(),
            bulk.raw_parts().1.to_vec(),
            bulk.raw_parts().2.to_vec()
        )
        .is_ok());

        for arity in 0..=3 {
            let r = mixed(arity, 500, 7 + arity as u64);
            let bulk = Relation::from_dense_rows(arity, r.len(), r.flat().to_vec()).unwrap();
            assert_same_set(&bulk, &r);
        }
    }

    #[test]
    fn bulk_build_wraps_rows_homed_at_the_last_slot() {
        // Six rows fit a table of 8 slots; homed on slot 7, five wrap to
        // the front of the table.
        let vals = same_home(8, 7, 6);
        let bulk = Relation::from_dense_rows(1, vals.len(), vals.clone()).unwrap();
        assert_eq!(bulk.raw_parts().2.len(), 8);
        for v in &vals {
            assert!(bulk.contains(&[*v]));
        }
        for v in same_home(8, 7, 12).into_iter().skip(6) {
            assert!(!bulk.contains(&[v]), "{v:?} is absent");
        }
    }

    #[test]
    fn bulk_build_rejects_duplicates_wherever_they_sit() {
        let src = spread();
        let rows = |order: &[usize]| -> Vec<Value> {
            order.iter().flat_map(|&r| src.row(r).to_vec()).collect()
        };
        let n = src.len();
        let mut dup_of_first: Vec<usize> = (0..n).collect();
        dup_of_first.push(0);
        let mut dup_of_last: Vec<usize> = vec![n - 1];
        dup_of_last.extend(0..n);
        for order in [dup_of_first, dup_of_last] {
            let err = Relation::from_dense_rows(2, order.len(), rows(&order)).unwrap_err();
            assert_eq!(err, format!("row {n} duplicates row 0"));
        }
        // Rows that share one home slot (one bucket, one key prefix) are
        // told apart; a repeat among them is caught.
        let vals = same_home(32, 5, 20);
        assert!(Relation::from_dense_rows(1, vals.len(), vals.clone()).is_ok());
        let mut repeat = vals.clone();
        repeat.insert(10, vals[3]);
        let err = Relation::from_dense_rows(1, repeat.len(), repeat).unwrap_err();
        assert_eq!(err, "row 10 duplicates row 3");
        // A zero-arity count is not bounded by the arena; it fails
        // without a per-row allocation.
        let err = Relation::from_dense_rows(0, usize::MAX / 2, Vec::new()).unwrap_err();
        assert_eq!(err, "row 1 duplicates row 0");
    }

    #[test]
    fn bulk_build_survives_a_growing_insert() {
        let src = mixed(3, 3_000, 11);
        let mut bulk = Relation::from_dense_rows(3, src.len(), src.flat().to_vec()).unwrap();
        let before = bulk.raw_parts().2.len();
        let mut added = 0i64;
        while bulk.raw_parts().2.len() == before {
            assert!(bulk.insert([Value::Int(1000 + added), Value::Int(0), Value::Int(0)]));
            added += 1;
        }
        assert_eq!(bulk.len(), src.len() + added as usize);
        for row in src.iter() {
            assert!(bulk.contains(row), "{row:?} lost in the regrow");
            assert!(!bulk.insert(row), "{row:?} re-inserted");
        }
        for i in 0..added {
            assert!(bulk.contains(&[Value::Int(1000 + i), Value::Int(0), Value::Int(0)]));
        }
    }

    #[test]
    fn tuple_orders_like_a_slice() {
        let a = Tuple::from_slice(&[Value::Int(1), Value::Int(2)]);
        let b = Tuple::from_slice(&[Value::Int(1), Value::Int(3)]);
        assert!(a < b);
        assert_eq!(a, vec![Value::Int(1), Value::Int(2)]);
    }
}
