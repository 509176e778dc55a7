//! The on-disk arena snapshot format (`snapshot-<gen>.snap`).
//!
//! # Layout (format version 1)
//!
//! Everything is little-endian and every section starts on an 8-byte
//! boundary, so a future loader can `mmap` the file and read arenas in
//! place instead of parsing them — fixed-width headers, fixed-width
//! 16-byte value cells, and the only variable-length payloads (strings)
//! concentrated in one length-prefixed table that rows reference by index.
//!
//! ```text
//! header (64 bytes):
//!   0   magic        [8]   "LINRSNP1"
//!   8   version      u32   1
//!   12  header flags u32   0 (reserved)
//!   16  epoch        u64   service epoch the snapshot captures
//!   24  db_count     u64   # database relations
//!   32  view_count   u64   # materialized view relations
//!   40  body_len     u64   bytes following the header
//!   48  body_crc     u32   CRC-32 of the body
//!   52  reserved     u32   0
//!   56  reserved     u32   0
//!   60  header_crc   u32   CRC-32 of header bytes 0..60
//! body:
//!   string table:   count u64, then per string: len u64, bytes, pad to 8
//!   view defs:      per view: name_idx u64, fingerprint_idx u64
//!   relations:      db_count database records, then view_count view
//!                   records, each:
//!     name_idx u64, arity u64, rows u64, flags u64
//!     cells — two fixed-width layouts, chosen per relation:
//!       flags bit 1 set (every value an Int): rows*arity 8-byte cells,
//!         the raw i64 bits — the bulk-load fast path
//!       otherwise: rows*arity 16-byte cells [tag u64][payload u64],
//!         tag 0 = Int (payload = i64 bits), tag 1 = Sym (payload =
//!         string-table index)
//!     if flags bit 0 (row-id table included — set iff no Sym cell):
//!       hashes rows*8, slot_count u64, slots slot_count*4, pad to 8
//! ```
//!
//! The per-relation flag bits record the cell width and whether the
//! cached hash/row-id table was persisted. Hashes of integer values are a
//! pure function of the bytes and reload verbatim (checked against one
//! recomputed row); hashes of symbols incorporate the process-local
//! interner id, so relations with symbolic values rebuild their table on
//! load ([`Relation::from_dense_rows`]) instead of trusting a stale one.
//!
//! Corruption anywhere — header, body, structure — surfaces as
//! [`StorageError::Corrupt`]; the decoder never panics on untrusted bytes
//! (both CRCs must pass before any structural parsing happens, and the
//! structural parser still bounds-checks every read).

use crate::crc::crc32;
use crate::error::StorageError;
use linrec_datalog::hash::FastMap;
use linrec_datalog::{Database, Relation, Symbol, Value};
use std::path::Path;
use std::sync::Arc;

pub(crate) const SNAP_MAGIC: [u8; 8] = *b"LINRSNP1";
/// Current snapshot format version.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

const HEADER_LEN: usize = 64;
pub(crate) const TAG_INT: u64 = 0;
pub(crate) const TAG_SYM: u64 = 1;
/// Relation flag: the cached hash/row-id table follows the cells.
const REL_FLAG_TABLE: u64 = 1;
/// Relation flag: every value is an `Int`, stored as raw 8-byte cells.
const REL_FLAG_INT_CELLS: u64 = 2;

/// One materialized view inside a snapshot: its serving name, a
/// fingerprint of the definition that produced it (rules + seed, printed),
/// and the relation itself. Recovery compares the fingerprint against the
/// current program and falls back to re-materializing when they disagree —
/// a checkpoint taken under old rules must not silently serve for new ones.
#[derive(Clone)]
pub struct ViewSnapshot {
    /// Name the view is served under.
    pub name: String,
    /// Definition fingerprint (see [`view_fingerprint`]).
    pub fingerprint: String,
    /// The materialized relation.
    pub relation: Arc<Relation>,
}

/// Everything a checkpoint persists: the epoch, the whole database
/// (EDB + seeds), and every materialized view.
#[derive(Clone)]
pub struct SnapshotData {
    /// Service epoch the snapshot captures.
    pub epoch: u64,
    /// The database at that epoch.
    pub db: Database,
    /// Materialized views at that epoch.
    pub views: Vec<ViewSnapshot>,
}

/// Canonical fingerprint of a view definition: the seed predicate and the
/// rules, printed. Two definitions with equal fingerprints materialize the
/// same view over the same database.
pub fn view_fingerprint(seed: Symbol, rules: impl IntoIterator<Item = impl ToString>) -> String {
    let mut s = format!("seed={seed}");
    for r in rules {
        s.push('|');
        s.push_str(&r.to_string());
    }
    s
}

// --- little-endian body writer/reader --------------------------------------

pub(crate) struct ByteWriter {
    pub(crate) buf: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn new() -> ByteWriter {
        ByteWriter { buf: Vec::new() }
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Pad with zero bytes to the next 8-byte boundary.
    pub(crate) fn align8(&mut self) {
        while !self.buf.len().is_multiple_of(8) {
            self.buf.push(0);
        }
    }
}

/// Bounds-checked little-endian cursor over untrusted bytes. Every read
/// that would run past the end reports `None`; the snapshot/WAL decoders
/// turn that into a typed corruption error.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)?.try_into().ok().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)?.try_into().ok().map(u64::from_le_bytes)
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let b = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(b)
    }

    pub(crate) fn align8(&mut self) -> Option<()> {
        let pad = (8 - self.pos % 8) % 8;
        self.take(pad).map(|_| ())
    }
}

// --- string table -----------------------------------------------------------

#[derive(Default)]
struct StringTable {
    index: FastMap<String, u64>,
    strings: Vec<String>,
}

impl StringTable {
    fn intern(&mut self, s: &str) -> u64 {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        let i = self.strings.len() as u64;
        self.strings.push(s.to_owned());
        self.index.insert(s.to_owned(), i);
        i
    }
}

// --- encode -----------------------------------------------------------------

fn encode_relation(w: &mut ByteWriter, name_idx: u64, rel: &Relation, strings: &mut StringTable) {
    let (arena, hashes, slots) = rel.raw_parts();
    let all_int = arena.iter().all(|v| matches!(v, Value::Int(_)));
    w.u64(name_idx);
    w.u64(rel.arity() as u64);
    w.u64(rel.len() as u64);
    if all_int {
        // Fast path: raw 8-byte cells plus the relation's own hash/row-id
        // table, so a load is bulk copies with no rehash.
        w.u64(REL_FLAG_TABLE | REL_FLAG_INT_CELLS);
        for v in arena {
            let Value::Int(i) = v else {
                unreachable!("all_int checked")
            };
            w.u64(*i as u64);
        }
        for &h in hashes {
            w.u64(h);
        }
        w.u64(slots.len() as u64);
        for &s in slots {
            w.u32(s);
        }
        w.align8();
    } else {
        w.u64(0);
        for v in arena {
            match v {
                Value::Int(i) => {
                    w.u64(TAG_INT);
                    w.u64(*i as u64);
                }
                Value::Sym(s) => {
                    w.u64(TAG_SYM);
                    w.u64(strings.intern(s.as_str()));
                }
            }
        }
    }
}

/// Encode a snapshot to its complete file image (header + body).
pub fn encode_snapshot(data: &SnapshotData) -> Vec<u8> {
    // Deterministic order: database relations and views both sorted by
    // name, so identical states produce identical bytes.
    let mut db_rels: Vec<(Symbol, &Relation)> = data.db.iter().collect();
    db_rels.sort_by_key(|(s, _)| s.as_str());
    let mut views: Vec<&ViewSnapshot> = data.views.iter().collect();
    views.sort_by_key(|v| v.name.as_str());

    // The string table must be complete before the body is emitted (it is
    // the body's first section), so relations are encoded to a scratch
    // buffer first.
    let mut strings = StringTable::default();
    let mut defs = ByteWriter::new();
    for v in &views {
        let name_idx = strings.intern(&v.name);
        let fp_idx = strings.intern(&v.fingerprint);
        defs.u64(name_idx);
        defs.u64(fp_idx);
    }
    let mut rels = ByteWriter::new();
    for (sym, rel) in &db_rels {
        let idx = strings.intern(sym.as_str());
        encode_relation(&mut rels, idx, rel, &mut strings);
    }
    for v in &views {
        let idx = strings.intern(&v.name);
        encode_relation(&mut rels, idx, &v.relation, &mut strings);
    }

    let mut body = ByteWriter::new();
    body.u64(strings.strings.len() as u64);
    for s in &strings.strings {
        body.u64(s.len() as u64);
        body.bytes(s.as_bytes());
        body.align8();
    }
    body.bytes(&defs.buf);
    body.bytes(&rels.buf);

    let mut out = Vec::with_capacity(HEADER_LEN + body.buf.len());
    out.extend_from_slice(&SNAP_MAGIC);
    out.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&data.epoch.to_le_bytes());
    out.extend_from_slice(&(db_rels.len() as u64).to_le_bytes());
    out.extend_from_slice(&(views.len() as u64).to_le_bytes());
    out.extend_from_slice(&(body.buf.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&body.buf).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    let header_crc = crc32(&out[..60]);
    out.extend_from_slice(&header_crc.to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_LEN);
    out.extend_from_slice(&body.buf);
    out
}

// --- decode -----------------------------------------------------------------

fn corrupt(file: &Path, detail: impl Into<String>) -> StorageError {
    StorageError::corrupt(file, detail)
}

fn decode_strings<'a>(r: &mut ByteReader<'a>, file: &Path) -> Result<Vec<&'a str>, StorageError> {
    let count = r.u64().ok_or_else(|| corrupt(file, "string table count"))? as usize;
    // Each entry needs at least 8 bytes; an absurd count is corruption,
    // not an allocation request.
    if count > r.remaining() / 8 {
        return Err(corrupt(
            file,
            format!("string table claims {count} entries"),
        ));
    }
    let mut strings = Vec::with_capacity(count);
    for i in 0..count {
        let len = r.u64().ok_or_else(|| corrupt(file, "string length"))? as usize;
        let bytes = r
            .take(len)
            .ok_or_else(|| corrupt(file, format!("string {i} overruns the body")))?;
        let s = std::str::from_utf8(bytes)
            .map_err(|_| corrupt(file, format!("string {i} is not UTF-8")))?;
        strings.push(s);
        r.align8()
            .ok_or_else(|| corrupt(file, "string padding overruns the body"))?;
    }
    Ok(strings)
}

fn decode_relation(
    r: &mut ByteReader<'_>,
    strings: &[&str],
    file: &Path,
) -> Result<(String, Relation), StorageError> {
    let name_idx = r
        .u64()
        .ok_or_else(|| corrupt(file, "relation name index"))? as usize;
    let name = *strings
        .get(name_idx)
        .ok_or_else(|| corrupt(file, format!("relation name index {name_idx} out of range")))?;
    let arity = r.u64().ok_or_else(|| corrupt(file, "relation arity"))? as usize;
    let rows = r.u64().ok_or_else(|| corrupt(file, "relation row count"))? as usize;
    let flags = r.u64().ok_or_else(|| corrupt(file, "relation flags"))?;
    let int_cells = flags & REL_FLAG_INT_CELLS != 0;
    let cell_width = if int_cells { 8 } else { 16 };
    let cells = rows
        .checked_mul(arity)
        .filter(|&n| {
            n.checked_mul(cell_width)
                .is_some_and(|b| b <= r.remaining())
        })
        .ok_or_else(|| {
            corrupt(
                file,
                format!("{name}: {rows}x{arity} cells overrun the body"),
            )
        })?;
    let mut arena = Vec::with_capacity(cells);
    let mut all_int = true;
    if int_cells {
        // Bulk path: the cell region is raw i64s.
        let bytes = r.take(cells * 8).expect("sized above");
        arena.extend(
            bytes
                .chunks_exact(8)
                .map(|c| Value::Int(i64::from_le_bytes(c.try_into().unwrap()))),
        );
    } else {
        for _ in 0..cells {
            let tag = r.u64().expect("sized above");
            let payload = r.u64().expect("sized above");
            match tag {
                TAG_INT => arena.push(Value::Int(payload as i64)),
                TAG_SYM => {
                    all_int = false;
                    let s = strings.get(payload as usize).ok_or_else(|| {
                        corrupt(file, format!("{name}: symbol index {payload} out of range"))
                    })?;
                    arena.push(Value::sym(s));
                }
                other => return Err(corrupt(file, format!("{name}: unknown value tag {other}"))),
            }
        }
    }
    let rel = if flags & REL_FLAG_TABLE != 0 {
        if !all_int {
            return Err(corrupt(
                file,
                format!("{name}: persisted row-id table but symbolic cells"),
            ));
        }
        let hash_bytes = rows
            .checked_mul(8)
            .filter(|&b| b <= r.remaining())
            .ok_or_else(|| corrupt(file, format!("{name}: hash table overruns the body")))?;
        let hashes: Vec<u64> = r
            .take(hash_bytes)
            .expect("sized above")
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let slot_count = r.u64().ok_or_else(|| corrupt(file, "slot count"))? as usize;
        let slot_bytes = slot_count
            .checked_mul(4)
            .filter(|&b| b <= r.remaining())
            .ok_or_else(|| corrupt(file, format!("{name}: slot table overruns the body")))?;
        let slots: Vec<u32> = r
            .take(slot_bytes)
            .expect("sized above")
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        r.align8()
            .ok_or_else(|| corrupt(file, "slot padding overruns the body"))?;
        // A structurally invalid persisted table (or a hash-function
        // drift) falls back to the rebuild path rather than failing the
        // whole snapshot: the arena itself is CRC-protected and canonical.
        match Relation::from_raw_parts(arity, arena, hashes, slots) {
            Ok(rel) => rel,
            Err(_) => {
                return Err(corrupt(
                    file,
                    format!("{name}: persisted row-id table failed validation"),
                ))
            }
        }
    } else {
        Relation::from_dense_rows(arity, rows, arena)
            .map_err(|e| corrupt(file, format!("{name}: {e}")))?
    };
    Ok((name.to_owned(), rel))
}

/// Decode a complete snapshot file image. `file` is used only for error
/// attribution.
pub fn decode_snapshot(bytes: &[u8], file: &Path) -> Result<SnapshotData, StorageError> {
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(file, format!("{} bytes is too short", bytes.len())));
    }
    if bytes[..8] != SNAP_MAGIC {
        return Err(corrupt(file, "bad magic"));
    }
    let header_crc = u32::from_le_bytes(bytes[60..64].try_into().unwrap());
    if crc32(&bytes[..60]) != header_crc {
        return Err(corrupt(file, "header checksum mismatch"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SNAPSHOT_FORMAT_VERSION {
        return Err(StorageError::UnsupportedVersion {
            file: file.display().to_string(),
            found: version,
        });
    }
    let epoch = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let db_count = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
    let view_count = u64::from_le_bytes(bytes[32..40].try_into().unwrap()) as usize;
    let body_len = u64::from_le_bytes(bytes[40..48].try_into().unwrap()) as usize;
    let body_crc = u32::from_le_bytes(bytes[48..52].try_into().unwrap());
    let body = bytes[HEADER_LEN..]
        .get(..body_len)
        .ok_or_else(|| corrupt(file, "body shorter than the header claims"))?;
    if crc32(body) != body_crc {
        return Err(corrupt(file, "body checksum mismatch"));
    }

    let mut r = ByteReader::new(body);
    let strings = decode_strings(&mut r, file)?;
    let mut view_meta = Vec::with_capacity(view_count);
    for i in 0..view_count {
        let name_idx = r.u64().ok_or_else(|| corrupt(file, "view name index"))? as usize;
        let fp_idx = r
            .u64()
            .ok_or_else(|| corrupt(file, "view fingerprint index"))? as usize;
        let name = *strings
            .get(name_idx)
            .ok_or_else(|| corrupt(file, format!("view {i} name index out of range")))?;
        let fp = *strings
            .get(fp_idx)
            .ok_or_else(|| corrupt(file, format!("view {i} fingerprint index out of range")))?;
        view_meta.push((name.to_owned(), fp.to_owned()));
    }
    let mut db = Database::new();
    for _ in 0..db_count {
        let (name, rel) = decode_relation(&mut r, &strings, file)?;
        db.set_relation(name.as_str(), rel);
    }
    let mut views = Vec::with_capacity(view_count);
    for (name, fingerprint) in view_meta {
        let (rel_name, rel) = decode_relation(&mut r, &strings, file)?;
        if rel_name != name {
            return Err(corrupt(
                file,
                format!("view record {rel_name} does not match declared view {name}"),
            ));
        }
        views.push(ViewSnapshot {
            name,
            fingerprint,
            relation: Arc::new(rel),
        });
    }
    Ok(SnapshotData { epoch, db, views })
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrec_datalog::Relation;

    fn sample() -> SnapshotData {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2), (2, 3), (-7, 9)]));
        db.set_relation(
            "who",
            Relation::from_tuples(
                2,
                [
                    vec![Value::sym("alice"), Value::Int(1)],
                    vec![Value::sym("bob"), Value::Int(2)],
                ],
            ),
        );
        db.set_relation("pinned_empty", Relation::new(3));
        let mut zero = Relation::new(0);
        zero.insert(Vec::<Value>::new());
        db.set_relation("unit", zero);
        let tc = Relation::from_pairs([(1, 2), (1, 3), (2, 3)]);
        SnapshotData {
            epoch: 42,
            db,
            views: vec![ViewSnapshot {
                name: "tc".into(),
                fingerprint: "seed=e|p(x,y) :- p(x,z), e(z,y).".into(),
                relation: Arc::new(tc),
            }],
        }
    }

    fn assert_same_db(a: &Database, b: &Database) {
        assert_eq!(a.num_relations(), b.num_relations());
        for (sym, rel) in a.iter() {
            let other = b.relation(sym).expect("relation missing after round trip");
            assert_eq!(rel, other, "relation {sym} diverged");
            assert_eq!(rel.arity(), other.arity());
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let data = sample();
        let bytes = encode_snapshot(&data);
        assert_eq!(bytes.len() % 8, 0, "file image is 8-byte aligned");
        let back = decode_snapshot(&bytes, Path::new("test.snap")).unwrap();
        assert_eq!(back.epoch, 42);
        assert_same_db(&data.db, &back.db);
        assert_eq!(back.views.len(), 1);
        assert_eq!(back.views[0].name, "tc");
        assert_eq!(back.views[0].fingerprint, data.views[0].fingerprint);
        assert_eq!(*back.views[0].relation, *data.views[0].relation);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(encode_snapshot(&sample()), encode_snapshot(&sample()));
    }

    #[test]
    fn int_only_relations_carry_their_row_id_table() {
        let data = sample();
        let bytes = encode_snapshot(&data);
        let back = decode_snapshot(&bytes, Path::new("t")).unwrap();
        // The int-only relation reloads with membership intact (the table
        // was persisted and validated, not silently dropped).
        assert!(back
            .db
            .relation_named("e")
            .unwrap()
            .contains(&[Value::Int(-7), Value::Int(9)]));
        // The symbolic relation rebuilt its table and still answers.
        assert!(back
            .db
            .relation_named("who")
            .unwrap()
            .contains(&[Value::sym("bob"), Value::Int(2)]));
    }

    #[test]
    fn every_byte_flip_is_detected_or_harmless() {
        // Flipping any single byte must either fail decoding with a typed
        // error or (for padding bytes not covered by semantics) still
        // decode to the identical state. CRC coverage of header+body makes
        // "detected" the only real outcome.
        let data = sample();
        let bytes = encode_snapshot(&data);
        let stride = (bytes.len() / 97).max(1);
        for i in (0..bytes.len()).step_by(stride) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            match decode_snapshot(&bad, Path::new("t")) {
                Err(StorageError::Corrupt { .. })
                | Err(StorageError::UnsupportedVersion { .. }) => {}
                Err(e) => panic!("unexpected error kind at byte {i}: {e}"),
                Ok(_) => panic!("flip at byte {i} went undetected"),
            }
        }
    }

    #[test]
    fn truncations_are_detected() {
        let bytes = encode_snapshot(&sample());
        for cut in [
            0,
            7,
            HEADER_LEN - 1,
            HEADER_LEN,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            assert!(
                decode_snapshot(&bytes[..cut], Path::new("t")).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn future_versions_are_rejected_as_unsupported() {
        let mut bytes = encode_snapshot(&sample());
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        // Header CRC must be patched to reach the version check.
        let crc = crc32(&bytes[..60]);
        bytes[60..64].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_snapshot(&bytes, Path::new("t")),
            Err(StorageError::UnsupportedVersion { found: 2, .. })
        ));
    }

    #[test]
    fn fingerprints_distinguish_definitions() {
        let a = view_fingerprint(Symbol::new("e"), ["p(x,y) :- p(x,z), e(z,y)."]);
        let b = view_fingerprint(Symbol::new("e"), ["p(x,y) :- p(z,y), e(x,z)."]);
        let c = view_fingerprint(Symbol::new("f"), ["p(x,y) :- p(x,z), e(z,y)."]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            a,
            view_fingerprint(Symbol::new("e"), ["p(x,y) :- p(x,z), e(z,y)."])
        );
    }
}
