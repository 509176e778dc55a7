//! The write-ahead log of insert batches (`wal-<gen>.log`).
//!
//! The WAL is exactly the delta-batch stream the service's maintenance
//! path consumes: one framed record per **acknowledged** insert batch,
//! appended and fsynced *before* the batch is acknowledged. Replaying the
//! tail after a snapshot load is therefore licensed incremental
//! maintenance (`V' = A'*(V ∪ Δ₀)` per batch), not an ad-hoc recovery
//! code path.
//!
//! # Format
//!
//! ```text
//! file header (16 bytes): magic "LINRWAL1", version u32, reserved u32
//! then one frame (`framelog.rs`) per batch, whose payload is
//!   seq u64, insert_count u64, then per insert: pred len u64 + UTF-8
//!   bytes, arity u64, arity 16-byte value cells (snapshot encoding)
//! ```
//!
//! The frame log cuts a torn tail at replay and rolls a failed append back
//! before the next one, so a retried batch never lands after garbage. A
//! frame that passes its CRC but decodes to nonsense (bad tag, non-monotone
//! sequence number) is not a torn write: it is corruption, a typed error.

use crate::error::StorageError;
use crate::framelog::{FrameLog, FRAME_HEADER_LEN};
use crate::snapshot::{ByteReader, ByteWriter, TAG_INT, TAG_SYM};
use crate::vfs::Vfs;
use linrec_datalog::{Symbol, Value};
use std::path::Path;

const WAL_MAGIC: [u8; 8] = *b"LINRWAL1";
/// Current WAL format version.
pub const WAL_FORMAT_VERSION: u32 = 1;

const WAL_HEADER_LEN: u64 = 16;

/// One acknowledged insert batch, as recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Monotone sequence number (strictly increasing across the store's
    /// lifetime, surviving checkpoints).
    pub seq: u64,
    /// The batch's genuinely-new tuples, in insertion order.
    pub inserts: Vec<(Symbol, Vec<Value>)>,
}

/// An open WAL file positioned for appends.
pub(crate) struct Wal {
    log: FrameLog,
    /// Sequence number the next append will carry.
    next_seq: u64,
}

fn header() -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.bytes(&WAL_MAGIC);
    w.u32(WAL_FORMAT_VERSION);
    w.u32(0);
    w.buf
}

fn check_header(head: &[u8], path: &Path) -> Result<(), StorageError> {
    let mut r = ByteReader::new(head);
    match (r.take(8), r.u32()) {
        (Some(magic), Some(WAL_FORMAT_VERSION)) if magic == WAL_MAGIC => Ok(()),
        (Some(magic), Some(found)) if magic == WAL_MAGIC => Err(StorageError::UnsupportedVersion {
            file: path.display().to_string(),
            found,
        }),
        _ => Err(StorageError::corrupt(path, "bad WAL header")),
    }
}

fn encode_batch(seq: u64, inserts: &[(Symbol, Vec<Value>)]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(seq);
    w.u64(inserts.len() as u64);
    for (pred, tuple) in inserts {
        let name = pred.as_str().as_bytes();
        w.u64(name.len() as u64);
        w.bytes(name);
        w.u64(tuple.len() as u64);
        for v in tuple {
            match v {
                Value::Int(i) => {
                    w.u64(TAG_INT);
                    w.u64(*i as u64);
                }
                Value::Sym(s) => {
                    w.u64(TAG_SYM);
                    let b = s.as_str().as_bytes();
                    w.u64(b.len() as u64);
                    w.bytes(b);
                }
            }
        }
    }
    w.buf
}

/// A `len u64 + UTF-8 bytes` string of a batch payload.
fn read_str<'a>(r: &mut ByteReader<'a>, what: &str, path: &Path) -> Result<&'a str, StorageError> {
    let corrupt = |detail: String| StorageError::corrupt(path, detail);
    let len = r.u64().ok_or_else(|| corrupt(format!("{what} length")))? as usize;
    let bytes = r
        .take(len)
        .ok_or_else(|| corrupt(format!("{what} overruns the frame")))?;
    std::str::from_utf8(bytes).map_err(|_| corrupt(format!("{what} is not UTF-8")))
}

fn decode_batch(payload: &[u8], path: &Path) -> Result<Batch, StorageError> {
    let corrupt = |detail: &str| StorageError::corrupt(path, detail);
    let mut r = ByteReader::new(payload);
    let seq = r.u64().ok_or_else(|| corrupt("frame too short for seq"))?;
    let count = r
        .u64()
        .ok_or_else(|| corrupt("frame too short for count"))? as usize;
    let mut inserts = Vec::new();
    for _ in 0..count {
        let pred = Symbol::new(read_str(&mut r, "insert name", path)?);
        let arity = r.u64().ok_or_else(|| corrupt("insert arity"))? as usize;
        if arity > payload.len() {
            return Err(corrupt("insert arity overruns the frame"));
        }
        let mut tuple = Vec::with_capacity(arity);
        for _ in 0..arity {
            let tag = r.u64().ok_or_else(|| corrupt("value tag"))?;
            match tag {
                TAG_INT => {
                    let bits = r.u64().ok_or_else(|| corrupt("int payload"))?;
                    tuple.push(Value::Int(bits as i64));
                }
                TAG_SYM => tuple.push(Value::sym(read_str(&mut r, "symbol", path)?)),
                _ => return Err(corrupt("unknown value tag")),
            }
        }
        inserts.push((pred, tuple));
    }
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes inside a frame"));
    }
    Ok(Batch { seq, inserts })
}

impl Wal {
    /// Open `path` (creating it with a synced header when missing or
    /// empty) and replay it: every acknowledged batch, in append order,
    /// with a torn tail cut. The next append carries the last replayed
    /// sequence number plus one, or `seq_floor` if that is larger.
    pub(crate) fn open(
        vfs: &dyn Vfs,
        path: &Path,
        seq_floor: u64,
    ) -> Result<(Wal, Vec<Batch>), StorageError> {
        let mut batches: Vec<Batch> = Vec::new();
        let log = FrameLog::open(
            vfs,
            path,
            &header(),
            |head| check_header(head, path),
            |payload| {
                // The CRC passed, so this frame was fully written and
                // synced: decode failures are corruption, not tearing.
                let batch = decode_batch(payload, path)?;
                let last = batches.last().map_or(0, |b| b.seq);
                if batch.seq <= last {
                    let detail = format!("sequence went {last} -> {}", batch.seq);
                    return Err(StorageError::corrupt(path, detail));
                }
                batches.push(batch);
                Ok(())
            },
        )?;
        let next_seq = batches.last().map_or(1, |b| b.seq + 1).max(seq_floor);
        Ok((Wal { log, next_seq }, batches))
    }

    /// Start the WAL at `path`, a file the caller has just removed, without
    /// reading it (checkpoint rotation); its first append carries
    /// `next_seq`.
    pub(crate) fn create(vfs: &dyn Vfs, path: &Path, next_seq: u64) -> Result<Wal, StorageError> {
        let log = FrameLog::create(vfs, path, &header())?;
        Ok(Wal { log, next_seq })
    }

    /// Append one batch and fsync; returns its sequence number. The
    /// caller must not acknowledge the batch before this returns.
    ///
    /// On failure the batch is absent from the acknowledged prefix, and
    /// the frame log rolls back any partial bytes before the next append,
    /// so the caller may simply retry.
    pub(crate) fn append(&mut self, inserts: &[(Symbol, Vec<Value>)]) -> Result<u64, StorageError> {
        let seq = self.next_seq;
        let payload = encode_batch(seq, inserts);
        let frame_bytes = (FRAME_HEADER_LEN + payload.len()) as u64;
        let mut sp = linrec_obs::span("wal.append");
        sp.attr("seq", seq);
        sp.attr("bytes", frame_bytes);
        let result = self.log.write(&payload).and_then(|()| {
            let mut fsp = linrec_obs::span("wal.fsync");
            self.log.sync().inspect(|()| {
                fsp.observe_into(linrec_obs::histogram!("linrec_storage_wal_fsync_ns"));
            })
        });
        if linrec_obs::enabled() {
            if result.is_ok() {
                sp.observe_into(linrec_obs::histogram!("linrec_storage_wal_append_ns"));
                linrec_obs::histogram!("linrec_storage_wal_append_bytes").observe(frame_bytes);
                linrec_obs::counter!("linrec_storage_wal_appends_total").inc();
            } else {
                linrec_obs::counter!("linrec_storage_wal_append_errors_total").inc();
            }
        }
        result?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Bytes of acknowledged frames in the file (excluding the header).
    pub(crate) fn payload_bytes(&self) -> u64 {
        self.log.durable_len().saturating_sub(WAL_HEADER_LEN)
    }

    /// Sequence number the next append will carry.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::StdVfs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "linrec-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch(i: i64) -> Vec<(Symbol, Vec<Value>)> {
        vec![
            (Symbol::new("e"), vec![Value::Int(i), Value::Int(i + 1)]),
            (Symbol::new("who"), vec![Value::sym("alice"), Value::Int(i)]),
        ]
    }

    #[test]
    fn append_then_replay_round_trips() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal-0.log");
        let (mut wal, replayed) = Wal::open(&StdVfs, &path, 1).unwrap();
        assert!(replayed.is_empty());
        for i in 0..5 {
            assert_eq!(wal.append(&batch(i)).unwrap(), i as u64 + 1);
        }
        drop(wal);
        let (wal, replayed) = Wal::open(&StdVfs, &path, 1).unwrap();
        assert_eq!(replayed.len(), 5);
        for (i, b) in replayed.iter().enumerate() {
            assert_eq!(b.seq, i as u64 + 1);
            assert_eq!(b.inserts, batch(i as i64));
        }
        assert_eq!(wal.next_seq(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_header_and_newer_version_are_typed_errors() {
        let dir = tmpdir("header");
        let path = dir.join("wal-0.log");
        std::fs::write(&path, b"NOTAWAL!xxxxxxxx").unwrap();
        assert!(matches!(
            Wal::open(&StdVfs, &path, 1),
            Err(StorageError::Corrupt { .. })
        ));
        let mut newer = header();
        newer[8] = 2;
        std::fs::write(&path, &newer).unwrap();
        assert!(matches!(
            Wal::open(&StdVfs, &path, 1),
            Err(StorageError::UnsupportedVersion { found: 2, .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_seq_is_corruption_not_tearing() {
        let dir = tmpdir("seq");
        let path = dir.join("wal-0.log");
        // Two handles that both start at seq 1: a duplicate on disk.
        Wal::create(&StdVfs, &path, 1)
            .unwrap()
            .append(&batch(0))
            .unwrap();
        Wal::create(&StdVfs, &path, 1)
            .unwrap()
            .append(&batch(1))
            .unwrap();
        assert!(matches!(
            Wal::open(&StdVfs, &path, 1),
            Err(StorageError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_batches_and_wide_tuples_round_trip() {
        let dir = tmpdir("shapes");
        let path = dir.join("wal-0.log");
        let (mut wal, _) = Wal::open(&StdVfs, &path, 1).unwrap();
        wal.append(&[]).unwrap();
        let wide: Vec<Value> = (0..9).map(Value::Int).collect();
        wal.append(&[(Symbol::new("wide"), wide.clone())]).unwrap();
        wal.append(&[(Symbol::new("unit"), Vec::new())]).unwrap();
        let (_, replayed) = Wal::open(&StdVfs, &path, 1).unwrap();
        assert_eq!(replayed.len(), 3);
        assert!(replayed[0].inserts.is_empty());
        assert_eq!(replayed[1].inserts[0].1, wide);
        assert_eq!(replayed[2].inserts[0].1, Vec::<Value>::new());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
