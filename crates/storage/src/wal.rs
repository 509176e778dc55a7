//! The write-ahead log of insert batches (`wal-<gen>.log`).
//!
//! The WAL is exactly the delta-batch stream the service's maintenance
//! path consumes: one framed record per **acknowledged** insert batch,
//! appended and fsynced *before* the batch is acknowledged. Replaying the
//! tail after a snapshot load is therefore licensed incremental
//! maintenance (`V' = A'*(V ∪ Δ₀)` per batch), not an ad-hoc recovery
//! code path.
//!
//! # Framing
//!
//! ```text
//! file header (16 bytes): magic "LINRWAL1", version u32, reserved u32
//! frame:                  len u32 (payload bytes), crc u32 (CRC-32 of
//!                         payload), payload   (the crate's one frame
//!                         codec, `frame.rs`, shared with decisions.log)
//! payload:                seq u64, insert_count u64, then per insert:
//!                         pred len u64 + UTF-8 bytes, arity u64,
//!                         arity 16-byte value cells (snapshot encoding)
//! ```
//!
//! A torn tail — a partial frame, a frame whose CRC fails, or a length
//! that runs past EOF — marks the end of the acknowledged prefix: replay
//! stops there and **truncates** the file back to the last good frame, so
//! a later append can never land after garbage. A frame that passes its
//! CRC but decodes to nonsense (bad tag, non-monotone sequence number) is
//! not a torn write; it is corruption and surfaces as a typed error.
//!
//! # Failed appends and retry
//!
//! All I/O goes through the [`Vfs`] the [`Wal`] was opened with, and a
//! *failed* append (short write, failed fsync, ENOSPC) may leave unknown
//! bytes past the acknowledged prefix. The `Wal` tracks that with a dirty
//! flag: the next append first **rolls back** — truncates the file to the
//! last acknowledged frame and syncs — before writing anything new. A
//! retried frame therefore never lands after garbage, which is what makes
//! the service's retry-with-backoff policy safe: an append either becomes
//! a durable frame at the end of the good prefix, or it leaves no
//! acknowledged trace at all.

use crate::error::StorageError;
use crate::frame;
use crate::snapshot::{ByteReader, ByteWriter};
use crate::vfs::{Vfs, VfsFile};
use linrec_datalog::{Symbol, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub(crate) const WAL_MAGIC: [u8; 8] = *b"LINRWAL1";
/// Current WAL format version.
pub const WAL_FORMAT_VERSION: u32 = 1;

const WAL_HEADER_LEN: usize = 16;
/// Upper bound on one frame's payload; anything larger in a length word is
/// treated as a torn/garbage tail, not an allocation request.
const MAX_FRAME: u32 = 64 << 20;

const TAG_INT: u64 = 0;
const TAG_SYM: u64 = 1;

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
    vfs: Arc<dyn Vfs>,
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Bytes of acknowledged frames past the file header.
    payload_bytes: u64,
    /// Sequence number the next append will carry.
    next_seq: u64,
    /// A previous append failed partway: unknown bytes may trail the
    /// acknowledged prefix, so the next append must roll back first.
    dirty: bool,
}

fn encode_frame(seq: u64, inserts: &[(Symbol, Vec<Value>)]) -> Vec<u8> {
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
    frame::encode(&w.buf)
}

fn decode_frame(payload: &[u8], path: &Path) -> Result<Batch, StorageError> {
    let corrupt = |detail: &str| StorageError::corrupt(path, detail);
    let mut r = ByteReader::new(payload);
    let seq = r.u64().ok_or_else(|| corrupt("frame too short for seq"))?;
    let count = r
        .u64()
        .ok_or_else(|| corrupt("frame too short for count"))? as usize;
    let mut inserts = Vec::new();
    for _ in 0..count {
        let name_len = r.u64().ok_or_else(|| corrupt("insert name length"))? as usize;
        let name = r
            .take(name_len)
            .ok_or_else(|| corrupt("insert name overruns the frame"))?;
        let name = std::str::from_utf8(name).map_err(|_| corrupt("insert name is not UTF-8"))?;
        let pred = Symbol::new(name);
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
                TAG_SYM => {
                    let len = r.u64().ok_or_else(|| corrupt("symbol length"))? as usize;
                    let b = r
                        .take(len)
                        .ok_or_else(|| corrupt("symbol overruns the frame"))?;
                    let s = std::str::from_utf8(b).map_err(|_| corrupt("symbol is not UTF-8"))?;
                    tuple.push(Value::sym(s));
                }
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
    /// Open `path` for appends through `vfs`, creating it (with a synced
    /// header) when missing or empty.
    pub(crate) fn open_or_create(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Wal, StorageError> {
        let mut file = vfs
            .open_append(path)
            .map_err(|e| StorageError::io(path, e))?;
        let len = vfs.file_len(path).map_err(|e| StorageError::io(path, e))?;
        if len == 0 {
            let mut header = Vec::with_capacity(WAL_HEADER_LEN);
            header.extend_from_slice(&WAL_MAGIC);
            header.extend_from_slice(&WAL_FORMAT_VERSION.to_le_bytes());
            header.extend_from_slice(&0u32.to_le_bytes());
            file.write_all(&header)
                .and_then(|_| file.sync_data())
                .map_err(|e| StorageError::io(path, e))?;
        }
        Ok(Wal {
            vfs: Arc::clone(vfs),
            file,
            path: path.to_owned(),
            payload_bytes: 0,
            next_seq: 1,
            dirty: false,
        })
    }

    /// Replay every acknowledged batch, truncating a torn tail in place.
    /// Returns the batches in append order; afterwards the file ends at
    /// the last good frame and appends may resume.
    pub(crate) fn replay_and_truncate(&mut self) -> Result<Vec<Batch>, StorageError> {
        let bytes = self
            .vfs
            .read(&self.path)
            .map_err(|e| StorageError::io(&self.path, e))?;
        if bytes.len() < WAL_HEADER_LEN || bytes[..8] != WAL_MAGIC {
            return Err(StorageError::corrupt(&self.path, "bad WAL header"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != WAL_FORMAT_VERSION {
            return Err(StorageError::UnsupportedVersion {
                file: self.path.display().to_string(),
                found: version,
            });
        }
        let mut batches = Vec::new();
        let mut good_end = WAL_HEADER_LEN;
        let mut last_seq = 0u64;
        // A frame that is partial, over-long or fails its CRC is a torn
        // tail — the end of the trusted prefix; so is an empty one (no
        // batch encodes to nothing, but a zeroed tail reads as length 0
        // with a matching CRC of 0).
        while let Some((payload, end)) =
            frame::next(&bytes, good_end, MAX_FRAME).filter(|(payload, _)| !payload.is_empty())
        {
            // The CRC passed, so this frame was fully written and synced:
            // decode failures past this point are corruption, not tearing.
            let batch = decode_frame(payload, &self.path)?;
            if batch.seq <= last_seq {
                return Err(StorageError::corrupt(
                    &self.path,
                    format!("sequence went {} -> {}", last_seq, batch.seq),
                ));
            }
            last_seq = batch.seq;
            batches.push(batch);
            good_end = end;
        }
        if (good_end as u64) < bytes.len() as u64 {
            self.file
                .set_len(good_end as u64)
                .and_then(|_| self.file.sync_data())
                .map_err(|e| StorageError::io(&self.path, e))?;
        }
        self.payload_bytes = (good_end - WAL_HEADER_LEN) as u64;
        self.next_seq = last_seq + 1;
        self.dirty = false;
        Ok(batches)
    }

    /// Append one batch and fsync; returns `(seq, frame_bytes)`. The
    /// caller must not acknowledge the batch before this returns.
    ///
    /// On failure the batch is guaranteed absent from the acknowledged
    /// prefix, and the `Wal` remembers to roll back any partial bytes
    /// before the next append — so the caller may simply retry.
    pub(crate) fn append(
        &mut self,
        inserts: &[(Symbol, Vec<Value>)],
    ) -> Result<(u64, u64), StorageError> {
        if self.dirty {
            // A previous append may have left partial bytes; cut the file
            // back to the acknowledged prefix before writing anything.
            let good = WAL_HEADER_LEN as u64 + self.payload_bytes;
            self.file
                .set_len(good)
                .and_then(|_| self.file.sync_data())
                .map_err(|e| StorageError::io(&self.path, e))?;
            self.dirty = false;
        }
        let seq = self.next_seq;
        let frame = encode_frame(seq, inserts);
        let mut sp = linrec_obs::span("wal.append");
        sp.attr("seq", seq);
        sp.attr("bytes", frame.len());
        let obs_on = linrec_obs::enabled();
        let t_append = obs_on.then(std::time::Instant::now);
        let result = self.file.write_all(&frame).and_then(|_| {
            let _fsp = linrec_obs::span("wal.fsync");
            let t_sync = obs_on.then(std::time::Instant::now);
            let r = self.file.sync_data();
            if let (Some(t), Ok(())) = (t_sync, &r) {
                crate::profile::wal()
                    .fsync_ns
                    .observe(t.elapsed().as_nanos() as u64);
            }
            r
        });
        match result {
            Ok(()) => {
                if let Some(t) = t_append {
                    let prof = crate::profile::wal();
                    prof.append_ns.observe(t.elapsed().as_nanos() as u64);
                    prof.append_bytes.observe(frame.len() as u64);
                    prof.appends.inc();
                }
                self.next_seq += 1;
                self.payload_bytes += frame.len() as u64;
                Ok((seq, frame.len() as u64))
            }
            Err(e) => {
                if obs_on {
                    crate::profile::wal().append_errors.inc();
                }
                self.dirty = true;
                Err(StorageError::io(&self.path, e))
            }
        }
    }

    /// Bytes of acknowledged frames in the file (excluding the header).
    pub(crate) fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// Sequence number the next append will carry.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Force the next append to carry `seq` (used after a checkpoint
    /// rotates to a fresh file: the store's sequence numbering is global,
    /// not per-file).
    pub(crate) fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultKind, FaultOp, FaultPlan, FaultVfs, StdVfs};

    fn stdvfs() -> Arc<dyn Vfs> {
        Arc::new(StdVfs)
    }

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
        let mut wal = Wal::open_or_create(&stdvfs(), &path).unwrap();
        assert!(wal.replay_and_truncate().unwrap().is_empty());
        for i in 0..5 {
            let (seq, bytes) = wal.append(&batch(i)).unwrap();
            assert_eq!(seq, i as u64 + 1);
            assert!(bytes > 8);
        }
        drop(wal);
        let mut wal = Wal::open_or_create(&stdvfs(), &path).unwrap();
        let replayed = wal.replay_and_truncate().unwrap();
        assert_eq!(replayed.len(), 5);
        for (i, b) in replayed.iter().enumerate() {
            assert_eq!(b.seq, i as u64 + 1);
            assert_eq!(b.inserts, batch(i as i64));
        }
        assert_eq!(wal.next_seq(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let dir = tmpdir("torn");
        let path = dir.join("wal-0.log");
        let mut wal = Wal::open_or_create(&stdvfs(), &path).unwrap();
        for i in 0..3 {
            wal.append(&batch(i)).unwrap();
        }
        let full = std::fs::metadata(&path).unwrap().len();
        drop(wal);
        // Tear the last frame mid-payload.
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 5).unwrap();
        drop(f);
        let mut wal = Wal::open_or_create(&stdvfs(), &path).unwrap();
        let replayed = wal.replay_and_truncate().unwrap();
        assert_eq!(replayed.len(), 2, "torn third frame dropped");
        // The file shrank to the good prefix and appends continue.
        let truncated = std::fs::metadata(&path).unwrap().len();
        assert!(truncated < full - 5);
        let (seq, _) = wal.append(&batch(9)).unwrap();
        assert_eq!(seq, 3, "seq continues after the surviving prefix");
        let mut wal = Wal::open_or_create(&stdvfs(), &path).unwrap();
        assert_eq!(wal.replay_and_truncate().unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_byte_in_a_frame_ends_the_prefix_there() {
        let dir = tmpdir("flip");
        let path = dir.join("wal-0.log");
        let mut wal = Wal::open_or_create(&stdvfs(), &path).unwrap();
        let mut offsets = vec![std::fs::metadata(&path).unwrap().len()];
        for i in 0..4 {
            wal.append(&batch(i)).unwrap();
            offsets.push(std::fs::metadata(&path).unwrap().len());
        }
        drop(wal);
        // Flip one payload byte inside frame 2 (0-based): frames 0 and 1
        // survive, the rest are dropped.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = offsets[2] as usize + 12;
        bytes[target] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let mut wal = Wal::open_or_create(&stdvfs(), &path).unwrap();
        let replayed = wal.replay_and_truncate().unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), offsets[2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_header_is_a_typed_error() {
        let dir = tmpdir("header");
        let path = dir.join("wal-0.log");
        std::fs::write(&path, b"NOTAWAL!xxxxxxxx").unwrap();
        let mut wal = Wal::open_or_create(&stdvfs(), &path).unwrap();
        assert!(matches!(
            wal.replay_and_truncate(),
            Err(StorageError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_seq_is_corruption_not_tearing() {
        let dir = tmpdir("seq");
        let path = dir.join("wal-0.log");
        let mut wal = Wal::open_or_create(&stdvfs(), &path).unwrap();
        wal.append(&batch(0)).unwrap();
        wal.set_next_seq(1); // duplicate seq on the next frame
        wal.append(&batch(1)).unwrap();
        drop(wal);
        let mut wal = Wal::open_or_create(&stdvfs(), &path).unwrap();
        assert!(matches!(
            wal.replay_and_truncate(),
            Err(StorageError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_batches_and_wide_tuples_round_trip() {
        let dir = tmpdir("shapes");
        let path = dir.join("wal-0.log");
        let mut wal = Wal::open_or_create(&stdvfs(), &path).unwrap();
        wal.append(&[]).unwrap();
        let wide: Vec<Value> = (0..9).map(Value::Int).collect();
        wal.append(&[(Symbol::new("wide"), wide.clone())]).unwrap();
        wal.append(&[(Symbol::new("unit"), Vec::new())]).unwrap();
        let mut wal = Wal::open_or_create(&stdvfs(), &path).unwrap();
        let replayed = wal.replay_and_truncate().unwrap();
        assert_eq!(replayed.len(), 3);
        assert!(replayed[0].inserts.is_empty());
        assert_eq!(replayed[1].inserts[0].1, wide);
        assert_eq!(replayed[2].inserts[0].1, Vec::<Value>::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_rolls_back_so_a_retry_lands_cleanly() {
        let dir = tmpdir("rollback");
        let path = dir.join("wal-0.log");
        // Writes: 1 = header, 2 = first frame, 3 = second frame (torn).
        let fault =
            FaultVfs::new(FaultPlan::none().fail_nth(FaultOp::Write, 3, FaultKind::ShortWrite));
        let vfs: Arc<dyn Vfs> = fault.clone();
        let mut wal = Wal::open_or_create(&vfs, &path).unwrap();
        wal.replay_and_truncate().unwrap();
        wal.append(&batch(0)).unwrap();
        let good = std::fs::metadata(&path).unwrap().len();
        let err = wal.append(&batch(1)).unwrap_err();
        assert!(matches!(err, StorageError::Io { .. }));
        // Torn bytes really landed past the good prefix…
        assert!(std::fs::metadata(&path).unwrap().len() > good);
        // …but the retry rolls them back first, and the retried frame
        // carries the same sequence number the failed attempt would have.
        let (seq, _) = wal.append(&batch(1)).unwrap();
        assert_eq!(seq, 2);
        drop(wal);
        let mut wal = Wal::open_or_create(&stdvfs(), &path).unwrap();
        let replayed = wal.replay_and_truncate().unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[1].inserts, batch(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_fsync_after_a_full_write_still_rolls_back() {
        let dir = tmpdir("fsyncfail");
        let path = dir.join("wal-0.log");
        // Syncs: 1 = header sync, 2 = first append sync (fails).
        let fault = FaultVfs::new(FaultPlan::none().fail_nth(FaultOp::Sync, 2, FaultKind::Eio));
        let vfs: Arc<dyn Vfs> = fault.clone();
        let mut wal = Wal::open_or_create(&vfs, &path).unwrap();
        wal.replay_and_truncate().unwrap();
        // The frame's bytes hit the file, but the fsync failed, so the
        // batch was never acknowledgeable; the retry must re-land it.
        assert!(wal.append(&batch(0)).is_err());
        let (seq, _) = wal.append(&batch(0)).unwrap();
        assert_eq!(seq, 1);
        drop(wal);
        let mut wal = Wal::open_or_create(&stdvfs(), &path).unwrap();
        assert_eq!(wal.replay_and_truncate().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
