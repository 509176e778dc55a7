//! `decisions.log` — a CRC-framed, append-only journal of plan-decision
//! records, stored next to the WAL.
//!
//! Each frame is `[len: u32 LE][crc32(payload): u32 LE][payload]` (the
//! crate's one frame codec, shared with the WAL), where the payload is
//! one decision record as UTF-8 JSON. The log is strictly
//! observability data: appends are best-effort and a failed append must
//! never fail an acknowledged batch (the service counts the error and
//! moves on), but the *format* is held to the same standard as the WAL —
//! a reader gets the longest valid frame prefix and stops at the first
//! torn or corrupt frame, and `DecisionLog::open` truncates a torn tail
//! so later appends land after valid bytes, never after garbage.
//!
//! All I/O goes through the [`Vfs`], so `FaultVfs` chaos schedules cover
//! the log exactly like the WAL and snapshots.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::StorageError;
use crate::frame;
use crate::vfs::{Vfs, VfsFile};

/// File name of the decision log inside a data directory.
pub const DECISIONS_FILE: &str = "decisions.log";

/// Frames larger than this are treated as corruption by the reader (a
/// decision record is a few KiB; 16 MiB means a scrambled length word).
const MAX_FRAME_BYTES: u32 = 16 << 20;

/// Append handle for a data directory's `decisions.log`.
pub struct DecisionLog {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Length of the valid, durable prefix. Failed appends roll the file
    /// back to this offset so a later append cannot land after a torn
    /// frame.
    len: u64,
    /// Set when a failed append could not be rolled back: the tail state
    /// is unknown, so the log refuses further writes rather than risk
    /// appending after garbage.
    poisoned: bool,
    appended: u64,
}

impl DecisionLog {
    /// Open (creating if missing) the decision log in `dir`. An existing
    /// file is scanned and a torn tail truncated, mirroring WAL recovery.
    pub fn open(vfs: &Arc<dyn Vfs>, dir: &Path) -> Result<DecisionLog, StorageError> {
        vfs.create_dir_all(dir)
            .map_err(|e| StorageError::io(dir, e))?;
        let path = dir.join(DECISIONS_FILE);
        let valid = match vfs.file_len(&path) {
            Ok(0) | Err(_) => 0,
            Ok(_) => {
                let bytes = vfs.read(&path).map_err(|e| StorageError::io(&path, e))?;
                valid_prefix_len(&bytes)
            }
        };
        let mut file = vfs
            .open_append(&path)
            .map_err(|e| StorageError::io(&path, e))?;
        let on_disk = vfs
            .file_len(&path)
            .map_err(|e| StorageError::io(&path, e))?;
        if on_disk > valid {
            file.set_len(valid)
                .and_then(|()| file.sync_data())
                .map_err(|e| StorageError::io(&path, e))?;
        }
        Ok(DecisionLog {
            file,
            path,
            len: valid,
            poisoned: false,
            appended: 0,
        })
    }

    /// Append one JSON record as a CRC frame and fsync it. On failure the
    /// file is rolled back to the last valid length; if even the rollback
    /// fails, the log poisons itself and rejects all further appends.
    pub fn append(&mut self, json: &str) -> Result<(), StorageError> {
        if self.poisoned {
            return Err(StorageError::Corrupt {
                file: self.path.display().to_string(),
                detail: "decision log poisoned by an earlier unrecoverable append failure"
                    .to_owned(),
            });
        }
        let frame = frame::encode(json.as_bytes());
        let wrote = self
            .file
            .write_all(&frame)
            .and_then(|()| self.file.sync_data());
        match wrote {
            Ok(()) => {
                self.len += frame.len() as u64;
                self.appended += 1;
                Ok(())
            }
            Err(e) => {
                if self.file.set_len(self.len).is_err() {
                    self.poisoned = true;
                }
                Err(StorageError::io(&self.path, e))
            }
        }
    }

    /// Records appended through this handle.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Read every valid record from `dir`'s decision log, oldest first. A
/// missing file yields an empty list; a torn or corrupt tail ends the
/// list at the last valid frame (never an error — the log is
/// observability data and a readable prefix is always useful).
pub fn read_decision_log(vfs: &dyn Vfs, dir: &Path) -> Result<Vec<String>, StorageError> {
    let path = dir.join(DECISIONS_FILE);
    let bytes = match vfs.read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(StorageError::io(&path, e)),
    };
    let mut out = Vec::new();
    let mut off = 0usize;
    while let Some((payload, next)) = frame::next(&bytes, off, MAX_FRAME_BYTES) {
        // Frames are written from &str, so lossy never actually lossies;
        // it just keeps a disk-corrupted record from killing the read.
        out.push(String::from_utf8_lossy(payload).into_owned());
        off = next;
    }
    Ok(out)
}

/// Length in bytes of the longest prefix of `bytes` made of valid frames.
fn valid_prefix_len(bytes: &[u8]) -> u64 {
    let mut off = 0usize;
    while let Some((_, next)) = frame::next(bytes, off, MAX_FRAME_BYTES) {
        off = next;
    }
    off as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultKind, FaultOp, FaultPlan, FaultVfs, StdVfs};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "linrec-decisions-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_records_across_reopen() {
        let dir = temp_dir("roundtrip");
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        log.append("{\"winner\":\"Direct\"}").unwrap();
        log.append("{\"winner\":\"DenseClosure\"}").unwrap();
        assert_eq!(log.appended(), 2);
        drop(log);
        let records = read_decision_log(vfs.as_ref(), &dir).unwrap();
        assert_eq!(
            records,
            vec![
                "{\"winner\":\"Direct\"}".to_string(),
                "{\"winner\":\"DenseClosure\"}".to_string()
            ]
        );
        // Reopen appends after the existing records.
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        log.append("{\"winner\":\"Decomposed\"}").unwrap();
        drop(log);
        assert_eq!(read_decision_log(vfs.as_ref(), &dir).unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_log_reads_empty() {
        let dir = temp_dir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(read_decision_log(&StdVfs, &dir).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open_and_ignored_on_read() {
        let dir = temp_dir("torn");
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        log.append("{\"seq\":1}").unwrap();
        drop(log);
        // Simulate a torn frame: a header promising more bytes than exist.
        let path = dir.join(DECISIONS_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"partial");
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            read_decision_log(vfs.as_ref(), &dir).unwrap(),
            vec!["{\"seq\":1}".to_string()]
        );
        // Open truncates the torn tail; the next append is then readable.
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        log.append("{\"seq\":2}").unwrap();
        drop(log);
        assert_eq!(
            read_decision_log(vfs.as_ref(), &dir).unwrap(),
            vec!["{\"seq\":1}".to_string(), "{\"seq\":2}".to_string()]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_syncs_the_truncation_of_a_torn_tail() {
        let dir = temp_dir("torn-sync");
        let std_vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let mut log = DecisionLog::open(&std_vfs, &dir).unwrap();
        log.append("{\"seq\":1}").unwrap();
        drop(log);
        // The one sync `open` can issue is the one that makes a cut tail
        // durable: with the first sync failing, a clean log still opens and a
        // torn one does not.
        let no_sync = || -> Arc<dyn Vfs> {
            FaultVfs::new(FaultPlan::none().fail_nth(FaultOp::Sync, 1, FaultKind::Eio))
        };
        assert!(DecisionLog::open(&no_sync(), &dir).is_ok());
        let path = dir.join(DECISIONS_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"torn");
        std::fs::write(&path, &bytes).unwrap();
        assert!(DecisionLog::open(&no_sync(), &dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frame_ends_the_readable_prefix() {
        let dir = temp_dir("corrupt");
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        log.append("{\"seq\":1}").unwrap();
        log.append("{\"seq\":2}").unwrap();
        drop(log);
        let path = dir.join(DECISIONS_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the second frame.
        let n = bytes.len();
        bytes[n - 2] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            read_decision_log(vfs.as_ref(), &dir).unwrap(),
            vec!["{\"seq\":1}".to_string()]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_rolls_back_and_keeps_the_prefix_valid() {
        let dir = temp_dir("fault");
        let vfs: Arc<dyn Vfs> =
            FaultVfs::new(FaultPlan::none().fail_nth(FaultOp::Write, 2, FaultKind::Eio));
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        log.append("{\"seq\":1}").unwrap();
        assert!(log.append("{\"seq\":2}").is_err());
        // The failed frame was rolled back; appends keep working and the
        // file stays a clean frame sequence.
        log.append("{\"seq\":3}").unwrap();
        drop(log);
        assert_eq!(
            read_decision_log(vfs.as_ref(), &dir).unwrap(),
            vec!["{\"seq\":1}".to_string(), "{\"seq\":3}".to_string()]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_chaos_always_leaves_a_valid_prefix() {
        for seed in 0..8u64 {
            let dir = temp_dir(&format!("chaos{seed}"));
            let vfs: Arc<dyn Vfs> = FaultVfs::new(FaultPlan::seeded_ops(
                seed,
                120,
                vec![FaultOp::Write, FaultOp::Sync],
            ));
            let mut log = match DecisionLog::open(&vfs, &dir) {
                Ok(log) => log,
                Err(_) => continue,
            };
            let mut acked = Vec::new();
            for i in 0..32 {
                let record = format!("{{\"seq\":{i}}}");
                if log.append(&record).is_ok() {
                    acked.push(record);
                }
            }
            drop(log);
            // Every acked record must read back, in order. Records whose
            // append *failed* may still be on disk (e.g. the frame was
            // written, the sync faulted, and the rollback faulted too),
            // so `read` may be a superset — that is loss-free too.
            let read = read_decision_log(&StdVfs, &dir).unwrap();
            let mut it = read.iter();
            for record in &acked {
                assert!(
                    it.any(|r| r == record),
                    "seed {seed}: acked record {record} lost (read back {read:?})"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
