//! `decisions.log` — an append-only journal of plan-decision records next
//! to the WAL: one UTF-8 JSON record per frame of the crate's frame log
//! (`framelog.rs`), with no file header. The log is observability data, so
//! an append is best-effort: the service counts a failure and moves on, and
//! an acknowledged batch never fails for it. Its bytes still get the WAL's
//! care, from the same code: `DecisionLog::open` cuts a torn tail, and a
//! failed append is rolled back before the next one. All I/O goes through
//! the [`Vfs`], so `FaultVfs` chaos schedules cover the log too.

use std::path::Path;
use std::sync::Arc;

use crate::error::StorageError;
use crate::framelog::{self, FrameLog};
use crate::vfs::Vfs;

/// File name of the decision log inside a data directory.
const DECISIONS_FILE: &str = "decisions.log";

/// Append handle for a data directory's `decisions.log`.
pub struct DecisionLog(FrameLog);

impl DecisionLog {
    /// Open (creating if missing) the decision log in `dir`. An existing
    /// file is scanned and a torn tail cut, as WAL recovery does.
    pub fn open(vfs: &Arc<dyn Vfs>, dir: &Path) -> Result<DecisionLog, StorageError> {
        vfs.create_dir_all(dir)
            .map_err(|e| StorageError::io(dir, e))?;
        let path = dir.join(DECISIONS_FILE);
        FrameLog::open(vfs.as_ref(), &path, &[], |_| Ok(()), |_| Ok(())).map(DecisionLog)
    }

    /// Append one JSON record as a CRC frame and fsync it. On failure the
    /// record is not in the durable prefix, and the next append first
    /// rolls back whatever bytes this one left.
    pub fn append(&mut self, json: &str) -> Result<(), StorageError> {
        self.0.write(json.as_bytes())?;
        self.0.sync()
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
    // Frames are written from &str, so lossy never actually lossies; it
    // just keeps a disk-corrupted record from killing the read.
    Ok(framelog::frames(&bytes)
        .map(|payload| String::from_utf8_lossy(payload).into_owned())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultKind, FaultOp, FaultPlan, FaultVfs, StdVfs};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "linrec-decisions-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn records(dir: &Path) -> Vec<String> {
        read_decision_log(&StdVfs, dir).unwrap()
    }

    #[test]
    fn round_trips_records_across_reopen() {
        let dir = temp_dir("roundtrip");
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        log.append("{\"winner\":\"Direct\"}").unwrap();
        // An empty frame would end the readable prefix, so it is refused.
        assert!(log.append("").is_err());
        log.append("{\"winner\":\"DenseClosure\"}").unwrap();
        drop(log);
        assert_eq!(
            records(&dir),
            ["{\"winner\":\"Direct\"}", "{\"winner\":\"DenseClosure\"}"]
        );
        // Reopen appends after the existing records.
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        log.append("{\"winner\":\"Decomposed\"}").unwrap();
        drop(log);
        assert_eq!(records(&dir).len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_log_reads_empty() {
        let dir = temp_dir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(records(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_metadata_read_fails_the_open_and_keeps_the_log() {
        let dir = temp_dir("statfail");
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        log.append("{\"seq\":1}").unwrap();
        log.append("{\"seq\":2}").unwrap();
        drop(log);
        let eio: Arc<dyn Vfs> =
            FaultVfs::new(FaultPlan::none().fail_nth(FaultOp::Read, 1, FaultKind::Eio));
        assert!(DecisionLog::open(&eio, &dir).is_err());
        assert_eq!(records(&dir), ["{\"seq\":1}", "{\"seq\":2}"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_zero_filled_tail_is_cut_not_read_as_records() {
        let dir = temp_dir("zeros");
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        log.append("{\"seq\":1}").unwrap();
        drop(log);
        let path = dir.join(DECISIONS_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend([0; 16]);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(records(&dir), ["{\"seq\":1}"]);
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        log.append("{\"seq\":2}").unwrap();
        drop(log);
        assert_eq!(records(&dir), ["{\"seq\":1}", "{\"seq\":2}"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_append_is_one_write_and_one_sync() {
        let dir = temp_dir("ops");
        let fault = FaultVfs::new(FaultPlan::none());
        let vfs: Arc<dyn Vfs> = fault.clone();
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        let ops = |op| fault.op_count(op);
        let before = (ops(FaultOp::Write), ops(FaultOp::Sync));
        log.append("{\"seq\":1}").unwrap();
        assert_eq!(
            (ops(FaultOp::Write), ops(FaultOp::Sync)),
            (before.0 + 1, before.1 + 1)
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
            // written, the sync faulted, and nothing was appended after
            // it), so `read` may be a superset — that is loss-free too.
            let read = records(&dir);
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
