//! The CRC frame log under both append-only logs, `wal-<gen>.log` and
//! `decisions.log`: a caller-given file header (empty for decisions.log),
//! then frames of `len u32 LE | crc32(payload) u32 LE | payload`. A reader
//! trusts the longest prefix of valid frames. It ends at the first frame
//! that is partial, over `MAX_FRAME` (a scrambled length word, not an
//! allocation request), fails its CRC, or is empty: zero-filled bytes read
//! as length 0 with a matching CRC-32 of 0.
//!
//! [`FrameLog`] is the one copy of the policy around the codec. `open` cuts
//! a torn tail and syncs the cut. The durable length advances only when a
//! `sync` succeeds. After a failed write or sync, the next `write` first
//! cuts the file back to the durable length and syncs, so a frame never
//! lands after garbage.

use crate::crc::crc32;
use crate::error::StorageError;
use crate::snapshot::{ByteReader, ByteWriter};
use crate::vfs::{Vfs, VfsFile};
use std::path::{Path, PathBuf};

/// Bytes of a frame's `len | crc` header.
pub(crate) const FRAME_HEADER_LEN: usize = 8;
const MAX_FRAME: usize = 64 << 20;

fn encode(payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(payload.len() as u32);
    w.u32(crc32(payload));
    w.bytes(payload);
    w.buf
}

/// The payloads of the longest valid frame prefix of `bytes`, in order.
pub(crate) fn frames(mut bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        let mut r = ByteReader::new(bytes);
        let (len, crc) = (r.u32()? as usize, r.u32()?);
        let valid = |p: &&[u8]| (1..=MAX_FRAME).contains(&len) && crc32(p) == crc;
        let payload = r.take(len).filter(valid)?;
        bytes = &bytes[FRAME_HEADER_LEN + len..];
        Some(payload)
    })
}

/// An append handle on a frame log; see the module docs for its policy.
pub(crate) struct FrameLog {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// The header plus every successful write, synced or not.
    len: u64,
    /// The header plus every frame a sync covered.
    durable: u64,
    /// A write or sync failed: the bytes past `durable` are unknown.
    dirty: bool,
}

impl FrameLog {
    /// Open `path` for appends without reading it, for a file the caller
    /// just made. An empty file gets a non-empty `header`, written and synced.
    pub(crate) fn create(vfs: &dyn Vfs, path: &Path, header: &[u8]) -> Result<Self, StorageError> {
        let io = |e| StorageError::io(path, e);
        let mut file = vfs.open_append(path).map_err(io)?;
        let mut len = vfs.file_len(path).map_err(io)?;
        if len == 0 && !header.is_empty() {
            file.write_all(header).map_err(io)?;
            file.sync_data().map_err(io)?;
            len = header.len() as u64;
        }
        Ok(FrameLog {
            file,
            path: path.to_owned(),
            len,
            durable: len,
            dirty: false,
        })
    }

    /// [`FrameLog::create`], then read a non-empty file: `check_header`
    /// vets its first `header.len()` bytes, and `on_payload` gets each
    /// payload of the valid frame prefix after them. A tail past that
    /// prefix is cut and the cut synced, unless a callback failed first.
    pub(crate) fn open(
        vfs: &dyn Vfs,
        path: &Path,
        header: &[u8],
        check_header: impl FnOnce(&[u8]) -> Result<(), StorageError>,
        mut on_payload: impl FnMut(&[u8]) -> Result<(), StorageError>,
    ) -> Result<Self, StorageError> {
        let mut log = FrameLog::create(vfs, path, header)?;
        if log.len == 0 {
            return Ok(log);
        }
        let bytes = vfs.read(path).map_err(|e| StorageError::io(path, e))?;
        let (head, body) = bytes
            .split_at_checked(header.len())
            .ok_or_else(|| StorageError::corrupt(path, "shorter than its header"))?;
        check_header(head)?;
        log.durable = head.len() as u64;
        for payload in frames(body) {
            on_payload(payload)?;
            log.durable += (FRAME_HEADER_LEN + payload.len()) as u64;
        }
        if log.durable < log.len {
            log.cut()?;
        }
        Ok(log)
    }

    /// Truncate the file to the durable length and sync the cut.
    fn cut(&mut self) -> Result<(), StorageError> {
        self.len = self.durable;
        let cut = self.file.set_len(self.durable);
        cut.and_then(|()| self.file.sync_data())
            .map_err(|e| self.fail(e))?;
        self.dirty = false;
        Ok(())
    }

    /// Append a frame holding `payload`, which is durable once a `sync`
    /// succeeds. A dirty log is first cut back to its durable length.
    pub(crate) fn write(&mut self, payload: &[u8]) -> Result<(), StorageError> {
        if payload.is_empty() {
            // An empty frame would end the readable prefix.
            let e = std::io::Error::new(std::io::ErrorKind::InvalidInput, "empty frame");
            return Err(StorageError::io(&self.path, e));
        }
        if self.dirty {
            self.cut()?;
        }
        let frame = encode(payload);
        self.file.write_all(&frame).map_err(|e| self.fail(e))?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Sync the file; on success every write so far is durable.
    pub(crate) fn sync(&mut self) -> Result<(), StorageError> {
        self.file.sync_data().map_err(|e| self.fail(e))?;
        self.durable = self.len;
        Ok(())
    }

    /// Mark the bytes past the durable length unknown, so the next `write`
    /// cuts them first.
    fn fail(&mut self, e: std::io::Error) -> StorageError {
        self.dirty = true;
        StorageError::io(&self.path, e)
    }

    /// Bytes known durable, header included.
    pub(crate) fn durable_len(&self) -> u64 {
        self.durable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultKind, FaultOp, FaultPlan, FaultVfs, StdVfs};
    use std::sync::Arc;

    const HEADER: &[u8] = b"HEAD";

    fn tmpfile(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "linrec-framelog-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("log")
    }

    /// Open `path` and return the log and the payloads it read.
    fn open(vfs: &dyn Vfs, path: &Path) -> Result<(FrameLog, Vec<Vec<u8>>), StorageError> {
        let mut payloads = Vec::new();
        let log = FrameLog::open(
            vfs,
            path,
            HEADER,
            |head| {
                assert_eq!(head, HEADER);
                Ok(())
            },
            |p| {
                payloads.push(p.to_vec());
                Ok(())
            },
        )?;
        Ok((log, payloads))
    }

    fn append(log: &mut FrameLog, payload: &[u8]) -> Result<(), StorageError> {
        log.write(payload)?;
        log.sync()
    }

    /// A log holding `a` and `b`; returns the file length after `a`.
    fn two_frames(path: &Path) -> u64 {
        let (mut log, read) = open(&StdVfs, path).unwrap();
        assert!(read.is_empty());
        append(&mut log, b"a").unwrap();
        let after_a = log.durable_len();
        append(&mut log, b"b").unwrap();
        after_a
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn codec_reads_the_longest_valid_prefix() {
        let mut bytes = encode(b"first");
        bytes.extend(encode(b"second"));
        let end = bytes.len();
        let all: Vec<&[u8]> = frames(&bytes).collect();
        assert_eq!(all, [&b"first"[..], &b"second"[..]]);
        assert_eq!(frames(&bytes[..end - 1]).count(), 1, "runs past EOF");
        assert_eq!(frames(&bytes[..13 + 5]).count(), 1, "partial header");
        let mut over = encode(&[7; 4]);
        over[..4].copy_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert_eq!(frames(&over).count(), 0, "length over the cap");
        bytes.extend([0; 16]);
        assert_eq!(frames(&bytes).count(), 2, "an empty frame ends the prefix");
        bytes[10] ^= 0x40;
        assert_eq!(frames(&bytes).count(), 0, "checksum failure");
    }

    #[test]
    fn open_cuts_a_bad_tail_and_syncs_the_cut() {
        // Each way the frame of `b` (the last 9 bytes) goes bad: torn, a
        // flipped payload byte, zero-filled.
        type Spoil = fn(&mut Vec<u8>);
        let tails: [(&str, Spoil); 3] = [
            ("torn", |b| b.truncate(b.len() - 1)),
            ("flipped", |b| *b.last_mut().unwrap() ^= 0xFF),
            ("zeros", |b| {
                let n = b.len();
                b[n - 9..].fill(0);
                b.extend([0; 7]);
            }),
        ];
        for (tag, spoil) in tails {
            let path = tmpfile(tag);
            let after_a = two_frames(&path);
            let mut bytes = std::fs::read(&path).unwrap();
            spoil(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            // The cut's sync is the first one `open` issues on a file that
            // already has its header: failing it fails the open.
            let no_sync =
                FaultVfs::new(FaultPlan::none().fail_nth(FaultOp::Sync, 1, FaultKind::Eio));
            assert!(open(no_sync.as_ref(), &path).is_err(), "{tag}");
            let (mut log, read) = open(&StdVfs, &path).unwrap();
            assert_eq!(read, [b"a".to_vec()], "{tag}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), after_a, "{tag}");
            append(&mut log, b"c").unwrap();
            assert_eq!(
                open(&StdVfs, &path).unwrap().1,
                [b"a".to_vec(), b"c".to_vec()]
            );
            cleanup(&path);
        }
    }

    #[test]
    fn failed_write_or_sync_is_rolled_back_by_the_next_write() {
        // Writes: 1 = header, 2 = `a`, 3 = `b`. Syncs: 1 = header, 2 = `a`,
        // 3 = `b`.
        let plans = [
            ("short-write", FaultOp::Write, FaultKind::ShortWrite),
            ("failed-sync", FaultOp::Sync, FaultKind::Eio),
        ];
        for (tag, op, kind) in plans {
            let path = tmpfile(tag);
            let vfs: Arc<dyn Vfs> = FaultVfs::new(FaultPlan::none().fail_nth(op, 3, kind));
            let (mut log, _) = open(vfs.as_ref(), &path).unwrap();
            append(&mut log, b"a").unwrap();
            let durable = log.durable_len();
            assert!(append(&mut log, b"b").is_err(), "{tag}");
            assert_eq!(
                log.durable_len(),
                durable,
                "{tag}: a failed append is not durable"
            );
            assert!(
                std::fs::metadata(&path).unwrap().len() > durable,
                "{tag}: bytes landed"
            );
            append(&mut log, b"c").unwrap();
            assert_eq!(
                open(&StdVfs, &path).unwrap().1,
                [b"a".to_vec(), b"c".to_vec()],
                "{tag}"
            );
            cleanup(&path);
        }
    }

    #[test]
    fn a_failed_rollback_is_retried_by_the_next_write() {
        let path = tmpfile("rollback");
        // Writes: 1 = header, 2 = `a`, 3 = `b` (short), 4 = the rollback's
        // cut (fails), 5 = the cut again, 6 = `c`.
        let fault = FaultVfs::new(
            FaultPlan::none()
                .fail_nth(FaultOp::Write, 3, FaultKind::ShortWrite)
                .fail_nth(FaultOp::Write, 4, FaultKind::Eio),
        );
        let (mut log, _) = open(fault.as_ref(), &path).unwrap();
        append(&mut log, b"a").unwrap();
        assert!(append(&mut log, b"b").is_err());
        assert!(append(&mut log, b"c").is_err(), "the rollback failed");
        append(&mut log, b"c").unwrap();
        assert_eq!(fault.op_count(FaultOp::Write), 6);
        assert_eq!(
            open(&StdVfs, &path).unwrap().1,
            [b"a".to_vec(), b"c".to_vec()]
        );
        cleanup(&path);
    }
}
