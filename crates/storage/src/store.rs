//! The durable store: a data directory of snapshot generations, one live
//! WAL, and a manifest that atomically names the trusted pair.
//!
//! # Directory layout
//!
//! ```text
//! <data-dir>/
//!   MANIFEST             generation pointer (written via temp + rename)
//!   snapshot-<gen>.snap  arena snapshot for generation <gen>  (gen ≥ 1)
//!   wal-<gen>.log        insert batches acknowledged since snapshot <gen>
//! ```
//!
//! Generation 0 is the fresh store: no snapshot yet, batches accumulate in
//! `wal-0.log` and replay over whatever initial state the caller builds
//! (for `linrec serve`, the program file's facts). Every checkpoint bumps
//! the generation: the new snapshot is written to a temp file, fsynced,
//! renamed into place, the directory fsynced; a fresh WAL is created; and
//! only then does the manifest move — so a crash at any point leaves the
//! previous generation fully intact. Old generations are pruned after the
//! manifest lands (their batches are folded into the new snapshot).
//!
//! # Write protocol
//!
//! `open` reads the manifest only. `recover` must run next: it loads and
//! validates the live snapshot, replays the WAL (truncating a torn tail),
//! and only then unlocks `append_batch`/`checkpoint` — an append may never
//! land after unvalidated bytes. `append_batch` fsyncs before returning,
//! so a batch the caller acknowledges is on disk.
//!
//! All I/O goes through the [`Vfs`] passed to [`Store::open_with`]
//! (production callers use [`Store::open`], which is `open_with` on
//! [`StdVfs`]) — the crash-recovery and chaos suites substitute a
//! `FaultVfs` to drive every path below through injected disk faults.

use crate::crc::crc32;
use crate::error::StorageError;
use crate::snapshot::{decode_snapshot, encode_snapshot, ByteReader, ByteWriter, SnapshotData};
use crate::vfs::{StdVfs, Vfs};
use crate::wal::{Batch, Wal};
use linrec_datalog::{Symbol, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MANIFEST_MAGIC: [u8; 8] = *b"LINRMAN1";
/// Current manifest format version.
pub const MANIFEST_FORMAT_VERSION: u32 = 1;
/// Manifest layout: magic 8, version u32, reserved u32, generation u64,
/// epoch u64, next_seq u64 (WAL sequence floor — keeps batch sequence
/// numbers globally monotone across checkpoint + restart), crc u32 over
/// bytes 0..40, pad u32.
const MANIFEST_LEN: usize = 48;

/// When the service should fold the WAL into a fresh snapshot generation.
/// Both knobs bound cold-start replay work; whichever trips first wins.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointPolicy {
    /// Checkpoint after this many acknowledged batches.
    pub max_wal_batches: u64,
    /// …or after the WAL holds this many payload bytes.
    pub max_wal_bytes: u64,
}

impl Default for CheckpointPolicy {
    fn default() -> CheckpointPolicy {
        CheckpointPolicy {
            max_wal_batches: 256,
            max_wal_bytes: 8 << 20,
        }
    }
}

impl CheckpointPolicy {
    /// True when the WAL pressure warrants a checkpoint.
    pub fn should_checkpoint(&self, wal_batches: u64, wal_bytes: u64) -> bool {
        wal_batches >= self.max_wal_batches || wal_bytes >= self.max_wal_bytes
    }
}

/// Everything `recover` hands back: the newest valid snapshot (if any
/// checkpoint ever completed) and the WAL tail to replay on top of it.
pub struct Recovered {
    /// The live snapshot; `None` for a store that never checkpointed
    /// (replay then starts from the caller's initial state).
    pub snapshot: Option<SnapshotData>,
    /// Acknowledged batches since that snapshot, in append order.
    pub batches: Vec<Batch>,
}

/// A durable store rooted at one data directory. See the module docs for
/// the layout and the write protocol.
pub struct Store {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    generation: u64,
    manifest_epoch: u64,
    /// Sequence floor from the manifest: the next append must carry at
    /// least this, even if the live WAL (rotated at the last checkpoint)
    /// is empty.
    manifest_seq: u64,
    wal: Option<Wal>,
    wal_batches: u64,
}

impl Store {
    /// Open (creating if needed) the store at `dir` on the production
    /// filesystem. No data is loaded yet — call [`Store::recover`] next.
    pub fn open(dir: impl AsRef<Path>) -> Result<Store, StorageError> {
        Store::open_with(dir, Arc::new(StdVfs))
    }

    /// [`Store::open`] on an explicit [`Vfs`] — the seam the fault-injection
    /// suites use to drive every I/O below through a `FaultVfs`.
    pub fn open_with(dir: impl AsRef<Path>, vfs: Arc<dyn Vfs>) -> Result<Store, StorageError> {
        let dir = dir.as_ref().to_owned();
        vfs.create_dir_all(&dir)
            .map_err(|e| StorageError::io(&dir, e))?;
        let manifest = dir.join("MANIFEST");
        let manifest_state = match vfs.read(&manifest) {
            Ok(bytes) => Some(read_manifest(&bytes, &manifest)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(StorageError::io(&manifest, e)),
        };
        if manifest_state.is_none() {
            // No manifest: the only files a crash can legitimately leave
            // here are generation 0's WAL plus orphans of a first
            // checkpoint that died before its manifest swap — and those
            // always coexist with `wal-0.log` (pruning runs after the
            // swap). Snapshot/WAL files *without* `wal-0.log` are
            // someone's data this manifest never pointed at; sweeping
            // them would destroy it, so refuse with the file list.
            check_stray_state(&*vfs, &dir)?;
        }
        let (generation, manifest_epoch, manifest_seq) = manifest_state.unwrap_or((0, 0, 1));
        sweep_stale(&*vfs, &dir, generation);
        Ok(Store {
            vfs,
            dir,
            generation,
            manifest_epoch,
            manifest_seq,
            wal: None,
            wal_batches: 0,
        })
    }

    /// The live snapshot generation (0 before the first checkpoint).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The [`Vfs`] this store performs all I/O through.
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        Arc::clone(&self.vfs)
    }

    /// Sequence number of the last batch folded into the live snapshot
    /// generation plus the replayed WAL tail — i.e. the next append's
    /// floor. Meaningful after [`Store::recover`].
    pub fn next_seq(&self) -> u64 {
        self.wal.as_ref().map_or(self.manifest_seq, Wal::next_seq)
    }

    /// WAL pressure since the last checkpoint: `(batches, payload bytes)`.
    pub fn wal_pressure(&self) -> (u64, u64) {
        (
            self.wal_batches,
            self.wal.as_ref().map_or(0, Wal::payload_bytes),
        )
    }

    fn snapshot_path(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("snapshot-{gen}.snap"))
    }

    fn wal_path(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("wal-{gen}.log"))
    }

    /// Load the newest valid snapshot and replay the WAL tail (truncating
    /// a torn tail in place). Unlocks the write paths.
    ///
    /// The contract the recovery tests enforce: this either returns a
    /// state equivalent to some acknowledged-batch prefix, or a typed
    /// [`StorageError`] — never a panic, never a silently wrong database.
    pub fn recover(&mut self) -> Result<Recovered, StorageError> {
        let mut sp = linrec_obs::span("store.recover");
        sp.attr("generation", self.generation);
        let snapshot = if self.generation > 0 {
            let path = self.snapshot_path(self.generation);
            let bytes = self
                .vfs
                .read(&path)
                .map_err(|e| StorageError::io(&path, e))?;
            let snap = decode_snapshot(&bytes, &path)?;
            if snap.epoch != self.manifest_epoch {
                return Err(StorageError::corrupt(
                    &path,
                    format!(
                        "snapshot epoch {} disagrees with manifest epoch {}",
                        snap.epoch, self.manifest_epoch
                    ),
                ));
            }
            Some(snap)
        } else {
            None
        };
        // The manifest's floor keeps sequence numbers globally monotone
        // even when the live WAL is empty (rotated at the last checkpoint,
        // then restarted).
        let wal_path = self.wal_path(self.generation);
        let (wal, batches) = Wal::open(&*self.vfs, &wal_path, self.manifest_seq)?;
        self.wal_batches = batches.len() as u64;
        self.wal = Some(wal);
        if linrec_obs::enabled() {
            sp.observe_into(linrec_obs::histogram!("linrec_storage_recover_ns"));
            linrec_obs::counter!("linrec_storage_replayed_batches_total")
                .inc_by(batches.len() as u64);
            sp.attr("replayed", batches.len());
        }
        Ok(Recovered { snapshot, batches })
    }

    /// Append one acknowledged batch to the WAL (fsynced before this
    /// returns). Returns the batch's global sequence number.
    ///
    /// On failure the batch is guaranteed absent from the acknowledged
    /// prefix and the WAL will roll any partial bytes back before the
    /// next attempt — retrying this call is always safe.
    pub fn append_batch(&mut self, inserts: &[(Symbol, Vec<Value>)]) -> Result<u64, StorageError> {
        let wal = self.wal.as_mut().ok_or(StorageError::NotRecovered)?;
        let seq = wal.append(inserts)?;
        self.wal_batches += 1;
        Ok(seq)
    }

    /// Write `data` as the next snapshot generation and atomically make it
    /// live: temp + rename + directory fsync for the snapshot, a fresh
    /// WAL, then the manifest swap. Prunes superseded generations (their
    /// batches are folded into the new snapshot). Returns the new
    /// generation number.
    ///
    /// A failure anywhere before the manifest swap leaves the previous
    /// generation fully live (orphans are swept at the next open), so the
    /// caller may keep appending to the current WAL and retry later.
    pub fn checkpoint(&mut self, data: &SnapshotData) -> Result<u64, StorageError> {
        let mut sp = linrec_obs::span("store.checkpoint");
        sp.attr("epoch", data.epoch);
        let old_wal_seq = match &self.wal {
            Some(wal) => wal.next_seq(),
            None => return Err(StorageError::NotRecovered),
        };
        let gen = self.generation + 1;

        // 1. Snapshot: temp + fsync + rename + dir fsync.
        let tmp = self.dir.join(format!("snapshot-{gen}.tmp"));
        self.publish(&tmp, &self.snapshot_path(gen), &encode_snapshot(data))?;

        // 2. Fresh WAL for the new generation; global seq numbering
        //    continues across the rotation.
        let wal_path = self.wal_path(gen);
        let _ = self.vfs.remove_file(&wal_path); // stale orphan from a crashed checkpoint
        let wal = Wal::create(&*self.vfs, &wal_path, old_wal_seq)?;

        // 3. Manifest swap: after this rename (plus dir fsync) the new
        //    generation is the one recovery will trust. The sequence floor
        //    rides along so batch numbering survives the rotation across
        //    restarts.
        let (tmp, path) = (self.dir.join("MANIFEST.tmp"), self.dir.join("MANIFEST"));
        self.publish(&tmp, &path, &encode_manifest(gen, data.epoch, old_wal_seq))?;

        // 4. Prune the generation just superseded — best-effort: a
        //    leftover file is disk waste, not a correctness problem, and
        //    anything older was already removed by an earlier checkpoint
        //    or by `open`'s stale sweep.
        let _ = self.vfs.remove_file(&self.snapshot_path(self.generation));
        let _ = self.vfs.remove_file(&self.wal_path(self.generation));

        self.generation = gen;
        self.manifest_epoch = data.epoch;
        self.manifest_seq = old_wal_seq;
        self.wal = Some(wal);
        self.wal_batches = 0;
        if linrec_obs::enabled() {
            sp.observe_into(linrec_obs::histogram!("linrec_storage_checkpoint_ns"));
            linrec_obs::counter!("linrec_storage_checkpoints_total").inc();
            sp.attr("generation", gen);
        }
        Ok(gen)
    }

    /// Make `bytes` the contents of `path` atomically: write and fsync
    /// `tmp`, rename it over `path`, then fsync the data directory.
    fn publish(&self, tmp: &Path, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        let mut f = self.vfs.create(tmp).map_err(|e| StorageError::io(tmp, e))?;
        f.write_all(bytes)
            .and_then(|()| f.sync_all())
            .map_err(|e| StorageError::io(tmp, e))?;
        drop(f);
        let dir = &self.dir;
        self.vfs
            .rename(tmp, path)
            .map_err(|e| StorageError::io(path, e))?;
        self.vfs.sync_dir(dir).map_err(|e| StorageError::io(dir, e))
    }
}

/// With no manifest present, any snapshot/WAL file not explained by the
/// write protocol (see [`Store::open_with`]) makes the directory
/// untrustworthy: return a typed error naming the files instead of
/// sweeping them.
fn check_stray_state(vfs: &dyn Vfs, dir: &Path) -> Result<(), StorageError> {
    let Ok(names) = vfs.read_dir_names(dir) else {
        return Ok(()); // unreadable dir surfaces as an Io error later
    };
    if names.iter().any(|n| n == "wal-0.log") {
        return Ok(()); // a fresh store's own state, possibly mid-first-checkpoint
    }
    let mut strays: Vec<String> = names
        .into_iter()
        .filter(|n| {
            let is_snap = n.starts_with("snapshot-") && n.ends_with(".snap");
            let is_wal = n.starts_with("wal-") && n.ends_with(".log");
            is_snap || is_wal
        })
        .collect();
    if strays.is_empty() {
        Ok(())
    } else {
        strays.sort();
        Err(StorageError::StrayState {
            dir: dir.display().to_string(),
            files: strays,
        })
    }
}

/// Remove files that are not part of the live generation: superseded
/// snapshots/WALs a crashed process never pruned, orphans of a checkpoint
/// that crashed before its manifest swap, and stray temp files. One
/// directory listing at open, so checkpoints stay O(1) in the store's age.
fn sweep_stale(vfs: &dyn Vfs, dir: &Path, live_gen: u64) {
    let Ok(names) = vfs.read_dir_names(dir) else {
        return;
    };
    for name in names {
        let stale = if let Some(g) = name
            .strip_prefix("snapshot-")
            .and_then(|r| r.strip_suffix(".snap"))
        {
            g.parse::<u64>().is_ok_and(|g| g != live_gen)
        } else if let Some(g) = name
            .strip_prefix("wal-")
            .and_then(|r| r.strip_suffix(".log"))
        {
            g.parse::<u64>().is_ok_and(|g| g != live_gen)
        } else {
            name.ends_with(".tmp")
        };
        if stale {
            let _ = vfs.remove_file(&dir.join(&name));
        }
    }
}

fn encode_manifest(generation: u64, epoch: u64, next_seq: u64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.bytes(&MANIFEST_MAGIC);
    w.u32(MANIFEST_FORMAT_VERSION);
    w.u32(0);
    w.u64(generation);
    w.u64(epoch);
    w.u64(next_seq);
    let crc = crc32(&w.buf);
    w.u32(crc);
    w.u32(0);
    w.buf
}

/// `(generation, epoch, next_seq)` from a manifest file's bytes.
fn read_manifest(bytes: &[u8], path: &Path) -> Result<(u64, u64, u64), StorageError> {
    let mut r = ByteReader::new(bytes);
    let fields = (|| {
        r.take(8)
            .filter(|magic| *magic == MANIFEST_MAGIC && bytes.len() == MANIFEST_LEN)?;
        Some((r.u32()?, r.u32()?, r.u64()?, r.u64()?, r.u64()?, r.u32()?))
    })();
    let Some((version, _reserved, generation, epoch, next_seq, crc)) = fields else {
        return Err(StorageError::corrupt(path, "bad manifest"));
    };
    if crc32(&bytes[..40]) != crc {
        return Err(StorageError::corrupt(path, "manifest checksum mismatch"));
    }
    if version != MANIFEST_FORMAT_VERSION {
        return Err(StorageError::UnsupportedVersion {
            file: path.display().to_string(),
            found: version,
        });
    }
    Ok((generation, epoch, next_seq.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::ViewSnapshot;
    use crate::vfs::{FaultKind, FaultOp, FaultPlan, FaultVfs};
    use linrec_datalog::{Database, Relation};
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "linrec-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn state(epoch: u64, edges: &[(i64, i64)]) -> SnapshotData {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs(edges.iter().copied()));
        SnapshotData {
            epoch,
            db,
            views: vec![ViewSnapshot {
                name: "tc".into(),
                fingerprint: "seed=e|rule".into(),
                relation: Arc::new(Relation::from_pairs(edges.iter().copied())),
            }],
        }
    }

    fn pair_batch(i: i64) -> Vec<(Symbol, Vec<Value>)> {
        vec![(Symbol::new("e"), vec![Value::Int(i), Value::Int(i + 1)])]
    }

    #[test]
    fn fresh_store_recovers_empty_and_accepts_batches() {
        let dir = tmpdir("fresh");
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.generation(), 0);
        let rec = store.recover().unwrap();
        assert!(rec.snapshot.is_none());
        assert!(rec.batches.is_empty());
        assert_eq!(store.append_batch(&pair_batch(1)).unwrap(), 1);
        assert_eq!(store.append_batch(&pair_batch(2)).unwrap(), 2);
        assert_eq!(store.wal_pressure().0, 2);

        // Reopen: the two batches replay from generation 0's WAL.
        let mut store = Store::open(&dir).unwrap();
        let rec = store.recover().unwrap();
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.batches.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writes_before_recover_are_refused() {
        let dir = tmpdir("norecover");
        let mut store = Store::open(&dir).unwrap();
        assert!(matches!(
            store.append_batch(&pair_batch(1)),
            Err(StorageError::NotRecovered)
        ));
        assert!(matches!(
            store.checkpoint(&state(1, &[(1, 2)])),
            Err(StorageError::NotRecovered)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rotates_generation_and_prunes() {
        let dir = tmpdir("rotate");
        let mut store = Store::open(&dir).unwrap();
        store.recover().unwrap();
        store.append_batch(&pair_batch(1)).unwrap();
        let gen = store.checkpoint(&state(3, &[(1, 2), (2, 3)])).unwrap();
        assert_eq!(gen, 1);
        assert_eq!(store.wal_pressure(), (0, 0));
        // Old generation files are gone; the new pair exists.
        assert!(!dir.join("wal-0.log").exists());
        assert!(dir.join("snapshot-1.snap").exists());
        assert!(dir.join("wal-1.log").exists());
        // Seq numbering survives the rotation.
        assert_eq!(store.append_batch(&pair_batch(3)).unwrap(), 2);

        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.generation(), 1);
        let rec = store.recover().unwrap();
        let snap = rec.snapshot.unwrap();
        assert_eq!(snap.epoch, 3);
        assert_eq!(snap.db.relation_named("e").unwrap().len(), 2);
        assert_eq!(snap.views[0].name, "tc");
        assert_eq!(rec.batches.len(), 1);
        assert_eq!(rec.batches[0].seq, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequence_numbers_survive_checkpoint_plus_restart() {
        // Regression: the rotated WAL is empty after a checkpoint, so
        // without the manifest's sequence floor a restart would hand out
        // seq 1 again.
        let dir = tmpdir("seqfloor");
        let mut store = Store::open(&dir).unwrap();
        store.recover().unwrap();
        for i in 0..3 {
            assert_eq!(store.append_batch(&pair_batch(i)).unwrap(), i as u64 + 1);
        }
        store.checkpoint(&state(3, &[(1, 2)])).unwrap();
        drop(store);
        let mut store = Store::open(&dir).unwrap();
        let rec = store.recover().unwrap();
        assert!(rec.batches.is_empty(), "WAL was rotated at the checkpoint");
        assert_eq!(
            store.append_batch(&pair_batch(9)).unwrap(),
            4,
            "sequence numbering continues past the checkpointed prefix"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_orphans_of_a_crashed_checkpoint() {
        let dir = tmpdir("sweep");
        let mut store = Store::open(&dir).unwrap();
        store.recover().unwrap();
        store.checkpoint(&state(1, &[(1, 2)])).unwrap();
        // Fake a crashed later checkpoint (files exist, manifest does not
        // point at them) plus a stray temp file and a superseded WAL.
        std::fs::write(dir.join("snapshot-2.snap"), b"half-written").unwrap();
        std::fs::write(dir.join("wal-2.log"), b"orphan").unwrap();
        std::fs::write(dir.join("snapshot-9.tmp"), b"temp").unwrap();
        std::fs::write(dir.join("wal-0.log"), b"superseded").unwrap();
        let mut store = Store::open(&dir).unwrap();
        store.recover().unwrap();
        assert!(!dir.join("snapshot-2.snap").exists());
        assert!(!dir.join("wal-2.log").exists());
        assert!(!dir.join("snapshot-9.tmp").exists());
        assert!(!dir.join("wal-0.log").exists());
        assert!(dir.join("snapshot-1.snap").exists(), "live pair untouched");
        assert!(dir.join("wal-1.log").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_a_typed_error() {
        let dir = tmpdir("corruptsnap");
        let mut store = Store::open(&dir).unwrap();
        store.recover().unwrap();
        store.checkpoint(&state(1, &[(1, 2)])).unwrap();
        // Flip a byte deep in the snapshot body.
        let path = dir.join("snapshot-1.snap");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let mut store = Store::open(&dir).unwrap();
        assert!(matches!(store.recover(), Err(StorageError::Corrupt { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_is_a_typed_error() {
        let dir = tmpdir("corruptman");
        let mut store = Store::open(&dir).unwrap();
        store.recover().unwrap();
        store.checkpoint(&state(1, &[(1, 2)])).unwrap();
        let path = dir.join("MANIFEST");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Store::open(&dir),
            Err(StorageError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_live_snapshot_is_a_typed_error() {
        let dir = tmpdir("missingsnap");
        let mut store = Store::open(&dir).unwrap();
        store.recover().unwrap();
        store.checkpoint(&state(1, &[(1, 2)])).unwrap();
        std::fs::remove_file(dir.join("snapshot-1.snap")).unwrap();
        let mut store = Store::open(&dir).unwrap();
        assert!(matches!(store.recover(), Err(StorageError::Io { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_files_without_a_generation_are_a_typed_error() {
        // A populated directory whose MANIFEST vanished: the store must
        // name the files it refuses to trust, not silently sweep them.
        let dir = tmpdir("stray");
        let mut store = Store::open(&dir).unwrap();
        store.recover().unwrap();
        store.checkpoint(&state(1, &[(1, 2)])).unwrap();
        std::fs::remove_file(dir.join("MANIFEST")).unwrap();
        match Store::open(&dir) {
            Err(StorageError::StrayState { files, .. }) => {
                assert_eq!(files, vec!["snapshot-1.snap", "wal-1.log"]);
            }
            Err(other) => panic!("expected StrayState, got {other:?}"),
            Ok(_) => panic!("expected StrayState, got a store"),
        }
        // …and the files really survived the refused open.
        assert!(dir.join("snapshot-1.snap").exists());
        assert!(dir.join("wal-1.log").exists());

        // But a crashed *first* checkpoint (orphans + wal-0.log, still no
        // manifest) is the write protocol's own state: open proceeds and
        // sweeps the orphans.
        let dir2 = tmpdir("stray-wal0");
        std::fs::create_dir_all(&dir2).unwrap();
        let mut store = Store::open(&dir2).unwrap();
        store.recover().unwrap();
        store.append_batch(&pair_batch(1)).unwrap();
        std::fs::write(dir2.join("snapshot-1.snap"), b"orphan").unwrap();
        let mut store = Store::open(&dir2).unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.batches.len(), 1);
        assert!(!dir2.join("snapshot-1.snap").exists());
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn failed_checkpoint_leaves_previous_generation_live() {
        let dir = tmpdir("ckptfault");
        // Rename 1 = snapshot-1 publish: dropping it must leave gen 0
        // fully live and the WAL still appendable.
        let fault =
            FaultVfs::new(FaultPlan::none().fail_nth(FaultOp::Rename, 1, FaultKind::DropRename));
        let vfs: Arc<dyn Vfs> = fault.clone();
        let mut store = Store::open_with(&dir, vfs).unwrap();
        store.recover().unwrap();
        store.append_batch(&pair_batch(1)).unwrap();
        assert!(store.checkpoint(&state(2, &[(1, 2)])).is_err());
        assert_eq!(store.generation(), 0, "generation did not advance");
        store.append_batch(&pair_batch(2)).unwrap();
        drop(store);
        // Cold restart on the clean filesystem: gen 0 + both batches.
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.generation(), 0);
        let rec = store.recover().unwrap();
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.batches.len(), 2);
        // The stranded temp file was swept at open.
        assert!(!dir.join("snapshot-1.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_trips_on_either_knob() {
        let p = CheckpointPolicy {
            max_wal_batches: 4,
            max_wal_bytes: 1000,
        };
        assert!(!p.should_checkpoint(3, 999));
        assert!(p.should_checkpoint(4, 0));
        assert!(p.should_checkpoint(0, 1000));
    }

    #[test]
    fn recover_append_and_checkpoint_keep_their_op_counts() {
        // Per-op totals of a fixed script: fresh recover, two appends, a
        // checkpoint, a torn WAL tail, then recover and checkpoint again.
        // A change to these numbers changes which operation every
        // `fail_nth` schedule in the fault suites hits.
        const OPS: [FaultOp; 6] = [
            FaultOp::Write,
            FaultOp::Sync,
            FaultOp::Read,
            FaultOp::Open,
            FaultOp::Rename,
            FaultOp::Remove,
        ];
        let dir = tmpdir("opcounts");
        let fault = FaultVfs::new(FaultPlan::none());
        let counts = || OPS.map(|op| fault.op_count(op));
        let mut store = Store::open_with(&dir, fault.clone()).unwrap();
        store.recover().unwrap();
        store.append_batch(&pair_batch(1)).unwrap();
        let before = counts();
        store.append_batch(&pair_batch(2)).unwrap();
        let after = counts();
        let append: Vec<u64> = (0..OPS.len()).map(|i| after[i] - before[i]).collect();
        assert_eq!(
            append,
            [1, 1, 0, 0, 0, 0],
            "a WAL append is one write and one sync"
        );
        store.checkpoint(&state(2, &[(1, 2), (2, 3)])).unwrap();
        store.append_batch(&pair_batch(3)).unwrap();
        drop(store);
        let mut wal = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal-1.log"))
            .unwrap();
        std::io::Write::write_all(&mut wal, b"torn").unwrap();
        let mut store = Store::open_with(&dir, fault.clone()).unwrap();
        assert_eq!(store.recover().unwrap().batches.len(), 1);
        store
            .checkpoint(&state(3, &[(1, 2), (2, 3), (3, 4)]))
            .unwrap();
        assert_eq!(counts(), [11, 15, 12, 8, 4, 6]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
