//! The virtual filesystem the storage layer runs on — and the fault
//! injector that makes its failure handling testable.
//!
//! Every byte the durability layer touches (WAL frames, snapshot images,
//! the manifest, directory fsyncs, the stale-file sweep) goes through the
//! [`Vfs`]/[`VfsFile`] trait pair. Production uses [`StdVfs`], a thin
//! shim over `std::fs`. Tests use [`FaultVfs`], which wraps `StdVfs` and
//! injects faults according to a deterministic, seedable [`FaultPlan`]:
//! ENOSPC, EIO on the Nth write, failed or slow fsyncs, short writes that
//! leave real torn bytes on disk, and dropped renames that strand a
//! checkpoint's temp file. Because `FaultVfs` performs *real* I/O up to
//! the injected failure point, the bytes left behind are exactly what a
//! misbehaving disk would leave — the recovery code is exercised against
//! genuine torn tails and orphaned generations, not mocks.
//!
//! [`is_transient_io`] classifies a fault as *transient* or *persistent*.
//! The service's write path does not consult it: it retries every I/O
//! failure a bounded number of times with backoff, and a failure that
//! outlasts the retries degrades the service (see `linrec-service`).
//! Clearing the plan ([`FaultVfs::clear`]) models the operator fixing the
//! disk; the service's recovery probe then re-opens the store through the
//! same `Vfs` handle.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// An open file handle behind the VFS. Only the operations the storage
/// layer actually performs are exposed.
pub trait VfsFile: Send {
    /// Write the whole buffer at the current position (append-mode files
    /// write at EOF).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flush file data (not necessarily metadata) to stable storage.
    fn sync_data(&mut self) -> io::Result<()>;
    /// Flush file data and metadata to stable storage.
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncate (or extend) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// The filesystem operations the storage layer needs. Implementations
/// must be shareable across threads (the service's writer and its
/// recovery probe may hold the same handle).
pub trait Vfs: Send + Sync {
    /// Create (truncating) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Open (creating if missing) a file for reading + appending.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Length of a file in bytes.
    fn file_len(&self, path: &Path) -> io::Result<u64>;
    /// Atomically rename `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Create a directory and all parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Fsync a directory (durability of renames/creates on Linux). A
    /// platform that cannot open directories may no-op.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// File names (not paths) of the directory's entries.
    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>>;
}

/// True for I/O errors worth retrying in place (interrupted syscalls,
/// timeouts, would-block): the fault either clears on its own or never
/// involved the disk. Everything else — ENOSPC, EIO, permission errors —
/// is treated as persistent: retries may still be attempted a bounded
/// number of times, but the caller should plan for degradation.
pub fn is_transient_io(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

// --- production --------------------------------------------------------------

/// The production VFS: `std::fs`, nothing else.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

struct StdFile(std::fs::File);

impl VfsFile for StdFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut self.0, buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

impl Vfs for StdVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(std::fs::File::create(path)?)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        Ok(Box::new(StdFile(file)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Directories cannot be opened on every platform; the rename
        // itself is still atomic there, so failure to open is a no-op.
        if let Ok(d) = std::fs::File::open(path) {
            d.sync_all()?;
        }
        Ok(())
    }

    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(path)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_owned());
            }
        }
        Ok(names)
    }
}

// --- fault injection ---------------------------------------------------------

/// The operation classes a [`FaultPlan`] can target. Each class keeps its
/// own occurrence counter inside [`FaultVfs`], so "fail the 3rd write"
/// means the 3rd `write_all`/`set_len`, independent of reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// `write_all` and `set_len` on any file.
    Write,
    /// `sync_data`/`sync_all` on files and directory fsyncs.
    Sync,
    /// Whole-file reads and metadata queries.
    Read,
    /// File creation / open-for-append.
    Open,
    /// Renames (checkpoint publication).
    Rename,
    /// File removal (pruning).
    Remove,
}

const ALL_OPS: [FaultOp; 6] = [
    FaultOp::Write,
    FaultOp::Sync,
    FaultOp::Read,
    FaultOp::Open,
    FaultOp::Rename,
    FaultOp::Remove,
];

/// What an injected fault does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `ENOSPC`: the disk is full. Persistent until the plan clears.
    Enospc,
    /// `EIO`: the device errored. Persistent.
    Eio,
    /// A transient error (`Interrupted`): succeeds when retried.
    Transient,
    /// Write only half the buffer, then fail with `EIO` — real torn bytes
    /// land on disk, exactly like a crashed kernel write-back.
    ShortWrite,
    /// The rename is *not performed* and `EIO` is returned: the temp file
    /// stays stranded, the target keeps its old contents.
    DropRename,
    /// The operation succeeds, but only after sleeping — a slow disk, for
    /// exercising deadlines and health reporting rather than failure.
    Slow(Duration),
}

impl FaultKind {
    fn error(&self, op: FaultOp) -> io::Error {
        match self {
            FaultKind::Enospc => io::Error::new(
                io::ErrorKind::StorageFull,
                format!("injected ENOSPC on {op:?}"),
            ),
            FaultKind::Transient => io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected transient fault on {op:?}"),
            ),
            FaultKind::Eio | FaultKind::ShortWrite | FaultKind::DropRename => {
                io::Error::other(format!("injected EIO on {op:?}"))
            }
            FaultKind::Slow(_) => unreachable!("slow faults succeed"),
        }
    }
}

/// A deterministic fault schedule. Two construction styles compose:
/// explicit triggers (`fail_nth`) for unit tests that need one precise
/// failure, and a seeded random mode (`seeded`) for chaos suites, where
/// every op occurrence draws from an xorshift stream and faults with the
/// given per-mille probability. The same seed always yields the same
/// schedule for the same operation sequence.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Explicit triggers: fault the `nth` (1-based) occurrence of `op`.
    triggers: Vec<(FaultOp, u64, FaultKind)>,
    /// Seeded random mode.
    random: Option<RandomFaults>,
}

#[derive(Debug, Clone)]
struct RandomFaults {
    seed: u64,
    per_mille: u32,
    /// Ops eligible for random faults (chaos suites usually exempt
    /// `Read`+`Open` so the initial store open succeeds, then widen).
    ops: Vec<FaultOp>,
}

impl FaultPlan {
    /// No faults at all.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Fault the `nth` (1-based) occurrence of `op` with `kind`. Chainable.
    pub fn fail_nth(mut self, op: FaultOp, nth: u64, kind: FaultKind) -> FaultPlan {
        self.triggers.push((op, nth, kind));
        self
    }

    /// Seeded random faulting over every operation class at the given
    /// per-mille rate. Deterministic for a fixed seed and op sequence.
    pub fn seeded(seed: u64, per_mille: u32) -> FaultPlan {
        FaultPlan::seeded_ops(seed, per_mille, ALL_OPS.to_vec())
    }

    /// [`FaultPlan::seeded`] restricted to the given operation classes.
    pub fn seeded_ops(seed: u64, per_mille: u32, ops: Vec<FaultOp>) -> FaultPlan {
        FaultPlan {
            triggers: Vec::new(),
            random: Some(RandomFaults {
                // xorshift needs a nonzero state.
                seed: seed | 1,
                per_mille,
                ops,
            }),
        }
    }
}

/// One injected fault, as recorded by [`FaultVfs::last_fault`].
#[derive(Debug, Clone)]
pub struct InjectedFault {
    /// The operation class that faulted.
    pub op: FaultOp,
    /// Which occurrence of that class it was (1-based).
    pub nth: u64,
    /// The fault injected.
    pub kind: FaultKind,
    /// The path involved.
    pub path: String,
}

#[derive(Default)]
struct FaultState {
    plan: FaultPlan,
    rng: u64,
    counts: [u64; 6],
    last: Option<InjectedFault>,
}

impl FaultState {
    /// Advance the op counter and decide whether this occurrence faults.
    fn decide(&mut self, op: FaultOp, path: &Path) -> Option<FaultKind> {
        self.counts[op as usize] += 1;
        let nth = self.counts[op as usize];
        let mut hit = self
            .plan
            .triggers
            .iter()
            .find(|&&(o, n, _)| o == op && n == nth)
            .map(|&(_, _, k)| k);
        if hit.is_none() {
            if let Some(r) = &self.plan.random {
                if r.ops.contains(&op) {
                    // xorshift64*: deterministic per (seed, draw index).
                    self.rng ^= self.rng << 13;
                    self.rng ^= self.rng >> 7;
                    self.rng ^= self.rng << 17;
                    let draw = self.rng.wrapping_mul(0x2545F4914F6CDD1D);
                    if (draw % 1000) < u64::from(r.per_mille) {
                        // A second derived draw picks the kind; renames
                        // get their own failure mode.
                        hit = Some(match (draw >> 32) % 4 {
                            _ if op == FaultOp::Rename => FaultKind::DropRename,
                            0 => FaultKind::Enospc,
                            1 => FaultKind::Transient,
                            2 if op == FaultOp::Write => FaultKind::ShortWrite,
                            _ => FaultKind::Eio,
                        });
                    }
                }
            }
        }
        if let Some(kind) = hit {
            self.last = Some(InjectedFault {
                op,
                nth,
                kind,
                path: path.display().to_string(),
            });
        }
        hit
    }
}

/// The state a [`FaultVfs`] shares with every file handle it opens, so a
/// plan change is visible to already-open files too.
struct Shared {
    state: Mutex<FaultState>,
    /// Total faults injected, readable without the lock.
    injected: AtomicU64,
}

impl Shared {
    /// The fault this op draws, if any. `Slow` sleeps here and draws none.
    fn fault(&self, op: FaultOp, path: &Path) -> Option<FaultKind> {
        let kind = self.state.lock().expect("fault state").decide(op, path)?;
        self.injected.fetch_add(1, Ordering::Relaxed);
        match kind {
            FaultKind::Slow(d) => {
                std::thread::sleep(d);
                None
            }
            kind => Some(kind),
        }
    }

    /// [`Shared::fault`] as the error the op returns.
    fn check(&self, op: FaultOp, path: &Path) -> io::Result<()> {
        self.fault(op, path)
            .map_or(Ok(()), |kind| Err(kind.error(op)))
    }
}

/// A [`Vfs`] that performs real I/O through [`StdVfs`] but injects the
/// faults a [`FaultPlan`] schedules. Share one instance (via `Arc`)
/// between the service's write path and its recovery probe; clearing the
/// plan ("the disk came back") is immediately visible to both and to
/// every file handle already open.
pub struct FaultVfs {
    inner: StdVfs,
    shared: Arc<Shared>,
}

impl FaultVfs {
    /// A fault VFS starting with the given plan.
    pub fn new(plan: FaultPlan) -> Arc<FaultVfs> {
        let rng = plan.random.as_ref().map_or(0, |r| r.seed);
        Arc::new(FaultVfs {
            inner: StdVfs,
            shared: Arc::new(Shared {
                state: Mutex::new(FaultState {
                    plan,
                    rng,
                    ..FaultState::default()
                }),
                injected: AtomicU64::new(0),
            }),
        })
    }

    /// Replace the schedule (counters keep running; the random stream
    /// restarts from the new plan's seed).
    pub fn set_plan(&self, plan: FaultPlan) {
        let mut st = self.shared.state.lock().expect("fault state");
        st.rng = plan.random.as_ref().map_or(0, |r| r.seed);
        st.plan = plan;
    }

    /// Stop injecting faults — the operator fixed the disk.
    pub fn clear(&self) {
        self.set_plan(FaultPlan::none());
    }

    /// Total faults injected so far.
    pub fn injected_faults(&self) -> u64 {
        self.shared.injected.load(Ordering::Relaxed)
    }

    /// The most recent injected fault, if any.
    pub fn last_fault(&self) -> Option<InjectedFault> {
        self.shared.state.lock().expect("fault state").last.clone()
    }

    /// How many occurrences of `op` have happened so far. Occurrence
    /// counters run for the VFS's lifetime (a plan change does not reset
    /// them), so a plan targeting "the next `op`" is
    /// `fail_nth(op, vfs.op_count(op) + 1, kind)`.
    pub fn op_count(&self, op: FaultOp) -> u64 {
        let st = self.shared.state.lock().expect("fault state");
        st.counts[op as usize]
    }
}

/// A file handle that consults the shared fault state before every
/// operation.
struct FaultFile {
    inner: Box<dyn VfsFile>,
    shared: Arc<Shared>,
    path: std::path::PathBuf,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.shared.fault(FaultOp::Write, &self.path) {
            None => self.inner.write_all(buf),
            Some(FaultKind::ShortWrite) => {
                // Half the frame really lands — a torn tail.
                self.inner.write_all(&buf[..buf.len() / 2])?;
                let _ = self.inner.sync_data();
                Err(FaultKind::ShortWrite.error(FaultOp::Write))
            }
            Some(kind) => Err(kind.error(FaultOp::Write)),
        }
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.shared.check(FaultOp::Sync, &self.path)?;
        self.inner.sync_data()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.shared.check(FaultOp::Sync, &self.path)?;
        self.inner.sync_all()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.shared.check(FaultOp::Write, &self.path)?;
        self.inner.set_len(len)
    }
}

impl Vfs for FaultVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.shared.check(FaultOp::Open, path)?;
        Ok(Box::new(FaultFile {
            inner: self.inner.create(path)?,
            shared: Arc::clone(&self.shared),
            path: path.to_owned(),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.shared.check(FaultOp::Open, path)?;
        Ok(Box::new(FaultFile {
            inner: self.inner.open_append(path)?,
            shared: Arc::clone(&self.shared),
            path: path.to_owned(),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.shared.check(FaultOp::Read, path)?;
        self.inner.read(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.shared.check(FaultOp::Read, path)?;
        self.inner.file_len(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        // An injected fault (DropRename or any other) skips the rename
        // entirely: `from` stays stranded, `to` keeps its old contents —
        // the caller cannot distinguish, exactly as with a real EIO.
        self.shared.check(FaultOp::Rename, from)?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.shared.check(FaultOp::Remove, path)?;
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        // Directory creation is not a faultable op: it happens once at
        // open, and a failure there is an ordinary typed error already.
        self.inner.create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.shared.check(FaultOp::Sync, path)?;
        self.inner.sync_dir(path)
    }

    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        self.shared.check(FaultOp::Read, path)?;
        self.inner.read_dir_names(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "linrec-vfs-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn std_vfs_round_trips() {
        let dir = tmpdir("std");
        let path = dir.join("f");
        let vfs = StdVfs;
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"hello");
        assert_eq!(vfs.file_len(&path).unwrap(), 5);
        let mut f = vfs.open_append(&path).unwrap();
        f.write_all(b" world").unwrap();
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"hello world");
        let to = dir.join("g");
        vfs.rename(&path, &to).unwrap();
        assert!(vfs.read(&path).is_err());
        assert!(vfs.read_dir_names(&dir).unwrap().contains(&"g".to_owned()));
        vfs.sync_dir(&dir).unwrap();
        vfs.remove_file(&to).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fail_nth_targets_exactly_one_occurrence() {
        let dir = tmpdir("nth");
        let vfs = FaultVfs::new(FaultPlan::none().fail_nth(FaultOp::Write, 2, FaultKind::Enospc));
        let mut f = vfs.create(&dir.join("f")).unwrap();
        f.write_all(b"first").unwrap();
        let err = f.write_all(b"second").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(!is_transient_io(&err));
        f.write_all(b"third").unwrap();
        assert_eq!(vfs.injected_faults(), 1);
        let fault = vfs.last_fault().unwrap();
        assert_eq!(fault.op, FaultOp::Write);
        assert_eq!(fault.nth, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_leaves_real_torn_bytes() {
        let dir = tmpdir("short");
        let path = dir.join("f");
        let vfs =
            FaultVfs::new(FaultPlan::none().fail_nth(FaultOp::Write, 1, FaultKind::ShortWrite));
        let mut f = vfs.create(&path).unwrap();
        assert!(f.write_all(b"0123456789").is_err());
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"01234");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_rename_strands_the_source() {
        let dir = tmpdir("rename");
        let from = dir.join("tmp");
        let to = dir.join("live");
        std::fs::write(&from, b"new").unwrap();
        std::fs::write(&to, b"old").unwrap();
        let vfs =
            FaultVfs::new(FaultPlan::none().fail_nth(FaultOp::Rename, 1, FaultKind::DropRename));
        assert!(vfs.rename(&from, &to).is_err());
        assert_eq!(std::fs::read(&from).unwrap(), b"new", "source stranded");
        assert_eq!(std::fs::read(&to).unwrap(), b"old", "target untouched");
        vfs.rename(&from, &to).unwrap();
        assert_eq!(std::fs::read(&to).unwrap(), b"new");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_clearable() {
        let dir = tmpdir("seeded");
        let run = |seed: u64| -> (u64, Vec<bool>) {
            let vfs = FaultVfs::new(FaultPlan::seeded(seed, 400));
            let mut outcomes = Vec::new();
            for i in 0..32 {
                let path = dir.join(format!("f{i}"));
                let ok = vfs
                    .create(&path)
                    .and_then(|mut f| f.write_all(b"x").and_then(|_| f.sync_data()));
                outcomes.push(ok.is_ok());
            }
            (vfs.injected_faults(), outcomes)
        };
        let (faults_a, outcomes_a) = run(7);
        let (faults_b, outcomes_b) = run(7);
        assert_eq!(outcomes_a, outcomes_b, "same seed, same schedule");
        assert_eq!(faults_a, faults_b);
        assert!(faults_a > 0, "a 40% rate over 96 ops must fault");
        let (faults_c, outcomes_c) = run(8);
        assert!(
            faults_c != faults_a || outcomes_c != outcomes_a,
            "different seeds should differ"
        );

        // Clearing stops injection immediately.
        let vfs = FaultVfs::new(FaultPlan::seeded(7, 1000));
        assert!(vfs.create(&dir.join("x")).is_err());
        vfs.clear();
        for i in 0..16 {
            let mut f = vfs.create(&dir.join(format!("y{i}"))).unwrap();
            f.write_all(b"ok").unwrap();
            f.sync_data().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_faults_are_classified_retryable() {
        let dir = tmpdir("transient");
        let vfs = FaultVfs::new(FaultPlan::none().fail_nth(FaultOp::Sync, 1, FaultKind::Transient));
        let mut f = vfs.create(&dir.join("f")).unwrap();
        f.write_all(b"x").unwrap();
        let err = f.sync_data().unwrap_err();
        assert!(is_transient_io(&err));
        f.sync_data().unwrap(); // retry succeeds
        let _ = std::fs::remove_dir_all(&dir);
    }
}
