//! `linrec-storage` — durability for the materialized-view service:
//! on-disk arena snapshots, a batch write-ahead log, and crash-recovering
//! stores.
//!
//! The paper's framing makes recovery cheap *by construction*: a WAL of
//! insert batches is exactly the delta-batch stream the service's
//! maintenance path already consumes, so replay after a snapshot load is
//! licensed incremental maintenance (`V' = A'*(V ∪ Δ₀)`) — and since
//! insert batches are unions, which commute, the whole tail is one such
//! pass with `Δ₀` seeded from the union of its batches, not one pass per
//! batch. The boundedness certificate caps replay rounds, the commutativity
//! certificate licenses per-cluster resumes, and plan shapes with no
//! incremental form fall back to recompute, exactly as live serving does.
//! Cold start therefore costs snapshot-load + tail-replay instead of a
//! full from-scratch fixpoint.
//!
//! # Pieces
//!
//! * [`snapshot`] — the versioned, checksummed arena snapshot format:
//!   fixed-width little-endian headers, 8-byte-aligned sections, the flat
//!   row-major arenas dumped wholesale (with their cached row-id tables
//!   where portable), variable-length strings concentrated in one
//!   length-prefixed table. Designed so a future `mmap` loader can read
//!   arenas in place.
//! * `framelog` — the one CRC frame log under both logs below: prefix
//!   scan, torn-tail cut, rollback of a failed append, `write` vs `sync`.
//! * [`wal`] — insert batches as frames, fsynced before acknowledgement.
//! * [`decisions`] — `decisions.log`: plan-decision records as frames.
//! * [`store`] — the data directory: `open` → `recover` →
//!   `append_batch`/`checkpoint`, with atomic checkpoint publication
//!   (temp + rename + manifest swap) and pruning of superseded
//!   generations.
//! * [`vfs`] — the virtual filesystem everything above does its I/O
//!   through: a production [`StdVfs`] and a deterministic, seedable
//!   [`FaultVfs`] that injects ENOSPC/EIO/short-write/torn-rename faults
//!   for the crash-recovery and chaos suites.
//!
//! The crate depends only on `linrec-datalog` (and std): the service layer
//! owns *what* to persist and *when* to checkpoint; this crate owns the
//! bytes.
//!
//! # Example
//!
//! ```
//! use linrec_storage::{Store, SnapshotData};
//! use linrec_datalog::{Database, Relation, Symbol, Value};
//!
//! let dir = std::env::temp_dir().join(format!("linrec-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut store = Store::open(&dir).unwrap();
//! let recovered = store.recover().unwrap();
//! assert!(recovered.snapshot.is_none()); // fresh store
//!
//! // Acknowledge a batch: WAL-append + fsync first.
//! store.append_batch(&[(Symbol::new("e"), vec![Value::Int(1), Value::Int(2)])]).unwrap();
//!
//! // Fold the WAL into a snapshot generation.
//! let mut db = Database::new();
//! db.set_relation("e", Relation::from_pairs([(1, 2)]));
//! store.checkpoint(&SnapshotData { epoch: 1, db, views: Vec::new() }).unwrap();
//!
//! // Cold start: the snapshot loads, the (now empty) WAL tail replays.
//! let mut store = Store::open(&dir).unwrap();
//! let recovered = store.recover().unwrap();
//! assert_eq!(recovered.snapshot.unwrap().epoch, 1);
//! assert!(recovered.batches.is_empty());
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![warn(missing_docs)]

mod crc;
pub mod decisions;
pub mod error;
mod framelog;
pub mod snapshot;
pub mod store;
pub mod vfs;
pub mod wal;

pub use crc::crc32;
pub use decisions::{read_decision_log, DecisionLog};
pub use error::StorageError;
pub use snapshot::{
    decode_snapshot, encode_snapshot, view_fingerprint, SnapshotData, ViewSnapshot,
    SNAPSHOT_FORMAT_VERSION,
};
pub use store::{CheckpointPolicy, Recovered, Store, MANIFEST_FORMAT_VERSION};
pub use vfs::{
    is_transient_io, FaultKind, FaultOp, FaultPlan, FaultVfs, InjectedFault, StdVfs, Vfs, VfsFile,
};
pub use wal::{Batch, WAL_FORMAT_VERSION};
