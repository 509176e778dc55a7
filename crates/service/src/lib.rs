//! `linrec-service` — an incremental materialized-view service over the
//! certificate-carrying planner.
//!
//! The rest of the workspace answers a query by computing a fixpoint from
//! scratch. This crate keeps the answer **materialized** and maintains it
//! as the EDB grows, serving many readers concurrently — the paper's §3.1
//! point made operational: the dominant cost of recursion is re-deriving
//! (and re-eliminating) what is already known, so a service under heavy
//! traffic should derive each tuple once and then only ever touch deltas.
//!
//! # Architecture
//!
//! * **Epoch snapshots** ([`service`]) — readers serve lock-free-ish from
//!   an immutable `Arc<Snapshot>` (database + every view relation, all
//!   shared copy-on-write); a single writer, owning everything the write
//!   path mutates, applies insert batches and publishes the next epoch; a
//!   small status word keeps `health` readable mid-batch. Three locks, one
//!   order (`writer → status → current`), configuration fixed at
//!   construction ([`ServiceConfig`]). See `linrec_datalog::database` for
//!   the COW substrate.
//! * **Delta maintenance** ([`view`]) — new EDB tuples are pushed through
//!   the existing semi-naive machinery seeded with only the delta
//!   (`V' = A'*(V ∪ Δ₀)`), with the planner's certificates licensing the
//!   cheaper maintenance forms (bounded round cut-off, per-cluster
//!   resumes) and a safe fall-back to full recompute for plan shapes with
//!   no incremental form. The scan/index cache persists across batches
//!   and revalidates by relation content version.
//! * **Concurrent front end** ([`protocol`]) — the engine's
//!   [`WorkerPool`] serves the line-oriented protocol over stdin or TCP
//!   (`linrec serve`).
//! * **Durability** ([`persist`], `linrec-storage`) — an optional store:
//!   batches are write-ahead logged (append + fsync) before they are
//!   acknowledged, checkpoints fold the WAL into checksummed arena
//!   snapshots, and a cold start recovers by loading the newest snapshot
//!   and replaying the WAL tail through the same certificate-licensed
//!   maintenance path (`linrec serve --data-dir`) — as one group: the
//!   tail's insert batches are unions, they commute, so one maintenance
//!   pass over their union reaches the state batch-by-batch replay would.
//!
//! # Example
//!
//! ```
//! use linrec_service::{ViewDef, ViewService};
//! use linrec_datalog::{parse_linear_rule, Database, Relation, Symbol, Value};
//!
//! let mut db = Database::new();
//! db.set_relation("e", Relation::from_pairs([(1, 2), (2, 3)]));
//! let service = ViewService::new(db);
//! service.register_view(ViewDef {
//!     name: "tc".into(),
//!     rules: vec![parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()],
//!     seed: Symbol::new("e"),
//! }).unwrap();
//!
//! let before = service.snapshot();                    // epoch 1
//! let report = service
//!     .apply_batch([(Symbol::new("e"), vec![Value::Int(3), Value::Int(4)])])
//!     .unwrap();                                      // epoch 2
//! assert_eq!(report.views[0].mode, "incremental");
//! // The old snapshot still serves its epoch, untouched.
//! assert_eq!(before.count("tc").unwrap(), 3);
//! assert_eq!(service.snapshot().count("tc").unwrap(), 6);
//! ```

#![warn(missing_docs)]

pub mod persist;
pub mod protocol;
pub mod sentinel;
pub mod service;
pub mod view;

pub use linrec_engine::WorkerPool;
pub use linrec_storage::CheckpointPolicy;
pub use persist::{open_durable, open_durable_with_vfs, RecoveryReport};
pub use protocol::{explain_json, serve_lines, serve_tcp, Reply, Session};
pub use sentinel::DriftTrip;
pub use service::{
    spawn_degraded_probe, BatchReport, ExplainReport, HealthInfo, RetryPolicy, ServiceConfig,
    ServiceError, ServiceLimits, ServiceMode, Snapshot, ViewInfo, ViewReport, ViewService,
};
pub use view::{MaintainedView, MaintenanceMode, MaintenanceOutcome, ViewDef, DELTA_MARKER};
