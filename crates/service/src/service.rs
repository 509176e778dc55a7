//! The long-lived view service: one published snapshot, one writer, one
//! status word.
//!
//! # The three pieces
//!
//! Readers commute with the writer — they hold an immutable
//! `Arc<Snapshot>` — and everything else is serialized by the writer, so
//! [`ViewService`] is three locks, always taken in the order
//! **`writer → status → current`** (nothing acquires `writer` while
//! holding either of the other two):
//!
//! * **`current`** — the published [`Snapshot`] behind an
//!   `RwLock<Arc<_>>`: what readers see. Readers grab the `Arc` (one
//!   lock-held clone, no data copied — the database and view relations
//!   are shared copy-on-write) and serve from it for as long as they
//!   like; a snapshot is immutable once published.
//! * **`writer`** — one mutex over *everything the write path mutates*:
//!   the master database, the epoch, each registered view with the state
//!   it serves, the store and its checkpoint policy, the drift sentinel
//!   and the decision log. The sentinel only reports: a `plan-drift`
//!   event is journaled and logged, and no plan or estimate changes.
//!   [`ViewService::apply_batch`] and [`ViewService::register_view`] run
//!   under it: clone the master database (cheap COW), apply the insert
//!   batch (copying only the touched relations), maintain every view
//!   through its certificate-licensed maintenance form ([`crate::view`]),
//!   and publish the result with the epoch bumped. Readers never block
//!   writers and vice versa beyond the pointer swap.
//! * **`status`** — a small mutex over what must stay readable *while a
//!   batch runs*: the write-availability mode with its reason and fault
//!   history, and the store facts `health` prints (durable, generation,
//!   WAL pressure), which the write path copies out of the live store
//!   after every append, checkpoint, degrade and restore. `health`,
//!   `ready` and the write gate therefore never wait behind a fixpoint or
//!   an fsync.
//!
//! What is fixed for the life of the service is one plain
//! [`ServiceConfig`] taken at construction; the only runtime toggle is
//! [`ViewService::set_read_only`]. A panic under `writer` poisons it:
//! later writers answer [`ServiceError::Internal`] while readers keep
//! serving the last published epoch. `status` and `current` only ever
//! hold a fully formed value, so a poisoned guard there is recovered.
//!
//! Epochs are strictly increasing; a batch that inserts nothing new (all
//! duplicates) publishes nothing and reports the current epoch.
//!
//! # Durability (optional)
//!
//! A service opened over a [`linrec_storage::Store`] (see
//! [`crate::persist::open_durable`]) write-ahead-logs every batch: the WAL
//! append + fsync happens **before** the batch commits to the master
//! database, publishes, or is acknowledged, so an acknowledged batch is on
//! disk and an unacknowledged one never half-commits. When the WAL
//! pressure passes the [`linrec_storage::CheckpointPolicy`], the writer
//! folds the current snapshot into a fresh on-disk generation
//! (arena snapshot + rotated WAL) while still holding the writer lock —
//! readers keep serving throughout.

use crate::sentinel::{DriftTrip, Sentinel};
use crate::view::{MaintainedView, ViewDef, DELTA_MARKER};
use linrec_datalog::hash::FastMap;
use linrec_datalog::{Database, Relation, Symbol, Value};
use linrec_engine::{
    CostModel, EvalStats, Parallelism, PlanDecision, Selection, StrategyError, TraceStep,
};
use linrec_storage::{
    view_fingerprint, CheckpointPolicy, DecisionLog, SnapshotData, StorageError, Store, Vfs,
    ViewSnapshot,
};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, TryLockError};
use std::time::{Duration, Instant};

/// Errors from the service's write and query paths.
#[derive(Debug)]
pub enum ServiceError {
    /// Query or insert referenced an unknown view.
    UnknownView(String),
    /// An inserted or asked-for tuple's arity disagrees with the
    /// predicate's relation.
    ArityMismatch {
        /// The predicate inserted into or asked about.
        pred: Symbol,
        /// Arity of the stored relation.
        expected: usize,
        /// Arity of the offered tuple.
        got: usize,
    },
    /// The predicate name is reserved for the service's delta machinery.
    ReservedPredicate(String),
    /// A view is already registered under this name.
    DuplicateView(String),
    /// Planning or execution failed.
    Strategy(StrategyError),
    /// The durability layer failed (WAL append, checkpoint, recovery).
    Storage(StorageError),
    /// The static analyzer refused the view's rules at registration
    /// (error-severity findings; see
    /// [`ServiceConfig::registration_checks`] for the opt-out).
    Lint(linrec_lint::LintReport),
    /// The service is in fault-driven read-only degraded mode: persistent
    /// storage failed, reads keep serving the last published epoch, and
    /// writes are refused until the recovery probe restores the store.
    Degraded {
        /// Why the service degraded (the storage fault, verbatim).
        reason: String,
    },
    /// The service was started (or switched) read-only by the operator.
    ReadOnly,
    /// Load shedding: too many writers are already queued.
    Busy {
        /// Writers waiting when this request was shed.
        waiting: usize,
        /// The configured queue bound.
        limit: usize,
    },
    /// The request could not acquire the writer within its deadline.
    Timeout {
        /// The deadline that expired, in milliseconds.
        millis: u64,
    },
    /// A broken internal condition — today, a writer poisoned by an
    /// earlier panic. Reads keep serving the last published epoch.
    Internal(String),
}

impl ServiceError {
    /// The machine-parseable protocol code for this error — the first
    /// word after `err` in a protocol reply. Lint errors carry their own
    /// per-finding codes (`L…`/`C…`) and report `lint` here.
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::UnknownView(_) => "unknown-view",
            ServiceError::ArityMismatch { .. } => "arity",
            ServiceError::ReservedPredicate(_) => "reserved",
            ServiceError::DuplicateView(_) => "duplicate",
            ServiceError::Strategy(_) => "strategy",
            ServiceError::Storage(_) => "storage",
            ServiceError::Lint(_) => "lint",
            ServiceError::Degraded { .. } => "degraded",
            ServiceError::ReadOnly => "read-only",
            ServiceError::Busy { .. } => "busy",
            ServiceError::Timeout { .. } => "timeout",
            ServiceError::Internal(_) => "internal",
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownView(name) => write!(f, "unknown view {name}"),
            ServiceError::ArityMismatch {
                pred,
                expected,
                got,
            } => write!(f, "{pred} holds {expected}-tuples, got arity {got}"),
            ServiceError::ReservedPredicate(name) => {
                write!(f, "{name} is reserved (delta marker {DELTA_MARKER:?})")
            }
            ServiceError::DuplicateView(name) => write!(f, "view {name} already registered"),
            ServiceError::Strategy(e) => write!(f, "{e}"),
            ServiceError::Storage(e) => write!(f, "storage: {e}"),
            // One protocol-friendly line: the first error's typed
            // `<code> <span>: <message>` plus how many more there are.
            ServiceError::Lint(report) => {
                let mut errors = report.errors();
                let first = errors
                    .next()
                    .expect("a Lint error carries ≥ 1 error finding");
                write!(f, "{}", first.protocol_line())?;
                let more = errors.count();
                if more > 0 {
                    write!(f, " (+{more} more)")?;
                }
                Ok(())
            }
            ServiceError::Degraded { reason } => {
                write!(f, "service degraded to read-only: {reason}")
            }
            ServiceError::ReadOnly => write!(f, "writes disabled by operator"),
            ServiceError::Busy { waiting, limit } => {
                write!(f, "writer queue full ({waiting} waiting, limit {limit})")
            }
            ServiceError::Timeout { millis } => {
                write!(f, "request deadline of {millis}ms expired")
            }
            ServiceError::Internal(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The service's write-availability mode (reads always work).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ServiceMode {
    /// Normal operation.
    #[default]
    ReadWrite,
    /// Operator-requested read-only (`--read-only` / `set_read_only`);
    /// never auto-restores.
    ReadOnly,
    /// Fault-driven read-only: persistent storage failed. The recovery
    /// probe re-opens the store and restores read-write automatically.
    Degraded,
}

impl fmt::Display for ServiceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ServiceMode::ReadWrite => "read-write",
            ServiceMode::ReadOnly => "read-only",
            ServiceMode::Degraded => "degraded",
        })
    }
}

/// Sleep before the first write-path retry; doubles per retry.
const RETRY_INITIAL_BACKOFF: Duration = Duration::from_millis(2);
/// Write-path retry backoff cap.
const RETRY_MAX_BACKOFF: Duration = Duration::from_millis(50);

/// Bounded retry with exponential backoff for the durable write path.
/// Any I/O failure is retried (the WAL rolls partial appends back, so a
/// retry is always safe); format-level errors (corruption, version skew)
/// never are.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retry).
    pub attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { attempts: 3 }
    }
}

impl RetryPolicy {
    /// No retries at all (fail on the first fault) — chaos tests use this
    /// to make every injected fault observable.
    pub fn none() -> RetryPolicy {
        RetryPolicy { attempts: 1 }
    }

    /// Run `f`, retrying I/O failures up to the policy's attempt budget.
    fn run<T>(&self, mut f: impl FnMut() -> Result<T, StorageError>) -> Result<T, StorageError> {
        let mut backoff = RETRY_INITIAL_BACKOFF;
        let mut attempt = 1;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(e @ StorageError::Io { .. }) if attempt < self.attempts => {
                    let _ = e; // retried; only the final error surfaces
                    if linrec_obs::enabled() {
                        linrec_obs::counter!("linrec_service_storage_retries_total").inc();
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(RETRY_MAX_BACKOFF);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Interval between recovery probes of a degraded service: a write
/// arriving in degraded mode retries the store at most this often, and
/// the background probe ([`spawn_degraded_probe`]) ticks at it.
const PROBE_INTERVAL: Duration = Duration::from_millis(500);

/// Overload-control knobs for the write path.
#[derive(Debug, Clone, Copy)]
pub struct ServiceLimits {
    /// Writers allowed to queue behind the writer lock before further
    /// requests are shed with [`ServiceError::Busy`] (0 = unbounded).
    pub max_queue: usize,
    /// Deadline for acquiring the writer lock; expiry answers
    /// [`ServiceError::Timeout`]. `None` waits indefinitely.
    pub request_timeout: Option<Duration>,
    /// Tuples a protocol session may stage before `insert` answers
    /// [`ServiceError::Busy`] (0 = unbounded).
    pub max_staged: usize,
    /// Protocol requests slower than this are counted in
    /// `linrec_service_slow_requests_total` and logged to stderr with
    /// their trace ID (`None` disables the slow-request log).
    pub slow_request: Option<Duration>,
}

impl Default for ServiceLimits {
    fn default() -> ServiceLimits {
        ServiceLimits {
            max_queue: 64,
            request_timeout: None,
            max_staged: 1 << 20,
            slow_request: None,
        }
    }
}

/// A point-in-time health report (the `health`/`ready` protocol commands).
#[derive(Debug, Clone)]
pub struct HealthInfo {
    /// Write-availability mode.
    pub mode: ServiceMode,
    /// Why the service is degraded (`None` unless mode is `Degraded`).
    pub reason: Option<String>,
    /// Current published epoch.
    pub epoch: u64,
    /// Registered views.
    pub views: usize,
    /// Writers currently queued behind the writer lock.
    pub waiting_writers: usize,
    /// The configured queue bound (0 = unbounded).
    pub max_queue: usize,
    /// Whether a store is attached (even if currently degraded).
    pub durable: bool,
    /// WAL pressure `(batches, payload bytes)` since the last checkpoint;
    /// zeros while degraded or volatile.
    pub wal_batches: u64,
    /// See `wal_batches`.
    pub wal_bytes: u64,
    /// Live on-disk generation (`None` while degraded or volatile).
    pub generation: Option<u64>,
    /// Times the service has degraded over its lifetime.
    pub degradations: u64,
    /// Most recent storage fault, verbatim (`None` if none ever).
    pub last_fault: Option<String>,
}

impl From<StrategyError> for ServiceError {
    fn from(e: StrategyError) -> ServiceError {
        ServiceError::Strategy(e)
    }
}

impl From<StorageError> for ServiceError {
    fn from(e: StorageError) -> ServiceError {
        ServiceError::Storage(e)
    }
}

/// Per-view serving state inside a [`Snapshot`].
#[derive(Clone)]
pub struct ViewInfo {
    /// The materialized relation (shared, immutable).
    pub relation: Arc<Relation>,
    /// Maintenance form that produced this state (`"materialize"` for the
    /// initial build).
    pub mode: &'static str,
    /// Statistics of the maintenance/materialization that produced it.
    pub stats: EvalStats,
    /// Wall-clock of that maintenance step.
    pub maintenance_nanos: u64,
    /// Epoch at which the relation last changed.
    pub updated_epoch: u64,
    /// The view's plan-decision record (shared with the plan, so a
    /// publish copies a pointer); its `Display` form is the rationale the
    /// `stats` command prints.
    pub decision: Arc<PlanDecision>,
}

/// An immutable, epoch-stamped state of the database and every view.
pub struct Snapshot {
    /// Epoch counter (strictly increasing across published snapshots).
    pub epoch: u64,
    /// The EDB (plus seed relations) at this epoch.
    pub db: Database,
    views: FastMap<String, ViewInfo>,
}

impl Snapshot {
    /// Per-view serving state, if the view exists.
    pub fn view(&self, name: &str) -> Option<&ViewInfo> {
        self.views.get(name)
    }

    /// Registered view names (sorted, for deterministic listings).
    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.views.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of tuples in a view.
    pub fn count(&self, name: &str) -> Result<usize, ServiceError> {
        self.view(name)
            .map(|v| v.relation.len())
            .ok_or_else(|| ServiceError::UnknownView(name.to_owned()))
    }

    /// Membership test against a view. A tuple of the wrong arity is an
    /// [`ArityMismatch`](ServiceError::ArityMismatch), not an absent one.
    pub fn contains(&self, name: &str, tuple: &[Value]) -> Result<bool, ServiceError> {
        let view = self
            .view(name)
            .ok_or_else(|| ServiceError::UnknownView(name.to_owned()))?;
        if tuple.len() != view.relation.arity() {
            return Err(ServiceError::ArityMismatch {
                pred: Symbol::new(name),
                expected: view.relation.arity(),
                got: tuple.len(),
            });
        }
        Ok(view.relation.contains(tuple))
    }

    /// Tuples of a view matching a selection (all tuples when `None`),
    /// capped at `limit`.
    pub fn select(
        &self,
        name: &str,
        sel: Option<&Selection>,
        limit: usize,
    ) -> Result<Vec<Vec<Value>>, ServiceError> {
        let view = self
            .view(name)
            .ok_or_else(|| ServiceError::UnknownView(name.to_owned()))?;
        Ok(view
            .relation
            .iter()
            .filter(|t| sel.is_none_or(|sel| sel.matches(t)))
            .take(limit)
            .map(|t| t.to_vec())
            .collect())
    }
}

/// Report for one view after one batch.
#[derive(Debug)]
pub struct ViewReport {
    /// The view's name.
    pub name: String,
    /// Maintenance form that ran (`"unchanged"` when the batch did not
    /// reach the view).
    pub mode: &'static str,
    /// Statistics of the maintenance work.
    pub stats: EvalStats,
    /// Wall-clock of the maintenance step.
    pub nanos: u64,
    /// Tuples added to the view by this batch.
    pub grown_by: usize,
}

/// Result of [`ViewService::explain`]: the plan tree, the structured
/// decision record, and (with `analyze`) per-node actuals from running
/// the plan against the current snapshot.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// The view explained.
    pub view: String,
    /// Maintenance mode label (`"incremental"`, `"recompute"`, ...).
    pub mode: &'static str,
    /// Indented plan tree, closed by the rendered decision record.
    pub tree: String,
    /// The structured decision record (with actuals, when analyzed).
    pub decision: Arc<PlanDecision>,
    /// Per-node execution record (empty unless analyzed).
    pub nodes: Vec<TraceStep>,
    /// Total wall time across all nodes (ns; 0 unless analyzed).
    pub total_nanos: u64,
    /// Whether the plan actually ran (`explain analyze`).
    pub analyzed: bool,
}

/// Report for one applied batch.
#[derive(Debug)]
pub struct BatchReport {
    /// Epoch of the snapshot the batch produced (the current epoch if the
    /// batch inserted nothing new).
    pub epoch: u64,
    /// Tuples that were actually new, per predicate.
    pub inserted: usize,
    /// Per-view maintenance outcomes (empty for an all-duplicate batch).
    pub views: Vec<ViewReport>,
}

/// Everything that is fixed for the life of a service, taken at
/// construction ([`ViewService::with_config`],
/// [`crate::persist::open_durable`]). A bare [`Parallelism`] converts into
/// a config with every other field at its default.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Handed to every registered view: materialization, recompute
    /// fallbacks and large-delta maintenance rounds fan out on the shared
    /// engine pool (cost-model gated per round).
    pub par: Parallelism,
    /// Overload-control knobs.
    pub limits: ServiceLimits,
    /// Retry policy for the durable write path.
    pub retry: RetryPolicy,
    /// Deny-by-default static analysis at registration (on by default):
    /// `linrec-lint`'s structural passes run over the offered rules and
    /// error-severity findings are refused with [`ServiceError::Lint`].
    /// Off is an experiment escape hatch — an unsafe rule can still fail
    /// (or loop) at materialization time.
    pub registration_checks: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            par: Parallelism::sequential(),
            limits: ServiceLimits::default(),
            retry: RetryPolicy::default(),
            registration_checks: true,
        }
    }
}

impl From<Parallelism> for ServiceConfig {
    fn from(par: Parallelism) -> ServiceConfig {
        ServiceConfig {
            par,
            ..ServiceConfig::default()
        }
    }
}

/// A registered view together with the state it currently serves: its
/// relation is the maintenance input of the next batch and what a
/// checkpoint persists, and a published snapshot is these, collected.
struct Registered {
    view: MaintainedView,
    info: ViewInfo,
}

/// Everything the write path mutates; see the module docs.
struct Writer {
    /// The master database: the writer's working copy, snapshotted into
    /// every published epoch.
    db: Database,
    views: Vec<Registered>,
    epoch: u64,
    durability: Option<Durability>,
    /// Per-view drift state.
    sentinel: Sentinel,
    /// Optional on-disk decision log (`decisions.log` next to the WAL).
    decision_log: Option<DecisionLog>,
}

/// Durable state of a service: the store plus the checkpoint policy
/// driving WAL-to-snapshot folding. While degraded the store is `None` —
/// the handle is dropped so the recovery probe re-opens the data directory
/// from scratch (`dir` + `vfs` are kept for exactly that).
struct Durability {
    store: Option<Store>,
    policy: CheckpointPolicy,
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
}

/// What [`ViewService::health`] reports about the store, copied out of
/// the live [`Store`] by the write path so readers never touch the writer.
#[derive(Clone, Copy, Default)]
struct StoreFacts {
    durable: bool,
    generation: Option<u64>,
    wal_batches: u64,
    wal_bytes: u64,
}

impl StoreFacts {
    fn of(durability: Option<&Durability>) -> StoreFacts {
        let store = durability.and_then(|d| d.store.as_ref());
        let (wal_batches, wal_bytes) = store.map_or((0, 0), Store::wal_pressure);
        StoreFacts {
            durable: durability.is_some(),
            generation: store.map(Store::generation),
            wal_batches,
            wal_bytes,
        }
    }
}

/// What must be readable while a batch runs; see the module docs.
#[derive(Default)]
struct Status {
    kind: ServiceMode,
    /// Why the service degraded (kept while `kind == Degraded`).
    reason: Option<String>,
    /// Lifetime degradation count.
    degradations: u64,
    /// Most recent storage fault (append, checkpoint, or probe), kept
    /// across restores for the `health` report.
    last_fault: Option<String>,
    /// When the last (inline or background) restore attempt ran.
    last_probe: Option<Instant>,
    store: StoreFacts,
}

/// The refusal a write gets while the service is degraded.
pub(crate) fn degraded(reason: Option<String>) -> ServiceError {
    ServiceError::Degraded {
        reason: reason.unwrap_or_else(|| "storage fault".to_owned()),
    }
}

/// The service: one published snapshot, one writer, one status word. See
/// the module docs for the three pieces and their order.
pub struct ViewService {
    current: RwLock<Arc<Snapshot>>,
    writer: Mutex<Writer>,
    status: Mutex<Status>,
    /// Writers currently queued behind the writer lock.
    waiting_writers: AtomicUsize,
    /// Highest WAL sequence number ever acknowledged to a caller. The
    /// restore probe refuses to reattach a store whose recovered log does
    /// not reach this point — that would silently lose an acked batch.
    acked_seq: AtomicU64,
    config: ServiceConfig,
}

impl ViewService {
    /// A service starting from the given database at epoch 0, with no
    /// views and the default [`ServiceConfig`] (sequential maintenance).
    pub fn new(db: Database) -> ViewService {
        ViewService::with_config(db, ServiceConfig::default())
    }

    /// [`ViewService::new`] with a [`Parallelism`] knob (see
    /// [`ServiceConfig::par`]).
    pub fn with_parallelism(db: Database, par: Parallelism) -> ViewService {
        ViewService::with_config(db, par.into())
    }

    /// [`ViewService::new`] with every fixed setting spelled out.
    pub fn with_config(db: Database, config: ServiceConfig) -> ViewService {
        ViewService::assemble(db, 0, config, None)
    }

    /// A service whose first snapshot is published at `epoch` — the
    /// recovery path: a database loaded from a checkpoint resumes at the
    /// epoch the checkpoint captured, so epochs stay strictly increasing
    /// across restarts. Registration decisions and drift events append to
    /// `decision_log` when one is given
    /// (CRC-framed, best-effort — see [`linrec_storage::DecisionLog`]).
    pub(crate) fn assemble(
        db: Database,
        epoch: u64,
        config: ServiceConfig,
        decision_log: Option<DecisionLog>,
    ) -> ViewService {
        let snapshot = Arc::new(Snapshot {
            epoch,
            db: db.snapshot(),
            views: FastMap::default(),
        });
        ViewService {
            current: RwLock::new(snapshot),
            writer: Mutex::new(Writer {
                db,
                views: Vec::new(),
                epoch,
                durability: None,
                sentinel: Sentinel::default(),
                decision_log,
            }),
            status: Mutex::new(Status::default()),
            waiting_writers: AtomicUsize::new(0),
            acked_seq: AtomicU64::new(0),
            config,
        }
    }

    /// The last construction step of a durable service: hand the recovered
    /// store over once the WAL tail has been replayed (replay must not
    /// re-log what it reads). Every subsequent batch is write-ahead logged
    /// before acknowledgement, and `policy` decides when the WAL is folded
    /// into a fresh snapshot generation. Takes the service by value —
    /// there is no attaching a store to a service that is already shared.
    pub(crate) fn with_store(
        self,
        store: Store,
        policy: CheckpointPolicy,
    ) -> Result<ViewService, ServiceError> {
        self.acked_seq
            .store(store.next_seq().saturating_sub(1), Ordering::SeqCst);
        let durability = Durability {
            dir: store.dir().to_owned(),
            vfs: store.vfs(),
            store: Some(store),
            policy,
        };
        self.status().store = StoreFacts::of(Some(&durability));
        self.lock_writer()?.durability = Some(durability);
        Ok(self)
    }

    /// The fixed overload-control knobs.
    pub fn limits(&self) -> ServiceLimits {
        self.config.limits
    }

    /// The live on-disk snapshot generation, when durable (and not
    /// currently degraded).
    pub fn store_generation(&self) -> Option<u64> {
        self.status().store.generation
    }

    /// The current write-availability mode and (when degraded) its reason.
    pub fn mode(&self) -> (ServiceMode, Option<String>) {
        let status = self.status();
        (status.kind, status.reason.clone())
    }

    /// Operator toggle: switch the service read-only (writes answer
    /// [`ServiceError::ReadOnly`]) or back to read-write. Switching a
    /// *degraded* service "on" is a no-op — the fault, not the operator,
    /// owns the mode until the probe restores it.
    pub fn set_read_only(&self, read_only: bool) {
        let mut status = self.status();
        match (read_only, status.kind) {
            (true, ServiceMode::ReadWrite) => status.kind = ServiceMode::ReadOnly,
            (false, ServiceMode::ReadOnly) => status.kind = ServiceMode::ReadWrite,
            _ => {}
        }
    }

    /// A point-in-time health report: mode, epoch, queue depth, WAL
    /// pressure, fault history. Never touches the writer — safe to call
    /// from any session at any time, including mid-batch and while
    /// degraded.
    pub fn health(&self) -> HealthInfo {
        let snap = self.snapshot();
        let status = self.status();
        HealthInfo {
            mode: status.kind,
            reason: status.reason.clone(),
            epoch: snap.epoch,
            views: snap.views.len(),
            waiting_writers: self.waiting_writers.load(Ordering::SeqCst),
            max_queue: self.config.limits.max_queue,
            durable: status.store.durable,
            wal_batches: status.store.wal_batches,
            wal_bytes: status.store.wal_bytes,
            generation: status.store.generation,
            degradations: status.degradations,
            last_fault: status.last_fault.clone(),
        }
    }

    /// The current snapshot (cheap: one `Arc` clone under a read lock).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The status word. A poisoned guard is recovered: every update is a
    /// plain field store, so the value is whole at every step.
    fn status(&self) -> MutexGuard<'_, Status> {
        self.status.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire the writer under overload control: uncontended acquisition
    /// is free; a contended request joins a bounded queue (shed with
    /// [`ServiceError::Busy`] beyond `max_queue`) and spins with a
    /// deadline (expiry answers [`ServiceError::Timeout`]). A writer
    /// poisoned by an earlier panic answers [`ServiceError::Internal`] —
    /// its state may be half-updated, so it is never recovered.
    fn lock_writer(&self) -> Result<MutexGuard<'_, Writer>, ServiceError> {
        let try_lock = || match self.writer.try_lock() {
            Ok(w) => Ok(Some(w)),
            Err(TryLockError::WouldBlock) => Ok(None),
            Err(TryLockError::Poisoned(_)) => Err(ServiceError::Internal(
                "writer lock poisoned by an earlier panic".to_owned(),
            )),
        };
        if let Some(w) = try_lock()? {
            return Ok(w);
        }
        let limits = self.config.limits;
        let waiting = self.waiting_writers.fetch_add(1, Ordering::SeqCst) + 1;
        if limits.max_queue > 0 && waiting > limits.max_queue {
            self.waiting_writers.fetch_sub(1, Ordering::SeqCst);
            return Err(ServiceError::Busy {
                waiting,
                limit: limits.max_queue,
            });
        }
        let deadline = limits.request_timeout.map(|t| (t, Instant::now() + t));
        let result = loop {
            match try_lock() {
                Ok(Some(w)) => break Ok(w),
                Err(e) => break Err(e),
                Ok(None) => {
                    if let Some((timeout, at)) = deadline {
                        if Instant::now() >= at {
                            break Err(ServiceError::Timeout {
                                millis: timeout.as_millis() as u64,
                            });
                        }
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        };
        self.waiting_writers.fetch_sub(1, Ordering::SeqCst);
        result
    }

    /// Enter degraded mode: drop the store handle (the probe re-opens the
    /// directory from scratch), record the fault, and start refusing
    /// writes.
    fn degrade(&self, writer: &mut Writer, fault: &StorageError, context: &str) -> String {
        let reason = format!("{context}: {fault}");
        if let Some(d) = writer.durability.as_mut() {
            d.store = None;
        }
        let mut status = self.status();
        if status.kind != ServiceMode::Degraded {
            status.kind = ServiceMode::Degraded;
            status.degradations += 1;
            if linrec_obs::enabled() {
                linrec_obs::counter!("linrec_service_degradations_total").inc();
            }
        }
        status.reason = Some(reason.clone());
        status.last_fault = Some(reason.clone());
        status.last_probe = None;
        status.store = StoreFacts::of(writer.durability.as_ref());
        reason
    }

    /// Try to leave degraded mode by re-opening and re-recovering the
    /// store. Returns `Ok(true)` when the store was restored (mode is
    /// read-write again), `Ok(false)` when the service was not degraded
    /// (or is volatile), and the typed error when the probe itself failed
    /// (the service stays degraded; the fault is recorded).
    ///
    /// The restored store must recover at least up to the highest
    /// acknowledged sequence number — anything less means the disk lost an
    /// acked batch, and reattaching would silently break the durability
    /// contract, so the probe refuses.
    ///
    /// The in-memory state needs no replay: every acked batch was applied
    /// in memory before acknowledgement, and degraded mode refused writes,
    /// so memory is exactly the acked prefix the disk recovered.
    pub fn try_restore(&self) -> Result<bool, ServiceError> {
        let mut writer = self.lock_writer()?;
        let degraded = {
            let mut status = self.status();
            status.last_probe = Some(Instant::now());
            status.kind == ServiceMode::Degraded
        };
        let Some(d) = writer.durability.as_mut() else {
            return Ok(false);
        };
        if !degraded && d.store.is_some() {
            return Ok(false);
        }
        let probe = || -> Result<Store, StorageError> {
            let mut store = Store::open_with(&d.dir, Arc::clone(&d.vfs))?;
            store.recover()?;
            Ok(store)
        };
        match probe() {
            Ok(store) => {
                let acked = self.acked_seq.load(Ordering::SeqCst);
                if store.next_seq() <= acked {
                    let err = StorageError::Corrupt {
                        file: d.dir.display().to_string(),
                        detail: format!(
                            "recovered log ends at seq {} but seq {acked} was acknowledged",
                            store.next_seq().saturating_sub(1)
                        ),
                    };
                    self.status().last_fault = Some(format!("restore probe: {err}"));
                    return Err(ServiceError::Storage(err));
                }
                d.store = Some(store);
                let mut status = self.status();
                status.store = StoreFacts::of(Some(&*d));
                if status.kind == ServiceMode::Degraded {
                    status.kind = ServiceMode::ReadWrite;
                    status.reason = None;
                }
                Ok(true)
            }
            Err(e) => {
                let fault = format!("restore probe: {e}");
                let mut status = self.status();
                status.last_fault = Some(fault.clone());
                status.reason = Some(fault);
                Err(ServiceError::Storage(e))
            }
        }
    }

    /// The write-path gate: refuse (typed) when read-only or degraded.
    /// A degraded service whose inline-probe interval has elapsed gets one
    /// restore attempt right here, so traffic alone heals the service even
    /// without a background probe thread. Must be called **before**
    /// acquiring the writer ([`ViewService::try_restore`] takes it).
    fn write_gate(&self) -> Result<(), ServiceError> {
        let (kind, reason, probe_due) = {
            let status = self.status();
            let due = match status.last_probe {
                Some(at) => at.elapsed() >= PROBE_INTERVAL,
                None => true,
            };
            (status.kind, status.reason.clone(), due)
        };
        match kind {
            ServiceMode::ReadWrite => Ok(()),
            ServiceMode::ReadOnly => Err(ServiceError::ReadOnly),
            ServiceMode::Degraded => {
                if probe_due && matches!(self.try_restore(), Ok(true)) {
                    return Ok(());
                }
                Err(degraded(reason))
            }
        }
    }

    /// Explain a registered view's plan: the tree plus the structured
    /// decision record. With
    /// `analyze`, the plan additionally *runs* against the current
    /// snapshot (on a clone — the registered view's state is untouched)
    /// and the report carries per-node actual wall times and statistics.
    pub fn explain(&self, name: &str, analyze: bool) -> Result<ExplainReport, ServiceError> {
        // Clone the plan under a brief writer lock, then run (if asked)
        // against the lock-free published snapshot: an analyze of a big
        // view must not stall the write path.
        let (mut plan, seed_sym, arity, mode) = {
            let writer = self.lock_writer()?;
            let view = writer
                .views
                .iter()
                .map(|r| &r.view)
                .find(|v| v.def().name == name)
                .ok_or_else(|| ServiceError::UnknownView(name.to_owned()))?;
            (
                view.plan().clone(),
                view.def().seed,
                view.def().rules[0].arity(),
                view.mode().label(),
            )
        };
        let mut nodes = Vec::new();
        let mut total_nanos = 0;
        if analyze {
            let snap = self.snapshot();
            let seed = snap.db.relation_or_empty(seed_sym, arity);
            let outcome = plan.execute_feedback(&snap.db, &seed)?;
            total_nanos = outcome.trace.iter().map(|t| t.nanos).sum();
            nodes = outcome.trace;
        }
        Ok(ExplainReport {
            view: name.to_owned(),
            mode,
            tree: plan.describe(),
            decision: plan.shared_decision(),
            nodes,
            total_nanos,
            analyzed: analyze,
        })
    }

    /// Register a view: plan it against the current database, materialize
    /// it, and publish a new epoch.
    pub fn register_view(&self, def: ViewDef) -> Result<BatchReport, ServiceError> {
        self.register(def, None)
    }

    /// The one registration body. With `recovered` contents (a checkpoint's
    /// relation for this view) the plan and maintenance mode are derived
    /// exactly as for a fresh view, but the relation is adopted as the
    /// materialized state instead of running the fixpoint, and the epoch
    /// does **not** advance (the recovered state belongs to the persisted
    /// epoch). The caller vouches for it being this view's fixpoint over
    /// the current database — `open_durable` does so by matching the
    /// checkpoint's definition fingerprint and CRC-validated contents,
    /// which is also why the registration gate is not re-run on it.
    pub(crate) fn register(
        &self,
        def: ViewDef,
        recovered: Option<Arc<Relation>>,
    ) -> Result<BatchReport, ServiceError> {
        let mut sp = linrec_obs::span("service.register");
        sp.attr("view", &def.name);
        let fresh = recovered.is_none();
        self.write_gate()?;
        let mut guard = self.lock_writer()?;
        let writer = &mut *guard;
        if writer.views.iter().any(|r| r.view.def().name == def.name) {
            return Err(ServiceError::DuplicateView(def.name));
        }
        // Deny-by-default static analysis: structural lints plus the
        // certificate cross-verifier, without the data-dependent passes
        // (registration-time relations legitimately start empty). Clients
        // get the typed diagnostic over the protocol instead of a late
        // fixpoint failure.
        if fresh && self.config.registration_checks {
            let report = linrec_lint::check_rules(&def.rules, None, None);
            if report.has_errors() {
                return Err(ServiceError::Lint(report));
            }
        }
        let name = def.name.clone();
        // Pin the seed relation at the rules' arity when it does not exist
        // yet, so a later insert cannot create it at a different arity
        // (apply_batch validates inserts against existing relations).
        if let (Some(rule), None) = (def.rules.first(), writer.db.relation(def.seed)) {
            let arity = rule.arity();
            writer.db.set_relation(def.seed, Relation::new(arity));
        }
        let mut view =
            MaintainedView::register_with_parallelism(def, &writer.db, self.config.par.clone())?;
        let (relation, mode, stats, nanos) = match recovered {
            Some(relation) => {
                let arity = view.def().rules[0].arity();
                if relation.arity() != arity {
                    return Err(ServiceError::ArityMismatch {
                        pred: Symbol::new(&name),
                        expected: arity,
                        got: relation.arity(),
                    });
                }
                let stats = EvalStats {
                    tuples: relation.len(),
                    ..Default::default()
                };
                (relation, "recovered", stats, 0)
            }
            None => {
                let started = Instant::now();
                let (relation, stats) = view.materialize(&writer.db)?;
                let nanos = started.elapsed().as_nanos() as u64;
                sp.attr("tuples", relation.len());
                // Persist the registration's decision record (the journal
                // got it from `execute_feedback` inside materialize).
                writer.log_decision(&view.plan().decision().to_json());
                writer.epoch += 1;
                (Arc::new(relation), "materialize", stats, nanos)
            }
        };
        let epoch = writer.epoch;
        let grown_by = relation.len();
        let info = ViewInfo {
            relation,
            mode,
            stats,
            maintenance_nanos: nanos,
            updated_epoch: epoch,
            decision: view.plan().shared_decision(),
        };
        writer.views.push(Registered { view, info });
        self.publish(writer);
        // Registrations are not WAL-logged (the log carries insert batches
        // only), so a durable service folds a newly materialized view into
        // a checkpoint right away.
        if fresh {
            self.checkpoint_or_warn(
                writer,
                "post-registration checkpoint",
                "the view is registered and will be captured by the next successful checkpoint",
            );
        }
        Ok(BatchReport {
            epoch,
            inserted: 0,
            views: vec![ViewReport {
                name,
                mode,
                stats,
                nanos,
                grown_by,
            }],
        })
    }

    /// Apply one insert-only batch: extend the EDB, maintain every view,
    /// WAL the batch (when durable) and publish a new epoch. Readers keep
    /// serving the previous snapshot until the publish; a batch with no
    /// genuinely new tuple publishes nothing. The one-member case of
    /// [`ViewService::apply_batches`].
    pub fn apply_batch(
        &self,
        inserts: impl IntoIterator<Item = (Symbol, Vec<Value>)>,
    ) -> Result<BatchReport, ServiceError> {
        self.apply_batches([inserts])
    }

    /// Apply a group of insert-only batches with one maintenance pass.
    ///
    /// Insert-only batches are set unions, so they commute: the fixpoint
    /// over the union of the members' new tuples is the state applying
    /// them one at a time reaches. The group therefore builds one
    /// post-group database, seeds each view's `Δ₀` from the union, runs
    /// each view's maintenance once and publishes once, where member by
    /// member would clone, re-index and publish every view per member.
    ///
    /// Each member is validated in order against the database plus the
    /// earlier members; one bad member fails the group with its typed
    /// error and nothing is applied. The epoch advances once per member
    /// that inserted a new tuple, exactly as member-by-member application
    /// would leave it; the report carries the final epoch. When durable,
    /// each such member is its own WAL frame.
    pub fn apply_batches<B>(
        &self,
        batches: impl IntoIterator<Item = B>,
    ) -> Result<BatchReport, ServiceError>
    where
        B: IntoIterator<Item = (Symbol, Vec<Value>)>,
    {
        let mut sp = linrec_obs::span("service.batch");
        self.write_gate()?;
        let mut guard = self.lock_writer()?;
        let writer = &mut *guard;

        // Validate and apply each member in order to a COW clone of the
        // master database: a bad member, or a maintenance or WAL failure
        // below, drops the clone, so the master is untouched and the group
        // simply never happened. A tuple an earlier member already
        // inserted is a duplicate here, so `deltas` is the union of the
        // members' new tuples and `logged` keeps each member's own.
        let mut db = writer.db.snapshot();
        let mut deltas: FastMap<Symbol, Relation> = FastMap::default();
        let mut logged: Vec<Vec<(Symbol, Vec<Value>)>> = Vec::new();
        for batch in batches {
            let mut new = Vec::new();
            for (pred, tuple) in batch {
                if pred.as_str().starts_with(DELTA_MARKER) {
                    return Err(ServiceError::ReservedPredicate(pred.as_str().to_owned()));
                }
                if let Some(expected) = db.relation(pred).map(Relation::arity) {
                    if expected != tuple.len() {
                        return Err(ServiceError::ArityMismatch {
                            pred,
                            expected,
                            got: tuple.len(),
                        });
                    }
                }
                if db.insert_tuple(pred, &tuple) {
                    deltas
                        .entry(pred)
                        .or_insert_with(|| Relation::new(tuple.len()))
                        .insert(&tuple);
                    new.push((pred, tuple));
                }
            }
            if !new.is_empty() {
                logged.push(new);
            }
        }
        let inserted: usize = logged.iter().map(Vec::len).sum();
        if inserted == 0 {
            return Ok(BatchReport {
                epoch: writer.epoch,
                inserted: 0,
                views: Vec::new(),
            });
        }
        let deltas: FastMap<Symbol, Arc<Relation>> =
            deltas.into_iter().map(|(p, r)| (p, Arc::new(r))).collect();

        let epoch = writer.epoch + logged.len() as u64;
        let maintained = writer.maintain_views(&db, &deltas, epoch)?;

        // Durability barrier: the WAL append + fsync must succeed before
        // the group commits to the master database, publishes, or is
        // acknowledged to the caller. Transient faults retry with backoff
        // (the WAL rolls a failed append back before the retry lands, so
        // re-appending is always safe); exhausted retries degrade the
        // service to read-only and refuse the group — the master database
        // is untouched, so the unacked group vanishes from memory. Frames
        // of earlier members that did land stay in the WAL unacknowledged,
        // as a frame whose fsync failed after its write may.
        let mut checkpoint_due = false;
        if let Some(d) = writer.durability.as_mut() {
            let Some(store) = d.store.as_mut() else {
                // Degraded between the gate and here: refuse.
                return Err(degraded(self.mode().1));
            };
            let mut last_seq = None;
            for member in &logged {
                match self.config.retry.run(|| store.append_batch(member)) {
                    Ok(seq) => last_seq = Some(seq),
                    Err(e) => {
                        let reason = self.degrade(writer, &e, "wal append");
                        return Err(ServiceError::Degraded { reason });
                    }
                }
            }
            if let Some(seq) = last_seq {
                self.acked_seq.store(seq, Ordering::SeqCst);
            }
            let facts = StoreFacts::of(Some(&*d));
            checkpoint_due = d
                .policy
                .should_checkpoint(facts.wal_batches, facts.wal_bytes);
            self.status().store = facts;
        }

        writer.db = db;
        writer.epoch = epoch;
        let mut reports = Vec::with_capacity(maintained.len());
        for (registered, (report, info)) in writer.views.iter_mut().zip(maintained) {
            if let Some(info) = info {
                registered.info = info;
            }
            reports.push(report);
        }
        self.publish(writer);
        // Fold the WAL into a new snapshot generation when the policy says
        // so. This is **after the commit point**, so a checkpoint failure
        // must not fail the already-committed group: it is reported
        // out-of-band and the acknowledged batches simply stay in the WAL,
        // which remains the source of durability. The next batch (or an
        // explicit [`ViewService::checkpoint_now`]) retries.
        if checkpoint_due {
            self.checkpoint_or_warn(
                writer,
                "checkpoint",
                "committed batches remain durable in the WAL and the next batch will retry",
            );
        }
        // The group is committed and acked from here on; feed the drift
        // sentinel (estimate each maintained view's pass, journal the
        // pair, report a drift).
        if linrec_obs::enabled() {
            writer.observe_maintenance(&deltas, &reports);
            linrec_obs::counter!("linrec_service_batches_total").inc_by(logged.len() as u64);
            linrec_obs::counter!("linrec_service_batch_inserted_total").inc_by(inserted as u64);
            sp.observe_into(linrec_obs::histogram!("linrec_service_batch_ns"));
            sp.attr("epoch", epoch);
            sp.attr("inserted", inserted);
            sp.attr("members", logged.len());
        }
        Ok(BatchReport {
            epoch,
            inserted,
            views: reports,
        })
    }

    /// Force a checkpoint of the current state (no-op returning `false`
    /// on a non-durable — or currently degraded — service). The write
    /// happens under the writer lock, so it captures a batch-consistent
    /// state; readers are unaffected.
    pub fn checkpoint_now(&self) -> Result<bool, ServiceError> {
        let mut writer = self.lock_writer()?;
        Ok(self.checkpoint(&mut writer)?)
    }

    /// The one checkpoint body: fold the writer's state — the master
    /// database plus every view's relation and definition fingerprint —
    /// into a fresh on-disk generation. `Ok(false)` when there is no live
    /// store. Callers decide whether to run it and whether a failure is
    /// fatal.
    fn checkpoint(&self, writer: &mut Writer) -> Result<bool, StorageError> {
        let Writer {
            db,
            views,
            epoch,
            durability,
            ..
        } = writer;
        let Some(store) = durability.as_mut().and_then(|d| d.store.as_mut()) else {
            return Ok(false);
        };
        let data = SnapshotData {
            epoch: *epoch,
            db: db.snapshot(),
            views: views
                .iter()
                .map(|Registered { view, info }| ViewSnapshot {
                    fingerprint: view_fingerprint(view.def().seed, view.def().rules.iter()),
                    relation: Arc::clone(&info.relation),
                    name: view.def().name.clone(),
                })
                .collect(),
        };
        let result = self.config.retry.run(|| store.checkpoint(&data));
        self.status().store = StoreFacts::of(durability.as_ref());
        result.map(|_| true)
    }

    /// [`ViewService::checkpoint`] after a commit point: the operation it
    /// follows is already published, so a failure is recorded in `health`
    /// and warned about on stderr instead of failing the caller.
    fn checkpoint_or_warn(&self, writer: &mut Writer, context: &str, consequence: &str) {
        if let Err(e) = self.checkpoint(writer) {
            self.status().last_fault = Some(format!("{context}: {e}"));
            eprintln!("warning: {context} failed ({e}); {consequence}");
        }
    }

    /// Publish the writer's state as the next snapshot.
    fn publish(&self, writer: &Writer) {
        let mut sp = linrec_obs::span("service.publish");
        sp.attr("epoch", writer.epoch);
        let views: FastMap<String, ViewInfo> = writer
            .views
            .iter()
            .map(|r| (r.view.def().name.clone(), r.info.clone()))
            .collect();
        if linrec_obs::enabled() {
            linrec_obs::gauge!("linrec_service_epoch").set(writer.epoch as i64);
            linrec_obs::gauge!("linrec_service_views").set(views.len() as i64);
        }
        let snapshot = Arc::new(Snapshot {
            epoch: writer.epoch,
            db: writer.db.snapshot(),
            views,
        });
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = snapshot;
    }
}

/// One view's maintenance under one batch, timed and traced. Returns the
/// view's batch report and, when the batch reached it, the state to serve
/// from `epoch` on.
fn maintain_one(
    registered: &mut Registered,
    db: &Database,
    deltas: &FastMap<Symbol, Arc<Relation>>,
    epoch: u64,
) -> Result<Maintained, StrategyError> {
    let Registered { view, info: old } = registered;
    let mut sp = linrec_obs::span("view.maintain");
    sp.attr("view", &view.def().name);
    let started = Instant::now();
    let outcome = view.maintain(&old.relation, db, deltas)?;
    // The report's wall time is served data, kept with instrumentation
    // off; the histogram sample is the span's own duration.
    let nanos = started.elapsed().as_nanos() as u64;
    sp.attr("mode", outcome.mode);
    sp.observe_into(linrec_obs::histogram!(
        "linrec_service_view_maintain_ns",
        "Per-view incremental maintenance latency in nanoseconds"
    ));
    let mut report = ViewReport {
        name: view.def().name.clone(),
        mode: "unchanged",
        stats: outcome.stats,
        nanos,
        grown_by: 0,
    };
    let info = outcome.relation.map(|relation| {
        report.mode = outcome.mode;
        report.grown_by = relation.len() - old.relation.len();
        ViewInfo {
            relation: Arc::new(relation),
            mode: outcome.mode,
            stats: outcome.stats,
            maintenance_nanos: nanos,
            updated_epoch: epoch,
            decision: view.plan().shared_decision(),
        }
    });
    Ok((report, info))
}

/// What [`maintain_one`] hands back per view.
type Maintained = (ViewReport, Option<ViewInfo>);

impl Writer {
    /// Best-effort append to the decision log, if there is one. Failures
    /// bump `linrec_service_decision_log_errors_total` and are otherwise
    /// swallowed: the log is observability data and must never fail an
    /// acknowledged operation.
    fn log_decision(&mut self, json: &str) {
        if let Some(log) = self.decision_log.as_mut() {
            if log.append(json).is_err() {
                linrec_obs::counter!(
                    "linrec_service_decision_log_errors_total",
                    "Failed best-effort appends to the on-disk decision log"
                )
                .inc();
            }
        }
    }

    /// Maintain every registered view against the post-batch database,
    /// returning one [`Maintained`] per view in registration order. Each
    /// view's fixpoint rounds shard on the engine pool under its own knob.
    fn maintain_views(
        &mut self,
        db: &Database,
        deltas: &FastMap<Symbol, Arc<Relation>>,
        epoch: u64,
    ) -> Result<Vec<Maintained>, StrategyError> {
        self.views
            .iter_mut()
            .map(|registered| maintain_one(registered, db, deltas, epoch))
            .collect()
    }

    /// Per-view drift observation for one committed batch: estimate the
    /// maintenance work the cost model predicts for this delta, journal
    /// the (estimate, actual) pair, and let the sentinel decide whether
    /// the estimates have drifted.
    fn observe_maintenance(
        &mut self,
        deltas: &FastMap<Symbol, Arc<Relation>>,
        reports: &[ViewReport],
    ) {
        let model = CostModel::default();
        let journal = linrec_obs::journal::journal();
        for (i, report) in reports.iter().enumerate() {
            if report.mode == "unchanged" {
                continue;
            }
            let view = &self.views[i].view;
            let estimate = deltas
                .get(&view.def().seed)
                .map(|delta| model.estimate(view.plan(), &self.db, delta));
            let shape = view.plan().shape().label();
            journal.record(
                "maintain",
                &report.name,
                shape,
                estimate.unwrap_or(0.0),
                report.stats.derivations,
                report.nanos,
                String::new(),
            );
            let trip = self.sentinel.observe(
                &report.name,
                estimate,
                report.stats.derivations,
                report.nanos,
            );
            if let Some(trip) = trip {
                self.handle_drift(&report.name, shape, &trip);
            }
        }
    }

    /// A drift trip: emit the typed `plan-drift` event (counter +
    /// flight-recorder span + stderr line with the trace id + journal and
    /// decision-log records). Nothing else changes: the plan and the cost
    /// model stay as they are.
    fn handle_drift(&mut self, view: &str, shape: &'static str, trip: &DriftTrip) {
        linrec_obs::counter!(
            "linrec_service_plan_drift_total",
            "Plan-drift events raised by the regression sentinel"
        )
        .inc();
        let mut sp = linrec_obs::span("plan.drift");
        sp.attr("view", view);
        sp.attr("kind", trip.kind());
        let trace = linrec_obs::trace::current_trace()
            .map(|t| t.to_string())
            .unwrap_or_else(|| "-".to_owned());
        eprintln!(
            "linrec: plan-drift on view '{view}' ({}) trace={trace}",
            trip.describe()
        );
        let event = drift_event(view, trip, &trace);
        linrec_obs::journal::journal().record("drift", view, shape, 0.0, 0, 0, event.clone());
        self.log_decision(&event);
    }
}

/// The `plan-drift` record a sentinel trip journals and logs.
pub(crate) fn drift_event(view: &str, trip: &DriftTrip, trace: &str) -> String {
    linrec_obs::json::object(|o| {
        o.str("event", "plan-drift");
        o.str("view", view);
        o.str("kind", trip.kind());
        o.str("detail", &trip.describe());
        o.str("trace", trace);
    })
}

/// Start a background recovery probe: every `PROBE_INTERVAL`, a degraded
/// service gets one [`ViewService::try_restore`] attempt, so the service
/// heals as soon as the fault clears even with zero write traffic. The
/// thread holds only a weak reference and exits when the service is
/// dropped; probe failures are recorded in [`ViewService::health`] and
/// otherwise ignored (the next tick retries).
pub fn spawn_degraded_probe(service: &Arc<ViewService>) -> std::thread::JoinHandle<()> {
    let weak = Arc::downgrade(service);
    std::thread::Builder::new()
        .name("linrec-degraded-probe".to_owned())
        .spawn(move || loop {
            std::thread::sleep(PROBE_INTERVAL);
            let Some(svc) = weak.upgrade() else { break };
            if svc.mode().0 == ServiceMode::Degraded {
                let _ = svc.try_restore();
            }
        })
        .expect("spawn degraded-probe thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ViewDef;
    use linrec_datalog::parse_linear_rule;

    fn tc_def(name: &str) -> ViewDef {
        ViewDef {
            name: name.into(),
            rules: vec![parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()],
            seed: Symbol::new("e"),
        }
    }

    fn pair(a: i64, b: i64) -> Vec<Value> {
        vec![Value::Int(a), Value::Int(b)]
    }

    #[test]
    fn epochs_advance_and_old_snapshots_stay_immutable() {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2), (2, 3)]));
        let service = ViewService::new(db);
        assert_eq!(service.snapshot().epoch, 0);
        service.register_view(tc_def("tc")).unwrap();
        let epoch1 = service.snapshot();
        assert_eq!(epoch1.epoch, 1);
        assert_eq!(epoch1.count("tc").unwrap(), 3);

        let report = service
            .apply_batch([(Symbol::new("e"), pair(3, 4))])
            .unwrap();
        assert_eq!(report.epoch, 2);
        assert_eq!(report.inserted, 1);
        assert_eq!(report.views[0].mode, "incremental");
        assert_eq!(report.views[0].grown_by, 3); // (3,4),(2,4),(1,4)

        // The old snapshot still answers from its epoch.
        assert_eq!(epoch1.epoch, 1);
        assert_eq!(epoch1.count("tc").unwrap(), 3);
        assert!(!epoch1.contains("tc", &pair(1, 4)).unwrap());
        let epoch2 = service.snapshot();
        assert_eq!(epoch2.count("tc").unwrap(), 6);
        assert!(epoch2.contains("tc", &pair(1, 4)).unwrap());
    }

    #[test]
    fn duplicate_only_batches_publish_nothing() {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2)]));
        let service = ViewService::new(db);
        service.register_view(tc_def("tc")).unwrap();
        let before = service.snapshot();
        let report = service
            .apply_batch([(Symbol::new("e"), pair(1, 2))])
            .unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.inserted, 0);
        assert!(report.views.is_empty());
        assert!(Arc::ptr_eq(&before, &service.snapshot()));
    }

    #[test]
    fn a_recomputing_view_reaches_the_same_state_grouped_or_one_at_a_time() {
        let members = vec![
            vec![(Symbol::new("e"), pair(3, 4))],
            vec![
                (Symbol::new("e"), pair(3, 4)),
                (Symbol::new("e"), pair(0, 1)),
            ],
            vec![(Symbol::new("e"), pair(1, 2))], // all duplicates: no epoch
            vec![
                (Symbol::new("e"), pair(4, 5)),
                (Symbol::new("f"), pair(9, 9)),
            ],
        ];
        let service = || {
            let mut db = Database::new();
            db.set_relation("e", Relation::from_pairs([(1, 2), (2, 3)]));
            let service = ViewService::new(db);
            service.register_view(tc_def("tc")).unwrap();
            // A plan with no incremental form: σ after the star.
            let mut writer = service.writer.lock().unwrap();
            let view = &mut writer.views[0].view;
            let plan = linrec_engine::Plan::select_after(view.plan().clone(), Selection::eq(0, 1));
            view.replace_plan(plan);
            drop(writer);
            service
        };
        let one_by_one = service();
        for member in &members {
            one_by_one.apply_batch(member.clone()).unwrap();
        }
        let grouped = service();
        let report = grouped.apply_batches(members).unwrap();
        assert_eq!(report.inserted, 4);
        assert_eq!(report.views[0].mode, "recompute");
        let (got, want) = (grouped.snapshot(), one_by_one.snapshot());
        assert_eq!((got.epoch, report.epoch), (want.epoch, want.epoch));
        assert_eq!(want.epoch, 1 + 3);
        let (g, w) = (got.view("tc").unwrap(), want.view("tc").unwrap());
        assert_eq!(g.relation.sorted(), w.relation.sorted());
        assert_eq!(g.relation.len(), 4, "σ(x = 1) of the closure over 0..5");
        for (sym, rel) in want.db.iter() {
            assert_eq!(got.db.relation(sym), Some(rel));
        }
    }

    #[test]
    fn batches_are_validated_atomically() {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2)]));
        let service = ViewService::new(db);
        service.register_view(tc_def("tc")).unwrap();
        // Second insert has the wrong arity: the whole batch must fail
        // without the first insert landing.
        let err = service
            .apply_batch([
                (Symbol::new("e"), pair(2, 3)),
                (Symbol::new("e"), vec![Value::Int(9)]),
            ])
            .unwrap_err();
        assert!(matches!(err, ServiceError::ArityMismatch { .. }));
        assert_eq!(service.snapshot().count("tc").unwrap(), 1);
        assert_eq!(service.snapshot().epoch, 1);
        // Reserved predicates are rejected.
        let err = service
            .apply_batch([(Symbol::new("Δ·e"), pair(0, 0))])
            .unwrap_err();
        assert!(matches!(err, ServiceError::ReservedPredicate(_)));
    }

    #[test]
    fn missing_seed_is_pinned_at_rule_arity_so_bad_inserts_cannot_poison_the_writer() {
        // Regression: registering a view whose seed predicate does not
        // exist yet used to leave the arity unpinned, so a wrong-arity
        // insert could create the seed relation at the wrong arity and
        // panic maintenance with the writer mutex held — permanently
        // poisoning the write path.
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2)]));
        let service = ViewService::new(db);
        service
            .register_view(ViewDef {
                name: "tc".into(),
                rules: vec![parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()],
                seed: Symbol::new("s0"), // not in the database
            })
            .unwrap();
        // The wrong-arity insert is rejected cleanly…
        let err = service
            .apply_batch([(Symbol::new("s0"), vec![Value::Int(7)])])
            .unwrap_err();
        assert!(matches!(err, ServiceError::ArityMismatch { .. }));
        // …and the service keeps serving and writing afterwards.
        let report = service
            .apply_batch([(Symbol::new("s0"), pair(1, 1))])
            .unwrap();
        assert_eq!(report.inserted, 1);
        assert_eq!(service.snapshot().count("tc").unwrap(), 2); // (1,1),(1,2)
    }

    #[test]
    fn multiple_views_are_maintained_under_one_batch() {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2), (2, 3)]));
        db.set_relation("f", Relation::from_pairs([(7, 8)]));
        let service = ViewService::new(db);
        service.register_view(tc_def("tc")).unwrap();
        service
            .register_view(ViewDef {
                name: "ftc".into(),
                rules: vec![parse_linear_rule("q(x,y) :- q(x,z), f(z,y).").unwrap()],
                seed: Symbol::new("f"),
            })
            .unwrap();
        assert!(matches!(
            service.register_view(tc_def("tc")).unwrap_err(),
            ServiceError::DuplicateView(_)
        ));
        let report = service
            .apply_batch([
                (Symbol::new("e"), pair(3, 4)),
                (Symbol::new("f"), pair(8, 9)),
            ])
            .unwrap();
        assert_eq!(report.views.len(), 2);
        assert!(report.views.iter().all(|v| v.mode == "incremental"));
        let snap = service.snapshot();
        assert_eq!(snap.count("tc").unwrap(), 6);
        assert_eq!(snap.count("ftc").unwrap(), 3);
        assert_eq!(snap.view_names(), vec!["ftc".to_owned(), "tc".to_owned()]);
        // A batch touching only one predicate leaves the other view alone.
        let report = service
            .apply_batch([(Symbol::new("f"), pair(9, 10))])
            .unwrap();
        let tc = report.views.iter().find(|v| v.name == "tc").unwrap();
        assert_eq!(tc.mode, "unchanged");
        let snap2 = service.snapshot();
        assert!(Arc::ptr_eq(
            &snap.view("tc").unwrap().relation,
            &snap2.view("tc").unwrap().relation
        ));
        assert_eq!(snap2.count("ftc").unwrap(), 6);
    }

    #[test]
    fn parallel_service_serves_the_same_views() {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs((0..30).map(|i| (i, i + 1))));
        let par = Parallelism::new(2).with_min_delta(1);
        let service = ViewService::with_parallelism(db.clone(), par);
        let sequential = ViewService::new(db);
        for s in [&service, &sequential] {
            s.register_view(tc_def("tc")).unwrap();
        }
        let batch = || {
            (0..5)
                .map(|i| (Symbol::new("e"), pair(31 + i, 32 + i)))
                .collect::<Vec<_>>()
        };
        let a = service.apply_batch(batch()).unwrap();
        let b = sequential.apply_batch(batch()).unwrap();
        assert_eq!(a.views[0].stats, b.views[0].stats);
        assert_eq!(
            service.snapshot().view("tc").unwrap().relation.sorted(),
            sequential.snapshot().view("tc").unwrap().relation.sorted()
        );
    }

    #[test]
    fn multi_view_parallel_maintenance_matches_sequential() {
        // Several views, one batch: the parallel service shards each
        // view's rounds; reports, stats, modes, and snapshot contents
        // must be bit-identical to the sequential service.
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs((0..20).map(|i| (i, i + 1))));
        db.set_relation(
            "f",
            Relation::from_pairs((0..20).map(|i| (i * 2, i * 2 + 2))),
        );
        db.set_relation("g", Relation::from_pairs([(0, 5), (5, 10)]));
        let par = Parallelism::new(3).with_min_delta(1);
        let parallel = ViewService::with_parallelism(db.clone(), par);
        let sequential = ViewService::new(db);
        for s in [&parallel, &sequential] {
            s.register_view(tc_def("tc")).unwrap();
            s.register_view(ViewDef {
                name: "ftc".into(),
                rules: vec![parse_linear_rule("q(x,y) :- q(x,z), f(z,y).").unwrap()],
                seed: Symbol::new("f"),
            })
            .unwrap();
            s.register_view(ViewDef {
                name: "gtc".into(),
                rules: vec![parse_linear_rule("r(x,y) :- r(x,z), g(z,y).").unwrap()],
                seed: Symbol::new("g"),
            })
            .unwrap();
        }
        for batch in [
            vec![
                (Symbol::new("e"), pair(20, 21)),
                (Symbol::new("f"), pair(40, 42)),
                (Symbol::new("g"), pair(10, 15)),
            ],
            vec![(Symbol::new("e"), pair(21, 22))], // touches one view only
        ] {
            let a = parallel.apply_batch(batch.clone()).unwrap();
            let b = sequential.apply_batch(batch).unwrap();
            assert_eq!(a.inserted, b.inserted);
            assert_eq!(a.views.len(), b.views.len());
            for (va, vb) in a.views.iter().zip(&b.views) {
                assert_eq!(va.name, vb.name, "view order must be preserved");
                assert_eq!(va.mode, vb.mode);
                assert_eq!(va.stats, vb.stats);
                assert_eq!(va.grown_by, vb.grown_by);
            }
            let sa = parallel.snapshot();
            let sb = sequential.snapshot();
            for name in ["tc", "ftc", "gtc"] {
                assert_eq!(
                    sa.view(name).unwrap().relation.sorted(),
                    sb.view(name).unwrap().relation.sorted(),
                    "view {name} diverged"
                );
            }
        }
    }

    #[test]
    fn parallel_maintenance_error_keeps_every_view_registered() {
        // A failing batch (wrong arity caught late is impossible — use a
        // reserved-predicate error instead, which fails before dispatch)
        // and a successful next batch: a parallel service must never drop
        // a view from the writer.
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2)]));
        db.set_relation("f", Relation::from_pairs([(7, 8)]));
        let par = Parallelism::new(2).with_min_delta(1);
        let service = ViewService::with_parallelism(db, par);
        service.register_view(tc_def("tc")).unwrap();
        service
            .register_view(ViewDef {
                name: "ftc".into(),
                rules: vec![parse_linear_rule("q(x,y) :- q(x,z), f(z,y).").unwrap()],
                seed: Symbol::new("f"),
            })
            .unwrap();
        assert!(service
            .apply_batch([(Symbol::new("Δ·e"), pair(0, 0))])
            .is_err());
        let report = service
            .apply_batch([
                (Symbol::new("e"), pair(2, 3)),
                (Symbol::new("f"), pair(8, 9)),
            ])
            .unwrap();
        assert_eq!(report.views.len(), 2);
        assert_eq!(service.snapshot().count("tc").unwrap(), 3);
        assert_eq!(service.snapshot().count("ftc").unwrap(), 3);
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "linrec-svc-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs((0..n).map(|i| (i, i + 1))));
        db
    }

    /// Retries off, so every injected fault is observable.
    fn no_retry() -> ServiceConfig {
        ServiceConfig {
            retry: RetryPolicy::none(),
            ..ServiceConfig::default()
        }
    }

    /// A durable chain-TC service over a fault-injecting VFS, retries off.
    fn faulty_service(
        tag: &str,
        policy: CheckpointPolicy,
    ) -> (
        ViewService,
        Arc<linrec_storage::FaultVfs>,
        std::path::PathBuf,
    ) {
        let dir = tmpdir(tag);
        let fault = linrec_storage::FaultVfs::new(linrec_storage::FaultPlan::none());
        let vfs: Arc<dyn Vfs> = fault.clone();
        let (service, _) = crate::persist::open_durable_with_vfs(
            &dir,
            vfs,
            chain_db(3),
            vec![tc_def("tc")],
            no_retry(),
            policy,
        )
        .unwrap();
        (service, fault, dir)
    }

    /// `(durable, generation, wal_batches)` as `health` reports them,
    /// checked against what the old implementation derived from the live
    /// store on every call.
    fn store_facts(service: &ViewService) -> (bool, Option<u64>, u64) {
        let h = service.health();
        let writer = service.writer.lock().unwrap();
        let store = writer.durability.as_ref().and_then(|d| d.store.as_ref());
        let (batches, bytes) = store.map_or((0, 0), |s| s.wal_pressure());
        assert_eq!(h.durable, writer.durability.is_some());
        assert_eq!(h.generation, store.map(|s| s.generation()));
        assert_eq!((h.wal_batches, h.wal_bytes), (batches, bytes));
        (h.durable, h.generation, h.wal_batches)
    }

    #[test]
    fn wal_fault_degrades_to_read_only_and_restore_recovers() {
        use linrec_storage::{FaultOp, FaultPlan};
        assert_eq!(
            store_facts(&ViewService::new(chain_db(2))),
            (false, None, 0)
        );
        let (service, fault, dir) = faulty_service("degrade", CheckpointPolicy::default());
        let g0 = service.store_generation().unwrap();
        assert_eq!(store_facts(&service), (true, Some(g0), 0));
        // An append raises the WAL pressure `health` reports; a checkpoint
        // rotates the generation and resets it.
        service
            .apply_batch([(Symbol::new("e"), pair(2, 4))])
            .unwrap();
        assert_eq!(store_facts(&service), (true, Some(g0), 1));
        assert!(service.checkpoint_now().unwrap());
        assert_eq!(store_facts(&service), (true, Some(g0 + 1), 0));
        service
            .apply_batch([(Symbol::new("e"), pair(3, 4))])
            .unwrap();
        let epoch_before = service.snapshot().epoch;
        let count_before = service.snapshot().count("tc").unwrap();

        // The disk dies: every write, fsync, and read faults from here on.
        fault.set_plan(FaultPlan::seeded_ops(
            7,
            1000,
            vec![FaultOp::Write, FaultOp::Sync, FaultOp::Read],
        ));
        let err = service
            .apply_batch([(Symbol::new("e"), pair(4, 5))])
            .unwrap_err();
        assert!(matches!(err, ServiceError::Degraded { .. }), "{err}");
        assert_eq!(err.code(), "degraded");

        // The unacked batch vanished atomically; reads keep serving the
        // last acked epoch; the mode is typed and carries the fault.
        assert_eq!(service.snapshot().epoch, epoch_before);
        assert_eq!(service.snapshot().count("tc").unwrap(), count_before);
        assert!(!service.snapshot().contains("tc", &pair(4, 5)).unwrap());
        let health = service.health();
        assert_eq!(health.mode, ServiceMode::Degraded);
        assert_eq!(health.degradations, 1);
        assert!(health.reason.as_deref().unwrap().contains("wal append"));
        // The store handle is gone, but the service is still a durable one.
        assert_eq!(store_facts(&service), (true, None, 0));
        // Further writes answer degraded (the inline probe runs — reads
        // are faulted too, so it fails and the mode sticks).
        let err = service
            .apply_batch([(Symbol::new("e"), pair(5, 6))])
            .unwrap_err();
        assert!(matches!(err, ServiceError::Degraded { .. }), "{err}");
        assert_eq!(service.mode().0, ServiceMode::Degraded);

        // The operator fixes the disk: the probe restores read-write and
        // writes flow again.
        fault.clear();
        assert!(service.try_restore().unwrap());
        assert_eq!(service.mode().0, ServiceMode::ReadWrite);
        assert_eq!(store_facts(&service), (true, Some(g0 + 1), 1));
        service
            .apply_batch([(Symbol::new("e"), pair(4, 5))])
            .unwrap();
        assert_eq!(store_facts(&service), (true, Some(g0 + 1), 2));
        assert!(service.snapshot().contains("tc", &pair(0, 5)).unwrap());
        let want = service.snapshot().view("tc").unwrap().relation.sorted();
        drop(service);

        // Everything acked survived: a cold start (production VFS) agrees.
        let (service, _) = crate::persist::open_durable(
            &dir,
            Database::new(),
            vec![tc_def("tc")],
            Parallelism::sequential(),
            CheckpointPolicy::default(),
        )
        .unwrap();
        assert_eq!(
            service.snapshot().view("tc").unwrap().relation.sorted(),
            want
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_checkpoint_keeps_the_service_read_write() {
        use linrec_storage::{FaultKind, FaultOp, FaultPlan};
        let policy = CheckpointPolicy {
            max_wal_batches: 1,
            max_wal_bytes: u64::MAX,
        };
        let (service, fault, dir) = faulty_service("ckpt-fault", policy);
        // The next checkpoint's snapshot publication (rename) fails:
        // post-commit, so the batch stays acked and the service stays
        // read-write — the WAL remains the durability source. (Retries
        // off: the default policy would paper over a single lost rename,
        // which is exactly what it is for.)
        let next_rename = fault.op_count(FaultOp::Rename) + 1;
        fault.set_plan(FaultPlan::none().fail_nth(
            FaultOp::Rename,
            next_rename,
            FaultKind::DropRename,
        ));
        let report = service
            .apply_batch([(Symbol::new("e"), pair(3, 4))])
            .unwrap();
        assert_eq!(report.inserted, 1);
        let health = service.health();
        assert_eq!(health.mode, ServiceMode::ReadWrite);
        assert!(
            health.last_fault.as_deref().unwrap().contains("checkpoint"),
            "{:?}",
            health.last_fault
        );
        // The next batch's checkpoint succeeds and rotates the generation.
        let g = service.store_generation().unwrap();
        assert_eq!(store_facts(&service), (true, Some(g), 1));
        service
            .apply_batch([(Symbol::new("e"), pair(4, 5))])
            .unwrap();
        assert!(service.store_generation().unwrap() > g);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn contended_writers_shed_busy_and_time_out() {
        let limits = ServiceConfig {
            limits: ServiceLimits {
                max_queue: 1,
                request_timeout: Some(Duration::from_millis(200)),
                ..Default::default()
            },
            ..ServiceConfig::default()
        };
        let volatile = ViewService::with_config(chain_db(2), limits.clone());
        volatile.register_view(tc_def("tc")).unwrap();
        let dir = tmpdir("contended");
        let (durable, _) = crate::persist::open_durable(
            &dir,
            chain_db(2),
            vec![tc_def("tc")],
            limits,
            CheckpointPolicy::default(),
        )
        .unwrap();
        for service in [volatile, durable] {
            let service = Arc::new(service);
            let generation = service.store_generation();
            // Occupy the writer lock directly (same-module test privilege).
            let guard = service.writer.lock().unwrap();
            // First contended writer takes the one queue slot and will time
            // out; the second is shed immediately with `busy`.
            let svc = Arc::clone(&service);
            let queued = std::thread::spawn(move || {
                svc.apply_batch([(Symbol::new("e"), pair(2, 3))])
                    .unwrap_err()
            });
            while service.waiting_writers.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            let shed = service
                .apply_batch([(Symbol::new("e"), pair(3, 4))])
                .unwrap_err();
            assert!(matches!(shed, ServiceError::Busy { .. }), "{shed}");
            assert_eq!(shed.code(), "busy");
            // The lock claim: nothing a reader or `health` needs sits behind
            // the writer — on the durable service that includes the store
            // facts. (On a helper thread, so a regression fails the receive
            // instead of deadlocking the test.)
            let svc = Arc::clone(&service);
            let (tx, rx) = std::sync::mpsc::channel();
            let reader = std::thread::spawn(move || {
                let seen = (
                    svc.snapshot().epoch,
                    svc.health(),
                    svc.mode().0,
                    svc.store_generation(),
                    svc.limits().max_queue,
                );
                let _ = tx.send(seen);
            });
            let (epoch, health, mode, seen_generation, max_queue) = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("reads must not wait for the writer");
            reader.join().unwrap();
            assert_eq!(epoch, 1);
            assert_eq!(mode, ServiceMode::ReadWrite);
            assert_eq!(max_queue, 1);
            assert_eq!(seen_generation, generation);
            assert_eq!(health.generation, generation);
            assert_eq!(health.durable, generation.is_some());
            assert!(health.waiting_writers >= 1);
            let timed_out = queued.join().unwrap();
            assert!(
                matches!(timed_out, ServiceError::Timeout { .. }),
                "{timed_out}"
            );
            drop(guard);
            // The lock is free again: writes flow.
            service
                .apply_batch([(Symbol::new("e"), pair(2, 3))])
                .unwrap();
            assert_eq!(service.waiting_writers.load(Ordering::SeqCst), 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_poisoned_writer_answers_internal_while_reads_keep_serving() {
        let service = Arc::new(ViewService::new(chain_db(2)));
        service.register_view(tc_def("tc")).unwrap();
        let svc = Arc::clone(&service);
        let panicked = std::thread::spawn(move || {
            let _guard = svc.writer.lock().unwrap();
            panic!("deliberate panic with the writer held");
        })
        .join();
        assert!(panicked.is_err());

        let err = service
            .apply_batch([(Symbol::new("e"), pair(2, 3))])
            .unwrap_err();
        assert!(matches!(err, ServiceError::Internal(_)), "{err}");
        assert_eq!(err.code(), "internal");
        for err in [
            service.register_view(tc_def("tc2")).unwrap_err(),
            service.explain("tc", false).unwrap_err(),
            service.checkpoint_now().unwrap_err(),
            service.try_restore().unwrap_err(),
        ] {
            assert!(matches!(err, ServiceError::Internal(_)), "{err}");
        }
        // Reads still serve the last published epoch.
        let snap = service.snapshot();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.count("tc").unwrap(), 3);
        let health = service.health();
        assert_eq!((health.epoch, health.views), (1, 1));
        assert_eq!(service.mode().0, ServiceMode::ReadWrite);
    }

    #[test]
    fn select_filters_and_caps() {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2), (2, 3), (3, 4)]));
        let service = ViewService::new(db);
        service.register_view(tc_def("tc")).unwrap();
        let snap = service.snapshot();
        let all = snap.select("tc", None, 100).unwrap();
        assert_eq!(all.len(), 6);
        let from1 = snap.select("tc", Some(&Selection::eq(0, 1)), 100).unwrap();
        assert_eq!(from1.len(), 3);
        assert_eq!(snap.select("tc", None, 2).unwrap().len(), 2);
        assert!(snap.select("nope", None, 1).is_err());
    }
}
