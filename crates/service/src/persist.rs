//! Opening a durable service: recover, replay, attach.
//!
//! [`open_durable`] is the one entry point `linrec serve --data-dir` (and
//! anything else wanting a crash-recovering service) uses:
//!
//! 1. **Open + recover the store** — the newest valid snapshot generation
//!    loads (checksummed arenas, no fixpoint), and the WAL tail is
//!    validated, with a torn last frame truncated.
//! 2. **Rebuild the service** — on a snapshot, every view whose
//!    definition fingerprint still matches is registered with its
//!    persisted contents (no fixpoint runs, the epoch does not advance);
//!    views that are new or whose definition changed re-materialize from
//!    scratch (the snapshot cannot vouch for them). Without a snapshot
//!    (fresh store, or crash before the first checkpoint) the service
//!    starts from the caller's initial database.
//! 3. **Replay the WAL tail** — the logged batches go through
//!    [`ViewService::apply_batches`] as one group, i.e. through the *same
//!    certificate-licensed maintenance path* live traffic uses:
//!    boundedness certificates cap replay rounds, commutativity
//!    certificates license per-cluster resumes, and plan shapes with no
//!    incremental form recompute. Replay is maintenance, not a recovery
//!    interpreter. The whole tail costs one maintenance pass per view,
//!    not one per batch: insert-only batches are unions, unions commute,
//!    and the fixpoint over the union of their tuples is the state that
//!    replaying them one by one reaches. The epoch still advances once
//!    per batch that inserted a new tuple.
//! 4. **Hand over the store** — subsequent batches are WAL-logged before
//!    acknowledgement and checkpointed per the policy. A fresh store (or
//!    one whose view set changed) writes its baseline checkpoint
//!    immediately, so the *next* cold start is snapshot-load +
//!    tail-replay.
//!
//! Cold start on a warm checkpoint therefore costs a bulk arena load plus
//! one delta maintenance pass over the tail instead of a full
//! from-scratch fixpoint.

use crate::service::{ServiceConfig, ServiceError, ViewService};
use crate::view::ViewDef;
use linrec_datalog::Database;
use linrec_storage::{view_fingerprint, CheckpointPolicy, StdVfs, Store, Vfs};
use std::path::Path;
use std::sync::Arc;

/// What recovery found and did; surfaced by `linrec serve` at startup.
#[derive(Debug)]
pub struct RecoveryReport {
    /// True when a snapshot generation was loaded (vs a fresh start from
    /// the caller's initial database).
    pub from_snapshot: bool,
    /// Epoch the loaded snapshot captured (0 for a fresh start).
    pub snapshot_epoch: u64,
    /// WAL batches replayed through the maintenance path.
    pub replayed_batches: usize,
    /// Views that had to re-materialize from scratch: not in the
    /// snapshot, or registered under a changed definition.
    pub rematerialized: Vec<String>,
    /// Service epoch after recovery.
    pub epoch: u64,
}

/// Open (creating if needed) a durable [`ViewService`] at `dir`. See the
/// module docs for the recovery flow. `initial_db` seeds a store that has
/// no checkpoint yet — typically the program file's facts; once a
/// checkpoint exists the persisted database wins and `initial_db` is
/// ignored. `config` is the service's fixed [`ServiceConfig`] (a bare
/// [`linrec_engine::Parallelism`] converts); it is in force from the first
/// registration on, so e.g. `registration_checks: false` also covers the
/// views registered here.
pub fn open_durable(
    dir: impl AsRef<Path>,
    initial_db: Database,
    defs: Vec<ViewDef>,
    config: impl Into<ServiceConfig>,
    policy: CheckpointPolicy,
) -> Result<(ViewService, RecoveryReport), ServiceError> {
    open_durable_with_vfs(dir, Arc::new(StdVfs), initial_db, defs, config, policy)
}

/// [`open_durable`] with an explicit [`Vfs`] — the fault-injection seam:
/// every byte of storage I/O the service ever does (recovery, WAL
/// appends, checkpoints, restore probes) goes through `vfs`, so a
/// [`linrec_storage::FaultVfs`] here subjects the *whole* durable serve
/// path to deterministic fault schedules. Production callers use
/// [`open_durable`] (a [`StdVfs`]).
pub fn open_durable_with_vfs(
    dir: impl AsRef<Path>,
    vfs: Arc<dyn Vfs>,
    initial_db: Database,
    defs: Vec<ViewDef>,
    config: impl Into<ServiceConfig>,
    policy: CheckpointPolicy,
) -> Result<(ViewService, RecoveryReport), ServiceError> {
    let dir = dir.as_ref();
    let mut store = Store::open_with(dir, Arc::clone(&vfs))?;
    let recovered = store.recover()?;
    // The decision log is observability, not ground truth: a failure to
    // open it must not fail recovery. Opened before views register so
    // registration-time plan decisions land in it.
    let decision_log = match linrec_storage::DecisionLog::open(&vfs, dir) {
        Ok(log) => Some(log),
        Err(e) => {
            eprintln!("linrec: decision log unavailable at {}: {e}", dir.display());
            None
        }
    };
    let from_snapshot = recovered.snapshot.is_some();
    let (db, snapshot_epoch, persisted) = match recovered.snapshot {
        Some(snap) => (snap.db, snap.epoch, snap.views),
        None => (initial_db, 0, Vec::new()),
    };
    let service = ViewService::assemble(db, snapshot_epoch, config.into(), decision_log);
    let mut rematerialized = Vec::new();
    for def in defs {
        // A view whose definition fingerprint still matches adopts its
        // persisted contents; every other view materializes.
        let fp = view_fingerprint(def.seed, def.rules.iter());
        let contents = persisted
            .iter()
            .find(|v| v.name == def.name && v.fingerprint == fp)
            .map(|v| Arc::clone(&v.relation));
        if contents.is_none() {
            rematerialized.push(def.name.clone());
        }
        service.register(def, contents)?;
    }
    // The checkpoint's relations must not outlive their adoption: held
    // across the replay they would keep a whole superseded copy of every
    // view resident.
    drop(persisted);

    // Replay the tail through the live maintenance path, as one group.
    let replayed_batches = recovered.batches.len();
    if replayed_batches > 0 {
        service.apply_batches(recovered.batches.into_iter().map(|b| b.inserts))?;
    }

    let service = service.with_store(store, policy)?;
    // A fresh store, a changed view set, or a replayed tail deserves a
    // checkpoint now, so the next cold start pays only a snapshot load.
    if !from_snapshot || !rematerialized.is_empty() || replayed_batches > 0 {
        service.checkpoint_now()?;
    }
    let epoch = service.snapshot().epoch;
    Ok((
        service,
        RecoveryReport {
            from_snapshot,
            snapshot_epoch,
            replayed_batches,
            rematerialized,
            epoch,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrec_datalog::{parse_linear_rule, Relation, Symbol, Value};
    use linrec_engine::Parallelism;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "linrec-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tc_def() -> ViewDef {
        ViewDef {
            name: "tc".into(),
            rules: vec![parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()],
            seed: Symbol::new("e"),
        }
    }

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs((0..n).map(|i| (i, i + 1))));
        db
    }

    fn pair(a: i64, b: i64) -> Vec<Value> {
        vec![Value::Int(a), Value::Int(b)]
    }

    #[test]
    fn fresh_open_then_cold_start_round_trips() {
        let dir = tmpdir("roundtrip");
        let policy = CheckpointPolicy::default();
        let (service, report) = open_durable(
            &dir,
            chain_db(8),
            vec![tc_def()],
            Parallelism::sequential(),
            policy,
        )
        .unwrap();
        assert!(!report.from_snapshot);
        assert_eq!(report.rematerialized, vec!["tc".to_owned()]);
        service
            .apply_batch([
                (Symbol::new("e"), pair(8, 9)),
                (Symbol::new("e"), pair(9, 10)),
            ])
            .unwrap();
        let want = service.snapshot().view("tc").unwrap().relation.sorted();
        let want_epoch = service.snapshot().epoch;
        drop(service);

        // Cold start: snapshot (epoch 1, from registration) + 1 WAL batch.
        let (service, report) = open_durable(
            &dir,
            Database::new(), // ignored: the checkpoint wins
            vec![tc_def()],
            Parallelism::sequential(),
            policy,
        )
        .unwrap();
        assert!(report.from_snapshot);
        assert!(report.rematerialized.is_empty());
        assert_eq!(report.replayed_batches, 1);
        assert_eq!(report.epoch, want_epoch);
        assert_eq!(
            service.snapshot().view("tc").unwrap().relation.sorted(),
            want
        );
        // The tail replayed through the live maintenance path, so the
        // view's last mode is incremental — not a recovery special case.
        assert_eq!(service.snapshot().view("tc").unwrap().mode, "incremental");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_eight_batch_tail_replays_as_one_group() {
        let dir = tmpdir("group");
        let policy = CheckpointPolicy {
            max_wal_batches: 100,
            max_wal_bytes: u64::MAX,
        };
        let (service, _) = open_durable(
            &dir,
            chain_db(8),
            vec![tc_def()],
            Parallelism::sequential(),
            policy,
        )
        .unwrap();
        let snapshot_epoch = service.snapshot().epoch;
        let mirror = ViewService::new(chain_db(8));
        mirror.register_view(tc_def()).unwrap();
        for i in 0..8 {
            // Extend the chain and hang a branch off an earlier node, so
            // later batches derive through tuples earlier ones added.
            let batch = [
                (Symbol::new("e"), pair(8 + i, 9 + i)),
                (Symbol::new("e"), pair(4 + i, 100 + i)),
            ];
            service.apply_batch(batch.clone()).unwrap();
            mirror.apply_batch(batch).unwrap();
        }
        drop(service);

        let (service, report) = open_durable(
            &dir,
            Database::new(),
            vec![tc_def()],
            Parallelism::sequential(),
            policy,
        )
        .unwrap();
        assert_eq!(report.replayed_batches, 8);
        assert_eq!(report.snapshot_epoch, snapshot_epoch);
        assert_eq!(report.epoch, snapshot_epoch + 8);
        let (got, want) = (service.snapshot(), mirror.snapshot());
        assert_eq!(got.epoch, want.epoch);
        let view = got.view("tc").unwrap();
        assert_eq!(view.mode, "incremental");
        assert_eq!(
            view.relation.sorted(),
            want.view("tc").unwrap().relation.sorted()
        );
        let e = Symbol::new("e");
        assert_eq!(got.db.relation(e), want.db.relation(e));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn changed_definition_rematerializes_instead_of_trusting_the_checkpoint() {
        let dir = tmpdir("refit");
        let policy = CheckpointPolicy::default();
        let (service, _) = open_durable(
            &dir,
            chain_db(4),
            vec![tc_def()],
            Parallelism::sequential(),
            policy,
        )
        .unwrap();
        drop(service);
        // Same name, different rule: left- instead of right-linear TC.
        let changed = ViewDef {
            name: "tc".into(),
            rules: vec![parse_linear_rule("p(x,y) :- p(z,y), e(x,z).").unwrap()],
            seed: Symbol::new("e"),
        };
        let (service, report) = open_durable(
            &dir,
            Database::new(),
            vec![changed],
            Parallelism::sequential(),
            policy,
        )
        .unwrap();
        assert!(report.from_snapshot);
        assert_eq!(report.rematerialized, vec!["tc".to_owned()]);
        // Both TC forms agree on the closure, so contents match; what
        // matters is the path taken: materialize, not recovered.
        assert_eq!(service.snapshot().view("tc").unwrap().mode, "materialize");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_pressure_triggers_generation_rotation() {
        let dir = tmpdir("rotate");
        let policy = CheckpointPolicy {
            max_wal_batches: 2,
            max_wal_bytes: u64::MAX,
        };
        let (service, _) = open_durable(
            &dir,
            chain_db(3),
            vec![tc_def()],
            Parallelism::sequential(),
            policy,
        )
        .unwrap();
        let g0 = service.store_generation().unwrap();
        service
            .apply_batch([(Symbol::new("e"), pair(3, 4))])
            .unwrap();
        assert_eq!(service.store_generation().unwrap(), g0, "below threshold");
        service
            .apply_batch([(Symbol::new("e"), pair(4, 5))])
            .unwrap();
        assert_eq!(
            service.store_generation().unwrap(),
            g0 + 1,
            "second batch trips the policy"
        );
        drop(service);
        // The rotated store recovers with an empty tail.
        let (service, report) = open_durable(
            &dir,
            Database::new(),
            vec![tc_def()],
            Parallelism::sequential(),
            policy,
        )
        .unwrap();
        assert_eq!(report.replayed_batches, 0);
        // Pure snapshot load, no tail: the view's state is the recovered
        // relation itself.
        assert_eq!(service.snapshot().view("tc").unwrap().mode, "recovered");
        assert_eq!(service.snapshot().count("tc").unwrap(), 5 * 6 / 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
