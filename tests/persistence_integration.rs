//! End-to-end persistence: durable `linrec serve` semantics without the
//! process boundary — open a durable service, drive it through the line
//! protocol, drop it (the "crash"), and reopen the same data directory.
//!
//! Covers the service-level guarantees the storage property tests cannot
//! see: protocol commits are durable once acknowledged, epochs are
//! strictly increasing across restarts, checkpoint generations rotate and
//! prune on disk, symbolic constants survive the value codec end to end,
//! and a torn WAL tail silently drops only the unacknowledged suffix.

use linrec::prelude::*;
use linrec::service::{
    open_durable, CheckpointPolicy, ServiceConfig, ServiceError, Session, ViewDef, ViewService,
};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("linrec-persist-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tc_def(seed: &str) -> ViewDef {
    ViewDef {
        name: "tc".into(),
        rules: vec![parse_linear_rule(&format!("p(x,y) :- p(x,z), {seed}(z,y).")).unwrap()],
        seed: Symbol::new(seed),
    }
}

fn chain_db(seed: &str, n: i64) -> Database {
    let mut db = Database::new();
    db.set_relation(seed, Relation::from_pairs((0..n).map(|i| (i, i + 1))));
    db
}

#[test]
fn protocol_commits_survive_a_restart() {
    let dir = tmpdir("protocol");
    let policy = CheckpointPolicy::default();
    let open = |initial: Database| {
        open_durable(
            &dir,
            initial,
            vec![tc_def("e")],
            Parallelism::sequential(),
            policy,
        )
        .expect("open durable")
    };

    let (service, _) = open(chain_db("e", 3));
    let mut session = Session::new(Arc::new(service));
    assert_eq!(session.handle("count tc").text, "ok count 6");
    assert!(session.handle("insert e 3 4").text.starts_with("ok staged"));
    assert!(session.handle("insert e 4 5").text.starts_with("ok staged"));
    let commit = session.handle("commit").text;
    assert!(commit.starts_with("ok epoch 2 inserted 2/2"), "{commit}");
    assert_eq!(session.handle("count tc").text, "ok count 15");
    drop(session); // "crash": all in-memory state gone

    let (service, report) = open(Database::new());
    assert!(report.from_snapshot);
    assert_eq!(report.replayed_batches, 1);
    let mut session = Session::new(Arc::new(service));
    assert_eq!(session.handle("count tc").text, "ok count 15");
    assert_eq!(session.handle("epoch").text, "ok epoch 2");
    assert_eq!(session.handle("ask tc 0 5").text, "ok true");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn epochs_increase_strictly_across_many_restarts() {
    let dir = tmpdir("epochs");
    let policy = CheckpointPolicy {
        max_wal_batches: 2,
        max_wal_bytes: u64::MAX,
    };
    let mut last_epoch = 0;
    for round in 0..5i64 {
        let (service, report) = open_durable(
            &dir,
            chain_db("e", 2),
            vec![tc_def("e")],
            Parallelism::sequential(),
            policy,
        )
        .expect("open");
        assert!(
            report.epoch >= last_epoch,
            "epoch regressed across restart {round}: {} < {last_epoch}",
            report.epoch
        );
        let before = service.snapshot().epoch;
        service
            .apply_batch([(
                Symbol::new("e"),
                vec![Value::Int(100 + round), Value::Int(101 + round)],
            )])
            .expect("batch");
        let after = service.snapshot().epoch;
        assert_eq!(after, before + 1);
        last_epoch = after;
    }
    // Five rounds, one genuinely new insert each (plus registration).
    assert!(last_epoch >= 6, "epochs did not accumulate: {last_epoch}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generations_rotate_and_prune_on_disk() {
    let dir = tmpdir("generations");
    let policy = CheckpointPolicy {
        max_wal_batches: 1, // checkpoint after every batch
        max_wal_bytes: u64::MAX,
    };
    let (service, _) = open_durable(
        &dir,
        chain_db("e", 2),
        vec![tc_def("e")],
        Parallelism::sequential(),
        policy,
    )
    .expect("open");
    let g0 = service.store_generation().unwrap();
    for i in 0..3i64 {
        service
            .apply_batch([(
                Symbol::new("e"),
                vec![Value::Int(10 + i), Value::Int(11 + i)],
            )])
            .expect("batch");
    }
    let g3 = service.store_generation().unwrap();
    assert_eq!(g3, g0 + 3, "every batch tripped the one-batch policy");
    // Exactly one snapshot + one WAL + the manifest remain (plus the
    // append-only plan-decision log, which is not generational).
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(
        names,
        vec![
            "MANIFEST".to_owned(),
            "decisions.log".to_owned(),
            format!("snapshot-{g3}.snap"),
            format!("wal-{g3}.log"),
        ],
        "superseded generations must be pruned"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn symbolic_constants_round_trip_through_snapshot_and_wal() {
    let dir = tmpdir("symbols");
    let policy = CheckpointPolicy {
        max_wal_batches: 100, // keep the second batch in the WAL tail
        max_wal_bytes: u64::MAX,
    };
    let mut db = Database::new();
    db.set_relation(
        "knows",
        Relation::from_tuples(
            2,
            [
                vec![Value::sym("alice"), Value::sym("bob")],
                vec![Value::sym("bob"), Value::sym("carol")],
            ],
        ),
    );
    let def = ViewDef {
        name: "tc".into(),
        rules: vec![parse_linear_rule("p(x,y) :- p(x,z), knows(z,y).").unwrap()],
        seed: Symbol::new("knows"),
    };
    let (service, _) = open_durable(
        &dir,
        db,
        vec![def.clone()],
        Parallelism::sequential(),
        policy,
    )
    .expect("open");
    // The registration checkpoint persisted the symbolic base relations;
    // this batch stays in the WAL, so both codecs carry symbols.
    service
        .apply_batch([(
            Symbol::new("knows"),
            vec![Value::sym("carol"), Value::sym("dave")],
        )])
        .expect("batch");
    let want = service.snapshot().view("tc").unwrap().relation.sorted();
    drop(service);

    let (service, report) = open_durable(
        &dir,
        Database::new(),
        vec![def],
        Parallelism::sequential(),
        policy,
    )
    .expect("reopen");
    assert_eq!(report.replayed_batches, 1, "symbol batch came from the WAL");
    let snap = service.snapshot();
    assert_eq!(snap.view("tc").unwrap().relation.sorted(), want);
    assert!(snap
        .contains("tc", &[Value::sym("alice"), Value::sym("dave")])
        .unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_wal_tail_loses_only_the_unacknowledged_suffix() {
    let dir = tmpdir("torntail");
    let policy = CheckpointPolicy {
        max_wal_batches: 100,
        max_wal_bytes: u64::MAX,
    };
    let (service, _) = open_durable(
        &dir,
        chain_db("e", 3),
        vec![tc_def("e")],
        Parallelism::sequential(),
        policy,
    )
    .expect("open");
    service
        .apply_batch([(Symbol::new("e"), vec![Value::Int(3), Value::Int(4)])])
        .expect("first batch");
    let after_first = service.snapshot().view("tc").unwrap().relation.sorted();
    service
        .apply_batch([(Symbol::new("e"), vec![Value::Int(4), Value::Int(5)])])
        .expect("second batch");
    let gen = service.store_generation().unwrap();
    drop(service);

    // Tear the last frame: chop a few bytes off the live WAL, simulating a
    // crash mid-write of the second batch's frame.
    let wal = dir.join(format!("wal-{gen}.log"));
    let len = std::fs::metadata(&wal).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);

    let (service, report) = open_durable(
        &dir,
        Database::new(),
        vec![tc_def("e")],
        Parallelism::sequential(),
        policy,
    )
    .expect("recovery after torn tail");
    assert_eq!(report.replayed_batches, 1, "only the intact frame replays");
    assert_eq!(
        service.snapshot().view("tc").unwrap().relation.sorted(),
        after_first,
        "state equals the acknowledged prefix before the torn frame"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_and_volatile_services_agree_under_identical_traffic() {
    // The WAL/checkpoint machinery must be invisible to semantics: a
    // durable service and a plain in-memory one fed the same batches
    // produce identical reports and snapshots.
    let dir = tmpdir("agree");
    let policy = CheckpointPolicy {
        max_wal_batches: 2,
        max_wal_bytes: u64::MAX,
    };
    let (durable, _) = open_durable(
        &dir,
        chain_db("e", 4),
        vec![tc_def("e")],
        Parallelism::sequential(),
        policy,
    )
    .expect("open");
    let volatile = linrec::service::ViewService::new(chain_db("e", 4));
    volatile.register_view(tc_def("e")).unwrap();
    for i in 0..5i64 {
        let batch = vec![
            (Symbol::new("e"), vec![Value::Int(4 + i), Value::Int(5 + i)]),
            (Symbol::new("e"), vec![Value::Int(0), Value::Int(1)]), // duplicate
        ];
        let a = durable.apply_batch(batch.clone()).unwrap();
        let b = volatile.apply_batch(batch).unwrap();
        assert_eq!(a.inserted, b.inserted);
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.views.len(), b.views.len());
        for (va, vb) in a.views.iter().zip(&b.views) {
            assert_eq!(va.mode, vb.mode);
            assert_eq!(va.stats, vb.stats);
            assert_eq!(va.grown_by, vb.grown_by);
        }
    }
    assert_eq!(
        durable.snapshot().view("tc").unwrap().relation.sorted(),
        volatile.snapshot().view("tc").unwrap().relation.sorted()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registration_checks_mean_the_same_with_and_without_a_data_dir() {
    // Two rules using `e` at two arities: the registration gate's L003.
    let def = || ViewDef {
        name: "tc".into(),
        rules: vec![
            parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap(),
            parse_linear_rule("p(x,y) :- p(x,z), e(z,y,y).").unwrap(),
        ],
        seed: Symbol::new("p"),
    };
    let db = || {
        let mut db = chain_db("e", 3);
        db.set_relation("p", Relation::from_pairs([(0, 0)]));
        db
    };
    let config = |registration_checks| ServiceConfig {
        registration_checks,
        ..ServiceConfig::default()
    };
    let policy = CheckpointPolicy::default();
    let refused = |e: ServiceError| matches!(e, ServiceError::Lint(_));

    // Gate on: both shapes refuse, typed.
    let volatile = ViewService::with_config(db(), config(true));
    assert!(refused(volatile.register_view(def()).unwrap_err()));
    let dir = tmpdir("no-check-refused");
    let err = open_durable(&dir, db(), vec![def()], config(true), policy)
        .map(|_| ())
        .unwrap_err();
    assert!(refused(err));
    let _ = std::fs::remove_dir_all(&dir);

    // Gate off: the config is in force while `open_durable` registers, so
    // a fresh data dir serves exactly what the volatile service serves.
    let volatile = ViewService::with_config(db(), config(false));
    volatile.register_view(def()).unwrap();
    let dir = tmpdir("no-check-served");
    let (durable, _) = open_durable(&dir, db(), vec![def()], config(false), policy).unwrap();
    assert_eq!(
        durable.snapshot().view("tc").unwrap().relation.sorted(),
        volatile.snapshot().view("tc").unwrap().relation.sorted()
    );
    assert_eq!(durable.snapshot().count("tc").unwrap(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}
