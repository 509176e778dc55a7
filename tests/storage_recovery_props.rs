//! Durability properties (vendored proptest, seeded and deterministic).
//!
//! Two contracts from the storage subsystem's acceptance criteria:
//!
//! 1. **Round trip** — for random programs and random insert-batch
//!    sequences, a durable service that is dropped and re-opened
//!    (`open_durable`: snapshot load + WAL-tail replay through the
//!    certificate-licensed maintenance path) reproduces the in-memory
//!    database and view contents bit-identically, whatever checkpoint
//!    cadence interleaved with the batches.
//!
//! 2. **Torn-write safety** — truncating or flipping bytes at arbitrary
//!    offsets in the WAL, the snapshot, or the manifest makes recovery
//!    yield either a state equivalent to some *acknowledged-batch prefix*
//!    or a typed error — never a panic, never a silently wrong database.
//!    (A WAL flip drops the damaged frame and everything after it: still
//!    a prefix. A snapshot or manifest flip fails a CRC: typed error.)

use linrec::prelude::*;
use linrec::service::{
    open_durable, CheckpointPolicy, ServiceConfig, ServiceError, ViewDef, ViewService,
};
use linrec::storage::Store;
use linrec_testkit::{cover_db, random_graph, rule_set};
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn base_db(rules: &[LinearRule], case: u64) -> Database {
    let mut db = cover_db(rules, 8, 10, case);
    db.set_relation("s0", random_graph(8, 6, case.wrapping_add(71)));
    db
}

/// Insert targets: the seed plus the rules' EDB predicates.
fn insert_preds(rules: &[LinearRule]) -> Vec<Symbol> {
    let mut preds: Vec<Symbol> = vec![Symbol::new("s0")];
    for rule in rules {
        for atom in rule.nonrec_atoms() {
            if !preds.contains(&atom.pred) {
                preds.push(atom.pred);
            }
        }
    }
    preds
}

static DIR_TAG: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "linrec-recprops-{tag}-{}-{}",
        std::process::id(),
        DIR_TAG.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn view_def(rules: &[LinearRule]) -> ViewDef {
    ViewDef {
        name: "v".into(),
        rules: rules.to_vec(),
        seed: Symbol::new("s0"),
    }
}

/// Compare the durable service's whole state against the in-memory mirror:
/// every database relation and the view contents, tuple for tuple.
fn assert_state_matches(durable: &ViewService, mirror: &ViewService, context: &str) {
    let a = durable.snapshot();
    let b = mirror.snapshot();
    assert_eq!(
        a.view("v").unwrap().relation.sorted(),
        b.view("v").unwrap().relation.sorted(),
        "view diverged: {context}"
    );
    let mut names_a: Vec<&str> = a.db.iter().map(|(s, _)| s.as_str()).collect();
    let mut names_b: Vec<&str> = b.db.iter().map(|(s, _)| s.as_str()).collect();
    names_a.sort();
    names_b.sort();
    assert_eq!(names_a, names_b, "relation sets diverged: {context}");
    for (sym, rel) in a.db.iter() {
        let other = b.db.relation(sym).unwrap();
        assert_eq!(rel, other, "relation {sym} diverged: {context}");
        assert_eq!(rel.arity(), other.arity());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Acceptance: recover() after checkpoint + WAL-append reproduces the
    /// in-memory Database and view contents bit-identically, across
    /// multiple crash/reopen points and checkpoint cadences.
    #[test]
    fn cold_start_reproduces_the_in_memory_state(
        case in 0u64..10_000,
        ckpt_every in 1u64..6,
        batches in vec(vec((0u8..4, 0i64..9, 0i64..9), 1..5), 1..6),
        reopen_at in 0usize..4,
    ) {
        let rules = rule_set(case);
        prop_assume!(rules.is_some());
        let rules = rules.unwrap();
        let preds = insert_preds(&rules);
        let policy = CheckpointPolicy {
            max_wal_batches: ckpt_every,
            max_wal_bytes: u64::MAX,
        };
        let dir = tmpdir("roundtrip");

        // In-memory mirror: the same service without a store.
        let mirror = ViewService::new(base_db(&rules, case));
        mirror.register_view(view_def(&rules)).unwrap();

        let mut durable = Some(
            open_durable(&dir, base_db(&rules, case), vec![view_def(&rules)],
                         ServiceConfig::default(), policy)
                .expect("fresh open")
                .0,
        );
        for (i, batch) in batches.iter().enumerate() {
            // Crash/reopen before one of the batches (reopen_at picks
            // which); dropping the service loses all in-memory state.
            if i == reopen_at {
                drop(durable.take());
                let (service, report) = open_durable(
                    &dir, Database::new(), vec![view_def(&rules)],
                    ServiceConfig::default(), policy,
                ).expect("reopen");
                prop_assert!(report.rematerialized.is_empty(),
                    "fingerprint must match across restarts");
                durable = Some(service);
            }
            let durable_ref = durable.as_ref().unwrap();
            let inserts: Vec<(Symbol, Vec<Value>)> = batch
                .iter()
                .map(|&(p, a, b)| {
                    (preds[p as usize % preds.len()], vec![Value::Int(a), Value::Int(b)])
                })
                .collect();
            let ra = durable_ref.apply_batch(inserts.clone()).expect("durable batch");
            let rb = mirror.apply_batch(inserts).expect("mirror batch");
            prop_assert_eq!(ra.inserted, rb.inserted);
            assert_state_matches(durable_ref, &mirror, &format!("after batch {i}"));
        }

        // Final cold start must reproduce the state exactly.
        drop(durable.take());
        let (recovered, _) = open_durable(
            &dir, Database::new(), vec![view_def(&rules)], ServiceConfig::default(), policy,
        ).expect("final cold start");
        assert_state_matches(&recovered, &mirror, "after final cold start");
        prop_assert_eq!(recovered.snapshot().epoch, mirror.snapshot().epoch,
            "epochs must survive restarts");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Acceptance: corrupting or truncating the store's files at random
    /// offsets makes recovery yield a state equivalent to some
    /// acknowledged-batch prefix, or a typed error — never a panic and
    /// never a wrong answer.
    #[test]
    fn corruption_yields_a_prefix_or_a_typed_error(
        case in 0u64..10_000,
        ckpt_every in 1u64..5,
        batches in vec(vec((0u8..4, 0i64..9, 0i64..9), 1..4), 1..5),
        file_pick in 0usize..16,
        offset_mill in 0u32..1000,
        truncate in any::<bool>(),
    ) {
        let rules = rule_set(case);
        prop_assume!(rules.is_some());
        let rules = rules.unwrap();
        let preds = insert_preds(&rules);
        let policy = CheckpointPolicy {
            max_wal_batches: ckpt_every,
            max_wal_bytes: u64::MAX,
        };
        let dir = tmpdir("torn");

        // Build the durable state while recording every acknowledged
        // prefix's view contents in a pure in-memory mirror.
        let mirror = ViewService::new(base_db(&rules, case));
        mirror.register_view(view_def(&rules)).unwrap();
        let mut prefix_states: Vec<Vec<Tuple>> =
            vec![mirror.snapshot().view("v").unwrap().relation.sorted()];
        {
            let (durable, _) = open_durable(
                &dir, base_db(&rules, case), vec![view_def(&rules)],
                ServiceConfig::default(), policy,
            ).expect("fresh open");
            for batch in &batches {
                let inserts: Vec<(Symbol, Vec<Value>)> = batch
                    .iter()
                    .map(|&(p, a, b)| {
                        (preds[p as usize % preds.len()], vec![Value::Int(a), Value::Int(b)])
                    })
                    .collect();
                durable.apply_batch(inserts.clone()).expect("durable batch");
                mirror.apply_batch(inserts).expect("mirror batch");
                prefix_states.push(mirror.snapshot().view("v").unwrap().relation.sorted());
            }
        }

        // Damage one file at a pseudo-random offset.
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        prop_assume!(!files.is_empty());
        let target = &files[file_pick % files.len()];
        let bytes = std::fs::read(target).unwrap();
        prop_assume!(!bytes.is_empty());
        let offset = (offset_mill as usize * bytes.len() / 1000).min(bytes.len() - 1);
        if truncate {
            let f = std::fs::OpenOptions::new().write(true).open(target).unwrap();
            f.set_len(offset as u64).unwrap();
        } else {
            let mut damaged = bytes;
            damaged[offset] ^= 0x5A;
            std::fs::write(target, damaged).unwrap();
        }

        // Raw store recovery: prefix of batches or typed error, no panic.
        let raw = Store::open(&dir).and_then(|mut s| s.recover());
        if let Ok(recovered) = &raw {
            // The WAL tail must still be a strictly increasing run.
            let mut last = 0u64;
            for b in &recovered.batches {
                prop_assert!(b.seq > last);
                last = b.seq;
            }
        }

        // Full service recovery: some acknowledged prefix, or typed error.
        let result = open_durable(
            &dir, base_db(&rules, case), vec![view_def(&rules)],
            ServiceConfig::default(), policy,
        );
        match result {
            Ok((service, _)) => {
                let got = service.snapshot().view("v").unwrap().relation.sorted();
                prop_assert!(
                    prefix_states.contains(&got),
                    "recovered view matches no acknowledged prefix \
                     (file {:?}, offset {offset}, truncate {truncate})",
                    target.file_name()
                );
            }
            Err(ServiceError::Storage(_)) => {} // typed, expected
            Err(other) => {
                prop_assert!(false, "non-storage error from corrupted recovery: {other}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
