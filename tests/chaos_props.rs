//! Chaos property suite for the durable serve path.
//!
//! Each iteration drives randomized batch traffic through a durable
//! [`ViewService`] whose storage sits on a seeded [`FaultVfs`], flipping
//! between clean and faulty I/O segments mid-stream. The invariants:
//!
//! 1. **No acked batch is ever lost** — every tuple whose `apply_batch`
//!    returned `Ok` is present in the EDB recovered by a cold,
//!    production (`StdVfs`) reopen of the same directory.
//! 2. **Unacked batches vanish atomically** — a refused batch leaves the
//!    live epoch and view untouched (no partial application).
//! 3. **Every degradation is typed** — failures surface only as
//!    `Degraded` / `Storage` / `Busy` / `Timeout`, never as a panic.
//! 4. **Recovery converges** — once faults clear, `try_restore` brings
//!    the service back to read-write, writes flow again, and the
//!    recovered view is byte-identical to a from-scratch fixpoint over
//!    the recovered EDB.
//!
//! One asymmetry is deliberate: an *acked* batch must be durable, but a
//! batch refused after its WAL frame hit disk (e.g. the fsync reported
//! failure after the kernel wrote the page) may legitimately reappear on
//! cold recovery. So the durability invariant is acked ⊆ recovered, not
//! set equality, and the view check recomputes from whatever EDB
//! recovery actually produced.
//!
//! Every schedule runs twice: once committing each batch with
//! `apply_batch`, once through the multi-member `apply_batches` with one
//! member per tuple (the grouped path WAL replay takes). Both draw the
//! same random numbers, so they cover the same schedules.
//!
//! Runs 100 iterations by default (seeds are fixed, so every run covers
//! the same schedules); set `LINREC_CHAOS_ITERS` for longer soak runs
//! and `LINREC_CHAOS_SEED` to shift the whole seed sequence.

use linrec::prelude::*;
use linrec::service::{
    open_durable, open_durable_with_vfs, CheckpointPolicy, RetryPolicy, ServiceConfig,
    ServiceError, ServiceMode, ViewDef, ViewService,
};
use linrec::storage::{FaultOp, FaultPlan, FaultVfs, Vfs};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("linrec-chaos-{}-{}", std::process::id(), tag));
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

/// xorshift64* — the same generator the storage fault plans use, kept
/// local so the traffic schedule is reproducible from the seed alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        (self.next() >> 32) % n
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The errors a refused write is allowed to surface. Anything else —
/// and in particular any panic — fails the iteration.
fn assert_typed(err: &ServiceError, seed: u64, batch: usize) {
    assert!(
        matches!(
            err,
            ServiceError::Degraded { .. }
                | ServiceError::Storage(_)
                | ServiceError::Busy { .. }
                | ServiceError::Timeout { .. }
        ),
        "seed {seed} batch {batch}: untyped failure {err:?}"
    );
}

/// Recompute the transitive closure from scratch over `db`'s `e`
/// relation and assert the service's view matches byte-for-byte.
fn assert_view_is_fixpoint(service: &ViewService, context: &str) {
    let snap = service.snapshot();
    let db = snap.db.snapshot();
    let init = db.relation_or_empty(Symbol::new("e"), 2);
    let rules = vec![parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()];
    let scratch = Plan::direct(rules).execute(&db, &init).unwrap();
    assert_eq!(
        snap.view("tc").unwrap().relation.sorted(),
        scratch.relation.sorted(),
        "{context}: recovered view diverges from the from-scratch fixpoint"
    );
}

/// One randomized schedule: clean traffic, then a faulty segment under a
/// seeded plan, then clearance, restore, and a cold production reopen.
/// `grouped` commits each batch as one `apply_batches` group with one
/// member per tuple instead of one `apply_batch`.
fn chaos_iteration(seed: u64, grouped: bool) {
    let dir = tmpdir(&format!(
        "{}seed{seed}",
        if grouped { "group-" } else { "" }
    ));
    let mut rng = Rng::new(seed);
    let fault = FaultVfs::new(FaultPlan::none());
    let vfs: Arc<dyn Vfs> = fault.clone();

    // Small checkpoint thresholds so the schedule exercises rotation
    // (snapshot + rename + truncate) as well as plain appends.
    let policy = CheckpointPolicy {
        max_wal_batches: 3 + rng.below(4),
        max_wal_bytes: 1 << 20,
    };
    // Half the schedules run without retries so single transient
    // faults surface; the other half exercise the retry path.
    let retry = if seed.is_multiple_of(2) {
        RetryPolicy::none()
    } else {
        RetryPolicy::default()
    };
    let (service, _report) = open_durable_with_vfs(
        &dir,
        vfs,
        chain_db(6),
        vec![tc_def()],
        ServiceConfig {
            retry,
            ..ServiceConfig::default()
        },
        policy,
    )
    .expect("clean open under a no-fault plan");
    let service = Arc::new(service);

    // The model: every tuple the service has ever acknowledged.
    let mut acked: BTreeSet<(i64, i64)> = (0..6).map(|i| (i, i + 1)).collect();

    let batches = 10 + rng.below(6) as usize;
    let fault_from = 2 + rng.below(3) as usize;
    let fault_until = fault_from + 3 + rng.below(3) as usize;
    let per_mille = 150 + rng.below(500) as u32;

    for b in 0..batches {
        if b == fault_from {
            fault.set_plan(FaultPlan::seeded_ops(
                seed ^ 0x9E37_79B9,
                per_mille,
                vec![
                    FaultOp::Write,
                    FaultOp::Sync,
                    FaultOp::Open,
                    FaultOp::Rename,
                ],
            ));
        }
        if b == fault_until {
            fault.clear();
        }

        let batch: Vec<(Symbol, Vec<Value>)> = (0..1 + rng.below(4))
            .map(|_| {
                let a = rng.below(40) as i64;
                let z = rng.below(40) as i64;
                (Symbol::new("e"), vec![Value::Int(a), Value::Int(z)])
            })
            .collect();

        let before = service.snapshot();
        let committed = if grouped {
            service.apply_batches(batch.iter().map(|insert| [insert.clone()]))
        } else {
            service.apply_batch(batch.clone())
        };
        match committed {
            Ok(_) => {
                for (_, t) in &batch {
                    if let [Value::Int(a), Value::Int(z)] = t.as_slice() {
                        acked.insert((*a, *z));
                    }
                }
            }
            Err(e) => {
                // Invariant 2 + 3: typed refusal, atomic no-op.
                assert_typed(&e, seed, b);
                let after = service.snapshot();
                assert_eq!(
                    after.epoch, before.epoch,
                    "seed {seed} batch {b}: refused batch bumped the epoch"
                );
                assert_eq!(
                    after.count("tc").unwrap(),
                    before.count("tc").unwrap(),
                    "seed {seed} batch {b}: refused batch mutated the view"
                );
            }
        }

        // Sprinkle in operator actions mid-schedule; their failures must
        // be typed too, and never poison the service.
        match rng.below(8) {
            0 => {
                if let Err(e) = service.checkpoint_now() {
                    assert_typed(&e, seed, b);
                }
            }
            1 => {
                if let Err(e) = service.try_restore() {
                    assert_typed(&e, seed, b);
                }
            }
            _ => {}
        }
    }

    // Invariant 4: clearance → restore → writes flow again.
    fault.clear();
    service
        .try_restore()
        .unwrap_or_else(|e| panic!("seed {seed}: restore refused after faults cleared: {e}"));
    assert_eq!(
        service.mode().0,
        ServiceMode::ReadWrite,
        "seed {seed}: still degraded after clearance"
    );
    service
        .apply_batch(vec![(
            Symbol::new("e"),
            vec![Value::Int(90), Value::Int(91)],
        )])
        .unwrap_or_else(|e| panic!("seed {seed}: write refused after recovery: {e}"));
    acked.insert((90, 91));
    assert_view_is_fixpoint(&service, &format!("seed {seed} live"));

    // Invariant 1 + 4: cold reopen on the production VFS must hold every
    // acked tuple and converge to the from-scratch fixpoint.
    drop(service);
    let (recovered, _) = open_durable(
        &dir,
        Database::new(),
        vec![tc_def()],
        Parallelism::sequential(),
        CheckpointPolicy::default(),
    )
    .unwrap_or_else(|e| panic!("seed {seed}: cold production reopen failed: {e}"));
    let snap = recovered.snapshot();
    let edb = snap.db.snapshot().relation_or_empty(Symbol::new("e"), 2);
    for (a, z) in &acked {
        assert!(
            edb.contains(&[Value::Int(*a), Value::Int(*z)]),
            "seed {seed}: acked tuple e({a},{z}) lost across recovery"
        );
    }
    assert_view_is_fixpoint(&recovered, &format!("seed {seed} cold"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn randomized_fault_schedules_never_lose_acked_batches() {
    let iters = env_u64("LINREC_CHAOS_ITERS", 100);
    let base = env_u64("LINREC_CHAOS_SEED", 0xC0FF_EE00);
    for i in 0..iters {
        chaos_iteration(base + i, false);
    }
}

#[test]
fn grouped_fault_schedules_never_lose_acked_batches() {
    let iters = env_u64("LINREC_CHAOS_ITERS", 100);
    let base = env_u64("LINREC_CHAOS_SEED", 0xC0FF_EE00);
    for i in 0..iters {
        chaos_iteration(base + i, true);
    }
}

#[test]
fn crash_while_degraded_recovers_the_acked_prefix() {
    // Deterministic companion to the randomized sweep: exhaust the disk
    // mid-stream, keep writing into the degradation (all refused), then
    // "crash" (drop without clearance) and recover cold. The acked
    // prefix must survive; the refused writes must not.
    let dir = tmpdir("crash-degraded");
    let fault = FaultVfs::new(FaultPlan::none());
    let vfs: Arc<dyn Vfs> = fault.clone();
    let (service, _) = open_durable_with_vfs(
        &dir,
        vfs,
        chain_db(4),
        vec![tc_def()],
        ServiceConfig {
            retry: RetryPolicy::none(),
            ..ServiceConfig::default()
        },
        CheckpointPolicy::default(),
    )
    .expect("clean open");

    service
        .apply_batch(vec![(Symbol::new("e"), vec![Value::Int(4), Value::Int(5)])])
        .expect("clean write acked");

    // Every write op from here on reports ENOSPC.
    fault.set_plan(FaultPlan::seeded_ops(1, 1000, vec![FaultOp::Write]));
    for k in 0..3i64 {
        let err = service
            .apply_batch(vec![(
                Symbol::new("e"),
                vec![Value::Int(100 + k), Value::Int(101 + k)],
            )])
            .expect_err("write under full disk must be refused");
        assert_eq!(err.code(), "degraded");
    }
    assert_eq!(service.mode().0, ServiceMode::Degraded);
    drop(service); // crash without clearing the fault or restoring

    let (recovered, _) = open_durable(
        &dir,
        Database::new(),
        vec![tc_def()],
        Parallelism::sequential(),
        CheckpointPolicy::default(),
    )
    .expect("cold reopen after crash");
    let snap = recovered.snapshot();
    let edb = snap.db.snapshot().relation_or_empty(Symbol::new("e"), 2);
    assert!(
        edb.contains(&[Value::Int(4), Value::Int(5)]),
        "acked batch lost"
    );
    for k in 0..3i64 {
        assert!(
            !edb.contains(&[Value::Int(100 + k), Value::Int(101 + k)]),
            "refused batch e({},{}) reappeared after the crash",
            100 + k,
            101 + k
        );
    }
    assert_view_is_fixpoint(&recovered, "crash-degraded cold");
    let _ = std::fs::remove_dir_all(&dir);
}
