//! Integration tests for the plan-decision journal, `explain analyze`,
//! and the plan-drift sentinel:
//!
//! * a dense-planned transitive-closure query explained with `analyze`
//!   carries the dense-vs-sparse decision record (candidates, estimates,
//!   certificates) and per-node wall time;
//! * a deliberately miscalibrated cost model trips the sentinel within a
//!   few maintenance batches and auto-recalibrates from the journal's
//!   recent (estimate, actual) pairs;
//! * the on-disk `decisions.log` rides the service's `Vfs` and survives
//!   fault-injection chaos without ever losing an acknowledged batch.

use linrec::engine::{CertKind, DenseVerdict, MaintenanceMode, PickedBy};
use linrec::prelude::*;
use linrec::service::{
    explain_json, open_durable_with_vfs, MaintainedView, SentinelConfig, ServiceConfig, Session,
    ViewDef, ViewService,
};
use linrec::storage::{
    read_decision_log, CheckpointPolicy, FaultOp, FaultPlan, FaultVfs, StdVfs, Vfs,
};
use std::sync::Arc;

fn chain_db(n: i64) -> Database {
    let mut db = Database::new();
    db.set_relation("e", (0..n).map(|i| (i, i + 1)).collect::<Relation>());
    db
}

fn tc_def() -> ViewDef {
    ViewDef {
        name: "tc".into(),
        rules: vec![parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()],
        seed: Symbol::new("e"),
    }
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "linrec-journal-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn explain_analyze_on_a_dense_planned_tc_query_shows_the_decision_record() {
    // A full chain seed makes the composition dense-eligible and the cost
    // model picks closure by squaring.
    let service = ViewService::new(chain_db(100));
    service.register_view(tc_def()).unwrap();

    let report = service.explain("tc", true).unwrap();
    assert!(report.analyzed);
    assert!(report.tree.contains("DenseClosure"), "{}", report.tree);

    // The structured record carries the dense-vs-sparse competition:
    // candidates with estimates, the winner, and the certificate.
    let dec = &report.decision;
    assert_eq!(dec.view, "tc");
    assert_eq!(dec.winner, PlanShape::DenseClosure);
    assert_eq!(dec.picked_by, PickedBy::CostModel);
    let weighed: Vec<&str> = dec.candidates.iter().map(|c| c.shape.label()).collect();
    assert_eq!(weighed, ["Direct", "DenseClosure"]);
    assert!(matches!(dec.dense, Some(DenseVerdict::Chosen { .. })));
    assert_eq!(dec.certificates[0].0, CertKind::CompositionShape);
    assert_eq!(dec.maintenance_mode, Some(MaintenanceMode::Incremental));
    assert!(dec.ratio().is_some(), "analyze attaches the actuals");

    // Analyze ran the plan: per-node wall time is present and sums to
    // the reported total.
    assert!(!report.nodes.is_empty());
    assert!(
        report.nodes.iter().all(|n| n.nanos > 0),
        "{:?}",
        report.nodes
    );
    assert_eq!(
        report.total_nanos,
        report.nodes.iter().map(|n| n.nanos).sum::<u64>()
    );

    // And the JSON rendering inlines all of it for tooling.
    let json = explain_json(&report);
    assert!(json.contains("\"analyzed\":true"), "{json}");
    assert!(json.contains("\"winner\":\"DenseClosure\""), "{json}");
    assert!(json.contains("\"nodes\":[{\"label\":"), "{json}");
}

#[test]
fn every_surface_prints_the_same_rendered_decision() {
    // A point seed over a wide chain: the cost model declines dense and
    // keeps Direct, so the lint has a CostSkippedCertificate note to
    // print next to `stats`, `explain` and `describe()`.
    let rules = vec![parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()];
    let mut db = chain_db(3000);
    db.set_relation("s", Relation::from_pairs([(0, 1)]));
    let def = ViewDef {
        name: "reach".into(),
        rules: rules.clone(),
        seed: Symbol::new("s"),
    };

    let mut view = MaintainedView::register(def.clone(), &db).unwrap();
    view.materialize(&db).unwrap();
    let plan = view.plan();
    assert_eq!(plan.shape(), PlanShape::Direct);
    let rendered = plan.decision().to_string();
    assert!(plan
        .describe()
        .ends_with(&format!("  rationale: {rendered}\n")));
    let notes = linrec::lint::plan_lints(&Analysis::of(&rules, None), plan);
    assert_eq!(notes[0].code, Code::CostSkippedCertificate);
    assert_eq!(
        notes[0].help.as_deref(),
        Some(format!("the plan's decision: {rendered}").as_str())
    );

    // The service plans the same view the same way; `stats` and `explain`
    // print that very text after their line prefixes.
    let service = Arc::new(ViewService::new(db));
    service.register_view(def).unwrap();
    let mut session = Session::new(Arc::clone(&service));
    let stats = session.handle("stats reach").text;
    assert!(
        stats.lines().any(|l| l == format!("stat plan {rendered}")),
        "{stats}"
    );
    let explain = session.handle("explain reach").text;
    assert!(
        explain.lines().any(|l| l == format!("decision {rendered}")),
        "{explain}"
    );
    assert!(
        explain
            .lines()
            .any(|l| l == format!("plan   rationale: {rendered}")),
        "{explain}"
    );
}

#[test]
fn forced_miscalibration_trips_the_sentinel_and_recalibrates_from_the_journal() {
    // Scale the fanout charge 500×: every maintenance estimate is now
    // wildly above the actual derivations, which is exactly the drift the
    // sentinel exists to catch.
    let service = ViewService::with_config(
        chain_db(50),
        ServiceConfig {
            cost_model: CostModel {
                fanout_scale: 500.0,
                ..CostModel::default()
            },
            sentinel: SentinelConfig {
                ratio_tolerance: 4.0,
                min_batches: 2,
                ..SentinelConfig::default()
            },
            ..ServiceConfig::default()
        },
    );
    service.register_view(tc_def()).unwrap();

    let drift_before = linrec::obs::metrics::registry()
        .counter("linrec_service_plan_drift_total")
        .get();

    // Chain-extending edges: each batch derives real tuples (every prefix
    // path reaches the new node), so the sentinel gets a genuine
    // (estimate, actual) pair — and the 500× overestimate dominates it.
    for i in 0..5i64 {
        let (a, b) = (50 + i, 51 + i);
        service
            .apply_batch([(Symbol::new("e"), vec![Value::Int(a), Value::Int(b)])])
            .unwrap();
    }

    let drift_after = linrec::obs::metrics::registry()
        .counter("linrec_service_plan_drift_total")
        .get();
    assert!(
        drift_after > drift_before,
        "sentinel never tripped within 5 batches ({drift_before} → {drift_after})"
    );

    // Auto-recalibration pulled the scale back toward reality from the
    // journal's (estimate, actual) pairs — at the very least out of the
    // tripping band.
    let scale = service.cost_model().unwrap().fanout_scale;
    assert!(
        scale < 500.0 / 4.0,
        "fanout_scale {scale} was not recalibrated down from 500"
    );

    // The journal recorded the whole story: maintenance samples, the
    // drift event, and the calibration.
    let journal = linrec::obs::journal::journal();
    let recent = journal.recent(256);
    for kind in ["maintain", "drift", "calibrate"] {
        assert!(
            recent.iter().any(|e| e.kind == kind && e.view == "tc"),
            "no {kind:?} entry for tc in the journal"
        );
    }
}

#[test]
fn durable_service_writes_decision_log_next_to_the_wal() {
    let dir = tmpdir("durable");
    let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
    let (service, _) = open_durable_with_vfs(
        &dir,
        vfs.clone(),
        chain_db(8),
        vec![tc_def()],
        linrec::engine::Parallelism::sequential(),
        CheckpointPolicy::default(),
    )
    .unwrap();
    service
        .apply_batch([(Symbol::new("e"), vec![Value::Int(8), Value::Int(9)])])
        .unwrap();
    drop(service);

    let records = read_decision_log(vfs.as_ref(), &dir).unwrap();
    assert!(!records.is_empty(), "decisions.log is empty");
    // Registration logged the plan decision for the view.
    assert!(
        records.iter().any(|r| r.contains("\"view\":\"tc\"")),
        "{records:?}"
    );
    // Every record is one line of JSON object.
    for r in &records {
        assert!(r.starts_with('{') && r.ends_with('}'), "{r}");
        assert!(!r.contains('\n'), "{r:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decision_log_chaos_never_loses_an_acked_batch() {
    // Seeded write/sync faults across the whole durable path: WAL,
    // checkpoints, AND the best-effort decisions.log. The decision log
    // failing must never fail (or lose) an acknowledged batch, and the
    // log itself must stay a readable prefix.
    for seed in 0..6u64 {
        let dir = tmpdir(&format!("chaos-{seed}"));
        let fault: Arc<dyn Vfs> = FaultVfs::new(FaultPlan::seeded_ops(
            seed,
            60,
            vec![FaultOp::Write, FaultOp::Sync],
        ));
        let opened = open_durable_with_vfs(
            &dir,
            fault,
            chain_db(4),
            vec![tc_def()],
            linrec::engine::Parallelism::sequential(),
            CheckpointPolicy::default(),
        );
        let Ok((service, _)) = opened else {
            // Recovery itself faulted — nothing was acked, nothing to lose.
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        };
        let mut acked: Vec<i64> = Vec::new();
        for i in 0..12i64 {
            let (a, b) = (100 + 2 * i, 101 + 2 * i);
            if service
                .apply_batch([(Symbol::new("e"), vec![Value::Int(a), Value::Int(b)])])
                .is_ok()
            {
                acked.push(a);
            }
        }
        drop(service);

        // Reopen fault-free: every acked batch must be in the recovered
        // view's EDB (ack ⇒ WAL-durable, decision-log faults or not).
        let clean: Arc<dyn Vfs> = Arc::new(StdVfs);
        let (service, _) = open_durable_with_vfs(
            &dir,
            clean.clone(),
            chain_db(4),
            vec![tc_def()],
            linrec::engine::Parallelism::sequential(),
            CheckpointPolicy::default(),
        )
        .unwrap();
        let snap = service.snapshot();
        for a in &acked {
            assert!(
                snap.contains("tc", &[Value::Int(*a), Value::Int(a + 1)])
                    .unwrap(),
                "seed {seed}: acked batch ({a}, {}) lost",
                a + 1
            );
        }
        // The decision log reads back as a valid prefix (possibly empty:
        // appends are best-effort under faults), never an error.
        let records = read_decision_log(clean.as_ref(), &dir).unwrap();
        for r in &records {
            assert!(r.starts_with('{'), "seed {seed}: torn record {r:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
