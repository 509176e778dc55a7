//! Integration tests for the plan-decision journal, `explain analyze`,
//! and the plan-drift sentinel:
//!
//! * a dense-planned transitive-closure query explained with `analyze`
//!   carries the dense-vs-sparse decision record (candidates, estimates,
//!   certificates) and per-node wall time;
//! * a view whose estimates sit far above its derivations batch after
//!   batch is reported once, in the journal and in `decisions.log`, and
//!   keeps its plan;
//! * the on-disk `decisions.log` rides the service's `Vfs` and survives
//!   fault-injection chaos without ever losing an acknowledged batch.

use linrec::engine::{CertKind, DenseVerdict, MaintenanceMode, PickedBy};
use linrec::prelude::*;
use linrec::service::{
    explain_json, open_durable, open_durable_with_vfs, MaintainedView, Session, ViewDef,
    ViewService,
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

/// The wide up/down program: 800 `up` chains of 8 nodes, a 60-node
/// `down` graph with edges i → i+1..=16 (mod 60), and one seed. Its
/// maintenance estimates sit about 700× above the derivations performed.
fn wide_updown_db() -> Database {
    let mut db = Database::new();
    let up =
        (0..800i64).flat_map(|c| (1..8).map(move |l| (1000 + c * 8 + l, 1000 + c * 8 + l - 1)));
    db.set_relation("up", Relation::from_pairs(up));
    let down = (0..60i64).flat_map(|i| (1..=16).map(move |k| (i, (i + k) % 60)));
    db.set_relation("down", Relation::from_pairs(down));
    db.set_relation("p", Relation::from_pairs([(1000, 0)]));
    db
}

#[test]
fn persistent_drift_is_reported_once_and_never_replans() {
    let name = "updown_drift_once";
    let def = ViewDef {
        name: name.into(),
        rules: vec![
            parse_linear_rule("p(x,y) :- p(x,z), down(z,y).").unwrap(),
            parse_linear_rule("p(x,y) :- p(w,y), up(x,w).").unwrap(),
        ],
        seed: Symbol::new("p"),
    };
    let dir = tmpdir("drift-once");
    let (service, _) = open_durable(
        &dir,
        wide_updown_db(),
        vec![def],
        linrec::engine::Parallelism::sequential(),
        CheckpointPolicy::default(),
    )
    .unwrap();
    let decision = service.explain(name, false).unwrap().decision;
    assert!(
        matches!(decision.winner, PlanShape::Decomposed { .. }),
        "{decision}"
    );
    let rendered = decision.to_string();

    // Twelve commits of two root seeds each: every batch derives real
    // tuples, and every estimate is far outside the sentinel's band.
    let p = Symbol::new("p");
    for j in 1..=12i64 {
        let seeds = [(1000 + 8 * j, j % 60), (5000 + 8 * j, (j + 7) % 60)];
        service
            .apply_batch(seeds.map(|(a, b)| (p, vec![Value::Int(a), Value::Int(b)])))
            .unwrap();
    }

    // One drift, reported once; nothing recalibrated or re-planned.
    let recent = linrec::obs::journal::journal().recent(256);
    let count = |kind: &str| {
        recent
            .iter()
            .filter(|e| e.view == name && e.kind == kind)
            .count()
    };
    assert_eq!(count("drift"), 1);
    assert_eq!(count("calibrate"), 0);
    assert_eq!(
        service.explain(name, false).unwrap().decision.to_string(),
        rendered
    );
    drop(service);

    let records = read_decision_log(&StdVfs, &dir).unwrap();
    let drifts = records
        .iter()
        .filter(|r| r.contains("\"event\":\"plan-drift\""))
        .count();
    assert_eq!(drifts, 1, "{records:?}");
    let _ = std::fs::remove_dir_all(&dir);
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
