//! End-to-end observability: a durable service driven through the line
//! protocol, with the metrics registry, span flight recorder, slow-request
//! accounting, and the Prometheus exposition endpoint all observed from
//! the outside.
//!
//! The core acceptance check lives in `trace_correlates_a_batch_end_to_end`:
//! one committed batch must appear in the flight recorder as a single
//! trace ID tying together protocol dispatch (`request`), the write path
//! (`service.batch`), maintenance (`view.maintain` → `engine.fixpoint`),
//! durability (`wal.append` → `wal.fsync`), and the epoch publish
//! (`service.publish`). `decomposed_maintenance_reports_every_fixpoint`
//! holds the same promise for the per-cluster resume: every sparse
//! fixpoint is one `engine.fixpoint` span and one observation of the
//! engine counters, whatever plan shape resumed.

use linrec::engine::Parallelism;
use linrec::prelude::*;
use linrec::service::{
    open_durable, CheckpointPolicy, ServiceConfig, ServiceLimits, Session, ViewDef, ViewService,
};
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("linrec-obs-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable transitive-closure service in a fresh store directory.
fn durable_service(tag: &str) -> Arc<ViewService> {
    durable_service_with(tag, ServiceLimits::default())
}

fn durable_service_with(tag: &str, limits: ServiceLimits) -> Arc<ViewService> {
    let mut db = Database::new();
    db.set_relation("e", Relation::from_pairs((0..8).map(|i| (i, i + 1))));
    let def = ViewDef {
        name: "tc".into(),
        rules: vec![parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()],
        seed: Symbol::new("e"),
    };
    let (service, _report) = open_durable(
        tmpdir(tag),
        db,
        vec![def],
        ServiceConfig {
            par: Parallelism::new(1),
            limits,
            ..ServiceConfig::default()
        },
        CheckpointPolicy::default(),
    )
    .unwrap();
    Arc::new(service)
}

fn durable_session(tag: &str) -> Session {
    Session::new(durable_service(tag))
}

/// Extract `"trace":"t-…"` from a `span {json}` protocol line.
fn trace_of(line: &str) -> &str {
    line.split_once("\"trace\":\"")
        .expect("span line carries a trace")
        .1
        .split('"')
        .next()
        .unwrap()
}

#[test]
fn trace_correlates_a_batch_end_to_end() {
    let mut s = durable_session("trace");
    assert!(s.handle("insert e 8 9").text.starts_with("ok staged"));
    assert!(s.handle("commit").text.starts_with("ok epoch 2"));

    let text = s.handle("trace 4096").text;
    let spans: Vec<&str> = text.lines().filter(|l| l.starts_with("span ")).collect();
    assert!(
        text.lines().last().unwrap().starts_with("ok trace "),
        "{text}"
    );

    // Find a commit request span whose trace threads through the whole
    // write path, durability included. (The recorder is process-global,
    // so scan all commit traces rather than assuming the newest is ours.)
    let stages = [
        "service.batch",
        "view.maintain",
        "engine.fixpoint",
        "wal.append",
        "wal.fsync",
        "service.publish",
    ];
    let correlated = spans
        .iter()
        .filter(|l| l.contains("\"name\":\"request\"") && l.contains("\"cmd\":\"commit\""))
        .map(|l| trace_of(l))
        .any(|trace| {
            stages.iter().all(|name| {
                spans
                    .iter()
                    .any(|l| l.contains(&format!("\"name\":\"{name}\"")) && trace_of(l) == trace)
            })
        });
    assert!(correlated, "no commit trace covers {stages:?}:\n{text}");
}

#[test]
fn metrics_command_reflects_durable_work() {
    let mut s = durable_session("metrics");
    s.handle("insert e 8 9");
    assert!(s.handle("commit").text.starts_with("ok epoch 2"));

    let text = s.handle("metrics").text;
    let value = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("metric {name}=")))
            .unwrap_or_else(|| panic!("{name} missing:\n{text}"))
            .parse()
            .unwrap()
    };
    // Global registry: other tests in this binary contribute too, so ≥.
    assert!(value("linrec_service_batches_total") >= 1);
    assert!(value("linrec_storage_wal_appends_total") >= 1);
    assert!(value("linrec_storage_wal_fsync_ns_count") >= 1);
    assert!(value("linrec_engine_fixpoints_total") >= 1);
    assert!(value("linrec_service_request_ns_count") >= 1);
    // And `health` surfaces the registry-backed counters.
    let health = s.handle("health").text;
    assert!(health.contains("retries="), "{health}");
    assert!(health.contains("slow-requests="), "{health}");
    assert!(health.contains("durable=true"), "{health}");
}

#[test]
fn slow_request_threshold_counts_every_request() {
    // Threshold zero: every request is slow by definition.
    let service = durable_service_with(
        "slow",
        ServiceLimits {
            slow_request: Some(std::time::Duration::ZERO),
            ..Default::default()
        },
    );
    let mut s = Session::new(service);
    let before = s_metrics_value("linrec_service_slow_requests_total");
    s.handle("epoch");
    s.handle("epoch");
    let after = s_metrics_value("linrec_service_slow_requests_total");
    assert!(after >= before + 2, "slow-request counter stuck at {after}");
}

#[test]
fn decomposed_maintenance_reports_every_fixpoint() {
    // The commuting up/down pair: maintenance resumes cluster by cluster.
    // `down` has a diamond below 20, so the batch re-derives a tuple.
    let mut db = Database::new();
    db.set_relation("up", Relation::from_pairs([(1, 2), (2, 3)]));
    db.set_relation(
        "down",
        Relation::from_pairs([(10, 11), (20, 21), (20, 22), (21, 23), (22, 23)]),
    );
    db.set_relation("p0", Relation::from_pairs([(3, 10)]));
    let service = Arc::new(ViewService::new(db));
    service
        .register_view(ViewDef {
            name: "updown-obs".into(),
            rules: vec![
                parse_linear_rule("p(x,y) :- p(x,z), down(z,y).").unwrap(),
                parse_linear_rule("p(x,y) :- p(w,y), up(x,w).").unwrap(),
            ],
            seed: Symbol::new("p0"),
        })
        .unwrap();
    let counters = [
        "linrec_engine_fixpoints_total",
        "linrec_engine_rounds_total",
        "linrec_engine_derivations_total",
        "linrec_engine_duplicates_total",
    ];
    let before = counters.map(s_metrics_value);

    let mut s = Session::new(Arc::clone(&service));
    assert!(s.handle("insert p0 3 20").text.starts_with("ok staged"));
    assert!(s.handle("commit").text.starts_with("ok epoch"));
    let snapshot = service.snapshot();
    let view = snapshot.view("updown-obs").unwrap();
    assert_eq!(view.mode, "incremental-decomposed");
    // {1,2,3} × {10,11} before the batch, {1,2,3} × {20..23} from it.
    assert_eq!(view.relation.len(), 3 * 2 + 3 * 4);

    // The batch's trace: `view.maintain` for this view, and directly under
    // it one `engine.fixpoint` per cluster. (The view name is this test's
    // own, so the process-global recorder cannot confuse it.)
    let (spans, _) = linrec::obs::trace::recorder().snapshot();
    let maintain = spans
        .iter()
        .find(|sp| {
            sp.name == "view.maintain" && sp.attrs.contains(&("view", "updown-obs".to_owned()))
        })
        .expect("the batch's view.maintain span");
    assert_ne!(maintain.trace, 0, "the commit runs inside a request trace");
    let fixpoints: Vec<_> = spans
        .iter()
        .filter(|sp| sp.name == "engine.fixpoint" && sp.parent == maintain.span)
        .collect();
    let sum = |key: &str| -> u64 {
        fixpoints
            .iter()
            .map(|sp| {
                let (_, v) = sp.attrs.iter().find(|(k, _)| *k == key).expect(key);
                v.parse::<u64>().unwrap()
            })
            .sum()
    };
    assert_eq!(fixpoints.len(), 2, "one fixpoint per commuting cluster");
    assert!(fixpoints.iter().all(|sp| sp.trace == maintain.trace));
    assert!(sum("derivations") > 0 && sum("duplicates") > 0);
    // Δ₀ seeding is in the view's statistics but is not a fixpoint.
    assert_eq!(sum("rounds"), view.stats.iterations as u64);
    assert!(sum("derivations") <= view.stats.derivations);

    // The registry is process-global: at least this batch's work arrived.
    let after = counters.map(s_metrics_value);
    let grew = [
        fixpoints.len() as u64,
        sum("rounds"),
        sum("derivations"),
        sum("duplicates"),
    ];
    for i in 0..counters.len() {
        assert!(
            after[i] >= before[i] + grew[i],
            "{} went {} → {}, the batch alone adds {}",
            counters[i],
            before[i],
            after[i],
            grew[i]
        );
    }
}

/// Read one metric out of the global registry directly.
fn s_metrics_value(name: &str) -> u64 {
    linrec::obs::metrics::registry()
        .render_kv()
        .into_iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.parse().unwrap())
        .unwrap_or(0)
}

#[test]
fn prometheus_endpoint_serves_the_exposition_format() {
    let mut s = durable_session("prom");
    s.handle("insert e 8 9");
    assert!(s.handle("commit").text.starts_with("ok epoch 2"));

    let addr = linrec::obs::serve_metrics("127.0.0.1:0").unwrap();
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n")
        .unwrap();
    let mut body = String::new();
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("HTTP/1.1 200 OK"), "{line}");
    // Headers, then body until the server closes the connection.
    let mut in_body = false;
    loop {
        let mut l = String::new();
        if reader.read_line(&mut l).unwrap() == 0 {
            break;
        }
        if in_body {
            body.push_str(&l);
        } else if l == "\r\n" {
            in_body = true;
        } else if l.to_ascii_lowercase().starts_with("content-type:") {
            assert!(l.contains("text/plain; version=0.0.4"), "{l}");
        }
    }
    // Exposition format: every non-comment line is `name value`, every
    // metric is preceded by # HELP/# TYPE, and the durable batch shows.
    assert!(
        body.contains("# TYPE linrec_service_batches_total counter"),
        "{body}"
    );
    assert!(
        body.contains("# TYPE linrec_service_request_ns summary"),
        "{body}"
    );
    assert!(
        body.contains("linrec_service_request_ns{quantile=\"0.99\"}"),
        "{body}"
    );
    for l in body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (name, value) = l
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad line {l:?}"));
        assert!(!name.is_empty(), "{l}");
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample value in {l:?}"
        );
    }
}
