//! A span that feeds a histogram reads one clock for both, and a metric
//! named at several call sites is one registry series. The first test
//! toggles the process-wide switch, so this binary holds no test that
//! opens spans while it runs.

use linrec_obs::trace::recorder;
use linrec_obs::{histogram, span, Histogram};

fn spans_named(name: &str) -> Vec<u64> {
    let (spans, _) = recorder().snapshot();
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns)
        .collect()
}

#[test]
fn a_fused_span_records_one_duration_into_both_and_an_inert_one_neither() {
    let h = histogram!("span_metrics_fused_ns");
    let mut sp = span("span_metrics.fused");
    sp.observe_into(h);
    std::thread::sleep(std::time::Duration::from_millis(1));
    drop(sp);
    let durs = spans_named("span_metrics.fused");
    assert_eq!(durs.len(), 1);
    assert_eq!(h.count(), 1);
    assert_eq!(h.sum(), durs[0], "histogram sample is the span's dur_ns");
    assert!(durs[0] >= 1_000_000, "{durs:?}");

    // `end` reports the same duration it records.
    let mut sp = span("span_metrics.ended");
    sp.observe_into(h);
    let ended = sp.end().expect("an enabled span is active");
    assert_eq!(spans_named("span_metrics.ended"), [ended]);
    assert_eq!((h.count(), h.sum()), (2, durs[0] + ended));

    // An unarmed span leaves the histogram alone.
    drop(span("span_metrics.unarmed"));
    assert_eq!(spans_named("span_metrics.unarmed").len(), 1);
    assert_eq!(h.count(), 2);

    linrec_obs::set_enabled(false);
    let mut sp = span("span_metrics.inert");
    sp.observe_into(h);
    assert_eq!(sp.end(), None);
    let mut sp = span("span_metrics.inert");
    sp.observe_into(h);
    drop(sp);
    linrec_obs::set_enabled(true);
    assert!(spans_named("span_metrics.inert").is_empty());
    assert_eq!(h.count(), 2, "an inert span observes nothing");
}

#[test]
fn a_metric_named_at_two_sites_is_one_series() {
    fn site_a() -> &'static Histogram {
        histogram!("span_metrics_shared_ns", "Shared by two call sites")
    }
    fn site_b() -> &'static Histogram {
        histogram!("span_metrics_shared_ns")
    }
    site_a().observe(3);
    site_b().observe(5);
    assert!(!std::ptr::eq(site_a(), site_b()), "two sites, two handles");
    let registry = linrec_obs::metrics::registry();
    assert_eq!(registry.histogram("span_metrics_shared_ns").count(), 2);
    let kv = registry.render_kv();
    let count = kv.iter().find(|(k, _)| k == "span_metrics_shared_ns_count");
    assert_eq!(count.map(|(_, v)| v.as_str()), Some("2"));
    let prom = registry.render_prometheus();
    assert_eq!(
        prom.matches("# TYPE span_metrics_shared_ns summary")
            .count(),
        1
    );
    assert!(
        prom.contains("# HELP span_metrics_shared_ns Shared by two call sites"),
        "{prom}"
    );

    let counter_a = linrec_obs::counter!("span_metrics_shared_total");
    let counter_b = linrec_obs::counter!("span_metrics_shared_total");
    counter_a.inc();
    counter_b.inc_by(2);
    assert_eq!(counter_a.get(), 3);
    assert_eq!(registry.counter("span_metrics_shared_total").get(), 3);
}
