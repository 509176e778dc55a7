//! Std-only observability layer for the linrec workspace.
//!
//! Six modules, all dependency-free and cheap enough to leave on:
//!
//! * [`metrics`] — a process-wide lock-free registry of atomic
//!   [`Counter`]s, [`Gauge`]s, and log-bucketed [`Histogram`]s with
//!   p50/p95/p99 readouts. Registration takes a short write lock once per
//!   metric name; every update after that is a handful of relaxed atomic
//!   operations on shared `Arc`'d cells. The registry renders both a
//!   Prometheus-style text exposition ([`Registry::render_prometheus`])
//!   and flat `key=value` pairs ([`Registry::render_kv`]) for the line
//!   protocol's `metrics` command. A metric is declared at the line
//!   that updates it with [`counter!`], [`gauge!`] or [`histogram!`],
//!   which cache the handle per call site.
//! * [`trace`] — structured span tracing. A [`TraceId`] is minted per
//!   request/batch, carried in a thread-local, and explicitly handed
//!   across thread-pool boundaries with [`trace::context`]. RAII
//!   [`Span`]s record name, parent, duration, and string attributes into
//!   a fixed-size in-memory [`FlightRecorder`] ring buffer that can be
//!   dumped as JSON at any time (the `trace` protocol command,
//!   `linrec serve --trace-json FILE`). A span that times the same
//!   region as a latency histogram feeds it on drop
//!   ([`Span::observe_into`]): one clock for both.
//! * [`expose`] — a minimal HTTP/1.1 endpoint
//!   ([`expose::serve_metrics`]) that serves the Prometheus exposition,
//!   for `linrec serve --metrics ADDR`.
//! * [`journal`] — a bounded ring of structured plan-decision records
//!   fed by the engine's planner and the service's maintenance loop; the
//!   `decisions` protocol command and the drift sentinel read from it.
//!   It and the flight recorder share one private bounded ring.
//! * [`kv`] — the [`KvLine`] builder of `prefix key=value …` lines, the
//!   one grammar of the protocol's `health` and `metrics` replies.
//! * [`json`] — the one JSON writer (a streaming object/array builder;
//!   non-finite floats render as `null`) and the one validating reader
//!   (top-level members of an object, string unescaping). Every JSON
//!   record the workspace emits is written with it.
//!
//! The whole layer sits behind a process-wide switch: [`set_enabled`]
//! (default **on**). Instrumentation sites in the engine/storage/service
//! crates check [`enabled`] before taking clocks, and a span opened while
//! it is off is inert (no clock, no record, no histogram sample), so
//! turning it off reduces the residual cost to one relaxed atomic load
//! per site — this is how the benchmark estimates the instrumentation
//! overhead (`obs.overhead_pct` in `BENCHMARK.json`, target < 2%).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod expose;
pub mod journal;
pub mod json;
pub mod kv;
pub mod metrics;
mod ring;
pub mod trace;

pub use expose::serve_metrics;
pub use journal::{Journal, JournalEntry};
pub use kv::KvLine;
pub use metrics::{escape_label_value, Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use trace::{FlightRecorder, Span, SpanRecord, TraceId};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Is instrumentation globally enabled? Instrumentation sites consult
/// this before taking clocks or minting spans; a relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enable or disable instrumentation (default: enabled). Used
/// by the benchmark suite to measure the layer's own overhead A/B in one
/// binary.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The global-registry [`Counter`] named `$name`, declared at the line
/// that updates it: `linrec_obs::counter!("linrec_x_total").inc()`.
/// The handle is resolved once per call site and cached in a site-local
/// `static`; two sites naming one string share one series. An optional
/// second argument is the metric's HELP text, registered with it.
#[macro_export]
macro_rules! counter {
    ($name:literal $(, $help:literal)?) => {
        $crate::__site_metric!(counter, Counter, $name $(, $help)?)
    };
}

/// The global-registry [`Gauge`] named `$name`; see [`counter!`].
#[macro_export]
macro_rules! gauge {
    ($name:literal $(, $help:literal)?) => {
        $crate::__site_metric!(gauge, Gauge, $name $(, $help)?)
    };
}

/// The global-registry [`Histogram`] named `$name`; see [`counter!`].
#[macro_export]
macro_rules! histogram {
    ($name:literal $(, $help:literal)?) => {
        $crate::__site_metric!(histogram, Histogram, $name $(, $help)?)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __site_metric {
    ($kind:ident, $ty:ident, $name:literal $(, $help:literal)?) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::$ty> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| {
            $($crate::metrics::registry().describe($name, $help);)?
            $crate::metrics::registry().$kind($name)
        })
    }};
}

/// Open a span in the global flight recorder (no-op when disabled).
pub fn span(name: &'static str) -> Span {
    trace::span(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every JSON shape this crate emits is one valid object whose
    /// top-level members read back as written.
    #[test]
    fn every_json_shape_reads_back() {
        let span = SpanRecord {
            trace: 0x2a,
            span: 7,
            parent: 3,
            name: "wal.fsync",
            start_us: 5,
            dur_ns: 9,
            attrs: vec![
                ("msg", "a\"b\\c\nd\u{1}".to_string()),
                ("view", "ünï".to_string()),
            ],
        };
        let full = FlightRecorder::new(3);
        for i in 1..=5 {
            full.record(SpanRecord {
                span: i,
                attrs: vec![],
                ..span.clone()
            });
        }
        let bare = |i: u64| {
            format!(
                "{{\"trace\":\"t-0000002a\",\"span\":{i},\"parent\":3,\"name\":\"wal.fsync\",\
                 \"start_us\":5,\"dur_ns\":9}}"
            )
        };
        let spans = format!("[{},{},{}]", bare(3), bare(4), bare(5));
        let entry = JournalEntry {
            seq: 7,
            unix_ms: 1,
            kind: "plan",
            view: "v\"1".to_string(),
            shape: "Direct".to_string(),
            estimate: 2.5,
            actual: 3,
            nanos: 9,
            json: "{\"winner\":\"Direct\",\"actual\":{\"tuples\":1}}".to_string(),
        };
        let entry_members = |decision| {
            vec![
                ("seq", "7"),
                ("unix_ms", "1"),
                ("kind", "\"plan\""),
                ("view", "\"v\\\"1\""),
                ("shape", "\"Direct\""),
                ("estimate", "2.5"),
                ("actual", "3"),
                ("nanos", "9"),
                ("decision", decision),
            ]
        };
        let cases: Vec<(String, Vec<(&str, &str)>)> = vec![
            (
                span.to_json(),
                vec![
                    ("trace", "\"t-0000002a\""),
                    ("span", "7"),
                    ("parent", "3"),
                    ("name", "\"wal.fsync\""),
                    ("start_us", "5"),
                    ("dur_ns", "9"),
                    (
                        "attrs",
                        "{\"msg\":\"a\\\"b\\\\c\\nd\\u0001\",\"view\":\"ünï\"}",
                    ),
                ],
            ),
            (
                FlightRecorder::new(3).dump_json(),
                vec![("dropped", "0"), ("spans", "[]")],
            ),
            (full.dump_json(), vec![("dropped", "2"), ("spans", &spans)]),
            (
                entry.to_json(),
                entry_members("{\"winner\":\"Direct\",\"actual\":{\"tuples\":1}}"),
            ),
            (
                JournalEntry {
                    json: String::new(),
                    ..entry.clone()
                }
                .to_json(),
                entry_members("null"),
            ),
        ];
        for (text, expected) in cases {
            let members = json::members(&text).unwrap_or_else(|| panic!("invalid: {text}"));
            let got: Vec<(&str, &str)> = members.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            assert_eq!(got, expected, "{text}");
        }
        let span_json = span.to_json();
        let attrs = json::members(&span_json).unwrap()[6].1;
        let msg = json::members(attrs).unwrap()[0].1;
        assert_eq!(json::unescape(msg).as_deref(), Some("a\"b\\c\nd\u{1}"));
    }
}
