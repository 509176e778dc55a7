//! Std-only observability layer for the linrec workspace.
//!
//! Three pillars, all dependency-free and cheap enough to leave on:
//!
//! * [`metrics`] — a process-wide lock-free registry of atomic
//!   [`Counter`]s, [`Gauge`]s, and log-bucketed [`Histogram`]s with
//!   p50/p95/p99 readouts. Registration takes a short write lock once per
//!   metric name; every update after that is a handful of relaxed atomic
//!   operations on shared `Arc`'d cells. The registry renders both a
//!   Prometheus-style text exposition ([`Registry::render_prometheus`])
//!   and flat `key=value` pairs ([`Registry::render_kv`]) for the line
//!   protocol's `metrics` command.
//! * [`trace`] — structured span tracing. A [`TraceId`] is minted per
//!   request/batch, carried in a thread-local, and explicitly handed
//!   across thread-pool boundaries with [`trace::context`]. RAII
//!   [`Span`]s record name, parent, duration, and string attributes into
//!   a fixed-size in-memory [`FlightRecorder`] ring buffer that can be
//!   dumped as JSON at any time (the `trace` protocol command,
//!   `linrec serve --trace-json FILE`).
//! * [`expose`] — a minimal HTTP/1.1 endpoint
//!   ([`expose::serve_metrics`]) that serves the Prometheus exposition,
//!   for `linrec serve --metrics ADDR`.
//! * [`journal`] — a bounded ring of structured plan-decision records
//!   fed by the engine's planner and the service's maintenance loop; the
//!   `decisions` protocol command and the drift sentinel read from it.
//!
//! The whole layer sits behind a process-wide switch: [`set_enabled`]
//! (default **on**). Instrumentation sites in the engine/storage/service
//! crates check [`enabled`] before taking clocks or minting spans, so
//! turning it off reduces the residual cost to one relaxed atomic load
//! per site — this is how the benchmark estimates the instrumentation
//! overhead (`obs.overhead_pct` in `BENCHMARK.json`, target < 2%).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod expose;
pub mod journal;
pub mod kv;
pub mod metrics;
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

/// Get-or-register a counter in the global registry.
pub fn counter(name: &'static str) -> Counter {
    metrics::registry().counter(name)
}

/// Get-or-register a gauge in the global registry.
pub fn gauge(name: &'static str) -> Gauge {
    metrics::registry().gauge(name)
}

/// Get-or-register a histogram in the global registry.
pub fn histogram(name: &'static str) -> Histogram {
    metrics::registry().histogram(name)
}

/// Open a span in the global flight recorder (no-op when disabled).
pub fn span(name: &'static str) -> Span {
    trace::span(name)
}
