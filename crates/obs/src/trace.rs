//! Structured span tracing with per-request trace IDs and an in-memory
//! flight recorder.
//!
//! A [`TraceId`] is minted at the edge (one per protocol request or
//! batch), installed in a thread-local with [`enter_trace`], and carried
//! across thread-pool boundaries by capturing [`context`] into the
//! closure and calling [`TraceContext::enter`] inside it. Every
//! [`Span`] opened while a trace is current records that trace ID plus
//! its parent span, so one batch correlates across
//! protocol → fixpoint → WAL fsync → checkpoint → epoch publish.
//!
//! Completed spans land in the [`FlightRecorder`] — a fixed-size ring
//! buffer guarded by one mutex taken once per span *completion* (never
//! on the hot per-tuple paths). When full it overwrites the oldest
//! entries and counts them as dropped. [`FlightRecorder::dump_json`]
//! renders the ring oldest-first for the `trace` protocol command and
//! `linrec serve --trace-json FILE`.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json;
use crate::ring::Ring;
use crate::Histogram;

/// Identifier correlating all spans of one request/batch. Nonzero;
/// renders as `t-<hex>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

impl TraceId {
    /// Mint a fresh process-unique trace ID.
    pub fn next() -> TraceId {
        TraceId(NEXT_TRACE.fetch_add(1, Ordering::Relaxed))
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t-{:08x}", self.0)
    }
}

thread_local! {
    // (current trace, current span); 0 = none.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The calling thread's current trace ID, if any.
pub fn current_trace() -> Option<TraceId> {
    let (t, _) = CURRENT.with(|c| c.get());
    if t == 0 {
        None
    } else {
        Some(TraceId(t))
    }
}

/// Restores the previous thread-local trace context on drop.
pub struct TraceScope {
    prev: (u64, u64),
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Install `id` as the calling thread's current trace (no current span)
/// until the returned guard drops.
pub fn enter_trace(id: TraceId) -> TraceScope {
    let prev = CURRENT.with(|c| c.replace((id.0, 0)));
    TraceScope { prev }
}

/// A capture of the calling thread's trace context, for handing to
/// worker threads: `let ctx = trace::context();` outside the closure,
/// `let _g = ctx.enter();` inside it.
#[derive(Debug, Clone, Copy)]
pub struct TraceContext {
    trace: u64,
    span: u64,
}

/// Capture the calling thread's current trace context.
pub fn context() -> TraceContext {
    let (trace, span) = CURRENT.with(|c| c.get());
    TraceContext { trace, span }
}

impl TraceContext {
    /// Install this context on the calling thread until the guard drops.
    pub fn enter(&self) -> TraceScope {
        let prev = CURRENT.with(|c| c.replace((self.trace, self.span)));
        TraceScope { prev }
    }
}

/// One completed span in the flight recorder.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Owning trace (0 when the span ran outside any trace).
    pub trace: u64,
    /// Process-unique span ID.
    pub span: u64,
    /// Enclosing span ID (0 = root of its trace).
    pub parent: u64,
    /// Span name (static site label, e.g. `wal.fsync`).
    pub name: &'static str,
    /// Start time, µs since the first span of the process.
    pub start_us: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Site-specific attributes.
    pub attrs: Vec<(&'static str, String)>,
}

impl SpanRecord {
    /// Render as one JSON object.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("trace", &TraceId(self.trace).to_string());
            o.u64("span", self.span);
            o.u64("parent", self.parent);
            o.str("name", self.name);
            o.u64("start_us", self.start_us);
            o.u64("dur_ns", self.dur_ns);
            if !self.attrs.is_empty() {
                o.object("attrs", |o| {
                    for (k, v) in &self.attrs {
                        o.str(k, v);
                    }
                });
            }
        })
    }
}

/// Fixed-size ring buffer of completed spans. One mutex lock per span
/// completion; overwrites oldest entries when full and counts drops.
pub struct FlightRecorder {
    ring: Ring<SpanRecord>,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Ring::new(capacity),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Append a completed span, overwriting the oldest if full.
    pub fn record(&self, rec: SpanRecord) {
        self.ring.push(|_| rec);
    }

    /// `(spans oldest-first, dropped-count)` at this instant.
    pub fn snapshot(&self) -> (Vec<SpanRecord>, u64) {
        self.ring
            .read(|spans, dropped| (spans.iter().cloned().collect(), dropped))
    }

    /// Dump the ring as `{"dropped":N,"spans":[...]}`, oldest-first.
    pub fn dump_json(&self) -> String {
        let (spans, dropped) = self.snapshot();
        json::object(|o| {
            o.u64("dropped", dropped);
            o.array("spans", |a| {
                spans.iter().for_each(|rec| a.raw(&rec.to_json()))
            });
        })
    }
}

static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();

/// Default ring capacity of the global recorder.
pub const DEFAULT_RECORDER_CAPACITY: usize = 4096;

/// The process-wide flight recorder.
pub fn recorder() -> &'static FlightRecorder {
    RECORDER.get_or_init(|| FlightRecorder::new(DEFAULT_RECORDER_CAPACITY))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct SpanActive {
    trace: u64,
    span: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    attrs: Vec<(&'static str, String)>,
    prev: (u64, u64),
    histogram: Option<&'static Histogram>,
}

/// RAII span: opened by [`span`], records itself into the global
/// recorder on drop (or at [`Span::end`]). A no-op shell when
/// instrumentation is disabled.
pub struct Span {
    active: Option<SpanActive>,
}

/// Open a span named `name` under the calling thread's current trace and
/// span. Returns an inert span when instrumentation is disabled.
pub fn span(name: &'static str) -> Span {
    if !crate::enabled() {
        return Span { active: None };
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT.with(|c| c.get());
    let (trace, parent) = prev;
    CURRENT.with(|c| c.set((trace, id)));
    Span {
        active: Some(SpanActive {
            trace,
            span: id,
            parent,
            name,
            start: Instant::now(),
            attrs: Vec::new(),
            prev,
            histogram: None,
        }),
    }
}

impl Span {
    /// Attach a `key=value` attribute (no-op when inert).
    pub fn attr(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(a) = &mut self.active {
            a.attrs.push((key, value.to_string()));
        }
    }

    /// This span's ID, if active.
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.span)
    }

    /// Also record this span's duration into `h` when it ends, so a
    /// region's latency histogram and its span read one clock (no-op when
    /// inert). Arm it where the region succeeds to sample successes only.
    pub fn observe_into(&mut self, h: &'static Histogram) {
        if let Some(a) = &mut self.active {
            a.histogram = Some(h);
        }
    }

    /// End the span now and return its duration in ns (`None` when inert).
    pub fn end(mut self) -> Option<u64> {
        self.close()
    }

    fn close(&mut self) -> Option<u64> {
        let a = self.active.take()?;
        let dur_ns = a.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let start_us = a
            .start
            .saturating_duration_since(epoch())
            .as_micros()
            .min(u64::MAX as u128) as u64;
        CURRENT.with(|c| c.set(a.prev));
        if let Some(h) = a.histogram {
            h.observe(dur_ns);
        }
        recorder().record(SpanRecord {
            trace: a.trace,
            span: a.span,
            parent: a.parent,
            name: a.name,
            start_us,
            dur_ns,
            attrs: a.attrs,
        });
        Some(dur_ns)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraparound_keeps_newest_and_counts_drops() {
        let rec = FlightRecorder::new(8);
        for i in 0..20u64 {
            rec.record(SpanRecord {
                trace: 1,
                span: i + 1,
                parent: 0,
                name: "s",
                start_us: i,
                dur_ns: 10,
                attrs: vec![],
            });
        }
        let (spans, dropped) = rec.snapshot();
        assert_eq!(spans.len(), 8);
        assert_eq!(dropped, 12);
        // Oldest-first: spans 13..=20 survive.
        let ids: Vec<u64> = spans.iter().map(|s| s.span).collect();
        assert_eq!(ids, (13..=20).collect::<Vec<_>>());
    }

    #[test]
    fn spans_nest_and_cross_threads() {
        let id = TraceId::next();
        let _g = enter_trace(id);
        let outer = span("outer");
        let outer_id = outer.id().unwrap();
        {
            let inner = span("inner");
            assert_eq!(
                inner.active.as_ref().map(|a| (a.trace, a.parent)),
                Some((id.0, outer_id))
            );
        }
        let ctx = context();
        let handle = std::thread::spawn(move || {
            let _g = ctx.enter();
            let child = span("worker");
            child.active.as_ref().map(|a| (a.trace, a.parent)).unwrap()
        });
        assert_eq!(handle.join().unwrap(), (id.0, outer_id));
        drop(outer);
        drop(_g);
        assert!(current_trace().is_none());
    }

    fn rec_span(span: u64) -> SpanRecord {
        SpanRecord {
            trace: 1,
            span,
            parent: 0,
            name: "s",
            start_us: span,
            dur_ns: 10,
            attrs: vec![],
        }
    }

    #[test]
    fn snapshot_of_an_empty_ring_is_empty_not_padded() {
        let rec = FlightRecorder::new(8);
        let (spans, dropped) = rec.snapshot();
        assert!(spans.is_empty());
        assert_eq!(dropped, 0);
        assert_eq!(rec.dump_json(), "{\"dropped\":0,\"spans\":[]}");
        // Partially filled: only the recorded spans come back, no `None`
        // slots leak through as phantom records.
        rec.record(rec_span(1));
        rec.record(rec_span(2));
        let (spans, dropped) = rec.snapshot();
        assert_eq!(spans.iter().map(|s| s.span).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn capacity_one_ring_keeps_exactly_the_newest() {
        let rec = FlightRecorder::new(0); // clamps to 1
        assert_eq!(rec.capacity(), 1);
        for i in 1..=5 {
            rec.record(rec_span(i));
        }
        let (spans, dropped) = rec.snapshot();
        assert_eq!(spans.iter().map(|s| s.span).collect::<Vec<_>>(), [5]);
        assert_eq!(dropped, 4);
    }

    #[test]
    fn concurrent_writers_racing_dumps_never_tear_the_ring() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let rec = Arc::new(FlightRecorder::new(16));
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..3)
            .map(|w| {
                let rec = Arc::clone(&rec);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        rec.record(rec_span(w * 1_000_000 + i));
                        i += 1;
                    }
                    i
                })
            })
            .collect();
        // Race dumps against the writers: every snapshot must be
        // internally consistent — at most `capacity` spans, and
        // dropped + len == total recorded so far (monotone).
        let mut last_total = 0u64;
        for _ in 0..200 {
            let (spans, dropped) = rec.snapshot();
            assert!(spans.len() <= rec.capacity());
            let total = dropped + spans.len() as u64;
            assert!(total >= last_total, "total went backwards");
            last_total = total;
            let json = rec.dump_json();
            assert!(json.starts_with("{\"dropped\":"), "{json}");
            assert!(json.ends_with("]}"), "{json}");
        }
        stop.store(true, Ordering::Relaxed);
        let written: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        let (spans, dropped) = rec.snapshot();
        assert_eq!(dropped + spans.len() as u64, written);
    }

    #[test]
    fn json_dump_escapes_and_structures() {
        let rec = FlightRecorder::new(4);
        rec.record(SpanRecord {
            trace: 0x2a,
            span: 7,
            parent: 0,
            name: "q",
            start_us: 5,
            dur_ns: 9,
            attrs: vec![("msg", "a\"b\\c\nd".to_string())],
        });
        let json = rec.dump_json();
        assert!(json.starts_with("{\"dropped\":0,\"spans\":["));
        assert!(json.contains("\"trace\":\"t-0000002a\""));
        assert!(json.contains("\"msg\":\"a\\\"b\\\\c\\nd\""));
    }
}
