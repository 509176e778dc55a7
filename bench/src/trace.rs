//! The harness-side span recorder of a traced run: spans are taken in the
//! benchmark's own code, around the calls into each layer's public
//! functions; nothing inside the program is instrumented. Spans stay in
//! memory and are written out when the run ends.

use crate::json::Json;
use std::time::{Duration, Instant};

/// One recorded span. A span with no parent is an op root; the spans of
/// one op share its id.
pub struct SpanRecord {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

pub struct Recorder {
    epoch: Instant,
    /// When off, calls are still timed (the metrics never depend on the
    /// recorder) but no span is kept: the difference is its overhead.
    pub enabled: bool,
    spans: Vec<SpanRecord>,
    /// Index of the open op root, when it was recorded.
    root: Option<usize>,
    op: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            root: None,
            op: 0,
        }
    }

    fn push(&mut self, name: &'static str, start: Instant, end: Instant, parent: Option<usize>) {
        self.spans.push(SpanRecord {
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
            parent,
            op: self.op,
        });
    }

    /// Run one op (one request of the script, with everything measured on
    /// its behalf) as a root span; layer spans inside become its children.
    pub fn op<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, Duration) {
        self.op += 1;
        let slot = self.enabled.then(|| {
            let now = Instant::now();
            self.push(name, now, now, None);
            self.spans.len() - 1
        });
        self.root = slot;
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let Some(slot) = slot {
            self.spans[slot].start_ns = (start - self.epoch).as_nanos() as u64;
            self.spans[slot].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        self.root = None;
        (out, end - start)
    }

    /// Time one call into a layer as a child of the open op.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.enabled {
            if let Some(root) = self.root {
                self.push(name, start, end, Some(root));
            }
        }
        (out, end - start)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Every span is an op root or names a recorded parent of the same op
    /// that encloses it.
    pub fn well_formed(&self) -> bool {
        self.spans.iter().all(|s| match s.parent {
            None => true,
            Some(p) => self.spans.get(p).is_some_and(|parent| {
                parent.parent.is_none()
                    && parent.op == s.op
                    && parent.start_ns <= s.start_ns
                    && s.end_ns <= parent.end_ns
            }),
        })
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("op", Json::Num(s.op as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_op_and_switch_off() {
        let mut rec = Recorder::new();
        let (sum, _) = rec.op("op.commit", |rec| {
            let (a, _) = rec.span("layer.a", || 1);
            let (b, _) = rec.span("layer.b", || 2);
            a + b
        });
        assert_eq!(sum, 3);
        assert_eq!(rec.len(), 3);
        rec.enabled = false;
        let (_, took) = rec.op("op.read", |rec| rec.span("layer.a", || ()).1);
        assert_eq!(rec.len(), 3, "nothing is kept while off");
        assert!(took <= std::time::Duration::from_secs(1));
        rec.enabled = true;
        rec.op("op.read", |rec| rec.span("layer.a", || ()));
        assert_eq!(rec.len(), 5);
        assert!(rec.well_formed());
        let json = rec.to_json();
        let spans = json.as_array().unwrap();
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(spans[4].get("op"), Some(&Json::Num(3.0)));
    }
}
