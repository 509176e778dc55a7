//! Bounded in-memory journal of plan and maintenance decisions.
//!
//! The engine's planner and the service's maintenance loop produce
//! structured decision records — which plan candidates were considered,
//! what each was estimated to cost, which won, and (after execution) what
//! it actually cost. This module keeps the last few hundred of those
//! records in a ring so operators can ask "what did the planner just
//! decide, and was it right?" without trawling logs. The journal is a
//! record, not an input: nothing reads it back into the cost model.
//!
//! The journal is deliberately tiny and std-only: the crate's bounded
//! ring, with a monotonically increasing sequence number. Entries
//! carry the full decision JSON (opaque to this crate) plus a few typed
//! fields that the `decisions` protocol command needs without re-parsing
//! JSON.

use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json;
use crate::ring::Ring;

/// One recorded decision or decision-feedback event.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Monotonic sequence number, unique within the process.
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch when recorded.
    pub unix_ms: u64,
    /// Event class: `"plan"` (a plan was chosen and executed),
    /// `"maintain"` (a view maintenance batch) or `"drift"` (the sentinel
    /// tripped).
    pub kind: &'static str,
    /// View name the event belongs to; empty for ad-hoc queries.
    pub view: String,
    /// Plan-shape label, e.g. `"DenseClosure"`.
    pub shape: String,
    /// The cost model's estimate for the work (0 when unavailable).
    pub estimate: f64,
    /// Actual derivations performed (0 when unavailable).
    pub actual: u64,
    /// Wall time of the work in nanoseconds (0 when unavailable).
    pub nanos: u64,
    /// Full decision record as a JSON object, or empty when the event
    /// carries no structured record (e.g. a bare maintenance sample).
    pub json: String,
}

impl JournalEntry {
    /// Render the entry as a single JSON object. The embedded decision
    /// record (already JSON) is inlined under `"decision"`, or `null`
    /// when absent.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.u64("seq", self.seq);
            o.u64("unix_ms", self.unix_ms);
            o.str("kind", self.kind);
            o.str("view", &self.view);
            o.str("shape", &self.shape);
            o.f64("estimate", self.estimate);
            o.u64("actual", self.actual);
            o.u64("nanos", self.nanos);
            o.raw(
                "decision",
                if self.json.is_empty() {
                    "null"
                } else {
                    &self.json
                },
            );
        })
    }
}

/// A bounded ring of [`JournalEntry`] records.
pub struct Journal {
    ring: Ring<JournalEntry>,
}

impl Journal {
    /// Create a journal keeping at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Journal {
        Journal {
            ring: Ring::new(capacity),
        }
    }

    /// Append an entry; the oldest entry is dropped when full.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        kind: &'static str,
        view: &str,
        shape: &str,
        estimate: f64,
        actual: u64,
        nanos: u64,
        json: String,
    ) {
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let entry = |ordinal: u64| JournalEntry {
            seq: ordinal + 1,
            unix_ms,
            kind,
            view: view.to_string(),
            shape: shape.to_string(),
            estimate,
            actual,
            nanos,
            json,
        };
        self.ring.push(entry);
    }

    /// The newest `n` entries, oldest first.
    pub fn recent(&self, n: usize) -> Vec<JournalEntry> {
        self.ring.read(|entries, _| {
            let skip = entries.len().saturating_sub(n);
            entries.iter().skip(skip).cloned().collect()
        })
    }

    /// Entries evicted so far to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.ring.read(|_, dropped| dropped)
    }
}

/// Process-wide decision journal (capacity 256).
pub fn journal() -> &'static Journal {
    static GLOBAL: OnceLock<Journal> = OnceLock::new();
    GLOBAL.get_or_init(|| Journal::new(256))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let j = Journal::new(3);
        for i in 0..5u64 {
            j.record(
                "plan",
                "v",
                "Direct",
                i as f64 + 1.0,
                i + 1,
                0,
                String::new(),
            );
        }
        assert_eq!(j.dropped(), 2);
        let recent = j.recent(10);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].seq, 3);
        assert_eq!(recent[2].seq, 5);
    }

    #[test]
    fn entry_escapes_and_inlines_decision() {
        let e = JournalEntry {
            seq: 7,
            unix_ms: 1,
            kind: "plan",
            view: "v\"1".to_string(),
            shape: "Direct".to_string(),
            estimate: 2.5,
            actual: 3,
            nanos: 9,
            json: "{\"winner\":\"Direct\"}".to_string(),
        };
        let json = e.to_json();
        assert!(json.contains("\"view\":\"v\\\"1\""));
        assert!(json.contains("\"decision\":{\"winner\":\"Direct\"}"));
        let bare = JournalEntry {
            json: String::new(),
            ..e
        };
        assert!(bare.to_json().contains("\"decision\":null"));
    }

    #[test]
    fn a_non_finite_estimate_renders_null() {
        let e = JournalEntry {
            seq: 1,
            unix_ms: 2,
            kind: "maintain",
            view: "v".to_string(),
            shape: "Direct".to_string(),
            estimate: f64::INFINITY,
            actual: 3,
            nanos: 4,
            json: String::new(),
        };
        assert!(e.to_json().contains("\"estimate\":null"), "{}", e.to_json());
    }
}
