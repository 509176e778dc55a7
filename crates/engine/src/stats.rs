//! Evaluation statistics.
//!
//! Following the paper's Section 3.1 argument that duplicate production and
//! elimination dominate recursive computation cost, every strategy reports
//! the number of tuple *derivations* and the implied *duplicates*
//! (derivations minus distinct new tuples) alongside iteration counts —
//! these are the tractable cost measures Theorem 3.1 compares.

use linrec_obs::json;
use std::fmt;
use std::ops::AddAssign;

/// Counters accumulated during a fixpoint evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixpoint iterations (delta rounds).
    pub iterations: usize,
    /// Operator applications (rule × delta joins executed).
    pub applications: u64,
    /// Successful body matches (tuples derived, counting repeats).
    pub derivations: u64,
    /// Derivations that produced an already-known tuple
    /// (`derivations − new tuples`): the paper's duplicate count.
    pub duplicates: u64,
    /// Tuples in the final result.
    pub tuples: usize,
}

impl EvalStats {
    /// Record an operator application that matched `derived` bindings of
    /// which `new` produced previously unknown tuples. `new > derived`
    /// would be a caller bug (a "new" tuple that was never derived):
    /// debug builds assert, release builds saturate the duplicate count
    /// at zero rather than wrapping.
    pub fn record(&mut self, derived: u64, new: u64) {
        debug_assert!(
            new <= derived,
            "EvalStats::record: new ({new}) exceeds derived ({derived})"
        );
        self.applications += 1;
        self.derivations += derived;
        self.duplicates += derived.saturating_sub(new);
    }

    /// Write the five counters as JSON members, in their `Display` order:
    /// a decision's `actual` object and each `explain` node carry them.
    pub fn write_json(&self, o: &mut json::Object<'_>) {
        o.u64("tuples", self.tuples as u64);
        o.u64("derivations", self.derivations);
        o.u64("duplicates", self.duplicates);
        o.u64("iterations", self.iterations as u64);
        o.u64("applications", self.applications);
    }
}

impl AddAssign for EvalStats {
    fn add_assign(&mut self, rhs: EvalStats) {
        self.iterations += rhs.iterations;
        self.applications += rhs.applications;
        self.derivations += rhs.derivations;
        self.duplicates += rhs.duplicates;
        self.tuples = rhs.tuples; // final size comes from the last phase
    }
}

impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tuples={} derivations={} duplicates={} iterations={} applications={}",
            self.tuples, self.derivations, self.duplicates, self.iterations, self.applications
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tracks_duplicates() {
        let mut s = EvalStats::default();
        s.record(10, 7);
        s.record(5, 5);
        assert_eq!(s.applications, 2);
        assert_eq!(s.derivations, 15);
        assert_eq!(s.duplicates, 3);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn record_saturates_instead_of_wrapping() {
        let mut s = EvalStats::default();
        s.record(3, 5); // caller bug: saturate, don't wrap
        assert_eq!(s.duplicates, 0);
        assert_eq!(s.derivations, 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "new (5) exceeds derived (3)")]
    fn record_asserts_on_underflow_in_debug() {
        let mut s = EvalStats::default();
        s.record(3, 5);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = EvalStats {
            iterations: 2,
            applications: 4,
            derivations: 10,
            duplicates: 1,
            tuples: 9,
        };
        let b = EvalStats {
            iterations: 3,
            applications: 5,
            derivations: 20,
            duplicates: 2,
            tuples: 29,
        };
        a += b;
        assert_eq!(a.iterations, 5);
        assert_eq!(a.derivations, 30);
        assert_eq!(a.duplicates, 3);
        assert_eq!(a.tuples, 29);
    }

    #[test]
    fn display_is_informative() {
        let s = EvalStats::default();
        let text = s.to_string();
        assert!(text.contains("duplicates=0"));
    }
}
