//! The plan-drift regression sentinel.
//!
//! A plan is chosen from *estimates*; the data it serves keeps changing.
//! This module watches every maintenance batch and keeps, per view, an
//! EWMA of the log estimate/actual-derivations ratio and an EWMA of
//! maintain latency. When the ratio EWMA leaves the band
//! `[1/RATIO_TOLERANCE, RATIO_TOLERANCE]` (in either direction —
//! systematic over- *and* under-estimation both mean the cost model no
//! longer describes the data), or a batch's latency spikes past
//! `LATENCY_TOLERANCE` × its EWMA baseline, the service emits a typed
//! `plan-drift` event. The sentinel only reports: the cost model is a
//! constant, and nothing here changes a plan or an estimate.
//!
//! The ratio test latches: a view reports ratio drift once when its EWMA
//! leaves the band and re-arms only after the EWMA has come back inside,
//! so a persistent drift is one event, not one per batch. Latency trips
//! are per spike.
//!
//! The log-domain EWMA makes the ratio test symmetric: estimate/actual
//! of 100× and 1/100× are equally far from the band's centre.

use linrec_datalog::hash::FastMap;

/// EWMA weight of the newest sample.
const EWMA_ALPHA: f64 = 0.5;
/// Ratio drift trips when the estimate/actual EWMA leaves
/// `[1/RATIO_TOLERANCE, RATIO_TOLERANCE]`. Generous — per-batch
/// maintenance estimates are coarse — so only a gross mismatch trips it.
const RATIO_TOLERANCE: f64 = 512.0;
/// Latency drift trips when one batch's maintain time exceeds this
/// multiple of the view's latency EWMA.
const LATENCY_TOLERANCE: f64 = 16.0;
/// Latency drift is ignored while batches run faster than this (ns):
/// microsecond-scale maintenance jitters by ×10 on scheduler noise alone
/// and is not worth an alert.
const LATENCY_FLOOR_NANOS: u64 = 5_000_000;
/// Batches observed per view before the sentinel may trip (warm-up).
const MIN_BATCHES: u64 = 3;

/// Why the sentinel tripped.
#[derive(Debug, Clone)]
pub enum DriftTrip {
    /// The estimate/actual EWMA left the tolerance band.
    Ratio {
        /// Geometric-mean estimate/actual ratio (EWMA, linear domain).
        ewma_ratio: f64,
    },
    /// One batch's latency spiked past the EWMA baseline.
    Latency {
        /// The offending batch's maintain time (ns).
        nanos: u64,
        /// The EWMA baseline it was compared against (ns).
        baseline_nanos: f64,
    },
}

impl DriftTrip {
    /// Short event label (`"ratio"` / `"latency"`).
    pub fn kind(&self) -> &'static str {
        match self {
            DriftTrip::Ratio { .. } => "ratio",
            DriftTrip::Latency { .. } => "latency",
        }
    }

    /// One-line human description for the stderr event line.
    pub fn describe(&self) -> String {
        match self {
            DriftTrip::Ratio { ewma_ratio } => {
                format!("estimate/actual EWMA drifted to {ewma_ratio:.3}")
            }
            DriftTrip::Latency {
                nanos,
                baseline_nanos,
            } => format!(
                "maintain latency {:.1} ms spiked over the {:.1} ms baseline",
                *nanos as f64 / 1e6,
                baseline_nanos / 1e6
            ),
        }
    }
}

#[derive(Default)]
struct ViewDrift {
    ewma_log_ratio: Option<f64>,
    ewma_nanos: Option<f64>,
    batches: u64,
    /// The ratio EWMA is outside the band and that drift was reported.
    ratio_reported: bool,
}

/// Per-view drift state; part of the service's writer state.
#[derive(Default)]
pub(crate) struct Sentinel {
    views: FastMap<String, ViewDrift>,
}

impl Sentinel {
    /// Feed one maintenance sample; `Some` when drift trips. An unreported
    /// ratio drift has priority over the latency test (a mismatched
    /// estimate explains latency surprises, not vice versa).
    pub(crate) fn observe(
        &mut self,
        view: &str,
        estimate: Option<f64>,
        actual_derivations: u64,
        nanos: u64,
    ) -> Option<DriftTrip> {
        let state = self.views.entry(view.to_owned()).or_default();
        state.batches += 1;

        if let Some(est) = estimate {
            if est > 0.0 && actual_derivations > 0 {
                let log_ratio = (est / actual_derivations as f64).ln();
                let ewma = match state.ewma_log_ratio {
                    Some(prev) => EWMA_ALPHA * log_ratio + (1.0 - EWMA_ALPHA) * prev,
                    None => log_ratio,
                };
                state.ewma_log_ratio = Some(ewma);
            }
        }

        // Latency: compare against the *previous* baseline, then fold the
        // sample in — a spike must not raise the bar it is judged by.
        let prev_nanos = state.ewma_nanos;
        let sample = nanos as f64;
        state.ewma_nanos = Some(match prev_nanos {
            Some(prev) => EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * prev,
            None => sample,
        });

        if state.batches < MIN_BATCHES {
            return None;
        }
        if let Some(ewma) = state.ewma_log_ratio {
            let drifted = ewma.abs() > RATIO_TOLERANCE.ln();
            let report = drifted && !state.ratio_reported;
            state.ratio_reported = drifted;
            if report {
                return Some(DriftTrip::Ratio {
                    ewma_ratio: ewma.exp(),
                });
            }
        }
        if let Some(baseline) = prev_nanos {
            if nanos >= LATENCY_FLOOR_NANOS
                && baseline > 0.0
                && sample > LATENCY_TOLERANCE * baseline
            {
                return Some(DriftTrip::Latency {
                    nanos,
                    baseline_nanos: baseline,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sub-floor maintain time: only the ratio test can trip.
    const QUIET: u64 = 100;

    fn ratio_trips(s: &mut Sentinel, estimate: f64, actual: u64, batches: usize) -> usize {
        (0..batches)
            .filter(|_| {
                matches!(
                    s.observe("v", Some(estimate), actual, QUIET),
                    Some(DriftTrip::Ratio { .. })
                )
            })
            .count()
    }

    #[test]
    fn a_persistent_overestimate_trips_once_in_twenty_batches() {
        let mut s = Sentinel::default();
        assert!(s.observe("v", Some(1e6), 2, QUIET).is_none());
        assert!(s.observe("v", Some(1e6), 2, QUIET).is_none());
        let trip = s.observe("v", Some(1e6), 2, QUIET);
        assert!(
            matches!(trip, Some(DriftTrip::Ratio { ewma_ratio }) if ewma_ratio > RATIO_TOLERANCE),
            "{trip:?}"
        );
        assert_eq!(ratio_trips(&mut s, 1e6, 2, 17), 0, "the drift is latched");
    }

    #[test]
    fn returning_to_the_band_re_arms_the_ratio_test() {
        let mut s = Sentinel::default();
        assert_eq!(ratio_trips(&mut s, 1e6, 2, 10), 1);
        // Matched estimates pull the EWMA back inside the band: no trip.
        assert_eq!(ratio_trips(&mut s, 100.0, 90, 10), 0);
        // A fresh drift is a fresh report, once.
        assert_eq!(ratio_trips(&mut s, 1e6, 2, 10), 1);
    }

    #[test]
    fn underestimates_trip_symmetrically() {
        let mut s = Sentinel::default();
        assert!(s.observe("v", Some(2.0), 1_000_000, QUIET).is_none());
        assert!(s.observe("v", Some(2.0), 1_000_000, QUIET).is_none());
        let trip = s.observe("v", Some(2.0), 1_000_000, QUIET);
        assert!(
            matches!(trip, Some(DriftTrip::Ratio { ewma_ratio }) if ewma_ratio < 1.0 / RATIO_TOLERANCE),
            "{trip:?}"
        );
        assert_eq!(ratio_trips(&mut s, 2.0, 1_000_000, 17), 0);
        assert_eq!(ratio_trips(&mut s, 100.0, 90, 10), 0);
        assert_eq!(ratio_trips(&mut s, 2.0, 1_000_000, 10), 1);
    }

    #[test]
    fn matched_estimates_never_trip() {
        let mut s = Sentinel::default();
        for _ in 0..50 {
            assert!(s.observe("v", Some(100.0), 90, QUIET).is_none());
        }
    }

    #[test]
    fn views_latch_independently() {
        let mut s = Sentinel::default();
        assert_eq!(ratio_trips(&mut s, 1e6, 2, 5), 1);
        let other = (0..5)
            .filter(|_| s.observe("w", Some(1e6), 2, QUIET).is_some())
            .count();
        assert_eq!(other, 1);
    }

    #[test]
    fn every_latency_spike_above_the_floor_trips() {
        let mut s = Sentinel::default();
        let ms = 1_000_000;
        // Sub-floor spikes are ignored no matter the multiple.
        for nanos in [1_000, 1_000, 4 * ms] {
            assert!(s.observe("v", None, 10, nanos).is_none());
        }
        // A latched ratio drift does not mute the latency test.
        let trip = s.observe("v", Some(1e6), 2, ms);
        assert!(matches!(trip, Some(DriftTrip::Ratio { .. })), "{trip:?}");
        for _ in 0..3 {
            // Quiet batches bring the baseline back near 1 ms…
            for _ in 0..8 {
                assert!(s.observe("v", Some(1e6), 2, ms).is_none());
            }
            // …and each spike past tolerance × baseline trips.
            let trip = s.observe("v", Some(1e6), 2, 400 * ms);
            assert!(matches!(trip, Some(DriftTrip::Latency { .. })), "{trip:?}");
        }
    }
}
