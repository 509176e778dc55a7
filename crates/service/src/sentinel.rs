//! The plan-drift regression sentinel.
//!
//! A plan is chosen from *estimates*; the data it serves keeps changing.
//! This module watches every maintenance batch and keeps, per view, an
//! EWMA of the log estimate/actual-derivations ratio and an EWMA of
//! maintain latency. When the ratio EWMA drifts beyond
//! [`SentinelConfig::ratio_tolerance`] (in either direction — systematic
//! over- *and* under-estimation both mean the cost model no longer
//! describes the data), or a batch's latency spikes past
//! [`SentinelConfig::latency_tolerance`] × its EWMA baseline, the service
//! emits a typed `plan-drift` event and, on ratio drift, recalibrates
//! its shared `CostModel` from the journal's recent (estimate, actual)
//! pairs, closing the feedback loop that `CostModel::calibrate` opened.
//!
//! The log-domain EWMA makes the ratio test symmetric: estimate/actual
//! of 100× and 1/100× are equally far from calibrated.

use linrec_datalog::hash::FastMap;

/// EWMA weight of the newest sample.
const EWMA_ALPHA: f64 = 0.5;
/// Maximum journal pairs fed to one recalibration.
pub(crate) const CALIBRATION_WINDOW: usize = 64;

/// Knobs for the drift sentinel (see
/// [`ServiceConfig::sentinel`](crate::ServiceConfig::sentinel)).
#[derive(Debug, Clone)]
pub struct SentinelConfig {
    /// Trip when the EWMA of estimate/actual derivations leaves
    /// `[1/ratio_tolerance, ratio_tolerance]`. The default is generous —
    /// per-batch maintenance estimates are coarse — so only genuine
    /// miscalibration trips it.
    pub ratio_tolerance: f64,
    /// Trip when one batch's maintain latency exceeds this multiple of
    /// the view's latency EWMA.
    pub latency_tolerance: f64,
    /// Ignore latency drift while batches run faster than this (ns):
    /// microsecond-scale maintenance jitters by ×10 on scheduler noise
    /// alone and is not worth an alert.
    pub latency_floor_nanos: u64,
    /// Batches observed per view before the sentinel may trip (warm-up).
    pub min_batches: u64,
}

impl Default for SentinelConfig {
    fn default() -> SentinelConfig {
        SentinelConfig {
            ratio_tolerance: 512.0,
            latency_tolerance: 16.0,
            latency_floor_nanos: 5_000_000,
            min_batches: 3,
        }
    }
}

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
    /// Journal sequence number at the last recalibration, so the next one
    /// only feeds on pairs produced by the *current* model.
    last_calibrate_seq: u64,
}

/// Per-view drift state plus the config; part of the service's writer state.
pub(crate) struct Sentinel {
    cfg: SentinelConfig,
    views: FastMap<String, ViewDrift>,
}

impl Sentinel {
    pub(crate) fn new(cfg: SentinelConfig) -> Sentinel {
        Sentinel {
            cfg,
            views: FastMap::default(),
        }
    }

    /// Feed one maintenance sample; `Some` when drift trips. The ratio
    /// test has priority over the latency test (miscalibration explains
    /// latency surprises, not vice versa).
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

        if state.batches < self.cfg.min_batches {
            return None;
        }
        if let Some(ewma) = state.ewma_log_ratio {
            if ewma.abs() > self.cfg.ratio_tolerance.max(1.0).ln() {
                return Some(DriftTrip::Ratio {
                    ewma_ratio: ewma.exp(),
                });
            }
        }
        if let Some(baseline) = prev_nanos {
            if nanos >= self.cfg.latency_floor_nanos
                && baseline > 0.0
                && sample > self.cfg.latency_tolerance.max(1.0) * baseline
            {
                return Some(DriftTrip::Latency {
                    nanos,
                    baseline_nanos: baseline,
                });
            }
        }
        None
    }

    /// Journal sequence of the view's last recalibration (0 = never).
    pub(crate) fn last_calibrate_seq(&self, view: &str) -> u64 {
        self.views
            .get(view)
            .map(|s| s.last_calibrate_seq)
            .unwrap_or(0)
    }

    /// Record a recalibration: the EWMA restarts (it measured the *old*
    /// model) and future calibrations only read journal entries after
    /// `seq`.
    pub(crate) fn note_calibrated(&mut self, view: &str, seq: u64) {
        let state = self.views.entry(view.to_owned()).or_default();
        state.ewma_log_ratio = None;
        state.batches = 0;
        state.last_calibrate_seq = seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(ratio: f64, min_batches: u64) -> SentinelConfig {
        SentinelConfig {
            ratio_tolerance: ratio,
            min_batches,
            ..SentinelConfig::default()
        }
    }

    #[test]
    fn warm_up_then_trips_on_overestimate() {
        let mut s = Sentinel::new(cfg(4.0, 3));
        assert!(s.observe("v", Some(1000.0), 2, 100).is_none());
        assert!(s.observe("v", Some(1000.0), 2, 100).is_none());
        let trip = s.observe("v", Some(1000.0), 2, 100);
        assert!(
            matches!(trip, Some(DriftTrip::Ratio { ewma_ratio }) if ewma_ratio > 4.0),
            "{trip:?}"
        );
    }

    #[test]
    fn underestimates_trip_symmetrically() {
        let mut s = Sentinel::new(cfg(4.0, 1));
        let trip = s.observe("v", Some(2.0), 1000, 100);
        assert!(
            matches!(trip, Some(DriftTrip::Ratio { ewma_ratio }) if ewma_ratio < 0.25),
            "{trip:?}"
        );
    }

    #[test]
    fn calibrated_estimates_never_trip() {
        let mut s = Sentinel::new(cfg(4.0, 1));
        for _ in 0..50 {
            assert!(s.observe("v", Some(100.0), 90, 100).is_none());
        }
    }

    #[test]
    fn note_calibrated_restarts_the_warm_up() {
        let mut s = Sentinel::new(cfg(4.0, 2));
        assert!(s.observe("v", Some(1000.0), 1, 100).is_none());
        assert!(s.observe("v", Some(1000.0), 1, 100).is_some());
        s.note_calibrated("v", 17);
        assert_eq!(s.last_calibrate_seq("v"), 17);
        // One post-calibration batch is below min_batches again.
        assert!(s.observe("v", Some(10.0), 9, 100).is_none());
    }

    #[test]
    fn latency_spike_trips_only_above_the_floor() {
        let mut s = Sentinel::new(SentinelConfig {
            ratio_tolerance: 1e9,
            latency_tolerance: 8.0,
            latency_floor_nanos: 1_000_000,
            min_batches: 2,
        });
        // Sub-floor spikes are ignored no matter the multiple.
        assert!(s.observe("v", None, 10, 1_000).is_none());
        assert!(s.observe("v", None, 10, 900_000).is_none());
        // Above the floor and past tolerance × baseline: trips.
        let trip = s.observe("v", None, 10, 400_000_000);
        assert!(matches!(trip, Some(DriftTrip::Latency { .. })), "{trip:?}");
    }
}
