//! Online statistics for experiment measurement.
//!
//! Every performance metric in the paper's Table 3 is a summary statistic of
//! a stream of observations (latencies, report delays, rates, utilizations).
//! These accumulators are single-pass, O(1)-memory and numerically stable
//! (Welford's method).

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// Welford mean/variance accumulator with min/max tracking.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Self { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Record one observation. NaN observations are ignored — a single
    /// NaN would otherwise poison every downstream moment (and with it a
    /// whole scorecard).
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }
    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }
    /// Population variance, or 0 if fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }
    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
    /// Minimum observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }
    /// Maximum observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merge another summary into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Summary of durations, stored in seconds.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DurationSummary(Summary);

impl DurationSummary {
    /// An empty summary.
    pub fn new() -> Self {
        Self(Summary::new())
    }
    /// Record a duration.
    pub fn record(&mut self, d: SimDuration) {
        self.0.record(d.as_secs_f64());
    }
    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count()
    }
    /// Mean duration.
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.0.mean())
    }
    /// Maximum duration, or zero if empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.0.max().unwrap_or(0.0))
    }
    /// Minimum duration, or zero if empty.
    pub fn min(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.0.min().unwrap_or(0.0))
    }
}

/// A monotone counter bundle used by pipeline stages: offered, processed,
/// dropped.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct StageCounters {
    /// Items presented to the stage.
    pub offered: u64,
    /// Items the stage completed.
    pub processed: u64,
    /// Items lost (queue overflow, overload shedding, failure).
    pub dropped: u64,
}

impl StageCounters {
    /// Fraction of offered items that were dropped, 0 when nothing offered.
    pub fn drop_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered as f64
        }
    }

    /// Merge another counter bundle into this one.
    pub fn merge(&mut self, other: &StageCounters) {
        self.offered += other.offered;
        self.processed += other.processed;
        self.dropped += other.dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        xs.iter().for_each(|&x| whole.record(x));
        let mut left = Summary::new();
        let mut right = Summary::new();
        xs[..37].iter().for_each(|&x| left.record(x));
        xs[37..].iter().for_each(|&x| right.record(x));
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn summary_ignores_nan() {
        let mut s = Summary::new();
        s.record(1.0);
        s.record(f64::NAN);
        s.record(3.0);
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(3.0));
        // A summary fed only NaN stays empty and mean() stays finite.
        let mut n = Summary::new();
        n.record(f64::NAN);
        assert_eq!(n.count(), 0);
        assert_eq!(n.mean(), 0.0);
    }

    #[test]
    fn summary_merge_handles_empty_sides() {
        let mut a = Summary::new();
        let b = Summary::new();
        a.merge(&b);
        assert_eq!(a.count(), 0);
        let mut filled = Summary::new();
        filled.record(4.0);
        a.merge(&filled);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 4.0);
        let before = a.clone();
        a.merge(&Summary::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());
    }

    #[test]
    fn stage_counters() {
        let mut c = StageCounters { offered: 10, processed: 8, dropped: 2 };
        assert!((c.drop_ratio() - 0.2).abs() < 1e-12);
        c.merge(&StageCounters { offered: 10, processed: 10, dropped: 0 });
        assert!((c.drop_ratio() - 0.1).abs() < 1e-12);
        assert_eq!(StageCounters::default().drop_ratio(), 0.0);
    }

    #[test]
    fn duration_summary() {
        let mut d = DurationSummary::new();
        d.record(SimDuration::from_millis(10));
        d.record(SimDuration::from_millis(30));
        assert_eq!(d.count(), 2);
        assert_eq!(d.mean(), SimDuration::from_millis(20));
        assert_eq!(d.max(), SimDuration::from_millis(30));
        assert_eq!(d.min(), SimDuration::from_millis(10));
    }
}
