//! Serving statistics: percentiles, CDFs and streaming summaries.

use serde::{Deserialize, Serialize};

/// Exact percentile estimation over a collected sample (used for the P99
/// latency curves of Figure 9).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    pub fn record(&mut self, v: f64) {
        assert!(!v.is_nan(), "percentile samples must not be NaN");
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) with linear interpolation between
    /// order statistics (Hyndman–Fan type 7, the R/NumPy default), or
    /// `None` if no samples were recorded.
    ///
    /// Interpolation matters at the tail: with nearest-rank, one straggler
    /// sample can swing the reported P99 by the whole straggler latency
    /// the moment the sample count crosses a rank boundary, which made
    /// small-sample tail assertions flaky. The interpolated estimate moves
    /// continuously with the sample values.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
            self.sorted = true;
        }
        let n = self.samples.len();
        let h = (n - 1) as f64 * q;
        let lo = h.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        let frac = h - lo as f64;
        Some(self.samples[lo] + (self.samples[hi] - self.samples[lo]) * frac)
    }

    /// P99, the paper's SLO percentile.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// P90, the overload ablation's goodput percentile.
    pub fn p90(&mut self) -> Option<f64> {
        self.quantile(0.90)
    }

    /// P50 (median).
    pub fn p50(&mut self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }
}

/// An empirical CDF over `f64` values (Figures 2c/2d report access-frequency
/// CDFs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (order irrelevant).
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Cdf { sorted }
    }

    /// `P(X ≤ x)`; 0.0 for an empty sample.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: the smallest sample `x` with `P(X ≤ x) ≥ q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or the CDF is empty.
    pub fn inverse(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        assert!(!self.sorted.is_empty(), "inverse of empty CDF");
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len()) - 1;
        self.sorted[idx]
    }
}

/// Streaming count/mean/min/max summary.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Minimum, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let mut p = Percentiles::new();
        for v in 1..=100 {
            p.record(v as f64);
        }
        // Type-7: h = 99 * q, so P99 = 1 + 99*0.99 = 99.01, P50 = 50.5.
        assert!((p.p99().unwrap() - 99.01).abs() < 1e-9);
        assert!((p.p50().unwrap() - 50.5).abs() < 1e-9);
        assert!((p.p90().unwrap() - 90.1).abs() < 1e-9);
        assert_eq!(p.quantile(1.0), Some(100.0));
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.mean(), Some(50.5));
    }

    #[test]
    fn interpolated_tail_moves_continuously() {
        // Nine fast samples and one straggler: nearest-rank P90 snapped to
        // the straggler outright; interpolation blends proportionally, so
        // the estimate is a continuous function of the straggler latency.
        let tail = |straggler: f64| {
            let mut p = Percentiles::new();
            for _ in 0..9 {
                p.record(1.0);
            }
            p.record(straggler);
            p.quantile(0.9).unwrap()
        };
        assert!((tail(5.0) - (1.0 + 4.0 * 0.1)).abs() < 1e-9);
        assert!(tail(5.0) < tail(6.0));
        assert!(tail(6.0) < 6.0);
    }

    #[test]
    fn percentiles_empty_and_single() {
        let mut p = Percentiles::new();
        assert_eq!(p.p99(), None);
        assert_eq!(p.mean(), None);
        p.record(7.0);
        assert_eq!(p.p99(), Some(7.0));
        assert_eq!(p.p50(), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn percentiles_reject_nan() {
        Percentiles::new().record(f64::NAN);
    }

    #[test]
    fn cdf_basic_shape() {
        let cdf = Cdf::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.at(0.5), 0.0);
        assert_eq!(cdf.at(2.0), 0.5);
        assert_eq!(cdf.at(10.0), 1.0);
        assert_eq!(cdf.inverse(0.5), 2.0);
        assert_eq!(cdf.inverse(1.0), 4.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let cdf = Cdf::from_samples(&[5.0, 1.0, 3.0, 3.0, 9.0]);
        let curve: Vec<f64> = (0..10)
            .map(|i| cdf.at(1.0 + 8.0 * i as f64 / 9.0))
            .collect();
        for w in curve.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(curve.last(), Some(&1.0));
    }

    #[test]
    fn empty_cdf_behaviour() {
        let cdf = Cdf::from_samples(&[]);
        assert_eq!(cdf.at(1.0), 0.0);
    }

    #[test]
    fn summary_tracks_extremes() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), None);
        for v in [3.0, -1.0, 10.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), Some(-1.0));
        assert_eq!(s.max(), Some(10.0));
        assert_eq!(s.mean(), Some(4.0));
    }

    proptest! {
        /// quantile() is monotone in q and bounded by min/max.
        #[test]
        fn quantile_monotone(samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut p = Percentiles::new();
            for &s in &samples { p.record(s); }
            let mut prev = f64::NEG_INFINITY;
            for i in 0..=10 {
                let q = i as f64 / 10.0;
                let v = p.quantile(q).unwrap();
                prop_assert!(v >= prev);
                prev = v;
            }
            let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(p.quantile(0.0).unwrap() >= lo - 1e-9);
            prop_assert!(p.quantile(1.0).unwrap() <= hi + 1e-9);
        }

        /// CDF and inverse are consistent: at(inverse(q)) ≥ q.
        #[test]
        fn cdf_inverse_consistency(samples in proptest::collection::vec(-100.0f64..100.0, 1..100), q in 0.01f64..1.0) {
            let cdf = Cdf::from_samples(&samples);
            let x = cdf.inverse(q);
            prop_assert!(cdf.at(x) >= q - 1e-9);
        }
    }
}
