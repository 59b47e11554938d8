//! The sliding-window access-frequency estimator (§5.3).
//!
//! The hotness-aware scheduler needs `f_u`, "how often a user issues
//! requests within a recent time window". The cache meta service "decays
//! its sliding-window frequency estimate" on each access and maintains the
//! statistics asynchronously.
//!
//! We implement the standard exponentially-decayed rate estimator: an
//! access at time `t` first decays the stored rate by `exp(-(t - last)/W)`
//! and then adds `1/W`. The estimate converges to the true arrival rate for
//! Poisson traffic and adapts within a window `W` — a faithful O(1)
//! realization of the paper's window metric.

use std::collections::HashMap;
use std::hash::Hash;

/// An exponentially-decayed rate estimator per key.
///
/// ```
/// use bat_kvcache::FreqEstimator;
///
/// let mut f = FreqEstimator::new(60.0);
/// for t in [0.0, 10.0, 20.0, 30.0] {
///     f.record("user", t);
/// }
/// // ~0.1 events/second, decaying while the key stays idle.
/// assert!(f.rate(&"user", 30.0) > f.rate(&"user", 300.0));
/// ```
#[derive(Debug, Clone)]
pub struct FreqEstimator<K> {
    window_secs: f64,
    state: HashMap<K, (f64, f64)>, // (rate, last_update)
}

impl<K: Hash + Eq + Clone> FreqEstimator<K> {
    /// Creates an estimator with the given window `W` in seconds (the paper
    /// evaluates W = 5 min and 60 min, Figure 4).
    ///
    /// # Panics
    ///
    /// Panics if `window_secs` is not positive.
    pub fn new(window_secs: f64) -> Self {
        assert!(
            window_secs > 0.0 && window_secs.is_finite(),
            "window must be positive"
        );
        FreqEstimator {
            window_secs,
            state: HashMap::new(),
        }
    }

    /// Records an access by `key` at time `now` (seconds) and returns the
    /// updated rate estimate (events/second).
    pub fn record(&mut self, key: K, now: f64) -> f64 {
        let entry = self.state.entry(key).or_insert((0.0, now));
        let dt = (now - entry.1).max(0.0);
        entry.0 = entry.0 * (-dt / self.window_secs).exp() + 1.0 / self.window_secs;
        entry.1 = now;
        entry.0
    }

    /// Current rate estimate for `key` at time `now`, decayed but without
    /// recording an access. Unknown keys rate 0.
    pub fn rate(&self, key: &K, now: f64) -> f64 {
        match self.state.get(key) {
            Some(&(rate, last)) => {
                let dt = (now - last).max(0.0);
                rate * (-dt / self.window_secs).exp()
            }
            None => 0.0,
        }
    }

    /// Estimated events *per window* (`rate × W`), the `f_u` quantity the
    /// scheduler compares.
    pub fn per_window(&self, key: &K, now: f64) -> f64 {
        self.rate(key, now) * self.window_secs
    }

    /// Iterates over the tracked keys (the background item refresh ranks
    /// them by current rate).
    pub fn iter_keys(&self) -> impl Iterator<Item = &K> {
        self.state.keys()
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether no keys are tracked.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }
}

/// The paper's window-similarity score (§5.3, Figure 4):
/// `1 − |f(t) − f(t−δ)| / (f(t) + f(t−δ))`, in `[0, 1]`, where 1 means the
/// two consecutive windows saw identical frequencies. Returns 1.0 when both
/// frequencies are zero (identically idle windows).
pub fn window_similarity(f_now: f64, f_prev: f64) -> f64 {
    let denom = f_now + f_prev;
    if denom <= 0.0 {
        return 1.0;
    }
    1.0 - (f_now - f_prev).abs() / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rate_converges_for_periodic_traffic() {
        let mut est = FreqEstimator::new(60.0);
        // One access every 2 seconds for 10 minutes → rate ≈ 0.5/s.
        let mut t = 0.0;
        let mut last = 0.0;
        while t < 600.0 {
            last = est.record("u", t);
            t += 2.0;
        }
        assert!(
            (last - 0.5).abs() < 0.05,
            "expected ≈0.5 events/s, got {last}"
        );
        assert!((est.per_window(&"u", t) - 30.0).abs() < 3.5);
    }

    #[test]
    fn rate_decays_when_idle() {
        let mut est = FreqEstimator::new(10.0);
        est.record("u", 0.0);
        let early = est.rate(&"u", 1.0);
        let late = est.rate(&"u", 50.0);
        assert!(early > late);
        assert!(late < 0.01 * early, "5 windows of idleness ≈ zero rate");
    }

    #[test]
    fn unknown_key_rates_zero() {
        let est: FreqEstimator<&str> = FreqEstimator::new(10.0);
        assert_eq!(est.rate(&"nobody", 5.0), 0.0);
    }

    #[test]
    fn more_frequent_key_has_higher_rate() {
        let mut est = FreqEstimator::new(30.0);
        for i in 0..30 {
            est.record("hot", i as f64);
            if i % 10 == 0 {
                est.record("cold", i as f64);
            }
        }
        assert!(est.rate(&"hot", 30.0) > est.rate(&"cold", 30.0));
    }

    #[test]
    fn similarity_known_values() {
        assert_eq!(window_similarity(5.0, 5.0), 1.0);
        assert_eq!(window_similarity(0.0, 0.0), 1.0);
        assert_eq!(window_similarity(4.0, 0.0), 0.0);
        assert!((window_similarity(3.0, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _: FreqEstimator<u8> = FreqEstimator::new(0.0);
    }

    proptest! {
        /// Similarity is symmetric and within [0, 1].
        #[test]
        fn similarity_bounds(a in 0.0f64..1e6, b in 0.0f64..1e6) {
            let s = window_similarity(a, b);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!((s - window_similarity(b, a)).abs() < 1e-12);
        }

        /// Recording never produces a negative or NaN rate, and time-reversed
        /// queries (clock skew) are clamped rather than exploding.
        #[test]
        fn estimator_robust(times in proptest::collection::vec(0.0f64..1e4, 1..100)) {
            let mut est = FreqEstimator::new(60.0);
            for &t in &times {
                let r = est.record("k", t);
                prop_assert!(r.is_finite() && r >= 0.0);
            }
            // Query earlier than last update: decay clamps at dt = 0.
            let r = est.rate(&"k", 0.0);
            prop_assert!(r.is_finite() && r >= 0.0);
        }
    }
}
