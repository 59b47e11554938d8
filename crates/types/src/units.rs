//! Measurement units used across the workspace.
//!
//! Three quantities flow through every layer of the system and are easy to
//! confuse when they are all bare numbers: byte counts (cache capacities,
//! KV entry sizes), token counts (prompt lengths, reuse accounting), and
//! simulated time. Each gets a newtype.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A byte count (cache capacity, KV entry size, transferred volume).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Bytes(pub u64);

impl Bytes {
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a byte count from a raw value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Bytes(raw)
    }

    /// Creates a byte count from kibibytes... no: the paper uses decimal
    /// GB/TB throughout (e.g. "287 GB for 1M items"), so we do too.
    #[inline]
    pub const fn from_gb(gb: u64) -> Self {
        Bytes(gb * 1_000_000_000)
    }

    /// Creates a byte count from decimal megabytes.
    #[inline]
    pub const fn from_mb(mb: u64) -> Self {
        Bytes(mb * 1_000_000)
    }

    /// Returns the raw value.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Saturating subtraction: never underflows below zero.
    #[inline]
    pub const fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0 as f64;
        if v >= 1e12 {
            write!(f, "{:.2} TB", v / 1e12)
        } else if v >= 1e9 {
            write!(f, "{:.2} GB", v / 1e9)
        } else if v >= 1e6 {
            write!(f, "{:.2} MB", v / 1e6)
        } else if v >= 1e3 {
            write!(f, "{:.2} KB", v / 1e3)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A count of prompt tokens.
pub type TokenCount = u32;

/// Simulated wall-clock time, in seconds since simulation start.
///
/// `SimTime` is a total order (it rejects NaN at construction) so it can be
/// used directly as the key of the event queue in `bat-sim`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SimTime(f64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN or negative: simulated time always moves
    /// forward from zero.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime must be finite and non-negative, got {secs}"
        );
        SimTime(secs)
    }

    /// Returns the time in seconds.
    #[inline]
    pub const fn as_secs(self) -> f64 {
        self.0
    }

    /// Advances this time point by a duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if the duration is NaN or negative.
    #[inline]
    pub fn advance(self, secs: f64) -> SimTime {
        SimTime::from_secs(self.0 + secs)
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Construction rejects NaN, so partial_cmp is always Some.
        self.partial_cmp(other).expect("SimTime is never NaN")
    }
}

impl Sub for SimTime {
    type Output = f64;
    /// Difference between two time points, in seconds.
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl Div<f64> for Bytes {
    type Output = f64;
    /// Divides a byte volume by a bandwidth (bytes/sec), yielding seconds.
    fn div(self, bandwidth: f64) -> f64 {
        self.0 as f64 / bandwidth
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_constructors_and_display() {
        assert_eq!(Bytes::from_gb(2).as_u64(), 2_000_000_000);
        assert_eq!(Bytes::from_mb(3).as_u64(), 3_000_000);
        assert_eq!(Bytes::from_gb(1).to_string(), "1.00 GB");
        assert_eq!(Bytes::new(512).to_string(), "512 B");
        assert_eq!(Bytes::new(2_500_000_000_000).to_string(), "2.50 TB");
    }

    #[test]
    fn bytes_arithmetic() {
        let a = Bytes::new(10);
        let b = Bytes::new(4);
        assert_eq!(a + b, Bytes::new(14));
        assert_eq!(a - b, Bytes::new(6));
        assert_eq!(a * 3, Bytes::new(30));
        assert_eq!(b.saturating_sub(a), Bytes::ZERO);
        let total: Bytes = [a, b].into_iter().sum();
        assert_eq!(total, Bytes::new(14));
    }

    #[test]
    fn bytes_over_bandwidth_gives_seconds() {
        // 20 GB over 20 GB/s => 1 second.
        let t = Bytes::from_gb(20) / 20e9;
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn simtime_ordering_and_advance() {
        let t0 = SimTime::ZERO;
        let t1 = t0.advance(1.5);
        assert!(t1 > t0);
        assert_eq!(t1.as_secs(), 1.5);
        assert!((t1 - t0 - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn simtime_rejects_negative() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn simtime_rejects_nan() {
        let _ = SimTime::from_secs(f64::NAN);
    }
}
