//! Deterministic hashing and quantile helpers.
//!
//! Per-entity attributes (a user's token count, an item's token count) must
//! be stable across the whole run and across processes without materializing
//! 10⁸ values. We derive them by hashing `(seed, id)` with SplitMix64 and
//! mapping the result through the target distribution's quantile function.

/// SplitMix64: a fast, well-distributed 64-bit mixer.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes `(seed, id, stream)` into a uniform `f64` in the open interval
/// `(0, 1)`.
#[inline]
pub fn uniform01(seed: u64, id: u64, stream: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(id ^ splitmix64(stream)));
    // 53 significant bits, then nudge off the boundaries. Multiplying by
    // 2⁻⁵³ is dividing by 2⁵³ exactly (a power of two only moves the
    // exponent), and the bits fit an `i64`, whose conversion is one
    // instruction where a `u64`'s is a branchy sequence.
    let u = (h >> 11) as i64 as f64 * (1.0 / (1u64 << 53) as f64);
    u.clamp(1e-12, 1.0 - 1e-12)
}

/// `x.round() as u32` — half away from zero, saturating, NaN to 0 — for
/// every `f64`, without the libm call `round` is at the x86-64 baseline.
/// `x as u64` truncates toward zero (saturating negatives and NaN to 0),
/// and `x − trunc(x)` is exact, so comparing it with one half rounds as
/// `round` does; the sum saturates where `round`'s cast would.
#[inline]
pub fn round_to_u32(x: f64) -> u32 {
    let t = x as u64;
    let r = t.saturating_add(u64::from(x - t as f64 >= 0.5));
    u32::try_from(r).unwrap_or(u32::MAX)
}

/// Inverse standard-normal CDF (Acklam's rational approximation, absolute
/// error < 1.15e-9 — far below the noise floor of workload synthesis).
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Deterministic lognormal sample for `(seed, id, stream)` with the given
/// log-mean and log-stddev.
pub fn lognormal(seed: u64, id: u64, stream: u64, mu: f64, sigma: f64) -> f64 {
    let u = uniform01(seed, id, stream);
    (mu + sigma * inverse_normal_cdf(u)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Consecutive inputs should differ in many bits.
        let d = (splitmix64(100) ^ splitmix64(101)).count_ones();
        assert!(d > 16, "poor avalanche: {d} bits");
    }

    #[test]
    fn uniform01_in_open_interval() {
        for id in 0..1000 {
            let u = uniform01(42, id, 0);
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn uniform01_streams_are_independent() {
        assert_ne!(uniform01(1, 1, 0), uniform01(1, 1, 1));
    }

    #[test]
    fn inverse_normal_known_values() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        // Deep tails stay finite and ordered.
        assert!(inverse_normal_cdf(1e-10) < -6.0);
        assert!(inverse_normal_cdf(1.0 - 1e-10) > 6.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1)")]
    fn inverse_normal_rejects_boundary() {
        let _ = inverse_normal_cdf(0.0);
    }

    #[test]
    fn lognormal_mean_is_approximately_right() {
        // mean of LogNormal(mu, sigma) = exp(mu + sigma^2/2).
        let sigma = 0.6f64;
        let target_mean = 1500.0f64;
        let mu = target_mean.ln() - sigma * sigma / 2.0;
        let n = 20_000;
        let mean: f64 = (0..n).map(|i| lognormal(9, i, 0, mu, sigma)).sum::<f64>() / n as f64;
        assert!(
            (mean - target_mean).abs() / target_mean < 0.05,
            "empirical mean {mean} vs target {target_mean}"
        );
    }

    proptest! {
        /// The inverse normal CDF is monotone.
        #[test]
        fn inverse_normal_monotone(a in 0.0001f64..0.9999, b in 0.0001f64..0.9999) {
            prop_assume!(a < b);
            prop_assert!(inverse_normal_cdf(a) <= inverse_normal_cdf(b));
        }

        /// `uniform01`'s product with 2⁻⁵³ is the quotient by 2⁵³ it
        /// replaced.
        #[test]
        fn uniform01_scales_as_it_divided(seed in 0u64..u64::MAX, id in 0u64..u64::MAX, stream in 0u64..8) {
            let h = splitmix64(seed ^ splitmix64(id ^ splitmix64(stream)));
            let divided = ((h >> 11) as f64 / (1u64 << 53) as f64).clamp(1e-12, 1.0 - 1e-12);
            prop_assert_eq!(uniform01(seed, id, stream).to_bits(), divided.to_bits());
        }

        /// `round_to_u32` is libm's `round` then the saturating cast: on any
        /// bit pattern, on token-count magnitudes, and on exact halves and
        /// their neighbours.
        #[test]
        fn round_to_u32_is_round_then_cast(bits in 0u64..u64::MAX, x in 0.0f64..1e4, k in 0u32..100_000) {
            let half = f64::from(k) + 0.5;
            let cases = [f64::from_bits(bits), x, half, half.next_up(), half.next_down()];
            for v in cases {
                prop_assert_eq!(round_to_u32(v), v.round() as u32, "at {:?}", v);
            }
        }

        /// uniform01 is deterministic in all arguments.
        #[test]
        fn uniform01_deterministic(seed: u64, id: u64, stream: u64) {
            prop_assert_eq!(uniform01(seed, id, stream), uniform01(seed, id, stream));
        }
    }
}
