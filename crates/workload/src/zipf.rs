//! Analytic Zipf popularity law.
//!
//! Item accesses in the paper's traces are highly skewed: "roughly 90% of
//! accesses focus on the top 10% of hot items" (Figure 2d, §4.1). We model
//! popularity with a continuous power law `p(x) ∝ x^{-s}` over ranks
//! `[1, n]`, which admits closed-form CDF, inverse CDF and head-mass — no
//! per-item state, so it scales to the 100M-item corpus of Figure 10.

use serde::{Deserialize, Serialize};

/// A Zipf-like power law over ranks `1..=n` with exponent `s`.
///
/// ```
/// use bat_workload::ZipfLaw;
///
/// let law = ZipfLaw::new(1_000_000, 1.05);
/// // Figure 2d: top 10% of items draw ~90% of accesses.
/// let head = law.head_mass(100_000);
/// assert!(head > 0.8 && head < 0.95);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZipfLaw {
    n: u64,
    s: f64,
}

impl ZipfLaw {
    /// Creates a law over `n` ranks with exponent `s ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or `s` is negative or non-finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf law needs at least one rank");
        assert!(s.is_finite() && s >= 0.0, "exponent must be ≥ 0");
        ZipfLaw { n, s }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// `∫_1^{x} t^{-s} dt`, the unnormalized mass of ranks `≤ x` in the
    /// continuous relaxation (with the `s = 1` logarithmic special case).
    fn integral(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-9 {
            x.ln()
        } else {
            (x.powf(1.0 - self.s) - 1.0) / (1.0 - self.s)
        }
    }

    fn total_mass(&self) -> f64 {
        // +1 so rank n itself carries mass (integrate to n+1).
        self.integral(self.n as f64 + 1.0)
    }

    /// Fraction of total accesses going to the hottest `k` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn head_mass(&self, k: u64) -> f64 {
        assert!(k <= self.n, "head size exceeds rank count");
        if k == 0 {
            return 0.0;
        }
        self.integral(k as f64 + 1.0) / self.total_mass()
    }

    /// Smallest `k` such that the hottest `k` ranks carry at least
    /// `mass` (∈ [0, 1]) of the accesses. Binary search on the closed form.
    ///
    /// # Panics
    ///
    /// Panics if `mass` is outside `[0, 1]`.
    pub fn ranks_for_mass(&self, mass: f64) -> u64 {
        assert!((0.0..=1.0).contains(&mass), "mass must be in [0, 1]");
        if mass <= 0.0 {
            return 0;
        }
        let (mut lo, mut hi) = (1u64, self.n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.head_mass(mid) >= mass {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

/// A [`ZipfLaw`]'s inverse CDF with its per-law terms — the total mass (a
/// `ln` or a `powf`) and the power-law exponents — computed once per law,
/// by the expressions a draw would otherwise evaluate each time. A trace
/// draws a rank per candidate, so this is the workload's hot path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankSampler {
    law: ZipfLaw,
    mass: f64,
    /// `(1 − s, 1 / (1 − s))`, or `None` for the logarithmic law (`s = 1`).
    power: Option<(f64, f64)>,
}

impl RankSampler {
    pub(crate) fn new(law: ZipfLaw) -> Self {
        let power = ((law.s - 1.0).abs() >= 1e-9).then(|| (1.0 - law.s, 1.0 / (1.0 - law.s)));
        RankSampler {
            law,
            mass: law.total_mass(),
            power,
        }
    }

    /// The law sampled.
    pub(crate) fn law(&self) -> ZipfLaw {
        self.law
    }

    /// Maps a uniform `u ∈ (0, 1)` to a 1-based rank by inverse-CDF
    /// sampling; rank 1 is the hottest. The inverse CDF is `floor(x)` of
    /// some `x`; `x as u64` is that floor for every `f64` without the libm
    /// call `floor` is at the x86-64 baseline: truncation equals the floor
    /// on `x ≥ 0`, and both saturate every negative `x` (and NaN) to 0.
    #[inline]
    pub(crate) fn sample(&self, u: f64) -> u64 {
        let u = u.clamp(1e-12, 1.0 - 1e-12);
        let target = u * self.mass;
        let x = match self.power {
            None => target.exp(),
            Some((exponent, inverse)) => (1.0 + exponent * target).powf(inverse),
        };
        (x as u64).clamp(1, self.law.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::uniform01;
    use proptest::prelude::*;

    #[test]
    fn uniform_law_has_linear_head_mass() {
        let law = ZipfLaw::new(1000, 0.0);
        assert!((law.head_mass(100) - 0.1).abs() < 0.01);
        assert!((law.head_mass(500) - 0.5).abs() < 0.01);
        assert_eq!(law.head_mass(1000), 1.0);
        assert_eq!(law.head_mass(0), 0.0);
    }

    #[test]
    fn industry_skew_matches_figure_2d() {
        // §4.1: ~90% of accesses on the top ~10% of items.
        let law = ZipfLaw::new(1_000_000, 1.05);
        let mass = law.head_mass(100_000);
        assert!(
            (0.82..0.95).contains(&mass),
            "top-10% mass {mass} outside Figure 2d's regime"
        );
    }

    #[test]
    fn ranks_for_mass_inverts_head_mass() {
        let law = ZipfLaw::new(100_000, 1.0);
        for mass in [0.1, 0.5, 0.9, 0.99] {
            let k = law.ranks_for_mass(mass);
            assert!(law.head_mass(k) >= mass);
            if k > 1 {
                assert!(law.head_mass(k - 1) < mass);
            }
        }
        assert_eq!(law.ranks_for_mass(0.0), 0);
        assert_eq!(law.ranks_for_mass(1.0), law.n());
    }

    #[test]
    fn sampling_matches_analytic_head_mass() {
        let law = ZipfLaw::new(10_000, 1.05);
        let n_samples = 50_000u64;
        let head_k = 1000;
        let hits = (0..n_samples)
            .filter(|&i| RankSampler::new(law).sample(uniform01(3, i, 0)) <= head_k)
            .count() as f64
            / n_samples as f64;
        let analytic = law.head_mass(head_k);
        assert!(
            (hits - analytic).abs() < 0.02,
            "empirical {hits} vs analytic {analytic}"
        );
    }

    #[test]
    fn s_equals_one_special_case() {
        let law = ZipfLaw::new(1000, 1.0);
        assert!(law.head_mass(100) > 0.6, "log law front-loads mass");
        let ranks = RankSampler::new(law);
        assert_eq!(ranks.sample(1e-15), 1);
        assert_eq!(ranks.sample(1.0 - 1e-15), 1000);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = ZipfLaw::new(0, 1.0);
    }

    /// A draw as it was first written: the total mass recomputed on every
    /// draw, libm's `floor`.
    fn sample_rank_per_draw(law: &ZipfLaw, u: f64) -> u64 {
        let u = u.clamp(1e-12, 1.0 - 1e-12);
        let target = u * law.total_mass();
        let x = if (law.s - 1.0).abs() < 1e-9 {
            target.exp()
        } else {
            (1.0 + (1.0 - law.s) * target).powf(1.0 / (1.0 - law.s))
        };
        (x.floor() as u64).clamp(1, law.n)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The hoisted sampler draws the rank the per-draw formula does, on
        /// the logarithmic law (a quarter of the cases) and on power laws.
        #[test]
        fn hoisted_sampler_matches_the_per_draw_formula(
            n in 1u64..100_000_000,
            s in 0.0f64..2.0,
            log in 0u32..4,
            u in 0.0f64..1.0,
        ) {
            let law = ZipfLaw::new(n, if log == 0 { 1.0 } else { s });
            prop_assert_eq!(RankSampler::new(law).sample(u), sample_rank_per_draw(&law, u));
        }

        /// The cast is the floor on every `f64`: any bit pattern (negative,
        /// NaN and infinite ones included) and the sampler's own range.
        #[test]
        fn truncation_is_the_floor(bits in 0u64..u64::MAX, x in 0.0f64..1e7) {
            let any = f64::from_bits(bits);
            prop_assert_eq!(any as u64, any.floor() as u64);
            prop_assert_eq!(x as u64, x.floor() as u64);
        }
    }

    proptest! {
        /// head_mass is monotone in k and within [0, 1].
        #[test]
        fn head_mass_monotone(n in 2u64..100_000, s in 0.0f64..2.0, k in 1u64..1000) {
            let law = ZipfLaw::new(n, s);
            let k = k.min(n);
            let a = law.head_mass(k.saturating_sub(1));
            let b = law.head_mass(k);
            prop_assert!((0.0..=1.0).contains(&b));
            prop_assert!(b >= a);
        }

        /// A drawn rank always lands in [1, n] and is monotone in u.
        #[test]
        fn sample_in_range_and_monotone(n in 1u64..1_000_000, s in 0.0f64..2.0, u1 in 0.001f64..0.999, u2 in 0.001f64..0.999) {
            let law = ZipfLaw::new(n, s);
            let ranks = RankSampler::new(law);
            let (a, b) = (ranks.sample(u1.min(u2)), ranks.sample(u1.max(u2)));
            prop_assert!(a >= 1 && a <= n);
            prop_assert!(b >= 1 && b <= n);
            prop_assert!(a <= b, "inverse CDF must be monotone");
        }
    }
}
