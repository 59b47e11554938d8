//! Elementwise and reduction kernels: softmax, RMSNorm, SiLU, axpy and dot.
//!
//! The `fast_*` kernels and [`axpy`] / [`dot_fast`] / [`rms_norm_into`] are
//! multiversioned (see the crate's `simd` module) and written in fused multiply-adds,
//! so they compute the same bits on every SIMD tier.

use crate::matrix::{dot_unrolled, dot_unrolled_body, halve, halve_rows, LANES};
use crate::simd::{tiered, Tier};

/// Numerically-stable in-place softmax over `logits`.
///
/// Subtracts the maximum before exponentiating, so arbitrarily large logits
/// do not overflow. An all-`-inf` row (fully masked) becomes all zeros
/// rather than NaN.
///
/// ```
/// let mut v = vec![1.0f32, 2.0, 3.0];
/// bat_tensor::stable_softmax_in_place(&mut v);
/// assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-6);
/// assert!(v[2] > v[1] && v[1] > v[0]);
/// ```
pub fn stable_softmax_in_place(logits: &mut [f32]) {
    if logits.is_empty() {
        return;
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        logits.iter_mut().for_each(|v| *v = 0.0);
        return;
    }
    let mut sum = 0.0f32;
    for v in logits.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        logits.iter_mut().for_each(|v| *v /= sum);
    }
}

/// Root-mean-square layer normalization (as in Llama/Qwen):
/// `x_i ← x_i / rms(x) · gain_i`, `rms(x) = sqrt(mean(x²) + ε)`.
///
/// # Panics
///
/// Panics if `x.len() != gain.len()`.
pub fn rms_norm(x: &[f32], gain: &[f32], eps: f32) -> Vec<f32> {
    let mut out = vec![0.0f32; x.len()];
    rms_norm_into(x, gain, eps, &mut out);
    out
}

/// [`rms_norm`] writing into a caller-owned slice — the zero-allocation
/// twin the forward workspace uses per row. The sum of squares is the
/// lane-accumulated `dot_fast(x, x)` (a serial chain of dependent adds was
/// a fifteenth of a ranking forward), so results are deterministic and the
/// same on every tier.
///
/// # Panics
///
/// Panics if the three slices' lengths differ.
pub fn rms_norm_into(x: &[f32], gain: &[f32], eps: f32, out: &mut [f32]) {
    assert_eq!(x.len(), gain.len(), "rms_norm arity mismatch");
    assert_eq!(x.len(), out.len(), "rms_norm output arity mismatch");
    rms_norm_tiered(Tier::best(), x, gain, eps, out)
}

tiered! {
    fn rms_norm_tiered(x: &[f32], gain: &[f32], eps: f32, out: &mut [f32]) = rms_norm_body
}

#[inline(always)]
fn rms_norm_body(x: &[f32], gain: &[f32], eps: f32, out: &mut [f32]) {
    let ms = dot_unrolled_body(x, x) / x.len().max(1) as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    for ((o, v), g) in out.iter_mut().zip(x).zip(gain) {
        *o = v * inv * g;
    }
}

/// SiLU (swish) activation `x · sigmoid(x)`, used in the SwiGLU FFN.
#[inline]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// `exp(x)` for `x ∈ [-86, 88]`, within [`EXP_MAX_ULPS`] ulps of the
/// correctly rounded value (a test sweeps `[-64, 0]` every 2⁻¹² against
/// `f64::exp`); outside that range the result is meaningless. Written so
/// LLVM vectorizes loops over it — no `floor` (a libm call on baseline
/// x86-64) and no float→int cast (Rust's casts saturate, an expensive
/// compare/select chain) — and in fused multiply-adds throughout:
///
/// * `k = round(x / ln 2)` by the add-magic-constant trick;
/// * `r = x − k·ln 2` in two fused steps over Cephes' hi/lo split of
///   `ln 2`, so `|r| ≤ ln 2 / 2` carries no reduction error to speak of;
/// * `exp(r)` as a degree-6 minimax polynomial in Horner form
///   (approximation error 2⁻²⁸, one degree below the Cephes polynomial this
///   replaces: the fused steps round half as often, which pays for it);
/// * `· 2ᵏ` as an integer add of `k` to the exponent field, read straight
///   off the magic-shifted float's low mantissa bits. The result must be a
///   normal number, which is what bounds the range below.
#[inline(always)]
// The digits are Cephes' exact hi/lo split of ln 2 and the fitted minimax
// coefficients; "rounding" them as clippy suggests would change them.
#[allow(clippy::excessive_precision)]
fn exp_core(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // 1.5·2²³: adding it forces round-to-nearest-integer in the mantissa.
    const MAGIC: f32 = 12_582_912.0;
    let t = x.mul_add(LOG2E, MAGIC); // mantissa now holds 2²² + round(x / ln 2)
    let k = t - MAGIC; // round(x / ln 2), exact integer as a float
    let r = k.mul_add(-LN2_LO, k.mul_add(-LN2_HI, x));
    let mut p = 1.381_453_9e-3f32;
    p = p.mul_add(r, 8.368_745_4e-3);
    p = p.mul_add(r, 4.166_838_9e-2);
    p = p.mul_add(r, 1.666_652_1e-1);
    p = p.mul_add(r, 4.999_999_4e-1);
    p = p.mul_add(r, 1.0);
    let y = p.mul_add(r, 1.0);
    // `t`'s mantissa is 2²² + k and 2²² is a multiple of 2⁹, so the shift
    // leaves k mod 2⁹ in the sign and exponent bits: adding it to `y`'s
    // bits (mod 2³²) adds k to `y`'s exponent.
    f32::from_bits(y.to_bits().wrapping_add(t.to_bits() << 23))
}

/// Stated accuracy of [`fast_exp`] and of the softmax weights, in units in
/// the last place of the correctly rounded `exp`.
pub const EXP_MAX_ULPS: u32 = 1;

/// Polynomial `exp` approximation, within [`EXP_MAX_ULPS`] ulps over
/// `[-86, 88]` and clamped to that range outside it, so `exp(-∞)` is
/// `e⁻⁸⁶ ≈ 4.5e-38` rather than 0 and nothing overflows. That is barely
/// above `f32::MIN_POSITIVE`: any later scale by a factor below 1 lands in
/// the subnormal range, where x86 takes a microcode assist per operand —
/// the softmax therefore cuts such inputs to an exact `0.0` itself (see
/// [`SOFTMAX_CUTOFF`]) and never clamps.
///
/// `#[inline(always)]`, like everything built on `mul_add`: inside a SIMD
/// tier clone it becomes that tier's vector FMAs; called from code compiled
/// at the baseline it is correct but each `mul_add` is a libm call.
#[inline(always)]
pub fn fast_exp(x: f32) -> f32 {
    exp_core(x.clamp(-86.0, 88.0))
}

/// SiLU via [`fast_exp`] — the activation kernel of the batched forward.
#[inline(always)]
pub fn fast_silu(x: f32) -> f32 {
    x / (1.0 + fast_exp(-x))
}

/// Lane-parallel maximum: [`LANES`] parallel chains over the whole chunks,
/// a halving fold, then the ascending tail. `max` is exact and
/// order-independent (for the non-NaN inputs the softmax shift sees); a
/// plain `fold(NEG_INFINITY, f32::max)` is a serial dependency chain the
/// compiler cannot widen.
#[inline(always)]
fn lane_max(xs: &[f32]) -> f32 {
    let mut acc = [f32::NEG_INFINITY; LANES];
    let mut it = xs.chunks_exact(LANES);
    for p in &mut it {
        let p: &[f32; LANES] = p.try_into().unwrap();
        for l in 0..LANES {
            acc[l] = acc[l].max(p[l]);
        }
    }
    let mut width = LANES / 2;
    while width > 0 {
        for l in 0..width {
            acc[l] = acc[l].max(acc[l + width]);
        }
        width /= 2;
    }
    let mut m = acc[0];
    for &x in it.remainder() {
        m = m.max(x);
    }
    m
}

/// The widest SIMD tier the multiversioned kernels dispatch to on this
/// machine: `"avx512"`, `"avx2"` (with FMA; an AVX2 CPU without it runs the
/// portable bodies), `"neon"`, or `"scalar"` — so bench rows and logs can be
/// labelled with the tier that actually ran. The tier affects speed only —
/// all tiers are bit-identical by construction.
pub fn active_simd_tier() -> &'static str {
    Tier::best().name()
}

/// Numerically-stable in-place softmax using the fast `exp`, dispatched to
/// the widest SIMD tier the CPU has: lane-folded max, [`softmax_exp_sum`],
/// then one multiply by the reciprocal of the sum. Semantics match
/// [`stable_softmax_in_place`] up to the approximation and reassociation
/// error, with one defined edge: a logit more than [`SOFTMAX_CUTOFF`] below
/// the row maximum (so also `-inf`, and NaN) gets weight exactly `0.0`.
/// Every weight is therefore `0.0` or a normal number — never subnormal,
/// never NaN — and a row sums to 1 or, when no logit is finite (fully
/// masked, or a `+inf` present), is all zeros. Every pass runs in a fixed
/// order that depends only on the slice length, so results are
/// deterministic.
pub fn stable_softmax_fast_in_place(logits: &mut [f32]) {
    softmax_fast(Tier::best(), logits)
}

tiered! {
    fn softmax_fast(logits: &mut [f32]) = softmax_fast_body
}

/// Shifted logits below this get softmax weight exactly `0.0`.
/// `exp(-64) ≈ 1.6e-28` is far under f32 accumulation scale (a weight that
/// small cannot move a sum whose largest term is 1), yet ten orders of
/// magnitude above `f32::MIN_POSITIVE`, so the `1/sum` scale cannot push a
/// surviving weight into the subnormal range for any row shorter than 1e10.
pub const SOFTMAX_CUTOFF: f32 = -64.0;

#[inline(always)]
fn softmax_fast_body(logits: &mut [f32]) {
    let max = lane_max(logits);
    let sum = softmax_exp_sum(logits, max);
    if sum > 0.0 {
        let inv = 1.0 / sum;
        logits.iter_mut().for_each(|v| *v *= inv);
    }
}

/// One unnormalised softmax weight: `exp(v − shift)`, or exactly `0.0`
/// below the cut-off. A select, not a branch: both arms are computed and
/// blended, the same on every SIMD tier. The comparison is false for NaN, so
/// NaN → `0.0`; where it is true `v − shift ∈ [-64, 0]`, inside
/// `exp_core`'s range with no clamp.
#[inline(always)]
fn softmax_weight(v: f32, shift: f32) -> f32 {
    let x = v - shift;
    if x >= SOFTMAX_CUTOFF {
        exp_core(x)
    } else {
        0.0
    }
}

/// What to subtract from a row whose maximum is `max`: `max`, or `+inf`
/// for a row with no finite entry to take a maximum over (`max = -inf`),
/// which sends every entry below the cut-off — the row becomes all zeros
/// with no branch.
#[inline(always)]
fn softmax_shift(max: f32) -> f32 {
    if max == f32::NEG_INFINITY {
        f32::INFINITY
    } else {
        max
    }
}

/// One [`LANES`]-chunk of softmax weights, in place and into the lane sums.
#[inline(always)]
fn exp_sum_chunk(chunk: &mut [f32; LANES], shift: f32, acc: &mut [f32; LANES]) {
    for l in 0..LANES {
        chunk[l] = softmax_weight(chunk[l], shift);
        acc[l] += chunk[l];
    }
}

/// Turns a row of logits whose maximum `max` is already known into
/// unnormalised softmax weights `exp(v − max)` (see [`SOFTMAX_CUTOFF`] for
/// the zeros) and returns their sum. Dividing by it is left to the caller,
/// who may have fewer numbers to scale than the row has weights (attention
/// scales a head's `head_dim` outputs).
///
/// The sum is taken lane-wise as the weights are produced — weight `i` into
/// lane `i % LANES`, then a halving fold — so the one dependent add per
/// chunk hides under the polynomial, and its order is a function of the row
/// length alone. `max` must be the row's maximum over its non-NaN entries
/// (`-inf` when it has none: the row becomes all zeros). `#[inline(always)]`
/// so it takes the vector width of the kernel it is cloned into.
#[inline(always)]
pub fn softmax_exp_sum(logits: &mut [f32], max: f32) -> f32 {
    let shift = softmax_shift(max);
    let mut acc = [0.0f32; LANES];
    let mut chunks = logits.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        exp_sum_chunk(chunk.try_into().unwrap(), shift, &mut acc);
    }
    // The ragged end as one more chunk, padded with logits that weigh 0.0
    // (adding `0.0` to a lane that started at `+0.0` and only ever took
    // non-negative terms changes no bit): one vector pass, not fifteen
    // scalar ones.
    let rest = chunks.into_remainder();
    if !rest.is_empty() {
        let mut chunk = [f32::NEG_INFINITY; LANES];
        chunk[..rest.len()].copy_from_slice(rest);
        exp_sum_chunk(&mut chunk, shift, &mut acc);
        rest.copy_from_slice(&chunk[..rest.len()]);
    }
    halve(acc)
}

/// [`softmax_exp_sum`] of `H` rows held back to back in `rows`, each padded
/// to the same whole number of [`LANES`]-chunks with `-inf` (a padding
/// logit weighs `0.0` and adds `0.0` to its lane, so a row's weights and sum
/// have the bits of [`softmax_exp_sum`] over the unpadded row). The rows go
/// through chunk by chunk *together*: `H` independent polynomial chains in
/// flight hide each other's latency, which a short row on its own cannot —
/// the group attention kernel's rows are a few hundred keys long. The `H`
/// lane sums fold through [`halve_rows`] (one network when `WIDE`).
///
/// # Panics
///
/// Panics if `rows.len()` is not `H` whole-chunk rows.
#[inline(always)]
pub(crate) fn softmax_exp_sum_rows<const H: usize, const WIDE: bool>(
    rows: &mut [f32],
    max: [f32; H],
) -> [f32; H] {
    let stride = rows.len() / H;
    assert!(
        stride.is_multiple_of(LANES) && stride * H == rows.len(),
        "rows must be padded to whole chunks"
    );
    let mut shift = max;
    for shift in &mut shift {
        *shift = softmax_shift(*shift);
    }
    let mut acc = [[0.0f32; LANES]; H];
    for at in (0..stride).step_by(LANES) {
        for h in 0..H {
            let chunk = &mut rows[h * stride + at..][..LANES];
            exp_sum_chunk(chunk.try_into().unwrap(), shift[h], &mut acc[h]);
        }
    }
    halve_rows::<H, WIDE>(&acc)
}

/// Elementwise `xs[i] ← fast_silu(xs[i])`, multiversioned so the
/// [`fast_exp`] chain vectorizes at the CPU's full register width (HSTU's
/// gated projections map SiLU over four matrices per layer).
pub fn fast_silu_in_place(xs: &mut [f32]) {
    fast_silu_tiered(Tier::best(), xs)
}

tiered! {
    fn fast_silu_tiered(xs: &mut [f32]) = fast_silu_in_place_body
}

#[inline(always)]
pub(crate) fn fast_silu_in_place_body(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = fast_silu(*x);
    }
}

/// Fused SwiGLU gate: `acts[i] ← fast_silu(acts[i]) · ups[i]`, the
/// elementwise epilogue between the FFN's gate/up projections and its down
/// projection, in one multiversioned pass that keeps the [`fast_exp`] chain
/// in vector registers.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn fast_silu_mul_in_place(acts: &mut [f32], ups: &[f32]) {
    assert_eq!(acts.len(), ups.len(), "silu gate arity mismatch");
    fast_silu_mul(Tier::best(), acts, ups)
}

tiered! {
    fn fast_silu_mul(acts: &mut [f32], ups: &[f32]) = fast_silu_mul_body
}

#[inline(always)]
fn fast_silu_mul_body(acts: &mut [f32], ups: &[f32]) {
    for (a, &u) in acts.iter_mut().zip(ups) {
        *a = fast_silu(*a) * u;
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot arity mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Lane-accumulated dot product: sixteen independent chains of fused
/// multiply-adds folded in a fixed tree order (deterministic — the
/// association depends only on the length), multiversioned. Use in hot
/// loops where [`dot`]'s strict left-to-right chain (which the compiler
/// must not reassociate, so it cannot vectorize) would serialize.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot_fast(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot arity mismatch");
    dot_unrolled(Tier::best(), a, b)
}

/// `out[i] = fma(scale, v[i], out[i])` elementwise, multiversioned.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn axpy(out: &mut [f32], scale: f32, v: &[f32]) {
    assert_eq!(out.len(), v.len(), "axpy arity mismatch");
    axpy_tiered(Tier::best(), out, scale, v)
}

tiered! {
    fn axpy_tiered(out: &mut [f32], scale: f32, v: &[f32]) = axpy_body
}

#[inline(always)]
fn axpy_body(out: &mut [f32], scale: f32, v: &[f32]) {
    for (o, &x) in out.iter_mut().zip(v) {
        *o = scale.mul_add(x, *o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut v = vec![0.5f32, 1.5, -2.0];
        stable_softmax_in_place(&mut v);
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(v[1] > v[0] && v[0] > v[2]);
    }

    #[test]
    fn softmax_survives_huge_logits() {
        let mut v = vec![1e30f32, 1e30, 0.0];
        stable_softmax_in_place(&mut v);
        assert!(v.iter().all(|x| x.is_finite()));
        assert!((v[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn empty_softmax_is_noop() {
        let mut v: Vec<f32> = vec![];
        stable_softmax_in_place(&mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn rms_norm_produces_unit_scale() {
        let x = vec![3.0f32, 4.0];
        let g = vec![1.0f32, 1.0];
        let y = rms_norm(&x, &g, 1e-6);
        // rms = sqrt((9+16)/2) = sqrt(12.5)
        let rms = 12.5f32.sqrt();
        assert!((y[0] - 3.0 / rms).abs() < 1e-5);
        assert!((y[1] - 4.0 / rms).abs() < 1e-5);
    }

    #[test]
    fn silu_known_values() {
        assert_eq!(silu(0.0), 0.0);
        assert!((silu(1.0) - 0.731_058_6).abs() < 1e-5);
        assert!(silu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn axpy_accumulates() {
        let mut out = vec![1.0f32, 2.0];
        axpy(&mut out, 2.0, &[0.5, 0.5]);
        assert_eq!(out, vec![2.0, 3.0]);
    }

    /// Distance in units in the last place between `got` and the correctly
    /// rounded `f32` of `want`.
    fn ulps(got: f32, want: f64) -> u32 {
        got.to_bits().abs_diff((want as f32).to_bits())
    }

    #[test]
    fn fast_exp_tracks_libm_exp() {
        let mut x = -86.0f32;
        while x <= 88.0 {
            let got = fast_exp(x);
            assert!(
                ulps(got, f64::from(x).exp()) <= EXP_MAX_ULPS,
                "fast_exp({x}) = {got}, exp = {}",
                f64::from(x).exp()
            );
            x += 0.0137;
        }
        assert_eq!(fast_exp(0.0), 1.0);
        assert!(fast_exp(f32::NEG_INFINITY) < 1e-36);
        assert!(
            fast_exp(f32::NEG_INFINITY).is_normal(),
            "clamped, not flushed"
        );
        assert!(fast_exp(1000.0).is_finite(), "clamped, not overflowed");
    }

    /// The softmax's `exp` over the whole range the cut-off select can hand
    /// it, densely: every multiple of 2⁻¹² in `[-64, 0]` and the values
    /// either side of each binade edge, against `f64::exp`. The bound is
    /// the one [`EXP_MAX_ULPS`] states.
    #[test]
    fn softmax_exp_is_within_the_stated_ulps_over_its_whole_range() {
        let mut worst = 0;
        let mut check = |x: f32| {
            assert!((-64.0..=0.0).contains(&x));
            let got = exp_core(x);
            let err = ulps(got, f64::from(x).exp());
            assert!(
                err <= EXP_MAX_ULPS,
                "exp({x}) = {got}, exact {}: {err} ulps",
                f64::from(x).exp()
            );
            worst = worst.max(err);
        };
        for i in 0..=(64 << 12) {
            check(-(i as f32) / 4096.0);
        }
        for e in -20..=6 {
            let edge = -(2.0f32.powi(e));
            check(edge);
            check(f32::from_bits(edge.to_bits() - 1));
            if edge > -64.0 {
                check(f32::from_bits(edge.to_bits() + 1));
            }
        }
        check(-0.0);
        check(-f32::MIN_POSITIVE);
        assert!(worst >= 1, "an ulp bound of 0 would be a stronger claim");
    }

    #[test]
    fn fast_silu_tracks_silu() {
        let mut x = -15.0f32;
        while x <= 15.0 {
            assert!((fast_silu(x) - silu(x)).abs() < 1e-5, "at {x}");
            x += 0.0731;
        }
    }

    #[test]
    fn dot_fast_tracks_dot() {
        let a: Vec<f32> = (0..100).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..100).map(|i| (i as f32 * 0.21).cos()).collect();
        assert!((dot_fast(&a, &b) - dot(&a, &b)).abs() < 1e-4);
        assert_eq!(dot_fast(&[], &[]), 0.0);
        assert_eq!(dot_fast(&[2.0, 3.0], &[4.0, 5.0]), 23.0);
    }

    #[test]
    fn fast_silu_mul_matches_scalar_gate() {
        let mut acts: Vec<f32> = (0..37).map(|i| (i as f32 * 0.43).sin() * 3.0).collect();
        let ups: Vec<f32> = (0..37).map(|i| (i as f32 * 0.29).cos()).collect();
        let want: Vec<f32> = acts
            .iter()
            .zip(&ups)
            .map(|(&a, &u)| fast_silu(a) * u)
            .collect();
        fast_silu_mul_in_place(&mut acts, &ups);
        for (g, w) in acts.iter().zip(&want) {
            assert!((g - w).abs() < 1e-6);
        }
    }

    #[test]
    fn lane_max_matches_the_serial_fold() {
        for n in [0usize, 1, 7, 8, 9, 16, 17, 63, 250] {
            let xs: Vec<f32> = (0..n).map(|i| ((i * 37) % 23) as f32 * 0.7 - 5.0).collect();
            let serial_max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(lane_max(&xs), serial_max, "max over {n}");
        }
    }

    #[test]
    fn fast_softmax_tracks_seed_softmax() {
        let mut a: Vec<f32> = (0..64)
            .map(|i| ((i * 37) % 19) as f32 * 0.3 - 2.0)
            .collect();
        let mut b = a.clone();
        stable_softmax_in_place(&mut a);
        stable_softmax_fast_in_place(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
        // Fully-masked and mixed -inf rows behave like the seed kernel.
        let mut v = vec![f32::NEG_INFINITY; 3];
        stable_softmax_fast_in_place(&mut v);
        assert_eq!(v, vec![0.0, 0.0, 0.0]);
        let mut v = vec![1.0, f32::NEG_INFINITY, 1.0];
        stable_softmax_fast_in_place(&mut v);
        assert!(v[1] == 0.0 && (v[0] - 0.5).abs() < 1e-6);
    }

    /// Pins every SIMD tier of the elementwise kernels this CPU has against
    /// the portable bodies: the public dispatchers prefer the widest tier,
    /// so the narrower clones need their own coverage. Lengths that are no
    /// multiple of any vector width leave every kind of remainder.
    #[test]
    fn every_tier_is_bit_identical_to_baseline() {
        let src: Vec<f32> = (0..131).map(|i| (i as f32 * 0.37).sin() * 9.0).collect();
        let ups: Vec<f32> = (0..131).map(|i| (i as f32 * 0.23).cos()).collect();
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let run = |tier: Tier| {
            let (mut s, mut g, mut m, mut a) = (src.clone(), src.clone(), src.clone(), ups.clone());
            let mut n = vec![0.0f32; src.len()];
            softmax_fast(tier, &mut s);
            fast_silu_tiered(tier, &mut g);
            fast_silu_mul(tier, &mut m, &ups);
            axpy_tiered(tier, &mut a, 1.7, &src);
            rms_norm_tiered(tier, &src, &ups, 1e-6, &mut n);
            [bits(&s), bits(&g), bits(&m), bits(&a), bits(&n)]
        };
        let gold = run(Tier::SCALAR);
        for tier in Tier::available() {
            let got = run(tier);
            for (kernel, (got, gold)) in ["softmax", "silu", "silu-mul", "axpy", "rms-norm"]
                .iter()
                .zip(got.iter().zip(&gold))
            {
                assert_eq!(got, gold, "{} {kernel}", tier.name());
            }
        }
    }

    /// The fast softmax as five separate passes — lane-folded max,
    /// exponentiate, lane-wise sum of the stored weights (weight `i` into
    /// lane `i % LANES`, halving fold), reciprocal, scale — the form
    /// [`softmax_exp_sum`] fuses and must match bit for bit.
    fn softmax_five_pass(logits: &mut [f32]) {
        let max = lane_max(logits);
        if max == f32::NEG_INFINITY {
            logits.iter_mut().for_each(|v| *v = 0.0);
            return;
        }
        for v in logits.iter_mut() {
            let x = *v - max;
            *v = if x >= SOFTMAX_CUTOFF {
                exp_core(x)
            } else {
                0.0
            };
        }
        let mut acc = [0.0f32; LANES];
        for (i, w) in logits.iter().enumerate() {
            acc[i % LANES] += w;
        }
        let mut width = LANES / 2;
        while width > 0 {
            for l in 0..width {
                acc[l] += acc[l + width];
            }
            width /= 2;
        }
        if acc[0] > 0.0 {
            let inv = 1.0 / acc[0];
            logits.iter_mut().for_each(|v| *v *= inv);
        }
    }

    proptest! {
        /// Exponentiating and summing in one pass moves no bit: for rows
        /// of every length class (shorter than a lane chunk, between the
        /// chunk sizes, long) with the edge values mixed in, the fused
        /// softmax equals the five-pass form.
        #[test]
        fn fused_softmax_bit_matches_five_passes(
            row in proptest::collection::vec((0u8..12, -90.0f32..90.0), 0..200),
        ) {
            let mut fused: Vec<f32> = row
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => f32::NEG_INFINITY,
                    1 => f32::INFINITY,
                    2 => f32::NAN,
                    3 => -1e30,
                    _ => x,
                })
                .collect();
            let mut passes = fused.clone();
            stable_softmax_fast_in_place(&mut fused);
            softmax_five_pass(&mut passes);
            for (f, p) in fused.iter().zip(&passes) {
                prop_assert_eq!(f.to_bits(), p.to_bits());
            }
        }

        /// Whatever tier the host dispatches to, the fast softmax is
        /// bit-identical to the portable body for arbitrary rows.
        #[test]
        fn softmax_dispatch_is_bit_identical(
            xs in proptest::collection::vec(-40.0f32..40.0, 1..180),
        ) {
            let mut dispatched = xs.clone();
            stable_softmax_fast_in_place(&mut dispatched);
            let mut baseline = xs;
            softmax_fast(Tier::SCALAR, &mut baseline);
            for (d, b) in dispatched.iter().zip(&baseline) {
                prop_assert_eq!(d.to_bits(), b.to_bits());
            }
        }

        /// The numeric edge of the fast softmax: whatever mix of ordinary,
        /// hugely negative, infinite and NaN logits a row holds — fully
        /// masked rows, a single live lane and empty rows (a zero-length
        /// item block) included — every weight is `0.0` or a normal
        /// number, and the row sums to 1 or is all zeros. Never NaN, never
        /// subnormal.
        #[test]
        fn fast_softmax_weights_are_zero_or_normal(
            row in proptest::collection::vec((0u8..8, -90.0f32..90.0), 0..200),
        ) {
            let mut v: Vec<f32> = row
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => f32::NEG_INFINITY,
                    1 => f32::INFINITY,
                    2 => f32::NAN,
                    3 => -1e30,
                    _ => x,
                })
                .collect();
            stable_softmax_fast_in_place(&mut v);
            prop_assert!(v.iter().all(|w| *w == 0.0 || w.is_normal()), "{:?}", v);
            let sum: f32 = v.iter().sum();
            prop_assert!(
                v.iter().all(|w| *w == 0.0) || (sum - 1.0).abs() < 1e-4,
                "sum {}", sum
            );
        }

        /// Softmax is invariant to adding a constant to all logits.
        #[test]
        fn softmax_shift_invariance(xs in proptest::collection::vec(-20.0f32..20.0, 1..16), shift in -50.0f32..50.0) {
            let mut a = xs.clone();
            let mut b: Vec<f32> = xs.iter().map(|v| v + shift).collect();
            stable_softmax_in_place(&mut a);
            stable_softmax_in_place(&mut b);
            for (x, y) in a.iter().zip(&b) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        /// Softmax output is a probability distribution.
        #[test]
        fn softmax_is_distribution(xs in proptest::collection::vec(-30.0f32..30.0, 1..32)) {
            let mut v = xs;
            stable_softmax_in_place(&mut v);
            prop_assert!(v.iter().all(|x| (0.0..=1.0).contains(x)));
            prop_assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }

        /// RMSNorm output has RMS ≈ 1 when gain is all-ones.
        #[test]
        fn rms_norm_unit_rms(xs in proptest::collection::vec(-10.0f32..10.0, 2..32)) {
            // Avoid the degenerate all-zeros vector.
            prop_assume!(xs.iter().any(|v| v.abs() > 1e-3));
            let g = vec![1.0f32; xs.len()];
            let y = rms_norm(&xs, &g, 1e-8);
            let rms = (y.iter().map(|v| v * v).sum::<f32>() / y.len() as f32).sqrt();
            prop_assert!((rms - 1.0).abs() < 1e-2);
        }
    }
}
