//! Elementwise and reduction kernels: softmax, RMSNorm, SiLU, axpy and dot.

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
/// twin the forward workspace uses per row. Same arithmetic in the same
/// order, so results are bit-identical.
///
/// # Panics
///
/// Panics if the three slices' lengths differ.
pub fn rms_norm_into(x: &[f32], gain: &[f32], eps: f32, out: &mut [f32]) {
    assert_eq!(x.len(), gain.len(), "rms_norm arity mismatch");
    assert_eq!(x.len(), out.len(), "rms_norm output arity mismatch");
    let ms = x.iter().map(|v| v * v).sum::<f32>() / x.len().max(1) as f32;
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

/// Polynomial `exp` approximation (relative error ≲ 2⁻²¹, i.e. well under
/// f32 test tolerances), written so LLVM can autovectorize loops over it:
/// range reduction uses the add-magic-constant rounding trick instead of
/// `floor` (a libm call on baseline x86-64), the 2ᵏ reconstruction is pure
/// integer bit math on the magic-shifted float itself — no float→int cast
/// anywhere (Rust's casts saturate, which LLVM vectorizes as an expensive
/// compare/select chain; dodging the cast roughly tripled the softmax
/// exp-pass throughput) — and the polynomial is a chain of mul/adds.
///
/// The batched forward paths spend most of their non-matmul time in
/// softmax/SiLU exponentials; swapping libm's scalar `exp` (~15 ns) for
/// this (~1 ns vectorized) is a headline kernel win. Inputs below ≈ -87
/// clamp to `exp(-87) ≈ 1.6e-38` rather than exactly 0. That is barely
/// above `f32::MIN_POSITIVE`: any later scale by a factor below 1 lands in
/// the subnormal range, where x86 takes a microcode assist per operand.
/// [`stable_softmax_fast_in_place`] therefore cuts such inputs to an exact
/// `0.0` before they reach this function.
#[inline]
// The digits are Cephes' exact hi/lo split of ln 2 and minimax
// coefficients; "rounding" them as clippy suggests would change the split.
#[allow(clippy::excessive_precision)]
pub fn fast_exp(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // 1.5·2²³: adding it forces round-to-nearest-integer in the mantissa.
    const MAGIC: f32 = 12_582_912.0;
    let x = x.clamp(-87.0, 88.0);
    let t = x * LOG2E + MAGIC; // mantissa now holds 2²² + round(x / ln 2)
    let k = t - MAGIC; // round(x / ln 2), exact integer as a float
    let r = x - k * LN2_HI - k * LN2_LO; // |r| ≤ ln2/2 in extended precision
                                         // Degree-5 minimax polynomial for exp(r) on [-ln2/2, ln2/2] (Cephes).
    let mut p = 1.987_569_2e-4f32;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_6e-1;
    p = p * r + 5.000_000_1e-1;
    let y = p * r * r + r + 1.0;
    // 2ᵏ straight from `t`'s bits: its low mantissa bits are 2²² + k, so
    // subtracting (2²² − 127) leaves k + 127 in the low bits and the shift
    // pushes everything else out of the word. k ∈ [-126, 127] post-clamp.
    let two_k = f32::from_bits(t.to_bits().wrapping_sub((1 << 22) - 127) << 23);
    y * two_k
}

/// SiLU via [`fast_exp`] — the activation kernel of the batched forward.
#[inline]
pub fn fast_silu(x: f32) -> f32 {
    x / (1.0 + fast_exp(-x))
}

/// SIMD lane width of the reduction kernels below: eight independent f32
/// accumulator lanes fill one AVX register (two SSE registers), and because
/// each lane is its own chain the compiler vectorizes without
/// reassociating anything the contract cares about.
const LANES: usize = 8;

/// Lane-parallel maximum. `max` is exact and order-independent (for the
/// non-NaN inputs the softmax shift sees), but the lane layout is fixed
/// anyway: 8 parallel chains, a fixed tree fold, then the ascending tail.
/// A plain `fold(NEG_INFINITY, f32::max)` is a serial dependency chain the
/// compiler cannot widen — on a 250-long attention row that chain was
/// roughly a third of the whole softmax cost.
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
    let mut m = (acc[0].max(acc[1]).max(acc[2].max(acc[3])))
        .max(acc[4].max(acc[5]).max(acc[6].max(acc[7])));
    for &x in it.remainder() {
        m = m.max(x);
    }
    m
}

/// Lane-parallel sum with the same fixed tree fold as [`lane_max`],
/// continuing from the lane accumulators `acc` (which hold the `LANES`-chunks
/// that precede `xs` in the row being summed; all zeros for a whole row).
/// The association is a pure function of the row length, so the result is
/// deterministic; it differs from a left-to-right `iter().sum()` by normal
/// f32 reassociation error (≈ 1 ulp per lane), which the softmax tolerance
/// tests cover.
#[inline(always)]
fn lane_sum_from(mut acc: [f32; LANES], xs: &[f32]) -> f32 {
    let mut it = xs.chunks_exact(LANES);
    for p in &mut it {
        let p: &[f32; LANES] = p.try_into().unwrap();
        for l in 0..LANES {
            acc[l] += p[l];
        }
    }
    let mut s = fold_tree(&acc);
    for &x in it.remainder() {
        s += x;
    }
    s
}

/// The fixed-tree fold of the lane accumulators. Out of line on purpose:
/// inlined, the vectorizer works backwards from this tree and regroups the
/// loop-carried accumulators of [`softmax_fast_given_max`] into four
/// half-empty vectors fed through shuffles; behind a call they stay one
/// eight-lane vector and the loop adds chunks to it as loaded.
#[inline(never)]
fn fold_tree(acc: &[f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// The widest SIMD tier the multiversioned kernels dispatch to on this
/// machine: `"avx512"`, `"avx2"`, `"neon"`, or `"scalar"`. Mirrors the
/// detection order of every dispatch site in this module and in
/// [`crate::Matrix`], so bench rows and logs can be labelled with the tier
/// that actually ran. The tier affects speed only — all tiers are
/// bit-identical by construction.
pub fn active_simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        return "neon";
    }
    "scalar"
}

/// Numerically-stable in-place softmax using [`fast_exp`], structured as
/// vectorizable passes (lane-folded max, then [`softmax_fast_given_max`]),
/// dispatched to the widest SIMD tier the CPU has. Semantics match [`stable_softmax_in_place`] up to the
/// approximation and reassociation error, with one defined edge: a logit
/// more than [`SOFTMAX_CUTOFF`] below the row maximum (so also `-inf`, and
/// NaN) gets weight exactly `0.0`. Every weight is therefore `0.0` or a
/// normal number — never subnormal, never NaN — and a row sums to 1 or,
/// when no logit is finite (fully masked, or a `+inf` present), is all
/// zeros. Every pass runs in a fixed order that depends only on the slice
/// length, so results are deterministic.
pub fn stable_softmax_fast_in_place(logits: &mut [f32]) {
    if logits.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F support was just verified at runtime.
            return unsafe { softmax_fast_avx512(logits) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { softmax_fast_avx2(logits) };
        }
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        // SAFETY: NEON support was just verified at runtime.
        return unsafe { softmax_fast_neon(logits) };
    }
    softmax_fast_body(logits)
}

/// [`stable_softmax_fast_in_place`]'s body compiled with AVX-512F enabled —
/// the widest x86 tier; same arithmetic in the same order as the baseline
/// body, so results are bit-identical (the tier affects speed only).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn softmax_fast_avx512(logits: &mut [f32]) {
    softmax_fast_body(logits)
}

/// [`stable_softmax_fast_in_place`]'s body compiled with AVX2 enabled; the
/// `#[inline(always)]` body is cloned in so the 8-wide registers apply.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn softmax_fast_avx2(logits: &mut [f32]) {
    softmax_fast_body(logits)
}

/// [`stable_softmax_fast_in_place`]'s body compiled with NEON enabled
/// (aarch64). NEON is baseline on aarch64, but the explicit tier keeps the
/// dispatch table uniform across architectures and survives a no-default
/// target spec.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn softmax_fast_neon(logits: &mut [f32]) {
    softmax_fast_body(logits)
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
    softmax_fast_given_max(logits, max);
}

/// The softmax of [`stable_softmax_fast_in_place`] for a row whose maximum
/// is already known — the group attention kernel
/// ([`crate::GroupAttention::attend`]) tracks it while it writes the scores
/// — in two passes: exponentiate and sum together, then scale by the
/// reciprocal. The exponentials are summed in [`lane_sum_from`]'s order
/// chunk by chunk as they are produced, so the eight-lane add chain (one
/// dependent add per chunk: latency-bound when it runs as a pass of its
/// own) hides under the polynomial. `max` must be what `lane_max` returns
/// for the row; the result is then bit-identical to the five-pass form on
/// every tier. `#[inline(always)]` so it takes the vector width of the
/// kernel it is cloned into.
#[inline(always)]
pub fn softmax_fast_given_max(logits: &mut [f32], max: f32) {
    /// Elements exponentiated per step: two independent 512-bit chains.
    const WIDE: usize = 4 * LANES;
    if max == f32::NEG_INFINITY {
        logits.iter_mut().for_each(|v| *v = 0.0);
        return;
    }
    // A select, not a branch: both arms are computed and blended, the same
    // on every SIMD tier. The comparison is false for NaN, so NaN → 0.0.
    let weight = |v: f32| {
        let x = v - max;
        if x >= SOFTMAX_CUTOFF {
            fast_exp(x)
        } else {
            0.0
        }
    };
    let mut acc = [0.0f32; LANES];
    let mut wide = logits.chunks_exact_mut(WIDE);
    for p in &mut wide {
        let p: &mut [f32; WIDE] = p.try_into().unwrap();
        p.iter_mut().for_each(|v| *v = weight(*v));
        for chunk in p.chunks_exact(LANES) {
            for l in 0..LANES {
                acc[l] += chunk[l];
            }
        }
    }
    let rest = wide.into_remainder();
    rest.iter_mut().for_each(|v| *v = weight(*v));
    let sum = lane_sum_from(acc, rest);
    if sum > 0.0 {
        let inv = 1.0 / sum;
        logits.iter_mut().for_each(|v| *v *= inv);
    }
}

/// Elementwise `xs[i] ← fast_silu(xs[i])`, multiversioned like
/// [`fast_silu_mul_in_place`] so the [`fast_exp`] chain vectorizes at the
/// caller's full register width (HSTU's gated projections map SiLU over
/// four matrices per layer).
pub fn fast_silu_in_place(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F support was just verified at runtime.
            return unsafe { fast_silu_in_place_avx512(xs) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { fast_silu_in_place_avx2(xs) };
        }
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        // SAFETY: NEON support was just verified at runtime.
        return unsafe { fast_silu_in_place_neon(xs) };
    }
    fast_silu_in_place_body(xs)
}

/// [`fast_silu_in_place`]'s body compiled with AVX-512F enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fast_silu_in_place_avx512(xs: &mut [f32]) {
    fast_silu_in_place_body(xs)
}

/// [`fast_silu_in_place`]'s body compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fast_silu_in_place_avx2(xs: &mut [f32]) {
    fast_silu_in_place_body(xs)
}

/// [`fast_silu_in_place`]'s body compiled with NEON enabled (aarch64).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn fast_silu_in_place_neon(xs: &mut [f32]) {
    fast_silu_in_place_body(xs)
}

#[inline(always)]
pub(crate) fn fast_silu_in_place_body(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = fast_silu(*x);
    }
}

/// Fused SwiGLU gate: `acts[i] ← fast_silu(acts[i]) · ups[i]`, the
/// elementwise epilogue between the FFN's gate/up projections and its down
/// projection. One multiversioned pass (AVX2 when available) keeps the
/// [`fast_exp`] chain in vector registers; calling [`fast_silu`] from a
/// scalar `zip` loop in the model crate left it at the SSE2 baseline.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn fast_silu_mul_in_place(acts: &mut [f32], ups: &[f32]) {
    assert_eq!(acts.len(), ups.len(), "silu gate arity mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F support was just verified at runtime.
            return unsafe { fast_silu_mul_avx512(acts, ups) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { fast_silu_mul_avx2(acts, ups) };
        }
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        // SAFETY: NEON support was just verified at runtime.
        return unsafe { fast_silu_mul_neon(acts, ups) };
    }
    fast_silu_mul_body(acts, ups)
}

/// [`fast_silu_mul_in_place`]'s body compiled with AVX-512F enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fast_silu_mul_avx512(acts: &mut [f32], ups: &[f32]) {
    fast_silu_mul_body(acts, ups)
}

/// [`fast_silu_mul_in_place`]'s body compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fast_silu_mul_avx2(acts: &mut [f32], ups: &[f32]) {
    fast_silu_mul_body(acts, ups)
}

/// [`fast_silu_mul_in_place`]'s body compiled with NEON enabled (aarch64).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn fast_silu_mul_neon(acts: &mut [f32], ups: &[f32]) {
    fast_silu_mul_body(acts, ups)
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

/// Lane-accumulated dot product: eight independent accumulation chains
/// folded in a fixed tree order (deterministic — the association depends
/// only on the length), dispatched to an AVX2-compiled copy on capable
/// CPUs. Use in hot loops where [`dot`]'s strict left-to-right chain
/// (which the compiler must not reassociate, so it cannot vectorize)
/// would serialize — e.g. the attention value accumulation.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot_fast(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot arity mismatch");
    crate::matrix::dot_unrolled(a, b)
}

/// `out += scale * v` elementwise. Element-independent, so the loop
/// vectorizes as-is; the AVX2 dispatch only widens the registers
/// (identical arithmetic, bit-identical results).
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn axpy(out: &mut [f32], scale: f32, v: &[f32]) {
    assert_eq!(out.len(), v.len(), "axpy arity mismatch");
    // Below ~4 vectors the wide clones' call overhead outweighs their
    // registers; every path is the same arithmetic in the same order.
    #[cfg(target_arch = "x86_64")]
    if out.len() >= 32 {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F support was just verified at runtime.
            return unsafe { axpy_avx512(out, scale, v) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { axpy_avx2(out, scale, v) };
        }
    }
    #[cfg(target_arch = "aarch64")]
    if out.len() >= 32 && std::arch::is_aarch64_feature_detected!("neon") {
        // SAFETY: NEON support was just verified at runtime.
        return unsafe { axpy_neon(out, scale, v) };
    }
    axpy_body(out, scale, v)
}

/// [`axpy`]'s body compiled with AVX-512F enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn axpy_avx512(out: &mut [f32], scale: f32, v: &[f32]) {
    axpy_body(out, scale, v)
}

/// [`axpy`]'s body compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(out: &mut [f32], scale: f32, v: &[f32]) {
    axpy_body(out, scale, v)
}

/// [`axpy`]'s body compiled with NEON enabled (aarch64).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn axpy_neon(out: &mut [f32], scale: f32, v: &[f32]) {
    axpy_body(out, scale, v)
}

#[inline(always)]
fn axpy_body(out: &mut [f32], scale: f32, v: &[f32]) {
    for (o, &x) in out.iter_mut().zip(v) {
        *o += scale * x;
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

    #[test]
    fn fast_exp_tracks_libm_exp() {
        let mut x = -20.0f32;
        while x <= 20.0 {
            let want = x.exp();
            let got = fast_exp(x);
            assert!(
                (got - want).abs() <= want * 3e-7 + 1e-30,
                "fast_exp({x}) = {got}, libm = {want}"
            );
            x += 0.0137;
        }
        assert_eq!(fast_exp(0.0), 1.0);
        assert!(fast_exp(f32::NEG_INFINITY) < 1e-36);
        assert!(fast_exp(1000.0).is_finite(), "clamped, not overflowed");
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
    fn lane_reductions_match_serial_folds() {
        for n in [0usize, 1, 7, 8, 9, 63, 250] {
            let xs: Vec<f32> = (0..n).map(|i| ((i * 37) % 23) as f32 * 0.7 - 5.0).collect();
            let serial_max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(lane_max(&xs), serial_max, "max over {n}");
            let serial_sum: f32 = xs.iter().sum();
            assert!(
                (lane_sum_from([0.0; LANES], &xs) - serial_sum).abs() < 1e-3,
                "sum over {n}"
            );
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

    /// Pins the elementwise kernels' per-architecture clones directly
    /// against the baseline bodies: the public dispatchers prefer the
    /// widest tier, so the narrower clones need their own coverage. Every
    /// tier present on this CPU must be bit-identical.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_x86_tier_is_bit_identical_to_baseline() {
        let src: Vec<f32> = (0..131).map(|i| (i as f32 * 0.37).sin() * 9.0).collect();
        let ups: Vec<f32> = (0..131).map(|i| (i as f32 * 0.23).cos()).collect();
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let mut soft_gold = src.clone();
        softmax_fast_body(&mut soft_gold);
        let mut silu_gold = src.clone();
        fast_silu_in_place_body(&mut silu_gold);
        let mut gate_gold = src.clone();
        fast_silu_mul_body(&mut gate_gold, &ups);
        let mut axpy_gold = ups.clone();
        axpy_body(&mut axpy_gold, 1.7, &src);

        if std::arch::is_x86_feature_detected!("avx512f") {
            let (mut s, mut g, mut m, mut a) = (src.clone(), src.clone(), src.clone(), ups.clone());
            // SAFETY: AVX-512F support was just verified at runtime.
            unsafe {
                softmax_fast_avx512(&mut s);
                fast_silu_in_place_avx512(&mut g);
                fast_silu_mul_avx512(&mut m, &ups);
                axpy_avx512(&mut a, 1.7, &src);
            }
            assert_eq!(bits(&s), bits(&soft_gold), "avx512f softmax");
            assert_eq!(bits(&g), bits(&silu_gold), "avx512f silu");
            assert_eq!(bits(&m), bits(&gate_gold), "avx512f silu-mul");
            assert_eq!(bits(&a), bits(&axpy_gold), "avx512f axpy");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            let (mut s, mut g, mut m, mut a) = (src.clone(), src.clone(), src.clone(), ups.clone());
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe {
                softmax_fast_avx2(&mut s);
                fast_silu_in_place_avx2(&mut g);
                fast_silu_mul_avx2(&mut m, &ups);
                axpy_avx2(&mut a, 1.7, &src);
            }
            assert_eq!(bits(&s), bits(&soft_gold), "avx2 softmax");
            assert_eq!(bits(&g), bits(&silu_gold), "avx2 silu");
            assert_eq!(bits(&m), bits(&gate_gold), "avx2 silu-mul");
            assert_eq!(bits(&a), bits(&axpy_gold), "avx2 axpy");
        }
    }

    /// The fast softmax as five separate passes — lane-folded max,
    /// exponentiate, lane-folded sum of the stored weights, reciprocal
    /// scale — the form [`softmax_fast_given_max`] fuses and must match
    /// bit for bit.
    fn softmax_five_pass(logits: &mut [f32]) {
        let max = lane_max(logits);
        if max == f32::NEG_INFINITY {
            logits.iter_mut().for_each(|v| *v = 0.0);
            return;
        }
        for v in logits.iter_mut() {
            let x = *v - max;
            *v = if x >= SOFTMAX_CUTOFF {
                fast_exp(x)
            } else {
                0.0
            };
        }
        let mut acc = [0.0f32; LANES];
        let mut chunks = logits.chunks_exact(LANES);
        for p in &mut chunks {
            for l in 0..LANES {
                acc[l] += p[l];
            }
        }
        let mut sum =
            ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
        for &x in chunks.remainder() {
            sum += x;
        }
        if sum > 0.0 {
            let inv = 1.0 / sum;
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
        /// bit-identical to the baseline body for arbitrary rows.
        #[test]
        fn softmax_dispatch_is_bit_identical(
            xs in proptest::collection::vec(-40.0f32..40.0, 1..180),
        ) {
            let mut dispatched = xs.clone();
            stable_softmax_fast_in_place(&mut dispatched);
            let mut baseline = xs;
            softmax_fast_body(&mut baseline);
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
