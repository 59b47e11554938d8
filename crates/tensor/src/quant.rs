//! Quantized cold-tier KV storage and dequant-fused attend kernels.
//!
//! The hot tier stores KV planes as f32 [`ColBlock`]s; the cold tier trades
//! precision for capacity. Two formats are supported:
//!
//! * **int8** — per-plane affine quantization: plane `r` stores
//!   `q = round((x - lo_r) / scale_r)` as one byte, with
//!   `scale_r = (hi_r - lo_r) / 255` derived from the plane's value range.
//!   Dequantization is `lo_r + q · scale_r`; the absolute roundtrip error
//!   is bounded by [`QuantizedColBlock::error_bound`] (half a step plus
//!   f32 rounding slack, ≤ `(hi_r − lo_r) / 500`).
//! * **f16** — IEEE-754 half precision (round-to-nearest-even), the
//!   paper's own KV storage type (§6.1). Relative error ≤ 2⁻¹¹ in the
//!   normal range; tiny magnitudes flush toward zero through the
//!   subnormal range (absolute error ≤ 2⁻²⁵).
//!
//! The attend kernels ([`QuantizedColBlock::rows_dot_acc`],
//! [`QuantizedColBlock::axpy_plane`]) read the quantized planes *directly*
//! and are **bit-identical** to dequantizing the whole block first and
//! attending over the f32 copy: dequantization is element-wise (`lo + q ·
//! scale` as a separate multiply and add — it defines a stored value, the
//! same wherever it is read) and the kernels replicate [`crate::matrix`]'s
//! exact `LANES`-chunk grouping — each element of a chunk is dequantized
//! straight into the same per-lane fused multiply-add, and the lanes are
//! folded with the same fixed tree and finished with the same ascending
//! scalar tail. A cold hit therefore attends
//! without ever materializing an f32 copy of the segment, and loses no
//! accuracy beyond the storage quantization itself.

use crate::matrix::{fold_lanes, LANES};
use crate::packed::ColBlock;
use crate::simd::{tiered, Tier};

/// Converts an `f32` to IEEE-754 half precision (round-to-nearest-even)
/// and back — the storage precision of the paper's KV cache ("We use FP16
/// as the data type for KV cache", §6.1).
///
/// ```
/// use bat_tensor::quant::fp16_round_trip;
///
/// // Values representable in fp16 survive exactly.
/// assert_eq!(fp16_round_trip(0.5), 0.5);
/// // Others round to the nearest half-precision value.
/// let v = fp16_round_trip(0.1);
/// assert!((v - 0.1).abs() < 1e-4);
/// ```
pub fn fp16_round_trip(x: f32) -> f32 {
    f16_to_f32(f32_to_f16(x))
}

/// `f32` → fp16 bits, round-to-nearest-even, with overflow to ±inf and
/// flush of sub-half-denormal magnitudes toward zero handled per IEEE.
///
/// Every case's bits are computed and one is selected, with no branch, so
/// the tier clones of [`QuantizedColBlock::quantize`] convert a register
/// of lanes at once.
#[inline(always)]
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = (bits >> 16) & 0x8000;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;
    // Re-bias exponent: f32 bias 127 → f16 bias 15.
    let unbiased = exp - 127;
    // Normal range: keep 10 mantissa bits with round-to-nearest-even (a
    // carry into the exponent is the right answer).
    let kept = mant >> 13;
    let tie_breaks_up = (mant & 0x0fff) != 0 || kept & 1 == 1;
    let normal = ((unbiased + 15) as u32) << 10 | kept;
    let normal = normal.wrapping_add((mant >> 12) & u32::from(tie_breaks_up));
    // Subnormal half: shift the implicit leading 1 into the mantissa (the
    // shift is 14..=23 wherever this case is selected).
    let full = mant | 0x0080_0000;
    let shift = (-14 - unbiased + 13).clamp(1, 31) as u32;
    let kept = full >> shift;
    let tie_breaks_up = full & ((1 << (shift - 1)) - 1) != 0 || kept & 1 == 1;
    let subnormal = kept + ((full >> (shift - 1)) & u32::from(tie_breaks_up));
    let half = if exp == 0xff {
        // Inf / NaN.
        0x7c00 | if mant != 0 { 0x0200 } else { 0 }
    } else if unbiased > 15 {
        0x7c00 // overflow → inf
    } else if unbiased >= -14 {
        normal
    } else if unbiased >= -24 {
        subnormal
    } else {
        0 // underflow → ±0
    };
    (sign | half) as u16
}

/// fp16 bits → `f32`; branch-free, like [`f32_to_f16`].
#[inline(always)]
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = u32::from((h >> 10) & 0x1f);
    let mant = u32::from(h & 0x03ff);
    // A subnormal half (or a zero) is `mant · 2⁻²⁴`, a normal f32 exactly.
    let subnormal = (mant as f32 * (1.0 / 16_777_216.0)).to_bits();
    let bits = if exp == 0 {
        subnormal
    } else if exp == 0x1f {
        0x7f80_0000 | (mant << 13) // Inf / NaN, payload kept
    } else {
        ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(sign | bits)
}

/// Storage format of a quantized cold-tier block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantKind {
    /// One byte per element, per-plane affine scale/zero-point.
    Int8,
    /// Two bytes per element, IEEE-754 half precision.
    F16,
}

/// Quantized payload, plane-major with stride `len` (exactly packed).
#[derive(Debug, Clone, PartialEq)]
enum Payload {
    /// `data[r * len + j]` is plane `r`, column `j`; `params[r]` is the
    /// plane's `(scale, lo)` so dequantization is `lo + q · scale`.
    Int8 {
        data: Vec<u8>,
        params: Vec<(f32, f32)>,
    },
    /// fp16 bit patterns, same layout.
    F16 { data: Vec<u16> },
}

/// A `rows × len` plane-major block stored in a quantized format — the
/// cold tier's twin of [`ColBlock`].
///
/// ```
/// use bat_tensor::{ColBlock, quant::{QuantKind, QuantizedColBlock}};
///
/// let mut b = ColBlock::new(2);
/// b.push_col(&[1.0, -4.0]);
/// b.push_col(&[3.0, 0.0]);
/// let q = QuantizedColBlock::quantize(&b, QuantKind::Int8);
/// let back = q.dequantize();
/// for r in 0..2 {
///     for (x, y) in b.plane(r).iter().zip(back.plane(r)) {
///         assert!((x - y).abs() <= q.error_bound(r));
///     }
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedColBlock {
    rows: usize,
    len: usize,
    payload: Payload,
}

impl QuantizedColBlock {
    /// Quantizes an f32 block into the given storage format.
    ///
    /// Int8 inputs must be finite; f16 inputs outside the half-precision
    /// normal range saturate to ±inf per IEEE (keep KV magnitudes under
    /// 65504, which every RMS-normed transformer activation satisfies).
    pub fn quantize(block: &ColBlock, kind: QuantKind) -> Self {
        let (rows, len) = (block.rows(), block.len());
        let tier = Tier::best();
        let payload = match kind {
            QuantKind::Int8 => {
                let mut data = vec![0u8; rows * len];
                let mut params = Vec::with_capacity(rows);
                for r in 0..rows {
                    let plane = block.plane(r);
                    debug_assert!(
                        plane.iter().all(|x| x.is_finite()),
                        "int8 quantization needs finite inputs"
                    );
                    let (lo, hi) = if plane.is_empty() {
                        (0.0, 0.0)
                    } else {
                        plane_range(tier, plane)
                    };
                    // A constant plane quantizes exactly: scale 0 makes
                    // every dequantized element `lo`.
                    let scale = if hi > lo { (hi - lo) / 255.0 } else { 0.0 };
                    params.push((scale, lo));
                    if scale != 0.0 {
                        let dst = &mut data[r * len..(r + 1) * len];
                        quantize_int8_plane(tier, plane, lo, scale, dst);
                    }
                }
                Payload::Int8 { data, params }
            }
            QuantKind::F16 => {
                let mut data = vec![0u16; rows * len];
                for r in 0..rows {
                    quantize_f16(tier, block.plane(r), &mut data[r * len..(r + 1) * len]);
                }
                Payload::F16 { data }
            }
        };
        QuantizedColBlock { rows, len, payload }
    }

    /// Number of planes.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the block holds no columns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The storage format.
    pub fn kind(&self) -> QuantKind {
        match self.payload {
            Payload::Int8 { .. } => QuantKind::Int8,
            Payload::F16 { .. } => QuantKind::F16,
        }
    }

    /// Bytes of quantized storage resident (payload plus int8 per-plane
    /// parameters) — what the cold tier charges for this block.
    pub fn resident_bytes(&self) -> usize {
        match &self.payload {
            Payload::Int8 { data, params } => {
                data.len() + params.len() * std::mem::size_of::<(f32, f32)>()
            }
            Payload::F16 { data } => data.len() * 2,
        }
    }

    /// Documented absolute roundtrip error bound for plane `r`: any
    /// element `x` of the source plane satisfies
    /// `|dequantize(quantize(x)) - x| <= error_bound(r)`.
    ///
    /// * Int8: half a quantization step plus f32 arithmetic slack —
    ///   `(hi - lo) / 500` (the exact half-step is `(hi - lo) / 510`).
    /// * F16: `2⁻¹¹ · max|x|` relative in the normal range plus the
    ///   largest subnormal gap `2⁻²⁵` absolute.
    pub fn error_bound(&self, r: usize) -> f32 {
        match &self.payload {
            Payload::Int8 { params, .. } => {
                let (scale, _) = params[r];
                // scale = (hi - lo) / 255: half a step with ~2% headroom
                // for the f32 rounding in quantize/dequantize.
                scale * 255.0 / 500.0
            }
            Payload::F16 { data } => {
                let max_abs = data[r * self.len..(r + 1) * self.len]
                    .iter()
                    .map(|&h| f16_to_f32(h).abs())
                    .fold(0.0f32, f32::max);
                max_abs / 2048.0 + 6.0e-8
            }
        }
    }

    /// Dequantized element at plane `r`, column `j` — the exact value the
    /// fused kernels read, and the exact value [`Self::dequantize`] writes.
    #[inline(always)]
    pub fn at(&self, r: usize, j: usize) -> f32 {
        debug_assert!(r < self.rows && j < self.len, "index out of range");
        match &self.payload {
            Payload::Int8 { data, params } => {
                let (scale, lo) = params[r];
                lo + f32::from(data[r * self.len + j]) * scale
            }
            Payload::F16 { data } => f16_to_f32(data[r * self.len + j]),
        }
    }

    /// Materializes the full f32 block (promotion path, oracles, tests;
    /// the attend hot path reads the quantized planes directly).
    pub fn dequantize(&self) -> ColBlock {
        let tier = Tier::best();
        let mut flat = vec![0.0f32; self.rows * self.len];
        match &self.payload {
            Payload::Int8 { data, params } => {
                for (r, &(scale, lo)) in params.iter().enumerate() {
                    let span = r * self.len..(r + 1) * self.len;
                    dequantize_int8_plane(tier, &data[span.clone()], scale, lo, &mut flat[span]);
                }
            }
            Payload::F16 { data } => dequantize_f16(tier, data, &mut flat),
        }
        ColBlock::from_plane_vec(self.rows, self.len, flat)
    }

    /// `acc[l] = fma(ps[l], dequantized plane(r)[i + l], acc[l])` over the
    /// `LANES`-chunk at column `i`: each element dequantized as
    /// [`Self::at`] defines it, straight into its multiply-add.
    #[inline(always)]
    fn fma_chunk(&self, r: usize, i: usize, ps: [f32; LANES], acc: &mut [f32; LANES]) {
        let at = r * self.len + i;
        match &self.payload {
            Payload::Int8 { data, params } => {
                let (scale, lo) = params[r];
                let src: [u8; LANES] = data[at..at + LANES].try_into().unwrap();
                for l in 0..LANES {
                    acc[l] = ps[l].mul_add(lo + f32::from(src[l]) * scale, acc[l]);
                }
            }
            Payload::F16 { data } => {
                let src: [u16; LANES] = data[at..at + LANES].try_into().unwrap();
                for l in 0..LANES {
                    acc[l] = ps[l].mul_add(f16_to_f32(src[l]), acc[l]);
                }
            }
        }
    }

    /// `out[c] += ⟨s, dequantized plane(row0 + c)⟩` over the first
    /// `s.len()` columns — the dequant-fused twin of
    /// [`crate::packed::SplitCols::rows_dot_acc`] over the single run
    /// `0..s.len()`, bit-identical to running that kernel on
    /// [`Self::dequantize`]'s output: per row, the same `LANES`-chunk fused
    /// multiply-adds in the same order, the same fixed-tree fold, the same
    /// ascending scalar tail.
    ///
    /// # Panics
    ///
    /// Panics if `row0 + out.len() > self.rows()` or `s.len() > self.len()`.
    pub fn rows_dot_acc(&self, row0: usize, s: &[f32], out: &mut [f32]) {
        assert!(row0 + out.len() <= self.rows, "rows_dot_acc row overrun");
        assert!(s.len() <= self.len, "rows_dot_acc column overrun");
        quant_rows_dot_acc(Tier::best(), self, row0, s, out)
    }

    /// `out[j] = fma(coeff, dequantized plane(r)[j], out[j])` over the first
    /// `window` columns — the dequant-fused twin of
    /// [`crate::packed::SplitCols::axpy_plane`] over the single run
    /// `0..window`. `axpy` is element-wise, so fusing the per-element
    /// dequantization cannot change a bit.
    ///
    /// # Panics
    ///
    /// Panics if `window > self.len()` or `out.len() < window`.
    pub fn axpy_plane(&self, r: usize, window: usize, coeff: f32, out: &mut [f32]) {
        assert!(window <= self.len, "axpy_plane window overrun");
        quant_axpy_plane(Tier::best(), self, r, coeff, &mut out[..window])
    }
}

tiered! {
    fn plane_range(plane: &[f32]) -> (f32, f32) = plane_range_body
}

/// The least and greatest element of a non-empty `plane`, as the
/// left-to-right scan `lo = if x < lo { x } else { lo }` (and `>` for `hi`)
/// finds them — the int8 parameters' definition. The scan runs in `LANES`
/// lanes; lanes meet out of order, which can only matter between `-0.0`
/// and `0.0`, where the scan keeps the plane's first zero, so a zero
/// extreme is looked up.
#[inline(always)]
fn plane_range_body(plane: &[f32]) -> (f32, f32) {
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    let chunks = plane.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for l in 0..LANES {
            let x = chunk[l];
            lo[l] = if x < lo[l] { x } else { lo[l] };
            hi[l] = if x > hi[l] { x } else { hi[l] };
        }
    }
    let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
    for &x in lo.iter().chain(tail) {
        min = if x < min { x } else { min };
    }
    for &x in hi.iter().chain(tail) {
        max = if x > max { x } else { max };
    }
    let first_zero = || plane.iter().copied().find(|&x| x == 0.0);
    if min == 0.0 {
        min = first_zero().expect("the least element is a zero of the plane");
    }
    if max == 0.0 {
        max = first_zero().expect("the greatest element is a zero of the plane");
    }
    (min, max)
}

tiered! {
    fn quantize_int8_plane(plane: &[f32], lo: f32, scale: f32, dst: &mut [u8])
        = quantize_int8_plane_body
}

/// `dst[j] = round((plane[j] − lo) / scale).clamp(0.0, 255.0) as u8`. A
/// division and a rounding are exact in every tier (`round` is half away
/// from zero: the x86 clones build it from a truncation), so every tier
/// writes the same bytes. The clamp and the cast, NaN to 0, are written
/// without a saturating cast, which LLVM leaves scalar: every value the
/// select keeps is an integer in 0..=255, and adding 2²³ to it leaves it
/// in the low byte of the sum's bits.
#[inline(always)]
fn quantize_int8_plane_body(plane: &[f32], lo: f32, scale: f32, dst: &mut [u8]) {
    for (slot, &x) in dst.iter_mut().zip(plane) {
        let q = ((x - lo) / scale).round();
        let q = if q >= 0.0 { q.min(255.0) } else { 0.0 };
        *slot = (q + 8_388_608.0).to_bits() as u8;
    }
}

tiered! {
    fn dequantize_int8_plane(src: &[u8], scale: f32, lo: f32, dst: &mut [f32])
        = dequantize_int8_plane_body
}

/// `dst[j] = lo + src[j] · scale`, a separate multiply and add: the value
/// [`QuantizedColBlock::at`] defines.
#[inline(always)]
fn dequantize_int8_plane_body(src: &[u8], scale: f32, lo: f32, dst: &mut [f32]) {
    for (slot, &q) in dst.iter_mut().zip(src) {
        *slot = lo + f32::from(q) * scale;
    }
}

tiered! {
    fn quantize_f16(src: &[f32], dst: &mut [u16]) = quantize_f16_body
}

#[inline(always)]
fn quantize_f16_body(src: &[f32], dst: &mut [u16]) {
    for (slot, &x) in dst.iter_mut().zip(src) {
        *slot = f32_to_f16(x);
    }
}

tiered! {
    fn dequantize_f16(src: &[u16], dst: &mut [f32]) = dequantize_f16_body
}

#[inline(always)]
fn dequantize_f16_body(src: &[u16], dst: &mut [f32]) {
    for (slot, &h) in dst.iter_mut().zip(src) {
        *slot = f16_to_f32(h);
    }
}

tiered! {
    fn quant_rows_dot_acc(q: &QuantizedColBlock, row0: usize, s: &[f32], out: &mut [f32])
        = quant_rows_dot_acc_body
}

#[inline(always)]
fn quant_rows_dot_acc_body(q: &QuantizedColBlock, row0: usize, s: &[f32], out: &mut [f32]) {
    let main = s.len() / LANES * LANES;
    // Four rows per pass, like the f32 kernel: four independent lane
    // accumulators hide the latency a single row's chain is bound by. Each
    // row's own arithmetic is unchanged by the grouping.
    for (quad_index, quad) in out.chunks_mut(4).enumerate() {
        let r0 = row0 + 4 * quad_index;
        let mut acc = [[0.0f32; LANES]; 4];
        for i in (0..main).step_by(LANES) {
            let ps: [f32; LANES] = s[i..i + LANES].try_into().unwrap();
            for (k, acc) in acc.iter_mut().enumerate().take(quad.len()) {
                q.fma_chunk(r0 + k, i, ps, acc);
            }
        }
        for (k, slot) in quad.iter_mut().enumerate() {
            let mut tail = [0.0f32; LANES];
            for (j, t) in (main..s.len()).zip(&mut tail) {
                *t = q.at(r0 + k, j);
            }
            *slot += fold_lanes(acc[k], &s[main..], &tail);
        }
    }
}

tiered! {
    fn quant_axpy_plane(q: &QuantizedColBlock, r: usize, coeff: f32, out: &mut [f32])
        = quant_axpy_plane_body
}

#[inline(always)]
fn quant_axpy_plane_body(q: &QuantizedColBlock, r: usize, coeff: f32, out: &mut [f32]) {
    for (j, o) in out.iter_mut().enumerate() {
        *o = coeff.mul_add(q.at(r, j), *o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::SplitCols;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn random_block(rows: usize, cols: usize, scale: f32, rng: &mut SmallRng) -> ColBlock {
        let mut b = ColBlock::new(rows);
        for _ in 0..cols {
            let col: Vec<f32> = (0..rows).map(|_| rng.gen_range(-scale..scale)).collect();
            b.push_col(&col);
        }
        b
    }

    /// The case-by-case converter [`f32_to_f16`] replaced, as the oracle
    /// of its bits.
    fn f32_to_f16_by_cases(x: f32) -> u16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xff) as i32;
        let mant = bits & 0x007f_ffff;
        if exp == 0xff {
            let payload = if mant != 0 { 0x0200 } else { 0 };
            return sign | 0x7c00 | payload;
        }
        let unbiased = exp - 127;
        if unbiased > 15 {
            return sign | 0x7c00;
        }
        if unbiased >= -14 {
            let half_exp = ((unbiased + 15) as u16) << 10;
            let shifted = mant >> 13;
            let round_bit = (mant >> 12) & 1;
            let sticky = (mant & 0x0fff) != 0;
            let mut out = sign | half_exp | shifted as u16;
            if round_bit == 1 && (sticky || (shifted & 1) == 1) {
                out = out.wrapping_add(1);
            }
            return out;
        }
        if unbiased >= -24 {
            let full = mant | 0x0080_0000;
            let shift = (-14 - unbiased) as u32 + 13;
            let shifted = full >> shift;
            let round_bit = (full >> (shift - 1)) & 1;
            let sticky = (full & ((1u32 << (shift - 1)) - 1)) != 0;
            let mut out = sign | shifted as u16;
            if round_bit == 1 && (sticky || (shifted & 1) == 1) {
                out = out.wrapping_add(1);
            }
            return out;
        }
        sign
    }

    /// The case-by-case [`f16_to_f32`] it replaced.
    fn f16_to_f32_by_cases(h: u16) -> f32 {
        let sign = ((h as u32) & 0x8000) << 16;
        let exp = ((h >> 10) & 0x1f) as u32;
        let mant = (h & 0x03ff) as u32;
        let bits = match (exp, mant) {
            (0, 0) => sign,
            (0, m) => {
                let lead = m.leading_zeros() - 22;
                let exp32 = 127 - 15 - lead;
                let mant32 = (m << (lead + 1)) & 0x03ff;
                sign | (exp32 << 23) | (mant32 << 13)
            }
            (0x1f, 0) => sign | 0x7f80_0000,
            (0x1f, m) => sign | 0x7f80_0000 | (m << 13),
            (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
        };
        f32::from_bits(bits)
    }

    /// One plane as the scalar quantizer wrote it — its bytes, `(lo, hi)`
    /// and scale: a left-to-right scan, then a division and libm's `round`
    /// per element.
    fn int8_plane_by_scan(plane: &[f32]) -> (Vec<u8>, (f32, f32), f32) {
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for &x in plane {
            lo = if x < lo { x } else { lo };
            hi = if x > hi { x } else { hi };
        }
        if plane.is_empty() {
            (lo, hi) = (0.0, 0.0);
        }
        let scale = if hi > lo { (hi - lo) / 255.0 } else { 0.0 };
        let q = plane
            .iter()
            .map(|&x| match scale {
                0.0 => 0,
                _ => ((x - lo) / scale).round().clamp(0.0, 255.0) as u8,
            })
            .collect();
        (q, (lo, hi), scale)
    }

    /// Planes of every length to a few chunks, with signed zeros, repeated
    /// extremes and constant runs salted in — among them planes whose least
    /// (or greatest) element is a zero of both signs, in any lanes.
    fn awkward_planes(rng: &mut SmallRng) -> Vec<Vec<f32>> {
        let mut planes = Vec::new();
        for len in 0..3 * LANES + 3 {
            for salt in 0..6 {
                let plane: Vec<f32> = (0..len)
                    .map(|_| match (salt, rng.gen_range(0..6)) {
                        (1 | 4 | 5, 0) => 0.0,
                        (1 | 4 | 5, 1) => -0.0,
                        (2, _) => [0.0, -0.0][rng.gen_range(0..2)],
                        (3, k) if k < 3 => 1.5,
                        (4, _) => rng.gen_range(0.5f32..4.0),
                        (5, _) => -rng.gen_range(0.5f32..4.0),
                        _ => rng.gen_range(-4.0f32..4.0),
                    })
                    .collect();
                planes.push(plane);
            }
        }
        planes
    }

    /// Every tier's int8 kernels write the scalar quantizer's bytes and
    /// parameter bits (`-0.0` against `0.0` included), and read back
    /// `lo + q · scale`.
    #[test]
    fn int8_kernels_match_the_scalar_quantizer_at_every_tier() {
        let mut rng = SmallRng::seed_from_u64(3);
        for plane in awkward_planes(&mut rng) {
            let (want, (lo, hi), scale) = int8_plane_by_scan(&plane);
            for tier in Tier::available() {
                if !plane.is_empty() {
                    let (got_lo, got_hi) = plane_range(tier, &plane);
                    let got = (got_lo.to_bits(), got_hi.to_bits());
                    assert_eq!(
                        got,
                        (lo.to_bits(), hi.to_bits()),
                        "{} {plane:?}",
                        tier.name()
                    );
                }
                let mut got = vec![0u8; plane.len()];
                if scale != 0.0 {
                    quantize_int8_plane(tier, &plane, lo, scale, &mut got);
                }
                assert_eq!(got, want, "{} bytes of {plane:?}", tier.name());
                let mut back = vec![0.0f32; plane.len()];
                dequantize_int8_plane(tier, &want, scale, lo, &mut back);
                for (b, &q) in back.iter().zip(&want) {
                    assert_eq!(b.to_bits(), (lo + f32::from(q) * scale).to_bits());
                }
            }
        }
    }

    /// `quantize` stores, plane by plane, what the scalar quantizer did.
    #[test]
    fn quantize_stores_the_scalar_quantizers_payload() {
        let mut rng = SmallRng::seed_from_u64(4);
        for (rows, cols) in [(1usize, 1usize), (3, 17), (8, 64), (5, 0)] {
            let mut b = random_block(rows, cols, 3.0, &mut rng);
            if cols > 2 {
                b.plane_mut(0)[1] = -0.0;
                b.plane_mut(rows - 1).fill(0.25);
            }
            let q = QuantizedColBlock::quantize(&b, QuantKind::Int8);
            let Payload::Int8 { data, params } = &q.payload else {
                unreachable!("int8 was asked for")
            };
            for r in 0..rows {
                let (want, (lo, _), scale) = int8_plane_by_scan(b.plane(r));
                assert_eq!(&data[r * cols..(r + 1) * cols], &want[..]);
                assert_eq!(params[r].0.to_bits(), scale.to_bits());
                assert_eq!(params[r].1.to_bits(), lo.to_bits());
            }
        }
    }

    #[test]
    fn f16_to_f32_matches_the_case_by_case_converter() {
        for h in 0..=u16::MAX {
            let (got, want) = (f16_to_f32(h), f16_to_f32_by_cases(h));
            assert_eq!(got.to_bits(), want.to_bits(), "{h:#06x}");
        }
        let halves: Vec<u16> = (0..=u16::MAX).collect();
        for tier in Tier::available() {
            let mut got = vec![0.0f32; halves.len()];
            dequantize_f16(tier, &halves, &mut got);
            for (&h, g) in halves.iter().zip(&got) {
                assert_eq!(
                    g.to_bits(),
                    f16_to_f32_by_cases(h).to_bits(),
                    "{}",
                    tier.name()
                );
            }
        }
    }

    /// Every one of the 2³² `f32` bit patterns converts as the
    /// case-by-case converter did, through the quantize kernel at every
    /// tier.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "exhaustive sweep; run with --release")]
    fn f32_to_f16_matches_the_case_by_case_converter_everywhere() {
        let tiers = Tier::available();
        let mut src = vec![0.0f32; 1 << 16];
        let mut got = vec![0u16; 1 << 16];
        for high in 0..=u16::MAX as u32 {
            for (low, x) in src.iter_mut().enumerate() {
                *x = f32::from_bits(high << 16 | low as u32);
            }
            let want: Vec<u16> = src.iter().map(|&x| f32_to_f16_by_cases(x)).collect();
            for &tier in &tiers {
                quantize_f16(tier, &src, &mut got);
                if got != want {
                    let at = (0..got.len()).find(|&i| got[i] != want[i]).unwrap();
                    panic!(
                        "{}: {:#010x} → {:#06x}, not {:#06x}",
                        tier.name(),
                        src[at].to_bits(),
                        got[at],
                        want[at]
                    );
                }
            }
        }
    }

    #[test]
    fn f16_matches_the_reference_converter_shape() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 65504.0, -65504.0] {
            assert_eq!(fp16_round_trip(v), v, "{v}");
        }
        assert_eq!(fp16_round_trip(f32::INFINITY), f32::INFINITY);
        assert!(fp16_round_trip(f32::NAN).is_nan());
        assert_eq!(fp16_round_trip(1e6), f32::INFINITY);
        assert_eq!(fp16_round_trip(1e-10), 0.0);
    }

    #[test]
    fn int8_roundtrip_stays_within_documented_bound() {
        let mut rng = SmallRng::seed_from_u64(17);
        for &(rows, cols, scale) in &[(4usize, 33usize, 1.0f32), (8, 7, 12.5), (3, 1, 0.01)] {
            let b = random_block(rows, cols, scale, &mut rng);
            let q = QuantizedColBlock::quantize(&b, QuantKind::Int8);
            let back = q.dequantize();
            for r in 0..rows {
                let bound = q.error_bound(r);
                for (x, y) in b.plane(r).iter().zip(back.plane(r)) {
                    assert!((x - y).abs() <= bound, "plane {r}: |{x} - {y}| > {bound}");
                }
            }
        }
    }

    #[test]
    fn constant_plane_quantizes_exactly() {
        let mut b = ColBlock::new(2);
        for _ in 0..9 {
            b.push_col(&[3.25, -1.5]);
        }
        let q = QuantizedColBlock::quantize(&b, QuantKind::Int8);
        let back = q.dequantize();
        assert_eq!(back.plane(0), b.plane(0));
        assert_eq!(back.plane(1), b.plane(1));
        assert_eq!(q.error_bound(0), 0.0);
    }

    #[test]
    fn f16_roundtrip_stays_within_documented_bound() {
        let mut rng = SmallRng::seed_from_u64(18);
        let b = random_block(6, 41, 8.0, &mut rng);
        let q = QuantizedColBlock::quantize(&b, QuantKind::F16);
        let back = q.dequantize();
        for r in 0..6 {
            let bound = q.error_bound(r);
            for (x, y) in b.plane(r).iter().zip(back.plane(r)) {
                assert!((x - y).abs() <= bound, "plane {r}: |{x} - {y}| > {bound}");
            }
        }
    }

    #[test]
    fn fused_kernels_bit_match_dequantize_then_attend() {
        let mut rng = SmallRng::seed_from_u64(42);
        for kind in [QuantKind::Int8, QuantKind::F16] {
            for &(rows, cols) in &[(8usize, 5usize), (8, 8), (16, 200), (6, 17), (4, 1)] {
                let b = random_block(rows, cols, 2.0, &mut rng);
                let q = QuantizedColBlock::quantize(&b, kind);
                let deq = q.dequantize();
                let view = SplitCols::new(None, &deq);
                for window in [1usize, cols / 2 + 1, cols] {
                    let s: Vec<f32> = (0..window).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let mut got = vec![0.1f32; rows];
                    let mut want = vec![0.1f32; rows];
                    q.rows_dot_acc(0, &s, &mut got);
                    view.rows_dot_acc(0, std::slice::from_ref(&(0..window)), &s, &mut want);
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.to_bits(), w.to_bits(), "{kind:?} rows_dot_acc mismatch");
                    }
                    let mut got = vec![0.2f32; window];
                    let mut want = vec![0.2f32; window];
                    q.axpy_plane(rows - 1, window, 0.37, &mut got);
                    view.axpy_plane(
                        rows - 1,
                        std::slice::from_ref(&(0..window)),
                        0.37,
                        &mut want,
                    );
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.to_bits(), w.to_bits(), "{kind:?} axpy_plane mismatch");
                    }
                }
            }
        }
    }

    #[test]
    fn resident_bytes_reflect_compression() {
        let mut rng = SmallRng::seed_from_u64(5);
        let b = random_block(16, 64, 1.0, &mut rng);
        let f32_bytes = 16 * 64 * 4;
        let i8 = QuantizedColBlock::quantize(&b, QuantKind::Int8);
        let f16 = QuantizedColBlock::quantize(&b, QuantKind::F16);
        assert_eq!(f16.resident_bytes(), f32_bytes / 2);
        assert!(
            i8.resident_bytes() < f32_bytes / 3,
            "{}",
            i8.resident_bytes()
        );
    }
}
