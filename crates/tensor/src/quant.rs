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
//! exact `LANES`-chunk grouping — each chunk is dequantized into a stack
//! temporary, accumulated with the same per-lane fused multiply-adds, folded
//! with the same fixed tree, and finished with the same ascending scalar
//! tail. A cold hit therefore attends
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
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf / NaN.
        let payload = if mant != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | payload;
    }
    // Re-bias exponent: f32 bias 127 → f16 bias 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow → inf
    }
    if unbiased >= -14 {
        // Normal range: keep 10 mantissa bits with round-to-nearest-even.
        let half_exp = ((unbiased + 15) as u16) << 10;
        let shifted = mant >> 13;
        let round_bit = (mant >> 12) & 1;
        let sticky = (mant & 0x0fff) != 0;
        let mut out = sign | half_exp | shifted as u16;
        if round_bit == 1 && (sticky || (shifted & 1) == 1) {
            out = out.wrapping_add(1); // may carry into the exponent: fine
        }
        return out;
    }
    if unbiased >= -24 {
        // Subnormal half: shift the implicit leading 1 into the mantissa.
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
    sign // underflow → ±0
}

/// fp16 bits → `f32`.
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h as u32) & 0x8000) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x03ff) as u32;
    let bits = match (exp, mant) {
        (0, 0) => sign,
        (0, m) => {
            // Subnormal: normalize.
            let lead = m.leading_zeros() - 22; // zeros within the 10-bit field
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
        let payload = match kind {
            QuantKind::Int8 => {
                let mut data = vec![0u8; rows * len];
                let mut params = Vec::with_capacity(rows);
                for r in 0..rows {
                    let plane = block.plane(r);
                    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
                    for &x in plane {
                        debug_assert!(x.is_finite(), "int8 quantization needs finite inputs");
                        lo = lo.min(x);
                        hi = hi.max(x);
                    }
                    if plane.is_empty() {
                        (lo, hi) = (0.0, 0.0);
                    }
                    // A constant plane quantizes exactly: scale 0 makes
                    // every dequantized element `lo`.
                    let scale = if hi > lo { (hi - lo) / 255.0 } else { 0.0 };
                    params.push((scale, lo));
                    let dst = &mut data[r * len..(r + 1) * len];
                    for (slot, &x) in dst.iter_mut().zip(plane) {
                        *slot = if scale == 0.0 {
                            0
                        } else {
                            ((x - lo) / scale).round().clamp(0.0, 255.0) as u8
                        };
                    }
                }
                Payload::Int8 { data, params }
            }
            QuantKind::F16 => {
                let mut data = vec![0u16; rows * len];
                for r in 0..rows {
                    let dst = &mut data[r * len..(r + 1) * len];
                    for (slot, &x) in dst.iter_mut().zip(block.plane(r)) {
                        *slot = f32_to_f16(x);
                    }
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
        let mut flat = vec![0.0f32; self.rows * self.len];
        for r in 0..self.rows {
            let dst = &mut flat[r * self.len..(r + 1) * self.len];
            for (j, slot) in dst.iter_mut().enumerate() {
                *slot = self.at(r, j);
            }
        }
        ColBlock::from_planes(self.rows, self.len, &flat)
    }

    /// Dequantizes the `LANES`-chunk of plane `r` starting at column `i`
    /// into a stack temporary.
    #[inline(always)]
    fn dequant_chunk(&self, r: usize, i: usize, out: &mut [f32; LANES]) {
        match &self.payload {
            Payload::Int8 { data, params } => {
                let (scale, lo) = params[r];
                let src = &data[r * self.len + i..r * self.len + i + LANES];
                for (slot, &q) in out.iter_mut().zip(src) {
                    *slot = lo + f32::from(q) * scale;
                }
            }
            Payload::F16 { data } => {
                let src = &data[r * self.len + i..r * self.len + i + LANES];
                for (slot, &h) in out.iter_mut().zip(src) {
                    *slot = f16_to_f32(h);
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
        let mut buf = [[0.0f32; LANES]; 4];
        for i in (0..main).step_by(LANES) {
            let ps: [f32; LANES] = s[i..i + LANES].try_into().unwrap();
            for k in 0..quad.len() {
                q.dequant_chunk(r0 + k, i, &mut buf[k]);
                for l in 0..LANES {
                    acc[k][l] = ps[l].mul_add(buf[k][l], acc[k][l]);
                }
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
