//! Fold networks: the group attention kernel's horizontal folds in the
//! AVX-512 clone, and the one place this crate writes SIMD intrinsics.
//!
//! [`halve`](crate::matrix::halve) folds one sixteen-lane accumulator —
//! `lane[l] += lane[l + w]` for `w` = 8, 4, 2, 1 — and the attention kernel
//! folds dozens of them per row (a head × plane pair each in P·V, a head each
//! for the running maximum and the softmax sum). One at a time, each is a
//! tree of extracts and four-lane adds on a sliver of a register. A network
//! folds sixteen at once: every level pairs two registers, brings the lanes
//! each row adds together into the same positions of two shuffled registers
//! and adds those, so fifteen vector additions and thirty shuffles turn
//! sixteen rows into one register of sixteen sums. Every addition is one
//! `halve` makes, on the same operands in the same order (the lower lane
//! first), so a network is `halve` sixteen times over, bit for bit; with
//! `max` in place of the addition it is the score kernel's fold of the
//! running maxima.
//!
//! Portable Rust cannot say this: every formulation tried (index-paired
//! arrays, constant shuffle tables, sixteen-lane arrays with a vector tail,
//! a fence between levels) either went back to LLVM's own extract tree or
//! became gathers and scatters (EXPERIMENTS.md, PR 25). So the networks are
//! intrinsics, reached only from the `WIDE` bodies `tiered!` compiles for
//! AVX-512; AVX2, NEON and the portable body keep `halve`.
//! `tests/intrinsics_in_one_place.rs` keeps every intrinsic in this file
//! (and run-time detection in `simd.rs`).
//!
//! Every function here is `#[target_feature(enable = "avx512f,avx2,fma")]`:
//! a call from outside such code is `unsafe`, and sound only on a CPU with
//! those features — which a `WIDE` body's caller holds a [`Tier`] for.
//!
//! [`Tier`]: crate::simd::Tier

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

use crate::matrix::LANES;

/// One level's combine of the lanes of the lower half (`lo`) with the
/// matching lanes of the upper half (`hi`): `lo + hi`, or for `MAX` the
/// score kernel's `max_skip_nan(lo, hi)` — `vmaxps` returns its second
/// operand on a tie (either zero) and when one is NaN, exactly as the
/// compare-select does.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
fn combine<const MAX: bool>(lo: __m512, hi: __m512) -> __m512 {
    if MAX {
        _mm512_max_ps(hi, lo)
    } else {
        _mm512_add_ps(lo, hi)
    }
}

/// Width 8: lanes `l` and `l + 8` of two rows (256-bit halves). The result
/// holds row `a`'s eight partial lanes in its low half and `b`'s in its high.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
fn width8<const MAX: bool>(a: __m512, b: __m512) -> __m512 {
    combine::<MAX>(
        _mm512_shuffle_f32x4::<0x44>(a, b),
        _mm512_shuffle_f32x4::<0xEE>(a, b),
    )
}

/// Width 4: lanes `l` and `l + 4` (128-bit quarters) of the four rows two
/// width-8 results hold, one row's four partial lanes per quarter.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
fn width4<const MAX: bool>(a: __m512, b: __m512) -> __m512 {
    combine::<MAX>(
        _mm512_shuffle_f32x4::<0x88>(a, b),
        _mm512_shuffle_f32x4::<0xDD>(a, b),
    )
}

/// Width 2: lanes `l` and `l + 2` of every quarter (64-bit pairs); each
/// quarter then holds two partial lanes of a row of `a` and two of `b`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
fn width2<const MAX: bool>(a: __m512, b: __m512) -> __m512 {
    let (a, b) = (_mm512_castps_pd(a), _mm512_castps_pd(b));
    combine::<MAX>(
        _mm512_castpd_ps(_mm512_unpacklo_pd(a, b)),
        _mm512_castpd_ps(_mm512_unpackhi_pd(a, b)),
    )
}

/// Width 1: lanes `0` and `1` of every pair.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
fn width1<const MAX: bool>(a: __m512, b: __m512) -> __m512 {
    combine::<MAX>(
        _mm512_shuffle_ps::<0x88>(a, b),
        _mm512_shuffle_ps::<0xDD>(a, b),
    )
}

/// Sixteen rows to one register whose lane `j` is row `j` folded. Width 8
/// pairs row `r` with `r + 4` and `r + 8` with `r + 12`, so that after
/// width 4 register `r` holds rows `r, r + 4, r + 8, r + 12` in its
/// quarters, and the last two levels interleave the four registers back
/// into row order.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
fn network<const MAX: bool>(rows: [__m512; LANES]) -> __m512 {
    let mut quads = [_mm512_setzero_ps(); 4];
    for (r, quad) in quads.iter_mut().enumerate() {
        *quad = width4::<MAX>(
            width8::<MAX>(rows[r], rows[r + 4]),
            width8::<MAX>(rows[r + 8], rows[r + 12]),
        );
    }
    width1::<MAX>(
        width2::<MAX>(quads[0], quads[1]),
        width2::<MAX>(quads[2], quads[3]),
    )
}

/// The `N ≤ 16` rows as network input; the rows past `N` are zeros whose
/// lanes are never read.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
fn load_rows<const N: usize>(rows: &[[f32; LANES]; N]) -> [__m512; LANES] {
    const { assert!(N <= LANES, "a network folds at most sixteen rows") };
    let mut regs = [_mm512_setzero_ps(); LANES];
    for (reg, row) in regs.iter_mut().zip(rows) {
        // SAFETY: `row` is sixteen floats.
        *reg = unsafe { _mm512_loadu_ps(row.as_ptr()) };
    }
    regs
}

/// `[halve(rows[0]), …, halve(rows[N − 1])]`, or for `MAX` each row's
/// maximum by the score kernel's halving tree of `max_skip_nan`, through
/// one network.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
pub(crate) fn fold_rows<const N: usize, const MAX: bool>(rows: &[[f32; LANES]; N]) -> [f32; N] {
    let mut folded = [0.0f32; LANES];
    // SAFETY: `folded` is sixteen floats.
    unsafe { _mm512_storeu_ps(folded.as_mut_ptr(), network::<MAX>(load_rows(rows))) };
    let mut out = [0.0f32; N];
    out.copy_from_slice(&folded[..N]);
    out
}

/// Eight planes of each tail column, `[column][plane]`: column `t`'s plane
/// `p` is `starts[t].0[p · starts[t].1]` (a key's first plane in its block
/// and everything after it, and the block's plane stride). One gather and
/// one whole store per column: a column written float by float is read back
/// by one load the store buffer cannot forward to, a stall per column.
///
/// # Panics
///
/// If a gathered element is outside its `starts` slice, or there are
/// sixteen columns or more.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
pub(crate) fn gather_columns(starts: &[(&[f32], usize)]) -> [[f32; 8]; LANES] {
    assert!(starts.len() < LANES);
    let mut columns = [[0.0f32; 8]; LANES];
    let plane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    for (column, &(start, stride)) in columns.iter_mut().zip(starts) {
        assert!(7 * stride < start.len() && stride <= i32::MAX as usize / 8);
        let at = _mm256_mullo_epi32(plane, _mm256_set1_epi32(stride as i32));
        // SAFETY: the gather reads `start[p · stride]`, `p < 8`, in bounds by
        // the assert; the store is eight floats.
        unsafe {
            let gathered = _mm256_i32gather_ps::<4>(start.as_ptr(), at);
            _mm256_storeu_ps(column.as_mut_ptr(), gathered);
        }
    }
    columns
}

/// The first three levels of one pass's half of a head pair's P·V network
/// (see [`values_fold`]): `rows[k][q]` is head `k`'s accumulator for the
/// pass's plane `q`, the pass's planes being every other one of eight
/// (`2q + g` for pass `g`). Quarter `2k + m` of the result holds the
/// two-lane partials of head `k`'s planes `4m + g` and `4m + g + 2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
pub(crate) fn pair_pass(rows: [&[[f32; LANES]; 4]; 2]) -> [f32; LANES] {
    let [a, b] = [load_rows(rows[0]), load_rows(rows[1])];
    // Planes 2q + g for q = 0 and 2 (4m + g), then q = 1 and 3 (4m + g + 2).
    let even = width4::<false>(width8::<false>(a[0], a[2]), width8::<false>(b[0], b[2]));
    let odd = width4::<false>(width8::<false>(a[1], a[3]), width8::<false>(b[1], b[3]));
    let mut half = [0.0f32; LANES];
    // SAFETY: sixteen floats.
    unsafe { _mm512_storeu_ps(half.as_mut_ptr(), width2::<false>(even, odd)) };
    half
}

/// The end of the group kernel's P·V in the AVX-512 clone for one network:
/// two chunks of eight consecutive planes — the same planes of two heads, or
/// of one head and nothing. `halves` are the two passes' [`pair_pass`]es;
/// the last level joins them, so that lane `8k + p` holds chunk `k`'s plane
/// `p` folded (an in-lane permute puts the planes of the two passes back in
/// order), in the order of its slice `out[k]`. Then, in those lanes, the
/// steps `runs_dot` takes one sum at a time: for each tail column `t`
/// ascending, `sum = fma(weights[k][t], columns[t][p], sum)`, and `out =
/// fma(sum, factor[k], out)`. `halves` is `None` for a row with no whole
/// chunk: its lanes would be all `+0.0`, which fold to `+0.0`, so the sums
/// start there.
///
/// # Panics
///
/// If a chunk has more than eight planes or a weight row is not one weight
/// per tail column.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
pub(crate) fn values_fold(
    halves: Option<&[[f32; LANES]; 2]>,
    columns: &[[f32; 8]],
    weights: [&[f32]; 2],
    factor: [f32; 2],
    out: [&mut [f32]; 2],
) {
    assert!(out[0].len() <= 8 && out[1].len() <= 8);
    assert!(weights[0].len() == columns.len() && weights[1].len() == columns.len());
    let mut sums = _mm512_setzero_ps();
    if let Some([even, odd]) = halves {
        // SAFETY: sixteen floats each.
        let (even, odd) = unsafe {
            (
                _mm512_loadu_ps(even.as_ptr()),
                _mm512_loadu_ps(odd.as_ptr()),
            )
        };
        // Quarter 2k + m is planes 4m + [0, 2, 1, 3] of head k.
        sums = _mm512_permute_ps::<0b11_01_10_00>(width1::<false>(even, odd));
    }
    const HIGH: __mmask16 = 0xFF00;
    for (t, column) in columns.iter().enumerate() {
        // SAFETY: eight floats.
        let column = unsafe { _mm256_loadu_pd(column.as_ptr().cast()) };
        let column = _mm512_castpd_ps(_mm512_broadcast_f64x4(column));
        let (low, high) = (weights[0][t], weights[1][t]);
        let w = _mm512_mask_blend_ps(HIGH, _mm512_set1_ps(low), _mm512_set1_ps(high));
        sums = _mm512_fmadd_ps(w, column, sums);
    }
    let live = |chunk: &[f32]| ((1u32 << chunk.len()) - 1) as __mmask16;
    let (low, high) = (live(out[0]), live(out[1]));
    // SAFETY: each mask covers its chunk's floats.
    let prev = unsafe {
        _mm512_shuffle_f32x4::<0x44>(
            _mm512_maskz_loadu_ps(low, out[0].as_ptr()),
            _mm512_maskz_loadu_ps(high, out[1].as_ptr()),
        )
    };
    let factor = _mm512_mask_blend_ps(HIGH, _mm512_set1_ps(factor[0]), _mm512_set1_ps(factor[1]));
    let next = _mm512_fmadd_ps(sums, factor, prev);
    // SAFETY: as for the loads.
    unsafe {
        _mm512_mask_storeu_ps(out[0].as_mut_ptr(), low, next);
        _mm512_mask_storeu_ps(
            out[1].as_mut_ptr(),
            high,
            _mm512_shuffle_f32x4::<0xEE>(next, next),
        );
    }
}
