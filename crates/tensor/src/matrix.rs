//! A row-major `f32` matrix and the GEMM microkernel.

use crate::simd::{tiered, Tier};
use rand::Rng;
use std::ops::{Deref, DerefMut};

/// `f32` storage whose first element sits on a 64-byte boundary, so a
/// matrix whose row length is a multiple of 16 has every row on a cache
/// line and the GEMM microkernel's 64-byte loads of the right operand never
/// straddle two (a straddling load costs two cache accesses; measured, the
/// kernel runs a quarter slower over `malloc`'s 16-byte alignment).
struct AlignedBuf {
    /// `len + PAD` floats, or more after shrinking.
    raw: Vec<f32>,
    /// Offset of the first aligned element in `raw`.
    off: usize,
    len: usize,
}

impl AlignedBuf {
    /// Floats of slack that let any `Vec<f32>` reach a 64-byte boundary.
    const PAD: usize = 15;

    fn zeros(len: usize) -> Self {
        let raw = vec![0.0; len + Self::PAD];
        // `align_offset` may decline (it returns `usize::MAX`); unaligned
        // storage is slower, never wrong.
        let off = match raw.as_ptr().align_offset(64) {
            off if off <= Self::PAD => off,
            _ => 0,
        };
        AlignedBuf { raw, off, len }
    }

    fn from_slice(xs: &[f32]) -> Self {
        let mut buf = Self::zeros(xs.len());
        buf.copy_from_slice(xs);
        buf
    }

    /// Sets the length to `len`, keeping the allocation when it is large
    /// enough. The contents are unspecified (stale or zero).
    fn resize_for_overwrite(&mut self, len: usize) {
        if self.off + len <= self.raw.len() {
            self.len = len;
        } else {
            *self = Self::zeros(len);
        }
    }
}

impl Deref for AlignedBuf {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        &self.raw[self.off..self.off + self.len]
    }
}

impl DerefMut for AlignedBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.raw[self.off..self.off + self.len]
    }
}

/// A dense row-major matrix of `f32` values.
///
/// ```
/// use bat_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
/// assert_eq!(m.get(1, 1), 1.0);
/// ```
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: AlignedBuf,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: AlignedBuf::from_slice(&self.data),
        }
    }
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && *self.data == *other.data
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Matrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("data", &&*self.data)
            .finish()
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: AlignedBuf::zeros(rows * cols),
        }
    }

    /// Creates an `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let c = rows.first().map_or(0, |row| row.len());
        let mut m = Self::zeros(rows.len(), c);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged rows in Matrix::from_rows");
            m.row_mut(r).copy_from_slice(row);
        }
        m
    }

    /// Creates a matrix with entries drawn i.i.d. from
    /// `Uniform(-scale, scale)`; used for seeded weight initialization.
    pub fn random<R: Rng>(rows: usize, cols: usize, scale: f32, rng: &mut R) -> Self {
        let mut m = Self::zeros(rows, cols);
        for x in m.data.iter_mut() {
            *x = rng.gen_range(-scale..scale);
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying row-major buffer, mutably: what a stage that carries
    /// row blocks through several matrices cuts into bands.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes to `rows × cols`, keeping the backing allocation when it is
    /// large enough, for a caller that writes every entry: the contents are
    /// unspecified. The workspace primitive: a scratch matrix reshaped each
    /// request stops allocating once it has seen its steady-state shape.
    pub fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize_for_overwrite(rows * cols);
    }

    /// Matrix product `self × rhs`, on the calling thread.
    ///
    /// The workhorse kernel of the batched forward pass: a register-blocked
    /// GEMM (see [`gemm_body`]). Every output element is one chain of fused
    /// multiply-adds, `acc = fma(a[r][k], b[k][c], acc)` from `0.0` in
    /// ascending `k`. The result is therefore bit-identical for any SIMD
    /// tier and any position of a row among the rows multiplied — so a
    /// caller that cuts a product into row blocks ([`matmul_rows`]) gets
    /// these bits at any thread count — and within
    /// `k · 2⁻²⁴ · Σ_k |a[r][k] · b[k][c]|` of the exact product (each
    /// fused step rounds once; a test checks the bound against an `f64`
    /// accumulation).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul`] writing into a caller-owned output matrix, which
    /// is resized (capacity kept). Same kernel, same bits.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reshape_for_overwrite(self.rows, rhs.cols);
        matmul_rows(&self.data, self.cols, rhs, &mut out.data);
    }

    /// Sparse-aware `vec × self`: skips rows whose coefficient is exactly
    /// zero. Use only where the input is provably sparse (e.g. activations
    /// after an exact-zero gate); on dense data the per-element branch makes
    /// this strictly slower than a one-row [`Matrix::matmul`]. Semantics match the
    /// seed kernel: a zero coefficient contributes nothing, so `-0.0`
    /// accumulator states are preserved rather than flushed to `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `vec.len() != self.rows()`.
    pub fn vecmul_sparse(&self, vec: &[f32]) -> Vec<f32> {
        assert_eq!(vec.len(), self.rows, "vecmul shape mismatch");
        let mut out = vec![0.0; self.cols];
        for (k, &a) in vec.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in out.iter_mut().zip(self.row(k)) {
                *o += a * b;
            }
        }
        out
    }

    /// True if every entry is exactly `0.0` (or `-0.0`). Used to detect
    /// structurally-zero weight matrices (e.g. the routed preset's FFN) so
    /// whole projections can be skipped.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&x| x == 0.0)
    }

    /// Maximum absolute difference from `other`; `None` if shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Option<f32> {
        if self.rows != other.rows || self.cols != other.cols {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max),
        )
    }
}

/// Whether a stage of `work` multiply-adds is farmed out to the pool: the
/// one gate every row stage of a forward (`bat-model`'s `run_rows`) goes
/// through. A pure function of the shapes, never the thread count, and
/// every stage it gates computes rows independently, so it moves speed
/// only. Public so that a test comparing thread counts can assert its
/// shapes reach the pool at all: below the threshold every width runs the
/// same inline code and the comparison says nothing.
///
/// The threshold is the two measured numbers it trades off, multiplied. A
/// dispatch at two threads costs ≈ 4 µs while the pool's workers are still
/// polling for work and ≈ 10 µs once they have parked (`pool_dispatch` in
/// `BENCH_KERNELS.json` is the median of back-to-back dispatches); the GEMM
/// runs ≈ 55 G multiply-adds/s on one core (the `gemm_*` rows: 100–130
/// GFLOP/s); and splitting a stage over two threads saves half its serial
/// time. A stage therefore breaks even between 2 × 4 µs × 55 G/s = 0.45 M
/// and 2 × 10 µs × 55 G/s = 1.1 M multiply-adds — *if its operands are
/// where it runs*. They were not, for a product dispatched on its own: the
/// 132 × 96 × 96 Q and output products (1.2 M, 17 µs) cleared the
/// threshold and cost 120 and 84 µs per forward at two threads against 81
/// and 79 at one, because each read rows the other core had just written.
/// So no product is dispatched alone: what a forward hands the pool is a
/// layer's whole row stage (15 M multiply-adds, ≈ 600 µs at the ranking
/// shape), whose blocks own their rows from the query projection to the
/// next layer's keys and values, and layer 0's K|V rows (a long cold
/// prompt's clear the threshold). All of this is from runs in which the
/// worker took its share of the blocks; a `batctl bench` run whose
/// `pool_dispatch` reads under 1 µs is one in which it took none
/// (EXPERIMENTS.md, PR 17, has the two states), and its two-thread rows say
/// nothing about the threshold.
#[inline]
pub fn stage_is_pooled(work: usize) -> bool {
    const PAR_MACS: usize = 1 << 20;
    work >= PAR_MACS
}

/// Rows per register tile of the GEMM microkernel: a stage that cuts a
/// matrix into row blocks of its own cuts on multiples of this, so that only
/// the matrix's last rows meet the single-row tile.
pub const TILE_ROWS: usize = 4;

/// `out = a × rhs` for the `out.len() / rhs.cols()` rows held in `a`
/// (row-major with stride `lda`, of which the leading `rhs.rows()` columns
/// are read), on the calling thread: [`Matrix::matmul`]'s kernel for a
/// caller that owns a block of rows and parallelises across blocks itself.
/// A row has the bits it has in any other product.
///
/// # Panics
///
/// Panics if `out` is not whole rows, `lda < rhs.rows()`, or `a` is shorter
/// than the rows read.
pub fn matmul_rows(a: &[f32], lda: usize, rhs: &Matrix, out: &mut [f32]) {
    let (k, m) = (rhs.rows, rhs.cols);
    if m == 0 || out.is_empty() {
        return;
    }
    let n = out.len() / m;
    assert!(
        out.len() == n * m && lda >= k && a.len() >= (n - 1) * lda + k,
        "matmul_rows shape mismatch: {} floats at stride {lda} × {k}x{m} into {}",
        a.len(),
        out.len()
    );
    gemm(Tier::best(), a, lda, rhs, out);
}

tiered! {
    /// `out = a × rhs` for the `out.len() / rhs.cols` rows of `a` (row-major
    /// with stride `lda`, of which the first `rhs.rows` columns are read):
    /// [`gemm_body`] over a 4 × 64 tile on AVX-512 and a 4 × 16 tile
    /// elsewhere.
    fn gemm(a: &[f32], lda: usize, rhs: &Matrix, out: &mut [f32]) = gemm_wide, gemm_narrow
}

/// Sixteen 16-lane accumulators of AVX-512's thirty-two registers.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[inline(always)]
fn gemm_wide(a: &[f32], lda: usize, rhs: &Matrix, out: &mut [f32]) {
    gemm_body::<64, 32, 16>(a, lda, rhs, out)
}

/// Eight 8-lane accumulators of AVX2's sixteen registers (sixteen 4-lane
/// ones of NEON's thirty-two).
#[inline(always)]
fn gemm_narrow(a: &[f32], lda: usize, rhs: &Matrix, out: &mut [f32]) {
    gemm_body::<16, 8, 4>(a, lda, rhs, out)
}

/// The register-blocked GEMM: the output is cut into tiles of
/// [`TILE_ROWS`] rows × `W0` columns (then one column tile each of `W1` and
/// `W2`, then single columns; leftover rows one at a time), and a tile's
/// accumulators stay in registers for the whole `k` loop — each step loads
/// one `rhs` row segment and one scalar per tile row, and issues one fused
/// multiply-add per accumulator; the tile is stored once at the end.
/// Column tiles are the outer loop, so the `rhs` panel a tile column reads
/// (`k × W0` floats) stays in cache across the row tiles.
///
/// Every output element is the chain `acc = fma(a[r][k], b[k][c], acc)` from
/// `0.0` in ascending `k` whatever tile it falls in, so the tile shape — a
/// per-tier choice — and a row's position among the rows move speed only.
#[inline(always)]
fn gemm_body<const W0: usize, const W1: usize, const W2: usize>(
    a: &[f32],
    lda: usize,
    rhs: &Matrix,
    out: &mut [f32],
) {
    let m = rhs.cols;
    let mut c0 = 0;
    while c0 + W0 <= m {
        gemm_tile_column::<W0>(a, lda, rhs, c0, out);
        c0 += W0;
    }
    if c0 + W1 <= m {
        gemm_tile_column::<W1>(a, lda, rhs, c0, out);
        c0 += W1;
    }
    if c0 + W2 <= m {
        gemm_tile_column::<W2>(a, lda, rhs, c0, out);
        c0 += W2;
    }
    while c0 < m {
        gemm_tile_column::<1>(a, lda, rhs, c0, out);
        c0 += 1;
    }
}

/// Columns `c0..c0 + W` of every output row.
#[inline(always)]
fn gemm_tile_column<const W: usize>(
    a: &[f32],
    lda: usize,
    rhs: &Matrix,
    c0: usize,
    out: &mut [f32],
) {
    let m = rhs.cols;
    let n = out.len() / m;
    let mut r = 0;
    while r + TILE_ROWS <= n {
        gemm_tile::<TILE_ROWS, W>(&a[r * lda..], lda, rhs, c0, &mut out[r * m..]);
        r += TILE_ROWS;
    }
    while r < n {
        gemm_tile::<1, W>(&a[r * lda..], lda, rhs, c0, &mut out[r * m..]);
        r += 1;
    }
}

/// One `R × W` register tile: rows `0..R` of `a` (stride `lda`) against
/// columns `c0..c0 + W` of `rhs`, into rows `0..R` of `out` (stride
/// `rhs.cols`).
#[inline(always)]
fn gemm_tile<const R: usize, const W: usize>(
    a: &[f32],
    lda: usize,
    rhs: &Matrix,
    c0: usize,
    out: &mut [f32],
) {
    let (k, m) = (rhs.rows, rhs.cols);
    let b: &[f32] = &rhs.data;
    let mut rows: [&[f32]; R] = [&[]; R];
    for (r, row) in rows.iter_mut().enumerate() {
        *row = &a[r * lda..][..k];
    }
    let mut acc = [[0.0f32; W]; R];
    for kk in 0..k {
        // By value: the segment is loaded once per step and shared by the
        // tile's rows (through a reference the compiler re-reads it from
        // memory in every multiply-add, and the loads become the limit).
        let b_seg: [f32; W] = b[kk * m + c0..][..W].try_into().expect("a W-long slice");
        for r in 0..R {
            let a_rk = rows[r][kk];
            for c in 0..W {
                acc[r][c] = a_rk.mul_add(b_seg[c], acc[r][c]);
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        out[r * m + c0..][..W].copy_from_slice(acc);
    }
}

/// Lane count of the dot kernels: sixteen independent f32 accumulator
/// lanes — one AVX-512 register, two AVX2 ones, four NEON ones. Each lane
/// is its own chain of fused multiply-adds, so the compiler vectorizes the
/// loop without reassociating any sum.
pub(crate) const LANES: usize = 16;

/// Fixed-order horizontal reduction of the lane accumulators — a halving
/// tree, `lane[l] += lane[l + width]` for widths 8, 4, 2, 1 — then the
/// ascending tail, `sum = fma(a, b, sum)`: a pure function of the length,
/// so every dot kernel below is deterministic regardless of where it runs.
#[inline(always)]
pub(crate) fn fold_lanes(acc: [f32; LANES], a_tail: &[f32], b_tail: &[f32]) -> f32 {
    fold_tail(halve(acc), a_tail, b_tail)
}

/// The halving tree of [`fold_lanes`] on its own (the softmax sums its
/// weights through it).
#[inline(always)]
pub(crate) fn halve(mut acc: [f32; LANES]) -> f32 {
    let mut width = LANES / 2;
    while width > 0 {
        for l in 0..width {
            acc[l] += acc[l + width];
        }
        width /= 2;
    }
    acc[0]
}

/// [`halve`] of each row — through one fold network (`fold.rs`) in a body
/// compiled for AVX-512 (`WIDE`), which only `tiered!`'s AVX-512 clone is.
#[inline(always)]
pub(crate) fn halve_rows<const H: usize, const WIDE: bool>(rows: &[[f32; LANES]; H]) -> [f32; H] {
    #[cfg(target_arch = "x86_64")]
    if WIDE {
        // SAFETY: a `WIDE` body runs only where AVX-512F was detected.
        return unsafe { crate::fold::fold_rows::<H, false>(rows) };
    }
    let mut sums = [0.0f32; H];
    for (sum, row) in sums.iter_mut().zip(rows) {
        *sum = halve(*row);
    }
    sums
}

#[inline(always)]
fn fold_tail(mut sum: f32, a_tail: &[f32], b_tail: &[f32]) -> f32 {
    for (x, y) in a_tail.iter().zip(b_tail) {
        sum = x.mul_add(*y, sum);
    }
    sum
}

/// [`halve`] behind a call, for a kernel whose accumulators are a single
/// loop-carried array (the dot below): inlined, the vectorizer works
/// backwards from the tree and regroups the accumulators into eight 2-lane
/// vectors; behind a call they stay one sixteen-lane vector and the loop
/// adds chunks to it as loaded. Additions only, so it needs no SIMD tier of
/// its own to round the same.
#[inline(never)]
fn halve_out_of_line(acc: &[f32; LANES]) -> f32 {
    halve(*acc)
}

tiered! {
    /// Lane-accumulated dot product (vectorizable, deterministic): lane
    /// `i % LANES` takes `acc = fma(a[i], b[i], acc)` over the whole
    /// [`LANES`]-chunks, then [`fold_lanes`]. Exposed to `bat-model` (as
    /// `ops::dot_fast`) where the strict serial chain of [`crate::ops::dot`]
    /// cannot vectorize.
    pub(crate) fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 = dot_unrolled_body
}

#[inline(always)]
pub(crate) fn dot_unrolled_body(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (pa, pb) in (&mut ca).zip(&mut cb) {
        let pa: &[f32; LANES] = pa.try_into().unwrap();
        let pb: &[f32; LANES] = pb.try_into().unwrap();
        for l in 0..LANES {
            acc[l] = pa[l].mul_add(pb[l], acc[l]);
        }
    }
    fold_tail(halve_out_of_line(&acc), ca.remainder(), cb.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn transpose(m: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(m.cols(), m.rows());
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                out.set(c, r, m.get(r, c));
            }
        }
        out
    }

    #[test]
    fn storage_is_cache_line_aligned_and_survives_reshapes() {
        let mut m = Matrix::zeros(3, 5);
        assert_eq!(m.as_slice().as_ptr() as usize % 64, 0);
        m.reshape_for_overwrite(40, 40);
        assert_eq!(m.as_slice().as_ptr() as usize % 64, 0);
        assert_eq!(m.as_slice().len(), 1600);
        m.set(39, 39, 1.0);
        m.reshape_for_overwrite(2, 2);
        assert_eq!((m.rows(), m.cols(), m.as_slice().len()), (2, 2, 4));
        let c = m.clone();
        assert_eq!(c.as_slice().as_ptr() as usize % 64, 0);
        assert_eq!(c, m);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn empty_inner_dimension_gives_zeros() {
        let mut out = Matrix::from_rows(&[&[7.0, 7.0], &[7.0, 7.0]]);
        Matrix::zeros(2, 0).matmul_into(&Matrix::zeros(0, 2), &mut out);
        assert_eq!(out, Matrix::zeros(2, 2));
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = SmallRng::seed_from_u64(2);
        let a = Matrix::random(4, 7, 1.0, &mut rng);
        assert_eq!(transpose(&transpose(&a)), a);
    }

    #[test]
    fn max_abs_diff_detects_shape_mismatch() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(a.max_abs_diff(&b).is_none());
        assert_eq!(a.max_abs_diff(&a), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// Every SIMD tier this CPU has runs the same arithmetic as the
    /// portable body — each a different register tile of the same
    /// per-element chain of fused multiply-adds (the dispatchers only ever
    /// pick the widest tier, so the others need this pin of their own).
    /// Shapes leave every kind of ragged tile: 61 columns = 32 + 16 + 13
    /// singles on AVX-512, 29 rows = 7 tiles + 1.
    #[test]
    fn every_tier_is_bit_identical_to_baseline() {
        let mut rng = SmallRng::seed_from_u64(41);
        let a = Matrix::random(29, 37, 1.0, &mut rng);
        let w = Matrix::random(37, 61, 1.0, &mut rng);
        let wide = Matrix::random(37, 150, 1.0, &mut rng);
        let x: Vec<f32> = (0..77).map(|i| (i as f32 * 0.19).cos()).collect();
        let y: Vec<f32> = (0..77).map(|i| (i as f32 * 0.43).sin()).collect();
        let run = |tier: Tier| {
            let mut out = vec![f32::NAN; 29 * 61];
            gemm(tier, a.as_slice(), 37, &w, &mut out);
            let mut out_wide = vec![f32::NAN; 29 * 150];
            gemm(tier, a.as_slice(), 37, &wide, &mut out_wide);
            out.extend(out_wide);
            out.push(dot_unrolled(tier, &x, &y));
            bits(&out)
        };
        let gold = run(Tier::SCALAR);
        for tier in Tier::available() {
            assert_eq!(run(tier), gold, "{}", tier.name());
        }
    }

    #[test]
    fn is_zero_detects_structural_zeros() {
        assert!(Matrix::zeros(3, 4).is_zero());
        let mut m = Matrix::zeros(3, 4);
        m.set(2, 1, 1e-30);
        assert!(!m.is_zero());
    }

    proptest! {
        /// The product against an `f64` accumulation of the same operands:
        /// every fused step rounds its running sum once, so an element is
        /// within `k · 2⁻²⁴ · Σ|aᵢ·bᵢ|` of exact — the bound
        /// [`Matrix::matmul`] documents.
        #[test]
        fn matmul_matches_naive(seed in 0u64..500, n in 1usize..9, k in 1usize..40, m in 1usize..9) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let a = Matrix::random(n, k, 1.0, &mut rng);
            let b = Matrix::random(k, m, 1.0, &mut rng);
            let got = a.matmul(&b);
            for r in 0..n {
                for c in 0..m {
                    let terms = (0..k).map(|i| f64::from(a.get(r, i)) * f64::from(b.get(i, c)));
                    let exact: f64 = terms.clone().sum();
                    let abs_sum: f64 = terms.map(f64::abs).sum();
                    let bound = k as f64 * 2f64.powi(-24) * abs_sum;
                    prop_assert!(
                        (f64::from(got.get(r, c)) - exact).abs() <= bound,
                        "[{}][{}]: {} vs {} (bound {})", r, c, got.get(r, c), exact, bound
                    );
                }
            }
        }

        /// Row `r` of `A·B` has the same bits computed alone (`1 × k`) and
        /// inside any block of consecutive rows — which is all a pool task
        /// ever computes: its place among the tiles cannot matter.
        #[test]
        fn a_row_has_the_same_bits_wherever_it_is_computed(
            seed in 0u64..u64::MAX,
            n in 1usize..41,
            k in 1usize..41,
            m in 1usize..41,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let a = Matrix::random(n, k, 1.0, &mut rng);
            let b = Matrix::random(k, m, 1.0, &mut rng);
            let whole = a.matmul(&b);
            for r in 0..n {
                let alone = Matrix::from_rows(&[a.row(r)]).matmul(&b);
                prop_assert_eq!(bits(alone.as_slice()), bits(whole.row(r)), "row {} alone", r);
            }
            for _ in 0..4 {
                let first = rng.gen_range(0..n);
                let rows = rng.gen_range(1..n - first + 1);
                let block: Vec<&[f32]> = (first..first + rows).map(|r| a.row(r)).collect();
                let got = Matrix::from_rows(&block).matmul(&b);
                prop_assert_eq!(
                    bits(got.as_slice()),
                    bits(&whole.as_slice()[first * m..(first + rows) * m]),
                    "rows {}..{}", first, first + rows
                );
            }
        }

        /// Dense and sparse-aware vecmul agree, including with exact zeros
        /// injected into the input vector.
        #[test]
        fn vecmul_dense_matches_sparse(
            seed in 0u64..500,
            rows in 1usize..12,
            cols in 1usize..12,
            zero_stride in 2usize..5,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let w = Matrix::random(rows, cols, 1.0, &mut rng);
            let v: Vec<f32> = (0..rows)
                .map(|i| if i % zero_stride == 0 { 0.0 } else { (i as f32).sin() })
                .collect();
            let dense = Matrix::from_rows(&[&v]).matmul(&w);
            let sparse = w.vecmul_sparse(&v);
            for (d, s) in dense.as_slice().iter().zip(&sparse) {
                prop_assert!((d - s).abs() < 1e-6);
            }
        }

        /// (A·B)ᵀ = Bᵀ·Aᵀ for random matrices.
        #[test]
        fn transpose_of_product(seed in 0u64..1000, n in 1usize..6, m in 1usize..6, k in 1usize..6) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let a = Matrix::random(n, m, 1.0, &mut rng);
            let b = Matrix::random(m, k, 1.0, &mut rng);
            let lhs = transpose(&a.matmul(&b));
            let rhs = transpose(&b).matmul(&transpose(&a));
            prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-4);
        }

        /// Matmul distributes over identity padding: A·I = I·A = A.
        #[test]
        fn identity_both_sides(seed in 0u64..1000, n in 1usize..8) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let a = Matrix::random(n, n, 1.0, &mut rng);
            let i = Matrix::identity(n);
            prop_assert!(a.matmul(&i).max_abs_diff(&a).unwrap() < 1e-6);
            prop_assert!(i.matmul(&a).max_abs_diff(&a).unwrap() < 1e-6);
        }

        /// Whatever SIMD tier the host dispatches to, dot results are
        /// bit-identical to the portable body for arbitrary inputs and
        /// lengths (including lane remainders).
        #[test]
        fn dot_dispatch_is_bit_identical_for_any_input(
            xs in proptest::collection::vec(-1e3f32..1e3, 1..200),
        ) {
            let ys: Vec<f32> = xs.iter().rev().map(|x| x * 0.5 + 1.0).collect();
            prop_assert_eq!(
                dot_unrolled(Tier::best(), &xs, &ys).to_bits(),
                dot_unrolled(Tier::SCALAR, &xs, &ys).to_bits()
            );
        }
    }
}
