//! A row-major `f32` matrix.

use rand::Rng;

/// A dense row-major matrix of `f32` values.
///
/// ```
/// use bat_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
/// assert_eq!(m.get(1, 1), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
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
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix with entries drawn i.i.d. from
    /// `Uniform(-scale, scale)`; used for seeded weight initialization.
    pub fn random<R: Rng>(rows: usize, cols: usize, scale: f32, rng: &mut R) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        Matrix { rows, cols, data }
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

    /// Reshapes to `rows × cols` and zeroes every entry, keeping the
    /// backing allocation when it is large enough. The workspace primitive:
    /// a scratch matrix `reset` each layer/request stops allocating once it
    /// has seen its steady-state shape.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Matrix product `self × rhs`.
    ///
    /// This is the workhorse kernel of the batched forward pass. It is an
    /// *axpy-form* product: for each output row the `k` loop walks rows of
    /// `rhs` (both operands stream contiguously, no transposition or
    /// packing), folding four rhs rows into the accumulator per pass so
    /// each output load/store is amortized over four multiply-adds — the
    /// same fold as [`Matrix::vecmul`], which measures ~1.6× the
    /// column-at-a-time naive loop. The `j` loop is element-wise
    /// independent, so the compiler vectorizes it without reassociating
    /// any sum. Output row blocks run in parallel on [`bat_exec`]; each
    /// row is written by exactly one task in a fixed fold order, so the
    /// result is bit-identical for any thread count.
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
    /// is resized (capacity kept) and zeroed — the zero-allocation twin the
    /// forward workspace reuses across layers and requests. Same kernel,
    /// same fold order, bit-identical results.
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
        let (n, k, m) = (self.rows, self.cols, rhs.cols);
        out.reset(n, m);
        if n == 0 || m == 0 || k == 0 {
            return;
        }
        let grain_rows = par_grain(n * m * k);
        bat_exec::parallel_row_blocks(&mut out.data, m, grain_rows, |first_row, block| {
            let n_block = block.len() / m;
            // Quad-block the output rows: four rows share every rhs-row
            // load, so the streamed operand's cache traffic drops 4× (the
            // single-row fold re-reads the whole rhs per output row, which
            // makes the kernel L2-bandwidth-bound at these shapes). Each
            // row's accumulation chain is unchanged, so a row computes the
            // same bits whether it lands in a quad or the tail — block
            // boundaries (which move with the thread count) cannot change
            // results.
            let mut r = 0;
            while r + 4 <= n_block {
                fold_rows_into_x4(
                    &mut block[r * m..(r + 4) * m],
                    [
                        self.row(first_row + r),
                        self.row(first_row + r + 1),
                        self.row(first_row + r + 2),
                        self.row(first_row + r + 3),
                    ],
                    rhs,
                );
                r += 4;
            }
            while r < n_block {
                fold_rows_into(&mut block[r * m..(r + 1) * m], self.row(first_row + r), rhs);
                r += 1;
            }
        });
    }

    /// Matrix product `self × rhsᵀ` with `rhs` stored row-major (i.e. `rhs`
    /// is the *transposed-packed* right operand: `out[i][j] =
    /// dot(self.row(i), rhs.row(j))`).
    ///
    /// Use this when the right operand is *naturally* stored transposed
    /// (e.g. attention keys packed row-per-key): both operands stream
    /// contiguously, the inner kernel computes two lane-accumulated dot
    /// products per pass (register blocking — see [`dot_unrolled_x2`])
    /// with no per-element branch, the `j` loop is tiled so a block of
    /// `rhs` rows stays cache-hot across output rows, and output row
    /// blocks are computed in parallel on [`bat_exec`]. Every output
    /// element is one fixed-order dot product written by exactly one task,
    /// so the result is bit-identical for any thread count. For an
    /// untransposed right operand, [`Matrix::matmul`]'s axpy kernel is
    /// faster — dot-form products pay a horizontal reduction per element —
    /// so above a size threshold this un-packs `rhs` and delegates to it
    /// (the copy amortizes; the threshold depends only on the shapes, so
    /// results stay deterministic).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()` (the shared inner dimension).
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt shape mismatch: {}x{} × ({}x{})T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (n, k, m) = (self.rows, self.cols, rhs.rows);
        // Past this many multiply-adds the O(m·k) un-packing copy is noise
        // next to the O(n·m·k) kernel and the axpy form's throughput wins.
        const NT_UNPACK_MACS: usize = 64 * 1024;
        if n * m * k >= NT_UNPACK_MACS {
            return self.matmul(&rhs.transpose());
        }
        let mut out = Matrix::zeros(n, m);
        if n == 0 || m == 0 || k == 0 {
            return out;
        }
        // Rows-per-tile of the packed operand kept hot in L1 across output
        // rows; 16 rows × 256 columns of f32 is 16 KiB.
        const J_TILE: usize = 16;
        let grain_rows = par_grain(n * m * k);
        bat_exec::parallel_row_blocks(&mut out.data, m, grain_rows, |first_row, block| {
            let n_block = block.len() / m;
            for j0 in (0..m).step_by(J_TILE) {
                let j1 = (j0 + J_TILE).min(m);
                for r in 0..n_block {
                    let a_row = self.row(first_row + r);
                    let out_row = &mut block[r * m..(r + 1) * m];
                    // Register-blocked: two packed rows per pass share each
                    // `a_row` load, then a single mops up an odd tile edge.
                    let mut j = j0;
                    while j + 2 <= j1 {
                        out_row[j..j + 2].copy_from_slice(&dot_unrolled_x2(
                            a_row,
                            rhs.row(j),
                            rhs.row(j + 1),
                        ));
                        j += 2;
                    }
                    if j < j1 {
                        out_row[j] = dot_unrolled(a_row, rhs.row(j));
                    }
                }
            }
        });
        out
    }

    /// `vec × self` where `vec` has length `self.rows()`; returns a vector of
    /// length `self.cols()`. This is the hot path of the per-token forward
    /// pass (hidden-state row times weight matrix).
    ///
    /// Dense kernel: four input rows are folded into the accumulator per
    /// pass with no per-element zero test (the seed's skip branch
    /// mispredicts on dense data and defeats pipelining). Accumulation
    /// order per output column is the plain ascending-`k` order, so results
    /// match the naive loop bit-for-bit on inputs without `-0.0` rows. For
    /// operands that are *provably* mostly zero, use
    /// [`Matrix::vecmul_sparse`].
    ///
    /// # Panics
    ///
    /// Panics if `vec.len() != self.rows()`.
    pub fn vecmul(&self, vec: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.vecmul_into(vec, &mut out);
        out
    }

    /// [`Matrix::vecmul`] writing into a caller-owned vector (cleared,
    /// resized keeping capacity). Same kernel, bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics if `vec.len() != self.rows()`.
    pub fn vecmul_into(&self, vec: &[f32], out: &mut Vec<f32>) {
        assert_eq!(vec.len(), self.rows, "vecmul shape mismatch");
        out.clear();
        out.resize(self.cols, 0.0);
        fold_rows_into(out, vec, self);
    }

    /// Sparse-aware `vec × self`: skips rows whose coefficient is exactly
    /// zero. Use only where the input is provably sparse (e.g. activations
    /// after an exact-zero gate); on dense data the per-element branch makes
    /// this strictly slower than [`Matrix::vecmul`]. Semantics match the
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

    /// The seed's scalar matmul (zero-skip branch, no packing, serial).
    /// Kept as the honest before/after baseline for the perf suite and as
    /// the reference oracle in equivalence tests — not a production path.
    #[doc(hidden)]
    pub fn matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
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

    /// Visits every row mutably as `f(row_index, row)` — an element-wise
    /// row map (RoPE, residual add, norm, activation). Row blocks go to
    /// [`bat_exec`]'s pool once the matrix has enough elements to repay a
    /// dispatch (see [`par_grain`]); a ranking-sized residual add costs
    /// several times more through the pool than inline. Each row is
    /// processed by exactly one task, so results are bit-identical for any
    /// thread count as long as `f` computes each row independently of the
    /// others.
    pub fn par_rows_mut<F>(&mut self, f: F)
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        if self.rows == 0 || self.cols == 0 {
            return;
        }
        let cols = self.cols;
        let grain = par_grain(self.data.len());
        bat_exec::parallel_row_blocks(&mut self.data, cols, grain, |first_row, block| {
            for (off, row) in block.chunks_mut(cols).enumerate() {
                f(first_row + off, row);
            }
        });
    }

    /// [`Matrix::par_rows_mut`] for rows of unequal cost, handed out a
    /// block at a time: `weights[row]` is how many `cols`-wide steps the row
    /// takes (an attention row's allowed key count), the row blocks are
    /// balanced by weight, not by count, and `f(first_row, block)` gets a
    /// whole block of rows — so per-task set-up (borrowing thread-local
    /// scratch) is paid once per block, not once per row.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.rows()`.
    pub fn par_row_blocks_mut_weighted<F>(&mut self, weights: &[u64], f: F)
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        assert_eq!(weights.len(), self.rows, "one weight per row");
        if self.rows == 0 || self.cols == 0 {
            return;
        }
        let cols = self.cols;
        let grain = par_grain(weights.iter().sum::<u64>() as usize * cols);
        bat_exec::parallel_weighted_row_blocks(&mut self.data, cols, weights, grain, f);
    }

    /// `out[c] += ⟨s, row c⟩` over the first `s.len()` columns of each of
    /// the first `out.len()` rows — the attention value accumulation over a
    /// transposed-packed value matrix (`out` is one head's output slice,
    /// `s` the attention weights over a causal window).
    ///
    /// Four rows are reduced per pass sharing each `s` load, every row
    /// carrying its own lane accumulators, so the adds form `4 × LANES`
    /// independent chains — one [`crate::ops::dot_fast`] per row is
    /// *latency*-bound on a single 8-lane chain (~3× slower measured).
    /// Each row still folds in exactly [`fold_lanes`] order, so the result
    /// is bit-identical to calling [`dot_unrolled`] row by row.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() > self.rows()` or `s.len() > self.cols()`.
    pub fn rows_dot_acc(&self, s: &[f32], out: &mut [f32]) {
        assert!(out.len() <= self.rows, "rows_dot_acc row overrun");
        assert!(s.len() <= self.cols, "rows_dot_acc column overrun");
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F support was just verified at runtime.
                return unsafe { rows_dot_acc_avx512(self, s, out) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just verified at runtime.
                return unsafe { rows_dot_acc_avx2(self, s, out) };
            }
        }
        #[cfg(target_arch = "aarch64")]
        if std::arch::is_aarch64_feature_detected!("neon") {
            // SAFETY: NEON support was just verified at runtime.
            return unsafe { rows_dot_acc_neon(self, s, out) };
        }
        rows_dot_acc_body(self, s, out)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Maximum absolute difference from `other`; `None` if shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Option<f32> {
        if self.rows != other.rows || self.cols != other.cols {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max),
        )
    }
}

/// Row grain for a data-parallel stage of `work` multiply-adds (or element
/// visits): `1` — farm rows out to the pool — once the stage is big enough
/// to repay a pool dispatch (~10 µs at two threads), else `usize::MAX` —
/// run inline. A pure function of the shapes, never the thread count, and
/// every stage it gates computes rows independently, so it moves speed
/// only.
#[inline]
pub(crate) fn par_grain(work: usize) -> usize {
    const PAR_MACS: usize = 32 * 1024;
    if work >= PAR_MACS {
        1
    } else {
        usize::MAX
    }
}

/// `out[c] += Σ_k coeffs[k] · rhs[k][c]`: the shared axpy inner kernel of
/// [`Matrix::matmul`] and [`Matrix::vecmul`]. Four input rows are folded
/// into the accumulator per pass with no per-element zero test (the seed's
/// skip branch mispredicts on dense data and defeats pipelining); the adds
/// per output column are left-to-right, identical association to
/// accumulating the rows one at a time, so results match the naive loop
/// bit-for-bit on inputs without `-0.0` rows.
///
/// Dispatches to the widest SIMD-compiled copy of the same body the
/// running CPU supports — AVX-512F, then AVX2 on x86-64 (whose baseline is
/// SSE2, i.e. 4-wide vectors), NEON on aarch64. Every copy performs the
/// *same* multiplies and adds in the same order — no FMA contraction, no
/// reassociation — so the dispatch affects speed only and results stay
/// bit-identical across CPUs and architectures.
#[inline]
fn fold_rows_into(out: &mut [f32], coeffs: &[f32], rhs: &Matrix) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F support was just verified at runtime.
            return unsafe { fold_rows_into_avx512(out, coeffs, rhs) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { fold_rows_into_avx2(out, coeffs, rhs) };
        }
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        // SAFETY: NEON support was just verified at runtime.
        return unsafe { fold_rows_into_neon(out, coeffs, rhs) };
    }
    fold_rows_into_body(out, coeffs, rhs)
}

/// The [`fold_rows_into`] body compiled with AVX-512F enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fold_rows_into_avx512(out: &mut [f32], coeffs: &[f32], rhs: &Matrix) {
    fold_rows_into_body(out, coeffs, rhs)
}

/// The [`fold_rows_into`] body compiled with NEON enabled (aarch64).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn fold_rows_into_neon(out: &mut [f32], coeffs: &[f32], rhs: &Matrix) {
    fold_rows_into_body(out, coeffs, rhs)
}

/// The [`fold_rows_into`] body compiled with AVX2 enabled. `#[inline
/// (always)]` on the body guarantees it is cloned into this function (a
/// non-inlined call would be codegen'd at the crate's SSE2 baseline and
/// the wider registers would never materialize).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fold_rows_into_avx2(out: &mut [f32], coeffs: &[f32], rhs: &Matrix) {
    fold_rows_into_body(out, coeffs, rhs)
}

#[inline(always)]
fn fold_rows_into_body(out: &mut [f32], coeffs: &[f32], rhs: &Matrix) {
    let cols = rhs.cols;
    let out = &mut out[..cols];
    let mut k = 0;
    // Eight rows per pass: each output load/store is amortized over eight
    // multiply-adds (the fold is load-port-bound, so fewer accumulator
    // round-trips per MAC is the lever). The sum per output column is
    // still evaluated left-to-right, identical association to folding the
    // rows one at a time, so shrinking or growing the fold width never
    // changes a single bit.
    while k + 8 <= coeffs.len() {
        let (a0, a1, a2, a3) = (coeffs[k], coeffs[k + 1], coeffs[k + 2], coeffs[k + 3]);
        let (a4, a5, a6, a7) = (coeffs[k + 4], coeffs[k + 5], coeffs[k + 6], coeffs[k + 7]);
        let r0 = &rhs.row(k)[..cols];
        let r1 = &rhs.row(k + 1)[..cols];
        let r2 = &rhs.row(k + 2)[..cols];
        let r3 = &rhs.row(k + 3)[..cols];
        let r4 = &rhs.row(k + 4)[..cols];
        let r5 = &rhs.row(k + 5)[..cols];
        let r6 = &rhs.row(k + 6)[..cols];
        let r7 = &rhs.row(k + 7)[..cols];
        for c in 0..cols {
            out[c] = out[c]
                + a0 * r0[c]
                + a1 * r1[c]
                + a2 * r2[c]
                + a3 * r3[c]
                + a4 * r4[c]
                + a5 * r5[c]
                + a6 * r6[c]
                + a7 * r7[c];
        }
        k += 8;
    }
    while k + 4 <= coeffs.len() {
        let (a0, a1, a2, a3) = (coeffs[k], coeffs[k + 1], coeffs[k + 2], coeffs[k + 3]);
        let r0 = &rhs.row(k)[..cols];
        let r1 = &rhs.row(k + 1)[..cols];
        let r2 = &rhs.row(k + 2)[..cols];
        let r3 = &rhs.row(k + 3)[..cols];
        for c in 0..cols {
            out[c] = out[c] + a0 * r0[c] + a1 * r1[c] + a2 * r2[c] + a3 * r3[c];
        }
        k += 4;
    }
    while k < coeffs.len() {
        let a = coeffs[k];
        for (o, &b) in out.iter_mut().zip(rhs.row(k)) {
            *o += a * b;
        }
        k += 1;
    }
}

/// Folds `rhs` into **four** contiguous output rows in one pass:
/// `out4[r][c] += Σ_k coeffs[r][k] · rhs[k][c]` for `r in 0..4`, where
/// `out4` is four back-to-back rows of `rhs.cols` elements. Every rhs row
/// loaded is applied to all four outputs, so the streamed operand's cache
/// traffic is a quarter of running [`fold_rows_into`] four times — the
/// lever for large matmuls whose rhs lives in L2 while four output rows
/// stay L1-resident. Each output column's sum is still evaluated
/// left-to-right over `k`, the same association as the single-row fold,
/// so a row produces identical bits through either kernel.
#[inline]
fn fold_rows_into_x4(out4: &mut [f32], coeffs: [&[f32]; 4], rhs: &Matrix) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F support was just verified at runtime.
            return unsafe { fold_rows_into_x4_avx512(out4, coeffs, rhs) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { fold_rows_into_x4_avx2(out4, coeffs, rhs) };
        }
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        // SAFETY: NEON support was just verified at runtime.
        return unsafe { fold_rows_into_x4_neon(out4, coeffs, rhs) };
    }
    fold_rows_into_x4_body(out4, coeffs, rhs)
}

/// [`fold_rows_into_x4`]'s body compiled with AVX-512F enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fold_rows_into_x4_avx512(out4: &mut [f32], coeffs: [&[f32]; 4], rhs: &Matrix) {
    fold_rows_into_x4_body(out4, coeffs, rhs)
}

/// [`fold_rows_into_x4`]'s body compiled with NEON enabled (aarch64).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn fold_rows_into_x4_neon(out4: &mut [f32], coeffs: [&[f32]; 4], rhs: &Matrix) {
    fold_rows_into_x4_body(out4, coeffs, rhs)
}

/// [`fold_rows_into_x4`]'s body compiled with AVX2 enabled (see
/// [`fold_rows_into_avx2`] for why the body must be `#[inline(always)]`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fold_rows_into_x4_avx2(out4: &mut [f32], coeffs: [&[f32]; 4], rhs: &Matrix) {
    fold_rows_into_x4_body(out4, coeffs, rhs)
}

#[inline(always)]
fn fold_rows_into_x4_body(out4: &mut [f32], coeffs: [&[f32]; 4], rhs: &Matrix) {
    let cols = rhs.cols;
    let klen = coeffs[0].len();
    let [c0, c1, c2, c3] = coeffs;
    let (o01, o23) = out4[..4 * cols].split_at_mut(2 * cols);
    let (o0, o1) = o01.split_at_mut(cols);
    let (o2, o3) = o23.split_at_mut(cols);
    let mut k = 0;
    // Two rhs rows per pass: 4 accumulator vectors + 2 rhs vectors + 8
    // broadcast scalars stays inside the 16 ymm registers; deeper k would
    // spill. Adds per output column are left-to-right, so pass depth never
    // changes a bit.
    while k + 2 <= klen {
        let r0 = &rhs.row(k)[..cols];
        let r1 = &rhs.row(k + 1)[..cols];
        let (a00, a01) = (c0[k], c0[k + 1]);
        let (a10, a11) = (c1[k], c1[k + 1]);
        let (a20, a21) = (c2[k], c2[k + 1]);
        let (a30, a31) = (c3[k], c3[k + 1]);
        for c in 0..cols {
            let b0 = r0[c];
            let b1 = r1[c];
            o0[c] = o0[c] + a00 * b0 + a01 * b1;
            o1[c] = o1[c] + a10 * b0 + a11 * b1;
            o2[c] = o2[c] + a20 * b0 + a21 * b1;
            o3[c] = o3[c] + a30 * b0 + a31 * b1;
        }
        k += 2;
    }
    if k < klen {
        let r0 = &rhs.row(k)[..cols];
        let (a0, a1, a2, a3) = (c0[k], c1[k], c2[k], c3[k]);
        for c in 0..cols {
            let b0 = r0[c];
            o0[c] += a0 * b0;
            o1[c] += a1 * b0;
            o2[c] += a2 * b0;
            o3[c] += a3 * b0;
        }
    }
}

/// [`Matrix::rows_dot_acc`]'s body compiled with AVX2 enabled (see
/// [`fold_rows_into_avx2`] for why the body must be `#[inline(always)]`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rows_dot_acc_avx2(m: &Matrix, s: &[f32], out: &mut [f32]) {
    rows_dot_acc_body(m, s, out)
}

/// [`Matrix::rows_dot_acc`]'s body compiled with AVX-512F enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn rows_dot_acc_avx512(m: &Matrix, s: &[f32], out: &mut [f32]) {
    rows_dot_acc_body(m, s, out)
}

/// [`Matrix::rows_dot_acc`]'s body compiled with NEON enabled (aarch64).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn rows_dot_acc_neon(m: &Matrix, s: &[f32], out: &mut [f32]) {
    rows_dot_acc_body(m, s, out)
}

#[inline(always)]
fn rows_dot_acc_body(m: &Matrix, s: &[f32], out: &mut [f32]) {
    let n = s.len();
    let main = n / LANES * LANES;
    let mut c = 0;
    while c + 4 <= out.len() {
        let r0 = &m.row(c)[..n];
        let r1 = &m.row(c + 1)[..n];
        let r2 = &m.row(c + 2)[..n];
        let r3 = &m.row(c + 3)[..n];
        let mut a0 = [0.0f32; LANES];
        let mut a1 = [0.0f32; LANES];
        let mut a2 = [0.0f32; LANES];
        let mut a3 = [0.0f32; LANES];
        for i in (0..main).step_by(LANES) {
            let ps: &[f32; LANES] = s[i..i + LANES].try_into().unwrap();
            let p0: &[f32; LANES] = r0[i..i + LANES].try_into().unwrap();
            let p1: &[f32; LANES] = r1[i..i + LANES].try_into().unwrap();
            let p2: &[f32; LANES] = r2[i..i + LANES].try_into().unwrap();
            let p3: &[f32; LANES] = r3[i..i + LANES].try_into().unwrap();
            for l in 0..LANES {
                a0[l] += ps[l] * p0[l];
                a1[l] += ps[l] * p1[l];
                a2[l] += ps[l] * p2[l];
                a3[l] += ps[l] * p3[l];
            }
        }
        let st = &s[main..];
        out[c] += fold_lanes(a0, st, &r0[main..]);
        out[c + 1] += fold_lanes(a1, st, &r1[main..]);
        out[c + 2] += fold_lanes(a2, st, &r2[main..]);
        out[c + 3] += fold_lanes(a3, st, &r3[main..]);
        c += 4;
    }
    while c < out.len() {
        out[c] += dot_unrolled_body(s, &m.row(c)[..n]);
        c += 1;
    }
}

/// SIMD lane width of the dot kernels. Eight independent f32 accumulator
/// lanes map onto one AVX/NEON-pair vector register, and because each lane
/// is its own addition chain the compiler can vectorize the loop without
/// reassociating any sum.
pub(crate) const LANES: usize = 8;

/// Fixed-order horizontal reduction of the lane accumulators plus the
/// ascending scalar tail — a pure function of the length, so every dot
/// kernel below is deterministic regardless of where it runs.
#[inline]
pub(crate) fn fold_lanes(acc: [f32; LANES], a_tail: &[f32], b_tail: &[f32]) -> f32 {
    let mut sum = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (x, y) in a_tail.iter().zip(b_tail) {
        sum += x * y;
    }
    sum
}

/// Lane-accumulated dot product (vectorizable, deterministic). Dispatches
/// to an AVX2 copy of the same body on capable CPUs — identical arithmetic
/// in identical order, so the result is bit-identical either way. Exposed
/// to `bat-model` (as `ops::dot_fast`) for the attention value
/// accumulation, where the strict serial chain of [`crate::ops::dot`]
/// cannot vectorize.
#[inline]
pub(crate) fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    // Below ~4 chunks the wide clones' call overhead outweighs their
    // registers; the inlined baseline body is the same arithmetic in the
    // same order, so the cutoff never changes a result bit.
    #[cfg(target_arch = "x86_64")]
    if a.len() >= 4 * LANES {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F support was just verified at runtime.
            return unsafe { dot_unrolled_avx512(a, b) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { dot_unrolled_avx2(a, b) };
        }
    }
    #[cfg(target_arch = "aarch64")]
    if a.len() >= 4 * LANES && std::arch::is_aarch64_feature_detected!("neon") {
        // SAFETY: NEON support was just verified at runtime.
        return unsafe { dot_unrolled_neon(a, b) };
    }
    dot_unrolled_body(a, b)
}

/// [`dot_unrolled`]'s body compiled with AVX-512F enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dot_unrolled_avx512(a: &[f32], b: &[f32]) -> f32 {
    dot_unrolled_body(a, b)
}

/// [`dot_unrolled`]'s body compiled with NEON enabled (aarch64).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn dot_unrolled_neon(a: &[f32], b: &[f32]) -> f32 {
    dot_unrolled_body(a, b)
}

/// [`dot_unrolled`]'s body compiled with AVX2 enabled (see
/// [`fold_rows_into_avx2`] for why the body must be `#[inline(always)]`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_unrolled_avx2(a: &[f32], b: &[f32]) -> f32 {
    dot_unrolled_body(a, b)
}

#[inline(always)]
fn dot_unrolled_body(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (pa, pb) in (&mut ca).zip(&mut cb) {
        let pa: &[f32; LANES] = pa.try_into().unwrap();
        let pb: &[f32; LANES] = pb.try_into().unwrap();
        for l in 0..LANES {
            acc[l] += pa[l] * pb[l];
        }
    }
    fold_lanes(acc, ca.remainder(), cb.remainder())
}

/// Two lane-accumulated dot products of `a` against `b0`/`b1` in one pass:
/// the register-blocked heart of [`Matrix::matmul_nt`]. Sharing each `a`
/// chunk across two packed rows halves the load traffic per multiply; two
/// blocks (4 lane arrays + 3 operand chunks) is as far as blocking goes
/// before the accumulators spill out of a 16-register SIMD file. Each
/// output reduces in exactly [`fold_lanes`] order, so the result is
/// bit-identical to two separate [`dot_unrolled`] calls.
#[inline]
fn dot_unrolled_x2(a: &[f32], b0: &[f32], b1: &[f32]) -> [f32; 2] {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F support was just verified at runtime.
            return unsafe { dot_unrolled_x2_avx512(a, b0, b1) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { dot_unrolled_x2_avx2(a, b0, b1) };
        }
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        // SAFETY: NEON support was just verified at runtime.
        return unsafe { dot_unrolled_x2_neon(a, b0, b1) };
    }
    dot_unrolled_x2_body(a, b0, b1)
}

/// [`dot_unrolled_x2`]'s body compiled with AVX-512F enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dot_unrolled_x2_avx512(a: &[f32], b0: &[f32], b1: &[f32]) -> [f32; 2] {
    dot_unrolled_x2_body(a, b0, b1)
}

/// [`dot_unrolled_x2`]'s body compiled with NEON enabled (aarch64).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn dot_unrolled_x2_neon(a: &[f32], b0: &[f32], b1: &[f32]) -> [f32; 2] {
    dot_unrolled_x2_body(a, b0, b1)
}

/// [`dot_unrolled_x2`]'s body compiled with AVX2 enabled (see
/// [`fold_rows_into_avx2`] for why the body must be `#[inline(always)]`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_unrolled_x2_avx2(a: &[f32], b0: &[f32], b1: &[f32]) -> [f32; 2] {
    dot_unrolled_x2_body(a, b0, b1)
}

#[inline(always)]
fn dot_unrolled_x2_body(a: &[f32], b0: &[f32], b1: &[f32]) -> [f32; 2] {
    // Equal-length reslices let the optimizer prove every chunk below is
    // in-bounds (the rows all share `a`'s length, but the compiler cannot
    // know that from the signature).
    let n = a.len();
    let (b0, b1) = (&b0[..n], &b1[..n]);
    let mut acc0 = [0.0f32; LANES];
    let mut acc1 = [0.0f32; LANES];
    let main = n / LANES * LANES;
    for i in (0..main).step_by(LANES) {
        let pa: &[f32; LANES] = a[i..i + LANES].try_into().unwrap();
        let p0: &[f32; LANES] = b0[i..i + LANES].try_into().unwrap();
        let p1: &[f32; LANES] = b1[i..i + LANES].try_into().unwrap();
        for l in 0..LANES {
            acc0[l] += pa[l] * p0[l];
            acc1[l] += pa[l] * p1[l];
        }
    }
    let at = &a[main..];
    [
        fold_lanes(acc0, at, &b0[main..]),
        fold_lanes(acc1, at, &b1[main..]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, SeedableRng};

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
    fn vecmul_matches_matmul() {
        let mut rng = SmallRng::seed_from_u64(1);
        let w = Matrix::random(5, 3, 1.0, &mut rng);
        let v = vec![0.3, -0.2, 1.0, 0.5, -0.7];
        let via_mat = Matrix::from_vec(1, 5, v.clone()).matmul(&w);
        let via_vec = w.vecmul(&v);
        for (a, b) in via_mat.row(0).iter().zip(&via_vec) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = SmallRng::seed_from_u64(2);
        let a = Matrix::random(4, 7, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
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

    #[test]
    fn matmul_is_bit_identical_across_thread_counts() {
        let mut rng = SmallRng::seed_from_u64(7);
        // Big enough to clear the parallel threshold (96³ ≈ 885k MACs).
        let a = Matrix::random(96, 96, 1.0, &mut rng);
        let b = Matrix::random(96, 96, 1.0, &mut rng);
        bat_exec::set_threads(1);
        let gold = a.matmul(&b);
        for t in [2, 4, 8] {
            bat_exec::set_threads(t);
            let got = a.matmul(&b);
            assert!(
                gold.as_slice()
                    .iter()
                    .zip(got.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{t} threads diverged from serial"
            );
        }
        bat_exec::set_threads(1);
    }

    #[test]
    fn matmul_nt_agrees_with_matmul_of_the_transpose() {
        let mut rng = SmallRng::seed_from_u64(11);
        // Small product: the dot-form kernel, vs matmul's axpy form —
        // different (each fixed) associations, so compare with tolerance.
        let a = Matrix::random(9, 17, 1.0, &mut rng);
        let b = Matrix::random(13, 17, 1.0, &mut rng);
        let diff = a.matmul_nt(&b).max_abs_diff(&a.matmul(&b.transpose()));
        assert!(diff.unwrap() < 1e-5);
        // Large product: matmul_nt un-packs and delegates, so the results
        // are the same kernel call and bit-identical.
        let a = Matrix::random(48, 64, 1.0, &mut rng);
        let b = Matrix::random(56, 64, 1.0, &mut rng);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    #[should_panic(expected = "matmul_nt shape mismatch")]
    fn matmul_nt_rejects_bad_inner_dim() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        let _ = a.matmul_nt(&b);
    }

    /// The AVX2-dispatched kernels must be bit-identical to the baseline
    /// bodies: the wider registers change speed, never arithmetic. This
    /// guards against a toolchain someday enabling FMA contraction (which
    /// would silently change results between CPUs).
    #[test]
    fn simd_dispatch_is_bit_identical_to_baseline() {
        let mut rng = SmallRng::seed_from_u64(23);
        let w = Matrix::random(37, 53, 1.0, &mut rng);
        let v: Vec<f32> = (0..37).map(|i| (i as f32 * 0.73).sin()).collect();
        let mut dispatched = vec![0.0f32; 53];
        fold_rows_into(&mut dispatched, &v, &w);
        let mut baseline = vec![0.0f32; 53];
        fold_rows_into_body(&mut baseline, &v, &w);
        assert!(dispatched
            .iter()
            .zip(&baseline)
            .all(|(x, y)| x.to_bits() == y.to_bits()));

        let a: Vec<f32> = (0..61).map(|i| (i as f32 * 0.31).cos()).collect();
        let b: Vec<f32> = (0..61).map(|i| (i as f32 * 0.17).sin()).collect();
        assert_eq!(
            dot_unrolled(&a, &b).to_bits(),
            dot_unrolled_body(&a, &b).to_bits()
        );
        let c: Vec<f32> = (0..61).map(|i| (i as f32 * 0.11).cos()).collect();
        let x2 = dot_unrolled_x2(&a, &b, &c);
        let x2b = dot_unrolled_x2_body(&a, &b, &c);
        assert_eq!(x2[0].to_bits(), x2b[0].to_bits());
        assert_eq!(x2[1].to_bits(), x2b[1].to_bits());

        let cf: Vec<Vec<f32>> = (0..4)
            .map(|r| {
                (0..37)
                    .map(|i| ((r * 37 + i) as f32 * 0.41).sin())
                    .collect()
            })
            .collect();
        let coeffs = [&cf[0][..], &cf[1][..], &cf[2][..], &cf[3][..]];
        let mut disp4 = vec![0.25f32; 4 * 53];
        fold_rows_into_x4(&mut disp4, coeffs, &w);
        let mut base4 = vec![0.25f32; 4 * 53];
        fold_rows_into_x4_body(&mut base4, coeffs, &w);
        assert!(disp4
            .iter()
            .zip(&base4)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    /// Pins each per-architecture clone against the baseline body
    /// *directly*: the public dispatchers prefer the widest tier the host
    /// has, so on an AVX-512 machine the AVX2 clones would otherwise go
    /// untested (and vice versa on older hosts). Every tier that exists on
    /// this CPU must be bit-identical — the tier changes speed, never bits.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_x86_tier_is_bit_identical_to_baseline() {
        let mut rng = SmallRng::seed_from_u64(41);
        let w = Matrix::random(29, 61, 1.0, &mut rng);
        let v: Vec<f32> = (0..29).map(|i| (i as f32 * 0.61).sin()).collect();
        let a: Vec<f32> = (0..77).map(|i| (i as f32 * 0.19).cos()).collect();
        let b: Vec<f32> = (0..77).map(|i| (i as f32 * 0.43).sin()).collect();
        let c: Vec<f32> = (0..77).map(|i| (i as f32 * 0.29).cos()).collect();
        let cf: Vec<Vec<f32>> = (0..4)
            .map(|r| {
                (0..29)
                    .map(|i| ((r * 29 + i) as f32 * 0.53).sin())
                    .collect()
            })
            .collect();
        let coeffs = [&cf[0][..], &cf[1][..], &cf[2][..], &cf[3][..]];

        let mut fold_gold = vec![0.125f32; 61];
        fold_rows_into_body(&mut fold_gold, &v, &w);
        let dot_gold = dot_unrolled_body(&a, &b).to_bits();
        let x2_gold = dot_unrolled_x2_body(&a, &b, &c);
        let mut x4_gold = vec![0.5f32; 4 * 61];
        fold_rows_into_x4_body(&mut x4_gold, coeffs, &w);
        let mut acc_gold = vec![0.25f32; 8];
        rows_dot_acc_body(&w.transpose(), &v[..20], &mut acc_gold);

        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if std::arch::is_x86_feature_detected!("avx512f") {
            let mut fold = vec![0.125f32; 61];
            // SAFETY: AVX-512F support was just verified at runtime.
            unsafe {
                fold_rows_into_avx512(&mut fold, &v, &w);
                assert_eq!(dot_unrolled_avx512(&a, &b).to_bits(), dot_gold);
                let x2 = dot_unrolled_x2_avx512(&a, &b, &c);
                assert_eq!(x2[0].to_bits(), x2_gold[0].to_bits());
                assert_eq!(x2[1].to_bits(), x2_gold[1].to_bits());
                let mut x4 = vec![0.5f32; 4 * 61];
                fold_rows_into_x4_avx512(&mut x4, coeffs, &w);
                assert_eq!(bits(&x4), bits(&x4_gold));
                let mut acc = vec![0.25f32; 8];
                rows_dot_acc_avx512(&w.transpose(), &v[..20], &mut acc);
                assert_eq!(bits(&acc), bits(&acc_gold));
            }
            assert_eq!(bits(&fold), bits(&fold_gold), "avx512f fold");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut fold = vec![0.125f32; 61];
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe {
                fold_rows_into_avx2(&mut fold, &v, &w);
                assert_eq!(dot_unrolled_avx2(&a, &b).to_bits(), dot_gold);
                let x2 = dot_unrolled_x2_avx2(&a, &b, &c);
                assert_eq!(x2[0].to_bits(), x2_gold[0].to_bits());
                assert_eq!(x2[1].to_bits(), x2_gold[1].to_bits());
                let mut x4 = vec![0.5f32; 4 * 61];
                fold_rows_into_x4_avx2(&mut x4, coeffs, &w);
                assert_eq!(bits(&x4), bits(&x4_gold));
                let mut acc = vec![0.25f32; 8];
                rows_dot_acc_avx2(&w.transpose(), &v[..20], &mut acc);
                assert_eq!(bits(&acc), bits(&acc_gold));
            }
            assert_eq!(bits(&fold), bits(&fold_gold), "avx2 fold");
        }
    }

    /// The quad-row fold is the single-row fold applied to four rows: same
    /// left-to-right association per output column, so identical bits —
    /// which is what lets [`Matrix::matmul`] split a row block into quads
    /// plus a single-row tail without the boundary position (a function of
    /// the thread count) affecting results. Odd inner dimension exercises
    /// the depth-1 remainder pass.
    #[test]
    fn fold_rows_into_x4_matches_single_row_folds() {
        let mut rng = SmallRng::seed_from_u64(31);
        for (k, cols) in [(96usize, 256usize), (17, 41)] {
            let w = Matrix::random(k, cols, 1.0, &mut rng);
            let cf: Vec<Vec<f32>> = (0..4)
                .map(|r| (0..k).map(|i| ((r * k + i) as f32 * 0.23).cos()).collect())
                .collect();
            let mut quad = vec![0.5f32; 4 * cols];
            fold_rows_into_x4(&mut quad, [&cf[0], &cf[1], &cf[2], &cf[3]], &w);
            for r in 0..4 {
                let mut single = vec![0.5f32; cols];
                fold_rows_into(&mut single, &cf[r], &w);
                assert!(
                    quad[r * cols..(r + 1) * cols]
                        .iter()
                        .zip(&single)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "row {r} of k={k} cols={cols}"
                );
            }
        }
    }

    /// The blocked multi-dot accumulates exactly one [`dot_unrolled`] per
    /// row (bit-identical: same per-row lane fold), over a column prefix.
    #[test]
    fn rows_dot_acc_matches_per_row_dots() {
        let mut rng = SmallRng::seed_from_u64(29);
        for (rows, cols, window, outs) in [(8usize, 250usize, 250usize, 8usize), (7, 64, 41, 5)] {
            let m = Matrix::random(rows, cols, 1.0, &mut rng);
            let s: Vec<f32> = (0..window).map(|i| (i as f32 * 0.19).sin()).collect();
            let mut got = vec![0.5f32; outs];
            m.rows_dot_acc(&s, &mut got);
            for (c, g) in got.iter().enumerate() {
                let want = 0.5 + dot_unrolled(&s, &m.row(c)[..window]);
                assert_eq!(g.to_bits(), want.to_bits(), "row {c} of {rows}x{cols}");
            }
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
        /// The packed/unrolled kernel agrees with the seed scalar kernel.
        #[test]
        fn matmul_matches_naive(seed in 0u64..500, n in 1usize..9, m in 1usize..9, k in 1usize..9) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let a = Matrix::random(n, m, 1.0, &mut rng);
            let b = Matrix::random(m, k, 1.0, &mut rng);
            prop_assert!(a.matmul(&b).max_abs_diff(&a.matmul_naive(&b)).unwrap() < 1e-5);
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
            let dense = w.vecmul(&v);
            let sparse = w.vecmul_sparse(&v);
            for (d, s) in dense.iter().zip(&sparse) {
                prop_assert!((d - s).abs() < 1e-6);
            }
        }

        /// (A·B)ᵀ = Bᵀ·Aᵀ for random matrices.
        #[test]
        fn transpose_of_product(seed in 0u64..1000, n in 1usize..6, m in 1usize..6, k in 1usize..6) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let a = Matrix::random(n, m, 1.0, &mut rng);
            let b = Matrix::random(m, k, 1.0, &mut rng);
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
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
        /// bit-identical to the baseline body for arbitrary inputs and
        /// lengths (including the tier cutoffs and lane remainders).
        #[test]
        fn dot_dispatch_is_bit_identical_for_any_input(
            xs in proptest::collection::vec(-1e3f32..1e3, 1..200),
        ) {
            let ys: Vec<f32> = xs.iter().rev().map(|x| x * 0.5 + 1.0).collect();
            prop_assert_eq!(
                dot_unrolled(&xs, &ys).to_bits(),
                dot_unrolled_body(&xs, &ys).to_bits()
            );
            let x2 = dot_unrolled_x2(&xs, &ys, &xs);
            let x2b = dot_unrolled_x2_body(&xs, &ys, &xs);
            prop_assert_eq!(x2[0].to_bits(), x2b[0].to_bits());
            prop_assert_eq!(x2[1].to_bits(), x2b[1].to_bits());
        }
    }
}
