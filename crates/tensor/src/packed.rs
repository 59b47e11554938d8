//! Column-appendable transposed-packed storage and split-window kernels.
//!
//! [`ColBlock`] stores a `rows × len` block **plane-major**: plane `r` is a
//! contiguous slice holding component `r` of every appended column. This is
//! exactly the transposed (`d × g_len`) layout the attention kernels sweep,
//! so a KV segment stored this way is packed *once* — when it is computed —
//! and every later forward reads it zero-copy instead of re-gathering
//! row-major entries per layer per request.
//!
//! [`SplitCols`] is a zero-copy view over an optional cached-prefix block
//! followed by a suffix block, presenting them as one virtual
//! concatenation. Its kernels ([`SplitCols::axpy_plane`],
//! [`SplitCols::rows_dot_acc`]) read only the virtual-column *runs* a
//! bipartite mask row allows and index their score operand *compactly* (by
//! position among the allowed columns), reproducing the contiguous kernels'
//! arithmetic over a gathered copy of those columns **bit-for-bit**: `axpy`
//! is element-wise, so sweeping it piece by piece cannot change a bit, and
//! the dot kernel replicates [`crate::matrix`]'s exact `LANES`-chunk
//! grouping over the compact index — a chunk that straddles two pieces is
//! gathered into a stack temporary, every other chunk streams from the
//! block that owns it, and the scalar tail walks ascending compact indices.
//! A row's result therefore depends on its allowed keys alone: not on the
//! masked columns between them, nor on where the prefix/suffix split falls.

use crate::matrix::{fold_lanes, LANES};
use crate::ops::axpy;
use std::ops::Range;

/// A `rows × len` block stored plane-major with column-append support.
///
/// Plane `r` lives at `data[r * cap .. r * cap + len]`; `cap` is the column
/// capacity, so appending a column is one strided scatter (one element per
/// plane) and never moves existing data until the block grows (amortized
/// doubling, like `Vec`).
///
/// ```
/// use bat_tensor::ColBlock;
///
/// let mut b = ColBlock::new(2);
/// b.push_col(&[1.0, 10.0]);
/// b.push_col(&[2.0, 20.0]);
/// assert_eq!(b.plane(0), &[1.0, 2.0]);
/// assert_eq!(b.plane(1), &[10.0, 20.0]);
/// ```
pub struct ColBlock {
    rows: usize,
    len: usize,
    cap: usize,
    data: Vec<f32>,
}

impl ColBlock {
    /// An empty block with `rows` planes.
    pub fn new(rows: usize) -> Self {
        ColBlock {
            rows,
            len: 0,
            cap: 0,
            data: Vec::new(),
        }
    }

    /// An empty block with `rows` planes and room for `cap` columns.
    pub fn with_capacity(rows: usize, cap: usize) -> Self {
        ColBlock {
            rows,
            len: 0,
            cap,
            data: vec![0.0; rows * cap],
        }
    }

    /// Rebuilds a block from `rows * cols` values laid out plane-major
    /// (plane 0's columns first, then plane 1's, …) — the inverse of
    /// serializing each [`ColBlock::plane`] in order, as the wire codec
    /// for KV segments does. The block is packed exactly (`cap == cols`).
    ///
    /// # Panics
    ///
    /// When `planes.len() != rows * cols`.
    pub fn from_planes(rows: usize, cols: usize, planes: &[f32]) -> Self {
        assert_eq!(
            planes.len(),
            rows * cols,
            "plane-major buffer length must be rows * cols"
        );
        ColBlock {
            rows,
            len: cols,
            cap: cols,
            data: planes.to_vec(),
        }
    }

    /// Number of planes (the packed dimension, e.g. `kv_dim`).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns appended so far (e.g. tokens).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no column has been appended.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current column capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Bytes of backing storage currently resident (capacity, not logical
    /// length) — what a cache pool must account for this block.
    #[inline]
    pub fn resident_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Plane `r`: component `r` of every appended column, contiguous.
    #[inline]
    pub fn plane(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows, "plane index out of range");
        &self.data[r * self.cap..r * self.cap + self.len]
    }

    /// Mutable borrow of plane `r`.
    #[inline]
    pub fn plane_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows, "plane index out of range");
        &mut self.data[r * self.cap..r * self.cap + self.len]
    }

    /// Grows the column capacity to at least `want`, repacking planes at
    /// the new stride. An explicit reservation on an empty block is exact:
    /// a one- or two-token item segment is stored thousands of times over,
    /// and a minimum capacity would double its resident bytes.
    fn grow_to(&mut self, want: usize) {
        if want <= self.cap {
            return;
        }
        let new_cap = want.max(self.cap * 2);
        let mut data = vec![0.0f32; self.rows * new_cap];
        for r in 0..self.rows {
            data[r * new_cap..r * new_cap + self.len].copy_from_slice(self.plane(r));
        }
        self.data = data;
        self.cap = new_cap;
    }

    /// Ensures room for `additional` more columns without reallocating.
    pub fn reserve_cols(&mut self, additional: usize) {
        self.grow_to(self.len + additional);
    }

    /// Appends one column (one element per plane).
    ///
    /// # Panics
    ///
    /// Panics if `col.len() != self.rows()`.
    pub fn push_col(&mut self, col: &[f32]) {
        assert_eq!(col.len(), self.rows, "push_col width mismatch");
        if self.len == self.cap {
            self.grow_to(self.len + 1);
        }
        for (r, &x) in col.iter().enumerate() {
            self.data[r * self.cap + self.len] = x;
        }
        self.len += 1;
    }

    /// Overwrites column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.len()` or `col.len() != self.rows()`.
    pub fn set_col(&mut self, j: usize, col: &[f32]) {
        assert!(j < self.len, "set_col index out of range");
        assert_eq!(col.len(), self.rows, "set_col width mismatch");
        for (r, &x) in col.iter().enumerate() {
            self.data[r * self.cap + j] = x;
        }
    }

    /// Gathers column `j` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.len()` or `out.len() != self.rows()`.
    pub fn col_into(&self, j: usize, out: &mut [f32]) {
        assert!(j < self.len, "col index out of range");
        assert_eq!(out.len(), self.rows, "col_into width mismatch");
        for (r, o) in out.iter_mut().enumerate() {
            *o = self.data[r * self.cap + j];
        }
    }

    /// Column `j` as a fresh vector (test/oracle convenience; hot paths
    /// read planes).
    pub fn col(&self, j: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.rows];
        self.col_into(j, &mut out);
        out
    }

    /// Appends every column of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the plane counts differ.
    pub fn extend_from(&mut self, other: &ColBlock) {
        assert_eq!(self.rows, other.rows, "extend_from plane-count mismatch");
        self.grow_to(self.len + other.len);
        for r in 0..self.rows {
            let dst = r * self.cap + self.len;
            self.data[dst..dst + other.len].copy_from_slice(other.plane(r));
        }
        self.len += other.len;
    }

    /// Drops all columns, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

/// Compacting clone: the copy's capacity equals its length, so cloning a
/// block into a cache never carries over-allocated scratch headroom.
impl Clone for ColBlock {
    fn clone(&self) -> Self {
        let mut data = vec![0.0f32; self.rows * self.len];
        for r in 0..self.rows {
            data[r * self.len..(r + 1) * self.len].copy_from_slice(self.plane(r));
        }
        ColBlock {
            rows: self.rows,
            len: self.len,
            cap: self.len,
            data,
        }
    }
}

/// Logical equality: shape and appended columns; capacity and any garbage
/// beyond `len` are ignored.
impl PartialEq for ColBlock {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.len == other.len
            && (0..self.rows).all(|r| self.plane(r) == other.plane(r))
    }
}

impl std::fmt::Debug for ColBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColBlock")
            .field("rows", &self.rows)
            .field("len", &self.len)
            .field("cap", &self.cap)
            .finish_non_exhaustive()
    }
}

/// Zero-copy view over `[prefix ++ suffix]` packed column blocks.
///
/// The cached prefix (if any) and the freshly-computed suffix stay in their
/// own [`ColBlock`]s; the view's kernels read the virtual concatenation
/// without ever materializing it. See the module docs for the bit-identity
/// argument.
#[derive(Clone, Copy)]
pub struct SplitCols<'a> {
    pre: Option<&'a ColBlock>,
    suf: &'a ColBlock,
}

impl<'a> SplitCols<'a> {
    /// Builds the view.
    ///
    /// # Panics
    ///
    /// Panics if the blocks' plane counts differ.
    pub fn new(pre: Option<&'a ColBlock>, suf: &'a ColBlock) -> Self {
        if let Some(p) = pre {
            assert_eq!(p.rows(), suf.rows(), "SplitCols plane-count mismatch");
        }
        SplitCols { pre, suf }
    }

    /// Number of planes.
    #[inline]
    pub fn rows(&self) -> usize {
        self.suf.rows()
    }

    /// Element at plane `r`, virtual column `j`.
    #[inline]
    pub fn at(&self, r: usize, j: usize) -> f32 {
        let p = self.pre.map_or(0, ColBlock::len);
        if j < p {
            self.pre.unwrap().plane(r)[j]
        } else {
            self.suf.plane(r)[j - p]
        }
    }

    /// Plane `r` of each block, as `(prefix, suffix)` slices (an absent
    /// prefix reads as empty).
    #[inline]
    fn plane_parts(&self, r: usize) -> (&'a [f32], &'a [f32]) {
        (self.pre.map_or(&[], |b| b.plane(r)), self.suf.plane(r))
    }

    /// `out[g][j] += coeffs[g] · plane(r)[col(j)]` for every coefficient at
    /// once, where `col` walks the virtual columns of `runs` (ascending,
    /// disjoint half-open ranges) in order and `j` is the *compact* index —
    /// the position among the run columns. `out` holds one compact row per
    /// coefficient, back to back: the query heads that share this K plane
    /// are all scored while it is hot. `axpy` is element-wise, so running
    /// it per contiguous piece is the same arithmetic as one sweep over a
    /// gathered copy.
    ///
    /// # Panics
    ///
    /// Panics if a run overruns `self.len()` or `out` is not a whole number
    /// of rows of the runs' total length.
    #[inline]
    pub fn axpy_plane(
        &self,
        r: usize,
        runs: &[Range<usize>],
        coeffs: impl Iterator<Item = f32> + Clone,
        out: &mut [f32],
    ) {
        let n: usize = runs.iter().map(Range::len).sum();
        if n == 0 {
            return;
        }
        assert_eq!(out.len() % n, 0, "axpy_plane runs/output length mismatch");
        let (pre, suf) = self.plane_parts(r);
        let mut at = 0;
        for run in runs {
            let [in_pre, in_suf] = split_run(run, pre.len());
            for src in [&pre[in_pre], &suf[in_suf]] {
                for (row, coeff) in out.chunks_exact_mut(n).zip(coeffs.clone()) {
                    axpy(&mut row[at..at + src.len()], coeff, src);
                }
                at += src.len();
            }
        }
    }

    /// `out[c] += ⟨s, plane(row0 + c)[runs]⟩` with `s` indexed compactly
    /// (see [`SplitCols::axpy_plane`]) — the attention value accumulation
    /// over exactly the keys a mask row allows. Bit-identical to
    /// [`crate::Matrix::rows_dot_acc`] over a contiguous gathered copy of
    /// the run columns: lanes, fixed-tree fold and ascending scalar tail
    /// are all assigned by compact index, so the result does not depend on
    /// where the runs lie or where the prefix/suffix split falls.
    ///
    /// # Panics
    ///
    /// Panics if `row0 + out.len() > self.rows()`, a run overruns
    /// `self.len()`, or the runs' total length is not `s.len()`.
    pub fn rows_dot_acc(&self, row0: usize, runs: &[Range<usize>], s: &[f32], out: &mut [f32]) {
        assert!(row0 + out.len() <= self.rows(), "rows_dot_acc row overrun");
        assert_eq!(
            runs.iter().map(Range::len).sum::<usize>(),
            s.len(),
            "rows_dot_acc runs/weights length mismatch"
        );
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F support was just verified at runtime.
                return unsafe { runs_dot_acc_avx512(*self, row0, runs, s, out) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just verified at runtime.
                return unsafe { runs_dot_acc_avx2(*self, row0, runs, s, out) };
            }
        }
        #[cfg(target_arch = "aarch64")]
        if std::arch::is_aarch64_feature_detected!("neon") {
            // SAFETY: NEON support was just verified at runtime.
            return unsafe { runs_dot_acc_neon(*self, row0, runs, s, out) };
        }
        runs_dot_acc_body(*self, row0, runs, s, out)
    }
}

/// The two contiguous pieces of virtual-column `run` when the first `p`
/// columns live in the prefix block: its columns there, then its columns
/// in the suffix block, each in block-local indices (either may be empty).
#[inline(always)]
fn split_run(run: &Range<usize>, p: usize) -> [Range<usize>; 2] {
    [
        run.start.min(p)..run.end.min(p),
        run.start.max(p) - p..run.end.max(p) - p,
    ]
}

/// [`SplitCols::rows_dot_acc`]'s body compiled with AVX-512F enabled (see
/// `matrix::fold_rows_into_avx2` for why the body must be
/// `#[inline(always)]`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn runs_dot_acc_avx512(
    v: SplitCols<'_>,
    row0: usize,
    runs: &[Range<usize>],
    s: &[f32],
    out: &mut [f32],
) {
    runs_dot_acc_body(v, row0, runs, s, out)
}

/// [`SplitCols::rows_dot_acc`]'s body compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn runs_dot_acc_avx2(
    v: SplitCols<'_>,
    row0: usize,
    runs: &[Range<usize>],
    s: &[f32],
    out: &mut [f32],
) {
    runs_dot_acc_body(v, row0, runs, s, out)
}

/// [`SplitCols::rows_dot_acc`]'s body compiled with NEON enabled (aarch64).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn runs_dot_acc_neon(
    v: SplitCols<'_>,
    row0: usize,
    runs: &[Range<usize>],
    s: &[f32],
    out: &mut [f32],
) {
    runs_dot_acc_body(v, row0, runs, s, out)
}

/// Four planes per pass sharing each `s` chunk load, exactly like
/// `matrix::rows_dot_acc_body`; every plane keeps its own lane
/// accumulators so no sum is reassociated.
#[inline(always)]
fn runs_dot_acc_body(
    v: SplitCols<'_>,
    row0: usize,
    runs: &[Range<usize>],
    s: &[f32],
    out: &mut [f32],
) {
    let mut c = 0;
    while c + 4 <= out.len() {
        let (p0, s0) = v.plane_parts(row0 + c);
        let (p1, s1) = v.plane_parts(row0 + c + 1);
        let (p2, s2) = v.plane_parts(row0 + c + 2);
        let (p3, s3) = v.plane_parts(row0 + c + 3);
        let sums = runs_dot([p0, p1, p2, p3], [s0, s1, s2, s3], runs, s);
        for (o, sum) in out[c..c + 4].iter_mut().zip(sums) {
            *o += sum;
        }
        c += 4;
    }
    while c < out.len() {
        let (p, sf) = v.plane_parts(row0 + c);
        out[c] += runs_dot([p], [sf], runs, s)[0];
        c += 1;
    }
}

/// `⟨s, plane[runs]⟩` for `K` planes (`pre[k] ++ suf[k]`) at once, with
/// the exact grouping of `matrix::dot_unrolled_body` over the compact
/// index `i`: column `i` below `main` accumulates into lane `i % LANES` of
/// its plane — whole chunks through [`lanes_acc`], the ragged ends of a
/// piece lane by lane, which is the same per-lane order — and the last
/// `s.len() % LANES` columns are added after the fixed-tree fold, ascending.
#[inline(always)]
fn runs_dot<const K: usize>(
    pre: [&[f32]; K],
    suf: [&[f32]; K],
    runs: &[Range<usize>],
    s: &[f32],
) -> [f32; K] {
    let main = s.len() / LANES * LANES;
    let mut acc = [[0.0f32; LANES]; K];
    let mut tail = [[0.0f32; LANES]; K];
    let mut i = 0;
    for run in runs {
        for (block, piece) in [&pre, &suf].into_iter().zip(split_run(run, pre[0].len())) {
            let len = piece.len();
            let mut src = *block;
            for plane in &mut src {
                *plane = &plane[piece.clone()];
            }
            let m = len.min(main.saturating_sub(i));
            let head = (i.wrapping_neg() % LANES).min(m);
            let full = (m - head) / LANES * LANES;
            // Ragged head, whole chunks, ragged rest: ascending compact
            // index within every lane.
            let mut mid = src;
            for plane in &mut mid {
                *plane = &plane[head..head + full];
            }
            lane_wise(&mut acc, s, &src, i, 0..head);
            lanes_acc(&mut acc, &s[i + head..i + head + full], mid);
            lane_wise(&mut acc, s, &src, i, head + full..m);
            for t in m..len {
                for k in 0..K {
                    tail[k][i + t - main] = src[k][t];
                }
            }
            i += len;
        }
    }
    let mut sums = [0.0f32; K];
    for k in 0..K {
        sums[k] = fold_lanes(acc[k], &s[main..], &tail[k]);
    }
    sums
}

/// Columns `ts` of a piece that starts at compact index `i`, one at a time
/// into the lane each belongs to.
#[inline(always)]
fn lane_wise<const K: usize>(
    acc: &mut [[f32; LANES]; K],
    s: &[f32],
    src: &[&[f32]; K],
    i: usize,
    ts: Range<usize>,
) {
    for t in ts {
        for k in 0..K {
            acc[k][(i + t) % LANES] += s[i + t] * src[k][t];
        }
    }
}

/// `acc[k][l] += s[i + l] · src[k][i + l]` over the `LANES`-chunks of `s`
/// (whose length is a multiple of `LANES` and equals every `src[k]`'s).
#[inline(always)]
fn lanes_acc<const K: usize>(acc: &mut [[f32; LANES]; K], s: &[f32], src: [&[f32]; K]) {
    // Lock-step chunk iterators, not indexing: this is the shape LLVM
    // turns into one full-width vector multiply-add per plane.
    let mut chunks = src.map(|v| v.chunks_exact(LANES));
    let mut a = *acc;
    for ps in s.chunks_exact(LANES) {
        for k in 0..K {
            let pv = chunks[k].next().expect("src[k] as long as s");
            for l in 0..LANES {
                a[k][l] += ps[l] * pv[l];
            }
        }
    }
    *acc = a;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn random_block(rows: usize, cols: usize, rng: &mut SmallRng) -> ColBlock {
        let mut b = ColBlock::new(rows);
        for _ in 0..cols {
            let col: Vec<f32> = (0..rows).map(|_| rng.gen_range(-1.0..1.0)).collect();
            b.push_col(&col);
        }
        b
    }

    #[test]
    fn from_planes_inverts_plane_serialization() {
        let mut rng = SmallRng::seed_from_u64(11);
        let b = random_block(5, 9, &mut rng);
        let mut flat = Vec::new();
        for r in 0..b.rows() {
            flat.extend_from_slice(b.plane(r));
        }
        let back = ColBlock::from_planes(5, 9, &flat);
        assert_eq!(back.rows(), 5);
        assert_eq!(back.len(), 9);
        assert_eq!(back.capacity(), 9);
        for r in 0..5 {
            assert_eq!(back.plane(r), b.plane(r), "plane {r}");
        }
        // A rebuilt block keeps working as an appendable block.
        let mut back = back;
        back.push_col(&[1.0; 5]);
        assert_eq!(back.len(), 10);
        assert_eq!(back.plane(2)[9], 1.0);
    }

    #[test]
    #[should_panic(expected = "rows * cols")]
    fn from_planes_rejects_wrong_length() {
        let _ = ColBlock::from_planes(3, 4, &[0.0; 11]);
    }

    /// Contiguous `rows × len` matrix with the same contents as the virtual
    /// concatenation — the oracle the split kernels must match bitwise.
    fn concat_matrix(pre: Option<&ColBlock>, suf: &ColBlock) -> Matrix {
        let rows = suf.rows();
        let n = pre.map_or(0, ColBlock::len) + suf.len();
        let mut m = Matrix::zeros(rows, n);
        let view = SplitCols::new(pre, suf);
        for r in 0..rows {
            for j in 0..n {
                m.set(r, j, view.at(r, j));
            }
        }
        m
    }

    #[test]
    fn push_grow_and_read_back() {
        let mut b = ColBlock::new(3);
        for j in 0..37 {
            b.push_col(&[j as f32, -(j as f32), 0.5 * j as f32]);
        }
        assert_eq!(b.len(), 37);
        assert_eq!(b.plane(1)[20], -20.0);
        assert_eq!(b.col(36), vec![36.0, -36.0, 18.0]);
        b.set_col(5, &[9.0, 9.0, 9.0]);
        assert_eq!(b.col(5), vec![9.0; 3]);
    }

    #[test]
    fn extend_matches_pushing() {
        let mut rng = SmallRng::seed_from_u64(7);
        let a = random_block(4, 11, &mut rng);
        let b = random_block(4, 6, &mut rng);
        let mut joined = a.clone();
        joined.extend_from(&b);
        assert_eq!(joined.len(), 17);
        for j in 0..17 {
            let want = if j < 11 { a.col(j) } else { b.col(j - 11) };
            assert_eq!(joined.col(j), want);
        }
    }

    #[test]
    fn clone_compacts_and_equality_ignores_capacity() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut a = random_block(2, 5, &mut rng);
        a.reserve_cols(100);
        let c = a.clone();
        assert_eq!(c.capacity(), 5);
        assert_eq!(a, c);
        assert!(a.resident_bytes() > c.resident_bytes());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut a = random_block(2, 20, &mut rng);
        let cap = a.capacity();
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.capacity(), cap);
    }

    /// Random ascending, disjoint (possibly adjacent or empty) runs inside
    /// `0..n`.
    fn random_runs(n: usize, rng: &mut SmallRng) -> Vec<Range<usize>> {
        let mut runs = Vec::new();
        let mut at = 0;
        while at < n && runs.len() < 6 {
            let start = rng.gen_range(at..n + 1);
            let end = rng.gen_range(start..n + 1);
            runs.push(start..end);
            at = end;
        }
        runs
    }

    /// Contiguous copy of the run columns — the compact layout the run
    /// kernels must reproduce bitwise.
    fn gather_runs(flat: &Matrix, runs: &[Range<usize>]) -> Matrix {
        let cols: Vec<usize> = runs.iter().flat_map(|r| r.clone()).collect();
        let mut m = Matrix::zeros(flat.rows(), cols.len());
        for r in 0..flat.rows() {
            for (j, &c) in cols.iter().enumerate() {
                m.set(r, j, flat.get(r, c));
            }
        }
        m
    }

    /// The run kernels must be bit-identical to the contiguous kernels
    /// over a gathered copy of the run columns, for every split point and
    /// run layout — chunk-aligned splits, runs straddling the split, runs
    /// shorter than a chunk, empty runs, and the full causal window.
    #[test]
    fn run_kernels_bit_match_contiguous_gather() {
        let mut rng = SmallRng::seed_from_u64(42);
        for &(rows, p_cols, s_cols) in &[
            (8usize, 0usize, 5usize),
            (8, 3, 1),
            (8, 8, 8),
            (8, 13, 29),
            (16, 48, 200),
            (6, 17, 7),
            (4, 1, 40),
        ] {
            let pre = (p_cols > 0).then(|| random_block(rows, p_cols, &mut rng));
            let suf = random_block(rows, s_cols, &mut rng);
            let view = SplitCols::new(pre.as_ref(), &suf);
            let flat = concat_matrix(pre.as_ref(), &suf);
            let n = p_cols + s_cols;
            let mut layouts = vec![vec![0..n], vec![0..1], vec![0..p_cols, p_cols..n]];
            layouts.extend((0..8).map(|_| random_runs(n, &mut rng)));
            for runs in layouts {
                let packed = gather_runs(&flat, &runs);
                let s: Vec<f32> = (0..packed.cols())
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                let mut got = vec![0.1f32; rows];
                let mut want = vec![0.1f32; rows];
                view.rows_dot_acc(0, &runs, &s, &mut got);
                packed.rows_dot_acc(&s, &mut want);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "rows_dot_acc {runs:?}");
                }
                // Two coefficients at once: one compact row each.
                let coeffs = [0.37f32, -1.25];
                let mut got = vec![0.0f32; 2 * s.len()];
                view.axpy_plane(rows - 1, &runs, coeffs.into_iter(), &mut got);
                for (g, &coeff) in coeffs.iter().enumerate() {
                    let mut want = vec![0.0f32; s.len()];
                    axpy(&mut want, coeff, packed.row(rows - 1));
                    let got = &got[g * s.len()..(g + 1) * s.len()];
                    assert_eq!(bits(got), bits(&want), "axpy_plane {runs:?}");
                }
            }
        }
    }

    /// Every SIMD tier present on this CPU runs the same arithmetic as the
    /// baseline body (the dispatcher only ever picks the widest).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_x86_tier_of_rows_dot_acc_is_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(45);
        let pre = random_block(7, 21, &mut rng);
        let suf = random_block(7, 38, &mut rng);
        let view = SplitCols::new(Some(&pre), &suf);
        let runs = [2..19, 20..23, 30..59];
        let s: Vec<f32> = (0..49).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut gold = vec![0.0f32; 7];
        runs_dot_acc_body(view, 0, &runs, &s, &mut gold);
        if std::arch::is_x86_feature_detected!("avx512f") {
            let mut got = vec![0.0f32; 7];
            // SAFETY: AVX-512F support was just verified at runtime.
            unsafe { runs_dot_acc_avx512(view, 0, &runs, &s, &mut got) };
            assert_eq!(bits(&got), bits(&gold), "avx512f");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut got = vec![0.0f32; 7];
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { runs_dot_acc_avx2(view, 0, &runs, &s, &mut got) };
            assert_eq!(bits(&got), bits(&gold), "avx2");
        }
    }

    #[test]
    fn rows_dot_acc_respects_row_offset() {
        let mut rng = SmallRng::seed_from_u64(43);
        let pre = random_block(12, 10, &mut rng);
        let suf = random_block(12, 9, &mut rng);
        let view = SplitCols::new(Some(&pre), &suf);
        let flat = concat_matrix(Some(&pre), &suf);
        let s: Vec<f32> = (0..19).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut got = vec![0.0f32; 4];
        view.rows_dot_acc(4, std::slice::from_ref(&(0..19)), &s, &mut got);
        for (c, g) in got.iter().enumerate() {
            let want = crate::ops::dot_fast(&s, flat.row(4 + c));
            assert_eq!(g.to_bits(), want.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn push_col_rejects_wrong_width() {
        let mut b = ColBlock::new(3);
        b.push_col(&[1.0, 2.0]);
    }
}
