//! Column-appendable transposed-packed storage, its run kernels and the
//! group attention kernel.
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
//! concatenation. Its kernels read only the virtual-column *runs* a
//! bipartite mask row allows and index their score operand *compactly* (by
//! position among the allowed columns). The row-level pair
//! ([`SplitCols::axpy_plane`], [`SplitCols::rows_dot_acc`]) defines the
//! arithmetic: it reproduces the contiguous kernels over a gathered copy of
//! those columns **bit-for-bit** — `axpy` is element-wise, so sweeping it
//! piece by piece cannot change a bit, and the dot kernel replicates
//! [`crate::matrix`]'s exact `LANES`-chunk grouping over the compact index:
//! whole chunks stream from the block that owns them, the ragged ends of a
//! piece go lane by lane, and the scalar tail walks ascending compact
//! indices. A row's result therefore depends on its allowed keys alone: not
//! on the masked columns between them, nor on where the prefix/suffix split
//! falls.
//!
//! [`GroupAttention`] is what the forward runs: the same per-row arithmetic
//! for all query heads that share a KV head in one kernel, with the score
//! accumulation held in registers and each K/V chunk loaded once per head
//! tile instead of once per head (see [`GroupAttention::attend`]).

use crate::matrix::{fold_lanes, LANES};
use crate::ops::{axpy, fast_silu_in_place_body, softmax_fast_given_max};
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

    /// The contiguous pieces of virtual-column `run`, in compact order:
    /// its columns in the prefix block, then its columns in the suffix
    /// block, each with the block that owns them and in block-local
    /// indices — `None` for an empty piece, on which the kernels make no
    /// call. (An array per run, not one iterator over all runs: a
    /// `flat_map` chain is not inlined into the SIMD-tier clones.)
    ///
    /// # Panics
    ///
    /// Panics if the run overruns the view.
    #[inline(always)]
    fn pieces(self, run: &Range<usize>) -> [Option<(&'a ColBlock, Range<usize>)>; 2] {
        let p = self.pre.map_or(0, ColBlock::len);
        let piece = |block: Option<&'a ColBlock>, cols: Range<usize>| {
            let block = block.filter(|_| !cols.is_empty())?;
            assert!(cols.end <= block.len(), "run overruns the packed block");
            Some((block, cols))
        };
        [
            piece(self.pre, run.start.min(p)..run.end.min(p)),
            piece(Some(self.suf), run.start.max(p) - p..run.end.max(p) - p),
        ]
    }

    /// `out[j] += coeff · plane(r)[col(j)]`, where `col` walks the virtual
    /// columns of `runs` (ascending, disjoint half-open ranges) in order
    /// and `j` is the *compact* index — the position among the run
    /// columns. The row-level definition of the attention score
    /// accumulation: `axpy` is element-wise, so running it per contiguous
    /// piece is the same arithmetic as one sweep over a gathered copy.
    ///
    /// # Panics
    ///
    /// Panics if a run overruns the view or the runs' total length is not
    /// `out.len()`.
    pub fn axpy_plane(&self, r: usize, runs: &[Range<usize>], coeff: f32, out: &mut [f32]) {
        assert_eq!(
            runs.iter().map(Range::len).sum::<usize>(),
            out.len(),
            "axpy_plane runs/output length mismatch"
        );
        let mut at = 0;
        for (block, cols) in runs.iter().flat_map(|run| self.pieces(run)).flatten() {
            let src = &block.plane(r)[cols];
            axpy(&mut out[at..at + src.len()], coeff, src);
            at += src.len();
        }
    }

    /// `out[c] += ⟨s, plane(row0 + c)[runs]⟩` with `s` indexed compactly
    /// (see [`SplitCols::axpy_plane`]) — the row-level definition of the
    /// attention value accumulation over exactly the keys a mask row
    /// allows. Bit-identical to
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

/// One score row, four planes per pass: the `H = 1` case of the tile the
/// group kernel runs.
#[inline(always)]
fn runs_dot_acc_body(
    v: SplitCols<'_>,
    row0: usize,
    runs: &[Range<usize>],
    s: &[f32],
    out: &mut [f32],
) {
    rows_dot_acc_tile::<1, 4>(v, row0, runs, [s], out);
}

/// `out[h · d + c] += ⟨s[h], plane(row0 + c)[runs]⟩` for `H` compact score
/// rows against the same `d = out.len() / H` planes, `P` planes per pass:
/// each plane chunk is loaded once for all `H` rows and each score chunk
/// once for all `P` planes. Every `(row, plane)` pair keeps its own lane
/// accumulators, so no sum is reassociated and the tile shape moves speed
/// only; `H × P = 8` accumulators is what a 16-register SIMD file holds
/// next to the operand chunks.
#[inline(always)]
fn rows_dot_acc_tile<const H: usize, const P: usize>(
    v: SplitCols<'_>,
    row0: usize,
    runs: &[Range<usize>],
    s: [&[f32]; H],
    out: &mut [f32],
) {
    let d = out.len() / H;
    let mut c = 0;
    while c + P <= d {
        let sums = runs_dot::<H, P>(v, row0 + c, runs, s);
        for h in 0..H {
            for p in 0..P {
                out[h * d + c + p] += sums[h][p];
            }
        }
        c += P;
    }
    while c < d {
        let sums = runs_dot::<H, 1>(v, row0 + c, runs, s);
        for h in 0..H {
            out[h * d + c] += sums[h][0];
        }
        c += 1;
    }
}

/// `⟨s[h], plane(row + p)[runs]⟩` for `H` score rows × `P` planes at once,
/// with the exact grouping of `matrix::dot_unrolled_body` over the compact
/// index `i`: column `i` below `main` accumulates into lane `i % LANES` of
/// its `(row, plane)` pair — whole chunks through [`lanes_acc`], the ragged
/// ends of a piece lane by lane, which is the same per-lane order — and the
/// last `n % LANES` columns are added after the fixed-tree fold, ascending.
#[inline(always)]
fn runs_dot<const H: usize, const P: usize>(
    v: SplitCols<'_>,
    row: usize,
    runs: &[Range<usize>],
    s: [&[f32]; H],
) -> [[f32; P]; H] {
    let n = s[0].len();
    let main = n / LANES * LANES;
    let mut acc = [[[0.0f32; LANES]; P]; H];
    let mut tail = [[0.0f32; LANES]; P];
    let mut i = 0;
    for (block, cols) in runs.iter().flat_map(|run| v.pieces(run)).flatten() {
        let len = cols.len();
        // Plain loops over the tile's arrays here and below, not
        // `array::map`: its closures are not reliably inlined into the
        // SIMD-tier clones, and an out-of-line call runs at baseline width.
        let mut src: [&[f32]; P] = [&[]; P];
        for (p, plane) in src.iter_mut().enumerate() {
            *plane = &block.plane(row + p)[cols.clone()];
        }
        let m = len.min(main.saturating_sub(i));
        let head = (i.wrapping_neg() % LANES).min(m);
        let full = (m - head) / LANES * LANES;
        // Ragged head, whole chunks, ragged rest: ascending compact index
        // within every lane.
        lane_wise(&mut acc, &s, &src, i, 0..head);
        let (mut s_full, mut v_full) = (s, src);
        for row in &mut s_full {
            *row = &row[i + head..i + head + full];
        }
        for plane in &mut v_full {
            *plane = &plane[head..head + full];
        }
        lanes_acc(&mut acc, &s_full, &v_full, full);
        lane_wise(&mut acc, &s, &src, i, head + full..m);
        for t in m..len {
            for p in 0..P {
                tail[p][i + t - main] = src[p][t];
            }
        }
        i += len;
    }
    let mut sums = [[0.0f32; P]; H];
    for h in 0..H {
        for p in 0..P {
            sums[h][p] = fold_lanes(acc[h][p], &s[h][main..], &tail[p]);
        }
    }
    sums
}

/// Columns `ts` of a piece that starts at compact index `i`, one at a time
/// into the lane each belongs to.
#[inline(always)]
fn lane_wise<const H: usize, const P: usize>(
    acc: &mut [[[f32; LANES]; P]; H],
    s: &[&[f32]; H],
    src: &[&[f32]; P],
    i: usize,
    ts: Range<usize>,
) {
    for t in ts {
        for h in 0..H {
            for p in 0..P {
                acc[h][p][(i + t) % LANES] += s[h][i + t] * src[p][t];
            }
        }
    }
}

/// `acc[h][p][l] += s[h][t + l] · src[p][t + l]` a `LANES`-chunk at a time,
/// over operands that all have length `len`, a multiple of `LANES`.
#[inline(always)]
fn lanes_acc<const H: usize, const P: usize>(
    acc: &mut [[[f32; LANES]; P]; H],
    s: &[&[f32]; H],
    src: &[&[f32]; P],
    len: usize,
) {
    // Equal lengths, re-stated so the chunk slices below need no checks.
    let (mut s, mut src) = (*s, *src);
    for row in &mut s {
        *row = &row[..len];
    }
    for plane in &mut src {
        *plane = &plane[..len];
    }
    const ZERO: &[f32; LANES] = &[0.0; LANES];
    let mut a = *acc;
    for t in (0..len / LANES).map(|k| k * LANES) {
        let (mut ps, mut pv) = ([ZERO; H], [ZERO; P]);
        for h in 0..H {
            ps[h] = s[h][t..t + LANES].try_into().unwrap();
        }
        for p in 0..P {
            pv[p] = src[p][t..t + LANES].try_into().unwrap();
        }
        for h in 0..H {
            for p in 0..P {
                for l in 0..LANES {
                    a[h][p][l] += ps[h][l] * pv[p][l];
                }
            }
        }
    }
    *acc = a;
}

/// Keys per pass of the score kernel: one 512-bit vector of f32, two
/// 256-bit ones. The score accumulation is element-wise, so the width moves
/// speed only.
const KEYS: usize = 16;

/// How a compact row of scaled scores becomes attention weights. A type,
/// not a closure: the `#[inline(always)]` method is cloned into each SIMD
/// tier of the kernel with the tier's vector width, where a closure's call
/// may be left out of line at the baseline width.
pub trait RowWeights {
    /// Turns `scores` into weights in place; `max` is the row's maximum.
    fn weigh(scores: &mut [f32], max: f32);
}

/// Softmax attention: [`softmax_fast_given_max`].
pub struct Softmax;

impl RowWeights for Softmax {
    #[inline(always)]
    fn weigh(scores: &mut [f32], max: f32) {
        softmax_fast_given_max(scores, max);
    }
}

/// HSTU's pointwise attention: SiLU of each score
/// ([`crate::ops::fast_silu`]).
pub struct Silu;

impl RowWeights for Silu {
    #[inline(always)]
    fn weigh(scores: &mut [f32], _max: f32) {
        fast_silu_in_place_body(scores);
    }
}

/// One layer's packed keys and values as the attention kernel reads them.
///
/// [`GroupAttention::attend`] is the attention of one token row for all
/// query heads that share a KV head — the fused form of the row-level
/// composition `axpy_plane` per K plane → `*= scale` → weigh →
/// `rows_dot_acc`, and bit-identical to it.
#[derive(Clone, Copy)]
pub struct GroupAttention<'a> {
    /// Packed keys, `kv_heads × head_dim` planes.
    pub keys: SplitCols<'a>,
    /// Packed values, same shape.
    pub vals: SplitCols<'a>,
    /// Planes per head.
    pub head_dim: usize,
    /// Score scale, `1 / √head_dim`.
    pub scale: f32,
}

impl GroupAttention<'_> {
    /// Attention of the `q.len() / head_dim` query heads `q` (back to back)
    /// that share KV head `kv_head`, over the allowed key `runs` of one
    /// token row, accumulated into `out` (one `head_dim` slice per head).
    ///
    /// Heads go through in register tiles of 4, 2 and 1; per tile:
    ///
    /// 1. **Scores.** Each run piece is walked in [`KEYS`]-key chunks. The
    ///    `head_dim` K-plane chunks are loaded once and every head of the
    ///    tile accumulates `Σ_c q[c]·K[c][j]` (from `0.0`, ascending `c`,
    ///    separate multiply and add) in registers, multiplies by `scale`,
    ///    stores the score once and keeps a running maximum (a maximum does
    ///    not depend on the order it is taken in).
    /// 2. **Weights.** `W::weigh(row, max)` turns each compact score row
    ///    into attention weights in place ([`Softmax`], [`Silu`]).
    /// 3. **P·V.** Each 8-key V chunk is loaded once and applied to the lane
    ///    accumulators of every head of the tile, in the compact-index lane
    ///    order of [`SplitCols::rows_dot_acc`].
    ///
    /// Per-row arithmetic is that of the row-level composition, operation
    /// for operation, so the result is bit-identical to it on every SIMD
    /// tier; the tile sizes move speed only. `scratch` holds the tile's
    /// compact rows (`4 × n` floats at most, grown on demand and never
    /// shrunk); a row with no allowed key leaves `out` untouched.
    ///
    /// # Panics
    ///
    /// Panics if `q` and `out` differ in length or are not whole heads, if
    /// the KV head's planes overrun the views, or if a run overruns them.
    pub fn attend<W: RowWeights>(
        &self,
        kv_head: usize,
        runs: &[Range<usize>],
        q: &[f32],
        scratch: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let d = self.head_dim;
        assert_eq!(q.len(), out.len(), "one output slice per query head");
        assert_eq!(q.len() % d, 0, "query heads must be whole");
        assert!(
            (kv_head + 1) * d <= self.keys.rows().min(self.vals.rows()),
            "KV head overruns the packed planes"
        );
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F support was just verified at runtime.
                return unsafe { attend_avx512::<W>(self, kv_head, runs, q, scratch, out) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just verified at runtime.
                return unsafe { attend_avx2::<W>(self, kv_head, runs, q, scratch, out) };
            }
        }
        #[cfg(target_arch = "aarch64")]
        if std::arch::is_aarch64_feature_detected!("neon") {
            // SAFETY: NEON support was just verified at runtime.
            return unsafe { attend_neon::<W>(self, kv_head, runs, q, scratch, out) };
        }
        attend_body::<W>(self, kv_head, runs, q, scratch, out)
    }
}

/// [`GroupAttention::attend`]'s body compiled with AVX-512F enabled (see
/// `matrix::fold_rows_into_avx2` for why the body must be
/// `#[inline(always)]`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn attend_avx512<W: RowWeights>(
    ga: &GroupAttention<'_>,
    kv_head: usize,
    runs: &[Range<usize>],
    q: &[f32],
    scratch: &mut Vec<f32>,
    out: &mut [f32],
) {
    attend_body::<W>(ga, kv_head, runs, q, scratch, out)
}

/// [`GroupAttention::attend`]'s body compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn attend_avx2<W: RowWeights>(
    ga: &GroupAttention<'_>,
    kv_head: usize,
    runs: &[Range<usize>],
    q: &[f32],
    scratch: &mut Vec<f32>,
    out: &mut [f32],
) {
    attend_body::<W>(ga, kv_head, runs, q, scratch, out)
}

/// [`GroupAttention::attend`]'s body compiled with NEON enabled (aarch64).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn attend_neon<W: RowWeights>(
    ga: &GroupAttention<'_>,
    kv_head: usize,
    runs: &[Range<usize>],
    q: &[f32],
    scratch: &mut Vec<f32>,
    out: &mut [f32],
) {
    attend_body::<W>(ga, kv_head, runs, q, scratch, out)
}

/// The descending head-tile ladder over one group: 4, 2, 1.
#[inline(always)]
fn attend_body<W: RowWeights>(
    ga: &GroupAttention<'_>,
    kv_head: usize,
    runs: &[Range<usize>],
    q: &[f32],
    scratch: &mut Vec<f32>,
    out: &mut [f32],
) {
    let n: usize = runs.iter().map(Range::len).sum();
    if n == 0 {
        return; // fully-masked row: attention output stays as it is
    }
    let d = ga.head_dim;
    let group = q.len() / d;
    let rows = group.min(4) * n;
    if scratch.len() < rows {
        scratch.resize(rows, 0.0);
    }
    let row0 = kv_head * d;
    let mut g = 0;
    while group - g >= 4 {
        let heads = g * d..(g + 4) * d;
        attend_tile::<4, 2, W>(
            ga,
            row0,
            runs,
            &q[heads.clone()],
            &mut scratch[..4 * n],
            &mut out[heads],
        );
        g += 4;
    }
    if group - g >= 2 {
        let heads = g * d..(g + 2) * d;
        attend_tile::<2, 4, W>(
            ga,
            row0,
            runs,
            &q[heads.clone()],
            &mut scratch[..2 * n],
            &mut out[heads],
        );
        g += 2;
    }
    if group > g {
        let heads = g * d..(g + 1) * d;
        attend_tile::<1, 4, W>(
            ga,
            row0,
            runs,
            &q[heads.clone()],
            &mut scratch[..n],
            &mut out[heads],
        );
    }
}

/// One register tile of [`GroupAttention::attend`]: `H` heads (`q`, `out`
/// and the compact rows `s` hold `H` slices back to back), `P` value planes
/// per P·V pass.
#[inline(always)]
fn attend_tile<const H: usize, const P: usize, W: RowWeights>(
    ga: &GroupAttention<'_>,
    row0: usize,
    runs: &[Range<usize>],
    q: &[f32],
    s: &mut [f32],
    out: &mut [f32],
) {
    let n = s.len() / H;
    let max = score_tile::<H>(ga, row0, runs, q, s);
    for (row, max) in s.chunks_exact_mut(n).zip(max) {
        W::weigh(row, max);
    }
    let mut rows: [&[f32]; H] = [&[]; H];
    for h in 0..H {
        rows[h] = &s[h * n..(h + 1) * n];
    }
    rows_dot_acc_tile::<H, P>(ga.vals, row0, runs, rows, out);
}

/// The larger of a running maximum `m` (never NaN) and `x`, or `m` when `x`
/// is NaN: `f32::max`'s value for these operands as one compare-select —
/// one vector `max` instruction, where `f32::max` pays a NaN test and a
/// blend on top for the case (`m` NaN) that cannot arise.
#[inline(always)]
fn max_skip_nan(m: f32, x: f32) -> f32 {
    if x > m {
        x
    } else {
        m
    }
}

/// Scaled scores of `H` heads over `runs` into the compact rows `s`, and
/// each row's maximum over its non-NaN scores (`-inf` when it has none).
// `c` walks the K planes and every head's coefficients in step.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn score_tile<const H: usize>(
    ga: &GroupAttention<'_>,
    row0: usize,
    runs: &[Range<usize>],
    q: &[f32],
    s: &mut [f32],
) -> [f32; H] {
    let d = ga.head_dim;
    let n = s.len() / H;
    let mut heads: [&[f32]; H] = [&[]; H];
    for h in 0..H {
        heads[h] = &q[h * d..(h + 1) * d];
    }
    let mut max = [[f32::NEG_INFINITY; KEYS]; H];
    let mut at = 0;
    for (block, cols) in runs.iter().flat_map(|run| ga.keys.pieces(run)).flatten() {
        // Component `c` of key `cols.start + j` sits at `base + c * cap + j`.
        let (cap, base) = (block.cap, row0 * block.cap + cols.start);
        let mut j = 0;
        while j + KEYS <= cols.len() {
            let mut acc = [[0.0f32; KEYS]; H];
            for c in 0..d {
                let k: &[f32; KEYS] = block.data[base + c * cap + j..][..KEYS]
                    .try_into()
                    .expect("a KEYS-long slice");
                for h in 0..H {
                    let qc = heads[h][c];
                    for l in 0..KEYS {
                        acc[h][l] += qc * k[l];
                    }
                }
            }
            for h in 0..H {
                let dst = &mut s[h * n + at + j..][..KEYS];
                for l in 0..KEYS {
                    let score = acc[h][l] * ga.scale;
                    dst[l] = score;
                    max[h][l] = max_skip_nan(max[h][l], score);
                }
            }
            j += KEYS;
        }
        // The ragged end of the piece, key by key: same sum, one lane.
        while j < cols.len() {
            for h in 0..H {
                let mut acc = 0.0f32;
                for c in 0..d {
                    acc += heads[h][c] * block.data[base + c * cap + j];
                }
                let score = acc * ga.scale;
                s[h * n + at + j] = score;
                max[h][0] = max_skip_nan(max[h][0], score);
            }
            j += 1;
        }
        at += cols.len();
    }
    // Halving fold: four dependent steps per row, not `KEYS`.
    let mut width = KEYS / 2;
    while width > 0 {
        for row in &mut max {
            for l in 0..width {
                row[l] = max_skip_nan(row[l], row[l + width]);
            }
        }
        width /= 2;
    }
    let mut row_max = [0.0f32; H];
    for (row_max, lanes) in row_max.iter_mut().zip(&max) {
        *row_max = lanes[0];
    }
    row_max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::stable_softmax_fast_in_place;
    use crate::Matrix;
    use proptest::prelude::*;
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
                let mut got = vec![0.25f32; s.len()];
                let mut want = got.clone();
                view.axpy_plane(rows - 1, &runs, -1.25, &mut got);
                axpy(&mut want, -1.25, packed.row(rows - 1));
                assert_eq!(bits(&got), bits(&want), "axpy_plane {runs:?}");
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

    /// The row-level composition the group kernel must reproduce bit for
    /// bit: per head, `axpy_plane` per K plane from a zeroed row, `*=
    /// scale`, softmax, `rows_dot_acc` — every step through its own public
    /// dispatcher. Returns the heads' weight rows back to back.
    fn attend_per_head(
        kv: &GroupAttention<'_>,
        kv_head: usize,
        runs: &[Range<usize>],
        q: &[f32],
        out: &mut [f32],
    ) -> Vec<f32> {
        let d = kv.head_dim;
        let n: usize = runs.iter().map(Range::len).sum();
        let mut weights = Vec::new();
        if n == 0 {
            return weights;
        }
        for (q, out) in q.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
            let mut s = vec![0.0f32; n];
            for (c, &qc) in q.iter().enumerate() {
                kv.keys.axpy_plane(kv_head * d + c, runs, qc, &mut s);
            }
            s.iter_mut().for_each(|x| *x *= kv.scale);
            stable_softmax_fast_in_place(&mut s);
            kv.vals.rows_dot_acc(kv_head * d, runs, &s, out);
            weights.extend_from_slice(&s);
        }
        weights
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The group kernel is the per-head composition, bit for bit: any
        /// group size the tile ladder splits differently (1, 2, 6 → 4 + 2),
        /// both head widths, either KV head, with and without a prefix,
        /// over rows shorter than a lane chunk, rows that are no multiple
        /// of the score chunk, runs straddling the split, single-key
        /// private runs and empty runs.
        #[test]
        fn group_kernel_bit_matches_the_per_head_composition(seed in 0u64..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let group = [1usize, 2, 6][rng.gen_range(0..3)];
            let d = [8usize, 16][rng.gen_range(0..2)];
            let p_cols = [0usize, 0, 3, 8, 13, 40][rng.gen_range(0..6)];
            let s_cols = [1usize, 2, 5, 7, 16, 29, 61][rng.gen_range(0..7)];
            let kv_heads = 2;
            let blocks: Vec<ColBlock> = [p_cols, p_cols, s_cols, s_cols]
                .iter()
                .map(|&cols| random_block(kv_heads * d, cols, &mut rng))
                .collect();
            let kv = GroupAttention {
                keys: SplitCols::new((p_cols > 0).then_some(&blocks[0]), &blocks[2]),
                vals: SplitCols::new((p_cols > 0).then_some(&blocks[1]), &blocks[3]),
                head_dim: d,
                scale: 1.0 / (d as f32).sqrt(),
            };
            let n = p_cols + s_cols;
            let mut layouts = vec![
                vec![0..n],
                vec![n - 1..n],
                vec![0..p_cols, p_cols..n],
                vec![0..p_cols, n - 1..n],
                vec![p_cols.saturating_sub(2)..(p_cols + 3).min(n)],
            ];
            layouts.extend((0..4).map(|_| random_runs(n, &mut rng)));
            let mut scratch = Vec::new();
            for runs in layouts {
                let kv_head = rng.gen_range(0..kv_heads);
                let q: Vec<f32> = (0..group * d).map(|_| rng.gen_range(-2.0..2.0)).collect();
                let mut got = vec![0.1f32; group * d];
                let mut want = got.clone();
                kv.attend::<Softmax>(kv_head, &runs, &q, &mut scratch, &mut got);
                attend_per_head(&kv, kv_head, &runs, &q, &mut want);
                prop_assert_eq!(
                    bits(&got), bits(&want), "group {} d {} runs {:?}", group, d, runs
                );
            }
        }

        /// PR 12's softmax edge rows through the fused path: whatever mix
        /// of ordinary, hugely negative, infinite and NaN scores a row
        /// holds — fully masked rows and a single live lane included —
        /// every weight the kernel leaves in its scratch is `0.0` or a
        /// normal number, the same bits the row-level composition yields,
        /// and the output is never NaN.
        #[test]
        fn group_kernel_weights_are_zero_or_normal(
            row in proptest::collection::vec((0u8..8, -90.0f32..90.0), 1..200),
        ) {
            let d = 8;
            // Scores equal plane 0 of the keys: q = e₀, scale 1, the other
            // planes zero (never multiplied by an infinity).
            let mut keys = ColBlock::new(d);
            let mut vals = ColBlock::new(d);
            for (j, &(kind, x)) in row.iter().enumerate() {
                let score = match kind {
                    0 => f32::NEG_INFINITY,
                    1 => f32::INFINITY,
                    2 => f32::NAN,
                    3 => -1e30,
                    _ => x,
                };
                let mut col = [0.0f32; 8];
                col[0] = score;
                keys.push_col(&col);
                vals.push_col(&[j as f32 * 0.01 - 0.5; 8]);
            }
            let kv = GroupAttention {
                keys: SplitCols::new(None, &keys),
                vals: SplitCols::new(None, &vals),
                head_dim: d,
                scale: 1.0,
            };
            let mut q = vec![0.0f32; 2 * d];
            (q[0], q[d]) = (1.0, 1.0);
            let all = 0..row.len();
            let runs = std::slice::from_ref(&all);
            let (mut scratch, mut got) = (Vec::new(), vec![0.0f32; 2 * d]);
            kv.attend::<Softmax>(0, runs, &q, &mut scratch, &mut got);
            let mut want = vec![0.0f32; 2 * d];
            let weights = attend_per_head(&kv, 0, runs, &q, &mut want);
            prop_assert_eq!(bits(&scratch[..2 * row.len()]), bits(&weights));
            prop_assert!(weights.iter().all(|w| *w == 0.0 || w.is_normal()), "{:?}", weights);
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert!(got.iter().all(|x| !x.is_nan()));
        }
    }

    /// Every SIMD tier of the group kernel present on this CPU runs the
    /// same arithmetic as the baseline body (the dispatcher only ever
    /// picks the widest): outputs and the weights left in the scratch.
    #[test]
    fn every_tier_of_the_group_kernel_is_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(46);
        let (d, group) = (8, 6);
        let blocks: Vec<ColBlock> = [21, 21, 38, 38]
            .iter()
            .map(|&cols| random_block(2 * d, cols, &mut rng))
            .collect();
        let kv = GroupAttention {
            keys: SplitCols::new(Some(&blocks[0]), &blocks[2]),
            vals: SplitCols::new(Some(&blocks[1]), &blocks[3]),
            head_dim: d,
            scale: 0.35,
        };
        let runs = [2..19, 20..23, 30..59];
        let q: Vec<f32> = (0..group * d).map(|_| rng.gen_range(-2.0..2.0)).collect();
        type Tier = unsafe fn(
            &GroupAttention<'_>,
            usize,
            &[Range<usize>],
            &[f32],
            &mut Vec<f32>,
            &mut [f32],
        );
        let run = |tier: Tier| {
            let (mut scratch, mut out) = (Vec::new(), vec![0.0f32; group * d]);
            // SAFETY: only tiers whose feature was detected are passed in.
            unsafe { tier(&kv, 1, &runs, &q, &mut scratch, &mut out) };
            (bits(&out), bits(&scratch))
        };
        let gold = run(attend_body::<Softmax>);
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                assert_eq!(run(attend_avx512::<Softmax>), gold, "avx512f");
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                assert_eq!(run(attend_avx2::<Softmax>), gold, "avx2");
            }
        }
        #[cfg(target_arch = "aarch64")]
        if std::arch::is_aarch64_feature_detected!("neon") {
            assert_eq!(run(attend_neon::<Softmax>), gold, "neon");
        }
        let mut dispatched = vec![0.0f32; group * d];
        kv.attend::<Softmax>(1, &runs, &q, &mut Vec::new(), &mut dispatched);
        assert_eq!(bits(&dispatched), gold.0, "dispatcher");
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
