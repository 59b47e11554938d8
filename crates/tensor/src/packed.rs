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
//! a chunk that lies inside one piece streams from the block that owns it,
//! one whose columns straddle pieces is first copied together (a copy of
//! exactly its columns — the column after a run may be a masked key, and a
//! block has no slack to over-read into) and then takes the same step, and
//! the tail walks ascending compact indices. A row's result therefore
//! depends on its allowed keys alone: not on the masked columns between
//! them, nor on where the prefix/suffix split falls.
//!
//! [`GroupAttention`] is what the forward runs: the same per-row arithmetic
//! for all query heads that share a KV head in one kernel, with the score
//! accumulation held in registers and each K/V chunk loaded once per head
//! tile instead of once per head (see [`GroupAttention::attend`]).

use crate::matrix::{halve, LANES};
use crate::ops::{axpy, fast_silu_in_place_body, softmax_exp_sum_rows};
use crate::simd::{tiered, Tier};
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
        Self::from_plane_vec(rows, cols, planes.to_vec())
    }

    /// [`ColBlock::from_planes`], taking the buffer.
    pub(crate) fn from_plane_vec(rows: usize, cols: usize, planes: Vec<f32>) -> Self {
        assert_eq!(
            planes.len(),
            rows * cols,
            "plane-major buffer length must be rows * cols"
        );
        ColBlock {
            rows,
            len: cols,
            cap: cols,
            data: planes,
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

/// `for_pieces!(view, runs, |block, cols| { … })` runs the body for every
/// non-empty piece ([`SplitCols::pieces`]) of every run, in compact order.
/// Plain loops: in a kernel past the inliner's budget the `next` of
/// `runs.iter().flat_map(…).flatten()` stays a call, once per piece, with
/// every vector register spilled around it.
macro_rules! for_pieces {
    ($view:expr, $runs:expr, |$block:ident, $cols:ident| $body:block) => {
        for run in $runs {
            let pieces = $view.pieces(run);
            for piece in 0..2 {
                if let Some(($block, $cols)) = &pieces[piece] {
                    $body
                }
            }
        }
    };
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
    /// call. The kernels walk them through [`for_pieces`].
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

    /// `out[j] = fma(coeff, plane(r)[col(j)], out[j])`, where `col` walks the
    /// virtual columns of `runs` (ascending, disjoint half-open ranges) in
    /// order and `j` is the *compact* index — the position among the run
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
        for_pieces!(self, runs, |block, cols| {
            let src = &block.plane(r)[cols.clone()];
            axpy(&mut out[at..at + src.len()], coeff, src);
            at += src.len();
        });
    }

    /// `out[c] += ⟨s, plane(row0 + c)[runs]⟩` with `s` indexed compactly
    /// (see [`SplitCols::axpy_plane`]) — the row-level definition of the
    /// attention value accumulation over exactly the keys a mask row
    /// allows. Bit-identical to [`crate::ops::dot_fast`] of `s` with a
    /// contiguous gathered copy of each plane's run columns: lanes,
    /// fixed-tree fold and ascending scalar tail are all assigned by
    /// compact index, so the result does not depend on where the runs lie
    /// or where the prefix/suffix split falls.
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
        runs_dot_acc(Tier::best(), *self, row0, runs, s, out)
    }
}

tiered! {
    fn runs_dot_acc(
        v: SplitCols<'_>,
        row0: usize,
        runs: &[Range<usize>],
        s: &[f32],
        out: &mut [f32],
    ) = runs_dot_acc_body
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
    rows_dot_acc_tile::<1, 4>(v, row0, runs, [s], &[1.0], out);
}

/// `out[h · d + c] = fma(⟨s[h], plane(row0 + c)[runs]⟩, factor[h],
/// out[h · d + c])` for `H` compact score rows against the same
/// `d = out.len() / H` planes, `P` planes per pass: each plane chunk is
/// loaded once for all `H` rows and each score chunk once for all `P`
/// planes. Every `(row, plane)` pair keeps its own lane accumulators, so no
/// sum is reassociated and the tile shape — a per-tier choice: `H × P`
/// sixteen-lane accumulators must fit the register file next to the
/// operand chunks — moves speed only.
#[inline(always)]
fn rows_dot_acc_tile<const H: usize, const P: usize>(
    v: SplitCols<'_>,
    row0: usize,
    runs: &[Range<usize>],
    s: [&[f32]; H],
    factor: &[f32],
    out: &mut [f32],
) {
    let d = out.len() / H;
    let mut c = 0;
    while c + P <= d {
        let sums = runs_dot::<H, P>(v, row0 + c, runs, s);
        for h in 0..H {
            for p in 0..P {
                let o = &mut out[h * d + c + p];
                *o = sums[h][p].mul_add(factor[h], *o);
            }
        }
        c += P;
    }
    single_planes(v, row0, runs, s, factor, out, c);
}

/// Planes `c ..` of [`rows_dot_acc_tile`] one at a time: a head dimension
/// that is no multiple of the tile's planes.
#[inline(always)]
fn single_planes<const H: usize>(
    v: SplitCols<'_>,
    row0: usize,
    runs: &[Range<usize>],
    s: [&[f32]; H],
    factor: &[f32],
    out: &mut [f32],
    mut c: usize,
) {
    let d = out.len() / H;
    while c < d {
        let sums = runs_dot::<H, 1>(v, row0 + c, runs, s);
        for h in 0..H {
            let o = &mut out[h * d + c];
            *o = sums[h][0].mul_add(factor[h], *o);
        }
        c += 1;
    }
}

/// P·V for `H` heads (a tile of the ladder, six included) in the AVX-512
/// clone, eight planes at a time: the block's tail columns are gathered
/// once, and each pair of heads — sixteen accumulators, eight planes each —
/// folds through one network (`fold.rs`), which then adds the tail columns
/// and updates `out` in registers. The accumulators come from two passes of
/// an `H × 4` tile, which the vectorizer keeps sixteen lanes wide: the even
/// planes, then the odd ones. Each pass takes its rows through the first
/// three levels of their pair's network at once — one register per pair
/// crosses the next pass, where sixteen accumulators would — and the last
/// level joins the two. A row with no whole chunk has no accumulation pass
/// and nothing to fold: its sums start at `+0.0`, which is what sixteen
/// `+0.0` lanes fold to. A head dimension that is no multiple of eight ends
/// one plane at a time.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn rows_dot_acc_wide<const H: usize>(
    v: SplitCols<'_>,
    row0: usize,
    runs: &[Range<usize>],
    s: [&[f32]; H],
    factor: &[f32],
    out: &mut [f32],
) {
    const ZERO: [[f32; LANES]; 4] = [[0.0; LANES]; 4];
    let (d, n) = (out.len() / H, s[0].len());
    let main = n / LANES * LANES;
    let mut c = 0;
    while c + 8 <= d {
        let row = row0 + c;
        // Each pair's network after its first three levels, per pass.
        let mut halves = [[[0.0f32; LANES]; 2]; 3];
        if main > 0 {
            for (g, plane) in [row, row + 1].into_iter().enumerate() {
                let acc = runs_acc::<H, 4>(v, plane, 2, runs, s);
                for (pair, heads) in halves.iter_mut().zip(acc.chunks(2)) {
                    let rows = [&heads[0], heads.get(1).unwrap_or(&ZERO)];
                    // SAFETY: a `WIDE` body runs only where AVX-512F was
                    // detected.
                    pair[g] = unsafe { crate::fold::pair_pass(rows) };
                }
            }
        }
        let tail = tail_starts(v, row, runs, main);
        // SAFETY: a `WIDE` body runs only where AVX-512F was detected.
        let columns = unsafe { crate::fold::gather_columns(&tail[..n - main]) };
        let mut h = 0;
        while h < H {
            let heads = (H - h).min(2);
            let (first, second) = out.split_at_mut((h + 1) * d);
            let chunks: [&mut [f32]; 2] = [
                &mut first[h * d + c..][..8],
                if heads == 2 {
                    &mut second[c..][..8]
                } else {
                    &mut []
                },
            ];
            let last = h + heads - 1;
            let weights = [&s[h][main..n], &s[last][main..n]];
            let halves = (main > 0).then_some(&halves[h / 2]);
            let columns = &columns[..n - main];
            // SAFETY: a `WIDE` body runs only where AVX-512F was detected.
            unsafe {
                crate::fold::values_fold(
                    halves,
                    columns,
                    weights,
                    [factor[h], factor[last]],
                    chunks,
                )
            };
            h += heads;
        }
        c += 8;
    }
    single_planes(v, row0, runs, s, factor, out, c);
}

/// `N` of a tile's weight rows as an array.
#[inline(always)]
fn head_rows<'s, const N: usize>(s: &[&'s [f32]]) -> [&'s [f32]; N] {
    s[..N].try_into().expect("N weight rows")
}

/// Where each column of `runs` from compact index `main` on — the last
/// `n % LANES` — starts: its plane `row` and everything after it in its
/// block, and the block's plane stride; plane `row + p` of tail column `t`
/// is `starts[t].0[p · starts[t].1]`. The entries past the tail are empty.
/// The one place both P·V paths find their tail: [`runs_dot`] reads it a
/// float at a time, the AVX-512 path a gather per column.
#[inline(always)]
fn tail_starts<'v>(
    v: SplitCols<'v>,
    row: usize,
    runs: &[Range<usize>],
    main: usize,
) -> [(&'v [f32], usize); LANES] {
    let mut starts: [(&[f32], usize); LANES] = [(&[], 0); LANES];
    let mut i = 0;
    for_pieces!(v, runs, |block, cols| {
        let len = cols.len();
        let base = row * block.cap + cols.start;
        for j in main.clamp(i, i + len) - i..len {
            starts[i + j - main] = (&block.data[base + j..], block.cap);
        }
        i += len;
    });
    starts
}

/// `⟨s[h], plane(row + p)[runs]⟩` for `H` score rows × `P` planes at once,
/// with the exact grouping of `matrix::dot_unrolled` over the compact
/// index `i`: [`runs_acc`]'s lane accumulators, the fixed-tree fold, then
/// the last `n % LANES` columns ascending ([`tail_starts`]), all `P` planes
/// of a row in step.
#[inline(always)]
fn runs_dot<const H: usize, const P: usize>(
    v: SplitCols<'_>,
    row: usize,
    runs: &[Range<usize>],
    s: [&[f32]; H],
) -> [[f32; P]; H] {
    let n = s[0].len();
    let main = n / LANES * LANES;
    let acc = runs_acc::<H, P>(v, row, 1, runs, s);
    // A fence: without it the vectorizer regroups the sixteen-lane
    // accumulators of the accumulation loop into four-plane vectors, one per
    // lane, to feed the folds below.
    let acc = std::hint::black_box(acc);
    let mut sums = [[0.0f32; P]; H];
    for h in 0..H {
        for p in 0..P {
            sums[h][p] = halve(acc[h][p]);
        }
    }
    let tail = tail_starts(v, row, runs, main);
    for (t, &(column, stride)) in tail[..n - main].iter().enumerate() {
        for h in 0..H {
            let weight = s[h][main + t];
            for p in 0..P {
                sums[h][p] = weight.mul_add(column[p * stride], sums[h][p]);
            }
        }
    }
    sums
}

/// The lane accumulators of [`runs_dot`]: column `i` below `main` (the
/// whole chunks) accumulates into lane `i % LANES` of its `(row, plane)`
/// pair by a fused multiply-add, a whole compact chunk per step — straight
/// from the block when one piece holds the chunk ([`lanes_acc`]), copied
/// together first when its columns straddle pieces, which is the same
/// operation on the same operands. The planes are `row + p · step`.
#[inline(always)]
fn runs_acc<const H: usize, const P: usize>(
    v: SplitCols<'_>,
    row: usize,
    step: usize,
    runs: &[Range<usize>],
    s: [&[f32]; H],
) -> [[[f32; LANES]; P]; H] {
    let n = s[0].len();
    let main = n / LANES * LANES;
    let mut acc = [[[0.0f32; LANES]; P]; H];
    // The chunk being copied together.
    let mut split = [[0.0f32; LANES]; P];
    let mut i = 0;
    for_pieces!(v, runs, |block, cols| {
        let len = cols.len();
        // Plain loops over the tile's arrays, not `array::map`: its closures
        // are not reliably inlined, and a call runs at baseline width.
        let mut src: [&[f32]; P] = [&[]; P];
        for (p, plane) in src.iter_mut().enumerate() {
            *plane = &block.plane(row + p * step)[cols.clone()];
        }
        // The piece's columns below `main`: the end of a chunk an earlier
        // piece began, whole chunks, the start of one it cannot finish.
        let below = len.min(main - i.min(main));
        let lane = i % LANES;
        let head = ((LANES - lane) % LANES).min(below);
        let (cap, from) = (
            block.cap * step,
            &block.data[row * block.cap + cols.start..],
        );
        if head > 0 {
            copy_part(&mut split.as_flattened_mut()[lane..], from, cap, P, head);
        }
        if head > 0 && lane + head == LANES {
            let mut ps = [[0.0f32; LANES]; H];
            for h in 0..H {
                ps[h] = s[h][i + head - LANES..i + head].try_into().unwrap();
            }
            chunk_acc(&mut acc, ps, split);
        }
        let rest = (below - head) % LANES;
        let whole = below - head - rest;
        let (mut s_whole, mut v_whole) = (s, src);
        for row in &mut s_whole {
            *row = &row[i + head..i + head + whole];
        }
        for plane in &mut v_whole {
            *plane = &plane[head..head + whole];
        }
        lanes_acc(&mut acc, &s_whole, &v_whole, whole);
        if rest > 0 {
            let chunk = split.as_flattened_mut();
            copy_part(chunk, &from[below - rest..], cap, P, rest);
        }
        i += len;
    });
    acc
}

/// `acc[h][p][l] = fma(s[h][t + l], src[p][t + l], acc[h][p][l])` a
/// `LANES`-chunk at a time, over operands that all have length `len`, a
/// multiple of `LANES`.
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
    let mut a = *acc;
    for t in (0..len / LANES).map(|k| k * LANES) {
        let (mut ps, mut pv) = ([[0.0f32; LANES]; H], [[0.0f32; LANES]; P]);
        for h in 0..H {
            ps[h] = s[h][t..t + LANES].try_into().unwrap();
        }
        for p in 0..P {
            pv[p] = src[p][t..t + LANES].try_into().unwrap();
        }
        chunk_acc(&mut a, ps, pv);
    }
    *acc = a;
}

/// `dst[p * LANES + k] = src[p * stride + k]` for `k < part < LANES` in each
/// of `planes` planes, as fixed-size copies picked by the bits of `part`: a
/// `copy_from_slice` of run-time length is a call to `memcpy`, and a call
/// inside a kernel spills every accumulator register around it.
#[inline(always)]
fn copy_part(dst: &mut [f32], src: &[f32], stride: usize, planes: usize, part: usize) {
    #[inline(always)]
    fn fixed<const N: usize>(dst: &mut [f32], src: &[f32], stride: usize, planes: usize) {
        for p in 0..planes {
            let columns: [f32; N] = src[p * stride..][..N].try_into().unwrap();
            dst[p * LANES..][..N].copy_from_slice(&columns);
        }
    }
    let mut at = 0;
    if part & 8 != 0 {
        fixed::<8>(dst, src, stride, planes);
        at = 8;
    }
    if part & 4 != 0 {
        fixed::<4>(&mut dst[at..], &src[at..], stride, planes);
        at += 4;
    }
    if part & 2 != 0 {
        fixed::<2>(&mut dst[at..], &src[at..], stride, planes);
        at += 2;
    }
    if part & 1 != 0 {
        fixed::<1>(&mut dst[at..], &src[at..], stride, planes);
    }
}

/// One compact chunk into the lane accumulators. The chunks come by value:
/// each is loaded once and shared by the tile.
#[inline(always)]
fn chunk_acc<const H: usize, const P: usize>(
    acc: &mut [[[f32; LANES]; P]; H],
    ps: [[f32; LANES]; H],
    pv: [[f32; LANES]; P],
) {
    for h in 0..H {
        for p in 0..P {
            for l in 0..LANES {
                acc[h][p][l] = ps[h][l].mul_add(pv[p][l], acc[h][p][l]);
            }
        }
    }
}

/// Keys per chunk of the score kernel: one 512-bit vector of f32, two
/// 256-bit ones. The score accumulation is element-wise, so neither this
/// width nor how many chunks a pass takes can change a bit.
const KEYS: usize = LANES;

mod sealed {
    /// What a call of [`RowWeights::weigh_in`](super::RowWeights::weigh_in)
    /// shows: that it comes from one of this crate's kernel bodies. Its
    /// `WIDE` arm runs AVX-512 instructions, which only a body `tiered!`
    /// compiled for an AVX-512 machine may reach; no other crate can name or
    /// make this value, so none can call that arm (a bound `W: RowWeights`
    /// would otherwise let it) or override the method.
    pub struct InKernel(pub(super) ());
}

use sealed::InKernel;

/// How the compact rows of scaled scores become attention weights. A type,
/// not a closure: the `#[inline(always)]` method is cloned into each SIMD
/// tier of the kernel with the tier's vector width, where a closure's call
/// may be left out of line at the baseline width.
///
/// Another crate may implement it, and the kernel then calls its `weigh` in
/// every tier:
///
/// ```
/// use bat_tensor::RowWeights;
/// struct Uniform;
/// impl RowWeights for Uniform {
///     fn weigh<const H: usize>(rows: &mut [f32], _max: [f32; H]) -> [f32; H] {
///         rows.fill(1.0);
///         [1.0; H]
///     }
/// }
/// ```
///
/// but it cannot reach a weighting's AVX-512 arm, which only the kernel's
/// AVX-512 clone may run:
///
/// ```compile_fail
/// use bat_tensor::RowWeights;
/// fn wide<W: RowWeights>(rows: &mut [f32]) -> [f32; 4] {
///     W::weigh_in::<4, true>(rows, [0.0; 4], bat_tensor::packed::sealed::InKernel(()))
/// }
/// ```
pub trait RowWeights {
    /// Turns the `H` score rows held back to back in `rows` into weights in
    /// place — `max[h]` is row `h`'s maximum — and returns the factor each
    /// row's weighted value sum is still to be multiplied by. Every row is
    /// padded to the same whole number of `LANES`-chunks with `-inf`;
    /// what the padding becomes is never read.
    fn weigh<const H: usize>(rows: &mut [f32], max: [f32; H]) -> [f32; H];

    /// [`Self::weigh`] as the kernel calls it: `WIDE` is the kernel body's,
    /// true only in its AVX-512 clone, where lane sums may fold through a
    /// network. Same bits either way.
    #[doc(hidden)]
    #[inline(always)]
    fn weigh_in<const H: usize, const WIDE: bool>(
        rows: &mut [f32],
        max: [f32; H],
        _: InKernel,
    ) -> [f32; H] {
        Self::weigh::<H>(rows, max)
    }
}

/// Softmax attention: the weights are `softmax_exp_sum_rows`'
/// unnormalised exponentials and the factor is the reciprocal of their sum,
/// so the division touches a head's `head_dim` outputs instead of its `n`
/// weights.
pub struct Softmax;

impl RowWeights for Softmax {
    #[inline(always)]
    fn weigh<const H: usize>(rows: &mut [f32], max: [f32; H]) -> [f32; H] {
        Self::weigh_in::<H, false>(rows, max, InKernel(()))
    }

    #[inline(always)]
    fn weigh_in<const H: usize, const WIDE: bool>(
        rows: &mut [f32],
        max: [f32; H],
        _: InKernel,
    ) -> [f32; H] {
        let mut factor = softmax_exp_sum_rows::<H, WIDE>(rows, max);
        for f in &mut factor {
            // No weight survived (no finite score): the output is all zeros.
            *f = if *f > 0.0 { 1.0 / *f } else { 0.0 };
        }
        factor
    }
}

/// HSTU's pointwise attention: SiLU of each score
/// ([`crate::ops::fast_silu`]), no normalisation.
pub struct Silu;

impl RowWeights for Silu {
    #[inline(always)]
    fn weigh<const H: usize>(rows: &mut [f32], _max: [f32; H]) -> [f32; H] {
        fast_silu_in_place_body(rows);
        [1.0; H]
    }
}

/// One layer's packed keys and values as the attention kernel reads them.
///
/// [`GroupAttention::attend`] is the attention of one token row for all
/// query heads that share a KV head — the fused form of the row-level
/// composition `axpy_plane` per K plane → `*= scale` → weigh →
/// `rows_dot_acc` → `× factor`, and bit-identical to it.
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
    /// Heads go through in tiles of 6, 4, 2 and 1; per tile:
    ///
    /// 1. **Scores.** The allowed keys are walked in compact `KEYS`-key
    ///    chunks (two at a time on AVX-512 where a piece holds both, sharing
    ///    each `q` broadcast). The `head_dim` K-plane chunks are loaded once
    ///    and every head of the tile accumulates `acc = fma(q[c], K[c][j],
    ///    acc)` (from `0.0`, ascending `c`) in registers, multiplies by
    ///    `scale`, stores the score once and keeps a running maximum (a
    ///    maximum does not depend on the order it is taken in). A chunk
    ///    whose keys straddle pieces, and the row's ragged end, is copied
    ///    together first and runs the same pass — a key's score is its own
    ///    lane's chain — with the lanes past the row's end stored as `-inf`.
    /// 2. **Weights.** `W::weigh` turns the tile's compact score rows into
    ///    attention weights in place ([`Softmax`], [`Silu`]), all rows in
    ///    step, and gives the factor each row's output is still owed.
    /// 3. **P·V.** Each 16-key V chunk is loaded once and applied by fused
    ///    multiply-adds to the lane accumulators of the tile's heads, in the
    ///    compact-index lane order of [`SplitCols::rows_dot_acc`]; a head's
    ///    folded sums times its factor are added to `out`. On AVX-512 the
    ///    folds — these and the maxima and softmax sums of steps 1 and 2 —
    ///    are networks that make the same additions (`fold.rs`).
    ///
    /// Per-row arithmetic is that of the row-level composition, operation
    /// for operation, and every operation is correctly rounded, so the
    /// result is bit-identical to it on every SIMD tier and does not depend
    /// on how the allowed keys are cut into runs or blocks; the tile sizes
    /// move speed only. `scratch` holds the tile's compact rows, each padded
    /// to whole chunks and cache-line aligned, and one copied-together key
    /// chunk (`6 × (n + 15) + 16 × head_dim + 15` floats at most, grown on
    /// demand and never shrunk); a row with no allowed key leaves `out`
    /// untouched.
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
        attend_tiles::<W>(Tier::best(), self, kv_head, runs, q, scratch, out)
    }
}

/// The descending head-tile ladder over one group — 6 (Qwen2's group, in
/// one pass over the keys), 4, 2, 1 heads — in plain code: the arithmetic
/// is in the two tile kernels, each a function of its own per tier, so that
/// each keeps its accumulator tile in registers whatever the other does.
fn attend_tiles<W: RowWeights>(
    tier: Tier,
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
    // Rows of whole chunks on cache lines: the weighting runs whole chunks
    // only and no row load straddles two lines.
    let stride = n.next_multiple_of(LANES);
    let rows = group.min(6) * stride;
    if scratch.len() < rows + d * KEYS + LANES {
        scratch.resize(rows + d * KEYS + LANES, 0.0);
    }
    let aligned = scratch.as_ptr().align_offset(64).min(LANES);
    let (s, split) = scratch[aligned..aligned + rows + d * KEYS].split_at_mut(rows);
    let row0 = kv_head * d;
    let mut g = 0;
    while g < group {
        let heads = match group - g {
            6.. => 6,
            4 | 5 => 4,
            2 | 3 => 2,
            _ => 1,
        };
        let tile = g * d..(g + heads) * d;
        let (q, s, out) = (&q[tile.clone()], &mut s[..heads * stride], &mut out[tile]);
        match heads {
            6 => head_tile::<W, 6>(tier, ga, row0, runs, q, s, split, out),
            4 => head_tile::<W, 4>(tier, ga, row0, runs, q, s, split, out),
            2 => head_tile::<W, 2>(tier, ga, row0, runs, q, s, split, out),
            _ => head_tile::<W, 1>(tier, ga, row0, runs, q, s, split, out),
        }
        g += heads;
    }
}

/// One tile of `H` heads: their weights in one pass over the keys, then
/// their P·V.
#[allow(clippy::too_many_arguments)]
fn head_tile<W: RowWeights, const H: usize>(
    tier: Tier,
    ga: &GroupAttention<'_>,
    row0: usize,
    runs: &[Range<usize>],
    q: &[f32],
    s: &mut [f32],
    split: &mut [f32],
    out: &mut [f32],
) {
    let factor = weights_tile::<W, H>(tier, ga, row0, runs, q, s, split);
    values_tile::<H>(tier, ga, row0, runs, s, &factor, out);
}

tiered! {
    /// Steps 1 and 2 of [`GroupAttention::attend`] for one tile of `H` heads
    /// (`q` holds their queries back to back): the compact weight rows, at
    /// the rows' common stride — the allowed-key count rounded up to whole
    /// chunks — into `s`, and each row's output factor. `split` is room for
    /// one copied-together chunk of the KV head's planes.
    fn weights_tile[W: RowWeights, const H: usize][W, H](
        ga: &GroupAttention<'_>,
        row0: usize,
        runs: &[Range<usize>],
        q: &[f32],
        s: &mut [f32],
        split: &mut [f32],
    ) -> [f32; H] = weights_body[wide]
}

/// Thirty-two registers take score passes of two key chunks (twelve
/// accumulators for six heads); sixteen of half the width, one chunk.
#[inline(always)]
fn weights_body<W: RowWeights, const H: usize, const WIDE: bool>(
    ga: &GroupAttention<'_>,
    row0: usize,
    runs: &[Range<usize>],
    q: &[f32],
    s: &mut [f32],
    split: &mut [f32],
) -> [f32; H] {
    let max = match WIDE {
        true => score_tile::<H, 2, WIDE>(ga, row0, runs, q, s, split),
        false => score_tile::<H, 1, WIDE>(ga, row0, runs, q, s, split),
    };
    W::weigh_in::<H, WIDE>(s, max, InKernel(()))
}

tiered! {
    /// Step 3 of [`GroupAttention::attend`] for `H` heads: their weight rows
    /// (one weight per allowed key, at the rows' common stride in `s`)
    /// against the value planes, times `factor`, into `out`.
    fn values_tile[const H: usize][H](
        ga: &GroupAttention<'_>,
        row0: usize,
        runs: &[Range<usize>],
        s: &[f32],
        factor: &[f32],
        out: &mut [f32],
    ) = values_body[wide]
}

/// Four planes go through per pass where there are thirty-two registers
/// (sixteen accumulators for four heads); sixteen of half the width — a
/// sixteen-lane accumulator is two of them — hold four accumulators, so
/// `4 / H` planes. Six heads go as four, then two.
#[inline(always)]
fn values_body<const H: usize, const WIDE: bool>(
    ga: &GroupAttention<'_>,
    row0: usize,
    runs: &[Range<usize>],
    s: &[f32],
    factor: &[f32],
    out: &mut [f32],
) {
    let (stride, n) = (s.len() / H, runs.iter().map(Range::len).sum());
    let mut rows: [&[f32]; H] = [&[]; H];
    for h in 0..H {
        rows[h] = &s[h * stride..][..n];
    }
    #[cfg(target_arch = "x86_64")]
    if WIDE {
        return rows_dot_acc_wide(ga.vals, row0, runs, rows, factor, out);
    }
    let v = ga.vals;
    match (WIDE, H) {
        (false, 4) => rows_dot_acc_tile::<H, 1>(v, row0, runs, rows, factor, out),
        (false, 2) => rows_dot_acc_tile::<H, 2>(v, row0, runs, rows, factor, out),
        (false, 6) => {
            let ((s4, s2), d) = (rows.split_at(4), out.len() / H);
            let (out4, out2) = out.split_at_mut(4 * d);
            rows_dot_acc_tile::<4, 1>(v, row0, runs, head_rows(s4), &factor[..4], out4);
            rows_dot_acc_tile::<2, 2>(v, row0, runs, head_rows(s2), &factor[4..], out2);
        }
        _ => rows_dot_acc_tile::<H, 4>(v, row0, runs, rows, factor, out),
    }
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

/// Each row's maximum by the halving tree of [`max_skip_nan`] — through one
/// fold network (`fold.rs`) in a body compiled for AVX-512 (`WIDE`), which
/// only `tiered!`'s AVX-512 clone is. No lane is NaN (the running maxima
/// skip it), so on a tie of two zeros the lower lane's sign is kept.
#[inline(always)]
fn max_rows<const H: usize, const WIDE: bool>(rows: &[[f32; LANES]; H]) -> [f32; H] {
    #[cfg(target_arch = "x86_64")]
    if WIDE {
        // SAFETY: a `WIDE` body runs only where AVX-512F was detected.
        return unsafe { crate::fold::fold_rows::<H, true>(rows) };
    }
    let mut rows = *rows;
    let mut width = LANES / 2;
    while width > 0 {
        for row in &mut rows {
            for l in 0..width {
                row[l] = max_skip_nan(row[l], row[l + width]);
            }
        }
        width /= 2;
    }
    let mut max = [0.0f32; H];
    for (max, lanes) in max.iter_mut().zip(&rows) {
        *max = lanes[0];
    }
    max
}

/// Scaled scores of `H` heads over `runs` into the compact rows `s` (`H`
/// rows of whole chunks, back to back), `-inf` past a row's last key, and
/// each row's maximum over its non-NaN scores (`-inf` when it has none).
/// The keys go through in compact chunks: `C` at a time, then one, straight
/// from the block where a piece holds the chunk, through `split` — its
/// columns copied together, plane by plane — where it does not. A key's
/// score is the same chain of fused multiply-adds in every lane of every
/// pass, so where a piece starts and ends cannot change it.
#[inline(always)]
fn score_tile<const H: usize, const C: usize, const WIDE: bool>(
    ga: &GroupAttention<'_>,
    row0: usize,
    runs: &[Range<usize>],
    q: &[f32],
    s: &mut [f32],
    split: &mut [f32],
) -> [f32; H] {
    let (d, stride) = (ga.head_dim, s.len() / H);
    let n: usize = runs.iter().map(Range::len).sum();
    let mut heads: [&[f32]; H] = [&[]; H];
    for h in 0..H {
        heads[h] = &q[h * d..][..d];
    }
    let mut max = [[f32::NEG_INFINITY; KEYS]; H];
    // The compact chunks that lie inside one piece, straight from its block.
    let mut at = 0usize;
    for_pieces!(ga.keys, runs, |block, cols| {
        // Component `c` of key `cols.start + j` sits at `base + c * cap + j`.
        let (cap, base, len) = (block.cap, row0 * block.cap + cols.start, cols.len());
        let mut j = (at.wrapping_neg() % KEYS).min(len);
        while len - j >= C * KEYS {
            let (keys, first) = (&block.data[base + j..], at + j);
            score_chunks::<H, C, false>(keys, cap, &heads, ga.scale, s, stride, first, 0, &mut max);
            j += C * KEYS;
        }
        while len - j >= KEYS {
            let (keys, first) = (&block.data[base + j..], at + j);
            score_chunks::<H, 1, false>(keys, cap, &heads, ga.scale, s, stride, first, 0, &mut max);
            j += KEYS;
        }
        at += len;
    });
    // The others — a piece's columns before its first whole chunk and after
    // its last — copied together and scored once the chunk is whole or the
    // row ends inside it (its last lanes then hold stale columns, no keys).
    let mut at = 0usize;
    for_pieces!(ga.keys, runs, |block, cols| {
        let (cap, base, len) = (block.cap, row0 * block.cap + cols.start, cols.len());
        let head = (at.wrapping_neg() % KEYS).min(len);
        let rest = (len - head) % KEYS;
        for (j, part) in [(0, head), (len - rest, rest)] {
            let lane = (at + j) % KEYS;
            if part > 0 {
                copy_part(&mut split[lane..], &block.data[base + j..], cap, d, part);
            }
            if part > 0 && (lane + part == KEYS || at + j + part == n) {
                let (first, valid) = (at + j - lane, lane + part);
                score_chunks::<H, 1, true>(
                    split, KEYS, &heads, ga.scale, s, stride, first, valid, &mut max,
                );
            }
        }
        at += len;
    });
    // Halving fold: four dependent steps per row, not `KEYS`.
    max_rows::<H, WIDE>(&max)
}

/// `C` chunks of [`KEYS`] keys for `H` heads: `keys[c * cap + j]` is
/// component `c` of the pass's key `j`; the scores go to
/// `s[h * stride + at ..][..C * KEYS]` and into the running lane maxima. In a
/// `RAGGED` pass only the first `valid` lanes hold keys and the others score
/// `-inf` (a constant, not an argument, for the whole passes: the select
/// costs them their straight-line epilogue).
// `c` walks the K planes and every head's coefficients in step.
#[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
#[inline(always)]
fn score_chunks<const H: usize, const C: usize, const RAGGED: bool>(
    keys: &[f32],
    cap: usize,
    heads: &[&[f32]; H],
    scale: f32,
    s: &mut [f32],
    stride: usize,
    at: usize,
    valid: usize,
    max: &mut [[f32; KEYS]; H],
) {
    let d = heads[0].len();
    let mut acc = [[[0.0f32; KEYS]; C]; H];
    for c in 0..d {
        // By value: each K chunk is loaded once and shared by the heads,
        // each `q[c]` broadcast once and shared by the chunks.
        let plane = &keys[c * cap..][..C * KEYS];
        let mut k = [[0.0f32; KEYS]; C];
        for (i, k) in k.iter_mut().enumerate() {
            *k = plane[i * KEYS..(i + 1) * KEYS]
                .try_into()
                .expect("a KEYS-long slice");
        }
        for h in 0..H {
            let qc = heads[h][c];
            for i in 0..C {
                for l in 0..KEYS {
                    acc[h][i][l] = qc.mul_add(k[i][l], acc[h][i][l]);
                }
            }
        }
    }
    for h in 0..H {
        // A sixteen-lane operation per loop, each on values of its own: left
        // in one loop the vectorizer cut the lanes into odd pieces.
        let mut lane_max = max[h];
        for i in 0..C {
            let mut scores = [0.0f32; KEYS];
            for l in 0..KEYS {
                scores[l] = acc[h][i][l] * scale;
            }
            if RAGGED {
                // A select on the lane number compiles to a branch a lane;
                // a mask of bits to a vector compare and a blend.
                for l in 0..KEYS {
                    let keep = u32::from(l < valid).wrapping_neg();
                    let kept = scores[l].to_bits() & keep;
                    scores[l] = f32::from_bits(kept | f32::NEG_INFINITY.to_bits() & !keep);
                }
            }
            s[h * stride + at + i * KEYS..][..KEYS].copy_from_slice(&scores);
            for l in 0..KEYS {
                lane_max[l] = max_skip_nan(lane_max[l], scores[l]);
            }
        }
        max[h] = lane_max;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::halve_rows;
    use crate::ops::{dot_fast, fast_silu_in_place, softmax_exp_sum};
    use crate::quant::{QuantKind, QuantizedColBlock};
    use crate::Matrix;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::slice::from_ref;

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
    /// (`dot_fast` per plane, `axpy`) over a gathered copy of the run
    /// columns, for every split point and run layout — chunk-aligned
    /// splits, runs straddling the split, runs shorter than a chunk, empty
    /// runs, and the full causal window.
    #[test]
    fn run_kernels_bit_match_contiguous_gather() {
        let mut rng = SmallRng::seed_from_u64(42);
        for &(rows, p_cols, s_cols) in &[
            (8usize, 0usize, 5usize),
            (8, 3, 1),
            (8, 8, 8),
            (8, 16, 16),
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
                view.rows_dot_acc(0, &runs, &s, &mut got);
                for (c, g) in got.iter().enumerate() {
                    let want = 0.1 + dot_fast(&s, packed.row(c));
                    assert_eq!(g.to_bits(), want.to_bits(), "rows_dot_acc {runs:?}");
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
    /// portable body (the dispatcher only ever picks the widest).
    #[test]
    fn every_tier_of_rows_dot_acc_is_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(45);
        let pre = random_block(7, 21, &mut rng);
        let suf = random_block(7, 38, &mut rng);
        let view = SplitCols::new(Some(&pre), &suf);
        let runs = [2..19, 20..23, 30..59];
        let s: Vec<f32> = (0..49).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let run = |tier: Tier| {
            let mut got = vec![0.0f32; 7];
            runs_dot_acc(tier, view, 0, &runs, &s, &mut got);
            bits(&got)
        };
        let gold = run(Tier::SCALAR);
        for tier in Tier::available() {
            assert_eq!(run(tier), gold, "{}", tier.name());
        }
    }

    /// A weighting at row level, through the public single-row kernels:
    /// weights in place, output factor returned.
    type RowWeigh = fn(&mut [f32], f32) -> f32;

    fn softmax_row(s: &mut [f32], max: f32) -> f32 {
        let sum = softmax_exp_sum(s, max);
        if sum > 0.0 {
            1.0 / sum
        } else {
            0.0
        }
    }

    fn silu_row(s: &mut [f32], _max: f32) -> f32 {
        fast_silu_in_place(s);
        1.0
    }

    /// The row-level composition the group kernel must reproduce bit for
    /// bit: per head, `axpy_plane` per K plane from a zeroed row, `*=
    /// scale`, the weighting over the row's maximum, `rows_dot_acc` from
    /// zero, and one fused multiply-add of each sum and the head's factor
    /// into the output — every step through its own public dispatcher, on
    /// unpadded rows. Returns the heads' weight rows back to back.
    fn attend_per_head(
        kv: &GroupAttention<'_>,
        kv_head: usize,
        runs: &[Range<usize>],
        q: &[f32],
        weigh: RowWeigh,
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
            let max = s.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let factor = weigh(&mut s, max);
            let mut sums = vec![0.0f32; d];
            kv.vals.rows_dot_acc(kv_head * d, runs, &s, &mut sums);
            for (o, sum) in out.iter_mut().zip(sums) {
                *o = sum.mul_add(factor, *o);
            }
            weights.extend_from_slice(&s);
        }
        weights
    }

    /// The `n` weights of each of the last tile's `heads` rows as the kernel
    /// left them in its scratch, back to back (the kernel pads each row to
    /// whole chunks and starts the first on a cache line).
    fn scratch_rows(scratch: &[f32], heads: usize, n: usize) -> Vec<f32> {
        let aligned = scratch.as_ptr().align_offset(64).min(LANES);
        let stride = n.next_multiple_of(LANES);
        (0..heads)
            .flat_map(|h| scratch[aligned + h * stride..][..n].to_vec())
            .collect()
    }

    /// Columns `cols` of `block` as a block of their own.
    fn sub_block(block: &ColBlock, cols: Range<usize>) -> ColBlock {
        let mut b = ColBlock::new(block.rows());
        for j in cols {
            b.push_col(&block.col(j));
        }
        b
    }

    /// `runs` cut into more runs that cover the same columns: each run is
    /// split at random points, so neighbours touch.
    fn fragment(runs: &[Range<usize>], rng: &mut SmallRng) -> Vec<Range<usize>> {
        let mut out = Vec::new();
        for run in runs {
            let mut at = run.start;
            while at < run.end {
                let end = rng.gen_range(at + 1..run.end + 1);
                out.push(at..end);
                at = end;
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The group kernel is the per-head composition, bit for bit: any
        /// group size the tile ladder splits differently (1, 2, 6, 7 → 6 + 1,
        /// 13 → 6 + 6 + 1),
        /// both head widths, either KV head, with and without a prefix,
        /// over rows shorter than a lane chunk, rows that are no multiple
        /// of the score chunk, runs straddling the split, single-key
        /// private runs and empty runs.
        #[test]
        fn group_kernel_bit_matches_the_per_head_composition(seed in 0u64..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let group = [1usize, 2, 6, 7, 13][rng.gen_range(0..5)];
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
                attend_per_head(&kv, kv_head, &runs, &q, softmax_row, &mut want);
                prop_assert_eq!(
                    bits(&got), bits(&want), "softmax group {} d {} runs {:?}", group, d, runs
                );
                kv.attend::<Silu>(kv_head, &runs, &q, &mut scratch, &mut got);
                attend_per_head(&kv, kv_head, &runs, &q, silu_row, &mut want);
                prop_assert_eq!(
                    bits(&got), bits(&want), "silu group {} d {} runs {:?}", group, d, runs
                );
            }
        }

        /// The new arithmetic's limit, pinned: attention over a fixed set
        /// of keys gives the same bits wherever the prefix/suffix split
        /// falls — every point `0..=n`, an empty block on either side
        /// included — and however the set is cut into runs, for both
        /// weightings, over f32 keys and values and over ones that went
        /// through either quantized format. (A kernel that fused only its
        /// whole-chunk loops fails this: the split decides which keys land
        /// in a whole chunk.) Over the whole window of a quantized block the
        /// same bits also come out of the dequant-fused row kernels.
        #[test]
        fn attention_does_not_depend_on_the_split_or_the_run_fragmentation(
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (d, group, kv_heads) = ([8usize, 16][rng.gen_range(0..2)], 6, 2);
            let n = rng.gen_range(1..70);
            let kv_head = rng.gen_range(0..kv_heads);
            let q: Vec<f32> = (0..group * d).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let scale = 1.0 / (d as f32).sqrt();
            let whole_window: Vec<Range<usize>> = std::iter::once(0..n).collect();
            let run_sets = [random_runs(n, &mut rng), whole_window.clone()];
            for kind in [None, Some(QuantKind::Int8), Some(QuantKind::F16)] {
                let mut stored = || {
                    let block = random_block(kv_heads * d, n, &mut rng);
                    let quantized = kind.map(|kind| QuantizedColBlock::quantize(&block, kind));
                    let block = quantized.as_ref().map_or(block, QuantizedColBlock::dequantize);
                    (block, quantized)
                };
                let ((keys, q_keys), (vals, q_vals)) = (stored(), stored());
                let whole = GroupAttention {
                    keys: SplitCols::new(None, &keys),
                    vals: SplitCols::new(None, &vals),
                    head_dim: d,
                    scale,
                };
                let both = |kv: &GroupAttention<'_>, runs: &[Range<usize>]| {
                    let (mut scratch, mut out) = (Vec::new(), vec![0.1f32; 2 * group * d]);
                    let (soft, silu) = out.split_at_mut(group * d);
                    kv.attend::<Softmax>(kv_head, runs, &q, &mut scratch, soft);
                    kv.attend::<Silu>(kv_head, runs, &q, &mut scratch, silu);
                    bits(&out)
                };
                for runs in &run_sets {
                    let gold = both(&whole, runs);
                    for split in 0..=n {
                        let blocks = [
                            sub_block(&keys, 0..split),
                            sub_block(&keys, split..n),
                            sub_block(&vals, 0..split),
                            sub_block(&vals, split..n),
                        ];
                        let kv = GroupAttention {
                            keys: SplitCols::new(Some(&blocks[0]), &blocks[1]),
                            vals: SplitCols::new(Some(&blocks[2]), &blocks[3]),
                            ..whole
                        };
                        let runs = if split % 2 == 0 {
                            runs.clone()
                        } else {
                            fragment(runs, &mut rng)
                        };
                        prop_assert_eq!(
                            both(&kv, &runs), gold.clone(), "{:?} split {} runs {:?}", kind, split, runs
                        );
                    }
                    if let (Some(q_keys), Some(q_vals), true) =
                        (&q_keys, &q_vals, *runs == whole_window)
                    {
                        let mut fused = vec![0.1f32; group * d];
                        for (qh, out) in q.chunks_exact(d).zip(fused.chunks_exact_mut(d)) {
                            let mut s = vec![0.0f32; n];
                            for (c, &qc) in qh.iter().enumerate() {
                                q_keys.axpy_plane(kv_head * d + c, n, qc, &mut s);
                            }
                            s.iter_mut().for_each(|x| *x *= scale);
                            let max = s.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                            let factor = softmax_row(&mut s, max);
                            let mut sums = vec![0.0f32; d];
                            q_vals.rows_dot_acc(kv_head * d, &s, &mut sums);
                            for (o, sum) in out.iter_mut().zip(sums) {
                                *o = sum.mul_add(factor, *o);
                            }
                        }
                        prop_assert_eq!(
                            bits(&fused), gold[..group * d].to_vec(), "dequant-fused {:?}", kind
                        );
                    }
                }
            }
        }

        /// PR 12's softmax edge rows through the fused path: whatever mix
        /// of ordinary, hugely negative, infinite and NaN scores a row
        /// holds — fully masked rows and a single live lane included —
        /// every (unnormalised) weight the kernel leaves in its scratch is
        /// `0.0` or a normal number, the same bits the row-level composition
        /// yields, and the output is never NaN.
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
            let weights = attend_per_head(&kv, 0, runs, &q, softmax_row, &mut want);
            prop_assert_eq!(bits(&scratch_rows(&scratch, 2, row.len())), bits(&weights));
            prop_assert!(weights.iter().all(|w| *w == 0.0 || w.is_normal()), "{:?}", weights);
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert!(got.iter().all(|x| !x.is_nan()));
        }
    }

    /// The ragged paths, exhaustively: every run length `n` in 1..=80, cut
    /// between the prefix and the suffix block at every point `0..=n`,
    /// followed by a private run of 0..=3 keys, both weightings — against
    /// the row-level composition over a clean, contiguous copy of the
    /// allowed keys. Every column physically next to a run is a masked key
    /// that holds NaN, an infinity or 1e38 — and a run that ends where its
    /// block does is followed in memory by the next plane's first column,
    /// one of those — so a chunk that was copied together from more than
    /// its columns, a lane past a row's end that was read as a key, or one
    /// that reached the running maximum, changes the output or makes it
    /// NaN. (Release builds: the kernels' chunk paths are what the
    /// vectorizer makes of them.)
    #[test]
    #[cfg_attr(debug_assertions, ignore = "exhaustive sweep; run with --release")]
    fn ragged_runs_beside_poisoned_neighbours_bit_match_the_row_level_composition() {
        const POISON: [f32; 4] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e38];
        let (d, group, kv_heads) = (8, 6, 2);
        let mut rng = SmallRng::seed_from_u64(22);
        let pool = [(); 2].map(|()| random_block(kv_heads * d, 84, &mut rng));
        let q: Vec<f32> = (0..group * d).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mut scratch = Vec::new();
        for n in 1..=80 {
            for (split, private) in (0..=n).flat_map(|split| (0..=3).map(move |p| (split, p))) {
                // Per pool (keys, values): the poisoned prefix and suffix
                // blocks, and the allowed columns alone.
                let blocks = pool.each_ref().map(|pool| {
                    let mut built = [(); 3].map(|()| ColBlock::new(kv_heads * d));
                    let [pre, suf, clean] = &mut built;
                    let poison = |block: &mut ColBlock| {
                        let at = block.len();
                        let col: Vec<f32> =
                            (0..kv_heads * d).map(|r| POISON[(r + at) % 4]).collect();
                        block.push_col(&col);
                    };
                    poison(pre);
                    for j in 0..n + private {
                        if j == n {
                            poison(suf);
                        }
                        let col = pool.col(j);
                        if j < split { &mut *pre } else { &mut *suf }.push_col(&col);
                        clean.push_col(&col);
                    }
                    poison(suf);
                    built
                });
                let [keys, vals] = &blocks;
                let kv = GroupAttention {
                    keys: SplitCols::new(Some(&keys[0]), &keys[1]),
                    vals: SplitCols::new(Some(&vals[0]), &vals[1]),
                    head_dim: d,
                    scale: 1.0 / (d as f32).sqrt(),
                };
                let clean = GroupAttention {
                    keys: SplitCols::new(None, &keys[2]),
                    vals: SplitCols::new(None, &vals[2]),
                    ..kv
                };
                let runs = [1..1 + n, n + 2..n + 2 + private];
                let all = 0..n + private;
                let kv_head = (n + split + private) % kv_heads;
                for (weigh, name) in [(softmax_row as RowWeigh, "softmax"), (silu_row, "silu")] {
                    let mut got = vec![0.1f32; group * d];
                    let mut want = got.clone();
                    if name == "softmax" {
                        kv.attend::<Softmax>(kv_head, &runs, &q, &mut scratch, &mut got);
                    } else {
                        kv.attend::<Silu>(kv_head, &runs, &q, &mut scratch, &mut got);
                    }
                    attend_per_head(&clean, kv_head, from_ref(&all), &q, weigh, &mut want);
                    assert!(want.iter().all(|x| x.is_finite()));
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{name}: {n} keys cut at {split}, {private} private"
                    );
                }
            }
        }
    }

    /// Every SIMD tier of the group kernel present on this CPU runs the
    /// same arithmetic as the portable body (the dispatcher only ever
    /// picks the widest) — each over its own tile shapes: outputs and the
    /// weights left in the scratch, for both weightings.
    #[test]
    fn every_tier_of_the_group_kernel_is_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(46);
        let (d, group) = (8, 7);
        let blocks: Vec<ColBlock> = [21, 21, 70, 70]
            .iter()
            .map(|&cols| random_block(2 * d, cols, &mut rng))
            .collect();
        let kv = GroupAttention {
            keys: SplitCols::new(Some(&blocks[0]), &blocks[2]),
            vals: SplitCols::new(Some(&blocks[1]), &blocks[3]),
            head_dim: d,
            scale: 0.35,
        };
        let runs = [2..19, 20..23, 30..91];
        let q: Vec<f32> = (0..group * d).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let run = |tier: Tier| {
            let (mut scratch, mut out) = (Vec::new(), vec![0.0f32; 2 * group * d]);
            let (soft, silu) = out.split_at_mut(group * d);
            // The scratch holds the last tile: head 7 of 7, 81 keys.
            attend_tiles::<Softmax>(tier, &kv, 1, &runs, &q, &mut scratch, soft);
            let soft_weights = bits(&scratch_rows(&scratch, 1, 81));
            attend_tiles::<Silu>(tier, &kv, 1, &runs, &q, &mut scratch, silu);
            (
                bits(&out),
                soft_weights,
                bits(&scratch_rows(&scratch, 1, 81)),
            )
        };
        let gold = run(Tier::SCALAR);
        for tier in Tier::available() {
            assert_eq!(run(tier), gold, "{}", tier.name());
        }
        let mut dispatched = vec![0.0f32; group * d];
        kv.attend::<Softmax>(1, &runs, &q, &mut Vec::new(), &mut dispatched);
        assert_eq!(bits(&dispatched), gold.0[..group * d], "dispatcher");
    }

    tiered! {
        /// The two row folds as the group kernel's bodies reach them: a
        /// fold network in the AVX-512 clone, `halve` (and the max tree)
        /// elsewhere.
        fn folds[const N: usize][N](rows: &[[f32; LANES]; N]) -> [[f32; N]; 2] = folds_body[wide]
    }

    #[inline(always)]
    fn folds_body<const N: usize, const WIDE: bool>(rows: &[[f32; LANES]; N]) -> [[f32; N]; 2] {
        [halve_rows::<N, WIDE>(rows), max_rows::<N, WIDE>(rows)]
    }

    /// The halving tree of `max_skip_nan`, one row at a time.
    fn max_tree(mut row: [f32; LANES]) -> f32 {
        let mut width = LANES / 2;
        while width > 0 {
            for l in 0..width {
                row[l] = max_skip_nan(row[l], row[l + width]);
            }
            width /= 2;
        }
        row[0]
    }

    /// Sixteen-row tiles that catch a network adding or comparing the wrong
    /// lanes, or the right lanes in the wrong order.
    fn fold_tiles(rng: &mut SmallRng) -> Vec<[[f32; LANES]; LANES]> {
        let mut rows = Vec::new();
        // Signed zeros: a maximum over zeros is the lowest lane's (the tree
        // keeps its lower operand on a tie), so where the one `-0.0` or the
        // one `+0.0` sits decides the sign; a sum of zeros is `-0.0` only
        // if every lane is.
        for l in 0..LANES {
            let mut minus = [0.0f32; LANES];
            minus[l] = -0.0;
            let mut plus = [-0.0f32; LANES];
            plus[l] = 0.0;
            rows.extend([minus, plus]);
        }
        rows.push([-0.0; LANES]);
        rows.extend(
            (0..14).map(|_| [(); LANES].map(|()| if rng.gen_bool(0.5) { 0.0 } else { -0.0 })),
        );
        // Cancellation: `1e8 + 1` rounds back to `1e8`, so the sum of `1e8,
        // 1, -1e8` is 0 or 1 by which pair the tree adds first. Each lane
        // pair of each level gets the big term and the one, the cancelling
        // term a lane elsewhere.
        for width in [8, 4, 2, 1] {
            for l in 0..width {
                let mut row = [0.0f32; LANES];
                row[l] = 1e8;
                row[l + width] = 1.0;
                row[(l + width + 1) % LANES] -= 1e8;
                rows.push(row);
                row.swap(l, l + width);
                rows.push(row);
            }
        }
        // Infinities (and, in the add network, `inf - inf`), subnormals.
        let mut edges = [0.0f32; LANES];
        edges[3] = f32::INFINITY;
        rows.push(edges);
        edges[12] = f32::NEG_INFINITY;
        rows.push(edges);
        rows.extend((0..16).map(|_| {
            [(); LANES].map(|()| {
                let tiny = f32::from_bits(rng.gen_range(1..0x0080_0000));
                if rng.gen_bool(0.5) {
                    -tiny
                } else {
                    tiny
                }
            })
        }));
        // Random tiles, magnitudes far apart.
        rows.extend((0..64).map(|_| {
            [(); LANES].map(|()| rng.gen_range(-1.0f32..1.0) * 10f32.powi(rng.gen_range(-6..7)))
        }));
        rows.chunks(LANES)
            .map(|tile| {
                let mut full = [[0.0f32; LANES]; LANES];
                full[..tile.len()].copy_from_slice(tile);
                full
            })
            .collect()
    }

    /// A fold network is sixteen `halve`s — or sixteen max trees — bit for
    /// bit, on every tier, at the full width and at the six rows of a head
    /// tile.
    #[test]
    fn fold_networks_bit_match_halve() {
        let mut rng = SmallRng::seed_from_u64(25);
        for tile in fold_tiles(&mut rng) {
            let sums: Vec<u32> = tile.iter().map(|row| halve(*row).to_bits()).collect();
            let maxima: Vec<u32> = tile.iter().map(|row| max_tree(*row).to_bits()).collect();
            let six: &[[f32; LANES]; 6] = tile[..6].try_into().unwrap();
            for tier in Tier::available() {
                let [got_sums, got_maxima] = folds(tier, &tile);
                assert_eq!(bits(&got_sums), sums, "{} sums of {tile:?}", tier.name());
                // No running maximum is ever NaN.
                if tile.iter().flatten().all(|x| !x.is_nan()) {
                    assert_eq!(
                        bits(&got_maxima),
                        maxima,
                        "{} maxima of {tile:?}",
                        tier.name()
                    );
                }
                let [six_sums, six_maxima] = folds(tier, six);
                assert_eq!(bits(&six_sums), sums[..6], "{} six sums", tier.name());
                assert_eq!(bits(&six_maxima), maxima[..6], "{} six maxima", tier.name());
            }
        }
    }

    /// A row with fewer than sixteen allowed keys skips the accumulation
    /// pass and the fold in the AVX-512 clone; on every tier, every `n` in
    /// `0..=16`, both weightings, tiles of six and of one head and both head
    /// widths, its output is the row-level composition's, which accumulates
    /// and folds.
    #[test]
    fn short_rows_bit_match_accumulate_then_fold() {
        let mut rng = SmallRng::seed_from_u64(26);
        for (d, group) in [(8, 7), (16, 6)] {
            let blocks = [(); 4].map(|()| random_block(2 * d, 20, &mut rng));
            let q: Vec<f32> = (0..group * d).map(|_| rng.gen_range(-2.0..2.0)).collect();
            for n in 0..=16usize {
                // The keys cut between the blocks, and a masked key between.
                let runs = [0..n / 2, n / 2 + 1..n + 1];
                let split = 3.min(n);
                let pieces = [
                    sub_block(&blocks[0], 0..split),
                    sub_block(&blocks[0], split..n + 1),
                    sub_block(&blocks[1], 0..split),
                    sub_block(&blocks[1], split..n + 1),
                ];
                let kv = GroupAttention {
                    keys: SplitCols::new(Some(&pieces[0]), &pieces[1]),
                    vals: SplitCols::new(Some(&pieces[2]), &pieces[3]),
                    head_dim: d,
                    scale: 0.4,
                };
                for (weigh, name) in [(softmax_row as RowWeigh, "softmax"), (silu_row, "silu")] {
                    let mut want = vec![0.3f32; group * d];
                    attend_per_head(&kv, 1, &runs, &q, weigh, &mut want);
                    for tier in Tier::available() {
                        let (mut scratch, mut got) = (Vec::new(), vec![0.3f32; group * d]);
                        if name == "softmax" {
                            attend_tiles::<Softmax>(
                                tier,
                                &kv,
                                1,
                                &runs,
                                &q,
                                &mut scratch,
                                &mut got,
                            );
                        } else {
                            attend_tiles::<Silu>(tier, &kv, 1, &runs, &q, &mut scratch, &mut got);
                        }
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{} {name} d {d} n {n}",
                            tier.name()
                        );
                    }
                }
            }
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
            let want = dot_fast(&s, flat.row(4 + c));
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
