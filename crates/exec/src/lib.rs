//! `bat-exec` — the workspace's parallel execution layer.
//!
//! A dependency-free work-stealing thread pool (see [`pool`]) plus the
//! deterministic data-parallel primitives every compute hot path in the
//! workspace builds on: an indexed map over disjoint outputs
//! ([`parallel_map_indexed`]) and one row splitter that lends cost-balanced
//! row blocks of row-major buffers ([`parallel_weighted_row_bands`]).
//!
//! Thread count resolution, in priority order:
//!
//! 1. [`set_threads`] (runtime override; `batctl --threads N`),
//! 2. the `BAT_THREADS` environment variable,
//! 3. the machine's available parallelism.
//!
//! At one effective thread every primitive runs the identical serial loop
//! inline — no pool, no atomics on the data path.
//!
//! # Determinism
//!
//! All primitives guarantee **bit-identical results for any thread count**:
//! map outputs and rows are written to disjoint slots by exactly one task
//! each with a fixed internal loop order. This is the contract the sim-vs-serve
//! parity and fault-determinism suites regression-test.
//!
//! ```
//! let squares = bat_exec::parallel_map_indexed(8, 1, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

pub mod pool;

use std::mem::MaybeUninit;
use std::ops::Range;

pub use pool::{parse_thread_override, run_blocks, set_threads, threads, MAX_THREADS};

/// Wraps a raw pointer so disjoint-slot writers can share it across tasks.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Writes `v` to slot `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds and no other task may touch slot `i`.
    unsafe fn write(&self, i: usize, v: T) {
        self.0.add(i).write(v);
    }

    /// Reborrows `len` elements starting at `start` as a mutable slice.
    ///
    /// # Safety
    ///
    /// The range must be in bounds and disjoint from every other slice
    /// handed out during the same parallel call.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_rows(&self, start: usize, len: usize) -> &mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(start), len)
    }
}

/// How many scheduling blocks to split `n` items into: enough to balance
/// load (a few blocks per thread), never more than `n`.
fn block_count(n: usize) -> usize {
    n.min(threads() * 4)
}

/// Splits `0..n` into `blocks` contiguous ranges of near-equal size.
/// Block `b`'s range depends only on `(n, blocks)`, not on scheduling.
fn block_range(n: usize, blocks: usize, b: usize) -> Range<usize> {
    let base = n / blocks;
    let extra = n % blocks;
    let start = b * base + b.min(extra);
    let len = base + usize::from(b < extra);
    start..start + len
}

/// Maps `f` over `0..n`, returning results in index order. `f(i)` runs
/// exactly once per index on some thread; outputs land in disjoint slots,
/// so the result is bit-identical to the serial loop for any thread count.
///
/// `grain` is the minimum number of items worth parallelizing: below it the
/// map runs inline (use it to keep tiny inner loops off the pool).
pub fn parallel_map_indexed<R, F>(n: usize, grain: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if threads() <= 1 || n < grain.max(2) {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(n);
    // SAFETY: every slot below is written exactly once before assuming init.
    #[allow(clippy::uninit_vec)]
    unsafe {
        out.set_len(n);
    }
    let ptr = SendPtr(out.as_mut_ptr());
    let blocks = block_count(n);
    run_blocks(blocks, &|b| {
        for i in block_range(n, blocks, b) {
            // SAFETY: block ranges partition 0..n; slot `i` is written by
            // exactly one task and read only after run_blocks returns.
            unsafe { ptr.write(i, MaybeUninit::new(f(i))) };
        }
    });
    // SAFETY: run_blocks completed every block, so all n slots are
    // initialized. MaybeUninit<R> and R have identical layout.
    unsafe { std::mem::transmute::<Vec<MaybeUninit<R>>, Vec<R>>(out) }
}

/// The weight-balanced partition of [`parallel_weighted_row_bands`]: rows
/// are split by cumulative *cost*, so a block of long rows does not inherit
/// every expensive row. Chunk `b` of `k` is `cuts[b]..cuts[b + 1]`, where
/// `cuts[b]` is the first row whose prefix cost reaches `b/k` of the total,
/// rounded to the nearest multiple of `align` — one forward sweep, so the
/// cuts are monotone and partition `0..n` exactly. A zero total cost gives
/// the uniform count split. `k <= MAX_THREADS * 4`, so the cuts live on the
/// stack and a steady-state call never allocates.
fn weighted_cuts(
    n: usize,
    cost: impl Fn(usize) -> u64,
    k: usize,
    align: usize,
) -> [usize; MAX_THREADS * 4 + 1] {
    let mut cuts = [0usize; MAX_THREADS * 4 + 1];
    let total: u128 = (0..n).map(|r| u128::from(cost(r))).sum();
    let mut prefix: u128 = 0;
    let mut i = 0usize;
    for (b, cut) in cuts.iter_mut().enumerate().take(k).skip(1) {
        if total == 0 {
            *cut = block_range(n, k, b).start;
        } else {
            let target = total * b as u128;
            while i < n && prefix * (k as u128) < target {
                prefix += u128::from(cost(i));
                i += 1;
            }
            *cut = i;
        }
        *cut = ((*cut + align / 2) / align * align).min(n);
    }
    cuts[k] = n;
    cuts
}

/// The row blocks [`parallel_weighted_row_bands`] hands out for `n_rows`
/// rows of cost `cost(r)` at `threads` effective threads, empty ones left out: a
/// pure function, so a test can assert where a stage is cut without racing
/// the process-wide thread count.
pub fn weighted_row_blocks(
    n_rows: usize,
    cost: impl Fn(usize) -> u64,
    align_rows: usize,
    threads: usize,
) -> Vec<Range<usize>> {
    let k = n_rows.min(threads.clamp(1, MAX_THREADS) * 4);
    let cuts = weighted_cuts(n_rows, cost, k, align_rows.max(1));
    let blocks = (0..k).map(|b| cuts[b]..cuts[b + 1]);
    blocks.filter(|rows| !rows.is_empty()).collect()
}

/// Treats each of `N` buffers as `n_rows` row-major rows and hands disjoint
/// contiguous row blocks of all of them to the pool at once, split by
/// cumulative cost: `cost(r)` is row `r`'s work — an attention row's exact
/// allowed-key count, so a block of short item rows and a block of long
/// instruction rows carry the same work, or `1` for a product or a row map,
/// which then splits by count. `bands[i]` is a buffer and its row length,
/// for a stage that carries a block of rows through several matrices:
/// `f(rows, slices)` gets rows `rows` of every buffer, in order, and each
/// row goes to exactly one call, so per-row results are
/// schedule-independent as long as `f` computes each row independently of
/// the block it is in. Every cut falls on a multiple of `align_rows` (a
/// kernel that works in tiles of that many rows then meets a partial tile
/// once per matrix, not once per block; pass `1` for rows that stand
/// alone); the blocks are those of [`weighted_row_blocks`], and a zero total
/// cost falls back to the uniform count split.
///
/// Serial (one inline `f(0..n_rows, buffers)` call) when `n_rows <
/// grain_rows` or one thread is effective.
///
/// # Panics
///
/// Panics if a row length or `align_rows` is zero, or a buffer is not
/// `n_rows` rows.
pub fn parallel_weighted_row_bands<T, F, const N: usize>(
    bands: [(&mut [T], usize); N],
    n_rows: usize,
    cost: impl Fn(usize) -> u64,
    grain_rows: usize,
    align_rows: usize,
    f: F,
) where
    T: Send,
    F: Fn(Range<usize>, [&mut [T]; N]) + Sync,
{
    assert!(align_rows > 0, "row alignment must be positive");
    let bands = bands.map(|(data, row_len)| {
        assert!(
            row_len > 0 && data.len() == n_rows * row_len,
            "buffer length {} is not {n_rows} rows of {row_len}",
            data.len()
        );
        (SendPtr(data.as_mut_ptr()), row_len)
    });
    let lend = |rows: Range<usize>| {
        // SAFETY: the ranges this is called with partition `0..n_rows` (one
        // call for all of it, or the cuts of one `weighted_cuts`), so no row
        // is lent twice: the slices of one buffer are disjoint and in
        // bounds, and those of different buffers come from different `&mut`
        // borrows, all of which outlive the call.
        let slices = bands
            .each_ref()
            .map(|(ptr, len)| unsafe { ptr.slice_rows(rows.start * len, rows.len() * len) });
        f(rows, slices);
    };
    if n_rows == 0 {
        return;
    }
    if threads() <= 1 || n_rows < grain_rows.max(2) {
        return lend(0..n_rows);
    }
    let k = block_count(n_rows);
    let cuts = &weighted_cuts(n_rows, cost, k, align_rows);
    run_blocks(k, &|b| {
        if cuts[b] < cuts[b + 1] {
            lend(cuts[b]..cuts[b + 1]);
        }
    });
}

/// Hands the calling thread its own lazily-created instance of `T` —
/// per-thread workspace plumbing for kernels that run inside the pool's
/// tasks. Pool workers are persistent daemon threads, so a scratch value
/// warms up once per worker and is then reused across every task, layer,
/// and request that lands on that thread: steady-state calls perform no
/// heap allocation beyond what `f` itself does with an already-grown `T`.
///
/// Distinct types get distinct slots (keyed by `TypeId`), so independent
/// subsystems can each keep scratch on the same thread without
/// coordination.
///
/// # Panics
///
/// Panics if `f` re-enters `with_thread_scratch` for the **same** `T` on
/// the same thread (the scratch value is exclusively borrowed while `f`
/// runs). Nesting with a different `T` is fine.
pub fn with_thread_scratch<T, R>(f: impl FnOnce(&mut T) -> R) -> R
where
    T: Default + 'static,
{
    use std::any::{Any, TypeId};
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::rc::Rc;

    thread_local! {
        static SCRATCH: RefCell<HashMap<TypeId, Rc<dyn Any>>> = RefCell::new(HashMap::new());
    }
    let slot: Rc<RefCell<T>> = SCRATCH.with(|cell| {
        let mut map = cell.borrow_mut();
        let slot = map
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Rc::new(RefCell::new(T::default())) as Rc<dyn Any>);
        Rc::clone(slot)
            .downcast::<RefCell<T>>()
            .expect("scratch slot type confusion")
    });
    let mut guard = slot.borrow_mut();
    f(&mut guard)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_at_any_width() {
        for t in [1, 2, 4, 8] {
            set_threads(t);
            let v = parallel_map_indexed(100, 1, |i| i * 3);
            assert_eq!(
                v,
                (0..100).map(|i| i * 3).collect::<Vec<_>>(),
                "{t} threads"
            );
        }
        set_threads(1);
    }

    #[test]
    fn thread_scratch_persists_and_separates_types() {
        #[derive(Default)]
        struct A(Vec<u32>);
        #[derive(Default)]
        struct B(String);
        with_thread_scratch(|a: &mut A| a.0.push(7));
        // Different type nests fine while A's slot exists.
        let b_len = with_thread_scratch(|b: &mut B| {
            b.0.push('x');
            with_thread_scratch(|a: &mut A| a.0.push(8));
            b.0.len()
        });
        assert_eq!(b_len, 1);
        // Same thread sees the same instance across calls.
        let a_now = with_thread_scratch(|a: &mut A| a.0.clone());
        assert_eq!(a_now, vec![7, 8]);
        // Another thread gets a fresh instance.
        let other = std::thread::spawn(|| with_thread_scratch(|a: &mut A| a.0.clone()))
            .join()
            .unwrap();
        assert!(other.is_empty());
    }

    #[test]
    fn weighted_chunks_cover_every_index_once() {
        for t in [1, 2, 4, 8] {
            set_threads(t);
            let weights: Vec<u64> = (0..157).map(|i| (i * 37) % 113).collect();
            let mut hits = vec![0u32; weights.len()];
            let bands = [(&mut hits[..], 1)];
            parallel_weighted_row_bands(
                bands,
                157,
                |r| weights[r],
                1,
                1,
                |_, [block]| {
                    block.iter_mut().for_each(|h| *h += 1);
                },
            );
            assert!(hits.iter().all(|&h| h == 1), "{t} threads");
        }
        set_threads(1);
    }

    /// Checked on the pure `(cost, k) → cuts` function: the pool width is
    /// process-global, so a test that reads it back races every other test
    /// that sets it.
    #[test]
    fn weighted_cuts_balance_skewed_weights() {
        // One 10_000-token prompt among 63 tiny ones: a count split gives
        // some chunk ~10k + neighbors; the weight split isolates it.
        let mut weights = vec![8u64; 64];
        weights[0] = 10_000;
        let total: u64 = weights.iter().sum();
        let max_w = *weights.iter().max().unwrap();
        for k in [2usize, 8, 16] {
            let cuts = weighted_cuts(weights.len(), |r| weights[r], k, 1);
            assert_eq!((cuts[0], cuts[k]), (0, weights.len()));
            let loads: Vec<u64> = (0..k)
                .map(|b| weights[cuts[b]..cuts[b + 1]].iter().sum())
                .collect();
            assert!(
                loads.iter().filter(|&&load| load > 0).count() > 1,
                "the split must actually split"
            );
            // Standard greedy bound: no chunk exceeds an even share plus
            // one item (the indivisible unit).
            for load in loads {
                let bound = total / k as u64 + max_w;
                assert!(load <= bound, "chunk load {load} vs bound {bound} (k {k})");
            }
        }
    }

    #[test]
    fn weighted_chunks_handle_degenerate_weights() {
        set_threads(4);
        // All-zero weights fall back to the uniform split; empty input is
        // a no-op.
        let mut hits = [0u32; 17];
        parallel_weighted_row_bands(
            [(&mut hits[..], 1)],
            17,
            |_| 0,
            1,
            1,
            |_, [block]| {
                block.iter_mut().for_each(|h| *h += 1);
            },
        );
        assert_eq!(hits, [1; 17]);
        let mut empty: [u32; 0] = [];
        parallel_weighted_row_bands(
            [(&mut empty[..], 1)],
            0,
            |_| 1,
            1,
            1,
            |_, _| panic!("must not run"),
        );
        set_threads(1);
    }

    /// The uniform cost a product or a row map passes: every row is lent
    /// once, and only the block holding the last rows may be ragged.
    #[test]
    fn row_blocks_cover_every_row_once() {
        for t in [1, 2, 4, 8] {
            set_threads(t);
            let rows = 37;
            let row_len = 5;
            for align in [1, 4, 40] {
                let mut buf = vec![0u32; rows * row_len];
                parallel_weighted_row_bands(
                    [(&mut buf[..], row_len)],
                    rows,
                    |_| 1,
                    1,
                    align,
                    |range, [block]| {
                        assert_eq!(range.start % align, 0);
                        assert!(range.len() % align == 0 || range.end == rows);
                        for (off, row) in block.chunks_mut(row_len).enumerate() {
                            for (c, slot) in row.iter_mut().enumerate() {
                                *slot += ((range.start + off) * row_len + c) as u32;
                            }
                        }
                    },
                );
                let want: Vec<u32> = (0..(rows * row_len) as u32).collect();
                assert_eq!(buf, want, "{t} threads, alignment {align}");
            }
        }
        set_threads(1);
    }

    #[test]
    fn weighted_row_blocks_cover_every_row_once() {
        for t in [1, 2, 4, 8] {
            set_threads(t);
            let row_len = 3;
            let weights: Vec<u64> = (0..41).map(|i| 1 + (i * 29) % 17).collect();
            let mut buf = vec![0u32; weights.len() * row_len];
            parallel_weighted_row_bands(
                [(&mut buf[..], row_len)],
                weights.len(),
                |r| weights[r],
                1,
                1,
                |rows, [block]| {
                    for (off, row) in block.chunks_mut(row_len).enumerate() {
                        for (c, slot) in row.iter_mut().enumerate() {
                            *slot += ((rows.start + off) * row_len + c) as u32;
                        }
                    }
                },
            );
            let want: Vec<u32> = (0..buf.len() as u32).collect();
            assert_eq!(buf, want, "{t} threads");
        }
        set_threads(1);
    }

    /// Several buffers of different widths go through in step: every row of
    /// each is lent exactly once, every cut is on the alignment, and the
    /// blocks are the ones `weighted_row_blocks` names for that width —
    /// under skewed costs and under the uniform cost a product or a row map
    /// passes, at alignments up to wider than the whole buffer.
    #[test]
    fn weighted_row_bands_lend_every_row_of_every_buffer_once() {
        let skewed: Vec<u64> = (0..41).map(|i| 1 + (i * 29) % 17).collect();
        let costs: [&(dyn Fn(usize) -> u64 + Sync); 2] = [&|r| skewed[r], &|_| 1];
        for t in [1, 2, 4, 8] {
            set_threads(t);
            for (cost, align) in costs.iter().flat_map(|c| [1, 4, 40].map(|a| (c, a))) {
                let (mut a, mut b) = (vec![0u32; 41 * 3], vec![0u32; 41 * 5]);
                let seen = std::sync::Mutex::new(Vec::new());
                let bands = [(&mut a[..], 3), (&mut b[..], 5)];
                parallel_weighted_row_bands(bands, 41, cost, 1, align, |rows, [a, b]| {
                    assert_eq!((a.len(), b.len()), (rows.len() * 3, rows.len() * 5));
                    assert!(rows.start % align == 0 && (rows.end % align == 0 || rows.end == 41));
                    for (off, r) in rows.clone().enumerate() {
                        a[off * 3..][..3]
                            .iter_mut()
                            .for_each(|x| *x += r as u32 + 1);
                        b[off * 5..][..5]
                            .iter_mut()
                            .for_each(|x| *x += r as u32 + 1);
                    }
                    seen.lock().unwrap().push(rows);
                });
                assert!(a
                    .chunks(3)
                    .enumerate()
                    .all(|(r, row)| row == [r as u32 + 1; 3]));
                assert!(b
                    .chunks(5)
                    .enumerate()
                    .all(|(r, row)| row == [r as u32 + 1; 5]));
                // The pool width is process-global and other tests set it:
                // compare with the pure function only where one block ran.
                let mut seen = seen.into_inner().unwrap();
                seen.sort_by_key(|rows| rows.start);
                if seen.len() > 1 {
                    let widths = [1, 2, 4, 8].map(|w| weighted_row_blocks(41, cost, align, w));
                    assert!(widths.contains(&seen), "{seen:?} @ {t} threads");
                }
            }
        }
        set_threads(1);
        assert_eq!(
            weighted_row_blocks(0, |_| 1, 4, 2),
            Vec::<Range<usize>>::new()
        );
        assert_eq!(weighted_row_blocks(8, |_| 1, 4, 1), vec![0..4, 4..8]);
    }

    #[test]
    fn empty_inputs_are_noops() {
        assert!(parallel_map_indexed(0, 1, |i| i).is_empty());
        parallel_weighted_row_bands(
            [(&mut [0u8; 0][..], 1)],
            0,
            |_| 1,
            1,
            1,
            |_, _| panic!("must not run"),
        );
    }
}
