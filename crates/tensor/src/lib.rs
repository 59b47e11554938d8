//! Minimal dense linear-algebra kernels for the GR transformer.
//!
//! `bat-model` needs a small set of primitives to run a transformer forward
//! pass: a row-major matrix with matmul, numerically-stable softmax, RMS
//! normalization, rotary position embeddings (RoPE, [Su et al. 2024], the
//! position encoding the paper adjusts in §4.2), and the run-structured
//! group attention kernel over packed KV ([`GroupAttention`]). Everything
//! is portable f32 from scratch — no BLAS — and the hot kernels are written
//! for throughput: plain-Rust bodies in fused multiply-adds
//! ([`f32::mul_add`]), multiversioned per SIMD tier (AVX-512, AVX2+FMA, NEON;
//! see `simd.rs`), with [`Matrix::matmul`] a register-blocked GEMM. Every
//! kernel runs on the calling thread: the crate schedules no threads, and
//! a caller that parallelises cuts its work into row blocks itself
//! ([`matmul_rows`] is the product of one block).
//!
//! No SIMD intrinsics, with one exception: the group attention kernel's
//! horizontal folds in its AVX-512 clone are transposing networks written
//! with `std::arch` (`fold.rs`), sixteen accumulators folded in fifteen
//! vector additions — the same additions, in the same order, as the portable
//! halving fold they replace. Portable Rust could not say this: every
//! formulation tried either went back to LLVM's own extract tree or became
//! gathers and scatters, and was no faster (EXPERIMENTS.md, PR 25). A source
//! scan (`tests/intrinsics_in_one_place.rs`) keeps every intrinsic in that
//! one file. Every kernel is deterministic: a row's results are
//! bit-identical in any block of rows and at any tier (DESIGN §5d has the
//! numerics contract — what is an identity, what is a bound, and what is not
//! promised across commits).
//!
//! # Example
//!
//! ```
//! use bat_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! assert_eq!(a.matmul(&b), a);
//! ```

#[cfg(target_arch = "x86_64")]
mod fold;
pub mod matrix;
pub mod ops;
pub mod packed;
pub mod quant;
pub mod rope;
mod simd;

pub use matrix::{matmul_rows, stage_is_pooled, Matrix, TILE_ROWS};
pub use ops::{
    active_simd_tier, axpy, dot, dot_fast, fast_exp, fast_silu, fast_silu_in_place,
    fast_silu_mul_in_place, rms_norm, rms_norm_into, silu, softmax_exp_sum,
    stable_softmax_fast_in_place, stable_softmax_in_place,
};
pub use packed::{ColBlock, GroupAttention, RowWeights, Silu, Softmax, SplitCols};
pub use quant::{f16_to_f32, f32_to_f16, fp16_round_trip, QuantKind, QuantizedColBlock};
pub use rope::RopeTable;
