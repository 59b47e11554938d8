//! Minimal dense linear-algebra kernels for the GR transformer.
//!
//! `bat-model` needs a small set of primitives to run a transformer forward
//! pass: a row-major matrix with matmul, numerically-stable softmax, RMS
//! normalization, rotary position embeddings (RoPE, [Su et al. 2024], the
//! position encoding the paper adjusts in §4.2), and the run-structured
//! group attention kernel over packed KV ([`GroupAttention`]). Everything
//! is portable f32 from scratch — no BLAS, no SIMD intrinsics — but the hot
//! kernels are written for
//! throughput: [`Matrix::matmul_nt`] streams a transposed-packed operand
//! through a branch-free 4-wide-unrolled dot product with cache tiling, and
//! output row blocks run in parallel on [`bat_exec`]'s work-stealing pool.
//! Every kernel is deterministic: results are bit-identical for any thread
//! count (see `bat_exec`'s crate docs for the contract).
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

pub mod matrix;
pub mod ops;
pub mod packed;
pub mod quant;
pub mod rope;

pub use matrix::Matrix;
pub use ops::{
    active_simd_tier, axpy, dot, dot_fast, fast_exp, fast_silu, fast_silu_in_place,
    fast_silu_mul_in_place, rms_norm, rms_norm_into, silu, softmax_fast_given_max,
    stable_softmax_fast_in_place, stable_softmax_in_place,
};
pub use packed::{ColBlock, GroupAttention, RowWeights, Silu, Softmax, SplitCols};
pub use quant::{f16_to_f32, f32_to_f16, fp16_round_trip, QuantKind, QuantizedColBlock};
pub use rope::RopeTable;
