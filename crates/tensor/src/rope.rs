//! Rotary position embeddings (RoPE).
//!
//! RoPE rotates each consecutive pair of query/key dimensions by an angle
//! proportional to the token's *position ID*. Bipartite Attention's key
//! trick (§4.2) is to **assign position IDs explicitly** — every candidate
//! item restarts from the same base position — so that an item's keys are
//! identical no matter where the item block physically sits in the prompt.
//! That is what makes item KV entries reusable across prompts.
//!
//! The table is precomputed per `(position, dim)` for speed and determinism.

use crate::simd::{tiered, Tier};

/// Precomputed RoPE sine/cosine table.
///
/// ```
/// use bat_tensor::RopeTable;
///
/// let rope = RopeTable::new(8, 64, 10_000.0);
/// let mut q = vec![1.0f32; 8];
/// rope.apply(&mut q, 3);
/// // Position 0 is the identity rotation.
/// let mut k = vec![1.0f32; 8];
/// rope.apply(&mut k, 0);
/// assert_eq!(k, vec![1.0f32; 8]);
/// ```
#[derive(Debug, Clone)]
pub struct RopeTable {
    head_dim: usize,
    max_positions: usize,
    /// `cos[pos * head_dim/2 + i]`, `sin[...]` for pair `i` at `pos`.
    cos: Vec<f32>,
    sin: Vec<f32>,
}

impl RopeTable {
    /// Builds a table for `head_dim`-dimensional heads over positions
    /// `0..max_positions`, with the given frequency `base` (10 000 in
    /// Llama/Qwen).
    ///
    /// # Panics
    ///
    /// Panics if `head_dim` is odd (RoPE rotates dimension *pairs*).
    pub fn new(head_dim: usize, max_positions: usize, base: f32) -> Self {
        assert!(head_dim.is_multiple_of(2), "RoPE head_dim must be even");
        let half = head_dim / 2;
        let mut cos = Vec::with_capacity(max_positions * half);
        let mut sin = Vec::with_capacity(max_positions * half);
        for pos in 0..max_positions {
            for i in 0..half {
                let freq = 1.0 / base.powf(2.0 * i as f32 / head_dim as f32);
                let angle = pos as f32 * freq;
                cos.push(angle.cos());
                sin.push(angle.sin());
            }
        }
        RopeTable {
            head_dim,
            max_positions,
            cos,
            sin,
        }
    }

    /// Rotates `vec` (one attention head of length `head_dim`) in place for
    /// the given position ID.
    ///
    /// # Panics
    ///
    /// Panics if `vec.len() != head_dim` or `position >= max_positions`.
    pub fn apply(&self, vec: &mut [f32], position: usize) {
        assert_eq!(vec.len(), self.head_dim, "RoPE dim mismatch");
        self.apply_heads(vec, position);
    }

    /// Rotates every head of `row` (whole heads of length `head_dim`, back
    /// to back — a token's query or key row) in place for the given
    /// position ID, in one multiversioned pass: `(a, b) ← (a·c − b·s,
    /// a·s + b·c)` with the second product of each fused into the sum.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not whole heads or `position >= max_positions`.
    pub fn apply_heads(&self, row: &mut [f32], position: usize) {
        assert_eq!(row.len() % self.head_dim, 0, "RoPE dim mismatch");
        assert!(
            position < self.max_positions,
            "position {position} out of RoPE table range {}",
            self.max_positions
        );
        let half = self.head_dim / 2;
        let at = position * half..(position + 1) * half;
        rotate(Tier::best(), &self.cos[at.clone()], &self.sin[at], row);
    }
}

tiered! {
    fn rotate(cos: &[f32], sin: &[f32], row: &mut [f32]) = rotate_body
}

#[inline(always)]
fn rotate_body(cos: &[f32], sin: &[f32], row: &mut [f32]) {
    for head in row.chunks_exact_mut(2 * cos.len()) {
        for ((pair, &c), &s) in head.chunks_exact_mut(2).zip(cos).zip(sin) {
            let (a, b) = (pair[0], pair[1]);
            pair[0] = a.mul_add(c, -(b * s));
            pair[1] = a.mul_add(s, b * c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn position_zero_is_identity() {
        let rope = RopeTable::new(16, 32, 10_000.0);
        let original: Vec<f32> = (0..16).map(|i| i as f32 * 0.1).collect();
        let mut v = original.clone();
        rope.apply(&mut v, 0);
        assert_eq!(v, original);
    }

    #[test]
    fn rotation_preserves_norm() {
        let rope = RopeTable::new(8, 64, 10_000.0);
        let mut v = vec![1.0, -2.0, 0.5, 3.0, -1.0, 0.25, 2.0, -0.5];
        let norm_before: f32 = v.iter().map(|x| x * x).sum();
        rope.apply(&mut v, 17);
        let norm_after: f32 = v.iter().map(|x| x * x).sum();
        assert!((norm_before - norm_after).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "out of RoPE table range")]
    fn position_out_of_range_panics() {
        let rope = RopeTable::new(4, 8, 10_000.0);
        let mut v = vec![0.0; 4];
        rope.apply(&mut v, 8);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_head_dim_panics() {
        let _ = RopeTable::new(3, 8, 10_000.0);
    }

    proptest! {
        /// The RoPE *relative position* property: ⟨R(q,m), R(k,n)⟩ depends on
        /// m−n only. This is exactly why resetting every item's base position
        /// to the same value makes item KV caches position-independent.
        #[test]
        fn dot_depends_on_relative_position(
            seed in 0u64..500,
            m in 0usize..32,
            shift in 0usize..32,
        ) {
            use rand::{Rng, SeedableRng, rngs::SmallRng};
            let rope = RopeTable::new(8, 128, 10_000.0);
            let mut rng = SmallRng::seed_from_u64(seed);
            let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let k: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let delta = 5usize;

            // Pair 1: positions (m + delta, m).
            let (mut q1, mut k1) = (q.clone(), k.clone());
            rope.apply(&mut q1, m + delta);
            rope.apply(&mut k1, m);

            // Pair 2: both shifted by `shift`.
            let (mut q2, mut k2) = (q.clone(), k.clone());
            rope.apply(&mut q2, m + delta + shift);
            rope.apply(&mut k2, m + shift);

            prop_assert!((dot(&q1, &k1) - dot(&q2, &k2)).abs() < 1e-3);
        }

        /// Rotation is an isometry at every position.
        #[test]
        fn isometry(seed in 0u64..500, pos in 0usize..64) {
            use rand::{Rng, SeedableRng, rngs::SmallRng};
            let rope = RopeTable::new(16, 64, 10_000.0);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut v: Vec<f32> = (0..16).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let before: f32 = v.iter().map(|x| x * x).sum();
            rope.apply(&mut v, pos);
            let after: f32 = v.iter().map(|x| x * x).sum();
            prop_assert!((before - after).abs() < 1e-3);
        }
    }
}
