//! Transformer weights: random initialization and the analytic
//! "pooling" construction used by the semantic ranking experiments.

use crate::config::GrModelConfig;
use bat_tensor::Matrix;
use rand::{rngs::SmallRng, SeedableRng};

/// Weights of one transformer layer.
#[derive(Debug, Clone)]
pub struct LayerWeights {
    /// RMSNorm gain before attention.
    pub attn_norm: Vec<f32>,
    /// Query projection, `hidden × q_dim`.
    pub wq: Matrix,
    /// Key projection, `hidden × kv_dim`.
    pub wk: Matrix,
    /// Value projection, `hidden × kv_dim`.
    pub wv: Matrix,
    /// Output projection, `q_dim × hidden`.
    pub wo: Matrix,
    /// RMSNorm gain before the FFN.
    pub ffn_norm: Vec<f32>,
    /// SwiGLU gate projection, `hidden × ffn_dim`.
    pub w_gate: Matrix,
    /// SwiGLU up projection, `hidden × ffn_dim`.
    pub w_up: Matrix,
    /// SwiGLU down projection, `ffn_dim × hidden`.
    pub w_down: Matrix,
}

/// Full model weights. The output head is tied to the embedding table, as
/// in Qwen2-1.5B: `logit_i = ⟨E[i], h⟩`.
#[derive(Debug, Clone)]
pub struct Weights {
    /// Architecture these weights instantiate.
    pub cfg: GrModelConfig,
    /// Token embedding table, `vocab × hidden`; also the (tied) output head.
    pub embedding: Matrix,
    /// Per-layer weights.
    pub layers: Vec<LayerWeights>,
    /// Final RMSNorm gain.
    pub final_norm: Vec<f32>,
}

impl Weights {
    /// Random (seeded) initialization with roughly Xavier scaling. Produces
    /// a well-conditioned but *meaningless* model — exactly what the
    /// structural invariance tests need: Bipartite Attention's cache-reuse
    /// exactness must hold for any weights.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`GrModelConfig::validate`].
    pub fn random(cfg: GrModelConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid model config");
        let mut rng = SmallRng::seed_from_u64(seed);
        let h = cfg.hidden_dim;
        let scale = (1.0 / h as f32).sqrt();
        let layers = (0..cfg.layers)
            .map(|_| LayerWeights {
                attn_norm: vec![1.0; h],
                wq: Matrix::random(h, cfg.q_dim(), scale, &mut rng),
                wk: Matrix::random(h, cfg.kv_dim(), scale, &mut rng),
                wv: Matrix::random(h, cfg.kv_dim(), scale, &mut rng),
                wo: Matrix::random(cfg.q_dim(), h, scale, &mut rng),
                ffn_norm: vec![1.0; h],
                w_gate: Matrix::random(h, cfg.ffn_dim, scale, &mut rng),
                w_up: Matrix::random(h, cfg.ffn_dim, scale, &mut rng),
                w_down: Matrix::random(cfg.ffn_dim, h, scale, &mut rng),
            })
            .collect();
        Weights {
            embedding: Matrix::random(cfg.vocab_size, h, 1.0, &mut rng),
            layers,
            final_norm: vec![1.0; h],
            cfg,
        }
    }

    /// The analytic **marker-routed** construction used for the Table 3
    /// reproduction.
    ///
    /// Given a planted *profile-marker* unit vector `μ` (shared by the
    /// discriminant token and the user-history tokens in the semantic
    /// world's embedding table):
    ///
    /// * `W_Q = qk_scale · I` — queries are the token's normalized content;
    /// * `W_K = qk_scale · μμᵀ` — keys collapse onto the marker axis, so the
    ///   attention logit is `qk_scale² · ⟨x̂_q, μ⟩⟨x̂_k, μ⟩` (rotated by
    ///   RoPE): marker-bearing queries attend marker-bearing keys, i.e. the
    ///   discriminant selectively pools the user's history, the way a
    ///   finetuned ranker routes information;
    /// * `W_V = value_scale · (I − μμᵀ)` — values carry the token's content
    ///   *minus* the marker, so the discriminant's self-attention contributes
    ///   nothing and the pooled update is pure item signal;
    /// * `W_O = I`, FFN zeroed (the residual carries).
    ///
    /// The tied output head then scores `logit_i = ⟨E[v_i], h⟩`, ranking
    /// candidates by affinity to the pooled history — a linear-attention
    /// recommender expressed inside the real transformer.
    ///
    /// `qk_scale` controls attention sharpness and hence position
    /// sensitivity: RoPE rotates queries and keys, so a larger scale makes
    /// the model *order-biased* (the paper's "instruction-tuned" failure
    /// mode, §4.2), while a moderate value yields an order-robust base
    /// model.
    ///
    /// # Panics
    ///
    /// Panics unless `query_heads == kv_heads` and `kv_dim() == hidden_dim`
    /// (the construction needs square projections), or if `embedding` or
    /// `marker` have the wrong shape.
    pub fn routed(
        cfg: GrModelConfig,
        embedding: Matrix,
        marker: &[f32],
        qk_scale: f32,
        value_scale: f32,
    ) -> Self {
        cfg.validate().expect("invalid model config");
        assert_eq!(
            cfg.query_heads, cfg.kv_heads,
            "routed construction needs query_heads == kv_heads"
        );
        assert_eq!(
            cfg.kv_dim(),
            cfg.hidden_dim,
            "routed construction needs kv_dim == hidden_dim"
        );
        assert_eq!(embedding.rows(), cfg.vocab_size, "embedding rows != vocab");
        assert_eq!(embedding.cols(), cfg.hidden_dim, "embedding cols != hidden");
        assert_eq!(marker.len(), cfg.hidden_dim, "marker dim != hidden");
        let h = cfg.hidden_dim;
        let scaled_identity = |s: f32| {
            let mut m = Matrix::zeros(h, h);
            for i in 0..h {
                m.set(i, i, s);
            }
            m
        };
        // W_K = s·μμᵀ: row-vector x maps to s·⟨x, μ⟩·μ.
        let mut wk = Matrix::zeros(h, h);
        for i in 0..h {
            for j in 0..h {
                wk.set(i, j, qk_scale * marker[i] * marker[j]);
            }
        }
        // W_V = v·(I − μμᵀ): values with the marker projected out.
        let mut wv = Matrix::zeros(h, h);
        for i in 0..h {
            for j in 0..h {
                let delta = if i == j { 1.0 } else { 0.0 };
                wv.set(i, j, value_scale * (delta - marker[i] * marker[j]));
            }
        }
        let layers = (0..cfg.layers)
            .map(|_| LayerWeights {
                attn_norm: vec![1.0; h],
                wq: scaled_identity(qk_scale),
                wk: wk.clone(),
                wv: wv.clone(),
                wo: Matrix::identity(h),
                ffn_norm: vec![1.0; h],
                w_gate: Matrix::zeros(h, cfg.ffn_dim),
                w_up: Matrix::zeros(h, cfg.ffn_dim),
                w_down: Matrix::zeros(cfg.ffn_dim, h),
            })
            .collect();
        Weights {
            embedding,
            layers,
            final_norm: vec![1.0; h],
            cfg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_weights_have_expected_shapes() {
        let cfg = GrModelConfig::tiny(50);
        let w = Weights::random(cfg.clone(), 7);
        assert_eq!(w.layers.len(), cfg.layers);
        assert_eq!(w.embedding.rows(), 50);
        let l = &w.layers[0];
        assert_eq!((l.wq.rows(), l.wq.cols()), (cfg.hidden_dim, cfg.q_dim()));
        assert_eq!((l.wk.rows(), l.wk.cols()), (cfg.hidden_dim, cfg.kv_dim()));
        assert_eq!((l.wo.rows(), l.wo.cols()), (cfg.q_dim(), cfg.hidden_dim));
        assert_eq!(
            (l.w_down.rows(), l.w_down.cols()),
            (cfg.ffn_dim, cfg.hidden_dim)
        );
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let cfg = GrModelConfig::tiny(20);
        let a = Weights::random(cfg.clone(), 42);
        let b = Weights::random(cfg, 42);
        assert_eq!(a.embedding, b.embedding);
        assert_eq!(a.layers[0].wq, b.layers[0].wq);
    }

    fn pooling_cfg(vocab: usize) -> GrModelConfig {
        GrModelConfig {
            query_heads: 2,
            kv_heads: 2,
            head_dim: 16,
            hidden_dim: 32,
            ..GrModelConfig::tiny(vocab)
        }
    }

    fn unit_marker() -> Vec<f32> {
        let mut m = vec![0.0f32; 32];
        m[0] = 0.6;
        m[1] = 0.8;
        m
    }

    #[test]
    fn routed_construction_shapes_and_algebra() {
        let cfg = pooling_cfg(10);
        let emb = Matrix::random(10, 32, 1.0, &mut SmallRng::seed_from_u64(1));
        let marker = unit_marker();
        let w = Weights::routed(cfg, emb, &marker, 0.5, 0.7);
        assert_eq!(w.layers[0].wo, Matrix::identity(32));
        assert_eq!(w.layers[0].w_gate, Matrix::zeros(32, 64));
        // W_K collapses any vector onto the marker axis.
        let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.13).sin()).collect();
        let k = Matrix::from_rows(&[&x]).matmul(&w.layers[0].wk);
        let proj: f32 = x.iter().zip(&marker).map(|(a, b)| a * b).sum();
        for (i, &ki) in k.as_slice().iter().enumerate() {
            assert!((ki - 0.5 * proj * marker[i]).abs() < 1e-5);
        }
        // W_V annihilates the marker direction.
        let v = Matrix::from_rows(&[&marker]).matmul(&w.layers[0].wv);
        assert!(v.as_slice().iter().all(|&x| x.abs() < 1e-5));
    }

    #[test]
    #[should_panic(expected = "query_heads == kv_heads")]
    fn routed_rejects_gqa() {
        let cfg = GrModelConfig::tiny(10); // 4 query heads, 2 kv heads
        let emb = Matrix::zeros(10, 32);
        let _ = Weights::routed(cfg, emb, &unit_marker(), 0.05, 1.0);
    }

    #[test]
    #[should_panic(expected = "embedding rows")]
    fn routed_rejects_bad_embedding() {
        let cfg = pooling_cfg(10);
        let emb = Matrix::zeros(5, 32);
        let _ = Weights::routed(cfg, emb, &unit_marker(), 0.05, 1.0);
    }
}
