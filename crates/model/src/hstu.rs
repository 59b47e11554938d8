//! HSTU-style Generative Recommender (the §4.2 "Extending to HSTU" claim).
//!
//! HSTU (Zhai et al., ICML'24) replaces the softmax transformer block with a
//! *pointwise aggregated attention* unit: gated SiLU projections, SiLU
//! attention weights normalized by context size instead of softmax, and an
//! elementwise gate on the aggregated value. The paper argues Bipartite
//! Attention carries over because HSTU shares the same causal-attention
//! formulation; here that is literal: an [`HstuModel`] **is** a
//! [`GrModel`] whose layers carry the pointwise unit, run by the same
//! forward over the same prompt-layout, mask and KV-segment machinery:
//!
//! * the layer is `y = W_O(norm(A·V) ⊙ U)` with
//!   `A_ij = SiLU(⟨q_i, k_j⟩/√d) / |allowed(i)|` over the bipartite mask;
//! * RoPE is applied to queries/keys at the layout's position IDs (HSTU
//!   uses relative positional bias; rotary encoding is the equivalent
//!   relative mechanism already used throughout this workspace);
//! * item KV entries are context-independent under the bipartite scheme,
//!   and prefix-cached forwards equal recomputation — the same structural
//!   properties, verified by the same tests through the same lines.

use crate::config::GrModelConfig;
use crate::transformer::{side_by_side, GrModel, Layer, Unit};
use bat_tensor::Matrix;
use rand::{rngs::SmallRng, SeedableRng};

/// Weights of one HSTU layer.
#[derive(Debug, Clone)]
pub struct HstuLayer {
    /// RMSNorm gain at the layer input.
    pub norm: Vec<f32>,
    /// Elementwise-gate projection `U`, `hidden × hidden`.
    pub wu: Matrix,
    /// Value projection, `hidden × kv_dim`.
    pub wv: Matrix,
    /// Query projection, `hidden × q_dim`.
    pub wq: Matrix,
    /// Key projection, `hidden × kv_dim`.
    pub wk: Matrix,
    /// Output projection, `hidden × hidden`.
    pub wo: Matrix,
    /// RMSNorm gain on the aggregate `A·V` before the gate.
    pub unit_norm: Vec<f32>,
}

/// An HSTU-style GR model: its weights, packed into a [`GrModel`] whose
/// every method it lends out.
///
/// ```
/// use bat_model::{GrModelConfig, HstuModel, MaskScheme, PromptLayout};
/// use bat_types::PrefixKind;
///
/// let cfg = GrModelConfig { query_heads: 2, kv_heads: 2, ..GrModelConfig::tiny(64) };
/// let model = HstuModel::random(cfg, 1);
/// let layout = PromptLayout::new(MaskScheme::Bipartite);
/// let seq = layout.build(PrefixKind::Item, &[40], &[vec![0], vec![1]], &[60]);
/// let out = model.forward(&seq, None);
/// assert!(out.logits().iter().all(|v| v.is_finite()));
/// ```
#[derive(Debug, Clone)]
pub struct HstuModel(GrModel);

impl HstuModel {
    /// Packs HSTU weights into the layout the shared forward reads.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`GrModelConfig::validate`], uses GQA
    /// (`query_heads != kv_heads`; HSTU's pointwise unit is single-group),
    /// or has `q_dim() != hidden_dim` (the unit gates the `q_dim`-wide
    /// aggregate with the `hidden`-wide `U`).
    pub fn new(
        cfg: GrModelConfig,
        embedding: Matrix,
        layers: Vec<HstuLayer>,
        final_norm: Vec<f32>,
    ) -> Self {
        cfg.validate().expect("invalid model config");
        assert_eq!(
            cfg.query_heads, cfg.kv_heads,
            "HSTU unit uses matched query/key heads"
        );
        assert_eq!(
            cfg.q_dim(),
            cfg.hidden_dim,
            "HSTU unit gates the attention aggregate with U: q_dim must equal hidden_dim"
        );
        let pack = |lw: HstuLayer| Layer {
            attn_norm: lw.norm,
            wq: side_by_side(&lw.wq, &lw.wu),
            wkv: side_by_side(&lw.wk, &lw.wv),
            wo: lw.wo,
            unit: Unit::Pointwise { norm: lw.unit_norm },
        };
        let layers = layers.into_iter().map(pack).collect();
        HstuModel(GrModel::from_layers(cfg, embedding, layers, final_norm))
    }

    /// Random (seeded) initialization.
    ///
    /// # Panics
    ///
    /// As [`HstuModel::new`].
    pub fn random(cfg: GrModelConfig, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let h = cfg.hidden_dim;
        let scale = (1.0 / h as f32).sqrt();
        let layers: Vec<HstuLayer> = (0..cfg.layers)
            .map(|_| HstuLayer {
                norm: vec![1.0; h],
                wu: Matrix::random(h, h, scale, &mut rng),
                wv: Matrix::random(h, cfg.kv_dim(), scale, &mut rng),
                wq: Matrix::random(h, cfg.q_dim(), scale, &mut rng),
                wk: Matrix::random(h, cfg.kv_dim(), scale, &mut rng),
                wo: Matrix::random(h, h, scale, &mut rng),
                unit_norm: vec![1.0; h],
            })
            .collect();
        let embedding = Matrix::random(cfg.vocab_size, h, 1.0, &mut rng);
        Self::new(cfg, embedding, layers, vec![1.0; h])
    }
}

impl std::ops::Deref for HstuModel {
    type Target = GrModel;

    fn deref(&self) -> &GrModel {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::{MaskScheme, PromptLayout};
    use bat_types::PrefixKind;

    fn hstu_cfg() -> GrModelConfig {
        GrModelConfig {
            query_heads: 2,
            kv_heads: 2,
            ..GrModelConfig::tiny(64)
        }
    }

    fn parts() -> (Vec<u32>, Vec<Vec<u32>>, Vec<u32>) {
        (
            vec![40, 41, 42, 43],
            vec![vec![0, 50], vec![1, 51], vec![2, 52]],
            vec![60, 61],
        )
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn forward_is_finite() {
        let model = HstuModel::random(hstu_cfg(), 3);
        let (u, i, s) = parts();
        let seq = PromptLayout::new(MaskScheme::Bipartite).build(PrefixKind::Item, &u, &i, &s);
        let out = model.forward(&seq, None);
        assert!(out.logits().iter().all(|v| v.is_finite()));
        let scores = out.candidate_scores(&[0, 1, 2]);
        assert!((scores.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    /// The §3.2 prefix-cache identity holds for the HSTU block too — bit
    /// for bit, wherever the prompt is split.
    #[test]
    fn prefix_cached_forward_equals_recompute() {
        let model = HstuModel::random(hstu_cfg(), 11);
        let (u, i, s) = parts();
        let layout = PromptLayout::new(MaskScheme::Bipartite);
        for kind in [PrefixKind::User, PrefixKind::Item] {
            let seq = layout.build(kind, &u, &i, &s);
            let full = model.forward(&seq, None);
            for split in 1..seq.len() {
                let (head, tail) = seq.split_at(split);
                let cached = model.forward(&tail, Some(&model.compute_kv(&head)));
                assert_eq!(
                    bits(&full.logits()),
                    bits(&cached.logits()),
                    "{kind} split at {split}: HSTU cached forward must equal recomputation"
                );
            }
        }
    }

    /// Item KV context-independence — the property that makes cross-user
    /// sharing sound — holds for HSTU under the bipartite scheme, bit for
    /// bit (same run lists, same kernels as the softmax model).
    #[test]
    fn item_kv_context_independent_under_bipartite() {
        let model = HstuModel::random(hstu_cfg(), 13);
        let (u, i, s) = parts();
        let layout = PromptLayout::new(MaskScheme::Bipartite);
        let seq = layout.build(PrefixKind::Item, &u, &i, &s);
        let full = model.forward(&seq, None);
        let solo = model.compute_kv(&layout.item_standalone(1, &i[1], 0));
        let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for l in 0..model.config().layers {
            for (t, g) in (2..4).enumerate() {
                let (in_prompt, alone) = (&full.suffix_kv.layers[l], &solo.layers[l]);
                assert_eq!(bits(in_prompt.key(g)), bits(alone.key(t)));
                assert_eq!(bits(in_prompt.value(g)), bits(alone.value(t)));
            }
        }
    }

    /// ...and breaks under the naive scheme, as for the LLM path.
    #[test]
    fn item_kv_context_dependent_under_naive() {
        let model = HstuModel::random(hstu_cfg(), 13);
        let (u, i, s) = parts();
        let layout = PromptLayout::new(MaskScheme::NaiveCausal);
        let seq = layout.build(PrefixKind::Item, &u, &i, &s);
        let full = model.forward(&seq, None);
        let solo = model.compute_kv(&layout.item_standalone(1, &i[1], 0));
        let mut differs = false;
        for l in 0..model.config().layers {
            if max_diff(&full.suffix_kv.layers[l].key(2), &solo.layers[l].key(0)) > 1e-3 {
                differs = true;
            }
        }
        assert!(differs);
    }

    /// Candidate-permutation equivariance (set semantics) carries over.
    #[test]
    fn candidate_permutation_equivariance() {
        let model = HstuModel::random(hstu_cfg(), 21);
        let (u, i, s) = parts();
        let layout = PromptLayout::new(MaskScheme::Bipartite);
        let seq = layout.build(PrefixKind::Item, &u, &i, &s);
        let scores = model.forward(&seq, None).candidate_scores(&[0, 1, 2]);
        let permuted = vec![i[2].clone(), i[0].clone(), i[1].clone()];
        let seq_p = layout.build(PrefixKind::Item, &u, &permuted, &s);
        let scores_p = model.forward(&seq_p, None).candidate_scores(&[2, 0, 1]);
        assert!(max_diff(&[scores[2], scores[0], scores[1]], &scores_p) < 1e-4);
    }

    /// The parallel HSTU forward is bit-identical to its serial run, at a
    /// shape whose every stage is big enough to go through the pool — the
    /// last layer's too, whose rows are the 60 discriminants.
    #[test]
    fn hstu_forward_bit_identical_across_thread_counts() {
        let cfg = GrModelConfig {
            kv_heads: 12,
            layers: 2,
            ..GrModelConfig::qwen2_1_5b_proxy(512)
        };
        let model = HstuModel::random(cfg, 37);
        let user: Vec<u32> = (0..130).collect();
        let items: Vec<Vec<u32>> = (0..60).map(|i| vec![200 + i, 300 + i]).collect();
        let discs: Vec<u32> = (400..460).collect();
        let seq = PromptLayout::new(MaskScheme::Bipartite).build_per_item_discriminants(
            PrefixKind::Item,
            &user,
            &items,
            &[500, 501],
            &discs,
        );
        for (stage, work) in model.stage_work(&seq, None) {
            assert!(
                bat_tensor::stage_is_pooled(work),
                "{stage} would run inline"
            );
        }
        let disc_rows = seq.len() - discs.len()..seq.len();
        bat_exec::set_threads(1);
        let gold = model.forward(&seq, None);
        for t in [2, 4, 8] {
            bat_exec::set_threads(t);
            let got = model.forward(&seq, None);
            assert_eq!(bits(&gold.logits()), bits(&got.logits()), "{t} threads");
            for row in disc_rows.clone() {
                assert_eq!(bits(gold.hidden(row)), bits(got.hidden(row)), "row {row}");
            }
        }
        bat_exec::set_threads(1);
    }

    /// The read-out contract is the softmax model's: a read-out row of the
    /// forward whose last layer ran nothing else has the bits of the
    /// one-row forward behind the cached rest.
    #[test]
    fn a_read_out_row_is_the_one_row_forward_behind_the_cached_rest() {
        let model = HstuModel::random(hstu_cfg(), 29);
        let (u, i, s) = parts();
        for scheme in [MaskScheme::Bipartite, MaskScheme::NaiveCausal] {
            let seq = PromptLayout::new(scheme).build_per_item_discriminants(
                PrefixKind::User,
                &u,
                &i,
                &s,
                &[5, 6, 7],
            );
            let pruned = model.forward(&seq, None);
            for t in seq.len() - 3..seq.len() {
                let (head, tail) = seq.split_at(t);
                let alone = model.forward(&tail.split_at(1).0, Some(&model.compute_kv(&head)));
                assert_eq!(bits(pruned.hidden(t)), bits(alone.hidden_last()), "row {t}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "matched query/key heads")]
    fn gqa_rejected() {
        let _ = HstuModel::random(GrModelConfig::tiny(32), 1); // 4 q heads, 2 kv
    }

    /// A shape whose aggregate `U` cannot gate is refused where the model is
    /// built, not by a norm's arity check inside a pool worker.
    #[test]
    #[should_panic(expected = "q_dim must equal hidden_dim")]
    fn aggregate_wider_than_the_gate_rejected() {
        let cfg = GrModelConfig {
            kv_heads: 8,
            ..GrModelConfig::small(64) // 8 × 16 = 128 query columns, hidden 64
        };
        let _ = HstuModel::random(cfg, 1);
    }
}
