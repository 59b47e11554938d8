//! HSTU-style Generative Recommender (the §4.2 "Extending to HSTU" claim).
//!
//! HSTU (Zhai et al., ICML'24) replaces the softmax transformer block with a
//! *pointwise aggregated attention* unit: gated SiLU projections, SiLU
//! attention weights normalized by context size instead of softmax, and an
//! elementwise gate on the aggregated value. The paper argues Bipartite
//! Attention carries over because HSTU shares the same causal-attention
//! formulation; this module substantiates that claim with a runnable
//! HSTU-style model over the **same** prompt-layout, mask and KV-segment
//! machinery as the LLM-style [`crate::GrModel`]:
//!
//! * the layer is `y = W_O(norm(A·V) ⊙ U)` with
//!   `A_ij = SiLU(⟨q_i, k_j⟩/√d) / |allowed(i)|` over the bipartite mask;
//! * RoPE is applied to queries/keys at the layout's position IDs (HSTU
//!   uses relative positional bias; rotary encoding is the equivalent
//!   relative mechanism already used throughout this workspace);
//! * item KV entries are context-independent under the bipartite scheme,
//!   and prefix-cached forwards equal recomputation — the same structural
//!   properties, verified by the same kind of tests.

use crate::config::GrModelConfig;
use crate::kv::KvSegment;
use crate::mask::{read_out_rows, runs, MaskBuf};
use crate::prompt::TokenSeq;
use crate::transformer::{norm_rows_into, run_rows, ForwardOutput, ForwardWorkspace};
use bat_exec::with_thread_scratch;
use bat_tensor::ops::{axpy, fast_silu_in_place, rms_norm_into};
use bat_tensor::{matmul_rows, GroupAttention, Matrix, RopeTable, Silu, SplitCols};
use rand::{rngs::SmallRng, SeedableRng};
use std::ops::Range;
use std::sync::Arc;

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
}

/// An HSTU-style GR model sharing the workspace's prompt machinery.
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
pub struct HstuModel {
    cfg: GrModelConfig,
    embedding: Arc<Matrix>,
    layers: Vec<HstuLayer>,
    final_norm: Vec<f32>,
    rope: RopeTable,
}

impl HstuModel {
    /// Random (seeded) initialization.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`GrModelConfig::validate`] or uses GQA
    /// (`query_heads != kv_heads`; HSTU's pointwise unit is single-group).
    pub fn random(cfg: GrModelConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid model config");
        assert_eq!(
            cfg.query_heads, cfg.kv_heads,
            "HSTU unit uses matched query/key heads"
        );
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
            })
            .collect();
        let rope = RopeTable::new(cfg.head_dim, cfg.max_positions, cfg.rope_base);
        let embedding = Arc::new(Matrix::random(cfg.vocab_size, h, 1.0, &mut rng));
        HstuModel {
            embedding,
            layers,
            final_norm: vec![1.0; h],
            rope,
            cfg,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &GrModelConfig {
        &self.cfg
    }

    /// Computes the KV segment of a standalone block (item/user prefix
    /// pre-computation), exactly like [`crate::GrModel::compute_kv`].
    pub fn compute_kv(&self, seq: &TokenSeq) -> KvSegment {
        self.forward(seq, None).suffix_kv
    }

    /// Runs the HSTU stack over `suffix`, optionally splicing a cached
    /// prefix KV segment, mirroring [`crate::GrModel::forward`] — including
    /// its batched, parallel execution: per-layer projections are one
    /// `X·W` product each, and attention runs over each token's
    /// allowed key runs only (SiLU weights in a compact score row,
    /// normalized by the allowed count), parallel over tokens with
    /// bit-identical results for any thread count — and its read-out: the
    /// last layer finishes the read-out rows ([`ForwardOutput`]) alone.
    ///
    /// # Panics
    ///
    /// Panics if `suffix` is empty or the prefix layer count mismatches.
    pub fn forward(&self, suffix: &TokenSeq, prefix: Option<&KvSegment>) -> ForwardOutput {
        let mut ws = ForwardWorkspace::new();
        self.forward_impl(suffix, prefix, &mut ws);
        ws.into_output()
    }

    /// [`HstuModel::forward`] into a caller-owned workspace, mirroring
    /// [`crate::GrModel::forward_with`]: a warmed workspace makes the
    /// steady-state HSTU forward allocation-free, with bit-identical
    /// results.
    pub fn forward_with<'w>(
        &self,
        suffix: &TokenSeq,
        prefix: Option<&KvSegment>,
        ws: &'w mut ForwardWorkspace,
    ) -> &'w ForwardOutput {
        self.forward_impl(suffix, prefix, ws);
        ws.output()
    }

    /// Multiply-adds of the attention and output product of rows `run`.
    fn rows_work(&self, mask: &MaskBuf, run: &Range<usize>) -> usize {
        let keys = mask.allowed()[run.clone()].iter().sum::<u64>() as usize;
        (keys + run.len() * self.cfg.hidden_dim) * self.cfg.hidden_dim
    }

    /// [`crate::GrModel::stage_work`] for the HSTU layer's stages.
    #[doc(hidden)]
    pub fn stage_work(
        &self,
        suffix: &TokenSeq,
        prefix: Option<&KvSegment>,
    ) -> [(&'static str, usize); 6] {
        let lw = &self.layers[0];
        let product = |w: &Matrix| suffix.len() * w.rows() * w.cols();
        let mask = MaskBuf::of(suffix, prefix, 0);
        let read_out: Vec<usize> = read_out_rows(&suffix.segs).collect();
        let widest = runs(&read_out).map(|run| self.rows_work(&mask, &run)).max();
        [
            ("Q", product(&lw.wq)),
            ("K", product(&lw.wk)),
            ("V", product(&lw.wv)),
            ("U", product(&lw.wu)),
            ("rows", self.rows_work(&mask, &(0..suffix.len()))),
            ("read-out rows", widest.unwrap_or(0)),
        ]
    }

    fn forward_impl(
        &self,
        suffix: &TokenSeq,
        prefix: Option<&KvSegment>,
        ws: &mut ForwardWorkspace,
    ) {
        assert!(!suffix.is_empty(), "forward needs at least one token");
        let cfg = &self.cfg;
        if let Some(p) = prefix {
            assert_eq!(p.layers.len(), cfg.layers, "prefix layer count mismatch");
        }
        let p_len = prefix.map_or(0, KvSegment::len);
        let s_len = suffix.len();
        let (d, hidden) = (cfg.head_dim, cfg.hidden_dim);
        let scale = 1.0 / (d as f32).sqrt();

        // Workspace mapping: `act` holds the gated unit output and `up`
        // the elementwise gate `U` (the FFN slots, unused by HSTU).
        let ForwardWorkspace {
            tags,
            mask,
            h,
            xn,
            q,
            k,
            v,
            o,
            act,
            up,
            out,
            ..
        } = ws;
        out.rows.clear();
        out.rows.extend(read_out_rows(&suffix.segs));
        let (read_out, suffix_kv) = (&out.rows, &mut out.suffix_kv);

        tags.clear();
        tags.extend(prefix.map_or(&[][..], |p| &p.segs));
        tags.extend_from_slice(&suffix.segs);
        mask.build(suffix.scheme, tags, p_len, 0);

        h.reset(s_len, hidden);
        act.reshape_for_overwrite(s_len, hidden);
        o.reshape_for_overwrite(s_len, hidden);
        for (t, &tok) in suffix.tokens.iter().enumerate() {
            h.row_mut(t)
                .copy_from_slice(self.embedding.row(tok as usize));
        }
        suffix_kv.reset_for(cfg.layers, cfg.kv_dim());
        suffix_kv.segs.extend_from_slice(&suffix.segs);
        suffix_kv.pos.extend_from_slice(&suffix.pos);
        for lkv in suffix_kv.layers.iter_mut() {
            lkv.reserve(s_len);
        }

        for (l, lw) in self.layers.iter().enumerate() {
            // Batched SiLU-gated projections for every suffix token, then
            // RoPE per row (SiLU first, as in the per-token formulation).
            norm_rows_into(h, &lw.norm, xn);
            xn.matmul_into(&lw.wq, q);
            xn.matmul_into(&lw.wk, k);
            xn.matmul_into(&lw.wv, v);
            xn.matmul_into(&lw.wu, up);
            for m in [&mut *q, &mut *k, &mut *v, &mut *up] {
                m.par_rows_mut(|_, row| fast_silu_in_place(row));
            }
            for m in [&mut *q, &mut *k] {
                m.par_rows_mut(|t, row| self.rope.apply_heads(row, suffix.pos[t] as usize));
            }
            for t in 0..s_len {
                suffix_kv.layers[l].push(k.row(t), v.row(t));
            }

            // Zero-copy split view over the packed [prefix ++ suffix]
            // blocks (HSTU is single-group: query_heads == kv_heads).
            let sl = &suffix_kv.layers[l];
            let kv = GroupAttention {
                keys: SplitCols::new(prefix.map(|p| p.layers[l].keys()), sl.keys()),
                vals: SplitCols::new(prefix.map(|p| p.layers[l].values()), sl.values()),
                head_dim: d,
                scale,
            };
            // SiLU attention over the token's allowed key runs + count
            // normalization + elementwise gate — the softmax model's kernel
            // with a group of one and SiLU as the row weighting — then the
            // output product and the residual, a block of rows per task: of
            // every row, or past the last layer of the read-out rows alone.
            let (q_ro, u_ro, mask_ro) = (&*q, &*up, &*mask);
            let rows_of = |rows: Range<usize>, [act, o, h]: [&mut [f32]; 3]| {
                with_thread_scratch(|scr: &mut HstuScratch| {
                    let HstuScratch { s, agg, normed } = scr;
                    for (t, grow) in rows.zip(act.chunks_exact_mut(hidden)) {
                        let runs = mask_ro.runs(t);
                        agg.clear();
                        agg.resize(cfg.kv_dim(), 0.0);
                        let heads = q_ro.row(t).chunks_exact(d).zip(agg.chunks_exact_mut(d));
                        for (head, (qv, out)) in heads.enumerate() {
                            kv.attend::<Silu>(head, runs, qv, s, out);
                        }
                        // HSTU's pointwise aggregation: context-size normalization.
                        let inv = 1.0 / mask_ro.allowed()[t].max(1) as f32;
                        agg.iter_mut().for_each(|x| *x *= inv);
                        normed.clear();
                        normed.resize(agg.len(), 0.0);
                        rms_norm_into(agg, &self.final_norm, 1e-6, normed);
                        for (slot, (a, g)) in grow.iter_mut().zip(normed.iter().zip(u_ro.row(t))) {
                            *slot = a * g;
                        }
                    }
                });
                matmul_rows(act, hidden, &lw.wo, o);
                axpy(h, 1.0, o);
            };
            let mut rows_stage = |run: Range<usize>| {
                let work = self.rows_work(mask_ro, &run);
                run_rows([&mut *act, o, h], run, mask_ro.allowed(), work, rows_of);
            };
            if l + 1 < cfg.layers {
                rows_stage(0..s_len);
            } else {
                runs(read_out).for_each(rows_stage);
            }
        }
        out.read_out(h, &self.final_norm, &self.embedding);
    }
}

/// Thread-local scratch of the HSTU attention closure: the kernel's
/// compact score row, per-head aggregate, and its normalized copy. See
/// [`bat_exec::with_thread_scratch`].
#[derive(Default)]
struct HstuScratch {
    s: Vec<f32>,
    agg: Vec<f32>,
    normed: Vec<f32>,
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

    /// The §3.2 prefix-cache identity holds for the HSTU block too.
    #[test]
    fn prefix_cached_forward_equals_recompute() {
        let model = HstuModel::random(hstu_cfg(), 11);
        let (u, i, s) = parts();
        let layout = PromptLayout::new(MaskScheme::Bipartite);
        for kind in [PrefixKind::User, PrefixKind::Item] {
            let seq = layout.build(kind, &u, &i, &s);
            let full = model.forward(&seq, None);
            let prefix_len = match kind {
                PrefixKind::User => u.len(),
                PrefixKind::Item => i.iter().map(Vec::len).sum(),
            };
            let (head, tail) = seq.split_at(prefix_len);
            let cached = model.forward(&tail, Some(&model.compute_kv(&head)));
            assert!(
                max_diff(&full.logits(), &cached.logits()) < 1e-3,
                "{kind}: HSTU cached forward must equal recomputation"
            );
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
}
