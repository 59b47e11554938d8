//! The planted-preference semantic world used to reproduce Table 3.
//!
//! The paper evaluates UP-vs-IP ranking quality with finetuned LLMs on
//! Amazon datasets. We cannot ship those weights, so we build the closest
//! self-contained equivalent that exercises the same code path: a synthetic
//! *semantic world* in which
//!
//! * every item carries a latent unit vector (its embedding in the model's
//!   tied vocabulary table),
//! * every user has a latent preference vector, a history of high-affinity
//!   items (the profile block), and a held-out ground-truth item (their next
//!   interaction),
//! * the GR is the **real transformer** of this crate with the analytic
//!   marker-routed construction ([`crate::Weights::routed`]).
//!
//! History tokens share a planted *profile-marker* direction with the
//! discriminant token, so the discriminant selectively attends the user's
//! history (the way a finetuned ranker routes information) and
//! `logit_i = ⟨E[v_i], h⟩` ranks candidates by affinity.
//!
//! Ordering sensitivity: the transformer applies RoPE to queries and keys
//! and, in the IP layout, profile tokens can attend candidate tokens, so UP
//! and IP give close but not identical metrics — exactly the regime Table 3
//! reports. `qk_scale` controls routing sharpness: a sharp router keeps the
//! candidate *set* from contaminating the profile *sequence* when the
//! blocks are swapped, while a weak router leaks — the paper's observation
//! that degradation "depends on the base model's ability to distinguish
//! between set semantics and sequence semantics" (§4.2).

use crate::config::GrModelConfig;
use crate::prompt::{MaskScheme, PromptLayout};
use crate::transformer::GrModel;
use crate::weights::Weights;
use bat_tensor::Matrix;
use bat_types::PrefixKind;
use rand::seq::SliceRandom;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Configuration of a semantic world.
#[derive(Debug, Clone)]
pub struct SemanticConfig {
    /// Number of items in the corpus.
    pub num_items: usize,
    /// Number of users.
    pub num_users: usize,
    /// Items in each user's history (the profile block encodes these).
    pub history_len: usize,
    /// Tokens per item: one identifier token plus `tokens_per_item - 1`
    /// attribute tokens.
    pub tokens_per_item: usize,
    /// Candidates per ranking request (paper: 100).
    pub candidates: usize,
    /// Attention-routing sharpness. Sharp (~1.4) models are order-robust;
    /// weak (~1.0) routing leaks candidate content into the profile
    /// representation under IP (the §4.2 order-sensitive regime).
    pub qk_scale: f32,
    /// Residual-update strength of each attention layer.
    pub value_scale: f32,
    /// Weight of the profile-marker direction in history-token embeddings.
    pub marker_beta: f32,
    /// Attribute-token noise around the item vector.
    pub attr_noise: f32,
    /// RNG seed for the whole world.
    pub seed: u64,
}

impl SemanticConfig {
    /// A small world suitable for unit tests (fast in debug builds).
    pub fn test_world() -> Self {
        SemanticConfig {
            num_items: 120,
            num_users: 40,
            history_len: 8,
            tokens_per_item: 2,
            candidates: 20,
            qk_scale: 1.4,
            value_scale: 0.5,
            marker_beta: 1.2,
            attr_noise: 0.2,
            seed: 2026,
        }
    }

    /// The Table 3 evaluation world: 100 candidates as in the paper.
    pub fn table3_world(seed: u64) -> Self {
        SemanticConfig {
            num_items: 400,
            num_users: 150,
            history_len: 12,
            tokens_per_item: 3,
            candidates: 100,
            qk_scale: 1.4,
            value_scale: 0.5,
            marker_beta: 1.2,
            attr_noise: 0.2,
            seed,
        }
    }

    /// The order-sensitive ("instruction-tuned-like") variant of this
    /// world: routing is too weak to keep set and sequence semantics apart
    /// when the prompt blocks are swapped (§4.2).
    pub fn order_biased(mut self) -> Self {
        self.qk_scale = 1.0;
        self
    }

    /// Total vocabulary: candidate tokens, history tokens, and two
    /// instruction tokens.
    pub fn vocab_size(&self) -> usize {
        2 * self.num_items * self.tokens_per_item + 2
    }
}

/// One ranking task: a user, their candidate list, and which candidate is
/// the held-out ground truth.
#[derive(Debug, Clone)]
pub struct RankingTask {
    /// User index in the world.
    pub user: usize,
    /// Candidate item indices (ground truth included, position shuffled).
    pub candidates: Vec<usize>,
    /// Index *into `candidates`* of the ground-truth item.
    pub truth_pos: usize,
}

/// A fully-materialized semantic world plus its GR model.
pub struct SemanticWorld {
    /// Configuration the world was generated from.
    pub cfg: SemanticConfig,
    /// The runnable GR.
    pub model: GrModel,
    /// Latent item vectors (unit norm), one per item.
    pub item_vecs: Vec<Vec<f32>>,
    /// Per-user history (item indices).
    pub histories: Vec<Vec<usize>>,
    /// Per-user held-out ground-truth item.
    pub truths: Vec<usize>,
    layout: PromptLayout,
}

const HIDDEN: usize = 32;

impl SemanticWorld {
    /// Generates a world deterministically from `cfg.seed`.
    pub fn generate(cfg: SemanticConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let vocab = cfg.vocab_size();
        let tpi = cfg.tokens_per_item;

        // The profile marker μ: shared by history tokens and the
        // discriminant token, routing attention to the user's history.
        let marker = unit_vec(HIDDEN, &mut rng);
        // Item vectors live in the subspace orthogonal to μ — semantically,
        // "item content" and "profile structure" are different feature
        // axes, so candidate tokens carry no marker signal and cannot steal
        // routed attention from the history.
        let item_vecs: Vec<Vec<f32>> = (0..cfg.num_items)
            .map(|_| {
                let mut v = unit_vec(HIDDEN, &mut rng);
                let proj: f32 = v.iter().zip(&marker).map(|(a, b)| a * b).sum();
                for (x, &m) in v.iter_mut().zip(&marker) {
                    *x -= proj * m;
                }
                let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
                v.iter_mut().for_each(|x| *x /= norm);
                v
            })
            .collect();

        let mut emb = Matrix::zeros(vocab, HIDDEN);
        let set_row = |emb: &mut Matrix, row: usize, v: &[f32]| {
            for (c, &x) in v.iter().enumerate() {
                emb.set(row, c, x);
            }
        };
        for (i, v) in item_vecs.iter().enumerate() {
            // Candidate tokens: id token = e_i, attributes = e_i + noise.
            set_row(&mut emb, i, v);
            for a in 0..tpi - 1 {
                let row = cfg.num_items + i * (tpi - 1) + a;
                let noisy: Vec<f32> = v
                    .iter()
                    .map(|&x| x + rng.gen_range(-cfg.attr_noise..cfg.attr_noise))
                    .collect();
                set_row(&mut emb, row, &noisy);
            }
            // History tokens: damped item vector + marker + noise.
            for a in 0..tpi {
                let row = cfg.num_items * tpi + i * tpi + a;
                let mixed: Vec<f32> = v
                    .iter()
                    .zip(&marker)
                    .map(|(&x, &m)| {
                        0.8 * x
                            + cfg.marker_beta * m
                            + rng.gen_range(-cfg.attr_noise..cfg.attr_noise)
                    })
                    .collect();
                set_row(&mut emb, row, &mixed);
            }
        }
        // Instruction tokens: a filler token and the discriminant (= μ).
        let filler = unit_vec(HIDDEN, &mut rng);
        let scaled: Vec<f32> = filler.iter().map(|&x| 0.3 * x).collect();
        set_row(&mut emb, vocab - 2, &scaled);
        set_row(&mut emb, vocab - 1, &marker);

        // Users: preference vector, history = affinity-biased sample,
        // truth = the highest-affinity item not in the history.
        let mut histories = Vec::with_capacity(cfg.num_users);
        let mut truths = Vec::with_capacity(cfg.num_users);
        for _ in 0..cfg.num_users {
            let pref = unit_vec(HIDDEN, &mut rng);
            let mut scored: Vec<(usize, f32)> = item_vecs
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let aff: f32 = pref.iter().zip(v).map(|(a, b)| a * b).sum();
                    (i, aff + rng.gen_range(-0.15..0.15))
                })
                .collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            let truth = scored[0].0;
            let history: Vec<usize> = scored[1..=cfg.history_len]
                .iter()
                .map(|&(i, _)| i)
                .collect();
            histories.push(history);
            truths.push(truth);
        }

        let model_cfg = GrModelConfig {
            vocab_size: vocab,
            hidden_dim: HIDDEN,
            layers: 2,
            query_heads: 2,
            kv_heads: 2,
            head_dim: 16,
            ffn_dim: 64,
            max_positions: 8192,
            rope_base: 10_000.0,
        };
        let weights = Weights::routed(model_cfg, emb, &marker, cfg.qk_scale, cfg.value_scale);
        SemanticWorld {
            model: GrModel::new(weights),
            item_vecs,
            histories,
            truths,
            layout: PromptLayout::new(MaskScheme::Bipartite),
            cfg,
        }
    }

    /// The candidate token sequence of one item: `[id, attributes...]`.
    pub fn item_tokens(&self, item: usize) -> Vec<u32> {
        let tpi = self.cfg.tokens_per_item;
        let mut t = vec![item as u32];
        for a in 0..tpi - 1 {
            t.push((self.cfg.num_items + item * (tpi - 1) + a) as u32);
        }
        t
    }

    /// The history token sequence of one item (marker-bearing vocabulary).
    pub fn history_item_tokens(&self, item: usize) -> Vec<u32> {
        let tpi = self.cfg.tokens_per_item;
        (0..tpi)
            .map(|a| (self.cfg.num_items * tpi + item * tpi + a) as u32)
            .collect()
    }

    /// The user-profile token block: the concatenated history token
    /// sequences of the history items.
    pub fn user_tokens(&self, user: usize) -> Vec<u32> {
        self.histories[user]
            .iter()
            .flat_map(|&i| self.history_item_tokens(i))
            .collect()
    }

    /// The instruction block (two tokens; the second is the discriminant).
    pub fn instr_tokens(&self) -> Vec<u32> {
        let v = self.cfg.vocab_size() as u32;
        vec![v - 2, v - 1]
    }

    /// Builds the ranking task of `user`: ground truth + sampled negatives,
    /// shuffled deterministically.
    pub fn task(&self, user: usize) -> RankingTask {
        let mut rng =
            SmallRng::seed_from_u64(self.cfg.seed ^ (user as u64).wrapping_mul(0x9e37_79b9));
        let truth = self.truths[user];
        let mut cands = vec![truth];
        while cands.len() < self.cfg.candidates {
            let i = rng.gen_range(0..self.cfg.num_items);
            if i != truth && !cands.contains(&i) {
                cands.push(i);
            }
        }
        cands.shuffle(&mut rng);
        let truth_pos = cands.iter().position(|&i| i == truth).unwrap();
        RankingTask {
            user,
            candidates: cands,
            truth_pos,
        }
    }

    /// Scores a task under the given prefix ordering and mask scheme,
    /// returning the candidates' softmax scores (in candidate order).
    pub fn score(&self, task: &RankingTask, prefix: PrefixKind, scheme: MaskScheme) -> Vec<f32> {
        let layout = if scheme == MaskScheme::Bipartite {
            self.layout.clone()
        } else {
            PromptLayout::new(scheme)
        };
        let user = self.user_tokens(task.user);
        let items: Vec<Vec<u32>> = task
            .candidates
            .iter()
            .map(|&i| self.item_tokens(i))
            .collect();
        let seq = layout.build(prefix, &user, &items, &self.instr_tokens());
        let out = self.model.forward(&seq, None);
        let id_tokens: Vec<u32> = task.candidates.iter().map(|&i| i as u32).collect();
        out.candidate_scores(&id_tokens)
    }

    /// Scores a task under IP with a PIC repair pass of the given fraction.
    pub fn score_with_pic(&self, task: &RankingTask, fraction: f32) -> Vec<f32> {
        let user = self.user_tokens(task.user);
        let items: Vec<Vec<u32>> = task
            .candidates
            .iter()
            .map(|&i| self.item_tokens(i))
            .collect();
        let out = crate::pic::forward_ip_with_pic(
            &self.model,
            &user,
            &items,
            &self.instr_tokens(),
            crate::pic::PicConfig::new(fraction),
        );
        let id_tokens: Vec<u32> = task.candidates.iter().map(|&i| i as u32).collect();
        out.candidate_scores(&id_tokens)
    }

    /// Runs tasks for the first `n` users, returning the 0-based rank of the
    /// ground-truth item per user (rank 0 = top-1).
    ///
    /// Users are independent ranking requests, so they are scored in
    /// parallel on [`bat_exec`]; each task is seeded from the user index,
    /// and results land in user order, so the output is identical to the
    /// serial loop for any thread count.
    pub fn eval_ranks(&self, prefix: PrefixKind, scheme: MaskScheme, n: usize) -> Vec<usize> {
        bat_exec::parallel_map_indexed(n.min(self.cfg.num_users), 1, |u| {
            let task = self.task(u);
            let scores = self.score(&task, prefix, scheme);
            rank_of(&scores, task.truth_pos)
        })
    }
}

/// The 0-based rank of `target` when scores are sorted descending
/// (ties broken by index).
pub fn rank_of(scores: &[f32], target: usize) -> usize {
    let s = scores[target];
    scores
        .iter()
        .enumerate()
        .filter(|&(i, &v)| v > s || (v == s && i < target))
        .count()
}

fn unit_vec<R: Rng>(dim: usize, rng: &mut R) -> Vec<f32> {
    // Sum of uniforms ≈ Gaussian enough for direction sampling.
    let mut v: Vec<f32> = (0..dim)
        .map(|_| (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).sum::<f32>())
        .collect();
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
    v.iter_mut().for_each(|x| *x /= norm);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> SemanticWorld {
        SemanticWorld::generate(SemanticConfig::test_world())
    }

    fn hit_at(ranks: &[usize], k: usize) -> f64 {
        ranks.iter().filter(|&&r| r < k).count() as f64 / ranks.len() as f64
    }

    #[test]
    fn world_is_deterministic() {
        let a = world();
        let b = world();
        assert_eq!(a.histories, b.histories);
        assert_eq!(a.truths, b.truths);
    }

    #[test]
    fn task_contains_truth_once() {
        let w = world();
        for u in 0..10 {
            let t = w.task(u);
            assert_eq!(t.candidates.len(), w.cfg.candidates);
            assert_eq!(
                t.candidates.iter().filter(|&&c| c == w.truths[u]).count(),
                1
            );
            assert_eq!(t.candidates[t.truth_pos], w.truths[u]);
        }
    }

    #[test]
    fn truth_never_in_history() {
        let w = world();
        for u in 0..w.cfg.num_users {
            assert!(!w.histories[u].contains(&w.truths[u]));
        }
    }

    #[test]
    fn model_ranks_truth_better_than_chance() {
        let w = world();
        let ranks = w.eval_ranks(PrefixKind::User, MaskScheme::Bipartite, 20);
        let mean_rank: f64 = ranks.iter().map(|&r| r as f64).sum::<f64>() / ranks.len() as f64;
        // Chance would be (candidates-1)/2 = 9.5; the planted model should do
        // far better.
        assert!(
            mean_rank < 5.5,
            "mean rank {mean_rank} not better than chance"
        );
    }

    #[test]
    fn up_and_ip_are_close_for_robust_model() {
        let w = world();
        let up = w.eval_ranks(PrefixKind::User, MaskScheme::Bipartite, 20);
        let ip = w.eval_ranks(PrefixKind::Item, MaskScheme::Bipartite, 20);
        let (h_up, h_ip) = (hit_at(&up, 5), hit_at(&ip, 5));
        assert!(h_up > 0.5, "UP quality collapsed: {h_up}");
        assert!(
            (h_up - h_ip).abs() <= 0.2,
            "robust model should give similar UP ({h_up}) and IP ({h_ip}) quality"
        );
    }

    #[test]
    fn order_biased_model_degrades_ip_more() {
        let robust = world();
        let biased = SemanticWorld::generate(SemanticConfig::test_world().order_biased());
        let gap = |w: &SemanticWorld| {
            let up = w.eval_ranks(PrefixKind::User, MaskScheme::Bipartite, 20);
            let ip = w.eval_ranks(PrefixKind::Item, MaskScheme::Bipartite, 20);
            hit_at(&up, 5) - hit_at(&ip, 5)
        };
        let (g_r, g_b) = (gap(&robust), gap(&biased));
        assert!(
            g_b >= g_r - 0.05,
            "order-biased model should widen the UP-IP gap: robust {g_r}, biased {g_b}"
        );
    }

    #[test]
    fn rank_of_handles_ties_and_extremes() {
        assert_eq!(rank_of(&[0.5, 0.3, 0.2], 0), 0);
        assert_eq!(rank_of(&[0.1, 0.9], 0), 1);
        // Tie: earlier index wins.
        assert_eq!(rank_of(&[0.4, 0.4], 1), 1);
        assert_eq!(rank_of(&[0.4, 0.4], 0), 0);
    }

    /// The truth's rank in each of the first `n` tasks under UP with the
    /// multi-discriminant layout (§4.2's "one discriminant token per
    /// item"): every candidate is read out from its own discriminant token,
    /// the marker, instead of a single shared one.
    fn multi_disc_ranks(w: &SemanticWorld, n: usize) -> Vec<usize> {
        (0..n)
            .map(|u| {
                let task = w.task(u);
                let items: Vec<Vec<u32>> =
                    task.candidates.iter().map(|&i| w.item_tokens(i)).collect();
                let disc = vec![w.cfg.vocab_size() as u32 - 1; items.len()];
                let user = w.user_tokens(task.user);
                let seq = w.layout.build_per_item_discriminants(
                    PrefixKind::User,
                    &user,
                    &items,
                    &w.instr_tokens(),
                    &disc,
                );
                let out = w.model.forward(&seq, None);
                let ids: Vec<u32> = task.candidates.iter().map(|&i| i as u32).collect();
                let scores = w.model.candidate_scores_per_discriminant(&seq, &out, &ids);
                rank_of(&scores, task.truth_pos)
            })
            .collect()
    }

    #[test]
    fn multi_discriminant_ranks_better_than_chance() {
        let w = world();
        let ranks = multi_disc_ranks(&w, 20);
        let mean: f64 = ranks.iter().map(|&r| r as f64).sum::<f64>() / ranks.len() as f64;
        assert!(
            mean < 6.0,
            "multi-disc mean rank {mean} not better than chance (9.5)"
        );
    }

    #[test]
    fn multi_discriminant_close_to_single_discriminant() {
        let w = world();
        let hit =
            |ranks: &[usize]| ranks.iter().filter(|&&r| r < 10).count() as f64 / ranks.len() as f64;
        let single = w.eval_ranks(PrefixKind::User, MaskScheme::Bipartite, 20);
        let multi = multi_disc_ranks(&w, 20);
        let (h1, h2) = (hit(&single), hit(&multi));
        assert!((h1 - h2).abs() < 0.35, "single {h1} vs multi {h2} diverged");
    }

    #[test]
    fn candidate_and_history_vocabularies_are_disjoint() {
        let w = world();
        let cand = w.item_tokens(3);
        let hist = w.history_item_tokens(3);
        assert!(cand.iter().all(|t| !hist.contains(t)));
        assert_eq!(cand.len(), w.cfg.tokens_per_item);
        assert_eq!(hist.len(), w.cfg.tokens_per_item);
    }
}
