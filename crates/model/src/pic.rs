//! Position-independent caching (PIC): CacheBlend-style selective recompute.
//!
//! §4.2/§6.3: when the base model is order-sensitive, Item-as-prefix
//! attention can degrade ranking quality, and the paper applies a
//! CacheBlend-like PIC algorithm that "selectively recomputes some critical
//! tokens" to narrow the gap.
//!
//! Our implementation mirrors CacheBlend's structure:
//!
//! 1. the item prefix is assembled from **cached, context-free** per-item KV
//!    segments (the fast path);
//! 2. a **reference** KV for the item tokens is computed *with the user
//!    context visible* (what full recomputation would have produced, up to
//!    the user block approximation);
//! 3. the tokens whose cached entries drift most from the reference are
//!    selected (top `recompute_fraction` by max K/V deviation) and their
//!    rows are replaced with the context-aware values;
//! 4. the rest of the prompt runs against the repaired prefix.
//!
//! At `recompute_fraction = 0` this is exactly plain IP; at `1.0` every item
//! token sees the user context (UP-like information flow at IP positions).

use crate::kv::KvSegment;
use crate::prompt::{MaskScheme, PromptLayout, SegTag, TokenSeq};
use crate::transformer::{ForwardOutput, GrModel};

/// Configuration for the PIC repair pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PicConfig {
    /// Fraction of item tokens to recompute with context (0.0..=1.0).
    /// CacheBlend reports ~10–20% suffices; the Table 3 harness uses 0.15.
    pub recompute_fraction: f32,
}

impl PicConfig {
    /// Creates a config, clamping the fraction into `[0, 1]`.
    pub fn new(recompute_fraction: f32) -> Self {
        PicConfig {
            recompute_fraction: recompute_fraction.clamp(0.0, 1.0),
        }
    }
}

/// Builds the item-prefix KV segment for an IP prompt with PIC repair.
///
/// `user_tokens` is the requesting user's profile block; `items` the
/// candidate token sequences. Returns the repaired concatenated item-block
/// segment (IP positions: every item starts at 0).
pub fn repaired_item_prefix(
    model: &GrModel,
    user_tokens: &[u32],
    items: &[Vec<u32>],
    pic: PicConfig,
) -> KvSegment {
    let layout = PromptLayout::new(MaskScheme::Bipartite);
    let max_item_len = items.iter().map(Vec::len).max().unwrap_or(0) as u32;

    // 1. Cached, context-free per-item KV (what the item cache pool holds).
    let cached: Vec<KvSegment> = items
        .iter()
        .enumerate()
        .map(|(i, it)| model.compute_kv(&layout.item_standalone(i as u32, it, 0)))
        .collect();
    let cached_refs: Vec<&KvSegment> = cached.iter().collect();
    let mut prefix = KvSegment::concat(&cached_refs);

    if pic.recompute_fraction <= 0.0 || user_tokens.is_empty() {
        return prefix;
    }

    // 2. Reference KV: each item recomputed with the user block visible.
    //    The user block sits at its IP position (after the items).
    let user_seq = TokenSeq {
        tokens: user_tokens.to_vec(),
        segs: vec![SegTag::User; user_tokens.len()],
        pos: (0..user_tokens.len() as u32)
            .map(|j| max_item_len + j)
            .collect(),
        scheme: MaskScheme::Bipartite,
    };
    let user_kv = model.compute_kv(&user_seq);
    let reference: Vec<KvSegment> = items
        .iter()
        .enumerate()
        .map(|(i, it)| {
            let seq = layout.item_standalone(i as u32, it, 0);
            model.forward(&seq, Some(&user_kv)).suffix_kv
        })
        .collect();
    let reference_refs: Vec<&KvSegment> = reference.iter().collect();
    let reference = KvSegment::concat(&reference_refs);

    // 3. Select the highest-drift tokens and splice the reference rows in.
    let drift = prefix.token_drift(&reference);
    let total = drift.len();
    let n_recompute = ((pic.recompute_fraction * total as f32).ceil() as usize).min(total);
    let mut order: Vec<usize> = (0..total).collect();
    order.sort_by(|&a, &b| drift[b].partial_cmp(&drift[a]).unwrap());
    for &t in order.iter().take(n_recompute) {
        for l in 0..prefix.layers.len() {
            let key = reference.layers[l].key(t);
            let value = reference.layers[l].value(t);
            prefix.layers[l].set_row(t, &key, &value);
        }
    }
    prefix
}

/// Scores an IP-ordered ranking prompt with PIC repair, returning the full
/// forward output (use [`ForwardOutput::candidate_scores`] on it).
pub fn forward_ip_with_pic(
    model: &GrModel,
    user_tokens: &[u32],
    items: &[Vec<u32>],
    instr_tokens: &[u32],
    pic: PicConfig,
) -> ForwardOutput {
    let layout = PromptLayout::new(MaskScheme::Bipartite);
    let seq = layout.build(
        bat_types::PrefixKind::Item,
        user_tokens,
        items,
        instr_tokens,
    );
    let item_block_len: usize = items.iter().map(Vec::len).sum();
    let (_, rest) = seq.split_at(item_block_len);
    let prefix = repaired_item_prefix(model, user_tokens, items, pic);
    model.forward(&rest, Some(&prefix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GrModelConfig;
    use crate::weights::Weights;
    use bat_types::PrefixKind;

    fn model() -> GrModel {
        GrModel::new(Weights::random(GrModelConfig::tiny(64), 33))
    }

    fn parts() -> (Vec<u32>, Vec<Vec<u32>>, Vec<u32>) {
        (
            vec![40, 41, 42, 43],
            vec![vec![0, 50], vec![1, 51], vec![2, 52]],
            vec![60, 61],
        )
    }

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn zero_fraction_equals_plain_ip() {
        let m = model();
        let (u, i, s) = parts();
        let layout = PromptLayout::new(MaskScheme::Bipartite);
        let seq = layout.build(PrefixKind::Item, &u, &i, &s);
        let plain = m.forward(&seq, None);
        let pic = forward_ip_with_pic(&m, &u, &i, &s, PicConfig::new(0.0));
        assert!(max_diff(&plain.logits(), &pic.logits()) < 1e-3);
    }

    #[test]
    fn full_fraction_changes_item_entries() {
        let m = model();
        let (u, i, _) = parts();
        let plain = repaired_item_prefix(&m, &u, &i, PicConfig::new(0.0));
        let full = repaired_item_prefix(&m, &u, &i, PicConfig::new(1.0));
        let drift = plain.token_drift(&full);
        // Layer-0 KV depends only on embeddings+positions, but deeper layers
        // must differ once the user context is visible.
        assert!(
            drift.iter().any(|&d| d > 1e-4),
            "context-aware recompute should change KV entries"
        );
    }

    #[test]
    fn fraction_is_monotone_in_entries_replaced() {
        let m = model();
        let (u, i, _) = parts();
        let base = repaired_item_prefix(&m, &u, &i, PicConfig::new(0.0));
        let mut prev_changed = 0usize;
        for frac in [0.2f32, 0.5, 1.0] {
            let repaired = repaired_item_prefix(&m, &u, &i, PicConfig::new(frac));
            let drift = base.token_drift(&repaired);
            let changed = drift.iter().filter(|&&d| d > 1e-6).count();
            assert!(
                changed >= prev_changed,
                "higher fraction should replace at least as many entries"
            );
            prev_changed = changed;
        }
    }

    #[test]
    fn config_clamps_fraction() {
        assert_eq!(PicConfig::new(2.0).recompute_fraction, 1.0);
        assert_eq!(PicConfig::new(-1.0).recompute_fraction, 0.0);
    }

    #[test]
    fn empty_user_degenerates_to_plain() {
        let m = model();
        let (_, i, _) = parts();
        let a = repaired_item_prefix(&m, &[], &i, PicConfig::new(0.5));
        let b = repaired_item_prefix(&m, &[], &i, PicConfig::new(0.0));
        assert_eq!(a.max_abs_diff(&b), Some(0.0));
    }
}
