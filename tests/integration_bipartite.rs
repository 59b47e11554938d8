//! Cross-crate integration tests of Bipartite Attention's core claims:
//! the co-designed masks/positions make prefix caches exact and sharing
//! sound, across model configurations and prompt shapes.

use bat::{GrModel, GrModelConfig, MaskScheme, PrefixKind, PromptLayout, Weights};
use proptest::prelude::*;

fn max_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

fn build_parts(
    user_len: usize,
    n_items: usize,
    item_len: usize,
) -> (Vec<u32>, Vec<Vec<u32>>, Vec<u32>) {
    let user: Vec<u32> = (0..user_len as u32).map(|i| 40 + i).collect();
    let items: Vec<Vec<u32>> = (0..n_items as u32)
        .map(|i| {
            (0..item_len as u32)
                .map(|j| i * item_len as u32 + j)
                .collect()
        })
        .collect();
    (user, items, vec![120, 121])
}

/// §3.2's prefix-cache identity holds end-to-end for both orderings and
/// both model shapes (MHA and GQA).
#[test]
fn prefix_cache_identity_across_configs() {
    let (user, items, instr) = build_parts(6, 5, 2);
    let layout = PromptLayout::new(MaskScheme::Bipartite);
    for cfg in [GrModelConfig::tiny(128), GrModelConfig::small(128)] {
        let model = GrModel::new(Weights::random(cfg, 99));
        for prefix_kind in [PrefixKind::User, PrefixKind::Item] {
            let seq = layout.build(prefix_kind, &user, &items, &instr);
            let full = model.forward(&seq, None);
            let prefix_len = match prefix_kind {
                PrefixKind::User => user.len(),
                PrefixKind::Item => items.iter().map(Vec::len).sum(),
            };
            let (head, tail) = seq.split_at(prefix_len);
            let cached = model.forward(&tail, Some(&model.compute_kv(&head)));
            assert!(
                max_diff(&full.logits(), &cached.logits()) < 1e-3,
                "{prefix_kind}: cached forward must equal recomputation"
            );
        }
    }
}

/// Cross-user item sharing: the same candidate set scored for two
/// different users reuses one set of item KV segments, losslessly.
#[test]
fn item_prefix_shared_across_users() {
    let model = GrModel::new(Weights::random(GrModelConfig::tiny(128), 5));
    let layout = PromptLayout::new(MaskScheme::Bipartite);
    let (_, items, instr) = build_parts(0, 6, 2);
    let user_a: Vec<u32> = (40..48).collect();
    let user_b: Vec<u32> = (60..70).collect();

    // Precompute the shared item prefix once (the item cache pool).
    let item_block_len: usize = items.iter().map(Vec::len).sum();
    let seq_a = layout.build(PrefixKind::Item, &user_a, &items, &instr);
    let (item_head, tail_a) = seq_a.split_at(item_block_len);
    let shared_kv = model.compute_kv(&item_head);

    // User A and user B both splice the same segment.
    let full_a = model.forward(&seq_a, None);
    let cached_a = model.forward(&tail_a, Some(&shared_kv));
    assert!(max_diff(&full_a.logits(), &cached_a.logits()) < 1e-3);

    let seq_b = layout.build(PrefixKind::Item, &user_b, &items, &instr);
    let (_, tail_b) = seq_b.split_at(item_block_len);
    let full_b = model.forward(&seq_b, None);
    let cached_b = model.forward(&tail_b, Some(&shared_kv));
    assert!(max_diff(&full_b.logits(), &cached_b.logits()) < 1e-3);
}

/// Under the *naive* scheme the same sharing is lossy — the §3.3 argument
/// for why vanilla prefix caching cannot share item caches.
#[test]
fn naive_scheme_item_sharing_is_lossy() {
    let model = GrModel::new(Weights::random(GrModelConfig::tiny(128), 5));
    let bipartite = PromptLayout::new(MaskScheme::Bipartite);
    let naive = PromptLayout::new(MaskScheme::NaiveCausal);
    let (user, items, instr) = build_parts(6, 5, 2);

    // Item 3's KV inside a naive prompt differs from its standalone KV.
    let seq = naive.build(PrefixKind::Item, &user, &items, &instr);
    let full = model.forward(&seq, None);
    let standalone = naive.item_standalone(3, &items[3], 0);
    let solo = model.compute_kv(&standalone);
    let offset = 3 * 2; // item 3 starts at token 6
    let mut diff = 0.0f32;
    for l in 0..model.config().layers {
        for t in 0..2 {
            diff = diff.max(max_diff(
                &full.suffix_kv.layers[l].key(offset + t),
                &solo.layers[l].key(t),
            ));
        }
    }
    assert!(diff > 1e-3, "naive item KV should be context-dependent");

    // Bipartite: identical by construction.
    let seq = bipartite.build(PrefixKind::Item, &user, &items, &instr);
    let full = model.forward(&seq, None);
    let standalone = bipartite.item_standalone(3, &items[3], 0);
    let solo = model.compute_kv(&standalone);
    let mut diff = 0.0f32;
    for l in 0..model.config().layers {
        for t in 0..2 {
            diff = diff.max(max_diff(
                &full.suffix_kv.layers[l].key(offset + t),
                &solo.layers[l].key(t),
            ));
        }
    }
    assert!(diff < 1e-5, "bipartite item KV must be context-free");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The prefix-cache identity is a property, not a coincidence of one
    /// prompt shape: it holds for random sizes, seeds, and orderings.
    #[test]
    fn prefix_cache_identity_property(
        seed in 0u64..500,
        user_len in 1usize..10,
        n_items in 1usize..7,
        item_len in 1usize..4,
        item_prefix in proptest::bool::ANY,
    ) {
        let model = GrModel::new(Weights::random(GrModelConfig::tiny(256), seed));
        let layout = PromptLayout::new(MaskScheme::Bipartite);
        let (user, items, instr) = build_parts(user_len, n_items, item_len);
        let kind = if item_prefix { PrefixKind::Item } else { PrefixKind::User };
        let seq = layout.build(kind, &user, &items, &instr);
        let full = model.forward(&seq, None);
        let prefix_len = match kind {
            PrefixKind::User => user.len(),
            PrefixKind::Item => items.iter().map(Vec::len).sum(),
        };
        prop_assume!(prefix_len > 0 && prefix_len < seq.len());
        let (head, tail) = seq.split_at(prefix_len);
        let cached = model.forward(&tail, Some(&model.compute_kv(&head)));
        prop_assert!(max_diff(&full.logits(), &cached.logits()) < 2e-3);
    }

    /// Permuting candidate items permutes candidate scores identically
    /// (§4.1's set semantics) under the bipartite scheme, in both orderings.
    #[test]
    fn candidate_permutation_equivariance(
        seed in 0u64..300,
        item_prefix in proptest::bool::ANY,
    ) {
        let model = GrModel::new(Weights::random(GrModelConfig::tiny(64), seed));
        let layout = PromptLayout::new(MaskScheme::Bipartite);
        let user: Vec<u32> = (40..46).collect();
        let items: Vec<Vec<u32>> = (0..4u32).map(|i| vec![i, 50 + i]).collect();
        let instr = vec![60, 61];
        let kind = if item_prefix { PrefixKind::Item } else { PrefixKind::User };

        let seq = layout.build(kind, &user, &items, &instr);
        let scores = model.forward(&seq, None).candidate_scores(&[0, 1, 2, 3]);

        let perm = [2usize, 0, 3, 1];
        let permuted: Vec<Vec<u32>> = perm.iter().map(|&i| items[i].clone()).collect();
        let id_tokens: Vec<u32> = perm.iter().map(|&i| i as u32).collect();
        let seq_p = layout.build(kind, &user, &permuted, &instr);
        let scores_p = model.forward(&seq_p, None).candidate_scores(&id_tokens);

        for (k, &i) in perm.iter().enumerate() {
            prop_assert!((scores[i] - scores_p[k]).abs() < 1e-4);
        }
    }
}
