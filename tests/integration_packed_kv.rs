//! Equivalence suite for the cache-resident packed KV layout: the forward
//! that splices a stored (transposed-packed) prefix zero-copy must be
//! **bit-identical** to itself at any thread count, and must match the seed's serial
//! per-token reference at the oracle tolerance PR 2 established (the
//! batched kernels reorder float accumulation, so the serial oracle is a
//! tolerance contract, not a bitwise one) — over random prefix/suffix
//! splits, both mask schemes, and both MHA- and GQA-shaped configurations.
//!
//! Since attention attends only a row's allowed key runs, with a reduction
//! order that depends on those keys alone, the suite also pins the stronger
//! contract: a cached-prefix forward — any split, either scheme, or an
//! Item-as-prefix forward over item segments computed *standalone* — is
//! bit-identical to the cold monolithic forward of the same prompt.

use bat::exec::set_threads;
use bat::{
    ForwardOutput, GrModel, GrModelConfig, KvSegment, MaskScheme, PrefixKind, PromptLayout, Weights,
};
use bat_model::SegTag;
use proptest::prelude::*;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

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
    let user: Vec<u32> = (0..user_len as u32).map(|i| 30 + i).collect();
    let items: Vec<Vec<u32>> = (0..n_items as u32)
        .map(|i| {
            (0..item_len as u32)
                .map(|j| 2 + i * item_len as u32 + j)
                .collect()
        })
        .collect();
    (user, items, vec![0, 1])
}

/// `cached` (a forward of the prompt's tail behind some cached prefix)
/// must reproduce the tail of `cold` (the monolithic forward) bit for bit:
/// the final hidden state of every read-out row — the rows that have one —
/// and every key and value of every layer. The last layer's key and value
/// of row `t` are a function of row `t`'s hidden state after the layer
/// before it, so all earlier layers stay pinned for all rows.
fn assert_tail_bits_eq(cached: &ForwardOutput, cold: &ForwardOutput, what: &str) {
    let tags = &cached.suffix_kv.segs;
    let cut = cold.suffix_kv.len() - tags.len();
    assert_eq!(
        bits(&cached.logits()),
        bits(&cold.logits()),
        "{what}: logits"
    );
    for (t, tag) in tags.iter().enumerate() {
        if t + 1 == tags.len() || matches!(tag, SegTag::Disc(_)) {
            assert_eq!(
                bits(cached.hidden(t)),
                bits(cold.hidden(cut + t)),
                "{what}: hidden state of suffix token {t}"
            );
        }
        for (got, want) in cached.suffix_kv.layers.iter().zip(&cold.suffix_kv.layers) {
            assert_eq!(
                bits(&got.key(t)),
                bits(&want.key(cut + t)),
                "{what}: key {t}"
            );
            assert_eq!(
                bits(&got.value(t)),
                bits(&want.value(cut + t)),
                "{what}: value {t}"
            );
        }
    }
}

/// The Item-as-prefix cache contents: each item's segment computed
/// standalone (tagged `Item(0)`), concatenated, and re-tagged with the
/// item's index in this candidate list.
fn standalone_item_prefix(model: &GrModel, layout: &PromptLayout, items: &[Vec<u32>]) -> KvSegment {
    let cached: Vec<KvSegment> = items
        .iter()
        .map(|item| model.compute_kv(&layout.item_standalone(0, item, 0)))
        .collect();
    let mut prefix = KvSegment::concat(&cached.iter().collect::<Vec<_>>());
    let item_len = items[0].len();
    for (g, tag) in prefix.segs.iter_mut().enumerate() {
        *tag = SegTag::Item((g / item_len) as u32);
    }
    prefix
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cached-prefix forwards are bit-identical to the cold monolithic
    /// forward: behind a prefix cut at an arbitrary token (either scheme),
    /// and — the Item-as-prefix serving path — behind item segments that
    /// were each computed standalone and concatenated. (These shapes run
    /// inline at any thread count; the ranking-sized test below repeats
    /// both on the pool. The per-tier pin tests in `bat-tensor` extend this
    /// across scalar / AVX2 / AVX-512 / NEON: every tier is the same
    /// arithmetic.)
    #[test]
    fn cached_prefix_forward_is_bit_identical_to_cold_forward(
        user_len in 1usize..9,
        n_items in 1usize..6,
        item_len in 1usize..4,
        seed in 0u64..u64::MAX,
        naive in proptest::bool::ANY,
        gqa_deep in proptest::bool::ANY,
        user_first in proptest::bool::ANY,
        split_frac in 0.0f64..1.0,
    ) {
        let cfg = if gqa_deep { GrModelConfig::small(64) } else { GrModelConfig::tiny(64) };
        let model = GrModel::new(Weights::random(cfg, seed));
        let (user, items, instr) = build_parts(user_len, n_items, item_len);

        set_threads(1);
        let scheme = if naive { MaskScheme::NaiveCausal } else { MaskScheme::Bipartite };
        let kind = if user_first { PrefixKind::User } else { PrefixKind::Item };
        let seq = PromptLayout::new(scheme).build(kind, &user, &items, &instr);
        let cold = model.forward(&seq, None);
        let cut = 1 + ((seq.len() - 2) as f64 * split_frac) as usize;
        let (head, tail) = seq.split_at(cut);
        let spliced = model.forward(&tail, Some(&model.compute_kv(&head)));
        assert_tail_bits_eq(&spliced, &cold, "arbitrary split");

        // Item-as-prefix over standalone item segments (tagged Item(0) when
        // cached, re-tagged with their index in this candidate list).
        let layout = PromptLayout::new(MaskScheme::Bipartite);
        let seq = layout.build(PrefixKind::Item, &user, &items, &instr);
        let cold = model.forward(&seq, None);
        let prefix = standalone_item_prefix(&model, &layout, &items);
        let (_, tail) = seq.split_at(prefix.len());
        let hit = model.forward(&tail, Some(&prefix));
        assert_tail_bits_eq(&hit, &cold, "item-as-prefix hit");
    }

    /// Packed-prefix forward ≡ the serial reference oracle at tolerance, for
    /// a prefix split at an arbitrary token boundary (not just block edges).
    #[test]
    fn packed_prefix_forward_matches_reference(
        user_len in 1usize..7,
        n_items in 1usize..5,
        item_len in 1usize..4,
        seed in 0u64..u64::MAX,
        naive in proptest::bool::ANY,
        gqa_deep in proptest::bool::ANY,
        user_first in proptest::bool::ANY,
        split_frac in 0.0f64..1.0,
    ) {
        set_threads(1);
        let scheme = if naive { MaskScheme::NaiveCausal } else { MaskScheme::Bipartite };
        let cfg = if gqa_deep { GrModelConfig::small(64) } else { GrModelConfig::tiny(64) };
        let model = GrModel::new(Weights::random(cfg, seed));
        let (user, items, instr) = build_parts(user_len, n_items, item_len);
        let kind = if user_first { PrefixKind::User } else { PrefixKind::Item };
        let seq = PromptLayout::new(scheme).build(kind, &user, &items, &instr);
        // Any split leaving at least one suffix token is fair game.
        let cut = 1 + ((seq.len() - 2) as f64 * split_frac) as usize;
        let (head, tail) = seq.split_at(cut);
        let kv = model.compute_kv(&head);

        let packed = model.forward(&tail, Some(&kv));

        // Seed oracle: same contract (and tolerances) as the PR 2 oracle
        // test, extended to arbitrary splits / schemes / head layouts.
        let reference = model.forward_reference(&tail, Some(&kv));
        prop_assert!(max_diff(&packed.logits(), &reference.logits()) < 1e-3);
        prop_assert!(max_diff(packed.hidden_last(), reference.hidden_last()) < 1e-4);
        prop_assert!(packed.suffix_kv.max_abs_diff(&reference.suffix_kv).unwrap() < 1e-5);
    }
}

/// The same identity where the kernels' chunking bites: behind a cached
/// user profile of every length in 177..=208 — all sixteen residues of the
/// sixteen-key chunk, so an item row's shared run ends anywhere in a chunk
/// and an instruction row's suffix piece begins anywhere in one — under both
/// schemes. A kernel whose whole-chunk and copied-together paths rounded
/// differently would pass at 192 and 208 and fail between them.
#[test]
fn cached_prefix_forward_is_bit_identical_to_cold_forward_at_every_chunk_residue() {
    set_threads(1);
    let model = GrModel::new(Weights::random(GrModelConfig::tiny(256), 23));
    for user_len in 177..=208 {
        let (user, items, instr) = build_parts(user_len, 5, 2);
        for scheme in [MaskScheme::Bipartite, MaskScheme::NaiveCausal] {
            let seq = PromptLayout::new(scheme).build(PrefixKind::User, &user, &items, &instr);
            let cold = model.forward(&seq, None);
            let (head, tail) = seq.split_at(user_len);
            let hit = model.forward(&tail, Some(&model.compute_kv(&head)));
            assert_tail_bits_eq(
                &hit,
                &cold,
                &format!("{scheme:?}, {user_len}-token profile"),
            );
        }
    }
}

/// The packed-prefix forward is bit-identical across thread counts — the
/// determinism contract extends to the zero-copy splicing path — and, at
/// every count, to the tail of the cold serial forward, behind a cached
/// user profile and behind standalone item segments alike. The prompt is
/// ranking-sized so that the stages do go through the pool; the proptests
/// above run shapes far below the dispatch threshold, where every thread
/// count executes the same inline code.
#[test]
fn packed_prefix_forward_deterministic_across_threads() {
    let cfg = GrModelConfig {
        layers: 2,
        ..GrModelConfig::qwen2_1_5b_proxy(512)
    };
    let model = GrModel::new(Weights::random(cfg, 17));
    let (user, items, _) = build_parts(200, 85, 2);
    let instr: Vec<u32> = (400..440).collect();
    let layout = PromptLayout::new(MaskScheme::Bipartite);
    for kind in [PrefixKind::User, PrefixKind::Item] {
        let seq = layout.build(kind, &user, &items, &instr);
        let prefix_kv = || match kind {
            PrefixKind::User => model.compute_kv(&seq.split_at(user.len()).0),
            PrefixKind::Item => standalone_item_prefix(&model, &layout, &items),
        };

        set_threads(1);
        let cold = model.forward(&seq, None);
        let kv = prefix_kv();
        let (_, tail) = seq.split_at(kv.len());
        let serial = model.forward(&tail, Some(&kv));
        // The row stage, that is; the narrow K|V projection a tail of ~200
        // rows runs inline, as does the last layer's single read-out row
        // (`integration_parallel_determinism` has both on the pool).
        for (stage, work) in model.stage_work(&tail, Some(&kv)) {
            assert!(
                ["K|V", "read-out rows"].contains(&stage) || bat_tensor::stage_is_pooled(work),
                "{kind}: {stage} ({work} multiply-adds) would run inline"
            );
        }
        for n in [2usize, 4, 8] {
            // Rows of every kind the tail has are computed in blocks that
            // differ from width to width: some block starts strictly inside
            // the item rows and some strictly inside the instruction rows.
            let [blocks, _] = model.stage_blocks(&tail, Some(&kv), n);
            for tag in [SegTag::Item(0), SegTag::Instr] {
                let same = |t: &SegTag| std::mem::discriminant(t) == std::mem::discriminant(&tag);
                let Some(first) = tail.segs.iter().position(same) else {
                    continue; // behind the item segments the tail has no item rows
                };
                let last = tail.segs.iter().rposition(same).unwrap();
                assert!(
                    blocks.iter().any(|b| first < b.start && b.start <= last),
                    "{kind} @ {n} threads: no block starts inside the {tag:?} rows \
                     {first}..={last}: {blocks:?}"
                );
            }
            set_threads(n);
            let par = model.forward(&tail, Some(&prefix_kv()));
            assert_eq!(
                bits(&serial.logits()),
                bits(&par.logits()),
                "{kind} logits diverged at {n} threads"
            );
            assert_tail_bits_eq(&par, &cold, &format!("{kind} hit at {n} threads"));
        }
        set_threads(1);
    }
}
