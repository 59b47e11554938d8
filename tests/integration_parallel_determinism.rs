//! The execution layer's determinism contract, end to end: every parallel
//! primitive in `bat-exec` promises bit-identical results for **any**
//! thread count, so a forward pass, a scored candidate list, and a full
//! simulated or threaded serving run must produce exactly the same bits at
//! 1, 2, 4, and 8 threads.
//!
//! The thread count here is flipped with [`bat::exec::set_threads`], the
//! runtime override that sits above the `BAT_THREADS` environment variable
//! in the resolution order (same code path, testable without process-wide
//! env mutation; `batctl --threads` goes through the identical call).
//!
//! Note the override is process-global and Rust runs tests concurrently:
//! another test may flip the count mid-forward. That is not a flaw in the
//! harness — it is the strongest form of the contract. Results may not
//! depend on the thread count *even while it changes*.

use bat::exec::set_threads;
use bat::{
    GrModel, GrModelConfig, HstuModel, KvSegment, MaskScheme, PrefixKind, PromptLayout,
    SemanticConfig, SemanticWorld, ServeOptions, ServeRuntime, Weights,
};
use bat_model::{SegTag, TokenSeq};
use bat_sim::{EngineConfig, RunStats, ServingEngine, SystemKind};
use bat_types::{Bytes, ClusterConfig, DatasetConfig, ModelConfig};
use bat_workload::{TraceGenerator, Workload};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at {i}: {x} vs {y}"
        );
    }
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
    (user, items, (400..496).collect())
}

/// Fails unless every stage of a forward — bar those named in `inline` — is
/// big enough to be handed to the pool. Below the dispatch threshold every
/// thread count runs the same inline code, and a comparison across counts
/// would say nothing.
fn assert_stages_pooled<const N: usize>(
    stages: [(&'static str, usize); N],
    inline: &[&str],
    what: &str,
) {
    for (stage, work) in stages {
        assert!(
            inline.contains(&stage) || bat_tensor::stage_is_pooled(work),
            "{what}: {stage} ({work} multiply-adds) would run inline"
        );
    }
}

/// Fails unless, at `threads` threads, the row stage of
/// `model.forward(suffix, prefix)` is cut so that some block starts strictly
/// inside the suffix's item rows (where it has any) and some strictly inside
/// its instruction rows — and the last layer's, which runs the read-out rows
/// alone, strictly inside the discriminant rows: rows of each kind then sit
/// in blocks that differ from one thread count to the next.
fn assert_rows_are_cut(
    model: &GrModel,
    suffix: &TokenSeq,
    prefix: Option<&KvSegment>,
    threads: usize,
    what: &str,
) {
    let [blocks, last_blocks] = model.stage_blocks(suffix, prefix, threads);
    for (tag, blocks) in [
        (SegTag::Item(0), &blocks),
        (SegTag::Instr, &blocks),
        (SegTag::Disc(0), &last_blocks),
    ] {
        let same = |t: &SegTag| std::mem::discriminant(t) == std::mem::discriminant(&tag);
        let Some(first) = suffix.segs.iter().position(same) else {
            continue;
        };
        let last = suffix.segs.iter().rposition(same).unwrap();
        assert!(
            blocks.iter().any(|b| first < b.start && b.start <= last),
            "{what} @ {threads} threads: no block starts inside the {tag:?} rows \
             {first}..={last}: {blocks:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Parallel `GrModel::forward` is bit-identical to serial for both
    /// prefix orderings (UP and IP), across random prompt shapes, with and
    /// without a cached prefix. The shapes are ranking-sized so that the
    /// stages do go through the pool: all of them in the cold forward, all
    /// but the narrow K|V projection behind a cached prefix — the last
    /// layer's too, which finishes the read-out rows alone: the prompt has
    /// one discriminant per item, so those are 82 rows or more.
    #[test]
    fn gr_forward_is_bit_identical_across_thread_counts(
        seed in 0u64..500,
        user_len in 180usize..220,
        n_items in 82usize..100,
        item_len in 2usize..4,
    ) {
        let (user, items, instr) = build_parts(user_len, n_items, item_len);
        let cfg = GrModelConfig { layers: 2, ..GrModelConfig::qwen2_1_5b_proxy(512) };
        let model = GrModel::new(Weights::random(cfg, seed));
        let layout = PromptLayout::new(MaskScheme::Bipartite);
        let discs: Vec<u32> = (300..300 + n_items as u32).collect();
        let ids: Vec<u32> = items.iter().map(|item| item[0]).collect();
        for prefix_kind in [PrefixKind::User, PrefixKind::Item] {
            let seq =
                layout.build_per_item_discriminants(prefix_kind, &user, &items, &instr, &discs);
            let prefix_len = match prefix_kind {
                PrefixKind::User => user.len(),
                PrefixKind::Item => items.iter().map(Vec::len).sum(),
            };
            let (head, tail) = seq.split_at(prefix_len);

            set_threads(1);
            let serial_full = model.forward(&seq, None);
            let serial_kv = model.compute_kv(&head);
            let serial_cached = model.forward(&tail, Some(&serial_kv));
            assert_stages_pooled(model.stage_work(&seq, None), &[], "cold");
            assert_stages_pooled(model.stage_work(&tail, Some(&serial_kv)), &["K|V"], "cached");

            for n in THREAD_COUNTS {
                assert_rows_are_cut(&model, &seq, None, n, "cold");
                assert_rows_are_cut(&model, &tail, Some(&serial_kv), n, "cached");
                set_threads(n);
                let par_full = model.forward(&seq, None);
                assert_bits_eq(
                    &par_full.logits(),
                    &serial_full.logits(),
                    &format!("{prefix_kind} full logits @ {n} threads"),
                );
                assert_bits_eq(
                    &model.candidate_scores_per_discriminant(&seq, &par_full, &ids),
                    &model.candidate_scores_per_discriminant(&seq, &serial_full, &ids),
                    &format!("{prefix_kind} per-discriminant scores @ {n} threads"),
                );
                let par_cached = model.forward(&tail, Some(&model.compute_kv(&head)));
                assert_bits_eq(
                    &par_cached.logits(),
                    &serial_cached.logits(),
                    &format!("{prefix_kind} cached logits @ {n} threads"),
                );
                for t in tail.len() - n_items..tail.len() {
                    assert_bits_eq(
                        par_cached.hidden(t),
                        serial_full.hidden(prefix_len + t),
                        &format!("{prefix_kind} discriminant row {t} @ {n} threads"),
                    );
                }
            }
            set_threads(1);
        }
    }
}

/// Parallel `HstuModel::forward` (the pointwise-attention baseline) is
/// bit-identical to serial on both mask schemes, the last layer's read-out
/// rows — one discriminant per item — included.
#[test]
fn hstu_forward_is_bit_identical_across_thread_counts() {
    let (user, items, instr) = build_parts(130, 60, 2);
    let discs: Vec<u32> = (300..360).collect();
    // HSTU's pointwise unit needs matched query/KV heads (no GQA).
    let cfg = GrModelConfig {
        kv_heads: 12,
        layers: 2,
        ..GrModelConfig::qwen2_1_5b_proxy(512)
    };
    let model = HstuModel::random(cfg, 17);
    for scheme in [MaskScheme::NaiveCausal, MaskScheme::Bipartite] {
        let seq = PromptLayout::new(scheme).build_per_item_discriminants(
            PrefixKind::User,
            &user,
            &items,
            &instr,
            &discs,
        );
        assert_stages_pooled(model.stage_work(&seq, None), &[], "HSTU");
        set_threads(1);
        let serial = model.forward(&seq, None);
        for n in THREAD_COUNTS {
            set_threads(n);
            let par = model.forward(&seq, None);
            assert_bits_eq(
                &par.logits(),
                &serial.logits(),
                &format!("HSTU {scheme:?} logits @ {n} threads"),
            );
            for t in seq.len() - discs.len()..seq.len() {
                assert_bits_eq(
                    par.hidden(t),
                    serial.hidden(t),
                    &format!("HSTU {scheme:?} discriminant row {t} @ {n} threads"),
                );
            }
        }
        set_threads(1);
    }
}

/// The Table 3 accuracy pipeline scores users in parallel (one forward per
/// pool task, as `SemanticWorld::eval_ranks` does) and gets bit-identical
/// candidate scores at every thread count.
#[test]
fn semantic_scoring_is_bit_identical_across_thread_counts() {
    let world = SemanticWorld::generate(SemanticConfig::test_world());
    let score_users = || {
        bat::exec::parallel_map_indexed(8, 1, |u| {
            world.score(&world.task(u), PrefixKind::Item, MaskScheme::Bipartite)
        })
        .concat()
    };
    set_threads(1);
    let serial = score_users();
    for n in THREAD_COUNTS {
        set_threads(n);
        assert_bits_eq(
            &score_users(),
            &serial,
            &format!("candidate scores @ {n} threads"),
        );
    }
    set_threads(1);
}

fn run_stats_key(s: &RunStats) -> (usize, u64, u64) {
    (s.completed, s.total_tokens, s.reused_tokens)
}

/// A full simulator run and a full threaded-runtime run both report the
/// same `RunStats` regardless of the execution layer's thread count —
/// cache accounting, token totals, and completion counts are functions of
/// the trace and policy, never of scheduling.
#[test]
fn run_stats_are_unchanged_across_thread_counts() {
    let ds = DatasetConfig {
        num_users: 200,
        ..DatasetConfig::games()
    };
    let mut gen = TraceGenerator::new(Workload::new(ds.clone(), 3), 4);
    let trace = gen.generate(3.0, 30.0);
    let mut cluster = ClusterConfig::a100_4node().with_nodes(2);
    cluster.node.kv_cache_capacity = Bytes::from_gb(20);

    for kind in [SystemKind::UserPrefix, SystemKind::Bat] {
        let cfg = EngineConfig::for_system(kind, ModelConfig::qwen2_1_5b(), cluster.clone(), &ds);

        set_threads(1);
        let serial_sim = ServingEngine::new(cfg.clone()).unwrap().run(&trace);
        let serial_live = ServeRuntime::new(cfg.clone(), ServeOptions::default())
            .unwrap()
            .serve(&trace);

        for n in THREAD_COUNTS {
            set_threads(n);
            let par_sim = ServingEngine::new(cfg.clone()).unwrap().run(&trace);
            assert_eq!(
                run_stats_key(&par_sim),
                run_stats_key(&serial_sim),
                "{} sim stats @ {n} threads",
                kind.label()
            );
            let par_live = ServeRuntime::new(cfg.clone(), ServeOptions::default())
                .unwrap()
                .serve(&trace);
            assert_eq!(
                run_stats_key(&par_live),
                run_stats_key(&serial_live),
                "{} live stats @ {n} threads",
                kind.label()
            );
        }
        set_threads(1);
    }
}
