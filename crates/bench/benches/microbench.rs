//! Criterion microbenchmarks of the hot paths.
//!
//! These complement the figure harnesses (which measure *simulated* serving
//! performance) by measuring the *actual* cost of the reproduction's own
//! kernels: the transformer forward pass with and without prefix caching,
//! the per-request planner, workload sampling, the frequency estimator,
//! placement lookups and user-cache admission.

use bat_model::prompt::{MaskScheme, PromptLayout};
use bat_model::{GrModel, GrModelConfig, HstuModel, Weights};
use bat_placement::{ItemPlacementPlan, PlacementStrategy};
use bat_sim::{EngineConfig, RequestPlanner, SystemKind};
use bat_types::{
    Bytes, ClusterConfig, DatasetConfig, ItemId, ModelConfig, PrefixKind, SimTime, UserId, WorkerId,
};
use bat_workload::{TraceGenerator, Workload, ZipfLaw};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn prompt_parts() -> (Vec<u32>, Vec<Vec<u32>>, Vec<u32>) {
    let user: Vec<u32> = (0..48).map(|i| 100 + i).collect();
    let items: Vec<Vec<u32>> = (0..20u32).map(|i| vec![i, 200 + i]).collect();
    (user, items, vec![250, 251])
}

fn bench_forward(c: &mut Criterion) {
    let model = GrModel::new(Weights::random(GrModelConfig::tiny(300), 7));
    let layout = PromptLayout::new(MaskScheme::Bipartite);
    let (user, items, instr) = prompt_parts();
    let up = layout.build(PrefixKind::User, &user, &items, &instr);
    let ip = layout.build(PrefixKind::Item, &user, &items, &instr);
    let item_block: usize = items.iter().map(Vec::len).sum();
    let (prefix_seq, rest) = ip.split_at(item_block);
    let prefix_kv = model.compute_kv(&prefix_seq);

    let mut g = c.benchmark_group("forward");
    g.sample_size(20);
    g.bench_function("up_full", |b| {
        b.iter(|| black_box(model.forward(black_box(&up), None)))
    });
    g.bench_function("ip_full", |b| {
        b.iter(|| black_box(model.forward(black_box(&ip), None)))
    });
    g.bench_function("ip_prefix_cached", |b| {
        b.iter(|| black_box(model.forward(black_box(&rest), Some(&prefix_kv))))
    });
    let hstu_cfg = GrModelConfig {
        query_heads: 2,
        kv_heads: 2,
        ..GrModelConfig::tiny(300)
    };
    let hstu = HstuModel::random(hstu_cfg, 7);
    g.bench_function("hstu_ip_full", |b| {
        b.iter(|| black_box(hstu.forward(black_box(&ip), None)))
    });
    g.bench_function("kv_quantize_fp16", |b| {
        b.iter_batched(
            || prefix_kv.clone(),
            |mut kv| black_box(kv.quantize_fp16()),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_planner(c: &mut Criterion) {
    let ds = DatasetConfig::industry();
    let cfg = EngineConfig::for_system(
        SystemKind::Bat,
        ModelConfig::qwen2_1_5b(),
        ClusterConfig::a100_4node(),
        &ds,
    );
    let mut gen = TraceGenerator::new(Workload::new(ds, 3), 4);
    let trace = gen.generate(20.0, 100.0);
    c.bench_function("planner_plan_request", |b| {
        b.iter_batched(
            || (RequestPlanner::from_config(&cfg), 0usize),
            |(mut planner, _)| {
                for (i, req) in trace.iter().enumerate() {
                    black_box(planner.plan(req, i as f64 * 0.01));
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_workload(c: &mut Criterion) {
    let w = Workload::new(DatasetConfig::industry(), 9);
    let law = ZipfLaw::new(100_000_000, 1.05);
    let mut g = c.benchmark_group("workload");
    g.bench_function("user_token_count", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(w.user_token_count(UserId::new(i)))
        })
    });
    g.bench_function("zipf_sample_100m", |b| {
        let mut u = 0.123f64;
        b.iter(|| {
            u = (u * 1.61803).fract().max(1e-9);
            black_box(law.sample_rank(u))
        })
    });
    g.bench_function("retrieve_100_candidates", |b| {
        let mut i = 0u64;
        b.iter(|| {
            black_box(w.retrieve_candidates(100, || {
                i = i.wrapping_add(1);
                bat_workload::hashing::uniform01(1, i, 0)
            }))
        })
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    use bat_kvcache::{FreqEstimator, UserCache, UserCacheConfig};
    let mut g = c.benchmark_group("cache");
    g.bench_function("freq_record_and_query", |b| {
        let mut est = FreqEstimator::new(600.0);
        let mut t = 0.0f64;
        b.iter(|| {
            t += 0.01;
            est.record(UserId::new((t * 100.0) as u64 % 1000), t);
            black_box(est.rate(&UserId::new(7), t))
        })
    });
    g.bench_function("user_cache_admit_churn", |b| {
        b.iter_batched(
            || {
                UserCache::new(UserCacheConfig {
                    capacity: Bytes::from_mb(100),
                    freq_window_secs: 600.0,
                    min_freq_sample: 8,
                    page_bytes: 16 * 28_672,
                })
            },
            |mut cache| {
                for i in 0..512u64 {
                    let u = UserId::new(i % 64);
                    cache.record_access(u, i as f64);
                    black_box(cache.admit_if_hotter(u, Bytes::from_mb(2), i as f64));
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_placement(c: &mut Criterion) {
    let plan = ItemPlacementPlan::new(PlacementStrategy::Hrcs, 100_000_000, 16, 0.1, 28_672 * 10);
    c.bench_function("placement_locate", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(9_973);
            black_box(plan.locate(ItemId::new(i % 100_000_000), WorkerId::new(3)))
        })
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    c.bench_function("trace_generate_1k_requests", |b| {
        b.iter_batched(
            || TraceGenerator::new(Workload::new(DatasetConfig::books(), 3), 4),
            |mut gen| black_box(gen.generate(10.0, 100.0)),
            BatchSize::SmallInput,
        )
    });
    // Keep SimTime in the public-API surface exercised here too.
    c.bench_function("simtime_advance", |b| {
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t = t.advance(0.001);
            black_box(t)
        })
    });
}

criterion_group!(
    benches,
    bench_forward,
    bench_planner,
    bench_workload,
    bench_cache,
    bench_placement,
    bench_trace_generation
);
criterion_main!(benches);
