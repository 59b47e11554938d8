//! End-to-end integration: the full pipeline from workload synthesis
//! through both serving stacks, plus the accuracy pipeline through the real
//! transformer — the flows the examples and harnesses rely on.

use bat::experiment::{accuracy_rows, compare_systems, ComparisonSpec};
use bat::{
    Bytes, ClusterConfig, DatasetConfig, MaskScheme, ModelConfig, PrefixKind, SemanticConfig,
    SemanticWorld, ServeOptions, ServeRuntime, SystemKind,
};
use bat_sim::{EngineConfig, ServingEngine};
use bat_workload::{TraceGenerator, Workload};

fn small_cluster() -> ClusterConfig {
    let mut c = ClusterConfig::a100_4node().with_nodes(2);
    c.node.kv_cache_capacity = Bytes::from_gb(20);
    c
}

/// The quickstart flow: build spec → compare systems → sane results.
#[test]
fn quickstart_flow() {
    let spec = ComparisonSpec {
        model: ModelConfig::qwen2_1_5b(),
        cluster: small_cluster(),
        dataset: DatasetConfig::games(),
        duration_secs: 5.0,
        offered_rate: 40.0,
        seed: 42,
    };
    let stats = compare_systems(
        &spec,
        &[
            SystemKind::Recompute,
            SystemKind::UserPrefix,
            SystemKind::Bat,
        ],
    );
    let n = spec.trace().len();
    assert!(n > 50);
    for s in &stats {
        assert_eq!(s.completed, n);
        assert!(s.qps() > 0.0);
    }
    assert!(stats[2].hit_rate() > stats[0].hit_rate());
}

/// The threaded runtime and the simulator run one driver: for a static
/// and for the adaptive policy every field of the run agrees bit for bit.
#[test]
fn runtime_and_simulator_agree() {
    let ds = DatasetConfig {
        num_users: 400,
        ..DatasetConfig::games()
    };
    let mut gen = TraceGenerator::new(Workload::new(ds.clone(), 3), 4);
    let trace = gen.generate(4.0, 40.0);

    for kind in [SystemKind::UserPrefix, SystemKind::Bat] {
        let cfg = EngineConfig::for_system(kind, ModelConfig::qwen2_1_5b(), small_cluster(), &ds);
        let mut sim = ServingEngine::new(cfg.clone()).unwrap();
        let sim_stats = sim.run(&trace);
        let runtime = ServeRuntime::new(cfg, ServeOptions::default()).unwrap();
        let live = runtime.serve(&trace);
        assert_eq!(live.completed, sim_stats.completed, "{}", kind.label());
        assert_eq!(live.reused_tokens, sim_stats.reused_tokens);
        assert_eq!(live.digest(), sim_stats.digest(), "{}", kind.label());
        // Latencies and span are nominal too: the whole ledger is one
        // driver's.
        assert_eq!(live, sim_stats, "{}", kind.label());
    }
}

/// The Table 3 accuracy pipeline: semantic world → real transformer →
/// ranking metrics, for robust and order-sensitive models, with PIC.
#[test]
fn accuracy_pipeline_shapes() {
    let n = 15;
    let robust = accuracy_rows(SemanticConfig::test_world(), n, None);
    assert_eq!(robust.len(), 2);
    let up = robust[0].metrics.recall_at(10);
    let ip = robust[1].metrics.recall_at(10);
    assert!(up > 0.4, "robust UP quality collapsed: {up}");
    assert!(
        (up - ip).abs() < 0.35,
        "robust UP/IP gap too wide: {up} vs {ip}"
    );

    let sensitive = accuracy_rows(SemanticConfig::test_world().order_biased(), n, Some(0.2));
    assert_eq!(sensitive.len(), 3);
    assert!(sensitive[2].strategy.starts_with("IP+PIC"));
    // All metric values remain valid probabilities.
    for row in robust.iter().chain(&sensitive) {
        assert!(row
            .metrics
            .table3_row()
            .iter()
            .all(|v| (0.0..=1.0).contains(v)));
    }
}

/// Bipartite item caching is exact end-to-end through the semantic world:
/// 0%-recompute PIC (pure cache reuse) equals full IP recomputation.
#[test]
fn semantic_world_cache_reuse_is_exact() {
    let world = SemanticWorld::generate(SemanticConfig::test_world());
    for user in 0..5 {
        let task = world.task(user);
        let full = world.score(&task, PrefixKind::Item, MaskScheme::Bipartite);
        let cached = world.score_with_pic(&task, 0.0);
        let diff = full
            .iter()
            .zip(&cached)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(diff < 1e-4, "user {user}: diff {diff}");
    }
}

/// A persisted trace replays to identical serving results: the paper's
/// replay-the-same-log methodology survives a round trip through disk.
#[test]
fn persisted_trace_replays_identically() {
    let ds = DatasetConfig {
        num_users: 300,
        ..DatasetConfig::games()
    };
    let mut gen = TraceGenerator::new(Workload::new(ds.clone(), 9), 10);
    let trace = gen.generate(4.0, 30.0);
    let path = std::env::temp_dir().join(format!("bat_e2e_trace_{}.jsonl", std::process::id()));
    bat_workload::save_trace(&path, &trace).unwrap();
    let loaded = bat_workload::load_trace(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let cfg = EngineConfig::for_system(
        SystemKind::Bat,
        ModelConfig::qwen2_1_5b(),
        small_cluster(),
        &ds,
    );
    let a = ServingEngine::new(cfg.clone()).unwrap().run(&trace);
    let b = ServingEngine::new(cfg).unwrap().run(&loaded);
    assert_eq!(a.reused_tokens, b.reused_tokens);
    assert_eq!(a.computed_tokens, b.computed_tokens);
    assert_eq!(a.p99_latency_ms, b.p99_latency_ms);
    assert_eq!(a.remote_bytes, b.remote_bytes);
}

/// Workload statistics drive the serving results: a dataset with heavier
/// item skew yields a higher IP hit rate.
#[test]
fn workload_skew_propagates_to_serving() {
    let mut flat = DatasetConfig::games();
    flat.item_zipf_exponent = 0.0;
    flat.num_items = 500_000; // far beyond the item-region capacity
    let mut skewed = flat.clone();
    skewed.item_zipf_exponent = 1.2;

    let run = |ds: DatasetConfig| {
        let spec = ComparisonSpec {
            model: ModelConfig::qwen2_1_5b(),
            cluster: small_cluster(),
            dataset: ds,
            duration_secs: 5.0,
            offered_rate: 30.0,
            seed: 5,
        };
        compare_systems(&spec, &[SystemKind::ItemPrefix])[0].hit_rate()
    };
    let h_flat = run(flat);
    let h_skewed = run(skewed);
    assert!(
        h_skewed > h_flat,
        "skewed popularity should cache better: {h_skewed} vs {h_flat}"
    );
}
