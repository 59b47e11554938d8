//! High-level experiment drivers shared by the examples and the
//! experiments of `batctl run`.

use bat_metrics::RankingMetrics;
use bat_model::semantic::{SemanticConfig, SemanticWorld};
use bat_model::MaskScheme;
use bat_sim::{ComputeModel, EngineConfig, RunStats, ServingEngine, SystemKind};
use bat_types::{ClusterConfig, DatasetConfig, ModelConfig, PrefixKind, RankRequest};
use bat_workload::{TraceGenerator, Workload};

/// Parameters of one serving comparison (a cell group of Figures 5/6).
#[derive(Debug, Clone)]
pub struct ComparisonSpec {
    /// Model architecture.
    pub model: ModelConfig,
    /// Cluster hardware.
    pub cluster: ClusterConfig,
    /// Dataset preset.
    pub dataset: DatasetConfig,
    /// Trace length in (simulated) seconds.
    pub duration_secs: f64,
    /// Offered request rate (req/s). For saturation-throughput
    /// measurements pick a rate well above capacity, e.g. via
    /// [`saturation_offered_rate`].
    pub offered_rate: f64,
    /// Workload/trace seed.
    pub seed: u64,
}

impl ComparisonSpec {
    /// The `(workload seed, trace seed)` a spec of `seed` generates its
    /// trace from.
    pub fn seeds(seed: u64) -> (u64, u64) {
        (seed, seed ^ 0xbadc0ffe)
    }

    /// Generates this spec's request trace (deterministic in `seed`).
    pub fn trace(&self) -> Vec<RankRequest> {
        let seeds = Self::seeds(self.seed);
        trace(&self.dataset, seeds, self.duration_secs, self.offered_rate)
    }
}

/// `duration` seconds of arrivals at `rate` over `ds`, generated from
/// `(workload seed, trace seed)`.
pub fn trace(ds: &DatasetConfig, seeds: (u64, u64), duration: f64, rate: f64) -> Vec<RankRequest> {
    TraceGenerator::new(Workload::new(ds.clone(), seeds.0), seeds.1).generate(duration, rate)
}

/// Runs the same trace through each system's engine and returns their
/// stats, in input order.
///
/// Each system simulates an independent engine over a shared read-only
/// trace, so the systems run in parallel on [`bat_exec`]; results are
/// collected in input order and each engine's simulation is fully
/// deterministic, so the output is identical for any thread count.
pub fn compare_systems(spec: &ComparisonSpec, systems: &[SystemKind]) -> Vec<RunStats> {
    let trace = spec.trace();
    bat_exec::parallel_map(systems, 1, |&kind| {
        let cfg = EngineConfig::for_system(
            kind,
            spec.model.clone(),
            spec.cluster.clone(),
            &spec.dataset,
        );
        let mut engine = ServingEngine::new(cfg).expect("preset configs validate");
        engine.run(&trace)
    })
}

/// An offered rate comfortably above the cluster's recomputation capacity,
/// so completion rate measures saturation throughput. `margin` of ~3 is
/// plenty (caching at most triples effective capacity at the paper's hit
/// rates).
pub fn saturation_offered_rate(
    model: &ModelConfig,
    cluster: &ClusterConfig,
    ds: &DatasetConfig,
    margin: f64,
) -> f64 {
    let cm = ComputeModel::new(model.clone(), cluster.node.clone());
    let avg_prompt = ds.avg_user_tokens as u64
        + ds.avg_prompt_item_tokens() as u64
        + Workload::INSTRUCTION_TOKENS as u64;
    cm.recompute_qps_upper_bound(avg_prompt) * cluster.num_nodes as f64 * margin
}

/// One row of the Table 3 accuracy comparison.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Strategy label ("UP", "IP", "IP+PIC").
    pub strategy: String,
    /// Ranking metrics over the evaluated users.
    pub metrics: RankingMetrics,
}

/// Evaluates UP vs IP (and optionally IP with a PIC repair pass) on a
/// semantic world, over its first `n_users` users.
pub fn accuracy_rows(
    cfg: SemanticConfig,
    n_users: usize,
    pic_fraction: Option<f32>,
) -> Vec<AccuracyRow> {
    let world = SemanticWorld::generate(cfg);
    let mut rows = Vec::new();
    for (label, kind) in [("UP", PrefixKind::User), ("IP", PrefixKind::Item)] {
        let ranks = world.eval_ranks(kind, MaskScheme::Bipartite, n_users);
        rows.push(AccuracyRow {
            strategy: label.to_owned(),
            metrics: RankingMetrics::from_ranks(&ranks),
        });
    }
    if let Some(frac) = pic_fraction {
        let ranks = bat_exec::parallel_map_indexed(n_users.min(world.cfg.num_users), 1, |u| {
            let task = world.task(u);
            let scores = world.score_with_pic(&task, frac);
            bat_model::semantic::rank_of(&scores, task.truth_pos)
        });
        rows.push(AccuracyRow {
            strategy: format!("IP+PIC({frac})"),
            metrics: RankingMetrics::from_ranks(&ranks),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_types::Bytes;

    fn small_spec() -> ComparisonSpec {
        let mut cluster = ClusterConfig::a100_4node().with_nodes(2);
        cluster.node.kv_cache_capacity = Bytes::from_gb(20);
        ComparisonSpec {
            model: ModelConfig::qwen2_1_5b(),
            cluster,
            dataset: DatasetConfig::games(),
            duration_secs: 3.0,
            offered_rate: 20.0,
            seed: 3,
        }
    }

    #[test]
    fn comparison_covers_all_systems() {
        let spec = small_spec();
        let all = [
            SystemKind::Recompute,
            SystemKind::UserPrefix,
            SystemKind::ItemPrefix,
            SystemKind::Bat,
        ];
        let stats = compare_systems(&spec, &all);
        assert_eq!(stats.len(), 4);
        let n = spec.trace().len();
        for s in &stats {
            assert_eq!(s.completed, n);
        }
        assert_eq!(stats[0].hit_rate(), 0.0);
        assert!(stats[3].hit_rate() > 0.0);
    }

    #[test]
    fn traces_are_reproducible() {
        let spec = small_spec();
        assert_eq!(spec.trace(), spec.trace());
    }

    #[test]
    fn saturation_rate_scales_with_nodes() {
        let spec = small_spec();
        let one = saturation_offered_rate(
            &spec.model,
            &spec.cluster.clone().with_nodes(1),
            &spec.dataset,
            3.0,
        );
        let four = saturation_offered_rate(
            &spec.model,
            &spec.cluster.clone().with_nodes(4),
            &spec.dataset,
            3.0,
        );
        assert!((four / one - 4.0).abs() < 1e-9);
        assert!(one > 0.0);
    }

    #[test]
    fn accuracy_rows_produce_table3_columns() {
        let rows = accuracy_rows(SemanticConfig::test_world(), 10, Some(0.15));
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].strategy, "UP");
        assert_eq!(rows[1].strategy, "IP");
        assert!(rows[2].strategy.starts_with("IP+PIC"));
        for r in &rows {
            let t = r.metrics.table3_row();
            assert!(t.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }
}
