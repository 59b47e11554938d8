//! The event-driven serving engine.
//!
//! One engine instance simulates the full BAT deployment of Figure 3: a
//! centralized hotness-aware prompt scheduler, `N` inference workers (one
//! per node, fed FIFO rounds under max-batched-tokens from one global
//! queue), `N` cache workers whose memory is split between a
//! statically-placed item region and a pooled user region, and the cache
//! meta service (user-cache index + frequency estimates).
//!
//! What is modeled analytically: GPU kernel time, PCIe loads, network
//! transfers ([`crate::compute`]). What runs for real: every scheduling
//! decision, cache lookup, admission, eviction and placement-driven
//! transfer, request by request.
//!
//! Simplifications (documented in DESIGN.md): requests are routed with
//! cache affinity, so user-prefix reads are local PCIe loads; background
//! item-cache refresh (§5.2 Step 3) runs only when
//! [`EngineConfig::item_refresh_interval_secs`] is set; KV write-back
//! happens off the critical path (§5.1) and is not charged.

use crate::compute::ComputeModel;
use crate::driver::SlotDriver;
use crate::planner::RequestPlanner;
use crate::stats::RunStats;
use bat_placement::{compute_replication_ratio, HrcsParams, ItemPlacementPlan, PlacementStrategy};
use bat_types::{BatError, Bytes, ClusterConfig, DatasetConfig, ModelConfig, RankRequest};
use bat_workload::ZipfLaw;

/// The four systems compared throughout §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// RE: no prefix caching at all.
    Recompute,
    /// UP: User-as-prefix for every request, LRU user cache.
    UserPrefix,
    /// IP: Item-as-prefix for every request, HRCS item cache.
    ItemPrefix,
    /// BAT: Bipartite Attention + HRCS placement + hotness-aware scheduling.
    Bat,
}

impl SystemKind {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Recompute => "RE",
            SystemKind::UserPrefix => "UP",
            SystemKind::ItemPrefix => "IP",
            SystemKind::Bat => "BAT",
        }
    }
}

/// Prefix-selection policy choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Always User-as-prefix.
    StaticUser,
    /// Always Item-as-prefix.
    StaticItem,
    /// Longer-block-wins (§5.3's cache-agnostic baseline).
    CacheAgnostic,
    /// BAT's hotness-aware rule (§5.3).
    HotnessAware,
}

/// User-cache admission discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionKind {
    /// Always admit, evicting LRU entries (the baselines).
    Lru,
    /// Admit only users hotter than the coldest residents (BAT).
    HotnessAware,
}

/// Algorithm 1's inputs for `ds` served by `model` on `cluster`: the
/// network's KV-token bandwidth against the estimated prefill time of an
/// average prompt, and the cluster's tolerance `alpha`.
pub fn hrcs_params(model: &ModelConfig, cluster: &ClusterConfig, ds: &DatasetConfig) -> HrcsParams {
    let compute = ComputeModel::new(model.clone(), cluster.node.clone());
    HrcsParams {
        bandwidth_tokens_per_sec: compute.net_tokens_per_sec(),
        prefill_time_secs: compute.prefill_estimate_secs(
            ds.avg_user_tokens as u64,
            ds.avg_prompt_item_tokens() as u64,
        ),
        alpha: cluster.alpha,
        candidates_per_request: ds.candidates_per_request,
        avg_item_tokens: ds.avg_item_tokens as f64,
        num_workers: cluster.num_nodes,
    }
}

/// The most of a node's KV budget its item region may take: 4/5, so that
/// some user region survives (§6.2's Industry discussion notes the user
/// cache gets whatever the item cache leaves). The HRCS plan is fitted to
/// it, and a worker adopting a dead peer's items stops there.
pub(crate) fn item_region_budget(cluster: &ClusterConfig) -> Bytes {
    Bytes::new(cluster.node.kv_cache_capacity.as_u64() * 4 / 5)
}

/// The HRCS item placement the paper's systems run (§5.1 "Offline
/// Initialization"): Algorithm 1 picks the replication ratio, and the item
/// region is fitted to [`item_region_budget`].
pub fn hrcs_plan(
    model: &ModelConfig,
    cluster: &ClusterConfig,
    ds: &DatasetConfig,
) -> ItemPlacementPlan {
    let law = ZipfLaw::new(ds.num_items, ds.item_zipf_exponent);
    let r = compute_replication_ratio(&hrcs_params(model, cluster, ds), &law);
    ItemPlacementPlan::new(
        PlacementStrategy::Hrcs,
        ds.num_items,
        cluster.num_nodes,
        r,
        model.kv_bytes(ds.avg_item_tokens as u64),
    )
    .fit_to_capacity(item_region_budget(cluster))
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Label used in reports ("RE", "UP", "IP", "BAT", or custom).
    pub label: String,
    /// Model architecture (Table 2 presets).
    pub model: ModelConfig,
    /// Cluster hardware (Table testbeds).
    pub cluster: ClusterConfig,
    /// Prefix-selection policy.
    pub policy: PolicyKind,
    /// User-cache admission discipline.
    pub admission: AdmissionKind,
    /// Whether prefix caching is enabled at all (false = RE).
    pub caching: bool,
    /// Item cache placement; `None` disables the item cache (RE/UP).
    pub placement: Option<ItemPlacementPlan>,
    /// Pooled user-cache capacity across the cluster.
    pub user_cache_capacity: Bytes,
    /// Sliding window of the frequency estimator, seconds.
    pub freq_window_secs: f64,
    /// Fixed per-batch overhead (kernel launches, sync), seconds.
    pub batch_overhead_secs: f64,
    /// Record per-request telemetry ([`crate::stats::RequestRecord`]),
    /// retrievable via [`ServingEngine::take_records`] after a run.
    pub record_requests: bool,
    /// Interval of the §5.2 Step 3 background hot-item re-replication,
    /// seconds; the planner tracks per-item access frequency exactly when
    /// it is set. `None` (the default: the paper's placement is computed
    /// offline) disables refresh.
    pub item_refresh_interval_secs: Option<f64>,
    /// Fault schedule injected into the run. `None` plans exactly as the
    /// empty schedule does (nothing fails) and leaves `RunStats::faults` at
    /// its default. Both engines apply it on nominal time through the
    /// shared driver, and the threaded runtime also kills and respawns real
    /// workers — the ledger stays identical.
    pub faults: Option<bat_faults::FaultSchedule>,
    /// Replicas of the cache-meta service's state machine, at least 1 (a
    /// one-replica group is the single-node service) — required to be the
    /// schedule's `meta_nodes()` whenever the fault schedule carries
    /// meta-replica events.
    pub meta_replicas: usize,
    /// Seed of the meta group's randomized-by-seed election timeouts.
    pub meta_seed: u64,
    /// SLO-aware overload control plane (admission, deadlines, brownout).
    /// `None` disables it entirely: every request is admitted and served,
    /// exactly as before the control plane existed.
    pub slo: Option<bat_sched::OverloadConfig>,
    /// Straggler injection: `(worker index, service-time multiplier)`. The
    /// worker stays alive and correct, just slow — the overload case the
    /// control plane's capacity weighting exists for.
    pub straggler: Option<(usize, f64)>,
    /// Tiered KV pool: a quantized cold tier behind the hot cache regions,
    /// with adaptive user/item budget partitioning. `None` (the default)
    /// gives the planner's pool no cold capacity — every cold lookup misses
    /// and every demotion is dropped, so the cache is flat — and leaves
    /// `RunStats::tiers` at its default.
    pub tiers: Option<bat_tiers::TiersConfig>,
    /// Continuous cross-request batching: the slot configuration of the
    /// [`bat_sched::BatchScheduler`] every run executes on (seats per worker,
    /// tokens per chunk). `None` (the default) is §5.1's per-request
    /// batching, [`bat_sched::BatchingConfig::PER_REQUEST`]: whole requests
    /// seated FIFO under `cluster.max_batched_tokens`.
    pub batching: Option<bat_sched::BatchingConfig>,
}

impl EngineConfig {
    /// Builds the paper's configuration for one of the four systems on a
    /// dataset: Algorithm 1 decides the HRCS replication ratio, the item
    /// region is capped to the per-node budget, and the user region gets
    /// the remainder (§5.1 "Offline Initialization").
    pub fn for_system(
        kind: SystemKind,
        model: ModelConfig,
        cluster: ClusterConfig,
        ds: &DatasetConfig,
    ) -> Self {
        let needs_items = matches!(kind, SystemKind::ItemPrefix | SystemKind::Bat);
        let placement = needs_items.then(|| hrcs_plan(&model, &cluster, ds));
        let per_node_items = placement
            .as_ref()
            .map_or(Bytes::ZERO, ItemPlacementPlan::per_worker_bytes);
        let user_capacity = cluster
            .node
            .kv_cache_capacity
            .saturating_sub(per_node_items)
            * cluster.num_nodes as u64;
        EngineConfig {
            label: kind.label().to_owned(),
            policy: match kind {
                SystemKind::Recompute | SystemKind::UserPrefix => PolicyKind::StaticUser,
                SystemKind::ItemPrefix => PolicyKind::StaticItem,
                SystemKind::Bat => PolicyKind::HotnessAware,
            },
            admission: match kind {
                SystemKind::Bat => AdmissionKind::HotnessAware,
                _ => AdmissionKind::Lru,
            },
            caching: kind != SystemKind::Recompute,
            placement,
            user_cache_capacity: user_capacity,
            freq_window_secs: 600.0,
            batch_overhead_secs: 0.003,
            record_requests: false,
            item_refresh_interval_secs: None,
            faults: None,
            meta_replicas: bat_faults::DEFAULT_META_NODES,
            meta_seed: 0xB47_5EED,
            slo: None,
            straggler: None,
            tiers: None,
            batching: None,
            model,
            cluster,
        }
    }

    /// Enables the SLO-aware overload control plane (or disables it with
    /// `None`).
    pub fn with_slo(mut self, slo: Option<bat_sched::OverloadConfig>) -> Self {
        self.slo = slo;
        self
    }

    /// Injects a straggler: worker `index` serves every batch `factor`
    /// times slower (or clears it with `None`).
    pub fn with_straggler(mut self, straggler: Option<(usize, f64)>) -> Self {
        self.straggler = straggler;
        self
    }

    /// Injects a fault schedule (or clears it with `None`). The schedule
    /// must cover exactly the cluster's node count.
    pub fn with_faults(mut self, faults: Option<bat_faults::FaultSchedule>) -> Self {
        self.faults = faults;
        self
    }

    /// Enables the tiered KV pool (or disables it with `None`).
    pub fn with_tiers(mut self, tiers: Option<bat_tiers::TiersConfig>) -> Self {
        self.tiers = tiers;
        self
    }

    /// Enables slot-based continuous cross-request batching (or reverts to
    /// per-request batching with `None`). Either way every round fits
    /// `cluster.max_batched_tokens`.
    pub fn with_batching(mut self, batching: Option<bat_sched::BatchingConfig>) -> Self {
        self.batching = batching;
        self
    }

    /// Replaces the item placement (Figure 7 / Table 4 ablations), resizing
    /// the user region to the leftover memory.
    pub fn with_placement(mut self, placement: Option<ItemPlacementPlan>) -> Self {
        let per_node = placement
            .as_ref()
            .map_or(Bytes::ZERO, ItemPlacementPlan::per_worker_bytes);
        self.user_cache_capacity = self.cluster.node.kv_cache_capacity.saturating_sub(per_node)
            * self.cluster.num_nodes as u64;
        self.placement = placement;
        self
    }

    /// Overrides the user-cache capacity (Figure 8 sweeps it directly).
    pub fn with_user_cache_capacity(mut self, capacity: Bytes) -> Self {
        self.user_cache_capacity = capacity;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`BatError::CapacityExceeded`] if the item region does not
    /// fit the per-node budget (the Table 4 "replication causes OOM" case),
    /// and [`BatError::InvalidConfig`] for inconsistent knobs.
    pub fn validate(&self) -> Result<(), BatError> {
        if let Some(plan) = &self.placement {
            if plan.per_worker_bytes() > self.cluster.node.kv_cache_capacity {
                return Err(BatError::CapacityExceeded(format!(
                    "item region needs {} per node, budget is {}",
                    plan.per_worker_bytes(),
                    self.cluster.node.kv_cache_capacity
                )));
            }
        }
        if !self.caching && self.placement.is_some() {
            return Err(BatError::InvalidConfig(
                "item placement configured but caching disabled".to_owned(),
            ));
        }
        if self.cluster.max_batched_tokens == 0 {
            return Err(BatError::InvalidConfig(
                "cluster max_batched_tokens must be >= 1".to_owned(),
            ));
        }
        if !(self.freq_window_secs.is_finite() && self.freq_window_secs > 0.0) {
            return Err(BatError::InvalidConfig(format!(
                "freq_window_secs must be finite and positive, got {}",
                self.freq_window_secs
            )));
        }
        if self.meta_replicas == 0 {
            return Err(BatError::InvalidConfig(
                "meta_replicas must be >= 1 (the meta service is a replicated group)".to_owned(),
            ));
        }
        if let Some(secs) = self.item_refresh_interval_secs {
            if !(secs.is_finite() && secs > 0.0) {
                return Err(BatError::InvalidConfig(format!(
                    "item_refresh_interval_secs must be finite and positive, got {secs}"
                )));
            }
        }
        if let Some(schedule) = &self.faults {
            if schedule.num_workers() != self.cluster.num_nodes {
                return Err(BatError::InvalidConfig(format!(
                    "fault schedule covers {} workers but the cluster has {} nodes",
                    schedule.num_workers(),
                    self.cluster.num_nodes
                )));
            }
            if schedule.has_meta_events() && self.meta_replicas != schedule.meta_nodes() {
                return Err(BatError::InvalidConfig(format!(
                    "fault schedule targets a {}-replica meta group but the engine runs {}",
                    schedule.meta_nodes(),
                    self.meta_replicas
                )));
            }
        }
        if let Some(tiers) = &self.tiers {
            if !self.caching {
                return Err(BatError::InvalidConfig(
                    "tiered KV pool configured but caching disabled".to_owned(),
                ));
            }
            tiers.validate().map_err(BatError::InvalidConfig)?;
        }
        if let Some(batching) = &self.batching {
            batching.validate()?;
        }
        if let Some((w, factor)) = self.straggler {
            if w >= self.cluster.num_nodes {
                return Err(BatError::InvalidConfig(format!(
                    "straggler worker {w} out of range for {} nodes",
                    self.cluster.num_nodes
                )));
            }
            if !(factor.is_finite() && factor >= 1.0) {
                return Err(BatError::InvalidConfig(
                    "straggler factor must be finite and >= 1".to_owned(),
                ));
            }
        }
        Ok(())
    }
}

/// The serving engine.
pub struct ServingEngine {
    cfg: EngineConfig,
    planner: RequestPlanner,
    records: Vec<crate::stats::RequestRecord>,
}

impl ServingEngine {
    /// Builds an engine from a validated configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineConfig::validate`] failures.
    pub fn new(cfg: EngineConfig) -> Result<Self, BatError> {
        cfg.validate()?;
        let planner = RequestPlanner::from_config(&cfg);
        Ok(ServingEngine {
            planner,
            cfg,
            records: Vec::new(),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The request planner (cache state inspection after a run).
    pub fn planner(&self) -> &RequestPlanner {
        &self.planner
    }

    /// Replaces the prefix-selection policy before a run (the scheduling
    /// ablation injects the clairvoyant oracle this way).
    pub fn set_policy(&mut self, policy: Box<dyn bat_sched::PromptPolicy>) {
        self.planner.set_policy(policy);
    }

    /// Drains the telemetry recorded by the last run (empty unless
    /// [`EngineConfig::record_requests`] is set).
    pub fn take_records(&mut self) -> Vec<crate::stats::RequestRecord> {
        std::mem::take(&mut self.records)
    }

    /// Runs the engine over an arrival-ordered trace, to completion, through
    /// the shared [`SlotDriver`]. The machine runs on nominal times and
    /// priced services only, so the threaded runtime (driving the identical
    /// driver with physical hooks) produces a bit-identical ledger.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival time.
    pub fn run(&mut self, trace: &[RankRequest]) -> RunStats {
        for w in trace.windows(2) {
            assert!(
                w[1].arrival >= w[0].arrival,
                "trace must be sorted by arrival"
            );
        }
        let (stats, records) =
            SlotDriver::new(&self.cfg, &mut self.planner).run(trace, |_| {}, |_| {});
        self.records = records;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_metrics::SloStats;
    use bat_workload::{TraceGenerator, Workload};

    fn small_cluster() -> ClusterConfig {
        let mut c = ClusterConfig::a100_4node();
        c.num_nodes = 2;
        c.node.kv_cache_capacity = Bytes::from_gb(20);
        c
    }

    fn trace(ds: &DatasetConfig, secs: f64, rate: f64) -> Vec<RankRequest> {
        let mut g = TraceGenerator::new(Workload::new(ds.clone(), 11), 12);
        g.generate(secs, rate)
    }

    fn run_system(kind: SystemKind, ds: &DatasetConfig, secs: f64, rate: f64) -> RunStats {
        let cfg = EngineConfig::for_system(kind, ModelConfig::qwen2_1_5b(), small_cluster(), ds);
        let mut engine = ServingEngine::new(cfg).unwrap();
        engine.run(&trace(ds, secs, rate))
    }

    #[test]
    fn all_requests_complete() {
        let ds = DatasetConfig::games();
        for kind in [
            SystemKind::Recompute,
            SystemKind::UserPrefix,
            SystemKind::ItemPrefix,
            SystemKind::Bat,
        ] {
            let stats = run_system(kind, &ds, 4.0, 10.0);
            let expected = trace(&ds, 4.0, 10.0).len();
            assert_eq!(stats.completed, expected, "{}", kind.label());
            assert!(stats.p99_latency_ms > 0.0);
        }
    }

    #[test]
    fn recompute_reuses_nothing() {
        let stats = run_system(SystemKind::Recompute, &DatasetConfig::games(), 4.0, 10.0);
        assert_eq!(stats.reused_tokens, 0);
        assert_eq!(stats.hit_rate(), 0.0);
        assert_eq!(stats.computed_tokens, stats.total_tokens);
    }

    #[test]
    fn caching_systems_beat_recompute() {
        // A compressed Games-like dataset: few users, so the short test
        // trace revisits them (the paper's traces run for minutes).
        let ds = DatasetConfig {
            num_users: 300,
            ..DatasetConfig::games()
        };
        let re = run_system(SystemKind::Recompute, &ds, 8.0, 20.0);
        let up = run_system(SystemKind::UserPrefix, &ds, 8.0, 20.0);
        let ip = run_system(SystemKind::ItemPrefix, &ds, 8.0, 20.0);
        let bat = run_system(SystemKind::Bat, &ds, 8.0, 20.0);
        assert!(up.hit_rate() > 0.05, "UP hit rate {}", up.hit_rate());
        assert!(ip.hit_rate() > 0.2, "IP hit rate {}", ip.hit_rate());
        assert!(
            bat.computed_tokens < re.computed_tokens,
            "BAT must compute fewer tokens than RE"
        );
        assert!(
            bat.hit_rate() >= up.hit_rate().min(ip.hit_rate()),
            "BAT at least matches the weaker static policy"
        );
    }

    #[test]
    fn tiered_cold_pool_raises_hit_rate_at_fixed_hot_budget() {
        // Same hot-tier budget, same trace: adding the quantized cold tier
        // must convert some recomputes into cold hits, raising the
        // end-to-end hit rate — the tentpole claim the ablation binary
        // measures at full scale.
        let ds = DatasetConfig {
            num_users: 2000,
            ..DatasetConfig::games()
        };
        let t = trace(&ds, 6.0, 40.0);
        // A deliberately small hot tier so eviction churn feeds demotions.
        let base = EngineConfig::for_system(
            SystemKind::UserPrefix,
            ModelConfig::qwen2_1_5b(),
            small_cluster(),
            &ds,
        )
        .with_user_cache_capacity(Bytes::from_mb(200));
        let flat = ServingEngine::new(base.clone()).unwrap().run(&t);
        let tiered_cfg = base.with_tiers(Some(bat_tiers::TiersConfig::new(Bytes::from_mb(400))));
        let tiered = ServingEngine::new(tiered_cfg).unwrap().run(&t);
        assert!(tiered.tiers.cold_hits > 0, "cold tier never hit");
        assert!(tiered.tiers.demotions > 0, "evictions never demoted");
        assert!(
            tiered.hit_rate() > flat.hit_rate(),
            "cold tier must raise hit rate: {} vs {}",
            tiered.hit_rate(),
            flat.hit_rate()
        );
        assert!(
            flat.tiers == bat_metrics::TierStats::default(),
            "flat runs must keep an all-zero tier ledger"
        );
        // The cold stream is priced: served bytes cost network-path time.
        assert!(tiered.net_secs > flat.net_secs);
    }

    #[test]
    fn tiered_runs_are_deterministic() {
        let ds = DatasetConfig::games();
        let t = trace(&ds, 3.0, 30.0);
        let cfg = EngineConfig::for_system(
            SystemKind::Bat,
            ModelConfig::qwen2_1_5b(),
            small_cluster(),
            &ds,
        )
        .with_tiers(Some(bat_tiers::TiersConfig::new(Bytes::from_gb(4))));
        let a = ServingEngine::new(cfg.clone()).unwrap().run(&t);
        let b = ServingEngine::new(cfg).unwrap().run(&t);
        assert_eq!(a.tiers, b.tiers);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn ip_pays_network_for_sharded_items() {
        let ds = DatasetConfig::books();
        // A generous communication budget makes Algorithm 1 shard most of
        // the corpus, so requests must touch remote shards on 2 nodes.
        let mut cluster = small_cluster();
        cluster.alpha = 0.5;
        let cfg = EngineConfig::for_system(
            SystemKind::ItemPrefix,
            ModelConfig::qwen2_1_5b(),
            cluster,
            &ds,
        );
        let mut engine = ServingEngine::new(cfg).unwrap();
        let ip = engine.run(&trace(&ds, 4.0, 10.0));
        assert!(ip.remote_bytes > Bytes::ZERO);
        assert!(ip.net_secs > 0.0);
    }

    #[test]
    fn saturation_qps_is_bounded_by_compute() {
        let ds = DatasetConfig::games();
        // Offered far above capacity: completion rate ≈ capacity.
        let re = run_system(SystemKind::Recompute, &ds, 10.0, 200.0);
        let model = ModelConfig::qwen2_1_5b();
        let cm = ComputeModel::new(model, small_cluster().node);
        let per_req = cm.prefill_secs(2400, 2400);
        let upper = 2.0 / per_req * 1.2; // 2 nodes + slack
        assert!(re.qps() < upper, "qps {} vs bound {}", re.qps(), upper);
        assert!(re.qps() > 0.2 / per_req);
    }

    #[test]
    fn latency_grows_with_offered_load() {
        let ds = DatasetConfig::games();
        let light = run_system(SystemKind::Bat, &ds, 10.0, 2.0);
        let heavy = run_system(SystemKind::Bat, &ds, 10.0, 300.0);
        assert!(
            heavy.p99_latency_ms > light.p99_latency_ms * 2.0,
            "overload must inflate P99: {} vs {}",
            heavy.p99_latency_ms,
            light.p99_latency_ms
        );
    }

    #[test]
    fn bat_splits_traffic_between_prefixes() {
        let ds = DatasetConfig::industry();
        let bat = run_system(SystemKind::Bat, &ds, 6.0, 20.0);
        assert!(bat.ip_requests > 0, "some requests must go item-as-prefix");
        assert!(
            bat.up_requests + bat.ip_requests == bat.completed,
            "every request gets a prefix decision"
        );
    }

    #[test]
    fn oversized_item_region_is_rejected() {
        let ds = DatasetConfig::books();
        let cluster = small_cluster();
        let kv = ModelConfig::qwen2_1_5b().kv_bytes(ds.avg_item_tokens as u64);
        let plan = ItemPlacementPlan::new(
            PlacementStrategy::Replicate,
            ds.num_items,
            cluster.num_nodes,
            1.0,
            kv,
        );
        let cfg =
            EngineConfig::for_system(SystemKind::Bat, ModelConfig::qwen2_1_5b(), cluster, &ds);
        // Books: 280K items × ~120KB ≈ 34GB per node > 20GB budget.
        let cfg = EngineConfig {
            placement: Some(plan),
            ..cfg
        };
        assert!(matches!(
            ServingEngine::new(cfg),
            Err(BatError::CapacityExceeded(_))
        ));
    }

    #[test]
    fn with_placement_resizes_user_region() {
        let ds = DatasetConfig::games();
        let cfg = EngineConfig::for_system(
            SystemKind::Bat,
            ModelConfig::qwen2_1_5b(),
            small_cluster(),
            &ds,
        );
        let full = cfg.clone().with_placement(None);
        assert!(full.user_cache_capacity > cfg.user_cache_capacity);
        assert_eq!(full.user_cache_capacity, Bytes::from_gb(20) * 2);
    }

    #[test]
    fn telemetry_records_cover_every_request() {
        let ds = DatasetConfig {
            num_users: 300,
            ..DatasetConfig::games()
        };
        let t = trace(&ds, 4.0, 20.0);
        // The per-request point, then a chunked one.
        for batching in [None, Some(bat_sched::BatchingConfig::default())] {
            let mut cfg = EngineConfig::for_system(
                SystemKind::Bat,
                ModelConfig::qwen2_1_5b(),
                small_cluster(),
                &ds,
            )
            .with_batching(batching);
            cfg.record_requests = true;
            let mut engine = ServingEngine::new(cfg).unwrap();
            let stats = engine.run(&t);
            let records = engine.take_records();
            assert_eq!(records.len(), stats.completed);
            // Records agree with the aggregate counters exactly.
            let reused: u64 = records.iter().map(|r| r.reused_tokens).sum();
            let computed: u64 = records.iter().map(|r| r.computed_tokens).sum();
            assert_eq!(reused, stats.reused_tokens);
            assert_eq!(computed, stats.computed_tokens);
            for r in &records {
                assert!(r.completion_secs >= r.arrival_secs);
            }
            // take_records drains.
            assert!(engine.take_records().is_empty());
            let rows = crate::stats::breakdown_by_prefix(&records);
            assert!(!rows.is_empty());
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// Conservation and completeness hold for arbitrary small
            /// workloads and all four systems.
            #[test]
            fn engine_invariants(
                seed in 0u64..500,
                rate in 5.0f64..60.0,
                users in 50u64..2000,
                kind_idx in 0usize..4,
            ) {
                let kind = [
                    SystemKind::Recompute,
                    SystemKind::UserPrefix,
                    SystemKind::ItemPrefix,
                    SystemKind::Bat,
                ][kind_idx];
                let ds = DatasetConfig { num_users: users, ..DatasetConfig::games() };
                let mut gen = bat_workload::TraceGenerator::new(
                    bat_workload::Workload::new(ds.clone(), seed),
                    seed ^ 1,
                );
                let trace = gen.generate(3.0, rate);
                prop_assume!(!trace.is_empty());
                let cfg = EngineConfig::for_system(
                    kind,
                    ModelConfig::qwen2_1_5b(),
                    small_cluster(),
                    &ds,
                );
                let mut engine = ServingEngine::new(cfg).unwrap();
                let stats = engine.run(&trace);
                prop_assert_eq!(stats.completed, trace.len());
                prop_assert_eq!(
                    stats.reused_tokens + stats.computed_tokens,
                    stats.total_tokens
                );
                prop_assert!(stats.hit_rate() <= 1.0);
                prop_assert!(stats.p99_latency_ms >= stats.p50_latency_ms);
                prop_assert!(stats.qps() > 0.0);
                if kind == SystemKind::Recompute {
                    prop_assert_eq!(stats.reused_tokens, 0);
                }
            }

            /// Satellite invariant, engine level: with continuous batching
            /// and the control plane on, every submitted request reaches
            /// exactly one terminal outcome — `submitted == completed +
            /// shed + rejected` — under random chunk sizes, seat counts,
            /// burst rates, and a mid-run worker crash/restart.
            #[test]
            fn batched_engine_conserves(
                seed in 0u64..200,
                rate in 20.0f64..150.0,
                seats in 1usize..6,
                chunk in 16u64..256,
                deadline in 0.05f64..0.8,
                crash_at in 0.1f64..1.2,
            ) {
                let ds = DatasetConfig { num_users: 400, ..DatasetConfig::games() };
                let mut gen = bat_workload::TraceGenerator::new(
                    bat_workload::Workload::new(ds.clone(), seed),
                    seed ^ 7,
                );
                gen.set_slo(
                    bat_types::SloBudget::with_deadline(deadline)
                        .at_priority(bat_types::Priority::Low),
                );
                let trace = gen.generate(2.0, rate);
                prop_assume!(!trace.is_empty());
                let schedule = bat_faults::FaultSchedule::new(
                    2,
                    vec![
                        bat_faults::FaultEvent {
                            at_secs: crash_at,
                            kind: bat_faults::FaultKind::WorkerCrash(bat_types::WorkerId::new(1)),
                        },
                        bat_faults::FaultEvent {
                            at_secs: crash_at + 0.3,
                            kind: bat_faults::FaultKind::WorkerRestart(bat_types::WorkerId::new(1)),
                        },
                    ],
                ).unwrap();
                let cfg = EngineConfig::for_system(
                    SystemKind::Bat,
                    ModelConfig::qwen2_1_5b(),
                    small_cluster(),
                    &ds,
                )
                .with_slo(Some(bat_sched::OverloadConfig))
                .with_faults(Some(schedule))
                .with_batching(Some(bat_sched::BatchingConfig {
                    slots_per_worker: seats,
                    chunk_tokens: chunk,
                }));
                let mut engine = ServingEngine::new(cfg).unwrap();
                let stats = engine.run(&trace);
                prop_assert_eq!(stats.slo.submitted, trace.len() as u64);
                prop_assert!(stats.slo.conserved(), "conservation violated: {:?}", stats.slo);
                prop_assert_eq!(stats.completed as u64, stats.slo.completed);
                prop_assert!(stats.batching.chunks >= stats.batching.rounds);
            }
        }
    }

    #[test]
    fn config_validation_catches_inconsistency() {
        let ds = DatasetConfig::games();
        let mut cfg = EngineConfig::for_system(
            SystemKind::Bat,
            ModelConfig::qwen2_1_5b(),
            small_cluster(),
            &ds,
        );
        let mut no_budget = cfg.clone();
        no_budget.cluster.max_batched_tokens = 0;
        assert!(matches!(
            ServingEngine::new(no_budget),
            Err(BatError::InvalidConfig(_))
        ));
        // A bad estimator window, cold-tier split or an empty meta group is
        // a typed error naming the field, never an assert deeper down — in
        // the engine's config and the pool's.
        let mut nan_window = cfg.clone();
        nan_window.freq_window_secs = f64::NAN;
        let over_share = bat_tiers::TiersConfig::new(Bytes::from_mb(400))
            .with_split(bat_tiers::SplitPolicy::Static(1.5));
        let mut no_meta = cfg.clone();
        no_meta.meta_replicas = 0;
        // A refresh interval ≤ 0 would refresh on every arrival, and an
        // infinite one never.
        let refresh = |secs: f64| EngineConfig {
            item_refresh_interval_secs: Some(secs),
            ..cfg.clone()
        };
        for (bad, field) in [
            (nan_window, "freq_window_secs"),
            (
                cfg.clone().with_tiers(Some(over_share)),
                "static user share",
            ),
            (no_meta, "meta_replicas"),
            (refresh(0.0), "item_refresh_interval_secs"),
            (refresh(-1.0), "item_refresh_interval_secs"),
            (refresh(f64::NAN), "item_refresh_interval_secs"),
            (refresh(f64::INFINITY), "item_refresh_interval_secs"),
        ] {
            match ServingEngine::new(bad) {
                Err(BatError::InvalidConfig(msg)) => assert!(msg.contains(field), "{msg}"),
                other => panic!("expected InvalidConfig, got {:?}", other.err()),
            }
        }
        assert!(refresh(0.5).validate().is_ok());
        cfg.caching = false;
        assert!(matches!(cfg.validate(), Err(BatError::InvalidConfig(_))));
    }

    fn slo_trace(ds: &DatasetConfig, secs: f64, rate: f64, deadline: f64) -> Vec<RankRequest> {
        let mut g =
            bat_workload::TraceGenerator::new(bat_workload::Workload::new(ds.clone(), 11), 12);
        g.set_slo(
            bat_types::SloBudget::with_deadline(deadline).at_priority(bat_types::Priority::Low),
        );
        g.generate(secs, rate)
    }

    #[test]
    fn overload_control_rejects_and_conserves_under_burst() {
        let ds = DatasetConfig::games();
        // A burst far past the 2-node cluster's capacity with tight
        // deadlines: the admission controller must turn work away.
        let trace = slo_trace(&ds, 1.0, 600.0, 0.08);
        let cfg = EngineConfig::for_system(
            SystemKind::Bat,
            ModelConfig::qwen2_1_5b(),
            small_cluster(),
            &ds,
        )
        .with_slo(Some(bat_sched::OverloadConfig));
        let stats = ServingEngine::new(cfg.clone()).unwrap().run(&trace);
        assert_eq!(stats.slo.submitted, trace.len() as u64);
        assert!(
            stats.slo.conserved(),
            "conservation violated: {:?}",
            stats.slo
        );
        assert!(
            stats.slo.rejected() > 0,
            "a 600 qps burst on 2 nodes must shed load: {:?}",
            stats.slo
        );
        assert!(stats.completed < trace.len());
        assert_eq!(stats.completed as u64, stats.slo.completed);
        // The run is deterministic: same seed, same schedule, same stats —
        // bitwise, floats included.
        let again = ServingEngine::new(cfg).unwrap().run(&trace);
        assert_eq!(stats, again);
    }

    #[test]
    fn overload_control_is_quiet_at_low_load() {
        let ds = DatasetConfig::games();
        // Deadlines generous enough that the pessimistic admission estimate
        // never declares a request infeasible at this load.
        let trace = slo_trace(&ds, 4.0, 5.0, 2.0);
        let cfg = EngineConfig::for_system(
            SystemKind::Bat,
            ModelConfig::qwen2_1_5b(),
            small_cluster(),
            &ds,
        )
        .with_slo(Some(bat_sched::OverloadConfig));
        let stats = ServingEngine::new(cfg).unwrap().run(&trace);
        assert_eq!(stats.slo.accepted, trace.len() as u64, "{:?}", stats.slo);
        assert_eq!(stats.completed, trace.len());
        assert!(stats.slo.conserved());
        assert_eq!(stats.faults.max_brownout_rung, 0);
        assert!((stats.slo.goodput_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slo_disabled_runs_leave_stats_quiet() {
        let ds = DatasetConfig::games();
        let stats = run_system(SystemKind::Bat, &ds, 2.0, 10.0);
        assert_eq!(stats.slo, SloStats::default());
    }

    fn batched(cfg: EngineConfig) -> EngineConfig {
        cfg.with_batching(Some(bat_sched::BatchingConfig::default()))
    }

    #[test]
    fn batched_runs_complete_everything_and_fuse_rounds() {
        let ds = DatasetConfig::games();
        let t = trace(&ds, 4.0, 30.0);
        let cfg = batched(EngineConfig::for_system(
            SystemKind::Bat,
            ModelConfig::qwen2_1_5b(),
            small_cluster(),
            &ds,
        ));
        let stats = ServingEngine::new(cfg.clone()).unwrap().run(&t);
        assert_eq!(stats.completed, t.len());
        assert!(stats.batching.rounds > 0);
        assert!(stats.batching.chunks >= stats.batching.rounds);
        assert!(stats.batching.batched_tokens > 0);
        assert_eq!(
            stats.reused_tokens + stats.computed_tokens,
            stats.total_tokens
        );
        // Bitwise deterministic, ledger included.
        let again = ServingEngine::new(cfg).unwrap().run(&t);
        assert_eq!(stats, again);
        assert_eq!(stats.digest(), again.digest());
    }

    #[test]
    fn continuous_batching_beats_per_request_dispatch_under_load() {
        // Per-request baseline: max_batched_tokens = 1 forces one batch
        // overhead per request. Continuous batching amortizes it across
        // every seated chunk — the win shows where per-request dispatch
        // overhead rivals the service itself: short prompts under genuine
        // saturation, each request fitting in one chunk so rounds fuse up
        // to `slots_per_worker` requests.
        let ds = DatasetConfig {
            num_users: 300,
            avg_user_tokens: 120,
            avg_item_tokens: 8,
            candidates_per_request: 10,
            ..DatasetConfig::games()
        };
        let t = trace(&ds, 1.0, 2000.0);
        let config = |cluster| {
            EngineConfig::for_system(SystemKind::Bat, ModelConfig::qwen2_1_5b(), cluster, &ds)
        };
        let mut one_token = small_cluster();
        one_token.max_batched_tokens = 1;
        let base = ServingEngine::new(config(one_token)).unwrap().run(&t);
        assert_eq!(
            base.batching.rounds, base.batching.chunks,
            "a one-token budget is one request per round"
        );
        let cont_cfg = config(small_cluster()).with_batching(Some(bat_sched::BatchingConfig {
            slots_per_worker: 8,
            chunk_tokens: 512,
        }));
        let cont = ServingEngine::new(cont_cfg).unwrap().run(&t);
        assert_eq!(cont.completed, base.completed);
        let ratio = cont.qps() / base.qps();
        assert!(
            ratio >= 1.3,
            "continuous batching must raise sustained throughput >= 1.3x: got {ratio:.3}"
        );
        assert!(
            cont.batching.rounds < cont.batching.chunks,
            "rounds must fuse chunks across requests"
        );
        assert!(
            cont.batching.max_idle_gap_over_chunk <= 1.0,
            "no idle gap may exceed one chunk at saturation"
        );
    }

    #[test]
    fn batched_overload_control_conserves_under_burst() {
        let ds = DatasetConfig::games();
        let t = slo_trace(&ds, 1.0, 600.0, 0.08);
        let cfg = batched(
            EngineConfig::for_system(
                SystemKind::Bat,
                ModelConfig::qwen2_1_5b(),
                small_cluster(),
                &ds,
            )
            .with_slo(Some(bat_sched::OverloadConfig)),
        );
        let stats = ServingEngine::new(cfg.clone()).unwrap().run(&t);
        assert_eq!(stats.slo.submitted, t.len() as u64);
        assert!(stats.slo.conserved(), "{:?}", stats.slo);
        assert!(
            stats.slo.rejected() > 0,
            "slot backlog must push the admission estimate over tight deadlines"
        );
        assert_eq!(stats.completed as u64, stats.slo.completed);
        let again = ServingEngine::new(cfg).unwrap().run(&t);
        assert_eq!(stats, again);
    }

    #[test]
    fn batched_crash_and_restart_lose_no_requests() {
        let ds = DatasetConfig::games();
        let t = trace(&ds, 3.0, 40.0);
        let schedule = bat_faults::FaultSchedule::new(
            2,
            vec![
                bat_faults::FaultEvent {
                    at_secs: 0.5,
                    kind: bat_faults::FaultKind::WorkerCrash(bat_types::WorkerId::new(1)),
                },
                bat_faults::FaultEvent {
                    at_secs: 1.5,
                    kind: bat_faults::FaultKind::WorkerRestart(bat_types::WorkerId::new(1)),
                },
            ],
        )
        .unwrap();
        let cfg = batched(
            EngineConfig::for_system(
                SystemKind::Bat,
                ModelConfig::qwen2_1_5b(),
                small_cluster(),
                &ds,
            )
            .with_faults(Some(schedule)),
        );
        let stats = ServingEngine::new(cfg.clone()).unwrap().run(&t);
        assert_eq!(
            stats.completed,
            t.len(),
            "crashed seats must re-queue, not vanish"
        );
        assert!(stats.faults.crashes > 0);
        let again = ServingEngine::new(cfg).unwrap().run(&t);
        assert_eq!(stats.digest(), again.digest());
    }

    #[test]
    fn a_join_far_past_the_trace_returns_at_once() {
        // The join at nominal 1e9 s is 1e11 meta ticks past the drain. The
        // meta group jumps its idle clock instead of stepping it, so the
        // run returns well inside the helper thread's bound.
        let ds = DatasetConfig {
            num_users: 300,
            ..DatasetConfig::games()
        };
        let t = trace(&ds, 2.0, 20.0);
        let schedule =
            bat_faults::FaultSchedule::drain_join(2, bat_types::WorkerId::new(1), 1.0, 1e9)
                .unwrap();
        let cfg = batched(
            EngineConfig::for_system(
                SystemKind::Bat,
                ModelConfig::qwen2_1_5b(),
                small_cluster(),
                &ds,
            )
            .with_faults(Some(schedule)),
        );
        let requests = t.len();
        let (tx, rx) = std::sync::mpsc::channel();
        let run = std::thread::spawn(move || {
            let stats = ServingEngine::new(cfg).unwrap().run(&t);
            tx.send(stats).expect("the test waits for the stats");
        });
        let stats = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the run returns without stepping the clock to the join");
        run.join().unwrap();
        assert_eq!(stats.faults.joins, 1);
        assert_eq!(stats.completed, requests);
    }

    #[test]
    fn straggler_slows_service_without_breaking_determinism() {
        let ds = DatasetConfig::games();
        let trace = slo_trace(&ds, 2.0, 30.0, 2.0);
        let base = EngineConfig::for_system(
            SystemKind::Bat,
            ModelConfig::qwen2_1_5b(),
            small_cluster(),
            &ds,
        )
        .with_slo(Some(bat_sched::OverloadConfig));
        let healthy = ServingEngine::new(base.clone()).unwrap().run(&trace);
        let slowed_cfg = base.with_straggler(Some((1, 5.0)));
        let slowed = ServingEngine::new(slowed_cfg.clone()).unwrap().run(&trace);
        assert!(
            slowed.mean_latency_ms > healthy.mean_latency_ms,
            "a 5x straggler must slow half the fleet's service: {} vs {}",
            slowed.mean_latency_ms,
            healthy.mean_latency_ms
        );
        assert!(slowed.slo.conserved(), "{:?}", slowed.slo);
        let again = ServingEngine::new(slowed_cfg).unwrap().run(&trace);
        assert_eq!(slowed, again);
    }
}
