//! The hierarchical tiered KV pool: a quantized cold tier behind the hot
//! user/item cache regions, with an online user/item budget partitioner.
//!
//! The paper keeps KV in flat host memory and defers cheap-but-slow
//! storage tiers to future work (§3.3.2); MTServe-style hierarchies show
//! that a DRAM→NVMe ladder is what makes generative-recommender KV reuse
//! economical at scale, and "One Pool, Two Caches" shows the user/item
//! division of a shared pool should be adapted online by marginal
//! hit-rate gain. This crate supplies both pieces:
//!
//! * [`TieredKvPool`] — the cold tier behind the planner's hot regions.
//!   Entries evicted from the hot user cache *demote* here instead of
//!   vanishing, stored **quantized** ([`ColdFormat`]: f16 halves the
//!   footprint, int8 quarters it), so a fixed byte budget holds 2–4× more
//!   prefixes. Cold hits are served at [`TiersConfig::cold_read_bandwidth`]
//!   and — on the serve side, where real payloads exist — attended
//!   *directly in quantized form* by `bat-tensor`'s dequant-fused kernels,
//!   then promoted back into the hot region. Item recomputes write back
//!   here too, so the brownout ladder's rung 2 can serve faulted items
//!   from local cold storage instead of recomputing them.
//! * [`PartitionController`] — re-divides the cold budget between the
//!   user and item entry classes every rebalance interval, moving a step
//!   of budget toward the class whose recent misses-per-budget-byte (the
//!   marginal hit-rate gain of growing it) is higher.
//!
//! Every decision the pool takes is routed through an embedded
//! [`bat_kvcache::TieredKvCache`] — the same accounting core the
//! simulation oracle uses — so the sim-side and serve-side pools agree on
//! every hit/miss/demotion decision byte-for-byte by construction, and
//! the agreement is checkable end-to-end by comparing
//! [`TieredKvPool::digest`]s. All state advances on *nominal* trace time
//! (the planner's clock), never wall-clock, preserving the repo's
//! bitwise sim/serve equivalence across thread counts.

use bat_kvcache::{CacheKey, EntryClass, FreqEstimator, TieredKvCache, TieredKvConfig};
use bat_metrics::TierStats;
use bat_tensor::{ColBlock, QuantKind, QuantizedColBlock};
use bat_types::Bytes;
use std::collections::HashMap;

/// Storage format of the cold tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColdFormat {
    /// Uncompressed f32 — the control arm: tiering without quantization.
    F32,
    /// IEEE-754 half precision: 2× capacity, ≤2⁻¹¹ relative error.
    F16,
    /// Per-plane affine int8: 4× capacity, error bounded by the plane
    /// value range (see `bat_tensor::quant`).
    Int8,
}

impl ColdFormat {
    /// The `bat-tensor` quantization kind, `None` for the f32 control.
    pub fn quant_kind(self) -> Option<QuantKind> {
        match self {
            ColdFormat::F32 => None,
            ColdFormat::F16 => Some(QuantKind::F16),
            ColdFormat::Int8 => Some(QuantKind::Int8),
        }
    }

    /// Cold-resident bytes for an entry whose hot (f32) footprint is
    /// `full`. Integer ceiling division keeps the charge deterministic.
    pub fn cold_bytes(self, full: Bytes) -> Bytes {
        let b = full.as_u64();
        Bytes::new(match self {
            ColdFormat::F32 => b,
            ColdFormat::F16 => b.div_ceil(2),
            ColdFormat::Int8 => b.div_ceil(4),
        })
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ColdFormat::F32 => "f32",
            ColdFormat::F16 => "f16",
            ColdFormat::Int8 => "int8",
        }
    }
}

/// How the cold budget is divided between user and item entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitPolicy {
    /// Online marginal-gain rebalancing (the tentpole policy).
    Adaptive,
    /// Fixed user share in `[0, 1]` (0.5 = the static 50/50 baseline).
    Static(f64),
    /// Entire cold budget to user entries: item KV bypasses the cold
    /// tier.
    AllUser,
}

/// Configuration of the tiered pool.
#[derive(Debug, Clone)]
pub struct TiersConfig {
    /// Total cold-tier byte budget (shared by both classes).
    pub cold_capacity: Bytes,
    /// Cold storage read bandwidth, bytes/sec (NVMe-class; well below the
    /// PCIe bandwidth the hot tier loads at).
    pub cold_read_bandwidth: f64,
    /// Storage format of cold entries.
    pub format: ColdFormat,
    /// Budget split policy between user and item entries.
    pub split: SplitPolicy,
    /// Seconds between adaptive rebalances.
    pub rebalance_interval_secs: f64,
    /// Fraction of the total budget shifted per rebalance.
    pub rebalance_step: f64,
    /// Floor on each class's share under [`SplitPolicy::Adaptive`].
    pub min_share: f64,
    /// Hotness admission threshold for demotions: entries accessed fewer
    /// than this many times per window are dropped instead of demoted
    /// (0.0 admits everything).
    pub cold_admit_min_per_window: f64,
    /// Window of the pool's access-frequency estimator, seconds.
    pub freq_window_secs: f64,
}

impl TiersConfig {
    /// A pool with `cold_capacity` of NVMe-modelled storage and the
    /// defaults: f16 format, adaptive split, 2 GB/s reads.
    pub fn new(cold_capacity: Bytes) -> Self {
        TiersConfig {
            cold_capacity,
            cold_read_bandwidth: 2.0e9,
            format: ColdFormat::F16,
            split: SplitPolicy::Adaptive,
            rebalance_interval_secs: 5.0,
            rebalance_step: 0.1,
            min_share: 0.1,
            cold_admit_min_per_window: 0.0,
            freq_window_secs: 60.0,
        }
    }

    /// Sets the cold storage format.
    pub fn with_format(mut self, format: ColdFormat) -> Self {
        self.format = format;
        self
    }

    /// Sets the budget split policy.
    pub fn with_split(mut self, split: SplitPolicy) -> Self {
        self.split = split;
        self
    }

    /// Validates ranges; returns a message for the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.cold_read_bandwidth.is_finite() && self.cold_read_bandwidth > 0.0) {
            return Err("cold_read_bandwidth must be finite and positive".into());
        }
        if let SplitPolicy::Static(s) = self.split {
            if !(0.0..=1.0).contains(&s) {
                return Err(format!("static user share {s} outside [0, 1]"));
            }
        }
        if !(0.0..0.5).contains(&self.min_share) {
            return Err(format!("min_share {} outside [0, 0.5)", self.min_share));
        }
        if !(self.rebalance_step.is_finite() && self.rebalance_step > 0.0) {
            return Err("rebalance_step must be finite and positive".into());
        }
        if !(self.rebalance_interval_secs.is_finite() && self.rebalance_interval_secs > 0.0) {
            return Err("rebalance_interval_secs must be finite and positive".into());
        }
        Ok(())
    }
}

/// Windowed per-class cold-lookup outcomes since the last rebalance.
/// Misses are weighted by the full (uncompressed) bytes the lookup wanted:
/// the end-to-end hit rate is token-weighted, so a missed 30 MB user
/// prefix is worth ~100 missed 0.3 MB item blocks of budget.
#[derive(Debug, Clone, Copy, Default)]
struct ClassWindow {
    hits: u64,
    missed_bytes: u64,
}

/// The online user/item budget partitioner ("One Pool, Two Caches").
///
/// Every [`TiersConfig::rebalance_interval_secs`] of nominal time it
/// estimates each class's marginal hit-rate gain as its windowed cold
/// *missed bytes per budget byte* — the token-weighted rate at which
/// extra capacity would have converted misses, since the end-to-end hit
/// rate counts tokens, not lookups — and shifts [`TiersConfig::rebalance_step`] of the
/// total budget toward the class with the higher estimate, clamped to
/// [`TiersConfig::min_share`]. Deterministic: driven entirely by nominal
/// time and integer outcome counts.
#[derive(Debug, Clone)]
pub struct PartitionController {
    user_share: f64,
    next_rebalance_at: f64,
    windows: [ClassWindow; 2],
}

impl PartitionController {
    fn new(initial_user_share: f64) -> Self {
        PartitionController {
            user_share: initial_user_share,
            next_rebalance_at: f64::NEG_INFINITY,
            windows: [ClassWindow::default(); 2],
        }
    }

    /// The current user share of the cold budget.
    pub fn user_share(&self) -> f64 {
        self.user_share
    }

    fn record(&mut self, class: EntryClass, hit: bool, full_bytes: Bytes) {
        let w = &mut self.windows[class as usize];
        if hit {
            w.hits += 1;
        } else {
            w.missed_bytes += full_bytes.as_u64();
        }
    }

    /// Re-splits on schedule; returns the new user share if it changed.
    fn maybe_rebalance(&mut self, now: f64, cfg: &TiersConfig, budgets: [Bytes; 2]) -> Option<f64> {
        if self.next_rebalance_at == f64::NEG_INFINITY {
            self.next_rebalance_at = now + cfg.rebalance_interval_secs;
            return None;
        }
        if now < self.next_rebalance_at {
            return None;
        }
        self.next_rebalance_at = now + cfg.rebalance_interval_secs;
        let gain = |w: ClassWindow, budget: Bytes| -> f64 {
            // Missed bytes per budget byte: how starved the class is,
            // weighted by how much reuse each miss forfeited. A class
            // with no budget but any misses is maximally starved.
            w.missed_bytes as f64 / budget.as_u64().max(1) as f64
        };
        let user_gain = gain(self.windows[0], budgets[0]);
        let item_gain = gain(self.windows[1], budgets[1]);
        self.windows = [ClassWindow::default(); 2];
        if user_gain == item_gain {
            return None;
        }
        let direction = if user_gain > item_gain { 1.0 } else { -1.0 };
        let proposed = (self.user_share + direction * cfg.rebalance_step)
            .clamp(cfg.min_share, 1.0 - cfg.min_share);
        if proposed == self.user_share {
            return None;
        }
        self.user_share = proposed;
        Some(proposed)
    }
}

/// The tiered KV pool: the quantized cold tier behind the planner's hot
/// cache regions, with per-class budgets and an optional payload store.
///
/// Accounting (which entries are where, who gets evicted) lives in the
/// embedded [`TieredKvCache`]; this type layers the quantized byte
/// charging, the hotness-gated cold admission, the partition controller,
/// and — when [`TieredKvPool::demote_with_payload`] is used — real
/// [`QuantizedColBlock`] payloads that cold hits can attend over without
/// dequantizing.
#[derive(Debug, Clone)]
pub struct TieredKvPool {
    cfg: TiersConfig,
    core: TieredKvCache,
    hotness: FreqEstimator<CacheKey>,
    controller: PartitionController,
    brownout_cold_serves: u64,
    payloads: HashMap<CacheKey, QuantizedColBlock>,
    /// Full (f32) sizes of entries resident in the *external* hot region,
    /// registered at admission — an evicted victim's size is no longer
    /// queryable from the hot cache by the time its demotion is planned.
    hot_sizes: HashMap<CacheKey, Bytes>,
    /// Running total of `hot_sizes` (the hot-occupancy snapshot).
    hot_registered: Bytes,
}

impl TieredKvPool {
    /// A pool whose hot tier is managed externally (the planner's
    /// `UserCache` / item placement): only the cold side of the embedded
    /// core is used.
    pub fn new(cfg: TiersConfig) -> Self {
        let user_share = match cfg.split {
            SplitPolicy::Adaptive => 0.5,
            SplitPolicy::Static(s) => s,
            SplitPolicy::AllUser => 1.0,
        };
        let total = cfg.cold_capacity.as_u64();
        let user_budget = (total as f64 * user_share).round() as u64;
        let core = TieredKvCache::new(TieredKvConfig {
            // The hot tier lives outside the pool; the core's DRAM side
            // stays empty and only its cold regions are exercised.
            dram_capacity: Bytes::ZERO,
            cold_user_budget: Bytes::new(user_budget),
            cold_item_budget: Bytes::new(total - user_budget),
        });
        TieredKvPool {
            hotness: FreqEstimator::new(cfg.freq_window_secs),
            controller: PartitionController::new(user_share),
            brownout_cold_serves: 0,
            payloads: HashMap::new(),
            hot_sizes: HashMap::new(),
            hot_registered: Bytes::ZERO,
            core,
            cfg,
        }
    }

    /// The pool's configuration.
    pub fn config(&self) -> &TiersConfig {
        &self.cfg
    }

    /// The embedded decision core (tests, invariant checks).
    pub fn core(&self) -> &TieredKvCache {
        &self.core
    }

    /// The decision digest: FNV-1a over every decision the pool has taken.
    pub fn digest(&self) -> u64 {
        self.core.digest()
    }

    /// The partition controller (current split inspection).
    pub fn controller(&self) -> &PartitionController {
        &self.controller
    }

    /// Cold-resident bytes for a hot footprint of `full` under the pool's
    /// format.
    pub fn cold_bytes(&self, full: Bytes) -> Bytes {
        self.cfg.format.cold_bytes(full)
    }

    /// Seconds to stream `bytes` from cold storage.
    pub fn cold_load_secs(&self, bytes: Bytes) -> f64 {
        bytes.as_u64() as f64 / self.cfg.cold_read_bandwidth
    }

    /// Records a hit served by the external hot region, keeping the
    /// ledger's lookup stream complete and the key's hotness fresh.
    pub fn note_hot_hit(&mut self, key: CacheKey, bytes: Bytes, now: f64) {
        self.hotness.record(key, now);
        self.core.note_hot_hit(key, bytes);
        self.tick(now);
    }

    /// Registers an entry the external hot region just admitted, with its
    /// full resident size — the size [`Self::demote_hot`] will charge when
    /// the hot region later evicts it.
    pub fn register_hot(&mut self, key: CacheKey, bytes: Bytes) {
        if let Some(old) = self.hot_sizes.insert(key, bytes) {
            self.hot_registered -= old;
        }
        self.hot_registered += bytes;
    }

    /// Demotes a victim the external hot region evicted, at the size it
    /// registered with. Unregistered victims are ignored (the hot region
    /// predates the pool, or the entry was invalidated).
    pub fn demote_hot(&mut self, key: CacheKey, now: f64) -> bool {
        match self.hot_sizes.remove(&key) {
            Some(bytes) => {
                self.hot_registered -= bytes;
                self.demote_inner(key, bytes, now, None)
            }
            None => false,
        }
    }

    /// Drops hot-size registrations for user entries of a crashed worker's
    /// partition (`user % num_workers == worker`), mirroring the hot
    /// region's fault invalidation. The cold tier is durable local storage
    /// and keeps its copies.
    pub fn forget_hot_partition(&mut self, worker: usize, num_workers: usize) {
        let mut freed = Bytes::ZERO;
        self.hot_sizes.retain(|key, bytes| {
            let dead = key
                .as_user()
                .is_some_and(|u| u.as_u64() % num_workers as u64 == worker as u64);
            if dead {
                freed += *bytes;
            }
            !dead
        });
        self.hot_registered -= freed;
    }

    /// Looks `key` up in the cold tier without promoting it, returning its
    /// cold-resident (quantized) size — the bytes actually streamed, since
    /// the dequant-fused kernels read the quantized planes directly.
    /// Counts a cold hit or a miss and feeds the partition controller;
    /// `full_bytes` is the uncompressed size the caller wanted, used to
    /// weight misses in the controller's marginal-gain windows.
    pub fn cold_lookup(&mut self, key: CacheKey, full_bytes: Bytes, now: f64) -> Option<Bytes> {
        self.hotness.record(key, now);
        let served = self.core.cold_serve(key);
        self.controller
            .record(EntryClass::of(key), served.is_some(), full_bytes);
        self.tick(now);
        served
    }

    /// Completes a cold hit's promotion into the external hot region: the
    /// cold copy (and its payload) is released. Call after the hot region
    /// actually admitted the entry; a rejected admission leaves the entry
    /// cold and this is simply not called.
    pub fn promote(&mut self, key: CacheKey) -> Option<Bytes> {
        let freed = self.core.promote_external(key);
        if freed.is_some() {
            self.payloads.remove(&key);
        }
        freed
    }

    /// Demotes an entry evicted from the hot region (or writes back a
    /// recomputed item) into the cold tier at its quantized size, subject
    /// to the hotness admission gate. Accounting only — the serve side
    /// uses [`Self::demote_with_payload`].
    pub fn demote(&mut self, key: CacheKey, full_bytes: Bytes, now: f64) -> bool {
        self.demote_inner(key, full_bytes, now, None)
    }

    /// [`Self::demote`] carrying the real block: quantized into the
    /// pool's format and stored, so a later cold hit can attend over it
    /// directly. Decisions are identical to the accounting-only path.
    pub fn demote_with_payload(
        &mut self,
        key: CacheKey,
        full_bytes: Bytes,
        now: f64,
        block: &ColBlock,
    ) -> bool {
        self.demote_inner(key, full_bytes, now, Some(block))
    }

    fn demote_inner(
        &mut self,
        key: CacheKey,
        full_bytes: Bytes,
        now: f64,
        block: Option<&ColBlock>,
    ) -> bool {
        if self.cfg.cold_admit_min_per_window > 0.0
            && self.hotness.per_window(&key, now) < self.cfg.cold_admit_min_per_window
        {
            self.core.drop_demotion(key, self.cold_bytes(full_bytes));
            return false;
        }
        let (entered, victims) = self.core.demote_external(key, self.cold_bytes(full_bytes));
        for victim in victims {
            self.payloads.remove(&victim);
        }
        if entered {
            if let (Some(block), Some(kind)) = (block, self.cfg.format.quant_kind()) {
                self.payloads
                    .insert(key, QuantizedColBlock::quantize(block, kind));
            }
        } else {
            self.payloads.remove(&key);
        }
        entered
    }

    /// The stored quantized payload of a cold-resident entry, for the
    /// dequant-fused attend path. `None` for accounting-only entries, the
    /// f32 control format, or keys no longer cold-resident.
    pub fn payload(&self, key: CacheKey) -> Option<&QuantizedColBlock> {
        self.core.cold_peek(key)?;
        self.payloads.get(&key)
    }

    /// Brownout rung-2 serve: the bytes of a cold-resident entry, served
    /// without promotion, counted separately so reports can show how often
    /// the ladder fell back to cold storage instead of recomputing.
    pub fn brownout_cold_serve(
        &mut self,
        key: CacheKey,
        full_bytes: Bytes,
        now: f64,
    ) -> Option<Bytes> {
        let served = self.cold_lookup(key, full_bytes, now);
        if served.is_some() {
            self.brownout_cold_serves += 1;
        }
        served
    }

    /// Advances the partition controller to `now`, applying a rebalance if
    /// one is due. Called implicitly by every lookup/hit note; exposed for
    /// idle-time advancement.
    pub fn tick(&mut self, now: f64) {
        if !matches!(self.cfg.split, SplitPolicy::Adaptive) {
            return;
        }
        let budgets = [
            self.core.cold_budget(EntryClass::User),
            self.core.cold_budget(EntryClass::Item),
        ];
        if let Some(share) = self.controller.maybe_rebalance(now, &self.cfg, budgets) {
            let total = self.cfg.cold_capacity.as_u64();
            let user = (total as f64 * share).round() as u64;
            let victims = self
                .core
                .set_cold_budgets(Bytes::new(user), Bytes::new(total - user));
            for victim in victims {
                self.payloads.remove(&victim);
            }
        }
    }

    /// The pool's ledger in the shared metrics schema.
    pub fn stats(&self) -> TierStats {
        let c = self.core.counters();
        TierStats {
            hot_hits: c.hot_hits,
            cold_hits: c.cold_hits,
            misses: c.misses,
            promotions: c.promotions,
            demotions: c.demotions,
            cold_evictions: c.cold_evictions,
            brownout_cold_serves: self.brownout_cold_serves,
            // In planner mode the hot tier is external (registered sizes);
            // in standalone mode it is the core's DRAM side. Exactly one
            // of the two is nonzero.
            hot_occupancy_bytes: (self.core.dram_used() + self.hot_registered).as_u64(),
            cold_occupancy_bytes: self.core.cold_used().as_u64(),
            user_budget_bytes: self.core.cold_budget(EntryClass::User).as_u64(),
            item_budget_bytes: self.core.cold_budget(EntryClass::Item).as_u64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_types::{ItemId, UserId};

    fn ukey(i: u64) -> CacheKey {
        CacheKey::User(UserId::new(i))
    }

    fn ikey(i: u64) -> CacheKey {
        CacheKey::Item(ItemId::new(i))
    }

    fn pool(cold: u64, split: SplitPolicy, format: ColdFormat) -> TieredKvPool {
        TieredKvPool::new(
            TiersConfig::new(Bytes::new(cold))
                .with_split(split)
                .with_format(format),
        )
    }

    #[test]
    fn quantized_formats_charge_less_cold_space() {
        let full = Bytes::new(1000);
        assert_eq!(ColdFormat::F32.cold_bytes(full), Bytes::new(1000));
        assert_eq!(ColdFormat::F16.cold_bytes(full), Bytes::new(500));
        assert_eq!(ColdFormat::Int8.cold_bytes(full), Bytes::new(250));
    }

    #[test]
    fn quantization_raises_effective_cold_capacity() {
        // Four 1000-byte entries into a 2000-byte cold tier: f32 keeps 2,
        // int8 keeps all 4.
        for (format, expect_hits) in [(ColdFormat::F32, 2), (ColdFormat::Int8, 4)] {
            let mut p = pool(2000, SplitPolicy::AllUser, format);
            for i in 0..4 {
                p.demote(ukey(i), Bytes::new(1000), 0.0);
            }
            let hits = (0..4)
                .filter(|&i| p.cold_lookup(ukey(i), Bytes::new(1000), 1.0).is_some())
                .count();
            assert_eq!(hits, expect_hits, "{format:?}");
        }
    }

    #[test]
    fn all_user_split_drops_item_demotions() {
        let mut p = pool(1000, SplitPolicy::AllUser, ColdFormat::F32);
        assert!(!p.demote(ikey(1), Bytes::new(100), 0.0));
        assert!(p.demote(ukey(1), Bytes::new(100), 0.0));
        assert_eq!(p.cold_lookup(ikey(1), Bytes::new(100), 1.0), None);
        assert!(p.cold_lookup(ukey(1), Bytes::new(100), 1.0).is_some());
    }

    #[test]
    fn static_split_divides_the_budget() {
        let p = pool(1000, SplitPolicy::Static(0.3), ColdFormat::F32);
        assert_eq!(p.core().cold_budget(EntryClass::User), Bytes::new(300));
        assert_eq!(p.core().cold_budget(EntryClass::Item), Bytes::new(700));
    }

    #[test]
    fn adaptive_split_moves_budget_toward_the_starved_class() {
        let mut p = pool(1000, SplitPolicy::Adaptive, ColdFormat::F32);
        // Window 1 (arms the schedule), then a window of pure item misses.
        p.cold_lookup(ikey(1), Bytes::new(100), 0.0);
        for t in 0..20 {
            p.cold_lookup(ikey(t), Bytes::new(100), 6.0 + t as f64 * 0.01);
        }
        // Crossing the next interval boundary applies the rebalance.
        p.tick(12.0);
        let user_budget = p.core().cold_budget(EntryClass::User);
        assert!(
            user_budget < Bytes::new(500),
            "item misses should pull budget from the user class, got {user_budget}"
        );
        assert_eq!(
            user_budget + p.core().cold_budget(EntryClass::Item),
            Bytes::new(1000),
            "budget is conserved"
        );
    }

    #[test]
    fn adaptive_split_respects_the_min_share_floor() {
        let mut p = pool(1000, SplitPolicy::Adaptive, ColdFormat::F32);
        let mut now = 0.0;
        for round in 0..20 {
            for t in 0..10 {
                p.cold_lookup(ikey(round * 10 + t), Bytes::new(100), now + t as f64 * 0.01);
            }
            now += 6.0;
            p.tick(now);
        }
        let share = p.controller().user_share();
        assert!(
            (share - 0.1).abs() < 1e-9,
            "clamped to min_share, got {share}"
        );
    }

    #[test]
    fn hotness_gate_drops_cold_demotions() {
        let mut cfg = TiersConfig::new(Bytes::new(1000)).with_format(ColdFormat::F32);
        cfg.cold_admit_min_per_window = 2.0;
        cfg.split = SplitPolicy::AllUser;
        let mut p = TieredKvPool::new(cfg);
        // One access: below the 2-per-window threshold → dropped.
        p.note_hot_hit(ukey(1), Bytes::new(100), 0.0);
        assert!(!p.demote(ukey(1), Bytes::new(100), 0.1));
        // Three rapid accesses: above threshold → admitted.
        for t in 0..3 {
            p.note_hot_hit(ukey(2), Bytes::new(100), 0.2 + t as f64 * 0.1);
        }
        assert!(p.demote(ukey(2), Bytes::new(100), 0.6));
        let stats = p.stats();
        assert_eq!(stats.demotions, 2);
        assert_eq!(stats.cold_evictions, 1);
    }

    #[test]
    fn payloads_follow_the_accounting_decisions() {
        // 1000 full bytes charge 250 cold bytes under int8; a 600-byte
        // cold tier holds two entries and evicts the LRU on the third.
        let mut p = pool(600, SplitPolicy::AllUser, ColdFormat::Int8);
        let mut block = ColBlock::new(2);
        for c in 0..8 {
            block.push_col(&[c as f32, -(c as f32)]);
        }
        assert!(p.demote_with_payload(ukey(1), Bytes::new(1000), 0.0, &block));
        let q = p.payload(ukey(1)).expect("payload stored");
        let back = q.dequantize();
        for r in 0..2 {
            for (x, y) in block.plane(r).iter().zip(back.plane(r)) {
                assert!((x - y).abs() <= q.error_bound(r));
            }
        }
        // Evicting the entry (capacity pressure) drops the payload.
        assert!(p.demote_with_payload(ukey(2), Bytes::new(1000), 1.0, &block));
        assert!(p.demote_with_payload(ukey(3), Bytes::new(1000), 2.0, &block));
        assert!(p.payload(ukey(1)).is_none(), "evicted with its accounting");
        // Promotion releases the cold copy and payload.
        assert!(p.cold_lookup(ukey(3), Bytes::new(1000), 3.0).is_some());
        p.promote(ukey(3));
        assert!(p.payload(ukey(3)).is_none());
        assert_eq!(p.core().cold_peek(ukey(3)), None);
    }

    #[test]
    fn accounting_only_and_payload_pools_share_one_digest() {
        let mut block = ColBlock::new(2);
        for c in 0..4 {
            block.push_col(&[c as f32, 0.5]);
        }
        let mut a = pool(2000, SplitPolicy::Static(0.5), ColdFormat::F16);
        let mut b = pool(2000, SplitPolicy::Static(0.5), ColdFormat::F16);
        for i in 0..30u64 {
            let key = if i % 3 == 0 { ikey(i % 7) } else { ukey(i % 5) };
            let now = i as f64 * 0.25;
            a.demote(key, Bytes::new(300), now);
            b.demote_with_payload(key, Bytes::new(300), now, &block);
            assert_eq!(
                a.cold_lookup(ukey(i % 4), Bytes::new(300), now + 0.1),
                b.cold_lookup(ukey(i % 4), Bytes::new(300), now + 0.1)
            );
        }
        assert_eq!(a.digest(), b.digest(), "payloads must not change decisions");
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn brownout_cold_serves_are_counted_separately() {
        let mut p = pool(1000, SplitPolicy::Static(0.5), ColdFormat::F16);
        p.demote(ikey(1), Bytes::new(400), 0.0);
        assert!(p
            .brownout_cold_serve(ikey(1), Bytes::new(400), 1.0)
            .is_some());
        assert_eq!(p.brownout_cold_serve(ikey(2), Bytes::new(400), 1.1), None);
        let stats = p.stats();
        assert_eq!(stats.brownout_cold_serves, 1);
        assert_eq!(stats.cold_hits, 1);
        assert!(stats.conserved());
    }

    #[test]
    fn config_validation_rejects_bad_ranges() {
        let ok = TiersConfig::new(Bytes::new(1000));
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.split = SplitPolicy::Static(1.5);
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.min_share = 0.5;
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.cold_read_bandwidth = 0.0;
        assert!(bad.validate().is_err());
    }
}
