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
//!   prefixes. Cold hits are priced as a read of the quantized bytes at
//!   2 GB/s (NVMe-class), then promoted back into the hot region. The
//!   planner's pool is accounting only; a caller with real KV
//!   can store it quantized ([`TieredKvPool::demote_with_payload`]), but no
//!   caller attends over a cold payload yet (`bat-tensor`'s dequant-fused
//!   kernels are not wired to it), so such a caller still recomputes a
//!   cold-hit prefix. Item recomputes write back here too, so the brownout
//!   ladder's rung 2 can serve faulted items from local cold storage
//!   instead of recomputing them.
//! * [`PartitionController`] — re-divides the cold budget between the
//!   user and item entry classes every rebalance interval, moving a step
//!   of budget toward the class whose recent misses-per-budget-byte (the
//!   marginal hit-rate gain of growing it) is higher.
//!
//! The pool lives inside the shared `RequestPlanner` and advances on
//! *nominal* trace time (the planner's clock), never wall-clock, so the
//! simulator and the runtime take the same decisions at any thread count;
//! their `RunStats` digests, which cover the pool's [`TierStats`], pin
//! that. [`TieredKvPool::digest`] folds every decision in order, so two
//! pools fed the same calls agree on it whether or not they carry payloads.

use bat_kvcache::{CacheKey, LruIndex};
use bat_metrics::TierStats;
use bat_tensor::{ColBlock, QuantKind, QuantizedColBlock};
use bat_types::fnv::Fnv64;
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

/// Cold storage read bandwidth, bytes/sec (NVMe-class; well below the PCIe
/// bandwidth the hot tier loads at).
const COLD_READ_BANDWIDTH: f64 = 2.0e9;
/// Seconds of nominal time between adaptive rebalances.
const REBALANCE_INTERVAL_SECS: f64 = 5.0;
/// Fraction of the total budget shifted per rebalance.
const REBALANCE_STEP: f64 = 0.1;
/// Floor on each class's share under [`SplitPolicy::Adaptive`].
const MIN_SHARE: f64 = 0.1;

/// Configuration of the tiered pool.
#[derive(Debug, Clone)]
pub struct TiersConfig {
    /// Total cold-tier byte budget (shared by both classes).
    pub cold_capacity: Bytes,
    /// Storage format of cold entries.
    pub format: ColdFormat,
    /// Budget split policy between user and item entries.
    pub split: SplitPolicy,
}

impl TiersConfig {
    /// A pool with `cold_capacity` of NVMe-modelled storage (2 GB/s reads)
    /// and the defaults: f16 format, adaptive split.
    pub fn new(cold_capacity: Bytes) -> Self {
        TiersConfig {
            cold_capacity,
            format: ColdFormat::F16,
            split: SplitPolicy::Adaptive,
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

    /// Validates ranges; returns a message naming the first bad field.
    pub fn validate(&self) -> Result<(), String> {
        if let SplitPolicy::Static(s) = self.split {
            if !(0.0..=1.0).contains(&s) {
                return Err(format!("static user share {s} outside [0, 1]"));
            }
        }
        Ok(())
    }
}

/// Entry class a [`CacheKey`] belongs to — the axis the cold budget is
/// partitioned along.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryClass {
    /// User-prefix entries.
    User,
    /// Item-prefix entries.
    Item,
}

impl EntryClass {
    /// The class of a cache key.
    pub fn of(key: CacheKey) -> EntryClass {
        if key.is_user() {
            EntryClass::User
        } else {
            EntryClass::Item
        }
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
/// Every `REBALANCE_INTERVAL_SECS` (five seconds) of nominal time it
/// estimates each class's marginal hit-rate gain as its windowed cold
/// *missed bytes per budget byte* — the token-weighted rate at which extra
/// capacity would have converted misses, since the end-to-end hit rate
/// counts tokens, not lookups — and shifts a tenth of the total budget
/// (`REBALANCE_STEP`) toward the class with the higher estimate, keeping
/// each class at least a tenth (`MIN_SHARE`). Deterministic: driven
/// entirely by nominal time and integer outcome counts.
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

    fn record(&mut self, class: EntryClass, hit: bool, full_bytes: Bytes) {
        let w = &mut self.windows[class as usize];
        if hit {
            w.hits += 1;
        } else {
            w.missed_bytes += full_bytes.as_u64();
        }
    }

    /// Re-splits on schedule; returns the new user share if it changed.
    fn maybe_rebalance(&mut self, now: f64, budgets: [Bytes; 2]) -> Option<f64> {
        if self.next_rebalance_at == f64::NEG_INFINITY {
            self.next_rebalance_at = now + REBALANCE_INTERVAL_SECS;
            return None;
        }
        if now < self.next_rebalance_at {
            return None;
        }
        self.next_rebalance_at = now + REBALANCE_INTERVAL_SECS;
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
        let proposed =
            (self.user_share + direction * REBALANCE_STEP).clamp(MIN_SHARE, 1.0 - MIN_SHARE);
        if proposed == self.user_share {
            return None;
        }
        self.user_share = proposed;
        Some(proposed)
    }
}

/// One class's share of the cold tier: its entries, recency order and
/// budget.
#[derive(Debug, Clone)]
struct ColdRegion {
    map: HashMap<CacheKey, Bytes>,
    lru: LruIndex<CacheKey>,
    used: Bytes,
    budget: Bytes,
}

/// The `[user, item]` cold budgets for a user `share` of `total`.
fn split(total: Bytes, share: f64) -> [Bytes; 2] {
    let user = (total.as_u64() as f64 * share).round() as u64;
    [Bytes::new(user), Bytes::new(total.as_u64() - user)]
}

/// The tiered KV pool: the quantized cold tier behind the planner's hot
/// cache regions, with per-class budgets and an optional payload store.
///
/// The hot tier lives outside the pool (the planner's `UserCache` and item
/// placement); the pool mirrors only the sizes of hot residents, so that a
/// hot eviction can be demoted at the size it was admitted with. The cold
/// tier is two LRU regions, one per [`EntryClass`], each under its own
/// byte budget. On top sit the quantized byte charging, the partition
/// controller, and — when
/// [`TieredKvPool::demote_with_payload`] is used — real
/// [`QuantizedColBlock`] payloads, which a dequant-fused attend could read
/// without dequantizing (no caller does yet).
#[derive(Debug, Clone)]
pub struct TieredKvPool {
    cfg: TiersConfig,
    /// Indexed by `EntryClass as usize`.
    regions: [ColdRegion; 2],
    /// The ledger's counters; [`Self::stats`] fills in its byte snapshots.
    counters: TierStats,
    digest: Fnv64,
    controller: PartitionController,
    /// Quantized blocks of cold-resident entries (a subset of the regions'
    /// keys: every path that releases an entry drops its payload).
    payloads: HashMap<CacheKey, QuantizedColBlock>,
    /// Full (f32) sizes of entries resident in the *external* hot region,
    /// registered at admission — an evicted victim's size is no longer
    /// queryable from the hot cache by the time its demotion is planned.
    hot_sizes: HashMap<CacheKey, Bytes>,
    /// Running total of `hot_sizes` (the hot-occupancy snapshot).
    hot_registered: Bytes,
}

impl TieredKvPool {
    /// An empty pool behind an externally managed hot tier.
    pub fn new(cfg: TiersConfig) -> Self {
        let user_share = match cfg.split {
            SplitPolicy::Adaptive => 0.5,
            SplitPolicy::Static(s) => s,
            SplitPolicy::AllUser => 1.0,
        };
        let regions = split(cfg.cold_capacity, user_share).map(|budget| ColdRegion {
            map: HashMap::new(),
            lru: LruIndex::new(),
            used: Bytes::ZERO,
            budget,
        });
        TieredKvPool {
            regions,
            counters: TierStats::default(),
            digest: Fnv64::new(),
            controller: PartitionController::new(user_share),
            payloads: HashMap::new(),
            hot_sizes: HashMap::new(),
            hot_registered: Bytes::ZERO,
            cfg,
        }
    }

    /// FNV-1a over every decision the pool has taken, in order: two pools
    /// fed the same calls hold the same digest, and any divergence in a
    /// hit, miss, demotion, eviction or budget change shows up in it.
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Seconds to stream `bytes` from cold storage.
    pub fn cold_load_secs(&self, bytes: Bytes) -> f64 {
        bytes.as_u64() as f64 / COLD_READ_BANDWIDTH
    }

    /// Records a hit served by the external hot region, keeping the
    /// ledger's lookup stream complete.
    pub fn note_hot_hit(&mut self, key: CacheKey, bytes: Bytes, now: f64) {
        self.counters.hot_hits += 1;
        self.fold(8, key, 1, bytes);
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
    pub fn demote_hot(&mut self, key: CacheKey) -> bool {
        let Some(bytes) = self.hot_sizes.remove(&key) else {
            return false;
        };
        self.hot_registered -= bytes;
        self.demote_inner(key, bytes, None)
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
    /// cold-resident (quantized) size — the bytes a cold read streams, since
    /// the dequant-fused kernels can read the quantized planes directly.
    /// Counts a cold hit or a miss and feeds the partition controller;
    /// `full_bytes` is the uncompressed size the caller wanted, used to
    /// weight misses in the controller's marginal-gain windows.
    pub fn cold_lookup(&mut self, key: CacheKey, full_bytes: Bytes, now: f64) -> Option<Bytes> {
        let class = EntryClass::of(key);
        let region = &mut self.regions[class as usize];
        let served = region.map.get(&key).copied();
        match served {
            Some(bytes) => {
                region.lru.touch(key);
                self.counters.cold_hits += 1;
                self.fold(4, key, 1, bytes);
            }
            None => {
                self.counters.misses += 1;
                self.fold(4, key, 0, Bytes::ZERO);
            }
        }
        self.controller.record(class, served.is_some(), full_bytes);
        self.tick(now);
        served
    }

    /// Completes a cold hit's promotion into the external hot region: the
    /// cold copy (and its payload) is released. Call after the hot region
    /// actually admitted the entry; a rejected admission leaves the entry
    /// cold and this is simply not called.
    pub fn promote(&mut self, key: CacheKey) -> Option<Bytes> {
        let freed = self.release(key);
        if freed.is_some() {
            self.counters.promotions += 1;
        }
        self.fold(
            9,
            key,
            u8::from(freed.is_some()),
            freed.unwrap_or(Bytes::ZERO),
        );
        freed
    }

    /// Demotes an entry evicted from the hot region (or writes back a
    /// recomputed item) into the cold tier at its quantized size. Accounting
    /// only — the serve side uses [`Self::demote_with_payload`]. `_now`, the
    /// trace time, decides nothing: a demotion is admitted whenever its
    /// class region can hold it.
    pub fn demote(&mut self, key: CacheKey, full_bytes: Bytes, _now: f64) -> bool {
        self.demote_inner(key, full_bytes, None)
    }

    /// [`Self::demote`] carrying the real block: quantized into the
    /// pool's format and stored, so a later cold hit can attend over it
    /// directly. Decisions are identical to the accounting-only path.
    pub fn demote_with_payload(
        &mut self,
        key: CacheKey,
        full_bytes: Bytes,
        _now: f64,
        block: &ColBlock,
    ) -> bool {
        self.demote_inner(key, full_bytes, Some(block))
    }

    fn demote_inner(&mut self, key: CacheKey, full_bytes: Bytes, block: Option<&ColBlock>) -> bool {
        let bytes = self.cfg.format.cold_bytes(full_bytes);
        self.counters.demotions += 1;
        let class = EntryClass::of(key) as usize;
        let budget = self.regions[class].budget;
        if budget == Bytes::ZERO || bytes > budget {
            // Class region disabled (even for an empty entry) or too
            // small: the entry is dropped.
            self.counters.cold_evictions += 1;
            self.fold(6, key, 0, bytes);
            return false;
        }
        self.fold(6, key, 1, bytes);
        // A newer copy supersedes a resident one.
        self.release(key);
        self.evict_to_fit(class, bytes, 1);
        let region = &mut self.regions[class];
        region.map.insert(key, bytes);
        region.used += bytes;
        region.lru.touch(key);
        if let (Some(block), Some(kind)) = (block, self.cfg.format.quant_kind()) {
            self.payloads
                .insert(key, QuantizedColBlock::quantize(block, kind));
        }
        true
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
            self.counters.brownout_cold_serves += 1;
        }
        served
    }

    /// Advances the partition controller to `now`, applying a rebalance if
    /// one is due: shrinking a class evicts its LRU tail. Called implicitly
    /// by every lookup/hit note; exposed for idle-time advancement.
    pub fn tick(&mut self, now: f64) {
        if !matches!(self.cfg.split, SplitPolicy::Adaptive) {
            return;
        }
        let budgets = self.regions.each_ref().map(|r| r.budget);
        if let Some(share) = self.controller.maybe_rebalance(now, budgets) {
            let budgets = split(self.cfg.cold_capacity, share);
            self.digest.write_u8(5);
            for budget in budgets {
                self.digest.write_u64(budget.as_u64());
            }
            for (class, budget) in budgets.into_iter().enumerate() {
                self.regions[class].budget = budget;
                self.evict_to_fit(class, Bytes::ZERO, 2);
            }
        }
    }

    /// The pool's ledger in the shared metrics schema.
    pub fn stats(&self) -> TierStats {
        let [user, item] = &self.regions;
        TierStats {
            hot_occupancy_bytes: self.hot_registered.as_u64(),
            cold_occupancy_bytes: (user.used + item.used).as_u64(),
            user_budget_bytes: user.budget.as_u64(),
            item_budget_bytes: item.budget.as_u64(),
            ..self.counters
        }
    }

    /// Removes `key`'s cold copy and payload, returning its cold size.
    fn release(&mut self, key: CacheKey) -> Option<Bytes> {
        let region = &mut self.regions[EntryClass::of(key) as usize];
        let bytes = region.map.remove(&key)?;
        region.used -= bytes;
        region.lru.remove(&key);
        self.payloads.remove(&key);
        Some(bytes)
    }

    /// Evicts `class`'s least-recently-used entries until `incoming` more
    /// bytes fit its budget; each eviction is folded with `outcome` (1:
    /// room for a demotion, 2: a budget shrink).
    fn evict_to_fit(&mut self, class: usize, incoming: Bytes, outcome: u8) {
        while self.regions[class].used + incoming > self.regions[class].budget {
            let victim = self.regions[class]
                .lru
                .pop_lru()
                .expect("cold used > 0 implies an entry");
            let bytes = self.release(victim).expect("lru tracks entries");
            self.counters.cold_evictions += 1;
            self.fold(7, victim, outcome, bytes);
        }
    }

    fn fold(&mut self, op: u8, key: CacheKey, outcome: u8, bytes: Bytes) {
        let (class, id) = match key {
            CacheKey::User(u) => (0, u.as_u64()),
            CacheKey::Item(i) => (1, i.as_u64()),
        };
        self.digest.write_u8(op);
        self.digest.write_u8(class);
        self.digest.write_u64(id);
        self.digest.write_u8(outcome);
        self.digest.write_u64(bytes.as_u64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_types::{ItemId, UserId};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

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

    fn hit(p: &mut TieredKvPool, key: CacheKey, now: f64) -> bool {
        p.cold_lookup(key, Bytes::new(100), now).is_some()
    }

    /// What must hold after any call: each region's bytes are the sum of
    /// its entries and within its budget, recency tracks exactly the
    /// entries, payloads belong to resident entries, the budgets add up to
    /// the capacity, and the ledger is conserved.
    fn assert_accounting(p: &TieredKvPool) {
        for r in &p.regions {
            let sum: u64 = r.map.values().map(|b| b.as_u64()).sum();
            assert_eq!(sum, r.used.as_u64(), "cold accounting drift");
            assert!(r.used <= r.budget, "cold region over budget");
            assert_eq!(r.lru.len(), r.map.len(), "recency drift");
        }
        for key in p.payloads.keys() {
            assert!(
                p.regions[EntryClass::of(*key) as usize]
                    .map
                    .contains_key(key),
                "payload outlived its entry"
            );
        }
        let s = p.stats();
        assert_eq!(
            s.user_budget_bytes + s.item_budget_bytes,
            p.cfg.cold_capacity.as_u64()
        );
        assert_eq!(
            s.hot_occupancy_bytes,
            p.hot_sizes.values().map(|b| b.as_u64()).sum()
        );
        assert!(s.conserved(), "{s:?}");
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
        assert_eq!(p.stats().cold_evictions, 1, "the dropped demotion");
    }

    #[test]
    fn zero_cold_capacity_drops_every_demotion() {
        // An empty entry (a zero-token prefix) is dropped too: a pool with
        // no cold bytes is the flat cache for every input.
        let mut p = pool(0, SplitPolicy::Static(0.5), ColdFormat::F32);
        for (key, bytes) in [(ukey(1), 100), (ikey(1), 100), (ikey(2), 0)] {
            assert!(!p.demote(key, Bytes::new(bytes), 0.0));
            assert!(!hit(&mut p, key, 1.0), "no cold tier: eviction is final");
        }
        let s = p.stats();
        assert_eq!((s.demotions, s.cold_evictions), (3, 3));
        assert_eq!(s.cold_occupancy_bytes, 0);
        assert_accounting(&p);
    }

    #[test]
    fn item_demotions_respect_a_small_item_budget() {
        // 200 bytes for users, 50 for items: a 100-byte item is dropped, a
        // 50-byte one lands, and user demotions use their own region.
        let mut p = pool(250, SplitPolicy::Static(0.8), ColdFormat::F32);
        assert!(!p.demote(ikey(1), Bytes::new(100), 0.0));
        assert!(p.demote(ikey(2), Bytes::new(50), 0.0));
        assert!(p.demote(ukey(1), Bytes::new(100), 0.0));
        assert!(p.demote(ukey(2), Bytes::new(100), 0.0));
        assert!(!hit(&mut p, ikey(1), 1.0));
        assert!(p.cold_lookup(ikey(2), Bytes::new(50), 1.0).is_some());
        assert!(hit(&mut p, ukey(1), 1.0) && hit(&mut p, ukey(2), 1.0));
        assert_eq!(p.stats().cold_evictions, 1);
        assert_accounting(&p);
    }

    #[test]
    fn classes_keep_separate_cold_budgets() {
        let mut p = pool(200, SplitPolicy::Static(0.5), ColdFormat::F32);
        assert!(p.demote(ukey(1), Bytes::new(100), 0.0));
        assert!(p.demote(ikey(1), Bytes::new(100), 0.0));
        // The user region is full: user 2 evicts user 1, not the item.
        assert!(p.demote(ukey(2), Bytes::new(100), 0.0));
        assert!(!hit(&mut p, ukey(1), 1.0));
        assert!(hit(&mut p, ukey(2), 1.0));
        assert!(hit(&mut p, ikey(1), 1.0));
        assert_accounting(&p);
    }

    #[test]
    fn cold_tier_evicts_lru_when_full() {
        let mut p = pool(200, SplitPolicy::AllUser, ColdFormat::F32);
        p.demote(ukey(1), Bytes::new(100), 0.0);
        p.demote(ukey(2), Bytes::new(100), 0.0);
        // Demoting user 3 evicts user 1, the least recently used.
        p.demote(ukey(3), Bytes::new(100), 0.0);
        assert!(!hit(&mut p, ukey(1), 1.0));
        // A hit refreshes recency: user 2 now outlives user 3.
        assert!(hit(&mut p, ukey(2), 1.0));
        p.demote(ukey(4), Bytes::new(100), 1.0);
        assert!(!hit(&mut p, ukey(3), 2.0));
        assert!(hit(&mut p, ukey(2), 2.0));
        assert!(hit(&mut p, ukey(4), 2.0));
        assert_eq!(p.stats().cold_evictions, 2);
    }

    #[test]
    fn cold_lookup_serves_without_promoting() {
        let mut p = pool(1000, SplitPolicy::AllUser, ColdFormat::F32);
        p.demote(ukey(1), Bytes::new(100), 0.0);
        assert!(hit(&mut p, ukey(1), 1.0));
        assert!(hit(&mut p, ukey(1), 2.0), "still cold after a hit");
        let s = p.stats();
        assert_eq!(
            (s.cold_hits, s.promotions, s.cold_occupancy_bytes),
            (2, 0, 100)
        );
        // Promotion is the hot region's call, and releases the cold copy.
        assert_eq!(p.promote(ukey(1)), Some(Bytes::new(100)));
        assert!(!hit(&mut p, ukey(1), 3.0));
        let s = p.stats();
        assert_eq!((s.promotions, s.cold_occupancy_bytes, s.misses), (1, 0, 1));
    }

    #[test]
    fn static_split_divides_the_budget() {
        let s = pool(1000, SplitPolicy::Static(0.3), ColdFormat::F32).stats();
        assert_eq!((s.user_budget_bytes, s.item_budget_bytes), (300, 700));
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
        let s = p.stats();
        assert!(
            s.user_budget_bytes < 500,
            "item misses should pull budget from the user class, got {}",
            s.user_budget_bytes
        );
        assert_eq!(
            s.user_budget_bytes + s.item_budget_bytes,
            1000,
            "budget is conserved"
        );
    }

    #[test]
    fn budget_shrink_evicts_lru_entries_of_that_class() {
        let mut p = pool(1000, SplitPolicy::Adaptive, ColdFormat::F32);
        for u in 1..=5 {
            p.demote(ukey(u), Bytes::new(100), 0.0);
        }
        p.demote(ikey(1), Bytes::new(100), 0.0);
        // Arm the schedule, then a window of item misses moves 100 bytes of
        // budget to items: the user region (500 of 500) sheds user 1, its
        // least recently used entry, and the item region keeps its entry.
        p.tick(0.0);
        for t in 2..10 {
            p.cold_lookup(ikey(t), Bytes::new(100), 1.0);
        }
        p.tick(5.0);
        let s = p.stats();
        assert_eq!((s.user_budget_bytes, s.cold_evictions), (400, 1));
        assert!(!hit(&mut p, ukey(1), 6.0));
        assert!((2..=5).all(|u| hit(&mut p, ukey(u), 6.0)));
        assert!(hit(&mut p, ikey(1), 6.0));
        assert_accounting(&p);
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
        let share = p.controller.user_share;
        assert!(
            (share - 0.1).abs() < 1e-9,
            "clamped to MIN_SHARE, got {share}"
        );
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
        let q = p.payloads.get(&ukey(1)).expect("payload stored");
        let back = q.dequantize();
        for r in 0..2 {
            for (x, y) in block.plane(r).iter().zip(back.plane(r)) {
                assert!((x - y).abs() <= q.error_bound(r));
            }
        }
        // Evicting the entry (capacity pressure) drops the payload.
        assert!(p.demote_with_payload(ukey(2), Bytes::new(1000), 1.0, &block));
        assert!(p.demote_with_payload(ukey(3), Bytes::new(1000), 2.0, &block));
        assert!(
            !p.payloads.contains_key(&ukey(1)),
            "evicted with its accounting"
        );
        // Promotion releases the cold copy and payload.
        assert!(p.cold_lookup(ukey(3), Bytes::new(1000), 3.0).is_some());
        p.promote(ukey(3));
        assert!(!p.payloads.contains_key(&ukey(3)));
        assert_eq!(p.stats().cold_occupancy_bytes, 250, "only user 2 is left");
        assert_accounting(&p);
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
    fn digest_tracks_the_decision_sequence() {
        let drive = |ops: &[(u64, u64)]| {
            let mut p = pool(200, SplitPolicy::AllUser, ColdFormat::F32);
            for (i, &(u, b)) in ops.iter().enumerate() {
                p.demote(ukey(u), Bytes::new(b), i as f64);
                p.cold_lookup(ukey(u % 3), Bytes::new(b), i as f64);
            }
            p.digest()
        };
        let ops: Vec<(u64, u64)> = (0..20).map(|i| (i % 5, 40 + (i % 3) * 30)).collect();
        assert_eq!(drive(&ops), drive(&ops), "same sequence, same digest");
        let mut other = ops.clone();
        other[7].1 += 10; // one different demotion size
        assert_ne!(drive(&ops), drive(&other), "divergence shows up");
    }

    #[test]
    fn user_only_decisions_ignore_the_item_budget() {
        // Equal user budgets, different item budgets: a user-only key
        // stream takes the same decisions, digest included.
        let mut narrow = pool(500, SplitPolicy::Static(0.8), ColdFormat::F32);
        let mut wide = pool(1000, SplitPolicy::Static(0.4), ColdFormat::F32);
        for i in 0..60u64 {
            let (u, b, now) = (i % 11, Bytes::new(30 + (i % 7) * 25), i as f64);
            assert_eq!(narrow.demote(ukey(u), b, now), wide.demote(ukey(u), b, now));
            assert_eq!(
                narrow.cold_lookup(ukey(i % 5), b, now),
                wide.cold_lookup(ukey(i % 5), b, now)
            );
        }
        assert_eq!(narrow.digest(), wide.digest());
        let (n, w) = (narrow.stats(), wide.stats());
        assert_eq!(
            (n.cold_hits, n.misses, n.cold_evictions),
            (w.cold_hits, w.misses, w.cold_evictions)
        );
        assert_eq!(n.cold_occupancy_bytes, w.cold_occupancy_bytes);
    }

    #[test]
    fn accounting_holds_after_every_operation() {
        // Every public call, in random order, on a pool whose budgets move
        // (adaptive split over 40 s of nominal time, seven rebalances) and
        // whose demotions sometimes re-demote a resident entry.
        let mut block = ColBlock::new(2);
        block.push_col(&[1.0, -1.0]);
        for seed in 0..8 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let cfg = TiersConfig::new(Bytes::new(1200)).with_format(ColdFormat::Int8);
            let mut p = TieredKvPool::new(cfg);
            let mut lookups = 0;
            for step in 0..400 {
                let now = step as f64 * 0.1;
                let key = if rng.gen_bool(0.5) {
                    ukey(rng.gen_range(0..12))
                } else {
                    ikey(rng.gen_range(0..12))
                };
                let full = Bytes::new(rng.gen_range(1..9) * 100);
                match rng.gen_range(0..9) {
                    0 => drop(p.demote(key, full, now)),
                    1 => drop(p.demote_with_payload(key, full, now, &block)),
                    2 => {
                        p.cold_lookup(key, full, now);
                        lookups += 1;
                    }
                    // A promotion completes a cold hit the hot region took.
                    3 | 4 => {
                        if p.cold_lookup(key, full, now).is_some() {
                            p.promote(key);
                        }
                        lookups += 1;
                    }
                    5 => {
                        p.note_hot_hit(key, full, now);
                        lookups += 1;
                    }
                    6 => p.register_hot(key, full),
                    7 => drop(p.demote_hot(key)),
                    _ => {
                        p.brownout_cold_serve(key, full, now);
                        lookups += 1;
                    }
                }
                if step % 97 == 0 {
                    p.forget_hot_partition(step % 2, 2);
                }
                assert_accounting(&p);
                assert_eq!(p.stats().lookups(), lookups);
            }
            let s = p.stats();
            assert!(
                s.cold_hits > 0 && s.promotions > 0 && s.cold_evictions > 0,
                "{s:?}"
            );
        }
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
        for share in [-0.1, 1.5, f64::NAN] {
            let bad = ok.clone().with_split(SplitPolicy::Static(share));
            assert!(bad.validate().is_err(), "accepted static:{share}");
        }
    }
}
