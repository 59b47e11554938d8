//! Two-tier KV cache accounting: DRAM + cold storage (§3.3.2 footnote).
//!
//! The paper stores KV caches in host memory and notes that "utilizing
//! cheap local/remote storage can achieve a larger cost-effective storage
//! space \[but\] might incur harmful access latency... we leave this for our
//! future exploration." This module explores it: a DRAM tier backed by a
//! larger, slower cold tier (NVMe or remote memory). Evictions from DRAM
//! *demote* to the cold tier instead of vanishing; cold hits *promote* back
//! (possibly demoting someone else), so the hierarchy behaves like a
//! classic inclusive-on-demotion two-level cache.
//!
//! [`TieredKvCache`] is the decision core: it is keyed by [`CacheKey`], so
//! user **and** item entries share one pool and one bookkeeping discipline,
//! with the cold tier's budget split per entry class so a partitioning
//! controller can re-divide it online (a zero item budget gives a
//! user-only hierarchy).
//! Every decision — hit, miss, admit, demotion, eviction, budget change —
//! is folded into an FNV-1a [`TieredKvCache::digest`]; the serve-side
//! `TieredKvPool` (crate `bat-tiers`) embeds this exact type for its
//! decisions, so oracle-vs-pool agreement is byte-for-byte by construction
//! and checked end-to-end by comparing digests.
//!
//! The cold tier trades capacity for load latency — whether the trade wins
//! depends on the workload's reuse-distance distribution, which is exactly
//! what the `ablation_tiers` harness measures.

use crate::lru::LruIndex;
use crate::meta::CacheKey;
use bat_types::Bytes;
use std::collections::HashMap;

/// Which tier served a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierHit {
    /// Served from DRAM: PCIe-speed load.
    Dram,
    /// Served from the cold tier (and promoted): slow load.
    Cold,
}

/// Entry class a [`CacheKey`] belongs to — the axis the cold tier's budget
/// is partitioned along.
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

    fn idx(self) -> usize {
        match self {
            EntryClass::User => 0,
            EntryClass::Item => 1,
        }
    }
}

/// Configuration of the generalized two-tier cache.
#[derive(Debug, Clone)]
pub struct TieredKvConfig {
    /// DRAM tier capacity (shared by both classes, plain LRU).
    pub dram_capacity: Bytes,
    /// Cold-tier budget for user entries.
    pub cold_user_budget: Bytes,
    /// Cold-tier budget for item entries.
    pub cold_item_budget: Bytes,
}

/// Cumulative decision counters of a [`TieredKvCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Lookups served by DRAM.
    pub hot_hits: u64,
    /// Lookups served by the cold tier (promoting or not).
    pub cold_hits: u64,
    /// Lookups served by neither tier.
    pub misses: u64,
    /// Cold hits promoted back into DRAM.
    pub promotions: u64,
    /// DRAM victims demoted toward the cold tier.
    pub demotions: u64,
    /// Entries that left the cold tier without being promoted: LRU
    /// evictions, budget-shrink evictions, and demotions dropped because
    /// they exceed their class budget.
    pub cold_evictions: u64,
}

// FNV-1a via the shared `bat_types::fnv` module — the same digest family
// `RunStats::digest` uses: cheap, stable, and order-sensitive, so two
// caches agree iff their decision *sequences* agree, not just their totals.
use bat_types::fnv::Fnv64;

/// One cold-tier class region: its own map, recency order, and budget.
#[derive(Debug, Clone)]
struct ColdClass {
    map: HashMap<CacheKey, Bytes>,
    lru: LruIndex<CacheKey>,
    used: Bytes,
    budget: Bytes,
}

impl ColdClass {
    fn new(budget: Bytes) -> Self {
        ColdClass {
            map: HashMap::new(),
            lru: LruIndex::new(),
            used: Bytes::ZERO,
            budget,
        }
    }
}

/// A two-tier LRU cache over [`CacheKey`]s with a class-partitioned cold
/// tier and a decision digest.
///
/// This is accounting only — it tracks entry sizes and replacement
/// decisions, not payloads. The serve-side pool stores real quantized
/// blocks alongside, but routes **every** decision through an embedded
/// instance of this type, which is what makes the simulation oracle and
/// the real pool bitwise-comparable.
#[derive(Debug, Clone)]
pub struct TieredKvCache {
    dram_capacity: Bytes,
    dram: HashMap<CacheKey, Bytes>,
    dram_lru: LruIndex<CacheKey>,
    dram_used: Bytes,
    cold: [ColdClass; 2],
    counters: TierCounters,
    digest: Fnv64,
}

impl TieredKvCache {
    /// Creates an empty cache.
    pub fn new(cfg: TieredKvConfig) -> Self {
        TieredKvCache {
            dram_capacity: cfg.dram_capacity,
            dram: HashMap::new(),
            dram_lru: LruIndex::new(),
            dram_used: Bytes::ZERO,
            cold: [
                ColdClass::new(cfg.cold_user_budget),
                ColdClass::new(cfg.cold_item_budget),
            ],
            counters: TierCounters::default(),
            digest: Fnv64::new(),
        }
    }

    /// Bytes resident in DRAM.
    pub fn dram_used(&self) -> Bytes {
        self.dram_used
    }

    /// Bytes resident in the cold tier, both classes.
    pub fn cold_used(&self) -> Bytes {
        self.cold[0].used + self.cold[1].used
    }

    /// Bytes resident in one cold-tier class.
    pub fn cold_used_class(&self, class: EntryClass) -> Bytes {
        self.cold[class.idx()].used
    }

    /// Current cold-tier budget of one class.
    pub fn cold_budget(&self, class: EntryClass) -> Bytes {
        self.cold[class.idx()].budget
    }

    /// Entries across both tiers.
    pub fn len(&self) -> usize {
        self.dram.len() + self.cold[0].map.len() + self.cold[1].map.len()
    }

    /// Whether both tiers are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The decision counters so far.
    pub fn counters(&self) -> TierCounters {
        self.counters
    }

    /// FNV-1a digest of every decision taken so far. Two caches fed the
    /// same operation sequence hold the same digest; any divergence in a
    /// hit/miss/admit/demotion/eviction decision changes it.
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Whether `key` is resident in DRAM (no recency or counter effect).
    pub fn hot_contains(&self, key: CacheKey) -> bool {
        self.dram.contains_key(&key)
    }

    /// The cold-resident size of `key`, if any (no recency or counter
    /// effect) — the brownout ladder's "could we serve this from cold?"
    /// probe.
    pub fn cold_peek(&self, key: CacheKey) -> Option<Bytes> {
        self.cold[EntryClass::of(key).idx()].map.get(&key).copied()
    }

    /// Looks up `key`; a cold hit promotes the entry to DRAM (demoting
    /// DRAM victims to the cold tier). Returns the entry size and the tier
    /// that served it.
    pub fn lookup(&mut self, key: CacheKey) -> Option<(Bytes, TierHit)> {
        if let Some(&bytes) = self.dram.get(&key) {
            self.dram_lru.touch(key);
            self.counters.hot_hits += 1;
            self.fold_decision(1, key, 1, bytes);
            return Some((bytes, TierHit::Dram));
        }
        if let Some(bytes) = self.cold_remove(key) {
            self.counters.cold_hits += 1;
            self.counters.promotions += 1;
            self.fold_decision(1, key, 2, bytes);
            self.dram_insert(key, bytes);
            return Some((bytes, TierHit::Cold));
        }
        self.counters.misses += 1;
        self.fold_decision(1, key, 0, Bytes::ZERO);
        None
    }

    /// Serves `key` from the cold tier **without** promoting it — the
    /// brownout rung-2 path, which wants the bytes but must not shuffle
    /// tiers while the system is under pressure. Counts as a cold hit
    /// (or a miss) and refreshes the entry's cold recency.
    pub fn cold_serve(&mut self, key: CacheKey) -> Option<Bytes> {
        let class = &mut self.cold[EntryClass::of(key).idx()];
        match class.map.get(&key).copied() {
            Some(bytes) => {
                class.lru.touch(key);
                self.counters.cold_hits += 1;
                self.fold_decision(4, key, 1, bytes);
                Some(bytes)
            }
            None => {
                self.counters.misses += 1;
                self.fold_decision(4, key, 0, Bytes::ZERO);
                None
            }
        }
    }

    /// Admits a freshly computed entry into DRAM (LRU discipline), demoting
    /// DRAM victims to the cold tier. Entries larger than DRAM are not
    /// cached at all.
    pub fn admit(&mut self, key: CacheKey, bytes: Bytes) {
        if bytes > self.dram_capacity {
            self.fold_decision(2, key, 0, bytes);
            return;
        }
        if self.dram.contains_key(&key) {
            self.dram_lru.touch(key);
            self.fold_decision(2, key, 1, bytes);
            return;
        }
        // Re-admission from cold happens via lookup's promotion; an admit
        // for a cold-resident entry replaces it.
        let outcome = if self.cold_remove(key).is_some() {
            2
        } else {
            3
        };
        self.fold_decision(2, key, outcome, bytes);
        self.dram_insert(key, bytes);
    }

    /// Removes `key` from whichever tier holds it (partition invalidation,
    /// fault cleanup). Returns the freed size, if the key was resident.
    pub fn remove(&mut self, key: CacheKey) -> Option<Bytes> {
        if let Some(bytes) = self.dram.remove(&key) {
            self.dram_lru.remove(&key);
            self.dram_used -= bytes;
            self.fold_decision(3, key, 1, bytes);
            return Some(bytes);
        }
        if let Some(bytes) = self.cold_remove(key) {
            self.fold_decision(3, key, 2, bytes);
            return Some(bytes);
        }
        self.fold_decision(3, key, 0, Bytes::ZERO);
        None
    }

    /// Re-divides the cold tier's budget between the two classes (the
    /// partitioning controller's actuator). Shrinking a class below its
    /// occupancy evicts its LRU entries until it fits; the evicted keys are
    /// returned so a payload-carrying pool can drop its stored blocks.
    pub fn set_cold_budgets(&mut self, user: Bytes, item: Bytes) -> Vec<CacheKey> {
        self.fold(5);
        self.fold_u64(user.as_u64());
        self.fold_u64(item.as_u64());
        let mut victims = Vec::new();
        for (idx, budget) in [(0usize, user), (1usize, item)] {
            self.cold[idx].budget = budget;
            while self.cold[idx].used > budget {
                let victim = self.cold[idx]
                    .lru
                    .pop_lru()
                    .expect("cold used > 0 implies an entry");
                let bytes = self.cold[idx]
                    .map
                    .remove(&victim)
                    .expect("lru tracks entries");
                self.cold[idx].used -= bytes;
                self.counters.cold_evictions += 1;
                self.fold_decision(7, victim, 2, bytes);
                victims.push(victim);
            }
        }
        victims
    }

    /// Records a hit served by an *external* hot region (the planner's
    /// `UserCache`), when this cache only manages the cold side of the
    /// hierarchy. Keeps the ledger's conservation law and the decision
    /// digest covering the full lookup stream.
    pub fn note_hot_hit(&mut self, key: CacheKey, bytes: Bytes) {
        self.counters.hot_hits += 1;
        self.fold_decision(8, key, 1, bytes);
    }

    /// Removes `key` from the cold tier because an external hot region
    /// admitted it (the promotion half of a cold hit served through
    /// [`Self::cold_serve`]). Returns the cold-resident size, if any.
    pub fn promote_external(&mut self, key: CacheKey) -> Option<Bytes> {
        match self.cold_remove(key) {
            Some(bytes) => {
                self.counters.promotions += 1;
                self.fold_decision(9, key, 1, bytes);
                Some(bytes)
            }
            None => {
                self.fold_decision(9, key, 0, Bytes::ZERO);
                None
            }
        }
    }

    /// Demotes an entry evicted from an external hot region into the cold
    /// tier. Returns whether the entry entered cold, plus the keys its
    /// admission evicted (for payload cleanup).
    pub fn demote_external(&mut self, key: CacheKey, bytes: Bytes) -> (bool, Vec<CacheKey>) {
        self.counters.demotions += 1;
        self.demote(key, bytes)
    }

    /// Records an external hot-region eviction the admission policy chose
    /// *not* to demote (e.g. the entry's access rate is below the cold
    /// admission threshold). The entry is gone; the drop is part of the
    /// decision stream.
    pub fn drop_demotion(&mut self, key: CacheKey, bytes: Bytes) {
        self.counters.demotions += 1;
        self.counters.cold_evictions += 1;
        self.fold_decision(10, key, 0, bytes);
    }

    /// Panics if per-tier byte accounting diverged from the entry maps —
    /// the invariant the old field-poking tests asserted, now available to
    /// external callers (the integration suite runs it after every phase).
    pub fn check_invariants(&self) {
        let dram_sum: u64 = self.dram.values().map(|b| b.as_u64()).sum();
        assert_eq!(dram_sum, self.dram_used.as_u64(), "dram accounting drift");
        assert!(self.dram_used <= self.dram_capacity, "dram over capacity");
        for class in &self.cold {
            let sum: u64 = class.map.values().map(|b| b.as_u64()).sum();
            assert_eq!(sum, class.used.as_u64(), "cold accounting drift");
            assert!(class.used <= class.budget, "cold class over budget");
        }
    }

    fn dram_insert(&mut self, key: CacheKey, bytes: Bytes) {
        while self.dram_used + bytes > self.dram_capacity {
            let victim = self
                .dram_lru
                .pop_lru()
                .expect("dram_used > 0 implies an entry");
            let victim_bytes = self.dram.remove(&victim).expect("lru tracks entries");
            self.dram_used -= victim_bytes;
            self.counters.demotions += 1;
            let _ = self.demote(victim, victim_bytes);
        }
        self.dram.insert(key, bytes);
        self.dram_used += bytes;
        self.dram_lru.touch(key);
    }

    fn demote(&mut self, key: CacheKey, bytes: Bytes) -> (bool, Vec<CacheKey>) {
        let idx = EntryClass::of(key).idx();
        if bytes > self.cold[idx].budget {
            // Class region disabled or too small: the entry is dropped.
            self.counters.cold_evictions += 1;
            self.fold_decision(6, key, 0, bytes);
            return (false, Vec::new());
        }
        self.fold_decision(6, key, 1, bytes);
        let mut victims = Vec::new();
        while self.cold[idx].used + bytes > self.cold[idx].budget {
            let victim = self.cold[idx]
                .lru
                .pop_lru()
                .expect("cold used > 0 implies an entry");
            let victim_bytes = self.cold[idx]
                .map
                .remove(&victim)
                .expect("lru tracks entries");
            self.cold[idx].used -= victim_bytes;
            self.counters.cold_evictions += 1;
            self.fold_decision(7, victim, 1, victim_bytes);
            victims.push(victim);
        }
        self.cold[idx].map.insert(key, bytes);
        self.cold[idx].used += bytes;
        self.cold[idx].lru.touch(key);
        (true, victims)
    }

    fn cold_remove(&mut self, key: CacheKey) -> Option<Bytes> {
        let class = &mut self.cold[EntryClass::of(key).idx()];
        let bytes = class.map.remove(&key)?;
        class.used -= bytes;
        class.lru.remove(&key);
        Some(bytes)
    }

    #[inline]
    fn fold(&mut self, byte: u8) {
        self.digest.write_u8(byte);
    }

    #[inline]
    fn fold_u64(&mut self, v: u64) {
        self.digest.write_u64(v);
    }

    fn fold_decision(&mut self, op: u8, key: CacheKey, outcome: u8, bytes: Bytes) {
        self.fold(op);
        match key {
            CacheKey::User(u) => {
                self.fold(0);
                self.fold_u64(u.as_u64());
            }
            CacheKey::Item(i) => {
                self.fold(1);
                self.fold_u64(i.as_u64());
            }
        }
        self.fold(outcome);
        self.fold_u64(bytes.as_u64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_types::{ItemId, UserId};

    fn ikey(i: u64) -> CacheKey {
        CacheKey::Item(ItemId::new(i))
    }

    fn ukey(i: u64) -> CacheKey {
        CacheKey::User(UserId::new(i))
    }

    /// A user-only hierarchy: the whole cold tier is the user budget.
    fn cache(dram: u64, cold: u64) -> TieredKvCache {
        kv_cache(dram, cold, 0)
    }

    fn kv_cache(dram: u64, user: u64, item: u64) -> TieredKvCache {
        TieredKvCache::new(TieredKvConfig {
            dram_capacity: Bytes::new(dram),
            cold_user_budget: Bytes::new(user),
            cold_item_budget: Bytes::new(item),
        })
    }

    #[test]
    fn dram_hit_then_demotion_then_cold_hit() {
        let mut c = cache(100, 200);
        c.admit(ukey(1), Bytes::new(100));
        assert_eq!(c.lookup(ukey(1)), Some((Bytes::new(100), TierHit::Dram)));
        // Admitting user 2 evicts user 1 to the cold tier.
        c.admit(ukey(2), Bytes::new(100));
        assert_eq!(c.dram_used(), Bytes::new(100));
        assert_eq!(c.cold_used(), Bytes::new(100));
        // Cold hit promotes user 1 back, demoting user 2.
        assert_eq!(c.lookup(ukey(1)), Some((Bytes::new(100), TierHit::Cold)));
        assert_eq!(c.lookup(ukey(1)), Some((Bytes::new(100), TierHit::Dram)));
        assert_eq!(c.lookup(ukey(2)), Some((Bytes::new(100), TierHit::Cold)));
        let n = c.counters();
        assert_eq!((n.hot_hits, n.cold_hits, n.promotions), (2, 2, 2));
        assert_eq!(n.demotions, 3);
    }

    #[test]
    fn cold_tier_disabled_drops_evictions() {
        let mut c = cache(100, 0);
        c.admit(ukey(1), Bytes::new(100));
        c.admit(ukey(2), Bytes::new(100));
        assert_eq!(c.lookup(ukey(1)), None, "no cold tier: eviction is final");
        assert_eq!(c.len(), 1);
        assert_eq!(c.counters().cold_evictions, 1);
    }

    #[test]
    fn cold_tier_evicts_lru_when_full() {
        let mut c = cache(100, 100);
        for i in 1..=3 {
            c.admit(ukey(i), Bytes::new(100));
        }
        // Users 1 and 2 were demoted in order; cold holds only user 2.
        assert_eq!(c.lookup(ukey(1)), None);
        assert_eq!(c.lookup(ukey(2)), Some((Bytes::new(100), TierHit::Cold)));
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let mut c = cache(100, 100);
        c.admit(ukey(1), Bytes::new(500));
        assert!(c.is_empty());
        assert_eq!(c.lookup(ukey(1)), None);
    }

    #[test]
    fn accounting_stays_within_capacities() {
        let mut c = cache(250, 400);
        for i in 0..50u64 {
            c.admit(ukey(i % 13), Bytes::new(40 + (i % 5) * 30));
            let _ = c.lookup(ukey(i % 7));
            assert!(c.dram_used() <= Bytes::new(250));
            assert!(c.cold_used() <= Bytes::new(400));
            c.check_invariants();
        }
        let n = c.counters();
        assert_eq!(n.hot_hits + n.cold_hits + n.misses, 50);
    }

    #[test]
    fn admit_replaces_cold_resident() {
        let mut c = cache(100, 100);
        c.admit(ukey(1), Bytes::new(100));
        c.admit(ukey(2), Bytes::new(100)); // demotes 1
        c.admit(ukey(1), Bytes::new(80)); // fresh recompute replaces cold copy
        assert_eq!(c.lookup(ukey(1)), Some((Bytes::new(80), TierHit::Dram)));
    }

    #[test]
    fn classes_share_dram_but_keep_separate_cold_budgets() {
        let mut c = kv_cache(100, 100, 100);
        c.admit(ukey(1), Bytes::new(100));
        c.admit(ikey(1), Bytes::new(100)); // demotes user 1 → user region
        c.admit(ukey(2), Bytes::new(100)); // demotes item 1 → item region
        assert_eq!(c.cold_used_class(EntryClass::User), Bytes::new(100));
        assert_eq!(c.cold_used_class(EntryClass::Item), Bytes::new(100));
        // Each class hits its own cold region independently.
        assert_eq!(c.lookup(ikey(1)), Some((Bytes::new(100), TierHit::Cold)));
        c.check_invariants();
    }

    #[test]
    fn item_demotions_respect_the_item_budget() {
        let mut c = kv_cache(100, 200, 0);
        c.admit(ikey(1), Bytes::new(100));
        c.admit(ikey(2), Bytes::new(100)); // item budget 0: demotion dropped
        assert_eq!(c.lookup(ikey(1)), None);
        assert_eq!(c.counters().cold_evictions, 1);
        // User demotions still land in the user region.
        c.admit(ukey(1), Bytes::new(100));
        c.admit(ukey(2), Bytes::new(100));
        assert_eq!(c.lookup(ukey(1)), Some((Bytes::new(100), TierHit::Cold)));
    }

    #[test]
    fn budget_shrink_evicts_lru_entries_of_that_class() {
        let mut c = kv_cache(100, 300, 0);
        for i in 1..=3 {
            c.admit(ukey(i), Bytes::new(100));
        }
        // Users 1 and 2 sit in cold (1 is LRU). Shrinking to 100 evicts 1.
        c.set_cold_budgets(Bytes::new(100), Bytes::ZERO);
        assert_eq!(c.cold_used(), Bytes::new(100));
        assert_eq!(c.lookup(ukey(1)), None);
        assert_eq!(c.lookup(ukey(2)), Some((Bytes::new(100), TierHit::Cold)));
        c.check_invariants();
    }

    #[test]
    fn cold_serve_hits_without_promoting() {
        let mut c = kv_cache(100, 100, 0);
        c.admit(ukey(1), Bytes::new(100));
        c.admit(ukey(2), Bytes::new(100)); // demotes 1
        assert_eq!(c.cold_serve(ukey(1)), Some(Bytes::new(100)));
        assert_eq!(c.cold_used(), Bytes::new(100), "no promotion happened");
        assert!(c.hot_contains(ukey(2)));
        assert_eq!(c.cold_serve(ukey(3)), None);
        let n = c.counters();
        assert_eq!((n.cold_hits, n.promotions, n.misses), (1, 0, 1));
    }

    #[test]
    fn remove_frees_either_tier() {
        let mut c = kv_cache(200, 100, 0);
        c.admit(ukey(1), Bytes::new(100));
        c.admit(ukey(2), Bytes::new(100));
        assert_eq!(c.remove(ukey(1)), Some(Bytes::new(100)));
        assert_eq!(c.remove(ukey(1)), None);
        assert_eq!(c.dram_used(), Bytes::new(100));
        c.check_invariants();
    }

    #[test]
    fn digest_tracks_the_decision_sequence() {
        let drive = |ops: &[(u64, u64)]| {
            let mut c = kv_cache(100, 100, 0);
            for &(u, b) in ops {
                c.admit(ukey(u), Bytes::new(b));
                let _ = c.lookup(ukey(u % 3));
            }
            c.digest()
        };
        let ops: Vec<(u64, u64)> = (0..20).map(|i| (i % 5, 40 + (i % 3) * 30)).collect();
        assert_eq!(drive(&ops), drive(&ops), "same sequence, same digest");
        let mut other = ops.clone();
        other[7].1 += 10; // one different admit size
        assert_ne!(drive(&ops), drive(&other), "divergence shows up");
    }

    #[test]
    fn user_only_decisions_ignore_the_item_budget() {
        // A zero item budget is what makes the hierarchy user-only; for a
        // user-only key stream the item budget is dead weight either way —
        // same decisions, digest included.
        let mut user_only = cache(250, 400);
        let mut shared = kv_cache(250, 400, 300);
        for i in 0..60u64 {
            let (u, b) = (i % 11, Bytes::new(30 + (i % 7) * 25));
            user_only.admit(ukey(u), b);
            shared.admit(ukey(u), b);
            assert_eq!(user_only.lookup(ukey(i % 5)), shared.lookup(ukey(i % 5)));
        }
        assert_eq!(user_only.digest(), shared.digest());
        assert_eq!(user_only.counters(), shared.counters());
    }
}
