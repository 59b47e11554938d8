//! Materialized item placement: memory accounting + location oracle.
//!
//! A plan fixes, for every item (identified by popularity rank = ID), where
//! its KV entry lives: replicated on every worker, on its shard owner, or
//! not cached at all (the Figure 10 regime, where a 100M-item corpus
//! exceeds the pooled memory and only the hottest ~10% are cached).

use bat_types::{Bytes, ItemId, WorkerId};
use serde::{Deserialize, Serialize};

/// Placement strategy (§5.2, Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlacementStrategy {
    /// Hot-replicated cold-sharded (Algorithm 1).
    Hrcs,
    /// BAT-Replicate: full item cache on every machine.
    Replicate,
    /// BAT-Hash: items sharded 1/N per machine, no replication.
    HashShard,
}

/// Where an item's KV entry is, relative to a given worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemLocation {
    /// In this worker's replicated region: zero-cost local read.
    LocalReplica,
    /// This worker owns the item's shard: local read.
    LocalShard,
    /// Another worker owns the shard: network transfer required.
    Remote(WorkerId),
    /// Not cached anywhere: the item's tokens must be recomputed.
    Uncached,
}

/// A materialized placement over `num_items` items and `num_workers`
/// workers. Items with ID `< replicated_items` are replicated; items with
/// ID in `[replicated_items, cached_items)` are sharded round-robin; items
/// with ID `≥ cached_items` are uncached.
///
/// ```
/// use bat_placement::{ItemLocation, ItemPlacementPlan, PlacementStrategy};
/// use bat_types::{ItemId, WorkerId};
///
/// // 10% of a 1M corpus replicated, the rest sharded over 4 workers.
/// let plan = ItemPlacementPlan::new(
///     PlacementStrategy::Hrcs, 1_000_000, 4, 0.1, 28_672 * 10);
/// assert_eq!(
///     plan.locate(ItemId::new(42), WorkerId::new(2)),
///     ItemLocation::LocalReplica
/// );
/// assert!(matches!(
///     plan.locate(ItemId::new(900_000), WorkerId::new(2)),
///     ItemLocation::LocalShard | ItemLocation::Remote(_)
/// ));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItemPlacementPlan {
    strategy: PlacementStrategy,
    num_items: u64,
    num_workers: usize,
    replicated_items: u64,
    cached_items: u64,
    avg_item_kv_bytes: u64,
    /// Background-refresh override (§5.2 Step 3): when set, *these* item
    /// IDs occupy the replicated area instead of the rank prefix
    /// `0..replicated_items`. Sharding of everything else is unchanged.
    #[serde(default)]
    replicated_override: Option<std::collections::HashSet<u64>>,
}

impl ItemPlacementPlan {
    /// Builds a plan.
    ///
    /// * `replication_ratio` — fraction of (cached) items replicated
    ///   everywhere: 0.0 for [`PlacementStrategy::HashShard`], 1.0 for
    ///   [`PlacementStrategy::Replicate`], Algorithm 1's `r` for HRCS.
    /// * `avg_item_kv_bytes` — mean per-item KV entry size, for memory
    ///   accounting.
    ///
    /// # Panics
    ///
    /// Panics if there are no workers, or the ratio is outside `[0, 1]`.
    pub fn new(
        strategy: PlacementStrategy,
        num_items: u64,
        num_workers: usize,
        replication_ratio: f64,
        avg_item_kv_bytes: u64,
    ) -> Self {
        assert!(num_workers > 0, "need at least one worker");
        assert!(
            (0.0..=1.0).contains(&replication_ratio),
            "replication ratio must be in [0, 1]"
        );
        let replicated_items = match strategy {
            PlacementStrategy::Replicate => num_items,
            PlacementStrategy::HashShard => 0,
            PlacementStrategy::Hrcs => (replication_ratio * num_items as f64).round() as u64,
        };
        ItemPlacementPlan {
            strategy,
            num_items,
            num_workers,
            replicated_items: replicated_items.min(num_items),
            cached_items: num_items,
            avg_item_kv_bytes,
            replicated_override: None,
        }
    }

    /// Replaces the *membership* of the replicated area with `ids` — the
    /// paper's background hot-item refresh (§5.2 Step 3: "we update these
    /// items in the replicate area"). The area's capacity is unchanged;
    /// at most `replicated_items()` IDs are kept (hottest-first order of
    /// the iterator).
    pub fn refresh_replicated(&mut self, ids: impl IntoIterator<Item = ItemId>) {
        let cap = self.replicated_items as usize;
        let set: std::collections::HashSet<u64> =
            ids.into_iter().take(cap).map(|i| i.as_u64()).collect();
        self.replicated_override = Some(set);
    }

    /// Workers the plan shards over.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Mean per-item KV entry size used for memory accounting.
    pub fn avg_item_kv_bytes(&self) -> u64 {
        self.avg_item_kv_bytes
    }

    /// Whether `item` currently occupies the replicated area (respecting a
    /// background-refresh override).
    pub fn is_replicated(&self, item: ItemId) -> bool {
        let id = item.as_u64();
        match &self.replicated_override {
            Some(set) => set.contains(&id),
            None => id < self.replicated_items,
        }
    }

    /// Total items in the corpus.
    pub fn num_items(&self) -> u64 {
        self.num_items
    }

    /// Items replicated on every worker.
    pub fn replicated_items(&self) -> u64 {
        self.replicated_items
    }

    /// Items whose KV entry exists somewhere in the pool.
    pub fn cached_items(&self) -> u64 {
        self.cached_items
    }

    /// Effective replication ratio over the corpus.
    pub fn replication_ratio(&self) -> f64 {
        if self.num_items == 0 {
            0.0
        } else {
            self.replicated_items as f64 / self.num_items as f64
        }
    }

    /// Caps the plan to a per-worker item-region capacity (Figure 10: a
    /// 100M-item corpus cannot be fully cached).
    ///
    /// Corpus coverage is worth more than replication (an uncached item is
    /// recomputed on *every* request; a sharded one is at worst a network
    /// hop), so the cap first shrinks the replicated region until the whole
    /// corpus fits sharded; only if even full sharding overflows does the
    /// cold tail get dropped.
    pub fn fit_to_capacity(mut self, per_worker: Bytes) -> Self {
        let cap = per_worker.as_u64();
        let per_item = self.avg_item_kv_bytes.max(1);
        let cap_items = cap / per_item; // per-worker item slots
        let n = self.num_items;
        let w = self.num_workers as u64;
        // Per-worker slots used by a plan (repl, cached):
        //   repl + ceil((cached − repl) / w)
        let shard_per_worker = |repl: u64, cached: u64| (cached - repl).div_ceil(w);
        if self.replicated_items + shard_per_worker(self.replicated_items, self.cached_items)
            <= cap_items
        {
            return self;
        }
        // Try to keep the full corpus: solve repl so that
        // repl + (n − repl)/w ≤ cap_items.
        if n.div_ceil(w) <= cap_items {
            let mut repl = self.replicated_items.min(cap_items);
            while repl > 0 && repl + shard_per_worker(repl, n) > cap_items {
                // Each replicated item released frees (1 − 1/w) slots; jump
                // by the remaining overflow.
                let overflow = repl + shard_per_worker(repl, n) - cap_items;
                let step = (overflow * w).div_ceil(w.saturating_sub(1).max(1));
                repl = repl.saturating_sub(step.max(1));
            }
            self.replicated_items = repl;
            self.cached_items = n;
            return self;
        }
        // Even r = 0 overflows: shard everything and drop the cold tail.
        self.replicated_items = self.replicated_items.min(cap_items);
        let remaining = cap_items - self.replicated_items;
        self.cached_items = (self.replicated_items + remaining * w).min(n);
        self
    }

    /// Per-worker bytes consumed by the item region.
    pub fn per_worker_bytes(&self) -> Bytes {
        let sharded = self.cached_items - self.replicated_items;
        let shard_per_worker = sharded.div_ceil(self.num_workers as u64);
        Bytes::new((self.replicated_items + shard_per_worker) * self.avg_item_kv_bytes)
    }

    /// Fraction of item *accesses* served from the cache, under `law`.
    pub fn cached_access_mass(&self, law: &bat_workload::ZipfLaw) -> f64 {
        law.head_mass(self.cached_items.min(law.n()))
    }

    /// Locates `item` relative to `local` (the worker co-located with the
    /// inference worker handling the request).
    ///
    /// # Panics
    ///
    /// Panics if `local` is not a valid worker index.
    pub fn locate(&self, item: ItemId, local: WorkerId) -> ItemLocation {
        assert!(
            (local.as_u64() as usize) < self.num_workers,
            "worker index out of range"
        );
        let id = item.as_u64();
        let replicated = match &self.replicated_override {
            Some(set) => set.contains(&id),
            None => id < self.replicated_items,
        };
        if replicated {
            return ItemLocation::LocalReplica;
        }
        if id >= self.cached_items {
            return ItemLocation::Uncached;
        }
        let owner = WorkerId::new(id % self.num_workers as u64);
        if owner == local {
            ItemLocation::LocalShard
        } else {
            ItemLocation::Remote(owner)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_workload::ZipfLaw;
    use proptest::prelude::*;

    const KV: u64 = 28_672 * 10; // Qwen2-1.5B, 10-token items

    #[test]
    fn replicate_is_always_local() {
        let plan = ItemPlacementPlan::new(PlacementStrategy::Replicate, 1000, 4, 0.0, KV);
        for id in [0u64, 500, 999] {
            assert_eq!(
                plan.locate(ItemId::new(id), WorkerId::new(2)),
                ItemLocation::LocalReplica
            );
        }
        assert_eq!(plan.per_worker_bytes(), Bytes::new(1000 * KV));
    }

    #[test]
    fn hash_shard_spreads_and_pays_network() {
        let plan = ItemPlacementPlan::new(PlacementStrategy::HashShard, 1000, 4, 0.0, KV);
        let local = WorkerId::new(1);
        let mut remote = 0;
        for id in 0..1000u64 {
            match plan.locate(ItemId::new(id), local) {
                ItemLocation::LocalShard => assert_eq!(id % 4, 1),
                ItemLocation::Remote(w) => {
                    assert_eq!(w.as_u64(), id % 4);
                    remote += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(remote, 750, "3/4 of items are remote");
        // 1/4 of the bytes per worker.
        assert_eq!(plan.per_worker_bytes(), Bytes::new(250 * KV));
    }

    #[test]
    fn hrcs_mixes_replication_and_sharding() {
        let plan = ItemPlacementPlan::new(PlacementStrategy::Hrcs, 1000, 4, 0.1, KV);
        assert_eq!(plan.replicated_items(), 100);
        assert_eq!(
            plan.locate(ItemId::new(50), WorkerId::new(3)),
            ItemLocation::LocalReplica
        );
        assert!(matches!(
            plan.locate(ItemId::new(500), WorkerId::new(3)),
            ItemLocation::LocalShard | ItemLocation::Remote(_)
        ));
        // 100 replicated + 225 sharded per worker.
        assert_eq!(plan.per_worker_bytes(), Bytes::new((100 + 225) * KV));
    }

    #[test]
    fn capacity_cap_drops_the_cold_tail() {
        // 100M items (Figure 10) cannot fit: expect a cached head only.
        let plan = ItemPlacementPlan::new(PlacementStrategy::Hrcs, 100_000_000, 16, 0.001, KV)
            .fit_to_capacity(Bytes::from_gb(200));
        assert!(plan.cached_items() < plan.num_items());
        assert!(plan.replicated_items() <= plan.cached_items());
        assert_eq!(
            plan.locate(ItemId::new(99_999_999), WorkerId::new(0)),
            ItemLocation::Uncached
        );
        // Per-worker footprint respects the cap (within one item of rounding).
        assert!(plan.per_worker_bytes().as_u64() <= Bytes::from_gb(200).as_u64() + KV);
        // Skew means the cached head still covers most accesses.
        let law = ZipfLaw::new(100_000_000, 1.05);
        assert!(plan.cached_access_mass(&law) > 0.5);
    }

    #[test]
    fn location_is_consistent_across_workers() {
        let plan = ItemPlacementPlan::new(PlacementStrategy::Hrcs, 100, 4, 0.2, KV);
        for id in 0..100u64 {
            let item = ItemId::new(id);
            let mut local_count = 0;
            for w in 0..4u64 {
                if matches!(
                    plan.locate(item, WorkerId::new(w)),
                    ItemLocation::LocalReplica | ItemLocation::LocalShard
                ) {
                    local_count += 1;
                }
            }
            if id < plan.replicated_items() {
                assert_eq!(local_count, 4, "replicated item local everywhere");
            } else {
                assert_eq!(local_count, 1, "sharded item has exactly one owner");
            }
        }
    }

    #[test]
    fn refresh_override_changes_replica_membership() {
        let mut plan = ItemPlacementPlan::new(PlacementStrategy::Hrcs, 100, 4, 0.1, KV);
        assert_eq!(
            plan.locate(ItemId::new(5), WorkerId::new(0)),
            ItemLocation::LocalReplica
        );
        // A burst hotspot: items 90..100 replace the rank head.
        plan.refresh_replicated((90..100).map(ItemId::new));
        assert_eq!(
            plan.locate(ItemId::new(95), WorkerId::new(0)),
            ItemLocation::LocalReplica
        );
        assert!(
            !matches!(
                plan.locate(ItemId::new(5), WorkerId::new(0)),
                ItemLocation::LocalReplica
            ),
            "old head falls back to its shard"
        );
        // The area's capacity bounds the override.
        plan.refresh_replicated((0..50).map(ItemId::new));
        let replicated = (0..100u64)
            .filter(|&i| {
                plan.locate(ItemId::new(i), WorkerId::new(0)) == ItemLocation::LocalReplica
            })
            .count() as u64;
        assert_eq!(replicated, plan.replicated_items());
    }

    #[test]
    #[should_panic(expected = "worker index out of range")]
    fn locate_validates_worker() {
        let plan = ItemPlacementPlan::new(PlacementStrategy::Replicate, 10, 2, 0.0, KV);
        let _ = plan.locate(ItemId::new(0), WorkerId::new(5));
    }

    proptest! {
        /// Every cached item is local to exactly its owners; per-worker bytes
        /// are monotone in the replication ratio.
        #[test]
        fn bytes_monotone_in_replication(n in 1u64..10_000, workers in 1usize..16, r1 in 0.0f64..1.0, r2 in 0.0f64..1.0) {
            let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
            let a = ItemPlacementPlan::new(PlacementStrategy::Hrcs, n, workers, lo, KV);
            let b = ItemPlacementPlan::new(PlacementStrategy::Hrcs, n, workers, hi, KV);
            prop_assert!(a.per_worker_bytes() <= b.per_worker_bytes());
        }
    }
}
