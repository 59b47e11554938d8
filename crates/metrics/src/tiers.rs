//! Tiered-cache accounting: hot/cold hits, promotions, demotions,
//! occupancy, and the adaptive user/item budget split.
//!
//! [`TierStats`] is the tiered KV pool's ledger, the tier-side analogue of
//! [`crate::SloStats`]. It rides in `RunStats`, so the sim/serve
//! equivalence tests, which compare `RunStats::digest`, cover it: the
//! runtime's pool and the simulator's must end a run with the same ledger.

use serde::{Deserialize, Serialize};

/// Counters describing what the tiered KV pool did during a run.
///
/// All fields are cumulative event counts except the `*_bytes` fields,
/// which are end-of-run snapshots of occupancy and the partition budgets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierStats {
    /// Lookups answered by the hot (DRAM-modelled, f32) tier.
    pub hot_hits: u64,
    /// Lookups answered by the cold (quantized) tier.
    pub cold_hits: u64,
    /// Lookups answered by neither tier.
    pub misses: u64,
    /// Cold entries promoted back into the hot tier after a cold hit.
    pub promotions: u64,
    /// Hot-tier evictions demoted (quantized) into the cold tier.
    pub demotions: u64,
    /// Cold-tier entries evicted outright (fell off the cold LRU, or were
    /// dropped by the admission policy / partition shrink).
    pub cold_evictions: u64,
    /// Brownout rung-2 faults served from the local cold tier instead of
    /// recomputing at the fault site.
    pub brownout_cold_serves: u64,
    /// Hot-tier bytes resident at end of run.
    pub hot_occupancy_bytes: u64,
    /// Cold-tier quantized bytes resident at end of run.
    pub cold_occupancy_bytes: u64,
    /// Cold-tier budget currently assigned to user entries by the
    /// partitioning controller.
    pub user_budget_bytes: u64,
    /// Cold-tier budget currently assigned to item entries.
    pub item_budget_bytes: u64,
}

impl TierStats {
    /// Total tier lookups, all outcomes.
    pub fn lookups(&self) -> u64 {
        self.hot_hits + self.cold_hits + self.misses
    }

    /// Lookups answered by either tier.
    pub fn hits(&self) -> u64 {
        self.hot_hits + self.cold_hits
    }

    /// Hit rate across both tiers; 0.0 for a run with no lookups.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits() as f64 / self.lookups() as f64
        }
    }

    /// The ledger's invariants: no more promotions than cold hits (a
    /// promotion completes a cold hit), and no more cold bytes resident
    /// than the two classes' budgets hold. Asserted after serde decodes,
    /// where a field could have been dropped or swapped.
    pub fn conserved(&self) -> bool {
        self.promotions <= self.cold_hits
            && self
                .user_budget_bytes
                .checked_add(self.item_budget_bytes)
                .is_some_and(|budget| self.cold_occupancy_bytes <= budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_conserved_with_zero_rates() {
        let t = TierStats::default();
        assert!(t.conserved());
        assert_eq!(t.hit_rate(), 0.0);
    }

    #[test]
    fn rates_and_conservation() {
        let t = TierStats {
            hot_hits: 6,
            cold_hits: 2,
            misses: 2,
            promotions: 2,
            demotions: 3,
            cold_occupancy_bytes: 100,
            user_budget_bytes: 60,
            item_budget_bytes: 40,
            ..TierStats::default()
        };
        assert_eq!(t.lookups(), 10);
        assert!((t.hit_rate() - 0.8).abs() < 1e-12);
        assert!(t.conserved());
        let over_promoted = TierStats { promotions: 3, ..t };
        assert!(!over_promoted.conserved());
        let over_budget = TierStats {
            cold_occupancy_bytes: 101,
            ..t
        };
        assert!(!over_budget.conserved());
        let overflowing = TierStats {
            user_budget_bytes: u64::MAX,
            ..t
        };
        assert!(!overflowing.conserved());
    }
}
