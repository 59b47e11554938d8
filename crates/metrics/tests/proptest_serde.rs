//! JSON roundtrip properties for [`SloStats`], [`BatchStats`] and
//! [`TierStats`], plus the invariants the runtime's conservation assertions
//! lean on after a decode — including back-compat: JSON written before the
//! elastic-membership fields existed must decode with those fields at zero.

use bat_metrics::{BatchStats, SloStats, TierStats};
use proptest::prelude::*;
use proptest::TestRng;

fn any_tier_stats(rng: &mut TestRng) -> TierStats {
    TierStats {
        hot_hits: rng.next_u64(),
        cold_hits: rng.next_u64(),
        misses: rng.next_u64(),
        promotions: rng.next_u64(),
        demotions: rng.next_u64(),
        cold_evictions: rng.next_u64(),
        brownout_cold_serves: rng.next_u64(),
        hot_occupancy_bytes: rng.next_u64(),
        cold_occupancy_bytes: rng.next_u64(),
        user_budget_bytes: rng.next_u64(),
        item_budget_bytes: rng.next_u64(),
    }
}

fn any_stats(rng: &mut TestRng) -> SloStats {
    SloStats {
        submitted: rng.next_u64(),
        accepted: rng.next_u64(),
        rejected_queue_full: rng.next_u64(),
        rejected_infeasible: rng.next_u64(),
        rejected_brownout: rng.next_u64(),
        shed_expired: rng.next_u64(),
        completed: rng.next_u64(),
        deadline_misses: rng.next_u64(),
        migrated: rng.next_u64(),
    }
}

fn any_batch_stats(rng: &mut TestRng) -> BatchStats {
    BatchStats {
        rounds: rng.next_u64(),
        chunks: rng.next_u64(),
        batched_tokens: rng.next_u64(),
        seat_refills: rng.next_u64(),
        peak_seated: rng.next_u64() as usize,
        max_idle_gap_over_chunk: (rng.next_u64() % 1_000_000) as f64 / 1e3,
        migrated_requests: rng.next_u64(),
        migrated_tokens: rng.next_u64(),
        drains: rng.next_u64(),
        joins: rng.next_u64(),
    }
}

/// Strips the elastic-membership fields from a serialized value, producing
/// the JSON an older build would have written.
fn strip_fields(json: &str, fields: &[&str]) -> String {
    let mut v: serde_json::Value = serde_json::from_str(json).expect("valid json");
    let serde_json::Value::Obj(entries) = &mut v else {
        panic!("stats serialize to an object, got {json}");
    };
    for f in fields {
        let before = entries.len();
        entries.retain(|(k, _)| k != f);
        assert!(entries.len() < before, "field {f} missing from {json}");
    }
    serde_json::to_string(&v).expect("stripped value re-serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn slo_stats_json_roundtrips(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let stats = any_stats(&mut rng);
        let json = serde_json::to_string(&stats).expect("stats serialize");
        let back: SloStats = serde_json::from_str(&json).expect("stats deserialize");
        prop_assert_eq!(&back, &stats);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn derived_metrics_survive_the_roundtrip(seed in 0u64..u64::MAX) {
        // `rejected()` and friends are derived, not serialized: a decoded
        // struct must agree with its source on every derived quantity.
        let mut rng = TestRng::from_seed(seed);
        // Bound the counters so the sums cannot overflow u64.
        let mut stats = any_stats(&mut rng);
        for f in [
            &mut stats.submitted,
            &mut stats.accepted,
            &mut stats.rejected_queue_full,
            &mut stats.rejected_infeasible,
            &mut stats.rejected_brownout,
            &mut stats.shed_expired,
            &mut stats.deadline_misses,
        ] {
            *f %= 1 << 40;
        }
        stats.completed = stats.deadline_misses + rng.next_u64() % (1 << 40);
        let back: SloStats =
            serde_json::from_str(&serde_json::to_string(&stats).unwrap()).unwrap();
        prop_assert_eq!(back.rejected(), stats.rejected());
        prop_assert_eq!(back.goodput(), stats.goodput());
        prop_assert_eq!(back.conserved(), stats.conserved());
    }

    #[test]
    fn batch_stats_json_roundtrips(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let stats = any_batch_stats(&mut rng);
        let json = serde_json::to_string(&stats).expect("batch stats serialize");
        let back: BatchStats = serde_json::from_str(&json).expect("batch stats deserialize");
        prop_assert_eq!(&back, &stats);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn slo_stats_decode_pre_membership_json(seed in 0u64..u64::MAX) {
        // Back-compat: JSON from before the `migrated` ledger existed has
        // no such key; decoding must zero it and leave every other counter
        // (and the conservation verdict) untouched.
        let mut rng = TestRng::from_seed(seed);
        // Bound the counters so the derived sums cannot overflow u64.
        let mut stats = any_stats(&mut rng);
        for f in [
            &mut stats.submitted,
            &mut stats.accepted,
            &mut stats.rejected_queue_full,
            &mut stats.rejected_infeasible,
            &mut stats.rejected_brownout,
            &mut stats.shed_expired,
            &mut stats.completed,
            &mut stats.deadline_misses,
        ] {
            *f %= 1 << 40;
        }
        let old = strip_fields(&serde_json::to_string(&stats).unwrap(), &["migrated"]);
        let back: SloStats = serde_json::from_str(&old).expect("pre-membership json decodes");
        prop_assert_eq!(back.migrated, 0);
        prop_assert_eq!(back.submitted, stats.submitted);
        prop_assert_eq!(back.completed, stats.completed);
        prop_assert_eq!(back.rejected(), stats.rejected());
        prop_assert_eq!(back.conserved(), stats.conserved());
    }

    #[test]
    fn batch_stats_decode_pre_membership_json(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let stats = any_batch_stats(&mut rng);
        let old = strip_fields(
            &serde_json::to_string(&stats).unwrap(),
            &["migrated_requests", "migrated_tokens", "drains", "joins"],
        );
        let back: BatchStats = serde_json::from_str(&old).expect("pre-membership json decodes");
        prop_assert_eq!(back.migrated_requests, 0);
        prop_assert_eq!(back.migrated_tokens, 0);
        prop_assert_eq!(back.drains, 0);
        prop_assert_eq!(back.joins, 0);
        prop_assert_eq!(back.rounds, stats.rounds);
        prop_assert_eq!(back.chunks, stats.chunks);
    }

    #[test]
    fn tier_stats_json_roundtrips(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let stats = any_tier_stats(&mut rng);
        let json = serde_json::to_string(&stats).expect("tier stats serialize");
        let back: TierStats = serde_json::from_str(&json).expect("tier stats deserialize");
        prop_assert_eq!(&back, &stats);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn tier_derived_metrics_survive_the_roundtrip(seed in 0u64..u64::MAX) {
        // Bound the counters and budgets so the lookup and budget sums
        // cannot overflow u64, and keep promotions ≤ cold_hits and cold
        // occupancy ≤ the budgets so `conserved()` holds by design.
        let mut rng = TestRng::from_seed(seed);
        let mut stats = any_tier_stats(&mut rng);
        for f in [
            &mut stats.hot_hits,
            &mut stats.cold_hits,
            &mut stats.misses,
            &mut stats.demotions,
            &mut stats.cold_evictions,
            &mut stats.brownout_cold_serves,
            &mut stats.user_budget_bytes,
            &mut stats.item_budget_bytes,
        ] {
            *f %= 1 << 40;
        }
        stats.promotions = rng.next_u64() % (stats.cold_hits + 1);
        stats.cold_occupancy_bytes =
            rng.next_u64() % (stats.user_budget_bytes + stats.item_budget_bytes + 1);
        let back: TierStats =
            serde_json::from_str(&serde_json::to_string(&stats).unwrap()).unwrap();
        prop_assert_eq!(back.lookups(), stats.lookups());
        prop_assert_eq!(back.hits(), stats.hits());
        prop_assert_eq!(back.hit_rate(), stats.hit_rate());
        prop_assert!(back.conserved());
    }
}
