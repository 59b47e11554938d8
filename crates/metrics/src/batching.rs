//! Continuous-batching accounting: rounds, chunks, seat occupancy, idle gaps.
//!
//! [`BatchStats`] is the slot scheduler's ledger. The counter fields are
//! planner-side decisions — both engines run the same slot machine on
//! nominal arrival time, so every one of them must agree bit-for-bit
//! between the simulator and the threaded runtime (they are folded into
//! `RunStats::digest`). The `max_idle_gap_over_chunk` observation backs
//! the `ablation_batching` gate: at saturation a continuously-batched
//! worker must never sit idle longer than one chunk while work is pending.

use serde::{Deserialize, Serialize};

/// Counters describing what the slot-based batch scheduler did to a run.
///
/// All-zero (`Default`) when continuous batching is disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BatchStats {
    /// Fused worker rounds executed (one round = one chunk from each
    /// seated request on a worker, priced under a single batch overhead).
    pub rounds: u64,
    /// Prefill/scoring chunks retired across all rounds.
    pub chunks: u64,
    /// Tokens processed through batched rounds.
    pub batched_tokens: u64,
    /// Seats refilled from the global pending queue the moment a request
    /// retired — the continuous-batching events a per-request batcher
    /// (which waits for request boundaries) can never produce.
    pub seat_refills: u64,
    /// Peak concurrently-seated requests across all workers.
    pub peak_seated: usize,
    /// Largest observed worker idle gap while pending work existed,
    /// normalized to that worker's mean chunk service time. Observational
    /// (excluded from the digest): the ablation gate asserts ≤ 1.0 at
    /// saturation.
    pub max_idle_gap_over_chunk: f64,
    /// Requests moved off a worker by a planned drain (or a crash requeue)
    /// and re-queued on the surviving membership. One request can migrate
    /// more than once; each move counts. Paired with the conservation law
    /// this proves elastic membership loses nothing: every migrated
    /// request still reaches exactly one terminal outcome.
    #[serde(default)]
    pub migrated_requests: u64,
    /// Unfinished tokens those migrations carried to their new worker.
    /// Tokens already retired in earlier rounds stay retired — migration
    /// moves only *remaining* work, so nothing is double-counted.
    #[serde(default)]
    pub migrated_tokens: u64,
    /// Planned worker drains the scheduler executed.
    #[serde(default)]
    pub drains: u64,
    /// Planned worker joins re-planned into the slot map mid-run.
    #[serde(default)]
    pub joins: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_zero() {
        let b = BatchStats::default();
        assert_eq!(b.rounds, 0);
    }

    #[test]
    fn pre_membership_serializations_default_migration_fields() {
        // JSON written before elastic membership existed has none of the
        // migrated/drain/join fields; they must read back as zero.
        let back: BatchStats = serde_json::from_str(
            r#"{"rounds":3,"chunks":6,"batched_tokens":100,
                "seat_refills":2,"peak_seated":4,"max_idle_gap_over_chunk":0.5}"#,
        )
        .unwrap();
        assert_eq!(back.migrated_requests, 0);
        assert_eq!(back.migrated_tokens, 0);
        assert_eq!(back.drains, 0);
        assert_eq!(back.joins, 0);
        assert_eq!(back.rounds, 3);
    }
}
