//! Run statistics collected by the serving engine.

use bat_metrics::Percentiles;
use bat_types::{Bytes, PrefixKind, RequestId};
use serde::{Deserialize, Serialize};

/// Per-request telemetry record (enabled via
/// [`crate::EngineConfig::record_requests`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Request identifier.
    pub id: RequestId,
    /// Arrival time, seconds.
    pub arrival_secs: f64,
    /// Completion time, seconds.
    pub completion_secs: f64,
    /// Prefix decision taken.
    pub prefix: PrefixKind,
    /// Tokens reused from cache.
    pub reused_tokens: u64,
    /// Tokens computed.
    pub computed_tokens: u64,
    /// Bytes pulled from remote cache workers.
    pub remote_bytes: Bytes,
}

impl RequestRecord {
    /// End-to-end latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.completion_secs - self.arrival_secs) * 1e3
    }
}

/// Aggregates telemetry records by prefix decision: returns
/// `(prefix, count, mean reuse fraction, p99 latency ms)` rows.
pub fn breakdown_by_prefix(records: &[RequestRecord]) -> Vec<(PrefixKind, usize, f64, f64)> {
    let mut out = Vec::new();
    for kind in [PrefixKind::User, PrefixKind::Item] {
        let subset: Vec<&RequestRecord> = records.iter().filter(|r| r.prefix == kind).collect();
        if subset.is_empty() {
            continue;
        }
        let mut lat = Percentiles::new();
        let mut reuse = 0.0f64;
        for r in &subset {
            lat.record(r.latency_ms());
            let total = (r.reused_tokens + r.computed_tokens).max(1);
            reuse += r.reused_tokens as f64 / total as f64;
        }
        out.push((
            kind,
            subset.len(),
            reuse / subset.len() as f64,
            lat.p99().unwrap_or(0.0),
        ));
    }
    out
}

/// Aggregated results of one simulated serving run.
///
/// `PartialEq` is bitwise (floats included): the meta-failover tests assert
/// that a leader crash changes *nothing* about serving, not merely that the
/// aggregates are close.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// System label ("RE", "UP", "IP", "BAT", ...).
    pub system: String,
    /// Requests completed.
    pub completed: usize,
    /// Wall-clock span from first arrival to last completion, seconds.
    pub span_secs: f64,
    /// Total prompt tokens across requests.
    pub total_tokens: u64,
    /// Tokens whose KV was reused from cache.
    pub reused_tokens: u64,
    /// Tokens actually computed.
    pub computed_tokens: u64,
    /// Bytes pulled from remote cache workers.
    pub remote_bytes: Bytes,
    /// Total GPU compute seconds across workers.
    pub compute_secs: f64,
    /// Total network transfer seconds.
    pub net_secs: f64,
    /// Total PCIe KV-load seconds.
    pub load_secs: f64,
    /// Requests served User-as-prefix.
    pub up_requests: usize,
    /// Requests served Item-as-prefix.
    pub ip_requests: usize,
    /// Mean end-to-end latency, ms.
    pub mean_latency_ms: f64,
    /// Median end-to-end latency, ms.
    pub p50_latency_ms: f64,
    /// P90 end-to-end latency, ms (the overload ablation's percentile).
    #[serde(default)]
    pub p90_latency_ms: f64,
    /// P99 end-to-end latency, ms (the paper's SLO percentile, Figure 9).
    pub p99_latency_ms: f64,
    /// Fault/recovery accounting; all-zero ("quiet") for fault-free runs.
    #[serde(default)]
    pub faults: bat_faults::FaultReport,
    /// SLO/admission accounting; all-zero when the overload control plane
    /// is disabled.
    #[serde(default)]
    pub slo: bat_metrics::SloStats,
    /// Tiered-pool ledger (hot/cold hits, demotions, budget split); all-zero
    /// when the tiered KV pool is disabled.
    #[serde(default)]
    pub tiers: bat_metrics::TierStats,
    /// Continuous-batching ledger (rounds, chunks, seat refills); all-zero
    /// when slot-based batching is disabled.
    #[serde(default)]
    pub batching: bat_metrics::BatchStats,
}

impl RunStats {
    /// Builds stats from raw counters plus the latency sample.
    #[allow(clippy::too_many_arguments)]
    pub fn from_counters(
        system: String,
        completed: usize,
        span_secs: f64,
        total_tokens: u64,
        reused_tokens: u64,
        computed_tokens: u64,
        remote_bytes: Bytes,
        compute_secs: f64,
        net_secs: f64,
        load_secs: f64,
        up_requests: usize,
        ip_requests: usize,
        latencies: &mut Percentiles,
    ) -> Self {
        RunStats {
            system,
            completed,
            span_secs,
            total_tokens,
            reused_tokens,
            computed_tokens,
            remote_bytes,
            compute_secs,
            net_secs,
            load_secs,
            up_requests,
            ip_requests,
            mean_latency_ms: latencies.mean().unwrap_or(0.0) * 1e3,
            p50_latency_ms: latencies.p50().unwrap_or(0.0) * 1e3,
            p90_latency_ms: latencies.p90().unwrap_or(0.0) * 1e3,
            p99_latency_ms: latencies.p99().unwrap_or(0.0) * 1e3,
            faults: bat_faults::FaultReport::default(),
            slo: bat_metrics::SloStats::default(),
            tiers: bat_metrics::TierStats::default(),
            batching: bat_metrics::BatchStats::default(),
        }
    }

    /// A deterministic digest over every planner-side field: the system
    /// label, completion and token accounting, priced cost sums (as exact
    /// f64 bit patterns), cache split, admission counters, and the fault
    /// report. Span, latency percentiles and the deadline-miss/shed split
    /// are left out; they are nominal as well, and the integration suite
    /// compares whole [`RunStats`] values across engines.
    ///
    /// Two runs of the same seeded trace and fault schedule must produce
    /// equal digests **regardless of transport**: in-process channels,
    /// Unix sockets, TCP, or child-process workers. The serving runtime's
    /// integration suite pins this; a codec or retirement bug that changes
    /// any planner-visible count breaks it loudly.
    pub fn digest(&self) -> u64 {
        // FNV-1a via the shared bat_types::fnv module: tiny,
        // dependency-free, and plenty for an equality pin (this is not a
        // collision-resistant hash).
        let mut h = bat_types::fnv::Fnv64::new();
        h.write(self.system.as_bytes());
        h.write_usize(self.completed);
        h.write_u64(self.total_tokens);
        h.write_u64(self.reused_tokens);
        h.write_u64(self.computed_tokens);
        h.write_u64(self.remote_bytes.0);
        h.write_f64(self.compute_secs);
        h.write_f64(self.net_secs);
        h.write_f64(self.load_secs);
        h.write_usize(self.up_requests);
        h.write_usize(self.ip_requests);
        h.write_u64(self.slo.submitted);
        h.write_u64(self.slo.accepted);
        h.write_u64(self.slo.rejected_queue_full);
        h.write_u64(self.slo.rejected_infeasible);
        h.write_u64(self.slo.rejected_brownout);
        // Tiered-pool decisions are planner-side: every hit/miss/demotion
        // must agree between the simulator and the threaded runtime.
        h.write_u64(self.tiers.hot_hits);
        h.write_u64(self.tiers.cold_hits);
        h.write_u64(self.tiers.misses);
        h.write_u64(self.tiers.promotions);
        h.write_u64(self.tiers.demotions);
        h.write_u64(self.tiers.cold_evictions);
        h.write_u64(self.tiers.brownout_cold_serves);
        h.write_u64(self.tiers.cold_occupancy_bytes);
        h.write_u64(self.tiers.user_budget_bytes);
        h.write_u64(self.tiers.item_budget_bytes);
        // Batch-formation decisions are planner-side too: both engines run
        // the same slot machine on nominal time, so every round count must
        // agree bit-for-bit.
        h.write_u64(self.batching.rounds);
        h.write_u64(self.batching.chunks);
        h.write_u64(self.batching.batched_tokens);
        h.write_u64(self.batching.seat_refills);
        h.write_u64(self.batching.peak_seated as u64);
        // Elastic membership is planner-side: drains, joins, and every
        // migration the slot machine performed must agree bit-for-bit.
        h.write_u64(self.batching.migrated_requests);
        h.write_u64(self.batching.migrated_tokens);
        h.write_u64(self.batching.drains);
        h.write_u64(self.batching.joins);
        h.write_u64(self.slo.migrated);
        // The fault report is all planner-side counters; its Debug form is
        // a stable field-ordered rendering.
        h.write(format!("{:?}", self.faults).as_bytes());
        h.finish()
    }

    /// Sustained throughput in completed requests per second.
    pub fn qps(&self) -> f64 {
        if self.span_secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.span_secs
        }
    }

    /// The paper's cache hit rate: "the ratio of reused prefix tokens to the
    /// total number of tokens per prompt" (§6.2).
    pub fn hit_rate(&self) -> f64 {
        if self.total_tokens == 0 {
            0.0
        } else {
            self.reused_tokens as f64 / self.total_tokens as f64
        }
    }

    /// Computation savings relative to full recomputation
    /// (`1 − computed/total`), the "reduces total computation by up to 58%"
    /// metric.
    pub fn computation_savings(&self) -> f64 {
        if self.total_tokens == 0 {
            0.0
        } else {
            1.0 - self.computed_tokens as f64 / self.total_tokens as f64
        }
    }

    /// Network time as a fraction of GPU compute time (Figure 7 reports
    /// BAT-Hash paying ~31% of inference latency in communication).
    pub fn net_over_compute(&self) -> f64 {
        if self.compute_secs <= 0.0 {
            0.0
        } else {
            self.net_secs / self.compute_secs
        }
    }

    /// Fraction of requests scheduled User-as-prefix.
    pub fn up_share(&self) -> f64 {
        let n = self.up_requests + self.ip_requests;
        if n == 0 {
            0.0
        } else {
            self.up_requests as f64 / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunStats {
        let mut lat = Percentiles::new();
        for i in 1..=100 {
            lat.record(i as f64 / 1000.0);
        }
        RunStats::from_counters(
            "BAT".into(),
            100,
            10.0,
            10_000,
            4_000,
            6_000,
            Bytes::from_mb(5),
            8.0,
            1.0,
            0.5,
            30,
            70,
            &mut lat,
        )
    }

    #[test]
    fn derived_metrics() {
        let s = sample();
        assert_eq!(s.qps(), 10.0);
        assert!((s.hit_rate() - 0.4).abs() < 1e-12);
        assert!((s.computation_savings() - 0.4).abs() < 1e-12);
        assert!((s.net_over_compute() - 0.125).abs() < 1e-12);
        assert!((s.up_share() - 0.3).abs() < 1e-12);
        // Interpolated (type-7) percentiles over 1..=100 ms samples.
        assert!((s.p99_latency_ms - 99.01).abs() < 1e-9);
        assert!((s.p90_latency_ms - 90.1).abs() < 1e-9);
    }

    #[test]
    fn zero_division_guards() {
        let mut lat = Percentiles::new();
        let s = RunStats::from_counters(
            "RE".into(),
            0,
            0.0,
            0,
            0,
            0,
            Bytes::ZERO,
            0.0,
            0.0,
            0.0,
            0,
            0,
            &mut lat,
        );
        assert_eq!(s.qps(), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.computation_savings(), 0.0);
        assert_eq!(s.net_over_compute(), 0.0);
        assert_eq!(s.up_share(), 0.0);
    }

    #[test]
    fn request_record_latency_and_breakdown() {
        let rec = |id: u64, prefix, reused: u64, lat_ms: f64| RequestRecord {
            id: RequestId::new(id),
            arrival_secs: 1.0,
            completion_secs: 1.0 + lat_ms / 1e3,
            prefix,
            reused_tokens: reused,
            computed_tokens: 100 - reused,
            remote_bytes: Bytes::ZERO,
        };
        let records = vec![
            rec(0, PrefixKind::User, 60, 10.0),
            rec(1, PrefixKind::User, 40, 30.0),
            rec(2, PrefixKind::Item, 50, 20.0),
        ];
        assert!((records[0].latency_ms() - 10.0).abs() < 1e-9);
        let rows = breakdown_by_prefix(&records);
        assert_eq!(rows.len(), 2);
        let (kind, n, reuse, p99) = rows[0];
        assert_eq!((kind, n), (PrefixKind::User, 2));
        assert!((reuse - 0.5).abs() < 1e-9);
        // Interpolated (type-7) P99 over the two User samples {10, 30}.
        assert!((p99 - 29.8).abs() < 1e-9);
        // A prefix kind with no requests is omitted.
        let only_item = breakdown_by_prefix(&records[2..]);
        assert_eq!(only_item.len(), 1);
        assert_eq!(only_item[0].0, PrefixKind::Item);
    }

    #[test]
    fn serializes_for_experiment_artifacts() {
        let s = sample();
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"system\":\"BAT\""));
    }
}
