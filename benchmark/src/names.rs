//! The names this harness emits, and the check that `BENCHMARK.json` at the
//! repo root declares exactly the same ones.

use serde_json::Value;

pub const WORKLOADS: &[&str] = &["rank_warm", "rank_churn", "serve_slots", "sim_replay"];

/// `(name, unit)` of every end-to-end metric, reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric. A traced run reports all of
/// them; a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // rank_warm / rank_churn: spans inside `rank_once`.
    ("sched.policy_decide.ns", "ns"),
    ("kvcache.user_lookup.ns", "ns"),
    ("kvcache.segment_get.ns", "ns"),
    ("model.prompt_build.us", "us"),
    ("model.kv_concat.us", "us"),
    ("model.score_topk.us", "us"),
    ("model.forward_up_hit.ms_p50", "ms"),
    ("model.forward_ip_hit.ms_p50", "ms"),
    ("model.forward_cold.ms_p50", "ms"),
    ("model.compute_kv_user.ms_p50", "ms"),
    ("model.compute_kv_item.us_p50", "us"),
    ("kvcache.segment_insert.us", "us"),
    ("kvcache.user_admit.ns", "ns"),
    ("tiers.demote_quantize.us", "us"),
    ("tiers.cold_lookup.ns", "ns"),
    ("model.forward.tokens_per_s", "1/s"),
    ("model.forward.gflop_per_s", "GFLOP/s"),
    ("rank.up.share", "share"),
    ("rank.prefix_reuse.share", "share"),
    ("rank.computed_tokens.count", "count"),
    ("kvcache.evictions.count", "count"),
    ("kvcache.store_fill.share", "share"),
    ("exec.pool_width.count", "count"),
    ("rank.harness_self.share", "share"),
    // serve_slots: the whole call, then each layer replayed alone.
    ("serve.wall_per_round.us", "us"),
    ("serve.unattributed.share", "share"),
    ("serve.sys_cpu.share", "share"),
    ("sim.planner_plan.ns", "ns"),
    ("sched.slots_round.ns", "ns"),
    ("sched.overload_on_arrival.ns", "ns"),
    ("net.dispatch_codec.ns", "ns"),
    ("net.completion_codec.ns", "ns"),
    ("net.kvseg_codec.mib_per_s", "MiB/s"),
    ("net.uds_rtt.us_p50", "us"),
    ("net.tcp_rtt.us_p50", "us"),
    ("net.channel_rtt.us_p50", "us"),
    ("meta.commit.us", "us"),
    ("serve.dispatch_path.rps", "1/s"),
    ("serve.slots_channel.rps", "1/s"),
    ("serve.rounds.count", "count"),
    ("serve.chunks.count", "count"),
    // sim_replay: one span per engine run, then each layer replayed alone.
    ("sim.run_dispatch.rps", "1/s"),
    ("sim.run_slots.rps", "1/s"),
    ("sim.run_recompute.rps", "1/s"),
    ("sim.run_up.rps", "1/s"),
    ("sim.run_ip.rps", "1/s"),
    ("sim.run_bat.rps", "1/s"),
    ("sim.engine_new.ms", "ms"),
    ("workload.trace_gen.ns", "ns"),
    ("placement.hrcs_plan.ms", "ms"),
    ("placement.locate.ns", "ns"),
    ("kvcache.user_cache_replay.ns", "ns"),
    ("kvcache.freq_record.ns", "ns"),
    ("tiers.pool_replay.ns", "ns"),
    ("sim.hit_rate.share", "share"),
    ("sim.up.share", "share"),
    // every workload
    ("harness.trace_overhead.share", "share"),
];

fn declared(doc: &Value, key: &str, with_unit: bool) -> Result<Vec<(String, String)>, String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no array {key:?}"))?
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("an entry of {key:?} has no string {f:?}"))
            };
            Ok((
                field("name")?,
                if with_unit {
                    field("unit")?
                } else {
                    String::new()
                },
            ))
        })
        .collect()
}

fn same(what: &str, declared: &[(String, String)], emitted: &[(&str, &str)]) -> Result<(), String> {
    let emitted: Vec<(String, String)> = emitted
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect();
    for d in declared {
        if !emitted.contains(d) {
            return Err(format!("{what} {d:?} is declared but not emitted"));
        }
    }
    for e in &emitted {
        if !declared.contains(e) {
            return Err(format!("{what} {e:?} is emitted but not declared"));
        }
    }
    Ok(())
}

/// Fails if the workload or metric names (and units) in the file at `path`
/// differ from what this harness emits.
pub fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|&w| (w, "")).collect();
    same("workload", &declared(&doc, "workloads", false)?, &workloads)?;
    same(
        "end-to-end metric",
        &declared(&doc, "end_to_end", true)?,
        END_TO_END,
    )?;
    same(
        "per-layer metric",
        &declared(&doc, "per_layer", true)?,
        PER_LAYER,
    )
}
