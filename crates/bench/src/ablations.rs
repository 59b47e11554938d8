//! The repo's ablations beyond the paper, one experiment each.

use crate::scenarios::{self, goodput_vs, Overload};
use crate::{cells, f1, f3, Report, RunArgs};
use bat::experiment::{compare_systems, saturation_offered_rate, trace};
use bat::{
    BatchingConfig, Bytes, ClusterConfig, DatasetConfig, EngineConfig, FaultEvent, FaultKind,
    FaultSchedule, ItemId, ItemPlacementPlan, ModelConfig, OraclePolicy, OverloadConfig,
    PlacementStrategy, PolicyKind, RunStats, ServeOptions, ServingEngine, SloBudget, SystemKind,
    TiersConfig, TraceGenerator, TransportKind, WorkerId, Workload,
};
use bat_net::{recv_msg, send_msg, ChannelConn, Conn, KvSegmentMsg, Transport, WireCodec};
use bat_tensor::ColBlock;
use serde_json::json;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's default: Qwen2-1.5B serving `ds` on the 4-node A100
/// testbed (or `nodes` of its nodes) as BAT.
fn bat_on(nodes: usize, ds: &DatasetConfig) -> EngineConfig {
    let cluster = ClusterConfig::a100_4node().with_nodes(nodes);
    EngineConfig::for_system(SystemKind::Bat, ModelConfig::qwen2_1_5b(), cluster, ds)
}

/// Short prompts at saturation: ~10-candidate prompts of 8-token items
/// over a 120-token user prefix, so a whole request fits in one 512-token
/// chunk and rounds fuse many requests.
fn short_prompts() -> DatasetConfig {
    DatasetConfig {
        num_users: 300,
        avg_user_tokens: 120,
        avg_item_tokens: 8,
        candidates_per_request: 10,
        ..DatasetConfig::games()
    }
}

/// Scheduling-policy ablation (DESIGN.md §5). Two studies beyond the
/// paper's Figure 8:
///
/// 1. **Policy ladder** — static IP, cache-agnostic, BAT's hotness-aware
///    rule, and a clairvoyant *oracle* that reads each user's true future
///    request count from the trace. The oracle bounds what any online
///    frequency estimator could achieve; hotness-aware should land between
///    cache-agnostic and the oracle.
/// 2. **Frequency-window sweep** — the estimator's window `W` (§5.3
///    evaluates 5 min and 60 min): too short forgets returning users, too
///    long mistakes stale users for hot ones.
pub fn ablation_scheduling(args: &RunArgs) -> Report {
    let model = ModelConfig::qwen2_1_5b();
    let ds = DatasetConfig::books();
    let duration = args.scale(1200.0, 60.0);
    let cluster = ClusterConfig::a100_4node();
    let rate = saturation_offered_rate(&model, &cluster, &ds, 3.0);
    let trace = scenarios::spec(&model, &cluster, &ds, (duration, rate), 21).trace();
    let base = bat_on(4, &ds);
    let run = |cfg: EngineConfig, oracle: bool| {
        let mut engine = ServingEngine::new(cfg).expect("config valid");
        if oracle {
            engine.set_policy(Box::new(OraclePolicy::from_arrivals(
                trace.iter().map(|r| (r.arrival.as_secs(), r.user)),
                base.freq_window_secs,
                model.kv_bytes_per_token(),
            )));
        }
        let stats = engine.run(&trace);
        (stats.qps(), stats.hit_rate(), stats.up_share())
    };

    let mut r = Report::default();
    r.line(format_args!(
        "Scheduling-policy ladder (Books, Qwen2-1.5B, {} requests)",
        trace.len()
    ));
    let mut rows = Vec::new();
    let mut artifact = Vec::new();
    let ladder = [
        ("static IP", PolicyKind::StaticItem, false),
        ("cache-agnostic", PolicyKind::CacheAgnostic, false),
        ("hotness-aware (BAT)", PolicyKind::HotnessAware, false),
        ("oracle (clairvoyant)", PolicyKind::HotnessAware, true),
    ];
    for (label, policy, oracle) in ladder {
        let cfg = EngineConfig {
            label: label.to_owned(),
            policy,
            ..base.clone()
        };
        let (qps, hit, up) = run(cfg, oracle);
        rows.push(cells![label, f1(qps), f3(hit), f3(up)]);
        artifact.push(json!({ "policy": label, "qps": qps, "hit_rate": hit, "up_share": up }));
    }
    r.table(&["Policy", "QPS", "HitRate", "UP share"], &rows);

    r.line("\nFrequency-estimator window sweep (hotness-aware policy)");
    let mut rows = Vec::new();
    for window in [60.0f64, 300.0, 600.0, 1800.0, 3600.0] {
        let cfg = EngineConfig {
            label: format!("W={window}s"),
            freq_window_secs: window,
            ..base.clone()
        };
        let (qps, hit, up) = run(cfg, false);
        rows.push(cells![format!("{window:.0}s"), f1(qps), f3(hit), f3(up)]);
        artifact.push(json!({
            "window_secs": window, "qps": qps, "hit_rate": hit, "up_share": up,
        }));
    }
    r.table(&["Window W", "QPS", "HitRate", "UP share"], &rows);
    r.artifact = Some(json!(artifact));
    r
}

/// Candidate-set-size ablation: toward generative *retrieval* (§7).
///
/// The paper's future-work claim: "we believe our Bipartite Attention will
/// save more computation for larger candidate item sets" — retrieval-stage
/// candidate sets run to 10K items rather than ranking's ~100. This sweeps
/// the candidate count and reports how the computation savings of IP/BAT
/// grow with it, while UP's shrink (the user block becomes a smaller share
/// of the prompt).
pub fn ablation_candidates(args: &RunArgs) -> Report {
    let model = ModelConfig::qwen2_1_5b();
    let cluster = ClusterConfig::a100_4node();
    let counts: &[u32] = if args.quick {
        &[100, 1000]
    } else {
        &[100, 500, 1000, 5000, 10000]
    };
    let systems = [
        SystemKind::UserPrefix,
        SystemKind::ItemPrefix,
        SystemKind::Bat,
    ];

    let mut rows = Vec::new();
    let mut artifact = Vec::new();
    for &c in counts {
        let mut ds = DatasetConfig::industry();
        ds.candidates_per_request = c;
        // Retrieval-scale prompts exceed the ranking 8K cap by design.
        ds.max_prompt_tokens = ds.max_prompt_tokens.max(c * ds.avg_item_tokens + 9000);
        let rate = saturation_offered_rate(&model, &cluster, &ds, 3.0).max(0.5);
        let spec = scenarios::spec(&model, &cluster, &ds, (args.scale(120.0, 20.0), rate), 31);
        for s in compare_systems(&spec, &systems) {
            let (qps, hit, savings) = (s.qps(), s.hit_rate(), s.computation_savings());
            rows.push(cells![c, s.system, f1(qps), f3(hit), f3(savings)]);
            artifact.push(json!({
                "candidates": c, "system": s.system, "qps": qps,
                "hit_rate": hit, "savings": savings,
            }));
        }
    }
    let mut r = Report::default();
    r.line("Candidate-set-size sweep (Industry, Qwen2-1.5B)");
    let header = ["Candidates", "System", "QPS", "HitRate", "Savings"];
    r.table(&header, &rows);
    r.line("\n(paper §7: item-prefix reuse should dominate as candidate sets grow");
    r.line(" toward retrieval scale — UP savings shrink, IP/BAT savings grow)");
    r.artifact = Some(json!(artifact));
    r
}

/// Burst-hotspot refresh ablation (§5.2 Step 3).
///
/// The paper's placement is computed offline from past access frequencies,
/// then maintained by a background process: "there are some burst hotspots
/// that should be recommended to most users. We update these items in the
/// replicate area." This injects a popularity shift mid-trace (the hot
/// head rotates to a previously cold band of the corpus) on a slow 10 Gbps
/// network, and compares
///
/// * **static HRCS** — the offline plan, never refreshed: the new hot items
///   live on shards, so most item reads turn remote;
/// * **HRCS + background refresh** — item hotness tracked online, the
///   replicated area re-populated every minute: network overhead recovers.
pub fn ablation_hotspot_refresh(args: &RunArgs) -> Report {
    let duration = args.scale(1200.0, 120.0);
    let model = ModelConfig::qwen2_1_5b();
    let mut cluster = ClusterConfig::a100_4node();
    cluster.node = cluster.node.with_network_gbps(10.0);
    let ds = DatasetConfig::books();
    let rate = saturation_offered_rate(&model, &cluster, &ds, 3.0);

    // Popularity shifts a quarter of the way in: ranks rotate halfway
    // around the corpus, so the offline hot head goes cold.
    let shift_at = duration / 4.0;
    let workload = Workload::new(ds.clone(), 77).with_hotspot_shift(shift_at, ds.num_items / 2);
    let trace = TraceGenerator::new(workload, 78).generate(duration, rate);
    let mut r = Report::default();
    r.line(format_args!(
        "Hotspot shift at t={shift_at:.0}s of {duration:.0}s ({} requests, 10Gbps network)",
        trace.len()
    ));

    let base = EngineConfig::for_system(SystemKind::Bat, model, cluster, &ds);
    let mut rows = Vec::new();
    let mut artifact = Vec::new();
    for (label, refresh) in [
        ("static HRCS (offline plan)", None),
        ("HRCS + 60s background refresh", Some(60.0)),
    ] {
        let cfg = EngineConfig {
            label: label.to_owned(),
            item_refresh_interval_secs: refresh,
            ..base.clone()
        };
        let s = scenarios::run(cfg, &trace).expect("config valid");
        let (qps, hit, net) = (s.qps(), s.hit_rate(), s.net_over_compute());
        rows.push(cells![label, f1(qps), f3(hit), f3(net), s.remote_bytes]);
        artifact.push(json!({
            "variant": label, "qps": qps, "hit_rate": hit,
            "net_over_compute": net,
            "remote_bytes": s.remote_bytes.as_u64(),
        }));
    }
    let header = ["Variant", "QPS", "HitRate", "Net/Compute", "Remote bytes"];
    r.table(&header, &rows);
    r.line("\n(the refresh re-replicates the observed hot head, pulling item reads");
    r.line(" back to local memory after the popularity shift)");
    r.artifact = Some(json!(artifact));
    r
}

/// Fault-recovery ablation: the availability story behind the fault
/// subsystem.
///
/// One of four cache workers is killed a third of the way into the trace
/// and restarts halfway through. The report shows the windowed hit-rate
/// availability curve around the outage, the dip depth, and the time until
/// the hit rate returned to the pre-fault steady state — HRCS degrades
/// gracefully (surviving replicas keep hot items local, cold-shard misses
/// fall back to recompute, nothing is dropped) and the background refresh
/// re-warms the returned worker. Gates: every request completes, and the
/// post-recovery hit rate is within 5% of the pre-fault steady state.
pub fn ablation_fault_recovery(args: &RunArgs) -> Report {
    let duration = args.scale(300.0, 30.0);
    let ds = DatasetConfig::games();
    let trace = trace(&ds, (7, 9), duration, 150.0);
    let (crash_at, restart_at) = (duration / 3.0, duration / 2.0);
    let schedule = FaultSchedule::single_crash(4, WorkerId::new(1), crash_at, restart_at)
        .expect("restart follows crash");
    let base = bat_on(4, &ds);
    let healthy = scenarios::run(base.clone(), &trace).expect("config valid");
    let mut r = Report::default();
    let (faulted, timeline) =
        scenarios::faults(&mut r, base, schedule, &trace, Some(&healthy)).expect("config valid");
    let report = &faulted.faults;

    // Post-recovery steady state: windows after the reported recovery
    // point (or after the restart when recovery never registered).
    let recovered_at = if report.time_to_recover_secs >= 0.0 {
        crash_at + report.time_to_recover_secs
    } else {
        restart_at
    };
    let post: Vec<f64> = timeline
        .iter()
        .filter(|(t, _)| *t > recovered_at)
        .map(|(_, h)| *h)
        .collect();
    let post_rate = post.iter().sum::<f64>() / post.len().max(1) as f64;
    r.line(format_args!("post-recovery hit rate: {}", f3(post_rate)));
    let recovers = r.gate(
        "post-recovery hit rate within 5% of the pre-fault steady state",
        (report.pre_fault_hit_rate - post_rate).abs() <= 0.05,
    );
    r.artifact = Some(json!({
        "duration_secs": duration,
        "crash_at": crash_at,
        "restart_at": restart_at,
        "requests": trace.len(),
        "completed": faulted.completed,
        "healthy_hit_rate": healthy.hit_rate(),
        "post_recovery_hit_rate": post_rate,
        "availability_curve": timeline,
        "fault_report": report,
        "completes_all": faulted.completed == trace.len(),
        "recovers_within_5pct": recovers,
    }));
    r
}

/// Meta-failover ablation: the replicated cache-meta service under leader
/// loss and control-plane partitions.
///
/// Three runs over the same trace: fault-free, leader killed a third of
/// the way in (respawning halfway), and leader crash plus a cut fabric
/// link between the client's worker and a peer. The headline claim is
/// that the meta tier is *bitwise invisible* to serving — every request
/// completes and a pure meta-replica crash leaves the final RunStats
/// matching the fault-free run exactly — while the consensus trail
/// (elections, epochs, fenced appends, snapshot catch-up) shows the
/// failover actually happened. The fabric cut is different: the data
/// plane also respects the partition (DESIGN §5c), so the third run
/// still completes everything but detours warm remote-KV pulls to
/// recompute while the link is down (`unreachable_kv_fallbacks`).
pub fn ablation_meta_failover(args: &RunArgs) -> Report {
    let duration = args.scale(120.0, 12.0);
    let ds = DatasetConfig::games();
    let trace = trace(&ds, (7, 9), duration, args.scale(80.0, 60.0));
    let base = bat_on(2, &ds);
    let replicas = base.meta_replicas;
    let (crash_at, restart_at) = (duration / 3.0, duration / 2.0);
    let mut r = Report::default();
    let cut = (duration * 0.6, duration * 0.8);
    let m = scenarios::meta_failover(&mut r, base, &trace, (crash_at, restart_at), Some(cut))
        .expect("the leader crash keeps a quorum");
    let runs: Vec<_> = m
        .runs
        .iter()
        .map(|run| {
            let s = &run.stats;
            json!({
                "label": run.label,
                "completed": s.completed,
                "hit_rate": s.hit_rate(),
                "p99_latency_ms": s.p99_latency_ms,
                "fault_report": &s.faults,
                "bitwise_identical": run.bitwise,
            })
        })
        .collect();
    r.artifact = Some(json!({
        "duration_secs": duration,
        "requests": trace.len(),
        "meta_replicas": replicas,
        "initial_leader": m.leader,
        "crash_at": crash_at,
        "restart_at": restart_at,
        "runs": runs,
        "all_complete": m.all_complete,
        "meta_crash_bitwise_identical": m.crash_bitwise,
        "partitioned_run_detours": m.cut_detours,
        "epochs_advance": m.epochs_advance,
    }));
    r
}

/// Overload-control ablation: the goodput story behind the SLO control
/// plane.
///
/// A steady trace carries a 3x arrival burst through a cluster whose
/// worker 1 is simultaneously a 5x straggler and sits behind a
/// near-outage link (worker 1 holds hot replicated items, so the
/// SlowLink lands on the busiest KV-pull path); during recovery worker 0
/// additionally crashes and rejoins cold, forcing replicated pulls to
/// hedge between the slowed holder and a healthy one. The report compares
/// goodput — requests completed within their deadline — against a
/// fault-free run of the same trace, and shows what each control-plane
/// mechanism did. Gate: with every fault active at once, the control plane
/// holds goodput at ≥ 85% of the no-fault run instead of letting the
/// latency distribution collapse.
pub fn ablation_overload(args: &RunArgs) -> Report {
    // The trace generator's sessions return over time, so the effective
    // arrival rate climbs with the horizon; the full run needs a lower
    // nominal rate than the quick run to keep the *no-fault* baseline out
    // of sustained overload (the ablation is about faults, not sizing).
    // The deadline is generous enough that the backlog (bounded at 1s of
    // estimated wait) builds real pressure and walks the brownout ladder
    // before the infeasibility check starts refusing arrivals.
    let knobs = Overload {
        segment: args.scale(30.0, 4.0),
        rate: args.scale(240.0, 400.0),
        burst: 3.0,
        deadline: 1.0,
        slow: 150.0,
        straggle: 5.0,
    };
    // Default HRCS alpha: the Zipf head is replicated (hedge material once
    // worker 0 goes cold) while the sharded tail's owner-1 pulls cross the
    // slowed link (backoff material).
    let ds = DatasetConfig::books();
    let mut r = Report::default();
    let (healthy, faulted) =
        scenarios::overload(&mut r, bat_on(4, &ds), &ds, (7, 9), &knobs).expect("valid schedule");
    let (s, h) = (&faulted.slo, &healthy.slo);
    let ratio = goodput_vs(s, h);
    let holds = r.gate("goodput ≥ 0.85× the no-fault run", ratio >= 0.85);
    r.artifact = Some(json!({
        "segment_secs": knobs.segment,
        "rate": knobs.rate,
        "deadline_secs": knobs.deadline,
        "requests": s.submitted,
        "healthy_slo": h,
        "faulted_slo": s,
        "fault_report": faulted.faults,
        "healthy_p90_ms": healthy.p90_latency_ms,
        "faulted_p90_ms": faulted.p90_latency_ms,
        "goodput_vs_healthy": ratio,
        "conserved": s.conserved() && h.conserved(),
        "gate_85pct": holds,
    }));
    r
}

/// Transport ablation: what does moving frames through real sockets cost,
/// and does it change anything it must not? Two sections:
///
/// 1. **Determinism gate** — the same seeded trace served over every
///    backend (in-process channels, UDS threads, TCP threads, and UDS
///    child *processes* on unix). Every planner-side digest must equal the
///    channel oracle's.
/// 2. **Packed-KV segment throughput** — plane-major [`KvSegmentMsg`]
///    frames pumped through a UDS socket pair and through the channel
///    backend, versus pure encode/decode. Separates codec cost from
///    kernel-crossing cost.
pub fn ablation_transport(args: &RunArgs) -> Report {
    let ds = DatasetConfig {
        num_users: 300,
        ..DatasetConfig::games()
    };
    let (duration, rate) = (args.scale(20.0, 4.0), args.scale(60.0, 40.0));
    let trace = trace(&ds, (41, 42), duration, rate);
    let mut cluster = ClusterConfig::a100_4node().with_nodes(2);
    cluster.node.kv_cache_capacity = Bytes::from_gb(20);
    let cfg = EngineConfig::for_system(
        SystemKind::UserPrefix,
        ModelConfig::qwen2_1_5b(),
        cluster,
        &ds,
    );
    let mut backends = vec![(TransportKind::Uds, false), (TransportKind::Tcp, false)];
    if cfg!(unix) {
        backends.push((TransportKind::Uds, true));
    }
    let mut r = Report::default();
    r.line(format_args!(
        "determinism gate: {} requests over {duration:.0}s on 2 workers",
        trace.len()
    ));
    let time_scale = ServeOptions::default().time_scale;
    scenarios::transports(&mut r, &cfg, &trace, time_scale, &backends)
        .expect("preset options validate");
    kv_throughput(&mut r, args);
    r
}

/// Pumps `n` KV segments through `tx`/`rx` on two threads and returns the
/// payload rate in MiB/s and the rows received (decode included: the
/// receiver rebuilds the `ColBlock` from every frame).
fn pump_segments(
    tx: Arc<dyn Conn>,
    rx: Arc<dyn Conn>,
    template: &KvSegmentMsg,
    n: usize,
) -> (f64, u64) {
    let payload_bytes = (template.planes.len() * 4) as f64;
    let start = Instant::now();
    let sender = {
        let msg = template.clone();
        std::thread::spawn(move || {
            for _ in 0..n {
                send_msg(tx.as_ref(), &msg).expect("segment sends");
            }
        })
    };
    let mut rows = 0u64;
    for _ in 0..n {
        let msg: KvSegmentMsg = recv_msg(rx.as_ref()).expect("segment arrives");
        rows += msg.to_block().rows() as u64;
    }
    sender.join().expect("sender thread");
    let mibs = payload_bytes * n as f64 / start.elapsed().as_secs_f64() / (1024.0 * 1024.0);
    (mibs, rows)
}

fn kv_throughput(r: &mut Report, args: &RunArgs) {
    // One head's packed plane for a 64-token segment at head_dim 256.
    let mut block = ColBlock::new(64);
    for c in 0..256 {
        let col: Vec<f32> = (0..64).map(|r| (r * 256 + c) as f32 * 1e-3).collect();
        block.push_col(&col);
    }
    let msg = KvSegmentMsg::from_block(bat_kvcache::CacheKey::Item(ItemId::new(7)), 0, &block);
    let n = args.scale(20_000, 2_000);

    // Pure codec: encode + decode round trip, no transport.
    let start = Instant::now();
    for _ in 0..n {
        let bytes = bat_net::encode_frame(&msg.to_frame());
        let (decoded, _) = bat_net::decode_frame(&bytes).expect("decodes");
        std::hint::black_box(KvSegmentMsg::from_frame(&decoded).expect("typed"));
    }
    let codec_mibs = (msg.planes.len() * 4) as f64 * n as f64
        / start.elapsed().as_secs_f64()
        / (1024.0 * 1024.0);

    let (a, b) = ChannelConn::pair();
    let channel = pump_segments(a, b, &msg, n);
    #[cfg(unix)]
    let uds = {
        let t = bat_net::UdsTransport::new();
        let path = std::env::temp_dir()
            .join(format!("bat-ablation-kv-{}.sock", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let listener = t.listen(&path).expect("uds binds");
        let client = t.connect(&listener.local_addr()).expect("uds dials");
        let server = listener
            .accept_timeout(Duration::from_secs(5))
            .expect("uds accepts");
        pump_segments(client, server, &msg, n)
    };
    #[cfg(not(unix))]
    let uds = (f64::NAN, n as u64 * u64::from(msg.rows));

    r.line(format_args!(
        "\nkv segment throughput ({} x {} f32 planes, {n} segments):",
        msg.rows, msg.cols
    ));
    r.table(
        &["path", "MiB/s"],
        &[
            cells!["encode+decode only", f1(codec_mibs)],
            cells!["channel conn (no bytes)", f1(channel.0)],
            cells!["uds socket", f1(uds.0)],
        ],
    );
    let sent = n as u64 * u64::from(msg.rows);
    r.gate(
        "every kv segment decodes whole",
        channel.1 == sent && uds.1 == sent,
    );
}

/// Tiered KV pool ablation: flat cache vs quantized cold tier at an equal
/// hot-tier budget, across cold formats and split policies.
///
/// Every configuration replays the same trace through the serving engine
/// with the same hot (DRAM) budget; tiered rows add a cold tier of fixed
/// byte capacity. Rows report the end-to-end hit rate (reused / total
/// tokens, the paper's §6.2 metric), the cold-tier ledger, and goodput.
/// Gates, the three claims the tier subsystem makes:
///
/// 1. a quantized cold tier raises the end-to-end hit rate at a fixed
///    hot budget over the flat cache (misses become slow cold hits);
/// 2. quantization pays: int8 fits ~4x the entries of f32 in the same
///    cold bytes, so its hit rate is at least f32's;
/// 3. the adaptive user/item partition beats both a static 50/50 split
///    and an all-user split on the same budget.
///
/// They hold at both scales because they compare configurations on one
/// trace rather than chasing absolute numbers.
pub fn ablation_tiers(args: &RunArgs) -> Report {
    // More users than the hot tier can hold, so admission churn feeds the
    // demotion/write-back pipeline; enough items that a capped placement
    // plan leaves a long tail uncached for the cold tier's item half.
    let ds = DatasetConfig {
        num_users: 4000,
        ..DatasetConfig::games()
    };
    let model = ModelConfig::qwen2_1_5b();
    let mut cluster = ClusterConfig::a100_4node().with_nodes(2);
    cluster.node.kv_cache_capacity = Bytes::from_gb(20);
    // Item region capped at ~1500 slots per worker: the ~5000-item tail
    // stays uncached, giving the cold tier's item half real demand.
    let avg_item_kv = model.kv_bytes(ds.avg_item_tokens as u64);
    let plan = ItemPlacementPlan::new(PlacementStrategy::Hrcs, ds.num_items, 2, 0.2, avg_item_kv)
        .fit_to_capacity(Bytes::new(avg_item_kv * 1500));
    // The fixed hot budget every row shares: deliberately starved (a few
    // ~36 MB Games user prefixes) so the cold tier has misses to convert.
    let cold = Bytes::from_mb(400);
    let base = EngineConfig::for_system(SystemKind::Bat, model, cluster, &ds)
        .with_placement(Some(plan))
        .with_user_cache_capacity(Bytes::from_mb(200));
    use bat::{ColdFormat::*, SplitPolicy::*};
    let tier = |format, split| Some(TiersConfig::new(cold).with_format(format).with_split(split));
    let configs = [
        ("flat (no cold tier)", None),
        ("cold f32  adaptive", tier(F32, Adaptive)),
        ("cold f16  adaptive", tier(F16, Adaptive)),
        ("cold int8 adaptive", tier(Int8, Adaptive)),
        ("cold int8 static 50/50", tier(Int8, Static(0.5))),
        ("cold int8 all-user", tier(Int8, AllUser)),
    ];
    let mut r = Report::default();
    let scale = (args.scale(120.0, 20.0), args.scale(80.0, 40.0));
    let stats = scenarios::tiers(&mut r, &base, &ds, scale, cold, &configs).expect("engine config");
    let hit: Vec<f64> = stats.iter().map(RunStats::hit_rate).collect();
    let (flat, f32_row, int8, static_split, all_user) = (hit[0], hit[1], hit[3], hit[4], hit[5]);
    let mut claim = |what: &str, holds: bool, other: f64| {
        r.gate(format!("{what}: {int8:.4} vs {other:.4}"), holds);
    };
    claim("int8 tier > flat", int8 > flat, flat);
    claim("int8 tier >= f32 tier", int8 >= f32_row, f32_row);
    claim(
        "adaptive split > static 50/50",
        int8 > static_split,
        static_split,
    );
    claim("adaptive split > all-user", int8 > all_user, all_user);
    let artifact: Vec<_> = configs
        .iter()
        .zip(&stats)
        .map(|((label, _), s)| {
            json!({
                "config": label,
                "hit_rate": s.hit_rate(),
                "qps": s.qps(),
                "p99_latency_ms": s.p99_latency_ms,
                "tiers": s.tiers,
            })
        })
        .collect();
    r.artifact = Some(json!(artifact));
    r
}

/// Continuous-batching ablation: the sustained-throughput story behind
/// the slot scheduler.
///
/// The workload is the regime where per-request dispatch overhead rivals
/// the service itself: short prompts (every request fits in one prefill
/// chunk) arriving at saturation, with a 3x burst in the middle segment.
/// The baseline dispatches per request (`max_batched_tokens = 1`, one
/// batch overhead per request); the continuous run seats chunks from all
/// in-flight requests into fixed worker slots and refills the moment any
/// chunk retires, amortizing the overhead across every seated chunk.
///
/// Gates:
/// - continuous batching sustains ≥ 1.3x the baseline throughput on the
///   same trace (both runs complete every request — the win is a shorter
///   span, not dropped work);
/// - at saturation no worker idle gap exceeds one chunk service (the
///   refill-on-retire property, measured by the scheduler itself);
/// - the threaded serve runtime forms bitwise-identical batches to the
///   simulator (RunStats digest match) — batch formation runs on nominal
///   time, so wall-clock jitter and thread interleaving cannot move it.
pub fn ablation_batching(args: &RunArgs) -> Report {
    let segment = args.scale(1.5, 0.5);
    let rate = 2000.0;
    let ds = short_prompts();
    // Steady / 3x burst / recovery segments on one resumable timeline.
    let mut gen = TraceGenerator::new(Workload::new(ds.clone(), 11), 12);
    let mut trace = gen.generate(segment, rate);
    trace.extend(gen.generate(segment, 3.0 * rate));
    trace.extend(gen.generate(segment, rate));
    let mut r = Report::default();
    r.line(format_args!(
        "{} requests over {:.1}s on 2 workers; 3x burst in [{segment:.1}s, {:.1}s)",
        trace.len(),
        3.0 * segment,
        2.0 * segment,
    ));

    // Per-request baseline: one batch overhead per request.
    let mut base_cfg = bat_on(2, &ds);
    base_cfg.cluster.max_batched_tokens = 1;
    let cont_cfg = bat_on(2, &ds).with_batching(Some(BatchingConfig {
        slots_per_worker: 8,
        chunk_tokens: 512,
    }));
    let run = |cfg| scenarios::run(cfg, &trace).expect("config valid");
    let (base, cont) = (run(base_cfg), run(cont_cfg.clone()));
    let served = scenarios::serve(cont_cfg, ServeOptions::default(), &trace).expect("config valid");

    let b = &cont.batching;
    let row = |label: &str, s: &RunStats| {
        let sb = &s.batching;
        cells![
            label,
            s.completed,
            f1(s.qps()),
            sb.rounds,
            sb.chunks,
            sb.peak_seated
        ]
    };
    r.table(
        &[
            "Dispatch",
            "Completed",
            "QPS",
            "Rounds",
            "Chunks",
            "Peak seats",
        ],
        &[
            row("per-request", &base),
            row("continuous (sim)", &cont),
            row("continuous (serve)", &served),
        ],
    );
    let ratio = cont.qps() / base.qps();
    let (serve_digest, sim_digest) = (served.digest(), cont.digest());
    r.line(format_args!(
        "\nthroughput vs per-request: {ratio:.3}x | max idle gap {:.3} chunks | serve digest \
         {serve_digest:016x} vs sim {sim_digest:016x}",
        b.max_idle_gap_over_chunk
    ));
    let complete = r.gate(
        "both runs complete every request",
        base.completed == trace.len() && cont.completed == trace.len(),
    );
    let throughput_holds = r.gate(
        "continuous batching ≥ 1.3× per-request throughput",
        ratio >= 1.3,
    );
    let no_idle_gaps = r.gate(
        "no worker idle gap exceeds one chunk",
        b.max_idle_gap_over_chunk <= 1.0,
    );
    let digests_match = r.gate(
        "the threaded runtime forms the simulator's batches (digest match)",
        serve_digest == sim_digest,
    );
    r.artifact = Some(json!({
        "segment_secs": segment,
        "rate": rate,
        "requests": trace.len(),
        "baseline_qps": base.qps(),
        "continuous_qps": cont.qps(),
        "throughput_ratio": ratio,
        "batching": b,
        "serve_digest": format!("{serve_digest:016x}"),
        "sim_digest": format!("{sim_digest:016x}"),
        "gate_1_3x": throughput_holds,
        "gate_no_idle_gaps": no_idle_gaps,
        "gate_digest_match": digests_match,
        "gate_complete": complete,
    }));
    r
}

/// Elastic-membership ablation: the goodput story behind fault-tolerant
/// continuous batching.
///
/// One trace, two membership histories. The *static* run keeps all four
/// workers for the whole trace; the *elastic* run drains worker 1 a
/// quarter of the way in (planned scale-in: its in-flight round finishes,
/// seated chunks migrate), SIGKILLs worker 2 mid-batch (unplanned: seated
/// chunks requeue through the crash path), restarts it, and finally joins
/// worker 1 back (planned scale-out: re-planned into the slot map
/// mid-run). Gates: elastic goodput holds ≥ 80% of static, the extended
/// conservation law (`submitted == completed + shed + rejected`, with
/// `migrated` a pure movement ledger) balances on both runs, and the
/// threaded serve runtime — child OS processes over Unix sockets, so the
/// kill is a real SIGKILL severing a socket mid-frame — lands the
/// simulator's exact digest.
pub fn ablation_elastic(args: &RunArgs) -> Report {
    let duration = args.scale(40.0, 8.0);
    let rate = 700.0;
    let ds = short_prompts();
    let mut gen = TraceGenerator::new(Workload::new(ds.clone(), 7), 9);
    gen.set_slo(SloBudget::with_deadline(0.15));
    let trace = gen.generate(duration, rate);

    // Planned scale-in, an unplanned mid-batch kill, the recovery, and a
    // planned scale-out — the full membership alphabet on one timeline.
    let ev = |at, kind| FaultEvent {
        at_secs: duration * at,
        kind,
    };
    let schedule = FaultSchedule::new(
        4,
        vec![
            ev(0.25, FaultKind::WorkerDrain(WorkerId::new(1))),
            ev(0.40, FaultKind::WorkerCrash(WorkerId::new(2))),
            ev(0.60, FaultKind::WorkerRestart(WorkerId::new(2))),
            ev(0.70, FaultKind::WorkerJoin(WorkerId::new(1))),
        ],
    )
    .expect("membership schedule validates");
    let base = bat_on(4, &ds)
        .with_batching(Some(BatchingConfig::default()))
        .with_slo(Some(OverloadConfig));
    let mut r = Report::default();
    r.line(format_args!(
        "{} on 4 nodes, {} requests over {duration:.0}s at {rate:.0} qps, deadline 0.15s",
        ds.name,
        trace.len()
    ));
    let stat = scenarios::run(base.clone(), &trace).expect("config valid");
    // The physical run: real child processes, real SIGKILL mid-batch.
    let opts = ServeOptions {
        transport: TransportKind::Uds,
        processes: true,
        ..ServeOptions::default()
    };
    let (elastic, digest_ok) =
        scenarios::membership(&mut r, base, schedule.clone(), &trace, opts).expect("options valid");
    let (e, s) = (&elastic.slo, &stat.slo);
    r.line("");
    scenarios::slo_ledger(&mut r, &[("elastic", &elastic), ("static", &stat)]);
    let ratio = goodput_vs(e, s);
    r.line(format_args!("\ngoodput vs static: {}", f3(ratio)));
    r.gate(
        "conservation: submitted == completed + shed + rejected",
        e.conserved() && s.conserved(),
    );
    r.gate("elastic goodput ≥ 80% of static membership", ratio >= 0.80);
    r.artifact = Some(json!({
        "duration_secs": duration,
        "requests": trace.len(),
        "schedule": schedule.events(),
        "static_slo": s,
        "elastic_slo": e,
        "elastic_batching": &elastic.batching,
        "goodput_ratio_vs_static": ratio,
        "digest_matches_simulator": digest_ok,
    }));
    r
}
