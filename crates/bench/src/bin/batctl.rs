//! `batctl` — command-line front-end for the BAT reproduction.
//!
//! ```text
//! batctl compare  --dataset books --model qwen2-1.5b --nodes 4 \
//!                 --duration 60 --rate 150 [--systems re,up,ip,bat]
//! batctl accuracy [--seed 7] [--users 40] [--biased] [--pic 0.15]
//! batctl plan     --dataset industry [--gbps 100] [--nodes 4]
//! batctl trace    --dataset games --duration 30 --rate 50 --out trace.jsonl
//! batctl info     --trace trace.jsonl
//! batctl breakdown --dataset industry --duration 30 --rate 80
//! batctl faults   --dataset games --duration 60 --rate 120 \
//!                 [--crash 1 --at 20 --down 10 | --crashes 2 --seed 1]
//! batctl overload --dataset books --duration 10 --rate 300 \
//!                 [--burst 3 --deadline 1.0 --slow 150 --straggle 5]
//! batctl meta     --dataset games --duration 30 --rate 60 \
//!                 [--replicas 3 --at 10 --down 5]
//! batctl net      --dataset games --duration 10 --rate 60 \
//!                 [--transport channel|uds|tcp] [--processes] [--scale 1e-3]
//! batctl bench    [--quick] [--threads 4] [--out BENCH_KERNELS.json] [--check BENCH_KERNELS.json]
//!                 | --stages [--threads 2]
//! batctl tiers    --dataset games --duration 20 --rate 40 \
//!                 [--hot-mb 200 --cold-mb 400] [--format f32|f16|int8] \
//!                 [--split adaptive|static:0.5|all-user]
//! batctl drain    --worker 1 [--at 6] --dataset games --duration 20 \
//!                 --rate 60 --nodes 2 [--processes] [--scale 1e-3]
//! batctl join     --worker 1 [--leave 5 --at 10] --dataset games \
//!                 --duration 20 --rate 60 --nodes 2 [--processes]
//! ```
//!
//! The global `--threads N` flag sizes the `bat-exec` worker pool for any
//! command (results are bit-identical at every width by construction).
//!
//! Everything is offline and deterministic; see `README.md` for the
//! figure-regeneration harnesses.

use bat::experiment::{accuracy_rows, compare_systems, ComparisonSpec};
use bat::{
    BatchingConfig, Bytes, ClusterConfig, ColdFormat, ComputeModel, DatasetConfig, EngineConfig,
    FaultEvent, FaultKind, FaultSchedule, ItemPlacementPlan, ModelConfig, OverloadConfig,
    PlacementStrategy, PrefixKind, Priority, SemanticConfig, ServeOptions, ServeRuntime,
    ServingEngine, SloBudget, SplitPolicy, SystemKind, TiersConfig, TraceGenerator, TransportKind,
    WorkerId, Workload, ZipfLaw,
};
use bat_bench::{f1, f3, print_table};
use bat_placement::{compute_replication_ratio, HrcsParams};
use bat_sim::breakdown_by_prefix;
use std::collections::HashMap;
use std::process::ExitCode;

/// A command line the chosen subcommand does not accept.
#[derive(Debug, PartialEq)]
enum FlagError {
    /// `--flag` is not one of the subcommand's `legal` flags.
    Unknown {
        flag: String,
        legal: &'static [&'static str],
    },
    /// A bare word that is not the value of any flag.
    StrayArgument {
        arg: String,
        legal: &'static [&'static str],
    },
}

impl std::fmt::Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (what, legal) = match self {
            FlagError::Unknown { flag, legal } => (format!("unknown flag --{flag}"), legal),
            FlagError::StrayArgument { arg, legal } => (format!("stray argument '{arg}'"), legal),
        };
        write!(f, "{what}; legal flags:")?;
        for flag in legal.iter().chain(&GLOBAL_FLAGS) {
            write!(f, " --{flag}")?;
        }
        Ok(())
    }
}

/// Flags every subcommand accepts.
const GLOBAL_FLAGS: [&str; 1] = ["threads"];

/// Parses `--key [value]` pairs (a flag followed by another flag, or by
/// nothing, is a boolean `true`), accepting only `legal` and global flags.
fn parse_flags(
    args: &[String],
    legal: &'static [&'static str],
) -> Result<HashMap<String, String>, FlagError> {
    let mut map = HashMap::new();
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(FlagError::StrayArgument {
                arg: arg.clone(),
                legal,
            });
        };
        if !legal.contains(&key) && !GLOBAL_FLAGS.contains(&key) {
            return Err(FlagError::Unknown {
                flag: key.to_owned(),
                legal,
            });
        }
        let value = args
            .next_if(|v| !v.starts_with("--"))
            .map_or_else(|| "true".to_owned(), String::clone);
        map.insert(key.to_owned(), value);
    }
    Ok(map)
}

fn dataset(name: &str) -> Result<DatasetConfig, String> {
    match name.to_lowercase().as_str() {
        "games" => Ok(DatasetConfig::games()),
        "beauty" => Ok(DatasetConfig::beauty()),
        "books" => Ok(DatasetConfig::books()),
        "industry" => Ok(DatasetConfig::industry()),
        other => {
            if let Some(items) = other.strip_prefix("industry-") {
                let n = parse_count(items)?;
                return Ok(DatasetConfig::industry_x(n));
            }
            if let Some(items) = other.strip_prefix("books-") {
                let n = parse_count(items)?;
                return Ok(DatasetConfig::books_x(n));
            }
            Err(format!(
                "unknown dataset '{other}' (games|beauty|books|industry[-N])"
            ))
        }
    }
}

fn parse_count(s: &str) -> Result<u64, String> {
    let (num, mult) = match s.to_lowercase() {
        ref x if x.ends_with('m') => (x[..x.len() - 1].to_owned(), 1_000_000),
        ref x if x.ends_with('k') => (x[..x.len() - 1].to_owned(), 1_000),
        x => (x, 1),
    };
    num.parse::<u64>()
        .map(|n| n * mult)
        .map_err(|e| format!("bad count '{s}': {e}"))
}

fn model(name: &str) -> Result<ModelConfig, String> {
    match name.to_lowercase().as_str() {
        "qwen2-1.5b" | "qwen" => Ok(ModelConfig::qwen2_1_5b()),
        "qwen2-7b" => Ok(ModelConfig::qwen2_7b()),
        "llama3-1b" | "llama" => Ok(ModelConfig::llama3_1b()),
        other => Err(format!(
            "unknown model '{other}' (qwen2-1.5b|qwen2-7b|llama3-1b)"
        )),
    }
}

fn flag_f64(flags: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("bad --{key}: {e}")),
    }
}

fn flag_usize(flags: &HashMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("bad --{key}: {e}")),
    }
}

fn cmd_compare(flags: &HashMap<String, String>) -> Result<(), String> {
    let ds = dataset(flags.get("dataset").map_or("games", String::as_str))?;
    let model = model(flags.get("model").map_or("qwen2-1.5b", String::as_str))?;
    let nodes = flag_usize(flags, "nodes", 4)?;
    let duration = flag_f64(flags, "duration", 60.0)?;
    let rate = flag_f64(flags, "rate", 100.0)?;
    let seed = flag_f64(flags, "seed", 1.0)? as u64;
    let systems: Vec<SystemKind> = flags
        .get("systems")
        .map_or("re,up,ip,bat", String::as_str)
        .split(',')
        .map(|s| match s.trim().to_lowercase().as_str() {
            "re" => Ok(SystemKind::Recompute),
            "up" => Ok(SystemKind::UserPrefix),
            "ip" => Ok(SystemKind::ItemPrefix),
            "bat" => Ok(SystemKind::Bat),
            other => Err(format!("unknown system '{other}'")),
        })
        .collect::<Result<_, _>>()?;

    let spec = ComparisonSpec {
        model,
        cluster: ClusterConfig::a100_4node().with_nodes(nodes),
        dataset: ds.clone(),
        duration_secs: duration,
        offered_rate: rate,
        seed,
    };
    let stats = compare_systems(&spec, &systems);
    println!(
        "{} on {} nodes, {duration:.0}s at {rate:.0} req/s:",
        ds.name, nodes
    );
    let rows: Vec<Vec<String>> = stats
        .iter()
        .map(|s| {
            vec![
                s.system.clone(),
                f1(s.qps()),
                f3(s.hit_rate()),
                f3(s.computation_savings()),
                f1(s.p99_latency_ms),
            ]
        })
        .collect();
    print_table(&["System", "QPS", "HitRate", "Savings", "P99 (ms)"], &rows);
    Ok(())
}

fn cmd_accuracy(flags: &HashMap<String, String>) -> Result<(), String> {
    let seed = flag_f64(flags, "seed", 7.0)? as u64;
    let users = flag_usize(flags, "users", 40)?;
    let mut cfg = SemanticConfig::table3_world(seed);
    if flags.contains_key("biased") {
        cfg = cfg.order_biased();
    }
    let pic = match flags.get("pic") {
        None => None,
        Some(v) => Some(v.parse::<f32>().map_err(|e| format!("bad --pic: {e}"))?),
    };
    let rows = accuracy_rows(cfg, users, pic);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let m = r.metrics.table3_row();
            vec![r.strategy.clone(), f3(m[0]), f3(m[1]), f3(m[2]), f3(m[3])]
        })
        .collect();
    print_table(&["Strategy", "R@10", "MRR@10", "NDCG@10", "R@5"], &table);
    Ok(())
}

fn cmd_plan(flags: &HashMap<String, String>) -> Result<(), String> {
    let ds = dataset(flags.get("dataset").map_or("industry", String::as_str))?;
    let nodes = flag_usize(flags, "nodes", 4)?;
    let gbps = flag_f64(flags, "gbps", 100.0)?;
    let model = model(flags.get("model").map_or("qwen2-1.5b", String::as_str))?;
    let mut cluster = ClusterConfig::a100_4node().with_nodes(nodes);
    cluster.node = cluster.node.with_network_gbps(gbps);
    let compute = ComputeModel::new(model.clone(), cluster.node.clone());
    let law = ZipfLaw::new(ds.num_items, ds.item_zipf_exponent);
    let params = HrcsParams {
        bandwidth_tokens_per_sec: compute.net_tokens_per_sec(),
        prefill_time_secs: compute.prefill_estimate_secs(
            ds.avg_user_tokens as u64,
            ds.avg_prompt_item_tokens() as u64,
        ),
        alpha: cluster.alpha,
        candidates_per_request: ds.candidates_per_request,
        avg_item_tokens: ds.avg_item_tokens as f64,
        num_workers: nodes,
    };
    let r = compute_replication_ratio(&params, &law);
    let plan = ItemPlacementPlan::new(
        PlacementStrategy::Hrcs,
        ds.num_items,
        nodes,
        r,
        model.kv_bytes(ds.avg_item_tokens as u64),
    )
    .fit_to_capacity(bat::Bytes::new(
        cluster.node.kv_cache_capacity.as_u64() * 4 / 5,
    ));
    println!(
        "HRCS plan for {} on {nodes} nodes at {gbps:.0}Gbps:",
        ds.name
    );
    println!("  max remote ratio R  {:.4}", params.max_remote_ratio());
    println!("  replication ratio r {:.4}", plan.replication_ratio());
    println!("  replicated items    {}", plan.replicated_items());
    println!(
        "  cached items        {} / {}",
        plan.cached_items(),
        plan.num_items()
    );
    println!("  item region / node  {}", plan.per_worker_bytes());
    Ok(())
}

fn cmd_trace(flags: &HashMap<String, String>) -> Result<(), String> {
    let ds = dataset(flags.get("dataset").map_or("games", String::as_str))?;
    let duration = flag_f64(flags, "duration", 30.0)?;
    let rate = flag_f64(flags, "rate", 50.0)?;
    let seed = flag_f64(flags, "seed", 1.0)? as u64;
    let out = flags.get("out").ok_or("missing --out FILE")?;
    let mut gen = TraceGenerator::new(Workload::new(ds, seed), seed ^ 0xbadc0ffe);
    let trace = gen.generate(duration, rate);
    bat_workload::save_trace(out, &trace).map_err(|e| e.to_string())?;
    println!("wrote {} requests to {out}", trace.len());
    Ok(())
}

fn cmd_info(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = flags.get("trace").ok_or("missing --trace FILE")?;
    let trace = bat_workload::load_trace(path).map_err(|e| e.to_string())?;
    let users: std::collections::HashSet<_> = trace.iter().map(|r| r.user).collect();
    let tokens: u64 = trace.iter().map(|r| r.total_tokens() as u64).sum();
    let span = trace
        .last()
        .zip(trace.first())
        .map_or(0.0, |(l, f)| l.arrival - f.arrival);
    println!("{path}: {} requests over {span:.1}s", trace.len());
    println!("  distinct users: {}", users.len());
    println!("  total tokens:   {tokens}");
    Ok(())
}

fn cmd_breakdown(flags: &HashMap<String, String>) -> Result<(), String> {
    let ds = dataset(flags.get("dataset").map_or("industry", String::as_str))?;
    let duration = flag_f64(flags, "duration", 30.0)?;
    let rate = flag_f64(flags, "rate", 80.0)?;
    let model = model(flags.get("model").map_or("qwen2-1.5b", String::as_str))?;
    let cluster = ClusterConfig::a100_4node();
    let mut cfg = EngineConfig::for_system(SystemKind::Bat, model, cluster, &ds);
    cfg.record_requests = true;
    let mut gen = TraceGenerator::new(Workload::new(ds.clone(), 1), 2);
    let trace = gen.generate(duration, rate);
    let mut engine = ServingEngine::new(cfg).map_err(|e| e.to_string())?;
    let stats = engine.run(&trace);
    let records = engine.take_records();
    println!(
        "{}: {} requests, overall hit rate {:.3}",
        ds.name,
        stats.completed,
        stats.hit_rate()
    );
    let rows: Vec<Vec<String>> = breakdown_by_prefix(&records)
        .into_iter()
        .map(|(kind, n, reuse, p99)| {
            vec![
                match kind {
                    PrefixKind::User => "User-as-prefix".to_owned(),
                    PrefixKind::Item => "Item-as-prefix".to_owned(),
                },
                n.to_string(),
                f3(reuse),
                f1(p99),
            ]
        })
        .collect();
    print_table(&["Prefix", "Requests", "Mean reuse", "P99 (ms)"], &rows);
    Ok(())
}

fn cmd_faults(flags: &HashMap<String, String>) -> Result<(), String> {
    let ds = dataset(flags.get("dataset").map_or("games", String::as_str))?;
    let duration = flag_f64(flags, "duration", 60.0)?;
    let rate = flag_f64(flags, "rate", 120.0)?;
    let seed = flag_f64(flags, "seed", 1.0)? as u64;
    let nodes = flag_usize(flags, "nodes", 4)?;
    let model = model(flags.get("model").map_or("qwen2-1.5b", String::as_str))?;
    let cluster = ClusterConfig::a100_4node().with_nodes(nodes);

    // Either the canonical kill-one-worker schedule (--crash W [--down S])
    // or a seeded random one (--crashes N).
    let schedule = if let Some(w) = flags.get("crash") {
        let w: usize = w.parse().map_err(|e| format!("bad --crash: {e}"))?;
        let crash_at = flag_f64(flags, "at", duration / 3.0)?;
        let down = flag_f64(flags, "down", duration / 6.0)?;
        FaultSchedule::single_crash(nodes, WorkerId::new(w as u64), crash_at, crash_at + down)
            .map_err(|e| e.to_string())?
    } else {
        let crashes = flag_usize(flags, "crashes", 2)?;
        FaultSchedule::random(seed, nodes, duration, crashes)
    };

    let mut gen = TraceGenerator::new(Workload::new(ds.clone(), seed), seed ^ 0xbadc0ffe);
    let trace = gen.generate(duration, rate);
    let cfg = EngineConfig::for_system(SystemKind::Bat, model, cluster, &ds)
        .with_faults(Some(schedule.clone()));
    let mut engine = ServingEngine::new(cfg).map_err(|e| e.to_string())?;
    let stats = engine.run(&trace);
    let r = &stats.faults;

    println!(
        "{} on {nodes} nodes, {} requests over {duration:.0}s under {} fault events:",
        ds.name,
        trace.len(),
        schedule.events().len()
    );
    for e in schedule.events() {
        println!("  t={:6.1}s  {:?}", e.at_secs, e.kind);
    }
    println!(
        "\ncompleted {}/{} (faults never drop requests)",
        stats.completed,
        trace.len()
    );
    let rows = vec![
        vec!["hit rate (whole run)".to_owned(), f3(stats.hit_rate())],
        vec![
            "pre-fault steady hit rate".to_owned(),
            f3(r.pre_fault_hit_rate),
        ],
        vec![
            "min hit rate after fault".to_owned(),
            f3(r.min_hit_rate_after_fault),
        ],
        vec!["hit-rate dip".to_owned(), f3(r.hit_rate_dip)],
        vec!["time to recover (s)".to_owned(), f1(r.time_to_recover_secs)],
        vec![
            "entries invalidated".to_owned(),
            r.invalidated_entries.to_string(),
        ],
        vec![
            "replica hits during outage".to_owned(),
            r.replica_hits_during_outage.to_string(),
        ],
        vec![
            "recompute fallbacks".to_owned(),
            r.recompute_fallbacks.to_string(),
        ],
        vec![
            "stall-forced recomputes".to_owned(),
            r.stall_forced_recomputes.to_string(),
        ],
        vec![
            "items re-warmed on restart".to_owned(),
            r.rewarmed_items.to_string(),
        ],
    ];
    print_table(&["Degradation / recovery", "Value"], &rows);
    if r.time_to_recover_secs < 0.0 && r.crashes > 0 {
        println!("\n(hit rate had not recovered to steady state by end of trace)");
    }
    Ok(())
}

fn cmd_overload(flags: &HashMap<String, String>) -> Result<(), String> {
    let ds = dataset(flags.get("dataset").map_or("books", String::as_str))?;
    let segment = flag_f64(flags, "duration", 10.0)?;
    let rate = flag_f64(flags, "rate", 300.0)?;
    let burst = flag_f64(flags, "burst", 3.0)?;
    let deadline = flag_f64(flags, "deadline", 1.0)?;
    let slow = flag_f64(flags, "slow", 150.0)?;
    let straggle = flag_f64(flags, "straggle", 5.0)?;
    let seed = flag_f64(flags, "seed", 7.0)? as u64;
    let nodes = flag_usize(flags, "nodes", 4)?;
    let model = model(flags.get("model").map_or("qwen2-1.5b", String::as_str))?;
    let cluster = ClusterConfig::a100_4node().with_nodes(nodes);
    if nodes < 2 {
        return Err("overload needs at least 2 nodes (the slow link has two ends)".into());
    }

    // Steady / burst / recovery segments on one resumable timeline; the
    // burst is best-effort (Priority::Low) so the brownout ladder has a
    // class to shed first.
    let mut gen = TraceGenerator::new(Workload::new(ds.clone(), seed), seed ^ 0xbadc0ffe);
    gen.set_slo(SloBudget::with_deadline(deadline).at_priority(Priority::Normal));
    let mut trace = gen.generate(segment, rate);
    gen.set_slo(SloBudget::with_deadline(deadline).at_priority(Priority::Low));
    trace.extend(gen.generate(segment, burst * rate));
    gen.set_slo(SloBudget::with_deadline(deadline).at_priority(Priority::Normal));
    trace.extend(gen.generate(segment, rate));

    // The compound fault: worker 1 straggles and sits behind a near-outage
    // link for the burst plus half the recovery; worker 0 crashes early in
    // recovery and rejoins cold, so hot replicated pulls must hedge.
    let slow_link = |at_secs, factor| FaultEvent {
        at_secs,
        kind: FaultKind::SlowLink {
            a: WorkerId::new(0),
            b: WorkerId::new(1),
            factor,
        },
    };
    let schedule = FaultSchedule::new(
        nodes,
        vec![
            slow_link(segment, slow),
            FaultEvent {
                at_secs: 2.05 * segment,
                kind: FaultKind::WorkerCrash(WorkerId::new(0)),
            },
            FaultEvent {
                at_secs: 2.1 * segment,
                kind: FaultKind::WorkerRestart(WorkerId::new(0)),
            },
            slow_link(2.5 * segment, 1.0),
        ],
    )
    .map_err(|e| e.to_string())?;

    let base = EngineConfig::for_system(SystemKind::Bat, model, cluster, &ds)
        .with_slo(Some(OverloadConfig::default()));
    let faulted_cfg = base
        .clone()
        .with_straggler(Some((1, straggle)))
        .with_faults(Some(schedule));
    let healthy = ServingEngine::new(base)
        .map_err(|e| e.to_string())?
        .run(&trace);
    let faulted = ServingEngine::new(faulted_cfg)
        .map_err(|e| e.to_string())?
        .run(&trace);
    let s = &faulted.slo;
    let h = &healthy.slo;
    let r = &faulted.faults;

    println!(
        "{} on {nodes} nodes: {} requests over {:.0}s, {burst:.0}x burst in [{segment:.0}s, {:.0}s), deadline {deadline}s",
        ds.name,
        trace.len(),
        3.0 * segment,
        2.0 * segment,
    );
    println!(
        "faults: worker 1 straggles {straggle}x, link 0\u{2013}1 at {slow}x through [{segment:.0}s, {:.0}s), worker 0 crash/rejoin at {:.0}s/{:.0}s",
        2.5 * segment,
        2.05 * segment,
        2.1 * segment,
    );
    let count_rows: [(&str, u64, u64); 8] = [
        ("submitted", s.submitted, h.submitted),
        ("accepted", s.accepted, h.accepted),
        (
            "rejected: queue full",
            s.rejected_queue_full,
            h.rejected_queue_full,
        ),
        (
            "rejected: deadline infeasible",
            s.rejected_infeasible,
            h.rejected_infeasible,
        ),
        (
            "rejected: brownout shed",
            s.rejected_brownout,
            h.rejected_brownout,
        ),
        (
            "shed after admission (expired)",
            s.shed_expired,
            h.shed_expired,
        ),
        ("completed", s.completed, h.completed),
        ("deadline misses", s.deadline_misses, h.deadline_misses),
    ];
    let mut rows: Vec<Vec<String>> = count_rows
        .iter()
        .map(|(name, f, n)| vec![(*name).to_owned(), f.to_string(), n.to_string()])
        .collect();
    rows.push(vec![
        "goodput ratio".to_owned(),
        f3(s.goodput_ratio()),
        f3(h.goodput_ratio()),
    ]);
    rows.push(vec![
        "P90 latency (ms)".to_owned(),
        f1(faulted.p90_latency_ms),
        f1(healthy.p90_latency_ms),
    ]);
    print_table(&["Metric", "faulted", "no fault"], &rows);

    let mech = vec![
        vec![
            "max brownout rung".to_owned(),
            r.max_brownout_rung.to_string(),
        ],
        vec![
            "rung transitions".to_owned(),
            r.brownout_transitions.to_string(),
        ],
        vec![
            "suspended refreshes (rung 1)".to_owned(),
            r.suspended_refreshes.to_string(),
        ],
        vec![
            "brownout recomputes (rung 2)".to_owned(),
            r.brownout_recomputes.to_string(),
        ],
        vec!["hedged pulls".to_owned(), r.hedged_pulls.to_string()],
        vec!["hedge wins".to_owned(), r.hedge_wins.to_string()],
        vec!["backoff retries".to_owned(), r.backoff_retries.to_string()],
    ];
    println!("\nControl-plane mechanisms (faulted run):");
    print_table(&["Mechanism", "count"], &mech);

    let ratio = if h.goodput() == 0 {
        1.0
    } else {
        s.goodput() as f64 / h.goodput() as f64
    };
    println!(
        "\nconservation: faulted {} / no-fault {} | goodput vs no-fault: {}",
        if s.conserved() { "yes" } else { "VIOLATED" },
        if h.conserved() { "yes" } else { "VIOLATED" },
        f3(ratio),
    );
    if !(s.conserved() && h.conserved()) {
        return Err("conservation law violated".into());
    }
    Ok(())
}

fn cmd_meta(flags: &HashMap<String, String>) -> Result<(), String> {
    let ds = dataset(flags.get("dataset").map_or("games", String::as_str))?;
    let duration = flag_f64(flags, "duration", 30.0)?;
    let rate = flag_f64(flags, "rate", 60.0)?;
    let seed = flag_f64(flags, "seed", 1.0)? as u64;
    let nodes = flag_usize(flags, "nodes", 2)?;
    let model = model(flags.get("model").map_or("qwen2-1.5b", String::as_str))?;
    let cluster = ClusterConfig::a100_4node().with_nodes(nodes);

    let cfg = EngineConfig::for_system(SystemKind::Bat, model, cluster, &ds);
    let replicas = flag_usize(flags, "replicas", cfg.meta_replicas)?;
    let crash_at = flag_f64(flags, "at", duration / 3.0)?;
    let down = flag_f64(flags, "down", duration / 6.0)?;
    let mut cfg = cfg;
    cfg.meta_replicas = replicas;

    // Probe the seeded group to learn which replica wins the first election,
    // then schedule its crash — the worst case for the meta service.
    let leader = bat::meta::MetaGroup::new(cfg.meta_replicas, cfg.meta_seed)
        .ensure_leader()
        .map_err(|e| format!("meta group cannot elect: {e}"))?;
    let schedule =
        FaultSchedule::single_meta_crash(nodes, replicas, leader, crash_at, crash_at + down)
            .map_err(|e| e.to_string())?;

    let mut gen = TraceGenerator::new(Workload::new(ds.clone(), seed), seed ^ 0xbadc0ffe);
    let trace = gen.generate(duration, rate);
    let baseline = ServingEngine::new(cfg.clone())
        .map_err(|e| e.to_string())?
        .run(&trace);
    let faulted = ServingEngine::new(cfg.with_faults(Some(schedule)))
        .map_err(|e| e.to_string())?
        .run(&trace);
    let r = &faulted.faults;

    println!(
        "{} on {nodes} nodes, {replicas}-replica meta group, {} requests over {duration:.0}s:",
        ds.name,
        trace.len()
    );
    println!(
        "leader (replica {leader}) killed at t={crash_at:.1}s, respawned at t={:.1}s",
        crash_at + down
    );
    println!(
        "\ncompleted {}/{} (meta failover never drops requests)",
        faulted.completed,
        trace.len()
    );
    let rows = vec![
        vec!["meta crashes".to_owned(), r.meta_crashes.to_string()],
        vec!["meta restarts".to_owned(), r.meta_restarts.to_string()],
        vec!["elections".to_owned(), r.meta_elections.to_string()],
        vec!["final epoch".to_owned(), r.meta_final_epoch.to_string()],
        vec![
            "fenced appends".to_owned(),
            r.meta_fenced_appends.to_string(),
        ],
        vec![
            "snapshot installs".to_owned(),
            r.meta_snapshot_installs.to_string(),
        ],
        vec![
            "client-forced elections".to_owned(),
            r.meta_unreachable_leader_elections.to_string(),
        ],
    ];
    print_table(&["Meta replication", "Value"], &rows);

    let mut zeroed = faulted.clone();
    zeroed.faults = bat::FaultReport::default();
    let mut base = baseline;
    base.faults = bat::FaultReport::default();
    if zeroed == base {
        println!("\nserving stats bitwise-identical to the fault-free run: yes");
        Ok(())
    } else {
        Err("serving stats diverged from the fault-free run".into())
    }
}

fn cmd_bench(flags: &HashMap<String, String>) -> Result<(), String> {
    let quick = flags.contains_key("quick");
    // Measure at 1 thread and at --threads (default 4): the summary then
    // records both the serial rewrite and the scaled pool.
    let top = flag_usize(flags, "threads", 4)?.max(1);
    let widths = if top == 1 { vec![1] } else { vec![1, top] };
    if flags.contains_key("stages") {
        // Where the ranking forwards' time goes, instead of the suite.
        let rows = bat_bench::perf::stage_profile(&widths, if quick { 20 } else { 300 });
        let Some(first) = rows.first() else {
            return Err("no pool width fits this machine".into());
        };
        let mut header = vec!["forward", "threads", "wall µs"];
        header.extend(first.stages.iter().map(|(name, _)| name.as_str()));
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|row| {
                let mut line = vec![
                    row.scenario.clone(),
                    row.threads.to_string(),
                    f1(row.wall_us),
                ];
                line.extend(row.stages.iter().map(|&(_, us)| f1(us)));
                line
            })
            .collect();
        print_table(&header, &table);
        return Ok(());
    }
    let summary = bat_bench::perf::run(quick, &widths);
    if !summary.thread_counts.contains(&top) {
        eprintln!(
            "[bench] {top}-thread rows skipped: the machine has {} core(s)",
            summary.nproc
        );
    }
    let json =
        serde_json::to_string_pretty(&summary).map_err(|e| format!("serialize summary: {e}"))?;
    println!("{json}");
    if !summary.deterministic {
        return Err("parallel runs were not bit-identical to serial".into());
    }
    // Perf-regression gate: compare every kernel/forward entry against a
    // committed baseline and fail on >25 % wall-clock regression (or on a
    // baseline row the fresh run no longer measures). Requires the run and
    // the baseline to use the same problem sizes (same --quick setting).
    if let Some(path) = flags.get("check") {
        let base = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let base: bat_bench::perf::PerfSummary =
            serde_json::from_str(&base).map_err(|e| format!("parse {path}: {e}"))?;
        bat_bench::perf::comparable(&summary, &base)
            .map_err(|e| format!("perf gate: cannot check against {path}: {e}"))?;
        let bad = bat_bench::perf::regressions(&summary, &base, 0.25);
        if bad.is_empty() {
            eprintln!("perf gate: no entry regressed >25% vs {path}");
        } else {
            return Err(format!(
                "perf gate: {} entr{} regressed >25% vs {path}:\n  {}",
                bad.len(),
                if bad.len() == 1 { "y" } else { "ies" },
                bad.join("\n  ")
            ));
        }
    }
    if let Some(out) = flags.get("out") {
        std::fs::write(out, &json).map_err(|e| format!("write {out}: {e}"))?;
        eprintln!("[artifact] {out}");
    }
    Ok(())
}

fn cold_format(name: &str) -> Result<ColdFormat, String> {
    match name.to_lowercase().as_str() {
        "f32" => Ok(ColdFormat::F32),
        "f16" => Ok(ColdFormat::F16),
        "int8" => Ok(ColdFormat::Int8),
        other => Err(format!("unknown cold format '{other}' (f32|f16|int8)")),
    }
}

fn split_policy(name: &str) -> Result<SplitPolicy, String> {
    let lower = name.to_lowercase();
    if let Some(share) = lower.strip_prefix("static:") {
        let s: f64 = share
            .parse()
            .map_err(|e| format!("bad static share: {e}"))?;
        return Ok(SplitPolicy::Static(s));
    }
    match lower.as_str() {
        "adaptive" => Ok(SplitPolicy::Adaptive),
        "all-user" | "alluser" => Ok(SplitPolicy::AllUser),
        other => Err(format!(
            "unknown split '{other}' (adaptive|static:<user-share>|all-user)"
        )),
    }
}

fn cmd_tiers(flags: &HashMap<String, String>) -> Result<(), String> {
    let ds = dataset(flags.get("dataset").map_or("games", String::as_str))?;
    let model = model(flags.get("model").map_or("qwen2-1.5b", String::as_str))?;
    let duration = flag_f64(flags, "duration", 20.0)?;
    let rate = flag_f64(flags, "rate", 40.0)?;
    let nodes = flag_usize(flags, "nodes", 2)?;
    let hot = Bytes::from_mb(flag_f64(flags, "hot-mb", 200.0)? as u64);
    let cold = Bytes::from_mb(flag_f64(flags, "cold-mb", 400.0)? as u64);
    let format = cold_format(flags.get("format").map_or("int8", String::as_str))?;
    let split = split_policy(flags.get("split").map_or("adaptive", String::as_str))?;

    let cluster = ClusterConfig::a100_4node().with_nodes(nodes);
    let mut gen = TraceGenerator::new(Workload::new(ds.clone(), 11), 12);
    let trace = gen.generate(duration, rate);
    let base = EngineConfig::for_system(SystemKind::Bat, model, cluster, &ds)
        .with_user_cache_capacity(hot);
    let tiers = TiersConfig::new(cold).with_format(format).with_split(split);
    tiers.validate()?;

    // Same trace, same hot budget: the only difference is the cold tier.
    let flat = ServingEngine::new(base.clone())
        .map_err(|e| e.to_string())?
        .run(&trace);
    let tiered = ServingEngine::new(base.with_tiers(Some(tiers)))
        .map_err(|e| e.to_string())?
        .run(&trace);

    println!(
        "{} x{} requests, hot {hot} fixed, cold {cold} {format:?} {split:?}",
        ds.name,
        trace.len(),
    );
    let row = |label: &str, s: &bat::RunStats| {
        vec![
            label.to_owned(),
            f3(s.hit_rate()),
            s.tiers.cold_hits.to_string(),
            s.tiers.demotions.to_string(),
            s.tiers.cold_evictions.to_string(),
            f1(s.qps()),
            f1(s.p99_latency_ms),
        ]
    };
    print_table(
        &[
            "Cache",
            "Hit rate",
            "Cold hits",
            "Demotions",
            "Cold evict",
            "Goodput",
            "p99 (ms)",
        ],
        &[row("flat", &flat), row("tiered", &tiered)],
    );
    println!(
        "tier ledger: occupancy {} / {} cold bytes, budgets user {} item {}",
        tiered.tiers.cold_occupancy_bytes,
        cold.as_u64(),
        tiered.tiers.user_budget_bytes,
        tiered.tiers.item_budget_bytes,
    );
    Ok(())
}

fn transport_kind(name: &str) -> Result<TransportKind, String> {
    match name.to_lowercase().as_str() {
        "channel" => Ok(TransportKind::Channel),
        "uds" => Ok(TransportKind::Uds),
        "tcp" => Ok(TransportKind::Tcp),
        other => Err(format!("unknown transport '{other}' (channel|uds|tcp)")),
    }
}

fn cmd_net(flags: &HashMap<String, String>) -> Result<(), String> {
    let ds = dataset(flags.get("dataset").map_or("games", String::as_str))?;
    let duration = flag_f64(flags, "duration", 10.0)?;
    let rate = flag_f64(flags, "rate", 60.0)?;
    let seed = flag_f64(flags, "seed", 7.0)? as u64;
    let nodes = flag_usize(flags, "nodes", 2)?;
    let scale = flag_f64(flags, "scale", 1e-3)?;
    let model = model(flags.get("model").map_or("qwen2-1.5b", String::as_str))?;
    let kind = transport_kind(flags.get("transport").map_or("uds", String::as_str))?;
    let processes = flags.get("processes").is_some();
    let cluster = ClusterConfig::a100_4node().with_nodes(nodes);

    let mut gen = TraceGenerator::new(Workload::new(ds.clone(), seed), seed ^ 0x5eed);
    let trace = gen.generate(duration, rate);
    let cfg = || EngineConfig::for_system(SystemKind::Bat, model.clone(), cluster.clone(), &ds);
    let serve = |kind: TransportKind, processes: bool| -> Result<bat::RunStats, String> {
        let opts = ServeOptions {
            time_scale: scale,
            transport: kind,
            processes,
            // The child re-executes batctl; maybe_child_worker() diverts
            // it into the worker loop before argument parsing runs, so no
            // arguments are needed.
            child_args: Vec::new(),
            ..ServeOptions::default()
        };
        Ok(ServeRuntime::new(cfg(), opts)
            .map_err(|e| e.to_string())?
            .serve(&trace))
    };

    // The channel oracle first, then the requested backend: same trace,
    // same planner, so the digests must match bit for bit.
    let oracle = serve(TransportKind::Channel, false)?;
    let mode = match (kind, processes) {
        (TransportKind::Channel, _) => "channel threads".to_owned(),
        (k, false) => format!("{k:?} threads").to_lowercase(),
        (k, true) => format!("{k:?} child processes").to_lowercase(),
    };
    let stats = if kind == TransportKind::Channel {
        oracle.clone()
    } else {
        serve(kind, processes)?
    };

    println!(
        "{} on {nodes} nodes over {mode}: {} requests in {duration:.0}s at {rate:.0} qps",
        ds.name,
        trace.len(),
    );
    println!(
        "  completed {}  hit-rate {:.3}  p99 {:.1} ms  digest {:016x}",
        stats.completed,
        stats.hit_rate(),
        stats.p99_latency_ms,
        stats.digest(),
    );
    if kind == TransportKind::Channel {
        return Ok(());
    }
    println!(
        "  channel oracle digest {:016x}: {}",
        oracle.digest(),
        if oracle.digest() == stats.digest() {
            "MATCH (transport is invisible to planner-side stats)"
        } else {
            "MISMATCH"
        },
    );
    if oracle.digest() != stats.digest() {
        return Err(format!(
            "digest mismatch between channel oracle and {mode}: a codec, framing, \
             ordering, or retirement bug is changing planner-visible counts"
        ));
    }
    Ok(())
}

/// Shared harness behind `batctl drain` and `batctl join`: one batched
/// serve under the given membership schedule, with the discrete-event
/// simulator as the ledger oracle. `--processes` injects the events
/// against real child OS processes over Unix sockets — a drain delivers
/// a shutdown frame behind the worker's in-flight frames, a join
/// fork/execs a fresh child that rejoins over the same listener.
fn run_membership(
    flags: &HashMap<String, String>,
    events: Vec<FaultEvent>,
    headline: &str,
) -> Result<(), String> {
    let ds = dataset(flags.get("dataset").map_or("games", String::as_str))?;
    let duration = flag_f64(flags, "duration", 20.0)?;
    let rate = flag_f64(flags, "rate", 60.0)?;
    let seed = flag_f64(flags, "seed", 1.0)? as u64;
    let nodes = flag_usize(flags, "nodes", 2)?;
    let scale = flag_f64(flags, "scale", 1e-3)?;
    let processes = flags.contains_key("processes");
    let model = model(flags.get("model").map_or("qwen2-1.5b", String::as_str))?;
    let cluster = ClusterConfig::a100_4node().with_nodes(nodes);

    let schedule = FaultSchedule::new(nodes, events).map_err(|e| e.to_string())?;
    let mut gen = TraceGenerator::new(Workload::new(ds.clone(), seed), seed ^ 0xbadc0ffe);
    let trace = gen.generate(duration, rate);
    let cfg = || {
        EngineConfig::for_system(SystemKind::Bat, model.clone(), cluster.clone(), &ds)
            .with_batching(Some(BatchingConfig::default()))
            .with_faults(Some(schedule.clone()))
    };

    let sim = ServingEngine::new(cfg())
        .map_err(|e| e.to_string())?
        .run(&trace);
    let opts = ServeOptions {
        time_scale: scale,
        transport: if processes {
            TransportKind::Uds
        } else {
            TransportKind::Channel
        },
        processes,
        // A child re-executes batctl; maybe_child_worker() diverts it
        // before argument parsing, so no child arguments are needed.
        child_args: Vec::new(),
        ..ServeOptions::default()
    };
    let stats = ServeRuntime::new(cfg(), opts)
        .map_err(|e| e.to_string())?
        .serve(&trace);
    let b = &stats.batching;

    println!(
        "{} on {nodes} nodes, {} requests over {duration:.0}s at {rate:.0} qps ({}):",
        ds.name,
        trace.len(),
        if processes {
            "uds child processes"
        } else {
            "channel threads"
        },
    );
    println!("{headline}");
    for e in schedule.events() {
        println!("  t={:6.1}s  {:?}", e.at_secs, e.kind);
    }
    println!(
        "\ncompleted {}/{} (membership churn never drops requests)",
        stats.completed,
        trace.len()
    );
    let rows = vec![
        vec!["rounds".to_owned(), b.rounds.to_string()],
        vec!["chunks".to_owned(), b.chunks.to_string()],
        vec!["drains".to_owned(), b.drains.to_string()],
        vec!["joins".to_owned(), b.joins.to_string()],
        vec![
            "migrated requests".to_owned(),
            b.migrated_requests.to_string(),
        ],
        vec!["migrated tokens".to_owned(), b.migrated_tokens.to_string()],
        vec!["batched tokens".to_owned(), b.batched_tokens.to_string()],
    ];
    print_table(&["Membership ledger", "Value"], &rows);

    println!(
        "\nsimulator oracle digest {:016x} / serve digest {:016x}: {}",
        sim.digest(),
        stats.digest(),
        if sim.digest() == stats.digest() {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );
    if stats.completed != trace.len() {
        return Err(format!(
            "membership churn dropped {} requests",
            trace.len() - stats.completed
        ));
    }
    if sim.digest() != stats.digest() {
        return Err(
            "digest mismatch between simulator oracle and serve: the migration \
             path is losing or double-counting chunks"
                .into(),
        );
    }
    Ok(())
}

fn cmd_drain(flags: &HashMap<String, String>) -> Result<(), String> {
    let duration = flag_f64(flags, "duration", 20.0)?;
    let w = flag_usize(flags, "worker", 1)?;
    let at = flag_f64(flags, "at", duration / 3.0)?;
    let events = vec![FaultEvent {
        at_secs: at,
        kind: FaultKind::WorkerDrain(WorkerId::new(w as u64)),
    }];
    run_membership(
        flags,
        events,
        &format!(
            "worker {w} drains at t={at:.1}s: its in-flight round finishes, \
             seated-but-unstarted chunks migrate to the survivors"
        ),
    )
}

fn cmd_join(flags: &HashMap<String, String>) -> Result<(), String> {
    let duration = flag_f64(flags, "duration", 20.0)?;
    let w = flag_usize(flags, "worker", 1)?;
    let leave = flag_f64(flags, "leave", duration / 4.0)?;
    let at = flag_f64(flags, "at", duration / 2.0)?;
    if at <= leave {
        return Err(format!(
            "join at t={at} must come after the drain at t={leave}"
        ));
    }
    let events = vec![
        FaultEvent {
            at_secs: leave,
            kind: FaultKind::WorkerDrain(WorkerId::new(w as u64)),
        },
        FaultEvent {
            at_secs: at,
            kind: FaultKind::WorkerJoin(WorkerId::new(w as u64)),
        },
    ];
    run_membership(
        flags,
        events,
        &format!(
            "worker {w} drains at t={leave:.1}s and a fresh incarnation \
             joins at t={at:.1}s, re-planned into the slot map mid-run"
        ),
    )
}

type Command = fn(&HashMap<String, String>) -> Result<(), String>;

/// Every subcommand: its name, its entry point and the flags it reads.
#[rustfmt::skip]
const COMMANDS: [(&str, Command, &[&str]); 14] = [
    ("compare", cmd_compare, &["dataset", "model", "nodes", "duration", "rate", "seed", "systems"]),
    ("accuracy", cmd_accuracy, &["seed", "users", "biased", "pic"]),
    ("plan", cmd_plan, &["dataset", "model", "gbps", "nodes"]),
    ("trace", cmd_trace, &["dataset", "duration", "rate", "seed", "out"]),
    ("info", cmd_info, &["trace"]),
    ("breakdown", cmd_breakdown, &["dataset", "model", "duration", "rate"]),
    ("faults", cmd_faults, &["dataset", "model", "nodes", "duration", "rate", "seed", "crash", "at", "down", "crashes"]),
    ("overload", cmd_overload, &["dataset", "model", "nodes", "duration", "rate", "seed", "burst", "deadline", "slow", "straggle"]),
    ("meta", cmd_meta, &["dataset", "model", "nodes", "duration", "rate", "seed", "replicas", "at", "down"]),
    ("net", cmd_net, &["dataset", "model", "nodes", "duration", "rate", "seed", "transport", "processes", "scale"]),
    ("bench", cmd_bench, &["quick", "out", "check", "stages"]),
    ("tiers", cmd_tiers, &["dataset", "model", "nodes", "duration", "rate", "hot-mb", "cold-mb", "format", "split"]),
    ("drain", cmd_drain, &["worker", "at", "dataset", "model", "nodes", "duration", "rate", "seed", "processes", "scale"]),
    ("join", cmd_join, &["worker", "leave", "at", "dataset", "model", "nodes", "duration", "rate", "seed", "processes", "scale"]),
];

fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|(name, ..)| *name).collect();
    format!(
        "usage: batctl <{}> [--flags]\n\
         run `batctl <command>` with no flags for defaults; see crate docs for details\n\
         global: --threads N sizes the bat-exec worker pool",
        names.join("|")
    )
}

fn main() -> ExitCode {
    // `batctl net --processes` re-executes this binary as a socket worker;
    // the env-var check must run before anything else touches the process.
    bat::maybe_child_worker();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let Some((_, run, legal)) = COMMANDS.iter().find(|(name, ..)| name == cmd) else {
        eprintln!("batctl: unknown command '{cmd}'\n{}", usage());
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&args[1..], legal) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("batctl {cmd}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(n) = flags.get("threads") {
        match n.parse::<usize>() {
            Ok(n) if n >= 1 => bat::exec::set_threads(n),
            _ => {
                eprintln!("batctl: bad --threads '{n}' (want a positive integer)");
                return ExitCode::FAILURE;
            }
        }
    }
    match run(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("batctl: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    fn legal(cmd: &str) -> &'static [&'static str] {
        COMMANDS
            .iter()
            .find(|(name, ..)| *name == cmd)
            .expect("known command")
            .2
    }

    #[test]
    fn a_typoed_flag_is_an_error_naming_the_legal_ones() {
        let err = parse_flags(&args("--rate 80 --theads 4"), legal("compare")).unwrap_err();
        assert_eq!(
            err,
            FlagError::Unknown {
                flag: "theads".to_owned(),
                legal: legal("compare"),
            }
        );
        let message = err.to_string();
        assert!(message.contains("--theads"), "{message}");
        assert!(message.contains("--threads"), "{message}");
        assert!(message.contains("--systems"), "{message}");
    }

    #[test]
    fn a_flag_of_another_subcommand_is_rejected() {
        assert!(parse_flags(&args("--transport uds"), legal("net")).is_ok());
        assert!(matches!(
            parse_flags(&args("--transport uds"), legal("compare")),
            Err(FlagError::Unknown { .. })
        ));
    }

    #[test]
    fn a_stray_positional_is_rejected() {
        assert_eq!(
            parse_flags(&args("books --rate 80"), legal("compare")),
            Err(FlagError::StrayArgument {
                arg: "books".to_owned(),
                legal: legal("compare"),
            })
        );
        // A second bare word cannot be the value of the same flag.
        assert!(matches!(
            parse_flags(&args("--rate 80 90"), legal("compare")),
            Err(FlagError::StrayArgument { .. })
        ));
    }

    #[test]
    fn values_booleans_and_negative_numbers_parse() {
        let flags = parse_flags(&args("--processes --scale 1e-3 --seed -1"), legal("net")).unwrap();
        assert_eq!(flags["processes"], "true");
        assert_eq!(flags["scale"], "1e-3");
        assert_eq!(flags["seed"], "-1");
        assert!(parse_flags(&[], legal("info")).unwrap().is_empty());
    }
}
