//! `batctl` — command-line front-end for the BAT reproduction.
//!
//! ```text
//! batctl run      <experiment>|all [--quick] [--alpha-sweep]
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
//! `batctl run` regenerates the paper's tables and figures and the repo's
//! ablations: each experiment prints its tables, writes
//! `results/<experiment>.json`, and exits 1 naming every gate that failed
//! (`bat_bench::EXPERIMENTS` lists them). `faults`, `overload`, `meta`,
//! `net`, `tiers`, `drain` and `join` run an experiment's scenario on the
//! flags given (`bat_bench::scenarios`).
//!
//! The global `--threads N` flag sizes the `bat-exec` worker pool for any
//! command (results are bit-identical at every width by construction).
//! Everything is offline and deterministic.

use bat::experiment::{accuracy_rows, compare_systems, trace, ComparisonSpec};
use bat::{
    hrcs_params, hrcs_plan, BatchingConfig, Bytes, ClusterConfig, ColdFormat, DatasetConfig,
    EngineConfig, FaultEvent, FaultKind, FaultSchedule, ModelConfig, PrefixKind, SemanticConfig,
    ServeOptions, ServingEngine, SplitPolicy, SystemKind, TiersConfig, TransportKind, WorkerId,
};
use bat_bench::scenarios::{self, Overload};
use bat_bench::{cells, f1, f3, Report, RunArgs, EXPERIMENTS};
use bat_sim::breakdown_by_prefix;
use std::collections::HashMap;
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

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

type Flags = HashMap<String, String>;

/// Parses `--key [value]` pairs (a flag followed by another flag, or by
/// nothing, is a boolean `true`), accepting only `legal` and global flags.
fn parse_flags(args: &[String], legal: &'static [&'static str]) -> Result<Flags, FlagError> {
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

/// `--key`'s value as a `T`, or `default` when the flag is absent; a value
/// that does not parse is an error naming the flag.
fn flag<T: FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String>
where
    T::Err: Display,
{
    flags.get(key).map_or(Ok(default), |v| {
        v.parse().map_err(|e| format!("bad --{key} '{v}': {e}"))
    })
}

fn dataset(flags: &Flags, default: &str) -> Result<DatasetConfig, String> {
    match flags
        .get("dataset")
        .map_or(default, String::as_str)
        .to_lowercase()
        .as_str()
    {
        "games" => Ok(DatasetConfig::games()),
        "beauty" => Ok(DatasetConfig::beauty()),
        "books" => Ok(DatasetConfig::books()),
        "industry" => Ok(DatasetConfig::industry()),
        other => {
            if let Some(items) = other.strip_prefix("industry-") {
                return Ok(DatasetConfig::industry_x(parse_count(items)?));
            }
            if let Some(items) = other.strip_prefix("books-") {
                return Ok(DatasetConfig::books_x(parse_count(items)?));
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

fn model(flags: &Flags) -> Result<ModelConfig, String> {
    match flags
        .get("model")
        .map_or("qwen2-1.5b", String::as_str)
        .to_lowercase()
        .as_str()
    {
        "qwen2-1.5b" | "qwen" => Ok(ModelConfig::qwen2_1_5b()),
        "qwen2-7b" => Ok(ModelConfig::qwen2_7b()),
        "llama3-1b" | "llama" => Ok(ModelConfig::llama3_1b()),
        other => Err(format!(
            "unknown model '{other}' (qwen2-1.5b|qwen2-7b|llama3-1b)"
        )),
    }
}

/// `--key`'s value (default `default`), checked positive and finite: a
/// duration, rate or bandwidth the libraries assert on.
fn positive(flags: &Flags, key: &str, default: f64) -> Result<f64, String> {
    match flag(flags, key, default)? {
        v if v > 0.0 && v.is_finite() => Ok(v),
        _ => Err(format!(
            "bad --{key} '{}': want a positive number",
            flags[key]
        )),
    }
}

/// `--nodes` (default `nodes`, at least one) of the 4-node A100 testbed.
fn cluster(flags: &Flags, nodes: usize) -> Result<ClusterConfig, String> {
    match flag(flags, "nodes", nodes)? {
        0 => Err("bad --nodes '0': want at least one node".into()),
        n => Ok(ClusterConfig::a100_4node().with_nodes(n)),
    }
}

/// BAT with `--model` on [`cluster`].
fn bat_config(flags: &Flags, nodes: usize, ds: &DatasetConfig) -> Result<EngineConfig, String> {
    let (model, cluster) = (model(flags)?, cluster(flags, nodes)?);
    Ok(EngineConfig::for_system(
        SystemKind::Bat,
        model,
        cluster,
        ds,
    ))
}

fn cmd_compare(flags: &Flags) -> Result<(), String> {
    let ds = dataset(flags, "games")?;
    let model = model(flags)?;
    let cluster = cluster(flags, 4)?;
    let duration = positive(flags, "duration", 60.0)?;
    let rate = positive(flags, "rate", 100.0)?;
    let seed = flag(flags, "seed", 1)?;
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

    let spec = scenarios::spec(&model, &cluster, &ds, (duration, rate), seed);
    let stats = compare_systems(&spec, &systems);
    println!(
        "{} on {} nodes, {duration:.0}s at {rate:.0} req/s:",
        ds.name, cluster.num_nodes
    );
    let rows: Vec<Vec<String>> = stats
        .iter()
        .map(|s| {
            cells![
                s.system,
                f1(s.qps()),
                f3(s.hit_rate()),
                f3(s.computation_savings()),
                f1(s.p99_latency_ms)
            ]
        })
        .collect();
    let mut report = Report::default();
    report.table(&["System", "QPS", "HitRate", "Savings", "P99 (ms)"], &rows);
    report.finish()
}

fn cmd_accuracy(flags: &Flags) -> Result<(), String> {
    let seed = flag(flags, "seed", 7)?;
    let users = flag(flags, "users", 40)?;
    let mut cfg = SemanticConfig::table3_world(seed);
    if flags.contains_key("biased") {
        cfg = cfg.order_biased();
    }
    let pic = flags
        .get("pic")
        .map(|_| flag(flags, "pic", 0.0f32))
        .transpose()?;
    let table: Vec<Vec<String>> = accuracy_rows(cfg, users, pic)
        .iter()
        .map(|r| {
            let m = r.metrics.table3_row();
            cells![r.strategy, f3(m[0]), f3(m[1]), f3(m[2]), f3(m[3])]
        })
        .collect();
    let mut report = Report::default();
    report.table(&["Strategy", "R@10", "MRR@10", "NDCG@10", "R@5"], &table);
    report.finish()
}

fn cmd_plan(flags: &Flags) -> Result<(), String> {
    let ds = dataset(flags, "industry")?;
    let mut cluster = cluster(flags, 4)?;
    let gbps = positive(flags, "gbps", 100.0)?;
    let model = model(flags)?;
    cluster.node = cluster.node.with_network_gbps(gbps);
    let nodes = cluster.num_nodes;
    let params = hrcs_params(&model, &cluster, &ds);
    let plan = hrcs_plan(&model, &cluster, &ds);
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

fn cmd_trace(flags: &Flags) -> Result<(), String> {
    let ds = dataset(flags, "games")?;
    let duration = positive(flags, "duration", 30.0)?;
    let rate = positive(flags, "rate", 50.0)?;
    let seed = flag(flags, "seed", 1)?;
    let out = flags.get("out").ok_or("missing --out FILE")?;
    let trace = trace(&ds, ComparisonSpec::seeds(seed), duration, rate);
    bat_workload::save_trace(out, &trace).map_err(|e| e.to_string())?;
    println!("wrote {} requests to {out}", trace.len());
    Ok(())
}

fn cmd_info(flags: &Flags) -> Result<(), String> {
    let path = flags.get("trace").ok_or("missing --trace FILE")?;
    let trace = bat_workload::load_trace(path).map_err(|e| format!("read {path}: {e}"))?;
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

fn cmd_breakdown(flags: &Flags) -> Result<(), String> {
    let ds = dataset(flags, "industry")?;
    let duration = positive(flags, "duration", 30.0)?;
    let rate = positive(flags, "rate", 80.0)?;
    let mut cfg = bat_config(flags, 4, &ds)?;
    cfg.record_requests = true;
    let trace = trace(&ds, (1, 2), duration, rate);
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
            let prefix = match kind {
                PrefixKind::User => "User-as-prefix",
                PrefixKind::Item => "Item-as-prefix",
            };
            cells![prefix, n, f3(reuse), f1(p99)]
        })
        .collect();
    let mut report = Report::default();
    report.table(&["Prefix", "Requests", "Mean reuse", "P99 (ms)"], &rows);
    report.finish()
}

fn cmd_faults(flags: &Flags) -> Result<(), String> {
    let ds = dataset(flags, "games")?;
    let duration = positive(flags, "duration", 60.0)?;
    let rate = positive(flags, "rate", 120.0)?;
    let seed = flag(flags, "seed", 1)?;
    let base = bat_config(flags, 4, &ds)?;
    let nodes = base.cluster.num_nodes;

    // Either the canonical kill-one-worker schedule (--crash W [--down S])
    // or a seeded random one (--crashes N).
    let schedule = if flags.contains_key("crash") {
        let w = flag(flags, "crash", 0)?;
        let crash_at = flag(flags, "at", duration / 3.0)?;
        let down = flag(flags, "down", duration / 6.0)?;
        FaultSchedule::single_crash(nodes, WorkerId::new(w), crash_at, crash_at + down)
            .map_err(|e| e.to_string())?
    } else {
        let crashes = flag(flags, "crashes", 2)?;
        FaultSchedule::random(seed, nodes, duration, crashes)
    };
    let trace = trace(&ds, ComparisonSpec::seeds(seed), duration, rate);
    let mut report = Report::default();
    report.line(format_args!(
        "{} over {duration:.0}s at {rate:.0} req/s:",
        ds.name
    ));
    scenarios::faults(&mut report, base, schedule, &trace, None)?;
    report.finish()
}

fn cmd_overload(flags: &Flags) -> Result<(), String> {
    let ds = dataset(flags, "books")?;
    let knobs = Overload {
        segment: positive(flags, "duration", 10.0)?,
        rate: positive(flags, "rate", 300.0)?,
        burst: flag(flags, "burst", 3.0)?,
        deadline: flag(flags, "deadline", 1.0)?,
        slow: flag(flags, "slow", 150.0)?,
        straggle: flag(flags, "straggle", 5.0)?,
    };
    let seed = flag(flags, "seed", 7)?;
    let base = bat_config(flags, 4, &ds)?;
    if base.cluster.num_nodes < 2 {
        return Err("overload needs at least 2 nodes (the slow link has two ends)".into());
    }
    let mut report = Report::default();
    report.line(format_args!("{}:", ds.name));
    scenarios::overload(&mut report, base, &ds, ComparisonSpec::seeds(seed), &knobs)?;
    report.finish()
}

fn cmd_meta(flags: &Flags) -> Result<(), String> {
    let ds = dataset(flags, "games")?;
    let duration = positive(flags, "duration", 30.0)?;
    let rate = positive(flags, "rate", 60.0)?;
    let seed = flag(flags, "seed", 1)?;
    let mut base = bat_config(flags, 2, &ds)?;
    base.meta_replicas = flag(flags, "replicas", base.meta_replicas)?;
    base.validate().map_err(|e| e.to_string())?;
    let crash_at = flag(flags, "at", duration / 3.0)?;
    let down = flag(flags, "down", duration / 6.0)?;
    let trace = trace(&ds, ComparisonSpec::seeds(seed), duration, rate);
    let mut report = Report::default();
    report.line(format_args!(
        "{} over {duration:.0}s at {rate:.0} req/s:",
        ds.name
    ));
    scenarios::meta_failover(&mut report, base, &trace, (crash_at, crash_at + down), None)?;
    report.finish()
}

fn cmd_bench(flags: &Flags) -> Result<(), String> {
    let quick = flags.contains_key("quick");
    // Measure at 1 thread and at --threads (default 4): the summary then
    // records both the serial rewrite and the scaled pool.
    let top = flag(flags, "threads", 4usize)?.max(1);
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
                let mut line = cells![row.scenario, row.threads, f1(row.wall_us)];
                line.extend(row.stages.iter().map(|&(_, us)| f1(us)));
                line
            })
            .collect();
        let mut report = Report::default();
        report.table(&header, &table);
        return report.finish();
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

fn cmd_tiers(flags: &Flags) -> Result<(), String> {
    let ds = dataset(flags, "games")?;
    let duration = positive(flags, "duration", 20.0)?;
    let rate = positive(flags, "rate", 40.0)?;
    let hot = Bytes::from_mb(flag(flags, "hot-mb", 200)?);
    let cold = Bytes::from_mb(flag(flags, "cold-mb", 400)?);
    let format = cold_format(flags.get("format").map_or("int8", String::as_str))?;
    let split = split_policy(flags.get("split").map_or("adaptive", String::as_str))?;
    let tiers = TiersConfig::new(cold).with_format(format).with_split(split);
    tiers.validate()?;

    // Same trace, same hot budget: the only difference is the cold tier.
    let base = bat_config(flags, 2, &ds)?.with_user_cache_capacity(hot);
    let tiered = format!("cold {format:?} {split:?}");
    let rows = [("flat", None), (tiered.as_str(), Some(tiers))];
    let mut report = Report::default();
    scenarios::tiers(&mut report, &base, &ds, (duration, rate), cold, &rows)?;
    report.finish()
}

fn transport_kind(name: &str) -> Result<TransportKind, String> {
    match name.to_lowercase().as_str() {
        "channel" => Ok(TransportKind::Channel),
        "uds" => Ok(TransportKind::Uds),
        "tcp" => Ok(TransportKind::Tcp),
        other => Err(format!("unknown transport '{other}' (channel|uds|tcp)")),
    }
}

fn cmd_net(flags: &Flags) -> Result<(), String> {
    let ds = dataset(flags, "games")?;
    let duration = positive(flags, "duration", 10.0)?;
    let rate = positive(flags, "rate", 60.0)?;
    let seed = flag(flags, "seed", 7)?;
    let scale = flag(flags, "scale", 1e-3)?;
    let kind = transport_kind(flags.get("transport").map_or("uds", String::as_str))?;
    let cfg = bat_config(flags, 2, &ds)?;
    let nodes = cfg.cluster.num_nodes;
    let trace = trace(&ds, (seed, seed ^ 0x5eed), duration, rate);
    // The channel oracle, then the requested backend: same trace, same
    // planner, so the digests must match bit for bit.
    let backends = match kind {
        TransportKind::Channel => vec![],
        kind => vec![(kind, flags.contains_key("processes"))],
    };
    let mut report = Report::default();
    report.line(format_args!(
        "{} on {nodes} nodes: {} requests in {duration:.0}s at {rate:.0} qps",
        ds.name,
        trace.len(),
    ));
    scenarios::transports(&mut report, &cfg, &trace, scale, &backends)?;
    report.finish()
}

/// `batctl drain` and `batctl join`: one batched serve under the given
/// membership events, with the discrete-event simulator as the ledger
/// oracle. `--processes` injects the events against real child OS
/// processes over Unix sockets — a drain delivers a shutdown frame behind
/// the worker's in-flight frames, a join fork/execs a fresh child that
/// rejoins over the same listener.
fn run_membership(flags: &Flags, events: Vec<FaultEvent>) -> Result<(), String> {
    let ds = dataset(flags, "games")?;
    let duration = positive(flags, "duration", 20.0)?;
    let rate = positive(flags, "rate", 60.0)?;
    let seed = flag(flags, "seed", 1)?;
    let processes = flags.contains_key("processes");
    let opts = ServeOptions {
        time_scale: flag(flags, "scale", 1e-3)?,
        transport: if processes {
            TransportKind::Uds
        } else {
            TransportKind::Channel
        },
        processes,
        ..ServeOptions::default()
    };
    let base = bat_config(flags, 2, &ds)?.with_batching(Some(BatchingConfig::default()));
    let nodes = base.cluster.num_nodes;
    let schedule = FaultSchedule::new(nodes, events).map_err(|e| e.to_string())?;
    let trace = trace(&ds, ComparisonSpec::seeds(seed), duration, rate);
    let mut report = Report::default();
    report.line(format_args!(
        "{} on {nodes} nodes, {} requests over {duration:.0}s at {rate:.0} qps ({}):",
        ds.name,
        trace.len(),
        if processes {
            "uds child processes"
        } else {
            "channel threads"
        },
    ));
    scenarios::membership(&mut report, base, schedule, &trace, opts)?;
    report.finish()
}

fn cmd_drain(flags: &Flags) -> Result<(), String> {
    let duration = flag(flags, "duration", 20.0)?;
    let w = WorkerId::new(flag(flags, "worker", 1)?);
    let at = flag(flags, "at", duration / 3.0)?;
    // The worker's in-flight round finishes; its seated-but-unstarted
    // chunks migrate to the survivors.
    let events = vec![FaultEvent {
        at_secs: at,
        kind: FaultKind::WorkerDrain(w),
    }];
    run_membership(flags, events)
}

fn cmd_join(flags: &Flags) -> Result<(), String> {
    let duration = flag(flags, "duration", 20.0)?;
    let w = WorkerId::new(flag(flags, "worker", 1)?);
    let leave = flag(flags, "leave", duration / 4.0)?;
    let at = flag(flags, "at", duration / 2.0)?;
    if at <= leave {
        return Err(format!(
            "join at t={at} must come after the drain at t={leave}"
        ));
    }
    // The worker drains, then a fresh incarnation joins, re-planned into
    // the slot map mid-run.
    let events = vec![
        FaultEvent {
            at_secs: leave,
            kind: FaultKind::WorkerDrain(w),
        },
        FaultEvent {
            at_secs: at,
            kind: FaultKind::WorkerJoin(w),
        },
    ];
    run_membership(flags, events)
}

type Command = fn(&Flags) -> Result<(), String>;

/// Every subcommand but `run`: its name, its entry point and the flags it
/// reads.
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
        "usage: batctl <run|{}> [--flags]\n\
         run `batctl <command>` with no flags for defaults; see crate docs for details\n\
         global: --threads N sizes the bat-exec worker pool",
        names.join("|")
    )
}

/// `batctl run <experiment>|all [--quick]`: runs experiment rows (all of
/// them, in order, for `all`), each printing its report and writing its
/// artifact; fails naming every gate that failed.
fn cmd_run(args: &[String]) -> Result<(), String> {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let usage = || format!("usage: batctl run <{}|all> [--quick]", names.join("|"));
    let Some((name, rest)) = args.split_first() else {
        return Err(usage());
    };
    let (rows, legal) = if name == "all" {
        (EXPERIMENTS.iter().collect(), &["quick"][..])
    } else {
        let Some(row) = EXPERIMENTS.iter().find(|e| e.name == name) else {
            return Err(format!("unknown experiment '{name}'\n{}", usage()));
        };
        (vec![row], row.flags)
    };
    let flags = parse_flags(rest, legal).map_err(|e| format!("run {name}: {e}"))?;
    if let Some((key, value)) = flags.iter().find(|(k, v)| *k != "threads" && *v != "true") {
        return Err(format!("run {name}: --{key} takes no value, got '{value}'"));
    }
    set_threads(&flags)?;
    let args = RunArgs {
        quick: flags.contains_key("quick"),
        alpha_sweep: flags.contains_key("alpha-sweep"),
    };
    let mut failed = Vec::new();
    for row in &rows {
        if rows.len() > 1 {
            println!("===== {} =====", row.name);
        }
        failed.extend(bat_bench::run(row, &args).err());
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("\n"))
    }
}

/// Applies the global `--threads N` to the `bat-exec` pool.
fn set_threads(flags: &Flags) -> Result<(), String> {
    match flags.get("threads").map(|n| n.parse::<usize>()) {
        None => Ok(()),
        Some(Ok(n)) if n >= 1 => {
            bat::exec::set_threads(n);
            Ok(())
        }
        Some(_) => Err(format!(
            "bad --threads '{}' (want a positive integer)",
            flags["threads"]
        )),
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    if cmd == "run" {
        return cmd_run(&args[1..]);
    }
    let Some((_, run, legal)) = COMMANDS.iter().find(|(name, ..)| name == cmd) else {
        return Err(format!("unknown command '{cmd}'\n{}", usage()));
    };
    let flags = parse_flags(&args[1..], legal).map_err(|e| format!("{cmd}: {e}"))?;
    set_threads(&flags)?;
    run(&flags)
}

fn main() -> ExitCode {
    // `--processes` runs (`net`, `drain`, `join` and two experiments)
    // re-execute this binary as a socket worker; the env-var check must run
    // before anything else touches the process.
    bat::maybe_child_worker();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
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

    #[test]
    fn an_experiment_row_rejects_a_typo_instead_of_running_full_scale() {
        let err = dispatch(&args("run fig8_scheduling --qiuck")).unwrap_err();
        assert!(err.contains("--qiuck") && err.contains("--quick"), "{err}");
        let err = dispatch(&args("run all --alpha-sweep")).unwrap_err();
        assert!(err.contains("--alpha-sweep"), "{err}");
        let err = dispatch(&args("run fig8_scheduling --quick yes")).unwrap_err();
        assert!(err.contains("--quick"), "{err}");
        let err = dispatch(&args("run fig99")).unwrap_err();
        assert!(
            err.contains("fig99") && err.contains("fig8_scheduling"),
            "{err}"
        );
    }

    #[test]
    fn seeds_and_megabytes_are_integers() {
        for line in [
            "compare --seed -1",
            "compare --seed 2.9",
            "tiers --hot-mb 1.5",
        ] {
            let err = dispatch(&args(line)).unwrap_err();
            let name = line.split_whitespace().nth(1).unwrap();
            assert!(err.contains(name), "{line}: {err}");
        }
        let flags = parse_flags(&args("--seed 2"), legal("compare")).unwrap();
        assert_eq!(flag(&flags, "seed", 1u64), Ok(2));
        assert_eq!(flag(&flags, "rate", 1.5f64), Ok(1.5));
    }

    #[test]
    fn out_of_range_numbers_are_errors_naming_the_flag() {
        for (line, named) in [
            ("plan --nodes 0", "--nodes"),
            ("compare --nodes 0", "--nodes"),
            ("faults --nodes 0", "--nodes"),
            ("compare --rate -5", "--rate"),
            ("compare --rate nan", "--rate"),
            ("breakdown --rate 0", "--rate"),
            ("compare --duration -1", "--duration"),
            ("trace --duration -1", "--duration"),
            ("plan --gbps 0", "--gbps"),
            ("plan --gbps -1", "--gbps"),
            ("info --trace no/such/trace.jsonl", "no/such/trace.jsonl"),
        ] {
            let err = dispatch(&args(line)).unwrap_err();
            assert!(err.contains(named), "{line}: {err}");
        }
    }
}
