//! The paper's tables and figures (§6), one experiment each.

use crate::scenarios::{run, spec};
use crate::{cells, f1, f3, Report, RunArgs};
use bat::experiment::{accuracy_rows, compare_systems, saturation_offered_rate};
use bat::{
    hrcs_params, AdmissionKind, Bytes, ClusterConfig, ComputeModel, DatasetConfig, EngineConfig,
    ItemPlacementPlan, ModelConfig, NodeConfig, PlacementStrategy, PolicyKind, SemanticConfig,
    SystemKind, TraceGenerator, UserId, Workload, ZipfLaw,
};
use bat_kvcache::hotness::window_similarity;
use bat_metrics::Cdf;
use bat_placement::compute_replication_ratio;
use bat_workload::{trace::window_counts, SessionParams};
use serde_json::json;
use std::collections::{BTreeMap, HashMap};

/// Every system of §6, in the paper's order.
const ALL_SYSTEMS: [SystemKind; 4] = [
    SystemKind::Recompute,
    SystemKind::UserPrefix,
    SystemKind::ItemPrefix,
    SystemKind::Bat,
];

/// Tables 1 & 2: dataset statistics and model architectures. These are
/// configuration, not measurement: the experiment prints the presets and
/// gates the derived quantities the paper quotes in prose (per-token KV
/// bytes, the 29 MB single-user footprint, the 287 GB / 2.9 PB corpus
/// footprints of §3.3 / §4.3).
pub fn tables_config(_: &RunArgs) -> Report {
    let mut r = Report::default();
    r.line("Table 1: Detailed Information of Datasets");
    let datasets = DatasetConfig::table1_presets();
    let rows: Vec<Vec<String>> = datasets
        .iter()
        .map(|d| {
            cells![
                d.name,
                d.num_users,
                d.num_items,
                d.avg_user_tokens,
                d.avg_item_tokens
            ]
        })
        .collect();
    let header = [
        "Dataset",
        "User Num.",
        "Item Num.",
        "Avg User Tok.",
        "Avg Item Tok.",
    ];
    r.table(&header, &rows);

    r.line("\nTable 2: Model Architecture");
    let models = ModelConfig::table2_presets();
    let rows: Vec<Vec<String>> = models
        .iter()
        .map(|m| {
            let kv = format!("{} Bytes", m.kv_bytes_per_token());
            cells![m.name, m.kv_heads, m.head_dim, m.layers, kv]
        })
        .collect();
    r.table(
        &["Model", "KV Heads", "Head Dim", "Layers", "KV/token"],
        &rows,
    );

    // Prose cross-checks (§3.3.2 / §4.3).
    let qwen = ModelConfig::qwen2_1_5b();
    let user_mb = qwen.kv_bytes(1000) as f64 / 1e6;
    let corpus_1m_gb = qwen.kv_bytes(10) as f64 * 1e6 / 1e9;
    let users_100m_pb = qwen.kv_bytes(1000) as f64 * 1e8 / 1e15;
    r.line("\nDerived quantities quoted in the paper:");
    r.line(format_args!(
        "  1000-token user prefix (Qwen2-1.5B): {user_mb:.1} MB   (paper: ~29 MB)"
    ));
    r.line(format_args!(
        "  1M-item corpus @10 tok/item:        {corpus_1m_gb:.0} GB  (paper: ~287 GB)"
    ));
    r.line(format_args!(
        "  1e8 user prefixes @1000 tok:        {users_100m_pb:.1} PB  (paper: ~2.9 PB)"
    ));
    r.gate(
        "a 1000-token user prefix is 28–30 MB",
        (28.0..30.0).contains(&user_mb),
    );
    r.gate(
        "a 1M-item corpus is 280–295 GB",
        (280.0..295.0).contains(&corpus_1m_gb),
    );
    r.gate(
        "1e8 user prefixes are 2.8–3.0 PB",
        (2.8..3.0).contains(&users_100m_pb),
    );
    r.artifact = Some(json!({
        "table1": datasets,
        "table2": models,
        "derived": {
            "user_prefix_mb": user_mb,
            "item_corpus_1m_gb": corpus_1m_gb,
            "users_100m_pb": users_100m_pb,
        }
    }));
    r
}

/// Figure 2: GR serving workload characterization.
///
/// (a) per-request latency, recomputation vs prefix-cache load, for the
///     three Table 2 models at 512–8192 input tokens;
/// (b) the user-profile token-count distribution (long tail, ~36 % of users
///     below the ~1 000-token item block);
/// (c) the hourly user access-frequency CDF (most users ≤ 1–2 accesses);
/// (d) the item access-frequency CDF (~90 % of accesses on the top ~10 %).
pub fn fig2_characterization(args: &RunArgs) -> Report {
    let mut r = Report::default();
    r.line("Figure 2(a): per-request latency (ms), recompute vs prefix load");
    let node = NodeConfig::a100_testbed();
    let mut rows = Vec::new();
    let mut fig2a = Vec::new();
    for model in ModelConfig::table2_presets() {
        let cm = ComputeModel::new(model.clone(), node.clone());
        for len in [512u64, 1024, 2048, 4096, 8192] {
            let recompute_ms = cm.prefill_secs(len, len) * 1e3;
            let prefix_ms = cm.kv_load_secs(cm.kv_bytes(len)) * 1e3;
            let (re, pre) = (format!("{recompute_ms:.1}"), format!("{prefix_ms:.2}"));
            rows.push(cells![model.name, len, re, pre]);
            fig2a.push(json!({
                "model": model.name, "tokens": len,
                "recompute_ms": recompute_ms, "prefix_ms": prefix_ms,
            }));
        }
    }
    let header = ["Model", "Tokens", "Recompute (ms)", "Prefix load (ms)"];
    r.table(&header, &rows);
    r.line("(100–200 ms SLO: recomputation exceeds it at long contexts; prefix load does not)");

    // (b) user token counts, sampled over the Industry population.
    let ds = DatasetConfig::industry();
    let workload = Workload::new(ds.clone(), 2026);
    let n_users = args.scale(200_000u64, 20_000);
    let tokens: Vec<f64> = (0..n_users)
        .map(|i| workload.user_token_count(UserId::new(i * 37 + 5)) as f64)
        .collect();
    let cdf_b = Cdf::from_samples(&tokens);
    r.line("\nFigure 2(b): user token count distribution (Industry)");
    let rows: Vec<Vec<String>> = [0.1, 0.25, 0.36, 0.5, 0.75, 0.9, 0.99, 1.0]
        .iter()
        .map(|q| {
            cells![
                format!("p{:02.0}", q * 100.0),
                format!("{:.0}", cdf_b.inverse(*q))
            ]
        })
        .collect();
    r.table(&["quantile", "user tokens"], &rows);
    let short_share = cdf_b.at(1000.0);
    r.line(format_args!(
        "share of users with < 1000 tokens (vs ~1K item block): {} (paper: ~36%)",
        f3(short_share)
    ));

    // (c, d) replay an hour of Industry traffic, count accesses.
    let duration = args.scale(3600.0, 600.0);
    let rate = args.scale(120.0, 60.0);
    let mut gen = TraceGenerator::new(workload, 7);
    let trace = gen.generate(duration, rate);
    r.line(format_args!(
        "\n(replayed {} requests over {duration:.0}s)",
        trace.len()
    ));
    let user_counts: Vec<f64> = window_counts(&trace, duration)
        .values()
        .map(|v| v.iter().map(|&(_, c)| c as f64).sum::<f64>())
        .collect();
    let cdf_c = Cdf::from_samples(&user_counts);
    let (le1, le2) = (cdf_c.at(1.0), cdf_c.at(2.0));
    r.line("\nFigure 2(c): user access frequency per hour (active users)");
    let rows = [
        cells!["<=1", f3(le1)],
        cells!["<=2", f3(le2)],
        cells!["<=5", f3(cdf_c.at(5.0))],
        cells!["<=10", f3(cdf_c.at(10.0))],
    ];
    r.table(&["accesses/hour", "CDF"], &rows);
    r.line("(paper: >55% of users access at most once per hour)");

    let mut item_counts: HashMap<u64, u64> = HashMap::new();
    for req in &trace {
        for item in &req.candidates {
            *item_counts.entry(item.as_u64()).or_insert(0) += 1;
        }
    }
    // Access mass of the hottest 10% of *accessed* items, plus the analytic law.
    let mut counts: Vec<u64> = item_counts.values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = counts.iter().sum();
    let head_mass = counts[..counts.len() / 10].iter().sum::<u64>() as f64 / total as f64;
    let law = gen.workload().item_law();
    r.line("\nFigure 2(d): item access frequency CDF");
    let rows: Vec<Vec<String>> = [0.01, 0.05, 0.10, 0.25, 0.50]
        .iter()
        .map(|frac| {
            let k = (law.n() as f64 * frac) as u64;
            cells![
                format!("top {:.0}%", frac * 100.0),
                f3(law.head_mass(k.max(1)))
            ]
        })
        .collect();
    r.table(&["items (by rank)", "access mass (analytic)"], &rows);
    r.line(format_args!(
        "empirical: top 10% of accessed items carry {} of accesses (paper: ~90%)",
        f3(head_mass)
    ));

    r.artifact = Some(json!({
        "a_latency": fig2a,
        "b_user_tokens": {
            "p50": cdf_b.inverse(0.5), "p99": cdf_b.inverse(0.99),
            "short_share_below_1000": short_share,
        },
        "c_user_freq": { "le1": le1, "le2": le2 },
        "d_item_skew": { "top10pct_mass_empirical": head_mass },
    }));
    r
}

/// Table 3: ranking quality of UP vs IP across datasets and models (§6.3).
///
/// The paper evaluates finetuned LLMs on Amazon datasets; we evaluate the
/// real workspace transformer on planted-preference semantic worlds (see
/// DESIGN.md §2 for the substitution argument). Each (dataset × model)
/// cell of the paper maps to a semantic world with its own seed; the
/// "Books × Qwen2-1.5B" cell uses the order-biased variant to reproduce the
/// paper's one clear IP degradation, and — as in §6.3 — a CacheBlend-style
/// PIC repair pass narrows that gap.
pub fn table3_accuracy(args: &RunArgs) -> Report {
    let n_users = args.scale(120, 25);
    // One world per paper cell: `(dataset, model, seed, order-biased)`.
    // Seeds differentiate the "datasets"; the order-biased flag plays the
    // role of the position-sensitive base model.
    let cells = [
        ("Beauty", "Qwen2-1.5B", 101, false),
        ("Beauty", "Qwen2-7B", 102, false),
        ("Beauty", "Llama3-1B", 103, false),
        ("Games", "Qwen2-1.5B", 201, false),
        ("Games", "Qwen2-7B", 202, false),
        ("Games", "Llama3-1B", 203, false),
        ("Books", "Qwen2-1.5B", 301, true),
        ("Books", "Qwen2-7B", 302, false),
        ("Books", "Llama3-1B", 303, false),
    ];
    let mut r = Report::default();
    r.line("Table 3: UP vs IP ranking quality (semantic-world reproduction)");
    r.line(format_args!(
        "({n_users} users/cell, 100 candidates, ground truth among negatives)\n"
    ));

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut artifact = Vec::new();
    for (dataset, model, seed, biased) in cells {
        let mut cfg = SemanticConfig::table3_world(seed);
        if biased {
            cfg = cfg.order_biased();
        }
        // PIC only for the degraded cell, as in §6.3.
        let pic = biased.then_some(0.15f32);
        for row in accuracy_rows(cfg, n_users, pic) {
            let m = row.metrics.table3_row();
            let (lo, hi) = row.metrics.bootstrap_ci(|m| m.recall_at(10), 500, seed);
            let label = format!("{model}{}", if biased { " (order-biased)" } else { "" });
            let recall = format!("{} [{},{}]", f3(m[0]), f3(lo), f3(hi));
            let rest = m[1..].iter().map(|v| f3(*v));
            rows.push(
                [dataset.to_owned(), label, row.strategy.clone(), recall]
                    .into_iter()
                    .chain(rest)
                    .collect(),
            );
            artifact.push(json!({
                "dataset": dataset,
                "model": model,
                "order_biased": biased,
                "strategy": row.strategy,
                "recall@10": m[0], "mrr@10": m[1], "ndcg@10": m[2],
                "recall@5": m[3], "mrr@5": m[4], "ndcg@5": m[5],
            }));
        }
    }
    let header = [
        "Dataset",
        "Model",
        "Strategy",
        "R@10 [95% CI]",
        "MRR@10",
        "NDCG@10",
        "R@5",
        "MRR@5",
        "NDCG@5",
    ];
    r.table(&header, &rows);

    // Shape summary: the UP − IP Recall@10 gap on robust cells vs the biased cell.
    let gap = |d: &str, model: &str| -> f64 {
        let recall = |strategy: &str| {
            let cell = artifact.iter().find(|v| {
                v["dataset"] == d
                    && v["model"].as_str().unwrap().contains(model)
                    && v["strategy"] == strategy
            });
            cell.map_or(0.0, |v| v["recall@10"].as_f64().unwrap())
        };
        recall("UP") - recall("IP")
    };
    let robust_gaps: Vec<f64> = [
        ("Beauty", "Qwen2-1.5B"),
        ("Games", "Qwen2-1.5B"),
        ("Books", "Qwen2-7B"),
    ]
    .iter()
    .map(|(d, m)| (gap(d, m) * 1000.0).round() / 1000.0)
    .collect();
    r.line(format_args!(
        "\nUP−IP Recall@10 gaps: robust cells {robust_gaps:?}, order-biased cell {:.3}",
        gap("Books", "Qwen2-1.5B")
    ));
    r.line("(paper: IP ≈ UP in most cells; degradation only for position-sensitive models, narrowed by PIC)");
    r.artifact = Some(json!(artifact));
    r
}

/// Per-user mean window-frequency similarity over consecutive non-empty
/// windows of `window_secs`, in user order.
fn similarity_distribution(events: &[(f64, UserId)], window_secs: f64, horizon: f64) -> Vec<f64> {
    // Per-user event times, iterated in user order so the float sums over
    // users are the same on every run.
    let mut per_user: BTreeMap<UserId, Vec<f64>> = BTreeMap::new();
    for &(t, u) in events {
        per_user.entry(u).or_default().push(t);
    }
    // Sliding-window frequencies f_u(t) = |events in [t-W, t)| evaluated on
    // a δ = W/6 grid (the paper's "consecutive sliding-window frequencies"
    // with window interval δ), compared pairwise where at least one window
    // is non-empty.
    let delta = window_secs / 6.0;
    let steps = (horizon / delta).floor() as usize;
    let mut sims = Vec::new();
    for times in per_user.values() {
        if times.len() < 2 {
            continue; // a single access defines no frequency trajectory
        }
        let count_in = |lo: f64, hi: f64| -> f64 {
            let a = times.partition_point(|&t| t < lo);
            let b = times.partition_point(|&t| t < hi);
            (b - a) as f64
        };
        let mut acc = 0.0;
        let mut n = 0usize;
        let mut prev = count_in(-window_secs, 0.0);
        for k in 1..=steps {
            let t = k as f64 * delta;
            let cur = count_in(t - window_secs, t);
            if prev > 0.0 || cur > 0.0 {
                acc += window_similarity(cur, prev);
                n += 1;
            }
            prev = cur;
        }
        if n > 0 {
            sims.push(acc / n as f64);
        }
    }
    sims
}

/// Figure 4: consistency of user access frequency across time windows.
///
/// §5.3 validates the predictability assumption behind hotness-aware
/// scheduling: for each user, the similarity of consecutive window
/// frequencies `1 − |f(t) − f(t−δ)| / (f(t) + f(t−δ))` concentrates near 1.
/// We replay an Industry trace, compute the per-user mean similarity over
/// consecutive non-empty windows for W = 5 min and W = 60 min, and print
/// the distribution.
pub fn fig4_frequency_consistency(args: &RunArgs) -> Report {
    let horizon = args.scale(4.0 * 3600.0, 3600.0);
    let session_rate = args.scale(6.0, 2.0);
    // Session-structured traffic (§5.3's burst model): users issue runs of
    // requests minutes apart, which is what makes consecutive windows
    // similar in the paper's traces.
    let mut gen = TraceGenerator::new(Workload::new(DatasetConfig::industry(), 2026), 44);
    let events = gen.generate_session_arrivals(horizon, session_rate, SessionParams::default());
    let mut r = Report::default();
    r.line(format_args!(
        "Figure 4: window-frequency similarity over {} requests, {:.1}h horizon",
        events.len(),
        horizon / 3600.0
    ));

    let mut artifact = serde_json::Map::new();
    for (label, w) in [("W = 5 min", 300.0), ("W = 60 min", 3600.0)] {
        let sims = similarity_distribution(&events, w, horizon);
        let cdf = Cdf::from_samples(&sims);
        let share_ge = |v: f64| 1.0 - cdf.at(v - 1e-9);
        let mean = sims.iter().sum::<f64>() / sims.len().max(1) as f64;
        r.line(format_args!("\n{label}: {} multi-access users", sims.len()));
        let rows = [0.9, 0.7, 0.5].map(|v| cells![v, f3(share_ge(v))]);
        r.table(&["similarity", "share of users ≥"], &rows);
        r.line(format_args!("mean similarity: {}", f3(mean)));
        artifact.insert(
            label.replace(' ', "").to_lowercase(),
            json!({ "mean": mean, "ge_0_5": share_ge(0.5) }),
        );
    }
    r.line("\n(paper: most users exhibit consistent behavior across consecutive windows,");
    r.line(" justifying f_u(now) as a predictor of near-future frequency)");
    r.artifact = Some(json!(artifact));
    r
}

/// Figures 5 & 6: end-to-end throughput (QPS) and cache hit rate across
/// datasets and models (§6.2).
///
/// Grid: {RE, UP, IP, BAT} × {Games, Beauty, Books, Industry} ×
/// {Qwen2-1.5B, Qwen2-7B, Llama3-1B}, on the 4-node A100 testbed, offered
/// load above saturation so completion rate measures capacity.
///
/// Expected shape (paper): BAT highest everywhere — up to ~2.3× RE and up
/// to ~1.6× UP; hit rate up to ~58 %; UP beats IP only on Games (high user
/// frequency); on Industry BAT ≈ IP (item cache leaves little user room).
pub fn fig5_6_throughput(args: &RunArgs) -> Report {
    let duration = args.scale(600.0, 60.0);
    let cluster = ClusterConfig::a100_4node();
    let models = if args.quick {
        vec![ModelConfig::qwen2_1_5b()]
    } else {
        ModelConfig::table2_presets()
    };

    // Every (model × dataset) cell is an independent simulation, so the
    // grid fans out on the bat-exec pool (compare_systems parallelizes the
    // four systems inside each cell as well); results come back in grid
    // order, so the table matches the serial sweep exactly.
    let cells: Vec<(ModelConfig, DatasetConfig)> = models
        .iter()
        .flat_map(|m| {
            DatasetConfig::table1_presets()
                .into_iter()
                .map(move |ds| (m.clone(), ds))
        })
        .collect();
    let cell_stats = bat::exec::parallel_map_indexed(cells.len(), 1, |i| {
        let (model, ds) = &cells[i];
        let rate = saturation_offered_rate(model, &cluster, ds, 3.0);
        compare_systems(
            &spec(model, &cluster, ds, (duration, rate), 1),
            &ALL_SYSTEMS,
        )
    });

    let mut rows = Vec::new();
    let mut artifact = Vec::new();
    let (mut best_vs_up, mut best_hit) = (0.0f64, 0.0f64);
    for ((model, ds), stats) in cells.iter().zip(&cell_stats) {
        let (re_qps, up_qps) = (stats[0].qps(), stats[1].qps());
        for s in stats {
            let (vs_re, vs_up) = (s.qps() / re_qps, s.qps() / up_qps);
            rows.push(cells![
                model.name,
                ds.name,
                s.system,
                f1(s.qps()),
                f3(s.hit_rate()),
                f3(s.computation_savings()),
                format!("{vs_re:.2}x"),
                format!("{vs_up:.2}x"),
            ]);
            artifact.push(json!({
                "model": model.name, "dataset": ds.name, "system": s.system,
                "qps": s.qps(), "hit_rate": s.hit_rate(),
                "savings": s.computation_savings(),
                "vs_re": vs_re, "vs_up": vs_up,
            }));
            if s.system == "BAT" {
                best_vs_up = best_vs_up.max(vs_up);
                best_hit = best_hit.max(s.hit_rate());
            }
        }
    }
    let mut r = Report::default();
    r.line("Figures 5 & 6: saturation QPS and cache hit rate (4-node A100 testbed)");
    r.table(
        &[
            "Model", "Dataset", "System", "QPS", "HitRate", "Savings", "vs RE", "vs UP",
        ],
        &rows,
    );
    // Headline shape checks (printed, not gated — EXPERIMENTS.md records them).
    r.line(format_args!(
        "\nBAT max speedup over UP: {best_vs_up:.2}x (paper: up to 1.6x)"
    ));
    r.line(format_args!(
        "BAT max hit rate:        {best_hit:.3}  (paper: up to 58%)"
    ));
    r.artifact = Some(json!(artifact));
    r
}

/// Algorithm 1's replication ratio for `ds` on `cluster`.
fn hrcs_ratio(model: &ModelConfig, cluster: &ClusterConfig, ds: &DatasetConfig) -> f64 {
    let law = ZipfLaw::new(ds.num_items, ds.item_zipf_exponent);
    compute_replication_ratio(&hrcs_params(model, cluster, ds), &law)
}

/// Figure 7: impact of HRCS item cache placement (§6.4).
///
/// Books dataset, Qwen2-1.5B, 4 nodes × 150 GB KV budget, comparing
/// BAT (HRCS), BAT-Replicate (full item cache everywhere) and BAT-Hash
/// (1/N per node) under 10 Gbps and 100 Gbps networks.
///
/// Expected shape (paper): Replicate never touches the network but starves
/// the user cache; Hash maximizes user-cache space but pays ~31 % of
/// inference latency in communication at 10 Gbps (dropping it to ~78 % of
/// Replicate's throughput); HRCS replicates only the hot head and wins at
/// both bandwidths (+10 % / +16 % over Replicate).
///
/// `--alpha-sweep` additionally prints the replication-ratio sensitivity to
/// Algorithm 1's α (an ablation of the design knob DESIGN.md calls out).
pub fn fig7_placement(args: &RunArgs) -> Report {
    let duration = args.scale(1200.0, 60.0);
    let model = ModelConfig::qwen2_1_5b();
    let ds = DatasetConfig::books();
    let item_kv = model.kv_bytes(ds.avg_item_tokens as u64);
    let at_gbps = |gbps| {
        let mut cluster = ClusterConfig::a100_4node();
        cluster.node = cluster.node.with_network_gbps(gbps);
        cluster
    };

    let mut rows = Vec::new();
    let mut artifact = Vec::new();
    for gbps in [10.0, 100.0] {
        let cluster = at_gbps(gbps);
        let plan = |strategy, ratio| {
            ItemPlacementPlan::new(strategy, ds.num_items, cluster.num_nodes, ratio, item_kv)
        };
        let plans = [
            (
                "BAT (HRCS)",
                plan(PlacementStrategy::Hrcs, hrcs_ratio(&model, &cluster, &ds)),
            ),
            ("BAT-Replicate", plan(PlacementStrategy::Replicate, 1.0)),
            ("BAT-Hash", plan(PlacementStrategy::HashShard, 0.0)),
        ];
        let rate = saturation_offered_rate(&model, &cluster, &ds, 3.0);
        let trace = spec(&model, &cluster, &ds, (duration, rate), 7).trace();
        for (label, plan) in plans {
            let cfg = EngineConfig {
                label: label.to_owned(),
                ..EngineConfig::for_system(SystemKind::Bat, model.clone(), cluster.clone(), &ds)
            }
            .with_placement(Some(plan.clone()));
            let stats = run(cfg, &trace).expect("fig7 plans fit the 150GB budget");
            rows.push(cells![
                format!("{gbps:.0}Gbps"),
                label,
                f3(plan.replication_ratio()),
                plan.per_worker_bytes(),
                f1(stats.qps()),
                f3(stats.hit_rate()),
                f3(stats.net_over_compute()),
            ]);
            artifact.push(json!({
                "network_gbps": gbps, "placement": label,
                "replication_ratio": plan.replication_ratio(),
                "item_bytes_per_node": plan.per_worker_bytes().as_u64(),
                "qps": stats.qps(), "hit_rate": stats.hit_rate(),
                "net_over_compute": stats.net_over_compute(),
            }));
        }
    }
    let mut r = Report::default();
    r.line("Figure 7: item-cache placement comparison (Books, Qwen2-1.5B, 4 nodes)");
    let header = [
        "Network",
        "Placement",
        "ReplRatio",
        "Item/node",
        "QPS",
        "HitRate",
        "Net/Compute",
    ];
    r.table(&header, &rows);

    if args.alpha_sweep {
        r.line("\nAblation: HRCS replication ratio vs α (10Gbps)");
        let mut cluster = at_gbps(10.0);
        let rows: Vec<Vec<String>> = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5]
            .iter()
            .map(|&alpha| {
                cluster.alpha = alpha;
                cells![alpha, f3(hrcs_ratio(&model, &cluster, &ds))]
            })
            .collect();
        r.table(&["alpha", "replication ratio r"], &rows);
    }
    r.artifact = Some(json!(artifact));
    r
}

/// Figure 8: impact of hotness-aware prompt scheduling (§6.4).
///
/// Books dataset, Qwen2-1.5B. The item cache is fixed (the BAT default);
/// the user-cache capacity sweeps 25–100 GB. BAT's hotness-aware scheduling
/// is compared with the cache-agnostic baseline (longer-block-wins + LRU
/// admission).
///
/// Expected shape (paper): with a small user cache the cache-agnostic
/// baseline schedules long-profile users to UP, thrashing the cache with
/// compulsory and capacity misses, so throughput and hit rate fall well
/// below BAT; the gap narrows as the user cache grows.
pub fn fig8_scheduling(args: &RunArgs) -> Report {
    let duration = args.scale(1200.0, 60.0);
    let model = ModelConfig::qwen2_1_5b();
    let cluster = ClusterConfig::a100_4node();
    let ds = DatasetConfig::books();
    let rate = saturation_offered_rate(&model, &cluster, &ds, 3.0);
    let trace = spec(&model, &cluster, &ds, (duration, rate), 8).trace();
    let base = EngineConfig::for_system(SystemKind::Bat, model, cluster, &ds);
    let schedulers = [
        (
            "hotness-aware (BAT)",
            PolicyKind::HotnessAware,
            AdmissionKind::HotnessAware,
        ),
        (
            "cache-agnostic",
            PolicyKind::CacheAgnostic,
            AdmissionKind::Lru,
        ),
    ];

    let mut rows = Vec::new();
    let mut artifact = Vec::new();
    for user_gb in [25u64, 50, 75, 100] {
        for (label, policy, admission) in schedulers {
            let cfg = EngineConfig {
                label: label.to_owned(),
                policy,
                admission,
                ..base.clone()
            }
            .with_user_cache_capacity(Bytes::from_gb(user_gb));
            let stats = run(cfg, &trace).expect("config valid");
            let (qps, hit, up) = (stats.qps(), stats.hit_rate(), stats.up_share());
            rows.push(cells![
                format!("{user_gb} GB"),
                label,
                f1(qps),
                f3(hit),
                f3(up)
            ]);
            artifact.push(json!({
                "user_cache_gb": user_gb, "scheduler": label,
                "qps": qps, "hit_rate": hit, "up_share": up,
            }));
        }
    }
    let mut r = Report::default();
    r.line("Figure 8: hotness-aware vs cache-agnostic scheduling (Books, Qwen2-1.5B)");
    r.table(
        &["User cache", "Scheduler", "QPS", "HitRate", "UP share"],
        &rows,
    );
    r.artifact = Some(json!(artifact));
    r
}

/// Table 4: ablation of the three techniques (§6.4).
///
/// A = Bipartite Attention (without it: User-as-prefix only),
/// B = HRCS placement (without it: replicate the item cache — which OOMs at
///     the 1M-item scale, where hash sharding is used instead, per the
///     paper's footnote),
/// C = hotness-aware scheduling (without it: cache-agnostic + LRU).
///
/// Expected shape (paper, QPS): ABC ≈ AB > AC > A > None on Books-280K
/// (user cache is roomy, C matters little); ABC ≈ AC > AB > A > None on
/// Books-1M (the replicated/hashed item cache squeezes or bypasses memory,
/// B matters).
pub fn table4_ablation(args: &RunArgs) -> Report {
    let duration = args.scale(1200.0, 60.0);
    let model = ModelConfig::qwen2_1_5b();
    let cluster = ClusterConfig::a100_4node();

    let mut rows = Vec::new();
    let mut artifact = Vec::new();
    for ds in [DatasetConfig::books(), DatasetConfig::books_x(1_000_000)] {
        let rate = saturation_offered_rate(&model, &cluster, &ds, 3.0);
        let trace = spec(&model, &cluster, &ds, (duration, rate), 4).trace();
        let abc = EngineConfig::for_system(SystemKind::Bat, model.clone(), cluster.clone(), &ds);
        // The no-B placement: Replicate if it fits the node budget, else the
        // paper's hash-sharding fallback.
        let item_kv = model.kv_bytes(ds.avg_item_tokens as u64);
        let plan = |strategy, ratio| {
            ItemPlacementPlan::new(strategy, ds.num_items, cluster.num_nodes, ratio, item_kv)
        };
        let replicate = plan(PlacementStrategy::Replicate, 1.0);
        let (no_b, no_b_note) = if replicate.per_worker_bytes() <= cluster.node.kv_cache_capacity {
            (replicate, "replicate")
        } else {
            (
                plan(PlacementStrategy::HashShard, 0.0),
                "replicate OOMs -> hash shard",
            )
        };
        let ablate = |label: &str, no_c: bool, no_b: Option<&ItemPlacementPlan>| {
            let mut cfg = EngineConfig {
                label: label.into(),
                ..abc.clone()
            };
            if no_c {
                cfg.policy = PolicyKind::CacheAgnostic;
                cfg.admission = AdmissionKind::Lru;
            }
            match no_b {
                Some(plan) => cfg.with_placement(Some(plan.clone())),
                None => cfg,
            }
        };
        let variants: Vec<(String, EngineConfig)> = vec![
            ("ABC".into(), abc.clone()),
            ("AB".into(), ablate("AB", true, None)),
            (
                format!("AC ({no_b_note})"),
                ablate("AC", false, Some(&no_b)),
            ),
            (format!("A ({no_b_note})"), ablate("A", true, Some(&no_b))),
            (
                "None (UP)".into(),
                EngineConfig::for_system(
                    SystemKind::UserPrefix,
                    model.clone(),
                    cluster.clone(),
                    &ds,
                ),
            ),
        ];
        // Each variant is an independent engine run over the same spec, so
        // the five fan out on the bat-exec pool; results come back in
        // variant order, keeping the table layout stable.
        let stats = bat::exec::parallel_map_indexed(variants.len(), 1, |i| {
            run(variants[i].1.clone(), &trace).expect("table4 configs validate")
        });
        for ((label, _), stats) in variants.iter().zip(&stats) {
            rows.push(cells![
                ds.name,
                label,
                f1(stats.qps()),
                f3(stats.hit_rate())
            ]);
            artifact.push(json!({
                "dataset": ds.name, "variant": label,
                "qps": stats.qps(), "hit_rate": stats.hit_rate(),
            }));
        }
    }
    let mut r = Report::default();
    r.line("Table 4: ablation study (throughput in QPS)");
    r.table(&["Dataset", "Variant", "QPS", "HitRate"], &rows);
    r.line("\nA = Bipartite Attention, B = HRCS placement, C = hotness-aware scheduling");
    r.artifact = Some(json!(artifact));
    r
}

/// Figure 9: P99 end-to-end latency vs request rate (§6.5).
///
/// Industry dataset, Qwen2-1.5B, 4-node testbed, systems RE / UP / BAT.
/// Latency stays near the service floor until the saturation knee, then
/// grows steeply. Given the paper's 200 ms P99 SLO, BAT sustains ~1.47×
/// the rate of UP and ~1.57× the rate of RE.
pub fn fig9_latency(args: &RunArgs) -> Report {
    const SLO_MS: f64 = 200.0;
    let duration = args.scale(60.0, 15.0);
    let model = ModelConfig::qwen2_1_5b();
    let cluster = ClusterConfig::a100_4node();
    let ds = DatasetConfig::industry();
    let systems = [
        SystemKind::Recompute,
        SystemKind::UserPrefix,
        SystemKind::Bat,
    ];

    // Sweep offered rates from well below RE capacity to beyond BAT's.
    let re_capacity = saturation_offered_rate(&model, &cluster, &ds, 1.0);
    let fracs = [
        0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15, 1.2, 1.3, 1.4, 1.5, 1.6, 1.8, 2.0,
    ];
    let mut rows = Vec::new();
    let mut artifact = Vec::new();
    let mut max_rate_under_slo = [0.0f64; 3];
    for frac in fracs {
        let rate = re_capacity * frac;
        let stats = compare_systems(&spec(&model, &cluster, &ds, (duration, rate), 9), &systems);
        let mut row = vec![f1(rate)];
        for (s, max_rate) in stats.iter().zip(&mut max_rate_under_slo) {
            row.push(f1(s.p99_latency_ms));
            if s.p99_latency_ms <= SLO_MS {
                *max_rate = max_rate.max(rate);
            }
            artifact.push(json!({
                "system": s.system, "offered_rate": rate,
                "p99_ms": s.p99_latency_ms, "p50_ms": s.p50_latency_ms,
                "qps": s.qps(),
            }));
        }
        rows.push(row);
    }
    let mut r = Report::default();
    r.line("Figure 9: P99 latency (ms) vs offered request rate (Industry, Qwen2-1.5B)");
    r.table(&["Rate (req/s)", "RE P99", "UP P99", "BAT P99"], &rows);
    let [re, up, bat] = max_rate_under_slo;
    r.line(format_args!(
        "\nMax sustained rate under {SLO_MS:.0}ms P99 SLO:"
    ));
    r.line(format_args!("  RE  {re:.1} req/s"));
    r.line(format_args!("  UP  {up:.1} req/s"));
    r.line(format_args!(
        "  BAT {bat:.1} req/s  ({:.2}x UP, {:.2}x RE; paper: 1.47x / 1.57x)",
        bat / up.max(1e-9),
        bat / re.max(1e-9)
    ));
    r.artifact = Some(json!({ "points": artifact, "slo_ms": SLO_MS,
        "max_rate_re": re, "max_rate_up": up, "max_rate_bat": bat }));
    r
}

/// Figure 10: throughput and cache hit rate vs item corpus size (§6.6).
///
/// 16-node H20 production testbed, Industry-X datasets with 1M–100M items,
/// Qwen2-1.5B. At 100M items the item KV cache no longer fits the pooled
/// memory: BAT caches only the hottest ~10 % of items and shifts more
/// requests to User-as-prefix, while the pure IP baseline's hit rate drops
/// harder (more uncached items).
pub fn fig10_corpus_scaling(args: &RunArgs) -> Report {
    let duration = args.scale(90.0, 15.0);
    let model = ModelConfig::qwen2_1_5b();
    let cluster = ClusterConfig::h20_16node();
    let corpus_sizes: &[u64] = if args.quick {
        &[1_000_000, 100_000_000]
    } else {
        &[1_000_000, 10_000_000, 100_000_000]
    };

    let mut rows = Vec::new();
    let mut artifact = Vec::new();
    for &items in corpus_sizes {
        let ds = DatasetConfig::industry_x(items);
        let rate = saturation_offered_rate(&model, &cluster, &ds, 3.0);
        let stats = compare_systems(
            &spec(&model, &cluster, &ds, (duration, rate), 10),
            &ALL_SYSTEMS,
        );
        for s in &stats {
            let (qps, hit, up) = (s.qps(), s.hit_rate(), s.up_share());
            rows.push(cells![ds.name, s.system, f1(qps), f3(hit), f3(up)]);
            artifact.push(json!({
                "dataset": ds.name, "items": items, "system": s.system,
                "qps": qps, "hit_rate": hit, "up_share": up,
            }));
        }
    }
    let mut r = Report::default();
    r.line("Figure 10: corpus-size scaling (16-node H20, Qwen2-1.5B)");
    r.table(&["Dataset", "System", "QPS", "HitRate", "UP share"], &rows);
    r.line("\n(paper: BAT stays ahead as the corpus grows; at 100M items it caches the");
    r.line(" hottest ~10% of items and schedules more requests User-as-prefix, while");
    r.line(" IP's hit rate drops harder)");
    r.artifact = Some(json!(artifact));
    r
}

/// Figure 11: serving throughput vs node count (§6.6).
///
/// Industry-1M, Qwen2-1.5B, H20 production nodes scaled 1 → 16. Requests
/// are data-parallel across inference workers and HRCS keeps item-cache
/// traffic local, so BAT's throughput grows near-linearly.
pub fn fig11_node_scaling(args: &RunArgs) -> Report {
    let duration = args.scale(90.0, 15.0);
    let model = ModelConfig::qwen2_1_5b();
    let ds = DatasetConfig::industry_x(1_000_000);

    let mut rows = Vec::new();
    let mut artifact = Vec::new();
    let mut qps_at_1 = 0.0f64;
    for n in [1usize, 2, 4, 8, 16] {
        let cluster = ClusterConfig::h20_16node().with_nodes(n);
        let rate = saturation_offered_rate(&model, &cluster, &ds, 3.0);
        let stats = compare_systems(
            &spec(&model, &cluster, &ds, (duration, rate), 11),
            &[SystemKind::Bat],
        );
        let s = &stats[0];
        if n == 1 {
            qps_at_1 = s.qps();
        }
        let speedup = s.qps() / qps_at_1.max(1e-9);
        let efficiency = speedup / n as f64;
        rows.push(cells![
            n,
            f1(s.qps()),
            format!("{speedup:.2}x"),
            f3(efficiency),
            f3(s.hit_rate())
        ]);
        artifact.push(json!({
            "nodes": n, "qps": s.qps(), "speedup": speedup,
            "efficiency": efficiency, "hit_rate": s.hit_rate(),
        }));
    }
    let mut r = Report::default();
    r.line("Figure 11: BAT throughput vs node count (Industry-1M, Qwen2-1.5B, H20 nodes)");
    r.table(&["Nodes", "QPS", "Speedup", "Efficiency", "HitRate"], &rows);
    r.line("\n(paper: near-linear scaling from 1 to 16 nodes)");
    r.artifact = Some(json!(artifact));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_writes_the_same_bytes_on_every_run() {
        let quick = RunArgs {
            quick: true,
            ..RunArgs::default()
        };
        let bytes = || {
            let artifact = fig4_frequency_consistency(&quick).artifact;
            serde_json::to_string_pretty(&artifact.expect("fig4 writes an artifact")).unwrap()
        };
        assert_eq!(bytes(), bytes());
    }
}
