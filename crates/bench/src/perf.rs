//! Tracked wall-clock perf baseline for the execution layer and the
//! serving data plane.
//!
//! Measures the reproduction's own kernels ([`Matrix::matmul`] at the
//! ranking forward's shapes, the group attention kernel, the elementwise
//! passes) and forwards ([`GrModel::forward`]), and checks the determinism
//! contract (parallel runs bit-identical to serial). Under them sit the
//! `serve` rows: one saturation drain of the threaded runtime per
//! transport, and the worker pacer's overshoot. `batctl bench` prints the
//! summary as JSON and the committed `BENCH_KERNELS.json` at the repo root
//! records the numbers for regression tracking, stamped with the numerics
//! [`EPOCH`] and the SIMD tier they were measured under: timings (and
//! output bits) are only comparable within one of each.
//!
//! Methodology: minimum wall-clock time over a fixed number of samples
//! (min is robust to scheduler noise on shared machines), one warmup run
//! per measurement, `std::hint::black_box` around inputs and outputs.

use bat::exec;
use bat::meta::{MetaClient, MetaCommand};
use bat_kvcache::CacheKey;
use bat_model::prompt::{MaskScheme, PromptLayout, SegTag, TokenSeq};
use bat_model::{ForwardWorkspace, GrModel, GrModelConfig, HstuModel, KvSegment, Stage, Weights};
use bat_sched::{BatchScheduler, BatchingConfig};
use bat_serve::{Pacer, ServeOptions, ServeRuntime, TransportKind};
use bat_sim::{EngineConfig, ServingEngine, SystemKind};
use bat_tensor::{
    active_simd_tier, axpy, dot_fast, fast_silu_mul_in_place, stable_softmax_fast_in_place,
    stage_is_pooled, ColBlock, GroupAttention, Matrix, QuantKind, QuantizedColBlock, Softmax,
    SplitCols,
};
use bat_types::{ClusterConfig, DatasetConfig, ModelConfig, PrefixKind, UserId};
use bat_workload::{TraceGenerator, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A seeded random matrix (unit scale).
fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::random(rows, cols, 1.0, &mut SmallRng::seed_from_u64(seed))
}

/// One timed measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchResult {
    /// Benchmark id, e.g. `"matmul_blocked"` or `"forward_batched"`.
    pub name: String,
    /// Pool width the measurement ran with.
    pub threads: usize,
    /// Best-of-N wall-clock seconds for one call.
    pub secs: f64,
}

/// A ratio a test gates on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Speedup {
    /// What is being compared, e.g. `"cold_attend_fused"`.
    pub name: String,
    /// Seconds of the path the kernel replaces.
    pub before_secs: f64,
    /// Seconds of the kernel.
    pub after_secs: f64,
    /// `before / after`.
    pub speedup: f64,
}

/// The arithmetic the kernels are written in. A change to what any kernel
/// computes — not merely how fast — starts a new epoch: rows recorded under
/// another one time different arithmetic, and bits are only pinned within
/// one. `fma-1`: fused multiply-adds throughout, the register-blocked GEMM,
/// the degree-6 softmax `exp` (DESIGN §5d has the contract).
pub const EPOCH: &str = "fma-1";

/// Everything `batctl bench` reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfSummary {
    /// The numerics [`EPOCH`] of the build that produced the summary (empty
    /// for one recorded before epochs were named).
    #[serde(default)]
    pub epoch: String,
    /// The SIMD tier the kernels dispatched to
    /// ([`bat_tensor::active_simd_tier`]).
    #[serde(default)]
    pub simd_tier: String,
    /// The CPU's model name as the OS reports it, for the reader: box
    /// drift is the first thing to rule out when a row moves.
    #[serde(default)]
    pub cpu: String,
    /// Hardware parallelism visible to the process.
    pub nproc: usize,
    /// Pool widths timed: the requested widths that fit in `nproc`. A pool
    /// wider than the machine only measures time-slicing, and such rows
    /// read as a regression (the 4-thread rows once recorded on one core
    /// did), so they are neither written nor checked.
    pub thread_counts: Vec<usize>,
    /// `true` iff every parallel run produced bit-identical results to the
    /// serial run (the execution layer's core contract).
    pub deterministic: bool,
    /// Kernel-level measurements (matmul, quantization, group attention,
    /// SIMD elementwise, batch formation, meta commits).
    pub kernels: Vec<BenchResult>,
    /// End-to-end forward-pass measurements (proxy model, ranking prompt).
    pub forward: Vec<BenchResult>,
    /// Serving-path measurements: the data plane ([`serve_rows`]) and the
    /// simulator's sweep ([`sim_sweep_row`]).
    #[serde(default)]
    pub serve: Vec<BenchResult>,
    /// The ratios a test gates on (`cold_attend_fused`).
    pub speedups: Vec<Speedup>,
}

/// The CPU's model name, from `/proc/cpuinfo` where there is one.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Best-of-`samples` wall-clock seconds for one call of `f`, after one
/// warmup call.
fn time_best<F: FnMut()>(mut f: F, samples: u32) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Sets the pool width and, above one thread, keeps the pool busy for a
/// second before anything is timed. A freshly woken worker tends to share
/// the caller's core (the caller spin-yields while it waits), and the
/// scheduler takes about a second to spread them; a row timed inside that
/// window measures time-slicing, not a second core.
fn set_width(w: usize) {
    exec::set_threads(w);
    if w > 1 {
        let m = random_matrix(128, 128, 5);
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < 1.2 {
            black_box(m.matmul(&m));
        }
    }
}

/// The `bench_forward` scenario from the acceptance criteria: the
/// Qwen2-1.5B-shaped proxy ranking a `candidates`-item prompt.
fn forward_scenario(candidates: usize) -> (GrModel, TokenSeq) {
    // Token ids used below: items i and 200+i, user 100.., instr 250/251.
    let cfg = GrModelConfig::qwen2_1_5b_proxy(300 + candidates);
    let model = GrModel::new(Weights::random(cfg, 11));
    let user: Vec<u32> = (0..48).map(|i| 100 + i as u32).collect();
    let items: Vec<Vec<u32>> = (0..candidates as u32).map(|i| vec![i, 200 + i]).collect();
    let seq = PromptLayout::new(MaskScheme::Bipartite).build(
        PrefixKind::Item,
        &user,
        &items,
        &[250, 251],
    );
    (model, seq)
}

/// The prefix-heavy serving scenario: the same proxy model with a long
/// cached user prefix *and* `candidates` cached item blocks, so the
/// computed suffix is just the two instruction tokens — the steady state
/// of a warm Bat worker, where per-request KV data movement (not FLOPs)
/// used to dominate. Returns the model, the cached-head sequence, and the
/// suffix to compute.
fn prefix_heavy_scenario(user_tokens: usize, candidates: usize) -> (GrModel, TokenSeq, TokenSeq) {
    let cfg = GrModelConfig::qwen2_1_5b_proxy(300 + candidates);
    let model = GrModel::new(Weights::random(cfg, 13));
    let user: Vec<u32> = (0..user_tokens).map(|i| 100 + (i % 100) as u32).collect();
    let items: Vec<Vec<u32>> = (0..candidates as u32).map(|i| vec![i, 200 + i]).collect();
    let seq = PromptLayout::new(MaskScheme::Bipartite).build(
        PrefixKind::User,
        &user,
        &items,
        &[250, 251],
    );
    let cached = seq.len() - 2;
    let (head, tail) = seq.split_at(cached);
    (model, head, tail)
}

/// A cached prefix and the suffix left to compute behind it.
type Hit = (KvSegment, TokenSeq);

/// The tokens of a `rank_warm` user profile of `len` tokens.
fn rank_warm_profile(len: u32) -> Vec<u32> {
    (0..len).map(|i| i * 37 % 4256).collect()
}

/// The 50 two-token candidates and the 32-token instruction block of a
/// `rank_warm` request.
fn rank_warm_items_instr() -> (Vec<Vec<u32>>, Vec<u32>) {
    let items = (0..50).map(|i| vec![i, 4000 + i]).collect();
    (items, (0..32).map(|i| 4100 + i).collect())
}

/// The `rank_warm` request shape of the repo benchmark (`benchmark/`): a
/// `profile`-token user profile, 50 two-token candidates and a 32-token
/// instruction block, as the two hits `model` can serve it by:
/// User-as-prefix splices the cached profile and computes items +
/// instructions; Item-as-prefix splices the 50 item segments — each computed
/// standalone — and computes profile + instructions.
fn rank_warm_hits(model: &GrModel, profile: u32) -> [Hit; 2] {
    let layout = PromptLayout::new(MaskScheme::Bipartite);
    let user = rank_warm_profile(profile);
    let (items, instr) = rank_warm_items_instr();

    let up = layout.build(PrefixKind::User, &user, &items, &instr);
    let (up_head, up_tail) = up.split_at(user.len());
    let up_kv = model.compute_kv(&up_head);

    let ip = layout.build(PrefixKind::Item, &user, &items, &instr);
    let cached: Vec<KvSegment> = items
        .iter()
        .map(|item| model.compute_kv(&layout.item_standalone(0, item, 0)))
        .collect();
    let mut ip_kv = KvSegment::concat(&cached.iter().collect::<Vec<_>>());
    for (g, tag) in ip_kv.segs.iter_mut().enumerate() {
        *tag = SegTag::Item(g as u32 / 2);
    }
    let (_, ip_tail) = ip.split_at(ip_kv.len());
    [(up_kv, up_tail), (ip_kv, ip_tail)]
}

/// The model and the forwards behind the `forward_*_hit*` rows and the stage
/// profile: both hits behind a 192-token profile (the data set's mean, and
/// a whole number of the kernels' sixteen-key chunks) and the
/// User-as-prefix hit behind one of 183 — no row's key run is whole chunks,
/// as for fifteen profiles in sixteen.
fn rank_warm_cases() -> (GrModel, [(&'static str, Hit); 3]) {
    let model = GrModel::new(Weights::random(GrModelConfig::qwen2_1_5b_proxy(4256), 11));
    let [up, ip] = rank_warm_hits(&model, 192);
    let [up_ragged, _] = rank_warm_hits(&model, 183);
    let cases = [
        ("forward_up_hit", up),
        ("forward_ip_hit", ip),
        ("forward_up_hit_ragged", up_ragged),
    ];
    (model, cases)
}

/// Checks the determinism contract: matmul and forward at each width in
/// `widths` are bit-identical to the serial run. The shapes (a 130 × 96 ×
/// 112 product, a 350-token cold forward) put the product and every stage
/// of the forward on the pool (bar the last layer's, which finishes one
/// read-out row) — anything smaller runs inline at every width and the
/// check would compare the serial code to itself.
fn check_determinism(widths: &[usize]) -> bool {
    let a = random_matrix(130, 96, 3);
    let b = random_matrix(96, 112, 4);
    let (model, seq) = forward_scenario(150);
    let stages = model.stage_work(&seq, None);
    assert!(
        stage_is_pooled(a.rows() * a.cols() * b.cols())
            && stages
                .iter()
                .all(|&(stage, work)| stage == "read-out rows" || stage_is_pooled(work)),
        "determinism check shapes fell below the pool threshold: {stages:?}"
    );
    exec::set_threads(1);
    let gold_mm = a.matmul(&b);
    let gold_fwd = model.forward(&seq, None);
    let mut ok = true;
    for &w in widths {
        exec::set_threads(w);
        let mm = a.matmul(&b);
        let fwd = model.forward(&seq, None);
        ok &= mm
            .as_slice()
            .iter()
            .zip(gold_mm.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        ok &= fwd
            .logits()
            .iter()
            .zip(&gold_fwd.logits())
            .all(|(x, y)| x.to_bits() == y.to_bits());
    }
    ok
}

/// The serving data plane with compute ≈ 0, one row each:
///
/// * `serve_drain_channel` / `serve_drain_uds` — seconds for one
///   `ServeRuntime::serve` saturation drain of a fixed Books trace (1 000
///   requests; 100 when `quick`) through the slot scheduler at `time_scale`
///   1e-6, over in-process channels and over Unix sockets: planner, slot
///   machine, frame codec, transport, worker pacing and the wake-driven
///   waits, with nothing to wait for but each other.
/// * `worker_pacing_overshoot` — seconds a [`Pacer`] blocks for 10 000
///   charges of 1 µs. The priced total is 0.010 s, so `secs / 0.010` is the
///   overshoot: ≈ 1 when small charges share sleeps, ≈ 55 if each paid the
///   timer floor.
fn serve_rows(quick: bool, samples: u32) -> Vec<BenchResult> {
    let mut ds = DatasetConfig::books();
    let cfg = EngineConfig::for_system(
        SystemKind::Bat,
        ModelConfig::qwen2_1_5b(),
        ClusterConfig::a100_4node().with_nodes(2),
        &ds,
    )
    .with_batching(Some(BatchingConfig::default()));
    // One request per session, as in the repo benchmark's `serve_slots`:
    // the round count then barely moves with the seed.
    ds.session_mean_requests = 1.0;
    let requests = if quick { 100 } else { 1_000 };
    let mut trace = TraceGenerator::new(Workload::new(ds, 7), 11).generate(5.0, 300.0);
    assert!(trace.len() >= requests, "trace generator fell short");
    trace.truncate(requests);

    let mut rows = Vec::new();
    let mut transports = vec![("serve_drain_channel", TransportKind::Channel)];
    if cfg!(unix) {
        transports.push(("serve_drain_uds", TransportKind::Uds));
    }
    for (name, transport) in transports {
        let opts = ServeOptions {
            time_scale: 1e-6,
            transport,
            ..ServeOptions::default()
        };
        let runtime = ServeRuntime::new(cfg.clone(), opts).expect("preset config validates");
        let secs = time_best(
            || {
                black_box(runtime.serve(black_box(&trace)));
            },
            samples,
        );
        rows.push(BenchResult {
            name: name.into(),
            threads: 1,
            secs,
        });
    }

    let pacing_secs = time_best(
        || {
            let mut pacer = Pacer::new();
            for _ in 0..10_000 {
                black_box(pacer.charge(Duration::from_micros(1), true));
                pacer.catch_up();
            }
        },
        samples,
    );
    rows.push(BenchResult {
        name: "worker_pacing_overshoot".into(),
        threads: 1,
        secs: pacing_secs,
    });
    rows
}

/// `sim_sweep` — seconds for the eight `ServingEngine::new` + `run`s (RE,
/// UP, IP, BAT, each per-request and with [`BatchingConfig::default`]) of
/// a fixed, overloaded Books trace on two nodes: 15 000 requests (300 when
/// `quick`), the sweep of the repo benchmark's `sim_replay`. The planner and
/// the slot machine are most of it; no threads, sockets or sleeps.
fn sim_sweep_row(quick: bool, samples: u32) -> BenchResult {
    let ds = DatasetConfig::books();
    let (requests, secs) = if quick { (300, 10.0) } else { (15_000, 200.0) };
    let mut trace = TraceGenerator::new(Workload::new(ds.clone(), 7), 11).generate(secs, 300.0);
    assert!(trace.len() >= requests, "trace generator fell short");
    trace.truncate(requests);
    let mut cfgs = Vec::new();
    for kind in [
        SystemKind::Recompute,
        SystemKind::UserPrefix,
        SystemKind::ItemPrefix,
        SystemKind::Bat,
    ] {
        for batching in [None, Some(BatchingConfig::default())] {
            let cluster = ClusterConfig::a100_4node().with_nodes(2);
            cfgs.push(
                EngineConfig::for_system(kind, ModelConfig::qwen2_1_5b(), cluster, &ds)
                    .with_batching(batching),
            );
        }
    }
    let secs = time_best(
        || {
            for cfg in &cfgs {
                let mut engine = ServingEngine::new(cfg.clone()).expect("preset config validates");
                black_box(engine.run(black_box(&trace)));
            }
        },
        samples,
    );
    BenchResult {
        name: "sim_sweep".into(),
        threads: 1,
        secs,
    }
}

/// Submits per timed call of a `meta_commit_*` row.
const META_COMMITS: u32 = 10_000;

/// `meta_commit_512` / `_5k` / `_50k` — [`MetaClient::submit`] of a
/// `HotnessDelta` on a three-replica meta group whose hotness table holds
/// that many keys: seconds for [`META_COMMITS`] submits, so `secs × 100` is
/// µs per submit (a batch that long is what lets the gate's absolute slack
/// see a 0.1 µs commit double). The planner commits on every request, so a
/// commit whose cost grows with the table makes every plan cost O(users);
/// the three rows read alike when it does not.
fn meta_rows(samples: u32) -> Vec<BenchResult> {
    let submit = |client: &mut MetaClient, i: u64, keys: u64| {
        let key = CacheKey::User(UserId::new(i % keys));
        black_box(client.submit(MetaCommand::HotnessDelta { key, at_ms: i }, i as f64 * 1e-3));
    };
    [
        ("meta_commit_512", 512),
        ("meta_commit_5k", 5_000),
        ("meta_commit_50k", 50_000),
    ]
    .into_iter()
    .map(|(name, keys)| {
        let mut client = MetaClient::new(3, 401, 2);
        for i in 0..keys {
            submit(&mut client, i, keys);
        }
        let mut i = keys;
        let secs = time_best(
            || {
                for _ in 0..META_COMMITS {
                    submit(&mut client, i, keys);
                    i += 1;
                }
            },
            samples,
        );
        BenchResult {
            name: name.into(),
            threads: 1,
            secs,
        }
    })
    .collect()
}

/// One scenario of [`stage_profile`] at one pool width.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// The forward timed: a `forward` row name of [`PerfSummary`].
    pub scenario: String,
    /// Pool width.
    pub threads: usize,
    /// Mean wall-clock microseconds per forward.
    pub wall_us: f64,
    /// Mean microseconds per forward in each [`bat_model::Stage`], by name:
    /// thread time for the stages inside the pooled one, so at `threads`
    /// threads `threads × (RowsWall + LastRowsWall) − (Q + … + Down)` is
    /// what they idled. `ReadOut` includes scoring the 50 candidates.
    pub stages: Vec<(String, f64)>,
}

/// Where a `rank_warm` forward spends its time, by stage
/// ([`ForwardWorkspace::profile_stages`]): the three hits of the `forward`
/// rows, each the mean of `forwards` runs at every width in `widths` the
/// machine has cores for. Each forward is followed by the read it serves —
/// [`bat_model::ForwardOutput::candidate_scores`] over the 50 candidates —
/// booked on `ReadOut` beside the forward's own final norm.
pub fn stage_profile(widths: &[usize], forwards: u32) -> Vec<StageRow> {
    let restore = exec::threads();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (model, cases) = rank_warm_cases();
    // Identifier tokens of the 50 candidates `rank_warm_hits` builds.
    let ids: Vec<u32> = (0..50).collect();
    let mut rows = Vec::new();
    for &w in widths.iter().filter(|&&w| w <= nproc) {
        set_width(w);
        for (name, (kv, tail)) in &cases {
            let mut ws = ForwardWorkspace::new();
            for _ in 0..forwards.div_ceil(10) {
                black_box(model.forward_with(tail, Some(kv), &mut ws));
            }
            ws.profile_stages();
            let mut scoring = Duration::ZERO;
            let t0 = Instant::now();
            for _ in 0..forwards {
                let out = model.forward_with(black_box(tail), Some(kv), &mut ws);
                let t1 = Instant::now();
                black_box(out.candidate_scores(black_box(&ids)));
                scoring += t1.elapsed();
            }
            let wall_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(forwards);
            let stages = ws.stage_profile().expect("profiling was switched on");
            rows.push(StageRow {
                scenario: (*name).into(),
                threads: w,
                wall_us,
                stages: stages
                    .iter()
                    .map(|&(stage, mut time)| {
                        if stage == Stage::ReadOut {
                            time += scoring;
                        }
                        let us = time.as_secs_f64() * 1e6 / f64::from(forwards);
                        (format!("{stage:?}"), us)
                    })
                    .collect(),
            });
        }
    }
    exec::set_threads(restore);
    rows
}

/// Runs the full suite at each width in `widths` that fits the machine
/// (see [`PerfSummary::thread_counts`]); determinism is still checked at
/// every requested width, since that is a correctness property.
///
/// `quick` shrinks problem sizes and sample counts for CI smoke runs; the
/// committed baseline uses the full sizes.
pub fn run(quick: bool, widths: &[usize]) -> PerfSummary {
    let restore = exec::threads();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let thread_counts: Vec<usize> = widths.iter().copied().filter(|&w| w <= nproc).collect();
    let thread_counts = &thread_counts[..];
    let (mm_dim, samples, candidates) = if quick { (64, 3, 20) } else { (128, 5, 100) };

    let a = random_matrix(mm_dim, mm_dim, 1);
    let b = random_matrix(mm_dim, mm_dim, 2);
    let bt = b.transpose();
    let (model, seq) = forward_scenario(candidates);

    let mut kernels = Vec::new();
    let mut forward = Vec::new();

    // The GEMM at the `rank_warm` forward's four shapes: 132 suffix rows
    // through gate|up, down, Q / O, and K|V.
    let gemm_shapes = [(132, 96, 512), (132, 256, 96), (132, 96, 96), (132, 96, 32)];
    let gemm_operands: Vec<(Matrix, Matrix)> = gemm_shapes
        .iter()
        .map(|&(n, k, m)| (random_matrix(n, k, 31), random_matrix(k, m, 32)))
        .collect();
    let mut gemm_out = Matrix::zeros(0, 0);
    // Tens of microseconds a call: many samples where calls are cheap, few
    // in quick mode (the suite's own tests run it unoptimized).
    let micro_samples = if quick { samples } else { samples * 40 };

    for &w in thread_counts {
        set_width(w);
        if w > 1 {
            // What handing a stage to the pool costs when the stage itself
            // is free — the number `bat_tensor`'s `PAR_MACS` threshold is
            // derived from, with the `gemm_*` rate below. The median, not
            // the best: the best (≈ 0.6 µs) is the rare dispatch a spinning
            // worker catches at once, and a threshold has to repay the
            // usual one.
            let mut dispatches: Vec<f64> = (0..micro_samples * 10)
                .map(|_| {
                    let t0 = Instant::now();
                    exec::parallel_chunks(4 * w, 1, |rows| {
                        black_box(rows);
                    });
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            dispatches.sort_by(f64::total_cmp);
            kernels.push(BenchResult {
                name: "pool_dispatch".into(),
                threads: w,
                secs: dispatches[dispatches.len() / 2],
            });
        }
        let mm = time_best(|| drop(black_box(black_box(&a).matmul(&b))), samples);
        kernels.push(BenchResult {
            name: "matmul_blocked".into(),
            threads: w,
            secs: mm,
        });
        let nt = time_best(|| drop(black_box(black_box(&a).matmul_nt(&bt))), samples);
        kernels.push(BenchResult {
            name: "matmul_nt_blocked".into(),
            threads: w,
            secs: nt,
        });
        for (&(n, k, m), (lhs, rhs)) in gemm_shapes.iter().zip(&gemm_operands) {
            let secs = time_best(
                || {
                    black_box(lhs).matmul_into(black_box(rhs), &mut gemm_out);
                    black_box(&gemm_out);
                },
                micro_samples,
            );
            kernels.push(BenchResult {
                name: format!("gemm_{n}x{k}x{m}"),
                threads: w,
                secs,
            });
        }
        let fwd = time_best(
            || drop(black_box(model.forward(black_box(&seq), None))),
            samples,
        );
        forward.push(BenchResult {
            name: "forward_batched".into(),
            threads: w,
            secs: fwd,
        });
    }

    // Prefix-heavy scenario: long cached user prefix + cached candidate
    // blocks, two-token suffix, through a reused workspace and the zero-copy
    // splice of the stored packed planes (`forward_packed_prefix`; the
    // repack-per-layer data movement it replaced last read 0.816 ms against
    // 0.260 ms — EXPERIMENTS.md, PR 22). The calls are sub-millisecond, so
    // they get more samples (not in quick mode: the suite's own tests run it
    // unoptimized, where a forward takes seconds).
    let (user_tokens, p_candidates) = if quick { (256, 20) } else { (2048, 100) };
    let p_samples = if quick { samples } else { samples * 8 };
    let (p_model, p_head, p_tail) = prefix_heavy_scenario(user_tokens, p_candidates);
    exec::set_threads(1);
    let p_kv: KvSegment = p_model.compute_kv(&p_head);
    let mut ws = ForwardWorkspace::new();
    for &w in thread_counts {
        set_width(w);
        let packed = time_best(
            || {
                black_box(p_model.forward_with(
                    black_box(&p_tail),
                    Some(black_box(&p_kv)),
                    &mut ws,
                ));
            },
            p_samples,
        );
        forward.push(BenchResult {
            name: "forward_packed_prefix".into(),
            threads: w,
            secs: packed,
        });
    }

    // The repo benchmark's `rank_warm` request, one forward per prefix kind
    // through a reused workspace — the rows behind its
    // `model.forward_up_hit` / `model.forward_ip_hit` spans. Same shape in
    // quick mode: it is the shape that matters, and it takes milliseconds.
    // `compute_kv_user` is the miss beside them: the 192-token profile's
    // segment, a forward that reads out nothing.
    let (r_model, r_cases) = rank_warm_cases();
    let profile = PromptLayout::new(MaskScheme::Bipartite).user_standalone(&rank_warm_profile(192));
    for &w in thread_counts {
        set_width(w);
        let secs = time_best(
            || drop(black_box(r_model.compute_kv(black_box(&profile)))),
            p_samples,
        );
        forward.push(BenchResult {
            name: "compute_kv_user".into(),
            threads: w,
            secs,
        });
        for (name, (kv, tail)) in &r_cases {
            let secs = time_best(
                || {
                    black_box(r_model.forward_with(black_box(tail), Some(black_box(kv)), &mut ws));
                },
                p_samples,
            );
            forward.push(BenchResult {
                name: (*name).into(),
                threads: w,
                secs,
            });
        }
    }

    // The same request cold and Item-as-prefix (324 tokens) through the
    // HSTU-style model at matched heads: the pointwise unit's row.
    let hstu_cfg = GrModelConfig {
        kv_heads: 12,
        ..GrModelConfig::qwen2_1_5b_proxy(4256)
    };
    let hstu = HstuModel::random(hstu_cfg, 11);
    let (items, instr) = rank_warm_items_instr();
    let cold = PromptLayout::new(MaskScheme::Bipartite).build(
        PrefixKind::Item,
        &rank_warm_profile(192),
        &items,
        &instr,
    );
    for &w in thread_counts {
        set_width(w);
        let secs = time_best(
            || {
                black_box(hstu.forward_with(black_box(&cold), None, &mut ws));
            },
            p_samples,
        );
        forward.push(BenchResult {
            name: "forward_hstu".into(),
            threads: w,
            secs,
        });
    }

    // Cold-tier quantization kernels (serial: per-segment work the tiered
    // pool does on demotion and cold hits). The fused attend reads the
    // quantized planes directly; its baseline materializes an f32 copy
    // first and attends over that — same arithmetic, bit-identical result,
    // extra allocation and memory traffic.
    let (q_rows, q_cols) = if quick { (64, 256) } else { (128, 2048) };
    let q_samples = samples * 8;
    exec::set_threads(1);
    let mut q_block = ColBlock::new(q_rows);
    {
        let mut rng = SmallRng::seed_from_u64(17);
        let col: Vec<f32> = Matrix::random(q_rows, q_cols, 1.0, &mut rng)
            .as_slice()
            .to_vec();
        for j in 0..q_cols {
            let column: Vec<f32> = (0..q_rows).map(|r| col[r * q_cols + j]).collect();
            q_block.push_col(&column);
        }
    }
    let scores: Vec<f32> = (0..q_cols).map(|j| (j as f32 * 0.37).sin()).collect();
    let mut attend_out = vec![0.0f32; q_rows];
    let mut fused_secs = f64::INFINITY;
    for kind in [QuantKind::Int8, QuantKind::F16] {
        let label = match kind {
            QuantKind::Int8 => "int8",
            QuantKind::F16 => "f16",
        };
        let q_secs = time_best(
            || {
                drop(black_box(QuantizedColBlock::quantize(
                    black_box(&q_block),
                    kind,
                )))
            },
            q_samples,
        );
        kernels.push(BenchResult {
            name: format!("quantize_{label}"),
            threads: 1,
            secs: q_secs,
        });
        let q = QuantizedColBlock::quantize(&q_block, kind);
        let dq_secs = time_best(|| drop(black_box(black_box(&q).dequantize())), q_samples);
        kernels.push(BenchResult {
            name: format!("dequantize_{label}"),
            threads: 1,
            secs: dq_secs,
        });
        let fused = time_best(
            || {
                attend_out.iter_mut().for_each(|v| *v = 0.0);
                black_box(&q).rows_dot_acc(0, black_box(&scores), &mut attend_out);
                black_box(&attend_out);
            },
            q_samples,
        );
        kernels.push(BenchResult {
            name: format!("dequant_fused_attend_{label}"),
            threads: 1,
            secs: fused,
        });
        let materialized = time_best(
            || {
                attend_out.iter_mut().for_each(|v| *v = 0.0);
                let full = black_box(&q).dequantize();
                SplitCols::new(None, &full).rows_dot_acc(
                    0,
                    std::slice::from_ref(&(0..q_cols)),
                    black_box(&scores),
                    &mut attend_out,
                );
                black_box(&attend_out);
            },
            q_samples,
        );
        kernels.push(BenchResult {
            name: format!("dequant_then_attend_{label}"),
            threads: 1,
            secs: materialized,
        });
        if kind == QuantKind::Int8 {
            fused_secs = fused;
        }
    }
    let materialized_int8 = kernels
        .iter()
        .find(|r| r.name == "dequant_then_attend_int8")
        .map(|r| r.secs)
        .unwrap_or(fused_secs);

    // The group attention kernel on its own, at the `rank_warm` shapes: one
    // User-as-prefix token row — all 12 query heads (two KV heads of six)
    // over the cached keys plus the token's own 2-key block — and a
    // 192-token causal block (what `compute_kv` of a profile runs per
    // layer). Same shapes in quick mode; they take micro- to milliseconds.
    {
        let (d, group, kv_heads, prefix) = (8, 6, 2, 192);
        let mut rng = SmallRng::seed_from_u64(19);
        let mut block = |cols: usize| {
            let mut b = ColBlock::new(kv_heads * d);
            for col in Matrix::random(cols, kv_heads * d, 1.0, &mut rng)
                .as_slice()
                .chunks_exact(kv_heads * d)
            {
                b.push_col(col);
            }
            b
        };
        let (k_pre, v_pre, k_suf, v_suf) = (block(prefix), block(prefix), block(8), block(8));
        let q = Matrix::random(prefix, kv_heads * group * d, 1.0, &mut rng);
        let mut out = vec![0.0f32; kv_heads * group * d];
        let mut scratch = Vec::new();
        let mut attend = |kv: &GroupAttention<'_>, t: usize, runs: &[std::ops::Range<usize>]| {
            let heads = q.row(t).chunks_exact(group * d);
            for (h, (q, out)) in heads.zip(out.chunks_exact_mut(group * d)).enumerate() {
                kv.attend::<Softmax>(h, black_box(runs), q, &mut scratch, out);
            }
            black_box(&out);
        };
        let up_hit = GroupAttention {
            keys: SplitCols::new(Some(&k_pre), &k_suf),
            vals: SplitCols::new(Some(&v_pre), &v_suf),
            head_dim: d,
            scale: 1.0 / (d as f32).sqrt(),
        };
        // The same row over 191 cached keys — a ragged run, as fifteen
        // profile lengths in sixteen give — and an item row on its own two
        // keys (an item segment's `compute_kv`): nearly all fixed cost.
        for (name, runs) in [
            ("attend_group_up_hit", [0..prefix, prefix + 4..prefix + 6]),
            (
                "attend_group_up_hit_ragged",
                [0..prefix - 1, prefix + 4..prefix + 6],
            ),
            ("attend_group_row_2key", [0..0, prefix + 4..prefix + 6]),
        ] {
            let secs = time_best(|| attend(&up_hit, 0, &runs), q_samples);
            kernels.push(BenchResult {
                name: name.into(),
                threads: 1,
                secs,
            });
        }
        let causal = GroupAttention {
            keys: SplitCols::new(None, &k_pre),
            vals: SplitCols::new(None, &v_pre),
            ..up_hit
        };
        let block_secs = time_best(
            || (0..prefix).for_each(|t| attend(&causal, t, std::slice::from_ref(&(0..t + 1)))),
            q_samples,
        );
        kernels.push(BenchResult {
            name: "attend_group_causal".into(),
            threads: 1,
            secs: block_secs,
        });
    }

    // Multiversioned elementwise kernels, labelled with the SIMD tier the
    // dispatchers actually selected on this machine (avx512 / avx2 / neon /
    // scalar) — so the committed baseline records which tier it measured
    // and a tier silently falling back to scalar shows up as a regression.
    // All tiers are bit-identical; only speed differs.
    let tier = active_simd_tier();
    let simd_len = if quick { 1536 } else { 8192 };
    let s_samples = samples * 8;
    exec::set_threads(1);
    {
        let mut rng = SmallRng::seed_from_u64(23);
        let src: Vec<f32> = Matrix::random(1, simd_len, 1.0, &mut rng)
            .as_slice()
            .to_vec();
        let ups: Vec<f32> = Matrix::random(1, simd_len, 1.0, &mut rng)
            .as_slice()
            .to_vec();
        let mut buf = src.clone();
        let softmax_secs = time_best(
            || {
                buf.copy_from_slice(&src);
                stable_softmax_fast_in_place(black_box(&mut buf));
                black_box(&buf);
            },
            s_samples,
        );
        kernels.push(BenchResult {
            name: format!("simd_softmax_{tier}"),
            threads: 1,
            secs: softmax_secs,
        });
        let silu_secs = time_best(
            || {
                buf.copy_from_slice(&src);
                fast_silu_mul_in_place(black_box(&mut buf), black_box(&ups));
                black_box(&buf);
            },
            s_samples,
        );
        kernels.push(BenchResult {
            name: format!("simd_silu_mul_{tier}"),
            threads: 1,
            secs: silu_secs,
        });
        let axpy_secs = time_best(
            || {
                buf.copy_from_slice(&src);
                axpy(black_box(&mut buf), 0.37, black_box(&ups));
                black_box(&buf);
            },
            s_samples,
        );
        kernels.push(BenchResult {
            name: format!("simd_axpy_{tier}"),
            threads: 1,
            secs: axpy_secs,
        });
        let dot_secs = time_best(
            || {
                black_box(dot_fast(black_box(&src), black_box(&ups)));
            },
            s_samples,
        );
        kernels.push(BenchResult {
            name: format!("simd_dot_{tier}"),
            threads: 1,
            secs: dot_secs,
        });
    }

    // Continuous-batching round formation: the slot scheduler's pure
    // control-plane cost of admitting a burst of multi-chunk requests and
    // retiring every round, drained as the serving driver drains it — into
    // one reused buffer after every admission, then the tail one finish
    // event at a time. This is the per-request overhead the batched serve
    // path adds on top of the kernels above. The full size is long enough
    // (≈ 2 ms) that the gate's absolute slack cannot hide the row doubling.
    let batch_reqs = if quick { 64 } else { 8_192 };
    let mut rounds = Vec::new();
    let round_secs = time_best(
        || {
            let mut m = BatchScheduler::new(BatchingConfig::default(), 1e-4, vec![1.0; 4]);
            for i in 0..batch_reqs {
                m.admit(i as f64 * 1e-3, i, 1024, 4e-3, None);
                m.drain_rounds_into(&mut rounds);
            }
            while m.retire_next() {
                m.drain_rounds_into(&mut rounds);
            }
            black_box(&rounds);
            black_box(m.drain_completions());
        },
        samples,
    );
    kernels.push(BenchResult {
        name: "batch_round_formation".into(),
        threads: 1,
        secs: round_secs,
    });
    kernels.extend(meta_rows(samples));

    let mut serve = serve_rows(quick, samples);
    serve.push(sim_sweep_row(quick, samples));

    let deterministic = check_determinism(widths);
    exec::set_threads(restore);

    let speedups = vec![Speedup {
        name: "cold_attend_fused".into(),
        before_secs: materialized_int8,
        after_secs: fused_secs,
        speedup: materialized_int8 / fused_secs,
    }];

    PerfSummary {
        epoch: EPOCH.into(),
        simd_tier: tier.into(),
        cpu: cpu_model(),
        nproc,
        thread_counts: thread_counts.to_vec(),
        deterministic,
        kernels,
        forward,
        serve,
        speedups,
    }
}

/// Sub-millisecond entries jitter more than 25 % run to run on a shared
/// machine, so the gate grants every comparison this much absolute slack
/// on top of the relative tolerance — large enough to ignore scheduler
/// noise on a 100 µs kernel, far too small to hide a real regression on
/// any forward-pass entry.
const GATE_ABS_SLACK_SECS: f64 = 0.0005;

/// Why a run cannot be gated against a baseline at all: they time different
/// arithmetic, or the same arithmetic at a different vector width, and a
/// row-by-row comparison would print a wall of regressions (or of wins) that
/// mean nothing. The fix is a baseline recorded under the run's own epoch
/// and tier (`--out`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineMismatch {
    /// What differs: `"numerics epoch"` or `"SIMD tier"`.
    pub what: &'static str,
    /// The run's value.
    pub run: String,
    /// The baseline's value (an empty epoch predates epochs).
    pub baseline: String,
}

impl std::fmt::Display for BaselineMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let BaselineMismatch {
            what,
            run,
            baseline,
        } = self;
        write!(
            f,
            "this run's {what} is \"{run}\" but the baseline was recorded under \"{baseline}\": \
             their rows are not comparable (record a baseline for this {what} with --out)"
        )
    }
}

impl std::error::Error for BaselineMismatch {}

/// Checks that `fresh` and `baseline` time the same arithmetic at the same
/// vector width — what [`regressions`] takes for granted.
pub fn comparable(fresh: &PerfSummary, baseline: &PerfSummary) -> Result<(), BaselineMismatch> {
    for (what, run, base) in [
        ("numerics epoch", &fresh.epoch, &baseline.epoch),
        ("SIMD tier", &fresh.simd_tier, &baseline.simd_tier),
    ] {
        if run != base {
            return Err(BaselineMismatch {
                what,
                run: run.clone(),
                baseline: base.clone(),
            });
        }
    }
    Ok(())
}

/// Compares a fresh summary against a committed baseline (the parsed
/// `BENCH_KERNELS.json`), returning one line per kernel/forward entry that
/// regressed by more than `tolerance` (fractional, e.g. `0.25` for the CI
/// gate's 25 %, plus [`GATE_ABS_SLACK_SECS`]) — or that the fresh run no
/// longer measures at all, since a silently dropped row would otherwise
/// un-gate itself — or that the baseline is *stale*: a fresh row the
/// baseline has no entry for means a kernel was added or renamed without
/// regenerating `BENCH_KERNELS.json`, so it would never be gated (and the
/// renamed-away baseline row would keep reporting "not measured" forever).
/// Both directions fail the gate; the fix is to re-run with `--out`. Only
/// meaningful when the two are [`comparable`] and both runs used the same
/// problem sizes (same `quick` flag) and overlapping thread widths.
pub fn regressions(fresh: &PerfSummary, baseline: &PerfSummary, tolerance: f64) -> Vec<String> {
    fn rows(s: &PerfSummary) -> Vec<&BenchResult> {
        s.kernels.iter().chain(&s.forward).chain(&s.serve).collect()
    }
    let mut out = Vec::new();
    let (fresh_rows, base_rows) = (rows(fresh), rows(baseline));
    for base in &base_rows {
        // Skip baseline widths the fresh run was not asked to measure.
        if base.threads != 1 && !fresh.thread_counts.contains(&base.threads) {
            continue;
        }
        match fresh_rows
            .iter()
            .find(|r| r.name == base.name && r.threads == base.threads)
        {
            Some(r) if r.secs > base.secs * (1.0 + tolerance) + GATE_ABS_SLACK_SECS => {
                out.push(format!(
                    "{} @ {} threads: {:.6}s vs baseline {:.6}s (+{:.0}%)",
                    base.name,
                    base.threads,
                    r.secs,
                    base.secs,
                    (r.secs / base.secs - 1.0) * 100.0
                ))
            }
            Some(_) => {}
            None => out.push(format!(
                "{} @ {} threads: present in baseline but not measured",
                base.name, base.threads
            )),
        }
    }
    for r in &fresh_rows {
        // Skip fresh widths the baseline never recorded (a wider --threads
        // run against an older narrow baseline is not staleness).
        if r.threads != 1 && !baseline.thread_counts.contains(&r.threads) {
            continue;
        }
        if !base_rows
            .iter()
            .any(|b| b.name == r.name && b.threads == r.threads)
        {
            out.push(format!(
                "{} @ {} threads: measured but absent from baseline (stale baseline — regenerate with --out)",
                r.name, r.threads
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_is_deterministic_and_the_fused_cold_attend_wins() {
        let summary = run(true, &[1, 2]);
        assert!(summary.deterministic, "parallel runs must be bit-identical");
        assert_eq!((summary.epoch.as_str(), summary.speedups.len()), (EPOCH, 1));
        assert_eq!(summary.simd_tier, active_simd_tier());
        let fused = &summary.speedups[0];
        assert!(fused.before_secs > 0.0 && fused.after_secs > 0.0);
        // Attending the quantized planes in place must not lose to
        // materializing an f32 copy first.
        assert!(
            fused.speedup > 1.0,
            "{} regressed: {:.2}x",
            fused.name,
            fused.speedup
        );
        for shape in [
            "gemm_132x96x512",
            "gemm_132x256x96",
            "gemm_132x96x96",
            "gemm_132x96x32",
            "meta_commit_512",
            "meta_commit_5k",
            "meta_commit_50k",
        ] {
            assert!(summary.kernels.iter().any(|r| r.name == shape), "{shape}");
        }
        let dispatch = summary.kernels.iter().filter(|r| r.name == "pool_dispatch");
        assert!(dispatch.into_iter().all(|r| r.threads > 1));
    }

    #[test]
    fn summary_serializes_to_json() {
        // A width no machine has: checked for determinism, never timed.
        let summary = run(true, &[1, usize::MAX]);
        assert_eq!(summary.thread_counts, vec![1]);
        let rows = summary.kernels.iter().chain(&summary.forward);
        assert!(rows.into_iter().all(|r| r.threads == 1));
        let json = serde_json::to_string(&summary).unwrap();
        assert!(json.contains("\"deterministic\":true"));
        assert!(json.contains("forward_batched"));
        assert!(json.contains("forward_packed_prefix"));
        assert!(json.contains("forward_up_hit") && json.contains("forward_ip_hit"));
        let back: PerfSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.forward.len(), summary.forward.len());
    }

    #[test]
    fn regression_gate_flags_slowdowns_and_missing_rows() {
        let row = |name: &str, threads: usize, secs: f64| BenchResult {
            name: name.into(),
            threads,
            secs,
        };
        let baseline = PerfSummary {
            epoch: EPOCH.into(),
            simd_tier: "avx512".into(),
            cpu: "test".into(),
            nproc: 1,
            thread_counts: vec![1, 4],
            deterministic: true,
            kernels: vec![row("matmul_blocked", 1, 0.001)],
            forward: vec![
                row("forward_batched", 1, 0.010),
                row("forward_batched", 4, 0.010),
                row("forward_packed_prefix", 1, 0.002),
            ],
            serve: vec![row("serve_drain_uds", 1, 0.030)],
            speedups: vec![],
        };
        let mut fresh = baseline.clone();
        assert_eq!(comparable(&fresh, &baseline), Ok(()));
        assert!(regressions(&fresh, &baseline, 0.25).is_empty());
        // Another epoch or SIMD tier is refused outright, naming both sides
        // — a baseline that predates epochs reads as the empty epoch.
        fresh.epoch = String::new();
        let refused = comparable(&baseline, &fresh).unwrap_err();
        assert_eq!(
            (
                refused.what,
                refused.run.as_str(),
                refused.baseline.as_str()
            ),
            ("numerics epoch", EPOCH, "")
        );
        assert!(refused.to_string().contains("\"fma-1\"") && refused.to_string().contains("\"\""));
        fresh.epoch = EPOCH.into();
        fresh.simd_tier = "avx2".into();
        let refused = comparable(&fresh, &baseline).unwrap_err().to_string();
        assert!(
            refused.contains("\"avx2\"") && refused.contains("\"avx512\""),
            "{refused}"
        );
        fresh.simd_tier = "avx512".into();
        // 20% slower passes the 25% gate; 40% slower fails.
        fresh.forward[0].secs = 0.012;
        assert!(regressions(&fresh, &baseline, 0.25).is_empty());
        fresh.forward[0].secs = 0.014;
        assert_eq!(regressions(&fresh, &baseline, 0.25).len(), 1);
        // Sub-millisecond entries get absolute slack against jitter: a
        // 100 µs kernel reading 60% high is noise, not a regression.
        fresh.forward[0].secs = 0.010;
        fresh.kernels[0].secs = 0.0016;
        assert!(regressions(&fresh, &baseline, 0.25).is_empty());
        fresh.kernels[0].secs = 0.0020;
        assert_eq!(regressions(&fresh, &baseline, 0.25).len(), 1);
        fresh.kernels[0].secs = 0.001;
        // Dropping a measured row is flagged, not silently passed.
        fresh.forward[0].secs = 0.010;
        fresh.forward.remove(2);
        assert_eq!(regressions(&fresh, &baseline, 0.25).len(), 1);
        fresh = baseline.clone();
        // A fresh row the baseline has never seen means the baseline is
        // stale (kernel added or renamed without regenerating): flagged.
        fresh.kernels.push(row("simd_softmax_avx512", 1, 0.0001));
        let stale = regressions(&fresh, &baseline, 0.25);
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert!(stale[0].contains("stale baseline"));
        // ...unless it was measured at a width the baseline never ran.
        fresh.kernels.pop();
        fresh.thread_counts = vec![1, 4, 8];
        fresh.forward.push(row("forward_batched", 8, 0.010));
        assert!(regressions(&fresh, &baseline, 0.25).is_empty());
        fresh = baseline.clone();
        // Baseline widths the fresh run didn't measure are skipped.
        fresh.thread_counts = vec![1];
        fresh.forward = vec![row("forward_batched", 1, 0.010)];
        fresh.kernels = vec![row("matmul_blocked", 1, 0.001)];
        let misses = regressions(&fresh, &baseline, 0.25);
        assert_eq!(misses.len(), 1, "{misses:?}");
        assert!(misses[0].contains("forward_packed_prefix"));
    }
}
