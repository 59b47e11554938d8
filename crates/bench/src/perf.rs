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
//! Methodology: one table of rows built on the fixtures they share, each
//! row the minimum wall-clock time over a fixed number of samples (min is
//! robust to scheduler noise on shared machines) after one warmup run, with
//! `std::hint::black_box` around inputs and outputs.

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
use bat_types::{ClusterConfig, DatasetConfig, ModelConfig, PrefixKind, RankRequest, UserId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::ops::Range;
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
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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
    /// Serving-path measurements: the data plane's saturation drains and
    /// pacer, and the simulator's sweep.
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

/// Sets the pool width and, above one thread, keeps the pool busy for a
/// second before anything is timed — a product in every block of a
/// dispatch. A freshly woken worker tends to share the caller's core (the
/// caller spin-yields while it waits), and the scheduler takes about a
/// second to spread them; a row timed inside that window measures
/// time-slicing, not a second core.
fn set_width(w: usize) {
    exec::set_threads(w);
    if w > 1 {
        let m = random_matrix(128, 128, 5);
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < 1.2 {
            exec::run_blocks(4 * w, &|_| {
                black_box(m.matmul(&m));
            });
        }
    }
}

/// Calls `f` at each width in `widths` that fits the machine, the pool set
/// to it by [`set_width`], then restores the pool's width. Returns the
/// widths `f` ran at.
fn at_widths(widths: &[usize], mut f: impl FnMut(usize)) -> Vec<usize> {
    let restore = exec::threads();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fit: Vec<usize> = widths.iter().copied().filter(|&w| w <= nproc).collect();
    for &w in &fit {
        set_width(w);
        f(w);
    }
    exec::set_threads(restore);
    fit
}

/// Seconds for one call of a row at a pool width, or `None` where the row
/// does not apply (`pool_dispatch` at one thread).
type Time<'a> = Box<dyn FnMut(usize) -> Option<f64> + 'a>;

/// The list of [`PerfSummary`] a row lands in.
type Section = fn(&mut PerfSummary) -> &mut Vec<BenchResult>;

/// The suite: its rows in report order, grouped by the fixture they share,
/// each group `(section, pooled, rows)`. A pooled group's work runs on the
/// pool, so it is timed at every width and reported width by width; the
/// others are timed once, at width 1.
#[derive(Default)]
struct Table<'a>(Vec<Group<'a>>);

/// A [`Table`] group: its section, whether it is pooled, its named rows.
type Group<'a> = (Section, bool, Vec<(String, Time<'a>)>);

impl<'a> Table<'a> {
    /// Starts a group.
    fn group(&mut self, section: Section, pooled: bool) -> &mut Self {
        self.0.push((section, pooled, Vec::new()));
        self
    }

    /// Adds a row to the last group.
    fn row(&mut self, name: impl Into<String>, time: Time<'a>) -> &mut Self {
        let (_, _, rows) = self.0.last_mut().expect("a group was started");
        rows.push((name.into(), time));
        self
    }

    /// Times every row at each width in `widths` that fits the machine and
    /// files the results in `summary`'s sections, in table order.
    fn measure(mut self, widths: &[usize], summary: &mut PerfSummary) {
        let mut measured = Vec::new();
        summary.thread_counts = at_widths(widths, |w| {
            for (g, (_, pooled, rows)) in self.0.iter_mut().enumerate() {
                for (r, (_, time)) in rows.iter_mut().enumerate().filter(|_| *pooled || w == 1) {
                    measured.extend(time(w).map(|secs| (g, w, r, secs)));
                }
            }
        });
        measured.sort_by_key(|&(g, w, r, _)| (g, w, r));
        for (g, threads, r, secs) in measured {
            let (section, _, rows) = &self.0[g];
            let name = rows[r].0.clone();
            section(summary).push(BenchResult {
                name,
                threads,
                secs,
            });
        }
    }
}

/// A row's time: best-of-`samples` wall-clock seconds for one call of `f`,
/// its result dropped unread, after one warmup call (min is robust to
/// scheduler noise).
fn best<'a, R>(samples: u32, mut f: impl FnMut() -> R + 'a) -> Time<'a> {
    Box::new(move |_| {
        black_box(f());
        let mut best = f64::INFINITY;
        for _ in 0..samples.max(1) {
            let t0 = Instant::now();
            black_box(f());
            best = best.min(t0.elapsed().as_secs_f64());
        }
        Some(best)
    })
}

/// [`best`] of `f` on a fresh copy of `src` each call.
fn in_place<'a>(samples: u32, src: &'a [f32], mut f: impl FnMut(&mut [f32]) + 'a) -> Time<'a> {
    let mut buf = src.to_vec();
    best(samples, move || {
        buf.copy_from_slice(src);
        f(black_box(&mut buf));
        black_box(&buf);
    })
}

/// [`best`] of `model` computing `tail` behind `kv` through its own reused
/// workspace.
fn forward_row<'a>(
    samples: u32,
    model: &'a GrModel,
    tail: &'a TokenSeq,
    kv: Option<&'a KvSegment>,
) -> Time<'a> {
    let mut ws = ForwardWorkspace::new();
    best(samples, move || {
        black_box(model.forward_with(black_box(tail), kv.map(black_box), &mut ws));
    })
}

/// [`best`] of group attention over `kv` for each `(token row of q, key
/// runs)` of `calls`, every query head (`chunk` query columns a KV head).
fn attend_row<'a>(
    samples: u32,
    kv: &'a GroupAttention<'a>,
    q: &'a Matrix,
    chunk: usize,
    calls: Vec<(usize, Vec<Range<usize>>)>,
) -> Time<'a> {
    let (mut out, mut scratch) = (vec![0.0f32; q.cols()], Vec::new());
    best(samples, move || {
        for (t, runs) in &calls {
            let heads = q.row(*t).chunks_exact(chunk);
            for (h, (q, out)) in heads.zip(out.chunks_exact_mut(chunk)).enumerate() {
                kv.attend::<Softmax>(h, black_box(runs), q, &mut scratch, out);
            }
            black_box(&out);
        }
    })
}

/// A `height`-row block of `cols` seeded random columns.
fn col_block(height: usize, cols: usize, rng: &mut SmallRng) -> ColBlock {
    let mut block = ColBlock::new(height);
    for col in Matrix::random(cols, height, 1.0, rng)
        .as_slice()
        .chunks_exact(height)
    {
        block.push_col(col);
    }
    block
}

/// The Qwen2-1.5B-shaped proxy (weight seed `seed`) and a bipartite
/// `kind` prompt ranking `candidates` two-token items behind `user`, with a
/// two-token instruction block: the scenario of the `forward_batched` and
/// `forward_packed_prefix` rows and of the determinism check.
fn proxy_prompt(kind: PrefixKind, user: &[u32], candidates: u32, seed: u64) -> (GrModel, TokenSeq) {
    // Token ids: items i and 200+i, users from 100, instructions 250/251.
    let cfg = GrModelConfig::qwen2_1_5b_proxy(300 + candidates as usize);
    let items: Vec<Vec<u32>> = (0..candidates).map(|i| vec![i, 200 + i]).collect();
    let seq = PromptLayout::new(MaskScheme::Bipartite).build(kind, user, &items, &[250, 251]);
    (GrModel::new(Weights::random(cfg, seed)), seq)
}

/// A cached prefix and the suffix left to compute behind it.
type Hit = (KvSegment, TokenSeq);

/// The 50 two-token candidates of a `rank_warm` request.
fn rank_warm_items() -> Vec<Vec<u32>> {
    (0..50).map(|i| vec![i, 4000 + i]).collect()
}

/// The `rank_warm` request of the repo benchmark (`benchmark/`) as a
/// `kind` prompt: a `profile`-token user profile, the 50 candidates and a
/// 32-token instruction block.
fn rank_warm_prompt(kind: PrefixKind, profile: u32) -> TokenSeq {
    let user: Vec<u32> = (0..profile).map(|i| i * 37 % 4256).collect();
    let instr: Vec<u32> = (4100..4132).collect();
    PromptLayout::new(MaskScheme::Bipartite).build(kind, &user, &rank_warm_items(), &instr)
}

/// The two hits `model` can serve a `rank_warm` request by: User-as-prefix
/// splices the cached profile and computes items + instructions;
/// Item-as-prefix splices the 50 item segments — each computed standalone —
/// and computes profile + instructions.
fn rank_warm_hits(model: &GrModel, profile: u32) -> [Hit; 2] {
    let up = rank_warm_prompt(PrefixKind::User, profile);
    let (up_head, up_tail) = up.split_at(profile as usize);
    let up_kv = model.compute_kv(&up_head);

    let layout = PromptLayout::new(MaskScheme::Bipartite);
    let cached: Vec<KvSegment> = rank_warm_items()
        .iter()
        .map(|item| model.compute_kv(&layout.item_standalone(0, item, 0)))
        .collect();
    let mut ip_kv = KvSegment::concat(&cached.iter().collect::<Vec<_>>());
    for (g, tag) in ip_kv.segs.iter_mut().enumerate() {
        *tag = SegTag::Item(g as u32 / 2);
    }
    let ip = rank_warm_prompt(PrefixKind::Item, profile);
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

/// Checks the determinism contract: the forward at each width in `widths`
/// is bit-identical to the serial run. The shape (a 350-token cold forward)
/// puts every row stage of the forward on the pool (bar the last layer's,
/// which finishes one read-out row) — anything smaller runs inline at every
/// width and the check would compare the serial code to itself.
fn check_determinism(widths: &[usize]) -> bool {
    let user: Vec<u32> = (100..148).collect();
    let (model, seq) = proxy_prompt(PrefixKind::Item, &user, 150, 11);
    let stages = model.stage_work(&seq, None);
    assert!(
        stages
            .iter()
            .all(|&(stage, work)| stage == "read-out rows" || stage_is_pooled(work)),
        "determinism check shapes fell below the pool threshold: {stages:?}"
    );
    exec::set_threads(1);
    let gold = model.forward(&seq, None).logits();
    widths.iter().all(|&w| {
        exec::set_threads(w);
        let got = model.forward(&seq, None).logits();
        got.iter()
            .zip(&gold)
            .all(|(x, y)| x.to_bits() == y.to_bits())
    })
}

/// The `requests` first arrivals of a Books trace at 300 req/s (workload
/// seed 7, trace seed 11) `secs` long, generated from `ds`.
fn books_trace(ds: &DatasetConfig, secs: f64, requests: usize) -> Vec<RankRequest> {
    let mut trace = bat::experiment::trace(ds, (7, 11), secs, 300.0);
    assert!(trace.len() >= requests, "trace generator fell short");
    trace.truncate(requests);
    trace
}

/// `meta_commit_<keys>` — [`MetaClient::submit`] of a `HotnessDelta` on a
/// three-replica meta group whose hotness table holds `keys` keys: seconds
/// for 10 000 submits, so `secs × 100` is µs per submit (a batch that long
/// is what lets the gate's absolute slack see a 0.1 µs commit double). The
/// planner commits on every request, so a commit whose cost grows with the
/// table makes every plan cost O(users); the three rows read alike when it
/// does not.
fn meta_row(samples: u32, keys: u64) -> Time<'static> {
    let submit = move |client: &mut MetaClient, i: u64| {
        let key = CacheKey::User(UserId::new(i % keys));
        black_box(client.submit(MetaCommand::HotnessDelta { key, at_ms: i }, i as f64 * 1e-3));
    };
    let mut client = MetaClient::new(3, 401, 2);
    for i in 0..keys {
        submit(&mut client, i);
    }
    let mut i = keys;
    best(samples, move || {
        for _ in 0..10_000 {
            submit(&mut client, i);
            i += 1;
        }
    })
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
    /// thread time for the stages inside the row dispatches, so at
    /// `threads` threads `threads × (RowsWall + LastRowsWall)` less the sum
    /// of `KvRows` and `Q` to `Down` is what they idled. `ReadOut` includes
    /// scoring the 50 candidates.
    pub stages: Vec<(String, f64)>,
}

/// Where a `rank_warm` forward spends its time, by stage
/// ([`ForwardWorkspace::profile_stages`]): the three hits of the `forward`
/// rows, each the mean of `forwards` runs at every width in `widths` the
/// machine has cores for. Each forward is followed by the read it serves —
/// [`bat_model::ForwardOutput::candidate_scores`] over the 50 candidates —
/// booked on `ReadOut` beside the forward's own final norm.
pub fn stage_profile(widths: &[usize], forwards: u32) -> Vec<StageRow> {
    let (model, cases) = rank_warm_cases();
    // Identifier tokens of the 50 candidates `rank_warm_hits` builds.
    let ids: Vec<u32> = (0..50).collect();
    let mut rows = Vec::new();
    at_widths(widths, |w| {
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
    });
    rows
}

/// Runs the suite's row table at each width in `widths` (which starts at 1)
/// that fits the machine (see [`PerfSummary::thread_counts`]); determinism
/// is still checked at every requested width, since that is a correctness
/// property.
///
/// `quick` shrinks problem sizes and sample counts for CI smoke runs; the
/// committed baseline uses the full sizes.
pub fn run(quick: bool, widths: &[usize]) -> PerfSummary {
    assert_eq!(widths.first(), Some(&1), "serial rows are timed at width 1");
    let (mm_dim, samples, candidates) = if quick { (64, 3, 20) } else { (128, 5, 100) };
    // Calls of microseconds to a millisecond get more samples, but not in
    // quick mode: the suite's own tests run it unoptimized.
    let micro_samples = if quick { samples } else { samples * 40 };
    let p_samples = if quick { samples } else { samples * 8 };
    let kernel_samples = samples * 8;

    let a = random_matrix(mm_dim, mm_dim, 1);
    let b = random_matrix(mm_dim, mm_dim, 2);
    // The GEMM at the `rank_warm` forward's four shapes: 132 suffix rows
    // through gate|up, down, Q / O, and K|V.
    let gemms: Vec<(Matrix, Matrix)> =
        [(132, 96, 512), (132, 256, 96), (132, 96, 96), (132, 96, 32)]
            .iter()
            .map(|&(n, k, m)| (random_matrix(n, k, 31), random_matrix(k, m, 32)))
            .collect();
    let user: Vec<u32> = (100..148).collect();
    let (model, seq) = &proxy_prompt(PrefixKind::Item, &user, candidates, 11);
    // A long cached user prefix and cached candidate blocks in front of a
    // two-token suffix: the steady state of a warm BAT worker, where
    // per-request KV data movement, not FLOPs, is the cost. The suffix reads
    // the stored packed planes in place (EXPERIMENTS.md has the numbers).
    let (user_tokens, p_candidates) = if quick { (256, 20) } else { (2048, 100) };
    let user: Vec<u32> = (0..user_tokens).map(|i| 100 + i % 100).collect();
    let (p_model, p_seq) = &proxy_prompt(PrefixKind::User, &user, p_candidates, 13);
    let (p_head, p_tail) = &p_seq.split_at(p_seq.len() - 2);
    let p_kv = &p_model.compute_kv(p_head);
    // The repo benchmark's `rank_warm` request, one forward per prefix kind
    // — the rows behind its `model.forward_up_hit` / `model.forward_ip_hit`
    // spans — and the miss beside them, `compute_kv_user`: the 192-token
    // profile's segment. Same shape in quick mode; it takes milliseconds.
    let (r_model, r_cases) = &rank_warm_cases();
    let (profile, _) = rank_warm_prompt(PrefixKind::User, 192).split_at(192);
    // The same request cold and Item-as-prefix (324 tokens) through the
    // HSTU-style model at matched heads: the pointwise unit's row.
    let hstu_cfg = GrModelConfig {
        kv_heads: 12,
        ..GrModelConfig::qwen2_1_5b_proxy(4256)
    };
    let hstu = HstuModel::random(hstu_cfg, 11);
    let cold = rank_warm_prompt(PrefixKind::Item, 192);

    // Cold-tier quantization kernels: per-segment work the tiered pool does
    // on demotion and cold hits. The fused attend reads the quantized
    // planes directly; its baseline materializes an f32 copy first and
    // attends over that — same arithmetic, bit-identical result, extra
    // allocation and memory traffic.
    let (q_rows, q_cols) = if quick { (64, 256) } else { (128, 2048) };
    let q_block = &col_block(q_rows, q_cols, &mut SmallRng::seed_from_u64(17));
    let scores: &Vec<f32> = &(0..q_cols).map(|j| (j as f32 * 0.37).sin()).collect();
    let zeros = &vec![0.0f32; q_rows];
    let quantized = [(QuantKind::Int8, "int8"), (QuantKind::F16, "f16")]
        .map(|(kind, label)| (kind, label, QuantizedColBlock::quantize(q_block, kind)));

    // The group attention kernel on its own, at the `rank_warm` shapes: one
    // User-as-prefix token row — all 12 query heads (two KV heads of six)
    // over the cached keys plus the token's own 2-key block — and a
    // 192-token causal block (what `compute_kv` of a profile runs per
    // layer). Same shapes in quick mode; they take micro- to milliseconds.
    let (d, group, kv_heads, prefix) = (8, 6, 2, 192);
    let mut rng = SmallRng::seed_from_u64(19);
    let [k_pre, v_pre, k_suf, v_suf] =
        [prefix, prefix, 8, 8].map(|cols| col_block(kv_heads * d, cols, &mut rng));
    let q = Matrix::random(prefix, kv_heads * group * d, 1.0, &mut rng);
    let up_hit = GroupAttention {
        keys: SplitCols::new(Some(&k_pre), &k_suf),
        vals: SplitCols::new(Some(&v_pre), &v_suf),
        head_dim: d,
        scale: 1.0 / (d as f32).sqrt(),
    };
    let causal = GroupAttention {
        keys: SplitCols::new(None, &k_pre),
        vals: SplitCols::new(None, &v_pre),
        ..up_hit
    };

    // Multiversioned elementwise kernels, labelled with the SIMD tier the
    // dispatchers actually selected on this machine (avx512 / avx2 / neon /
    // scalar) — so the committed baseline records which tier it measured
    // and a tier silently falling back to scalar shows up as a regression.
    // All tiers are bit-identical; only speed differs.
    let tier = active_simd_tier();
    let simd_len = if quick { 1536 } else { 8192 };
    let mut rng = SmallRng::seed_from_u64(23);
    let [src, ups] = [0, 1].map(|_| {
        Matrix::random(1, simd_len, 1.0, &mut rng)
            .as_slice()
            .to_vec()
    });
    let (src, ups) = (&src, &ups);

    // The repo benchmark's `sim_replay` sweep: the eight `ServingEngine::new`
    // + `run`s (RE, UP, IP, BAT, each per-request and with
    // `BatchingConfig::default`) of a fixed, overloaded Books trace on two
    // nodes, 15 000 requests (300 when `quick`). The planner and the slot
    // machine are most of it; no threads, sockets or sleeps.
    let ds = DatasetConfig::books();
    let (sim_secs, sim_requests) = if quick { (10.0, 300) } else { (200.0, 15_000) };
    let sim_trace = &books_trace(&ds, sim_secs, sim_requests);
    let mut sim_cfgs = Vec::new();
    for kind in [
        SystemKind::Recompute,
        SystemKind::UserPrefix,
        SystemKind::ItemPrefix,
        SystemKind::Bat,
    ] {
        for batching in [None, Some(BatchingConfig::default())] {
            let cluster = ClusterConfig::a100_4node().with_nodes(2);
            sim_cfgs.push(
                EngineConfig::for_system(kind, ModelConfig::qwen2_1_5b(), cluster, &ds)
                    .with_batching(batching),
            );
        }
    }
    // The serving data plane with compute ≈ 0: seconds for one
    // `ServeRuntime::serve` saturation drain of the sweep's last config
    // (BAT, batched) over a fixed Books trace (1 000 requests; 100 when
    // `quick`) at `time_scale` 1e-6, over in-process channels and over Unix
    // sockets — planner, slot machine, frame codec, transport, worker
    // pacing and the wake-driven waits, with nothing to wait for but each
    // other. One request per session, as in the repo benchmark's
    // `serve_slots`: the round count then barely moves with the seed.
    let serve_cfg = sim_cfgs.last().expect("the sweep has configs");
    let serve_ds = DatasetConfig {
        session_mean_requests: 1.0,
        ..ds.clone()
    };
    let serve_trace = &books_trace(&serve_ds, 5.0, if quick { 100 } else { 1_000 });

    let mut summary = PerfSummary {
        epoch: EPOCH.into(),
        simd_tier: tier.into(),
        cpu: cpu_model(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..PerfSummary::default()
    };
    let mut t = Table::default();
    // What handing a stage to the pool costs when the stage itself is free
    // — the number `bat_tensor`'s `PAR_MACS` threshold is derived from, with
    // the `gemm_*` rate. The median, not the best: the best (≈ 0.6 µs) is
    // the rare dispatch a spinning worker catches at once, and a threshold
    // has to repay the usual one.
    let dispatch = Box::new(|w: usize| {
        (w > 1).then(|| {
            let mut dispatches: Vec<f64> = (0..micro_samples * 10)
                .map(|_| {
                    let t0 = Instant::now();
                    exec::run_blocks(4 * w, &|b| {
                        black_box(b);
                    });
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            dispatches.sort_by(f64::total_cmp);
            dispatches[dispatches.len() / 2]
        })
    });
    t.group(|s| &mut s.kernels, false)
        .row("matmul_blocked", best(samples, || black_box(&a).matmul(&b)));
    for (lhs, rhs) in &gemms {
        let (n, k, m) = (lhs.rows(), lhs.cols(), rhs.cols());
        let mut out = Matrix::zeros(0, 0);
        t.row(
            format!("gemm_{n}x{k}x{m}"),
            best(micro_samples, move || {
                black_box(lhs).matmul_into(black_box(rhs), &mut out);
                black_box(&out);
            }),
        );
    }
    t.group(|s| &mut s.kernels, true)
        .row("pool_dispatch", dispatch);

    t.group(|s| &mut s.kernels, false);
    for (kind, label, q) in &quantized {
        let quantize = move || QuantizedColBlock::quantize(black_box(q_block), *kind);
        let materialized = move |out: &mut [f32]| {
            let full = black_box(q).dequantize();
            let runs = 0..q_cols;
            let runs = std::slice::from_ref(&runs);
            SplitCols::new(None, &full).rows_dot_acc(0, runs, black_box(scores), out);
        };
        t.row(format!("quantize_{label}"), best(kernel_samples, quantize))
            .row(
                format!("dequantize_{label}"),
                best(kernel_samples, move || black_box(q).dequantize()),
            )
            .row(
                format!("dequant_fused_attend_{label}"),
                in_place(kernel_samples, zeros, move |out| {
                    black_box(q).rows_dot_acc(0, black_box(scores), out)
                }),
            )
            .row(
                format!("dequant_then_attend_{label}"),
                in_place(kernel_samples, zeros, materialized),
            );
    }
    // The same row over 191 cached keys — a ragged run, as fifteen profile
    // lengths in sixteen give — and an item row on its own two keys (an
    // item segment's `compute_kv`): nearly all fixed cost.
    let chunk = group * d;
    for (name, cached) in [
        ("attend_group_up_hit", 0..prefix),
        ("attend_group_up_hit_ragged", 0..prefix - 1),
        ("attend_group_row_2key", 0..0),
    ] {
        let calls = vec![(0, vec![cached, prefix + 4..prefix + 6])];
        t.row(name, attend_row(kernel_samples, &up_hit, &q, chunk, calls));
    }
    let calls = (0..prefix)
        .map(|t| (t, std::iter::once(0..t + 1).collect()))
        .collect();
    let dot = || dot_fast(black_box(src), black_box(ups));
    t.row(
        "attend_group_causal",
        attend_row(kernel_samples, &causal, &q, chunk, calls),
    )
    .row(
        format!("simd_softmax_{tier}"),
        in_place(kernel_samples, src, stable_softmax_fast_in_place),
    )
    .row(
        format!("simd_silu_mul_{tier}"),
        in_place(kernel_samples, src, |buf| {
            fast_silu_mul_in_place(buf, black_box(ups))
        }),
    )
    .row(
        format!("simd_axpy_{tier}"),
        in_place(kernel_samples, src, |buf| axpy(buf, 0.37, black_box(ups))),
    )
    .row(format!("simd_dot_{tier}"), best(kernel_samples, dot));
    // Continuous-batching round formation: the slot scheduler's pure
    // control-plane cost of admitting a burst of multi-chunk requests and
    // retiring every round, drained as the serving driver drains it — into
    // one reused buffer after every admission, then the tail one finish
    // event at a time. This is the per-request overhead the batched serve
    // path adds on top of the kernels above. The full size is long enough
    // (≈ 2 ms) that the gate's absolute slack cannot hide the row doubling.
    let batch_reqs = if quick { 64 } else { 8_192 };
    let mut rounds = Vec::new();
    let formation = best(samples, move || {
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
    });
    t.row("batch_round_formation", formation)
        .row("meta_commit_512", meta_row(samples, 512))
        .row("meta_commit_5k", meta_row(samples, 5_000))
        .row("meta_commit_50k", meta_row(samples, 50_000));

    let forward = || model.forward(black_box(seq), None);
    let user_kv = || r_model.compute_kv(black_box(&profile));
    t.group(|s| &mut s.forward, true)
        .row("forward_batched", best(samples, forward))
        .group(|s| &mut s.forward, true)
        .row(
            "forward_packed_prefix",
            forward_row(p_samples, p_model, p_tail, Some(p_kv)),
        )
        .group(|s| &mut s.forward, true)
        .row("compute_kv_user", best(p_samples, user_kv));
    for (name, (kv, tail)) in r_cases {
        t.row(*name, forward_row(p_samples, r_model, tail, Some(kv)));
    }
    t.group(|s| &mut s.forward, true)
        .row("forward_hstu", forward_row(p_samples, &hstu, &cold, None));

    t.group(|s| &mut s.serve, false);
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
        let runtime = ServeRuntime::new(serve_cfg.clone(), opts).expect("preset config validates");
        t.row(
            name,
            best(samples, move || runtime.serve(black_box(serve_trace))),
        );
    }
    // Seconds a `Pacer` blocks for 10 000 charges of 1 µs. The priced total
    // is 0.010 s, so `secs / 0.010` is the overshoot: ≈ 1 when small charges
    // share sleeps, ≈ 55 if each paid the timer floor.
    let pacing = || {
        let mut pacer = Pacer::new();
        for _ in 0..10_000 {
            black_box(pacer.charge(Duration::from_micros(1), true));
            pacer.catch_up();
        }
    };
    let sweep = || {
        for cfg in &sim_cfgs {
            let mut engine = ServingEngine::new(cfg.clone()).expect("preset config validates");
            black_box(engine.run(black_box(sim_trace)));
        }
    };
    t.row("worker_pacing_overshoot", best(samples, pacing))
        .row("sim_sweep", best(samples, sweep));

    std::mem::take(&mut t).measure(widths, &mut summary);
    let restore = exec::threads();
    summary.deterministic = check_determinism(widths);
    exec::set_threads(restore);
    let secs = |name: &str| {
        let row = summary.kernels.iter().find(|r| r.name == name);
        row.expect("the int8 cold rows are in the table").secs
    };
    let (before_secs, after_secs) = (
        secs("dequant_then_attend_int8"),
        secs("dequant_fused_attend_int8"),
    );
    summary.speedups.push(Speedup {
        name: "cold_attend_fused".into(),
        before_secs,
        after_secs,
        speedup: before_secs / after_secs,
    });
    summary
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
/// gate's 25 %, plus `GATE_ABS_SLACK_SECS`) — or that the fresh run no
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
    use std::sync::OnceLock;

    /// The quick suite at widths `[1, 2]`, run once for the tests that read
    /// it.
    fn quick_summary() -> &'static PerfSummary {
        static SUMMARY: OnceLock<PerfSummary> = OnceLock::new();
        SUMMARY.get_or_init(|| run(true, &[1, 2]))
    }

    /// `(section, name, threads)` of every row of `summary`, in order.
    fn row_ids(summary: &PerfSummary) -> Vec<(&'static str, String, usize)> {
        let sections = [
            ("kernels", &summary.kernels),
            ("forward", &summary.forward),
            ("serve", &summary.serve),
        ];
        let ids = sections.into_iter().flat_map(|(section, rows)| {
            rows.iter()
                .map(move |r| (section, r.name.clone(), r.threads))
        });
        ids.collect()
    }

    #[test]
    fn quick_suite_measures_the_baseline_rows_in_order() {
        let summary = quick_summary();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_KERNELS.json");
        let text = std::fs::read_to_string(path).expect("BENCH_KERNELS.json reads");
        let baseline: PerfSummary = serde_json::from_str(&text).expect("baseline parses");
        // The `simd_*` rows are named after the tier they ran at.
        let tier_suffix = format!("_{}", baseline.simd_tier);
        let expected: Vec<_> = row_ids(&baseline)
            .into_iter()
            .filter(|(_, _, threads)| summary.thread_counts.contains(threads))
            .map(
                |(section, name, threads)| match name.strip_suffix(&tier_suffix) {
                    Some(kernel) if name.starts_with("simd_") => {
                        (section, format!("{kernel}_{}", summary.simd_tier), threads)
                    }
                    _ => (section, name, threads),
                },
            )
            .collect();
        assert_eq!(row_ids(summary), expected);
    }

    #[test]
    fn quick_suite_is_deterministic_and_the_fused_cold_attend_wins() {
        let summary = quick_summary();
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
