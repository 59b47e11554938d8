//! `sim_replay`: the figure substrate, offline and single-threaded.
//!
//! One operation is a sweep: the same overloaded Books trace through RE,
//! UP, IP and BAT, each with per-request dispatch and with the slot
//! scheduler — the eight `ServingEngine::run`s behind Figures 5 and 6. The
//! planner, batch scheduler and cache accounting are the ones `serve_slots`
//! uses, with no threads, sockets or sleeps.

use crate::layers::{self, books_cluster};
use crate::measure::{self, Phase};
use crate::trace::Tracer;
use crate::{Outcome, RunCfg, DATASET_SEED};
use bat_kvcache::{CacheKey, FreqEstimator, UserCache, UserCacheConfig};
use bat_sched::BatchingConfig;
use bat_sim::{EngineConfig, ServingEngine, SystemKind};
use bat_tiers::{TieredKvPool, TiersConfig};
use bat_types::{Bytes, RankRequest, UserId, WorkerId};
use bat_workload::{TraceGenerator, Workload};
use std::hint::black_box;
use std::time::Instant;

/// Requests per run: Books at several times what two nodes serve, so the
/// dispatch path carries a backlog. One sweep of eight runs ≈ 0.5 s. Fixed,
/// so that the time of a sweep means the same thing for every seed.
const TRACE_REQUESTS: usize = 15_000;
/// `generate` yields ~82 requests per nominal second at this rate and span.
const TRACE_SECS: f64 = 200.0;
const TRACE_RATE: f64 = 300.0;

/// System, the span around its runs, and the metric made from that span.
const SYSTEMS: [(SystemKind, &str, &str); 4] = [
    (
        SystemKind::Recompute,
        "sim.run_recompute",
        "sim.run_recompute.rps",
    ),
    (SystemKind::UserPrefix, "sim.run_up", "sim.run_up.rps"),
    (SystemKind::ItemPrefix, "sim.run_ip", "sim.run_ip.rps"),
    (SystemKind::Bat, "sim.run_bat", "sim.run_bat.rps"),
];

struct Run {
    cfg: EngineConfig,
    system: &'static str,
    slots: bool,
    /// Digest of an earlier run of the same config on the same trace.
    digest: u64,
}

struct World {
    trace: Vec<RankRequest>,
    runs: Vec<Run>,
}

fn generate(cfg: &RunCfg) -> Vec<RankRequest> {
    let (requests, duration) = if cfg.quick {
        (TRACE_REQUESTS / 50, TRACE_SECS / 20.0)
    } else {
        (TRACE_REQUESTS, TRACE_SECS)
    };
    let mut trace = TraceGenerator::new(
        Workload::new(bat_types::DatasetConfig::books(), DATASET_SEED),
        cfg.seed,
    )
    .generate(duration, TRACE_RATE);
    assert!(
        trace.len() >= requests,
        "trace generator fell short of {requests} requests"
    );
    trace.truncate(requests);
    trace
}

fn set_up(cfg: &RunCfg) -> World {
    let trace = generate(cfg);
    let mut runs = Vec::new();
    for (kind, system, _) in SYSTEMS {
        for batching in [None, Some(BatchingConfig::default())] {
            let (_, engine_cfg) = books_cluster(kind, batching);
            // The untimed first sweep doubles as the reference each timed
            // run's digest must repeat.
            let digest = ServingEngine::new(engine_cfg.clone())
                .expect("preset config validates")
                .run(&trace)
                .digest();
            runs.push(Run {
                cfg: engine_cfg,
                system,
                slots: batching.is_some(),
                digest,
            });
        }
    }
    World { trace, runs }
}

pub fn run(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    let (w, setup_s) = measure::repeat_set_up(cfg.setup_repeats, || set_up(cfg));
    let n = w.trace.len() as u64;
    let per_sweep = n * w.runs.len() as u64;

    let mut latencies_ms = Vec::new();
    let mut failed = 0u64;
    let mut sweeps = 0u64;
    let (mut hit_rate, mut up_share) = (0.0, 0.0);
    let mut phase = Phase::start();
    while if cfg.quick {
        sweeps < 2
    } else {
        phase.elapsed_s() < cfg.seconds
    } {
        let t = Instant::now();
        let mut results = Vec::with_capacity(w.runs.len());
        for run in &w.runs {
            let span = tr.enter("sim.engine_new", sweeps);
            let mut engine = ServingEngine::new(run.cfg.clone()).expect("preset config validates");
            tr.exit(span);
            let span = tr.enter(run.system, sweeps);
            let mode = tr.enter(
                if run.slots {
                    "sim.run_slots"
                } else {
                    "sim.run_dispatch"
                },
                sweeps,
            );
            results.push(engine.run(&w.trace));
            tr.exit(mode);
            tr.exit(span);
        }
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        phase.end_block(per_sweep);
        sweeps += 1;
        phase.pause(|| {
            for (run, stats) in w.runs.iter().zip(&results) {
                if stats.digest() != run.digest || stats.completed as u64 != n {
                    failed += n;
                }
                if run.cfg.label == "BAT" && !run.slots {
                    (hit_rate, up_share) = (stats.hit_rate(), stats.up_share());
                }
            }
        });
    }
    let (wall_s, blocks) = phase.finish();

    let mut layer = Vec::new();
    if tr.enabled() {
        // Simulated requests per wall second of every run under a span name.
        let rps = |name: &str| {
            let d = tr.durations_ns(name);
            d.len() as f64 * n as f64 / (d.iter().sum::<f64>() * 1e-9)
        };
        layer = vec![
            ("sim.run_dispatch.rps", rps("sim.run_dispatch")),
            ("sim.run_slots.rps", rps("sim.run_slots")),
            (
                "sim.engine_new.ms",
                measure::mean(&tr.durations_ns("sim.engine_new")) / 1e6,
            ),
            ("sim.hit_rate.share", hit_rate),
            ("sim.up.share", up_share),
        ];
        for (_, span, metric) in SYSTEMS {
            layer.push((metric, rps(span)));
        }
        layer.extend(replays(cfg, &w));
    }
    Outcome {
        attempted: sweeps * per_sweep,
        failed,
        setup_s,
        wall_s,
        blocks,
        latencies_ms,
        layer,
        info: vec![
            ("trace_requests", n as f64),
            ("sweeps", sweeps as f64),
            ("runs_per_sweep", w.runs.len() as f64),
            ("bat_hit_rate", hit_rate),
            ("bat_up_share", up_share),
        ],
    }
}

/// Each layer under `ServingEngine::run`, replayed alone over the trace.
fn replays(cfg: &RunCfg, w: &World) -> Vec<(&'static str, f64)> {
    let reps = if cfg.quick { 1 } else { 3 };
    let n = w.trace.len() as f64;
    let bat = &w
        .runs
        .iter()
        .find(|r| r.cfg.label == "BAT" && !r.slots)
        .expect("BAT runs")
        .cfg;
    let per_request = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        t0.elapsed().as_nanos() as f64 / (reps as f64 * n)
    };

    let trace_gen_ns = per_request(&mut || {
        black_box(generate(cfg));
    });
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(books_cluster(SystemKind::Bat, None));
    }
    let hrcs_plan_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;

    let plan = bat.placement.as_ref().expect("BAT places items");
    let workers = bat.cluster.num_nodes as u64;
    let candidates: f64 = w.trace.iter().map(|r| r.candidates.len() as f64).sum();
    let locate_ns = per_request(&mut || {
        for (i, req) in w.trace.iter().enumerate() {
            let local = WorkerId::new(i as u64 % workers);
            for &item in &req.candidates {
                black_box(plan.locate(item, local));
            }
        }
    }) * n
        / candidates;

    let kv_per_token = bat.model.kv_bytes_per_token();
    let user_cache_ns = per_request(&mut || {
        let mut cache = UserCache::new(UserCacheConfig {
            capacity: bat.user_cache_capacity,
            freq_window_secs: bat.freq_window_secs,
            ..UserCacheConfig::default()
        });
        for req in &w.trace {
            let now = req.arrival.as_secs();
            cache.record_access(req.user, now);
            if cache.lookup(req.user, now).is_none() {
                let bytes = Bytes::new(req.user_tokens as u64 * kv_per_token);
                black_box(cache.admit_if_hotter(req.user, bytes, now));
            }
        }
    });
    let freq_ns = per_request(&mut || {
        let mut freq: FreqEstimator<UserId> = FreqEstimator::new(bat.freq_window_secs);
        for req in &w.trace {
            black_box(freq.record(req.user, req.arrival.as_secs()));
        }
    });
    let pool_ns = per_request(&mut || {
        let mut pool = TieredKvPool::new(TiersConfig::new(Bytes::new(
            bat.user_cache_capacity.as_u64() / 8,
        )));
        for req in &w.trace {
            let now = req.arrival.as_secs();
            let key = CacheKey::User(req.user);
            let bytes = Bytes::new(req.user_tokens as u64 * kv_per_token);
            if pool.cold_lookup(key, bytes, now).is_none() {
                black_box(pool.demote(key, bytes, now));
            }
        }
    });
    let (planner_ns, _) = layers::planner(bat, &w.trace, reps);
    vec![
        ("workload.trace_gen.ns", trace_gen_ns),
        ("placement.hrcs_plan.ms", hrcs_plan_ms),
        ("placement.locate.ns", locate_ns),
        ("kvcache.user_cache_replay.ns", user_cache_ns),
        ("kvcache.freq_record.ns", freq_ns),
        ("tiers.pool_replay.ns", pool_ns),
        ("sim.planner_plan.ns", planner_ns),
    ]
}
