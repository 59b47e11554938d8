//! `serve_slots`: the serving control and data plane with compute ≈ 0.
//!
//! `ServeRuntime::serve` replays an open-loop trace whose seconds of nominal
//! time are compressed to microseconds of wall time (`time_scale` 1e-6), so
//! the whole trace is the queue and the measured figure is a saturation
//! drain rate: planner, slot scheduler, frame codec, Unix sockets, meta and
//! the `serve_batched` loop, with workers that sleep ~0. One operation is
//! one drain of the trace; the run repeats it until time is up.

use crate::layers::{self, books_cluster};
use crate::measure::{self, Phase, Rusage};
use crate::trace::Tracer;
use crate::{Outcome, RunCfg, DATASET_SEED};
use bat_sched::BatchingConfig;
use bat_serve::{ServeOptions, ServeRuntime, TransportKind};
use bat_sim::{EngineConfig, ServingEngine, SystemKind};
use bat_types::RankRequest;
use bat_workload::{TraceGenerator, Workload};
use std::time::Instant;

/// Requests per drain; one drain ≈ 0.3 s. Fixed, so that the time of a
/// drain means the same thing for every seed.
const TRACE_REQUESTS: usize = 1_000;
const TRACE_RATE: f64 = 300.0;
pub const TIME_SCALE: f64 = 1e-6;

struct World {
    trace: Vec<RankRequest>,
    cfg: EngineConfig,
    runtime: ServeRuntime,
    /// `RunStats::digest` of `ServingEngine::run` on the same config.
    oracle_digest: u64,
}

fn runtime(cfg: &EngineConfig, transport: TransportKind) -> ServeRuntime {
    let opts = ServeOptions {
        time_scale: TIME_SCALE,
        transport,
        ..ServeOptions::default()
    };
    ServeRuntime::new(cfg.clone(), opts).expect("preset config validates")
}

fn set_up(cfg: &RunCfg) -> World {
    let (mut ds, engine_cfg) = books_cluster(SystemKind::Bat, Some(BatchingConfig::default()));
    // One request per session: with Books' ten, a thousand requests come
    // from a hundred users, and the profile lengths of those few would move
    // the round count — and so every metric — by ~8 % from seed to seed.
    ds.session_mean_requests = 1.0;
    let requests = if cfg.quick {
        TRACE_REQUESTS / 10
    } else {
        TRACE_REQUESTS
    };
    let mut trace = TraceGenerator::new(Workload::new(ds, DATASET_SEED), cfg.seed)
        .generate(1.5 * requests as f64 / TRACE_RATE, TRACE_RATE);
    assert!(
        trace.len() >= requests,
        "trace generator fell short of {requests} requests"
    );
    trace.truncate(requests);
    let oracle_digest = ServingEngine::new(engine_cfg.clone())
        .expect("preset config validates")
        .run(&trace)
        .digest();
    let runtime = runtime(&engine_cfg, TransportKind::Uds);
    runtime.serve(&trace); // untimed: first-use costs of threads and sockets
    World {
        trace,
        cfg: engine_cfg,
        runtime,
        oracle_digest,
    }
}

/// Mean drain rate of `passes` serves, requests per second.
fn drain_rps(rt: &ServeRuntime, trace: &[RankRequest], passes: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..passes {
        rt.serve(trace);
    }
    (passes * trace.len()) as f64 / t0.elapsed().as_secs_f64()
}

pub fn run(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    let (w, setup_s) = measure::repeat_set_up(cfg.setup_repeats, || set_up(cfg));
    let n = w.trace.len() as u64;

    let mut latencies_ms = Vec::new();
    let mut failed = 0u64;
    let mut passes = 0u64;
    let (mut rounds, mut chunks) = (0, 0);
    let cpu0 = Rusage::now();
    let mut phase = Phase::start();
    while if cfg.quick {
        passes < 3
    } else {
        phase.elapsed_s() < cfg.seconds
    } {
        let span = tr.enter("serve.pass", passes);
        let t = Instant::now();
        let stats = w.runtime.serve(&w.trace);
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.exit(span);
        phase.end_block(n);
        passes += 1;
        // Conservation: with no SLO nothing may be shed or rejected, so
        // every submitted request completes; and the planner-side digest
        // must equal the simulator's on the same trace.
        phase.pause(|| {
            let refused = stats.slo.shed_expired
                + stats.slo.rejected_queue_full
                + stats.slo.rejected_infeasible
                + stats.slo.rejected_brownout;
            let lost = n.saturating_sub(stats.completed as u64 + refused);
            failed += if stats.digest() == w.oracle_digest {
                refused + lost
            } else {
                n
            };
            (rounds, chunks) = (stats.batching.rounds, stats.batching.chunks);
        });
    }
    let cpu1 = Rusage::now();
    let (wall_s, blocks) = phase.finish();

    let mut layer = Vec::new();
    if tr.enabled() {
        let (reps, iters) = if cfg.quick { (2, 500) } else { (10, 5_000) };
        let pass_ns = measure::mean(&tr.durations_ns("serve.pass"));
        let (planner_ns, jobs) = layers::planner(&w.cfg, &w.trace, reps);
        let (slots_ns, _) = layers::slots(&w.cfg, &jobs, reps);
        let dispatch_ns = layers::dispatch_codec_ns(iters * 4);
        let completion_ns = layers::completion_codec_ns(iters * 4);
        let uds_us = layers::uds_rtt_us(&cfg.out_dir, iters);
        let attributed = n as f64 * planner_ns
            + rounds as f64 * (slots_ns + dispatch_ns + completion_ns + uds_us * 1e3);
        let (_, dispatch_cfg) = books_cluster(SystemKind::Bat, None);
        layer = vec![
            ("serve.wall_per_round.us", pass_ns / 1e3 / rounds as f64),
            ("serve.unattributed.share", 1.0 - attributed / pass_ns),
            (
                "serve.sys_cpu.share",
                (cpu1.sys_s - cpu0.sys_s) / (cpu1.cpu_s() - cpu0.cpu_s()),
            ),
            ("sim.planner_plan.ns", planner_ns),
            ("sched.slots_round.ns", slots_ns),
            (
                "sched.overload_on_arrival.ns",
                layers::overload(&w.cfg, &w.trace, reps),
            ),
            ("net.dispatch_codec.ns", dispatch_ns),
            ("net.completion_codec.ns", completion_ns),
            (
                "net.kvseg_codec.mib_per_s",
                layers::kvseg_codec_mib_per_s(iters),
            ),
            ("net.uds_rtt.us_p50", uds_us),
            ("net.tcp_rtt.us_p50", layers::tcp_rtt_us(iters)),
            ("net.channel_rtt.us_p50", layers::channel_rtt_us(iters)),
            ("meta.commit.us", layers::meta_commit_us(cfg.seed, iters)),
            (
                "serve.dispatch_path.rps",
                drain_rps(&runtime(&dispatch_cfg, TransportKind::Uds), &w.trace, reps),
            ),
            (
                "serve.slots_channel.rps",
                drain_rps(
                    &runtime(&w.cfg, TransportKind::Channel),
                    &w.trace,
                    reps.min(5),
                ),
            ),
            ("serve.rounds.count", rounds as f64),
            ("serve.chunks.count", chunks as f64),
        ];
    }
    Outcome {
        attempted: passes * n,
        failed,
        setup_s,
        wall_s,
        blocks,
        latencies_ms,
        layer,
        info: vec![
            ("trace_requests", n as f64),
            ("passes", passes as f64),
            ("rounds_per_pass", rounds as f64),
            ("chunks_per_pass", chunks as f64),
            ("time_scale", TIME_SCALE),
        ],
    }
}
