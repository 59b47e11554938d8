//! Layers replayed alone, single-threaded, over a workload's own trace.
//!
//! `ServeRuntime::serve` and `ServingEngine::run` are opaque from outside,
//! so the traced runs of `serve_slots` and `sim_replay` time the whole call
//! and then drive each layer underneath it through its public API with the
//! same inputs. Every function returns a time per operation.

use bat_kvcache::CacheKey;
use bat_meta::{MetaClient, MetaCommand};
use bat_net::{
    decode_frame, encode_frame, ChannelTransport, CompletionMsg, DispatchMsg, KvSegmentMsg,
    TcpTransport, Transport, UdsTransport, WireCodec, WireOutcome,
};
use bat_sched::{BatchScheduler, BatchingConfig, OverloadConfig, OverloadController};
use bat_sim::{EngineConfig, RequestPlanner};
use bat_tensor::ColBlock;
use bat_types::{RankRequest, UserId};
use std::hint::black_box;
use std::time::Instant;

use crate::measure;

/// Books on two A100 nodes serving Qwen2-1.5B: the cluster both the serving
/// ceiling and the simulator replay run on.
pub fn books_cluster(
    kind: bat_sim::SystemKind,
    batching: Option<BatchingConfig>,
) -> (bat_types::DatasetConfig, EngineConfig) {
    let ds = bat_types::DatasetConfig::books();
    let cfg = EngineConfig::for_system(
        kind,
        bat_types::ModelConfig::qwen2_1_5b(),
        bat_types::ClusterConfig::a100_4node().with_nodes(2),
        &ds,
    )
    .with_batching(batching);
    (ds, cfg)
}

/// Time per call of `op`, ns, over `reps` calls of `setup` + timed `op`.
fn per_op_ns<S>(
    reps: usize,
    ops_per_rep: usize,
    mut setup: impl FnMut() -> S,
    mut op: impl FnMut(S),
) -> f64 {
    let mut total = 0.0;
    for _ in 0..reps {
        let state = setup();
        let t0 = Instant::now();
        op(state);
        total += t0.elapsed().as_nanos() as f64;
    }
    total / (reps * ops_per_rep) as f64
}

/// What the planner decided for each request: the slot scheduler's input.
pub struct Planned {
    pub arrival: f64,
    pub suffix_tokens: u64,
    pub service_secs: f64,
}

/// `RequestPlanner::plan` + `price` per request, ns, and the planned jobs.
pub fn planner(cfg: &EngineConfig, trace: &[RankRequest], reps: usize) -> (f64, Vec<Planned>) {
    let mut jobs = Vec::new();
    let ns = per_op_ns(
        reps,
        trace.len(),
        || RequestPlanner::from_config(cfg),
        |mut planner| {
            jobs.clear();
            for req in trace {
                let now = req.arrival.as_secs();
                let job = planner.plan(req, now);
                let (c, l, t) = planner.price(&job);
                jobs.push(Planned {
                    arrival: now,
                    suffix_tokens: job.suffix_tokens,
                    service_secs: c + l + t,
                });
            }
        },
    );
    (ns, jobs)
}

/// Standalone `BatchScheduler` over the planned jobs: ns per round, and the
/// rounds one replay forms.
pub fn slots(cfg: &EngineConfig, jobs: &[Planned], reps: usize) -> (f64, u64) {
    let batching = cfg.batching.expect("slots replay needs a batching config");
    let mut rounds = 0;
    let total_ns = per_op_ns(
        reps,
        1,
        || {
            BatchScheduler::new(
                batching,
                cfg.batch_overhead_secs,
                vec![1.0; cfg.cluster.num_nodes],
            )
        },
        |mut machine| {
            for (idx, j) in jobs.iter().enumerate() {
                machine.admit(j.arrival, idx, j.suffix_tokens, j.service_secs, None);
                black_box(machine.drain_rounds());
            }
            machine.finish();
            black_box((
                machine.drain_rounds(),
                machine.drain_completions(),
                machine.drain_sheds(),
            ));
            rounds = machine.stats().rounds;
        },
    );
    (total_ns / rounds.max(1) as f64, rounds)
}

/// `OverloadController::on_arrival` per request, ns.
pub fn overload(cfg: &EngineConfig, trace: &[RankRequest], reps: usize) -> f64 {
    let planner = RequestPlanner::from_config(cfg);
    let est: Vec<f64> = trace
        .iter()
        .map(|r| planner.admission_estimate_secs(r))
        .collect();
    per_op_ns(
        reps,
        trace.len(),
        || OverloadController::new(OverloadConfig::default(), cfg.cluster.num_nodes as f64),
        |mut ctl| {
            for (req, &e) in trace.iter().zip(&est) {
                black_box(ctl.on_arrival(
                    req.arrival.as_secs(),
                    e,
                    req.slo.deadline_secs,
                    req.slo.priority,
                ));
            }
        },
    )
}

/// `to_frame` → `encode_frame` → `decode_frame` → `from_frame`, ns per message.
fn codec_ns<M: WireCodec>(msg: &M, iters: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        let bytes = encode_frame(&black_box(msg).to_frame());
        let (frame, _) = decode_frame(&bytes).expect("own frame decodes");
        black_box(M::from_frame(&frame).expect("own message decodes"));
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

pub fn dispatch_codec_ns(iters: usize) -> f64 {
    codec_ns(
        &DispatchMsg {
            seq: 7,
            arrival_virtual: 12.5,
            suffix_tokens: 256,
            service_virtual: 0.0125,
            deadline_rel: None,
        },
        iters,
    )
}

pub fn completion_codec_ns(iters: usize) -> f64 {
    codec_ns(
        &CompletionMsg {
            worker: 1,
            seq: 7,
            suffix_tokens: 256,
            outcome: WireOutcome::Completed {
                latency_virtual: 0.02,
                missed: false,
            },
        },
        iters,
    )
}

/// Codec rate for one 128-token layer block of the proxy model's KV width,
/// MiB of f32 payload per second through encode and decode.
pub fn kvseg_codec_mib_per_s(iters: usize) -> f64 {
    const ROWS: usize = 16;
    const COLS: usize = 128;
    let planes: Vec<f32> = (0..ROWS * COLS).map(|i| (i as f32 * 0.37).sin()).collect();
    let block = ColBlock::from_planes(ROWS, COLS, &planes);
    let key = CacheKey::User(UserId::new(3));
    let t0 = Instant::now();
    for _ in 0..iters {
        let msg = KvSegmentMsg::from_block(key, 0, black_box(&block));
        let bytes = encode_frame(&msg.to_frame());
        let (frame, _) = decode_frame(&bytes).expect("own frame decodes");
        black_box(
            KvSegmentMsg::from_frame(&frame)
                .expect("own message decodes")
                .to_block(),
        );
    }
    let mib = (iters * ROWS * COLS * 4) as f64 / (1024.0 * 1024.0);
    mib / t0.elapsed().as_secs_f64()
}

/// Median round trip, µs, of a dispatch frame against an echo thread.
/// `None` if the transport cannot bind here (say, no loopback).
fn rtt_us(transport: &dyn Transport, addr: &str, pings: usize) -> Option<f64> {
    let listener = transport.listen(addr).ok()?;
    let dial = listener.local_addr();
    let frame = DispatchMsg {
        seq: 1,
        arrival_virtual: 0.0,
        suffix_tokens: 64,
        service_virtual: 0.001,
        deadline_rel: None,
    }
    .to_frame();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let conn = listener.accept().expect("echo accepts");
            while let Ok(f) = conn.recv() {
                if conn.send(f).is_err() {
                    break;
                }
            }
        });
        let conn = transport.connect(&dial).expect("echo dials");
        let mut samples = Vec::with_capacity(pings);
        for _ in 0..pings {
            let t0 = Instant::now();
            conn.send(frame.clone()).expect("ping sends");
            black_box(conn.recv().expect("pong arrives"));
            samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        conn.close();
        Some(measure::median(samples))
    })
}

pub fn uds_rtt_us(out_dir: &std::path::Path, pings: usize) -> f64 {
    let path = out_dir.join(format!("echo-{}.sock", std::process::id()));
    rtt_us(&UdsTransport::new(), &path.to_string_lossy(), pings).unwrap_or(0.0)
}

pub fn tcp_rtt_us(pings: usize) -> f64 {
    rtt_us(&TcpTransport::new(), "127.0.0.1:0", pings).unwrap_or(0.0)
}

pub fn channel_rtt_us(pings: usize) -> f64 {
    rtt_us(&ChannelTransport::new(), "echo", pings).unwrap_or(0.0)
}

/// `MetaClient::submit` on a three-replica group, µs per commit.
pub fn meta_commit_us(seed: u64, commits: usize) -> f64 {
    let mut client = MetaClient::new(3, seed, 2);
    let t0 = Instant::now();
    for i in 0..commits {
        let now = i as f64 * 1e-3;
        let key = CacheKey::User(UserId::new(i as u64 % 512));
        black_box(client.submit(
            MetaCommand::HotnessDelta {
                key,
                at_ms: i as u64,
            },
            now,
        ));
    }
    t0.elapsed().as_nanos() as f64 / 1e3 / commits as f64
}
