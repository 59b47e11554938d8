//! Transport-layer integration: the serving runtime must produce
//! **bitwise-identical** deterministic statistics no matter how its frames
//! travel — in-process channels (the oracle), Unix-domain sockets between
//! threads, TCP loopback, or Unix sockets to **child OS processes** — and
//! no matter whether workers crash and rejoin along the way.
//!
//! The pin is [`RunStats::digest`] — an FNV-64 over every planner-side
//! field (token accounting, cache split, priced cost sums, admission
//! counters, the fault report) — and then the whole [`RunStats`]: every
//! engine runs the simulator's driver on nominal time, latencies included,
//! so any divergence between backends means a codec, framing, ordering, or
//! retirement bug — the exact classes of bug a byte-level transport can
//! introduce and the channel oracle cannot. Under faults and the SLO
//! control plane the oracle is the simulator itself.
//!
//! Child-process mechanics: `--processes` re-executes the current binary
//! (this test binary) with `[test_name, "--exact", ...]`; the re-entered
//! test function calls [`bat::maybe_child_worker`] first, which diverts
//! the process into the worker loop and exits before the test harness
//! proper runs anything. A scheduled `WorkerCrash` is a real SIGKILL; a
//! `WorkerRestart` spawns a fresh process that rejoins over the same
//! listener.

use bat::{
    Bytes, ClusterConfig, DatasetConfig, EngineConfig, FaultSchedule, ModelConfig, OverloadConfig,
    RankRequest, RunStats, ServeOptions, ServeRuntime, ServingEngine, SloBudget, SystemKind,
    TransportKind, WorkerId,
};
use bat_workload::{TraceGenerator, Workload};

fn small_cluster() -> ClusterConfig {
    let mut c = ClusterConfig::a100_4node();
    c.num_nodes = 2;
    c.node.kv_cache_capacity = Bytes::from_gb(20);
    c
}

fn config(ds: &DatasetConfig) -> EngineConfig {
    EngineConfig::for_system(
        SystemKind::UserPrefix,
        ModelConfig::qwen2_1_5b(),
        small_cluster(),
        ds,
    )
}

fn dataset() -> DatasetConfig {
    DatasetConfig {
        num_users: 300,
        ..DatasetConfig::games()
    }
}

fn trace(ds: &DatasetConfig, secs: f64, rate: f64) -> Vec<RankRequest> {
    let mut g = TraceGenerator::new(Workload::new(ds.clone(), 31), 32);
    g.generate(secs, rate)
}

/// A worker crash at 1.0s and its rejoin at 2.5s, on worker 1 of 2.
fn kill_schedule() -> FaultSchedule {
    FaultSchedule::single_crash(2, WorkerId::new(1), 1.0, 2.5).unwrap()
}

/// The kill schedule under the SLO control plane, and a trace whose every
/// request carries a deadline.
fn faulted(ds: &DatasetConfig) -> (EngineConfig, Vec<RankRequest>) {
    let cfg = config(ds)
        .with_faults(Some(kill_schedule()))
        .with_slo(Some(OverloadConfig));
    let mut g = TraceGenerator::new(Workload::new(ds.clone(), 31), 32);
    g.set_slo(SloBudget::with_deadline(0.3));
    (cfg, g.generate(4.0, 40.0))
}

fn run(
    cfg: EngineConfig,
    t: &[RankRequest],
    transport: TransportKind,
    processes: bool,
    child_test: &str,
) -> RunStats {
    let opts = ServeOptions {
        transport,
        processes,
        child_args: if processes {
            vec![
                child_test.to_string(),
                "--exact".to_string(),
                "--test-threads=1".to_string(),
                "--quiet".to_string(),
            ]
        } else {
            Vec::new()
        },
        ..ServeOptions::default()
    };
    ServeRuntime::new(cfg, opts).unwrap().serve(t)
}

fn assert_same_run(oracle: &RunStats, candidate: &RunStats, what: &str) {
    assert_eq!(
        candidate.digest(),
        oracle.digest(),
        "{what}: full planner digest"
    );
    assert_eq!(candidate, oracle, "{what}");
}

#[test]
fn socket_backends_match_channel_oracle() {
    bat::maybe_child_worker();
    let ds = dataset();
    let t = trace(&ds, 3.0, 40.0);
    let oracle = run(config(&ds), &t, TransportKind::Channel, false, "");
    assert_eq!(oracle.completed, t.len());

    let uds = run(config(&ds), &t, TransportKind::Uds, false, "");
    assert_same_run(&oracle, &uds, "uds threads");

    let tcp = run(config(&ds), &t, TransportKind::Tcp, false, "");
    assert_same_run(&oracle, &tcp, "tcp threads");
}

#[test]
fn uds_matches_channel_under_worker_kill() {
    bat::maybe_child_worker();
    let ds = dataset();
    let (cfg, t) = faulted(&ds);
    let sim = ServingEngine::new(cfg.clone()).unwrap().run(&t);
    assert_eq!(sim.slo.submitted, t.len() as u64);
    assert!(sim.slo.conserved(), "faults must never lose work");
    assert!(!sim.faults.is_quiet(), "the crash must be observed");

    let channel = run(cfg.clone(), &t, TransportKind::Channel, false, "");
    assert_same_run(&sim, &channel, "channel threads under worker kill");
    let uds = run(cfg, &t, TransportKind::Uds, false, "");
    assert_same_run(&sim, &uds, "uds threads under worker kill");
}

#[test]
fn child_processes_match_channel_oracle() {
    bat::maybe_child_worker();
    let ds = dataset();
    let t = trace(&ds, 3.0, 40.0);
    let oracle = run(config(&ds), &t, TransportKind::Channel, false, "");
    let procs = run(
        config(&ds),
        &t,
        TransportKind::Uds,
        true,
        "child_processes_match_channel_oracle",
    );
    assert_eq!(procs.completed, t.len());
    assert_same_run(&oracle, &procs, "uds child processes");
}

#[test]
fn child_processes_survive_sigkill_and_match_oracle() {
    bat::maybe_child_worker();
    let ds = dataset();
    let (cfg, t) = faulted(&ds);
    let sim = ServingEngine::new(cfg.clone()).unwrap().run(&t);

    // The crash here is a real SIGKILL of a real OS process; every frame
    // the dead worker never acknowledged is retired (the machine already
    // re-seated its work), and the restart is a fresh process rejoining
    // over the same listener.
    let procs = run(
        cfg,
        &t,
        TransportKind::Uds,
        true,
        "child_processes_survive_sigkill_and_match_oracle",
    );
    assert!(
        procs.slo.conserved(),
        "a SIGKILLed worker must not lose work"
    );
    assert!(!procs.faults.is_quiet());
    assert_same_run(&sim, &procs, "uds child processes under SIGKILL");
}

#[test]
fn repeated_runs_are_reproducible() {
    bat::maybe_child_worker();
    // The digest is only a useful cross-transport pin if it is stable
    // run-to-run on one transport first.
    let ds = dataset();
    let t = trace(&ds, 2.0, 40.0);
    let a = run(config(&ds), &t, TransportKind::Channel, false, "");
    let b = run(config(&ds), &t, TransportKind::Channel, false, "");
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a, b);
}
