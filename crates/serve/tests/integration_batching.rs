//! Cross-engine integration test for batching: the threaded serve runtime
//! and the discrete-event simulator must form bitwise identical batches on
//! the same trace at every worker count, for continuous batching and for
//! per-request batching alike (both are the one slot machine).
//!
//! Batch formation runs on nominal arrival times and priced services in
//! both engines, so slot seating, chunk retirement, round fusion — and
//! therefore the whole `RunStats` digest — are pure functions of the
//! trace. Wall-clock jitter, thread interleaving, and the `BAT_THREADS`
//! pool width (CI runs this file at 1 and 8) must all be invisible.

use bat_serve::{ServeOptions, ServeRuntime, TransportKind};
use bat_sim::{
    BatchingConfig, EngineConfig, FaultSchedule, OverloadConfig, ServingEngine, SystemKind,
};
use bat_types::WorkerId;
use bat_types::{Bytes, ClusterConfig, DatasetConfig, ModelConfig, RankRequest, SloBudget};
use bat_workload::{TraceGenerator, Workload};

fn cluster(nodes: usize) -> ClusterConfig {
    let mut c = ClusterConfig::a100_4node();
    c.num_nodes = nodes;
    c.node.kv_cache_capacity = Bytes::from_gb(20);
    c
}

fn short_prompt_dataset() -> DatasetConfig {
    DatasetConfig {
        num_users: 300,
        avg_user_tokens: 120,
        avg_item_tokens: 8,
        candidates_per_request: 10,
        ..DatasetConfig::games()
    }
}

fn trace(ds: &DatasetConfig, secs: f64, rate: f64) -> Vec<RankRequest> {
    let mut g = TraceGenerator::new(Workload::new(ds.clone(), 11), 12);
    g.generate(secs, rate)
}

/// Eight seats of 512-token chunks: every short-prompt request fits one.
const CONTINUOUS: BatchingConfig = BatchingConfig {
    slots_per_worker: 8,
    chunk_tokens: 512,
};

fn config(ds: &DatasetConfig, nodes: usize, batching: Option<BatchingConfig>) -> EngineConfig {
    EngineConfig::for_system(
        SystemKind::Bat,
        ModelConfig::qwen2_1_5b(),
        cluster(nodes),
        ds,
    )
    .with_batching(batching)
}

fn batched_config(ds: &DatasetConfig, nodes: usize) -> EngineConfig {
    config(ds, nodes, Some(CONTINUOUS))
}

#[test]
fn batch_formation_matches_simulator_across_worker_counts() {
    let ds = short_prompt_dataset();
    let t = trace(&ds, 1.0, 300.0);
    for nodes in [1usize, 2, 4, 8] {
        let cfg = batched_config(&ds, nodes);
        let sim = ServingEngine::new(cfg.clone()).unwrap().run(&t);
        let rt = ServeRuntime::new(cfg, ServeOptions::default())
            .unwrap()
            .serve(&t);
        assert_eq!(rt.completed, t.len(), "{nodes} workers dropped requests");
        assert!(sim.batching.rounds > 0, "no rounds at {nodes} workers");
        // Wider clusters spread 300 qps too thin to co-seat chunks; the
        // fusion property itself is only observable under saturation.
        if nodes <= 2 {
            assert!(
                sim.batching.rounds < sim.batching.chunks,
                "rounds must fuse chunks across requests at {nodes} workers"
            );
        }
        assert_eq!(
            sim.batching, rt.batching,
            "batching ledger diverged at {nodes} worker threads"
        );
        assert_eq!(
            sim.digest(),
            rt.digest(),
            "stats digest diverged at {nodes} worker threads"
        );
    }
}

#[test]
fn overloaded_batching_conserves_and_matches_simulator() {
    // A deadline tight enough to force admission rejections plus a burst
    // past capacity: the slot scheduler's occupancy feeds the admission
    // backlog identically in both engines, so even the rejected/shed
    // split must agree bitwise.
    let ds = short_prompt_dataset();
    let mut g = TraceGenerator::new(Workload::new(ds.clone(), 11), 12);
    g.set_slo(SloBudget::with_deadline(0.08));
    let t = g.generate(1.0, 400.0);
    let cfg = batched_config(&ds, 2).with_slo(Some(OverloadConfig));
    let sim = ServingEngine::new(cfg.clone()).unwrap().run(&t);
    let rt = ServeRuntime::new(cfg, ServeOptions::default())
        .unwrap()
        .serve(&t);
    assert_eq!(rt.slo.submitted, t.len() as u64);
    assert!(
        rt.slo.conserved(),
        "submitted != completed + shed + rejected"
    );
    assert_eq!(sim.slo, rt.slo, "SLO ledger diverged");
    assert_eq!(sim.digest(), rt.digest(), "stats digest diverged");
}

#[test]
fn kill_schedule_digest_matches_simulator_across_worker_counts() {
    // A validated kill schedule must leave a survivor after every crash,
    // so the matrix starts at 2 workers; the 1-worker case is pinned by
    // the fault-free parity test above.
    let ds = short_prompt_dataset();
    let t = trace(&ds, 2.0, 150.0);
    for batching in [None, Some(CONTINUOUS)] {
        for nodes in [2usize, 4, 8] {
            let schedule = FaultSchedule::random(17, nodes, 2.0, 1);
            assert!(!schedule.is_empty(), "seed 17 must schedule a crash");
            let cfg = config(&ds, nodes, batching).with_faults(Some(schedule));
            let sim = ServingEngine::new(cfg.clone()).unwrap().run(&t);
            let rt = ServeRuntime::new(cfg, ServeOptions::default())
                .unwrap()
                .serve(&t);
            let at = format!("{nodes} workers, batching {batching:?}");
            assert_eq!(rt.completed, t.len(), "a crash dropped work at {at}");
            assert!(!sim.faults.is_quiet(), "the crash must be observed");
            assert_eq!(
                sim.batching, rt.batching,
                "batching ledger diverged under kill at {at}"
            );
            assert_eq!(
                sim.digest(),
                rt.digest(),
                "stats digest diverged under kill at {at}"
            );
            assert_eq!(sim, rt, "latencies diverged under kill at {at}");
        }
    }
}

#[test]
fn chaos_membership_schedules_match_simulator() {
    // The CI chaos matrix runs this file at BAT_THREADS=1 and 8: three
    // seeded schedules mixing planned drain/join with crash/restart, on
    // top of an SLO controller so the *extended* conservation law
    // (submitted == completed + shed + rejected, with `migrated` a pure
    // movement ledger) is checked under churn, not just at steady state —
    // each under per-request and continuous batching.
    let ds = short_prompt_dataset();
    let mut g = TraceGenerator::new(Workload::new(ds.clone(), 11), 12);
    g.set_slo(SloBudget::with_deadline(0.2));
    let t = g.generate(2.0, 150.0);
    let mut membership_events = 0;
    for (seed, batching) in [3u64, 5, 9]
        .into_iter()
        .flat_map(|seed| [(seed, None), (seed, Some(CONTINUOUS))])
    {
        let schedule = FaultSchedule::random_membership(seed, 4, 2.0, 2);
        membership_events += schedule.events().len();
        let cfg = config(&ds, 4, batching)
            .with_slo(Some(OverloadConfig))
            .with_faults(Some(schedule));
        let sim = ServingEngine::new(cfg.clone()).unwrap().run(&t);
        let rt = ServeRuntime::new(cfg, ServeOptions::default())
            .unwrap()
            .serve(&t);
        let at = format!("seed {seed}, batching {batching:?}");
        assert_eq!(rt.slo.submitted, t.len() as u64, "{at}");
        assert!(
            rt.slo.conserved(),
            "{at}: submitted != completed + shed + rejected"
        );
        assert!(
            rt.batching.migrated_tokens >= rt.batching.migrated_requests,
            "{at}: a migrated chunk carries at least one token"
        );
        assert_eq!(
            rt.slo.migrated, rt.batching.migrated_requests,
            "{at}: the SLO migration ledger mirrors the machine"
        );
        assert_eq!(sim.slo, rt.slo, "{at}: SLO ledger diverged");
        assert_eq!(sim.batching, rt.batching, "{at}: batching ledger diverged");
        assert_eq!(sim.digest(), rt.digest(), "{at}: stats digest diverged");
        assert_eq!(sim, rt, "{at}: latencies diverged");
    }
    assert!(
        membership_events > 0,
        "at least one chaos seed must schedule churn"
    );
}

#[test]
fn batched_child_processes_survive_sigkill_and_count_chunks_once() {
    bat_serve::maybe_child_worker();
    // A real SIGKILL of a real OS process severs the Unix socket with a
    // round frame potentially mid-flight. The register-unacked-before-send
    // rollback (a frame that fails to send is withdrawn before any
    // completion could race it) must compose with the slot machine's
    // crash-requeue: the dead worker's chunks reform into fresh rounds on
    // the survivor under new round seqs, so no chunk is ever counted twice
    // in `BatchStats` — pinned here in the strongest form, bitwise ledger
    // and digest equality with the simulator.
    let ds = short_prompt_dataset();
    let t = trace(&ds, 3.0, 100.0);
    let schedule = FaultSchedule::single_crash(2, WorkerId::new(1), 0.8, 2.0).unwrap();
    let cfg = || batched_config(&ds, 2).with_faults(Some(schedule.clone()));
    let sim = ServingEngine::new(cfg()).unwrap().run(&t);
    let opts = ServeOptions {
        transport: TransportKind::Uds,
        processes: true,
        child_args: vec![
            "batched_child_processes_survive_sigkill_and_count_chunks_once".to_string(),
            "--exact".to_string(),
            "--test-threads=1".to_string(),
            "--quiet".to_string(),
        ],
        ..ServeOptions::default()
    };
    let rt = ServeRuntime::new(cfg(), opts).unwrap().serve(&t);
    assert_eq!(
        rt.completed,
        t.len(),
        "a SIGKILLed batched worker must not lose work"
    );
    assert!(!rt.faults.is_quiet(), "the kill must be observed");
    assert_eq!(
        sim.batching, rt.batching,
        "a chunk was lost or double-counted across the SIGKILL"
    );
    assert_eq!(sim.digest(), rt.digest(), "stats digest diverged");
}
