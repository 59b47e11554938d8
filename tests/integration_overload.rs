//! Overload control plane integration: the SLO-aware admission path is a
//! deterministic function of the trace and the fault schedule — never of
//! the execution layer's thread count — and its conservation law holds
//! when bursts, stragglers, and slow links all land in the same run.
//!
//! Thread counts are flipped with [`bat::exec::set_threads`], the same
//! runtime override `batctl --threads` uses (see
//! `integration_parallel_determinism.rs` for why process-global flipping
//! is the strongest form of the contract).

use bat::exec::set_threads;
use bat::{
    BatError, Bytes, ClusterConfig, DatasetConfig, EngineConfig, FaultEvent, FaultKind,
    FaultSchedule, ModelConfig, OverloadConfig, OverloadController, Priority, RankRequest,
    RejectReason, ServeOptions, ServeRuntime, ServingEngine, SloBudget, SystemKind, WorkerId,
};
use bat_workload::{TraceGenerator, Workload};

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

fn small_cluster() -> ClusterConfig {
    let mut c = ClusterConfig::a100_4node();
    c.node.kv_cache_capacity = Bytes::from_gb(20);
    c
}

/// A steady trace with a 3x burst in the middle, all requests carrying
/// deadlines. The generator is resumable, so consecutive `generate` calls
/// append segments on one continuous timeline.
fn burst_trace(ds: &DatasetConfig) -> Vec<RankRequest> {
    let mut g = TraceGenerator::new(Workload::new(ds.clone(), 21), 22);
    g.set_slo(SloBudget::with_deadline(0.5).at_priority(Priority::Normal));
    let mut trace = g.generate(1.0, 40.0);
    g.set_slo(SloBudget::with_deadline(0.5).at_priority(Priority::Low));
    trace.extend(g.generate(1.0, 120.0));
    g.set_slo(SloBudget::with_deadline(0.5).at_priority(Priority::Normal));
    trace.extend(g.generate(1.0, 40.0));
    trace
}

/// SlowLink against worker 1 (a hot cache holder) for the burst window,
/// healed afterwards.
fn slow_link_schedule() -> FaultSchedule {
    FaultSchedule::new(
        4,
        vec![
            FaultEvent {
                at_secs: 0.9,
                kind: FaultKind::SlowLink {
                    a: WorkerId::new(0),
                    b: WorkerId::new(1),
                    factor: 8.0,
                },
            },
            FaultEvent {
                at_secs: 2.2,
                kind: FaultKind::SlowLink {
                    a: WorkerId::new(0),
                    b: WorkerId::new(1),
                    factor: 1.0,
                },
            },
        ],
    )
    .expect("schedule is valid")
}

fn overload_config(ds: &DatasetConfig) -> EngineConfig {
    EngineConfig::for_system(
        SystemKind::Bat,
        ModelConfig::qwen2_1_5b(),
        small_cluster(),
        ds,
    )
    .with_faults(Some(slow_link_schedule()))
    .with_straggler(Some((1, 5.0)))
    .with_slo(Some(OverloadConfig))
}

/// Same seed + same schedule ⇒ bit-identical `RunStats` — fault report,
/// SLO ledger, and every float — no matter how many threads the execution
/// layer runs, and no matter how often the run repeats.
#[test]
fn overloaded_sim_is_bit_identical_across_thread_counts() {
    let ds = DatasetConfig::games();
    let trace = burst_trace(&ds);
    let run = || {
        let stats = ServingEngine::new(overload_config(&ds))
            .unwrap()
            .run(&trace);
        serde_json::to_string(&stats).unwrap()
    };

    set_threads(1);
    let serial = run();
    assert!(serial.contains("\"slo\""), "SLO ledger must serialize");
    for n in THREAD_COUNTS {
        set_threads(n);
        assert_eq!(run(), serial, "sim stats diverged @ {n} threads");
    }
    set_threads(1);

    let stats = ServingEngine::new(overload_config(&ds))
        .unwrap()
        .run(&trace);
    assert_eq!(stats.slo.submitted, trace.len() as u64);
    assert!(
        stats.slo.conserved(),
        "conservation violated: {:?}",
        stats.slo
    );
    assert!(stats.faults.slow_links > 0, "the SlowLink must register");
}

/// The threaded runtime drives the simulator's nominal-time driver, so its
/// accept/reject split, its sheds and every other counter match the
/// simulator exactly, and the conservation law never breaks.
#[test]
fn serve_matches_sim_admission_and_conserves() {
    let ds = DatasetConfig::games();
    let trace = burst_trace(&ds);
    let sim = ServingEngine::new(overload_config(&ds))
        .unwrap()
        .run(&trace);
    let live = ServeRuntime::new(overload_config(&ds), ServeOptions::default())
        .unwrap()
        .serve(&trace);

    assert_eq!(live.slo.submitted, trace.len() as u64);
    assert!(
        live.slo.conserved(),
        "conservation violated: {:?}",
        live.slo
    );
    assert_eq!(
        live.slo.rejected(),
        sim.slo.rejected(),
        "admission is a nominal-time decision: sim {:?} vs live {:?}",
        sim.slo,
        live.slo
    );
    assert_eq!(live.slo.accepted, sim.slo.accepted);
    assert_eq!(live.slo, sim.slo);
    assert_eq!(live.digest(), sim.digest(), "stats digest diverged");
    assert_eq!(live, sim, "latencies and sheds are nominal too");
}

/// The controller's typed errors at the facade level: every shed point
/// speaks `BatError`, not a bare bool.
#[test]
fn admission_errors_are_typed() {
    let mut ctl = OverloadController::new(OverloadConfig, 1.0);
    // Saturate the virtual backlog far past the bound.
    for _ in 0..200 {
        let _ = ctl.on_arrival(0.0, 0.05, None, Priority::Normal);
    }
    let denied = ctl
        .on_arrival(0.0, 0.05, None, Priority::Normal)
        .into_result();
    match denied {
        Err(BatError::Rejected {
            reason: RejectReason::QueueFull,
        }) => {}
        other => panic!("expected typed queue-full rejection, got {other:?}"),
    }
    // An infeasible deadline is rejected with its own reason even when the
    // queue has room.
    let mut fresh = OverloadController::new(OverloadConfig, 1.0);
    let infeasible = fresh
        .on_arrival(0.0, 0.5, Some(0.01), Priority::High)
        .into_result();
    match infeasible {
        Err(BatError::Rejected {
            reason: RejectReason::DeadlineInfeasible,
        }) => {}
        other => panic!("expected typed infeasible rejection, got {other:?}"),
    }
}
