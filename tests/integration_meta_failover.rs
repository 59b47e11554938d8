//! Meta-failover integration: the replicated cache-meta service under
//! leader crashes, per-link partitions and epoch fencing.
//!
//! The headline invariant mirrors the paper's availability story at the
//! control plane: killing a meta replica — even the leader, mid-run — must
//! change *nothing* about serving. Elections run on logical ticks inside
//! the nominal trace instants, so every request completes, a new leader
//! emerges at a strictly higher epoch, and the final `RunStats` are
//! bitwise-identical to the fault-free run.

use bat::meta::{MetaCommand, MetaError, MetaGroup};
use bat::{
    Bytes, ClusterConfig, DatasetConfig, EngineConfig, FaultEvent, FaultKind, FaultReport,
    FaultSchedule, ModelConfig, RankRequest, RunStats, ServeOptions, ServeRuntime, ServingEngine,
    SystemKind, UserId,
};
use bat_workload::{TraceGenerator, Workload};
use proptest::prelude::*;

const META_REPLICAS: usize = 3;

fn small_cluster() -> ClusterConfig {
    let mut c = ClusterConfig::a100_4node();
    c.num_nodes = 2;
    c.node.kv_cache_capacity = Bytes::from_gb(20);
    c
}

fn dataset() -> DatasetConfig {
    // Few users so the short trace revisits them and the user cache churns.
    DatasetConfig {
        num_users: 300,
        ..DatasetConfig::games()
    }
}

fn trace(ds: &DatasetConfig, secs: f64, rate: f64, seed: u64) -> Vec<RankRequest> {
    let mut g = TraceGenerator::new(Workload::new(ds.clone(), seed), seed ^ 1);
    g.generate(secs, rate)
}

fn config(ds: &DatasetConfig) -> EngineConfig {
    EngineConfig::for_system(
        SystemKind::Bat,
        ModelConfig::qwen2_1_5b(),
        small_cluster(),
        ds,
    )
}

/// The replica the engine's meta group elects first, probed from an
/// identical seeded group — "kill the leader" schedules target it.
fn initial_leader(cfg: &EngineConfig) -> usize {
    let mut probe = MetaGroup::new(cfg.meta_replicas, cfg.meta_seed);
    probe.ensure_leader().expect("fresh group has a quorum")
}

/// Clears the fault report so two runs can be compared on serving alone.
fn without_fault_report(stats: &RunStats) -> RunStats {
    let mut s = stats.clone();
    s.faults = FaultReport::default();
    s
}

#[test]
fn leader_crash_mid_run_is_bitwise_invisible_to_serving() {
    let ds = dataset();
    let t = trace(&ds, 4.0, 30.0, 11);
    let baseline = ServingEngine::new(config(&ds))
        .expect("preset config validates")
        .run(&t);

    let cfg = config(&ds);
    let leader = initial_leader(&cfg);
    let schedule = FaultSchedule::single_meta_crash(2, META_REPLICAS, leader, 1.0, 3.0)
        .expect("leader crash keeps a quorum");
    let faulted = ServingEngine::new(cfg.with_faults(Some(schedule)))
        .expect("meta schedule validates")
        .run(&t);

    assert_eq!(
        faulted.completed,
        t.len(),
        "failover must not drop requests"
    );
    assert_eq!(faulted.faults.meta_crashes, 1);
    assert_eq!(faulted.faults.meta_restarts, 1);
    assert!(
        faulted.faults.meta_final_epoch > 1,
        "the new leader must hold a strictly higher epoch than the first \
         election's (got {})",
        faulted.faults.meta_final_epoch
    );
    assert!(faulted.faults.meta_elections >= 2, "failover re-elects");
    // The replicated service absorbed the failover entirely: serving stats
    // match the fault-free run bit for bit.
    assert_eq!(
        without_fault_report(&faulted),
        without_fault_report(&baseline)
    );
}

#[test]
fn sim_and_serve_agree_under_meta_failover() {
    let ds = dataset();
    let t = trace(&ds, 3.0, 30.0, 11);
    let cfg = config(&ds);
    let leader = initial_leader(&cfg);
    let schedule = FaultSchedule::single_meta_crash(2, META_REPLICAS, leader, 0.8, 2.2)
        .expect("leader crash keeps a quorum");

    let sim_stats = ServingEngine::new(cfg.clone().with_faults(Some(schedule.clone())))
        .expect("meta schedule validates")
        .run(&t);
    let rt_stats = ServeRuntime::new(cfg.with_faults(Some(schedule)), ServeOptions::default())
        .expect("meta schedule validates")
        .serve(&t);

    assert_eq!(rt_stats.completed, t.len());
    assert_eq!(rt_stats.total_tokens, sim_stats.total_tokens);
    assert_eq!(rt_stats.reused_tokens, sim_stats.reused_tokens);
    assert_eq!(rt_stats.up_requests, sim_stats.up_requests);
    // The consensus trail — elections, epochs, fenced appends — is part of
    // the fault report, and both execution paths must walk it identically.
    assert_eq!(rt_stats.faults, sim_stats.faults);
    assert!(rt_stats.faults.meta_final_epoch > 1);
}

#[test]
fn partitioned_leader_forces_election_and_data_plane_detours() {
    let ds = dataset();
    let t = trace(&ds, 4.0, 30.0, 11);
    let baseline = ServingEngine::new(config(&ds))
        .expect("preset config validates")
        .run(&t);

    // Pick a meta seed whose initial leader is hosted on worker 1, so
    // cutting the 0<->1 fabric link severs the client (worker 0) from it.
    // Replicas are hosted round-robin: on 2 workers, replica 1 is the only
    // one living on worker 1.
    let mut cfg = config(&ds);
    cfg.meta_seed = (0..)
        .find(|&seed| {
            let mut probe = MetaGroup::new(META_REPLICAS, seed);
            probe.ensure_leader() == Ok(1)
        })
        .expect("some seed elects replica 1 first");
    let w0 = bat::WorkerId::new(0);
    let w1 = bat::WorkerId::new(1);
    let schedule = FaultSchedule::with_meta_nodes(
        2,
        META_REPLICAS,
        vec![
            FaultEvent {
                at_secs: 1.0,
                kind: FaultKind::CutLink { a: w0, b: w1 },
            },
            FaultEvent {
                at_secs: 3.0,
                kind: FaultKind::HealLink { a: w0, b: w1 },
            },
        ],
    )
    .expect("link cut/heal pairs validate");
    let faulted = ServingEngine::new(cfg.with_faults(Some(schedule)))
        .expect("partition schedule validates")
        .run(&t);

    assert_eq!(faulted.completed, t.len());
    assert_eq!(faulted.faults.link_partitions, 1);
    assert!(
        faulted.faults.meta_unreachable_leader_elections >= 1,
        "the client must depose the unreachable leader"
    );
    assert!(faulted.faults.meta_final_epoch > 1, "deposing re-elects");
    // Unlike a replica crash, a fabric cut is *not* serving-invisible:
    // while 0<->1 is down the data plane must also stop pulling warm KV
    // from worker 1, detouring those lookups to recompute. Same requests,
    // same total work — just fewer remote reuses while the link is cut.
    assert!(
        faulted.faults.unreachable_kv_fallbacks >= 1,
        "data-plane lookups must detour around the cut link"
    );
    assert_eq!(faulted.total_tokens, baseline.total_tokens);
    assert!(
        faulted.reused_tokens <= baseline.reused_tokens,
        "detoured lookups cannot reuse more than the unpartitioned run"
    );
    assert!(
        faulted.remote_bytes <= baseline.remote_bytes,
        "a cut link cannot increase cross-worker KV traffic"
    );
}

#[test]
fn fenced_stale_epoch_write_is_never_applied() {
    // Linearizability at the group level: a deposed leader that never heard
    // of the new epoch cannot commit — and its attempted write must reach
    // no replica's log.
    let mut g = MetaGroup::new(META_REPLICAS, 42);
    let committed = MetaCommand::RegisterEntry {
        key: UserId::new(1).into(),
        bytes: 64,
    };
    g.submit(&committed).expect("fresh group commits");
    let old_leader = g.leader().expect("a leader was just elected");
    let old_epoch = g.epoch();

    // Partition the old leader away; the rest elect a successor.
    g.isolate(old_leader);
    let new_leader = g
        .force_election(|m| m != old_leader)
        .expect("majority side elects");
    assert_ne!(new_leader, old_leader);
    assert!(g.epoch() > old_epoch, "election bumps the epoch");

    // The partition heals and the deposed leader tries to push a write it
    // accepted while isolated: epoch fencing must reject it outright.
    g.reconnect(old_leader);
    let stale = MetaCommand::RegisterEntry {
        key: UserId::new(999).into(),
        bytes: 1,
    };
    let committed = g.stats().committed;
    let applied: Vec<usize> = (0..g.num_nodes()).map(|m| g.applied_of(m)).collect();
    match g.try_append_via(old_leader, &stale) {
        Err(MetaError::Fenced {
            stale_epoch,
            current_epoch,
        }) => assert!(stale_epoch < current_epoch),
        other => panic!("stale write must be fenced, got {other:?}"),
    }
    assert!(!g.read(|s| s.contains(UserId::new(999).into())));
    assert!(
        g.read(|s| s.contains(UserId::new(1).into())),
        "the committed write survives"
    );
    assert_eq!(g.stats().committed, committed, "nothing committed");
    for (m, &before) in applied.iter().enumerate() {
        assert_eq!(g.applied_of(m), before, "fenced write reached replica {m}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any single meta-replica crash/restart schedule — whichever node,
    /// whenever it dies, however long it stays down — yields final serving
    /// metrics bitwise-identical to the fault-free run.
    #[test]
    fn any_single_meta_crash_is_invisible(
        node in 0usize..META_REPLICAS,
        crash_at in 0.3f64..1.8,
        down_secs in 0.4f64..1.6,
        seed in 0u64..50,
    ) {
        let ds = dataset();
        let t = trace(&ds, 3.0, 25.0, seed);
        prop_assume!(!t.is_empty());
        let baseline = ServingEngine::new(config(&ds))
            .expect("preset config validates")
            .run(&t);
        let schedule = FaultSchedule::single_meta_crash(
            2,
            META_REPLICAS,
            node,
            crash_at,
            crash_at + down_secs,
        )
        .expect("single crash keeps a quorum");
        let faulted = ServingEngine::new(config(&ds).with_faults(Some(schedule)))
            .expect("meta schedule validates")
            .run(&t);
        prop_assert_eq!(faulted.completed, t.len());
        prop_assert_eq!(faulted.faults.meta_crashes, 1);
        prop_assert_eq!(
            without_fault_report(&faulted),
            without_fault_report(&baseline)
        );
    }
}
