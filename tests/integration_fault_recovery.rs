//! Fault-recovery integration: the membership re-planning invariants, the
//! seeded determinism of faulted runs, and the kill-one-of-four
//! availability story from the `ablation_fault_recovery` experiment.

use bat_faults::{ClusterView, FaultEvent, FaultKind, FaultSchedule};
use bat_placement::{DegradedLocation, DegradedPlacement, ItemPlacementPlan, PlacementStrategy};
use bat_sim::{EngineConfig, ServingEngine, SystemKind};
use bat_types::{Bytes, ClusterConfig, DatasetConfig, ItemId, ModelConfig, RankRequest, WorkerId};
use bat_workload::{TraceGenerator, Workload};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const KV: u64 = 28_672 * 10; // Qwen2-1.5B KV bytes for a 10-token item

/// Replays a seeded random crash/restart sequence through a
/// [`ClusterView`], keeping the events it accepts (it refuses to take down
/// the last live worker). Returns the final view.
fn random_membership(seed: u64, workers: usize, flips: usize) -> ClusterView {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut view = ClusterView::new(workers);
    for step in 0..flips {
        let w = WorkerId::new(rng.gen_range(0..workers) as u64);
        let kind = if view.is_alive(w) {
            FaultKind::WorkerCrash(w)
        } else {
            FaultKind::WorkerRestart(w)
        };
        // A refused event leaves the view as it was.
        let _ = view.apply(&FaultEvent {
            at_secs: step as f64,
            kind,
        });
    }
    view
}

proptest! {
    /// After ANY membership-change sequence, the HRCS re-plan (a) never
    /// assigns a live worker more entries than its slot capacity and
    /// (b) leaves every item either reachable on a live worker or
    /// explicitly marked recompute-only — nothing dangles on a corpse.
    #[test]
    fn replan_respects_capacity_and_liveness(
        seed in 0u64..1_000,
        workers in 2usize..8,
        flips in 0usize..12,
        items in 100u64..2_000,
        repl in 0.0f64..0.5,
        spare in 0u64..500,
    ) {
        let view = random_membership(seed, workers, flips);
        let plan = ItemPlacementPlan::new(PlacementStrategy::Hrcs, items, workers, repl, KV);
        // Budget = nominal per-worker load plus some spare slots, the same
        // shape the planner guarantees (its item region fits by
        // construction); adoption must stay inside the spare.
        let sharded = plan.cached_items() - plan.replicated_items();
        let base_load = plan.replicated_items() + sharded.div_ceil(workers as u64);
        let budget = Bytes::new((base_load + spare) * KV);
        let degraded = DegradedPlacement::new(&plan, view.alive_mask(), budget);

        for &w in degraded.live_workers() {
            prop_assert!(
                degraded.assigned_items(w) <= degraded.capacity_items(),
                "{w} over capacity: {} > {}",
                degraded.assigned_items(w),
                degraded.capacity_items()
            );
        }
        for id in 0..plan.num_items() {
            match degraded.locate(ItemId::new(id)) {
                DegradedLocation::Replica => {
                    prop_assert!(view.n_alive() >= 1 && plan.is_replicated(ItemId::new(id)));
                }
                DegradedLocation::Shard(w) | DegradedLocation::Adopted(w) => {
                    prop_assert!(view.is_alive(w), "item {id} assigned to dead {w}");
                }
                DegradedLocation::RecomputeOnly => {}
            }
        }
    }
}

fn four_node_config(ds: &DatasetConfig) -> EngineConfig {
    let mut cluster = ClusterConfig::a100_4node();
    cluster.node.kv_cache_capacity = Bytes::from_gb(20);
    EngineConfig::for_system(SystemKind::Bat, ModelConfig::qwen2_1_5b(), cluster, ds)
}

fn trace(ds: &DatasetConfig, secs: f64, rate: f64) -> Vec<RankRequest> {
    let mut g = TraceGenerator::new(Workload::new(ds.clone(), 7), 9);
    g.generate(secs, rate)
}

/// Same seed + same fault schedule → bit-identical `RunStats` (fault
/// report included) from the simulator, run-to-run.
#[test]
fn faulted_runs_are_bit_identical() {
    let ds = DatasetConfig::games();
    let t = trace(&ds, 5.0, 40.0);
    let schedule = FaultSchedule::random(17, 4, 5.0, 2);
    let run = || {
        let cfg = four_node_config(&ds).with_faults(Some(schedule.clone()));
        let stats = ServingEngine::new(cfg).unwrap().run(&t);
        serde_json::to_string(&stats).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "faulted runs must be deterministic");
}

/// Killing one of four cache workers mid-trace completes every request:
/// surviving replicas and recompute fallbacks absorb the outage, the meta
/// service invalidates the dead worker's entries, and the restarted worker
/// is re-warmed.
#[test]
fn one_of_four_crash_completes_all_requests() {
    let ds = DatasetConfig::games();
    // Dense enough that the user cache holds entries on every partition
    // by the time the crash lands.
    let t = trace(&ds, 7.0, 150.0);
    let schedule = FaultSchedule::single_crash(4, WorkerId::new(1), 3.0, 4.5).unwrap();
    let cfg = four_node_config(&ds).with_faults(Some(schedule));
    let stats = ServingEngine::new(cfg).unwrap().run(&t);

    assert_eq!(stats.completed, t.len(), "no request may be dropped");
    assert_eq!(stats.faults.crashes, 1);
    assert_eq!(stats.faults.restarts, 1);
    assert!(
        stats.faults.invalidated_entries > 0,
        "meta service must invalidate the dead worker's entries"
    );
    assert!(
        stats.faults.rewarmed_items > 0,
        "the returned worker must be re-warmed"
    );
    assert!(stats.hit_rate() > 0.0, "survivors must still serve hits");
}

/// A fault-free schedule is a strict no-op: identical stats to not wiring
/// the fault subsystem at all.
#[test]
fn empty_schedule_changes_nothing() {
    let ds = DatasetConfig::games();
    let t = trace(&ds, 3.0, 30.0);
    let plain = ServingEngine::new(four_node_config(&ds)).unwrap().run(&t);
    let wired = ServingEngine::new(four_node_config(&ds).with_faults(Some(FaultSchedule::none(4))))
        .unwrap()
        .run(&t);
    assert_eq!(plain.reused_tokens, wired.reused_tokens);
    assert_eq!(plain.computed_tokens, wired.computed_tokens);
    assert!(wired.faults.is_quiet());
}

/// Schedules sized for the wrong cluster are rejected up front.
#[test]
fn mismatched_schedule_is_rejected() {
    let ds = DatasetConfig::games();
    let cfg = four_node_config(&ds).with_faults(Some(FaultSchedule::none(3)));
    assert!(ServingEngine::new(cfg).is_err());
}
