//! Fault injection on real threads: killing a cache worker mid-trace.
//!
//! Attaches a seeded [`FaultSchedule`] to the engine config, then serves a
//! live trace on the `bat-serve` runtime: at the crash point the fault
//! supervisor severs the victim worker thread's link, which ends the
//! thread, and at the restart point it spawns a fresh one. The scheduler keeps routing around the outage (surviving
//! HRCS replicas for hot items, recompute fallback for cold-shard misses),
//! so every request still completes. The same schedule then drives the
//! discrete-event simulator, and the fault accounting matches exactly —
//! both stacks advance the planner's fault cursor on nominal trace time.
//!
//! Run with:
//! ```text
//! cargo run --release -p bat --example fault_injection
//! ```

use bat::{
    ClusterConfig, DatasetConfig, EngineConfig, FaultSchedule, ModelConfig, ServeOptions,
    ServeRuntime, ServingEngine, SystemKind, TraceGenerator, WorkerId, Workload,
};

fn main() {
    let model = ModelConfig::qwen2_1_5b();
    let cluster = ClusterConfig::a100_4node();
    let dataset = DatasetConfig::games();

    let mut gen = TraceGenerator::new(Workload::new(dataset.clone(), 11), 17);
    let trace = gen.generate(8.0, 120.0);

    // Worker 1 crashes a quarter of the way in and returns at the midpoint.
    let schedule = FaultSchedule::single_crash(cluster.num_nodes, WorkerId::new(1), 2.0, 4.0)
        .expect("crash/restart times are ordered and in range");
    println!(
        "Serving {} Games requests on {} worker threads; schedule:",
        trace.len(),
        cluster.num_nodes
    );
    for ev in schedule.events() {
        println!("  t={:>5.1}s  {:?}", ev.at_secs, ev.kind);
    }

    let mut cfg = EngineConfig::for_system(SystemKind::Bat, model, cluster, &dataset);
    cfg.faults = Some(schedule);

    let runtime = ServeRuntime::new(cfg.clone(), ServeOptions::default())
        .expect("preset configuration validates");
    let live = runtime.serve(&trace);

    println!("\nthreaded runtime (thread really killed and respawned):");
    println!("  completed          {}/{}", live.completed, trace.len());
    println!("  cache hit rate     {:.3}", live.hit_rate());
    println!(
        "  crashes/restarts   {}/{}",
        live.faults.crashes, live.faults.restarts
    );
    println!("  entries invalidated {}", live.faults.invalidated_entries);
    println!("  recompute fallbacks {}", live.faults.recompute_fallbacks);
    println!("  items re-warmed    {}", live.faults.rewarmed_items);

    let mut engine = ServingEngine::new(cfg).expect("same config");
    let sim = engine.run(&trace);
    println!("\ndiscrete-event simulator (same trace, same schedule):");
    println!("  completed          {}/{}", sim.completed, trace.len());
    println!("  cache hit rate     {:.3}", sim.hit_rate());

    assert_eq!(live.completed, trace.len(), "faults never drop requests");
    assert_eq!(
        live.faults, sim.faults,
        "fault accounting is planner-owned, so both stacks agree bit-for-bit"
    );
    println!("\nfault accounting identical across both stacks ✓");
}
