//! Cluster serving on real threads: the `bat-serve` runtime.
//!
//! Runs the full BAT pipeline — scheduler thread, per-node inference-worker
//! threads, shared cache meta service — over a live trace, with GPU kernel
//! time simulated by the cost model (time-scaled so the demo finishes in
//! seconds). Then cross-checks the run against the discrete-event
//! simulator: both stacks drive the same serving driver on nominal time, so
//! every statistic — token accounting, latencies — matches exactly.
//!
//! Run with:
//! ```text
//! cargo run --release -p bat --example cluster_serving
//! ```

use bat::{
    ClusterConfig, DatasetConfig, EngineConfig, ModelConfig, ServeOptions, ServeRuntime,
    ServingEngine, SystemKind, TraceGenerator, Workload,
};

fn main() {
    let model = ModelConfig::qwen2_1_5b();
    let cluster = ClusterConfig::a100_4node();
    let dataset = DatasetConfig::books();

    let mut gen = TraceGenerator::new(Workload::new(dataset.clone(), 11), 17);
    let trace = gen.generate(30.0, 120.0);
    println!(
        "Serving {} Books requests on {} worker threads (time scale 1:1000)...",
        trace.len(),
        cluster.num_nodes
    );

    let cfg = EngineConfig::for_system(SystemKind::Bat, model, cluster, &dataset);
    let runtime = ServeRuntime::new(cfg.clone(), ServeOptions::default())
        .expect("preset configuration validates");
    let live = runtime.serve(&trace);

    println!("\nthreaded runtime:");
    println!("  completed        {}", live.completed);
    println!("  cache hit rate   {:.3}", live.hit_rate());
    println!("  UP share         {:.3}", live.up_share());
    println!("  P99 latency      {:.1} ms (virtual)", live.p99_latency_ms);

    let mut engine = ServingEngine::new(cfg).expect("same config");
    let sim = engine.run(&trace);
    println!("\ndiscrete-event simulator (same trace, same planner):");
    println!("  completed        {}", sim.completed);
    println!("  cache hit rate   {:.3}", sim.hit_rate());
    println!("  UP share         {:.3}", sim.up_share());

    println!(
        "\ntoken accounting: runtime reused {} vs simulator {} ({} total)",
        live.reused_tokens, sim.reused_tokens, sim.total_tokens
    );
    assert_eq!(
        live, sim,
        "one driver: the runtime's run is the simulator's"
    );
    println!(
        "runtime and simulator agree bit for bit (digest {:016x})",
        sim.digest()
    );
}
