//! Placement planning walkthrough: Algorithm 1 end to end.
//!
//! Plans the item-KV placement for an Industry-scale corpus on the two
//! paper testbeds: derives the tolerable remote-access ratio from network
//! bandwidth and prefill time, picks the replication ratio off the
//! popularity CDF, materializes the plan, and prints the memory split and
//! expected traffic locality.
//!
//! Run with:
//! ```text
//! cargo run --release -p bat --example placement_planner
//! ```

use bat::{hrcs_params, hrcs_plan, ClusterConfig, DatasetConfig, ModelConfig, ZipfLaw};

fn plan_for(cluster: &ClusterConfig, label: &str) {
    let model = ModelConfig::qwen2_1_5b();
    let ds = DatasetConfig::industry();
    let law = ZipfLaw::new(ds.num_items, ds.item_zipf_exponent);
    // Algorithm 1's inputs, and the capped plan it yields.
    let params = hrcs_params(&model, cluster, &ds);
    let plan = hrcs_plan(&model, cluster, &ds);

    let user_region = cluster
        .node
        .kv_cache_capacity
        .saturating_sub(plan.per_worker_bytes());
    // Of the accesses to cached items: replicated head is always local; the
    // sharded tail is local 1/N of the time.
    let head = plan.replicated_items();
    let head_mass = law.head_mass(head.min(law.n()));
    let cached_mass = plan.cached_access_mass(&law);
    let n = cluster.num_nodes as f64;
    let local = head_mass + (cached_mass - head_mass) / n;

    println!("== {label} ==");
    println!(
        "  network budget        {:>10.0} KV tokens/s",
        params.bandwidth_tokens_per_sec
    );
    println!(
        "  est. prefill time     {:>10.1} ms",
        params.prefill_time_secs * 1e3
    );
    println!(
        "  max remote ratio R    {:>10.4}",
        params.max_remote_ratio()
    );
    println!("  replication ratio r   {:>10.4}", plan.replication_ratio());
    println!("  replicated items      {:>10}", plan.replicated_items());
    println!(
        "  cached items          {:>10}  (of {})",
        plan.cached_items(),
        plan.num_items()
    );
    println!("  item region / node    {:>10}", plan.per_worker_bytes());
    println!("  user region / node    {:>10}", user_region);
    println!(
        "  item-access locality  {:>9.1}% local, {:.1}% remote, {:.1}% uncached",
        local * 100.0,
        (cached_mass - local) * 100.0,
        (1.0 - cached_mass) * 100.0
    );
    println!();
}

fn main() {
    println!("HRCS placement planning (Industry, Qwen2-1.5B)\n");
    plan_for(&ClusterConfig::a100_4node(), "4-node A100 testbed, 100Gbps");

    let mut slow = ClusterConfig::a100_4node();
    slow.node = slow.node.with_network_gbps(10.0);
    plan_for(
        &slow,
        "4-node A100 testbed, 10Gbps (replicates a larger head)",
    );

    plan_for(
        &ClusterConfig::h20_16node(),
        "16-node H20 production, 200Gbps",
    );
}
