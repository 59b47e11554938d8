//! Cluster hardware descriptions.
//!
//! The paper evaluates on two testbeds (§6.1): a 4-node cluster (one 40GB
//! A100 per node, 200GB host memory, 100Gbps network) and a 16-node
//! production cluster (one H20 per node, 500GB host memory, 200Gbps).
//! [`ClusterConfig`] captures the knobs the serving simulator needs.

use crate::units::Bytes;
use serde::{Deserialize, Serialize};

/// Hardware description of one node: one inference worker (GPU) plus one
/// KV cache worker (host memory pool), as deployed in §6.1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeConfig {
    /// Peak GPU FP16 throughput in FLOP/s (A100 ≈ 312e12).
    pub gpu_peak_flops: f64,
    /// Fraction of peak sustained on prefill GEMMs (MFU); 0.45 is typical
    /// for dense prefill on A100-class parts.
    pub gpu_efficiency: f64,
    /// Host→GPU interconnect bandwidth in bytes/s (PCIe 3.0 x16 ≈ 16e9,
    /// PCIe 4.0 x16 ≈ 20e9 usable). Used when loading prefix KV caches from
    /// the local CPU pool (§3.2).
    pub pcie_bandwidth: f64,
    /// Inter-node network bandwidth in bytes/s (100Gbps ≈ 12.5e9).
    pub network_bandwidth: f64,
    /// Host memory the KV cache worker may use for cached KV entries.
    pub kv_cache_capacity: Bytes,
}

impl NodeConfig {
    /// A node of the paper's 4-node A100 testbed (§6.1): 40GB A100 on PCIe
    /// 3.0 x16, 100Gbps network, 150GB of the 200GB host memory given to the
    /// KV cache (the allocation used in §6.4).
    pub fn a100_testbed() -> Self {
        NodeConfig {
            gpu_peak_flops: 312e12,
            gpu_efficiency: 0.45,
            pcie_bandwidth: 16e9,
            network_bandwidth: 12.5e9,
            kv_cache_capacity: Bytes::from_gb(150),
        }
    }

    /// A node of the 16-node H20 production testbed (§6.1): H20 (~148 TFLOPS
    /// dense FP16), 200Gbps network, 400GB of the 500GB host memory for KV.
    pub fn h20_production() -> Self {
        NodeConfig {
            gpu_peak_flops: 148e12,
            gpu_efficiency: 0.5,
            pcie_bandwidth: 25e9,
            network_bandwidth: 25e9,
            kv_cache_capacity: Bytes::from_gb(400),
        }
    }

    /// Effective sustained GPU throughput in FLOP/s.
    #[inline]
    pub fn effective_flops(&self) -> f64 {
        self.gpu_peak_flops * self.gpu_efficiency
    }

    /// Overrides the inter-node bandwidth, e.g. for the 10Gbps vs 100Gbps
    /// comparison of Figure 7.
    pub fn with_network_gbps(mut self, gbps: f64) -> Self {
        self.network_bandwidth = gbps * 1e9 / 8.0;
        self
    }
}

/// A homogeneous cluster of [`NodeConfig`] nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of nodes; each runs one inference worker and one cache worker.
    pub num_nodes: usize,
    /// Per-node hardware.
    pub node: NodeConfig,
    /// Maximum batched tokens per inference step (§5.1 enforces a
    /// *max-batched-tokens* limit, e.g. 4000, to meet the latency SLA).
    pub max_batched_tokens: u32,
    /// Communication/computation tolerance `α` of Algorithm 1.
    pub alpha: f64,
}

impl ClusterConfig {
    /// The paper's main 4-node A100 testbed.
    pub fn a100_4node() -> Self {
        ClusterConfig {
            num_nodes: 4,
            node: NodeConfig::a100_testbed(),
            max_batched_tokens: 4000,
            alpha: 0.01,
        }
    }

    /// The 16-node H20 production testbed (§6.6).
    pub fn h20_16node() -> Self {
        ClusterConfig {
            num_nodes: 16,
            node: NodeConfig::h20_production(),
            max_batched_tokens: 4000,
            alpha: 0.01,
        }
    }

    /// Resizes the cluster (Figure 11 sweeps 1..16 nodes).
    pub fn with_nodes(mut self, n: usize) -> Self {
        assert!(n > 0, "cluster must have at least one node");
        self.num_nodes = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_presets_are_sane() {
        let c = ClusterConfig::a100_4node();
        assert_eq!(c.num_nodes, 4);
        assert!(c.node.effective_flops() > 1e14);
        assert_eq!(c.node.kv_cache_capacity * 4, Bytes::from_gb(600));

        let p = ClusterConfig::h20_16node();
        assert_eq!(p.num_nodes, 16);
        assert_eq!(p.node.kv_cache_capacity * 16, Bytes::from_gb(6400));
    }

    #[test]
    fn network_override_converts_gbps_to_bytes() {
        let n = NodeConfig::a100_testbed().with_network_gbps(10.0);
        assert!((n.network_bandwidth - 1.25e9).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_cluster_rejected() {
        let _ = ClusterConfig::a100_4node().with_nodes(0);
    }
}
