//! The GPU / interconnect cost model.
//!
//! The paper's serving results are driven by how many tokens each request
//! *computes* versus *reuses*, and how many KV bytes move across PCIe and
//! the network. We model those with the standard dense-transformer roofline
//! (§3.1's "compute-bound prefill"):
//!
//! * prefill time = `(2·params·S + 4·L·d·S·T) / (peak_flops × MFU)` for `S`
//!   new tokens against a `T`-token context (see
//!   [`bat_types::ModelConfig::prefill_flops`]);
//! * prefix-cache load = `bytes / pcie_bandwidth` (§3.2 loads KV from CPU
//!   memory);
//! * remote item fetch = `bytes / network_bandwidth` (§5.2's inter-node
//!   transfers).
//!
//! Absolute latencies land in the same regime as Figure 2a (hundreds of
//! milliseconds for 8K-token recomputation on an A100-class part, ~10× less
//! for a prefix-cache load); relative results depend only on token/byte
//! accounting.

use bat_types::{Bytes, ModelConfig, NodeConfig};

/// Cost model binding a model architecture to node hardware.
///
/// ```
/// use bat_sim::ComputeModel;
/// use bat_types::{ModelConfig, NodeConfig};
///
/// let m = ComputeModel::new(ModelConfig::qwen2_1_5b(), NodeConfig::a100_testbed());
/// // A 50% prefix hit cuts prefill well below full recomputation even
/// // after paying the PCIe load (Figure 2a's comparison).
/// let full = m.prefill_secs(3000, 3000);
/// let cached = m.prefill_secs(1500, 3000) + m.kv_load_secs(m.kv_bytes(1500));
/// assert!(cached < full);
/// ```
#[derive(Debug, Clone)]
pub struct ComputeModel {
    model: ModelConfig,
    node: NodeConfig,
}

impl ComputeModel {
    /// Creates a cost model.
    pub fn new(model: ModelConfig, node: NodeConfig) -> Self {
        ComputeModel { model, node }
    }

    /// The model architecture.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// Prefill seconds for `suffix` new tokens against a `context`-token
    /// attention context.
    ///
    /// # Panics
    ///
    /// Panics if `suffix > context`.
    pub fn prefill_secs(&self, suffix: u64, context: u64) -> f64 {
        self.model.prefill_flops(suffix, context) / self.node.effective_flops()
    }

    /// Seconds to load `bytes` of prefix KV cache from host memory over
    /// PCIe.
    pub fn kv_load_secs(&self, bytes: Bytes) -> f64 {
        bytes / self.node.pcie_bandwidth
    }

    /// Seconds to pull `bytes` of KV cache from a remote cache worker.
    pub fn net_transfer_secs(&self, bytes: Bytes) -> f64 {
        bytes / self.node.network_bandwidth
    }

    /// KV bytes of a `tokens`-token entry.
    pub fn kv_bytes(&self, tokens: u64) -> Bytes {
        Bytes::new(self.model.kv_bytes(tokens))
    }

    /// Algorithm 1's `PrefillTime(τ_u, c × τ_i)` estimate: full
    /// recomputation of an average prompt (user suffix after the shared
    /// item prefix). The paper fits a polynomial regression offline; our
    /// analytic model *is* that polynomial.
    pub fn prefill_estimate_secs(&self, user_tokens: u64, item_block_tokens: u64) -> f64 {
        let total = user_tokens + item_block_tokens;
        self.prefill_secs(total, total)
    }

    /// Algorithm 1's `B`: network bandwidth in KV *tokens* per second.
    pub fn net_tokens_per_sec(&self) -> f64 {
        self.node.network_bandwidth / self.model.kv_bytes_per_token() as f64
    }

    /// A crude upper bound on per-node saturation QPS with full
    /// recomputation — used to pick offered loads for saturation
    /// measurements.
    pub fn recompute_qps_upper_bound(&self, avg_prompt_tokens: u64) -> f64 {
        1.0 / self.prefill_secs(avg_prompt_tokens, avg_prompt_tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a100_qwen() -> ComputeModel {
        ComputeModel::new(ModelConfig::qwen2_1_5b(), NodeConfig::a100_testbed())
    }

    #[test]
    fn fig2a_recompute_exceeds_slo_at_long_context() {
        // Figure 2a / §3.1: with long sequences the computation latency
        // "can easily exceed" a 100–200 ms SLO even at batch size 1.
        let m = ComputeModel::new(ModelConfig::qwen2_7b(), NodeConfig::a100_testbed());
        let t = m.prefill_secs(8192, 8192);
        assert!(t > 0.2, "Qwen2-7B @ 8K should exceed 200ms, got {t}s");
        let small = a100_qwen().prefill_secs(512, 512);
        assert!(small < 0.1, "Qwen2-1.5B @ 512 stays well under SLO");
    }

    #[test]
    fn fig2a_prefix_load_is_order_of_magnitude_cheaper() {
        // §3.2: prefix caching is "orders of magnitude lower serving
        // latency than recomputation".
        let m = a100_qwen();
        let recompute = m.prefill_secs(8192, 8192);
        let load = m.kv_load_secs(m.kv_bytes(8192));
        assert!(
            recompute / load > 8.0,
            "recompute {recompute}s vs load {load}s"
        );
    }

    #[test]
    fn prefix_hit_reduces_latency() {
        let m = a100_qwen();
        let full = m.prefill_secs(3000, 3000);
        let cached = m.prefill_secs(1500, 3000) + m.kv_load_secs(m.kv_bytes(1500));
        assert!(cached < 0.7 * full);
    }

    #[test]
    fn network_slower_than_pcie() {
        let m = a100_qwen();
        let b = m.kv_bytes(1000);
        assert!(m.net_transfer_secs(b) > m.kv_load_secs(b));
    }

    #[test]
    fn algorithm1_inputs_are_consistent() {
        let m = a100_qwen();
        // 100 Gbps / 28672 B per token ≈ 436K tokens/s.
        let b = m.net_tokens_per_sec();
        assert!((b - 12.5e9 / 28672.0).abs() < 1.0);
        let t = m.prefill_estimate_secs(1500, 1000);
        assert!(t > 0.01 && t < 0.5, "estimate {t}s out of expected range");
    }

    #[test]
    fn qps_bound_is_positive_and_decreasing_in_length() {
        let m = a100_qwen();
        assert!(m.recompute_qps_upper_bound(1000) > m.recompute_qps_upper_bound(4000));
    }
}
