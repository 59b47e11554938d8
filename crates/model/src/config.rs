//! Architecture configuration of the runnable (laptop-scale) GR transformer.
//!
//! This is distinct from [`bat_types::ModelConfig`]: that type carries the
//! *paper-scale* hyper-parameters (Table 2) used by the cost and memory
//! models, while [`GrModelConfig`] describes the small transformer this
//! crate actually runs forward passes on for the accuracy experiments.

/// Hyper-parameters of the runnable GR transformer.
///
/// ```
/// use bat_model::GrModelConfig;
///
/// let cfg = GrModelConfig::tiny(64);
/// assert_eq!(cfg.kv_dim(), cfg.kv_heads * cfg.head_dim);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GrModelConfig {
    /// Vocabulary size. The first `num_items` token IDs are item-identifier
    /// tokens `v_i` (§2.2); the rest are attribute/instruction tokens.
    pub vocab_size: usize,
    /// Residual-stream width.
    pub hidden_dim: usize,
    /// Number of transformer layers.
    pub layers: usize,
    /// Number of query heads.
    pub query_heads: usize,
    /// Number of KV heads (GQA: `query_heads % kv_heads == 0`).
    pub kv_heads: usize,
    /// Per-head dimension.
    pub head_dim: usize,
    /// FFN inner width.
    pub ffn_dim: usize,
    /// Maximum position ID (RoPE table size).
    pub max_positions: usize,
    /// RoPE frequency base (10 000 in Llama/Qwen).
    pub rope_base: f32,
}

impl GrModelConfig {
    /// A small but non-trivial configuration used by the accuracy
    /// experiments: 2 layers, 4 query heads, 2 KV heads, hidden 32.
    pub fn tiny(vocab_size: usize) -> Self {
        GrModelConfig {
            vocab_size,
            hidden_dim: 32,
            layers: 2,
            query_heads: 4,
            kv_heads: 2,
            head_dim: 16,
            ffn_dim: 64,
            max_positions: 4096,
            rope_base: 10_000.0,
        }
    }

    /// A slightly deeper configuration for stress tests.
    pub fn small(vocab_size: usize) -> Self {
        GrModelConfig {
            vocab_size,
            hidden_dim: 64,
            layers: 4,
            query_heads: 8,
            kv_heads: 4,
            head_dim: 16,
            ffn_dim: 128,
            max_positions: 4096,
            rope_base: 10_000.0,
        }
    }

    /// A Qwen2-1.5B-shaped proxy at laptop scale, used by the perf
    /// baseline (`batctl bench`'s `forward_*` rows): it keeps Qwen2-1.5B's head layout
    /// (12 query heads, 2 KV heads — the paper's serving model, Table 2)
    /// and its 1e6 RoPE base, with hidden/FFN widths scaled down ~16× so a
    /// 100-candidate ranking prompt is benchmarkable in scalar f32.
    pub fn qwen2_1_5b_proxy(vocab_size: usize) -> Self {
        GrModelConfig {
            vocab_size,
            hidden_dim: 96,
            layers: 4,
            query_heads: 12,
            kv_heads: 2,
            head_dim: 8,
            ffn_dim: 256,
            max_positions: 4096,
            rope_base: 1_000_000.0,
        }
    }

    /// Total query projection width (`query_heads × head_dim`).
    #[inline]
    pub fn q_dim(&self) -> usize {
        self.query_heads * self.head_dim
    }

    /// Total KV projection width (`kv_heads × head_dim`).
    #[inline]
    pub fn kv_dim(&self) -> usize {
        self.kv_heads * self.head_dim
    }

    /// Query heads per KV head (GQA group size).
    #[inline]
    pub fn gqa_group(&self) -> usize {
        self.query_heads / self.kv_heads
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let positive = [
            ("vocab_size", self.vocab_size),
            ("layers", self.layers),
            ("hidden_dim", self.hidden_dim),
            ("query_heads", self.query_heads),
            ("head_dim", self.head_dim),
            ("max_positions", self.max_positions),
        ];
        if let Some((field, _)) = positive.iter().find(|(_, value)| *value == 0) {
            return Err(format!("{field} must be positive"));
        }
        if self.kv_heads == 0 || !self.query_heads.is_multiple_of(self.kv_heads) {
            return Err(format!(
                "query_heads ({}) must be a positive multiple of kv_heads ({})",
                self.query_heads, self.kv_heads
            ));
        }
        if !self.head_dim.is_multiple_of(2) {
            return Err("head_dim must be even for RoPE".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_config_is_valid() {
        let cfg = GrModelConfig::tiny(100);
        cfg.validate().unwrap();
        assert_eq!(cfg.q_dim(), 64);
        assert_eq!(cfg.kv_dim(), 32);
        assert_eq!(cfg.gqa_group(), 2);
    }

    #[test]
    fn qwen_proxy_is_valid_and_keeps_head_layout() {
        let cfg = GrModelConfig::qwen2_1_5b_proxy(4096);
        cfg.validate().unwrap();
        // Qwen2-1.5B's GQA layout: 12 query heads over 2 KV heads.
        assert_eq!((cfg.query_heads, cfg.kv_heads), (12, 2));
        assert_eq!(cfg.gqa_group(), 6);
        assert_eq!(cfg.q_dim(), cfg.hidden_dim);
    }

    #[test]
    fn validation_rejects_bad_gqa() {
        let mut cfg = GrModelConfig::tiny(100);
        cfg.kv_heads = 3;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_odd_head_dim() {
        let mut cfg = GrModelConfig::tiny(100);
        cfg.head_dim = 7;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_fields() {
        type Zero = fn(&mut GrModelConfig);
        let zeroed: [(&str, Zero); 6] = [
            ("vocab_size", |c| c.vocab_size = 0),
            ("layers", |c| c.layers = 0),
            ("max_positions", |c| c.max_positions = 0),
            ("query_heads", |c| c.query_heads = 0),
            ("head_dim", |c| c.head_dim = 0),
            ("hidden_dim", |c| c.hidden_dim = 0),
        ];
        for (field, zero) in zeroed {
            let mut cfg = GrModelConfig::tiny(100);
            zero(&mut cfg);
            let err = cfg.validate().expect_err(field);
            assert!(err.contains(field), "{field} rejected unnamed: {err}");
        }
    }
}
